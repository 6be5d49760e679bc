//! Portable explicit-SIMD lanes for the hot row kernels.
//!
//! The row kernels of this crate are written once as *generic* per-point
//! bodies over an element type `E: Elem`, then driven by `lane_loop!`:
//! over [`Lane`] (a fixed-width bundle of [`W`] points, the explicit
//! data-level parallelism the auto-vectorizer is nudged into keeping in
//! registers) for the full chunks, and over `f64` for the ragged tail.
//! Every arithmetic operator on [`Lane`] is a slot-wise `f64` operation —
//! the same expression tree per point as the plain-`f64` instantiation — so
//! the chunks are **bitwise identical** to the tail by construction (no
//! reassociation, no FMA contraction, no shuffles), which the golden
//! property tests in `golden.rs` pin against the per-point `*_scalar`
//! oracles (compiled for tests only).
//!
//! There is one path and nothing selects it.  The single kernel that runs
//! its whole row at `f64` (`row_loop!`, `diag::dp_row`) does so because it
//! measured no slower that way, as a fact of its call site.
//!
//! Nothing here names an instruction set either: how many machine
//! registers a [`Lane`] is follows from what the build targets, which is
//! the host's vector unit under the repository's `.cargo/config.toml`
//! (`-C target-cpu=native`) and SSE2 pairs in a baseline build — the same
//! bits both ways (`lane_multiply_add_is_two_roundings`, and CI's
//! `baseline-isa` leg holds every blessed fingerprint to it).

use core::ops::{Add, Div, Mul, Neg, Sub};

/// Lane width of [`Lane`]: four `f64` slots — one 256-bit register in the
/// host-ISA build, two SSE2 or NEON registers in a baseline one.  A
/// build-time constant so chunk loops fully unroll.  Kept at 4 by the
/// campaign that followed the move to the host ISA (EXPERIMENTS.md "Build
/// for the host ISA": `W = 8` read 0.973× on `mid_serial` and won 3 pairs
/// of 10 on a host with 512-bit registers).
pub const W: usize = 4;

/// An element a kernel body computes one output "point bundle" for:
/// either a single `f64` or a [`Lane`] of [`W`] of them.
///
/// Kernel bodies are written once, generically over `Elem`, and must use
/// only these operations — every implementation is slot-wise `f64`
/// arithmetic, which is what makes lane and scalar instantiations bitwise
/// interchangeable.
pub trait Elem:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Broadcast a per-row scalar into every slot.
    fn splat(v: f64) -> Self;

    /// Load this element's consecutive values starting at `src[at]`.
    fn load(src: &[f64], at: usize) -> Self;

    /// Store the slots at `dst[at..]`.
    fn store(self, dst: &mut [f64], at: usize);

    /// Slot-wise square root (correctly rounded, like the operators).
    fn sqrt(self) -> Self;
}

impl Elem for f64 {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn load(src: &[f64], at: usize) -> Self {
        src[at]
    }

    #[inline(always)]
    fn store(self, dst: &mut [f64], at: usize) {
        dst[at] = self;
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
}

/// A bundle of [`W`] consecutive `f64` points processed together.
///
/// All arithmetic is slot-wise; there is no horizontal operation, so a
/// `Lane` computation is exactly [`W`] independent scalar computations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Lane([f64; W]);

macro_rules! lane_binop {
    ($tr:ident, $f:ident, $op:tt) => {
        impl $tr for Lane {
            type Output = Lane;
            #[inline(always)]
            fn $f(self, rhs: Lane) -> Lane {
                let mut out = [0.0; W];
                for (o, (s, r)) in out.iter_mut().zip(self.0.into_iter().zip(rhs.0)) {
                    *o = s $op r;
                }
                Lane(out)
            }
        }
    };
}

lane_binop!(Add, add, +);
lane_binop!(Sub, sub, -);
lane_binop!(Mul, mul, *);
lane_binop!(Div, div, /);

impl Neg for Lane {
    type Output = Lane;
    #[inline(always)]
    fn neg(self) -> Lane {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o = -*o;
        }
        Lane(out)
    }
}

impl Elem for Lane {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        Lane([v; W])
    }

    #[inline(always)]
    fn load(src: &[f64], at: usize) -> Self {
        let mut out = [0.0; W];
        out.copy_from_slice(&src[at..at + W]);
        Lane(out)
    }

    #[inline(always)]
    fn store(self, dst: &mut [f64], at: usize) {
        dst[at..at + W].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        Lane(self.0.map(f64::sqrt))
    }
}

/// Drive a generic per-point body over `n` consecutive points: chunks of
/// the bracketed lane type, if one is given, while they fit; then `f64`.
///
/// In a test build, a thread inside `counted::divisions_in` runs the
/// whole row at `counted::Counted` first, which leaves the others nothing.
macro_rules! elem_loop {
    ([$($lane:ty)?], $n:expr, $e:ident, $ii:ident, $body:expr) => {{
        let n: usize = $n;
        let mut $ii = 0usize;
        #[cfg(test)]
        while $ii < n && $crate::lanes::counted::counting() {
            {
                type $e = $crate::lanes::counted::Counted;
                $body;
            }
            $ii += 1;
        }
        $(
            while $ii + $crate::lanes::W <= n {
                {
                    type $e = $lane;
                    $body;
                }
                $ii += $crate::lanes::W;
            }
        )?
        while $ii < n {
            {
                type $e = f64;
                $body;
            }
            $ii += 1;
        }
    }};
}
pub(crate) use elem_loop;

/// The row driver of every kernel but one: [`Lane`] chunks while they fit,
/// then an `f64` tail.
///
/// `$body` is an expression over `$e` (bound to the element type: [`Lane`]
/// or `f64`) and `$ii` (the starting point index of the current element) —
/// typically a call `body::<$e>($ii, …)` of a generic kernel body.
macro_rules! lane_loop {
    ($($args:tt)*) => {
        $crate::lanes::elem_loop!([$crate::lanes::Lane], $($args)*)
    };
}
pub(crate) use lane_loop;

/// `lane_loop!` without the lane chunks: the whole row at `f64`, for a
/// body the compiler already packs and the explicit bundles only slow down.
macro_rules! row_loop {
    ($($args:tt)*) => {
        $crate::lanes::elem_loop!([], $($args)*)
    };
}
pub(crate) use row_loop;

/// A test-only [`Elem`]: one `f64` whose `Div` bumps a thread-local counter,
/// so a test can drive the real sweeps (`counted::divisions_in`) and
/// assert how many divisions they spend per output point.
#[cfg(test)]
pub(crate) mod counted {
    use super::Elem;
    use core::ops::{Add, Div, Mul, Neg, Sub};
    use std::cell::Cell;

    thread_local! {
        static DIVISIONS: Cell<u64> = const { Cell::new(0) };
        static COUNTING: Cell<bool> = const { Cell::new(false) };
    }

    /// Whether this thread's row loops run at [`Counted`].
    pub fn counting() -> bool {
        COUNTING.with(Cell::get)
    }

    /// Run `f` with this thread's row loops at [`Counted`] and the pool at
    /// one worker (a band on another thread would be neither switched nor
    /// seen), and return the divisions it performed.
    pub fn divisions_in(f: impl FnOnce()) -> u64 {
        let before = DIVISIONS.with(Cell::get);
        COUNTING.with(|c| c.set(true));
        crate::pool::with_workers(1, f);
        COUNTING.with(|c| c.set(false));
        DIVISIONS.with(Cell::get) - before
    }

    fn count_one() {
        DIVISIONS.with(|d| d.set(d.get() + 1));
    }

    #[derive(Clone, Copy)]
    pub struct Counted(f64);

    macro_rules! counted_binop {
        ($tr:ident, $f:ident, $op:tt) => {
            impl $tr for Counted {
                type Output = Counted;
                fn $f(self, rhs: Counted) -> Counted {
                    Counted(self.0 $op rhs.0)
                }
            }
        };
    }
    counted_binop!(Add, add, +);
    counted_binop!(Sub, sub, -);
    counted_binop!(Mul, mul, *);

    impl Div for Counted {
        type Output = Counted;
        fn div(self, rhs: Counted) -> Counted {
            count_one();
            Counted(self.0 / rhs.0)
        }
    }

    impl Neg for Counted {
        type Output = Counted;
        fn neg(self) -> Counted {
            Counted(-self.0)
        }
    }

    impl Elem for Counted {
        fn splat(v: f64) -> Self {
            Counted(v)
        }

        fn load(src: &[f64], at: usize) -> Self {
            Counted(src[at])
        }

        fn store(self, dst: &mut [f64], at: usize) {
            dst[at] = self.0;
        }

        fn sqrt(self) -> Self {
            Counted(self.0.sqrt())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_ops_are_slotwise_f64_bitwise() {
        let xs = [1.25e-3, -7.5, 3.0e17, -0.0];
        let ys = [3.7, 0.125, -9.1e-9, 42.0];
        let a = Lane::load(&xs, 0);
        let b = Lane::load(&ys, 0);
        type ScalarOp = fn(f64, f64) -> f64;
        let cases: [(Lane, ScalarOp); 4] = [
            (a + b, |x, y| x + y),
            (a - b, |x, y| x - y),
            (a * b, |x, y| x * y),
            (a / b, |x, y| x / y),
        ];
        for (lane, op) in cases {
            for slot in 0..W {
                assert_eq!(lane.0[slot].to_bits(), op(xs[slot], ys[slot]).to_bits());
            }
        }
        for (slot, &x) in xs.iter().enumerate() {
            assert_eq!((-a).0[slot].to_bits(), (-x).to_bits());
        }
    }

    /// The lane form of `tests/build_isa.rs`'s case: `a·a + c` fused is one
    /// ulp above `a·a + c` rounded twice, and a `Lane` must give the latter
    /// in every slot on whatever ISA this was built for.
    #[test]
    fn lane_multiply_add_is_two_roundings() {
        use std::hint::black_box;
        let a = Lane::splat(black_box(1.0 + 1.0 / (1u64 << 27) as f64));
        let c = Lane::splat(black_box(1.0 / (1u64 << 53) as f64));
        let unfused = 1.0 + 1.0 / (1u64 << 26) as f64;
        for slot in black_box(a * a + c).0 {
            assert_eq!(slot.to_bits(), unfused.to_bits());
        }
    }

    #[test]
    fn load_store_round_trip() {
        let src = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5];
        let mut dst = [0.0; 6];
        Lane::load(&src, 1).store(&mut dst, 1);
        assert_eq!(&dst[1..5], &src[1..5]);
        assert_eq!(dst[0], 0.0);
        assert_eq!(dst[5], 0.0);
        let mut one = [0.0; 2];
        <f64 as Elem>::load(&src, 3).store(&mut one, 1);
        assert_eq!(one, [0.0, 3.5]);
    }

    #[test]
    fn splat_fills_every_slot() {
        assert_eq!(Lane::splat(2.25).0, [2.25; W]);
        assert_eq!(<f64 as Elem>::splat(2.25), 2.25);
    }
}
