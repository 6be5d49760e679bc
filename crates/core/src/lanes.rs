//! Portable explicit-SIMD lanes for the hot row kernels.
//!
//! The row kernels of this crate are written once as *generic* per-point
//! bodies over an element type `E: Elem`, then driven twice per row: over
//! [`Lane`] (a fixed-width bundle of [`W`] points, the explicit data-level
//! parallelism the auto-vectorizer is nudged into keeping in registers) for
//! the full chunks, and over `f64` for the ragged tail.  Every arithmetic
//! operator on [`Lane`] is a slot-wise `f64` operation — the same expression
//! tree per point as the plain-`f64` instantiation — so the lane path is
//! **bitwise identical** to the row path by construction (no reassociation,
//! no FMA contraction, no shuffles), which the golden property tests in
//! `golden.rs` pin against the retained `*_scalar` references.
//!
//! The build-time fallback: compiling `agcm-core` with the `scalar-rows`
//! feature makes [`KernelPath::build_default`] select [`KernelPath::Rows`],
//! so every kernel runs the tail loop (the PR 4 scalar-row path) over the
//! whole row.  Both paths stay compiled and publicly reachable
//! (`*_lanes` / `*_rows` entry points) so the bench harness can compare
//! lane-vs-row-vs-scalar in a single binary.

use core::ops::{Add, Div, Mul, Neg, Sub};

/// Lane width of [`Lane`]: four `f64` slots (one AVX2 register / two NEON
/// registers).  A build-time constant so chunk loops fully unroll.
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
    /// Number of consecutive points this element covers.
    const WIDTH: usize;

    /// Broadcast a per-row scalar into every slot.
    fn splat(v: f64) -> Self;

    /// Load `WIDTH` consecutive values starting at `src[at]`.
    fn load(src: &[f64], at: usize) -> Self;

    /// Store the slots into `dst[at..at + WIDTH]`.
    fn store(self, dst: &mut [f64], at: usize);

    /// Slot-wise square root (correctly rounded, like the operators).
    fn sqrt(self) -> Self;
}

impl Elem for f64 {
    const WIDTH: usize = 1;

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
pub struct Lane([f64; W]);

impl Lane {
    /// The slot values.
    #[inline(always)]
    pub fn to_array(self) -> [f64; W] {
        self.0
    }
}

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
    const WIDTH: usize = W;

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

/// Which instantiation of the generic kernel bodies a call runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// [`Lane`] chunks plus an `f64` tail — the default.
    Lanes,
    /// The whole row at `f64` (the PR 4 scalar-row path).
    Rows,
    /// The whole row at [`counted::Counted`]: `f64` arithmetic that counts
    /// its divisions (the division-budget tests).
    #[cfg(test)]
    Counted,
}

impl KernelPath {
    /// The path the build selects: `Rows` under the `scalar-rows` feature,
    /// `Lanes` otherwise.
    pub const fn build_default() -> Self {
        if cfg!(feature = "scalar-rows") {
            KernelPath::Rows
        } else {
            KernelPath::Lanes
        }
    }

    /// This path with the lane chunks off: the whole row at one element.
    pub fn without_lanes(self) -> Self {
        match self {
            KernelPath::Lanes => KernelPath::Rows,
            other => other,
        }
    }

    /// Whether the lane chunk loop runs.
    #[inline(always)]
    pub fn lanes(self) -> bool {
        matches!(self, KernelPath::Lanes)
    }
}

/// Drive a generic per-point body over `n` consecutive points: [`Lane`]
/// chunks while they fit (when `path` enables them), then an `f64` tail.
///
/// `$body` is an expression over `$e` (bound to the element type: [`Lane`]
/// or `f64`) and `$ii` (the starting point index of the current element) —
/// typically a call `body::<$e>($ii, …)` of a generic kernel body.
#[macro_export]
macro_rules! lane_loop {
    ($path:expr, $n:expr, $e:ident, $ii:ident, $body:expr) => {{
        let path: $crate::lanes::KernelPath = $path;
        let n: usize = $n;
        let mut $ii = 0usize;
        if path.lanes() {
            while $ii + $crate::lanes::W <= n {
                {
                    type $e = $crate::lanes::Lane;
                    $body;
                }
                $ii += $crate::lanes::W;
            }
        }
        #[cfg(test)]
        while $ii < n && path == $crate::lanes::KernelPath::Counted {
            {
                type $e = $crate::lanes::counted::Counted;
                $body;
            }
            $ii += 1;
        }
        while $ii < n {
            {
                type $e = f64;
                $body;
            }
            $ii += 1;
        }
    }};
}

/// A test-only [`Elem`]: one `f64` whose `Div` bumps a thread-local counter,
/// so a test can drive the real sweeps ([`KernelPath::Counted`]) and assert
/// how many divisions they spend per output point.
#[cfg(test)]
pub(crate) mod counted {
    use super::Elem;
    use core::ops::{Add, Div, Mul, Neg, Sub};
    use std::cell::Cell;

    thread_local! {
        static DIVISIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Divisions [`Counted`] performed on this thread while `f` ran (run
    /// sweeps at one pool worker: bands on other threads are not seen).
    pub fn divisions_in(f: impl FnOnce()) -> u64 {
        let before = DIVISIONS.with(Cell::get);
        f();
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
        const WIDTH: usize = 1;

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
                assert_eq!(
                    lane.to_array()[slot].to_bits(),
                    op(xs[slot], ys[slot]).to_bits()
                );
            }
        }
        for (slot, &x) in xs.iter().enumerate() {
            assert_eq!((-a).to_array()[slot].to_bits(), (-x).to_bits());
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
        assert_eq!(Lane::splat(2.25).to_array(), [2.25; W]);
        assert_eq!(<f64 as Elem>::splat(2.25), 2.25);
    }

    #[test]
    fn build_default_honours_the_feature() {
        let want = if cfg!(feature = "scalar-rows") {
            KernelPath::Rows
        } else {
            KernelPath::Lanes
        };
        assert_eq!(KernelPath::build_default(), want);
        assert_eq!(want.lanes(), !cfg!(feature = "scalar-rows"));
    }
}
