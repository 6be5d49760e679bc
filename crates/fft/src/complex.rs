//! Minimal complex arithmetic for the FFT.
//!
//! Implemented in-crate (rather than pulling in an external numerics crate)
//! because the FFT itself is part of the reproduction: the Fourier polar
//! filtering `F` is one of the five operators of the paper's calculating
//! flow (Eq. 8), and its data movement — not just its result — matters.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number in cartesian form.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Zero.
    #[inline]
    pub const fn zero() -> Self {
        Complex { re: 0.0, im: 0.0 }
    }

    /// One.
    #[inline]
    pub const fn one() -> Self {
        Complex { re: 1.0, im: 0.0 }
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiply by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, o: Complex) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

/// Latitude circles the batched transform carries in lock-step (the slot
/// count of the crate-private `CLane`).  A build-time constant picked by
/// measurement on the bench host under baseline SSE2 (DESIGN.md §8) and kept
/// by the campaign that followed the move to the host ISA, where an
/// accumulate's sixteen slots are four 256-bit registers instead of sixteen
/// 128-bit ones (EXPERIMENTS.md "Build for the host ISA": on `mid_serial`
/// `W = 4` read 0.938× and lost all ten pairs, `W = 16` 0.989× and won
/// three) — not a tunable.
pub const W: usize = 8;

/// The element the transform kernel is generic over: one complex number
/// ([`Complex`], one slot) or [`W`] of them in structure-of-arrays form
/// ([`CLane`]).  Every operation is slot-wise `f64` arithmetic with the
/// expression tree of the [`Complex`] implementation, so a lane computation
/// is exactly `W` independent scalar computations — bitwise identical per
/// slot by construction (no reassociation, no shuffles, no horizontal op).
pub(crate) trait Cx: Copy + Default {
    /// Rows this element carries.
    const SLOTS: usize;
    /// `self + 0.0` per component — bit for bit what `zero + self·(1, ±0)`
    /// evaluates to for every finite `self` (the unit-twiddle first term of
    /// every accumulate; see `unit_twiddle_identity_is_exact`).
    fn unit(self) -> Self;

    /// `self + x·t`, one accumulate step against a twiddle-table entry.
    fn mul_acc(self, x: Self, t: Complex) -> Self;

    /// Put the real sample `v` into `slot` (imaginary part zero).
    fn set_real(&mut self, slot: usize, v: f64);

    /// Real part of `slot`.
    fn re(&self, slot: usize) -> f64;

    /// Multiply slot `s` by the real factor `d(s)`.
    fn scale_by(self, d: impl Fn(usize) -> f64) -> Self;

    /// Complex conjugate.
    fn conj(self) -> Self;
}

impl Cx for Complex {
    const SLOTS: usize = 1;

    #[inline(always)]
    fn unit(self) -> Self {
        Complex::new(self.re + 0.0, self.im + 0.0)
    }

    #[inline(always)]
    fn mul_acc(self, x: Self, t: Complex) -> Self {
        self + x * t
    }

    #[inline(always)]
    fn set_real(&mut self, _slot: usize, v: f64) {
        *self = Complex::from(v);
    }

    #[inline(always)]
    fn re(&self, _slot: usize) -> f64 {
        self.re
    }

    #[inline(always)]
    fn scale_by(self, d: impl Fn(usize) -> f64) -> Self {
        self.scale(d(0))
    }

    #[inline(always)]
    fn conj(self) -> Self {
        Complex::conj(self)
    }
}

/// [`W`] complex numbers, one per latitude circle of a batch, as separate
/// real and imaginary arrays so the slot loops compile to packed arithmetic.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CLane {
    re: [f64; W],
    im: [f64; W],
}

impl Cx for CLane {
    const SLOTS: usize = W;

    #[inline(always)]
    fn unit(mut self) -> Self {
        for s in 0..W {
            self.re[s] += 0.0;
            self.im[s] += 0.0;
        }
        self
    }

    #[inline(always)]
    fn mul_acc(mut self, x: Self, t: Complex) -> Self {
        for s in 0..W {
            self.re[s] += x.re[s] * t.re - x.im[s] * t.im;
            self.im[s] += x.re[s] * t.im + x.im[s] * t.re;
        }
        self
    }

    #[inline(always)]
    fn set_real(&mut self, slot: usize, v: f64) {
        self.re[slot] = v;
        self.im[slot] = 0.0;
    }

    #[inline(always)]
    fn re(&self, slot: usize) -> f64 {
        self.re[slot]
    }

    #[inline(always)]
    fn scale_by(mut self, d: impl Fn(usize) -> f64) -> Self {
        for s in 0..W {
            let ds = d(s);
            self.re[s] *= ds;
            self.im[s] *= ds;
        }
        self
    }

    #[inline(always)]
    fn conj(mut self) -> Self {
        for s in 0..W {
            self.im[s] = -self.im[s];
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        // (1+2i)(3-i) = 3 - i + 6i - 2i² = 5 + 5i
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert_eq!(a.norm_sqr(), 5.0);
        assert_eq!(Complex::from(2.0), Complex::new(2.0, 0.0));
        assert_eq!(a.scale(2.0), Complex::new(2.0, 4.0));
    }

    /// What keeps the transform bitwise the same on every ISA it is built
    /// for: an accumulate is products rounded, then sums rounded — never a
    /// fused multiply-add.  With `a = 1 + 2⁻²⁷` and `b = 1 + 2⁻²⁸`, `a·a`
    /// rounds to `1 + 2⁻²⁶` (dropping `2⁻⁵⁴`) and `b·b` to `1 + 2⁻²⁷`
    /// (dropping `2⁻⁵⁶`), so `a·a − b·b` is `2⁻²⁷` exactly and fusing either
    /// product into the subtraction keeps its dropped bits instead.  The
    /// twiddle `(a, b)` puts that difference in the real part of
    /// `(a, b)·t`, `(−b, a)` in the imaginary part.
    #[test]
    fn mul_acc_is_never_fused() {
        use std::hint::black_box;
        let a = black_box(1.0 + 1.0 / (1u64 << 27) as f64);
        let b = black_box(1.0 + 1.0 / (1u64 << 28) as f64);
        let unfused = (1.0 / (1u64 << 27) as f64).to_bits();
        let lane = |v: f64| [black_box(v); W];
        let x = CLane {
            re: lane(a),
            im: lane(b),
        };
        let in_re = CLane::default().mul_acc(x, Complex::new(a, b));
        let in_im = CLane::default().mul_acc(x, Complex::new(-b, a));
        for s in 0..W {
            assert_eq!(in_re.re[s].to_bits(), unfused, "re, slot {s}");
            assert_eq!(in_im.im[s].to_bits(), unfused, "im, slot {s}");
        }
        let x = Complex::new(a, b);
        assert_eq!(
            Complex::zero().mul_acc(x, Complex::new(a, b)).re.to_bits(),
            unfused
        );
        assert_eq!(
            Complex::zero().mul_acc(x, Complex::new(-b, a)).im.to_bits(),
            unfused
        );
    }

    #[test]
    fn cis_unit_circle() {
        use std::f64::consts::PI;
        let q = Complex::cis(PI / 2.0);
        assert!((q.re).abs() < 1e-15);
        assert!((q.im - 1.0).abs() < 1e-15);
        assert!((Complex::cis(0.3).abs() - 1.0).abs() < 1e-15);
    }
}
