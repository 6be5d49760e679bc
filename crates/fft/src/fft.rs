//! Mixed-radix fast Fourier transform.
//!
//! A recursive Cooley–Tukey decimation-in-time transform that factors the
//! length into small radices (2, 3, 5, 7, …) and evaluates any remaining
//! prime factor as a naive O(n²) DFT.  Latitude–longitude meshes use smooth
//! `n_x` (the paper's mesh has `n_x = 720 = 2⁴·3²·5`), so large primes only
//! occur on deliberately adversarial sizes.
//!
//! The module holds the transform twice, on purpose:
//!
//! * the **oracle** — [`dft_naive`], [`fft`]/[`ifft`], [`rfft`]/[`irfft`]:
//!   the textbook formulation, allocating per call, every twiddle an inline
//!   `cis`, every accumulate the full `zero + x·w` chain.  Nothing on the
//!   stepping path calls it; tests compare against it bit for bit.
//! * the **kernel** — `transform`: one allocation-free body, generic
//!   over the element (one circle or `W` circles in lock-step), behind
//!   [`FftScratch`] and the polar filter's batched sweep.
//!
//! Conventions: forward transform `X[k] = Σ_j x[j]·e^{-2πi jk/n}` without
//! normalization; the inverse carries the `1/n` factor, so
//! `ifft(fft(x)) = x`.

use crate::complex::{Complex, Cx};

/// Naive O(n²) discrete Fourier transform — the testing oracle.
/// `sign = -1.0` is forward, `+1.0` inverse-style (without normalization).
pub fn dft_naive(x: &[Complex], sign: f64) -> Vec<Complex> {
    let n = x.len();
    let mut out = vec![Complex::zero(); n]; // oracle: lint:allow(alloc)
    if n == 0 {
        return out;
    }
    let w = sign * 2.0 * std::f64::consts::PI / n as f64;
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex::zero();
        for (j, &xj) in x.iter().enumerate() {
            acc += xj * Complex::cis(w * ((j * k) % n) as f64);
        }
        *o = acc;
    }
    out
}

/// Smallest prime factor of `n` (n ≥ 2).
fn smallest_factor(n: usize) -> usize {
    for r in [2usize, 3, 5, 7, 11, 13] {
        if n.is_multiple_of(r) {
            return r;
        }
    }
    let mut r = 17;
    while r * r <= n {
        if n.is_multiple_of(r) {
            return r;
        }
        r += 2;
    }
    n
}

/// Recursive mixed-radix transform, oracle formulation.
fn fft_rec(x: &[Complex], sign: f64) -> Vec<Complex> {
    let n = x.len();
    if n <= 1 {
        return x.to_vec(); // oracle: lint:allow(alloc)
    }
    let r = smallest_factor(n);
    if r == n {
        // prime length: naive DFT (O(n²) — only hit for prime n)
        return dft_naive(x, sign);
    }
    let m = n / r;
    // decimate: sub l takes x[l], x[l+r], x[l+2r], ...
    let subs: Vec<Vec<Complex>> = (0..r)
        .map(|l| {
            // oracle: lint:allow(alloc)
            let stride: Vec<Complex> = (0..m).map(|j| x[l + j * r]).collect();
            fft_rec(&stride, sign)
        })
        // oracle: lint:allow(alloc)
        .collect();
    // combine: X[k] = Σ_l e^{sign·2πi·lk/n} · Sub_l[k mod m]
    let w = sign * 2.0 * std::f64::consts::PI / n as f64;
    let mut out = vec![Complex::zero(); n]; // oracle: lint:allow(alloc)
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex::zero();
        for (l, sub) in subs.iter().enumerate() {
            acc += sub[k % m] * Complex::cis(w * ((l * k) % n) as f64);
        }
        *o = acc;
    }
    out
}

/// Memoized twiddle tables, one per transform length and direction.
///
/// Every root-of-unity the recursion evaluates has the form
/// `cis(sign·2π/n · t)` with `t ∈ 0..n`, so a table of exactly those values
/// — computed with the *same expression* on the *same argument* — substitutes
/// bitwise for the oracle's inline `cis` calls while moving sin/cos out of
/// the per-point combine loops.  The lengths a transform of size `n` needs
/// form the factor chain `n, n/r₁, n/(r₁r₂), …` (all subsequences at one
/// level share a length), so the whole set is precomputed before recursing.
/// Read-only while transforms run: one cache serves every worker.
#[derive(Debug, Clone, Default)]
pub(crate) struct TwiddleCache {
    /// `(n, forward?, table)` — a handful of entries (one chain per length
    /// used), linear scan is cheaper than hashing.
    tables: Vec<(usize, bool, Vec<Complex>)>,
    /// Resolved factor chains, one per direction (`[inverse, forward]`):
    /// the root length plus one [`Level`] per recursion depth.  The kernel
    /// indexes this by depth instead of scanning `tables` at every node —
    /// re-`ensure`-ing the resolved root length is a single compare.
    chains: [(usize, Vec<Level>); 2],
}

/// One recursion depth of a resolved factor chain.
#[derive(Debug, Clone, Copy)]
struct Level {
    /// Transform length at this depth.
    n: usize,
    /// Its smallest prime factor (`r == n` at the prime leaf).
    r: usize,
    /// Index of the length-`n` table in [`TwiddleCache::tables`].
    table: usize,
}

impl TwiddleCache {
    /// Precompute tables and the resolved chain for length `n` in direction
    /// `sign`.  Allocates only the first time a length is seen.
    pub(crate) fn ensure(&mut self, n: usize, sign: f64) {
        let fwd = sign < 0.0;
        let d = fwd as usize;
        if self.chains[d].0 == n {
            return;
        }
        self.chains[d].0 = n;
        // reuse the chain storage (capacity is retained across lengths)
        let mut chain = std::mem::take(&mut self.chains[d].1);
        chain.clear();
        let mut m = n;
        while m > 1 {
            let r = smallest_factor(m);
            let table = match self
                .tables
                .iter()
                .position(|(tn, f, _)| *tn == m && *f == fwd)
            {
                Some(i) => i,
                None => {
                    let w = sign * 2.0 * std::f64::consts::PI / m as f64;
                    // table construction, first sight of a length: lint:allow(alloc)
                    let table: Vec<Complex> = (0..m).map(|t| Complex::cis(w * t as f64)).collect();
                    self.tables.push((m, fwd, table));
                    self.tables.len() - 1
                }
            };
            chain.push(Level { n: m, r, table });
            if r == m {
                break;
            }
            m /= r;
        }
        self.chains[d].1 = chain;
    }

    /// The resolved factor chain of the last `ensure`d root in this
    /// direction, one [`Level`] per recursion depth.
    fn chain(&self, sign: f64) -> &[Level] {
        &self.chains[(sign < 0.0) as usize].1
    }
}

/// The transform kernel — the one body every stepping-path transform runs,
/// generic over the element: [`Complex`] for a single circle, `CLane` for
/// [`crate::complex::W`] circles in lock-step.
///
/// Computes the first `out.len()` coefficients of the DFT of the strided
/// sequence `x[0], x[stride], x[2·stride], …` whose length and factor chain
/// `chain` describes (a caller that keeps only the half spectrum asks for
/// `n/2 + 1` outputs; recursive calls always ask for all).  `arena` is
/// recursion scratch, `2n` elements suffice: each level parks its `r`
/// transformed subsequences in the first `n` slots and recurses into the
/// remainder (`n + n/2 + n/4 + … < 2n`).
///
/// Bitwise identical to the oracle [`fft_rec`] for finite data: same
/// decimation, same table entries (see [`TwiddleCache`]), same accumulation
/// order.  Two things differ, neither in a rounded operation.  The indices
/// `k mod m` and `(l·k) mod n` are maintained incrementally (wrap by reset
/// / by subtraction).  And the first term of every accumulate, which the
/// oracle evaluates as `zero + x·table[0]` with `table[0] = (1, ±0)`
/// exactly, is evaluated as `x + 0.0` ([`Cx::unit`]).  A prime length
/// (`m = 1`) is the same combine reading the strided input directly — its
/// one-point "subsequence transforms" are the input samples themselves.
fn transform<C: Cx>(
    x: &[C],
    stride: usize,
    out: &mut [C],
    arena: &mut [C],
    tw: &TwiddleCache,
    chain: &[Level],
) {
    let Some((&Level { n, r, table }, deeper)) = chain.split_first() else {
        // n ≤ 1: the transform is the identity
        out.copy_from_slice(&x[..out.len()]);
        return;
    };
    let table = tw.tables[table].2.as_slice();
    let m = n / r;
    // sub l is the strided sequence starting at x[l·stride] with stride
    // r·stride; the transformed subs land contiguously in the arena
    let (src, step) = if m == 1 {
        (x, stride)
    } else {
        let (subs, rest) = arena.split_at_mut(n);
        for l in 0..r {
            transform(
                &x[l * stride..],
                r * stride,
                &mut subs[l * m..(l + 1) * m],
                rest,
                tw,
                deeper,
            );
        }
        (&*subs, m)
    };
    // the radices smooth lengths are made of get the combine with `r` a
    // compile-time constant (the `l` loop unrolls); same body, same order
    match r {
        2 => combine(src, step, m, n, 2, table, out),
        3 => combine(src, step, m, n, 3, table, out),
        5 => combine(src, step, m, n, 5, table, out),
        _ => combine(src, step, m, n, r, table, out),
    }
}

/// The combine of [`transform`]: `out[k] = Σ_l src[l·step + k mod m] ·
/// table[(l·k) mod n]` for `l ∈ 0..r`, in that order.
#[inline(always)]
fn combine<C: Cx>(
    src: &[C],
    step: usize,
    m: usize,
    n: usize,
    r: usize,
    table: &[Complex],
    out: &mut [C],
) {
    let mut km = 0usize; // k mod m
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = src[km].unit();
        let mut idx = k; // (l·k) mod n, stepped by k per l
        let mut off = km + step; // l·step + (k mod m), stepped by step per l
        for _ in 1..r {
            acc = acc.mul_acc(src[off], table[idx]);
            off += step;
            idx += k;
            if idx >= n {
                idx -= n;
            }
        }
        *o = acc;
        km += 1;
        if km == m {
            km = 0;
        }
    }
}

/// Staging input, transform output and recursion arena of one worker, for
/// one element type.  Steady-state transforms at a fixed length perform no
/// heap allocation: the buffers are grown once and reused.
#[derive(Debug, Clone, Default)]
pub(crate) struct Buffers<C> {
    /// Full-length staging input (complexified signal / mirrored spectrum).
    pub(crate) a: Vec<C>,
    /// Full-length transform output.
    pub(crate) b: Vec<C>,
    /// Recursion arena (`2n`).
    arena: Vec<C>,
}

impl<C: Cx> Buffers<C> {
    /// Size for length-`n` transforms.  `a` and `b` are fully overwritten
    /// before being read and stale arena slots are written before the
    /// combine reads them, so a same-length reuse is a single compare.
    pub(crate) fn size(&mut self, n: usize) {
        if self.a.len() != n {
            self.a.clear();
            self.a.resize(n, C::default());
            self.b.clear();
            self.b.resize(n, C::default());
            self.arena.clear();
            self.arena.resize(2 * n, C::default());
        }
    }

    /// `b[..outputs] =` the first `outputs` coefficients of the transform
    /// of `a` in direction `sign`; `tw` must be `ensure`d at `a.len()`.
    pub(crate) fn run(&mut self, tw: &TwiddleCache, sign: f64, outputs: usize) {
        debug_assert_eq!(tw.chains[(sign < 0.0) as usize].0, self.a.len());
        transform(
            &self.a,
            1,
            &mut self.b[..outputs],
            &mut self.arena,
            tw,
            tw.chain(sign),
        );
    }
}

/// Reusable buffers for allocation-free transforms of one signal at a time
/// — the [`Complex`] instantiation of the kernel the batched polar filter
/// runs `W` circles at a time.
#[derive(Debug, Clone, Default)]
pub struct FftScratch {
    bufs: Buffers<Complex>,
    /// Roots of unity per transform length and direction.
    tw: TwiddleCache,
}

impl FftScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward real-to-complex FFT into `out` (resized to `n/2 + 1`).
    /// Bitwise-identical to [`rfft`]; allocation-free once warmed up at a
    /// given length.
    pub fn rfft_into(&mut self, x: &[f64], out: &mut Vec<Complex>) {
        let n = x.len();
        self.bufs.size(n);
        self.tw.ensure(n, -1.0);
        for (a, &v) in self.bufs.a.iter_mut().zip(x) {
            *a = Complex::from(v);
        }
        // only the half spectrum is kept, so only it is combined
        let half = n / 2 + 1;
        self.bufs.run(&self.tw, -1.0, half);
        out.clear();
        out.extend_from_slice(&self.bufs.b[..half]);
    }

    /// Inverse of [`FftScratch::rfft_into`]: reconstruct `out.len()` real
    /// samples from the half spectrum (`spectrum.len() == n/2 + 1`).
    /// Bitwise-identical to [`irfft`].
    pub fn irfft_into(&mut self, spectrum: &[Complex], out: &mut [f64]) {
        let n = out.len();
        assert_eq!(
            spectrum.len(),
            n / 2 + 1,
            "half spectrum of length n/2+1 required"
        );
        self.bufs.size(n);
        self.tw.ensure(n, 1.0);
        let a = &mut self.bufs.a;
        a[..spectrum.len()].copy_from_slice(spectrum);
        for k in spectrum.len()..n {
            a[k] = spectrum[n - k].conj();
        }
        self.bufs.run(&self.tw, 1.0, n);
        let s = 1.0 / n as f64;
        for (o, c) in out.iter_mut().zip(&self.bufs.b) {
            *o = c.scale(s).re;
        }
    }
}

/// Forward FFT (no normalization).
pub fn fft(x: &[Complex]) -> Vec<Complex> {
    fft_rec(x, -1.0)
}

/// Inverse FFT (with `1/n` normalization), so `ifft(fft(x)) == x`.
pub fn ifft(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    let mut out = fft_rec(x, 1.0);
    if n > 0 {
        let s = 1.0 / n as f64;
        for v in &mut out {
            *v = v.scale(s);
        }
    }
    out
}

/// Forward real-to-complex FFT: returns the non-redundant half spectrum
/// `X[0..=n/2]` (`n/2 + 1` coefficients).  The remaining coefficients are
/// determined by conjugate symmetry `X[n-k] = conj(X[k])`.
pub fn rfft(x: &[f64]) -> Vec<Complex> {
    let n = x.len();
    // oracle: lint:allow(alloc)
    let cx: Vec<Complex> = x.iter().map(|&v| Complex::from(v)).collect();
    let full = fft(&cx);
    full[..=n / 2].to_vec() // oracle: lint:allow(alloc)
}

/// Inverse of [`rfft`]: reconstruct `n` real samples from the half spectrum.
/// `spectrum.len()` must be `n/2 + 1`.
pub fn irfft(spectrum: &[Complex], n: usize) -> Vec<f64> {
    assert_eq!(
        spectrum.len(),
        n / 2 + 1,
        "half spectrum of length n/2+1 required"
    );
    let mut full = vec![Complex::zero(); n]; // oracle: lint:allow(alloc)
    full[..spectrum.len()].copy_from_slice(spectrum);
    for k in spectrum.len()..n {
        full[k] = spectrum[n - k].conj();
    }
    // oracle: lint:allow(alloc)
    ifft(&full).into_iter().map(|c| c.re).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() < tol, "mismatch at {i}: {x:?} vs {y:?}");
        }
    }

    fn random_signal(n: usize, seed: u64) -> Vec<Complex> {
        // simple deterministic LCG so the test needs no RNG dependency here
        let mut s = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n).map(|_| Complex::new(next(), next())).collect()
    }

    #[test]
    fn fft_matches_naive_dft_smooth_sizes() {
        for n in [
            1usize, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 24, 30, 45, 60, 64,
        ] {
            let x = random_signal(n, n as u64);
            assert_close(&fft(&x), &dft_naive(&x, -1.0), 1e-9 * (n as f64 + 1.0));
        }
    }

    #[test]
    fn fft_handles_prime_and_semi_prime_sizes() {
        for n in [7usize, 11, 13, 17, 19, 23, 34, 51] {
            let x = random_signal(n, n as u64);
            assert_close(&fft(&x), &dft_naive(&x, -1.0), 1e-9 * n as f64);
        }
    }

    #[test]
    fn ifft_roundtrip() {
        for n in [2usize, 12, 30, 720] {
            let x = random_signal(n, 42 + n as u64);
            let back = ifft(&fft(&x));
            assert_close(&back, &x, 1e-10 * n as f64);
        }
    }

    #[test]
    fn fft_of_delta_is_flat() {
        let mut x = vec![Complex::zero(); 16];
        x[0] = Complex::one();
        for c in fft(&x) {
            assert!((c - Complex::one()).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_single_mode() {
        // x[j] = e^{2πi·3j/n} → spike at k = 3 of height n
        let n = 20;
        let x: Vec<Complex> = (0..n)
            .map(|j| Complex::cis(2.0 * std::f64::consts::PI * 3.0 * j as f64 / n as f64))
            .collect();
        let s = fft(&x);
        for (k, c) in s.iter().enumerate() {
            if k == 3 {
                assert!((c.re - n as f64).abs() < 1e-9);
            } else {
                assert!(c.abs() < 1e-9, "leak at {k}");
            }
        }
    }

    #[test]
    fn parseval() {
        let n = 48;
        let x = random_signal(n, 7);
        let s = fft(&x);
        let time_energy: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let freq_energy: f64 = s.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0));
    }

    #[test]
    fn linearity() {
        let n = 30;
        let x = random_signal(n, 1);
        let y = random_signal(n, 2);
        let z: Vec<Complex> = x
            .iter()
            .zip(&y)
            .map(|(&a, &b)| a.scale(2.0) + b.scale(-3.0))
            .collect();
        let fz = fft(&z);
        let fx = fft(&x);
        let fy = fft(&y);
        for i in 0..n {
            let want = fx[i].scale(2.0) + fy[i].scale(-3.0);
            assert!((fz[i] - want).abs() < 1e-9);
        }
    }

    #[test]
    fn rfft_roundtrip_even_and_odd() {
        for n in [8usize, 9, 30, 720] {
            let x: Vec<f64> = (0..n).map(|i| ((i * i + 3) % 17) as f64 - 8.0).collect();
            let spec = rfft(&x);
            assert_eq!(spec.len(), n / 2 + 1);
            let back = irfft(&spec, n);
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn rfft_dc_and_nyquist_real() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let spec = rfft(&x);
        assert!((spec[0].re - 21.0).abs() < 1e-12); // DC = sum
        assert!(spec[0].im.abs() < 1e-12);
        assert!(spec[3].im.abs() < 1e-9); // Nyquist is real for even n
    }

    fn assert_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: [{i}] {x:e} vs {y:e}");
        }
    }

    fn flat(c: &[Complex]) -> Vec<f64> {
        c.iter().flat_map(|c| [c.re, c.im]).collect()
    }

    #[test]
    fn kernel_bitwise_matches_oracle() {
        // smooth, prime and mixed lengths (24 is the test mesh circle, 180
        // the mid mesh's, 720 the paper's); data with planted ±0 so the
        // unit-twiddle reduction meets the signed zeros it must preserve
        let mut scratch = FftScratch::new();
        let mut spec = Vec::new();
        for n in [1usize, 2, 3, 5, 7, 9, 12, 23, 24, 30, 34, 64, 97, 180, 720] {
            let x: Vec<f64> = (0..n)
                .map(|i| match (i * i * 31 + 5) % 23 {
                    0 => 0.0,
                    1 => -0.0,
                    v => v as f64 - 11.0,
                })
                .collect();
            let want_spec = rfft(&x);
            scratch.rfft_into(&x, &mut spec);
            assert_bits(&flat(&spec), &flat(&want_spec), &format!("rfft n={n}"));
            let want_back = irfft(&want_spec, n);
            let mut back = vec![0.0; n];
            scratch.irfft_into(&spec, &mut back);
            assert_bits(&back, &want_back, &format!("irfft n={n}"));
        }
    }

    #[test]
    fn unit_twiddle_identity_is_exact() {
        // `zero + x·(1, ±0) == x + 0.0` bit for bit over every class of
        // finite double, both components, both table signs — the identity
        // the kernel's first accumulate term rests on
        let sub = f64::from_bits(0x000F_0000_0000_0001);
        let min_sub = f64::from_bits(1);
        let classes = [0.0, min_sub, sub, f64::MIN_POSITIVE, 1.5, 3.0e200, f64::MAX];
        let values: Vec<f64> = classes.iter().flat_map(|&v| [v, -v]).collect();
        for table0 in [Complex::cis(-0.0), Complex::cis(0.0)] {
            assert_eq!(table0.re.to_bits(), 1.0f64.to_bits());
            assert_eq!(table0.im.abs().to_bits(), 0.0f64.to_bits());
            for &re in &values {
                for &im in &values {
                    let x = Complex::new(re, im);
                    let mut full = Complex::zero();
                    full += x * table0;
                    let reduced = x.unit();
                    assert_eq!(
                        (full.re.to_bits(), full.im.to_bits()),
                        (reduced.re.to_bits(), reduced.im.to_bits()),
                        "x = {x:?}, table[0] = {table0:?}"
                    );
                }
            }
        }
        // and the tables really start with those entries
        let mut tw = TwiddleCache::default();
        for sign in [-1.0, 1.0] {
            tw.ensure(720, sign);
            for level in tw.chain(sign) {
                let t0 = tw.tables[level.table].2[0];
                assert_eq!(t0.re.to_bits(), 1.0f64.to_bits());
                assert_eq!(t0.im.to_bits(), (sign * 0.0).to_bits());
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert!(fft(&[]).is_empty());
        let one = [Complex::new(3.0, 1.0)];
        assert_eq!(fft(&one), one.to_vec());
        assert_eq!(ifft(&one), one.to_vec());
    }
}
