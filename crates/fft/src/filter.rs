//! Fourier polar filtering — the operator `F` of the calculating flow.
//!
//! Near the poles the longitude grid lines of a latitude–longitude mesh
//! cluster, which makes the CFL limit on the time step collapse.  The
//! classical cure (the paper's reference \[21\], Umscheid & Sankar-Rao 1971)
//! is to damp the high zonal wavenumbers of every latitude circle poleward
//! of a critical latitude `φ_c`: transform the circle with a 1-D FFT,
//! multiply wavenumber `m` by
//!
//! ```text
//! d(m, φ) = min{ 1, (cos φ / cos φ_c) · sin(Δλ/2) / sin(m·Δλ/2) }
//! ```
//!
//! and transform back.  Equatorward of `φ_c` the damping is identically 1.
//!
//! The filter is applied per `(j, k)` row, and the FFT needs the *full*
//! latitude circle: under an X-Y decomposition this forces the collective
//! communication along x that the paper's Theorem 4.1 bounds from below —
//! and that the Y-Z decomposition (`p_x = 1`) eliminates entirely (§4.2.1).

use crate::complex::{CLane, Complex, Cx, W};
use crate::fft::{irfft, rfft, Buffers, TwiddleCache};

/// Reusable buffers for allocation-free row filtering: the twiddle tables
/// (read-only while filtering, shared by every worker) and one transform
/// arena per intra-rank worker.
///
/// [`FilterScratch::workers`] sizes both on demand, so steady-state
/// filtering at a fixed `nx` and worker count allocates nothing; a rank
/// that never runs more than one worker never pays for a second arena.
#[derive(Debug, Clone, Default)]
pub struct FilterScratch {
    tw: TwiddleCache,
    arenas: Vec<Arena>,
}

/// One worker's transform buffers: `W` circles in lock-step, and a single
/// circle for the row API and the ragged tail of a batch stream.
#[derive(Debug, Clone, Default)]
struct Arena {
    lanes: Buffers<CLane>,
    one: Buffers<Complex>,
}

/// One worker's share of a [`FilterScratch`]: the shared tables plus its
/// own arena.  `Send`, so a pool can hand one to each band.
#[derive(Debug)]
pub struct FilterWorker<'a> {
    tw: &'a TwiddleCache,
    arena: &'a mut Arena,
}

impl FilterScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the tables and the first `n` worker arenas for circles of `nx`
    /// longitudes — the only place the filter path allocates.  Engines warm
    /// their configured worker count at construction; otherwise this runs
    /// the first time a caller asks for more workers or another `nx`, and
    /// is a few compares from then on.
    pub fn warm(&mut self, nx: usize, n: usize) {
        self.tw.ensure(nx, -1.0);
        self.tw.ensure(nx, 1.0);
        if self.arenas.len() < n {
            self.arenas.resize_with(n, Arena::default);
        }
        for arena in &mut self.arenas[..n] {
            arena.lanes.size(nx);
            arena.one.size(nx);
        }
    }

    /// Split into `n` workers for circles of `nx` longitudes, each with its
    /// own arena ([`FilterScratch::warm`]ed first).
    pub fn workers(&mut self, nx: usize, n: usize) -> impl Iterator<Item = FilterWorker<'_>> {
        self.warm(nx, n);
        let tw = &self.tw;
        self.arenas[..n]
            .iter_mut()
            .map(move |arena| FilterWorker { tw, arena })
    }

    /// The first worker alone, for callers that filter on one thread.
    pub fn worker(&mut self, nx: usize) -> FilterWorker<'_> {
        self.warm(nx, 1);
        FilterWorker {
            tw: &self.tw,
            arena: &mut self.arenas[0],
        }
    }
}

/// Filter the `C::SLOTS` circles `rows[s] = (damping profile, key)` of
/// `store` in lock-step: load, forward transform (half spectrum only),
/// damp and mirror, inverse transform, store the real parts and hand each
/// stored circle to `done`.  Slot for slot the arithmetic of the oracle
/// [`FourierFilter::apply_row`].
fn filter_rows<C: Cx, S: ?Sized, K: Copy>(
    bufs: &mut Buffers<C>,
    tw: &TwiddleCache,
    store: &mut S,
    rows: &[(&[f64], K)],
    row_of: &impl for<'a> Fn(&'a mut S, K) -> &'a mut [f64],
    done: &impl Fn(&mut [f64], K),
) {
    debug_assert_eq!(rows.len(), C::SLOTS);
    let n = bufs.a.len();
    for (s, &(_, key)) in rows.iter().enumerate() {
        let row = row_of(store, key);
        assert_eq!(row.len(), n, "row must span the full circle");
        for (a, &v) in bufs.a.iter_mut().zip(&*row) {
            a.set_real(s, v);
        }
    }
    let half = n / 2;
    bufs.run(tw, -1.0, half + 1);
    for k in 0..=half {
        bufs.a[k] = bufs.b[k].scale_by(|s| rows[s].0[k]);
    }
    for k in half + 1..n {
        bufs.a[k] = bufs.a[n - k].conj();
    }
    bufs.run(tw, 1.0, n);
    let inv = 1.0 / n as f64;
    for (s, &(_, key)) in rows.iter().enumerate() {
        let row = row_of(store, key);
        for (o, b) in row.iter_mut().zip(&bufs.b) {
            *o = b.re(s) * inv;
        }
        done(row, key);
    }
}

/// Precomputed per-latitude damping profiles for `F`.
#[derive(Debug, Clone)]
pub struct FourierFilter {
    nx: usize,
    /// `damping[j][m]` for `m ∈ 0..=nx/2`; rows equatorward of the critical
    /// latitude hold `None` (identity).
    damping: Vec<Option<Vec<f64>>>,
}

impl FourierFilter {
    /// Build the filter for `nx` longitudes and the given geographic
    /// latitudes (radians, one per mesh row).  `critical_latitude` is in
    /// radians; rows with `|φ| < φ_c` are untouched.
    pub fn new(nx: usize, latitudes: &[f64], critical_latitude: f64) -> Self {
        assert!(nx >= 2, "need at least two longitudes");
        assert!(
            critical_latitude > 0.0 && critical_latitude < std::f64::consts::FRAC_PI_2,
            "critical latitude must be in (0, π/2)"
        );
        let dl2 = std::f64::consts::PI / nx as f64; // Δλ/2
        let cos_c = critical_latitude.cos();
        let damping = latitudes
            .iter()
            .map(|&phi| {
                if phi.abs() < critical_latitude {
                    None
                } else {
                    let ratio = phi.cos().max(0.0) / cos_c;
                    let prof: Vec<f64> = (0..=nx / 2)
                        .map(|m| {
                            if m == 0 {
                                1.0
                            } else {
                                (ratio * dl2.sin() / (m as f64 * dl2).sin()).min(1.0)
                            }
                        })
                        // construction path, not the stepping path: lint:allow(alloc)
                        .collect();
                    Some(prof)
                }
            })
            // construction path, not the stepping path: lint:allow(alloc)
            .collect();
        FourierFilter { nx, damping }
    }

    /// The paper's default: filtering poleward of 70°.
    pub fn with_default_cutoff(nx: usize, latitudes: &[f64]) -> Self {
        Self::new(nx, latitudes, 70.0_f64.to_radians())
    }

    /// Number of longitudes.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of latitude rows.
    pub fn ny(&self) -> usize {
        self.damping.len()
    }

    /// Whether row `j` is actually damped (poleward of `φ_c`).
    pub fn is_active(&self, j: usize) -> bool {
        self.damping[j].is_some()
    }

    /// Filter one latitude circle in place.  `row.len()` must equal `nx`.
    ///
    /// Allocates per call; hot paths should hold a [`FilterScratch`] and use
    /// [`FourierFilter::apply_row_with`] instead (bitwise-identical result).
    pub fn apply_row(&self, j: usize, row: &mut [f64]) {
        assert_eq!(row.len(), self.nx, "row must span the full circle");
        let Some(prof) = &self.damping[j] else {
            return;
        };
        let mut spec: Vec<Complex> = rfft(row);
        for (c, &d) in spec.iter_mut().zip(prof) {
            *c = c.scale(d);
        }
        let out = irfft(&spec, self.nx);
        row.copy_from_slice(&out);
    }

    /// Filter one latitude circle in place using reusable buffers.
    ///
    /// Bitwise-identical to [`FourierFilter::apply_row`]; performs no heap
    /// allocation once `scratch` has warmed up at this `nx`.
    pub fn apply_row_with(&self, j: usize, row: &mut [f64], scratch: &mut FilterScratch) {
        assert_eq!(row.len(), self.nx, "row must span the full circle");
        let worker = &mut scratch.worker(self.nx);
        self.apply_rows_with(row, [(j, ())], |row, ()| row, |_, ()| {}, worker);
    }

    /// Filter a stream of latitude circles in place, [`W`] at a time.
    ///
    /// `rows` yields `(j, key)` — the profile row and whatever `row_of`
    /// needs to find the circle in `store`; identity rows are skipped.
    /// Full batches run the transform kernel on `W` circles in lock-step
    /// (each slot with its own row's damping profile, so a batch may mix
    /// latitudes and fields), the ragged tail one circle at a time.  Either
    /// way every circle comes out bitwise identical to
    /// [`FourierFilter::apply_row`], in any order and any batch position.
    /// `done(row, key)` runs on each filtered circle as soon as it is
    /// stored, while it is cache-hot; identity rows never reach it.
    pub fn apply_rows_with<S: ?Sized, K: Copy>(
        &self,
        store: &mut S,
        rows: impl IntoIterator<Item = (usize, K)>,
        row_of: impl for<'a> Fn(&'a mut S, K) -> &'a mut [f64],
        done: impl Fn(&mut [f64], K),
        worker: &mut FilterWorker<'_>,
    ) {
        let FilterWorker { tw, arena } = worker;
        let mut active = rows
            .into_iter()
            .filter_map(|(j, key)| Some((self.damping[j].as_deref()?, key)));
        while let Some(first) = active.next() {
            let mut batch = [first; W];
            let mut fill = 1;
            for slot in &mut batch[1..] {
                let Some(next) = active.next() else { break };
                *slot = next;
                fill += 1;
            }
            if fill == W {
                filter_rows(&mut arena.lanes, tw, store, &batch, &row_of, &done);
            } else {
                for row in &batch[..fill] {
                    let one = std::slice::from_ref(row);
                    filter_rows(&mut arena.one, tw, store, one, &row_of, &done);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mesh-row latitudes like the grid crate produces: (j+1/2)Δθ colatitude.
    fn latitudes(ny: usize) -> Vec<f64> {
        (0..ny)
            .map(|j| {
                std::f64::consts::FRAC_PI_2 - (j as f64 + 0.5) * std::f64::consts::PI / ny as f64
            })
            .collect()
    }

    /// Number of damped rows.
    fn active_rows(f: &FourierFilter) -> usize {
        f.damping.iter().filter(|d| d.is_some()).count()
    }

    #[test]
    fn equator_rows_untouched() {
        let lats = latitudes(18);
        let f = FourierFilter::with_default_cutoff(24, &lats);
        let mut row: Vec<f64> = (0..24).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let orig = row.clone();
        let j_eq = 9;
        assert!(!f.is_active(j_eq));
        f.apply_row(j_eq, &mut row);
        assert_eq!(row, orig);
    }

    #[test]
    fn polar_rows_active_and_symmetric() {
        let lats = latitudes(18);
        let f = FourierFilter::with_default_cutoff(24, &lats);
        assert!(f.is_active(0), "northernmost row must be filtered");
        assert!(f.is_active(17), "southernmost row must be filtered");
        assert_eq!(active_rows(&f) % 2, 0, "hemispheric symmetry");
        // symmetric profiles north/south
        let n = f.damping[0].as_deref().unwrap();
        let s = f.damping[17].as_deref().unwrap();
        for (a, b) in n.iter().zip(s) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn damping_monotone_in_wavenumber() {
        let lats = latitudes(36);
        let f = FourierFilter::with_default_cutoff(48, &lats);
        let prof = f.damping[0].as_deref().unwrap();
        assert_eq!(prof[0], 1.0, "zonal mean never damped");
        for w in prof[1..].windows(2) {
            assert!(w[1] <= w[0] + 1e-15, "profile must not increase with m");
        }
        assert!(prof[prof.len() - 1] < 0.5, "shortest waves strongly damped");
    }

    #[test]
    fn closer_to_pole_damps_more() {
        let lats = latitudes(36);
        let f = FourierFilter::with_default_cutoff(48, &lats);
        let near_pole = f.damping[0].as_deref().unwrap();
        let less_polar = f.damping[3].as_deref().unwrap();
        let m = 10;
        assert!(near_pole[m] < less_polar[m]);
    }

    #[test]
    fn preserves_zonal_mean() {
        let lats = latitudes(18);
        let f = FourierFilter::with_default_cutoff(24, &lats);
        let mut row: Vec<f64> = (0..24).map(|i| ((i * 7 + 3) % 11) as f64).collect();
        let mean_before: f64 = row.iter().sum::<f64>() / 24.0;
        f.apply_row(0, &mut row);
        let mean_after: f64 = row.iter().sum::<f64>() / 24.0;
        assert!((mean_before - mean_after).abs() < 1e-10);
    }

    #[test]
    fn removes_high_frequency_noise() {
        let lats = latitudes(18);
        let f = FourierFilter::with_default_cutoff(32, &lats);
        // smooth signal + Nyquist noise
        let smooth: Vec<f64> = (0..32)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 32.0).cos())
            .collect();
        let mut noisy: Vec<f64> = smooth
            .iter()
            .enumerate()
            .map(|(i, &v)| v + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        f.apply_row(0, &mut noisy);
        // Nyquist amplitude after: |x[0]-x[1]| shrinks strongly
        let rough_after: f64 = noisy.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>();
        let rough_before: f64 = 32.0; // 0.5 jumps of 1.0 each, 32 windows
        assert!(rough_after < 0.7 * rough_before);
    }

    #[test]
    fn filter_is_linear() {
        let lats = latitudes(18);
        let f = FourierFilter::with_default_cutoff(24, &lats);
        let a: Vec<f64> = (0..24).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..24).map(|i| (i as f64 * 1.3).cos()).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fab: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x - y).collect();
        f.apply_row(0, &mut fa);
        f.apply_row(0, &mut fb);
        f.apply_row(0, &mut fab);
        for i in 0..24 {
            assert!((fab[i] - (2.0 * fa[i] - fb[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn idempotent_only_where_saturated() {
        // applying twice damps at least as much as once
        let lats = latitudes(18);
        let f = FourierFilter::with_default_cutoff(24, &lats);
        let mut once: Vec<f64> = (0..24).map(|i| ((i * 5) % 7) as f64).collect();
        let mut twice = once.clone();
        f.apply_row(0, &mut once);
        f.apply_row(0, &mut twice);
        f.apply_row(0, &mut twice);
        let energy = |r: &[f64]| {
            let m = r.iter().sum::<f64>() / r.len() as f64;
            r.iter().map(|v| (v - m) * (v - m)).sum::<f64>()
        };
        assert!(energy(&twice) <= energy(&once) + 1e-12);
    }

    #[test]
    fn apply_row_with_is_bitwise_identical() {
        let lats = latitudes(18);
        let f = FourierFilter::with_default_cutoff(24, &lats);
        let mut scratch = FilterScratch::new();
        for j in [0usize, 1, 9, 17] {
            let mut a: Vec<f64> = (0..24)
                .map(|i| ((i * 13 + j * 7) % 19) as f64 - 9.0)
                .collect();
            let mut b = a.clone();
            f.apply_row(j, &mut a);
            f.apply_row_with(j, &mut b, &mut scratch);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "row {j}");
            }
        }
    }

    /// splitmix64 in [-1, 1), with ±0 planted now and then.
    fn noise(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        match z % 13 {
            0 => 0.0,
            1 => -0.0,
            _ => (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
        }
    }

    /// Filter `rows` (profile row, data) through the batched entry point
    /// and, row by row, through the allocating oracle; assert bit equality
    /// — and that `done` saw every active row once, already filtered.
    fn assert_batched_matches_oracle(f: &FourierFilter, rows: &[(usize, Vec<f64>)], what: &str) {
        let n = f.nx();
        let mut want: Vec<Vec<f64>> = Vec::new();
        for (j, row) in rows {
            let mut r = row.clone();
            f.apply_row(*j, &mut r);
            want.push(r);
        }
        let mut got: Vec<f64> = rows.iter().flat_map(|(_, r)| r.iter().copied()).collect();
        let mut scratch = FilterScratch::new();
        let mut worker = scratch.worker(n);
        let seen = std::cell::RefCell::new(Vec::new());
        f.apply_rows_with(
            got.as_mut_slice(),
            rows.iter().enumerate().map(|(r, (j, _))| (*j, r)),
            |all, r| &mut all[r * n..(r + 1) * n],
            |row, r| {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(row), bits(&want[r]), "{what}: row {r} handed to done");
                seen.borrow_mut().push(r);
            },
            &mut worker,
        );
        let mut seen = seen.into_inner();
        seen.sort_unstable();
        let active: Vec<usize> = (0..rows.len())
            .filter(|&r| f.is_active(rows[r].0))
            .collect();
        assert_eq!(seen, active, "{what}: done once per active row");
        for (r, w) in want.iter().enumerate() {
            for (i, (x, y)) in got[r * n..(r + 1) * n].iter().zip(w).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what}: row {r} (j={}) [{i}]: {x:e} vs {y:e}",
                    rows[r].0
                );
            }
        }
    }

    #[test]
    fn batched_filter_is_bitwise_the_oracle() {
        // every length class (prime, prime power, smooth, the three mesh
        // circles); active-row counts on both sides of every multiple of W,
        // so full batches fill every slot position and the ragged tail takes
        // the one-circle instantiation; the four active latitudes of the
        // 18-row profile cycle through the slots (per-slot damping) with an
        // identity row after every third active one
        let lats = latitudes(18);
        let mut seed = 0xF117E5u64;
        for n in [2usize, 3, 5, 7, 9, 12, 23, 24, 30, 34, 64, 97, 180, 720] {
            let f = FourierFilter::with_default_cutoff(n, &lats);
            let counts: &[usize] = if n <= 97 {
                &[1, W - 1, W, W + 1, 2 * W + 3, 3 * W]
            } else {
                &[W + 3]
            };
            for &count in counts {
                let mut rows: Vec<(usize, Vec<f64>)> = Vec::new();
                for r in 0..count {
                    let j = [0usize, 1, 16, 17][(r + count) % 4];
                    assert!(f.is_active(j));
                    rows.push((j, (0..n).map(|_| noise(&mut seed)).collect()));
                    if r % 3 == 2 {
                        rows.push((9, (0..n).map(|_| noise(&mut seed)).collect()));
                    }
                }
                assert_batched_matches_oracle(&f, &rows, &format!("n={n} active={count}"));
            }
            // rows of all +0 and all -0, in a full batch and in the tail
            for count in [W, 3] {
                let rows: Vec<(usize, Vec<f64>)> = (0..count)
                    .map(|r| (r % 2, vec![if r % 2 == 0 { 0.0 } else { -0.0 }; n]))
                    .collect();
                assert_batched_matches_oracle(&f, &rows, &format!("n={n} zeros x{count}"));
            }
        }
    }

    #[test]
    fn non_finite_rows_come_out_non_finite() {
        // the benchmark's `final_state_finite` relies on a poisoned circle
        // staying poisoned: the reduced unit-twiddle term
        // no longer turns `inf` into `NaN` by itself, the other terms must
        let lats = latitudes(18);
        let mut seed = 7u64;
        for n in [5usize, 24, 180] {
            let f = FourierFilter::with_default_cutoff(n, &lats);
            for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in [0, n / 2, n - 1] {
                    // a full batch (lanes; the poisoned row in slot 2 must
                    // not leak into its neighbours) and a single row (scalar)
                    for count in [W, 1] {
                        let bad = 2 % count;
                        let mut rows: Vec<Vec<f64>> = (0..count)
                            .map(|_| (0..n).map(|_| noise(&mut seed)).collect())
                            .collect();
                        rows[bad][at] = poison;
                        let mut flat: Vec<f64> = rows.concat();
                        let mut scratch = FilterScratch::new();
                        let mut worker = scratch.worker(n);
                        f.apply_rows_with(
                            flat.as_mut_slice(),
                            (0..count).map(|r| (r % 2, r)),
                            |all, r| &mut all[r * n..(r + 1) * n],
                            |_, _| {},
                            &mut worker,
                        );
                        for (r, row) in flat.chunks(n).enumerate() {
                            let finite = row.iter().all(|v| v.is_finite());
                            assert_eq!(
                                finite,
                                r != bad,
                                "n={n} poison={poison} at {at}, row {r} of {count}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn wrong_row_length_panics() {
        let lats = latitudes(8);
        let f = FourierFilter::with_default_cutoff(16, &lats);
        let mut row = vec![0.0; 8];
        f.apply_row(0, &mut row);
    }

    #[test]
    fn custom_cutoff_covers_more_rows() {
        let lats = latitudes(36);
        let strict = FourierFilter::new(16, &lats, 80.0_f64.to_radians());
        let loose = FourierFilter::new(16, &lats, 40.0_f64.to_radians());
        assert!(active_rows(&loose) > active_rows(&strict));
    }
}
