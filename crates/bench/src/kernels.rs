//! Per-operator kernel micro-benchmark: explicit-lane and row-sliced
//! kernels vs their scalar golden references.
//!
//! Each hot operator of the dynamical core step is timed over the same
//! randomized state through up to three paths — the explicit-lane path the
//! models run by default, the scalar-row path (the `scalar-rows` build
//! fallback), and the per-point `*_scalar` reference (exposed by the
//! `scalar-ref` feature of `agcm-core`) — and reported in ns/point.  On top
//! of the per-operator entries the document carries the fused one-pass
//! sweeps vs their sequential tendency→lincomb equivalents, whole
//! `dycore_step` timings on the lane vs the row-sliced kernel path, and —
//! on a mesh large enough to band — the FFT polar filter, `C`, the
//! Held–Suarez forcing and the whole step at `t` pool workers vs one, with
//! the cost of an empty pool phase they have to beat.
//! The module is shared by the `kernels` bench harness and the `figures
//! perf` subcommand, which emits `BENCH_kernels.json`.

use crate::timing::{bench_stats, bench_stats_alternating, Stats};
use agcm_core::adaptation::{
    adaptation_tendency_lanes, adaptation_tendency_rows, adaptation_tendency_scalar,
    fused_adaptation_update,
};
use agcm_core::advection::{
    advection_tendency_lanes, advection_tendency_rows, advection_tendency_scalar,
    fused_advection_update,
};
use agcm_core::diag::Diag;
use agcm_core::filterop::{build_filter, filter_state_local};
use agcm_core::forcing::apply_held_suarez;
use agcm_core::init;
use agcm_core::lanes::KernelPath;
use agcm_core::pool;
use agcm_core::serial::{Iteration, SerialModel};
use agcm_core::smoothing::{smooth_rows_lanes, smooth_rows_rows, smooth_rows_scalar, RowMask};
use agcm_core::state::Combine;
use agcm_core::stdatm::StandardAtmosphere;
use agcm_core::sweep::{SweepScratch, Update};
use agcm_core::vertical::{apply_c, apply_c_lanes, apply_c_rows, apply_c_scalar, ZContext};
use agcm_core::{LocalGeometry, ModelConfig, Region, State};
use agcm_fft::{FilterScratch, FourierFilter};
use agcm_mesh::{Decomposition, Field2, Field3, HaloWidths, ProcessGrid};
use std::fmt::Write as _;
use std::sync::Arc;

/// Timing result for one operator or composite sweep.
#[derive(Debug, Clone)]
pub struct KernelPerf {
    /// Entry name: an operator (`adaptation`, …, `fft_filter`), a fused
    /// sweep (`adaptation_fused`), a pooled-filter operating point
    /// (`fft_filter_pooled_t4`) or a whole step (`dycore_step_t1`).
    pub name: String,
    /// Grid points the entry touches per invocation.
    pub points: usize,
    /// Median ns/point of the explicit-lane path, when the entry has one
    /// (the five row kernels); composite entries report `None`.
    pub lane_ns_per_point: Option<f64>,
    /// Median ns/point of the entry's *current* path: the scalar-row
    /// fallback for the row kernels, the fused/pooled/default path for the
    /// composite entries.
    pub row_ns_per_point: f64,
    /// Median ns/point of the entry's reference: the per-point scalar
    /// kernel, the sequential unfused sweep, the one-worker filter, or the
    /// row-kernel step.
    pub scalar_ns_per_point: f64,
    /// Reference over current-default path — ≥ 1 means the rewrite won.
    pub speedup: f64,
}

fn splitmix64(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn rand_sym(s: &mut u64) -> f64 {
    (splitmix64(s) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

fn rand_pos(s: &mut u64) -> f64 {
    0.5 + (splitmix64(s) >> 12) as f64 / (1u64 << 52) as f64
}

fn fill3(f: &mut Field3, s: &mut u64) {
    for v in f.raw_mut() {
        *v = rand_sym(s);
    }
}

fn fill2(f: &mut Field2, s: &mut u64) {
    for v in f.raw_mut() {
        *v = rand_sym(s);
    }
}

fn fill2_pos(f: &mut Field2, s: &mut u64) {
    for v in f.raw_mut() {
        *v = rand_pos(s);
    }
}

fn serial_geom(cfg: &ModelConfig) -> LocalGeometry {
    let grid = Arc::new(cfg.grid().expect("valid bench config"));
    let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).expect("serial decomp");
    LocalGeometry::new(cfg, grid, &d, 0, HaloWidths::uniform(2))
}

fn random_state(geom: &LocalGeometry, seed: u64) -> State {
    let mut s = seed;
    let mut st = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
    fill3(&mut st.u, &mut s);
    fill3(&mut st.v, &mut s);
    fill3(&mut st.phi, &mut s);
    fill2(&mut st.psa, &mut s);
    st
}

fn random_diag(geom: &LocalGeometry, seed: u64) -> Diag {
    let mut s = seed;
    let mut d = Diag::new(geom);
    fill2_pos(&mut d.pes, &mut s);
    fill2_pos(&mut d.cap_p, &mut s);
    fill2(&mut d.dsa, &mut s);
    fill3(&mut d.dp, &mut s);
    fill2(&mut d.vsum, &mut s);
    fill3(&mut d.gw, &mut s);
    fill3(&mut d.phi_p, &mut s);
    d
}

fn ns_per_point(s: &Stats, points: usize) -> f64 {
    // min-of-iters: on shared hosts the median absorbs scheduler stalls of
    // tens of percent; the fastest observed run is the standard capability
    // estimate, and both sides of every ratio use the same statistic
    s.min.as_nanos() as f64 / points as f64
}

/// Three-path entry for a row kernel: the speedup compares the scalar
/// reference against the lane path (the default build's stepping path).
fn perf3(name: &str, points: usize, lane: Stats, row: Stats, scalar: Stats) -> KernelPerf {
    let lane_ns = ns_per_point(&lane, points);
    let row_ns = ns_per_point(&row, points);
    let scalar_ns = ns_per_point(&scalar, points);
    KernelPerf {
        name: name.to_string(),
        points,
        lane_ns_per_point: Some(lane_ns),
        row_ns_per_point: row_ns,
        scalar_ns_per_point: scalar_ns,
        speedup: scalar_ns / lane_ns,
    }
}

/// Two-path composite entry: current path vs its sequential/serial
/// reference.
fn perf2(name: &str, points: usize, current: Stats, reference: Stats) -> KernelPerf {
    let cur_ns = ns_per_point(&current, points);
    let ref_ns = ns_per_point(&reference, points);
    KernelPerf {
        name: name.to_string(),
        points,
        lane_ns_per_point: None,
        row_ns_per_point: cur_ns,
        scalar_ns_per_point: ref_ns,
        speedup: ref_ns / cur_ns,
    }
}

/// Time every rewritten operator on `cfg`'s serial geometry — explicit-lane
/// path vs scalar-row fallback vs per-point scalar reference — under the
/// ambient worker-pool setting.  `warmup` untimed + `iters` timed
/// invocations each; the fastest observed run is reported.
pub fn measure_kernels(cfg: &ModelConfig, warmup: usize, iters: usize) -> Vec<KernelPerf> {
    let geom = serial_geom(cfg);
    let region = Region {
        y0: 0,
        y1: geom.ny as isize,
        z0: 0,
        z1: geom.nz as isize,
    };
    let points = geom.nx * geom.ny * geom.nz;
    let mut seed = 0x00C0FFEE;

    let arg = random_state(&geom, splitmix64(&mut seed));
    let diag = random_diag(&geom, splitmix64(&mut seed));
    let mut tend = random_state(&geom, splitmix64(&mut seed));
    let mut out = Vec::new();

    let lane = bench_stats(warmup, iters, || {
        adaptation_tendency_lanes(&geom, &arg, &diag, &mut tend, region)
    });
    let row = bench_stats(warmup, iters, || {
        adaptation_tendency_rows(&geom, &arg, &diag, &mut tend, region)
    });
    let scalar = bench_stats(warmup, iters, || {
        adaptation_tendency_scalar(&geom, &arg, &diag, &mut tend, region)
    });
    out.push(perf3("adaptation", points, lane, row, scalar));

    let lane = bench_stats(warmup, iters, || {
        advection_tendency_lanes(&geom, &arg, &diag, &mut tend, region)
    });
    let row = bench_stats(warmup, iters, || {
        advection_tendency_rows(&geom, &arg, &diag, &mut tend, region)
    });
    let scalar = bench_stats(warmup, iters, || {
        advection_tendency_scalar(&geom, &arg, &diag, &mut tend, region)
    });
    out.push(perf3("advection", points, lane, row, scalar));

    let lane = bench_stats(warmup, iters, || {
        smooth_rows_lanes(&geom, 0.1, &arg, &mut tend, region, RowMask::FULL, false)
    });
    let row = bench_stats(warmup, iters, || {
        smooth_rows_rows(&geom, 0.1, &arg, &mut tend, region, RowMask::FULL, false)
    });
    let scalar = bench_stats(warmup, iters, || {
        smooth_rows_scalar(&geom, 0.1, &arg, &mut tend, region, RowMask::FULL, false)
    });
    out.push(perf3("smoothing", points, lane, row, scalar));

    let stdatm = StandardAtmosphere::new(&geom.grid);
    let mut dwork = random_diag(&geom, splitmix64(&mut seed));
    let lane = bench_stats(warmup, iters, || {
        apply_c_lanes(
            &geom,
            &stdatm,
            &arg,
            &mut dwork,
            region,
            &ZContext::Serial,
            true,
        )
        .unwrap()
    });
    let row = bench_stats(warmup, iters, || {
        apply_c_rows(
            &geom,
            &stdatm,
            &arg,
            &mut dwork,
            region,
            &ZContext::Serial,
            true,
        )
        .unwrap()
    });
    let scalar = bench_stats(warmup, iters, || {
        apply_c_scalar(
            &geom,
            &stdatm,
            &arg,
            &mut dwork,
            region,
            &ZContext::Serial,
            true,
        )
        .unwrap()
    });
    out.push(perf3("vertical_c", points, lane, row, scalar));

    // FFT filter: the batched stepping-path kernel vs the per-call-allocating
    // oracle, over the rows a 3-D field presents — every polar row the
    // profile damps, once per level.  Both sides recopy the pristine rows
    // first so they transform identical data each iteration.
    let grid = &geom.grid;
    let nx = grid.nx();
    let lats: Vec<f64> = (0..grid.ny()).map(|j| grid.latitude(j)).collect();
    let filter = FourierFilter::new(nx, &lats, cfg.filter_cutoff_deg.to_radians());
    let active: Vec<usize> = (0..grid.ny())
        .filter(|&j| filter.is_active(j))
        .flat_map(|j| std::iter::repeat_n(j, geom.nz))
        .collect();
    let pristine: Vec<f64> = {
        let mut s = splitmix64(&mut seed);
        (0..active.len() * nx).map(|_| rand_sym(&mut s)).collect()
    };
    let mut rowbuf = pristine.clone();
    let mut scratch = FilterScratch::new();
    let fpoints = active.len().max(1) * nx;
    let row = bench_stats(warmup, iters, || {
        rowbuf.copy_from_slice(&pristine);
        filter.apply_rows_with(
            rowbuf.as_mut_slice(),
            active.iter().copied().enumerate().map(|(r, j)| (j, r)),
            |all, r| &mut all[r * nx..(r + 1) * nx],
            &mut scratch.worker(nx),
        );
    });
    let scalar = bench_stats(warmup, iters, || {
        rowbuf.copy_from_slice(&pristine);
        for (row, &j) in rowbuf.chunks_mut(nx).zip(&active) {
            filter.apply_row(j, row);
        }
    });
    out.push(perf2("fft_filter", fpoints, row, scalar));

    out
}

/// Time the fused one-pass adaptation/advection sweeps against their
/// sequential tendency-then-lincomb equivalents (same data, no filter rows
/// active, so the fused pass covers the whole region — the memory-traffic
/// comparison the fusion exists for).
pub fn measure_fused(cfg: &ModelConfig, warmup: usize, iters: usize) -> Vec<KernelPerf> {
    let geom = serial_geom(cfg);
    let region = Region {
        y0: 0,
        y1: geom.ny as isize,
        z0: 0,
        z1: geom.nz as isize,
    };
    let points = geom.nx * geom.ny * geom.nz;
    let mut seed = 0x0FABF00D;
    let arg = random_state(&geom, splitmix64(&mut seed));
    let diag = random_diag(&geom, splitmix64(&mut seed));
    let base = random_state(&geom, splitmix64(&mut seed));
    let mut tend = random_state(&geom, splitmix64(&mut seed));
    let mut outst = random_state(&geom, splitmix64(&mut seed));
    let active = vec![false; geom.halo.ym + geom.ny + geom.halo.yp];
    let upd = Update {
        base: &base,
        dt: 0.5,
        form: Combine::Euler,
        active: &active,
        active_off: geom.halo.ym as isize,
    };
    let path = KernelPath::build_default();
    let mut scratch = SweepScratch::new();
    let mut out = Vec::new();

    let fused = bench_stats(warmup, iters, || {
        fused_adaptation_update(
            &geom,
            &arg,
            &diag,
            &upd,
            &mut tend,
            &mut outst,
            region,
            path,
            &mut scratch,
        )
    });
    let seq = bench_stats(warmup, iters, || {
        adaptation_tendency_lanes(&geom, &arg, &diag, &mut tend, region);
        outst.lincomb_on(&base, 0.5, &tend, &region);
    });
    out.push(perf2("adaptation_fused", points, fused, seq));

    let fused = bench_stats(warmup, iters, || {
        fused_advection_update(
            &geom,
            &arg,
            &diag,
            &upd,
            &mut tend,
            &mut outst,
            region,
            path,
            &mut scratch,
        )
    });
    let seq = bench_stats(warmup, iters, || {
        advection_tendency_lanes(&geom, &arg, &diag, &mut tend, region);
        outst.lincomb_on(&base, 0.5, &tend, &region);
    });
    out.push(perf2("advection_fused", points, fused, seq));

    out
}

/// Time the three banded phases that are not stencil sweeps — the local
/// polar filter (`filter_state_local`), `C` (`apply_c`) and the Held–Suarez
/// forcing — at each worker count in `threads` against the same call at one
/// worker.  Worker counts are forced (`pool::with_workers`), so pick a mesh
/// on which a band is worth a thread.
pub fn measure_pooled(
    cfg: &ModelConfig,
    warmup: usize,
    iters: usize,
    threads: &[usize],
) -> Vec<KernelPerf> {
    let geom = serial_geom(cfg);
    let region = geom.interior();
    let stdatm = StandardAtmosphere::new(&geom.grid);
    let filter = build_filter(&geom, cfg.filter_cutoff_deg);
    let points = geom.nx * geom.ny * geom.nz;
    let mut seed = 0x00F11735;
    let pristine = random_state(&geom, splitmix64(&mut seed));
    let mut diag = random_diag(&geom, splitmix64(&mut seed));
    let mut state = pristine.clone();
    let mut scratch = FilterScratch::new();
    let mut out = Vec::new();
    let mut entry = |name: &str, call: &mut dyn FnMut()| {
        for &nt in threads {
            let [pooled, single] = bench_stats_alternating(warmup, iters, |side| {
                pool::with_workers([nt, 1][side], &mut *call)
            });
            out.push(perf2(
                &format!("{name}_pooled_t{nt}"),
                points,
                pooled,
                single,
            ));
        }
    };
    entry("fft_filter", &mut || {
        state.copy_from(&pristine);
        filter_state_local(&geom, &filter, &mut state, region, &mut scratch);
    });
    entry("vertical_c", &mut || {
        apply_c(
            &geom,
            &stdatm,
            &pristine,
            &mut diag,
            region,
            &ZContext::Serial,
            true,
        )
        .expect("the serial C has no communication to fail")
    });
    // relaxation towards the equilibrium profile: repeated calls stay finite
    state.copy_from(&pristine);
    entry("forcing", &mut || {
        apply_held_suarez(&geom, &stdatm, &diag, &mut state, region, cfg.dt2)
    });
    out
}

/// Time a whole serial `dycore_step` at `nt` pool workers against the same
/// step at one.
pub fn measure_step_pooled(
    cfg: &ModelConfig,
    warmup: usize,
    iters: usize,
    nt: usize,
) -> KernelPerf {
    let model_at = |workers: usize| {
        pool::with_workers(workers, || {
            let mut m = SerialModel::new(cfg, Iteration::Exact).expect("bench config");
            let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
            m.set_state(&ic);
            m
        })
    };
    let mut models = [model_at(nt), model_at(1)];
    let points = models[0].geom().nx * models[0].geom().ny * models[0].geom().nz;
    let [pooled, single] = bench_stats_alternating(warmup, iters, |side| {
        pool::with_workers([nt, 1][side], || models[side].step())
    });
    perf2(&format!("dycore_step_pooled_t{nt}"), points, pooled, single)
}

/// One point of the phase-overhead curve: a two-band pool phase whose
/// bands each spin for `work_us` against the same two spins back to back.
#[derive(Debug, Clone, Copy)]
pub struct PhaseCost {
    /// Work per band, µs (0 = an empty phase: spawn + join alone).
    pub work_us: f64,
    /// Median of the two spins run back to back on the caller, µs.
    pub serial_us: f64,
    /// Median of the two-band phase, µs.
    pub phase_us: f64,
}

impl PhaseCost {
    /// What the phase costs over the ideal `serial / 2`, µs.
    pub fn overhead_us(&self) -> f64 {
        self.phase_us - self.serial_us / 2.0
    }
}

/// Measure what a two-band `pool::run` phase costs over perfect halving,
/// from an empty phase up to 5 ms of work a band — the curve
/// `pool::MIN_BAND_POINTS` is derived from (DESIGN.md §8).
pub fn measure_phase_overhead(iters: usize) -> Vec<PhaseCost> {
    // a dependent multiply-add chain: compute-bound, nothing to contend on
    let spin = |n: u64| {
        let mut x = 1.0f64;
        for _ in 0..n {
            x = std::hint::black_box(x * 1.000_000_1 + 1e-9);
        }
        std::hint::black_box(x);
    };
    // calibrate the chain once: iterations per microsecond
    let t = std::time::Instant::now();
    spin(2_000_000);
    let per_us = 2_000_000.0 / (t.elapsed().as_secs_f64() * 1e6);
    let cuts = pool::with_workers(2, || pool::row_cuts(0, 2, 1, |_| true));
    [0.0, 100.0, 250.0, 500.0, 1000.0, 2000.0, 5000.0]
        .into_iter()
        .map(|work_us| {
            let n = (work_us * per_us) as u64;
            let serial = bench_stats(iters / 10, iters, || {
                spin(n);
                spin(n)
            });
            let phase = bench_stats(iters / 10, iters, || {
                let mut slots = [(), ()];
                let whole = pool::PerWorker(&mut slots);
                pool::run(whole, &cuts, "bench.phase", |_, _, _| spin(n))
            });
            PhaseCost {
                work_us,
                serial_us: serial.median.as_secs_f64() * 1e6,
                phase_us: phase.median.as_secs_f64() * 1e6,
            }
        })
        .collect()
}

/// Time a whole serial `dycore_step` on the default stepping path against
/// the same step on the row-sliced kernels, at each worker count in
/// `threads`.
pub fn measure_dycore_step(
    cfg: &ModelConfig,
    warmup: usize,
    iters: usize,
    threads: &[usize],
) -> Vec<KernelPerf> {
    let mut out = Vec::new();
    for &nt in threads {
        pool::with_workers(nt, || {
            let mut m = SerialModel::new(cfg, Iteration::Approximate).expect("bench config");
            let points = m.geom().nx * m.geom().ny * m.geom().nz;
            let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
            m.set_state(&ic);
            let current = bench_stats(warmup, iters, || m.step());
            // the row-sliced kernels in the same binary (bitwise neutral)
            m.engine.set_kernel_path(KernelPath::Rows);
            m.set_state(&ic);
            let baseline = bench_stats(warmup, iters, || m.step());
            out.push(perf2(
                &format!("dycore_step_t{nt}"),
                points,
                current,
                baseline,
            ));
        });
    }
    out
}

/// Render measurements as the `BENCH_kernels.json` document (RFC 8259).
pub fn to_json(
    cfg_name: &str,
    warmup: usize,
    iters: usize,
    kernels: &[KernelPerf],
    phases: &[PhaseCost],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"kernels\",");
    let _ = writeln!(s, "  \"config\": \"{cfg_name}\",");
    let _ = writeln!(s, "  \"threads\": {},", pool::workers());
    let _ = writeln!(s, "  \"warmup\": {warmup},");
    let _ = writeln!(s, "  \"iters\": {iters},");
    s.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"points\": {}",
            k.name, k.points
        );
        if let Some(lane) = k.lane_ns_per_point {
            let _ = write!(s, ", \"lane_ns_per_point\": {lane:.3}");
        }
        let _ = write!(
            s,
            ", \"row_ns_per_point\": {:.3}, \"scalar_ns_per_point\": {:.3}, \
             \"speedup\": {:.3}}}",
            k.row_ns_per_point, k.scalar_ns_per_point, k.speedup
        );
        s.push_str(if i + 1 < kernels.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"pool_phase_us\": [\n");
    for (i, p) in phases.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"work_per_band\": {:.0}, \"serial\": {:.1}, \"two_bands\": {:.1}, \
             \"overhead\": {:.1}}}",
            p.work_us,
            p.serial_us,
            p.phase_us,
            p.overhead_us()
        );
        s.push_str(if i + 1 < phases.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Pull `(name, speedup)` pairs back out of a `BENCH_kernels.json` document.
///
/// Purpose-built for the CI perf gate: speedup *ratios* are machine-portable
/// where raw ns/point are not.  Accepts exactly the shape [`to_json`] emits.
pub fn parse_speedups(src: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in src.lines() {
        let Some(n0) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[n0 + 9..];
        let Some(n1) = rest.find('"') else { continue };
        let name = rest[..n1].to_string();
        let Some(s0) = line.find("\"speedup\": ") else {
            continue;
        };
        let tail = &line[s0 + 11..];
        let num: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_and_validates() {
        let kernels = vec![
            KernelPerf {
                name: "adaptation".to_string(),
                points: 1000,
                lane_ns_per_point: Some(1.2),
                row_ns_per_point: 1.5,
                scalar_ns_per_point: 4.5,
                speedup: 3.0,
            },
            KernelPerf {
                name: "fft_filter_pooled_t4".to_string(),
                points: 64,
                lane_ns_per_point: None,
                row_ns_per_point: 10.0,
                scalar_ns_per_point: 12.0,
                speedup: 1.2,
            },
        ];
        let phases = [PhaseCost {
            work_us: 250.0,
            serial_us: 500.0,
            phase_us: 340.0,
        }];
        let doc = to_json("test_small", 2, 5, &kernels, &phases);
        assert!(doc.contains("\"overhead\": 90.0"));
        agcm_obs::validate_json(&doc).expect("emitted JSON must be RFC 8259 valid");
        let speedups = parse_speedups(&doc);
        assert_eq!(speedups.len(), 2);
        assert_eq!(speedups[0], ("adaptation".to_string(), 3.0));
        assert_eq!(speedups[1], ("fft_filter_pooled_t4".to_string(), 1.2));
        // the optional lane column round-trips only where present
        assert!(doc.contains("\"lane_ns_per_point\": 1.200"));
        assert_eq!(doc.matches("lane_ns_per_point").count(), 1);
    }

    #[test]
    fn measure_kernels_covers_every_operator() {
        let perfs = measure_kernels(&ModelConfig::test_small(), 0, 1);
        let names: Vec<_> = perfs.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "adaptation",
                "advection",
                "smoothing",
                "vertical_c",
                "fft_filter"
            ]
        );
        for p in &perfs {
            assert!(p.points > 0);
            assert!(p.row_ns_per_point > 0.0, "{}: zero row time", p.name);
            assert!(p.scalar_ns_per_point > 0.0, "{}: zero scalar time", p.name);
            assert!(p.speedup > 0.0);
            // the four row kernels carry the lane column; the FFT does not
            if p.name == "fft_filter" {
                assert!(p.lane_ns_per_point.is_none());
            } else {
                assert!(p.lane_ns_per_point.unwrap() > 0.0, "{}", p.name);
            }
        }
    }

    #[test]
    fn composite_entries_cover_fused_pooled_and_step() {
        let cfg = ModelConfig::test_small();
        let fused = measure_fused(&cfg, 0, 1);
        assert_eq!(
            fused.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(),
            ["adaptation_fused", "advection_fused"]
        );
        let mut pooled = measure_pooled(&cfg, 0, 1, &[2]);
        assert_eq!(
            pooled.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(),
            [
                "fft_filter_pooled_t2",
                "vertical_c_pooled_t2",
                "forcing_pooled_t2"
            ]
        );
        pooled.push(measure_step_pooled(&cfg, 0, 1, 2));
        assert_eq!(pooled[3].name, "dycore_step_pooled_t2");
        let step = measure_dycore_step(&cfg, 0, 1, &[1]);
        assert_eq!(step[0].name, "dycore_step_t1");
        for p in fused.iter().chain(&pooled).chain(&step) {
            assert!(p.lane_ns_per_point.is_none());
            assert!(p.row_ns_per_point > 0.0, "{}", p.name);
            assert!(p.scalar_ns_per_point > 0.0, "{}", p.name);
        }
    }
}
