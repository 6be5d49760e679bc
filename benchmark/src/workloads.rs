//! The benchmark's fixed tables: meshes, workloads and metric names.
//!
//! `BENCHMARK.json` at the repository root declares the same workload and
//! metric names; `tests::benchmark_json_matches_code` keeps the two equal.

use agcm_core::serial::Iteration;
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;

/// `run_seconds` of `BENCHMARK.json`: the timed window the step counts
/// below were sized for.  `--seconds S` scales `timed` by `S / RUN_SECONDS`.
pub const RUN_SECONDS: u64 = 8;

/// Seed of `agcm-e2e run` when none is given; blessed in
/// `fingerprints.json` together with [`HELD_OUT_SEED`].
pub const DEFAULT_SEED: u64 = 1;
/// A second blessed seed, never used while the benchmark was tuned.
pub const HELD_OUT_SEED: u64 = 20_180_813;

/// The three meshes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesh {
    /// 24×24×8 — the mesh of every committed trace and soak number
    /// (`agcm_run::run_config()` values); lives in L2.
    Small,
    /// 180×90×30 with the paper's time steps, filter and Held–Suarez
    /// forcing: 3.9 MB per 3-D field, past L2.
    Mid,
    /// `ModelConfig::paper_50km()`, 720×360×30: 62 MB per 3-D field.
    Paper,
}

impl Mesh {
    pub fn label(self) -> &'static str {
        match self {
            Mesh::Small => "small",
            Mesh::Mid => "mid",
            Mesh::Paper => "paper",
        }
    }

    pub fn config(self) -> ModelConfig {
        match self {
            Mesh::Small => ModelConfig {
                ny: 24,
                ..ModelConfig::test_medium()
            },
            Mesh::Mid => ModelConfig {
                nx: 180,
                ny: 90,
                ..ModelConfig::paper_50km()
            },
            Mesh::Paper => ModelConfig::paper_50km(),
        }
    }
}

/// Which integrator a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alg {
    Serial,
    Alg1,
    Alg2,
}

impl Alg {
    /// The serial iteration the integrator is bitwise equal to.
    pub fn iteration(self) -> Iteration {
        match self {
            Alg::Serial | Alg::Alg1 => Iteration::Exact,
            Alg::Alg2 => Iteration::Approximate,
        }
    }
}

pub fn iteration_label(it: Iteration) -> &'static str {
    match it {
        Iteration::Exact => "exact",
        Iteration::Approximate => "approximate",
    }
}

/// How the ranks of a workload talk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One rank, no communicator.
    None,
    /// `Universe::run`: in-memory channels between rank threads.
    Mpsc,
    /// `Universe::run_sockets` over a Unix-domain endpoint.
    Uds,
}

/// Step counts of one workload at `RUN_SECONDS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub setup_reps: usize,
    /// How many of the last set-ups are measured: each runs `warm` + `timed`
    /// steps in its own fresh world, and the run reports the best segment.
    /// On the socket workloads a world keeps the thread placement it was
    /// born with, and its best-case step with it (6.2 or 8.9 ms on
    /// `small_alg2_y2_uds`, world to world in one process).
    pub segments: usize,
    pub warm: usize,
    /// Timed steps per segment.
    pub timed: usize,
    pub traced: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub mesh: Mesh,
    pub alg: Alg,
    /// `(py, pz)` of the Y-Z process grid.
    pub pgrid: (usize, usize),
    pub transport: Transport,
    /// `AGCM_THREADS` of the child process.
    pub threads: usize,
    pub counts: Counts,
    /// Steps the short in-run serial reference covers when the seed has no
    /// committed fingerprint.
    pub verify_steps: usize,
}

impl Workload {
    pub fn ranks(&self) -> usize {
        self.pgrid.0 * self.pgrid.1
    }

    /// Whether the workload's state equals the serial reference bit for
    /// bit.  A z-split re-associates the column sums of `C`, so it agrees
    /// only to rounding (the repository's equivalence tests say the same).
    pub fn bitwise_serial(&self) -> bool {
        self.pgrid.1 == 1
    }

    /// Which reference a blessed fingerprint of this workload comes from:
    /// the serial model of its iteration, or — under a z-split — the
    /// workload's own deterministic program.
    pub fn reference_label(&self) -> &'static str {
        if self.bitwise_serial() {
            iteration_label(self.alg.iteration())
        } else {
            "exact-pz2"
        }
    }

    pub fn process_grid(&self) -> ProcessGrid {
        ProcessGrid::yz(self.pgrid.0, self.pgrid.1).expect("workload table holds valid grids")
    }

    /// Counts for a `--seconds` window: `timed` scales linearly (never
    /// below 3), everything else is fixed.  `smoke` is the 20-step variant
    /// of the end-to-end test.
    pub fn counts_for(&self, seconds: u64, smoke: bool) -> Counts {
        if smoke {
            return Counts {
                setup_reps: 2,
                segments: 1,
                warm: 2,
                timed: 20,
                traced: 3,
            };
        }
        let timed = (self.counts.timed as u64 * seconds / RUN_SECONDS).max(3) as usize;
        Counts {
            timed,
            ..self.counts
        }
    }
}

const fn counts(
    setup_reps: usize,
    segments: usize,
    warm: usize,
    timed: usize,
    traced: usize,
) -> Counts {
    Counts {
        setup_reps,
        segments,
        warm,
        timed,
        traced,
    }
}

/// The seven workloads.  Why each exists is recorded in `BENCHMARK.json`
/// and `README.md`; the counts give ≈ 8 s of timed steps on the 2-core bench
/// host (12.5 s on the paper mesh, which is at the 3-step floor).
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "paper_alg1_y2",
        mesh: Mesh::Paper,
        alg: Alg::Alg1,
        pgrid: (2, 1),
        transport: Transport::Mpsc,
        threads: 1,
        counts: counts(3, 1, 1, 3, 1),
        verify_steps: 1,
    },
    Workload {
        name: "mid_serial",
        mesh: Mesh::Mid,
        alg: Alg::Serial,
        pgrid: (1, 1),
        transport: Transport::None,
        threads: 1,
        counts: counts(5, 1, 2, 17, 4),
        verify_steps: 2,
    },
    Workload {
        name: "mid_serial_t2",
        mesh: Mesh::Mid,
        alg: Alg::Serial,
        pgrid: (1, 1),
        transport: Transport::None,
        threads: 2,
        counts: counts(5, 1, 2, 25, 4),
        verify_steps: 2,
    },
    Workload {
        name: "mid_alg1_z2",
        mesh: Mesh::Mid,
        alg: Alg::Alg1,
        pgrid: (1, 2),
        transport: Transport::Mpsc,
        threads: 1,
        counts: counts(5, 1, 3, 26, 4),
        verify_steps: 2,
    },
    Workload {
        name: "mid_alg2_y2",
        mesh: Mesh::Mid,
        alg: Alg::Alg2,
        pgrid: (2, 1),
        transport: Transport::Mpsc,
        threads: 1,
        counts: counts(5, 1, 3, 26, 4),
        verify_steps: 2,
    },
    Workload {
        name: "small_alg1_y2_uds",
        mesh: Mesh::Small,
        alg: Alg::Alg1,
        pgrid: (2, 1),
        transport: Transport::Uds,
        threads: 1,
        counts: counts(25, 5, 40, 500, 300),
        verify_steps: 50,
    },
    Workload {
        name: "small_alg2_y2_uds",
        mesh: Mesh::Small,
        alg: Alg::Alg2,
        pgrid: (2, 1),
        transport: Transport::Uds,
        threads: 1,
        counts: counts(25, 5, 40, 200, 300),
        verify_steps: 50,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What a per-layer number is, which decides how `agree` compares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Gated end-to-end metric.
    EndToEnd,
    /// A measured time, rate or ratio: reported, never gated.
    Measured,
    /// An exact count: must repeat bit-for-bit between runs.
    Count,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::EndToEnd => "e2e",
            Kind::Measured => "measured",
            Kind::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        kind: Kind::Measured,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
        kind: Kind::Measured,
    }
}

const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        kind: Kind::Count,
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
///
/// * Failures are not a metric here: the result line's `attempted` /
///   `failed` carry them (a metric that is always 0 has no median to bound).
/// * The median step time is not gated either: on the shared bench host it
///   moved by 30 % between identical runs.  `steps_per_s` is taken from the
///   best-case step ([`crate::stats::best_case`]), and the median, the
///   window's as-experienced rate and the contention they imply are ledger
///   rows (`step.s_p50`, `step.window_steps_per_s`, `step.contention_frac`).
pub const END_TO_END: [MetricDef; 3] = [
    e2e("steps_per_s", "1/s", "higher"),
    e2e("setup_s", "s", "lower"),
    e2e("peak_rss_mb", "MiB", "lower"),
];

/// The per-layer ledger, in `BENCHMARK.json` order.
pub const PER_LAYER: [MetricDef; 83] = [
    // set-up (benchmark spans around the constructors)
    lower("setup.grid_s", "s"),
    lower("setup.model_new_s", "s"),
    lower("setup.ic_s", "s"),
    lower("setup.world_s", "s"),
    // core kernels and fft (probes)
    lower("core.adaptation.ns_per_point", "ns"),
    lower("core.advection.ns_per_point", "ns"),
    lower("core.smoothing.ns_per_point", "ns"),
    lower("core.vertical.ns_per_point", "ns"),
    lower("core.filterop.ns_per_point", "ns"),
    lower("core.forcing.ns_per_point", "ns"),
    lower("fft.filter_row.ns_per_point", "ns"),
    higher("core.adaptation.gbps_computed", "GB/s"),
    higher("core.advection.gbps_computed", "GB/s"),
    higher("core.smoothing.gbps_computed", "GB/s"),
    higher("core.vertical.gbps_computed", "GB/s"),
    higher("host.triad_gbps", "GB/s"),
    // core.dycore operators (spans)
    lower("core.dycore.A.s_per_step", "s"),
    lower("core.dycore.C.s_per_step", "s"),
    lower("core.dycore.F.s_per_step", "s"),
    lower("core.dycore.L.s_per_step", "s"),
    lower("core.dycore.S1.s_per_step", "s"),
    lower("core.dycore.S2.s_per_step", "s"),
    count("core.dycore.A.calls_per_step", "count"),
    count("core.dycore.C.calls_per_step", "count"),
    count("core.dycore.F.calls_per_step", "count"),
    count("core.dycore.L.calls_per_step", "count"),
    count("core.dycore.S1.calls_per_step", "count"),
    count("core.dycore.S2.calls_per_step", "count"),
    lower("core.dycore.A.imbalance", "ratio"),
    lower("core.dycore.C.imbalance", "ratio"),
    lower("core.dycore.F.imbalance", "ratio"),
    lower("core.dycore.L.imbalance", "ratio"),
    lower("core.dycore.S1.imbalance", "ratio"),
    lower("core.dycore.S2.imbalance", "ratio"),
    // step loops
    lower("step.s_best", "s"),
    lower("step.s_p50", "s"),
    higher("step.window_steps_per_s", "1/s"),
    lower("step.contention_frac", "ratio"),
    lower("step.self_s_per_step", "s"),
    lower("step.closure_residual_frac", "ratio"),
    lower("step.rank_imbalance", "ratio"),
    lower("step.tail_s", "s"),
    higher("step.tail_pct", "%"),
    count("step.samples", "count"),
    lower("step.core_ns_per_point", "ns"),
    higher("step.parallel_efficiency", "ratio"),
    lower("step.traced_step_s_best", "s"),
    // core.par.exchange
    count("core.exchange.exchanges_per_step", "count"),
    count("core.exchange.msgs_per_step", "count"),
    count("core.exchange.bytes_per_step", "B"),
    lower("core.exchange.post_s_per_step", "s"),
    lower("core.exchange.wait_s_per_step", "s"),
    lower("core.exchange.wait_s_p50", "s"),
    higher("core.exchange.overlap_efficiency", "ratio"),
    lower("core.exchange.probe.post_s_p50", "s"),
    lower("core.exchange.probe.finish_s_p50", "s"),
    // comm p2p / transport (probes)
    lower("comm.pingpong.half_rtt_s.8B", "s"),
    lower("comm.pingpong.half_rtt_s.1KiB", "s"),
    lower("comm.pingpong.half_rtt_s.8KiB", "s"),
    lower("comm.pingpong.half_rtt_s.64KiB", "s"),
    lower("comm.pingpong.half_rtt_s.1MiB", "s"),
    lower("comm.alpha_s", "s"),
    lower("comm.beta_s_per_byte", "s/B"),
    lower("comm.fit_rel_rmse", "ratio"),
    count("comm.wire.bytes_per_step", "B"),
    lower("comm.wire.overhead_frac", "ratio"),
    // comm.collective
    count("comm.collective.calls_per_step", "count"),
    count("comm.collective.bytes_per_step", "B"),
    lower("comm.collective.s_per_step", "s"),
    lower("comm.collective.probe.allgather_s_p50", "s"),
    lower("comm.collective.probe.barrier_s_p50", "s"),
    // core.pool
    higher("core.pool.kernel_speedup.adaptation", "ratio"),
    higher("core.pool.kernel_speedup.advection", "ratio"),
    higher("core.pool.kernel_speedup.smoothing", "ratio"),
    higher("core.pool.kernel_speedup.vertical", "ratio"),
    higher("core.pool.kernel_speedup.filterop", "ratio"),
    higher("core.pool.worker_busy_frac", "ratio"),
    // core.resilience (probe)
    count("core.resilience.ckpt_bytes", "B"),
    lower("core.resilience.ckpt_write_s_p50", "s"),
    lower("core.resilience.ckpt_read_s_p50", "s"),
    higher("core.resilience.ckpt_write_mbps", "MB/s"),
    // obs
    lower("obs.overhead_frac", "ratio"),
    // not an exact count: a reader-thread span in flight at the window's
    // edge falls in or out
    lower("obs.events_per_step", "count"),
];

pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    fn benchmark_json() -> json::Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let src = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&src).expect("BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_matches_code() {
        let doc = benchmark_json();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .expect(key)
                .as_arr()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(json::Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let code_workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names("workloads"), code_workloads);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let code: Vec<String> = defs.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(names(key), code, "{key} names differ");
            for (entry, def) in doc.get(key).expect(key).as_arr().iter().zip(defs) {
                let field = |f: &str| entry.get(f).and_then(json::Json::as_str).expect(f);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better, "{}", def.name);
            }
        }
        assert_eq!(
            doc.get("run_seconds").and_then(json::Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        for m in doc.get("end_to_end").expect("end_to_end").as_arr() {
            let bound = m.get("bound").and_then(json::Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                m.name
            );
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn timed_steps_scale_with_seconds_and_never_drop_below_three() {
        let w = find("mid_serial").unwrap();
        assert_eq!(w.counts_for(RUN_SECONDS, false), w.counts);
        assert_eq!(
            w.counts_for(RUN_SECONDS / 2, false).timed,
            w.counts.timed / 2
        );
        assert_eq!(find("paper_alg1_y2").unwrap().counts_for(1, false).timed, 3);
        assert_eq!(w.counts_for(RUN_SECONDS, true).timed, 20);
    }

    #[test]
    fn meshes_are_the_documented_sizes() {
        assert_eq!(Mesh::Small.config().extents(), (24, 24, 8));
        assert_eq!(Mesh::Mid.config().extents(), (180, 90, 30));
        assert_eq!(Mesh::Paper.config().extents(), (720, 360, 30));
        let (mid, paper) = (Mesh::Mid.config(), Mesh::Paper.config());
        assert_eq!(
            (mid.dt1, mid.dt2, mid.held_suarez),
            (paper.dt1, paper.dt2, true)
        );
    }
}
