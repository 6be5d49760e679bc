//! Communication/computation cost analysis (§5.3 and Theorems 4.1/4.2).
//!
//! Two layers:
//!
//! 1. the paper's **asymptotic formulas** (`W_CA`, `S_CA`, `W_YZ`, …) and
//!    lower bounds, as plain functions,
//! 2. an **exact per-rank traffic predictor** ([`predict_step`]): it walks
//!    the *same* schedule, exchange plans and collective shapes the real
//!    models execute and counts every message, byte and point-update — so
//!    its counts are testable against the runtime's measured statistics at
//!    small rank counts, and then evaluated at the paper's 128–1024 ranks
//!    where the α–β–γ model turns them into predicted seconds (Figures 1,
//!    6, 7, 8),
//! 3. the **sweep-group decision** of Algorithm 2 ([`ca_ladder`],
//!    [`ca_pick`], [`ca_group_size`]): how deep a halo is worth its
//!    redundant sweeps under a given machine model.

use crate::config::ModelConfig;
use crate::geometry::Region;
use crate::par::exchange::link_messages;
use crate::par::schedule::{self, CSource, FieldShape, StepOp};
use agcm_comm::CostModel;
use agcm_mesh::{Decomposition, HaloWidths, ProcessGrid};

// ---------------------------------------------------------------------------
// §5.3 asymptotic formulas
// ---------------------------------------------------------------------------

/// `W_CA = Θ(2MK · n_x·(n_y/p_y)·(n_z/p_z)·log p_z)` — words moved per
/// rank by the communication-avoiding algorithm over `K` steps.
pub fn w_ca(cfg: &ModelConfig, py: usize, pz: usize, k_steps: usize) -> f64 {
    let m = cfg.m_iters as f64;
    let vol = cfg.nx as f64 * (cfg.ny as f64 / py as f64) * (cfg.nz as f64 / pz as f64);
    2.0 * m * k_steps as f64 * vol * (pz as f64).log2().max(0.0)
}

/// `S_CA = Θ((2M + 2)·K)` — synchronizations of the CA algorithm.
pub fn s_ca(cfg: &ModelConfig, k_steps: usize) -> f64 {
    ((2 * cfg.m_iters + 2) * k_steps) as f64
}

/// `W_YZ = Θ(3MK · n_x·(n_y/p_y)·(n_z/p_z)·log p_z)`.
pub fn w_yz(cfg: &ModelConfig, py: usize, pz: usize, k_steps: usize) -> f64 {
    let m = cfg.m_iters as f64;
    let vol = cfg.nx as f64 * (cfg.ny as f64 / py as f64) * (cfg.nz as f64 / pz as f64);
    3.0 * m * k_steps as f64 * vol * (pz as f64).log2().max(0.0)
}

/// `S_YZ = Θ((6M + 4)·K)`.
pub fn s_yz(cfg: &ModelConfig, k_steps: usize) -> f64 {
    ((6 * cfg.m_iters + 4) * k_steps) as f64
}

/// `W_XY = Θ(6MK · n_z·(n_y/p_y)·(n_x/p_x)·log p_x)`.
pub fn w_xy(cfg: &ModelConfig, px: usize, py: usize, k_steps: usize) -> f64 {
    let m = cfg.m_iters as f64;
    let vol = cfg.nz as f64 * (cfg.ny as f64 / py as f64) * (cfg.nx as f64 / px as f64);
    6.0 * m * k_steps as f64 * vol * (px as f64).log2().max(0.0)
}

/// `S_XY = Θ((9M + 10)·K)`.
pub fn s_xy(cfg: &ModelConfig, k_steps: usize) -> f64 {
    ((9 * cfg.m_iters + 10) * k_steps) as f64
}

/// Theorem 4.1: communication lower bound of the `n_x`-input Fourier
/// filtering over `p_x` ranks, `Ω(2·n_x·log n_x / (p_x·log(n_x/p_x)))`.
pub fn fft_lower_bound(nx: usize, px: usize) -> f64 {
    if px <= 1 {
        return 0.0; // η_x = 0
    }
    let nxf = nx as f64;
    let pxf = px as f64;
    2.0 * nxf * nxf.log2() / (pxf * (nxf / pxf).log2().max(1e-9))
}

/// Theorem 4.2: communication lower bound of the summation operator `C`,
/// `Ω(2(p_z − 1)·n_x·n_y)` (total words over all ranks).
pub fn reduction_lower_bound(nx: usize, ny: usize, pz: usize) -> f64 {
    2.0 * (pz.saturating_sub(1)) as f64 * (nx * ny) as f64
}

// ---------------------------------------------------------------------------
// Exact per-step traffic prediction
// ---------------------------------------------------------------------------

/// Which algorithm/decomposition pairing a prediction covers (the three
/// lines of Figures 6–8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgKind {
    /// Algorithm 1 under the X-Y decomposition.
    OriginalXY,
    /// Algorithm 1 under the Y-Z decomposition.
    OriginalYZ,
    /// Algorithm 2 (communication-avoiding, Y-Z).
    CommAvoiding,
}

impl AlgKind {
    /// Display label used by the figures harness.
    pub fn label(&self) -> &'static str {
        match self {
            AlgKind::OriginalXY => "original X-Y",
            AlgKind::OriginalYZ => "original Y-Z",
            AlgKind::CommAvoiding => "comm-avoiding",
        }
    }
}

/// Relative per-point work of one adaptation sweep (baseline 1.0).
const W_ADAPT: f64 = 1.0;
/// Advection sweeps touch three operators per component.
const W_ADVECT: f64 = 1.2;
/// Smoothing is a light linear filter.
const W_SMOOTH: f64 = 0.35;
/// Per-point FFT work factor (multiplied by `log₂ n_x`): a forward+inverse
/// real FFT costs ≈10·n·log₂n flops ≈ 0.07·log₂n point-update units per
/// point.
const W_FFT: f64 = 0.07;
/// Local column-integral work per point per `C` application.
const W_C: f64 = 0.3;

/// Predicted per-rank, per-step costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankCost {
    /// Halo-exchange messages posted.
    pub p2p_msgs: u64,
    /// `f64` values sent in halo exchanges.
    pub p2p_elems: u64,
    /// Collective events (the operator `C` + filter transposes).
    pub collective_calls: u64,
    /// Predicted stencil (halo) communication seconds, after overlap credit.
    pub stencil_comm_s: f64,
    /// Predicted collective communication seconds.
    pub collective_comm_s: f64,
    /// Predicted computation seconds.
    pub compute_s: f64,
}

impl RankCost {
    /// Total predicted step seconds.
    pub fn total_s(&self) -> f64 {
        self.stencil_comm_s + self.collective_comm_s + self.compute_s
    }
}

/// Aggregate over ranks: the slowest rank bounds the step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepCost {
    /// Cost of the most-loaded rank.
    pub max: RankCost,
    /// Per-category maxima (a step is bounded by each category's slowest
    /// rank; using per-category maxima matches how the paper reports the
    /// communication portions separately).
    pub stencil_comm_s: f64,
    /// Max collective seconds over ranks.
    pub collective_comm_s: f64,
    /// Max compute seconds over ranks.
    pub compute_s: f64,
}

impl StepCost {
    /// Total predicted step seconds (category maxima summed).
    pub fn total_s(&self) -> f64 {
        self.stencil_comm_s + self.collective_comm_s + self.compute_s
    }
}

/// Messages and `f64` elements `rank` sends in one exchange of `fields` at
/// halo `depth`: one message per neighbour link ([`link_messages`]).
fn exchange_traffic(
    decomp: &Decomposition,
    rank: usize,
    depth: HaloWidths,
    fields: &[FieldShape],
) -> (u64, u64) {
    let sub = decomp.subdomain(rank).extents();
    let geoms: Vec<_> = fields.iter().map(|s| s.geom(sub)).collect();
    let msgs = link_messages(decomp, rank, depth, &geoms);
    let elems = msgs.iter().map(|m| m.send_elems() as u64).sum();
    (msgs.len() as u64, elems)
}

/// Per-global-row "is filtered" flags: the rows poleward of the cutoff,
/// exactly the rows the models' polar-filter profiles damp.
pub fn active_flags(cfg: &ModelConfig) -> Vec<bool> {
    let grid = cfg.grid().expect("valid config");
    let cutoff = cfg.filter_cutoff_deg.to_radians();
    (0..grid.ny())
        .map(|j| grid.latitude(j).abs() >= cutoff)
        .collect()
}

fn active_rows(flags: &[bool], y0: usize, y1: usize) -> usize {
    flags[y0.min(flags.len())..y1.min(flags.len())]
        .iter()
        .filter(|&&a| a)
        .count()
}

/// The feasible communication-avoiding sweep groups `(g, fuse, g_a)` on
/// `pgrid`, shallowest first: `g` adaptation sweeps per exchange, whether
/// the smoothing's two extra rows ride the step's first exchange, and `g_a`
/// advection sweeps per exchange.
///
/// Rungs are **iteration-aligned** (`g = 3, 6, …, 3M`) or `g = 1`: a group
/// boundary inside a nonlinear iteration would invalidate the iteration's
/// base state `ψ^{i−1}` on the dilated sweep regions, whereas iteration
/// boundaries (and the interior-only `g = 1`) keep every read covered.  A
/// rung is feasible when its halo fits the smallest block a single-hop
/// exchange can ship; the top rung is the paper's `g = 3M` wherever that
/// fits, and `verify::dataflow` rejects the next one up.
pub fn ca_ladder(cfg: &ModelConfig, pgrid: &ProcessGrid) -> Vec<(usize, bool, usize)> {
    let (_, py, pz) = pgrid.dims();
    let by = if py > 1 { cfg.ny / py } else { usize::MAX };
    let bz = if pz > 1 { cfg.nz / pz } else { usize::MAX };
    let ga = 3.min(by).min(bz).max(1);
    let groups = (1..=cfg.m_iters)
        .map(|k| 3 * k)
        .filter(|&g| g <= by.min(bz));
    std::iter::once(1)
        .chain(groups)
        .map(|g| (g, g + 2 <= by, ga))
        .collect()
}

/// The rung of [`ca_ladder`] with the least predicted step time under
/// `model`, on the rank with the most neighbours (ties go to the deeper
/// rung): redundant halo sweeps at `γ` a point-update against `sync + α` an
/// exchange round and `β` a byte, as [`predict_rank_mode`] counts them.
/// The `tianhe2` preset, 2.2 ms of skew a round, picks the deepest rung at
/// every rank count the paper ran (and the full `g = 3M` where a rank's
/// redundant rows are cheap against a round); a host whose rounds cost tens
/// of microseconds picks a shallower one.
pub fn ca_pick(cfg: &ModelConfig, pgrid: &ProcessGrid, model: &CostModel) -> (usize, bool, usize) {
    let ladder = ca_ladder(cfg, pgrid);
    let top = ladder[ladder.len() - 1];
    let Ok(decomp) = Decomposition::new(cfg.extents(), *pgrid) else {
        return top; // the model constructor reports the bad grid
    };
    let flags = active_flags(cfg);
    let (_, py, pz) = pgrid.dims();
    let rank = pgrid.rank(0, py / 2, pz / 2);
    let cost = |&(g, fuse, ga): &(usize, bool, usize)| {
        let mode = CaMode::Groups(g, fuse, ga);
        predict_rank_mode(
            cfg,
            AlgKind::CommAvoiding,
            &decomp,
            rank,
            model,
            &flags,
            mode,
        )
        .total_s()
    };
    // deepest first: `min_by` keeps the first of equal minima
    let best = ladder.iter().rev().map(|r| (cost(r), *r));
    best.min_by(|a, b| a.0.total_cmp(&b.0))
        .map_or(top, |(_, r)| r)
}

/// The sweep groups `(g, fuse, g_a)` Algorithm 2 runs with on `pgrid`:
/// [`ca_pick`] under the measured constants of the bench host
/// ([`CostModel::BENCH_HOST`]).  A pure function of its arguments and the
/// single source for `par::alg2::CaModel::new`, the static schedule
/// ([`CaMode::Grouped`]) and `agcm-verify`, so none of them can drift.
pub fn ca_group_size(cfg: &ModelConfig, pgrid: &ProcessGrid) -> (usize, bool, usize) {
    ca_pick(cfg, pgrid, &CostModel::BENCH_HOST)
}

/// Predict one time step of `alg` on `pgrid` under the machine `model`,
/// Algorithm 2 at the sweep groups it executes with ([`CaMode::Grouped`]).
pub fn predict_step(
    cfg: &ModelConfig,
    alg: AlgKind,
    pgrid: ProcessGrid,
    model: &CostModel,
) -> StepCost {
    predict_step_mode(cfg, alg, pgrid, model, CaMode::Grouped)
}

/// Which sweep groups an Algorithm 2 schedule or prediction is built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaMode {
    /// What `CaModel::new` executes: the rung [`ca_group_size`] picks.
    Grouped,
    /// The paper's accounting: always 2 exchanges of full `3M(+2)`-deep
    /// halos, with volumes computed geometrically even where the halo would
    /// span several neighbour blocks.  On the paper's own 720x360x30 mesh
    /// the full depth does not fit any feasible Y-Z block for p ≥ 128 with
    /// M = 3, so the paper's reported per-step frequency of 2 is
    /// reproducible only under this accounting (see EXPERIMENTS.md).
    PaperIdeal,
    /// Explicit `(g, fuse, g_a)`: a rung of [`ca_ladder`], or a what-if.
    Groups(usize, bool, usize),
}

impl CaMode {
    /// The `(g, fuse, g_a)` this mode stands for on `pgrid`.
    pub fn groups(self, cfg: &ModelConfig, pgrid: &ProcessGrid) -> (usize, bool, usize) {
        match self {
            CaMode::Grouped => ca_group_size(cfg, pgrid),
            CaMode::PaperIdeal => (3 * cfg.m_iters, true, 3),
            CaMode::Groups(g, fuse, ga) => (g, fuse, ga),
        }
    }

    /// The same groups, spelled out — for callers that cost many ranks and
    /// should run the pick behind [`CaMode::Grouped`] once.
    pub fn resolved(self, cfg: &ModelConfig, pgrid: &ProcessGrid) -> CaMode {
        let (g, fuse, ga) = self.groups(cfg, pgrid);
        CaMode::Groups(g, fuse, ga)
    }
}

/// [`predict_step`] with an explicit CA costing mode.
pub fn predict_step_mode(
    cfg: &ModelConfig,
    alg: AlgKind,
    pgrid: ProcessGrid,
    model: &CostModel,
    mode: CaMode,
) -> StepCost {
    let decomp = Decomposition::new(cfg.extents(), pgrid).expect("valid decomposition");
    let flags = active_flags(cfg);
    let mode = match alg {
        AlgKind::CommAvoiding => mode.resolved(cfg, &pgrid),
        _ => mode,
    };
    let mut agg = StepCost::default();
    let mut best_total = -1.0f64;
    for rank in 0..pgrid.size() {
        let rc = predict_rank_mode(cfg, alg, &decomp, rank, model, &flags, mode);
        agg.stencil_comm_s = agg.stencil_comm_s.max(rc.stencil_comm_s);
        agg.collective_comm_s = agg.collective_comm_s.max(rc.collective_comm_s);
        agg.compute_s = agg.compute_s.max(rc.compute_s);
        if rc.total_s() > best_total {
            best_total = rc.total_s();
            agg.max = rc;
        }
    }
    agg
}

/// Predicted cost of one specific rank (exposed for count-validation
/// tests).  `flags` are the per-global-row filter-active flags
/// ([`active_flags`]).
pub fn predict_rank(
    cfg: &ModelConfig,
    alg: AlgKind,
    decomp: &Decomposition,
    rank: usize,
    model: &CostModel,
    flags: &[bool],
) -> RankCost {
    predict_rank_mode(cfg, alg, decomp, rank, model, flags, CaMode::Grouped)
}

/// [`predict_rank`] with an explicit CA costing mode.
///
/// Walks the step schedule `par::schedule` emits for the integrators —
/// every exchange at its depth and field list, every sweep on its dilated
/// region — so the counts are those of the executing models (tests assert
/// them against measured runtime statistics) and a rung of the ladder
/// differs from another only through the schedule it generates.
#[allow(clippy::too_many_arguments)]
pub fn predict_rank_mode(
    cfg: &ModelConfig,
    alg: AlgKind,
    decomp: &Decomposition,
    rank: usize,
    model: &CostModel,
    flags: &[bool],
    mode: CaMode,
) -> RankCost {
    let pgrid = decomp.process_grid();
    let sub = decomp.subdomain(rank);
    let (nxl, nyl, nzl) = sub.extents();
    let (px, _, pz) = pgrid.dims();
    let ops = match alg {
        AlgKind::CommAvoiding => {
            let (g, fuse, ga) = mode.groups(cfg, pgrid);
            schedule::alg2_step_for(cfg, pgrid, g, fuse, ga)
        }
        _ => schedule::alg1_step(cfg, pgrid),
    };
    // a sweep region: the interior grown (negative: shrunk) by `dy` rows and
    // `dz` levels on the sides that face a neighbour — redundant halo work
    let region = |dy: isize, dz: isize| Region {
        y0: if sub.at_north() { 0 } else { -dy },
        y1: nyl as isize + if sub.at_south(cfg.ny) { 0 } else { dy },
        z0: if sub.at_top() { 0 } else { -dz },
        z1: nzl as isize + if sub.at_surface(cfg.nz) { 0 } else { dz },
    };
    let points = |r: Region| (r.area() * nxl) as f64;
    // filtered circles of a region: U, V, Φ at every level + p'_sa
    let circles = |r: Region| {
        let y0 = (sub.y.start as isize + r.y0).max(0) as usize;
        let y1 = (sub.y.start as isize + r.y1).max(0) as usize;
        active_rows(flags, y0, y1) as f64 * ((r.z1 - r.z0) as f64 * 3.0 + 1.0)
    };
    let mut rc = RankCost::default();
    let mut work = 0.0; // point-update units
    let mut open: Option<f64> = None; // an overlapped exchange in flight
    for op in &ops {
        let c = match op {
            StepOp::Exchange(ex) => {
                let (msgs, elems) = exchange_traffic(decomp, rank, ex.depth, ex.fields.shapes());
                rc.p2p_msgs += msgs;
                rc.p2p_elems += elems;
                let t = model.exchange_round(msgs, elems);
                if ex.overlapped {
                    open = Some(t);
                } else {
                    rc.stencil_comm_s += t;
                }
                continue;
            }
            StepOp::Compute(c) => c,
            // billed with the kernel that consumes them, below
            StepOp::ZAllgather | StepOp::FilterTranspose => continue,
        };
        let d = c.dilate as isize;
        let r = region(d, d);
        // (units of this kernel, units of it that run while an overlapped
        // exchange is in flight, §4.3.1)
        let (units, hidden) = match c.op {
            "adaptation.fused" => {
                if c.c == CSource::Fresh && pz > 1 {
                    let elems = nxl * (2 * (r.y1 - r.y0) as usize + 2);
                    rc.collective_calls += 1;
                    rc.collective_comm_s += model.allgather_ring(pz, elems);
                }
                (points(r) * (W_ADAPT + W_C), 0.0)
            }
            "advection.fused" => (points(r) * W_ADVECT, points(region(-1, -1)) * W_ADVECT),
            "filter" => {
                let rows = circles(r);
                if px > 1 {
                    // forward and inverse transpose of the distributed filter
                    let (fwd, back) = (rows * nxl as f64, rows / px as f64 * cfg.nx as f64);
                    rc.collective_calls += 2;
                    rc.collective_comm_s += model.alltoall_pairwise(px, fwd as usize)
                        + model.alltoall_pairwise(px, back as usize);
                }
                (rows * nxl as f64 * W_FFT * (cfg.nx as f64).log2(), 0.0)
            }
            // former smoothing: rows whose ±2 stencil stays inside the block
            "smooth.s1" => {
                let w = points(region(d, 0)) * W_SMOOTH;
                (w, w)
            }
            // later smoothing: the edge rows and, redundantly, the halo frame
            "smooth.s2" => ((points(r) - points(region(-2, 0))) * W_SMOOTH, 0.0),
            // pointwise and the same on every rung: not priced
            "forcing" => (0.0, 0.0),
            other => unreachable!("unknown schedule kernel {other}"),
        };
        if let Some(t) = open.take() {
            rc.stencil_comm_s += (t - model.gamma * hidden).max(0.0);
        }
        work += units;
    }
    rc.compute_s = model.gamma * work;
    rc
}

// ---------------------------------------------------------------------------
// Scaling charts and crossover prediction under any (fitted) cost model
// ---------------------------------------------------------------------------

/// One rank count of a strong-scaling prediction (one column of Figures
/// 6–8): the baseline algorithm's and the CA algorithm's predicted step
/// seconds under a common cost model.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Total rank count.
    pub p: usize,
    /// Predicted step seconds of the baseline algorithm.
    pub baseline_s: f64,
    /// Predicted step seconds of the communication-avoiding algorithm.
    pub ca_s: f64,
}

impl ScalingPoint {
    /// Baseline-over-CA speedup (> 1 when CA wins).
    pub fn speedup(&self) -> f64 {
        if self.ca_s > 0.0 {
            self.baseline_s / self.ca_s
        } else {
            f64::INFINITY
        }
    }
}

/// Chart `baseline` vs the CA algorithm across `ps` rank counts under
/// `model` — which may be a calibrated preset ([`CostModel::tianhe2`]) or
/// a machine-fitted model from measured exchange spans
/// (`agcm_comm::fit::CommFit::model`): the prediction machinery is
/// identical, only the α/β/γ/sync coefficients change.  `grid` maps a
/// rank count (and algorithm) to its process grid, decoupling this crate
/// from the bench harness's grid policy.
pub fn scaling_chart(
    cfg: &ModelConfig,
    baseline: AlgKind,
    ps: &[usize],
    grid: impl Fn(usize, AlgKind) -> ProcessGrid,
    model: &CostModel,
) -> Vec<ScalingPoint> {
    let total = |alg, pg, mode| predict_step_mode(cfg, alg, pg, model, mode).total_s();
    ps.iter()
        .map(|&p| {
            // the CA line runs the rung this machine would pick
            let ca_grid = grid(p, AlgKind::CommAvoiding);
            let (g, fuse, ga) = ca_pick(cfg, &ca_grid, model);
            ScalingPoint {
                p,
                baseline_s: total(baseline, grid(p, baseline), CaMode::Grouped),
                ca_s: total(AlgKind::CommAvoiding, ca_grid, CaMode::Groups(g, fuse, ga)),
            }
        })
        .collect()
}

/// The crossover rank count: the smallest charted `p` from which the CA
/// algorithm wins (speedup ≥ 1) *and keeps winning* through the rest of
/// the chart.  `None` when the baseline still wins at the largest charted
/// `p` — under a fitted model of a latency-free loopback network, CA's
/// redundant computation can outweigh its saved messages at every
/// feasible scale, and that is a finding, not an error.
pub fn crossover_rank(chart: &[ScalingPoint]) -> Option<usize> {
    let last_loss = chart
        .iter()
        .rposition(|pt| pt.speedup() < 1.0)
        .map(|i| i + 1)
        .unwrap_or(0);
    chart.get(last_loss).map(|pt| pt.p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_cfg() -> ModelConfig {
        ModelConfig::paper_50km()
    }

    #[test]
    fn asymptotic_ordering_matches_section_5_3() {
        // W_XY >> W_YZ > W_CA and S_XY > S_YZ > S_CA (paper's conclusion)
        let cfg = paper_cfg();
        let k = 100;
        // p = 512: XY = 32x16, YZ = 512 = 32x16 in (y, z)... use the
        // paper-feasible maxima: YZ (py, pz) with pz <= 15, XY (px, py)
        let wxy = w_xy(&cfg, 32, 16, k);
        let wyz = w_yz(&cfg, 64, 8, k);
        let wca = w_ca(&cfg, 64, 8, k);
        assert!(wxy > wyz, "W_XY = {wxy} must exceed W_YZ = {wyz}");
        assert!(wyz > wca, "W_YZ = {wyz} must exceed W_CA = {wca}");
        assert!((wyz / wca - 1.5).abs() < 1e-12, "W_YZ/W_CA = 3M/2M = 1.5");
        assert!(s_xy(&cfg, k) > s_yz(&cfg, k));
        assert!(s_yz(&cfg, k) > s_ca(&cfg, k));
        // M = 3: S_XY = 37K, S_YZ = 22K, S_CA = 8K
        assert_eq!(s_xy(&cfg, 1), 37.0);
        assert_eq!(s_yz(&cfg, 1), 22.0);
        assert_eq!(s_ca(&cfg, 1), 8.0);
    }

    #[test]
    fn lower_bounds_behave() {
        // FFT bound vanishes at p_x = 1 (η_x = 0) — the whole point of the
        // Y-Z choice in §4.2.1
        assert_eq!(fft_lower_bound(720, 1), 0.0);
        assert!(fft_lower_bound(720, 2) > 0.0);
        // reduction bound grows linearly in p_z − 1
        let b2 = reduction_lower_bound(720, 360, 2);
        let b3 = reduction_lower_bound(720, 360, 3);
        assert_eq!(b2, 2.0 * 720.0 * 360.0);
        assert_eq!(b3, 2.0 * b2);
        assert_eq!(reduction_lower_bound(720, 360, 1), 0.0);
    }

    #[test]
    fn fft_term_dominates_reduction_term_per_rank() {
        // §4.2's optimization principle, stated per rank at equal p = 512:
        // the words a rank moves for the distributed filtering under X-Y
        // (Theorem 4.1 bound x its share of circles) far exceed the words
        // it moves for the summation under Y-Z (Theorem 4.2 bound / p).
        let cfg = paper_cfg();
        let (px, py_xy) = (16, 32);
        let circles_per_rank = (cfg.ny / py_xy) * cfg.nz;
        let fft_per_rank = fft_lower_bound(cfg.nx, px) * circles_per_rank as f64;
        let (py_yz, pz) = (64, 8);
        let red_per_rank = reduction_lower_bound(cfg.nx, cfg.ny, pz) / (py_yz * pz) as f64;
        assert!(
            fft_per_rank > 5.0 * red_per_rank,
            "per-rank FFT words {fft_per_rank} must dominate reduction words {red_per_rank}"
        );
    }

    /// CA at the rung `model` picks for `pgrid`.
    fn predict_ca(cfg: &ModelConfig, pgrid: ProcessGrid, model: &CostModel) -> StepCost {
        let (g, fuse, ga) = ca_pick(cfg, &pgrid, model);
        let mode = CaMode::Groups(g, fuse, ga);
        predict_step_mode(cfg, AlgKind::CommAvoiding, pgrid, model, mode)
    }

    #[test]
    fn predicted_ordering_at_paper_scale() {
        // Figure 8's ordering: CA < YZ < XY in total step time at p = 512
        let cfg = paper_cfg();
        let model = CostModel::tianhe2();
        let ca = predict_ca(&cfg, ProcessGrid::yz(64, 8).unwrap(), &model);
        let yz = predict_step(
            &cfg,
            AlgKind::OriginalYZ,
            ProcessGrid::yz(64, 8).unwrap(),
            &model,
        );
        let xy = predict_step(
            &cfg,
            AlgKind::OriginalXY,
            ProcessGrid::xy(32, 16).unwrap(),
            &model,
        );
        assert!(
            ca.total_s() < yz.total_s(),
            "CA {} must beat YZ {}",
            ca.total_s(),
            yz.total_s()
        );
        assert!(
            yz.total_s() < xy.total_s(),
            "YZ {} must beat XY {}",
            yz.total_s(),
            xy.total_s()
        );
        // stencil communication: 13 exchanges vs 2 → several-fold speedup
        assert!(yz.stencil_comm_s / ca.stencil_comm_s > 2.0);
        // collective communication: XY's distributed FFT dwarfs YZ's C
        assert!(xy.collective_comm_s > yz.collective_comm_s);
        // and CA's collectives are ~2/3 of YZ's
        let r = ca.collective_comm_s / yz.collective_comm_s;
        assert!((0.55..0.8).contains(&r), "collective ratio {r}");
    }

    #[test]
    fn predictions_scale_down_with_more_ranks() {
        let cfg = paper_cfg();
        let model = CostModel::tianhe2();
        let t256 = predict_ca(&cfg, ProcessGrid::yz(32, 8).unwrap(), &model);
        let t1024 = predict_ca(&cfg, ProcessGrid::yz(128, 8).unwrap(), &model);
        assert!(t1024.compute_s < t256.compute_s);
        assert!(t1024.total_s() < t256.total_s());
    }

    #[test]
    fn ladder_is_iteration_aligned_and_tops_out_at_the_block() {
        let cfg = paper_cfg(); // 720 x 360 x 30, M = 3
        let yz = |py, pz| ProcessGrid::yz(py, pz).unwrap();
        // 180-row blocks hold every rung; each fuses the smoothing
        assert_eq!(
            ca_ladder(&cfg, &yz(2, 1)),
            [(1, true, 3), (3, true, 3), (6, true, 3), (9, true, 3)]
        );
        // 30 / 8 = 3 levels a block: nothing above g = 3 fits
        assert_eq!(ca_ladder(&cfg, &yz(16, 8)), [(1, true, 3), (3, true, 3)]);
        // 2-row blocks: g = 1, and the smoothing keeps its own exchange
        assert_eq!(ca_ladder(&cfg, &yz(180, 1)), [(1, false, 2)]);
        assert_eq!(ca_ladder(&cfg, &ProcessGrid::serial()).len(), 4);
    }

    #[test]
    fn the_pick_is_a_rung_and_follows_the_machine() {
        let paper = paper_cfg();
        let small = ModelConfig {
            ny: 24,
            ..ModelConfig::test_medium()
        };
        let yz = |py, pz| ProcessGrid::yz(py, pz).unwrap();
        let top = |cfg: &ModelConfig, pg: &ProcessGrid| *ca_ladder(cfg, pg).last().unwrap();
        for (cfg, pg) in [
            (&paper, yz(2, 1)),
            (&paper, yz(16, 8)),
            (&paper, yz(128, 8)),
            (&paper, yz(180, 1)),
            (&small, yz(2, 1)),
            (&small, yz(4, 1)),
            (&small, ProcessGrid::serial()),
        ] {
            let ladder = ca_ladder(cfg, &pg);
            assert!(ladder.contains(&ca_group_size(cfg, &pg)), "{pg:?}");
            assert!(ladder.contains(&ca_pick(cfg, &pg, &CostModel::tianhe2())));
            // a free network buys no redundant sweep (one rank has none)
            let ideal = ca_pick(cfg, &pg, &CostModel::ideal_network());
            let want = if pg.size() == 1 { top(cfg, &pg).0 } else { 1 };
            assert_eq!(ideal.0, want, "{pg:?}");
        }
        // 2.2 ms of skew a round: the paper's machine takes the deepest halo
        // that fits at every rank count the paper ran (z blocks of 3 levels
        // cap it at g = 3), and the full 3M where a rank's redundant rows
        // are cheap against a round — not at p = 2 on its own mesh, where
        // 27 more row-sweeps of a 720 x 30 slab cost two rounds twice over
        let tianhe2 = CostModel::tianhe2();
        for pg in [yz(16, 8), yz(32, 8), yz(64, 8), yz(128, 8)] {
            assert_eq!(ca_pick(&paper, &pg, &tianhe2), top(&paper, &pg), "{pg:?}");
        }
        assert_eq!(ca_pick(&small, &yz(2, 1), &tianhe2), (9, true, 3));
        assert_eq!(ca_pick(&paper, &yz(2, 1), &tianhe2), (3, true, 3));
        // the bench host: rounds cost tens of microseconds, and a shallow
        // group is worth its few redundant rows on the L2-resident mesh
        assert_eq!(ca_group_size(&small, &yz(2, 1)), (3, true, 3));
    }

    #[test]
    fn scaling_chart_finds_paper_crossover() {
        // under the Tianhe-2 calibration CA wins everywhere in the paper's
        // range, so the crossover is the first charted rank count
        let cfg = paper_cfg();
        let model = CostModel::tianhe2();
        let grid = |p: usize, alg: AlgKind| match alg {
            AlgKind::OriginalXY => ProcessGrid::xy(16, p / 16).expect("xy"),
            _ => ProcessGrid::yz(p / 8, 8).expect("yz"),
        };
        let chart = scaling_chart(
            &cfg,
            AlgKind::OriginalYZ,
            &[128, 256, 512, 1024],
            grid,
            &model,
        );
        assert_eq!(chart.len(), 4);
        assert!(chart.iter().all(|pt| pt.speedup() > 1.0));
        assert_eq!(crossover_rank(&chart), Some(128));
    }

    #[test]
    fn crossover_rank_respects_late_losses() {
        let pt = |p, baseline_s, ca_s| ScalingPoint {
            p,
            baseline_s,
            ca_s,
        };
        // CA loses at 128, wins from 256 on: crossover at 256
        let chart = [pt(128, 1.0, 1.2), pt(256, 1.0, 0.9), pt(512, 1.0, 0.7)];
        assert_eq!(crossover_rank(&chart), Some(256));
        // a relapse at 512 pushes the crossover past it
        let chart = [pt(128, 1.0, 0.9), pt(256, 1.0, 0.8), pt(512, 1.0, 1.1)];
        assert_eq!(crossover_rank(&chart), None);
        // baseline never beaten: first charted p
        let chart = [pt(128, 1.0, 0.5), pt(256, 1.0, 0.4)];
        assert_eq!(crossover_rank(&chart), Some(128));
        assert_eq!(crossover_rank(&[]), None);
    }
}
