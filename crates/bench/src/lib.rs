//! # agcm-bench — the paper's evaluation, regenerated
//!
//! One binary (`figures`) regenerates every table and figure of Xiao et al.
//! (ICPP 2018) §5.  Measured performance is not this crate's business: the
//! end-to-end benchmark and its per-layer ledger live in `benchmark/`
//! (`benchmark/run.sh`, `BENCHMARK.json`).
//!
//! Reproduction strategy (see `DESIGN.md` §2): the executing runtime
//! validates the algorithms and their exact per-rank traffic at small rank
//! counts (`tests/prediction_validation.rs`); the calibrated α–β–γ–sync
//! cost model then evaluates the *same* traffic at the paper's 128–1024
//! ranks.  `EXPERIMENTS.md` records paper-vs-reproduced shapes.

#![forbid(unsafe_code)]
use agcm_comm::CostModel;
use agcm_core::analysis::{ca_pick, predict_step_mode, AlgKind, CaMode, StepCost};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;

/// The rank counts of the paper's evaluation.
pub const PAPER_RANKS: [usize; 4] = [128, 256, 512, 1024];

/// Steps in a 10-model-year run at the configuration's advection step
/// (the paper's benchmark length).
pub fn steps_10_years(cfg: &ModelConfig) -> f64 {
    10.0 * 365.25 * 86400.0 / cfg.dt2
}

/// The Y-Z process grid used for `p` total ranks on the paper mesh
/// (z-direction capped at 8, as `p_z ≤ n_z/2` and powers of two compose).
pub fn yz_grid(p: usize) -> ProcessGrid {
    let pz = 8.min(p / 16).max(2);
    ProcessGrid::yz(p / pz, pz).expect("valid Y-Z grid")
}

/// The X-Y process grid used for `p` total ranks.
pub fn xy_grid(p: usize) -> ProcessGrid {
    let px = 16.min(p / 8).max(2);
    ProcessGrid::xy(px, p / px).expect("valid X-Y grid")
}

/// Predict one step of the given algorithm at `p` ranks on `cfg`; the
/// communication-avoiding algorithm runs the sweep groups the machine
/// `model` would pick for itself (`analysis::ca_pick`).
pub fn predict(cfg: &ModelConfig, alg: AlgKind, p: usize, model: &CostModel) -> StepCost {
    let pg = match alg {
        AlgKind::OriginalXY => xy_grid(p),
        _ => yz_grid(p),
    };
    let mode = if alg == AlgKind::CommAvoiding {
        let (g, fuse, ga) = ca_pick(cfg, &pg, model);
        CaMode::Groups(g, fuse, ga)
    } else {
        CaMode::Grouped
    };
    predict_step_mode(cfg, alg, pg, model, mode)
}

/// As [`predict`] but with the paper-idealized CA accounting (always two
/// full-depth exchanges; see `analysis::CaMode::PaperIdeal`).
pub fn predict_ideal(cfg: &ModelConfig, alg: AlgKind, p: usize, model: &CostModel) -> StepCost {
    let pg = match alg {
        AlgKind::OriginalXY => xy_grid(p),
        _ => yz_grid(p),
    };
    predict_step_mode(cfg, alg, pg, model, CaMode::PaperIdeal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_multiply_to_p() {
        for p in PAPER_RANKS {
            assert_eq!(yz_grid(p).size(), p);
            assert_eq!(xy_grid(p).size(), p);
        }
    }

    #[test]
    fn ten_year_step_count() {
        let cfg = ModelConfig::paper_50km();
        let k = steps_10_years(&cfg);
        assert!((520_000.0..530_000.0).contains(&k), "k = {k}");
    }

    #[test]
    fn headline_claims_reproduce() {
        // the shape assertions the harness prints — checked in CI
        let cfg = ModelConfig::paper_50km();
        let model = CostModel::tianhe2();
        let xy = predict(&cfg, AlgKind::OriginalXY, 512, &model);
        let yz = predict(&cfg, AlgKind::OriginalYZ, 512, &model);
        let ca = predict(&cfg, AlgKind::CommAvoiding, 512, &model);
        // paper: 54% total-runtime reduction vs X-Y at p = 512
        let reduction = 1.0 - ca.total_s() / xy.total_s();
        assert!(
            (0.40..0.70).contains(&reduction),
            "CA-vs-XY reduction {reduction}"
        );
        // paper: 1.4x average vs Y-Z
        let speedup = yz.total_s() / ca.total_s();
        assert!((1.2..1.7).contains(&speedup), "CA-vs-YZ speedup {speedup}");
        // paper: 1.4x collective speedup
        let coll = yz.collective_comm_s / ca.collective_comm_s;
        assert!((1.25..1.7).contains(&coll), "collective speedup {coll}");
        // paper: 3x-6x stencil speedup (3.9 average) — grouped mode lands
        // at the low end, the idealized accounting at the high end
        let st_grouped = yz.stencil_comm_s / ca.stencil_comm_s;
        let cai = predict_ideal(&cfg, AlgKind::CommAvoiding, 512, &model);
        let st_ideal = yz.stencil_comm_s / cai.stencil_comm_s;
        assert!(st_grouped > 2.0, "grouped stencil speedup {st_grouped}");
        assert!(st_ideal > 3.5, "ideal stencil speedup {st_ideal}");
    }
}
