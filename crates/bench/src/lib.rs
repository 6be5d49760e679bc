//! # agcm-bench — the paper's evaluation, regenerated
//!
//! One binary (`figures`) regenerates every table and figure of Xiao et al.
//! (ICPP 2018) §5.  Measured performance is not this crate's business: the
//! end-to-end benchmark and its per-layer ledger live in `benchmark/`
//! (`benchmark/run.sh`, `BENCHMARK.json`).
//!
//! Reproduction strategy (see `DESIGN.md` §2): the executing runtime
//! validates the algorithms and their exact per-rank traffic at small rank
//! counts (`tests/prediction_validation.rs`); the cost model
//! (`core::analysis::predict`, under the calibrated `tianhe2` constants)
//! then prices the *same* step program at the paper's 128–1024 ranks.
//! `EXPERIMENTS.md` records paper-vs-reproduced shapes.

#![forbid(unsafe_code)]
use agcm_comm::CostModel;
use agcm_core::analysis::{self, ca_pick, AlgKind, CaMode, Prediction};
use agcm_core::error::ModelError;
use agcm_core::ModelConfig;
use agcm_mesh::{MeshError, ProcessGrid};
use agcm_verify::paper_yz_grid;

/// Steps in a 10-model-year run at the configuration's advection step
/// (the paper's benchmark length).
pub fn steps_10_years(cfg: &ModelConfig) -> f64 {
    10.0 * 365.25 * 86400.0 / cfg.dt2
}

/// The X-Y process grid used for `p` total ranks.
pub fn xy_grid(p: usize) -> Result<ProcessGrid, MeshError> {
    let px = 16.min(p / 8).max(2);
    ProcessGrid::xy(px, p / px)
}

/// One predicted step of `alg` at `p` ranks of `cfg` on its paper grid
/// ([`analysis::predict`]).  The communication-avoiding algorithm runs the
/// sweep groups the machine `model` would pick for itself
/// ([`ca_pick`]), or, with `ideal`, the paper's accounting: always two
/// full-depth exchanges ([`CaMode::PaperIdeal`]).
pub fn paper_step(
    cfg: &ModelConfig,
    alg: AlgKind,
    p: usize,
    ideal: bool,
    model: &CostModel,
) -> Result<Prediction, ModelError> {
    let pg = match alg {
        AlgKind::OriginalXY => xy_grid(p)?,
        _ => paper_yz_grid(p).map_err(ModelError::Config)?,
    };
    let mode = if ideal {
        CaMode::PaperIdeal
    } else {
        let (g, fuse, ga) = ca_pick(cfg, &pg, model);
        CaMode::Groups(g, fuse, ga)
    };
    analysis::predict(cfg, alg, pg, mode, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_verify::PAPER_RANKS;

    #[test]
    fn grids_multiply_to_p() {
        for p in PAPER_RANKS {
            assert_eq!(paper_yz_grid(p).unwrap().size(), p);
            assert_eq!(xy_grid(p).unwrap().size(), p);
        }
        // a rank count the recipe has no grid for is refused, not a panic
        assert!(paper_yz_grid(1).is_err());
        assert!(xy_grid(0).is_err());
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
        let at = |alg, ideal| paper_step(&cfg, alg, 512, ideal, &model).unwrap();
        let xy = at(AlgKind::OriginalXY, false);
        let yz = at(AlgKind::OriginalYZ, false);
        let ca = at(AlgKind::CommAvoiding, false);
        // paper: 54% total-runtime reduction vs X-Y at p = 512
        let reduction = 1.0 - ca.makespan_s / xy.makespan_s;
        assert!(
            (0.40..0.70).contains(&reduction),
            "CA-vs-XY reduction {reduction}"
        );
        // paper: 1.4x average vs Y-Z
        let speedup = yz.makespan_s / ca.makespan_s;
        assert!((1.2..1.7).contains(&speedup), "CA-vs-YZ speedup {speedup}");
        // paper: 1.4x collective speedup
        let coll = yz.path.collective_s / ca.path.collective_s;
        assert!((1.25..1.7).contains(&coll), "collective speedup {coll}");
        // paper: 3x-6x stencil speedup (3.9 average) — grouped mode lands
        // at the low end, the idealized accounting at the high end
        let st_grouped = yz.path.stencil_s() / ca.path.stencil_s();
        let cai = at(AlgKind::CommAvoiding, true);
        let st_ideal = yz.path.stencil_s() / cai.path.stencil_s();
        assert!(st_grouped > 2.0, "grouped stencil speedup {st_grouped}");
        assert!(st_ideal > 3.5, "ideal stencil speedup {st_ideal}");
    }
}
