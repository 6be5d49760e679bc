//! Hold-out validation of the cost model's seconds.
//!
//! `prediction_validation.rs` holds the walk's *counts* to the runtime.
//! This file holds what [`agcm_core::analysis::predict`] makes of them under
//! [`CostModel::BENCH_HOST`] to runs it was not fitted to: the ladder
//! EXPERIMENTS.md committed under "One frame per neighbour (PR 20)" — every
//! rung of Algorithm 2 on the benchmark's two `yz(2,1)` cells and the
//! Algorithm 1 twin, median `1 ÷ steps_per_s` of untraced
//! `benchmark/run.sh` runs — and the latency dial's crossover.  The
//! constants come from other rows of the same ledger (per-kernel
//! `ns_per_point`, the ping-pong ladder), never from these step times.
//!
//! Asserted: what `ca_group_size` and the figures rely on.  Printed
//! (`-- --nocapture`): ROADMAP's three figures — rung order, step-time
//! ratio, `α*` ratio — each against its target and the predictor this one
//! replaced.

use agcm_comm::CostModel;
use agcm_core::analysis::{ca_ladder, ca_pick, predict, AlgKind, CaMode, HOLDOUT_ERROR};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;

/// `(g, measured step ms)` per rung, shallowest first.
const SMALL: [(usize, f64); 4] = [(1, 1.076), (3, 0.902), (6, 1.001), (9, 1.112)];
/// The Algorithm 1 twin of `small` (13 exchanges), ms.
const SMALL_ALG1: f64 = 1.170;
const MID: [(usize, f64); 4] = [(1, 90.3), (3, 91.6), (6, 96.0), (9, 97.1)];
/// Added latency at which the two algorithms' measured lines cross, µs
/// (`agcm-run --ranks 2` under `AGCM_FAULT_SPEC=lat:us=N`, extrapolated).
const ALPHA_STAR_US: f64 = -28.0;

fn small() -> ModelConfig {
    ModelConfig {
        ny: 24,
        ..ModelConfig::test_medium()
    }
}

fn mid() -> ModelConfig {
    ModelConfig {
        nx: 180,
        ny: 90,
        ..ModelConfig::paper_50km()
    }
}

fn y2() -> ProcessGrid {
    ProcessGrid::yz(2, 1).unwrap()
}

/// Predicted step of `alg` under the bench host's constants, ms.
fn step_ms(cfg: &ModelConfig, alg: AlgKind, mode: CaMode) -> f64 {
    let p = predict(cfg, alg, y2(), mode, &CostModel::BENCH_HOST).unwrap();
    p.makespan_s * 1e3
}

/// Predicted step of every rung of `measured`, ms.
fn ladder_ms(cfg: &ModelConfig, measured: &[(usize, f64)]) -> Vec<f64> {
    let ladder = ca_ladder(cfg, &y2());
    assert_eq!(ladder.len(), measured.len());
    (ladder.iter().zip(measured))
        .map(|(&(g, fuse, ga), &(want, _))| {
            assert_eq!(g, want, "the fixture lists the ladder's rungs");
            step_ms(cfg, AlgKind::CommAvoiding, CaMode::Groups(g, fuse, ga))
        })
        .collect()
}

/// Index of the least of `xs`.
fn best(xs: impl Iterator<Item = f64>) -> usize {
    let (i, _) = (xs.enumerate())
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("a ladder has a rung");
    i
}

/// Pairs of rungs other than `pick` that prediction and measurement order
/// differently.
fn inversions(predicted: &[f64], measured: &[(usize, f64)], pick: usize) -> usize {
    let rest: Vec<usize> = (0..predicted.len()).filter(|&i| i != pick).collect();
    let pairs = rest.iter().flat_map(|&a| rest.iter().map(move |&b| (a, b)));
    pairs
        .filter(|&(a, b)| a < b)
        .filter(|&(a, b)| (predicted[a] < predicted[b]) != (measured[a].1 < measured[b].1))
        .count()
}

#[test]
fn the_bench_host_model_holds_on_runs_it_was_not_fitted_to() {
    let host = CostModel::BENCH_HOST;
    let mut worst: f64 = 0.0;
    let mut report = |name: &str, predicted: f64, measured: f64| {
        let err = predicted / measured - 1.0;
        println!(
            "  {name:<12} predicted {predicted:>8.3} ms  measured {measured:>8.3} ms  {:+.1} %",
            100.0 * err
        );
        worst = worst.max(err.abs());
    };

    let small_rungs = ladder_ms(&small(), &SMALL);
    let mid_rungs = ladder_ms(&mid(), &MID);
    let mut order = Vec::new();
    let mut on_pick = Vec::new();
    for (label, cfg, measured, predicted) in [
        ("small", small(), SMALL, &small_rungs),
        ("mid", mid(), MID, &mid_rungs),
    ] {
        println!("{label} {:?} yz(2,1):", cfg.extents());
        for (&(g, ms), &p) in measured.iter().zip(predicted) {
            report(&format!("g = {g}"), p, ms);
        }
        // the decision: the rung the model picks is the measured-best one
        let pick = best(predicted.iter().copied());
        assert_eq!(pick, best(measured.iter().map(|m| m.1)), "{label}: pick");
        assert_eq!(ca_pick(&cfg, &y2(), &host).0, measured[pick].0, "{label}");
        order.push(inversions(predicted, &measured, pick));
        on_pick.push(predicted[pick] / measured[pick].1);
    }
    let alg1 = step_ms(&small(), AlgKind::OriginalYZ, CaMode::Grouped);
    report("alg1 twin", alg1, SMALL_ALG1);
    assert!(
        small_rungs.iter().all(|&rung| rung < alg1),
        "the Algorithm 1 twin is measured last, and must be predicted last"
    );
    // what the figures' validation line states
    assert!(worst <= HOLDOUT_ERROR, "hold-out error {worst}");

    // the crossover of the latency dial: thirteen messages a step against
    // the picked rung's four
    let alpha_star_us = (small_rungs[1] - alg1) * 1e3 / (13.0 - 4.0);
    let alpha_ratio = alpha_star_us / ALPHA_STAR_US;

    // ROADMAP item 3's three figures; the predictor this one replaced read
    // 2 of 3 pairs inverted on `small`, 2.2x the step and 2.2x alpha*
    let met = |ok: bool| if ok { "met" } else { "NOT met" };
    println!(
        "rung order below the pick: {} of 3 pairs inverted on small, {} on mid \
         (target: none — {}; replaced predictor: 2, 0)",
        order[0],
        order[1],
        met(order == [0, 0])
    );
    println!(
        "predicted / measured step on the picked rung: {:.2} small, {:.2} mid \
         (target: within 25 % — {}; replaced predictor: 2.23, 1.95)",
        on_pick[0],
        on_pick[1],
        met(on_pick.iter().all(|r| (r - 1.0).abs() <= 0.25))
    );
    println!(
        "alpha*: predicted {alpha_star_us:.1} us, measured {ALPHA_STAR_US} us, ratio {alpha_ratio:.2} \
         (target: within 1.5x — {}; replaced predictor: -61 us, 2.18)",
        met((1.0 / 1.5..=1.5).contains(&alpha_ratio))
    );
    println!("worst hold-out error: {:.1} %", 100.0 * worst);
    // no worse than the predictor it replaced on any of the three
    assert!(order[0] <= 2 && order[1] == 0, "rung order {order:?}");
    assert!(on_pick.iter().all(|r| (1.0 / 2.2..=2.2).contains(r)));
    assert!((1.0 / 2.2..=2.2).contains(&alpha_ratio), "{alpha_ratio}");
}
