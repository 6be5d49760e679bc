//! The statically certified communication counts must be *invariant*
//! under deterministic fault injection: a delay holds a message back and
//! releases it out of order, a stall pauses a rank, but the logical
//! traffic of the algorithm — what the schedule graph certifies — must not
//! change.  Each message is still sent once and received once.

use agcm_core::analysis::{AlgKind, CaMode};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;
use agcm_verify::{measure_step_under_faults, rank_counts, ScheduleGraph};

const SEED: u64 = 24473;

fn check_under(spec: &str, alg: AlgKind) {
    let cfg = ModelConfig::test_medium();
    let pg = ProcessGrid::yz(2, 2).unwrap();
    let g = ScheduleGraph::extract(&cfg, alg, CaMode::Grouped, pg).unwrap();
    let stat = rank_counts(&g);
    let meas = measure_step_under_faults(&cfg, alg, pg, SEED, spec).unwrap();
    for (rank, (s, m)) in stat.iter().zip(&meas).enumerate() {
        assert_eq!(
            (s.send_msgs, s.send_elems, s.collectives),
            (m.msgs, m.elems, m.collectives),
            "rank {rank} under '{spec}': static counts diverged from measured"
        );
    }
}

#[test]
fn ca_counts_invariant_under_stall_and_delay() {
    check_under(
        "stall:rank=1,event=30,ms=20;delay:rank=0,user=1,nth=2,k=3;delay:user=1,prob=0.1",
        AlgKind::CommAvoiding,
    );
}

/// Delays on collective tags too: `C`'s z-allgather messages are held and
/// released out of order, and a stall lands inside `C`.
#[test]
fn ca_counts_invariant_under_collective_delay() {
    check_under(
        "delay:prob=0.25,k=2;stall:rank=1,phase=C,nth=1,ms=5",
        AlgKind::CommAvoiding,
    );
}

#[test]
fn alg1_counts_invariant_under_faults() {
    check_under(
        "stall:rank=1,user=1,nth=1,ms=5;delay:user=1,prob=0.2,k=1;delay:prob=0.1,k=2",
        AlgKind::OriginalYZ,
    );
}
