//! Operator-phase attribution through the observability layer.
//!
//! * Algorithm 2 splits the smoothing operator into S1 (the former part,
//!   fused into the deep exchange and overlapped) and S2 (the later part on
//!   the frame strips) — the trace must report them as *separate* operator
//!   spans (§4.3.2).
//! * The approximate nonlinear iteration cuts the vertical collectives from
//!   `3M` to `2M` per step (§4.2.2) — visible through the phase-tagged
//!   collective-event log: every z-allgather carries `Phase::C`.
//! * Algorithm 2 splits the advection sweep that overlaps its exchange; it
//!   does not repeat it.  The step opens the operator spans of Algorithm 1
//!   plus one strip per neighbour-facing side, and none for a side on a
//!   pole, the model top or the surface.

use agcm_comm::Universe;
use agcm_core::analysis::ca_ladder;
use agcm_core::init;
use agcm_core::par::{Alg1Model, CaModel};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;
use agcm_obs as obs;

fn cfg_for_ca() -> ModelConfig {
    let mut cfg = ModelConfig::test_medium();
    cfg.m_iters = 1; // deep halo fits the blocks
    cfg
}

#[test]
fn alg2_smoothing_split_reports_s1_and_s2_separately() {
    let _guard = obs::exclusive();
    obs::reset();
    obs::enable();
    let cfg = cfg_for_ca();
    Universe::run(4, move |comm| {
        let mut m = CaModel::new(&cfg, ProcessGrid::yz(2, 2).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 100.0, 1.0, 3);
        m.set_state(&ic);
        m.step(comm).unwrap(); // bootstrap: leaves a smoothing pending
        m.step(comm).unwrap(); // steady state: fused S1 + S2
    });
    obs::disable();
    let events = obs::drain();
    // steady-state step, operator spans only
    let ops: Vec<_> = events
        .iter()
        .filter(|e| e.step == 1 && e.kind == obs::SpanKind::Op)
        .collect();
    let s1: Vec<_> = ops.iter().filter(|e| e.phase == obs::Phase::S1).collect();
    let s2: Vec<_> = ops.iter().filter(|e| e.phase == obs::Phase::S2).collect();
    // one fused smoothing per rank: the former part under S1, the later
    // (edge rows + halo frame) under S2 — distinct phases, distinct sites
    // names before counts: a span leaked in from another test's ranks
    // then fails under its own name
    let names = |spans: &[&&obs::Event]| spans.iter().map(|e| e.name).collect::<Vec<_>>();
    assert_eq!(names(&s1), ["smooth.former"; 4], "one S1 span per rank");
    assert_eq!(names(&s2), ["smooth.later"; 4], "one S2 span per rank");
}

/// Count the phase-`C` collective events of the second (steady-state) step.
fn steady_c_collectives<FMK>(mk: FMK) -> Vec<usize>
where
    FMK: Fn(&mut agcm_comm::Communicator) -> Box<dyn FnMut(&agcm_comm::Communicator)> + Sync,
{
    Universe::run(2, move |comm| {
        comm.stats().set_event_logging(true); // per-event phases need the log
        let mut step = mk(comm);
        step(comm); // warm-up (bootstraps the CA cache)
        let e0 = comm.stats().collective_events().len();
        step(comm);
        comm.stats().collective_events()[e0..]
            .iter()
            .filter(|e| e.phase == obs::Phase::C)
            .count()
    })
}

#[test]
fn vertical_collectives_drop_from_3m_to_2m_in_phase_tags() {
    // the tracer is process-wide: while the test above has it enabled,
    // these ranks' operator spans would land in its drain
    let _guard = obs::exclusive();
    let cfg = cfg_for_ca(); // M = 1
    let m = cfg.m_iters;

    let cfg1 = cfg.clone();
    let alg1 = steady_c_collectives(move |comm| {
        let mut model = Alg1Model::new(&cfg1, ProcessGrid::yz(1, 2).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(model.geom(), 100.0, 0.0, 1);
        model.set_state(&ic);
        Box::new(move |c| model.step(c).unwrap())
    });
    let cfg2 = cfg.clone();
    let alg2 = steady_c_collectives(move |comm| {
        let mut model = CaModel::new(&cfg2, ProcessGrid::yz(1, 2).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(model.geom(), 100.0, 0.0, 1);
        model.set_state(&ic);
        Box::new(move |c| model.step(c).unwrap())
    });

    for &n in &alg1 {
        assert_eq!(n, 3 * m, "Alg 1: 3M z-allgathers per step, all tagged C");
    }
    for &n in &alg2 {
        assert_eq!(n, 2 * m, "Alg 2: 2M — one third of the C collectives cut");
    }
}

/// `(L, F)` operator spans each rank opens in its second (steady-state)
/// step, and the number of its sides that face a neighbour.
fn steady_l_and_f<FMK>(p: usize, mk: FMK) -> Vec<(usize, usize, usize)>
where
    FMK: Fn(&mut agcm_comm::Communicator) -> (usize, Box<dyn FnMut(&agcm_comm::Communicator)>)
        + Sync,
{
    let _guard = obs::exclusive();
    obs::reset();
    obs::enable();
    let sides = Universe::run(p, move |comm| {
        let (sides, mut step) = mk(comm);
        step(comm);
        step(comm);
        sides
    });
    obs::disable();
    let events = obs::drain();
    let count = |rank: usize, phase: obs::Phase| {
        let op = |e: &&obs::Event| e.kind == obs::SpanKind::Op && e.phase == phase;
        let mine = |e: &&obs::Event| e.rank == rank && e.step == 1;
        events.iter().filter(mine).filter(op).count()
    };
    (0..p)
        .map(|r| (count(r, obs::Phase::L), count(r, obs::Phase::F), sides[r]))
        .collect()
}

#[test]
fn alg2_splits_the_overlapped_sweep_on_neighbour_facing_sides_only() {
    let cfg = ModelConfig {
        ny: 24,
        ..ModelConfig::test_medium() // M = 3
    };
    // Algorithm 1: 3 advection sweeps, one span each (the filter span
    // holds the combine of the active rows), 3M + 3 filter applications
    let (l1, f1) = (3, 3 * cfg.m_iters + 3);
    let cfg1 = cfg.clone();
    let alg1 = steady_l_and_f(2, move |comm| {
        let mut m = Alg1Model::new(&cfg1, ProcessGrid::yz(2, 1).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 100.0, 1.0, 3);
        m.set_state(&ic);
        (0, Box::new(move |c| m.step(c).unwrap()))
    });
    assert_eq!(alg1, [(l1, f1, 0); 2]);

    for (py, pz) in [(1, 1), (2, 1), (4, 1), (2, 2)] {
        let pgrid = ProcessGrid::yz(py, pz).unwrap();
        for groups in ca_ladder(&cfg, &pgrid) {
            let cfg2 = cfg.clone();
            let alg2 = steady_l_and_f(py * pz, move |comm| {
                let mut m = CaModel::with_groups(&cfg2, pgrid, comm, groups).unwrap();
                let ic = init::perturbed_rest(m.geom(), 100.0, 1.0, 3);
                m.set_state(&ic);
                let grow = m.geom().grow_sides();
                let sides = [grow.north, grow.south, grow.top, grow.bottom];
                let sides = sides.iter().filter(|&&s| s).count();
                (sides, Box::new(move |c| m.step(c).unwrap()))
            });
            for (rank, &(l, f, sides)) in alg2.iter().enumerate() {
                // one strip a side: its sweep span, its filter span
                let what = format!("yz({py},{pz}) {groups:?} rank {rank}: {sides} side(s)");
                assert_eq!(l, l1 + sides, "L spans, {what}");
                assert_eq!(f, f1 + sides, "F spans, {what}");
            }
        }
    }
}

/// The interpreter opens the spans the three step loops did: one `Step`,
/// `M` `Iter`, the operator spans by phase, and `OverlapCompute` around
/// exactly the parts it hides behind an exchange — the fused former
/// smoothing and the halo-free part of the first advection sweep under
/// Algorithm 2, nothing under Algorithm 1.  The benchmark ledger's
/// `core.dycore.*` rows and `step.self_s_per_step` are sums over these.
#[test]
fn one_walk_opens_the_spans_of_a_step() {
    let cfg = ModelConfig {
        ny: 24,
        ..ModelConfig::test_medium() // M = 3
    };
    let m = cfg.m_iters;
    let pgrid = ProcessGrid::yz(2, 1).unwrap();
    for alg2 in [false, true] {
        let _guard = obs::exclusive();
        obs::reset();
        obs::enable();
        let cfg2 = cfg.clone();
        Universe::run(2, move |comm| {
            let mut model = if alg2 {
                agcm_core::Integrator::alg2(&cfg2, pgrid, comm, (3, true, 3)).unwrap()
            } else {
                agcm_core::Integrator::alg1(&cfg2, pgrid, comm).unwrap()
            };
            let ic = init::perturbed_rest(model.geom(), 100.0, 1.0, 3);
            model.set_state(&ic);
            model.step(Some(comm)).unwrap();
            model.step(Some(comm)).unwrap();
        });
        obs::disable();
        let events = obs::drain();
        for rank in 0..2 {
            let count = |kind: obs::SpanKind, phase: Option<obs::Phase>| {
                let mine = |e: &&obs::Event| e.rank == rank && e.step == 1 && e.kind == kind;
                let of = |e: &&obs::Event| phase.is_none_or(|p| e.phase == p);
                events.iter().filter(mine).filter(of).count()
            };
            let op = |phase| count(obs::SpanKind::Op, Some(phase));
            let what = format!("alg{} rank {rank}", 1 + usize::from(alg2));
            assert_eq!(count(obs::SpanKind::Step, None), 1, "{what}");
            assert_eq!(count(obs::SpanKind::Iter, None), m, "{what}");
            // a sub-update is two A spans: boundary + surface, sweep (its
            // active rows are combined inside the F span)
            assert_eq!(op(obs::Phase::A), 6 * m, "{what}");
            assert_eq!(
                op(obs::Phase::C),
                if alg2 { 2 * m } else { 3 * m },
                "{what}"
            );
            assert_eq!(op(obs::Phase::S1), 1, "{what}");
            assert_eq!(op(obs::Phase::S2), usize::from(alg2), "{what}");
            let (hidden, exchanges) = if alg2 { (2, m + 1) } else { (0, 3 * m + 4) };
            assert_eq!(count(obs::SpanKind::OverlapCompute, None), hidden, "{what}");
            assert_eq!(
                count(obs::SpanKind::ExchangeWait, None),
                exchanges,
                "{what}"
            );
        }
    }
}
