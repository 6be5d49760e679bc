//! The dataflow pass proves halo coverage for every feasible schedule at
//! the issue's rank sweep — and refutes deliberately broken ones with
//! counterexamples naming operator, field and uncovered offset.

use agcm_comm::Universe;
use agcm_core::access::{self, AccessDir, AccessSpec, FieldAccess};
use agcm_core::analysis::{ca_group_size, ca_ladder, AlgKind, CaMode};
use agcm_core::par::schedule::{self, StepOp};
use agcm_core::serial::Iteration;
use agcm_core::{Integrator, ModelConfig};
use agcm_mesh::{Axis, ProcessGrid};
use agcm_verify::dataflow::{self, FailureKind};
use agcm_verify::{check_deadlock, check_matching, ScheduleGraph};

fn cfg() -> ModelConfig {
    ModelConfig::paper_50km()
}

/// The issue's rank sweep: p ∈ {1..16} ∪ {64, 256, 1024}.
fn rank_sweep() -> Vec<usize> {
    let mut ps: Vec<usize> = (1..=16).collect();
    ps.extend([64, 256, 1024]);
    ps
}

/// Every Y-Z factorization of `p` a single-hop exchange can serve: blocks
/// must exist (`py ≤ ny`, `pz ≤ nz`) and decomposed y blocks must hold the
/// ±2 smoothing stencil (`ny/py ≥ 2`).
fn feasible_yz(c: &ModelConfig, p: usize) -> Vec<ProcessGrid> {
    let mut grids = Vec::new();
    for py in 1..=p {
        if !p.is_multiple_of(py) {
            continue;
        }
        let pz = p / py;
        if py > c.ny || pz > c.nz {
            continue;
        }
        if py > 1 && c.ny / py < 2 {
            continue;
        }
        if let Ok(g) = ProcessGrid::yz(py, pz) {
            grids.push(g);
        }
    }
    grids
}

/// X-Y factorizations for Algorithm 1: x blocks must hold the ±3 sweep
/// stencil.
fn feasible_xy(c: &ModelConfig, p: usize) -> Vec<ProcessGrid> {
    let mut grids = Vec::new();
    for px in 1..=p {
        if !p.is_multiple_of(px) {
            continue;
        }
        let py = p / px;
        if px > c.nx || py > c.ny {
            continue;
        }
        if px > 1 && c.nx / px < 3 {
            continue;
        }
        if py > 1 && c.ny / py < 2 {
            continue;
        }
        if let Ok(g) = ProcessGrid::xy(px, py) {
            grids.push(g);
        }
    }
    grids
}

#[test]
fn proves_all_schedules_at_issue_rank_sweep() {
    let c = cfg();
    for p in rank_sweep() {
        let yz = feasible_yz(&c, p);
        assert!(!yz.is_empty(), "no feasible Y-Z factorization at p={p}");
        for pg in yz {
            let alg1 = dataflow::check(&c, AlgKind::OriginalYZ, CaMode::Grouped, &pg)
                .unwrap_or_else(|ce| panic!("alg1 p={p} {pg:?}: {ce}"));
            assert!(alg1.computes > 0 && alg1.reads_checked > 0);
            let ca = dataflow::check(&c, AlgKind::CommAvoiding, CaMode::Grouped, &pg)
                .unwrap_or_else(|ce| panic!("alg2 p={p} {pg:?}: {ce}"));
            assert!(ca.computes > 0);
            // the paper's idealized accounting is executable (and hence
            // provable) exactly where the ladder reaches it
            if ca_ladder(&c, &pg).contains(&(3 * c.m_iters, true, 3)) {
                dataflow::check(&c, AlgKind::CommAvoiding, CaMode::PaperIdeal, &pg)
                    .unwrap_or_else(|ce| panic!("ideal p={p} {pg:?}: {ce}"));
            }
        }
        for pg in feasible_xy(&c, p) {
            dataflow::check(&c, AlgKind::OriginalXY, CaMode::Grouped, &pg)
                .unwrap_or_else(|ce| panic!("alg1-XY p={p} {pg:?}: {ce}"));
        }
    }
}

#[test]
fn serial_schedules_prove_trivially_with_no_finite_margin() {
    let c = cfg();
    let pg = ProcessGrid::serial();
    for alg in [AlgKind::OriginalYZ, AlgKind::CommAvoiding] {
        let proof = dataflow::check(&c, alg, CaMode::Grouped, &pg).expect("serial proves");
        assert!(proof.computes > 0);
        // nothing is decomposed: every check is against an unbounded halo
        assert_eq!(proof.min_margin, None, "{alg:?}");
    }
}

/// The ladder's top rung on the paper's p = 128 grid: `g = 3`, fused.
const TOP_16X8: CaMode = CaMode::Groups(3, true, 3);

#[test]
fn grouped_ca_schedule_consumes_its_deep_halo_exactly() {
    let c = cfg();
    let pg = ProcessGrid::yz(16, 8).unwrap();
    assert_eq!(ca_ladder(&c, &pg).last(), Some(&(3, true, 3)));
    let proof = dataflow::check(&c, AlgKind::CommAvoiding, TOP_16X8, &pg).unwrap();
    // some read consumes the shipped depth exactly — no wasted halo layers
    assert_eq!(proof.min_margin, Some(0));
    assert!(proof.collectives_consumed > 0);
}

/// The dataflow pass independently agrees with `analysis::ca_ladder` at
/// every feasible p: every rung proves — the one the cost rule picks among
/// them — and the deepest rung is exactly what the proof accepts: one
/// iteration-aligned group further up, or the same group with a fused
/// smoothing the ladder left unfused, is refuted.  This catches the
/// block-too-small clamp path that count certification alone cannot
/// distinguish.
#[test]
fn agrees_with_ca_group_size_at_every_feasible_p() {
    let c = cfg();
    let m = c.m_iters;
    for p in rank_sweep() {
        for pg in feasible_yz(&c, p) {
            let ladder = ca_ladder(&c, &pg);
            assert!(ladder.contains(&ca_group_size(&c, &pg)), "p={p} {pg:?}");
            for &(g, fuse, ga) in &ladder {
                let ops = schedule::alg2_step_for(&c, &pg, g, fuse, ga);
                dataflow::check_ops(&c, &pg, &ops)
                    .unwrap_or_else(|ce| panic!("rung (g={g}, fuse={fuse}) p={p} {pg:?}: {ce}"));
            }
            let &(g, fuse, ga) = ladder.last().unwrap();
            let next = if g == 1 { 3 } else { g + 3 };
            let mut over = Vec::new();
            if next <= 3 * m {
                over.extend([(next, true), (next, false)]);
            }
            if !fuse {
                over.push((g, true));
            }
            for (lg, lf) in over {
                let ops = schedule::alg2_step_for(&c, &pg, lg, lf, ga);
                let ce = dataflow::check_ops(&c, &pg, &ops).expect_err(&format!(
                    "(g={lg}, fuse={lf}) above the ladder wrongly proves at p={p} {pg:?}"
                ));
                assert_eq!(ce.kind, FailureKind::UncoveredHalo);
                assert!(!ce.field.is_empty());
                assert!(ce.needed > ce.have, "{ce}");
            }
        }
    }
}

#[test]
fn shrunk_deep_halo_yields_named_counterexample() {
    let c = cfg();
    let pg = ProcessGrid::yz(16, 8).unwrap();
    // shrink y by one layer: the later smoothing's ±2 rows fall off
    let mut ops = schedule::alg2_step(&c, &pg, TOP_16X8);
    assert!(dataflow::shrink_exchange(&mut ops, 0, 1, 0));
    let ce = dataflow::check_ops(&c, &pg, &ops).expect_err("shrunk y halo must fail");
    assert_eq!(ce.kind, FailureKind::UncoveredHalo);
    assert_eq!(ce.axis, Axis::Y);
    assert!(ce.needed == ce.have + 1, "{ce}");
    assert!(ce.operator.contains("smooth") || ce.operator.contains("adaptation"));
    let msg = format!("{ce}");
    assert!(msg.contains(ce.field), "message names the field: {msg}");

    // shrink z by one layer: the first sub-update's g_w interface read
    // outruns the halo
    let mut ops = schedule::alg2_step(&c, &pg, TOP_16X8);
    assert!(dataflow::shrink_exchange(&mut ops, 0, 0, 1));
    let ce = dataflow::check_ops(&c, &pg, &ops).expect_err("shrunk z halo must fail");
    assert_eq!(ce.kind, FailureKind::UncoveredHalo);
    assert_eq!(ce.axis, Axis::Z);
    // the later smoothing's frame also dilates g levels in z, so it (or
    // the first adaptation sub-update) trips first
    assert!(
        ce.operator.contains("smooth") || ce.operator.contains("adaptation"),
        "{ce}"
    );
}

#[test]
fn over_fused_group_yields_counterexample() {
    let c = cfg();
    // bz = 26/8 = 3 clamps g to 3; force a 6-sweep group anyway
    let pg = ProcessGrid::yz(16, 8).unwrap();
    let &(g, _, ga) = ca_ladder(&c, &pg).last().unwrap();
    assert_eq!(g, 3);
    let ops = schedule::alg2_step_for(&c, &pg, 6, true, ga);
    let ce = dataflow::check_ops(&c, &pg, &ops).expect_err("over-fused group must fail");
    assert_eq!(ce.kind, FailureKind::UncoveredHalo);
    assert_eq!(ce.axis, Axis::Z, "{ce}");
    assert!(ce.needed > ce.have);

    // without fused smoothing the first uncovered read is the adaptation
    // sweep itself, dilated past the z block
    let ops = schedule::alg2_step_for(&c, &pg, 6, false, ga);
    let ce = dataflow::check_ops(&c, &pg, &ops).expect_err("over-fused group must fail");
    assert_eq!(ce.kind, FailureKind::UncoveredHalo);
    assert_eq!(ce.axis, Axis::Z, "{ce}");
    assert!(ce.operator.contains("adaptation"), "{ce}");
    assert!(ce.needed > ce.have);
}

#[test]
fn dropped_collective_with_live_reads_yields_counterexample() {
    let c = cfg();
    let pg = ProcessGrid::yz(16, 8).unwrap();
    let mut ops = schedule::alg2_step(&c, &pg, CaMode::Grouped);
    assert!(dataflow::drop_collective(&mut ops, 0));
    let ce = dataflow::check_ops(&c, &pg, &ops).expect_err("dropped collective must fail");
    assert_eq!(ce.kind, FailureKind::MissingCollective);
    assert!(ce.operator.contains("vertical.C"), "{ce}");
    assert!(!ce.field.is_empty());
    let msg = format!("{ce}");
    assert!(msg.contains("z-allgather"), "{msg}");

    // Algorithm 1 runs C fresh in every sub-update: same detection
    let mut ops = schedule::alg1_step(&c, &pg);
    assert!(dataflow::drop_collective(&mut ops, 0));
    let ce = dataflow::check_ops(&c, &pg, &ops).expect_err("alg1 dropped collective");
    assert_eq!(ce.kind, FailureKind::MissingCollective);
}

#[test]
fn all_collectives_are_consumed_by_fresh_c_runs() {
    let c = cfg();
    let pg = ProcessGrid::yz(16, 8).unwrap();
    for (alg, expect) in [
        (AlgKind::OriginalYZ, 3 * c.m_iters),
        (AlgKind::CommAvoiding, 2 * c.m_iters),
    ] {
        let ops = match alg {
            AlgKind::CommAvoiding => schedule::alg2_step(&c, &pg, CaMode::Grouped),
            _ => schedule::alg1_step(&c, &pg),
        };
        let n_allgathers = ops
            .iter()
            .filter(|o| matches!(o, StepOp::ZAllgather))
            .count();
        let proof = dataflow::check_ops(&c, &pg, &ops).unwrap();
        assert_eq!(proof.collectives_consumed, n_allgathers, "{alg:?}");
        assert_eq!(proof.collectives_consumed, expect, "{alg:?}");
    }
}

/// Every schedule emits the certified fused kernel keys — one sub-update
/// sweep serves the local and the distributed filter — and the proof
/// resolves them through their own registry entries.
#[test]
fn schedules_emit_certified_fused_ops() {
    let c = cfg();
    for (pg, ops) in [
        {
            let pg = ProcessGrid::yz(1, 1).unwrap();
            (pg, schedule::alg2_step(&c, &pg, CaMode::Grouped))
        },
        {
            let pg = ProcessGrid::xy(4, 2).unwrap();
            (pg, schedule::alg1_step(&c, &pg))
        },
    ] {
        let sweeps: Vec<&str> = ops
            .iter()
            .filter_map(|o| match o {
                StepOp::Compute(k) if k.sub > 0 => Some(k.op),
                _ => None,
            })
            .collect();
        assert_eq!(sweeps.len(), 3 * c.m_iters + 3);
        assert!(
            sweeps.iter().all(|op| op.ends_with(".fused")),
            "every sub-update is the fused sweep: {sweeps:?}"
        );
        dataflow::check_ops(&c, &pg, &ops).expect("fused ops certify via their registry entries");
    }
}

/// An over-fused pair the registry never certified must be refuted with a
/// named counterexample — not silently run with an unproved footprint.
#[test]
fn uncertified_fused_op_yields_named_counterexample() {
    let c = cfg();
    let pg = ProcessGrid::yz(1, 1).unwrap();
    let mut ops = schedule::alg2_step(&c, &pg, CaMode::Grouped);
    let idx = ops
        .iter()
        .position(|o| matches!(o, StepOp::Compute(k) if k.op == "adaptation.fused"))
        .expect("serial schedule emits fused adaptation");
    if let StepOp::Compute(k) = &mut ops[idx] {
        // fuse one sub-sweep too many: no registry entry certifies the
        // combined footprint of adaptation + smoothing in one pass
        k.op = "adaptation.fused.smooth";
    }
    let ce = dataflow::check_ops(&c, &pg, &ops).expect_err("uncertified fused op must fail");
    assert_eq!(ce.kind, FailureKind::UnregisteredOp);
    assert_eq!(ce.op_index, idx);
    assert!(ce.operator.contains("adaptation.fused.smooth"), "{ce}");
    let msg = format!("{ce}");
    assert!(msg.contains("not in the access registry"), "{msg}");
}

/// `vertical.c` as registered but without its write of `field`, every other
/// kernel as registered.
fn c_without_write_of(field: &str) -> impl Fn(&str) -> Option<&'static AccessSpec> {
    let c = access::spec("vertical.c").expect("vertical.c registered");
    let fields: Vec<FieldAccess> = (c.fields.iter())
        .filter(|a| !(a.field == field && a.dir == AccessDir::Write))
        .copied()
        .collect();
    assert_eq!(fields.len() + 1, c.fields.len(), "C writes `{field}` once");
    let broken: &'static AccessSpec = Box::leak(Box::new(AccessSpec {
        op: c.op,
        fields: Box::leak(fields.into_boxed_slice()),
    }));
    move |op| {
        if op == broken.op {
            Some(broken)
        } else {
            access::spec(op)
        }
    }
}

/// `φ'` and `D(P)` are scratch in the rows of a fresh sub-update's output:
/// a `C` declared without its write of either leaves the sweep reading
/// whatever the output held, and the proof refuses it — also on one rank,
/// where no halo is short.  The registry as it stands proves the same
/// programs.
#[test]
fn scratch_read_without_c_write_yields_named_counterexample() {
    let c = cfg();
    for (pg, ops) in [
        (
            ProcessGrid::serial(),
            schedule::alg1_step(&c, &ProcessGrid::serial()),
        ),
        (
            ProcessGrid::yz(2, 1).unwrap(),
            schedule::alg1_step(&c, &ProcessGrid::yz(2, 1).unwrap()),
        ),
        (
            ProcessGrid::yz(2, 1).unwrap(),
            schedule::alg2_step(&c, &ProcessGrid::yz(2, 1).unwrap(), CaMode::Grouped),
        ),
    ] {
        dataflow::check_ops(&c, &pg, &ops).expect("the registry proves the program");
        for (field, component) in [("phi_p", "u"), ("dp", "phi")] {
            let read = access::spec("adaptation.fused")
                .and_then(|s| s.access(field, AccessDir::Read))
                .expect("the fused sweep reads it");
            assert_eq!(
                read.in_out,
                Some(component),
                "{field} rides in out.{component}"
            );
            let specs = c_without_write_of(field);
            let ce = dataflow::check_ops_with(&c, &pg, &ops, &specs)
                .expect_err("a scratch read C never wrote must fail");
            assert_eq!(ce.kind, FailureKind::UnwrittenScratch, "{ce}");
            assert_eq!(ce.field, field);
            assert!(ce.operator.contains("adaptation.fused"), "{ce}");
            let msg = format!("{ce}");
            assert!(msg.contains("reads scratch"), "{msg}");
        }
    }
}

/// Which program a live integrator is built to run.
#[derive(Clone, Copy, Debug)]
enum Program {
    Serial(Iteration),
    Alg1,
    Alg2((usize, bool, usize)),
}

/// Build the integrator on every rank of `pg` and hand back the program it
/// will walk — the object itself, not a schedule generated beside it.
fn live_program(c: &ModelConfig, pg: ProcessGrid, which: Program) -> Vec<StepOp> {
    if let Program::Serial(variant) = which {
        return Integrator::serial(c, variant).unwrap().program().to_vec();
    }
    let c = c.clone();
    let mut programs = Universe::run(pg.size(), move |comm| {
        let m = match which {
            Program::Alg2(groups) => Integrator::alg2(&c, pg, comm, groups),
            _ => Integrator::alg1(&c, pg, comm),
        };
        m.unwrap().program().to_vec()
    });
    let first = programs.swap_remove(0);
    assert!(programs.iter().all(|p| *p == first), "SPMD: one program");
    first
}

/// Matching, the deadlock proof and the halo-coverage proof on `ops`;
/// returns the exchanges and collectives a step of it performs.
fn certify(c: &ModelConfig, pg: ProcessGrid, ops: &[StepOp], what: &str) -> (u64, u64) {
    let g = ScheduleGraph::of_program(c, pg, ops).unwrap();
    assert!(check_matching(&g).is_ok(), "{what}: unmatched messages");
    assert!(check_deadlock(&g).is_free(), "{what}: deadlock");
    let proof = dataflow::check_ops(c, &pg, ops).unwrap_or_else(|ce| panic!("{what}: {ce}"));
    // the forcing is a kernel of the stream like any other
    let forcings = ops
        .iter()
        .filter(|o| matches!(o, StepOp::Compute(k) if k.op == "forcing"));
    assert_eq!(forcings.count(), 1, "{what}");
    assert!(proof.computes > 0);
    (g.exchange_ops(), g.collective_ops())
}

/// The proof is about the executing stream: the program of a live model,
/// for the serial reference, Algorithm 1 (Y-Z and X-Y) and every rung of
/// Algorithm 2's ladder, at p ∈ {1, 2, 4}.
#[test]
fn live_models_run_certified_programs() {
    let c = ModelConfig {
        ny: 24,
        ..ModelConfig::test_medium()
    };
    let m = c.m_iters as u64;
    for variant in [Iteration::Exact, Iteration::Approximate] {
        let pg = ProcessGrid::serial();
        let ops = live_program(&c, pg, Program::Serial(variant));
        assert_eq!(certify(&c, pg, &ops, "serial"), (3 * m + 4, 0));
    }
    let mut rungs = 0;
    for p in [1usize, 2, 4] {
        for pg in feasible_yz(&c, p).into_iter().chain(feasible_xy(&c, p)) {
            let what = format!("alg1 {:?}", pg.dims());
            let ops = live_program(&c, pg, Program::Alg1);
            let (exchanges, collectives) = certify(&c, pg, &ops, &what);
            let (px, _, pz) = pg.dims();
            assert_eq!(exchanges, 3 * m + 4, "{what}");
            // 3M z-allgathers, two transposes per filter application
            let want = if pz > 1 { 3 * m } else { 0 } + if px > 1 { 2 * (3 * m + 3) } else { 0 };
            assert_eq!(collectives, want, "{what}");
            if px > 1 {
                continue;
            }
            for groups in ca_ladder(&c, &pg) {
                let what = format!("alg2 {:?} {groups:?}", pg.dims());
                let ops = live_program(&c, pg, Program::Alg2(groups));
                let (exchanges, collectives) = certify(&c, pg, &ops, &what);
                // 3M -> 2M on every rung, 13 -> 2 on the paper's
                assert_eq!(collectives, if pz > 1 { 2 * m } else { 0 }, "{what}");
                if groups == (3 * c.m_iters, true, 3) {
                    assert_eq!(exchanges, 2, "{what}");
                }
                rungs += 1;
            }
        }
    }
    assert!(rungs >= 12, "the ladders were walked: {rungs} rungs");
}

/// A program with one exchange dropped is refused before it could run:
/// the sweep that exchange fed reads a halo nothing filled.
#[test]
fn live_program_with_a_dropped_exchange_is_refused() {
    let c = ModelConfig {
        ny: 24,
        ..ModelConfig::test_medium()
    };
    let pg = ProcessGrid::yz(2, 1).unwrap();
    for which in [Program::Alg1, Program::Alg2((3, true, 3))] {
        let ops = live_program(&c, pg, which);
        let exchanges: Vec<usize> = (0..ops.len())
            .filter(|&i| matches!(ops[i], StepOp::Exchange(_)))
            .collect();
        for &at in &exchanges {
            let mut broken = ops.clone();
            broken.remove(at);
            let ce = dataflow::check_ops(&c, &pg, &broken)
                .expect_err("a dropped exchange must not certify");
            assert_eq!(
                ce.kind,
                FailureKind::UncoveredHalo,
                "{which:?} op {at}: {ce}"
            );
            assert_eq!(ce.axis, Axis::Y, "{ce}");
            assert!(ce.needed > ce.have, "{ce}");
            // the counterexample names the first kernel left uncovered: one
            // at or after the hole
            assert!(ce.op_index >= at, "{ce}");
            assert!(!ce.operator.is_empty() && !ce.field.is_empty(), "{ce}");
        }
    }
}
