//! Step-loop fingerprints: FNV-1a over the bit patterns of the gathered
//! state after [`STEPS`] steps of every integrator on `test_small`.
//!
//! The hashes were generated at the commit *before* the step loops started
//! rotating buffers instead of copying them (PR 14), so they pin the
//! rotation, the aliased sub-update base, the directly emitted midpoint and
//! the sparse tendency state to the copying loops bit for bit — including
//! the X-Y decomposition (distributed filter), which no benchmark workload
//! covers.  Run with `AGCM_PRINT_FINGERPRINTS=1 -- --nocapture` to print
//! the table instead of asserting it (after a deliberate arithmetic change).
//!
//! The second half checks that a checkpoint restored into a *fresh* model
//! continues bitwise like the uninterrupted run: with rotating buffers the
//! model's scratch states hold different stale data after a restore than
//! mid-run, and none of it may be read.  Algorithm 2's checkpoint, with a
//! smoothing pending, takes the trip through the on-disk format, and so do
//! checkpoints in the layout from before the model top and the surface
//! lost their halo plane.

use agcm_comm::Universe;
use agcm_core::init;
use agcm_core::par::{Alg1Model, CaModel, GlobalState};
use agcm_core::resilience::{read_checkpoint, write_checkpoint};
use agcm_core::serial::{Iteration, SerialModel};
use agcm_core::{Checkpoint, ModelConfig};
use agcm_mesh::{Field3, HaloWidths, ProcessGrid};

const STEPS: usize = 3;
const SEED: u64 = 42;

fn fnv1a(gs: &GlobalState) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for field in [&gs.u, &gs.v, &gs.phi, &gs.psa] {
        for v in field.iter() {
            assert!(v.is_finite(), "non-finite state");
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn config(held_suarez: bool) -> ModelConfig {
    ModelConfig {
        held_suarez,
        ..ModelConfig::test_small()
    }
}

fn serial(cfg: &ModelConfig, variant: Iteration, steps: usize) -> GlobalState {
    let mut m = SerialModel::new(cfg, variant).unwrap();
    let ic = init::perturbed_rest(m.geom(), 150.0, 1.0, SEED);
    m.set_state(&ic);
    m.run(steps);
    GlobalState::from_serial(&m.state, m.geom())
}

fn alg1(cfg: &ModelConfig, pgrid: ProcessGrid, steps: usize) -> GlobalState {
    let cfg = cfg.clone();
    let mut out = Universe::run(pgrid.size(), move |comm| {
        let mut m = Alg1Model::new(&cfg, pgrid, comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 150.0, 1.0, SEED);
        m.set_state(&ic);
        m.run(comm, steps).unwrap();
        m.gather_state(comm).unwrap()
    });
    out.remove(0).expect("rank 0 gathers")
}

fn alg2(cfg: &ModelConfig, pgrid: ProcessGrid, steps: usize) -> GlobalState {
    let cfg = cfg.clone();
    let mut out = Universe::run(pgrid.size(), move |comm| {
        let mut m = CaModel::new(&cfg, pgrid, comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 150.0, 1.0, SEED);
        m.set_state(&ic);
        m.run(comm, steps).unwrap();
        m.gather_state(comm).unwrap()
    });
    out.remove(0).expect("rank 0 gathers")
}

#[test]
fn step_loops_hash_to_the_parent_commits_fingerprints() {
    let dry = config(false);
    let hs = config(true);
    let yz = |py, pz| ProcessGrid::yz(py, pz).unwrap();
    let xy = |px, py| ProcessGrid::xy(px, py).unwrap();
    let table: [(&str, GlobalState, u64); 8] = [
        (
            "serial exact",
            serial(&dry, Iteration::Exact, STEPS),
            0x26a3_1582_2d09_8ef1,
        ),
        (
            "serial approximate",
            serial(&dry, Iteration::Approximate, STEPS),
            0xdbb8_0c69_7d6a_5a8e,
        ),
        (
            "serial exact + held-suarez",
            serial(&hs, Iteration::Exact, STEPS),
            0x4e2a_b8ca_d414_2dd0,
        ),
        (
            "alg1 yz(2,1)",
            alg1(&dry, yz(2, 1), STEPS),
            0x26a3_1582_2d09_8ef1,
        ),
        (
            "alg1 yz(1,2)",
            alg1(&dry, yz(1, 2), STEPS),
            0x0941_5c51_2a5a_6df1,
        ),
        (
            "alg1 xy(2,1)",
            alg1(&dry, xy(2, 1), STEPS),
            0x26a3_1582_2d09_8ef1,
        ),
        (
            "alg2 yz(2,1)",
            alg2(&dry, yz(2, 1), STEPS),
            0xdbb8_0c69_7d6a_5a8e,
        ),
        (
            "alg2 yz(2,1) + held-suarez",
            alg2(&hs, yz(2, 1), STEPS),
            0x8072_ecd7_26e7_d0ac,
        ),
    ];
    let print = std::env::var_os("AGCM_PRINT_FINGERPRINTS").is_some();
    for (what, gs, want) in &table {
        assert!(gs.max_abs() > 0.0, "{what}: the run must move the state");
        let got = fnv1a(gs);
        if print {
            println!("{what}: {got:#018x}");
        } else {
            assert_eq!(got, *want, "{what}: got {got:#018x}");
        }
    }
    // without a z split (whose allgather re-associates the column sums)
    // every parallel run is its serial reference, bitwise
    assert_eq!(table[3].2, table[0].2);
    assert_eq!(table[5].2, table[0].2);
    assert_eq!(table[6].2, table[1].2);
}

fn assert_bitwise(a: &GlobalState, b: &GlobalState, what: &str) {
    assert_eq!(fnv1a(a), fnv1a(b), "{what}");
}

#[test]
fn serial_restore_into_a_fresh_model_continues_bitwise() {
    for variant in [Iteration::Exact, Iteration::Approximate] {
        let cfg = config(true);
        let want = serial(&cfg, variant, 4);
        let mut first = SerialModel::new(&cfg, variant).unwrap();
        let ic = init::perturbed_rest(first.geom(), 150.0, 1.0, SEED);
        first.set_state(&ic);
        first.run(2);
        let ck = first.capture();
        let mut second = SerialModel::new(&cfg, variant).unwrap();
        second.restore(&ck);
        assert_eq!(second.steps, 2);
        second.run(2);
        let got = GlobalState::from_serial(&second.state, second.geom());
        assert_bitwise(&got, &want, &format!("serial {variant:?}"));
    }
}

#[test]
fn alg1_restore_into_a_fresh_model_continues_bitwise() {
    let cfg = config(true);
    for pgrid in [
        ProcessGrid::yz(2, 1).unwrap(),
        ProcessGrid::xy(2, 1).unwrap(),
    ] {
        let want = alg1(&cfg, pgrid, 4);
        let cfg = cfg.clone();
        let mut out = Universe::run(pgrid.size(), move |comm| {
            let mut first = Alg1Model::new(&cfg, pgrid, comm).unwrap();
            let ic = init::perturbed_rest(first.geom(), 150.0, 1.0, SEED);
            first.set_state(&ic);
            first.run(comm, 2).unwrap();
            let ck = first.capture();
            let mut second = Alg1Model::new(&cfg, pgrid, comm).unwrap();
            second.restore(&ck);
            second.run(comm, 2).unwrap();
            second.gather_state(comm).unwrap()
        });
        let got = out.remove(0).expect("rank 0 gathers");
        assert_bitwise(&got, &want, &format!("alg1 {:?}", pgrid.dims()));
    }
}

#[test]
fn alg2_restore_into_a_fresh_model_continues_bitwise() {
    let cfg = config(true);
    let pgrid = ProcessGrid::yz(2, 1).unwrap();
    let want = alg2(&cfg, pgrid, 4);
    let mut out = Universe::run(pgrid.size(), move |comm| {
        let mut first = CaModel::new(&cfg, pgrid, comm).unwrap();
        let ic = init::perturbed_rest(first.geom(), 150.0, 1.0, SEED);
        first.set_state(&ic);
        // no `finish`: the checkpoint carries the deferred smoothing
        for _ in 0..2 {
            first.step(comm).unwrap();
        }
        let ck = first.capture();
        assert!(ck.pending_smooth);
        // through the on-disk format: the pending smoothing must survive it
        let path = std::env::temp_dir().join(format!(
            "agcm_fingerprint_alg2_{}_rank{}.agcmckpt",
            std::process::id(),
            comm.rank()
        ));
        write_checkpoint(&path, &ck).unwrap();
        let back = read_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, ck, "disk round-trip must be bitwise");
        let mut second = CaModel::new(&cfg, pgrid, comm).unwrap();
        second.restore(&back);
        second.run(comm, 2).unwrap();
        second.gather_state(comm).unwrap()
    });
    let got = out.remove(0).expect("rank 0 gathers");
    assert_bitwise(&got, &want, "alg2 yz(2,1)");
}

/// `f` in the layout from before the model top and the surface lost their
/// halo plane: one z plane past each side of a 3-D array that has none,
/// NaN there, so a restore that read it would show.
fn with_old_z_halo(f: &Field3) -> Field3 {
    let (nx, ny, nz) = f.extents();
    if nz == 1 {
        // a surface field never had a z halo
        return f.clone();
    }
    let h = f.halo();
    let old_halo = HaloWidths {
        zm: h.zm.max(1),
        zp: h.zp.max(1),
        ..h
    };
    let mut old = Field3::new(nx, ny, nz, old_halo);
    old.fill(f64::NAN);
    old.assign_common(f);
    old
}

fn old_layout(ck: &Checkpoint) -> Checkpoint {
    let mut old = ck.clone();
    for (f, new) in old.state.fields_mut().into_iter().zip(ck.state.fields()) {
        *f = with_old_z_halo(new);
    }
    old.gw = ck.gw.as_ref().map(with_old_z_halo);
    old.phi_p = ck.phi_p.as_ref().map(with_old_z_halo);
    old
}

/// Every point `new` stores holds the same bits at its index in `old`.
fn assert_held_by(new: &Field3, old: &Field3, what: &str) {
    let (nx, ny, nz) = new.extents();
    let h = new.halo();
    let (x0, x1) = (-(h.xm as isize), (nx + h.xp) as isize);
    for k in -(h.zm as isize)..(nz + h.zp) as isize {
        for j in -(h.ym as isize)..(ny + h.yp) as isize {
            let bits = |f: &Field3| {
                f.row(x0, x1, j, k)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(new), bits(old), "{what}: row {j}, level {k}");
        }
    }
}

/// Through the file: the old layout restores into the new one and the run
/// continues bitwise, and every value of the new layout is held at its
/// index by the old one (whose extra planes the old model refilled from
/// the boundary level before any read).
fn across_layouts(ck: &Checkpoint, tag: &str) -> Checkpoint {
    let old = old_layout(ck);
    for (new, o) in ck.state.fields().into_iter().zip(old.state.fields()) {
        assert_held_by(new, o, tag);
    }
    for (new, o) in [(&ck.gw, &old.gw), (&ck.phi_p, &old.phi_p)] {
        if let (Some(new), Some(o)) = (new, o) {
            assert_held_by(new, o, tag);
        }
    }
    let path = std::env::temp_dir().join(format!(
        "agcm_fingerprint_old_layout_{}_{tag}.agcmckpt",
        std::process::id()
    ));
    write_checkpoint(&path, &old).unwrap();
    let back = read_checkpoint(&path).unwrap();
    std::fs::remove_file(&path).ok();
    back
}

#[test]
fn checkpoints_restore_across_the_z_halo_layout_change() {
    let cfg = config(true);
    for variant in [Iteration::Exact, Iteration::Approximate] {
        let want = serial(&cfg, variant, 4);
        let mut first = SerialModel::new(&cfg, variant).unwrap();
        let ic = init::perturbed_rest(first.geom(), 150.0, 1.0, SEED);
        first.set_state(&ic);
        first.run(2);
        let ck = first.capture();
        let h = ck.state.u.halo();
        assert_eq!((h.zm, h.zp), (0, 0), "a serial model stores no z halo");
        let back = across_layouts(&ck, &format!("serial_{variant:?}"));
        assert_eq!(back.state.u.halo().zm, 1);
        let mut second = SerialModel::new(&cfg, variant).unwrap();
        second.restore(&back);
        second.run(2);
        let got = GlobalState::from_serial(&second.state, second.geom());
        assert_bitwise(
            &got,
            &want,
            &format!("serial {variant:?} from the old layout"),
        );
    }
    // a z split: the top rank keeps the plane it receives from below and
    // gains one above, the surface rank the reverse
    let pgrid = ProcessGrid::yz(1, 2).unwrap();
    let want = alg1(&cfg, pgrid, 4);
    let mut out = Universe::run(pgrid.size(), move |comm| {
        let mut first = Alg1Model::new(&cfg, pgrid, comm).unwrap();
        let ic = init::perturbed_rest(first.geom(), 150.0, 1.0, SEED);
        first.set_state(&ic);
        first.run(comm, 2).unwrap();
        let ck = first.capture();
        let h = ck.state.phi.halo();
        assert_eq!(h.zm + h.zp, 1, "one side faces a neighbour, one a boundary");
        let back = across_layouts(&ck, &format!("alg1_yz12_rank{}", comm.rank()));
        let mut second = Alg1Model::new(&cfg, pgrid, comm).unwrap();
        second.restore(&back);
        second.run(comm, 2).unwrap();
        second.gather_state(comm).unwrap()
    });
    let got = out.remove(0).expect("rank 0 gathers");
    assert_bitwise(&got, &want, "alg1 yz(1,2) from the old layout");
}
