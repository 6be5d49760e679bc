//! Redistribution acceptance (ISSUE 8): an Algorithm 1 run checkpointed at
//! step `H` and re-decomposed onto a different rank count must continue to
//! step `N` **bitwise identical** to the uninterrupted run — shrink and
//! grow alike.  Also pins the typed rejection of cached-`C` checkpoints,
//! whose approximation state is tied to the old decomposition, and that
//! `assemble` names the rank file it cannot use.

use agcm_comm::Universe;
use agcm_core::init;
use agcm_core::par::{Alg1Model, GlobalState};
use agcm_core::resilience::{
    assemble, checkpoint_path, latest_checkpoint_step, read_checkpoint, redistribute,
    write_checkpoint,
};
use agcm_core::serial::{Iteration, SerialModel};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;
use std::path::PathBuf;

const H: usize = 2; // steps completed before the re-decomposition
const N: usize = 4; // total steps

fn cfg() -> ModelConfig {
    let mut cfg = ModelConfig::test_medium();
    cfg.ny = 24;
    cfg
}

fn yz(p: usize) -> ProcessGrid {
    ProcessGrid::yz(p, 1).unwrap()
}

/// Run Algorithm 1 at `p` ranks to `total` completed steps and gather the
/// global state.  When `restore_from` is set, every rank restores its
/// latest durable checkpoint from that directory instead of using the
/// fresh initial condition; when `ckpt_to` is set, every rank writes a
/// durable checkpoint there upon reaching step `H`.
fn run_alg1(
    p: usize,
    restore_from: Option<PathBuf>,
    ckpt_to: Option<PathBuf>,
    total: usize,
) -> GlobalState {
    let cfg = cfg();
    let results = Universe::run(p, move |comm| {
        let mut m = Alg1Model::new(&cfg, yz(p), comm).unwrap();
        if let Some(dir) = &restore_from {
            let step = latest_checkpoint_step(dir, comm.rank())
                .unwrap()
                .expect("restart checkpoint present");
            let ck = read_checkpoint(&checkpoint_path(dir, comm.rank(), step)).unwrap();
            m.restore(&ck);
        } else {
            let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
            m.set_state(&ic);
        }
        while m.steps < total {
            if let Some(dir) = &ckpt_to {
                if m.steps == H {
                    let ck = m.capture();
                    write_checkpoint(&checkpoint_path(dir, comm.rank(), ck.step), &ck).unwrap();
                }
            }
            m.step(comm).unwrap();
        }
        m.gather_state(comm).unwrap()
    });
    results
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 gathers")
}

fn fresh_dirs(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("agcm_redist_{tag}_{}", std::process::id()));
    let src = base.join("src");
    let dst = base.join("dst");
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&src).unwrap();
    (src, dst)
}

fn resize_roundtrip(tag: &str, p_from: usize, p_to: usize) {
    let (src, dst) = fresh_dirs(tag);
    let gold = run_alg1(p_from, None, Some(src.clone()), N);
    let step = redistribute(&src, &dst, yz(p_from), yz(p_to), cfg().extents()).unwrap();
    assert_eq!(step, H as u64, "restart from the checkpointed step");
    let cont = run_alg1(p_to, Some(dst.clone()), None, N);
    assert_eq!(
        gold.max_abs_diff(&cont),
        0.0,
        "re-decomposed continuation must be bitwise identical"
    );
    std::fs::remove_dir_all(src.parent().unwrap()).ok();
}

#[test]
fn grow_1_to_2_continues_bitwise() {
    resize_roundtrip("grow", 1, 2);
}

#[test]
fn shrink_2_to_1_continues_bitwise() {
    resize_roundtrip("shrink", 2, 1);
}

#[test]
fn grow_2_to_4_continues_bitwise() {
    resize_roundtrip("grow24", 2, 4);
}

#[test]
fn cached_c_checkpoint_is_rejected_typed() {
    let (src, dst) = fresh_dirs("cachedc");
    // the serial approximate variant caches C across steps: its capture
    // carries the trio and must be refused by redistribution
    let cfg = cfg();
    let mut m = SerialModel::new(&cfg, Iteration::Approximate).unwrap();
    let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
    m.set_state(&ic);
    m.run(H);
    let ck = m.capture();
    assert!(ck.c_cached && ck.vsum.is_some(), "test premise");
    write_checkpoint(&checkpoint_path(&src, 0, ck.step), &ck).unwrap();
    let err = redistribute(&src, &dst, yz(1), yz(2), cfg.extents()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("Algorithm 1"), "{err}");
    std::fs::remove_dir_all(src.parent().unwrap()).ok();
}

/// One flipped bit in one rank's file is `InvalidData` naming that file,
/// and a missing file is `NotFound` naming it: a failed run, never a
/// wrong state.
#[test]
fn assemble_names_a_corrupt_or_missing_rank_file() {
    let (src, _) = fresh_dirs("assemble");
    run_alg1(2, None, Some(src.clone()), N);
    let gold = run_alg1(2, None, None, H);
    let at = |rank| checkpoint_path(&src, rank, H as u64);
    let whole = assemble(&src, yz(2), cfg().extents(), H as u64).unwrap();
    assert_eq!(whole.max_abs_diff(&gold), 0.0, "the files hold step H");

    let mut bytes = std::fs::read(at(1)).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(at(1), &bytes).unwrap();
    let err = assemble(&src, yz(2), cfg().extents(), H as u64).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let msg = err.to_string();
    assert!(msg.contains(&at(1).display().to_string()), "{msg}");
    assert!(msg.contains("hash mismatch"), "{msg}");

    std::fs::remove_file(at(0)).unwrap();
    let err = assemble(&src, yz(2), cfg().extents(), H as u64).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
    assert!(
        err.to_string().contains(&at(0).display().to_string()),
        "{err}"
    );
    std::fs::remove_dir_all(src.parent().unwrap()).ok();
}
