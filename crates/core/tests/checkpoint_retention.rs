//! Checkpoint retention under chaos (ISSUE 10): a property test of
//! `prune_checkpoints` against a model under interleaved ranks/epochs, and
//! the shrink-then-rollback regression the soak harness exposed — deriving
//! retention from the *current* world size lets a shrink's survivors prune
//! the hand-off files a straggling replacement still rolls back to.

use agcm_core::{
    checkpoint_path, latest_checkpoint_step, list_checkpoints, prune_checkpoints, resize_retention,
    restore_step,
};
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

/// splitmix64 — deterministic case generator for the property loop.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agcm-ckpt-ret-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Touch an (empty) file under the canonical checkpoint name — retention
/// and discovery are name-driven, contents are irrelevant to them.
fn touch(dir: &std::path::Path, rank: usize, step: u64) {
    fs::write(checkpoint_path(dir, rank, step), b"").expect("touch checkpoint");
}

fn on_disk(dir: &std::path::Path, rank: usize) -> BTreeSet<u64> {
    list_checkpoints(dir, rank)
        .expect("list")
        .into_iter()
        .map(|(s, _)| s)
        .collect()
}

/// Property: after any interleaving of per-rank writes and prunes across a
/// world, each rank's surviving files are exactly its `keep` newest steps,
/// prunes never touch another rank's files (or non-checkpoint files), and
/// `keep == 0` never removes anything.
#[test]
fn prune_property_interleaved_ranks_and_epochs() {
    for case in 0..16u64 {
        let mut rng = Rng::new(0x50AC + case);
        let p = 2 + rng.below(5) as usize; // 2..=6 ranks
        let dir = scratch(&format!("prop{case}"));
        // non-checkpoint debris prune must never touch: a tmp leftover and
        // an incarnation's record sharing the directory
        fs::write(dir.join("rank0000_step00000001.agcmckpt.tmp"), b"x").unwrap();
        fs::write(dir.join("record.rank0000.epoch00000002.bin"), b"x").unwrap();

        let mut model: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); p];
        let mut step = vec![0u64; p]; // per-rank step cursors (epoch skew)
        for _ in 0..120 {
            let rank = rng.below(p as u64) as usize;
            if rng.below(4) < 3 {
                // advance this rank by a small skew and write a checkpoint
                step[rank] += 1 + rng.below(3);
                touch(&dir, rank, step[rank]);
                model[rank].insert(step[rank]);
            } else {
                let keep = rng.below(6) as usize; // 0 disables pruning
                let pruned = prune_checkpoints(&dir, rank, keep).expect("prune");
                if keep == 0 {
                    assert_eq!(pruned, 0, "keep=0 must not remove anything");
                } else {
                    let expect_pruned = model[rank].len().saturating_sub(keep);
                    assert_eq!(pruned, expect_pruned, "case {case}: pruned count");
                    let survivors: BTreeSet<u64> =
                        model[rank].iter().rev().take(keep).copied().collect();
                    model[rank] = survivors;
                }
            }
            // full-world invariant after every operation: disk == model,
            // newest survivor is the latest step, debris untouched
            for (r, want) in model.iter().enumerate() {
                assert_eq!(&on_disk(&dir, r), want, "case {case}: rank {r} files");
                assert_eq!(
                    latest_checkpoint_step(&dir, r).expect("latest"),
                    want.iter().next_back().copied(),
                    "case {case}: rank {r} latest"
                );
            }
            assert!(dir.join("rank0000_step00000001.agcmckpt.tmp").exists());
            assert!(dir.join("record.rank0000.epoch00000002.bin").exists());
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Regression (failing before the `resize_retention` fix): across a shrink
/// p=4 → p′=2 the phase-2 survivors, pruning with the *current* world's
/// `p′ + 1` budget, delete the re-decomposed hand-off checkpoint while a
/// straggling replacement — lagging by up to the **larger** world's
/// `p - 1` skew — still needs to roll the world back to it.  With
/// retention derived from `max(p, p′) + 1` the rollback target survives
/// the whole skew window.
#[test]
fn shrink_then_rollback_keeps_handoff_under_resize_retention() {
    let (p1, p2, h) = (4usize, 2usize, 8u64);
    let skew = (p1 - 1) as u64; // the larger world's neighbor-lockstep skew

    let run_phase2 = |keep: usize| -> PathBuf {
        let dir = scratch(&format!("shrink-keep{keep}"));
        // redistribute() seeded the phase-2 directory: every p′ rank holds
        // the hand-off step
        for rank in 0..p2 {
            touch(&dir, rank, h);
        }
        // rank 0 races ahead through the skew window, pruning as it goes;
        // rank 1 (the eventual victim's replacement) is still at step h
        for s in h + 1..=h + skew {
            touch(&dir, 0, s);
            prune_checkpoints(&dir, 0, keep).expect("prune");
        }
        dir
    };

    // the step the world agrees to restore, on every rank's disk?
    let agreed_on_every_disk = |dir: &PathBuf| {
        let step = restore_step(dir, p2).expect("list").expect("a step");
        (0..p2).all(|rank| checkpoint_path(dir, rank, step).exists())
    };

    // current-world retention (the bug): the hand-off file is gone, and the
    // step the recovery agreement names is missing from rank 0's disk
    let old = run_phase2(p2 + 1);
    assert!(
        !checkpoint_path(&old, 0, h).exists(),
        "p'+1 retention was expected to prune the hand-off step (the bug)"
    );
    assert_eq!(restore_step(&old, p2).expect("list"), Some(h));
    assert!(
        !agreed_on_every_disk(&old),
        "p'+1 retention leaves the agreed restart point on every disk"
    );

    // max-world retention (the fix): the hand-off step outlives the whole
    // skew window and remains the world's agreed rollback target
    assert_eq!(resize_retention(p1, p2), p1 + 1);
    assert_eq!(resize_retention(p2, p1), p1 + 1, "direction-independent");
    let fixed = run_phase2(resize_retention(p1, p2));
    assert!(
        checkpoint_path(&fixed, 0, h).exists(),
        "max(p, p')+1 retention must keep the hand-off step"
    );
    assert_eq!(restore_step(&fixed, p2).expect("list"), Some(h));
    assert!(
        agreed_on_every_disk(&fixed),
        "the agreed step is on every disk"
    );

    let _ = fs::remove_dir_all(&old);
    let _ = fs::remove_dir_all(&fixed);
}
