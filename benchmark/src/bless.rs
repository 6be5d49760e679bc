//! `agcm-e2e bless`: regenerate `fingerprints.json` from the reference —
//! the plain `SerialModel` at one worker, or, for a z-split workload
//! (whose state equals the serial one only to rounding), the workload's own
//! program.

use crate::fingerprints::{fingerprint, Key, Table};
use crate::model::initial_condition;
use crate::runner::parallel_state;
use crate::workloads::{Mesh, Workload, DEFAULT_SEED, HELD_OUT_SEED, RUN_SECONDS, WORKLOADS};
use crate::{paths, Args};
use agcm_core::par::alg1::GlobalState;
use agcm_core::pool;
use agcm_core::serial::SerialModel;
use std::collections::{BTreeMap, BTreeSet};

/// Fingerprints of the reference of `w` after each of `steps` steps.
fn reference_hashes(
    w: &Workload,
    seed: u64,
    steps: &BTreeSet<usize>,
) -> Result<Vec<(usize, u64)>, String> {
    let cfg = w.mesh.config();
    let checked = |n: usize, gs: &GlobalState| {
        let (hash, finite) = fingerprint(gs);
        if finite {
            Ok((n, hash))
        } else {
            Err(format!(
                "{} {} seed {seed}: state not finite after {n} steps",
                w.mesh.label(),
                w.reference_label()
            ))
        }
    };
    if !w.bitwise_serial() {
        return steps
            .iter()
            .map(|&n| checked(n, &parallel_state(w, &cfg, seed, n)?))
            .collect();
    }
    // one serial run, fingerprinted at every step count wanted
    pool::with_workers(1, || {
        let mut m = SerialModel::new(&cfg, w.alg.iteration()).map_err(|e| e.to_string())?;
        let ic = initial_condition(m.geom(), seed);
        m.set_state(&ic);
        steps
            .iter()
            .map(|&n| {
                m.run(n - m.steps);
                checked(n, &GlobalState::from_serial(&m.state, m.geom()))
            })
            .collect()
    })
}

pub fn main(mut args: Args) -> Result<bool, String> {
    let seeds: Vec<u64> = match args.parsed("--seed")? {
        Some(seed) => vec![seed],
        None => vec![DEFAULT_SEED, HELD_OUT_SEED],
    };
    let force = args.flag("--force");
    args.finish(0)?;

    // one reference per (mesh, reference label), at every step count a
    // workload ends on; the smoke counts only where they are cheap
    let mut wanted: BTreeMap<(&str, &str), (&Workload, BTreeSet<usize>)> = BTreeMap::new();
    for w in &WORKLOADS {
        let slot = wanted
            .entry((w.mesh.label(), w.reference_label()))
            .or_insert_with(|| (w, BTreeSet::new()));
        let c = w.counts_for(RUN_SECONDS, false);
        slot.1.insert(c.warm + c.timed);
        if w.mesh == Mesh::Small {
            let c = w.counts_for(RUN_SECONDS, true);
            slot.1.insert(c.warm + c.timed);
        }
    }

    let path = paths::bench_dir().join("fingerprints.json");
    let mut table = Table::load(&path)?;
    let mut refused = Vec::new();
    for (w, steps) in wanted.into_values() {
        for &seed in &seeds {
            for (n, hash) in reference_hashes(w, seed, &steps)? {
                let key = Key::new(w.mesh, w.reference_label(), n, seed);
                println!("{key:?} 0x{hash:016x}");
                if let Err(e) = table.insert(&key, hash, force) {
                    refused.push(e);
                }
            }
        }
    }
    table.save(&path)?;
    for e in &refused {
        eprintln!("agcm-e2e bless: {e}");
    }
    Ok(refused.is_empty())
}
