//! Runtime access sanitizer (feature `access-sanitizer`).
//!
//! When the feature is on, every element/row accessor of [`crate::Field3`]
//! (a surface field's too: its level is `k = 0`) and of its row bands
//! ([`crate::band`]) shadow-records the index ranges it touches into a
//! global table, keyed by the field's allocation.
//! Tests register a human name per tracked field, run a kernel, and diff
//! the observed read/write ranges against the kernel's declared
//! `AccessSpec` (the `core::access` registry) — so the declarations the
//! static dataflow proof relies on can never rot relative to the code.
//!
//! The table is process-global and mutex-guarded: recording is *off* until
//! [`enable`] flips it on, so production paths built with the feature (CI
//! sanitizer jobs) pay one relaxed atomic load per accessor call until a
//! test opts in.  This is a debug instrument, not a production feature —
//! the default build does not compile any of it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Inclusive index bounds touched on one field, in the field's own local
/// coordinates (halo indices negative / overflowing, exactly as passed to
/// the accessors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchRange {
    /// Smallest x index touched.
    pub imin: isize,
    /// Largest x index touched.
    pub imax: isize,
    /// Smallest y index touched.
    pub jmin: isize,
    /// Largest y index touched.
    pub jmax: isize,
    /// Smallest z index touched (0 for a surface field).
    pub kmin: isize,
    /// Largest z index touched (0 for a surface field).
    pub kmax: isize,
}

impl TouchRange {
    fn absorb(&mut self, i0: isize, i1: isize, j: isize, k: isize) {
        self.imin = self.imin.min(i0);
        self.imax = self.imax.max(i1);
        self.jmin = self.jmin.min(j);
        self.jmax = self.jmax.max(j);
        self.kmin = self.kmin.min(k);
        self.kmax = self.kmax.max(k);
    }

    fn seed(i0: isize, i1: isize, j: isize, k: isize) -> TouchRange {
        TouchRange {
            imin: i0,
            imax: i1,
            jmin: j,
            jmax: j,
            kmin: k,
            kmax: k,
        }
    }
}

/// Observed accesses of one tracked field.
#[derive(Debug, Clone, Copy, Default)]
pub struct FieldTouches {
    /// Range covered by reads (`get`, `row`), if any.
    pub read: Option<TouchRange>,
    /// Range covered by writes (`set`, `add`, `row_mut`, `row_pair`), if
    /// any.
    pub write: Option<TouchRange>,
}

struct Table {
    /// Allocation key (base pointer) → registered name.
    names: HashMap<usize, String>,
    /// Allocation key → observed ranges.
    touches: HashMap<usize, FieldTouches>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn table() -> &'static Mutex<Table> {
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    TABLE.get_or_init(|| {
        Mutex::new(Table {
            names: HashMap::new(),
            touches: HashMap::new(),
        })
    })
}

/// Start recording accesses of tracked fields.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording (tracked names and collected ranges are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Register a field allocation under `name`.  Accesses to unregistered
/// allocations are ignored, so scratch buffers do not pollute reports.
/// The key is the field's [`sanitizer key`](crate::Field3::sanitizer_key).
pub fn track(key: usize, name: &str) {
    let mut t = table().lock().expect("sanitizer table poisoned");
    t.names.insert(key, name.to_string());
}

/// Drain the collected ranges: returns `(name, touches)` for every tracked
/// field that was accessed while enabled, and clears the collection (names
/// stay registered).
pub fn take_report() -> Vec<(String, FieldTouches)> {
    let mut t = table().lock().expect("sanitizer table poisoned");
    let drained: Vec<(usize, FieldTouches)> = t.touches.drain().collect();
    let mut out: Vec<(String, FieldTouches)> = drained
        .into_iter()
        .filter_map(|(k, v)| t.names.get(&k).map(|n| (n.clone(), v)))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Forget all tracked names and collected ranges.
pub fn reset() {
    let mut t = table().lock().expect("sanitizer table poisoned");
    t.names.clear();
    t.touches.clear();
}

/// Record one access (called from the field accessors; `i0..=i1`
/// inclusive).  No-op unless [`enable`]d and `key` is tracked.
#[inline]
pub fn record(key: usize, write: bool, i0: isize, i1: isize, j: isize, k: isize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let mut t = table().lock().expect("sanitizer table poisoned");
    if !t.names.contains_key(&key) {
        return;
    }
    let entry = t.touches.entry(key).or_default();
    let slot = if write {
        &mut entry.write
    } else {
        &mut entry.read
    };
    match slot {
        Some(r) => r.absorb(i0, i1, j, k),
        None => *slot = Some(TouchRange::seed(i0, i1, j, k)),
    }
}
