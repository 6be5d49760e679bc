//! Declared-vs-observed footprint certification (feature `access-sanitizer`).
//!
//! Every hot kernel declares its per-field read/write offset boxes in
//! [`agcm_core::access`]; the static dataflow proof in `agcm-verify` trusts
//! those declarations.  These tests close the loop at runtime: the mesh
//! access sanitizer shadow-records the index ranges each kernel *actually*
//! touches, and the observed ranges must sit inside the declared boxes
//! dilated around the compute region — zero diffs, or the declaration (and
//! hence the proof) has rotted relative to the code.
//!
//! Reads of a field the kernel itself writes (e.g. `apply_c` summing the
//! `dp` rows it just produced) are checked against the union of the read
//! and write boxes: self-produced data needs no halo.

#![cfg(feature = "access-sanitizer")]

use agcm_core::access::{self, AccessDir, OffsetBox};
use agcm_core::adaptation::adaptation_tendency;
use agcm_core::advection::advection_tendency;
use agcm_core::boundary;
use agcm_core::config::ModelConfig;
use agcm_core::diag::Diag;
use agcm_core::filterop::{build_filter, filter_state_local};
use agcm_core::forcing::apply_held_suarez;
use agcm_core::serial::{Iteration, SerialModel};
use agcm_core::smoothing::smooth_full;
use agcm_core::stdatm::StandardAtmosphere;
use agcm_core::vertical::{apply_c, ZContext};
use agcm_core::{init, LocalGeometry, Region, State};
use agcm_fft::FilterScratch;
use agcm_mesh::sanitize::{self, FieldTouches, TouchRange};
use agcm_mesh::{Decomposition, HaloWidths, ProcessGrid};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The sanitizer table is process-global; serialise the tests that use it.
fn lock() -> MutexGuard<'static, ()> {
    static L: OnceLock<Mutex<()>> = OnceLock::new();
    L.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn setup() -> (LocalGeometry, StandardAtmosphere, State, Diag) {
    let cfg = ModelConfig::test_small();
    let grid = Arc::new(cfg.grid().unwrap());
    let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
    let geom = LocalGeometry::new(&cfg, Arc::clone(&grid), &d, 0, HaloWidths::uniform(3));
    let sa = StandardAtmosphere::new(&grid);
    let mut state = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
    for k in 0..geom.nz as isize {
        for j in 0..geom.ny as isize {
            for i in 0..geom.nx as isize {
                let x = i as f64 * 0.7 + j as f64 * 0.3 + k as f64 * 0.1;
                state.u.set(i, j, k, 4.0 * x.sin());
                state.v.set(i, j, k, 4.0 * (x * 1.3).cos());
                state.phi.set(i, j, k, 80.0 * (x * 0.6).sin());
            }
        }
    }
    for j in 0..geom.ny as isize {
        for i in 0..geom.nx as isize {
            state.psa.set(i, j, 30.0 * ((i * j) as f64 * 0.05).sin());
        }
    }
    boundary::enforce_pole_v(&mut state, &geom);
    boundary::fill_boundaries(&mut state, &geom);
    let diag = Diag::new(&geom);
    (geom, sa, state, diag)
}

/// Fill `diag` (surface diagnostics + the `C` outputs) with the sanitizer
/// *off*, so only the kernel under test is recorded.
fn prep_diag(
    geom: &LocalGeometry,
    sa: &StandardAtmosphere,
    state: &State,
    diag: &mut Diag,
    region: Region,
) {
    diag.update_surface(geom, sa, state, region.y0 - 1, region.y1 + 1);
    apply_c(geom, sa, state, diag, region, &ZContext::Serial, true).unwrap();
}

fn track_state(state: &State, prefix: &str) {
    sanitize::track(state.u.sanitizer_key(), &format!("{prefix}u"));
    sanitize::track(state.v.sanitizer_key(), &format!("{prefix}v"));
    sanitize::track(state.phi.sanitizer_key(), &format!("{prefix}phi"));
    sanitize::track(state.psa.sanitizer_key(), &format!("{prefix}psa"));
}

fn track_diag(diag: &Diag) {
    sanitize::track(diag.dsa.sanitizer_key(), "dsa");
    sanitize::track(diag.dp.sanitizer_key(), "dp");
    sanitize::track(diag.vsum.sanitizer_key(), "vsum");
    sanitize::track(diag.gw.sanitizer_key(), "gw");
    sanitize::track(diag.phi_p.sanitizer_key(), "phi_p");
}

/// The allowed index box: `region` (always all owned x columns) dilated by
/// the declared offset box.
fn allowed(region: Region, b: &OffsetBox, nx: isize) -> TouchRange {
    TouchRange {
        imin: -(b.xm as isize),
        imax: nx - 1 + b.xp as isize,
        jmin: region.y0 - b.ym as isize,
        jmax: region.y1 - 1 + b.yp as isize,
        kmin: region.z0 - b.zm as isize,
        kmax: region.z1 - 1 + b.zp as isize,
    }
}

fn outside(t: &TouchRange, a: &TouchRange) -> bool {
    t.imin < a.imin
        || t.imax > a.imax
        || t.jmin < a.jmin
        || t.jmax > a.jmax
        || t.kmin < a.kmin
        || t.kmax > a.kmax
}

/// Diff one kernel's sanitizer report against its declared `AccessSpec`.
/// Fields named `out.<f>` are the kernel's output buffer for `<f>`.
/// Returns human-readable violations; the empty vector is certification.
fn footprint_diffs(
    op: &str,
    region: Region,
    nx: isize,
    report: &[(String, FieldTouches)],
) -> Vec<String> {
    let spec = access::spec(op).unwrap_or_else(|| panic!("no AccessSpec for `{op}`"));
    let mut diffs = Vec::new();
    for (name, t) in report {
        let field = name.strip_prefix("out.").unwrap_or(name);
        let rd = spec.access(field, AccessDir::Read);
        let wr = spec.access(field, AccessDir::Write);
        if let Some(got) = t.read {
            // self-produced data (read-back of this kernel's own writes)
            // needs no halo: allow the union of the two declared boxes
            let b = match (rd, wr) {
                (Some(r), Some(w)) => Some(r.bounds.union(&w.bounds)),
                (Some(r), None) => Some(r.bounds),
                (None, Some(w)) => Some(w.bounds),
                (None, None) => None,
            };
            match b {
                None => diffs.push(format!("{op}: undeclared READ of `{name}`: {got:?}")),
                Some(b) => {
                    let a = allowed(region, &b, nx);
                    if outside(&got, &a) {
                        diffs.push(format!(
                            "{op}: READ of `{name}` escapes declared box: got {got:?}, allowed {a:?}"
                        ));
                    }
                }
            }
        }
        if let Some(got) = t.write {
            match wr {
                None => diffs.push(format!("{op}: undeclared WRITE of `{name}`: {got:?}")),
                Some(w) => {
                    let a = allowed(region, &w.bounds, nx);
                    if outside(&got, &a) {
                        diffs.push(format!(
                            "{op}: WRITE of `{name}` escapes declared box: got {got:?}, allowed {a:?}"
                        ));
                    }
                }
            }
        }
    }
    diffs
}

fn assert_certified(op: &str, region: Region, nx: isize) {
    let report = sanitize::take_report();
    assert!(
        !report.is_empty(),
        "{op}: sanitizer recorded nothing — hooks not active?"
    );
    let diffs = footprint_diffs(op, region, nx, &report);
    assert!(
        diffs.is_empty(),
        "{op}: declared-vs-observed footprint diffs:\n  {}",
        diffs.join("\n  ")
    );
}

#[test]
fn adaptation_footprint_matches_declaration() {
    let _g = lock();
    sanitize::reset();
    let (geom, sa, state, mut diag) = setup();
    let region = geom.interior();
    prep_diag(&geom, &sa, &state, &mut diag, region);
    let mut tend = State::new(geom.nx, geom.ny, geom.nz, geom.halo);

    track_state(&state, "");
    track_diag(&diag);
    track_state(&tend, "out.");
    sanitize::enable();
    adaptation_tendency(&geom, &state, &diag, &mut tend, region);
    sanitize::disable();
    assert_certified("adaptation", region, geom.nx as isize);
}

#[test]
fn vertical_c_footprint_matches_declaration() {
    let _g = lock();
    sanitize::reset();
    let (geom, sa, state, mut diag) = setup();
    let region = geom.interior();
    // surface diagnostics are an input contract of `apply_c`, not part of
    // the declared kernel, and its first call sizes `diag.dp` (the tracker
    // keys a field by its allocation): prepare both unrecorded
    prep_diag(&geom, &sa, &state, &mut diag, region);

    track_state(&state, "");
    track_diag(&diag);
    sanitize::enable();
    apply_c(
        &geom,
        &sa,
        &state,
        &mut diag,
        region,
        &ZContext::Serial,
        true,
    )
    .unwrap();
    sanitize::disable();
    assert_certified("vertical.c", region, geom.nx as isize);
}

#[test]
fn advection_footprint_matches_declaration() {
    let _g = lock();
    sanitize::reset();
    let (geom, sa, state, mut diag) = setup();
    let region = geom.interior();
    prep_diag(&geom, &sa, &state, &mut diag, region);
    let mut tend = State::new(geom.nx, geom.ny, geom.nz, geom.halo);

    track_state(&state, "");
    track_diag(&diag);
    track_state(&tend, "out.");
    sanitize::enable();
    advection_tendency(&geom, &state, &diag, &mut tend, region);
    sanitize::disable();
    assert_certified("advection", region, geom.nx as isize);
}

#[test]
fn smoothing_footprint_matches_declaration() {
    let _g = lock();
    sanitize::reset();
    let (geom, _sa, state, _diag) = setup();
    let region = geom.interior();
    let mut dst = State::new(geom.nx, geom.ny, geom.nz, geom.halo);

    track_state(&state, "");
    track_state(&dst, "out.");
    sanitize::enable();
    smooth_full(&geom, 0.1, &state, &mut dst, region);
    sanitize::disable();
    // `smooth.s1` and `smooth.s2` share one declaration; certify against it
    assert_certified("smooth.s1", region, geom.nx as isize);
}

#[test]
fn forcing_footprint_matches_declaration() {
    let _g = lock();
    sanitize::reset();
    let (geom, sa, mut state, mut diag) = setup();
    let region = geom.interior();

    // what `Engine::apply_forcing` runs between the boundary fills: the
    // surface diagnostics on the region's rows, then the relaxation
    track_state(&state, "");
    sanitize::enable();
    diag.update_surface(&geom, &sa, &state, region.y0, region.y1);
    apply_held_suarez(&geom, &sa, &diag, &mut state, region, 600.0);
    sanitize::disable();
    assert_certified("forcing", region, geom.nx as isize);
}

#[test]
fn filter_footprint_matches_declaration() {
    let _g = lock();
    sanitize::reset();
    let (geom, _sa, mut state, _diag) = setup();
    let region = geom.interior();
    let filter = build_filter(&geom, 60.0);
    let mut scratch = FilterScratch::new();

    track_state(&state, "");
    sanitize::enable();
    filter_state_local(&geom, &filter, &mut state, region, &mut scratch);
    sanitize::disable();
    assert_certified("filter", region, geom.nx as isize);
}

/// Full golden step: every access of the prognostic state over a whole
/// `SerialModel::step` (all sweeps, `C` runs, filter, smoothing *and* the
/// boundary maintenance between them) stays inside the planned halo
/// allocation — nothing ever reaches for data the halo plan does not hold.
#[test]
fn full_serial_step_stays_inside_planned_halos() {
    let _g = lock();
    sanitize::reset();
    let cfg = ModelConfig::test_small();
    let mut model = SerialModel::new(&cfg, Iteration::Approximate).unwrap();
    let jet = init::zonal_jet(model.geom(), 30.0);
    model.set_state(&jet);

    let halo = model.geom().halo;
    let (nx, ny, nz) = (
        model.geom().nx as isize,
        model.geom().ny as isize,
        model.geom().nz as isize,
    );
    track_state(&model.state, "");
    sanitize::enable();
    model.step();
    sanitize::disable();

    let alloc3 = TouchRange {
        imin: -(halo.xm as isize),
        imax: nx - 1 + halo.xp as isize,
        jmin: -(halo.ym as isize),
        jmax: ny - 1 + halo.yp as isize,
        kmin: -(halo.zm as isize),
        kmax: nz - 1 + halo.zp as isize,
    };
    let alloc2 = TouchRange {
        kmin: 0,
        kmax: 0,
        ..alloc3
    };
    let report = sanitize::take_report();
    assert!(!report.is_empty(), "step recorded nothing");
    let mut diffs = Vec::new();
    for (name, t) in &report {
        let alloc = if name == "psa" { &alloc2 } else { &alloc3 };
        for (kind, r) in [("READ", t.read), ("WRITE", t.write)] {
            if let Some(got) = r {
                if outside(&got, alloc) {
                    diffs.push(format!(
                        "step: {kind} of `{name}` outside halo allocation: {got:?} vs {alloc:?}"
                    ));
                }
            }
        }
    }
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}

/// Negative control: an over-read outside the declared box must produce a
/// named diff — the certification cannot pass vacuously.
#[test]
fn over_read_is_reported_as_a_diff() {
    let _g = lock();
    sanitize::reset();
    let (geom, _sa, state, _diag) = setup();
    sanitize::track(state.u.sanitizer_key(), "u");
    sanitize::enable();
    // smooth.s1 declares `u` reads at (±2, 0, 0): y = −3 is an over-read
    let _ = state.u.get(-3, -3, 0);
    sanitize::disable();
    let diffs = footprint_diffs(
        "smooth.s1",
        geom.interior(),
        geom.nx as isize,
        &sanitize::take_report(),
    );
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert!(diffs[0].contains("READ of `u`"), "{}", diffs[0]);
}

/// Negative control: touching a field the kernel never declared is a diff.
#[test]
fn undeclared_field_is_reported_as_a_diff() {
    let _g = lock();
    sanitize::reset();
    let (geom, _sa, state, diag) = setup();
    sanitize::track(diag.gw.sanitizer_key(), "gw");
    let _ = &state;
    sanitize::enable();
    let _ = diag.gw.get(0, 0, 0);
    sanitize::disable();
    // the smoothing spec has no `gw` entry at all
    let diffs = footprint_diffs(
        "smooth.s1",
        geom.interior(),
        geom.nx as isize,
        &sanitize::take_report(),
    );
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert!(diffs[0].contains("undeclared READ of `gw`"), "{}", diffs[0]);
}
