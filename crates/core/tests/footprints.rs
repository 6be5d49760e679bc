//! Stencil footprint verification by dependence probing.
//!
//! Tables 1–3 of the paper declare which neighbouring points each operator
//! may read; the halo widths and communication volumes of both algorithms
//! are derived from those declarations, so an implementation reading
//! *outside* its declared footprint would silently corrupt parallel runs.
//! These tests perturb a single input point and assert that the output
//! changes only at points whose declared footprint covers the perturbed
//! point.
//!
//! The z-global couplings (vertical sums/integrals) are charged to the
//! collective operator `C` in the paper's accounting, so the probes freeze
//! the `C` outputs (exactly like the approximate iteration does) and probe
//! the stencil parts.

use agcm_core::adaptation::adaptation_tendency;
use agcm_core::advection::advection_tendency;
use agcm_core::boundary;
use agcm_core::diag::Diag;
use agcm_core::geometry::LocalGeometry;
use agcm_core::smoothing::smooth_full;
use agcm_core::state::State;
use agcm_core::stdatm::StandardAtmosphere;
use agcm_core::tables;
use agcm_core::vertical::{apply_c, ZContext};
use agcm_core::ModelConfig;
use agcm_mesh::{Decomposition, Field3, HaloWidths, ProcessGrid, StencilFootprint};
use std::sync::Arc;

struct Probe {
    geom: LocalGeometry,
    sa: StandardAtmosphere,
}

impl Probe {
    fn new() -> Probe {
        let mut cfg = ModelConfig::test_medium();
        cfg.nx = 24;
        cfg.ny = 18;
        cfg.nz = 10;
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
        let geom = LocalGeometry::new(&cfg, Arc::clone(&grid), &d, 0, HaloWidths::uniform(4));
        let sa = StandardAtmosphere::new(&grid);
        Probe { geom, sa }
    }

    fn base_state(&self) -> State {
        let mut st = State::new(self.geom.nx, self.geom.ny, self.geom.nz, self.geom.halo);
        for k in 0..self.geom.nz as isize {
            for j in 0..self.geom.ny as isize {
                for i in 0..self.geom.nx as isize {
                    let x = (i as f64 * 0.71 + j as f64 * 0.37 + k as f64 * 0.19).sin();
                    st.u.set(i, j, k, 6.0 * x);
                    st.v.set(i, j, k, 3.0 * (x * 1.7).cos());
                    st.phi.set(i, j, k, 25.0 * (x * 0.9).sin());
                }
            }
        }
        for j in 0..self.geom.ny as isize {
            for i in 0..self.geom.nx as isize {
                st.psa
                    .set(i, j, 0, 40.0 * ((i + 2 * j) as f64 * 0.23).sin());
            }
        }
        boundary::enforce_pole_v(&mut st, &self.geom);
        boundary::fill_boundaries(&mut st, &self.geom);
        st
    }

    /// Evaluate `f`'s output for `st`, returning the four tendency arrays.
    fn eval<F>(&self, st: &State, f: &F) -> State
    where
        F: Fn(&LocalGeometry, &StandardAtmosphere, &State, &mut State),
    {
        let mut out = State::new(self.geom.nx, self.geom.ny, self.geom.nz, self.geom.halo);
        f(&self.geom, &self.sa, st, &mut out);
        out
    }

    /// Perturb the 3-D prognostic components at `(qi, qj, qk)` — or, with
    /// `perturb_psa`, the 2-D surface pressure at `(qi, qj)` — and return
    /// all interior offsets `(p − q)` whose output changed.  (`p'_sa` is a
    /// column quantity: it has no z offset, so its probe checks only the
    /// horizontal footprint.)
    fn influence<F>(
        &self,
        f: &F,
        qi: isize,
        qj: isize,
        qk: isize,
        perturb_psa: bool,
    ) -> Vec<(i32, i32, i32)>
    where
        F: Fn(&LocalGeometry, &StandardAtmosphere, &State, &mut State),
    {
        let st0 = self.base_state();
        let out0 = self.eval(&st0, f);
        let mut st1 = st0.clone();
        if perturb_psa {
            st1.psa.add(qi, qj, 0, 2.9);
        } else {
            st1.u.add(qi, qj, qk, 0.37);
            st1.v.add(qi, qj, qk, 0.53);
            st1.phi.add(qi, qj, qk, 1.7);
        }
        boundary::enforce_pole_v(&mut st1, &self.geom);
        boundary::fill_boundaries(&mut st1, &self.geom);
        let out1 = self.eval(&st1, f);
        let mut changed = Vec::new();
        let nx = self.geom.nx as isize;
        for k in 0..self.geom.nz as isize {
            for j in 0..self.geom.ny as isize {
                for i in 0..nx {
                    let d = (out1.u.get(i, j, k) - out0.u.get(i, j, k)).abs()
                        + (out1.v.get(i, j, k) - out0.v.get(i, j, k)).abs()
                        + (out1.phi.get(i, j, k) - out0.phi.get(i, j, k)).abs()
                        + if k == 0 {
                            (out1.psa.get(i, j, 0) - out0.psa.get(i, j, 0)).abs()
                        } else {
                            0.0
                        };
                    if d > 1e-13 {
                        // periodic x distance
                        let mut dx = i - qi;
                        if dx > nx / 2 {
                            dx -= nx;
                        }
                        if dx < -nx / 2 {
                            dx += nx;
                        }
                        changed.push((dx as i32, (j - qj) as i32, (k - qk) as i32));
                    }
                }
            }
        }
        changed
    }

    /// Assert every influenced point is allowed by the declared footprint:
    /// output at `p` may depend on input at `q` iff `(q − p)` is in the
    /// footprint, i.e. the influence offset `(p − q)` negated must be
    /// contained.
    fn assert_within(&self, fp: &StencilFootprint, influences: &[(i32, i32, i32)], what: &str) {
        self.assert_within_opts(fp, influences, what, true)
    }

    /// `check_z = false` for 2-D (column) perturbations.
    fn assert_within_opts(
        &self,
        fp: &StencilFootprint,
        influences: &[(i32, i32, i32)],
        what: &str,
        check_z: bool,
    ) {
        for &(dx, dy, dz) in influences {
            let dz = if check_z { dz } else { 0 };
            assert!(
                fp.contains(-dx, -dy, -dz),
                "{what}: output at offset ({dx},{dy},{dz}) from the perturbed \
                 point implies a read at ({},{},{}) outside the declared \
                 footprint {fp}",
                -dx,
                -dy,
                -dz
            );
        }
        assert!(
            !influences.is_empty(),
            "{what}: probe saw no influence at all"
        );
    }
}

/// The adaptation tendency with `C` outputs frozen at the base state (the
/// z-global parts are the collective's, not the stencil's).
fn adaptation_stencil(geom: &LocalGeometry, sa: &StandardAtmosphere, st: &State, out: &mut State) {
    let region = geom.interior();
    let mut diag = Diag::new(geom);
    // freeze C at the ZERO state: gw = phi_p = vsum = 0 identically, so no
    // dependence flows through them, while dsa/dp/pes/cap_p are live (φ' is
    // sized on first use, like D(P): sized here, zero)
    diag.phi_p = Field3::like(&st.phi);
    diag.update_surface(geom, sa, st, region.y0 - 1, region.y1 + 1);
    diag.update_dsa(geom, st, region.y0, region.y1);
    let mut dp = Field3::like(&st.phi);
    diag.update_dp(geom, st, region, 0, &mut dp);
    diag.dp = dp;
    adaptation_tendency(geom, st, &diag, out, region);
}

fn advection_stencil(geom: &LocalGeometry, sa: &StandardAtmosphere, st: &State, out: &mut State) {
    let region = geom.interior();
    let mut diag = Diag::new(geom);
    diag.update_surface(geom, sa, st, region.y0 - 1, region.y1 + 1);
    // frozen σ̇ = 0: L3's dependence through g_w is the collective's
    advection_tendency(geom, st, &diag, out, region);
}

fn smoothing_op(geom: &LocalGeometry, _sa: &StandardAtmosphere, st: &State, out: &mut State) {
    smooth_full(geom, 0.1, st, out, geom.interior());
}

#[test]
fn adaptation_reads_within_table1() {
    let p = Probe::new();
    let fp = tables::adaptation_union();
    for &(qi, qj, qk) in &[(10, 8, 5), (5, 9, 4), (15, 7, 6)] {
        let inf = p.influence(&adaptation_stencil, qi, qj, qk, false);
        p.assert_within(&fp, &inf, "adaptation (3-D)");
        let inf = p.influence(&adaptation_stencil, qi, qj, qk, true);
        p.assert_within_opts(&fp, &inf, "adaptation (p'_sa)", false);
    }
}

#[test]
fn advection_reads_within_table2() {
    let p = Probe::new();
    let fp = tables::advection_union();
    for &(qi, qj, qk) in &[(10, 8, 5), (6, 10, 4)] {
        let inf = p.influence(&advection_stencil, qi, qj, qk, false);
        p.assert_within(&fp, &inf, "advection (3-D)");
        let inf = p.influence(&advection_stencil, qi, qj, qk, true);
        p.assert_within_opts(&fp, &inf, "advection (p'_sa)", false);
    }
}

#[test]
fn smoothing_reads_within_table3() {
    let p = Probe::new();
    let fp = tables::smoothing_union();
    for &(qi, qj, qk) in &[(10, 8, 5), (12, 9, 2)] {
        let inf = p.influence(&smoothing_op, qi, qj, qk, false);
        p.assert_within(&fp, &inf, "smoothing (3-D)");
        let inf = p.influence(&smoothing_op, qi, qj, qk, true);
        p.assert_within_opts(&fp, &inf, "smoothing (p'_sa)", false);
    }
}

#[test]
fn smoothing_footprint_is_tight_in_x() {
    // the ±2 x-offsets of P₁/P₂ are actually exercised (the declared
    // footprint is attained, not just an upper bound)
    let p = Probe::new();
    let inf = p.influence(&smoothing_op, 10, 8, 5, false);
    assert!(inf.contains(&(2, 0, 0)) && inf.contains(&(-2, 0, 0)));
    assert!(inf.contains(&(0, 2, 0)) && inf.contains(&(0, -2, 0)));
}

#[test]
fn c_outputs_are_z_global_as_charged_to_the_collective() {
    // perturbing one level must influence φ' at (at least) all levels above
    // it and g_w below it — the dependence the paper assigns to `C`
    let p = Probe::new();
    let st0 = p.base_state();
    let region = p.geom.interior();
    let run_c = |st: &State| {
        let mut diag = Diag::new(&p.geom);
        diag.update_surface(&p.geom, &p.sa, st, region.y0 - 1, region.y1 + 1);
        apply_c(
            &p.geom,
            &p.sa,
            st,
            &mut diag,
            region,
            &ZContext::Serial,
            true,
        )
        .unwrap();
        diag
    };
    let d0 = run_c(&st0);
    let mut st1 = st0.clone();
    let (qi, qj, qk) = (10isize, 8isize, 6isize);
    st1.phi.add(qi, qj, qk, 5.0);
    boundary::fill_boundaries(&mut st1, &p.geom);
    let d1 = run_c(&st1);
    // φ' changes at the perturbed level and every level above (hydrostatic
    // integration from the surface upward)
    for k in 0..=qk {
        assert!(
            (d1.phi_p.get(qi, qj, k) - d0.phi_p.get(qi, qj, k)).abs() > 1e-12,
            "φ' at level {k} must feel a Φ perturbation at level {qk}"
        );
    }
    // and not below
    for k in qk + 1..p.geom.nz as isize {
        assert!(
            (d1.phi_p.get(qi, qj, k) - d0.phi_p.get(qi, qj, k)).abs() < 1e-12,
            "φ' below the perturbation must be unaffected"
        );
    }
}
