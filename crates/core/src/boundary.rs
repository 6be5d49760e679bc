//! Physical boundary conditions: poles and vertical caps.
//!
//! The latitude–longitude mesh has no neighbours beyond the poles or beyond
//! the model top/surface.  Halo rows there are filled from a **free-slip
//! wall** condition so that the operator loops can sweep interior and halo
//! uniformly:
//!
//! * scalars (`Φ`, `p'_sa`) and the zonal wind `U` mirror symmetrically
//!   across the boundary,
//! * the meridional wind `V` is antisymmetric across a pole and pinned to
//!   zero on the pole face itself (`V` rows sit on faces; the southernmost
//!   stored row *is* the south-pole face),
//! * all fields mirror symmetrically across the top/surface, which combined
//!   with `σ̇ = 0` at those interfaces closes the vertical fluxes.
//!
//! A real GCM treats the pole with cross-pole averaging (column `i` couples
//! to column `i + n_x/2`); the wall condition used here is local in every
//! decomposition, which keeps the communication structure identical to the
//! paper's while avoiding a special cross-pole exchange the paper does not
//! discuss.  See DESIGN.md §2.

use crate::geometry::LocalGeometry;
use crate::state::State;
use agcm_mesh::{Field2, Field3};

/// clamped reflection of halo offset `d ∈ 1..` into interior rows
#[inline]
fn reflect(d: isize, n: isize) -> isize {
    (d - 1).min(n - 1)
}

/// `dst = sym·src` for two rows of one field (`sym = ±1`, so the copy and
/// the negation are bit-for-bit the products).
#[inline]
fn mirror_row((dst, src): (&mut [f64], &mut [f64]), sym: f64) {
    if sym == 1.0 {
        dst.copy_from_slice(src);
    } else {
        for (d, s) in dst.iter_mut().zip(&*src) {
            *d = sym * *s;
        }
    }
}

fn mirror_y_field3(f: &mut Field3, sym: f64, north: bool, south: bool, v_stagger: bool) {
    let (nx, ny, nz) = f.extents();
    let h = f.halo();
    let (ny, nz) = (ny as isize, nz as isize);
    // whole rows, x halo included: under X-Y decompositions the x halo of
    // the mirror rows cannot be wrapped locally, and the halo exchange only
    // carries interior rows — the mirror itself must extend sideways
    // (interior rows' x halos are valid by exchange/wrap at this point)
    let (x0, x1) = (-(h.xm as isize), (nx + h.xp) as isize);
    for k in -(h.zm as isize)..nz + h.zp as isize {
        if north {
            for d in 1..=h.ym as isize {
                if v_stagger && d == 1 {
                    // face -1 is the pole: zero; deeper faces reflect
                    f.row_mut(x0, x1, -1, k).fill(0.0);
                } else {
                    let src = reflect(if v_stagger { d - 1 } else { d }, ny);
                    mirror_row(f.row_pair(x0, x1, (-d, k), (src, k)), sym);
                }
            }
        }
        if south {
            if v_stagger {
                // the southernmost stored row is the pole face
                f.row_mut(x0, x1, ny - 1, k).fill(0.0);
            }
            for d in 1..=h.yp as isize {
                let src = if v_stagger {
                    (ny - 1 - d).max(0)
                } else {
                    (ny - d).max(0).min(ny - 1)
                };
                mirror_row(f.row_pair(x0, x1, (ny - 1 + d, k), (src, k)), sym);
            }
        }
    }
}

fn mirror_y_field2(f: &mut Field2, north: bool, south: bool) {
    let (nx, ny) = f.extents();
    let h = f.halo();
    let ny = ny as isize;
    let (x0, x1) = (-(h.xm as isize), (nx + h.xp) as isize);
    if north {
        for d in 1..=h.ym as isize {
            mirror_row(f.row_pair(x0, x1, -d, reflect(d, ny)), 1.0);
        }
    }
    if south {
        for d in 1..=h.yp as isize {
            let src = (ny - d).max(0).min(ny - 1);
            mirror_row(f.row_pair(x0, x1, ny - 1 + d, src), 1.0);
        }
    }
}

fn mirror_z_field3(f: &mut Field3, top: bool, bottom: bool) {
    let (nx, ny, nz) = f.extents();
    let h = f.halo();
    let (ny, nz) = (ny as isize, nz as isize);
    let (x0, x1) = (-(h.xm as isize), (nx + h.xp) as isize);
    for j in -(h.ym as isize)..ny + h.yp as isize {
        if top {
            for d in 1..=h.zm as isize {
                mirror_row(f.row_pair(x0, x1, (j, -d), (j, reflect(d, nz))), 1.0);
            }
        }
        if bottom {
            for d in 1..=h.zp as isize {
                let src = (nz - d).max(0).min(nz - 1);
                mirror_row(f.row_pair(x0, x1, (j, nz - 1 + d), (j, src)), 1.0);
            }
        }
    }
}

/// Pin the meridional wind to zero on the south-pole face (an interior row
/// when this rank touches the south pole).  Called after every update.
pub fn enforce_pole_v(state: &mut State, geom: &LocalGeometry) {
    if geom.at_south() {
        let (nx, ny, nz) = state.v.extents();
        for k in 0..nz as isize {
            state
                .v
                .row_mut(0, nx as isize, ny as isize - 1, k)
                .fill(0.0);
        }
    }
}

/// Fill every physical-boundary halo of the state (y mirrors where this
/// rank touches a pole, z mirrors where it touches top/surface) and then
/// wrap the periodic x halos.  Halos facing real neighbours are left alone
/// (the halo exchange owns them).
///
/// Requires `p_x = 1` (full circles owned locally) for the x wrap; the X-Y
/// decomposition path exchanges x halos instead and calls
/// [`fill_boundaries_no_wrap`].
pub fn fill_boundaries(state: &mut State, geom: &LocalGeometry) {
    fill_boundaries_no_wrap(state, geom);
    state.wrap_x();
}

/// As [`fill_boundaries`] but without the periodic x wrap.
pub fn fill_boundaries_no_wrap(state: &mut State, geom: &LocalGeometry) {
    let (n, s) = (geom.at_north(), geom.at_south());
    let (t, b) = (geom.at_top(), geom.at_surface());
    if n || s {
        mirror_y_field3(&mut state.u, 1.0, n, s, false);
        mirror_y_field3(&mut state.v, -1.0, n, s, true);
        mirror_y_field3(&mut state.phi, 1.0, n, s, false);
        mirror_y_field2(&mut state.psa, n, s);
    }
    if t || b {
        mirror_z_field3(&mut state.u, t, b);
        mirror_z_field3(&mut state.v, t, b);
        mirror_z_field3(&mut state.phi, t, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use agcm_mesh::{Decomposition, HaloWidths, ProcessGrid};
    use std::sync::Arc;

    fn serial_geom(halo: HaloWidths) -> LocalGeometry {
        let cfg = ModelConfig::test_small(); // 16 x 10 x 4
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
        LocalGeometry::new(&cfg, grid, &d, 0, halo)
    }

    fn seeded_state(geom: &LocalGeometry) -> State {
        let mut st = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
        for k in 0..geom.nz as isize {
            for j in 0..geom.ny as isize {
                for i in 0..geom.nx as isize {
                    let v = 1.0 + (i + 10 * j + 100 * k) as f64;
                    st.u.set(i, j, k, v);
                    st.v.set(i, j, k, -v);
                    st.phi.set(i, j, k, 2.0 * v);
                }
            }
        }
        for j in 0..geom.ny as isize {
            for i in 0..geom.nx as isize {
                st.psa.set(i, j, (i * j) as f64);
            }
        }
        st
    }

    #[test]
    fn scalar_mirror_at_north() {
        let geom = serial_geom(HaloWidths::uniform(2));
        let mut st = seeded_state(&geom);
        fill_boundaries(&mut st, &geom);
        for i in 0..geom.nx as isize {
            assert_eq!(st.phi.get(i, -1, 0), st.phi.get(i, 0, 0));
            assert_eq!(st.phi.get(i, -2, 0), st.phi.get(i, 1, 0));
            assert_eq!(st.u.get(i, -1, 1), st.u.get(i, 0, 1));
            assert_eq!(st.psa.get(i, -2), st.psa.get(i, 1));
        }
    }

    #[test]
    fn v_antisymmetric_at_poles() {
        let geom = serial_geom(HaloWidths::uniform(2));
        let mut st = seeded_state(&geom);
        enforce_pole_v(&mut st, &geom);
        fill_boundaries(&mut st, &geom);
        let ny = geom.ny as isize;
        for i in 0..geom.nx as isize {
            // north: face -1 is the pole (V = 0), face -2 reflects face 0
            assert_eq!(st.v.get(i, -1, 0), 0.0);
            assert_eq!(st.v.get(i, -2, 0), -st.v.get(i, 0, 0));
            // south: stored row ny-1 is the pole (pinned to 0)
            assert_eq!(st.v.get(i, ny - 1, 0), 0.0);
            assert_eq!(st.v.get(i, ny, 0), -st.v.get(i, ny - 2, 0));
            assert_eq!(st.v.get(i, ny + 1, 0), -st.v.get(i, ny - 3, 0));
        }
    }

    #[test]
    fn z_mirror_top_and_surface() {
        let geom = serial_geom(HaloWidths::uniform(2));
        let mut st = seeded_state(&geom);
        fill_boundaries(&mut st, &geom);
        let nz = geom.nz as isize;
        for i in 0..geom.nx as isize {
            assert_eq!(st.phi.get(i, 2, -1), st.phi.get(i, 2, 0));
            assert_eq!(st.phi.get(i, 2, -2), st.phi.get(i, 2, 1));
            assert_eq!(st.u.get(i, 2, nz), st.u.get(i, 2, nz - 1));
            assert_eq!(st.u.get(i, 2, nz + 1), st.u.get(i, 2, nz - 2));
        }
    }

    #[test]
    fn corner_halos_consistent_after_wrap() {
        // y-halo rows must also have valid x halo (wrap happens last)
        let geom = serial_geom(HaloWidths::uniform(2));
        let mut st = seeded_state(&geom);
        fill_boundaries(&mut st, &geom);
        let nx = geom.nx as isize;
        assert_eq!(st.phi.get(-1, -1, 0), st.phi.get(nx - 1, -1, 0));
        assert_eq!(st.phi.get(nx, -2, -1), st.phi.get(0, -2, -1));
    }

    #[test]
    fn interior_rank_untouched_in_y() {
        // a rank away from both poles must not have its y halos modified
        let cfg = ModelConfig::test_medium();
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), ProcessGrid::yz(4, 1).unwrap()).unwrap();
        let geom = LocalGeometry::new(&cfg, grid, &d, 1, HaloWidths::uniform(1));
        assert!(!geom.at_north() && !geom.at_south());
        let mut st = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
        st.phi.fill(7.0);
        st.phi.set(0, -1, 0, 99.0); // pretend exchanged halo
        fill_boundaries(&mut st, &geom);
        assert_eq!(st.phi.get(0, -1, 0), 99.0, "exchange-owned halo preserved");
    }

    #[test]
    fn deep_halo_clamped_reflection() {
        // halo deeper than the local row count must not panic
        let geom = serial_geom(HaloWidths {
            xm: 1,
            xp: 1,
            ym: 12,
            yp: 12,
            zm: 6,
            zp: 6,
        });
        let mut st = seeded_state(&geom);
        enforce_pole_v(&mut st, &geom);
        fill_boundaries(&mut st, &geom);
        assert!(!st.has_nan());
    }
}
