//! Physical boundary conditions: poles and vertical caps.
//!
//! The latitude–longitude mesh has no neighbours beyond the poles or beyond
//! the model top/surface.  Past a pole, halo rows are filled from a
//! **free-slip wall** condition so that the operator loops can sweep
//! interior and halo uniformly:
//!
//! * scalars (`Φ`, `p'_sa`) and the zonal wind `U` mirror symmetrically
//!   across the boundary,
//! * the meridional wind `V` is antisymmetric across a pole and pinned to
//!   zero on the pole face itself (`V` rows sit on faces; the southernmost
//!   stored row *is* the south-pole face).
//!
//! Past the model top and the surface no halo is stored: every field
//! mirrors symmetrically there, which combined with `σ̇ = 0` at those
//! interfaces closes the vertical fluxes, and the one read that crosses
//! them — `L`'s `k ± 1` — takes the boundary level itself
//! (`z_neighbours`), the value the mirror would have copied.
//!
//! A real GCM treats the pole with cross-pole averaging (column `i` couples
//! to column `i + n_x/2`); the wall condition used here is local in every
//! decomposition, which keeps the communication structure identical to the
//! paper's while avoiding a special cross-pole exchange the paper does not
//! discuss.  See DESIGN.md §2.

use crate::geometry::LocalGeometry;
use crate::state::State;
use agcm_mesh::Field3;

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

fn mirror_y(f: &mut Field3, sym: f64, north: bool, south: bool, v_stagger: bool) {
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
                    // clamped reflection into the interior rows
                    let src = (if v_stagger { d - 2 } else { d - 1 }).min(ny - 1);
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

/// The levels `(k − 1, k + 1)` that a read at level `k` of a `k ± 1`
/// stencil takes: past the model top and the surface, where no halo is
/// stored, the boundary level itself — the symmetric mirror's value.
#[inline]
pub(crate) fn z_neighbours(geom: &LocalGeometry, k: isize) -> (isize, isize) {
    let top = k == 0 && geom.at_top();
    let surface = k == geom.nz as isize - 1 && geom.at_surface();
    (if top { k } else { k - 1 }, if surface { k } else { k + 1 })
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

/// Fill the pole halos of the state (y mirrors where this rank touches a
/// pole) and then wrap the periodic x halos.  Halos facing real neighbours
/// are left alone (the halo exchange owns them).
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
    if !(n || s) {
        return;
    }
    // (symmetry, V-staggered) of U, V, Φ, p'_sa
    let kinds = [(1.0, false), (-1.0, true), (1.0, false), (1.0, false)];
    for (f, (sym, v_stagger)) in state.fields_mut().into_iter().zip(kinds) {
        mirror_y(f, sym, n, s, v_stagger);
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
                st.psa.set(i, j, 0, (i * j) as f64);
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
            assert_eq!(st.psa.get(i, -2, 0), st.psa.get(i, 1, 0));
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
    fn z_reads_clamp_at_top_and_surface_only() {
        // serial, then the top and the surface rank of a z-split, which read
        // their neighbour's level across the split
        let cfg = ModelConfig::test_medium();
        let grid = Arc::new(cfg.grid().unwrap());
        let cases = [(1, 0, true, true), (2, 0, true, false), (2, 1, false, true)];
        for (pz, rank, top, surface) in cases {
            let d = Decomposition::new(cfg.extents(), ProcessGrid::yz(1, pz).unwrap()).unwrap();
            let g = LocalGeometry::new(&cfg, Arc::clone(&grid), &d, rank, HaloWidths::uniform(1));
            let last = g.nz as isize - 1;
            assert_eq!(z_neighbours(&g, 0).0, if top { 0 } else { -1 });
            assert_eq!(z_neighbours(&g, last).1, last + isize::from(!surface));
            assert_eq!(z_neighbours(&g, 1), (0, 2));
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
