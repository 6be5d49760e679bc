//! The prognostic state `ξ = (U, V, Φ, p'_sa)`.
//!
//! `U`, `V` and `Φ` are the transformed wind and geopotential-like variables
//! of Eq. 1 of the paper (3-D, on the Arakawa C grid); `p'_sa` is the
//! surface-pressure deviation (2-D).  The state supports the linear algebra
//! Algorithm 1/2 need (`ψ + Δt·F(…)` and its midpoint with `ψ`, see
//! [`Combine`]) plus the halo bookkeeping shared by all four components.

use crate::geometry::Region;
use crate::lanes::{lane_loop, Elem};
use crate::pool::band_struct;
use agcm_mesh::{Field2, Field3, HaloWidths, RowBand2, RowBand3};

/// Per-element body of `x + c·y` — the same expression tree as the scalar
/// row loop, instantiated at `f64` or `crate::lanes::Lane`.
#[inline(always)]
fn lincomb_body<E: Elem>(x: E, c: f64, y: E) -> E {
    x + E::splat(c) * y
}

/// Per-element body of `0.5·(x + (x + c·y))`: the midpoint of `x` and its
/// Euler update, every operation rounded as if the update had been stored
/// to memory and read back.
#[inline(always)]
fn midpoint_body<E: Elem>(x: E, c: f64, y: E) -> E {
    E::splat(0.5) * (x + lincomb_body(x, c, y))
}

/// How a sub-update combines its base `x` with the scaled tendency `c·y`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// `x + c·y` — the first and third sub-update of a nonlinear iteration.
    Euler,
    /// `½·(x + (x + c·y))` — the second sub-update, whose Euler update is
    /// only ever read through the midpoint that feeds the third.
    Midpoint,
}

/// Row kernel of [`Combine`]; shared with the tendency sweeps, which
/// combine a row while its tendency is cache-hot.
#[inline]
pub(crate) fn combine_row(form: Combine, d: &mut [f64], x: &[f64], c: f64, y: &[f64]) {
    let n = d.len();
    match form {
        Combine::Euler => lane_loop!(n, E, ii, {
            lincomb_body(E::load(x, ii), c, E::load(y, ii)).store(d, ii)
        }),
        Combine::Midpoint => lane_loop!(n, E, ii, {
            midpoint_body(E::load(x, ii), c, E::load(y, ii)).store(d, ii)
        }),
    }
}

/// [`combine_row`] of a tendency that sits in the output row itself:
/// `d = form(x, c·d)`, each element's tendency loaded before its result is
/// stored over it — the same rounded operations as storing the tendency
/// to a row of its own first.
#[inline]
pub(crate) fn combine_row_in_place(form: Combine, d: &mut [f64], x: &[f64], c: f64) {
    let n = d.len();
    match form {
        Combine::Euler => lane_loop!(n, E, ii, {
            lincomb_body(E::load(x, ii), c, E::load(d, ii)).store(d, ii)
        }),
        Combine::Midpoint => lane_loop!(n, E, ii, {
            midpoint_body(E::load(x, ii), c, E::load(d, ii)).store(d, ii)
        }),
    }
}

/// One x-row of a state: component (0 `U`, 1 `V`, 2 `Φ`, 3 `p'_sa`),
/// latitude row `j` and level `k` (ignored for `p'_sa`).
pub(crate) type RowId = (u8, isize, isize);

/// One full prognostic state on a rank's subdomain.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// Transformed zonal wind `U = P·u` at U points `(i-1/2, j, k)`.
    pub u: Field3,
    /// Transformed meridional wind `V = P·v` at V points `(i, j+1/2, k)`.
    pub v: Field3,
    /// Transformed thermal variable `Φ = P·R·(T - T̃)/b` at cell centres.
    pub phi: Field3,
    /// Surface-pressure deviation `p'_sa = p_s - p̃_s` (2-D).
    pub psa: Field2,
}

/// Mutable row bands of the four components: what a worker-pool phase that
/// writes a state hands its workers ([`State::band_mut`]).
#[derive(Debug)]
pub struct StateBand<'a> {
    /// Band of the zonal-wind field.
    pub u: RowBand3<'a>,
    /// Band of the meridional-wind field.
    pub v: RowBand3<'a>,
    /// Band of the geopotential field.
    pub phi: RowBand3<'a>,
    /// Band of the surface-pressure deviation.
    pub psa: RowBand2<'a>,
}

band_struct!(StateBand { u, v, phi, psa });

impl StateBand<'_> {
    /// Row `id` over the owned longitudes `[0, nx)`.
    pub(crate) fn row_mut(&mut self, nx: isize, (f, j, k): RowId) -> &mut [f64] {
        match f {
            0 => self.u.row_mut(0, nx, j, k),
            1 => self.v.row_mut(0, nx, j, k),
            2 => self.phi.row_mut(0, nx, j, k),
            _ => self.psa.row_mut(0, nx, j, 0),
        }
    }
}

/// Number of 3-D prognostic components.
pub const N3D: usize = 3;
/// Total number of prognostic arrays (3-D + 2-D).
pub const N_COMPONENTS: usize = 4;

impl State {
    /// Allocate a zeroed state of local extents `(nx, ny, nz)` with halos.
    pub fn new(nx: usize, ny: usize, nz: usize, halo: HaloWidths) -> Self {
        State {
            u: Field3::new(nx, ny, nz, halo),
            v: Field3::new(nx, ny, nz, halo),
            phi: Field3::new(nx, ny, nz, halo),
            psa: Field2::new(nx, ny, halo),
        }
    }

    /// Allocate a state shaped like `other`, zeroed.
    pub fn like(other: &State) -> Self {
        State {
            u: Field3::like(&other.u),
            v: Field3::like(&other.v),
            phi: Field3::like(&other.phi),
            psa: Field2::like(&other.psa),
        }
    }

    /// Local interior extents.
    pub fn extents(&self) -> (usize, usize, usize) {
        self.u.extents()
    }

    /// Halo widths.
    pub fn halo(&self) -> HaloWidths {
        self.u.halo()
    }

    /// The three 3-D fields, in canonical order (U, V, Φ).
    pub fn fields3(&self) -> [&Field3; N3D] {
        [&self.u, &self.v, &self.phi]
    }

    /// Mutable access to the 3-D fields in canonical order.
    pub fn fields3_mut(&mut self) -> [&mut Field3; N3D] {
        [&mut self.u, &mut self.v, &mut self.phi]
    }

    /// The rows and levels of `region` as one mutable band, for the worker
    /// pool to split.
    pub fn band_mut(&mut self, region: &Region) -> StateBand<'_> {
        let (rows, levels) = ((region.y0, region.y1), (region.z0, region.z1));
        StateBand {
            u: self.u.row_band_mut(rows, levels),
            v: self.v.row_band_mut(rows, levels),
            phi: self.phi.row_band_mut(rows, levels),
            psa: self.psa.row_band_mut(rows),
        }
    }

    /// Full raw copy of `a` into `self`, **including halos** — the
    /// allocation-reusing replacement for `self = a.clone()` (the derived
    /// `Clone` allocates fresh arrays every call).  Shapes must match.
    pub fn copy_from(&mut self, a: &State) {
        self.u.raw_mut().copy_from_slice(a.u.raw());
        self.v.raw_mut().copy_from_slice(a.v.raw());
        self.phi.raw_mut().copy_from_slice(a.phi.raw());
        self.psa.raw_mut().copy_from_slice(a.psa.raw());
    }

    /// `self = a` (interiors).
    pub fn assign(&mut self, a: &State) {
        self.u.assign_interior(&a.u);
        self.v.assign_interior(&a.v);
        self.phi.assign_interior(&a.phi);
        self.psa.assign_interior(&a.psa);
    }

    /// `self = x + c·y` (interiors).
    pub fn lincomb(&mut self, x: &State, c: f64, y: &State) {
        self.u.lincomb_interior(&x.u, c, &y.u);
        self.v.lincomb_interior(&x.v, c, &y.v);
        self.phi.lincomb_interior(&x.phi, c, &y.phi);
        self.psa.lincomb_interior(&x.psa, c, &y.psa);
    }

    /// Row `id` over the owned longitudes `[0, nx)`.
    pub(crate) fn row(&self, nx: isize, (f, j, k): RowId) -> &[f64] {
        match f {
            0 => self.u.row(0, nx, j, k),
            1 => self.v.row(0, nx, j, k),
            2 => self.phi.row(0, nx, j, k),
            _ => self.psa.row(0, nx, j),
        }
    }

    /// Row `id` over the owned longitudes `[0, nx)`, mutably.
    pub(crate) fn row_mut(&mut self, nx: isize, (f, j, k): RowId) -> &mut [f64] {
        match f {
            0 => self.u.row_mut(0, nx, j, k),
            1 => self.v.row_mut(0, nx, j, k),
            2 => self.phi.row_mut(0, nx, j, k),
            _ => self.psa.row_mut(0, nx, j),
        }
    }

    /// `self = form(x, c·y)` on a region (all owned longitudes, rows/levels
    /// of `region`, which may extend into the halo).  `p'_sa` follows the
    /// region's y-range.
    pub fn combine_on(&mut self, form: Combine, x: &State, c: f64, y: &State, region: &Region) {
        let nx = self.extents().0 as isize;
        for k in region.z0..region.z1 {
            for j in region.y0..region.y1 {
                for (d, x, y) in [
                    (&mut self.u, &x.u, &y.u),
                    (&mut self.v, &x.v, &y.v),
                    (&mut self.phi, &x.phi, &y.phi),
                ] {
                    combine_row(
                        form,
                        d.row_mut(0, nx, j, k),
                        x.row(0, nx, j, k),
                        c,
                        y.row(0, nx, j, k),
                    );
                }
            }
        }
        for j in region.y0..region.y1 {
            combine_row(
                form,
                self.psa.row_mut(0, nx, j),
                x.psa.row(0, nx, j),
                c,
                y.psa.row(0, nx, j),
            );
        }
    }

    /// Largest absolute difference over all components (interiors).
    pub fn max_abs_diff(&self, other: &State) -> f64 {
        self.u
            .max_abs_diff(&other.u)
            .max(self.v.max_abs_diff(&other.v))
            .max(self.phi.max_abs_diff(&other.phi))
            .max(self.psa.max_abs_diff(&other.psa))
    }

    /// Largest absolute value over all components (interiors).
    pub fn max_abs(&self) -> f64 {
        self.u
            .max_abs()
            .max(self.v.max_abs())
            .max(self.phi.max_abs())
            .max(self.psa.max_abs())
    }

    /// Whether any interior value is NaN.
    pub fn has_nan(&self) -> bool {
        self.u.has_nan_interior() || self.v.has_nan_interior() || self.phi.has_nan_interior() || {
            let (nx, ny) = self.psa.extents();
            (0..ny as isize).any(|j| self.psa.row(0, nx as isize, j).iter().any(|v| v.is_nan()))
        }
    }

    /// Fill the x halos of every component by periodic wrap (valid when the
    /// rank owns full latitude circles, i.e. `p_x = 1`).
    pub fn wrap_x(&mut self) {
        self.u.wrap_x_halo();
        self.v.wrap_x_halo();
        self.phi.wrap_x_halo();
        self.psa.wrap_x_halo();
    }

    /// Zero every array including halos.
    pub fn zero(&mut self) {
        self.u.fill(0.0);
        self.v.fill(0.0);
        self.phi.fill(0.0);
        self.psa.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(nx: usize, ny: usize, nz: usize, halo: HaloWidths, s: f64) -> State {
        let mut st = State::new(nx, ny, nz, halo);
        for k in 0..nz as isize {
            for j in 0..ny as isize {
                for i in 0..nx as isize {
                    let base = s + (i + 7 * j + 31 * k) as f64;
                    st.u.set(i, j, k, base);
                    st.v.set(i, j, k, base * 2.0);
                    st.phi.set(i, j, k, base * 3.0);
                }
            }
        }
        for j in 0..ny as isize {
            for i in 0..nx as isize {
                st.psa.set(i, j, s - (i + j) as f64);
            }
        }
        st
    }

    #[test]
    fn lincomb_and_assign() {
        let h = HaloWidths::uniform(1);
        let a = seeded(6, 4, 3, h, 1.0);
        let b = seeded(6, 4, 3, h, 2.0);
        let mut c = State::like(&a);
        c.lincomb(&a, 2.0, &b);
        assert_eq!(c.u.get(1, 1, 1), a.u.get(1, 1, 1) + 2.0 * b.u.get(1, 1, 1));
        assert_eq!(c.psa.get(2, 3), a.psa.get(2, 3) + 2.0 * b.psa.get(2, 3));
        let mut d = State::like(&a);
        d.assign(&c);
        assert_eq!(d.max_abs_diff(&c), 0.0);
    }

    #[test]
    fn midpoint_form_is_the_midpoint_of_base_and_euler_update() {
        let h = HaloWidths::uniform(1);
        let x = seeded(6, 4, 3, h, 0.3);
        let y = seeded(6, 4, 3, h, 10.7);
        let region = crate::geometry::Region {
            y0: -1,
            y1: 4,
            z0: 0,
            z1: 3,
        };
        let mut euler = State::like(&x);
        euler.combine_on(Combine::Euler, &x, 0.37, &y, &region);
        let mut mid = State::like(&x);
        mid.combine_on(Combine::Midpoint, &x, 0.37, &y, &region);
        for (j, k) in [(-1, 0), (2, 1), (3, 2)] {
            for i in 0..6 {
                let want = 0.5 * (x.phi.get(i, j, k) + euler.phi.get(i, j, k));
                assert_eq!(mid.phi.get(i, j, k).to_bits(), want.to_bits());
                let e = x.v.get(i, j, k) + 0.37 * y.v.get(i, j, k);
                assert_eq!(euler.v.get(i, j, k).to_bits(), e.to_bits());
            }
        }
        let want = 0.5 * (x.psa.get(2, -1) + euler.psa.get(2, -1));
        assert_eq!(mid.psa.get(2, -1).to_bits(), want.to_bits());
        // outside the region nothing is written
        assert_eq!(mid.phi.get(0, 4, 0), 0.0);
    }

    #[test]
    fn nan_detection_and_zero() {
        let mut a = seeded(6, 4, 3, HaloWidths::uniform(1), 1.0);
        assert!(!a.has_nan());
        a.phi.set(0, 0, 0, f64::NAN);
        assert!(a.has_nan());
        a.zero();
        assert!(!a.has_nan());
        assert_eq!(a.max_abs(), 0.0);
    }

    #[test]
    fn wrap_x_applies_to_all_components() {
        let mut a = seeded(6, 4, 3, HaloWidths::uniform(2), 1.0);
        a.wrap_x();
        assert_eq!(a.u.get(-1, 0, 0), a.u.get(5, 0, 0));
        assert_eq!(a.v.get(7, 1, 2), a.v.get(1, 1, 2));
        assert_eq!(a.psa.get(-2, 3), a.psa.get(4, 3));
    }

    #[test]
    fn component_counts() {
        let a = State::new(6, 4, 3, HaloWidths::zero());
        assert_eq!(a.fields3().len(), N3D);
        assert_eq!(N_COMPONENTS, 4);
    }
}
