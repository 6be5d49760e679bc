//! Parallel **Algorithm 1** — the paper's original algorithm.
//!
//! Works under any 2-D decomposition; the paper evaluates it under X-Y
//! (`p_z = 1`, distributed Fourier filtering) and Y-Z (`p_x = 1`,
//! communication-free filtering, z-collectives for `C`).
//!
//! Communication per time step (`M` nonlinear iterations), as
//! [`super::schedule::alg1_step`] lists it:
//!
//! * one shallow halo exchange **before every stencil sweep** —
//!   `3M` adaptation + 3 advection + 1 smoothing = `3M + 4` exchanges
//!   (13 for `M = 3`, the paper's "communication frequency 13"),
//! * `3M` executions of the collective `C` (three per iteration),
//! * `3M + 3` filter applications (each a pair of transposes under X-Y).
//!
//! [`Alg1Model`] is [`Integrator::alg1`] behind a `&Communicator` step
//! signature; everything else it offers is the integrator's, through
//! `Deref`.

use crate::config::ModelConfig;
use crate::error::ModelError;
use crate::geometry::LocalGeometry;
use crate::integrator::Integrator;
use crate::state::State;
use agcm_comm::{CommResult, Communicator};
use agcm_mesh::ProcessGrid;
use std::ops::{Deref, DerefMut};

/// Parallel original algorithm (Algorithm 1).
pub struct Alg1Model(Integrator);

impl Alg1Model {
    /// Build the model on this rank (see [`Integrator::alg1`]).
    pub fn new(
        cfg: &ModelConfig,
        pgrid: ProcessGrid,
        comm: &mut Communicator,
    ) -> Result<Self, ModelError> {
        Integrator::alg1(cfg, pgrid, comm).map(Alg1Model)
    }

    /// Advance one time step.
    pub fn step(&mut self, comm: &Communicator) -> CommResult<()> {
        self.0.step(Some(comm))
    }

    /// Run `n` steps.
    pub fn run(&mut self, comm: &Communicator, n: usize) -> CommResult<()> {
        self.0.run_steps(Some(comm), n)
    }
}

impl Deref for Alg1Model {
    type Target = Integrator;
    fn deref(&self) -> &Integrator {
        &self.0
    }
}

impl DerefMut for Alg1Model {
    fn deref_mut(&mut self) -> &mut Integrator {
        &mut self.0
    }
}

/// A gathered global state (dense, no halos) for cross-configuration
/// comparisons in tests and benches.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalState {
    /// Extents `(nx, ny, nz)`.
    pub extents: (usize, usize, usize),
    /// `U`, x-fastest dense.
    pub u: Vec<f64>,
    /// `V`.
    pub v: Vec<f64>,
    /// `Φ`.
    pub phi: Vec<f64>,
    /// `p'_sa` (2-D).
    pub psa: Vec<f64>,
}

impl GlobalState {
    /// Build from a serial model's state.
    pub fn from_serial(st: &State, geom: &LocalGeometry) -> Self {
        let (nx, ny, nz) = (geom.nx, geom.ny, geom.nz);
        let mut u = Vec::with_capacity(nx * ny * nz);
        let mut v = Vec::with_capacity(nx * ny * nz);
        let mut phi = Vec::with_capacity(nx * ny * nz);
        let mut psa = Vec::with_capacity(nx * ny);
        for k in 0..nz as isize {
            for j in 0..ny as isize {
                u.extend_from_slice(st.u.row(0, nx as isize, j, k));
                v.extend_from_slice(st.v.row(0, nx as isize, j, k));
                phi.extend_from_slice(st.phi.row(0, nx as isize, j, k));
            }
        }
        for j in 0..ny as isize {
            psa.extend_from_slice(st.psa.row(0, nx as isize, j));
        }
        GlobalState {
            extents: (nx, ny, nz),
            u,
            v,
            phi,
            psa,
        }
    }

    /// Largest absolute difference to another global state.
    pub fn max_abs_diff(&self, other: &GlobalState) -> f64 {
        assert_eq!(self.extents, other.extents);
        let d = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max)
        };
        d(&self.u, &other.u)
            .max(d(&self.v, &other.v))
            .max(d(&self.phi, &other.phi))
            .max(d(&self.psa, &other.psa))
    }

    /// Largest absolute value over all components.
    pub fn max_abs(&self) -> f64 {
        let m = |a: &[f64]| a.iter().fold(0.0f64, |acc, x| acc.max(x.abs()));
        m(&self.u)
            .max(m(&self.v))
            .max(m(&self.phi))
            .max(m(&self.psa))
    }
}

/// Gather a decomposed state to rank 0 of `comm`.
pub fn gather_state_impl(
    state: &State,
    geom: &LocalGeometry,
    comm: &Communicator,
) -> CommResult<Option<GlobalState>> {
    // each rank packs: [x0, y0, z0, nxl, nyl, nzl, u..., v..., phi..., psa...]
    let (nxl, nyl, nzl) = (geom.nx, geom.ny, geom.nz);
    let mut buf: Vec<f64> = vec![
        geom.sub.x.start as f64,
        geom.sub.y.start as f64,
        geom.sub.z.start as f64,
        nxl as f64,
        nyl as f64,
        nzl as f64,
    ];
    for f in [&state.u, &state.v, &state.phi] {
        for k in 0..nzl as isize {
            for j in 0..nyl as isize {
                buf.extend_from_slice(f.row(0, nxl as isize, j, k));
            }
        }
    }
    for j in 0..nyl as isize {
        buf.extend_from_slice(state.psa.row(0, nxl as isize, j));
    }
    let gathered = comm.gatherv(0, &buf)?;
    let Some(parts) = gathered else {
        return Ok(None);
    };
    let (gnx, gny, gnz) = (geom.grid.nx(), geom.grid.ny(), geom.grid.nz());
    let mut out = GlobalState {
        extents: (gnx, gny, gnz),
        u: vec![0.0; gnx * gny * gnz],
        v: vec![0.0; gnx * gny * gnz],
        phi: vec![0.0; gnx * gny * gnz],
        psa: vec![0.0; gnx * gny],
    };
    for p in parts {
        let (x0, y0, z0) = (p[0] as usize, p[1] as usize, p[2] as usize);
        let (nxl, nyl, nzl) = (p[3] as usize, p[4] as usize, p[5] as usize);
        let mut off = 6;
        for fi in 0..3 {
            let dst: &mut [f64] = match fi {
                0 => &mut out.u,
                1 => &mut out.v,
                _ => &mut out.phi,
            };
            for k in 0..nzl {
                for j in 0..nyl {
                    let g0 = (z0 + k) * gnx * gny + (y0 + j) * gnx + x0;
                    dst[g0..g0 + nxl].copy_from_slice(&p[off..off + nxl]);
                    off += nxl;
                }
            }
        }
        for j in 0..nyl {
            let g0 = (y0 + j) * gnx + x0;
            out.psa[g0..g0 + nxl].copy_from_slice(&p[off..off + nxl]);
            off += nxl;
        }
    }
    Ok(Some(out))
}
