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
    /// A zero global state of `extents`.
    pub fn zeros((nx, ny, nz): (usize, usize, usize)) -> Self {
        GlobalState {
            extents: (nx, ny, nz),
            u: vec![0.0; nx * ny * nz],
            v: vec![0.0; nx * ny * nz],
            phi: vec![0.0; nx * ny * nz],
            psa: vec![0.0; nx * ny],
        }
    }

    /// Build from a serial model's state.
    pub fn from_serial(st: &State, geom: &LocalGeometry) -> Self {
        let mut gs = GlobalState::zeros((geom.nx, geom.ny, geom.nz));
        gs.insert(st, (0, 0, 0));
        gs
    }

    /// Copy `st`'s interior into place as the block whose first global
    /// point is `origin`.  A replicated `p'_sa` (a z split) is overwritten
    /// by each block in turn, so the last one inserted stands.
    pub fn insert(&mut self, st: &State, origin: (usize, usize, usize)) {
        self.insert_rows(origin, st.extents(), state_rows(st));
    }

    /// Copy a block of `dims` points whose first global point is `origin`
    /// into place, its x-rows taken from `rows` in block order (see
    /// [`state_rows`]).  The one statement of the dense layout: x fastest,
    /// then y, then z.
    fn insert_rows<'a>(
        &mut self,
        (x0, y0, z0): (usize, usize, usize),
        (nx, ny, nz): (usize, usize, usize),
        rows: impl IntoIterator<Item = &'a [f64]>,
    ) {
        let (gnx, gny, _) = self.extents;
        let mut rows = rows.into_iter();
        let fields = [
            (&mut self.u, z0, nz),
            (&mut self.v, z0, nz),
            (&mut self.phi, z0, nz),
            (&mut self.psa, 0, 1),
        ];
        for (dst, z0, nz) in fields {
            for k in 0..nz {
                for j in 0..ny {
                    let g0 = ((z0 + k) * gny + y0 + j) * gnx + x0;
                    let row = rows.next().expect("one row per field, level and row");
                    dst[g0..g0 + nx].copy_from_slice(row);
                }
            }
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

/// `st`'s interior x-rows in block order: `U`, `V`, `Φ`, `p'_sa`, each
/// level by level and row by row (`p'_sa` has one level).
fn state_rows(st: &State) -> impl Iterator<Item = &[f64]> {
    st.fields().into_iter().flat_map(|f| {
        let (nx, ny, nz) = f.extents();
        let (nx, ny, nz) = (nx as isize, ny as isize, nz as isize);
        (0..nz).flat_map(move |k| (0..ny).map(move |j| f.row(0, nx, j, k)))
    })
}

/// Gather a decomposed state to rank 0 of `comm`: each rank sends its
/// origin and extents, then its rows in block order, and rank 0 inserts
/// the blocks in rank order.
pub fn gather_state_impl(
    state: &State,
    geom: &LocalGeometry,
    comm: &Communicator,
) -> CommResult<Option<GlobalState>> {
    let sub = &geom.sub;
    let mut buf: Vec<f64> = [
        sub.x.start,
        sub.y.start,
        sub.z.start,
        geom.nx,
        geom.ny,
        geom.nz,
    ]
    .map(|v| v as f64)
    .to_vec();
    state_rows(state).for_each(|row| buf.extend_from_slice(row));
    let Some(parts) = comm.gatherv(0, &buf)? else {
        return Ok(None);
    };
    let mut out = GlobalState::zeros((geom.grid.nx(), geom.grid.ny(), geom.grid.nz()));
    for p in parts {
        let [x0, y0, z0, nx, ny, nz] = std::array::from_fn(|i| p[i] as usize);
        out.insert_rows((x0, y0, z0), (nx, ny, nz), p[6..].chunks(nx));
    }
    Ok(Some(out))
}
