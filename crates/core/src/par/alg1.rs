//! Parallel **Algorithm 1** — the paper's original algorithm.
//!
//! Works under any 2-D decomposition; the paper evaluates it under X-Y
//! (`p_z = 1`, distributed Fourier filtering) and Y-Z (`p_x = 1`,
//! communication-free filtering, z-collectives for `C`).
//!
//! Communication schedule per time step (`M` nonlinear iterations):
//!
//! * one shallow halo exchange **before every stencil sweep** —
//!   `3M` adaptation + 3 advection + 1 smoothing = `3M + 4` exchanges
//!   (13 for `M = 3`, the paper's "communication frequency 13"),
//! * `3M` executions of the collective `C` (three per iteration),
//! * `3M + 3` filter applications (each a pair of transposes under X-Y).

use crate::config::ModelConfig;
use crate::dycore::{Engine, FilterCtx};
use crate::error::ModelError;
use crate::geometry::LocalGeometry;
use crate::par::exchange::{state_fields, ExField, HaloExchanger};
use crate::smoothing::smooth_full;
use crate::state::{Combine, State};
use crate::tables;
use crate::vertical::ZContext;
use agcm_comm::{CommResult, Communicator};
use agcm_mesh::{Decomposition, HaloWidths, ProcessGrid};
use agcm_obs as obs;
use std::sync::Arc;

/// Parallel original algorithm (Algorithm 1).
pub struct Alg1Model {
    /// The shared engine.
    pub engine: Engine,
    /// Current state.
    pub state: State,
    /// Completed steps.
    pub steps: usize,
    exchanger: HaloExchanger,
    zcomm: Option<Communicator>,
    xcomm: Option<Communicator>,
    depth_sweep: HaloWidths,
    depth_smooth: HaloWidths,
    // scratch; `state`, `psi`, `eta1` and `smoothed` trade buffers
    // through a step instead of being copied into one another
    psi: State,
    eta1: State,
    mid: State,
    tend: State,
    smoothed: State,
}

impl Alg1Model {
    /// Build the model on this rank.  `comm` must have exactly
    /// `pgrid.size()` ranks; rank ↔ cartesian coordinates follow
    /// [`ProcessGrid`]'s x-fastest numbering.
    pub fn new(
        cfg: &ModelConfig,
        pgrid: ProcessGrid,
        comm: &mut Communicator,
    ) -> Result<Self, ModelError> {
        if comm.size() != pgrid.size() {
            return Err(ModelError::Config(format!(
                "communicator size {} != process grid size {}",
                comm.size(),
                pgrid.size()
            )));
        }
        let grid = Arc::new(cfg.grid()?);
        let decomp = Decomposition::new(cfg.extents(), pgrid)?;
        let halo = HaloWidths::for_footprint(&tables::per_sweep_union());
        let rank = comm.rank();
        let geom = LocalGeometry::new(cfg, Arc::clone(&grid), &decomp, rank, halo);
        let exchanger = HaloExchanger::new(decomp.clone(), rank);
        exchanger.validate_depth(halo).map_err(ModelError::Config)?;

        let (px, py, pz) = pgrid.dims();
        let (cx, cy, cz) = pgrid.coords(rank);
        let zcomm = if pz > 1 {
            Some(comm.split(cx + cy * px, cz)?)
        } else {
            None
        };
        let xcomm = if px > 1 {
            Some(comm.split(cy + cz * py, cx)?)
        } else {
            None
        };

        let engine = Engine::new(cfg, geom, px == 1);
        let state = State::new(engine.geom.nx, engine.geom.ny, engine.geom.nz, halo);
        let scratch = || State::like(&state);
        // adaptation/advection sweeps read one row/level; x needs the full
        // table extent (3); smoothing needs (2, 2, 0).  Shared with the
        // static schedule metadata so analyzer and integrator cannot drift.
        let depth_sweep = super::schedule::depth_sweep();
        let depth_smooth = super::schedule::depth_smooth();
        Ok(Alg1Model {
            psi: scratch(),
            eta1: scratch(),
            mid: scratch(),
            tend: scratch(),
            smoothed: scratch(),
            engine,
            state,
            steps: 0,
            exchanger,
            zcomm,
            xcomm,
            depth_sweep,
            depth_smooth,
        })
    }

    /// Replace the state with an initial condition.
    pub fn set_state(&mut self, st: &State) {
        self.state.assign(st);
        self.engine.c_cached = false;
    }

    /// Local geometry.
    pub fn geom(&self) -> &LocalGeometry {
        &self.engine.geom
    }

    /// Completed halo exchanges (all steps).
    pub fn exchange_count(&self) -> u64 {
        self.exchanger.exchanges
    }

    /// Degraded mode is a no-op for Algorithm 1: its schedule is already
    /// the conservative one (blocking exchanges, exact `C` every sweep).
    pub fn set_degraded(&mut self, _on: bool) {}

    /// Enable checksum-framed halo payloads with validated, retrying
    /// receives.
    pub fn set_framed(&mut self, on: bool) {
        self.exchanger.set_framed(on);
    }

    /// Change the framed-receive retry policy.
    pub fn set_retry(&mut self, retry: crate::par::exchange::RetryPolicy) {
        self.exchanger.set_retry(retry);
    }

    /// Re-align communication sequence numbers after a rollback (collective
    /// with the same `epoch` on every rank).
    pub fn resync(&mut self, epoch: u64) {
        self.exchanger.resync(epoch);
        if let Some(z) = &self.zcomm {
            z.resync_collectives(epoch);
        }
        if let Some(x) = &self.xcomm {
            x.resync_collectives(epoch);
        }
    }

    /// Snapshot the restart state.  Algorithm 1 recomputes `C` exactly in
    /// every sweep, so the prognostic state alone restores it bit-for-bit.
    pub fn capture(&self) -> crate::resilience::Checkpoint {
        crate::resilience::Checkpoint {
            step: self.steps as u64,
            state: self.state.clone(),
            vsum: None,
            gw: None,
            phi_p: None,
            c_cached: false,
            pending_smooth: false,
        }
    }

    /// Restore a [`Self::capture`]d snapshot bit-for-bit.
    pub fn restore(&mut self, ck: &crate::resilience::Checkpoint) {
        self.steps = ck.step as usize;
        self.state.clone_from(&ck.state);
        self.engine.c_cached = false;
    }

    /// Advance one time step.
    pub fn step(&mut self, comm: &Communicator) -> CommResult<()> {
        obs::set_step(self.steps as u64);
        let _step = obs::span(obs::SpanKind::Step, "alg1.step");
        let region = self.engine.geom.interior();
        let dt1 = self.engine.cfg.dt1;
        let dt2 = self.engine.cfg.dt2;
        let m = self.engine.cfg.m_iters;
        let zctx = match &self.zcomm {
            Some(z) => ZContext::Parallel(z),
            None => ZContext::Serial,
        };
        let fctx = match &self.xcomm {
            Some(x) => FilterCtx::Distributed(x),
            None => FilterCtx::Local,
        };
        // ψ⁰ = ξ^{(k-1)}: trade buffers — `state` is assigned again at the
        // end of the step and not read in between
        std::mem::swap(&mut self.psi, &mut self.state);

        // ---- adaptation ----
        for _ in 0..m {
            let _iter = obs::span(obs::SpanKind::Iter, "adaptation.iter");
            // sub-update 1: ψ is base and argument at once
            self.exchanger
                .exchange(comm, self.depth_sweep, &mut state_fields(&mut self.psi))?;
            self.engine.adaptation_subupdate(
                None,
                &mut self.psi,
                &mut self.eta1,
                &mut self.tend,
                region,
                dt1,
                Combine::Euler,
                true,
                &zctx,
                &fctx,
            )?;
            // sub-update 2 emits the midpoint ½(ψ + η₂) directly
            self.exchanger
                .exchange(comm, self.depth_sweep, &mut state_fields(&mut self.eta1))?;
            self.engine.adaptation_subupdate(
                Some(&self.psi),
                &mut self.eta1,
                &mut self.mid,
                &mut self.tend,
                region,
                dt1,
                Combine::Midpoint,
                true,
                &zctx,
                &fctx,
            )?;
            // sub-update 3: η₃ is the next iteration's ψ
            self.exchanger
                .exchange(comm, self.depth_sweep, &mut state_fields(&mut self.mid))?;
            self.engine.adaptation_subupdate(
                Some(&self.psi),
                &mut self.mid,
                &mut self.eta1,
                &mut self.tend,
                region,
                dt1,
                Combine::Euler,
                true,
                &zctx,
                &fctx,
            )?;
            std::mem::swap(&mut self.psi, &mut self.eta1);
        }

        // ---- advection (frozen g_w must travel with the first exchange) --
        {
            let mut fields = [
                ExField::F3(&mut self.psi.u),
                ExField::F3(&mut self.psi.v),
                ExField::F3(&mut self.psi.phi),
                ExField::F2(&mut self.psi.psa),
                ExField::F3(&mut self.engine.diag.gw),
            ];
            self.exchanger
                .exchange(comm, self.depth_sweep, &mut fields)?;
        }
        if self.engine.px1 {
            // x halo by periodic wrap; under X-Y splits the exchange (and
            // the extended-x computation in apply_c) already covered it
            self.engine.diag.gw.wrap_x_halo();
        }
        self.engine.advection_subupdate(
            None,
            &mut self.psi,
            &mut self.eta1,
            &mut self.tend,
            region,
            dt2,
            Combine::Euler,
            &fctx,
        )?;
        self.exchanger
            .exchange(comm, self.depth_sweep, &mut state_fields(&mut self.eta1))?;
        self.engine.advection_subupdate(
            Some(&self.psi),
            &mut self.eta1,
            &mut self.mid,
            &mut self.tend,
            region,
            dt2,
            Combine::Midpoint,
            &fctx,
        )?;
        self.exchanger
            .exchange(comm, self.depth_sweep, &mut state_fields(&mut self.mid))?;
        self.engine.advection_subupdate(
            Some(&self.psi),
            &mut self.mid,
            &mut self.eta1,
            &mut self.tend,
            region,
            dt2,
            Combine::Euler,
            &fctx,
        )?;

        // ---- physics, then smoothing with its own exchange ----
        self.engine.apply_forcing(&mut self.eta1, region);
        self.exchanger
            .exchange(comm, self.depth_smooth, &mut state_fields(&mut self.eta1))?;
        {
            // Algorithm 1 smooths in one unsplit pass = the paper's S1
            let _s = obs::span_phase(obs::SpanKind::Op, obs::Phase::S1, "smooth.full");
            self.engine.fill(&mut self.eta1);
            smooth_full(
                &self.engine.geom,
                self.engine.cfg.smooth_beta,
                &self.eta1,
                &mut self.smoothed,
                region,
            );
        }
        std::mem::swap(&mut self.state, &mut self.smoothed);
        self.steps += 1;
        Ok(())
    }

    /// Run `n` steps.
    pub fn run(&mut self, comm: &Communicator, n: usize) -> CommResult<()> {
        for _ in 0..n {
            self.step(comm)?;
        }
        Ok(())
    }

    /// Gather the full global state to rank 0 (for test comparison):
    /// returns `(component, global field rows)` flattened per component on
    /// rank 0, `None` elsewhere.
    pub fn gather_state(&mut self, comm: &Communicator) -> CommResult<Option<GlobalState>> {
        gather_state_impl(&self.state, &self.engine.geom, comm)
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
