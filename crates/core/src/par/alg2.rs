//! Parallel **Algorithm 2** — the communication-avoiding algorithm (§4.4).
//!
//! Runs under the Y-Z decomposition only (`p_x = 1`), so the Fourier
//! filtering is communication-free (§4.2.1).  Per time step:
//!
//! * deep halos feed **groups of sweeps** between exchanges: `g` sweeps an
//!   exchange costs `⌈3M/g⌉ + ⌈3/g_a⌉ (+1)` exchanges a step instead of
//!   `3M + 4`.  At `g = 3M` ([`CaModel::with_groups`], where the blocks
//!   hold the `3M(+2)`-deep halo) that is the paper's **two**;
//!   [`CaModel::new`] runs the rung of the iteration-aligned ladder whose
//!   redundant sweeps cost least against the exchanges they save
//!   ([`crate::analysis::ca_group_size`]),
//! * the first exchange fuses the **smoothing** of the previous step
//!   (§4.3.2: former smoothing overlaps the messages; later smoothing
//!   completes edge and halo rows after they arrive) and ships the cached
//!   `C` outputs (`vsum`, `g_w`, `φ'`) alongside ξ — 7 arrays, echoing the
//!   paper's "length of ξ being ten",
//! * the **approximate nonlinear iteration** (§4.2.2) runs the collective
//!   `C` twice per iteration (the first sub-update reuses the cached
//!   outputs), eliminating one third of the collective traffic,
//! * exchanges are split into post/compute/finish so computation overlaps
//!   communication (§4.3.1),
//! * halo sweeps are redundant: with validity `v` layers left, a sweep
//!   covers the interior dilated by `v − 1` — on the sides that face a
//!   neighbour only, and only those sides carry a deep halo
//!   ([`super::schedule::halo_alloc`]).
//!
//! All of that is [`super::schedule::alg2_step_for`]'s program; [`CaModel`]
//! is [`Integrator::alg2`] on a rung of the ladder behind a `&Communicator`
//! step signature.  Everything else it offers is the integrator's, through
//! `Deref`.

use crate::analysis::ca_group_size;
use crate::config::ModelConfig;
use crate::error::ModelError;
use crate::integrator::Integrator;
use agcm_comm::{CommResult, Communicator};
use agcm_mesh::ProcessGrid;
use std::ops::{Deref, DerefMut};

/// Parallel communication-avoiding algorithm (Algorithm 2).
pub struct CaModel {
    inner: Integrator,
    /// The sweep groups `(g, fuse, g_a)` it runs: adaptation sweeps per
    /// exchange (`3M` is the paper's schedule), whether the smoothing is
    /// fused into the first deep exchange, advection sweeps per exchange.
    pub groups: (usize, bool, usize),
}

impl CaModel {
    /// Build the CA model on the sweep groups [`ca_group_size`] picks for
    /// `pgrid`, which must be a Y-Z (or serial) grid; any block sizes are
    /// supported.
    pub fn new(
        cfg: &ModelConfig,
        pgrid: ProcessGrid,
        comm: &mut Communicator,
    ) -> Result<Self, ModelError> {
        Self::with_groups(cfg, pgrid, comm, ca_group_size(cfg, &pgrid))
    }

    /// Build the CA model on explicit sweep groups `(g, fuse, g_a)` (see
    /// [`Integrator::alg2`]); `(3M, true, 3)` is the paper's two-exchange
    /// schedule.
    pub fn with_groups(
        cfg: &ModelConfig,
        pgrid: ProcessGrid,
        comm: &mut Communicator,
        groups: (usize, bool, usize),
    ) -> Result<Self, ModelError> {
        let inner = Integrator::alg2(cfg, pgrid, comm, groups)?;
        Ok(CaModel { inner, groups })
    }

    /// Advance one time step; its smoothing stays pending.
    pub fn step(&mut self, comm: &Communicator) -> CommResult<()> {
        self.inner.step(Some(comm))
    }

    /// Apply the deferred smoothing of the final step.  Call once after
    /// the last [`Self::step`].
    pub fn finish(&mut self, comm: &Communicator) -> CommResult<()> {
        self.inner.finish(Some(comm))
    }

    /// Run `n` steps and apply the final smoothing.
    pub fn run(&mut self, comm: &Communicator, n: usize) -> CommResult<()> {
        self.inner.run_steps(Some(comm), n)
    }
}

impl Deref for CaModel {
    type Target = Integrator;
    fn deref(&self) -> &Integrator {
        &self.inner
    }
}

impl DerefMut for CaModel {
    fn deref_mut(&mut self) -> &mut Integrator {
        &mut self.inner
    }
}
