//! Parallel **Algorithm 2** — the communication-avoiding algorithm (§4.4).
//!
//! Runs under the Y-Z decomposition only (`p_x = 1`), so the Fourier
//! filtering is communication-free (§4.2.1).  Its step program is
//! Algorithm 1's plus three rewrites ([`super::schedule::alg2_step_for`]):
//!
//! 1. the **approximate nonlinear iteration** (§4.2.2, Eq. 13): the first
//!    sub-update of each iteration reuses the cached `C` outputs, so the
//!    collective `C` runs twice an iteration — a third of its traffic
//!    goes,
//! 2. the **split smoothing** (§4.3.2): the previous step's smoothing opens
//!    the step; where the blocks hold two more rows it is fused into the
//!    first exchange — the former smoothing overlaps the messages, the
//!    later one completes the edge and halo rows once they arrive,
//! 3. **deep halos** (§4.3): one exchange feeds a group of `g` adaptation
//!    (`g_a` advection) sweeps, `⌈3M/g⌉ + ⌈3/g_a⌉ (+1)` exchanges a step
//!    instead of `3M + 4`, and ships the cached `C` outputs (`vsum`, `g_w`,
//!    `φ'`) alongside ξ — 7 arrays, echoing the paper's "length of ξ being
//!    ten".  Each sweep is redundant on the halo the rest of its group
//!    reads: it covers the interior dilated by the sweeps left in its group
//!    after it, on the sides that face a neighbour only, and only those
//!    sides carry a deep halo ([`super::schedule::halo_alloc`]).  A phase's
//!    first exchange is split into post/compute/finish so computation
//!    overlaps communication (§4.3.1).
//!
//! At `g = 3M` ([`CaModel::with_groups`], where the blocks hold the
//! `3M(+2)`-deep halo) that is the paper's **two** exchanges;
//! [`CaModel::new`] runs the rung of the iteration-aligned ladder whose
//! redundant sweeps cost least against the exchanges they save
//! ([`crate::analysis::ca_group_size`]).  [`CaModel`] is
//! [`Integrator::alg2`] on a rung of the ladder behind a `&Communicator`
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
