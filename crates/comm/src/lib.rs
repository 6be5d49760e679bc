//! # agcm-comm — simulated MPI runtime + communication cost model
//!
//! A thread-backed message-passing runtime with MPI-like semantics
//! (non-blocking buffered sends, tag matching, communicator contexts,
//! collectives) plus per-rank traffic statistics and the machine constants
//! of the cost model.
//!
//! Together these substitute for MPI-on-Tianhe-2 in the reproduction of
//! Xiao et al. (ICPP 2018): the runtime executes the real data movement of
//! the dynamical core at small rank counts (validated bit-for-bit against a
//! serial reference), while `agcm_core::analysis::predict` prices the *same*
//! step program at the paper's 128–1024 rank scales under a [`CostModel`].
//! See `DESIGN.md` §2 for the substitution argument.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collective;
pub mod env;
pub mod error;
pub mod fault;
pub mod model;
pub mod runtime;
pub mod stats;
pub mod telemetry;
pub mod transport;

pub use collective::ReduceOp;
pub use env::{parse_env, EnvError};
pub use error::{CommError, CommResult};
pub use fault::{
    checksum, checksum_bytes, splitmix64, FaultAction, FaultEvent, FaultKind, FaultPlan, FaultRule,
    FaultSite,
};
pub use model::{p2p_only_delta, CostModel, KernelCosts};
pub use runtime::{default_timeout, timeout_from_env, Communicator, Universe};
pub use stats::{CollectiveEvent, CollectiveKind, CommStats, FaultSnapshot, StatsSnapshot};
pub use transport::{
    Endpoint, Envelope, MpscTransport, SocketTransport, Transport, WireStats, WIRE_OVERHEAD_BYTES,
};
