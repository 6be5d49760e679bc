//! # agcm-core — the communication-avoiding AGCM dynamical core
//!
//! From-scratch reproduction of the dynamical core and the
//! communication-avoiding algorithm of Xiao et al., "Communication-Avoiding
//! for Dynamical Core of Atmospheric General Circulation Model"
//! (ICPP 2018).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod access;
pub mod adaptation;
pub mod advection;
pub mod analysis;
pub mod boundary;
pub mod config;
pub mod diag;
pub mod diagnostics;
pub mod dycore;
pub mod error;
pub mod filterop;
pub mod forcing;
pub mod geometry;
#[cfg(test)]
mod golden;
pub mod init;
pub mod integrator;
pub(crate) mod lanes;
pub mod par;
pub mod pool;
pub mod resilience;
pub mod serial;
pub mod smoothing;
pub mod state;
pub mod stdatm;
pub mod sweep;
pub mod tables;
pub mod vertical;

pub use config::ModelConfig;
pub use geometry::{LocalGeometry, Region};
pub use integrator::Integrator;
pub use resilience::{
    checkpoint_path, common_checkpoint_step, latest_checkpoint_step, list_checkpoints,
    prune_checkpoints, read_checkpoint, redistribute, resize_retention, write_checkpoint,
    Checkpoint, CheckpointRing, ResilienceConfig, ResilienceError, ResilientRunner, RunReport,
};
pub use state::State;
