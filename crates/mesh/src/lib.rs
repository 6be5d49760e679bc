//! # agcm-mesh — latitude–longitude mesh substrate
//!
//! Grid geometry, domain decomposition, field storage and halo planning for
//! the communication-avoiding AGCM dynamical core (Xiao et al., ICPP 2018).
//!
//! This crate is deliberately free of any message-passing: it describes
//! *what* lives *where* and *which boxes must move*, leaving *how* they move
//! to `agcm-comm`.  That separation lets the benchmark harness compute exact
//! communication volumes (for the paper's Figures 6-8) from the very same
//! geometry the executing code uses.
//!
//! ## Modules
//!
//! * [`grid`] — global lat-lon mesh with Arakawa C staggering and σ levels,
//! * [`stencil`] — stencil footprints (the paper's Tables 1-3 as data),
//! * [`decomp`] — X-Y / Y-Z / 3-D domain decomposition,
//! * [`field`] — flat-array field storage with halos,
//! * [`band`] — mutable latitude-row bands of a field (the worker pool's
//!   split axis),
//! * [`halo`] — halo exchange planning (Figure 4's eight halo areas),
//! * `sanitize` — runtime access sanitizer (feature `access-sanitizer`):
//!   shadow-records the index ranges kernels actually touch so tests can
//!   diff them against the declared `AccessSpec` footprints.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod band;
pub mod decomp;
pub mod error;
pub mod field;
pub mod grid;
pub mod halo;
#[cfg(feature = "access-sanitizer")]
pub mod sanitize;
pub mod stencil;

pub use band::{RowBand, RowBand2, RowBand3, MAX_BAND_PLANES};
pub use decomp::{DecompKind, Decomposition, NeighborLink, ProcessGrid, Subdomain};
pub use error::MeshError;
pub use field::{Field2, Field3, HaloWidths};
pub use grid::{constants, LatLonGrid, SigmaLevels};
pub use halo::{BoxRange, ExchangePlan, ExchangeSpec};
pub use stencil::{Axis, AxisOffsets, StencilFootprint};
