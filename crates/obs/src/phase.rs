//! Operator phases of the dynamical core.
//!
//! The paper's accounting is per operator: the adaptation stencil `Â`, the
//! z-collective summation `Ĉ`, the Fourier filter `F̃`, the advection
//! stencil `L̃` and the two halves of the split smoothing `S = S₁ + S₂`
//! (§4.3.2: the *former* smoothing overlaps the deep exchange, the *later*
//! smoothing completes edge and halo rows after the messages arrive).
//! Every trace span and every [`agcm_comm`-recorded] collective event is
//! tagged with the phase active when it happened, so per-figure deltas no
//! longer rely on snapshot bracketing alone.
//!
//! The current phase is a per-thread cell maintained by span guards
//! ([`crate::span_phase`]); reading it ([`current_phase`]) is how the
//! communication layer tags its events without knowing any model code.

use std::cell::Cell;

/// The operator a span or communication event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Phase {
    /// Adaptation stencil `Â`.
    A,
    /// Summation collective `Ĉ` (z-direction global computation).
    C,
    /// Fourier filter `F̃`.
    F,
    /// Advection stencil `L̃`.
    L,
    /// Former smoothing `S₁` (full smoothing in Algorithm 1; the
    /// exchange-overlapped interior part in Algorithm 2).
    S1,
    /// Later smoothing `S₂` (Algorithm 2 only: edge + halo completion).
    S2,
    /// Outside any operator (setup, gather, harness).
    #[default]
    Other,
}

impl Phase {
    /// Short stable label (used in exporter output and metric names).
    pub fn label(self) -> &'static str {
        match self {
            Phase::A => "A",
            Phase::C => "C",
            Phase::F => "F",
            Phase::L => "L",
            Phase::S1 => "S1",
            Phase::S2 => "S2",
            Phase::Other => "other",
        }
    }

    /// All operator phases (excludes [`Phase::Other`]).
    pub const OPERATORS: [Phase; 6] =
        [Phase::A, Phase::C, Phase::F, Phase::L, Phase::S1, Phase::S2];
}

thread_local! {
    static CURRENT: Cell<Phase> = const { Cell::new(Phase::Other) };
}

/// The operator phase currently active on this thread ([`Phase::Other`]
/// outside any phase span).
#[inline]
pub fn current_phase() -> Phase {
    CURRENT.with(|c| c.get())
}

/// Set the current phase, returning the previous one (span guards restore
/// it on drop).
#[inline]
pub(crate) fn swap_phase(p: Phase) -> Phase {
    CURRENT.with(|c| c.replace(p))
}
