//! Error types of the communication runtime.

use std::fmt;
use std::time::Duration;

/// Errors surfaced by the message-passing runtime.
///
/// A real MPI job would abort on most of these; the simulated runtime turns
/// them into values so tests can inject failures and assert on the exact
/// failure mode (deadlock, size mismatch, invalid rank, peer failure).
#[derive(Debug, Clone, PartialEq)]
pub enum CommError {
    /// A receive matched no message within the deadlock timeout.
    DeadlockTimeout {
        /// Receiving rank (within its communicator).
        rank: usize,
        /// Expected source rank.
        src: usize,
        /// Expected tag.
        tag: u32,
        /// How long the receive waited.
        waited: Duration,
        /// Operator phase active on the receiving thread.
        phase: agcm_obs::Phase,
        /// Messages this rank had sent when the wait gave up (a fault
        /// plan installed with the world counts the same sends — see
        /// [`crate::FaultPlan`]).
        events_so_far: u64,
    },
    /// A rank index was outside `0..size`.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// Communicator size.
        size: usize,
    },
    /// A received message had a different length than the receiver expected.
    SizeMismatch {
        /// Expected number of `f64` values.
        expected: usize,
        /// Received number of `f64` values.
        got: usize,
        /// Source rank of the offending message (communicator-local).
        src: usize,
        /// Tag of the offending message.
        tag: u32,
    },
    /// The peer's mailbox is gone (its thread panicked or returned early).
    PeerGone {
        /// The unreachable peer (global rank).
        peer: usize,
    },
    /// A peer rank panicked mid-run and poisoned the mailboxes; the
    /// operation can never complete.
    PeerFailed {
        /// The failed peer (global rank).
        peer: usize,
    },
    /// A collective was called with inconsistent arguments across ranks.
    CollectiveMismatch(String),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::DeadlockTimeout {
                rank,
                src,
                tag,
                waited,
                phase,
                events_so_far,
            } => write!(
                f,
                "rank {rank}: no message from src {src} tag {tag} after {waited:?} \
                 (phase {phase:?}, {events_so_far} events so far; deadlock?)"
            ),
            CommError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} outside communicator of size {size}")
            }
            CommError::SizeMismatch {
                expected,
                got,
                src,
                tag,
            } => {
                write!(
                    f,
                    "message size mismatch from src {src} tag {tag}: \
                     expected {expected}, got {got}"
                )
            }
            CommError::PeerGone { peer } => write!(f, "peer rank {peer} is gone"),
            CommError::PeerFailed { peer } => {
                write!(f, "peer rank {peer} failed (panicked mid-run)")
            }
            CommError::CollectiveMismatch(m) => write!(f, "collective mismatch: {m}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Convenience alias.
pub type CommResult<T> = Result<T, CommError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = CommError::DeadlockTimeout {
            rank: 1,
            src: 0,
            tag: 7,
            waited: Duration::from_secs(3),
            phase: agcm_obs::Phase::Other,
            events_so_far: 12,
        };
        assert!(e.to_string().contains("deadlock"));
        assert!(e.to_string().contains("12 events"));
        assert!(CommError::InvalidRank { rank: 9, size: 4 }
            .to_string()
            .contains("size 4"));
        let sm = CommError::SizeMismatch {
            expected: 3,
            got: 4,
            src: 2,
            tag: 0x55,
        };
        assert!(sm.to_string().contains("expected 3"));
        assert!(sm.to_string().contains("src 2"));
        assert!(CommError::PeerGone { peer: 2 }.to_string().contains("2"));
        assert!(CommError::PeerFailed { peer: 3 }
            .to_string()
            .contains("panicked"));
        assert!(CommError::CollectiveMismatch("x".into())
            .to_string()
            .contains("x"));
    }
}
