//! Error types of the mesh crate.

use std::fmt;

/// Errors arising from grid or decomposition construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshError {
    /// Grid extents too small for the discretization.
    InvalidGrid {
        /// Longitude points requested.
        nx: usize,
        /// Latitude rows requested.
        ny: usize,
        /// Vertical levels requested.
        nz: usize,
    },
    /// σ interfaces are malformed.
    InvalidSigma(String),
    /// A process-grid dimension was zero.
    InvalidProcessGrid {
        /// Processes along x.
        px: usize,
        /// Processes along y.
        py: usize,
        /// Processes along z.
        pz: usize,
    },
    /// More processes than mesh points along some axis.
    Oversubscribed {
        /// Longitude points.
        nx: usize,
        /// Latitude rows.
        ny: usize,
        /// Vertical levels.
        nz: usize,
        /// Processes along x.
        px: usize,
        /// Processes along y.
        py: usize,
        /// Processes along z.
        pz: usize,
    },
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::InvalidGrid { nx, ny, nz } => {
                write!(
                    f,
                    "grid {nx}x{ny}x{nz} is too small (need nx,ny >= 4, nz >= 1)"
                )
            }
            MeshError::InvalidSigma(msg) => write!(f, "invalid sigma levels: {msg}"),
            MeshError::InvalidProcessGrid { px, py, pz } => {
                write!(f, "process grid {px}x{py}x{pz} has a zero dimension")
            }
            MeshError::Oversubscribed {
                nx,
                ny,
                nz,
                px,
                py,
                pz,
            } => write!(
                f,
                "process grid {px}x{py}x{pz} oversubscribes mesh {nx}x{ny}x{nz}"
            ),
        }
    }
}

impl std::error::Error for MeshError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = MeshError::InvalidGrid {
            nx: 1,
            ny: 2,
            nz: 3,
        };
        assert!(e.to_string().contains("1x2x3"));
        let e = MeshError::Oversubscribed {
            nx: 8,
            ny: 8,
            nz: 2,
            px: 1,
            py: 1,
            pz: 4,
        };
        assert!(e.to_string().contains("oversubscribes"));
        let e = MeshError::InvalidSigma("bad".into());
        assert!(e.to_string().contains("bad"));
        let e = MeshError::InvalidProcessGrid {
            px: 0,
            py: 1,
            pz: 1,
        };
        assert!(e.to_string().contains("zero"));
    }
}
