//! Domain decomposition of the latitude–longitude mesh.
//!
//! The dynamical core distributes the `nx × ny × nz` mesh over a cartesian
//! grid of `p = px·py·pz` processes (§3 of the paper).  Three schemes appear
//! in the paper:
//!
//! * **X-Y decomposition** (`pz = 1`): avoids the collective along `z` in the
//!   summation operator `C` but forces a distributed FFT for the Fourier
//!   filtering `F`,
//! * **Y-Z decomposition** (`px = 1`): each rank owns full latitude circles,
//!   so `F` involves no communication (§4.2.1) — the scheme chosen by the
//!   communication-avoiding algorithm,
//! * a general 3-D decomposition, mentioned by the paper as less efficient in
//!   practice; implemented here as a baseline for ablation.
//!
//! Axis periodicity: `x` (longitude) is periodic; `y` ends at the poles and
//! `z` at the model top/surface, so those directions have boundaries, not
//! wrap-around neighbours.

use crate::error::MeshError;
use std::ops::Range;

/// A cartesian grid of processes over the mesh directions.
///
/// Rank numbering is x-fastest: `rank = cx + cy·px + cz·px·py`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessGrid {
    px: usize,
    py: usize,
    pz: usize,
}

impl ProcessGrid {
    /// General constructor.
    pub fn new(px: usize, py: usize, pz: usize) -> Result<Self, MeshError> {
        if px == 0 || py == 0 || pz == 0 {
            return Err(MeshError::InvalidProcessGrid { px, py, pz });
        }
        Ok(ProcessGrid { px, py, pz })
    }

    /// X-Y decomposition: `px × py × 1`.
    pub fn xy(px: usize, py: usize) -> Result<Self, MeshError> {
        Self::new(px, py, 1)
    }

    /// Y-Z decomposition: `1 × py × pz`.
    pub fn yz(py: usize, pz: usize) -> Result<Self, MeshError> {
        Self::new(1, py, pz)
    }

    /// Serial (single process).
    pub fn serial() -> Self {
        ProcessGrid {
            px: 1,
            py: 1,
            pz: 1,
        }
    }

    /// Process counts along each direction.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.px, self.py, self.pz)
    }

    /// `px`.
    pub fn px(&self) -> usize {
        self.px
    }

    /// `py`.
    pub fn py(&self) -> usize {
        self.py
    }

    /// `pz`.
    pub fn pz(&self) -> usize {
        self.pz
    }

    /// Total process count `p = px·py·pz`.
    pub fn size(&self) -> usize {
        self.px * self.py * self.pz
    }

    /// Cartesian coordinates of `rank`.
    pub fn coords(&self, rank: usize) -> (usize, usize, usize) {
        debug_assert!(rank < self.size());
        let cx = rank % self.px;
        let cy = (rank / self.px) % self.py;
        let cz = rank / (self.px * self.py);
        (cx, cy, cz)
    }

    /// Rank of cartesian coordinates.
    pub fn rank(&self, cx: usize, cy: usize, cz: usize) -> usize {
        debug_assert!(cx < self.px && cy < self.py && cz < self.pz);
        cx + cy * self.px + cz * self.px * self.py
    }

    /// The rank at coordinate offset `(dx, dy, dz)` from `rank`, honouring
    /// periodicity (x wraps, y and z do not).  `None` when the offset walks
    /// off a non-periodic boundary.
    fn neighbor(&self, rank: usize, dx: i32, dy: i32, dz: i32) -> Option<usize> {
        let (cx, cy, cz) = self.coords(rank);
        let nxt = |c: usize, d: i32, p: usize, periodic: bool| -> Option<usize> {
            let t = c as i64 + d as i64;
            if periodic {
                Some(t.rem_euclid(p as i64) as usize)
            } else if (0..p as i64).contains(&t) {
                Some(t as usize)
            } else {
                None
            }
        };
        let cx = nxt(cx, dx, self.px, true)?;
        let cy = nxt(cy, dy, self.py, false)?;
        let cz = nxt(cz, dz, self.pz, false)?;
        Some(self.rank(cx, cy, cz))
    }
}

/// Balanced 1-D block partition of `n` items over `p` parts: the first
/// `n mod p` parts get `⌈n/p⌉` items, the rest `⌊n/p⌋`.
pub fn block_range(n: usize, p: usize, r: usize) -> Range<usize> {
    debug_assert!(p > 0 && r < p);
    let base = n / p;
    let rem = n % p;
    let start = r * base + r.min(rem);
    let len = base + usize::from(r < rem);
    start..start + len
}

/// The portion of the global mesh owned by one rank: half-open global index
/// ranges along each axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subdomain {
    /// Owning rank.
    pub rank: usize,
    /// Cartesian coordinates of the rank in the process grid.
    pub coords: (usize, usize, usize),
    /// Global x (longitude) indices owned.
    pub x: Range<usize>,
    /// Global y (latitude) indices owned.
    pub y: Range<usize>,
    /// Global z (level) indices owned.
    pub z: Range<usize>,
}

impl Subdomain {
    /// Local extents `(nx_local, ny_local, nz_local)`.
    pub fn extents(&self) -> (usize, usize, usize) {
        (self.x.len(), self.y.len(), self.z.len())
    }

    /// Number of owned mesh points.
    pub fn len(&self) -> usize {
        self.x.len() * self.y.len() * self.z.len()
    }

    /// True when the subdomain owns no points (can happen when `p` exceeds
    /// the axis extent; such configurations are rejected by
    /// [`Decomposition::new`], so owned subdomains are never empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this subdomain touches the north pole boundary (`j = 0`).
    pub fn at_north(&self) -> bool {
        self.y.start == 0
    }

    /// Whether this subdomain touches the south pole boundary.
    pub fn at_south(&self, ny: usize) -> bool {
        self.y.end == ny
    }

    /// Whether this subdomain includes the model top (`k = 0`).
    pub fn at_top(&self) -> bool {
        self.z.start == 0
    }

    /// Whether this subdomain includes the surface level.
    pub fn at_surface(&self, nz: usize) -> bool {
        self.z.end == nz
    }
}

/// A full decomposition: global mesh extents + process grid, with subdomain
/// and neighbourhood queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    nx: usize,
    ny: usize,
    nz: usize,
    pgrid: ProcessGrid,
}

impl Decomposition {
    /// Create a decomposition.  Every rank must own at least one point along
    /// every axis (`px ≤ nx`, `py ≤ ny`, `pz ≤ nz`).
    pub fn new((nx, ny, nz): (usize, usize, usize), pgrid: ProcessGrid) -> Result<Self, MeshError> {
        if pgrid.px() > nx || pgrid.py() > ny || pgrid.pz() > nz {
            return Err(MeshError::Oversubscribed {
                nx,
                ny,
                nz,
                px: pgrid.px(),
                py: pgrid.py(),
                pz: pgrid.pz(),
            });
        }
        Ok(Decomposition { nx, ny, nz, pgrid })
    }

    /// Global mesh extents.
    pub fn global_extents(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// The process grid.
    pub fn process_grid(&self) -> &ProcessGrid {
        &self.pgrid
    }

    /// Total process count.
    pub fn size(&self) -> usize {
        self.pgrid.size()
    }

    /// Subdomain of `rank`.
    pub fn subdomain(&self, rank: usize) -> Subdomain {
        let coords = self.pgrid.coords(rank);
        Subdomain {
            rank,
            coords,
            x: block_range(self.nx, self.pgrid.px(), coords.0),
            y: block_range(self.ny, self.pgrid.py(), coords.1),
            z: block_range(self.nz, self.pgrid.pz(), coords.2),
        }
    }

    /// All subdomains, indexed by rank.
    pub fn subdomains(&self) -> Vec<Subdomain> {
        (0..self.size()).map(|r| self.subdomain(r)).collect()
    }

    /// Rank owning global point `(i, j, k)`.
    pub fn owner(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        let find = |n: usize, p: usize, g: usize| -> usize {
            // invert block_range
            let base = n / p;
            let rem = n % p;
            let cut = rem * (base + 1);
            if g < cut {
                g / (base + 1)
            } else {
                rem + (g - cut) / base.max(1)
            }
        };
        let cx = find(self.nx, self.pgrid.px(), i);
        let cy = find(self.ny, self.pgrid.py(), j);
        let cz = find(self.nz, self.pgrid.pz(), k);
        self.pgrid.rank(cx, cy, cz)
    }

    /// The neighbouring ranks of `rank` within coordinate offset 1 in any
    /// combination of decomposed directions (up to 26 in 3-D; the paper's
    /// "eight neighbors" under a 2-D decomposition).  Offsets along
    /// non-decomposed axes (`p_axis == 1`) are skipped: a rank is never its
    /// own neighbour, and periodic wrap to itself is excluded.
    pub fn neighbors(&self, rank: usize) -> Vec<NeighborLink> {
        let (px, py, pz) = self.pgrid.dims();
        let mut out = Vec::new();
        for dz in -1i32..=1 {
            if pz == 1 && dz != 0 {
                continue;
            }
            for dy in -1i32..=1 {
                if py == 1 && dy != 0 {
                    continue;
                }
                for dx in -1i32..=1 {
                    if px == 1 && dx != 0 {
                        continue;
                    }
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    if let Some(nr) = self.pgrid.neighbor(rank, dx, dy, dz) {
                        if nr != rank {
                            out.push(NeighborLink {
                                rank: nr,
                                offset: (dx, dy, dz),
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// A link to a neighbouring rank, annotated with the coordinate offset in the
/// process grid (each component in {-1, 0, 1}).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborLink {
    /// Neighbouring rank.
    pub rank: usize,
    /// Process-grid coordinate offset from the owner to the neighbour.
    pub offset: (i32, i32, i32),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_balanced() {
        // 10 items over 3 parts: 4,3,3
        assert_eq!(block_range(10, 3, 0), 0..4);
        assert_eq!(block_range(10, 3, 1), 4..7);
        assert_eq!(block_range(10, 3, 2), 7..10);
        // exact division
        assert_eq!(block_range(8, 4, 2), 4..6);
    }

    #[test]
    fn block_range_covers_disjoint() {
        for n in [1usize, 7, 16, 33] {
            for p in 1..=n {
                let mut covered = vec![false; n];
                for r in 0..p {
                    for g in block_range(n, p, r) {
                        assert!(!covered[g], "overlap at {g} (n={n}, p={p})");
                        covered[g] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "gap (n={n}, p={p})");
            }
        }
    }

    #[test]
    fn process_grid_kinds() {
        assert_eq!(ProcessGrid::serial().dims(), (1, 1, 1));
        assert_eq!(ProcessGrid::xy(4, 2).unwrap().dims(), (4, 2, 1));
        assert_eq!(ProcessGrid::yz(4, 2).unwrap().dims(), (1, 4, 2));
        assert_eq!(ProcessGrid::new(2, 2, 2).unwrap().dims(), (2, 2, 2));
        assert!(ProcessGrid::new(0, 1, 1).is_err());
    }

    #[test]
    fn rank_coords_roundtrip() {
        let g = ProcessGrid::new(3, 4, 2).unwrap();
        assert_eq!(g.size(), 24);
        for r in 0..g.size() {
            let (cx, cy, cz) = g.coords(r);
            assert_eq!(g.rank(cx, cy, cz), r);
        }
    }

    #[test]
    fn neighbor_periodicity() {
        let g = ProcessGrid::new(4, 3, 2).unwrap();
        let r = g.rank(0, 1, 0);
        // x wraps
        assert_eq!(g.neighbor(r, -1, 0, 0), Some(g.rank(3, 1, 0)));
        // y does not wrap at the pole
        let rn = g.rank(1, 0, 0);
        assert_eq!(g.neighbor(rn, 0, -1, 0), None);
        assert_eq!(g.neighbor(rn, 0, 1, 0), Some(g.rank(1, 1, 0)));
        // z does not wrap
        assert_eq!(g.neighbor(r, 0, 0, -1), None);
    }

    #[test]
    fn decomposition_tiles_mesh() {
        let d = Decomposition::new((16, 12, 8), ProcessGrid::new(2, 3, 2).unwrap()).unwrap();
        let total: usize = d.subdomains().iter().map(|s| s.len()).sum();
        assert_eq!(total, 16 * 12 * 8);
        // owner() is consistent with subdomain()
        for s in d.subdomains() {
            for k in s.z.clone() {
                for j in s.y.clone() {
                    for i in s.x.clone() {
                        assert_eq!(d.owner(i, j, k), s.rank);
                    }
                }
            }
        }
    }

    #[test]
    fn yz_neighbors_are_eight() {
        // Interior rank of a Y-Z decomposition has exactly the paper's
        // "eight neighbors" (Figure 4).
        let d = Decomposition::new((8, 12, 9), ProcessGrid::yz(4, 3).unwrap()).unwrap();
        let g = d.process_grid();
        let interior = g.rank(0, 1, 1); // middle of 4x3 (y,z) grid
        assert_eq!(d.neighbors(interior).len(), 8);
        // corner rank (north pole, model top) has 3
        let corner = g.rank(0, 0, 0);
        assert_eq!(d.neighbors(corner).len(), 3);
    }

    #[test]
    fn xy_neighbors_wrap_in_x() {
        let d = Decomposition::new((16, 12, 4), ProcessGrid::xy(4, 3).unwrap()).unwrap();
        let g = d.process_grid();
        let interior = g.rank(1, 1, 0);
        assert_eq!(d.neighbors(interior).len(), 8);
        // north-row rank still has x neighbours both ways thanks to wrap
        let north = g.rank(0, 0, 0);
        let n = d.neighbors(north);
        assert_eq!(n.len(), 5); // W, E, S, SW, SE
        assert!(n.iter().any(|l| l.offset == (-1, 0, 0)));
        assert!(n.iter().any(|l| l.offset == (1, 0, 0)));
    }

    #[test]
    fn px2_wraps_but_excludes_self() {
        // with px = 2, offsets -1 and +1 reach the same neighbour (listed
        // twice, once per offset) but never the rank itself
        let d = Decomposition::new((8, 8, 4), ProcessGrid::xy(2, 2).unwrap()).unwrap();
        let n = d.neighbors(0);
        assert!(n.iter().all(|l| l.rank != 0));
    }

    #[test]
    fn oversubscription_rejected() {
        assert!(Decomposition::new((8, 8, 2), ProcessGrid::new(1, 1, 4).unwrap()).is_err());
        assert!(Decomposition::new((8, 8, 2), ProcessGrid::new(16, 1, 1).unwrap()).is_err());
    }

    #[test]
    fn subdomain_boundary_flags() {
        let d = Decomposition::new((8, 12, 9), ProcessGrid::yz(3, 3).unwrap()).unwrap();
        let g = d.process_grid();
        let s = d.subdomain(g.rank(0, 0, 0));
        assert!(s.at_north() && !s.at_south(12) && s.at_top() && !s.at_surface(9));
        let s = d.subdomain(g.rank(0, 2, 2));
        assert!(!s.at_north() && s.at_south(12) && !s.at_top() && s.at_surface(9));
    }

    #[test]
    fn serial_decomposition() {
        let d = Decomposition::new((8, 8, 4), ProcessGrid::serial()).unwrap();
        assert_eq!(d.size(), 1);
        let s = d.subdomain(0);
        assert_eq!(s.extents(), (8, 8, 4));
        assert!(d.neighbors(0).is_empty());
    }
}
