//! Per-rank geometry: the owned subdomain plus trigonometric and σ tables
//! extended into the halo.
//!
//! Halo rows beyond the poles (and layers beyond the model top/surface) are
//! fictitious mirror rows — the free-slip-wall boundary described in
//! `boundary.rs`.  Their geometric factors are mirrored so that operator
//! loops can sweep interior and halo uniformly, without per-row branches.

use crate::config::ModelConfig;
use agcm_mesh::{Decomposition, HaloWidths, LatLonGrid, Subdomain};
use std::sync::Arc;

/// A rectangular compute region in local coordinates: all owned longitudes
/// (x is never split in the algorithms that use regions) and the half-open
/// local ranges `[y0, y1) × [z0, z1)`, which may extend into the halo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First latitude row (inclusive, may be negative = halo).
    pub y0: isize,
    /// Last latitude row (exclusive).
    pub y1: isize,
    /// First level (inclusive, may be negative = halo).
    pub z0: isize,
    /// Last level (exclusive).
    pub z1: isize,
}

impl Region {
    /// The interior of a subdomain with local extents `(ny, nz)`.
    pub fn interior(ny: usize, nz: usize) -> Region {
        Region {
            y0: 0,
            y1: ny as isize,
            z0: 0,
            z1: nz as isize,
        }
    }

    /// Grow the region by `dy` rows and `dz` levels on each applicable side,
    /// clamped to the allocated halo `halo` around extents `(ny, nz)` and to
    /// the physical boundary: sides where the subdomain touches a pole /
    /// the model top / the surface do not grow (there is no neighbour data
    /// there — the boundary condition fills those rows instead, and they are
    /// updated by the boundary fill, not by sweeps).
    #[allow(clippy::too_many_arguments)]
    pub fn dilate(
        &self,
        dy: isize,
        dz: isize,
        ny: usize,
        nz: usize,
        halo: HaloWidths,
        grow: GrowSides,
    ) -> Region {
        let y0 = if grow.north {
            (self.y0 - dy).max(-(halo.ym as isize))
        } else {
            self.y0
        };
        let y1 = if grow.south {
            (self.y1 + dy).min(ny as isize + halo.yp as isize)
        } else {
            self.y1
        };
        let z0 = if grow.top {
            (self.z0 - dz).max(-(halo.zm as isize))
        } else {
            self.z0
        };
        let z1 = if grow.bottom {
            (self.z1 + dz).min(nz as isize + halo.zp as isize)
        } else {
            self.z1
        };
        Region { y0, y1, z0, z1 }
    }

    /// Shrink the region by `dy` rows / `dz` levels on the sides of `grow`
    /// — the sides whose halo an exchange in flight has yet to fill; a side
    /// on a pole, the model top or the surface reads boundary-filled rows
    /// and keeps its edge — never past empty.
    pub fn shrink(&self, dy: isize, dz: isize, grow: GrowSides) -> Region {
        let by = |on: bool, d: isize| if on { d } else { 0 };
        let mut r = Region {
            y0: self.y0 + by(grow.north, dy),
            y1: self.y1 - by(grow.south, dy),
            z0: self.z0 + by(grow.top, dz),
            z1: self.z1 - by(grow.bottom, dz),
        };
        if r.y0 > r.y1 {
            let m = (self.y0 + self.y1) / 2;
            r.y0 = m;
            r.y1 = m;
        }
        if r.z0 > r.z1 {
            let m = (self.z0 + self.z1) / 2;
            r.z0 = m;
            r.z1 = m;
        }
        r
    }

    /// Number of `(j, k)` columns in the region.
    pub fn area(&self) -> usize {
        ((self.y1 - self.y0).max(0) * (self.z1 - self.z0).max(0)) as usize
    }

    /// Whether the region covers nothing.
    pub fn is_empty(&self) -> bool {
        self.area() == 0
    }

    /// Whether `other` is fully inside `self`.
    pub fn contains(&self, other: &Region) -> bool {
        self.y0 <= other.y0 && other.y1 <= self.y1 && self.z0 <= other.z0 && other.z1 <= self.z1
    }
}

/// Decompose `outer \ inner` into at most four disjoint rectangles (north /
/// south full-width strips, then top / bottom strips of the remaining
/// middle band), empty ones skipped.  `inner` must be contained in `outer`.
/// Used by the overlap scheme: the *inner* part computes while messages
/// fly; the frame strips are swept after the halos arrive (§4.3.1).
pub fn frame(outer: &Region, inner: &Region) -> impl Iterator<Item = Region> {
    debug_assert!(outer.contains(inner));
    let (o, i) = (*outer, *inner);
    let strip = |y0, y1, z0, z1| Region { y0, y1, z0, z1 };
    [
        strip(o.y0, i.y0, o.z0, o.z1),
        strip(i.y1, o.y1, o.z0, o.z1),
        strip(i.y0, i.y1, o.z0, i.z0),
        strip(i.y0, i.y1, i.z1, o.z1),
    ]
    .into_iter()
    .filter(|r| !r.is_empty())
}

/// Which sides of a region may grow into the halo (sides facing a real
/// neighbour, as opposed to a physical boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrowSides {
    /// Low-y side has a neighbour.
    pub north: bool,
    /// High-y side has a neighbour.
    pub south: bool,
    /// Low-z side has a neighbour.
    pub top: bool,
    /// High-z side has a neighbour.
    pub bottom: bool,
}

impl GrowSides {
    /// The sides of `sub` that face a neighbour on an `ny`-row, `nz`-level
    /// mesh.
    pub fn of(sub: &Subdomain, ny: usize, nz: usize) -> Self {
        GrowSides {
            north: !sub.at_north(),
            south: !sub.at_south(ny),
            top: !sub.at_top(),
            bottom: !sub.at_surface(nz),
        }
    }
}

/// Everything an operator loop needs about the local patch of the sphere.
#[derive(Debug, Clone)]
pub struct LocalGeometry {
    /// The global grid.
    pub grid: Arc<LatLonGrid>,
    /// This rank's subdomain.
    pub sub: Subdomain,
    /// Halo widths the state fields carry.
    pub halo: HaloWidths,
    /// Local interior extents.
    pub nx: usize,
    /// Local latitude rows.
    pub ny: usize,
    /// Local levels.
    pub nz: usize,
    // trig tables indexed by (local j + y_off), covering the halo
    sin_c: Vec<f64>,
    cos_c: Vec<f64>,
    sin_v: Vec<f64>,
    cos_v: Vec<f64>,
    y_off: usize,
    // σ tables indexed by (local k + z_off)
    sigma_c: Vec<f64>,
    dsigma: Vec<f64>,
    /// σ at the interface *below* centre k (i.e. `σ_{k-1/2}`), same indexing.
    sigma_lo: Vec<f64>,
    z_off: usize,
}

impl LocalGeometry {
    /// Build the local geometry of `rank` under `decomp` for a model `cfg`
    /// with fields carrying `halo`.
    pub fn new(
        cfg: &ModelConfig,
        grid: Arc<LatLonGrid>,
        decomp: &Decomposition,
        rank: usize,
        halo: HaloWidths,
    ) -> Self {
        let sub = decomp.subdomain(rank);
        let (nx, ny, nz) = sub.extents();
        debug_assert_eq!(grid.nx(), cfg.nx);
        let gny = grid.ny();
        let gnz = grid.nz();

        // --- latitude tables with mirrored halo rows ---
        let y_off = halo.ym;
        let rows = ny + halo.ym + halo.yp;
        let mut sin_c = Vec::with_capacity(rows);
        let mut cos_c = Vec::with_capacity(rows);
        let mut sin_v = Vec::with_capacity(rows);
        let mut cos_v = Vec::with_capacity(rows);
        // mirror a global scalar-row index into [0, gny)
        let mirror = |g: i64, n: i64| -> usize {
            let mut g = g;
            if g < 0 {
                g = -1 - g;
            }
            if g >= n {
                g = 2 * n - 1 - g;
            }
            g.clamp(0, n - 1) as usize
        };
        for jl in 0..rows as i64 {
            let g = sub.y.start as i64 + jl - y_off as i64;
            let m = mirror(g, gny as i64);
            sin_c.push(grid.sin_center()[m]);
            cos_c.push(grid.cos_center()[m]);
            // V faces: face g sits at θ_{g+1}; face -1 is the north pole,
            // face gny-1 the south pole.  Mirror about the poles: face
            // -1-d ↔ face -1+d, face (gny-1)+d ↔ face (gny-1)-d.
            let gv = g; // faces share the row indexing
            let mv: i64 = if gv < -1 {
                -2 - gv // face -1-d -> face d-1... (-1 - (gv+1)) reflected
            } else if gv > gny as i64 - 1 {
                2 * (gny as i64 - 1) - gv
            } else {
                gv
            };
            if mv == -1 || mv >= gny as i64 - 1 {
                // a pole face (north pole = face −1, south pole = face
                // gny−1, which is a *stored* row): sinθ = 0 exactly
                sin_v.push(0.0);
                cos_v.push(if g < 0 { 1.0 } else { -1.0 });
            } else {
                let mvu = mv.clamp(0, gny as i64 - 1) as usize;
                sin_v.push(grid.sin_vface()[mvu]);
                cos_v.push(grid.cos_vface()[mvu]);
            }
        }

        // --- σ tables with linearly extended halo levels ---
        let z_off = halo.zm;
        let levels = nz + halo.zm + halo.zp;
        let sig = grid.sigma();
        let mut sigma_c = Vec::with_capacity(levels);
        let mut dsigma = Vec::with_capacity(levels);
        let mut sigma_lo = Vec::with_capacity(levels);
        for kl in 0..levels as i64 {
            let g = sub.z.start as i64 + kl - z_off as i64;
            if (0..gnz as i64).contains(&g) {
                let gu = g as usize;
                sigma_c.push(sig.centers()[gu]);
                dsigma.push(sig.thickness()[gu]);
                sigma_lo.push(sig.interfaces()[gu]);
            } else if g < 0 {
                // extend above the top with the first thickness
                let d = sig.thickness()[0];
                sigma_c.push(sig.centers()[0] + g as f64 * d);
                dsigma.push(d);
                sigma_lo.push(sig.interfaces()[0] + g as f64 * d);
            } else {
                let d = sig.thickness()[gnz - 1];
                let over = (g - gnz as i64 + 1) as f64;
                sigma_c.push(sig.centers()[gnz - 1] + over * d);
                dsigma.push(d);
                sigma_lo.push(sig.interfaces()[gnz - 1] + over * d);
            }
        }

        LocalGeometry {
            grid,
            sub,
            halo,
            nx,
            ny,
            nz,
            sin_c,
            cos_c,
            sin_v,
            cos_v,
            y_off,
            sigma_c,
            dsigma,
            sigma_lo,
            z_off,
        }
    }

    /// `sin θ` at scalar row `jl` (local, halo reachable).
    #[inline]
    pub fn sin_c(&self, jl: isize) -> f64 {
        self.sin_c[(jl + self.y_off as isize) as usize]
    }

    /// `cos θ` at scalar row `jl`.
    #[inline]
    pub fn cos_c(&self, jl: isize) -> f64 {
        self.cos_c[(jl + self.y_off as isize) as usize]
    }

    /// `sin θ` at the V face below row `jl` (face between rows `jl`,`jl+1`).
    #[inline]
    pub fn sin_v(&self, jl: isize) -> f64 {
        self.sin_v[(jl + self.y_off as isize) as usize]
    }

    /// `cos θ` at the V face below row `jl`.
    #[inline]
    pub fn cos_v(&self, jl: isize) -> f64 {
        self.cos_v[(jl + self.y_off as isize) as usize]
    }

    /// σ at level centre `kl`.
    #[inline]
    pub fn sigma_c(&self, kl: isize) -> f64 {
        self.sigma_c[(kl + self.z_off as isize) as usize]
    }

    /// `Δσ` of level `kl`.
    #[inline]
    pub fn dsigma(&self, kl: isize) -> f64 {
        self.dsigma[(kl + self.z_off as isize) as usize]
    }

    /// σ at the interface below centre `kl` (`σ_{k-1/2}`).
    #[inline]
    pub fn sigma_lo(&self, kl: isize) -> f64 {
        self.sigma_lo[(kl + self.z_off as isize) as usize]
    }

    /// Global latitude row of local row `jl` (may fall outside `[0, ny)` in
    /// the halo).
    #[inline]
    pub fn global_j(&self, jl: isize) -> i64 {
        self.sub.y.start as i64 + jl as i64
    }

    /// Global level of local level `kl`.
    #[inline]
    pub fn global_k(&self, kl: isize) -> i64 {
        self.sub.z.start as i64 + kl as i64
    }

    /// Whether this rank's subdomain touches the north pole.
    pub fn at_north(&self) -> bool {
        self.sub.at_north()
    }

    /// Whether this rank's subdomain touches the south pole.
    pub fn at_south(&self) -> bool {
        self.sub.at_south(self.grid.ny())
    }

    /// Whether this rank owns the model-top level.
    pub fn at_top(&self) -> bool {
        self.sub.at_top()
    }

    /// Whether this rank owns the surface level.
    pub fn at_surface(&self) -> bool {
        self.sub.at_surface(self.grid.nz())
    }

    /// Which region sides may grow into exchanged halo (true where a real
    /// neighbour exists).
    pub fn grow_sides(&self) -> GrowSides {
        GrowSides::of(&self.sub, self.grid.ny(), self.grid.nz())
    }

    /// The interior region of this rank.
    pub fn interior(&self) -> Region {
        Region::interior(self.ny, self.nz)
    }

    /// Longitude spacing.
    #[inline]
    pub fn dlambda(&self) -> f64 {
        self.grid.dlambda()
    }

    /// Latitude spacing.
    #[inline]
    pub fn dtheta(&self) -> f64 {
        self.grid.dtheta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_mesh::ProcessGrid;

    fn geom(py: usize, pz: usize, rank: usize, halo: HaloWidths) -> LocalGeometry {
        let cfg = ModelConfig::test_medium(); // 24 x 16 x 8
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), ProcessGrid::yz(py, pz).unwrap()).unwrap();
        LocalGeometry::new(&cfg, grid, &d, rank, halo)
    }

    #[test]
    fn interior_tables_match_grid() {
        let g = geom(2, 2, 3, HaloWidths::uniform(2)); // cy=1, cz=1
        assert_eq!((g.ny, g.nz), (8, 4));
        let grid = Arc::clone(&g.grid);
        for jl in 0..g.ny as isize {
            let gj = g.global_j(jl) as usize;
            assert_eq!(g.sin_c(jl), grid.sin_center()[gj]);
            assert_eq!(g.cos_c(jl), grid.cos_center()[gj]);
        }
        for kl in 0..g.nz as isize {
            let gk = g.global_k(kl) as usize;
            assert_eq!(g.sigma_c(kl), grid.sigma().centers()[gk]);
            assert_eq!(g.dsigma(kl), grid.sigma().thickness()[gk]);
        }
    }

    #[test]
    fn halo_rows_mirror_at_pole() {
        // rank at the north pole: halo rows mirror rows 0,1,...
        let g = geom(2, 1, 0, HaloWidths::uniform(2));
        assert!(g.at_north());
        assert_eq!(g.sin_c(-1), g.sin_c(0));
        assert_eq!(g.sin_c(-2), g.sin_c(1));
        assert!(g.sin_c(-1) > 0.0, "mirrored sinθ stays positive");
        // pole V face has sinθ = 0
        assert_eq!(g.sin_v(-1), 0.0);
    }

    #[test]
    fn south_pole_mirror() {
        let cfg = ModelConfig::test_medium();
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), ProcessGrid::yz(2, 1).unwrap()).unwrap();
        let g = LocalGeometry::new(&cfg, grid, &d, 1, HaloWidths::uniform(2));
        assert!(g.at_south());
        let last = g.ny as isize - 1;
        assert_eq!(g.sin_c(last + 1), g.sin_c(last));
        // southernmost V face is the pole
        assert_eq!(g.sin_v(last), 0.0);
        assert!(g.sin_v(last + 1) > 0.0, "face beyond pole mirrors inward");
    }

    #[test]
    fn interior_rank_halo_rows_are_real() {
        // halo rows of a non-polar rank are real neighbouring latitudes
        let g = geom(2, 1, 1, HaloWidths::uniform(2));
        assert!(!g.at_north());
        let grid = Arc::clone(&g.grid);
        let gj = g.global_j(-1);
        assert!(gj >= 0);
        assert_eq!(g.sin_c(-1), grid.sin_center()[gj as usize]);
    }

    #[test]
    fn sigma_extension_monotone() {
        let g = geom(1, 2, 0, HaloWidths::uniform(2));
        // σ centres increase monotonically through the halo extension
        for kl in -1..(g.nz as isize + 2 - 1) {
            assert!(g.sigma_c(kl) < g.sigma_c(kl + 1));
        }
        // thickness positive everywhere
        for kl in -2..(g.nz as isize + 2) {
            assert!(g.dsigma(kl) > 0.0);
        }
    }

    #[test]
    fn region_dilate_respects_boundaries() {
        let g = geom(2, 2, 0, HaloWidths::uniform(3)); // north + top corner
        let r = g.interior();
        let grown = r.dilate(2, 2, g.ny, g.nz, g.halo, g.grow_sides());
        assert_eq!(grown.y0, 0, "no growth past the north pole");
        assert_eq!(grown.z0, 0, "no growth past the model top");
        assert_eq!(grown.y1, g.ny as isize + 2);
        assert_eq!(grown.z1, g.nz as isize + 2);
        // clamped by allocated halo
        let big = r.dilate(9, 9, g.ny, g.nz, g.halo, g.grow_sides());
        assert_eq!(big.y1, g.ny as isize + 3);
    }

    #[test]
    fn frame_covers_difference_disjointly() {
        let outer = Region {
            y0: -3,
            y1: 11,
            z0: -2,
            z1: 6,
        };
        let inner = Region {
            y0: 0,
            y1: 8,
            z0: 0,
            z1: 4,
        };
        let strips: Vec<Region> = frame(&outer, &inner).collect();
        assert_eq!(strips.len(), 4);
        let total: usize = strips.iter().map(|r| r.area()).sum();
        assert_eq!(total + inner.area(), outer.area());
        // disjointness: no (j,k) cell in two strips
        for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            let (ra, rb) = (&strips[a], &strips[b]);
            let overlap_y = ra.y0.max(rb.y0) < ra.y1.min(rb.y1);
            let overlap_z = ra.z0.max(rb.z0) < ra.z1.min(rb.z1);
            assert!(!(overlap_y && overlap_z), "strips {a} and {b} overlap");
        }
        // inner == outer → empty frame
        assert_eq!(frame(&inner, &inner).count(), 0);
        // a side the inner region shares with the outer one has no strip
        let north_only = Region { y0: 0, ..outer };
        let strips: Vec<Region> = frame(&outer, &north_only).collect();
        assert_eq!(strips, [Region { y1: 0, ..outer }]);
    }

    #[test]
    fn region_shrink_and_contains() {
        let r = Region {
            y0: -2,
            y1: 10,
            z0: 0,
            z1: 4,
        };
        let all = GrowSides {
            north: true,
            south: true,
            top: true,
            bottom: true,
        };
        let s = r.shrink(1, 1, all);
        assert_eq!(
            s,
            Region {
                y0: -1,
                y1: 9,
                z0: 1,
                z1: 3
            }
        );
        assert!(r.contains(&s));
        assert!(!s.contains(&r));
        assert_eq!(r.area(), 12 * 4);
        // only the sides facing a neighbour move: a south-pole rank of a
        // y-split keeps its pole edge, its top and its surface
        let south_pole = GrowSides {
            north: true,
            south: false,
            top: false,
            bottom: false,
        };
        assert_eq!(r.shrink(2, 1, south_pole), Region { y0: 0, ..r });
        // shrinking past empty collapses
        let tiny = Region {
            y0: 0,
            y1: 1,
            z0: 0,
            z1: 1,
        };
        assert!(tiny.shrink(3, 3, all).is_empty());
    }
}
