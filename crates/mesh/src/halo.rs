//! Halo exchange planning.
//!
//! Given a decomposition, a rank and the halo widths a field carries, the
//! [`ExchangePlan`] lists which rectangular boxes must be sent to / received
//! from which neighbours to fill the halo.  The plan is pure geometry — the
//! actual message passing lives in `agcm-comm` and the dynamical core — so
//! the *same* plan is used both to execute an exchange and to compute its
//! exact communication volume for the cost model (Figure 7 of the paper is
//! regenerated from these volumes).
//!
//! The eight halo areas of the paper's Figure 4 are exactly the eight
//! [`ExchangeSpec`]s an interior rank of a Y-Z decomposition gets: four edge
//! slabs (north/south/up/down in the (y, z) process plane) and four corner
//! boxes ("four small triangle halos" in the paper's wording — rectangular
//! here, which only over-approximates the redundant data slightly and is the
//! common practical choice).

use crate::decomp::{Decomposition, NeighborLink};
use crate::field::HaloWidths;
use crate::stencil::Axis;
use std::ops::Range;

/// A rectangular box in *local* field coordinates (may extend into halo).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoxRange {
    /// x extent.
    pub x: Range<isize>,
    /// y extent.
    pub y: Range<isize>,
    /// z extent.
    pub z: Range<isize>,
}

impl BoxRange {
    /// Number of points in the box.
    pub fn len(&self) -> usize {
        let l = |r: &Range<isize>| (r.end - r.start).max(0) as usize;
        l(&self.x) * l(&self.y) * l(&self.z)
    }

    /// Whether the box is degenerate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One send/receive pairing with a single neighbour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeSpec {
    /// The neighbour and its process-grid offset.
    pub link: NeighborLink,
    /// Interior box to pack and send (what the neighbour's halo needs).
    pub send: BoxRange,
    /// Halo box to receive into.
    pub recv: BoxRange,
    /// Message tag disambiguating direction: the neighbour's matching send
    /// for our `recv` carries this tag.
    pub tag: u32,
}

/// Tag derived from the *receiver-relative* direction of travel.  A message
/// we receive from offset `(dx,dy,dz)` was sent by the neighbour as its
/// direction `(-dx,-dy,-dz)`; both sides compute the same tag from the
/// sender's offset.
fn direction_tag(dx: i32, dy: i32, dz: i32) -> u32 {
    ((dx + 1) + 3 * (dy + 1) + 9 * (dz + 1)) as u32
}

/// The full exchange plan of one rank for fields with halo widths `halo`.
#[derive(Debug, Clone)]
pub struct ExchangePlan {
    specs: Vec<ExchangeSpec>,
    /// Local interior extents of the owning subdomain.
    extents: (usize, usize, usize),
    halo: HaloWidths,
}

impl ExchangePlan {
    /// Build the plan for `rank` under `decomp`, for fields carrying `halo`.
    ///
    /// Axes with a single process along them produce no exchanges: the x
    /// halo is then filled by local periodic wrap, and y/z boundaries by the
    /// physical boundary conditions.
    pub fn new(decomp: &Decomposition, rank: usize, halo: HaloWidths) -> Self {
        let (nx, ny, nz) = decomp.subdomain(rank).extents();
        Self::with_extents(decomp, rank, halo, (nx, ny, nz))
    }

    /// Build a plan for a field whose local extents differ from the
    /// subdomain's (e.g. a field with `nz+1` levels for interface values).
    /// The neighbour topology comes from `decomp`; the box geometry from
    /// `extents`.
    pub fn with_extents(
        decomp: &Decomposition,
        rank: usize,
        halo: HaloWidths,
        extents: (usize, usize, usize),
    ) -> Self {
        let (nx, ny, nz) = extents;
        let mut specs = Vec::new();
        for link in decomp.neighbors(rank) {
            let (dx, dy, dz) = link.offset;
            // Along each axis: which interior slab do we SEND for a
            // neighbour in direction d, and which halo slab do we RECV from
            // it.  d = -1 neighbour fills our low halo and wants our low
            // interior slab of width = halo on *its* high side (halo widths
            // are uniform across ranks).
            let axis_ranges =
                |d: i32, n: usize, hlo: usize, hhi: usize| -> (Range<isize>, Range<isize>) {
                    let n = n as isize;
                    match d {
                        -1 => (0..hhi as isize, -(hlo as isize)..0),
                        0 => (0..n, 0..n),
                        1 => ((n - hlo as isize)..n, n..n + hhi as isize),
                        _ => unreachable!("offsets are in -1..=1"),
                    }
                };
            let (hx, hy, hz) = (
                halo.along(Axis::X),
                halo.along(Axis::Y),
                halo.along(Axis::Z),
            );
            let (sx, rx) = axis_ranges(dx, nx, hx.0, hx.1);
            let (sy, ry) = axis_ranges(dy, ny, hy.0, hy.1);
            let (sz, rz) = axis_ranges(dz, nz, hz.0, hz.1);
            let send = BoxRange {
                x: sx,
                y: sy,
                z: sz,
            };
            let recv = BoxRange {
                x: rx,
                y: ry,
                z: rz,
            };
            if send.is_empty() && recv.is_empty() {
                continue;
            }
            specs.push(ExchangeSpec {
                link,
                send,
                recv,
                // our send travels in direction `offset`; the tag encodes it
                tag: direction_tag(dx, dy, dz),
            });
        }
        ExchangePlan {
            specs,
            extents: (nx, ny, nz),
            halo,
        }
    }

    /// The individual exchanges.
    pub fn specs(&self) -> &[ExchangeSpec] {
        &self.specs
    }

    /// Total `f64` values sent per field per exchange.
    pub fn send_volume(&self) -> usize {
        self.specs.iter().map(|s| s.send.len()).sum()
    }

    /// Total `f64` values received per field per exchange.
    pub fn recv_volume(&self) -> usize {
        self.specs.iter().map(|s| s.recv.len()).sum()
    }

    /// Local interior extents the plan was built for.
    pub fn extents(&self) -> (usize, usize, usize) {
        self.extents
    }

    /// Halo widths the plan was built for.
    pub fn halo(&self) -> HaloWidths {
        self.halo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::ProcessGrid;

    fn yz_plan(h: usize) -> (Decomposition, ExchangePlan) {
        let d = Decomposition::new((8, 12, 9), ProcessGrid::yz(3, 3).unwrap()).unwrap();
        let center = d.process_grid().rank(0, 1, 1);
        let plan = ExchangePlan::new(&d, center, HaloWidths::uniform(h));
        (d, plan)
    }

    #[test]
    fn interior_yz_rank_has_eight_exchanges() {
        let (_, plan) = yz_plan(1);
        assert_eq!(plan.specs().len(), 8);
    }

    #[test]
    fn edge_and_corner_volumes() {
        let (_, plan) = yz_plan(2);
        // center rank owns 8 x 4 x 3 (y: 12/3 = 4, z: 9/3 = 3)
        // y-edge slab: 8 * 2 * 3 = 48; z-edge slab: 8 * 4 * 2 = 64;
        // corner: 8 * 2 * 2 = 32
        let mut vols: Vec<usize> = plan.specs().iter().map(|s| s.send.len()).collect();
        vols.sort_unstable();
        assert_eq!(vols, vec![32, 32, 32, 32, 48, 48, 64, 64]);
        assert_eq!(plan.send_volume(), plan.recv_volume());
    }

    #[test]
    fn send_recv_boxes_mirror_between_neighbors() {
        // what rank A sends towards +y must have the same shape as what the
        // +y neighbour expects to receive from -y
        let d = Decomposition::new((8, 12, 9), ProcessGrid::yz(3, 3).unwrap()).unwrap();
        let a = d.process_grid().rank(0, 0, 1);
        let b = d.process_grid().rank(0, 1, 1);
        let pa = ExchangePlan::new(&d, a, HaloWidths::uniform(2));
        let pb = ExchangePlan::new(&d, b, HaloWidths::uniform(2));
        let send = pa
            .specs()
            .iter()
            .find(|s| s.link.rank == b && s.link.offset == (0, 1, 0))
            .unwrap();
        let recv = pb
            .specs()
            .iter()
            .find(|s| s.link.rank == a && s.link.offset == (0, -1, 0))
            .unwrap();
        assert_eq!(send.send.len(), recv.recv.len());
        // tags must match: A sends with direction (0,1,0); B receives from
        // offset (0,-1,0) and must expect the sender's tag
        assert_eq!(send.tag, direction_tag(0, 1, 0));
        assert_eq!(recv.tag, direction_tag(0, -1, 0));
    }

    #[test]
    fn recv_boxes_lie_in_halo() {
        let (_, plan) = yz_plan(3);
        let (nx, ny, nz) = plan.extents();
        for s in plan.specs() {
            let r = &s.recv;
            let outside = r.x.start < 0
                || r.x.end > nx as isize
                || r.y.start < 0
                || r.y.end > ny as isize
                || r.z.start < 0
                || r.z.end > nz as isize;
            assert!(outside, "recv box {r:?} is not in the halo");
            // and send boxes lie fully in the interior
            let sb = &s.send;
            assert!(sb.x.start >= 0 && sb.x.end <= nx as isize);
            assert!(sb.y.start >= 0 && sb.y.end <= ny as isize);
            assert!(sb.z.start >= 0 && sb.z.end <= nz as isize);
        }
    }

    #[test]
    fn boundary_rank_skips_missing_neighbors() {
        let d = Decomposition::new((8, 12, 9), ProcessGrid::yz(3, 3).unwrap()).unwrap();
        let corner = d.process_grid().rank(0, 0, 0);
        let plan = ExchangePlan::new(&d, corner, HaloWidths::uniform(1));
        assert_eq!(plan.specs().len(), 3); // S, down, S-down corner
    }

    #[test]
    fn xy_plan_wraps_longitude() {
        let d = Decomposition::new((16, 12, 4), ProcessGrid::xy(4, 3).unwrap()).unwrap();
        let west_edge = d.process_grid().rank(0, 1, 0);
        let plan = ExchangePlan::new(&d, west_edge, HaloWidths::uniform(1));
        // full 8-neighbourhood despite being at cx = 0, due to x periodicity
        assert_eq!(plan.specs().len(), 8);
    }

    #[test]
    fn serial_plan_is_empty() {
        let d = Decomposition::new((8, 8, 4), ProcessGrid::serial()).unwrap();
        let plan = ExchangePlan::new(&d, 0, HaloWidths::uniform(2));
        assert_eq!(plan.specs().len(), 0);
        assert_eq!(plan.send_volume(), 0);
    }

    #[test]
    fn volume_scales_with_halo_width() {
        let (_, p1) = yz_plan(1);
        let (_, p3) = yz_plan(3);
        // deeper halos move more data per exchange — the communication-
        // avoiding trade-off (fewer exchanges, each bigger)
        assert!(p3.send_volume() > 2 * p1.send_volume());
    }

    #[test]
    fn direction_tags_unique() {
        let mut seen = std::collections::HashSet::new();
        for dz in -1..=1 {
            for dy in -1..=1 {
                for dx in -1..=1 {
                    assert!(seen.insert(direction_tag(dx, dy, dz)));
                }
            }
        }
        assert_eq!(seen.len(), 27);
    }
}
