//! Stencil footprints.
//!
//! The paper characterizes every term of the dynamical core by which
//! neighbouring mesh points the update of a point `(i, j, k)` reads
//! (Tables 1, 2 and 3).  A [`StencilFootprint`] is that characterization as
//! data: the set of offsets read along each of the three mesh directions.
//!
//! Footprints drive the whole communication layer:
//!
//! * the union of the footprints of all terms applied between two halo
//!   exchanges determines the halo width each field needs
//!   ([`StencilFootprint::required_halo`]),
//! * repeated application without communication (the communication-avoiding
//!   deep-halo scheme of §4.3.1) corresponds to footprint *dilation*
//!   ([`StencilFootprint::repeated`]),
//! * tests assert that the implementation of each operator term touches
//!   exactly the offsets its declared footprint allows.

use std::fmt;

/// One of the three mesh directions of the latitude–longitude mesh.
///
/// Following the paper's notation, `X` is longitude (periodic), `Y` is
/// latitude (bounded by the poles) and `Z` is the vertical σ direction
/// (bounded by the model top and the surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Longitude (index `i`, periodic).
    X,
    /// Latitude (index `j`, non-periodic).
    Y,
    /// Vertical σ level (index `k`, non-periodic).
    Z,
}

impl Axis {
    /// All three axes in `X`, `Y`, `Z` order.
    pub const ALL: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

    /// Index of the axis (X → 0, Y → 1, Z → 2).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::X => write!(f, "x"),
            Axis::Y => write!(f, "y"),
            Axis::Z => write!(f, "z"),
        }
    }
}

/// The set of offsets a stencil reads along a single axis.
///
/// Offsets are stored sorted and deduplicated.  An empty set is not
/// representable: every stencil reads at least offset `0` (the point being
/// updated is always an input of the tables in the paper; terms that happen
/// not to read the centre still declare it for halo purposes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AxisOffsets {
    offsets: Vec<i32>,
}

impl AxisOffsets {
    /// Build from an arbitrary list of offsets; `0` is inserted if missing.
    pub fn new(mut offsets: Vec<i32>) -> Self {
        if !offsets.contains(&0) {
            offsets.push(0);
        }
        offsets.sort_unstable();
        offsets.dedup();
        AxisOffsets { offsets }
    }

    /// Only the centre point.
    fn center() -> Self {
        AxisOffsets { offsets: vec![0] }
    }

    /// The contiguous range `[-neg, +pos]`.
    pub fn range(neg: u32, pos: u32) -> Self {
        AxisOffsets {
            offsets: (-(neg as i32)..=pos as i32).collect(),
        }
    }

    /// The sorted offsets.
    pub fn offsets(&self) -> &[i32] {
        &self.offsets
    }

    /// Largest read distance towards negative indices (≥ 0).
    pub fn neg_extent(&self) -> u32 {
        self.offsets.first().map_or(0, |&o| (-o).max(0) as u32)
    }

    /// Largest read distance towards positive indices (≥ 0).
    pub fn pos_extent(&self) -> u32 {
        self.offsets.last().map_or(0, |&o| o.max(0) as u32)
    }

    /// Union with another offset set.
    pub fn union(&self, other: &AxisOffsets) -> AxisOffsets {
        let mut v = self.offsets.clone();
        v.extend_from_slice(&other.offsets);
        AxisOffsets::new(v)
    }

    /// Offsets reachable by chaining `self` then `other`
    /// (Minkowski sum of the offset sets).
    pub fn compose(&self, other: &AxisOffsets) -> AxisOffsets {
        let mut v = Vec::with_capacity(self.offsets.len() * other.offsets.len());
        for &a in &self.offsets {
            for &b in &other.offsets {
                v.push(a + b);
            }
        }
        AxisOffsets::new(v)
    }
}

impl fmt::Display for AxisOffsets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for &o in &self.offsets {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            match o {
                0 => write!(f, "i")?,
                o if o > 0 => write!(f, "i+{o}")?,
                o => write!(f, "i-{}", -o)?,
            }
        }
        Ok(())
    }
}

/// The full 3-D footprint of a stencil term: which `(Δi, Δj, Δk)` offsets the
/// update of a point may read, expressed as the cross product of per-axis
/// offset sets (which is how Tables 1–3 of the paper present them).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StencilFootprint {
    /// Human-readable name of the term, e.g. `"P_lambda^(1)"` or `"L1(U)"`.
    pub name: &'static str,
    /// Offsets along x (longitude).
    pub x: AxisOffsets,
    /// Offsets along y (latitude).
    pub y: AxisOffsets,
    /// Offsets along z (vertical).
    pub z: AxisOffsets,
}

impl StencilFootprint {
    /// Build from explicit offset lists (`0` added automatically).
    pub fn new(name: &'static str, x: Vec<i32>, y: Vec<i32>, z: Vec<i32>) -> Self {
        StencilFootprint {
            name,
            x: AxisOffsets::new(x),
            y: AxisOffsets::new(y),
            z: AxisOffsets::new(z),
        }
    }

    /// A pure point-wise term (reads only the point itself).
    pub fn pointwise(name: &'static str) -> Self {
        StencilFootprint {
            name,
            x: AxisOffsets::center(),
            y: AxisOffsets::center(),
            z: AxisOffsets::center(),
        }
    }

    /// Offsets along the given axis.
    pub fn along(&self, axis: Axis) -> &AxisOffsets {
        match axis {
            Axis::X => &self.x,
            Axis::Y => &self.y,
            Axis::Z => &self.z,
        }
    }

    /// Union of two footprints (the footprint of computing both terms).
    pub fn union(&self, other: &StencilFootprint) -> StencilFootprint {
        StencilFootprint {
            name: "(union)",
            x: self.x.union(&other.x),
            y: self.y.union(&other.y),
            z: self.z.union(&other.z),
        }
    }

    /// Union of many footprints.
    pub fn union_of(name: &'static str, fps: &[StencilFootprint]) -> StencilFootprint {
        let mut acc = StencilFootprint::pointwise(name);
        for fp in fps {
            acc = StencilFootprint {
                name,
                ..acc.union(fp)
            };
        }
        acc
    }

    /// The footprint of applying this stencil `times` times back-to-back
    /// without communication (dilation).  This is the deep-halo footprint of
    /// §4.3.1: `3M` sweeps of the adaptation stencil need the `repeated(3M)`
    /// footprint's halo.
    pub fn repeated(&self, times: u32) -> StencilFootprint {
        let mut x = self.x.clone();
        let mut y = self.y.clone();
        let mut z = self.z.clone();
        for _ in 1..times.max(1) {
            x = x.compose(&self.x);
            y = y.compose(&self.y);
            z = z.compose(&self.z);
        }
        StencilFootprint {
            name: self.name,
            x,
            y,
            z,
        }
    }

    /// Halo width (negative side, positive side) required along `axis` so
    /// that the stencil can be evaluated on every interior point without
    /// communication.
    pub fn required_halo(&self, axis: Axis) -> (u32, u32) {
        let o = self.along(axis);
        (o.neg_extent(), o.pos_extent())
    }

    /// Whether the update of a point at offset `(di, dj, dk)` from it is
    /// allowed to read this point.
    pub fn contains(&self, di: i32, dj: i32, dk: i32) -> bool {
        self.x.offsets().contains(&di)
            && self.y.offsets().contains(&dj)
            && self.z.offsets().contains(&dk)
    }

    /// Total number of `(Δi, Δj, Δk)` points in the footprint.
    pub fn len(&self) -> usize {
        self.x.offsets().len() * self.y.offsets().len() * self.z.offsets().len()
    }

    /// Footprints are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate over all `(Δi, Δj, Δk)` offsets of the footprint.
    pub fn iter(&self) -> impl Iterator<Item = (i32, i32, i32)> + '_ {
        self.z.offsets().iter().flat_map(move |&dk| {
            self.y
                .offsets()
                .iter()
                .flat_map(move |&dj| self.x.offsets().iter().map(move |&di| (di, dj, dk)))
        })
    }
}

impl fmt::Display for StencilFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} x:[{}] y:[{}] z:[{}]",
            self.name, self.x, self.y, self.z
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_offsets_sorted_dedup_center() {
        let o = AxisOffsets::new(vec![3, -1, 3, 1]);
        assert_eq!(o.offsets(), &[-1, 0, 1, 3]);
        assert_eq!(o.neg_extent(), 1);
        assert_eq!(o.pos_extent(), 3);
        assert_eq!(AxisOffsets::center().offsets(), &[0]);
    }

    #[test]
    fn axis_offsets_range() {
        let o = AxisOffsets::range(2, 1);
        assert_eq!(o.offsets(), &[-2, -1, 0, 1]);
    }

    #[test]
    fn axis_union_and_compose() {
        let a = AxisOffsets::new(vec![-1, 1]);
        let b = AxisOffsets::new(vec![-2]);
        assert_eq!(a.union(&b).offsets(), &[-2, -1, 0, 1]);
        // compose: {-1,0,1} ⊕ {-2,0} = {-3,-2,-1,0,1}
        assert_eq!(a.compose(&b).offsets(), &[-3, -2, -1, 0, 1]);
    }

    #[test]
    fn footprint_required_halo() {
        // P_lambda^(1) from Table 1: x: i, i±1, i-2; y: j; z: k, k+1.
        let fp = StencilFootprint::new("P_lambda^(1)", vec![-2, -1, 1], vec![], vec![1]);
        assert_eq!(fp.required_halo(Axis::X), (2, 1));
        assert_eq!(fp.required_halo(Axis::Y), (0, 0));
        assert_eq!(fp.required_halo(Axis::Z), (0, 1));
    }

    #[test]
    fn footprint_repeated_dilates() {
        let fp = StencilFootprint::new("s", vec![-1, 1], vec![-1, 1], vec![]);
        let r = fp.repeated(3);
        assert_eq!(r.required_halo(Axis::X), (3, 3));
        assert_eq!(r.required_halo(Axis::Y), (3, 3));
        assert_eq!(r.required_halo(Axis::Z), (0, 0));
        // repeated(1) is identity
        assert_eq!(fp.repeated(1), fp);
    }

    #[test]
    fn footprint_union_of_many() {
        let a = StencilFootprint::new("a", vec![-2], vec![], vec![]);
        let b = StencilFootprint::new("b", vec![3], vec![1], vec![-1]);
        let u = StencilFootprint::union_of("u", &[a, b]);
        assert_eq!(u.required_halo(Axis::X), (2, 3));
        assert_eq!(u.required_halo(Axis::Y), (0, 1));
        assert_eq!(u.required_halo(Axis::Z), (1, 0));
    }

    #[test]
    fn footprint_contains_and_iter() {
        let fp = StencilFootprint::new("f", vec![-1, 1], vec![1], vec![]);
        assert!(fp.contains(0, 0, 0));
        assert!(fp.contains(-1, 1, 0));
        assert!(!fp.contains(-2, 0, 0));
        assert!(!fp.contains(0, -1, 0));
        let pts: Vec<_> = fp.iter().collect();
        assert_eq!(pts.len(), fp.len());
        assert_eq!(fp.len(), 3 * 2);
        assert!(pts.contains(&(1, 1, 0)));
    }

    #[test]
    fn pointwise_footprint() {
        let fp = StencilFootprint::pointwise("p");
        assert_eq!(fp.len(), 1);
        assert_eq!(fp.required_halo(Axis::X), (0, 0));
        assert!(!fp.is_empty());
    }
}
