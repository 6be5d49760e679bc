//! Distributed field storage with halo (ghost) regions.
//!
//! A [`Field3`] stores one scalar variable on the subdomain a rank owns,
//! surrounded by halo layers whose widths are chosen from the stencil
//! footprints (see [`crate::stencil`]).  The memory layout is a single flat
//! `Vec<f64>` with **x fastest** (stride 1 along longitude), matching the
//! direction the inner loops of the operators sweep and the direction of the
//! per-latitude-circle FFT of the Fourier filtering.
//!
//! Indexing is in *local interior coordinates*: `(0, 0, 0)` is the first
//! owned point; negative indices and indices `≥ n` reach into the halo.
//! Accessors take `isize` and are bounds-checked in debug builds.
//!
//! A surface variable (`p'_sa` and the other single-level diagnostics) is a
//! one-level `Field3` with no z halo, built by [`Field3::surface`]: the same
//! array a 2-D field would be, indexed at level `k = 0`.

use crate::band::{RowBand, Shape};
use crate::pages;
use crate::stencil::{Axis, StencilFootprint};

/// Halo widths of a field, per axis and side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HaloWidths {
    /// Layers on the low-x side.
    pub xm: usize,
    /// Layers on the high-x side.
    pub xp: usize,
    /// Layers on the low-y (northern) side.
    pub ym: usize,
    /// Layers on the high-y (southern) side.
    pub yp: usize,
    /// Layers on the low-z (top) side.
    pub zm: usize,
    /// Layers on the high-z (surface) side.
    pub zp: usize,
}

impl HaloWidths {
    /// No halo at all.
    pub fn zero() -> Self {
        HaloWidths::default()
    }

    /// The same width on every side of every axis.
    pub fn uniform(w: usize) -> Self {
        HaloWidths {
            xm: w,
            xp: w,
            ym: w,
            yp: w,
            zm: w,
            zp: w,
        }
    }

    /// Halo implied by a stencil footprint: the negative extent of the
    /// footprint along an axis becomes the low-side halo, etc.
    pub fn for_footprint(fp: &StencilFootprint) -> Self {
        let (xm, xp) = fp.required_halo(Axis::X);
        let (ym, yp) = fp.required_halo(Axis::Y);
        let (zm, zp) = fp.required_halo(Axis::Z);
        HaloWidths {
            xm: xm as usize,
            xp: xp as usize,
            ym: ym as usize,
            yp: yp as usize,
            zm: zm as usize,
            zp: zp as usize,
        }
    }

    /// Component-wise maximum.
    pub fn max(self, o: HaloWidths) -> HaloWidths {
        HaloWidths {
            xm: self.xm.max(o.xm),
            xp: self.xp.max(o.xp),
            ym: self.ym.max(o.ym),
            yp: self.yp.max(o.yp),
            zm: self.zm.max(o.zm),
            zp: self.zp.max(o.zp),
        }
    }

    /// Widths as `(low, high)` for one axis.
    pub fn along(&self, axis: Axis) -> (usize, usize) {
        match axis {
            Axis::X => (self.xm, self.xp),
            Axis::Y => (self.ym, self.yp),
            Axis::Z => (self.zm, self.zp),
        }
    }
}

/// A 3-D scalar field on one rank's subdomain, with halos.  The `Default`
/// field is empty: no points, no allocation.  Its array, a clone's too,
/// comes from `pages::zeroed`.
#[derive(Debug, PartialEq, Default)]
pub struct Field3 {
    data: Vec<f64>,
    nx: usize,
    ny: usize,
    nz: usize,
    halo: HaloWidths,
    /// stride along y (x stride is 1)
    sy: usize,
    /// stride along z
    sz: usize,
    /// linear index of interior origin (0,0,0)
    base: usize,
}

impl Field3 {
    /// Allocate a zero-filled field of interior extents `(nx, ny, nz)` with
    /// the given halo widths.
    pub fn new(nx: usize, ny: usize, nz: usize, halo: HaloWidths) -> Self {
        let tx = nx + halo.xm + halo.xp;
        let ty = ny + halo.ym + halo.yp;
        let tz = nz + halo.zm + halo.zp;
        let sy = tx;
        let sz = tx * ty;
        let base = halo.xm + halo.ym * sy + halo.zm * sz;
        Field3 {
            data: pages::zeroed(tx * ty * tz),
            nx,
            ny,
            nz,
            halo,
            sy,
            sz,
            base,
        }
    }

    /// Allocate with no halo.
    pub fn dense(nx: usize, ny: usize, nz: usize) -> Self {
        Self::new(nx, ny, nz, HaloWidths::zero())
    }

    /// A zero-filled surface field: the one level `k = 0` with `halo`'s x
    /// and y widths and no z halo, so it holds `(nx + xm + xp)·(ny + ym +
    /// yp)` values whatever `halo.zm`/`halo.zp` say.
    pub fn surface(nx: usize, ny: usize, halo: HaloWidths) -> Self {
        let flat = HaloWidths {
            zm: 0,
            zp: 0,
            ..halo
        };
        Self::new(nx, ny, 1, flat)
    }

    /// A new field with the same shape (extents and halos), zero-filled.
    pub fn like(other: &Field3) -> Self {
        Field3::new(other.nx, other.ny, other.nz, other.halo)
    }

    /// Interior extents.
    pub fn extents(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Halo widths.
    pub fn halo(&self) -> HaloWidths {
        self.halo
    }

    /// Total allocated points (interior + halo).
    pub fn total_len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn idx(&self, i: isize, j: isize, k: isize) -> usize {
        debug_assert!(
            i >= -(self.halo.xm as isize) && i < (self.nx + self.halo.xp) as isize,
            "x index {i} out of range [-{}, {})",
            self.halo.xm,
            self.nx + self.halo.xp
        );
        debug_assert!(
            j >= -(self.halo.ym as isize) && j < (self.ny + self.halo.yp) as isize,
            "y index {j} out of range [-{}, {})",
            self.halo.ym,
            self.ny + self.halo.yp
        );
        debug_assert!(
            k >= -(self.halo.zm as isize) && k < (self.nz + self.halo.zp) as isize,
            "z index {k} out of range [-{}, {})",
            self.halo.zm,
            self.nz + self.halo.zp
        );
        (self.base as isize + i + j * self.sy as isize + k * self.sz as isize) as usize
    }

    /// Sanitizer identity of this field's allocation: pass to
    /// [`crate::sanitize::track`] to have its accesses recorded.
    #[cfg(feature = "access-sanitizer")]
    pub fn sanitizer_key(&self) -> usize {
        self.data.as_ptr() as usize
    }

    #[cfg(feature = "access-sanitizer")]
    #[inline]
    fn san(&self, write: bool, i0: isize, i1: isize, j: isize, k: isize) {
        crate::sanitize::record(self.data.as_ptr() as usize, write, i0, i1, j, k);
    }

    /// Read the value at local coordinates (halo reachable with negative /
    /// overflowing indices).
    #[inline]
    pub fn get(&self, i: isize, j: isize, k: isize) -> f64 {
        #[cfg(feature = "access-sanitizer")]
        self.san(false, i, i, j, k);
        self.data[self.idx(i, j, k)]
    }

    /// Write the value at local coordinates.
    #[inline]
    pub fn set(&mut self, i: isize, j: isize, k: isize, v: f64) {
        #[cfg(feature = "access-sanitizer")]
        self.san(true, i, i, j, k);
        let ix = self.idx(i, j, k);
        self.data[ix] = v;
    }

    /// Add to the value at local coordinates.
    #[inline]
    pub fn add(&mut self, i: isize, j: isize, k: isize, v: f64) {
        #[cfg(feature = "access-sanitizer")]
        self.san(true, i, i, j, k);
        let ix = self.idx(i, j, k);
        self.data[ix] += v;
    }

    /// Contiguous x-row `[x0, x1)` at `(j, k)` (may extend into the x halo).
    ///
    /// # Safety contract
    ///
    /// x is stride-1, so the returned slice is exactly the points
    /// `(x0..x1, j, k)` in order.  Both endpoints must lie within
    /// `[-halo.xm, nx + halo.xp]`; this is checked by `debug_assert` only
    /// (like the scalar accessors), because row extraction happens once per
    /// `(j, k)` on hot paths whose loop bounds are already validated by the
    /// region/stencil machinery.  Out-of-range rows in release builds slice
    /// into *adjacent rows* of the same allocation — never out of the
    /// allocation for in-halo `j`/`k` (the slice bounds themselves are still
    /// checked by the indexing operation), but logically wrong.  Callers
    /// that take untrusted coordinates must bound them first.
    #[inline]
    pub fn row(&self, x0: isize, x1: isize, j: isize, k: isize) -> &[f64] {
        debug_assert!(x0 <= x1);
        debug_assert!(x1 <= (self.nx + self.halo.xp) as isize);
        #[cfg(feature = "access-sanitizer")]
        self.san(false, x0, (x1 - 1).max(x0), j, k);
        let a = self.idx(x0, j, k);
        let b = a + (x1 - x0) as usize;
        &self.data[a..b]
    }

    /// Mutable contiguous x-row.  Same safety contract as [`Self::row`].
    #[inline]
    pub fn row_mut(&mut self, x0: isize, x1: isize, j: isize, k: isize) -> &mut [f64] {
        debug_assert!(x0 <= x1);
        debug_assert!(x1 <= (self.nx + self.halo.xp) as isize);
        #[cfg(feature = "access-sanitizer")]
        self.san(true, x0, (x1 - 1).max(x0), j, k);
        let a = self.idx(x0, j, k);
        let b = a + (x1 - x0) as usize;
        &mut self.data[a..b]
    }

    /// Two *disjoint* mutable x-rows at `(ja, ka)` and `(jb, kb)`, in that
    /// order.  Panics if the rows coincide.  Same bounds contract as
    /// [`Self::row`].
    #[inline]
    pub fn row_pair(
        &mut self,
        x0: isize,
        x1: isize,
        (ja, ka): (isize, isize),
        (jb, kb): (isize, isize),
    ) -> (&mut [f64], &mut [f64]) {
        assert!(
            (ja, ka) != (jb, kb),
            "row_pair requires two distinct (j, k) rows"
        );
        debug_assert!(x0 <= x1);
        #[cfg(feature = "access-sanitizer")]
        {
            self.san(true, x0, (x1 - 1).max(x0), ja, ka);
            self.san(true, x0, (x1 - 1).max(x0), jb, kb);
        }
        let w = (x1 - x0) as usize;
        let a = self.idx(x0, ja, ka);
        let b = self.idx(x0, jb, kb);
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b);
            (&mut lo[a..a + w], &mut hi[..w])
        } else {
            let (lo, hi) = self.data.split_at_mut(a);
            let second = &mut lo[b..b + w];
            (&mut hi[..w], second)
        }
    }

    /// Rows `rows = [j0, j1)` of levels `levels = [k0, k1)` as one mutable
    /// band of at most `P` planes (full x extent; both ranges may reach
    /// into the halo) — a [`crate::RowBand3`] of a volume, a
    /// [`crate::RowBand2`] of a surface field's level `(0, 1)`.  The worker
    /// pool carves a field into disjoint per-thread bands by splitting this
    /// view at row cuts ([`RowBand::split_at_row`]) — allocation-free,
    /// indexed like the parent field.
    pub fn row_band_mut<const P: usize>(
        &mut self,
        rows: (isize, isize),
        levels: (isize, isize),
    ) -> RowBand<'_, P> {
        let h = self.halo;
        assert!(rows.0 >= -(h.ym as isize) && rows.1 <= (self.ny + h.yp) as isize);
        assert!(levels.0 >= -(h.zm as isize) && levels.1 <= (self.nz + h.zp) as isize);
        let shape = Shape {
            xm: h.xm,
            ym: h.ym as isize,
            zm: h.zm as isize,
            sy: self.sy,
            sz: self.sz,
        };
        RowBand::carve(&mut self.data, shape, rows, levels)
    }

    /// Raw data (including halos) — escape hatch for the FFT, which
    /// processes full x rows in place.
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Raw mutable data.
    pub fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Set every interior *and* halo point to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// `self = a` (interiors must have identical extents; halos may differ —
    /// only the interior is copied).
    pub fn assign_interior(&mut self, a: &Field3) {
        assert_eq!(self.extents(), a.extents());
        for k in 0..self.nz as isize {
            for j in 0..self.ny as isize {
                let src = a.row(0, a.nx as isize, j, k);
                self.row_mut(0, self.nx as isize, j, k).copy_from_slice(src);
            }
        }
    }

    /// `self = a` on every point both fields hold: the interior (extents
    /// must be identical) plus, on each side, the halo layers common to the
    /// two — a whole-array copy when the halos agree.
    pub fn assign_common(&mut self, a: &Field3) {
        assert_eq!(self.extents(), a.extents());
        let h = self.halo;
        let lo = |mine: usize, theirs: usize| -(mine.min(theirs) as isize);
        let hi = |n: usize, mine: usize, theirs: usize| (n + mine.min(theirs)) as isize;
        let (x0, x1) = (lo(h.xm, a.halo.xm), hi(self.nx, h.xp, a.halo.xp));
        for k in lo(h.zm, a.halo.zm)..hi(self.nz, h.zp, a.halo.zp) {
            for j in lo(h.ym, a.halo.ym)..hi(self.ny, h.yp, a.halo.yp) {
                self.row_mut(x0, x1, j, k)
                    .copy_from_slice(a.row(x0, x1, j, k));
            }
        }
    }

    /// `self = x + c*y` over the interior.
    pub fn lincomb_interior(&mut self, x: &Field3, c: f64, y: &Field3) {
        assert_eq!(self.extents(), x.extents());
        assert_eq!(self.extents(), y.extents());
        for k in 0..self.nz as isize {
            for j in 0..self.ny as isize {
                let n = self.nx as isize;
                let xr = x.row(0, n, j, k);
                let yr = y.row(0, n, j, k);
                let dr = self.row_mut(0, n, j, k);
                for ((d, &xv), &yv) in dr.iter_mut().zip(xr).zip(yr) {
                    *d = xv + c * yv;
                }
            }
        }
    }

    /// Maximum absolute difference over interiors.
    pub fn max_abs_diff(&self, other: &Field3) -> f64 {
        assert_eq!(self.extents(), other.extents());
        let mut m: f64 = 0.0;
        for k in 0..self.nz as isize {
            for j in 0..self.ny as isize {
                let n = self.nx as isize;
                let a = self.row(0, n, j, k);
                let b = other.row(0, n, j, k);
                for (&x, &y) in a.iter().zip(b) {
                    m = m.max((x - y).abs());
                }
            }
        }
        m
    }

    /// Maximum absolute interior value.
    pub fn max_abs(&self) -> f64 {
        let mut m: f64 = 0.0;
        for k in 0..self.nz as isize {
            for j in 0..self.ny as isize {
                for &v in self.row(0, self.nx as isize, j, k) {
                    m = m.max(v.abs());
                }
            }
        }
        m
    }

    /// Whether any interior value is NaN.
    pub fn has_nan_interior(&self) -> bool {
        for k in 0..self.nz as isize {
            for j in 0..self.ny as isize {
                if self
                    .row(0, self.nx as isize, j, k)
                    .iter()
                    .any(|v| v.is_nan())
                {
                    return true;
                }
            }
        }
        false
    }

    /// Pack a rectangular box (local coordinates, may include halo cells)
    /// into `buf`, x-fastest.  Returns the number of values written.
    pub fn pack_box(
        &self,
        xr: std::ops::Range<isize>,
        yr: std::ops::Range<isize>,
        zr: std::ops::Range<isize>,
        buf: &mut Vec<f64>,
    ) -> usize {
        let n0 = buf.len();
        for k in zr {
            for j in yr.clone() {
                buf.extend_from_slice(self.row(xr.start, xr.end, j, k));
            }
        }
        buf.len() - n0
    }

    /// Unpack a rectangular box previously produced by [`Self::pack_box`].
    /// Returns the number of values consumed.
    pub fn unpack_box(
        &mut self,
        xr: std::ops::Range<isize>,
        yr: std::ops::Range<isize>,
        zr: std::ops::Range<isize>,
        buf: &[f64],
    ) -> usize {
        let w = (xr.end - xr.start) as usize;
        let mut off = 0;
        for k in zr {
            for j in yr.clone() {
                self.row_mut(xr.start, xr.end, j, k)
                    .copy_from_slice(&buf[off..off + w]);
                off += w;
            }
        }
        off
    }

    /// Fill the x halo by periodic wrap within this rank.  Valid only when
    /// the rank owns the full longitude circle (`px = 1`, i.e. Y-Z or serial
    /// decomposition) — the wrap is then purely local, which is exactly why
    /// the paper's Y-Z scheme makes the x direction communication-free for
    /// stencils too.
    pub fn wrap_x_halo(&mut self) {
        let nx = self.nx;
        let (hm, hp) = (self.halo.xm, self.halo.xp);
        if hm == 0 && hp == 0 {
            return;
        }
        let ny = self.ny as isize;
        let nz = self.nz as isize;
        let (hym, hyp) = (self.halo.ym as isize, self.halo.yp as isize);
        let (hzm, hzp) = (self.halo.zm as isize, self.halo.zp as isize);
        for k in -hzm..nz + hzp {
            for j in -hym..ny + hyp {
                let a = self.idx(-(hm as isize), j, k);
                let row = &mut self.data[a..a + hm + nx + hp];
                // halo[-d] = interior[nx-d]: row[0..hm) = row[nx..nx+hm)
                row.copy_within(nx..nx + hm, 0);
                // halo[nx+d] = interior[d]: row[hm+nx..) = row[hm..hm+hp)
                row.copy_within(hm..hm + hp, hm + nx);
            }
        }
    }
}

impl Clone for Field3 {
    fn clone(&self) -> Self {
        let data = pages::copied(&self.data);
        Field3 { data, ..*self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_pattern(f: &mut Field3) {
        let (nx, ny, nz) = f.extents();
        for k in 0..nz as isize {
            for j in 0..ny as isize {
                for i in 0..nx as isize {
                    f.set(i, j, k, (i + 10 * j + 100 * k) as f64);
                }
            }
        }
    }

    #[test]
    fn field3_basic_indexing() {
        let mut f = Field3::new(4, 3, 2, HaloWidths::uniform(1));
        assert_eq!(f.extents(), (4, 3, 2));
        assert_eq!(f.total_len(), 6 * 5 * 4);
        f.set(0, 0, 0, 1.5);
        f.set(3, 2, 1, 2.5);
        f.set(-1, -1, -1, 9.0); // halo corner
        assert_eq!(f.get(0, 0, 0), 1.5);
        assert_eq!(f.get(3, 2, 1), 2.5);
        assert_eq!(f.get(-1, -1, -1), 9.0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn field3_out_of_halo_panics() {
        let f = Field3::new(4, 3, 2, HaloWidths::uniform(1));
        let _ = f.get(5, 0, 0);
    }

    #[test]
    fn field3_rows_are_contiguous() {
        let mut f = Field3::new(4, 3, 2, HaloWidths::uniform(2));
        fill_pattern(&mut f);
        let r = f.row(0, 4, 1, 1);
        assert_eq!(r, &[110.0, 111.0, 112.0, 113.0]);
        f.row_mut(0, 4, 1, 1).iter_mut().for_each(|v| *v += 1.0);
        assert_eq!(f.get(2, 1, 1), 113.0);
    }

    #[test]
    fn field3_asymmetric_halo() {
        let h = HaloWidths {
            xm: 3,
            xp: 1,
            ym: 0,
            yp: 2,
            zm: 1,
            zp: 0,
        };
        let mut f = Field3::new(4, 3, 2, h);
        f.set(-3, 0, 0, 7.0);
        f.set(4, 4, -1, 8.0);
        assert_eq!(f.get(-3, 0, 0), 7.0);
        assert_eq!(f.get(4, 4, -1), 8.0);
    }

    #[test]
    fn assign_common_copies_interior_and_shared_halo_layers() {
        let deep = HaloWidths {
            ym: 4,
            zp: 3,
            ..HaloWidths::uniform(1)
        };
        let mut a = Field3::new(4, 3, 2, deep);
        for (n, v) in a.raw_mut().iter_mut().enumerate() {
            *v = n as f64;
        }
        let mut b = Field3::new(4, 3, 2, HaloWidths::uniform(2));
        b.assign_common(&a);
        // one layer is common on the shallow sides, two where `a` is deeper
        for (i, j, k) in [(0, 0, 0), (-1, -2, -1), (4, 3, 3), (3, 2, 1)] {
            assert_eq!(b.get(i, j, k), a.get(i, j, k), "({i}, {j}, {k})");
        }
        assert_eq!(b.get(-2, 0, 0), 0.0, "beyond a's x halo: untouched");
        // equal halos: the whole array
        let mut c = Field3::like(&a);
        c.assign_common(&a);
        assert_eq!(c, a);
        let mut p = Field3::surface(4, 3, deep);
        for (n, v) in p.raw_mut().iter_mut().enumerate() {
            *v = n as f64;
        }
        let mut q = Field3::surface(4, 3, HaloWidths::uniform(2));
        q.assign_common(&p);
        assert_eq!(q.get(-1, -2, 0), p.get(-1, -2, 0));
        assert_eq!(q.get(4, 3, 0), p.get(4, 3, 0));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let mut a = Field3::new(5, 4, 3, HaloWidths::uniform(1));
        fill_pattern(&mut a);
        let mut b = Field3::like(&a);
        let mut buf = Vec::new();
        let n = a.pack_box(1..4, 0..3, 1..3, &mut buf);
        assert_eq!(n, 3 * 3 * 2);
        let c = b.unpack_box(1..4, 0..3, 1..3, &buf);
        assert_eq!(c, n);
        for k in 1..3isize {
            for j in 0..3isize {
                for i in 1..4isize {
                    assert_eq!(b.get(i, j, k), a.get(i, j, k));
                }
            }
        }
    }

    #[test]
    fn pack_into_halo_region() {
        // packing from interior of a, unpacking into halo of b — the halo
        // exchange primitive
        let mut a = Field3::new(4, 4, 2, HaloWidths::uniform(2));
        fill_pattern(&mut a);
        let mut b = Field3::like(&a);
        let mut buf = Vec::new();
        // a's two southernmost rows -> b's northern halo
        a.pack_box(0..4, 2..4, 0..2, &mut buf);
        b.unpack_box(0..4, -2..0, 0..2, &buf);
        assert_eq!(b.get(0, -2, 0), a.get(0, 2, 0));
        assert_eq!(b.get(3, -1, 1), a.get(3, 3, 1));
    }

    #[test]
    fn wrap_x_halo_periodic() {
        let mut f = Field3::new(6, 3, 2, HaloWidths::uniform(2));
        fill_pattern(&mut f);
        f.wrap_x_halo();
        for k in 0..2isize {
            for j in 0..3isize {
                assert_eq!(f.get(-1, j, k), f.get(5, j, k));
                assert_eq!(f.get(-2, j, k), f.get(4, j, k));
                assert_eq!(f.get(6, j, k), f.get(0, j, k));
                assert_eq!(f.get(7, j, k), f.get(1, j, k));
            }
        }
    }

    #[test]
    fn lincomb_and_diff() {
        let mut x = Field3::dense(3, 3, 2);
        let mut y = Field3::dense(3, 3, 2);
        fill_pattern(&mut x);
        fill_pattern(&mut y);
        let mut d = Field3::like(&x);
        d.lincomb_interior(&x, 2.0, &y);
        assert_eq!(d.get(1, 1, 1), 3.0 * 111.0);
        assert_eq!(d.max_abs_diff(&x), 2.0 * x.max_abs());
        let mut z = Field3::like(&x);
        z.assign_interior(&d);
        assert_eq!(z.max_abs_diff(&d), 0.0);
    }

    #[test]
    fn poison_and_nan_detection() {
        let mut f = Field3::new(3, 3, 2, HaloWidths::uniform(1));
        fill_pattern(&mut f);
        f.set(-1, 0, 0, f64::NAN);
        f.set(3, 2, 1, f64::NAN);
        assert!(
            !f.has_nan_interior(),
            "a NaN in the halo is not in the interior"
        );
        f.set(1, 1, 0, f64::NAN);
        assert!(f.has_nan_interior());
    }

    #[test]
    fn halo_from_footprint() {
        let fp = StencilFootprint::new("t", vec![-2, -1, 1], vec![-1, 1], vec![1]);
        let h = HaloWidths::for_footprint(&fp);
        assert_eq!((h.xm, h.xp), (2, 1));
        assert_eq!((h.ym, h.yp), (1, 1));
        assert_eq!((h.zm, h.zp), (0, 1));
        let m = h.max(HaloWidths::uniform(1));
        assert_eq!((m.xm, m.zm), (2, 1));
    }

    /// A surface field is one level with the x and y halo it was asked
    /// for and no z halo: it never allocates z-halo planes.
    #[test]
    fn surface_field_basics() {
        let (nx, ny) = (5, 4);
        let mut f = Field3::surface(nx, ny, HaloWidths::uniform(2));
        assert_eq!(f.extents(), (nx, ny, 1));
        assert_eq!((f.halo().zm, f.halo().zp), (0, 0));
        assert_eq!((f.halo().xm, f.halo().yp), (2, 2));
        assert_eq!(f.total_len(), (nx + 4) * (ny + 4));
        assert_eq!(Field3::like(&f).total_len(), f.total_len());
        fill_pattern(&mut f);
        assert_eq!(f.get(3, 2, 0), 23.0);
        f.wrap_x_halo();
        assert_eq!(f.get(-1, 1, 0), f.get(4, 1, 0));
        assert_eq!(f.get(6, 3, 0), f.get(1, 3, 0));

        let mut b = Field3::like(&f);
        let mut buf = Vec::new();
        f.pack_box(0..5, 2..4, 0..1, &mut buf);
        b.unpack_box(0..5, -2..0, 0..1, &buf);
        assert_eq!(b.get(2, -1, 0), f.get(2, 3, 0));

        let mut c = Field3::like(&f);
        c.lincomb_interior(&f, -1.0, &f);
        assert_eq!(c.max_abs(), 0.0);
        c.assign_interior(&f);
        assert_eq!(c.max_abs_diff(&f), 0.0);
    }

    #[test]
    fn row_pair_disjoint_rows() {
        let mut f = Field3::new(4, 3, 2, HaloWidths::uniform(1));
        fill_pattern(&mut f);
        let (a, b) = f.row_pair(0, 4, (0, 0), (2, 1));
        assert_eq!(a, &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(b, &[120.0, 121.0, 122.0, 123.0]);
        a[0] = -1.0;
        b[3] = -2.0;
        assert_eq!(f.get(0, 0, 0), -1.0);
        assert_eq!(f.get(3, 2, 1), -2.0);
        // order is preserved even when the first row is the later one
        let (c, d) = f.row_pair(0, 4, (2, 1), (0, 0));
        assert_eq!(c[3], -2.0);
        assert_eq!(d[0], -1.0);
        // and on a surface field, whose rows differ in j only
        let mut s = Field3::surface(3, 3, HaloWidths::uniform(1));
        fill_pattern(&mut s);
        let (a, b) = s.row_pair(0, 3, (2, 0), (0, 0));
        assert_eq!(a, &[20.0, 21.0, 22.0]);
        assert_eq!(b, &[0.0, 1.0, 2.0]);
        b.copy_from_slice(a);
        assert_eq!(s.get(1, 0, 0), 21.0);
    }

    #[test]
    #[should_panic]
    fn row_pair_same_row_panics() {
        let mut f = Field3::new(4, 3, 2, HaloWidths::uniform(1));
        let _ = f.row_pair(0, 4, (1, 1), (1, 1));
    }

    #[test]
    fn wrap_x_halo_asymmetric() {
        let h = HaloWidths {
            xm: 2,
            xp: 1,
            ym: 1,
            yp: 0,
            zm: 0,
            zp: 1,
        };
        let mut f = Field3::new(5, 2, 2, h);
        fill_pattern(&mut f);
        f.wrap_x_halo();
        assert_eq!(f.get(-1, 0, 0), f.get(4, 0, 0));
        assert_eq!(f.get(-2, 1, 1), f.get(3, 1, 1));
        assert_eq!(f.get(5, 1, 0), f.get(0, 1, 0));
    }
}
