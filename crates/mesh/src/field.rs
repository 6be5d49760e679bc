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
//! [`Field2`] is the 2-D (surface) analogue used for `p'_sa` and the other
//! single-level variables.

use crate::band::{RowBand2, RowBand3, Shape};
use crate::error::MeshError;
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

/// A 3-D scalar field on one rank's subdomain, with halos.
#[derive(Debug, Clone, PartialEq)]
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
            data: vec![0.0; tx * ty * tz],
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

    /// Number of interior points.
    pub fn interior_len(&self) -> usize {
        self.nx * self.ny * self.nz
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

    /// Bounds-check one local coordinate triple against interior + halo,
    /// returning the linear index.  The hot-path accessors ([`Field3::get`]
    /// and friends) skip this in release builds; use the `try_*` accessors
    /// on paths where an out-of-range index must surface as a typed error
    /// instead of a panic (or worse, a wrapped index into the wrong point).
    pub fn checked_idx(&self, i: isize, j: isize, k: isize) -> Result<usize, MeshError> {
        let check = |axis, index, m: usize, n: usize, p: usize| {
            let (lo, hi) = (-(m as isize), (n + p) as isize);
            if index < lo || index >= hi {
                Err(MeshError::OutOfBounds {
                    axis,
                    index,
                    lo,
                    hi,
                })
            } else {
                Ok(())
            }
        };
        check('x', i, self.halo.xm, self.nx, self.halo.xp)?;
        check('y', j, self.halo.ym, self.ny, self.halo.yp)?;
        check('z', k, self.halo.zm, self.nz, self.halo.zp)?;
        Ok((self.base as isize + i + j * self.sy as isize + k * self.sz as isize) as usize)
    }

    /// Bounds-checked read at local coordinates.
    pub fn try_get(&self, i: isize, j: isize, k: isize) -> Result<f64, MeshError> {
        Ok(self.data[self.checked_idx(i, j, k)?])
    }

    /// Bounds-checked write at local coordinates.
    pub fn try_set(&mut self, i: isize, j: isize, k: isize, v: f64) -> Result<(), MeshError> {
        let ix = self.checked_idx(i, j, k)?;
        self.data[ix] = v;
        Ok(())
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
    /// that take untrusted coordinates must use [`Self::checked_idx`] first.
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
    /// band (full x extent; both ranges may reach into the halo).  The
    /// worker pool carves a field into disjoint per-thread bands by
    /// splitting this view at row cuts ([`RowBand3::split_at_row`]) —
    /// allocation-free, indexed like the parent field.
    pub fn row_band_mut(&mut self, rows: (isize, isize), levels: (isize, isize)) -> RowBand3<'_> {
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
        RowBand3::carve(&mut self.data, shape, rows, levels)
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

    /// Poison the halo with NaN.  Tests use this to prove an operator never
    /// reads outside the region its footprint declares.
    pub fn poison_halo(&mut self) {
        let (nx, ny, nz) = (self.nx as isize, self.ny as isize, self.nz as isize);
        let h = self.halo;
        for k in -(h.zm as isize)..nz + h.zp as isize {
            for j in -(h.ym as isize)..ny + h.yp as isize {
                for i in -(h.xm as isize)..nx + h.xp as isize {
                    let interior =
                        (0..nx).contains(&i) && (0..ny).contains(&j) && (0..nz).contains(&k);
                    if !interior {
                        self.set(i, j, k, f64::NAN);
                    }
                }
            }
        }
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

/// A 2-D (single-level) scalar field with halos, used for the surface
/// variables (`p'_sa`, `p_es`, …).
#[derive(Debug, Clone, PartialEq)]
pub struct Field2 {
    data: Vec<f64>,
    nx: usize,
    ny: usize,
    hx: (usize, usize),
    hy: (usize, usize),
    sy: usize,
    base: usize,
}

impl Field2 {
    /// Allocate a zero-filled 2-D field; `halo.z*` components are ignored.
    pub fn new(nx: usize, ny: usize, halo: HaloWidths) -> Self {
        let tx = nx + halo.xm + halo.xp;
        let ty = ny + halo.ym + halo.yp;
        let sy = tx;
        let base = halo.xm + halo.ym * sy;
        Field2 {
            data: vec![0.0; tx * ty],
            nx,
            ny,
            hx: (halo.xm, halo.xp),
            hy: (halo.ym, halo.yp),
            sy,
            base,
        }
    }

    /// Allocate with no halo.
    pub fn dense(nx: usize, ny: usize) -> Self {
        Self::new(nx, ny, HaloWidths::zero())
    }

    /// A new field with the same shape, zero-filled.
    pub fn like(other: &Field2) -> Self {
        let mut h = HaloWidths::zero();
        h.xm = other.hx.0;
        h.xp = other.hx.1;
        h.ym = other.hy.0;
        h.yp = other.hy.1;
        Field2::new(other.nx, other.ny, h)
    }

    /// Interior extents.
    pub fn extents(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Halo widths (z components zero).
    pub fn halo(&self) -> HaloWidths {
        HaloWidths {
            xm: self.hx.0,
            xp: self.hx.1,
            ym: self.hy.0,
            yp: self.hy.1,
            zm: 0,
            zp: 0,
        }
    }

    /// Raw data (including halos) — escape hatch for checkpoint I/O.
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Raw mutable data.
    pub fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    #[inline]
    fn idx(&self, i: isize, j: isize) -> usize {
        debug_assert!(
            i >= -(self.hx.0 as isize) && i < (self.nx + self.hx.1) as isize,
            "x index {i} out of range"
        );
        debug_assert!(
            j >= -(self.hy.0 as isize) && j < (self.ny + self.hy.1) as isize,
            "y index {j} out of range"
        );
        (self.base as isize + i + j * self.sy as isize) as usize
    }

    /// Bounds-check one local coordinate pair; see [`Field3::checked_idx`].
    pub fn checked_idx(&self, i: isize, j: isize) -> Result<usize, MeshError> {
        let check = |axis, index, m: usize, n: usize, p: usize| {
            let (lo, hi) = (-(m as isize), (n + p) as isize);
            if index < lo || index >= hi {
                Err(MeshError::OutOfBounds {
                    axis,
                    index,
                    lo,
                    hi,
                })
            } else {
                Ok(())
            }
        };
        check('x', i, self.hx.0, self.nx, self.hx.1)?;
        check('y', j, self.hy.0, self.ny, self.hy.1)?;
        Ok((self.base as isize + i + j * self.sy as isize) as usize)
    }

    /// Bounds-checked read at local coordinates.
    pub fn try_get(&self, i: isize, j: isize) -> Result<f64, MeshError> {
        Ok(self.data[self.checked_idx(i, j)?])
    }

    /// Bounds-checked write at local coordinates.
    pub fn try_set(&mut self, i: isize, j: isize, v: f64) -> Result<(), MeshError> {
        let ix = self.checked_idx(i, j)?;
        self.data[ix] = v;
        Ok(())
    }

    /// Sanitizer identity of this field's allocation: pass to
    /// [`crate::sanitize::track`] to have its accesses recorded.
    #[cfg(feature = "access-sanitizer")]
    pub fn sanitizer_key(&self) -> usize {
        self.data.as_ptr() as usize
    }

    #[cfg(feature = "access-sanitizer")]
    #[inline]
    fn san(&self, write: bool, i0: isize, i1: isize, j: isize) {
        crate::sanitize::record(self.data.as_ptr() as usize, write, i0, i1, j, 0);
    }

    /// Read at local coordinates.
    #[inline]
    pub fn get(&self, i: isize, j: isize) -> f64 {
        #[cfg(feature = "access-sanitizer")]
        self.san(false, i, i, j);
        self.data[self.idx(i, j)]
    }

    /// Write at local coordinates.
    #[inline]
    pub fn set(&mut self, i: isize, j: isize, v: f64) {
        #[cfg(feature = "access-sanitizer")]
        self.san(true, i, i, j);
        let ix = self.idx(i, j);
        self.data[ix] = v;
    }

    /// Add at local coordinates.
    #[inline]
    pub fn add(&mut self, i: isize, j: isize, v: f64) {
        #[cfg(feature = "access-sanitizer")]
        self.san(true, i, i, j);
        let ix = self.idx(i, j);
        self.data[ix] += v;
    }

    /// Contiguous x-row `[x0, x1)` at row `j` — same safety contract as
    /// [`Field3::row`].
    #[inline]
    pub fn row(&self, x0: isize, x1: isize, j: isize) -> &[f64] {
        debug_assert!(x0 <= x1);
        debug_assert!(x1 <= (self.nx + self.hx.1) as isize);
        #[cfg(feature = "access-sanitizer")]
        self.san(false, x0, (x1 - 1).max(x0), j);
        let a = self.idx(x0, j);
        &self.data[a..a + (x1 - x0) as usize]
    }

    /// Mutable contiguous x-row — same safety contract as
    /// [`Field3::row_mut`].
    #[inline]
    pub fn row_mut(&mut self, x0: isize, x1: isize, j: isize) -> &mut [f64] {
        debug_assert!(x0 <= x1);
        debug_assert!(x1 <= (self.nx + self.hx.1) as isize);
        #[cfg(feature = "access-sanitizer")]
        self.san(true, x0, (x1 - 1).max(x0), j);
        let a = self.idx(x0, j);
        &mut self.data[a..a + (x1 - x0) as usize]
    }

    /// Two *disjoint* mutable x-rows at `ja` and `jb`, in that order.
    /// Panics if the rows coincide.  Same bounds contract as
    /// [`Field3::row`].
    #[inline]
    pub fn row_pair(
        &mut self,
        x0: isize,
        x1: isize,
        ja: isize,
        jb: isize,
    ) -> (&mut [f64], &mut [f64]) {
        assert!(ja != jb, "row_pair requires two distinct rows");
        debug_assert!(x0 <= x1);
        #[cfg(feature = "access-sanitizer")]
        {
            self.san(true, x0, (x1 - 1).max(x0), ja);
            self.san(true, x0, (x1 - 1).max(x0), jb);
        }
        let w = (x1 - x0) as usize;
        let a = self.idx(x0, ja);
        let b = self.idx(x0, jb);
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b);
            (&mut lo[a..a + w], &mut hi[..w])
        } else {
            let (lo, hi) = self.data.split_at_mut(a);
            let second = &mut lo[b..b + w];
            (&mut hi[..w], second)
        }
    }

    /// Rows `[j0, j1)` as one mutable band of the single level `k = 0` —
    /// see [`Field3::row_band_mut`].
    pub fn row_band_mut(&mut self, rows: (isize, isize)) -> RowBand2<'_> {
        assert!(rows.0 >= -(self.hy.0 as isize) && rows.1 <= (self.ny + self.hy.1) as isize);
        let shape = Shape {
            xm: self.hx.0,
            ym: self.hy.0 as isize,
            zm: 0,
            sy: self.sy,
            sz: self.data.len(),
        };
        RowBand2::carve(&mut self.data, shape, rows, (0, 1))
    }

    /// Set every point (interior and halo) to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// `self = a` over the interior.
    pub fn assign_interior(&mut self, a: &Field2) {
        assert_eq!(self.extents(), a.extents());
        for j in 0..self.ny as isize {
            let src = a.row(0, a.nx as isize, j);
            self.row_mut(0, self.nx as isize, j).copy_from_slice(src);
        }
    }

    /// `self = a` on every point both fields hold (see
    /// [`Field3::assign_common`]).
    pub fn assign_common(&mut self, a: &Field2) {
        assert_eq!(self.extents(), a.extents());
        let (h, ah) = (self.halo(), a.halo());
        let lo = |mine: usize, theirs: usize| -(mine.min(theirs) as isize);
        let hi = |n: usize, mine: usize, theirs: usize| (n + mine.min(theirs)) as isize;
        let (x0, x1) = (lo(h.xm, ah.xm), hi(self.nx, h.xp, ah.xp));
        for j in lo(h.ym, ah.ym)..hi(self.ny, h.yp, ah.yp) {
            self.row_mut(x0, x1, j).copy_from_slice(a.row(x0, x1, j));
        }
    }

    /// `self = x + c*y` over the interior.
    pub fn lincomb_interior(&mut self, x: &Field2, c: f64, y: &Field2) {
        assert_eq!(self.extents(), x.extents());
        assert_eq!(self.extents(), y.extents());
        for j in 0..self.ny as isize {
            let n = self.nx as isize;
            let xr = x.row(0, n, j);
            let yr = y.row(0, n, j);
            let dr = self.row_mut(0, n, j);
            for ((d, &xv), &yv) in dr.iter_mut().zip(xr).zip(yr) {
                *d = xv + c * yv;
            }
        }
    }

    /// Maximum absolute difference over interiors.
    pub fn max_abs_diff(&self, other: &Field2) -> f64 {
        assert_eq!(self.extents(), other.extents());
        let mut m: f64 = 0.0;
        for j in 0..self.ny as isize {
            let n = self.nx as isize;
            for (&x, &y) in self.row(0, n, j).iter().zip(other.row(0, n, j)) {
                m = m.max((x - y).abs());
            }
        }
        m
    }

    /// Maximum absolute interior value.
    pub fn max_abs(&self) -> f64 {
        let mut m: f64 = 0.0;
        for j in 0..self.ny as isize {
            for &v in self.row(0, self.nx as isize, j) {
                m = m.max(v.abs());
            }
        }
        m
    }

    /// Pack a rectangular box into `buf`.
    pub fn pack_box(
        &self,
        xr: std::ops::Range<isize>,
        yr: std::ops::Range<isize>,
        buf: &mut Vec<f64>,
    ) -> usize {
        let n0 = buf.len();
        for j in yr {
            buf.extend_from_slice(self.row(xr.start, xr.end, j));
        }
        buf.len() - n0
    }

    /// Unpack a rectangular box from `buf`; returns values consumed.
    pub fn unpack_box(
        &mut self,
        xr: std::ops::Range<isize>,
        yr: std::ops::Range<isize>,
        buf: &[f64],
    ) -> usize {
        let w = (xr.end - xr.start) as usize;
        let mut off = 0;
        for j in yr {
            self.row_mut(xr.start, xr.end, j)
                .copy_from_slice(&buf[off..off + w]);
            off += w;
        }
        off
    }

    /// Fill the x halo by periodic wrap within this rank (requires `px = 1`,
    /// see [`Field3::wrap_x_halo`]).
    pub fn wrap_x_halo(&mut self) {
        let nx = self.nx;
        let (hm, hp) = (self.hx.0, self.hx.1);
        if hm == 0 && hp == 0 {
            return;
        }
        let ny = self.ny as isize;
        let (hym, hyp) = (self.hy.0 as isize, self.hy.1 as isize);
        for j in -hym..ny + hyp {
            let a = self.idx(-(hm as isize), j);
            let row = &mut self.data[a..a + hm + nx + hp];
            row.copy_within(nx..nx + hm, 0);
            row.copy_within(hm..hm + hp, hm + nx);
        }
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
        assert_eq!(f.interior_len(), 24);
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
        let mut p = Field2::new(4, 3, deep);
        for (n, v) in p.raw_mut().iter_mut().enumerate() {
            *v = n as f64;
        }
        let mut q = Field2::new(4, 3, HaloWidths::uniform(2));
        q.assign_common(&p);
        assert_eq!(q.get(-1, -2), p.get(-1, -2));
        assert_eq!(q.get(4, 3), p.get(4, 3));
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
        f.poison_halo();
        assert!(!f.has_nan_interior());
        assert!(f.get(-1, 0, 0).is_nan());
        assert!(f.get(3, 2, 1).is_nan());
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

    #[test]
    fn field2_basics() {
        let mut f = Field2::new(5, 4, HaloWidths::uniform(2));
        for j in 0..4isize {
            for i in 0..5isize {
                f.set(i, j, (i + 10 * j) as f64);
            }
        }
        assert_eq!(f.get(3, 2), 23.0);
        f.wrap_x_halo();
        assert_eq!(f.get(-1, 1), f.get(4, 1));
        assert_eq!(f.get(6, 3), f.get(1, 3));

        let mut b = Field2::like(&f);
        let mut buf = Vec::new();
        f.pack_box(0..5, 2..4, &mut buf);
        b.unpack_box(0..5, -2..0, &buf);
        assert_eq!(b.get(2, -1), f.get(2, 3));

        let mut c = Field2::like(&f);
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
    }

    #[test]
    #[should_panic]
    fn row_pair_same_row_panics() {
        let mut f = Field3::new(4, 3, 2, HaloWidths::uniform(1));
        let _ = f.row_pair(0, 4, (1, 1), (1, 1));
    }

    #[test]
    fn field2_row_pair_keeps_argument_order() {
        let mut f = Field2::new(3, 3, HaloWidths::uniform(1));
        for j in 0..3 {
            for i in 0..3 {
                f.set(i, j, (i + 10 * j) as f64);
            }
        }
        let (a, b) = f.row_pair(0, 3, 2, 0);
        assert_eq!(a, &[20.0, 21.0, 22.0]);
        assert_eq!(b, &[0.0, 1.0, 2.0]);
        b.copy_from_slice(a);
        assert_eq!(f.get(1, 0), 21.0);
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

    #[test]
    fn checked_accessors_bound_interior_plus_halo() {
        let mut f = Field3::new(4, 3, 2, HaloWidths::uniform(1));
        f.set(0, 0, 0, 5.0);
        assert_eq!(f.try_get(0, 0, 0).unwrap(), 5.0);
        assert!(f.try_get(-1, -1, -1).is_ok(), "halo is reachable");
        assert!(f.try_set(4, 2, 1, 1.0).is_ok(), "upper halo is reachable");
        let e = f.try_get(5, 0, 0).unwrap_err();
        assert!(
            matches!(
                e,
                MeshError::OutOfBounds {
                    axis: 'x',
                    index: 5,
                    ..
                }
            ),
            "{e}"
        );
        assert!(f.try_get(0, -2, 0).is_err());
        assert!(f.try_set(0, 0, 3, 0.0).is_err());
        // checked and unchecked agree on in-range points
        assert_eq!(f.checked_idx(2, 1, 1).unwrap(), f.idx(2, 1, 1));

        let mut g = Field2::new(4, 3, HaloWidths::uniform(2));
        assert!(g.try_set(-2, 4, 9.0).is_ok());
        assert_eq!(g.try_get(-2, 4).unwrap(), 9.0);
        let e = g.try_get(0, 5).unwrap_err();
        assert!(
            matches!(
                e,
                MeshError::OutOfBounds {
                    axis: 'y',
                    index: 5,
                    ..
                }
            ),
            "{e}"
        );
    }
}
