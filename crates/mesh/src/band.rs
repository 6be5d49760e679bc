//! Mutable latitude-row bands of a field — the worker pool's split axis.
//!
//! A band owns rows `j ∈ [j0, j1)` of a field on every level it covers
//! (full x extent including the halo).  Rows of one level are contiguous in
//! memory, levels are not: a [`RowBand3`] therefore holds one slice per
//! level, carved with `split_at_mut` and kept in a stack array; a
//! [`RowBand2`], the band of a surface field, is the same view with one
//! slot for its single level `k = 0`.
//! [`RowBand::split_at_row`] cuts every level's slice at the same row, so
//! the two halves are disjoint **by construction** — they can go to
//! different threads with no `unsafe` and no heap traffic.
//!
//! Accessors take the parent field's local coordinates; a row or level
//! outside the band panics (also in release builds: the index leaves the
//! band's slice).

use std::mem::take;

/// Most levels a [`RowBand3`] can cover (its per-level slices live in a
/// stack array).  The paper's mesh has 30 levels, `g_w` one more, and the
/// deepest communication-avoiding halo adds 9 on a side.
pub const MAX_BAND_PLANES: usize = 64;

/// Rows `[j0, j1)` × levels `[k0, k1)` of a [`crate::Field3`], mutable.
pub type RowBand3<'a> = RowBand<'a, MAX_BAND_PLANES>;

/// Rows `[j0, j1)` of a surface field ([`crate::Field3::surface`]) or of
/// any slice of equal-length rows ([`RowBand::over_rows`]), mutable; its
/// one level is `k = 0`.
pub type RowBand2<'a> = RowBand<'a, 1>;

/// A band of rows on up to `P` levels; see [`RowBand3`] and [`RowBand2`].
#[derive(Debug)]
pub struct RowBand<'a, const P: usize> {
    /// `planes[k - k0]`: the band's rows of level `k`; empty past `k1`.
    planes: [&'a mut [f64]; P],
    rows: (isize, isize),
    levels: (isize, isize),
    /// Low-side x halo width and row stride (the allocated row length).
    xm: usize,
    sy: usize,
    /// Sanitizer identity of the parent field's allocation.
    #[cfg(feature = "access-sanitizer")]
    san_key: usize,
}

/// What [`RowBand::carve`] needs to know of the parent allocation: the
/// low-side halo widths, the row stride and the plane stride.
pub(crate) struct Shape {
    pub xm: usize,
    pub ym: isize,
    pub zm: isize,
    pub sy: usize,
    pub sz: usize,
}

impl<'a, const P: usize> RowBand<'a, P> {
    /// Carve the band out of a field's whole allocation.  The caller has
    /// checked `rows` and `levels` against interior + halo.
    pub(crate) fn carve(
        data: &'a mut [f64],
        shape: Shape,
        rows: (isize, isize),
        levels: (isize, isize),
    ) -> Self {
        assert!(
            rows.0 <= rows.1 && levels.0 <= levels.1,
            "band ranges must be non-decreasing"
        );
        let nk = (levels.1 - levels.0) as usize;
        assert!(nk <= P, "a row band covers at most {P} levels, not {nk}");
        #[cfg(feature = "access-sanitizer")]
        let san_key = data.as_ptr() as usize;
        let at = |j: isize| (j + shape.ym) as usize * shape.sy;
        let mut planes: [&'a mut [f64]; P] = std::array::from_fn(|_| Default::default());
        let mut rest = &mut data[(levels.0 + shape.zm) as usize * shape.sz..];
        for p in &mut planes[..nk] {
            let (plane, tail) = take(&mut rest).split_at_mut(shape.sz);
            rest = tail;
            *p = &mut plane[at(rows.0)..at(rows.1)];
        }
        RowBand {
            planes,
            rows,
            levels,
            xm: shape.xm,
            sy: shape.sy,
            #[cfg(feature = "access-sanitizer")]
            san_key,
        }
    }

    /// The rows `[j0, j1)` this band owns.
    pub fn rows(&self) -> (isize, isize) {
        self.rows
    }

    /// Plane index and in-plane range of `x ∈ [x0, x1)` at `(j, k)`.
    #[inline]
    fn at(&self, x0: isize, x1: isize, j: isize, k: isize) -> (usize, std::ops::Range<usize>) {
        debug_assert!(
            (self.rows.0..self.rows.1).contains(&j) && (self.levels.0..self.levels.1).contains(&k),
            "({j}, {k}) outside band {:?} x {:?}",
            self.rows,
            self.levels
        );
        debug_assert!(-(self.xm as isize) <= x0 && x0 <= x1);
        debug_assert!((x1 + self.xm as isize) as usize <= self.sy);
        let a = (j - self.rows.0) as usize * self.sy + (x0 + self.xm as isize) as usize;
        ((k - self.levels.0) as usize, a..a + (x1 - x0) as usize)
    }

    /// Contiguous x-row `[x0, x1)` at `(j, k)` — same contract as
    /// [`crate::Field3::row`].
    #[inline]
    pub fn row(&self, x0: isize, x1: isize, j: isize, k: isize) -> &[f64] {
        #[cfg(feature = "access-sanitizer")]
        crate::sanitize::record(self.san_key, false, x0, (x1 - 1).max(x0), j, k);
        let (p, xs) = self.at(x0, x1, j, k);
        &self.planes[p][xs]
    }

    /// Mutable contiguous x-row — same contract as
    /// [`crate::Field3::row_mut`].
    #[inline]
    pub fn row_mut(&mut self, x0: isize, x1: isize, j: isize, k: isize) -> &mut [f64] {
        #[cfg(feature = "access-sanitizer")]
        crate::sanitize::record(self.san_key, true, x0, (x1 - 1).max(x0), j, k);
        let (p, xs) = self.at(x0, x1, j, k);
        &mut self.planes[p][xs]
    }

    /// Split at row `j` into the bands `[j0, j)` and `[j, j1)`, either of
    /// which may be empty.
    pub fn split_at_row(mut self, j: isize) -> (Self, Self) {
        assert!(
            self.rows.0 <= j && j <= self.rows.1,
            "split row {j} outside band {:?}",
            self.rows
        );
        let cut = (j - self.rows.0) as usize * self.sy;
        let mut south: [&'a mut [f64]; P] = std::array::from_fn(|_| Default::default());
        let nk = (self.levels.1 - self.levels.0) as usize;
        for (n, s) in self.planes[..nk].iter_mut().zip(&mut south) {
            (*n, *s) = take(n).split_at_mut(cut);
        }
        let south = RowBand {
            planes: south,
            rows: (j, self.rows.1),
            ..self
        };
        self.rows.1 = j;
        (self, south)
    }
}

impl<'a> RowBand2<'a> {
    /// Rows of `w` values each, the first of which is row `j0`, over a
    /// plain slice — a buffer that is to be split along with fields.
    pub fn over_rows(data: &'a mut [f64], w: usize, j0: isize) -> Self {
        let shape = Shape {
            xm: 0,
            ym: -j0,
            zm: 0,
            sy: w,
            sz: data.len(),
        };
        let rows = (j0, j0 + (data.len() / w.max(1)) as isize);
        RowBand::carve(data, shape, rows, (0, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Field3, HaloWidths};

    /// `f(i, j, k) = i + 10 j + 1000 k` on every point, halos included.
    fn numbered(nx: usize, ny: usize, nz: usize, h: HaloWidths) -> Field3 {
        let mut f = Field3::new(nx, ny, nz, h);
        for k in -(h.zm as isize)..(nz + h.zp) as isize {
            for j in -(h.ym as isize)..(ny + h.yp) as isize {
                for i in -(h.xm as isize)..(nx + h.xp) as isize {
                    f.set(i, j, k, (i + 10 * j + 1000 * k) as f64);
                }
            }
        }
        f
    }

    #[test]
    fn band_rows_are_the_parent_rows_halos_included() {
        let h = HaloWidths {
            xm: 2,
            xp: 1,
            ym: 2,
            yp: 3,
            zm: 1,
            zp: 2,
        };
        let mut f = numbered(5, 4, 3, h);
        let want = f.clone();
        // every row and level the allocation has, x into both halos
        let band: RowBand3 = f.row_band_mut((-2, 7), (-1, 5));
        assert_eq!(band.rows(), (-2, 7));
        for k in -1..5 {
            for j in -2..7 {
                assert_eq!(band.row(-2, 6, j, k), want.row(-2, 6, j, k), "({j},{k})");
            }
        }
        // X-Y decompositions compute one column into the x halo
        assert_eq!(band.row(-1, 6, 3, 2), want.row(-1, 6, 3, 2));
        assert_eq!(band.row(0, 0, 0, 0), &[] as &[f64]);
    }

    #[test]
    fn cuts_inside_the_halos_split_every_level_disjointly() {
        let h = HaloWidths::uniform(2);
        let mut f = Field3::new(4, 5, 3, h);
        // cuts in the north halo, the interior, the south halo
        let cuts = [-2isize, -1, 3, 6, 7];
        let mut rest: RowBand3 = f.row_band_mut((-2, 7), (-2, 5));
        let mut bands = Vec::new();
        for &cut in &cuts[1..4] {
            let (band, tail) = rest.split_at_row(cut);
            bands.push(band);
            rest = tail;
        }
        bands.push(rest);
        for (b, band) in bands.iter_mut().enumerate() {
            assert_eq!(band.rows(), (cuts[b], cuts[b + 1]));
            let (j0, j1) = band.rows();
            for k in -2..5 {
                for j in j0..j1 {
                    for v in band.row_mut(-2, 6, j, k) {
                        *v += (b + 1) as f64;
                    }
                }
            }
        }
        // every point written exactly once, by the band that owns its row
        for k in -2..5 {
            for j in -2..7 {
                let b = cuts[1..].iter().position(|&c| j < c).unwrap();
                assert_eq!(f.row(-2, 6, j, k), [(b + 1) as f64; 8], "({j},{k})");
            }
        }
    }

    #[test]
    fn empty_and_single_row_bands() {
        let mut f = numbered(3, 4, 2, HaloWidths::uniform(1));
        let whole: RowBand3 = f.row_band_mut((0, 4), (0, 2));
        let (empty, rest) = whole.split_at_row(0);
        assert_eq!(empty.rows(), (0, 0));
        let (one, rest) = rest.split_at_row(1);
        assert_eq!(one.rows(), (0, 1));
        assert_eq!(one.row(0, 3, 0, 1), [1000.0, 1001.0, 1002.0]);
        let (rest, empty) = rest.split_at_row(4);
        assert_eq!((rest.rows(), empty.rows()), ((1, 4), (4, 4)));
        assert_eq!(rest.row(-1, 4, 3, 0), [29.0, 30.0, 31.0, 32.0, 33.0]);
        // a band of no rows at all, or of no levels, is fine too
        assert_eq!(f.row_band_mut::<2>((2, 2), (0, 2)).rows(), (2, 2));
        assert_eq!(f.row_band_mut::<2>((0, 4), (1, 1)).rows(), (0, 4));
    }

    #[test]
    fn interface_fields_carry_one_more_level() {
        // g_w: nz + 1 levels, the band covers z0 ..= z1
        let (nz, h) = (4, HaloWidths::uniform(1));
        let mut gw = numbered(3, 2, nz + 1, h);
        let mut band: RowBand3 = gw.row_band_mut((0, 2), (0, nz as isize + 1));
        band.row_mut(0, 3, 1, nz as isize).fill(-1.0);
        assert_eq!(band.row(0, 3, 1, nz as isize - 1), [3010.0, 3011.0, 3012.0]);
        assert_eq!(gw.row(0, 3, 1, nz as isize), [-1.0; 3]);
        assert_eq!(gw.get(0, 0, nz as isize), 4000.0);
    }

    #[test]
    fn surface_bands_split_contiguously() {
        let mut f = Field3::surface(3, 4, HaloWidths::uniform(1));
        let (north, south) = f.row_band_mut::<1>((-1, 5), (0, 1)).split_at_row(2);
        let (mut north, mut south) = (north, south);
        assert_eq!((north.rows(), south.rows()), ((-1, 2), (2, 5)));
        for j in -1..2 {
            north.row_mut(-1, 4, j, 0).fill(1.0);
        }
        for j in 2..5 {
            south.row_mut(0, 3, j, 0).fill(2.0);
        }
        assert_eq!(south.row(-1, 4, 4, 0), [0.0, 2.0, 2.0, 2.0, 0.0]);
        assert_eq!(f.get(-1, -1, 0), 1.0);
        assert_eq!(f.get(3, 1, 0), 1.0);
        assert_eq!(f.get(0, 2, 0), 2.0);
        assert_eq!(f.get(-1, 2, 0), 0.0);
    }

    #[test]
    fn plain_row_buffers_split_like_fields() {
        // three rows of four values, the first of which is row -1
        let mut buf: Vec<f64> = (0..12).map(f64::from).collect();
        let whole = RowBand2::over_rows(&mut buf, 4, -1);
        assert_eq!(whole.rows(), (-1, 2));
        let (mut north, south) = whole.split_at_row(0);
        assert_eq!(south.row(0, 4, 1, 0), [8.0, 9.0, 10.0, 11.0]);
        north.row_mut(1, 3, -1, 0).fill(-1.0);
        assert_eq!(buf[..5], [0.0, -1.0, -1.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic]
    fn a_row_of_the_other_band_is_out_of_reach() {
        let mut f = Field3::new(3, 4, 2, HaloWidths::uniform(1));
        let (north, _south) = f.row_band_mut::<2>((0, 4), (0, 2)).split_at_row(2);
        let _ = north.row(0, 3, 2, 0);
    }

    #[test]
    #[should_panic]
    fn a_level_outside_the_band_is_out_of_reach() {
        let mut f = Field3::new(3, 4, 4, HaloWidths::uniform(1));
        let band: RowBand3 = f.row_band_mut((0, 4), (1, 3));
        let _ = band.row(0, 3, 0, 3);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn more_levels_than_the_plane_list_holds_is_refused() {
        let mut f = Field3::dense(2, 2, MAX_BAND_PLANES + 1);
        let _: RowBand3 = f.row_band_mut((0, 2), (0, MAX_BAND_PLANES as isize + 1));
    }
}
