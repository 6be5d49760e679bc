//! The one tendency sweep behind every sub-update.
//!
//! A sub-update is `out = form(base, Δt·F̃(tendency(arg)))`.  The polar
//! filter `F̃` is the identity on most latitude rows (78 % at the paper's
//! 70° cut-off), so the sweep treats the two kinds of row differently:
//!
//! * a filter-**inactive** row's tendency goes to a per-worker row buffer
//!   and is combined into `out` at once, while it is cache-hot,
//! * a filter-**active** row's raw tendency is stored to its own row of
//!   `out`, which nothing else reads or writes until the engine has
//!   filtered it in place (locally or through the x-transposes) and
//!   combined it there (`Update::combine_filtered`).
//!
//! So a sub-update needs no state besides its argument, base and output.
//! The tendency-only entry points (`adaptation_tendency`, …) are the same
//! sweep with no [`Update`]: every row is stored.  Rows are independent, so
//! which path a row takes — and which worker's band it falls in — cannot
//! change a bit of the result.  A band is a range of latitude rows on all
//! levels of the region ([`crate::pool`]); it sweeps its 3-D rows level by
//! level and then its own rows of the 2-D `p'_sa` component.
//!
//! The adaptation sub-update's `C` leaves `D(P)` in the output's Φ rows as
//! well: the sweep copies row `(j, k)` of it into a per-worker row
//! (`SweepBand::load_dp`) before it emits the row's update over it.
//!
//! [`SweepScratch`] owns what the sweep needs per worker: the three
//! tendency row buffers, the `D(P)` row and the advection kernel's staged
//! quotient rows (`advection::Staged`).  The engine warms one for its
//! worker count, like the filter's `FilterScratch`; the tendency-only entry
//! points build a transient one.

use crate::advection::Staged;
use crate::geometry::Region;
use crate::pool::{self, band_struct, PerWorker};
use crate::state::{combine_row, combine_row_in_place, Combine, RowId, State, StateBand};
use agcm_mesh::Field3;

/// The combination of a sub-update: applied by its sweep to filter-inactive
/// rows, and by its filter to the active ones.
pub struct Update<'a> {
    /// State the scaled tendency is added to.
    pub base: &'a State,
    /// Time-step factor.
    pub dt: f64,
    /// Euler update or the midpoint of base and Euler update.
    pub form: Combine,
    /// Per-row polar-filter activity, indexed `j + active_off`.
    pub active: &'a [bool],
    /// Offset mapping local row `j` (negative in deep-halo sub-updates)
    /// into `active`.
    pub active_off: isize,
}

impl Update<'_> {
    /// Whether the polar filter damps local row `j`.
    #[inline]
    pub fn is_active(&self, j: isize) -> bool {
        self.active[(j + self.active_off) as usize]
    }

    #[inline]
    fn combine_row(&self, d: &mut [f64], x: &[f64], t: &[f64]) {
        combine_row(self.form, d, x, self.dt, t);
    }

    /// Combine output row `id` of a filter-active row, which holds its
    /// filtered tendency: `d = form(base, dt·d)` in place.
    #[inline]
    pub(crate) fn combine_filtered(&self, d: &mut [f64], id: RowId) {
        let x = self.base.row(d.len() as isize, id);
        combine_row_in_place(self.form, d, x, self.dt);
    }
}

/// One worker's row buffers.
#[derive(Debug, Default)]
pub(crate) struct RowScratch {
    staged: Staged,
    /// `D(P)` of the row the adaptation sweep emits next.
    dp: Vec<f64>,
    tend: [Vec<f64>; 3],
}

/// Per-worker row buffers of the tendency sweeps; grows the first time a
/// worker count or row length is seen and allocates nothing afterwards.
#[derive(Debug, Default)]
pub struct SweepScratch {
    workers: Vec<RowScratch>,
}

impl SweepScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the first `n` workers' buffers for rows of `nx` longitudes —
    /// the only place the sweeps allocate.
    pub fn warm(&mut self, nx: usize, n: usize) {
        if self.workers.len() < n {
            self.workers.resize_with(n, RowScratch::default);
        }
        for w in &mut self.workers[..n] {
            w.staged.size(nx);
            for t in std::iter::once(&mut w.dp).chain(&mut w.tend) {
                t.resize(nx, 0.0);
            }
        }
    }
}

/// One worker's share of a sweep: a row band of the output state, the
/// combination when the sweep combines, and the worker's row buffers.
pub(crate) struct SweepBand<'a> {
    out: StateBand<'a>,
    upd: Option<&'a Update<'a>>,
    rows: PerWorker<'a, RowScratch>,
}

band_struct!(SweepBand { out, upd, rows });

impl SweepBand<'_> {
    /// Copy row `(j, k)` of `D(P)` into this worker's row for the next
    /// [`Self::emit`]: from `src`, or — `None` — from the output's own Φ
    /// row, where the adaptation sub-update's `C` left it and over which
    /// that emit stores the row's update.
    #[inline]
    pub fn load_dp(&mut self, nx: isize, (j, k): (isize, isize), src: Option<&Field3>) {
        let row = match src {
            Some(dp) => dp.row(0, nx, j, k),
            None => self.out.phi.row(0, nx, j, k),
        };
        self.rows.mine().dp.copy_from_slice(row);
    }

    /// Produce the three tendency rows of `(j, k)` with `compute`, which
    /// also gets the row [`Self::load_dp`] loaded — into the row buffers,
    /// combined into the output at once, when the sweep combines and the
    /// row is filter-inactive; into the output rows otherwise.
    #[inline]
    pub fn emit(
        &mut self,
        nx: isize,
        (j, k): (isize, isize),
        compute: impl FnOnce(&mut Staged, &[f64], &mut [f64], &mut [f64], &mut [f64]),
    ) {
        let RowScratch { staged, dp, tend } = self.rows.mine();
        let out = &mut self.out;
        match self.upd {
            Some(u) if !u.is_active(j) => {
                let [t_u, t_v, t_phi] = tend;
                compute(staged, dp, t_u, t_v, t_phi);
                let b = u.base;
                u.combine_row(out.u.row_mut(0, nx, j, k), b.u.row(0, nx, j, k), t_u);
                u.combine_row(out.v.row_mut(0, nx, j, k), b.v.row(0, nx, j, k), t_v);
                u.combine_row(out.phi.row_mut(0, nx, j, k), b.phi.row(0, nx, j, k), t_phi);
            }
            _ => compute(
                staged,
                dp,
                out.u.row_mut(0, nx, j, k),
                out.v.row_mut(0, nx, j, k),
                out.phi.row_mut(0, nx, j, k),
            ),
        }
    }

    /// The 2-D `p'_sa` tendency of row `j`, routed like [`Self::emit`].
    fn emit_psa(&mut self, nx: isize, j: isize, psa_row: impl Fn(isize, &mut [f64])) {
        match self.upd {
            Some(u) if !u.is_active(j) => {
                let t = &mut self.rows.mine().tend[0][..];
                psa_row(j, t);
                let d = self.out.psa.row_mut(0, nx, j, 0);
                u.combine_row(d, u.base.psa.row(0, nx, j, 0), t);
            }
            _ => psa_row(j, self.out.psa.row_mut(0, nx, j, 0)),
        }
    }
}

/// Run `band_fn` over the worker bands of `region` — each a band of rows
/// on all its levels — then `psa_row` (the 2-D `p'_sa` tendency of one
/// row) over the band's own rows, into `out`.  With an `upd`,
/// filter-inactive rows are combined into `out` and active rows are left
/// holding their raw tendency.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep(
    nx: usize,
    region: Region,
    out: &mut State,
    upd: Option<&Update<'_>>,
    scratch: &mut SweepScratch,
    label: &'static str,
    band_fn: impl Fn(&mut SweepBand<'_>, Region) + Sync,
    psa_row: impl Fn(isize, &mut [f64]) + Sync,
) {
    let cuts = pool::region_cuts(&region, nx, |_| true);
    scratch.warm(nx, cuts.bands());
    let whole = SweepBand {
        out: out.band_mut(&region),
        upd,
        rows: PerWorker(&mut scratch.workers[..cuts.bands()]),
    };
    pool::run(whole, &cuts, label, |band, y0, y1| {
        band_fn(band, Region { y0, y1, ..region });
        for j in y0..y1 {
            band.emit_psa(nx as isize, j, &psa_row);
        }
    });
}
