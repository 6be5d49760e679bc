//! The one tendency sweep behind every sub-update.
//!
//! A sub-update is `out = form(base, Δt·F̃(tendency(arg)))`.  The polar
//! filter `F̃` is the identity on most latitude rows (78 % at the paper's
//! 70° cut-off), so the sweep treats the two kinds of row differently:
//!
//! * a filter-**inactive** row's tendency goes to a per-worker row buffer
//!   and is combined into `out` at once, while it is cache-hot — it never
//!   touches the tendency state,
//! * a filter-**active** row's tendency is stored to the tendency state,
//!   which the engine then filters (locally or through the x-transposes)
//!   and combines row by row.
//!
//! The tendency-only entry points (`adaptation_tendency`, …) are the same
//! sweep with no [`Update`]: every row is stored.  Rows are independent, so
//! which path a row takes — and which worker's band it falls in — cannot
//! change a bit of the result.
//!
//! [`SweepScratch`] owns what the sweep needs per worker: the three
//! tendency row buffers and the advection kernel's staged quotient rows
//! (`advection::Staged`).  The engine warms one for its worker
//! count, like the filter's `FilterScratch`; the un-suffixed entry points
//! build a transient one.

use crate::advection::Staged;
use crate::geometry::Region;
use crate::lanes::KernelPath;
use crate::pool::{self, StateBand, MAX_WORKERS};
use crate::state::{combine_row_path, Combine, State};

/// The combination a sub-update's sweep applies to filter-inactive rows.
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
    fn combine_row(&self, d: &mut [f64], x: &[f64], t: &[f64], path: KernelPath) {
        combine_row_path(self.form, d, x, self.dt, t, path);
    }

    /// Combine the filter-active rows of `region` from the (by now
    /// filtered) tendency state — the rows the sweep left out.
    pub fn combine_active_rows(&self, out: &mut State, tend: &State, region: Region) {
        for j in (region.y0..region.y1).filter(|&j| self.is_active(j)) {
            let row = Region {
                y0: j,
                y1: j + 1,
                ..region
            };
            out.combine_on(self.form, self.base, self.dt, tend, &row);
        }
    }
}

/// One worker's row buffers.
#[derive(Debug, Default)]
pub(crate) struct RowScratch {
    staged: Staged,
    tend: [Vec<f64>; 3],
}

/// Per-worker row buffers of the tendency sweeps; grows the first time a
/// worker count or row length is seen and allocates nothing afterwards.
#[derive(Debug, Default)]
pub struct SweepScratch {
    workers: Vec<RowScratch>,
    /// Tendency row of the 2-D `p'_sa` component (swept on the caller).
    psa: Vec<f64>,
}

impl SweepScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the first `n` workers' buffers for rows of `nx` longitudes —
    /// the only place the sweeps allocate.
    pub fn warm(&mut self, nx: usize, n: usize) {
        self.psa.resize(nx, 0.0);
        if self.workers.len() < n {
            self.workers.resize_with(n, RowScratch::default);
        }
        for w in &mut self.workers[..n] {
            w.staged.size(nx);
            for t in &mut w.tend {
                t.resize(nx, 0.0);
            }
        }
    }
}

/// One worker's share of a sweep: a z-band of the tendency state, of the
/// output state (with the combination) when the sweep combines, and the
/// worker's row buffers.
pub(crate) struct SweepBand<'a> {
    tend: StateBand<'a>,
    combine: Option<(&'a Update<'a>, StateBand<'a>)>,
    rows: &'a mut RowScratch,
}

impl SweepBand<'_> {
    /// The band's region (`y` span of the sweep, `z` restricted).
    pub fn region(&self) -> Region {
        self.tend.region
    }

    /// Produce the three tendency rows of `(j, k)` with `compute` — into
    /// the row buffers, combined into the output at once, when the sweep
    /// combines and the row is filter-inactive; into the tendency state
    /// otherwise.
    #[inline]
    pub fn emit(
        &mut self,
        nx: isize,
        (j, k): (isize, isize),
        path: KernelPath,
        compute: impl FnOnce(&mut Staged, &mut [f64], &mut [f64], &mut [f64]),
    ) {
        let RowScratch { staged, tend } = &mut *self.rows;
        match &mut self.combine {
            Some((u, out)) if !u.is_active(j) => {
                let [t_u, t_v, t_phi] = tend;
                compute(staged, t_u, t_v, t_phi);
                let b = u.base;
                u.combine_row(out.u.row_mut(0, nx, j, k), b.u.row(0, nx, j, k), t_u, path);
                u.combine_row(out.v.row_mut(0, nx, j, k), b.v.row(0, nx, j, k), t_v, path);
                u.combine_row(
                    out.phi.row_mut(0, nx, j, k),
                    b.phi.row(0, nx, j, k),
                    t_phi,
                    path,
                );
            }
            _ => compute(
                staged,
                self.tend.u.row_mut(0, nx, j, k),
                self.tend.v.row_mut(0, nx, j, k),
                self.tend.phi.row_mut(0, nx, j, k),
            ),
        }
    }
}

/// Run `band_fn` over the worker bands of `region`, then `psa_row` (the
/// 2-D `p'_sa` tendency of one row) over its rows on the caller.  With a
/// `combine = (update, out)`, filter-inactive rows are combined into `out`
/// without passing through `tend`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep(
    nx: usize,
    region: Region,
    tend: &mut State,
    mut combine: Option<(&Update<'_>, &mut State)>,
    scratch: &mut SweepScratch,
    path: KernelPath,
    label: &'static str,
    band_fn: impl Fn(&mut SweepBand<'_>) + Sync,
    psa_row: impl Fn(isize, &mut [f64]),
) {
    let points =
        nx * (region.y1 - region.y0).max(0) as usize * (region.z1 - region.z0).max(0) as usize;
    let nw = pool::workers_for(points);
    {
        let (mut t_bands, nb) =
            pool::split_state_bands(&mut tend.u, &mut tend.v, &mut tend.phi, &region, nw);
        let mut o_bands = combine.as_mut().map(|(u, o)| {
            let bands = pool::split_state_bands(&mut o.u, &mut o.v, &mut o.phi, &region, nw).0;
            (&**u, bands)
        });
        scratch.warm(nx, nb);
        let mut items: [Option<SweepBand<'_>>; MAX_WORKERS] = std::array::from_fn(|_| None);
        for (b, rows) in scratch.workers[..nb].iter_mut().enumerate() {
            items[b] = Some(SweepBand {
                tend: t_bands[b].take().expect("band present"),
                combine: o_bands
                    .as_mut()
                    .map(|(u, o)| (*u, o[b].take().expect("band present"))),
                rows,
            });
        }
        pool::run(&mut items[..nb], label, band_fn);
    }

    let nxi = nx as isize;
    for j in region.y0..region.y1 {
        match &mut combine {
            Some((u, out)) if !u.is_active(j) => {
                let t = &mut scratch.psa[..];
                psa_row(j, t);
                u.combine_row(
                    out.psa.row_mut(0, nxi, j),
                    u.base.psa.row(0, nxi, j),
                    t,
                    path,
                );
            }
            _ => psa_row(j, tend.psa.row_mut(0, nxi, j)),
        }
    }
}
