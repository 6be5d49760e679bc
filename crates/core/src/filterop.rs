//! Applying the Fourier polar filter `F̃` to a state.
//!
//! Algorithm 1/2 filter every *tendency* before it is scaled by `Δt` and
//! added (`ψ + Δt·F̃(…)`).  Under the Y-Z decomposition each rank owns full
//! latitude circles, so the filter is purely local (§4.2.1 — the whole
//! point of the communication-avoiding algorithm's decomposition choice).
//! Under the X-Y decomposition the circles are split and the transpose
//! filter of `agcm-fft` runs on the x-axis communicator.  Both paths run
//! the same transform, [`FourierFilter::apply_rows_with`]'s batched kernel.

use crate::geometry::{LocalGeometry, Region};
use crate::pool::{self, PerWorker, MAX_WORKERS};
use crate::state::{RowId, State};
use agcm_comm::{CommResult, Communicator};
use agcm_fft::{filter_rows_distributed, FilterScratch, FilterWorker, FourierFilter};

/// Build the filter for the global grid of `geom`, with damping profiles at
/// this rank's (and its halo's) latitude rows.  Row indexing of the
/// returned filter is **global**.
pub fn build_filter(geom: &LocalGeometry, cutoff_deg: f64) -> FourierFilter {
    let grid = &geom.grid;
    // model construction, not the stepping path: lint:allow(alloc)
    let lats: Vec<f64> = (0..grid.ny()).map(|j| grid.latitude(j)).collect();
    FourierFilter::new(grid.nx(), &lats, cutoff_deg.to_radians())
}

/// Global latitude row of a local row, clamped into range for mirror halo
/// rows (their damping profile is that of the row they mirror).
#[inline]
pub(crate) fn filter_row(geom: &LocalGeometry, jl: isize) -> usize {
    let ny = geom.grid.ny() as i64;
    let g = geom.global_j(jl);
    let m = if g < 0 {
        -1 - g
    } else if g >= ny {
        2 * ny - 1 - g
    } else {
        g
    };
    m.clamp(0, ny - 1) as usize
}

/// The rows `[y0, y1)` of `region` in the order the filter streams them:
/// level by level the three 3-D components of each row, then `p'_sa`.
fn rows_of(region: Region, y0: isize, y1: isize) -> impl Iterator<Item = RowId> {
    let rows3 = (region.z0..region.z1)
        .flat_map(move |k| (y0..y1).flat_map(move |j| (0..3).map(move |f| (f, j, k))));
    rows3.chain((y0..y1).map(|j| (3, j, 0)))
}

/// Filter a state in place on `region` — the local (`p_x = 1`) path.
/// Each active `(j, k)` row of the 3-D components and each active `j` row
/// of `p'_sa` is transformed, damped and transformed back.
///
/// The FFT work is split across latitude bands of `region` on the
/// intra-rank worker pool, cut so every band holds the same number of
/// filter-**active** rows (a rank that owns one pole still splits evenly; a
/// region without active rows spawns nothing).  Each worker streams its
/// band's `(k, j, field)` rows and then its `p'_sa` rows through
/// [`FourierFilter::apply_rows_with`] — `agcm_fft::W` circles per
/// transform pass, rows of different latitudes and fields sharing a batch —
/// with its **own** arena of `scratch`.  Every circle comes out bitwise
/// identical to the allocating [`FourierFilter::apply_row`] whatever batch,
/// slot or worker it lands in, so the result is independent of the worker
/// count.  `scratch` grows the first time a worker count or `nx` is seen;
/// steady-state calls allocate nothing, and a single-band split runs inline
/// on the caller.
pub fn filter_state_local(
    geom: &LocalGeometry,
    filter: &FourierFilter,
    state: &mut State,
    region: Region,
    scratch: &mut FilterScratch,
) {
    filter_local_then(geom, filter, state, region, scratch, |_, _| {});
}

/// [`filter_state_local`] that hands every filtered row to `done` on the
/// worker that filtered it, as soon as it is stored — a sub-update combines
/// it there (`Update::combine_filtered`).
pub(crate) fn filter_local_then(
    geom: &LocalGeometry,
    filter: &FourierFilter,
    state: &mut State,
    region: Region,
    scratch: &mut FilterScratch,
    done: impl Fn(&mut [f64], RowId) + Sync,
) {
    let nx = geom.nx as isize;
    let cuts = pool::region_cuts(&region, geom.nx, |j| filter.is_active(filter_row(geom, j)));
    // one arena per band (stack list, no alloc)
    let mut workers: [Option<FilterWorker<'_>>; MAX_WORKERS] = std::array::from_fn(|_| None);
    for (slot, worker) in workers
        .iter_mut()
        .zip(scratch.workers(geom.nx, cuts.bands()))
    {
        *slot = Some(worker);
    }
    let whole = (
        state.band_mut(&region),
        PerWorker(&mut workers[..cuts.bands()]),
    );
    pool::run(whole, &cuts, "filter.pooled", |(band, worker), y0, y1| {
        let rows = rows_of(region, y0, y1).map(|id @ (_, j, _)| (filter_row(geom, j), id));
        filter.apply_rows_with(
            band,
            rows,
            |band, id| band.row_mut(nx, id),
            &done,
            worker.mine().as_mut().expect("one arena per band"),
        );
    });
}

/// Filter a state in place on `region` when longitude circles are split
/// over the ranks of `xcomm` (`p_x > 1`) — the X-Y-decomposition path (two
/// `alltoallv` transposes per call, the communication Theorem 4.1
/// lower-bounds) — and hand every filtered row to `done` as the
/// transposes' result is scattered back into it.  The full circles a rank
/// is assigned go through the first worker arena of `scratch`, sized for
/// the global circle.
pub(crate) fn filter_distributed_then(
    geom: &LocalGeometry,
    filter: &FourierFilter,
    state: &mut State,
    region: Region,
    scratch: &mut FilterScratch,
    xcomm: &Communicator,
    done: impl Fn(&mut [f64], RowId),
) -> CommResult<()> {
    let nx = geom.nx as isize;
    // collect the active rows of all components into one batch so a single
    // pair of transposes carries the whole state (one "communication")
    // the zero-alloc stepping guarantee covers the Y-Z path only (filtering
    // is local there).  This X-Y transpose batch is three fresh `Vec`s a
    // call, and `fft::filter_rows_distributed` allocates its send, receive
    // and full-circle buffers a call too: lint:allow(alloc)
    let mut rows: Vec<f64> = Vec::new(); // lint:allow(alloc)
    let mut row_j: Vec<usize> = Vec::new(); // lint:allow(alloc)
    let mut ids: Vec<RowId> = Vec::new(); // lint:allow(alloc)
    for id @ (_, j, _) in rows_of(region, region.y0, region.y1) {
        let gj = filter_row(geom, j);
        if filter.is_active(gj) {
            rows.extend_from_slice(state.row(nx, id));
            row_j.push(gj);
            ids.push(id);
        }
    }
    let worker = &mut scratch.worker(filter.nx());
    filter_rows_distributed(xcomm, &mut rows, &row_j, filter, worker)?;
    // scatter the filtered rows back
    for (src, &id) in rows.chunks_exact(geom.nx).zip(&ids) {
        let row = state.row_mut(nx, id);
        row.copy_from_slice(src);
        done(row, id);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use agcm_comm::Universe;
    use agcm_mesh::{Decomposition, HaloWidths, ProcessGrid};
    use std::sync::Arc;

    fn fill(state: &mut State, geom: &LocalGeometry, x_off: usize) {
        for k in 0..geom.nz as isize {
            for j in 0..geom.ny as isize {
                for i in 0..geom.nx as isize {
                    let gi = i as usize + x_off;
                    let v = ((gi * 13 + j as usize * 7 + k as usize * 3) % 11) as f64;
                    state.u.set(i, j, k, v);
                    state.v.set(i, j, k, v + 1.0);
                    state.phi.set(i, j, k, v * 2.0);
                }
            }
        }
        for j in 0..geom.ny as isize {
            for i in 0..geom.nx as isize {
                let gi = i as usize + x_off;
                state.psa.set(i, j, 0, ((gi * 5 + j as usize) % 9) as f64);
            }
        }
    }

    #[test]
    fn filter_leaves_low_latitudes_and_damps_polar_rows() {
        let cfg = ModelConfig::test_small();
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
        let geom = LocalGeometry::new(&cfg, Arc::clone(&grid), &d, 0, HaloWidths::uniform(1));
        let filter = build_filter(&geom, cfg.filter_cutoff_deg);
        let mut st = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
        fill(&mut st, &geom, 0);
        let before = st.clone();
        filter_state_local(
            &geom,
            &filter,
            &mut st,
            geom.interior(),
            &mut FilterScratch::new(),
        );
        // equatorial rows untouched
        let jm = geom.ny as isize / 2;
        for i in 0..geom.nx as isize {
            assert_eq!(st.phi.get(i, jm, 0), before.phi.get(i, jm, 0));
        }
        // polar rows changed (noise damped)
        let changed = (0..geom.nx as isize).any(|i| st.phi.get(i, 0, 0) != before.phi.get(i, 0, 0));
        assert!(changed, "polar row must be filtered");
        // zonal mean preserved on the polar row
        let mean = |f: &agcm_mesh::Field3| {
            (0..geom.nx as isize).map(|i| f.get(i, 0, 0)).sum::<f64>() / geom.nx as f64
        };
        assert!((mean(&st.phi) - mean(&before.phi)).abs() < 1e-9);
    }

    #[test]
    fn distributed_filter_matches_local() {
        let cfg = ModelConfig::test_small();
        // serial reference
        let grid = Arc::new(cfg.grid().unwrap());
        let ds = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
        let sgeom = LocalGeometry::new(&cfg, Arc::clone(&grid), &ds, 0, HaloWidths::uniform(1));
        let filter = build_filter(&sgeom, cfg.filter_cutoff_deg);
        let mut sref = State::new(sgeom.nx, sgeom.ny, sgeom.nz, sgeom.halo);
        fill(&mut sref, &sgeom, 0);
        filter_state_local(
            &sgeom,
            &filter,
            &mut sref,
            sgeom.interior(),
            &mut FilterScratch::new(),
        );

        // X-Y decomposition with px = 2 (py = 1): x-axis comm is the world
        let results = Universe::run(2, |comm| {
            let cfg = ModelConfig::test_small();
            let grid = Arc::new(cfg.grid().unwrap());
            let d = Decomposition::new(cfg.extents(), ProcessGrid::xy(2, 1).unwrap()).unwrap();
            let geom = LocalGeometry::new(
                &cfg,
                Arc::clone(&grid),
                &d,
                comm.rank(),
                HaloWidths::uniform(1),
            );
            let filter = build_filter(&geom, cfg.filter_cutoff_deg);
            let mut st = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
            fill(&mut st, &geom, geom.sub.x.start);
            let scratch = &mut FilterScratch::new();
            let region = geom.interior();
            filter_distributed_then(&geom, &filter, &mut st, region, scratch, comm, |_, _| {})
                .unwrap();
            let mut out = Vec::new();
            for j in 0..geom.ny as isize {
                out.extend_from_slice(st.phi.row(0, geom.nx as isize, j, 0));
            }
            (geom.sub.x.start, geom.nx, out)
        });
        for (x0, nxl, vals) in results {
            for j in 0..sgeom.ny {
                for ii in 0..nxl {
                    let want = sref.phi.get((x0 + ii) as isize, j as isize, 0);
                    let got = vals[j * nxl + ii];
                    assert_eq!(got.to_bits(), want.to_bits(), "row {j} col {}", x0 + ii);
                }
            }
        }
    }

    #[test]
    fn halo_mirror_rows_use_mirrored_profile() {
        let cfg = ModelConfig::test_small();
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
        let geom = LocalGeometry::new(&cfg, Arc::clone(&grid), &d, 0, HaloWidths::uniform(2));
        assert_eq!(filter_row(&geom, -1), 0);
        assert_eq!(filter_row(&geom, -2), 1);
        assert_eq!(filter_row(&geom, geom.ny as isize), geom.ny - 1);
        assert_eq!(filter_row(&geom, 3), 3);
    }
}
