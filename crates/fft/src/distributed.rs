//! Distributed Fourier filtering for decompositions that split longitude.
//!
//! Under the X-Y decomposition each latitude circle is spread over `p_x`
//! ranks, so the per-circle FFT of the polar filter requires collective
//! communication along x — the cost the paper's Theorem 4.1 bounds below by
//! `Ω(2 n_x log n_x / (p_x log(n_x/p_x)))` and the Y-Z decomposition
//! eliminates by setting `p_x = 1`.
//!
//! This module implements the standard **transpose** method: the ranks of
//! an x-axis communicator exchange blocks (`alltoallv`) so that each rank
//! temporarily owns a subset of *complete* circles, filters them locally
//! through the batched kernel ([`FourierFilter::apply_rows_with`], the
//! transform every step runs), and transposes back.  Two all-to-alls move
//! (roughly) every value twice — matching the volume the X-Y baseline is
//! charged in the cost model.

use crate::filter::{FilterWorker, FourierFilter};
use agcm_comm::collective::block;
use agcm_comm::{CommResult, Communicator};

/// Filter a batch of latitude-circle rows that are split along x across the
/// ranks of `comm`.
///
/// * `comm` — the x-axis communicator; rank `q` owns the x-block
///   `block(nx, p_x, q)` of every row, `nx = filter.nx()` the global
///   circle length,
/// * `rows` — this rank's data, row-major `[n_rows][nx_local]`,
/// * `row_j` — global latitude index of each row (length `n_rows`, the same
///   on every rank of the communicator),
/// * `filter` — the damping profiles,
/// * `worker` — transform buffers for circles of `nx` longitudes.
///
/// All ranks of `comm` must call this collectively with consistent
/// arguments.  Every filtered circle is bitwise
/// [`FourierFilter::apply_row`]'s.
pub fn filter_rows_distributed(
    comm: &Communicator,
    rows: &mut [f64],
    row_j: &[usize],
    filter: &FourierFilter,
    worker: &mut FilterWorker<'_>,
) -> CommResult<()> {
    let nx = filter.nx();
    let px = comm.size();
    let q = comm.rank();
    let my_x = block(nx, px, q);
    let nx_local = my_x.len();
    let n_rows = row_j.len();
    assert_eq!(
        rows.len(),
        n_rows * nx_local,
        "rows buffer must be n_rows x nx_local"
    );
    // ---- forward transpose: ship my x-block of rank s's assigned rows ----
    let send: Vec<Vec<f64>> = (0..px)
        .map(|s| {
            let rs = block(n_rows, px, s);
            let mut buf = Vec::with_capacity(rs.len() * nx_local);
            for r in rs {
                buf.extend_from_slice(&rows[r * nx_local..(r + 1) * nx_local]);
            }
            buf
        })
        .collect();
    let recv = comm.alltoallv(&send)?;

    // ---- assemble my assigned rows as full circles and filter them ----
    let my_rows = block(n_rows, px, q);
    let n_mine = my_rows.len();
    let mut full = vec![0.0; n_mine * nx];
    for (s, part) in recv.iter().enumerate() {
        let xs = block(nx, px, s);
        let w = xs.len();
        debug_assert_eq!(part.len(), n_mine * w);
        for m in 0..n_mine {
            full[m * nx + xs.start..m * nx + xs.end].copy_from_slice(&part[m * w..(m + 1) * w]);
        }
    }
    filter.apply_rows_with(
        full.as_mut_slice(),
        my_rows.clone().enumerate().map(|(m, r)| (row_j[r], m)),
        |full, m| &mut full[m * nx..(m + 1) * nx],
        |_, _| {},
        worker,
    );

    // ---- reverse transpose: return each rank's x-block of my rows ----
    let send_back: Vec<Vec<f64>> = (0..px)
        .map(|s| {
            let xs = block(nx, px, s);
            let mut buf = Vec::with_capacity(n_mine * xs.len());
            for m in 0..n_mine {
                buf.extend_from_slice(&full[m * nx + xs.start..m * nx + xs.end]);
            }
            buf
        })
        .collect();
    let recv_back = comm.alltoallv(&send_back)?;
    for (s, part) in recv_back.iter().enumerate() {
        let rs = block(n_rows, px, s);
        debug_assert_eq!(part.len(), rs.len() * nx_local);
        for (m, r) in rs.enumerate() {
            rows[r * nx_local..(r + 1) * nx_local]
                .copy_from_slice(&part[m * nx_local..(m + 1) * nx_local]);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterScratch;
    use agcm_comm::Universe;

    fn latitudes(ny: usize) -> Vec<f64> {
        (0..ny)
            .map(|j| {
                std::f64::consts::FRAC_PI_2 - (j as f64 + 0.5) * std::f64::consts::PI / ny as f64
            })
            .collect()
    }

    /// deterministic pseudo-random field value
    fn val(r: usize, i: usize) -> f64 {
        ((r * 31 + i * 17 + 5) % 23) as f64 - 11.0
    }

    fn check_against_serial(px: usize, nx: usize, n_rows: usize) {
        let ny = 12;
        let lats = latitudes(ny);
        // rows map to polar latitudes so the filter actually does something
        let row_j: Vec<usize> = (0..n_rows).map(|r| r % 2 * (ny - 1)).collect();

        // the oracle, circle by circle
        let filter = FourierFilter::with_default_cutoff(nx, &lats);
        let mut reference: Vec<Vec<f64>> = (0..n_rows)
            .map(|r| (0..nx).map(|i| val(r, i)).collect())
            .collect();
        for (r, row) in reference.iter_mut().enumerate() {
            filter.apply_row(row_j[r], row);
        }

        let results = Universe::run(px, |comm| {
            let filter = FourierFilter::with_default_cutoff(nx, &latitudes(ny));
            let row_j: Vec<usize> = (0..n_rows).map(|r| r % 2 * (ny - 1)).collect();
            let xs = block(nx, px, comm.rank());
            let mut rows: Vec<f64> = (0..n_rows)
                .flat_map(|r| xs.clone().map(move |i| val(r, i)))
                .collect();
            let mut scratch = FilterScratch::new();
            let worker = &mut scratch.worker(nx);
            filter_rows_distributed(comm, &mut rows, &row_j, &filter, worker).unwrap();
            (xs, rows)
        });

        for (xs, rows) in results {
            let w = xs.len();
            for r in 0..n_rows {
                for (c, i) in xs.clone().enumerate() {
                    let got = rows[r * w + c];
                    let want = reference[r][i];
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "px={px} row={r} i={i}: {got:e} vs {want:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_serial_px1() {
        check_against_serial(1, 24, 5);
    }

    #[test]
    fn matches_serial_px2() {
        check_against_serial(2, 24, 5);
    }

    #[test]
    fn matches_serial_px3_uneven() {
        // 24 % 3 == 0 but 5 rows % 3 != 0: uneven row assignment
        check_against_serial(3, 24, 5);
    }

    #[test]
    fn matches_serial_px4_uneven_x() {
        // nx = 30 over 4 ranks: uneven x blocks (8,8,7,7)
        check_against_serial(4, 30, 6);
    }

    #[test]
    fn more_ranks_than_rows() {
        // 4 ranks, 2 rows: some ranks filter nothing but still transpose
        check_against_serial(4, 16, 2);
    }

    #[test]
    fn transpose_traffic_counted() {
        let nx = 24;
        let n_rows = 4;
        let ny = 8;
        let results = Universe::run(2, |comm| {
            let filter = FourierFilter::with_default_cutoff(nx, &latitudes(ny));
            let row_j = vec![0usize; n_rows];
            let xs = block(nx, 2, comm.rank());
            let mut rows = vec![1.0; n_rows * xs.len()];
            let mut scratch = FilterScratch::new();
            let worker = &mut scratch.worker(nx);
            filter_rows_distributed(comm, &mut rows, &row_j, &filter, worker).unwrap();
            comm.stats().snapshot()
        });
        for s in results {
            assert_eq!(s.collective_calls, 2, "two alltoallv transposes");
            // each transpose contributes ~ n_rows * nx_local values
            assert!(s.collective_elems as usize >= n_rows * (nx / 2));
        }
    }
}
