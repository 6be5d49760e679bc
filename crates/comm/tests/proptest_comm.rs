//! Property-based tests of the message-passing runtime's collectives
//! against serial folds, driven by a deterministic case generator.

use agcm_comm::{ReduceOp, Universe};

/// deterministic per-rank data for a given seed
fn rank_data(seed: u64, rank: usize, n: usize) -> Vec<f64> {
    let mut s = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(rank as u64 + 1);
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 17) % 2001) as f64 - 1000.0
        })
        .collect()
}

/// splitmix64 — deterministic case generator for the property loops.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// uniform in `[lo, hi)`
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

const CASES: u64 = 24;

#[test]
fn allreduce_equals_serial_fold() {
    // the ring allreduce equals the serial fold (up to FP re-association)
    // for any p and vector length.
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let p = rng.usize_in(1, 7);
        let n = rng.usize_in(1, 40);
        let seed = rng.next_u64() % 10_000;
        let expected: Vec<f64> = (0..n)
            .map(|i| (0..p).map(|r| rank_data(seed, r, n)[i]).sum())
            .collect();
        let results = Universe::run(p, move |comm| {
            let mut data = rank_data(seed, comm.rank(), n);
            comm.allreduce(ReduceOp::Sum, &mut data).unwrap();
            data
        });
        for r in results {
            for (a, b) in r.iter().zip(&expected) {
                assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()));
            }
        }
    }
}

#[test]
fn allreduce_max_min_exact() {
    // max/min reductions are exact (no rounding).
    for case in 0..CASES {
        let mut rng = Rng::new(100 + case);
        let p = rng.usize_in(1, 7);
        let n = rng.usize_in(1, 20);
        let seed = rng.next_u64() % 10_000;
        let expected_max: Vec<f64> = (0..n)
            .map(|i| {
                (0..p)
                    .map(|r| rank_data(seed, r, n)[i])
                    .fold(f64::MIN, f64::max)
            })
            .collect();
        let results = Universe::run(p, move |comm| {
            let mut mx = rank_data(seed, comm.rank(), n);
            comm.allreduce(ReduceOp::Max, &mut mx).unwrap();
            mx
        });
        for r in results {
            assert_eq!(&r, &expected_max);
        }
    }
}

#[test]
fn allgather_exact() {
    // allgather returns every rank's contribution in rank order, exactly.
    for case in 0..CASES {
        let mut rng = Rng::new(200 + case);
        let p = rng.usize_in(1, 7);
        let n = rng.usize_in(1, 16);
        let seed = rng.next_u64() % 10_000;
        let expected: Vec<f64> = (0..p).flat_map(|r| rank_data(seed, r, n)).collect();
        let results = Universe::run(p, move |comm| {
            comm.allgather(&rank_data(seed, comm.rank(), n)).unwrap()
        });
        for r in results {
            assert_eq!(&r, &expected);
        }
    }
}

#[test]
fn bcast_any_root() {
    // bcast distributes the root's data to everyone, from any root.
    for case in 0..CASES {
        let mut rng = Rng::new(400 + case);
        let p = rng.usize_in(1, 7);
        let n = rng.usize_in(1, 16);
        let seed = rng.next_u64() % 10_000;
        let root = rng.usize_in(0, 8) % p;
        let expected = rank_data(seed, root, n);
        let results = Universe::run(p, move |comm| {
            let mut data = if comm.rank() == root {
                rank_data(seed, root, n)
            } else {
                vec![0.0; n]
            };
            comm.bcast(root, &mut data).unwrap();
            data
        });
        for r in results {
            assert_eq!(&r, &expected);
        }
    }
}

#[test]
fn alltoall_transposes() {
    // alltoallv is a transpose: recv[s][..] at rank r == send[r] at rank s.
    for case in 0..CASES {
        let mut rng = Rng::new(500 + case);
        let p = rng.usize_in(1, 6);
        let n = rng.usize_in(1, 8);
        let seed = rng.next_u64() % 10_000;
        let results = Universe::run(p, move |comm| {
            let send: Vec<Vec<f64>> = (0..p)
                .map(|d| rank_data(seed.wrapping_add(d as u64 * 977), comm.rank(), n))
                .collect();
            comm.alltoallv(&send).unwrap()
        });
        for (r, recv) in results.iter().enumerate() {
            for (s, v) in recv.iter().enumerate() {
                let want = rank_data(seed.wrapping_add(r as u64 * 977), s, n);
                assert_eq!(v, &want);
            }
        }
    }
}

#[test]
fn p2p_fifo_per_tag() {
    // point-to-point messages are delivered unmodified in FIFO order per
    // (source, tag).
    for case in 0..CASES {
        let mut rng = Rng::new(600 + case);
        let n_msgs = rng.usize_in(1, 10);
        let seed = rng.next_u64() % 10_000;
        let results = Universe::run(2, move |comm| {
            if comm.rank() == 0 {
                for m in 0..n_msgs {
                    let data = rank_data(seed.wrapping_add(m as u64), 0, 4);
                    comm.send(1, 7, &data).unwrap();
                }
                true
            } else {
                for m in 0..n_msgs {
                    let got = comm.recv(0, 7).unwrap();
                    let want = rank_data(seed.wrapping_add(m as u64), 0, 4);
                    if got != want {
                        return false;
                    }
                }
                true
            }
        });
        assert!(results.into_iter().all(|b| b));
    }
}
