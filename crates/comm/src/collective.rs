//! Collective operations.
//!
//! The vertical operator `C` of the dynamical core allgathers per-rank
//! block sums along the z direction; the distributed FFT of the X-Y
//! decomposition needs `alltoall`; `split` (in [`crate::runtime`]) builds
//! the per-axis communicators from the world with an allgather and a
//! broadcast; the global mass/energy budget and the elastic runtime's
//! restore step are allreduces.  All collectives here are implemented on top of the
//! point-to-point layer, so every byte they move is counted by the same
//! statistics the benchmark harness reads.
//!
//! The allreduce is the **ring** algorithm — reduce-scatter, then
//! allgather — the one the paper's Theorem 4.2 cites as attaining the
//! data-movement lower bound `Ω(2(p_z - 1) n_x n_y)` for long vectors
//! (Thakur, Rabenseifner & Gropp 2005): `2(p-1)` messages of `n/p`
//! elements per rank.

use crate::error::{CommError, CommResult};
use crate::runtime::Communicator;
use crate::stats::CollectiveKind;
use agcm_obs as obs;

/// Reduction operator of [`Communicator::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    #[inline]
    fn apply(self, acc: &mut [f64], other: &[f64]) {
        debug_assert_eq!(acc.len(), other.len());
        match self {
            ReduceOp::Sum => acc.iter_mut().zip(other).for_each(|(a, &b)| *a += b),
            ReduceOp::Max => acc.iter_mut().zip(other).for_each(|(a, &b)| *a = a.max(b)),
            ReduceOp::Min => acc.iter_mut().zip(other).for_each(|(a, &b)| *a = a.min(b)),
        }
    }
}

/// Balanced block partition (same convention as `agcm_mesh::decomp`): the
/// first `n mod p` blocks get one extra element.
pub fn block(n: usize, p: usize, r: usize) -> std::ops::Range<usize> {
    let base = n / p;
    let rem = n % p;
    let start = r * base + r.min(rem);
    start..start + base + usize::from(r < rem)
}

impl Communicator {
    /// Synchronize all ranks (dissemination barrier, ⌈log₂ p⌉ rounds).
    pub fn barrier(&self) -> CommResult<()> {
        self.bump_coll_seq();
        let _span = obs::span(obs::SpanKind::Collective, "barrier");
        let p = self.size();
        self.stats()
            .record_collective(CollectiveKind::Barrier, p, 0);
        let mut k = 0u32;
        let mut step = 1usize;
        while step < p {
            let tag = self.next_coll_tag(k);
            let to = (self.rank() + step) % p;
            let from = (self.rank() + p - step) % p;
            self.send_raw(to, tag, Vec::new())?;
            self.recv_raw(from, tag)?;
            step <<= 1;
            k += 1;
        }
        Ok(())
    }

    /// In-place allreduce (ring: reduce-scatter then allgather, `2(p-1)`
    /// rounds).
    pub fn allreduce(&self, op: ReduceOp, data: &mut [f64]) -> CommResult<()> {
        self.bump_coll_seq();
        let mut span = obs::span(obs::SpanKind::Collective, "allreduce");
        span.add_bytes(8 * data.len() as u64);
        let p = self.size();
        self.stats()
            .record_collective(CollectiveKind::Allreduce, p, data.len());
        if p == 1 {
            return Ok(());
        }
        let r = self.rank();
        let next = (r + 1) % p;
        let prev = (r + p - 1) % p;
        let n = data.len();
        // reduce-scatter
        for s in 0..p - 1 {
            let tag = self.next_coll_tag(s as u32);
            let send_b = block(n, p, (r + p - s) % p);
            let recv_b = block(n, p, (r + p - s - 1) % p);
            self.send_raw(next, tag, data[send_b].to_vec())?;
            let incoming = self.recv_raw_exact(prev, tag, recv_b.len())?;
            op.apply(&mut data[recv_b], &incoming);
        }
        // allgather of the reduced blocks
        for s in 0..p - 1 {
            let tag = self.next_coll_tag((p - 1 + s) as u32);
            let send_b = block(n, p, (r + 1 + p - s) % p);
            let recv_b = block(n, p, (r + p - s) % p);
            self.send_raw(next, tag, data[send_b].to_vec())?;
            let incoming = self.recv_raw_exact(prev, tag, recv_b.len())?;
            data[recv_b].copy_from_slice(&incoming);
        }
        Ok(())
    }

    /// Broadcast `data` from `root` (binomial tree).
    pub fn bcast(&self, root: usize, data: &mut [f64]) -> CommResult<()> {
        self.bump_coll_seq();
        let mut span = obs::span(obs::SpanKind::Collective, "bcast");
        span.add_bytes(8 * data.len() as u64);
        let p = self.size();
        self.stats()
            .record_collective(CollectiveKind::Bcast, p, data.len());
        if p == 1 {
            return Ok(());
        }
        let vr = (self.rank() + p - root) % p;
        let mut mask = 1usize;
        let mut round = 0u32;
        while mask < p {
            if vr & mask != 0 {
                let src = vr - mask;
                let tag = self.next_coll_tag(round);
                let incoming = self.recv_raw_exact((src + root) % p, tag, data.len())?;
                data.copy_from_slice(&incoming);
                break;
            }
            mask <<= 1;
            round += 1;
        }
        // rounds below `mask` are mine to forward
        let mut m = mask >> 1;
        loop {
            if m == 0 {
                break;
            }
            if vr + m < p {
                let dst = vr + m;
                let round = m.trailing_zeros();
                let tag = self.next_coll_tag(round);
                self.send_raw((dst + root) % p, tag, data.to_vec())?;
            }
            m >>= 1;
        }
        Ok(())
    }

    /// All-gather equal-size contributions; returns the concatenation in
    /// rank order (`p * data.len()` values).  Ring algorithm, `p-1` rounds.
    pub fn allgather(&self, data: &[f64]) -> CommResult<Vec<f64>> {
        self.bump_coll_seq();
        let mut span = obs::span(obs::SpanKind::Collective, "allgather");
        span.add_bytes(8 * data.len() as u64);
        let p = self.size();
        self.stats()
            .record_collective(CollectiveKind::Allgather, p, data.len());
        let n = data.len();
        let mut out = vec![0.0; p * n];
        let r = self.rank();
        out[r * n..(r + 1) * n].copy_from_slice(data);
        if p == 1 {
            return Ok(out);
        }
        let next = (r + 1) % p;
        let prev = (r + p - 1) % p;
        for s in 0..p - 1 {
            let tag = self.next_coll_tag(s as u32);
            let send_blk = (r + p - s) % p;
            let recv_blk = (r + p - s - 1) % p;
            self.send_raw(next, tag, out[send_blk * n..(send_blk + 1) * n].to_vec())?;
            let incoming = self.recv_raw_exact(prev, tag, n)?;
            out[recv_blk * n..(recv_blk + 1) * n].copy_from_slice(&incoming);
        }
        Ok(out)
    }

    /// Gather variable-size contributions to `root`; returns `Some(per-rank
    /// vectors)` at the root, `None` elsewhere.
    pub fn gatherv(&self, root: usize, data: &[f64]) -> CommResult<Option<Vec<Vec<f64>>>> {
        self.bump_coll_seq();
        let mut span = obs::span(obs::SpanKind::Collective, "gatherv");
        span.add_bytes(8 * data.len() as u64);
        let p = self.size();
        self.stats()
            .record_collective(CollectiveKind::Gather, p, data.len());
        if self.rank() == root {
            let mut out: Vec<Vec<f64>> = vec![Vec::new(); p];
            out[root] = data.to_vec();
            for (r, slot) in out.iter_mut().enumerate() {
                if r != root {
                    let tag = self.next_coll_tag(0);
                    *slot = self.recv_raw(r, tag)?;
                }
            }
            Ok(Some(out))
        } else {
            let tag = self.next_coll_tag(0);
            self.send_raw(root, tag, data.to_vec())?;
            Ok(None)
        }
    }

    /// Personalized all-to-all with per-destination payloads.
    /// `send[d]` goes to rank `d`; returns `recv[s]` from each rank `s`.
    /// Pairwise exchange, `p-1` rounds.
    pub fn alltoallv(&self, send: &[Vec<f64>]) -> CommResult<Vec<Vec<f64>>> {
        self.bump_coll_seq();
        let p = self.size();
        if send.len() != p {
            return Err(CommError::CollectiveMismatch(format!(
                "alltoallv needs {p} send buffers, got {}",
                send.len()
            )));
        }
        let r = self.rank();
        // record only what actually crosses the network (the own-block
        // copy below is local), so traffic accounting stays exact
        let total: usize = send
            .iter()
            .enumerate()
            .filter(|(d, _)| *d != r)
            .map(|(_, v)| v.len())
            .sum();
        let mut span = obs::span(obs::SpanKind::Collective, "alltoallv");
        span.add_bytes(8 * total as u64);
        self.stats()
            .record_collective(CollectiveKind::Alltoall, p, total);
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); p];
        out[r] = send[r].clone();
        for i in 1..p {
            let dst = (r + i) % p;
            let src = (r + p - i) % p;
            let tag = self.next_coll_tag(i as u32);
            self.send_raw(dst, tag, send[dst].clone())?;
            out[src] = self.recv_raw(src, tag)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Universe;

    fn expected_sum(p: usize, n: usize) -> Vec<f64> {
        // rank r contributes [r, r+1, ..]: sum over r of (r + i)
        (0..n)
            .map(|i| (0..p).map(|r| (r + i) as f64).sum())
            .collect()
    }

    #[test]
    fn allreduce_ring_matches_serial_fold() {
        for p in [1usize, 2, 3, 4, 5, 8] {
            for n in [1usize, 3, 7, 16, 33] {
                let results = Universe::run(p, |comm| {
                    let mut data: Vec<f64> = (0..n).map(|i| (comm.rank() + i) as f64).collect();
                    comm.allreduce(ReduceOp::Sum, &mut data).unwrap();
                    data
                });
                let want = expected_sum(p, n);
                for r in &results {
                    assert_eq!(r, &want, "p={p} n={n}");
                }
            }
        }
    }

    #[test]
    fn allreduce_max_min() {
        let results = Universe::run(4, |comm| {
            let mut mx = vec![comm.rank() as f64];
            comm.allreduce(ReduceOp::Max, &mut mx).unwrap();
            let mut mn = vec![comm.rank() as f64];
            comm.allreduce(ReduceOp::Min, &mut mn).unwrap();
            (mx[0], mn[0])
        });
        for (mx, mn) in results {
            assert_eq!(mx, 3.0);
            assert_eq!(mn, 0.0);
        }
    }

    #[test]
    fn allreduce_shorter_than_comm() {
        // vector shorter than p: some ring blocks are empty
        let results = Universe::run(6, |comm| {
            let mut data = vec![comm.rank() as f64, 1.0];
            comm.allreduce(ReduceOp::Sum, &mut data).unwrap();
            data
        });
        for r in results {
            assert_eq!(r, vec![15.0, 6.0]);
        }
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..5 {
            let results = Universe::run(5, |comm| {
                let mut data = vec![0.0; 4];
                if comm.rank() == root {
                    data = vec![1.0, 2.0, 3.0, 4.0];
                }
                comm.bcast(root, &mut data).unwrap();
                data
            });
            for r in results {
                assert_eq!(r, vec![1.0, 2.0, 3.0, 4.0], "root={root}");
            }
        }
    }

    #[test]
    fn allgather_rank_order() {
        for p in [1usize, 2, 3, 5, 8] {
            let results = Universe::run(p, |comm| {
                comm.allgather(&[comm.rank() as f64, -(comm.rank() as f64)])
                    .unwrap()
            });
            let want: Vec<f64> = (0..p).flat_map(|r| [r as f64, -(r as f64)]).collect();
            for r in &results {
                assert_eq!(r, &want, "p={p}");
            }
        }
    }

    #[test]
    fn gatherv_variable_sizes() {
        let results = Universe::run(4, |comm| {
            let data: Vec<f64> = (0..comm.rank() + 1).map(|i| i as f64).collect();
            comm.gatherv(2, &data).unwrap()
        });
        let gathered = results[2].as_ref().unwrap();
        assert_eq!(gathered.len(), 4);
        for (r, v) in gathered.iter().enumerate() {
            assert_eq!(v.len(), r + 1);
        }
        assert!(results[0].is_none());
    }

    #[test]
    fn alltoallv_transpose() {
        let p = 4;
        let results = Universe::run(p, |comm| {
            let send: Vec<Vec<f64>> = (0..p)
                .map(|d| vec![(comm.rank() * 10 + d) as f64])
                .collect();
            comm.alltoallv(&send).unwrap()
        });
        for (r, recv) in results.iter().enumerate() {
            for (s, v) in recv.iter().enumerate() {
                assert_eq!(v[0], (s * 10 + r) as f64, "recv[{s}] at rank {r}");
            }
        }
    }

    #[test]
    fn alltoallv_wrong_bufcount() {
        let results = Universe::run(2, |comm| comm.alltoallv(&[vec![1.0]]).err());
        assert!(matches!(results[0], Some(CommError::CollectiveMismatch(_))));
    }

    #[test]
    fn barrier_completes() {
        for p in [1usize, 2, 3, 7] {
            let results = Universe::run(p, |comm| {
                for _ in 0..5 {
                    comm.barrier().unwrap();
                }
                true
            });
            assert!(results.iter().all(|&b| b));
        }
    }

    #[test]
    fn consecutive_collectives_do_not_cross_match() {
        // two back-to-back allreduces with different data; sequence-stamped
        // tags must keep the rounds separate even under thread-timing skew
        let results = Universe::run(4, |comm| {
            let mut a = vec![1.0];
            comm.allreduce(ReduceOp::Sum, &mut a).unwrap();
            let mut b = vec![10.0];
            comm.allreduce(ReduceOp::Sum, &mut b).unwrap();
            (a[0], b[0])
        });
        for (a, b) in results {
            assert_eq!((a, b), (4.0, 40.0));
        }
    }

    #[test]
    fn collective_on_split_axis_comm() {
        // 2x3 grid: allreduce along "rows" — the dynamical core's z-sum
        let results = Universe::run(6, |comm| {
            let row = comm.rank() / 3;
            let sub = comm.split(row, comm.rank()).unwrap();
            let mut v = vec![comm.rank() as f64];
            sub.allreduce(ReduceOp::Sum, &mut v).unwrap();
            v[0]
        });
        assert_eq!(results, vec![3.0, 3.0, 3.0, 12.0, 12.0, 12.0]);
    }

    #[test]
    fn stats_see_collective_traffic() {
        let results = Universe::run(4, |comm| {
            let mut v = vec![0.0; 64];
            comm.allreduce(ReduceOp::Sum, &mut v).unwrap();
            comm.stats().snapshot()
        });
        for s in results {
            assert_eq!(s.collective_calls, 1);
            assert_eq!(s.collective_elems, 64);
            // ring: 2(p-1) = 6 messages of ~n/p = 16 elements
            assert_eq!(s.p2p_sends, 6);
            assert_eq!(s.p2p_send_elems, 96);
        }
    }
}
