//! α–β communication and compute cost model.
//!
//! The paper's measurements were taken on Tianhe-2 at up to 1024 MPI ranks.
//! Running 1024 OS threads on one machine would measure scheduler noise, not
//! network behaviour, so the benchmark harness predicts wall time from the
//! *exact traffic* the algorithms generate (message counts, byte volumes,
//! collective shapes — all produced by the same code that executes the real
//! data movement at small rank counts) through this model:
//!
//! * a point-to-point message of `b` bytes costs `α + β·b`,
//! * the ring allreduce of `n` elements on `p` ranks costs
//!   `2(p-1)·α + 2·((p-1)/p)·8n·β` (Thakur et al. 2005 — the algorithm the
//!   paper's Theorem 4.2 cites as attaining the lower bound),
//! * computation costs `γ` per point-update,
//! * overlapped communication is credited against concurrent computation
//!   ([`CostModel::overlap`]), which is how §4.3.1's
//!   compute/communication overlap enters the predictions.
//!
//! The `tianhe2` preset is calibrated to the scales reported in the paper
//! (TH Express-2: ~µs latency, ~GB/s per-rank effective bandwidth, Ivy
//! Bridge cores).  Absolute seconds are indicative; EXPERIMENTS.md compares
//! *shapes* (orderings, speedup ratios, crossover points), which are
//! insensitive to the exact calibration.

use crate::stats::{CollectiveEvent, CollectiveKind, StatsSnapshot};

/// Linear (α–β–γ) machine model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message latency \[s\] (software + injection overhead).
    pub alpha: f64,
    /// Per-byte transfer time \[s/B\] (inverse effective bandwidth).
    pub beta: f64,
    /// Per point-update compute time \[s\] for one operator application on
    /// one mesh point.
    pub gamma: f64,
    /// Per communication-*round* synchronization cost \[s\]: load-imbalance
    /// skew absorbed at every exchange or collective, independent of how
    /// many messages the round carries.  This is the dominant term in the
    /// paper's measurements (its per-exchange stencil cost is nearly
    /// constant: 17,400 s/13 ≈ 2,800 s/2 per step-exchange over the run).
    pub sync: f64,
    /// Human-readable preset name.
    pub name: &'static str,
}

impl CostModel {
    /// Tianhe-2-like preset, calibrated to the *application-level* costs
    /// the paper measures rather than micro-benchmark numbers:
    ///
    /// * `α = 5 µs` per message (MPI + injection overhead),
    /// * `sync = 2.2 ms` per communication round — the synchronization
    ///   skew of the load-imbalanced latitude–longitude mesh, pinned down
    ///   by the paper's own stencil numbers (≈ constant cost per exchange:
    ///   17,400 s / 13 per-step exchanges ≈ 2,800 s / 2 over the 10-year
    ///   run ≈ 2.5 ms each),
    /// * `β = 1/(10 GB/s)` effective per-rank bandwidth,
    /// * `γ = 12 ns` per ~150-flop point-update (Ivy Bridge core at
    ///   ~12 Gflop/s effective).
    pub fn tianhe2() -> Self {
        CostModel {
            alpha: 5.0e-6,
            beta: 1.0 / 1.0e10,
            gamma: 1.2e-8,
            sync: 2.2e-3,
            name: "tianhe2",
        }
    }

    /// The bench host of `BENCHMARK.json` (a 2-vCPU guest, two ranks over
    /// Unix-domain sockets), read off the benchmark's own ledger on the
    /// `small_*_y2_uds` twins — the constants
    /// `core::analysis::ca_group_size` decides Algorithm 2's halo depth with
    /// (EXPERIMENTS.md, "One frame per neighbour", has the runs and what they
    /// predict; a message is everything one neighbour link carries in an
    /// exchange):
    ///
    /// * `β = 1.0 ns/B` — `comm.beta_s_per_byte`, the ping-pong ladder fit
    ///   (0.9–1.0 on the twins; it was 3.8 while the frame hash took a
    ///   multiply a byte),
    /// * `α = 16 µs` a message — what a posted message costs its sender:
    ///   `(core.exchange.post_s_per_step − ½β·bytes) ÷ msgs`, 16 µs on the
    ///   Algorithm 1 twin (30 on the Algorithm 2 twin, whose messages are
    ///   five times longer and whose pack loop is inside `post`; it was 6–8
    ///   when a link's fields were separate messages in one batch, and the
    ///   ping-pong's 24 µs `comm.alpha_s` is a round trip's latency, paid
    ///   once a round, not once a message),
    /// * `sync = 50 µs` a round — that latency plus the skew two ranks in
    ///   step arrive with: `(post + wait − α·msgs − β·bytes) ÷ exchanges`,
    ///   46–77 µs on the blocking schedules,
    /// * `γ = 36 ns` a point-update — the Algorithm 1 twin's operator time
    ///   (`A + C + F + L + S`, 1.4–1.55 ms a step) over its 42 990 predicted
    ///   point-update units; the 180×90×30 mesh reads 20 ns, where the
    ///   choice of depth is not close.
    pub const BENCH_HOST: CostModel = CostModel {
        alpha: 1.6e-5,
        beta: 1.0e-9,
        gamma: 3.6e-8,
        sync: 5.0e-5,
        name: "bench-host",
    };

    /// A latency-heavy commodity cluster (Gigabit-Ethernet-like): stresses
    /// the message-count reduction of the communication-avoiding algorithm.
    pub fn ethernet_cluster() -> Self {
        CostModel {
            alpha: 3.0e-5,
            beta: 1.0 / 1.0e9,
            gamma: 5.0e-8,
            sync: 5.0e-3,
            name: "ethernet",
        }
    }

    /// An idealized zero-latency, infinite-bandwidth network: isolates pure
    /// computation (used by ablation benches).
    pub fn ideal_network() -> Self {
        CostModel {
            alpha: 0.0,
            beta: 0.0,
            gamma: 5.0e-8,
            sync: 0.0,
            name: "ideal",
        }
    }

    /// Time of one point-to-point message of `elems` `f64` values.
    pub fn p2p_message(&self, elems: usize) -> f64 {
        self.alpha + self.beta * (elems as f64 * 8.0)
    }

    /// Time of `msgs` messages carrying `elems` values in total.
    pub fn p2p_total(&self, msgs: u64, elems: u64) -> f64 {
        self.alpha * msgs as f64 + self.beta * (elems as f64 * 8.0)
    }

    /// One halo-exchange round of `msgs` messages totalling `elems` values:
    /// the per-round synchronization plus the per-message and per-byte
    /// terms.
    pub fn exchange_round(&self, msgs: u64, elems: u64) -> f64 {
        self.sync + self.p2p_total(msgs, elems)
    }

    /// Ring allreduce of `elems` values over `p` ranks.
    pub fn allreduce_ring(&self, p: usize, elems: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let pf = p as f64;
        self.sync
            + 2.0 * (pf - 1.0) * self.alpha
            + 2.0 * ((pf - 1.0) / pf) * (elems as f64 * 8.0) * self.beta
    }

    /// Recursive-doubling allreduce of `elems` values over `p` ranks.
    pub fn allreduce_rd(&self, p: usize, elems: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = (p as f64).log2().ceil();
        self.sync + rounds * (self.alpha + elems as f64 * 8.0 * self.beta)
    }

    /// Binomial broadcast/reduce of `elems` values over `p` ranks.
    pub fn binomial(&self, p: usize, elems: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.sync + (p as f64).log2().ceil() * (self.alpha + elems as f64 * 8.0 * self.beta)
    }

    /// Ring allgather where each rank contributes `elems` values.
    pub fn allgather_ring(&self, p: usize, elems: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.sync + (p as f64 - 1.0) * (self.alpha + elems as f64 * 8.0 * self.beta)
    }

    /// Pairwise alltoall moving `total_elems` values from this rank.
    pub fn alltoall_pairwise(&self, p: usize, total_elems: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.sync + (p as f64 - 1.0) * self.alpha + total_elems as f64 * 8.0 * self.beta
    }

    /// Dissemination barrier over `p` ranks.
    pub fn barrier(&self, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.sync + (p as f64).log2().ceil() * self.alpha
    }

    /// Time of one recorded collective event.
    pub fn collective_event(&self, e: &CollectiveEvent) -> f64 {
        match e.kind {
            CollectiveKind::Allreduce => self.allreduce_ring(e.comm_size, e.elems),
            CollectiveKind::Reduce | CollectiveKind::Bcast => self.binomial(e.comm_size, e.elems),
            CollectiveKind::Allgather | CollectiveKind::Gather => {
                self.allgather_ring(e.comm_size, e.elems)
            }
            CollectiveKind::Alltoall => self.alltoall_pairwise(e.comm_size, e.elems),
            CollectiveKind::Barrier => self.barrier(e.comm_size),
        }
    }

    /// Total predicted time of a batch of collective events.
    pub fn collective_total(&self, events: &[CollectiveEvent]) -> f64 {
        events.iter().map(|e| self.collective_event(e)).sum()
    }

    /// Compute time of `updates` point-updates.
    pub fn compute(&self, updates: u64) -> f64 {
        self.gamma * updates as f64
    }

    /// Effective time of a communication phase overlapped with concurrent
    /// computation: the exposed communication is what exceeds the overlap
    /// window, and both always cost at least the computation itself.
    pub fn overlap(&self, comm_time: f64, concurrent_compute: f64) -> f64 {
        comm_time.max(concurrent_compute)
    }

    /// Predicted point-to-point time of a stats delta (collectives excluded;
    /// their internal p2p traffic is billed via [`Self::collective_event`],
    /// so callers must subtract it — see [`p2p_only_delta`]).
    pub fn p2p_from_snapshot(&self, d: &StatsSnapshot) -> f64 {
        self.p2p_total(d.p2p_sends, d.p2p_send_elems)
    }
}

/// Remove the internal point-to-point traffic of the listed collectives from
/// a stats delta, leaving only genuine (stencil/halo) p2p traffic.
///
/// The runtime implements collectives on top of p2p, so its counters see
/// both; the paper reports them separately (Figures 6 vs 7).  Ring
/// allreduce contributes `2(p-1)` messages of `≈n/p` elements, etc.
pub fn p2p_only_delta(d: &StatsSnapshot, events: &[CollectiveEvent]) -> StatsSnapshot {
    let mut msgs: u64 = 0;
    let mut elems: u64 = 0;
    for e in events {
        let p = e.comm_size as u64;
        if p <= 1 {
            continue;
        }
        let (m, v) = match e.kind {
            CollectiveKind::Allreduce => {
                // ring: 2(p-1) messages totalling ~2n(p-1)/p elements
                (2 * (p - 1), 2 * (e.elems as u64) * (p - 1) / p)
            }
            CollectiveKind::Bcast => {
                // binomial: a rank sends/recvs <= log2 p messages; count the
                // average of 1 recv + forwarded sends ~ log2(p) bound
                (
                    p.ilog2() as u64 + 1,
                    (p.ilog2() as u64 + 1) * e.elems as u64,
                )
            }
            CollectiveKind::Reduce => (1, e.elems as u64),
            CollectiveKind::Allgather => (p - 1, (p - 1) * e.elems as u64),
            CollectiveKind::Gather => (1, e.elems as u64),
            CollectiveKind::Alltoall => (p - 1, e.elems as u64),
            CollectiveKind::Barrier => (p.ilog2() as u64 + 1, 0),
        };
        msgs += m;
        elems += v;
    }
    StatsSnapshot {
        p2p_sends: d.p2p_sends.saturating_sub(msgs),
        p2p_send_elems: d.p2p_send_elems.saturating_sub(elems),
        p2p_recvs: d.p2p_recvs.saturating_sub(msgs),
        p2p_recv_elems: d.p2p_recv_elems.saturating_sub(elems),
        collective_calls: d.collective_calls,
        collective_elems: d.collective_elems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_linear_in_size_and_count() {
        let m = CostModel::tianhe2();
        let one = m.p2p_message(1000);
        assert!(one > m.alpha);
        assert!((m.p2p_total(2, 2000) - 2.0 * one).abs() < 1e-15);
    }

    #[test]
    fn ring_allreduce_bandwidth_term_saturates() {
        let m = CostModel::tianhe2();
        // as p grows, bandwidth term approaches 2*n*8*beta, latency grows
        let t4 = m.allreduce_ring(4, 1_000_000);
        let t1024 = m.allreduce_ring(1024, 1_000_000);
        let bw_limit = 2.0 * 8.0e6 * m.beta;
        assert!(t4 < t1024); // latency term dominates growth here
        assert!(t1024 > bw_limit);
        assert!(m.allreduce_ring(1, 100) == 0.0);
    }

    #[test]
    fn rd_beats_ring_for_small_vectors() {
        let m = CostModel::tianhe2();
        // short vector: recursive doubling (log p latency) wins
        assert!(m.allreduce_rd(64, 4) < m.allreduce_ring(64, 4));
        // long vector: ring (bandwidth-optimal) wins
        assert!(m.allreduce_ring(64, 10_000_000) < m.allreduce_rd(64, 10_000_000));
    }

    #[test]
    fn overlap_credits_computation() {
        let m = CostModel::tianhe2();
        assert_eq!(m.overlap(2.0, 5.0), 5.0); // comm fully hidden
        assert_eq!(m.overlap(5.0, 2.0), 5.0); // comm exposed
    }

    #[test]
    fn collective_event_dispatch() {
        let m = CostModel::tianhe2();
        let e = CollectiveEvent {
            kind: CollectiveKind::Allreduce,
            comm_size: 8,
            elems: 100,
            phase: agcm_obs::Phase::Other,
        };
        assert!((m.collective_event(&e) - m.allreduce_ring(8, 100)).abs() < 1e-18);
        let b = CollectiveEvent {
            kind: CollectiveKind::Barrier,
            comm_size: 8,
            elems: 0,
            phase: agcm_obs::Phase::Other,
        };
        assert!((m.collective_event(&b) - (m.sync + 3.0 * m.alpha)).abs() < 1e-18);
        assert!(m.collective_total(&[e, b]) > 0.0);
    }

    #[test]
    fn p2p_only_subtracts_ring_traffic() {
        // 1 allreduce of 64 elems on 4 ranks = 6 msgs, 96 elems (measured in
        // collective.rs test); plus 2 genuine halo messages of 50 elems
        let d = StatsSnapshot {
            p2p_sends: 8,
            p2p_send_elems: 196,
            p2p_recvs: 8,
            p2p_recv_elems: 196,
            collective_calls: 1,
            collective_elems: 64,
        };
        let ev = [CollectiveEvent {
            kind: CollectiveKind::Allreduce,
            comm_size: 4,
            elems: 64,
            phase: agcm_obs::Phase::Other,
        }];
        let p = p2p_only_delta(&d, &ev);
        assert_eq!(p.p2p_sends, 2);
        assert_eq!(p.p2p_send_elems, 100);
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let th = CostModel::tianhe2();
        let eth = CostModel::ethernet_cluster();
        assert!(th.alpha < eth.alpha);
        assert!(th.beta < eth.beta);
        assert_eq!(CostModel::ideal_network().p2p_message(1 << 20), 0.0);
    }

    #[test]
    fn compute_scales_linearly() {
        let m = CostModel::tianhe2();
        assert!((m.compute(2_000_000) - 2.0 * m.compute(1_000_000)).abs() < 1e-12);
    }
}
