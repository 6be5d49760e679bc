//! The machine constants of the cost model.
//!
//! The paper's measurements were taken on Tianhe-2 at up to 1024 MPI ranks.
//! Running 1024 OS threads on one machine would measure scheduler noise, not
//! network behaviour, so wall time at that scale is *predicted*: one
//! function, `agcm_core::analysis::predict`, walks the certified step
//! program over every rank and prices each op with the constants a
//! [`CostModel`] states — a posted message `α + β·bytes`, the wire `sync`,
//! a kernel its `γ` a point it sweeps.  This module holds the constants and
//! nothing that multiplies them; `benchmark/src/stats.rs` is where α and β
//! are measured.

use crate::stats::{CollectiveEvent, CollectiveKind, StatsSnapshot};

/// Seconds one kernel of the step program costs per point it sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCosts {
    /// The fused adaptation sub-update, per 3-D point of its region.
    pub adaptation: f64,
    /// A fresh operator `C` (the column sums), per 3-D point.
    pub vertical: f64,
    /// The fused advection sub-update, per 3-D point.
    pub advection: f64,
    /// The smoothing, per 3-D point.
    pub smoothing: f64,
    /// The polar filter, per filtered point and per `log₂ n_x` (an FFT).
    pub filter: f64,
    /// The Held–Suarez forcing where the configuration has it on, per 3-D
    /// point.
    pub forcing: f64,
}

impl KernelCosts {
    /// `unit` seconds an adaptation point, the other kernels in the
    /// proportions of their flop counts: advection touches three operators
    /// a component (1.2), the column sums are light (0.3), the smoothing a
    /// linear filter (0.35), a forward + inverse real FFT ≈ 10·n·log₂n flops
    /// (0.07 a point and `log₂ n`); the forcing is pointwise and not priced.
    const fn by_flops(unit: f64) -> Self {
        KernelCosts {
            adaptation: unit,
            vertical: 0.3 * unit,
            advection: 1.2 * unit,
            smoothing: 0.35 * unit,
            filter: 0.07 * unit,
            forcing: 0.0,
        }
    }
}

/// Linear (α–β–γ) machine model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// What posting one message costs its sender \[s\] (software +
    /// injection overhead).
    pub alpha: f64,
    /// Per-byte transfer time \[s/B\] (inverse effective bandwidth).
    pub beta: f64,
    /// Per-kernel compute time \[s\] a point swept.
    pub gamma: KernelCosts,
    /// The wire \[s\]: what passes between a sender's post and the moment
    /// its message can be received, and between the last rank's arrival at
    /// a collective and its start — latency plus the skew the machine's
    /// ranks arrive with.  On Tianhe-2 this is the dominant term of the
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
    /// * `sync = 2.5 ms` per communication round — the synchronization
    ///   skew of the load-imbalanced latitude–longitude mesh, pinned down
    ///   by the paper's own stencil numbers (≈ constant cost per exchange:
    ///   17,400 s / 13 per-step exchanges ≈ 2,800 s / 2 over the 10-year
    ///   run ≈ 2.5 ms each),
    /// * `β = 1/(10 GB/s)` effective per-rank bandwidth,
    /// * `γ = 12 ns` per ~150-flop adaptation point (Ivy Bridge core at
    ///   ~12 Gflop/s effective), the other kernels by their flop counts.
    pub fn tianhe2() -> Self {
        CostModel {
            alpha: 5.0e-6,
            beta: 1.0 / 1.0e10,
            gamma: KernelCosts::by_flops(1.2e-8),
            sync: 2.5e-3,
            name: "tianhe2",
        }
    }

    /// The bench host of `BENCHMARK.json` (a 2-vCPU guest, two ranks over
    /// Unix-domain sockets) — the constants `core::analysis::ca_group_size`
    /// decides Algorithm 2's halo depth with.  Each is a row of the
    /// benchmark's ledger on the `small_*_y2_uds` twins (EXPERIMENTS.md, "One
    /// cost model", has the runs, and what the constants predict against
    /// what was measured):
    ///
    /// * `β = 1.0 ns/B` — `comm.beta_s_per_byte`,
    /// * `α = 16 µs` — `(core.exchange.post_s_per_step − ½β·bytes) ÷ msgs`,
    /// * `sync = 8 µs` — `comm.alpha_s` (24 µs one way) less `α`,
    /// * `γ` — `core.{adaptation, vertical, advection, smoothing,
    ///   forcing}.ns_per_point` and `core.filterop.ns_per_point ÷ log₂ n_x`.
    ///
    /// The `γ` are rows of a **baseline-ISA (SSE2) build**, which is what
    /// every build was when they were read.  Under the host-ISA build the
    /// repository now makes (`.cargo/config.toml`) the same rows read
    /// (EXPERIMENTS.md, "Build for the host ISA"; ns a point, SSE2 → host
    /// ISA): adaptation 11.0 → 12.2, vertical 6.1 → 5.9, advection 14.2 →
    /// 13.2, smoothing 6.5 → 10.1, filter 2.07 → 2.03 (all on
    /// `small_alg1_y2_uds`), forcing 21.0 → 19.5 (`mid_serial`).  The
    /// constants keep their old values so that `ca_pick`'s rungs and the
    /// hold-out fixture, measured under them, stay what they were;
    /// re-deriving both together is ROADMAP item 3's open remainder.
    pub const BENCH_HOST: CostModel = CostModel {
        alpha: 1.6e-5,
        beta: 1.0e-9,
        gamma: KernelCosts {
            adaptation: 1.1e-8,
            vertical: 6.5e-9,
            advection: 1.4e-8,
            smoothing: 6.5e-9,
            filter: 2.0e-9,
            forcing: 2.2e-8,
        },
        sync: 8.0e-6,
        name: "bench-host",
    };

    /// An idealized zero-latency, infinite-bandwidth network: isolates pure
    /// computation.
    pub fn ideal_network() -> Self {
        CostModel {
            alpha: 0.0,
            beta: 0.0,
            gamma: KernelCosts::by_flops(5.0e-8),
            sync: 0.0,
            name: "ideal",
        }
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
        let host = CostModel::BENCH_HOST;
        // an interconnect against a socket pair on one host: cheaper to
        // post and to move a byte, and a round that waits on a thousand
        // ranks' skew where the host waits on one neighbour
        assert!(th.alpha < host.alpha);
        assert!(th.beta < host.beta);
        assert!(th.sync > host.sync);
        let ideal = CostModel::ideal_network();
        assert_eq!((ideal.alpha, ideal.beta, ideal.sync), (0.0, 0.0, 0.0));
        // the flop-count proportions of the calibrated presets
        assert_eq!(th.gamma.advection, 1.2 * th.gamma.adaptation);
        assert!(ideal.gamma.adaptation > 0.0);
    }
}
