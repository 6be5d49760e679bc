//! The clock handshake of distributed observability.
//!
//! A multi-process run keeps one tracer per process, and each process's
//! `obs::now_ns` counts from its own trace epoch (first use), so raw
//! timestamps are mutually meaningless.  [`clock_align`] runs a
//! Cristian-style ping/pong handshake against rank 0 ([`clock_serve`]):
//! each round brackets rank 0's clock reading between a local send and
//! receive, the minimum-RTT round wins, and the resulting
//! [`OffsetEstimate`] maps this rank's clock onto rank 0's within ±RTT/2
//! (sub-microsecond over Unix-domain sockets in practice — the spans being
//! aligned are tens of microseconds long).  Each rank leaves the offset in
//! its record for the parent, which merges the span streams
//! (`agcm_obs::dist`).
//!
//! The handshake rides the ordinary [`Communicator`] point-to-point layer
//! on two reserved user tags, so a dedicated *control communicator* (a
//! [`Communicator::split`] clone of the world) keeps it out of the model's
//! tag space; it runs before the model is built, outside every measured
//! bracket.

use crate::error::{CommError, CommResult};
use crate::runtime::Communicator;
use agcm_obs as obs;
use agcm_obs::dist::{self, ClockSample, OffsetEstimate};

/// A clock ping (user tag space: bit 31 clear).  Use a split control
/// communicator to keep even this away from model traffic.
const TAG_CLOCK_PING: u32 = 0x7C1A_0001;
/// Rank 0's reply to a [`TAG_CLOCK_PING`], carrying its clock reading.
const TAG_CLOCK_PONG: u32 = 0x7C1A_0002;

/// Ping/pong rounds of the default clock handshake: enough that at least
/// one round dodges scheduler noise, cheap enough to be invisible (~8
/// round trips of 9-byte payloads per rank).
pub const CLOCK_ROUNDS: usize = 8;

/// Rank 0's side of the clock handshake: answer `rounds` pings from every
/// other rank (clients are served in rank order; each client's rounds are
/// strictly ping/pong ordered, so one blocking loop is deadlock-free).
pub fn clock_serve(comm: &Communicator, rounds: usize) -> CommResult<()> {
    for client in 1..comm.size() {
        for _ in 0..rounds {
            let _ping = comm.recv(client, TAG_CLOCK_PING)?;
            let now = obs::now_ns();
            comm.send(client, TAG_CLOCK_PONG, &[f64::from_bits(now)])?;
        }
    }
    Ok(())
}

/// A non-zero rank's side: run `rounds` ping/pongs against rank 0 and
/// return the offset mapping this rank's clock onto rank 0's
/// (`t_rank0 ≈ t_local + offset_ns`).
pub fn clock_align(comm: &Communicator, rounds: usize) -> CommResult<OffsetEstimate> {
    let mut samples = Vec::with_capacity(rounds);
    for round in 0..rounds.max(1) {
        let t_send_ns = obs::now_ns();
        comm.send(0, TAG_CLOCK_PING, &[round as f64])?;
        let pong = comm.recv_exact(0, TAG_CLOCK_PONG, 1)?;
        let t_recv_ns = obs::now_ns();
        let t_peer_ns = pong[0].to_bits();
        samples.push(ClockSample {
            t_send_ns,
            t_peer_ns,
            t_recv_ns,
        });
    }
    dist::estimate_offset(&samples)
        .map_err(|detail| CommError::CollectiveMismatch(format!("clock handshake: {detail}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Universe;
    use agcm_obs::{Phase, SpanKind};

    fn ev(rank: usize, name: &'static str, t0: u64, t1: u64) -> obs::Event {
        obs::Event {
            rank,
            step: 2,
            kind: SpanKind::Op,
            phase: Phase::A,
            name,
            t0_ns: t0,
            t1_ns: t1,
            seq: t0,
            bytes: 0,
            value: 0.0,
        }
    }

    /// Each rank ships its telemetry as the bytes of one record; the parent
    /// decodes every record and merges the span streams onto rank 0's clock.
    #[test]
    fn telemetry_ships_and_merges() {
        let shipped = Universe::run(3, |comm| {
            let rank = comm.rank();
            let mut metrics = obs::MetricsSnapshot::default();
            metrics.counters.insert("steps".into(), rank as u64);
            // rank 0's clock is the reference; the others stand skewed
            let offset = OffsetEstimate {
                offset_ns: 10 * rank as i64,
                rtt_ns: 4,
            };
            let t0 = if rank == 0 { 100 } else { 50 * rank as u64 };
            let events = vec![ev(rank, "alg2.step", t0, t0 + 800)];
            dist::encode_record(&dist::Record {
                metrics,
                trace: Some((offset, events)),
            })
        });
        let mut streams = Vec::new();
        for (rank, bytes) in shipped.iter().enumerate() {
            let rec = dist::decode_record(bytes).expect("decode");
            assert_eq!(rec.metrics.counters["steps"], rank as u64);
            let (offset, events) = rec.trace.expect("traced");
            streams.push((offset.offset_ns, events));
        }
        let merged = dist::merge_events(&streams);
        assert_eq!(merged.len(), 3);
        let ranks: Vec<usize> = merged.iter().map(|e| e.rank).collect();
        assert!(ranks.contains(&0) && ranks.contains(&1) && ranks.contains(&2));
        // rank 1's event: local 50 + offset 10 = 60; rank 2's: 100 + 20 =
        // 120; rank 0's at 100 -> origin is rank 1's 60
        assert_eq!(merged[0].rank, 1);
        assert_eq!(merged[0].t0_ns, 0);
    }

    #[test]
    fn clock_handshake_estimates_small_offset_in_process() {
        // threads share one process clock: the true offset is 0 and the
        // estimate must land within the reported RTT bound
        let results = Universe::run(3, |comm| {
            if comm.rank() == 0 {
                clock_serve(comm, CLOCK_ROUNDS).expect("serve");
                None
            } else {
                Some(clock_align(comm, CLOCK_ROUNDS).expect("align"))
            }
        });
        for est in results.into_iter().flatten() {
            assert!(
                est.offset_ns.unsigned_abs() <= est.rtt_ns,
                "offset {} exceeds rtt bound {}",
                est.offset_ns,
                est.rtt_ns
            );
        }
    }
}
