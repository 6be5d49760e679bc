//! Distributed trace collection: codecs, clock alignment, and merging.
//!
//! A multi-process run (one OS process per rank, `agcm-run`) records spans
//! into per-process tracers whose wall clocks share no epoch — each
//! process's [`crate::now_ns`] counts from its own first use.  This module
//! supplies the pieces that turn those per-rank streams into one coherent
//! timeline in the parent:
//!
//! * **codec** (`encode_events` / `decode_events`,
//!   `encode_metrics` / `decode_metrics`) — a compact, versioned
//!   binary encoding of a drained event stream and a metrics snapshot.
//!   Event names are deduplicated through a string table and re-interned
//!   on decode (names are `&'static str`; unseen names are leaked once
//!   per distinct name, bounded by the instrumentation-site count);
//! * **record** ([`Record`], [`encode_record`] / [`decode_record`]) — what
//!   one rank incarnation leaves in its world's directory for the parent:
//!   its metrics snapshot and, when it traced, its clock offset and span
//!   stream, in the two codecs above;
//! * **clock alignment** ([`ClockSample`], [`estimate_offset`]) — a
//!   Cristian-style offset estimator over ping/pong samples: each round
//!   brackets the server's timestamp between local send and receive; the
//!   minimum-RTT round gives the tightest bracket, and its midpoint the
//!   offset, with error bounded by half that round's RTT;
//! * **merging** ([`merge_events`]) — applies per-rank offsets, rebases
//!   the union to a zero origin and re-sorts, yielding a stream the
//!   existing [`crate::chrome_trace_json`] exporter renders with one
//!   track per rank;
//! * **epoch merging** ([`merge_rank_metrics`]) — folds the metric
//!   snapshots of one rank's successive *incarnations* (a restarted world
//!   runs every rank as a new process of the next generation, whose
//!   counters start from zero) into lifetime totals by summing across
//!   epoch-tagged snapshots instead of taking the last one.

use crate::metrics::{HistogramSummary, MetricsSnapshot};
use crate::phase::Phase;
use crate::tracer::{Event, SpanKind};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Codec magic + version for an encoded event stream.
const EVENTS_MAGIC: &[u8; 8] = b"AGCMTRC1";
/// Codec magic + version for an encoded metrics snapshot.
const METRICS_MAGIC: &[u8; 8] = b"AGCMMET2";
/// Codec magic + version for an encoded [`Record`].
const RECORD_MAGIC: &[u8; 8] = b"AGCMREC1";

// ---------------------------------------------------------------------------
// primitive writers/readers
// ---------------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .i
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| format!("truncated stream at byte {} (want {n} more)", self.i))?;
        let s = &self.b[self.i..end];
        self.i = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|e| format!("non-utf8 string in stream: {e}"))
    }

    fn done(&self) -> bool {
        self.i == self.b.len()
    }

    /// A capacity hint for `n` items of at least `min_bytes` each, bounded
    /// by the bytes left: an unverified count in hostile bytes must not
    /// size an allocation.
    fn hint(&self, n: usize, min_bytes: usize) -> usize {
        n.min((self.b.len() - self.i) / min_bytes)
    }
}

// ---------------------------------------------------------------------------
// enum codes
// ---------------------------------------------------------------------------

fn kind_code(k: SpanKind) -> u8 {
    match k {
        SpanKind::Step => 0,
        SpanKind::Iter => 1,
        SpanKind::Op => 2,
        SpanKind::ExchangePost => 3,
        SpanKind::ExchangeWait => 4,
        SpanKind::OverlapCompute => 5,
        SpanKind::Collective => 6,
        SpanKind::Gauge => 7,
        SpanKind::Recovery => 8,
        SpanKind::Worker => 9,
        SpanKind::Transport => 10,
    }
}

fn kind_from_code(c: u8) -> Result<SpanKind, String> {
    Ok(match c {
        0 => SpanKind::Step,
        1 => SpanKind::Iter,
        2 => SpanKind::Op,
        3 => SpanKind::ExchangePost,
        4 => SpanKind::ExchangeWait,
        5 => SpanKind::OverlapCompute,
        6 => SpanKind::Collective,
        7 => SpanKind::Gauge,
        8 => SpanKind::Recovery,
        9 => SpanKind::Worker,
        10 => SpanKind::Transport,
        _ => return Err(format!("unknown span kind code {c}")),
    })
}

fn phase_code(p: Phase) -> u8 {
    match p {
        Phase::A => 0,
        Phase::C => 1,
        Phase::F => 2,
        Phase::L => 3,
        Phase::S1 => 4,
        Phase::S2 => 5,
        Phase::Other => 6,
    }
}

fn phase_from_code(c: u8) -> Result<Phase, String> {
    Ok(match c {
        0 => Phase::A,
        1 => Phase::C,
        2 => Phase::F,
        3 => Phase::L,
        4 => Phase::S1,
        5 => Phase::S2,
        6 => Phase::Other,
        _ => return Err(format!("unknown phase code {c}")),
    })
}

// ---------------------------------------------------------------------------
// name interning
// ---------------------------------------------------------------------------

/// Intern `name` as a `&'static str`.  Decoded names are almost always
/// instrumentation-site literals already seen by this process; genuinely
/// new names leak once each, bounded by the number of distinct span names
/// in the whole program.
fn intern(name: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut t = table.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(s) = t.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    t.insert(name.to_string(), leaked);
    leaked
}

// ---------------------------------------------------------------------------
// event stream codec
// ---------------------------------------------------------------------------

/// Encoded size of one event: rank, name index (u32 each), kind and phase
/// codes (a byte each), step, t0, t1, seq, bytes and value (u64 each).
const EVENT_BYTES: usize = 2 * 4 + 2 + 6 * 8;

/// Encode a drained event stream into the versioned binary form.
fn encode_events(events: &[Event]) -> Vec<u8> {
    let mut names: Vec<&'static str> = Vec::new();
    let mut index: BTreeMap<&'static str, u32> = BTreeMap::new();
    for e in events {
        index.entry(e.name).or_insert_with(|| {
            names.push(e.name);
            (names.len() - 1) as u32
        });
    }
    let mut out = Vec::with_capacity(16 + names.len() * 24 + events.len() * EVENT_BYTES);
    out.extend_from_slice(EVENTS_MAGIC);
    put_u32(&mut out, names.len() as u32);
    for n in &names {
        put_str(&mut out, n);
    }
    put_u32(&mut out, events.len() as u32);
    for e in events {
        put_u32(&mut out, e.rank as u32);
        put_u64(&mut out, e.step);
        out.push(kind_code(e.kind));
        out.push(phase_code(e.phase));
        put_u32(&mut out, index[e.name]);
        put_u64(&mut out, e.t0_ns);
        put_u64(&mut out, e.t1_ns);
        put_u64(&mut out, e.seq);
        put_u64(&mut out, e.bytes);
        put_u64(&mut out, e.value.to_bits());
    }
    out
}

/// Decode an event stream encoded by [`encode_events`].
fn decode_events(bytes: &[u8]) -> Result<Vec<Event>, String> {
    let mut r = Reader { b: bytes, i: 0 };
    if r.take(8)? != EVENTS_MAGIC {
        return Err("bad event-stream magic".to_string());
    }
    let n_names = r.u32()? as usize;
    let mut names = Vec::with_capacity(r.hint(n_names, 4));
    for _ in 0..n_names {
        names.push(intern(&r.str()?));
    }
    let n_events = r.u32()? as usize;
    let mut events = Vec::with_capacity(r.hint(n_events, EVENT_BYTES));
    for _ in 0..n_events {
        let rank = r.u32()? as usize;
        let step = r.u64()?;
        let kind = kind_from_code(r.take(1)?[0])?;
        let phase = phase_from_code(r.take(1)?[0])?;
        let ni = r.u32()? as usize;
        let name = *names
            .get(ni)
            .ok_or_else(|| format!("name index {ni} out of range ({n_names} names)"))?;
        let t0_ns = r.u64()?;
        let t1_ns = r.u64()?;
        let seq = r.u64()?;
        let bytes_moved = r.u64()?;
        let value = f64::from_bits(r.u64()?);
        events.push(Event {
            rank,
            step,
            kind,
            phase,
            name,
            t0_ns,
            t1_ns,
            seq,
            bytes: bytes_moved,
            value,
        });
    }
    if !r.done() {
        return Err(format!("trailing bytes after event stream at {}", r.i));
    }
    Ok(events)
}

// ---------------------------------------------------------------------------
// metrics snapshot codec
// ---------------------------------------------------------------------------

/// Encode a metrics snapshot into the versioned binary form.
fn encode_metrics(snap: &MetricsSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(METRICS_MAGIC);
    put_u32(&mut out, snap.counters.len() as u32);
    for (k, v) in &snap.counters {
        put_str(&mut out, k);
        put_u64(&mut out, *v);
    }
    put_u32(&mut out, snap.histograms.len() as u32);
    for (k, h) in &snap.histograms {
        put_str(&mut out, k);
        put_u64(&mut out, h.count);
        put_u64(&mut out, h.sum);
        put_u64(&mut out, h.mean.to_bits());
        put_u64(&mut out, h.p50);
        put_u64(&mut out, h.p95);
        put_u64(&mut out, h.p99);
        put_u64(&mut out, h.max);
    }
    out
}

/// Decode a metrics snapshot encoded by [`encode_metrics`].
fn decode_metrics(bytes: &[u8]) -> Result<MetricsSnapshot, String> {
    let mut r = Reader { b: bytes, i: 0 };
    if r.take(8)? != METRICS_MAGIC {
        return Err("bad metrics-snapshot magic".to_string());
    }
    let mut snap = MetricsSnapshot::default();
    for _ in 0..r.u32()? {
        let k = r.str()?;
        let v = r.u64()?;
        snap.counters.insert(k, v);
    }
    for _ in 0..r.u32()? {
        let k = r.str()?;
        let h = HistogramSummary {
            count: r.u64()?,
            sum: r.u64()?,
            mean: f64::from_bits(r.u64()?),
            p50: r.u64()?,
            p95: r.u64()?,
            p99: r.u64()?,
            max: r.u64()?,
        };
        snap.histograms.insert(k, h);
    }
    if !r.done() {
        return Err(format!("trailing bytes after metrics snapshot at {}", r.i));
    }
    Ok(snap)
}

// ---------------------------------------------------------------------------
// record codec
// ---------------------------------------------------------------------------

/// What one rank incarnation reports to the parent of its world, written
/// once into the world's directory when it ends.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Its metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// When it traced: its clock's offset onto rank 0's and its drained
    /// span stream (local timestamps), ready for [`merge_events`].
    pub trace: Option<(OffsetEstimate, Vec<Event>)>,
}

/// Encode a record: the magic, the metrics snapshot behind its byte
/// length, then a trace flag and, if set, the offset, its RTT and the span
/// stream.
pub fn encode_record(rec: &Record) -> Vec<u8> {
    let mut out = RECORD_MAGIC.to_vec();
    let metrics = encode_metrics(&rec.metrics);
    put_u64(&mut out, metrics.len() as u64);
    out.extend_from_slice(&metrics);
    out.push(u8::from(rec.trace.is_some()));
    if let Some((offset, events)) = &rec.trace {
        put_u64(&mut out, offset.offset_ns as u64);
        put_u64(&mut out, offset.rtt_ns);
        out.extend_from_slice(&encode_events(events));
    }
    out
}

/// Decode a record encoded by [`encode_record`].
pub fn decode_record(bytes: &[u8]) -> Result<Record, String> {
    let mut r = Reader { b: bytes, i: 0 };
    if r.take(8)? != RECORD_MAGIC {
        return Err("bad record magic".to_string());
    }
    let len = usize::try_from(r.u64()?).map_err(|e| format!("metrics length: {e}"))?;
    let metrics = decode_metrics(r.take(len)?)?;
    let trace = match r.take(1)?[0] {
        0 => None,
        1 => {
            let offset_ns = r.u64()? as i64;
            let rtt_ns = r.u64()?;
            let events = decode_events(r.take(bytes.len() - r.i)?)?;
            Some((OffsetEstimate { offset_ns, rtt_ns }, events))
        }
        flag => return Err(format!("bad record trace flag {flag}")),
    };
    if !r.done() {
        return Err(format!("trailing bytes after record at {}", r.i));
    }
    Ok(Record { metrics, trace })
}

// ---------------------------------------------------------------------------
// epoch-aware metrics merging
// ---------------------------------------------------------------------------

/// Merge one rank's per-incarnation metric snapshots — each tagged with
/// the epoch that incarnation was *born* at — into the rank's lifetime
/// totals.
///
/// A restarted world runs every rank as a new process of the next
/// generation, whose instruments start from zero, so taking the last
/// snapshot silently drops everything the earlier incarnations
/// counted and skews MTTR/availability math.  Counters are cumulative
/// within one incarnation and incarnation lifetimes are disjoint, so the
/// lifetime total is the **sum** of the per-incarnation finals; histogram
/// mass (count, sum, exact max) adds the same way, with the mean
/// recomputed from the merged sum/count.  Histogram quantiles
/// cannot be re-derived from summaries, so the merged p50/p95/p99 take
/// the maximum across incarnations — a documented conservative upper
/// bound.  Duplicate epoch tags resolve to the later entry in `snaps`.
pub fn merge_rank_metrics(snaps: &[(u64, MetricsSnapshot)]) -> MetricsSnapshot {
    let mut ordered: Vec<&(u64, MetricsSnapshot)> = snaps.iter().collect();
    // stable sort: among duplicate epochs the later input is inserted
    // last below, so it wins
    ordered.sort_by_key(|(epoch, _)| *epoch);
    let mut by_epoch: BTreeMap<u64, &MetricsSnapshot> = BTreeMap::new();
    for (epoch, snap) in ordered {
        by_epoch.insert(*epoch, snap);
    }
    let mut out = MetricsSnapshot::default();
    for snap in by_epoch.values() {
        for (k, v) in &snap.counters {
            *out.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &snap.histograms {
            let m = out.histograms.entry(k.clone()).or_insert(HistogramSummary {
                count: 0,
                sum: 0,
                mean: 0.0,
                p50: 0,
                p95: 0,
                p99: 0,
                max: 0,
            });
            m.count += h.count;
            m.sum += h.sum;
            m.max = m.max.max(h.max);
            m.p50 = m.p50.max(h.p50);
            m.p95 = m.p95.max(h.p95);
            m.p99 = m.p99.max(h.p99);
        }
    }
    for h in out.histograms.values_mut() {
        h.mean = if h.count == 0 {
            0.0
        } else {
            h.sum as f64 / h.count as f64
        };
    }
    out
}

// ---------------------------------------------------------------------------
// clock alignment
// ---------------------------------------------------------------------------

/// One ping/pong round of the clock handshake, all in local trace-epoch
/// nanoseconds except `t_peer_ns`, which is the peer's own clock reading
/// taken between our send and our receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockSample {
    /// Local clock when the ping was sent.
    pub t_send_ns: u64,
    /// Peer clock when it handled the ping.
    pub t_peer_ns: u64,
    /// Local clock when the pong arrived.
    pub t_recv_ns: u64,
}

impl ClockSample {
    /// Round-trip time of this sample.
    pub fn rtt_ns(&self) -> u64 {
        self.t_recv_ns.saturating_sub(self.t_send_ns)
    }

    /// Offset estimate of this single sample: `peer_clock - local_clock`
    /// assuming symmetric one-way delays (Cristian's midpoint).
    pub fn offset_ns(&self) -> i64 {
        // midpoint of the local [send, recv] bracket, in i128 to dodge
        // overflow near the u64 range
        let mid = (self.t_send_ns as i128 + self.t_recv_ns as i128) / 2;
        (self.t_peer_ns as i128 - mid) as i64
    }
}

/// The fitted clock relation `peer_clock ≈ local_clock + offset_ns`; the
/// default (zero offset, zero RTT) is the reference clock's own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OffsetEstimate {
    /// Estimated offset (add to local times to land on the peer clock).
    pub offset_ns: i64,
    /// RTT of the sample the estimate came from — the error bound is half
    /// of this (the true offset lies within ±rtt/2 of the estimate).
    pub rtt_ns: u64,
}

/// Estimate the clock offset to a peer from ping/pong samples.
///
/// Jitter robustness comes from sample selection, not averaging: delayed
/// rounds widen their bracket symmetrically only if the delay is
/// symmetric, so the *minimum-RTT* round — the one least polluted by
/// queueing — is the best single estimator, and its half-RTT bounds the
/// error regardless of how asymmetric the other rounds were.
pub fn estimate_offset(samples: &[ClockSample]) -> Result<OffsetEstimate, String> {
    let best = samples
        .iter()
        .filter(|s| s.t_recv_ns >= s.t_send_ns)
        .min_by_key(|s| s.rtt_ns())
        .ok_or_else(|| "no usable clock samples (all brackets inverted)".to_string())?;
    Ok(OffsetEstimate {
        offset_ns: best.offset_ns(),
        rtt_ns: best.rtt_ns(),
    })
}

// ---------------------------------------------------------------------------
// merging
// ---------------------------------------------------------------------------

/// Merge per-rank event streams into one aligned timeline.
///
/// Each stream carries the offset mapping *its* clock onto the reference
/// (rank 0) clock: `t_ref = t_local + offset_ns`.  The merged stream is
/// rebased so its earliest event starts at 0 and sorted by start time
/// (ties by rank then sequence number), ready for
/// [`crate::chrome_trace_json`].
pub fn merge_events(streams: &[(i64, Vec<Event>)]) -> Vec<Event> {
    let total: usize = streams.iter().map(|(_, evs)| evs.len()).sum();
    let mut aligned: Vec<Event> = Vec::with_capacity(total);
    let mut min_t0 = i128::MAX;
    for (offset, evs) in streams {
        for e in evs {
            min_t0 = min_t0.min(e.t0_ns as i128 + *offset as i128);
        }
    }
    if min_t0 == i128::MAX {
        return aligned;
    }
    for (offset, evs) in streams {
        for e in evs {
            let shift = |t: u64| ((t as i128 + *offset as i128 - min_t0).max(0)) as u64;
            let mut e2 = *e;
            e2.t0_ns = shift(e.t0_ns);
            e2.t1_ns = shift(e.t1_ns).max(e2.t0_ns);
            aligned.push(e2);
        }
    }
    aligned.sort_by_key(|e| (e.t0_ns, e.rank, e.seq));
    aligned
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        rank: usize,
        kind: SpanKind,
        phase: Phase,
        name: &'static str,
        t0: u64,
        t1: u64,
    ) -> Event {
        Event {
            rank,
            step: 2,
            kind,
            phase,
            name,
            t0_ns: t0,
            t1_ns: t1,
            seq: t0,
            bytes: 17,
            value: 0.0,
        }
    }

    #[test]
    fn events_roundtrip_all_kinds() {
        let mut evs = Vec::new();
        for (i, kind) in [
            SpanKind::Step,
            SpanKind::Iter,
            SpanKind::Op,
            SpanKind::ExchangePost,
            SpanKind::ExchangeWait,
            SpanKind::OverlapCompute,
            SpanKind::Collective,
            SpanKind::Gauge,
            SpanKind::Recovery,
            SpanKind::Worker,
            SpanKind::Transport,
        ]
        .into_iter()
        .enumerate()
        {
            let mut e = ev(
                i % 4,
                kind,
                Phase::OPERATORS[i % 6],
                "site",
                i as u64,
                i as u64 + 5,
            );
            e.value = if i % 2 == 0 { f64::NAN } else { -1.5e-300 };
            evs.push(e);
        }
        let enc = encode_events(&evs);
        let dec = decode_events(&enc).expect("decode");
        assert_eq!(dec.len(), evs.len());
        for (a, b) in evs.iter().zip(&dec) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.phase, b.phase);
            assert_eq!(a.name, b.name);
            assert_eq!(a.t0_ns, b.t0_ns);
            assert_eq!(a.t1_ns, b.t1_ns);
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.bytes, b.bytes);
            // NaN-safe value comparison: exact bit patterns
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        // truncation is rejected, not misread
        assert!(decode_events(&enc[..enc.len() - 1]).is_err());
        assert!(decode_events(b"BADMAGIC").is_err());
    }

    #[test]
    fn metrics_roundtrip() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("comm.msgs".into(), 42);
        snap.histograms.insert(
            "comm.recv_wait_ns".into(),
            HistogramSummary {
                count: 9,
                sum: 900,
                mean: 100.0,
                p50: 96,
                p95: 180,
                p99: 200,
                max: 230,
            },
        );
        let back = decode_metrics(&encode_metrics(&snap)).expect("decode");
        assert_eq!(back.counters["comm.msgs"], 42);
        let h = back.histograms["comm.recv_wait_ns"];
        assert_eq!(h.count, 9);
        assert_eq!(h.p95, 180);
        assert_eq!(h.max, 230);
    }

    /// A record carries a rank's metrics — the measured step's traffic
    /// among its counters — and, when it traced, its clock offset and span
    /// stream; each decodes bit for bit, and a record that did not trace
    /// stays one.  Truncation, a bad flag and a bad magic are refused.
    #[test]
    fn record_round_trips() {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("run.measured.pure_msgs".into(), 13);
        metrics
            .counters
            .insert("run.measured.wire_bytes".into(), 1 << 40);
        let events = vec![
            ev(1, SpanKind::Op, Phase::A, "adaptation.local", 10, 20),
            ev(1, SpanKind::ExchangeWait, Phase::Other, "halo.wait", 15, 40),
        ];
        let offset = OffsetEstimate {
            offset_ns: -1_234_567,
            rtt_ns: 8_000,
        };
        let traced = Record {
            metrics: metrics.clone(),
            trace: Some((offset, events)),
        };
        let bytes = encode_record(&traced);
        let back = decode_record(&bytes).expect("decode");
        assert_eq!(back.metrics.counters, metrics.counters);
        let (o, evs) = back.trace.expect("trace survives");
        assert_eq!(o, offset);
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[1].name, evs[1].t1_ns), ("halo.wait", 40));

        let plain = Record {
            metrics,
            trace: None,
        };
        let back = decode_record(&encode_record(&plain)).expect("decode");
        assert!(back.trace.is_none());
        assert_eq!(back.metrics.counters["run.measured.pure_msgs"], 13);

        assert!(decode_record(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_record(b"BADMAGIC").is_err());
        let mut flag = encode_record(&plain);
        *flag.last_mut().expect("flag byte") = 2;
        assert!(decode_record(&flag).unwrap_err().contains("flag"));
    }

    /// A 65-byte record whose span stream claims 2³²−1 names or events is
    /// refused as truncated: the unverified count does not size an
    /// allocation before the bytes behind it are read.
    #[test]
    fn hostile_counts_are_refused_without_allocating() {
        let offset = OffsetEstimate {
            offset_ns: 0,
            rtt_ns: 0,
        };
        let rec = Record {
            metrics: MetricsSnapshot::default(),
            trace: Some((offset, Vec::new())),
        };
        let bytes = encode_record(&rec);
        assert_eq!(bytes.len(), 65);
        // the stream's last eight bytes: its name count, then its event count
        for at in [bytes.len() - 8, bytes.len() - 4] {
            let mut hostile = bytes.clone();
            hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let err = decode_record(&hostile).unwrap_err();
            assert!(err.contains("truncated"), "{err}");
        }
    }

    #[test]
    fn epoch_merge_sums_counters_instead_of_last_snapshot() {
        // the generation-0 incarnation counted 3 and died; its replacement
        // (generation 1) restarted from zero and counted 1
        let mut e0 = MetricsSnapshot::default();
        e0.counters.insert("test.counter".into(), 3);
        e0.counters.insert("test.other_counter".into(), 7);
        let mut e1 = MetricsSnapshot::default();
        e1.counters.insert("test.counter".into(), 1);
        // out-of-order input: the merge must sort by epoch itself
        let merged = merge_rank_metrics(&[(1, e1.clone()), (0, e0.clone())]);
        // the bug this guards against: last-snapshot-wins reports 1
        assert_eq!(merged.counters["test.counter"], 4);
        // a counter only the first incarnation bumped still survives
        assert_eq!(merged.counters["test.other_counter"], 7);
        // duplicate epoch tag: the later entry wins, no double count
        let dup = merge_rank_metrics(&[(0, e0.clone()), (0, e1.clone())]);
        assert_eq!(dup.counters["test.counter"], 1);
        assert!(merge_rank_metrics(&[]).counters.is_empty());
    }

    #[test]
    fn epoch_merge_adds_histogram_mass() {
        let h = |count, sum, p99, max| HistogramSummary {
            count,
            sum,
            mean: sum as f64 / count as f64,
            p50: p99 / 2,
            p95: p99,
            p99,
            max,
        };
        let mut e0 = MetricsSnapshot::default();
        e0.histograms
            .insert("resilience.ckpt_write_ns".into(), h(10, 1000, 150, 200));
        let mut e1 = MetricsSnapshot::default();
        e1.histograms
            .insert("resilience.ckpt_write_ns".into(), h(30, 6000, 300, 420));
        let merged = merge_rank_metrics(&[(0, e0), (1, e1)]);
        let m = merged.histograms["resilience.ckpt_write_ns"];
        assert_eq!(m.count, 40);
        assert_eq!(m.sum, 7000);
        assert_eq!(m.mean, 175.0);
        assert_eq!(m.max, 420);
        // quantiles: conservative max across incarnations
        assert_eq!(m.p99, 300);
    }

    #[test]
    fn offset_estimate_recovers_skew_under_jitter() {
        // peer clock runs 5 ms ahead; one-way delays vary 10..500 us with
        // asymmetric queueing on most rounds, but one clean round exists
        let skew: i64 = 5_000_000;
        let mut samples = Vec::new();
        let delays = [
            (400_000u64, 90_000u64),
            (10_000, 12_000), // the clean round
            (250_000, 480_000),
            (500_000, 30_000),
        ];
        let mut t = 1_000_000u64;
        for (d1, d2) in delays {
            let t_send = t;
            let t_peer = (t_send + d1) as i64 + skew;
            let t_recv = t_send + d1 + d2;
            samples.push(ClockSample {
                t_send_ns: t_send,
                t_peer_ns: t_peer as u64,
                t_recv_ns: t_recv,
            });
            t += 1_000_000;
        }
        let est = estimate_offset(&samples).expect("estimate");
        // the clean round's rtt is 22 us: error bound 11 us
        assert_eq!(est.rtt_ns, 22_000);
        assert!(
            (est.offset_ns - skew).abs() <= est.rtt_ns as i64 / 2,
            "offset {} vs true {skew} (bound {})",
            est.offset_ns,
            est.rtt_ns / 2
        );
        // and the error bound is honest even for the noisy rounds alone
        for s in &samples {
            assert!((s.offset_ns() - skew).abs() <= s.rtt_ns() as i64 / 2);
        }
    }

    #[test]
    fn offset_estimate_negative_skew() {
        // peer clock is *behind* by more than the peer's own reading —
        // offsets must go negative without wrapping
        let s = ClockSample {
            t_send_ns: 10_000_000,
            t_peer_ns: 1_000,
            t_recv_ns: 10_020_000,
        };
        let est = estimate_offset(&[s]).unwrap();
        assert!(est.offset_ns < -9_900_000, "offset {}", est.offset_ns);
        assert!(estimate_offset(&[]).is_err());
    }

    #[test]
    fn merge_aligns_rebases_and_sorts() {
        // rank 0 epoch is the reference; rank 1's clock started 1000 ns
        // later, so its local times are 1000 smaller: offset +1000
        let r0 = vec![
            ev(0, SpanKind::Op, Phase::A, "a", 2_000, 2_500),
            ev(0, SpanKind::Op, Phase::C, "c", 3_000, 3_400),
        ];
        let r1 = vec![ev(1, SpanKind::Op, Phase::A, "a", 1_500, 1_900)];
        let merged = merge_events(&[(0, r0), (1_000, r1)]);
        assert_eq!(merged.len(), 3);
        // rank 1's event lands at reference 2500..2900; origin rebased to
        // the earliest aligned time (2000) -> 500..900
        assert_eq!(merged[0].rank, 0);
        assert_eq!(merged[0].t0_ns, 0);
        assert_eq!(merged[1].rank, 1);
        assert_eq!(merged[1].t0_ns, 500);
        assert_eq!(merged[1].t1_ns, 900);
        assert!(merged.windows(2).all(|w| w[0].t0_ns <= w[1].t0_ns));
        assert!(merge_events(&[]).is_empty());
    }

    #[test]
    fn merge_clamps_pre_origin_events() {
        // an event that aligns before the rebased origin clamps to 0
        // rather than wrapping around u64
        let r0 = vec![ev(0, SpanKind::Op, Phase::A, "a", 5_000, 6_000)];
        let r1 = vec![ev(1, SpanKind::Op, Phase::A, "a", 100, 140)];
        let merged = merge_events(&[(0, r0), (-1_000_000, r1)]);
        assert_eq!(merged[0].rank, 1);
        assert_eq!(merged[0].t0_ns, 0);
        assert!(merged[1].t0_ns > 0);
    }
}
