//! Exporters: Chrome-trace/Perfetto JSON timeline, metrics JSON dump, and
//! the derived aggregates (per-operator wall time, per-rank load
//! imbalance, overlap efficiency).
//!
//! The workspace is dependency-free, so JSON is hand-rolled: a small
//! writer with correct string escaping and a minimal recursive-descent
//! validator ([`validate_json`]) used by the `figures trace` smoke test to
//! prove the emitted files parse.

use crate::metrics::MetricsSnapshot;
use crate::phase::Phase;
use crate::tracer::{Event, SpanKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// JSON writing helpers
// ---------------------------------------------------------------------------

/// Append `s` as a JSON string literal (with escaping) to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Format an `f64` as a JSON number (`null`-free: non-finite clamps to 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

// ---------------------------------------------------------------------------
// Chrome trace format
// ---------------------------------------------------------------------------

/// Render events as a Chrome-trace/Perfetto JSON document.
///
/// Complete (`"ph":"X"`) events with microsecond timestamps; `pid` is the
/// constant 1 (one process), `tid` is the rank, so Perfetto draws one
/// timeline row per rank.  Open the file at <https://ui.perfetto.dev> or
/// `chrome://tracing`.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_str(&mut out, e.name);
        out.push_str(",\"cat\":");
        push_json_str(&mut out, e.kind.label());
        // instants render as zero-length complete events; keep "X" so the
        // validator has a single shape to check
        let _ = write!(
            &mut out,
            ",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{}",
            e.t0_ns / 1_000,
            e.t0_ns % 1_000,
            e.dur_ns() / 1_000,
            e.dur_ns() % 1_000,
            e.rank
        );
        let _ = write!(
            &mut out,
            ",\"args\":{{\"phase\":\"{}\",\"step\":{},\"seq\":{},\"bytes\":{},\"value\":{}}}}}",
            e.phase.label(),
            e.step,
            e.seq,
            e.bytes,
            json_f64(e.value)
        );
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// Derived aggregates
// ---------------------------------------------------------------------------

/// Per-phase load-imbalance figure across ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseImbalance {
    /// Busiest rank's total wall time in this phase (ns).
    pub max_ns: u64,
    /// Mean over ranks (ns).
    pub avg_ns: f64,
    /// `max / avg` (1.0 = perfectly balanced; 0 when the phase is empty).
    pub imbalance: f64,
}

/// Overlap-efficiency summary for one time step (ranks aggregated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOverlap {
    /// Time step.
    pub step: u64,
    /// Total compute deliberately placed inside exchange windows (ns,
    /// summed over ranks).
    pub overlap_compute_ns: u64,
    /// Total time spent waiting on exchange completion (ns, summed over
    /// ranks).
    pub wait_ns: u64,
}

impl StepOverlap {
    /// Fraction of each exchange window covered by useful computation:
    /// `compute / (compute + wait)`.  1.0 means the wait was fully hidden.
    fn efficiency(&self) -> f64 {
        let total = self.overlap_compute_ns + self.wait_ns;
        if total == 0 {
            0.0
        } else {
            self.overlap_compute_ns as f64 / total as f64
        }
    }
}

/// Exact quantiles over a set of span durations (ns), computed by sorting
/// — unlike the log-linear histogram summaries, which carry up to 25%
/// relative bucket error.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DurQuantiles {
    /// Number of spans.
    pub count: u64,
    /// Exact median duration (ns).
    pub p50_ns: u64,
    /// Exact 95th-percentile duration (ns).
    pub p95_ns: u64,
    /// Exact 99th-percentile duration (ns).
    pub p99_ns: u64,
    /// Longest duration (ns).
    pub max_ns: u64,
}

impl DurQuantiles {
    /// Compute from an unsorted duration list (sorts in place).
    fn from_durations(durs: &mut [u64]) -> DurQuantiles {
        if durs.is_empty() {
            return DurQuantiles::default();
        }
        durs.sort_unstable();
        let n = durs.len();
        let at = |q: f64| {
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            durs[idx]
        };
        DurQuantiles {
            count: n as u64,
            p50_ns: at(0.50),
            p95_ns: at(0.95),
            p99_ns: at(0.99),
            max_ns: durs[n - 1],
        }
    }
}

/// Aggregates derived from one drained event stream.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Total operator wall time by phase label (ns, summed over ranks).
    pub op_wall_ns: BTreeMap<&'static str, u64>,
    /// Number of operator spans by phase label.
    pub op_count: BTreeMap<&'static str, u64>,
    /// Load imbalance by phase label.
    pub imbalance: BTreeMap<&'static str, PhaseImbalance>,
    /// Per-step overlap profile, ascending by step.
    pub overlap: Vec<StepOverlap>,
    /// Exact quantiles of individual exchange-wait span durations — the
    /// tail of this distribution is what the overlap scheme must hide.
    pub wait_quantiles: DurQuantiles,
    /// Number of ranks observed.
    pub ranks: usize,
    /// Total events aggregated.
    pub events: usize,
}

impl TraceReport {
    /// Mean overlap efficiency over steps that had any exchange window.
    pub fn mean_overlap_efficiency(&self) -> f64 {
        let active: Vec<f64> = self
            .overlap
            .iter()
            .filter(|s| s.overlap_compute_ns + s.wait_ns > 0)
            .map(|s| s.efficiency())
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }

    /// Build the report from a drained event stream.
    pub fn from_events(events: &[Event]) -> TraceReport {
        let mut rep = TraceReport {
            events: events.len(),
            ..TraceReport::default()
        };
        // phase -> rank -> ns, for imbalance
        let mut per_rank: BTreeMap<&'static str, BTreeMap<usize, u64>> = BTreeMap::new();
        let mut ranks: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        let mut overlap: BTreeMap<u64, StepOverlap> = BTreeMap::new();
        let mut wait_durs: Vec<u64> = Vec::new();
        for e in events {
            ranks.insert(e.rank);
            match e.kind {
                SpanKind::Op => {
                    let label = e.phase.label();
                    *rep.op_wall_ns.entry(label).or_insert(0) += e.dur_ns();
                    *rep.op_count.entry(label).or_insert(0) += 1;
                    *per_rank
                        .entry(label)
                        .or_default()
                        .entry(e.rank)
                        .or_insert(0) += e.dur_ns();
                }
                SpanKind::OverlapCompute => {
                    let s = overlap.entry(e.step).or_insert(StepOverlap {
                        step: e.step,
                        overlap_compute_ns: 0,
                        wait_ns: 0,
                    });
                    s.overlap_compute_ns += e.dur_ns();
                }
                SpanKind::ExchangeWait => {
                    let s = overlap.entry(e.step).or_insert(StepOverlap {
                        step: e.step,
                        overlap_compute_ns: 0,
                        wait_ns: 0,
                    });
                    s.wait_ns += e.dur_ns();
                    wait_durs.push(e.dur_ns());
                }
                _ => {}
            }
        }
        rep.ranks = ranks.len();
        let nranks = rep.ranks.max(1) as f64;
        for (label, by_rank) in &per_rank {
            let max_ns = by_rank.values().copied().max().unwrap_or(0);
            let sum: u64 = by_rank.values().sum();
            // average over *participating* ranks' universe, i.e. all ranks
            // seen in the stream: a rank idle in this phase drags avg down
            let avg_ns = sum as f64 / nranks;
            let imbalance = if avg_ns > 0.0 {
                max_ns as f64 / avg_ns
            } else {
                0.0
            };
            rep.imbalance.insert(
                label,
                PhaseImbalance {
                    max_ns,
                    avg_ns,
                    imbalance,
                },
            );
        }
        rep.overlap = overlap.into_values().collect();
        rep.wait_quantiles = DurQuantiles::from_durations(&mut wait_durs);
        rep
    }
}

/// Render a [`TraceReport`] plus a [`MetricsSnapshot`] as a metrics JSON
/// document shaped like the repo's `BENCH_*.json` dumps.
pub fn metrics_json(label: &str, report: &TraceReport, metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"label\": ");
    push_json_str(&mut out, label);
    let _ = write!(
        &mut out,
        ",\n  \"ranks\": {},\n  \"events\": {},\n",
        report.ranks, report.events
    );

    out.push_str("  \"op_wall_ns\": {");
    for (i, (k, v)) in report.op_wall_ns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_str(&mut out, k);
        let _ = write!(&mut out, ": {v}");
    }
    out.push_str("\n  },\n");

    out.push_str("  \"op_count\": {");
    for (i, (k, v)) in report.op_count.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_str(&mut out, k);
        let _ = write!(&mut out, ": {v}");
    }
    out.push_str("\n  },\n");

    out.push_str("  \"load_imbalance\": {");
    for (i, (k, v)) in report.imbalance.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_str(&mut out, k);
        let _ = write!(
            &mut out,
            ": {{\"max_ns\": {}, \"avg_ns\": {}, \"imbalance\": {}}}",
            v.max_ns,
            json_f64(v.avg_ns),
            json_f64(v.imbalance)
        );
    }
    out.push_str("\n  },\n");

    out.push_str("  \"overlap\": [");
    for (i, s) in report.overlap.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            &mut out,
            "\n    {{\"step\": {}, \"overlap_compute_ns\": {}, \"wait_ns\": {}, \"efficiency\": {}}}",
            s.step,
            s.overlap_compute_ns,
            s.wait_ns,
            json_f64(s.efficiency())
        );
    }
    out.push_str("\n  ],\n");
    let _ = writeln!(
        &mut out,
        "  \"mean_overlap_efficiency\": {},",
        json_f64(report.mean_overlap_efficiency())
    );
    let wq = &report.wait_quantiles;
    let _ = writeln!(
        &mut out,
        "  \"wait_quantiles\": {{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}},",
        wq.count, wq.p50_ns, wq.p95_ns, wq.p99_ns, wq.max_ns
    );

    out.push_str("  \"counters\": {");
    for (i, (k, v)) in metrics.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_str(&mut out, k);
        let _ = write!(&mut out, ": {v}");
    }
    out.push_str("\n  },\n");

    out.push_str("  \"gauges\": {");
    for (i, (k, v)) in metrics.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_str(&mut out, k);
        let _ = write!(&mut out, ": {}", json_f64(*v));
    }
    out.push_str("\n  },\n");

    out.push_str("  \"histograms\": {");
    for (i, (k, v)) in metrics.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_str(&mut out, k);
        let _ = write!(
            &mut out,
            ": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
            v.count,
            v.sum,
            json_f64(v.mean),
            v.p50,
            v.p95,
            v.p99,
            v.max
        );
    }
    out.push_str("\n  }\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON validator
// ---------------------------------------------------------------------------

/// Validate that `src` is a single well-formed JSON value (recursive
/// descent over the RFC 8259 grammar; no value tree is built).
///
/// Returns the error position (byte offset) and message on failure.
pub fn validate_json(src: &str) -> Result<(), String> {
    let b = src.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(())
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected value")),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.i += 1,
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.i += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control char in string")),
                Some(_) => self.i += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(self.err("expected digit"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(self.err("expected fraction digit"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(self.err("expected exponent digit"));
            }
        }
        Ok(())
    }
}

/// Check that a Chrome-trace document is well-formed JSON *and* contains
/// at least `min_per_phase` operator spans for each phase label in
/// `phases` (textual scan — good enough for the smoke test without a DOM).
pub fn validate_chrome_trace(
    src: &str,
    phases: &[Phase],
    min_per_phase: usize,
) -> Result<(), String> {
    validate_json(src)?;
    if !src.contains("\"traceEvents\"") {
        return Err("missing traceEvents key".to_string());
    }
    for p in phases {
        let needle = format!("\"phase\":\"{}\"", p.label());
        let count = src.matches(&needle).count();
        if count < min_per_phase {
            return Err(format!(
                "phase {} has {count} spans, want >= {min_per_phase}",
                p.label()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::SpanKind;

    fn ev(rank: usize, step: u64, kind: SpanKind, phase: Phase, t0: u64, t1: u64) -> Event {
        Event {
            rank,
            step,
            kind,
            phase,
            name: "t",
            t0_ns: t0,
            t1_ns: t1,
            seq: t0,
            bytes: 0,
            value: 0.0,
        }
    }

    #[test]
    fn validator_accepts_valid_rejects_invalid() {
        assert!(validate_json(r#"{"a":[1,2.5,-3e2],"b":"x\n","c":null}"#).is_ok());
        assert!(validate_json("[]").is_ok());
        assert!(validate_json("  true ").is_ok());
        assert!(validate_json(r#"{"a":}"#).is_err());
        assert!(validate_json(r#"{"a":1,}"#).is_err());
        assert!(validate_json("[1,2").is_err());
    }

    #[test]
    fn validator_rejects_trailing() {
        assert!(validate_json("1 2").is_err());
        assert!(validate_json("\"unterminated").is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let evs = vec![
            ev(0, 0, SpanKind::Op, Phase::A, 0, 100),
            ev(1, 0, SpanKind::Collective, Phase::C, 50, 90),
        ];
        let doc = chrome_trace_json(&evs);
        validate_json(&doc).expect("valid");
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"phase\":\"A\""));
        validate_chrome_trace(&doc, &[Phase::A], 1).expect("has A span");
        assert!(validate_chrome_trace(&doc, &[Phase::L], 1).is_err());
    }

    #[test]
    fn report_aggregates_ops_and_overlap() {
        let evs = vec![
            // rank 0: op A 100ns, overlap 80ns, wait 20ns at step 1
            ev(0, 1, SpanKind::Op, Phase::A, 0, 100),
            ev(0, 1, SpanKind::OverlapCompute, Phase::L, 100, 180),
            ev(0, 1, SpanKind::ExchangeWait, Phase::Other, 180, 200),
            // rank 1: op A 300ns, no overlap data
            ev(1, 1, SpanKind::Op, Phase::A, 0, 300),
        ];
        let rep = TraceReport::from_events(&evs);
        assert_eq!(rep.ranks, 2);
        assert_eq!(rep.op_wall_ns["A"], 400);
        assert_eq!(rep.op_count["A"], 2);
        let imb = rep.imbalance["A"];
        assert_eq!(imb.max_ns, 300);
        assert!((imb.avg_ns - 200.0).abs() < 1e-9);
        assert!((imb.imbalance - 1.5).abs() < 1e-9);
        assert_eq!(rep.overlap.len(), 1);
        let s = rep.overlap[0];
        assert_eq!(s.step, 1);
        assert!((s.efficiency() - 0.8).abs() < 1e-9);
        assert!((rep.mean_overlap_efficiency() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn metrics_json_is_valid() {
        let evs = vec![ev(0, 0, SpanKind::Op, Phase::F, 0, 10)];
        let rep = TraceReport::from_events(&evs);
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("x".into(), 3);
        snap.gauges.insert("mass_drift".into(), 1e-12);
        let doc = metrics_json("alg2", &rep, &snap);
        validate_json(&doc).expect("valid metrics json");
        assert!(doc.contains("\"mean_overlap_efficiency\""));
        assert!(doc.contains("\"load_imbalance\""));
    }
}
