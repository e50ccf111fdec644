//! # horus-trace
//!
//! Collectors, file format, and inspection tooling for the structured trace
//! events the whole Horus runtime emits through
//! [`horus_core::trace::TraceSink`] (see DESIGN decisions 10 and 25):
//!
//! * [`TraceBuf`] — the collector: an ordered log behind a mutex, stamped
//!   with the vector clock `SimWorld` announces for every dispatch under
//!   virtual time, clock-less when the shard executor's workers record
//!   into it;
//! * [`TraceRecord`] — the one record type, from the hook through the file
//!   to every reader: [`parse_trace_v2`] returns the records
//!   [`serialize_trace_v2`] was given, typed;
//! * the binary **trace file format** (`# horus-trace v2`, module [`v2`])
//!   — the only encoding written or read; [`trace_text`] renders a trace as
//!   text for people (`horus-trace dump`, `diff`), and nothing parses that
//!   text;
//! * [`chrome_trace`] — Chrome `about:tracing` / Perfetto JSON export;
//! * [`delivery_projection`] — the executor-independent canonical view of a
//!   trace (per `(receiver, sender)` CAST digest sequences) used by the
//!   cross-executor determinism tests and `horus-trace diff`.
//!
//! The trace→schedule bridge that turns one of these files back into a
//! `horus-check` replay schedule lives in `horus-check` (it needs the
//! scenario registry); this crate stays a pure producer/consumer of traces.

#![forbid(unsafe_code)]

use horus_core::addr::EndpointAddr;
use horus_core::lock;
use horus_core::time::SimTime;
use horus_core::trace::{ClockEntry, TraceEvent, TraceKind, TraceSink};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Mutex;

pub mod metrics;
pub mod v2;

pub use metrics::{latency_stats, Histogram, LatencyStats, MetricsSink};
pub use v2::{parse_trace_v2, serialize_trace_v2, TRACE_HEADER_V2};

/// Meta key: the `N` of a 1-in-N [`SamplingSink`] capture (absent or `1` =
/// complete trace).  The trace→schedule bridge refuses traces with `N > 1`.
///
/// [`SamplingSink`]: horus_core::trace::SamplingSink
pub const META_SAMPLE_EVERY: &str = "sample_every";

/// Meta key: records deliberately discarded by sampling (reported, not
/// warned — the operator asked for the thinning).
pub const META_SAMPLED_OUT: &str = "sampled_out";

/// Meta key: the kind-name list a `FilterSink` capture admitted.
pub const META_KINDS: &str = "kinds";

/// One collected event: a [`TraceEvent`] plus the vector clock it was
/// recorded under (empty when the recording executor keeps no clocks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Event time (virtual or executor-epoch-relative).
    pub at: SimTime,
    /// The endpoint the event concerns (`ep:0` for world-global events).
    pub ep: EndpointAddr,
    /// Vector clock of the causal context, `(endpoint raw, counter)` pairs.
    pub clock: Vec<ClockEntry>,
    /// What happened.
    pub kind: TraceKind,
}

// ---------------------------------------------------------------------------
// TraceBuf: the ordered virtual-time collector
// ---------------------------------------------------------------------------

#[derive(Default)]
struct BufInner {
    events: Vec<TraceRecord>,
    clock: Vec<ClockEntry>,
}

/// An ordered, clock-stamping collector for the virtual-time simulator.
///
/// `SimWorld` calls [`TraceSink::set_clock`] as it enters each dispatch's
/// causal context; every record that follows is stamped with that clock, so
/// the collected log is causally annotated, not just time-ordered.  The
/// real-time executor announces no clocks; its workers record concurrently
/// and the mutex orders them (each worker's own records stay in order).
#[derive(Default)]
pub struct TraceBuf {
    inner: Mutex<BufInner>,
}

impl fmt::Debug for TraceBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceBuf").field("len", &lock(&self.inner).events.len()).finish()
    }
}

impl TraceBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        TraceBuf::default()
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        lock(&self.inner).events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns everything collected so far.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut lock(&self.inner).events)
    }

    /// A copy of everything collected so far.
    pub fn records(&self) -> Vec<TraceRecord> {
        lock(&self.inner).events.clone()
    }
}

impl TraceSink for TraceBuf {
    fn record(&self, ev: TraceEvent) {
        let mut g = lock(&self.inner);
        let clock = g.clock.clone();
        g.events.push(TraceRecord { at: ev.at, ep: ev.ep, clock, kind: ev.kind });
    }

    fn set_clock(&self, clock: &[ClockEntry]) {
        let mut g = lock(&self.inner);
        g.clock.clear();
        g.clock.extend_from_slice(clock);
    }
}

// ---------------------------------------------------------------------------
// The record's fields and its text rendering
// ---------------------------------------------------------------------------

/// Percent-escapes a free-text value so a rendered record stays one line
/// of space-separated `key=value` fields.
///
/// `%` is escaped because it is the escape character and space because it
/// is the field separator; beyond those, *every* whitespace and control
/// character is escaped byte-wise (each UTF-8 byte as `%XX` uppercase hex),
/// so no value can break a line or hide at its end.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut utf8 = [0u8; 4];
    for c in s.chars() {
        if c == '%' || c.is_whitespace() || c.is_control() {
            for b in c.encode_utf8(&mut utf8).as_bytes() {
                out.push_str(&format!("%{b:02X}"));
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Reverses [`escape`]: decodes any `%XX` hex pair at the byte level (a
/// `%` not followed by two hex digits passes through verbatim, matching
/// what `escape` can emit).
pub(crate) fn unescape(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    let hex = |b: u8| (b as char).to_digit(16).map(|d| d as u8);
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let (Some(hi), Some(lo)) = (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                out.push(hi << 4 | lo);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    // Escaping is byte-wise over valid UTF-8 and only ASCII is introduced,
    // so decoding what `escape` produced is valid UTF-8 again; arbitrary
    // hand-written input could still smuggle bad bytes — replace, don't
    // panic.
    String::from_utf8_lossy(&out).into_owned()
}

/// One typed field of a record, as the encoder, the text renderer and the
/// Chrome export see it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Field<'a> {
    /// A number, varint-encoded, rendered in decimal.
    U64(u64),
    /// A content digest: fixed 8-byte little-endian on the wire
    /// (hash-uniform values make varints counterproductive), decimal text.
    Digest(u64),
    /// A name from a fixed vocabulary (layer, upcall/downcall kind, drop
    /// reason), stored and rendered as is.
    Name(&'a str),
    /// Free text (a view, a note), stored and rendered [`escape`]d.
    Text(&'a str),
}

/// Calls `f` with the kind-specific fields of one record, in wire and
/// rendering order — the one per-kind field list of this crate (the
/// decoder's `match` in [`v2`] is its inverse, and the round-trip proptest
/// holds the two together).
pub(crate) fn with_fields<R>(
    kind: &TraceKind,
    f: impl FnOnce(&[(&'static str, Field<'_>)]) -> R,
) -> R {
    use Field::{Digest, Name, Text, U64};
    match kind {
        TraceKind::LayerDown { layer } | TraceKind::LayerUp { layer } => {
            f(&[("layer", Name(layer))])
        }
        TraceKind::LayerTimer { layer, token } => {
            f(&[("layer", Name(layer)), ("token", U64(*token))])
        }
        TraceKind::FrameSend { cast, bytes } => {
            f(&[("cast", U64(u64::from(*cast))), ("bytes", U64(*bytes as u64))])
        }
        TraceKind::FrameDeliver { from, cast, bytes, digest, seq } => f(&[
            ("from", U64(from.raw())),
            ("cast", U64(u64::from(*cast))),
            ("bytes", U64(*bytes as u64)),
            ("digest", Digest(*digest)),
            ("seq", U64(*seq)),
        ]),
        TraceKind::FrameDrop { digest, seq, reason } => {
            f(&[("digest", Digest(*digest)), ("seq", U64(*seq)), ("reason", Name(reason.name()))])
        }
        TraceKind::TimerArm { layer, token, delay_us } => f(&[
            ("layer", U64(*layer as u64)),
            ("token", U64(*token)),
            ("delay_us", U64(*delay_us)),
        ]),
        TraceKind::TimerFire { layer, token, digest, seq } => f(&[
            ("layer", U64(*layer as u64)),
            ("token", U64(*token)),
            ("digest", Digest(*digest)),
            ("seq", U64(*seq)),
        ]),
        TraceKind::AppDown { kind, digest, seq } => {
            f(&[("kind", Name(kind)), ("digest", Digest(*digest)), ("seq", U64(*seq))])
        }
        TraceKind::Deliver { kind, src, digest } => {
            f(&[("kind", Name(kind)), ("src", U64(*src)), ("digest", Digest(*digest))])
        }
        TraceKind::ViewInstall { view } => f(&[("view", Text(view))]),
        TraceKind::Crash { digest, seq }
        | TraceKind::Partition { digest, seq }
        | TraceKind::Heal { digest, seq }
        | TraceKind::Fault { digest, seq } => f(&[("digest", Digest(*digest)), ("seq", U64(*seq))]),
        TraceKind::Suspect { target, digest, seq } => {
            f(&[("target", U64(target.raw())), ("digest", Digest(*digest)), ("seq", U64(*seq))])
        }
        TraceKind::InjectCrash => f(&[]),
        TraceKind::InjectSuspect { observer, target } => {
            f(&[("observer", U64(observer.raw())), ("target", U64(target.raw()))])
        }
        TraceKind::Note(text) => f(&[("text", Text(text))]),
    }
}

/// A parsed trace file: metadata plus records in file order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedTrace {
    /// The `meta key: value` lines.
    pub meta: BTreeMap<String, String>,
    /// The records, exactly as the hook emitted them.
    pub records: Vec<TraceRecord>,
}

/// Renders one record as a line of text (no trailing newline):
/// `t=<ns> ep=<raw> vc=<actor:count,...|-> <kind> key=value ...`, fields in
/// wire order, free text escaped.
pub fn record_line(rec: &TraceRecord) -> String {
    let vc = if rec.clock.is_empty() {
        "-".to_string()
    } else {
        rec.clock.iter().map(|(r, c)| format!("{r}:{c}")).collect::<Vec<_>>().join(",")
    };
    let mut line =
        format!("t={} ep={} vc={} {}", rec.at.as_nanos(), rec.ep.raw(), vc, rec.kind.name());
    with_fields(&rec.kind, |fields| {
        for (key, field) in fields {
            let _ = match field {
                Field::U64(v) | Field::Digest(v) => write!(line, " {key}={v}"),
                Field::Name(s) => write!(line, " {key}={s}"),
                Field::Text(s) => write!(line, " {key}={}", escape(s)),
            };
        }
    });
    line
}

/// Renders a parsed trace as text: `meta key: value` lines in key order,
/// then one [`record_line`] per record.  For people and for `diff`ing —
/// there is no parser for it.
pub fn trace_text(trace: &ParsedTrace) -> String {
    let mut out = String::new();
    for (k, v) in &trace.meta {
        out.push_str(&format!("meta {k}: {v}\n"));
    }
    for rec in &trace.records {
        out.push_str(&record_line(rec));
        out.push('\n');
    }
    out
}

/// The first index at which two record streams differ (one ending before
/// the other counts) — `None` when they are identical.  This is
/// record-level (timestamps included), so it is strictly stricter than the
/// delivery projection `diff` judges by; the CLI prints it as the debugging
/// pointer when traces disagree.
pub fn first_divergence(a: &[TraceRecord], b: &[TraceRecord]) -> Option<usize> {
    let index = a.iter().zip(b).position(|(ra, rb)| ra != rb).unwrap_or(a.len().min(b.len()));
    (index < a.len().max(b.len())).then_some(index)
}

// ---------------------------------------------------------------------------
// Chrome-trace export
// ---------------------------------------------------------------------------

/// Renders records as a Chrome `about:tracing` / Perfetto JSON document:
/// one instant event per record (`ts` in microseconds, `tid` = endpoint),
/// with the kind-specific fields as `args` in key order.
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let us = r.at.as_nanos() as f64 / 1000.0;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{us},\"pid\":1,\"tid\":{},\"s\":\"t\",\"args\":{{",
            r.kind.name(),
            r.ep.raw()
        ));
        let mut args = with_fields(&r.kind, |fields| {
            let value = |field: &Field<'_>| match *field {
                Field::U64(v) | Field::Digest(v) => v.to_string(),
                Field::Name(s) | Field::Text(s) => s.replace('\\', "\\\\").replace('"', "\\\""),
            };
            fields.iter().map(|(key, field)| (*key, value(field))).collect::<Vec<_>>()
        });
        args.sort();
        for (j, (k, v)) in args.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":\"{v}\""));
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

// ---------------------------------------------------------------------------
// Canonical projections
// ---------------------------------------------------------------------------

/// The executor-independent canonical view of a trace: for every
/// `(receiver, sender)` pair, the sequence of CAST content digests the
/// receiver's stack delivered from that sender, in delivery order.
///
/// Per-sender FIFO holds on every executor (the simulated calendar, the
/// loopback channel, and the shard queues all preserve a single sender's
/// order toward a single receiver), while cross-sender interleaving is
/// scheduling noise — so this is exactly the part of a trace that must be
/// equal across executors for the same workload.
pub fn delivery_projection(records: &[TraceRecord]) -> BTreeMap<(u64, u64), Vec<u64>> {
    let mut out: BTreeMap<(u64, u64), Vec<u64>> = BTreeMap::new();
    for r in records {
        if let TraceKind::Deliver { kind: "CAST", src, digest } = r.kind {
            out.entry((r.ep.raw(), src)).or_default().push(digest);
        }
    }
    out
}

/// Per-kind record counts (the cheap summary `stats` and `diff` lean on).
pub fn kind_counts(records: &[TraceRecord]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for r in records {
        *out.entry(r.kind.name().to_string()).or_insert(0) += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ns: u64, ep: u64, kind: TraceKind) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(at_ns),
            ep: EndpointAddr::new(ep),
            clock: vec![(1, 2), (2, 1)],
            kind,
        }
    }

    #[test]
    fn buf_stamps_the_announced_clock() {
        let buf = TraceBuf::new();
        buf.set_clock(&[(7, 3)]);
        buf.record(TraceEvent {
            at: SimTime::from_nanos(5),
            ep: EndpointAddr::new(1),
            kind: TraceKind::InjectCrash,
        });
        let got = buf.take();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].clock, vec![(7, 3)]);
        assert!(buf.is_empty());
    }

    #[test]
    fn projection_groups_casts_per_sender() {
        let records = [
            rec(1, 2, TraceKind::Deliver { kind: "CAST", src: 1, digest: 11 }),
            rec(2, 2, TraceKind::Deliver { kind: "CAST", src: 3, digest: 31 }),
            rec(3, 2, TraceKind::Deliver { kind: "CAST", src: 1, digest: 12 }),
            rec(4, 2, TraceKind::Deliver { kind: "VIEW", src: 0, digest: 0 }),
        ];
        let proj = delivery_projection(&records);
        assert_eq!(proj[&(2, 1)], vec![11, 12]);
        assert_eq!(proj[&(2, 3)], vec![31]);
        assert!(!proj.contains_key(&(2, 0)));
        assert_eq!(kind_counts(&records), [("deliver".to_string(), 4)].into());
    }

    #[test]
    fn chrome_export_is_valid_shaped_json() {
        let json = chrome_trace(&[rec(1500, 1, TraceKind::FrameSend { cast: true, bytes: 9 })]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"frame-send\""));
        assert!(json.contains("\"ts\":1.5"));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"args\":{\"bytes\":\"9\",\"cast\":\"1\"}"));
    }
}
