//! # horus-trace
//!
//! Collectors, file format, and inspection tooling for the structured trace
//! events the whole Horus runtime emits through
//! [`horus_core::trace::TraceSink`] (see DESIGN decision 10):
//!
//! * [`TraceBuf`] — the collector: an ordered log behind a mutex, stamped
//!   with the vector clock `SimWorld` announces for every dispatch under
//!   virtual time, clock-less when the shard executor's workers record
//!   into it;
//! * the binary **trace file format** (`# horus-trace v2`, module [`v2`])
//!   with [`serialize_trace_v2`] / [`parse_trace_v2`] — the only encoding
//!   written or read; [`serialize_parsed`] renders a parsed trace as text
//!   for people (`horus-trace dump`, `diff`), and nothing parses that text;
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
use std::sync::Mutex;

pub mod metrics;
pub mod v2;

pub use metrics::{latency_stats, Histogram, LatencyStats, MetricsSink};
pub use v2::{parse_trace_v2, serialize_trace_v2, TRACE_HEADER_V2};

/// Meta key: records a collector dropped because its ring overflowed —
/// nonzero means the trace has holes and `horus-trace stats` warns.
pub const META_DROPPED: &str = "dropped_records";

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
// The record view and its text rendering
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

/// The kind-specific `key=value` fields of one record, in a stable order.
fn kind_fields(kind: &TraceKind) -> Vec<(&'static str, String)> {
    match kind {
        TraceKind::LayerDown { layer } | TraceKind::LayerUp { layer } => {
            vec![("layer", (*layer).to_string())]
        }
        TraceKind::LayerTimer { layer, token } => {
            vec![("layer", (*layer).to_string()), ("token", token.to_string())]
        }
        TraceKind::FrameSend { cast, bytes } => {
            vec![("cast", (*cast as u8).to_string()), ("bytes", bytes.to_string())]
        }
        TraceKind::FrameDeliver { from, cast, bytes, digest, seq } => vec![
            ("from", from.raw().to_string()),
            ("cast", (*cast as u8).to_string()),
            ("bytes", bytes.to_string()),
            ("digest", digest.to_string()),
            ("seq", seq.to_string()),
        ],
        TraceKind::FrameDrop { digest, seq, reason } => vec![
            ("digest", digest.to_string()),
            ("seq", seq.to_string()),
            ("reason", reason.name().to_string()),
        ],
        TraceKind::TimerArm { layer, token, delay_us } => vec![
            ("layer", layer.to_string()),
            ("token", token.to_string()),
            ("delay_us", delay_us.to_string()),
        ],
        TraceKind::TimerFire { layer, token, digest, seq } => vec![
            ("layer", layer.to_string()),
            ("token", token.to_string()),
            ("digest", digest.to_string()),
            ("seq", seq.to_string()),
        ],
        TraceKind::AppDown { kind, digest, seq } => vec![
            ("kind", (*kind).to_string()),
            ("digest", digest.to_string()),
            ("seq", seq.to_string()),
        ],
        TraceKind::Deliver { kind, src, digest } => vec![
            ("kind", (*kind).to_string()),
            ("src", src.to_string()),
            ("digest", digest.to_string()),
        ],
        TraceKind::ViewInstall { view } => vec![("view", escape(view))],
        TraceKind::Crash { digest, seq }
        | TraceKind::Partition { digest, seq }
        | TraceKind::Heal { digest, seq }
        | TraceKind::Fault { digest, seq } => {
            vec![("digest", digest.to_string()), ("seq", seq.to_string())]
        }
        TraceKind::Suspect { target, digest, seq } => vec![
            ("target", target.raw().to_string()),
            ("digest", digest.to_string()),
            ("seq", seq.to_string()),
        ],
        TraceKind::InjectCrash => vec![],
        TraceKind::InjectSuspect { observer, target } => {
            vec![("observer", observer.raw().to_string()), ("target", target.raw().to_string())]
        }
        TraceKind::Note(text) => vec![("text", escape(text))],
    }
}

/// One parsed record: the generic `key=value` view every consumer (CLI,
/// bridge, tests) works from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRecord {
    /// Event time in nanoseconds.
    pub at_ns: u64,
    /// Raw endpoint address (`0` = world-global).
    pub ep: u64,
    /// Vector clock, empty when the recording executor keeps none.
    pub clock: Vec<(u64, u64)>,
    /// The kind name (`frame-deliver`, `timer-fire`, ...).
    pub kind: String,
    /// Kind-specific fields, still escaped.
    pub fields: BTreeMap<String, String>,
}

impl ParsedRecord {
    /// A numeric field.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.fields.get(key).and_then(|v| v.parse().ok())
    }

    /// A free-text field, unescaped.
    pub fn text_field(&self, key: &str) -> Option<String> {
        self.fields.get(key).map(|v| unescape(v))
    }
}

/// A parsed trace file: metadata plus records in file order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedTrace {
    /// The `meta key: value` lines.
    pub meta: BTreeMap<String, String>,
    /// The records.
    pub records: Vec<ParsedRecord>,
}

/// The parsed (`key=value`) view of one collected record — the same view
/// [`serialize_trace_v2`] + [`parse_trace_v2`] produce, without the trip
/// through bytes (the encoder serializes from this view, which is what
/// makes that round trip lossless by construction).
pub fn parsed_from_record(rec: &TraceRecord) -> ParsedRecord {
    ParsedRecord {
        at_ns: rec.at.as_nanos(),
        ep: rec.ep.raw(),
        clock: rec.clock.clone(),
        kind: rec.kind.name().to_string(),
        fields: kind_fields(&rec.kind).into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    }
}

/// Renders one parsed record as a line of text (no trailing newline):
/// `t=<ns> ep=<raw> vc=<actor:count,...|-> <kind> key=value ...`, free-text
/// values still escaped.
///
/// Fields come out in the canonical per-kind order when the kind is in the
/// vocabulary (sorted otherwise), so equal records render to equal bytes.
pub fn parsed_line(rec: &ParsedRecord) -> String {
    let vc = if rec.clock.is_empty() {
        "-".to_string()
    } else {
        rec.clock.iter().map(|(r, c)| format!("{r}:{c}")).collect::<Vec<_>>().join(",")
    };
    let mut line = format!("t={} ep={} vc={} {}", rec.at_ns, rec.ep, vc, rec.kind);
    let canonical: Vec<&str> = match v2::schema_keys(&rec.kind) {
        Some(keys)
            if keys.len() == rec.fields.len()
                && keys.iter().all(|k| rec.fields.contains_key(*k)) =>
        {
            keys
        }
        _ => rec.fields.keys().map(String::as_str).collect(),
    };
    for k in canonical {
        line.push(' ');
        line.push_str(k);
        line.push('=');
        line.push_str(&rec.fields[k]);
    }
    line
}

/// Renders a parsed trace as text: `meta key: value` lines in key order,
/// then one [`parsed_line`] per record.  For people and for `diff`ing —
/// there is no parser for it.
pub fn serialize_parsed(trace: &ParsedTrace) -> String {
    let mut out = String::new();
    for (k, v) in &trace.meta {
        out.push_str(&format!("meta {k}: {v}\n"));
    }
    for rec in &trace.records {
        out.push_str(&parsed_line(rec));
        out.push('\n');
    }
    out
}

/// Where two record streams first differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the first record present in one stream but not equal in
    /// (or absent from) the other.
    pub index: usize,
    /// Kind at `index` on the left (`None` = left ended first).
    pub left: Option<String>,
    /// Kind at `index` on the right (`None` = right ended first).
    pub right: Option<String>,
}

/// The first index at which two record streams diverge, with the kinds on
/// each side — `None` when they are identical.  This is record-level
/// (timestamps included), so it is strictly stricter than the delivery
/// projection `diff` judges by; the CLI prints it as the debugging pointer
/// when traces disagree.
pub fn first_divergence(a: &[ParsedRecord], b: &[ParsedRecord]) -> Option<Divergence> {
    let index = a.iter().zip(b).position(|(ra, rb)| ra != rb).unwrap_or(a.len().min(b.len()));
    if index == a.len() && index == b.len() {
        return None;
    }
    Some(Divergence {
        index,
        left: a.get(index).map(|r| r.kind.clone()),
        right: b.get(index).map(|r| r.kind.clone()),
    })
}

// ---------------------------------------------------------------------------
// Chrome-trace export
// ---------------------------------------------------------------------------

/// Renders records as a Chrome `about:tracing` / Perfetto JSON document:
/// one instant event per record (`ts` in microseconds, `tid` = endpoint),
/// with the kind-specific fields as `args`.
pub fn chrome_trace(records: &[ParsedRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let us = r.at_ns as f64 / 1000.0;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{us},\"pid\":1,\"tid\":{},\"s\":\"t\",\"args\":{{",
            r.kind, r.ep
        ));
        for (j, (k, v)) in r.fields.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{k}\":\"{}\"",
                unescape(v).replace('\\', "\\\\").replace('"', "\\\"")
            ));
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
pub fn delivery_projection(records: &[ParsedRecord]) -> BTreeMap<(u64, u64), Vec<u64>> {
    let mut out: BTreeMap<(u64, u64), Vec<u64>> = BTreeMap::new();
    for r in records {
        if r.kind != "deliver" {
            continue;
        }
        if r.fields.get("kind").map(String::as_str) != Some("CAST") {
            continue;
        }
        let (Some(src), Some(digest)) = (r.u64_field("src"), r.u64_field("digest")) else {
            continue;
        };
        out.entry((r.ep, src)).or_default().push(digest);
    }
    out
}

/// Per-kind record counts (the cheap summary `stats` and `diff` lean on).
pub fn kind_counts(records: &[ParsedRecord]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for r in records {
        *out.entry(r.kind.clone()).or_insert(0) += 1;
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
    fn record_view_and_its_rendering() {
        let records = [
            rec(
                1000,
                2,
                TraceKind::FrameDeliver {
                    from: EndpointAddr::new(1),
                    cast: true,
                    bytes: 64,
                    digest: 0xdead,
                    seq: 17,
                },
            ),
            rec(2000, 2, TraceKind::ViewInstall { view: "g:1[v2@ep:1 ep:1 ep:2]".into() }),
            rec(3000, 2, TraceKind::Note("hello world\n100%".into())),
        ];
        let parsed = ParsedTrace {
            meta: [("scenario".to_string(), "wedge".to_string())].into(),
            records: records.iter().map(parsed_from_record).collect(),
        };
        let d = &parsed.records[0];
        assert_eq!(d.kind, "frame-deliver");
        assert_eq!(d.at_ns, 1000);
        assert_eq!(d.ep, 2);
        assert_eq!(d.clock, vec![(1, 2), (2, 1)]);
        assert_eq!(d.u64_field("from"), Some(1));
        assert_eq!(d.u64_field("digest"), Some(0xdead));
        assert_eq!(d.u64_field("seq"), Some(17));
        assert_eq!(parsed.records[1].text_field("view").unwrap(), "g:1[v2@ep:1 ep:1 ep:2]");
        assert_eq!(parsed.records[2].text_field("text").unwrap(), "hello world\n100%");
        // The rendering: one line per record, free text escaped in place.
        assert_eq!(
            serialize_parsed(&parsed),
            "meta scenario: wedge\n\
             t=1000 ep=2 vc=1:2,2:1 frame-deliver from=1 cast=1 bytes=64 digest=57005 seq=17\n\
             t=2000 ep=2 vc=1:2,2:1 view-install view=g:1[v2@ep:1%20ep:1%20ep:2]\n\
             t=3000 ep=2 vc=1:2,2:1 note text=hello%20world%0A100%25\n"
        );
    }

    #[test]
    fn projection_groups_casts_per_sender() {
        let records = [
            rec(1, 2, TraceKind::Deliver { kind: "CAST", src: 1, digest: 11 }),
            rec(2, 2, TraceKind::Deliver { kind: "CAST", src: 3, digest: 31 }),
            rec(3, 2, TraceKind::Deliver { kind: "CAST", src: 1, digest: 12 }),
            rec(4, 2, TraceKind::Deliver { kind: "VIEW", src: 0, digest: 0 }),
        ];
        let proj = delivery_projection(&records.map(|r| parsed_from_record(&r)));
        assert_eq!(proj[&(2, 1)], vec![11, 12]);
        assert_eq!(proj[&(2, 3)], vec![31]);
        assert!(!proj.contains_key(&(2, 0)));
    }

    #[test]
    fn chrome_export_is_valid_shaped_json() {
        let record = rec(1500, 1, TraceKind::FrameSend { cast: true, bytes: 9 });
        let json = chrome_trace(&[parsed_from_record(&record)]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"frame-send\""));
        assert!(json.contains("\"ts\":1.5"));
        assert!(json.contains("\"tid\":1"));
    }
}
