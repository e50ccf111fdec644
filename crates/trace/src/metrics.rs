//! Per-layer latency histograms — offline from a parsed trace, or live
//! through a [`MetricsSink`] — plus a Prometheus-style text exposition.
//!
//! ## The histogram
//!
//! [`Histogram`] is log-bucketed: 4 sub-buckets per power-of-two octave
//! (values 0–3 get exact buckets), 252 buckets total covering all of
//! `u64`.  A bucket's width is at most a quarter of its lower bound, so
//! any reported quantile is within 25% of the true value — and recording
//! is two shifts, a mask, and an increment, with no allocation after the
//! first record (see DESIGN decision 11).  Quantiles use integer rank
//! arithmetic and report the bucket's lower bound, so the same samples
//! always render the same digits: `stats --latency` output is
//! byte-reproducible.
//!
//! ## What is measured
//!
//! **Layer dwell**: a `layer-down`/`layer-up`/`layer-timer` record opens an
//! interval for its endpoint that the *next* record of the same dispatch
//! closes — the time the item spent inside that layer's handler plus the
//! queue hop to the next crossing.  Records that *start* a new dispatch
//! (`frame-deliver`, `timer-fire`, `app-down`, and every fault kind)
//! discard the open interval instead: the gap to them is idle time between
//! dispatches, not dwell, and must not pollute the histograms.
//!
//! **Timer latency**: `timer-arm` → `timer-fire` pairs, keyed by
//! `(endpoint, layer index, token)`; the arm records only the layer's
//! *index*, so the latency is attributed to a layer *name* by the
//! `layer-timer` crossing that follows the fire.

use crate::TraceRecord;
use horus_core::lock;
use horus_core::trace::{ClockEntry, TraceEvent, TraceKind, TraceSink};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of buckets: 4 exact small-value buckets plus 4 sub-buckets for
/// each of the 62 octaves `[2^o, 2^(o+1))`, `o = 2..=63`.
pub const BUCKETS: usize = 252;

/// A log-bucketed histogram of `u64` samples (nanoseconds, in this crate's
/// use) with ≤ 25% relative quantile error.  See the module docs and
/// DESIGN decision 11 for the bucket scheme.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Lazily sized to [`BUCKETS`] on first record, so an empty histogram
    /// is allocation-free.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index of `v`.
    fn bucket(v: u64) -> usize {
        if v < 4 {
            v as usize
        } else {
            let octave = 63 - v.leading_zeros() as u64;
            (4 * (octave - 1) + ((v >> (octave - 2)) & 3)) as usize
        }
    }

    /// The smallest value that lands in bucket `i` — what quantiles report.
    fn bucket_floor(i: usize) -> u64 {
        if i < 4 {
            i as u64
        } else {
            let octave = (i / 4 + 1) as u32;
            (1u64 << octave) + (i % 4) as u64 * (1u64 << (octave - 2))
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Adds `other`'s samples into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `num/den` quantile as the lower bound of the bucket holding the
    /// rank-`⌈count·num/den⌉` sample, clamped to [`max`](Self::max) — pure
    /// integer arithmetic, so the answer is deterministic down to the
    /// digit.  Returns 0 when empty.
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target =
            ((u128::from(self.count) * u128::from(num)).div_ceil(u128::from(den.max(1)))).max(1);
        let mut seen = 0u128;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u128::from(c);
            if seen >= target {
                return Self::bucket_floor(i).min(self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// The dwell/timer state machine
// ---------------------------------------------------------------------------

/// The one classifier behind both the offline [`latency_stats`] pass and
/// the live [`MetricsSink`]: feed it every record with
/// [`observe`](Self::observe) and collect the histograms at the end.  Layer
/// names are the records' own `&'static str`s, so the live hot path never
/// allocates.
#[derive(Debug, Clone, Default)]
struct LatencyTracker {
    /// Per endpoint: the open dwell interval (layer, opened-at).
    pending: BTreeMap<u64, (&'static str, u64)>,
    /// Armed timers by `(ep, layer index, token)` → armed-at.
    armed: BTreeMap<(u64, usize, u64), u64>,
    /// Per endpoint: a fire latency awaiting its naming `layer-timer`.
    fired: BTreeMap<u64, u64>,
    dwell: BTreeMap<(u64, &'static str), Histogram>,
    timer: BTreeMap<(u64, &'static str), Histogram>,
}

impl LatencyTracker {
    /// Classifies one record (see the module docs for the interval
    /// semantics).
    fn observe(&mut self, at: u64, ep: u64, kind: &TraceKind) {
        match *kind {
            TraceKind::LayerDown { layer } | TraceKind::LayerUp { layer } => {
                self.crossing(ep, at, layer);
            }
            TraceKind::LayerTimer { layer, .. } => {
                if let Some(lat) = self.fired.remove(&ep) {
                    self.timer.entry((ep, layer)).or_default().record(lat);
                }
                self.crossing(ep, at, layer);
            }
            TraceKind::TimerArm { layer, token, .. } => {
                self.close(ep, at);
                // Bound the table: timers cancelled without firing would
                // otherwise accumulate over a long soak.
                if self.armed.len() >= 8192 {
                    self.armed.pop_first();
                }
                self.armed.insert((ep, layer, token), at);
            }
            TraceKind::TimerFire { layer, token, .. } => {
                self.entry(ep);
                if let Some(armed_at) = self.armed.remove(&(ep, layer, token)) {
                    self.fired.insert(ep, at.saturating_sub(armed_at));
                }
            }
            // Same-dispatch continuations: close the open interval.
            TraceKind::FrameSend { .. }
            | TraceKind::Deliver { .. }
            | TraceKind::ViewInstall { .. }
            | TraceKind::Note(_) => self.close(ep, at),
            // Everything else starts a new dispatch (frame-deliver,
            // app-down, crash/suspect/inject-*, partition/heal/fault,
            // frame-drop).
            _ => self.entry(ep),
        }
    }

    /// Closes the open dwell interval, attributing the gap to its layer.
    fn close(&mut self, ep: u64, at: u64) {
        if let Some((layer, opened)) = self.pending.remove(&ep) {
            self.dwell.entry((ep, layer)).or_default().record(at.saturating_sub(opened));
        }
    }

    /// A layer crossing: closes the previous interval and opens a new one.
    fn crossing(&mut self, ep: u64, at: u64, layer: &'static str) {
        self.close(ep, at);
        self.pending.insert(ep, (layer, at));
    }

    /// A record that starts a new dispatch: the gap to it is idle time —
    /// discard the open interval (and any stale unresolved fire).
    fn entry(&mut self, ep: u64) {
        self.pending.remove(&ep);
        self.fired.remove(&ep);
    }

    fn finish(self) -> LatencyStats {
        let named = |map: BTreeMap<(u64, &str), Histogram>| {
            map.into_iter().map(|((ep, layer), h)| ((ep, layer.to_string()), h)).collect()
        };
        LatencyStats { dwell: named(self.dwell), timer: named(self.timer) }
    }
}

/// Per-`(endpoint, layer)` latency histograms extracted from a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Layer dwell time (ns), keyed by `(endpoint, layer name)`.
    pub dwell: BTreeMap<(u64, String), Histogram>,
    /// Timer arm→fire latency (ns), keyed by `(endpoint, layer name)`.
    pub timer: BTreeMap<(u64, String), Histogram>,
}

impl LatencyStats {
    /// Whether nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.dwell.is_empty() && self.timer.is_empty()
    }

    /// Adds `other`'s histograms into `self`.
    pub fn merge_from(&mut self, other: &LatencyStats) {
        for (map, omap) in [(&mut self.dwell, &other.dwell), (&mut self.timer, &other.timer)] {
            for (k, h) in omap {
                map.entry(k.clone()).or_default().merge(h);
            }
        }
    }

    /// Collapses a per-`(endpoint, layer)` map across endpoints.
    pub fn aggregate(map: &BTreeMap<(u64, String), Histogram>) -> BTreeMap<String, Histogram> {
        let mut out: BTreeMap<String, Histogram> = BTreeMap::new();
        for ((_, layer), h) in map {
            out.entry(layer.clone()).or_default().merge(h);
        }
        out
    }
}

/// The offline pass: per-layer dwell and timer-latency histograms from a
/// trace's records (see the module docs for the interval semantics).
pub fn latency_stats(records: &[TraceRecord]) -> LatencyStats {
    let mut t = LatencyTracker::default();
    for r in records {
        t.observe(r.at.as_nanos(), r.ep.raw(), &r.kind);
    }
    t.finish()
}

// ---------------------------------------------------------------------------
// MetricsSink: the live collector
// ---------------------------------------------------------------------------

const METRIC_SHARDS: usize = 16;

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    /// Each recording thread gets a stable shard slot on first use.
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
}

#[derive(Default, Clone)]
struct MetricsShard {
    tracker: LatencyTracker,
    kinds: BTreeMap<&'static str, u64>,
    records: u64,
}

/// A sink that maintains the [`latency_stats`] histograms *live* instead
/// of collecting records: nothing to drain, nothing to parse, constant
/// memory over an arbitrarily long run.
///
/// Sixteen shards, each locked only by the threads whose thread-local slot
/// hashes to it — one executor thread per shard in practice, so the lock
/// is uncontended and the hot path is an acquire/release pair plus a
/// histogram increment, with no allocation (layer names are `&'static`).
/// [`snapshot`](MetricsSink::snapshot) merges the shards.
///
/// Interval semantics are per-endpoint, so the numbers are exact whenever
/// each endpoint's records arrive in order — true on every executor (an
/// endpooint's dispatches are serialized) as long as one endpoint's events
/// are not split across sinks.
pub struct MetricsSink {
    shards: Box<[Mutex<MetricsShard>]>,
}

impl Default for MetricsSink {
    fn default() -> Self {
        MetricsSink::new()
    }
}

impl fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsSink").field("shards", &self.shards.len()).finish()
    }
}

impl MetricsSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MetricsSink { shards: (0..METRIC_SHARDS).map(|_| Mutex::default()).collect() }
    }

    /// Merged view of everything recorded so far: the latency histograms,
    /// per-kind record counts, and the total record count.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut latency = LatencyStats::default();
        let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
        let mut records = 0;
        for shard in &self.shards {
            let shard = lock(shard).clone();
            latency.merge_from(&shard.tracker.finish());
            for (k, c) in shard.kinds {
                *kinds.entry(k.to_string()).or_insert(0) += c;
            }
            records += shard.records;
        }
        MetricsSnapshot { latency, kinds, records }
    }
}

/// What [`MetricsSink::snapshot`] returns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The live-maintained latency histograms.
    pub latency: LatencyStats,
    /// Record counts by kind name.
    pub kinds: BTreeMap<String, u64>,
    /// Total records seen.
    pub records: u64,
}

impl TraceSink for MetricsSink {
    fn record(&self, ev: TraceEvent) {
        let slot = SLOT.with(|s| *s);
        let mut shard = lock(&self.shards[slot % METRIC_SHARDS]);
        shard.tracker.observe(ev.at.as_nanos(), ev.ep.raw(), &ev.kind);
        *shard.kinds.entry(ev.kind.name()).or_insert(0) += 1;
        shard.records += 1;
    }

    fn set_clock(&self, _clock: &[ClockEntry]) {}
}

// ---------------------------------------------------------------------------
// Prometheus-style text exposition
// ---------------------------------------------------------------------------

fn put_summary(
    out: &mut String,
    family: &str,
    help: &str,
    map: &BTreeMap<(u64, String), Histogram>,
) {
    if map.is_empty() {
        return;
    }
    let _ = writeln!(out, "# HELP {family} {help}");
    let _ = writeln!(out, "# TYPE {family} summary");
    let rows: Vec<(String, &Histogram)> =
        map.iter().map(|((ep, layer), h)| (format!("ep=\"{ep}\",layer=\"{layer}\""), h)).collect();
    let agg = LatencyStats::aggregate(map);
    let agg_rows: Vec<(String, &Histogram)> =
        agg.iter().map(|(layer, h)| (format!("ep=\"all\",layer=\"{layer}\""), h)).collect();
    for (labels, h) in rows.iter().chain(&agg_rows) {
        for (name, num) in [("0.5", 50), ("0.9", 90), ("0.99", 99)] {
            let _ =
                writeln!(out, "{family}{{{labels},quantile=\"{name}\"}} {}", h.quantile(num, 100));
        }
        let _ = writeln!(out, "{family}_count{{{labels}}} {}", h.count());
        let _ = writeln!(out, "{family}_sum{{{labels}}} {}", h.sum());
        let _ = writeln!(out, "{family}_max{{{labels}}} {}", h.max());
    }
}

/// Renders latency histograms and per-kind counts as a Prometheus text
/// exposition (`horus-trace export --prometheus`).
pub fn prometheus_text(latency: &LatencyStats, kinds: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    put_summary(
        &mut out,
        "horus_layer_dwell_ns",
        "Time from a layer crossing to the next record of the same dispatch.",
        &latency.dwell,
    );
    put_summary(
        &mut out,
        "horus_timer_latency_ns",
        "Timer arm-to-fire latency, attributed to the owning layer.",
        &latency.timer,
    );
    if !kinds.is_empty() {
        let _ = writeln!(out, "# HELP horus_trace_records_total Trace records by kind.");
        let _ = writeln!(out, "# TYPE horus_trace_records_total counter");
        for (kind, count) in kinds {
            let _ = writeln!(out, "horus_trace_records_total{{kind=\"{kind}\"}} {count}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use horus_core::addr::EndpointAddr;
    use horus_core::time::SimTime;

    #[test]
    fn buckets_partition_u64() {
        // Floors are strictly increasing and each value's bucket floor is
        // at most the value, with width ≤ floor/4.
        let mut prev = None;
        for i in 0..BUCKETS {
            let f = Histogram::bucket_floor(i);
            assert_eq!(Histogram::bucket(f), i, "floor of bucket {i} maps back");
            if let Some(p) = prev {
                assert!(f > p);
            }
            prev = Some(f);
        }
        for v in [0, 1, 3, 4, 5, 7, 8, 1000, u64::MAX / 3, u64::MAX] {
            let b = Histogram::bucket(v);
            let f = Histogram::bucket_floor(b);
            assert!(f <= v, "floor {f} > value {v}");
            assert!(v - f <= (f / 4).max(1), "bucket too wide at {v}");
        }
        assert_eq!(Histogram::bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_lower_bounds_within_25_percent() {
        let mut h = Histogram::new();
        let vals: Vec<u64> = (0..1000u64).map(|i| i * i % 7919 + i).collect();
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for &v in &vals {
            h.record(v);
        }
        for (num, den) in [(50, 100), (90, 100), (99, 100), (1, 1)] {
            let rank = ((sorted.len() as u64 * num).div_ceil(den)).max(1) as usize - 1;
            let exact = sorted[rank];
            let approx = h.quantile(num, den);
            assert!(approx <= exact, "q{num}/{den}: {approx} > exact {exact}");
            assert!(exact <= approx + (approx / 4).max(1), "q{num}/{den} off by >25%");
        }
        assert!(h.quantile(1, 1) <= h.max());
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..500u64 {
            let v = i * 37 % 1013;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        // Merging into an empty histogram works too.
        let mut e = Histogram::new();
        e.merge(&all);
        assert_eq!(e, all);
    }

    fn ev(at: u64, ep: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent { at: SimTime::from_nanos(at), ep: EndpointAddr::new(ep), kind }
    }

    #[test]
    fn metrics_sink_tracks_dwell_and_timer_latency() {
        let sink = MetricsSink::new();
        // One dispatch: deliver a frame, cross two layers, send.
        sink.record(ev(
            100,
            1,
            TraceKind::FrameDeliver {
                from: EndpointAddr::new(2),
                cast: true,
                bytes: 8,
                digest: 0,
                seq: 0,
            },
        ));
        sink.record(ev(110, 1, TraceKind::LayerUp { layer: "COM" }));
        sink.record(ev(150, 1, TraceKind::LayerUp { layer: "NAK" }));
        sink.record(ev(170, 1, TraceKind::FrameSend { cast: true, bytes: 8 }));
        // Idle gap, then a timer: armed at 200 (in a fresh dispatch),
        // fires at 1200, crossing names the layer.
        sink.record(ev(200, 1, TraceKind::TimerArm { layer: 0, token: 7, delay_us: 1 }));
        sink.record(ev(1200, 1, TraceKind::TimerFire { layer: 0, token: 7, digest: 0, seq: 0 }));
        sink.record(ev(1210, 1, TraceKind::LayerTimer { layer: "NAK", token: 7 }));
        sink.record(ev(1215, 1, TraceKind::FrameSend { cast: true, bytes: 8 }));
        let snap = sink.snapshot();
        assert_eq!(snap.records, 8);
        let com = &snap.latency.dwell[&(1, "COM".to_string())];
        assert_eq!((com.count(), com.max()), (1, 40));
        // NAK dwell: 170-150 = 20 (first dispatch) and 1215-1210 = 5; the
        // idle gap 170→200 and 200→1200 never land in a histogram.
        let nak = &snap.latency.dwell[&(1, "NAK".to_string())];
        assert_eq!((nak.count(), nak.max()), (2, 20));
        let timer = &snap.latency.timer[&(1, "NAK".to_string())];
        assert_eq!((timer.count(), timer.max()), (1, 1000));
    }

    #[test]
    fn prometheus_exposition_is_well_shaped() {
        let sink = MetricsSink::new();
        sink.record(ev(10, 1, TraceKind::LayerDown { layer: "COM" }));
        sink.record(ev(35, 1, TraceKind::FrameSend { cast: true, bytes: 4 }));
        let snap = sink.snapshot();
        let text = prometheus_text(&snap.latency, &snap.kinds);
        assert!(text.contains("# TYPE horus_layer_dwell_ns summary"));
        assert!(text.contains("horus_layer_dwell_ns{ep=\"1\",layer=\"COM\",quantile=\"0.5\"} 24"));
        assert!(text.contains("horus_layer_dwell_ns_count{ep=\"all\",layer=\"COM\"} 1"));
        assert!(text.contains("horus_trace_records_total{kind=\"frame-send\"} 1"));
    }
}
