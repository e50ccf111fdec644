//! The traced run's instruments, all on the benchmark's side of the API:
//! spans around calls into each layer, a counting allocator, per-thread
//! CPU time from `/proc`, and a trace sink that stamps layer crossings
//! with a real clock.

use horus_core::trace::{TraceEvent, TraceKind, TraceSink};
use horus_trace::{Histogram, TraceBuf};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// The calls a span is recorded around, named `<layer>.<call>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    Workload,
    Setup,
    Warmup,
    Saturation,
    Paced,
    Reference,
    Probe,
    BuildStack,
    AddStack,
    CastBytes,
    TakeUpcalls,
    GenPlan,
    RunSoak,
    ScenarioBuild,
    Explore,
    PropsPlan,
    PropsCheck,
    TraceEncode,
    TraceParse,
    LatencyStats,
}

const SPAN_NAMES: [&str; 20] = [
    "bench.workload",
    "bench.setup",
    "bench.warmup",
    "bench.saturation",
    "bench.paced",
    "bench.untraced_reference",
    "bench.probe",
    "layers.build_stack",
    "sim.shard.add_stack",
    "sim.shard.cast_bytes",
    "sim.shard.take_upcalls",
    "sim.soak.gen_plan",
    "sim.soak.run_soak",
    "check.scenario_build",
    "check.explore",
    "props.plan_minimal_stack",
    "props.derive_stack",
    "trace.serialize_v2",
    "trace.parse_v2",
    "trace.latency_stats",
];

/// Spans kept whole; later ones only feed the per-name totals.
const KEPT_SPANS: usize = 20_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: SpanName,
    start_ns: u64,
    end_ns: u64,
    /// 1-based index of the enclosing kept span, 0 for none.
    parent: u32,
    /// The cast the call served, `u64::MAX` for none.
    cast: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Total {
    count: u64,
    total_ns: u64,
    child_ns: u64,
}

struct Open {
    name: SpanName,
    start_ns: u64,
    kept: u32,
    child_ns: u64,
}

/// Span recorder of the generator thread.  Disabled (the untraced run) it
/// costs one branch per call.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    kept: Vec<Span>,
    dropped: u64,
    totals: [Total; SPAN_NAMES.len()],
    open: Vec<Open>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            kept: Vec::with_capacity(if enabled { KEPT_SPANS } else { 0 }),
            dropped: 0,
            totals: [Total::default(); SPAN_NAMES.len()],
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::exit`].
    pub fn enter(&mut self, name: SpanName, cast: Option<u64>) {
        if !self.enabled {
            return;
        }
        let kept = if self.kept.len() < KEPT_SPANS {
            let parent = self.open.last().map_or(0, |o| o.kept);
            let cast = cast.unwrap_or(u64::MAX);
            self.kept.push(Span { name, start_ns: 0, end_ns: 0, parent, cast });
            self.kept.len() as u32
        } else {
            self.dropped += 1;
            0
        };
        let start_ns = self.now_ns();
        self.open.push(Open { name, start_ns, kept, child_ns: 0 });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let Some(o) = self.open.pop() else { return };
        let dur = end_ns.saturating_sub(o.start_ns);
        let t = &mut self.totals[o.name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.child_ns += o.child_ns;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if o.kept > 0 {
            let s = &mut self.kept[o.kept as usize - 1];
            s.start_ns = o.start_ns;
            s.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: SpanName, cast: Option<u64>, f: impl FnOnce() -> R) -> R {
        self.enter(name, cast);
        let r = f();
        self.exit();
        r
    }

    /// Mean duration of the spans named `name`, in nanoseconds.
    pub fn mean_ns(&self, name: SpanName) -> f64 {
        let t = self.totals[name as usize];
        if t.count == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.count as f64
        }
    }

    /// The spans file: per-name totals (self time = total minus the part
    /// child spans cover) and the first [`KEPT_SPANS`] spans whole.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.kept.len() * 96 + 4096);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"kept\": {}, \"not_kept\": {},\n \"totals\": [",
            self.kept.len(),
            self.dropped
        );
        let mut first = true;
        for (i, t) in self.totals.iter().enumerate().filter(|(_, t)| t.count > 0) {
            let _ = write!(
                out,
                "{}\n  {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                if first { "" } else { "," },
                SPAN_NAMES[i],
                t.count,
                t.total_ns,
                t.total_ns.saturating_sub(t.child_ns)
            );
            first = false;
        }
        out.push_str("],\n \"spans\": [");
        for (i, s) in self.kept.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n  {{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"cast\": {}}}",
                if i == 0 { "" } else { "," },
                i + 1,
                SPAN_NAMES[s.name as usize],
                s.start_ns,
                s.end_ns,
                s.parent,
                if s.cast == u64::MAX { "null".to_string() } else { s.cast.to_string() }
            );
        }
        out.push_str("]}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters that only run while the traced
/// run has switched them on.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off (off at start).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn allocations() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

// ---------------------------------------------------------------------------
// /proc readings
// ---------------------------------------------------------------------------

/// Nanoseconds on a CPU so far, summed over this process's threads whose
/// name starts with `prefix` (`/proc/self/task/*/schedstat`, first field).
pub fn thread_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

// ---------------------------------------------------------------------------
// DwellSink
// ---------------------------------------------------------------------------

/// Trace records forwarded to the capture buffer before it stops growing.
const CAPTURED_RECORDS: u64 = 100_000;

#[derive(Default)]
struct DwellState {
    /// Per endpoint: the layer whose handler is running and since when.
    open: BTreeMap<u64, (&'static str, u64)>,
    dwell: BTreeMap<&'static str, Histogram>,
    kinds: BTreeMap<&'static str, u64>,
    records: u64,
}

/// What a [`DwellSink`] has seen.
#[derive(Debug, Clone, Default)]
pub struct DwellSnapshot {
    /// Wall-clock dwell per layer name, nanoseconds.
    pub dwell: BTreeMap<&'static str, Histogram>,
    /// Records by kind name.
    pub kinds: BTreeMap<&'static str, u64>,
    pub records: u64,
}

impl DwellSnapshot {
    pub fn kind(&self, name: &str) -> u64 {
        self.kinds.get(name).copied().unwrap_or(0)
    }

    /// Nanoseconds spent in all layers' handlers together.
    pub fn total_dwell_ns(&self) -> u64 {
        self.dwell.values().map(Histogram::sum).sum()
    }
}

/// A trace sink with `horus_trace::MetricsSink`'s interval rules — a layer
/// crossing opens an interval that the next record of the same dispatch
/// closes; a record that starts a dispatch discards it — but stamped with
/// this sink's own clock.  `MetricsSink` stamps with the event's `at`,
/// which every executor sets once per dispatch, so its dwell reads 0.
/// The first [`CAPTURED_RECORDS`] records are also kept whole for the
/// trace-format price list.
pub struct DwellSink {
    epoch: Instant,
    state: Mutex<DwellState>,
    capture: TraceBuf,
}

impl std::fmt::Debug for DwellSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DwellSink").finish_non_exhaustive()
    }
}

impl DwellSink {
    pub fn new() -> Self {
        DwellSink {
            epoch: Instant::now(),
            state: Mutex::new(DwellState::default()),
            capture: TraceBuf::new(),
        }
    }

    pub fn snapshot(&self) -> DwellSnapshot {
        let s = self.state.lock().expect("no recorder panicked");
        DwellSnapshot { dwell: s.dwell.clone(), kinds: s.kinds.clone(), records: s.records }
    }

    /// The records kept whole.
    pub fn captured(&self) -> Vec<horus_trace::TraceRecord> {
        self.capture.records()
    }
}

impl TraceSink for DwellSink {
    fn record(&self, ev: TraceEvent) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let ep = ev.ep.raw();
        let keep = {
            let mut s = self.state.lock().expect("no recorder panicked");
            let closed = match &ev.kind {
                TraceKind::LayerDown { layer }
                | TraceKind::LayerUp { layer }
                | TraceKind::LayerTimer { layer, .. } => s.open.insert(ep, (*layer, now)),
                TraceKind::TimerArm { .. }
                | TraceKind::FrameSend { .. }
                | TraceKind::Deliver { .. }
                | TraceKind::ViewInstall { .. }
                | TraceKind::Note(_) => s.open.remove(&ep),
                _ => {
                    s.open.remove(&ep);
                    None
                }
            };
            if let Some((layer, since)) = closed {
                s.dwell.entry(layer).or_default().record(now.saturating_sub(since));
            }
            *s.kinds.entry(ev.kind.name()).or_insert(0) += 1;
            s.records += 1;
            s.records <= CAPTURED_RECORDS
        };
        if keep {
            self.capture.record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horus_core::prelude::*;

    #[test]
    fn span_self_time_excludes_children() {
        let mut s = Spans::new(true);
        s.enter(SpanName::Setup, None);
        s.time(SpanName::BuildStack, None, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.exit();
        let setup = s.totals[SpanName::Setup as usize];
        let build = s.totals[SpanName::BuildStack as usize];
        assert_eq!((setup.count, build.count), (1, 1));
        assert_eq!(setup.child_ns, build.total_ns);
        assert!(setup.total_ns >= build.total_ns);
        assert_eq!(s.kept[1].parent, 1, "the call's span names the phase as its cause");
        let json = s.to_json("w", 1);
        assert!(json.contains("\"name\": \"layers.build_stack\""));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.time(SpanName::CastBytes, Some(1), || 7), 7);
        assert_eq!(s.totals[SpanName::CastBytes as usize].count, 0);
        assert!(s.kept.is_empty());
    }

    #[test]
    fn dwell_sink_times_crossings_and_discards_across_dispatches() {
        let sink = DwellSink::new();
        let ev = |kind| TraceEvent { at: SimTime::ZERO, ep: EndpointAddr::new(1), kind };
        sink.record(ev(TraceKind::LayerDown { layer: "NAK" }));
        sink.record(ev(TraceKind::LayerDown { layer: "COM" }));
        sink.record(ev(TraceKind::FrameSend { cast: true, bytes: 10 }));
        // A crossing left open by the end of a dispatch is not dwell.
        sink.record(ev(TraceKind::LayerUp { layer: "COM" }));
        sink.record(ev(TraceKind::FrameDeliver {
            from: EndpointAddr::new(2),
            cast: true,
            bytes: 10,
            digest: 0,
            seq: 0,
        }));
        let snap = sink.snapshot();
        assert_eq!(snap.dwell["NAK"].count(), 1);
        assert_eq!(snap.dwell["COM"].count(), 1);
        assert_eq!(snap.records, 5);
        assert_eq!(snap.kind("layer-down"), 2);
        assert_eq!(sink.captured().len(), 5);
    }
}
