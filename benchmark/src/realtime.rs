//! The three real-time workloads share this driver: a one-shard
//! `ShardExecutor` over `LoopbackNet` with upcall recording on, and one
//! generator thread (this one) that issues seeded casts, drains every
//! member's upcalls and checks them.  Two phases, each a series of
//! epochs on freshly set-up groups: closed-loop saturation (throughput)
//! and open-loop pacing (latency from the instant each cast was due).

use crate::metrics::{Values, LAYERS};
use crate::payload::{due_ns, PayloadPool};
use crate::spans::{self, DwellSink, DwellSnapshot, SpanName, Spans};
use crate::stats::{median_time_of, percentile, quiet_rate, quiet_time, sorted};
use crate::verify::{DeliveryCheck, Tally};
use crate::{probes, Outcome};
use horus_core::prelude::*;
use horus_core::stack::StackStats;
use horus_layers::registry::build_stack;
use horus_net::LoopbackNet;
use horus_sim::shard::{ShardConfig, ShardExecutor};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One real-time workload.
pub struct Spec {
    pub members: u64,
    /// Every NAK here runs with `fail_timeout=10000` (default 200 ms): this
    /// box stalls a thread for 100 ms and more now and then, the shard
    /// worker fires due timers before it drains the frames that arrived
    /// meanwhile, and NAK then suspects a live member — about one run in a
    /// hundred lost a member that way.  The hot path is the same.
    pub stack: &'static str,
    /// Body bytes per cast.
    pub body: usize,
    /// Members form one view through MERGE downcalls before traffic starts.
    pub merge: bool,
    /// All members send round-robin (else only the first).
    pub all_send: bool,
    /// The stack promises one delivery order at all members.
    pub total_order: bool,
    /// Casts outstanding in the closed loop.
    pub window: u64,
    /// Casts per second in the paced phase.
    pub paced_rate: u64,
    /// Casts pushed through a fresh group before anything is measured.
    pub warmup_casts: u64,
    /// Casts delivered per saturation epoch.
    pub epoch_casts: u64,
}

pub const FIFO_SMALL: Spec = Spec {
    members: 2,
    stack: "NAK(fail_timeout=10000):COM",
    body: 64,
    merge: false,
    all_send: false,
    total_order: false,
    window: 64,
    paced_rate: 50_000,
    warmup_casts: 20_000,
    epoch_casts: 100_000,
};

pub const VSYNC_TOTAL: Spec = Spec {
    members: 3,
    stack: "TOTAL:MBRSHIP:FRAG:NAK(fail_timeout=10000):COM(promiscuous=true)",
    body: 64,
    merge: true,
    all_send: true,
    total_order: true,
    window: 64,
    paced_rate: 12_000,
    warmup_casts: 5_000,
    epoch_casts: 20_000,
};

pub const FRAG_BULK: Spec = Spec {
    members: 2,
    stack: "FRAG:NAK(fail_timeout=10000):COM",
    body: 65_536,
    merge: false,
    all_send: false,
    total_order: false,
    window: 8,
    paced_rate: 800,
    warmup_casts: 300,
    epoch_casts: 1_500,
};

/// Share of `--seconds` given to the saturation epochs; the paced epochs
/// get the rest.
const SATURATION_SHARE: f64 = 0.55;
/// Length of one paced epoch, and the fewest epochs a phase runs.
const PACED_EPOCH: Duration = Duration::from_millis(250);
const MIN_EPOCHS: usize = 3;
/// In the traced run the first quarter goes to untraced reference epochs,
/// so traced ÷ untraced throughput is measured inside one process.
const REFERENCE_SHARE: f64 = 0.25;
/// A cast not seen at every member this long after its phase ended failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(2);

fn ep(i: u64) -> EndpointAddr {
    EndpointAddr::new(i)
}

/// A running group: the executor, its members and the seeded bodies.
pub struct Group {
    pub ex: ShardExecutor,
    pub net: LoopbackNet,
    pub members: Vec<EndpointAddr>,
    pub layer_names: Vec<&'static str>,
    pub pool: PayloadPool,
}

/// Everything before the first cast: bodies from the seed, stacks through
/// `build_stack`, the executor, joins, and the merge to one view.
pub fn set_up(
    spec: &Spec,
    seed: u64,
    tracer: Option<Arc<dyn TraceSink>>,
    spans: &mut Spans,
) -> Result<Group, String> {
    spans.enter(SpanName::Setup, None);
    let pool = PayloadPool::new(seed, spec.body);
    let net = LoopbackNet::new();
    if let Some(t) = &tracer {
        net.set_tracer(t.clone());
    }
    let mut ex = ShardExecutor::new(net.clone(), ShardConfig::with_shards(1).record_upcalls(true));
    let members: Vec<EndpointAddr> = (1..=spec.members).map(ep).collect();
    let mut layer_names = Vec::new();
    for &m in &members {
        let mut stack = spans
            .time(SpanName::BuildStack, None, || build_stack(m, spec.stack, StackConfig::default()))
            .map_err(|e| format!("stack {} does not build: {e}", spec.stack))?;
        if let Some(t) = &tracer {
            stack.set_tracer(t.clone());
        }
        layer_names = stack.layer_names();
        spans.time(SpanName::AddStack, None, || ex.add_stack(stack));
        ex.down(m, Down::Join { group: GroupAddr::new(1) });
    }
    let group = Group { ex, net, members, layer_names, pool };
    // Set-up ends when the worker has run every join (and formed the view).
    let joined = Instant::now() + Duration::from_secs(10);
    while group.net.members(GroupAddr::new(1)).len() < group.members.len() {
        if Instant::now() > joined {
            return Err("members did not join within 10 s".into());
        }
        std::thread::yield_now();
    }
    if spec.merge {
        form_view(&group)?;
    }
    spans.exit();
    Ok(group)
}

/// Merges the members into one view, one at a time: each asks the first
/// member to merge and the next waits until that view is installed
/// everywhere, so that set-up does not depend on which of two concurrent
/// merge requests the contact happens to see first.
fn form_view(g: &Group) -> Result<(), String> {
    let mut view_len = vec![1usize; g.members.len()];
    for joiner in 1..g.members.len() {
        let merge = || g.ex.down(g.members[joiner], Down::Merge { contact: g.members[0] });
        merge();
        let started = Instant::now();
        let mut next_nudge = Duration::from_millis(500);
        while view_len[..=joiner].iter().any(|&l| l <= joiner) {
            if started.elapsed() > Duration::from_secs(20) {
                return Err(format!("no {}-member view after 20 s ({view_len:?})", joiner + 1));
            }
            for (i, &m) in g.members.iter().enumerate() {
                for up in g.ex.take_upcalls(m) {
                    if let Up::View(v) = up {
                        view_len[i] = v.len();
                    }
                }
            }
            if started.elapsed() > next_nudge {
                merge();
                next_nudge += Duration::from_millis(500);
            }
            std::thread::yield_now();
        }
    }
    Ok(())
}

/// The generator: issues casts, drains and checks deliveries.
struct Generator<'a> {
    g: &'a Group,
    spec: &'a Spec,
    check: DeliveryCheck,
    spans: &'a mut Spans,
    /// Casts seen delivered at the last member.
    observed: u64,
    /// Upcalls other than CAST/VIEW/STABLE that report trouble.
    trouble: u64,
}

impl<'a> Generator<'a> {
    fn new(g: &'a Group, spec: &'a Spec, spans: &'a mut Spans) -> Self {
        let senders = if spec.all_send { g.members.len() } else { 1 };
        Generator {
            g,
            spec,
            check: DeliveryCheck::new(g.members.len(), senders, spec.total_order),
            spans,
            observed: 0,
            trouble: 0,
        }
    }

    fn outstanding(&self) -> u64 {
        self.check.issued() - self.observed
    }

    fn issue(&mut self) -> u64 {
        let (index, sender) = self.check.issue();
        let body = self.g.pool.make(index);
        let from = self.g.members[sender];
        let ex = &self.g.ex;
        self.spans.time(SpanName::CastBytes, Some(index), || ex.cast_bytes(from, body));
        index
    }

    /// Drains every member when the last one has something new; calls
    /// `seen(index, when)` for each cast newly delivered there.
    fn poll(&mut self, mut seen: impl FnMut(u64, Instant)) -> bool {
        let last = self.g.members.len() - 1;
        if self.g.ex.cast_count(self.g.members[last]) == self.check.delivered_at(last) {
            return false;
        }
        self.drain(&mut seen);
        true
    }

    fn drain(&mut self, seen: &mut impl FnMut(u64, Instant)) {
        let last = self.g.members.len() - 1;
        for (r, &m) in self.g.members.iter().enumerate() {
            let ex = &self.g.ex;
            let ups = self.spans.time(SpanName::TakeUpcalls, None, || ex.take_upcalls(m));
            let when = Instant::now();
            for up in ups {
                match up {
                    Up::Cast { src, msg } => {
                        let index = self.g.pool.verify(msg.body());
                        let sender = src.raw().wrapping_sub(1) as usize;
                        self.check.on_delivery(r, sender, index);
                        if r == last {
                            self.observed += 1;
                            if let Some(i) = index {
                                seen(i, when);
                            }
                        }
                    }
                    Up::LostMessage { .. } | Up::SystemError { .. } | Up::Problem { .. } => {
                        self.trouble += 1;
                    }
                    _ => {}
                }
            }
        }
    }

    /// Waits (bounded) until every member has delivered every cast issued.
    fn settle(&mut self) {
        let deadline = Instant::now() + DRAIN_LIMIT;
        let want = self.check.issued() as usize;
        while Instant::now() < deadline {
            self.drain(&mut |_, _| {});
            if (0..self.g.members.len()).all(|r| self.check.delivered_at(r) >= want) {
                return;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Closed loop until `casts` have been observed: brings a fresh group to
    /// the same state (buffers grown, a view history of fixed length)
    /// before anything is measured, whatever the machine's speed.
    fn warm_up(&mut self, casts: u64) {
        self.spans.enter(SpanName::Warmup, None);
        let window = self.spec.window;
        let give_up = Instant::now() + Duration::from_secs(20);
        while self.observed < casts && Instant::now() < give_up {
            while self.outstanding() < window && self.check.issued() < casts {
                self.issue();
            }
            if !self.poll(|_, _| {}) {
                std::hint::spin_loop();
            }
        }
        self.settle();
        self.spans.exit();
    }

    /// Closed loop, `window` casts outstanding, until `casts` more have been
    /// observed at the last member.  Returns the seconds that took and, in
    /// the traced run, each cast's issue→observe time.
    fn closed_loop(&mut self, casts: u64) -> (f64, Vec<f64>) {
        let window = self.spec.window;
        let mut issued_at = vec![Instant::now(); window as usize];
        // The untraced run keeps the generator's own memory out of `peak_rss_mb`.
        let keep_latency = self.spans.enabled();
        let mut latencies = Vec::with_capacity(if keep_latency { casts as usize } else { 0 });
        let goal = self.observed + casts;
        let start = Instant::now();
        let give_up = start + Duration::from_secs(30);
        while self.observed < goal && Instant::now() < give_up {
            while self.outstanding() < window {
                let index = self.issue();
                issued_at[(index % window) as usize] = Instant::now();
            }
            let polled = self.poll(|index, when| {
                if keep_latency {
                    let sent = issued_at[(index % window) as usize];
                    latencies.push(when.saturating_duration_since(sent).as_nanos() as f64);
                }
            });
            if !polled {
                std::hint::spin_loop();
            }
        }
        let secs = start.elapsed().as_secs_f64();
        self.settle();
        (secs, latencies)
    }

    /// Open loop at `spec.paced_rate` for `dur`.  Returns each cast's
    /// due→observe time and how late each cast was issued, nanoseconds.
    fn paced(&mut self, dur: Duration) -> (Vec<f64>, Vec<f64>) {
        let rate = self.spec.paced_rate;
        let total = (rate as f64 * dur.as_secs_f64()) as u64;
        let first = self.check.issued();
        let mut latencies = Vec::with_capacity(total as usize);
        let mut late = Vec::with_capacity(total as usize);
        let start = Instant::now();
        let give_up = start + dur + DRAIN_LIMIT;
        let due = |k: u64| start + Duration::from_nanos(due_ns(k, rate));
        let mut k = 0u64;
        loop {
            let now = Instant::now();
            while k < total && due(k) <= now {
                late.push(Instant::now().saturating_duration_since(due(k)).as_nanos() as f64);
                self.issue();
                k += 1;
            }
            if (k == total && self.outstanding() == 0) || now > give_up {
                break;
            }
            let polled = self.poll(|index, when| {
                if index >= first {
                    let lat = when.saturating_duration_since(due(index - first));
                    latencies.push(lat.as_nanos() as f64);
                }
            });
            if !polled {
                std::hint::spin_loop();
            }
        }
        self.settle();
        (latencies, late)
    }
}

/// What the epochs of one phase add up to.  An epoch is a freshly set-up
/// group, a warm-up of a fixed number of casts and then the measured work,
/// so every epoch does the same work from the same state — a view's cost
/// per cast grows with its age on some stacks — and a burst of
/// interference spoils one epoch, not the phase.
#[derive(Default)]
struct Epochs {
    /// Saturation: casts delivered at the last member per second, per epoch.
    rates: Vec<f64>,
    /// Paced: each epoch's median and 90th-percentile latency, nanoseconds.
    p50_ns: Vec<f64>,
    p90_ns: Vec<f64>,
    /// Every latency sample (closed-loop ones only in the traced run) and
    /// how late each paced cast was issued, nanoseconds.
    latencies_ns: Vec<f64>,
    late_ns: Vec<f64>,
    /// Casts delivered at the last member, worker CPU and allocations
    /// while measuring (warm-ups excluded).
    delivered: u64,
    worker_cpu_ns: u64,
    allocs: (u64, u64),
    /// Over the groups' whole lives, warm-ups included.
    delivered_ever: u64,
    stats: StackStats,
    dropped_unregistered: u64,
    layer_names: Vec<&'static str>,
    attempted: u64,
    failed: u64,
    detail: Tally,
    trouble: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Saturation,
    Paced,
}

/// Runs epochs of `phase` for `secs` (at least [`MIN_EPOCHS`]).
fn epochs(
    spec: &Spec,
    seed: u64,
    phase: Phase,
    secs: f64,
    tracer: Option<&Arc<DwellSink>>,
    spans: &mut Spans,
) -> Result<Epochs, String> {
    let mut e = Epochs::default();
    let started = Instant::now();
    let mut done = 0;
    while done < MIN_EPOCHS || started.elapsed().as_secs_f64() < secs {
        let group = set_up(spec, seed, tracer.map(|t| t.clone() as Arc<dyn TraceSink>), spans)?;
        let mut gen = Generator::new(&group, spec, spans);
        gen.warm_up(spec.warmup_casts);

        // Reading `/proc` per epoch is only worth it when the figure is reported.
        let worker_cpu = || if tracer.is_some() { spans::thread_cpu_ns("horus-shard") } else { 0 };
        let cpu0 = worker_cpu();
        let allocs0 = spans::allocations();
        let observed0 = gen.observed;
        match phase {
            Phase::Saturation => {
                gen.spans.enter(SpanName::Saturation, None);
                let (took, lat) = gen.closed_loop(spec.epoch_casts);
                gen.spans.exit();
                e.rates.push((gen.observed - observed0) as f64 / took);
                e.latencies_ns.extend(lat);
            }
            Phase::Paced => {
                gen.spans.enter(SpanName::Paced, None);
                let (lat, late) = gen.paced(PACED_EPOCH);
                gen.spans.exit();
                let lat = sorted(lat);
                e.p50_ns.push(percentile(&lat, 0.5));
                e.p90_ns.push(percentile(&lat, 0.9));
                e.latencies_ns.extend(lat);
                e.late_ns.extend(late);
            }
        }
        let allocs1 = spans::allocations();
        e.allocs = (e.allocs.0 + allocs1.0 - allocs0.0, e.allocs.1 + allocs1.1 - allocs0.1);
        e.worker_cpu_ns += worker_cpu() - cpu0;
        e.delivered += gen.observed - observed0;
        e.delivered_ever += gen.observed;

        let tally = gen.check.finish();
        e.attempted += gen.check.issued();
        e.failed += (tally.failed + gen.trouble).min(gen.check.issued());
        e.trouble += gen.trouble;
        e.detail.add(&tally);
        if tracer.is_some() {
            e.stats.merge(&group.ex.aggregate_stats());
            e.dropped_unregistered += group.net.stats().dropped_unregistered;
            e.layer_names = group.layer_names.clone();
        }
        done += 1;
    }
    Ok(e)
}

/// A few epochs of saturation, nothing else: delivered casts per second
/// (the ladder probe's building block).
pub fn saturation_only(spec: &Spec, seed: u64, secs: f64) -> Result<f64, String> {
    let e = epochs(spec, seed, Phase::Saturation, secs, None, &mut Spans::new(false))?;
    if e.failed > 0 {
        return Err(format!("{} of {} casts failed ({:?})", e.failed, e.attempted, e.detail));
    }
    Ok(quiet_rate(&e.rates))
}

fn outcome_of(parts: &[&Epochs]) -> Outcome {
    let sum = |f: fn(&Epochs) -> u64| parts.iter().map(|e| f(e)).sum::<u64>();
    let mut out = Outcome::new(sum(|e| e.attempted), sum(|e| e.failed));
    let mut detail = Tally::default();
    for e in parts {
        detail.add(&e.detail);
    }
    out.note("checks", format!("{detail:?} trouble_upcalls={}", sum(|e| e.trouble)));
    out
}

/// The untraced run: the end-to-end metrics.
pub fn run(spec: &Spec, seed: u64, secs: f64, spans: &mut Spans) -> Result<Outcome, String> {
    // Timed back to back on otherwise idle groups: the set-ups between
    // epochs follow a teardown of megabytes of generator state and read two
    // or three different times depending on what ran last.
    let setup_s = median_time_of(|| set_up(spec, seed, None, spans).map(drop))?;
    let sat = epochs(spec, seed, Phase::Saturation, secs * SATURATION_SHARE, None, spans)?;
    let paced = epochs(spec, seed, Phase::Paced, secs * (1.0 - SATURATION_SHARE), None, spans)?;

    let mut out = outcome_of(&[&sat, &paced]);
    out.values.set("setup_s", setup_s);
    out.values.set("throughput_ops_s", quiet_rate(&sat.rates));
    out.values.set("lat_p50_us", quiet_time(&paced.p50_ns) / 1e3);
    let lat = sorted(paced.latencies_ns);
    let late = sorted(paced.late_ns);
    out.note("body_bytes", spec.body);
    out.note("paced_rate_per_s", spec.paced_rate);
    out.note("throughput_MB_s", format!("{:.1}", quiet_rate(&sat.rates) * spec.body as f64 / 1e6));
    let rates: Vec<String> = sat.rates.iter().map(|r| format!("{r:.0}")).collect();
    out.note("epoch_ops_s", rates.join(" "));
    let p90s: Vec<String> = paced.p90_ns.iter().map(|r| format!("{:.0}", r / 1e3)).collect();
    out.note("epoch_lat_p90_us", p90s.join(" "));
    out.note("lat_p90_us", format!("{:.1}", quiet_time(&paced.p90_ns) / 1e3));
    out.note("lat_samples", lat.len());
    out.note(
        "lat_all_epochs_us",
        format!(
            "p50 {:.1} p90 {:.1} p99 {:.1} max {:.1}",
            percentile(&lat, 0.5) / 1e3,
            percentile(&lat, 0.9) / 1e3,
            percentile(&lat, 0.99) / 1e3,
            lat.last().copied().unwrap_or(0.0) / 1e3
        ),
    );
    out.note("gen_late_p99_us", format!("{:.1}", percentile(&late, 0.99) / 1e3));
    if percentile(&late, 0.5) > percentile(&lat, 0.5) {
        out.note("FLAG", "generator ran later than the median latency it reports");
    }
    Ok(out)
}

/// The traced run: untraced reference epochs first, then both phases with
/// spans, the dwell sink, allocation counting and CPU accounting on, then
/// the probes this workload's layers call for.
pub fn run_traced(
    spec: &Spec,
    name: &str,
    seed: u64,
    secs: f64,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    spans.enter(SpanName::Reference, None);
    let reference = epochs(
        spec,
        seed,
        Phase::Saturation,
        secs * REFERENCE_SHARE,
        None,
        &mut Spans::new(false),
    )?;
    spans.exit();

    let sink = Arc::new(DwellSink::new());
    let traced_secs = secs * (1.0 - REFERENCE_SHARE);
    spans::count_allocations(true);
    let sat =
        epochs(spec, seed, Phase::Saturation, traced_secs * SATURATION_SHARE, Some(&sink), spans)?;
    spans::count_allocations(false);
    let paced_secs = traced_secs * (1.0 - SATURATION_SHARE);
    let paced = epochs(spec, seed, Phase::Paced, paced_secs, Some(&sink), spans)?;
    let snap = sink.snapshot();

    let mut out = outcome_of(&[&reference, &sat, &paced]);
    let v = &mut out.values;
    let per_msg = |x: u64| x as f64 / sat.delivered.max(1) as f64;
    stack_stats_values(v, &sat.stats, &sat.layer_names, sat.delivered_ever);
    dwell_values(v, &snap);
    v.set("core.allocs_per_msg", per_msg(sat.allocs.0));
    v.set("core.alloc_bytes_per_msg", per_msg(sat.allocs.1));
    let traced_casts = sat.attempted + paced.attempted;
    v.set("trace.records_per_msg", snap.records as f64 / traced_casts.max(1) as f64);
    v.set("layers.timer_fires_per_s", snap.kind("timer-fire") as f64 / traced_secs);
    let dropped = sat.dropped_unregistered + paced.dropped_unregistered;
    v.set("net.loopback.dropped_unregistered", dropped as f64);
    v.set("sim.shard.cast_call_ns", spans.mean_ns(SpanName::CastBytes));
    v.set("sim.shard.take_upcalls_ns", spans.mean_ns(SpanName::TakeUpcalls));
    v.set("sim.shard.batch_avg", sat.stats.batched_inputs as f64 / sat.stats.batches.max(1) as f64);
    v.set("sim.shard.worker_cpu_us_per_msg", per_msg(sat.worker_cpu_ns) / 1e3);
    v.set("sim.shard.sat_lat_p50_us", percentile(&sorted(sat.latencies_ns), 0.5) / 1e3);
    let (traced_rate, reference_rate) = (quiet_rate(&sat.rates), quiet_rate(&reference.rates));
    v.set("trace.overhead", traced_rate / reference_rate.max(1.0));
    let lat = sorted(paced.latencies_ns);
    v.set("gen.late_p99_us", percentile(&sorted(paced.late_ns), 0.99) / 1e3);
    v.set("gen.lat_p90_us", quiet_time(&paced.p90_ns) / 1e3);
    v.set("gen.lat_p99_us", percentile(&lat, 0.99) / 1e3);
    v.set("gen.lat_max_us", lat.last().copied().unwrap_or(0.0) / 1e3);
    v.set("gen.samples", lat.len() as f64);
    probes::trace_format(v, &sink.captured(), spans);

    // The probes whose layers this workload leans on, and the remainder
    // line: what a cast costs end to end minus what the two stacks cost
    // when driven directly.
    let pump = match name {
        "fifo_small" => {
            probes::pump(v, "core.pump_ns.COM", "COM", 64);
            probes::pump(v, "core.pump_ns.FRAG-NAK-COM", "FRAG:NAK:COM", 64);
            probes::loopback_cast(v);
            probes::socket(v);
            Some(probes::pump(v, "core.pump_ns.NAK-COM", "NAK:COM", 64))
        }
        "frag_bulk" => {
            probes::loopback_cast(v);
            Some(probes::pump(v, "core.pump_ns_64k.FRAG-NAK-COM", "FRAG:NAK:COM", 65_536))
        }
        _ => {
            probes::ladder(v, seed, spans)?;
            probes::props(v, spans);
            None
        }
    };
    if let Some(pump_ns) = pump {
        v.set("sim.shard.remainder_ns_per_msg", 1e9 / reference_rate.max(1.0) - pump_ns);
    }
    out.note("untraced_reference_ops_s", format!("{reference_rate:.0}"));
    out.note("traced_ops_s", format!("{traced_rate:.0}"));
    Ok(out)
}

/// `core.*` and crossing counts from the executor's merged `StackStats`.
pub fn stack_stats_values(v: &mut Values, s: &StackStats, layer_names: &[&str], delivered: u64) {
    let per_msg = |x: u64| x as f64 / delivered.max(1) as f64;
    v.set("core.dispatches_per_msg", per_msg(s.dispatches));
    v.set("core.skipped_per_msg", per_msg(s.skipped));
    v.set("core.header_bytes_per_frame", s.header_bytes_sent as f64 / s.msgs_sent.max(1) as f64);
    v.set("core.payload_copies_per_msg", per_msg(s.payload_copies));
    v.set("core.dispatch_buf_grows", s.dispatch_buf_grows as f64);
    v.set("core.scratch_peak", s.scratch_peak as f64);
    v.set("layers.wire_frames_per_delivery", per_msg(s.msgs_sent));
    for (name, traffic) in layer_names.iter().zip(&s.per_layer) {
        if LAYERS.contains(name) {
            v.set(format!("layers.{name}.crossings_per_msg"), per_msg(traffic.downs + traffic.ups));
        }
    }
}

/// `layers.<L>.dwell_*` from the sink's wall-clock intervals.
pub fn dwell_values(v: &mut Values, snap: &DwellSnapshot) {
    let total = snap.total_dwell_ns().max(1) as f64;
    for layer in LAYERS {
        if let Some(h) = snap.dwell.get(layer) {
            v.set(format!("layers.{layer}.dwell_p50_ns"), h.quantile(50, 100) as f64);
            v.set(format!("layers.{layer}.dwell_share"), h.sum() as f64 / total);
        }
    }
}
