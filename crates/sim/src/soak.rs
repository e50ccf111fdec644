//! Chaos-soak campaigns: seeded random fault plans, safety **and**
//! liveness oracles evaluated every quiet window, and delta-debugging
//! minimization of violating plans into replayable `(seed, plan)`
//! artifacts.
//!
//! The safety checkers of [`crate::invariants`] say a run never did the
//! wrong thing; the soak runner exists to catch the other failure mode —
//! the run that *stops doing anything at all*.  A campaign iteration:
//!
//! 1. [`gen_plan`] derives a random [`SoakPlan`] from the seed: set-based
//!    partitions with built-in heals, fail-stop crashes, suspicion storms
//!    and scripted merge nudges, scattered over a virtual-time horizon and
//!    interleaved with a round-robin multicast workload.
//! 2. [`run_soak`] executes the plan on a [`SimWorld`], sampling every
//!    member's [`Stack::pending_work`] into a
//!    [`ProgressWatchdog`] each
//!    half-quiet window and feeding the window's new upcalls to a
//!    [`SafetyMonitor`]; only when it trips do the one-shot safety
//!    checkers run, over every member's whole history, to word the
//!    violation.  After the last disturbance it requires post-heal view
//!    convergence and final-view delivery agreement.
//! 3. On violation, [`minimize_plan`] re-runs [`ddmin`] over the plan's
//!    event list until no single chunk can be removed, and
//!    [`serialize_artifact`] emits a line-oriented `(seed, plan)` file
//!    that [`parse_artifact`] replays byte-identically.
//!
//! `horus-sim` cannot name concrete protocol layers (the dependency points
//! the other way), so every entry point takes a *stack factory*; callers
//! hand in `horus_layers::registry::build_stack` partially applied to a
//! descriptor string, which the artifact records verbatim.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use horus_core::prelude::*;
use horus_net::{FaultRule, NetConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::invariants::{
    check_fifo, check_final_view_delivery, check_total_order, check_view_convergence,
    check_virtual_synchrony, DeliveryLog, ProgressWatchdog, SafetyMonitor, Violation,
};
use crate::workload::{Workload, WorkloadKind};
use crate::world::SimWorld;

/// Builds one endpoint's protocol stack.  Callers supply this because the
/// layer library lives above `horus-sim` in the dependency graph.
pub type StackFactory<'a> = &'a dyn Fn(EndpointAddr) -> Stack;

/// Salt mixed into the seed for plan generation so the plan RNG and the
/// world's network RNG draw from independent streams.
const PLAN_SALT: u64 = 0x5A0C_CAFE;

/// One chaos action scheduled by a soak plan.
#[derive(Debug, Clone, PartialEq)]
pub enum SoakAction {
    /// Symmetric set-based partition over `sides`, healing after `dur`.
    Partition { sides: Vec<Vec<EndpointAddr>>, dur: Duration },
    /// Fail-stop crash.
    Crash { ep: EndpointAddr },
    /// Every listed observer simultaneously suspects `target`.
    Storm { observers: Vec<EndpointAddr>, target: EndpointAddr },
    /// A scripted merge nudge: `who` probes `contact`.
    Merge { who: EndpointAddr, contact: EndpointAddr },
}

/// A chaos action with its virtual start time.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakEvent {
    /// Absolute virtual time the action fires.
    pub at: SimTime,
    /// What happens.
    pub action: SoakAction,
}

/// An ordered list of chaos actions — the unit `ddmin` minimizes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SoakPlan {
    /// Events in firing order.
    pub events: Vec<SoakEvent>,
}

/// Campaign parameters.  Everything here plus the plan determines the
/// execution bit-for-bit: same `(SoakConfig, SoakPlan)` ⇒ same transcript.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// World seed (network RNG) and, salted, the plan-generation seed.
    pub seed: u64,
    /// Endpoints `1..=members`.
    pub members: u64,
    /// Stack descriptor, recorded in artifacts.  The runner itself never
    /// parses it — the stack factory does.
    pub stack: String,
    /// Number of chaos events [`gen_plan`] scatters over the horizon.
    pub events: usize,
    /// Length of the fault-injection phase (after `settle`).
    pub horizon: Duration,
    /// Quiet period: the convergence deadline after the last disturbance,
    /// and the watchdog's stall threshold.
    pub quiet: Duration,
    /// Initial group-formation time before any fault fires.
    pub settle: Duration,
    /// Network frame-loss probability throughout the run.
    pub loss: f64,
    /// Workload slots (round-robin casts) spread over the horizon.
    pub casts: u64,
    /// Also run the total-order checker (stack must include TOTAL).
    pub check_total: bool,
    /// When a trace sink is attached ([`run_soak_traced`]), keep 1 record
    /// in `trace_sample` (1 = keep everything).  Purely observational —
    /// the run's transcript is byte-identical traced or not — but recorded
    /// in artifacts so a replay reproduces the same capture.
    pub trace_sample: u64,
}

/// The default 1-in-N sampling rate for traced soaks: cheap enough to
/// leave on for a whole campaign (a sampled-out event costs one relaxed
/// fetch-add; E29) while keeping long-soak traces tractable.
pub const DEFAULT_TRACE_SAMPLE: u64 = 64;

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 1,
            members: 4,
            stack: "MERGE(contacts=1,period=50):MBRSHIP:FD:FRAG:NAK:COM(promiscuous=true)".into(),
            events: 6,
            horizon: Duration::from_secs(4),
            quiet: Duration::from_millis(1500),
            settle: Duration::from_secs(3),
            loss: 0.02,
            casts: 40,
            check_total: false,
            trace_sample: DEFAULT_TRACE_SAMPLE,
        }
    }
}

impl SoakConfig {
    /// The endpoint addresses `1..=members`.
    pub fn member_addrs(&self) -> Vec<EndpointAddr> {
        (1..=self.members).map(EndpointAddr::new).collect()
    }
}

/// What a soak run produced.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// All violations, safety and liveness, tagged with the window time
    /// they were detected at.  Empty ⇔ the run was clean.
    pub violations: Vec<Violation>,
    /// Members that never crashed (the set liveness is judged over).
    pub correct: Vec<EndpointAddr>,
    /// Total casts delivered across all members.
    pub delivered: u64,
    /// Quiet windows the oracles ran in.
    pub windows: u64,
    /// Virtual time the run ended at.
    pub end: SimTime,
    /// A rendered view/delivery transcript of every member, used for
    /// byte-identical replay comparison.
    pub transcript: String,
    /// Per-member layer-state dumps at the end of the run (`pending` is
    /// [`Stack::pending_work`]) — the first place to look when the
    /// watchdog reports a wedge.
    pub dumps: Vec<(EndpointAddr, u64, String)>,
    /// Trace records forwarded to the attached sink (0 when untraced).
    pub trace_kept: u64,
    /// Trace records discarded by 1-in-N sampling (0 when untraced).
    pub trace_sampled_out: u64,
}

/// What decides a window's safety verdict in [`run_soak_judged`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafetyJudge {
    /// The [`SafetyMonitor`]; the one-shot checkers run only to word a
    /// trip.  This is what [`run_soak`] does.
    Monitor,
    /// The one-shot checkers over every member's whole history at every
    /// window, with the monitor run alongside and compared.  Quadratic in
    /// the run's length: for tests that hold the monitor to the checkers.
    Checkers,
}

/// What the safety monitor did in one soak run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorAudit {
    /// Upcalls the monitor read.
    pub examined: u64,
    /// Upcalls the members had recorded when the run ended.
    pub recorded: u64,
    /// Windows at which the one-shot safety checkers ran.
    pub checker_runs: u64,
    /// Windows at which the checkers ran and the monitor's trip disagreed
    /// with their verdict.
    pub disagreements: Vec<String>,
}

/// Derives the random fault plan for `cfg` — deterministic in
/// `cfg.seed` (salted so it does not correlate with the network RNG).
pub fn gen_plan(cfg: &SoakConfig) -> SoakPlan {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ PLAN_SALT);
    let members = cfg.member_addrs();
    let horizon_ms = (cfg.horizon.as_millis() as u64).max(1);
    // Keep at least two members alive so liveness has a subject, and
    // never crash the first member: it doubles as the MERGE rendezvous
    // contact in the default stack, and a group whose only contact is
    // dead cannot re-merge no matter how correct the protocol is.
    let mut crash_budget = cfg.members.saturating_sub(2).min(cfg.members / 2);
    let mut uncrashed: Vec<EndpointAddr> = members[1..].to_vec();
    let mut events = Vec::with_capacity(cfg.events);
    for _ in 0..cfg.events {
        let at = SimTime::ZERO + cfg.settle + Duration::from_millis(rng.gen_range(0..horizon_ms));
        let kind = rng.gen_range(0u32..100);
        let action = if kind < 40 {
            // Random two-way split; re-deal a lopsided coin until both
            // sides are non-empty (bounded: fall back to isolating ep 1).
            let mut a = Vec::new();
            let mut b = Vec::new();
            for &m in &members {
                if rng.gen_bool(0.5) {
                    a.push(m);
                } else {
                    b.push(m);
                }
            }
            if a.is_empty() || b.is_empty() {
                a = vec![members[0]];
                b = members[1..].to_vec();
            }
            let dur = Duration::from_millis(rng.gen_range(200..900));
            SoakAction::Partition { sides: vec![a, b], dur }
        } else if kind < 60 {
            let target = members[rng.gen_range(0..members.len())];
            let mut observers: Vec<EndpointAddr> =
                members.iter().copied().filter(|&m| m != target && rng.gen_bool(0.6)).collect();
            if observers.is_empty() {
                observers = members.iter().copied().find(|&m| m != target).into_iter().collect();
            }
            SoakAction::Storm { observers, target }
        } else if kind < 80 || crash_budget == 0 || uncrashed.len() <= 1 {
            let who = members[rng.gen_range(0..members.len())];
            let mut contact = members[rng.gen_range(0..members.len())];
            if contact == who {
                contact =
                    members[(members.iter().position(|&m| m == who).unwrap() + 1) % members.len()];
            }
            SoakAction::Merge { who, contact }
        } else {
            crash_budget -= 1;
            let victim = uncrashed.remove(rng.gen_range(0..uncrashed.len()));
            SoakAction::Crash { ep: victim }
        };
        events.push(SoakEvent { at, action });
    }
    events.sort_by_key(|x| x.at);
    SoakPlan { events }
}

/// Executes `plan` under `cfg`, running the safety checkers and the
/// progress watchdog every half-quiet window and the convergence /
/// final-delivery liveness oracles once the world should have settled.
/// Stops at the first violating window.
pub fn run_soak(cfg: &SoakConfig, plan: &SoakPlan, factory: StackFactory) -> SoakOutcome {
    run_soak_traced(cfg, plan, factory, None)
}

/// [`run_soak`] with an optional trace sink attached to the world.  The
/// sink is wrapped in a 1-in-`cfg.trace_sample` [`SamplingSink`] so long
/// campaigns stay tractable; kept/discarded counts land in the outcome.
/// Tracing is observational only — the transcript is byte-identical with
/// or without a sink (`soak_replay` pins this).
pub fn run_soak_traced(
    cfg: &SoakConfig,
    plan: &SoakPlan,
    factory: StackFactory,
    sink: Option<Arc<dyn TraceSink>>,
) -> SoakOutcome {
    soak(cfg, plan, factory, sink, SafetyJudge::Monitor).0
}

/// [`run_soak`] with the safety verdict decided by `judge`, and a report
/// of what the monitor did.  Under [`SafetyJudge::Checkers`] the outcome
/// is what re-checking every history at every window gives; that it equals
/// [`run_soak`]'s is the monitor's contract.
pub fn run_soak_judged(
    cfg: &SoakConfig,
    plan: &SoakPlan,
    factory: StackFactory,
    judge: SafetyJudge,
) -> (SoakOutcome, MonitorAudit) {
    soak(cfg, plan, factory, None, judge)
}

/// The one-shot safety checkers over every member's whole history.
fn safety_violations(w: &SimWorld, members: &[EndpointAddr], check_total: bool) -> Vec<Violation> {
    let logs: Vec<DeliveryLog> =
        members.iter().map(|&m| DeliveryLog::from_upcalls(m, w.upcalls(m))).collect();
    let mut vs = check_virtual_synchrony(&logs);
    vs.extend(check_fifo(&logs, Workload::parse));
    if check_total {
        vs.extend(check_total_order(&logs));
    }
    vs
}

fn soak(
    cfg: &SoakConfig,
    plan: &SoakPlan,
    factory: StackFactory,
    sink: Option<Arc<dyn TraceSink>>,
    judge: SafetyJudge,
) -> (SoakOutcome, MonitorAudit) {
    let mut net = NetConfig::reliable();
    net.loss = cfg.loss;
    let mut w = SimWorld::new(cfg.seed, net);
    let members = cfg.member_addrs();
    for &m in &members {
        w.add_endpoint(factory(m));
        w.join(m, GroupAddr::new(1));
    }
    let sampler = sink.map(|s| Arc::new(SamplingSink::new(s, cfg.trace_sample)));
    if let Some(s) = &sampler {
        w.set_tracer(s.clone());
    }

    let start = SimTime::ZERO + cfg.settle;
    let wl = Workload {
        kind: WorkloadKind::RoundRobin,
        senders: members.clone(),
        slots: cfg.casts,
        interval: match (cfg.horizon.as_nanos() as u64).checked_div(cfg.casts) {
            Some(per_cast) => Duration::from_nanos(per_cast.max(1)),
            None => Duration::from_millis(1),
        },
        payload: 48,
    };
    wl.schedule(&mut w, start + Duration::from_millis(1));

    let mut watchdog = ProgressWatchdog::new(cfg.quiet);
    let mut crashed: BTreeSet<EndpointAddr> = BTreeSet::new();
    // The liveness clock starts once the last fault has healed AND the
    // workload has drained.
    let mut last_disturbance = start + wl.duration();
    watchdog.disturb(last_disturbance);
    for ev in &plan.events {
        watchdog.disturb(ev.at);
        last_disturbance = last_disturbance.max(ev.at);
        match &ev.action {
            SoakAction::Partition { sides, dur } => {
                let heal = ev.at + *dur;
                watchdog.disturb(heal);
                last_disturbance = last_disturbance.max(heal);
                // Windowed cuts, not `partition_at`: the soak's partitions
                // overlap, and each heals on its own.
                for cut in FaultRule::partition(sides, ev.at, Some(heal)) {
                    w.fault_at(ev.at, cut);
                }
            }
            SoakAction::Crash { ep } => {
                crashed.insert(*ep);
                w.crash_at(ev.at, *ep);
            }
            SoakAction::Storm { observers, target } => {
                for &observer in observers {
                    w.suspect_at(ev.at, observer, *target);
                }
            }
            SoakAction::Merge { who, contact } => {
                w.down_at(ev.at, *who, Down::Merge { contact: *contact });
            }
        }
    }

    let deadline = last_disturbance + cfg.quiet;
    let end = deadline + cfg.quiet;
    let correct: Vec<EndpointAddr> =
        members.iter().copied().filter(|m| !crashed.contains(m)).collect();

    let step = (cfg.quiet.as_nanos() as u64 / 2).max(1_000_000);
    let mut t = SimTime::ZERO;
    let mut windows = 0u64;
    let mut monitor = SafetyMonitor::new(&members, Workload::parse, cfg.check_total);
    let mut audit = MonitorAudit::default();
    let finish = |w: &SimWorld, violations: Vec<Violation>, windows: u64, t: SimTime| {
        let casts = |m| w.upcalls(m).iter().filter(|(_, up)| matches!(up, Up::Cast { .. })).count();
        let delivered: u64 = members.iter().map(|&m| casts(m) as u64).sum();
        let dumps = members
            .iter()
            .filter_map(|&m| {
                let s = w.stack(m)?;
                let layers = s
                    .dump()
                    .into_iter()
                    .map(|(name, state)| format!("{name}[{state}]"))
                    .collect::<Vec<_>>()
                    .join(" ");
                Some((m, s.pending_work(), layers))
            })
            .collect();
        SoakOutcome {
            violations,
            correct: correct.clone(),
            delivered,
            windows,
            end: t,
            transcript: transcript(w, &members),
            dumps,
            trace_kept: sampler.as_ref().map_or(0, |s| s.kept()),
            trace_sampled_out: sampler.as_ref().map_or(0, |s| s.sampled_out()),
        }
    };
    let close = |w: &SimWorld, monitor: &SafetyMonitor, audit: MonitorAudit| MonitorAudit {
        examined: monitor.examined(),
        recorded: members.iter().map(|&m| w.upcalls(m).len() as u64).sum(),
        ..audit
    };
    while t < end {
        t = SimTime::from_nanos((t.as_nanos() + step).min(end.as_nanos()));
        w.run_until(t);
        windows += 1;
        for &m in &members {
            if crashed.contains(&m) {
                continue;
            }
            if let Some(s) = w.stack(m) {
                watchdog.observe(t, m, s.pending_work());
            }
        }
        for &m in &members {
            monitor.observe(m, w.upcalls(m));
        }
        let check = judge == SafetyJudge::Checkers || monitor.tripped();
        let mut vs = Vec::new();
        if check {
            audit.checker_runs += 1;
            vs = safety_violations(&w, &members, cfg.check_total);
            if monitor.tripped() == vs.is_empty() {
                audit.disagreements.push(format!(
                    "[t={t}] monitor tripped: {}, checkers: {} violation(s)",
                    monitor.tripped(),
                    vs.len()
                ));
            }
        }
        vs.extend(watchdog.violations());
        if !vs.is_empty() {
            let tagged = vs.into_iter().map(|v| Violation(format!("[t={t}] {v}"))).collect();
            return (finish(&w, tagged, windows, t), close(&w, &monitor, audit));
        }
    }

    // Post-heal liveness: everyone correct converges on one final view of
    // exactly the correct set, and agrees on the final epoch's deliveries.
    let logs: Vec<DeliveryLog> =
        members.iter().map(|&m| DeliveryLog::from_upcalls(m, w.upcalls(m))).collect();
    let mut vs = check_view_convergence(&logs, &correct, last_disturbance, cfg.quiet);
    vs.extend(check_final_view_delivery(&logs, &correct));
    let tagged = vs.into_iter().map(|v| Violation(format!("[t={t}] {v}"))).collect();
    (finish(&w, tagged, windows, t), close(&w, &monitor, audit))
}

/// Renders every member's timed view installations and deliveries into a
/// canonical text transcript — two runs are byte-identical iff this is.
pub fn transcript(w: &SimWorld, members: &[EndpointAddr]) -> String {
    let mut out = String::new();
    for &m in members {
        let log = DeliveryLog::from_upcalls(m, w.upcalls(m));
        let _ = writeln!(out, "ep {m}");
        let views = log.views_timed();
        let casts = log.casts_timed();
        let (mut i, mut j) = (0, 0);
        while i < views.len() || j < casts.len() {
            let take_view = j >= casts.len() || (i < views.len() && views[i].0 <= casts[j].0);
            if take_view {
                let (at, v) = views[i];
                let _ = writeln!(out, "  view@{at} {v}");
                i += 1;
            } else {
                let (at, src, key) = casts[j];
                match Workload::parse(key) {
                    Some((s, q)) => {
                        let _ = writeln!(out, "  cast@{at} from {src} ({s}:{q})");
                    }
                    None => {
                        let _ = writeln!(out, "  cast@{at} from {src} ({}B)", key.len());
                    }
                }
                j += 1;
            }
        }
    }
    out
}

/// Classic delta debugging over an item list: removes complements at
/// increasing granularity while `fails` keeps returning `true`.  Returns
/// the smallest failing sublist found — at worst the input itself.  The
/// caller's predicate owns any replay budget (return `false` when
/// exhausted and the current best survives).
///
/// This is the same reduction `horus-check` applies to schedule choice
/// lists; the soak runner applies it to fault-plan events.
pub fn ddmin<T: Clone>(items: &[T], mut fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut best = items.to_vec();
    let mut n = 2usize;
    while best.len() >= 2 {
        let chunk = best.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < best.len() {
            let end = (start + chunk).min(best.len());
            let mut candidate = Vec::with_capacity(best.len() - (end - start));
            candidate.extend_from_slice(&best[..start]);
            candidate.extend_from_slice(&best[end..]);
            if fails(&candidate) {
                best = candidate;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if chunk == 1 {
                break;
            }
            n = (n * 2).min(best.len());
        }
    }
    best
}

/// Minimizes a violating plan with [`ddmin`]: keeps removing events while
/// the run still violates *some* oracle.  `budget` caps replay count.
pub fn minimize_plan(
    cfg: &SoakConfig,
    plan: &SoakPlan,
    factory: StackFactory,
    budget: usize,
) -> SoakPlan {
    let mut left = budget;
    let events = ddmin(&plan.events, |subset| {
        if left == 0 {
            return false;
        }
        left -= 1;
        let candidate = SoakPlan { events: subset.to_vec() };
        !run_soak(cfg, &candidate, factory).violations.is_empty()
    });
    SoakPlan { events }
}

// ---------------------------------------------------------------------------
// (seed, plan) artifacts
// ---------------------------------------------------------------------------

const ARTIFACT_HEADER: &str = "# horus-soak plan v1";

fn fmt_members(eps: &[EndpointAddr]) -> String {
    eps.iter().map(|e| e.raw().to_string()).collect::<Vec<_>>().join(",")
}

/// Serializes `(cfg, plan)` plus an optional verdict into the replayable
/// line-oriented artifact format.  Verdict lines are comments: parsing
/// ignores them, so `serialize → parse → serialize` is byte-stable.
pub fn serialize_artifact(cfg: &SoakConfig, plan: &SoakPlan, violations: &[Violation]) -> String {
    serialize_artifact_traced(cfg, plan, violations, None)
}

/// [`serialize_artifact`] with an optional `(kept, sampled_out)` trace
/// capture report.  The report is a comment — parsing ignores it — so a
/// traced capture replays byte-identically to an untraced one.
pub fn serialize_artifact_traced(
    cfg: &SoakConfig,
    plan: &SoakPlan,
    violations: &[Violation],
    trace: Option<(u64, u64)>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{ARTIFACT_HEADER}");
    let _ = writeln!(out, "seed: {}", cfg.seed);
    let _ = writeln!(out, "members: {}", cfg.members);
    let _ = writeln!(out, "stack: {}", cfg.stack);
    let _ = writeln!(out, "events: {}", cfg.events);
    let _ = writeln!(out, "horizon_us: {}", cfg.horizon.as_micros());
    let _ = writeln!(out, "quiet_us: {}", cfg.quiet.as_micros());
    let _ = writeln!(out, "settle_us: {}", cfg.settle.as_micros());
    let _ = writeln!(out, "loss: {}", cfg.loss);
    let _ = writeln!(out, "casts: {}", cfg.casts);
    let _ = writeln!(out, "check_total: {}", cfg.check_total);
    // Written only when non-default so artifacts from before the knob
    // existed stay byte-stable through a parse → serialize round trip.
    if cfg.trace_sample != DEFAULT_TRACE_SAMPLE {
        let _ = writeln!(out, "trace_sample: {}", cfg.trace_sample);
    }
    for ev in &plan.events {
        let at = ev.at.as_micros();
        match &ev.action {
            SoakAction::Partition { sides, dur } => {
                let sides = sides.iter().map(|s| fmt_members(s)).collect::<Vec<_>>().join("|");
                let _ = writeln!(out, "event: {at} partition {sides} {}", dur.as_micros());
            }
            SoakAction::Crash { ep } => {
                let _ = writeln!(out, "event: {at} crash {}", ep.raw());
            }
            SoakAction::Storm { observers, target } => {
                let _ =
                    writeln!(out, "event: {at} storm {}>{}", fmt_members(observers), target.raw());
            }
            SoakAction::Merge { who, contact } => {
                let _ = writeln!(out, "event: {at} merge {}>{}", who.raw(), contact.raw());
            }
        }
    }
    if let Some((kept, sampled_out)) = trace {
        let _ = writeln!(
            out,
            "# trace: kept={kept} sampled_out={sampled_out} (1-in-{})",
            cfg.trace_sample.max(1)
        );
    }
    for v in violations {
        let _ = writeln!(out, "# verdict: {v}");
    }
    out
}

/// An artifact is outside input: these bound what one may ask of a replay,
/// so that a malformed file is an `Err`, never a panic or a run without end.
const MAX_MEMBERS: u64 = 64;
const MAX_CASTS: u64 = 1_000_000;
/// One hour of virtual time, for every instant and duration in the file.
const MAX_SPAN_US: u64 = 3_600_000_000;

/// Parses a value that must lie in `lo..=hi` (a NaN lies in no range).
fn in_range<T: std::str::FromStr + PartialOrd>(s: &str, lo: T, hi: T) -> Option<T> {
    s.trim().parse().ok().filter(|v| (lo..=hi).contains(v))
}

/// An endpoint id: nonzero here, held to `members` once that is known.
fn parse_ep(s: &str) -> Result<EndpointAddr, String> {
    in_range(s, 1, u64::MAX).map(EndpointAddr::new).ok_or_else(|| format!("bad endpoint id {s:?}"))
}

fn parse_members(s: &str) -> Result<Vec<EndpointAddr>, String> {
    s.split(',').map(parse_ep).collect()
}

fn parse_event(rest: &str) -> Result<SoakEvent, String> {
    let mut it = rest.split_whitespace();
    let at = it
        .next()
        .and_then(|s| in_range(s, 0, MAX_SPAN_US))
        .map(SimTime::from_micros)
        .ok_or_else(|| format!("bad event time in {rest:?}"))?;
    let kind = it.next().ok_or_else(|| format!("missing event kind in {rest:?}"))?;
    let action = match kind {
        "partition" => {
            let sides_s = it.next().ok_or("partition: missing sides")?;
            let dur = it
                .next()
                .and_then(|s| in_range(s, 1, MAX_SPAN_US))
                .map(Duration::from_micros)
                .ok_or("partition: bad duration")?;
            let sides = sides_s.split('|').map(parse_members).collect::<Result<Vec<_>, _>>()?;
            if let Some(error) = FaultRule::partition_sides_error(&sides) {
                return Err(error);
            }
            SoakAction::Partition { sides, dur }
        }
        "crash" => SoakAction::Crash { ep: parse_ep(it.next().ok_or("crash: missing endpoint")?)? },
        "storm" => {
            let spec = it.next().ok_or("storm: missing spec")?;
            let (obs, target) = spec.split_once('>').ok_or("storm: expected obs>target")?;
            let (observers, target) = (parse_members(obs)?, parse_ep(target)?);
            if observers.contains(&target) {
                return Err(format!("storm: {target} cannot suspect itself"));
            }
            SoakAction::Storm { observers, target }
        }
        "merge" => {
            let spec = it.next().ok_or("merge: missing spec")?;
            let (who, contact) = spec.split_once('>').ok_or("merge: expected who>contact")?;
            SoakAction::Merge { who: parse_ep(who)?, contact: parse_ep(contact)? }
        }
        other => return Err(format!("unknown event kind {other:?}")),
    };
    if it.next().is_some() {
        return Err(format!("trailing tokens in event {rest:?}"));
    }
    Ok(SoakEvent { at, action })
}

/// Every endpoint an action names.
fn endpoints_of(action: &SoakAction) -> Vec<EndpointAddr> {
    match action {
        SoakAction::Partition { sides, .. } => sides.iter().flatten().copied().collect(),
        SoakAction::Crash { ep } => vec![*ep],
        SoakAction::Storm { observers, target } => {
            observers.iter().chain([target]).copied().collect()
        }
        SoakAction::Merge { who, contact } => vec![*who, *contact],
    }
}

/// Parses an artifact produced by [`serialize_artifact`].
///
/// # Errors
///
/// Fails, naming the line, on anything [`run_soak`] could not run: unknown
/// keys and event kinds, values out of range (`members` in
/// 2..=64, `loss` in `[0, 1]`, at most an hour of virtual time), endpoint
/// ids outside `1..=members`, overlapping partition sides, a storm whose
/// target observes itself.  The stack descriptor is only held non-empty —
/// whether it builds is for the caller's stack factory to say.
pub fn parse_artifact(text: &str) -> Result<(SoakConfig, SoakPlan), String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(l) if l.trim() == ARTIFACT_HEADER => {}
        other => return Err(format!("bad header {other:?}, expected {ARTIFACT_HEADER:?}")),
    }
    let mut cfg = SoakConfig::default();
    let mut events = Vec::new();
    for (no, raw) in lines.enumerate() {
        let (no, line) = (no + 2, raw.trim());
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once(':')
            .map(|(k, v)| (k.trim(), v.trim()))
            .ok_or_else(|| format!("line {no}: expected `key: value`, got {line:?}"))?;
        let bad = || format!("line {no}: bad {key} {value:?}");
        let span = || in_range(value, 0, MAX_SPAN_US).map(Duration::from_micros).ok_or_else(bad);
        match key {
            "seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "members" => cfg.members = in_range(value, 2, MAX_MEMBERS).ok_or_else(bad)?,
            "stack" if value.is_empty() => return Err(bad()),
            "stack" => cfg.stack = value.to_string(),
            "events" => cfg.events = value.parse().map_err(|_| bad())?,
            "horizon_us" => cfg.horizon = span()?,
            "quiet_us" => cfg.quiet = span()?,
            "settle_us" => cfg.settle = span()?,
            "loss" => cfg.loss = in_range(value, 0.0, 1.0).ok_or_else(bad)?,
            "casts" => cfg.casts = in_range(value, 0, MAX_CASTS).ok_or_else(bad)?,
            "check_total" => cfg.check_total = value.parse().map_err(|_| bad())?,
            "trace_sample" => cfg.trace_sample = value.parse().map_err(|_| bad())?,
            "event" => {
                events.push((no, parse_event(value).map_err(|e| format!("line {no}: {e}"))?))
            }
            other => return Err(format!("line {no}: unknown key {other:?}")),
        }
    }
    for (no, ev) in &events {
        if let Some(ep) = endpoints_of(&ev.action).into_iter().find(|ep| ep.raw() > cfg.members) {
            return Err(format!("line {no}: {ep} is not one of the {} members", cfg.members));
        }
    }
    Ok((cfg, SoakPlan { events: events.into_iter().map(|(_, ev)| ev).collect() }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(n: u64) -> EndpointAddr {
        EndpointAddr::new(n)
    }

    #[test]
    fn ddmin_isolates_the_failing_pair() {
        let items: Vec<u32> = (1..=20).collect();
        let mut replays = 0;
        let min = ddmin(&items, |c| {
            replays += 1;
            c.contains(&7) && c.contains(&13)
        });
        assert_eq!(min, vec![7, 13]);
        assert!(replays < 200, "ddmin used {replays} replays");
    }

    #[test]
    fn ddmin_keeps_unshrinkable_input() {
        let items = vec![1, 2];
        assert_eq!(ddmin(&items, |c| c.len() == 2), vec![1, 2]);
    }

    #[test]
    fn gen_plan_is_deterministic_in_the_seed() {
        let cfg = SoakConfig::default();
        assert_eq!(gen_plan(&cfg), gen_plan(&cfg));
        let other = SoakConfig { seed: cfg.seed + 1, ..cfg.clone() };
        assert_ne!(gen_plan(&cfg), gen_plan(&other));
    }

    #[test]
    fn gen_plan_keeps_two_members_alive_and_sides_disjoint() {
        for seed in 0..50 {
            let cfg = SoakConfig { seed, events: 12, ..SoakConfig::default() };
            let plan = gen_plan(&cfg);
            assert_eq!(plan.events.len(), 12);
            let crashes =
                plan.events.iter().filter(|e| matches!(e.action, SoakAction::Crash { .. })).count()
                    as u64;
            assert!(crashes <= cfg.members - 2, "seed {seed}: {crashes} crashes");
            for ev in &plan.events {
                assert!(ev.at >= SimTime::ZERO + cfg.settle);
                if let SoakAction::Partition { sides, .. } = &ev.action {
                    assert_eq!(sides.len(), 2);
                    assert!(!sides[0].is_empty() && !sides[1].is_empty());
                    assert!(sides[0].iter().all(|m| !sides[1].contains(m)));
                }
            }
        }
    }

    #[test]
    fn artifact_roundtrips_byte_identically() {
        let cfg = SoakConfig { seed: 42, loss: 0.0375, ..SoakConfig::default() };
        let plan = SoakPlan {
            events: vec![
                SoakEvent {
                    at: SimTime::from_millis(3200),
                    action: SoakAction::Partition {
                        sides: vec![vec![ep(1), ep(2)], vec![ep(3), ep(4)]],
                        dur: Duration::from_millis(450),
                    },
                },
                SoakEvent {
                    at: SimTime::from_millis(4000),
                    action: SoakAction::Crash { ep: ep(3) },
                },
                SoakEvent {
                    at: SimTime::from_millis(4100),
                    action: SoakAction::Storm { observers: vec![ep(1), ep(2)], target: ep(4) },
                },
                SoakEvent {
                    at: SimTime::from_millis(5000),
                    action: SoakAction::Merge { who: ep(4), contact: ep(1) },
                },
            ],
        };
        let text = serialize_artifact(&cfg, &plan, &[Violation("stalled".into())]);
        let (cfg2, plan2) = parse_artifact(&text).unwrap();
        assert_eq!(cfg, cfg2);
        assert_eq!(plan, plan2);
        // Verdict comments are dropped; the replayable core is byte-stable.
        let again = serialize_artifact(&cfg2, &plan2, &[]);
        assert!(text.starts_with(&again));
    }

    #[test]
    fn artifact_records_non_default_sampling_and_trace_report() {
        let cfg = SoakConfig { trace_sample: 8, ..SoakConfig::default() };
        let text = serialize_artifact_traced(&cfg, &SoakPlan::default(), &[], Some((120, 840)));
        assert!(text.contains("trace_sample: 8\n"));
        assert!(text.contains("# trace: kept=120 sampled_out=840 (1-in-8)\n"));
        let (cfg2, _) = parse_artifact(&text).unwrap();
        assert_eq!(cfg2.trace_sample, 8);
        // Default sampling stays implicit so pre-existing artifacts
        // round-trip byte-identically.
        let plain = serialize_artifact(&SoakConfig::default(), &SoakPlan::default(), &[]);
        assert!(!plain.contains("trace_sample"));
        let (cfg3, _) = parse_artifact(&plain).unwrap();
        assert_eq!(cfg3.trace_sample, DEFAULT_TRACE_SAMPLE);
    }

    #[test]
    fn artifact_rejects_garbage() {
        assert!(parse_artifact("nonsense").is_err());
        let ok = serialize_artifact(&SoakConfig::default(), &SoakPlan::default(), &[]);
        assert!(parse_artifact(&(ok.clone() + "wat: 1\n")).is_err());
        assert!(parse_artifact(&(ok + "event: 5 reboot 1\n")).is_err());
    }

    #[test]
    fn artifact_out_of_range_is_an_error_naming_its_line() {
        let valid = serialize_artifact(&SoakConfig::default(), &SoakPlan::default(), &[]);
        assert!(parse_artifact(&valid).is_ok());
        for line in [
            "event: 5 crash 0",
            "event: 5 merge 0>1",
            "event: 5 crash 5",
            "event: 5 partition 1,2|1,2 100",
            "event: 5 partition 1,2 100",
            "event: 5 partition 1|2 0",
            "event: 5 storm 1,2>2",
            "event: 18446744073709551615 crash 1",
            "members: 0",
            "members: 18446744073709551615",
            "loss: 7.5",
            "loss: NaN",
            "casts: 18446744073709551615",
            "quiet_us: 18446744073709551615",
            "stack:",
        ] {
            // In place of the valid line with that key, or at the end.
            let key = line.split_once(':').unwrap().0;
            let mut lines: Vec<&str> = valid.lines().collect();
            let at = lines.iter().position(|l| l.split_once(':').is_some_and(|(k, _)| k == key));
            match at {
                Some(i) => lines[i] = line,
                None => lines.push(line),
            }
            let no = at.unwrap_or(lines.len() - 1) + 1;
            let err = parse_artifact(&lines.join("\n")).expect_err(line);
            assert!(err.starts_with(&format!("line {no}:")), "{line}: {err}");
        }
    }
}
