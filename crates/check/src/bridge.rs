//! The trace→schedule bridge: from a captured trace back to a replayable
//! `.check` schedule.
//!
//! A trace recorded under virtual time (a `horus-check replay --trace` run,
//! or any [`horus_sim::SimWorld`] run with a [`horus_trace::TraceBuf`]
//! installed) names every scheduling decision the run took: calendar fires
//! carry their calendar sequence number, induced drops carry the dropped
//! event's, and explorer-injected faults name their endpoints.  Those are
//! exactly the degrees of freedom a schedule's choice list controls — so a
//! trace can be *re-enacted*: re-execute the scenario, and at every step
//! select the option whose effect matches the next schedule-relevant trace
//! event, recording the option's index at each branch point.  The indices,
//! trimmed of trailing calendar-order defaults, are a v1 schedule that
//! `horus-check replay` re-executes to the same interleaving — the loop
//! that turns "the soak saw it wedge once" into "the checker replays that
//! exact wedge forever".
//!
//! The mapping leans on two invariants:
//!
//! * option enumeration is the shared `enumerate_options` — the bridge
//!   sees byte-for-byte the option lists a replay will see;
//! * calendar sequence numbers are a pure function of the world's
//!   insertion history, so re-executing the same prefix reproduces the same
//!   ids and `ready[i].id.1 == seq` identifies the fired event uniquely.

use crate::explore::{enumerate_options, replay_choices, CheckConfig};
use crate::scenario::Scenario;
use crate::schedule::{verdict_line, Schedule};
use horus_core::prelude::EndpointAddr;
use horus_core::trace::{DropReason, TraceKind};
use horus_sim::sched::{Scheduler, Step};
use horus_sim::{ReadyEvent, SimWorld};
use horus_trace::{ParsedTrace, TraceRecord};
use std::time::Duration;

/// One schedule-relevant trace event, in trace order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceOp {
    /// A calendar fire, by calendar sequence number.
    Fire(u64),
    /// An induced drop of pending event `seq`.
    Drop(u64),
    /// An explorer-injected fail-stop crash.
    Crash(EndpointAddr),
    /// An explorer-injected suspicion.
    Suspect { observer: EndpointAddr, target: EndpointAddr },
}

/// Filters a trace down to the operations a scheduler controls.
/// Stack-internal hops (`layer-*`, `deliver`, `frame-send`, ...) are
/// consequences of these, not decisions, and are skipped.  Every kind is
/// named: a new calendar-fire kind fails to compile here until it is
/// sorted into one side or the other.
fn schedule_ops(records: &[TraceRecord]) -> Vec<TraceOp> {
    records
        .iter()
        .filter_map(|r| match r.kind {
            // Every calendar fire the simulator dispatches.
            TraceKind::FrameDeliver { seq, .. }
            | TraceKind::TimerFire { seq, .. }
            | TraceKind::AppDown { seq, .. }
            | TraceKind::Crash { seq, .. }
            | TraceKind::Suspect { seq, .. }
            | TraceKind::Partition { seq, .. }
            | TraceKind::Heal { seq, .. }
            | TraceKind::Fault { seq, .. } => Some(TraceOp::Fire(seq)),
            // Only *induced* drops are scheduling decisions; physics and
            // decode drops replay on their own.
            TraceKind::FrameDrop { seq, reason: DropReason::Induced, .. } => {
                Some(TraceOp::Drop(seq))
            }
            TraceKind::InjectCrash => Some(TraceOp::Crash(r.ep)),
            TraceKind::InjectSuspect { observer, target } => {
                Some(TraceOp::Suspect { observer, target })
            }
            TraceKind::LayerDown { .. }
            | TraceKind::LayerUp { .. }
            | TraceKind::LayerTimer { .. }
            | TraceKind::FrameSend { .. }
            | TraceKind::FrameDrop { .. }
            | TraceKind::TimerArm { .. }
            | TraceKind::Deliver { .. }
            | TraceKind::ViewInstall { .. }
            | TraceKind::Note(_) => None,
        })
        .collect()
}

/// The re-enacting scheduler: at every step, take the option matching the
/// next trace operation and remember its index at branch points.
struct BridgeScheduler<'a> {
    members: u64,
    ops: &'a [TraceOp],
    cursor: usize,
    drops_left: u32,
    crashes_left: u32,
    suspects_left: u32,
    choices: Vec<u16>,
    error: Option<String>,
    opts_buf: Vec<Step>,
}

impl BridgeScheduler<'_> {
    /// Finds the option index realizing `op` against this ready set.
    fn select(&self, ready: &[ReadyEvent], opts: &[Step], op: TraceOp) -> Option<usize> {
        opts.iter().position(|&s| match (op, s) {
            (TraceOp::Fire(seq), Step::Fire(i)) => ready[i].id.1 == seq,
            (TraceOp::Drop(seq), Step::Drop(i)) => ready[i].id.1 == seq,
            (TraceOp::Crash(ep), Step::Crash(m)) => m == ep,
            (TraceOp::Suspect { observer, target }, Step::Suspect { observer: o, target: t }) => {
                o == observer && t == target
            }
            _ => false,
        })
    }
}

impl Scheduler for BridgeScheduler<'_> {
    fn next_step(&mut self, world: &SimWorld, ready: &[ReadyEvent]) -> Step {
        let mut opts = std::mem::take(&mut self.opts_buf);
        enumerate_options(
            self.members,
            world,
            ready,
            self.drops_left,
            self.crashes_left,
            self.suspects_left,
            &mut opts,
        );
        let Some(&op) = self.ops.get(self.cursor) else {
            // Trace exhausted (it ended at its horizon or an early halt):
            // the remainder is calendar order, which a replay reaches by
            // running out of choices — emit index 0 so trailing trims.
            if opts.len() > 1 {
                self.choices.push(0);
            }
            self.opts_buf = opts;
            return Step::Fire(0);
        };
        let Some(idx) = self.select(ready, &opts, op) else {
            self.error = Some(format!(
                "trace op {}/{} ({op:?}) matches no option of the re-executed run \
                 ({} ready, {} options) — trace and scenario/config disagree",
                self.cursor,
                self.ops.len(),
                ready.len(),
                opts.len(),
            ));
            self.opts_buf = opts;
            return Step::Halt;
        };
        self.cursor += 1;
        if opts.len() > 1 {
            self.choices.push(idx as u16);
        }
        let step = opts[idx];
        match step {
            Step::Drop(_) => self.drops_left -= 1,
            Step::Crash(_) => self.crashes_left -= 1,
            Step::Suspect { .. } => self.suspects_left -= 1,
            _ => {}
        }
        self.opts_buf = opts;
        step
    }
}

/// Reconstructs the [`CheckConfig`] a trace was captured under from its
/// `meta` lines (written by `horus-check replay --trace`).
pub fn config_from_meta(trace: &ParsedTrace) -> Result<CheckConfig, String> {
    let get = |key: &str| -> Result<u64, String> {
        trace
            .meta
            .get(key)
            .ok_or_else(|| format!("trace meta lacks {key:?}"))?
            .parse()
            .map_err(|_| format!("trace meta {key:?} is not a number"))
    };
    Ok(CheckConfig {
        window: Duration::from_micros(get("window_us")?),
        oracle: trace.meta.get("reduction").map(String::as_str) == Some("off"),
        max_depth: get("max_depth")? as usize,
        max_drops: get("max_drops")? as u32,
        max_crashes: get("max_crashes")? as u32,
        max_suspects: get("max_suspects")? as u32,
        ..CheckConfig::default()
    })
}

/// The `meta` lines `horus-check replay --trace` stamps into a captured
/// trace — everything [`schedule_from_trace`] needs to re-enact it.  Keys
/// come out sorted, the order a parsed trace holds them in.
pub fn trace_meta(scenario: &Scenario, cfg: &CheckConfig) -> Vec<(String, String)> {
    [
        ("max_crashes", cfg.max_crashes.to_string()),
        ("max_depth", cfg.max_depth.to_string()),
        ("max_drops", cfg.max_drops.to_string()),
        ("max_suspects", cfg.max_suspects.to_string()),
        ("reduction", if cfg.oracle { "off" } else { "on" }.to_string()),
        ("scenario", scenario.name.to_string()),
        ("window_us", (cfg.window.as_micros() as u64).to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Converts a captured trace into a replayable v1 schedule.
///
/// Re-executes the trace's scenario under its recorded bounds, steering
/// every step to the option the trace observed; the branch-point indices
/// that fall out (trailing calendar-order zeros trimmed) plus the re-run's
/// verdict form the schedule.  The returned schedule replays — by
/// construction — the exact interleaving the trace recorded.
///
/// # Errors
///
/// When the trace lacks the bridge metadata, names an unknown scenario, or
/// describes a run the scenario/config cannot re-enact (drift between the
/// trace and the code, or a trace from a different world).
pub fn schedule_from_trace(trace: &ParsedTrace) -> Result<Schedule, String> {
    // A sampled or kind-filtered capture is missing calendar fires the
    // re-enactment must match one for one — refuse up front with the real
    // reason instead of failing mid-re-enactment with a drift error.
    if let Some(every) =
        trace.meta.get(horus_trace::META_SAMPLE_EVERY).and_then(|v| v.parse::<u64>().ok())
    {
        if every > 1 {
            return Err(format!(
                "trace was sampled 1-in-{every}; the bridge needs every record — \
                 recapture without --sample"
            ));
        }
    }
    if let Some(kinds) = trace.meta.get(horus_trace::META_KINDS) {
        return Err(format!(
            "trace was captured with --kinds {kinds}; the bridge needs every record — \
             recapture without --kinds"
        ));
    }
    let name = trace.meta.get("scenario").ok_or("trace meta lacks \"scenario\"")?;
    let scenario = Scenario::by_name(name)
        .ok_or_else(|| format!("trace references unknown scenario {name:?}"))?;
    let cfg = config_from_meta(trace)?;
    let ops = schedule_ops(&trace.records);

    let mut world = scenario.build();
    let mut bridge = BridgeScheduler {
        members: scenario.members,
        ops: &ops,
        cursor: 0,
        drops_left: cfg.max_drops,
        crashes_left: cfg.max_crashes,
        suspects_left: cfg.max_suspects,
        choices: Vec::new(),
        error: None,
        opts_buf: Vec::new(),
    };
    world.run_scheduled(&mut bridge, cfg.window, scenario.deadline());
    if let Some(e) = bridge.error {
        return Err(e);
    }
    if bridge.cursor < ops.len() {
        return Err(format!(
            "re-enactment consumed only {}/{} trace ops before the horizon",
            bridge.cursor,
            ops.len()
        ));
    }
    let mut choices = bridge.choices;
    while choices.last() == Some(&0) {
        choices.pop();
    }
    // The verdict comes from a *clean-room replay* of the derived choices —
    // the same path `horus-check replay` takes — so the fixture pins what
    // replaying will actually compute, not what the bridge run saw.
    let rec = replay_choices(scenario, &choices, &cfg);
    Ok(Schedule::new(scenario, &cfg, &choices, verdict_line(&rec)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, replay_choices_traced};
    use horus_core::trace::TraceSink;
    use horus_trace::{parse_trace_v2, serialize_trace_v2, TraceBuf};
    use std::sync::Arc;

    /// Captures a replay of `choices` as a parsed trace with bridge meta.
    fn capture(name: &str, choices: &[u16], cfg: &CheckConfig) -> ParsedTrace {
        let scenario = Scenario::by_name(name).unwrap();
        let buf = Arc::new(TraceBuf::new());
        let _ = replay_choices_traced(scenario, choices, cfg, buf.clone() as Arc<dyn TraceSink>);
        let bytes = serialize_trace_v2(&trace_meta(scenario, cfg), &buf.take());
        parse_trace_v2(&bytes).unwrap()
    }

    #[test]
    fn calendar_order_run_bridges_to_the_empty_schedule() {
        let cfg = CheckConfig::default();
        let trace = capture("fifo2", &[], &cfg);
        let schedule = schedule_from_trace(&trace).unwrap();
        assert_eq!(schedule.scenario, "fifo2");
        assert!(schedule.choices.is_empty(), "got {:?}", schedule.choices);
        assert_eq!(schedule.verdict, "clean");
    }

    #[test]
    fn violating_interleaving_round_trips_through_the_bridge() {
        // explore → counterexample → traced replay → bridge → the same
        // choices and the same verdict: the full loop the subsystem exists
        // for.
        let scenario = Scenario::by_name("fifo2").unwrap();
        let cfg = CheckConfig { max_depth: 3, ..CheckConfig::default() };
        let found = explore(scenario, &cfg).violation.expect("planted bug");
        let trace = capture("fifo2", &found.choices, &cfg);
        let schedule = schedule_from_trace(&trace).unwrap();
        // Modulo trailing calendar-order zeros (which the bridge trims and
        // a replay re-derives as defaults), the choices survive the loop.
        let mut trimmed = found.choices.clone();
        while trimmed.last() == Some(&0) {
            trimmed.pop();
        }
        assert_eq!(schedule.choices, trimmed);
        let rec = replay_choices(scenario, &found.choices, &cfg);
        assert_eq!(schedule.verdict, verdict_line(&rec));
        assert!(schedule.verdict.starts_with("violation fifo:"));
    }

    #[test]
    fn injected_faults_bridge_back_to_their_indices() {
        // A suspicion-injecting schedule (the wedge fixture's shape): the
        // trace records inject-suspect, the bridge must map it back into
        // the suspect block of the option list.
        let cfg = CheckConfig { max_suspects: 1, ..CheckConfig::default() };
        let trace = capture("wedge", &[11], &cfg);
        assert!(trace.records.iter().any(|r| matches!(r.kind, TraceKind::InjectSuspect { .. })));
        let schedule = schedule_from_trace(&trace).unwrap();
        assert_eq!(schedule.choices, vec![11]);
        assert_eq!(schedule.verdict, "clean");
    }

    #[test]
    fn a_scripted_suspicion_is_a_calendar_fire() {
        let record = |kind| TraceRecord {
            at: horus_core::time::SimTime::ZERO,
            ep: EndpointAddr::new(1),
            clock: vec![],
            kind,
        };
        let records = [
            record(TraceKind::LayerDown { layer: "FD" }),
            record(TraceKind::Suspect { target: EndpointAddr::new(2), digest: 3, seq: 7 }),
            record(TraceKind::Note("ep:1 suspects ep:2".into())),
        ];
        assert_eq!(schedule_ops(&records), [TraceOp::Fire(7)]);
    }

    #[test]
    fn foreign_trace_is_rejected_not_misread() {
        // A trace captured under one config cannot silently bridge under
        // claims of another: a fifo2 trace whose meta lies about the
        // scenario must fail loudly.
        let cfg = CheckConfig::default();
        let mut trace = capture("fifo2", &[1], &cfg);
        trace.meta.insert("scenario".into(), "flush3".into());
        let err = schedule_from_trace(&trace).unwrap_err();
        assert!(err.contains("matches no option"), "got {err}");
    }
}
