//! The two workloads with no real threads: `soak_faults` (seeded fault
//! plans on the virtual-time `SimWorld`) and `check_explore` (exhaustive
//! exploration of one scenario).  Both repeat identical, deterministic
//! work until `--seconds` have passed and report quiet quartiles.

use crate::payload::SplitMix64;
use crate::realtime::dwell_values;
use crate::spans::{self, DwellSink, SpanName, Spans};
use crate::stats::{median_time_of, percentile, quiet_rate, quiet_time, sorted};
use crate::{probes, Outcome};
use horus_check::{explore, CheckConfig, CheckReport, Scenario};
use horus_core::prelude::*;
use horus_core::stack::{layer_clones, reset_layer_clones};
use horus_layers::registry::build_stack;
use horus_sim::soak::{gen_plan, run_soak, run_soak_traced, SoakConfig, SoakPlan};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// soak_faults
// ---------------------------------------------------------------------------

/// The campaign: plan seeds that run clean with `casts = 2000` on the
/// commit this benchmark was written against (seed 19 does not: its group
/// never merges back whole).  `--seed` decides the order they run in and
/// nothing else: the driver compares runs made with different seeds, so
/// the work of a campaign must not depend on the seed, and an arbitrary
/// plan seed is not known to run clean.
const PLAN_SEEDS: [u64; 24] =
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21, 22, 23, 24, 25];
const SOAK_CASTS: u64 = 2000;

/// The plan seeds in `--seed`'s order.
pub fn campaign_seeds(seed: u64) -> Vec<u64> {
    let mut plans = PLAN_SEEDS.to_vec();
    SplitMix64::new(seed).shuffle(&mut plans);
    plans
}

fn stack_factory(desc: &str) -> impl Fn(EndpointAddr) -> Stack + '_ {
    move |ep| build_stack(ep, desc, StackConfig::default()).expect("the soak stack builds")
}

/// Configs and plans of one campaign, and one set of stacks built to check
/// the descriptor before anything is timed.
fn soak_set_up(seed: u64, spans: &mut Spans) -> Vec<(SoakConfig, SoakPlan)> {
    spans.enter(SpanName::Setup, None);
    let campaign: Vec<(SoakConfig, SoakPlan)> = campaign_seeds(seed)
        .into_iter()
        .map(|s| {
            let cfg =
                SoakConfig { seed: s, casts: SOAK_CASTS, trace_sample: 1, ..SoakConfig::default() };
            let plan = spans.time(SpanName::GenPlan, None, || gen_plan(&cfg));
            (cfg, plan)
        })
        .collect();
    {
        let factory = stack_factory(&campaign[0].0.stack);
        for m in campaign[0].0.member_addrs() {
            spans.time(SpanName::BuildStack, None, || factory(m));
        }
    }
    spans.exit();
    campaign
}

struct CampaignRun {
    secs: f64,
    /// Wall time of each plan, in campaign order, microseconds.
    plan_us: Vec<f64>,
    delivered: u64,
    transcripts: Vec<String>,
    violating: u64,
}

fn run_campaign(
    campaign: &[(SoakConfig, SoakPlan)],
    sink: Option<&Arc<DwellSink>>,
    spans: &mut Spans,
) -> CampaignRun {
    let mut run = CampaignRun {
        secs: 0.0,
        plan_us: Vec::new(),
        delivered: 0,
        transcripts: Vec::new(),
        violating: 0,
    };
    let t0 = Instant::now();
    for (cfg, plan) in campaign {
        let factory = stack_factory(&cfg.stack);
        let t1 = Instant::now();
        let out = spans.time(SpanName::RunSoak, Some(cfg.seed), || match sink {
            Some(s) => run_soak_traced(cfg, plan, &factory, Some(s.clone())),
            None => run_soak(cfg, plan, &factory),
        });
        run.plan_us.push(t1.elapsed().as_secs_f64() * 1e6);
        run.delivered += out.delivered;
        if !out.violations.is_empty() {
            run.violating += 1;
            eprintln!("soak plan seed {}: {}", cfg.seed, out.violations[0].0);
        }
        run.transcripts.push(out.transcript);
    }
    run.secs = t0.elapsed().as_secs_f64();
    run
}

/// Plans whose transcript differs from the first campaign's.
fn transcript_mismatches(reference: &CampaignRun, run: &CampaignRun) -> u64 {
    reference.transcripts.iter().zip(&run.transcripts).filter(|(a, b)| a != b).count() as u64
}

pub fn soak_faults(seed: u64, secs: f64, spans: &mut Spans) -> Outcome {
    let setup_s = median_time_of(|| {
        soak_set_up(seed, spans);
        Ok(())
    })
    .expect("the soak set-up cannot fail");
    let campaign = soak_set_up(seed, spans);
    spans.enter(SpanName::Warmup, None);
    let reference = run_campaign(&campaign, None, spans);
    spans.exit();
    let mut failed = reference.violating;
    let mut campaigns = 1u64;
    let mut rates = Vec::new();
    let mut plan_us = vec![Vec::new(); campaign.len()];
    let started = Instant::now();
    spans.enter(SpanName::Saturation, None);
    while started.elapsed().as_secs_f64() < secs || rates.len() < 2 {
        let run = run_campaign(&campaign, None, spans);
        failed += run.violating.max(transcript_mismatches(&reference, &run));
        campaigns += 1;
        rates.push(run.delivered as f64 / run.secs);
        for (times, t) in plan_us.iter_mut().zip(&run.plan_us) {
            times.push(*t);
        }
    }
    spans.exit();
    // Each plan's own quiet time over the campaigns, then the spread over
    // the plans: the median is the typical plan, p90 the recovery-heavy ones.
    let per_plan = sorted(plan_us.iter().map(|t| quiet_time(t)).collect());
    let mut out = Outcome::new(campaigns * campaign.len() as u64, failed);
    out.values.set("setup_s", setup_s);
    out.values.set("throughput_ops_s", quiet_rate(&rates));
    out.values.set("lat_p50_us", percentile(&per_plan, 0.5));
    out.note("operation", "throughput: simulated deliveries; latency: one fault plan");
    out.note("plan_p90_us", format!("{:.0}", percentile(&per_plan, 0.9)));
    let rates: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    out.note("campaign_ops_s", rates.join(" "));
    out.note("deliveries_per_campaign", reference.delivered);
    out.note("plan_seeds", format!("{:?}", campaign_seeds(seed)));
    out
}

pub fn soak_faults_traced(seed: u64, secs: f64, spans: &mut Spans) -> Outcome {
    let campaign = soak_set_up(seed, spans);
    spans.enter(SpanName::Reference, None);
    let reference = run_campaign(&campaign, None, &mut Spans::new(false));
    spans.exit();

    let sink = Arc::new(DwellSink::new());
    let mut failed = reference.violating;
    let mut campaigns = 1u64;
    let (mut delivered, mut traced_secs) = (0u64, 0.0);
    spans::count_allocations(true);
    let allocs0 = spans::allocations();
    spans.enter(SpanName::Saturation, None);
    while traced_secs < secs * 0.5 {
        let run = run_campaign(&campaign, Some(&sink), spans);
        failed += run.violating.max(transcript_mismatches(&reference, &run));
        campaigns += 1;
        delivered += run.delivered;
        traced_secs += run.secs;
    }
    spans.exit();
    let allocs1 = spans::allocations();
    spans::count_allocations(false);
    let snap = sink.snapshot();

    let mut out = Outcome::new(campaigns * campaign.len() as u64, failed);
    let v = &mut out.values;
    dwell_values(v, &snap);
    let per_msg = |x: u64| x as f64 / delivered.max(1) as f64;
    v.set("core.allocs_per_msg", per_msg(allocs1.0 - allocs0.0));
    v.set("core.alloc_bytes_per_msg", per_msg(allocs1.1 - allocs0.1));
    v.set("layers.wire_frames_per_delivery", per_msg(snap.kind("frame-send")));
    for layer in crate::metrics::LAYERS {
        let crossings = snap.dwell.get(layer).map_or(0, |h| h.count());
        v.set(format!("layers.{layer}.crossings_per_msg"), per_msg(crossings));
    }
    v.set("layers.timer_fires_per_s", snap.kind("timer-fire") as f64 / traced_secs);
    let frames = snap.kind("frame-deliver") + snap.kind("frame-drop");
    v.set(
        "net.sim.frame_drops_per_kframe",
        snap.kind("frame-drop") as f64 * 1e3 / frames.max(1) as f64,
    );
    let traced_rate = delivered as f64 / traced_secs;
    let untraced_rate = reference.delivered as f64 / reference.secs;
    v.set("trace.overhead", traced_rate / untraced_rate);
    v.set("trace.records_per_msg", per_msg(snap.records));
    probes::trace_format(v, &sink.captured(), spans);
    probes::sim_world(v, spans);
    out.note("untraced_reference_ops_s", format!("{untraced_rate:.0}"));
    out.note("traced_ops_s", format!("{traced_rate:.0}"));
    out
}

// ---------------------------------------------------------------------------
// check_explore
// ---------------------------------------------------------------------------

const SCENARIO: &str = "flush4";

fn check_config() -> CheckConfig {
    CheckConfig {
        window: Duration::from_micros(100),
        max_depth: 6,
        max_drops: 1,
        // The space is exhausted, not sampled: budgets well above its size.
        max_states: 10_000_000,
        max_runs: 10_000_000,
        ..CheckConfig::default()
    }
}

fn scenario(spans: &mut Spans) -> &'static Scenario {
    spans.enter(SpanName::Setup, None);
    let s = Scenario::by_name(SCENARIO).expect("flush4 is registered");
    // The explorer builds this world itself for every fresh run; building
    // it once here is the set-up a user waits for before the first state.
    drop(spans.time(SpanName::ScenarioBuild, None, || s.build()));
    spans.exit();
    s
}

/// One exploration that is not exhaustive, finds a violation, or visits a
/// different space than the first one is a failed operation.
fn explore_ok(r: &CheckReport, reference: &CheckReport) -> bool {
    r.exhausted && r.violation.is_none() && r.states == reference.states && r.runs == reference.runs
}

fn timed_explore(s: &Scenario, cfg: &CheckConfig, spans: &mut Spans) -> (CheckReport, f64) {
    let t0 = Instant::now();
    let report = spans.time(SpanName::Explore, None, || explore(s, cfg));
    (report, t0.elapsed().as_secs_f64())
}

pub fn check_explore(secs: f64, spans: &mut Spans) -> Outcome {
    let setup_s = median_time_of(|| {
        scenario(spans);
        Ok(())
    })
    .expect("the scenario set-up cannot fail");
    let s = scenario(spans);
    let cfg = check_config();
    spans.enter(SpanName::Warmup, None);
    let (reference, _) = timed_explore(s, &cfg, spans);
    spans.exit();
    let mut failed = u64::from(!explore_ok(&reference, &reference));
    let (mut rates, mut times) = (Vec::new(), Vec::new());
    let started = Instant::now();
    spans.enter(SpanName::Saturation, None);
    while started.elapsed().as_secs_f64() < secs || rates.len() < 2 {
        let (report, t) = timed_explore(s, &cfg, spans);
        failed += u64::from(!explore_ok(&report, &reference));
        rates.push(report.states as f64 / t);
        times.push(t * 1e6);
    }
    spans.exit();
    let times = sorted(times);
    let mut out = Outcome::new(1 + times.len() as u64, failed);
    out.values.set("setup_s", setup_s);
    out.values.set("throughput_ops_s", quiet_rate(&rates));
    out.values.set("lat_p50_us", quiet_time(&times));
    out.note("operation", "throughput: states explored; latency: one exhaustive exploration");
    out.note(
        "exploration_us",
        times.iter().map(|t| format!("{t:.0}")).collect::<Vec<_>>().join(" "),
    );
    out.note("states", reference.states);
    out.note("runs", reference.runs);
    out
}

pub fn check_explore_traced(secs: f64, spans: &mut Spans) -> Outcome {
    let s = scenario(spans);
    let cfg = check_config();
    spans.enter(SpanName::Reference, None);
    let (reference, reference_secs) = timed_explore(s, &cfg, &mut Spans::new(false));
    spans.exit();
    let mut failed = u64::from(!explore_ok(&reference, &reference));

    let mut explorations = 0u64;
    let (mut states, mut steps, mut counted_secs) = (0u64, 0u64, 0.0);
    reset_layer_clones();
    spans::count_allocations(true);
    let allocs0 = spans::allocations();
    spans.enter(SpanName::Saturation, None);
    while counted_secs < secs * 0.5 {
        let (report, t) = timed_explore(s, &cfg, spans);
        failed += u64::from(!explore_ok(&report, &reference));
        explorations += 1;
        states += report.states;
        steps += report.steps;
        counted_secs += t;
    }
    spans.exit();
    let allocs1 = spans::allocations();
    spans::count_allocations(false);
    let clones = layer_clones();

    let mut out = Outcome::new(1 + explorations, failed);
    let v = &mut out.values;
    v.set("check.runs", reference.runs as f64);
    v.set("check.states", reference.states as f64);
    v.set("check.steps", reference.steps as f64);
    v.set("check.pruned", reference.pruned as f64);
    v.set("check.layer_clones", clones as f64 / explorations as f64);
    v.set("check.steps_per_s", steps as f64 / counted_secs);
    v.set("core.allocs_per_msg", (allocs1.0 - allocs0.0) as f64 / states as f64);
    v.set("core.alloc_bytes_per_msg", (allocs1.1 - allocs0.1) as f64 / states as f64);
    let counted_rate = states as f64 / counted_secs;
    let plain_rate = reference.states as f64 / reference_secs;
    v.set("trace.overhead", counted_rate / plain_rate);
    probes::sim_world(v, spans);
    out.note("untraced_reference_ops_s", format!("{plain_rate:.0}"));
    out.note("traced_ops_s", format!("{counted_rate:.0}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_campaign_is_the_same_plans_in_seeded_order() {
        let a = campaign_seeds(1);
        assert_eq!(a, campaign_seeds(1), "same seed, same order");
        assert_ne!(a, campaign_seeds(2), "another seed, another order");
        let mut plans = a.clone();
        plans.sort_unstable();
        assert_eq!(plans, PLAN_SEEDS, "every plan once, whatever the seed");
    }
}
