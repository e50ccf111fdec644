//! Replayable soak-artifact corpus.
//!
//! Every `tests/fixtures/*.soak` file is a `(seed, plan)` pair the chaos
//! soak once minimized: the full campaign takes minutes of randomized
//! exploration, but the artifact replays its verdict in one deterministic
//! run.  Two kinds live here:
//!
//! * **regression pins** — plans that once wedged or diverged the group and
//!   must stay clean after the protocol fix;
//! * **planted-bug witnesses** — plans over a deliberately broken stack
//!   (NAK retransmission off) that the liveness monitors must keep
//!   indicting, proving the oracles have teeth.

use horus::core::digest::StateDigest;
use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus::sim::soak::{
    gen_plan, parse_artifact, run_soak, run_soak_traced, SoakConfig, SoakOutcome, SoakPlan,
};
use horus::trace::TraceBuf;
use std::sync::Arc;

fn fixture(name: &str) -> (SoakConfig, SoakPlan) {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse_artifact(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn replay(cfg: &SoakConfig, plan: &SoakPlan) -> SoakOutcome {
    let stack = cfg.stack.clone();
    let factory =
        |ep: EndpointAddr| build_stack(ep, &stack, StackConfig::default()).expect("stack builds");
    run_soak(cfg, plan, &factory)
}

#[test]
fn planted_nak_bug_is_still_indicted() {
    // One suspicion storm against a stack whose NAK layer never
    // retransmits: the excluded member can rejoin but its recovery traffic
    // is lossy with no repair, so the group never reconverges.  The
    // view-convergence liveness monitor must keep catching this — if it
    // goes quiet, the oracles lost their teeth, not the protocol its bug.
    let (cfg, plan) = fixture("soak_planted_nak.soak");
    assert!(cfg.stack.contains("retransmit=false"), "fixture must carry the planted bug");
    let outcome = replay(&cfg, &plan);
    assert!(!outcome.violations.is_empty(), "planted bug must replay to a violation");
    assert!(
        outcome.violations.iter().any(|v| v.to_string().contains("liveness")),
        "the indictment must come from a liveness monitor, got {:?}",
        outcome.violations.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
}

#[test]
fn former_wedge_plan_replays_clean() {
    // The minimized (partition, crash) pair that once drove the flush
    // protocol into a restart-grant livelock.  The hardened protocol must
    // drain it: any violation here is a regression in the merge/flush
    // recovery path.
    let (cfg, plan) = fixture("soak_wedge_regression.soak");
    let outcome = replay(&cfg, &plan);
    assert!(
        outcome.violations.is_empty(),
        "regression pin went red: {:?}",
        outcome.violations.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
    assert!(outcome.delivered > 0, "the replay must actually deliver traffic");
}

#[test]
fn soak_replay_is_byte_identical_across_repetition() {
    // The artifact contract: a (seed, plan) pair is the whole truth.  Two
    // independent replays must agree on every view, every cast, every
    // timestamp — byte-for-byte — or minimized artifacts stop being
    // evidence.
    for name in ["soak_planted_nak.soak", "soak_wedge_regression.soak"] {
        let (cfg, plan) = fixture(name);
        let first = replay(&cfg, &plan);
        let second = replay(&cfg, &plan);
        assert_eq!(first.transcript, second.transcript, "{name}: transcript drift");
        assert_eq!(
            first.violations.iter().map(ToString::to_string).collect::<Vec<_>>(),
            second.violations.iter().map(ToString::to_string).collect::<Vec<_>>(),
            "{name}: verdict drift"
        );
        assert_eq!(first.delivered, second.delivered, "{name}: delivery-count drift");
    }
}

#[test]
fn attaching_a_sampling_trace_does_not_perturb_the_replay() {
    // Observation must be free: a soak replayed with a 1-in-N sampling
    // sink attached has to reproduce the untraced transcript and verdict
    // byte for byte, while the sampler's counters account for every event
    // it saw — kept plus sampled-out, nothing double-counted.
    let (mut cfg, plan) = fixture("soak_wedge_regression.soak");
    cfg.trace_sample = 4;
    let stack = cfg.stack.clone();
    let factory =
        |ep: EndpointAddr| build_stack(ep, &stack, StackConfig::default()).expect("stack builds");
    let untraced = run_soak(&cfg, &plan, &factory);
    let buf = Arc::new(TraceBuf::new());
    let traced = run_soak_traced(&cfg, &plan, &factory, Some(buf.clone()));
    assert_eq!(untraced.transcript, traced.transcript, "tracing perturbed the replay");
    assert_eq!(untraced.delivered, traced.delivered, "tracing perturbed delivery");
    let records = buf.take();
    assert_eq!(
        records.len() as u64,
        traced.trace_kept,
        "buffer must hold exactly the kept records"
    );
    assert!(traced.trace_kept > 0, "a wedge replay must record something at 1-in-4");
    assert!(traced.trace_sampled_out > 0, "at 1-in-4 most events must be sampled out");
    // Untraced runs report zero counters — the fields mean "what the
    // sampler saw", not "what would have been seen".
    assert_eq!((untraced.trace_kept, untraced.trace_sampled_out), (0, 0));
    // And the sampled capture replays deterministically too.
    let buf2 = Arc::new(TraceBuf::new());
    let again = run_soak_traced(&cfg, &plan, &factory, Some(buf2.clone()));
    assert_eq!(
        (again.trace_kept, again.trace_sampled_out),
        (traced.trace_kept, traced.trace_sampled_out),
        "sampling counters must be deterministic"
    );
}

/// One pinned soak run: deliveries, quiet windows, violations and the
/// digest of the view/delivery transcript.
type LedgerLine = (u64, u64, usize, u64);

fn ledger_line(outcome: &SoakOutcome) -> LedgerLine {
    let mut d = StateDigest::new();
    d.write_str(&outcome.transcript);
    (outcome.delivered, outcome.windows, outcome.violations.len(), d.finish())
}

#[test]
fn soak_ledger_pins_exact_outcomes() {
    // Exact values a noisy host cannot move.  Seeds 1, 5 and 8 carry
    // overlapping partitions and seeds 1 and 3-6 carry suspicion storms,
    // so any change to how a fault plan is scheduled or evaluated that
    // shifts one frame or one RNG draw shows up here.
    const LEDGER: &[(&str, LedgerLine)] = &[
        ("seed 1", (103, 14, 0, 0xc2887b18405e02a9)),
        ("seed 2", (132, 14, 0, 0x48577b1843596bff)),
        ("seed 3", (131, 14, 0, 0x546f5adc2f82c80e)),
        ("seed 4", (116, 14, 0, 0xc5b8f036645f21e9)),
        ("seed 5", (123, 14, 0, 0x75297c276350a087)),
        ("seed 6", (64, 14, 0, 0x7f62a964267efb4c)),
        ("seed 7", (124, 14, 0, 0xcbd61c1fd3daaffd)),
        ("seed 8", (146, 14, 0, 0xd7a74e0429467110)),
        ("soak_planted_nak.soak", (30, 14, 3, 0xf8193c88535bdc4d)),
        ("soak_wedge_regression.soak", (103, 14, 0, 0xbdf644a912ca9360)),
    ];
    let mut runs: Vec<(String, SoakConfig, SoakPlan)> = (1..=8)
        .map(|seed| {
            let cfg = SoakConfig { seed, ..SoakConfig::default() };
            let plan = gen_plan(&cfg);
            (format!("seed {seed}"), cfg, plan)
        })
        .collect();
    for name in ["soak_planted_nak.soak", "soak_wedge_regression.soak"] {
        let (cfg, plan) = fixture(name);
        runs.push((name.to_string(), cfg, plan));
    }
    let got: Vec<(String, LedgerLine)> = runs
        .iter()
        .map(|(name, cfg, plan)| (name.clone(), ledger_line(&replay(cfg, plan))))
        .collect();
    let want: Vec<(String, LedgerLine)> =
        LEDGER.iter().map(|(name, line)| (name.to_string(), *line)).collect();
    assert_eq!(got, want, "the soak ledger moved");
}
