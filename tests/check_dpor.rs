//! The DPOR soundness differential — the gate that lets the sleep-set
//! reduction replace the old endpoint-class heuristic.
//!
//! The claim the reduction must earn: skipping a sibling run never skips a
//! *state*.  For every registry scenario, exploring with the reduction on
//! and off must
//!
//! 1. reach the same verdict (clean, or the same oracle's violation),
//! 2. visit exactly the same set of world fingerprints when both sides
//!    exhaust their bounded space (a violation stops a search early, so
//!    coverage is only comparable on clean scenarios), and
//! 3. do it in no more runs than reduction-off — with strictly fewer
//!    wherever the scenario offers commuting deliveries at all.
//!
//! The old heuristic fails criterion 2 by construction (it *filtered the
//! option list* to one endpoint class, skipping cross-endpoint orderings
//! whose intermediate states are real); sleep sets pass it because they
//! only postpone events until a dependent step, and the sleep-aware
//! visited map re-explores any state first reached with a larger sleep set.
//!
//! Depths are tuned per scenario so the *unreduced* side exhausts within
//! test time — reduction-off is the expensive arm by definition.

use horus_check::{explore_collect, explore_parallel, CheckConfig, FpSet, Scenario};
use std::time::Duration;

/// Exploration bounds per scenario: `(depth, drops, crashes, suspects)`.
/// The fault budgets mirror how each scenario is meant to be explored
/// (token3's crash budget, token4's double budget, wedge's suspicion).
fn bounds(name: &str) -> (usize, u32, u32, u32) {
    match name {
        "flush3" => (5, 1, 0, 0),
        "flush4" => (3, 1, 0, 0),
        "unordered" => (4, 0, 0, 0),
        "fifo2" => (3, 1, 0, 0),
        "token3" => (3, 0, 1, 0),
        "token4" => (2, 0, 2, 0),
        "wedge" => (3, 0, 0, 1),
        "mergerace" => (4, 0, 0, 0),
        other => panic!("no differential bounds for scenario {other}"),
    }
}

fn cfg_for(name: &str) -> CheckConfig {
    let (depth, drops, crashes, suspects) = bounds(name);
    CheckConfig {
        window: Duration::from_micros(100),
        max_depth: depth,
        max_drops: drops,
        max_crashes: crashes,
        max_suspects: suspects,
        max_states: 400_000,
        max_runs: 400_000,
        ..CheckConfig::default()
    }
}

fn diff_one(name: &str) {
    let scenario = Scenario::by_name(name).expect("registered scenario");
    let cfg = cfg_for(name);
    let (dpor, dpor_fps) = explore_collect(scenario, &cfg);
    let (off, off_fps) =
        explore_collect(scenario, &CheckConfig { reduction: false, ..cfg.clone() });

    // Criterion 1: same verdict.  Counterexample *schedules* may differ —
    // the reduced search meets the bug along a different prefix — but the
    // failing oracle may not.
    assert_eq!(
        dpor.violation.as_ref().map(|v| v.oracle),
        off.violation.as_ref().map(|v| v.oracle),
        "{name}: reduction changed the verdict (dpor {:?} vs off {:?})",
        dpor.violation,
        off.violation
    );

    // Criterion 3: the reduction never adds meaningful work.  One wrinkle:
    // under a crash budget, induced crashes keep *clearing* the sleep sets
    // (a crash commutes with nothing), so the sleep-aware visited map sees
    // the same state reached with differing sleep sets and must re-explore
    // where the plain set would prune — a few percent of extra runs that
    // buy the coverage guarantee.  Crash-budget scenarios therefore get 5%
    // slack; everything else must be at-or-below reduction-off exactly.
    let slack = if cfg.max_crashes > 0 { off.runs / 20 } else { 0 };
    assert!(
        dpor.runs <= off.runs + slack,
        "{name}: DPOR ran more than reduction-off (+slack {slack}) ({} vs {})",
        dpor.runs,
        off.runs
    );

    // Criterion 2: identical coverage — only judgeable when both sides
    // exhausted (a violation or budget stop truncates either side's set).
    if dpor.exhausted && off.exhausted {
        assert_fp_sets_equal(name, &dpor_fps, &off_fps);
    }
}

fn assert_fp_sets_equal(name: &str, dpor: &FpSet, off: &FpSet) {
    let missed: Vec<u64> = off.difference(dpor).copied().collect();
    let extra: Vec<u64> = dpor.difference(off).copied().collect();
    assert!(
        missed.is_empty() && extra.is_empty(),
        "{name}: DPOR coverage diverged from reduction-off: {} fingerprints missed, {} extra \
         (dpor {} vs off {})",
        missed.len(),
        extra.len(),
        dpor.len(),
        off.len()
    );
}

/// Prints the per-scenario differential table (the raw material of
/// EXPERIMENTS.md E27).  Ignored by default: it is a report, not a gate.
#[test]
#[ignore = "report generator; run explicitly with --ignored --nocapture"]
fn dpor_differential_table() {
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "scenario", "dpor", "off", "d-states", "o-states", "d-steps", "o-steps"
    );
    for s in Scenario::all() {
        let cfg = cfg_for(s.name);
        let (dpor, _) = explore_collect(s, &cfg);
        let (off, _) = explore_collect(s, &CheckConfig { reduction: false, ..cfg });
        println!(
            "{:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            s.name, dpor.runs, off.runs, dpor.states, off.states, dpor.steps, off.steps
        );
    }
}

// One test per scenario so CI can run (and report) them independently, and
// so one scenario's regression doesn't mask another's.

#[test]
fn dpor_differential_flush3() {
    diff_one("flush3");
}

#[test]
fn dpor_differential_flush4() {
    diff_one("flush4");
}

#[test]
fn dpor_differential_unordered() {
    diff_one("unordered");
}

#[test]
fn dpor_differential_fifo2() {
    diff_one("fifo2");
}

#[test]
fn dpor_differential_token3() {
    diff_one("token3");
}

#[test]
fn dpor_differential_token4() {
    diff_one("token4");
}

#[test]
fn dpor_differential_wedge() {
    diff_one("wedge");
}

#[test]
fn dpor_differential_mergerace() {
    diff_one("mergerace");
}

/// The reduction must actually reduce somewhere: flush3's healed trio has
/// independent deliveries to spare, so if DPOR matches reduction-off run
/// for run here, the sleep sets are dead code.
#[test]
fn dpor_reduces_flush3_runs() {
    let scenario = Scenario::by_name("flush3").expect("registered scenario");
    let cfg = cfg_for("flush3");
    let (dpor, _) = explore_collect(scenario, &cfg);
    let (off, _) = explore_collect(scenario, &CheckConfig { reduction: false, ..cfg });
    assert!(dpor.exhausted && off.exhausted, "both sides must exhaust");
    assert!(
        dpor.runs < off.runs,
        "sleep sets pruned nothing on flush3 ({} vs {} runs)",
        dpor.runs,
        off.runs
    );
}

/// Worker-count determinism must survive the sleep sets: jobs now carry
/// sleep state, and the report has to stay a pure function of scenario and
/// config — not of which worker popped which job first.
#[test]
fn dpor_parallel_report_is_worker_count_independent() {
    for name in ["flush3", "mergerace"] {
        let scenario = Scenario::by_name(name).expect("registered scenario");
        let cfg = cfg_for(name);
        let one = explore_parallel(scenario, &cfg, 1);
        let four = explore_parallel(scenario, &cfg, 4);
        assert_eq!(one.runs, four.runs, "{name}: worker count changed the run set");
        assert_eq!(one.states, four.states, "{name}: worker count changed state accounting");
        assert_eq!(one.steps, four.steps, "{name}: worker count changed executed steps");
        assert_eq!(one.exhausted, four.exhausted, "{name}");
        assert_eq!(
            one.violation.map(|v| (v.oracle, v.choices)),
            four.violation.map(|v| (v.oracle, v.choices)),
            "{name}: worker count changed the verdict"
        );
    }
}
