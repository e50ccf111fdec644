//! The explorer differential: the fast path against the one oracle.
//!
//! The fast path (`CheckConfig::default()`) stacks three mechanisms — the
//! sleep-set reduction, incremental fingerprints, snapshot-resumed siblings
//! — and the oracle (`oracle: true`) has none of them: every sibling run,
//! every fingerprint re-digested from scratch, every run a stateless replay
//! from `Scenario::build`.  The claim the fast path must earn: skipping a
//! sibling run never skips a *state*, a cached digest is the digest, and a
//! resumed world is the replayed world.  For every registry scenario the
//! two must
//!
//! 1. reach the same verdict (clean, or the same oracle's violation),
//! 2. visit exactly the same set of world fingerprints when both sides
//!    exhaust their bounded space (a violation stops a search early, so
//!    coverage is only comparable on clean scenarios), and
//! 3. the fast path must do it in no more runs than the oracle — with
//!    strictly fewer wherever the scenario offers commuting deliveries.
//!
//! The endpoint-class heuristic the sleep sets replaced fails criterion 2
//! by construction (it *filtered the option list* to one endpoint class,
//! skipping cross-endpoint orderings whose intermediate states are real);
//! sleep sets pass it because they only postpone events until a dependent
//! step, and the sleep-aware visited map re-explores any state first
//! reached with a larger sleep set.  A fingerprint cache with a missed
//! dirty mark, or a snapshot that shares state it should have copied,
//! would fail it too: the two sets are computed by disjoint code.
//!
//! Depths are tuned per scenario so the oracle exhausts within test time —
//! it is the expensive arm by definition.

use horus_check::{explore_collect, CheckConfig, CheckReport, FpSet, Scenario};
use std::sync::OnceLock;
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

/// Explores `name` both ways, holds the two to the three criteria, and
/// hands back `(fast, oracle)` for scenario-specific pins.
fn diff_one(name: &str) -> (CheckReport, CheckReport) {
    let scenario = Scenario::by_name(name).expect("registered scenario");
    let cfg = cfg_for(name);
    let (dpor, dpor_fps) = explore_collect(scenario, &cfg);
    let (off, off_fps) = explore_collect(scenario, &CheckConfig { oracle: true, ..cfg.clone() });

    // Criterion 1: same verdict.  Counterexample *schedules* may differ —
    // the reduced search meets the bug along a different prefix — but the
    // failing invariant may not.
    assert_eq!(
        dpor.violation.as_ref().map(|v| v.oracle),
        off.violation.as_ref().map(|v| v.oracle),
        "{name}: the fast path changed the verdict (fast {:?} vs oracle {:?})",
        dpor.violation,
        off.violation
    );

    // Criterion 3: the reduction never adds meaningful runs.  One wrinkle:
    // under a crash budget, induced crashes keep *clearing* the sleep sets
    // (a crash commutes with nothing), so the sleep-aware visited map sees
    // the same state reached with differing sleep sets and must re-explore
    // where the plain set would prune — a few percent of extra runs that
    // buy the coverage guarantee.  Crash-budget scenarios therefore get 5%
    // slack; everything else must be at-or-below the oracle exactly.
    let slack = if cfg.max_crashes > 0 { off.runs / 20 } else { 0 };
    assert!(
        dpor.runs <= off.runs + slack,
        "{name}: the fast path ran more than the oracle (+slack {slack}) ({} vs {})",
        dpor.runs,
        off.runs
    );

    // Criterion 2: identical coverage — only judgeable when both sides
    // exhausted (a violation or budget stop truncates either side's set).
    if dpor.exhausted && off.exhausted {
        assert_fp_sets_equal(name, &dpor_fps, &off_fps);
    }
    (dpor, off)
}

fn assert_fp_sets_equal(name: &str, dpor: &FpSet, off: &FpSet) {
    let missed: Vec<u64> = off.difference(dpor).copied().collect();
    let extra: Vec<u64> = dpor.difference(off).copied().collect();
    assert!(
        missed.is_empty() && extra.is_empty(),
        "{name}: fast-path coverage diverged from the oracle's: {} fingerprints missed, {} extra \
         (fast {} vs oracle {})",
        missed.len(),
        extra.len(),
        dpor.len(),
        off.len()
    );
}

// One test per scenario so CI can run (and report) them independently, and
// so one scenario's regression doesn't mask another's.

/// The flush3 pair, explored once for the two tests that read it (the
/// oracle side is the most expensive search in this file).
fn flush3_pair() -> &'static (CheckReport, CheckReport) {
    static PAIR: OnceLock<(CheckReport, CheckReport)> = OnceLock::new();
    PAIR.get_or_init(|| diff_one("flush3"))
}

#[test]
fn dpor_differential_flush3() {
    let (fast, oracle) = flush3_pair();
    assert!(fast.exhausted && oracle.exhausted, "the set comparison must not be vacuous");
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
/// independent deliveries to spare, so if the fast path matches the oracle
/// run for run here, the sleep sets are dead code.  The counts are exact:
/// exploration is deterministic.  `branch_points` is pinned too, because a
/// drop sibling decided at spawn books its branch points by hand.
#[test]
fn dpor_reduces_flush3_runs() {
    let (fast, oracle) = flush3_pair();
    assert!(fast.violation.is_none(), "flush3 must be clean: {:?}", fast.violation);
    assert_eq!(
        (fast.runs, fast.states, fast.steps, fast.branch_points, fast.pruned, fast.exhausted),
        (2021, 5357, 7029, 8556, 2017, true),
        "the fast path's flush3 (depth 5, 1 drop) search changed"
    );
    assert_eq!(
        (oracle.runs, oracle.states, oracle.exhausted),
        (4329, 5357, true),
        "the oracle's flush3 (depth 5, 1 drop) search changed"
    );
}
