//! The soak census: which seeds of a chaos-soak row violate, held to a
//! committed list.
//!
//! CI's seeded campaign runs seeds 1–10 and must be clean; these rows run
//! the same generated plans over hundreds of seeds, where some are known
//! not to be.  Each row's list is exact: a seed that starts violating
//! fails the test with its first verdict, and a listed seed that runs
//! clean fails it too ("seed N is now clean: remove it"), so the list
//! shrinks in the change that fixes it and says why.
//!
//! A row takes seconds in release (the six together 30–45 s on two
//! vCPUs) and minutes in debug, so the tests are ignored in tier-1 and
//! run by CI as
//! `cargo test --release --test soak_census -- --ignored`.

use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus::sim::soak::{gen_plan, run_soak, SoakConfig};
use std::ops::RangeInclusive;

/// `SoakConfig::default()` over seeds 1–1000.  240 and 466 break safety
/// (a delivery disagreement); the rest are liveness verdicts.
const DEFAULT_ROW: &[u64] = &[
    91, 111, 133, 141, 174, 198, 210, 240, 335, 364, 379, 392, 466, 485, 580, 607, 643, 671, 695,
    769, 791, 793, 901, 994,
];

/// TOTAL on top of the default stack, judged with `check_total`, over
/// seeds 1–300.  240 breaks total order; the rest are liveness verdicts.
const TOTAL_ROW: &[u64] = &[109, 133, 141, 162, 174, 198, 240];

/// Runs `cfg` at every seed of `seeds` and fails unless the violating
/// seeds are exactly `listed`.
fn census(cfg: SoakConfig, seeds: RangeInclusive<u64>, listed: &[u64]) {
    let stack = cfg.stack.clone();
    let factory =
        |ep: EndpointAddr| build_stack(ep, &stack, StackConfig::default()).expect("stack builds");
    let mut wrong = Vec::new();
    let mut violating = Vec::new();
    for seed in seeds {
        let cfg = SoakConfig { seed, ..cfg.clone() };
        let outcome = run_soak(&cfg, &gen_plan(&cfg), &factory);
        match (outcome.violations.first(), listed.contains(&seed)) {
            (Some(first), false) => wrong.push(format!("seed {seed} now violates: {first}")),
            (None, true) => wrong.push(format!("seed {seed} is now clean: remove it")),
            _ => {}
        }
        if !outcome.violations.is_empty() {
            violating.push(seed);
        }
    }
    assert!(
        wrong.is_empty(),
        "{}: the census moved:\n{}\nviolating seeds: {violating:?}",
        cfg.stack,
        wrong.join("\n")
    );
}

#[test]
#[ignore = "release-only census, run by CI"]
fn default_row_violates_exactly_the_listed_seeds() {
    census(SoakConfig::default(), 1..=1000, DEFAULT_ROW);
}

#[test]
#[ignore = "release-only census, run by CI"]
fn total_row_violates_exactly_the_listed_seeds() {
    let default = SoakConfig::default();
    let cfg =
        SoakConfig { stack: format!("TOTAL:{}", default.stack), check_total: true, ..default };
    census(cfg, 1..=300, TOTAL_ROW);
}

/// The default row at 2 000 casts, over seeds 1–300.  240 breaks safety
/// (a delivery disagreement); the rest are liveness verdicts.
const CASTS_2000_ROW: &[u64] = &[19, 103, 109, 174, 198, 217, 240];

/// The default row at 6 000 casts, over seeds 1–120.  2 breaks safety (a
/// delivery disagreement); the rest are liveness verdicts.
const CASTS_6000_ROW: &[u64] = &[2, 73, 106, 109];

/// The default row with six members, over seeds 1–300.  172 breaks safety
/// (a delivery disagreement); the rest are liveness verdicts.
const MEMBERS_6_ROW: &[u64] = &[2, 4, 11, 39, 53, 81, 121, 131, 156, 172, 211, 223, 258, 291];

/// The default row with 14 chaos events, over seeds 1–300.  291 breaks
/// safety (a delivery disagreement); the rest are liveness verdicts.
const EVENTS_14_ROW: &[u64] = &[12, 83, 128, 167, 196, 213, 264, 285, 291];

#[test]
#[ignore = "release-only census, run by CI"]
fn casts_2000_row_violates_exactly_the_listed_seeds() {
    census(SoakConfig { casts: 2000, ..SoakConfig::default() }, 1..=300, CASTS_2000_ROW);
}

#[test]
#[ignore = "release-only census, run by CI"]
fn casts_6000_row_violates_exactly_the_listed_seeds() {
    census(SoakConfig { casts: 6000, ..SoakConfig::default() }, 1..=120, CASTS_6000_ROW);
}

#[test]
#[ignore = "release-only census, run by CI"]
fn members_6_row_violates_exactly_the_listed_seeds() {
    census(SoakConfig { members: 6, ..SoakConfig::default() }, 1..=300, MEMBERS_6_ROW);
}

#[test]
#[ignore = "release-only census, run by CI"]
fn events_14_row_violates_exactly_the_listed_seeds() {
    census(SoakConfig { events: 14, ..SoakConfig::default() }, 1..=300, EVENTS_14_ROW);
}
