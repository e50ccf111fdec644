//! Differential tests for the incremental fingerprints.
//!
//! The incremental fingerprint (`SimWorld::fingerprint`) exists purely as a
//! performance optimization over the from-scratch walk
//! (`SimWorld::fingerprint_fresh`) — the two must be *bit-identical* at
//! every observable instant, or visited-state pruning silently changes the
//! explored space.  The first test drives every registered scenario in
//! calendar order and compares at each step (debug builds also compare at
//! every step of every explorer run and fixture replay; `check_dpor` holds
//! whole explorations through the two paths to the same fingerprint set).
//! The second holds `SimWorld::fingerprint_without` — the fingerprint a drop
//! would leave, which the explorer decides drop siblings by — to both paths
//! on a snapshot that really dropped the entry.

use horus_check::Scenario;
use horus_core::prelude::SimTime;
use horus_sim::{ReadyEvent, Scheduler, SimWorld, Step};
use std::time::Duration;

/// A scheduler that follows calendar order while asserting, at every single
/// step, that the cached fingerprint matches a fresh recomputation.
struct DiffScheduler {
    steps: u64,
}

impl Scheduler for DiffScheduler {
    fn next_step(&mut self, world: &SimWorld, _ready: &[ReadyEvent]) -> Step {
        assert_eq!(
            world.fingerprint(),
            world.fingerprint_fresh(),
            "incremental fingerprint diverged from fresh recomputation at step {}",
            self.steps
        );
        self.steps += 1;
        Step::Fire(0)
    }
}

#[test]
fn incremental_fingerprint_matches_fresh_on_every_scenario() {
    // Calendar-order drive of every registered scenario, checking the
    // differential at each step.  This exercises the full mutation surface
    // the scenarios reach: dispatch into stacks, timer churn, membership
    // changes, partitions, heals, crashes, and suspicions.
    for scenario in Scenario::all() {
        let mut w = scenario.build();
        let mut sched = DiffScheduler { steps: 0 };
        w.run_scheduled(&mut sched, Duration::ZERO, scenario.deadline());
        assert!(sched.steps > 0, "scenario {} executed no steps", scenario.name);
        assert_eq!(
            w.fingerprint(),
            w.fingerprint_fresh(),
            "divergence at the deadline of scenario {}",
            scenario.name
        );
    }
}

/// A calendar-order scheduler that, at every step, drops each droppable
/// ready event in a snapshot and holds the dropped world's fingerprints to
/// what `fingerprint_without` predicted from the undropped one.
struct DropDiffScheduler {
    drops: u64,
}

impl Scheduler for DropDiffScheduler {
    fn next_step(&mut self, world: &SimWorld, ready: &[ReadyEvent]) -> Step {
        for ev in ready.iter().filter(|ev| ev.kind.droppable()) {
            let predicted = world.fingerprint_without(ev.id).expect("a pending entry");
            let mut dropped = world.snapshot().expect("scenario worlds snapshot");
            assert!(dropped.drop_pending(ev.id), "ready remote delivery must drop");
            assert_eq!(predicted, dropped.fingerprint(), "cached, after dropping {:?}", ev.id);
            assert_eq!(predicted, dropped.fingerprint_fresh(), "fresh, after dropping {:?}", ev.id);
            assert_eq!(dropped.fingerprint_without(ev.id), None, "no longer pending");
            self.drops += 1;
        }
        Step::Fire(0)
    }
}

#[test]
fn fingerprint_without_matches_a_real_drop_on_every_scenario() {
    // The explorer decides a drop sibling at spawn from the fingerprint the
    // drop *would* leave; a wrong prediction would book a sibling that
    // reaches a new state as pruned.  The window is the explorer's default,
    // so each step offers the drops a branch point would.
    for scenario in Scenario::all() {
        let mut w = scenario.build();
        assert_eq!(w.fingerprint_without((SimTime::ZERO, 0)), None, "never-scheduled id");
        let mut sched = DropDiffScheduler { drops: 0 };
        w.run_scheduled(&mut sched, Duration::from_micros(100), scenario.deadline());
        assert!(sched.drops > 0, "scenario {} offered no drop", scenario.name);
    }
    // An untracked world keeps no pending sums to take an entry out of.
    let scenario = Scenario::by_name("flush3").unwrap();
    let mut w = scenario.build();
    w.set_pending_tracking(false);
    let ready = w.ready_events(Duration::from_micros(100));
    let id = ready.first().expect("flush3 has pending events after settling").id;
    assert_eq!(w.fingerprint_without(id), None, "untracked world");
}
