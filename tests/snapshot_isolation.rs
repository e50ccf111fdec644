//! World snapshots share almost everything with their original — endpoint
//! slots, calendar entries, vector clocks, logs, the network's maps — and
//! copy a piece only when one side first changes it.  Sharing must be
//! invisible: after `snapshot()`, nothing one world does may show in the
//! other, and each must end exactly where a world rebuilt from scratch and
//! driven down the same choices ends.
//!
//! For every registry scenario this drives an original, a snapshot of it and
//! a snapshot of the snapshot down *different* schedules, step by step in
//! lockstep, checks after every step that the world that did not move did
//! not change, and finally holds each to its stateless replay.

use horus_check::Scenario;
use horus_core::prelude::*;
use horus_sim::SimWorld;
use std::time::Duration;

/// The explorer's ready window.
const WINDOW: Duration = Duration::from_micros(100);
/// Steps per leg: enough for the scripted partition, crash and heal of the
/// flush scenarios to fire and the stacks to react.
const LEG: u64 = 60;

/// A deterministic way to pick the next step from the ready set.
#[derive(Debug, Clone, Copy)]
enum Policy {
    /// Calendar order.
    First,
    /// The last event of the window; every third step drops it instead when
    /// it is a remote delivery.
    LastOrDrop,
}

/// Everything a world lets an observer see.
#[derive(Debug, PartialEq)]
struct Observed {
    now: SimTime,
    upcalls: Vec<String>,
    pending: usize,
    net_stats: String,
    fingerprint: u64,
    fingerprint_fresh: u64,
}

fn observe(scenario: &Scenario, w: &SimWorld) -> Observed {
    Observed {
        now: w.now(),
        upcalls: (1..=scenario.members)
            .map(|m| format!("{:?}", w.upcalls(EndpointAddr::new(m))))
            .collect(),
        pending: w.pending_events(),
        net_stats: format!("{:?}", w.net_stats()),
        fingerprint: w.fingerprint(),
        fingerprint_fresh: w.fingerprint_fresh(),
    }
}

/// One step of `policy`; `n` is the step's index within its leg.  False
/// once nothing is pending.
fn step(w: &mut SimWorld, policy: Policy, n: u64) -> bool {
    let ready = w.ready_events(WINDOW);
    let Some(&last) = ready.last() else { return false };
    match policy {
        Policy::First => w.fire(ready[0].id),
        Policy::LastOrDrop if n % 3 == 2 && last.kind.droppable() => w.drop_pending(last.id),
        Policy::LastOrDrop => w.fire(last.id),
    }
}

fn drive(w: &mut SimWorld, policy: Policy, steps: u64) {
    for n in 0..steps {
        step(w, policy, n);
    }
}

/// The stateless oracle: a fresh build driven down `legs`.
fn replayed(scenario: &Scenario, legs: &[(Policy, u64)]) -> Observed {
    let mut w = scenario.build();
    for &(policy, steps) in legs {
        drive(&mut w, policy, steps);
    }
    observe(scenario, &w)
}

/// `fingerprint_first`: whether the original is fingerprinted before the
/// snapshot (its dirty queue drained, caches warm) or only after it — the
/// second is the case where both worlds hold the same slot *and* both still
/// have it queued dirty, so the parent's fingerprint must not clean the
/// child's mark.
fn isolation(scenario: &Scenario, fingerprint_first: bool) {
    let name = scenario.name;
    let mut original = scenario.build();
    if fingerprint_first {
        original.fingerprint();
    }
    let mut child = original.snapshot().expect("registry stacks support snapshots");
    let at_snapshot = observe(scenario, &original);
    assert_eq!(observe(scenario, &child), at_snapshot, "{name}: a snapshot equals its original");

    // First leg: original and child in lockstep down different schedules.
    for n in 0..LEG {
        let child_before = observe(scenario, &child);
        step(&mut original, Policy::First, n);
        assert_eq!(observe(scenario, &child), child_before, "{name}: original's step {n} leaked");
        let original_before = observe(scenario, &original);
        step(&mut child, Policy::LastOrDrop, n);
        assert_eq!(
            observe(scenario, &original),
            original_before,
            "{name}: child's step {n} leaked"
        );
    }

    // Second leg: a grandchild forks off the child mid-run and the two
    // swap policies; the original sits still and must not notice either.
    let original_parked = observe(scenario, &original);
    let mut grandchild = child.snapshot().expect("snapshot of a snapshot");
    for n in 0..LEG {
        let grandchild_before = observe(scenario, &grandchild);
        step(&mut child, Policy::LastOrDrop, n);
        assert_eq!(
            observe(scenario, &grandchild),
            grandchild_before,
            "{name}: child's step {n} leaked into its snapshot"
        );
        let child_before = observe(scenario, &child);
        step(&mut grandchild, Policy::First, n);
        assert_eq!(observe(scenario, &child), child_before, "{name}: grandchild's step {n} leaked");
    }
    assert_eq!(observe(scenario, &original), original_parked, "{name}: a parked world changed");

    // Each world is where a rebuilt world driven down the same choices is.
    use Policy::{First, LastOrDrop};
    assert_eq!(observe(scenario, &original), replayed(scenario, &[(First, LEG)]), "{name}");
    assert_eq!(
        observe(scenario, &child),
        replayed(scenario, &[(LastOrDrop, LEG), (LastOrDrop, LEG)]),
        "{name}: child"
    );
    assert_eq!(
        observe(scenario, &grandchild),
        replayed(scenario, &[(LastOrDrop, LEG), (First, LEG)]),
        "{name}: grandchild"
    );
    assert_ne!(
        observe(scenario, &child).fingerprint,
        observe(scenario, &original).fingerprint,
        "{name}: the two schedules were meant to diverge"
    );
}

#[test]
fn snapshots_are_isolated_and_equal_their_stateless_replay() {
    for scenario in Scenario::all() {
        isolation(scenario, true);
    }
}

#[test]
fn snapshot_of_a_world_with_dirty_slots_keeps_its_own_dirty_marks() {
    // `build()` never fingerprints, so every endpoint is still queued dirty
    // when the snapshot is taken; the lockstep drive then fingerprints the
    // original (through `observe`) before the child first dispatches into
    // the slot they share.
    for scenario in Scenario::all() {
        isolation(scenario, false);

        // And with the child never fingerprinted before it moves.
        let original = scenario.build();
        let mut child = original.snapshot().unwrap();
        original.fingerprint();
        drive(&mut child, Policy::First, 3);
        assert_eq!(child.fingerprint(), child.fingerprint_fresh(), "{}", scenario.name);
        assert_eq!(observe(scenario, &child), replayed(scenario, &[(Policy::First, 3)]));
        assert_eq!(observe(scenario, &original), replayed(scenario, &[]));
    }
}

#[test]
fn take_upcalls_on_one_side_leaves_the_other_its_log() {
    let scenario = Scenario::by_name("flush3").unwrap();
    let mut original = scenario.build();
    let child = original.snapshot().unwrap();
    let a = EndpointAddr::new(1);
    let log = format!("{:?}", child.upcalls(a));
    let taken = original.take_upcalls(a);
    assert_eq!(format!("{taken:?}"), log);
    assert!(original.upcalls(a).is_empty());
    assert_eq!(format!("{:?}", child.upcalls(a)), log);
    assert_eq!(child.fingerprint(), child.fingerprint_fresh());
}
