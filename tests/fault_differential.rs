//! Differential equivalence for the set cut.
//!
//! `FaultRule::Cut` drops every frame from an endpoint in `from` to an
//! endpoint in `to` inside its window; its semantics are *defined* to equal
//! the per-link cuts it covers.  This suite holds the implementation to
//! that definition byte-for-byte: two worlds built from the same seed, one
//! carrying a symmetric partition as one set cut each way and one carrying
//! the same partition as one-endpoint cuts, must produce identical
//! delivery transcripts — same views, same casts, same timestamps.  Any
//! divergence (a missed direction, an off-by-one on the window edge, an
//! RNG draw consumed by one encoding but not the other) shows up as a
//! transcript diff.  A scripted `partition_at` + `heal_at` is held to its
//! windowed cuts the same way.

mod common;

use common::*;
use horus::prelude::*;
use horus::sim::soak::transcript;
use horus::sim::{SimWorld, Workload};
use horus_net::{FaultRule, NetConfig};
use std::time::Duration;

/// Runs a 3-member VSYNC world with steady traffic and whatever `script`
/// schedules, handed the world and its settle time; returns the delivery
/// transcript.
fn run_script(seed: u64, script: impl FnOnce(&mut SimWorld, SimTime)) -> String {
    let mut w = joined_world(3, seed, NetConfig::reliable(), VSYNC);
    let t = w.now();
    let wl = Workload::round_robin(vec![ep(1), ep(2), ep(3)], 12);
    wl.schedule(&mut w, t + Duration::from_millis(1));
    script(&mut w, t);
    w.run_for(Duration::from_secs(4));
    transcript(&w, &[ep(1), ep(2), ep(3)])
}

/// [`run_script`] with the given fault rules installed 2ms after assembly.
fn run_with(rules: Vec<FaultRule>, seed: u64) -> String {
    run_script(seed, |w, t| {
        for r in rules {
            w.fault_at(t + Duration::from_millis(2), r);
        }
    })
}

/// A cut over the window every encoding below uses, relative to the
/// settle time of `joined_world` (3s).
fn cut(from: &[u64], to: &[u64]) -> FaultRule {
    let start = SimTime::from_millis(3010);
    FaultRule::Cut {
        from: from.iter().copied().map(ep).collect(),
        to: to.iter().copied().map(ep).collect(),
        start,
        end: Some(start + Duration::from_millis(800)),
    }
}

/// The partition `{1} | {2, 3}` as one set cut each way.
fn set_encoding() -> Vec<FaultRule> {
    vec![cut(&[1], &[2, 3]), cut(&[2, 3], &[1])]
}

/// The same partition as one cut per directed link.
fn per_link_encoding() -> Vec<FaultRule> {
    let mut rules = Vec::new();
    for b in [2, 3] {
        rules.push(cut(&[1], &[b]));
        rules.push(cut(&[b], &[1]));
    }
    rules
}

#[test]
fn a_set_cut_equals_its_per_link_cuts() {
    for seed in [7, 19] {
        let via_sets = run_with(set_encoding(), seed);
        let via_links = run_with(per_link_encoding(), seed);
        assert_eq!(
            via_sets, via_links,
            "seed {seed}: a set cut must behave exactly like its links"
        );
    }
}

#[test]
fn the_window_actually_bites() {
    // Guard against a vacuous equivalence: a cut that never dropped a
    // frame would also "equal" its per-link encoding.  The faulted
    // transcript must differ from the fault-free one (recovered casts
    // arrive late).
    let faulted = run_with(set_encoding(), 7);
    let clean = run_with(Vec::new(), 7);
    assert_ne!(faulted, clean, "the cut window must perturb delivery");
}

#[test]
fn half_the_cuts_are_not_a_partition() {
    // Dropping only the outbound directions models an asymmetric fault and
    // must NOT match the symmetric partition: ep:1's frames die, but the
    // replies still reach it, so NAK recovery behaves differently.
    let asymmetric = run_with(vec![cut(&[1], &[2]), cut(&[1], &[3])], 7);
    let symmetric = run_with(set_encoding(), 7);
    assert_ne!(asymmetric, symmetric, "cut direction must matter");
}

#[test]
fn a_scripted_partition_equals_its_windowed_cuts() {
    // Off the workload's whole-millisecond instants: a cast an earlier
    // entry schedules at the partition's own instant leaves before the
    // partition entry fires, while a windowed cut already covers it.
    let (start, end) = (SimTime::from_micros(3_010_500), SimTime::from_micros(3_810_500));
    let sides = [vec![ep(1)], vec![ep(2), ep(3)]];
    for seed in [7, 19] {
        let scripted = run_script(seed, |w, _| {
            w.partition_at(start, &[&sides[0], &sides[1]]);
            w.heal_at(end);
        });
        let windowed = run_with(FaultRule::partition(&sides, start, Some(end)), seed);
        assert_eq!(
            scripted, windowed,
            "seed {seed}: a partition must behave exactly like its cuts"
        );
    }
}
