//! The targeted fault-plan engine, end to end: every rule kind leaves its
//! fingerprint in the dedicated `NetStats` counter exactly when installed
//! (and never otherwise), composes with the global chaos physics, and —
//! because rules are part of the scripted schedule — a `(seed, script)`
//! pair replays byte-identically, faults and all.

mod common;

use common::*;
use horus::prelude::*;
use horus::sim::{SimWorld, Workload};
use horus::trace::TraceBuf;
use horus_core::trace::{DropReason, TraceKind};
use horus_net::{FaultRule, NetConfig};
use horus_sim::check_virtual_synchrony;
use std::sync::Arc;
use std::time::Duration;

/// A joined world plus steady all-to-all traffic so every directed link
/// carries frames during the fault window.
fn busy_world(n: u64, seed: u64, net: NetConfig) -> SimWorld {
    let mut w = joined_world(n, seed, net, VSYNC);
    let t = w.now();
    let wl = Workload::round_robin((1..=n).map(ep).collect(), 30);
    wl.schedule(&mut w, t + Duration::from_millis(1));
    w
}

fn rules() -> Vec<(&'static str, FaultRule)> {
    let start = SimTime::from_millis(3050);
    vec![
        ("directed", FaultRule::DirectedLoss { from: ep(1), to: ep(2), rate: 0.5 }),
        ("cut", FaultRule::Cut { from: vec![ep(2)], to: vec![ep(1)], start, end: None }),
        (
            "burst",
            FaultRule::Cut {
                from: vec![ep(1)],
                to: vec![ep(3)],
                start,
                end: Some(start + Duration::from_millis(400)),
            },
        ),
        ("corrupt", FaultRule::TargetedCorrupt { src: ep(3), every_nth: 2 }),
    ]
}

/// The `NetStats` class a rule of `rules()` counts in: a burst is a cut
/// with an end.
fn class(name: &str) -> &str {
    if name == "burst" {
        "cut"
    } else {
        name
    }
}

fn counter(stats: &horus_net::NetStats, which: &str) -> u64 {
    match class(which) {
        "directed" => stats.dropped_directed,
        "cut" => stats.dropped_cut,
        "corrupt" => stats.corrupted_targeted,
        _ => unreachable!(),
    }
}

#[test]
fn each_rule_type_bumps_only_its_counter_when_installed() {
    for (name, rule) in rules() {
        let mut w = busy_world(3, 11, NetConfig::reliable());
        let t = w.now();
        w.fault_at(t + Duration::from_millis(5), rule);
        w.run_for(Duration::from_secs(2));
        let stats = w.net_stats();
        assert!(
            counter(stats, name) > 0,
            "{name}: dedicated counter must be nonzero after injection, stats {stats:?}"
        );
        for (other, _) in rules() {
            if class(other) != class(name) {
                assert_eq!(
                    counter(stats, other),
                    0,
                    "{name}: counter for {other} must stay zero, stats {stats:?}"
                );
            }
        }
    }
}

#[test]
fn a_directed_loss_drop_is_traced_as_loss() {
    // A directed loss is a loss coin, not a partition: every frame the
    // network drops under a `rate: 1.0` rule is traced with reason `loss`.
    let mut w = busy_world(3, 11, NetConfig::reliable());
    let buf = Arc::new(TraceBuf::new());
    w.set_tracer(buf.clone());
    let t = w.now();
    w.fault_at(
        t + Duration::from_millis(5),
        FaultRule::DirectedLoss { from: ep(1), to: ep(2), rate: 1.0 },
    );
    w.run_for(Duration::from_secs(2));
    let reasons: Vec<DropReason> = buf
        .take()
        .into_iter()
        .filter_map(|r| match r.kind {
            TraceKind::FrameDrop { reason, .. } => Some(reason),
            _ => None,
        })
        .collect();
    assert_eq!(reasons.len() as u64, w.net_stats().dropped_directed, "one record per drop");
    assert!(!reasons.is_empty(), "the rule must have bitten");
    assert!(reasons.iter().all(|&r| r == DropReason::Loss), "got {reasons:?}");
}

#[test]
fn without_rules_every_targeted_counter_stays_zero() {
    // Same world, same seed, same traffic — an empty fault plan draws
    // nothing from the RNG and touches no counter.
    let mut w = busy_world(3, 11, NetConfig::reliable());
    w.run_for(Duration::from_secs(2));
    let stats = w.net_stats();
    for (name, _) in rules() {
        assert_eq!(counter(stats, name), 0, "no faults installed, stats {stats:?}");
    }
}

#[test]
fn asymmetric_link_partition_heals() {
    // Chaos scenario: a one-way cut makes ep3 mute toward ep1 and ep2 (it
    // can hear but not speak — the classic half-open failure).  Both sides
    // converge on excluding / being excluded, and once the cut lifts MERGE
    // stitches the group back together.  VS must hold throughout.
    let desc = "MERGE(contacts=1,period=60):MBRSHIP:FRAG:NAK:COM(promiscuous=true)";
    for seed in 1..=3 {
        let mut w = joined_world(3, seed, NetConfig::reliable(), desc);
        let t = w.now();
        let end = t + Duration::from_millis(900);
        for to in [ep(1), ep(2)] {
            w.fault_at(
                t,
                FaultRule::Cut {
                    from: vec![ep(3)],
                    to: vec![to],
                    start: t + Duration::from_millis(10),
                    end: Some(end),
                },
            );
        }
        w.run_for(Duration::from_millis(800));
        // Mid-cut: the speaking side has excluded the mute member.
        assert_eq!(
            w.installed_views(ep(1)).last().unwrap().members(),
            &[ep(1), ep(2)],
            "seed {seed}: half-open member excluded"
        );
        w.run_for(Duration::from_secs(12));
        for i in 1..=3u64 {
            let v = w.installed_views(ep(i)).last().unwrap().clone();
            assert_eq!(v.len(), 3, "seed {seed} ep{i}: asymmetric partition heals, got {v}");
        }
        assert!(check_virtual_synchrony(&logs(&w, 3)).is_empty(), "seed {seed}");
        assert!(w.net_stats().dropped_cut > 0, "seed {seed}: the cut must have bitten");
    }
}

#[test]
fn flaky_member_flaps_and_rejoins_under_faults() {
    // Chaos scenario: a flaky member — its link dies in bursts, long
    // enough to be excluded each time, then comes back.  Across repeated
    // flaps the member must always be re-merged (never permanently
    // ejected), while a targeted corruption rule garbles every third frame
    // a survivor sends.  Corrupted frames must be treated as loss (never
    // parsed) throughout.
    let desc = "MERGE(contacts=1,period=60):MBRSHIP:FRAG:NAK:COM(promiscuous=true)";
    for seed in 1..=3 {
        let mut w = joined_world(3, seed, NetConfig::reliable(), desc);
        let t0 = w.now();
        w.fault_at(t0, FaultRule::TargetedCorrupt { src: ep(2), every_nth: 3 });
        for flap in 0..2u64 {
            let t = w.now();
            for other in [ep(1), ep(2)] {
                for (from, to) in [(ep(3), other), (other, ep(3))] {
                    w.fault_at(
                        t,
                        FaultRule::Cut {
                            from: vec![from],
                            to: vec![to],
                            start: t + Duration::from_millis(10),
                            end: Some(t + Duration::from_millis(700)),
                        },
                    );
                }
            }
            w.run_for(Duration::from_millis(650));
            assert_eq!(
                w.installed_views(ep(1)).last().unwrap().members(),
                &[ep(1), ep(2)],
                "seed {seed} flap {flap}: flaky member excluded"
            );
            w.run_for(Duration::from_secs(12));
            for i in 1..=3u64 {
                let v = w.installed_views(ep(i)).last().unwrap().clone();
                assert_eq!(v.len(), 3, "seed {seed} flap {flap} ep{i}: re-merged, got {v}");
            }
        }
        assert!(w.is_alive(ep(3)), "seed {seed}: the flaky member never actually died");
        assert!(check_virtual_synchrony(&logs(&w, 3)).is_empty(), "seed {seed}");
        assert!(w.net_stats().corrupted_targeted > 0, "seed {seed}: corruption must have hit");
        assert!(w.net_stats().dropped_cut > 0, "seed {seed}: the flaps must have bitten");
    }
}

/// A fully scripted run with every rule of `rules()` active plus global
/// chaos physics; returns every observable.
fn scripted_fault_run(seed: u64) -> Vec<String> {
    let mut cfg = NetConfig::lossy(0.05);
    cfg.duplicate = 0.03;
    cfg.latency_max = Duration::from_millis(2);
    let mut w = joined_world(4, seed, cfg, VSYNC);
    let t = w.now();
    for (_, rule) in rules() {
        w.fault_at(t + Duration::from_millis(2), rule);
    }
    let wl = Workload::round_robin(vec![ep(1), ep(2), ep(3), ep(4)], 40);
    wl.schedule(&mut w, t + Duration::from_millis(5));
    w.run_for(Duration::from_secs(4));
    let mut out = Vec::new();
    for i in 1..=4u64 {
        for (at, up) in w.upcalls(ep(i)) {
            let detail = match up {
                Up::Cast { src, msg } => format!("{src}:{:?}", msg.body()),
                Up::View(v) => v.to_string(),
                other => other.kind().to_string(),
            };
            out.push(format!("ep{i} [{at}] {} {detail}", up.kind()));
        }
    }
    out.push(format!("net {:?}", w.net_stats()));
    out
}

#[test]
fn fault_scripts_replay_byte_identically() {
    for seed in [31u64, 32] {
        let a = scripted_fault_run(seed);
        let b = scripted_fault_run(seed);
        assert_eq!(a, b, "seed {seed}: (seed, script) must be one execution");
    }
    assert_ne!(scripted_fault_run(31), scripted_fault_run(32), "seeds must diverge");
}
