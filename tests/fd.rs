//! FD heartbeat failure detection under the full membership stack.
//!
//! §5: the membership layer "receives failure notifications from a
//! failure-detector object" which "does not have to be correct in deciding
//! whether a process is to be considered faulty".  These tests run the FD
//! layer as that object — `MBRSHIP:FD:FRAG:NAK:COM` — and check both
//! directions of the contract: a real crash is detected and excluded
//! within a bounded number of heartbeat periods, and a *false* suspicion
//! (scripted through the detector hook) never permanently ejects a live
//! member.

mod common;

use common::*;
use horus::prelude::*;
use horus_net::{FaultRule, NetConfig};
use horus_sim::check_virtual_synchrony;
use std::time::Duration;

/// The canonical stack with the FD detector spliced under MBRSHIP.  NAK's
/// own status-silence suspicion is pushed out to 60 s so FD is the *only*
/// failure detector in play.
const FD_STACK: &str = "MBRSHIP:FD:FRAG:NAK(fail_timeout=60000):COM(promiscuous=true)";

/// Same, with MERGE on top so a falsely ejected member re-merges on its
/// own.
const FD_MERGE_STACK: &str =
    "MERGE(contacts=1,period=60):MBRSHIP:FD:FRAG:NAK(fail_timeout=60000):COM(promiscuous=true)";

#[test]
fn crash_excluded_within_bounded_heartbeat_periods() {
    // FD defaults: period 25 ms, min_timeout 75 ms, margin 3, jitter 10 ms.
    // On a quiet LAN the EWMA hovers at the period, so suspicion fires
    // within ~margin × period + jitter ≈ 85 ms of the crash; the flush adds
    // at most a few round trips.  Ten heartbeat periods (250 ms) plus one
    // flush timeout (400 ms) is a generous, still-bounded envelope.
    for seed in 1..=3 {
        let mut w = joined_world(3, seed, NetConfig::reliable(), FD_STACK);
        let t_crash = w.now() + Duration::from_millis(50);
        w.crash_at(t_crash, ep(3));
        w.run_for(Duration::from_secs(2));
        for i in 1..=2u64 {
            let v = w.installed_views(ep(i)).last().unwrap().clone();
            assert_eq!(v.members(), &[ep(1), ep(2)], "seed {seed} ep{i}: crash excluded");
            let install_time = w
                .upcalls(ep(i))
                .iter()
                .filter_map(|(at, up)| match up {
                    Up::View(view) if view.len() == 2 => Some(*at),
                    _ => None,
                })
                .next()
                .expect("exclusion view install time");
            let bound = t_crash + Duration::from_millis(10 * 25 + 400);
            assert!(
                install_time <= bound,
                "seed {seed} ep{i}: exclusion at {install_time}, bound {bound}"
            );
        }
        assert!(check_virtual_synchrony(&logs(&w, 3)).is_empty(), "seed {seed}");
    }
}

#[test]
fn scripted_false_suspicion_never_permanently_ejects() {
    // The scripted detector falsely accuses a perfectly healthy member at
    // every survivor.  The member may transiently be excluded, but with
    // MERGE running it must re-merge: by the end everyone is back in one
    // full view, across seeds, with virtual synchrony intact.
    for seed in 1..=3 {
        let mut w = joined_world(3, seed, NetConfig::reliable(), FD_MERGE_STACK);
        let t = w.now() + Duration::from_millis(20);
        for observer in [ep(1), ep(2)] {
            w.suspect_at(t, observer, ep(3));
        }
        w.run_for(Duration::from_secs(8));
        assert!(w.is_alive(ep(3)), "seed {seed}: ep3 was never actually down");
        for i in 1..=3u64 {
            let v = w.installed_views(ep(i)).last().unwrap().clone();
            assert_eq!(
                v.len(),
                3,
                "seed {seed} ep{i}: falsely suspected member must be re-merged, got {v}"
            );
        }
        assert!(check_virtual_synchrony(&logs(&w, 3)).is_empty(), "seed {seed}");
    }
}

#[test]
fn false_suspicion_storm_converges() {
    // Chaos scenario: a storm of scripted false suspicions — every member
    // accuses every other member, twice, while application traffic flows.
    // The group may fragment arbitrarily; MERGE must stitch it back into
    // one view and virtual synchrony must hold throughout.
    for seed in [5u64, 6, 7] {
        let mut w = joined_world(4, seed, NetConfig::reliable(), FD_MERGE_STACK);
        let t = w.now();
        for round in 0..2u64 {
            for observer in 1..=4u64 {
                for target in (1..=4u64).filter(|&target| target != observer) {
                    let at = t + Duration::from_millis(40 * round + 3 * observer);
                    w.suspect_at(at, ep(observer), ep(target));
                }
            }
        }
        for i in 1..=4u64 {
            w.cast_bytes_at(t + Duration::from_millis(10 * i), ep(i), &b"storm"[..]);
        }
        w.run_for(Duration::from_secs(15));
        for i in 1..=4u64 {
            assert!(w.is_alive(ep(i)), "seed {seed}: nobody actually crashed");
            let v = w.installed_views(ep(i)).last().unwrap().clone();
            assert_eq!(v.len(), 4, "seed {seed} ep{i}: storm must heal, got {v}");
        }
        assert!(check_virtual_synchrony(&logs(&w, 4)).is_empty(), "seed {seed}");
    }
}

#[test]
fn coordinator_and_successor_death_mid_flush_converges() {
    // The hardened flush watchdog.  A flush is underway, coordinated by the
    // senior member; the coordinator AND its successor both crash before
    // the cut is frozen.  The old watchdog re-suspected only the original
    // coordinator (a no-op the second time) and unicast SUSPECT reports to
    // the dead successor forever; the escalation now aims at whoever should
    // be coordinating given every known suspicion, so the survivors elect
    // one of themselves.  NAK silence suspicion is disabled (60 s) so the
    // watchdog is the only way out.
    let desc = "MBRSHIP(flush_timeout=100,tick=10):FRAG:NAK(fail_timeout=60000):\
                COM(promiscuous=true)";
    for seed in 1..=3 {
        let mut w = joined_world(5, seed, NetConfig::reliable(), desc);
        let t = w.now();
        // Contributions cannot reach the coordinator: the flush is pinned
        // open for the whole scenario window.
        w.fault_at(
            t,
            FaultRule::Cut {
                from: vec![ep(3), ep(4)],
                to: vec![ep(1)],
                start: t + Duration::from_millis(5),
                end: Some(t + Duration::from_millis(600)),
            },
        );
        // ep5 dies; the scripted detector reports it to the coordinator,
        // which starts a flush reaching every survivor.
        w.crash_at(t + Duration::from_millis(5), ep(5));
        w.suspect_at(t + Duration::from_millis(10), ep(1), ep(5));
        // Both the coordinator (ep1) and its successor (ep2) die mid-flush,
        // after the FLUSH round has gone out but long before the watchdog
        // (2 × 100 ms) would fire.
        w.crash_at(t + Duration::from_millis(30), ep(1));
        w.crash_at(t + Duration::from_millis(30), ep(2));
        w.run_for(Duration::from_secs(6));
        for i in 3..=4u64 {
            let v = w.installed_views(ep(i)).last().unwrap().clone();
            assert_eq!(
                v.members(),
                &[ep(3), ep(4)],
                "seed {seed} ep{i}: survivors must converge past two dead coordinators, got {v}"
            );
        }
        assert!(check_virtual_synchrony(&logs(&w, 5)).is_empty(), "seed {seed}");
    }
}
