//! E1 — the HCPI surface (Tables 1 and 2).
//!
//! Every downcall of Table 1 is issued against a live stack and every
//! upcall of Table 2 is observed (or shown to be reachable), proving the
//! full interface of the paper exists and round-trips.

mod common;

use common::*;
use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus::sim::SimWorld;
use horus_net::NetConfig;
use std::collections::BTreeSet;
use std::time::Duration;

/// Collects the distinct upcall kinds an endpoint has seen.
fn kinds_seen(w: &SimWorld, e: EndpointAddr) -> BTreeSet<&'static str> {
    w.upcalls(e).iter().map(|(_, up)| up.kind()).collect()
}

#[test]
fn every_downcall_is_issuable_and_upcalls_flow() {
    // Stack with membership + stability so all call classes apply.
    // App-driven STABLE (so the `ack` downcall is load-bearing); no SAFE
    // above it, which would hold deliveries the app then could not ack.
    let desc = "STABLE(auto_ack=false):MBRSHIP(auto_merge=false):FRAG:NAK:COM(promiscuous=true)";
    let mut w = SimWorld::new(1, NetConfig::reliable());
    for i in 1..=3 {
        let s = build_stack(ep(i), desc, StackConfig::default()).unwrap();
        w.add_endpoint(s);
        // Table 1 `endpoint` = stack creation; `join`:
        w.join(ep(i), group());
    }
    w.run_for(Duration::from_millis(50));

    // Table 1 `merge` (+ MERGE_REQUEST / merge_granted on the other side).
    w.down(ep(2), Down::Merge { contact: ep(1) });
    w.run_for(Duration::from_secs(1));
    let req = w
        .upcalls(ep(1))
        .iter()
        .find_map(|(_, up)| match up {
            Up::MergeRequest { id, .. } => Some(*id),
            _ => None,
        })
        .expect("MERGE_REQUEST upcall (Table 2)");
    w.down(ep(1), Down::MergeGranted(req));
    w.run_for(Duration::from_secs(1));
    assert_eq!(w.installed_views(ep(2)).last().unwrap().len(), 2);

    // A denied merge produces MERGE_DENIED at the requester.
    w.down(ep(3), Down::Merge { contact: ep(1) });
    w.run_for(Duration::from_millis(300));
    let req3 = w
        .upcalls(ep(1))
        .iter()
        .filter_map(|(_, up)| match up {
            Up::MergeRequest { id, .. } => Some(*id),
            _ => None,
        })
        .next_back()
        .expect("second merge request");
    w.down(ep(1), Down::MergeDenied(req3));
    w.run_for(Duration::from_secs(1));
    assert!(
        kinds_seen(&w, ep(3)).contains("MERGE_DENIED"),
        "MERGE_DENIED upcall (Table 2): {:?}",
        kinds_seen(&w, ep(3))
    );
    // Let ep3 in after all (auto path next round, granted this time).
    w.down(ep(3), Down::Merge { contact: ep(1) });
    w.run_for(Duration::from_millis(300));
    let req3b = w
        .upcalls(ep(1))
        .iter()
        .filter_map(|(_, up)| match up {
            Up::MergeRequest { id, .. } => Some(*id),
            _ => None,
        })
        .next_back()
        .unwrap();
    w.down(ep(1), Down::MergeGranted(req3b));
    w.run_for(Duration::from_secs(1));
    assert_eq!(w.installed_views(ep(1)).last().unwrap().len(), 3);

    // Table 1 `cast` and `send`.
    w.cast_bytes(ep(1), &b"to everyone"[..]);
    let msg = w.stack(ep(1)).unwrap().new_message(&b"to ep2 only"[..]);
    w.down(ep(1), Down::Send { dests: vec![ep(2)], msg });
    w.run_for(Duration::from_secs(1));

    // Table 1 `ack` + `stable` (application-defined stability, §9):
    // acknowledge the delivered cast everywhere; STABLE upcalls report it.
    for i in 1..=3 {
        let id = w
            .upcalls(ep(i))
            .iter()
            .find_map(|(_, up)| match up {
                Up::Cast { msg, .. } => msg.meta.msg_id(),
                _ => None,
            })
            .expect("delivered with stability id");
        w.down(ep(i), Down::Ack(id));
        w.down(ep(i), Down::Stable(id));
    }
    w.run_for(Duration::from_secs(1));

    // Table 1 `flush` (application-initiated) + `flush_ok`.
    w.down(ep(1), Down::Flush { failed: vec![] });
    w.down(ep(1), Down::FlushOk);
    w.run_for(Duration::from_secs(1));

    // Table 1 `view`: an application-driven view installation reaching the
    // lower layers (exercised against a bare stack to avoid fighting
    // MBRSHIP's own agreement).
    let mut bare = build_stack(ep(9), "NAK:COM", StackConfig::default()).unwrap();
    let v = horus_core::View::initial(group(), ep(9));
    let fx = bare.handle(StackInput::FromApp(Down::InstallView(v)));
    assert!(fx.is_empty(), "view downcall consumed by COM");

    // Table 1 `dump` + `focus`.
    w.down(ep(1), Down::Dump);
    w.run_for(Duration::from_millis(10));
    assert!(kinds_seen(&w, ep(1)).contains("DUMP_INFO"));
    assert!(w.stack(ep(1)).unwrap().focus("NAK").is_some());

    // Table 2 VIEW/CAST/SEND/STABLE/FLUSH/FLUSH_OK/MERGE_REQUEST seen.
    let seen1 = kinds_seen(&w, ep(1));
    for k in ["VIEW", "CAST", "STABLE", "FLUSH", "FLUSH_OK", "MERGE_REQUEST", "DUMP_INFO"] {
        assert!(seen1.contains(k), "ep1 should have seen {k}: {seen1:?}");
    }
    let seen2 = kinds_seen(&w, ep(2));
    assert!(seen2.contains("SEND"), "subset send received: {seen2:?}");

    // Table 1 `leave` → Table 2 LEAVE at survivors, EXIT at the leaver.
    w.down(ep(3), Down::Leave);
    w.run_for(Duration::from_secs(2));
    assert!(kinds_seen(&w, ep(3)).contains("EXIT"));
    assert!(kinds_seen(&w, ep(1)).contains("LEAVE"));

    // Table 1 `destroy` → Table 2 DESTROY.
    w.down(ep(2), Down::Destroy);
    w.run_for(Duration::from_millis(100));
    assert!(kinds_seen(&w, ep(2)).contains("DESTROY"));
}

#[test]
fn problem_and_lost_message_upcalls_surface() {
    // PROBLEM: a member goes silent.  LOST_MESSAGE: the NAK layer's
    // placeholder (driven via a tiny retransmission buffer + partition).
    let mut w = SimWorld::new(2, NetConfig::reliable());
    for i in 1..=2 {
        let s = build_stack(ep(i), "NAK(buffer=2,fail_timeout=120):COM", StackConfig::default())
            .unwrap();
        w.add_endpoint(s);
        w.join(ep(i), group());
    }
    let v = horus_core::View::initial(group(), ep(1)).with_joined(&[ep(2)]);
    for i in 1..=2 {
        w.down(ep(i), Down::InstallView(v.clone()));
    }
    w.partition_at(SimTime::from_millis(1), &[&[ep(1)], &[ep(2)]]);
    for k in 0..10u8 {
        w.cast_bytes_at(SimTime::from_millis(2 + k as u64), ep(1), vec![k]);
    }
    w.heal_at(SimTime::from_millis(400));
    w.run_for(Duration::from_secs(3));
    let kinds = kinds_seen(&w, ep(2));
    assert!(kinds.contains("LOST_MESSAGE"), "{kinds:?}");
    // During the partition, silence raised PROBLEM on both sides.
    assert!(kinds.contains("PROBLEM") || kinds_seen(&w, ep(1)).contains("PROBLEM"));
}

#[test]
fn system_error_upcall_reachable() {
    // Casting before joining a group is a state error the stack reports.
    let mut w = SimWorld::new(3, NetConfig::reliable());
    let s = build_stack(ep(1), VSYNC, StackConfig::default()).unwrap();
    w.add_endpoint(s);
    w.cast_bytes(ep(1), &b"too early"[..]);
    w.run_for(Duration::from_millis(50));
    assert!(kinds_seen(&w, ep(1)).contains("SYSTEM_ERROR"));
}
