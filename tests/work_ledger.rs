//! The work ledger: exact counts of the work each E13 ladder rung does for
//! one fixed cast load on virtual time.
//!
//! Every rung runs on a `SimWorld` with a reliable network and seed 1:
//! three members in one group (one view, where the rung has MBRSHIP), then
//! ep:1 casts 1 100 bodies of 64 B and the world runs one more second.
//! Over that cast phase the test counts deliveries to the application,
//! the network's frames and point deliveries, and the stacks' summed
//! `StackStats` counters, and holds each to the committed [`LEDGER`].  On
//! virtual time every count is exact for a seed, so any change in the work
//! a rung does fails a named cell; a change that means to move a count
//! updates the table and says why.
//!
//! 1 100 casts cross MBRSHIP's first stability report point (message
//! 1 024 of an origin), so the MBRSHIP rung pays for one report per
//! member; on the TOTAL rung ep:1's ORDERs take its MBRSHIP sequence past
//! 2 048, so there each member reports twice.

mod common;

use bytes::Bytes;
use common::ep;
use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus::sim::SimWorld;
use horus_net::NetConfig;
use std::time::Duration;

const MEMBERS: u64 = 3;
const CASTS: u64 = 1_100;

/// The counted cells, in table order.
const CELLS: [&str; 8] = [
    "deliveries",
    "net.frames_sent",
    "net.deliveries",
    "msgs_sent",
    "bytes_sent",
    "header_bytes_sent",
    "dispatches",
    "payload_copies",
];

/// `(rung, stack, cells)`, bottom rung first; the stacks are the
/// benchmark's ladder descriptors.
const LEDGER: [(&str, &str, [u64; 8]); 5] = [
    ("COM", "COM(promiscuous=true)", [3300, 1100, 3300, 1100, 79200, 0, 4400, 0]),
    (
        "NAK-COM",
        "NAK(fail_timeout=10000):COM(promiscuous=true)",
        [3300, 1531, 4031, 1531, 105847, 7655, 10843, 0],
    ),
    (
        "FRAG-NAK-COM",
        "FRAG:NAK(fail_timeout=10000):COM(promiscuous=true)",
        [3300, 1531, 4031, 1531, 105847, 7655, 15243, 0],
    ),
    (
        "MBRSHIP-FRAG-NAK-COM",
        "MBRSHIP:FRAG:NAK(fail_timeout=10000):COM(promiscuous=true)",
        [3300, 1523, 4029, 1523, 123440, 24368, 19775, 0],
    ),
    (
        "TOTAL-MBRSHIP-FRAG-NAK-COM",
        "TOTAL:MBRSHIP:FRAG:NAK(fail_timeout=10000):COM(promiscuous=true)",
        [3300, 5425, 10137, 5425, 372900, 108500, 53517, 0],
    ),
];

/// The cells' running totals in `w`.
fn totals(w: &SimWorld) -> [u64; 8] {
    let casts: u64 = (1..=MEMBERS)
        .map(|i| w.upcalls(ep(i)).iter().filter(|(_, up)| matches!(up, Up::Cast { .. })).count())
        .sum::<usize>() as u64;
    let net = w.net_stats();
    let mut cells = [casts, net.frames_sent, net.deliveries, 0, 0, 0, 0, 0];
    for i in 1..=MEMBERS {
        let s = w.stack_stats(ep(i)).expect("member exists");
        for (cell, n) in cells[3..].iter_mut().zip([
            s.msgs_sent,
            s.bytes_sent,
            s.header_bytes_sent,
            s.dispatches,
            s.payload_copies,
        ]) {
            *cell += n;
        }
    }
    cells
}

/// Runs one rung and returns its cells, counted over the cast phase.
fn run(rung: &str, stack: &str) -> [u64; 8] {
    let mut w = SimWorld::new(1, NetConfig::reliable());
    for i in 1..=MEMBERS {
        w.add_endpoint(build_stack(ep(i), stack, StackConfig::default()).expect("stack builds"));
        w.join(ep(i), GroupAddr::new(1));
    }
    let membership = stack.contains("MBRSHIP");
    if membership {
        for i in 2..=MEMBERS {
            w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
        }
    }
    w.run_for(Duration::from_secs(1));
    if membership {
        for i in 1..=MEMBERS {
            let view = w.installed_views(ep(i)).last().map(View::len);
            assert_eq!(view, Some(MEMBERS as usize), "{rung}: ep:{i} is in the one view");
        }
    }
    let before = totals(&w);
    let t = w.now();
    for k in 0..CASTS {
        w.cast_bytes_at(t + Duration::from_micros(100 * k), ep(1), Bytes::from(vec![k as u8; 64]));
    }
    w.run_for(Duration::from_secs(1));
    let after = totals(&w);
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn every_ladder_rung_does_its_ledgered_work() {
    let mut wrong = Vec::new();
    for (rung, stack, want) in LEDGER {
        let got = run(rung, stack);
        for ((cell, want), got) in CELLS.iter().zip(want).zip(got) {
            if want != got {
                wrong.push(format!("{rung} {cell}: ledger {want}, run {got}"));
            }
        }
    }
    assert!(wrong.is_empty(), "the work ledger moved:\n{}", wrong.join("\n"));
}
