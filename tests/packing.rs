//! PACK — the message-packing accelerator, end to end.
//!
//! Four angles on §10's "combining of several small messages into a
//! single large one":
//!
//! 1. **Differential correctness**: a packed stack must be observationally
//!    identical to the plain stack under 10% loss — same bodies, same
//!    order, nothing dropped, nothing duplicated (property test).
//! 2. **Latency bound**: a queued message leaves within the configured
//!    flush delay, measured in virtual time.
//! 3. **Zero-copy discipline**: the payload `Bytes` handed to the
//!    application downcall is the very storage the transport sees, with
//!    `payload_copies == 0` on the plain hot path, and exactly one copy
//!    (the receiver's gather) for a message FRAG had to split.
//! 4. **Frames on the wire**: 16 000 small casts leave a packed stack in
//!    500 frames where the plain stack sends 16 000 — the count that the
//!    throughput gain (`packing_throughput` bench, E20) comes from.

mod common;

use bytes::Bytes;
use common::*;
use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus::sim::SimWorld;
use horus_net::NetConfig;
use proptest::prelude::*;
use std::time::Duration;

const PACKED: &str = "PACK:NAK:COM";
const PLAIN: &str = "NAK:COM";

/// Deterministic per-message body: message `k` of size `n`.
fn pattern(k: usize, n: usize) -> Vec<u8> {
    (0..n).map(|i| (k as u8).wrapping_mul(31).wrapping_add(i as u8)).collect()
}

/// Runs a 2-member world of `desc` stacks over `net`, casts one message
/// per entry of `sizes` from ep(1), and returns the bodies ep(2) saw.
fn deliveries(desc: &str, seed: u64, net: NetConfig, sizes: &[usize]) -> Vec<Vec<u8>> {
    let mut w = SimWorld::new(seed, net);
    for i in 1..=2 {
        let s = build_stack(ep(i), desc, StackConfig::default()).expect("stack builds");
        w.add_endpoint(s);
        w.join(ep(i), group());
    }
    for (k, &n) in sizes.iter().enumerate() {
        w.cast_bytes(ep(1), pattern(k, n));
    }
    w.run_for(Duration::from_secs(3));
    w.delivered_casts(ep(2)).iter().map(|(_, b, _)| b.to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Packing is invisible: under 10% loss, the packed stack delivers
    /// exactly what the plain stack delivers — every message, in FIFO
    /// order, bit-for-bit.
    #[test]
    fn packed_stack_is_observationally_plain_under_loss(
        seed in 1u64..500,
        sizes in proptest::collection::vec(1usize..180, 1..25),
    ) {
        let packed = deliveries(PACKED, seed, NetConfig::lossy(0.1), &sizes);
        let plain = deliveries(PLAIN, seed, NetConfig::lossy(0.1), &sizes);
        let expected: Vec<Vec<u8>> =
            sizes.iter().enumerate().map(|(k, &n)| pattern(k, n)).collect();
        prop_assert_eq!(&packed, &expected, "packed stack must deliver all, in order");
        prop_assert_eq!(&packed, &plain, "packing must be observationally invisible");
    }
}

#[test]
fn flush_timer_bounds_latency_in_virtual_time() {
    let mut w = SimWorld::new(7, NetConfig::reliable());
    for i in 1..=2 {
        let s = build_stack(ep(i), "PACK(delay=5):NAK:COM", StackConfig::default()).unwrap();
        w.add_endpoint(s);
        w.join(ep(i), group());
    }
    w.cast_bytes(ep(1), b"pending".to_vec());
    // Before the 5 ms flush delay the message sits in PACK's queue...
    w.run_for(Duration::from_millis(4));
    assert!(w.delivered_casts(ep(2)).is_empty(), "must still be queued at 4 ms");
    // ...and must be out within the delay plus transit.
    w.run_for(Duration::from_millis(6));
    let got = w.delivered_casts(ep(2));
    assert_eq!(got.len(), 1);
    assert_eq!(&got[0].1[..], b"pending");
    let at = got[0].2;
    assert!(at >= SimTime::from_millis(5), "cannot beat the flush timer: {at:?}");
    assert!(at <= SimTime::from_millis(8), "flush delay must bound latency: {at:?}");
}

/// Builds a lone stack, initialised and joined, for direct pumping.
fn pump_stack(i: u64, desc: &str) -> Stack {
    let mut s = build_stack(ep(i), desc, StackConfig::default()).unwrap();
    let _ = s.init();
    let _ = s.handle(StackInput::FromApp(Down::Join { group: group() }));
    s
}

#[test]
fn payload_reaches_transport_and_peer_without_copying() {
    let mut tx = pump_stack(1, "FRAG:NAK:COM");
    let mut rx = pump_stack(2, "FRAG:NAK:COM");
    let payload = Bytes::from(vec![0x5A; 512]);
    let msg = tx.new_message(payload.clone());
    let fx = tx.handle(StackInput::FromApp(Down::Cast(msg)));
    let wire = fx
        .iter()
        .find_map(|e| match e {
            Effect::NetCast { wire } => Some(wire.clone()),
            _ => None,
        })
        .expect("cast reaches the wire");
    assert_eq!(
        wire.body().as_ptr(),
        payload.as_ptr(),
        "transport body must share the app payload's storage"
    );
    assert_eq!(tx.stats().payload_copies, 0, "no copies on the send path");
    let fx = rx.handle(StackInput::FromNet { from: ep(1), cast: true, wire });
    let delivered = fx
        .iter()
        .find_map(|e| match e {
            Effect::Deliver(Up::Cast { msg, .. }) => Some(msg.body().clone()),
            _ => None,
        })
        .expect("cast delivered");
    assert_eq!(
        delivered.as_ptr(),
        payload.as_ptr(),
        "delivered body must share the app payload's storage"
    );
    assert_eq!(rx.stats().payload_copies, 0, "no copies on the receive path");
}

#[test]
fn a_fragmented_payload_is_copied_once_at_the_receiver_only() {
    let mut tx = pump_stack(1, "FRAG:NAK:COM");
    let mut rx = pump_stack(2, "FRAG:NAK:COM");
    let payload = Bytes::from((0..65_536u32).map(|i| (i % 253) as u8).collect::<Vec<u8>>());
    let storage = payload.as_ptr() as usize..payload.as_ptr() as usize + payload.len();
    let mut delivered = Vec::new();
    let mut shared_fragments = 0;
    for round in 1..=3u64 {
        let msg = tx.new_message(payload.clone());
        for e in tx.handle(StackInput::FromApp(Down::Cast(msg))) {
            let Effect::NetCast { wire } = e else { continue };
            shared_fragments += usize::from(storage.contains(&(wire.body().as_ptr() as usize)));
            for e in rx.handle(StackInput::FromNet { from: ep(1), cast: true, wire }) {
                if let Effect::Deliver(Up::Cast { msg, .. }) = e {
                    delivered.push(msg.body().clone());
                }
            }
        }
        assert_eq!(delivered.len() as u64, round);
        assert_eq!(tx.stats().payload_copies, 0, "fragments are slices of the caller's body");
        assert_eq!(rx.stats().payload_copies, round, "one gather per reassembled message");
    }
    assert!(delivered.iter().all(|body| body == &payload));
    // 65 fragments per cast; only the first holds the message's own header.
    assert_eq!(shared_fragments, 3 * 64);
}

/// Pumps `casts` casts of 64 bytes through a tx/rx stack pair and returns
/// the frames the sender put on the wire; every cast must come out of `rx`.
fn wire_frames(desc: &str, casts: usize) -> usize {
    let mut tx = pump_stack(1, desc);
    let mut rx = pump_stack(2, desc);
    let mut frames = 0;
    let mut delivered = 0;
    for _ in 0..casts {
        let msg = tx.new_message(vec![0x42u8; 64]);
        for e in tx.handle(StackInput::FromApp(Down::Cast(msg))) {
            let Effect::NetCast { wire } = e else { continue };
            frames += 1;
            delivered += rx
                .handle(StackInput::FromNet { from: ep(1), cast: true, wire })
                .iter()
                .filter(|e| matches!(e, Effect::Deliver(Up::Cast { .. })))
                .count();
        }
    }
    assert_eq!(delivered, casts, "{desc}: every cast must be delivered");
    frames
}

#[test]
fn thirty_two_casts_share_one_frame() {
    // Thresholds chosen so only the count threshold fires: the flush is
    // synchronous on every 32nd cast, no timer needed.
    let packed = "PACK(msgs=32,bytes=1000000,delay=1000):NAK:COM";
    assert_eq!(wire_frames(PLAIN, 16_000), 16_000, "plain: one frame per message");
    assert_eq!(wire_frames(packed, 16_000), 500, "packed: one frame per 32 messages");
}
