//! End-to-end coverage of the sharded run-to-completion executor plus the
//! accounting-parity contract between the transport's `LoopbackStats` and
//! the per-stack `StackStats`: every frame the transport claims to have
//! queued must show up in exactly one stack's counters (or in the
//! dropped-on-closed-channel counter), with nothing invented and nothing
//! lost — the satellite-2 counterpart of the simulated net's `NetStats`
//! parity tests.

use bytes::Bytes;
use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus_core::trace::{ClockEntry, TraceEvent, TraceSink};
use horus_net::LoopbackNet;
use horus_sim::shard::{ShardConfig, ShardExecutor};
use horus_trace::TraceBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn ep(i: u64) -> EndpointAddr {
    EndpointAddr::new(i)
}

const GROUPS: u64 = 3;
/// The quieter shard (the three receivers) is handed `GROUPS * CASTS` = 150
/// frames, in however many bursts the worker's takes split them into.
const CASTS: usize = 50;

/// 3 disjoint 2-member groups over single-layer NOP stacks (which add no
/// protocol chatter, so transport and stack counters can be equated
/// exactly), spread across 2 shards.
#[test]
fn multi_group_delivery_with_accounting_parity() {
    let net = LoopbackNet::new();
    let mut ex = ShardExecutor::new(net.clone(), ShardConfig::with_shards(2));
    for gi in 0..GROUPS {
        let g = GroupAddr::new(gi + 1);
        for m in 0..2 {
            let e = ep(gi * 2 + m + 1);
            let s = build_stack(e, "NOP", StackConfig::default()).unwrap();
            ex.add_stack(s);
            ex.down(e, Down::Join { group: g });
        }
    }
    let joined =
        |ex: &ShardExecutor| (1..=GROUPS).all(|gi| ex.net().members(GroupAddr::new(gi)).len() == 2);
    assert!(ex.wait_until(Duration::from_secs(5), joined));
    for k in 0..CASTS {
        for gi in 0..GROUPS {
            ex.cast_bytes(ep(gi * 2 + 1), vec![(k % 251) as u8; 8]);
        }
    }
    // Every member — senders included, loopback delivers to the whole
    // group — sees every cast of its own group and none of the others'.
    let done = ex.wait_until(Duration::from_secs(10), |ex| {
        (1..=GROUPS * 2).all(|i| ex.cast_count(ep(i)) >= CASTS)
    });
    assert!(done, "all members see their group's casts");
    for i in 1..=GROUPS * 2 {
        assert_eq!(ex.cast_count(ep(i)), CASTS, "ep {i}: exactly its own group's casts");
    }

    // Accounting parity: transport counters vs stack counters.
    let total_casts = GROUPS * CASTS as u64;
    let by_ep = ex.stats_by_endpoint();
    let sent: u64 = by_ep.values().map(|s| s.msgs_sent).sum();
    let received: u64 = by_ep.values().map(|s| s.msgs_received).sum();
    let net_stats = net.stats();
    assert_eq!(sent, total_casts, "stacks sent exactly the app casts");
    assert_eq!(net_stats.frames_cast, total_casts, "transport saw each cast once");
    assert_eq!(net_stats.dropped_closed, 0, "no receiver went away");
    assert_eq!(net_stats.deliveries, total_casts * 2, "each cast fans out to both group members");
    assert_eq!(received, net_stats.deliveries, "every queued frame reached a stack");
    assert_eq!(net_stats.frames_sent, 0, "no point-to-point sends in this workload");

    // Work landed on both shards and went through the batch path.
    let mut received_by_shard = [0; 2];
    for (ep, stats) in &by_ep {
        received_by_shard[ex.shard_of(*ep)] += stats.msgs_received;
    }
    assert!(received_by_shard.iter().all(|&n| n > 0), "both shards processed frames");
    let total = ex.aggregate_stats();
    assert!(total.batches > 0 && total.batched_inputs >= total_casts);
    ex.stop();
}

/// Frames aimed at an endpoint whose receiver is gone are dropped and
/// *counted*, not lost silently — and don't disturb live members.
#[test]
fn dropped_receiver_is_counted_not_silent() {
    let net = LoopbackNet::new();
    let mut ex = ShardExecutor::new(net.clone(), ShardConfig::default());
    let g = GroupAddr::new(1);
    for i in 1..=2 {
        let s = build_stack(ep(i), "NOP", StackConfig::default()).unwrap();
        ex.add_stack(s);
        ex.down(ep(i), Down::Join { group: g });
    }
    // A bare transport endpoint whose receiver is gone joins the group.
    net.register_sink(ep(99), Arc::new(|_| false));
    net.join(g, ep(99));
    assert!(ex.wait_until(Duration::from_secs(5), |_| net.members(g).len() == 3));

    ex.cast_bytes(ep(1), &b"gone"[..]);
    assert!(ex.wait_until(Duration::from_secs(5), |ex| ex.cast_count(ep(2)) >= 1));
    let s = net.stats();
    assert_eq!(s.dropped_closed, 1, "the dead endpoint's copy is accounted as dropped");
    assert_eq!(s.deliveries, 2, "the live members still got theirs");
    net.deregister(ep(99));
    ex.stop();
}

/// A traced capture holds one `FrameDrop` per frame the transport counts
/// as `dropped_closed`: a burst refused by a closed receiver is as many
/// drops as it has frames, in the capture as in the counter.
#[test]
fn a_traced_capture_counts_every_closed_drop() {
    let net = LoopbackNet::new();
    let capture = Arc::new(TraceBuf::new());
    net.set_tracer(capture.clone());
    net.register_sink(ep(1), Arc::new(|_| false));
    net.join(GroupAddr::new(1), ep(1));
    let wires: Vec<WireFrame> = (0..3u8).map(|k| WireFrame::raw(Bytes::from(vec![k]))).collect();
    assert_eq!(net.cast_batch(ep(1), &wires), 0);
    assert_eq!(net.stats().dropped_closed, 3);
    let events = capture.take();
    let drops = events.iter().filter(|e| matches!(e.kind, TraceKind::FrameDrop { .. })).count();
    assert_eq!(drops, 3, "a FrameDrop per refused frame");
}

/// The worker records an endpoint's frame and timer arrivals through that
/// endpoint's own trace sink: three stacks on one shard, two with a buffer
/// each and one untraced, and neither buffer holds a record of another
/// endpoint.
#[test]
fn arrivals_are_traced_through_the_owning_stacks_sink() {
    let mut ex = ShardExecutor::new(LoopbackNet::new(), ShardConfig::default());
    let g = GroupAddr::new(1);
    let bufs = [Arc::new(TraceBuf::new()), Arc::new(TraceBuf::new())];
    // The untraced stack is adopted last: nothing it does may reach a buffer.
    for i in 1..=3 {
        let mut s = build_stack(ep(i), "NAK:COM", StackConfig::default()).unwrap();
        if let Some(buf) = bufs.get(i as usize - 1) {
            s.set_tracer(buf.clone());
        }
        ex.add_stack(s);
        ex.down(ep(i), Down::Join { group: g });
    }
    assert!(ex.wait_until(Duration::from_secs(5), |ex| ex.net().members(g).len() == 3));
    for i in 1..=3 {
        ex.cast_bytes(ep(i), vec![i as u8; 8]);
    }
    assert!(ex.wait_until(Duration::from_secs(5), |ex| (1..=3).all(|i| ex.cast_count(ep(i)) >= 3)));
    // NAK's 20 ms status timer fires at every member.
    const NAK: usize = 0;
    let ticked = |ex: &ShardExecutor| {
        let stats = ex.stats_by_endpoint();
        (1..=3).all(|i| stats[&ep(i)].per_layer[NAK].timers > 0)
    };
    assert!(ex.wait_until(Duration::from_secs(5), ticked));
    ex.stop();
    for (i, buf) in bufs.iter().enumerate() {
        let me = ep(i as u64 + 1);
        let events = buf.take();
        let count = |pick: fn(&TraceKind) -> bool| events.iter().filter(|e| pick(&e.kind)).count();
        let frames = count(|k| matches!(k, TraceKind::FrameDeliver { .. }));
        let timers = count(|k| matches!(k, TraceKind::TimerFire { .. }));
        assert!(frames >= 3, "{me} heard three casts, its buffer {frames} arrivals");
        assert!(timers > 0, "{me} ticked");
        assert!(events.iter().all(|e| e.ep == me), "{me}'s buffer holds another's records");
    }
}

/// A sink that wants nothing is never called.
#[derive(Debug, Default)]
struct Uninterested {
    calls: AtomicU64,
}

impl TraceSink for Uninterested {
    fn record(&self, _ev: TraceEvent) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
    fn set_clock(&self, _clock: &[ClockEntry]) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
    fn admit(&self) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        true
    }
    fn interested(&self) -> bool {
        false
    }
}

/// "Disabled tracing is free", as a count: a stack holding a sink whose
/// `interested()` is false reads as untraced, and 1 000 casts through
/// `NAK:COM` — stack event sites and the worker's arrival sites both — make
/// not one call into the sink.
#[test]
fn an_uninterested_sink_is_never_called() {
    let sink = Arc::new(Uninterested::default());
    let mut ex = ShardExecutor::new(LoopbackNet::new(), ShardConfig::default());
    for i in 1..=2 {
        let mut s = build_stack(ep(i), "NAK:COM", StackConfig::default()).unwrap();
        s.set_tracer(sink.clone());
        assert!(s.tracer().is_none(), "an uninterested sink must read as no sink");
        ex.add_stack(s);
        ex.down(ep(i), Down::Join { group: GroupAddr::new(1) });
    }
    assert!(
        ex.wait_until(Duration::from_secs(5), |ex| ex.net().members(GroupAddr::new(1)).len() == 2)
    );
    for k in 0..1000u32 {
        ex.cast_bytes(ep(1), k.to_le_bytes().to_vec());
    }
    assert!(ex.wait_until(Duration::from_secs(10), |ex| ex.cast_count(ep(2)) >= 1000));
    ex.stop();
    assert_eq!(sink.calls.load(Ordering::Relaxed), 0, "admit/record/set_clock calls");
}

/// `stop` lets the worker drain what was queued before it: a downcall
/// handed in immediately before `stop()` still casts from a registered
/// endpoint, and a live peer on another executor receives it.
#[test]
fn a_downcall_queued_before_stop_is_still_cast() {
    let net = LoopbackNet::new();
    let g = GroupAddr::new(1);
    let mut leaver = ShardExecutor::new(net.clone(), ShardConfig::default());
    let mut peer = ShardExecutor::new(net.clone(), ShardConfig::default());
    for (ex, i) in [(&mut leaver, 1), (&mut peer, 2)] {
        ex.add_stack(build_stack(ep(i), "NOP", StackConfig::default()).unwrap());
        ex.down(ep(i), Down::Join { group: g });
    }
    assert!(leaver.wait_until(Duration::from_secs(5), |_| net.members(g).len() == 2));
    leaver.cast_bytes(ep(1), &b"last words"[..]);
    leaver.stop();
    assert!(
        peer.wait_until(Duration::from_secs(5), |peer| peer.cast_count(ep(2)) >= 1),
        "the cast queued before stop() never reached the peer"
    );
    assert_eq!(net.stats().dropped_unregistered, 0);
    assert_eq!(net.members(g), vec![ep(2)], "stop() deregistered the leaver afterwards");
    peer.stop();
}
