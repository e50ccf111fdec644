//! Single-layer probes run by the traced runs: each times one layer's
//! public functions with everything above and below taken away, so the
//! per-layer prices can be held against the end-to-end numbers.

use crate::metrics::{Values, LADDER};
use crate::realtime::{self, Spec};
use crate::spans::{SpanName, Spans};
use crate::stats::{median, percentile, sorted};
use bytes::Bytes;
use horus::socket::GroupSocket;
use horus_check::Scenario;
use horus_core::frame::WireFrame;
use horus_core::prelude::*;
use horus_core::stack::EffectSink;
use horus_layers::registry::build_stack;
use horus_net::threaded::{Frame, FrameSink};
use horus_net::LoopbackNet;
use horus_props::check::section7;
use horus_props::{derive_stack, plan_minimal_stack};
use horus_trace::{latency_stats, parse_trace_v2, serialize_trace_v2, TraceRecord};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ep(i: u64) -> EndpointAddr {
    EndpointAddr::new(i)
}

/// How long each timing probe measures for.
const PROBE_TIME: Duration = Duration::from_millis(300);

fn lone_stack(i: u64, desc: &str) -> Stack {
    let mut s = build_stack(ep(i), desc, StackConfig::default()).expect("probe stack builds");
    let mut sink = EffectSink::new();
    sink.extend(s.init());
    s.handle_into(StackInput::FromApp(Down::Join { group: GroupAddr::new(1) }), &mut sink);
    s
}

/// `core.pump_ns.*`: two lone stacks, a cast pushed down one and every
/// frame it emits pushed up the other (and replies back), with no
/// executor, queue or transport between them.  Nanoseconds per cast,
/// median over batches on fresh stacks (no timers run here, so buffers a
/// timer would trim must not be allowed to grow without bound).
pub fn pump(v: &mut Values, metric: &str, desc: &str, body: usize) -> f64 {
    let batch = (2_000_000 / body.max(64)).clamp(100, 10_000);
    let payload = Bytes::from(vec![0xA5u8; body]);
    let started = Instant::now();
    let mut per_cast = Vec::new();
    while started.elapsed() < PROBE_TIME || per_cast.len() < 3 {
        let mut tx = lone_stack(1, desc);
        let mut rx = lone_stack(2, desc);
        let mut down = EffectSink::with_capacity(64);
        let mut up = EffectSink::with_capacity(64);
        let mut back = EffectSink::with_capacity(64);
        let mut delivered = 0usize;
        let t0 = Instant::now();
        for _ in 0..batch {
            let msg = tx.new_message(payload.clone());
            tx.handle_into(StackInput::FromApp(Down::Cast(msg)), &mut down);
            for fx in down.drain() {
                let Effect::NetCast { wire } = fx else { continue };
                rx.handle_into(StackInput::FromNet { from: ep(1), cast: true, wire }, &mut up);
                for fx in up.drain() {
                    match fx {
                        Effect::Deliver(Up::Cast { .. }) => delivered += 1,
                        Effect::NetSend { wire, .. } => {
                            tx.handle_into(
                                StackInput::FromNet { from: ep(2), cast: false, wire },
                                &mut back,
                            );
                            back.clear();
                        }
                        _ => {}
                    }
                }
            }
        }
        let ns = t0.elapsed().as_nanos() as f64 / batch as f64;
        assert_eq!(black_box(delivered), batch, "{desc}: every pumped cast is delivered");
        per_cast.push(ns);
    }
    let ns = median(&per_cast);
    v.set(metric, ns);
    ns
}

/// `layers.ladder.*`: a short saturation run per E13 rung, three members
/// all sending 64 B casts through the same one-shard executor.
pub fn ladder(v: &mut Values, seed: u64, spans: &mut Spans) -> Result<(), String> {
    for (rung, desc) in LADDER {
        spans.enter(SpanName::Probe, None);
        let spec = Spec {
            members: 3,
            stack: desc,
            body: 64,
            merge: desc.contains("MBRSHIP"),
            all_send: true,
            total_order: desc.contains("TOTAL"),
            window: 64,
            paced_rate: 1,
            warmup_casts: 5_000,
            epoch_casts: 20_000,
        };
        let rate = realtime::saturation_only(&spec, seed, 0.8)
            .map_err(|e| format!("ladder rung {rung}: {e}"))?;
        v.set(format!("layers.ladder.{rung}.msgs_s"), rate);
        spans.exit();
    }
    Ok(())
}

struct CountingSink(AtomicU64);

impl FrameSink for CountingSink {
    fn deliver(&self, frame: Frame) -> bool {
        black_box(&frame);
        self.0.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// `net.loopback.cast_ns`: `LoopbackNet::cast` of a 64 B frame from one
/// member to the other's sink, which only counts.
pub fn loopback_cast(v: &mut Values) {
    let net = LoopbackNet::new();
    let g = GroupAddr::new(1);
    let sink = Arc::new(CountingSink(AtomicU64::new(0)));
    net.register_sink(ep(1), Arc::new(CountingSink(AtomicU64::new(0))));
    net.register_sink(ep(2), sink.clone());
    net.join(g, ep(1));
    net.join(g, ep(2));
    let wire = WireFrame::raw(Bytes::from(vec![7u8; 64]));
    let started = Instant::now();
    let mut casts = 0u64;
    while started.elapsed() < PROBE_TIME {
        for _ in 0..1000 {
            black_box(net.cast(ep(1), wire.clone()));
        }
        casts += 1000;
    }
    let ns = started.elapsed().as_nanos() as f64 / casts as f64;
    assert!(sink.0.load(Ordering::Relaxed) >= casts, "the other member's sink saw every cast");
    v.set("net.loopback.cast_ns", ns);
}

/// `socket.*`: two `GroupSocket`s on `NAK:COM` (the `ThreadedEndpoint`
/// event-queue path): one-at-a-time `sendto` → `try_recvfrom` time, then
/// throughput with 64 outstanding.
pub fn socket(v: &mut Values) {
    let net = LoopbackNet::new();
    let mut a = GroupSocket::bind(&net, ep(1), "NAK:COM").expect("socket stack builds");
    let mut b = GroupSocket::bind(&net, ep(2), "NAK:COM").expect("socket stack builds");
    a.join(GroupAddr::new(1));
    b.join(GroupAddr::new(1));
    let body = Bytes::from(vec![3u8; 64]);
    // The first datagram also waits for both joins to be processed.
    a.sendto(body.clone());
    assert!(b.recvfrom(Duration::from_secs(5)).is_some(), "sockets are connected");

    let mut rtts = Vec::new();
    let started = Instant::now();
    while started.elapsed() < PROBE_TIME {
        let t0 = Instant::now();
        a.sendto(body.clone());
        while b.try_recvfrom().is_none() {
            std::hint::spin_loop();
        }
        rtts.push(t0.elapsed().as_nanos() as f64);
        while a.try_recvfrom().is_some() {}
    }
    v.set("socket.rtt_p50_us", percentile(&sorted(rtts), 0.5) / 1e3);

    let (mut sent, mut got) = (0u64, 0u64);
    let started = Instant::now();
    while started.elapsed() < PROBE_TIME * 2 {
        while sent - got < 64 {
            a.sendto(body.clone());
            sent += 1;
        }
        while b.try_recvfrom().is_some() {
            got += 1;
        }
        while a.try_recvfrom().is_some() {}
    }
    v.set("socket.msgs_s", got as f64 / started.elapsed().as_secs_f64());
    a.close();
    b.close();
}

/// `sim.world.*` on the four-member `flush4` world: cost of one calendar
/// step, of one copy-on-write snapshot, and of one fingerprint taken after
/// a step (the explorer's pattern, so only touched stacks are re-digested).
pub fn sim_world(v: &mut Values, spans: &mut Spans) {
    let scenario = Scenario::by_name("flush4").expect("flush4 is registered");
    let world = spans.time(SpanName::ScenarioBuild, None, || scenario.build());
    let deadline = scenario.deadline();

    let (mut steps, mut step_ns) = (0u64, 0u128);
    let (mut fps, mut fp_ns) = (0u64, 0u128);
    let (mut snaps, mut snap_ns) = (0u64, 0u128);
    let started = Instant::now();
    while started.elapsed() < PROBE_TIME {
        let mut w = world.snapshot().expect("flush4 layers support snapshots");
        let t0 = Instant::now();
        steps += w.run_until(deadline);
        step_ns += t0.elapsed().as_nanos();

        let mut w = world.snapshot().expect("flush4 layers support snapshots");
        w.set_pending_tracking(true);
        while let Some(at) = w.next_event_at().filter(|&at| at <= deadline) {
            w.run_until(at);
            let t0 = Instant::now();
            black_box(w.fingerprint());
            fp_ns += t0.elapsed().as_nanos();
            fps += 1;
            let t0 = Instant::now();
            black_box(w.snapshot());
            snap_ns += t0.elapsed().as_nanos();
            snaps += 1;
        }
    }
    v.set("sim.world.ns_per_step", step_ns as f64 / steps.max(1) as f64);
    v.set("sim.world.fingerprint_ns", fp_ns as f64 / fps.max(1) as f64);
    v.set("sim.world.snapshot_ns", snap_ns as f64 / snaps.max(1) as f64);
}

/// `props.*`: planning the §7 stack from its required properties, and the
/// well-formedness derivation for it.
pub fn props(v: &mut Values, spans: &mut Spans) {
    let (stack, network, required) = section7();
    let mut plan_us = Vec::new();
    let mut check_us = Vec::new();
    for _ in 0..20 {
        let t0 = Instant::now();
        let planned =
            spans.time(SpanName::PropsPlan, None, || plan_minimal_stack(required, network));
        plan_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        assert!(black_box(planned).is_ok(), "the section 7 properties are plannable");
        let t0 = Instant::now();
        let derived = spans.time(SpanName::PropsCheck, None, || derive_stack(stack, network));
        check_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        assert!(black_box(derived).is_ok(), "the section 7 stack is well-formed");
    }
    v.set("props.plan_us", median(&plan_us));
    v.set("props.check_us", median(&check_us));
}

/// `trace.v2_*` and `trace.latency_stats_*`: the price per record of
/// encoding, parsing and analysing the capture the workload just made.
pub fn trace_format(v: &mut Values, records: &[TraceRecord], spans: &mut Spans) {
    if records.is_empty() {
        return;
    }
    let n = records.len() as f64;
    let meta = vec![("source".to_string(), "horus-bench".to_string())];
    let (mut enc, mut par, mut lat) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes_len = 0;
    for _ in 0..3 {
        let t0 = Instant::now();
        let bytes = spans.time(SpanName::TraceEncode, None, || serialize_trace_v2(&meta, records));
        enc.push(t0.elapsed().as_nanos() as f64 / n);
        bytes_len = bytes.len();
        let t0 = Instant::now();
        let parsed = spans
            .time(SpanName::TraceParse, None, || parse_trace_v2(&bytes))
            .expect("the encoder's output parses");
        par.push(t0.elapsed().as_nanos() as f64 / n);
        assert_eq!(parsed.records.len(), records.len(), "v2 round trip keeps every record");
        let t0 = Instant::now();
        black_box(spans.time(SpanName::LatencyStats, None, || latency_stats(&parsed.records)));
        lat.push(t0.elapsed().as_nanos() as f64 / n);
    }
    v.set("trace.v2_bytes_per_record", bytes_len as f64 / n);
    v.set("trace.v2_encode_ns_per_record", median(&enc));
    v.set("trace.v2_parse_ns_per_record", median(&par));
    v.set("trace.latency_stats_ns_per_record", median(&lat));
}
