//! Determinism contracts of the tracing subsystem.
//!
//! Five claims, each an end-to-end loop:
//!
//! 1. **Byte-determinism**: a traced replay of the same choices serializes
//!    *byte-identically* every time — tracing adds observability without
//!    adding nondeterminism.
//! 2. **Cross-executor agreement**: the same workload run on one shard
//!    (both stacks on one worker) and on two (a worker per stack) yields
//!    the same canonical delivery projection (per `(receiver, sender)`
//!    CAST digest sequences) — the placement-independent part of a trace
//!    really is placement-independent.
//! 3. **The trace→schedule bridge round-trips**: the committed soak-wedge
//!    fault plan, replayed as the `soakwedge` scenario with tracing on,
//!    bridges back into exactly the committed `.check` fixture and the
//!    same verdict.
//! 4. **Latency stats are format- and run-independent**: the per-layer
//!    histograms computed from the collected records' in-memory view and
//!    from the v2 file they encode to are equal, and the rendered quantile
//!    table is byte-identical across repeated traced replays.
//! 5. **Live equals offline**: a [`MetricsSink`] installed as the tracer
//!    of a replay snapshots to exactly the histograms the offline
//!    [`latency_stats`] pass extracts from a captured trace of the same
//!    replay.

use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus_check::schedule::verdict_line;
use horus_check::{
    replay_choices, replay_choices_traced, schedule_from_trace, trace_meta, CheckConfig, Scenario,
};
use horus_core::trace::{TraceKind, TraceSink};
use horus_net::LoopbackNet;
use horus_sim::shard::{ShardConfig, ShardExecutor};
use horus_trace::{
    delivery_projection, kind_counts, latency_stats, parse_trace_v2, serialize_trace_v2,
    LatencyStats, MetricsSink, ParsedTrace, TraceBuf,
};
use std::sync::Arc;
use std::time::Duration;

fn ep(i: u64) -> EndpointAddr {
    EndpointAddr::new(i)
}

/// Serializes the traced replay of `choices` (meta included, so the result
/// is exactly what `horus-check replay --trace` writes).
fn traced_replay_bytes(scenario: &Scenario, choices: &[u16], cfg: &CheckConfig) -> Vec<u8> {
    let buf = Arc::new(TraceBuf::new());
    let _ = replay_choices_traced(scenario, choices, cfg, buf.clone() as Arc<dyn TraceSink>);
    serialize_trace_v2(&trace_meta(scenario, cfg), &buf.take())
}

/// The same capture, read back the way every consumer reads a trace file.
fn traced_replay(scenario: &Scenario, choices: &[u16], cfg: &CheckConfig) -> ParsedTrace {
    parse_trace_v2(&traced_replay_bytes(scenario, choices, cfg)).expect("a capture parses")
}

#[test]
fn traced_replay_is_byte_deterministic() {
    let scenario = Scenario::by_name("fifo2").unwrap();
    let cfg = CheckConfig::default();
    let first = traced_replay_bytes(scenario, &[1], &cfg);
    let records = parse_trace_v2(&first).expect("a capture parses").records.len();
    assert!(records > 10, "a replay must actually record events");
    for _ in 0..2 {
        assert_eq!(traced_replay_bytes(scenario, &[1], &cfg), first);
    }
}

/// Runs `casts` casts from each of two members over bare COM on a
/// `shards`-worker executor, tracing into a [`TraceBuf`]; returns the
/// canonical projection of the captured trace.
fn projection(shards: usize, casts: usize) -> std::collections::BTreeMap<(u64, u64), Vec<u64>> {
    let buf = Arc::new(TraceBuf::new());
    let mut ex = ShardExecutor::new(LoopbackNet::new(), ShardConfig::with_shards(shards));
    let g = GroupAddr::new(1);
    for i in 1..=2 {
        let mut s = build_stack(ep(i), "COM(promiscuous=true)", StackConfig::default()).unwrap();
        s.set_tracer(buf.clone());
        ex.add_stack(s);
        ex.down(ep(i), Down::Join { group: g });
    }
    std::thread::sleep(Duration::from_millis(20));
    for k in 0..casts {
        ex.cast_bytes(ep(1), format!("1:{k}"));
        ex.cast_bytes(ep(2), format!("2:{k}"));
    }
    // Loopback delivers to the whole group, senders included.
    let ok = ex.wait_until(Duration::from_secs(20), |ex| {
        (1..=2).all(|i| ex.cast_count(ep(i)) >= 2 * casts)
    });
    assert!(ok, "{shards}-shard flood incomplete");
    ex.stop();
    delivery_projection(&buf.take())
}

#[test]
fn one_shard_and_two_shard_executors_project_identically() {
    // Cross-sender interleaving is scheduling noise; what must agree is the
    // per-(receiver, sender) digest sequence — per-sender FIFO holds whether
    // the two stacks share a worker's queue or have one each.
    const CASTS: usize = 40;
    let one = projection(1, CASTS);
    let two = projection(2, CASTS);
    assert_eq!(one, two, "canonical projections must agree across shard counts");
    // And the projection is not vacuous: both senders reached both members.
    assert_eq!(one.len(), 4, "two senders times two receivers");
    for ((rx, tx), digests) in &one {
        assert_eq!(digests.len(), CASTS, "stream ep:{tx} -> ep:{rx} lost casts");
    }
}

/// Renders the stats the way `horus-trace stats --latency` does — one
/// `count p50 p90 p99 max` row per `(endpoint, layer)`. Integer-only, so
/// equal histograms render to equal bytes.
fn latency_table(stats: &LatencyStats) -> String {
    let mut out = String::new();
    for (title, map) in [("dwell", &stats.dwell), ("timer", &stats.timer)] {
        for ((ep, layer), h) in map {
            out.push_str(&format!(
                "{title} ep:{ep} {layer} {} {} {} {} {}\n",
                h.count(),
                h.quantile(50, 100),
                h.quantile(90, 100),
                h.quantile(99, 100),
                h.max()
            ));
        }
    }
    out
}

#[test]
fn latency_stats_agree_across_formats_and_runs() {
    // The `stats --latency` acceptance loop: the same capture must yield
    // the same histograms whether they are computed from the records as
    // collected or from the v2 file they encode to, and re-capturing must
    // reproduce the table.
    let scenario = Scenario::by_name("flush3").unwrap();
    let cfg = CheckConfig::default();
    let buf = Arc::new(TraceBuf::new());
    let _ = replay_choices_traced(scenario, &[], &cfg, buf.clone() as Arc<dyn TraceSink>);
    let collected = buf.take();
    let from_memory = latency_stats(&collected);
    assert!(!from_memory.dwell.is_empty(), "a flush3 replay must cross layers");
    let file = parse_trace_v2(&serialize_trace_v2(&[], &collected)).unwrap();
    assert_eq!(latency_stats(&file.records), from_memory, "the file must agree on latency");
    let table = latency_table(&from_memory);
    assert!(table.lines().count() >= 2, "per-layer rows must be non-empty");
    for _ in 0..2 {
        let rerun = traced_replay(scenario, &[], &cfg);
        assert_eq!(
            latency_table(&latency_stats(&rerun.records)),
            table,
            "latency table must be byte-identical across runs"
        );
    }
}

#[test]
fn metrics_sink_matches_the_offline_pass() {
    // The live collector's contract: installing a MetricsSink during a
    // replay yields exactly what parsing a captured trace of the same
    // replay and running `latency_stats` over it yields.
    let scenario = Scenario::by_name("flush3").unwrap();
    let cfg = CheckConfig::default();
    let live = Arc::new(MetricsSink::new());
    let _ = replay_choices_traced(scenario, &[], &cfg, live.clone() as Arc<dyn TraceSink>);
    let snap = live.snapshot();
    let offline = traced_replay(scenario, &[], &cfg);
    assert_eq!(snap.records as usize, offline.records.len(), "record counts must agree");
    assert_eq!(snap.kinds, kind_counts(&offline.records), "kind counts must agree");
    assert_eq!(snap.latency, latency_stats(&offline.records), "histograms must agree");
    assert!(!snap.latency.is_empty(), "the comparison must not be vacuous");
}

#[test]
fn soak_wedge_plan_bridges_to_the_committed_fixture() {
    // The loop the subsystem exists for: the soak-minimized wedge plan
    // (tests/fixtures/soak_wedge_regression.soak) re-enacted as the
    // `soakwedge` scenario, traced, bridged — must equal the committed
    // schedule fixture byte for byte and replay to its verdict.
    let scenario = Scenario::by_name("soakwedge").unwrap();
    let cfg = CheckConfig::default();
    let trace = traced_replay(scenario, &[], &cfg);
    assert!(
        trace.records.iter().any(|r| matches!(r.kind, TraceKind::Partition { .. }))
            && trace.records.iter().any(|r| matches!(r.kind, TraceKind::Crash { .. })),
        "the fault plan's partition and crash must appear in the trace"
    );
    let schedule = schedule_from_trace(&trace).expect("trace bridges");
    let fixture_path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/soakwedge_bridge.check");
    let committed = std::fs::read_to_string(fixture_path).expect("committed fixture exists");
    assert_eq!(schedule.serialize(), committed, "bridged schedule drifted from the fixture");
    let rec = replay_choices(scenario, &schedule.choices, &cfg);
    assert_eq!(verdict_line(&rec), schedule.verdict);
    assert_eq!(schedule.verdict, "clean", "the healed wedge plan must stay clean");
}
