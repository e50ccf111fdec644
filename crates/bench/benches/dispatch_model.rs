//! E11 — dispatch-model ablation (§10 problem 2).
//!
//! "Since Horus is thread-safe, multiple procedure calls into the same
//! layer often have to be synchronized by a lock ... we are eliminating
//! intra-stack threading, having discovered that concurrency within a
//! stack does not lead to significant gains."
//!
//! Real threads, real time, in-process loopback transport: a 2-member
//! group floods N casts through the `NAK:COM` stack under
//! * `locked_threads` — four workers per stack contending on a stack lock
//!   (the model the paper abandons; [`bench::LockedThreads`]), and
//! * `sharded` — two shards, so one run-to-completion worker per stack
//!   (the model it adopts), with batched dispatch and direct shard
//!   delivery.

use bench::{ep, LockedThreads};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use horus_core::prelude::*;
use horus_layers::registry::build_stack;
use horus_net::LoopbackNet;
use horus_sim::shard::{ShardConfig, ShardExecutor};
use std::time::Duration;

const FLOOD: usize = 500;

fn flood_locked(threads: usize) {
    let net = LoopbackNet::new();
    let g = GroupAddr::new(1);
    let endpoints: Vec<LockedThreads> = (1..=2)
        .map(|i| {
            let s = build_stack(ep(i), "NAK:COM", StackConfig::default()).unwrap();
            LockedThreads::spawn(s, net.clone(), threads)
        })
        .collect();
    for e in &endpoints {
        e.down(Down::Join { group: g });
    }
    std::thread::sleep(Duration::from_millis(5));
    for k in 0..FLOOD {
        endpoints[0].cast_bytes(vec![(k % 251) as u8; 32]);
    }
    let seen = endpoints[1].wait_for_casts(FLOOD, Duration::from_secs(30));
    assert_eq!(seen, FLOOD, "receiver saw {seen}/{FLOOD}");
    for e in endpoints {
        e.stop();
    }
}

fn flood_sharded(shards: usize) {
    let cfg = ShardConfig::with_shards(shards).record_upcalls(false);
    let mut ex = ShardExecutor::new(LoopbackNet::new(), cfg);
    let g = GroupAddr::new(1);
    for i in 1..=2 {
        let s = build_stack(ep(i), "NAK:COM", StackConfig::default()).unwrap();
        ex.add_stack(s);
        ex.down(ep(i), Down::Join { group: g });
    }
    std::thread::sleep(Duration::from_millis(5));
    for k in 0..FLOOD {
        ex.cast_bytes(ep(1), vec![(k % 251) as u8; 32]);
    }
    let ok = ex.wait_until(Duration::from_secs(30), |ex| ex.cast_count(ep(2)) >= FLOOD);
    assert!(ok, "receiver saw {}/{FLOOD}", ex.cast_count(ep(2)));
    ex.stop();
}

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatch_model");
    // Whole-scenario benches with threads: keep samples small.
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(20));
    g.throughput(Throughput::Elements(FLOOD as u64));
    g.bench_function(BenchmarkId::new("locked_threads", FLOOD), |b| {
        b.iter(|| flood_locked(4));
    });
    g.bench_function(BenchmarkId::new("sharded", FLOOD), |b| {
        b.iter(|| flood_sharded(2));
    });
    g.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
