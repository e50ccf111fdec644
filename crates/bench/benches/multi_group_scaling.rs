//! E22 — shard scaling on a multi-group workload.
//!
//! The sharded executor's pitch is that *independent* stacks scale with
//! cores: endpoints hash to shards, a stack is only ever touched by its
//! owning worker, and there is no cross-shard synchronization on the
//! dispatch path.  This bench floods M disjoint 2-member groups (one
//! sender each) over the `NAK:COM` stack and sweeps the shard count.
//!
//! On a multi-core box throughput should grow with shards until the
//! physical core count; on a single-core box the sweep degenerates to a
//! context-switch tax and the curve stays flat — report
//! `available_parallelism()` with the numbers (E22 does).

use bench::ep;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use horus_core::prelude::*;
use horus_layers::registry::build_stack;
use horus_net::LoopbackNet;
use horus_sim::shard::{ShardConfig, ShardExecutor};
use std::time::Duration;

const GROUPS: usize = 4;
const CASTS_PER_GROUP: usize = 100;

/// Floods `GROUPS` disjoint sender→receiver pairs and waits for every
/// receiver to see its `CASTS_PER_GROUP` casts.
fn flood_groups(shards: usize) {
    let cfg = ShardConfig::with_shards(shards).record_upcalls(false);
    let mut ex = ShardExecutor::new(LoopbackNet::new(), cfg);
    for gi in 0..GROUPS as u64 {
        let g = GroupAddr::new(gi + 1);
        for m in 0..2u64 {
            let e = ep(gi * 2 + m + 1);
            let s = build_stack(e, "NAK:COM", StackConfig::default()).unwrap();
            ex.add_stack(s);
            ex.down(e, Down::Join { group: g });
        }
    }
    std::thread::sleep(Duration::from_millis(5));
    for k in 0..CASTS_PER_GROUP {
        for gi in 0..GROUPS as u64 {
            ex.cast_bytes(ep(gi * 2 + 1), vec![(k % 251) as u8; 32]);
        }
    }
    let ok = ex.wait_until(Duration::from_secs(30), |ex| {
        (0..GROUPS as u64).all(|gi| ex.cast_count(ep(gi * 2 + 2)) >= CASTS_PER_GROUP)
    });
    assert!(ok, "not all receivers finished under {shards} shards");
    ex.stop();
}

fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("multi_group_scaling");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(20));
    g.throughput(Throughput::Elements((GROUPS * CASTS_PER_GROUP) as u64));
    for shards in [1usize, 2, 4] {
        g.bench_function(BenchmarkId::new("shards", shards), |b| {
            b.iter(|| flood_groups(shards));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
