//! Shard-scaling smoke benchmark, recorded in `BENCH_dispatch.json` (style
//! of `BENCH_packing.json`).
//!
//! One claim, measured over real threads on the loopback transport with
//! 64-byte casts through `NAK:COM`: **shards scale** — on a multi-group
//! workload, 4 shards beat 1 shard by ≥ 2× *when the hardware can run 4
//! workers at once*.  The assertion is gated on
//! `available_parallelism() >= 4` and the measured parallelism is recorded
//! in the JSON, so single-core runs report honest numbers instead of a
//! fictional speedup.
//!
//! (The absolute single-group flood rate is `fifo_small` in `benchmark/`.)
//!
//! Ignored by default: it is a timing test and only means anything in
//! release mode.  Run with
//! `cargo test --release --test dispatch_smoke -- --ignored`.

use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus_net::LoopbackNet;
use horus_sim::shard::{ShardConfig, ShardExecutor};
use std::time::{Duration, Instant};

fn ep(i: u64) -> EndpointAddr {
    EndpointAddr::new(i)
}

const BODY: usize = 64;
const GROUPS: u64 = 4;
const PER_GROUP: usize = 400;

/// Floods `GROUPS` disjoint sender→receiver pairs under `shards` workers;
/// returns total msgs/sec.
fn flood_groups(shards: usize) -> f64 {
    let cfg = ShardConfig::with_shards(shards).batch_max(64).record_upcalls(false);
    let mut ex = ShardExecutor::new(LoopbackNet::new(), cfg);
    for gi in 0..GROUPS {
        let g = GroupAddr::new(gi + 1);
        for m in 0..2 {
            let e = ep(gi * 2 + m + 1);
            ex.add_stack(build_stack(e, "NAK:COM", StackConfig::default()).unwrap());
            ex.down(e, Down::Join { group: g });
        }
    }
    std::thread::sleep(Duration::from_millis(10));
    let start = Instant::now();
    for k in 0..PER_GROUP {
        for gi in 0..GROUPS {
            ex.cast_bytes(ep(gi * 2 + 1), vec![(k % 251) as u8; BODY]);
        }
    }
    let ok = ex.wait_until(Duration::from_secs(60), |ex| {
        (0..GROUPS).all(|gi| ex.cast_count(ep(gi * 2 + 2)) >= PER_GROUP)
    });
    let rate = (GROUPS as usize * PER_GROUP) as f64 / start.elapsed().as_secs_f64();
    assert!(ok, "multi-group flood incomplete under {shards} shards");
    ex.stop();
    rate
}

/// Best of three trials — peak rates are what the scheduler can't steal.
fn best(f: impl Fn() -> f64) -> f64 {
    (0..3).map(|_| f()).fold(f64::MIN, f64::max)
}

#[test]
#[ignore = "timing smoke: run in release mode with -- --ignored"]
fn dispatch_smoke() {
    let parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Warm-up, then best-of-3 per configuration.
    let _ = flood_groups(1);
    let shards_1 = best(|| flood_groups(1));
    let shards_4 = best(|| flood_groups(4));
    let scaling = shards_4 / shards_1;

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"dispatch_smoke\",\n",
            "  \"payload_bytes\": {},\n",
            "  \"parallelism\": {},\n",
            "  \"shard_scaling\": {{ \"groups\": {}, \"casts_per_group\": {}, \"shards_1_msgs_per_sec\": {:.0}, \"shards_4_msgs_per_sec\": {:.0}, \"scaling_1_to_4\": {:.2} }},\n",
            "  \"note\": \"scaling_1_to_4 >= 2.0 is asserted only when parallelism >= 4; on fewer cores the extra workers time-slice one core and the honest measured ratio is recorded instead\"\n",
            "}}\n"
        ),
        BODY,
        parallelism,
        GROUPS,
        PER_GROUP,
        shards_1,
        shards_4,
        scaling,
    );
    std::fs::write(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_dispatch.json"), &json)
        .expect("write BENCH_dispatch.json");
    eprintln!("{json}");

    if parallelism >= 4 {
        assert!(
            scaling >= 2.0,
            "4 shards must beat 1 shard by 2x on {parallelism} cores, got {scaling:.2}x"
        );
    } else {
        eprintln!(
            "skipping scaling assertion: {parallelism} core(s) available, need 4 \
             (measured ratio {scaling:.2}x recorded in BENCH_dispatch.json)"
        );
    }
}
