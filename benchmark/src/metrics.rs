//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with the bound each may worsen by, and per-layer metrics.
//! `BENCHMARK.json` at the repository root is `manifest_json()` verbatim
//! (a unit test holds the two equal).

/// Seconds one run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fifo_small",
        why: "64 B casts on NAK:COM, 2 members: per-message machinery (dispatch, shard queue, loopback) is nearly all the cost",
    },
    Workload {
        name: "vsync_total",
        why: "64 B casts on TOTAL:MBRSHIP:FRAG:NAK:COM, 3 members all sending: protocol work in the layers dominates the same executor",
    },
    Workload {
        name: "frag_bulk",
        why: "64 KiB casts on FRAG:NAK:COM: the byte path (fragment, reassemble, encode, copy), per-message cost diluted 65x",
    },
    Workload {
        name: "soak_faults",
        why: "24 seeded fault plans on the virtual-time SimWorld: retransmit, flush, merge and failure detection, not the fast path",
    },
    Workload {
        name: "check_explore",
        why: "exhaustive exploration of scenario flush4 (117 534 states): snapshot, fingerprint and DPOR cost, no real threads",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these.  The operation counted by
/// `throughput_ops_s` and timed by `lat_*` is the workload's own: a cast
/// delivered at the last member, a simulated delivery / one fault plan,
/// a state explored / one exploration.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "throughput_ops_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "lat_p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.2 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer names whose dwell and crossings are reported.
pub const LAYERS: [&str; 5] = ["COM", "NAK", "FRAG", "MBRSHIP", "TOTAL"];

/// The E13 ladder, bottom rung first: `(metric suffix, stack descriptor)`.
pub const LADDER: [(&str, &str); 5] = [
    ("COM", "COM(promiscuous=true)"),
    ("NAK-COM", "NAK(fail_timeout=10000):COM(promiscuous=true)"),
    ("FRAG-NAK-COM", "FRAG:NAK(fail_timeout=10000):COM(promiscuous=true)"),
    ("MBRSHIP-FRAG-NAK-COM", "MBRSHIP:FRAG:NAK(fail_timeout=10000):COM(promiscuous=true)"),
    (
        "TOTAL-MBRSHIP-FRAG-NAK-COM",
        "TOTAL:MBRSHIP:FRAG:NAK(fail_timeout=10000):COM(promiscuous=true)",
    ),
];

/// Reported by the traced run of every workload; a layer the workload does
/// not exercise reads 0.
pub const PER_LAYER: [PerLayer; 67] = [
    pl("core.pump_ns.COM", "ns", "lower"),
    pl("core.pump_ns.NAK-COM", "ns", "lower"),
    pl("core.pump_ns.FRAG-NAK-COM", "ns", "lower"),
    pl("core.pump_ns_64k.FRAG-NAK-COM", "ns", "lower"),
    pl("core.dispatches_per_msg", "count", "lower"),
    pl("core.skipped_per_msg", "count", "higher"),
    pl("core.header_bytes_per_frame", "B", "lower"),
    pl("core.payload_copies_per_msg", "count", "lower"),
    pl("core.dispatch_buf_grows", "count", "lower"),
    pl("core.scratch_peak", "count", "lower"),
    pl("core.allocs_per_msg", "count", "lower"),
    pl("core.alloc_bytes_per_msg", "B", "lower"),
    pl("layers.COM.dwell_p50_ns", "ns", "lower"),
    pl("layers.COM.dwell_share", "ratio", "lower"),
    pl("layers.COM.crossings_per_msg", "count", "lower"),
    pl("layers.NAK.dwell_p50_ns", "ns", "lower"),
    pl("layers.NAK.dwell_share", "ratio", "lower"),
    pl("layers.NAK.crossings_per_msg", "count", "lower"),
    pl("layers.FRAG.dwell_p50_ns", "ns", "lower"),
    pl("layers.FRAG.dwell_share", "ratio", "lower"),
    pl("layers.FRAG.crossings_per_msg", "count", "lower"),
    pl("layers.MBRSHIP.dwell_p50_ns", "ns", "lower"),
    pl("layers.MBRSHIP.dwell_share", "ratio", "lower"),
    pl("layers.MBRSHIP.crossings_per_msg", "count", "lower"),
    pl("layers.TOTAL.dwell_p50_ns", "ns", "lower"),
    pl("layers.TOTAL.dwell_share", "ratio", "lower"),
    pl("layers.TOTAL.crossings_per_msg", "count", "lower"),
    pl("layers.ladder.COM.msgs_s", "1/s", "higher"),
    pl("layers.ladder.NAK-COM.msgs_s", "1/s", "higher"),
    pl("layers.ladder.FRAG-NAK-COM.msgs_s", "1/s", "higher"),
    pl("layers.ladder.MBRSHIP-FRAG-NAK-COM.msgs_s", "1/s", "higher"),
    pl("layers.ladder.TOTAL-MBRSHIP-FRAG-NAK-COM.msgs_s", "1/s", "higher"),
    pl("layers.wire_frames_per_delivery", "count", "lower"),
    pl("layers.timer_fires_per_s", "1/s", "lower"),
    pl("net.loopback.cast_ns", "ns", "lower"),
    pl("net.loopback.dropped_unregistered", "count", "lower"),
    pl("net.sim.frame_drops_per_kframe", "count", "lower"),
    pl("sim.shard.remainder_ns_per_msg", "ns", "lower"),
    pl("sim.shard.cast_call_ns", "ns", "lower"),
    pl("sim.shard.take_upcalls_ns", "ns", "lower"),
    pl("sim.shard.batch_avg", "count", "higher"),
    pl("sim.shard.worker_cpu_us_per_msg", "us", "lower"),
    pl("sim.shard.sat_lat_p50_us", "us", "lower"),
    pl("sim.world.ns_per_step", "ns", "lower"),
    pl("sim.world.snapshot_ns", "ns", "lower"),
    pl("sim.world.fingerprint_ns", "ns", "lower"),
    pl("socket.rtt_p50_us", "us", "lower"),
    pl("socket.msgs_s", "1/s", "higher"),
    pl("check.runs", "count", "lower"),
    pl("check.states", "count", "lower"),
    pl("check.steps", "count", "lower"),
    pl("check.pruned", "count", "higher"),
    pl("check.layer_clones", "count", "lower"),
    pl("check.steps_per_s", "1/s", "higher"),
    pl("trace.overhead", "ratio", "higher"),
    pl("trace.records_per_msg", "count", "lower"),
    pl("trace.v2_bytes_per_record", "B", "lower"),
    pl("trace.v2_encode_ns_per_record", "ns", "lower"),
    pl("trace.v2_parse_ns_per_record", "ns", "lower"),
    pl("trace.latency_stats_ns_per_record", "ns", "lower"),
    pl("props.plan_us", "us", "lower"),
    pl("props.check_us", "us", "lower"),
    pl("gen.late_p99_us", "us", "lower"),
    pl("gen.lat_p90_us", "us", "lower"),
    pl("gen.lat_p99_us", "us", "lower"),
    pl("gen.lat_max_us", "us", "lower"),
    pl("gen.samples", "count", "higher"),
];

/// `BENCHMARK.json`, byte for byte.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n", w.name, w.why));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name, m.unit, m.better
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Named values of one run; `main` picks the contract's metrics out of it.
#[derive(Debug, Default)]
pub struct Values(std::collections::BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_json().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, manifest_json(), "regenerate with `horus-bench manifest`");
    }

    #[test]
    fn ladder_and_layer_metrics_exist_for_every_rung_and_layer() {
        let has = |n: String| PER_LAYER.iter().any(|m| m.name == n);
        for (rung, _) in LADDER {
            assert!(has(format!("layers.ladder.{rung}.msgs_s")));
        }
        for l in LAYERS {
            for part in ["dwell_p50_ns", "dwell_share", "crossings_per_msg"] {
                assert!(has(format!("layers.{l}.{part}")));
            }
        }
    }
}
