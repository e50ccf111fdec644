//! Names deleted on purpose stay deleted: one scan of the source tree for
//! every name a deletion retired, where there used to be one CI `grep` per
//! deletion.  Plain text, no parser: a name that turns up anywhere in a
//! `.rs`, `.yml` or `.toml` file under the scanned roots fails the test.

use std::fs;
use std::path::{Path, PathBuf};

/// The retired names, grouped by the change that retired them.  A name
/// ending in `\b` matches only where no identifier character follows it.
const RETIRED: &[(&str, &[&str])] = &[
    ("the deleted executor", &["sim::threaded", "DispatchModel", "ThreadedEndpoint"]),
    (
        "layers emit into the queue, not into a buffer beside it",
        &["enum Emit", "emit_buf", "fn absorb"],
    ),
    (
        "the climbed rungs: explorer toggles, trace v1 auto-detection, ratio-smoke files",
        &[
            "parse_trace_any",
            "incremental_fp",
            "snapshot_resume",
            "no-snapshot",
            "fresh-fp",
            "no-reduction",
            "BENCH_check",
            "BENCH_trace",
            "BENCH_dispatch",
            "BENCH_packing",
        ],
    ),
    (
        "a layer says each thing once: four framework methods and the lock-free ring",
        &["fn supports_snapshot\\b", "fn as_any\\b", "dump_string", "TraceRing", "fn clone_box"],
    ),
    ("the worker's hand-offs are swaps", &["crossbeam", "try_recv_many", "send_iter", "BATCH_MAX"]),
    (
        "two explorer paths, not three; std's mutex, not a vendored wrapper",
        &[
            "explore_parallel",
            "explore_task",
            "TaskOutcome",
            "decide_drops",
            "--workers",
            "parking_lot",
        ],
    ),
    (
        "one trace record from hook to file to reader",
        &[
            "ParsedRecord",
            "parsed_from_record",
            "kind_fields",
            "SCHEMAS",
            "schema_keys",
            "u64_field",
            "Effect::Trace",
            "trace_note",
            "META_DROPPED",
            "prometheus_stack_stats",
        ],
    ),
    (
        "one step, one clock: the shard worker's dispatch rules, and the wrappers nothing needed",
        &[
            "TimerEntry",
            "fire_next_due_timer",
            "FailureDetector",
            "LoopbackStatsSnapshot",
            "shard_stats",
        ],
    ),
    (
        "a parameter exists because something sets it; the input nothing sent",
        &[
            "with_pushed_src",
            "FdConfig",
            "push_src",
            "status_period",
            "rto_max",
            "uni_gc",
            "merge_retries",
            "local_latency",
            "::Tick\\b",
        ],
    ),
    (
        "a visited state is a fingerprint and a few bits: no sorted, boxed sleep keys",
        &["sleep_key", "Box<[(u64, u64)]>"],
    ),
    (
        "a link fault is said once: one cut rule, no storms in the network, no hit counters",
        &[
            "OneWayCut",
            "BurstLoss",
            "SuspicionStorm",
            "record_hits",
            "fault_hits",
            "dropped_burst",
            "dropped_fault_partition",
        ],
    ),
    (
        "a partition is said once: partitions are cuts, one network digest path",
        &["dropped_partition\\b", "digest_cached_into", "membership_digest", "fn connected\\b"],
    ),
    ("a counter nothing read: the stack's received-byte total", &["bytes_received"]),
    (
        "the loopback is one lock: no per-group fan-out lock, sink snapshot or atomic counters",
        &["LoopbackCounters", "fn cast_targets"],
    ),
];

/// `clone_box` survives on `NetScheduler` only, a separate contract.
const CLONE_BOX_HOME: &str = "crates/net/src/sched.rs";

/// Retired parameter keys survive in one file, as keys no layer reads: the
/// stack-string tests drive them into the unknown-key error.
const RETIRED_KEYS: &[&str] = &["push_src", "rto_max", "uni_gc", "merge_retries"];
const RETIRED_KEYS_HOME: &str = "tests/stack_strings.rs";

const ROOTS: &[&str] = &["crates", "src", "tests", "examples", ".github"];
const EXTENSIONS: &[&str] = &["rs", "yml", "toml"];

fn source_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            source_files(&path, out);
        } else if path.extension().is_some_and(|x| EXTENSIONS.iter().any(|e| x == *e)) {
            out.push(path);
        }
    }
}

/// Whether `name` occurs in `line`.
fn mentions(line: &str, name: &str) -> bool {
    let Some(word) = name.strip_suffix("\\b") else { return line.contains(name) };
    line.match_indices(word).any(|(at, _)| {
        !line[at + word.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
    })
}

#[test]
fn retired_names_stay_deleted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ROOTS {
        source_files(&root.join(dir), &mut files);
    }
    let (mut found, mut clone_box_home_seen, mut keys_home_seen) = (Vec::new(), false, false);
    for path in &files {
        let rel = path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
        if rel == "tests/retired_names.rs" {
            continue;
        }
        let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{rel}: {e}"));
        for (n, line) in text.lines().enumerate() {
            for &(why, names) in RETIRED {
                for &name in names {
                    if !mentions(line, name) {
                        continue;
                    }
                    if name == "fn clone_box" && rel == CLONE_BOX_HOME {
                        clone_box_home_seen = true;
                    } else if RETIRED_KEYS.contains(&name) && rel == RETIRED_KEYS_HOME {
                        keys_home_seen = true;
                    } else {
                        found.push(format!("{rel}:{}: `{name}` ({why})", n + 1));
                    }
                }
            }
        }
    }
    assert!(found.is_empty(), "retired names are back:\n{}", found.join("\n"));
    assert!(clone_box_home_seen, "the scan never reached {CLONE_BOX_HOME}");
    assert!(keys_home_seen, "the scan never reached {RETIRED_KEYS_HOME}");
}

#[test]
fn a_word_name_ignores_longer_identifiers() {
    assert!(mentions("    fn as_any(&self) -> &dyn Any {", "fn as_any\\b"));
    assert!(!mentions("    fn as_any_mut(&mut self) {", "fn as_any\\b"));
    assert!(mentions("let x = emit_buf_len;", "emit_buf"));
    assert!(mentions("StackInput::Tick { now } => {}", "::Tick\\b"));
    assert!(!mentions("const TIMER_TICK: u64 = 0;", "::Tick\\b"));
    assert!(!mentions("ctx.set_timer(BMS_TICK_PERIOD, BMS_TICK);", "::Tick\\b"));
}
