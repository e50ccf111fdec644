//! `horus-trace` — inspect trace files produced by the Horus executors.
//!
//! ```text
//! horus-trace dump <file> [--chrome] [--ep N] [--kind NAME]
//! horus-trace stats <file> [--latency]
//! horus-trace diff <a> <b>
//! horus-trace export <file> [--prometheus]
//! ```
//!
//! Every subcommand reads the v2 binary format — the only encoding on disk.
//! `dump` renders records as text, one line each (optionally filtered, or as
//! Chrome-trace JSON for `about:tracing` / Perfetto); nothing parses that
//! text back.  `stats` summarizes a trace; `--latency`
//! adds the per-(endpoint, layer) dwell and timer-latency histograms.
//! `diff` compares the canonical delivery projections of two traces — exit
//! 0 when they agree, 2 when they drift (timestamps and scheduling noise
//! are deliberately ignored; see `delivery_projection`) — and points at
//! the first diverging record for debugging.  `export` renders a
//! Prometheus-style text exposition.

use horus_core::trace::kind_id_by_name;
use horus_trace::{
    chrome_trace, delivery_projection, first_divergence, kind_counts, latency_stats,
    metrics::prometheus_text, parse_trace_v2, record_line, trace_text, Histogram, LatencyStats,
    ParsedTrace, META_SAMPLED_OUT, META_SAMPLE_EVERY,
};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: horus-trace dump <file> [--chrome] [--ep N] [--kind NAME]");
    eprintln!("       horus-trace stats <file> [--latency]");
    eprintln!("       horus-trace diff <a> <b>");
    eprintln!("       horus-trace export <file> [--prometheus]");
    ExitCode::from(1)
}

/// Reads and parses a trace file; on failure prints why and yields the
/// exit code (1).
fn load(path: &str) -> Result<ParsedTrace, ExitCode> {
    let parsed = std::fs::read(path).map_err(|e| e.to_string()).and_then(|b| parse_trace_v2(&b));
    parsed.map_err(|e| {
        eprintln!("error: {path}: {e}");
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    match cmd.as_str() {
        "dump" => cmd_dump(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "diff" => cmd_diff(&args[1..]),
        "export" => cmd_export(&args[1..]),
        _ => usage(),
    }
}

fn cmd_dump(args: &[String]) -> ExitCode {
    let mut file = None;
    let mut chrome = false;
    let mut ep_filter = None;
    let mut kind_filter = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--chrome" => chrome = true,
            "--ep" => match it.next().map(|v| (v, v.parse::<u64>())) {
                Some((_, Ok(v))) => ep_filter = Some(v),
                Some((v, Err(_))) => {
                    eprintln!("error: --ep wants an endpoint number, got {v:?}");
                    return ExitCode::from(1);
                }
                None => return usage(),
            },
            "--kind" => match it.next().map(|v| (v, kind_id_by_name(v))) {
                Some((_, Some(id))) => kind_filter = Some(id),
                Some((v, None)) => {
                    eprintln!("error: --kind: unknown kind {v:?}");
                    return ExitCode::from(1);
                }
                None => return usage(),
            },
            _ if file.is_none() => file = Some(a.clone()),
            _ => return usage(),
        }
    }
    let Some(file) = file else { return usage() };
    let mut trace = match load(&file) {
        Ok(t) => t,
        Err(code) => return code,
    };
    trace.records.retain(|r| {
        ep_filter.is_none_or(|ep| r.ep.raw() == ep)
            && kind_filter.is_none_or(|id| r.kind.id() == id)
    });
    // File order is already dispatch order under virtual time; the shard
    // executor's workers record into one buffer concurrently, so present
    // by timestamp.
    trace.records.sort_by_key(|r| r.at);
    let text = if chrome { chrome_trace(&trace.records) } else { trace_text(&trace) };
    // A reader that stops early (`dump ... | head`) is not an error.
    use std::io::Write as _;
    match std::io::stdout().write_all(text.as_bytes()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
        _ => ExitCode::SUCCESS,
    }
}

fn print_histogram_table(title: &str, map: &BTreeMap<(u64, String), Histogram>) {
    if map.is_empty() {
        return;
    }
    println!("{title}:");
    println!(
        "  {:<6} {:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "ep", "layer", "count", "p50", "p90", "p99", "max"
    );
    let row = |ep: &str, layer: &str, h: &Histogram| {
        println!(
            "  {:<6} {:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
            ep,
            layer,
            h.count(),
            h.quantile(50, 100),
            h.quantile(90, 100),
            h.quantile(99, 100),
            h.max()
        );
    };
    for ((ep, layer), h) in map {
        row(&ep.to_string(), layer, h);
    }
    for (layer, h) in LatencyStats::aggregate(map) {
        row("all", &layer, &h);
    }
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let mut file = None;
    let mut latency = false;
    for a in args {
        match a.as_str() {
            "--latency" => latency = true,
            _ if file.is_none() => file = Some(a.clone()),
            _ => return usage(),
        }
    }
    let Some(file) = file else { return usage() };
    let trace = match load(&file) {
        Ok(t) => t,
        Err(code) => return code,
    };
    for (k, v) in &trace.meta {
        println!("meta {k}: {v}");
    }
    let n = trace.records.len();
    println!("records: {n}");
    // Sampling is reported, not warned: the operator asked for the thinning.
    if let Some(every) = trace.meta.get(META_SAMPLE_EVERY).and_then(|v| v.parse::<u64>().ok()) {
        if every > 1 {
            let out = trace.meta.get(META_SAMPLED_OUT).map(String::as_str).unwrap_or("?");
            println!("sampling: 1-in-{every} ({out} records sampled out at capture)");
        }
    }
    if n > 0 {
        let lo = trace.records.iter().map(|r| r.at.as_nanos()).min().unwrap();
        let hi = trace.records.iter().map(|r| r.at.as_nanos()).max().unwrap();
        println!("span: {lo}ns .. {hi}ns ({}us)", (hi - lo) / 1000);
    }
    println!("by kind:");
    for (kind, count) in kind_counts(&trace.records) {
        println!("  {kind:<16} {count}");
    }
    let mut by_ep: BTreeMap<u64, u64> = BTreeMap::new();
    for r in &trace.records {
        *by_ep.entry(r.ep.raw()).or_insert(0) += 1;
    }
    println!("by endpoint:");
    for (ep, count) in by_ep {
        println!("  ep:{ep:<14} {count}");
    }
    let proj = delivery_projection(&trace.records);
    if !proj.is_empty() {
        println!("delivery streams:");
        for ((rx, tx), digests) in proj {
            println!("  ep:{tx} -> ep:{rx}  {} casts", digests.len());
        }
    }
    if latency {
        let stats = latency_stats(&trace.records);
        if stats.is_empty() {
            println!("latency: no layer crossings in this trace");
        } else {
            print_histogram_table("latency: layer dwell (ns)", &stats.dwell);
            print_histogram_table("latency: timer arm->fire (ns)", &stats.timer);
        }
    }
    ExitCode::SUCCESS
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else { return usage() };
    let (a, b) = match load(a_path).and_then(|a| Ok((a, load(b_path)?))) {
        Ok(ab) => ab,
        Err(code) => return code,
    };
    let (pa, pb) = (delivery_projection(&a.records), delivery_projection(&b.records));
    let mut drift = false;
    for key in pa.keys().chain(pb.keys()).collect::<BTreeSet<_>>() {
        let (va, vb) = (pa.get(key), pb.get(key));
        if va != vb {
            drift = true;
            println!(
                "stream ep:{} -> ep:{} differs: {} vs {} casts",
                key.1,
                key.0,
                va.map_or(0, Vec::len),
                vb.map_or(0, Vec::len)
            );
        }
    }
    let (ka, kb) = (kind_counts(&a.records), kind_counts(&b.records));
    if ka != kb {
        println!("kind counts differ:");
        for kind in ka.keys().chain(kb.keys()).collect::<BTreeSet<_>>() {
            let (ca, cb) = (ka.get(kind).copied().unwrap_or(0), kb.get(kind).copied().unwrap_or(0));
            if ca != cb {
                println!("  {kind:<16} {ca} vs {cb}");
            }
        }
    }
    // The debugging pointer: where, record for record, do the streams
    // first disagree?  Stricter than the projection (timestamps count), so
    // it can be Some even when the verdict below is "match".
    if let Some(i) = first_divergence(&a.records, &b.records) {
        let kind = |t: &ParsedTrace| t.records.get(i).map_or("end-of-trace", |r| r.kind.name());
        println!("records first diverge at index {i} ({} vs {}):", kind(&a), kind(&b));
        for (name, trace) in [("a", &a), ("b", &b)] {
            match trace.records.get(i) {
                Some(r) => println!("  {name}: {}", record_line(r)),
                None => println!("  {name}: <ended after {} records>", trace.records.len()),
            }
        }
    }
    if drift {
        println!("traces DIVERGE");
        ExitCode::from(2)
    } else {
        println!("delivery projections match ({} streams)", pa.len());
        ExitCode::SUCCESS
    }
}

fn cmd_export(args: &[String]) -> ExitCode {
    let mut file = None;
    for a in args {
        match a.as_str() {
            // The only exposition today; accepted explicitly so scripts
            // can say what they mean.
            "--prometheus" => {}
            _ if file.is_none() => file = Some(a.clone()),
            _ => return usage(),
        }
    }
    let Some(file) = file else { return usage() };
    let trace = match load(&file) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let latency = latency_stats(&trace.records);
    let kinds: BTreeMap<String, u64> = kind_counts(&trace.records);
    print!("{}", prometheus_text(&latency, &kinds));
    ExitCode::SUCCESS
}
