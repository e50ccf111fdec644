//! `horus-bench`: the repository's benchmark.  One process runs one
//! workload once and prints, as its last line, the result object that
//! `BENCHMARK.json` describes; `all` and `agree` run the whole set, one
//! child process per workload.  See `benchmark/README.md`.

mod metrics;
mod payload;
mod probes;
mod realtime;
mod spans;
mod stats;
mod verify;
mod virtual_time;

use metrics::{Values, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use spans::{SpanName, Spans};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOCATOR: spans::CountingAlloc = spans::CountingAlloc;

/// Where the spans files and the set results go, relative to the
/// repository root (`run.sh` changes into it).
const OUT_DIR: &str = "benchmark/out";

/// What one run of one workload produced.
pub struct Outcome {
    /// Operations attempted: casts, fault plans or explorations.
    pub attempted: u64,
    /// Those that were not delivered / judged exactly as they should be.
    pub failed: u64,
    pub values: Values,
    /// Context printed beside the metrics but not part of them.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome { attempted, failed, values: Values::default(), notes: Vec::new() }
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

#[derive(Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// `agree` only: runs per workload and set (the driver makes ten).
    runs: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: horus-bench --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]\n\
         \x20      horus-bench all [--seed <u64>] [--seconds <n>]\n\
         \x20      horus-bench agree [--runs <n>] [--workload <name>] [--seed <u64>] [--seconds <n>]\n\
         \x20      horus-bench manifest\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn parse_flags(args: &[String]) -> Option<Args> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        runs: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().ok()?,
            "--seconds" => a.seconds = value.parse().ok().filter(|s| *s >= 1.0 && *s <= 60.0)?,
            "--trace" => a.traced = matches!(value.as_str(), "1"),
            "--runs" => a.runs = value.parse().ok().filter(|r| *r >= 2)?,
            _ => return None,
        }
    }
    Some(a)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Machine, toolchain and revision, recorded with every result.
fn environment() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // The driver's checkout is not a git repository; read the revision
    // straight from `.git` when there is one, start no process.
    let git = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map_or_else(|| "unknown".into(), |rev| rev.trim().to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("git", git),
        ("rustc", env!("HORUS_BENCH_RUSTC").to_string()),
        ("profile", "release".to_string()),
    ]
}

fn run_workload(a: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    let rt = |spec: &realtime::Spec, spans: &mut Spans| {
        if a.traced {
            realtime::run_traced(spec, &a.workload, a.seed, a.seconds, spans)
        } else {
            realtime::run(spec, a.seed, a.seconds, spans)
        }
    };
    match (a.workload.as_str(), a.traced) {
        ("fifo_small", _) => rt(&realtime::FIFO_SMALL, spans),
        ("vsync_total", _) => rt(&realtime::VSYNC_TOTAL, spans),
        ("frag_bulk", _) => rt(&realtime::FRAG_BULK, spans),
        ("soak_faults", false) => Ok(virtual_time::soak_faults(a.seed, a.seconds, spans)),
        ("soak_faults", true) => Ok(virtual_time::soak_faults_traced(a.seed, a.seconds, spans)),
        ("check_explore", false) => Ok(virtual_time::check_explore(a.seconds, spans)),
        ("check_explore", true) => Ok(virtual_time::check_explore_traced(a.seconds, spans)),
        (other, _) => Err(format!("unknown workload {other:?}")),
    }
}

/// Runs one workload in this process and prints its result; the last line
/// of standard output is the result object.
fn single(a: &Args) -> ExitCode {
    let mut spans = Spans::new(a.traced);
    spans.enter(SpanName::Workload, None);
    let outcome = run_workload(a, &mut spans);
    spans.exit();
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("horus-bench {}: {e}", a.workload);
            return ExitCode::from(2);
        }
    };
    if a.traced {
        let path = format!("{OUT_DIR}/spans-{}.json", a.workload);
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, spans.to_json(&a.workload, a.seed)));
        match written {
            Ok(()) => outcome.note("spans_file", &path),
            Err(e) => {
                eprintln!("horus-bench: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        outcome.values.set("peak_rss_mb", spans::peak_rss_mib());
    }

    let correct = outcome.failed == 0;
    println!(
        "# horus-bench {} seed={} seconds={} trace={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.traced)
    );
    for (k, v) in environment() {
        println!("# {k}: {v}");
    }
    let wanted: Vec<(&str, &str)> = if a.traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut json = String::new();
    for (name, unit) in wanted {
        // A layer this workload does not exercise reads 0.
        let value = outcome.values.get(name).unwrap_or(0.0);
        if !value.is_finite() {
            eprintln!("horus-bench: {name} is not a number");
            return ExitCode::from(2);
        }
        println!("{name:<52} {value:>18.6} {unit}");
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    let share = verify::failed_share(outcome.failed, outcome.attempted);
    println!(
        "{:<52} {share:>16.6} ratio ({} of {})",
        "failed_share", outcome.failed, outcome.attempted
    );
    for (k, v) in &outcome.notes {
        println!("# {k}: {v}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs one workload in a child process (its own address space, so
/// `peak_rss_mb` is its own), echoes its report and returns its result line.
fn child(workload: &str, a: &Args, traced: bool, echo: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this program: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if echo || !out.status.success() {
        print!("{text}");
    } else {
        println!("# {workload} seed {}: {}", a.seed, text.lines().last().unwrap_or(""));
    }
    if !out.status.success() {
        return Err(format!("the {workload} run ended with {}", out.status));
    }
    text.lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("the {workload} run printed nothing"))
}

/// `"name": {"value": <number>` pairs of a result line, in order.
fn metric_values(line: &str) -> Vec<(String, f64)> {
    let mut found = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..at].to_string();
        let after = &rest[at + "\": {\"value\": ".len()..];
        let end = after.find([',', '}']).unwrap_or(after.len());
        if let Ok(v) = after[..end].trim().parse::<f64>() {
            found.push((name, v));
        }
        rest = &after[end..];
    }
    found
}

fn write_out(file: &str, body: &str) -> Result<(), String> {
    let path = format!("{OUT_DIR}/{file}");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, body))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("# wrote {path}");
    Ok(())
}

fn env_json() -> String {
    let fields: Vec<String> =
        environment().iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    format!("{{{}}}", fields.join(", "))
}

/// The five workloads untraced, then the five traced.
fn all(a: &Args) -> Result<(), String> {
    let mut runs = Vec::new();
    for traced in [false, true] {
        for w in &WORKLOADS {
            let line = child(w.name, a, traced, true)?;
            runs.push(format!(
                "  {{\"workload\": {}, \"trace\": {}, \"result\": {line}}}",
                json_str(w.name),
                u8::from(traced)
            ));
        }
    }
    let body = format!(
        "{{\"env\": {}, \"seed\": {}, \"seconds\": {},\n \"runs\": [\n{}\n]}}\n",
        env_json(),
        a.seed,
        a.seconds,
        runs.join(",\n")
    );
    write_out("result.json", &body)
}

/// The driver's acceptance check, run here: two sets of `--runs` untraced
/// runs per workload (seeds `seed..seed + runs`, the same in both sets).
/// Per metric it prints each set's median and quartile spread and by how
/// much the second median is worse than the first — this machine's noise
/// floor — and fails when a spread (other than `setup_s`'s) or that
/// difference exceeds the metric's bound.  With `--workload` only that
/// workload is run.
fn agree(a: &Args) -> Result<(), String> {
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|w| a.workload.is_empty() || *w == a.workload)
        .collect();
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()]; 2];
    for set in &mut values {
        for (w, per_metric) in workloads.iter().zip(set.iter_mut()) {
            for run in 0..a.runs {
                let one = Args { seed: a.seed + run, workload: w.to_string(), ..*a };
                let found = metric_values(&child(w, &one, false, false)?);
                for (m, samples) in END_TO_END.iter().zip(per_metric.iter_mut()) {
                    let v = found.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v);
                    samples.push(v.ok_or_else(|| format!("{w}: no {} in the result", m.name))?);
                }
            }
        }
    }
    let mut rows = Vec::new();
    let mut beyond = 0;
    println!(
        "\n{:<14} {:<17} {:>13} {:>7} {:>13} {:>7} {:>9} {:>6}",
        "workload", "metric", "median_1", "spread", "median_2", "spread", "worse_by", "bound"
    );
    for (i, w) in workloads.iter().enumerate() {
        for (j, m) in END_TO_END.iter().enumerate() {
            let (first, second) = (&values[0][i][j], &values[1][i][j]);
            let (m1, m2) = (stats::median(first), stats::median(second));
            let (s1, s2) = (stats::quartile_spread(first), stats::quartile_spread(second));
            let worse_by = if m.better == "lower" { m2 / m1 - 1.0 } else { m1 / m2 - 1.0 };
            let steady = m.name == "setup_s" || s1.max(s2) <= m.bound;
            let within = steady && worse_by <= m.bound;
            beyond += usize::from(!within);
            println!(
                "{w:<14} {:<17} {m1:>13.4} {:>6.1}% {m2:>13.4} {:>6.1}% {:>8.1}% {:>5.0}%{}",
                m.name,
                s1 * 100.0,
                s2 * 100.0,
                worse_by * 100.0,
                m.bound * 100.0,
                if within { "" } else { "  BEYOND" }
            );
            rows.push(format!(
                "  {{\"workload\": {}, \"metric\": {}, \"median_1\": {m1}, \"spread_1\": {s1}, \"median_2\": {m2}, \"spread_2\": {s2}, \"worse_by\": {worse_by}, \"bound\": {}, \"within\": {within}}}",
                json_str(w),
                json_str(m.name),
                m.bound
            ));
        }
    }
    let body = format!(
        "{{\"env\": {}, \"seed\": {}, \"runs\": {}, \"seconds\": {},\n \"noise_floor\": [\n{}\n]}}\n",
        env_json(),
        a.seed,
        a.runs,
        a.seconds,
        rows.join(",\n")
    );
    write_out("agree.json", &body)?;
    if beyond > 0 {
        return Err(format!(
            "{beyond} end-to-end metrics are not steady within their bound on two sets of the same build"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("horus-bench measures optimized builds only: build with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = match args.first().map(String::as_str) {
        Some(c @ ("all" | "agree" | "manifest")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let Some(a) = parse_flags(flags) else { return usage() };
    let done = match command {
        "manifest" => {
            print!("{}", metrics::manifest_json());
            Ok(())
        }
        "all" => all(&a),
        "agree" => agree(&a),
        _ if a.workload.is_empty() => return usage(),
        _ => return single(&a),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("horus-bench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_values_are_read_back() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.0125, "unit": "s"}, "lat_p50_us": {"value": 31.5, "unit": "us"}, "core.pump_ns.NAK-COM": {"value": 2200, "unit": "ns"}}}"#;
        assert_eq!(
            metric_values(line),
            vec![
                ("setup_s".to_string(), 0.0125),
                ("lat_p50_us".to_string(), 31.5),
                ("core.pump_ns.NAK-COM".to_string(), 2200.0)
            ]
        );
    }

    #[test]
    fn strings_are_escaped_for_json() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn flags_parse_and_reject() {
        let v = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_flags(&v("--workload frag_bulk --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.traced), ("frag_bulk", 9, 3.0, true));
        assert_eq!(parse_flags(&v("--runs 4")).unwrap().runs, 4);
        assert!(parse_flags(&v("--runs 1")).is_none(), "a spread needs two runs");
        assert!(parse_flags(&v("--seed x")).is_none());
        assert!(parse_flags(&v("--seconds 0")).is_none());
        assert!(parse_flags(&v("--bogus 1")).is_none());
        assert!(parse_flags(&v("--seed")).is_none());
    }
}
