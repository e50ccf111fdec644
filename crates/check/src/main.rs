//! `horus-check`: bounded model checking of Horus protocol stacks.
//!
//! ```text
//! horus-check scenarios
//! horus-check explore <scenario> [--depth N] [--drops N] [--max-crashes N]
//!                     [--max-suspects N] [--wedge-oracle]
//!                     [--states N] [--runs N] [--window-us N]
//!                     [--oracle] [--out FILE]
//! horus-check replay <schedule-file> [--trace FILE] [--sample N]
//!                    [--kinds a,b,...]
//! horus-check bridge <trace-file> [--out FILE]
//! ```
//!
//! `explore` exits 0 when the bounded space is clean, 3 when a violation was
//! found (after shrinking and printing/writing the schedule); `--oracle`
//! runs the reference search (no reduction, from-scratch fingerprints,
//! stateless replay) the fast path is tested against.  `replay` exits 0
//! when the re-executed verdict matches the one recorded in the file, 2 on
//! a mismatch; `--trace` additionally captures the replay as a causal trace
//! file (inspect with `horus-trace`, convert back with `bridge`) —
//! `--sample N` keeps 1-in-N records, and `--kinds` restricts the capture
//! to a comma-separated kind list (the thinning flags are stamped into the
//! meta; sampled traces cannot be bridged).  `bridge` re-enacts a captured
//! trace into a replayable schedule.

use horus_check::schedule::{verdict_line, MAX_WINDOW_US};
use horus_check::{
    explore, replay_choices, replay_choices_traced, schedule_from_trace, trace_meta, CheckConfig,
    Scenario, Schedule,
};
use horus_core::trace::{FilterSink, KindMask, SamplingSink, TraceSink};
use horus_trace::{
    parse_trace_v2, serialize_trace_v2, TraceBuf, META_KINDS, META_SAMPLED_OUT, META_SAMPLE_EVERY,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  horus-check scenarios\n  horus-check explore <scenario> [--depth N] \
         [--drops N] [--max-crashes N] [--max-suspects N] [--wedge-oracle] [--states N] \
         [--runs N] [--window-us N] [--oracle] [--out FILE]\n  \
         horus-check replay <schedule-file> [--trace FILE] [--sample N] [--kinds a,b,...]\n  \
         horus-check bridge <trace-file> [--out FILE]"
    );
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("scenarios") => {
            for s in Scenario::all() {
                println!("{:<10} {} members, stack {} — {}", s.name, s.members, s.stack, s.summary);
            }
            ExitCode::SUCCESS
        }
        Some("explore") => cmd_explore(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("bridge") => cmd_bridge(&args[1..]),
        _ => usage(),
    }
}

fn cmd_explore(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else { return usage() };
    let Some(scenario) = Scenario::by_name(name) else {
        eprintln!("unknown scenario {name:?}; try `horus-check scenarios`");
        return ExitCode::from(1);
    };
    let (cfg, out) = match explore_flags(&args[1..]) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };

    let started = std::time::Instant::now();
    let report = explore(scenario, &cfg);
    let secs = started.elapsed().as_secs_f64();
    println!(
        "scenario {}: {} runs, {} states, {} steps, {} branch points, {} pruned in {:.2}s ({})",
        report.scenario,
        report.runs,
        report.states,
        report.steps,
        report.branch_points,
        report.pruned,
        secs,
        if report.exhausted { "exhausted" } else { "budget reached" },
    );
    let Some(v) = report.violation else {
        println!("no violations within bounds");
        return ExitCode::SUCCESS;
    };
    println!("VIOLATION ({}): {}", v.oracle, v.message);
    println!("shrinking {} choices...", v.choices.len());
    let small = horus_check::shrink(scenario, &cfg, v.oracle, &v.choices);
    let rec = replay_choices(scenario, &small, &cfg);
    let schedule = Schedule::new(scenario, &cfg, &small, verdict_line(&rec));
    let text = schedule.serialize();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(1);
            }
            println!("schedule written to {path} ({} choices)", small.len());
        }
        None => print!("{text}"),
    }
    ExitCode::from(3)
}

/// Reads `explore`'s flags into a config and the `--out` path; a bad
/// flag or value has already been reported when this returns `Err`.
fn explore_flags(flags: &[String]) -> Result<(CheckConfig, Option<String>), ExitCode> {
    let mut cfg = CheckConfig::default();
    let mut out = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--depth" => cfg.max_depth = number(flag, it.next())?,
            "--drops" => cfg.max_drops = number(flag, it.next())?,
            "--max-crashes" => cfg.max_crashes = number(flag, it.next())?,
            "--max-suspects" => cfg.max_suspects = number(flag, it.next())?,
            "--states" => cfg.max_states = number(flag, it.next())?,
            "--runs" => cfg.max_runs = number(flag, it.next())?,
            "--window-us" => {
                let us = number(flag, it.next())?;
                if us > MAX_WINDOW_US {
                    eprintln!("{flag}: at most {MAX_WINDOW_US} µs (an hour), got {us}");
                    return Err(ExitCode::from(1));
                }
                cfg.window = Duration::from_micros(us);
            }
            "--wedge-oracle" => cfg.wedge_oracle = true,
            "--oracle" => cfg.oracle = true,
            "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => {
                    eprintln!("--out needs a value");
                    return Err(ExitCode::from(1));
                }
            },
            other => {
                eprintln!("unknown flag {other:?}");
                return Err(usage());
            }
        }
    }
    Ok((cfg, out))
}

/// The value after `flag` as a number, or exit 1 with a message that
/// names the flag and what it got.
fn number<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, ExitCode> {
    let Some(v) = value else {
        eprintln!("{flag}: expected a number, got nothing");
        return Err(ExitCode::from(1));
    };
    v.parse().map_err(|_| {
        eprintln!("{flag}: expected a number, got {v:?}");
        ExitCode::from(1)
    })
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else { return usage() };
    let mut trace_out: Option<String> = None;
    let mut sample: u64 = 1;
    let mut kinds: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trace" => match it.next() {
                Some(v) => trace_out = Some(v.clone()),
                None => return usage(),
            },
            "--sample" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => sample = n,
                _ => return usage(),
            },
            "--kinds" => match it.next() {
                Some(v) => kinds = Some(v.clone()),
                None => return usage(),
            },
            other => {
                eprintln!("unknown flag {other:?}");
                return usage();
            }
        }
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let schedule = match Schedule::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let Some(scenario) = Scenario::by_name(&schedule.scenario) else {
        eprintln!("schedule references unknown scenario {:?}", schedule.scenario);
        return ExitCode::from(1);
    };
    let cfg = schedule.to_config();
    let rec = match &trace_out {
        Some(out) => {
            let buf = Arc::new(TraceBuf::new());
            // Wrap inside-out: the filter sees every record and the
            // sampler thins what the filter admits, so `--sample N` means
            // 1-in-N of the records the capture would otherwise keep.
            let mut sink: Arc<dyn TraceSink> = buf.clone();
            if let Some(spec) = &kinds {
                match KindMask::from_names(spec.split(',')) {
                    Ok(m) => sink = Arc::new(FilterSink::new(sink, m)),
                    Err(e) => {
                        eprintln!("--kinds: {e}");
                        return usage();
                    }
                }
            }
            let sampler = (sample > 1).then(|| {
                let s = Arc::new(SamplingSink::new(sink.clone(), sample));
                sink = s.clone() as Arc<dyn TraceSink>;
                s
            });
            let rec = replay_choices_traced(scenario, &schedule.choices, &cfg, sink);
            let mut meta = trace_meta(scenario, &cfg);
            if let Some(spec) = &kinds {
                meta.push((META_KINDS.to_string(), spec.clone()));
            }
            if let Some(s) = &sampler {
                meta.push((META_SAMPLE_EVERY.to_string(), s.every().to_string()));
                meta.push((META_SAMPLED_OUT.to_string(), s.sampled_out().to_string()));
            }
            let records = buf.take();
            let bytes = serialize_trace_v2(&meta, &records);
            if let Err(e) = std::fs::write(out, &bytes) {
                eprintln!("cannot write {out}: {e}");
                return ExitCode::from(1);
            }
            println!("trace written to {out} ({} records, {} bytes)", records.len(), bytes.len());
            rec
        }
        None => replay_choices(scenario, &schedule.choices, &cfg),
    };
    let verdict = verdict_line(&rec);
    println!("replayed {} with {} choices: {verdict}", schedule.scenario, schedule.choices.len());
    if verdict == schedule.verdict {
        println!("verdict matches the recorded one");
        ExitCode::SUCCESS
    } else {
        eprintln!("VERDICT DRIFT\n  recorded: {}\n  replayed: {verdict}", schedule.verdict);
        ExitCode::from(2)
    }
}

fn cmd_bridge(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else { return usage() };
    let mut out: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => return usage(),
            },
            other => {
                eprintln!("unknown flag {other:?}");
                return usage();
            }
        }
    }
    let bytes = match std::fs::read(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let trace = match parse_trace_v2(&bytes) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let schedule = match schedule_from_trace(&trace) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bridge {path}: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "bridged {} ({} records) into {} choices: {}",
        path,
        trace.records.len(),
        schedule.choices.len(),
        schedule.verdict
    );
    let text = schedule.serialize();
    match out {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, &text) {
                eprintln!("cannot write {p}: {e}");
                return ExitCode::from(1);
            }
            println!("schedule written to {p}");
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}
