//! Seeded chaos-soak campaign driver (liveness under faults, §5/§9).
//!
//! Each iteration derives a random fault plan from the seed — set-based
//! partitions that heal, crashes, suspicion storms, merge nudges — runs
//! it against a self-healing MERGE stack under lossy network physics,
//! and judges the run with both the safety checkers and the liveness
//! monitors (progress watchdog, post-heal view convergence, final-view
//! delivery).  On violation the fault plan is ddmin-minimized and
//! emitted as a replayable `(seed, plan)` artifact.
//!
//! ```text
//! cargo run --example soak                                # default campaign
//! cargo run --example soak -- --seeds 8 --seed-base 100
//! cargo run --example soak -- --stack "MERGE(contacts=1,period=50):MBRSHIP:FRAG:NAK(retransmit=false):COM(promiscuous=true)" --expect-violation
//! cargo run --example soak -- --replay plan.soak
//! cargo run --example soak -- --out minimized.soak
//! cargo run --example soak -- --replay plan.soak --trace run.trace --trace-sample 16
//! ```
//!
//! Exit status: 0 when the campaign matches expectations (clean by
//! default, violating under `--expect-violation`), 1 otherwise.

use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus::sim::soak::{
    gen_plan, minimize_plan, parse_artifact, run_soak, run_soak_traced, serialize_artifact_traced,
    SoakConfig, SoakOutcome, SoakPlan,
};
use horus::trace::{serialize_trace_v2, TraceBuf, META_SAMPLED_OUT, META_SAMPLE_EVERY};
use std::process::ExitCode;
use std::sync::Arc;

/// Runs one soak, optionally capturing a sampled trace to `path`.
fn run_with_capture(
    cfg: &SoakConfig,
    plan: &SoakPlan,
    factory: &dyn Fn(EndpointAddr) -> Stack,
    capture: Option<&str>,
) -> SoakOutcome {
    let Some(path) = capture else {
        return run_soak(cfg, plan, factory);
    };
    let buf = Arc::new(TraceBuf::new());
    let outcome = run_soak_traced(cfg, plan, factory, Some(buf.clone()));
    let meta = vec![
        (META_SAMPLE_EVERY.to_string(), cfg.trace_sample.max(1).to_string()),
        (META_SAMPLED_OUT.to_string(), outcome.trace_sampled_out.to_string()),
        ("scenario".to_string(), "soak".to_string()),
        ("seed".to_string(), cfg.seed.to_string()),
        ("stack".to_string(), cfg.stack.clone()),
    ];
    std::fs::write(path, serialize_trace_v2(&meta, &buf.take())).expect("write trace");
    println!(
        "  trace: kept={} sampled_out={} (1-in-{}) -> {path}",
        outcome.trace_kept,
        outcome.trace_sampled_out,
        cfg.trace_sample.max(1)
    );
    outcome
}

fn main() -> ExitCode {
    let mut cfg = SoakConfig::default();
    let mut seeds = 4u64;
    let mut seed_base = 1u64;
    let mut expect_violation = false;
    let mut out: Option<String> = None;
    let mut replay: Option<String> = None;
    let mut show_transcript = false;
    let mut trace: Option<String> = None;
    let mut trace_sample: Option<u64> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("missing value for {}", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--seeds" => {
                seeds = need(i).parse().expect("--seeds N");
                i += 1;
            }
            "--seed-base" => {
                seed_base = need(i).parse().expect("--seed-base N");
                i += 1;
            }
            "--events" => {
                cfg.events = need(i).parse().expect("--events N");
                i += 1;
            }
            "--loss" => {
                cfg.loss = need(i).parse().expect("--loss P");
                i += 1;
            }
            "--stack" => {
                cfg.stack = need(i);
                i += 1;
            }
            "--out" => {
                out = Some(need(i));
                i += 1;
            }
            "--replay" => {
                replay = Some(need(i));
                i += 1;
            }
            "--trace" => {
                trace = Some(need(i));
                i += 1;
            }
            "--trace-sample" => {
                trace_sample = Some(need(i).parse().expect("--trace-sample N"));
                i += 1;
            }
            "--expect-violation" => expect_violation = true,
            "--transcript" => show_transcript = true,
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    if let Some(path) = replay {
        // The artifact is outside input: whatever is wrong with it is an
        // error message and exit 1, and only a stack that built once goes
        // on to the factory.
        let loaded = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_artifact(&text))
            .and_then(|(cfg, plan)| {
                build_stack(EndpointAddr::new(1), &cfg.stack, StackConfig::default())
                    .map_err(|e| format!("stack: {e}"))?;
                Ok((cfg, plan))
            });
        let (mut cfg, plan) = match loaded {
            Ok(loaded) => loaded,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(1);
            }
        };
        if let Some(n) = trace_sample {
            cfg.trace_sample = n;
        }
        let stack = cfg.stack.clone();
        let factory = |ep: EndpointAddr| {
            build_stack(ep, &stack, StackConfig::default()).expect("stack builds")
        };
        let outcome = run_with_capture(&cfg, &plan, &factory, trace.as_deref());
        println!(
            "replay {path}: seed {} events {} -> {} violation(s), {} deliveries",
            cfg.seed,
            plan.events.len(),
            outcome.violations.len(),
            outcome.delivered
        );
        for v in &outcome.violations {
            println!("  {v}");
        }
        if show_transcript {
            print!("{}", outcome.transcript);
        }
        if !outcome.violations.is_empty() {
            // Show where the leftover work lives, layer by layer.
            for (m, pending, layers) in &outcome.dumps {
                println!("  {m} pending={pending}: {layers}");
            }
        }
        let bad = outcome.violations.is_empty() == expect_violation;
        return ExitCode::from(u8::from(bad));
    }

    if let Some(n) = trace_sample {
        cfg.trace_sample = n;
    }
    let stack = cfg.stack.clone();
    let factory =
        |ep: EndpointAddr| build_stack(ep, &stack, StackConfig::default()).expect("stack builds");
    let mut violating = 0u64;
    for s in 0..seeds {
        let cfg = SoakConfig { seed: seed_base + s, ..cfg.clone() };
        let plan = gen_plan(&cfg);
        let capture = trace.as_ref().map(|t| format!("{t}.seed{}", cfg.seed));
        let outcome = run_with_capture(&cfg, &plan, &factory, capture.as_deref());
        if outcome.violations.is_empty() {
            println!(
                "seed {:>4}: clean  ({} events, {} windows, {} deliveries)",
                cfg.seed,
                plan.events.len(),
                outcome.windows,
                outcome.delivered
            );
            continue;
        }
        violating += 1;
        println!(
            "seed {:>4}: VIOLATION after {} windows — {}",
            cfg.seed, outcome.windows, outcome.violations[0]
        );
        let min = minimize_plan(&cfg, &plan, &factory, 200);
        let min_capture = capture.as_ref().map(|c| format!("{c}.min"));
        let verdict = run_with_capture(&cfg, &min, &factory, min_capture.as_deref());
        println!(
            "  minimized {} -> {} event(s); first oracle: {}",
            plan.events.len(),
            min.events.len(),
            verdict.violations.first().map(|v| v.to_string()).unwrap_or_default()
        );
        let counts = trace.as_ref().map(|_| (verdict.trace_kept, verdict.trace_sampled_out));
        let artifact = serialize_artifact_traced(&cfg, &min, &verdict.violations, counts);
        match &out {
            Some(path) => {
                std::fs::write(path, &artifact).expect("write artifact");
                println!("  artifact written to {path}");
            }
            None => print!("{artifact}"),
        }
    }
    let ok = if expect_violation { violating > 0 } else { violating == 0 };
    println!(
        "campaign: {seeds} iteration(s), {violating} violating — {}",
        if ok { "as expected" } else { "UNEXPECTED" }
    );
    ExitCode::from(u8::from(!ok))
}
