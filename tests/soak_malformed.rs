//! A `.soak` artifact is outside input: whatever is wrong with one is an
//! error from loading it, never a panic out of the replay.
//!
//! Loading is what `examples/soak.rs --replay` does: `parse_artifact`, then
//! one trial build of the stack descriptor (`horus-sim` cannot name layers,
//! so that half belongs to whoever owns the stack factory).

use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus::sim::soak::{parse_artifact, run_soak, SoakConfig, SoakPlan};
use proptest::prelude::*;

fn load(text: &str) -> Result<(SoakConfig, SoakPlan), String> {
    let (cfg, plan) = parse_artifact(text)?;
    build_stack(EndpointAddr::new(1), &cfg.stack, StackConfig::default())
        .map_err(|e| format!("stack: {e}"))?;
    Ok((cfg, plan))
}

/// A valid artifact with one event of each kind and a short horizon.
const VALID: &str = "# horus-soak plan v1
seed: 3
members: 4
stack: MERGE(contacts=1,period=50):MBRSHIP:FD:FRAG:NAK:COM(promiscuous=true)
events: 4
horizon_us: 400000
quiet_us: 300000
settle_us: 1000000
loss: 0.02
casts: 8
check_total: false
event: 1050000 partition 1,4|2,3 120000
event: 1100000 storm 1,2>4
event: 1200000 crash 3
event: 1300000 merge 2>1
";

#[test]
fn a_stack_that_does_not_build_is_an_error() {
    assert!(load(VALID).is_ok());
    let err = load(&VALID.replace("MERGE(contacts=1,period=50):MBRSHIP", "BOGUS")).unwrap_err();
    assert!(err.contains("BOGUS"), "{err}");
}

/// Values a numeric field is overwritten with: small, or beyond every
/// bound `parse_artifact` sets — so a run that is let through stays short.
const EXTREMES: [&str; 11] = [
    "0",
    "1",
    "2",
    "5",
    "65",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "7.5",
    "NaN",
];

/// Applies one mutation to `lines`, the artifact as lines of words.  The
/// stack line is left alone by the numeric kind: a layer's own parameters
/// are the registry's to check, not the artifact's.
fn mutate(lines: &mut Vec<Vec<String>>, kind: u8, a: usize, b: usize) {
    let words: Vec<(usize, usize)> = (0..lines.len())
        .flat_map(|l| (0..lines[l].len()).map(move |w| (l, w)))
        .filter(|&(l, _)| l > 0)
        .collect();
    match kind {
        // Swap two words.
        0 => {
            let ((la, wa), (lb, wb)) = (words[a % words.len()], words[b % words.len()]);
            let (x, y) = (lines[la][wa].clone(), lines[lb][wb].clone());
            (lines[la][wa], lines[lb][wb]) = (y, x);
        }
        // Overwrite a number.
        1 => {
            let numbers: Vec<(usize, usize)> = words
                .into_iter()
                .filter(|&(l, w)| lines[l][0] != "stack:" && lines[l][w].parse::<f64>().is_ok())
                .collect();
            let (l, w) = numbers[a % numbers.len()];
            lines[l][w] = EXTREMES[b % EXTREMES.len()].to_string();
        }
        // Drop a line below the header.
        _ => {
            if lines.len() > 2 {
                lines.remove(1 + a % (lines.len() - 1));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn a_mutated_artifact_is_refused_or_runs_to_the_end(
        mutations in proptest::collection::vec((0u8..3, any::<usize>(), any::<usize>()), 1..=3),
    ) {
        let mut lines: Vec<Vec<String>> = VALID
            .lines()
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect();
        for (kind, a, b) in mutations {
            mutate(&mut lines, kind, a, b);
        }
        let text = lines.iter().map(|l| l.join(" ")).collect::<Vec<_>>().join("\n");
        if let Ok((cfg, plan)) = load(&text) {
            let stack = cfg.stack.clone();
            let factory = |ep: EndpointAddr| {
                build_stack(ep, &stack, StackConfig::default()).expect("built once already")
            };
            let outcome = run_soak(&cfg, &plan, &factory);
            prop_assert!(outcome.windows > 0, "{}", text);
        }
    }
}
