//! A `.check` schedule is outside input: whatever is wrong with one is an
//! error from `Schedule::parse` (or a scenario name no registry entry
//! answers to), never a panic out of the replay.
//!
//! The committed fixtures are mutated the way `soak_malformed.rs` mutates
//! a `.soak` artifact: words swapped, numbers overwritten with extremes,
//! lines dropped.

use horus_check::{replay_choices, Scenario, Schedule};
use proptest::prelude::*;

/// Every committed schedule, as lines of words.
fn fixtures() -> Vec<Vec<Vec<String>>> {
    let dir = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "check"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            std::fs::read_to_string(p)
                .expect("readable fixture")
                .lines()
                .map(|l| l.split_whitespace().map(str::to_string).collect())
                .collect()
        })
        .collect()
}

/// Values a numeric word is overwritten with: small, or at and past the
/// edges of `u16`, `u32` and `u64`.
const EXTREMES: [&str; 8] = [
    "0",
    "1",
    "65535",
    "65536",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
];

/// Applies one mutation to `lines`, the schedule as lines of words.  The
/// verdict line is free text and is left alone by the numeric kind.
fn mutate(lines: &mut Vec<Vec<String>>, kind: u8, a: usize, b: usize) {
    let words: Vec<(usize, usize)> =
        (1..lines.len()).flat_map(|l| (0..lines[l].len()).map(move |w| (l, w))).collect();
    if words.is_empty() {
        return;
    }
    match kind {
        // Swap two words.
        0 => {
            let ((la, wa), (lb, wb)) = (words[a % words.len()], words[b % words.len()]);
            let (x, y) = (lines[la][wa].clone(), lines[lb][wb].clone());
            (lines[la][wa], lines[lb][wb]) = (y, x);
        }
        // Overwrite a number: a line that holds some, then one of them, so
        // a long choice list does not crowd out the bounds above it.
        1 => {
            let numeric = |l: &Vec<String>| l[1..].iter().any(|w| w.parse::<u64>().is_ok());
            let rows: Vec<usize> = (1..lines.len())
                .filter(|&l| {
                    !lines[l].is_empty() && lines[l][0] != "verdict:" && numeric(&lines[l])
                })
                .collect();
            if let Some(&l) = rows.get(a % rows.len().max(1)) {
                let at: Vec<usize> =
                    (1..lines[l].len()).filter(|&w| lines[l][w].parse::<u64>().is_ok()).collect();
                lines[l][at[(a / 7) % at.len()]] = EXTREMES[b % EXTREMES.len()].to_string();
            }
        }
        // Drop a line below the header.
        _ => {
            if lines.len() > 2 {
                lines.remove(1 + a % (lines.len() - 1));
            }
        }
    }
}

/// A schedule text is refused, or names no scenario, or replays.
fn refused_or_replays(text: &str) {
    if let Ok(schedule) = Schedule::parse(text) {
        if let Some(scenario) = Scenario::by_name(&schedule.scenario) {
            // A panic here fails the test; any verdict is fine.
            let _ = replay_choices(scenario, &schedule.choices, &schedule.to_config());
        }
    }
}

#[test]
fn every_bound_at_every_extreme_is_refused_or_replays() {
    // Each key once, in the first fixture that carries it.
    let mut seen = std::collections::BTreeSet::new();
    for fixture in fixtures() {
        for row in 1..fixture.len() {
            let Some(key) = fixture[row].first().cloned() else { continue };
            if ["verdict:", "scenario:", "reduction:"].contains(&key.as_str()) || !seen.insert(key)
            {
                continue;
            }
            for extreme in EXTREMES {
                let mut lines = fixture.clone();
                lines[row].truncate(1);
                lines[row].push(extreme.to_string());
                refused_or_replays(
                    &lines.iter().map(|l| l.join(" ")).collect::<Vec<_>>().join("\n"),
                );
            }
        }
    }
    assert!(seen.len() >= 5, "{seen:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn a_mutated_schedule_is_refused_or_replays(
        fixture in any::<usize>(),
        mutations in proptest::collection::vec((0u8..3, any::<usize>(), any::<usize>()), 1..=3),
    ) {
        let all = fixtures();
        let mut lines = all[fixture % all.len()].clone();
        for (kind, a, b) in mutations {
            mutate(&mut lines, kind, a, b);
        }
        refused_or_replays(&lines.iter().map(|l| l.join(" ")).collect::<Vec<_>>().join("\n"));
    }
}
