//! Serialized schedules: a counterexample as a committable text file.
//!
//! A schedule is everything needed to re-execute one run byte-identically:
//! the scenario name, the bounds that shape option enumeration (window,
//! reduction, depth, drops), the choice list, and the verdict the run is
//! expected to reproduce.  The format is deliberately line-oriented plain
//! text so fixtures diff well and survive refactors reviewably:
//!
//! ```text
//! # horus-check schedule v1
//! scenario: fifo2
//! window_us: 100
//! reduction: on
//! max_depth: 6
//! max_drops: 0
//! max_crashes: 0
//! choices: 1
//! verdict: violation fifo: FIFO: ep:2 ...
//! ```
//!
//! `max_crashes` and `max_suspects` are optional on input and default to
//! 0, so fixtures recorded before those choice points existed parse (and
//! replay) unchanged; serialization always writes them.

use crate::explore::{CheckConfig, RunRecord};
use crate::scenario::Scenario;
use std::time::Duration;

/// Magic first line of every schedule file.
pub const HEADER: &str = "# horus-check schedule v1";

/// The longest concurrency window a schedule may ask for: an hour, the
/// bound a `.soak` artifact puts on its times.  A file is outside input,
/// and virtual time past the window's end must not overflow.  `explore
/// --window-us` is held to it too, so every schedule it writes replays.
pub const MAX_WINDOW_US: u64 = 3_600_000_000;

/// A parsed (or to-be-written) schedule file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Scenario name (must exist in the registry at replay time).
    pub scenario: String,
    /// Concurrency window in microseconds.
    pub window_us: u64,
    /// Whether the sleep-set DPOR was on when the schedule was found — `on`
    /// for the fast path, `off` for [`CheckConfig::oracle`].  Provenance
    /// only: neither explorer filters option lists (choice indices are
    /// stable either way) and replay never prunes.
    pub reduction: bool,
    /// Branch-point expansion depth the run was found under.
    pub max_depth: usize,
    /// Induced-drop budget the run was found under.
    pub max_drops: u32,
    /// Injected-crash budget the run was found under (0 for fixtures that
    /// predate the crash choice point).
    pub max_crashes: u32,
    /// Injected-suspicion budget the run was found under (0 for fixtures
    /// that predate the suspicion choice point).
    pub max_suspects: u32,
    /// The choice list.
    pub choices: Vec<u16>,
    /// Expected verdict line (see [`verdict_line`]).
    pub verdict: String,
}

/// Renders a run's outcome as the one-line verdict a schedule file pins.
pub fn verdict_line(rec: &RunRecord) -> String {
    match &rec.violation {
        Some(v) => format!("violation {}: {}", v.oracle, v.message.replace('\n', " / ")),
        None => "clean".to_string(),
    }
}

impl Schedule {
    /// Builds a schedule from an exploration outcome.
    pub fn new(scenario: &Scenario, cfg: &CheckConfig, choices: &[u16], verdict: String) -> Self {
        Schedule {
            scenario: scenario.name.to_string(),
            window_us: cfg.window.as_micros() as u64,
            reduction: !cfg.oracle,
            max_depth: cfg.max_depth,
            max_drops: cfg.max_drops,
            max_crashes: cfg.max_crashes,
            max_suspects: cfg.max_suspects,
            choices: choices.to_vec(),
            verdict,
        }
    }

    /// The replay configuration this schedule was recorded under.  State and
    /// run budgets do not apply to a single replayed run.
    pub fn to_config(&self) -> CheckConfig {
        CheckConfig {
            window: Duration::from_micros(self.window_us),
            oracle: !self.reduction,
            max_depth: self.max_depth,
            max_drops: self.max_drops,
            max_crashes: self.max_crashes,
            max_suspects: self.max_suspects,
            ..CheckConfig::default()
        }
    }

    /// Serializes to the schedule file format.
    pub fn serialize(&self) -> String {
        let choices = self.choices.iter().map(u16::to_string).collect::<Vec<_>>().join(" ");
        format!(
            "{HEADER}\nscenario: {}\nwindow_us: {}\nreduction: {}\nmax_depth: {}\nmax_drops: {}\nmax_crashes: {}\nmax_suspects: {}\nchoices: {}\nverdict: {}\n",
            self.scenario,
            self.window_us,
            if self.reduction { "on" } else { "off" },
            self.max_depth,
            self.max_drops,
            self.max_crashes,
            self.max_suspects,
            choices,
            self.verdict,
        )
    }

    /// Parses a schedule file.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, or of a window
    /// longer than an hour.
    pub fn parse(text: &str) -> Result<Schedule, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim() == HEADER => {}
            other => return Err(format!("bad header: {other:?} (expected {HEADER:?})")),
        }
        let mut scenario = None;
        let mut window_us = None;
        let mut reduction = None;
        let mut max_depth = None;
        let mut max_drops = None;
        let mut max_crashes = None;
        let mut max_suspects = None;
        let mut choices = None;
        let mut verdict = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, val) = line
                .split_once(':')
                .ok_or_else(|| format!("malformed line (no `key: value`): {line:?}"))?;
            let val = val.trim();
            match key.trim() {
                "scenario" => scenario = Some(val.to_string()),
                "window_us" => {
                    let us: u64 = val.parse().map_err(|e| format!("window_us {val:?}: {e}"))?;
                    if us > MAX_WINDOW_US {
                        return Err(format!("window_us {us} is over the {MAX_WINDOW_US} µs bound"));
                    }
                    window_us = Some(us);
                }
                "reduction" => {
                    reduction = Some(match val {
                        "on" => true,
                        "off" => false,
                        other => return Err(format!("reduction must be on/off, got {other:?}")),
                    });
                }
                "max_depth" => {
                    max_depth = Some(val.parse().map_err(|e| format!("max_depth {val:?}: {e}"))?);
                }
                "max_drops" => {
                    max_drops = Some(val.parse().map_err(|e| format!("max_drops {val:?}: {e}"))?);
                }
                "max_crashes" => {
                    max_crashes =
                        Some(val.parse().map_err(|e| format!("max_crashes {val:?}: {e}"))?);
                }
                "max_suspects" => {
                    max_suspects =
                        Some(val.parse().map_err(|e| format!("max_suspects {val:?}: {e}"))?);
                }
                "choices" => {
                    choices = Some(
                        val.split_whitespace()
                            .map(|c| c.parse().map_err(|e| format!("choice {c:?}: {e}")))
                            .collect::<Result<Vec<u16>, String>>()?,
                    );
                }
                "verdict" => verdict = Some(val.to_string()),
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        Ok(Schedule {
            scenario: scenario.ok_or("missing scenario")?,
            window_us: window_us.ok_or("missing window_us")?,
            reduction: reduction.ok_or("missing reduction")?,
            max_depth: max_depth.ok_or("missing max_depth")?,
            max_drops: max_drops.ok_or("missing max_drops")?,
            // Optional with a zero default: fixtures recorded before these
            // choice points replay under exactly the old option lists.
            max_crashes: max_crashes.unwrap_or(0),
            max_suspects: max_suspects.unwrap_or(0),
            choices: choices.ok_or("missing choices")?,
            verdict: verdict.ok_or("missing verdict")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule {
            scenario: "fifo2".into(),
            window_us: 100,
            reduction: true,
            max_depth: 6,
            max_drops: 0,
            max_crashes: 0,
            max_suspects: 0,
            choices: vec![1, 0, 2],
            verdict: "violation fifo: FIFO: something".into(),
        }
    }

    #[test]
    fn roundtrips() {
        let s = sample();
        let text = s.serialize();
        assert_eq!(Schedule::parse(&text).unwrap(), s);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Schedule::parse("nope").is_err());
        assert!(Schedule::parse(&format!("{HEADER}\nscenario fifo2\n")).is_err());
        let missing = format!("{HEADER}\nscenario: fifo2\n");
        assert!(Schedule::parse(&missing).is_err());
    }

    #[test]
    fn a_window_past_an_hour_is_refused() {
        let mut s = sample();
        s.window_us = MAX_WINDOW_US;
        assert_eq!(Schedule::parse(&s.serialize()).unwrap(), s);
        s.window_us = u64::MAX;
        assert!(Schedule::parse(&s.serialize()).unwrap_err().contains("bound"));
    }

    #[test]
    fn empty_choices_roundtrip() {
        let mut s = sample();
        s.choices.clear();
        assert_eq!(Schedule::parse(&s.serialize()).unwrap(), s);
    }

    #[test]
    fn pre_crash_point_files_parse_with_zero_budget() {
        // A v1 file without the max_crashes key (everything committed before
        // the crash choice point existed) defaults to 0.
        let old = format!(
            "{HEADER}\nscenario: fifo2\nwindow_us: 100\nreduction: on\n\
             max_depth: 6\nmax_drops: 0\nchoices: 1\nverdict: clean\n"
        );
        let s = Schedule::parse(&old).unwrap();
        assert_eq!(s.max_crashes, 0);
        assert_eq!(s.max_suspects, 0);
        assert_eq!(s.to_config().max_crashes, 0);
        assert_eq!(s.to_config().max_suspects, 0);
    }

    #[test]
    fn suspect_budget_roundtrips() {
        let mut s = sample();
        s.max_suspects = 1;
        let text = s.serialize();
        assert!(text.contains("max_suspects: 1"));
        assert_eq!(Schedule::parse(&text).unwrap(), s);
    }

    #[test]
    fn crash_budget_roundtrips() {
        let mut s = sample();
        s.max_crashes = 2;
        let text = s.serialize();
        assert!(text.contains("max_crashes: 2"));
        assert_eq!(Schedule::parse(&text).unwrap(), s);
    }
}
