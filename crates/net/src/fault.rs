//! Targeted fault injection: the scripted counterpart to the random
//! physics of [`crate::sim::NetConfig`].
//!
//! `NetConfig` models a uniformly bad network — every frame faces the same
//! loss/garble dice.  Real failure scenarios are *asymmetric*: one
//! directed link degrades, a router drops traffic in one direction only, a
//! burst of congestion eats a window of frames, a flaky NIC corrupts every
//! n-th packet it sends.  A fault plan is an ordered list of such
//! [`FaultRule`]s, evaluated deterministically against virtual time and the
//! world RNG, and composable with the global physics (a frame that survives
//! the plan still faces random loss, duplication, and garbling).
//!
//! The network counts what the plan drops or corrupts per rule kind
//! (`NetStats::dropped_cut`, `dropped_directed`, `corrupted_targeted`), so a
//! chaos test can assert that the injection it scripted actually fired —
//! and that nothing else did.

use crate::sched::{ChanceKind, NetScheduler};
use horus_core::addr::EndpointAddr;
use horus_core::time::SimTime;
use std::collections::BTreeMap;

/// One targeted fault, aimed at a set of directed links or a source
/// endpoint.
///
/// All times are virtual; all rules are deterministic functions of
/// `(rule, frame history, virtual time, world RNG)`, so a `(seed, plan)`
/// pair replays byte-identically.
#[derive(Debug, Clone)]
pub enum FaultRule {
    /// The directed link `from → to` loses each frame with probability
    /// `rate` (the reverse direction is untouched).
    DirectedLoss {
        /// Transmitting endpoint.
        from: EndpointAddr,
        /// Receiving endpoint.
        to: EndpointAddr,
        /// Per-frame loss probability on this link.
        rate: f64,
    },
    /// A directed set cut: every frame from an endpoint in `from` to an
    /// endpoint in `to` is dropped while `start <= now < end`; traffic the
    /// other way still flows.  One endpoint a side is a one-way cut, a cut
    /// with an `end` is a burst, and a symmetric partition is the cuts
    /// [`FaultRule::partition`] builds.  Endpoints named on neither side
    /// keep full connectivity, and several cuts can overlap.
    Cut {
        /// Transmitting endpoints (non-empty).
        from: Vec<EndpointAddr>,
        /// Receiving endpoints (non-empty).
        to: Vec<EndpointAddr>,
        /// When the cut takes effect.
        start: SimTime,
        /// When the links heal; `None` means until the next
        /// [`crate::SimNetwork::heal`].
        end: Option<SimTime>,
    },
    /// Corrupts every `every_nth` frame transmitted by `src` (to all of its
    /// remote receivers), modelling a flaky sender NIC.  Counting starts at
    /// the first frame `src` sends after the rule is installed.
    TargetedCorrupt {
        /// The faulty transmitter.
        src: EndpointAddr,
        /// Corrupt frames number `n, 2n, 3n, …` from `src` (must be ≥ 1).
        every_nth: u64,
    },
}

impl FaultRule {
    /// What is wrong with `sides` as a partition's sides, if anything:
    /// there must be two or more, none empty, and no endpoint on two.
    pub fn partition_sides_error(sides: &[Vec<EndpointAddr>]) -> Option<String> {
        if sides.len() < 2 {
            return Some("partition: needs at least two sides".into());
        }
        if sides.iter().any(Vec::is_empty) {
            return Some("partition: a side is empty".into());
        }
        let mut all = sides.concat();
        all.sort();
        let pair = all.windows(2).find(|pair| pair[0] == pair[1])?;
        Some(format!("partition: {} appears twice", pair[0]))
    }

    /// The partition with sides `S1…Sk` over `[start, end)`: `k` cuts, `Si`
    /// to every other side.  Panics with
    /// [`partition_sides_error`](Self::partition_sides_error)'s text on
    /// malformed sides.
    pub fn partition(
        sides: &[Vec<EndpointAddr>],
        start: SimTime,
        end: Option<SimTime>,
    ) -> Vec<FaultRule> {
        if let Some(error) = Self::partition_sides_error(sides) {
            panic!("{error}");
        }
        sides
            .iter()
            .map(|side| FaultRule::Cut {
                from: side.clone(),
                to: sides.iter().flatten().copied().filter(|ep| !side.contains(ep)).collect(),
                start,
                end,
            })
            .collect()
    }

    /// Feeds the rule's identity into a state digest, field-direct (no
    /// `Debug` formatting, no allocation; the probability digests as its
    /// bit pattern).
    pub fn digest_into(&self, d: &mut horus_core::digest::StateDigest) {
        match *self {
            FaultRule::DirectedLoss { from, to, rate } => {
                d.write_u64(1);
                d.write_u64(from.raw());
                d.write_u64(to.raw());
                d.write_u64(rate.to_bits());
            }
            FaultRule::Cut { ref from, ref to, start, end } => {
                d.write_u64(2);
                for side in [from, to] {
                    d.write_u64(side.len() as u64);
                    for ep in side {
                        d.write_u64(ep.raw());
                    }
                }
                d.write_u64(start.as_nanos());
                // Disambiguate "permanent" from any finite end time.
                match end {
                    Some(e) => {
                        d.write_u64(1);
                        d.write_u64(e.as_nanos());
                    }
                    None => d.write_u64(0),
                }
            }
            FaultRule::TargetedCorrupt { src, every_nth } => {
                d.write_u64(3);
                d.write_u64(src.raw());
                d.write_u64(every_nth);
            }
        }
    }
}

/// Why the fault plan dropped a delivery (maps to a `NetStats` counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultDrop {
    /// A [`FaultRule::DirectedLoss`] coin came up tails.
    Directed,
    /// An active [`FaultRule::Cut`] covers the link.
    Cut,
}

/// Whether `rule` is a cut whose window ended at or before `now`.
fn expired(rule: &FaultRule, now: SimTime) -> bool {
    matches!(*rule, FaultRule::Cut { end: Some(end), .. } if end <= now)
}

/// An ordered, deterministic schedule of targeted faults.
///
/// Cuts are checked before probabilistic directed loss, so RNG consumption
/// — and therefore replay — does not depend on rule order.
#[derive(Debug, Default, Clone)]
pub(crate) struct FaultPlan {
    rules: Vec<FaultRule>,
    /// Frames transmitted per source since the first
    /// [`FaultRule::TargetedCorrupt`] rule naming it was installed.
    frames_from: BTreeMap<EndpointAddr, u64>,
}

impl FaultPlan {
    /// Installs a rule at `now`, and drops every cut whose window has
    /// ended by then: an expired cut never drops a frame again, so keeping
    /// it would only lengthen every verdict's scan.
    ///
    /// # Panics
    ///
    /// Panics on malformed rules (`rate` outside `[0, 1]`, `every_nth == 0`,
    /// a cut with an empty side or an empty window).
    pub(crate) fn add(&mut self, rule: FaultRule, now: SimTime) {
        match &rule {
            FaultRule::DirectedLoss { rate, .. } => {
                assert!((0.0..=1.0).contains(rate), "loss rate must be in [0,1]");
            }
            FaultRule::TargetedCorrupt { every_nth, .. } => {
                assert!(*every_nth >= 1, "every_nth must be >= 1");
            }
            FaultRule::Cut { from, to, start, end } => {
                assert!(!from.is_empty() && !to.is_empty(), "cut sides must be non-empty");
                if let Some(e) = end {
                    assert!(e > start, "cut window must be non-empty");
                }
            }
        }
        self.rules.push(rule);
        self.rules.retain(|rule| !expired(rule, now));
    }

    /// Feeds the plan's behavioural state at `now` into a state digest:
    /// every rule that can still act (a cut whose window has ended cannot,
    /// so a plan that outlived one digests as if it never had it), plus
    /// the per-source frame counters the corrupt rules count against (the
    /// one piece of history a rule's behaviour depends on).
    pub(crate) fn digest_into(&self, d: &mut horus_core::digest::StateDigest, now: SimTime) {
        for rule in self.rules.iter().filter(|rule| !expired(rule, now)) {
            rule.digest_into(d);
        }
        for (ep, frames) in &self.frames_from {
            d.write_u64(ep.raw());
            d.write_u64(*frames);
        }
    }

    /// Removes every cut that has no `end`.
    pub(crate) fn heal(&mut self) {
        self.rules.retain(|rule| !matches!(rule, FaultRule::Cut { end: None, .. }));
    }

    /// Decides whether the delivery `from → to` at `now` is dropped by a
    /// targeted rule.  Cuts are consulted first so RNG draws only happen
    /// for frames that reach a `DirectedLoss` rule.
    pub(crate) fn drop_verdict(
        &self,
        from: EndpointAddr,
        to: EndpointAddr,
        now: SimTime,
        sched: &mut dyn NetScheduler,
    ) -> Option<FaultDrop> {
        let cut = self.rules.iter().any(|rule| {
            matches!(rule, FaultRule::Cut { from: f, to: t, start, end }
                if now >= *start
                    && end.is_none_or(|e| now < e)
                    && f.contains(&from)
                    && t.contains(&to))
        });
        if cut {
            return Some(FaultDrop::Cut);
        }
        let directed = self.rules.iter().any(|rule| {
            matches!(*rule, FaultRule::DirectedLoss { from: f, to: t, rate }
                if f == from
                    && t == to
                    && rate > 0.0
                    && sched.chance(ChanceKind::DirectedLoss, rate))
        });
        directed.then_some(FaultDrop::Directed)
    }

    /// Whether a [`FaultRule::TargetedCorrupt`] rule names `from`: only such
    /// a source's frames are counted.
    pub(crate) fn targets(&self, from: EndpointAddr) -> bool {
        self.rules
            .iter()
            .any(|r| matches!(*r, FaultRule::TargetedCorrupt { src, .. } if src == from))
    }

    /// Called once per frame from a source the plan [`targets`](Self::targets):
    /// advances its frame counter and reports whether a rule corrupts this
    /// frame.
    pub(crate) fn corrupt_frame(&mut self, from: EndpointAddr) -> bool {
        let n = self.frames_from.entry(from).or_insert(0);
        *n += 1;
        let count = *n;
        self.rules.iter().any(|rule| {
            matches!(*rule, FaultRule::TargetedCorrupt { src, every_nth }
                if src == from && count.is_multiple_of(every_nth))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::RandomScheduler;
    use std::time::Duration;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn rng() -> RandomScheduler {
        RandomScheduler::new(7)
    }

    #[test]
    fn empty_plan_never_drops_and_never_draws() {
        let p = FaultPlan::default();
        assert_eq!(p.drop_verdict(ep(1), ep(2), SimTime::ZERO, &mut rng()), None);
        assert!(!p.targets(ep(1)));
    }

    #[test]
    fn a_set_cut_is_directional_windowed_and_spares_outsiders() {
        let mut p = FaultPlan::default();
        p.add(
            FaultRule::Cut {
                from: vec![ep(1), ep(2)],
                to: vec![ep(3)],
                start: SimTime::from_millis(10),
                end: Some(SimTime::from_millis(20)),
            },
            SimTime::ZERO,
        );
        let mut g = rng();
        let t = SimTime::from_millis(15);
        // Every link from a `from` endpoint to a `to` endpoint is cut.
        assert_eq!(p.drop_verdict(ep(1), ep(3), t, &mut g), Some(FaultDrop::Cut));
        assert_eq!(p.drop_verdict(ep(2), ep(3), t, &mut g), Some(FaultDrop::Cut));
        // The reverse direction and same-side traffic flow.
        assert_eq!(p.drop_verdict(ep(3), ep(1), t, &mut g), None);
        assert_eq!(p.drop_verdict(ep(1), ep(2), t, &mut g), None);
        // Endpoints on neither side keep full connectivity.
        assert_eq!(p.drop_verdict(ep(4), ep(3), t, &mut g), None);
        assert_eq!(p.drop_verdict(ep(1), ep(4), t, &mut g), None);
        // The window is [start, end): it heals by itself.
        let at = |ms| SimTime::from_millis(ms);
        assert_eq!(p.drop_verdict(ep(1), ep(3), at(9), &mut g), None);
        assert_eq!(p.drop_verdict(ep(1), ep(3), at(10), &mut g), Some(FaultDrop::Cut));
        assert_eq!(p.drop_verdict(ep(1), ep(3), at(20), &mut g), None);
    }

    #[test]
    fn permanent_cut_has_no_end() {
        let mut p = FaultPlan::default();
        p.add(
            FaultRule::Cut { from: vec![ep(1)], to: vec![ep(2)], start: SimTime::ZERO, end: None },
            SimTime::ZERO,
        );
        let mut g = rng();
        assert_eq!(
            p.drop_verdict(ep(1), ep(2), SimTime::from_millis(3_600_000), &mut g),
            Some(FaultDrop::Cut)
        );
    }

    #[test]
    fn directed_loss_is_per_link_and_probabilistic() {
        let mut p = FaultPlan::default();
        p.add(FaultRule::DirectedLoss { from: ep(1), to: ep(2), rate: 1.0 }, SimTime::ZERO);
        let mut g = rng();
        assert_eq!(p.drop_verdict(ep(1), ep(2), SimTime::ZERO, &mut g), Some(FaultDrop::Directed));
        assert_eq!(p.drop_verdict(ep(2), ep(1), SimTime::ZERO, &mut g), None);
        assert_eq!(p.drop_verdict(ep(1), ep(3), SimTime::ZERO, &mut g), None);
    }

    #[test]
    fn nth_frame_corruption_counts_per_source() {
        let mut p = FaultPlan::default();
        p.add(FaultRule::TargetedCorrupt { src: ep(2), every_nth: 3 }, SimTime::ZERO);
        // Frames from other sources are not counted at all.
        assert!(!p.targets(ep(1)));
        assert!(p.targets(ep(2)));
        let pattern: Vec<bool> = (0..9).map(|_| p.corrupt_frame(ep(2))).collect();
        assert_eq!(pattern, vec![false, false, true, false, false, true, false, false, true]);
    }

    #[test]
    #[should_panic(expected = "every_nth")]
    fn zeroth_frame_rule_rejected() {
        FaultPlan::default()
            .add(FaultRule::TargetedCorrupt { src: ep(1), every_nth: 0 }, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "cut sides must be non-empty")]
    fn a_cut_with_an_empty_side_is_rejected() {
        FaultPlan::default().add(
            FaultRule::Cut { from: vec![ep(1)], to: Vec::new(), start: SimTime::ZERO, end: None },
            SimTime::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "cut window must be non-empty")]
    fn a_cut_with_an_empty_window_is_rejected() {
        let t = SimTime::from_millis(5);
        FaultPlan::default().add(
            FaultRule::Cut { from: vec![ep(1)], to: vec![ep(2)], start: t, end: Some(t) },
            SimTime::ZERO,
        );
    }

    #[test]
    fn a_partition_is_one_cut_per_side_and_heal_ends_only_open_cuts() {
        let sides = [vec![ep(1)], vec![ep(2), ep(3)], vec![ep(4)]];
        let cuts = FaultRule::partition(&sides, SimTime::ZERO, None);
        let pairs: Vec<_> = cuts
            .iter()
            .map(|c| match c {
                FaultRule::Cut { from, to, .. } => (from.clone(), to.clone()),
                other => panic!("not a cut: {other:?}"),
            })
            .collect();
        assert_eq!(
            pairs,
            vec![
                (vec![ep(1)], vec![ep(2), ep(3), ep(4)]),
                (vec![ep(2), ep(3)], vec![ep(1), ep(4)]),
                (vec![ep(4)], vec![ep(1), ep(2), ep(3)]),
            ]
        );
        let mut p = FaultPlan::default();
        for cut in cuts {
            p.add(cut, SimTime::ZERO);
        }
        let windowed = FaultRule::Cut {
            from: vec![ep(5)],
            to: vec![ep(6)],
            start: SimTime::ZERO,
            end: Some(SimTime::from_millis(10)),
        };
        p.add(windowed, SimTime::ZERO);
        let mut g = rng();
        assert_eq!(p.drop_verdict(ep(3), ep(4), SimTime::ZERO, &mut g), Some(FaultDrop::Cut));
        assert_eq!(p.drop_verdict(ep(2), ep(3), SimTime::ZERO, &mut g), None, "same side");
        p.heal();
        assert_eq!(p.drop_verdict(ep(3), ep(4), SimTime::ZERO, &mut g), None, "healed");
        assert_eq!(
            p.drop_verdict(ep(5), ep(6), SimTime::ZERO, &mut g),
            Some(FaultDrop::Cut),
            "a windowed cut keeps its own window"
        );
    }

    #[test]
    fn a_plan_after_windowed_partitions_holds_only_the_live_cuts() {
        // One 2 ms partition every 10 ms: when the next is installed, every
        // earlier one has ended and leaves the plan.
        let mut p = FaultPlan::default();
        let sides = [vec![ep(1)], vec![ep(2), ep(3)]];
        for k in 0..50 {
            let start = SimTime::from_millis(10 * k);
            for cut in FaultRule::partition(&sides, start, Some(start + Duration::from_millis(2))) {
                p.add(cut, start);
            }
            assert_eq!(p.rules.len(), 2, "partition {k}: its two cuts only");
        }
        p.add(
            FaultRule::partition(&sides, SimTime::ZERO, None)[0].clone(),
            SimTime::from_millis(1000),
        );
        assert_eq!(p.rules.len(), 1, "the expired pair went, the open cut stayed");
    }

    #[test]
    #[should_panic(expected = "partition: needs at least two sides")]
    fn a_one_sided_partition_is_rejected() {
        FaultRule::partition(&[vec![ep(1), ep(2)]], SimTime::ZERO, None);
    }

    #[test]
    #[should_panic(expected = "partition: a side is empty")]
    fn a_partition_with_an_empty_side_is_rejected() {
        FaultRule::partition(&[vec![ep(1)], Vec::new()], SimTime::ZERO, None);
    }

    #[test]
    #[should_panic(expected = "partition: ep:2 appears twice")]
    fn a_partition_with_an_endpoint_on_two_sides_is_rejected() {
        FaultRule::partition(&[vec![ep(1), ep(2)], vec![ep(2)]], SimTime::ZERO, None);
    }
}
