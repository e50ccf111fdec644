//! Targeted fault injection: the scripted counterpart to the random
//! physics of [`crate::sim::NetConfig`].
//!
//! `NetConfig` models a uniformly bad network — every frame faces the same
//! loss/garble dice.  Real failure scenarios are *asymmetric*: one
//! directed link degrades, a router drops traffic in one direction only, a
//! burst of congestion eats a window of frames, a flaky NIC corrupts every
//! n-th packet it sends.  A [`FaultPlan`] is an ordered list of such
//! [`FaultRule`]s, evaluated deterministically against virtual time and the
//! world RNG, and composable with the global physics (a frame that survives
//! the plan still faces random loss, duplication, and garbling).
//!
//! Every rule keeps a private hit counter ([`FaultPlan::hits`]) and the
//! network splits its drop accounting per rule kind (`NetStats::dropped_cut`
//! etc.), so a chaos test can assert that the injection it scripted actually
//! fired — and that nothing else did.

use crate::sched::{ChanceKind, NetScheduler};
use horus_core::addr::EndpointAddr;
use horus_core::time::SimTime;
use std::collections::BTreeMap;

/// One targeted fault, aimed at a directed link or a source endpoint.
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
    /// A one-way (asymmetric) cut: **all** frames `from → to` are dropped
    /// while the cut is active; traffic `to → from` still flows.
    OneWayCut {
        /// Transmitting endpoint.
        from: EndpointAddr,
        /// Receiving endpoint.
        to: EndpointAddr,
        /// When the cut takes effect.
        start: SimTime,
        /// When the link heals; `None` means the cut is permanent.
        end: Option<SimTime>,
    },
    /// A burst-loss window: every frame `from → to` inside
    /// `[start, end)` is dropped (models a congestion burst or a
    /// route flap on one directed link).
    BurstLoss {
        /// Transmitting endpoint.
        from: EndpointAddr,
        /// Receiving endpoint.
        to: EndpointAddr,
        /// Window start (inclusive).
        start: SimTime,
        /// Window end (exclusive).
        end: SimTime,
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
    /// A set-based **symmetric** partition: while active, every frame
    /// between endpoints on *different* sides is dropped, in both
    /// directions.  Endpoints not listed on any side are unaffected (they
    /// keep full connectivity).  Unlike [`crate::SimNetwork::partition`] —
    /// which is a mutable region map with a single global
    /// [`crate::SimNetwork::heal`] — a `Partition` rule is a declarative
    /// window: it heals by itself when `end` passes, several rules can
    /// overlap, and the rule (with its hit counter) participates in state
    /// digests and `(seed, plan)` replay.
    Partition {
        /// The sides of the split (≥ 2 non-empty, mutually disjoint sets).
        sides: Vec<Vec<EndpointAddr>>,
        /// When the partition takes effect.
        start: SimTime,
        /// When the partition heals; `None` means it never heals.
        end: Option<SimTime>,
    },
    /// A suspicion storm: every `observer` is made to suspect `target`
    /// (as if its failure detector fired) the moment the rule is
    /// installed.  This rule has no effect on frame delivery — the
    /// simulation harness executes it by injecting `Down::Suspect` into
    /// each observer's stack and records the injections via
    /// [`FaultPlan::record_hits`] — but it lives in the plan so chaos
    /// soaks can serialize, digest, shrink, and replay it alongside the
    /// link rules.
    SuspicionStorm {
        /// The endpoints whose detectors fire.
        observers: Vec<EndpointAddr>,
        /// The endpoint they all suspect.
        target: EndpointAddr,
    },
}

/// Which side of a partition `ep` sits on, if any.
fn side_of(sides: &[Vec<EndpointAddr>], ep: EndpointAddr) -> Option<usize> {
    sides.iter().position(|s| s.contains(&ep))
}

impl FaultRule {
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
            FaultRule::OneWayCut { from, to, start, end } => {
                d.write_u64(2);
                d.write_u64(from.raw());
                d.write_u64(to.raw());
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
            FaultRule::BurstLoss { from, to, start, end } => {
                d.write_u64(3);
                d.write_u64(from.raw());
                d.write_u64(to.raw());
                d.write_u64(start.as_nanos());
                d.write_u64(end.as_nanos());
            }
            FaultRule::TargetedCorrupt { src, every_nth } => {
                d.write_u64(4);
                d.write_u64(src.raw());
                d.write_u64(every_nth);
            }
            FaultRule::Partition { ref sides, start, end } => {
                d.write_u64(5);
                d.write_u64(sides.len() as u64);
                for side in sides {
                    d.write_u64(side.len() as u64);
                    for ep in side {
                        d.write_u64(ep.raw());
                    }
                }
                d.write_u64(start.as_nanos());
                match end {
                    Some(e) => {
                        d.write_u64(1);
                        d.write_u64(e.as_nanos());
                    }
                    None => d.write_u64(0),
                }
            }
            FaultRule::SuspicionStorm { ref observers, target } => {
                d.write_u64(6);
                d.write_u64(observers.len() as u64);
                for ep in observers {
                    d.write_u64(ep.raw());
                }
                d.write_u64(target.raw());
            }
        }
    }
}

/// Why the fault plan dropped a delivery (maps to a `NetStats` counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDrop {
    /// A [`FaultRule::DirectedLoss`] coin came up tails.
    Directed,
    /// A [`FaultRule::OneWayCut`] is active on the link.
    Cut,
    /// The delivery fell inside a [`FaultRule::BurstLoss`] window.
    Burst,
    /// The two endpoints sit on different sides of an active
    /// [`FaultRule::Partition`].
    Partition,
}

/// An ordered, deterministic schedule of targeted faults.
///
/// Rules are evaluated in insertion order; the first rule that drops a
/// delivery wins (deterministic cuts and bursts are checked before
/// probabilistic directed loss so that RNG consumption — and therefore
/// replay — does not depend on rule order).
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    hits: Vec<u64>,
    /// Frames transmitted per source since plan creation (for
    /// [`FaultRule::TargetedCorrupt`] counting).
    frames_from: BTreeMap<EndpointAddr, u64>,
}

impl FaultPlan {
    /// An empty plan (no targeted faults; zero RNG consumption).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Installs a rule, returning its index for [`FaultPlan::hits`].
    ///
    /// # Panics
    ///
    /// Panics on malformed rules (`rate` outside `[0, 1]`, `every_nth == 0`,
    /// or an empty burst window).
    pub fn add(&mut self, rule: FaultRule) -> usize {
        match &rule {
            FaultRule::DirectedLoss { rate, .. } => {
                assert!((0.0..=1.0).contains(rate), "loss rate must be in [0,1]");
            }
            FaultRule::TargetedCorrupt { every_nth, .. } => {
                assert!(*every_nth >= 1, "every_nth must be >= 1");
            }
            FaultRule::BurstLoss { start, end, .. } => {
                assert!(end > start, "burst window must be non-empty");
            }
            FaultRule::Partition { sides, start, end } => {
                assert!(sides.len() >= 2, "a partition needs at least two sides");
                assert!(sides.iter().all(|s| !s.is_empty()), "partition sides must be non-empty");
                let mut seen = Vec::new();
                for ep in sides.iter().flatten() {
                    assert!(!seen.contains(ep), "endpoint {ep:?} appears on two partition sides");
                    seen.push(*ep);
                }
                if let Some(e) = end {
                    assert!(e > start, "partition window must be non-empty");
                }
            }
            FaultRule::SuspicionStorm { observers, target } => {
                assert!(!observers.is_empty(), "a suspicion storm needs observers");
                assert!(!observers.contains(target), "an observer cannot suspect itself");
            }
            FaultRule::OneWayCut { .. } => {}
        }
        self.rules.push(rule);
        self.hits.push(0);
        self.rules.len() - 1
    }

    /// The installed rules, in insertion order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Per-rule hit counts, parallel to [`FaultPlan::rules`].  Drop rules
    /// count suppressed deliveries; [`FaultRule::TargetedCorrupt`] counts
    /// corrupted *frames* (one frame may fan out to several receivers).
    pub fn hits(&self) -> &[u64] {
        &self.hits
    }

    /// Feeds the plan's behavioural state into a state digest: every rule
    /// with its hit counter (rules like [`FaultRule::TargetedCorrupt`]
    /// change behaviour as hits accumulate), plus the per-source frame
    /// counters the corrupt rules count against.
    pub fn digest_into(&self, d: &mut horus_core::digest::StateDigest) {
        for (rule, hits) in self.rules.iter().zip(&self.hits) {
            rule.digest_into(d);
            d.write_u64(*hits);
        }
        for (ep, frames) in &self.frames_from {
            d.write_u64(ep.raw());
            d.write_u64(*frames);
        }
    }

    /// Credits `n` hits to rule `idx`.  Used by executors for rules the
    /// network itself cannot evaluate — e.g. the simulation harness bumps a
    /// [`FaultRule::SuspicionStorm`]'s counter once per injected suspicion —
    /// so chaos tests can assert those injections through the same
    /// [`FaultPlan::hits`] channel as link drops.
    pub fn record_hits(&mut self, idx: usize, n: u64) {
        self.hits[idx] += n;
    }

    /// Removes every rule (hit history and frame counters included).
    pub fn clear(&mut self) {
        self.rules.clear();
        self.hits.clear();
        self.frames_from.clear();
    }

    /// Whether the plan has no rules (the hot path skips evaluation).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Decides whether the delivery `from → to` at `now` is dropped by a
    /// targeted rule.  Deterministic rules (cut, burst) are consulted before
    /// probabilistic ones so RNG draws only happen for frames that reach a
    /// `DirectedLoss` rule.
    pub(crate) fn drop_verdict(
        &mut self,
        from: EndpointAddr,
        to: EndpointAddr,
        now: SimTime,
        sched: &mut dyn NetScheduler,
    ) -> Option<FaultDrop> {
        for (i, rule) in self.rules.iter().enumerate() {
            match *rule {
                FaultRule::OneWayCut { from: f, to: t, start, end }
                    if f == from && t == to && now >= start && end.is_none_or(|e| now < e) =>
                {
                    self.hits[i] += 1;
                    return Some(FaultDrop::Cut);
                }
                FaultRule::BurstLoss { from: f, to: t, start, end }
                    if f == from && t == to && now >= start && now < end =>
                {
                    self.hits[i] += 1;
                    return Some(FaultDrop::Burst);
                }
                FaultRule::Partition { ref sides, start, end }
                    if now >= start
                        && end.is_none_or(|e| now < e)
                        && matches!(
                            (side_of(sides, from), side_of(sides, to)),
                            (Some(a), Some(b)) if a != b
                        ) =>
                {
                    self.hits[i] += 1;
                    return Some(FaultDrop::Partition);
                }
                _ => {}
            }
        }
        for (i, rule) in self.rules.iter().enumerate() {
            if let FaultRule::DirectedLoss { from: f, to: t, rate } = *rule {
                if f == from
                    && t == to
                    && rate > 0.0
                    && sched.chance(ChanceKind::DirectedLoss, rate)
                {
                    self.hits[i] += 1;
                    return Some(FaultDrop::Directed);
                }
            }
        }
        None
    }

    /// Called once per transmitted frame: advances the per-source frame
    /// counter and reports whether a [`FaultRule::TargetedCorrupt`] rule
    /// corrupts this frame.
    pub(crate) fn corrupt_frame(&mut self, from: EndpointAddr) -> bool {
        if self.rules.iter().all(|r| !matches!(r, FaultRule::TargetedCorrupt { .. })) {
            return false;
        }
        let n = self.frames_from.entry(from).or_insert(0);
        *n += 1;
        let count = *n;
        let mut corrupt = false;
        for (i, rule) in self.rules.iter().enumerate() {
            if let FaultRule::TargetedCorrupt { src, every_nth } = *rule {
                if src == from && count.is_multiple_of(every_nth) {
                    self.hits[i] += 1;
                    corrupt = true;
                }
            }
        }
        corrupt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::RandomScheduler;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn rng() -> RandomScheduler {
        RandomScheduler::new(7)
    }

    #[test]
    fn empty_plan_never_drops_and_never_draws() {
        let mut p = FaultPlan::new();
        assert!(p.is_empty());
        assert_eq!(p.drop_verdict(ep(1), ep(2), SimTime::ZERO, &mut rng()), None);
        assert!(!p.corrupt_frame(ep(1)));
    }

    #[test]
    fn one_way_cut_is_directional_and_windowed() {
        let mut p = FaultPlan::new();
        let r = p.add(FaultRule::OneWayCut {
            from: ep(1),
            to: ep(2),
            start: SimTime::from_millis(10),
            end: Some(SimTime::from_millis(20)),
        });
        let mut g = rng();
        // Before the window, and the reverse direction: untouched.
        assert_eq!(p.drop_verdict(ep(1), ep(2), SimTime::from_millis(5), &mut g), None);
        assert_eq!(p.drop_verdict(ep(2), ep(1), SimTime::from_millis(15), &mut g), None);
        // Inside the window, forward direction: dropped.
        assert_eq!(
            p.drop_verdict(ep(1), ep(2), SimTime::from_millis(15), &mut g),
            Some(FaultDrop::Cut)
        );
        // After the window: healed.
        assert_eq!(p.drop_verdict(ep(1), ep(2), SimTime::from_millis(25), &mut g), None);
        assert_eq!(p.hits()[r], 1);
    }

    #[test]
    fn permanent_cut_has_no_end() {
        let mut p = FaultPlan::new();
        p.add(FaultRule::OneWayCut { from: ep(1), to: ep(2), start: SimTime::ZERO, end: None });
        let mut g = rng();
        assert_eq!(
            p.drop_verdict(ep(1), ep(2), SimTime::from_millis(3_600_000), &mut g),
            Some(FaultDrop::Cut)
        );
    }

    #[test]
    fn burst_loss_hits_only_inside_window() {
        let mut p = FaultPlan::new();
        let r = p.add(FaultRule::BurstLoss {
            from: ep(3),
            to: ep(1),
            start: SimTime::from_millis(100),
            end: SimTime::from_millis(200),
        });
        let mut g = rng();
        assert_eq!(p.drop_verdict(ep(3), ep(1), SimTime::from_millis(99), &mut g), None);
        assert_eq!(
            p.drop_verdict(ep(3), ep(1), SimTime::from_millis(100), &mut g),
            Some(FaultDrop::Burst)
        );
        assert_eq!(p.drop_verdict(ep(3), ep(1), SimTime::from_millis(200), &mut g), None);
        assert_eq!(p.hits()[r], 1);
    }

    #[test]
    fn directed_loss_is_per_link_and_probabilistic() {
        let mut p = FaultPlan::new();
        let r = p.add(FaultRule::DirectedLoss { from: ep(1), to: ep(2), rate: 1.0 });
        let mut g = rng();
        assert_eq!(p.drop_verdict(ep(1), ep(2), SimTime::ZERO, &mut g), Some(FaultDrop::Directed));
        assert_eq!(p.drop_verdict(ep(2), ep(1), SimTime::ZERO, &mut g), None);
        assert_eq!(p.drop_verdict(ep(1), ep(3), SimTime::ZERO, &mut g), None);
        assert_eq!(p.hits()[r], 1);
    }

    #[test]
    fn nth_frame_corruption_counts_per_source() {
        let mut p = FaultPlan::new();
        let r = p.add(FaultRule::TargetedCorrupt { src: ep(2), every_nth: 3 });
        // Frames from other sources never corrupt and never advance ep2's count.
        assert!(!p.corrupt_frame(ep(1)));
        let pattern: Vec<bool> = (0..9).map(|_| p.corrupt_frame(ep(2))).collect();
        assert_eq!(pattern, vec![false, false, true, false, false, true, false, false, true]);
        assert_eq!(p.hits()[r], 3);
    }

    #[test]
    #[should_panic(expected = "every_nth")]
    fn zeroth_frame_rule_rejected() {
        FaultPlan::new().add(FaultRule::TargetedCorrupt { src: ep(1), every_nth: 0 });
    }

    #[test]
    fn partition_is_symmetric_windowed_and_spares_outsiders() {
        let mut p = FaultPlan::new();
        let r = p.add(FaultRule::Partition {
            sides: vec![vec![ep(1), ep(2)], vec![ep(3)]],
            start: SimTime::from_millis(10),
            end: Some(SimTime::from_millis(20)),
        });
        let mut g = rng();
        let t = SimTime::from_millis(15);
        // Both directions across the split are dropped.
        assert_eq!(p.drop_verdict(ep(1), ep(3), t, &mut g), Some(FaultDrop::Partition));
        assert_eq!(p.drop_verdict(ep(3), ep(2), t, &mut g), Some(FaultDrop::Partition));
        // Same-side traffic flows.
        assert_eq!(p.drop_verdict(ep(1), ep(2), t, &mut g), None);
        // Endpoints on no side keep full connectivity.
        assert_eq!(p.drop_verdict(ep(4), ep(3), t, &mut g), None);
        assert_eq!(p.drop_verdict(ep(1), ep(4), t, &mut g), None);
        // Outside the window the split heals by itself.
        assert_eq!(p.drop_verdict(ep(1), ep(3), SimTime::from_millis(5), &mut g), None);
        assert_eq!(p.drop_verdict(ep(1), ep(3), SimTime::from_millis(20), &mut g), None);
        assert_eq!(p.hits()[r], 2);
    }

    #[test]
    fn permanent_partition_has_no_end() {
        let mut p = FaultPlan::new();
        p.add(FaultRule::Partition {
            sides: vec![vec![ep(1)], vec![ep(2)]],
            start: SimTime::ZERO,
            end: None,
        });
        let mut g = rng();
        assert_eq!(
            p.drop_verdict(ep(2), ep(1), SimTime::from_millis(3_600_000), &mut g),
            Some(FaultDrop::Partition)
        );
    }

    #[test]
    #[should_panic(expected = "two partition sides")]
    fn overlapping_partition_sides_rejected() {
        FaultPlan::new().add(FaultRule::Partition {
            sides: vec![vec![ep(1), ep(2)], vec![ep(2)]],
            start: SimTime::ZERO,
            end: None,
        });
    }

    #[test]
    fn suspicion_storm_never_drops_frames_but_records_executor_hits() {
        let mut p = FaultPlan::new();
        let r = p.add(FaultRule::SuspicionStorm { observers: vec![ep(1), ep(2)], target: ep(3) });
        let mut g = rng();
        assert_eq!(p.drop_verdict(ep(1), ep(3), SimTime::ZERO, &mut g), None);
        assert!(!p.corrupt_frame(ep(1)));
        p.record_hits(r, 2);
        assert_eq!(p.hits()[r], 2);
    }

    #[test]
    fn clear_resets_everything() {
        let mut p = FaultPlan::new();
        p.add(FaultRule::TargetedCorrupt { src: ep(1), every_nth: 1 });
        assert!(p.corrupt_frame(ep(1)));
        p.clear();
        assert!(p.is_empty());
        assert!(p.hits().is_empty());
    }
}
