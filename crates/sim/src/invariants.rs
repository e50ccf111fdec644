//! Checkers for the delivery guarantees the paper's layers promise.
//!
//! §5 defines virtual synchrony: every member of a view either accepts the
//! same next view or is removed from it, messages sent in a view are
//! delivered in that view, and all survivors of a view transition deliver
//! the same messages in it.  These functions take the upcall logs recorded
//! by a [`crate::world::SimWorld`] and return a list of violations (empty =
//! the run satisfied the property).  They are the oracles for the
//! randomized/property tests of experiment E6.
//!
//! The checkers split into two families:
//!
//! * **Safety** ([`check_virtual_synchrony`], [`check_fifo`],
//!   [`check_total_order`]): "nothing bad happened".  A stack that
//!   partitions, wedges, and never delivers another message passes all of
//!   them vacuously.  [`SafetyMonitor`] is the same three checks fed one
//!   upcall at a time: it says *whether* they would fail, and they say
//!   *what* failed.
//! * **Liveness** ([`check_view_convergence`], [`check_final_view_delivery`],
//!   [`ProgressWatchdog`]): "the good thing eventually happened".  §5/§9's
//!   merge-back lifecycle and TOTAL's token regeneration are liveness
//!   claims: once the last fault heals, the correct members must converge
//!   on one agreed view within a bounded quiet period, traffic in that
//!   final view must deliver everywhere, and each stack's pending work
//!   (NAK gaps, unflushed views, a parked token) must drain to zero.

use bytes::Bytes;
use horus_core::prelude::*;
use horus_core::view::ViewId;
use std::collections::{btree_map, BTreeMap, HashMap};
use std::fmt;
use std::time::Duration;

/// One endpoint's delivery-relevant history: view installations and cast
/// deliveries, in order.
#[derive(Debug, Clone)]
pub struct DeliveryLog {
    /// Whose log this is.
    pub ep: EndpointAddr,
    events: Vec<LogEvent>,
}

#[derive(Debug, Clone)]
enum LogEvent {
    View { at: SimTime, view: View },
    Cast { at: SimTime, src: EndpointAddr, key: Bytes },
}

/// Deliveries observed in one epoch: `(source, body)` in order.
type EpochDeliveries<'a> = Vec<(EndpointAddr, &'a Bytes)>;
/// One epoch: the view in force (None before the first view) and its
/// deliveries.
type Epoch<'a> = (Option<&'a View>, EpochDeliveries<'a>);
/// A delivery multiset keyed by `(source, body)`.
type DeliveryMultiset = BTreeMap<(EndpointAddr, Vec<u8>), usize>;
/// Per-member first-occurrence position index of each delivery.
type PositionIndex = BTreeMap<(EndpointAddr, Vec<u8>), usize>;

impl DeliveryLog {
    /// Extracts the delivery log from recorded upcalls.
    pub fn from_upcalls(ep: EndpointAddr, upcalls: &[(SimTime, Up)]) -> Self {
        let events = upcalls
            .iter()
            .filter_map(|(at, up)| match up {
                Up::View(v) => Some(LogEvent::View { at: *at, view: v.clone() }),
                Up::Cast { src, msg } => {
                    Some(LogEvent::Cast { at: *at, src: *src, key: msg.body().clone() })
                }
                _ => None,
            })
            .collect();
        DeliveryLog { ep, events }
    }

    /// Views installed, in order.
    pub fn views(&self) -> Vec<&View> {
        self.events
            .iter()
            .filter_map(|e| match e {
                LogEvent::View { view, .. } => Some(view),
                _ => None,
            })
            .collect()
    }

    /// Views installed with their installation times, in order.
    pub fn views_timed(&self) -> Vec<(SimTime, &View)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                LogEvent::View { at, view } => Some((*at, view)),
                _ => None,
            })
            .collect()
    }

    /// The last view this endpoint installed, with its installation time.
    pub fn final_view(&self) -> Option<(SimTime, &View)> {
        self.events.iter().rev().find_map(|e| match e {
            LogEvent::View { at, view } => Some((*at, view)),
            _ => None,
        })
    }

    /// All cast deliveries with their delivery times, in order.
    pub fn casts_timed(&self) -> Vec<(SimTime, EndpointAddr, &Bytes)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                LogEvent::Cast { at, src, key } => Some((*at, *src, key)),
                _ => None,
            })
            .collect()
    }

    /// All cast deliveries `(src, body)`, in order.
    pub fn casts(&self) -> Vec<(EndpointAddr, &Bytes)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                LogEvent::Cast { src, key, .. } => Some((*src, key)),
                _ => None,
            })
            .collect()
    }

    /// Splits the log into epochs: `(view in force, deliveries)`.  The
    /// epoch before the first view has `None`.
    fn epochs(&self) -> Vec<Epoch<'_>> {
        let mut out: Vec<Epoch<'_>> = vec![(None, Vec::new())];
        for e in &self.events {
            match e {
                LogEvent::View { view, .. } => out.push((Some(view), Vec::new())),
                LogEvent::Cast { src, key, .. } => {
                    out.last_mut().expect("epoch list non-empty").1.push((*src, key))
                }
            }
        }
        out
    }
}

/// A violation found by a checker; `Display` gives a human-readable story.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Checks the virtual-synchrony guarantees of §5 over a set of logs:
///
/// 1. **View agreement** — every view id is installed with identical member
///    lists everywhere it is installed.
/// 2. **Self-inclusion** — an installer is a member of every view it
///    installs.
/// 3. **Monotonicity** — each member's view counters strictly increase.
/// 4. **Same-view delivery agreement** — two members that both transition
///    from view *v* to the same next view deliver the same multiset of
///    messages while *v* is in force.
/// 5. **Sender in view** — every delivery while *v* is in force comes from
///    a member of *v*.
#[must_use = "a non-empty result means the run violated virtual synchrony"]
pub fn check_virtual_synchrony(logs: &[DeliveryLog]) -> Vec<Violation> {
    let mut violations = Vec::new();

    // 1 + 2 + 3: view agreement, self-inclusion, monotonicity.
    let mut by_id: BTreeMap<ViewId, (&DeliveryLog, &View)> = BTreeMap::new();
    for log in logs {
        let mut prev: Option<ViewId> = None;
        for v in log.views() {
            if !v.contains(log.ep) {
                violations.push(Violation(format!(
                    "{} installed view {} without being a member",
                    log.ep,
                    v.id()
                )));
            }
            if let Some(p) = prev {
                if v.id().counter <= p.counter {
                    violations.push(Violation(format!(
                        "{} installed non-monotonic views: {} after {}",
                        log.ep,
                        v.id(),
                        p
                    )));
                }
            }
            prev = Some(v.id());
            match by_id.get(&v.id()) {
                None => {
                    by_id.insert(v.id(), (log, v));
                }
                Some((first_log, first)) => {
                    if first.members() != v.members() {
                        violations.push(Violation(format!(
                            "view {} disagreement: {} saw {:?}, {} saw {:?}",
                            v.id(),
                            first_log.ep,
                            first.members(),
                            log.ep,
                            v.members()
                        )));
                    }
                }
            }
        }
    }

    // 4: same-view delivery agreement between members sharing a transition
    // v -> v'.  Key the epoch by (view id, next view id).
    type EpochKey = (ViewId, Option<ViewId>);
    let mut epoch_sets: BTreeMap<EpochKey, (EndpointAddr, DeliveryMultiset)> = BTreeMap::new();
    for log in logs {
        let epochs = log.epochs();
        for (i, (view, deliveries)) in epochs.iter().enumerate() {
            let Some(view) = view else {
                if !deliveries.is_empty() {
                    violations.push(Violation(format!(
                        "{} delivered {} message(s) before any view was installed",
                        log.ep,
                        deliveries.len()
                    )));
                }
                continue;
            };
            // 5: senders must be members of the view in force.
            for (src, _) in deliveries {
                if !view.contains(*src) {
                    violations.push(Violation(format!(
                        "{} delivered a message from non-member {} in view {}",
                        log.ep,
                        src,
                        view.id()
                    )));
                }
            }
            let next = epochs.get(i + 1).and_then(|(v, _)| v.as_ref().map(|v| v.id()));
            // Only completed transitions participate in agreement: a member
            // whose log simply *ends* in a view may have crashed mid-view.
            let Some(next_id) = next else { continue };
            let mut multiset: DeliveryMultiset = BTreeMap::new();
            for (src, key) in deliveries {
                *multiset.entry((*src, key.to_vec())).or_insert(0) += 1;
            }
            match epoch_sets.get(&(view.id(), Some(next_id))) {
                None => {
                    epoch_sets.insert((view.id(), Some(next_id)), (log.ep, multiset));
                }
                Some((first_ep, first_set)) => {
                    if *first_set != multiset {
                        let only_first: Vec<_> =
                            first_set.keys().filter(|k| !multiset.contains_key(*k)).collect();
                        let only_this: Vec<_> =
                            multiset.keys().filter(|k| !first_set.contains_key(*k)).collect();
                        violations.push(Violation(format!(
                            "delivery disagreement in view {} (-> {}): {} and {} differ; \
                             only-{}: {:?}, only-{}: {:?}",
                            view.id(),
                            next_id,
                            first_ep,
                            log.ep,
                            first_ep,
                            only_first,
                            log.ep,
                            only_this
                        )));
                    }
                }
            }
        }
    }

    violations
}

/// Checks per-source FIFO delivery: for each receiver and each source, the
/// sequence numbers extracted from the bodies must be strictly increasing.
/// `seq_of` decodes a body into `(logical sender, sequence)` — see
/// [`crate::workload::Workload::parse`] — and returns `None` for bodies the
/// check should skip.
#[must_use = "a non-empty result means the run broke per-source FIFO"]
pub fn check_fifo(
    logs: &[DeliveryLog],
    seq_of: impl Fn(&Bytes) -> Option<(u64, u64)>,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for log in logs {
        let mut last: BTreeMap<u64, u64> = BTreeMap::new();
        for (src, key) in log.casts() {
            let Some((sender, seq)) = seq_of(key) else { continue };
            if let Some(&prev) = last.get(&sender) {
                if seq <= prev {
                    violations.push(Violation(format!(
                        "{} broke FIFO from {} (sender {}): seq {} after {}",
                        log.ep, src, sender, seq, prev
                    )));
                }
            }
            last.insert(sender, seq);
        }
    }
    violations
}

/// Checks total order: for every pair of logs, messages delivered by both
/// appear in the same relative order.
#[must_use = "a non-empty result means the run broke total order"]
pub fn check_total_order(logs: &[DeliveryLog]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let indexed: Vec<(EndpointAddr, PositionIndex)> = logs
        .iter()
        .map(|log| {
            let mut pos = BTreeMap::new();
            for (i, (src, key)) in log.casts().into_iter().enumerate() {
                // First occurrence wins (duplicates would already violate
                // same-view agreement checks).
                pos.entry((src, key.to_vec())).or_insert(i);
            }
            (log.ep, pos)
        })
        .collect();
    for a in 0..indexed.len() {
        for b in a + 1..indexed.len() {
            let (ep_a, pos_a) = &indexed[a];
            let (ep_b, pos_b) = &indexed[b];
            type CommonEntry<'k> = (&'k (EndpointAddr, Vec<u8>), usize, usize);
            let mut common: Vec<CommonEntry<'_>> =
                pos_a.iter().filter_map(|(k, &ia)| pos_b.get(k).map(|&ib| (k, ia, ib))).collect();
            common.sort_by_key(|&(_, ia, _)| ia);
            for w in common.windows(2) {
                let (k1, _, ib1) = &w[0];
                let (k2, _, ib2) = &w[1];
                if ib1 > ib2 {
                    violations.push(Violation(format!(
                        "total order violated between {} and {}: {} orders {:?} before {:?}, \
                         {} orders them oppositely",
                        ep_a, ep_b, ep_a, k1.0, k2.0, ep_b
                    )));
                }
            }
        }
    }
    violations
}

/// The safety checkers above, fed incrementally: each member's upcall log
/// is read from a cursor, and every upcall is judged once, when it is
/// first seen.
///
/// [`SafetyMonitor::tripped`] holds exactly when [`check_virtual_synchrony`]
/// and [`check_fifo`] — and [`check_total_order`], when asked for — would
/// return a violation over the logs read so far.  Each property they test
/// is prefix-closed (a log that breaks one breaks it in every extension),
/// so the monitor only looks for the first bad upcall and a trip is final.
/// It detects and the checkers explain: to learn *what* broke, run them
/// over full [`DeliveryLog`]s once the monitor has tripped.
///
/// The state kept is O(1) per delivery: the member list of each view id as
/// first installed; per member its current view, the deliveries of its
/// current epoch and the last FIFO sequence number per logical sender; the
/// first completed delivery multiset of each view transition; and, for
/// total order, each member's first-occurrence positions plus, per pair of
/// members, the largest position on either side among the messages both
/// have delivered.
#[derive(Debug, Clone)]
pub struct SafetyMonitor {
    seq_of: fn(&Bytes) -> Option<(u64, u64)>,
    members: Vec<Watch>,
    /// Member list of each view id, as it was first installed anywhere.
    views: BTreeMap<ViewId, Vec<EndpointAddr>>,
    /// The first completed delivery multiset, sorted, of each transition
    /// `v -> v'`.
    transitions: BTreeMap<(ViewId, ViewId), Vec<(EndpointAddr, Bytes)>>,
    /// With total order: for members `a < b` at `a * n + b`, the largest
    /// first-occurrence position in `a`'s log and in `b`'s among the
    /// messages both have delivered (1-based; 0 while they share none).
    shared: Option<Vec<(usize, usize)>>,
    examined: u64,
    tripped: bool,
}

/// One member's side of a [`SafetyMonitor`].
#[derive(Debug, Clone)]
struct Watch {
    ep: EndpointAddr,
    /// Upcalls of this member already read.
    cursor: usize,
    view: Option<View>,
    /// Deliveries `(src, body)` since `view` was installed.
    epoch: Vec<(EndpointAddr, Bytes)>,
    /// Last sequence number per logical sender.
    fifo: BTreeMap<u64, u64>,
    /// Casts delivered so far.
    casts: usize,
    /// With total order: the 1-based position of each message's first
    /// delivery.
    first: HashMap<(EndpointAddr, Bytes), usize>,
}

impl SafetyMonitor {
    /// A monitor over `members`' logs.  `seq_of` decodes a body for the
    /// FIFO check exactly as [`check_fifo`]'s argument does; `check_total`
    /// adds [`check_total_order`].
    pub fn new(
        members: &[EndpointAddr],
        seq_of: fn(&Bytes) -> Option<(u64, u64)>,
        check_total: bool,
    ) -> Self {
        let n = members.len();
        SafetyMonitor {
            seq_of,
            members: members
                .iter()
                .map(|&ep| Watch {
                    ep,
                    cursor: 0,
                    view: None,
                    epoch: Vec::new(),
                    fifo: BTreeMap::new(),
                    casts: 0,
                    first: HashMap::new(),
                })
                .collect(),
            views: BTreeMap::new(),
            transitions: BTreeMap::new(),
            shared: check_total.then(|| vec![(0, 0); n * n]),
            examined: 0,
            tripped: false,
        }
    }

    /// Reads the upcalls `ep` recorded since the last call.  `upcalls` is
    /// the member's whole log so far; it may only have grown since.
    ///
    /// # Panics
    ///
    /// Panics if `ep` is not one of the monitored members, or if its log
    /// is shorter than at the last call.
    pub fn observe(&mut self, ep: EndpointAddr, upcalls: &[(SimTime, Up)]) {
        let i = self
            .members
            .iter()
            .position(|w| w.ep == ep)
            .unwrap_or_else(|| panic!("{ep} is not a monitored member"));
        let fresh = &upcalls[self.members[i].cursor..];
        for (_, up) in fresh {
            match up {
                Up::View(view) => self.install(i, view),
                Up::Cast { src, msg } => self.deliver(i, *src, msg.body()),
                _ => {}
            }
        }
        self.examined += fresh.len() as u64;
        self.members[i].cursor = upcalls.len();
    }

    /// Whether the checkers would report a violation over the logs read so
    /// far.  Once true, true for good.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Upcalls read so far, over all members.
    pub fn examined(&self) -> u64 {
        self.examined
    }

    /// Member `i` installs `view`: self-inclusion, monotonicity and view
    /// agreement, and the epoch it closes is held to the transition's.
    fn install(&mut self, i: usize, view: &View) {
        let w = &mut self.members[i];
        let mut bad = !view.contains(w.ep);
        let mut epoch = std::mem::take(&mut w.epoch);
        if let Some(prev) = w.view.replace(view.clone()) {
            bad |= view.id().counter <= prev.id().counter;
            epoch.sort_unstable();
            match self.transitions.entry((prev.id(), view.id())) {
                btree_map::Entry::Vacant(e) => {
                    e.insert(epoch);
                }
                btree_map::Entry::Occupied(e) => bad |= *e.get() != epoch,
            }
        }
        match self.views.entry(view.id()) {
            btree_map::Entry::Vacant(e) => {
                e.insert(view.members().to_vec());
            }
            btree_map::Entry::Occupied(e) => bad |= e.get() != view.members(),
        }
        self.tripped |= bad;
    }

    /// Member `i` delivers `body` from `src`: the sender is in the view in
    /// force, the logical sender's sequence rises, and the message's first
    /// delivery keeps its order with every other member's.
    fn deliver(&mut self, i: usize, src: EndpointAddr, body: &Bytes) {
        let w = &mut self.members[i];
        self.tripped |= !w.view.as_ref().is_some_and(|v| v.contains(src));
        w.epoch.push((src, body.clone()));
        if let Some((sender, seq)) = (self.seq_of)(body) {
            self.tripped |= w.fifo.insert(sender, seq).is_some_and(|prev| seq <= prev);
        }
        w.casts += 1;
        let pos = w.casts;
        let Some(shared) = &mut self.shared else { return };
        let key = (src, body.clone());
        if w.first.contains_key(&key) {
            return; // first occurrence wins
        }
        // This message is now the latest one `i` shares with each member
        // that already has it; it must be their latest one too.
        let n = self.members.len();
        for (j, other) in self.members.iter().enumerate() {
            let Some(&theirs) = other.first.get(&key) else { continue };
            let reach = &mut shared[i.min(j) * n + i.max(j)];
            let (mine, before) =
                if i < j { (&mut reach.0, &mut reach.1) } else { (&mut reach.1, &mut reach.0) };
            self.tripped |= theirs < *before;
            *mine = pos;
            *before = (*before).max(theirs);
        }
        self.members[i].first.insert(key, pos);
    }
}

/// **Liveness**: after the last fault heals at `heal_at`, every correct
/// member must converge on one agreed final view — containing exactly the
/// correct members — within the `quiet` period.
///
/// Violations name members that never installed a view, installed their
/// final view after the `heal_at + quiet` deadline, disagree about what
/// the final view is, or agreed on a view whose membership is not the
/// correct set (a wedged sub-group that never merged back).
///
/// Only pass logs of *correct* (never-crashed) members, and only call once
/// the run has been driven past the deadline — an early call reports
/// convergence the run simply has not had time for yet.
#[must_use = "a non-empty result means the run failed to converge (liveness violation)"]
pub fn check_view_convergence(
    logs: &[DeliveryLog],
    correct: &[EndpointAddr],
    heal_at: SimTime,
    quiet: Duration,
) -> Vec<Violation> {
    let deadline = heal_at + quiet;
    let mut violations = Vec::new();
    let mut finals: Vec<(EndpointAddr, SimTime, &View)> = Vec::new();
    for &m in correct {
        let Some(log) = logs.iter().find(|l| l.ep == m) else {
            violations.push(Violation(format!("no delivery log for correct member {m}")));
            continue;
        };
        match log.final_view() {
            None => {
                violations.push(Violation(format!(
                    "liveness: {m} never installed any view (deadline {deadline})"
                )));
            }
            Some((at, v)) => {
                if at > deadline {
                    violations.push(Violation(format!(
                        "liveness: {m} installed its final view {} at {at}, after the \
                         convergence deadline {deadline} (heal {heal_at} + quiet {quiet:?})",
                        v.id()
                    )));
                }
                finals.push((m, at, v));
            }
        }
    }
    // Agreement on the final view, by id and membership.
    if let Some((first_ep, _, first)) = finals.first() {
        for (m, _, v) in &finals[1..] {
            if v.id() != first.id() || v.members() != first.members() {
                violations.push(Violation(format!(
                    "liveness: correct members never converged on one view: \
                     {first_ep} ended in {} {:?}, {m} ended in {} {:?}",
                    first.id(),
                    first.members(),
                    v.id(),
                    v.members()
                )));
            }
        }
        let mut want: Vec<EndpointAddr> = correct.to_vec();
        want.sort();
        want.dedup();
        let mut got: Vec<EndpointAddr> = first.members().to_vec();
        got.sort();
        if got != want && violations.is_empty() {
            violations.push(Violation(format!(
                "liveness: agreed final view {} has members {:?}, but the correct \
                 members are {:?} (group never merged back whole)",
                first.id(),
                first.members(),
                want
            )));
        }
    }
    violations
}

/// **Liveness**: every cast delivered by some correct member in the agreed
/// final view must be delivered by *all* correct members.  (Because every
/// sender loops its own casts back, this is exactly "every cast sent in
/// the final view delivers at all its members".)
///
/// Assumes [`check_view_convergence`] already passed: if the correct
/// members' final views disagree, this check reports nothing and leaves
/// the story to the convergence checker.
#[must_use = "a non-empty result means final-view traffic was lost (liveness violation)"]
pub fn check_final_view_delivery(logs: &[DeliveryLog], correct: &[EndpointAddr]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let relevant: Vec<&DeliveryLog> =
        correct.iter().filter_map(|m| logs.iter().find(|l| l.ep == *m)).collect();
    let ids: Vec<ViewId> =
        relevant.iter().filter_map(|l| l.final_view().map(|(_, v)| v.id())).collect();
    if ids.len() != relevant.len() || ids.windows(2).any(|w| w[0] != w[1]) {
        return violations; // no agreed final view: convergence reports it
    }
    let mut sets: Vec<(EndpointAddr, DeliveryMultiset)> = Vec::new();
    for log in &relevant {
        let epochs = log.epochs();
        let Some((_, deliveries)) = epochs.last() else { continue };
        let mut multiset: DeliveryMultiset = BTreeMap::new();
        for (src, key) in deliveries {
            *multiset.entry((*src, key.to_vec())).or_insert(0) += 1;
        }
        sets.push((log.ep, multiset));
    }
    if let Some((first_ep, first_set)) = sets.first() {
        for (m, set) in &sets[1..] {
            if set != first_set {
                let only_first: Vec<_> =
                    first_set.keys().filter(|k| !set.contains_key(*k)).collect();
                let only_this: Vec<_> =
                    set.keys().filter(|k| !first_set.contains_key(*k)).collect();
                violations.push(Violation(format!(
                    "liveness: final-view delivery divergence between {first_ep} and {m}: \
                     only-{first_ep}: {only_first:?}, only-{m}: {only_this:?}"
                )));
            }
        }
    }
    violations
}

/// **Liveness**, reported continuously: a per-stack progress watchdog.
///
/// Feed it every disturbance (fault injected *or* healed) via
/// [`ProgressWatchdog::disturb`] and sample each correct stack's
/// [pending work](horus_core::stack::Stack::pending_work) via
/// [`ProgressWatchdog::observe`] as the run advances.  A stack whose
/// pending work sits *unchanged and non-zero* for a full quiet period —
/// measured from the later of its last change and the last disturbance —
/// is wedged: retransmissions that never succeed, a flush that never
/// completes, a token that never regenerates.
///
/// The watchdog never flags a stack that is still draining (its count
/// keeps changing) or that is disturbed faster than it can drain.
#[derive(Debug, Clone)]
pub struct ProgressWatchdog {
    quiet: Duration,
    last_disturbance: SimTime,
    /// Per-endpoint: (value at last change, time of last change, last
    /// sample time).
    state: BTreeMap<EndpointAddr, (u64, SimTime, SimTime)>,
}

impl ProgressWatchdog {
    /// A watchdog that declares a stack wedged after `quiet` of
    /// unchanged non-zero pending work.
    pub fn new(quiet: Duration) -> Self {
        ProgressWatchdog { quiet, last_disturbance: SimTime::ZERO, state: BTreeMap::new() }
    }

    /// Records a disturbance (fault injected or healed) at `at`: stalls
    /// are excused until `at + quiet`.
    pub fn disturb(&mut self, at: SimTime) {
        self.last_disturbance = self.last_disturbance.max(at);
    }

    /// Samples one stack's pending-work count at `now`.
    pub fn observe(&mut self, now: SimTime, ep: EndpointAddr, pending: u64) {
        match self.state.get_mut(&ep) {
            None => {
                self.state.insert(ep, (pending, now, now));
            }
            Some((value, changed_at, sampled_at)) => {
                if *value != pending {
                    *value = pending;
                    *changed_at = now;
                }
                *sampled_at = now;
            }
        }
    }

    /// The stalls observed so far: stacks whose pending work has sat
    /// unchanged and non-zero for a full quiet period with no disturbance.
    #[must_use = "a non-empty result means a stack is wedged (liveness violation)"]
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for (&ep, &(value, changed_at, sampled_at)) in &self.state {
            if value == 0 {
                continue;
            }
            let since = changed_at.max(self.last_disturbance);
            if sampled_at.saturating_since(since) > self.quiet {
                out.push(Violation(format!(
                    "liveness: {ep} is wedged — {value} unit(s) of pending work unchanged \
                     since {since} (observed through {sampled_at}, quiet {:?})",
                    self.quiet
                )));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horus_core::addr::GroupAddr;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn view_abc() -> View {
        View::initial(GroupAddr::new(1), ep(1)).with_joined(&[ep(2), ep(3)])
    }

    fn log(e: EndpointAddr, events: Vec<LogEvent>) -> DeliveryLog {
        DeliveryLog { ep: e, events }
    }

    fn cast(src: u64, body: &[u8]) -> LogEvent {
        LogEvent::Cast { at: SimTime::ZERO, src: ep(src), key: Bytes::copy_from_slice(body) }
    }

    fn view_ev(v: View) -> LogEvent {
        LogEvent::View { at: SimTime::ZERO, view: v }
    }

    fn view_at(at: SimTime, v: View) -> LogEvent {
        LogEvent::View { at, view: v }
    }

    #[test]
    fn clean_run_passes() {
        let v = view_abc();
        let v2 = v.successor(ep(1), &[ep(3)], &[]);
        let mk = |e: u64| {
            log(ep(e), vec![view_ev(v.clone()), cast(1, b"a"), cast(2, b"b"), view_ev(v2.clone())])
        };
        let logs = vec![mk(1), mk(2)];
        assert!(check_virtual_synchrony(&logs).is_empty());
        assert!(check_total_order(&logs).is_empty());
    }

    #[test]
    fn view_disagreement_detected() {
        let v = view_abc();
        let mut other = view_abc();
        other = other.successor(ep(1), &[ep(3)], &[]);
        // Same id, different membership: forge by reusing v's id via logs.
        let logs = vec![
            log(ep(1), vec![view_ev(v.clone())]),
            log(
                ep(2),
                vec![view_ev(View::from_parts(
                    v.group(),
                    v.id(),
                    other.members().to_vec(),
                    other.join_epochs().to_vec(),
                ))],
            ),
        ];
        let violations = check_virtual_synchrony(&logs);
        assert!(violations.iter().any(|v| v.0.contains("disagreement")));
    }

    #[test]
    fn delivery_disagreement_detected() {
        let v = view_abc();
        let v2 = v.successor(ep(1), &[ep(3)], &[]);
        let logs = vec![
            log(ep(1), vec![view_ev(v.clone()), cast(2, b"m"), view_ev(v2.clone())]),
            log(ep(2), vec![view_ev(v.clone()), view_ev(v2.clone())]),
        ];
        let violations = check_virtual_synchrony(&logs);
        assert!(violations.iter().any(|v| v.0.contains("delivery disagreement")));
    }

    #[test]
    fn crashed_member_prefix_is_tolerated() {
        let v = view_abc();
        let v2 = v.successor(ep(1), &[ep(3)], &[]);
        let logs = vec![
            log(ep(1), vec![view_ev(v.clone()), cast(2, b"m"), view_ev(v2.clone())]),
            log(ep(2), vec![view_ev(v.clone()), cast(2, b"m"), view_ev(v2.clone())]),
            // ep(3) crashed mid-view having delivered less: fine.
            log(ep(3), vec![view_ev(v.clone())]),
        ];
        assert!(check_virtual_synchrony(&logs).is_empty());
    }

    #[test]
    fn sender_outside_view_detected() {
        let v = view_abc();
        let v2 = v.successor(ep(1), &[ep(3)], &[]);
        let logs = vec![log(ep(1), vec![view_ev(v.clone()), cast(9, b"intruder"), view_ev(v2)])];
        let violations = check_virtual_synchrony(&logs);
        assert!(violations.iter().any(|v| v.0.contains("non-member")));
    }

    #[test]
    fn fifo_checker_detects_inversion() {
        let body = |sender: u64, seq: u64| {
            let mut v = sender.to_le_bytes().to_vec();
            v.extend_from_slice(&seq.to_le_bytes());
            v
        };
        let parse = |b: &Bytes| -> Option<(u64, u64)> {
            if b.len() < 16 {
                return None;
            }
            Some((
                u64::from_le_bytes(b[..8].try_into().unwrap()),
                u64::from_le_bytes(b[8..16].try_into().unwrap()),
            ))
        };
        let ok = vec![log(ep(1), vec![cast(2, &body(2, 1)), cast(2, &body(2, 2))])];
        assert!(check_fifo(&ok, parse).is_empty());
        let bad = vec![log(ep(1), vec![cast(2, &body(2, 2)), cast(2, &body(2, 1))])];
        assert_eq!(check_fifo(&bad, parse).len(), 1);
    }

    #[test]
    fn total_order_checker_detects_inversion() {
        let logs = vec![
            log(ep(1), vec![cast(1, b"x"), cast(2, b"y")]),
            log(ep(2), vec![cast(2, b"y"), cast(1, b"x")]),
        ];
        assert_eq!(check_total_order(&logs).len(), 1);
        let logs_ok = vec![
            log(ep(1), vec![cast(1, b"x"), cast(2, b"y"), cast(1, b"z")]),
            log(ep(2), vec![cast(1, b"x"), cast(1, b"z")]), // subset, same order
        ];
        assert!(check_total_order(&logs_ok).is_empty());
    }

    #[test]
    fn monotonic_views_enforced() {
        let v = view_abc();
        let logs = vec![log(ep(1), vec![view_ev(v.clone()), view_ev(v.clone())])];
        let violations = check_virtual_synchrony(&logs);
        assert!(violations.iter().any(|x| x.0.contains("non-monotonic")));
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn convergence_passes_when_all_correct_members_agree_in_time() {
        let v = view_abc();
        let correct = [ep(1), ep(2), ep(3)];
        let logs: Vec<DeliveryLog> =
            correct.iter().map(|&m| log(m, vec![view_at(ms(150), v.clone())])).collect();
        let viols = check_view_convergence(&logs, &correct, ms(100), Duration::from_millis(100));
        assert!(viols.is_empty(), "{viols:?}");
    }

    #[test]
    fn convergence_flags_disagreement_late_install_and_missing_member() {
        let v = view_abc();
        let small = v.successor(ep(1), &[ep(3)], &[]); // {1,2}
        let correct = [ep(1), ep(2), ep(3)];
        // ep3 is stuck in the old 3-member view while 1 and 2 moved on.
        let logs = vec![
            log(ep(1), vec![view_at(ms(150), small.clone())]),
            log(ep(2), vec![view_at(ms(150), small.clone())]),
            log(ep(3), vec![view_at(ms(10), v.clone())]),
        ];
        let viols = check_view_convergence(&logs, &correct, ms(100), Duration::from_millis(100));
        assert!(viols.iter().any(|x| x.0.contains("never converged")), "{viols:?}");

        // Everyone agrees, but on a view missing a correct member.
        let logs = vec![
            log(ep(1), vec![view_at(ms(150), small.clone())]),
            log(ep(2), vec![view_at(ms(150), small.clone())]),
            log(ep(3), vec![view_at(ms(150), small.clone())]),
        ];
        let viols = check_view_convergence(&logs, &correct, ms(100), Duration::from_millis(100));
        assert!(!viols.is_empty(), "installer ep3 outside the view is flagged");

        // Agreement reached, but only after the deadline.
        let logs: Vec<DeliveryLog> =
            correct.iter().map(|&m| log(m, vec![view_at(ms(500), v.clone())])).collect();
        let viols = check_view_convergence(&logs, &correct, ms(100), Duration::from_millis(100));
        assert!(viols.iter().any(|x| x.0.contains("after the convergence deadline")));

        // A member that never installed anything.
        let logs = vec![
            log(ep(1), vec![view_at(ms(50), v.clone())]),
            log(ep(2), vec![view_at(ms(50), v.clone())]),
            log(ep(3), vec![]),
        ];
        let viols = check_view_convergence(&logs, &correct, ms(100), Duration::from_millis(100));
        assert!(viols.iter().any(|x| x.0.contains("never installed any view")));
    }

    #[test]
    fn final_view_delivery_divergence_detected() {
        let v = view_abc();
        let correct = [ep(1), ep(2), ep(3)];
        let with = |extra: bool| {
            let mut evs = vec![view_ev(v.clone()), cast(1, b"a")];
            if extra {
                evs.push(cast(2, b"b"));
            }
            evs
        };
        let logs = vec![
            log(ep(1), with(true)),
            log(ep(2), with(true)),
            log(ep(3), with(false)), // ep3 never got ep2's cast
        ];
        let viols = check_final_view_delivery(&logs, &correct);
        assert_eq!(viols.len(), 1);
        assert!(viols[0].0.contains("final-view delivery divergence"));
        let ok = vec![log(ep(1), with(true)), log(ep(2), with(true)), log(ep(3), with(true))];
        assert!(check_final_view_delivery(&ok, &correct).is_empty());
    }

    #[test]
    fn watchdog_flags_stuck_pending_work_but_tolerates_draining() {
        let quiet = Duration::from_millis(100);
        // Stuck: constant non-zero pending past the quiet period.
        let mut dog = ProgressWatchdog::new(quiet);
        for t in 0..=30 {
            dog.observe(ms(t * 10), ep(1), 5);
        }
        assert_eq!(dog.violations().len(), 1);
        assert!(dog.violations()[0].0.contains("wedged"));

        // Draining: the count keeps moving, then reaches zero.
        let mut dog = ProgressWatchdog::new(quiet);
        for t in 0..=30u64 {
            dog.observe(ms(t * 10), ep(1), 30 - t);
        }
        assert!(dog.violations().is_empty());

        // A disturbance excuses the stall until quiet expires again.
        let mut dog = ProgressWatchdog::new(quiet);
        for t in 0..=30 {
            dog.observe(ms(t * 10), ep(1), 5);
        }
        dog.disturb(ms(290));
        assert!(dog.violations().is_empty(), "stall excused by fresh disturbance");
        for t in 31..=45 {
            dog.observe(ms(t * 10), ep(1), 5);
        }
        assert_eq!(dog.violations().len(), 1, "still stuck a full quiet period later");
    }
}
