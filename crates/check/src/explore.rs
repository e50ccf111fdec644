//! The bounded depth-first schedule explorer.
//!
//! The search space is a tree of **choice prefixes**: a run consumes its
//! prefix at each branch point and continues with choice 0 (calendar order)
//! once the prefix is spent; branch points encountered past the prefix
//! report how many options they offered, and their untaken siblings become
//! new DFS nodes.  Two explorers walk that tree, and only two
//! ([`CheckConfig::oracle`], DESIGN decision 19):
//!
//! * **The fast path** (default): sleep-set reduction on, fingerprints
//!   served from the world's incremental caches, and at each expandable
//!   branch point the world is cloned ([`SimWorld::snapshot`]) once per
//!   untaken sibling so the sibling's run later *resumes* from that clone —
//!   no settle phase, no prefix re-execution.
//! * **The oracle** (`--oracle`): no reduction, every fingerprint
//!   re-digested from scratch ([`SimWorld::fingerprint_fresh`]), every run
//!   re-executed from `Scenario::build` consuming its prefix choice by
//!   choice — the search written for clarity, which `tests/check_dpor.rs`
//!   holds the fast path's fingerprint set and verdict equal to on every
//!   registry scenario.  Committed schedules replay the same stateless way.
//!
//! Three bounds keep the space finite:
//!
//! * **depth** — only the first `max_depth` branch points of a run offer
//!   alternatives; beyond that the run is deterministic calendar order.
//! * **drops** — at most `max_drops` induced message drops per run.
//! * **states** — a global budget on distinct world fingerprints; reaching a
//!   fingerprint seen before prunes the subtree (the continuation from an
//!   identical state was, or will be, explored elsewhere).
//!
//! The *reduction* is happens-before dynamic partial-order reduction with
//! **sleep sets** (Godefroid): when a branch point's options are explored,
//! each later sibling inherits the earlier siblings' fire events as
//! *sleeping* — events whose firing is postponed in that subtree because
//! every ordering that fires them first is explored from the earlier
//! sibling.  A sleeping event wakes as soon as a *dependent* event fires:
//! dependence is sharing a target endpoint, involving a crash, differing in
//! effective firing time (order then shifts downstream emission times), or
//! being causally ordered by the vector clocks the simulator threads
//! through event creation ([`SimWorld::causally_ordered`]).  Runs whose
//! every option is asleep halt — the reduction's savings.  Unlike the
//! endpoint-class heuristic this replaces, sleep sets *never narrow the
//! option list* (enumeration and committed fixtures see the identical,
//! unfiltered options) and never skip a reachable state: the differential
//! suite holds the DPOR visited-fingerprint set equal to the oracle's on
//! every registry scenario, at a fraction of the runs (E27 vs E24).
//! Visited-state pruning cooperates via sleep-aware entries: a state is
//! pruned only when it was previously reached with a sleep set that is a
//! subset of the current one (re-visits store the intersection), which is
//! what keeps caching sound under sleep sets.  A stored sleep set is a
//! bitset over the `(delay, digest)` pairs the search has interned, so a
//! visited state costs its fingerprint, a handle and a word or two of bits
//! (DESIGN decision 28).

use crate::scenario::{Oracle, Scenario};
use horus_core::prelude::{EndpointAddr, SimTime, Up};
use horus_core::trace::TraceSink;
use horus_sim::sched::{RunOutcome, Scheduler, Step};
use horus_sim::{CreationClock, EventId, ReadyEvent, ReadyKind, SimWorld};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Duration;

/// Pass-through hasher for the visited set: its keys are world fingerprints,
/// already FNV-mixed 64-bit digests, so hashing them again buys nothing —
/// the digest *is* the hash.
#[derive(Default)]
pub struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("fingerprint sets hash u64 keys via write_u64")
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// The visited-fingerprint set: one bit of truth per distinct world state.
pub type FpSet = HashSet<u64, BuildHasherDefault<FpHasher>>;

/// The sleep-aware visited map: per distinct world fingerprint, the
/// smallest sleep set any visit arrived with, as a bitset over the
/// `(delay, digest)` pairs the search has seen (see
/// `Visited::check_insert`).
///
/// Plain fingerprint caching is unsound under sleep sets: a state first
/// reached with events asleep explored *fewer* continuations than a later
/// visit with a smaller sleep set would, so pruning that later visit loses
/// states.  The classical repair (Godefroid, state-space caching): prune a
/// revisit only when a previous visit's sleep set was a **subset** of the
/// current one; otherwise re-explore and store the intersection.  Under the
/// oracle every sleep set is empty, every subset test passes, and this
/// degenerates to exactly the plain [`FpSet`] behaviour.
///
/// Few distinct pairs ever sleep (44 over all of `flush4`), so each gets
/// a dense bit index the first time it is seen, and a sleep set is a
/// bitset over those indices: the subset test is `stored & !key == 0` and
/// the intersection an AND, word by word.  Interning is a bijection on
/// the pairs seen, so both commute with it: a prune decision depends on
/// which pairs sleep, not on their order or bit indices.  A fingerprint's entry is a fixed
/// `(start, len)` handle into one arena of key words, trailing zero words
/// trimmed: an empty set is `len` 0, and a visited state costs its
/// fingerprint, the handle and a word or two.
#[derive(Default)]
pub struct Visited {
    /// Per fingerprint, its stored key's `(start, len)` in `words`.
    map: HashMap<u64, (u32, u32), BuildHasherDefault<FpHasher>>,
    /// The bit index of each `(delay, digest)` pair seen so far.
    bits: HashMap<(u64, u64), usize>,
    /// Every stored key's words, end to end.
    words: Vec<u64>,
    /// The key under check, rebuilt in place by `load_key`.
    key: Vec<u64>,
}

impl Visited {
    /// Distinct fingerprints recorded.
    pub fn len(&self) -> u64 {
        self.map.len() as u64
    }

    /// True when no fingerprint has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The recorded fingerprints (for differential coverage comparisons).
    pub fn fingerprints(&self) -> impl Iterator<Item = u64> + '_ {
        self.map.keys().copied()
    }

    /// Whether a visit to `fp` under the sleep set `key` would be pruned:
    /// some earlier visit's stored key is a subset of it.  Coverage only
    /// grows — a re-visit stores the intersection, never a superset — so a
    /// visit covered now is covered at any later check.
    fn covers(&mut self, fp: u64, key: impl IntoIterator<Item = (u64, u64)>) -> bool {
        self.load_key(key);
        self.map.get(&fp).is_some_and(|&(start, len)| {
            is_subset(&self.words[start as usize..][..len as usize], &self.key)
        })
    }

    /// Records a visit to `fp` under the sleep set `key`.  Returns `false`
    /// when the visit is redundant (prune): some earlier visit covered at
    /// least every continuation this one would explore.
    fn check_insert(&mut self, fp: u64, key: impl IntoIterator<Item = (u64, u64)>) -> bool {
        self.load_key(key);
        match self.map.entry(fp) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((arena_index(self.words.len()), arena_index(self.key.len())));
                self.words.extend_from_slice(&self.key);
                true
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let (start, len) = *e.get();
                let stored = &mut self.words[start as usize..][..len as usize];
                if is_subset(stored, &self.key) {
                    return false;
                }
                // Re-explore; remember the intersection so future visits
                // prune only against what *both* explorations covered.  It
                // is a subset of the stored key, so it fits in its words.
                for (i, s) in stored.iter_mut().enumerate() {
                    *s &= word(&self.key, i);
                }
                let len = stored.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
                e.insert((start, arena_index(len)));
                true
            }
        }
    }

    /// Rebuilds `self.key` as the bitset of `pairs`, interning new ones.
    /// The top word is non-zero by construction, so the key is trimmed.
    fn load_key(&mut self, pairs: impl IntoIterator<Item = (u64, u64)>) {
        self.key.clear();
        for pair in pairs {
            let next = self.bits.len();
            let bit = *self.bits.entry(pair).or_insert(next);
            if self.key.len() <= bit / 64 {
                self.key.resize(bit / 64 + 1, 0);
            }
            self.key[bit / 64] |= 1 << (bit % 64);
        }
    }
}

/// The prune test, `stored ⊆ key`: an earlier visit explored at least
/// every continuation a visit under `key` would.
fn is_subset(stored: &[u64], key: &[u64]) -> bool {
    stored.iter().enumerate().all(|(i, &s)| s & !word(key, i) == 0)
}

/// Word `i` of a trimmed bitset; the words past its end are zero.
fn word(set: &[u64], i: usize) -> u64 {
    set.get(i).copied().unwrap_or(0)
}

/// An arena offset or length as stored in a handle.
fn arena_index(n: usize) -> u32 {
    u32::try_from(n).expect("the visited map's key arena outgrew u32 words")
}

/// One sleeping event: a pending calendar entry whose firing is postponed
/// in this subtree because every schedule firing it *first* is explored
/// from an earlier sibling of some ancestor branch point.
///
/// Only *reducible* events sleep — events dispatching into exactly one
/// endpoint ([`ReadyKind::target`] is `Some`) and not crashes.  World-global
/// events (partition/heal/fault) and crashes commute with nothing, so they
/// are never postponed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SleepEntry {
    /// Calendar id — stable within a run lineage (snapshots clone the
    /// calendar; fresh replays re-create identical insertion sequences).
    id: EventId,
    /// The endpoint the event dispatches into.
    target: EndpointAddr,
    /// Scheduled firing time (effective time is `max(now, at)`).
    at: SimTime,
    /// Run-independent payload digest, used in the canonical visited key so
    /// converging runs agree on what is asleep.
    digest: u64,
}

/// Builds a sleep entry for `Fire(i)` of `ready[i]`, if the event is
/// reducible.
fn sleep_entry(world: &SimWorld, ev: &ReadyEvent) -> Option<SleepEntry> {
    if matches!(ev.kind, ReadyKind::Crash { .. }) {
        return None;
    }
    let target = ev.kind.target()?;
    Some(SleepEntry {
        id: ev.id,
        target,
        at: ev.at,
        digest: world.pending_digest(ev.id).unwrap_or(0),
    })
}

/// The happens-before independence check: a sleeping event stays asleep
/// across the firing of `f` only when the two orders provably commute —
/// distinct endpoint targets (disjoint stacks), neither a crash, identical
/// effective firing times (otherwise order shifts `now`, and with it every
/// downstream emission time), and no causal order between their creation
/// contexts (the vector clocks refine the static target test: an event
/// created *by* another is never an exchangeable race).  `f_clock` is `f`'s
/// creation clock, looked up once per step by the caller.
fn independent(
    world: &SimWorld,
    now: SimTime,
    e: &SleepEntry,
    f: &ReadyEvent,
    f_clock: Option<CreationClock<'_>>,
) -> bool {
    if matches!(f.kind, ReadyKind::Crash { .. }) {
        return false;
    }
    let Some(ft) = f.kind.target() else { return false };
    if e.target == ft {
        return false;
    }
    if e.at.max(now) != f.at.max(now) {
        return false;
    }
    !f_clock.is_some_and(|c| world.causally_ordered(e.id, c))
}

/// A sleeping event's element of the visited key: its
/// `(effective-delay, payload-digest)` pair.  Calendar ids are
/// run-*dependent* (insertion sequence), absolute times depend on the path
/// length — the delay relative to `now` plus the payload digest is what two
/// converging runs agree on.
fn sleep_pair(now: SimTime, e: &SleepEntry) -> (u64, u64) {
    ((e.at.max(now) - now).as_nanos() as u64, e.digest)
}

/// Whether the `Step::Drop(i)` sibling spawned with sleep set `sleep` would
/// be pruned at its first check, decided without running it.  Its resumed
/// run takes the drop (which retires `ready[i]` from the sleep set) and, if
/// the calendar still holds an event by the deadline, checks the state the
/// drop left: the world's fingerprint without that entry, under the
/// remaining sleep set.  Coverage only grows, so covered now means pruned
/// then.  A drop of the only ready event is left to its run: whether the
/// calendar continues past the window is not in `ready`.
fn drop_is_covered(
    world: &SimWorld,
    ready: &[ReadyEvent],
    i: usize,
    sleep: &[SleepEntry],
    visited: &mut Visited,
    deadline: SimTime,
) -> bool {
    // `ready[0]` is the calendar's first entry, due by the deadline (the
    // run would not be asking otherwise); dropping it leaves `ready[1]`.
    let continues = i != 0 || ready.get(1).is_some_and(|e| e.at <= deadline);
    let id = ready[i].id;
    let now = world.now();
    continues
        && world.fingerprint_without(id).is_some_and(|fp| {
            visited.covers(fp, sleep.iter().filter(|e| e.id != id).map(|e| sleep_pair(now, e)))
        })
}

/// The deterministic option list for a ready set — the *one* enumeration
/// everything downstream agrees on: the explorer's branch points, committed
/// fixtures' choice indices, and the trace→schedule bridge (which must map
/// observed events back to the indices a replay would consume).  Order is
/// load-bearing: fires first (index == ready position), then drops, then
/// crashes, then ordered suspicion pairs, each block present only while its
/// budget lasts so zero budgets leave earlier indices untouched.
pub(crate) fn enumerate_options(
    members: u64,
    world: &SimWorld,
    ready: &[ReadyEvent],
    drops_left: u32,
    crashes_left: u32,
    suspects_left: u32,
    opts: &mut Vec<Step>,
) {
    opts.clear();
    opts.extend((0..ready.len()).map(Step::Fire));
    if drops_left > 0 {
        opts.extend(
            ready
                .iter()
                .enumerate()
                .filter(|(_, ev)| ev.kind.droppable())
                .map(|(i, _)| Step::Drop(i)),
        );
    }
    // Crash choice points (appended last so legacy indices survive a
    // zero budget): with budget left, any still-alive member may
    // fail-stop *here*, before anything in the ready set fires.
    if crashes_left > 0 {
        opts.extend(
            (1..=members).map(EndpointAddr::new).filter(|&m| world.is_alive(m)).map(Step::Crash),
        );
    }
    // Suspicion choice points (after the crash range, same index-
    // stability contract): any alive member may be told — truthfully
    // or not — to suspect any other alive member *here*.
    if suspects_left > 0 {
        let alive: Vec<EndpointAddr> =
            (1..=members).map(EndpointAddr::new).filter(|&m| world.is_alive(m)).collect();
        for &observer in &alive {
            opts.extend(
                alive
                    .iter()
                    .copied()
                    .filter(|&target| target != observer)
                    .map(|target| Step::Suspect { observer, target }),
            );
        }
    }
}

/// Bounds and knobs for one exploration.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Concurrency window: ready events within this much of the earliest
    /// pending event may be reordered.  Zero means exact ties only.
    pub window: Duration,
    /// Which of the two explorers runs.  `false` (default) is the fast path:
    /// sleep-set reduction, incremental fingerprints, snapshot-resumed
    /// siblings.  `true` is the reference search tests compare it against:
    /// no reduction, [`SimWorld::fingerprint_fresh`] at every step, every
    /// run a stateless replay from `Scenario::build`.  Neither narrows the
    /// option list, so replayed fixtures see identical enumeration either
    /// way; the two reach the same fingerprint set and the same verdict.
    pub oracle: bool,
    /// Branch points per run that offer alternatives.
    pub max_depth: usize,
    /// Induced message drops per run.
    pub max_drops: u32,
    /// Explorer-injected fail-stop crashes per run.  When non-zero, every
    /// branch point additionally offers `Step::Crash` of each still-alive
    /// member — crash options are appended *after* fire/drop options, so a
    /// zero budget leaves legacy choice indices (and committed fixtures)
    /// untouched.
    pub max_crashes: u32,
    /// Explorer-injected (possibly false) suspicions per run.  When
    /// non-zero, every branch point additionally offers `Step::Suspect` of
    /// each ordered pair of distinct alive members — appended after the
    /// crash options, so zero budgets of either kind leave earlier choice
    /// indices untouched.
    pub max_suspects: u32,
    /// Judge terminal (non-halted) states with the quiescence oracle: a
    /// run that ends with a member still holding
    /// [`pending_work`](horus_core::stack::Stack::pending_work) after the
    /// horizon's grace is reported as a `quiescence` violation — the
    /// bounded-model-checking twin of the soak runner's progress watchdog.
    /// Off by default: scenarios whose point is a legitimately wedged
    /// shape (and the fixtures pinning them) stay clean.
    pub wedge_oracle: bool,
    /// Global distinct-fingerprint budget.
    pub max_states: u64,
    /// Global executed-run budget.
    pub max_runs: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            window: Duration::from_micros(100),
            oracle: false,
            max_depth: 6,
            max_drops: 0,
            max_crashes: 0,
            max_suspects: 0,
            wedge_oracle: false,
            max_states: 200_000,
            max_runs: 20_000,
        }
    }
}

/// One DFS node: how to bring a world to the state where its next choice
/// diverges.
enum Job {
    /// Build the scenario world and replay this choice prefix from scratch.
    /// The sleep set (events earlier siblings of the final branch point
    /// already cover) activates when the last prefix choice is consumed.
    Fresh(Vec<u16>, Vec<SleepEntry>),
    /// Resume from a snapshot taken at the diverging branch point.
    Resume(Box<ResumeJob>),
    /// A drop sibling decided where it was spawned: the state its drop
    /// reaches was already covered, so its resumed run would take the drop
    /// and be pruned at its first check.  It keeps its place on the frontier
    /// and is booked as that run: one run, one step, one prune.
    Pruned {
        /// Branch points on the run's path: its parent's, plus the one the
        /// drop is taken at.
        branch_points: u64,
    },
}

/// A snapshot-resume DFS node (boxed: a `SimWorld` is large next to a
/// prefix vector).
struct ResumeJob {
    /// The world as it stood at the branch point, *before* any option ran.
    world: SimWorld,
    /// Full from-scratch choice path; the last entry is the sibling option
    /// to take at the resumed branch point.  Kept complete so violation
    /// reports and shrinking always carry schedules replayable by
    /// [`replay_choices`].
    choices: Vec<u16>,
    /// Option counts of the branch points already on the path (depth
    /// accounting continues from the parent run).
    branch_base: Vec<u16>,
    /// Drop budget remaining at the branch point.
    drops_left: u32,
    /// Crash budget remaining at the branch point.
    crashes_left: u32,
    /// Suspicion budget remaining at the branch point.
    suspects_left: u32,
    /// Sleep set to activate when the sibling choice is consumed: the
    /// parent's sleeping events plus the fire events of the awake siblings
    /// explored before this one.
    sleep: Vec<SleepEntry>,
}

/// A violation the explorer found, with the schedule that reaches it.
#[derive(Debug, Clone)]
pub struct FoundViolation {
    /// Which oracle failed.
    pub oracle: &'static str,
    /// The oracle's first complaint.
    pub message: String,
    /// Choice list reaching the violation (replayable).
    pub choices: Vec<u16>,
}

/// What one re-execution observed.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Choice taken at each branch point, in order.
    pub taken: Vec<u16>,
    /// Option count at each branch point *eligible for expansion* (within
    /// `max_depth`); parallel prefix of `taken`.
    pub branch_options: Vec<u16>,
    /// Events fired during the explored window.
    pub steps: u64,
    /// Violation observed (at a view change or at the terminal), if any.
    pub violation: Option<FoundViolation>,
    /// Whether the run was cut by visited-state pruning.
    pub pruned: bool,
}

/// Aggregate exploration result.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// Runs executed.
    pub runs: u64,
    /// Distinct fingerprints recorded.
    pub states: u64,
    /// Events fired across all runs.
    pub steps: u64,
    /// Branch points expanded.
    pub branch_points: u64,
    /// Runs cut by visited-state pruning.
    pub pruned: u64,
    /// True when the frontier drained within the budgets — the bounded
    /// space is exhausted.
    pub exhausted: bool,
    /// First violation found, if any (search stops on it).
    pub violation: Option<FoundViolation>,
}

/// The scheduler that turns a choice list into a schedule.
///
/// At each step it enumerates the deterministic option list for the current
/// ready set; when more than one option exists it is a *branch point* and
/// the next choice (or 0 past the end of the list) selects.  Because option
/// enumeration is a pure function of the world and the config, the same
/// choices replay the same run, byte for byte.
struct ControlledScheduler<'a> {
    cfg: &'a CheckConfig,
    oracles: &'a [Oracle],
    scenario: &'a Scenario,
    choices: &'a [u16],
    cursor: usize,
    drops_left: u32,
    crashes_left: u32,
    suspects_left: u32,
    rec: RunRecord,
    /// Sleeping events: postponed in this subtree because an earlier
    /// sibling of an ancestor branch point explores every schedule that
    /// fires them first.  Woken (removed) by any dependent step.  Always
    /// empty under the oracle, and during committed-schedule replay.
    sleep: Vec<SleepEntry>,
    /// Sleep set handed to this job by its spawner; installs into `sleep`
    /// at the moment the final prefix choice is consumed — i.e. exactly at
    /// the branch point the job diverges from its parent, whether the run
    /// resumed there from a snapshot or replayed its way back.
    armed_sleep: Vec<SleepEntry>,
    /// Shared visited-fingerprint map; `None` disables pruning (replay).
    visited: Option<&'a mut Visited>,
    /// DFS frontier to push untaken siblings onto as branch points are
    /// encountered; `None` disables expansion (replay).
    spawn: Option<&'a mut Vec<Job>>,
    state_budget_hit: bool,
    /// Per-member upcall counts at the last view scan; only upcalls
    /// appended past these cursors are examined, so watching for view
    /// installs costs O(new upcalls) per step instead of O(all upcalls).
    upcalls_seen: Vec<usize>,
    /// Reused option buffer — `next_step` runs for every event, so the
    /// option list must not cost an allocation per step.
    opts_buf: Vec<Step>,
}

impl<'a> ControlledScheduler<'a> {
    /// Fills `opts` with the deterministic option list for the ready set.
    /// Taken out of `self` (callers `mem::take` the buffer) so the borrow
    /// of the option list stays disjoint from the scheduler's other fields.
    /// The list is *never* filtered by the reduction: sleep sets postpone
    /// whole sibling runs instead of hiding options, so enumeration — and
    /// with it every committed fixture's choice indices — is identical on
    /// the fast path and under the oracle.
    fn fill_options(&self, world: &SimWorld, ready: &[ReadyEvent], opts: &mut Vec<Step>) {
        enumerate_options(
            self.scenario.members,
            world,
            ready,
            self.drops_left,
            self.crashes_left,
            self.suspects_left,
            opts,
        );
    }

    /// Whether an option is asleep: a `Fire` of a currently-sleeping event.
    /// Drops, crashes and suspicions never sleep (they are induced faults,
    /// not reorderable deliveries — postponing them saves nothing and the
    /// independence theory does not cover them).
    fn is_asleep(&self, ready: &[ReadyEvent], step: Step) -> bool {
        match step {
            Step::Fire(i) => self.sleep.iter().any(|e| e.id == ready[i].id),
            _ => false,
        }
    }

    /// Applies the wake rules for the step about to execute: a fire wakes
    /// every sleeping event dependent on it, a drop retires the dropped
    /// event's entry (it can never fire now), and induced crashes or
    /// suspicions — which commute with nothing — wake everything.
    fn wake_for(&mut self, world: &SimWorld, ready: &[ReadyEvent], step: Step) {
        if self.sleep.is_empty() {
            return;
        }
        match step {
            Step::Fire(i) => {
                let f = ready[i];
                let now = world.now();
                let f_clock = world.creation_clock(f.id);
                self.sleep.retain(|e| independent(world, now, e, &f, f_clock));
            }
            Step::Drop(i) => {
                let id = ready[i].id;
                self.sleep.retain(|e| e.id != id);
            }
            Step::Crash(_) | Step::Suspect { .. } => self.sleep.clear(),
            Step::Halt => {}
        }
    }

    /// Advances the per-member upcall cursors; true when any upcall appended
    /// since the last scan installed a view.
    fn saw_new_view(&mut self, world: &SimWorld) -> bool {
        let mut saw = false;
        for m in 1..=self.scenario.members {
            let ups = world.upcalls(EndpointAddr::new(m));
            let seen = &mut self.upcalls_seen[m as usize - 1];
            *seen = (*seen).min(ups.len());
            saw |= ups[*seen..].iter().any(|(_, up)| matches!(up, Up::View(_)));
            *seen = ups.len();
        }
        saw
    }

    fn check_oracles(&mut self, world: &SimWorld) -> bool {
        match first_violation(self.scenario, self.oracles, world, &self.rec.taken) {
            Some(v) => {
                self.rec.violation = Some(v);
                true
            }
            None => false,
        }
    }
}

/// Runs every oracle over the world's delivery logs; the first complaint
/// becomes a [`FoundViolation`] carrying the choices that reached it.
fn first_violation(
    scenario: &Scenario,
    oracles: &[Oracle],
    world: &SimWorld,
    taken: &[u16],
) -> Option<FoundViolation> {
    let logs = scenario.logs(world);
    for oracle in oracles {
        if let Some(v) = oracle.check(&logs).first() {
            return Some(FoundViolation {
                oracle: oracle.name(),
                message: v.to_string(),
                choices: taken.to_vec(),
            });
        }
    }
    None
}

impl Scheduler for ControlledScheduler<'_> {
    fn next_step(&mut self, world: &SimWorld, ready: &[ReadyEvent]) -> Step {
        // Oracle check whenever a view installed since the last look — a
        // violation visible mid-run should be caught (and attributed) at the
        // earliest branch, not only at the horizon.
        if self.saw_new_view(world) && self.check_oracles(world) {
            return Step::Halt;
        }
        // The dirty-marking invariant, policed in debug builds: the cached
        // and the from-scratch fingerprint must agree at every step — which
        // turns every debug replay of a committed fixture into a
        // differential test of the incremental caches.
        debug_assert_eq!(
            world.fingerprint(),
            world.fingerprint_fresh(),
            "incremental fingerprint diverged from fresh recomputation (missed dirty mark?)"
        );

        // Past the replayed prefix, consult the visited set at *every* step,
        // not just at branch points: an already-seen fingerprint means the
        // continuation from here was (or will be) explored from the run that
        // first reached it — that run kept executing and recorded every
        // branch point downstream, so sibling expansion covers this subtree.
        // Per-step granularity is what the incremental fingerprint buys:
        // the check costs O(one dirty slot), not a full state walk, and it
        // cuts redundant runs hundreds of steps before the next branch
        // point would.  (Within the prefix the states were necessarily seen
        // — that is what replaying is — so pruning there would cut every
        // run.)
        let beyond_prefix = self.cursor >= self.choices.len();
        if beyond_prefix {
            if let Some(visited) = self.visited.as_deref_mut() {
                if visited.len() >= self.cfg.max_states {
                    self.state_budget_hit = true;
                    return Step::Halt;
                }
                let fp =
                    if self.cfg.oracle { world.fingerprint_fresh() } else { world.fingerprint() };
                let now = world.now();
                if !visited.check_insert(fp, self.sleep.iter().map(|e| sleep_pair(now, e))) {
                    self.rec.pruned = true;
                    return Step::Halt;
                }
            }
        }

        let mut opts = std::mem::take(&mut self.opts_buf);
        self.fill_options(world, ready, &mut opts);
        if opts.len() <= 1 {
            self.rec.steps += 1;
            let step = opts.first().copied().unwrap_or(Step::Fire(0));
            self.wake_for(world, ready, step);
            self.opts_buf = opts;
            return step;
        }

        // A real branch point.
        let expandable = self.rec.branch_options.len() < self.cfg.max_depth;
        if !expandable {
            // Past the depth bound the run is deterministic and spawns
            // nothing, so sleeping buys nothing — and clearing keeps the
            // deep continuation (choice, visited keys) identical to the
            // oracle's, which the differential set-equality relies on.
            self.sleep.clear();
        }

        // The taken option: the prefix dictates it during replay; beyond
        // the prefix the run takes the first *awake* option — under DPOR an
        // asleep option's orderings are exactly what an earlier sibling
        // explores, so taking one here would re-explore a covered subtree.
        let choice = if self.cursor < self.choices.len() {
            let c = self.choices[self.cursor];
            usize::from(c).min(opts.len() - 1)
        } else {
            match opts.iter().position(|&s| !self.is_asleep(ready, s)) {
                Some(first_awake) => first_awake,
                None => {
                    // Every option is covered by an earlier sibling: this
                    // whole continuation is redundant — the reduction's
                    // savings, booked as a prune.
                    self.rec.pruned = true;
                    self.opts_buf = opts;
                    return Step::Halt;
                }
            }
        };

        // Expansion happens *here*, while the branch point's world exists:
        // each untaken *awake* sibling becomes a DFS node — a snapshot of
        // this world (so the sibling run resumes in place), or under the
        // oracle a full replay prefix.  Only beyond the replayed prefix
        // — the resumed branch point's own siblings were pushed by the run
        // that discovered it.  Each sibling inherits the current sleep set
        // plus the fire events of its awake left siblings (the taken option
        // included): those orderings are explored to its left, so in its
        // subtree they stay postponed until a dependent step wakes them.
        // Asleep options spawn nothing — that is the run reduction.
        if expandable && beyond_prefix {
            let asleep: Vec<bool> = opts.iter().map(|&s| self.is_asleep(ready, s)).collect();
            if let Some(spawn) = self.spawn.as_deref_mut() {
                let mut acc = self.sleep.clone();
                if !self.cfg.oracle {
                    if let Step::Fire(i) = opts[choice] {
                        acc.extend(sleep_entry(world, &ready[i]));
                    }
                }
                for alt in (choice + 1)..opts.len() {
                    if asleep[alt] {
                        continue;
                    }
                    let covered_drop = match (opts[alt], self.visited.as_deref_mut()) {
                        (Step::Drop(i), Some(visited)) if !self.cfg.oracle => drop_is_covered(
                            world,
                            ready,
                            i,
                            &acc,
                            visited,
                            self.scenario.deadline(),
                        ),
                        _ => false,
                    };
                    if covered_drop {
                        let branch_points = self.rec.branch_options.len() as u64 + 1;
                        spawn.push(Job::Pruned { branch_points });
                        continue;
                    }
                    let mut choices = self.rec.taken.clone();
                    choices.push(alt as u16);
                    spawn.push(if self.cfg.oracle {
                        Job::Fresh(choices, acc.clone())
                    } else {
                        Job::Resume(Box::new(ResumeJob {
                            world: world
                                .snapshot()
                                .expect("Scenario::build's fixed net scheduler clones"),
                            choices,
                            branch_base: self.rec.branch_options.clone(),
                            drops_left: self.drops_left,
                            crashes_left: self.crashes_left,
                            suspects_left: self.suspects_left,
                            sleep: acc.clone(),
                        }))
                    });
                    if !self.cfg.oracle {
                        if let Step::Fire(i) = opts[alt] {
                            acc.extend(sleep_entry(world, &ready[i]));
                        }
                    }
                }
            }
        }

        // Consuming the final prefix choice is the moment this job diverges
        // from its parent: its armed sleep set activates now, *before* the
        // wake rules run for the diverging step itself — the step's own
        // dependencies do the filtering the spawner deferred.
        if self.cursor + 1 == self.choices.len() {
            self.sleep = std::mem::take(&mut self.armed_sleep);
        }
        self.cursor += 1;
        self.rec.taken.push(choice as u16);
        if expandable {
            self.rec.branch_options.push(opts.len() as u16);
        }
        let step = opts[choice];
        self.wake_for(world, ready, step);
        self.opts_buf = opts;
        match step {
            Step::Drop(_) => self.drops_left -= 1,
            Step::Crash(_) => self.crashes_left -= 1,
            Step::Suspect { .. } => self.suspects_left -= 1,
            _ => {}
        }
        self.rec.steps += 1;
        step
    }
}

/// Executes one DFS node: a fresh build-and-replay, or a resume from a
/// branch-point snapshot (a [`Job::Pruned`] marker is booked by the search
/// loop, never run).  `visited` enables cross-run pruning; `spawn` receives
/// the untaken siblings of every expandable branch point encountered past
/// the node's prefix, a drop sibling whose state `visited` already covers
/// as a [`Job::Pruned`]; `tracer` records the explored window.
fn run_job(
    scenario: &Scenario,
    cfg: &CheckConfig,
    job: Job,
    visited: Option<&mut Visited>,
    spawn: Option<&mut Vec<Job>>,
    tracer: Option<Arc<dyn TraceSink>>,
) -> RunRecord {
    let (
        mut world,
        choices,
        taken,
        branch_base,
        cursor,
        drops_left,
        crashes_left,
        suspects_left,
        armed_sleep,
    ) = match job {
        Job::Fresh(prefix, sleep) => (
            scenario.build(),
            prefix,
            Vec::new(),
            Vec::new(),
            0,
            cfg.max_drops,
            cfg.max_crashes,
            cfg.max_suspects,
            sleep,
        ),
        Job::Resume(r) => {
            // The resumed run starts at its branch point with the path
            // up to (but not including) the sibling choice already
            // "taken"; the first `next_step` consumes that last choice
            // exactly as a stateless replay's final prefix step would.
            let cursor = r.choices.len() - 1;
            let taken = r.choices[..cursor].to_vec();
            (
                r.world,
                r.choices,
                taken,
                r.branch_base,
                cursor,
                r.drops_left,
                r.crashes_left,
                r.suspects_left,
                r.sleep,
            )
        }
        Job::Pruned { .. } => unreachable!("a decided sibling is booked, not run"),
    };
    // Tracing starts *here* — after `Scenario::build` ran the settle phase —
    // so a captured trace holds exactly the explored window, which is what
    // the trace→schedule bridge maps back onto choice indices.
    if let Some(t) = tracer {
        world.set_tracer(t);
    }
    let mut ctl = ControlledScheduler {
        cfg,
        oracles: scenario.oracles,
        scenario,
        choices: &choices,
        cursor,
        drops_left,
        crashes_left,
        suspects_left,
        rec: RunRecord {
            taken,
            branch_options: branch_base,
            steps: 0,
            violation: None,
            pruned: false,
        },
        sleep: Vec::new(),
        armed_sleep,
        visited,
        spawn,
        state_budget_hit: false,
        upcalls_seen: Vec::new(),
        opts_buf: Vec::new(),
    };
    // Prime the view-watch cursors past whatever the settle phase (or the
    // snapshotted prefix) already delivered: those views were judged by the
    // run that produced them.
    ctl.upcalls_seen =
        (1..=scenario.members).map(|m| world.upcalls(EndpointAddr::new(m)).len()).collect();
    let outcome = world.run_scheduled(&mut ctl, cfg.window, scenario.deadline());
    let mut rec = ctl.rec;
    // Terminal oracle pass: quiescence and horizon are where agreement
    // properties are fully judgeable.  Skip it for halted runs — a halt is
    // either an oracle hit (violation already recorded) or a prune/budget
    // cut, whose continuation is judged from the identical state elsewhere.
    if rec.violation.is_none() && outcome != RunOutcome::Halted {
        rec.violation = first_violation(scenario, scenario.oracles, &world, &rec.taken);
    }
    if rec.violation.is_none() && outcome != RunOutcome::Halted && cfg.wedge_oracle {
        rec.violation = wedge_violation(scenario, &world, &rec.taken);
    }
    rec
}

/// The quiescence oracle: at a terminal state, no live member may still be
/// holding pending protocol work — retransmission queues, unfinished flush
/// rounds, reassembly gaps.  A member that does is wedged: the horizon gave
/// every retry/timeout path time to drain, so leftover work means no
/// schedule continuation can make progress (the "no progress possible"
/// verdict the soak runner's watchdog reaches statistically, judged here at
/// the end of a systematically explored schedule).
fn wedge_violation(scenario: &Scenario, world: &SimWorld, taken: &[u16]) -> Option<FoundViolation> {
    let mut wedged: Vec<String> = Vec::new();
    for m in (1..=scenario.members).map(EndpointAddr::new) {
        if !world.is_alive(m) {
            continue;
        }
        let Some(stack) = world.stack(m) else { continue };
        let pending = stack.pending_work();
        if pending > 0 {
            wedged.push(format!("{m} still holds {pending} unit(s) of pending work"));
        }
    }
    if wedged.is_empty() {
        return None;
    }
    Some(FoundViolation {
        oracle: "quiescence",
        message: format!("wedged at the horizon: {}", wedged.join("; ")),
        choices: taken.to_vec(),
    })
}

/// Re-executes the scenario under `choices` from scratch, calendar order
/// past the end, with pruning disabled (the verdict-stable path used by
/// `horus-check replay` and the committed fixtures).
pub fn replay_choices(scenario: &Scenario, choices: &[u16], cfg: &CheckConfig) -> RunRecord {
    run_job(scenario, cfg, Job::Fresh(choices.to_vec(), Vec::new()), None, None, None)
}

/// [`replay_choices`] with a trace sink installed for the explored window:
/// the settle phase runs silent, then every calendar fire, induced fault,
/// and stack-internal hop of the replayed run is recorded.  The captured
/// trace carries the calendar sequence numbers the trace→schedule bridge
/// matches on, so `replay → trace → bridge → replay` round-trips.
pub fn replay_choices_traced(
    scenario: &Scenario,
    choices: &[u16],
    cfg: &CheckConfig,
    tracer: Arc<dyn TraceSink>,
) -> RunRecord {
    run_job(scenario, cfg, Job::Fresh(choices.to_vec(), Vec::new()), None, None, Some(tracer))
}

/// Explores the scenario's bounded schedule space depth-first.  Stops at the
/// first violation (callers shrink it), or when the frontier drains
/// (`exhausted`), or when a budget runs out.
pub fn explore(scenario: &Scenario, cfg: &CheckConfig) -> CheckReport {
    let mut visited = Visited::default();
    explore_with(scenario, cfg, &mut visited)
}

/// [`explore`] that also hands back the visited-fingerprint set — the raw
/// material of the differential suite, which holds the fast path's
/// coverage equal to the oracle's state for state.
pub fn explore_collect(scenario: &Scenario, cfg: &CheckConfig) -> (CheckReport, FpSet) {
    let mut visited = Visited::default();
    let report = explore_with(scenario, cfg, &mut visited);
    (report, visited.fingerprints().collect())
}

fn explore_with(scenario: &Scenario, cfg: &CheckConfig, visited: &mut Visited) -> CheckReport {
    let mut report = CheckReport {
        scenario: scenario.name,
        runs: 0,
        states: 0,
        steps: 0,
        branch_points: 0,
        pruned: 0,
        exhausted: false,
        violation: None,
    };
    let mut frontier: Vec<Job> = vec![Job::Fresh(Vec::new(), Vec::new())];
    while let Some(job) = frontier.pop() {
        if report.runs >= cfg.max_runs || visited.len() >= cfg.max_states {
            return report;
        }
        report.runs += 1;
        if let Job::Pruned { branch_points } = job {
            report.steps += 1;
            report.branch_points += branch_points;
            report.pruned += 1;
            continue;
        }
        // Untaken siblings of every expandable branch point past the node's
        // prefix are pushed onto `frontier` *during* the run, while each
        // branch point's world is live and can be snapshotted.
        let rec = run_job(scenario, cfg, job, Some(&mut *visited), Some(&mut frontier), None);
        report.steps += rec.steps;
        report.branch_points += rec.branch_options.len() as u64;
        if rec.pruned {
            report.pruned += 1;
        }
        report.states = visited.len();
        if let Some(v) = rec.violation {
            report.violation = Some(v);
            return report;
        }
    }
    report.exhausted = true;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn tiny_cfg() -> CheckConfig {
        CheckConfig { max_depth: 3, max_states: 5_000, max_runs: 500, ..CheckConfig::default() }
    }

    /// The visited map as it stood before sleep keys became bitsets: per
    /// fingerprint, the sorted pairs of the smallest sleep set a visit
    /// arrived with, tested by `contains` and narrowed by filtering.
    /// [`Visited`] must answer every call as this does.
    #[derive(Default)]
    struct SortedPairModel(HashMap<u64, Vec<(u64, u64)>>);

    /// The model's prune test: `stored ⊆ key`.
    fn covered(stored: &[(u64, u64)], key: &[(u64, u64)]) -> bool {
        stored.iter().all(|s| key.contains(s))
    }

    impl SortedPairModel {
        fn covers(&self, fp: u64, key: &[(u64, u64)]) -> bool {
            self.0.get(&fp).is_some_and(|stored| covered(stored, key))
        }

        fn check_insert(&mut self, fp: u64, key: &[(u64, u64)]) -> bool {
            match self.0.get(&fp) {
                None => {
                    let mut sorted = key.to_vec();
                    sorted.sort_unstable();
                    self.0.insert(fp, sorted);
                    true
                }
                Some(stored) if covered(stored, key) => false,
                Some(stored) => {
                    let both = stored.iter().copied().filter(|s| key.contains(s)).collect();
                    self.0.insert(fp, both);
                    true
                }
            }
        }
    }

    /// One of 130 distinct `(delay, digest)` pairs (three words of bits)
    /// that share delays and digests with each other, so a pair is told
    /// apart only by both halves.
    fn pair(i: u8) -> (u64, u64) {
        let i = u64::from(i) % 130;
        ((i % 7) * 1_000, (i / 7).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Random `check_insert`/`covers` sequences over four fingerprints,
        /// with sleep sets drawn mostly from a dozen pairs (so subsets and
        /// re-visits are common) and sometimes from all 130, duplicates and
        /// empty sets included: the bitset map answers each call, and ends
        /// with the same fingerprints, as the sorted-pair model.  `warm`
        /// first interns all 130 pairs in reverse, which moves the dozen
        /// into the second and third words.
        #[test]
        fn bitset_visited_matches_its_sorted_pair_model(
            warm in proptest::prelude::any::<bool>(),
            script in proptest::collection::vec(
                (
                    proptest::prelude::any::<bool>(),
                    0..4u64,
                    proptest::collection::vec(
                        proptest::prop_oneof![
                            0..12u8,
                            0..12u8,
                            0..12u8,
                            proptest::prelude::any::<u8>()
                        ],
                        0..8,
                    ),
                ),
                0..200,
            ),
        ) {
            let (mut bits, mut model) = (Visited::default(), SortedPairModel::default());
            if warm {
                let all: Vec<(u64, u64)> = (0..130).rev().map(pair).collect();
                proptest::prop_assert!(bits.check_insert(4, all.iter().copied()));
                proptest::prop_assert!(model.check_insert(4, &all));
            }
            for (insert, fp, set) in script {
                let pairs: Vec<(u64, u64)> = set.into_iter().map(pair).collect();
                let (got, want) = if insert {
                    (bits.check_insert(fp, pairs.iter().copied()), model.check_insert(fp, &pairs))
                } else {
                    (bits.covers(fp, pairs.iter().copied()), model.covers(fp, &pairs))
                };
                proptest::prop_assert_eq!(got, want, "insert {}, fp {}, {:?}", insert, fp, pairs);
                proptest::prop_assert_eq!(bits.len(), model.0.len() as u64);
            }
            let mut fps: Vec<u64> = bits.fingerprints().collect();
            fps.sort_unstable();
            let mut want: Vec<u64> = model.0.keys().copied().collect();
            want.sort_unstable();
            proptest::prop_assert_eq!(fps, want);
        }
    }

    #[test]
    fn fifo2_calendar_order_is_clean() {
        let s = Scenario::by_name("fifo2").unwrap();
        let rec = replay_choices(s, &[], &tiny_cfg());
        assert!(rec.violation.is_none(), "default schedule should satisfy FIFO");
    }

    #[test]
    fn fifo2_explorer_finds_the_planted_bug() {
        let s = Scenario::by_name("fifo2").unwrap();
        let report = explore(s, &tiny_cfg());
        let v = report.violation.expect("explorer must find the FIFO violation");
        assert_eq!(v.oracle, "fifo");
        // And the counterexample replays to the same verdict.
        let rec = replay_choices(s, &v.choices, &tiny_cfg());
        let rv = rec.violation.expect("counterexample must replay");
        assert_eq!(rv.message, v.message);
    }

    #[test]
    fn zero_crash_budget_leaves_option_indices_untouched() {
        // Committed fixtures rely on choice indices; a zero crash budget
        // must enumerate exactly the legacy options.
        let s = Scenario::by_name("fifo2").unwrap();
        let cfg = tiny_cfg();
        assert_eq!(cfg.max_crashes, 0);
        let a = replay_choices(s, &[1], &cfg);
        let b = replay_choices(s, &[1], &CheckConfig { max_crashes: 0, ..cfg.clone() });
        assert_eq!(a.taken, b.taken);
        assert_eq!(a.branch_options, b.branch_options);
    }

    #[test]
    fn crash_budget_widens_branch_points_and_bug_is_still_found() {
        let s = Scenario::by_name("fifo2").unwrap();
        let cfg = CheckConfig { max_crashes: 1, ..tiny_cfg() };
        // Every branch point now offers the legacy options plus one crash
        // per alive member.
        let plain = replay_choices(s, &[], &tiny_cfg());
        let wide = replay_choices(s, &[], &cfg);
        assert!(
            wide.branch_options.first().unwrap() > plain.branch_options.first().unwrap_or(&1),
            "crash options must widen the first branch point ({:?} vs {:?})",
            wide.branch_options,
            plain.branch_options
        );
        // The planted FIFO bug lives on a crash-free path, so it must
        // survive the widened space.
        let report = explore(s, &cfg);
        assert_eq!(report.violation.expect("still found").oracle, "fifo");
    }

    #[test]
    fn crash_choice_actually_crashes_a_member() {
        // Steering the run into the *last* option of the first branch point
        // (choices clamp) selects the crash of the highest-numbered alive
        // member — ep:2, fifo2's only remote receiver.
        let s = Scenario::by_name("fifo2").unwrap();
        let cfg = CheckConfig { max_crashes: 1, ..tiny_cfg() };
        let legacy = replay_choices(s, &[], &tiny_cfg());
        let rec = replay_choices(s, &[u16::MAX], &cfg);
        let first_opts = *rec.branch_options.first().expect("a branch point");
        assert_eq!(rec.taken[0], first_opts - 1, "choice clamps to the last option");
        assert!(
            first_opts > legacy.branch_options.first().copied().unwrap_or(1),
            "the last option lies in the appended crash range"
        );
        // With the receiver dead there is no delivery pair left to misorder,
        // so this path is clean even though the space holds a planted bug.
        assert!(rec.violation.is_none(), "got {:?}", rec.violation);
    }

    #[test]
    fn zero_suspect_budget_leaves_option_indices_untouched() {
        // Same contract as the crash budget: committed fixtures rely on
        // choice indices, so a zero suspect budget must enumerate exactly
        // the legacy options.
        let s = Scenario::by_name("fifo2").unwrap();
        let cfg = tiny_cfg();
        assert_eq!(cfg.max_suspects, 0);
        let a = replay_choices(s, &[1], &cfg);
        let b = replay_choices(s, &[1], &CheckConfig { max_suspects: 0, ..cfg.clone() });
        assert_eq!(a.taken, b.taken);
        assert_eq!(a.branch_options, b.branch_options);
    }

    #[test]
    fn suspect_budget_widens_branch_points_by_ordered_pairs() {
        // Three alive members → six ordered (observer, target) pairs
        // appended after the fire/drop/crash ranges at every branch point.
        let s = Scenario::by_name("wedge").unwrap();
        let cfg = CheckConfig { max_depth: 6, ..CheckConfig::default() };
        let plain = replay_choices(s, &[], &cfg);
        let wide = replay_choices(s, &[], &CheckConfig { max_suspects: 1, ..cfg.clone() });
        let p0 = *plain.branch_options.first().expect("a branch point");
        let w0 = *wide.branch_options.first().expect("a branch point");
        assert_eq!(w0, p0 + 6, "suspect block must add members*(members-1) options");
    }

    #[test]
    fn suspect_choice_spends_the_budget_and_stays_clean() {
        // Index p0+2 lands on Suspect{observer: ep:2, target: ep:1} — the
        // false suspicion that wedges the trio into {a} / {b, c}.  Virtual
        // synchrony holds within the components, and after a full horizon
        // every retry path has drained, so even the quiescence oracle is
        // silent: wedged *membership* is a liveness debate, wedged *work*
        // is what the oracle indicts.
        let s = Scenario::by_name("wedge").unwrap();
        let cfg = CheckConfig { max_depth: 6, ..CheckConfig::default() };
        let plain = replay_choices(s, &[], &cfg);
        let idx = plain.branch_options.first().copied().unwrap_or(1) + 2;
        let rec = replay_choices(
            s,
            &[idx],
            &CheckConfig { max_suspects: 1, wedge_oracle: true, max_depth: 6, ..cfg.clone() },
        );
        assert_eq!(rec.taken.first(), Some(&idx), "the suspect option must be selectable");
        assert!(rec.violation.is_none(), "got {:?}", rec.violation);
        // The budget is 1: later branch points are back to the legacy width
        // plus nothing — no second suspicion on this path.
        let follow =
            replay_choices(s, &[idx, u16::MAX], &CheckConfig { max_suspects: 1, ..cfg.clone() });
        assert!(follow.violation.is_none());
    }

    #[test]
    fn wedge_oracle_indicts_leftover_pending_work() {
        // A cast handed down but never scheduled leaves retransmission
        // state in the stack — exactly the "no continuation can drain
        // this" terminal the oracle exists for.
        let s = Scenario::by_name("wedge").unwrap();
        let mut w = s.build();
        let base = horus_core::prelude::SimTime::ZERO + s.settle;
        let quiet = wedge_violation(s, &w, &[]);
        // Settled world: every flush finished, nothing owed — silent.
        assert!(quiet.is_none(), "got {quiet:?}");
        // Inject a suspicion and stop the clock right after the exclusion
        // flush starts: the observer is parked in Phase::Flushing with the
        // round unfinished — owed view-change work the horizon never gave
        // time to drain.
        w.suspect_at(
            base + std::time::Duration::from_millis(1),
            EndpointAddr::new(2),
            EndpointAddr::new(1),
        );
        let mut cal = horus_sim::CalendarScheduler;
        w.run_scheduled(
            &mut cal,
            std::time::Duration::ZERO,
            base + std::time::Duration::from_micros(1050),
        );
        let v = wedge_violation(s, &w, &[7]).expect("pending work must be indicted");
        assert_eq!(v.oracle, "quiescence");
        assert!(v.message.contains("pending work"), "got {}", v.message);
        assert_eq!(v.choices, vec![7]);
    }

    #[test]
    fn snapshot_matches_live_world_step_for_step() {
        // A snapshot taken mid-run must be indistinguishable from the live
        // world: drive both to the deadline and compare fingerprints.
        let s = Scenario::by_name("flush3").unwrap();
        let mut live = s.build();
        live.run_for(Duration::from_millis(1));
        let mut snap = live.snapshot().expect("canonical stacks are cloneable");
        assert_eq!(live.fingerprint(), snap.fingerprint(), "at the fork");
        live.run_for(Duration::from_millis(30));
        snap.run_for(Duration::from_millis(30));
        assert_eq!(live.fingerprint(), snap.fingerprint(), "after the fork");
        assert_eq!(live.fingerprint(), live.fingerprint_fresh());
        assert_eq!(snap.fingerprint(), snap.fingerprint_fresh());
    }

    #[test]
    fn replay_is_deterministic() {
        let s = Scenario::by_name("fifo2").unwrap();
        let cfg = tiny_cfg();
        let report = explore(s, &cfg);
        let choices = report.violation.unwrap().choices;
        let a = replay_choices(s, &choices, &cfg);
        let b = replay_choices(s, &choices, &cfg);
        assert_eq!(a.taken, b.taken);
        assert_eq!(a.steps, b.steps);
        assert_eq!(
            a.violation.as_ref().map(|v| &v.message),
            b.violation.as_ref().map(|v| &v.message)
        );
    }
}
