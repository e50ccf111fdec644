//! # horus-check
//!
//! Bounded model checking for Horus protocol stacks.
//!
//! The paper's central claim is compositional: independently written layers
//! stack into protocols that still satisfy end-to-end properties (virtual
//! synchrony, ordering — §5, Tables 3–4).  The repository's evidence for
//! that claim used to be randomized soak testing over the deterministic
//! simulator.  This crate turns the same simulator into a *systematic*
//! search: every source of nondeterminism in a run is either network physics
//! (extracted behind `horus_net::NetScheduler`, pinned by
//! [`horus_net::FixedScheduler`]) or the schedule itself (extracted behind
//! `horus_sim::Scheduler`), so a run is exactly a list of choices — and the
//! explorer enumerates choice lists.
//!
//! The pieces:
//!
//! * [`scenario`] — small, bounded protocol situations (the Figure 2
//!   flush/merge story, concurrent casts under an unordered stack, a merge
//!   interrupted by a false suspicion) with the invariant oracles each must
//!   satisfy.
//! * [`explore`] — the depth-first schedule explorer: snapshot-resume
//!   search over choice prefixes, sleep-aware visited-state pruning on
//!   [`horus_sim::SimWorld::fingerprint`], and happens-before dynamic
//!   partial-order reduction via sleep sets — runs that merely reorder
//!   provably commuting deliveries are explored once, without losing a
//!   single reachable state.  One reference search sits beside it
//!   ([`CheckConfig::oracle`]: no reduction, from-scratch fingerprints,
//!   stateless replay); the differential suite holds the two visited sets
//!   equal.
//! * [`schedule`] — the serialized schedule format: scenario + bounds +
//!   choice list, replayable byte-identically with `horus-check replay`.
//! * [`shrink`] — delta-debugging (`ddmin`) of violating choice lists down
//!   to minimal counterexamples.
//! * [`bridge`] — the trace→schedule bridge: a causal trace captured by
//!   `horus-trace` collectors re-enacted into a replayable schedule, so an
//!   interleaving *observed* anywhere the simulator runs (a traced replay,
//!   a soak-minimized fault plan) becomes a committable fixture.
//!
//! A found violation is therefore not a flaky failure but a *file*: commit
//! it under `tests/fixtures/` and it replays forever.

#![forbid(unsafe_code)]

pub mod bridge;
pub mod explore;
pub mod scenario;
pub mod schedule;
pub mod shrink;

pub use bridge::{schedule_from_trace, trace_meta};
pub use explore::{
    explore, explore_collect, replay_choices, replay_choices_traced, CheckConfig, CheckReport,
    FoundViolation, FpSet, RunRecord,
};
pub use scenario::{Oracle, Scenario};
pub use schedule::Schedule;
pub use shrink::shrink;
