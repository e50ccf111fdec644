//! # horus-sim
//!
//! Deterministic discrete-event execution of Horus stacks, plus the
//! machinery that turns the paper's failure stories into repeatable
//! experiments:
//!
//! * [`world::SimWorld`] — the event calendar: endpoints with stacks,
//!   the simulated network of `horus-net`, virtual time, scripted crashes,
//!   suspicions, targeted faults, partitions, and merges.  One seed ⇒ one
//!   execution, always.  [`world::SimWorld::suspect_at`] is the scripted
//!   (possibly inaccurate) failure detector of §5: a suspicion delivered
//!   at an exact virtual instant.
//! * [`invariants`] — checkers for the virtual-synchrony guarantees of §5
//!   (view agreement, same-view delivery agreement, FIFO and total order),
//!   applied to the upcall logs a `SimWorld` records, and
//!   [`invariants::SafetyMonitor`], the same safety checks fed one upcall
//!   at a time.
//! * [`sched`] — the schedule-level choice point: a [`sched::Scheduler`]
//!   picks which ready event fires next, which is how `horus-check`
//!   systematically explores delivery/timer/failure orderings.
//! * [`soak`] — seeded chaos-soak campaigns: random fault plans, safety
//!   (monitored incrementally) plus liveness oracles every quiet window,
//!   ddmin fault-plan
//!   minimization, replayable `(seed, plan)` artifacts.
//! * [`workload`] — message workload generators for the benchmarks.
//! * [`shard`] — the real-time executor, over the in-process loopback
//!   transport: N run-to-completion workers, each owning a disjoint set of
//!   stacks (one worker, one stack is §10's "one scheduling thread per
//!   stack"), batched dispatch through one reusable
//!   [`horus_core::EffectSink`], frames delivered straight into the owning
//!   shard's queue.

#![forbid(unsafe_code)]

pub mod invariants;
pub mod sched;
pub mod shard;
pub mod soak;
pub mod workload;
pub mod world;

pub use invariants::{
    check_fifo, check_total_order, check_virtual_synchrony, DeliveryLog, SafetyMonitor,
};
pub use sched::{CalendarScheduler, RunOutcome, Scheduler, Step};
pub use shard::{ShardConfig, ShardExecutor};
pub use soak::{SoakAction, SoakConfig, SoakEvent, SoakOutcome, SoakPlan};
pub use workload::{Workload, WorkloadKind};
pub use world::{CreationClock, EventId, ReadyEvent, ReadyKind, SimWorld};
