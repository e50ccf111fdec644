//! # horus-net
//!
//! Network substrates for Horus stacks.
//!
//! The paper runs its lowest layer (COM) over ATM or the Internet; this
//! reproduction substitutes a **deterministic simulated datagram network**
//! ([`sim::SimNetwork`]) with configurable delay, loss, duplication,
//! reordering, garbling, an MTU, and partitions — everything the protocol
//! catalogue of Figure 1 exists to overcome — plus an **in-process threaded
//! loopback transport** ([`threaded::LoopbackNet`]) used by the real-time
//! benchmarks.  Both deliver opaque wire frames between endpoint addresses
//! and know which endpoints joined which transport-level group, exactly the
//! service the COM layer adapts to the HCPI.

#![forbid(unsafe_code)]

pub mod fault;
pub mod sched;
pub mod sim;
pub mod threaded;
mod topology;

pub use fault::FaultRule;
pub use sched::{ChanceKind, FixedScheduler, NetScheduler, RandomScheduler};
pub use sim::{Delivery, NetConfig, NetStats, SimNetwork};
pub use threaded::{FrameSink, LoopbackNet, LoopbackStats};
