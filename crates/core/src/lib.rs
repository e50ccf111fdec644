//! # horus-core
//!
//! The object model and protocol-stack runtime of the Horus protocol
//! composition framework, after *"A Framework for Protocol Composition in
//! Horus"* (van Renesse, Birman, Friedman, Hayden, Karr — PODC 1995).
//!
//! Horus treats a protocol as an abstract data type: a module with a
//! standardized top and bottom interface (the *Horus Common Protocol
//! Interface*, HCPI) that can be stacked on other such modules at run time,
//! "like LEGO blocks".  This crate provides:
//!
//! * the four Horus object classes of §3 — **endpoints** ([`addr`]),
//!   **groups**/**views** ([`view`]), **messages** with push/pop header
//!   stacks ([`message`]), and the event machinery that replaces explicit
//!   threads in the event-queue execution model ([`event`], [`stack`]);
//! * the HCPI itself — the downcalls of Table 1 ([`event::Down`]) and the
//!   upcalls of Table 2 ([`event::Up`]);
//! * the [`layer::Layer`] trait every protocol module implements, and
//!   [`stack::Stack`], the single-scheduler-per-stack runtime of §3/§10;
//! * both message-header layouts discussed in §10: the word-aligned
//!   per-layer push/pop format used by the 1995 production system, and the
//!   pre-computed bit-compacted single header the paper proposes as its
//!   replacement ([`message::HeaderMode`]).
//!
//! Protocol layers themselves live in the `horus-layers` crate; network
//! substrates in `horus-net`; the property algebra of Tables 3–4 in
//! `horus-props`; and the deterministic scenario harness in `horus-sim`.
//!
//! ## Example
//!
//! ```
//! use horus_core::prelude::*;
//!
//! // A stack of two pass-through layers; see `horus-layers` for real ones.
//! #[derive(Debug, Default, Clone)]
//! struct Nop;
//! impl Layer for Nop {
//!     fn name(&self) -> &'static str { "NOP" }
//! }
//!
//! let mut stack = StackBuilder::new(EndpointAddr::new(1))
//!     .push(Box::new(Nop))
//!     .push(Box::new(Nop))
//!     .build()?;
//! let msg = stack.new_message(&b"hello"[..]);
//! let effects = stack.handle(StackInput::FromApp(Down::Cast(msg)));
//! // With only pass-through layers the cast falls off the bottom of the
//! // stack and becomes a network multicast effect.
//! assert!(matches!(effects[0], Effect::NetCast { .. }));
//! # Ok::<(), horus_core::HorusError>(())
//! ```

#![forbid(unsafe_code)]

pub mod addr;
pub mod digest;
pub mod error;
pub mod event;
pub mod frame;
pub mod layer;
pub mod message;
pub mod stack;
pub mod time;
pub mod trace;
pub mod view;
pub mod wire;

pub use addr::{EndpointAddr, GroupAddr, Rank};
pub use digest::StateDigest;
pub use error::HorusError;
pub use event::{Down, Effect, MergeId, MsgId, StabilityMatrix, StackInput, Up};
pub use frame::WireFrame;
pub use layer::{Layer, LayerCtx, LayerObject};
pub use message::{FieldSpec, HeaderLayout, HeaderMode, Message};
pub use stack::{EffectSink, LayerTraffic, Stack, StackBuilder, StackConfig, StackStats};
pub use time::SimTime;
pub use trace::{
    DropReason, FilterSink, KindMask, NullSink, SamplingSink, TraceEvent, TraceKind, TraceSink,
};
pub use view::{View, ViewId};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m` whether or not an earlier holder panicked.  A panic is
/// reported on the thread that raised it; every lock in the workspace
/// guards data a later holder can carry on with (queues, logs, registries,
/// histograms), so poisoning would only repeat the panic at each later lock.
#[inline]
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Convenient glob-import surface for applications and layer authors.
pub mod prelude {
    pub use crate::addr::{EndpointAddr, GroupAddr, Rank};
    pub use crate::error::HorusError;
    pub use crate::event::{Down, Effect, MergeId, MsgId, StabilityMatrix, StackInput, Up};
    pub use crate::frame::WireFrame;
    pub use crate::layer::{Layer, LayerCtx, LayerObject};
    pub use crate::message::{FieldSpec, HeaderLayout, HeaderMode, Message};
    pub use crate::stack::{
        EffectSink, LayerTraffic, Stack, StackBuilder, StackConfig, StackStats,
    };
    pub use crate::time::SimTime;
    pub use crate::trace::{
        DropReason, FilterSink, KindMask, NullSink, SamplingSink, TraceEvent, TraceKind, TraceSink,
    };
    pub use crate::view::{View, ViewId};
}

#[cfg(test)]
mod tests {
    use super::lock;
    use std::sync::{Arc, Mutex};

    #[test]
    fn a_panicking_holder_does_not_poison_the_lock() {
        let m = Arc::new(Mutex::new(1));
        let held = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let mut guard = lock(&held);
            *guard += 1;
            panic!("panics while holding the lock");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 2);
    }
}
