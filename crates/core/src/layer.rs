//! The protocol-layer abstraction: protocols as abstract data types (§1).
//!
//! Every Horus protocol module implements [`Layer`].  A layer reacts to
//! downcalls arriving from above, upcalls arriving from below, and timer
//! expirations; it responds by emitting further events through its
//! [`LayerCtx`].  Default implementations pass events straight through, so a
//! minimal layer only overrides what it modifies — the paper's observation
//! that "the cost of a layer can be as low as just a few instructions".
//!
//! Layers own their state but perform no I/O and read no clocks: everything
//! reaches them as events, which is what makes stacks executable both under
//! the deterministic simulator and under the threaded runtime.

use crate::addr::EndpointAddr;
use crate::event::{Down, Effect, Up};
use crate::message::{FieldSpec, Message};
use crate::stack::StackCore;
use crate::time::SimTime;
use crate::trace::{DropReason, TraceKind};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::RngCore;
use std::any::Any;
use std::fmt;
use std::time::Duration;

/// The execution context handed to a layer for the duration of one event
/// dispatch.
///
/// All interaction with the rest of the stack goes through this object:
/// emitting events up or down, arming timers, creating control messages, and
/// reading/writing this layer's own header fields on a message.
///
/// Nothing is buffered here: [`down`](Self::down) and [`up`](Self::up) put
/// the event on the stack's work queue (or turn it into an executor effect
/// when it leaves the stack), and [`set_timer`](Self::set_timer) and
/// [`trace`](Self::trace) append their effect, at the moment of the call.
/// So everything a handler emits takes effect **in emission order**, and an
/// event bound for another layer runs **after the current handler returns**,
/// behind whatever was queued before it.
pub struct LayerCtx<'a> {
    /// The layer now running; the stack updates it for each dispatch.
    pub(crate) layer: usize,
    pub(crate) core: &'a mut StackCore,
    pub(crate) effects: &'a mut Vec<Effect>,
}

impl<'a> LayerCtx<'a> {
    /// Passes an event toward the network (to the layer below, or off the
    /// bottom of the stack).
    pub fn down(&mut self, ev: Down) {
        self.core.emit_down(self.layer, ev, self.effects);
    }

    /// Passes an event toward the application (to the layer above, or out of
    /// the top of the stack).
    pub fn up(&mut self, ev: Up) {
        self.core.emit_up(self.layer, ev, self.effects);
    }

    /// Arms a timer; [`Layer::on_timer`] fires with the same token after
    /// `delay`.  Timers are one-shot; periodic layers re-arm themselves.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.core.arm_timer(self.layer, token, delay, self.effects);
    }

    /// Emits a free-form [`TraceKind::Note`]
    /// record to the stack's trace sink — nothing when none is installed.
    pub fn trace(&mut self, text: impl Into<String>) {
        self.core.note(text.into());
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The address of the endpoint owning this stack.
    pub fn local_addr(&self) -> EndpointAddr {
        self.core.local
    }

    /// This layer's index in the stack (0 = top). Useful in dumps.
    pub fn layer_index(&self) -> usize {
        self.layer
    }

    /// Deterministic per-stack randomness (timer jitter, probe selection).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }

    /// A deterministic random `u64` (shorthand over [`LayerCtx::rng`]).
    pub fn random_u64(&mut self) -> u64 {
        self.core.rng.next_u64()
    }

    /// Creates a fresh message (for protocol control traffic) against this
    /// stack's header layout.
    pub fn new_message(&self, body: impl Into<Bytes>) -> Message {
        Message::new(self.core.layout.clone(), body)
    }

    /// Begins this layer's header on a message travelling down.
    pub fn stamp(&self, msg: &mut Message) {
        msg.push_header(self.layer);
    }

    /// Opens (pops) this layer's header on a message travelling up.
    ///
    /// # Errors
    ///
    /// Fails when the message's top header record belongs to another layer —
    /// i.e. the message was not stamped by this layer's peer.  The failure
    /// is counted in `decode_drops` and traced as a decode drop; the caller
    /// drops the message.
    pub fn open(&mut self, msg: &mut Message) -> Result<(), crate::error::HorusError> {
        let opened = msg.pop_header(self.layer);
        if opened.is_err() {
            self.core.stats.decode_drops += 1;
            self.core.trace(TraceKind::FrameDrop { digest: 0, seq: 0, reason: DropReason::Decode });
        }
        opened
    }

    /// Writes field `field` of this layer's header.
    pub fn set(&self, msg: &mut Message, field: usize, val: u64) {
        msg.set_field(self.layer, field, val);
    }

    /// Reads field `field` of this layer's header.
    pub fn get(&self, msg: &Message, field: usize) -> u64 {
        msg.field(self.layer, field)
    }

    /// Records that a packing layer coalesced `msgs` messages into one wire
    /// frame, saving `bytes_saved` bytes of per-frame envelope overhead.
    pub fn note_packed(&mut self, msgs: u64, bytes_saved: u64) {
        self.core.stats.frames_packed += 1;
        self.core.stats.msgs_packed += msgs;
        self.core.stats.bytes_saved_packing += bytes_saved;
    }

    /// Records `n` payload copies.  Layers that must materialize a new body
    /// (fragment reassembly, packing, transforms) report here so the
    /// zero-copy discipline of the hot path stays observable.
    pub fn note_payload_copy(&mut self, n: u64) {
        self.core.stats.payload_copies += n;
    }
}

/// A protocol layer: the abstract data type of the paper's §1.
///
/// A layer is a value: `Clone + Send + Sync + 'static`, with all mutation
/// flowing through `&mut self` dispatch (no interior mutability).  `Send +
/// Sync` lets stacks run on the shard workers; `Clone` is how a snapshot
/// materialises a layer, so it must copy **everything** that affects
/// future behaviour — `#[derive(Clone)]` does.  The framework
/// takes cloning, downcasting ([`crate::stack::Stack::focus_as`]) and the
/// `String` form of the state report from the type ([`LayerObject`]); a
/// layer writes none of them.
///
/// The default method bodies make a new layer a pure pass-through; override
/// only the events the protocol participates in.
///
/// A handler runs to completion before any event it passed on is handled:
/// `ctx.down(ev)` and `ctx.up(ev)` queue `ev` for the neighbouring layer, in
/// the order of the calls, and return at once.
///
/// ```
/// use horus_core::prelude::*;
/// use std::fmt;
///
/// /// Counts messages travelling down the stack.
/// #[derive(Debug, Default, Clone)]
/// struct Counter { down: u64 }
///
/// impl Layer for Counter {
///     fn name(&self) -> &'static str { "COUNTER" }
///     fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
///         if matches!(ev, Down::Cast(_)) { self.down += 1; }
///         ctx.down(ev);
///     }
///     fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
///         write!(w, "down={}", self.down)
///     }
/// }
///
/// assert_eq!(Counter { down: 2 }.dump(), "down=2");
/// ```
pub trait Layer: LayerObject {
    /// The layer's name, e.g. `"NAK"`. Used in stack descriptions, dumps,
    /// and the stack fingerprint.
    fn name(&self) -> &'static str;

    /// The fixed-size header fields this layer stamps on messages, used to
    /// pre-compute the stack's header layout (§10 problem 3).
    fn header_fields(&self) -> &'static [FieldSpec] {
        &[]
    }

    /// Called once when the stack starts, before any other event.  Layers
    /// arm their periodic timers here.
    fn on_init(&mut self, _ctx: &mut LayerCtx<'_>) {}

    /// A downcall arrived from the layer above (or the application).
    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        ctx.down(ev);
    }

    /// An upcall arrived from the layer below (or the network).
    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        ctx.up(ev);
    }

    /// A timer armed by this layer expired.
    fn on_timer(&mut self, _token: u64, _ctx: &mut LayerCtx<'_>) {}

    /// A *passive* layer passes every event through unmodified and sets no
    /// timers; the stack runtime may then skip it entirely (§10 problem 1's
    /// "skipping layers that take no action on the way down or up").
    fn is_passive(&self) -> bool {
        false
    }

    /// One-line state report for the `dump`/`focus` debugging interface,
    /// written into `w`.  The state digest streams this at every
    /// fingerprint; [`LayerObject::dump`] collects it into a `String`.  A
    /// layer without state writes nothing.
    fn dump_to(&self, _w: &mut dyn fmt::Write) -> fmt::Result {
        Ok(())
    }

    /// Feeds this layer's delivery-relevant state into a model-checking
    /// state digest (visited-state pruning in `horus-check`).
    ///
    /// The default digests the [`Layer::dump_to`] report — the bytes of the
    /// dump and a `0xff` terminator, without building the string — which
    /// every stateful layer in this repository already keeps current.
    /// Override when the dump omits state that changes future behaviour —
    /// an under-discriminating digest makes the explorer merge states it
    /// should distinguish and skip schedules it should search.
    fn digest_state(&self, d: &mut crate::digest::StateDigest) {
        self.dump_to(d).expect("a state digest accepts every write");
        d.write_bytes(&[0xff]);
    }

    /// How many units of *pending work* this layer is still holding: state
    /// that obliges it to act again before the protocol can be considered
    /// quiescent — unacknowledged retransmit-queue entries, buffered
    /// out-of-order gaps, an unflushed view change, a parked total-order
    /// token.  `0` means "nothing owed".
    ///
    /// Liveness monitors (`horus-sim`'s progress watchdog, `horus-check`'s
    /// quiescence oracle) sample this after faults heal: pending work that
    /// never drains is a wedge.  The unit is deliberately coarse — monitors
    /// only compare against zero and watch the trend — so layers just count
    /// queue entries.  Passive layers owe nothing by construction.
    fn pending_work(&self) -> u64 {
        0
    }
}

/// What the framework derives from a layer being a `Clone + 'static` value;
/// implemented for every such [`Layer`] and by hand for none.
///
/// `Any` is a supertrait so that `&dyn Layer` upcasts to `&dyn Any` for
/// [`crate::stack::Stack::focus_as`].
pub trait LayerObject: Any + Send + Sync {
    /// Duplicates the layer's full state — how a copy-on-write snapshot
    /// ([`crate::stack::Stack::clone_cow`]) materialises a shared layer at
    /// the first dispatch into it.
    fn clone_layer(&self) -> Box<dyn Layer>;

    /// [`Layer::dump_to`] collected into a `String`.
    fn dump(&self) -> String;
}

impl<T: Layer + Clone + 'static> LayerObject for T {
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn dump(&self) -> String {
        let mut s = String::new();
        self.dump_to(&mut s).expect("writing to a String cannot fail");
        s
    }
}
