//! The stack runtime: run-time protocol composition plus the event-queue
//! execution model (§3, §10).
//!
//! A [`Stack`] is an ordered sequence of [`Layer`]s (index 0 on top) driven
//! by a single scheduler — the paper's non-threaded model, where "each layer
//! is implemented with a single scheduling thread per endpoint".  The stack
//! is a pure state machine: [`Stack::handle`] consumes one [`StackInput`]
//! and returns the [`Effect`]s the surrounding executor must perform
//! (deliver upcalls, transmit wire messages, arm timers).  Determinism
//! follows, and with it replayable failure scenarios.
//!
//! Two §10 optimizations are implemented and benchmarkable:
//!
//! * **layer skipping** ([`StackConfig::skip_passive`]): events bypass
//!   layers that declare themselves passive, avoiding the indirect call per
//!   boundary crossing (§10 problem 1);
//! * **header compaction** ([`StackConfig::mode`]): the pre-computed
//!   bit-compacted single header replaces per-layer aligned push/pop (§10
//!   problem 3).

use crate::addr::{EndpointAddr, GroupAddr};
use crate::digest::StateDigest;
use crate::error::HorusError;
use crate::event::{Down, Effect, StackInput, Up};
use crate::frame::{frame_checksum, WireFrame, ENVELOPE_BYTES};
use crate::layer::{Layer, LayerCtx};
use crate::message::{HeaderLayout, HeaderMode, Message};
use crate::time::SimTime;
use crate::trace::{DropReason, TraceEvent, TraceKind, TraceSink};
use crate::view::View;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a stack's runtime behaviour.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Header layout (§10 problem 3 ablation). Default: [`HeaderMode::Compact`].
    pub mode: HeaderMode,
    /// Skip dispatching events through passive layers (§10 problem 1
    /// optimization). Default: `true`.
    pub skip_passive: bool,
    /// Seed for the stack's deterministic RNG. Defaults to the endpoint
    /// address so distinct endpoints jitter differently but reproducibly.
    pub seed: Option<u64>,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig { mode: HeaderMode::Compact, skip_passive: true, seed: None }
    }
}

/// Counters accumulated by a stack; the raw material for the paper's
/// overhead discussion (§10).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Wire messages transmitted (casts + sends).
    pub msgs_sent: u64,
    /// Wire messages received and decoded.
    pub msgs_received: u64,
    /// Total bytes handed to the transport.
    pub bytes_sent: u64,
    /// Total bytes received from the transport.
    pub bytes_received: u64,
    /// Header bytes (excluding frame and body) transmitted.
    pub header_bytes_sent: u64,
    /// Individual layer dispatches performed.
    pub dispatches: u64,
    /// Dispatches avoided by the passive-layer skip optimization.
    pub skipped: u64,
    /// Incoming wire messages dropped for a stack-fingerprint mismatch.
    pub fingerprint_drops: u64,
    /// Incoming wire messages dropped as undecodable.
    pub decode_drops: u64,
    /// Wire frames that carried more than one coalesced message (PACK).
    pub frames_packed: u64,
    /// Messages that travelled inside a packed carrier frame.
    pub msgs_packed: u64,
    /// Envelope bytes saved by packing versus one frame per message.
    pub bytes_saved_packing: u64,
    /// Payload (body) copies performed between the application boundary and
    /// the transport.  Zero on the plain cast/send hot path: the scatter-
    /// gather framing ships the application's `Bytes` by reference.
    pub payload_copies: u64,
    /// Inputs processed through [`Stack::handle_batch`].
    pub batched_inputs: u64,
    /// Calls to [`Stack::handle_batch`] (so `batched_inputs / batches` is the
    /// achieved batch size).
    pub batches: u64,
    /// Times the stack's one dispatch buffer — the scratch queue layers emit
    /// into — had to grow during an input's processing.  Zero in steady
    /// state: the queue warms up and every further event dispatches
    /// allocation-free.
    pub dispatch_buf_grows: u64,
    /// Per-layer crossing counters, indexed top-first like the stack's
    /// layers (sized at build; empty only for a default value that was
    /// never attached to a stack).  Together with the trace timestamps
    /// these are the per-layer occupancy/latency decomposition of §10.
    pub per_layer: Vec<LayerTraffic>,
    /// High-water mark of the intra-stack scratch queue (events queued
    /// between layers during one input's processing) — the stack's
    /// occupancy measure.  Merged by maximum, not sum.
    pub scratch_peak: u64,
}

/// Per-layer dispatch counters: how many items of each direction a layer
/// handled.  The trace's layer-crossing events carry the same information
/// with timestamps; these are the always-on aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTraffic {
    /// Downward items dispatched into the layer.
    pub downs: u64,
    /// Upward items dispatched into the layer.
    pub ups: u64,
    /// Timer items dispatched into the layer.
    pub timers: u64,
}

impl StackStats {
    /// Adds `other`'s counters into `self` — per-shard and per-worker
    /// aggregation for the sharded executor.
    pub fn merge(&mut self, other: &StackStats) {
        let StackStats {
            msgs_sent,
            msgs_received,
            bytes_sent,
            bytes_received,
            header_bytes_sent,
            dispatches,
            skipped,
            fingerprint_drops,
            decode_drops,
            frames_packed,
            msgs_packed,
            bytes_saved_packing,
            payload_copies,
            batched_inputs,
            batches,
            dispatch_buf_grows,
            per_layer,
            scratch_peak,
        } = other;
        self.msgs_sent += msgs_sent;
        self.msgs_received += msgs_received;
        self.bytes_sent += bytes_sent;
        self.bytes_received += bytes_received;
        self.header_bytes_sent += header_bytes_sent;
        self.dispatches += dispatches;
        self.skipped += skipped;
        self.fingerprint_drops += fingerprint_drops;
        self.decode_drops += decode_drops;
        self.frames_packed += frames_packed;
        self.msgs_packed += msgs_packed;
        self.bytes_saved_packing += bytes_saved_packing;
        self.payload_copies += payload_copies;
        self.batched_inputs += batched_inputs;
        self.batches += batches;
        self.dispatch_buf_grows += dispatch_buf_grows;
        if self.per_layer.len() < per_layer.len() {
            self.per_layer.resize(per_layer.len(), LayerTraffic::default());
        }
        for (mine, theirs) in self.per_layer.iter_mut().zip(per_layer) {
            mine.downs += theirs.downs;
            mine.ups += theirs.ups;
            mine.timers += theirs.timers;
        }
        self.scratch_peak = self.scratch_peak.max(*scratch_peak);
    }
}

/// A reusable effect emission buffer: the zero-allocation counterpart of the
/// `Vec<Effect>` that [`Stack::handle`] returns.
///
/// Executors on the hot path keep one `EffectSink` per worker, pass it to
/// [`Stack::handle_into`] / [`Stack::handle_batch`], drain it, and pass it
/// again: once warm, no allocation happens per dispatched event — the
/// per-call `Vec` return of `handle` was the last steady-state allocation on
/// the cast path.
#[derive(Debug, Default)]
pub struct EffectSink {
    effects: Vec<Effect>,
}

impl EffectSink {
    /// An empty sink.
    pub fn new() -> Self {
        EffectSink::default()
    }

    /// An empty sink with room for `cap` effects before any growth.
    pub fn with_capacity(cap: usize) -> Self {
        EffectSink { effects: Vec::with_capacity(cap) }
    }

    /// Number of effects currently buffered.
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// Whether the sink holds no effects.
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }

    /// The buffered effects, oldest first.
    pub fn as_slice(&self) -> &[Effect] {
        &self.effects
    }

    /// Removes and yields the buffered effects, keeping the allocation.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Effect> {
        self.effects.drain(..)
    }

    /// Drops the buffered effects, keeping the allocation.
    pub fn clear(&mut self) {
        self.effects.clear();
    }

    /// Consumes the sink, returning the buffered effects.
    pub fn into_effects(self) -> Vec<Effect> {
        self.effects
    }

    pub(crate) fn buf(&mut self) -> &mut Vec<Effect> {
        &mut self.effects
    }
}

impl Extend<Effect> for EffectSink {
    fn extend<I: IntoIterator<Item = Effect>>(&mut self, iter: I) {
        self.effects.extend(iter);
    }
}

impl From<EffectSink> for Vec<Effect> {
    fn from(sink: EffectSink) -> Vec<Effect> {
        sink.effects
    }
}

/// Builds a [`Stack`] from layers given top-first — the run-time `endpoint`
/// downcall of Table 1.
///
/// ```
/// use horus_core::prelude::*;
/// #[derive(Debug, Default, Clone)]
/// struct Nop;
/// impl Layer for Nop { fn name(&self) -> &'static str { "NOP" } }
///
/// let stack = StackBuilder::new(EndpointAddr::new(7))
///     .push(Box::new(Nop))
///     .build()?;
/// assert_eq!(stack.layer_names(), vec!["NOP"]);
/// # Ok::<(), HorusError>(())
/// ```
pub struct StackBuilder {
    local: EndpointAddr,
    layers: Vec<Box<dyn Layer>>,
    config: StackConfig,
}

impl StackBuilder {
    /// Starts a builder for an endpoint with the given address.
    pub fn new(local: EndpointAddr) -> Self {
        StackBuilder { local, layers: Vec::new(), config: StackConfig::default() }
    }

    /// Appends the next layer (top first: the first `push` is the layer the
    /// application talks to).
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends many layers, top first.
    pub fn extend(mut self, layers: impl IntoIterator<Item = Box<dyn Layer>>) -> Self {
        self.layers.extend(layers);
        self
    }

    /// Overrides the runtime configuration.
    pub fn config(mut self, config: StackConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the header layout.
    pub fn mode(mut self, mode: HeaderMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Enables or disables the passive-layer skip optimization.
    pub fn skip_passive(mut self, on: bool) -> Self {
        self.config.skip_passive = on;
        self
    }

    /// Finishes composition, pre-computing the header layout and skip
    /// tables.
    ///
    /// # Errors
    ///
    /// Fails on an empty stack, on more than 250 layers, or on invalid
    /// header field declarations.
    pub fn build(self) -> Result<Stack, HorusError> {
        if self.layers.is_empty() {
            return Err(HorusError::BadStack("a stack needs at least one layer".into()));
        }
        if self.layers.len() > 250 {
            return Err(HorusError::BadStack(format!(
                "{} layers exceed the maximum stack depth of 250",
                self.layers.len()
            )));
        }
        let specs: Vec<(&'static str, &[crate::message::FieldSpec])> =
            self.layers.iter().map(|l| (l.name(), l.header_fields())).collect();
        let layout = Arc::new(HeaderLayout::build(&specs, self.config.mode)?);
        let fingerprint = fingerprint(&specs, self.config.mode);
        let seed = self.config.seed.unwrap_or(self.local.raw());
        let n = self.layers.len();
        let passive: Vec<bool> = self.layers.iter().map(|l| l.is_passive()).collect();
        Ok(Stack {
            layers: self.layers.into_iter().map(LayerCell::new).collect(),
            layer_digests: (0..n).map(|_| AtomicU64::new(STALE)).collect(),
            core: StackCore {
                local: self.local,
                layout,
                fingerprint,
                routes: Arc::new(Routes::build(&passive, self.config.skip_passive)),
                now: SimTime::ZERO,
                rng: StdRng::seed_from_u64(seed),
                group: None,
                view: None,
                stats: StackStats {
                    per_layer: vec![LayerTraffic::default(); n],
                    ..StackStats::default()
                },
                destroyed: false,
                scratch: VecDeque::with_capacity(n * 2),
                view_digest: AtomicU64::new(STALE),
                tracer: None,
                traced: false,
            },
        })
    }
}

/// A 16-bit fingerprint of a stack composition (layer names, field specs,
/// header mode).  Carried on every wire message so endpoints with mismatched
/// stacks discard each other's traffic instead of misparsing it.
fn fingerprint(specs: &[(&'static str, &[crate::message::FieldSpec])], mode: HeaderMode) -> u16 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    eat(match mode {
        HeaderMode::Aligned => 0,
        HeaderMode::Compact => 1,
    });
    for (name, fields) in specs {
        for b in name.bytes() {
            eat(b);
        }
        eat(0xff);
        for f in *fields {
            for b in f.name.bytes() {
                eat(b);
            }
            eat(f.bits as u8);
        }
    }
    (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16
}

/// One unit of queued work: an event bound for a layer.
enum Item {
    Down(Down),
    Up(Up),
    Timer(u64),
}

/// Where an event leaving a layer in one direction goes: the next layer
/// that is not skipped (`None`: out of the stack), and how many passive
/// layers the skip optimization bypasses on the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hop {
    to: Option<usize>,
    skipped: u64,
}

/// Where the events one layer emits go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Route {
    down: Hop,
    up: Hop,
}

/// The routes of one stack composition, computed once in
/// [`StackBuilder::build`]: [`Layer::is_passive`] is a constant of the
/// layer's type, so nothing is left to scan for when a layer emits.
#[derive(Debug, PartialEq, Eq)]
struct Routes {
    /// Per layer, top first.
    layers: Vec<Route>,
    /// Where a downcall from the application enters.
    from_app: Option<usize>,
    /// Where a frame from the network enters.
    from_net: Option<usize>,
}

impl Routes {
    fn build(passive: &[bool], skip_passive: bool) -> Routes {
        let n = passive.len();
        let active = |i: usize| !(skip_passive && passive[i]);
        let nobody = Hop { to: None, skipped: 0 };
        let mut layers = vec![Route { down: nobody, up: nobody }; n];
        let mut below = None;
        for i in (0..n).rev() {
            layers[i].down = Hop { to: below, skipped: (below.unwrap_or(n) - (i + 1)) as u64 };
            if active(i) {
                below = Some(i);
            }
        }
        let mut above = None;
        for (i, route) in layers.iter_mut().enumerate() {
            route.up = Hop { to: above, skipped: (i - above.map_or(0, |j| j + 1)) as u64 };
            if active(i) {
                above = Some(i);
            }
        }
        Routes { layers, from_app: below, from_net: above }
    }
}

/// Process-global count of layer states duplicated — copy-on-write
/// materializations, i.e. the first mutation of a shared layer after
/// [`Stack::clone_cow`].  The model checker's benchmarks read this as the
/// "bytes cloned" proxy.
static LAYER_CLONES: AtomicU64 = AtomicU64::new(0);

/// Total layer-state duplications since process start (or the last
/// [`reset_layer_clones`]).
pub fn layer_clones() -> u64 {
    LAYER_CLONES.load(Ordering::Relaxed)
}

/// Resets the [`layer_clones`] counter to zero.  Benchmark harnesses call
/// this between arms; the counter is process-global, so concurrent stacks in
/// the same process all contribute.
pub fn reset_layer_clones() {
    LAYER_CLONES.store(0, Ordering::Relaxed);
}

/// One layer's state behind a copy-on-write cell.
///
/// A freshly built stack owns each layer exclusively (`Arc` strong count 1)
/// and mutates it in place.  [`Stack::clone_cow`] shares the `Arc`s instead
/// of cloning layer state; the first dispatch into a shared layer — on
/// either side — materializes a private copy (the layer's `Clone`).
/// Layers a parked exploration sibling never touches are therefore never
/// cloned, which is what makes world snapshots O(touched) instead of
/// O(world).
struct LayerCell(Arc<Box<dyn Layer>>);

impl LayerCell {
    fn new(layer: Box<dyn Layer>) -> Self {
        LayerCell(Arc::new(layer))
    }

    /// Read access; never clones.
    fn get(&self) -> &dyn Layer {
        &**self.0
    }

    /// Write access; materializes a private copy first if the cell is
    /// shared with a snapshot.
    ///
    /// Sharing is read off the strong count alone: no `Weak` to a layer cell
    /// is ever created (`share` is the only way to a second handle), so
    /// `strong_count == 1` under `&mut self` means unique, and the one
    /// `Arc::get_mut` left — a locked compare-exchange on the weak count —
    /// cannot fail.
    fn make_mut(&mut self) -> &mut dyn Layer {
        if Arc::strong_count(&self.0) != 1 {
            LAYER_CLONES.fetch_add(1, Ordering::Relaxed);
            self.0 = Arc::new(self.get().clone_layer());
        }
        &mut **Arc::get_mut(&mut self.0).expect("uniquely owned after materialization")
    }

    /// Shares the cell (no state copied).
    fn share(&self) -> LayerCell {
        LayerCell(Arc::clone(&self.0))
    }
}

/// The digest-cache value meaning "not cached".  A layer whose digest really
/// is zero is simply re-digested every time.
const STALE: u64 = 0;

/// Serves a digest from `cache`, filling it from `fresh` when stale.
fn cached(cache: &AtomicU64, fresh: impl FnOnce() -> u64) -> u64 {
    let mut v = cache.load(Ordering::Relaxed);
    if v == STALE {
        v = fresh();
        cache.store(v, Ordering::Relaxed);
    }
    v
}

/// A composed protocol stack for one endpoint: the Horus "endpoint object"
/// together with its layers and the per-stack event scheduler.
///
/// Two halves, so that one layer can run while it emits into the other
/// without a buffer in between: the layer cells with their digest caches,
/// and `StackCore` — everything a running layer reaches through its
/// [`LayerCtx`].
pub struct Stack {
    /// Per-layer copy-on-write cells; see [`LayerCell`].
    layers: Vec<LayerCell>,
    /// Cached per-layer state digests, parallel to `layers`; [`STALE`] is
    /// the dirty mark.  The caching invariant: **every dispatch into a layer
    /// marks it stale** (in [`run_queue`] and [`Stack::init`]) before the
    /// layer runs, so a cached entry can only describe a layer no event has
    /// touched since the digest was taken.  Marking is conservative — a
    /// dispatch that mutates nothing still invalidates — which is what makes
    /// the scheme sound without trusting each of the 37 layer
    /// implementations to track its own mutations.
    ///
    /// Atomics, not `Cell`s, so that a stack is `Sync` like the layers it
    /// holds, and a `SimWorld`, whose snapshots share stacks, stays `Send`.
    /// No caller moves a world between threads today; a relaxed load or
    /// store of one word is the same plain move a `Cell` compiles to.
    /// `Relaxed` suffices: an entry is one self-contained word that
    /// publishes no other data, and racing fills store the same value (the
    /// stack cannot change while it is shared).
    layer_digests: Vec<AtomicU64>,
    core: StackCore,
}

/// The half of a [`Stack`] that is not its layers: the work queue, the
/// routes between layers, and the endpoint state events leaving the stack
/// update.  A [`LayerCtx`] borrows it for as long as one input is processed.
pub(crate) struct StackCore {
    pub(crate) local: EndpointAddr,
    pub(crate) layout: Arc<HeaderLayout>,
    fingerprint: u16,
    routes: Arc<Routes>,
    pub(crate) now: SimTime,
    pub(crate) rng: StdRng,
    group: Option<GroupAddr>,
    view: Option<View>,
    pub(crate) stats: StackStats,
    destroyed: bool,
    /// The work queue: events bound for a layer, first in first out.
    scratch: VecDeque<(usize, Item)>,
    /// Cached digest of the current view string (the one `format!` in the
    /// stack's digest path), marked stale only when a view installs.
    view_digest: AtomicU64,
    /// Structured-event hook ([`crate::trace`]).  `None` — the default —
    /// costs one branch per event site; executors mirror the installed sink
    /// for the events only they can see (frame arrival, timer firing).
    tracer: Option<Arc<dyn TraceSink>>,
    /// Cached [`TraceSink::interested`] answer — the one flag every event
    /// site branches on, so a sink that will never record (a [`NullSink`])
    /// skips event construction exactly like no sink at all.
    ///
    /// [`NullSink`]: crate::trace::NullSink
    traced: bool,
}

impl Stack {
    /// The owning endpoint's address.
    pub fn local_addr(&self) -> EndpointAddr {
        self.core.local
    }

    /// The group joined through this stack, if any.
    pub fn group(&self) -> Option<GroupAddr> {
        self.core.group
    }

    /// The most recent view delivered to the application, if any.
    pub fn view(&self) -> Option<&View> {
        self.core.view.as_ref()
    }

    /// The stack's pre-computed header layout.
    pub fn layout(&self) -> &Arc<HeaderLayout> {
        &self.core.layout
    }

    /// The stack composition fingerprint carried on wire messages.
    pub fn fingerprint(&self) -> u16 {
        self.core.fingerprint
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &StackStats {
        &self.core.stats
    }

    /// Whether `destroy` has completed; a destroyed stack ignores inputs.
    pub fn is_destroyed(&self) -> bool {
        self.core.destroyed
    }

    /// Installs a trace sink; every subsequent dispatch reports its layer
    /// crossings, frame traffic, timer arms, and deliveries through it.
    /// The sink's [`TraceSink::interested`] answer is cached here: an
    /// uninterested sink leaves dispatch on the untraced path.
    pub fn set_tracer(&mut self, tracer: Arc<dyn TraceSink>) {
        self.core.traced = tracer.interested();
        self.core.tracer = Some(tracer);
    }

    /// Removes the trace sink, returning dispatch to the untraced path.
    pub fn clear_tracer(&mut self) {
        self.core.tracer = None;
        self.core.traced = false;
    }

    /// The installed trace sink, if it wants events.  Executors clone this
    /// to report the events only they observe (frame arrival, timer
    /// firing) into the same collector; an uninterested sink reads as
    /// `None` so executors skip their event sites too.
    pub fn tracer(&self) -> Option<&Arc<dyn TraceSink>> {
        if self.core.traced {
            self.core.tracer.as_ref()
        } else {
            None
        }
    }

    /// Duplicates the stack's full runtime state copy-on-write: every
    /// layer's state is shared with the original instead of duplicated,
    /// deferring each layer's clone to the first dispatch into it — on
    /// either stack.
    ///
    /// The clone is *behaviourally exact*: layers, RNG stream position,
    /// view, stats, and the digest caches all come along, so a cloned stack
    /// fed the same events produces the same effects — which is what lets
    /// the model checker resume exploration from snapshotted worlds instead
    /// of re-executing prefixes.
    pub fn clone_cow(&self) -> Stack {
        let copy = |a: &AtomicU64| AtomicU64::new(a.load(Ordering::Relaxed));
        let core = &self.core;
        Stack {
            layers: self.layers.iter().map(LayerCell::share).collect(),
            layer_digests: self.layer_digests.iter().map(copy).collect(),
            core: StackCore {
                local: core.local,
                layout: Arc::clone(&core.layout),
                fingerprint: core.fingerprint,
                routes: Arc::clone(&core.routes),
                now: core.now,
                rng: core.rng.clone(),
                group: core.group,
                view: core.view.clone(),
                stats: core.stats.clone(),
                destroyed: core.destroyed,
                // The work queue is drained to empty before any public
                // entry point returns, so the clone starts with a fresh one.
                scratch: VecDeque::new(),
                view_digest: copy(&core.view_digest),
                tracer: core.tracer.clone(),
                traced: core.traced,
            },
        }
    }

    /// Layer names, top first.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.get().name()).collect()
    }

    /// Creates an application message against this stack's layout.
    pub fn new_message(&self, body: impl Into<Bytes>) -> Message {
        Message::new(self.core.layout.clone(), body)
    }

    /// Sets the stack's notion of "now".  Executors call this before
    /// [`Stack::handle`] whenever virtual or real time has advanced.
    /// Monotone: an older timestamp is ignored.
    pub fn set_now(&mut self, now: SimTime) {
        self.core.now = self.core.now.max(now);
    }

    /// Current virtual time as last told by the executor.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The `focus` downcall of Table 1: a state report from the named layer.
    pub fn focus(&self, name: &str) -> Option<String> {
        self.layers.iter().find(|l| l.get().name() == name).map(|l| l.get().dump())
    }

    /// Typed `focus`: borrow a layer's concrete type.
    pub fn focus_as<T: 'static>(&self, name: &str) -> Option<&T> {
        let layer = self.layers.iter().find(|l| l.get().name() == name)?.get();
        (layer as &dyn Any).downcast_ref::<T>()
    }

    /// The `dump` downcall: every layer's state report, top first.
    pub fn dump(&self) -> Vec<(&'static str, String)> {
        self.layers.iter().map(|l| (l.get().name(), l.get().dump())).collect()
    }

    /// Total [`Layer::pending_work`] across the stack: how much state still
    /// obliges some layer to act.  `0` means the stack is fully drained —
    /// the condition liveness monitors demand once the network is quiet.
    pub fn pending_work(&self) -> u64 {
        self.layers.iter().map(|l| l.get().pending_work()).sum()
    }

    /// Feeds this stack's protocol state into a model-checking digest: the
    /// endpoint identity, lifecycle flags, current view, and one 64-bit
    /// digest per layer (the layer's name plus its [`Layer::digest_state`]
    /// contribution), top first.  This is the **from-scratch** path; it must
    /// stay bit-identical to [`Stack::state_digest_cached`], which the
    /// differential test in `tests/check_fingerprint.rs` enforces.
    ///
    /// Two caveats the checker documents: the per-stack jitter RNG is not
    /// part of the digest (two merged states may diverge in future jitter
    /// draws), and layers that rely on the default `dump`-based digest are
    /// only as discriminating as their dump string.
    pub fn state_digest_into(&self, d: &mut crate::digest::StateDigest) {
        self.digest_meta(d, self.view_digest_fresh());
        for i in 0..self.layers.len() {
            d.write_u64(self.layer_digest_fresh(i));
        }
    }

    /// The 64-bit state digest ([`Stack::state_digest_into`] finished).
    pub fn state_digest(&self) -> u64 {
        let mut d = crate::digest::StateDigest::new();
        self.state_digest_into(&mut d);
        d.finish()
    }

    /// The incremental counterpart of [`Stack::state_digest`]: per-layer
    /// digests are served from the cache and only layers dispatched into
    /// since the last call are re-digested.  Bit-identical to the
    /// from-scratch path by construction — both combine the same per-layer
    /// digests in the same order — provided the stale-marking invariant
    /// holds (see the `layer_digests` field).
    pub fn state_digest_cached(&self) -> u64 {
        let mut d = crate::digest::StateDigest::new();
        self.digest_meta(&mut d, cached(&self.core.view_digest, || self.view_digest_fresh()));
        for (i, cache) in self.layer_digests.iter().enumerate() {
            d.write_u64(cached(cache, || self.layer_digest_fresh(i)));
        }
        d.finish()
    }

    /// The scalar stack fields every digest starts with.  `group` and
    /// `destroyed` are plain integers, so they are digested fresh each time;
    /// only the view (a `format!`) is worth caching.
    fn digest_meta(&self, d: &mut crate::digest::StateDigest, view_digest: u64) {
        d.write_u64(self.core.local.raw());
        d.write_u64(self.core.fingerprint as u64);
        d.write_u64(self.core.destroyed as u64);
        d.write_u64(self.core.group.map(|g| g.raw()).unwrap_or(0));
        d.write_u64(view_digest);
    }

    fn view_digest_fresh(&self) -> u64 {
        let mut vd = crate::digest::StateDigest::new();
        match &self.core.view {
            Some(v) => vd.write_str(&v.to_string()),
            None => vd.write_str("-"),
        }
        vd.finish()
    }

    fn layer_digest_fresh(&self, i: usize) -> u64 {
        let mut ld = crate::digest::StateDigest::new();
        ld.write_str(self.layers[i].get().name());
        self.layers[i].get().digest_state(&mut ld);
        ld.finish()
    }

    /// Runs every layer's [`Layer::on_init`].  Executors must call this
    /// exactly once, before any input, and perform the returned effects
    /// (layers arm their periodic timers here).
    pub fn init(&mut self) -> Vec<Effect> {
        let mut effects = Vec::new();
        let Stack { layers, layer_digests, core } = self;
        let mut ctx = LayerCtx { layer: 0, core, effects: &mut effects };
        for i in 0..layers.len() {
            *layer_digests[i].get_mut() = STALE;
            ctx.layer = i;
            layers[i].make_mut().on_init(&mut ctx);
            run_queue(layers, layer_digests, &mut ctx);
        }
        effects
    }

    /// Feeds one input through the stack, returning the effects to perform.
    ///
    /// Thin shim over [`Stack::handle_into`] that allocates a fresh effect
    /// vector per call.  Convenient for tests and cold paths; executors on
    /// the hot path should keep a reusable [`EffectSink`] instead.
    pub fn handle(&mut self, input: StackInput) -> Vec<Effect> {
        let mut sink = EffectSink::new();
        self.handle_into(input, &mut sink);
        sink.into_effects()
    }

    /// Drains a burst of inputs through the stack in one pass, appending all
    /// effects to `sink` in order.
    ///
    /// Exactly equivalent to calling [`Stack::handle_into`] once per input in
    /// sequence — each input still runs to completion before the next starts,
    /// so batching is observationally invisible (the batch differential test
    /// holds this to byte-identical effects).  What the batch buys is
    /// amortization: one warm effect sink, a warm work queue, and one
    /// executor round-trip for the whole burst instead of a `Vec<Effect>`
    /// allocation and effect walk per event.
    pub fn handle_batch(
        &mut self,
        inputs: impl IntoIterator<Item = StackInput>,
        sink: &mut EffectSink,
    ) {
        self.core.stats.batches += 1;
        for input in inputs {
            self.core.stats.batched_inputs += 1;
            self.handle_into(input, sink);
        }
    }

    /// Feeds one input through the stack, appending the effects to perform
    /// to `sink` (which is *not* cleared first — executors drain it).
    ///
    /// This is the single scheduler of the event-queue execution model: the
    /// internal work queue drains completely before `handle_into` returns, so
    /// one input's processing is never interleaved with another's.
    pub fn handle_into(&mut self, input: StackInput, sink: &mut EffectSink) {
        let Stack { layers, layer_digests, core } = self;
        let scratch_cap = core.scratch.capacity();
        let effects = sink.buf();
        if core.destroyed {
            return;
        }
        match input {
            StackInput::FromApp(Down::Dump) => {
                // The dump downcall is answered by the runtime on behalf of
                // every layer, so even passive layers appear.
                for l in layers.iter() {
                    let l = l.get();
                    effects.push(Effect::Deliver(Up::DumpInfo { layer: l.name(), info: l.dump() }));
                }
                return;
            }
            StackInput::FromApp(down) => {
                if let Down::Join { group } = &down {
                    core.group = Some(*group);
                }
                core.route_down(core.routes.from_app, down, effects);
            }
            StackInput::FromNet { from, cast, wire } => {
                core.stats.bytes_received += wire.len() as u64;
                match core.decode_frame(&wire) {
                    Ok(mut msg) => {
                        core.stats.msgs_received += 1;
                        msg.meta.set_src(Some(from));
                        let up = if cast {
                            Up::Cast { src: from, msg }
                        } else {
                            Up::Send { src: from, msg }
                        };
                        core.route_up(core.routes.from_net, up, effects);
                    }
                    Err(e) => {
                        let reason = if matches!(e, FrameError::Fingerprint) {
                            core.stats.fingerprint_drops += 1;
                            DropReason::Fingerprint
                        } else {
                            core.stats.decode_drops += 1;
                            DropReason::Decode
                        };
                        core.trace(TraceKind::FrameDrop { digest: 0, seq: 0, reason });
                    }
                }
            }
            StackInput::Timer { layer, token, now } => {
                core.now = core.now.max(now);
                if layer < layers.len() {
                    core.scratch.push_back((layer, Item::Timer(token)));
                }
            }
        }
        let mut ctx = LayerCtx { layer: 0, core, effects };
        run_queue(layers, layer_digests, &mut ctx);
        if ctx.core.scratch.capacity() > scratch_cap {
            ctx.core.stats.dispatch_buf_grows += 1;
        }
    }
}

/// Runs the work queue dry: each queued event is dispatched into its layer,
/// which emits through `ctx` straight back into the queue (or out of the
/// stack, as effects).
fn run_queue(layers: &mut [LayerCell], layer_digests: &mut [AtomicU64], ctx: &mut LayerCtx<'_>) {
    while let Some((idx, item)) = ctx.core.scratch.pop_front() {
        let core = &mut *ctx.core;
        core.stats.dispatches += 1;
        *layer_digests[idx].get_mut() = STALE;
        // Occupancy: the popped item plus whatever is still queued.
        core.stats.scratch_peak = core.stats.scratch_peak.max(core.scratch.len() as u64 + 1);
        {
            let traffic = &mut core.stats.per_layer[idx];
            match &item {
                Item::Down(_) => traffic.downs += 1,
                Item::Up(_) => traffic.ups += 1,
                Item::Timer(_) => traffic.timers += 1,
            }
        }
        if core.traced {
            let layer = layers[idx].get().name();
            core.trace(match &item {
                Item::Down(_) => TraceKind::LayerDown { layer },
                Item::Up(_) => TraceKind::LayerUp { layer },
                Item::Timer(token) => TraceKind::LayerTimer { layer, token: *token },
            });
        }
        ctx.layer = idx;
        let layer = layers[idx].make_mut();
        match item {
            Item::Down(ev) => layer.on_down(ev, ctx),
            Item::Up(ev) => layer.on_up(ev, ctx),
            Item::Timer(token) => layer.on_timer(token, ctx),
        }
    }
}

impl StackCore {
    /// Records one trace event, stamped with the stack's own clock.  One
    /// branch when disabled; kind construction happens at the call site,
    /// so call this only with cheap (copy/`&'static str`) payloads outside
    /// a `traced`-checked block.
    #[inline]
    fn trace(&self, kind: TraceKind) {
        if self.traced {
            if let Some(t) = &self.tracer {
                t.record(TraceEvent { at: self.now, ep: self.local, kind });
            }
        }
    }

    /// [`trace`](Self::trace) for event payloads that are expensive to
    /// build (digests, rendered strings): the construction closure runs
    /// only after the sink [`admit`](TraceSink::admit)s the event, so a
    /// sampling sink skips the build cost of the records it discards.
    #[inline]
    fn trace_lazy(&self, kind: impl FnOnce() -> TraceKind) {
        if self.traced {
            if let Some(t) = &self.tracer {
                if t.admit() {
                    t.record(TraceEvent { at: self.now, ep: self.local, kind: kind() });
                }
            }
        }
    }

    /// [`LayerCtx::down`]: layer `from` passes `ev` toward the network.
    #[inline]
    pub(crate) fn emit_down(&mut self, from: usize, ev: Down, effects: &mut Vec<Effect>) {
        let hop = self.routes.layers[from].down;
        self.stats.skipped += hop.skipped;
        self.route_down(hop.to, ev, effects);
    }

    /// [`LayerCtx::up`]: layer `from` passes `ev` toward the application.
    #[inline]
    pub(crate) fn emit_up(&mut self, from: usize, ev: Up, effects: &mut Vec<Effect>) {
        let hop = self.routes.layers[from].up;
        self.stats.skipped += hop.skipped;
        self.route_up(hop.to, ev, effects);
    }

    #[inline]
    fn route_down(&mut self, to: Option<usize>, ev: Down, effects: &mut Vec<Effect>) {
        match to {
            Some(i) => self.scratch.push_back((i, Item::Down(ev))),
            None => self.bottom_out(ev, effects),
        }
    }

    #[inline]
    fn route_up(&mut self, to: Option<usize>, ev: Up, effects: &mut Vec<Effect>) {
        match to {
            Some(i) => self.scratch.push_back((i, Item::Up(ev))),
            None => self.top_out(ev, effects),
        }
    }

    /// [`LayerCtx::set_timer`].
    pub(crate) fn arm_timer(
        &mut self,
        layer: usize,
        token: u64,
        delay: Duration,
        effects: &mut Vec<Effect>,
    ) {
        self.trace(TraceKind::TimerArm { layer, token, delay_us: delay.as_micros() as u64 });
        effects.push(Effect::SetTimer { layer, token, delay });
    }

    /// [`LayerCtx::trace`].
    pub(crate) fn note(&self, text: String) {
        self.trace_lazy(|| TraceKind::Note(text));
    }

    /// A downcall fell off the bottom of the stack: convert to transport
    /// effects.
    fn bottom_out(&mut self, ev: Down, effects: &mut Vec<Effect>) {
        match ev {
            Down::Cast(msg) => {
                let wire = self.encode_frame(&msg);
                self.stats.msgs_sent += 1;
                self.stats.bytes_sent += wire.len() as u64;
                self.stats.header_bytes_sent += msg.header_wire_len() as u64;
                self.trace(TraceKind::FrameSend { cast: true, bytes: wire.len() });
                effects.push(Effect::NetCast { wire });
            }
            Down::Send { dests, msg } => {
                let wire = self.encode_frame(&msg);
                self.stats.msgs_sent += 1;
                self.stats.bytes_sent += wire.len() as u64;
                self.stats.header_bytes_sent += msg.header_wire_len() as u64;
                self.trace(TraceKind::FrameSend { cast: false, bytes: wire.len() });
                effects.push(Effect::NetSend { dests, wire });
            }
            Down::Join { group } => effects.push(Effect::NetJoin { group }),
            Down::Leave => effects.push(Effect::NetLeave),
            Down::Destroy => {
                self.destroyed = true;
                self.scratch.clear();
                effects.push(Effect::NetLeave);
                effects.push(Effect::Deliver(Up::Destroy));
            }
            // Control downcalls consumed by protocol layers; reaching the
            // bottom means no layer in this composition implements them.
            other => self.trace_lazy(|| {
                TraceKind::Note(format!(
                    "{}: downcall `{}` fell off the bottom of the stack unconsumed",
                    self.local,
                    other.kind()
                ))
            }),
        }
    }

    /// An upcall crossed the top of the stack: deliver to the application.
    fn top_out(&mut self, ev: Up, effects: &mut Vec<Effect>) {
        if let Up::View(v) = &ev {
            self.view = Some(v.clone());
            *self.view_digest.get_mut() = STALE;
            self.trace_lazy(|| TraceKind::ViewInstall { view: v.to_string() });
        }
        // Delivery identity: `(src, content digest)` is executor- and
        // timestamp-independent, so cross-executor determinism checks
        // compare it directly.
        self.trace_lazy(|| {
            let (src, digest) = match &ev {
                Up::Cast { src, msg } | Up::Send { src, msg } => {
                    let mut d = StateDigest::new();
                    d.write_u64(src.raw());
                    d.write_bytes(msg.body());
                    (src.raw(), d.finish())
                }
                _ => (0, 0),
            };
            TraceKind::Deliver { kind: ev.kind(), src, digest }
        });
        effects.push(Effect::Deliver(ev));
    }

    /// Frame: `[u16 fingerprint][u32 checksum][u16 hdr_len][hdr][body]`,
    /// carried as a scatter-gather [`WireFrame`] whose head (envelope +
    /// header area) is built here in a single exact-capacity allocation and
    /// whose body *is* the message body — the application's payload `Bytes`
    /// reaches the transport by reference, never by copy.
    ///
    /// The checksum covers `body|hdr_len|hdr` ([`frame_checksum`]: the
    /// four-lane [`crate::frame::FrameChecksum`] streamed over the two
    /// segments, built here and verified at every decode) — the link-level
    /// CRC every real datagram network provides, and what makes the
    /// COM/frame level's byte re-ordering detection (P10) actually true
    /// over the garbling simulated network.
    fn encode_frame(&self, msg: &Message) -> WireFrame {
        WireFrame::build(self.fingerprint, msg.header_area(), msg.body().clone())
    }

    fn decode_frame(&self, frame: &WireFrame) -> Result<Message, FrameError> {
        let (head, body) = frame
            .canonical_parts()
            .ok_or_else(|| FrameError::Malformed("frame shorter than its envelope".into()))?;
        let fp = u16::from_le_bytes([head[0], head[1]]);
        if fp != self.fingerprint {
            return Err(FrameError::Fingerprint);
        }
        let sum = u32::from_le_bytes([head[2], head[3], head[4], head[5]]);
        if sum != frame_checksum(&head, &body) {
            return Err(FrameError::Malformed("frame checksum mismatch (garbled)".into()));
        }
        // Zero-copy receive: the body segment is attached to the decoded
        // message as-is.
        Message::decode_parts(self.layout.clone(), &head[ENVELOPE_BYTES..], body)
            .map_err(|e| FrameError::Malformed(e.to_string()))
    }
}

#[derive(Debug)]
enum FrameError {
    Fingerprint,
    Malformed(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Fingerprint => write!(f, "stack fingerprint mismatch"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl fmt::Debug for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stack")
            .field("local", &self.core.local)
            .field("layers", &self.layer_names())
            .field("mode", &self.core.layout.mode())
            .field("fingerprint", &self.core.fingerprint)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::FieldSpec;

    #[derive(Debug, Default, Clone)]
    struct Nop;
    impl Layer for Nop {
        fn name(&self) -> &'static str {
            "NOP"
        }
        fn is_passive(&self) -> bool {
            true
        }
    }

    /// A layer that stamps a sequence number on casts.
    #[derive(Debug, Default, Clone)]
    struct Seq {
        next: u64,
        seen: Vec<u64>,
    }
    const SEQ_FIELDS: &[FieldSpec] = &[FieldSpec::new("seq", 32)];
    impl Layer for Seq {
        fn name(&self) -> &'static str {
            "SEQ"
        }
        fn header_fields(&self) -> &'static [FieldSpec] {
            SEQ_FIELDS
        }
        fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
            match ev {
                Down::Cast(mut msg) => {
                    ctx.stamp(&mut msg);
                    ctx.set(&mut msg, 0, self.next);
                    self.next += 1;
                    ctx.down(Down::Cast(msg));
                }
                other => ctx.down(other),
            }
        }
        fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
            match ev {
                Up::Cast { src, mut msg } => {
                    ctx.open(&mut msg).unwrap();
                    self.seen.push(ctx.get(&msg, 0));
                    ctx.up(Up::Cast { src, msg });
                }
                other => ctx.up(other),
            }
        }
        fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
            write!(w, "next={} seen={}", self.next, self.seen.len())
        }
    }

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    /// A sink that keeps every event's kind.
    #[derive(Debug, Default)]
    struct Log(std::sync::Mutex<Vec<TraceKind>>);

    impl TraceSink for Log {
        fn record(&self, ev: TraceEvent) {
            self.0.lock().unwrap().push(ev.kind);
        }
    }

    impl Log {
        fn names(&self) -> Vec<&'static str> {
            self.0.lock().unwrap().iter().map(TraceKind::name).collect()
        }
    }

    fn two_layer_stack(mode: HeaderMode) -> Stack {
        StackBuilder::new(ep(1))
            .push(Box::new(Seq::default()))
            .push(Box::new(Nop))
            .mode(mode)
            .build()
            .unwrap()
    }

    #[test]
    fn cast_falls_out_the_bottom_as_netcast() {
        let mut s = two_layer_stack(HeaderMode::Compact);
        let m = s.new_message(&b"hi"[..]);
        let fx = s.handle(StackInput::FromApp(Down::Cast(m)));
        assert_eq!(fx.len(), 1);
        assert!(matches!(fx[0], Effect::NetCast { .. }));
        assert_eq!(s.stats().msgs_sent, 1);
    }

    #[test]
    fn loopback_roundtrip_preserves_body_and_fields() {
        for mode in [HeaderMode::Compact, HeaderMode::Aligned] {
            let mut a = two_layer_stack(mode);
            let mut b = StackBuilder::new(ep(2))
                .push(Box::new(Seq::default()))
                .push(Box::new(Nop))
                .mode(mode)
                .build()
                .unwrap();
            let m = a.new_message(&b"payload"[..]);
            let fx = a.handle(StackInput::FromApp(Down::Cast(m)));
            let wire = match &fx[0] {
                Effect::NetCast { wire } => wire.clone(),
                other => panic!("unexpected {other:?}"),
            };
            let fx = b.handle(StackInput::FromNet { from: ep(1), cast: true, wire });
            let delivered = fx
                .iter()
                .find_map(|e| match e {
                    Effect::Deliver(Up::Cast { src, msg }) => Some((*src, msg.clone())),
                    _ => None,
                })
                .expect("delivery");
            assert_eq!(delivered.0, ep(1));
            assert_eq!(delivered.1.body(), &b"payload"[..]);
            let seq: &Seq = b.focus_as("SEQ").unwrap();
            assert_eq!(seq.seen, vec![0]);
        }
    }

    #[test]
    fn transmitted_body_shares_storage_with_app_payload() {
        // The scatter-gather frame ships the application's Bytes by
        // reference: same backing storage at the transport boundary, and
        // again on the receiving stack's delivered message.
        let mut a = two_layer_stack(HeaderMode::Compact);
        let mut b = StackBuilder::new(ep(2))
            .push(Box::new(Seq::default()))
            .push(Box::new(Nop))
            .build()
            .unwrap();
        let payload = Bytes::from(vec![0xAB; 256]);
        let m = a.new_message(payload.clone());
        let fx = a.handle(StackInput::FromApp(Down::Cast(m)));
        let wire = match &fx[0] {
            Effect::NetCast { wire } => wire.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(wire.body().as_ptr(), payload.as_ptr());
        assert_eq!(a.stats().payload_copies, 0);
        let fx = b.handle(StackInput::FromNet { from: ep(1), cast: true, wire });
        let delivered = fx
            .iter()
            .find_map(|e| match e {
                Effect::Deliver(Up::Cast { msg, .. }) => Some(msg.clone()),
                _ => None,
            })
            .expect("delivery");
        assert_eq!(delivered.body().as_ptr(), payload.as_ptr());
        assert_eq!(b.stats().payload_copies, 0);
    }

    #[test]
    fn fingerprint_mismatch_drops() {
        let mut a = two_layer_stack(HeaderMode::Compact);
        // A stack with different composition.
        let mut b = StackBuilder::new(ep(2)).push(Box::new(Nop)).build().unwrap();
        let m = a.new_message(&b"x"[..]);
        let fx = a.handle(StackInput::FromApp(Down::Cast(m)));
        let wire = match &fx[0] {
            Effect::NetCast { wire } => wire.clone(),
            _ => unreachable!(),
        };
        let fx = b.handle(StackInput::FromNet { from: ep(1), cast: true, wire });
        assert!(fx.is_empty(), "{fx:?}");
        assert_eq!(b.stats().fingerprint_drops, 1);
    }

    #[test]
    fn skip_passive_counts_saved_dispatches() {
        let build = |skip| {
            StackBuilder::new(ep(1))
                .push(Box::new(Seq::default()))
                .push(Box::new(Nop))
                .push(Box::new(Nop))
                .push(Box::new(Nop))
                .skip_passive(skip)
                .build()
                .unwrap()
        };
        let mut skipping = build(true);
        let mut plain = build(false);
        for s in [&mut skipping, &mut plain] {
            let m = s.new_message(&b"x"[..]);
            let _ = s.handle(StackInput::FromApp(Down::Cast(m)));
        }
        assert!(skipping.stats().dispatches < plain.stats().dispatches);
        assert_eq!(skipping.stats().skipped, 3);
    }

    #[test]
    fn dump_reports_every_layer() {
        let mut s = two_layer_stack(HeaderMode::Compact);
        let fx = s.handle(StackInput::FromApp(Down::Dump));
        let names: Vec<_> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Deliver(Up::DumpInfo { layer, .. }) => Some(*layer),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["SEQ", "NOP"]);
        assert_eq!(s.focus("SEQ").unwrap(), "next=0 seen=0");
        assert!(s.focus("MISSING").is_none());
    }

    #[test]
    fn destroy_is_terminal() {
        let mut s = two_layer_stack(HeaderMode::Compact);
        let fx = s.handle(StackInput::FromApp(Down::Destroy));
        assert!(fx.iter().any(|e| matches!(e, Effect::Deliver(Up::Destroy))));
        assert!(fx.iter().any(|e| matches!(e, Effect::NetLeave)));
        assert!(s.is_destroyed());
        let m = s.new_message(&b"x"[..]);
        assert!(s.handle(StackInput::FromApp(Down::Cast(m))).is_empty());
    }

    #[test]
    fn join_records_group_and_reaches_transport() {
        let mut s = two_layer_stack(HeaderMode::Compact);
        let fx = s.handle(StackInput::FromApp(Down::Join { group: GroupAddr::new(5) }));
        assert!(matches!(fx[0], Effect::NetJoin { group } if group == GroupAddr::new(5)));
        assert_eq!(s.group(), Some(GroupAddr::new(5)));
    }

    #[test]
    fn unconsumed_control_downcall_traced() {
        let mut s = two_layer_stack(HeaderMode::Compact);
        let log = Arc::new(Log::default());
        s.set_tracer(log.clone());
        let fx = s.handle(StackInput::FromApp(Down::FlushOk));
        assert!(fx.is_empty(), "{fx:?}");
        let kinds = log.0.lock().unwrap();
        let notes: Vec<_> = kinds.iter().filter(|k| matches!(k, TraceKind::Note(_))).collect();
        assert!(matches!(notes[..], [TraceKind::Note(t)] if t.contains("flush_ok")), "{kinds:?}");
    }

    #[test]
    fn empty_stack_rejected() {
        assert!(StackBuilder::new(ep(1)).build().is_err());
    }

    #[test]
    fn fingerprints_differ_across_modes_and_compositions() {
        let a = two_layer_stack(HeaderMode::Compact).fingerprint();
        let b = two_layer_stack(HeaderMode::Aligned).fingerprint();
        let c = StackBuilder::new(ep(1)).push(Box::new(Nop)).build().unwrap().fingerprint();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cached_digest_matches_fresh_across_mutations() {
        let mut a = two_layer_stack(HeaderMode::Compact);
        let mut b = StackBuilder::new(ep(2))
            .push(Box::new(Seq::default()))
            .push(Box::new(Nop))
            .build()
            .unwrap();
        assert_eq!(a.state_digest_cached(), a.state_digest(), "fresh build");
        let before = a.state_digest_cached();
        let m = a.new_message(&b"hi"[..]);
        let fx = a.handle(StackInput::FromApp(Down::Cast(m)));
        assert_eq!(a.state_digest_cached(), a.state_digest(), "after a cast");
        assert_ne!(a.state_digest_cached(), before, "SEQ state advanced");
        let wire = match &fx[0] {
            Effect::NetCast { wire } => wire.clone(),
            other => panic!("unexpected {other:?}"),
        };
        let _ = b.handle(StackInput::FromNet { from: ep(1), cast: true, wire });
        assert_eq!(b.state_digest_cached(), b.state_digest(), "after a receive");
        let _ = b.handle(StackInput::FromApp(Down::Destroy));
        assert_eq!(b.state_digest_cached(), b.state_digest(), "after destroy");
    }

    #[test]
    fn default_digest_is_the_dump_and_a_terminator() {
        use crate::layer::LayerObject;
        let seq = Seq { next: 3, seen: vec![1, 2] };
        let mut streamed = StateDigest::new();
        seq.digest_state(&mut streamed);
        let mut whole = StateDigest::new();
        whole.write_str(&seq.dump());
        assert_eq!(streamed.finish(), whole.finish());
    }

    #[test]
    fn a_layer_that_only_names_itself_is_snapshotted_and_focused() {
        /// Cloning, downcasting and the dump all come from the type.
        #[derive(Clone)]
        struct Bare;
        impl Layer for Bare {
            fn name(&self) -> &'static str {
                "BARE"
            }
        }
        let original = StackBuilder::new(ep(1)).push(Box::new(Bare)).build().unwrap();
        let mut copy = original.clone_cow();
        assert!(copy.focus_as::<Bare>("BARE").is_some());
        assert!(copy.focus_as::<Nop>("BARE").is_none());
        assert_eq!(copy.focus("BARE").unwrap(), "");
        // No other test in this binary clones a layer, so the process-wide
        // counter moves only here.
        let before = layer_clones();
        for _ in 0..2 {
            let m = copy.new_message(&b"x"[..]);
            let fx = copy.handle(StackInput::FromApp(Down::Cast(m)));
            assert!(matches!(fx[..], [Effect::NetCast { .. }]));
            assert_eq!(layer_clones(), before + 1, "shared until the first dispatch, then own");
        }
    }

    #[test]
    fn timer_roundtrip() {
        /// Arms a timer on init and counts expirations.
        #[derive(Debug, Default, Clone)]
        struct Ticker {
            fired: u64,
        }
        impl Layer for Ticker {
            fn name(&self) -> &'static str {
                "TICK"
            }
            fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
                ctx.set_timer(std::time::Duration::from_millis(10), 7);
            }
            fn on_timer(&mut self, token: u64, _ctx: &mut LayerCtx<'_>) {
                assert_eq!(token, 7);
                self.fired += 1;
            }
            fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
                write!(w, "fired={}", self.fired)
            }
        }
        let mut s = StackBuilder::new(ep(1)).push(Box::new(Ticker::default())).build().unwrap();
        let fx = s.init();
        let (layer, token) = fx
            .iter()
            .find_map(|e| match e {
                Effect::SetTimer { layer, token, .. } => Some((*layer, *token)),
                _ => None,
            })
            .expect("timer armed at init");
        let _ = s.handle(StackInput::Timer { layer, token, now: SimTime::from_millis(10) });
        assert_eq!(s.focus("TICK").unwrap(), "fired=1");
        assert_eq!(s.now(), SimTime::from_millis(10));
    }

    #[test]
    fn default_layer_passes_through() {
        let mut s = StackBuilder::new(ep(1)).push(Box::new(Nop)).build().unwrap();
        let mut effects = Vec::new();
        let mut ctx = LayerCtx { layer: 0, core: &mut s.core, effects: &mut effects };
        let mut l = Nop;
        l.on_down(Down::Leave, &mut ctx);
        l.on_up(Up::Exit, &mut ctx);
        assert!(matches!(effects[0], Effect::NetLeave));
        assert!(matches!(effects[1], Effect::Deliver(Up::Exit)));
        assert!(l.is_passive());
    }

    #[test]
    fn ctx_creates_messages_against_layout() {
        let mut s = StackBuilder::new(ep(1)).push(Box::new(Nop)).build().unwrap();
        let mut effects = Vec::new();
        let ctx = LayerCtx { layer: 0, core: &mut s.core, effects: &mut effects };
        let m = ctx.new_message(&b"x"[..]);
        assert_eq!(m.body(), &b"x"[..]);
    }

    #[test]
    fn queue_entry_stays_small() {
        // What a layer crossing moves: one of these in, one out.
        let entry = std::mem::size_of::<(usize, Item)>();
        assert!(entry <= 144, "{entry}");
    }

    type Journal = Arc<std::sync::Mutex<Vec<String>>>;

    /// On a timer, emits one of everything, in a fixed order.
    #[derive(Clone)]
    struct Emitter(Journal);
    impl Layer for Emitter {
        fn name(&self) -> &'static str {
            "EMITTER"
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut LayerCtx<'_>) {
            ctx.trace("note");
            ctx.down(Down::Cast(ctx.new_message(&b"x"[..])));
            ctx.set_timer(Duration::from_millis(5), 9);
            ctx.up(Up::Exit);
            ctx.down(Down::Leave);
            self.0.lock().unwrap().push("EMITTER returns".into());
        }
    }

    /// Passes everything on, journalling what it saw.
    #[derive(Clone)]
    struct Witness(&'static str, Journal);
    impl Layer for Witness {
        fn name(&self) -> &'static str {
            self.0
        }
        fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
            self.1.lock().unwrap().push(format!("{} down {}", self.0, ev.kind()));
            ctx.down(ev);
        }
        fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
            self.1.lock().unwrap().push(format!("{} up {}", self.0, ev.kind()));
            ctx.up(ev);
        }
    }

    fn effect_kinds(fx: &[Effect]) -> Vec<&'static str> {
        fx.iter()
            .map(|e| match e {
                Effect::Deliver(_) => "Deliver",
                Effect::NetCast { .. } => "NetCast",
                Effect::NetSend { .. } => "NetSend",
                Effect::NetJoin { .. } => "NetJoin",
                Effect::NetLeave => "NetLeave",
                Effect::SetTimer { .. } => "SetTimer",
            })
            .collect()
    }

    #[test]
    fn emission_order_is_effect_order() {
        let fire = |layer| StackInput::Timer { layer, token: 1, now: SimTime::from_millis(1) };

        // Alone, every emission leaves the stack at once, and is traced as
        // it does.
        let journal = Journal::default();
        let traced = Arc::new(Log::default());
        let mut alone =
            StackBuilder::new(ep(1)).push(Box::new(Emitter(journal.clone()))).build().unwrap();
        alone.set_tracer(traced.clone());
        let fx = alone.handle(fire(0));
        assert_eq!(effect_kinds(&fx), ["NetCast", "SetTimer", "Deliver", "NetLeave"]);
        assert!(matches!(&fx[1], Effect::SetTimer { layer: 0, token: 9, .. }));
        assert_eq!(traced.names(), ["layer-timer", "note", "frame-send", "timer-arm", "deliver"]);

        // Between two layers, what is bound for them waits until the
        // emitter has returned and then runs first in, first out; what is
        // bound for the executor does not wait.
        let journal = Journal::default();
        let mut between = StackBuilder::new(ep(1))
            .push(Box::new(Witness("TOP", journal.clone())))
            .push(Box::new(Emitter(journal.clone())))
            .push(Box::new(Witness("BOTTOM", journal.clone())))
            .build()
            .unwrap();
        let fx = between.handle(fire(1));
        assert_eq!(effect_kinds(&fx), ["SetTimer", "NetCast", "Deliver", "NetLeave"]);
        assert!(matches!(&fx[0], Effect::SetTimer { layer: 1, token: 9, .. }));
        assert_eq!(
            *journal.lock().unwrap(),
            ["EMITTER returns", "BOTTOM down cast", "TOP up EXIT", "BOTTOM down leave"]
        );
    }

    /// A pass-through layer that is passive or not, as told.
    #[derive(Clone)]
    struct Pass(bool);
    impl Layer for Pass {
        fn name(&self) -> &'static str {
            "PASS"
        }
        fn is_passive(&self) -> bool {
            self.0
        }
    }

    /// The scan [`Routes`] replaced, as `Stack` ran it for every emitted
    /// event: the first non-skipped layer at or below `i`.
    fn first_active_down(passive: &[bool], skip_passive: bool, i: usize) -> Option<usize> {
        if !skip_passive {
            return (i < passive.len()).then_some(i);
        }
        (i..passive.len()).find(|&j| !passive[j])
    }

    /// The first non-skipped layer at or above `i`.
    fn first_active_up(passive: &[bool], skip_passive: bool, i: usize) -> Option<usize> {
        if !skip_passive {
            return Some(i);
        }
        (0..=i).rev().find(|&j| !passive[j])
    }

    /// [`Routes`] by the scan, counting skipped layers per emitted event as
    /// the stack used to.
    fn scanned_routes(passive: &[bool], skip: bool) -> Routes {
        let n = passive.len();
        let layers = (0..n)
            .map(|idx| {
                let down = first_active_down(passive, skip, idx + 1);
                let up = if idx == 0 { None } else { first_active_up(passive, skip, idx - 1) };
                let (mut down_skipped, mut up_skipped) = (0, 0);
                if skip {
                    down_skipped = down.unwrap_or(n) - (idx + 1);
                    if idx > 0 {
                        up_skipped = idx - up.map(|j| j + 1).unwrap_or(0);
                    }
                }
                Route {
                    down: Hop { to: down, skipped: down_skipped as u64 },
                    up: Hop { to: up, skipped: up_skipped as u64 },
                }
            })
            .collect();
        Routes {
            layers,
            from_app: first_active_down(passive, skip, 0),
            from_net: first_active_up(passive, skip, n - 1),
        }
    }

    /// The route table of a stack with this passivity pattern is the scan's,
    /// and a cast sent down and brought back up counts the skipped layers
    /// the scan counts.
    fn routes_match_the_scan(passive: &[bool], skip: bool) {
        let build = |i| {
            StackBuilder::new(ep(i))
                .extend(passive.iter().map(|&p| Box::new(Pass(p)) as Box<dyn Layer>))
                .skip_passive(skip)
                .build()
                .unwrap()
        };
        let (mut tx, mut rx) = (build(1), build(2));
        let scan = scanned_routes(passive, skip);
        assert_eq!(*tx.core.routes, scan);

        let fx = tx.handle(StackInput::FromApp(Down::Cast(tx.new_message(&b"x"[..]))));
        let [Effect::NetCast { wire }] = &fx[..] else { panic!("unexpected {fx:?}") };
        let fx = rx.handle(StackInput::FromNet { from: ep(1), cast: true, wire: wire.clone() });
        assert!(matches!(&fx[..], [Effect::Deliver(Up::Cast { .. })]), "unexpected {fx:?}");

        let walk = |entry: Option<usize>, hop: fn(&Route) -> Hop| {
            let (mut dispatches, mut skipped, mut at) = (0, 0, entry);
            while let Some(i) = at {
                dispatches += 1;
                skipped += hop(&scan.layers[i]).skipped;
                at = hop(&scan.layers[i]).to;
            }
            (dispatches, skipped)
        };
        let down = walk(scan.from_app, |route| route.down);
        let up = walk(scan.from_net, |route| route.up);
        assert_eq!((tx.stats().dispatches, tx.stats().skipped), down);
        assert_eq!((rx.stats().dispatches, rx.stats().skipped), up);
    }

    #[test]
    fn routes_match_the_scan_at_the_edges() {
        for skip in [true, false] {
            routes_match_the_scan(&[true], skip);
            routes_match_the_scan(&[true, true, true], skip);
            routes_match_the_scan(&[true, false, false], skip);
            routes_match_the_scan(&[false, false, true], skip);
            routes_match_the_scan(&[true, true, false, true, true], skip);
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn routes_match_the_scan_for_any_composition(
            passive in proptest::collection::vec(any::<bool>(), 1..=12),
            skip in any::<bool>(),
        ) {
            routes_match_the_scan(&passive, skip);
        }
    }
}
