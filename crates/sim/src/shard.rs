//! The sharded run-to-completion executor (§10 problem 2, scaled out).
//!
//! The paper's answer to intra-stack threading costs is one scheduling
//! thread per stack; Babel's event executors and Ring Paxos's dispatch-
//! boundary batching show how that design scales to many stacks and high
//! rates.  This module combines the three ideas:
//!
//! * **Sharding** — N worker threads, each *owning* a disjoint set of
//!   stacks (assigned by endpoint address).  A stack is only ever touched
//!   by its owning worker, so there are no per-stack locks, no contended
//!   dispatch path, and — because each worker is a single-threaded
//!   run-to-completion loop over one input queue — each shard's execution
//!   is a deterministic function of its queue arrival order.
//! * **Batched dispatch** — a worker takes everything queued for it at
//!   once, by swapping its inbox's buffer for its own empty one under one
//!   lock, and feeds each same-endpoint run of that burst straight from it
//!   into [`Stack::handle_batch`] with one reusable [`EffectSink`]: one
//!   lock acquisition per burst, one effect walk per run, and zero
//!   per-event allocations.  A burst has no cap; it is whatever queued
//!   while the worker was busy.  A walk's upcalls reach the endpoint's log
//!   under one lock, and consecutive casts from one endpoint leave through
//!   [`LoopbackNet::cast_batch`] as one slice under a single registry
//!   snapshot.
//! * **Direct shard delivery** — endpoints are registered on the loopback
//!   transport with a sink that pushes frames straight into the owning
//!   shard's inbox, a cast burst's frames under one lock and at most one
//!   wake-up: no per-endpoint pump thread, and none of the extra wake-up
//!   per frame one would cost.
//! * **Adaptive spin-then-park hand-off** — batching amortises the
//!   hand-off into the worker only while the queue stays non-empty.  Below
//!   saturation the queue is empty between inputs, and a worker that
//!   blocks the instant it sees that pays a thread wake-up (≈ 18 µs on the
//!   reference box, against ≈ 3 µs of stack work) on every input.  So a
//!   worker that has just finished a burst polls its queue, yielding its
//!   processor between polls, for a window that grows while parks keep
//!   being ended by input it just missed (the guest halt-polling rule).
//!   Every decision — what is dispatched first, which timer fires, when to
//!   spin or park — is `Core::step`'s, on the [`SimTime`] it is handed; the
//!   thread around it is the only reader of the clock, and
//!   [`ShardExecutor::wake_stats`] counts the waits it performed.
//!
//! This is the one real-time executor: a [`ShardConfig::default`] executor
//! holding one stack is the paper's "one scheduling thread per stack", and
//! is what `horus::socket::GroupSocket` runs on.  Timekeeping maps the
//! monotonic OS clock onto [`SimTime`] from one epoch per executor, so
//! protocol timers behave as they do in the simulated world.

use bytes::Bytes;
use horus_core::lock;
use horus_core::prelude::*;
use horus_core::stack::StackStats;
use horus_net::threaded::{Frame, FrameSink};
use horus_net::LoopbackNet;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning of the sharded executor.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of worker threads (and stack shards).  Stacks are assigned by
    /// `endpoint address % shards`.
    pub shards: usize,
    /// Whether delivered upcalls are recorded (retrievable through
    /// [`ShardExecutor::take_upcalls`]).  Flood benchmarks switch this off
    /// and rely on the monotone counters alone.
    pub record_upcalls: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 1, record_upcalls: true }
    }
}

impl ShardConfig {
    /// `shards` workers, defaults otherwise.
    pub fn with_shards(shards: usize) -> Self {
        ShardConfig { shards: shards.max(1), ..ShardConfig::default() }
    }

    /// Enables or disables upcall recording.
    pub fn record_upcalls(mut self, record: bool) -> Self {
        self.record_upcalls = record;
        self
    }
}

/// Per-endpoint observation shared between the owning worker and the
/// executor facade: a monotone counter plus (optionally) the upcall log.
#[derive(Debug, Default)]
struct EpLog {
    /// Monotone count of CAST upcalls delivered, published (`Release`) once
    /// per effect walk, after that walk's upcalls are in `log`: a reader
    /// that sees `k` (`Acquire`) finds cast `k` there.
    casts: AtomicUsize,
    /// The recorded upcalls (empty when recording is off).
    log: Mutex<Vec<Up>>,
}

/// How one shard's worker waited for input (see the park/spin rule on
/// `Core::step`): monotone counts since the executor was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeStats {
    /// Sleeps on the inbox entered: each is a thread the next sender has
    /// to wake (a `futex` round trip) before any layer runs.
    pub parks: u64,
    /// Spin phases entered, each straight after a burst.
    pub spins: u64,
    /// Spin phases that ended with a burst taken off the queue — hand-offs
    /// that cost the sender no wake-up.
    pub spin_takes: u64,
}

/// [`WakeStats`] as the worker writes them: read by the facade without a
/// round trip through the queue, which would itself be a hand-off.
#[derive(Debug, Default)]
struct WakeCounters {
    parks: AtomicU64,
    spins: AtomicU64,
    spin_takes: AtomicU64,
}

impl WakeCounters {
    fn read(&self) -> WakeStats {
        WakeStats {
            parks: self.parks.load(Ordering::Relaxed),
            spins: self.spins.load(Ordering::Relaxed),
            spin_takes: self.spin_takes.load(Ordering::Relaxed),
        }
    }
}

enum ShardIn {
    /// A wire frame (pushed by the transport sink) or an application
    /// downcall for `ep`'s stack, built as the stack takes it.
    Input { ep: EndpointAddr, input: StackInput },
    /// Adopt a stack (run its init) — sent once per endpoint at add time.
    AddStack { stack: Box<Stack>, log: Arc<EpLog> },
    /// Report every owned stack's counters.
    Stats { reply: mpsc::Sender<Vec<(EndpointAddr, StackStats)>> },
    /// Drain and exit.
    Stop,
}

impl ShardIn {
    /// Whether this is a frame or downcall for `ep`'s stack.
    fn is_for(&self, ep: EndpointAddr) -> bool {
        matches!(self, ShardIn::Input { ep: to, .. } if *to == ep)
    }
}

/// One shard's input queue, taken whole: senders append under the lock,
/// and the worker swaps the queued buffer for its own empty one, so no
/// input is moved under the lock and both buffers keep their capacity.
#[derive(Default)]
struct Inbox {
    state: Mutex<InboxState>,
    /// Signalled by a push that finds the worker asleep.
    ready: Condvar,
}

#[derive(Default)]
struct InboxState {
    items: Vec<ShardIn>,
    /// The worker is blocked on `ready`.  Set and read under the lock, so
    /// a sender that reads `false` knows the worker will see its input
    /// before it sleeps: only a push that reads `true` pays for a notify.
    asleep: bool,
    /// The worker has exited; pushes are refused.
    closed: bool,
}

impl Inbox {
    /// Queues `inputs` in order, waking the worker if it sleeps; `false`,
    /// queuing nothing, once the worker has exited.
    fn push(&self, inputs: impl IntoIterator<Item = ShardIn>) -> bool {
        let mut state = lock(&self.state);
        if state.closed {
            return false;
        }
        state.items.extend(inputs);
        let asleep = state.asleep;
        drop(state);
        if asleep {
            self.ready.notify_one();
        }
        true
    }

    /// Swaps everything queued into the empty `burst`; returns whether
    /// anything was.
    fn take(&self, burst: &mut Vec<ShardIn>) -> bool {
        std::mem::swap(&mut lock(&self.state).items, burst);
        !burst.is_empty()
    }

    /// [`Inbox::take`], sleeping until input is queued or `until` passes.
    fn take_or_wait(&self, burst: &mut Vec<ShardIn>, until: SimTime, clock: Epoch) -> bool {
        let mut state = lock(&self.state);
        while state.items.is_empty() {
            let now = clock.now();
            let Some(wait) = (now < until).then(|| until - now) else { return false };
            state.asleep = true;
            state = self.ready.wait_timeout(state, wait).unwrap_or_else(PoisonError::into_inner).0;
            state.asleep = false;
        }
        std::mem::swap(&mut state.items, burst);
        true
    }

    fn close(&self) {
        lock(&self.state).closed = true;
    }
}

/// The executor's one clock: the monotonic time since it was created, as
/// the [`SimTime`] its stacks, timers and traces run on.
#[derive(Debug, Clone, Copy)]
struct Epoch(Instant);

impl Epoch {
    fn now(self) -> SimTime {
        SimTime::from_nanos(self.0.elapsed().as_nanos() as u64)
    }
}

struct Owned {
    stack: Stack,
    log: Arc<EpLog>,
    /// Mirror of the stack's trace sink: the worker records this endpoint's
    /// frame/timer *arrivals* through it; dispatch internals are recorded
    /// by the stack itself.
    tracer: Option<Arc<dyn TraceSink>>,
}

/// One shard's thread: the clock, the inbox, and the core it steps.
struct Worker {
    inbox: Arc<Inbox>,
    clock: Epoch,
    core: Core,
    wake: Arc<WakeCounters>,
}

/// One shard's dispatch state, apart from its thread: the stacks it owns
/// and everything [`Core::step`] decides on.  It reads no clock.
struct Core {
    stacks: BTreeMap<EndpointAddr, Owned>,
    /// Reusable effect buffer: zero allocations per event once warm.
    sink: EffectSink,
    out: Outbox,
    /// When to poll, spin or park.
    wait: WaitCore,
    /// Whether the last step handed out a wait, judged by the next step.
    waiting: bool,
    /// Whether the last burst has yet to earn its spin.
    after_burst: bool,
    /// Bursts dispatched since the queue was last seen empty.
    bursts: u32,
}

/// However the worker's thread ends, its inbox refuses what comes after.
impl Drop for Worker {
    fn drop(&mut self) {
        self.inbox.close();
    }
}

/// Where a stack's effects go: the transport, the timer queue, the upcall
/// log.  Apart from the stacks, so that effects are performed while the
/// stack that asked for them is still borrowed from the map.
struct Outbox {
    net: LoopbackNet,
    record_upcalls: bool,
    /// Armed timers by `(due, arming order)`, as `SimWorld`'s calendar
    /// orders `(time, seq)`.
    timers: BTreeMap<(SimTime, u64), (EndpointAddr, usize, u64)>,
    /// Timers armed so far: the next one's arming order.
    timer_seq: u64,
    /// Casts pending transmission for `pending_from`, flushed in one
    /// registry snapshot.
    pending_casts: Vec<WireFrame>,
    pending_from: Option<EndpointAddr>,
    /// The upcalls of the effect walk in progress, moved into the
    /// endpoint's log under one lock when the walk ends.
    upcalls: Vec<Up>,
}

/// How long an idle worker sleeps when it has neither inputs nor timers.
const IDLE_WAIT: Duration = Duration::from_millis(5);

/// The shortest spin window, and the one a worker starts with: 2–3
/// wake-ups' worth (≈ 18 µs each on the reference box), the competitive
/// bound — a worker that parks after spinning this long has spent at most
/// a small multiple of what parking at once would have cost the next
/// sender.  Linux's guest halt-polling starts its window at the same 50 µs.
const SPIN_MIN: Duration = Duration::from_micros(50);

/// The longest spin window, and the horizon a park is judged by: an input
/// that ends a park within this long of the spin's start would have been
/// caught by a longer spin.  Halt-polling's default ceiling.
const SPIN_MAX: Duration = Duration::from_micros(200);

/// Time between two polls of the queue while spinning.  Each poll takes the
/// queue's lock, which the senders also take: polling back to back slows
/// them down, and half of this is all a sparser poll adds to a hand-off.
const SPIN_POLL_EVERY: Duration = Duration::from_micros(1);

/// Bursts a worker dispatches back to back, the queue never seen empty,
/// before it fires due timers anyway: a producer that outruns the worker
/// must not starve retransmission and failure-detection timers.
const TIMER_PASS_EVERY: u32 = 16;

/// What the worker's thread does before its next step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Next {
    /// Take whatever is queued, without waiting.
    Poll,
    /// Poll the queue every [`SPIN_POLL_EVERY`] until input turns up or
    /// the time passes, yielding the processor in between.
    SpinUntil(SimTime),
    /// Block until input turns up or the time passes.
    ParkUntil(SimTime),
    /// Exit: the burst held `Stop`.
    Stop,
}

/// The worker's wait policy, kept apart from its thread so that each rule
/// is a function of the times it is handed: the core asks
/// [`WaitCore::next`] what its thread is to do, and reports how the spin or
/// park ended, as the next step finds it, through [`WaitCore::ended`].
///
/// The spin window adapts as Linux's guest halt-polling governor does
/// (`Documentation/virt/guest-halt-polling.rst`): it starts at
/// [`SPIN_MIN`] and doubles, up to [`SPIN_MAX`], when a park is ended by an
/// input that arrived within [`SPIN_MAX`] of the spin's start — a longer
/// spin would have caught it — and halves, down to [`SPIN_MIN`], when a
/// park times out or its input came later than that.  A spin that catches
/// its input leaves the window as it is.  So a steady stream whose gaps fit
/// under the ceiling stops meeting a parked worker after a gap or two,
/// while sporadic input keeps the spin at its shortest.
#[derive(Debug)]
struct WaitCore {
    /// Whether this worker may spin at all: false on a machine with one
    /// hardware thread, where the sender cannot run meanwhile.
    spin: bool,
    /// The current spin window, in [`SPIN_MIN`, `SPIN_MAX`].
    window: Duration,
    /// When the last spin started, until the park after it (or the input
    /// it caught) has been judged.
    spun_at: Option<SimTime>,
    /// Whether the wait handed out last is a park.
    parking: bool,
}

impl WaitCore {
    fn new(spin: bool) -> Self {
        WaitCore { spin, window: SPIN_MIN, spun_at: None, parking: false }
    }

    /// What to do at `now`, with the queue empty and no timer fired: a
    /// timer due at `due` comes first, a spin is earned only by a
    /// `burst` just processed, and neither a spin nor a park runs past
    /// `due`.
    fn next(&mut self, now: SimTime, burst: bool, due: Option<SimTime>) -> Next {
        let until = |wait: Duration| due.map_or(now + wait, |due| due.min(now + wait));
        self.parking = false;
        if due.is_some_and(|due| due <= now) {
            Next::Poll
        } else if burst && self.spin {
            self.spun_at = Some(now);
            Next::SpinUntil(until(self.window))
        } else {
            self.parking = true;
            Next::ParkUntil(until(IDLE_WAIT))
        }
    }

    /// How the wait [`WaitCore::next`] handed out ended: with input seen at
    /// `input`, or with its time up (`None`).  A spin that finds nothing is
    /// judged by the park after it; a park after no spin is not judged.
    fn ended(&mut self, input: Option<SimTime>) {
        if !std::mem::take(&mut self.parking) {
            if input.is_some() {
                self.spun_at = None;
            }
            return;
        }
        let Some(start) = self.spun_at.take() else { return };
        self.window = match input {
            Some(at) if at.saturating_since(start) <= SPIN_MAX => (self.window * 2).min(SPIN_MAX),
            _ => (self.window / 2).max(SPIN_MIN),
        };
    }
}

impl Worker {
    /// The thread: performs the take or wait its core asked for, reads the
    /// clock once, and steps the core at that time with what it took, until
    /// told to stop.
    fn run(mut self) {
        let mut burst = Vec::new();
        let mut next = Next::Poll;
        loop {
            match next {
                Next::Poll => {
                    self.inbox.take(&mut burst);
                }
                Next::SpinUntil(until) => {
                    self.wake.spins.fetch_add(1, Ordering::Relaxed);
                    if self.spin_until(until, &mut burst) {
                        self.wake.spin_takes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Next::ParkUntil(until) => {
                    self.wake.parks.fetch_add(1, Ordering::Relaxed);
                    self.inbox.take_or_wait(&mut burst, until, self.clock);
                }
                Next::Stop => return,
            }
            next = self.core.step(self.clock.now(), &mut burst);
        }
    }

    /// The spin: polls the queue into `burst` until input turns up
    /// (`true`) or `until` passes, yielding the processor between polls.
    fn spin_until(&self, until: SimTime, burst: &mut Vec<ShardIn>) -> bool {
        let mut now = self.clock.now();
        loop {
            let next_poll = now + SPIN_POLL_EVERY;
            while now < next_poll {
                std::thread::yield_now();
                now = self.clock.now();
            }
            if self.inbox.take(burst) {
                return true;
            }
            if now >= until {
                return false;
            }
        }
    }
}

impl Core {
    fn new(net: LoopbackNet, record_upcalls: bool, spin: bool) -> Self {
        Core {
            stacks: BTreeMap::new(),
            sink: EffectSink::with_capacity(64),
            out: Outbox {
                net,
                record_upcalls,
                timers: BTreeMap::new(),
                timer_seq: 0,
                pending_casts: Vec::new(),
                pending_from: None,
                upcalls: Vec::new(),
            },
            wait: WaitCore::new(spin),
            waiting: false,
            after_burst: false,
            bursts: 0,
        }
    }

    /// One step at `now`, handed the burst the thread took (empty if it
    /// took nothing), which it leaves empty: every dispatch decision the
    /// worker makes, and the two rules every executor built from it
    /// inherits.
    ///
    /// **Inputs before timers.**  A burst is dispatched first, and a due
    /// timer fires only in a step handed an empty burst (or once
    /// [`TIMER_PASS_EVERY`] bursts have gone by without one) — one timer,
    /// then [`Next::Poll`], since the frames that timer sent are inputs too.
    /// Frames that piled up while the thread was stalled or descheduled are
    /// older than the `now` a timer is handed, and a layer that compares the
    /// two — NAK's failure detector — must see them first, or it suspects
    /// peers whose traffic is sitting in the queue.
    ///
    /// **Spin, then park.**  With nothing to dispatch and no timer due, the
    /// thread is told what [`WaitCore::next`] says: after a burst, to poll
    /// the queue every [`SPIN_POLL_EVERY`] for the core's current window,
    /// never past the next timer's `due`, yielding its processor between
    /// polls, so the thread that will fill the queue — or the one that just
    /// did — can run; otherwise to block, for at most [`IDLE_WAIT`] or until
    /// that timer.  A step after a timeout, or after a timer that sent
    /// nothing, follows no burst and parks again, so an idle executor burns
    /// nothing; one whose machine has a single hardware thread never spins.
    /// Either way the next step is handed what the wait took, so the first
    /// rule holds across a spin as it does across a park.
    fn step(&mut self, now: SimTime, burst: &mut Vec<ShardIn>) -> Next {
        if std::mem::take(&mut self.waiting) {
            self.wait.ended((!burst.is_empty()).then_some(now));
        }
        if !burst.is_empty() {
            if self.dispatch(now, burst) {
                return Next::Stop;
            }
            self.after_burst = true;
            self.bursts += 1;
            if self.bursts >= TIMER_PASS_EVERY {
                self.bursts = 0;
                while self.fire_due(now) {}
            }
            return Next::Poll;
        }
        self.bursts = 0;
        if self.fire_due(now) {
            return Next::Poll;
        }
        let due = self.out.timers.keys().next().map(|&(due, _)| due);
        let next = self.wait.next(now, std::mem::take(&mut self.after_burst), due);
        self.waiting = next != Next::Poll;
        next
    }

    /// Dispatches `burst` at `now`, in order, draining it; returns `true`
    /// on `Stop`, dropping what follows it.
    ///
    /// Each run of consecutive inputs for one endpoint is fed to
    /// [`Stack::handle_batch`] straight from the burst: one `set_now`, one
    /// reusable sink, one effect walk per run instead of per event.
    fn dispatch(&mut self, now: SimTime, burst: &mut Vec<ShardIn>) -> bool {
        let mut inputs = burst.drain(..).peekable();
        let stop = loop {
            let Some(next) = inputs.next() else { break false };
            match next {
                ShardIn::Input { ep, input } => {
                    let rest = std::iter::from_fn(|| {
                        let next = inputs.next_if(|next| next.is_for(ep))?;
                        let ShardIn::Input { input, .. } = next else {
                            unreachable!("is_for admits inputs only")
                        };
                        Some(input)
                    });
                    self.feed(ep, now, |stack, tracer, sink| {
                        let run = std::iter::once(input).chain(rest);
                        let arrived = |input: &StackInput| trace_arrival(tracer, ep, now, input);
                        stack.handle_batch(run.inspect(arrived), sink);
                    });
                }
                ShardIn::AddStack { stack, log } => self.adopt(*stack, log, now),
                ShardIn::Stats { reply } => {
                    self.out.flush_casts();
                    let stats: Vec<(EndpointAddr, StackStats)> =
                        self.stacks.iter().map(|(&ep, o)| (ep, o.stack.stats().clone())).collect();
                    let _ = reply.send(stats);
                }
                ShardIn::Stop => break true,
            }
        };
        self.out.flush_casts();
        stop
    }

    fn adopt(&mut self, stack: Stack, log: Arc<EpLog>, now: SimTime) {
        let ep = stack.local_addr();
        let tracer = stack.tracer().cloned();
        self.stacks.insert(ep, Owned { stack, log, tracer });
        self.feed(ep, now, |stack, _, sink| sink.extend(stack.init()));
    }

    /// Run-to-completion dispatch into `ep`'s stack: one look-up of the
    /// stack, `inputs` fed to it at `now`, its effects performed.  `inputs`
    /// is handed the stack's trace sink, to record arrivals through.
    fn feed(
        &mut self,
        ep: EndpointAddr,
        now: SimTime,
        inputs: impl FnOnce(&mut Stack, Option<&dyn TraceSink>, &mut EffectSink),
    ) {
        let Some(owned) = self.stacks.get_mut(&ep) else { return };
        owned.stack.set_now(now);
        inputs(&mut owned.stack, owned.tracer.as_deref(), &mut self.sink);
        self.out.apply_effects(ep, now, &owned.log, &mut self.sink);
    }

    /// Fires the earliest timer if it is due at `now`; whether one fired.
    fn fire_due(&mut self, now: SimTime) -> bool {
        let Some(due) = self.out.timers.first_entry().filter(|t| t.key().0 <= now) else {
            return false;
        };
        let (ep, layer, token) = due.remove();
        self.feed(ep, now, |stack, tracer, sink| {
            let input = StackInput::Timer { layer, token, now };
            trace_arrival(tracer, ep, now, &input);
            stack.handle_into(input, sink);
        });
        self.out.flush_casts();
        true
    }
}

/// Records a frame's or a timer's arrival at `ep` through `tracer`, if
/// there is one; other inputs are not recorded here.
fn trace_arrival(
    tracer: Option<&dyn TraceSink>,
    ep: EndpointAddr,
    at: SimTime,
    input: &StackInput,
) {
    let Some(tracer) = tracer else { return };
    let kind = match *input {
        StackInput::FromNet { from, cast, ref wire } => {
            TraceKind::FrameDeliver { from, cast, bytes: wire.len(), digest: 0, seq: 0 }
        }
        StackInput::Timer { layer, token, .. } => {
            TraceKind::TimerFire { layer, token, digest: 0, seq: 0 }
        }
        StackInput::FromApp(_) => return,
    };
    tracer.record(TraceEvent { at, ep, kind });
}

impl Outbox {
    /// Drains the sink, performing the effects `ep` asked for at `now`: a
    /// walk's timers are due together, and fire in arming order.  Casts are
    /// accumulated and flushed in one [`LoopbackNet::cast_batch`] snapshot;
    /// any effect whose transport ordering could interleave with them
    /// flushes first.  The walk's upcalls are moved into `log` under one
    /// lock at its end — a swap when the reader has emptied it — and only
    /// then are its casts published.
    fn apply_effects(
        &mut self,
        ep: EndpointAddr,
        now: SimTime,
        log: &EpLog,
        sink: &mut EffectSink,
    ) {
        if self.pending_from != Some(ep) {
            self.flush_casts();
            self.pending_from = Some(ep);
        }
        let mut casts = 0;
        for fx in sink.drain() {
            match fx {
                Effect::Deliver(up) => {
                    casts += usize::from(matches!(up, Up::Cast { .. }));
                    if self.record_upcalls {
                        self.upcalls.push(up);
                    }
                }
                Effect::NetCast { wire } => self.pending_casts.push(wire),
                Effect::NetSend { dests, wire } => {
                    self.flush_casts_to(ep);
                    self.net.send(ep, &dests, wire);
                }
                Effect::NetJoin { group } => {
                    self.flush_casts_to(ep);
                    self.net.join(group, ep);
                }
                Effect::NetLeave => {
                    self.flush_casts_to(ep);
                    self.net.leave(ep);
                }
                Effect::SetTimer { layer, token, delay } => {
                    self.timers.insert((now + delay, self.timer_seq), (ep, layer, token));
                    self.timer_seq += 1;
                }
            }
        }
        if !self.upcalls.is_empty() {
            let mut recorded = lock(&log.log);
            if recorded.is_empty() {
                std::mem::swap(&mut *recorded, &mut self.upcalls);
            } else {
                recorded.append(&mut self.upcalls);
            }
        }
        if casts > 0 {
            log.casts.fetch_add(casts, Ordering::Release);
        }
    }

    fn flush_casts(&mut self) {
        if let Some(from) = self.pending_from.take() {
            self.flush_casts_to(from);
        }
    }

    fn flush_casts_to(&mut self, from: EndpointAddr) {
        if !self.pending_casts.is_empty() {
            self.net.cast_batch(from, &self.pending_casts);
            self.pending_casts.clear();
        }
    }
}

struct EpEntry {
    shard: usize,
    log: Arc<EpLog>,
    layout: Arc<HeaderLayout>,
}

/// The transport sink for one endpoint: frames go straight into the owning
/// shard's inbox, each built there as the stack input it will be.  A cast
/// burst is queued under one lock with at most one wake-up, which is where
/// the dispatch-boundary batching pays on the receive side.
struct ShardSink {
    ep: EndpointAddr,
    inbox: Arc<Inbox>,
}

impl FrameSink for ShardSink {
    fn deliver(&self, Frame { from, cast, wire }: Frame) -> bool {
        let input = StackInput::FromNet { from, cast, wire };
        self.inbox.push([ShardIn::Input { ep: self.ep, input }])
    }

    fn deliver_many(&self, from: EndpointAddr, wires: &[WireFrame]) -> usize {
        let ep = self.ep;
        let inputs = wires.iter().map(|wire| ShardIn::Input {
            ep,
            input: StackInput::FromNet { from, cast: true, wire: wire.clone() },
        });
        if self.inbox.push(inputs) {
            wires.len()
        } else {
            0
        }
    }
}

/// The sharded executor: `shards` worker threads over one loopback
/// transport, each owning a disjoint set of stacks.
///
/// ```no_run
/// use horus_sim::shard::{ShardConfig, ShardExecutor};
/// use horus_net::LoopbackNet;
/// use horus_core::prelude::*;
/// use std::time::Duration;
///
/// #[derive(Debug, Default, Clone)]
/// struct Nop;
/// impl Layer for Nop { fn name(&self) -> &'static str { "NOP" } }
///
/// let mut ex = ShardExecutor::new(LoopbackNet::new(), ShardConfig::with_shards(2));
/// for i in 1..=2 {
///     let s = StackBuilder::new(EndpointAddr::new(i)).push(Box::new(Nop)).build()?;
///     ex.add_stack(s);
///     ex.down(EndpointAddr::new(i), Down::Join { group: GroupAddr::new(1) });
/// }
/// std::thread::sleep(Duration::from_millis(10));
/// ex.cast_bytes(EndpointAddr::new(1), &b"hi"[..]);
/// assert!(ex.wait_until(Duration::from_secs(1), |ex| {
///     ex.cast_count(EndpointAddr::new(2)) >= 1
/// }));
/// ex.stop();
/// # Ok::<(), HorusError>(())
/// ```
pub struct ShardExecutor {
    clock: Epoch,
    inboxes: Vec<Arc<Inbox>>,
    workers: Vec<JoinHandle<()>>,
    net: LoopbackNet,
    eps: BTreeMap<EndpointAddr, EpEntry>,
    wake: Vec<Arc<WakeCounters>>,
    stopped: bool,
}

impl ShardExecutor {
    /// Spawns the shard workers over `net`.
    pub fn new(net: LoopbackNet, config: ShardConfig) -> Self {
        // Asked once per process: on Linux the answer costs ≈ 20 µs of
        // affinity-mask and cgroup-quota reads, as much as spawning a worker.
        static PARALLELISM: OnceLock<usize> = OnceLock::new();
        let parallelism = *PARALLELISM
            .get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Self::with_parallelism(net, config, parallelism)
    }

    /// [`ShardExecutor::new`] on a machine with `parallelism` hardware
    /// threads: with one, a spinning worker would only keep the sender it
    /// waits for off the processor, so the workers park at once.
    fn with_parallelism(net: LoopbackNet, config: ShardConfig, parallelism: usize) -> Self {
        let n = config.shards.max(1);
        let clock = Epoch(Instant::now());
        let mut inboxes = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        let mut wake = Vec::with_capacity(n);
        for i in 0..n {
            let inbox = Arc::new(Inbox::default());
            let counters = Arc::new(WakeCounters::default());
            let worker = Worker {
                inbox: Arc::clone(&inbox),
                clock,
                core: Core::new(net.clone(), config.record_upcalls, parallelism > 1),
                wake: Arc::clone(&counters),
            };
            inboxes.push(inbox);
            wake.push(counters);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("horus-shard-{i}"))
                    .spawn(move || worker.run())
                    .expect("spawn shard worker"),
            );
        }
        ShardExecutor { clock, inboxes, workers, net, eps: BTreeMap::new(), wake, stopped: false }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inboxes.len()
    }

    /// The transport this executor runs over.
    pub fn net(&self) -> &LoopbackNet {
        &self.net
    }

    /// The shard index that owns (or would own) `ep`.
    pub fn shard_of(&self, ep: EndpointAddr) -> usize {
        (ep.raw() % self.inboxes.len() as u64) as usize
    }

    /// Hands a stack to its owning shard and registers it on the transport
    /// with a sink that delivers frames straight into that shard's queue.
    pub fn add_stack(&mut self, stack: Stack) -> EndpointAddr {
        let ep = stack.local_addr();
        assert!(!self.eps.contains_key(&ep), "endpoint {ep} already added");
        let shard = self.shard_of(ep);
        let layout = stack.layout().clone();
        let log = Arc::new(EpLog::default());
        let inbox = Arc::clone(&self.inboxes[shard]);
        self.net.register_sink(ep, Arc::new(ShardSink { ep, inbox }));
        self.inboxes[shard]
            .push([ShardIn::AddStack { stack: Box::new(stack), log: Arc::clone(&log) }]);
        self.eps.insert(ep, EpEntry { shard, log, layout });
        ep
    }

    fn entry(&self, ep: EndpointAddr) -> &EpEntry {
        self.eps.get(&ep).unwrap_or_else(|| panic!("unknown endpoint {ep}"))
    }

    /// Issues a downcall to `ep`'s stack.
    pub fn down(&self, ep: EndpointAddr, down: Down) {
        let input = StackInput::FromApp(down);
        self.inboxes[self.entry(ep).shard].push([ShardIn::Input { ep, input }]);
    }

    /// Creates a message against `ep`'s stack layout.
    pub fn new_message(&self, ep: EndpointAddr, body: impl Into<Bytes>) -> Message {
        Message::new(self.entry(ep).layout.clone(), body)
    }

    /// Convenience: cast an application payload from `ep`.
    pub fn cast_bytes(&self, ep: EndpointAddr, body: impl Into<Bytes>) {
        let msg = self.new_message(ep, body);
        self.down(ep, Down::Cast(msg));
    }

    /// Monotone count of CAST upcalls delivered to `ep`.  Never ahead of
    /// the recorded upcalls: once this reads `k`,
    /// [`ShardExecutor::take_upcalls`] returns (or has returned) the `k`-th
    /// cast.
    pub fn cast_count(&self, ep: EndpointAddr) -> usize {
        self.entry(ep).log.casts.load(Ordering::Acquire)
    }

    /// Drains `ep`'s recorded upcalls (empty when recording is disabled).
    pub fn take_upcalls(&self, ep: EndpointAddr) -> Vec<Up> {
        std::mem::take(&mut *lock(&self.entry(ep).log.log))
    }

    /// Busy-waits (politely) until `pred` holds or `timeout` elapses;
    /// returns whether the predicate held.
    pub fn wait_until(&self, timeout: Duration, mut pred: impl FnMut(&Self) -> bool) -> bool {
        let deadline = self.clock.now() + timeout;
        while self.clock.now() < deadline {
            if pred(self) {
                return true;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        pred(self)
    }

    /// Every stack's counters, by endpoint (a synchronous round-trip to each
    /// shard worker).
    pub fn stats_by_endpoint(&self) -> BTreeMap<EndpointAddr, StackStats> {
        let mut out = BTreeMap::new();
        for inbox in &self.inboxes {
            let (reply, replied) = mpsc::channel();
            if !inbox.push([ShardIn::Stats { reply }]) {
                continue;
            }
            if let Ok(stats) = replied.recv_timeout(Duration::from_secs(5)) {
                out.extend(stats);
            }
        }
        out
    }

    /// How each shard's worker has waited for input so far (index = shard).
    /// Read from shared counters, not through the queue, so asking does not
    /// itself wake a parked worker.
    pub fn wake_stats(&self) -> Vec<WakeStats> {
        self.wake.iter().map(|w| w.read()).collect()
    }

    /// All shards' counters merged into one.
    pub fn aggregate_stats(&self) -> StackStats {
        let mut total = StackStats::default();
        for stats in self.stats_by_endpoint().values() {
            total.merge(stats);
        }
        total
    }

    /// Stops the workers, then deregisters every endpoint.  In that order:
    /// `Stop` queues behind whatever was handed in before this call, so a
    /// last downcall (a LEAVE, say) still casts from a registered endpoint.
    /// A frame that arrives once a worker has exited finds its queue closed
    /// and is counted by the transport as `dropped_closed`.
    pub fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        for inbox in &self.inboxes {
            inbox.push([ShardIn::Stop]);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        for ep in self.eps.keys() {
            self.net.deregister(*ep);
        }
    }
}

impl Drop for ShardExecutor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, Clone)]
    struct Nop;
    impl Layer for Nop {
        fn name(&self) -> &'static str {
            "NOP"
        }
    }

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn nop_stack(i: u64) -> Stack {
        StackBuilder::new(ep(i)).push(Box::new(Nop)).build().unwrap()
    }

    fn flood(shards: usize) {
        let mut ex = ShardExecutor::new(LoopbackNet::new(), ShardConfig::with_shards(shards));
        let g = GroupAddr::new(1);
        for i in 1..=4 {
            ex.add_stack(nop_stack(i));
            ex.down(ep(i), Down::Join { group: g });
        }
        assert!(ex.wait_until(Duration::from_secs(5), |ex| ex.net().members(g).len() == 4));
        for k in 0..50u8 {
            ex.cast_bytes(ep(1), vec![k]);
        }
        for i in 1..=4 {
            assert!(
                ex.wait_until(Duration::from_secs(5), |ex| ex.cast_count(ep(i)) >= 50),
                "ep {i} saw {}/50 casts under {shards} shards",
                ex.cast_count(ep(i))
            );
        }
        ex.stop();
    }

    #[test]
    fn delivers_across_shards() {
        flood(3);
    }

    #[test]
    fn delivers_with_single_shard() {
        flood(1);
    }

    #[test]
    fn stacks_are_sharded_disjointly() {
        let mut ex = ShardExecutor::new(LoopbackNet::new(), ShardConfig::with_shards(3));
        for i in 1..=9 {
            ex.add_stack(nop_stack(i));
        }
        for i in 1..=9u64 {
            assert_eq!(ex.shard_of(ep(i)), (i % 3) as usize);
        }
        ex.stop();
    }

    #[test]
    fn stats_aggregate_per_shard_and_overall() {
        let mut ex = ShardExecutor::new(LoopbackNet::new(), ShardConfig::with_shards(2));
        let g = GroupAddr::new(1);
        for i in 1..=2 {
            ex.add_stack(nop_stack(i));
            ex.down(ep(i), Down::Join { group: g });
        }
        assert!(ex.wait_until(Duration::from_secs(5), |ex| ex.net().members(g).len() == 2));
        for _ in 0..10 {
            ex.cast_bytes(ep(1), &b"x"[..]);
        }
        assert!(ex.wait_until(Duration::from_secs(5), |ex| ex.cast_count(ep(2)) >= 10));
        let by_ep = ex.stats_by_endpoint();
        assert_eq!(by_ep[&ep(1)].msgs_sent, 10);
        assert_eq!(by_ep[&ep(2)].msgs_received, 10);
        let total = ex.aggregate_stats();
        assert_eq!(total.msgs_sent, 10);
        assert_eq!(total.msgs_received, 20, "loopback + remote delivery");
        // ep(1) is on shard 1, ep(2) on shard 0: per-shard split holds.
        let mut sent_by_shard = [0; 2];
        for (ep, stats) in &by_ep {
            sent_by_shard[ex.shard_of(*ep)] += stats.msgs_sent;
        }
        assert_eq!(sent_by_shard, [0, 10]);
        assert!(total.batches > 0, "batched dispatch must be exercised");
        ex.stop();
    }

    #[test]
    fn upcall_recording_can_be_disabled() {
        let mut ex =
            ShardExecutor::new(LoopbackNet::new(), ShardConfig::default().record_upcalls(false));
        let g = GroupAddr::new(1);
        ex.add_stack(nop_stack(1));
        ex.down(ep(1), Down::Join { group: g });
        assert!(ex.wait_until(Duration::from_secs(5), |ex| ex.net().members(g).len() == 1));
        ex.cast_bytes(ep(1), &b"x"[..]);
        assert!(ex.wait_until(Duration::from_secs(5), |ex| ex.cast_count(ep(1)) >= 1));
        assert!(ex.take_upcalls(ep(1)).is_empty(), "recording disabled");
        ex.stop();
    }

    /// A one-shard executor (as on a machine with `parallelism` hardware
    /// threads) with one joined NOP member, its set-up burst behind it.
    fn lone_member(parallelism: usize) -> ShardExecutor {
        let cfg = ShardConfig::default();
        let mut ex = ShardExecutor::with_parallelism(LoopbackNet::new(), cfg, parallelism);
        ex.add_stack(nop_stack(1));
        ex.down(ep(1), Down::Join { group: GroupAddr::new(1) });
        ex.cast_bytes(ep(1), &b"x"[..]);
        assert!(ex.wait_until(Duration::from_secs(5), |ex| ex.cast_count(ep(1)) >= 1));
        ex
    }

    /// One cast at a time, the next issued the instant the last is seen
    /// delivered: the queue is empty between any two, as at a paced rate.
    /// `seen(count)` runs after each delivery.
    fn ping_pong(ex: &ShardExecutor, rounds: usize, mut seen: impl FnMut(usize)) {
        let before = ex.cast_count(ep(1));
        for k in 1..=rounds {
            ex.cast_bytes(ep(1), &b"x"[..]);
            let give_up = Instant::now() + Duration::from_secs(10);
            while ex.cast_count(ep(1)) < before + k {
                assert!(Instant::now() < give_up, "cast {k} of {rounds} not delivered");
                std::hint::spin_loop();
            }
            seen(before + k);
        }
    }

    #[test]
    fn cast_count_never_runs_ahead_of_the_upcall_log() {
        let mut ex = lone_member(2);
        let casts = |ups: Vec<Up>| ups.iter().filter(|up| matches!(up, Up::Cast { .. })).count();
        let mut taken = casts(ex.take_upcalls(ep(1)));
        ping_pong(&ex, 10_000, |count| {
            taken += casts(ex.take_upcalls(ep(1)));
            assert!(taken >= count, "cast_count read {count} with {taken} casts in the log");
        });
        ex.stop();
    }

    #[test]
    fn one_hardware_thread_never_spins() {
        let mut ex = lone_member(1);
        ping_pong(&ex, 200, |_| {});
        let wake = ex.wake_stats()[0];
        assert_eq!((wake.spins, wake.spin_takes), (0, 0));
        ex.stop();
    }

    /// Ping-pong through a worker that never spins, so a hand-off finds it
    /// parked or about to park.  A push that skipped its notify would leave
    /// the worker asleep until its park timed out, [`IDLE_WAIT`] later: the
    /// rounds must go by faster than a lost wake-up in every other one.
    #[test]
    fn no_wake_up_is_lost_across_ten_thousand_hand_offs() {
        const ROUNDS: u32 = 10_000;
        let mut ex = lone_member(1);
        let parks = ex.wake_stats()[0].parks;
        let (started, budget) = (Instant::now(), IDLE_WAIT * ROUNDS / 2);
        ping_pong(&ex, ROUNDS as usize, |count| {
            assert!(started.elapsed() < budget, "{count} casts in {:?}", started.elapsed());
        });
        let wake = ex.wake_stats()[0];
        assert!(wake.parks > parks, "the worker never parked");
        assert_eq!((wake.spins, wake.spin_takes), (0, 0));
        ex.stop();
    }

    #[test]
    fn an_inbox_closed_by_its_worker_refuses_a_push() {
        let mut ex = lone_member(2);
        let inbox = Arc::clone(&ex.inboxes[0]);
        assert!(inbox.push([ShardIn::Stop]), "the live worker's inbox refused a push");
        ex.stop();
        assert!(!inbox.push([ShardIn::Stop]), "the exited worker's inbox took a push");
    }

    /// Inputs queued by single pushes and by bursts come out of one take in
    /// arrival order, however many there are.
    #[test]
    fn one_take_is_everything_queued_in_arrival_order() {
        const QUEUED: u64 = 200;
        let input = |i: u64| ShardIn::Input { ep: ep(i), input: StackInput::FromApp(Down::Dump) };
        let inbox = Inbox::default();
        for i in 1..=QUEUED / 2 {
            assert!(inbox.push([input(i)]));
        }
        assert!(inbox.push((QUEUED / 2 + 1..=QUEUED).map(input)));
        let mut burst = Vec::new();
        assert!(inbox.take(&mut burst));
        let order: Vec<u64> = burst
            .iter()
            .map(|next| match next {
                ShardIn::Input { ep, .. } => ep.raw(),
                _ => unreachable!("only inputs were queued"),
            })
            .collect();
        assert_eq!(order, (1..=QUEUED).collect::<Vec<_>>());
        burst.clear();
        assert!(!inbox.take(&mut burst), "one take leaves nothing queued");
    }

    // The wait policy, on virtual time: no thread, no sleep.

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    /// After a burst at `at`: a spin that finds nothing, then a park that
    /// input ends at `input` (`None`: it times out).
    fn spin_then_park(core: &mut WaitCore, at: SimTime, input: Option<SimTime>) {
        let Next::SpinUntil(until) = core.next(at, true, None) else {
            panic!("a burst earns a spin");
        };
        core.ended(None);
        assert_eq!(core.next(until, false, None), Next::ParkUntil(until + IDLE_WAIT));
        core.ended(input);
    }

    #[test]
    fn a_park_ended_by_an_early_input_grows_the_window() {
        let (mut core, t) = (WaitCore::new(true), SimTime::ZERO);
        assert_eq!(core.next(t, true, None), Next::SpinUntil(t + SPIN_MIN));
        core.ended(None);
        core.next(t + SPIN_MIN, false, None);
        core.ended(Some(t + us(83)));
        assert_eq!(core.window, us(100));
        assert_eq!(core.next(t + us(90), true, None), Next::SpinUntil(t + us(190)));
    }

    #[test]
    fn a_timeout_or_a_late_input_shrinks_the_window() {
        let (mut core, t) = (WaitCore::new(true), SimTime::ZERO);
        spin_then_park(&mut core, t, Some(t + us(83)));
        spin_then_park(&mut core, t, Some(t + us(83)));
        assert_eq!(core.window, us(200));
        spin_then_park(&mut core, t, None);
        assert_eq!(core.window, us(100), "a park that times out");
        spin_then_park(&mut core, t, Some(t + SPIN_MAX + us(1)));
        assert_eq!(core.window, SPIN_MIN, "an input past the ceiling");
    }

    #[test]
    fn the_window_stays_within_its_bounds() {
        let (mut core, t) = (WaitCore::new(true), SimTime::ZERO);
        for _ in 0..5 {
            spin_then_park(&mut core, t, Some(t + us(10)));
        }
        assert_eq!(core.window, SPIN_MAX);
        for _ in 0..5 {
            spin_then_park(&mut core, t, None);
        }
        assert_eq!(core.window, SPIN_MIN);
    }

    #[test]
    fn a_spin_that_catches_its_input_leaves_the_window_alone() {
        let (mut core, t) = (WaitCore::new(true), SimTime::ZERO);
        spin_then_park(&mut core, t, Some(t + us(83)));
        core.next(t, true, None);
        core.ended(Some(t + us(83)));
        assert_eq!(core.window, us(100));
        // Nor is a park judged by a spin that took input before it.
        core.next(t + us(90), false, None);
        core.ended(None);
        assert_eq!(core.window, us(100));
    }

    #[test]
    fn no_spin_or_park_runs_past_a_timer() {
        let (mut core, t) = (WaitCore::new(true), SimTime::ZERO);
        for _ in 0..2 {
            spin_then_park(&mut core, t, Some(t + us(10)));
        }
        assert_eq!(core.next(t, true, Some(t + us(30))), Next::SpinUntil(t + us(30)));
        core.ended(None);
        assert_eq!(core.next(t + us(30), false, Some(t + us(30))), Next::Poll);
        assert_eq!(core.next(t, true, Some(t)), Next::Poll);
        assert_eq!(core.next(t, false, Some(t + us(30))), Next::ParkUntil(t + us(30)));
    }

    #[test]
    fn no_spin_without_a_burst_or_a_second_hardware_thread() {
        let t = SimTime::ZERO;
        let mut core = WaitCore::new(true);
        assert_eq!(core.next(t, false, None), Next::ParkUntil(t + IDLE_WAIT));
        core.ended(Some(t + us(10)));
        assert_eq!(core.window, SPIN_MIN, "a park after no spin is not judged");
        let mut alone = WaitCore::new(false);
        assert_eq!(alone.next(t, true, None), Next::ParkUntil(t + IDLE_WAIT));
    }

    /// A stream of single inputs `gap` apart, each dispatched in 3 µs and
    /// found 10 µs after it arrived if the worker was parked.  Returns, per
    /// gap, whether the input met a parked worker and the window after it.
    fn stream(gap: Duration, gaps: usize) -> Vec<(bool, Duration)> {
        let (mut core, t) = (WaitCore::new(true), SimTime::ZERO);
        (1..=gaps as u32)
            .map(|k| {
                let (done, input) = (t + gap * (k - 1) + us(3), t + gap * k);
                let Next::SpinUntil(until) = core.next(done, true, None) else {
                    panic!("a burst earns a spin");
                };
                let parked = input > until;
                if parked {
                    core.ended(None);
                    let Next::ParkUntil(woken) = core.next(until, false, None) else {
                        panic!("no timer, so a park");
                    };
                    assert!(input <= woken);
                    core.ended(Some(input + us(10)));
                } else {
                    core.ended(Some(input));
                }
                (parked, core.window)
            })
            .collect()
    }

    #[test]
    fn a_steady_stream_stops_meeting_a_parked_worker() {
        let gaps = stream(us(83), 50);
        assert!(gaps[3..].iter().all(|&(parked, _)| !parked), "{gaps:?}");
        let gaps = stream(us(180), 50);
        assert!(gaps[3..].iter().all(|&(parked, _)| !parked), "{gaps:?}");
    }

    #[test]
    fn sporadic_input_never_grows_the_window() {
        let gaps = stream(Duration::from_millis(1), 50);
        assert!(gaps.iter().all(|&(parked, window)| parked && window == SPIN_MIN), "{gaps:?}");
    }

    // The dispatch rules, on virtual time: a core over a real inbox and
    // loopback, stepped by hand as its thread would step it.  No thread,
    // no clock, no sleep.

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// One shard's core, its inbox, and the upcall logs and layouts of the
    /// stacks it was handed.
    struct Stepper {
        core: Core,
        inbox: Arc<Inbox>,
        burst: Vec<ShardIn>,
        eps: BTreeMap<EndpointAddr, (Arc<EpLog>, Arc<HeaderLayout>)>,
    }

    impl Stepper {
        fn new(net: &LoopbackNet, spin: bool) -> Self {
            let core = Core::new(net.clone(), true, spin);
            Stepper { core, inbox: Arc::default(), burst: Vec::new(), eps: BTreeMap::new() }
        }

        /// Hands `stack` over as [`ShardExecutor::add_stack`] does, and
        /// queues its JOIN to group 1 behind it.
        fn add(&mut self, stack: Stack) {
            let ep = stack.local_addr();
            let log = Arc::new(EpLog::default());
            let inbox = Arc::clone(&self.inbox);
            self.core.out.net.register_sink(ep, Arc::new(ShardSink { ep, inbox }));
            self.eps.insert(ep, (Arc::clone(&log), stack.layout().clone()));
            let join = StackInput::FromApp(Down::Join { group: GroupAddr::new(1) });
            let stack = Box::new(stack);
            self.inbox.push([ShardIn::AddStack { stack, log }, ShardIn::Input { ep, input: join }]);
        }

        /// Queues a cast from `ep`'s application.
        fn cast(&self, ep: EndpointAddr) {
            let msg = Message::new(self.eps[&ep].1.clone(), &b"app"[..]);
            let input = StackInput::FromApp(Down::Cast(msg));
            self.inbox.push([ShardIn::Input { ep, input }]);
        }

        /// One step at `now`, handed whatever is queued — what the
        /// thread's take, spin or park would have taken.
        fn step(&mut self, now: SimTime) -> Next {
            self.inbox.take(&mut self.burst);
            self.core.step(now, &mut self.burst)
        }

        /// Steps at `now` until the core asks for a wait, and returns it.
        fn settle(&mut self, now: SimTime) -> Next {
            loop {
                match self.step(now) {
                    Next::Poll => {}
                    next => return next,
                }
            }
        }

        /// Takes `ep`'s upcalls so far.
        fn upcalls(&self, ep: EndpointAddr) -> Vec<Up> {
            std::mem::take(&mut *lock(&self.eps[&ep].0.log))
        }
    }

    /// Arms one timer per token, each `delay` from init, and reports each
    /// as a `DumpInfo` upcall when it fires.
    #[derive(Debug, Clone)]
    struct Ties {
        tokens: u64,
        delay: Duration,
    }

    impl Layer for Ties {
        fn name(&self) -> &'static str {
            "TIES"
        }
        fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
            for token in 0..self.tokens {
                ctx.set_timer(self.delay, token);
            }
        }
        fn on_timer(&mut self, token: u64, ctx: &mut LayerCtx<'_>) {
            ctx.up(Up::DumpInfo { layer: "TIES", info: token.to_string() });
        }
    }

    fn ties(i: u64, tokens: u64, delay: Duration) -> Stack {
        StackBuilder::new(ep(i)).push(Box::new(Ties { tokens, delay })).build().unwrap()
    }

    /// The tokens of the timers fired at `ep` so far, in firing order.
    fn fired(s: &Stepper, ep: EndpointAddr) -> Vec<u64> {
        let ups = s.upcalls(ep);
        ups.iter()
            .filter_map(|up| match up {
                Up::DumpInfo { layer: "TIES", info } => info.parse().ok(),
                _ => None,
            })
            .collect()
    }

    /// The thread is told to sleep until the next timer and no longer, and
    /// the timer fires at the first step whose clock has reached it.
    #[test]
    fn a_timer_fires_at_the_first_step_that_reaches_it() {
        let mut s = Stepper::new(&LoopbackNet::new(), false);
        s.add(ties(1, 1, Duration::from_millis(5)));
        assert_eq!(s.settle(ms(0)), Next::ParkUntil(ms(5)));
        assert_eq!(s.settle(ms(4)), Next::ParkUntil(ms(5)), "a spurious wake-up");
        assert!(fired(&s, ep(1)).is_empty(), "fired a millisecond early");
        assert_eq!(s.settle(ms(5)), Next::ParkUntil(ms(5) + IDLE_WAIT));
        assert_eq!(fired(&s, ep(1)), [0]);
    }

    /// Timers armed in one walk are due together and fire in arming order,
    /// one a step: after each, the thread is sent back to its queue.
    #[test]
    fn timers_armed_together_fire_in_arming_order() {
        let mut s = Stepper::new(&LoopbackNet::new(), false);
        s.add(ties(1, 16, Duration::from_millis(1)));
        s.settle(ms(0));
        for token in 0..16 {
            assert_eq!(s.step(ms(1)), Next::Poll);
            assert_eq!(fired(&s, ep(1)), [token], "one timer a step, in arming order");
        }
        assert_eq!(s.step(ms(1)), Next::ParkUntil(ms(1) + IDLE_WAIT));
    }

    /// With no burst to follow, an idle core parks; a burst earns one spin,
    /// which finds nothing, and parks follow it.
    #[test]
    fn an_idle_core_parks_and_a_burst_earns_one_spin() {
        let mut s = Stepper::new(&LoopbackNet::new(), true);
        assert_eq!(s.step(ms(0)), Next::ParkUntil(ms(0) + IDLE_WAIT), "no burst, so no spin");
        s.add(nop_stack(1));
        assert_eq!(s.step(ms(1)), Next::Poll);
        assert_eq!(s.step(ms(1)), Next::SpinUntil(ms(1) + SPIN_MIN));
        let spun = ms(1) + SPIN_MIN;
        assert_eq!(s.step(spun), Next::ParkUntil(spun + IDLE_WAIT));
        assert_eq!(s.step(spun + IDLE_WAIT), Next::ParkUntil(spun + IDLE_WAIT * 2));
    }

    /// How long a [`Watch`] hears nothing from its peer before it suspects
    /// it, and how often it beats.
    const SILENCE: Duration = Duration::from_millis(25);
    const BEAT: Duration = Duration::from_millis(20);

    /// A stand-in for NAK's failure detector: every [`BEAT`] it casts a
    /// heartbeat, and raises `Problem` when the timer's `now` is more than
    /// [`SILENCE`] past the last frame it heard from `peer`.
    #[derive(Debug, Clone)]
    struct Watch {
        peer: EndpointAddr,
        heard: SimTime,
    }

    impl Layer for Watch {
        fn name(&self) -> &'static str {
            "WATCH"
        }
        fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
            ctx.set_timer(BEAT, 0);
        }
        fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
            if matches!(ev, Up::Cast { src, .. } if src == self.peer) {
                self.heard = ctx.now();
            }
            ctx.up(ev);
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut LayerCtx<'_>) {
            if ctx.now().saturating_since(self.heard) > SILENCE {
                ctx.up(Up::Problem { member: self.peer });
            }
            let beat = ctx.new_message(&b"beat"[..]);
            ctx.down(Down::Cast(beat));
            ctx.set_timer(BEAT, 0);
        }
    }

    fn watch(i: u64, peer: u64) -> Stack {
        let watch = Watch { peer: ep(peer), heard: SimTime::ZERO };
        StackBuilder::new(ep(i)).push(Box::new(watch)).build().unwrap()
    }

    /// The members `ep` has raised `Problem` for so far.
    fn problems(s: &Stepper, ep: EndpointAddr) -> Vec<EndpointAddr> {
        let ups = s.upcalls(ep);
        ups.iter()
            .filter_map(|up| match up {
                Up::Problem { member } => Some(*member),
                _ => None,
            })
            .collect()
    }

    /// How many timers `ep`'s one layer has been handed.
    fn timers_fired(s: &Stepper, ep: EndpointAddr) -> u64 {
        s.core.stacks[&ep].stack.stats().per_layer[0].timers
    }

    /// Inputs before timers: a shard stalled for three beats finds its
    /// peer's heartbeats queued and its own timer long due, and dispatches
    /// the heartbeats first, so it does not suspect a live peer.  The peer,
    /// on a shard that kept running, rightly suspects the stalled one.
    #[test]
    fn a_stalled_shard_dispatches_queued_frames_before_its_due_timer() {
        let net = LoopbackNet::new();
        let (mut stalled, mut live) = (Stepper::new(&net, false), Stepper::new(&net, false));
        stalled.add(watch(1, 2));
        live.add(watch(2, 1));
        stalled.settle(ms(0));
        live.settle(ms(0));
        for beat in 1..=3 {
            live.settle(SimTime::ZERO + BEAT * beat);
        }
        assert!(problems(&live, ep(2)).contains(&ep(1)), "the stand-in detects silence");
        let queued = lock(&stalled.inbox.state).items.len();
        assert_eq!(queued, 3, "the live peer's heartbeats wait in the stalled inbox");
        stalled.settle(SimTime::ZERO + BEAT * 3);
        assert_eq!(timers_fired(&stalled, ep(1)), 1);
        assert!(problems(&stalled, ep(1)).is_empty(), "a live peer suspected after a stall");
    }

    /// One timer, then the queue: two members' timers come due together;
    /// the first one's heartbeat reaches the second before the second's
    /// own timer fires, so neither suspects the other.
    #[test]
    fn frames_a_timer_sent_are_dispatched_before_the_next_due_timer() {
        let mut s = Stepper::new(&LoopbackNet::new(), false);
        s.add(watch(1, 2));
        s.add(watch(2, 1));
        s.settle(ms(0));
        // Both timers fell due at `BEAT`; the thread comes back past
        // `SILENCE`, with one application cast from member 2 queued.
        s.cast(ep(2));
        let late = SimTime::ZERO + SILENCE + Duration::from_millis(1);
        s.settle(late);
        for (i, peer) in [(1, 2), (2, 1)] {
            assert_eq!(timers_fired(&s, ep(i)), 1);
            assert!(problems(&s, ep(i)).is_empty(), "member {i} suspected member {peer}");
        }
    }

    /// The pass: a queue that is never seen empty still lets a due timer
    /// fire within 16 bursts ([`TIMER_PASS_EVERY`]).
    #[test]
    fn a_due_timer_fires_though_the_queue_is_never_empty() {
        let mut s = Stepper::new(&LoopbackNet::new(), false);
        s.add(ties(1, 1, Duration::from_millis(1)));
        s.settle(ms(0));
        for _ in 0..16 {
            s.cast(ep(1));
            assert_eq!(s.step(ms(1)), Next::Poll);
        }
        assert_eq!(fired(&s, ep(1)), [0], "starved by a busy queue");
    }
}
