//! An in-process, multi-threaded loopback transport.
//!
//! Used by the real-time executor and benchmarks (the §10 dispatch-model
//! ablation): frames move between endpoint threads through the sinks the
//! endpoints registered, with no simulated physics — the closest
//! in-process analogue to the paper's "almost no overhead at all" ATM
//! configuration.
//!
//! Two hot-path properties matter for the sharded executor built on top:
//!
//! * **Short critical sections** — `cast`/`send` snapshot the destination
//!   sinks under the registry lock and deliver *outside* it, under a
//!   per-group fan-out lock.  A slow receiver sink can only stall senders
//!   in its own group, never unrelated ones — while members of one group
//!   still observe concurrent casts in a single consistent order (the
//!   transport-level atomic-multicast property the membership and flush
//!   protocols rely on).
//! * **Batched fan-out** — [`LoopbackNet::cast_batch`] amortizes the
//!   registry snapshot over a whole burst of frames: one lock acquisition
//!   per burst instead of one per frame.

use horus_core::addr::{EndpointAddr, GroupAddr};
use horus_core::frame::WireFrame;
use horus_core::lock;
use horus_core::time::SimTime;
use horus_core::trace::{DropReason, TraceEvent, TraceKind, TraceSink};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A frame as delivered by the loopback transport.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Transport-level sender.
    pub from: EndpointAddr,
    /// Multicast (`true`) or point-to-point.
    pub cast: bool,
    /// The encoded message.
    pub wire: WireFrame,
}

/// Where a registered endpoint's frames go: whatever the endpoint's owner
/// hands [`LoopbackNet::register_sink`].  The sharded executor registers a
/// sink that pushes frames straight into the owning shard's input queue, so
/// no thread sits between the transport and the stack.
pub trait FrameSink: Send + Sync {
    /// Delivers one frame; `false` means the receiver is gone (its frames
    /// are counted as dropped-on-closed-channel).
    fn deliver(&self, frame: Frame) -> bool;

    /// Delivers a burst of casts from `from`; returns how many were
    /// queued.  The default delivers one at a time; queue-backed sinks
    /// override it to publish the whole burst under a single lock
    /// acquisition and a single consumer wake-up.
    fn deliver_many(&self, from: EndpointAddr, wires: &[WireFrame]) -> usize {
        let frame = |wire: &WireFrame| Frame { from, cast: true, wire: wire.clone() };
        wires.iter().map(|wire| usize::from(self.deliver(frame(wire)))).sum()
    }
}

impl<F: Fn(Frame) -> bool + Send + Sync> FrameSink for F {
    fn deliver(&self, frame: Frame) -> bool {
        self(frame)
    }
}

#[derive(Default)]
struct Group {
    members: Vec<EndpointAddr>,
    /// Serializes fan-outs *within* this group (held outside the registry
    /// lock).  Guarantees every member observes concurrent casts in the same
    /// relative order — the transport-level atomic-multicast property the
    /// membership/flush protocols rely on — without letting one group's slow
    /// receiver sink stall senders in unrelated groups.
    fanout: Arc<Mutex<()>>,
}

#[derive(Default)]
struct Registry {
    endpoints: BTreeMap<EndpointAddr, Arc<dyn FrameSink>>,
    groups: BTreeMap<GroupAddr, Group>,
    member_of: BTreeMap<EndpointAddr, GroupAddr>,
}

/// Transport counters — the `horus-net::sim` [`crate::NetStats`] counterpart
/// for the threaded loopback (there is no physics here, so the only drop
/// class is a closed/deregistered receiver), as [`LoopbackNet::stats`]
/// reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopbackStats {
    /// Frames handed to `cast`.
    pub frames_cast: u64,
    /// Frames handed to `send`.
    pub frames_sent: u64,
    /// Point deliveries queued (one cast to N members counts N).
    pub deliveries: u64,
    /// Deliveries dropped because the receiver's sink was closed
    /// (deregistered between snapshot and delivery).
    pub dropped_closed: u64,
    /// Deliveries skipped because the destination was never registered (a
    /// group member or explicit `send` target with no sink installed).
    pub dropped_unregistered: u64,
}

/// [`LoopbackStats`] as the transport writes them.  Delivery counters are
/// bumped outside the registry lock, on the lock-free section of the
/// fan-out; `dropped_unregistered` is bumped during the snapshot (where the
/// gap is observed).
#[derive(Debug, Default)]
struct LoopbackCounters {
    frames_cast: AtomicU64,
    frames_sent: AtomicU64,
    deliveries: AtomicU64,
    dropped_closed: AtomicU64,
    dropped_unregistered: AtomicU64,
}

impl LoopbackCounters {
    fn read(&self) -> LoopbackStats {
        LoopbackStats {
            frames_cast: self.frames_cast.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            deliveries: self.deliveries.load(Ordering::Relaxed),
            dropped_closed: self.dropped_closed.load(Ordering::Relaxed),
            dropped_unregistered: self.dropped_unregistered.load(Ordering::Relaxed),
        }
    }
}

/// The installed trace sink plus the wall-clock epoch its timestamps are
/// relative to (the loopback has no virtual clock).
struct LoopbackTracer {
    sink: Arc<dyn TraceSink>,
    epoch: Instant,
}

/// A shared in-process transport; clone handles freely across threads.
///
/// ```
/// use horus_net::threaded::Frame;
/// use horus_net::LoopbackNet;
/// use horus_core::{EndpointAddr, GroupAddr, WireFrame};
/// use bytes::Bytes;
/// use std::sync::{Arc, Mutex};
///
/// let net = LoopbackNet::new();
/// let a = EndpointAddr::new(1);
/// let b = EndpointAddr::new(2);
/// let heard = Arc::new(Mutex::new(Vec::new()));
/// for ep in [a, b] {
///     let heard = heard.clone();
///     net.register_sink(ep, Arc::new(move |f: Frame| {
///         heard.lock().unwrap().push((ep, f.wire.to_bytes()));
///         true
///     }));
/// }
/// let g = GroupAddr::new(9);
/// net.join(g, a);
/// net.join(g, b);
/// net.cast(a, WireFrame::raw(Bytes::from_static(b"hello")));
/// let hello = Bytes::from_static(b"hello");
/// // Every member hears it, the sender's own loopback copy included.
/// assert_eq!(*heard.lock().unwrap(), vec![(a, hello.clone()), (b, hello)]);
/// ```
#[derive(Clone, Default)]
pub struct LoopbackNet {
    inner: Arc<Mutex<Registry>>,
    stats: Arc<LoopbackCounters>,
    /// Observes only the transport's drop classes (unroutable/closed) — the
    /// success path is traced at the stacks, keeping this entirely off the
    /// delivery hot path.
    tracer: Arc<Mutex<Option<LoopbackTracer>>>,
}

impl std::fmt::Debug for LoopbackNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackNet").field("stats", &self.stats.read()).finish()
    }
}

impl LoopbackNet {
    /// Creates an empty transport.
    pub fn new() -> Self {
        LoopbackNet::default()
    }

    /// Transport counters (frames cast/sent, deliveries, drops).
    pub fn stats(&self) -> LoopbackStats {
        self.stats.read()
    }

    /// Installs a trace sink observing this transport's drop classes.
    /// Timestamps are elapsed time since installation.
    pub fn set_tracer(&self, sink: Arc<dyn TraceSink>) {
        *lock(&self.tracer) = Some(LoopbackTracer { sink, epoch: Instant::now() });
    }

    /// Removes the trace sink.
    pub fn clear_tracer(&self) {
        *lock(&self.tracer) = None;
    }

    /// Records an unroutable-frame drop against `ep` (the destination when
    /// known, the sender for closed-channel drops observed mid-fan-out).
    fn trace_drop(&self, ep: EndpointAddr) {
        let guard = lock(&self.tracer);
        if let Some(t) = guard.as_ref() {
            t.sink.record(TraceEvent {
                at: SimTime::from_nanos(t.epoch.elapsed().as_nanos() as u64),
                ep,
                kind: TraceKind::FrameDrop { digest: 0, seq: 0, reason: DropReason::Unroutable },
            });
        }
    }

    /// Registers an endpoint: its frames go to `sink` (e.g. a shard queue).
    /// Re-registering an address replaces the previous sink.
    pub fn register_sink(&self, ep: EndpointAddr, sink: Arc<dyn FrameSink>) {
        lock(&self.inner).endpoints.insert(ep, sink);
    }

    /// Removes an endpoint entirely (its sink is dropped).
    pub fn deregister(&self, ep: EndpointAddr) {
        let mut reg = lock(&self.inner);
        reg.endpoints.remove(&ep);
        if let Some(g) = reg.member_of.remove(&ep) {
            if let Some(group) = reg.groups.get_mut(&g) {
                group.members.retain(|&m| m != ep);
            }
        }
    }

    /// Adds `ep` to the transport-level multicast group.
    pub fn join(&self, group: GroupAddr, ep: EndpointAddr) {
        let mut reg = lock(&self.inner);
        let entry = reg.groups.entry(group).or_default();
        if !entry.members.contains(&ep) {
            entry.members.push(ep);
        }
        reg.member_of.insert(ep, group);
    }

    /// Removes `ep` from its multicast group (but keeps it registered).
    pub fn leave(&self, ep: EndpointAddr) {
        let mut reg = lock(&self.inner);
        if let Some(g) = reg.member_of.remove(&ep) {
            if let Some(group) = reg.groups.get_mut(&g) {
                group.members.retain(|&m| m != ep);
            }
        }
    }

    /// Snapshots the sinks of `from`'s group members (and the group's
    /// fan-out lock) under the registry lock.  Members with no registered
    /// sink are skipped — counted, not silently dropped — so a misconfigured
    /// harness (join before register) shows up in the stats instead of as a
    /// mystery hang.
    #[allow(clippy::type_complexity)]
    fn cast_targets(
        &self,
        from: EndpointAddr,
    ) -> Option<(Vec<Arc<dyn FrameSink>>, Arc<Mutex<()>>)> {
        let reg = lock(&self.inner);
        let group = reg.member_of.get(&from)?;
        let group = reg.groups.get(group)?;
        let mut sinks = Vec::with_capacity(group.members.len());
        for to in &group.members {
            match reg.endpoints.get(to) {
                Some(sink) => sinks.push(Arc::clone(sink)),
                None => {
                    self.stats.dropped_unregistered.fetch_add(1, Ordering::Relaxed);
                    self.trace_drop(*to);
                }
            }
        }
        Some((sinks, Arc::clone(&group.fanout)))
    }

    /// Multicasts a frame to `from`'s group, including a loopback copy.
    /// Returns the number of endpoints the frame was queued for.
    ///
    /// The registry lock is held only to snapshot the member sinks; the
    /// sends happen outside it under the group's own fan-out lock, so one
    /// slow receiver sink cannot stall senders in unrelated groups — while
    /// members of the *same* group still observe concurrent casts in one
    /// consistent order (fan-outs within a group are atomic).
    pub fn cast(&self, from: EndpointAddr, wire: WireFrame) -> usize {
        self.stats.frames_cast.fetch_add(1, Ordering::Relaxed);
        let Some((targets, fanout)) = self.cast_targets(from) else { return 0 };
        let mut queued = 0;
        {
            let _order = lock(&fanout);
            for sink in &targets {
                if sink.deliver(Frame { from, cast: true, wire: wire.clone() }) {
                    queued += 1;
                } else {
                    self.stats.dropped_closed.fetch_add(1, Ordering::Relaxed);
                    self.trace_drop(from);
                }
            }
        }
        self.stats.deliveries.fetch_add(queued as u64, Ordering::Relaxed);
        queued
    }

    /// Multicasts a burst of frames to `from`'s group with a single registry
    /// snapshot — the dispatch-boundary batching of the sharded executor.
    /// Each member sink is handed the whole slice through
    /// [`FrameSink::deliver_many`]: one lock acquisition and one wake-up per
    /// member per burst, instead of one per frame.
    pub fn cast_batch(&self, from: EndpointAddr, wires: &[WireFrame]) -> usize {
        self.stats.frames_cast.fetch_add(wires.len() as u64, Ordering::Relaxed);
        if wires.is_empty() {
            return 0;
        }
        let Some((targets, fanout)) = self.cast_targets(from) else { return 0 };
        let mut queued = 0;
        {
            let _order = lock(&fanout);
            for sink in &targets {
                let delivered = sink.deliver_many(from, wires);
                queued += delivered;
                let refused = wires.len() - delivered;
                if refused > 0 {
                    self.stats.dropped_closed.fetch_add(refused as u64, Ordering::Relaxed);
                    (0..refused).for_each(|_| self.trace_drop(from));
                }
            }
        }
        self.stats.deliveries.fetch_add(queued as u64, Ordering::Relaxed);
        queued
    }

    /// Sends a frame to explicit destinations.  As with [`LoopbackNet::cast`],
    /// the destination sinks are snapshotted under the registry lock and the
    /// sends performed outside it; when the sender belongs to a group, the
    /// delivery runs under that group's fan-out lock so point-to-point
    /// control traffic stays ordered with the group's multicasts.
    pub fn send(&self, from: EndpointAddr, dests: &[EndpointAddr], wire: WireFrame) -> usize {
        self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        let (targets, fanout) = {
            let reg = lock(&self.inner);
            let mut targets: Vec<Arc<dyn FrameSink>> = Vec::with_capacity(dests.len());
            for to in dests {
                match reg.endpoints.get(to) {
                    Some(sink) => targets.push(Arc::clone(sink)),
                    None => {
                        self.stats.dropped_unregistered.fetch_add(1, Ordering::Relaxed);
                        self.trace_drop(*to);
                    }
                }
            }
            let fanout = reg
                .member_of
                .get(&from)
                .and_then(|g| reg.groups.get(g))
                .map(|group| Arc::clone(&group.fanout));
            (targets, fanout)
        };
        let _order = fanout.as_ref().map(|f| lock(f));
        let mut queued = 0;
        for sink in &targets {
            if sink.deliver(Frame { from, cast: false, wire: wire.clone() }) {
                queued += 1;
            } else {
                self.stats.dropped_closed.fetch_add(1, Ordering::Relaxed);
                self.trace_drop(from);
            }
        }
        self.stats.deliveries.fetch_add(queued as u64, Ordering::Relaxed);
        queued
    }

    /// Current transport-level members of a group.
    pub fn members(&self, group: GroupAddr) -> Vec<EndpointAddr> {
        lock(&self.inner).groups.get(&group).map(|g| g.members.clone()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::time::{Duration, Instant};

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn raw(b: &'static [u8]) -> WireFrame {
        WireFrame::raw(Bytes::from_static(b))
    }

    /// A sink that keeps what it is handed.
    #[derive(Default)]
    struct Inbox(Mutex<Vec<Frame>>);

    impl FrameSink for Inbox {
        fn deliver(&self, frame: Frame) -> bool {
            lock(&self.0).push(frame);
            true
        }
    }

    impl Inbox {
        fn take(&self) -> Vec<Frame> {
            std::mem::take(&mut *lock(&self.0))
        }
    }

    /// Registers `ep` with an [`Inbox`] of its own.
    fn inbox(net: &LoopbackNet, ep: EndpointAddr) -> Arc<Inbox> {
        let inbox = Arc::new(Inbox::default());
        net.register_sink(ep, inbox.clone());
        inbox
    }

    #[test]
    fn cast_fans_out_to_group() {
        let net = LoopbackNet::new();
        let g = GroupAddr::new(1);
        let inboxes: Vec<_> = (1..=3)
            .map(|i| {
                net.join(g, ep(i));
                inbox(&net, ep(i))
            })
            .collect();
        assert_eq!(net.cast(ep(1), raw(b"m")), 3);
        for inbox in &inboxes {
            let got = inbox.take();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].from, ep(1));
            assert!(got[0].cast);
        }
        let s = net.stats();
        assert_eq!(s.frames_cast, 1);
        assert_eq!(s.deliveries, 3);
    }

    #[test]
    fn cast_batch_amortizes_the_snapshot() {
        let net = LoopbackNet::new();
        let g = GroupAddr::new(1);
        let inboxes: Vec<_> = (1..=2)
            .map(|i| {
                net.join(g, ep(i));
                inbox(&net, ep(i))
            })
            .collect();
        let wires: Vec<WireFrame> = (0..10).map(|_| raw(b"b")).collect();
        assert_eq!(net.cast_batch(ep(1), &wires), 20);
        for inbox in &inboxes {
            assert_eq!(inbox.take().len(), 10);
        }
        let s = net.stats();
        assert_eq!(s.frames_cast, 10);
        assert_eq!(s.deliveries, 20);
    }

    #[test]
    fn send_targets_only_destinations() {
        let net = LoopbackNet::new();
        let in1 = inbox(&net, ep(1));
        let in2 = inbox(&net, ep(2));
        assert_eq!(net.send(ep(1), &[ep(2)], raw(b"s")), 1);
        let got = in2.take();
        assert_eq!(got.len(), 1);
        assert!(!got[0].cast);
        assert!(in1.take().is_empty());
        assert_eq!(net.stats().frames_sent, 1);
    }

    #[test]
    fn deregister_stops_delivery() {
        let net = LoopbackNet::new();
        let g = GroupAddr::new(1);
        let _in1 = inbox(&net, ep(1));
        let in2 = inbox(&net, ep(2));
        net.join(g, ep(1));
        net.join(g, ep(2));
        net.deregister(ep(2));
        assert_eq!(net.cast(ep(1), raw(b"m")), 1);
        assert!(in2.take().is_empty());
    }

    #[test]
    fn delivery_to_a_closed_sink_counts_as_closed_drop() {
        let net = LoopbackNet::new();
        let g = GroupAddr::new(1);
        let _in1 = inbox(&net, ep(1));
        // ep(2) is still registered, but its sink reports its receiver
        // gone: the dropped-on-closed-channel class.
        net.register_sink(ep(2), Arc::new(|_: Frame| false));
        net.join(g, ep(1));
        net.join(g, ep(2));
        assert_eq!(net.cast(ep(1), raw(b"m")), 1);
        assert_eq!(net.cast_batch(ep(1), &[raw(b"m"), raw(b"m")]), 2);
        let s = net.stats();
        assert_eq!(s.deliveries, 3);
        assert_eq!(s.dropped_closed, 3);
    }

    #[test]
    fn unregistered_destination_counts_as_unregistered_drop() {
        let net = LoopbackNet::new();
        let g = GroupAddr::new(1);
        let _in1 = inbox(&net, ep(1));
        net.join(g, ep(1));
        // ep(2) joined but never registered: a harness ordering bug.
        net.join(g, ep(2));
        assert_eq!(net.cast(ep(1), raw(b"m")), 1);
        assert_eq!(net.send(ep(1), &[ep(2), ep(3)], raw(b"s")), 0);
        let s = net.stats();
        assert_eq!(s.dropped_unregistered, 3);
        assert_eq!(s.dropped_closed, 0);
    }

    /// The regression the snapshot-then-send discipline exists for: a
    /// receiver whose sink is slow (blocking in `deliver`) must not hold the
    /// registry lock and thereby stall senders between unrelated endpoints.
    #[test]
    fn slow_receiver_does_not_stall_unrelated_senders() {
        let net = LoopbackNet::new();
        let g = GroupAddr::new(1);
        let _in1 = inbox(&net, ep(1));
        net.register_sink(
            ep(2),
            Arc::new(|_f: Frame| {
                std::thread::sleep(Duration::from_millis(200));
                true
            }),
        );
        net.join(g, ep(1));
        net.join(g, ep(2));
        // Unrelated pair in its own group.
        let _in3 = inbox(&net, ep(3));
        let in4 = inbox(&net, ep(4));
        let g2 = GroupAddr::new(2);
        net.join(g2, ep(3));
        net.join(g2, ep(4));

        // A cast into the slow sink, running on another thread, holds no lock
        // while it sleeps...
        let slow_net = net.clone();
        let slow = std::thread::spawn(move || {
            slow_net.cast(ep(1), raw(b"slow"));
        });
        std::thread::sleep(Duration::from_millis(20)); // let it enter the sleep
                                                       // ...so the unrelated sender completes immediately.
        let t0 = Instant::now();
        assert_eq!(net.cast(ep(3), raw(b"fast")), 2);
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(100),
            "unrelated cast stalled behind a slow receiver: {elapsed:?}"
        );
        assert_eq!(in4.take()[0].from, ep(3));
        slow.join().unwrap();
    }

    #[test]
    fn works_across_threads() {
        let net = LoopbackNet::new();
        let g = GroupAddr::new(1);
        let in2 = inbox(&net, ep(2));
        net.join(g, ep(1));
        net.join(g, ep(2));
        let net2 = net.clone();
        // The sender's own loopback copy needs a sink too.
        let _in1 = inbox(&net, ep(1));
        let h = std::thread::spawn(move || {
            for _ in 0..100 {
                net2.cast(ep(1), raw(b"m"));
            }
        });
        h.join().unwrap();
        assert_eq!(in2.take().len(), 100);
        let s = net.stats();
        assert_eq!(s.frames_cast, 100);
        assert_eq!(s.deliveries, 200);
    }
}
