//! An in-process, multi-threaded loopback transport.
//!
//! Used by the real-time executor and benchmarks (the §10 dispatch-model
//! ablation): frames move between endpoint threads through the sinks the
//! endpoints registered, with no simulated physics — the closest
//! in-process analogue to the paper's "almost no overhead at all" ATM
//! configuration.
//!
//! The transport is one registry under one lock: the group membership, the
//! sinks, the counters and the tracer.  `cast`, `cast_batch` and `send`
//! hand their frames to the sinks under that lock, so members of one group
//! observe concurrent casts and sends in one order (the transport-level
//! atomic multicast the membership and flush protocols rely on).  Because
//! sinks run under that lock, a sink must not block or call back into the
//! transport; the sharded executor's sink is a non-blocking push into a
//! shard's inbox.
//! [`LoopbackNet::cast_batch`] hands a member a whole burst of frames in
//! one call: one lock acquisition per burst instead of one per frame.

use crate::topology::Topology;
use horus_core::addr::{EndpointAddr, GroupAddr};
use horus_core::frame::WireFrame;
use horus_core::lock;
use horus_core::time::SimTime;
use horus_core::trace::{DropReason, TraceEvent, TraceKind, TraceSink};
use std::collections::BTreeMap;
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
///
/// The transport calls a sink under its one lock, so a sink must not block
/// and must not call back into the transport.
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

/// Transport counters — the `horus-net::sim` [`crate::NetStats`] counterpart
/// for the threaded loopback (there is no physics here, so the only drop
/// classes are a closed or unregistered receiver), as [`LoopbackNet::stats`]
/// reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopbackStats {
    /// Frames handed to `cast`.
    pub frames_cast: u64,
    /// Frames handed to `send`.
    pub frames_sent: u64,
    /// Point deliveries queued (one cast to N members counts N).
    pub deliveries: u64,
    /// Deliveries refused by a registered sink whose receiver is gone.
    pub dropped_closed: u64,
    /// Deliveries skipped because the destination was never registered (a
    /// group member or explicit `send` target with no sink installed).
    pub dropped_unregistered: u64,
}

/// The installed trace sink plus the wall-clock epoch its timestamps are
/// relative to (the loopback has no virtual clock).
struct LoopbackTracer {
    sink: Arc<dyn TraceSink>,
    epoch: Instant,
}

/// Everything the transport knows, under its one lock.
#[derive(Default)]
struct Registry {
    topo: Topology,
    out: Outlets,
}

/// The registered sinks and what happened at them: the registry apart from
/// its topology, so a fan-out can read one while it writes the other.
#[derive(Default)]
struct Outlets {
    sinks: BTreeMap<EndpointAddr, Arc<dyn FrameSink>>,
    stats: LoopbackStats,
    /// Observes only the transport's drop classes (unroutable/closed) — the
    /// success path is traced at the stacks.
    tracer: Option<LoopbackTracer>,
}

impl Outlets {
    /// Records an unroutable-frame drop against `ep` (the destination when
    /// known, the sender for closed-channel drops).
    fn trace_drop(&self, ep: EndpointAddr) {
        if let Some(t) = &self.tracer {
            t.sink.record(TraceEvent {
                at: SimTime::from_nanos(t.epoch.elapsed().as_nanos() as u64),
                ep,
                kind: TraceKind::FrameDrop { digest: 0, seq: 0, reason: DropReason::Unroutable },
            });
        }
    }

    /// Hands `to` what `deliver` queues from `from`, out of `frames`;
    /// returns how many were queued.  A destination with no registered sink
    /// is counted, not silently dropped, so a misconfigured harness (join
    /// before register) shows up in the stats instead of as a mystery hang.
    fn deliver(
        &mut self,
        from: EndpointAddr,
        to: EndpointAddr,
        frames: usize,
        deliver: impl FnOnce(&dyn FrameSink) -> usize,
    ) -> usize {
        let Some(sink) = self.sinks.get(&to) else {
            self.stats.dropped_unregistered += 1;
            self.trace_drop(to);
            return 0;
        };
        let queued = deliver(&**sink);
        self.stats.deliveries += queued as u64;
        for _ in queued..frames {
            self.stats.dropped_closed += 1;
            self.trace_drop(from);
        }
        queued
    }
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
}

impl std::fmt::Debug for LoopbackNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackNet").field("stats", &self.stats()).finish()
    }
}

impl LoopbackNet {
    /// Creates an empty transport.
    pub fn new() -> Self {
        LoopbackNet::default()
    }

    /// Transport counters (frames cast/sent, deliveries, drops).
    pub fn stats(&self) -> LoopbackStats {
        lock(&self.inner).out.stats
    }

    /// Installs a trace sink observing this transport's drop classes.
    /// Timestamps are elapsed time since installation.
    pub fn set_tracer(&self, sink: Arc<dyn TraceSink>) {
        lock(&self.inner).out.tracer = Some(LoopbackTracer { sink, epoch: Instant::now() });
    }

    /// Removes the trace sink.
    pub fn clear_tracer(&self) {
        lock(&self.inner).out.tracer = None;
    }

    /// Registers an endpoint: its frames go to `sink` (e.g. a shard queue).
    /// Re-registering an address replaces the previous sink.
    pub fn register_sink(&self, ep: EndpointAddr, sink: Arc<dyn FrameSink>) {
        lock(&self.inner).out.sinks.insert(ep, sink);
    }

    /// Removes an endpoint entirely (its sink is dropped).
    pub fn deregister(&self, ep: EndpointAddr) {
        let mut reg = lock(&self.inner);
        reg.out.sinks.remove(&ep);
        reg.topo.leave(ep);
    }

    /// Adds `ep` to the transport-level multicast group.
    pub fn join(&self, group: GroupAddr, ep: EndpointAddr) {
        lock(&self.inner).topo.join(group, ep);
    }

    /// Removes `ep` from its multicast group (but keeps it registered).
    pub fn leave(&self, ep: EndpointAddr) {
        lock(&self.inner).topo.leave(ep);
    }

    /// Multicasts a frame to `from`'s group, including a loopback copy.
    /// Returns the number of endpoints the frame was queued for.
    pub fn cast(&self, from: EndpointAddr, wire: WireFrame) -> usize {
        self.cast_batch(from, std::slice::from_ref(&wire))
    }

    /// Multicasts a burst of frames to `from`'s group — the
    /// dispatch-boundary batching of the sharded executor.  Each member
    /// sink is handed the whole slice through [`FrameSink::deliver_many`]:
    /// one lock acquisition and one wake-up per member per burst, instead
    /// of one per frame.
    pub fn cast_batch(&self, from: EndpointAddr, wires: &[WireFrame]) -> usize {
        let mut reg = lock(&self.inner);
        let Registry { topo, out } = &mut *reg;
        out.stats.frames_cast += wires.len() as u64;
        if wires.is_empty() {
            return 0;
        }
        let receivers = topo.receivers(from).iter();
        receivers
            .map(|&to| out.deliver(from, to, wires.len(), |sink| sink.deliver_many(from, wires)))
            .sum()
    }

    /// Sends a frame to explicit destinations, in the same order as the
    /// sender's group's casts.
    pub fn send(&self, from: EndpointAddr, dests: &[EndpointAddr], wire: WireFrame) -> usize {
        let mut reg = lock(&self.inner);
        let out = &mut reg.out;
        out.stats.frames_sent += 1;
        let frame = || Frame { from, cast: false, wire: wire.clone() };
        dests
            .iter()
            .map(|&to| out.deliver(from, to, 1, |sink| usize::from(sink.deliver(frame()))))
            .sum()
    }

    /// Current transport-level members of a group.
    pub fn members(&self, group: GroupAddr) -> Vec<EndpointAddr> {
        lock(&self.inner).topo.members(group).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

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

    /// Members of a group see concurrent casts, bursts and sends in one
    /// order: the atomic multicast MBRSHIP's flush relies on.
    #[test]
    fn members_see_concurrent_casts_in_one_order() {
        let net = LoopbackNet::new();
        let g = GroupAddr::new(1);
        let members: Vec<EndpointAddr> = (1..=4).map(ep).collect();
        let inboxes: Vec<_> = members
            .iter()
            .map(|&m| {
                net.join(g, m);
                inbox(&net, m)
            })
            .collect();
        let start = Arc::new(std::sync::Barrier::new(3));
        let senders: Vec<_> = (1..=3)
            .map(|t| {
                let (net, start, members) = (net.clone(), start.clone(), members.clone());
                std::thread::spawn(move || {
                    let wire = |i: usize, part: &str| {
                        WireFrame::raw(Bytes::from(format!("{t}.{i}.{part}").into_bytes()))
                    };
                    start.wait();
                    for i in 0..200 {
                        net.cast(ep(t), wire(i, "cast"));
                        net.cast_batch(ep(t), &[wire(i, "burst0"), wire(i, "burst1")]);
                        net.send(ep(t), &members, wire(i, "send"));
                    }
                })
            })
            .collect();
        for sender in senders {
            sender.join().unwrap();
        }
        let logs: Vec<Vec<(bool, Bytes)>> = inboxes
            .iter()
            .map(|inbox| inbox.take().into_iter().map(|f| (f.cast, f.wire.to_bytes())).collect())
            .collect();
        assert_eq!(logs[0].len(), 3 * 200 * 4);
        for log in &logs[1..] {
            assert!(log == &logs[0], "members saw the group's traffic in different orders");
        }
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
