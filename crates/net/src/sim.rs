//! The deterministic simulated datagram network.
//!
//! [`SimNetwork`] models the "basic protocol class that supports best-effort
//! byte delivery" of §2: messages may be **delayed**, **lost**, **garbled**,
//! **duplicated**, or **reordered**, frames larger than the MTU are dropped
//! (motivating FRAG), and the network can be *partitioned* and healed over
//! time (motivating MBRSHIP/MERGE).  It provides exactly property `P1`
//! (best-effort delivery) of Table 4.
//!
//! The network is a pure function of its configuration and the caller's RNG:
//! given a frame to transmit it returns the [`Delivery`] events that should
//! be scheduled, with their virtual arrival times.  The discrete-event
//! executor in `horus-sim` owns the calendar; this type owns the physics.

use crate::fault::{FaultDrop, FaultPlan, FaultRule};
use crate::sched::{ChanceKind, NetScheduler};
use crate::topology::Topology;
use bytes::Bytes;
use horus_core::addr::{EndpointAddr, GroupAddr};
use horus_core::frame::WireFrame;
use horus_core::time::SimTime;
use horus_core::trace::{DropReason, TraceEvent, TraceKind, TraceSink};
use std::sync::Arc;
use std::time::Duration;

/// Latency of an endpoint's loopback delivery of its own multicast.
/// Loopback is reliable and partition-immune.
const LOOPBACK_LATENCY: Duration = Duration::from_micros(5);

/// Tunable physics of the simulated network.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Minimum one-way latency between distinct endpoints.
    pub latency_min: Duration,
    /// Maximum one-way latency (uniformly distributed; a wide range causes
    /// reordering between consecutive frames).
    pub latency_max: Duration,
    /// Probability that a frame is silently lost.
    pub loss: f64,
    /// Probability that a frame is delivered twice.
    pub duplicate: f64,
    /// Probability that one byte of the frame is corrupted in flight.
    pub garble: f64,
    /// Frames larger than this are dropped (classic datagram MTU).
    pub mtu: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency_min: Duration::from_micros(50),
            latency_max: Duration::from_micros(200),
            loss: 0.0,
            duplicate: 0.0,
            garble: 0.0,
            mtu: 1500,
        }
    }
}

impl NetConfig {
    /// A perfectly reliable, low-jitter network (protocol logic tests).
    pub fn reliable() -> Self {
        NetConfig::default()
    }

    /// A lossy WAN-ish network for stress tests.
    pub fn lossy(loss: f64) -> Self {
        NetConfig { loss, latency_max: Duration::from_millis(2), ..NetConfig::default() }
    }
}

/// Counters kept by the network model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames handed to the network for transmission.
    pub frames_sent: u64,
    /// Point deliveries produced (one frame to N receivers counts N).
    pub deliveries: u64,
    /// Deliveries suppressed by *random* (uniform `NetConfig::loss`) loss.
    /// Targeted fault-plan drops are counted separately below.
    pub dropped_loss: u64,
    /// Deliveries suppressed by a [`FaultRule::DirectedLoss`] rule.
    pub dropped_directed: u64,
    /// Deliveries suppressed by an active [`FaultRule::Cut`], a
    /// [`SimNetwork::partition`]'s included.
    pub dropped_cut: u64,
    /// Deliveries corrupted by a [`FaultRule::TargetedCorrupt`] rule
    /// (random garbling is counted in `garbled`, not here).
    pub corrupted_targeted: u64,
    /// Frames dropped for exceeding the MTU.
    pub dropped_mtu: u64,
    /// Pending deliveries removed by an explorer/test via controlled drop
    /// (`SimWorld::drop_pending`), as opposed to the network's own physics.
    pub dropped_induced: u64,
    /// Extra deliveries injected by duplication.
    pub duplicated: u64,
    /// Deliveries whose payload was corrupted.
    pub garbled: u64,
    /// Total payload bytes accepted for transmission.
    pub bytes_sent: u64,
}

/// One scheduled arrival produced by the network model.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Receiving endpoint.
    pub to: EndpointAddr,
    /// Transport-level sender.
    pub from: EndpointAddr,
    /// Whether this was a multicast (`true`) or point-to-point frame.
    pub cast: bool,
    /// Arrival time.
    pub at: SimTime,
    /// The (possibly garbled) frame.
    pub wire: WireFrame,
}

/// The simulated datagram network: transport-level group membership, a
/// fault plan (partitions are cuts in it), and per-frame physics.
///
/// Cloning is cheap: the maps and the fault plan sit behind `Arc`s that the
/// clone shares, and whichever side changes one first (a join, leave,
/// partition, heal, a rule installed, or a corrupt rule counting a frame)
/// copies it then.
#[derive(Debug, Clone)]
pub struct SimNetwork {
    config: NetConfig,
    topo: Arc<Topology>,
    /// Scripted targeted faults, composed with the global physics above.
    faults: Arc<FaultPlan>,
    stats: NetStats,
    /// Trace hook for physics drops (loss, partitions, MTU).  `None` (the
    /// default) costs one branch per drop; successful deliveries are traced
    /// at the receiving stack, not here.
    tracer: Option<Arc<dyn TraceSink>>,
}

impl SimNetwork {
    /// Creates a network with the given physics.
    pub fn new(config: NetConfig) -> Self {
        SimNetwork {
            config,
            topo: Arc::default(),
            faults: Arc::default(),
            stats: NetStats::default(),
            tracer: None,
        }
    }

    /// Installs a trace sink that observes physics drops.
    pub fn set_tracer(&mut self, tracer: Arc<dyn TraceSink>) {
        self.tracer = Some(tracer);
    }

    /// Removes the trace sink.
    pub fn clear_tracer(&mut self) {
        self.tracer = None;
    }

    fn trace_drop(&self, at: SimTime, ep: EndpointAddr, reason: DropReason) {
        if let Some(t) = &self.tracer {
            t.record(TraceEvent {
                at,
                ep,
                kind: TraceKind::FrameDrop { digest: 0, seq: 0, reason },
            });
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Mutable access to the configuration (tests tighten physics on the
    /// fly, e.g. "from t=2s the network is lossless").
    pub fn config_mut(&mut self) -> &mut NetConfig {
        &mut self.config
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Mutable counters (executors account induced drops here).
    pub fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    /// Feeds the network's delivery-relevant state — group membership and
    /// the fault plan, partitions included — into a model-checking state
    /// digest.  Statistics counters are deliberately excluded: they are
    /// monotonic observers, not behaviour.  The plan digests its rules and
    /// the per-source frame counts its corrupt rules count against, the one
    /// piece of fault history that changes what happens next.  A cut
    /// whose window ended by `now` is left out: it cannot act again.
    pub fn digest_into(&self, d: &mut horus_core::digest::StateDigest, now: SimTime) {
        d.write_u64(self.topo.digest());
        self.faults.digest_into(d, now);
    }

    /// Installs a targeted fault rule at `now`, dropping the cuts whose
    /// windows have ended by then.
    ///
    /// # Panics
    ///
    /// Panics on a malformed rule (see [`FaultRule`]).
    pub fn add_fault(&mut self, rule: FaultRule, now: SimTime) {
        Arc::make_mut(&mut self.faults).add(rule, now);
    }

    /// Registers `ep` as a transport-level receiver of `group` multicasts.
    pub fn join(&mut self, group: GroupAddr, ep: EndpointAddr) {
        Arc::make_mut(&mut self.topo).join(group, ep);
    }

    /// Deregisters `ep` from its group (leave, destroy, or crash).
    pub fn leave(&mut self, ep: EndpointAddr) {
        if self.topo.is_member(ep) {
            Arc::make_mut(&mut self.topo).leave(ep);
        }
    }

    /// Installs [`FaultRule::partition`]'s cuts with no end, until the next
    /// [`heal`](Self::heal), at `now` (see [`add_fault`](Self::add_fault)).
    /// They start at time zero, so the state does not depend on when they
    /// were installed.
    pub fn partition(&mut self, sides: &[Vec<EndpointAddr>], now: SimTime) {
        let plan = Arc::make_mut(&mut self.faults);
        for cut in FaultRule::partition(sides, SimTime::ZERO, None) {
            plan.add(cut, now);
        }
    }

    /// Removes every cut that has no `end`; windowed cuts keep theirs.
    pub fn heal(&mut self) {
        Arc::make_mut(&mut self.faults).heal();
    }

    /// Transmits a multicast frame from `from` to its transport group
    /// (including a reliable loopback to `from` itself), returning the
    /// deliveries to schedule.
    pub fn cast(
        &mut self,
        from: EndpointAddr,
        wire: WireFrame,
        now: SimTime,
        sched: &mut dyn NetScheduler,
    ) -> Vec<Delivery> {
        // The receivers are borrowed from a handle on the membership, which
        // transmitting cannot change.
        let topo = Arc::clone(&self.topo);
        self.transmit(from, topo.receivers(from), true, wire, now, sched)
    }

    /// Transmits a point-to-point frame to explicit destinations.
    pub fn send(
        &mut self,
        from: EndpointAddr,
        dests: &[EndpointAddr],
        wire: WireFrame,
        now: SimTime,
        sched: &mut dyn NetScheduler,
    ) -> Vec<Delivery> {
        self.transmit(from, dests, false, wire, now, sched)
    }

    fn transmit(
        &mut self,
        from: EndpointAddr,
        dests: &[EndpointAddr],
        cast: bool,
        wire: WireFrame,
        now: SimTime,
        sched: &mut dyn NetScheduler,
    ) -> Vec<Delivery> {
        self.stats.frames_sent += 1;
        if wire.len() > self.config.mtu {
            self.stats.dropped_mtu += 1;
            self.trace_drop(now, from, DropReason::Mtu);
            return Vec::new();
        }
        self.stats.bytes_sent += wire.len() as u64;
        // Targeted nth-frame corruption is decided once per frame (the
        // per-source frame counter must not depend on the receiver set).  A
        // source no rule names is not counted, so its frames neither copy
        // a shared plan nor change the digest.
        let corrupt_frame =
            self.faults.targets(from) && Arc::make_mut(&mut self.faults).corrupt_frame(from);
        let mut out = Vec::with_capacity(dests.len());
        for &to in dests {
            if to == from {
                // Loopback: reliable, immune to loss/garbling/cuts,
                // and out of reach of the fault plan (a flaky NIC still
                // hands the local copy up without touching the wire).
                self.stats.deliveries += 1;
                out.push(Delivery {
                    to,
                    from,
                    cast,
                    at: now + LOOPBACK_LATENCY,
                    wire: wire.clone(),
                });
                continue;
            }
            if let Some(drop) = self.faults.drop_verdict(from, to, now, sched) {
                let reason = match drop {
                    FaultDrop::Cut => {
                        self.stats.dropped_cut += 1;
                        DropReason::Partition
                    }
                    FaultDrop::Directed => {
                        self.stats.dropped_directed += 1;
                        DropReason::Loss
                    }
                };
                self.trace_drop(now, to, reason);
                continue;
            }
            if sched.chance(ChanceKind::Loss, self.config.loss) {
                self.stats.dropped_loss += 1;
                self.trace_drop(now, to, DropReason::Loss);
                continue;
            }
            let copies = if self.config.duplicate > 0.0
                && sched.chance(ChanceKind::Duplicate, self.config.duplicate)
            {
                self.stats.duplicated += 1;
                2
            } else {
                1
            };
            for _ in 0..copies {
                let at = now + self.sample_latency(sched);
                let mut payload = if self.config.garble > 0.0
                    && sched.chance(ChanceKind::Garble, self.config.garble)
                {
                    self.stats.garbled += 1;
                    garble(&wire, sched)
                } else {
                    wire.clone()
                };
                if corrupt_frame {
                    self.stats.corrupted_targeted += 1;
                    payload = garble(&payload, sched);
                }
                self.stats.deliveries += 1;
                out.push(Delivery { to, from, cast, at, wire: payload });
            }
        }
        out
    }

    fn sample_latency(&self, sched: &mut dyn NetScheduler) -> Duration {
        let lo = self.config.latency_min.as_nanos() as u64;
        let hi = self.config.latency_max.as_nanos() as u64;
        if hi <= lo {
            return self.config.latency_min;
        }
        Duration::from_nanos(sched.latency_nanos(lo, hi))
    }
}

/// Flips one random bit.  Garbling needs the contiguous byte string, so
/// this is the one network path that flattens a frame; the corrupted copy is
/// re-split at the canonical boundary (the checksum rejects it regardless of
/// where the flip landed).
fn garble(wire: &WireFrame, sched: &mut dyn NetScheduler) -> WireFrame {
    let mut v = wire.to_bytes().to_vec();
    if !v.is_empty() {
        let i = sched.pick(v.len());
        v[i] ^= 1u8 << sched.pick(8);
    }
    WireFrame::from_bytes(Bytes::from(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::RandomScheduler;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn rng() -> RandomScheduler {
        RandomScheduler::new(42)
    }

    fn raw(b: &'static [u8]) -> WireFrame {
        WireFrame::raw(Bytes::from_static(b))
    }

    fn digest(n: &SimNetwork) -> u64 {
        digest_at(n, SimTime::ZERO)
    }

    fn digest_at(n: &SimNetwork, now: SimTime) -> u64 {
        let mut d = horus_core::digest::StateDigest::new();
        n.digest_into(&mut d, now);
        d.finish()
    }

    fn joined_net(config: NetConfig) -> SimNetwork {
        let mut n = SimNetwork::new(config);
        let g = GroupAddr::new(1);
        for i in 1..=3 {
            n.join(g, ep(i));
        }
        n
    }

    #[test]
    fn cast_reaches_all_members_including_loopback() {
        let mut n = joined_net(NetConfig::reliable());
        let d = n.cast(ep(1), raw(b"x"), SimTime::ZERO, &mut rng());
        let mut tos: Vec<_> = d.iter().map(|d| d.to.raw()).collect();
        tos.sort();
        assert_eq!(tos, vec![1, 2, 3]);
        assert!(d.iter().all(|d| d.cast));
    }

    #[test]
    fn loopback_is_fast_and_reliable() {
        let mut cfg = NetConfig::reliable();
        cfg.loss = 1.0; // lose everything remote
        let mut n = joined_net(cfg);
        let d = n.cast(ep(1), raw(b"x"), SimTime::ZERO, &mut rng());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].to, ep(1));
        assert_eq!(n.stats().dropped_loss, 2);
    }

    fn remote_targets(n: &mut SimNetwork, from: u64) -> Vec<u64> {
        let d = n.cast(ep(from), raw(b"x"), SimTime::from_millis(1000), &mut rng());
        let mut tos: Vec<_> = d.iter().map(|d| d.to.raw()).filter(|&to| to != from).collect();
        tos.sort();
        tos
    }

    #[test]
    fn partitions_block_cross_side_traffic_until_healed() {
        let mut n = joined_net(NetConfig::reliable());
        let before = digest(&n);
        n.partition(&[vec![ep(1)], vec![ep(2), ep(3)]], SimTime::ZERO);
        assert_eq!(remote_targets(&mut n, 2), vec![3]);
        assert_eq!(remote_targets(&mut n, 1), Vec::<u64>::new());
        assert_eq!(n.stats().dropped_cut, 3);
        n.heal();
        assert_eq!(remote_targets(&mut n, 1), vec![2, 3]);
        assert_eq!(digest(&n), before, "a heal restores the unpartitioned state");
    }

    #[test]
    fn mtu_drops_whole_frame() {
        let mut cfg = NetConfig::reliable();
        cfg.mtu = 8;
        let mut n = joined_net(cfg);
        let d = n.cast(ep(1), WireFrame::raw(vec![0u8; 9]), SimTime::ZERO, &mut rng());
        assert!(d.is_empty());
        assert_eq!(n.stats().dropped_mtu, 1);
    }

    #[test]
    fn duplication_and_garbling_are_counted() {
        let mut cfg = NetConfig::reliable();
        cfg.duplicate = 1.0;
        cfg.garble = 1.0;
        let mut n = joined_net(cfg);
        let d = n.cast(ep(1), raw(b"abcd"), SimTime::ZERO, &mut rng());
        // 2 remote receivers x 2 copies + 1 loopback.
        assert_eq!(d.len(), 5);
        assert_eq!(n.stats().duplicated, 2);
        assert!(n.stats().garbled >= 2);
        // Loopback copy is never garbled.
        let local = d.iter().find(|d| d.to == ep(1)).unwrap();
        assert_eq!(&local.wire.to_bytes()[..], b"abcd");
    }

    #[test]
    fn unicast_send_targets_exact_destinations() {
        let mut n = joined_net(NetConfig::reliable());
        let d = n.send(ep(1), &[ep(3)], raw(b"x"), SimTime::ZERO, &mut rng());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].to, ep(3));
        assert!(!d[0].cast);
    }

    #[test]
    fn latency_within_bounds_and_deterministic() {
        let mut n = joined_net(NetConfig::reliable());
        let d1 = n.cast(ep(1), raw(b"x"), SimTime::ZERO, &mut rng());
        let mut n2 = joined_net(NetConfig::reliable());
        let d2 = n2.cast(ep(1), raw(b"x"), SimTime::ZERO, &mut rng());
        for (a, b) in d1.iter().zip(&d2) {
            assert_eq!(a.at, b.at, "same seed, same physics");
        }
        for d in d1.iter().filter(|d| d.to != ep(1)) {
            let cfg = NetConfig::reliable();
            assert!(d.at >= SimTime::ZERO + cfg.latency_min);
            assert!(d.at <= SimTime::ZERO + cfg.latency_max);
        }
    }

    #[test]
    fn partitions_compose_and_spare_outsiders() {
        let mut n = joined_net(NetConfig::reliable());
        n.join(GroupAddr::new(1), ep(4));
        n.partition(&[vec![ep(1)], vec![ep(2)]], SimTime::ZERO);
        n.partition(&[vec![ep(2)], vec![ep(3)]], SimTime::ZERO);
        // A link is down if any partition separates its ends; ep4 is on no
        // side and reaches everyone.
        assert_eq!(remote_targets(&mut n, 1), vec![3, 4]);
        assert_eq!(remote_targets(&mut n, 2), vec![4]);
        assert_eq!(remote_targets(&mut n, 4), vec![1, 2, 3]);
        // A partition's state does not depend on when it was installed.
        n.heal();
        n.partition(&[vec![ep(1)], vec![ep(2)]], SimTime::ZERO);
        let mut fresh = joined_net(NetConfig::reliable());
        fresh.join(GroupAddr::new(1), ep(4));
        fresh.partition(&[vec![ep(1)], vec![ep(2)]], SimTime::ZERO);
        assert_eq!(digest(&n), digest(&fresh));
    }

    #[test]
    fn one_way_cut_blocks_only_forward_direction() {
        let mut n = joined_net(NetConfig::reliable());
        n.add_fault(
            FaultRule::Cut { from: vec![ep(1)], to: vec![ep(2)], start: SimTime::ZERO, end: None },
            SimTime::ZERO,
        );
        let d = n.cast(ep(1), raw(b"x"), SimTime::ZERO, &mut rng());
        assert!(d.iter().all(|d| d.to != ep(2)), "forward direction cut");
        assert!(d.iter().any(|d| d.to == ep(3)), "other links untouched");
        assert_eq!(n.stats().dropped_cut, 1);
        assert_eq!(n.stats().dropped_loss, 0, "cut drops are not random loss");
        let d = n.cast(ep(2), raw(b"y"), SimTime::ZERO, &mut rng());
        assert!(d.iter().any(|d| d.to == ep(1)), "reverse direction flows");
    }

    #[test]
    fn a_cut_each_way_partitions_and_heals_on_window_end() {
        let mut n = joined_net(NetConfig::reliable());
        let (a, b) = (vec![ep(1)], vec![ep(2), ep(3)]);
        let end = Some(SimTime::from_millis(50));
        n.add_fault(
            FaultRule::Cut { from: a.clone(), to: b.clone(), start: SimTime::ZERO, end },
            SimTime::ZERO,
        );
        n.add_fault(FaultRule::Cut { from: b, to: a, start: SimTime::ZERO, end }, SimTime::ZERO);
        let d = n.cast(ep(1), raw(b"x"), SimTime::ZERO, &mut rng());
        assert!(d.iter().all(|d| d.to == ep(1)), "only the loopback survives");
        let d = n.cast(ep(2), raw(b"y"), SimTime::ZERO, &mut rng());
        assert!(d.iter().all(|d| d.to != ep(1)), "symmetric: reverse direction cut too");
        assert!(d.iter().any(|d| d.to == ep(3)), "same-side traffic flows");
        assert_eq!(n.stats().dropped_cut, 3);
        // Past the window the cuts heal without any explicit heal() call.
        let t = SimTime::from_millis(50);
        let d = n.cast(ep(1), raw(b"z"), t, &mut rng());
        assert_eq!(d.iter().filter(|d| d.to != ep(1)).count(), 2, "healed");
        assert_eq!(n.stats().dropped_cut, 3);
    }

    #[test]
    fn an_expired_cut_is_not_state() {
        // A cut over [0, 1 ms) and a cast at 5 ms: the cast reaches
        // everyone, and the network digests as one that never had the cut.
        let (mut cut, mut never) =
            (joined_net(NetConfig::reliable()), joined_net(NetConfig::reliable()));
        let end = Some(SimTime::from_millis(1));
        cut.add_fault(
            FaultRule::Cut { from: vec![ep(1)], to: vec![ep(2)], start: SimTime::ZERO, end },
            SimTime::ZERO,
        );
        let t = SimTime::from_millis(5);
        for n in [&mut cut, &mut never] {
            assert_eq!(n.cast(ep(1), raw(b"x"), t, &mut rng()).len(), 3, "no drop");
        }
        assert_ne!(digest_at(&cut, SimTime::ZERO), digest_at(&never, SimTime::ZERO), "live cut");
        assert_eq!(digest_at(&cut, t), digest_at(&never, t));
    }

    #[test]
    fn what_a_cut_dropped_is_not_state() {
        // Two networks with the same rules digest equal however many
        // frames their cuts dropped: the count lives in `NetStats`, an
        // observer, not in the fault plan.
        let cut = || FaultRule::Cut {
            from: vec![ep(1)],
            to: vec![ep(2)],
            start: SimTime::ZERO,
            end: None,
        };
        let (mut quiet, mut busy) =
            (joined_net(NetConfig::reliable()), joined_net(NetConfig::reliable()));
        quiet.add_fault(cut(), SimTime::ZERO);
        busy.add_fault(cut(), SimTime::ZERO);
        for _ in 0..3 {
            busy.cast(ep(1), raw(b"x"), SimTime::ZERO, &mut rng());
        }
        assert_eq!((quiet.stats().dropped_cut, busy.stats().dropped_cut), (0, 3));
        assert_eq!(digest(&quiet), digest(&busy));
    }

    #[test]
    fn targeted_corruption_spares_loopback_and_counts_frames() {
        let mut n = joined_net(NetConfig::reliable());
        n.add_fault(FaultRule::TargetedCorrupt { src: ep(1), every_nth: 1 }, SimTime::ZERO);
        let d = n.cast(ep(1), raw(b"abcd"), SimTime::ZERO, &mut rng());
        let local = d.iter().find(|d| d.to == ep(1)).unwrap();
        assert_eq!(&local.wire.to_bytes()[..], b"abcd", "loopback never corrupted");
        for rd in d.iter().filter(|d| d.to != ep(1)) {
            assert_ne!(&rd.wire.to_bytes()[..], b"abcd", "remote copy corrupted");
        }
        // Two corrupted deliveries from one corrupted frame.
        assert_eq!(n.stats().corrupted_targeted, 2);
        assert_eq!(n.stats().garbled, 0, "targeted corruption is not random garbling");
        // Frames from other sources are untouched.
        let d = n.cast(ep(2), raw(b"efgh"), SimTime::ZERO, &mut rng());
        assert!(d.iter().all(|d| &d.wire.to_bytes()[..] == b"efgh"));
        assert_eq!(n.stats().corrupted_targeted, 2);
    }

    #[test]
    fn directed_loss_composes_with_global_physics() {
        let mut cfg = NetConfig::reliable();
        cfg.duplicate = 1.0;
        let mut n = joined_net(cfg);
        n.add_fault(FaultRule::DirectedLoss { from: ep(1), to: ep(2), rate: 1.0 }, SimTime::ZERO);
        let d = n.cast(ep(1), raw(b"x"), SimTime::ZERO, &mut rng());
        // ep2's copies are all eaten by the targeted rule, before
        // duplication; ep3 still gets its duplicated pair.
        assert!(d.iter().all(|d| d.to != ep(2)));
        assert_eq!(d.iter().filter(|d| d.to == ep(3)).count(), 2);
        assert_eq!(n.stats().dropped_directed, 1);
        assert_eq!(n.stats().dropped_loss, 0);
    }

    #[test]
    fn frames_from_a_source_no_rule_names_are_not_state() {
        let corrupt = || FaultRule::TargetedCorrupt { src: ep(2), every_nth: 2 };
        let (mut quiet, mut busy) =
            (joined_net(NetConfig::reliable()), joined_net(NetConfig::reliable()));
        quiet.add_fault(corrupt(), SimTime::ZERO);
        busy.add_fault(corrupt(), SimTime::ZERO);
        busy.cast(ep(1), raw(b"x"), SimTime::ZERO, &mut rng());
        assert_eq!(digest(&quiet), digest(&busy));
    }

    #[test]
    fn the_group_digest_follows_joins_and_leaves() {
        let empty = digest(&SimNetwork::new(NetConfig::reliable()));
        let mut n = joined_net(NetConfig::reliable());
        let three = digest(&n);
        assert_ne!(three, empty);
        n.leave(ep(3));
        let mut two = SimNetwork::new(NetConfig::reliable());
        for i in 1..=2 {
            two.join(GroupAddr::new(1), ep(i));
        }
        assert_eq!(digest(&n), digest(&two));
        n.join(GroupAddr::new(1), ep(3));
        assert_eq!(digest(&n), three);
    }

    #[test]
    fn leave_removes_from_group() {
        let mut n = joined_net(NetConfig::reliable());
        n.leave(ep(2));
        let d = n.cast(ep(1), raw(b"x"), SimTime::ZERO, &mut rng());
        assert!(d.iter().all(|d| d.to != ep(2)));
    }
}
