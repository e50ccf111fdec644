//! The deterministic simulated datagram network.
//!
//! [`SimNetwork`] models the "basic protocol class that supports best-effort
//! byte delivery" of §2: messages may be **delayed**, **lost**, **garbled**,
//! **duplicated**, or **reordered**, frames larger than the MTU are dropped
//! (motivating FRAG), and the membership of network *partitions* can change
//! over time (motivating MBRSHIP/MERGE).  It provides exactly property `P1`
//! (best-effort delivery) of Table 4.
//!
//! The network is a pure function of its configuration and the caller's RNG:
//! given a frame to transmit it returns the [`Delivery`] events that should
//! be scheduled, with their virtual arrival times.  The discrete-event
//! executor in `horus-sim` owns the calendar; this type owns the physics.

use crate::fault::{FaultDrop, FaultPlan, FaultRule};
use crate::sched::{ChanceKind, NetScheduler};
use bytes::Bytes;
use horus_core::addr::{EndpointAddr, GroupAddr};
use horus_core::frame::WireFrame;
use horus_core::time::SimTime;
use horus_core::trace::{DropReason, TraceEvent, TraceKind, TraceSink};
use std::collections::BTreeMap;
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
    /// Deliveries suppressed because sender and receiver are in different
    /// partitions.
    pub dropped_partition: u64,
    /// Deliveries suppressed by a [`FaultRule::DirectedLoss`] rule.
    pub dropped_directed: u64,
    /// Deliveries suppressed by an active [`FaultRule::Cut`] (the
    /// declarative, windowed cousin of `dropped_partition` above).
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

/// Who can talk to whom: changed only by join, leave, partition and heal.
#[derive(Debug, Clone, Default)]
struct Topology {
    /// Transport-level group membership (who receives casts to a group).
    groups: BTreeMap<GroupAddr, Vec<EndpointAddr>>,
    /// Which group an endpoint joined (one per endpoint in this model).
    member_of: BTreeMap<EndpointAddr, GroupAddr>,
    /// Partition region of each endpoint; unlisted endpoints are region 0.
    regions: BTreeMap<EndpointAddr, u32>,
}

/// The simulated datagram network: transport-level group membership,
/// partition state, and per-frame physics.
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
    /// Cached membership/partition digest (see
    /// [`SimNetwork::digest_cached_into`]), cleared on every join, leave,
    /// partition, and heal.  Fault state is never cached: the corrupt
    /// rules' frame counters advance on the frame hot path, where a digest
    /// would be invalidated far more often than it is read.
    membership_digest: std::cell::Cell<Option<u64>>,
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
            membership_digest: std::cell::Cell::new(None),
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

    /// Feeds the network's delivery-relevant state — group membership,
    /// partition regions and the fault plan — into a model-checking state
    /// digest.  Statistics counters are deliberately excluded: they are
    /// monotonic observers, not behaviour.  The plan digests its rules and
    /// the per-source frame counts its corrupt rules count against, the one
    /// piece of fault history that changes what happens next.
    pub fn digest_into(&self, d: &mut horus_core::digest::StateDigest) {
        d.write_u64(self.membership_digest_fresh());
        self.faults.digest_into(d);
    }

    /// [`SimNetwork::digest_into`] with the membership/partition part served
    /// from a cache — bit-identical by construction, since both paths write
    /// the same sub-digest value followed by the same fault-plan writes.
    pub fn digest_cached_into(&self, d: &mut horus_core::digest::StateDigest) {
        let m = match self.membership_digest.get() {
            Some(v) => v,
            None => {
                let v = self.membership_digest_fresh();
                self.membership_digest.set(Some(v));
                v
            }
        };
        d.write_u64(m);
        self.faults.digest_into(d);
    }

    fn membership_digest_fresh(&self) -> u64 {
        let mut e = horus_core::digest::StateDigest::new();
        for (g, members) in &self.topo.groups {
            e.write_u64(g.raw());
            for m in members {
                e.write_u64(m.raw());
            }
            e.write_bytes(&[0xfd]);
        }
        for (ep, region) in &self.topo.regions {
            e.write_u64(ep.raw());
            e.write_u64(*region as u64);
        }
        e.finish()
    }

    /// Installs a targeted fault rule.
    ///
    /// # Panics
    ///
    /// Panics on a malformed rule (see [`FaultRule`]).
    pub fn add_fault(&mut self, rule: FaultRule) {
        Arc::make_mut(&mut self.faults).add(rule);
    }

    /// Registers `ep` as a transport-level receiver of `group` multicasts.
    pub fn join(&mut self, group: GroupAddr, ep: EndpointAddr) {
        let topo = self.topo_mut();
        let members = topo.groups.entry(group).or_default();
        if !members.contains(&ep) {
            members.push(ep);
        }
        topo.member_of.insert(ep, group);
    }

    /// Deregisters `ep` from its group (leave, destroy, or crash).
    pub fn leave(&mut self, ep: EndpointAddr) {
        if !self.topo.member_of.contains_key(&ep) {
            return;
        }
        let topo = self.topo_mut();
        if let Some(group) = topo.member_of.remove(&ep) {
            if let Some(members) = topo.groups.get_mut(&group) {
                members.retain(|&m| m != ep);
            }
        }
    }

    /// Write access to the topology: invalidates the cached digest and
    /// copies the maps first if a clone of this network still shares them.
    fn topo_mut(&mut self) -> &mut Topology {
        self.membership_digest.set(None);
        Arc::make_mut(&mut self.topo)
    }

    /// Transport-level receivers of `ep`'s multicasts (including `ep`).
    pub fn cast_targets(&self, ep: EndpointAddr) -> Vec<EndpointAddr> {
        let topo = &*self.topo;
        topo.member_of.get(&ep).and_then(|g| topo.groups.get(g)).cloned().unwrap_or_default()
    }

    /// Splits the network: each inner slice becomes one new partition
    /// region, numbered after the largest region in use (so a call on a
    /// healed network numbers from 1).  Endpoints not mentioned keep their
    /// previous region.
    pub fn partition(&mut self, regions: &[&[EndpointAddr]]) {
        let topo = self.topo_mut();
        let base = topo.regions.values().max().copied().unwrap_or(0);
        for (i, eps) in regions.iter().enumerate() {
            for &ep in *eps {
                topo.regions.insert(ep, base + i as u32 + 1);
            }
        }
    }

    /// Heals all partitions: every endpoint returns to region 0.
    pub fn heal(&mut self) {
        self.topo_mut().regions.clear();
    }

    /// Whether two endpoints can currently exchange frames.
    pub fn connected(&self, a: EndpointAddr, b: EndpointAddr) -> bool {
        self.region(a) == self.region(b)
    }

    fn region(&self, ep: EndpointAddr) -> u32 {
        self.topo.regions.get(&ep).copied().unwrap_or(0)
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
        let targets = self.cast_targets(from);
        self.transmit(from, &targets, true, wire, now, sched)
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
        // per-source frame counter must not depend on the receiver set).
        let corrupt_frame =
            !self.faults.is_empty() && Arc::make_mut(&mut self.faults).corrupt_frame(from);
        let mut out = Vec::with_capacity(dests.len());
        for &to in dests {
            if to == from {
                // Loopback: reliable, immune to loss/garbling/partitions,
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
            if !self.connected(from, to) {
                self.stats.dropped_partition += 1;
                self.trace_drop(now, to, DropReason::Partition);
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
        let mut d = horus_core::digest::StateDigest::new();
        n.digest_into(&mut d);
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

    #[test]
    fn partitions_block_cross_region_traffic() {
        let mut n = joined_net(NetConfig::reliable());
        n.partition(&[&[ep(1)], &[ep(2), ep(3)]]);
        let d = n.cast(ep(2), raw(b"x"), SimTime::ZERO, &mut rng());
        let mut tos: Vec<_> = d.iter().map(|d| d.to.raw()).collect();
        tos.sort();
        assert_eq!(tos, vec![2, 3]);
        assert!(!n.connected(ep(1), ep(2)));
        n.heal();
        assert!(n.connected(ep(1), ep(2)));
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
    fn successive_partitions_do_not_alias_regions() {
        let mut n = SimNetwork::new(NetConfig::reliable());
        n.partition(&[&[ep(1)], &[ep(2)]]);
        n.partition(&[&[ep(3)], &[ep(4)]]);
        for (a, b) in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)] {
            assert!(!n.connected(ep(a), ep(b)), "ep{a} and ep{b} sit in different regions");
        }
        // A call on a healed network numbers its regions from 1 again.
        n.heal();
        n.partition(&[&[ep(1)], &[ep(2)]]);
        let mut fresh = SimNetwork::new(NetConfig::reliable());
        fresh.partition(&[&[ep(1)], &[ep(2)]]);
        assert_eq!(digest(&n), digest(&fresh));
    }

    #[test]
    fn one_way_cut_blocks_only_forward_direction() {
        let mut n = joined_net(NetConfig::reliable());
        n.add_fault(FaultRule::Cut {
            from: vec![ep(1)],
            to: vec![ep(2)],
            start: SimTime::ZERO,
            end: None,
        });
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
        n.add_fault(FaultRule::Cut { from: a.clone(), to: b.clone(), start: SimTime::ZERO, end });
        n.add_fault(FaultRule::Cut { from: b, to: a, start: SimTime::ZERO, end });
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
        quiet.add_fault(cut());
        busy.add_fault(cut());
        for _ in 0..3 {
            busy.cast(ep(1), raw(b"x"), SimTime::ZERO, &mut rng());
        }
        assert_eq!((quiet.stats().dropped_cut, busy.stats().dropped_cut), (0, 3));
        assert_eq!(digest(&quiet), digest(&busy));
    }

    #[test]
    fn targeted_corruption_spares_loopback_and_counts_frames() {
        let mut n = joined_net(NetConfig::reliable());
        n.add_fault(FaultRule::TargetedCorrupt { src: ep(1), every_nth: 1 });
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
        n.add_fault(FaultRule::DirectedLoss { from: ep(1), to: ep(2), rate: 1.0 });
        let d = n.cast(ep(1), raw(b"x"), SimTime::ZERO, &mut rng());
        // ep2's copies are all eaten by the targeted rule, before
        // duplication; ep3 still gets its duplicated pair.
        assert!(d.iter().all(|d| d.to != ep(2)));
        assert_eq!(d.iter().filter(|d| d.to == ep(3)).count(), 2);
        assert_eq!(n.stats().dropped_directed, 1);
        assert_eq!(n.stats().dropped_loss, 0);
    }

    #[test]
    fn leave_removes_from_group() {
        let mut n = joined_net(NetConfig::reliable());
        n.leave(ep(2));
        let d = n.cast(ep(1), raw(b"x"), SimTime::ZERO, &mut rng());
        assert!(d.iter().all(|d| d.to != ep(2)));
    }
}
