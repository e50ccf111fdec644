//! Reference implementations (§8).
//!
//! "Reference layers serve as concise specifications of the current
//! 'production' layers, but ... are also executable. ... \[They\] are
//! considerably cleaner than the current production layers and are
//! generally an order of magnitude smaller in code size."
//!
//! The 1995 project wrote its reference layers in ML; here both reference
//! and production layers are Rust, but the methodology survives intact:
//! the reference versions below are written for *obviousness* — minimal
//! state, naive algorithms, no optimization — while the production
//! versions ([`crate::nak::Nak`], [`crate::total::Total`]) are written for
//! performance.  Because both sides speak only the HCPI, a reference layer
//! is drop-in **interchangeable** with its production counterpart inside a
//! stack (all group members switch together; the stack fingerprint keeps
//! mixed *wire* protocols from talking past each other), and layers of
//! either kind mix freely in one stack — the integration tests run the
//! production TOTAL over the reference NAK and vice versa.
//!
//! | layer | production | reference |
//! |---|---|---|
//! | FIFO | NAK: out-of-order buffering, ranged NAKs, windows | [`NakRef`]: go-back-N, drop out-of-order, whole-tail retransmission |
//! | total order | TOTAL: moving token with oracle | [`TotalRef`]: fixed sequencer (rank 0) |

use horus_core::prelude::*;
use horus_core::wire::{WireReader, WireWriter};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

// ---------------------------------------------------------------------
// NAK_REF
// ---------------------------------------------------------------------

const NAK_REF_FIELDS: &[FieldSpec] = &[FieldSpec::new("kind", 3), FieldSpec::new("seq", 32)];

const KIND_DATA: u64 = 0;
const KIND_STATUS: u64 = 1;
const KIND_UNI: u64 = 2;
const KIND_UNI_ACK: u64 = 3;
/// "Fast-forward past my pruned history" — the reference flavour of the
/// paper's LOST placeholder.
const KIND_SKIP: u64 = 4;

const TICK: u64 = 0;

/// Reference FIFO layer: go-back-N multicast plus stop-and-wait unicast.
///
/// Receivers deliver only the next in-sequence message and *discard*
/// everything else; each periodic status tells every sender how far this
/// receiver got, and senders simply re-multicast their whole unacked tail.
/// Obviously correct, obviously wasteful.
#[derive(Debug, Clone)]
pub struct NakRef {
    period: Duration,
    fail_timeout: Duration,
    me: Option<EndpointAddr>,
    next_seq: u32,
    sent: BTreeMap<u32, Message>,
    /// Per source: next expected sequence.
    expected: BTreeMap<EndpointAddr, u32>,
    /// Per peer: how far they acknowledged our casts.
    acked: BTreeMap<EndpointAddr, u32>,
    /// Unicast stop-and-wait: per destination, the in-flight message.
    uni_next: BTreeMap<EndpointAddr, u32>,
    uni_inflight: BTreeMap<EndpointAddr, (u32, Message)>,
    uni_queue: BTreeMap<EndpointAddr, Vec<Message>>,
    uni_expected: BTreeMap<EndpointAddr, u32>,
    dests: Option<Vec<EndpointAddr>>,
    /// Highest sequence discarded from the retransmission buffer.
    pruned_to: u32,
    last_heard: BTreeMap<EndpointAddr, SimTime>,
    suspected: Vec<EndpointAddr>,
    /// Retransmitted casts (the E16 waste metric).
    pub retransmissions: u64,
}

impl Default for NakRef {
    fn default() -> Self {
        NakRef::new(Duration::from_millis(20), Duration::from_millis(200))
    }
}

impl NakRef {
    /// Creates a reference NAK layer.
    pub fn new(period: Duration, fail_timeout: Duration) -> Self {
        NakRef {
            period,
            fail_timeout,
            me: None,
            next_seq: 0,
            sent: BTreeMap::new(),
            expected: BTreeMap::new(),
            acked: BTreeMap::new(),
            uni_next: BTreeMap::new(),
            uni_inflight: BTreeMap::new(),
            uni_queue: BTreeMap::new(),
            uni_expected: BTreeMap::new(),
            dests: None,
            pruned_to: 0,
            last_heard: BTreeMap::new(),
            suspected: Vec::new(),
            retransmissions: 0,
        }
    }

    fn min_acked(&self) -> u32 {
        match &self.dests {
            Some(d) => d
                .iter()
                .filter(|p| Some(**p) != self.me && !self.suspected.contains(p))
                .map(|p| self.acked.get(p).copied().unwrap_or(0))
                .min()
                .unwrap_or(self.next_seq),
            None => 0,
        }
    }

    fn pump_uni(&mut self, dest: EndpointAddr, ctx: &mut LayerCtx<'_>) {
        if self.uni_inflight.contains_key(&dest) {
            return;
        }
        let Some(queue) = self.uni_queue.get_mut(&dest) else { return };
        if queue.is_empty() {
            return;
        }
        let mut msg = queue.remove(0);
        let seq = {
            let n = self.uni_next.entry(dest).or_insert(0);
            *n += 1;
            *n
        };
        ctx.stamp(&mut msg);
        ctx.set(&mut msg, 0, KIND_UNI);
        ctx.set(&mut msg, 1, seq as u64);
        self.uni_inflight.insert(dest, (seq, msg.clone()));
        ctx.down(Down::Send { dests: vec![dest], msg });
    }
}

impl Layer for NakRef {
    fn name(&self) -> &'static str {
        "NAK_REF"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        NAK_REF_FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        self.me = Some(ctx.local_addr());
        ctx.set_timer(self.period, TICK);
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(mut msg) => {
                self.next_seq += 1;
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, KIND_DATA);
                ctx.set(&mut msg, 1, self.next_seq as u64);
                self.sent.insert(self.next_seq, msg.clone());
                ctx.down(Down::Cast(msg));
            }
            Down::Send { dests, msg } => {
                for dest in dests {
                    self.uni_queue.entry(dest).or_default().push(msg.clone());
                    self.pump_uni(dest, ctx);
                }
            }
            Down::InstallView(view) => {
                let now = ctx.now();
                for &m in view.members() {
                    self.last_heard.entry(m).or_insert(now);
                }
                self.dests = Some(view.members().to_vec());
                self.suspected.clear();
                ctx.down(Down::InstallView(view));
            }
            other => ctx.down(other),
        }
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Cast { src, mut msg } | Up::Send { src, mut msg } => {
                if ctx.open(&mut msg).is_err() {
                    return;
                }
                let kind = ctx.get(&msg, 0);
                let seq = ctx.get(&msg, 1) as u32;
                self.last_heard.insert(src, ctx.now());
                match kind {
                    KIND_DATA => {
                        let expected = self.expected.entry(src).or_insert(1);
                        if seq == *expected {
                            *expected += 1;
                            ctx.up(Up::Cast { src, msg });
                        }
                        // Anything else: silently discarded (go-back-N).
                    }
                    KIND_STATUS => {
                        let mut r = WireReader::new(msg.body());
                        let Ok(n) = r.get_u32() else { return };
                        let mut their_cum_of_me = None;
                        for _ in 0..n {
                            let (Ok(sender), Ok(cum)) = (r.get_addr(), r.get_u32()) else {
                                return;
                            };
                            if Some(sender) == self.me {
                                their_cum_of_me = Some(cum);
                                let e = self.acked.entry(src).or_insert(0);
                                *e = (*e).max(cum);
                            }
                        }
                        // A receiver stuck before our pruned horizon can
                        // never catch up from retransmissions: tell it to
                        // skip (it reports the hole as LOST_MESSAGE).
                        if their_cum_of_me.unwrap_or(0) < self.pruned_to {
                            let mut skip = ctx.new_message(bytes::Bytes::new());
                            ctx.stamp(&mut skip);
                            ctx.set(&mut skip, 0, KIND_SKIP);
                            ctx.set(&mut skip, 1, self.pruned_to as u64);
                            ctx.down(Down::Send { dests: vec![src], msg: skip });
                        }
                    }
                    KIND_SKIP => {
                        let expected = self.expected.entry(src).or_insert(1);
                        if seq + 1 > *expected {
                            *expected = seq + 1;
                            ctx.up(Up::LostMessage { src });
                        }
                    }
                    KIND_UNI => {
                        let expected = self.uni_expected.entry(src).or_insert(1);
                        let deliver = seq == *expected;
                        if deliver {
                            *expected += 1;
                        }
                        // Ack whatever we have (cumulative), even for dups.
                        let cum = *expected - 1;
                        let mut ack = ctx.new_message(bytes::Bytes::new());
                        ctx.stamp(&mut ack);
                        ctx.set(&mut ack, 0, KIND_UNI_ACK);
                        ctx.set(&mut ack, 1, cum as u64);
                        ctx.down(Down::Send { dests: vec![src], msg: ack });
                        if deliver {
                            ctx.up(Up::Send { src, msg });
                        }
                    }
                    KIND_UNI_ACK => {
                        let done = match self.uni_inflight.get(&src) {
                            Some((s, _)) => *s <= seq,
                            None => false,
                        };
                        if done {
                            self.uni_inflight.remove(&src);
                            self.pump_uni(src, ctx);
                        }
                    }
                    _ => {}
                }
            }
            other => ctx.up(other),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut LayerCtx<'_>) {
        if token != TICK {
            return;
        }
        // Status: my expected vector (all senders).
        let entries: Vec<(EndpointAddr, u32)> =
            self.expected.iter().map(|(&s, &e)| (s, e.saturating_sub(1))).collect();
        let mut w = WireWriter::with_capacity(4 + 12 * entries.len());
        w.put_u32(entries.len() as u32);
        for (s, cum) in entries {
            w.put_addr(s);
            w.put_u32(cum);
        }
        let mut status = ctx.new_message(w.finish());
        ctx.stamp(&mut status);
        ctx.set(&mut status, 0, KIND_STATUS);
        ctx.set(&mut status, 1, 0);
        ctx.down(Down::Cast(status));

        // Go-back-N: re-multicast the entire unacked tail.
        let min = self.min_acked();
        let tail: Vec<Message> = self.sent.range(min + 1..).map(|(_, m)| m.clone()).collect();
        for m in tail {
            self.retransmissions += 1;
            ctx.down(Down::Cast(m));
        }
        if self.sent.keys().next().map(|&s| s <= min).unwrap_or(false) {
            self.pruned_to = self.pruned_to.max(min);
        }
        self.sent.retain(|&s, _| s > min);

        // Stop-and-wait retransmission.
        let inflight: Vec<(EndpointAddr, Message)> =
            self.uni_inflight.iter().map(|(&d, (_, m))| (d, m.clone())).collect();
        for (dest, m) in inflight {
            self.retransmissions += 1;
            ctx.down(Down::Send { dests: vec![dest], msg: m });
        }

        // Failure detection by silence.
        if let Some(dests) = self.dests.clone() {
            let now = ctx.now();
            for d in dests {
                if Some(d) == self.me || self.suspected.contains(&d) {
                    continue;
                }
                let silent = self
                    .last_heard
                    .get(&d)
                    .map(|t| now.saturating_since(*t) > self.fail_timeout)
                    .unwrap_or(false);
                if silent {
                    self.suspected.push(d);
                    ctx.up(Up::Problem { member: d });
                }
            }
        }
        ctx.set_timer(self.period, TICK);
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(
            w,
            "sent={} buffered={} retrans={} suspected={:?}",
            self.next_seq,
            self.sent.len(),
            self.retransmissions,
            self.suspected
        )
    }
}

// ---------------------------------------------------------------------
// TOTAL_REF
// ---------------------------------------------------------------------

const TOTAL_REF_FIELDS: &[FieldSpec] = &[FieldSpec::new("kind", 1), FieldSpec::new("tseq", 32)];

const TR_DATA: u64 = 0;
const TR_ORDER: u64 = 1;

/// Reference total order: a fixed sequencer.
///
/// The lowest-ranked member of every view assigns all global sequence
/// numbers; there is no token movement and no oracle.  Every ordering
/// decision costs a round through the sequencer, but the algorithm fits
/// in a page.
#[derive(Debug, Default, Clone)]
pub struct TotalRef {
    me: Option<EndpointAddr>,
    view: Option<View>,
    my_tseq: u32,
    unordered: BTreeMap<(EndpointAddr, u32), Message>,
    ordered: BTreeMap<u64, (EndpointAddr, u32)>,
    /// Keys ever assigned a global number in this view (kept until the
    /// next view so nothing is sequenced twice).
    assigned: std::collections::BTreeSet<(EndpointAddr, u32)>,
    gnext: u64,
    gassign: u64,
    /// Orders this node issued as sequencer.
    pub orders_issued: u64,
}

impl TotalRef {
    /// Creates a reference TOTAL layer.
    pub fn new() -> Self {
        TotalRef::default()
    }

    fn i_am_sequencer(&self) -> bool {
        match (&self.view, self.me) {
            (Some(v), Some(me)) => v.members().first() == Some(&me),
            _ => false,
        }
    }

    fn sequence(&mut self, ctx: &mut LayerCtx<'_>) {
        if !self.i_am_sequencer() {
            return;
        }
        let batch: Vec<(EndpointAddr, u32)> =
            self.unordered.keys().filter(|k| !self.assigned.contains(*k)).copied().collect();
        if batch.is_empty() {
            return;
        }
        let mut w = WireWriter::with_capacity(12 + 12 * batch.len());
        w.put_u64(self.gassign);
        w.put_u32(batch.len() as u32);
        for &(src, tseq) in &batch {
            w.put_addr(src);
            w.put_u32(tseq);
        }
        for (i, &key) in batch.iter().enumerate() {
            self.ordered.insert(self.gassign + i as u64, key);
            self.assigned.insert(key);
        }
        self.gassign += batch.len() as u64;
        self.orders_issued += 1;
        let mut m = ctx.new_message(w.finish());
        ctx.stamp(&mut m);
        ctx.set(&mut m, 0, TR_ORDER);
        ctx.set(&mut m, 1, 0);
        ctx.down(Down::Cast(m));
        self.try_deliver(ctx);
    }

    fn try_deliver(&mut self, ctx: &mut LayerCtx<'_>) {
        while let Some(&key) = self.ordered.get(&self.gnext) {
            let Some(mut msg) = self.unordered.remove(&key) else { break };
            self.ordered.remove(&self.gnext);
            msg.meta.set_total_seq(Some(self.gnext));
            self.gnext += 1;
            ctx.up(Up::Cast { src: key.0, msg });
        }
    }
}

impl Layer for TotalRef {
    fn name(&self) -> &'static str {
        "TOTAL_REF"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        TOTAL_REF_FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        self.me = Some(ctx.local_addr());
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(mut msg) => {
                self.my_tseq += 1;
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, TR_DATA);
                ctx.set(&mut msg, 1, self.my_tseq as u64);
                ctx.down(Down::Cast(msg));
            }
            other => ctx.down(other),
        }
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Cast { src, mut msg } => {
                if ctx.open(&mut msg).is_err() {
                    return;
                }
                match ctx.get(&msg, 0) {
                    TR_DATA => {
                        let tseq = ctx.get(&msg, 1) as u32;
                        self.unordered.insert((src, tseq), msg);
                        self.sequence(ctx);
                        self.try_deliver(ctx);
                    }
                    TR_ORDER => {
                        if Some(src) == self.me {
                            return; // applied at issue time
                        }
                        let mut r = WireReader::new(msg.body());
                        let Ok(base) = r.get_u64() else { return };
                        let Ok(n) = r.get_u32() else { return };
                        for i in 0..n as u64 {
                            let (Ok(s), Ok(t)) = (r.get_addr(), r.get_u32()) else { return };
                            self.ordered.insert(base + i, (s, t));
                            self.assigned.insert((s, t));
                        }
                        self.gassign = self.gassign.max(base + n as u64);
                        self.try_deliver(ctx);
                    }
                    _ => {}
                }
            }
            Up::View(view) => {
                self.try_deliver(ctx);
                // Deterministic drain, exactly as production TOTAL.
                let leftovers: Vec<(EndpointAddr, u32)> = match &self.view {
                    Some(old) => {
                        let mut keys: Vec<_> = self.unordered.keys().copied().collect();
                        keys.sort_by_key(|&(src, tseq)| {
                            (old.rank_of(src).map(|r| r.0).unwrap_or(usize::MAX), src, tseq)
                        });
                        keys
                    }
                    None => self.unordered.keys().copied().collect(),
                };
                for key in leftovers {
                    let mut msg = self.unordered.remove(&key).expect("buffered");
                    msg.meta.set_total_seq(Some(self.gnext));
                    self.gnext += 1;
                    ctx.up(Up::Cast { src: key.0, msg });
                }
                self.unordered.clear();
                self.ordered.clear();
                self.assigned.clear();
                self.my_tseq = 0;
                self.gnext = 1;
                self.gassign = 1;
                self.view = Some(view.clone());
                ctx.up(Up::View(view));
                self.sequence(ctx);
            }
            other => ctx.up(other),
        }
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(
            w,
            "sequencer={} buffered={} orders={}",
            self.i_am_sequencer(),
            self.unordered.len(),
            self.orders_issued
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::com::Com;
    use crate::frag::Frag;
    use crate::mbrship::{Mbrship, MbrshipConfig};
    use crate::nak::Nak;
    use crate::total::Total;
    use horus_net::NetConfig;
    use horus_sim::{check_total_order, check_virtual_synchrony, DeliveryLog, SimWorld, Workload};

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    /// Builds one of four stack flavours: (ref|prod total) × (ref|prod
    /// nak) — every combination must behave identically from above.
    fn stack(i: u64, ref_total: bool, ref_nak: bool) -> Stack {
        let mut b = StackBuilder::new(ep(i));
        b = if ref_total {
            b.push(Box::new(TotalRef::new()))
        } else {
            b.push(Box::new(Total::new()))
        };
        b = b
            .push(Box::new(Mbrship::new(MbrshipConfig::default())))
            .push(Box::new(Frag::default()));
        b = if ref_nak {
            b.push(Box::new(NakRef::default()))
        } else {
            b.push(Box::new(Nak::default()))
        };
        b.push(Box::new(Com::promiscuous())).build().unwrap()
    }

    fn run_combo(seed: u64, ref_total: bool, ref_nak: bool, loss: f64) -> Vec<Vec<(u64, Vec<u8>)>> {
        let net = if loss > 0.0 { NetConfig::lossy(loss) } else { NetConfig::reliable() };
        let mut w = SimWorld::new(seed, net);
        for i in 1..=3 {
            w.add_endpoint(stack(i, ref_total, ref_nak));
            w.join(ep(i), GroupAddr::new(1));
        }
        for i in 2..=3 {
            w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
        }
        w.run_for(Duration::from_secs(2));
        let t = w.now();
        let wl = Workload::round_robin(vec![ep(1), ep(2), ep(3)], 24);
        wl.schedule(&mut w, t + Duration::from_millis(1));
        w.run_for(Duration::from_secs(4));
        let logs: Vec<DeliveryLog> =
            (1..=3).map(|i| DeliveryLog::from_upcalls(ep(i), w.upcalls(ep(i)))).collect();
        assert!(check_total_order(&logs).is_empty(), "total order in combo");
        assert!(check_virtual_synchrony(&logs).is_empty(), "vs in combo");
        (1..=3)
            .map(|i| {
                w.delivered_casts(ep(i)).iter().map(|(s, b, _)| (s.raw(), b.to_vec())).collect()
            })
            .collect()
    }

    #[test]
    fn all_four_combinations_deliver_everything_in_total_order() {
        for &(rt, rn) in &[(false, false), (false, true), (true, false), (true, true)] {
            let seqs = run_combo(42, rt, rn, 0.0);
            for (i, s) in seqs.iter().enumerate() {
                assert_eq!(s.len(), 24, "combo ({rt},{rn}) endpoint {}", i + 1);
            }
            // All members see the identical global sequence.
            assert_eq!(seqs[0], seqs[1], "combo ({rt},{rn})");
            assert_eq!(seqs[0], seqs[2], "combo ({rt},{rn})");
        }
    }

    #[test]
    fn reference_stack_survives_loss_too() {
        let seqs = run_combo(7, true, true, 0.15);
        for s in &seqs {
            assert_eq!(s.len(), 24);
        }
        assert_eq!(seqs[0], seqs[1]);
    }

    #[test]
    fn reference_nak_is_wasteful_but_correct() {
        // Under loss, go-back-N must retransmit far more than it loses.
        let mut w = SimWorld::new(8, NetConfig::lossy(0.2));
        for i in 1..=2 {
            let s = StackBuilder::new(ep(i))
                .push(Box::new(NakRef::default()))
                .push(Box::new(Com::new()))
                .build()
                .unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        for k in 0..30u8 {
            w.cast_bytes(ep(1), vec![k]);
        }
        w.run_for(Duration::from_secs(3));
        let got: Vec<u8> = w.delivered_casts(ep(2)).iter().map(|(_, b, _)| b[0]).collect();
        assert_eq!(got, (0..30).collect::<Vec<u8>>());
        let r: &NakRef = w.stack(ep(1)).unwrap().focus_as("NAK_REF").unwrap();
        assert!(r.retransmissions > 0);
    }

    #[test]
    fn mixed_wire_protocols_are_firewalled_by_fingerprints() {
        // One endpoint runs NAK, the other NAK_REF: they must not
        // misinterpret each other — the stack fingerprint drops the frames.
        let mut w = SimWorld::new(9, NetConfig::reliable());
        let a = StackBuilder::new(ep(1))
            .push(Box::new(Nak::default()))
            .push(Box::new(Com::new()))
            .build()
            .unwrap();
        let b = StackBuilder::new(ep(2))
            .push(Box::new(NakRef::default()))
            .push(Box::new(Com::new()))
            .build()
            .unwrap();
        w.add_endpoint(a);
        w.add_endpoint(b);
        w.join(ep(1), GroupAddr::new(1));
        w.join(ep(2), GroupAddr::new(1));
        w.cast_bytes(ep(1), &b"?"[..]);
        w.run_for(Duration::from_millis(200));
        assert!(w.delivered_casts(ep(2)).is_empty());
        assert!(w.stack_stats(ep(2)).unwrap().fingerprint_drops >= 1);
    }
}
