//! TOTAL — token-based totally ordered multicast (§7).
//!
//! "The TOTAL layer, in turn, relies on virtually synchronous
//! communication.  During normal operation, it utilizes a token.  A special
//! 'oracle' at each member decides who should get the token next. [...] In
//! case of a failure, the token may be lost.  This, however, is not a
//! problem.  During the flush, all members that did not get the token in
//! time send their messages.  These messages are not delivered, but
//! buffered.  When the new view is installed, each member that remains
//! connected to the system is guaranteed to have all messages from the
//! previous view, and a deterministic order can easily be constructed
//! (e.g., messages are delivered in the order of the rank of the source).
//! Another deterministic rule decides who the first token holder in this
//! view is (e.g., the lowest ranked member)."
//!
//! The implementation follows the paper exactly:
//!
//! * Senders multicast data immediately, tagged `(sender, tseq)`; receivers
//!   buffer it *unordered*.
//! * Only the current **token holder** issues ORDER messages, assigning
//!   contiguous global sequence numbers to buffered messages; everyone
//!   delivers in global order.  The ORDER message also names the next
//!   holder, so the token grant is totally ordered by construction and two
//!   holders can never coexist.
//! * The **oracle** picks the next holder: the sender of the newest message
//!   just ordered (an active sender orders its own traffic cheaply), which
//!   "cannot always make the optimal decision ... but comes close".
//! * On a VIEW upcall from MBRSHIP the token is reconstructed for free:
//!   leftover unordered messages (all members hold the same set, thanks to
//!   virtual synchrony) are delivered in `(source rank, tseq)` order, and
//!   the lowest-ranked member of the new view becomes the first holder.
//!
//! ## The order book
//!
//! Everything above is kept in queues, because P3 beneath makes every
//! sequence involved monotone.  A sender's data arrives in `tseq` order,
//! every holder assigns all it has buffered from a sender, and deliveries
//! follow the global order, so per sender the casts named by ORDERs are
//! always a prefix of the casts sent: buffered data is a queue per
//! sender (push at the back, pop at the front) and "already ordered" is
//! a per-sender watermark.  The watermark is read only when this member
//! builds a batch, which requires `frontier == grant` — every ORDER
//! before the grant applied, none after it possible — so it is exact
//! whenever it matters.  Global numbers are handed out contiguously, so
//! the assignments awaiting delivery are a ring over `[gnext, frontier)`.
//! An ORDER that arrives ahead of the frontier (ORDERs of different
//! holders are FIFO only per holder) is parked whole, as the bytes it
//! came in, and unpacked when the frontier reaches its base; nothing is
//! ever indexed by a number read off the wire.  A frame that breaks these
//! assumptions — only a forged one can, or a stack composed without P3 —
//! is handled in place or dropped with a trace: an ORDER is parsed and
//! checked whole before any of it is applied.
//!
//! As §7 notes, TOTAL needs no failure detector of its own — its liveness
//! rests entirely on the view changes MBRSHIP supplies, which is how it
//! sidesteps the FLP impossibility argument.
//!
//! Requires P3, P8, P9, P15 beneath; provides P6 (totally ordered
//! delivery).

use bytes::Bytes;
use horus_core::prelude::*;
use horus_core::wire::{WireReader, WireWriter};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

const FIELDS: &[FieldSpec] = &[FieldSpec::new("kind", 2), FieldSpec::new("tseq", 32)];

const KIND_DATA: u64 = 0;
const KIND_ORDER: u64 = 1;

/// Wire size of one ORDER entry: sender address, `tseq`.
const ENTRY_BYTES: usize = 12;

/// What TOTAL keeps about one sender of the current view.
#[derive(Clone, Default)]
struct SenderBook {
    /// Buffered data not yet delivered, sorted by `tseq` — which is how
    /// it arrives (P3 beneath), so buffering is a push at the back and
    /// delivery a pop at the front.
    queue: VecDeque<(u32, Message)>,
    /// Every cast of this sender up to this `tseq` has a global sequence
    /// number inside `[1, frontier)`.
    assigned: u32,
    /// Highest `tseq` delivered.
    delivered: u32,
}

impl SenderBook {
    /// Index of the first buffered cast no ORDER has named yet.
    fn first_unassigned(&self) -> usize {
        self.queue.partition_point(|&(tseq, _)| tseq <= self.assigned)
    }
}

/// A well-formed ORDER body: `n` entries assigning `[base, end)`.
struct Order {
    base: u64,
    end: u64,
    next_holder: EndpointAddr,
    /// Exactly `n` well-formed entries.
    entries: Bytes,
}

impl Order {
    /// Parses and validates a whole ORDER body; `None` if any of it is
    /// malformed (truncated, a count the bytes present cannot hold, a
    /// range past `u64::MAX`, a null address).
    fn parse(body: &Bytes) -> Option<Order> {
        let mut r = WireReader::new(body);
        let base = r.get_u64().ok()?;
        let next_holder = r.get_addr().ok()?;
        let n = r.get_u32().ok()?;
        let end = base.checked_add(u64::from(n))?;
        let len = usize::try_from(n).ok()?.checked_mul(ENTRY_BYTES)?;
        let at = body.len() - r.remaining();
        if r.remaining() < len {
            return None;
        }
        let entries = body.slice(at..at + len);
        (order_entries(&entries).count() == n as usize).then_some(Order {
            base,
            end,
            next_holder,
            entries,
        })
    }
}

/// The `(sender, tseq)` entries of an ORDER body's entry block, up to the
/// first malformed one.
fn order_entries(block: &[u8]) -> impl Iterator<Item = (EndpointAddr, u32)> + '_ {
    block.chunks_exact(ENTRY_BYTES).map_while(|entry| {
        let mut r = WireReader::new(entry);
        Some((r.get_addr().ok()?, r.get_u32().ok()?))
    })
}

/// The token-based total ordering layer (see the module documentation for
/// why its order book is queues).
#[derive(Clone)]
pub struct Total {
    me: Option<EndpointAddr>,
    view: Option<View>,
    /// Per-sender sequence of our own casts within the view.
    my_tseq: u32,
    /// Buffered data and the ordered-up-to watermark, per sender.  Walked
    /// by address when the holder builds a batch.
    senders: BTreeMap<EndpointAddr, SenderBook>,
    /// The keys assigned `gnext, gnext + 1, .. frontier - 1`, awaiting
    /// their data or their turn.
    ordered: VecDeque<(EndpointAddr, u32)>,
    /// Next global sequence number to deliver.
    gnext: u64,
    /// The contiguous coverage frontier: every global sequence in
    /// `[1, frontier)` has been assigned by an applied (or self-issued)
    /// ORDER.
    frontier: u64,
    /// Entry blocks of ORDERs that arrived ahead of the frontier, by base
    /// (ORDERs from different senders arrive in any order); each is folded
    /// into `ordered` when the frontier reaches it.
    parked: BTreeMap<u64, Bytes>,
    /// If the token was granted to us: the base our first assignment must
    /// start at.  We may only issue once `frontier() == grant` — i.e. we
    /// have applied every ORDER before our grant — otherwise we could
    /// re-assign keys ordered by a message still in flight (ORDERs from
    /// different senders are only FIFO per sender).  It is also what makes
    /// the per-sender watermarks exact whenever a batch is built from
    /// them: no ORDER older than the grant is outstanding, and none newer
    /// can exist before we issue.
    grant: Option<u64>,
    /// Last known holder (the most recent grant applied), for diagnostics
    /// and the oracle.
    holder: Option<EndpointAddr>,
    holder_gen: u64,
    /// A flush is in progress below (§7: "these messages are not
    /// delivered, but buffered"): no ordering decisions, and application
    /// casts are held back so their sequence stamps belong to the view
    /// they will actually be sent in.
    flushing: bool,
    held: VecDeque<Message>,
    // Statistics.
    delivered: u64,
    orders_issued: u64,
    token_passes: u64,
    view_drains: u64,
}

impl Default for Total {
    fn default() -> Self {
        Total::new()
    }
}

impl Total {
    /// Creates a TOTAL layer.
    pub fn new() -> Self {
        Total {
            me: None,
            view: None,
            my_tseq: 0,
            senders: BTreeMap::new(),
            ordered: VecDeque::new(),
            gnext: 1,
            frontier: 1,
            parked: BTreeMap::new(),
            grant: None,
            holder: None,
            holder_gen: 0,
            flushing: false,
            held: VecDeque::new(),
            delivered: 0,
            orders_issued: 0,
            token_passes: 0,
            view_drains: 0,
        }
    }

    /// Buffers a data message until an ORDER names it.
    fn buffer(&mut self, src: EndpointAddr, tseq: u32, msg: Message, ctx: &mut LayerCtx<'_>) {
        let book = self.senders.entry(src).or_default();
        let newest = book.queue.back().map_or(0, |&(tseq, _)| tseq).max(book.delivered);
        if tseq > newest {
            book.queue.push_back((tseq, msg));
            return;
        }
        // Not FIFO: a forged frame, or a stack without P3 beneath us.
        if tseq > book.delivered {
            if let Err(at) = book.queue.binary_search_by_key(&tseq, |&(tseq, _)| tseq) {
                book.queue.insert(at, (tseq, msg));
                return;
            }
        }
        ctx.trace(format!("TOTAL: duplicate data {tseq} from {src} dropped"));
    }

    /// Appends an ORDER's entries to `ordered`, less the prefix the
    /// frontier already covers (a duplicate's, or a forged overlap).
    /// `base` must not be ahead of the frontier.
    fn fold(&mut self, base: u64, entries: &[u8]) {
        let covered = usize::try_from(self.frontier - base).unwrap_or(usize::MAX);
        for (src, tseq) in order_entries(entries).skip(covered) {
            let book = self.senders.entry(src).or_default();
            book.assigned = book.assigned.max(tseq);
            self.ordered.push_back((src, tseq));
            self.frontier += 1;
        }
    }

    /// Folds in the parked ORDERs the frontier has reached.
    fn unpark(&mut self) {
        while let Some(first) = self.parked.first_entry() {
            if *first.key() > self.frontier {
                break;
            }
            let (base, entries) = first.remove_entry();
            self.fold(base, &entries);
        }
    }

    /// Token holder: assign global sequence numbers to everything buffered
    /// and not yet ordered, then hand the token onward.  Only runs when we
    /// hold a grant *and* have applied every order before it, which makes
    /// double assignment impossible.
    fn issue_order(&mut self, ctx: &mut LayerCtx<'_>) {
        if self.flushing {
            return; // the view change will rebuild the token deterministically
        }
        let Some(g_base) = self.grant else { return };
        if self.frontier != g_base {
            return; // not caught up with the order chain yet
        }
        // The batch is every sender's unassigned tail, senders by address.
        // The oracle (§7) picks the next holder: the sender of the newest
        // message ordered, so active senders self-order cheaply.
        let mut n = 0;
        let mut next_holder = None;
        for (&src, book) in &self.senders {
            let fresh = book.queue.len() - book.first_unassigned();
            if fresh > 0 {
                n += fresh;
                next_holder = Some(src);
            }
        }
        let Some(next_holder) = next_holder else { return };
        let mut w = WireWriter::with_capacity(20 + ENTRY_BYTES * n);
        w.put_u64(g_base);
        w.put_addr(next_holder);
        w.put_u32(n as u32);
        // Our own assignments take effect immediately (the loopback copy
        // is then a no-op duplicate), so a kept token can chain issues
        // without waiting.
        for (&src, book) in &mut self.senders {
            for &(tseq, _) in book.queue.range(book.first_unassigned()..) {
                w.put_addr(src);
                w.put_u32(tseq);
                self.ordered.push_back((src, tseq));
                book.assigned = tseq;
            }
        }
        self.frontier += n as u64;
        self.unpark();
        self.orders_issued += 1;
        let mut m = ctx.new_message(w.finish());
        ctx.stamp(&mut m);
        ctx.set(&mut m, 0, KIND_ORDER);
        ctx.set(&mut m, 1, 0);
        ctx.down(Down::Cast(m));
        if next_holder == self.me.expect("init") {
            self.grant = Some(g_base + n as u64);
        } else {
            self.token_passes += 1;
            self.grant = None;
            self.holder = Some(next_holder);
        }
        self.try_deliver(ctx);
    }

    fn handle_order(&mut self, src: EndpointAddr, body: &Bytes, ctx: &mut LayerCtx<'_>) {
        if Some(src) == self.me {
            // Our own ORDER already took effect at issue time; re-applying
            // the loopback copy could resurrect a stale self-grant.
            return;
        }
        // All of it or none of it: nothing below is computed from a value
        // the parse has not checked.
        let Some(order) = Order::parse(body) else {
            ctx.trace(format!("TOTAL: malformed ORDER from {src} dropped"));
            return;
        };
        if order.base <= self.frontier {
            self.fold(order.base, &order.entries);
            self.unpark();
        } else if !order.entries.is_empty() {
            self.parked.entry(order.base).or_insert(order.entries);
        }
        if order.base >= self.holder_gen {
            self.holder = Some(order.next_holder);
            self.holder_gen = order.base;
        }
        if order.next_holder == self.me.expect("init") && self.grant.is_none() {
            self.grant = Some(order.end);
        }
        // Coverage may have advanced enough to act on a pending grant.
        self.issue_order(ctx);
        self.try_deliver(ctx);
    }

    fn try_deliver(&mut self, ctx: &mut LayerCtx<'_>) {
        while let Some(&(src, tseq)) = self.ordered.front() {
            let Some(book) = self.senders.get_mut(&src) else { break };
            // The sender's oldest buffered cast, unless it is yet to come.
            let Ok(at) = book.queue.binary_search_by_key(&tseq, |&(tseq, _)| tseq) else { break };
            let Some((_, mut msg)) = book.queue.remove(at) else { break };
            book.delivered = book.delivered.max(tseq);
            self.ordered.pop_front();
            msg.meta.set_total_seq(Some(self.gnext));
            self.gnext += 1;
            self.delivered += 1;
            ctx.up(Up::Cast { src, msg });
        }
    }

    /// View change: drain deterministically and reset the token (§7).
    fn handle_view(&mut self, view: View, ctx: &mut LayerCtx<'_>) {
        // First deliver everything that was ordered and is present.
        self.try_deliver(ctx);
        // Then the leftover unordered messages, by (source rank, tseq) in
        // the OLD view — every survivor holds the same set, so this order
        // is identical everywhere.
        let mut leftovers: Vec<(EndpointAddr, SenderBook)> =
            std::mem::take(&mut self.senders).into_iter().collect();
        if let Some(old) = &self.view {
            leftovers.sort_by_key(|&(src, _)| (old.rank_of(src).map_or(usize::MAX, |r| r.0), src));
        }
        for (src, book) in leftovers {
            for (_, mut msg) in book.queue {
                msg.meta.set_total_seq(Some(self.gnext));
                self.gnext += 1;
                self.delivered += 1;
                self.view_drains += 1;
                ctx.up(Up::Cast { src, msg });
            }
        }
        // Reset for the new view: lowest-ranked member holds the token.
        self.ordered.clear();
        self.parked.clear();
        self.my_tseq = 0;
        self.gnext = 1;
        self.frontier = 1;
        self.holder_gen = 0;
        self.holder = view.members().first().copied();
        self.grant = (self.holder == self.me).then_some(1);
        self.view = Some(view.clone());
        self.flushing = false;
        ctx.up(Up::View(view));
        // Casts held during the flush go out now, stamped for this view.
        while let Some(msg) = self.held.pop_front() {
            self.stamp_and_send(msg, ctx);
        }
        self.issue_order(ctx);
    }

    fn stamp_and_send(&mut self, mut msg: Message, ctx: &mut LayerCtx<'_>) {
        self.my_tseq += 1;
        ctx.stamp(&mut msg);
        ctx.set(&mut msg, 0, KIND_DATA);
        ctx.set(&mut msg, 1, self.my_tseq as u64);
        ctx.down(Down::Cast(msg));
    }

    fn buffered(&self) -> usize {
        self.senders.values().map(|book| book.queue.len()).sum()
    }
}

impl Layer for Total {
    fn name(&self) -> &'static str {
        "TOTAL"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        self.me = Some(ctx.local_addr());
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(msg) => {
                if self.flushing {
                    self.held.push_back(msg);
                } else {
                    self.stamp_and_send(msg, ctx);
                }
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
                    KIND_DATA => {
                        let tseq = ctx.get(&msg, 1) as u32;
                        self.buffer(src, tseq, msg, ctx);
                        self.issue_order(ctx);
                        self.try_deliver(ctx);
                    }
                    KIND_ORDER => self.handle_order(src, msg.body(), ctx),
                    _ => {}
                }
            }
            Up::View(view) => self.handle_view(view, ctx),
            Up::Flush { failed } => {
                self.flushing = true;
                ctx.up(Up::Flush { failed });
            }
            other => ctx.up(other),
        }
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        // Assignments awaiting delivery: the ring, then the parked ORDERs
        // by base (`base + i` stays below an ORDER's checked end).
        let ring = self.ordered.iter().enumerate().map(|(i, &key)| (self.gnext + i as u64, key));
        let parked = self.parked.iter().flat_map(|(&base, entries)| {
            order_entries(entries).enumerate().map(move |(i, key)| (base + i as u64, key))
        });
        let assigned = self.ordered.len()
            + self.parked.values().map(|entries| entries.len() / ENTRY_BYTES).sum::<usize>();
        write!(
            w,
            "holder={:?} grant={:?} gnext={} frontier={} delivered={} buffered={} ordered={} assigned={} orders={} passes={} drains={} pend={:?}",
            self.holder,
            self.grant,
            self.gnext,
            self.frontier,
            self.delivered,
            self.buffered(),
            assigned,
            assigned,
            self.orders_issued,
            self.token_passes,
            self.view_drains,
            ring.chain(parked).take(3).collect::<Vec<_>>()
        )
    }

    fn pending_work(&self) -> u64 {
        // Buffered data awaiting a global sequence number (a parked token
        // keeps this non-empty) plus casts held back during a flush.
        (self.buffered() + self.held.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::com::Com;
    use crate::frag::Frag;
    use crate::mbrship::{Mbrship, MbrshipConfig};
    use crate::nak::{Nak, NakConfig};
    use horus_net::NetConfig;
    use horus_sim::{check_total_order, check_virtual_synchrony, DeliveryLog, SimWorld, Workload};
    use std::time::Duration;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn total_stack(i: u64) -> Stack {
        StackBuilder::new(ep(i))
            .push(Box::new(Total::new()))
            .push(Box::new(Mbrship::new(MbrshipConfig::default())))
            .push(Box::new(Frag::default()))
            .push(Box::new(Nak::new(NakConfig {
                fail_timeout: Duration::from_millis(120),
                ..NakConfig::default()
            })))
            .push(Box::new(Com::promiscuous()))
            .build()
            .unwrap()
    }

    fn joined_world(n: u64, seed: u64, net: NetConfig) -> SimWorld {
        let mut w = SimWorld::new(seed, net);
        for i in 1..=n {
            w.add_endpoint(total_stack(i));
            w.join(ep(i), GroupAddr::new(1));
        }
        for i in 2..=n {
            w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
        }
        w.run_for(Duration::from_secs(2));
        for i in 1..=n {
            assert_eq!(
                w.installed_views(ep(i)).last().expect("view").len(),
                n as usize,
                "endpoint {i} joined"
            );
        }
        w
    }

    fn logs(w: &SimWorld, n: u64) -> Vec<DeliveryLog> {
        (1..=n)
            .filter(|&i| w.is_alive(ep(i)))
            .map(|i| DeliveryLog::from_upcalls(ep(i), w.upcalls(ep(i))))
            .collect()
    }

    #[test]
    fn concurrent_senders_identical_order() {
        let mut w = joined_world(3, 1, NetConfig::reliable());
        let t = w.now();
        let wl = horus_sim::Workload {
            kind: horus_sim::WorkloadKind::AllToAll,
            senders: vec![ep(1), ep(2), ep(3)],
            slots: 20,
            interval: Duration::from_micros(300),
            payload: 24,
        };
        wl.schedule(&mut w, t + Duration::from_millis(1));
        w.run_for(Duration::from_secs(2));
        for i in 1..=3 {
            assert_eq!(w.delivered_casts(ep(i)).len(), 60, "endpoint {i}");
        }
        let logs = logs(&w, 3);
        assert!(check_total_order(&logs).is_empty());
        assert!(check_virtual_synchrony(&logs).is_empty());
        // All three endpoints see exactly the same global sequence.
        let seq1: Vec<_> =
            w.delivered_casts(ep(1)).iter().map(|(s, b, _)| (*s, b.clone())).collect();
        for i in 2..=3 {
            let seq: Vec<_> =
                w.delivered_casts(ep(i)).iter().map(|(s, b, _)| (*s, b.clone())).collect();
            assert_eq!(seq1, seq, "endpoint {i} sequence identical");
        }
    }

    #[test]
    fn total_order_survives_loss() {
        for seed in 1..=3 {
            let mut w = joined_world(3, 50 + seed, NetConfig::lossy(0.15));
            let t = w.now();
            let wl = Workload::round_robin(vec![ep(1), ep(2), ep(3)], 30);
            wl.schedule(&mut w, t + Duration::from_millis(1));
            w.run_for(Duration::from_secs(4));
            for i in 1..=3 {
                assert_eq!(w.delivered_casts(ep(i)).len(), 30, "seed {seed} endpoint {i}");
            }
            assert!(check_total_order(&logs(&w, 3)).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn token_holder_crash_recovers_deterministically() {
        for seed in 1..=4 {
            let mut w = joined_world(4, 80 + seed, NetConfig::reliable());
            let t = w.now();
            let wl = Workload::round_robin(vec![ep(1), ep(2), ep(3), ep(4)], 40);
            wl.schedule(&mut w, t + Duration::from_millis(1));
            // The initial token holder is the lowest-ranked member (ep1,
            // the oldest): crash it mid-stream.
            w.crash_at(t + Duration::from_millis(15), ep(1));
            w.run_for(Duration::from_secs(4));
            let logs = logs(&w, 4);
            let violations = check_total_order(&logs);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
            assert!(check_virtual_synchrony(&logs).is_empty(), "seed {seed}");
            // Survivors continue: the remaining members' casts all arrive.
            for i in 2..=4 {
                let n = w.delivered_casts(ep(i)).len();
                assert!(n >= 30, "seed {seed} endpoint {i} delivered {n}");
            }
        }
    }

    #[test]
    fn orders_ahead_of_the_frontier_park_until_it_reaches_them() {
        let mut rx = Harness::new(ep(9), &[ep(1), ep(2), ep(9)]);
        let state = |rx: &Harness| {
            let t: &Total = rx.prod.focus_as("TOTAL").unwrap();
            (t.frontier, t.parked.len(), t.ordered.len())
        };
        // ep1's casts `from..from + 3`, assigned from `base` on.
        let order = |rx: &Harness, base: u64, from: u32| {
            let keys: Vec<_> = (from..from + 3).map(|tseq| (ep(1), tseq)).collect();
            rx.order_frame(base, ep(2), &keys)
        };
        // In-order ORDERs park nothing.
        for k in 0..1000 {
            let wire = order(&rx, 1 + 3 * k, 1 + 3 * k as u32);
            rx.deliver(ep(2), wire);
            assert_eq!(state(&rx), (4 + 3 * k, 0, 3 + 3 * k as usize));
        }
        // A gap holds the frontier back until the missing ORDER arrives.
        let (late, ahead, further) =
            (order(&rx, 3001, 3001), order(&rx, 3004, 3004), order(&rx, 3007, 3007));
        rx.deliver(ep(2), further);
        rx.deliver(ep(2), ahead.clone());
        assert_eq!(state(&rx), (3001, 2, 3000));
        // A duplicate of a parked ORDER changes nothing.
        rx.deliver(ep(2), ahead.clone());
        assert_eq!(state(&rx), (3001, 2, 3000));
        rx.deliver(ep(2), late);
        assert_eq!(state(&rx), (3010, 0, 3009));
        // Nor does a duplicate of an applied one.
        rx.deliver(ep(2), ahead);
        assert_eq!(state(&rx), (3010, 0, 3009));
    }

    #[test]
    fn token_moves_to_active_senders() {
        let mut w = joined_world(3, 5, NetConfig::reliable());
        let t = w.now();
        // Only ep3 casts: the oracle should hand it the token, after which
        // it orders its own messages without extra hops.
        for k in 1..=20u64 {
            w.cast_bytes_at(t + Duration::from_millis(k), ep(3), Workload::body(ep(3), k, 24));
        }
        w.run_for(Duration::from_secs(1));
        let total: &Total = w.stack(ep(3)).unwrap().focus_as("TOTAL").unwrap();
        assert_eq!(total.holder, Some(ep(3)), "token settled on the active sender");
        assert!(total.orders_issued > 0, "the active sender issued orders itself");
    }

    #[test]
    fn global_sequence_is_exposed_in_meta() {
        let mut w = joined_world(2, 6, NetConfig::reliable());
        let t = w.now();
        for k in 1..=5u64 {
            w.cast_bytes_at(t + Duration::from_millis(k), ep(1), Workload::body(ep(1), k, 24));
        }
        w.run_for(Duration::from_secs(1));
        let seqs: Vec<u64> = w
            .upcalls(ep(2))
            .iter()
            .filter_map(|(_, up)| match up {
                Up::Cast { msg, .. } => msg.meta.total_seq(),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
    }

    // ------------------------------------------------------------------
    // Differential test: the queue order book against the B-tree one
    // ------------------------------------------------------------------

    /// The order book this layer kept before it became queues — three
    /// B-trees and a coverage map — as the reference the queues are held
    /// equal to: same upcalls, same ORDER bodies, same dump, event by event.
    #[derive(Clone)]
    struct ModelTotal {
        me: Option<EndpointAddr>,
        view: Option<View>,
        my_tseq: u32,
        unordered: BTreeMap<(EndpointAddr, u32), Message>,
        ordered: BTreeMap<u64, (EndpointAddr, u32)>,
        assigned: BTreeMap<(EndpointAddr, u32), u64>,
        gnext: u64,
        frontier: u64,
        covered: BTreeMap<u64, u64>,
        grant: Option<u64>,
        holder: Option<EndpointAddr>,
        holder_gen: u64,
        flushing: bool,
        held: VecDeque<Message>,
        delivered: u64,
        orders_issued: u64,
        token_passes: u64,
        view_drains: u64,
    }

    impl ModelTotal {
        fn new() -> Self {
            ModelTotal {
                me: None,
                view: None,
                my_tseq: 0,
                unordered: BTreeMap::new(),
                ordered: BTreeMap::new(),
                assigned: BTreeMap::new(),
                gnext: 1,
                frontier: 1,
                covered: BTreeMap::new(),
                grant: None,
                holder: None,
                holder_gen: 0,
                flushing: false,
                held: VecDeque::new(),
                delivered: 0,
                orders_issued: 0,
                token_passes: 0,
                view_drains: 0,
            }
        }

        fn add_coverage(&mut self, base: u64, len: u64) {
            let e = self.covered.entry(base).or_insert(base);
            *e = (*e).max(base + len);
            while let Some(first) = self.covered.first_entry() {
                if *first.key() > self.frontier {
                    break;
                }
                self.frontier = self.frontier.max(first.remove());
            }
        }

        fn issue_order(&mut self, ctx: &mut LayerCtx<'_>) {
            if self.flushing {
                return;
            }
            let Some(g_base) = self.grant else { return };
            if self.frontier != g_base {
                return;
            }
            let batch: Vec<(EndpointAddr, u32)> = self
                .unordered
                .keys()
                .filter(|k| !self.assigned.contains_key(*k))
                .copied()
                .collect();
            let Some(&(next_holder, _)) = batch.last() else { return };
            let n = batch.len() as u64;
            let mut w = WireWriter::with_capacity(20 + 12 * batch.len());
            w.put_u64(g_base);
            w.put_addr(next_holder);
            w.put_u32(batch.len() as u32);
            for &(src, tseq) in &batch {
                w.put_addr(src);
                w.put_u32(tseq);
            }
            self.orders_issued += 1;
            for (i, &key) in batch.iter().enumerate() {
                self.ordered.insert(g_base + i as u64, key);
                self.assigned.insert(key, g_base + i as u64);
            }
            self.add_coverage(g_base, n);
            let mut m = ctx.new_message(w.finish());
            ctx.stamp(&mut m);
            ctx.set(&mut m, 0, KIND_ORDER);
            ctx.set(&mut m, 1, 0);
            ctx.down(Down::Cast(m));
            if next_holder == self.me.expect("init") {
                self.grant = Some(g_base + n);
            } else {
                self.token_passes += 1;
                self.grant = None;
                self.holder = Some(next_holder);
            }
            self.try_deliver(ctx);
        }

        fn handle_order(&mut self, src: EndpointAddr, body: &[u8], ctx: &mut LayerCtx<'_>) {
            if Some(src) == self.me {
                return;
            }
            let mut r = WireReader::new(body);
            let Ok(g_base) = r.get_u64() else { return };
            let Ok(next_holder) = r.get_addr() else { return };
            let Ok(n) = r.get_u32() else { return };
            for i in 0..n as u64 {
                let (Ok(src), Ok(tseq)) = (r.get_addr(), r.get_u32()) else { return };
                self.ordered.entry(g_base + i).or_insert((src, tseq));
                self.assigned.entry((src, tseq)).or_insert(g_base + i);
            }
            self.add_coverage(g_base, n as u64);
            if g_base >= self.holder_gen {
                self.holder = Some(next_holder);
                self.holder_gen = g_base;
            }
            if next_holder == self.me.expect("init") && self.grant.is_none() {
                self.grant = Some(g_base + n as u64);
            }
            self.issue_order(ctx);
            self.try_deliver(ctx);
        }

        fn try_deliver(&mut self, ctx: &mut LayerCtx<'_>) {
            while let Some(&key) = self.ordered.get(&self.gnext) {
                let Some(mut msg) = self.unordered.remove(&key) else { break };
                self.ordered.remove(&self.gnext);
                self.assigned.remove(&key);
                msg.meta.set_total_seq(Some(self.gnext));
                self.gnext += 1;
                self.delivered += 1;
                ctx.up(Up::Cast { src: key.0, msg });
            }
        }

        fn handle_view(&mut self, view: View, ctx: &mut LayerCtx<'_>) {
            self.try_deliver(ctx);
            let mut leftovers: Vec<_> = self.unordered.keys().copied().collect();
            if let Some(old) = &self.view {
                leftovers.sort_by_key(|&(src, tseq)| {
                    (old.rank_of(src).map(|r| r.0).unwrap_or(usize::MAX), src, tseq)
                });
            }
            for key in leftovers {
                let mut msg = self.unordered.remove(&key).expect("key from buffer");
                msg.meta.set_total_seq(Some(self.gnext));
                self.gnext += 1;
                self.delivered += 1;
                self.view_drains += 1;
                ctx.up(Up::Cast { src: key.0, msg });
            }
            self.unordered.clear();
            self.ordered.clear();
            self.assigned.clear();
            self.my_tseq = 0;
            self.gnext = 1;
            self.frontier = 1;
            self.covered.clear();
            self.holder_gen = 0;
            self.holder = view.members().first().copied();
            self.grant = (self.holder == self.me).then_some(1);
            self.view = Some(view.clone());
            self.flushing = false;
            ctx.up(Up::View(view));
            let held: Vec<Message> = self.held.drain(..).collect();
            for msg in held {
                self.stamp_and_send(msg, ctx);
            }
            self.issue_order(ctx);
        }

        fn stamp_and_send(&mut self, mut msg: Message, ctx: &mut LayerCtx<'_>) {
            self.my_tseq += 1;
            ctx.stamp(&mut msg);
            ctx.set(&mut msg, 0, KIND_DATA);
            ctx.set(&mut msg, 1, self.my_tseq as u64);
            ctx.down(Down::Cast(msg));
        }
    }

    impl Layer for ModelTotal {
        fn name(&self) -> &'static str {
            "TOTAL"
        }

        fn header_fields(&self) -> &'static [FieldSpec] {
            FIELDS
        }

        fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
            self.me = Some(ctx.local_addr());
        }

        fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
            match ev {
                Down::Cast(msg) if self.flushing => self.held.push_back(msg),
                Down::Cast(msg) => self.stamp_and_send(msg, ctx),
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
                        KIND_DATA => {
                            let tseq = ctx.get(&msg, 1) as u32;
                            self.unordered.insert((src, tseq), msg);
                            self.issue_order(ctx);
                            self.try_deliver(ctx);
                        }
                        KIND_ORDER => self.handle_order(src, &msg.body().clone(), ctx),
                        _ => {}
                    }
                }
                Up::View(view) => self.handle_view(view, ctx),
                Up::Flush { failed } => {
                    self.flushing = true;
                    ctx.up(Up::Flush { failed });
                }
                other => ctx.up(other),
            }
        }

        fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
            write!(
                w,
                "holder={:?} grant={:?} gnext={} frontier={} delivered={} buffered={} ordered={} assigned={} orders={} passes={} drains={} pend={:?}",
                self.holder,
                self.grant,
                self.gnext,
                self.frontier,
                self.delivered,
                self.unordered.len(),
                self.ordered.len(),
                self.assigned.len(),
                self.orders_issued,
                self.token_passes,
                self.view_drains,
                self.ordered.iter().take(3).collect::<Vec<_>>()
            )
        }

        fn pending_work(&self) -> u64 {
            (self.unordered.len() + self.held.len()) as u64
        }
    }

    /// Stands in for everything beneath TOTAL: data passes through both
    /// ways, and a frame marked in this layer's one header field becomes
    /// the VIEW or FLUSH upcall MBRSHIP would have made.
    #[derive(Clone)]
    struct Below;

    const BELOW_FIELDS: &[FieldSpec] = &[FieldSpec::new("what", 2)];
    const PASS: u64 = 0;
    const VIEW: u64 = 1;
    const FLUSH: u64 = 2;

    impl Layer for Below {
        fn name(&self) -> &'static str {
            "BELOW"
        }

        fn header_fields(&self) -> &'static [FieldSpec] {
            BELOW_FIELDS
        }

        fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
            match ev {
                Down::Cast(mut msg) => {
                    ctx.stamp(&mut msg);
                    ctx.set(&mut msg, 0, PASS);
                    ctx.down(Down::Cast(msg));
                }
                other => ctx.down(other),
            }
        }

        fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
            let Up::Cast { src, mut msg } = ev else { return ctx.up(ev) };
            ctx.open(&mut msg).expect("frames are built against this stack");
            let mut r = WireReader::new(msg.body());
            match ctx.get(&msg, 0) {
                VIEW => ctx.up(Up::View(r.get_view().expect("a view"))),
                FLUSH => ctx.up(Up::Flush { failed: r.get_addrs().expect("addresses") }),
                _ => ctx.up(Up::Cast { src, msg }),
            }
        }
    }

    /// A comparable rendering of an effect: messages and frames by their
    /// bytes (and annotations), the rest by `Debug`.
    fn render(fx: &Effect) -> String {
        match fx {
            Effect::NetCast { wire } => format!("cast {:?}", wire.to_bytes()),
            Effect::Deliver(Up::Cast { src, msg }) => {
                format!("deliver {src} {:?} {:?}", msg.encode_inner(), msg.meta)
            }
            other => format!("{other:?}"),
        }
    }

    /// The production layer and the model, each over [`Below`] at the same
    /// endpoint, fed the same inputs.
    struct Harness {
        prod: Stack,
        model: Stack,
    }

    impl Harness {
        /// Both stacks, with `members` installed as their first view.
        fn new(me: EndpointAddr, members: &[EndpointAddr]) -> Self {
            let stack = |top: Box<dyn Layer>| {
                let mut s = StackBuilder::new(me).push(top).push(Box::new(Below)).build().unwrap();
                let _ = s.init();
                s
            };
            let mut h = Harness {
                prod: stack(Box::<Total>::default()),
                model: stack(Box::new(ModelTotal::new())),
            };
            assert_eq!(h.prod.fingerprint(), h.model.fingerprint());
            h.install(1, members);
            h
        }

        /// Feeds `input` to both stacks and holds them equal: effects,
        /// dumps, pending work.  Returns the effects.
        fn step(&mut self, input: StackInput) -> Vec<Effect> {
            let got = self.prod.handle(input.clone());
            let want = self.model.handle(input);
            assert_eq!(
                got.iter().map(render).collect::<Vec<_>>(),
                want.iter().map(render).collect::<Vec<_>>()
            );
            assert_eq!(self.prod.dump(), self.model.dump());
            assert_eq!(self.prod.pending_work(), self.model.pending_work());
            got
        }

        fn deliver(&mut self, from: EndpointAddr, wire: WireFrame) -> Vec<Effect> {
            self.step(StackInput::FromNet { from, cast: true, wire })
        }

        fn cast(&mut self, body: Bytes) -> Vec<Effect> {
            let msg = self.prod.new_message(body);
            self.step(StackInput::FromApp(Down::Cast(msg)))
        }

        /// A frame as a peer's stack would have built it.
        fn frame(&self, kind: u64, tseq: u32, what: u64, body: Bytes) -> WireFrame {
            let mut msg = self.prod.new_message(body);
            msg.push_header(0);
            msg.set_field(0, 0, kind);
            msg.set_field(0, 1, tseq as u64);
            msg.push_header(1);
            msg.set_field(1, 0, what);
            WireFrame::build(self.prod.fingerprint(), msg.header_area(), msg.body().clone())
        }

        fn data_frame(&self, tseq: u32, body: Bytes) -> WireFrame {
            self.frame(KIND_DATA, tseq, PASS, body)
        }

        fn order_frame(
            &self,
            base: u64,
            next_holder: EndpointAddr,
            keys: &[(EndpointAddr, u32)],
        ) -> WireFrame {
            let mut w = WireWriter::new();
            w.put_u64(base);
            w.put_addr(next_holder);
            w.put_u32(keys.len() as u32);
            for &(src, tseq) in keys {
                w.put_addr(src);
                w.put_u32(tseq);
            }
            self.frame(KIND_ORDER, 0, PASS, w.finish())
        }

        fn install(&mut self, counter: u64, members: &[EndpointAddr]) -> Vec<Effect> {
            let view = View::from_parts(
                GroupAddr::new(1),
                horus_core::view::ViewId { counter, coordinator: members[0] },
                members.to_vec(),
                vec![counter; members.len()],
            );
            let mut w = WireWriter::new();
            w.put_view(&view);
            let wire = self.frame(KIND_DATA, 0, VIEW, w.finish());
            self.deliver(members[0], wire)
        }

        fn flush(&mut self, from: EndpointAddr, failed: &[EndpointAddr]) -> Vec<Effect> {
            let mut w = WireWriter::new();
            w.put_addrs(failed);
            let wire = self.frame(KIND_DATA, 0, FLUSH, w.finish());
            self.deliver(from, wire)
        }

        /// The header fields and body of a frame one of the stacks cast.
        fn open(&self, wire: &WireFrame) -> (u64, u32, Bytes) {
            let msg = Message::decode_parts(
                self.prod.layout().clone(),
                &wire.head()[8..],
                wire.body().clone(),
            )
            .expect("our own frame");
            (msg.field(0, 0), msg.field(0, 1) as u32, msg.body().clone())
        }

        /// The next global number to deliver (the dumps agree on it).
        fn gnext(&self) -> u64 {
            self.prod.focus_as::<Total>("TOTAL").expect("the layer").gnext
        }
    }

    /// The rest of an honest group, as seen from member `me`: peers that
    /// cast, a token that moves as the ORDERs say, per-source FIFO channels
    /// into `me`, and view changes that complete the survivors' channels
    /// and cut the failed members' short — everything TOTAL may assume of
    /// the stack beneath it, and nothing more (ORDERs of different holders
    /// arrive in any order relative to each other and to third parties'
    /// data).
    struct Group {
        h: Harness,
        me: EndpointAddr,
        members: Vec<EndpointAddr>,
        counter: u64,
        /// Frames on their way to `me`, FIFO per source.
        channel: BTreeMap<EndpointAddr, VecDeque<WireFrame>>,
        /// Casts made in this view, per sender.
        sent: BTreeMap<EndpointAddr, u32>,
        /// How far the order chain has got, per sender and globally.
        assigned: BTreeMap<EndpointAddr, u32>,
        base: u64,
        token: EndpointAddr,
        failed: Option<Vec<EndpointAddr>>,
        /// Peers' ORDERs `me` has been handed, for replaying duplicates.
        handed: Vec<(EndpointAddr, Order, WireFrame)>,
        bodies: u64,
    }

    /// The one action in 64 that starts a flush; the three above it end one.
    const FLUSH_ACTION: u8 = 60;

    impl Group {
        fn new(n: u64) -> Self {
            let members: Vec<_> = (1..=n).map(ep).collect();
            // `me` is neither first nor last by address where that is possible.
            let me = members[members.len() / 2];
            let mut g = Group {
                h: Harness::new(me, &members),
                me,
                members: Vec::new(),
                counter: 1,
                channel: BTreeMap::new(),
                sent: BTreeMap::new(),
                assigned: BTreeMap::new(),
                base: 1,
                token: me,
                failed: None,
                handed: Vec::new(),
                bodies: 0,
            };
            g.reset(members);
            g
        }

        fn reset(&mut self, members: Vec<EndpointAddr>) {
            self.channel.clear();
            self.sent.clear();
            self.assigned.clear();
            self.base = 1;
            self.token = members[0];
            self.failed = None;
            self.handed.clear();
            self.members = members;
        }

        fn body(&mut self) -> Bytes {
            self.bodies += 1;
            Bytes::from(self.bodies.to_le_bytes().to_vec())
        }

        /// Books what `me` put on the wire: its data and ORDERs loop back
        /// through its own channel, and its ORDERs move the token.
        fn sent_by_me(&mut self, fx: Vec<Effect>) {
            for fx in fx {
                let Effect::NetCast { wire } = fx else { continue };
                let (kind, tseq, body) = self.h.open(&wire);
                if kind == KIND_DATA {
                    let sent = self.sent.entry(self.me).or_default();
                    assert_eq!(tseq, *sent + 1);
                    *sent = tseq;
                } else {
                    let order = Order::parse(&body).expect("our own ORDER");
                    assert_eq!((self.token, self.base), (self.me, order.base));
                    for (src, tseq) in order_entries(&order.entries) {
                        assert_eq!(tseq, self.assigned.get(&src).copied().unwrap_or(0) + 1);
                        assert!(tseq <= self.sent[&src]);
                        self.assigned.insert(src, tseq);
                    }
                    self.base = order.end;
                    self.token = order.next_holder;
                }
                self.channel.entry(self.me).or_default().push_back(wire);
            }
        }

        fn peer_casts(&mut self, peer: EndpointAddr) {
            let sent = self.sent.entry(peer).or_default();
            *sent += 1;
            let tseq = *sent;
            let body = self.body();
            let wire = self.h.data_frame(tseq, body);
            self.channel.entry(peer).or_default().push_back(wire);
        }

        /// The holder (a peer) orders what it has seen and nobody has
        /// ordered: of the i-th member's casts, up to as many as the i-th
        /// pair of bits of `seen` says.
        fn peer_orders(&mut self, seen: u8) {
            let holder = self.token;
            let mut keys = Vec::new();
            for (i, &src) in self.members.iter().enumerate() {
                let from = self.assigned.get(&src).copied().unwrap_or(0);
                let take = u32::from(seen >> (2 * i) & 3);
                let upto = self.sent.get(&src).copied().unwrap_or(0).min(from + take);
                keys.extend((from + 1..=upto).map(|tseq| (src, tseq)));
                self.assigned.insert(src, upto);
            }
            let Some(&(next_holder, _)) = keys.last() else { return };
            let wire = self.h.order_frame(self.base, next_holder, &keys);
            self.channel.entry(holder).or_default().push_back(wire);
            self.base += keys.len() as u64;
            self.token = next_holder;
        }

        /// Hands `me` the next frame of `from`'s channel.
        fn deliver_next(&mut self, from: EndpointAddr) {
            let Some(wire) = self.channel.get_mut(&from).and_then(VecDeque::pop_front) else {
                return;
            };
            let (kind, _, body) = self.h.open(&wire);
            if kind == KIND_ORDER && from != self.me {
                self.handed.push((
                    from,
                    Order::parse(&body).expect("a peer's ORDER"),
                    wire.clone(),
                ));
            }
            let fx = self.h.deliver(from, wire);
            self.sent_by_me(fx);
        }

        fn step(&mut self, action: u8, arg: u8) {
            let pick = |from: &[EndpointAddr]| from[arg as usize % from.len()];
            match action % 64 {
                0..=11 => {
                    let peer = pick(&self.members);
                    if peer != self.me {
                        self.peer_casts(peer);
                    }
                }
                12..=19 => {
                    let body = self.body();
                    let fx = self.h.cast(body);
                    self.sent_by_me(fx);
                }
                20..=37 => {
                    let busy: Vec<_> = self
                        .channel
                        .iter()
                        .filter(|(_, frames)| !frames.is_empty())
                        .map(|(&from, _)| from)
                        .collect();
                    if !busy.is_empty() {
                        self.deliver_next(pick(&busy));
                    }
                }
                38..=55 => {
                    if self.token != self.me && self.failed.is_none() {
                        self.peer_orders(arg);
                    }
                }
                56..=59 => {
                    // A duplicate: of an ORDER none of which is delivered
                    // yet (the B-tree book re-inserted delivered entries
                    // and kept them until the next view), and not one that
                    // grants `me` the token a second time.
                    let gnext = self.h.gnext();
                    let again: Vec<_> = self
                        .handed
                        .iter()
                        .filter(|(_, order, _)| order.base >= gnext && order.next_holder != self.me)
                        .collect();
                    if !again.is_empty() {
                        let (from, _, wire) = again[arg as usize % again.len()];
                        let fx = self.h.deliver(*from, wire.clone());
                        self.sent_by_me(fx);
                    }
                }
                FLUSH_ACTION => {
                    let others: Vec<_> =
                        self.members.iter().copied().filter(|&m| m != self.me).collect();
                    let failed: Vec<_> = others
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| arg >> i & 1 == 1)
                        .map(|(_, &m)| m)
                        .collect();
                    let fx = self.h.flush(self.members[0], &failed);
                    self.sent_by_me(fx);
                    self.failed = Some(failed);
                }
                _ => {
                    let Some(failed) = self.failed.clone() else { return };
                    // Virtual synchrony beneath: every survivor's channel
                    // is delivered in full before the view, a failed
                    // member's up to wherever the cut fell.
                    let sources: Vec<_> = self.channel.keys().copied().collect();
                    for (i, from) in sources.into_iter().enumerate() {
                        let queued = self.channel[&from].len();
                        let keep = if failed.contains(&from) {
                            (arg as usize + i) % (queued + 1)
                        } else {
                            queued
                        };
                        for _ in 0..keep {
                            self.deliver_next(from);
                        }
                    }
                    let members: Vec<_> =
                        self.members.iter().copied().filter(|m| !failed.contains(m)).collect();
                    self.counter += 1;
                    self.reset(members.clone());
                    let fx = self.h.install(self.counter, &members);
                    self.sent_by_me(fx);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 96,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Any honest run — one to four senders, the token moving among
        /// them, ORDERs of different holders overtaking each other and the
        /// data they name, duplicates, our own loopback, flushes with casts
        /// held and views with leftovers — reads the same from the queues
        /// as from the B-trees after every single event.
        #[test]
        fn queue_order_book_matches_the_btree_order_book(
            n in 1u64..=4,
            script in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), proptest::prelude::any::<u8>()), 0..600),
        ) {
            let mut group = Group::new(n);
            for (action, arg) in script {
                group.step(action, arg);
            }
            // Drain what is in flight, then close the view on whatever is left.
            group.step(FLUSH_ACTION, 0);
            group.step(FLUSH_ACTION + 1, 0);
        }
    }
}
