//! NAK — reliable FIFO delivery via sequence numbers and negative
//! acknowledgements (§7).
//!
//! "The NAK layer provides FIFO ordering of messages.  For this it pushes a
//! sequence number on each outgoing message, that the receiver can check.
//! If the receiver detects message loss, it sends back a negative
//! acknowledgement (NAK).  The NAK layer buffers some messages for
//! retransmission, and will retransmit if the message is still buffered.
//! If not, it will send a place holder that will result in a LOST_MESSAGE
//! event when received.  Each endpoint will occasionally multicast its
//! protocol status, so buffered messages may be flushed, and window-based
//! flow control may be implemented.  It also allows the detection of
//! failures or disconnections (in case a status update is not received in
//! time)."
//!
//! All five mechanisms above are implemented: per-sender multicast sequence
//! numbers with out-of-order buffering and NAK-triggered retransmission;
//! LOST placeholders; periodic status multicasts carrying cumulative
//! acknowledgement vectors (pruning the retransmission buffer and closing
//! the flow-control window); and status-silence failure suspicion reported
//! through PROBLEM upcalls.  The window is ack-clocked: besides the periodic
//! status, a receiver multicasts one as soon as it has delivered half a
//! window more from some sender than it last advertised, so a saturated
//! sender is limited by its receivers' progress, not by `status_period`.
//! Point-to-point `send`s get their own reliable
//! FIFO channels with positive acknowledgements — the membership layer's
//! flush protocol depends on them.
//!
//! Provides properties P3 (FIFO unicast) and P4 (FIFO multicast) of
//! Table 4; requires only best-effort delivery with source addresses
//! underneath.

use horus_core::prelude::*;
use horus_core::wire::{WireReader, WireWriter};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::time::Duration;

const FIELDS: &[FieldSpec] = &[FieldSpec::new("kind", 3), FieldSpec::new("seq", 32)];

const KIND_DATA: u64 = 0;
const KIND_STATUS: u64 = 1;
const KIND_NAK: u64 = 2;
const KIND_LOST: u64 = 3;
const KIND_UNI_DATA: u64 = 4;
const KIND_UNI_ACK: u64 = 5;
const KIND_UNI_SKIP: u64 = 6;

const TIMER_TICK: u64 = 0;

/// Longest seq range one NAK message may request.
const MAX_NAK_RANGE: u32 = 64;

/// Tuning knobs for the NAK layer.
#[derive(Debug, Clone)]
pub struct NakConfig {
    /// Period of the status multicast (acks, liveness, flow control).
    pub status_period: Duration,
    /// Suspect a view member after this much status silence.
    pub fail_timeout: Duration,
    /// Maximum unacknowledged multicasts in flight before new casts queue.
    pub window: u32,
    /// Retransmission buffer capacity per endpoint; overflow discards the
    /// oldest (turning future NAKs for them into LOST placeholders).
    pub buffer_cap: usize,
    /// Initial retransmission timeout for unacked point-to-point messages.
    /// Each further retransmission of the same message doubles the wait
    /// (exponential backoff) up to `rto_max`.
    pub rto: Duration,
    /// Backoff ceiling: the per-message retransmission interval never
    /// exceeds this, so a long outage cannot push recovery arbitrarily far
    /// out once the peer returns.
    pub rto_max: Duration,
    /// Give up on a point-to-point channel to a peer **outside the
    /// installed view** after this much incoming silence: unacked messages
    /// are abandoned (retransmission stops, pending work drains) and a SKIP
    /// control heals the receiver-side sequence gap if the peer ever
    /// reconnects.  Channels to current view members never expire — the
    /// membership flush depends on them.  Without this, a single unacked
    /// message to a departed member is retransmitted forever (the
    /// liveness wedge the chaos soak surfaced).
    pub uni_gc: Duration,
    /// Disables every retransmission path (NAK-triggered multicast
    /// recovery and point-to-point timer retransmits) when `false`.
    /// **Deliberately breaks liveness** — this is the planted-bug knob the
    /// soak's liveness monitors are validated against in CI; never disable
    /// it in a real stack.
    pub retransmit: bool,
}

impl Default for NakConfig {
    fn default() -> Self {
        NakConfig {
            status_period: Duration::from_millis(20),
            fail_timeout: Duration::from_millis(200),
            window: 4096,
            buffer_cap: 16384,
            rto: Duration::from_millis(40),
            rto_max: Duration::from_millis(320),
            uni_gc: Duration::from_millis(1600),
            retransmit: true,
        }
    }
}

/// One unacked outgoing point-to-point message awaiting (re)transmission.
#[derive(Debug, Clone)]
struct UniOut {
    msg: Message,
    /// Time of the most recent transmission.
    sent_at: SimTime,
    /// Transmissions so far beyond the first (drives the backoff).
    attempts: u32,
}

/// Per-source multicast receive state.
#[derive(Debug, Default, Clone)]
struct PeerRx {
    /// Next expected sequence number (seqs start at 1; 0 = nothing yet).
    expected: u32,
    /// Out-of-order buffer.
    ooo: BTreeMap<u32, Message>,
    /// Sequence numbers declared lost by the sender.
    lost: BTreeSet<u32>,
    /// Last time we heard anything from this peer.
    last_heard: SimTime,
    /// Highest seq this peer claims to have sent (from its status).
    claimed_sent: u32,
    /// The cumulative ack for this peer carried by our last status.
    advertised: u32,
}

impl PeerRx {
    /// The cumulative ack we owe this peer: everything up to here has been
    /// delivered (or declared lost).
    fn cum_ack(&self) -> u32 {
        self.expected.saturating_sub(1)
    }
}

/// Per-peer point-to-point channel state.
#[derive(Debug, Default, Clone)]
struct UniChan {
    /// Next seq to assign for sends to this peer.
    next: u32,
    /// Unacked outgoing messages with retransmission state.
    out: BTreeMap<u32, UniOut>,
    /// Next expected incoming seq from this peer.
    expected: u32,
    /// Out-of-order incoming buffer.
    ooo: BTreeMap<u32, Message>,
    /// Highest cumulative ack we sent (to re-ack duplicates).
    acked: u32,
    /// Last time anything (data or ack) arrived from this peer; the
    /// channel-GC idle clock.  Initialised to the channel's creation time
    /// so a fresh channel gets a full `uni_gc` grace period.
    last_in: SimTime,
    /// Highest seq the channel GC abandoned unacked.  While the peer's
    /// cumulative ack trails this, every ack triggers a SKIP control that
    /// jumps the receiver past the abandoned range.
    abandoned: u32,
}

/// The retransmission buffer of own multicasts.  Sequence numbers enter
/// one after the other at the top (every cast) and leave at the bottom
/// (capacity, acknowledgements), so it is a queue and not a map: `msgs[i]`
/// holds seq `base + i`.
#[derive(Debug, Clone, Default)]
struct SendBuf {
    base: u32,
    msgs: VecDeque<Message>,
    /// The B-tree this queue replaced, given every operation the way the
    /// layer used to perform it and compared with the queue after each.
    #[cfg(test)]
    model: BTreeMap<u32, Message>,
}

impl SendBuf {
    /// Buffers `seq`, the successor of the last one buffered, holding at
    /// most `cap`.  The oldest is evicted *before* the push, so the deque
    /// never grows (and doubles its allocation) past `cap`.
    fn push(&mut self, seq: u32, msg: Message, cap: usize) {
        #[cfg(test)]
        {
            self.model.insert(seq, msg.clone());
            while self.model.len() > cap {
                self.model.pop_first();
            }
        }
        if cap > 0 {
            if self.msgs.len() >= cap {
                self.msgs.pop_front();
                self.base += 1;
            }
            if self.msgs.is_empty() {
                self.base = seq;
            }
            self.msgs.push_back(msg);
        }
        #[cfg(test)]
        self.check();
    }

    /// Drops every seq up to and including `acked`.
    fn prune(&mut self, acked: u32) {
        let n = (acked.saturating_add(1).saturating_sub(self.base) as usize).min(self.msgs.len());
        self.msgs.drain(..n);
        self.base += n as u32;
        #[cfg(test)]
        {
            self.model.retain(|&s, _| s > acked);
            self.check();
        }
    }

    fn get(&self, seq: u32) -> Option<&Message> {
        self.msgs.get(seq.checked_sub(self.base)? as usize)
    }

    fn len(&self) -> usize {
        self.msgs.len()
    }

    #[cfg(test)]
    fn check(&self) {
        let image = |(seq, msg): (u32, &Message)| (seq, msg.encode_inner());
        let queue: Vec<_> = (self.base..).zip(&self.msgs).map(image).collect();
        let tree: Vec<_> = self.model.iter().map(|(&seq, msg)| (seq, msg)).map(image).collect();
        assert_eq!(queue, tree, "the queue holds what the B-tree would");
    }
}

/// The production NAK layer.
#[derive(Debug, Clone)]
pub struct Nak {
    cfg: NakConfig,
    /// Next multicast seq to assign (first message gets 1).
    next_seq: u32,
    /// Retransmission buffer of own multicasts.
    sendbuf: SendBuf,
    /// Flow-control queue of not-yet-sent casts.
    pending: VecDeque<Message>,
    /// Per-source receive state.
    peers: BTreeMap<EndpointAddr, PeerRx>,
    /// Cumulative ack of *my* multicasts, per peer (from their statuses).
    acks: BTreeMap<EndpointAddr, u32>,
    /// Point-to-point channels.
    uni: BTreeMap<EndpointAddr, UniChan>,
    /// Installed destination view (None until a membership layer installs
    /// one).
    dests: Option<Vec<EndpointAddr>>,
    /// Members already reported through PROBLEM (until the next view).
    suspected: BTreeSet<EndpointAddr>,
    /// Our own address (known after init).
    me: Option<EndpointAddr>,
    /// Statistics.
    naks_sent: u64,
    retransmissions: u64,
    lost_markers: u64,
    duplicates: u64,
    channels_gcd: u64,
}

impl Default for Nak {
    fn default() -> Self {
        Nak::new(NakConfig::default())
    }
}

impl Nak {
    /// Creates a NAK layer with the given tuning.
    pub fn new(cfg: NakConfig) -> Self {
        Nak {
            cfg,
            next_seq: 1,
            sendbuf: SendBuf::default(),
            pending: VecDeque::new(),
            peers: BTreeMap::new(),
            acks: BTreeMap::new(),
            uni: BTreeMap::new(),
            dests: None,
            suspected: BTreeSet::new(),
            me: None,
            naks_sent: 0,
            retransmissions: 0,
            lost_markers: 0,
            duplicates: 0,
            channels_gcd: 0,
        }
    }

    /// Whether the flow-control window has room for one more cast, given
    /// [`Nak::min_ack`]: own casts not yet acked by every destination
    /// count as in flight; with no destination there is nothing to wait for.
    fn window_open(&self, min_ack: Option<u32>) -> bool {
        let in_flight = min_ack.map_or(0, |ack| (self.next_seq - 1).saturating_sub(ack));
        in_flight < self.cfg.window
    }

    /// The lowest cumulative ack over all (non-suspected) destinations,
    /// `None` when there is none.  Without an installed view the
    /// destination set is unknown, so every peer we have ever heard from
    /// counts.
    fn min_ack(&self) -> Option<u32> {
        let counts = |d: &&EndpointAddr| Some(**d) != self.me && !self.suspected.contains(d);
        let ack = |d: &EndpointAddr| self.acks.get(d).copied().unwrap_or(0);
        match &self.dests {
            Some(dests) => dests.iter().filter(counts).map(ack).min(),
            None => self.peers.keys().filter(counts).map(ack).min(),
        }
    }

    fn send_cast(&mut self, mut msg: Message, ctx: &mut LayerCtx<'_>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        ctx.stamp(&mut msg);
        ctx.set(&mut msg, 0, KIND_DATA);
        ctx.set(&mut msg, 1, seq as u64);
        self.sendbuf.push(seq, msg.clone(), self.cfg.buffer_cap);
        ctx.down(Down::Cast(msg));
    }

    fn control(&self, ctx: &mut LayerCtx<'_>, kind: u64, seq: u32, body: bytes::Bytes) -> Message {
        let mut msg = ctx.new_message(body);
        ctx.stamp(&mut msg);
        ctx.set(&mut msg, 0, kind);
        ctx.set(&mut msg, 1, seq as u64);
        msg
    }

    fn send_nak(&mut self, src: EndpointAddr, from: u32, to: u32, ctx: &mut LayerCtx<'_>) {
        let to = to.min(from + MAX_NAK_RANGE - 1);
        let mut w = WireWriter::with_capacity(8);
        w.put_u32(from);
        w.put_u32(to);
        let msg = self.control(ctx, KIND_NAK, 0, w.finish());
        self.naks_sent += 1;
        ctx.down(Down::Send { dests: vec![src], msg });
    }

    fn send_status(&mut self, ctx: &mut LayerCtx<'_>) {
        let mut w = WireWriter::with_capacity(8 + 12 * self.peers.len());
        w.put_u32(self.next_seq - 1);
        w.put_u32(self.peers.len() as u32);
        for (&p, rx) in &mut self.peers {
            rx.advertised = rx.cum_ack();
            w.put_addr(p);
            w.put_u32(rx.advertised);
        }
        let msg = self.control(ctx, KIND_STATUS, 0, w.finish());
        ctx.down(Down::Cast(msg));
    }

    /// The ack clock: multicasts a status now, instead of at the next
    /// tick, once we have delivered half a window more from `src` than our
    /// last status told it.  Half, because the sender stalls when a whole
    /// window is unacknowledged: an ack sent at the halfway mark has the
    /// other half of the window as its time to arrive, and costs one status
    /// per `window / 2` deliveries.  Our own casts need no ack.
    fn ack_clock(&mut self, src: EndpointAddr, ctx: &mut LayerCtx<'_>) {
        if Some(src) == self.me {
            return;
        }
        let Some(rx) = self.peers.get(&src) else { return };
        if rx.cum_ack() - rx.advertised >= (self.cfg.window / 2).max(1) {
            self.send_status(ctx);
        }
    }

    /// Delivers contiguous buffered messages (and lost placeholders).
    fn drain(&mut self, src: EndpointAddr, ctx: &mut LayerCtx<'_>) {
        #[allow(clippy::large_enum_variant)] // short-lived scratch value
        enum Step {
            Lost,
            Deliver(Message),
            Done,
        }
        loop {
            let step = {
                let rx = self.peers.entry(src).or_default();
                let next = rx.expected.max(1);
                if let Some(msg) = rx.ooo.remove(&next) {
                    // A LOST placeholder and a late retransmission of the
                    // same seq can race; if the real data made it here,
                    // deliver it and discard the marker.  (Checking `lost`
                    // first orphaned the ooo entry *below* `expected`
                    // forever — a permanent phantom unit of pending work
                    // the chaos soak's progress watchdog caught.)
                    rx.lost.remove(&next);
                    rx.expected = next + 1;
                    Step::Deliver(msg)
                } else if rx.lost.remove(&next) {
                    rx.expected = next + 1;
                    Step::Lost
                } else {
                    Step::Done
                }
            };
            match step {
                Step::Lost => {
                    self.lost_markers += 1;
                    ctx.up(Up::LostMessage { src });
                }
                Step::Deliver(msg) => ctx.up(Up::Cast { src, msg }),
                Step::Done => break,
            }
        }
    }

    fn handle_data(&mut self, src: EndpointAddr, seq: u32, msg: Message, ctx: &mut LayerCtx<'_>) {
        let now = ctx.now();
        let (expected, gap_is_new) = {
            let rx = self.peers.entry(src).or_default();
            rx.last_heard = now;
            let expected = rx.expected.max(1);
            if seq < expected {
                (expected, None)
            } else if seq == expected {
                rx.expected = seq + 1;
                (expected, Some(false))
            } else {
                let fresh = rx.ooo.insert(seq, msg.clone()).is_none();
                (expected, if fresh { Some(true) } else { None })
            }
        };
        match (seq.cmp(&expected), gap_is_new) {
            (std::cmp::Ordering::Less, _) => self.duplicates += 1,
            (std::cmp::Ordering::Equal, _) => {
                ctx.up(Up::Cast { src, msg });
                self.drain(src, ctx);
                self.ack_clock(src, ctx);
            }
            (std::cmp::Ordering::Greater, Some(true)) => {
                // Gap: request the missing range.
                self.send_nak(src, expected, seq - 1, ctx);
            }
            (std::cmp::Ordering::Greater, _) => self.duplicates += 1,
        }
    }

    fn handle_status(&mut self, src: EndpointAddr, body: &[u8], ctx: &mut LayerCtx<'_>) {
        let me = ctx.local_addr();
        let mut r = WireReader::new(body);
        let Ok(claimed_sent) = r.get_u32() else { return };
        let Ok(n) = r.get_u32() else { return };
        let mut their_recv_of_me = None;
        for _ in 0..n {
            let (Ok(addr), Ok(cum)) = (r.get_addr(), r.get_u32()) else { return };
            if addr == me {
                their_recv_of_me = Some(cum);
            }
        }
        if src == me {
            return; // own loopback status carries no new information
        }
        let now = ctx.now();
        let (expected, claimed) = {
            let rx = self.peers.entry(src).or_default();
            rx.last_heard = now;
            rx.claimed_sent = rx.claimed_sent.max(claimed_sent);
            (rx.expected.max(1), rx.claimed_sent)
        };
        // Detect wholesale loss: the peer sent messages we never saw.
        if claimed >= expected {
            self.send_nak(src, expected, claimed, ctx);
        }
        if let Some(cum) = their_recv_of_me {
            let e = self.acks.entry(src).or_insert(0);
            *e = (*e).max(cum);
        }
        // Pruning: drop buffered casts everyone has — but only once a view
        // pins down who "everyone" is; without one, an unheard-from member
        // could still be missing everything, so only the capacity cap
        // bounds the buffer.
        if self.dests.is_some() {
            let min = self.min_ack().unwrap_or(self.next_seq - 1);
            self.sendbuf.prune(min);
        }
        // Window may have opened.
        self.pump_pending(ctx);
    }

    fn pump_pending(&mut self, ctx: &mut LayerCtx<'_>) {
        let min_ack = self.min_ack(); // sending does not move it
        while self.window_open(min_ack) {
            let Some(msg) = self.pending.pop_front() else { break };
            self.send_cast(msg, ctx);
        }
    }

    fn handle_nak(&mut self, src: EndpointAddr, body: &[u8], ctx: &mut LayerCtx<'_>) {
        let mut r = WireReader::new(body);
        let (Ok(from), Ok(to)) = (r.get_u32(), r.get_u32()) else { return };
        if from == 0 || to < from || to >= self.next_seq {
            return; // malformed or out of range
        }
        if !self.cfg.retransmit {
            return; // planted-bug mode: losses stay lost
        }
        for seq in from..=to.min(from + MAX_NAK_RANGE - 1) {
            if let Some(buffered) = self.sendbuf.get(seq) {
                self.retransmissions += 1;
                ctx.down(Down::Send { dests: vec![src], msg: buffered.clone() });
            } else {
                // Pruned or overflowed: placeholder (§7's LOST_MESSAGE).
                let msg = self.control(ctx, KIND_LOST, seq, bytes::Bytes::new());
                ctx.down(Down::Send { dests: vec![src], msg });
            }
        }
    }

    fn handle_lost(&mut self, src: EndpointAddr, seq: u32, ctx: &mut LayerCtx<'_>) {
        let rx = self.peers.entry(src).or_default();
        if seq >= rx.expected.max(1) {
            rx.lost.insert(seq);
            self.drain(src, ctx);
            self.ack_clock(src, ctx);
        }
    }

    /// The point-to-point channel to `peer`, created (with its GC idle
    /// clock started at `now`) on first use.
    fn chan(&mut self, peer: EndpointAddr, now: SimTime) -> &mut UniChan {
        self.uni.entry(peer).or_insert_with(|| UniChan { last_in: now, ..UniChan::default() })
    }

    fn send_uni_ack(&mut self, peer: EndpointAddr, ctx: &mut LayerCtx<'_>) {
        let now = ctx.now();
        let cum = {
            let chan = self.chan(peer, now);
            chan.acked = chan.expected.saturating_sub(1).max(chan.acked);
            chan.acked
        };
        let msg = self.control(ctx, KIND_UNI_ACK, cum, bytes::Bytes::new());
        ctx.down(Down::Send { dests: vec![peer], msg });
    }

    fn handle_uni_data(
        &mut self,
        src: EndpointAddr,
        seq: u32,
        msg: Message,
        ctx: &mut LayerCtx<'_>,
    ) {
        let now = ctx.now();
        let (deliveries, dup) = {
            let chan = self.chan(src, now);
            chan.last_in = now;
            let expected = chan.expected.max(1);
            if seq >= expected {
                chan.ooo.insert(seq, msg);
                // Collect the contiguous prefix.
                let mut out = Vec::new();
                while let Some(m) = chan.ooo.remove(&chan.expected.max(1)) {
                    chan.expected = chan.expected.max(1) + 1;
                    out.push(m);
                }
                (out, false)
            } else {
                (Vec::new(), true)
            }
        };
        if dup {
            self.duplicates += 1;
        }
        for m in deliveries {
            ctx.up(Up::Send { src, msg: m });
        }
        if let Some(rx) = self.peers.get_mut(&src) {
            rx.last_heard = ctx.now();
        }
        self.send_uni_ack(src, ctx);
    }

    fn handle_uni_ack(&mut self, src: EndpointAddr, cum: u32, ctx: &mut LayerCtx<'_>) {
        let now = ctx.now();
        let skip_to = {
            let Some(chan) = self.uni.get_mut(&src) else { return };
            chan.last_in = now;
            chan.out.retain(|&s, _| s > cum);
            (chan.abandoned > cum).then_some(chan.abandoned)
        };
        // The peer is stuck waiting for a seq the channel GC abandoned:
        // jump it past the abandoned range (the uni cousin of the
        // multicast LOST placeholder).
        if let Some(seq) = skip_to {
            let msg = self.control(ctx, KIND_UNI_SKIP, seq, bytes::Bytes::new());
            ctx.down(Down::Send { dests: vec![src], msg });
        }
    }

    fn handle_uni_skip(&mut self, src: EndpointAddr, seq: u32, ctx: &mut LayerCtx<'_>) {
        let now = ctx.now();
        let deliveries = {
            let chan = self.chan(src, now);
            chan.last_in = now;
            let mut out = Vec::new();
            if seq >= chan.expected.max(1) {
                chan.expected = seq + 1;
                while let Some(m) = chan.ooo.remove(&chan.expected) {
                    chan.expected += 1;
                    out.push(m);
                }
                chan.ooo.retain(|&s, _| s > seq);
            }
            out
        };
        for m in deliveries {
            ctx.up(Up::Send { src, msg: m });
        }
        self.send_uni_ack(src, ctx);
    }

    fn check_failures(&mut self, ctx: &mut LayerCtx<'_>) {
        let Some(dests) = self.dests.clone() else { return };
        let me = ctx.local_addr();
        let now = ctx.now();
        for d in dests {
            if d == me || self.suspected.contains(&d) {
                continue;
            }
            let silent = match self.peers.get(&d) {
                Some(rx) => now.saturating_since(rx.last_heard) > self.cfg.fail_timeout,
                // Never heard at all: grace period started at view install,
                // which also initialised last_heard.
                None => false,
            };
            if silent {
                self.suspected.insert(d);
                ctx.up(Up::Problem { member: d });
            }
        }
    }
}

impl Layer for Nak {
    fn name(&self) -> &'static str {
        "NAK"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        self.me = Some(ctx.local_addr());
        ctx.set_timer(self.cfg.status_period, TIMER_TICK);
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(msg) => {
                // Never past queued casts: a view change or a suspicion can
                // reopen the window without pumping the queue, and sequence
                // numbers are assigned at send time.
                if self.pending.is_empty() && self.window_open(self.min_ack()) {
                    self.send_cast(msg, ctx);
                } else {
                    self.pending.push_back(msg);
                    self.pump_pending(ctx);
                }
            }
            Down::Send { dests, msg } => {
                // One reliable FIFO channel per destination.
                let now = ctx.now();
                for dest in dests {
                    let mut m = msg.clone();
                    let seq = {
                        let chan = self.chan(dest, now);
                        chan.next += 1;
                        chan.next
                    };
                    ctx.stamp(&mut m);
                    ctx.set(&mut m, 0, KIND_UNI_DATA);
                    ctx.set(&mut m, 1, seq as u64);
                    self.uni
                        .get_mut(&dest)
                        .expect("channel just created")
                        .out
                        .insert(seq, UniOut { msg: m.clone(), sent_at: ctx.now(), attempts: 0 });
                    ctx.down(Down::Send { dests: vec![dest], msg: m });
                }
            }
            Down::InstallView(view) => {
                let now = ctx.now();
                for &m in view.members() {
                    // Grace period for newcomers.
                    self.peers.entry(m).or_default().last_heard = now;
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
                    return; // not ours / garbled: drop
                }
                let kind = ctx.get(&msg, 0);
                let seq = ctx.get(&msg, 1) as u32;
                match kind {
                    KIND_DATA => self.handle_data(src, seq, msg, ctx),
                    KIND_STATUS => self.handle_status(src, &msg.body().clone(), ctx),
                    KIND_NAK => self.handle_nak(src, &msg.body().clone(), ctx),
                    KIND_LOST => self.handle_lost(src, seq, ctx),
                    KIND_UNI_DATA => self.handle_uni_data(src, seq, msg, ctx),
                    KIND_UNI_ACK => self.handle_uni_ack(src, seq, ctx),
                    KIND_UNI_SKIP => self.handle_uni_skip(src, seq, ctx),
                    _ => {}
                }
            }
            other => ctx.up(other),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut LayerCtx<'_>) {
        if token != TIMER_TICK {
            return;
        }
        self.send_status(ctx);
        self.check_failures(ctx);
        // Retransmit stale unacked point-to-point messages with
        // exponential backoff: the k-th retransmission waits 2^k × rto,
        // capped at rto_max.  A dead or partitioned peer costs O(log)
        // retransmissions per message instead of a fixed-period stream,
        // while the cap keeps recovery prompt once the peer returns.
        let now = ctx.now();
        // Channel GC: a peer outside the installed view that has been
        // incoming-silent for `uni_gc` is gone (crashed, excluded, or
        // behind a long partition the view change already resolved).
        // Abandon its unacked messages — retransmitting to it forever is
        // the wedge the progress watchdog flags — and remember the
        // high-water mark so `handle_uni_ack` can SKIP the peer past the
        // gap if it ever reconnects.  In-view channels never expire: the
        // membership flush relies on their reliability.
        if let Some(dests) = self.dests.clone() {
            let gc = self.cfg.uni_gc;
            for (peer, chan) in self.uni.iter_mut() {
                if dests.contains(peer) || (chan.out.is_empty() && chan.ooo.is_empty()) {
                    continue;
                }
                if now.saturating_since(chan.last_in) > gc {
                    chan.abandoned = chan.abandoned.max(chan.next);
                    chan.out.clear();
                    chan.ooo.clear();
                    self.channels_gcd += 1;
                }
            }
        }
        if self.cfg.retransmit {
            let rto = self.cfg.rto;
            let rto_max = self.cfg.rto_max.max(rto);
            let mut to_resend: Vec<(EndpointAddr, u32)> = Vec::new();
            for (&peer, chan) in &self.uni {
                for (&seq, out) in &chan.out {
                    let backoff = rto
                        .checked_mul(1u32 << out.attempts.min(16))
                        .map_or(rto_max, |b| b.min(rto_max));
                    if now.saturating_since(out.sent_at) > backoff {
                        to_resend.push((peer, seq));
                    }
                }
            }
            for (peer, seq) in to_resend {
                if let Some(chan) = self.uni.get_mut(&peer) {
                    if let Some(out) = chan.out.get_mut(&seq) {
                        out.sent_at = now;
                        out.attempts = out.attempts.saturating_add(1);
                        let m = out.msg.clone();
                        self.retransmissions += 1;
                        ctx.down(Down::Send { dests: vec![peer], msg: m });
                    }
                }
            }
        }
        self.pump_pending(ctx);
        ctx.set_timer(self.cfg.status_period, TIMER_TICK);
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        let uni_out: usize = self.uni.values().map(|c| c.out.len()).sum();
        let uni_ooo: usize = self.uni.values().map(|c| c.ooo.len()).sum();
        let rx_ooo: usize = self.peers.values().map(|r| r.ooo.len()).sum();
        let rx_lost: usize = self.peers.values().map(|r| r.lost.len()).sum();
        write!(
            w,
            "sent={} buffered={} pending={} naks={} retrans={} lost={} dups={} gcd={} \
             uni={}/{} rx={}/{} suspected={:?}",
            self.next_seq - 1,
            self.sendbuf.len(),
            self.pending.len(),
            self.naks_sent,
            self.retransmissions,
            self.lost_markers,
            self.duplicates,
            self.channels_gcd,
            uni_out,
            uni_ooo,
            rx_ooo,
            rx_lost,
            self.suspected
        )
    }

    fn pending_work(&self) -> u64 {
        // Work this layer still owes: flow-control-queued casts, unacked
        // (or gap-buffered) point-to-point traffic, and multicast receive
        // gaps — in both cases only for live in-view peers.  Gaps from
        // excluded or suspected senders are *not* owed (virtual synchrony
        // resolved their messages at the view change; the remnant buffer
        // is inert), and uni traffic to out-of-view peers is the
        // GC-managed merge-contact flow, background maintenance that may
        // legitimately probe a dead contact forever.
        let in_view = |p: &EndpointAddr| match &self.dests {
            Some(d) => d.contains(p),
            None => true,
        };
        let mut n = self.pending.len() as u64;
        for (p, chan) in &self.uni {
            if in_view(p) && !self.suspected.contains(p) {
                n += (chan.out.len() + chan.ooo.len()) as u64;
            }
        }
        for (p, rx) in &self.peers {
            if in_view(p) && !self.suspected.contains(p) {
                n += (rx.ooo.len() + rx.lost.len()) as u64;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::com::Com;
    use horus_net::NetConfig;
    use horus_sim::{check_fifo, DeliveryLog, SimWorld, Workload};
    use std::time::Duration;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn nak_stack(i: u64) -> Stack {
        StackBuilder::new(ep(i))
            .push(Box::new(Nak::default()))
            .push(Box::new(Com::new()))
            .build()
            .unwrap()
    }

    fn world(n: u64, config: NetConfig, seed: u64) -> SimWorld {
        let mut w = SimWorld::new(seed, config);
        for i in 1..=n {
            w.add_endpoint(nak_stack(i));
            w.join(ep(i), GroupAddr::new(1));
        }
        w
    }

    #[test]
    fn reliable_network_delivers_in_order() {
        let mut w = world(3, NetConfig::reliable(), 1);
        let wl = Workload::round_robin(vec![ep(1), ep(2), ep(3)], 30);
        wl.schedule(&mut w, SimTime::from_millis(1));
        w.run_for(Duration::from_millis(200));
        for i in 1..=3 {
            assert_eq!(w.delivered_casts(ep(i)).len(), 30, "endpoint {i}");
        }
        let logs: Vec<DeliveryLog> =
            (1..=3).map(|i| DeliveryLog::from_upcalls(ep(i), w.upcalls(ep(i)))).collect();
        assert!(check_fifo(&logs, Workload::parse).is_empty());
    }

    #[test]
    fn recovers_from_heavy_loss() {
        for seed in 1..=5 {
            let mut w = world(3, NetConfig::lossy(0.25), seed);
            let wl = Workload::round_robin(vec![ep(1), ep(2), ep(3)], 60);
            wl.schedule(&mut w, SimTime::from_millis(1));
            w.run_for(Duration::from_secs(5));
            for i in 1..=3 {
                assert_eq!(
                    w.delivered_casts(ep(i)).len(),
                    60,
                    "seed {seed}, endpoint {i}: {:?}",
                    w.stack(ep(i)).unwrap().focus("NAK")
                );
            }
            let logs: Vec<DeliveryLog> =
                (1..=3).map(|i| DeliveryLog::from_upcalls(ep(i), w.upcalls(ep(i)))).collect();
            assert!(check_fifo(&logs, Workload::parse).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut cfg = NetConfig::reliable();
        cfg.duplicate = 0.5;
        let mut w = world(2, cfg, 3);
        let wl = Workload::round_robin(vec![ep(1), ep(2)], 40);
        wl.schedule(&mut w, SimTime::from_millis(1));
        w.run_for(Duration::from_secs(1));
        for i in 1..=2 {
            assert_eq!(w.delivered_casts(ep(i)).len(), 40);
        }
    }

    #[test]
    fn status_silence_raises_problem() {
        use horus_core::view::View;
        let mut w = world(2, NetConfig::reliable(), 4);
        // Install a view so NAK knows its destinations.
        let view = View::initial(GroupAddr::new(1), ep(1)).with_joined(&[ep(2)]);
        for i in 1..=2 {
            w.down(ep(i), Down::InstallView(view.clone()));
        }
        w.crash_at(SimTime::from_millis(10), ep(2));
        w.run_for(Duration::from_secs(1));
        let problems: Vec<_> = w
            .upcalls(ep(1))
            .iter()
            .filter_map(|(_, up)| match up {
                Up::Problem { member } => Some(*member),
                _ => None,
            })
            .collect();
        assert_eq!(problems, vec![ep(2)]);
    }

    #[test]
    fn unicast_send_is_reliable_under_loss() {
        for seed in 1..=5 {
            let mut w = world(2, NetConfig::lossy(0.3), 100 + seed);
            for k in 0..10u8 {
                let msg = w.stack(ep(1)).unwrap().new_message(vec![k]);
                w.down(ep(1), Down::Send { dests: vec![ep(2)], msg });
            }
            w.run_for(Duration::from_secs(3));
            let sends: Vec<u8> = w
                .upcalls(ep(2))
                .iter()
                .filter_map(|(_, up)| match up {
                    Up::Send { msg, .. } => Some(msg.body()[0]),
                    _ => None,
                })
                .collect();
            assert_eq!(sends, (0..10).collect::<Vec<u8>>(), "seed {seed}");
        }
    }

    /// `n` members on `NAK(window):COM` in one installed view (flow control
    /// needs a known destination set), on a loss-free net with one fixed
    /// latency, so frames arrive in the order they were sent.
    fn windowed_world(n: u64, window: u32, seed: u64) -> SimWorld {
        use horus_core::view::View;
        let latency = Duration::from_micros(100);
        let net = NetConfig { latency_min: latency, latency_max: latency, ..NetConfig::reliable() };
        let mut w = SimWorld::new(seed, net);
        for i in 1..=n {
            let stack = StackBuilder::new(ep(i))
                .push(Box::new(Nak::new(NakConfig { window, ..NakConfig::default() })))
                .push(Box::new(Com::new()))
                .build()
                .unwrap();
            w.add_endpoint(stack);
            w.join(ep(i), GroupAddr::new(1));
        }
        let others: Vec<EndpointAddr> = (2..=n).map(ep).collect();
        let view = View::initial(GroupAddr::new(1), ep(1)).with_joined(&others);
        for i in 1..=n {
            w.down(ep(i), Down::InstallView(view.clone()));
        }
        w
    }

    /// One `name=value` counter of endpoint `i`'s NAK dump.
    fn nak_counter(w: &SimWorld, i: u64, name: &str) -> u64 {
        let dump = w.stack(ep(i)).unwrap().focus("NAK").unwrap();
        let field = dump.split_whitespace().find_map(|f| f.strip_prefix(name)).unwrap();
        field.strip_prefix('=').unwrap().parse().unwrap()
    }

    /// Timer expirations NAK has handled at endpoint `i`.
    fn nak_ticks(w: &SimWorld, i: u64) -> u64 {
        w.stack_stats(ep(i)).unwrap().per_layer[0].timers
    }

    #[test]
    fn flow_control_window_queues_excess() {
        let mut w = windowed_world(2, 4, 9);
        for k in 0..20u8 {
            w.cast_bytes(ep(1), Workload::body(ep(1), k as u64 + 1, 16));
        }
        // The window holds the excess back, and at no instant are more
        // than `window` casts out that the receiver has not delivered...
        let mut queued = 0;
        while w.now() < SimTime::from_millis(5) {
            w.run_for(Duration::from_micros(10));
            let outstanding = nak_counter(&w, 1, "sent") - w.delivered_casts(ep(2)).len() as u64;
            assert!(outstanding <= 4, "{outstanding} casts in flight at {:?}", w.now());
            queued = queued.max(nak_counter(&w, 1, "pending"));
        }
        assert_eq!(queued, 16);
        // ...while statuses open it and everything flows, in order.
        w.run_for(Duration::from_secs(2));
        assert_eq!(w.delivered_casts(ep(2)).len(), 20);
        let logs = vec![DeliveryLog::from_upcalls(ep(2), w.upcalls(ep(2)))];
        assert!(check_fifo(&logs, Workload::parse).is_empty());
    }

    #[test]
    fn a_cast_never_overtakes_queued_casts() {
        // Window 2, and ep3 never acks (it is down): casts 1-2 fill the
        // window, 3-4 queue.  A view without ep3 then reopens the window
        // without pumping the queue; a cast issued at that instant must go
        // out behind 3-4, not ahead of them.
        use horus_core::view::View;
        let mut w = windowed_world(3, 2, 12);
        w.run_for(Duration::from_millis(1));
        w.crash_at(w.now(), ep(3));
        for k in 1..=4 {
            w.cast_bytes(ep(1), Workload::body(ep(1), k, 16));
        }
        w.run_for(Duration::from_millis(5));
        assert_eq!(w.delivered_casts(ep(2)).len(), 2, "ep2 has the first window");
        assert_eq!(nak_counter(&w, 1, "pending"), 2, "ep3's silence holds the rest back");
        let survivors = View::initial(GroupAddr::new(1), ep(1)).with_joined(&[ep(2)]);
        w.down(ep(1), Down::InstallView(survivors));
        w.cast_bytes(ep(1), Workload::body(ep(1), 5, 16));
        w.run_for(Duration::from_millis(100));
        let order: Vec<u64> = w
            .delivered_casts(ep(2))
            .iter()
            .map(|(_, body, _)| Workload::parse(body).expect("workload body").1)
            .collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn ack_clock_drains_a_saturated_sender_without_a_tick() {
        // Three windows' worth cast at one instant: one window goes out,
        // two queue.  Receivers' early statuses (one per half window
        // delivered) reopen the window, so everything is delivered
        // everywhere before the first periodic status is even due.
        let window = 64;
        let mut w = windowed_world(3, window, 10);
        let casts = 3 * window as u64;
        for k in 1..=casts {
            w.cast_bytes(ep(1), Workload::body(ep(1), k, 16));
        }
        w.run_for(Duration::from_micros(1));
        assert_eq!(nak_counter(&w, 1, "sent"), window as u64);
        assert_eq!(nak_counter(&w, 1, "pending"), casts - window as u64);
        w.run_until(
            SimTime::ZERO + (NakConfig::default().status_period - Duration::from_millis(1)),
        );
        for i in 1..=3 {
            assert_eq!(w.delivered_casts(ep(i)).len() as u64, casts, "endpoint {i}");
            assert_eq!(nak_ticks(&w, i), 0, "endpoint {i}: no periodic status yet");
        }
        assert_eq!(nak_counter(&w, 1, "pending"), 0);
        // Each receiver sent one status per half window, and nothing else.
        for i in 2..=3 {
            assert_eq!(w.stack_stats(ep(i)).unwrap().msgs_sent, casts / (window as u64 / 2));
        }
        let logs: Vec<DeliveryLog> =
            (1..=3).map(|i| DeliveryLog::from_upcalls(ep(i), w.upcalls(ep(i)))).collect();
        assert!(check_fifo(&logs, Workload::parse).is_empty());
    }

    #[test]
    fn below_half_a_window_per_period_only_periodic_statuses_are_sent() {
        // 31 casts per status period against a half window of 32: every
        // frame on the wire is a cast or a tick's status, as before the
        // ack clock existed (which is what keeps recorded runs stable).
        let mut w = windowed_world(2, 64, 11);
        let period = NakConfig::default().status_period;
        for k in 0..(5 * 31) {
            let at = SimTime::from_millis(1) + period * (k / 31) + Duration::from_micros(k as u64);
            w.cast_bytes_at(at, ep(1), Workload::body(ep(1), k as u64 + 1, 16));
        }
        w.run_for(period * 5 + Duration::from_millis(5));
        assert_eq!(w.delivered_casts(ep(2)).len(), 5 * 31);
        assert_eq!(nak_ticks(&w, 1), 5);
        assert_eq!(w.stack_stats(ep(1)).unwrap().msgs_sent, 5 * 31 + 5);
        assert_eq!(w.stack_stats(ep(2)).unwrap().msgs_sent, 5);
    }

    #[test]
    fn own_loopback_casts_never_trigger_an_early_status() {
        let mut w = windowed_world(1, 4, 12);
        for k in 1..=40u64 {
            w.cast_bytes(ep(1), Workload::body(ep(1), k, 16));
        }
        w.run_for(Duration::from_millis(10));
        assert_eq!(w.delivered_casts(ep(1)).len(), 40);
        assert_eq!(w.stack_stats(ep(1)).unwrap().msgs_sent, 40, "casts only, no status");
    }

    #[test]
    fn buffer_overflow_produces_lost_message() {
        // Tiny retransmission buffer + a partition that forces a gap: the
        // pruned messages come back as LOST placeholders.
        let mut w = SimWorld::new(5, NetConfig::reliable());
        for i in 1..=2 {
            let stack = StackBuilder::new(ep(i))
                .push(Box::new(Nak::new(NakConfig { buffer_cap: 2, ..NakConfig::default() })))
                .push(Box::new(Com::new()))
                .build()
                .unwrap();
            w.add_endpoint(stack);
            w.join(ep(i), GroupAddr::new(1));
        }
        w.partition_at(SimTime::from_millis(1), &[&[ep(1)], &[ep(2)]]);
        for k in 0..10u64 {
            w.cast_bytes_at(SimTime::from_millis(2 + k), ep(1), Workload::body(ep(1), k + 1, 16));
        }
        w.heal_at(SimTime::from_millis(100));
        w.run_for(Duration::from_secs(3));
        let lost =
            w.upcalls(ep(2)).iter().filter(|(_, up)| matches!(up, Up::LostMessage { .. })).count();
        let delivered = w.delivered_casts(ep(2)).len();
        assert!(lost >= 1, "expected LOST placeholders, got {delivered} deliveries, {lost} lost");
        assert_eq!(lost + delivered, 10, "every seq accounted for");
        // FIFO still holds on what was delivered.
        let logs = vec![DeliveryLog::from_upcalls(ep(2), w.upcalls(ep(2)))];
        assert!(check_fifo(&logs, Workload::parse).is_empty());
    }

    #[test]
    fn own_casts_loop_back_in_order() {
        let mut w = world(1, NetConfig::reliable(), 6);
        for k in 1..=5u64 {
            w.cast_bytes(ep(1), Workload::body(ep(1), k, 16));
        }
        w.run_for(Duration::from_millis(50));
        let got = w.delivered_casts(ep(1));
        assert_eq!(got.len(), 5);
        let logs = vec![DeliveryLog::from_upcalls(ep(1), w.upcalls(ep(1)))];
        assert!(check_fifo(&logs, Workload::parse).is_empty());
    }

    #[test]
    fn unicast_retransmission_backs_off_exponentially() {
        // A message to an unreachable peer: with a fixed 40 ms rto, 3 s of
        // outage would cost ~75 retransmissions; the exponential backoff
        // (40, 80, 160, then capped at 320 ms) keeps it near a dozen —
        // and the cap still recovers the message promptly after the heal.
        let mut w = world(2, NetConfig::reliable(), 7);
        w.partition_at(SimTime::from_millis(1), &[&[ep(1)], &[ep(2)]]);
        let msg = w.stack(ep(1)).unwrap().new_message(vec![42u8]);
        w.down_at(SimTime::from_millis(2), ep(1), Down::Send { dests: vec![ep(2)], msg });
        w.run_for(Duration::from_secs(3));
        let retrans = nak_counter(&w, 1, "retrans");
        assert!(
            (4..=20).contains(&retrans),
            "expected O(log) + capped-interval retransmissions in 3 s, got {retrans}"
        );
        w.heal_at(w.now());
        w.run_for(Duration::from_secs(1));
        let sends: Vec<u8> = w
            .upcalls(ep(2))
            .iter()
            .filter_map(|(_, up)| match up {
                Up::Send { msg, .. } => Some(msg.body()[0]),
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![42], "the message arrives once the partition heals");
    }

    #[test]
    fn view_install_clears_suspicions_for_fresh_detection() {
        // Regression: `Down::InstallView` must clear the `suspected` set.
        // If a stale suspicion survived a view change, the second silence
        // below would never raise a second PROBLEM (suspected members are
        // skipped by the silence check) and the peer would be stuck
        // half-muted in the new view.
        use horus_core::view::View;
        let mut w = world(2, NetConfig::reliable(), 8);
        let view = View::initial(GroupAddr::new(1), ep(1)).with_joined(&[ep(2)]);
        for i in 1..=2 {
            w.down(ep(i), Down::InstallView(view.clone()));
        }
        let problems = |w: &SimWorld| {
            w.upcalls(ep(1))
                .iter()
                .filter(|(_, up)| matches!(up, Up::Problem { member } if *member == ep(2)))
                .count()
        };
        // First silence: suspicion raised once.
        w.partition_at(SimTime::from_millis(10), &[&[ep(1)], &[ep(2)]]);
        w.run_for(Duration::from_secs(1));
        assert_eq!(problems(&w), 1, "first silence suspected");
        // The view change resolves the episode; the silence clock restarts.
        w.heal_at(w.now());
        for i in 1..=2 {
            w.down(ep(i), Down::InstallView(view.clone()));
        }
        w.run_for(Duration::from_millis(100));
        // Second silence: detection must fire again in the new view.
        w.partition_at(w.now(), &[&[ep(1)], &[ep(2)]]);
        w.run_for(Duration::from_secs(1));
        assert_eq!(problems(&w), 2, "cleared suspicion re-arms the detector");
    }

    /// Member 1 of two on `NAK(buffer):COM`, driven by hand: its own casts
    /// and the STATUS and NAK frames a peer (honest or not) could send it.
    struct Probe {
        stack: Stack,
        /// The body of every cast made; cast `seq` is `bodies[seq - 1]`.
        bodies: Vec<bytes::Bytes>,
    }

    impl Probe {
        fn new(buffer_cap: usize) -> Self {
            let nak = Nak::new(NakConfig { buffer_cap, ..NakConfig::default() });
            let mut stack = StackBuilder::new(ep(1))
                .push(Box::new(nak))
                .push(Box::new(Com::new()))
                .build()
                .unwrap();
            let _ = stack.init();
            Probe { stack, bodies: Vec::new() }
        }

        fn nak(&self) -> &Nak {
            self.stack.focus_as::<Nak>("NAK").expect("the layer")
        }

        fn cast(&mut self) {
            let body = bytes::Bytes::from((self.bodies.len() as u32).to_le_bytes().to_vec());
            self.bodies.push(body.clone());
            let msg = self.stack.new_message(body);
            self.stack.handle(StackInput::FromApp(Down::Cast(msg)));
        }

        /// A control frame as the peer's stack would have built it.
        fn peer_sends(&mut self, kind: u64, body: bytes::Bytes) -> Vec<Effect> {
            let mut msg = self.stack.new_message(body);
            msg.push_header(0);
            msg.set_field(0, 0, kind);
            let wire =
                WireFrame::build(self.stack.fingerprint(), msg.header_area(), msg.body().clone());
            self.stack.handle(StackInput::FromNet { from: ep(2), cast: false, wire })
        }

        /// The peer's status: it has everything of ours up to `acked`.
        fn status(&mut self, acked: u32) {
            let mut w = WireWriter::with_capacity(20);
            w.put_u32(0);
            w.put_u32(1);
            w.put_addr(ep(1));
            w.put_u32(acked);
            self.peer_sends(KIND_STATUS, w.finish());
        }

        /// The peer asks for `from..=to` again.  Every seq asked for (and
        /// ever cast) is answered, with the cast's own bytes when the B-tree
        /// would still have held it and with a LOST placeholder otherwise.
        fn nak_range(&mut self, from: u32, to: u32) {
            let held: Vec<bool> =
                (from..=to).map(|seq| self.nak().sendbuf.model.contains_key(&seq)).collect();
            let mut w = WireWriter::with_capacity(8);
            w.put_u32(from);
            w.put_u32(to);
            let replies: Vec<(u64, u32, bytes::Bytes)> = self
                .peer_sends(KIND_NAK, w.finish())
                .into_iter()
                .filter_map(|fx| match fx {
                    Effect::NetSend { dests, wire } => {
                        assert_eq!(dests, vec![ep(2)]);
                        let layout = self.stack.layout().clone();
                        let msg =
                            Message::decode_parts(layout, &wire.head()[8..], wire.body().clone())
                                .expect("our own frame");
                        Some((msg.field(0, 0), msg.field(0, 1) as u32, msg.body().clone()))
                    }
                    _ => None,
                })
                .collect();
            let valid = from >= 1 && from <= to && to as usize <= self.bodies.len();
            if !valid {
                assert!(replies.is_empty(), "a range never cast is not answered");
                return;
            }
            let asked = from..=to.min(from + MAX_NAK_RANGE - 1);
            assert_eq!(replies.len(), asked.clone().count());
            for ((seq, held), (kind, got_seq, body)) in asked.zip(held).zip(replies) {
                assert_eq!(got_seq, seq);
                if held {
                    assert_eq!((kind, &body), (KIND_DATA, &self.bodies[seq as usize - 1]));
                } else {
                    assert_eq!(kind, KIND_LOST);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 96,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Casts, acknowledgements (stale, current and of casts not made
        /// yet), view installs and retransmission requests in any order,
        /// at capacities from nothing to more than is ever cast: after
        /// every operation the queue holds what the B-tree it replaced
        /// would (`SendBuf::check`), and every NAK is answered from it as
        /// it would have been from the tree.
        #[test]
        fn queue_send_buffer_matches_the_btree_send_buffer(
            buffer_cap in 0usize..=12,
            script in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), proptest::prelude::any::<u8>()), 0..300),
        ) {
            use horus_core::view::View;
            let mut probe = Probe::new(buffer_cap);
            for (action, arg) in script {
                let sent = probe.bodies.len() as u32;
                match action % 16 {
                    0..=7 => probe.cast(),
                    // Acks around the newest cast, three past it at most.
                    8..=10 => probe.status((sent + 3).saturating_sub(u32::from(arg % 8))),
                    11 => {
                        let view = View::initial(GroupAddr::new(1), ep(1)).with_joined(&[ep(2)]);
                        probe.stack.handle(StackInput::FromApp(Down::InstallView(view)));
                    }
                    // Ranges reaching from before the oldest cast held to
                    // past the newest.
                    _ => {
                        let from = (sent + 2).saturating_sub(u32::from(arg % 16));
                        probe.nak_range(from, from + u32::from(arg / 16));
                    }
                }
                let dump = probe.stack.focus("NAK").expect("the layer");
                let buffered = format!(" buffered={} ", probe.nak().sendbuf.model.len());
                proptest::prop_assert!(dump.contains(&buffered), "{dump} lacks{buffered}");
            }
        }
    }
}
