//! MBRSHIP — the virtually synchronous membership layer (§5, Figure 2).
//!
//! "The MBRSHIP layer simulates an environment for the members of a group
//! in which members can only fail (they cannot be slow or get disconnected)
//! and messages do not get lost. [...] Each member in the current view is
//! guaranteed either to accept that same view, or to be removed from that
//! view.  Messages sent in the current view are delivered to the surviving
//! members of the current view. [...] This is called *virtual synchrony*."
//!
//! ## The flush protocol
//!
//! At the heart of the layer is the flush protocol, run when a crash is
//! suspected, a member leaves, or views merge:
//!
//! 1. The **coordinator** — "usually the oldest surviving member of the
//!    oldest view", elected without any message exchange — multicasts
//!    `FLUSH(epoch, failed, leaving, joiners)`.
//! 2. Every participant stops initiating casts (queueing them), reports the
//!    flush to its application, and unicasts a **contribution** to the
//!    coordinator: its cumulative-receive vector plus copies of every
//!    logged message from *failed* senders (the unstable messages of
//!    Figure 2 — "it is necessary that all members log all unstable
//!    messages").
//! 3. With all contributions in hand the coordinator computes the **cut**
//!    (per sender, the highest message any survivor holds; for survivors
//!    this equals everything they sent, because they stopped) and
//!    multicasts `SYNC(cuts, retransmissions)` carrying every
//!    failed-sender message some survivor might lack.
//! 4. Each participant delivers retransmitted messages it misses, waits —
//!    still delivering — until its receive vector reaches the cut (the
//!    reliable FIFO layer below supplies survivors' in-flight messages),
//!    and then unicasts `FLUSH_OK`.
//! 5. On the last `FLUSH_OK` the coordinator multicasts the new **view**;
//!    everyone installs it, resets per-view state, and resumes.
//!
//! Failures *during* the flush restart it with a higher epoch under the
//! next coordinator, exactly as the paper describes ("a new round of the
//! flush protocol may start up immediately").
//!
//! ## The unstable-message log
//!
//! Step 2 needs every member to hold the messages of a sender that may
//! yet be declared failed, so each cast sent, delivered or recovered in
//! the current view is logged until the next view is installed.  The log
//! is one queue per origin (`UnstableLog`): sequence numbers are
//! per-origin and only ever logged in increasing order, so an entry is
//! appended, never searched for — except the sender's own loopback copy,
//! which replaces the entry made at send time.  An entry is not an
//! encoding but an [`InnerImage`]: the header area (inline) and the body
//! by reference count.  The message is serialized only if a flush has to
//! contribute it, which is also the only place the log copies a payload
//! (and counts the copy).  Trimming the queues at the stability frontier
//! is a `drain(..k)` this layer does not do yet (ROADMAP, bounded state).
//!
//! ## Merging
//!
//! Partitions are handled in the extended-virtual-synchrony style (§9):
//! both sides make progress, and the `merge` downcall joins them back
//! together.  The merge is a cross-view flush: the joining view's members
//! participate in the coordinator's flush (contributing and waiting for
//! their own side's cut), so the same-view delivery guarantee holds on both
//! sides of the merge.  An Isis-style primary-partition mode
//! ([`MbrshipConfig::primary_partition`]) instead blocks any side that
//! loses a majority.
//!
//! ## Failure detection
//!
//! MBRSHIP consumes failure *suspicions* — PROBLEM upcalls from the NAK
//! layer's status-silence detector, LOST_MESSAGE events, and external
//! detector input via the `suspect` downcall (§5's "external failure
//! detection") — and converts them, via the flush, into the clean fail-stop
//! view changes the layers above rely on.
//!
//! Requires P3/P4 (reliable FIFO), P10–P12 beneath; provides P8, P9
//! (virtually (semi-)synchronous delivery) and P15 (consistent views).

use bytes::Bytes;
use horus_core::message::InnerImage;
use horus_core::prelude::*;
use horus_core::wire::{WireReader, WireWriter};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::time::Duration;

const FIELDS: &[FieldSpec] = &[
    FieldSpec::new("kind", 4),
    FieldSpec::new("epoch", 16),
    FieldSpec::new("vc", 32),
    FieldSpec::new("seq", 32),
];

const KIND_DATA: u64 = 0;
const KIND_FLUSH: u64 = 1;
const KIND_CONTRIB: u64 = 2;
const KIND_SYNC: u64 = 3;
const KIND_FLUSH_OK: u64 = 4;
const KIND_VIEW: u64 = 5;
const KIND_MERGE_REQ: u64 = 6;
const KIND_MERGE_DENY: u64 = 7;
const KIND_SUSPECT: u64 = 8;
const KIND_LEAVE_REQ: u64 = 9;
/// An application-level subset send (Table 1 `send`): delivered within
/// the view it was sent in, not subject to flush recovery.
const KIND_USEND: u64 = 10;

const TIMER_TICK: u64 = 0;

/// Give up merging after this many MERGE_REQ retries.
const MERGE_RETRIES: u32 = 8;

/// Tuning and policy knobs for MBRSHIP.
#[derive(Debug, Clone)]
pub struct MbrshipConfig {
    /// Grant merge requests without consulting the application.
    pub auto_merge: bool,
    /// Isis-style primary partition: refuse to install a view that loses
    /// the majority of the previous one (§9's partitioning models).
    pub primary_partition: bool,
    /// Progress-check period.
    pub tick: Duration,
    /// Restart a stalled flush (or retry a merge) after this long.
    pub flush_timeout: Duration,
}

impl Default for MbrshipConfig {
    fn default() -> Self {
        MbrshipConfig {
            auto_merge: true,
            primary_partition: false,
            tick: Duration::from_millis(25),
            flush_timeout: Duration::from_millis(400),
        }
    }
}

/// State of one flush round.
#[derive(Debug, Clone)]
struct FlushRound {
    epoch: u16,
    coordinator: EndpointAddr,
    failed: BTreeSet<EndpointAddr>,
    leaving: BTreeSet<EndpointAddr>,
    joiner_views: Vec<View>,
    /// Coordinator: contributions received (per contributor, ack vector).
    contribs: BTreeMap<EndpointAddr, BTreeMap<EndpointAddr, u32>>,
    /// Coordinator: failed-sender messages gathered from contributions.
    collected: BTreeMap<(EndpointAddr, u32), Bytes>,
    /// Coordinator: FLUSH_OKs received.
    flush_oks: BTreeSet<EndpointAddr>,
    sync_sent: bool,
    /// Member: the cut to reach before FLUSH_OK.
    cuts: Option<BTreeMap<EndpointAddr, u32>>,
    flush_ok_sent: bool,
}

impl FlushRound {
    fn new(
        epoch: u16,
        coordinator: EndpointAddr,
        failed: BTreeSet<EndpointAddr>,
        leaving: BTreeSet<EndpointAddr>,
        joiner_views: Vec<View>,
    ) -> Self {
        FlushRound {
            epoch,
            coordinator,
            failed,
            leaving,
            joiner_views,
            contribs: BTreeMap::new(),
            collected: BTreeMap::new(),
            flush_oks: BTreeSet::new(),
            sync_sent: false,
            cuts: None,
            flush_ok_sent: false,
        }
    }
}

#[derive(Debug, Clone)]
enum Phase {
    /// Before `join`.
    Idle,
    /// Steady state: casting and delivering.
    Normal,
    /// A flush round is in progress.
    Flushing(FlushRound),
    /// We sent MERGE_REQ and await the merged view.
    Merging { contact: EndpointAddr, attempts: u32, last_try: SimTime },
    /// Primary-partition mode: we lost the majority.
    Blocked,
    /// We left (or were destroyed).
    Exited,
}

/// The unstable-message log of Figure 2: one queue per origin, sorted by
/// sequence number.  Sequence numbers are per-origin and view-scoped, and
/// both the data path and flush recovery only ever log a sequence number
/// above everything received from that origin so far, so logging is an
/// append; the one exception is the sender's own loopback copy, which
/// replaces the entry logged at send time a few places from the end.
/// Entries are deferred encodings ([`InnerImage`]): nothing is serialized
/// unless a flush has to contribute the message.
#[derive(Clone, Default)]
struct UnstableLog {
    by_origin: BTreeMap<EndpointAddr, Vec<(u32, InnerImage)>>,
}

impl UnstableLog {
    /// Logs `image` as message `seq` of `origin`, replacing an entry
    /// already logged under that number.
    fn put(&mut self, origin: EndpointAddr, seq: u32, image: InnerImage) {
        let queue = self.by_origin.entry(origin).or_default();
        if queue.last().is_none_or(|&(last, _)| last < seq) {
            queue.push((seq, image));
            return;
        }
        // Scanned from the end: the entry is as far back as this origin
        // has casts in flight, and those cache lines are the warm ones.
        match queue.iter().rposition(|&(logged, _)| logged <= seq) {
            Some(i) if queue[i].0 == seq => queue[i].1 = image,
            at => queue.insert(at.map_or(0, |i| i + 1), (seq, image)),
        }
    }

    /// The queues of the given origins, by origin.
    fn of<'a>(
        &'a self,
        origins: &'a BTreeSet<EndpointAddr>,
    ) -> impl Iterator<Item = (EndpointAddr, &'a [(u32, InnerImage)])> {
        self.by_origin
            .iter()
            .filter(|(origin, _)| origins.contains(origin))
            .map(|(&origin, queue)| (origin, &queue[..]))
    }

    fn clear(&mut self) {
        self.by_origin.clear();
    }
}

/// The production membership layer.
#[derive(Clone)]
pub struct Mbrship {
    cfg: MbrshipConfig,
    me: Option<EndpointAddr>,
    group: Option<GroupAddr>,
    view: Option<View>,
    phase: Phase,
    /// Whether this endpoint asked to leave.
    leaving_self: bool,
    /// Per-view sequence of our own casts (first cast gets 1).
    my_seq: u32,
    /// Cumulative received per member, within the current view.
    recv: BTreeMap<EndpointAddr, u32>,
    /// Log of every data message received/sent in the current view
    /// (the unstable-message log of Figure 2), as post-open images.
    log: UnstableLog,
    /// Data that arrived for a view we have not installed yet.
    future: BTreeMap<(u32, EndpointAddr, u32), Message>,
    /// Subset sends that arrived for a view we have not installed yet
    /// (unicasts can outrun the VIEW multicast).
    future_sends: Vec<(u32, EndpointAddr, Message)>,
    /// Casts queued while flushing/merging.
    pending: VecDeque<Message>,
    /// Current failure suspicions.
    suspects: BTreeSet<EndpointAddr>,
    /// Members that asked to leave (coordinator-side bookkeeping).
    leave_reqs: BTreeSet<EndpointAddr>,
    /// Granted merges not yet folded into a view (coordinator side).
    pending_joiners: Vec<View>,
    /// Outstanding MERGE_REQUESTs shown to the application.
    merge_reqs: BTreeMap<u64, (EndpointAddr, View)>,
    next_merge_id: u64,
    /// Highest flush epoch seen in the current view.
    cur_epoch: u16,
    last_progress: SimTime,
    // Statistics.
    views_installed: u64,
    flushes_started: u64,
    delivered: u64,
    recovered: u64,
    dropped_stale: u64,
}

impl Mbrship {
    /// Creates a MBRSHIP layer with the given configuration.
    pub fn new(cfg: MbrshipConfig) -> Self {
        Mbrship {
            cfg,
            me: None,
            group: None,
            view: None,
            phase: Phase::Idle,
            leaving_self: false,
            my_seq: 0,
            recv: BTreeMap::new(),
            log: UnstableLog::default(),
            future: BTreeMap::new(),
            future_sends: Vec::new(),
            pending: VecDeque::new(),
            suspects: BTreeSet::new(),
            leave_reqs: BTreeSet::new(),
            pending_joiners: Vec::new(),
            merge_reqs: BTreeMap::new(),
            next_merge_id: 1,
            cur_epoch: 0,
            last_progress: SimTime::ZERO,
            views_installed: 0,
            flushes_started: 0,
            delivered: 0,
            recovered: 0,
            dropped_stale: 0,
        }
    }

    fn me(&self) -> EndpointAddr {
        self.me.expect("layer initialised")
    }

    fn vc(&self) -> u32 {
        self.view.as_ref().map(|v| v.id().counter as u32).unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Message construction helpers
    // ------------------------------------------------------------------

    fn control(&self, ctx: &mut LayerCtx<'_>, kind: u64, epoch: u16, body: Bytes) -> Message {
        let mut m = ctx.new_message(body);
        ctx.stamp(&mut m);
        ctx.set(&mut m, 0, kind);
        ctx.set(&mut m, 1, epoch as u64);
        ctx.set(&mut m, 2, self.vc() as u64);
        ctx.set(&mut m, 3, 0);
        m
    }

    fn control_cast(&self, ctx: &mut LayerCtx<'_>, kind: u64, epoch: u16, body: Bytes) {
        let m = self.control(ctx, kind, epoch, body);
        ctx.down(Down::Cast(m));
    }

    fn control_send(
        &self,
        ctx: &mut LayerCtx<'_>,
        dest: EndpointAddr,
        kind: u64,
        epoch: u16,
        body: Bytes,
    ) {
        let m = self.control(ctx, kind, epoch, body);
        ctx.down(Down::Send { dests: vec![dest], msg: m });
    }

    fn send_data(&mut self, mut msg: Message, ctx: &mut LayerCtx<'_>) {
        self.my_seq += 1;
        let seq = self.my_seq;
        // Log before stamping so the stored image matches what receivers
        // log after opening our header.
        self.log.put(self.me(), seq, msg.inner_image());
        ctx.stamp(&mut msg);
        ctx.set(&mut msg, 0, KIND_DATA);
        ctx.set(&mut msg, 1, 0);
        ctx.set(&mut msg, 2, self.vc() as u64);
        ctx.set(&mut msg, 3, seq as u64);
        ctx.down(Down::Cast(msg));
    }

    // ------------------------------------------------------------------
    // View installation
    // ------------------------------------------------------------------

    fn install_initial(&mut self, group: GroupAddr, ctx: &mut LayerCtx<'_>) {
        let v = View::initial(group, self.me());
        self.group = Some(group);
        self.adopt_view(v, ctx);
        self.phase = Phase::Normal;
    }

    /// Resets per-view state and announces `v` up and down the stack.
    fn adopt_view(&mut self, v: View, ctx: &mut LayerCtx<'_>) {
        self.my_seq = 0;
        self.recv = v.members().iter().map(|&m| (m, 0)).collect();
        self.log.clear();
        self.suspects.clear();
        self.leave_reqs.clear();
        self.pending_joiners.retain(|jv| !jv.members().iter().all(|m| v.contains(*m)));
        self.cur_epoch = 0;
        self.last_progress = ctx.now();
        self.views_installed += 1;
        self.view = Some(v.clone());
        ctx.down(Down::InstallView(v.clone()));
        ctx.up(Up::View(v.clone()));
        // Replay data that raced ahead of this installation.
        let vc = v.id().counter as u32;
        let ready: Vec<((u32, EndpointAddr, u32), Message)> = {
            let keys: Vec<_> = self
                .future
                .range((vc, EndpointAddr::new(1), 0)..=(vc, EndpointAddr::new(u64::MAX), u32::MAX))
                .map(|(k, _)| *k)
                .collect();
            keys.into_iter().map(|k| (k, self.future.remove(&k).expect("present"))).collect()
        };
        for ((fvc, src, seq), msg) in ready {
            debug_assert_eq!(fvc, vc);
            self.handle_data(src, fvc, seq, msg, ctx);
        }
        // Drop data for views that can no longer happen.
        self.future.retain(|&(fvc, _, _), _| fvc > vc);
        // Release subset sends addressed to this view.
        let sends = std::mem::take(&mut self.future_sends);
        for (svc, src, msg) in sends {
            if svc == vc && v.contains(src) {
                ctx.up(Up::Send { src, msg });
            } else if svc > vc {
                self.future_sends.push((svc, src, msg));
            }
        }
        // Release queued casts into the new view.
        while let Some(m) = self.pending.pop_front() {
            self.send_data(m, ctx);
        }
    }

    /// Handles an incoming VIEW message (the final step of a flush).
    fn handle_view_msg(&mut self, src: EndpointAddr, body: &[u8], ctx: &mut LayerCtx<'_>) {
        let mut r = WireReader::new(body);
        let Ok(v_new) = r.get_view() else { return };
        let Ok(excluded) = r.get_addrs() else { return };
        let Ok(leaving) = r.get_addrs() else { return };
        let me = self.me();
        let cur_counter = self.view.as_ref().map(|v| v.id().counter).unwrap_or(0);
        if v_new.id().counter <= cur_counter {
            return; // stale
        }
        if v_new.contains(me) {
            if self.cfg.primary_partition {
                if let Some(old) = &self.view {
                    if old.len() > 1 {
                        let surviving =
                            old.members().iter().filter(|m| v_new.contains(**m)).count();
                        if surviving * 2 <= old.len() {
                            self.block(ctx);
                            return;
                        }
                    }
                }
            }
            for &l in &leaving {
                ctx.up(Up::Leave { member: l });
            }
            self.phase = Phase::Normal;
            self.adopt_view(v_new, ctx);
            return;
        }
        // Not a member: only meaningful if we were explicitly excluded.
        if leaving.contains(&me) && self.leaving_self {
            self.phase = Phase::Exited;
            ctx.down(Down::Leave);
            ctx.up(Up::Exit);
            return;
        }
        if excluded.contains(&me) {
            // We were suspected but are alive: fall back to a fresh
            // singleton view (the application may merge back later).
            ctx.up(Up::SystemError {
                reason: format!("excluded from view {} by {}", v_new.id(), src),
            });
            let group = self.group.expect("joined");
            let single = View::from_parts(
                group,
                horus_core::view::ViewId { counter: v_new.id().counter + 1, coordinator: me },
                vec![me],
                vec![v_new.id().counter + 1],
            );
            self.phase = Phase::Normal;
            self.adopt_view(single, ctx);
        }
        // Otherwise: somebody else's view lineage; ignore.
    }

    fn block(&mut self, ctx: &mut LayerCtx<'_>) {
        self.phase = Phase::Blocked;
        ctx.up(Up::SystemError { reason: "lost primary partition; progress blocked".to_string() });
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    fn handle_data(
        &mut self,
        src: EndpointAddr,
        vc: u32,
        seq: u32,
        msg: Message,
        ctx: &mut LayerCtx<'_>,
    ) {
        let Some(view) = &self.view else { return };
        let my_vc = view.id().counter as u32;
        if matches!(self.phase, Phase::Blocked | Phase::Exited | Phase::Idle) {
            return;
        }
        if vc < my_vc {
            self.dropped_stale += 1;
            return;
        }
        if vc > my_vc {
            // Sender is ahead of us; hold until we install that view.
            self.future.insert((vc, src, seq), msg);
            return;
        }
        if !view.contains(src) {
            self.dropped_stale += 1;
            return;
        }
        // During a flush, messages from supposedly failed members are
        // ignored; their pre-cut messages return via SYNC retransmission.
        if let Phase::Flushing(f) = &self.phase {
            if f.failed.contains(&src) {
                return;
            }
        }
        let cum = self.recv.entry(src).or_insert(0);
        if seq <= *cum {
            self.dropped_stale += 1;
            return; // duplicate (e.g. already recovered through a flush)
        }
        *cum = seq;
        self.log.put(src, seq, msg.inner_image());
        self.delivered += 1;
        ctx.up(Up::Cast { src, msg });
        self.maybe_flush_ok(ctx);
    }

    // ------------------------------------------------------------------
    // Flush protocol
    // ------------------------------------------------------------------

    fn flush_body(
        failed: &BTreeSet<EndpointAddr>,
        leaving: &BTreeSet<EndpointAddr>,
        joiners: &[View],
    ) -> Bytes {
        let failed_list: Vec<EndpointAddr> = failed.iter().copied().collect();
        let leaving_list: Vec<EndpointAddr> = leaving.iter().copied().collect();
        let mut w = WireWriter::with_capacity(
            12 + 8 * (failed_list.len() + leaving_list.len())
                + joiners.iter().map(|v| 40 + 16 * v.len()).sum::<usize>(),
        );
        w.put_addrs(&failed_list);
        w.put_addrs(&leaving_list);
        w.put_u32(joiners.len() as u32);
        for jv in joiners {
            w.put_view(jv);
        }
        w.finish()
    }

    fn sync_body(
        cuts: &BTreeMap<EndpointAddr, u32>,
        retrans: &[(EndpointAddr, u32, Bytes)],
    ) -> Bytes {
        let mut w = WireWriter::with_capacity(
            8 + 12 * cuts.len() + retrans.iter().map(|(_, _, b)| 16 + b.len()).sum::<usize>(),
        );
        w.put_u32(cuts.len() as u32);
        for (&m, &c) in cuts {
            w.put_addr(m);
            w.put_u32(c);
        }
        w.put_u32(retrans.len() as u32);
        for (origin, seq, inner) in retrans {
            w.put_addr(*origin);
            w.put_u32(*seq);
            w.put_bytes(inner);
        }
        w.finish()
    }

    /// The coordinator re-broadcasts FLUSH (and SYNC) while waiting: the
    /// reliable-FIFO layer prunes casts once the *view* members ack them,
    /// so merge joiners outside the view can miss the originals for good.
    fn rebroadcast_round(&mut self, ctx: &mut LayerCtx<'_>) {
        let Phase::Flushing(round) = &self.phase else { return };
        let body = Self::flush_body(&round.failed, &round.leaving, &round.joiner_views);
        let epoch = round.epoch;
        let sync = if round.sync_sent {
            round.cuts.as_ref().map(|cuts| {
                let retrans: Vec<(EndpointAddr, u32, Bytes)> =
                    round.collected.iter().map(|(&(o, s), b)| (o, s, b.clone())).collect();
                Self::sync_body(cuts, &retrans)
            })
        } else {
            None
        };
        self.control_cast(ctx, KIND_FLUSH, epoch, body);
        if let Some(sync) = sync {
            self.control_cast(ctx, KIND_SYNC, epoch, sync);
        }
    }

    /// Starts (or restarts) a flush round, electing the coordinator
    /// deterministically.
    fn start_flush(&mut self, ctx: &mut LayerCtx<'_>) {
        if matches!(self.phase, Phase::Blocked | Phase::Exited | Phase::Idle) {
            return;
        }
        let Some(view) = &self.view else { return };
        let me = self.me();
        let failed: BTreeSet<EndpointAddr> =
            self.suspects.iter().copied().filter(|s| view.contains(*s) && *s != me).collect();
        let participants: Vec<EndpointAddr> =
            view.members().iter().copied().filter(|m| !failed.contains(m)).collect();
        let Some(coordinator) = view.coordinator_among(&participants) else { return };
        if coordinator == me {
            self.cur_epoch += 1;
            self.flushes_started += 1;
            let body = Self::flush_body(&failed, &self.leave_reqs, &self.pending_joiners);
            self.control_cast(ctx, KIND_FLUSH, self.cur_epoch, body);
            // Our own FLUSH arrives via transport loopback and drives us
            // through the same handler as everyone else.
        } else {
            // Report suspicions to whoever should coordinate.
            let list: Vec<EndpointAddr> = failed.iter().copied().collect();
            let mut w = WireWriter::with_capacity(4 + 8 * list.len());
            w.put_addrs(&list);
            self.control_send(ctx, coordinator, KIND_SUSPECT, self.cur_epoch, w.finish());
        }
    }

    fn handle_flush(
        &mut self,
        src: EndpointAddr,
        epoch: u16,
        vc: u32,
        body: &[u8],
        ctx: &mut LayerCtx<'_>,
    ) {
        let mut r = WireReader::new(body);
        let Ok(failed_list) = r.get_addrs() else { return };
        let Ok(leaving_list) = r.get_addrs() else { return };
        let Ok(n_joiners) = r.get_u32() else { return };
        let mut joiner_views = Vec::with_capacity(n_joiners as usize);
        for _ in 0..n_joiners {
            match r.get_view() {
                Ok(v) => joiner_views.push(v),
                Err(_) => return,
            }
        }
        let me = self.me();
        let Some(view) = &self.view else { return };
        let failed: BTreeSet<EndpointAddr> = failed_list.into_iter().collect();
        let leaving: BTreeSet<EndpointAddr> = leaving_list.into_iter().collect();

        // Which side of the flush are we on?
        let in_main = view.contains(src) && vc == view.id().counter as u32;
        let my_view_id = view.id();
        let in_joiner = joiner_views.iter().any(|jv| jv.id() == my_view_id && jv.contains(me));
        if !(in_main || in_joiner) {
            return; // someone else's flush
        }
        if in_main {
            if failed.contains(&me) {
                return; // we are being excluded; the VIEW message decides
            }
            // Validate the sender's right to coordinate this round.
            let participants: Vec<EndpointAddr> =
                view.members().iter().copied().filter(|m| !failed.contains(m)).collect();
            if view.coordinator_among(&participants) != Some(src) {
                return;
            }
            if let Phase::Flushing(round) = &self.phase {
                if epoch <= round.epoch {
                    return; // stale round
                }
            }
            self.cur_epoch = self.cur_epoch.max(epoch);
        } else if let Phase::Flushing(round) = &self.phase {
            // Joiner side: the coordinator rebroadcasts the round every
            // quarter-timeout for the benefit of members that missed it.
            // We did not miss it — re-entering the round here would
            // re-send our contribution and reset our (and, via that
            // contribution, the coordinator's) stall clock every
            // rebroadcast, so neither side's wedge recovery could ever
            // fire (a livelock the chaos soak caught).
            if round.coordinator == src && round.epoch >= epoch {
                return;
            }
        }
        self.last_progress = ctx.now();
        let round = FlushRound::new(epoch, src, failed.clone(), leaving, joiner_views);
        self.phase = Phase::Flushing(round);
        let failed_vec: Vec<EndpointAddr> = failed.iter().copied().collect();
        ctx.up(Up::Flush { failed: failed_vec });
        self.send_contrib(ctx);
    }

    /// Unicasts our contribution (ack vector + failed-sender messages) to
    /// the coordinator of the current round.
    fn send_contrib(&mut self, ctx: &mut LayerCtx<'_>) {
        let me = self.me();
        let Phase::Flushing(round) = &self.phase else { return };
        let Some(view) = &self.view else { return };
        let mut entries: Vec<(EndpointAddr, u32)> = Vec::new();
        for &m in view.members() {
            let mut acked = self.recv.get(&m).copied().unwrap_or(0);
            if m == me {
                // Our own casts count as received even if the loopback copy
                // is still in flight.
                acked = acked.max(self.my_seq);
            }
            entries.push((m, acked));
        }
        let mut w = WireWriter::with_capacity(8 + 12 * entries.len());
        w.put_u32(entries.len() as u32);
        for (m, acked) in &entries {
            w.put_addr(*m);
            w.put_u32(*acked);
        }
        // The one place a logged message is serialized: a copy of every
        // unstable message of a failed sender.
        let unstable: usize = self.log.of(&round.failed).map(|(_, queue)| queue.len()).sum();
        w.put_u32(unstable as u32);
        for (origin, queue) in self.log.of(&round.failed) {
            for (seq, image) in queue {
                w.put_addr(origin);
                w.put_u32(*seq);
                w.put_bytes(&image.encode());
            }
        }
        ctx.note_payload_copy(unstable as u64);
        self.control_send(ctx, round.coordinator, KIND_CONTRIB, round.epoch, w.finish());
    }

    fn handle_contrib(
        &mut self,
        src: EndpointAddr,
        epoch: u16,
        body: &[u8],
        ctx: &mut LayerCtx<'_>,
    ) {
        let me = self.me();
        {
            let Phase::Flushing(round) = &mut self.phase else { return };
            if round.coordinator != me || round.epoch != epoch {
                return;
            }
            let mut r = WireReader::new(body);
            let Ok(n) = r.get_u32() else { return };
            let mut vector = BTreeMap::new();
            for _ in 0..n {
                let (Ok(addr), Ok(acked)) = (r.get_addr(), r.get_u32()) else { return };
                vector.insert(addr, acked);
            }
            let Ok(n_msgs) = r.get_u32() else { return };
            for _ in 0..n_msgs {
                let (Ok(origin), Ok(seq)) = (r.get_addr(), r.get_u32()) else { return };
                let Ok(inner) = r.get_bytes() else { return };
                round.collected.insert((origin, seq), Bytes::copy_from_slice(inner));
            }
            // A re-delivered duplicate is not progress; letting it reset
            // the stall clock would postpone wedge recovery forever under
            // a steady drizzle of retransmissions.
            if round.contribs.insert(src, vector.clone()) == Some(vector) {
                return;
            }
        }
        self.last_progress = ctx.now();
        self.try_sync(ctx);
    }

    /// All participants of the current round, main view and joiners alike.
    /// Joiner-view members we already suspect are skipped: a crash
    /// discovered after the grant will never contribute, and awaiting it
    /// would wedge the whole round (main-view failures travel in
    /// `round.failed` instead, so the exclusion is part of the round).
    fn round_participants(
        view: &View,
        round: &FlushRound,
        suspects: &BTreeSet<EndpointAddr>,
    ) -> BTreeSet<EndpointAddr> {
        let mut set: BTreeSet<EndpointAddr> =
            view.members().iter().copied().filter(|m| !round.failed.contains(m)).collect();
        for jv in &round.joiner_views {
            set.extend(jv.members().iter().copied().filter(|m| !suspects.contains(m)));
        }
        set
    }

    fn try_sync(&mut self, ctx: &mut LayerCtx<'_>) {
        let me = self.me();
        let (epoch, cuts, retrans) = {
            let Phase::Flushing(round) = &mut self.phase else { return };
            if round.coordinator != me || round.sync_sent {
                return;
            }
            let Some(view) = &self.view else { return };
            let participants = Self::round_participants(view, round, &self.suspects);
            if !participants.iter().all(|p| round.contribs.contains_key(p)) {
                return;
            }
            // The cut: per sender, the highest message any participant
            // holds — computed within each epoch community.  Sequence
            // numbers are view-scoped, so a member that follows a
            // foreign joiner view (asymmetric partition: it is still
            // listed in our view but moved on) reports counts in *its*
            // epoch; folding those into our members' cut — or ours into
            // theirs — produces a bar nobody's receive vector can ever
            // reach (a flush wedge the chaos soak caught).
            let my_id = view.id();
            let mut community: BTreeMap<EndpointAddr, usize> = BTreeMap::new();
            for m in view.members() {
                community.insert(*m, 0);
            }
            for (i, jv) in round.joiner_views.iter().enumerate() {
                if jv.id() == my_id {
                    continue;
                }
                for m in jv.members() {
                    community.insert(*m, i + 1); // joiner epoch wins over ours
                }
            }
            let mut cuts: BTreeMap<EndpointAddr, u32> = BTreeMap::new();
            for (c, vector) in &round.contribs {
                let cc = community.get(c).copied();
                for (&m, &acked) in vector {
                    if community.get(&m).copied() != cc {
                        continue;
                    }
                    let e = cuts.entry(m).or_insert(0);
                    *e = (*e).max(acked);
                }
            }
            // Retransmissions: everything from failed senders up to their
            // cut (contributions supplied exactly these).
            let retrans: Vec<(EndpointAddr, u32, Bytes)> = round
                .collected
                .iter()
                .map(|(&(origin, seq), inner)| (origin, seq, inner.clone()))
                .collect();
            round.sync_sent = true;
            round.cuts = Some(cuts.clone());
            (round.epoch, cuts, retrans)
        };
        self.control_cast(ctx, KIND_SYNC, epoch, Self::sync_body(&cuts, &retrans));
    }

    fn handle_sync(&mut self, src: EndpointAddr, epoch: u16, body: &[u8], ctx: &mut LayerCtx<'_>) {
        let mut r = WireReader::new(body);
        let Ok(n) = r.get_u32() else { return };
        let mut cuts = BTreeMap::new();
        for _ in 0..n {
            let (Ok(addr), Ok(c)) = (r.get_addr(), r.get_u32()) else { return };
            cuts.insert(addr, c);
        }
        let Ok(n_msgs) = r.get_u32() else { return };
        let mut retrans: Vec<(EndpointAddr, u32, &[u8])> = Vec::new();
        for _ in 0..n_msgs {
            let (Ok(origin), Ok(seq)) = (r.get_addr(), r.get_u32()) else { return };
            let Ok(inner) = r.get_bytes() else { return };
            retrans.push((origin, seq, inner));
        }
        {
            let Phase::Flushing(round) = &mut self.phase else { return };
            if round.coordinator != src || round.epoch != epoch {
                return;
            }
            round.cuts = Some(cuts);
        }
        self.last_progress = ctx.now();
        // Deliver recovered messages from failed senders, in order.
        retrans.sort_by_key(|&(origin, seq, _)| (origin, seq));
        for (origin, seq, inner) in retrans {
            let Some(view) = &self.view else { break };
            if !view.contains(origin) {
                continue; // other side's failed member
            }
            let cum = self.recv.entry(origin).or_insert(0);
            if seq <= *cum {
                continue; // already have it
            }
            *cum = seq;
            match Message::decode_inner(ctx_layout(ctx), inner) {
                Ok(mut m) => {
                    ctx.note_payload_copy(1);
                    // Logged in turn: a later round may need it again.
                    self.log.put(origin, seq, m.inner_image());
                    m.meta.set_src(Some(origin));
                    m.meta.set_flush_recovered(true);
                    self.delivered += 1;
                    self.recovered += 1;
                    ctx.up(Up::Cast { src: origin, msg: m });
                }
                Err(e) => ctx.trace(format!("MBRSHIP: recovered message undecodable: {e}")),
            }
        }
        self.maybe_flush_ok(ctx);
    }

    /// Sends FLUSH_OK once our receive vector reaches the cut.
    fn maybe_flush_ok(&mut self, ctx: &mut LayerCtx<'_>) {
        let (coordinator, epoch) = {
            // Every delivered cast asks; outside a flush the answer is no.
            let Phase::Flushing(round) = &mut self.phase else { return };
            let (Some(view), Some(cuts)) = (&self.view, &round.cuts) else { return };
            if round.flush_ok_sent {
                return;
            }
            // Members that also appear in a *foreign* joiner view stopped
            // following our epoch (asymmetric partition: they excluded us
            // and moved on) — their contributed cut is numbered in *their*
            // view and can never be met from ours.  Skip them: nobody who
            // still follows our view has a second log to disagree with,
            // and the merged view re-establishes synchrony from scratch.
            // Our own view showing up in `joiner_views` (we are the
            // joiner side of somebody else's round) does NOT make our
            // fellow members foreign — their cut is in our epoch and
            // must be honoured.
            let my_id = view.id();
            let foreign: BTreeSet<EndpointAddr> = round
                .joiner_views
                .iter()
                .filter(|jv| jv.id() != my_id)
                .flat_map(|jv| jv.members().iter().copied())
                .collect();
            let complete = view.members().iter().all(|m| {
                let have = self.recv.get(m).copied().unwrap_or(0);
                foreign.contains(m) || have >= cuts.get(m).copied().unwrap_or(0)
            });
            if !complete {
                return;
            }
            round.flush_ok_sent = true;
            (round.coordinator, round.epoch)
        };
        self.control_send(ctx, coordinator, KIND_FLUSH_OK, epoch, Bytes::new());
    }

    fn handle_flush_ok(&mut self, src: EndpointAddr, epoch: u16, ctx: &mut LayerCtx<'_>) {
        let me = self.me();
        {
            let Phase::Flushing(round) = &mut self.phase else { return };
            if round.coordinator != me || round.epoch != epoch {
                return;
            }
            round.flush_oks.insert(src);
        }
        self.last_progress = ctx.now();
        ctx.up(Up::FlushOk { from: src });
        self.try_install(ctx);
    }

    fn try_install(&mut self, ctx: &mut LayerCtx<'_>) {
        let me = self.me();
        let Phase::Flushing(round) = &self.phase else { return };
        if round.coordinator != me || !round.sync_sent {
            return;
        }
        let Some(view) = &self.view else { return };
        let participants = Self::round_participants(view, round, &self.suspects);
        if !participants.iter().all(|p| round.flush_oks.contains(p)) {
            return;
        }
        let (failed, leaving, joiner_views) = (&round.failed, &round.leaving, &round.joiner_views);
        // Build the successor view: drop failed & leaving, fold in joiners.
        let removed: Vec<EndpointAddr> = failed.union(leaving).copied().collect();
        let no_survivors = view.members().iter().all(|m| removed.contains(m));
        if no_survivors && joiner_views.is_empty() {
            // Everyone (including us) is leaving: nothing to install.
            self.phase = Phase::Exited;
            ctx.down(Down::Leave);
            ctx.up(Up::Exit);
            return;
        }
        let mut v_new = view.successor(me, &removed, &[]);
        for jv in joiner_views {
            v_new = v_new.merged(jv, me);
        }
        if self.cfg.primary_partition && view.len() > 1 {
            let surviving = view.members().iter().filter(|m| v_new.contains(**m)).count();
            if surviving * 2 <= view.len() {
                self.block(ctx);
                return;
            }
        }
        let failed_vec: Vec<EndpointAddr> = failed.iter().copied().collect();
        let leaving_vec: Vec<EndpointAddr> = leaving.iter().copied().collect();
        let mut w = WireWriter::with_capacity(
            48 + 16 * v_new.len() + 8 * (failed_vec.len() + leaving_vec.len()),
        );
        w.put_view(&v_new);
        w.put_addrs(&failed_vec);
        w.put_addrs(&leaving_vec);
        // The VIEW travels as a multicast (reaching main view and joiners
        // alike through the shared transport group); our own copy loops
        // back and installs it here too.
        self.control_cast(ctx, KIND_VIEW, self.cur_epoch, w.finish());
    }

    // ------------------------------------------------------------------
    // Suspicion and merge handling
    // ------------------------------------------------------------------

    fn suspect(&mut self, member: EndpointAddr, ctx: &mut LayerCtx<'_>) {
        let Some(view) = &self.view else { return };
        if member == self.me() || !view.contains(member) {
            return;
        }
        if !self.suspects.insert(member) {
            return; // already known
        }
        match &self.phase {
            Phase::Normal => self.start_flush(ctx),
            Phase::Flushing(round)
                // A failure during the flush: restart under the (possibly
                // new) coordinator.
                if (round.coordinator == member || !round.failed.contains(&member)) => {
                    self.start_flush(ctx);
                }
            _ => {}
        }
    }

    /// Withdraws a suspicion: the detector below produced fresh evidence
    /// that `member` is alive (PROBLEM_CLEARED).  If we are coordinating a
    /// flush that would exclude the member and the cut has not been frozen
    /// yet (no SYNC sent), the flush restarts under the shrunk suspect set
    /// so a falsely accused live member is never ejected.
    fn rescind(&mut self, member: EndpointAddr, ctx: &mut LayerCtx<'_>) {
        if !self.suspects.remove(&member) {
            return;
        }
        let me = self.me();
        let restart = matches!(
            &self.phase,
            Phase::Flushing(round)
                if round.coordinator == me
                    && !round.sync_sent
                    && round.failed.contains(&member)
        );
        if restart {
            self.start_flush(ctx);
        }
    }

    /// Suspicion is view-relative: a report generated in another view (for
    /// example one that crossed a partition and was delivered, reliably but
    /// late, after the merge) must not poison the current view.
    fn handle_suspect_report(&mut self, vc: u32, body: &[u8], ctx: &mut LayerCtx<'_>) {
        if vc != self.vc() {
            return;
        }
        let mut r = WireReader::new(body);
        let Ok(list) = r.get_addrs() else { return };
        for m in list {
            self.suspect(m, ctx);
        }
        // Even an empty report means somebody expects us to coordinate.
        if matches!(self.phase, Phase::Normal) && !self.suspects.is_empty() {
            self.start_flush(ctx);
        }
    }

    fn handle_merge_req(&mut self, src: EndpointAddr, body: &[u8], ctx: &mut LayerCtx<'_>) {
        let mut r = WireReader::new(body);
        let Ok(their_view) = r.get_view() else { return };
        let me = self.me();
        let Some(view) = &self.view else { return };
        if their_view.id() == view.id() {
            // The requester is in our very view — nothing to merge.  Say
            // so explicitly: a silent drop parks the requester in
            // `Merging` for the full retry budget, and while its
            // coordinator waits there it will not start exclusion
            // flushes for members that crash in the meantime (the chaos
            // soak caught exactly that wedge).
            self.control_send(
                ctx,
                src,
                KIND_MERGE_DENY,
                0,
                Bytes::from_static(b"already in the same view"),
            );
            return;
        }
        // NOTE: membership containment is NOT a duplicate test.  After an
        // asymmetric partition (our failure detector rescinded its
        // suspicions post-heal, theirs did not) we can sit in a view that
        // still lists the requesters while they excluded us and moved on.
        // Their view id differs, so they are provably not following our
        // view — the merge must proceed or the divergence never heals
        // (the chaos soak's convergence monitor caught this deadlock).
        let coordinator = view.coordinator_among(view.members());
        if coordinator != Some(me) {
            // Forward to our coordinator.
            if let Some(c) = coordinator {
                let mut w = WireWriter::with_capacity(40 + 16 * their_view.len());
                w.put_view(&their_view);
                self.control_send(ctx, c, KIND_MERGE_REQ, 0, w.finish());
            }
            return;
        }
        if self.cfg.auto_merge {
            self.grant_merge(src, their_view, ctx);
        } else {
            let id = self.next_merge_id;
            self.next_merge_id += 1;
            self.merge_reqs.insert(id, (src, their_view));
            ctx.up(Up::MergeRequest { from: src, id: MergeId(id) });
        }
    }

    fn grant_merge(&mut self, _from: EndpointAddr, their_view: View, ctx: &mut LayerCtx<'_>) {
        if !self.pending_joiners.iter().any(|jv| jv.id() == their_view.id()) {
            self.pending_joiners.push(their_view.clone());
        }
        if let Phase::Merging { .. } = self.phase {
            // We were courting another view when this one proposed to
            // us.  Waiting out our own retry budget before flushing the
            // grant adds seconds of post-heal latency, so abandon the
            // outbound attempt and coordinate now — but only when we
            // outrank their coordinator, so two views merging toward
            // each other elect exactly one flush coordinator instead of
            // dueling.
            let me = self.me();
            let their_coord = their_view.coordinator_among(their_view.members());
            if their_coord.is_none_or(|c| me < c) {
                self.phase = Phase::Normal;
            }
        }
        if matches!(self.phase, Phase::Normal) {
            self.start_flush(ctx);
        }
    }

    fn handle_merge_deny(&mut self, body: &[u8], ctx: &mut LayerCtx<'_>) {
        if let Phase::Merging { .. } = self.phase {
            let why = String::from_utf8_lossy(body).to_string();
            self.phase = Phase::Normal;
            ctx.up(Up::MergeDenied { why });
        }
    }

    fn send_merge_req(&mut self, contact: EndpointAddr, ctx: &mut LayerCtx<'_>) {
        let Some(view) = &self.view else { return };
        let mut w = WireWriter::with_capacity(40 + 16 * view.len());
        w.put_view(view);
        self.control_send(ctx, contact, KIND_MERGE_REQ, 0, w.finish());
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn on_tick(&mut self, ctx: &mut LayerCtx<'_>) {
        let now = ctx.now();
        let stalled = now.saturating_since(self.last_progress) > self.cfg.flush_timeout;

        enum Action {
            None,
            RestartAsCoordinator { awaited: Vec<EndpointAddr> },
            SuspectCoordinator(EndpointAddr),
            RetryMerge(EndpointAddr),
            AbandonMerge,
            RetryLeave,
            Rebroadcast,
            SweepFlush,
        }

        let waited = now.saturating_since(self.last_progress);
        let action = match &mut self.phase {
            Phase::Flushing(round) => {
                let me = self.me.expect("layer initialised");
                if round.coordinator == me {
                    if stalled {
                        let view = self.view.as_ref().expect("flushing implies view");
                        // What a participant owes us depends on the round's
                        // stage: before SYNC only contributions exist —
                        // judging members by missing flush-oks then would
                        // condemn everyone, including live members whose
                        // contribution already arrived.
                        let awaited: Vec<EndpointAddr> =
                            Self::round_participants(view, round, &self.suspects)
                                .into_iter()
                                .filter(|p| {
                                    if round.sync_sent {
                                        !round.flush_oks.contains(p)
                                    } else {
                                        !round.contribs.contains_key(p)
                                    }
                                })
                                .collect();
                        Action::RestartAsCoordinator { awaited }
                    } else if waited > self.cfg.flush_timeout / 4 {
                        Action::Rebroadcast
                    } else {
                        Action::None
                    }
                } else if waited > self.cfg.flush_timeout * 2 {
                    // The flush stopped making progress.  Aim the
                    // escalation at whoever should be coordinating *now*
                    // (senior live, unsuspected member): if the round's
                    // original coordinator is already suspected from an
                    // earlier escalation, re-suspecting it would no-op and
                    // this watchdog would unicast SUSPECT reports to a dead
                    // successor forever.
                    let view = self.view.as_ref().expect("flushing implies view");
                    let live: Vec<EndpointAddr> = view
                        .members()
                        .iter()
                        .copied()
                        .filter(|m| !self.suspects.contains(m))
                        .collect();
                    let awaited = view.coordinator_among(&live).unwrap_or(round.coordinator);
                    Action::SuspectCoordinator(awaited)
                } else {
                    Action::None
                }
            }
            Phase::Merging { contact, attempts, last_try } => {
                if now.saturating_since(*last_try) > self.cfg.flush_timeout {
                    if *attempts >= MERGE_RETRIES {
                        Action::AbandonMerge
                    } else {
                        *attempts += 1;
                        *last_try = now;
                        Action::RetryMerge(*contact)
                    }
                } else {
                    Action::None
                }
            }
            Phase::Normal if self.leaving_self && stalled => {
                self.last_progress = now;
                Action::RetryLeave
            }
            // Suspicions or granted joiners recorded while we were busy
            // (Merging, or mid-flush for an unrelated round) have no
            // event left to trigger the flush that acts on them — sweep
            // them up here or the view never changes again.
            Phase::Normal
                if stalled && !(self.suspects.is_empty() && self.pending_joiners.is_empty()) =>
            {
                self.last_progress = now;
                Action::SweepFlush
            }
            _ => Action::None,
        };

        match action {
            Action::None => {}
            Action::RestartAsCoordinator { awaited } => {
                // Participants that never answered are gone: suspect them
                // individually.  Dropping a joiner *view* because one of
                // its members went silent would punish its live members —
                // they re-request the merge, we re-grant, the new round
                // wedges on the same corpse, and the cycle's flush traffic
                // keeps resetting everyone's stall clocks (a livelock the
                // chaos soak caught).  A joiner view is only abandoned
                // once every member of it is suspected.
                let me = self.me();
                for p in awaited {
                    if p == me {
                        continue;
                    }
                    self.suspects.insert(p);
                }
                let suspects = self.suspects.clone();
                self.pending_joiners
                    .retain(|jv| !jv.members().iter().all(|m| suspects.contains(m)));
                self.last_progress = now;
                self.start_flush(ctx);
            }
            Action::SuspectCoordinator(c) => {
                // The coordinator stopped making progress: suspect it and
                // try again under its successor.
                self.last_progress = now;
                self.suspect(c, ctx);
                self.start_flush(ctx);
            }
            Action::Rebroadcast => self.rebroadcast_round(ctx),
            Action::RetryMerge(contact) => self.send_merge_req(contact, ctx),
            Action::RetryLeave => {
                if let Some(view) = &self.view {
                    if view.len() > 1 {
                        let coordinator =
                            view.coordinator_among(view.members()).expect("non-empty view");
                        let me = self.me();
                        if coordinator == me {
                            self.leave_reqs.insert(me);
                            self.start_flush(ctx);
                        } else {
                            self.control_send(ctx, coordinator, KIND_LEAVE_REQ, 0, Bytes::new());
                        }
                    }
                }
            }
            Action::AbandonMerge => {
                self.phase = Phase::Normal;
                ctx.up(Up::MergeDenied { why: "merge timed out".to_string() });
            }
            Action::SweepFlush => self.start_flush(ctx),
        }
        ctx.set_timer(self.cfg.tick, TIMER_TICK);
    }
}

/// The layout handle of the current stack (for decoding recovered
/// messages).
fn ctx_layout(ctx: &LayerCtx<'_>) -> std::sync::Arc<horus_core::message::HeaderLayout> {
    // A zero-byte message shares the stack's layout Arc.
    ctx.new_message(Bytes::new()).layout().clone()
}

impl Default for Mbrship {
    fn default() -> Self {
        Mbrship::new(MbrshipConfig::default())
    }
}

impl Layer for Mbrship {
    fn name(&self) -> &'static str {
        "MBRSHIP"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        self.me = Some(ctx.local_addr());
        self.last_progress = ctx.now();
        ctx.set_timer(self.cfg.tick, TIMER_TICK);
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Join { group } => {
                ctx.down(Down::Join { group });
                self.install_initial(group, ctx);
            }
            Down::Cast(msg) => match self.phase {
                // Casting while Merging is safe: a MERGE_REQ does not stop
                // the current view, and any messages sent before the merge
                // flush arrives are covered by its cut.
                Phase::Normal | Phase::Merging { .. } => self.send_data(msg, ctx),
                Phase::Flushing(_) => self.pending.push_back(msg),
                _ => ctx.up(Up::SystemError {
                    reason: "cast while not an active group member".to_string(),
                }),
            },
            Down::Send { dests, mut msg } => {
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, KIND_USEND);
                ctx.set(&mut msg, 1, 0);
                ctx.set(&mut msg, 2, self.vc() as u64);
                ctx.set(&mut msg, 3, 0);
                ctx.down(Down::Send { dests, msg });
            }
            Down::Suspect { member } => self.suspect(member, ctx),
            Down::Flush { failed } => {
                for m in failed {
                    self.suspects.insert(m);
                }
                if matches!(self.phase, Phase::Normal | Phase::Flushing(_)) {
                    self.start_flush(ctx);
                }
            }
            Down::FlushOk => {
                // The production layer tracks flush completion itself; the
                // downcall exists for app-driven membership (Table 1).
                self.maybe_flush_ok(ctx);
            }
            Down::Merge { contact } => {
                if !matches!(self.phase, Phase::Normal) {
                    ctx.up(Up::SystemError {
                        reason: "merge only possible from a stable view".to_string(),
                    });
                    return;
                }
                let me = self.me();
                let is_coord =
                    self.view.as_ref().and_then(|v| v.coordinator_among(v.members())) == Some(me);
                if !is_coord {
                    ctx.up(Up::SystemError {
                        reason: "merge must be issued at the view coordinator".to_string(),
                    });
                    return;
                }
                self.phase = Phase::Merging { contact, attempts: 1, last_try: ctx.now() };
                self.send_merge_req(contact, ctx);
            }
            Down::MergeGranted(MergeId(id)) => {
                if let Some((from, their_view)) = self.merge_reqs.remove(&id) {
                    self.grant_merge(from, their_view, ctx);
                }
            }
            Down::MergeDenied(MergeId(id)) => {
                if let Some((from, _)) = self.merge_reqs.remove(&id) {
                    self.control_send(
                        ctx,
                        from,
                        KIND_MERGE_DENY,
                        0,
                        Bytes::from_static(b"denied by application"),
                    );
                }
            }
            Down::Leave => {
                let me = self.me();
                self.leaving_self = true;
                match (&self.phase, self.view.as_ref()) {
                    (Phase::Normal | Phase::Flushing(_), Some(view)) if view.len() > 1 => {
                        let coordinator =
                            view.coordinator_among(view.members()).expect("non-empty view");
                        if coordinator == me {
                            self.leave_reqs.insert(me);
                            self.start_flush(ctx);
                        } else {
                            self.control_send(ctx, coordinator, KIND_LEAVE_REQ, 0, Bytes::new());
                        }
                    }
                    _ => {
                        self.phase = Phase::Exited;
                        ctx.down(Down::Leave);
                        ctx.up(Up::Exit);
                    }
                }
            }
            Down::Destroy => {
                self.phase = Phase::Exited;
                ctx.down(Down::Destroy);
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
                let epoch = ctx.get(&msg, 1) as u16;
                let vc = ctx.get(&msg, 2) as u32;
                let seq = ctx.get(&msg, 3) as u32;
                match kind {
                    KIND_DATA => self.handle_data(src, vc, seq, msg, ctx),
                    KIND_FLUSH => self.handle_flush(src, epoch, vc, &msg.body().clone(), ctx),
                    KIND_CONTRIB => self.handle_contrib(src, epoch, &msg.body().clone(), ctx),
                    KIND_SYNC => self.handle_sync(src, epoch, &msg.body().clone(), ctx),
                    KIND_FLUSH_OK => self.handle_flush_ok(src, epoch, ctx),
                    KIND_VIEW => self.handle_view_msg(src, &msg.body().clone(), ctx),
                    KIND_MERGE_REQ => self.handle_merge_req(src, &msg.body().clone(), ctx),
                    KIND_MERGE_DENY => self.handle_merge_deny(&msg.body().clone(), ctx),
                    KIND_SUSPECT => self.handle_suspect_report(vc, &msg.body().clone(), ctx),
                    KIND_USEND => {
                        // Subset sends honour view boundaries like casts,
                        // but carry no sequence and are not flushed.  A
                        // send for a newer view than ours buffers until we
                        // install it (unicasts can beat the VIEW cast).
                        if vc > self.vc() {
                            self.future_sends.push((vc, src, msg));
                        } else if vc == self.vc()
                            && self.view.as_ref().map(|v| v.contains(src)).unwrap_or(false)
                        {
                            ctx.up(Up::Send { src, msg });
                        }
                    }
                    KIND_LEAVE_REQ if vc == self.vc() => {
                        self.leave_reqs.insert(src);
                        if matches!(self.phase, Phase::Normal) {
                            self.start_flush(ctx);
                        }
                    }
                    _ => {}
                }
            }
            Up::Problem { member } => {
                self.suspect(member, ctx);
                ctx.up(Up::Problem { member });
            }
            Up::ProblemCleared { member } => {
                self.rescind(member, ctx);
                ctx.up(Up::ProblemCleared { member });
            }
            Up::LostMessage { src } => {
                // A hole in src's transport-level FIFO stream.  This is
                // benign for virtual synchrony: the flush protocol prunes
                // nothing that a current-view member still needs (the NAK
                // layer only discards messages acknowledged by the whole
                // destination view), so LOST placeholders refer to messages
                // of *older* views, which the vc check would discard anyway
                // (a common artefact after partitions heal).  Report it to
                // the application but do not suspect the sender.
                ctx.up(Up::LostMessage { src });
            }
            other => ctx.up(other),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut LayerCtx<'_>) {
        if token == TIMER_TICK {
            self.on_tick(ctx);
        }
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        let phase = match &self.phase {
            Phase::Idle => "idle",
            Phase::Normal => "normal",
            Phase::Flushing(_) => "flushing",
            Phase::Merging { .. } => "merging",
            Phase::Blocked => "blocked",
            Phase::Exited => "exited",
        };
        write!(w, "phase={phase}")?;
        if let Phase::Flushing(r) = &self.phase {
            write!(
                w,
                " round[e{} coord={} failed={:?} contribs={:?} oks={:?} sync={} cuts={} joiners={}]",
                r.epoch,
                r.coordinator,
                r.failed,
                r.contribs.keys().collect::<Vec<_>>(),
                r.flush_oks,
                r.sync_sent,
                r.cuts.is_some(),
                r.joiner_views.len(),
            )?;
        }
        match &self.view {
            Some(v) => write!(w, " view={v}")?,
            None => w.write_str(" view=-")?,
        }
        write!(
            w,
            " seq={} delivered={} recovered={} flushes={} views={} suspects={:?}",
            self.my_seq,
            self.delivered,
            self.recovered,
            self.flushes_started,
            self.views_installed,
            self.suspects,
        )
    }

    fn pending_work(&self) -> u64 {
        // An unfinished flush is owed work (the view change must
        // terminate), as are casts held back during it and data buffered
        // for views not yet installed.  Merging deliberately does NOT
        // count: merge probes toward a dead or partitioned contact may
        // legitimately retry forever (the contact could return), so the
        // phase is background maintenance; a merge that *should* complete
        // but doesn't is caught by the view-convergence liveness monitor
        // instead.
        let lifecycle = match self.phase {
            Phase::Flushing(_) => 1,
            _ => 0,
        };
        lifecycle
            + self.pending.len() as u64
            + self.future.len() as u64
            + self.future_sends.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::com::Com;
    use crate::frag::Frag;
    use crate::nak::{Nak, NakConfig};
    use horus_net::NetConfig;
    use horus_sim::{check_virtual_synchrony, DeliveryLog, SimWorld, Workload};

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn vs_stack(i: u64, cfg: MbrshipConfig) -> Stack {
        StackBuilder::new(ep(i))
            .push(Box::new(Mbrship::new(cfg)))
            .push(Box::new(Frag::default()))
            .push(Box::new(Nak::new(NakConfig {
                fail_timeout: Duration::from_millis(120),
                ..NakConfig::default()
            })))
            .push(Box::new(Com::promiscuous()))
            .build()
            .unwrap()
    }

    /// Builds a world where member 1 joins first and the others merge in,
    /// then runs until the full view is installed everywhere.
    fn joined_world(n: u64, seed: u64, cfg: MbrshipConfig, net: NetConfig) -> SimWorld {
        let mut w = SimWorld::new(seed, net);
        for i in 1..=n {
            w.add_endpoint(vs_stack(i, cfg.clone()));
            w.join(ep(i), GroupAddr::new(1));
        }
        // Everyone merges toward endpoint 1.
        for i in 2..=n {
            w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
        }
        w.run_for(Duration::from_secs(2));
        for i in 1..=n {
            let views = w.installed_views(ep(i));
            let last = views.last().unwrap_or_else(|| panic!("{i} has no view"));
            assert_eq!(last.len(), n as usize, "endpoint {i} should see all {n} members");
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
    fn join_installs_singleton_view() {
        let mut w = SimWorld::new(1, NetConfig::reliable());
        w.add_endpoint(vs_stack(1, MbrshipConfig::default()));
        w.join(ep(1), GroupAddr::new(1));
        w.run_for(Duration::from_millis(10));
        let views = w.installed_views(ep(1));
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].members(), &[ep(1)]);
    }

    #[test]
    fn merge_builds_full_view() {
        let w = joined_world(4, 2, MbrshipConfig::default(), NetConfig::reliable());
        // All members agree on the final view.
        let v1 = w.installed_views(ep(1)).last().unwrap().clone();
        for i in 2..=4 {
            assert_eq!(w.installed_views(ep(i)).last().unwrap(), &v1);
        }
        assert!(check_virtual_synchrony(&logs(&w, 4)).is_empty());
    }

    #[test]
    fn casts_reach_all_members_of_view() {
        let mut w = joined_world(3, 3, MbrshipConfig::default(), NetConfig::reliable());
        let start = w.now();
        for k in 1..=10u64 {
            w.cast_bytes_at(start + Duration::from_millis(k), ep(1), Workload::body(ep(1), k, 32));
        }
        w.run_for(Duration::from_millis(500));
        for i in 1..=3 {
            assert_eq!(w.delivered_casts(ep(i)).len(), 10, "endpoint {i}");
        }
        assert!(check_virtual_synchrony(&logs(&w, 3)).is_empty());
    }

    #[test]
    fn crash_triggers_flush_and_new_view() {
        let mut w = joined_world(3, 4, MbrshipConfig::default(), NetConfig::reliable());
        let t = w.now();
        w.crash_at(t + Duration::from_millis(10), ep(3));
        w.run_for(Duration::from_secs(2));
        for i in 1..=2 {
            let last = w.installed_views(ep(i)).last().unwrap().clone();
            assert_eq!(last.members(), &[ep(1), ep(2)], "endpoint {i} final view");
            // FLUSH upcall visible to the application.
            assert!(w
                .upcalls(ep(i))
                .iter()
                .any(|(_, up)| matches!(up, Up::Flush { failed } if failed.contains(&ep(3)))));
        }
        assert!(check_virtual_synchrony(&logs(&w, 3)).is_empty());
    }

    #[test]
    fn figure_2_scenario_message_survives_sender_crash() {
        // Figure 2: D crashes right after sending M; only C receives it.
        // The flush must deliver M at A and B before the new view.
        let mut w = joined_world(4, 5, MbrshipConfig::default(), NetConfig::reliable());
        let (a, b, _c, d) = (ep(1), ep(2), ep(3), ep(4));
        let t = w.now();
        // Cut D off from A and B (but not C), let it cast M, then crash it.
        w.partition_at(t + Duration::from_millis(1), &[&[ep(1), ep(2)], &[ep(3), ep(4)]]);
        w.cast_bytes_at(t + Duration::from_millis(2), d, Workload::body(d, 1, 32));
        w.crash_at(t + Duration::from_millis(5), d);
        w.heal_at(t + Duration::from_millis(8));
        w.run_for(Duration::from_secs(3));
        for &m in &[a, b] {
            let got = w.delivered_casts(m);
            let from_d: Vec<_> = got.iter().filter(|(s, _, _)| *s == d).collect();
            assert_eq!(from_d.len(), 1, "{m} must deliver M exactly once");
        }
        // And the survivors end in a 3-member view.
        let last = w.installed_views(a).last().unwrap().clone();
        assert_eq!(last.members(), &[ep(1), ep(2), ep(3)]);
        assert!(check_virtual_synchrony(&logs(&w, 4)).is_empty());
    }

    #[test]
    fn traffic_during_crash_stays_virtually_synchronous() {
        for seed in 1..=4 {
            let mut w =
                joined_world(4, 100 + seed, MbrshipConfig::default(), NetConfig::reliable());
            let t = w.now();
            let wl = Workload::round_robin(vec![ep(1), ep(2), ep(3), ep(4)], 40);
            wl.schedule(&mut w, t + Duration::from_millis(1));
            w.crash_at(t + Duration::from_millis(20), ep(2));
            w.run_for(Duration::from_secs(3));
            let violations = check_virtual_synchrony(&logs(&w, 4));
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
            // Survivors made it to a 3-member view.
            for i in [1u64, 3, 4] {
                assert_eq!(
                    w.installed_views(ep(i)).last().unwrap().len(),
                    3,
                    "seed {seed} endpoint {i}"
                );
            }
        }
    }

    #[test]
    fn leave_is_graceful() {
        let mut w = joined_world(3, 6, MbrshipConfig::default(), NetConfig::reliable());
        let t = w.now();
        w.down_at(t + Duration::from_millis(5), ep(2), Down::Leave);
        w.run_for(Duration::from_secs(2));
        // The leaver gets EXIT; the others see LEAVE and a 2-member view.
        assert!(w.upcalls(ep(2)).iter().any(|(_, up)| matches!(up, Up::Exit)));
        for i in [1u64, 3] {
            assert!(w
                .upcalls(ep(i))
                .iter()
                .any(|(_, up)| matches!(up, Up::Leave { member } if *member == ep(2))));
            assert_eq!(w.installed_views(ep(i)).last().unwrap().members(), &[ep(1), ep(3)]);
        }
    }

    #[test]
    fn partition_and_remerge_extended_vs() {
        let mut w = joined_world(4, 7, MbrshipConfig::default(), NetConfig::reliable());
        let t = w.now();
        w.partition_at(t + Duration::from_millis(5), &[&[ep(1), ep(2)], &[ep(3), ep(4)]]);
        w.run_for(Duration::from_secs(2));
        // Both sides made progress into 2-member views.
        assert_eq!(w.installed_views(ep(1)).last().unwrap().len(), 2);
        assert_eq!(w.installed_views(ep(3)).last().unwrap().len(), 2);
        // Heal and merge back: the coordinator of the (3,4) side contacts 1.
        let t = w.now();
        w.heal_at(t);
        w.down_at(t + Duration::from_millis(30), ep(3), Down::Merge { contact: ep(1) });
        w.run_for(Duration::from_secs(2));
        for i in 1..=4 {
            assert_eq!(
                w.installed_views(ep(i)).last().unwrap().len(),
                4,
                "endpoint {i} back to full view"
            );
        }
        assert!(check_virtual_synchrony(&logs(&w, 4)).is_empty());
    }

    #[test]
    fn primary_partition_blocks_minority() {
        let cfg = MbrshipConfig { primary_partition: true, ..MbrshipConfig::default() };
        let mut w = joined_world(4, 8, cfg, NetConfig::reliable());
        let t = w.now();
        w.partition_at(t + Duration::from_millis(5), &[&[ep(1), ep(2), ep(3)], &[ep(4)]]);
        w.run_for(Duration::from_secs(3));
        // Majority side continues into a 3-member view.
        for i in 1..=3 {
            assert_eq!(w.installed_views(ep(i)).last().unwrap().len(), 3);
        }
        // Minority member is blocked, not reinstalled.
        assert!(w
            .upcalls(ep(4))
            .iter()
            .any(|(_, up)| matches!(up, Up::SystemError { reason } if reason.contains("primary"))));
        assert_eq!(w.installed_views(ep(4)).last().unwrap().len(), 4, "no minority view");
    }

    #[test]
    fn virtual_synchrony_under_loss() {
        for seed in 1..=3 {
            let mut w =
                joined_world(3, 200 + seed, MbrshipConfig::default(), NetConfig::lossy(0.1));
            let t = w.now();
            let wl = Workload::round_robin(vec![ep(1), ep(2), ep(3)], 30);
            wl.schedule(&mut w, t + Duration::from_millis(1));
            w.crash_at(t + Duration::from_millis(25), ep(3));
            w.run_for(Duration::from_secs(4));
            let violations = check_virtual_synchrony(&logs(&w, 3));
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    #[test]
    fn coordinator_crash_mid_flush_recovers() {
        let mut w = joined_world(4, 9, MbrshipConfig::default(), NetConfig::reliable());
        let t = w.now();
        // Crash the member whose failure starts a flush...
        w.crash_at(t + Duration::from_millis(5), ep(4));
        // ...and crash the coordinator (oldest member, ep1) mid-flush.
        w.crash_at(t + Duration::from_millis(140), ep(1));
        w.run_for(Duration::from_secs(4));
        for i in 2..=3 {
            let last = w.installed_views(ep(i)).last().unwrap().clone();
            assert_eq!(last.members(), &[ep(2), ep(3)], "endpoint {i}");
        }
        assert!(check_virtual_synchrony(&logs(&w, 4)).is_empty());
    }

    #[test]
    fn external_suspicion_downcall_forces_flush() {
        let mut w = joined_world(3, 10, MbrshipConfig::default(), NetConfig::reliable());
        let t = w.now();
        // The external failure detector (§5) says ep3 is faulty, even
        // though it is actually fine.
        w.down_at(t + Duration::from_millis(5), ep(1), Down::Suspect { member: ep(3) });
        w.run_for(Duration::from_secs(2));
        let last = w.installed_views(ep(1)).last().unwrap().clone();
        assert_eq!(last.members(), &[ep(1), ep(2)]);
        // The falsely-suspected member was excluded and told so.
        assert!(w.upcalls(ep(3)).iter().any(
            |(_, up)| matches!(up, Up::SystemError { reason } if reason.contains("excluded"))
        ));
        // It falls back to a singleton view and could merge back.
        assert_eq!(w.installed_views(ep(3)).last().unwrap().members(), &[ep(3)]);
    }

    // ------------------------------------------------------------------
    // Differential test: the queue log against the B-tree log
    // ------------------------------------------------------------------

    /// One MBRSHIP layer on its own, member or coordinator of a four-member
    /// view, with the rest of the group played by the test — and beside it
    /// the log this layer kept before it became queues of deferred
    /// encodings: a `BTreeMap<(origin, seq), Bytes>` holding
    /// `encode_inner()` of every cast sent (before stamping), delivered, or
    /// recovered from a SYNC.  The model is filled from what the layer is
    /// seen to do, and every CONTRIB and SYNC the layer emits must be, byte
    /// for byte, what the model's contents serialize to.
    struct Probe {
        stack: Stack,
        me: EndpointAddr,
        view: View,
        epoch: u16,
        log: BTreeMap<(EndpointAddr, u32), Bytes>,
        recv: BTreeMap<EndpointAddr, u32>,
        my_seq: u32,
        /// Data frames on their way to `me`, FIFO per source.
        channel: BTreeMap<EndpointAddr, VecDeque<WireFrame>>,
        /// Each peer's casts of this view as a receiver logs them.
        cast_by: BTreeMap<EndpointAddr, Vec<Bytes>>,
        round: Option<Round>,
        bodies: u64,
        contribs_checked: u32,
    }

    /// The test's view of the flush round in progress.
    struct Round {
        failed: BTreeSet<EndpointAddr>,
        synced: bool,
        /// Coordinator role: what `me` has been handed, in arrival order.
        contribs: BTreeMap<EndpointAddr, BTreeMap<EndpointAddr, u32>>,
        collected: BTreeMap<(EndpointAddr, u32), Bytes>,
    }

    impl Probe {
        fn new(me: EndpointAddr, mode: HeaderMode) -> Self {
            let mut stack = StackBuilder::new(me)
                .mode(mode)
                .push(Box::new(Mbrship::default()))
                .build()
                .unwrap();
            let _ = stack.init();
            let view = View::initial(GroupAddr::new(1), me);
            let mut p = Probe {
                stack,
                me,
                view,
                epoch: 0,
                log: BTreeMap::new(),
                recv: BTreeMap::new(),
                my_seq: 0,
                channel: BTreeMap::new(),
                cast_by: BTreeMap::new(),
                round: None,
                bodies: 0,
                contribs_checked: 0,
            };
            p.feed(StackInput::FromApp(Down::Join { group: GroupAddr::new(1) }));
            let members: Vec<_> = (1..=4).map(ep).collect();
            p.install(members);
            assert_eq!(p.view.len(), 4);
            p
        }

        fn coordinator(&self) -> EndpointAddr {
            self.view.members()[0]
        }

        fn vc(&self) -> u64 {
            self.view.id().counter
        }

        fn body(&mut self) -> Bytes {
            self.bodies += 1;
            Bytes::from(self.bodies.to_le_bytes().to_vec())
        }

        /// A frame as a peer's MBRSHIP would have stamped it.
        fn frame(&self, kind: u64, epoch: u16, seq: u32, body: Bytes) -> WireFrame {
            let mut msg = self.stack.new_message(body);
            msg.push_header(0);
            for (field, val) in [kind, epoch as u64, self.vc(), seq as u64].into_iter().enumerate()
            {
                msg.set_field(0, field, val);
            }
            WireFrame::build(self.stack.fingerprint(), msg.header_area(), msg.body().clone())
        }

        /// A frame's message with MBRSHIP's header opened.
        fn open(&self, wire: &WireFrame) -> Message {
            let mut msg = Message::decode_parts(
                self.stack.layout().clone(),
                &wire.head()[8..],
                wire.body().clone(),
            )
            .expect("a frame of this stack");
            msg.pop_header(0).expect("stamped by MBRSHIP");
            msg
        }

        /// Feeds one input and books everything the layer does in return,
        /// looping its own control traffic back to it.
        fn feed(&mut self, input: StackInput) {
            let mut todo = VecDeque::from(self.stack.handle(input));
            while let Some(fx) = todo.pop_front() {
                match fx {
                    Effect::Deliver(Up::Cast { src, msg }) => {
                        let logged = msg.encode_inner();
                        // A recovered cast no longer carries its header (in
                        // aligned mode): it is the one the peer cast as this.
                        let seq = if msg.meta.flush_recovered() {
                            let casts = &self.cast_by[&src];
                            casts.iter().position(|cast| *cast == logged).expect("a cast of src")
                                + 1
                        } else {
                            msg.field(0, 3) as usize
                        } as u32;
                        assert!(seq > self.recv.get(&src).copied().unwrap_or(0));
                        self.recv.insert(src, seq);
                        self.log.insert((src, seq), logged);
                    }
                    Effect::Deliver(Up::View(view)) => {
                        self.view = view;
                        self.epoch = 0;
                        self.log.clear();
                        self.recv.clear();
                        self.my_seq = 0;
                        self.channel.clear();
                        self.cast_by.clear();
                        self.round = None;
                    }
                    Effect::NetCast { wire } => {
                        let msg = self.open(&wire);
                        match msg.field(0, 0) {
                            KIND_DATA => {
                                self.my_seq += 1;
                                assert_eq!(msg.field(0, 3), self.my_seq as u64);
                                let unstamped = self.stack.new_message(msg.body().clone());
                                self.log.insert((self.me, self.my_seq), unstamped.encode_inner());
                                self.channel.entry(self.me).or_default().push_back(wire);
                            }
                            kind => {
                                if kind == KIND_FLUSH {
                                    self.epoch = msg.field(0, 1) as u16;
                                    self.begin_round(msg.body());
                                }
                                if kind == KIND_SYNC {
                                    self.check_sync(msg.body());
                                }
                                todo.extend(self.stack.handle(StackInput::FromNet {
                                    from: self.me,
                                    cast: true,
                                    wire,
                                }));
                            }
                        }
                    }
                    Effect::NetSend { dests, wire } => {
                        let msg = self.open(&wire);
                        if msg.field(0, 0) == KIND_CONTRIB {
                            self.check_contrib(msg.body());
                        }
                        if dests == [self.me] {
                            todo.extend(self.stack.handle(StackInput::FromNet {
                                from: self.me,
                                cast: false,
                                wire,
                            }));
                        }
                    }
                    _ => {}
                }
            }
        }

        fn deliver(&mut self, from: EndpointAddr, cast: bool, wire: WireFrame) {
            self.feed(StackInput::FromNet { from, cast, wire });
        }

        /// Hands `me` everything still on its way from `from`.
        fn drain(&mut self, from: EndpointAddr) {
            while let Some(wire) = self.channel.get_mut(&from).and_then(VecDeque::pop_front) {
                self.deliver(from, true, wire);
            }
        }

        fn install(&mut self, members: Vec<EndpointAddr>) {
            let excluded: Vec<_> =
                self.view.members().iter().copied().filter(|m| !members.contains(m)).collect();
            let id = horus_core::view::ViewId { counter: self.vc() + 1, coordinator: members[0] };
            let epochs = vec![1; members.len()];
            let view = View::from_parts(GroupAddr::new(1), id, members, epochs);
            let mut w = WireWriter::new();
            w.put_view(&view);
            w.put_addrs(&excluded);
            w.put_addrs(&[]);
            let wire = self.frame(KIND_VIEW, self.epoch, 0, w.finish());
            self.deliver(view.members()[0], true, wire);
        }

        fn peer_casts(&mut self, peer: EndpointAddr) {
            let body = self.body();
            let seq = self.cast_by.get(&peer).map_or(0, Vec::len) as u32 + 1;
            let wire = self.frame(KIND_DATA, 0, seq, body);
            let logged = self.open(&wire).encode_inner();
            self.cast_by.entry(peer).or_default().push(logged);
            self.channel.entry(peer).or_default().push_back(wire);
        }

        fn begin_round(&mut self, flush_body: &[u8]) {
            let failed = WireReader::new(flush_body).get_addrs().expect("failed list");
            self.round = Some(Round {
                failed: failed.into_iter().collect(),
                synced: false,
                contribs: BTreeMap::new(),
                collected: BTreeMap::new(),
            });
        }

        /// Starts a flush round that declares `failed` failed.
        fn flush(&mut self, failed: &BTreeSet<EndpointAddr>) {
            let failed: Vec<_> = failed.iter().copied().collect();
            if self.coordinator() == self.me {
                self.feed(StackInput::FromApp(Down::Flush { failed }));
            } else {
                let coordinator = self.coordinator();
                self.drain(coordinator);
                self.epoch += 1;
                let body =
                    Mbrship::flush_body(&failed.iter().copied().collect(), &BTreeSet::new(), &[]);
                self.begin_round(&body);
                let wire = self.frame(KIND_FLUSH, self.epoch, 0, body);
                self.deliver(coordinator, true, wire);
            }
        }

        /// The CONTRIB the B-tree log serializes to.
        fn check_contrib(&mut self, got: &[u8]) {
            let round = self.round.as_mut().expect("a round is on");
            let mut vector = BTreeMap::new();
            let mut w = WireWriter::new();
            w.put_u32(self.view.len() as u32);
            for &m in self.view.members() {
                let mut acked = self.recv.get(&m).copied().unwrap_or(0);
                if m == self.me {
                    acked = acked.max(self.my_seq);
                }
                w.put_addr(m);
                w.put_u32(acked);
                vector.insert(m, acked);
            }
            let msgs: Vec<_> =
                self.log.iter().filter(|((origin, _), _)| round.failed.contains(origin)).collect();
            w.put_u32(msgs.len() as u32);
            for (&(origin, seq), inner) in msgs {
                w.put_addr(origin);
                w.put_u32(seq);
                w.put_bytes(inner);
                round.collected.insert((origin, seq), inner.clone());
            }
            assert_eq!(got, &w.finish()[..], "CONTRIB of {}", self.me);
            round.contribs.insert(self.me, vector);
            self.contribs_checked += 1;
        }

        /// A surviving peer's CONTRIB: it has everything the survivors
        /// cast, and the first `got` casts of each failed member.
        fn peer_contributes(&mut self, peer: EndpointAddr, got: u8) {
            let round = self.round.as_mut().expect("a round is on");
            let mut vector = BTreeMap::new();
            let mut msgs = Vec::new();
            for &m in self.view.members() {
                let cast = self.cast_by.get(&m).map_or(0, Vec::len);
                let acked = if m == self.me {
                    self.my_seq as usize
                } else if round.failed.contains(&m) {
                    let acked = got as usize % (cast + 1);
                    msgs.extend(
                        (1..=acked).map(|seq| (m, seq as u32, self.cast_by[&m][seq - 1].clone())),
                    );
                    acked
                } else {
                    cast
                };
                vector.insert(m, acked as u32);
            }
            let mut w = WireWriter::new();
            w.put_u32(vector.len() as u32);
            for (&m, &acked) in &vector {
                w.put_addr(m);
                w.put_u32(acked);
            }
            w.put_u32(msgs.len() as u32);
            for (origin, seq, inner) in msgs {
                w.put_addr(origin);
                w.put_u32(seq);
                w.put_bytes(&inner);
                round.collected.insert((origin, seq), inner);
            }
            round.contribs.insert(peer, vector);
            let wire = self.frame(KIND_CONTRIB, self.epoch, 0, w.finish());
            self.deliver(peer, false, wire);
        }

        fn cuts(round: &Round) -> BTreeMap<EndpointAddr, u32> {
            let mut cuts = BTreeMap::new();
            for vector in round.contribs.values() {
                for (&m, &acked) in vector {
                    let cut = cuts.entry(m).or_insert(0);
                    *cut = acked.max(*cut);
                }
            }
            cuts
        }

        /// The SYNC the contributions handed to `me` add up to.
        fn check_sync(&mut self, got: &[u8]) {
            let round = self.round.as_mut().expect("a round is on");
            let retrans: Vec<_> =
                round.collected.iter().map(|(&(o, s), inner)| (o, s, inner.clone())).collect();
            assert_eq!(got, &Mbrship::sync_body(&Self::cuts(round), &retrans)[..]);
            round.synced = true;
        }

        /// Brings the round to its SYNC: as coordinator by collecting the
        /// survivors' contributions, as member by being sent one.
        fn sync(&mut self, got: u8) {
            let survivors: Vec<_> = {
                let round = self.round.as_ref().expect("a round is on");
                self.view.members().iter().copied().filter(|m| !round.failed.contains(m)).collect()
            };
            if self.coordinator() == self.me {
                for (i, &peer) in survivors.iter().enumerate() {
                    if peer != self.me {
                        self.peer_contributes(peer, got.rotate_left(i as u32));
                    }
                }
                assert!(
                    self.round.as_ref().is_some_and(|r| r.synced),
                    "SYNC follows the last CONTRIB"
                );
            } else {
                let round = self.round.as_mut().expect("a round is on");
                let mut cuts = BTreeMap::new();
                let mut retrans = Vec::new();
                for &m in self.view.members() {
                    let cast = self.cast_by.get(&m).map_or(0, Vec::len);
                    let cut = if m == self.me {
                        self.my_seq as usize
                    } else if round.failed.contains(&m) {
                        let have = self.recv.get(&m).copied().unwrap_or(0) as usize;
                        let cut = have + got as usize % (cast - have + 1);
                        retrans.extend(
                            (1..=cut).map(|seq| (m, seq as u32, self.cast_by[&m][seq - 1].clone())),
                        );
                        cut
                    } else {
                        cast
                    };
                    cuts.insert(m, cut as u32);
                }
                round.synced = true;
                let wire =
                    self.frame(KIND_SYNC, self.epoch, 0, Mbrship::sync_body(&cuts, &retrans));
                let coordinator = self.coordinator();
                self.deliver(coordinator, true, wire);
            }
        }

        /// Ends the round with the survivors' view.
        fn close(&mut self) {
            let round = self.round.as_ref().expect("a round is on");
            let survivors: Vec<_> =
                self.view.members().iter().copied().filter(|m| !round.failed.contains(m)).collect();
            // The reliable layer beneath completes the survivors' streams.
            for &peer in &survivors {
                self.drain(peer);
            }
            if self.round.is_none() {
                return; // our own FLUSH_OK was the last one outstanding
            }
            if self.coordinator() == self.me {
                let me = self.me;
                for &peer in survivors.iter().filter(|&&p| p != me) {
                    let wire = self.frame(KIND_FLUSH_OK, self.epoch, 0, Bytes::new());
                    self.deliver(peer, false, wire);
                }
            } else {
                self.install(survivors.clone());
            }
            assert_eq!(self.view.members(), &survivors[..], "the survivors' view is installed");
        }

        fn finish_round(&mut self) {
            if self.round.as_ref().is_some_and(|round| !round.synced) {
                self.sync(0xA5);
            }
            if self.round.is_some() {
                self.close();
            }
        }

        fn step(&mut self, action: u8, arg: u8) {
            let members = self.view.members().to_vec();
            let pick = |from: &[EndpointAddr]| from[arg as usize % from.len()];
            match action % 32 {
                0..=9 if self.round.is_none() => {
                    let peer = pick(&members);
                    if peer != self.me {
                        self.peer_casts(peer);
                    }
                }
                10..=15 => {
                    let body = self.body();
                    let msg = self.stack.new_message(body);
                    self.feed(StackInput::FromApp(Down::Cast(msg)));
                }
                0..=27 => {
                    let busy: Vec<_> = self
                        .channel
                        .iter()
                        .filter(|(_, frames)| !frames.is_empty())
                        .map(|(&from, _)| from)
                        .collect();
                    if !busy.is_empty() {
                        let from = pick(&busy);
                        let wire = self.channel.get_mut(&from).and_then(VecDeque::pop_front);
                        self.deliver(from, true, wire.expect("busy"));
                    }
                }
                _ => match &self.round {
                    Some(round) if !round.synced => self.sync(arg),
                    Some(_) if action.is_multiple_of(2) => self.close(),
                    // Everybody else is gone: start over with a full view.
                    None if members.len() <= 2 => self.install((1..=4).map(ep).collect()),
                    // A first round, or a restart of the one that is on:
                    // the members the coordinator has given up on so far,
                    // and whoever of the rest `arg` picks.
                    _ => {
                        let mut failed =
                            self.round.as_ref().map(|r| r.failed.clone()).unwrap_or_default();
                        failed.extend(
                            members
                                .iter()
                                .enumerate()
                                .filter(|&(i, &m)| {
                                    arg >> i & 1 == 1 && m != self.me && m != members[0]
                                })
                                .map(|(_, &m)| m),
                        );
                        self.flush(&failed);
                    }
                },
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Casts interleaved with flush rounds — rounds that restart, failed
        /// members with logged casts, recovery through SYNC, as coordinator
        /// and as plain member, compact and aligned headers: every CONTRIB
        /// and SYNC body is what the B-tree log of encodings would have
        /// produced.
        #[test]
        fn queue_log_contributes_what_the_btree_log_did(
            coordinator in proptest::prelude::any::<bool>(),
            aligned in proptest::prelude::any::<bool>(),
            script in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), proptest::prelude::any::<u8>()), 0..400),
        ) {
            let mode = if aligned { HeaderMode::Aligned } else { HeaderMode::Compact };
            let mut probe = Probe::new(if coordinator { ep(1) } else { ep(2) }, mode);
            for (action, arg) in script {
                probe.step(action, arg);
            }
            // Finish the round the script left open, then one last round
            // over whatever is logged.
            probe.finish_round();
            if probe.view.len() > 2 {
                let last = *probe.view.members().last().unwrap();
                probe.flush(&BTreeSet::from([last]));
                probe.finish_round();
                proptest::prop_assert!(probe.contribs_checked > 0);
            }
        }
    }
}
