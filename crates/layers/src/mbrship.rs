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
//!    multicasts a `SYNC` carrying every failed-sender message some
//!    survivor might lack.  Sequence numbers are per view and a merge
//!    spans several, so the SYNC has one section per *epoch community*:
//!    its view id, then the cuts and retransmissions numbered in it.
//! 4. Each participant reads its own view's section: it delivers the
//!    retransmitted messages it misses, waits — still delivering — until
//!    its receive vector reaches the cut (the reliable FIFO layer below
//!    supplies survivors' in-flight messages), and unicasts `FLUSH_OK`.
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
//! the current view is logged until every member has it (below) or the
//! next view is installed.  The log is one queue per origin
//! (`UnstableLog`): sequence numbers are per-origin and only ever logged
//! in increasing order, so an entry is appended, never searched for —
//! except the sender's own loopback copy, which replaces the entry made
//! at send time.  An entry is not an encoding but an [`InnerImage`]: the
//! header area (inline) and the body by reference count.  The message is
//! serialized only if a flush has to contribute it, which is also the
//! only place the log copies a payload (and counts the copy).
//!
//! Only *unstable* messages need the log, so it is trimmed at the
//! **stability frontier**.  Whenever a member logs message `k` of some
//! origin with `k` a multiple of `STABILITY_EVERY` (1 024) — at send time
//! for its own casts, at delivery for everyone else's — it casts a
//! **stability report** in the normal phase: its view id and the
//! cumulative receive vector its flush contribution would carry.  A
//! member keeps the last report of each view member, its own included,
//! and drains every origin's queue up to the minimum, over the view, of
//! the reported counts for that origin.  A trimmed entry is one every
//! member of the view has received, so no survivor would accept it from
//! a SYNC (`handle_sync` delivers only `seq > recv[origin]`): trimming
//! shrinks contributions and SYNCs but changes neither the cut nor what
//! anyone delivers.  While every member keeps casting or delivering, a
//! queue holds about 2 × `STABILITY_EVERY` entries plus what is in
//! flight; a member that goes silent freezes the frontier until the flush
//! that excludes it, and the queues grow meanwhile as they did before the
//! trim.  A view with fewer than `STABILITY_EVERY` casts per origin sends
//! no report at all.
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
//! ## Views on the wire
//!
//! A header carries its sender's view counter in 32 bits, and `place`
//! alone reads it: *ahead* (above ours), *ours* (equal, from a member) or
//! *stale*.  Data and subset sends that are ahead wait, and each install
//! places them again, data by sender and sequence before sends in arrival
//! order.  Two partitions can reach one counter; telling their messages
//! apart takes a wider field, written in `write_header`, read in `place`.
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
use std::cmp::Ordering;
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
/// A stability report: the sender's view id and receive vector.
const KIND_STABLE: u64 = 11;

/// A member casts a stability report each time it logs a message whose
/// per-view sequence number is a multiple of this.  It trades the log's
/// bound (about twice this many entries per origin) against report
/// traffic (one report per member per this many casts of each origin).
const STABILITY_EVERY: u32 = 1024;

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

impl MbrshipConfig {
    /// Whether moving from view `old` to `new` loses the majority of `old`
    /// in primary-partition mode (a singleton has no majority to lose).
    fn loses_majority(&self, old: &View, new: &View) -> bool {
        self.primary_partition
            && old.len() > 1
            && old.members().iter().filter(|m| new.contains(**m)).count() * 2 <= old.len()
    }
}

/// Where a message stands against our view.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Placed {
    /// Sent in an older view, or by someone outside ours: dropped.
    Stale,
    /// Sent in our view by one of its members.
    Ours,
    /// Sent in a view we have not installed yet.
    Ahead,
}

/// A flush round's cut, by the epoch community that numbered the count
/// and the member: no count can be looked up by a bare address.
type Cuts = BTreeMap<(ViewId, EndpointAddr), u32>;

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
    /// Coordinator: failed-sender messages gathered from contributions,
    /// by the community of the contributor that logged them.
    collected: BTreeMap<(ViewId, EndpointAddr, u32), Bytes>,
    /// Coordinator: FLUSH_OKs received.
    flush_oks: BTreeSet<EndpointAddr>,
    sync_sent: bool,
    /// The cut, per community; a member reaches its own view's before
    /// FLUSH_OK.
    cuts: Option<Cuts>,
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

    /// The epoch community `m` counts in, which keys its flush counts: the
    /// last joiner view other than `own` that lists `m`, else `own` if it
    /// does.  A member still listed in `own` that moved on to a foreign
    /// joiner view (asymmetric partition) numbers its messages there;
    /// mixing those counts with ours makes a cut nobody can reach (a flush
    /// wedge the chaos soak caught) and delivers its messages as ours.
    fn community(&self, own: &View, m: EndpointAddr) -> Option<ViewId> {
        match self.joiner_views.iter().rev().find(|jv| jv.id() != own.id() && jv.contains(m)) {
            Some(jv) => Some(jv.id()),
            None => own.contains(m).then(|| own.id()),
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

    /// Drops every entry at or below `frontier(origin)`.  A queue keeps its
    /// capacity, so a trimmed log refills without allocating.
    fn trim(&mut self, frontier: impl Fn(EndpointAddr) -> u32) {
        for (&origin, queue) in &mut self.by_origin {
            let stable = frontier(origin);
            let k = queue.partition_point(|&(seq, _)| seq <= stable);
            queue.drain(..k);
        }
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
    /// Per member of the current view, the receive vector of its last
    /// stability report: what decides the log's trim frontier.  Left
    /// out of `dump_to`, like the log itself — it only decides which log
    /// entries exist, and a trimmed entry is one no SYNC delivery needs.
    heard: BTreeMap<EndpointAddr, BTreeMap<EndpointAddr, u32>>,
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
            heard: BTreeMap::new(),
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
        }
    }

    fn me(&self) -> EndpointAddr {
        self.me.expect("layer initialised")
    }

    /// Our view's counter as the header's 32-bit `vc` field carries it (0
    /// before the first view): the one place the counter is truncated.
    fn vc(&self) -> u32 {
        self.view.as_ref().map_or(0, |v| v.id().counter as u32)
    }

    /// Places a message that `src` stamped with view counter `vc` against
    /// our view (module doc, "Views on the wire").
    fn place(&self, src: EndpointAddr, vc: u32) -> Placed {
        match vc.cmp(&self.vc()) {
            Ordering::Greater => Placed::Ahead,
            Ordering::Equal if self.view.as_ref().is_some_and(|v| v.contains(src)) => Placed::Ours,
            _ => Placed::Stale,
        }
    }

    // ------------------------------------------------------------------
    // Message construction helpers
    // ------------------------------------------------------------------

    /// Stamps our header on `msg`: its kind, the flush epoch, our view's
    /// counter and the sequence number (0 but on data).
    fn write_header(&self, ctx: &LayerCtx<'_>, msg: &mut Message, kind: u64, epoch: u16, seq: u32) {
        ctx.stamp(msg);
        ctx.set(msg, 0, kind);
        ctx.set(msg, 1, epoch.into());
        ctx.set(msg, 2, self.vc().into());
        ctx.set(msg, 3, seq.into());
    }

    fn control(&self, ctx: &mut LayerCtx<'_>, kind: u64, epoch: u16, body: Bytes) -> Message {
        let mut m = ctx.new_message(body);
        self.write_header(ctx, &mut m, kind, epoch, 0);
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
        self.write_header(ctx, &mut msg, KIND_DATA, 0, seq);
        ctx.down(Down::Cast(msg));
        self.maybe_report(seq, ctx);
    }

    /// Writes our cumulative receive vector — one `(member, count)` per
    /// view member, our own casts counted as received even while their
    /// loopback copies are in flight — as flush contributions and
    /// stability reports carry it.
    fn put_recv_vector(&self, view: &View, w: &mut WireWriter) {
        w.put_u32(view.len() as u32);
        for &m in view.members() {
            let mut acked = self.recv.get(&m).copied().unwrap_or(0);
            if m == self.me() {
                acked = acked.max(self.my_seq);
            }
            w.put_addr(m);
            w.put_u32(acked);
        }
    }

    /// Reads what [`Mbrship::put_recv_vector`] wrote.
    fn get_recv_vector(r: &mut WireReader<'_>) -> Option<BTreeMap<EndpointAddr, u32>> {
        let n = r.get_u32().ok()?;
        let mut vector = BTreeMap::new();
        for _ in 0..n {
            vector.insert(r.get_addr().ok()?, r.get_u32().ok()?);
        }
        Some(vector)
    }

    /// Casts a stability report if message `seq` of some origin, just
    /// logged, is a report point (module doc, "The unstable-message log").
    fn maybe_report(&self, seq: u32, ctx: &mut LayerCtx<'_>) {
        let (Phase::Normal, Some(view)) = (&self.phase, &self.view) else { return };
        if !seq.is_multiple_of(STABILITY_EVERY) {
            return;
        }
        let mut w = WireWriter::with_capacity(24 + 12 * view.len());
        w.put_u64(view.id().counter);
        w.put_addr(view.id().coordinator);
        self.put_recv_vector(view, &mut w);
        self.control_cast(ctx, KIND_STABLE, 0, w.finish());
    }

    /// Records `src`'s stability report (our own included, through the
    /// loopback) and trims the log at the new frontier.  A report counts
    /// only in the normal phase and only if it names our very view: two
    /// partitions can both reach the same view counter, and their sequence
    /// numbers mean different messages.
    fn handle_stable(&mut self, src: EndpointAddr, body: &[u8]) {
        let (Phase::Normal, Some(view)) = (&self.phase, &self.view) else { return };
        let mut r = WireReader::new(body);
        let (Ok(counter), Ok(coordinator)) = (r.get_u64(), r.get_addr()) else { return };
        if !view.contains(src) || view.id() != (ViewId { counter, coordinator }) {
            return;
        }
        let Some(vector) = Self::get_recv_vector(&mut r) else { return };
        self.heard.insert(src, vector);
        let heard = &self.heard;
        self.log.trim(|origin| {
            let reported = |m| heard.get(m).and_then(|v| v.get(&origin)).copied().unwrap_or(0);
            view.members().iter().map(reported).min().unwrap_or(0)
        });
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
        self.heard.clear();
        self.suspects.clear();
        self.leave_reqs.clear();
        self.pending_joiners.retain(|jv| !jv.members().iter().all(|m| v.contains(*m)));
        self.cur_epoch = 0;
        self.last_progress = ctx.now();
        self.views_installed += 1;
        self.view = Some(v.clone());
        ctx.down(Down::InstallView(v.clone()));
        ctx.up(Up::View(v.clone()));
        // Place what raced ahead of this installation again: data by
        // sender and sequence, then subset sends in arrival order.
        for ((vc, src, seq), msg) in std::mem::take(&mut self.future) {
            match self.place(src, vc) {
                Placed::Ours => self.handle_data(src, vc, seq, msg, ctx),
                Placed::Ahead => {
                    self.future.insert((vc, src, seq), msg);
                }
                Placed::Stale => {}
            }
        }
        for (vc, src, msg) in std::mem::take(&mut self.future_sends) {
            self.handle_send(src, vc, msg, ctx);
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
            if self.view.as_ref().is_some_and(|old| self.cfg.loses_majority(old, &v_new)) {
                self.block(ctx);
                return;
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
            self.exit(ctx);
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

    /// Leaves the group for good.
    fn exit(&mut self, ctx: &mut LayerCtx<'_>) {
        self.phase = Phase::Exited;
        ctx.down(Down::Leave);
        ctx.up(Up::Exit);
    }

    /// Asks the view's coordinator to let us leave: as the coordinator we
    /// flush our own leave, anyone else sends it a LEAVE_REQ.  With nobody
    /// to ask, the view being ours alone, we exit at once.
    fn leave(&mut self, ctx: &mut LayerCtx<'_>) {
        let me = self.me();
        let Some(view) = self.view.as_ref().filter(|v| v.len() > 1) else {
            return self.exit(ctx);
        };
        let coordinator = view.coordinator_among(view.members()).expect("non-empty view");
        if coordinator == me {
            self.leave_reqs.insert(me);
            self.start_flush(ctx);
        } else {
            self.control_send(ctx, coordinator, KIND_LEAVE_REQ, 0, Bytes::new());
        }
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
        if matches!(self.phase, Phase::Blocked | Phase::Exited | Phase::Idle) {
            return;
        }
        match self.place(src, vc) {
            Placed::Ours => {}
            Placed::Ahead => {
                // Sent in a view we have yet to install: held until we do.
                self.future.insert((vc, src, seq), msg);
                return;
            }
            Placed::Stale => return,
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
            return; // duplicate (e.g. already recovered through a flush)
        }
        *cum = seq;
        self.log.put(src, seq, msg.inner_image());
        self.delivered += 1;
        ctx.up(Up::Cast { src, msg });
        self.maybe_flush_ok(ctx);
        // Our own casts were reported when they were sent.
        if src != self.me() {
            self.maybe_report(seq, ctx);
        }
    }

    /// Subset sends honour view boundaries like casts, but carry no
    /// sequence and are not flushed.
    fn handle_send(&mut self, src: EndpointAddr, vc: u32, msg: Message, ctx: &mut LayerCtx<'_>) {
        match self.place(src, vc) {
            Placed::Ours => ctx.up(Up::Send { src, msg }),
            // Unicasts can beat the VIEW cast: held until we install it.
            Placed::Ahead => self.future_sends.push((vc, src, msg)),
            Placed::Stale => {}
        }
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

    /// A SYNC body: one section per epoch community, each its view id
    /// (written as a stability report writes it), then the cuts and the
    /// retransmissions numbered in that view.
    fn sync_body(cuts: &Cuts, collected: &BTreeMap<(ViewId, EndpointAddr, u32), Bytes>) -> Bytes {
        let mut ids: Vec<ViewId> =
            cuts.keys().map(|k| k.0).chain(collected.keys().map(|k| k.0)).collect();
        ids.sort();
        ids.dedup();
        let size = collected.values().map(|b| 16 + b.len()).sum::<usize>();
        let mut w = WireWriter::with_capacity(4 + 24 * ids.len() + 12 * cuts.len() + size);
        w.put_u32(ids.len() as u32);
        for id in ids {
            let cuts: Vec<_> = cuts.iter().filter(|(k, _)| k.0 == id).collect();
            let retrans: Vec<_> = collected.iter().filter(|(k, _)| k.0 == id).collect();
            w.put_u64(id.counter);
            w.put_addr(id.coordinator);
            w.put_u32(cuts.len() as u32);
            for (&(_, m), &cut) in cuts {
                w.put_addr(m);
                w.put_u32(cut);
            }
            w.put_u32(retrans.len() as u32);
            for (&(_, origin, seq), inner) in retrans {
                w.put_addr(origin);
                w.put_u32(seq);
                w.put_bytes(inner);
            }
        }
        w.finish()
    }

    /// Reads a SYNC body whole (a malformed one is dropped): the cuts of
    /// every section, and the retransmissions of the section numbered in
    /// `own`, the only ones we may deliver.
    #[allow(clippy::type_complexity)]
    fn read_sync(body: &[u8], own: ViewId) -> Option<(Cuts, Vec<(EndpointAddr, u32, &[u8])>)> {
        let mut r = WireReader::new(body);
        let (mut cuts, mut retrans) = (BTreeMap::new(), Vec::new());
        for _ in 0..r.get_u32().ok()? {
            let id = ViewId { counter: r.get_u64().ok()?, coordinator: r.get_addr().ok()? };
            for _ in 0..r.get_u32().ok()? {
                cuts.insert((id, r.get_addr().ok()?), r.get_u32().ok()?);
            }
            for _ in 0..r.get_u32().ok()? {
                let entry = (r.get_addr().ok()?, r.get_u32().ok()?, r.get_bytes().ok()?);
                if id == own {
                    retrans.push(entry);
                }
            }
        }
        Some((cuts, retrans))
    }

    /// The coordinator re-broadcasts FLUSH (and SYNC) while waiting: the
    /// reliable-FIFO layer prunes casts once the *view* members ack them,
    /// so merge joiners outside the view can miss the originals for good.
    fn rebroadcast_round(&mut self, ctx: &mut LayerCtx<'_>) {
        let Phase::Flushing(round) = &self.phase else { return };
        let body = Self::flush_body(&round.failed, &round.leaving, &round.joiner_views);
        let epoch = round.epoch;
        let sync = match &round.cuts {
            Some(cuts) if round.sync_sent => Some(Self::sync_body(cuts, &round.collected)),
            _ => None,
        };
        self.control_cast(ctx, KIND_FLUSH, epoch, body);
        if let Some(sync) = sync {
            self.control_cast(ctx, KIND_SYNC, epoch, sync);
        }
    }

    /// The flush coordinator of `view` once `excluded` are gone: the most
    /// senior other member, elected without any message exchange.
    fn elect(view: &View, excluded: &BTreeSet<EndpointAddr>) -> Option<EndpointAddr> {
        let candidates: Vec<EndpointAddr> =
            view.members().iter().copied().filter(|m| !excluded.contains(m)).collect();
        view.coordinator_among(&candidates)
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
        let Some(coordinator) = Self::elect(view, &failed) else { return };
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
        // Not pre-sized: the count is whatever the wire says.
        let Ok(joiner_views) = (0..n_joiners).map(|_| r.get_view()).collect::<Result<Vec<_>, _>>()
        else {
            return;
        };
        let me = self.me();
        let Some(view) = &self.view else { return };
        let failed: BTreeSet<EndpointAddr> = failed_list.into_iter().collect();
        let leaving: BTreeSet<EndpointAddr> = leaving_list.into_iter().collect();

        // Which side of the flush are we on?
        let in_main = self.place(src, vc) == Placed::Ours;
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
            if Self::elect(view, &failed) != Some(src) {
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
        let Phase::Flushing(round) = &self.phase else { return };
        let Some(view) = &self.view else { return };
        let mut w = WireWriter::with_capacity(8 + 12 * view.len());
        self.put_recv_vector(view, &mut w);
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

    /// The flush round of `epoch`, if one is running and we coordinate it.
    fn coordinating(phase: &mut Phase, me: EndpointAddr, epoch: u16) -> Option<&mut FlushRound> {
        match phase {
            Phase::Flushing(round) if round.coordinator == me && round.epoch == epoch => {
                Some(round)
            }
            _ => None,
        }
    }

    fn handle_contrib(
        &mut self,
        src: EndpointAddr,
        epoch: u16,
        body: &[u8],
        ctx: &mut LayerCtx<'_>,
    ) {
        let me = self.me();
        let Some(round) = Self::coordinating(&mut self.phase, me, epoch) else { return };
        let mut r = WireReader::new(body);
        let Some(vector) = Self::get_recv_vector(&mut r) else { return };
        let Ok(n_msgs) = r.get_u32() else { return };
        // The contributor's log is numbered in its own view.
        let community = self.view.as_ref().and_then(|view| round.community(view, src));
        for _ in 0..n_msgs {
            let (Ok(origin), Ok(seq)) = (r.get_addr(), r.get_u32()) else { return };
            let Ok(inner) = r.get_bytes() else { return };
            if let Some(c) = community {
                round.collected.insert((c, origin, seq), Bytes::copy_from_slice(inner));
            }
        }
        // A re-delivered duplicate is not progress; letting it reset
        // the stall clock would postpone wedge recovery forever under
        // a steady drizzle of retransmissions.
        if round.contribs.insert(src, vector.clone()) == Some(vector) {
            return;
        }
        self.last_progress = ctx.now();
        if round.sync_sent {
            return;
        }
        let Some(view) = &self.view else { return };
        let participants = Self::round_participants(view, round, &self.suspects);
        if !participants.iter().all(|p| round.contribs.contains_key(p)) {
            return;
        }
        // Every contribution is in.  The cut: per member, the highest
        // message any contributor of its epoch community holds.
        // Retransmissions: everything the contributions supplied from
        // failed senders, up to their cut.
        let mut cuts = BTreeMap::new();
        for (&c, vector) in &round.contribs {
            let Some(community) = round.community(view, c) else { continue };
            for (&m, &acked) in vector {
                if round.community(view, m) == Some(community) {
                    let cut = cuts.entry((community, m)).or_insert(0);
                    *cut = acked.max(*cut);
                }
            }
        }
        round.sync_sent = true;
        let body = Self::sync_body(&cuts, &round.collected);
        round.cuts = Some(cuts);
        self.control_cast(ctx, KIND_SYNC, epoch, body);
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

    fn handle_sync(&mut self, src: EndpointAddr, epoch: u16, body: &[u8], ctx: &mut LayerCtx<'_>) {
        let Some(view) = &self.view else { return };
        let Some((cuts, mut retrans)) = Self::read_sync(body, view.id()) else { return };
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
            if !view.contains(origin) {
                continue; // not a member of ours, whatever the section says
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
            // A member that follows a foreign joiner view counts in that
            // view's section, so ours holds no cut for it.
            let complete = view.members().iter().all(|&m| {
                let have = self.recv.get(&m).copied().unwrap_or(0);
                have >= cuts.get(&(view.id(), m)).copied().unwrap_or(0)
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
        let Some(round) = Self::coordinating(&mut self.phase, me, epoch) else { return };
        round.flush_oks.insert(src);
        self.last_progress = ctx.now();
        ctx.up(Up::FlushOk { from: src });
        if !round.sync_sent {
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
            self.exit(ctx);
            return;
        }
        let mut v_new = view.successor(me, &removed, &[]);
        for jv in joiner_views {
            v_new = v_new.merged(jv, me);
        }
        if self.cfg.loses_majority(view, &v_new) {
            self.block(ctx);
            return;
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

    /// Handles a SUSPECT report placed in our view.  Suspicion is
    /// view-relative: a report from another view (one that crossed a
    /// partition and arrived, reliably but late, after the merge) must not
    /// poison the current view.
    fn handle_suspect_report(&mut self, body: &[u8], ctx: &mut LayerCtx<'_>) {
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
                    let awaited = Self::elect(view, &self.suspects).unwrap_or(round.coordinator);
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
            Action::RetryLeave => self.leave(ctx),
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
                self.write_header(ctx, &mut msg, KIND_USEND, 0, 0);
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
                self.leaving_self = true;
                if matches!(self.phase, Phase::Normal | Phase::Flushing(_)) {
                    self.leave(ctx);
                } else {
                    self.exit(ctx);
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
                    KIND_SUSPECT if self.place(src, vc) == Placed::Ours => {
                        self.handle_suspect_report(&msg.body().clone(), ctx);
                    }
                    KIND_STABLE => self.handle_stable(src, &msg.body().clone()),
                    KIND_USEND => self.handle_send(src, vc, msg, ctx),
                    KIND_LEAVE_REQ if self.place(src, vc) == Placed::Ours => {
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

    #[test]
    fn a_leave_lost_with_the_coordinator_is_retried_under_its_successor() {
        let mut w = joined_world(3, 11, MbrshipConfig::default(), NetConfig::reliable());
        let t = w.now();
        // ep3's LEAVE_REQ goes to ep1, which is already dead.
        w.crash_at(t + Duration::from_millis(5), ep(1));
        w.down_at(t + Duration::from_millis(6), ep(3), Down::Leave);
        w.run_for(Duration::from_secs(3));
        // The exclusion flush keeps ep3, whose leave is then retried
        // toward ep2 once it has waited a flush timeout in the new view.
        let views: Vec<_> = w.installed_views(ep(2)).iter().map(|v| v.members().to_vec()).collect();
        assert_eq!(views[views.len() - 2..], [vec![ep(2), ep(3)], vec![ep(2)]]);
        assert!(w.upcalls(ep(3)).iter().any(|(_, up)| matches!(up, Up::Exit)));
    }

    #[test]
    fn a_leave_lost_with_the_coordinator_exits_once_the_leaver_is_alone() {
        let mut w = joined_world(2, 12, MbrshipConfig::default(), NetConfig::reliable());
        let t = w.now();
        // ep2's LEAVE_REQ goes to ep1, which is already dead; the exclusion
        // flush leaves ep2 alone, with nobody to ask when it retries.
        w.crash_at(t + Duration::from_millis(5), ep(1));
        w.down_at(t + Duration::from_millis(6), ep(2), Down::Leave);
        w.run_for(Duration::from_secs(5));
        assert_eq!(w.installed_views(ep(2)).last().unwrap().members(), &[ep(2)]);
        assert!(w.upcalls(ep(2)).iter().any(|(_, up)| matches!(up, Up::Exit)));
    }

    // ------------------------------------------------------------------
    // A lone layer and hand-built frames
    // ------------------------------------------------------------------

    /// One MBRSHIP layer at ep:1, joined, whose peers are played by the
    /// test with frames stamped as their MBRSHIP would stamp them.  What it
    /// casts, or sends to itself, loops back to it as the transport would.
    struct Lone {
        stack: Stack,
        /// The kind of every frame it put on the wire, in order.
        sent: Vec<u64>,
        ups: Vec<Up>,
    }

    impl Lone {
        fn new(cfg: MbrshipConfig) -> Self {
            let mut stack =
                StackBuilder::new(ep(1)).push(Box::new(Mbrship::new(cfg))).build().unwrap();
            let _ = stack.init();
            let mut lone = Lone { stack, sent: Vec::new(), ups: Vec::new() };
            lone.feed(StackInput::FromApp(Down::Join { group: GroupAddr::new(1) }));
            lone
        }

        fn feed(&mut self, input: StackInput) {
            let mut todo = VecDeque::from(self.stack.handle(input));
            while let Some(fx) = todo.pop_front() {
                let (wire, cast) = match fx {
                    Effect::Deliver(up) => {
                        self.ups.push(up);
                        continue;
                    }
                    Effect::NetCast { wire } => (wire, true),
                    Effect::NetSend { dests, wire } if dests == [ep(1)] => (wire, false),
                    _ => continue,
                };
                let layout = self.stack.layout().clone();
                let msg = Message::decode_parts(layout, &wire.head()[8..], wire.body().clone())
                    .expect("a frame of this stack");
                self.sent.push(msg.field(0, 0));
                todo.extend(self.stack.handle(StackInput::FromNet { from: ep(1), cast, wire }));
            }
        }

        /// Hands it a frame from `src` with MBRSHIP's header `[kind, epoch,
        /// vc, seq]`.
        fn frame(&mut self, src: u64, header: [u64; 4], body: Bytes) {
            let mut msg = self.stack.new_message(body);
            msg.push_header(0);
            for (field, val) in header.into_iter().enumerate() {
                msg.set_field(0, field, val);
            }
            let wire =
                WireFrame::build(self.stack.fingerprint(), msg.header_area(), msg.body().clone());
            self.feed(StackInput::FromNet { from: ep(src), cast: true, wire });
        }

        /// Hands it the VIEW of `members` numbered `counter`, cast by the
        /// first of them.
        fn view(&mut self, counter: u64, members: &[u64]) {
            let id = ViewId { counter, coordinator: ep(members[0]) };
            let epochs = vec![1; members.len()];
            let members = members.iter().map(|&i| ep(i)).collect();
            let mut w = WireWriter::new();
            w.put_view(&View::from_parts(GroupAddr::new(1), id, members, epochs));
            w.put_addrs(&[]);
            w.put_addrs(&[]);
            self.frame(id.coordinator.raw(), [KIND_VIEW, 0, counter, 0], w.finish());
        }

        /// The sizes of the views it installed, oldest first.
        fn views(&self) -> Vec<usize> {
            self.ups
                .iter()
                .filter_map(|up| if let Up::View(v) = up { Some(v.len()) } else { None })
                .collect()
        }

        fn casts(&self) -> usize {
            self.ups.iter().filter(|up| matches!(up, Up::Cast { .. })).count()
        }

        fn phase(&self) -> String {
            let (_, state) = &self.stack.dump()[0];
            state.split_whitespace().next().unwrap().to_string()
        }
    }

    #[test]
    fn a_subset_send_for_a_later_view_waits_across_an_install() {
        let mut lone = Lone::new(MbrshipConfig::default());
        lone.frame(2, [KIND_USEND, 0, 3, 0], Bytes::from_static(b"v3"));
        lone.frame(2, [KIND_USEND, 0, 2, 0], Bytes::from_static(b"v2"));
        let sends = |lone: &Lone| -> Vec<Bytes> {
            let sends = lone.ups.iter().filter_map(|up| match up {
                Up::Send { src, msg } if *src == ep(2) => Some(msg.body().clone()),
                _ => None,
            });
            sends.collect()
        };
        assert!(sends(&lone).is_empty());
        lone.view(2, &[1, 2]);
        assert_eq!(sends(&lone), [&b"v2"[..]]);
        lone.view(3, &[1, 2]);
        assert_eq!(sends(&lone), [&b"v2"[..], &b"v3"[..]]);
        assert_eq!(lone.stack.pending_work(), 0);
    }

    #[test]
    fn a_member_blocks_on_a_view_that_loses_the_majority_and_drops_data() {
        let cfg = MbrshipConfig { primary_partition: true, ..MbrshipConfig::default() };
        let mut kept = Lone::new(cfg.clone());
        kept.view(2, &[1, 2, 3, 4]);
        kept.view(3, &[1, 2, 3]);
        assert_eq!(kept.views(), [1, 4, 3]);
        let mut lone = Lone::new(cfg);
        lone.view(2, &[1, 2, 3, 4]);
        lone.view(3, &[1, 2]);
        assert_eq!(lone.views(), [1, 4], "half the old view is no majority");
        assert_eq!(lone.phase(), "phase=blocked");
        assert!(lone.ups.iter().any(
            |up| matches!(up, Up::SystemError { reason } if reason.contains("primary partition"))
        ));
        // A cast of the view it still holds is not delivered while blocked.
        lone.frame(2, [KIND_DATA, 0, 2, 1], Bytes::from_static(b"data"));
        assert_eq!(lone.casts(), 0);
    }

    #[test]
    fn a_singleton_leaves_at_once_and_then_delivers_nothing() {
        let mut lone = Lone::new(MbrshipConfig::default());
        lone.feed(StackInput::FromApp(Down::Leave));
        assert!(matches!(lone.ups.last(), Some(Up::Exit)));
        assert_eq!(lone.phase(), "phase=exited");
        // Its own cast of its last view, arriving late, is not delivered.
        lone.frame(1, [KIND_DATA, 0, 1, 1], Bytes::from_static(b"data"));
        assert_eq!(lone.casts(), 0);
    }

    #[test]
    fn a_round_that_removes_every_member_exits_instead_of_installing() {
        let mut lone = Lone::new(MbrshipConfig::default());
        lone.view(2, &[1, 2]);
        // ep2 asks to leave; while that round runs, ep1 (the coordinator)
        // leaves too, and its second round removes both.
        lone.frame(2, [KIND_LEAVE_REQ, 0, 2, 0], Bytes::new());
        lone.feed(StackInput::FromApp(Down::Leave));
        assert_eq!(lone.sent, [KIND_FLUSH, KIND_CONTRIB, KIND_FLUSH, KIND_CONTRIB]);
        let mut contrib = WireWriter::new();
        contrib.put_u32(2);
        for m in [ep(1), ep(2)] {
            contrib.put_addr(m);
            contrib.put_u32(0);
        }
        contrib.put_u32(0);
        lone.frame(2, [KIND_CONTRIB, 2, 2, 0], contrib.finish());
        lone.frame(2, [KIND_FLUSH_OK, 2, 2, 0], Bytes::new());
        assert_eq!(lone.sent[4..], [KIND_SYNC, KIND_FLUSH_OK], "no VIEW is cast");
        assert!(matches!(lone.ups.last(), Some(Up::Exit)));
        assert_eq!(lone.phase(), "phase=exited");
    }

    /// LEAVE_REQ and SUSPECT are placed like every other kind: at our
    /// counter but from outside our view, neither starts a flush.
    #[test]
    fn a_non_member_cannot_start_a_flush_at_our_counter() {
        let mut lone = Lone::new(MbrshipConfig::default());
        lone.view(2, &[1, 2]);
        let mut suspects = WireWriter::new();
        suspects.put_addrs(&[ep(2)]);
        lone.frame(3, [KIND_SUSPECT, 0, 2, 0], suspects.finish());
        lone.frame(3, [KIND_LEAVE_REQ, 0, 2, 0], Bytes::new());
        assert!(lone.sent.is_empty(), "{:?}", lone.sent);
        assert_eq!(lone.phase(), "phase=normal");
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
    /// for byte, what the model's contents serialize to: a SYNC holds one
    /// section per epoch community of the round.
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
        /// The last SYNC `me` cast.
        last_sync: Option<Bytes>,
    }

    /// The test's view of the flush round in progress.
    struct Round {
        failed: BTreeSet<EndpointAddr>,
        joiners: Vec<View>,
        synced: bool,
        /// Coordinator role: what `me` has been handed — per contributor,
        /// the view it counts in and its vector — and the failed members'
        /// casts, by the view that numbered them.
        contribs: BTreeMap<EndpointAddr, (ViewId, BTreeMap<EndpointAddr, u32>)>,
        collected: BTreeMap<(ViewId, EndpointAddr, u32), Bytes>,
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
                last_sync: None,
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
            let mut r = WireReader::new(flush_body);
            let failed = r.get_addrs().expect("failed list");
            r.get_addrs().expect("leaving list");
            let joiners = (0..r.get_u32().expect("joiner count"))
                .map(|_| r.get_view().expect("a joiner view"))
                .collect();
            self.round = Some(Round {
                failed: failed.into_iter().collect(),
                joiners,
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
                round.collected.insert((self.view.id(), origin, seq), inner.clone());
            }
            assert_eq!(got, &w.finish()[..], "CONTRIB of {}", self.me);
            round.contribs.insert(self.me, (self.view.id(), vector));
            self.contribs_checked += 1;
        }

        /// A surviving peer's CONTRIB: it has everything the survivors
        /// cast, and the first `got` casts of each failed member.
        fn peer_contributes(&mut self, peer: EndpointAddr, got: u8) {
            let round = self.round.as_ref().expect("a round is on");
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
            self.contribute(peer, self.view.id(), vector, msgs);
        }

        /// Hands `me` the CONTRIB of `peer`, which counts in view `counts_in`.
        fn contribute(
            &mut self,
            peer: EndpointAddr,
            counts_in: ViewId,
            vector: BTreeMap<EndpointAddr, u32>,
            msgs: Vec<(EndpointAddr, u32, Bytes)>,
        ) {
            let round = self.round.as_mut().expect("a round is on");
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
                round.collected.insert((counts_in, origin, seq), inner);
            }
            round.contribs.insert(peer, (counts_in, vector));
            let wire = self.frame(KIND_CONTRIB, self.epoch, 0, w.finish());
            self.deliver(peer, false, wire);
        }

        /// The view `m` counts in during `round`: a joiner view that lists
        /// it, unless that view is ours; the last such view wins.
        fn counts_in(&self, round: &Round, m: EndpointAddr) -> ViewId {
            let foreign = round.joiners.iter().filter(|jv| jv.id() != self.view.id());
            foreign.filter(|jv| jv.contains(m)).last().map_or(self.view.id(), View::id)
        }

        /// Per community, per member: the highest count any contributor
        /// of that community reported for a member of it.
        fn cuts(&self, round: &Round) -> Cuts {
            let mut cuts = BTreeMap::new();
            for (community, vector) in round.contribs.values() {
                for (&m, &acked) in vector {
                    if self.counts_in(round, m) == *community {
                        let cut = cuts.entry((*community, m)).or_insert(0);
                        *cut = acked.max(*cut);
                    }
                }
            }
            cuts
        }

        /// The SYNC the contributions handed to `me` add up to.
        fn check_sync(&mut self, got: &[u8]) {
            let round = self.round.as_ref().expect("a round is on");
            assert_eq!(got, &Mbrship::sync_body(&self.cuts(round), &round.collected)[..]);
            self.round.as_mut().expect("a round is on").synced = true;
            self.last_sync = Some(Bytes::copy_from_slice(got));
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
                let id = self.view.id();
                let mut cuts = BTreeMap::new();
                let mut retrans = BTreeMap::new();
                for &m in self.view.members() {
                    let cast = self.cast_by.get(&m).map_or(0, Vec::len);
                    let cut =
                        if m == self.me {
                            self.my_seq as usize
                        } else if round.failed.contains(&m) {
                            let have = self.recv.get(&m).copied().unwrap_or(0) as usize;
                            let cut = have + got as usize % (cast - have + 1);
                            retrans.extend((1..=cut).map(|seq| {
                                ((id, m, seq as u32), self.cast_by[&m][seq - 1].clone())
                            }));
                            cut
                        } else {
                            cast
                        };
                    cuts.insert((id, m), cut as u32);
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

    /// A fresh cast numbered `seq`, as a receiver logs it.
    fn cast_in(probe: &mut Probe, seq: u32) -> Bytes {
        let body = probe.body();
        probe.open(&probe.frame(KIND_DATA, 0, seq, body)).encode_inner()
    }

    /// A merge round whose failed member ep:4 is listed both in the probe's
    /// view and in the joiner view it moved on to (same counter, another
    /// coordinator), with two casts in each: ours reach ep:2 and ep:3 but
    /// not the probe, theirs reach ep:5.  Returns the joiner view, ep:4's
    /// casts in it, and the FLUSH body that opens the round.
    fn cross_view_round(probe: &mut Probe) -> (View, Vec<Bytes>, Bytes) {
        let (x, joiner) = (ep(4), ep(5));
        probe.peer_casts(x);
        probe.peer_casts(x);
        let id = ViewId { counter: probe.vc(), coordinator: x };
        let theirs = View::from_parts(GroupAddr::new(1), id, vec![x, joiner], vec![1, 1]);
        let casts = (1..=2).map(|seq| cast_in(probe, seq)).collect();
        let flush = Mbrship::flush_body(
            &BTreeSet::from([x]),
            &BTreeSet::new(),
            std::slice::from_ref(&theirs),
        );
        (theirs, casts, flush)
    }

    /// What the probe delivered from `origin`: its log of this view.
    fn delivered_from(probe: &Probe, origin: EndpointAddr) -> Vec<Bytes> {
        probe.log.range((origin, 0)..=(origin, u32::MAX)).map(|(_, b)| b.clone()).collect()
    }

    /// As coordinator of that round: ep:5 hands in ep:4's casts as the
    /// joiner view numbered them, at the same `(ep:4, seq)` as ours, after
    /// ep:2 and ep:3 handed in ours.  The SYNC keeps the two logs in
    /// separate sections, and the coordinator, a member of the main view,
    /// delivers ep:4's casts of that view and none of the joiner view's
    /// (when `collected` was keyed by `(origin, seq)` alone, the joiner's
    /// entries overwrote ours and were delivered as ours).
    #[test]
    fn a_joiner_views_log_is_not_delivered_as_ours() {
        for mode in [HeaderMode::Compact, HeaderMode::Aligned] {
            let mut probe = Probe::new(ep(1), mode);
            let (x, joiner) = (ep(4), ep(5));
            let (theirs, their_casts, _) = cross_view_round(&mut probe);
            // ep:5 asks to merge its view in; while the round is on, ep:4
            // is suspected and the round restarts with it failed.
            let mut w = WireWriter::new();
            w.put_view(&theirs);
            let wire = probe.frame(KIND_MERGE_REQ, 0, 0, w.finish());
            probe.deliver(joiner, false, wire);
            probe.feed(StackInput::FromApp(Down::Suspect { member: x }));
            assert_eq!(probe.round.as_ref().map(|r| r.failed.clone()), Some(BTreeSet::from([x])));
            probe.peer_contributes(ep(2), 2);
            probe.peer_contributes(ep(3), 2);
            let vector = BTreeMap::from([(x, 2), (joiner, 0)]);
            let msgs = (1..=2).zip(&their_casts).map(|(seq, b)| (x, seq, b.clone())).collect();
            probe.contribute(joiner, theirs.id(), vector, msgs);

            let sync = probe.last_sync.clone().expect("the last CONTRIB brings the SYNC");
            assert_eq!(WireReader::new(&sync).get_u32().ok(), Some(2), "one section per view");
            let ours = probe.view.id();
            for (id, casts) in [(ours, probe.cast_by[&x].clone()), (theirs.id(), their_casts)] {
                let (cuts, retrans) = Mbrship::read_sync(&sync, id).expect("a SYNC");
                let bodies: Vec<_> = retrans.iter().map(|&(_, _, b)| b).collect();
                assert_eq!(bodies, casts.iter().map(|b| &b[..]).collect::<Vec<_>>(), "{id}");
                // ep:4 counts in the view it moved on to.
                assert_eq!(cuts.get(&(id, x)), (id == theirs.id()).then_some(&2));
            }
            assert_eq!(delivered_from(&probe, x), probe.cast_by[&x], "{mode:?}");
        }
    }

    /// As a plain member of the main view: handed a SYNC with both
    /// sections, it delivers from its own view's section only.
    #[test]
    fn a_member_reads_only_its_own_views_section() {
        let mut probe = Probe::new(ep(2), HeaderMode::Compact);
        let x = ep(4);
        let (theirs, their_casts, flush) = cross_view_round(&mut probe);
        probe.drain(ep(1));
        probe.epoch += 1;
        probe.begin_round(&flush);
        let wire = probe.frame(KIND_FLUSH, probe.epoch, 0, flush);
        probe.deliver(ep(1), true, wire);
        assert_eq!(probe.contribs_checked, 1);
        let ours = probe.view.id();
        let mut cuts = BTreeMap::from([((theirs.id(), x), 2), ((theirs.id(), ep(5)), 0)]);
        cuts.extend(probe.view.members()[..3].iter().map(|&m| ((ours, m), 0)));
        let mut collected = BTreeMap::new();
        for (seq, (b_ours, b_theirs)) in (1..).zip(probe.cast_by[&x].iter().zip(&their_casts)) {
            collected.insert((ours, x, seq), b_ours.clone());
            collected.insert((theirs.id(), x, seq), b_theirs.clone());
        }
        let wire = probe.frame(KIND_SYNC, probe.epoch, 0, Mbrship::sync_body(&cuts, &collected));
        probe.deliver(ep(1), true, wire);
        assert_eq!(delivered_from(&probe, x), probe.cast_by[&x]);
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
