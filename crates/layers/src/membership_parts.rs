//! BMS / VSS / FLUSH — the layered decomposition of membership (Table 3,
//! §6, §8).
//!
//! The production [`crate::mbrship::Mbrship`] layer "combines the
//! functions of several reference layers into a single high performance
//! production version" (§1).  This module provides those constituent
//! reference layers, composable as `FLUSH : VSS : BMS`:
//!
//! * [`Bms`] — the *basic membership service*: coordinator-driven
//!   PREPARE/READY/COMMIT view agreement.  It provides **consistent
//!   views** (P15) and nothing else — data casts pass through untouched.
//!   Crucially, it exposes the HCPI's `flush`/`flush_ok` contract from
//!   Table 1: a PREPARE surfaces as a FLUSH upcall, and BMS sends READY
//!   only after the layer above (or the application) answers with the
//!   `flush_ok` downcall.  This is how upper layers get to finish their
//!   business before the view changes.
//! * [`Vss`] — *virtually semi-synchronous* delivery (P8): casts are
//!   tagged with the view they were sent in and delivered only in that
//!   view (early arrivals buffer, stale ones drop).  View boundaries
//!   become clean cuts, but nothing guarantees completeness yet.
//! * [`FlushLayer`] — full virtual synchrony (P9): on a FLUSH upcall it
//!   runs an all-to-all exchange of acknowledgement vectors plus copies of
//!   failed members' unstable messages, delivers what it was missing,
//!   waits for the common cut, and only then issues `flush_ok` downward,
//!   releasing BMS's view agreement.
//!
//! The split is exactly the three-tier story of §9 and the "composition
//! leads to simplicity" challenge of §11: each piece is small and
//! verifiable, and their stack equals the production MBRSHIP in
//! guarantees (the integration tests replay Figure 2 against both).
//!
//! Scope note (documented simplification): the decomposed stack supports
//! joins through BMS's JOIN_REQ and crash exclusion, but not the
//! cross-view *merge* of two multi-member partitions — that remains the
//! production layer's exclusive feature, as in the 1995 system where "a
//! new membership layer ... can easily be added".

use bytes::Bytes;
use horus_core::prelude::*;
use horus_core::wire::{WireReader, WireWriter};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::time::Duration;

// =====================================================================
// BMS
// =====================================================================

const BMS_FIELDS: &[FieldSpec] = &[FieldSpec::new("kind", 3), FieldSpec::new("epoch", 16)];

const B_DATA: u64 = 0;
const B_PREPARE: u64 = 1;
const B_READY: u64 = 2;
const B_COMMIT: u64 = 3;
const B_SUSPECT: u64 = 4;
const B_JOIN: u64 = 5;

const BMS_TICK: u64 = 0;

#[derive(Debug, Clone)]
enum BmsPhase {
    Idle,
    Normal,
    /// READY sent; waiting for COMMIT.
    Ready {
        coordinator: EndpointAddr,
    },
    /// Coordinator: collecting READYs.  The prepare body is kept for
    /// rebroadcast: the FIFO layer prunes casts once *view* members ack
    /// them, so a joiner outside the view can miss the original PREPARE
    /// for good.
    Collecting {
        epoch: u16,
        proposal: View,
        readies: BTreeSet<EndpointAddr>,
        prepare: Bytes,
    },
}

/// The basic membership service: consistent views, nothing more.
#[derive(Clone)]
pub struct Bms {
    tick: Duration,
    timeout: Duration,
    /// Answer our own FLUSH upcalls immediately (no layer above or
    /// application participates in the flush).  The registry derives this
    /// from the composition: `false` when VSS or FLUSH sit above.
    auto_ok: bool,
    me: Option<EndpointAddr>,
    group: Option<GroupAddr>,
    view: Option<View>,
    phase: BmsPhase,
    suspects: BTreeSet<EndpointAddr>,
    joiners: BTreeSet<EndpointAddr>,
    /// A FLUSH upcall is outstanding: `(epoch, coordinator)` to READY once
    /// the layer above answers `flush_ok`.  Orthogonal to `phase` so the
    /// coordinator keeps collecting READYs while it waits for its own.
    awaiting_ok: Option<(u16, EndpointAddr)>,
    cur_epoch: u16,
    last_progress: SimTime,
    views_installed: u64,
}

impl Bms {
    /// Creates a BMS layer; see the `auto_ok` field for the flush_ok
    /// contract.
    pub fn new(tick: Duration, timeout: Duration, auto_ok: bool) -> Self {
        Bms {
            tick,
            timeout,
            auto_ok,
            me: None,
            group: None,
            view: None,
            phase: BmsPhase::Idle,
            suspects: BTreeSet::new(),
            joiners: BTreeSet::new(),
            awaiting_ok: None,
            cur_epoch: 0,
            last_progress: SimTime::ZERO,
            views_installed: 0,
        }
    }

    fn me(&self) -> EndpointAddr {
        self.me.expect("initialised")
    }

    fn control(&self, ctx: &mut LayerCtx<'_>, kind: u64, epoch: u16, body: Bytes) -> Message {
        let mut m = ctx.new_message(body);
        ctx.stamp(&mut m);
        ctx.set(&mut m, 0, kind);
        ctx.set(&mut m, 1, epoch as u64);
        m
    }

    fn install(&mut self, v: View, ctx: &mut LayerCtx<'_>) {
        self.suspects.clear();
        self.joiners.retain(|j| !v.contains(*j));
        self.cur_epoch = 0;
        self.last_progress = ctx.now();
        self.views_installed += 1;
        self.phase = BmsPhase::Normal;
        self.awaiting_ok = None;
        self.view = Some(v.clone());
        ctx.down(Down::InstallView(v.clone()));
        ctx.up(Up::View(v));
        // Joins or suspicions that arrived during the round start the next
        // one immediately.
        if !self.joiners.is_empty() || !self.suspects.is_empty() {
            self.propose(ctx, false);
        }
    }

    /// Coordinator path: propose the next view.  `force` re-proposes even
    /// while a round is active (the stall-recovery path); otherwise a new
    /// trigger waits for the current round to finish.
    fn propose(&mut self, ctx: &mut LayerCtx<'_>, force: bool) {
        if !force && !matches!(self.phase, BmsPhase::Normal | BmsPhase::Idle) {
            return; // a round is in flight; install() will chase the rest
        }
        let Some(view) = self.view.clone() else { return };
        let me = self.me();
        let failed: Vec<EndpointAddr> =
            self.suspects.iter().copied().filter(|s| view.contains(*s)).collect();
        let alive: Vec<EndpointAddr> =
            view.members().iter().copied().filter(|m| !failed.contains(m)).collect();
        if view.coordinator_among(&alive) != Some(me) {
            // Not our job: report suspicions to the rightful coordinator.
            if let Some(c) = view.coordinator_among(&alive) {
                let mut w = WireWriter::with_capacity(4 + 8 * failed.len());
                w.put_addrs(&failed);
                let m = self.control(ctx, B_SUSPECT, self.cur_epoch, w.finish());
                ctx.down(Down::Send { dests: vec![c], msg: m });
            }
            return;
        }
        let joiners: Vec<EndpointAddr> = self.joiners.iter().copied().collect();
        if failed.is_empty() && joiners.is_empty() {
            return;
        }
        self.cur_epoch += 1;
        let proposal = view.successor(me, &failed, &joiners);
        let mut w = WireWriter::with_capacity(44 + 16 * proposal.len() + 8 * failed.len());
        w.put_view(&proposal);
        w.put_addrs(&failed);
        let body = w.finish();
        let m = self.control(ctx, B_PREPARE, self.cur_epoch, body.clone());
        ctx.down(Down::Cast(m));
        self.phase = BmsPhase::Collecting {
            epoch: self.cur_epoch,
            proposal,
            readies: BTreeSet::new(),
            prepare: body,
        };
        self.last_progress = ctx.now();
        // Our own PREPARE loops back and drives our own FLUSH/flush_ok.
    }

    fn handle_prepare(
        &mut self,
        src: EndpointAddr,
        epoch: u16,
        body: &[u8],
        ctx: &mut LayerCtx<'_>,
    ) {
        let mut r = WireReader::new(body);
        let Ok(proposal) = r.get_view() else { return };
        let Ok(failed) = r.get_addrs() else { return };
        let me = self.me();
        if !proposal.contains(me) {
            return; // excluded or foreign
        }
        let current_counter = self.view.as_ref().map(|v| v.id().counter).unwrap_or(0);
        if proposal.id().counter <= current_counter {
            return; // stale
        }
        let _ = (me, proposal);
        self.last_progress = ctx.now();
        self.awaiting_ok = Some((epoch, src));
        ctx.up(Up::Flush { failed });
        // `flush_ok` (Down) resumes the protocol; without a participant
        // above, we answer ourselves.
        if self.auto_ok {
            self.handle_flush_ok_down(ctx);
        }
    }

    fn handle_flush_ok_down(&mut self, ctx: &mut LayerCtx<'_>) {
        let Some((epoch, coordinator)) = self.awaiting_ok.take() else { return };
        let m = self.control(ctx, B_READY, epoch, Bytes::new());
        ctx.down(Down::Send { dests: vec![coordinator], msg: m });
        if coordinator != self.me() {
            self.phase = BmsPhase::Ready { coordinator };
        }
    }

    fn handle_ready(&mut self, src: EndpointAddr, epoch: u16, ctx: &mut LayerCtx<'_>) {
        let done = {
            let BmsPhase::Collecting { epoch: e, proposal, readies, .. } = &mut self.phase else {
                return;
            };
            if *e != epoch {
                return;
            }
            readies.insert(src);
            proposal.members().iter().all(|m| readies.contains(m))
        };
        self.last_progress = ctx.now();
        if done {
            let BmsPhase::Collecting { proposal, .. } = &self.phase else { unreachable!() };
            // Name the excluded members explicitly so that bystanders from
            // other view lineages do not mistake this commit for their own
            // exclusion.
            let excluded: Vec<EndpointAddr> = self
                .view
                .as_ref()
                .map(|v| v.members().iter().copied().filter(|m| !proposal.contains(*m)).collect())
                .unwrap_or_default();
            let mut w = WireWriter::with_capacity(44 + 16 * proposal.len() + 8 * excluded.len());
            w.put_view(proposal);
            w.put_addrs(&excluded);
            let m = self.control(ctx, B_COMMIT, epoch, w.finish());
            ctx.down(Down::Cast(m));
        }
    }

    fn handle_commit(&mut self, body: &[u8], ctx: &mut LayerCtx<'_>) {
        let mut r = WireReader::new(body);
        let Ok(v) = r.get_view() else { return };
        let Ok(excluded) = r.get_addrs() else { return };
        let me = self.me();
        let current = self.view.as_ref().map(|v| v.id().counter).unwrap_or(0);
        if v.id().counter <= current {
            return;
        }
        if v.contains(me) {
            self.install(v, ctx);
        } else if excluded.contains(&me) {
            // Excluded: fresh singleton, like the production layer.
            ctx.up(Up::SystemError { reason: "excluded from BMS view".to_string() });
            let group = self.group.expect("joined");
            let single = View::from_parts(
                group,
                horus_core::view::ViewId { counter: v.id().counter + 1, coordinator: me },
                vec![me],
                vec![v.id().counter + 1],
            );
            self.install(single, ctx);
        }
    }
}

impl Layer for Bms {
    fn name(&self) -> &'static str {
        "BMS"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        BMS_FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        self.me = Some(ctx.local_addr());
        self.last_progress = ctx.now();
        ctx.set_timer(self.tick, BMS_TICK);
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Join { group } => {
                ctx.down(Down::Join { group });
                self.group = Some(group);
                let v = View::initial(group, self.me());
                self.install(v, ctx);
            }
            Down::FlushOk => self.handle_flush_ok_down(ctx),
            Down::Suspect { member } => {
                if self.suspects.insert(member) {
                    self.propose(ctx, false);
                }
            }
            Down::Flush { failed } => {
                for f in failed {
                    self.suspects.insert(f);
                }
                self.propose(ctx, false);
            }
            Down::Merge { contact } => {
                // BMS joins are singleton endpoints contacting the group.
                let m = self.control(ctx, B_JOIN, 0, Bytes::new());
                ctx.down(Down::Send { dests: vec![contact], msg: m });
            }
            Down::Cast(mut msg) => {
                // Stamp data casts so the receive path can tell them from
                // BMS control frames (in compact header mode every layer's
                // fields are always present).
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, B_DATA);
                ctx.set(&mut msg, 1, 0);
                ctx.down(Down::Cast(msg));
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
                match kind {
                    B_DATA => {
                        // Application traffic: BMS neither numbers nor
                        // gates it.
                        ctx.up(Up::Cast { src, msg });
                    }
                    B_PREPARE => self.handle_prepare(src, epoch, &msg.body().clone(), ctx),
                    B_READY => self.handle_ready(src, epoch, ctx),
                    B_COMMIT => self.handle_commit(&msg.body().clone(), ctx),
                    B_SUSPECT => {
                        let mut r = WireReader::new(msg.body());
                        if let Ok(list) = r.get_addrs() {
                            for m in list {
                                self.suspects.insert(m);
                            }
                            self.propose(ctx, false);
                        }
                    }
                    B_JOIN => {
                        self.joiners.insert(src);
                        self.propose(ctx, false);
                    }
                    _ => {}
                }
            }
            Up::Problem { member } => {
                if self.suspects.insert(member) {
                    self.propose(ctx, false);
                }
                ctx.up(Up::Problem { member });
            }
            other => ctx.up(other),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut LayerCtx<'_>) {
        if token != BMS_TICK {
            return;
        }
        let now = ctx.now();
        let waited = now.saturating_since(self.last_progress);
        match &self.phase {
            BmsPhase::Collecting { epoch, prepare, .. } => {
                if waited > self.timeout {
                    self.last_progress = now;
                    self.propose(ctx, true); // re-propose with a higher epoch
                } else if waited > self.timeout / 4 {
                    // Rebroadcast the PREPARE: joiners outside the view may
                    // have missed the (pruned) original.
                    let (epoch, prepare) = (*epoch, prepare.clone());
                    let m = self.control(ctx, B_PREPARE, epoch, prepare);
                    ctx.down(Down::Cast(m));
                }
            }
            // A member gives the coordinator twice its own retry budget
            // before mutiny — simultaneous stall suspicion on both sides
            // splits the group.
            BmsPhase::Ready { coordinator } if waited > self.timeout * 2 => {
                let c = *coordinator;
                self.last_progress = now;
                if c != self.me() {
                    self.suspects.insert(c);
                }
                self.phase = BmsPhase::Normal;
                self.propose(ctx, true);
            }
            // Unserved joins/suspicions are retried here.
            BmsPhase::Normal
                if waited > self.timeout
                    && (!self.joiners.is_empty() || !self.suspects.is_empty()) =>
            {
                self.last_progress = now;
                self.propose(ctx, false);
            }
            _ => {}
        }
        ctx.set_timer(self.tick, BMS_TICK);
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(
            w,
            "phase={} view={} views={} suspects={:?} joiners={:?}",
            match self.phase {
                BmsPhase::Idle => "idle",
                BmsPhase::Normal => "normal",
                BmsPhase::Ready { .. } => "ready",
                BmsPhase::Collecting { .. } => "collecting",
            },
            self.view.as_ref().map(|v| v.to_string()).unwrap_or_else(|| "-".into()),
            self.views_installed,
            self.suspects,
            self.joiners,
        )
    }
}

// =====================================================================
// VSS
// =====================================================================

const VSS_FIELDS: &[FieldSpec] = &[FieldSpec::new("vc", 32)];

/// Virtually semi-synchronous delivery: view-boundary gating (P8).
///
/// `auto_ok` answers BMS's FLUSH upcalls with an immediate `flush_ok`
/// when no FLUSH layer sits above to do real recovery first.  The
/// registry sets it automatically from the composition; when building by
/// hand, pass `false` iff a [`FlushLayer`] is stacked above.
#[derive(Debug, Clone)]
pub struct Vss {
    auto_ok: bool,
    view_counter: u32,
    future: Vec<(u32, EndpointAddr, Message)>,
    /// Stale-view casts discarded.
    pub dropped_stale: u64,
}

impl Vss {
    /// Creates a VSS layer; `auto_ok` should be `false` when a FLUSH layer
    /// sits above.
    pub fn new(auto_ok: bool) -> Self {
        Vss { auto_ok, view_counter: 0, future: Vec::new(), dropped_stale: 0 }
    }

    fn stamp_and_send(&mut self, mut msg: Message, ctx: &mut LayerCtx<'_>) {
        ctx.stamp(&mut msg);
        ctx.set(&mut msg, 0, self.view_counter as u64);
        ctx.down(Down::Cast(msg));
    }
}

impl Layer for Vss {
    fn name(&self) -> &'static str {
        "VSS"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        VSS_FIELDS
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            // NOTE: no flush-hold here.  App casts are already held above
            // VSS by the FLUSH layer while a flush runs, and the recovery
            // casts FLUSH emits *must* flow through VSS mid-flush.  A bare
            // VSS stack is only semi-synchronous (P8): a cast racing a
            // view change may be dropped at members that switched first,
            // which is exactly the completeness gap FLUSH exists to close.
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
                let vc = ctx.get(&msg, 0) as u32;
                match vc.cmp(&self.view_counter) {
                    std::cmp::Ordering::Equal => ctx.up(Up::Cast { src, msg }),
                    std::cmp::Ordering::Greater => self.future.push((vc, src, msg)),
                    std::cmp::Ordering::Less => self.dropped_stale += 1,
                }
            }
            Up::View(view) => {
                self.view_counter = view.id().counter as u32;
                ctx.up(Up::View(view));
                let vc = self.view_counter;
                let (ready, rest): (Vec<_>, Vec<_>) =
                    std::mem::take(&mut self.future).into_iter().partition(|(c, _, _)| *c == vc);
                self.future = rest;
                self.future.retain(|(c, _, _)| *c > vc);
                for (_, src, msg) in ready {
                    ctx.up(Up::Cast { src, msg });
                }
            }
            Up::Flush { failed } => {
                ctx.up(Up::Flush { failed });
                if self.auto_ok {
                    ctx.down(Down::FlushOk);
                }
            }
            other => ctx.up(other),
        }
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(
            w,
            "vc={} future={} dropped_stale={}",
            self.view_counter,
            self.future.len(),
            self.dropped_stale
        )
    }
}

// =====================================================================
// FLUSH
// =====================================================================

const FLUSH_FIELDS: &[FieldSpec] = &[FieldSpec::new("kind", 1), FieldSpec::new("fseq", 32)];

const F_DATA: u64 = 0;
const F_ANNOUNCE: u64 = 1;

/// Full virtual synchrony on top of VSS/BMS: all-to-all flush recovery.
#[derive(Debug, Default, Clone)]
pub struct FlushLayer {
    me: Option<EndpointAddr>,
    view: Option<View>,
    my_seq: u32,
    recv: BTreeMap<EndpointAddr, u32>,
    log: BTreeMap<(EndpointAddr, u32), Bytes>,
    /// In-progress flush: failed members, cuts learned so far, announced
    /// members.
    active: Option<FlushWork>,
    pending: VecDeque<Message>,
    /// Messages recovered from peers' announcements.
    pub recovered: u64,
}

#[derive(Debug, Clone)]
struct FlushWork {
    failed: BTreeSet<EndpointAddr>,
    cuts: BTreeMap<EndpointAddr, u32>,
    announced: BTreeSet<EndpointAddr>,
    ok_sent: bool,
}

impl FlushLayer {
    /// Creates a FLUSH layer.
    pub fn new() -> Self {
        FlushLayer::default()
    }

    fn me(&self) -> EndpointAddr {
        self.me.expect("initialised")
    }

    fn announce(&mut self, ctx: &mut LayerCtx<'_>) {
        let Some(work) = &self.active else { return };
        let Some(view) = &self.view else { return };
        let me = self.me();
        let entries: Vec<(EndpointAddr, u32)> = view
            .members()
            .iter()
            .map(|&m| {
                let mut v = self.recv.get(&m).copied().unwrap_or(0);
                if m == me {
                    v = v.max(self.my_seq);
                }
                (m, v)
            })
            .collect();
        let mut w = WireWriter::with_capacity(8 + 12 * entries.len());
        w.put_u32(entries.len() as u32);
        for (m, v) in &entries {
            w.put_addr(*m);
            w.put_u32(*v);
        }
        let msgs: Vec<(&(EndpointAddr, u32), &Bytes)> =
            self.log.iter().filter(|((o, _), _)| work.failed.contains(o)).collect();
        w.put_u32(msgs.len() as u32);
        for ((o, s), inner) in msgs {
            w.put_addr(*o);
            w.put_u32(*s);
            w.put_bytes(inner);
        }
        let mut m = ctx.new_message(w.finish());
        ctx.stamp(&mut m);
        ctx.set(&mut m, 0, F_ANNOUNCE);
        ctx.set(&mut m, 1, 0);
        ctx.down(Down::Cast(m));
    }

    fn maybe_ok(&mut self, ctx: &mut LayerCtx<'_>) {
        let Some(view) = self.view.clone() else { return };
        let ready = {
            let Some(work) = &self.active else { return };
            if work.ok_sent {
                return;
            }
            let survivors: Vec<EndpointAddr> =
                view.members().iter().copied().filter(|m| !work.failed.contains(m)).collect();
            survivors.iter().all(|s| work.announced.contains(s))
                && view.members().iter().all(|m| {
                    self.recv.get(m).copied().unwrap_or(0) >= work.cuts.get(m).copied().unwrap_or(0)
                })
        };
        if ready {
            if let Some(work) = &mut self.active {
                work.ok_sent = true;
            }
            ctx.down(Down::FlushOk);
        }
    }
}

impl Layer for FlushLayer {
    fn name(&self) -> &'static str {
        "FLUSH"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        FLUSH_FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        self.me = Some(ctx.local_addr());
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(msg) => {
                if self.active.is_some() {
                    self.pending.push_back(msg);
                    return;
                }
                self.my_seq += 1;
                let seq = self.my_seq;
                self.log.insert((self.me(), seq), msg.encode_inner());
                let mut m = msg;
                ctx.stamp(&mut m);
                ctx.set(&mut m, 0, F_DATA);
                ctx.set(&mut m, 1, seq as u64);
                ctx.down(Down::Cast(m));
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
                    F_DATA => {
                        let seq = ctx.get(&msg, 1) as u32;
                        let cum = self.recv.entry(src).or_insert(0);
                        if seq <= *cum {
                            return; // duplicate (recovered earlier)
                        }
                        *cum = seq;
                        self.log.insert((src, seq), msg.encode_inner());
                        ctx.up(Up::Cast { src, msg });
                        self.maybe_ok(ctx);
                    }
                    F_ANNOUNCE => {
                        let body = msg.body().clone();
                        let mut r = WireReader::new(&body);
                        let Ok(n) = r.get_u32() else { return };
                        let mut deliveries: Vec<(EndpointAddr, u32, Bytes)> = Vec::new();
                        {
                            let Some(work) = &mut self.active else { return };
                            for _ in 0..n {
                                let (Ok(m), Ok(v)) = (r.get_addr(), r.get_u32()) else {
                                    return;
                                };
                                let e = work.cuts.entry(m).or_insert(0);
                                *e = (*e).max(v);
                            }
                            let Ok(k) = r.get_u32() else { return };
                            for _ in 0..k {
                                let (Ok(o), Ok(s)) = (r.get_addr(), r.get_u32()) else {
                                    return;
                                };
                                let Ok(inner) = r.get_bytes() else { return };
                                deliveries.push((o, s, Bytes::copy_from_slice(inner)));
                            }
                            work.announced.insert(src);
                        }
                        deliveries.sort_by_key(|&(o, s, _)| (o, s));
                        for (o, s, inner) in deliveries {
                            let cum = self.recv.entry(o).or_insert(0);
                            if s <= *cum {
                                continue;
                            }
                            *cum = s;
                            self.log.insert((o, s), inner.clone());
                            if let Ok(mut m) = Message::decode_inner(
                                ctx.new_message(Bytes::new()).layout().clone(),
                                &inner,
                            ) {
                                m.meta.set_src(Some(o));
                                m.meta.set_flush_recovered(true);
                                self.recovered += 1;
                                ctx.up(Up::Cast { src: o, msg: m });
                            }
                        }
                        self.maybe_ok(ctx);
                    }
                    _ => {}
                }
            }
            Up::Flush { failed } => {
                self.active = Some(FlushWork {
                    failed: failed.iter().copied().collect(),
                    cuts: BTreeMap::new(),
                    announced: BTreeSet::new(),
                    ok_sent: false,
                });
                ctx.up(Up::Flush { failed });
                self.announce(ctx);
            }
            Up::View(view) => {
                self.view = Some(view.clone());
                self.my_seq = 0;
                self.recv = view.members().iter().map(|&m| (m, 0)).collect();
                self.log.clear();
                self.active = None;
                ctx.up(Up::View(view));
                while let Some(m) = self.pending.pop_front() {
                    self.on_down(Down::Cast(m), ctx);
                }
            }
            other => ctx.up(other),
        }
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(
            w,
            "seq={} logged={} active={} recovered={}",
            self.my_seq,
            self.log.len(),
            self.active.is_some(),
            self.recovered
        )
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

    fn decomposed_stack(i: u64) -> Stack {
        StackBuilder::new(ep(i))
            .push(Box::new(FlushLayer::new()))
            .push(Box::new(Vss::new(false)))
            .push(Box::new(Bms::new(Duration::from_millis(25), Duration::from_millis(400), false)))
            .push(Box::new(Frag::default()))
            .push(Box::new(Nak::new(NakConfig {
                fail_timeout: Duration::from_millis(120),
                ..NakConfig::default()
            })))
            .push(Box::new(Com::promiscuous()))
            .build()
            .unwrap()
    }

    fn bms_only_stack(i: u64) -> Stack {
        StackBuilder::new(ep(i))
            .push(Box::new(Vss::new(true)))
            .push(Box::new(Bms::new(Duration::from_millis(25), Duration::from_millis(400), false)))
            .push(Box::new(Frag::default()))
            .push(Box::new(Nak::new(NakConfig {
                fail_timeout: Duration::from_millis(120),
                ..NakConfig::default()
            })))
            .push(Box::new(Com::promiscuous()))
            .build()
            .unwrap()
    }

    fn joined(n: u64, seed: u64, mk: impl Fn(u64) -> Stack) -> SimWorld {
        let mut w = SimWorld::new(seed, NetConfig::reliable());
        for i in 1..=n {
            w.add_endpoint(mk(i));
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
                "endpoint {i} joined via BMS"
            );
        }
        w
    }

    #[test]
    fn bms_alone_agrees_on_views() {
        let mut w = joined(3, 1, bms_only_stack);
        let t = w.now();
        w.crash_at(t + Duration::from_millis(10), ep(3));
        w.run_for(Duration::from_secs(2));
        let v1 = w.installed_views(ep(1)).last().unwrap().clone();
        let v2 = w.installed_views(ep(2)).last().unwrap().clone();
        assert_eq!(v1, v2);
        assert_eq!(v1.members(), &[ep(1), ep(2)]);
    }

    #[test]
    fn decomposed_stack_is_virtually_synchronous() {
        for seed in 1..=3 {
            let mut w = joined(3, 10 + seed, decomposed_stack);
            let t = w.now();
            let wl = Workload::round_robin(vec![ep(1), ep(2), ep(3)], 24);
            wl.schedule(&mut w, t + Duration::from_millis(1));
            w.crash_at(t + Duration::from_millis(15), ep(2));
            w.run_for(Duration::from_secs(3));
            let logs: Vec<DeliveryLog> = (1..=3)
                .filter(|&i| w.is_alive(ep(i)))
                .map(|i| DeliveryLog::from_upcalls(ep(i), w.upcalls(ep(i))))
                .collect();
            let violations = check_virtual_synchrony(&logs);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    #[test]
    fn figure_2_replays_on_the_decomposed_stack() {
        let mut w = joined(4, 5, decomposed_stack);
        let (a, b, _c, d) = (ep(1), ep(2), ep(3), ep(4));
        let t = w.now();
        w.partition_at(t + Duration::from_millis(1), &[&[ep(1), ep(2)], &[ep(3), ep(4)]]);
        w.cast_bytes_at(t + Duration::from_millis(2), d, Workload::body(d, 1, 32));
        w.crash_at(t + Duration::from_millis(5), d);
        w.heal_at(t + Duration::from_millis(8));
        w.run_for(Duration::from_secs(3));
        for &m in &[a, b] {
            let from_d = w.delivered_casts(m).iter().filter(|(s, _, _)| *s == d).count();
            assert_eq!(from_d, 1, "{m} must deliver M exactly once");
        }
        assert_eq!(w.installed_views(a).last().unwrap().members(), &[ep(1), ep(2), ep(3)]);
    }

    #[test]
    fn vss_gates_cross_view_traffic() {
        let mut w = joined(2, 6, bms_only_stack);
        w.cast_bytes(ep(1), &b"in view"[..]);
        w.run_for(Duration::from_millis(300));
        assert_eq!(w.delivered_casts(ep(2)).len(), 1);
        let v: &Vss = w.stack(ep(2)).unwrap().focus_as("VSS").unwrap();
        assert_eq!(v.dropped_stale, 0);
    }
}
