//! Service layers from the Figure 1 catalogue: RPC, clock
//! synchronization, the §11 security architecture, and cactus-stack
//! multiplexing.
//!
//! * [`Rpc`] — "rpc: client/server interactions".  Correlates subset
//!   sends with replies, retries, and reports timeouts; the application
//!   drives it entirely through message metadata, never touching wire
//!   formats.
//! * [`ClockSync`] — "synchronization, e.g. of clocks".  Cristian's
//!   algorithm against the view's senior member; each endpoint simulates
//!   local clock skew so there is something real to estimate.
//! * [`Secure`] — §11's "security architecture for Horus providing
//!   authentication and encryption of messages, using a novel approach
//!   that combines security features with fault-tolerance": the group key
//!   is rotated on every view change by the view coordinator and
//!   distributed under per-member pairwise keys, so membership *is* the
//!   key-management trigger.  Toy cryptography throughout (see DESIGN.md)
//!   — composition and key-lifecycle behaviour is the point.
//! * [`Mux`] — §4's "tree or cactus stack": several logical applications
//!   share one stack, distinguished by a channel tag in the header and
//!   surfaced through `msg.meta.channel`.

use crate::util::fnv;
use bytes::Bytes;
use horus_core::prelude::*;
use horus_core::wire::{WireReader, WireWriter};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

// =====================================================================
// RPC
// =====================================================================

const RPC_FIELDS: &[FieldSpec] = &[FieldSpec::new("kind", 2), FieldSpec::new("id", 32)];

const R_PLAIN: u64 = 0;
const R_REQUEST: u64 = 1;
const R_REPLY: u64 = 2;

const RPC_TICK: u64 = 0;

#[derive(Debug, Clone)]
struct PendingCall {
    dest: EndpointAddr,
    msg: Message,
    sent_at: SimTime,
    retries: u32,
}

/// Request/reply correlation over subset sends.
///
/// A client marks an outgoing `send` as a request by setting
/// `msg.meta.set_rpc(Some((0, false)))`; the layer assigns the id, retries,
/// and times out.  The server's delivery carries `rpc = Some((id, false))`;
/// replying with `rpc = Some((id, true))` routes the response back, and
/// the client's delivery carries `rpc = Some((id, true))`.
#[derive(Debug, Clone)]
pub struct Rpc {
    timeout: Duration,
    max_retries: u32,
    next_id: u64,
    pending: BTreeMap<u64, PendingCall>,
    /// Completed calls (for dump/statistics).
    pub completed: u64,
    /// Calls that exhausted their retries.
    pub timed_out: u64,
}

impl Rpc {
    /// Creates an RPC layer with the given per-try timeout and retry
    /// budget.
    pub fn new(timeout: Duration, max_retries: u32) -> Self {
        Rpc {
            timeout,
            max_retries,
            next_id: 1,
            pending: BTreeMap::new(),
            completed: 0,
            timed_out: 0,
        }
    }
}

impl Default for Rpc {
    fn default() -> Self {
        Rpc::new(Duration::from_millis(100), 3)
    }
}

impl Layer for Rpc {
    fn name(&self) -> &'static str {
        "RPC"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        RPC_FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        ctx.set_timer(self.timeout, RPC_TICK);
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Send { dests, mut msg } => {
                let (kind, id) = match msg.meta.rpc() {
                    Some((_, false)) => {
                        let id = self.next_id;
                        self.next_id += 1;
                        (R_REQUEST, id)
                    }
                    Some((id, true)) => (R_REPLY, id),
                    None => (R_PLAIN, 0),
                };
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, kind);
                ctx.set(&mut msg, 1, id);
                if kind == R_REQUEST {
                    let dest = dests.first().copied().unwrap_or(EndpointAddr::NULL);
                    self.pending.insert(
                        id,
                        PendingCall { dest, msg: msg.clone(), sent_at: ctx.now(), retries: 0 },
                    );
                }
                ctx.down(Down::Send { dests, msg });
            }
            other => ctx.down(other),
        }
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Send { src, mut msg } => {
                if ctx.open(&mut msg).is_err() {
                    return;
                }
                let kind = ctx.get(&msg, 0);
                let id = ctx.get(&msg, 1);
                match kind {
                    R_REQUEST => {
                        msg.meta.set_rpc(Some((id, false)));
                        ctx.up(Up::Send { src, msg });
                    }
                    R_REPLY => {
                        // Duplicate replies (after retries) complete once.
                        if self.pending.remove(&id).is_some() {
                            self.completed += 1;
                            msg.meta.set_rpc(Some((id, true)));
                            ctx.up(Up::Send { src, msg });
                        }
                    }
                    _ => {
                        msg.meta.set_rpc(None);
                        ctx.up(Up::Send { src, msg });
                    }
                }
            }
            other => ctx.up(other),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut LayerCtx<'_>) {
        if token != RPC_TICK {
            return;
        }
        let now = ctx.now();
        let timeout = self.timeout;
        let max = self.max_retries;
        let mut resend = Vec::new();
        let mut dead = Vec::new();
        for (&id, call) in &mut self.pending {
            if now.saturating_since(call.sent_at) >= timeout {
                if call.retries >= max {
                    dead.push(id);
                } else {
                    call.retries += 1;
                    call.sent_at = now;
                    resend.push((call.dest, call.msg.clone()));
                }
            }
        }
        for (dest, msg) in resend {
            ctx.down(Down::Send { dests: vec![dest], msg });
        }
        for id in dead {
            self.pending.remove(&id);
            self.timed_out += 1;
            ctx.up(Up::SystemError { reason: format!("rpc call {id} timed out") });
        }
        ctx.set_timer(self.timeout, RPC_TICK);
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(
            w,
            "pending={} completed={} timed_out={}",
            self.pending.len(),
            self.completed,
            self.timed_out
        )
    }
}

// =====================================================================
// CLOCKSYNC
// =====================================================================

const CS_FIELDS: &[FieldSpec] = &[FieldSpec::new("kind", 2)];

const CS_PLAIN: u64 = 0;
const CS_REQ: u64 = 1;
const CS_RSP: u64 = 2;

const CS_TICK: u64 = 0;

/// Cristian-style clock synchronization against the view's senior member.
///
/// Each endpoint simulates a skewed local clock (`skew` may be negative);
/// the layer estimates its offset *to the master* from request/response
/// timestamps and exposes the corrected clock.
#[derive(Debug, Clone)]
pub struct ClockSync {
    /// Simulated local clock skew relative to true (virtual) time, in
    /// microseconds (signed).
    skew_us: i64,
    period: Duration,
    view: Option<View>,
    me: Option<EndpointAddr>,
    /// Estimated offset of the master's clock minus ours, µs.
    estimate_us: Option<i64>,
    rounds: u64,
}

impl ClockSync {
    /// Creates a CLOCKSYNC layer whose simulated local clock runs
    /// `skew_us` microseconds away from true time.
    pub fn new(skew_us: i64, period: Duration) -> Self {
        ClockSync { skew_us, period, view: None, me: None, estimate_us: None, rounds: 0 }
    }

    /// The simulated local clock, µs.
    fn local_clock_us(&self, now: SimTime) -> i64 {
        now.as_micros() as i64 + self.skew_us
    }

    /// The estimated master-relative offset, if a round completed.
    pub fn estimated_offset_us(&self) -> Option<i64> {
        self.estimate_us
    }

    /// The corrected clock (local + estimated offset), µs.
    pub fn corrected_clock_us(&self, now: SimTime) -> i64 {
        self.local_clock_us(now) + self.estimate_us.unwrap_or(0)
    }

    fn master(&self) -> Option<EndpointAddr> {
        self.view.as_ref().and_then(|v| v.members().first().copied())
    }
}

impl Default for ClockSync {
    fn default() -> Self {
        ClockSync::new(0, Duration::from_millis(50))
    }
}

impl Layer for ClockSync {
    fn name(&self) -> &'static str {
        "CLOCKSYNC"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        CS_FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        self.me = Some(ctx.local_addr());
        ctx.set_timer(self.period, CS_TICK);
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Send { dests, mut msg } => {
                // Tag pass-through sends so the receive side can tell them
                // from our own protocol frames (compact headers mean every
                // layer's fields are always present).
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, CS_PLAIN);
                ctx.down(Down::Send { dests, msg });
            }
            other => ctx.down(other),
        }
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Send { src, mut msg } => {
                if ctx.open(&mut msg).is_err() {
                    return;
                }
                match ctx.get(&msg, 0) {
                    CS_PLAIN => ctx.up(Up::Send { src, msg }),
                    CS_REQ => {
                        // Master: echo t1 plus our local receive time t2.
                        let mut r = WireReader::new(msg.body());
                        let Ok(t1) = r.get_u64() else { return };
                        let t2 = self.local_clock_us(ctx.now());
                        let mut w = WireWriter::with_capacity(16);
                        w.put_u64(t1);
                        w.put_u64(t2 as u64);
                        let mut rsp = ctx.new_message(w.finish());
                        ctx.stamp(&mut rsp);
                        ctx.set(&mut rsp, 0, CS_RSP);
                        ctx.down(Down::Send { dests: vec![src], msg: rsp });
                    }
                    CS_RSP => {
                        let mut r = WireReader::new(msg.body());
                        let (Ok(t1), Ok(t2)) = (r.get_u64(), r.get_u64()) else { return };
                        let t3 = self.local_clock_us(ctx.now());
                        // Cristian: master clock ≈ t2 + rtt/2 at local t3.
                        let midpoint = (t1 as i64 + t3) / 2;
                        self.estimate_us = Some(t2 as i64 - midpoint);
                        self.rounds += 1;
                    }
                    _ => {}
                }
            }
            Up::View(v) => {
                self.view = Some(v.clone());
                ctx.up(Up::View(v));
            }
            other => ctx.up(other),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut LayerCtx<'_>) {
        if token != CS_TICK {
            return;
        }
        if let (Some(master), Some(me)) = (self.master(), self.me) {
            if master != me {
                let mut w = WireWriter::with_capacity(8);
                w.put_u64(self.local_clock_us(ctx.now()) as u64);
                let mut req = ctx.new_message(w.finish());
                ctx.stamp(&mut req);
                ctx.set(&mut req, 0, CS_REQ);
                ctx.down(Down::Send { dests: vec![master], msg: req });
            } else {
                self.estimate_us = Some(0); // the master is its own truth
            }
        }
        ctx.set_timer(self.period, CS_TICK);
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(
            w,
            "skew={}us estimate={:?}us rounds={}",
            self.skew_us, self.estimate_us, self.rounds
        )
    }
}

// =====================================================================
// SECURE
// =====================================================================

const SEC_FIELDS: &[FieldSpec] = &[
    FieldSpec::new("kind", 2),
    FieldSpec::new("epoch", 32),
    FieldSpec::new("nonce", 32),
    FieldSpec::new("mac", 32),
];

const S_DATA: u64 = 0;
const S_KEY: u64 = 1;
/// Subset sends pass through *unencrypted* (SECURE protects group casts;
/// point-to-point secrecy would use pairwise keys — out of scope).
const S_PLAIN: u64 = 2;

/// Group encryption with membership-driven key rotation (§11).
///
/// Sits above the membership layer.  On every VIEW upcall the view's
/// senior member mints a fresh group key and unicasts it to each member,
/// wrapped under a pairwise key derived from the pre-shared `master`
/// secret.  Data is encrypted and MACed under the current group key; data
/// for an epoch whose key has not yet arrived buffers.  Members excluded
/// from the view never see the new key — forward secrecy at view
/// granularity, the "combines security features with fault-tolerance"
/// idea.  **Toy cryptography** (FNV MAC, XOR keystream).
#[derive(Debug, Clone)]
pub struct Secure {
    master: u64,
    me: Option<EndpointAddr>,
    view: Option<View>,
    /// Keys by epoch (view counter).
    keys: BTreeMap<u32, u64>,
    /// Data waiting for its epoch key.
    held: Vec<(EndpointAddr, u32, Message)>,
    nonce: u32,
    /// Flush in progress: hold casts so they are encrypted under the key
    /// of the view they are actually sent in.
    flushing: bool,
    held_out: Vec<Message>,
    /// Deliveries rejected for a bad MAC.
    pub rejected: u64,
    /// Keys minted (as coordinator).
    pub keys_minted: u64,
}

impl Secure {
    /// Creates a SECURE layer from the pre-shared master secret.
    pub fn new(master: u64) -> Self {
        Secure {
            master,
            me: None,
            view: None,
            keys: BTreeMap::new(),
            held: Vec::new(),
            nonce: 0,
            flushing: false,
            held_out: Vec::new(),
            rejected: 0,
            keys_minted: 0,
        }
    }

    /// Symmetric pairwise key: both sides derive the same secret for the
    /// pair, whichever direction the key travels.
    fn pairwise(&self, peer: EndpointAddr) -> u64 {
        let me = self.me.expect("init");
        let (lo, hi) = if me < peer { (me, peer) } else { (peer, me) };
        let mut data = lo.raw().to_le_bytes().to_vec();
        data.extend_from_slice(&hi.raw().to_le_bytes());
        fnv(&data, self.master)
    }

    fn keystream(key: u64, nonce: u32, body: &[u8]) -> Bytes {
        let mut out = Vec::with_capacity(body.len());
        let mut state = fnv(&nonce.to_le_bytes(), key);
        for (i, &b) in body.iter().enumerate() {
            if i.is_multiple_of(8) {
                state = state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
            }
            out.push(b ^ (state >> ((i % 8) * 8)) as u8);
        }
        Bytes::from(out)
    }

    fn mac(key: u64, nonce: u32, body: &[u8]) -> u64 {
        fnv(body, key ^ nonce as u64) & 0xffff_ffff
    }

    fn epoch(&self) -> u32 {
        self.view.as_ref().map(|v| v.id().counter as u32).unwrap_or(0)
    }

    fn deliver_if_key(
        &mut self,
        src: EndpointAddr,
        epoch: u32,
        mut msg: Message,
        ctx: &mut LayerCtx<'_>,
    ) {
        let Some(&key) = self.keys.get(&epoch) else {
            self.held.push((src, epoch, msg));
            return;
        };
        let nonce = msg.field(ctx.layer_index(), 2) as u32;
        let mac = msg.field(ctx.layer_index(), 3);
        if Self::mac(key, nonce, msg.body()) != mac {
            self.rejected += 1;
            return;
        }
        let plain = Self::keystream(key, nonce, msg.body());
        msg.set_body(plain);
        ctx.up(Up::Cast { src, msg });
    }

    fn rotate_key(&mut self, ctx: &mut LayerCtx<'_>) {
        let Some(view) = self.view.clone() else { return };
        let me = self.me.expect("init");
        if view.members().first() != Some(&me) {
            return; // only the senior member mints keys
        }
        let epoch = self.epoch();
        let group_key = ctx.random_u64() | 1;
        self.keys.insert(epoch, group_key);
        self.keys_minted += 1;
        for &m in view.members() {
            if m == me {
                continue;
            }
            // Wrap the group key under the pairwise key; MAC it.
            let wrap = self.pairwise(m);
            let mut w = WireWriter::with_capacity(20);
            w.put_u32(epoch);
            w.put_u64(group_key ^ wrap);
            w.put_u64(fnv(&group_key.to_le_bytes(), wrap));
            let mut k = ctx.new_message(w.finish());
            ctx.stamp(&mut k);
            ctx.set(&mut k, 0, S_KEY);
            ctx.set(&mut k, 1, epoch as u64);
            ctx.set(&mut k, 2, 0);
            ctx.set(&mut k, 3, 0);
            ctx.down(Down::Send { dests: vec![m], msg: k });
        }
    }

    /// Sends casts held during a flush once the new view's key exists.
    fn release_held_out(&mut self, ctx: &mut LayerCtx<'_>) {
        if self.flushing || !self.keys.contains_key(&self.epoch()) {
            return;
        }
        let held: Vec<Message> = std::mem::take(&mut self.held_out);
        for msg in held {
            self.send_encrypted(msg, ctx);
        }
    }

    fn send_encrypted(&mut self, mut msg: Message, ctx: &mut LayerCtx<'_>) {
        let epoch = self.epoch();
        let Some(&key) = self.keys.get(&epoch) else {
            ctx.up(Up::SystemError {
                reason: "SECURE: no group key for the current view yet".to_string(),
            });
            return;
        };
        self.nonce = self.nonce.wrapping_add(1);
        let cipher = Self::keystream(key, self.nonce, msg.body());
        let mac = Self::mac(key, self.nonce, &cipher);
        msg.set_body(cipher);
        ctx.stamp(&mut msg);
        ctx.set(&mut msg, 0, S_DATA);
        ctx.set(&mut msg, 1, epoch as u64);
        ctx.set(&mut msg, 2, self.nonce as u64);
        ctx.set(&mut msg, 3, mac);
        ctx.down(Down::Cast(msg));
    }
}

impl Layer for Secure {
    fn name(&self) -> &'static str {
        "SECURE"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        SEC_FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        self.me = Some(ctx.local_addr());
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(msg) => {
                if self.flushing {
                    // Hold: the message must be encrypted under the key of
                    // the view it is sent in, which a flush is about to
                    // replace.
                    self.held_out.push(msg);
                } else {
                    self.send_encrypted(msg, ctx);
                }
            }
            Down::Send { dests, mut msg } => {
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, S_PLAIN);
                ctx.set(&mut msg, 1, 0);
                ctx.set(&mut msg, 2, 0);
                ctx.set(&mut msg, 3, 0);
                ctx.down(Down::Send { dests, msg });
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
                let epoch = ctx.get(&msg, 1) as u32;
                self.deliver_if_key(src, epoch, msg, ctx);
            }
            Up::Send { src, mut msg } => {
                if ctx.open(&mut msg).is_err() {
                    return;
                }
                if ctx.get(&msg, 0) == S_KEY {
                    let body = msg.body().clone();
                    let mut r = WireReader::new(&body);
                    let (Ok(epoch), Ok(wrapped), Ok(check)) =
                        (r.get_u32(), r.get_u64(), r.get_u64())
                    else {
                        return;
                    };
                    let wrap = self.pairwise(src);
                    let key = wrapped ^ wrap;
                    if fnv(&key.to_le_bytes(), wrap) != check {
                        self.rejected += 1;
                        return; // wrong master secret somewhere
                    }
                    self.keys.insert(epoch, key);
                    // Release any data that was waiting for this key.
                    let held = std::mem::take(&mut self.held);
                    for (s, e, m) in held {
                        self.deliver_if_key(s, e, m, ctx);
                    }
                    self.release_held_out(ctx);
                } else {
                    ctx.up(Up::Send { src, msg });
                }
            }
            Up::View(v) => {
                self.view = Some(v.clone());
                self.flushing = false;
                // Old epochs' keys stay for late deliveries; data of future
                // epochs buffers until that epoch's key arrives.
                ctx.up(Up::View(v));
                self.rotate_key(ctx);
                self.release_held_out(ctx);
            }
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
            "epoch={} keys={} held={} minted={} rejected={}",
            self.epoch(),
            self.keys.len(),
            self.held.len(),
            self.keys_minted,
            self.rejected
        )
    }
}

// =====================================================================
// MUX
// =====================================================================

const MUX_FIELDS: &[FieldSpec] = &[FieldSpec::new("chan", 6)];

/// Cactus-stack multiplexing (§4): several logical applications share one
/// protocol stack, distinguished by `msg.meta.channel`.
#[derive(Debug, Default, Clone)]
pub struct Mux {
    per_channel: BTreeMap<u8, u64>,
}

impl Mux {
    /// Creates a MUX layer.
    pub fn new() -> Self {
        Mux::default()
    }

    /// Messages seen per channel.
    pub fn traffic(&self) -> &BTreeMap<u8, u64> {
        &self.per_channel
    }
}

impl Layer for Mux {
    fn name(&self) -> &'static str {
        "MUX"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        MUX_FIELDS
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(mut msg) => {
                let chan = msg.meta.channel.min(63);
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, chan as u64);
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
                let chan = ctx.get(&msg, 0) as u8;
                msg.meta.channel = chan;
                *self.per_channel.entry(chan).or_insert(0) += 1;
                ctx.up(Up::Cast { src, msg });
            }
            other => ctx.up(other),
        }
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(w, "channels={:?}", self.per_channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::com::Com;
    use crate::frag::Frag;
    use crate::mbrship::{Mbrship, MbrshipConfig};
    use crate::nak::Nak;
    use horus_net::NetConfig;
    use horus_sim::SimWorld;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn pair(seed: u64, net: NetConfig, mk: impl Fn() -> Vec<Box<dyn Layer>>) -> SimWorld {
        let mut w = SimWorld::new(seed, net);
        for i in 1..=2 {
            let s = StackBuilder::new(ep(i)).extend(mk()).build().unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        w
    }

    type SendRecord = (EndpointAddr, Vec<u8>, Option<(u64, bool)>);

    fn sends_of(w: &SimWorld, e: EndpointAddr) -> Vec<SendRecord> {
        w.upcalls(e)
            .iter()
            .filter_map(|(_, up)| match up {
                Up::Send { src, msg } => Some((*src, msg.body().to_vec(), msg.meta.rpc())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn rpc_request_reply_roundtrip() {
        let mk = || -> Vec<Box<dyn Layer>> {
            vec![Box::new(Rpc::default()), Box::new(Nak::default()), Box::new(Com::new())]
        };
        let mut w = pair(1, NetConfig::reliable(), mk);
        // Client request.
        let mut req = w.stack(ep(1)).unwrap().new_message(&b"what time is it"[..]);
        req.meta.set_rpc(Some((0, false)));
        w.down(ep(1), Down::Send { dests: vec![ep(2)], msg: req });
        w.run_for(Duration::from_millis(50));
        // Server sees the request with an id and replies.
        let got = sends_of(&w, ep(2));
        assert_eq!(got.len(), 1);
        let (src, body, rpc) = &got[0];
        assert_eq!(*src, ep(1));
        assert_eq!(&body[..], b"what time is it");
        let (id, is_reply) = rpc.expect("request id attached");
        assert!(!is_reply);
        let mut rsp = w.stack(ep(2)).unwrap().new_message(&b"simulated oclock"[..]);
        rsp.meta.set_rpc(Some((id, true)));
        w.down(ep(2), Down::Send { dests: vec![ep(1)], msg: rsp });
        w.run_for(Duration::from_millis(50));
        let got = sends_of(&w, ep(1));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].2, Some((id, true)));
        let rpc_layer: &Rpc = w.stack(ep(1)).unwrap().focus_as("RPC").unwrap();
        assert_eq!(rpc_layer.completed, 1);
    }

    #[test]
    fn rpc_times_out_when_server_is_gone() {
        let mk = || -> Vec<Box<dyn Layer>> {
            vec![
                Box::new(Rpc::new(Duration::from_millis(30), 2)),
                Box::new(Nak::default()),
                Box::new(Com::new()),
            ]
        };
        let mut w = pair(2, NetConfig::reliable(), mk);
        w.crash_at(SimTime::from_millis(1), ep(2));
        let mut req = w.stack(ep(1)).unwrap().new_message(&b"anyone?"[..]);
        req.meta.set_rpc(Some((0, false)));
        w.down_at(SimTime::from_millis(2), ep(1), Down::Send { dests: vec![ep(2)], msg: req });
        w.run_for(Duration::from_secs(1));
        assert!(w.upcalls(ep(1)).iter().any(
            |(_, up)| matches!(up, Up::SystemError { reason } if reason.contains("timed out"))
        ));
        let rpc_layer: &Rpc = w.stack(ep(1)).unwrap().focus_as("RPC").unwrap();
        assert_eq!(rpc_layer.timed_out, 1);
    }

    #[test]
    fn rpc_retries_through_loss() {
        // RPC over a bare lossy COM (no NAK): its own retries do the work.
        let mk = || -> Vec<Box<dyn Layer>> {
            vec![Box::new(Rpc::new(Duration::from_millis(20), 10)), Box::new(Com::new())]
        };
        let mut w = pair(3, NetConfig::lossy(0.4), mk);
        let mut req = w.stack(ep(1)).unwrap().new_message(&b"ping"[..]);
        req.meta.set_rpc(Some((0, false)));
        w.down(ep(1), Down::Send { dests: vec![ep(2)], msg: req });
        w.run_for(Duration::from_millis(200));
        // Server saw at least one copy; reply (also lossy, so echo several
        // times through the app layer is cheating — a single reply may be
        // lost, but the request retry keeps re-delivering at the server,
        // which replies each time in this test driver).
        for (_, _, rpc) in sends_of(&w, ep(2)) {
            let (id, _) = rpc.unwrap();
            let mut rsp = w.stack(ep(2)).unwrap().new_message(&b"pong"[..]);
            rsp.meta.set_rpc(Some((id, true)));
            w.down(ep(2), Down::Send { dests: vec![ep(1)], msg: rsp });
        }
        w.run_for(Duration::from_secs(1));
        // With 40% loss and 10 retries the call almost surely completed;
        // at minimum the layer never double-delivers one id.
        let replies = sends_of(&w, ep(1));
        assert!(replies.len() <= 1, "duplicate suppression");
    }

    #[test]
    fn clocksync_estimates_skew() {
        let mut w = SimWorld::new(4, NetConfig::reliable());
        let skews: [i64; 3] = [0, 5_000, -3_000];
        for i in 1..=3u64 {
            let s = StackBuilder::new(ep(i))
                .push(Box::new(ClockSync::new(skews[(i - 1) as usize], Duration::from_millis(20))))
                .push(Box::new(Mbrship::new(MbrshipConfig::default())))
                .push(Box::new(Frag::default()))
                .push(Box::new(Nak::default()))
                .push(Box::new(Com::promiscuous()))
                .build()
                .unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        for i in 2..=3 {
            w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
        }
        w.run_for(Duration::from_secs(2));
        // ep1 (skew 0) is the senior member = master.  The others should
        // estimate their offsets to within the network RTT (~400 µs).
        for i in 2..=3u64 {
            let cs: &ClockSync = w.stack(ep(i)).unwrap().focus_as("CLOCKSYNC").unwrap();
            let est = cs.estimated_offset_us().expect("a sync round completed");
            let truth = -skews[(i - 1) as usize];
            assert!((est - truth).abs() < 500, "ep{i}: estimated {est}us vs true {truth}us");
            // Corrected clocks agree with true virtual time to the same
            // tolerance.
            let corrected = cs.corrected_clock_us(w.now());
            assert!((corrected - w.now().as_micros() as i64).abs() < 500);
        }
    }

    #[test]
    fn secure_rotates_keys_with_views_and_delivers() {
        let mk_stack = |i: u64, master: u64| -> Stack {
            StackBuilder::new(ep(i))
                .push(Box::new(Secure::new(master)))
                .push(Box::new(Mbrship::new(MbrshipConfig::default())))
                .push(Box::new(Frag::default()))
                .push(Box::new(Nak::default()))
                .push(Box::new(Com::promiscuous()))
                .build()
                .unwrap()
        };
        let mut w = SimWorld::new(5, NetConfig::reliable());
        for i in 1..=3 {
            w.add_endpoint(mk_stack(i, 0xfeed));
            w.join(ep(i), GroupAddr::new(1));
        }
        for i in 2..=3 {
            w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
        }
        w.run_for(Duration::from_secs(2));
        w.cast_bytes(ep(2), &b"secret plans"[..]);
        w.run_for(Duration::from_millis(500));
        for i in 1..=3 {
            let got = w.delivered_casts(ep(i));
            assert_eq!(got.len(), 1, "ep{i}");
            assert_eq!(&got[0].1[..], b"secret plans");
        }
        // Key rotation happened per view (singletons + merges).
        let s1: &Secure = w.stack(ep(1)).unwrap().focus_as("SECURE").unwrap();
        assert!(s1.keys_minted >= 2, "minted={}", s1.keys_minted);
        // A crash rotates again and traffic still flows.
        let t = w.now();
        w.crash_at(t, ep(3));
        w.run_for(Duration::from_secs(2));
        w.cast_bytes(ep(1), &b"post-rotation"[..]);
        w.run_for(Duration::from_millis(500));
        assert!(w.delivered_casts(ep(2)).iter().any(|(_, b, _)| &b[..] == b"post-rotation"));
    }

    #[test]
    fn secure_wire_is_ciphertext() {
        let key = 0xbeef;
        let cipher = Secure::keystream(key, 7, b"attack at dawn!!");
        assert_ne!(&cipher[..], b"attack at dawn!!");
        assert_eq!(&Secure::keystream(key, 7, &cipher)[..], b"attack at dawn!!");
        assert_ne!(Secure::keystream(key, 8, b"attack at dawn!!"), cipher);
    }

    #[test]
    fn mux_separates_channels() {
        let mk = || -> Vec<Box<dyn Layer>> {
            vec![Box::new(Mux::new()), Box::new(Nak::default()), Box::new(Com::new())]
        };
        let mut w = pair(6, NetConfig::reliable(), mk);
        for (chan, text) in [(0u8, "control"), (5, "bulk"), (5, "bulk2"), (9, "telemetry")] {
            let mut m = w.stack(ep(1)).unwrap().new_message(text.as_bytes().to_vec());
            m.meta.channel = chan;
            w.down(ep(1), Down::Cast(m));
        }
        w.run_for(Duration::from_millis(100));
        let by_chan: Vec<(u8, Vec<u8>)> = w
            .upcalls(ep(2))
            .iter()
            .filter_map(|(_, up)| match up {
                Up::Cast { msg, .. } => Some((msg.meta.channel, msg.body().to_vec())),
                _ => None,
            })
            .collect();
        assert_eq!(by_chan.len(), 4);
        assert_eq!(by_chan[0], (0, b"control".to_vec()));
        assert_eq!(by_chan[1], (5, b"bulk".to_vec()));
        assert_eq!(by_chan[3], (9, b"telemetry".to_vec()));
        let mux: &Mux = w.stack(ep(2)).unwrap().focus_as("MUX").unwrap();
        assert_eq!(mux.traffic()[&5], 2);
    }
}
