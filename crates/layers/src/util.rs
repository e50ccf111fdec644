//! The Figure 1 protocol-type catalogue: small single-purpose layers.
//!
//! The paper's table of "common protocol types" lists checksumming,
//! signing, encryption, compression, flow control, tracing, logging,
//! accounting and more; Horus shipped "a library of about thirty different
//! protocols, each providing a particular communication feature".  This
//! module supplies those building blocks.  Each is deliberately tiny —
//! the LEGO-block premise is that features compose by stacking, not by
//! widening any one protocol.
//!
//! Security-flavoured layers ([`Sign`], [`Encrypt`]) use toy keyed
//! constructions (FNV-based MAC, XOR keystream).  They exercise the same
//! code paths, header budgets, and composition behaviour as real
//! cryptography — which is what the framework reproduction needs — but
//! offer **no actual security**; see DESIGN.md's substitution table.

use bytes::Bytes;
use horus_core::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::time::Duration;

// ---------------------------------------------------------------------
// NOP
// ---------------------------------------------------------------------

/// A do-nothing pass-through layer; the unit of layer-crossing cost in the
/// §10 benchmarks, and a skip-optimization target (it declares itself
/// passive).
#[derive(Debug, Default, Clone)]
pub struct Nop;

impl Layer for Nop {
    fn name(&self) -> &'static str {
        "NOP"
    }
    fn is_passive(&self) -> bool {
        true
    }
}

/// A do-nothing layer that *hides* its passivity, so the runtime cannot
/// skip it: the §10 problem-1 baseline.
#[derive(Debug, Default, Clone)]
pub struct NopOpaque;

impl Layer for NopOpaque {
    fn name(&self) -> &'static str {
        "NOP_OPAQUE"
    }
}

// ---------------------------------------------------------------------
// CHKSUM
// ---------------------------------------------------------------------

/// Seeded FNV-1a: CHKSUM's checksum here, SECURE's toy key derivation,
/// keystream and MAC in `services`.
pub(crate) fn fnv(data: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

const CHKSUM_FIELDS: &[FieldSpec] = &[FieldSpec::new("sum", 32)];

/// Garbling detection (§2's first example layer): a 32-bit checksum over
/// the body, verified on delivery.
#[derive(Debug, Default, Clone)]
pub struct Chksum {
    /// Messages dropped for checksum mismatch.
    pub dropped: u64,
}

impl Layer for Chksum {
    fn name(&self) -> &'static str {
        "CHKSUM"
    }
    fn header_fields(&self) -> &'static [FieldSpec] {
        CHKSUM_FIELDS
    }
    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(mut msg) => {
                let sum = fnv(msg.body(), 0) & 0xffff_ffff;
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, sum);
                ctx.down(Down::Cast(msg));
            }
            Down::Send { dests, mut msg } => {
                let sum = fnv(msg.body(), 0) & 0xffff_ffff;
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, sum);
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
                if ctx.get(&msg, 0) != fnv(msg.body(), 0) & 0xffff_ffff {
                    self.dropped += 1;
                    return;
                }
                ctx.up(Up::Cast { src, msg });
            }
            Up::Send { src, mut msg } => {
                if ctx.open(&mut msg).is_err() {
                    return;
                }
                if ctx.get(&msg, 0) != fnv(msg.body(), 0) & 0xffff_ffff {
                    self.dropped += 1;
                    return;
                }
                ctx.up(Up::Send { src, msg });
            }
            other => ctx.up(other),
        }
    }
    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(w, "dropped={}", self.dropped)
    }
}

// ---------------------------------------------------------------------
// SIGN
// ---------------------------------------------------------------------

const SIGN_FIELDS: &[FieldSpec] = &[FieldSpec::new("mac", 64)];

/// The "cryptographic checksum" of §2: a keyed MAC making impersonation by
/// non-key-holders (in the toy model) detectable.
#[derive(Debug, Clone)]
pub struct Sign {
    key: u64,
    /// Messages rejected for MAC mismatch.
    pub rejected: u64,
}

impl Sign {
    /// Creates a signing layer with a shared group key.
    pub fn new(key: u64) -> Self {
        Sign { key, rejected: 0 }
    }
}

impl Layer for Sign {
    fn name(&self) -> &'static str {
        "SIGN"
    }
    fn header_fields(&self) -> &'static [FieldSpec] {
        SIGN_FIELDS
    }
    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(mut msg) => {
                let mac = fnv(msg.body(), self.key);
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, mac);
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
                if ctx.get(&msg, 0) != fnv(msg.body(), self.key) {
                    self.rejected += 1;
                    return;
                }
                ctx.up(Up::Cast { src, msg });
            }
            other => ctx.up(other),
        }
    }
    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(w, "rejected={}", self.rejected)
    }
}

// ---------------------------------------------------------------------
// ENCRYPT
// ---------------------------------------------------------------------

const ENCRYPT_FIELDS: &[FieldSpec] = &[FieldSpec::new("nonce", 32)];

/// Private communication (Figure 1): a toy XOR keystream over the body.
#[derive(Debug, Clone)]
pub struct Encrypt {
    key: u64,
    nonce: u32,
}

impl Encrypt {
    /// Creates an encryption layer with a shared group key.
    pub fn new(key: u64) -> Self {
        Encrypt { key, nonce: 0 }
    }

    fn apply(&self, nonce: u32, body: &[u8]) -> Bytes {
        let mut out = Vec::with_capacity(body.len());
        let mut state = fnv(&nonce.to_le_bytes(), self.key);
        for (i, &b) in body.iter().enumerate() {
            if i.is_multiple_of(8) {
                state = state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
            }
            out.push(b ^ (state >> ((i % 8) * 8)) as u8);
        }
        Bytes::from(out)
    }
}

impl Layer for Encrypt {
    fn name(&self) -> &'static str {
        "ENCRYPT"
    }
    fn header_fields(&self) -> &'static [FieldSpec] {
        ENCRYPT_FIELDS
    }
    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(mut msg) => {
                self.nonce = self.nonce.wrapping_add(1);
                let body = self.apply(self.nonce, msg.body());
                msg.set_body(body);
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, self.nonce as u64);
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
                let nonce = ctx.get(&msg, 0) as u32;
                let body = self.apply(nonce, msg.body());
                msg.set_body(body);
                ctx.up(Up::Cast { src, msg });
            }
            other => ctx.up(other),
        }
    }
}

// ---------------------------------------------------------------------
// COMPRESS
// ---------------------------------------------------------------------

const COMPRESS_FIELDS: &[FieldSpec] = &[FieldSpec::new("packed", 1)];

/// Bandwidth improvement (Figure 1): run-length encoding, applied only
/// when it actually shrinks the body.
#[derive(Debug, Default, Clone)]
pub struct Compress {
    /// Bodies that were worth compressing.
    pub packed: u64,
    /// Bytes saved in total.
    pub saved: u64,
}

fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == b && run < 255 {
            run += 1;
        }
        out.push(run as u8);
        out.push(b);
        i += run;
    }
    out
}

fn rle_decode(data: &[u8]) -> Option<Vec<u8>> {
    if !data.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::new();
    for pair in data.chunks(2) {
        let (run, b) = (pair[0] as usize, pair[1]);
        if run == 0 {
            return None;
        }
        out.extend(std::iter::repeat_n(b, run));
    }
    Some(out)
}

impl Layer for Compress {
    fn name(&self) -> &'static str {
        "COMPRESS"
    }
    fn header_fields(&self) -> &'static [FieldSpec] {
        COMPRESS_FIELDS
    }
    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(mut msg) => {
                let encoded = rle_encode(msg.body());
                let packed = encoded.len() < msg.body().len();
                if packed {
                    self.packed += 1;
                    self.saved += (msg.body().len() - encoded.len()) as u64;
                    msg.set_body(encoded);
                }
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, packed as u64);
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
                if ctx.get(&msg, 0) == 1 {
                    match rle_decode(msg.body()) {
                        Some(body) => {
                            msg.set_body(body);
                        }
                        None => return, // corrupt
                    }
                }
                ctx.up(Up::Cast { src, msg });
            }
            other => ctx.up(other),
        }
    }
    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(w, "packed={} saved={}B", self.packed, self.saved)
    }
}

// ---------------------------------------------------------------------
// FLOW
// ---------------------------------------------------------------------

const FLOW_REFILL: u64 = 0;

/// FLOW's token refill period.
const FLOW_PERIOD: Duration = Duration::from_millis(10);

/// Congestion prevention (Figure 1): a token-bucket rate limiter on
/// outgoing casts.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Casts allowed per refill period.
    rate: u32,
    tokens: u32,
    queue: VecDeque<Message>,
    /// Longest queue observed.
    pub max_queue: usize,
}

impl Flow {
    /// Creates a FLOW layer allowing `rate` casts per `FLOW_PERIOD`.
    pub fn new(rate: u32) -> Self {
        Flow { rate, tokens: rate, queue: VecDeque::new(), max_queue: 0 }
    }
}

impl Default for Flow {
    fn default() -> Self {
        Flow::new(100)
    }
}

impl Layer for Flow {
    fn name(&self) -> &'static str {
        "FLOW"
    }
    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        ctx.set_timer(FLOW_PERIOD, FLOW_REFILL);
    }
    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(msg) => {
                if self.tokens > 0 && self.queue.is_empty() {
                    self.tokens -= 1;
                    ctx.down(Down::Cast(msg));
                } else {
                    self.queue.push_back(msg);
                    self.max_queue = self.max_queue.max(self.queue.len());
                }
            }
            other => ctx.down(other),
        }
    }
    fn on_timer(&mut self, token: u64, ctx: &mut LayerCtx<'_>) {
        if token == FLOW_REFILL {
            self.tokens = self.rate;
            while self.tokens > 0 {
                match self.queue.pop_front() {
                    Some(msg) => {
                        self.tokens -= 1;
                        ctx.down(Down::Cast(msg));
                    }
                    None => break,
                }
            }
            ctx.set_timer(FLOW_PERIOD, FLOW_REFILL);
        }
    }
    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(w, "tokens={} queued={} max_queue={}", self.tokens, self.queue.len(), self.max_queue)
    }
}

// ---------------------------------------------------------------------
// PRIO
// ---------------------------------------------------------------------

const PRIO_FLUSH: u64 = 0;

/// Prioritized effort delivery (P2): casts accumulate briefly and leave in
/// priority order (highest [`horus_core::message::MessageMeta::priority`]
/// first).
#[derive(Debug, Clone)]
pub struct Prio {
    window: Duration,
    queue: Vec<Message>,
    reordered: u64,
}

impl Prio {
    /// Creates a PRIO layer batching casts over `window`.
    pub fn new(window: Duration) -> Self {
        Prio { window, queue: Vec::new(), reordered: 0 }
    }
}

impl Default for Prio {
    fn default() -> Self {
        Prio::new(Duration::from_millis(1))
    }
}

impl Layer for Prio {
    fn name(&self) -> &'static str {
        "PRIO"
    }
    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        ctx.set_timer(self.window, PRIO_FLUSH);
    }
    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(msg) => self.queue.push(msg),
            other => ctx.down(other),
        }
    }
    fn on_timer(&mut self, token: u64, ctx: &mut LayerCtx<'_>) {
        if token == PRIO_FLUSH {
            // Stable sort: equal priorities keep arrival order.
            self.queue.sort_by_key(|m| std::cmp::Reverse(m.meta.priority));
            for msg in self.queue.drain(..) {
                self.reordered += 1;
                ctx.down(Down::Cast(msg));
            }
            ctx.set_timer(self.window, PRIO_FLUSH);
        }
    }
    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(w, "queued={} sent={}", self.queue.len(), self.reordered)
    }
}

// ---------------------------------------------------------------------
// TRACE
// ---------------------------------------------------------------------

/// Debugging and statistics (Figure 1): counts every event crossing the
/// layer.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    downs: BTreeMap<&'static str, u64>,
    ups: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// Creates a TRACE layer.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Event counts observed going down.
    pub fn down_counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.downs
    }
}

impl Layer for Trace {
    fn name(&self) -> &'static str {
        "TRACE"
    }
    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        *self.downs.entry(ev.kind()).or_insert(0) += 1;
        ctx.down(ev);
    }
    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        *self.ups.entry(ev.kind()).or_insert(0) += 1;
        ctx.up(ev);
    }
    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(w, "down={:?} up={:?}", self.downs, self.ups)
    }
}

// ---------------------------------------------------------------------
// ACCT
// ---------------------------------------------------------------------

/// Usage accounting (Figure 1): bytes and messages per source.
#[derive(Debug, Default, Clone)]
pub struct Acct {
    by_source: BTreeMap<EndpointAddr, (u64, u64)>,
    sent_msgs: u64,
    sent_bytes: u64,
}

impl Acct {
    /// Creates an ACCT layer.
    pub fn new() -> Self {
        Acct::default()
    }

    /// `(messages, bytes)` received from `src`.
    pub fn usage_of(&self, src: EndpointAddr) -> (u64, u64) {
        self.by_source.get(&src).copied().unwrap_or((0, 0))
    }
}

impl Layer for Acct {
    fn name(&self) -> &'static str {
        "ACCT"
    }
    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        if let Down::Cast(msg) = &ev {
            self.sent_msgs += 1;
            self.sent_bytes += msg.body().len() as u64;
        }
        ctx.down(ev);
    }
    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        if let Up::Cast { src, msg } = &ev {
            let e = self.by_source.entry(*src).or_insert((0, 0));
            e.0 += 1;
            e.1 += msg.body().len() as u64;
        }
        ctx.up(ev);
    }
    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(
            w,
            "sent={}msg/{}B recv_sources={:?}",
            self.sent_msgs, self.sent_bytes, self.by_source
        )
    }
}

// ---------------------------------------------------------------------
// LOGGER
// ---------------------------------------------------------------------

/// Tolerance of total crash failures (Figure 1): journals every delivered
/// cast, emulating a disk log an operator could replay after a
/// whole-group restart.
#[derive(Debug, Default, Clone)]
pub struct Logger {
    journal: Vec<(EndpointAddr, Bytes)>,
}

impl Logger {
    /// Creates a LOGGER layer.
    pub fn new() -> Self {
        Logger::default()
    }

    /// The journal of `(source, body)` pairs, in delivery order.
    pub fn journal(&self) -> &[(EndpointAddr, Bytes)] {
        &self.journal
    }
}

impl Layer for Logger {
    fn name(&self) -> &'static str {
        "LOGGER"
    }
    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        if let Up::Cast { src, msg } = &ev {
            self.journal.push((*src, msg.body().clone()));
        }
        ctx.up(ev);
    }
    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(w, "journal={} entries", self.journal.len())
    }
}

// ---------------------------------------------------------------------
// DROP
// ---------------------------------------------------------------------

/// Fault injection for tests: deterministically drops every `nth`
/// outgoing cast.
#[derive(Debug, Clone)]
pub struct DropEvery {
    nth: u64,
    count: u64,
    /// Casts discarded so far.
    pub dropped: u64,
}

impl DropEvery {
    /// Creates a layer dropping every `nth` cast (n >= 1).
    ///
    /// # Panics
    ///
    /// Panics if `nth` is zero.
    pub fn new(nth: u64) -> Self {
        assert!(nth >= 1, "drop period must be at least 1");
        DropEvery { nth, count: 0, dropped: 0 }
    }
}

impl Layer for DropEvery {
    fn name(&self) -> &'static str {
        "DROP"
    }
    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(msg) => {
                self.count += 1;
                if self.count.is_multiple_of(self.nth) {
                    self.dropped += 1;
                } else {
                    ctx.down(Down::Cast(msg));
                }
            }
            other => ctx.down(other),
        }
    }
    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(w, "dropped={}", self.dropped)
    }
}

// ---------------------------------------------------------------------
// SEQNO
// ---------------------------------------------------------------------

const SEQNO_FIELDS: &[FieldSpec] = &[FieldSpec::new("seq", 32)];

/// The minimal sequence-number layer of §2's class-hierarchy story: stamps
/// a per-sender sequence number and *detects* loss and reordering (PROBLEM
/// upcall) without repairing it — the didactic little sibling of NAK.
#[derive(Debug, Default, Clone)]
pub struct Seqno {
    next: u32,
    expected: BTreeMap<EndpointAddr, u32>,
    /// Gaps or reorderings observed.
    pub anomalies: u64,
}

impl Layer for Seqno {
    fn name(&self) -> &'static str {
        "SEQNO"
    }
    fn header_fields(&self) -> &'static [FieldSpec] {
        SEQNO_FIELDS
    }
    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(mut msg) => {
                self.next += 1;
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, self.next as u64);
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
                let seq = ctx.get(&msg, 0) as u32;
                let expected = self.expected.entry(src).or_insert(1);
                if seq != *expected {
                    self.anomalies += 1;
                    ctx.up(Up::Problem { member: src });
                }
                *expected = (*expected).max(seq) + 1;
                ctx.up(Up::Cast { src, msg });
            }
            other => ctx.up(other),
        }
    }
    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(w, "sent={} anomalies={}", self.next, self.anomalies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::com::Com;
    use crate::nak::Nak;
    use horus_net::NetConfig;
    use horus_sim::SimWorld;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn pair_world(seed: u64, mk: impl Fn() -> Vec<Box<dyn Layer>>, net: NetConfig) -> SimWorld {
        let mut w = SimWorld::new(seed, net);
        for i in 1..=2 {
            let s = StackBuilder::new(ep(i)).extend(mk()).build().unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        w
    }

    #[test]
    fn chksum_catches_garbling_that_slips_past_framing() {
        let mut cfg = NetConfig::reliable();
        cfg.garble = 0.5;
        let mut w = pair_world(1, || vec![Box::new(Chksum::default()), Box::new(Com::new())], cfg);
        for k in 0..40u8 {
            w.cast_bytes(ep(1), vec![k; 32]);
        }
        w.run_for(Duration::from_millis(100));
        // Whatever was delivered is intact.
        for (_, body, _) in w.delivered_casts(ep(2)) {
            assert!(body.iter().all(|&b| b == body[0]));
        }
        let delivered = w.delivered_casts(ep(2)).len();
        let c: &Chksum = w.stack(ep(2)).unwrap().focus_as("CHKSUM").unwrap();
        let frame_drops = w.stack_stats(ep(2)).unwrap().decode_drops
            + w.stack_stats(ep(2)).unwrap().fingerprint_drops;
        assert_eq!(delivered as u64 + c.dropped + frame_drops, 40);
    }

    #[test]
    fn sign_rejects_wrong_key() {
        // Sender signs with key 1, receiver verifies with key 2.
        let mut w = SimWorld::new(2, NetConfig::reliable());
        let s1 = StackBuilder::new(ep(1))
            .push(Box::new(Sign::new(1)))
            .push(Box::new(Com::new()))
            .build()
            .unwrap();
        let s2 = StackBuilder::new(ep(2))
            .push(Box::new(Sign::new(2)))
            .push(Box::new(Com::new()))
            .build()
            .unwrap();
        w.add_endpoint(s1);
        w.add_endpoint(s2);
        w.join(ep(1), GroupAddr::new(1));
        w.join(ep(2), GroupAddr::new(1));
        w.cast_bytes(ep(1), &b"forged?"[..]);
        w.run_for(Duration::from_millis(50));
        assert!(w.delivered_casts(ep(2)).is_empty());
        let s: &Sign = w.stack(ep(2)).unwrap().focus_as("SIGN").unwrap();
        assert_eq!(s.rejected, 1);
    }

    #[test]
    fn encrypt_roundtrips_and_hides_plaintext() {
        let key = 0xfeed;
        let mk = move || -> Vec<Box<dyn Layer>> {
            vec![Box::new(Encrypt::new(key)), Box::new(Com::new())]
        };
        let mut w = pair_world(3, mk, NetConfig::reliable());
        w.cast_bytes(ep(1), &b"attack at dawn"[..]);
        w.run_for(Duration::from_millis(50));
        let got = w.delivered_casts(ep(2));
        assert_eq!(&got[0].1[..], b"attack at dawn");
        // Ciphertext on the wire differs from the plaintext.
        let sent = w.stack_stats(ep(1)).unwrap().bytes_sent;
        assert!(sent > 0);
    }

    #[test]
    fn encrypted_bytes_differ_from_plaintext() {
        let e = Encrypt::new(42);
        let ct = e.apply(7, b"aaaaaaaaaaaaaaaa");
        assert_ne!(&ct[..], b"aaaaaaaaaaaaaaaa");
        assert_eq!(&e.apply(7, &ct)[..], b"aaaaaaaaaaaaaaaa");
        // Different nonces give different keystreams.
        assert_ne!(e.apply(8, b"aaaaaaaaaaaaaaaa"), ct);
    }

    #[test]
    fn compress_shrinks_redundant_bodies_only() {
        let mk =
            || -> Vec<Box<dyn Layer>> { vec![Box::new(Compress::default()), Box::new(Com::new())] };
        let mut w = pair_world(4, mk, NetConfig::reliable());
        w.cast_bytes(ep(1), vec![7u8; 400]); // compresses well
                                             // COMPRESS:COM has no FIFO layer, so space the casts beyond the
                                             // network's latency jitter to keep delivery order deterministic.
        w.run_for(Duration::from_millis(5));
        w.cast_bytes(ep(1), (0..=255u8).collect::<Vec<_>>()); // incompressible
        w.run_for(Duration::from_millis(50));
        let got = w.delivered_casts(ep(2));
        assert_eq!(got.len(), 2);
        assert_eq!(&got[0].1[..], &vec![7u8; 400][..]);
        assert_eq!(&got[1].1[..], &(0..=255u8).collect::<Vec<_>>()[..]);
        let c: &Compress = w.stack(ep(1)).unwrap().focus_as("COMPRESS").unwrap();
        assert_eq!(c.packed, 1);
        assert!(c.saved > 300);
    }

    #[test]
    fn flow_paces_bursts() {
        let mk = || -> Vec<Box<dyn Layer>> { vec![Box::new(Flow::new(5)), Box::new(Com::new())] };
        let mut w = pair_world(5, mk, NetConfig::reliable());
        for k in 0..20u8 {
            w.cast_bytes(ep(1), vec![k]);
        }
        w.run_for(Duration::from_millis(5));
        assert!(w.delivered_casts(ep(2)).len() <= 5, "first period at most 5");
        w.run_for(Duration::from_millis(100));
        assert_eq!(w.delivered_casts(ep(2)).len(), 20, "eventually all");
    }

    #[test]
    fn prio_reorders_within_window() {
        // Zero-jitter network: PRIO orders the *send* sequence; a jittery
        // network could still reorder arrivals.
        let mut cfg = NetConfig::reliable();
        cfg.latency_max = cfg.latency_min;
        let mut w = SimWorld::new(6, cfg);
        for i in 1..=2 {
            let s = StackBuilder::new(ep(i))
                .push(Box::new(Prio::new(Duration::from_millis(5))))
                .push(Box::new(Com::new()))
                .build()
                .unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        // Low priority first, high priority second: high should arrive
        // first.
        let mut low = w.stack(ep(1)).unwrap().new_message(&b"low"[..]);
        low.meta.priority = 0;
        let mut high = w.stack(ep(1)).unwrap().new_message(&b"high"[..]);
        high.meta.priority = 9;
        w.down(ep(1), Down::Cast(low));
        w.down(ep(1), Down::Cast(high));
        w.run_for(Duration::from_millis(50));
        let got: Vec<Vec<u8>> =
            w.delivered_casts(ep(2)).iter().map(|(_, b, _)| b.to_vec()).collect();
        assert_eq!(got, vec![b"high".to_vec(), b"low".to_vec()]);
    }

    #[test]
    fn trace_and_acct_count_events() {
        let mk = || -> Vec<Box<dyn Layer>> {
            vec![
                Box::new(Trace::default()),
                Box::new(Acct::new()),
                Box::new(Nak::default()),
                Box::new(Com::new()),
            ]
        };
        let mut w = pair_world(7, mk, NetConfig::reliable());
        for k in 0..5u8 {
            w.cast_bytes(ep(1), vec![k; 10]);
        }
        w.run_for(Duration::from_millis(100));
        let t: &Trace = w.stack(ep(1)).unwrap().focus_as("TRACE").unwrap();
        assert_eq!(t.down_counts()["cast"], 5);
        let a: &Acct = w.stack(ep(2)).unwrap().focus_as("ACCT").unwrap();
        assert_eq!(a.usage_of(ep(1)), (5, 50));
    }

    #[test]
    fn logger_journals_deliveries() {
        let mk = || -> Vec<Box<dyn Layer>> {
            vec![Box::new(Logger::new()), Box::new(Nak::default()), Box::new(Com::new())]
        };
        let mut w = pair_world(8, mk, NetConfig::reliable());
        w.cast_bytes(ep(1), &b"persist me"[..]);
        w.run_for(Duration::from_millis(100));
        let l: &Logger = w.stack(ep(2)).unwrap().focus_as("LOGGER").unwrap();
        assert_eq!(l.journal().len(), 1);
        assert_eq!(&l.journal()[0].1[..], b"persist me");
    }

    #[test]
    fn drop_layer_injects_deterministic_loss_nak_recovers() {
        // DROP below NAK: every 3rd cast vanishes, NAK must repair.
        let mk = || -> Vec<Box<dyn Layer>> {
            vec![Box::new(Nak::default()), Box::new(DropEvery::new(3)), Box::new(Com::new())]
        };
        let mut w = pair_world(9, mk, NetConfig::reliable());
        for k in 0..12u8 {
            w.cast_bytes(ep(1), vec![k]);
        }
        w.run_for(Duration::from_secs(1));
        let got: Vec<u8> = w.delivered_casts(ep(2)).iter().map(|(_, b, _)| b[0]).collect();
        assert_eq!(got, (0..12).collect::<Vec<u8>>());
        let d: &DropEvery = w.stack(ep(1)).unwrap().focus_as("DROP").unwrap();
        assert!(d.dropped >= 4);
    }

    #[test]
    fn seqno_detects_but_does_not_repair() {
        let mk = || -> Vec<Box<dyn Layer>> {
            vec![Box::new(Seqno::default()), Box::new(DropEvery::new(4)), Box::new(Com::new())]
        };
        let mut w = pair_world(10, mk, NetConfig::reliable());
        for k in 0..8u8 {
            w.cast_bytes(ep(1), vec![k]);
        }
        w.run_for(Duration::from_millis(100));
        let s: &Seqno = w.stack(ep(2)).unwrap().focus_as("SEQNO").unwrap();
        assert!(s.anomalies >= 1, "gaps must be reported");
        assert!(w.delivered_casts(ep(2)).len() < 8, "and not repaired");
        // PROBLEM upcalls surfaced to the application.
        assert!(w
            .upcalls(ep(2))
            .iter()
            .any(|(_, up)| matches!(up, Up::Problem { member } if *member == ep(1))));
    }

    #[test]
    fn nop_is_skippable_opaque_is_not() {
        assert!(Nop.is_passive());
        assert!(!NopOpaque.is_passive());
    }
}
