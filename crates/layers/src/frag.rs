//! FRAG and NFRAG — fragmentation and reassembly of large messages (§7).
//!
//! "Typical networks have a limit on the size of messages they can
//! transmit.  When a user of the FRAG layer attempts to send a message that
//! is larger than that maximum size, the FRAG layer splits the message into
//! multiple fragments.  On each fragment the FRAG layer pushes a boolean
//! value that indicates whether it is the last one or not.  The FRAG layer
//! depends on FIFO ordering for reassembly."
//!
//! [`Frag`] is that layer: its header is two bits — the paper's *last* flag
//! plus a *wrapped* flag that keeps small messages on a zero-copy fast path
//! (the paper measures FRAG's overhead at ~50 µs on a Sparc 10 precisely
//! because it is so thin; experiment E9 re-measures ours).  Fragments of a
//! message larger than the threshold carry chunks of the serialized
//! message, and the FIFO guarantee of the layer below makes per-source
//! reassembly a simple accumulation.
//!
//! Each hop touches a payload byte once: every fragment past the message's
//! own header is a slice of the caller's body (`fragments`), the receiver
//! holds the fragments it is handed until the last one arrives, and
//! `reassemble` gathers them with one allocation and one copy.
//!
//! [`NFrag`] is the Table 3 variant that sits *below* FIFO (directly on
//! COM): it tags fragments with a message id and index so reassembly
//! tolerates reordering, at the price of a bigger header and a reassembly
//! timeout.  Both provide property P12 (large messages).

use bytes::Bytes;
use horus_core::prelude::*;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

const FRAG_FIELDS: &[FieldSpec] = &[FieldSpec::new("last", 1), FieldSpec::new("wrapped", 1)];

/// Stream key: per-source, casts and sends reassemble independently.
type StreamKey = (EndpointAddr, bool);

/// The `frag_size`-byte chunks of `msg`'s [`Message::encode_inner`] image,
/// `[u16 hdr_len][header area][body]`, without building the image: a chunk
/// that starts in the prefix is assembled by copy, every later one is a
/// slice of `msg`'s body and shares its storage.
fn fragments(msg: &Message, frag_size: usize) -> impl Iterator<Item = Bytes> + '_ {
    let hdr = msg.header_area();
    let hdr_len = (hdr.len() as u16).to_le_bytes();
    let body = msg.body();
    let prefix = hdr_len.len() + hdr.len();
    let total = msg.encoded_inner_len();
    (0..total).step_by(frag_size).map(move |lo| {
        let hi = (lo + frag_size).min(total);
        if lo >= prefix {
            return body.slice(lo - prefix..hi - prefix);
        }
        let mut chunk = Vec::with_capacity(hi - lo);
        let mut at = 0;
        for part in [&hdr_len[..], hdr, &body[..]] {
            let (from, to) = (lo.max(at), hi.min(at + part.len()));
            if from < to {
                chunk.extend_from_slice(&part[from - at..to - at]);
            }
            at += part.len();
        }
        Bytes::from(chunk)
    })
}

/// Rebuilds the message whose image `chunks` are, in order: one
/// exact-capacity buffer, one copy of each chunk into it — the one payload
/// copy a reassembled message costs, which the caller reports — and a body
/// that is a slice of that buffer.
fn reassemble<'a>(
    chunks: impl Iterator<Item = &'a Bytes> + Clone,
    layout: &Arc<HeaderLayout>,
) -> Result<Message, HorusError> {
    let mut image = Vec::with_capacity(chunks.clone().map(Bytes::len).sum());
    for chunk in chunks {
        image.extend_from_slice(chunk);
    }
    Message::decode_inner_shared(layout.clone(), Bytes::from(image))
}

/// The FIFO-dependent fragmentation layer of §7.
#[derive(Debug, Clone)]
pub struct Frag {
    /// Fragment payload size.
    frag_size: usize,
    /// Per-stream fragments received so far, held by reference.
    partial: BTreeMap<StreamKey, Vec<Bytes>>,
    fragmented_msgs: u64,
    fragments_sent: u64,
    reassembled: u64,
}

impl Default for Frag {
    fn default() -> Self {
        Frag::new(1024)
    }
}

impl Frag {
    /// Creates a FRAG layer splitting at `frag_size`-byte fragments.
    ///
    /// # Panics
    ///
    /// Panics if `frag_size` is zero.
    pub fn new(frag_size: usize) -> Self {
        assert!(frag_size > 0, "fragment size must be positive");
        Frag {
            frag_size,
            partial: BTreeMap::new(),
            fragmented_msgs: 0,
            fragments_sent: 0,
            reassembled: 0,
        }
    }

    fn send_down(
        &mut self,
        msg: Message,
        dests: Option<Vec<EndpointAddr>>,
        ctx: &mut LayerCtx<'_>,
    ) {
        // Fast path: the whole message (headers so far + body) fits.
        if msg.body().len() <= self.frag_size {
            let mut m = msg;
            ctx.stamp(&mut m);
            ctx.set(&mut m, 0, 1); // last
            ctx.set(&mut m, 1, 0); // not wrapped
            self.pass_down(m, dests, ctx);
            return;
        }
        // Slow path: chunk the serialized message.  All but the chunks that
        // hold its own header are slices of the caller's body — the paper's
        // "no copying of the data that the message will actually transport".
        self.fragmented_msgs += 1;
        let n = msg.encoded_inner_len().div_ceil(self.frag_size);
        for (i, chunk) in fragments(&msg, self.frag_size).enumerate() {
            let mut frag = ctx.new_message(chunk);
            ctx.stamp(&mut frag);
            ctx.set(&mut frag, 0, (i + 1 == n) as u64);
            ctx.set(&mut frag, 1, 1); // wrapped
            self.fragments_sent += 1;
            self.pass_down(frag, dests.clone(), ctx);
        }
    }

    fn pass_down(&self, msg: Message, dests: Option<Vec<EndpointAddr>>, ctx: &mut LayerCtx<'_>) {
        match dests {
            Some(dests) => ctx.down(Down::Send { dests, msg }),
            None => ctx.down(Down::Cast(msg)),
        }
    }

    fn receive(&mut self, src: EndpointAddr, cast: bool, mut msg: Message, ctx: &mut LayerCtx<'_>) {
        if ctx.open(&mut msg).is_err() {
            return;
        }
        let last = ctx.get(&msg, 0) == 1;
        let wrapped = ctx.get(&msg, 1) == 1;
        if !wrapped {
            // Fast path: deliver directly.
            self.pass_up(src, cast, msg, ctx);
            return;
        }
        let key = (src, cast);
        if !last {
            self.partial.entry(key).or_default().push(msg.body().clone());
            return;
        }
        let held = self.partial.remove(&key).unwrap_or_default();
        ctx.note_payload_copy(1);
        match reassemble(held.iter().chain([msg.body()]), msg.layout()) {
            Ok(mut original) => {
                self.reassembled += 1;
                original.meta.set_src(Some(src));
                self.pass_up(src, cast, original, ctx);
            }
            Err(e) => ctx.trace(format!("FRAG: reassembly decode failed: {e}")),
        }
    }

    fn pass_up(&self, src: EndpointAddr, cast: bool, msg: Message, ctx: &mut LayerCtx<'_>) {
        if cast {
            ctx.up(Up::Cast { src, msg });
        } else {
            ctx.up(Up::Send { src, msg });
        }
    }
}

impl Layer for Frag {
    fn name(&self) -> &'static str {
        "FRAG"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        FRAG_FIELDS
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(msg) => self.send_down(msg, None, ctx),
            Down::Send { dests, msg } => self.send_down(msg, Some(dests), ctx),
            other => ctx.down(other),
        }
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Cast { src, msg } => self.receive(src, true, msg, ctx),
            Up::Send { src, msg } => self.receive(src, false, msg, ctx),
            other => ctx.up(other),
        }
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(
            w,
            "frag_size={} fragmented={} fragments={} reassembled={} partial={}",
            self.frag_size,
            self.fragmented_msgs,
            self.fragments_sent,
            self.reassembled,
            self.partial.len()
        )
    }
}

const NFRAG_FIELDS: &[FieldSpec] = &[
    FieldSpec::new("wrapped", 1),
    FieldSpec::new("msg_id", 16),
    FieldSpec::new("idx", 12),
    FieldSpec::new("count", 12),
];

const NFRAG_GC: u64 = 0;

/// Reorder-tolerant fragmentation (sits below the FIFO layer).
#[derive(Debug, Clone)]
pub struct NFrag {
    frag_size: usize,
    /// Incomplete-reassembly garbage-collection timeout.
    reassembly_timeout: Duration,
    next_id: u16,
    partial: BTreeMap<(StreamKey, u16), PartialMsg>,
    expired: u64,
    reassembled: u64,
}

#[derive(Debug, Clone)]
struct PartialMsg {
    chunks: BTreeMap<u16, Bytes>,
    count: u16,
    started: SimTime,
}

impl Default for NFrag {
    fn default() -> Self {
        NFrag::new(1024, Duration::from_secs(2))
    }
}

impl NFrag {
    /// Creates an NFRAG layer with the given fragment size and reassembly
    /// timeout.
    ///
    /// # Panics
    ///
    /// Panics if `frag_size` is zero.
    pub fn new(frag_size: usize, reassembly_timeout: Duration) -> Self {
        assert!(frag_size > 0, "fragment size must be positive");
        NFrag {
            frag_size,
            reassembly_timeout,
            next_id: 1,
            partial: BTreeMap::new(),
            expired: 0,
            reassembled: 0,
        }
    }

    fn send_down(
        &mut self,
        msg: Message,
        dests: Option<Vec<EndpointAddr>>,
        ctx: &mut LayerCtx<'_>,
    ) {
        if msg.body().len() <= self.frag_size {
            let mut m = msg;
            ctx.stamp(&mut m);
            ctx.set(&mut m, 0, 0);
            self.pass_down(m, dests, ctx);
            return;
        }
        let n = msg.encoded_inner_len().div_ceil(self.frag_size);
        if n >= 1 << 12 {
            ctx.up(Up::SystemError {
                reason: format!(
                    "NFRAG: a {}-byte message needs {n} fragments of {} bytes; the 12-bit \
                     fragment index holds 4095",
                    msg.body().len(),
                    self.frag_size
                ),
            });
            return;
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        for (i, chunk) in fragments(&msg, self.frag_size).enumerate() {
            let mut frag = ctx.new_message(chunk);
            ctx.stamp(&mut frag);
            ctx.set(&mut frag, 0, 1);
            ctx.set(&mut frag, 1, id as u64);
            ctx.set(&mut frag, 2, i as u64);
            ctx.set(&mut frag, 3, n as u64);
            self.pass_down(frag, dests.clone(), ctx);
        }
    }

    fn pass_down(&self, msg: Message, dests: Option<Vec<EndpointAddr>>, ctx: &mut LayerCtx<'_>) {
        match dests {
            Some(dests) => ctx.down(Down::Send { dests, msg }),
            None => ctx.down(Down::Cast(msg)),
        }
    }

    fn receive(&mut self, src: EndpointAddr, cast: bool, mut msg: Message, ctx: &mut LayerCtx<'_>) {
        if ctx.open(&mut msg).is_err() {
            return;
        }
        if ctx.get(&msg, 0) == 0 {
            if cast {
                ctx.up(Up::Cast { src, msg });
            } else {
                ctx.up(Up::Send { src, msg });
            }
            return;
        }
        let id = ctx.get(&msg, 1) as u16;
        let idx = ctx.get(&msg, 2) as u16;
        let count = ctx.get(&msg, 3) as u16;
        if count == 0 || idx >= count {
            return; // malformed
        }
        let key = ((src, cast), id);
        let now = ctx.now();
        let entry = self.partial.entry(key).or_insert_with(|| PartialMsg {
            chunks: BTreeMap::new(),
            count,
            started: now,
        });
        if entry.count != count {
            return; // inconsistent fragments: drop
        }
        entry.chunks.insert(idx, msg.body().clone());
        if entry.chunks.len() == count as usize {
            let entry = self.partial.remove(&key).expect("just completed");
            ctx.note_payload_copy(1);
            match reassemble(entry.chunks.values(), msg.layout()) {
                Ok(mut original) => {
                    self.reassembled += 1;
                    original.meta.set_src(Some(src));
                    if cast {
                        ctx.up(Up::Cast { src, msg: original });
                    } else {
                        ctx.up(Up::Send { src, msg: original });
                    }
                }
                Err(e) => ctx.trace(format!("NFRAG: reassembly decode failed: {e}")),
            }
        }
    }
}

impl Layer for NFrag {
    fn name(&self) -> &'static str {
        "NFRAG"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        NFRAG_FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        ctx.set_timer(self.reassembly_timeout, NFRAG_GC);
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(msg) => self.send_down(msg, None, ctx),
            Down::Send { dests, msg } => self.send_down(msg, Some(dests), ctx),
            other => ctx.down(other),
        }
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Cast { src, msg } => self.receive(src, true, msg, ctx),
            Up::Send { src, msg } => self.receive(src, false, msg, ctx),
            other => ctx.up(other),
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut LayerCtx<'_>) {
        let now = ctx.now();
        let timeout = self.reassembly_timeout;
        let before = self.partial.len();
        self.partial.retain(|_, p| now.saturating_since(p.started) < timeout);
        self.expired += (before - self.partial.len()) as u64;
        ctx.set_timer(self.reassembly_timeout, NFRAG_GC);
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(
            w,
            "frag_size={} reassembled={} partial={} expired={}",
            self.frag_size,
            self.reassembled,
            self.partial.len(),
            self.expired
        )
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

    fn frag_world(n: u64, frag_size: usize, mtu: usize, seed: u64) -> SimWorld {
        let mut cfg = NetConfig::reliable();
        cfg.mtu = mtu;
        let mut w = SimWorld::new(seed, cfg);
        for i in 1..=n {
            let s = StackBuilder::new(ep(i))
                .push(Box::new(Frag::new(frag_size)))
                .push(Box::new(Nak::default()))
                .push(Box::new(Com::new()))
                .build()
                .unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        w
    }

    /// A message as it reaches FRAG from a layer above: `body` under that
    /// layer's stamped header, so the image's prefix is 6 bytes in compact
    /// mode and 14 in aligned mode.
    fn stamped_message(mode: HeaderMode, body: &Bytes) -> Message {
        const ABOVE: &[FieldSpec] = &[FieldSpec::new("seq", 32)];
        let layout = HeaderLayout::build(&[("ABOVE", ABOVE), ("FRAG", FRAG_FIELDS)], mode).unwrap();
        let mut msg = Message::new(Arc::new(layout), body.clone());
        msg.push_header(0);
        msg.set_field(0, 0, 0xC0FF_EE00 + body.len() as u64);
        msg
    }

    #[test]
    fn fragments_are_the_serialized_images_chunks_and_share_the_body() {
        let payload = Bytes::from((0..5000u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        let storage = payload.as_ptr() as usize..payload.as_ptr() as usize + payload.len();
        for mode in [HeaderMode::Compact, HeaderMode::Aligned] {
            for frag_size in [1usize, 3, 7, 64, 1024] {
                // Every length up to a few fragments past the prefix, then
                // strides that keep the one-byte fragments affordable.
                let dense = 0..=(4 * frag_size + 40).min(5000);
                let sparse = (0..=5000).step_by(if frag_size < 64 { 61 } else { 1 });
                for len in dense.chain(sparse) {
                    let msg = stamped_message(mode, &payload.slice(..len));
                    let prefix = 2 + msg.header_area().len();
                    let image = msg.encode_inner();
                    let chunks: Vec<Bytes> = fragments(&msg, frag_size).collect();
                    assert!(
                        chunks.iter().map(|c| &c[..]).eq(image.chunks(frag_size)),
                        "{mode:?}, {len} B at {frag_size}: chunks differ from encode_inner's"
                    );
                    for (i, chunk) in chunks.iter().enumerate() {
                        let shares = storage.contains(&(chunk.as_ptr() as usize));
                        assert_eq!(
                            shares,
                            i * frag_size >= prefix,
                            "{mode:?}, {len} B at {frag_size}: fragment {i} (prefix {prefix})"
                        );
                    }
                    let back = reassemble(chunks.iter(), msg.layout()).expect("decodes");
                    assert_eq!(back.header_area(), msg.header_area());
                    assert_eq!(back.body(), msg.body());
                    assert_eq!(back.field(0, 0), msg.field(0, 0));
                }
            }
        }
    }

    #[test]
    fn small_messages_take_fast_path() {
        let mut w = frag_world(2, 256, 1500, 1);
        w.cast_bytes(ep(1), vec![7u8; 100]);
        w.run_for(Duration::from_millis(50));
        assert_eq!(w.delivered_casts(ep(2)).len(), 1);
        let frag: &Frag = w.stack(ep(1)).unwrap().focus_as("FRAG").unwrap();
        assert_eq!(frag.fragmented_msgs, 0);
    }

    #[test]
    fn large_message_crosses_small_mtu() {
        // 16 KiB body over a 1500-byte MTU: impossible without FRAG.
        let mut w = frag_world(3, 1024, 1500, 2);
        let body: Vec<u8> = (0..16384u32).map(|i| (i % 251) as u8).collect();
        w.cast_bytes(ep(1), body.clone());
        w.run_for(Duration::from_millis(200));
        for i in 1..=3 {
            let got = w.delivered_casts(ep(i));
            assert_eq!(got.len(), 1, "endpoint {i}");
            assert_eq!(&got[0].1[..], &body[..], "endpoint {i} body intact");
        }
        let frag: &Frag = w.stack(ep(1)).unwrap().focus_as("FRAG").unwrap();
        assert!(frag.fragments_sent >= 16);
    }

    #[test]
    fn without_frag_large_messages_die_at_the_mtu() {
        let mut cfg = NetConfig::reliable();
        cfg.mtu = 1500;
        let mut w = SimWorld::new(3, cfg);
        for i in 1..=2 {
            let s = StackBuilder::new(ep(i))
                .push(Box::new(Nak::default()))
                .push(Box::new(Com::new()))
                .build()
                .unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        w.cast_bytes(ep(1), vec![0u8; 4096]);
        w.run_for(Duration::from_millis(100));
        assert!(w.delivered_casts(ep(2)).is_empty());
        assert!(w.net_stats().dropped_mtu >= 1);
    }

    #[test]
    fn fragmentation_survives_loss_via_nak_below() {
        for seed in 1..=3 {
            let mut cfg = NetConfig::lossy(0.2);
            cfg.mtu = 1500;
            let mut w = SimWorld::new(seed, cfg);
            for i in 1..=2 {
                let s = StackBuilder::new(ep(i))
                    .push(Box::new(Frag::new(1024)))
                    .push(Box::new(Nak::default()))
                    .push(Box::new(Com::new()))
                    .build()
                    .unwrap();
                w.add_endpoint(s);
                w.join(ep(i), GroupAddr::new(1));
            }
            let body: Vec<u8> = (0..8000u32).map(|i| (i % 199) as u8).collect();
            w.cast_bytes(ep(1), body.clone());
            w.run_for(Duration::from_secs(3));
            let got = w.delivered_casts(ep(2));
            assert_eq!(got.len(), 1, "seed {seed}");
            assert_eq!(&got[0].1[..], &body[..]);
        }
    }

    #[test]
    fn interleaved_senders_reassemble_independently() {
        let mut w = frag_world(3, 512, 1500, 5);
        let body1: Vec<u8> = vec![1u8; 3000];
        let body2: Vec<u8> = vec![2u8; 3000];
        w.cast_bytes(ep(1), body1.clone());
        w.cast_bytes(ep(2), body2.clone());
        w.run_for(Duration::from_millis(200));
        let got = w.delivered_casts(ep(3));
        assert_eq!(got.len(), 2);
        let mut bodies: Vec<Vec<u8>> = got.iter().map(|(_, b, _)| b.to_vec()).collect();
        bodies.sort();
        assert_eq!(bodies, vec![body1, body2]);
    }

    #[test]
    fn unicast_sends_fragment_too() {
        let mut w = frag_world(2, 512, 1500, 6);
        let body = vec![9u8; 2500];
        let msg = w.stack(ep(1)).unwrap().new_message(body.clone());
        w.down(ep(1), Down::Send { dests: vec![ep(2)], msg });
        w.run_for(Duration::from_millis(100));
        let sends: Vec<Vec<u8>> = w
            .upcalls(ep(2))
            .iter()
            .filter_map(|(_, up)| match up {
                Up::Send { msg, .. } => Some(msg.body().to_vec()),
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![body]);
    }

    #[test]
    fn nfrag_reassembles_out_of_order() {
        // NFRAG directly over COM: network jitter reorders fragments.
        let mut cfg = NetConfig::reliable();
        cfg.latency_min = Duration::from_micros(10);
        cfg.latency_max = Duration::from_millis(5); // heavy jitter
        let mut w = SimWorld::new(7, cfg);
        for i in 1..=2 {
            let s = StackBuilder::new(ep(i))
                .push(Box::new(NFrag::default()))
                .push(Box::new(Com::new()))
                .build()
                .unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        let body: Vec<u8> = (0..10_000u32).map(|i| (i % 233) as u8).collect();
        w.cast_bytes(ep(1), body.clone());
        w.run_for(Duration::from_millis(500));
        let got = w.delivered_casts(ep(2));
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].1[..], &body[..]);
    }

    #[test]
    fn nfrag_times_out_incomplete_reassembly() {
        let mut cfg = NetConfig::reliable();
        cfg.loss = 0.9; // most fragments die; NFRAG has no retransmission
        let mut w = SimWorld::new(8, cfg);
        for i in 1..=2 {
            let s = StackBuilder::new(ep(i))
                .push(Box::new(NFrag::new(512, Duration::from_millis(100))))
                .push(Box::new(Com::new()))
                .build()
                .unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        w.cast_bytes(ep(1), vec![1u8; 5000]);
        w.run_for(Duration::from_secs(2));
        assert!(w.delivered_casts(ep(2)).is_empty());
        let nfrag: &NFrag = w.stack(ep(2)).unwrap().focus_as("NFRAG").unwrap();
        assert_eq!(nfrag.partial.len(), 0, "partial buffers must be GCed");
    }
}
