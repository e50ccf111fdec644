//! The Horus message object (§3) and the two header layouts of §10.
//!
//! A message travels *down* a protocol stack while being sent — each layer
//! pushing a header — and *up* while being delivered — each layer popping its
//! header.  The paper identifies the 1995 layout (each layer pushes its own
//! word-aligned header) as a source of overhead, and proposes pre-computing,
//! per stack, "a single header in which the necessary fields are compacted",
//! specified in bits.  Both layouts are implemented here behind one typed
//! field API, so every protocol layer is written once and the layout is a
//! run-time choice ([`HeaderMode`]) — exactly the ablation benchmarked in
//! `bench/benches/header_overhead.rs`.
//!
//! Layers declare fixed-size header *fields* ([`FieldSpec`]); variable-size
//! control data travels in message bodies (see [`crate::wire`]).  The body is
//! a [`bytes::Bytes`], so passing a message through a stack never copies the
//! payload — the paper's "no copying of the data that the message will
//! actually transport".

use crate::addr::EndpointAddr;
use crate::error::HorusError;
use crate::event::MsgId;
use bytes::Bytes;
use std::fmt;
use std::sync::Arc;

/// Description of one fixed-size header field, sized in bits (1..=64).
///
/// This mirrors the paper's proposal that "a protocol will specify, instead
/// of the layout of their header, the fields that it needs (in terms of size
/// and alignment, both specified in bits)".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// Field name, for dumps and diagnostics.
    pub name: &'static str,
    /// Width in bits; must be in `1..=64`.
    pub bits: u32,
}

impl FieldSpec {
    /// Shorthand constructor.
    pub const fn new(name: &'static str, bits: u32) -> Self {
        FieldSpec { name, bits }
    }

    /// Bytes needed to store this field byte-aligned (aligned layout).
    pub fn aligned_bytes(&self) -> usize {
        self.bits.div_ceil(8) as usize
    }
}

/// Which of the two §10 header layouts a stack uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeaderMode {
    /// The 1995 production layout: every layer pushes its own header record,
    /// padded to a 4-byte word boundary, preceded by a 4-byte record header.
    /// Push and pop are real operations with per-layer cost.
    Aligned,
    /// The proposed optimization: a single pre-computed header with all
    /// layers' fields bit-compacted.  Push and pop are no-ops; fields are
    /// written and read in place.
    #[default]
    Compact,
}

/// Per-layer slot in a [`HeaderLayout`].
#[derive(Debug, Clone)]
struct LayerSlot {
    layer_name: &'static str,
    fields: Vec<FieldSpec>,
    /// Compact layout: absolute bit offset of each field.
    bit_offsets: Vec<usize>,
    /// Aligned layout: byte offset of each field *within this layer's
    /// record* (after the 4-byte record header).
    rec_offsets: Vec<usize>,
    /// Aligned layout: payload bytes of the record (unpadded).
    rec_bytes: usize,
}

/// The pre-computed header layout of one stack composition.
///
/// Built once when a stack is composed (`StackBuilder::build`), shared by all
/// messages of that stack.  Layer index 0 is the **top** layer.
#[derive(Debug, Clone)]
pub struct HeaderLayout {
    slots: Vec<LayerSlot>,
    total_bits: usize,
    mode: HeaderMode,
}

impl HeaderLayout {
    /// Builds a layout from each layer's field list, top layer first.
    ///
    /// # Errors
    ///
    /// Fails if any field is wider than 64 bits or zero bits wide.
    pub fn build(
        layers: &[(&'static str, &[FieldSpec])],
        mode: HeaderMode,
    ) -> Result<Self, HorusError> {
        let mut slots = Vec::with_capacity(layers.len());
        let mut bit_cursor = 0usize;
        for &(layer_name, fields) in layers {
            let mut bit_offsets = Vec::with_capacity(fields.len());
            let mut rec_offsets = Vec::with_capacity(fields.len());
            let mut rec_cursor = 0usize;
            for f in fields {
                if f.bits == 0 || f.bits > 64 {
                    return Err(HorusError::BadStack(format!(
                        "field {}/{} has invalid width {} bits",
                        layer_name, f.name, f.bits
                    )));
                }
                bit_offsets.push(bit_cursor);
                bit_cursor += f.bits as usize;
                rec_offsets.push(rec_cursor);
                rec_cursor += f.aligned_bytes();
            }
            slots.push(LayerSlot {
                layer_name,
                fields: fields.to_vec(),
                bit_offsets,
                rec_offsets,
                rec_bytes: rec_cursor,
            });
        }
        Ok(HeaderLayout { slots, total_bits: bit_cursor, mode })
    }

    /// The header layout mode.
    pub fn mode(&self) -> HeaderMode {
        self.mode
    }

    /// Number of layers in the layout.
    pub fn layers(&self) -> usize {
        self.slots.len()
    }

    /// Total compacted header size in bytes (compact mode).
    pub fn compact_bytes(&self) -> usize {
        self.total_bits.div_ceil(8)
    }

    /// Size in bytes of one layer's aligned record, including the 4-byte
    /// record header and word padding.
    pub fn aligned_record_bytes(&self, layer: usize) -> usize {
        4 + self.slots[layer].rec_bytes.div_ceil(4) * 4
    }

    /// Worst-case total aligned header size (every layer pushes).
    pub fn aligned_bytes_all(&self) -> usize {
        (0..self.slots.len()).map(|i| self.aligned_record_bytes(i)).sum()
    }

    /// The field specs of one layer.
    pub fn fields_of(&self, layer: usize) -> &[FieldSpec] {
        &self.slots[layer].fields
    }

    /// The name of the layer occupying a slot.
    pub fn layer_name(&self, layer: usize) -> &'static str {
        self.slots[layer].layer_name
    }
}

/// Non-wire annotations layers attach to a message during delivery.
///
/// These model per-message state the 1995 system kept in its message object
/// (source endpoint, stability identifier, ordering position) without paying
/// wire bytes for information that is local to the receiving stack.
///
/// The optional annotations are stored as one presence bit each plus a plain
/// word, not as `Option`s: an event carrying a message is moved at every
/// layer crossing, and four `Option`s cost 80 bytes where this costs 48.
/// An absent annotation's word is always its zero value, so the derived
/// equality compares what the accessors return.
#[derive(Clone, PartialEq, Eq)]
pub struct MessageMeta {
    src: EndpointAddr,
    msg_id: MsgId,
    total_seq: u64,
    rpc_id: u64,
    /// Presence bits ([`HAS_SRC`] ...) plus the two booleans.
    flags: u8,
    /// Application-assigned send priority (used by PRIO/NNAK layers;
    /// higher is more urgent).
    pub priority: u8,
    /// Logical channel for MUX layers (cactus-stack multiplexing, §4).
    pub channel: u8,
}

const HAS_SRC: u8 = 1 << 0;
const HAS_MSG_ID: u8 = 1 << 1;
const HAS_TOTAL_SEQ: u8 = 1 << 2;
const HAS_RPC: u8 = 1 << 3;
const RPC_IS_REPLY: u8 = 1 << 4;
const FLUSH_RECOVERED: u8 = 1 << 5;

const NO_MSG_ID: MsgId = MsgId { origin: EndpointAddr::NULL, seq: 0 };

impl MessageMeta {
    fn has(&self, bit: u8) -> bool {
        self.flags & bit != 0
    }

    fn mark(&mut self, bit: u8, on: bool) {
        if on {
            self.flags |= bit;
        } else {
            self.flags &= !bit;
        }
    }

    /// The sending endpoint, filled in by the COM layer on receipt.
    pub fn src(&self) -> Option<EndpointAddr> {
        self.has(HAS_SRC).then_some(self.src)
    }

    /// Sets or clears [`MessageMeta::src`].
    pub fn set_src(&mut self, src: Option<EndpointAddr>) {
        self.mark(HAS_SRC, src.is_some());
        self.src = src.unwrap_or(EndpointAddr::NULL);
    }

    /// Stability identifier assigned by a STABLE/PINWHEEL layer, for use
    /// with the `ack`/`stable` downcalls.
    pub fn msg_id(&self) -> Option<MsgId> {
        self.has(HAS_MSG_ID).then_some(self.msg_id)
    }

    /// Sets or clears [`MessageMeta::msg_id`].
    pub fn set_msg_id(&mut self, id: Option<MsgId>) {
        self.mark(HAS_MSG_ID, id.is_some());
        self.msg_id = id.unwrap_or(NO_MSG_ID);
    }

    /// Global total-order sequence number assigned by TOTAL, if any.
    pub fn total_seq(&self) -> Option<u64> {
        self.has(HAS_TOTAL_SEQ).then_some(self.total_seq)
    }

    /// Sets or clears [`MessageMeta::total_seq`].
    pub fn set_total_seq(&mut self, seq: Option<u64>) {
        self.mark(HAS_TOTAL_SEQ, seq.is_some());
        self.total_seq = seq.unwrap_or(0);
    }

    /// RPC correlation: `(request id, is_reply)`, managed by the RPC
    /// layer.
    pub fn rpc(&self) -> Option<(u64, bool)> {
        self.has(HAS_RPC).then_some((self.rpc_id, self.has(RPC_IS_REPLY)))
    }

    /// Sets or clears [`MessageMeta::rpc`].
    pub fn set_rpc(&mut self, rpc: Option<(u64, bool)>) {
        let (id, is_reply) = rpc.unwrap_or((0, false));
        self.mark(HAS_RPC, rpc.is_some());
        self.mark(RPC_IS_REPLY, is_reply);
        self.rpc_id = id;
    }

    /// Whether this delivery was recovered by a flush (Figure 2 path)
    /// rather than received directly from its sender.
    pub fn flush_recovered(&self) -> bool {
        self.has(FLUSH_RECOVERED)
    }

    /// Sets [`MessageMeta::flush_recovered`].
    pub fn set_flush_recovered(&mut self, recovered: bool) {
        self.mark(FLUSH_RECOVERED, recovered);
    }
}

impl Default for MessageMeta {
    fn default() -> Self {
        MessageMeta {
            src: EndpointAddr::NULL,
            msg_id: NO_MSG_ID,
            total_seq: 0,
            rpc_id: 0,
            flags: 0,
            priority: 0,
            channel: 0,
        }
    }
}

/// What `#[derive(Debug)]` printed when the annotations were `Option`
/// fields, in the same order.
impl fmt::Debug for MessageMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MessageMeta")
            .field("src", &self.src())
            .field("msg_id", &self.msg_id())
            .field("total_seq", &self.total_seq())
            .field("flush_recovered", &self.flush_recovered())
            .field("priority", &self.priority)
            .field("channel", &self.channel)
            .field("rpc", &self.rpc())
            .finish()
    }
}

/// A Horus message: a header area managed per [`HeaderMode`] plus a cheaply
/// cloneable body.
///
/// ```
/// use horus_core::message::{FieldSpec, HeaderLayout, HeaderMode, Message};
///
/// const F: &[FieldSpec] = &[FieldSpec::new("seq", 32), FieldSpec::new("kind", 3)];
/// let layout = std::sync::Arc::new(
///     HeaderLayout::build(&[("NAK", F)], HeaderMode::Compact).unwrap());
/// let mut m = Message::new(layout, &b"payload"[..]);
/// m.push_header(0);
/// m.set_field(0, 0, 7);
/// m.set_field(0, 1, 5);
/// assert_eq!(m.field(0, 0), 7);
/// assert_eq!(m.body(), &b"payload"[..]);
/// ```
#[derive(Clone)]
pub struct Message {
    layout: Arc<HeaderLayout>,
    /// The single bit-compacted header area (compact mode) or the header
    /// stack (aligned mode).
    hdr: HeaderBytes,
    body: Bytes,
    /// Receiving-side annotations; never serialized.
    pub meta: MessageMeta,
}

/// Longest compact header kept inside the message object.  The §7 stack's
/// header is 20 bytes; a message is moved once per layer crossing and a few
/// times more per executor hop, so the inline area is sized to what real
/// stacks need rather than rounded up.
const INLINE_HEADER: usize = 22;

/// A message's header area.  A compact header is inline up to
/// [`INLINE_HEADER`] bytes, so that creating, cloning and decoding a message
/// allocates nothing for it; an aligned-mode message carries its header
/// stack in the same 24 bytes.
#[derive(Clone)]
enum HeaderBytes {
    Inline { len: u8, buf: [u8; INLINE_HEADER] },
    Heap(Box<[u8]>),
    Aligned(Box<AlignedState>),
}

impl HeaderBytes {
    fn zeroed(len: usize) -> Self {
        if len <= INLINE_HEADER {
            HeaderBytes::Inline { len: len as u8, buf: [0; INLINE_HEADER] }
        } else {
            HeaderBytes::Heap(vec![0; len].into_boxed_slice())
        }
    }

    fn copy_of(src: &[u8]) -> Self {
        let mut area = HeaderBytes::zeroed(src.len());
        area.as_mut_slice().copy_from_slice(src);
        area
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            HeaderBytes::Inline { len, buf } => &buf[..*len as usize],
            HeaderBytes::Heap(b) => b,
            HeaderBytes::Aligned(a) => &a.bytes,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        match self {
            HeaderBytes::Inline { len, buf } => &mut buf[..*len as usize],
            HeaderBytes::Heap(b) => b,
            HeaderBytes::Aligned(a) => &mut a.bytes,
        }
    }
}

/// The header stack of an aligned-mode message.
#[derive(Clone, Default)]
struct AlignedState {
    /// The pushed records; the front of the byte vector was pushed first
    /// (top layer), the *end* is the top of the header stack (last pushed,
    /// i.e. lowest layer so far).
    bytes: Vec<u8>,
    /// (layer index, record start offset) of pushed records.
    records: Vec<(u8, usize)>,
    /// Fields of the most recently popped record.
    popped: Option<(u8, Vec<u64>)>,
}

impl Message {
    /// Creates a fresh message with the given body and no headers pushed.
    pub fn new(layout: Arc<HeaderLayout>, body: impl Into<Bytes>) -> Self {
        let hdr = match layout.mode {
            HeaderMode::Compact => HeaderBytes::zeroed(layout.compact_bytes()),
            HeaderMode::Aligned => HeaderBytes::Aligned(Box::default()),
        };
        Message { layout, hdr, body: body.into(), meta: MessageMeta::default() }
    }

    fn aligned(&self) -> &AlignedState {
        match &self.hdr {
            HeaderBytes::Aligned(a) => a,
            _ => panic!("aligned-mode message carries its header stack"),
        }
    }

    fn aligned_mut(&mut self) -> &mut AlignedState {
        match &mut self.hdr {
            HeaderBytes::Aligned(a) => a,
            _ => panic!("aligned-mode message carries its header stack"),
        }
    }

    /// The shared layout this message was created against.
    pub fn layout(&self) -> &Arc<HeaderLayout> {
        &self.layout
    }

    /// The message body. Cloning the returned [`Bytes`] is O(1).
    pub fn body(&self) -> &Bytes {
        &self.body
    }

    /// Replaces the body, returning the previous one.
    pub fn set_body(&mut self, body: impl Into<Bytes>) -> Bytes {
        std::mem::replace(&mut self.body, body.into())
    }

    /// Begins this layer's header on the way down.
    ///
    /// In aligned mode this appends a word-aligned record (a real operation
    /// with measurable cost — §10 problem 3); in compact mode it is free.
    pub fn push_header(&mut self, layer: usize) {
        match self.layout.mode {
            HeaderMode::Compact => {}
            HeaderMode::Aligned => {
                let rec_bytes = self.layout.slots[layer].rec_bytes;
                let padded = rec_bytes.div_ceil(4) * 4;
                let a = self.aligned_mut();
                let start = a.bytes.len();
                // Record header: layer id, payload length, padding count.
                a.bytes.push(layer as u8);
                a.bytes.push((padded - rec_bytes) as u8);
                a.bytes.extend_from_slice(&(rec_bytes as u16).to_le_bytes());
                a.bytes.resize(start + 4 + padded, 0);
                a.records.push((layer as u8, start));
            }
        }
    }

    /// Removes this layer's header on the way up, making its fields readable
    /// through [`Message::field`].
    ///
    /// # Errors
    ///
    /// In aligned mode, fails if the top record does not belong to `layer`
    /// (stack composition mismatch or corrupted message).
    pub fn pop_header(&mut self, layer: usize) -> Result<(), HorusError> {
        match self.layout.mode {
            HeaderMode::Compact => Ok(()),
            HeaderMode::Aligned => {
                let (rec_layer, start) = *self.aligned().records.last().ok_or_else(|| {
                    HorusError::Decode(format!(
                        "pop_header({}) on empty header stack",
                        self.layout.layer_name(layer)
                    ))
                })?;
                if rec_layer as usize != layer {
                    return Err(HorusError::Decode(format!(
                        "header stack mismatch: top record belongs to {}, {} tried to pop",
                        self.layout.layer_name(rec_layer as usize),
                        self.layout.layer_name(layer)
                    )));
                }
                let slot = &self.layout.slots[layer];
                let bytes = &self.aligned().bytes;
                let mut vals = Vec::with_capacity(slot.fields.len());
                for (i, f) in slot.fields.iter().enumerate() {
                    let off = start + 4 + slot.rec_offsets[i];
                    let n = f.aligned_bytes();
                    let mut raw = [0u8; 8];
                    raw[..n].copy_from_slice(&bytes[off..off + n]);
                    vals.push(u64::from_le_bytes(raw) & mask(f.bits));
                }
                let a = self.aligned_mut();
                a.records.pop();
                a.bytes.truncate(start);
                a.popped = Some((layer as u8, vals));
                Ok(())
            }
        }
    }

    /// Whether this layer currently has a header on the message.
    ///
    /// In aligned mode, true when the *top* record belongs to `layer` — the
    /// up-path test for "is this message mine to open?".  In compact mode
    /// every layer always has its (possibly all-zero) fields, so this is
    /// always true.
    pub fn has_header(&self, layer: usize) -> bool {
        match self.layout.mode {
            HeaderMode::Compact => true,
            HeaderMode::Aligned => {
                self.aligned().records.last().is_some_and(|&(l, _)| l as usize == layer)
            }
        }
    }

    /// Writes a header field. Must follow [`Message::push_header`] for this
    /// layer in aligned mode.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit the declared field width, or (in
    /// aligned mode) if the layer's record is not the top of the header
    /// stack.
    pub fn set_field(&mut self, layer: usize, field: usize, val: u64) {
        let spec = self.layout.slots[layer].fields[field];
        assert!(
            val <= mask(spec.bits),
            "value {} does not fit field {}/{} of {} bits",
            val,
            self.layout.layer_name(layer),
            spec.name,
            spec.bits
        );
        match self.layout.mode {
            HeaderMode::Compact => {
                let off = self.layout.slots[layer].bit_offsets[field];
                set_bits(self.hdr.as_mut_slice(), off, spec.bits, val);
            }
            HeaderMode::Aligned => {
                let &(rec_layer, start) =
                    self.aligned().records.last().expect("set_field before push_header");
                assert_eq!(
                    rec_layer as usize, layer,
                    "set_field: top record belongs to a different layer"
                );
                let off = start + 4 + self.layout.slots[layer].rec_offsets[field];
                let n = spec.aligned_bytes();
                self.aligned_mut().bytes[off..off + n].copy_from_slice(&val.to_le_bytes()[..n]);
            }
        }
    }

    /// Reads a header field.  In aligned mode the layer must have popped its
    /// record first (receive path) or pushed it (send path).
    ///
    /// # Panics
    ///
    /// Panics in aligned mode when neither a popped nor a pushed record for
    /// this layer is available.
    pub fn field(&self, layer: usize, field: usize) -> u64 {
        let spec = self.layout.slots[layer].fields[field];
        match self.layout.mode {
            HeaderMode::Compact => {
                let off = self.layout.slots[layer].bit_offsets[field];
                get_bits(self.hdr.as_slice(), off, spec.bits)
            }
            HeaderMode::Aligned => {
                let a = self.aligned();
                if let Some((l, vals)) = &a.popped {
                    if *l as usize == layer {
                        return vals[field];
                    }
                }
                // Fall back to the top pushed record (send path).
                let &(rec_layer, start) =
                    a.records.last().expect("field() with no popped or pushed record");
                assert_eq!(
                    rec_layer as usize, layer,
                    "field(): record belongs to a different layer"
                );
                let slot = &self.layout.slots[layer];
                let off = start + 4 + slot.rec_offsets[field];
                let n = spec.aligned_bytes();
                let mut raw = [0u8; 8];
                raw[..n].copy_from_slice(&a.bytes[off..off + n]);
                u64::from_le_bytes(raw) & mask(spec.bits)
            }
        }
    }

    /// Current header area size in bytes — the quantity the §10 header
    /// ablation measures.
    pub fn header_wire_len(&self) -> usize {
        self.header_area().len()
    }

    /// The current header area: the bit-compacted header (compact mode) or
    /// the pushed record stack (aligned mode).  This is exactly what
    /// [`Message::encode_inner`] serializes ahead of the body.
    pub fn header_area(&self) -> &[u8] {
        self.hdr.as_slice()
    }

    /// Size of [`Message::encode_inner`] output, without encoding.  Lets
    /// callers that embed encoded messages (FRAG, PACK) pre-size buffers.
    pub fn encoded_inner_len(&self) -> usize {
        2 + self.header_area().len() + self.body.len()
    }

    /// Serializes header area + body into one buffer.  Used by FRAG when a
    /// partially-built message must be chunked and by PACK when messages are
    /// coalesced; the stack itself ships the two parts as a scatter-gather
    /// [`crate::frame::WireFrame`] instead.
    pub fn encode_inner(&self) -> Bytes {
        encode_image(self.header_area(), &self.body)
    }

    /// Captures what [`Message::encode_inner`] would serialize right now,
    /// without serializing it: the header area is copied (inline up to 22
    /// bytes, so nothing is allocated for the stacks we ship) and the body
    /// is held by reference count.  For layers that must *keep* a message
    /// in case it has to be re-sent later (MBRSHIP's unstable-message log)
    /// and almost never do re-send it.
    pub fn inner_image(&self) -> InnerImage {
        let hdr = match &self.hdr {
            HeaderBytes::Aligned(a) => HeaderBytes::copy_of(&a.bytes),
            compact => compact.clone(),
        };
        InnerImage { hdr, body: self.body.clone() }
    }

    /// Reconstructs a message from a borrowed [`Message::encode_inner`]
    /// image, copying it once; [`Message::decode_inner_shared`] is the
    /// decode itself.
    ///
    /// # Errors
    ///
    /// Fails on truncation or on malformed aligned records.
    pub fn decode_inner(layout: Arc<HeaderLayout>, buf: &[u8]) -> Result<Self, HorusError> {
        Message::decode_inner_shared(layout, Bytes::copy_from_slice(buf))
    }

    /// Reconstructs a message from an owned [`Message::encode_inner`] image
    /// without copying it: the body is a slice of `buf`.
    ///
    /// # Errors
    ///
    /// Fails on truncation or on malformed aligned records.
    pub fn decode_inner_shared(layout: Arc<HeaderLayout>, buf: Bytes) -> Result<Self, HorusError> {
        if buf.len() < 2 {
            return Err(HorusError::Decode("message shorter than its length prefix".into()));
        }
        let hdr_len = u16::from_le_bytes([buf[0], buf[1]]) as usize;
        if buf.len() < 2 + hdr_len {
            return Err(HorusError::Decode(format!(
                "header length {} exceeds buffer {}",
                hdr_len,
                buf.len() - 2
            )));
        }
        Message::decode_parts(layout, &buf[2..2 + hdr_len], buf.slice(2 + hdr_len..))
    }

    /// Reconstructs a message from an already-split header area and body.
    /// The zero-copy receive path: `body` is attached as-is, so a transport
    /// that kept the payload as a distinct [`Bytes`] segment hands it to the
    /// reconstructed message without a copy.
    ///
    /// # Errors
    ///
    /// Fails on a header area that does not match the layout, or on
    /// malformed aligned records.
    pub fn decode_parts(
        layout: Arc<HeaderLayout>,
        hdr: &[u8],
        body: Bytes,
    ) -> Result<Self, HorusError> {
        let hdr_len = hdr.len();
        let mut msg = Message::new(layout, body);
        let Message { layout, hdr: area, .. } = &mut msg;
        match area {
            HeaderBytes::Aligned(a) => {
                // Re-index the record stack by walking the records in push
                // order (front of the buffer was pushed first).
                let mut pos = 0usize;
                while pos < hdr.len() {
                    if pos + 4 > hdr.len() {
                        return Err(HorusError::Decode("truncated aligned record header".into()));
                    }
                    let layer = hdr[pos];
                    let pad = hdr[pos + 1] as usize;
                    let rec_bytes = u16::from_le_bytes([hdr[pos + 2], hdr[pos + 3]]) as usize;
                    if layer as usize >= layout.slots.len()
                        || layout.slots[layer as usize].rec_bytes != rec_bytes
                        || pad != rec_bytes.div_ceil(4) * 4 - rec_bytes
                    {
                        return Err(HorusError::Decode(format!(
                            "malformed aligned record at offset {pos}"
                        )));
                    }
                    a.records.push((layer, pos));
                    pos += 4 + rec_bytes + pad;
                }
                if pos != hdr.len() {
                    return Err(HorusError::Decode("aligned records overrun header area".into()));
                }
                a.bytes.extend_from_slice(hdr);
            }
            compact => {
                if hdr_len != layout.compact_bytes() {
                    return Err(HorusError::Decode(format!(
                        "compact header is {} bytes, layout expects {}",
                        hdr_len,
                        layout.compact_bytes()
                    )));
                }
                compact.as_mut_slice().copy_from_slice(hdr);
            }
        }
        Ok(msg)
    }
}

/// A deferred [`Message::encode_inner`], taken by
/// [`Message::inner_image`]: [`InnerImage::encode`] yields, at any later
/// time, the bytes `encode_inner` would have produced at capture time.
/// It keeps the body's backing buffer alive for as long as it lives.
#[derive(Clone)]
pub struct InnerImage {
    hdr: HeaderBytes,
    body: Bytes,
}

impl InnerImage {
    /// Serializes the captured header area and body, copying both.
    pub fn encode(&self) -> Bytes {
        encode_image(self.hdr.as_slice(), &self.body)
    }
}

/// The `encode_inner` wire image: `u16` header length, header area, body.
fn encode_image(hdr: &[u8], body: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(2 + hdr.len() + body.len());
    out.extend_from_slice(&(hdr.len() as u16).to_le_bytes());
    out.extend_from_slice(hdr);
    out.extend_from_slice(body);
    Bytes::from(out)
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Message")
            .field("mode", &self.layout.mode)
            .field("header_bytes", &self.header_wire_len())
            .field("body_bytes", &self.body.len())
            .field("meta", &self.meta)
            .finish()
    }
}

fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The bytes a field at bit offset `off` touches: first byte, bit shift
/// within it, byte count (at most 9: 7 bits of shift plus 64 of field).
fn bit_window(off: usize, bits: u32) -> (usize, usize, usize) {
    let shift = off % 8;
    (off / 8, shift, (shift + bits as usize).div_ceil(8))
}

/// Writes `bits` bits of `val` at absolute bit offset `off` (LSB-first),
/// through one little-endian window over the bytes the field touches.
fn set_bits(area: &mut [u8], off: usize, bits: u32, val: u64) {
    let (byte, shift, n) = bit_window(off, bits);
    let window = &mut area[byte..byte + n];
    let mut raw = [0u8; 16];
    raw[..n].copy_from_slice(window);
    let field = (mask(bits) as u128) << shift;
    let word = (u128::from_le_bytes(raw) & !field) | (((val as u128) << shift) & field);
    window.copy_from_slice(&word.to_le_bytes()[..n]);
}

/// Reads `bits` bits at absolute bit offset `off` (LSB-first).
fn get_bits(area: &[u8], off: usize, bits: u32) -> u64 {
    let (byte, shift, n) = bit_window(off, bits);
    let mut raw = [0u8; 16];
    raw[..n].copy_from_slice(&area[byte..byte + n]);
    (u128::from_le_bytes(raw) >> shift) as u64 & mask(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOP: &[FieldSpec] = &[FieldSpec::new("order", 24), FieldSpec::new("kind", 3)];
    const MID: &[FieldSpec] = &[FieldSpec::new("last", 1)];
    const BOT: &[FieldSpec] = &[FieldSpec::new("seq", 32), FieldSpec::new("k", 2)];

    fn layout(mode: HeaderMode) -> Arc<HeaderLayout> {
        Arc::new(HeaderLayout::build(&[("TOP", TOP), ("MID", MID), ("BOT", BOT)], mode).unwrap())
    }

    #[test]
    fn compact_layout_packs_bits() {
        let l = layout(HeaderMode::Compact);
        // 24+3+1+32+2 = 62 bits -> 8 bytes.
        assert_eq!(l.compact_bytes(), 8);
    }

    #[test]
    fn aligned_layout_pads_records() {
        let l = layout(HeaderMode::Aligned);
        // TOP: 3+1=4 payload bytes -> 4 hdr + 4 = 8.
        assert_eq!(l.aligned_record_bytes(0), 8);
        // MID: 1 byte -> 4 hdr + 4 padded = 8.
        assert_eq!(l.aligned_record_bytes(1), 8);
        // BOT: 4+1=5 -> 4 hdr + 8 padded = 12.
        assert_eq!(l.aligned_record_bytes(2), 12);
        assert_eq!(l.aligned_bytes_all(), 28);
    }

    fn roundtrip(mode: HeaderMode) {
        let l = layout(mode);
        let mut m = Message::new(l.clone(), &b"abc"[..]);
        // Down path: TOP, MID, BOT push in order.
        m.push_header(0);
        m.set_field(0, 0, 0xABCDE);
        m.set_field(0, 1, 5);
        m.push_header(1);
        m.set_field(1, 0, 1);
        m.push_header(2);
        m.set_field(2, 0, 0xDEADBEEF);
        m.set_field(2, 1, 3);

        // Wire roundtrip.
        let wire = m.encode_inner();
        let mut r = Message::decode_inner(l, &wire).unwrap();
        assert_eq!(r.body(), &b"abc"[..]);

        // Up path: BOT, MID, TOP pop in reverse order.
        r.pop_header(2).unwrap();
        assert_eq!(r.field(2, 0), 0xDEADBEEF);
        assert_eq!(r.field(2, 1), 3);
        r.pop_header(1).unwrap();
        assert_eq!(r.field(1, 0), 1);
        r.pop_header(0).unwrap();
        assert_eq!(r.field(0, 0), 0xABCDE);
        assert_eq!(r.field(0, 1), 5);
    }

    #[test]
    fn roundtrip_compact() {
        roundtrip(HeaderMode::Compact);
    }

    #[test]
    fn roundtrip_aligned() {
        roundtrip(HeaderMode::Aligned);
    }

    #[test]
    fn aligned_pop_order_enforced() {
        let l = layout(HeaderMode::Aligned);
        let mut m = Message::new(l, &b""[..]);
        m.push_header(0);
        m.push_header(1);
        // Popping TOP while MID is on top must fail.
        assert!(m.pop_header(0).is_err());
        assert!(m.pop_header(1).is_ok());
        assert!(m.pop_header(0).is_ok());
        assert!(m.pop_header(0).is_err());
    }

    #[test]
    fn partial_stacks_encode() {
        // A control message created at MID never visits TOP.
        let l = layout(HeaderMode::Aligned);
        let mut m = Message::new(l.clone(), &b"ctl"[..]);
        m.push_header(1);
        m.set_field(1, 0, 1);
        m.push_header(2);
        m.set_field(2, 0, 42);
        m.set_field(2, 1, 1);
        let wire = m.encode_inner();
        let mut r = Message::decode_inner(l, &wire).unwrap();
        r.pop_header(2).unwrap();
        assert_eq!(r.field(2, 0), 42);
        assert!(r.has_header(1));
        assert!(!r.has_header(0));
        r.pop_header(1).unwrap();
        assert_eq!(r.field(1, 0), 1);
    }

    #[test]
    fn compact_headers_smaller_than_aligned() {
        let lc = layout(HeaderMode::Compact);
        let la = layout(HeaderMode::Aligned);
        let mut mc = Message::new(lc, &b""[..]);
        let mut ma = Message::new(la, &b""[..]);
        for i in 0..3 {
            mc.push_header(i);
            ma.push_header(i);
        }
        assert!(mc.header_wire_len() < ma.header_wire_len());
    }

    #[test]
    fn field_width_enforced() {
        let l = layout(HeaderMode::Compact);
        let mut m = Message::new(l, &b""[..]);
        m.push_header(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.set_field(1, 0, 2); // "last" is 1 bit
        }));
        assert!(r.is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        let l = layout(HeaderMode::Aligned);
        assert!(Message::decode_inner(l.clone(), &[]).is_err());
        assert!(Message::decode_inner(l.clone(), &[200, 0, 1, 2]).is_err());
        // A record claiming a bogus layer id.
        let mut m = Message::new(l.clone(), &b""[..]);
        m.push_header(0);
        let wire = m.encode_inner().to_vec();
        let mut bad = wire.clone();
        bad[2] = 9; // layer id byte of the first record
        assert!(Message::decode_inner(l, &bad).is_err());
    }

    #[test]
    fn bit_ops_dense_packing() {
        let mut area = vec![0u8; 16];
        set_bits(&mut area, 3, 7, 0b1010101);
        set_bits(&mut area, 10, 64, u64::MAX);
        set_bits(&mut area, 74, 1, 1);
        assert_eq!(get_bits(&area, 3, 7), 0b1010101);
        assert_eq!(get_bits(&area, 10, 64), u64::MAX);
        assert_eq!(get_bits(&area, 74, 1), 1);
        // Overwrite with a smaller value clears old bits.
        set_bits(&mut area, 10, 64, 5);
        assert_eq!(get_bits(&area, 10, 64), 5);
    }

    /// The bit-by-bit pair the word-wise [`set_bits`]/[`get_bits`] replaced,
    /// kept as the reference they are held equal to.
    fn set_bits_serial(area: &mut [u8], off: usize, bits: u32, val: u64) {
        for i in 0..bits as usize {
            let pos = off + i;
            if (val >> i) & 1 == 1 {
                area[pos / 8] |= 1 << (pos % 8);
            } else {
                area[pos / 8] &= !(1 << (pos % 8));
            }
        }
    }

    fn get_bits_serial(area: &[u8], off: usize, bits: u32) -> u64 {
        (0..bits as usize)
            .filter(|i| (area[(off + i) / 8] >> ((off + i) % 8)) & 1 == 1)
            .fold(0, |v, i| v | 1 << i)
    }

    use proptest::prelude::*;

    proptest! {
        /// Word-wise field access equals the bit-serial reference on any
        /// background, at any offset (fields straddling byte boundaries
        /// included), for any width, and when a field is overwritten with
        /// a smaller value; bits outside the field are never touched.
        #[test]
        fn word_wise_bit_ops_match_the_bit_serial_reference(
            background in proptest::collection::vec(any::<u8>(), 32),
            off in 0usize..=192,
            bits in 1u32..=64,
            first in any::<u64>(),
            second in any::<u64>(),
        ) {
            let first = first & mask(bits);
            // Overwrite with a value that has fewer significant bits.
            let second = second & mask(bits) & (first >> 1);
            let mut fast = background.clone();
            let mut slow = background;
            prop_assert_eq!(get_bits(&fast, off, bits), get_bits_serial(&slow, off, bits));
            for val in [first, second] {
                set_bits(&mut fast, off, bits, val);
                set_bits_serial(&mut slow, off, bits, val);
                prop_assert_eq!(&fast, &slow);
                prop_assert_eq!(get_bits(&fast, off, bits), val);
                prop_assert_eq!(get_bits_serial(&slow, off, bits), val);
            }
        }
    }

    const WIDE: &[FieldSpec] = &[FieldSpec::new("a", 64), FieldSpec::new("b", 61)];

    proptest! {
        /// An [`InnerImage`] is `encode_inner` deferred: whatever happens to
        /// the message afterwards, `encode` yields the bytes `encode_inner`
        /// gave at capture time, and they decode to the same message — with
        /// a compact header that fits the inline area (8 bytes) or does not
        /// (48), with aligned records pushed and popped, with a body that
        /// is a slice of a larger buffer.
        #[test]
        fn inner_image_is_encode_inner_deferred(
            wide in any::<bool>(),
            aligned in any::<bool>(),
            vals in proptest::collection::vec(any::<u64>(), 6),
            pushed in 0usize..=3,
            popped in 0usize..=3,
            buffer in proptest::collection::vec(any::<u8>(), 0..96),
            cut in any::<u8>(),
        ) {
            let mode = if aligned { HeaderMode::Aligned } else { HeaderMode::Compact };
            let layout = if wide {
                let layers = [("TOP", WIDE), ("MID", WIDE), ("BOT", WIDE)];
                Arc::new(HeaderLayout::build(&layers, mode).unwrap())
            } else {
                layout(mode)
            };
            prop_assert_eq!(layout.compact_bytes() > INLINE_HEADER, wide);
            let from = cut as usize % (buffer.len() + 1);
            let mut m = Message::new(layout.clone(), Bytes::from(buffer).slice(from..));
            let mut vals = vals.into_iter();
            for layer in 0..pushed {
                m.push_header(layer);
                for (field, spec) in layout.fields_of(layer).iter().enumerate() {
                    m.set_field(layer, field, vals.next().unwrap() & mask(spec.bits));
                }
            }
            for layer in (0..pushed).rev().take(popped) {
                m.pop_header(layer).unwrap();
            }
            let image = m.inner_image();
            let encoded = m.encode_inner();
            // The message moves on; the image does not.
            let body = m.set_body(&b"another body"[..]);
            if popped >= pushed {
                m.push_header(0);
                m.set_field(0, 0, 1);
            }
            prop_assert_eq!(image.encode(), encoded.clone());
            prop_assert_eq!(image.clone().encode(), encoded.clone());
            let decoded = Message::decode_inner(layout, &image.encode()).unwrap();
            prop_assert_eq!(decoded.body(), &body);
            prop_assert_eq!(decoded.encode_inner(), encoded.clone());
            prop_assert_eq!(decoded.inner_image().encode(), encoded);
        }
    }

    #[test]
    fn field_ending_at_the_last_byte_stays_in_bounds() {
        // The window never reaches past the last byte the field touches.
        let mut area = [0u8; 9];
        set_bits(&mut area, 7, 64, u64::MAX);
        assert_eq!(get_bits(&area, 7, 64), u64::MAX);
        assert_eq!(get_bits(&area, 71, 1), 0);
        set_bits(&mut area, 71, 1, 1);
        assert_eq!(area, [0x80, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]);
    }

    #[test]
    fn body_clone_is_shallow() {
        let l = layout(HeaderMode::Compact);
        let body = Bytes::from(vec![7u8; 1024]);
        let m = Message::new(l, body.clone());
        let m2 = m.clone();
        // Same backing storage: no copy of the payload.
        assert_eq!(m.body().as_ptr(), m2.body().as_ptr());
    }

    #[test]
    fn zero_width_field_rejected() {
        let bad: &[FieldSpec] = &[FieldSpec::new("x", 0)];
        assert!(HeaderLayout::build(&[("L", bad)], HeaderMode::Compact).is_err());
        let wide: &[FieldSpec] = &[FieldSpec::new("x", 65)];
        assert!(HeaderLayout::build(&[("L", wide)], HeaderMode::Compact).is_err());
    }
}
