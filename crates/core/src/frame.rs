//! Scatter-gather wire frames: the transport-level unit of transmission.
//!
//! A [`WireFrame`] is the encoded form of a message as it crosses the
//! stack/transport boundary, kept as two segments instead of one contiguous
//! buffer:
//!
//! * `head` — the frame envelope (`[u16 fingerprint][u32 checksum]
//!   [u16 hdr_len][header area]`), built once per transmission; the
//!   checksum is [`frame_checksum`] of the two segments;
//! * `body` — the application payload, carried as the *same* [`Bytes`] the
//!   application handed to `cast`/`send`.
//!
//! This is the iovec discipline of the paper's message design ("no copying
//! of the data that the message will actually transport"): the payload is
//! reference-counted from the application downcall to the transport, never
//! memcpy'd into a frame buffer.  A real UDP substrate would hand the two
//! segments to `sendmsg(2)` as separate iovecs; the in-process substrates
//! here pass the `WireFrame` through whole.

use bytes::Bytes;

/// Bytes of envelope before the header area: fingerprint (2), checksum (4),
/// header length (2).
pub const ENVELOPE_BYTES: usize = 8;

/// Streaming four-lane multiply-rotate hash folded to 32 bits — the frame
/// checksum, computed over `[body][u16 hdr_len][header area]` without
/// requiring those segments to be contiguous.
///
/// Input is consumed in 32-byte blocks of four little-endian words; word `i`
/// of a block goes into lane `i`, `lane = mix(lane, word)` with
/// `mix(h, w) = ((h ^ w) * CK_MULT).rotate_left(29)`.  The lanes start from
/// four different seeds and never read each other, so the four multiplies of
/// a block are in flight together: a single chain pays one multiply of
/// *latency* per word, which is what bounded the one-lane kernel this
/// replaced (DESIGN decision 14).  A carry of up to 31 bytes bridges segment
/// boundaries, so the digest is independent of how the frame is split into
/// `update` calls.  `finish` mixes the zero-padded carry (if any) as one more
/// block, folds lane 0 through lanes 1..=3 and the total length in that
/// order, and xors the halves of the result.  `mix` is a bijection in either
/// argument, so changing one word always changes the 64-bit state; the total
/// length tells a zero-padded tail from real zero bytes.
#[derive(Debug, Clone)]
pub struct FrameChecksum {
    lanes: [u64; 4],
    /// The last `ncarry` bytes (< 32) seen so far, not yet a whole block:
    /// little-endian words, zero beyond `ncarry`.
    carry: [u64; 4],
    ncarry: usize,
    len: u64,
}

const CK_BLOCK: usize = 32;
const CK_SEEDS: [u64; 4] =
    [0xcbf2_9ce4_8422_2325, 0x9e37_79b9_7f4a_7c15, 0xc2b2_ae3d_27d4_eb4f, 0x1656_67b1_9e37_79f9];
const CK_MULT: u64 = 0x2545_f491_4f6c_dd1d;

#[inline(always)]
fn ck_mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(CK_MULT).rotate_left(29)
}

#[inline(always)]
fn ck_block(lanes: &mut [u64; 4], words: [u64; 4]) {
    for (lane, word) in lanes.iter_mut().zip(words) {
        *lane = ck_mix(*lane, word);
    }
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

/// The 1..=7 bytes of `tail` as the low bytes of a little-endian word, read
/// with at most three overlapping loads instead of a byte loop.
#[inline(always)]
fn le_partial(tail: &[u8]) -> u64 {
    let n = tail.len();
    if n >= 4 {
        let half = |at: usize| {
            u32::from_le_bytes(tail[at..at + 4].try_into().expect("4-byte chunk")) as u64
        };
        half(0) | half(n - 4) << (8 * (n - 4))
    } else {
        let byte = |at: usize| (tail[at] as u64) << (8 * at);
        byte(0) | byte(n / 2) | byte(n - 1)
    }
}

impl FrameChecksum {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        FrameChecksum { lanes: CK_SEEDS, carry: [0; 4], ncarry: 0, len: 0 }
    }

    /// Feeds one segment.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.ncarry > 0 {
            let (fill, rest) = data.split_at(data.len().min(CK_BLOCK - self.ncarry));
            self.push_carry(fill);
            if self.ncarry < CK_BLOCK {
                return;
            }
            ck_block(&mut self.lanes, self.carry);
            self.carry = [0; 4];
            self.ncarry = 0;
            data = rest;
        }
        // The lanes live in locals across the loop so they stay in registers.
        let mut lanes = self.lanes;
        let mut blocks = data.chunks_exact(CK_BLOCK);
        for b in &mut blocks {
            let words =
                [le_word(&b[..8]), le_word(&b[8..16]), le_word(&b[16..24]), le_word(&b[24..])];
            ck_block(&mut lanes, words);
        }
        self.lanes = lanes;
        self.push_carry(blocks.remainder());
    }

    /// Appends `bytes` to the carry, a word at a time; the caller keeps
    /// `ncarry + bytes.len()` within one block.
    #[inline(always)]
    fn push_carry(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.push_carry_word(le_word(w), 8);
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            self.push_carry_word(le_partial(tail), tail.len());
        }
    }

    /// Appends the low `n` bytes (1..=8) of `word`, which is zero above them.
    #[inline(always)]
    fn push_carry_word(&mut self, word: u64, n: usize) {
        let (at, shift) = (self.ncarry / 8, 8 * (self.ncarry % 8));
        self.carry[at] |= word << shift;
        if shift / 8 + n > 8 {
            self.carry[at + 1] |= word >> (64 - shift);
        }
        self.ncarry += n;
    }

    /// The folded 32-bit digest.
    pub fn finish(&self) -> u32 {
        let mut lanes = self.lanes;
        if self.ncarry > 0 {
            ck_block(&mut lanes, self.carry);
        }
        let h = lanes[1..].iter().fold(lanes[0], |h, &lane| ck_mix(h, lane));
        let h = ck_mix(h, self.len);
        (h ^ (h >> 32)) as u32
    }
}

impl Default for FrameChecksum {
    fn default() -> Self {
        FrameChecksum::new()
    }
}

/// The checksum a frame with canonical head `head` (envelope plus header
/// area) and body `body` carries in `head[2..6]`.  The body goes first: it is
/// the long segment, and from offset zero its 32-byte blocks need no carry.
///
/// # Panics
///
/// Panics if `head` is shorter than the envelope.
pub fn frame_checksum(head: &[u8], body: &[u8]) -> u32 {
    let mut ck = FrameChecksum::new();
    ck.update(body);
    ck.update(&head[6..]);
    ck.finish()
}

/// A wire frame split at the header/body boundary (scatter-gather framing).
///
/// The byte sequence `head ++ body` is the frame as a datagram network would
/// carry it; [`WireFrame::to_bytes`] produces that contiguous form and
/// [`WireFrame::from_bytes`] splits it back without copying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    head: Bytes,
    body: Bytes,
}

impl WireFrame {
    /// Builds a frame from its parts, computing the checksum over the
    /// scattered segments so neither the header nor the body is ever
    /// concatenated.  `body` is attached as-is: the caller's `Bytes` and the
    /// frame's share storage.
    pub fn build(fingerprint: u16, hdr: &[u8], body: Bytes) -> WireFrame {
        let mut head = Vec::with_capacity(ENVELOPE_BYTES + hdr.len());
        head.extend_from_slice(&fingerprint.to_le_bytes());
        head.extend_from_slice(&[0; 4]);
        head.extend_from_slice(&(hdr.len() as u16).to_le_bytes());
        head.extend_from_slice(hdr);
        let sum = frame_checksum(&head, &body);
        head[2..6].copy_from_slice(&sum.to_le_bytes());
        WireFrame { head: Bytes::from(head), body }
    }

    /// Wraps an arbitrary byte string as a frame with an empty head.  For
    /// transports and tests that move opaque payloads; such a frame is
    /// re-split at decode time.
    pub fn raw(bytes: impl Into<Bytes>) -> WireFrame {
        WireFrame { head: Bytes::new(), body: bytes.into() }
    }

    /// Splits a contiguous frame at its header/body boundary without
    /// copying.  If the envelope or header length does not parse, the whole
    /// buffer becomes the head (decoding will then reject it).
    pub fn from_bytes(bytes: Bytes) -> WireFrame {
        if bytes.len() >= ENVELOPE_BYTES {
            let hdr_len = u16::from_le_bytes([bytes[6], bytes[7]]) as usize;
            if bytes.len() >= ENVELOPE_BYTES + hdr_len {
                let body = bytes.slice(ENVELOPE_BYTES + hdr_len..);
                let head = bytes.slice(..ENVELOPE_BYTES + hdr_len);
                return WireFrame { head, body };
            }
        }
        WireFrame { head: bytes, body: Bytes::new() }
    }

    /// The envelope + header segment.
    pub fn head(&self) -> &Bytes {
        &self.head
    }

    /// The payload segment.
    pub fn body(&self) -> &Bytes {
        &self.body
    }

    /// Total frame size on the wire (both segments).
    pub fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// Whether the frame carries no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.body.is_empty()
    }

    /// The contiguous form `head ++ body`.  Zero-copy when either segment is
    /// empty; otherwise this is the one place a frame is ever flattened
    /// (needed only by byte-twiddling fault injection and raw transports).
    pub fn to_bytes(&self) -> Bytes {
        if self.head.is_empty() {
            return self.body.clone();
        }
        if self.body.is_empty() {
            return self.head.clone();
        }
        let mut v = Vec::with_capacity(self.len());
        v.extend_from_slice(&self.head);
        v.extend_from_slice(&self.body);
        Bytes::from(v)
    }

    /// The frame re-split at its canonical header/body boundary:
    /// `(head, body)` where `head` is exactly the envelope plus the declared
    /// header area.  Cheap (refcount bumps) when the frame is already
    /// canonically split — the case for every frame built by
    /// [`WireFrame::build`].  Returns `None` when the frame is too short for
    /// its own envelope or header-length claim.
    pub fn canonical_parts(&self) -> Option<(Bytes, Bytes)> {
        if self.head.len() >= ENVELOPE_BYTES {
            let hdr_len = u16::from_le_bytes([self.head[6], self.head[7]]) as usize;
            if self.head.len() == ENVELOPE_BYTES + hdr_len {
                return Some((self.head.clone(), self.body.clone()));
            }
        }
        let flat = self.to_bytes();
        if flat.len() < ENVELOPE_BYTES {
            return None;
        }
        let hdr_len = u16::from_le_bytes([flat[6], flat[7]]) as usize;
        if flat.len() < ENVELOPE_BYTES + hdr_len {
            return None;
        }
        Some((flat.slice(..ENVELOPE_BYTES + hdr_len), flat.slice(ENVELOPE_BYTES + hdr_len..)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn build_attaches_body_without_copying() {
        let body = Bytes::from(vec![9u8; 512]);
        let f = WireFrame::build(0xABCD, &[1, 2, 3], body.clone());
        assert_eq!(f.body().as_ptr(), body.as_ptr());
        assert_eq!(f.len(), ENVELOPE_BYTES + 3 + 512);
    }

    #[test]
    fn roundtrips_through_contiguous_form() {
        let f = WireFrame::build(7, &[5, 6], Bytes::from_static(b"payload"));
        let flat = f.to_bytes();
        let g = WireFrame::from_bytes(flat);
        assert_eq!(f, g);
        // The re-split is canonical and zero-copy.
        let (head, body) = g.canonical_parts().unwrap();
        assert_eq!(head, *f.head());
        assert_eq!(&body[..], b"payload");
    }

    #[test]
    fn checksum_matches_contiguous_computation() {
        let mut ck = FrameChecksum::new();
        ck.update(b"hello ");
        ck.update(b"world");
        let mut whole = FrameChecksum::new();
        whole.update(b"hello world");
        assert_eq!(ck.finish(), whole.finish());
    }

    /// A 1 031-byte checksum input as `frag_bulk` produces it
    /// (`[u16 hdr_len][5-byte header][1 024-byte fragment]`), every 8-byte
    /// word distinct.
    fn frame_1031() -> Vec<u8> {
        (0..1031u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect()
    }

    fn digest(segments: &[&[u8]]) -> u32 {
        let mut ck = FrameChecksum::new();
        for s in segments {
            ck.update(s);
        }
        ck.finish()
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        let frame = frame_1031();
        let clean = digest(&[&frame]);
        let mut garbled = frame.clone();
        for bit in 0..frame.len() * 8 {
            garbled[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(digest(&[&garbled]), clean, "bit {bit}");
            garbled[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn every_word_swap_changes_the_digest() {
        // Words i and j share a lane when i % 4 == j % 4; every pair is
        // tried, so both the same-lane and the cross-lane case are covered
        // (and the partial last word is left where it is).
        let frame = frame_1031();
        let clean = digest(&[&frame]);
        let words = frame.len() / 8;
        let mut same_lane = 0;
        for i in 0..words {
            for j in i + 1..words {
                if frame[i * 8..i * 8 + 8] == frame[j * 8..j * 8 + 8] {
                    continue;
                }
                let mut swapped = frame.clone();
                for k in 0..8 {
                    swapped.swap(i * 8 + k, j * 8 + k);
                }
                assert_ne!(digest(&[&swapped]), clean, "words {i} and {j}");
                same_lane += usize::from(i % 4 == j % 4);
            }
        }
        assert!(same_lane > 1000, "the frame's words must differ for the test to bite");
    }

    #[test]
    fn truncation_and_zero_extension_change_the_digest() {
        // Ends on 1..=32 zero bytes, so both directions move only zeros: the
        // lanes see the same words and the folded length is what differs.
        let mut frame = frame_1031();
        frame.truncate(1031 - 32);
        frame.resize(1031, 0);
        let clean = digest(&[&frame]);
        for n in 1..=32 {
            assert_ne!(digest(&[&frame[..frame.len() - n]]), clean, "truncated by {n}");
            let mut longer = frame.clone();
            longer.resize(frame.len() + n, 0);
            assert_ne!(digest(&[&longer]), clean, "extended by {n}");
        }
    }

    /// The one-lane multiply-xorshift kernel the four-lane one replaced,
    /// kept as the timing reference for
    /// [`short_frames_cost_no_more_than_the_one_lane_kernel`].
    fn one_lane_mix(h: u64, w: u64) -> u64 {
        let x = (h ^ w).wrapping_mul(CK_MULT);
        x ^ (x >> 29)
    }

    struct OneLane {
        h: u64,
        pending: u64,
        npend: u32,
        len: u64,
    }

    impl OneLane {
        fn update(&mut self, mut data: &[u8]) {
            self.len += data.len() as u64;
            if self.npend > 0 {
                while self.npend < 8 {
                    let Some((&b, rest)) = data.split_first() else { return };
                    self.pending |= (b as u64) << (8 * self.npend);
                    self.npend += 1;
                    data = rest;
                }
                self.h = one_lane_mix(self.h, self.pending);
                self.pending = 0;
                self.npend = 0;
            }
            let mut words = data.chunks_exact(8);
            for w in &mut words {
                self.h = one_lane_mix(self.h, le_word(w));
            }
            for (i, &b) in words.remainder().iter().enumerate() {
                self.pending |= (b as u64) << (8 * i);
            }
            self.npend = words.remainder().len() as u32;
        }

        fn finish(&self) -> u32 {
            let mut h = self.h;
            if self.npend > 0 {
                h = one_lane_mix(h, self.pending | ((self.npend as u64) << 56));
            }
            h = one_lane_mix(h, self.len);
            (h ^ (h >> 32)) as u32
        }
    }

    #[test]
    #[ignore = "timing smoke: run in release mode with -- --ignored --nocapture"]
    fn short_frames_cost_no_more_than_the_one_lane_kernel() {
        use std::hint::black_box;
        use std::time::Instant;
        fn ns_per_call(data: &[u8], f: impl Fn(&[u8]) -> u32) -> f64 {
            let mut best = f64::MAX;
            for _ in 0..7 {
                let t0 = Instant::now();
                for _ in 0..200_000 {
                    black_box(f(black_box(data)));
                }
                best = best.min(t0.elapsed().as_nanos() as f64 / 200_000.0);
            }
            best
        }
        let frame = frame_1031();
        let mut short = (0.0, 0.0);
        for len in [71, 1031] {
            let data = &frame[..len];
            // Each fed as its `WireFrame::build` fed it: a 64- or 1 024-byte
            // body and the seven bytes of `[u16 hdr_len][5-byte header]`,
            // body first for four lanes and last for one.
            let four = ns_per_call(data, |d| digest(&[&d[7..], &d[..7]]));
            let one = ns_per_call(data, |d| {
                let mut ck = OneLane { h: CK_SEEDS[0], pending: 0, npend: 0, len: 0 };
                ck.update(&d[..7]);
                ck.update(&d[7..]);
                ck.finish()
            });
            println!("checksum of {len} B: four lanes {four:.1} ns, one lane {one:.1} ns");
            if len == 71 {
                short = (four, one);
            }
        }
        if !cfg!(debug_assertions) {
            let (four, one) = short;
            assert!(four <= one * 1.25, "71-byte frames: {four:.1} ns against {one:.1} ns");
        }
    }

    proptest! {
        /// The digest is a function of the byte string, not of how it was
        /// cut into `update` calls — empty and one-byte segments included.
        #[test]
        fn digest_is_independent_of_segmentation(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
            cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..12),
            single_bytes in any::<bool>(),
        ) {
            let whole = digest(&[&data]);
            let mut at: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
            at.sort_unstable(); // repeated cut points make empty segments
            let mut ck = FrameChecksum::new();
            let mut from = 0;
            for to in at.into_iter().chain([data.len()]) {
                if single_bytes {
                    data[from..to].iter().for_each(|b| ck.update(std::slice::from_ref(b)));
                } else {
                    ck.update(&data[from..to]);
                }
                ck.update(&[]);
                from = to;
            }
            prop_assert_eq!(ck.finish(), whole);
        }

        #[test]
        fn built_frames_round_trip_through_the_contiguous_form(
            fingerprint in any::<u16>(),
            hdr in proptest::collection::vec(any::<u8>(), 0..=64),
            body in proptest::collection::vec(any::<u8>(), 0..=2048),
        ) {
            let built = WireFrame::build(fingerprint, &hdr, Bytes::from(body.clone()));
            let back = WireFrame::from_bytes(built.to_bytes());
            prop_assert_eq!(&back, &built);
            let (head, got_body) = back.canonical_parts().expect("built frames are canonical");
            prop_assert_eq!(&head[..2], &fingerprint.to_le_bytes()[..]);
            prop_assert_eq!(&head[ENVELOPE_BYTES..], &hdr[..]);
            prop_assert_eq!(&got_body[..], &body[..]);
            let sum = u32::from_le_bytes(head[2..6].try_into().expect("4 bytes"));
            prop_assert_eq!(sum, frame_checksum(&head, &got_body));
        }
    }

    #[test]
    fn raw_and_short_frames_have_no_canonical_parts() {
        assert!(WireFrame::raw(&b"abc"[..]).canonical_parts().is_none());
        // A frame whose header-length claim overruns the buffer.
        let mut v = vec![0u8; ENVELOPE_BYTES];
        v[6] = 200; // hdr_len = 200 but no header bytes follow
        assert!(WireFrame::from_bytes(Bytes::from(v)).canonical_parts().is_none());
    }

    #[test]
    fn raw_frame_flattens_without_copying() {
        let payload = Bytes::from(vec![1u8; 64]);
        let f = WireFrame::raw(payload.clone());
        assert_eq!(f.to_bytes().as_ptr(), payload.as_ptr());
    }
}
