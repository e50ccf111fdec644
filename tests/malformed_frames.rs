//! Malformed-frame robustness: arbitrary and corrupted bytes aimed at the
//! wire codec and at the receive path of **every** registered layer.  The
//! contract everywhere is error-not-panic — a garbage frame is dropped
//! (decode drop, fingerprint drop, or a layer-level discard), never a
//! crash.  This is the §2 claim that layers tolerate whatever the network
//! hands them, tested at the trust boundary.

use bytes::Bytes;
use horus::layers::registry::{build_stack, layer_names};
use horus::prelude::*;
use horus_core::wire::{WireReader, WireWriter};
use horus_core::WireFrame;
use horus_trace::TraceBuf;
use proptest::prelude::*;
use std::sync::Arc;

/// Drives every `WireReader` getter over the buffer until exhaustion;
/// each must return an error (never panic) on truncated or nonsense input.
fn chew(buf: &[u8]) {
    let mut r = WireReader::new(buf);
    loop {
        let before = r.remaining();
        let _ = r.get_u8();
        let _ = r.get_u16();
        let _ = r.get_u32();
        let _ = r.get_u64();
        let _ = r.get_addr();
        let _ = r.get_group();
        let _ = r.get_bytes();
        let _ = r.get_addrs();
        let _ = r.get_u64s();
        let _ = r.get_view();
        if r.remaining() == 0 || r.remaining() == before {
            break;
        }
    }
}

/// One single-layer stack per registered layer name, receiver side.
fn receiver(name: &str) -> Stack {
    let mut s = build_stack(EndpointAddr::new(2), name, StackConfig::default())
        .unwrap_or_else(|e| panic!("{name}: single-layer stack builds: {e}"));
    let _ = s.init();
    s
}

/// Frames `chunk` for `rx` (a single-layer FRAG or NFRAG stack) under
/// that layer's header with the given field values, and returns what the
/// stack did with it: its effects, and the notes its layer traced.
fn feed_fragment(rx: &mut Stack, fields: &[u64], chunk: &[u8]) -> (Vec<Effect>, Vec<String>) {
    let mut msg = rx.new_message(Bytes::copy_from_slice(chunk));
    msg.push_header(0);
    for (i, &v) in fields.iter().enumerate() {
        msg.set_field(0, i, v);
    }
    let wire = WireFrame::build(rx.fingerprint(), msg.header_area(), msg.body().clone());
    let buf = Arc::new(TraceBuf::new());
    rx.set_tracer(buf.clone());
    let fx = rx.handle(StackInput::FromNet { from: EndpointAddr::new(1), cast: true, wire });
    let notes = buf.take().into_iter().filter_map(|r| match r.kind {
        TraceKind::Note(text) => Some(text),
        _ => None,
    });
    (fx, notes.collect())
}

fn delivered(fx: &[Effect]) -> usize {
    fx.iter().filter(|e| matches!(e, Effect::Deliver(Up::Cast { .. }))).count()
}

fn traced(notes: &[String]) -> bool {
    notes.iter().any(|t| t.contains("reassembly decode failed"))
}

/// The layer's own dump says how many reassemblies it is holding.
fn holds_no_partial(rx: &Stack) -> bool {
    rx.dump().iter().any(|(_, state)| state.contains("partial=0"))
}

/// Forged FRAG sequences (`[last, wrapped]` header, any chunk): a message
/// that ends on a wrong `last`, is made of zero-length chunks, or opens
/// with a chunk shorter than the header length it claims is dropped with a
/// trace — no panic, no delivery, nothing left in `partial`.
#[test]
fn frag_drops_malformed_fragment_sequences_with_a_trace() {
    let cases: [&[(&[u8], u64)]; 5] = [
        // `last` on the first fragment of what claims a 200-byte header.
        &[(&[200, 0, 1, 2, 3], 1)],
        // The same claim spread over three fragments, two of them empty.
        &[(&[200], 0), (&[], 0), (&[0, 9, 9], 0), (&[], 1)],
        // Nothing but zero-length chunks: shorter than the length prefix.
        &[(&[], 0), (&[], 0), (&[], 1)],
        // One byte: half a length prefix.
        &[(&[7], 1)],
        // A header of the wrong size for this stack's layout.
        &[(&[3, 0], 0), (&[1, 2, 3, 4, 5, 6], 1)],
    ];
    for (n, case) in cases.iter().enumerate() {
        let mut rx = receiver("FRAG");
        for (i, &(chunk, last)) in case.iter().enumerate() {
            let (fx, notes) = feed_fragment(&mut rx, &[last, 1], chunk);
            assert_eq!(delivered(&fx), 0, "case {n}, fragment {i}");
            assert_eq!(traced(&notes), last == 1, "case {n}, fragment {i}: {notes:?}");
        }
        assert!(holds_no_partial(&rx), "case {n}: {:?}", rx.dump());
    }
}

/// An ORDER body as TOTAL's token holder writes it, except that the count
/// on the wire is `n`, whatever the number of entries that follow.
fn order_body(g_base: u64, n: u32, entries: &[(u64, u32)]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(g_base);
    w.put_addr(EndpointAddr::new(1));
    w.put_u32(n);
    for &(src, tseq) in entries {
        w.put_u64(src); // an address, or the null one no address encodes to
        w.put_u32(tseq);
    }
    w.finish().to_vec()
}

/// TOTAL's `[kind, tseq]` header: data is kind 0, an ORDER kind 1.
fn feed_total(rx: &mut Stack, kind: u64, tseq: u64, body: &[u8]) -> (Vec<Effect>, Vec<String>) {
    feed_fragment(rx, &[kind, tseq], body)
}

fn traces(notes: &[String], what: &str) -> usize {
    notes.iter().filter(|t| t.contains(what)).count()
}

/// A forged ORDER is parsed whole before any of it is applied: a range
/// that runs past `u64::MAX`, a count the bytes present cannot hold, or a
/// body cut short anywhere is dropped with a trace and leaves no mark on
/// the layer (it used to overflow — a panic in a debug build — or apply the
/// entries it managed to read without their coverage).
#[test]
fn total_drops_a_malformed_order_whole() {
    let entries = [(1, 1), (3, 1)];
    let intact = order_body(1, 2, &entries);
    let mut forged = vec![
        order_body(u64::MAX, 2, &entries),
        order_body(u64::MAX - 1, 2, &entries),
        order_body(1, u32::MAX, &entries),
        order_body(1, 3, &entries),
        order_body(1, 2, &[(1, 1), (0, 1)]), // a null sender address
    ];
    forged.extend((0..intact.len()).map(|cut| intact[..cut].to_vec()));
    let mut rx = receiver("TOTAL");
    let before = rx.dump();
    for (i, body) in forged.iter().enumerate() {
        let (fx, notes) = feed_total(&mut rx, 1, 0, body);
        assert_eq!(traces(&notes, "malformed ORDER"), 1, "case {i}: {notes:?}");
        assert!(fx.is_empty(), "case {i}: nothing but the trace: {fx:?}");
        assert_eq!(rx.dump(), before, "case {i}");
    }
    // The intact one is applied.
    let (fx, notes) = feed_total(&mut rx, 1, 0, &intact);
    assert!(fx.is_empty() && notes.is_empty(), "{fx:?} {notes:?}");
    assert!(rx.dump()[0].1.contains("frontier=3 delivered=0 buffered=0 ordered=2 assigned=2"));

    // Far ahead of the frontier an ORDER parks — as the message it came in,
    // whatever the distance — and one ending exactly at `u64::MAX` is as
    // good as any.
    for g_base in [1 << 40, u64::MAX - 2] {
        let mut rx = receiver("TOTAL");
        let (fx, notes) = feed_total(&mut rx, 1, 0, &order_body(g_base, 2, &entries));
        assert!(fx.is_empty() && notes.is_empty(), "{fx:?} {notes:?}");
        let dump = rx.dump()[0].1.clone();
        assert!(dump.contains("frontier=1 delivered=0 buffered=0 ordered=2 assigned=2"), "{dump}");
        assert!(
            dump.contains(&format!("pend=[({g_base}, (ep:1, 1)), ({}, (ep:3, 1))]", g_base + 1))
        );
    }
}

/// Data that breaks the per-sender FIFO order TOTAL is entitled to (only a
/// forged frame or a mis-composed stack can) is put in its place if it
/// fills a gap and dropped with a trace if it repeats a cast that is
/// buffered or was delivered; nothing is delivered twice.
#[test]
fn total_buffers_out_of_order_data_once() {
    let mut rx = receiver("TOTAL");
    let buffered = |rx: &Stack| rx.dump()[0].1.split(' ').nth(5).unwrap().to_string();
    for (tseq, repeats) in [(5, 0), (3, 0), (5, 1), (3, 1), (4, 0), (0, 1)] {
        let (fx, notes) = feed_total(&mut rx, 0, tseq, &[tseq as u8]);
        assert_eq!(traces(&notes, "duplicate data"), repeats, "tseq {tseq}: {notes:?}");
        assert_eq!(delivered(&fx), 0);
    }
    assert_eq!(buffered(&rx), "buffered=3");
    // Sender 1 is the `from` of every frame `feed_fragment` builds.
    let (fx, _) = feed_total(&mut rx, 1, 0, &order_body(1, 3, &[(1, 3), (1, 4), (1, 5)]));
    let bodies: Vec<u8> = fx
        .iter()
        .filter_map(|e| match e {
            Effect::Deliver(Up::Cast { msg, .. }) => Some(msg.body()[0]),
            _ => None,
        })
        .collect();
    assert_eq!(bodies, [3, 4, 5]);
    for tseq in [4, 5, 1] {
        let (fx, notes) = feed_total(&mut rx, 0, tseq, &[tseq as u8]);
        assert_eq!((traces(&notes, "duplicate data"), fx.len()), (1, 0), "tseq {tseq}: {fx:?}");
    }
    assert_eq!(buffered(&rx), "buffered=0");
}

/// Counts MBRSHIP reads off the wire before any view check: a FLUSH whose
/// joiner-view count is `u32::MAX` over an empty rest (the layer used to
/// reserve that many views up front, and the allocation aborted the
/// process), and a SYNC whose section count is.  A joined member drops
/// both: nothing comes out, and its state is as before.
#[test]
fn mbrship_drops_a_count_its_body_cannot_hold() {
    let mut rx = receiver("MBRSHIP");
    let _ = rx.handle(StackInput::FromApp(Down::Join { group: GroupAddr::new(1) }));
    let before = rx.dump();
    let mut flush = WireWriter::new();
    flush.put_addrs(&[]);
    flush.put_addrs(&[]);
    flush.put_u32(u32::MAX);
    let mut sync = WireWriter::new();
    sync.put_u32(u32::MAX);
    // MBRSHIP's `[kind, epoch, vc, seq]` header: FLUSH is kind 1, SYNC 3.
    for (kind, body) in [(1, flush.finish()), (3, sync.finish())] {
        let (fx, _) = feed_fragment(&mut rx, &[kind, 1, 0, 0], &body);
        assert!(fx.is_empty(), "kind {kind}: {fx:?}");
        assert_eq!(rx.dump(), before, "kind {kind}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Arbitrary bytes as an ORDER body, then arbitrary data: never a
    /// panic, whatever was parked, folded or buffered.
    #[test]
    fn total_survives_arbitrary_orders(
        bodies in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..64), any::<bool>(), any::<u32>()), 0..12),
    ) {
        let mut rx = receiver("TOTAL");
        for (body, order, tseq) in &bodies {
            let _ = feed_total(&mut rx, *order as u64, *tseq as u64, body);
            let _ = rx.dump();
        }
    }

    /// Arbitrary forged fragment sequences, FRAG and NFRAG: never a panic;
    /// once a `last` fragment (FRAG) or a full set (NFRAG) has closed
    /// every message, nothing stays in `partial`, whatever was decoded.
    #[test]
    fn fragment_sequences_never_panic_and_never_leak(
        chunks in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..40), any::<bool>()), 0..12),
        count in 1u64..6,
    ) {
        let mut frag = receiver("FRAG");
        for (chunk, last) in &chunks {
            let (fx, _) = feed_fragment(&mut frag, &[*last as u64, 1], chunk);
            prop_assert!(delivered(&fx) <= 1);
        }
        let _ = feed_fragment(&mut frag, &[1, 1], &[]);
        prop_assert!(holds_no_partial(&frag), "{:?}", frag.dump());

        // NFRAG: [wrapped, msg_id, idx, count].  Message 7 can never
        // complete: flagged chunks claim `count + 1` fragments but only
        // indices below `count` are ever sent (duplicates included), the
        // others carry an index past their own count and are discarded
        // before anything is held.  Message 9 then arrives whole.
        let mut nfrag = receiver("NFRAG");
        for (i, (chunk, in_range)) in chunks.iter().enumerate() {
            let fields = if *in_range {
                [1, 7, i as u64 % count, count + 1]
            } else {
                [1, 7, count + i as u64, count]
            };
            let _ = feed_fragment(&mut nfrag, &fields, chunk);
        }
        for idx in 0..count {
            let chunk = chunks.get(idx as usize).map_or(&[][..], |(c, _)| &c[..]);
            let (fx, _) = feed_fragment(&mut nfrag, &[1, 9, idx, count], chunk);
            prop_assert!(delivered(&fx) <= 1);
            prop_assert!(idx + 1 == count || fx.is_empty());
        }
        // Only message 7 may still be held, and only if any of it was.
        let held = chunks.iter().any(|(_, in_range)| *in_range) as usize;
        let dump = nfrag.dump();
        prop_assert!(
            dump.iter().any(|(_, s)| s.contains(&format!("partial={held}"))),
            "{:?}",
            dump
        );
    }

    /// The wire codec itself: every getter is total over arbitrary bytes.
    #[test]
    fn wire_reader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        chew(&bytes);
    }

    /// Arbitrary bytes straight off the network, at every layer: the frame
    /// decoder rejects garbage and nothing below it panics.
    #[test]
    fn every_layer_survives_arbitrary_frames(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        cast in any::<bool>(),
    ) {
        for name in layer_names() {
            let mut s = receiver(name);
            let _ = s.handle(StackInput::FromNet {
                from: EndpointAddr::new(1),
                cast,
                wire: WireFrame::raw(Bytes::from(bytes.clone())),
            });
        }
    }

    /// A validly framed message, then bit-flipped and truncated at random:
    /// whatever survives the fingerprint check reaches the layer's header
    /// parser and body handlers with garbage values — still no panic.
    #[test]
    fn every_layer_survives_mutated_valid_frames(
        body in proptest::collection::vec(any::<u8>(), 0..64),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8),
        cut in any::<u16>(),
        cast in any::<bool>(),
    ) {
        for name in layer_names() {
            // Sender-side twin stamps a real frame for this layer.
            let mut tx = build_stack(EndpointAddr::new(1), name, StackConfig::default()).unwrap();
            let _ = tx.init();
            let msg = tx.new_message(Bytes::from(body.clone()));
            let fx = tx.handle(StackInput::FromApp(Down::Cast(msg)));
            let Some(wire) = fx.iter().find_map(|e| match e {
                Effect::NetCast { wire } => Some(wire.clone()),
                Effect::NetSend { wire, .. } => Some(wire.clone()),
                _ => None,
            }) else {
                continue; // layer queued or consumed the cast — nothing on the wire
            };
            let mut bytes = wire.to_bytes().to_vec();
            if bytes.is_empty() {
                continue;
            }
            for (pos, val) in &flips {
                let i = *pos as usize % bytes.len();
                bytes[i] ^= *val;
            }
            bytes.truncate(cut as usize % (bytes.len() + 1));
            let mut rx = receiver(name);
            let _ = rx.handle(StackInput::FromNet {
                from: EndpointAddr::new(1),
                cast,
                wire: WireFrame::raw(Bytes::from(bytes)),
            });
        }
    }
}

/// One `L:COM` stack per registered layer name in the aligned (1995)
/// header layout, where a layer's `open` pops a real record.
fn aligned_receiver(name: &str) -> Stack {
    let config = StackConfig { mode: HeaderMode::Aligned, ..StackConfig::default() };
    let mut s = build_stack(EndpointAddr::new(2), &format!("{name}:COM"), config)
        .unwrap_or_else(|e| panic!("{name}:COM: aligned stack builds: {e}"));
    let _ = s.init();
    let _ = s.handle(StackInput::FromApp(Down::Join { group: GroupAddr::new(1) }));
    s
}

/// Hands `rx` a frame with header area `hdr`, as a cast or a send from
/// ep:1; returns its effects and the frame drops it traced.
fn feed_area(rx: &mut Stack, hdr: &[u8], cast: bool) -> (Vec<Effect>, Vec<DropReason>) {
    let wire = WireFrame::build(rx.fingerprint(), hdr, Bytes::from_static(b"body"));
    let buf = Arc::new(TraceBuf::new());
    rx.set_tracer(buf.clone());
    let fx = rx.handle(StackInput::FromNet { from: EndpointAddr::new(1), cast, wire });
    let drops = buf.take().into_iter().filter_map(|r| match r.kind {
        TraceKind::FrameDrop { reason, .. } => Some(reason),
        _ => None,
    });
    (fx, drops.collect())
}

/// The aligned layout's `open` guards: a frame whose record stack lacks
/// the layer's record (here, an empty one, since COM pushes none), as a
/// cast and as a send, at every registered layer with a header.  Wherever
/// the layer opens the message, the drop is traced and counted, and
/// nothing reaches the application; every such layer opens in at least one
/// direction.  A layer with no header opens nothing and drops nothing.
#[test]
fn every_layer_drops_a_frame_without_its_aligned_record() {
    let mut opened = 0;
    for name in layer_names() {
        let mut traced = 0;
        for cast in [true, false] {
            let mut rx = aligned_receiver(name);
            let (fx, drops) = feed_area(&mut rx, &[], cast);
            assert!(drops.iter().all(|&r| r == DropReason::Decode), "{name}: {drops:?}");
            assert_eq!(rx.stats().decode_drops, drops.len() as u64, "{name}");
            if !drops.is_empty() {
                assert!(fx.is_empty(), "{name} (cast: {cast}): {fx:?}");
            }
            traced += drops.len();
        }
        let has_header = !aligned_receiver(name).layout().fields_of(0).is_empty();
        assert_eq!(traced > 0, has_header, "{name}: {traced} drops");
        opened += usize::from(has_header);
    }
    assert_eq!(opened, 26);
}

/// The aligned record stack is parsed off the wire before any layer runs:
/// a record header cut short, one naming a layer the stack lacks or a
/// length its layer does not have, and a record that runs past the header
/// area are each a traced decode drop, with nothing delivered.
#[test]
fn a_malformed_aligned_record_stack_is_a_decode_drop() {
    let mut rx = aligned_receiver("NAK");
    let record: usize = rx.layout().fields_of(0).iter().map(|f| f.aligned_bytes()).sum();
    let (len, pad) = (record as u16, (record.div_ceil(4) * 4 - record) as u8);
    assert!(pad > 0, "NAK's record is padded, so the cases below differ");
    let [lo, hi] = len.to_le_bytes();
    let areas: [&[u8]; 5] = [
        &[0, pad],                  // half a record header
        &[7, pad, lo, hi],          // a layer the stack does not have
        &[0, pad, lo + 1, hi],      // a length NAK's record does not have
        &[0, pad + 1, lo, hi],      // padding that does not word-align it
        &[0, pad, lo, hi, 1, 2, 3], // a record that overruns the area
    ];
    for (i, area) in areas.iter().enumerate() {
        let (fx, drops) = feed_area(&mut rx, area, true);
        assert_eq!(drops, [DropReason::Decode], "case {i}");
        assert!(fx.is_empty(), "case {i}: {fx:?}");
    }
    assert_eq!(rx.stats().decode_drops, areas.len() as u64);
}
