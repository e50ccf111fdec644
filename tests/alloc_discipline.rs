//! Zero-allocation discipline on the steady-state dispatch path.
//!
//! The PR 3 executor work promises that dispatching an event through a
//! *warm* stack allocates nothing in the dispatch machinery itself: the
//! [`EffectSink`] is reused, the stack's work queue is reused, and the
//! only allocations left on a cast are the inherent ones
//! (building the wire frame's header block).  This test pins that down
//! with a counting global allocator:
//!
//! * a stray-`Timer` dispatch on a warm stack allocates **zero** bytes;
//! * a batch of N casts allocates exactly N × the single-cast cost — no
//!   per-event machinery allocations appear at any batch size;
//! * the `Vec`-returning `handle` shim costs extra allocations per call,
//!   which is precisely what `handle_into`/`handle_batch` eliminate;
//! * `StackStats::dispatch_buf_grows` stays at zero once warm;
//! * a compact header of up to 22 bytes lives inside the `Message`: `new`,
//!   `clone` and `decode_parts` allocate nothing for it, and the events
//!   that carry a message from layer to layer stay within their sizes
//!   (`Message` 112 B, `Up`/`Effect` 128 B, `Down`/`StackInput` 136 B);
//! * a `SimWorld::snapshot()` of the settled four-member `flush4` world
//!   shares instead of copying: at most 20 allocations and 4 kB (it was 96
//!   and 28.7 kB when slots, calendar entries and clocks were deep-copied),
//!   all of it handed back when the snapshot is dropped, one delivery
//!   fired on a snapshot copies layers of the receiving endpoint only, and
//!   a whole depth-7 `flush3` exploration — a sibling world parked at every
//!   branch point — copies fewer than 4 layers a run (a world has 12);
//! * a 64 KiB cast through `FRAG:NAK:COM` allocates at most 1.5 × its
//!   payload in bytes, sender and receiver together, and the sender no
//!   more than one fragment's copy plus per-fragment bookkeeping;
//! * MBRSHIP's log and TOTAL's order book are queues: a cast through a lone
//!   MBRSHIP layer allocates its wire frame and nothing else, data and
//!   ORDERs arriving at a lone MBRSHIP or TOTAL layer allocate nothing once
//!   the queues have grown, and a 64-byte cast through three merged §7
//!   stacks costs at most 10 allocations end to end — the same for the
//!   100 000th cast of a view as for the first.
//!
//! Everything runs in a single `#[test]` so no concurrent test thread can
//! pollute the counter.

use bytes::Bytes;
use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus_check::{explore, CheckConfig, Scenario};
use horus_core::message::HeaderMode::{Aligned, Compact};
use horus_core::message::{FieldSpec, HeaderLayout, HeaderMode, InnerImage};
use horus_core::stack::{layer_clones, reset_layer_clones};
use horus_core::wire::WireWriter;
use horus_core::WireFrame;
use horus_sim::ReadyKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static FREE_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        FREE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    // A reallocation is booked as a free of the old block and an
    // allocation of the new one.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        FREES.fetch_add(1, Ordering::Relaxed);
        FREE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// `(allocations, bytes allocated, frees, bytes freed)` so far.
fn heap_traffic() -> [u64; 4] {
    [&ALLOCS, &ALLOC_BYTES, &FREES, &FREE_BYTES].map(|c| c.load(Ordering::Relaxed))
}

fn cast_input(stack: &Stack, k: u8) -> StackInput {
    StackInput::FromApp(Down::Cast(stack.new_message(Bytes::from(vec![k; 16]))))
}

/// A one-layer layout of `n` 16-bit fields (2 × n header bytes when compact).
fn layout(n: usize, mode: HeaderMode) -> std::sync::Arc<HeaderLayout> {
    const FIELDS: [FieldSpec; 12] = [FieldSpec::new("f", 16); 12];
    std::sync::Arc::new(HeaderLayout::build(&[("L", &FIELDS[..n])], mode).unwrap())
}

/// Allocations of `Message::new`, `clone` and `decode_parts` against
/// `layout`, after checking that the three agree on every field.
fn header_allocs(layout: &std::sync::Arc<HeaderLayout>) -> [u64; 3] {
    let fields = layout.fields_of(0).len();
    let body = Bytes::from_static(b"payload");
    let before = allocs();
    let mut msg = Message::new(layout.clone(), body.clone());
    let new = allocs() - before;
    msg.push_header(0);
    for f in 0..fields {
        msg.set_field(0, f, 0xA000 + f as u64);
    }
    let before = allocs();
    let copy = msg.clone();
    let clone = allocs() - before;
    let hdr = msg.header_area().to_vec();
    let before = allocs();
    let decoded = Message::decode_parts(layout.clone(), &hdr, body).unwrap();
    let decode = allocs() - before;
    for f in 0..fields {
        assert_eq!(copy.field(0, f), 0xA000 + f as u64);
        assert_eq!(decoded.field(0, f), 0xA000 + f as u64);
    }
    assert_eq!(decoded.header_area(), &hdr[..]);
    [new, clone, decode]
}

#[test]
fn steady_state_dispatch_does_not_allocate() {
    // 0. The message object itself: a compact header of at most 22 bytes
    //    is inline, so new/clone/decode_parts allocate nothing (the body
    //    is a shared `Bytes`); a longer one falls back to one heap block
    //    and still round-trips.
    use std::mem::size_of;
    assert!(size_of::<Message>() <= 112, "{}", size_of::<Message>());
    assert!(size_of::<Up>() <= 128, "{}", size_of::<Up>());
    assert!(size_of::<Effect>() <= 128, "{}", size_of::<Effect>());
    assert!(size_of::<Down>() <= 136, "{}", size_of::<Down>());
    assert!(size_of::<StackInput>() <= 136, "{}", size_of::<StackInput>());
    assert_eq!(header_allocs(&layout(11, Compact)), [0, 0, 0], "22-byte header is inline");
    assert_eq!(header_allocs(&layout(12, Compact)), [1, 1, 1], "24-byte header: one block");
    // An aligned header stack is a box and the two vectors inside it, as it
    // was when the box had a field of its own.
    assert_eq!(header_allocs(&layout(11, Aligned)), [1, 3, 3], "aligned: box, records, bytes");

    let mut stack = build_stack(EndpointAddr::new(1), "SEQNO:COM", StackConfig::default()).unwrap();
    let _ = stack.init();
    let mut sink = EffectSink::with_capacity(64);

    // Warm up: grow the sink and the work queue to steady state.
    for k in 0..32u8 {
        stack.handle_into(cast_input(&stack, k), &mut sink);
        sink.clear();
    }
    stack.handle_into(
        StackInput::Timer { layer: 0, token: 99, now: SimTime::from_nanos(2) },
        &mut sink,
    );
    sink.clear();

    // 1. Pure dispatch machinery (a stray timer): zero allocations.
    let before = allocs();
    stack.handle_into(
        StackInput::Timer { layer: 0, token: 7, now: SimTime::from_nanos(4) },
        &mut sink,
    );
    let timer_allocs = allocs() - before;
    sink.clear();
    assert_eq!(timer_allocs, 0, "a timer dispatch on a warm stack must not allocate");

    // 2. Single warm cast: only the inherent wire-building allocations.
    let input = cast_input(&stack, 40);
    let before = allocs();
    stack.handle_into(input, &mut sink);
    let per_cast = allocs() - before;
    sink.clear();
    assert!(per_cast > 0, "a cast builds a wire frame; expected some inherent allocations");

    // 3. A batch of N casts costs exactly N single casts: the machinery
    //    (sink, work queue, batch loop) adds nothing per event.
    const N: u64 = 64;
    let mut inputs: Vec<StackInput> = Vec::with_capacity(N as usize);
    for k in 0..N {
        inputs.push(cast_input(&stack, (k % 251) as u8));
    }
    let before = allocs();
    stack.handle_batch(inputs.drain(..), &mut sink);
    let batch_allocs = allocs() - before;
    assert_eq!(
        batch_allocs,
        N * per_cast,
        "batch of {N} casts must cost exactly {N} x the single-cast inherent allocations"
    );
    assert_eq!(sink.len() as u64, N, "one NetCast effect per input");
    sink.clear();

    // 4. The Vec-returning shim pays per call what the sink path saves.
    let input = cast_input(&stack, 41);
    let before = allocs();
    let fx = stack.handle(input);
    let shim_allocs = allocs() - before;
    drop(fx);
    assert!(
        shim_allocs > per_cast,
        "handle() shim (fresh Vec per call, {shim_allocs} allocs) should cost more than \
         sink dispatch ({per_cast} allocs)"
    );

    // 5. The stack's own buffers reached steady state long ago.
    let grows_at_warm = stack.stats().dispatch_buf_grows;
    for k in 0..64u8 {
        stack.handle_into(cast_input(&stack, k), &mut sink);
        sink.clear();
    }
    assert_eq!(
        stack.stats().dispatch_buf_grows,
        grows_at_warm,
        "the work queue must not grow after warmup"
    );

    snapshots_share_instead_of_copying();
    a_fragmented_cast_allocates_little_more_than_its_payload();
    the_section_7_stack_orders_a_cast_in_ten_allocations();
}

/// A frame for the single-layer stack `rx` with the given header fields.
fn framed(rx: &Stack, fields: &[u64], body: Bytes) -> WireFrame {
    let mut msg = rx.new_message(body);
    msg.push_header(0);
    for (i, &v) in fields.iter().enumerate() {
        msg.set_field(0, i, v);
    }
    WireFrame::build(rx.fingerprint(), msg.header_area(), msg.body().clone())
}

/// Part 8: the two layers on their own, then the whole §7 stack.
fn the_section_7_stack_orders_a_cast_in_ten_allocations() {
    assert!(std::mem::size_of::<InnerImage>() <= 72, "{}", std::mem::size_of::<InnerImage>());
    let ep = EndpointAddr::new;
    let lone = |i: u64, desc: &str| {
        let mut s = build_stack(ep(i), desc, StackConfig::default()).expect("stack builds");
        let _ = s.init();
        let _ = s.handle(StackInput::FromApp(Down::Join { group: GroupAddr::new(1) }));
        s
    };
    let payload = Bytes::from(vec![0x5Au8; 64]);
    let mut sink = EffectSink::with_capacity(64);

    // 8a. MBRSHIP alone, member 2 of the view {1, 2}, told so by a VIEW
    // message (header `[kind, epoch, vc, seq]`; VIEW is kind 5, data 0).
    let mut member = lone(2, "MBRSHIP");
    let view = View::initial(GroupAddr::new(1), ep(1)).with_joined(&[ep(2)]);
    let vc = view.id().counter;
    let mut w = WireWriter::new();
    w.put_view(&view);
    w.put_addrs(&[]);
    w.put_addrs(&[]);
    let wire = framed(&member, &[5, 0, vc, 0], w.finish());
    let _ = member.handle(StackInput::FromNet { from: ep(1), cast: true, wire });
    assert_eq!(member.view().map(View::len), Some(2));
    let before = allocs();
    let frame = WireFrame::build(member.fingerprint(), &[0; 10], payload.clone());
    let one_frame = allocs() - before;
    drop(frame);
    // Sending: the wire frame is the only thing a cast allocates; the log
    // entry is an append to a queue that has grown past it.
    // Receiving: nothing at all.
    let (mut sent, mut received) = (0, 0);
    for seq in 1..=4096u64 {
        let warm = seq > 2049; // entry 2 049 doubles both queues; the next doubling is 4 097's
        let msg = member.new_message(payload.clone());
        let before = allocs();
        member.handle_into(StackInput::FromApp(Down::Cast(msg)), &mut sink);
        sent += if warm { allocs() - before } else { 0 };
        sink.clear();
        let wire = framed(&member, &[0, 0, vc, seq], payload.clone());
        let before = allocs();
        member.handle_into(StackInput::FromNet { from: ep(1), cast: true, wire }, &mut sink);
        received += if warm { allocs() - before } else { 0 };
        assert_eq!(sink.len(), 1, "cast {seq} of member 1 is delivered");
        sink.clear();
    }
    assert_eq!(sent, 2047 * one_frame, "a cast through MBRSHIP allocates its frame only");
    assert_eq!(received, 0, "a delivery through MBRSHIP allocates nothing");

    // 8b. TOTAL alone (header `[kind, tseq]`, data 0, ORDER 1): eight casts
    // of member 1, then the ORDER that names them; from the second round
    // on neither allocates.
    let mut total = lone(2, "TOTAL");
    let mut received = 0;
    for round in 0..64u64 {
        for tseq in 8 * round + 1..=8 * round + 8 {
            let wire = framed(&total, &[0, tseq], payload.clone());
            let before = allocs();
            total.handle_into(StackInput::FromNet { from: ep(1), cast: true, wire }, &mut sink);
            received += if round > 0 { allocs() - before } else { 0 };
            assert!(sink.is_empty());
        }
        let mut w = WireWriter::new();
        w.put_u64(8 * round + 1);
        w.put_addr(ep(1));
        w.put_u32(8);
        for tseq in 8 * round + 1..=8 * round + 8 {
            w.put_addr(ep(1));
            w.put_u32(tseq as u32);
        }
        let wire = framed(&total, &[1, 0], w.finish());
        let before = allocs();
        total.handle_into(StackInput::FromNet { from: ep(1), cast: true, wire }, &mut sink);
        received += if round > 0 { allocs() - before } else { 0 };
        assert_eq!(sink.len(), 8, "round {round}: the ORDER delivers its eight casts");
        sink.clear();
    }
    assert_eq!(received, 0, "data and ORDERs through TOTAL allocate nothing");

    // 8c. Three §7 stacks merged into one view and pumped by hand: every
    // frame a stack emits is handed to its destinations, first in first
    // out, until nothing is in flight.  No timer ever fires.
    const STACK: &str = "TOTAL:MBRSHIP:FRAG:NAK:COM(promiscuous=true)";
    let mut stacks = [lone(1, STACK), lone(2, STACK), lone(3, STACK)];
    let mut in_flight: VecDeque<(usize, EndpointAddr, bool, WireFrame)> = VecDeque::new();
    let mut delivered = [0u64; 3];
    let mut pump = |stacks: &mut [Stack; 3], delivered: &mut [u64; 3], at: usize, input| {
        let mut next = Some((at, input));
        while let Some((at, input)) = next.take() {
            stacks[at].handle_into(input, &mut sink);
            let from = stacks[at].local_addr();
            for fx in sink.drain() {
                match fx {
                    Effect::NetCast { wire } => {
                        in_flight.extend((0..3).map(|to| (to, from, true, wire.clone())));
                    }
                    Effect::NetSend { dests, wire } => in_flight.extend(
                        dests.iter().map(|d| (d.raw() as usize - 1, from, false, wire.clone())),
                    ),
                    Effect::Deliver(Up::Cast { .. }) => delivered[at] += 1,
                    _ => {}
                }
            }
            next = in_flight
                .pop_front()
                .map(|(to, from, cast, wire)| (to, StackInput::FromNet { from, cast, wire }));
        }
    };
    for joiner in [1, 2] {
        let merge = StackInput::FromApp(Down::Merge { contact: ep(1) });
        pump(&mut stacks, &mut delivered, joiner, merge);
    }
    for s in &stacks {
        assert_eq!(s.view().map(View::len), Some(3), "{} joined", s.local_addr());
    }
    // 64-byte casts round-robin, counted in windows of 10 000.
    let mut windows = Vec::new();
    for window in 0..10 {
        let before = allocs();
        for k in 0..10_000 {
            let at = k % 3;
            let msg = stacks[at].new_message(payload.clone());
            pump(&mut stacks, &mut delivered, at, StackInput::FromApp(Down::Cast(msg)));
        }
        windows.push(allocs() - before);
        assert_eq!(delivered, [10_000 * (window + 1); 3], "every cast is delivered everywhere");
    }
    let (first, last) = (windows[0], windows[9]);
    assert!(first <= 100_000 && last <= 100_000, "allocations per 10 000 casts: {windows:?}");
    assert!(
        first.abs_diff(last) <= 2_500,
        "casts 1-10 000 and 90 001-100 000 of one view cost the same: {windows:?}"
    );
}

/// Part 7: one 64 KiB cast through lone `FRAG:NAK:COM` stacks, driven as
/// `horus-bench`'s `core.pump_ns_64k` drives them.
fn a_fragmented_cast_allocates_little_more_than_its_payload() {
    const PAYLOAD: u64 = 65_536;
    const FRAGMENT: u64 = 1024;
    let lone = |i: u64| {
        let mut s = build_stack(EndpointAddr::new(i), "FRAG:NAK:COM", StackConfig::default())
            .expect("stack builds");
        let _ = s.init();
        let _ = s.handle(StackInput::FromApp(Down::Join { group: GroupAddr::new(1) }));
        s
    };
    let (mut tx, mut rx) = (lone(1), lone(2));
    let payload = Bytes::from(vec![0xA5u8; PAYLOAD as usize]);
    let (mut down, mut up) = (EffectSink::with_capacity(128), EffectSink::with_capacity(128));
    let (mut sender, mut receiver) = (0, 0);
    // The first two casts warm sinks, scratch queues and NAK's buffers up
    // (its retransmission queue doubles during the second, fourth, eighth
    // ... cast until it holds `buffer_cap` entries, and never again); the
    // third is the one measured.
    for measured in [false, false, true] {
        let msg = tx.new_message(payload.clone());
        let before = heap_traffic()[1];
        tx.handle_into(StackInput::FromApp(Down::Cast(msg)), &mut down);
        let sent = heap_traffic()[1];
        let mut delivered = 0;
        for fx in down.drain() {
            let Effect::NetCast { wire } = fx else { continue };
            rx.handle_into(
                StackInput::FromNet { from: tx.local_addr(), cast: true, wire },
                &mut up,
            );
            for fx in up.drain() {
                if let Effect::Deliver(Up::Cast { msg, .. }) = fx {
                    assert_eq!(msg.body(), &payload);
                    delivered += 1;
                }
            }
        }
        assert_eq!(delivered, 1);
        if measured {
            (sender, receiver) = (sent - before, heap_traffic()[1] - sent);
        }
    }
    // Sender: of the payload only the first fragment's 1 024 bytes are
    // copied; the rest is a frame head per fragment, NAK's retransmission
    // entries going into a queue that is already there (4.5 kB in all;
    // 23.7 kB with a B-tree node per eleven entries, 88 kB with the
    // serialized image).
    // Receiver: the one gather buffer and the same bookkeeping (69.6 kB;
    // 327 kB with the doubling `Vec` and the body copied out of it).
    assert!(sender <= FRAGMENT + 65 * 64, "the sender allocated {sender} B");
    assert!(
        sender + receiver <= PAYLOAD * 3 / 2,
        "a 64 KiB cast allocated {sender} + {receiver} B end to end"
    );
}

/// Part 6 of the one test above (one `#[test]`, one thread, clean counters).
fn snapshots_share_instead_of_copying() {
    let scenario = Scenario::by_name("flush4").expect("registered scenario");
    let world = scenario.build();

    // 6a. The snapshot itself: two B-tree maps' nodes and little else.
    let before = heap_traffic();
    let snap = world.snapshot().expect("flush4 layers support snapshots");
    let taken = heap_traffic();
    drop(snap);
    let dropped = heap_traffic();
    let (allocs, bytes) = (taken[0] - before[0], taken[1] - before[1]);
    assert!(allocs <= 20, "a flush4 snapshot made {allocs} allocations ({bytes} B)");
    assert!(bytes <= 4096, "a flush4 snapshot allocated {bytes} B in {allocs} blocks");
    assert_eq!(taken[2..], before[2..], "taking a snapshot frees nothing");
    assert_eq!(
        [dropped[2] - taken[2], dropped[3] - taken[3]],
        [allocs, bytes],
        "dropping the snapshot hands back exactly what taking it allocated"
    );
    assert_eq!(dropped[..2], taken[..2], "dropping a snapshot allocates nothing");

    // 6b. Copy-on-write stops at the endpoint an event reaches: run a
    // snapshot forward to its next frame delivery, fork there, fire that
    // one delivery on the fork.
    let mut at_delivery = world.snapshot().expect("snapshot");
    let delivery = loop {
        let next = *at_delivery.ready_events(Duration::ZERO).first().expect("flush4 keeps going");
        if matches!(next.kind, ReadyKind::Deliver { .. }) {
            break next;
        }
        at_delivery.fire(next.id);
    };
    let mut fork = at_delivery.snapshot().expect("snapshot");
    let depth = world.stack(EndpointAddr::new(1)).expect("member 1").layer_names().len() as u64;
    reset_layer_clones();
    assert!(fork.fire(delivery.id));
    let cloned = layer_clones();
    assert!(
        (1..=depth).contains(&cloned),
        "one delivery copied {cloned} layers; the receiving stack has {depth}"
    );
    assert_eq!(at_delivery.fingerprint(), at_delivery.fingerprint_fresh());
    assert_eq!(fork.fingerprint(), fork.fingerprint_fresh());

    // 6c. And it stays that way across a search: a layer is duplicated only
    // when a resumed sibling first mutates it, so a run costs well under
    // the 4 layers x 3 members a copy of the world would.
    let flush3 = Scenario::by_name("flush3").expect("registered scenario");
    let cfg = CheckConfig { max_depth: 7, max_drops: 1, ..CheckConfig::default() };
    reset_layer_clones();
    let report = explore(flush3, &cfg);
    let cloned = layer_clones();
    assert!(report.exhausted && report.violation.is_none(), "depth-7 flush3 must stay clean");
    assert!(
        cloned < 4 * report.runs,
        "snapshots must stay copy-on-write: {cloned} layer clones over {} runs",
        report.runs
    );
}
