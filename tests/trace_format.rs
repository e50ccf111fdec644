//! Property tests over the trace file format: free text survives escaping
//! and the v2 encoding whatever bytes it holds, `parse_trace_v2` returns
//! exactly the typed records `serialize_trace_v2` was given, one record of
//! every kind encodes and renders to pinned golden bytes and text, and
//! `parse_trace_v2` — the only code that reads trace bytes from disk —
//! answers anything that is not a trace with `Err`, never a panic.  Plus
//! the latency `Histogram`'s accuracy contract: quantiles are exact to the
//! bucket, i.e. within 25% of the true rank statistic.

use horus_check::{replay_choices_traced, Scenario, Schedule};
use horus_core::trace::{DropReason, TraceKind, TraceSink, KIND_NAMES};
use horus_core::{EndpointAddr, SimTime};
use horus_trace::{
    parse_trace_v2, record_line, serialize_trace_v2, trace_text, Histogram, TraceBuf, TraceRecord,
    TRACE_HEADER_V2,
};
use proptest::prelude::*;
use proptest::strategy::Func;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// Layer / kind names must be `&'static str`: draw from pools.
const LAYERS: &[&str] = &["COM", "NAK", "FRAG", "FD", "MBRSHIP", "MERGE", "TOTAL"];
const UP_KINDS: &[&str] = &["CAST", "SEND", "VIEW", "BLOCK"];
const DROPS: &[DropReason] = &[
    DropReason::Decode,
    DropReason::Fingerprint,
    DropReason::Induced,
    DropReason::Loss,
    DropReason::Partition,
    DropReason::Mtu,
    DropReason::Unroutable,
];

/// Characters chosen to stress the escaper: field/record separators, the
/// escape char itself, ASCII + Unicode whitespace, control bytes, and
/// multi-byte UTF-8.
const NASTY_CHARS: &[char] = &[
    ' ', '=', '%', '\t', '\n', '\r', '\u{0}', '\u{1b}', '\u{7f}', '\u{a0}', '\u{2028}', 'é', '日',
    '🦀', 'a', 'Z', '0', ':', ',', '#',
];

fn arb_text(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..24);
    (0..len).map(|_| NASTY_CHARS[rng.gen_range(0..NASTY_CHARS.len())]).collect()
}

fn arb_ep(rng: &mut StdRng) -> EndpointAddr {
    // `ep:0` (world-global) is spelled NULL, not `new(0)`.
    match rng.gen_range(0..999u64) {
        0 => EndpointAddr::NULL,
        n => EndpointAddr::new(n),
    }
}

fn arb_kind(rng: &mut StdRng) -> TraceKind {
    let layer = LAYERS[rng.gen_range(0..LAYERS.len())];
    let ep = arb_ep(rng);
    // Mix canonical small values with full-range u64s.
    let n = |rng: &mut StdRng| -> u64 {
        if rng.gen_bool(0.5) {
            rng.gen_range(0..100)
        } else {
            rng.next_u64()
        }
    };
    match rng.gen_range(0..KIND_NAMES.len()) {
        0 => TraceKind::LayerDown { layer },
        1 => TraceKind::LayerUp { layer },
        2 => TraceKind::LayerTimer { layer, token: n(rng) },
        3 => TraceKind::FrameSend { cast: rng.next_u64() & 1 == 1, bytes: rng.gen_range(0..65536) },
        4 => TraceKind::FrameDeliver {
            from: ep,
            cast: rng.next_u64() & 1 == 1,
            bytes: rng.gen_range(0..65536),
            digest: n(rng),
            seq: n(rng),
        },
        5 => TraceKind::FrameDrop {
            digest: n(rng),
            seq: n(rng),
            reason: DROPS[rng.gen_range(0..DROPS.len())],
        },
        6 => TraceKind::TimerArm { layer: rng.gen_range(0..40), token: n(rng), delay_us: n(rng) },
        7 => TraceKind::TimerFire {
            layer: rng.gen_range(0..40),
            token: n(rng),
            digest: n(rng),
            seq: n(rng),
        },
        8 => TraceKind::AppDown {
            kind: UP_KINDS[rng.gen_range(0..UP_KINDS.len())],
            digest: n(rng),
            seq: n(rng),
        },
        9 => TraceKind::Deliver {
            kind: UP_KINDS[rng.gen_range(0..UP_KINDS.len())],
            src: n(rng),
            digest: n(rng),
        },
        10 => TraceKind::ViewInstall { view: arb_text(rng) },
        11 => TraceKind::Crash { digest: n(rng), seq: n(rng) },
        12 => TraceKind::Suspect { target: ep, digest: n(rng), seq: n(rng) },
        13 => TraceKind::InjectCrash,
        14 => TraceKind::InjectSuspect { observer: ep, target: arb_ep(rng) },
        15 => TraceKind::Partition { digest: n(rng), seq: n(rng) },
        16 => TraceKind::Heal { digest: n(rng), seq: n(rng) },
        17 => TraceKind::Fault { digest: n(rng), seq: n(rng) },
        _ => TraceKind::Note(arb_text(rng)),
    }
}

fn arb_record(rng: &mut StdRng) -> TraceRecord {
    let clock_len = rng.gen_range(0..4);
    TraceRecord {
        at: SimTime::from_nanos(if rng.gen_bool(0.8) {
            rng.gen_range(0..10_000_000_000)
        } else {
            rng.next_u64()
        }),
        ep: arb_ep(rng),
        clock: (0..clock_len).map(|_| (rng.gen_range(1..9u64), rng.gen_range(0..999u64))).collect(),
        kind: arb_kind(rng),
    }
}

fn arb_trace(rng: &mut StdRng) -> Vec<TraceRecord> {
    let len = rng.gen_range(0..40);
    (0..len).map(|_| arb_record(rng)).collect()
}

fn arb_meta(rng: &mut StdRng) -> Vec<(String, String)> {
    let keys = ["scenario", "seed", "window_us", "reduction"];
    let len = rng.gen_range(0..keys.len());
    (0..len).map(|i| (keys[i].to_string(), rng.gen_range(0..1000u64).to_string())).collect()
}

/// LEB128, as the format writes it — for forging files by hand.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return out;
        }
        out.push(b | 0x80);
    }
}

/// A v2 file from its parts: header line, then `tail` verbatim.
fn forged(tail: &[&[u8]]) -> Vec<u8> {
    let mut out = format!("{TRACE_HEADER_V2}\n").into_bytes();
    for part in tail {
        out.extend_from_slice(part);
    }
    out
}

/// One record of each of the 19 kinds: every field type, a timestamp that
/// steps backwards, clocks of zero to two entries, the world-global `ep:0`,
/// and whitespace, `%` and multi-byte UTF-8 in the free text.
fn one_of_each_kind() -> Vec<TraceRecord> {
    let ep = EndpointAddr::new;
    let kinds = [
        TraceKind::LayerDown { layer: "NAK" },
        TraceKind::LayerUp { layer: "COM" },
        TraceKind::LayerTimer { layer: "NAK", token: 3 },
        TraceKind::FrameSend { cast: true, bytes: 1500 },
        TraceKind::FrameDeliver {
            from: ep(2),
            cast: false,
            bytes: 64,
            digest: 0xfeed_face_cafe_beef,
            seq: 17,
        },
        TraceKind::FrameDrop { digest: 9, seq: 18, reason: DropReason::Induced },
        TraceKind::TimerArm { layer: 1, token: 3, delay_us: 250_000 },
        TraceKind::TimerFire { layer: 1, token: 3, digest: u64::MAX, seq: 300 },
        TraceKind::AppDown { kind: "CAST", digest: 1, seq: 2 },
        TraceKind::Deliver { kind: "CAST", src: 1, digest: 0xdead },
        TraceKind::ViewInstall { view: "g:1[v2@ep:1 ep:1 ep:2]\tné 日".into() },
        TraceKind::Crash { digest: 5, seq: 6 },
        TraceKind::Suspect { target: ep(3), digest: 7, seq: 8 },
        TraceKind::InjectCrash,
        TraceKind::InjectSuspect { observer: ep(1), target: ep(2) },
        TraceKind::Partition { digest: 10, seq: 11 },
        TraceKind::Heal { digest: 12, seq: 13 },
        TraceKind::Fault { digest: 14, seq: 15 },
        TraceKind::Note("TOTAL: malformed ORDER\n100% 🦀 é".into()),
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let i = i as u64;
            TraceRecord {
                at: SimTime::from_nanos(i * 7919 % 10_000),
                ep: if i % 5 == 4 { EndpointAddr::NULL } else { ep(1 + i % 3) },
                clock: (0..i % 3).map(|a| (a + 1, i)).collect(),
                kind,
            }
        })
        .collect()
}

/// What the string-keyed encoder this format was first written with made
/// of [`one_of_each_kind`] under `meta scenario: wedge`, as hex.
const GOLDEN_V2_HEX: &str = concat!(
    "2320686f7275732d74726163652076320a0100087363656e6172696f0005776564676513090000010000034e",
    "414b0c01de7b020101010003434f4d0b02c12003020102020203030803c120010001dc0b1304c12000010104",
    "020040efbefecacefaedfe111b05de7b0302010502050900000000000000120007696e64756365640a06c120",
    "0100010390a10f1307c120020101070103ffffffffffffffffac021808c12003020108020800044341535401",
    "00000000000000020f09c12000000601adde0000000000002f0ade7b0201010a0026673a315b76324065703a",
    "3125323065703a3125323065703a325d2530396ec3a9253230e697a5120bc1200302010b020b050000000000",
    "0000060f0cc120010003070000000000000008070dc1200201010d0b0ec1200002010e020e01020e0fde7b01",
    "000a000000000000000b1010c120020101100c000000000000000d1211c1200302011102110e000000000000",
    "000f3612c1200100002f544f54414c3a2532306d616c666f726d65642532304f524445522530413130302532",
    "35253230f09fa680253230c3a9",
);

/// The `horus-trace dump` text of the same trace, from the same encoder.
const GOLDEN_DUMP: &str = "\
meta scenario: wedge\n\
t=0 ep=1 vc=- layer-down layer=NAK\n\
t=7919 ep=2 vc=1:1 layer-up layer=COM\n\
t=5838 ep=3 vc=1:2,2:2 layer-timer layer=NAK token=3\n\
t=3757 ep=1 vc=- frame-send cast=1 bytes=1500\n\
t=1676 ep=0 vc=1:4 frame-deliver from=2 cast=0 bytes=64 digest=18369614221190020847 seq=17\n\
t=9595 ep=3 vc=1:5,2:5 frame-drop digest=9 seq=18 reason=induced\n\
t=7514 ep=1 vc=- timer-arm layer=1 token=3 delay_us=250000\n\
t=5433 ep=2 vc=1:7 timer-fire layer=1 token=3 digest=18446744073709551615 seq=300\n\
t=3352 ep=3 vc=1:8,2:8 app-down kind=CAST digest=1 seq=2\n\
t=1271 ep=0 vc=- deliver kind=CAST src=1 digest=57005\n\
t=9190 ep=2 vc=1:10 view-install view=g:1[v2@ep:1%20ep:1%20ep:2]%09né%20日\n\
t=7109 ep=3 vc=1:11,2:11 crash digest=5 seq=6\n\
t=5028 ep=1 vc=- suspect target=3 digest=7 seq=8\n\
t=2947 ep=2 vc=1:13 inject-crash\n\
t=866 ep=0 vc=1:14,2:14 inject-suspect observer=1 target=2\n\
t=8785 ep=1 vc=- partition digest=10 seq=11\n\
t=6704 ep=2 vc=1:16 heal digest=12 seq=13\n\
t=4623 ep=3 vc=1:17,2:17 fault digest=14 seq=15\n\
t=2542 ep=1 vc=- note text=TOTAL:%20malformed%20ORDER%0A100%25%20🦀%20é\n\
";

#[test]
fn every_kind_encodes_and_renders_to_the_pinned_bytes() {
    let meta = vec![("scenario".to_string(), "wedge".to_string())];
    let records = one_of_each_kind();
    assert_eq!(
        records.iter().map(|r| r.kind.id()).collect::<Vec<_>>(),
        (0..KIND_NAMES.len() as u8).collect::<Vec<_>>(),
        "one record of each kind, in tag order"
    );
    let bytes = serialize_trace_v2(&meta, &records);
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN_V2_HEX);
    let parsed = parse_trace_v2(&bytes).unwrap();
    assert_eq!(parsed.records, records);
    assert_eq!(trace_text(&parsed), GOLDEN_DUMP);
}

#[test]
fn forged_counts_and_indices_are_errors() {
    let huge = varint(u64::MAX);
    let (none, one) = (varint(0), varint(1));
    // A record body up to (not including) its fields: tag, time delta, ep,
    // clock length.
    let inject_crash: &[u8] = &[13, 0, 1, 0];
    let cases: [(&str, Vec<u8>); 10] = [
        ("meta_count", forged(&[&huge])),
        ("record_count", forged(&[&none, &huge])),
        ("body length past the file", forged(&[&none, &one, &huge, inject_crash])),
        ("body length short of the body", forged(&[&none, &one, &varint(2), inject_crash])),
        ("clock_len", forged(&[&none, &one, &varint(12), &[13, 0, 1], &huge])),
        ("string length", forged(&[&one, &none, &huge])),
        ("back-reference past the table", forged(&[&one, &varint(7), &varint(7)])),
        (
            "tag past the vocabulary",
            forged(&[&none, &one, &varint(4), &[KIND_NAMES.len() as u8, 0, 1, 0]]),
        ),
        ("tag 0xFF", forged(&[&none, &one, &varint(4), &[0xFF, 0, 1, 0]])),
        ("byte after the last record", forged(&[&none, &one, &varint(4), inject_crash, &none])),
    ];
    for (what, bytes) in cases {
        assert!(parse_trace_v2(&bytes).is_err(), "a forged {what} must be refused");
    }
    // The body the forgeries are built around is itself well-formed.
    let ok = parse_trace_v2(&forged(&[&none, &one, &varint(4), inject_crash])).unwrap();
    assert_eq!(ok.records[0].kind, TraceKind::InjectCrash);
    assert!(parse_trace_v2(b"").is_err() && parse_trace_v2(b"# horus-trace v2").is_err());
}

#[test]
fn a_replay_capture_costs_at_most_twenty_bytes_a_record() {
    // What `horus-check replay tests/fixtures/flush3_clean.check --trace`
    // writes, minus the meta: deterministic records, so a deterministic
    // size — 18.2 B/record when this was written, three-entry vector clock
    // and 8-byte digests included (a clock-less ring capture of a `NAK:COM`
    // flood takes 9.4).
    let text = include_str!("fixtures/flush3_clean.check");
    let schedule = Schedule::parse(text).expect("fixture parses");
    let scenario = Scenario::by_name(&schedule.scenario).expect("registered scenario");
    let buf = std::sync::Arc::new(TraceBuf::new());
    let sink = buf.clone() as std::sync::Arc<dyn TraceSink>;
    let _ = replay_choices_traced(scenario, &schedule.choices, &schedule.to_config(), sink);
    let records = buf.take();
    assert!(records.len() > 1000, "a flush3 replay records thousands of events");
    let bytes = serialize_trace_v2(&[], &records).len();
    assert!(
        bytes <= 20 * records.len(),
        "{bytes} B for {} records is {:.1} B/record",
        records.len(),
        bytes as f64 / records.len() as f64
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Arbitrary payload strings (separators, `%`, Unicode whitespace,
    /// control bytes, multi-byte UTF-8) survive escape → encode → decode →
    /// unescape unchanged, and render as one line of space-separated
    /// tokens whatever they hold.
    #[test]
    fn escaping_roundtrips_arbitrary_payloads(text in Func(arb_text)) {
        let note = TraceRecord {
            at: SimTime::from_nanos(7),
            ep: EndpointAddr::new(1),
            clock: vec![],
            kind: TraceKind::Note(text.clone()),
        };
        let view = TraceRecord {
            at: SimTime::from_nanos(8),
            ep: EndpointAddr::new(2),
            clock: vec![(1, 2)],
            kind: TraceKind::ViewInstall { view: text.clone() },
        };
        let parsed = parse_trace_v2(&serialize_trace_v2(&[], &[note, view])).unwrap();
        prop_assert_eq!(parsed.records.len(), 2);
        prop_assert_eq!(&parsed.records[0].kind, &TraceKind::Note(text.clone()));
        prop_assert_eq!(&parsed.records[1].kind, &TraceKind::ViewInstall { view: text });
        for r in &parsed.records {
            let line = record_line(r);
            prop_assert_eq!(line.split(' ').count(), 5, "t, ep, vc, kind, one field: {}", line);
            prop_assert!(!line.chars().any(|c| c != ' ' && (c.is_whitespace() || c.is_control())));
        }
    }

    /// Whole arbitrary traces decode to exactly the typed records they
    /// were encoded from, and the same records encode to the same bytes.
    #[test]
    fn v2_roundtrips_the_record_view(records in Func(arb_trace), meta in Func(arb_meta)) {
        let bytes = serialize_trace_v2(&meta, &records);
        let back = parse_trace_v2(&bytes).unwrap();
        prop_assert_eq!(&back.meta, &meta.iter().cloned().collect());
        prop_assert_eq!(&back.records, &records);
        prop_assert_eq!(serialize_trace_v2(&meta, &back.records), bytes);
    }

    /// Nothing that is not a trace parses as one, and nothing panics: every
    /// strict prefix of a valid file is refused; a flipped bit is refused or
    /// decodes to some other trace; bytes after a valid header likewise; and
    /// a field a typed record cannot hold — a `cast` outside {0, 1}, an
    /// unknown drop reason, a layer index past `usize` — is refused naming
    /// its record.
    #[test]
    fn malformed_v2_is_an_error_never_a_panic(
        records in Func(arb_trace),
        meta in Func(arb_meta),
        noise in proptest::collection::vec(any::<u8>(), 0..200),
        flips in proptest::collection::vec(any::<u64>(), 48),
        cast in 2u64..=u64::MAX,
        reason in proptest::collection::vec(any::<u8>(), 0..12),
        layer in any::<u64>(),
    ) {
        let bytes = serialize_trace_v2(&meta, &records);
        for cut in 0..bytes.len() {
            prop_assert!(parse_trace_v2(&bytes[..cut]).is_err(), "prefix of {} bytes parsed", cut);
        }
        // Every bit of the counts and the first record or two, then a
        // sample of the rest.
        let head = (0..bytes.len().min(TRACE_HEADER_V2.len() + 24) * 8).map(|b| b as u64);
        for bit in head.chain(flips) {
            let bit = (bit % (bytes.len() as u64 * 8)) as usize;
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = parse_trace_v2(&flipped);
        }
        let _ = parse_trace_v2(&forged(&[&noise]));

        // One record, its body from the tag to the fields: tag, time
        // delta, ep, clock length, then `fields`.
        let one_record = |tag: u8, fields: &[&[u8]]| {
            let mut body = vec![tag, 0, 1, 0];
            for f in fields {
                body.extend_from_slice(f);
            }
            forged(&[&varint(0), &varint(1), &varint(body.len() as u64), &body])
        };
        let err = parse_trace_v2(&one_record(3, &[&varint(cast), &varint(64)])).unwrap_err();
        prop_assert!(err.starts_with("record 0: cast "), "{}", err);
        let reason = String::from_utf8_lossy(&reason).into_owned();
        let mut name = varint(0);
        name.extend(varint(reason.len() as u64));
        name.extend_from_slice(reason.as_bytes());
        let drop = parse_trace_v2(&one_record(5, &[&[0; 8], &varint(1), &name]));
        match DropReason::by_name(&reason) {
            Some(_) => prop_assert!(drop.is_ok()),
            None => prop_assert!(
                drop.as_ref().is_err_and(|e| e.starts_with("record 0: unknown drop reason")),
                "{:?}", drop
            ),
        }
        // Every u64 fits a 64-bit `usize`; on a narrower target the index
        // must be refused, not truncated.
        let arm = parse_trace_v2(&one_record(6, &[&varint(layer), &varint(1), &varint(1)]));
        if usize::try_from(layer).is_ok() {
            prop_assert!(arm.is_ok(), "{:?}", arm);
        } else {
            prop_assert!(arm.is_err_and(|e| e.starts_with("record 0: layer index")));
        }
    }

    /// Histogram quantiles report the floor of the bucket holding the true
    /// rank statistic: never above it, never more than 25% below.
    #[test]
    fn histogram_quantiles_bound_the_exact_rank(
        vals in proptest::collection::vec(Func(|rng: &mut StdRng| -> u64 {
            if rng.gen_bool(0.5) { rng.gen_range(0..1000) } else { rng.next_u64() }
        }), 1..200),
        num in 0u64..=4,
    ) {
        let den = 4u64;
        let mut h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        let rank = ((vals.len() as u64 * num).div_ceil(den)).max(1) as usize;
        let exact = sorted[rank - 1];
        let q = h.quantile(num, den);
        prop_assert!(q <= exact, "quantile {} above exact {}", q, exact);
        prop_assert!(
            u128::from(exact) <= u128::from(q) + u128::from(q / 4) + 1,
            "quantile {} more than 25% below exact {}", q, exact
        );
    }

    /// Merging histograms is the same as observing the concatenation, and
    /// observation order never matters.
    #[test]
    fn histogram_merge_equals_concatenation(
        a in proptest::collection::vec(any::<u64>(), 0..60),
        b in proptest::collection::vec(any::<u64>(), 0..60),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hall = Histogram::new();
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in b.iter().rev() {
            hb.record(v);
        }
        for &v in &b {
            hall.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(&ha, &hall);
        prop_assert_eq!(ha.count(), (a.len() + b.len()) as u64);
    }
}
