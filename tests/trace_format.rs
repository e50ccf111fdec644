//! Property tests over the trace file format: free text survives escaping
//! and the v2 encoding whatever bytes it holds, the v2 binary format
//! round-trips the record view losslessly, and `parse_trace_v2` — the only
//! code that reads trace bytes from disk — answers anything that is not a
//! trace with `Err`, never a panic.  Plus the latency `Histogram`'s
//! accuracy contract: quantiles are exact to the bucket, i.e. within 25%
//! of the true rank statistic.

use horus_check::{replay_choices_traced, Scenario, Schedule};
use horus_core::trace::{DropReason, TraceKind, TraceSink, KIND_NAMES};
use horus_core::{EndpointAddr, SimTime};
use horus_trace::{
    first_divergence, parse_trace_v2, parsed_from_record, parsed_line, serialize_parsed,
    serialize_trace_v2, Histogram, ParsedTrace, TraceBuf, TraceRecord, TRACE_HEADER_V2,
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

/// The parsed view the encoder serializes from.
fn parsed(meta: &[(String, String)], records: &[TraceRecord]) -> ParsedTrace {
    ParsedTrace {
        meta: meta.iter().cloned().collect(),
        records: records.iter().map(parsed_from_record).collect(),
    }
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

#[test]
fn forged_counts_and_indices_are_errors() {
    let huge = varint(u64::MAX);
    let (none, one) = (varint(0), varint(1));
    // A record body up to (not including) its fields: tag, time delta, ep,
    // clock length.
    let inject_crash: &[u8] = &[13, 0, 1, 0];
    let cases: [(&str, Vec<u8>); 9] = [
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
    ];
    for (what, bytes) in cases {
        assert!(parse_trace_v2(&bytes).is_err(), "a forged {what} must be refused");
    }
    // The body the forgeries are built around is itself well-formed.
    let ok = parse_trace_v2(&forged(&[&none, &one, &varint(4), inject_crash])).unwrap();
    assert_eq!(ok.records[0].kind, "inject-crash");
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
        prop_assert_eq!(parsed.records[0].text_field("text").unwrap(), text.clone());
        prop_assert_eq!(parsed.records[1].text_field("view").unwrap(), text);
        for r in &parsed.records {
            let line = parsed_line(r);
            prop_assert_eq!(line.split(' ').count(), 5, "t, ep, vc, kind, one field: {}", line);
            prop_assert!(!line.chars().any(|c| c != ' ' && (c.is_whitespace() || c.is_control())));
        }
    }

    /// Whole arbitrary traces decode to exactly the view the records
    /// project to, and the same records encode to the same bytes.
    #[test]
    fn v2_roundtrips_the_record_view(records in Func(arb_trace), meta in Func(arb_meta)) {
        let expect = parsed(&meta, &records);
        let bytes = serialize_trace_v2(&meta, &records);
        let back = parse_trace_v2(&bytes).unwrap();
        prop_assert_eq!(&back, &expect);
        prop_assert!(first_divergence(&back.records, &expect.records).is_none());
        prop_assert_eq!(serialize_parsed(&back), serialize_parsed(&expect));
        prop_assert_eq!(serialize_trace_v2(&meta, &records), bytes);
    }

    /// Nothing that is not a trace parses as one, and nothing panics: every
    /// strict prefix of a valid file is refused; a flipped bit is refused or
    /// decodes to some other trace; bytes after a valid header likewise.
    #[test]
    fn malformed_v2_is_an_error_never_a_panic(
        records in Func(arb_trace),
        meta in Func(arb_meta),
        noise in proptest::collection::vec(any::<u8>(), 0..200),
        flips in proptest::collection::vec(any::<u64>(), 48),
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
