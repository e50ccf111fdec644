//! Property-based tests on the core data structures: the message header
//! stack (both §10 layouts), the wire codec, view algebra, and the
//! property-set algebra.

use bytes::Bytes;
use horus_core::message::{FieldSpec, HeaderLayout, HeaderMode, Message, MessageMeta};
use horus_core::wire::{WireReader, WireWriter};
use horus_core::{EndpointAddr, GroupAddr, MsgId, View};
use horus_props::{derive_stack, plan_minimal_stack, PropSet};
use proptest::prelude::*;
use std::sync::Arc;

/// Static pool of field specs so layouts can borrow `'static` names.
const FIELD_POOL: &[FieldSpec] = &[
    FieldSpec::new("f1", 1),
    FieldSpec::new("f3", 3),
    FieldSpec::new("f8", 8),
    FieldSpec::new("f12", 12),
    FieldSpec::new("f20", 20),
    FieldSpec::new("f32", 32),
    FieldSpec::new("f48", 48),
    FieldSpec::new("f64", 64),
];

const LAYER_NAMES: &[&str] = &["L0", "L1", "L2", "L3", "L4", "L5"];

fn arb_layout() -> impl Strategy<Value = (Vec<Vec<usize>>, HeaderMode)> {
    (
        proptest::collection::vec(proptest::collection::vec(0..FIELD_POOL.len(), 0..4), 1..5),
        prop_oneof![Just(HeaderMode::Aligned), Just(HeaderMode::Compact)],
    )
}

fn build_layout(spec: &[Vec<usize>], mode: HeaderMode) -> Arc<HeaderLayout> {
    let mut field_store: Vec<Vec<FieldSpec>> = Vec::new();
    for per_layer in spec {
        field_store.push(per_layer.iter().map(|&i| FIELD_POOL[i]).collect());
    }
    let layers: Vec<(&'static str, &[FieldSpec])> =
        field_store.iter().enumerate().map(|(i, f)| (LAYER_NAMES[i], f.as_slice())).collect();
    let layout = HeaderLayout::build(&layers, mode).expect("valid layout");
    // field_store values were copied into the layout (FieldSpec: Copy).
    Arc::new(layout)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Whatever a sender stamps, in either layout, the receiver reads back
    /// bit-for-bit after a wire round trip.
    #[test]
    fn header_fields_roundtrip_through_the_wire(
        (spec, mode) in arb_layout(),
        body in proptest::collection::vec(any::<u8>(), 0..256),
        raw_vals in proptest::collection::vec(any::<u64>(), 24),
    ) {
        let layout = build_layout(&spec, mode);
        let mut msg = Message::new(layout.clone(), Bytes::from(body.clone()));
        // Down path: stamp every layer top→bottom.
        let mut vals = Vec::new();
        let mut k = 0;
        for (li, fields) in spec.iter().enumerate() {
            msg.push_header(li);
            let mut per_layer = Vec::new();
            for (fi, &pool_idx) in fields.iter().enumerate() {
                let bits = FIELD_POOL[pool_idx].bits;
                let mask = if bits >= 64 { u64::MAX } else { (1u64 << bits) - 1 };
                let v = raw_vals[k % raw_vals.len()] & mask;
                k += 1;
                msg.set_field(li, fi, v);
                per_layer.push(v);
            }
            vals.push(per_layer);
        }
        // Wire round trip.
        let wire = msg.encode_inner();
        let mut rx = Message::decode_inner(layout, &wire).unwrap();
        prop_assert_eq!(&rx.body()[..], &body[..]);
        // Up path: pop bottom→top and compare.
        for li in (0..spec.len()).rev() {
            rx.pop_header(li).unwrap();
            for (fi, &expect) in vals[li].iter().enumerate() {
                prop_assert_eq!(rx.field(li, fi), expect, "layer {} field {}", li, fi);
            }
        }
    }

    /// Compact mode never uses more header bytes than aligned mode.
    #[test]
    fn compact_never_beats_aligned_at_its_own_game(
        (spec, _) in arb_layout(),
    ) {
        let compact = build_layout(&spec, HeaderMode::Compact);
        let aligned = build_layout(&spec, HeaderMode::Aligned);
        prop_assert!(compact.compact_bytes() <= aligned.aligned_bytes_all());
    }

    /// The wire helpers reject arbitrary truncations instead of panicking.
    #[test]
    fn wire_reader_never_panics_on_truncation(
        addrs in proptest::collection::vec(1u64..=u64::MAX, 0..8),
        cut in any::<u16>(),
    ) {
        let mut w = WireWriter::new();
        let eps: Vec<EndpointAddr> = addrs.iter().map(|&a| EndpointAddr::new(a)).collect();
        w.put_addrs(&eps);
        let buf = w.finish();
        let cut = (cut as usize).min(buf.len());
        let mut r = WireReader::new(&buf[..cut]);
        // Either parses a prefix or errors; never panics.
        let _ = r.get_addrs();
    }

    /// View succession keeps members unique, ordered by seniority, and
    /// the counter strictly increasing.
    #[test]
    fn view_succession_invariants(
        joins in proptest::collection::vec(2u64..50, 1..8),
        fail_idx in proptest::collection::vec(any::<proptest::sample::Index>(), 0..4),
    ) {
        let mut v = View::initial(GroupAddr::new(1), EndpointAddr::new(1));
        for &j in &joins {
            let joiner = EndpointAddr::new(j);
            if !v.contains(joiner) {
                v = v.with_joined(&[joiner]);
            }
            // Uniqueness + seniority order.
            let mut seen = std::collections::BTreeSet::new();
            for &m in v.members() {
                prop_assert!(seen.insert(m), "duplicate member in {v}");
            }
            for w2 in v.join_epochs().windows(2) {
                prop_assert!(w2[0] <= w2[1], "epochs must be non-decreasing in {v}");
            }
        }
        let before = v.id().counter;
        let candidates: Vec<EndpointAddr> = v.members().to_vec();
        let mut failed: Vec<EndpointAddr> = fail_idx
            .iter()
            .map(|ix| *ix.get(&candidates))
            .filter(|&m| m != EndpointAddr::new(1))
            .collect();
        failed.dedup();
        let v2 = v.successor(EndpointAddr::new(1), &failed, &[]);
        prop_assert!(v2.id().counter > before);
        for f in failed {
            prop_assert!(!v2.contains(f));
        }
    }

    /// Planner soundness over random requests: anything it returns is
    /// well-formed and provides the request.
    #[test]
    fn planner_is_sound_for_random_requests(req_bits in any::<u16>(), net_bits in any::<u16>()) {
        let required = PropSet::from_bits(req_bits);
        let network = PropSet::from_bits(net_bits);
        if let Ok(stack) = plan_minimal_stack(required, network) {
            let provided = derive_stack(&stack, network)
                .expect("planned stack must be well-formed");
            prop_assert!(
                provided.is_superset(required),
                "stack {:?} gives {} for request {}",
                stack, provided, required
            );
        }
    }

    /// `MessageMeta` keeps presence bits and plain words; through its
    /// accessors, its `Debug` output and its equality it is the struct of
    /// `Option`s it replaced, whatever is set, overwritten and cleared.
    #[test]
    fn message_meta_is_a_struct_of_options(
        ops in proptest::collection::vec(
            (0u8..7, any::<bool>(), prop_oneof![Just(0u64), any::<u64>()], any::<u64>(), any::<bool>()),
            0..24,
        ),
    ) {
        // Raw 0 is `EndpointAddr::NULL`: present, and not to be taken for absent.
        let addr = |raw| if raw == 0 { EndpointAddr::NULL } else { EndpointAddr::new(raw) };
        let mut meta = MessageMeta::default();
        let mut plain = plain::MessageMeta::default();
        for (field, present, a, b, flag) in ops {
            match field {
                0 => {
                    plain.src = present.then(|| addr(a));
                    meta.set_src(plain.src);
                }
                1 => {
                    plain.msg_id = present.then(|| MsgId { origin: addr(a), seq: b });
                    meta.set_msg_id(plain.msg_id);
                }
                2 => {
                    plain.total_seq = present.then_some(a);
                    meta.set_total_seq(plain.total_seq);
                }
                3 => {
                    plain.rpc = present.then_some((a, flag));
                    meta.set_rpc(plain.rpc);
                }
                4 => {
                    plain.flush_recovered = flag;
                    meta.set_flush_recovered(flag);
                }
                5 => {
                    plain.priority = a as u8;
                    meta.priority = a as u8;
                }
                _ => {
                    plain.channel = b as u8;
                    meta.channel = b as u8;
                }
            }
            prop_assert_eq!(meta.src(), plain.src);
            prop_assert_eq!(meta.msg_id(), plain.msg_id);
            prop_assert_eq!(meta.total_seq(), plain.total_seq);
            prop_assert_eq!(meta.rpc(), plain.rpc);
            prop_assert_eq!(meta.flush_recovered(), plain.flush_recovered);
            prop_assert_eq!(format!("{meta:?}"), format!("{plain:?}"));
            prop_assert_eq!(format!("{meta:#?}"), format!("{plain:#?}"));
        }
        // Equality sees what the accessors return, not what was there before.
        let mut fresh = MessageMeta::default();
        fresh.set_src(plain.src);
        fresh.set_msg_id(plain.msg_id);
        fresh.set_total_seq(plain.total_seq);
        fresh.set_rpc(plain.rpc);
        fresh.set_flush_recovered(plain.flush_recovered);
        fresh.priority = plain.priority;
        fresh.channel = plain.channel;
        prop_assert_eq!(&meta, &fresh);
        prop_assert_eq!(meta.clone(), fresh);
    }
}

/// `MessageMeta` as it was declared before it was packed, under the same
/// name so that the derived `Debug` is the reference for the written one.
mod plain {
    use horus_core::{EndpointAddr, MsgId};

    #[derive(Debug, Default)]
    pub struct MessageMeta {
        pub src: Option<EndpointAddr>,
        pub msg_id: Option<MsgId>,
        pub total_seq: Option<u64>,
        pub flush_recovered: bool,
        pub priority: u8,
        pub channel: u8,
        pub rpc: Option<(u64, bool)>,
    }
}
