//! A stack description and an application's cast are outside input: what
//! is wrong with them is an error, never a panic inside a layer.
//!
//! `build_stack` answers any `stack:` string with `Ok` or `Err`, and a cast
//! a layer cannot carry comes back as `Up::SystemError`, the way MBRSHIP
//! and CAUSAL refuse casts they cannot order.  The parameter vocabulary is
//! closed: a key its layer does not read, or one given twice, is an error.

use horus::layers::registry::{build_stack, layer_names};
use horus::prelude::*;
use horus::sim::SimWorld;
use horus_net::NetConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Every parameter name the registry reads, the names it no longer reads
/// (`rto_max`, `uni_gc`, `min_timeout`, `margin`, `jitter`,
/// `merge_retries`, `slot`, `verbose`, `push_src`), and one it never did.
const KEYS: [&str; 35] = [
    "size",
    "msgs",
    "bytes",
    "delay",
    "nth",
    "window",
    "buffer",
    "rto",
    "rto_max",
    "period",
    "fail_timeout",
    "uni_gc",
    "retransmit",
    "min_timeout",
    "margin",
    "jitter",
    "timeout",
    "auto_merge",
    "primary",
    "tick",
    "flush_timeout",
    "merge_retries",
    "auto_ok",
    "auto_ack",
    "slot",
    "contacts",
    "key",
    "rate",
    "verbose",
    "retries",
    "skew_us",
    "master",
    "promiscuous",
    "push_src",
    "bogus",
];

/// The parameters that size a buffer or count messages, where zero is
/// the value most likely to be wrong.
const COUNTS: [&str; 8] = ["size", "msgs", "bytes", "nth", "window", "buffer", "rate", "retries"];

/// Values at and past the edges of every parameter's type.
const VALUES: [&str; 16] = [
    "0",
    "1",
    "2",
    "-1",
    "4096",
    "65536",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "true",
    "false",
    "1+2",
    "x",
    "",
    "0.5",
    "NaN",
];

/// A random stack description: registry layers (and a few that are not)
/// with random parameters, then a few characters inserted or deleted.
fn random_stack(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let names = layer_names();
    let layers: Vec<String> = (0..rng.gen_range(1..=6))
        .map(|_| {
            let name = match rng.gen_range(0..40) {
                0 => "BOGUS",
                1 => "nak",
                _ => names[rng.gen_range(0..names.len())],
            };
            let params: Vec<String> = (0..rng.gen_range(0..=3))
                .map(|_| {
                    let key = match rng.gen_bool(0.5) {
                        true => COUNTS[rng.gen_range(0..COUNTS.len())],
                        false => KEYS[rng.gen_range(0..KEYS.len())],
                    };
                    let value = match rng.gen_bool(0.3) {
                        true => "0",
                        false => VALUES[rng.gen_range(0..VALUES.len())],
                    };
                    format!("{key}={value}")
                })
                .collect();
            if params.is_empty() && rng.gen_bool(0.7) {
                name.to_string()
            } else {
                format!("{name}({})", params.join(","))
            }
        })
        .collect();
    let mut desc: Vec<char> = layers.join(":").chars().collect();
    let typos = if rng.gen_bool(0.3) { rng.gen_range(1..=2usize) } else { 0 };
    for _ in 0..typos {
        let at = rng.gen_range(0..=desc.len());
        if rng.gen_bool(0.5) && at < desc.len() {
            desc.remove(at);
        } else {
            desc.insert(at, ['(', ')', ':', ',', '=', ' '][rng.gen_range(0..6usize)]);
        }
    }
    desc.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn any_stack_string_builds_or_is_an_error(seed in any::<u64>()) {
        let desc = random_stack(seed);
        // A panic here fails the case; either answer is fine.
        let _ = build_stack(EndpointAddr::new(1), &desc, StackConfig::default());
    }
}

#[test]
fn a_zero_size_or_count_is_an_error() {
    for desc in ["FRAG(size=0):NAK:COM", "NFRAG(size=0):COM", "PACK(msgs=0):COM", "DROP(nth=0):COM"]
    {
        let built = build_stack(EndpointAddr::new(1), desc, StackConfig::default());
        assert!(matches!(built, Err(HorusError::BadParam(_))), "{desc}");
    }
}

#[test]
fn a_cast_nfrag_cannot_index_is_refused_and_the_stack_goes_on() {
    let (a, b) = (EndpointAddr::new(1), EndpointAddr::new(2));
    let mut w = SimWorld::new(1, NetConfig::reliable());
    for m in [a, b] {
        w.add_endpoint(build_stack(m, "NFRAG:COM", StackConfig::default()).expect("builds"));
        w.join(m, GroupAddr::new(1));
    }
    // 4 MiB at the default 1024-byte fragments: 4097 fragments, one more
    // than the 12-bit index holds.
    w.cast_bytes(a, vec![7u8; 4 << 20]);
    w.cast_bytes(a, vec![8u8; 3000]);
    w.run_for(Duration::from_millis(50));
    let refused = w
        .upcalls(a)
        .iter()
        .any(|(_, up)| matches!(up, Up::SystemError { reason } if reason.starts_with("NFRAG:")));
    assert!(refused, "the oversized cast is refused upward");
    let delivered: Vec<usize> =
        w.delivered_casts(b).iter().map(|(_, body, _)| body.len()).collect();
    assert_eq!(delivered, vec![3000], "the next cast still fragments and arrives");
}

#[test]
fn an_unread_or_repeated_key_is_an_error() {
    // A typo, a key no layer reads any more, one no layer ever read, one
    // another layer reads, and a key given twice.
    for (desc, layer, key) in [
        ("FRAG(szie=512):NAK:COM", "FRAG", "szie"),
        ("NAK(rto_max=5):COM", "NAK", "rto_max"),
        ("COM(bogus=1)", "COM", "bogus"),
        ("STABLE(period=20):MBRSHIP:FRAG:NAK:COM", "STABLE", "period"),
        ("FRAG(size=512,size=1024):COM", "FRAG", "size"),
    ] {
        let built = build_stack(EndpointAddr::new(1), desc, StackConfig::default());
        match built.err() {
            Some(HorusError::BadParam(m)) => {
                assert!(m.contains(layer) && m.contains(key), "{desc}: {m}")
            }
            other => panic!("{desc}: {other:?}"),
        }
    }
}
