//! E5 — Figure 2, the flush protocol scenario, on both membership
//! implementations (production MBRSHIP and the BMS/VSS/FLUSH reference
//! decomposition) and across a matrix of loss rates and header modes.

mod common;

use bytes::Bytes;
use common::*;
use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus::sim::SimWorld;
use horus_net::NetConfig;
use horus_sim::check_virtual_synchrony;
use std::time::Duration;

const DECOMPOSED: &str = "FLUSH:VSS:BMS:FRAG:NAK:COM(promiscuous=true)";

/// Runs the Figure 2 script with the one-byte message `M`.
fn figure2(stack: &str, seed: u64, net: NetConfig, mode: HeaderMode) {
    figure2_with(stack, seed, net, mode, Bytes::from_static(b"M"));
}

/// Runs the Figure 2 script: D, partitioned together with C, casts M and
/// crashes; the flush must deliver M at A and B exactly once, recovered.
fn figure2_with(stack: &str, seed: u64, net: NetConfig, mode: HeaderMode, m_body: Bytes) {
    figure2_after(stack, seed, net, mode, m_body, 0);
}

/// [`figure2_with`] after D first casts `d_casts` messages in the formed
/// view; returns the payload copies all four stacks made from the
/// partition on, which is to say the flush's.
fn figure2_after(
    stack: &str,
    seed: u64,
    net: NetConfig,
    mode: HeaderMode,
    m_body: Bytes,
    d_casts: u64,
) -> u64 {
    let (a, b, c, d) = (ep(1), ep(2), ep(3), ep(4));
    let config = StackConfig { mode, ..StackConfig::default() };
    let mut w = SimWorld::new(seed, net);
    for &e in &[a, b, c, d] {
        let s = build_stack(e, stack, config.clone()).unwrap();
        w.add_endpoint(s);
        w.join(e, group());
    }
    for &e in &[b, c, d] {
        w.down(e, Down::Merge { contact: a });
    }
    w.run_for(Duration::from_secs(3));
    assert_eq!(w.installed_views(a).last().unwrap().len(), 4, "{stack} seed {seed}: formed");
    let t = w.now();
    for k in 0..d_casts {
        w.cast_bytes_at(t + Duration::from_micros(200 * k), d, Bytes::from(k.to_string()));
    }
    w.run_for(Duration::from_secs(1));
    let copies = |w: &SimWorld| -> u64 {
        [a, b, c, d].iter().map(|&e| w.stack_stats(e).map_or(0, |s| s.payload_copies)).sum()
    };
    let copies_before = copies(&w);

    let t = w.now();
    w.partition_at(t + Duration::from_millis(1), &[&[a, b], &[c, d]]);
    w.cast_bytes_at(t + Duration::from_millis(2), d, m_body.clone());
    w.crash_at(t + Duration::from_millis(5), d);
    w.heal_at(t + Duration::from_millis(8));
    w.run_for(Duration::from_secs(4));

    for &m in &[a, b, c] {
        let from_d: Vec<bool> = w
            .upcalls(m)
            .iter()
            .filter(|(at, _)| *at > t)
            .filter_map(|(_, up)| match up {
                Up::Cast { src, msg } if *src == d => {
                    assert_eq!(msg.body(), &m_body, "{stack} seed {seed}: {m} delivers M intact");
                    Some(msg.meta.flush_recovered())
                }
                _ => None,
            })
            .collect();
        assert_eq!(from_d.len(), 1, "{stack} seed {seed}: {m} delivers M exactly once");
        if m == a || m == b {
            assert!(from_d[0], "{stack} seed {seed}: {m} can only have gotten M through the flush");
        }
    }
    let survivors_view = w.installed_views(a).last().unwrap().clone();
    assert_eq!(survivors_view.members(), &[a, b, c], "{stack} seed {seed}: final view");
    let logs = logs(&w, 4);
    let violations = check_virtual_synchrony(&logs);
    assert!(violations.is_empty(), "{stack} seed {seed}: {violations:?}");
    copies(&w) - copies_before
}

#[test]
fn figure2_production_membership() {
    for seed in 1..=5 {
        figure2(VSYNC, seed, NetConfig::reliable(), HeaderMode::Compact);
    }
}

#[test]
fn figure2_under_loss() {
    for seed in 1..=3 {
        figure2(VSYNC, 40 + seed, NetConfig::lossy(0.1), HeaderMode::Compact);
    }
}

#[test]
fn figure2_aligned_headers() {
    figure2(VSYNC, 9, NetConfig::reliable(), HeaderMode::Aligned);
}

/// M is five fragments long.  C, the one survivor it reached, logs it as
/// FRAG reassembled it — a body that is a slice of the gather buffer, kept
/// by reference — and serializes it only for its flush contribution; A and
/// B get it through CONTRIB and SYNC, themselves fragmented on the way.
#[test]
fn figure2_multi_fragment_message() {
    let m_body: Bytes = (0..4500u32).map(|i| (i * 7 + i / 251) as u8).collect::<Vec<u8>>().into();
    for mode in [HeaderMode::Compact, HeaderMode::Aligned] {
        for seed in 1..=2 {
            figure2_with(VSYNC, 70 + seed, NetConfig::reliable(), mode, m_body.clone());
        }
    }
    figure2_with(VSYNC, 73, NetConfig::lossy(0.1), HeaderMode::Compact, m_body);
}

/// Figure 2 at the end of a long view: D has cast 1 100 messages before
/// the partition, past the first stability report point, so every member
/// has trimmed the log it flushes from.  M is still recovered everywhere,
/// and the flush copies a trimmed log's worth of payloads — it copied
/// 3 309 when the log kept all 1 100 casts.
#[test]
fn figure2_after_a_long_view() {
    for seed in 1..=3 {
        let copies = figure2_after(
            VSYNC,
            seed,
            NetConfig::reliable(),
            HeaderMode::Compact,
            Bytes::from_static(b"M"),
            1_100,
        );
        // Mostly D's 76 casts past the frontier (1 025 to 1 100), which
        // each survivor contributes.
        assert_eq!(copies, 237, "seed {seed}: the flush's payload copies");
    }
}

#[test]
fn figure2_decomposed_membership() {
    for seed in 1..=3 {
        figure2(DECOMPOSED, 60 + seed, NetConfig::reliable(), HeaderMode::Compact);
    }
}

#[test]
fn coordinator_crash_cascades_to_next_oldest() {
    // Crash D (triggering a flush led by A, the oldest), then crash A
    // mid-flush: B takes over as "oldest surviving member of the oldest
    // view" and the system still converges.
    let (a, b, c, d) = (ep(1), ep(2), ep(3), ep(4));
    let mut w = SimWorld::new(13, NetConfig::reliable());
    for &e in &[a, b, c, d] {
        let s = build_stack(e, VSYNC, StackConfig::default()).unwrap();
        w.add_endpoint(s);
        w.join(e, group());
    }
    for &e in &[b, c, d] {
        w.down(e, Down::Merge { contact: a });
    }
    w.run_for(Duration::from_secs(2));
    let t = w.now();
    w.crash_at(t + Duration::from_millis(5), d);
    w.crash_at(t + Duration::from_millis(150), a);
    w.run_for(Duration::from_secs(5));
    for &m in &[b, c] {
        let v = w.installed_views(m).last().unwrap().clone();
        assert_eq!(v.members(), &[b, c], "{m}");
        assert_eq!(v.id().coordinator, b, "B led the final flush");
    }
    assert!(check_virtual_synchrony(&logs(&w, 4)).is_empty());
}
