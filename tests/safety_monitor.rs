//! The soak's incremental safety monitor against the one-shot checkers it
//! replaces at every window.
//!
//! `SafetyMonitor::tripped` must hold exactly when `check_virtual_synchrony`
//! and `check_fifo` (and `check_total_order`, when asked for) over the same
//! log prefixes return a violation: over random multi-member logs cut at
//! random window boundaries, and at every window of a soak sweep.  The soak
//! runner must read every recorded upcall exactly once, and must never run
//! the one-shot checkers on a clean plan.

use bytes::Bytes;
use horus::core::view::ViewId;
use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus::sim::invariants::{
    check_fifo, check_total_order, check_virtual_synchrony, DeliveryLog, SafetyMonitor,
};
use horus::sim::soak::{gen_plan, run_soak_judged, SafetyJudge, SoakConfig};
use horus::sim::Workload;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

type Log = Vec<(SimTime, Up)>;

fn ep(n: u64) -> EndpointAddr {
    EndpointAddr::new(n)
}

/// A view with counter `counter`, installed by `coordinator`, over `members`.
fn view(counter: u64, coordinator: u64, members: &[u64]) -> Up {
    let mut members: Vec<EndpointAddr> = members.iter().map(|&m| ep(m)).collect();
    members.sort();
    members.dedup();
    let epochs = vec![0; members.len()];
    Up::View(View::from_parts(
        GroupAddr::new(1),
        ViewId { counter, coordinator: ep(coordinator) },
        members,
        epochs,
    ))
}

/// A clean run of `n` members through a few views, with a random message
/// delivered in each, then cut short for some members (a crash), then
/// spoiled by a few random mutations.
fn random_logs(seed: u64, mutations: usize) -> Vec<Log> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=4u64);
    let all: Vec<u64> = (1..=n).collect();
    let stack = build_stack(ep(1), "COM", StackConfig::default()).expect("COM builds");
    let cast = |src: u64, body: Bytes| Up::Cast { src: ep(src), msg: stack.new_message(body) };
    let mut seq = vec![0u64; n as usize + 1];
    let mut script: Log = Vec::new();
    for counter in 1..=rng.gen_range(1..=4u64) {
        script.push((SimTime::ZERO, view(counter, 1, &all)));
        for _ in 0..rng.gen_range(0..6) {
            let src = rng.gen_range(1..=n);
            seq[src as usize] += 1;
            let body = if rng.gen_bool(0.8) {
                Workload::body(ep(src), seq[src as usize], 24)
            } else {
                // Too short for `Workload::parse`: FIFO skips it.
                Bytes::from(vec![src as u8, seq[src as usize] as u8])
            };
            script.push((SimTime::ZERO, cast(src, body)));
        }
    }
    let mut logs: Vec<Log> = all
        .iter()
        .map(|_| {
            let keep =
                if rng.gen_bool(0.3) { rng.gen_range(0..=script.len()) } else { script.len() };
            script[..keep].to_vec()
        })
        .collect();
    for _ in 0..mutations {
        let m = rng.gen_range(0..logs.len());
        let log = &mut logs[m];
        let at = rng.gen_range(0..=log.len());
        let casts: Vec<usize> =
            (0..log.len()).filter(|&i| matches!(log[i].1, Up::Cast { .. })).collect();
        match rng.gen_range(0u32..10) {
            // Swap two neighbours: a FIFO or total-order inversion, a
            // delivery moved across a view, or two views out of order.
            0 if log.len() >= 2 => {
                let i = rng.gen_range(0..log.len() - 1);
                log.swap(i, i + 1);
            }
            // Deliver a message twice.
            1 if !casts.is_empty() => {
                let i = casts[rng.gen_range(0..casts.len())];
                let dup = log[i].clone();
                log.insert(rng.gen_range(i + 1..=log.len()), dup);
            }
            // Lose a delivery.
            2 if !casts.is_empty() => {
                log.remove(casts[rng.gen_range(0..casts.len())]);
            }
            // Deliver before any view.
            3 => log.insert(0, (SimTime::ZERO, cast(1, Workload::body(ep(1), 99, 16)))),
            // Deliver from a sender outside every view.
            4 => log.insert(at, (SimTime::ZERO, cast(9, Workload::body(ep(9), 1, 16)))),
            // The same view id with another member list.
            5 => log.insert(at, (SimTime::ZERO, view(rng.gen_range(1..=4), 1, &[m as u64 + 1, 9]))),
            // A view that leaves its installer out.
            6 => log.insert(at, (SimTime::ZERO, view(9, 1, &[(m as u64 + 1) % n + 1]))),
            // Move a delivery further down the log.
            7 if !casts.is_empty() => {
                let i = casts[rng.gen_range(0..casts.len())];
                let moved = log.remove(i);
                let to = rng.gen_range(i..=log.len());
                log.insert(to, moved);
            }
            // An upcall neither checker reads.
            _ => log.insert(at, (SimTime::ZERO, Up::Problem { member: ep(2) })),
        }
    }
    logs
}

/// The one-shot verdict over every member's prefix.
fn one_shot(logs: &[Log], cuts: &[usize], total: bool) -> Vec<String> {
    let logs: Vec<DeliveryLog> = logs
        .iter()
        .zip(cuts)
        .enumerate()
        .map(|(i, (log, &cut))| DeliveryLog::from_upcalls(ep(i as u64 + 1), &log[..cut]))
        .collect();
    let mut vs = check_virtual_synchrony(&logs);
    vs.extend(check_fifo(&logs, Workload::parse));
    if total {
        vs.extend(check_total_order(&logs));
    }
    vs.into_iter().map(|v| v.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn the_monitor_trips_exactly_when_the_checkers_fail(
        seed in any::<u64>(),
        mutations in 0usize..=3,
        windows in 1usize..=5,
    ) {
        let logs = random_logs(seed, mutations);
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
        let members: Vec<EndpointAddr> = (1..=logs.len() as u64).map(ep).collect();
        for total in [false, true] {
            let mut monitor = SafetyMonitor::new(&members, Workload::parse, total);
            let mut cuts = vec![0usize; logs.len()];
            for w in 1..=windows {
                // Each member's log grows by its own amount; the last
                // window reads everything.
                for (cut, log) in cuts.iter_mut().zip(&logs) {
                    *cut = if w == windows { log.len() } else { rng.gen_range(*cut..=log.len()) };
                }
                // ... and the members are read in any order.
                let mut order: Vec<usize> = (0..logs.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                for &i in &order {
                    monitor.observe(members[i], &logs[i][..cuts[i]]);
                }
                let verdict = one_shot(&logs, &cuts, total);
                prop_assert_eq!(
                    monitor.tripped(),
                    !verdict.is_empty(),
                    "total={} window {}/{} cuts {:?}: {:?}", total, w, windows, &cuts, &verdict
                );
                prop_assert_eq!(monitor.examined(), cuts.iter().sum::<usize>() as u64);
            }
        }
    }
}

/// The stacks a sweep covers: the default, the planted NAK bug (liveness
/// trips), and one without NAK or FRAG whose lossy run breaks delivery
/// agreement mid-run (safety trips).
const STACKS: [&str; 3] = [
    "MERGE(contacts=1,period=50):MBRSHIP:FD:FRAG:NAK:COM(promiscuous=true)",
    "MERGE(contacts=1,period=50):MBRSHIP:FD:FRAG:NAK(retransmit=false):COM(promiscuous=true)",
    "MERGE(contacts=1,period=50):MBRSHIP:FD:COM(promiscuous=true)",
];

#[test]
fn the_soak_decides_every_plan_as_re_checking_every_window_does() {
    let (mut plans, mut safety_trips) = (0, 0);
    for stack in STACKS {
        let factory =
            |m: EndpointAddr| build_stack(m, stack, StackConfig::default()).expect("stack builds");
        for check_total in [false, true] {
            for seed in 1..=34 {
                let cfg = SoakConfig {
                    seed,
                    stack: stack.to_string(),
                    check_total,
                    events: 4,
                    casts: 16 + seed % 3 * 8,
                    horizon: Duration::from_millis(1500 + seed % 3 * 500),
                    settle: Duration::from_millis(1500),
                    quiet: Duration::from_millis(1200),
                    ..SoakConfig::default()
                };
                let plan = gen_plan(&cfg);
                let (fast, audit) = run_soak_judged(&cfg, &plan, &factory, SafetyJudge::Monitor);
                let (slow, slow_audit) =
                    run_soak_judged(&cfg, &plan, &factory, SafetyJudge::Checkers);
                let what = format!("{stack} seed {seed} check_total {check_total}");
                assert_eq!(fast.violations, slow.violations, "{what}");
                assert_eq!(fast.windows, slow.windows, "{what}");
                assert_eq!(fast.delivered, slow.delivered, "{what}");
                assert_eq!(fast.end, slow.end, "{what}");
                assert_eq!(fast.correct, slow.correct, "{what}");
                assert_eq!(fast.transcript, slow.transcript, "{what}");
                assert_eq!(fast.dumps, slow.dumps, "{what}");
                // The monitor agreed with the checkers at every window.
                assert_eq!(slow_audit.disagreements, Vec::<String>::new(), "{what}");
                assert_eq!(slow_audit.checker_runs, slow.windows, "{what}");
                assert_eq!(audit.disagreements, Vec::<String>::new(), "{what}");
                assert_eq!(audit.examined, audit.recorded, "{what}");
                // The checkers ran once, to word the trip, or not at all.
                assert!(audit.checker_runs <= 1, "{what}: {audit:?}");
                safety_trips += audit.checker_runs;
                plans += 1;
            }
        }
    }
    assert!(plans >= 200);
    assert!(safety_trips > 0, "no plan tripped a safety oracle mid-run");
}

#[test]
fn the_soak_reads_each_upcall_once_and_its_checking_grows_with_the_run() {
    let stack = SoakConfig::default().stack;
    let factory =
        |m: EndpointAddr| build_stack(m, &stack, StackConfig::default()).expect("stack builds");
    // Casts outnumber every other upcall here, so the recorded history
    // grows with the horizon; the windows grow more slowly, because the
    // settle and quiet periods do not stretch.
    let run = |scale: u32| {
        let cfg = SoakConfig {
            seed: 7,
            horizon: SoakConfig::default().horizon * scale,
            casts: 400 * u64::from(scale),
            ..SoakConfig::default()
        };
        let (outcome, audit) =
            run_soak_judged(&cfg, &gen_plan(&cfg), &factory, SafetyJudge::Monitor);
        assert!(outcome.violations.is_empty(), "x{scale}: {:?}", outcome.violations);
        assert_eq!(audit.examined, audit.recorded, "x{scale}: each upcall read exactly once");
        assert_eq!(audit.checker_runs, 0, "x{scale}: a clean plan never runs the checkers");
        (outcome.windows, audit.examined)
    };
    let (windows, examined) = run(1);
    let (windows4, examined4) = run(4);
    assert!(windows4 > 2 * windows, "{windows} -> {windows4} windows");
    let growth = examined4 as f64 / examined as f64;
    assert!((3.5..=4.5).contains(&growth), "x4 run read x{growth:.2} upcalls");
}
