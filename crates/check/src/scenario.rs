//! Bounded protocol situations the explorer searches.
//!
//! A [`Scenario`] is a deterministic world (fixed latency, no probabilistic
//! faults — all nondeterminism belongs to the explorer), a scripted
//! situation, and the invariant oracles the stack must satisfy under *every*
//! schedule.  Scenarios deliberately stay small — a handful of endpoints, a
//! few scripted events, a bounded horizon — because the value of bounded
//! checking is exhausting a small space, not sampling a large one.

use bytes::Bytes;
use horus_core::prelude::*;
use horus_layers::registry::build_stack;
use horus_net::NetConfig;
use horus_sim::invariants::Violation;
use horus_sim::{check_fifo, check_total_order, check_virtual_synchrony, DeliveryLog, SimWorld};
use std::time::Duration;

/// The §7 stack with total order on top.
pub const CANONICAL: &str = "TOTAL:MBRSHIP:FRAG:NAK:COM(promiscuous=true)";
/// Virtual synchrony without an ordering layer above it.
pub const VSYNC: &str = "MBRSHIP:FRAG:NAK:COM(promiscuous=true)";
/// Bare best-effort multicast: no reliability, no ordering, no membership.
pub const BARE: &str = "COM(promiscuous=true)";
/// Eager stability gossip (§9) over the virtual-synchrony base.
pub const STABLE_STACK: &str = "STABLE:MBRSHIP:FRAG:NAK:COM(promiscuous=true)";
/// Rotating-slot stability (§10) over the same base.
pub const PINWHEEL_STACK: &str = "PINWHEEL:MBRSHIP:FRAG:NAK:COM(promiscuous=true)";
/// The chaos-soak liveness stack (MERGE-driven healing plus FD), the shape
/// the `soakwedge` scenario re-enacts from its committed fault plan.
pub const SOAK_STACK: &str =
    "MERGE(contacts=1,period=50):MBRSHIP:FD:FRAG:NAK:COM(promiscuous=true)";

/// An end-to-end property oracle, applied to the delivery logs of the
/// still-alive members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// §5 virtual synchrony: view agreement, same-view delivery agreement,
    /// monotonicity, sender-in-view.
    VirtualSynchrony,
    /// All members deliver the common subsequence of casts in one order.
    TotalOrder,
    /// Per-sender FIFO, for scenario payloads of the form `sender:seq`.
    Fifo,
}

impl Oracle {
    /// Stable name used in schedule files and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Oracle::VirtualSynchrony => "virtual-synchrony",
            Oracle::TotalOrder => "total-order",
            Oracle::Fifo => "fifo",
        }
    }

    /// Runs the oracle over delivery logs.
    pub fn check(&self, logs: &[DeliveryLog]) -> Vec<Violation> {
        match self {
            Oracle::VirtualSynchrony => check_virtual_synchrony(logs),
            Oracle::TotalOrder => check_total_order(logs),
            Oracle::Fifo => check_fifo(logs, parse_seq_payload),
        }
    }
}

/// Parses a scenario cast payload of the form `sender:seq` (ASCII decimal)
/// into `(sender, seq)` for the FIFO oracle.  Non-conforming payloads are
/// ignored by the oracle.
pub fn parse_seq_payload(body: &Bytes) -> Option<(u64, u64)> {
    let s = std::str::from_utf8(body).ok()?;
    let (sender, seq) = s.split_once(':')?;
    Some((sender.parse().ok()?, seq.parse().ok()?))
}

/// A bounded checking scenario.
pub struct Scenario {
    /// Registry name (`horus-check explore <name>`).
    pub name: &'static str,
    /// One-line description for `horus-check scenarios`.
    pub summary: &'static str,
    /// Stack descriptor every member runs.
    pub stack: &'static str,
    /// Member count; endpoints are `ep:1 ..= ep:members`.
    pub members: u64,
    /// Deterministic settling phase: joins and merges execute in calendar
    /// order for this long before exploration starts, so the search spends
    /// its budget on the scripted situation, not on group assembly.
    pub settle: Duration,
    /// Scripts the situation; `base` is the settle deadline, so events are
    /// scheduled at `base + offset`.  A script may also run the world on
    /// past `base` to set its situation up; that stretch is settling too,
    /// and the horizon counts from `settle`, not from where it stopped.
    pub script: fn(&mut SimWorld, SimTime),
    /// Exploration horizon past the settle point.  Events scheduled beyond
    /// `settle + horizon` terminate the run (periodic timers never quiesce,
    /// so the horizon is what bounds a run).
    pub horizon: Duration,
    /// Properties every schedule must satisfy.
    pub oracles: &'static [Oracle],
}

fn ep(i: u64) -> EndpointAddr {
    EndpointAddr::new(i)
}

impl Scenario {
    /// Builds the scenario's world, fully settled and scripted: members
    /// joined and merged toward `ep:1`, calendar-order execution up to the
    /// settle point, and the scripted events pending.  Everything after this
    /// — which pending event fires next, which frame drops — belongs to the
    /// caller's scheduler.
    pub fn build(&self) -> SimWorld {
        let mut w = SimWorld::deterministic(NetConfig::reliable());
        for i in 1..=self.members {
            let s = build_stack(ep(i), self.stack, StackConfig::default())
                .expect("scenario stack builds");
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        for i in 2..=self.members {
            w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
        }
        let base = SimTime::ZERO + self.settle;
        w.run_until(base);
        (self.script)(&mut w, base);
        w
    }

    /// Absolute end of the exploration window.
    pub fn deadline(&self) -> SimTime {
        SimTime::ZERO + self.settle + self.horizon
    }

    /// Delivery logs of the still-alive members (the oracle inputs).
    pub fn logs(&self, w: &SimWorld) -> Vec<DeliveryLog> {
        (1..=self.members)
            .filter(|&i| w.is_alive(ep(i)))
            .map(|i| DeliveryLog::from_upcalls(ep(i), w.upcalls(ep(i))))
            .collect()
    }

    /// All registered scenarios.
    pub fn all() -> &'static [Scenario] {
        SCENARIOS
    }

    /// Looks a scenario up by name.
    pub fn by_name(name: &str) -> Option<&'static Scenario> {
        SCENARIOS.iter().find(|s| s.name == name)
    }
}

fn script_flush3(w: &mut SimWorld, base: SimTime) {
    // The Figure 2 story at model-checking scale: isolate {b, c}, let c cast
    // inside the minority-side view, crash c, heal — the flush protocol must
    // hand c's message to a before the merged view installs, or nobody may
    // keep it.  Virtual synchrony decides which.
    let (a, b, c) = (ep(1), ep(2), ep(3));
    w.partition_at(base + Duration::from_millis(1), &[&[a], &[b, c]]);
    w.cast_bytes_at(base + Duration::from_millis(2), c, &b"3:1"[..]);
    w.crash_at(base + Duration::from_millis(5), c);
    w.heal_at(base + Duration::from_millis(8));
}

fn script_flush4(w: &mut SimWorld, base: SimTime) {
    // The full Figure 2 cast: partition [[a,b],[c,d]], d casts in the
    // minority view, d crashes, partitions heal; c is the only survivor
    // holding d's message and flush must spread it.
    let (a, b, c, d) = (ep(1), ep(2), ep(3), ep(4));
    w.partition_at(base + Duration::from_millis(1), &[&[a, b], &[c, d]]);
    w.cast_bytes_at(base + Duration::from_millis(2), d, &b"4:1"[..]);
    w.crash_at(base + Duration::from_millis(5), d);
    w.heal_at(base + Duration::from_millis(8));
}

fn script_unordered(w: &mut SimWorld, base: SimTime) {
    // Two concurrent casts from different senders.  The VSYNC stack has no
    // ordering layer, so the total-order oracle is a *planted* bug: the
    // checker must find (and minimize) a schedule where two members deliver
    // the pair in different orders.
    w.cast_bytes_at(base + Duration::from_millis(1), ep(1), &b"1:1"[..]);
    w.cast_bytes_at(base + Duration::from_millis(1), ep(2), &b"2:1"[..]);
}

fn script_fifo2(w: &mut SimWorld, base: SimTime) {
    // One sender, two back-to-back casts over the bare best-effort stack:
    // no NAK layer means delivery order is arrival order, so swapping the
    // two arrivals at the receiver violates FIFO.  The violation is *not*
    // on the calendar-order schedule — the explorer must reorder.
    w.cast_bytes_at(base + Duration::from_millis(1), ep(1), &b"1:1"[..]);
    w.cast_bytes_at(base + Duration::from_millis(1), ep(1), &b"1:2"[..]);
}

fn script_wedge(w: &mut SimWorld, base: SimTime) {
    // The view-merge wedge neighborhood: an established trio gets a
    // redundant merge request; the *false* suspicion against the contact
    // that wedges the group into {a} / {b, c} components is no longer
    // scripted — it is explorer-injected under a `--max-suspects 1`
    // budget, so the checker sweeps *every* (observer, target) pair at
    // every branch point rather than the one the soak happened to hit.
    // The committed fixture pins one suspicion placement byte-for-byte.
    let (a, _b, c) = (ep(1), ep(2), ep(3));
    w.down_at(base + Duration::from_millis(1), c, Down::Merge { contact: a });
}

fn script_token3(w: &mut SimWorld, base: SimTime) {
    // Token loss at the TOTAL holder.  Two members cast under the canonical
    // totally-ordered stack, so the ordering token is in motion between
    // them; explored with a crash budget (`--max-crashes 1`) the explorer
    // may fail-stop whichever member holds the token at any instant.  §4 of
    // the paper waves this off — "in case of a failure, the token may be
    // lost.  This, however, is not a problem" — because the membership
    // change regenerates it; the oracles hold the survivors to that: views
    // must agree and the common casts must deliver in one order.
    w.cast_bytes_at(base + Duration::from_millis(1), ep(2), &b"2:1"[..]);
    w.cast_bytes_at(base + Duration::from_millis(2), ep(3), &b"3:1"[..]);
}

fn script_mergerace(w: &mut SimWorld, base: SimTime) {
    // The MERGE discovery race: two members of an established trio issue
    // *crossed* merge requests at the same instant — b nominates c as its
    // contact while c nominates b.  Each side's MERGE layer sees a request
    // naming itself the contact of a group it believes it already
    // coordinates with, so whichever discovery message fires first decides
    // who yields.  Every interleaving (including the symmetric tie the
    // calendar never produces on its own) must leave view agreement intact;
    // the endpoint-class heuristic this PR retires skipped exactly these
    // cross-endpoint orderings.
    let (_a, b, c) = (ep(1), ep(2), ep(3));
    w.down_at(base + Duration::from_millis(1), b, Down::Merge { contact: c });
    w.down_at(base + Duration::from_millis(1), c, Down::Merge { contact: b });
}

fn script_token4(w: &mut SimWorld, base: SimTime) {
    // Double token loss: three ordered casts in flight across a 4-member
    // TOTAL ring, explored with `--max-crashes 2` — the explorer may
    // fail-stop the token holder, watch the membership change regenerate
    // the token, and then fail-stop the *new* holder.  Two survivors must
    // still agree on views and on one delivery order for the common casts.
    // Depths this scenario needs are only reachable because parked branch
    // siblings are CoW snapshots, not deep clones.
    w.cast_bytes_at(base + Duration::from_millis(1), ep(2), &b"2:1"[..]);
    w.cast_bytes_at(base + Duration::from_millis(2), ep(3), &b"3:1"[..]);
    w.cast_bytes_at(base + Duration::from_millis(3), ep(4), &b"4:1"[..]);
}

fn script_stability(w: &mut SimWorld, base: SimTime) {
    // Stability under reordering: two casts from different senders race the
    // STABLE layer's acknowledgement-row gossip.  Every interleaving of
    // data against rows must leave view agreement and same-view delivery
    // intact — a row that outruns its data, or data that outruns the row
    // acknowledging it, must never confuse the membership underneath.
    w.cast_bytes_at(base + Duration::from_millis(1), ep(1), &b"1:1"[..]);
    w.cast_bytes_at(base + Duration::from_millis(1), ep(3), &b"3:1"[..]);
}

/// The casts `3:first ..= 3:last` of `ep:3`, `gap` apart from `at`.
fn casts_of_c(w: &mut SimWorld, at: SimTime, first: u32, last: u32, gap: Duration) {
    for k in first..=last {
        w.cast_bytes_at(at + gap * (k - first), ep(3), format!("3:{k}").into_bytes());
    }
}

fn script_trim3(w: &mut SimWorld, base: SimTime) {
    // Stability mid-flush.  Settling (unexplored) brings c to 1 023 casts of
    // the view and runs past the members' NAK status round at base +
    // 300 ms, so the window opens on c: its 1 024th cast — a stability
    // report point for every member — two more casts at the same instant,
    // and its crash.  The reports race c's last casts, and the flush that
    // excludes c (NAK suspects it 200 ms later) runs on logs trimmed at
    // whatever frontier the reports reached.  Two casts past the report
    // point, because a trimmed entry the flush still needed shows only
    // where a later one survives it.  No FIFO oracle: the explorer may
    // reorder c's same-instant casts, so their payloads need not follow
    // c's sequence.
    casts_of_c(w, base, 1, 1023, Duration::from_micros(20));
    w.run_until(base + Duration::from_micros(300_500));
    let t = base + Duration::from_millis(301);
    casts_of_c(w, t, 1024, 1026, Duration::ZERO);
    w.crash_at(t, ep(3));
}

fn script_soakwedge(w: &mut SimWorld, base: SimTime) {
    // The soak-minimized wedge plan, re-enacted as a checking scenario: the
    // committed `.soak` fixture's (partition, crash) pair — once a
    // restart-grant livelock, now the regression pin for that fix — is
    // scheduled verbatim (offsets preserved, anchored 1ms past settle).
    // The checker then owns every interleaving of the healing merge
    // traffic the soak only ever sampled; the same plan also drives the
    // trace→schedule bridge round-trip in the E28 suite.
    let text = include_str!("../../../tests/fixtures/soak_wedge_regression.soak");
    let (_, plan) = horus_sim::soak::parse_artifact(text).expect("committed soak fixture parses");
    let t0 = plan.events.first().map(|e| e.at).unwrap_or(SimTime::ZERO);
    for event in &plan.events {
        let at = base + Duration::from_millis(1) + (event.at - t0);
        match &event.action {
            horus_sim::SoakAction::Partition { sides, dur } => {
                let regions: Vec<&[EndpointAddr]> = sides.iter().map(Vec::as_slice).collect();
                w.partition_at(at, &regions);
                w.heal_at(at + *dur);
            }
            horus_sim::SoakAction::Crash { ep } => w.crash_at(at, *ep),
            horus_sim::SoakAction::Storm { observers, target } => {
                for &observer in observers {
                    w.suspect_at(at, observer, *target);
                }
            }
            horus_sim::SoakAction::Merge { who, contact } => {
                w.down_at(at, *who, Down::Merge { contact: *contact });
            }
        }
    }
}

static SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "flush3",
        summary: "Figure 2 flush/merge at 3 endpoints: minority-side cast, crash, heal",
        stack: VSYNC,
        members: 3,
        settle: Duration::from_millis(400),
        script: script_flush3,
        horizon: Duration::from_millis(2500),
        oracles: &[Oracle::VirtualSynchrony],
    },
    Scenario {
        name: "flush4",
        summary: "Figure 2 flush/merge at 4 endpoints: the paper's full story",
        stack: VSYNC,
        members: 4,
        settle: Duration::from_millis(400),
        script: script_flush4,
        horizon: Duration::from_millis(2500),
        oracles: &[Oracle::VirtualSynchrony],
    },
    Scenario {
        name: "unordered",
        summary: "planted bug: total-order oracle over a stack with no ordering layer",
        stack: VSYNC,
        members: 3,
        settle: Duration::from_millis(400),
        script: script_unordered,
        horizon: Duration::from_millis(200),
        oracles: &[Oracle::TotalOrder],
    },
    Scenario {
        name: "fifo2",
        summary: "planted bug: FIFO oracle over bare best-effort multicast",
        stack: BARE,
        members: 2,
        settle: Duration::from_millis(10),
        script: script_fifo2,
        horizon: Duration::from_millis(50),
        oracles: &[Oracle::Fifo],
    },
    Scenario {
        name: "token3",
        summary: "token loss at the TOTAL holder: crash budget races two ordered casts",
        stack: CANONICAL,
        members: 3,
        settle: Duration::from_millis(400),
        script: script_token3,
        horizon: Duration::from_millis(2500),
        oracles: &[Oracle::VirtualSynchrony, Oracle::TotalOrder],
    },
    Scenario {
        name: "wedge",
        summary: "view-merge wedge: false suspicion against the contact during a merge",
        stack: VSYNC,
        members: 3,
        settle: Duration::from_millis(400),
        script: script_wedge,
        horizon: Duration::from_millis(2500),
        oracles: &[Oracle::VirtualSynchrony],
    },
    Scenario {
        name: "mergerace",
        summary: "MERGE discovery race: crossed b->c and c->b merge requests at one instant",
        stack: VSYNC,
        members: 3,
        settle: Duration::from_millis(400),
        script: script_mergerace,
        horizon: Duration::from_millis(2500),
        oracles: &[Oracle::VirtualSynchrony],
    },
    Scenario {
        name: "token4",
        summary: "double token loss: crash budget 2 races three casts on the 4-member ring",
        stack: CANONICAL,
        members: 4,
        settle: Duration::from_millis(400),
        script: script_token4,
        horizon: Duration::from_millis(2500),
        oracles: &[Oracle::VirtualSynchrony, Oracle::TotalOrder],
    },
    Scenario {
        name: "stable3",
        summary: "stability under reordering: STABLE row gossip races two data casts",
        stack: STABLE_STACK,
        members: 3,
        settle: Duration::from_millis(400),
        script: script_stability,
        horizon: Duration::from_millis(500),
        oracles: &[Oracle::VirtualSynchrony],
    },
    Scenario {
        name: "pinwheel3",
        summary: "stability under reordering: PINWHEEL slot rotations race two data casts",
        stack: PINWHEEL_STACK,
        members: 3,
        settle: Duration::from_millis(400),
        script: script_stability,
        horizon: Duration::from_millis(500),
        oracles: &[Oracle::VirtualSynchrony],
    },
    Scenario {
        name: "trim3",
        summary: "stability reports race an origin's last casts and crash (MBRSHIP log trim)",
        stack: VSYNC,
        members: 3,
        settle: Duration::from_millis(400),
        script: script_trim3,
        horizon: Duration::from_millis(550),
        oracles: &[Oracle::VirtualSynchrony],
    },
    Scenario {
        name: "soakwedge",
        summary: "the committed soak wedge plan (partition+crash) under systematic schedules",
        stack: SOAK_STACK,
        members: 4,
        settle: Duration::from_millis(400),
        script: script_soakwedge,
        horizon: Duration::from_millis(2500),
        oracles: &[Oracle::VirtualSynchrony],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_finds_every_scenario() {
        for s in Scenario::all() {
            assert!(Scenario::by_name(s.name).is_some());
        }
        assert!(Scenario::by_name("nope").is_none());
    }

    #[test]
    fn seq_payload_parses() {
        assert_eq!(parse_seq_payload(&Bytes::from_static(b"3:14")), Some((3, 14)));
        assert_eq!(parse_seq_payload(&Bytes::from_static(b"M")), None);
    }

    #[test]
    fn flush3_settles_into_full_view() {
        let s = Scenario::by_name("flush3").unwrap();
        let w = s.build();
        for i in 1..=s.members {
            let views = w.installed_views(EndpointAddr::new(i));
            assert_eq!(
                views.last().map(|v| v.len()),
                Some(s.members as usize),
                "ep{i} must be in the full view after settling"
            );
        }
    }
}
