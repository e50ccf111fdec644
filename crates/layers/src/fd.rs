//! FD — adaptive heartbeat failure detection (§5).
//!
//! §5 says the membership layer "receives failure notifications from a
//! failure-detector object" and explicitly allows that detector to be
//! **inaccurate**: it "does not have to be correct in deciding whether a
//! process is to be considered faulty".  Until now the repository's only
//! in-stack suspicion source was the NAK layer's status-silence give-up —
//! a fixed timeout tied to NAK's own traffic.  FD is the dedicated,
//! composable detector the paper describes:
//!
//! * every member multicasts a small **heartbeat** on a configurable
//!   period;
//! * per monitored member, FD keeps an **EWMA of observed heartbeat
//!   inter-arrival times** (the classic adaptive-timeout construction: the
//!   network's real jitter, not a guessed constant, sets the horizon);
//! * the suspicion timeout is `max(min_timeout, margin × EWMA + jitter)` —
//!   silence beyond it raises a PROBLEM upcall, which MBRSHIP above
//!   converts into a flush;
//! * a fresh heartbeat from a suspected member **rescinds** the suspicion
//!   (PROBLEM_CLEARED): if the view change has not yet committed, MBRSHIP
//!   restarts the flush *without* excluding the falsely accused member.
//!
//! FD stacks under MBRSHIP and above FRAG/NAK (`MBRSHIP:FD:FRAG:NAK:COM`);
//! heartbeats ride the reliable FIFO layers like any other cast but are
//! consumed here, invisible to membership and the application.  Monitoring
//! follows the view: `Down::InstallView` passing through resets the peer
//! table to the new membership.  In viewless compositions (no MBRSHIP) FD
//! simply monitors whichever peers it hears heartbeats from.
//!
//! Like PACK, FD provides no Table 4 property — it is a service layer; its
//! matrix row (requires FIFO + sources, provides nothing, masks nothing)
//! makes `MBRSHIP:FD:…` compositions well-formed for the §6 checker.

use horus_core::prelude::*;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

const FIELDS: &[FieldSpec] = &[FieldSpec::new("kind", 1), FieldSpec::new("hseq", 32)];

const KIND_DATA: u64 = 0;
const KIND_HEARTBEAT: u64 = 1;

const TIMER_BEAT: u64 = 0;

/// EWMA gain for inter-arrival smoothing (1/8, the TCP SRTT constant).
const EWMA_ALPHA: f64 = 0.125;

/// Tuning knobs for the FD layer.
#[derive(Debug, Clone)]
pub struct FdConfig {
    /// Heartbeat multicast period.
    pub period: Duration,
    /// Floor for the suspicion timeout (never suspect faster than this,
    /// whatever the EWMA says).
    pub min_timeout: Duration,
    /// Multiplier on the smoothed inter-arrival time.
    pub margin: f64,
    /// Additive jitter allowance on top of the scaled EWMA.
    pub jitter: Duration,
}

impl Default for FdConfig {
    fn default() -> Self {
        FdConfig {
            period: Duration::from_millis(25),
            min_timeout: Duration::from_millis(75),
            margin: 3.0,
            jitter: Duration::from_millis(10),
        }
    }
}

impl FdConfig {
    /// The adaptive suspicion horizon for one peer:
    /// `max(min_timeout, margin × EWMA + jitter)`; before any inter-arrival
    /// sample exists, `max(min_timeout, margin × period + jitter)`.
    fn timeout_for(&self, peer: &PeerFd) -> Duration {
        let base_ns = peer.ewma_ns.unwrap_or(self.period.as_nanos() as f64);
        let adaptive = Duration::from_nanos((self.margin * base_ns) as u64) + self.jitter;
        adaptive.max(self.min_timeout)
    }
}

/// Per-monitored-member detector state.
#[derive(Debug, Clone)]
struct PeerFd {
    /// Last heartbeat (or initial grace) arrival time.
    last: SimTime,
    /// Smoothed heartbeat inter-arrival time, in nanoseconds.
    ewma_ns: Option<f64>,
    /// A PROBLEM for this member is outstanding (not yet rescinded or
    /// resolved by a view change).
    suspected: bool,
}

impl PeerFd {
    fn fresh(now: SimTime) -> Self {
        PeerFd { last: now, ewma_ns: None, suspected: false }
    }
}

/// The adaptive heartbeat failure detector.
#[derive(Debug, Clone)]
pub struct Fd {
    cfg: FdConfig,
    me: Option<EndpointAddr>,
    /// Current view membership, if a membership layer above installs one.
    view: Option<View>,
    peers: BTreeMap<EndpointAddr, PeerFd>,
    hseq: u64,
    /// PROBLEM upcalls raised (the E19 detection metric).
    pub problems_raised: u64,
    /// Suspicions rescinded by a fresh heartbeat.
    pub rescissions: u64,
    heartbeats_sent: u64,
    heartbeats_seen: u64,
}

impl Default for Fd {
    fn default() -> Self {
        Fd::new(FdConfig::default())
    }
}

impl Fd {
    /// Creates an FD layer with the given tuning.
    pub fn new(cfg: FdConfig) -> Self {
        Fd {
            cfg,
            me: None,
            view: None,
            peers: BTreeMap::new(),
            hseq: 0,
            problems_raised: 0,
            rescissions: 0,
            heartbeats_sent: 0,
            heartbeats_seen: 0,
        }
    }

    fn beat(&mut self, ctx: &mut LayerCtx<'_>) {
        self.hseq += 1;
        self.heartbeats_sent += 1;
        let mut msg = ctx.new_message(bytes::Bytes::new());
        ctx.stamp(&mut msg);
        ctx.set(&mut msg, 0, KIND_HEARTBEAT);
        ctx.set(&mut msg, 1, self.hseq);
        ctx.down(Down::Cast(msg));
    }

    fn record_heartbeat(&mut self, src: EndpointAddr, ctx: &mut LayerCtx<'_>) {
        self.heartbeats_seen += 1;
        let now = ctx.now();
        // With a view installed, monitoring is view-relative: heartbeats
        // from non-members (stale incarnations, other partitions heard
        // promiscuously) are ignored.  Without one, monitor ad hoc.
        if let Some(view) = &self.view {
            if !view.contains(src) {
                return;
            }
        }
        use std::collections::btree_map::Entry;
        match self.peers.entry(src) {
            Entry::Vacant(slot) => {
                // First contact: start the silence clock, no inter-arrival
                // sample yet.
                slot.insert(PeerFd::fresh(now));
            }
            Entry::Occupied(mut slot) => {
                let peer = slot.get_mut();
                let sample_ns = now.saturating_since(peer.last).as_nanos() as f64;
                peer.ewma_ns = Some(match peer.ewma_ns {
                    None => sample_ns,
                    Some(e) => (1.0 - EWMA_ALPHA) * e + EWMA_ALPHA * sample_ns,
                });
                peer.last = now;
                if peer.suspected {
                    // The member is demonstrably alive: rescind the
                    // suspicion before the exclusion commits.
                    peer.suspected = false;
                    self.rescissions += 1;
                    ctx.up(Up::ProblemCleared { member: src });
                }
            }
        }
    }

    fn check_peers(&mut self, ctx: &mut LayerCtx<'_>) {
        let now = ctx.now();
        let cfg = self.cfg.clone();
        let mut newly_suspect = Vec::new();
        for (&m, peer) in self.peers.iter_mut() {
            if peer.suspected {
                continue;
            }
            if now.saturating_since(peer.last) > cfg.timeout_for(peer) {
                peer.suspected = true;
                newly_suspect.push(m);
            }
        }
        for m in newly_suspect {
            self.problems_raised += 1;
            ctx.up(Up::Problem { member: m });
        }
    }

    fn reset_to_view(&mut self, view: &View, now: SimTime) {
        let me = self.me.expect("layer initialised");
        let old = std::mem::take(&mut self.peers);
        for &m in view.members() {
            if m == me {
                continue;
            }
            // Keep the learned inter-arrival EWMA across view changes but
            // restart the silence clock (grace period for the new view)
            // and drop any outstanding suspicion — the view change resolved
            // it one way or the other.
            let ewma = old.get(&m).and_then(|p| p.ewma_ns);
            self.peers.insert(m, PeerFd { last: now, ewma_ns: ewma, suspected: false });
        }
        self.view = Some(view.clone());
    }
}

impl Layer for Fd {
    fn name(&self) -> &'static str {
        "FD"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        self.me = Some(ctx.local_addr());
        ctx.set_timer(self.cfg.period, TIMER_BEAT);
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(mut msg) => {
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, KIND_DATA);
                ctx.set(&mut msg, 1, 0);
                ctx.down(Down::Cast(msg));
            }
            Down::Send { dests, mut msg } => {
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, KIND_DATA);
                ctx.set(&mut msg, 1, 0);
                ctx.down(Down::Send { dests, msg });
            }
            Down::InstallView(view) => {
                self.reset_to_view(&view, ctx.now());
                ctx.down(Down::InstallView(view));
            }
            other => ctx.down(other),
        }
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Cast { src, mut msg } => {
                if ctx.open(&mut msg).is_err() {
                    return; // not ours / garbled: drop
                }
                match ctx.get(&msg, 0) {
                    KIND_HEARTBEAT => self.record_heartbeat(src, ctx),
                    _ => ctx.up(Up::Cast { src, msg }),
                }
            }
            Up::Send { src, mut msg } => {
                if ctx.open(&mut msg).is_err() {
                    return;
                }
                ctx.up(Up::Send { src, msg });
            }
            other => ctx.up(other),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut LayerCtx<'_>) {
        if token == TIMER_BEAT {
            self.beat(ctx);
            self.check_peers(ctx);
            ctx.set_timer(self.cfg.period, TIMER_BEAT);
        }
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        let suspected: Vec<&EndpointAddr> =
            self.peers.iter().filter(|(_, p)| p.suspected).map(|(m, _)| m).collect();
        write!(
            w,
            "beats_sent={} beats_seen={} monitored={} problems={} rescissions={} suspected={:?}",
            self.heartbeats_sent,
            self.heartbeats_seen,
            self.peers.len(),
            self.problems_raised,
            self.rescissions,
            suspected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::com::Com;
    use horus_net::NetConfig;
    use horus_sim::SimWorld;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn fd_stack(i: u64, cfg: FdConfig) -> Stack {
        StackBuilder::new(ep(i))
            .push(Box::new(Fd::new(cfg)))
            .push(Box::new(Com::promiscuous()))
            .build()
            .unwrap()
    }

    fn fd_world(n: u64, seed: u64, cfg: FdConfig) -> SimWorld {
        let mut w = SimWorld::new(seed, NetConfig::reliable());
        for i in 1..=n {
            w.add_endpoint(fd_stack(i, cfg.clone()));
            w.join(ep(i), GroupAddr::new(1));
        }
        w
    }

    fn problems(w: &SimWorld, observer: u64) -> Vec<EndpointAddr> {
        w.upcalls(ep(observer))
            .iter()
            .filter_map(|(_, up)| match up {
                Up::Problem { member } => Some(*member),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn quiet_group_raises_no_suspicions() {
        let mut w = fd_world(3, 1, FdConfig::default());
        w.run_for(Duration::from_secs(2));
        for i in 1..=3 {
            assert!(problems(&w, i).is_empty(), "ep{i} suspected someone");
        }
    }

    #[test]
    fn crash_detected_within_bounded_heartbeat_periods() {
        let cfg = FdConfig::default();
        let period = cfg.period;
        let mut w = fd_world(3, 2, cfg.clone());
        w.run_for(Duration::from_millis(500));
        let t_crash = w.now();
        w.crash_at(t_crash, ep(3));
        w.run_for(Duration::from_secs(2));
        for i in [1u64, 2] {
            let t_detect = w
                .upcalls(ep(i))
                .iter()
                .find_map(|(t, up)| match up {
                    Up::Problem { member } if *member == ep(3) => Some(*t),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("ep{i} never suspected the crashed member"));
            let lag = t_detect.saturating_since(t_crash);
            assert!(
                lag <= period * 10,
                "ep{i} took {lag:?} (> 10 heartbeat periods) to detect the crash"
            );
        }
    }

    #[test]
    fn fresh_heartbeat_rescinds_suspicion() {
        // Partition ep2 away long enough to be suspected, then heal: the
        // next heartbeat must clear the suspicion, not eject the member.
        let mut w = fd_world(2, 3, FdConfig::default());
        w.run_for(Duration::from_millis(300));
        let t = w.now();
        w.partition_at(t, &[&[ep(1)], &[ep(2)]]);
        w.heal_at(t + Duration::from_millis(400));
        w.run_for(Duration::from_secs(2));
        assert!(problems(&w, 1).contains(&ep(2)), "the partition silence must raise PROBLEM");
        let cleared: Vec<EndpointAddr> = w
            .upcalls(ep(1))
            .iter()
            .filter_map(|(_, up)| match up {
                Up::ProblemCleared { member } => Some(*member),
                _ => None,
            })
            .collect();
        assert!(cleared.contains(&ep(2)), "heal must rescind the suspicion");
        let fd: &Fd = w.stack(ep(1)).unwrap().focus_as("FD").unwrap();
        assert!(fd.rescissions >= 1);
    }

    #[test]
    fn adaptive_timeout_tracks_interarrival_ewma() {
        let mut fast = Fd::new(FdConfig {
            min_timeout: Duration::from_millis(1),
            jitter: Duration::ZERO,
            ..FdConfig::default()
        });
        let peer_fast = PeerFd {
            last: SimTime::ZERO,
            ewma_ns: Some(Duration::from_millis(10).as_nanos() as f64),
            suspected: false,
        };
        let peer_slow = PeerFd {
            last: SimTime::ZERO,
            ewma_ns: Some(Duration::from_millis(40).as_nanos() as f64),
            suspected: false,
        };
        let t_fast = fast.cfg.timeout_for(&peer_fast);
        let t_slow = fast.cfg.timeout_for(&peer_slow);
        assert!(t_slow > t_fast, "slower arrivals must mean a longer horizon");
        assert_eq!(t_fast, Duration::from_millis(30), "margin × EWMA");
        // The floor binds when the EWMA is tiny.
        fast.cfg.min_timeout = Duration::from_millis(500);
        assert_eq!(fast.cfg.timeout_for(&peer_fast), Duration::from_millis(500));
    }

    #[test]
    fn heartbeats_are_invisible_above_fd() {
        let mut w = fd_world(2, 4, FdConfig::default());
        w.run_for(Duration::from_secs(1));
        assert!(
            w.delivered_casts(ep(1)).is_empty() && w.delivered_casts(ep(2)).is_empty(),
            "heartbeat traffic must never surface as application casts"
        );
        // Data still flows, stamped and opened through the FD header.
        w.cast_bytes(ep(1), &b"payload"[..]);
        w.run_for(Duration::from_millis(50));
        let got = w.delivered_casts(ep(2));
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].1[..], b"payload");
    }
}
