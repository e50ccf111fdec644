//! Shared scaffolding for the benchmark harness.
//!
//! Each Criterion bench regenerates one experiment from EXPERIMENTS.md
//! (the §10 overhead discussion and the design-choice ablations).  Wall
//! time is measured by Criterion; protocol-level metrics that the paper
//! talks about — bytes of header per message, messages on the wire per
//! payload delivered, virtual-time latencies — are printed to stderr by
//! the benches as they run, and copied into EXPERIMENTS.md.

#![forbid(unsafe_code)]

use bytes::Bytes;
use horus_core::prelude::*;
use horus_layers::registry::build_stack;
use horus_net::threaded::Frame;
use horus_net::{LoopbackNet, NetConfig};
use horus_sim::SimWorld;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use horus_core;
pub use horus_layers;
pub use horus_net;
pub use horus_sim;

/// Endpoint helper.
pub fn ep(i: u64) -> EndpointAddr {
    EndpointAddr::new(i)
}

/// The shared test group.
pub fn group() -> GroupAddr {
    GroupAddr::new(1)
}

/// Builds a world of `n` members running `desc`, merged into one view.
///
/// # Panics
///
/// Panics if the stack fails to build or the group does not form.
pub fn joined_world(
    n: u64,
    seed: u64,
    net: NetConfig,
    desc: &str,
    config: StackConfig,
) -> SimWorld {
    let mut w = SimWorld::new(seed, net);
    for i in 1..=n {
        let s = build_stack(ep(i), desc, config.clone()).expect("stack builds");
        w.add_endpoint(s);
        w.join(ep(i), group());
    }
    for i in 2..=n {
        w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
    }
    w.run_for(Duration::from_secs(3));
    for i in 1..=n {
        assert_eq!(
            w.installed_views(ep(i)).last().expect("view").len(),
            n as usize,
            "group must form for {desc}"
        );
    }
    w
}

/// A single stack fed directly (no world): returns the stack ready for
/// hot-path measurements.
///
/// # Panics
///
/// Panics if the stack fails to build.
pub fn lone_stack(desc: &str, config: StackConfig) -> Stack {
    let mut s = build_stack(ep(1), desc, config).expect("stack builds");
    let _ = s.init();
    let _ = s.handle(StackInput::FromApp(Down::Join { group: group() }));
    s
}

/// Sends one cast through `tx` and feeds every produced frame into `rx`,
/// returning the number of CAST deliveries at `rx`.  The core send+receive
/// hot path with no simulator in between.
pub fn pump_one(tx: &mut Stack, rx: &mut Stack, body: &[u8]) -> usize {
    let msg = tx.new_message(body.to_vec());
    let fx = tx.handle(StackInput::FromApp(Down::Cast(msg)));
    let mut delivered = 0;
    for e in fx {
        if let Effect::NetCast { wire } = e {
            let fx2 = rx.handle(StackInput::FromNet { from: ep(1), cast: true, wire });
            delivered +=
                fx2.iter().filter(|e| matches!(e, Effect::Deliver(Up::Cast { .. }))).count();
        }
    }
    delivered
}

/// Description string for a stack of `n` pass-through layers over COM.
pub fn nop_stack_desc(n: usize, opaque: bool) -> String {
    let layer = if opaque { "NOP_OPAQUE" } else { "NOP" };
    let mut parts = vec![layer; n];
    parts.push("COM");
    parts.join(":")
}

enum LockedIn {
    Frame(Frame),
    App(Down),
    Stop,
}

/// E11's abandoned arm (§10 problem 2): one endpoint whose `threads`
/// workers share one input queue and take a lock around every dispatch into
/// the one stack — the thread-per-upcall, lock-per-group model of the 1995
/// system.  The transport feeds that queue directly, through a `FrameSink`.
///
/// An ablation harness, not an executor: there is no pump thread and no
/// timer thread, and `SetTimer` effects are dropped.  E11 does not need
/// them.  Its 500-cast flood over a lossless loopback fits NAK's 4096-cast
/// window, so no status tick has to reopen the window; and although workers
/// racing for the lock can hand NAK frames out of order, the frame it then
/// waits for is already in the queue, so no retransmission timer has to
/// fetch it.
pub struct LockedThreads {
    addr: EndpointAddr,
    net: LoopbackNet,
    layout: Arc<HeaderLayout>,
    casts: Arc<AtomicUsize>,
    tx: Sender<LockedIn>,
    workers: Vec<JoinHandle<()>>,
}

impl LockedThreads {
    /// Registers `stack` on `net` and starts `threads` workers on it.
    pub fn spawn(mut stack: Stack, net: LoopbackNet, threads: usize) -> Self {
        let addr = stack.local_addr();
        let layout = stack.layout().clone();
        let casts = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        // The workers share the one receiver behind a mutex: one queue under
        // one lock, which they contend for as they do for the stack.
        let rx = Arc::new(Mutex::new(rx));
        let sink_tx = tx.clone();
        net.register_sink(addr, Arc::new(move |f| sink_tx.send(LockedIn::Frame(f)).is_ok()));
        let epoch = Instant::now();
        let fx = stack.init();
        Self::apply(&net, addr, &casts, fx);
        let stack = Arc::new(Mutex::new(stack));
        let workers = (0..threads.max(1))
            .map(|_| {
                let (rx, stack, net, casts) =
                    (rx.clone(), stack.clone(), net.clone(), casts.clone());
                std::thread::spawn(move || loop {
                    let next = rx.lock().expect("no worker panics under the lock").recv();
                    let input = match next {
                        Err(_) | Ok(LockedIn::Stop) => break,
                        Ok(LockedIn::Frame(f)) => {
                            StackInput::FromNet { from: f.from, cast: f.cast, wire: f.wire }
                        }
                        Ok(LockedIn::App(down)) => StackInput::FromApp(down),
                    };
                    let fx = {
                        let mut stack = stack.lock().expect("no worker panics under the lock");
                        stack.set_now(SimTime::from_nanos(epoch.elapsed().as_nanos() as u64));
                        stack.handle(input)
                    };
                    Self::apply(&net, addr, &casts, fx);
                })
            })
            .collect();
        LockedThreads { addr, net, layout, casts, tx, workers }
    }

    /// Performs a dispatch's effects, outside the stack lock.
    fn apply(net: &LoopbackNet, addr: EndpointAddr, casts: &AtomicUsize, effects: Vec<Effect>) {
        for fx in effects {
            match fx {
                Effect::Deliver(Up::Cast { .. }) => {
                    casts.fetch_add(1, Ordering::Relaxed);
                }
                Effect::NetCast { wire } => {
                    net.cast(addr, wire);
                }
                Effect::NetSend { dests, wire } => {
                    net.send(addr, &dests, wire);
                }
                Effect::NetJoin { group } => net.join(group, addr),
                Effect::NetLeave => net.leave(addr),
                Effect::Deliver(_) | Effect::SetTimer { .. } => {}
            }
        }
    }

    /// Issues a downcall.
    pub fn down(&self, down: Down) {
        let _ = self.tx.send(LockedIn::App(down));
    }

    /// Casts an application payload.
    pub fn cast_bytes(&self, body: impl Into<Bytes>) {
        self.down(Down::Cast(Message::new(self.layout.clone(), body)));
    }

    /// Polls until `n` CAST upcalls have been delivered or `timeout` is up;
    /// returns how many have been.
    pub fn wait_for_casts(&self, n: usize, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        while self.casts.load(Ordering::Relaxed) < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        self.casts.load(Ordering::Relaxed)
    }

    /// Stops and joins the workers, then deregisters from the transport.
    pub fn stop(self) {
        for _ in &self.workers {
            let _ = self.tx.send(LockedIn::Stop);
        }
        for w in self.workers {
            w.join().expect("worker exits cleanly");
        }
        self.net.deregister(self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What E11's `locked_threads` arm runs, at a tenth of the flood: both
    /// members of a `NAK:COM` pair, four workers each, see every cast.
    #[test]
    fn locked_threads_model_delivers() {
        let net = LoopbackNet::new();
        let members: Vec<LockedThreads> = (1..=2)
            .map(|i| {
                let s = build_stack(ep(i), "NAK:COM", StackConfig::default()).unwrap();
                LockedThreads::spawn(s, net.clone(), 4)
            })
            .collect();
        for m in &members {
            m.down(Down::Join { group: group() });
        }
        // Four workers race for the two joins and the first casts.
        while net.members(group()).len() < 2 {
            std::thread::yield_now();
        }
        for k in 0..50u8 {
            members[0].cast_bytes(vec![k]);
        }
        for m in &members {
            assert_eq!(m.wait_for_casts(50, Duration::from_secs(10)), 50);
        }
        for m in members {
            m.stop();
        }
    }
}
