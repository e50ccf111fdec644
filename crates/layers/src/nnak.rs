//! NNAK — prioritized reliable FIFO point-to-point channels (Table 3).
//!
//! Table 3 lists NNAK beside NAK with the same requirements (best-effort
//! delivery with source addresses) but providing *prioritized* effort
//! (P2) and FIFO unicast (P3) rather than multicast FIFO: it is the
//! point-to-point sibling used under request/response-style protocol
//! stacks.  Outgoing `send`s queue per destination and leave in priority
//! order (within the same priority, FIFO); delivery uses positive
//! acknowledgements with timer-driven retransmission.
//!
//! Note the subtlety: priority affects the order in which messages are
//! *accepted into* the sequence space (urgent traffic overtakes bulk
//! traffic while queued), but once sequenced, delivery is FIFO — the
//! receiver cannot tell priorities apart, which is what keeps the layer
//! composable below FIFO-dependent layers.

use horus_core::prelude::*;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

const FIELDS: &[FieldSpec] = &[FieldSpec::new("kind", 1), FieldSpec::new("seq", 32)];

const KIND_DATA: u64 = 0;
const KIND_ACK: u64 = 1;

const TIMER_TICK: u64 = 0;

#[derive(Debug, Default, Clone)]
struct Chan {
    /// Next sequence to assign.
    next: u32,
    /// Waiting for a free slot, ordered by (reverse priority, arrival).
    queue: Vec<(u8, u64, Message)>,
    arrivals: u64,
    /// Sent but unacked: seq -> (message, last transmission).
    out: BTreeMap<u32, (Message, SimTime)>,
    /// Receiving side.
    expected: u32,
    ooo: BTreeMap<u32, Message>,
}

/// The prioritized unicast reliability layer.
#[derive(Debug, Clone)]
pub struct Nnak {
    /// Maximum unacked messages per destination before queueing.
    window: u32,
    rto: Duration,
    chans: BTreeMap<EndpointAddr, Chan>,
    retransmissions: u64,
}

impl Nnak {
    /// Creates an NNAK layer with the given per-destination window and
    /// retransmission timeout.
    pub fn new(window: u32, rto: Duration) -> Self {
        Nnak { window: window.max(1), rto, chans: BTreeMap::new(), retransmissions: 0 }
    }
}

impl Default for Nnak {
    fn default() -> Self {
        Nnak::new(8, Duration::from_millis(30))
    }
}

impl Nnak {
    fn pump(&mut self, dest: EndpointAddr, ctx: &mut LayerCtx<'_>) {
        let window = self.window;
        let to_send = {
            let chan = self.chans.entry(dest).or_default();
            let mut out = Vec::new();
            while (chan.out.len() as u32) < window && !chan.queue.is_empty() {
                // Highest priority first; FIFO within a priority class.
                let best = chan
                    .queue
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, (p, arrival, _))| (*p, std::cmp::Reverse(*arrival)))
                    .map(|(i, _)| i)
                    .expect("non-empty");
                let (_, _, mut msg) = chan.queue.remove(best);
                chan.next += 1;
                let seq = chan.next;
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, KIND_DATA);
                ctx.set(&mut msg, 1, seq as u64);
                chan.out.insert(seq, (msg.clone(), ctx.now()));
                out.push(msg);
            }
            out
        };
        for msg in to_send {
            ctx.down(Down::Send { dests: vec![dest], msg });
        }
    }
}

impl Layer for Nnak {
    fn name(&self) -> &'static str {
        "NNAK"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        ctx.set_timer(self.rto, TIMER_TICK);
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Send { dests, msg } => {
                for dest in dests {
                    let prio = msg.meta.priority;
                    {
                        let chan = self.chans.entry(dest).or_default();
                        chan.arrivals += 1;
                        let arrival = chan.arrivals;
                        chan.queue.push((prio, arrival, msg.clone()));
                    }
                    self.pump(dest, ctx);
                }
            }
            other => ctx.down(other),
        }
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Send { src, mut msg } => {
                if ctx.open(&mut msg).is_err() {
                    return;
                }
                let kind = ctx.get(&msg, 0);
                let seq = ctx.get(&msg, 1) as u32;
                match kind {
                    KIND_DATA => {
                        let deliveries = {
                            let chan = self.chans.entry(src).or_default();
                            let expected = chan.expected.max(1);
                            let mut out = Vec::new();
                            if seq >= expected {
                                chan.ooo.insert(seq, msg);
                                while let Some(m) = chan.ooo.remove(&chan.expected.max(1)) {
                                    chan.expected = chan.expected.max(1) + 1;
                                    out.push(m);
                                }
                            }
                            out
                        };
                        for m in deliveries {
                            ctx.up(Up::Send { src, msg: m });
                        }
                        // Cumulative ack.
                        let cum =
                            self.chans.get(&src).map(|c| c.expected.saturating_sub(1)).unwrap_or(0);
                        let mut ack = ctx.new_message(bytes::Bytes::new());
                        ctx.stamp(&mut ack);
                        ctx.set(&mut ack, 0, KIND_ACK);
                        ctx.set(&mut ack, 1, cum as u64);
                        ctx.down(Down::Send { dests: vec![src], msg: ack });
                    }
                    KIND_ACK => {
                        if let Some(chan) = self.chans.get_mut(&src) {
                            chan.out.retain(|&s, _| s > seq);
                        }
                        self.pump(src, ctx);
                    }
                    _ => {}
                }
            }
            other => ctx.up(other),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut LayerCtx<'_>) {
        if token != TIMER_TICK {
            return;
        }
        let now = ctx.now();
        let rto = self.rto;
        let mut resend: Vec<(EndpointAddr, Message)> = Vec::new();
        for (&dest, chan) in &mut self.chans {
            for (msg, sent) in chan.out.values_mut() {
                if now.saturating_since(*sent) > rto {
                    *sent = now;
                    resend.push((dest, msg.clone()));
                }
            }
        }
        for (dest, msg) in resend {
            self.retransmissions += 1;
            ctx.down(Down::Send { dests: vec![dest], msg });
        }
        ctx.set_timer(self.rto, TIMER_TICK);
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        let queued: usize = self.chans.values().map(|c| c.queue.len()).sum();
        let unacked: usize = self.chans.values().map(|c| c.out.len()).sum();
        write!(
            w,
            "chans={} queued={} unacked={} retrans={}",
            self.chans.len(),
            queued,
            unacked,
            self.retransmissions
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

    fn world(seed: u64, net: NetConfig, window: u32) -> SimWorld {
        let mut w = SimWorld::new(seed, net);
        for i in 1..=2 {
            let s = StackBuilder::new(ep(i))
                .push(Box::new(Nnak::new(window, Duration::from_millis(30))))
                .push(Box::new(Com::new()))
                .build()
                .unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        w
    }

    fn sends_of(w: &SimWorld, e: EndpointAddr) -> Vec<Vec<u8>> {
        w.upcalls(e)
            .iter()
            .filter_map(|(_, up)| match up {
                Up::Send { msg, .. } => Some(msg.body().to_vec()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn reliable_fifo_under_loss() {
        for seed in 1..=4 {
            let mut w = world(seed, NetConfig::lossy(0.3), 4);
            for k in 0..10u8 {
                let msg = w.stack(ep(1)).unwrap().new_message(vec![k]);
                w.down(ep(1), Down::Send { dests: vec![ep(2)], msg });
            }
            w.run_for(Duration::from_secs(3));
            assert_eq!(
                sends_of(&w, ep(2)),
                (0..10).map(|k| vec![k]).collect::<Vec<_>>(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn priorities_overtake_in_the_queue() {
        // Window of 1: the first message occupies the window; of the
        // queued remainder, the high-priority one must be sequenced next.
        let mut w = world(9, NetConfig::reliable(), 1);
        let bulk1 = w.stack(ep(1)).unwrap().new_message(&b"bulk1"[..]);
        let bulk2 = w.stack(ep(1)).unwrap().new_message(&b"bulk2"[..]);
        let mut urgent = w.stack(ep(1)).unwrap().new_message(&b"urgent"[..]);
        urgent.meta.priority = 9;
        w.down(ep(1), Down::Send { dests: vec![ep(2)], msg: bulk1 });
        w.down(ep(1), Down::Send { dests: vec![ep(2)], msg: bulk2 });
        w.down(ep(1), Down::Send { dests: vec![ep(2)], msg: urgent });
        w.run_for(Duration::from_secs(1));
        assert_eq!(
            sends_of(&w, ep(2)),
            vec![b"bulk1".to_vec(), b"urgent".to_vec(), b"bulk2".to_vec()]
        );
    }

    #[test]
    fn fifo_within_a_priority_class() {
        let mut w = world(10, NetConfig::reliable(), 1);
        for k in 0..5u8 {
            let msg = w.stack(ep(1)).unwrap().new_message(vec![k]);
            w.down(ep(1), Down::Send { dests: vec![ep(2)], msg });
        }
        w.run_for(Duration::from_secs(1));
        assert_eq!(sends_of(&w, ep(2)), (0..5).map(|k| vec![k]).collect::<Vec<_>>());
    }
}
