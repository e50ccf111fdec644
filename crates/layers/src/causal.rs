//! ORDER(causal) — vector-timestamp causal delivery — and TS, the causal
//! timestamp provider (Table 3, and the asynchronous-pipeline argument of
//! §9).
//!
//! §9 motivates causal order with the display-server example: once an
//! application is "composed of multiple processes that communicate among
//! themselves", the FIFO ordering property generalizes to "reliable
//! causally ordered message delivery", and asynchronous (non-blocking)
//! communication stays safe.
//!
//! [`Causal`] implements the classic vector-clock delivery rule over a
//! virtually synchronous view: a message from member *s* with timestamp
//! *vt* is delivered once `vt[s] == VT[s]+1` and `vt[j] <= VT[j]` for all
//! other members.  Virtual synchrony below makes the view boundary a clean
//! cut: at a VIEW upcall every pending message is deliverable, the buffer
//! drains, and the clocks reset.
//!
//! [`Ts`] is the lightweight sibling: it stamps (and exposes) a Lamport
//! timestamp without delaying anything — property P13 (causal timestamps)
//! alone, for applications that want to order events themselves.
//!
//! `Causal` requires P3, P8, P9, P15 below; provides P5 (causal delivery)
//! and P13.  `Ts` requires P3; provides P13.

use horus_core::prelude::*;
use std::collections::BTreeMap;
use std::fmt;

/// CAUSAL supports views of at most this many members (the vector
/// timestamp travels in the message header).
pub const MAX_CAUSAL_MEMBERS: usize = 16;

const VT_BITS: u32 = 20;

const CAUSAL_FIELDS: &[FieldSpec] = &[
    FieldSpec::new("sender", 5),
    FieldSpec::new("vt0", VT_BITS),
    FieldSpec::new("vt1", VT_BITS),
    FieldSpec::new("vt2", VT_BITS),
    FieldSpec::new("vt3", VT_BITS),
    FieldSpec::new("vt4", VT_BITS),
    FieldSpec::new("vt5", VT_BITS),
    FieldSpec::new("vt6", VT_BITS),
    FieldSpec::new("vt7", VT_BITS),
    FieldSpec::new("vt8", VT_BITS),
    FieldSpec::new("vt9", VT_BITS),
    FieldSpec::new("vt10", VT_BITS),
    FieldSpec::new("vt11", VT_BITS),
    FieldSpec::new("vt12", VT_BITS),
    FieldSpec::new("vt13", VT_BITS),
    FieldSpec::new("vt14", VT_BITS),
    FieldSpec::new("vt15", VT_BITS),
];

/// The causal ordering layer.
#[derive(Debug, Default, Clone)]
pub struct Causal {
    view: Option<View>,
    /// Our vector clock: deliveries per member rank.
    vt: Vec<u64>,
    /// Casts we have sent in this view (our own row runs ahead of `vt`
    /// until the loopback copies come back).
    my_sent: u64,
    /// Messages waiting for their causal past: `(sender rank, vt, msg)`.
    buffer: Vec<(usize, Vec<u64>, EndpointAddr, Message)>,
    /// A flush is in progress: hold outgoing casts so their vector stamps
    /// belong to the view they are sent in.
    flushing: bool,
    held: Vec<Message>,
    delivered: u64,
    delayed: u64,
}

impl Causal {
    /// Creates a CAUSAL layer.
    pub fn new() -> Self {
        Causal::default()
    }

    fn stamp_and_send(&mut self, mut msg: Message, ctx: &mut LayerCtx<'_>) {
        let Some(view) = &self.view else {
            ctx.up(Up::SystemError {
                reason: "CAUSAL: cast before a view was installed".to_string(),
            });
            return;
        };
        let me = ctx.local_addr();
        let Some(rank) = view.rank_of(me) else { return };
        // Our own send is the next event in our row; successive sends
        // before any loopback must still get distinct stamps.
        self.my_sent += 1;
        let mut vt = self.vt.clone();
        vt[rank.0] = self.my_sent;
        ctx.stamp(&mut msg);
        ctx.set(&mut msg, 0, rank.0 as u64);
        for (j, &v) in vt.iter().enumerate() {
            ctx.set(&mut msg, 1 + j, v);
        }
        ctx.down(Down::Cast(msg));
    }

    fn deliverable(&self, sender: usize, vt: &[u64]) -> bool {
        vt.iter().enumerate().all(|(j, &v)| {
            let have = self.vt.get(j).copied().unwrap_or(0);
            if j == sender {
                v == have + 1
            } else {
                v <= have
            }
        })
    }

    fn deliver(&mut self, sender: usize, src: EndpointAddr, msg: Message, ctx: &mut LayerCtx<'_>) {
        self.vt[sender] += 1;
        self.delivered += 1;
        ctx.up(Up::Cast { src, msg });
    }

    /// Re-scans the buffer until no further message is deliverable.
    fn drain(&mut self, ctx: &mut LayerCtx<'_>) {
        loop {
            let idx =
                self.buffer.iter().position(|(sender, vt, _, _)| self.deliverable(*sender, vt));
            match idx {
                Some(i) => {
                    let (sender, _, src, msg) = self.buffer.remove(i);
                    self.deliver(sender, src, msg, ctx);
                }
                None => break,
            }
        }
    }
}

impl Layer for Causal {
    fn name(&self) -> &'static str {
        "CAUSAL"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        CAUSAL_FIELDS
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(msg) => {
                if self.flushing {
                    self.held.push(msg);
                } else {
                    self.stamp_and_send(msg, ctx);
                }
            }
            other => ctx.down(other),
        }
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Cast { src, mut msg } => {
                if ctx.open(&mut msg).is_err() {
                    return;
                }
                let n = self.view.as_ref().map(|v| v.len()).unwrap_or(0);
                let sender = ctx.get(&msg, 0) as usize;
                if sender >= n {
                    return; // malformed or view mismatch
                }
                let vt: Vec<u64> = (0..n).map(|j| ctx.get(&msg, 1 + j)).collect();
                if self.deliverable(sender, &vt) {
                    self.deliver(sender, src, msg, ctx);
                    self.drain(ctx);
                } else {
                    self.delayed += 1;
                    self.buffer.push((sender, vt, src, msg));
                }
            }
            Up::View(view) => {
                // Virtual synchrony: everything sent in the old view has
                // been delivered to us, so the buffer must drain completely.
                self.drain(ctx);
                for (_, _, src, msg) in std::mem::take(&mut self.buffer) {
                    // Defensive: should be unreachable under a VS stack.
                    ctx.trace("CAUSAL: undeliverable residue at view change".to_string());
                    ctx.up(Up::Cast { src, msg });
                }
                assert!(
                    view.len() <= MAX_CAUSAL_MEMBERS,
                    "CAUSAL supports at most {MAX_CAUSAL_MEMBERS} members"
                );
                self.vt = vec![0; view.len()];
                self.my_sent = 0;
                self.flushing = false;
                self.view = Some(view.clone());
                ctx.up(Up::View(view));
                let held: Vec<Message> = std::mem::take(&mut self.held);
                for msg in held {
                    self.stamp_and_send(msg, ctx);
                }
            }
            Up::Flush { failed } => {
                self.flushing = true;
                ctx.up(Up::Flush { failed });
            }
            other => ctx.up(other),
        }
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(
            w,
            "vt={:?} delivered={} delayed={} buffered={}",
            self.vt,
            self.delivered,
            self.delayed,
            self.buffer.len()
        )
    }
}

const TS_FIELDS: &[FieldSpec] = &[FieldSpec::new("lamport", 48)];

/// The causal-timestamp layer: stamps a Lamport clock, delays nothing.
#[derive(Debug, Default, Clone)]
pub struct Ts {
    clock: u64,
    /// Last timestamp seen per source (exposed through `dump`).
    last_seen: BTreeMap<EndpointAddr, u64>,
}

impl Ts {
    /// Creates a TS layer.
    pub fn new() -> Self {
        Ts::default()
    }

    /// The current Lamport clock value.
    pub fn clock(&self) -> u64 {
        self.clock
    }
}

impl Layer for Ts {
    fn name(&self) -> &'static str {
        "TS"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        TS_FIELDS
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(mut msg) => {
                self.clock += 1;
                ctx.stamp(&mut msg);
                ctx.set(&mut msg, 0, self.clock);
                ctx.down(Down::Cast(msg));
            }
            other => ctx.down(other),
        }
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Cast { src, mut msg } => {
                if ctx.open(&mut msg).is_err() {
                    return;
                }
                let ts = ctx.get(&msg, 0);
                self.clock = self.clock.max(ts);
                self.last_seen.insert(src, ts);
                ctx.up(Up::Cast { src, msg });
            }
            other => ctx.up(other),
        }
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(w, "clock={} peers={}", self.clock, self.last_seen.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::com::Com;
    use crate::frag::Frag;
    use crate::mbrship::{Mbrship, MbrshipConfig};
    use crate::nak::Nak;
    use horus_net::NetConfig;
    use horus_sim::{check_virtual_synchrony, DeliveryLog, SimWorld};
    use std::time::Duration;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn causal_stack(i: u64) -> Stack {
        StackBuilder::new(ep(i))
            .push(Box::new(Causal::new()))
            .push(Box::new(Mbrship::new(MbrshipConfig::default())))
            .push(Box::new(Frag::default()))
            .push(Box::new(Nak::default()))
            .push(Box::new(Com::promiscuous()))
            .build()
            .unwrap()
    }

    fn joined_world(n: u64, seed: u64, net: NetConfig) -> SimWorld {
        let mut w = SimWorld::new(seed, net);
        for i in 1..=n {
            w.add_endpoint(causal_stack(i));
            w.join(ep(i), GroupAddr::new(1));
        }
        for i in 2..=n {
            w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
        }
        w.run_for(Duration::from_secs(2));
        for i in 1..=n {
            assert_eq!(w.installed_views(ep(i)).last().unwrap().len(), n as usize);
        }
        w
    }

    /// Checks causality on delivery logs: every delivery's vector
    /// timestamp must be compatible with what preceded it.  We approximate
    /// by reply-chains: a "reply" body names the body it reacts to, and
    /// must never be delivered before it.
    fn replies_in_order(casts: &[(EndpointAddr, bytes::Bytes, SimTime)]) -> bool {
        let mut seen: Vec<Vec<u8>> = Vec::new();
        for (_, body, _) in casts {
            if let Some(rest) = body.strip_prefix(b"re:") {
                if !seen.iter().any(|b| b == rest) {
                    return false;
                }
            }
            seen.push(body.to_vec());
        }
        true
    }

    #[test]
    fn reply_chains_respect_causality() {
        // ep1 casts "m"; ep2, upon delivery, casts "re:m".  With a causal
        // layer no member may see "re:m" before "m", regardless of network
        // jitter.  We drive the reply by scheduling it right after ep2's
        // delivery (the sim is deterministic so we find that time first).
        for seed in 1..=5 {
            let mut w = joined_world(3, 300 + seed, NetConfig::reliable());
            let t = w.now();
            w.cast_bytes_at(t + Duration::from_millis(1), ep(1), &b"m"[..]);
            // Run until ep2 delivers "m", then fire the causally dependent
            // reply immediately.
            let mut stepped = t + Duration::from_millis(1);
            while w.delivered_casts(ep(2)).iter().all(|(_, b, _)| &b[..] != b"m") {
                stepped += Duration::from_micros(50);
                w.run_until(stepped);
            }
            w.cast_bytes(ep(2), &b"re:m"[..]);
            w.run_for(Duration::from_millis(500));
            for i in 1..=3 {
                let casts = w.delivered_casts(ep(i));
                assert_eq!(casts.len(), 2, "seed {seed} endpoint {i}");
                assert!(replies_in_order(&casts), "seed {seed} endpoint {i}: {casts:?}");
            }
        }
    }

    #[test]
    fn concurrent_casts_all_delivered() {
        let mut w = joined_world(3, 11, NetConfig::reliable());
        let t = w.now();
        for k in 1..=10u64 {
            for i in 1..=3 {
                w.cast_bytes_at(
                    t + Duration::from_micros(137 * k),
                    ep(i),
                    format!("m{i}-{k}").into_bytes(),
                );
            }
        }
        w.run_for(Duration::from_secs(1));
        for i in 1..=3 {
            assert_eq!(w.delivered_casts(ep(i)).len(), 30, "endpoint {i}");
        }
        let logs: Vec<DeliveryLog> =
            (1..=3).map(|i| DeliveryLog::from_upcalls(ep(i), w.upcalls(ep(i)))).collect();
        assert!(check_virtual_synchrony(&logs).is_empty());
    }

    #[test]
    fn causal_works_across_view_changes() {
        let mut w = joined_world(3, 12, NetConfig::reliable());
        let t = w.now();
        for k in 1..=6u64 {
            w.cast_bytes_at(t + Duration::from_millis(k), ep(2), format!("a{k}").into_bytes());
        }
        w.crash_at(t + Duration::from_millis(3), ep(3));
        w.run_for(Duration::from_secs(2));
        // Survivors agree and deliver everything from ep2.
        let logs: Vec<DeliveryLog> =
            (1..=2).map(|i| DeliveryLog::from_upcalls(ep(i), w.upcalls(ep(i)))).collect();
        assert!(check_virtual_synchrony(&logs).is_empty());
        let from2 = w.delivered_casts(ep(1)).iter().filter(|(s, _, _)| *s == ep(2)).count();
        assert_eq!(from2, 6);
    }

    #[test]
    fn ts_layer_stamps_monotone_clock() {
        let mut w = SimWorld::new(13, NetConfig::reliable());
        for i in 1..=2 {
            let s = StackBuilder::new(ep(i))
                .push(Box::new(Ts::new()))
                .push(Box::new(Nak::default()))
                .push(Box::new(Com::new()))
                .build()
                .unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        for k in 0..5u8 {
            w.cast_bytes(ep(1), vec![k]);
        }
        w.run_for(Duration::from_millis(100));
        assert_eq!(w.delivered_casts(ep(2)).len(), 5);
        // The receiver's clock advanced past the sender's stamps.
        let ts: &Ts = w.stack(ep(2)).unwrap().focus_as("TS").unwrap();
        assert!(ts.clock() >= 5);
    }
}
