//! STABLE — the application-defined stability layer (§9, the end-to-end
//! mechanism).
//!
//! "A message is called stable if it has been processed by all its
//! surviving destination processes. [...] Horus provides a downcall,
//! `horus_ack(m)`, with which the application process informs Horus when it
//! has processed the message m.  Eventually, this information propagates
//! back to the sender of the message, and onwards to other receivers of
//! the message.  It is reported using a STABLE upcall \[containing\] a
//! so-called stability matrix."
//!
//! The layer numbers every cast per origin, attaches the resulting
//! [`MsgId`] to deliveries (`msg.meta.msg_id()`), and gossips per-member
//! acknowledgement rows on a timer.  What "processed" means is entirely up
//! to the application — "displayed to a user, logged to disk, safe to
//! delete" — which is exactly the end-to-end point: with auto-ack
//! ([`Stable::new`]) the layer degrades to receipt stability, which is
//! what the SAFE delivery layer builds on.
//!
//! Requires P3, P4, P8, P9, P15 below; provides P14 (stability
//! information).

use horus_core::prelude::*;
use horus_core::wire::{WireReader, WireWriter};
use std::fmt;
use std::time::Duration;

const FIELDS: &[FieldSpec] = &[FieldSpec::new("kind", 1), FieldSpec::new("sseq", 32)];

const KIND_DATA: u64 = 0;
const KIND_ROW: u64 = 1;

const TIMER_TICK: u64 = 0;

/// Gossip period.
const PERIOD: Duration = Duration::from_millis(20);

/// The eager stability-gossip layer.
#[derive(Debug, Clone)]
pub struct Stable {
    /// Acknowledge on delivery instead of waiting for the `ack` downcall.
    auto_ack: bool,
    me: Option<EndpointAddr>,
    view: Option<View>,
    my_seq: u64,
    matrix: StabilityMatrix,
    /// Our own row changed since the last gossip/upcall.
    dirty: bool,
    /// Flush in progress: hold casts so sequence stamps match their view.
    flushing: bool,
    held: Vec<Message>,
    /// Acknowledgement rows multicast so far (the E14 traffic metric).
    pub rows_sent: u64,
    stable_upcalls: u64,
}

impl Default for Stable {
    fn default() -> Self {
        Stable::new(true)
    }
}

impl Stable {
    /// Creates a STABLE layer.  With `auto_ack` the layer acknowledges
    /// messages as soon as they are delivered (receipt stability);
    /// otherwise stability is driven by the application's `ack` downcall.
    pub fn new(auto_ack: bool) -> Self {
        Stable {
            auto_ack,
            me: None,
            view: None,
            my_seq: 0,
            matrix: StabilityMatrix::default(),
            dirty: false,
            flushing: false,
            held: Vec::new(),
            rows_sent: 0,
            stable_upcalls: 0,
        }
    }

    /// Application-driven variant (stability means whatever the app's
    /// `ack` downcall means).
    pub fn app_driven() -> Self {
        Stable::new(false)
    }

    fn gossip_row(&mut self, ctx: &mut LayerCtx<'_>) {
        let Some(view) = &self.view else { return };
        let me = self.me.expect("init");
        let entries: Vec<(EndpointAddr, u64)> =
            view.members().iter().map(|&m| (m, self.matrix.acked(me, m))).collect();
        let mut w = WireWriter::with_capacity(4 + 16 * entries.len());
        w.put_u32(entries.len() as u32);
        for (m, v) in entries {
            w.put_addr(m);
            w.put_u64(v);
        }
        let mut msg = ctx.new_message(w.finish());
        ctx.stamp(&mut msg);
        ctx.set(&mut msg, 0, KIND_ROW);
        ctx.set(&mut msg, 1, 0);
        self.rows_sent += 1;
        ctx.down(Down::Cast(msg));
    }

    fn report(&mut self, ctx: &mut LayerCtx<'_>) {
        self.stable_upcalls += 1;
        ctx.up(Up::Stable(self.matrix.clone()));
    }

    fn local_ack(&mut self, id: MsgId) {
        let me = self.me.expect("init");
        self.matrix.record(me, id.origin, id.seq);
        self.dirty = true;
    }

    fn stamp_and_send(&mut self, mut msg: Message, ctx: &mut LayerCtx<'_>) {
        self.my_seq += 1;
        ctx.stamp(&mut msg);
        ctx.set(&mut msg, 0, KIND_DATA);
        ctx.set(&mut msg, 1, self.my_seq);
        ctx.down(Down::Cast(msg));
    }
}

impl Layer for Stable {
    fn name(&self) -> &'static str {
        "STABLE"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        self.me = Some(ctx.local_addr());
        ctx.set_timer(PERIOD, TIMER_TICK);
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
            Down::Ack(id) | Down::Stable(id) => {
                // `ack`: the application processed the message.  `stable`:
                // the application asserts stability it learned out of band;
                // we treat both as local-row updates that gossip outward.
                self.local_ack(id);
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
                match ctx.get(&msg, 0) {
                    KIND_DATA => {
                        let id = MsgId { origin: src, seq: ctx.get(&msg, 1) };
                        msg.meta.set_msg_id(Some(id));
                        if self.auto_ack {
                            self.local_ack(id);
                        }
                        ctx.up(Up::Cast { src, msg });
                    }
                    KIND_ROW => {
                        let mut r = WireReader::new(msg.body());
                        let Ok(n) = r.get_u32() else { return };
                        for _ in 0..n {
                            let (Ok(origin), Ok(v)) = (r.get_addr(), r.get_u64()) else {
                                return;
                            };
                            self.matrix.record(src, origin, v);
                        }
                        self.report(ctx);
                    }
                    _ => {}
                }
            }
            Up::View(view) => {
                self.matrix = StabilityMatrix::new(view.members().to_vec());
                self.my_seq = 0;
                self.dirty = false;
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

    fn on_timer(&mut self, token: u64, ctx: &mut LayerCtx<'_>) {
        if token == TIMER_TICK {
            if self.dirty {
                self.dirty = false;
                self.gossip_row(ctx);
            }
            ctx.set_timer(PERIOD, TIMER_TICK);
        }
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(
            w,
            "auto_ack={} seq={} rows_sent={} stable_upcalls={}",
            self.auto_ack, self.my_seq, self.rows_sent, self.stable_upcalls
        )
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
    use horus_sim::SimWorld;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn stack(i: u64, stable: Stable) -> Stack {
        StackBuilder::new(ep(i))
            .push(Box::new(stable))
            .push(Box::new(Mbrship::new(MbrshipConfig::default())))
            .push(Box::new(Frag::default()))
            .push(Box::new(Nak::default()))
            .push(Box::new(Com::promiscuous()))
            .build()
            .unwrap()
    }

    fn joined(n: u64, seed: u64, mk: impl Fn() -> Stable) -> SimWorld {
        let mut w = SimWorld::new(seed, NetConfig::reliable());
        for i in 1..=n {
            w.add_endpoint(stack(i, mk()));
            w.join(ep(i), GroupAddr::new(1));
        }
        for i in 2..=n {
            w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
        }
        w.run_for(Duration::from_secs(1));
        w
    }

    fn last_matrix(w: &SimWorld, e: EndpointAddr) -> Option<StabilityMatrix> {
        w.upcalls(e).iter().rev().find_map(|(_, up)| match up {
            Up::Stable(m) => Some(m.clone()),
            _ => None,
        })
    }

    #[test]
    fn receipt_stability_propagates_to_sender() {
        let mut w = joined(3, 1, Stable::default);
        w.cast_bytes(ep(1), &b"payload"[..]);
        w.run_for(Duration::from_millis(500));
        let m = last_matrix(&w, ep(1)).expect("STABLE upcall at sender");
        assert!(m.is_stable(ep(1), 1), "message 1 of ep1 should be stable: {m:?}");
        assert_eq!(m.stable_horizon(ep(1)), 1);
    }

    #[test]
    fn app_driven_stability_waits_for_ack() {
        let mut w = joined(2, 2, Stable::app_driven);
        w.cast_bytes(ep(1), &b"m"[..]);
        w.run_for(Duration::from_millis(300));
        // Nobody acked: not stable anywhere.
        if let Some(m) = last_matrix(&w, ep(1)) {
            assert!(!m.is_stable(ep(1), 1));
        }
        // Both receivers ack (the id arrives in delivery metadata).
        for i in 1..=2 {
            let id = w
                .upcalls(ep(i))
                .iter()
                .find_map(|(_, up)| match up {
                    Up::Cast { msg, .. } => msg.meta.msg_id(),
                    _ => None,
                })
                .expect("delivered with id");
            w.down(ep(i), Down::Ack(id));
        }
        w.run_for(Duration::from_millis(500));
        let m = last_matrix(&w, ep(1)).expect("stable upcall after acks");
        assert!(m.is_stable(ep(1), 1), "{m:?}");
    }

    #[test]
    fn delivery_meta_carries_msg_id() {
        let mut w = joined(2, 3, Stable::default);
        w.cast_bytes(ep(1), &b"a"[..]);
        w.cast_bytes(ep(1), &b"b"[..]);
        w.run_for(Duration::from_millis(200));
        let ids: Vec<MsgId> = w
            .upcalls(ep(2))
            .iter()
            .filter_map(|(_, up)| match up {
                Up::Cast { msg, .. } => msg.meta.msg_id(),
                _ => None,
            })
            .collect();
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0], MsgId { origin: ep(1), seq: 1 });
        assert_eq!(ids[1], MsgId { origin: ep(1), seq: 2 });
    }

    #[test]
    fn matrix_resets_on_view_change() {
        let mut w = joined(3, 4, Stable::default);
        w.cast_bytes(ep(1), &b"x"[..]);
        w.run_for(Duration::from_millis(300));
        let t = w.now();
        w.crash_at(t, ep(3));
        w.run_for(Duration::from_secs(2));
        w.cast_bytes(ep(1), &b"y"[..]);
        w.run_for(Duration::from_millis(500));
        let m = last_matrix(&w, ep(2)).expect("matrix after view change");
        assert_eq!(m.members().len(), 2, "matrix covers the new view only");
        assert!(m.is_stable(ep(1), 1), "seq numbering restarted in the new view");
    }
}
