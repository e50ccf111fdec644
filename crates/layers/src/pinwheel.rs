//! PINWHEEL — rotating-slot stability dissemination (Table 3, §10).
//!
//! §10 names PINWHEEL as the alternative to STABLE that an application may
//! pick when it is "optimal" for its workload — the classic
//! bandwidth/latency trade: STABLE has *every* member gossip its
//! acknowledgement row every period (n rows per period, stability
//! converges in one round-trip), whereas PINWHEEL rotates: each slot,
//! exactly *one* member — like the sweep of a pinwheel — multicasts its
//! row together with its accumulated knowledge of everyone else's rows.
//! Per period the group sends one row instead of n, and stability
//! information needs up to n slots to converge.  Experiment E14 measures
//! exactly this crossover.
//!
//! Interface-compatible with [`crate::stable::Stable`]: per-origin message
//! ids in delivery metadata, `ack`/`stable` downcalls, STABLE upcalls with
//! the matrix.  Provides P14.

use horus_core::prelude::*;
use horus_core::wire::{WireReader, WireWriter};
use std::fmt;
use std::time::Duration;

const FIELDS: &[FieldSpec] = &[FieldSpec::new("kind", 1), FieldSpec::new("sseq", 32)];

const KIND_DATA: u64 = 0;
const KIND_WHEEL: u64 = 1;

const TIMER_SLOT: u64 = 0;

/// Length of one rotation slot.
const SLOT: Duration = Duration::from_millis(20);

/// The rotating stability layer.
#[derive(Debug, Clone)]
pub struct Pinwheel {
    auto_ack: bool,
    me: Option<EndpointAddr>,
    view: Option<View>,
    my_seq: u64,
    matrix: StabilityMatrix,
    /// Slot counter since view installation.
    slots_elapsed: u64,
    /// Anything in the matrix changed since our last rotation.
    dirty: bool,
    /// Flush in progress: hold casts so sequence stamps match their view.
    flushing: bool,
    held: Vec<Message>,
    /// Matrix rotations multicast so far (the E14 traffic metric).
    pub rows_sent: u64,
    stable_upcalls: u64,
}

impl Default for Pinwheel {
    fn default() -> Self {
        Pinwheel::new(true)
    }
}

impl Pinwheel {
    /// Creates a PINWHEEL layer; `auto_ack` as for STABLE.
    pub fn new(auto_ack: bool) -> Self {
        Pinwheel {
            auto_ack,
            me: None,
            view: None,
            my_seq: 0,
            matrix: StabilityMatrix::default(),
            slots_elapsed: 0,
            dirty: false,
            flushing: false,
            held: Vec::new(),
            rows_sent: 0,
            stable_upcalls: 0,
        }
    }

    fn my_slot(&self) -> bool {
        let (Some(view), Some(me)) = (&self.view, self.me) else { return false };
        match view.rank_of(me) {
            Some(rank) => self.slots_elapsed % view.len() as u64 == rank.0 as u64,
            None => false,
        }
    }

    /// Multicasts everything we know: the full matrix as we see it.
    fn spin(&mut self, ctx: &mut LayerCtx<'_>) {
        let Some(view) = &self.view else { return };
        let members = view.members();
        let mut w = WireWriter::with_capacity(4 + members.len() * 8 * (1 + members.len()));
        w.put_u32(members.len() as u32);
        for &row in members {
            w.put_addr(row);
            for &col in members {
                w.put_u64(self.matrix.acked(row, col));
            }
        }
        let mut msg = ctx.new_message(w.finish());
        ctx.stamp(&mut msg);
        ctx.set(&mut msg, 0, KIND_WHEEL);
        ctx.set(&mut msg, 1, 0);
        self.rows_sent += 1;
        ctx.down(Down::Cast(msg));
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

impl Layer for Pinwheel {
    fn name(&self) -> &'static str {
        "PINWHEEL"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        self.me = Some(ctx.local_addr());
        ctx.set_timer(SLOT, TIMER_SLOT);
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
            Down::Ack(id) | Down::Stable(id) => self.local_ack(id),
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
                    KIND_WHEEL => {
                        let Some(view) = self.view.clone() else { return };
                        let mut r = WireReader::new(msg.body());
                        let Ok(n) = r.get_u32() else { return };
                        if n as usize != view.len() {
                            return; // stale rotation from another view
                        }
                        let before = self.matrix.clone();
                        for _ in 0..n {
                            let Ok(row) = r.get_addr() else { return };
                            for &col in view.members() {
                                let Ok(v) = r.get_u64() else { return };
                                self.matrix.record(row, col, v);
                            }
                        }
                        if self.matrix != before {
                            self.dirty = true;
                        }
                        self.stable_upcalls += 1;
                        ctx.up(Up::Stable(self.matrix.clone()));
                    }
                    _ => {}
                }
            }
            Up::View(view) => {
                self.matrix = StabilityMatrix::new(view.members().to_vec());
                self.my_seq = 0;
                self.slots_elapsed = 0;
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
        if token == TIMER_SLOT {
            if self.my_slot() && self.dirty {
                self.dirty = false;
                self.spin(ctx);
            }
            self.slots_elapsed += 1;
            ctx.set_timer(SLOT, TIMER_SLOT);
        }
    }

    fn dump_to(&self, w: &mut dyn fmt::Write) -> fmt::Result {
        write!(
            w,
            "slots={} rows_sent={} stable_upcalls={} seq={}",
            self.slots_elapsed, self.rows_sent, self.stable_upcalls, self.my_seq
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
    use crate::stable::Stable;
    use horus_net::NetConfig;
    use horus_sim::SimWorld;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn pin_stack(i: u64) -> Stack {
        StackBuilder::new(ep(i))
            .push(Box::new(Pinwheel::default()))
            .push(Box::new(Mbrship::new(MbrshipConfig::default())))
            .push(Box::new(Frag::default()))
            .push(Box::new(Nak::default()))
            .push(Box::new(Com::promiscuous()))
            .build()
            .unwrap()
    }

    fn joined(n: u64, seed: u64) -> SimWorld {
        let mut w = SimWorld::new(seed, NetConfig::reliable());
        for i in 1..=n {
            w.add_endpoint(pin_stack(i));
            w.join(ep(i), GroupAddr::new(1));
        }
        for i in 2..=n {
            w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
        }
        w.run_for(Duration::from_secs(1));
        w
    }

    #[test]
    fn rotation_converges_to_stability() {
        let mut w = joined(4, 1);
        w.cast_bytes(ep(2), &b"m"[..]);
        w.run_for(Duration::from_secs(1));
        let m = w
            .upcalls(ep(2))
            .iter()
            .rev()
            .find_map(|(_, up)| match up {
                Up::Stable(m) => Some(m.clone()),
                _ => None,
            })
            .expect("stability reached the sender");
        assert!(m.is_stable(ep(2), 1), "{m:?}");
    }

    #[test]
    fn pinwheel_sends_fewer_rows_than_stable() {
        // Same duration, same slot/period, same workload: PINWHEEL's
        // rotation sends ~1/n of STABLE's row traffic.
        let run_pin = || {
            let mut w = joined(4, 7);
            let t = w.now();
            for k in 0..100u64 {
                w.cast_bytes_at(t + Duration::from_millis(10 * k), ep(1), vec![k as u8]);
            }
            w.run_for(Duration::from_secs(2));
            (1..=4u64)
                .map(|i| {
                    let p: &Pinwheel = w.stack(ep(i)).unwrap().focus_as("PINWHEEL").unwrap();
                    p.rows_sent
                })
                .sum::<u64>()
        };
        let run_stable = || {
            let mut w = SimWorld::new(7, NetConfig::reliable());
            for i in 1..=4u64 {
                let s = StackBuilder::new(ep(i))
                    .push(Box::new(Stable::default()))
                    .push(Box::new(Mbrship::new(MbrshipConfig::default())))
                    .push(Box::new(Frag::default()))
                    .push(Box::new(Nak::default()))
                    .push(Box::new(Com::promiscuous()))
                    .build()
                    .unwrap();
                w.add_endpoint(s);
                w.join(ep(i), GroupAddr::new(1));
            }
            for i in 2..=4 {
                w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
            }
            w.run_for(Duration::from_secs(1));
            let t = w.now();
            for k in 0..100u64 {
                w.cast_bytes_at(t + Duration::from_millis(10 * k), ep(1), vec![k as u8]);
            }
            w.run_for(Duration::from_secs(2));
            (1..=4u64)
                .map(|i| {
                    let s: &Stable = w.stack(ep(i)).unwrap().focus_as("STABLE").unwrap();
                    s.rows_sent
                })
                .sum::<u64>()
        };
        let pin_rows = run_pin();
        let stable_rows = run_stable();
        assert!(
            pin_rows < stable_rows,
            "pinwheel rows {pin_rows} should undercut stable rows {stable_rows}"
        );
    }

    #[test]
    fn ids_in_meta_match_stable_layer_contract() {
        let mut w = joined(2, 3);
        w.cast_bytes(ep(1), &b"z"[..]);
        w.run_for(Duration::from_millis(300));
        let id = w
            .upcalls(ep(2))
            .iter()
            .find_map(|(_, up)| match up {
                Up::Cast { msg, .. } => msg.meta.msg_id(),
                _ => None,
            })
            .expect("id attached");
        assert_eq!(id, MsgId { origin: ep(1), seq: 1 });
    }
}
