//! The Horus Common Protocol Interface (§4): downcalls (Table 1), upcalls
//! (Table 2), and the effect/input types that connect a stack to its
//! executor.
//!
//! The HCPI is the whole point of the paper: because *every* layer consumes
//! and produces exactly these events, layers can be stacked in any order at
//! run time.  The `endpoint`, `focus`, and `dump` downcalls of Table 1 are
//! synchronous API operations in this implementation
//! ([`crate::stack::StackBuilder`], [`crate::stack::Stack::focus`],
//! [`crate::stack::Stack::dump`]); everything else flows through [`Down`]
//! and [`Up`].

use crate::addr::{EndpointAddr, GroupAddr};
use crate::frame::WireFrame;
use crate::message::Message;
use crate::time::SimTime;
use crate::view::View;
use std::fmt;
use std::time::Duration;

/// Identifies a message for stability tracking (`ack`/`stable` downcalls and
/// the STABLE upcall): the originating endpoint plus its per-origin sequence
/// number in the stability layer's numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    /// The endpoint that originally cast the message.
    pub origin: EndpointAddr,
    /// Per-origin sequence number.
    pub seq: u64,
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// Identifies one merge negotiation (MERGE_REQUEST upcall and the
/// `merge_granted`/`merge_denied` downcalls).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MergeId(pub u64);

impl fmt::Display for MergeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "merge:{}", self.0)
    }
}

/// The stability matrix reported by the STABLE upcall (§9).
///
/// Entry `(i, j)` is the highest sequence number of member `j`'s messages
/// that member `i` is known (to the local stability layer) to have
/// *processed*, in the application-defined sense of the `ack` downcall.
/// Row and column order follows the current view's member order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StabilityMatrix {
    members: Vec<EndpointAddr>,
    /// Row-major: `acked[i * n + j]`.
    acked: Vec<u64>,
}

impl StabilityMatrix {
    /// Creates an all-zero matrix over the given members.
    pub fn new(members: Vec<EndpointAddr>) -> Self {
        let n = members.len();
        StabilityMatrix { members, acked: vec![0; n * n] }
    }

    /// The members this matrix covers, in view order.
    pub fn members(&self) -> &[EndpointAddr] {
        &self.members
    }

    /// Highest sequence number of `origin`'s messages processed by `member`.
    pub fn acked(&self, member: EndpointAddr, origin: EndpointAddr) -> u64 {
        match (self.index(member), self.index(origin)) {
            (Some(i), Some(j)) => self.acked[i * self.members.len() + j],
            _ => 0,
        }
    }

    /// Records that `member` has processed `origin`'s messages up to `seq`.
    /// Monotone: lower values than already recorded are ignored.
    pub fn record(&mut self, member: EndpointAddr, origin: EndpointAddr, seq: u64) {
        if let (Some(i), Some(j)) = (self.index(member), self.index(origin)) {
            let cell = &mut self.acked[i * self.members.len() + j];
            *cell = (*cell).max(seq);
        }
    }

    /// A message from `origin` with sequence `seq` is *stable* when every
    /// member has processed it — the end-to-end mechanism of §9.
    pub fn is_stable(&self, origin: EndpointAddr, seq: u64) -> bool {
        match self.index(origin) {
            Some(j) => {
                let n = self.members.len();
                (0..n).all(|i| self.acked[i * n + j] >= seq)
            }
            None => false,
        }
    }

    /// For `origin`, the highest sequence processed by *all* members
    /// (the stable horizon).
    pub fn stable_horizon(&self, origin: EndpointAddr) -> u64 {
        match self.index(origin) {
            Some(j) => {
                let n = self.members.len();
                (0..n).map(|i| self.acked[i * n + j]).min().unwrap_or(0)
            }
            None => 0,
        }
    }

    fn index(&self, who: EndpointAddr) -> Option<usize> {
        self.members.iter().position(|&m| m == who)
    }
}

/// HCPI downcalls (Table 1 of the paper).
///
/// Issued by the application (or an embedding such as the socket facade) at
/// the top of a stack, and passed from layer to layer toward the network.
// Variant sizes intentionally differ: messages and views dominate, and
// boxing them would add an allocation to the per-message hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Down {
    /// `join`: join the group.  Results eventually in a VIEW upcall.
    Join { group: GroupAddr },
    /// `cast`: multicast a message to the current view of the group.
    Cast(Message),
    /// `send`: send a message to a subset of the view.
    Send { dests: Vec<EndpointAddr>, msg: Message },
    /// `ack`: the application has *processed* this message (application-
    /// defined stability, §9).
    Ack(MsgId),
    /// `stable`: the application asserts the message is stable (e.g. it
    /// learned so out of band, or logged it to disk).
    Stable(MsgId),
    /// `view`: install a group view (issued by membership layers toward the
    /// layers below them, or by an application running its own membership).
    InstallView(View),
    /// `flush`: remove the listed failed members and start a view flush.
    Flush { failed: Vec<EndpointAddr> },
    /// `flush_ok`: go along with an in-progress flush.
    FlushOk,
    /// `merge`: ask the view containing `contact` to merge with ours.
    Merge { contact: EndpointAddr },
    /// `merge_granted`: grant a previously reported MERGE_REQUEST.
    MergeGranted(MergeId),
    /// `merge_denied`: deny a previously reported MERGE_REQUEST.
    MergeDenied(MergeId),
    /// `leave`: leave the group.
    Leave,
    /// `destroy`: tear the endpoint down.
    Destroy,
    /// External failure-detector input (§5: "an external service ... decides
    /// whether a process is to be considered faulty"): suspect a member.
    Suspect { member: EndpointAddr },
    /// `dump`: ask every layer to report its state (DumpInfo upcalls).
    Dump,
}

/// HCPI upcalls (Table 2 of the paper).
///
/// Generated by layers and passed from layer to layer toward the
/// application.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Up {
    /// VIEW: a new view was installed.
    View(View),
    /// CAST: a multicast message was received.
    Cast { src: EndpointAddr, msg: Message },
    /// SEND: a subset (point-to-point) message was received.
    Send { src: EndpointAddr, msg: Message },
    /// MERGE_REQUEST: another view asks to merge with ours.
    MergeRequest { from: EndpointAddr, id: MergeId },
    /// MERGE_DENIED: our merge request was denied.
    MergeDenied { why: String },
    /// FLUSH: a view flush has started; the listed members are considered
    /// failed.
    Flush { failed: Vec<EndpointAddr> },
    /// FLUSH_OK: a member completed its part of the flush.
    FlushOk { from: EndpointAddr },
    /// LEAVE: a member left the group voluntarily.
    Leave { member: EndpointAddr },
    /// LOST_MESSAGE: a message is irrecoverably gone (the NAK layer's
    /// retransmission buffer no longer held it).
    LostMessage { src: EndpointAddr },
    /// STABLE: updated stability information (§9).
    Stable(StabilityMatrix),
    /// PROBLEM: communication trouble with a member (failure *suspicion*,
    /// not yet a membership decision).
    Problem { member: EndpointAddr },
    /// PROBLEM_CLEARED: a previously raised suspicion proved false — the
    /// failure detector saw fresh evidence (e.g. a heartbeat) that the
    /// member is alive.  Membership may rescind a pending exclusion that
    /// has not yet committed to a view change (§5: detectors are allowed
    /// to be inaccurate; the system must stay correct anyway).
    ProblemCleared { member: EndpointAddr },
    /// SYSTEM_ERROR: something went wrong inside the stack.
    SystemError { reason: String },
    /// DESTROY: the endpoint has been destroyed.
    Destroy,
    /// EXIT: close-down event; the application should stop using the stack.
    Exit,
    /// Response to the `dump` downcall: one layer's state report
    /// (the `focus`/`dump` debugging interface of Table 1).
    DumpInfo { layer: &'static str, info: String },
}

impl Up {
    /// A short tag for trace output and statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Up::View(_) => "VIEW",
            Up::Cast { .. } => "CAST",
            Up::Send { .. } => "SEND",
            Up::MergeRequest { .. } => "MERGE_REQUEST",
            Up::MergeDenied { .. } => "MERGE_DENIED",
            Up::Flush { .. } => "FLUSH",
            Up::FlushOk { .. } => "FLUSH_OK",
            Up::Leave { .. } => "LEAVE",
            Up::LostMessage { .. } => "LOST_MESSAGE",
            Up::Stable(_) => "STABLE",
            Up::Problem { .. } => "PROBLEM",
            Up::ProblemCleared { .. } => "PROBLEM_CLEARED",
            Up::SystemError { .. } => "SYSTEM_ERROR",
            Up::Destroy => "DESTROY",
            Up::Exit => "EXIT",
            Up::DumpInfo { .. } => "DUMP_INFO",
        }
    }
}

impl Down {
    /// A short tag for trace output and statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Down::Join { .. } => "join",
            Down::Cast(_) => "cast",
            Down::Send { .. } => "send",
            Down::Ack(_) => "ack",
            Down::Stable(_) => "stable",
            Down::InstallView(_) => "view",
            Down::Flush { .. } => "flush",
            Down::FlushOk => "flush_ok",
            Down::Merge { .. } => "merge",
            Down::MergeGranted(_) => "merge_granted",
            Down::MergeDenied(_) => "merge_denied",
            Down::Leave => "leave",
            Down::Destroy => "destroy",
            Down::Suspect { .. } => "suspect",
            Down::Dump => "dump",
        }
    }
}

/// One unit of work entering a stack from the outside world.
#[allow(clippy::large_enum_variant)] // downcalls carry whole messages
#[derive(Debug, Clone)]
pub enum StackInput {
    /// A downcall from the application.
    FromApp(Down),
    /// A wire message from the network substrate.
    FromNet {
        /// Transport-level sender.
        from: EndpointAddr,
        /// Whether the transport delivered this as a multicast (`true`) or a
        /// point-to-point send (`false`).
        cast: bool,
        /// The encoded message.
        wire: WireFrame,
    },
    /// A timer set by layer `layer` with the given token has expired.
    Timer { layer: usize, token: u64, now: SimTime },
    /// The virtual clock advanced (executors call this before handing in
    /// other inputs; carries no work by itself).
    Tick { now: SimTime },
}

/// Effects a stack asks its executor to perform.
///
/// The stack runtime is a pure state machine: inputs go in, effects come
/// out, and the executor (simulated or threaded) performs them.  This is
/// what makes protocol runs deterministic and replayable.
#[derive(Debug, Clone)]
pub enum Effect {
    /// Deliver an upcall to the application.
    Deliver(Up),
    /// Multicast `wire` to the group (transport-level membership).
    NetCast { wire: WireFrame },
    /// Send `wire` to the listed endpoints.
    NetSend { dests: Vec<EndpointAddr>, wire: WireFrame },
    /// Register this endpoint as a transport-level receiver of the group.
    NetJoin { group: GroupAddr },
    /// Deregister from the transport-level group.
    NetLeave,
    /// Arm a timer for `layer` with `token`, firing after `delay`.
    SetTimer { layer: usize, token: u64, delay: Duration },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    #[test]
    fn stability_matrix_monotone_and_stable() {
        let mut m = StabilityMatrix::new(vec![ep(1), ep(2), ep(3)]);
        m.record(ep(1), ep(1), 5);
        m.record(ep(2), ep(1), 5);
        assert!(!m.is_stable(ep(1), 5)); // ep(3) has not processed it
        m.record(ep(3), ep(1), 7);
        assert!(m.is_stable(ep(1), 5));
        assert_eq!(m.stable_horizon(ep(1)), 5);
        // Monotone: going backwards is ignored.
        m.record(ep(2), ep(1), 1);
        assert_eq!(m.acked(ep(2), ep(1)), 5);
    }

    #[test]
    fn stability_matrix_unknown_members() {
        let m = StabilityMatrix::new(vec![ep(1)]);
        assert_eq!(m.acked(ep(9), ep(1)), 0);
        assert!(!m.is_stable(ep(9), 0));
        assert_eq!(m.stable_horizon(ep(9)), 0);
    }

    #[test]
    fn upcall_kinds_cover_table_2() {
        // The paper's Table 2 lists 14 upcall types; DumpInfo implements the
        // focus/dump reporting channel on top of them.
        let kinds = [
            "MERGE_REQUEST",
            "MERGE_DENIED",
            "FLUSH",
            "FLUSH_OK",
            "VIEW",
            "CAST",
            "SEND",
            "LEAVE",
            "DESTROY",
            "LOST_MESSAGE",
            "STABLE",
            "PROBLEM",
            "SYSTEM_ERROR",
            "EXIT",
        ];
        assert_eq!(kinds.len(), 14);
    }

    #[test]
    fn msg_id_display() {
        let id = MsgId { origin: ep(3), seq: 9 };
        assert_eq!(id.to_string(), "ep:3#9");
    }
}
