//! Who receives a group's casts: the one membership relation both networks
//! keep, changed only by join and leave.

use horus_core::addr::{EndpointAddr, GroupAddr};
use horus_core::digest::StateDigest;
use std::collections::BTreeMap;

/// Transport-level group membership.
#[derive(Debug, Clone)]
pub(crate) struct Topology {
    /// Who receives casts to a group, in join order.
    groups: BTreeMap<GroupAddr, Vec<EndpointAddr>>,
    /// Which group an endpoint joined (one per endpoint in this model).
    member_of: BTreeMap<EndpointAddr, GroupAddr>,
    /// The digest of `groups`, redone by every join and leave: a
    /// fingerprint reads it far more often than membership changes.
    digest: u64,
}

impl Default for Topology {
    fn default() -> Self {
        let mut topo = Topology { groups: BTreeMap::new(), member_of: BTreeMap::new(), digest: 0 };
        topo.redigest();
        topo
    }
}

impl Topology {
    fn redigest(&mut self) {
        let mut m = StateDigest::new();
        for (g, members) in &self.groups {
            m.write_u64(g.raw());
            for ep in members {
                m.write_u64(ep.raw());
            }
            m.write_bytes(&[0xfd]);
        }
        self.digest = m.finish();
    }

    /// The digest of the group membership.
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }

    /// Whether `ep` has joined a group.
    pub(crate) fn is_member(&self, ep: EndpointAddr) -> bool {
        self.member_of.contains_key(&ep)
    }

    /// Adds `ep` to `group`.
    pub(crate) fn join(&mut self, group: GroupAddr, ep: EndpointAddr) {
        let members = self.groups.entry(group).or_default();
        if !members.contains(&ep) {
            members.push(ep);
        }
        self.member_of.insert(ep, group);
        self.redigest();
    }

    /// Removes `ep` from its group, if it joined one.
    pub(crate) fn leave(&mut self, ep: EndpointAddr) {
        if let Some(group) = self.member_of.remove(&ep) {
            if let Some(members) = self.groups.get_mut(&group) {
                members.retain(|&m| m != ep);
            }
            self.redigest();
        }
    }

    /// The members of `group`, in join order.
    pub(crate) fn members(&self, group: GroupAddr) -> &[EndpointAddr] {
        self.groups.get(&group).map_or(&[], Vec::as_slice)
    }

    /// Who receives `ep`'s casts: the members of its group, `ep` included.
    pub(crate) fn receivers(&self, ep: EndpointAddr) -> &[EndpointAddr] {
        self.member_of.get(&ep).map_or(&[], |&g| self.members(g))
    }
}
