//! The reference oracle: a deliberately simple model of where GRED must
//! keep every datum.
//!
//! The oracle never routes. It keeps the member set, each member's snapped
//! virtual position and server count, the active extensions, and one
//! `(payload, location)` record per stored id. The owner of an id is found
//! by brute force — quantize all positions onto the production code's
//! 2⁻³⁰ lattice and scan for the exactly-nearest member — so agreement
//! with the real network is a theorem check, not a float coincidence.
//!
//! A *crash* loses the victim's data: [`Oracle::crash_drain`] followed by
//! [`Oracle::leave`]. The controller validates the removal before it
//! drains anything, so a refused crash changes nothing and has no
//! counterpart here.

use bytes::Bytes;
use gred_geometry::Point2;
use gred_hash::DataId;
use gred_net::ServerId;
use std::collections::{BTreeMap, BTreeSet};

/// Same lattice resolution as `gred_geometry::delaunay`.
const QUANT_SCALE: f64 = (1u64 << 30) as f64;

/// Cap on remembered deletions; oldest (smallest) ids are forgotten first.
const MAX_TOMBSTONES: usize = 64;

fn quantize(p: Point2) -> (i64, i64) {
    (
        (p.x * QUANT_SCALE).round() as i64,
        (p.y * QUANT_SCALE).round() as i64,
    )
}

fn idist2(a: (i64, i64), b: (i64, i64)) -> i128 {
    let dx = (a.0 - b.0) as i128;
    let dy = (a.1 - b.1) as i128;
    dx * dx + dy * dy
}

/// A member switch as the oracle sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Member {
    /// Lattice-snapped virtual position.
    pub position: Point2,
    /// Number of edge servers behind the switch.
    pub servers: usize,
}

/// One stored datum.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// The payload the network must return.
    pub payload: Bytes,
    /// The server the network must be storing it on.
    pub loc: ServerId,
}

/// In-memory reference model of a GRED deployment.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    members: BTreeMap<usize, Member>,
    items: BTreeMap<DataId, Item>,
    extensions: BTreeMap<ServerId, ServerId>,
    tombstones: BTreeSet<DataId>,
}

impl Oracle {
    /// Builds an oracle mirroring `net`'s current membership, positions,
    /// and extensions. The store mirror starts empty — initialize before
    /// placing data.
    pub fn from_network(net: &gred::GredNetwork) -> Oracle {
        let mut members = BTreeMap::new();
        for &m in net.members() {
            members.insert(
                m,
                Member {
                    position: net.position_of_switch(m).expect("member has a position"),
                    servers: net.pool().servers_at(m),
                },
            );
        }
        Oracle {
            members,
            items: BTreeMap::new(),
            extensions: net.active_extensions().into_iter().collect(),
            tombstones: BTreeSet::new(),
        }
    }

    /// Member switch ids, ascending.
    pub fn member_ids(&self) -> Vec<usize> {
        self.members.keys().copied().collect()
    }

    /// The member record for `switch`.
    pub fn member(&self, switch: usize) -> Option<&Member> {
        self.members.get(&switch)
    }

    /// Active extensions as sorted `(original, takeover)` pairs.
    pub fn extensions(&self) -> Vec<(ServerId, ServerId)> {
        self.extensions.iter().map(|(&o, &t)| (o, t)).collect()
    }

    /// The takeover extending `original`, if any.
    pub fn extension_of(&self, original: ServerId) -> Option<ServerId> {
        self.extensions.get(&original).copied()
    }

    /// Stored items in id order.
    pub fn items(&self) -> impl Iterator<Item = (&DataId, &Item)> {
        self.items.iter()
    }

    /// Number of stored items.
    pub fn item_count(&self) -> usize {
        self.items.len()
    }

    /// Remembered deletions (data lost to crashes) in id order.
    pub fn tombstones(&self) -> impl Iterator<Item = &DataId> {
        self.tombstones.iter()
    }

    /// The server `H(d) mod s` names on the member switch exactly nearest
    /// `H(d)` — brute force, same lattice and tie-break as the production
    /// triangulation (`nearest` scans in member index order, which is
    /// ascending switch id, breaking distance ties by lexicographically
    /// smaller quantized position).
    ///
    /// # Panics
    ///
    /// Panics when the oracle has no members.
    pub fn owner(&self, id: &DataId) -> ServerId {
        let (x, y) = gred_hash::virtual_position(id);
        let target = quantize(Point2::new(x, y));
        let mut best: Option<(usize, (i64, i64), i128)> = None;
        for (&m, member) in &self.members {
            let q = quantize(member.position);
            let d = idist2(q, target);
            let better = match best {
                None => true,
                Some((_, bq, bd)) => d < bd || (d == bd && q < bq),
            };
            if better {
                best = Some((m, q, d));
            }
        }
        let (switch, _, _) = best.expect("oracle has at least one member");
        let servers = self.members[&switch].servers;
        ServerId {
            switch,
            index: gred_hash::select_server(id, servers),
        }
    }

    /// Where a placement of `id` must land right now: the owner, or its
    /// takeover while the owner's range is extended.
    pub fn placement_target(&self, id: &DataId) -> ServerId {
        let owner = self.owner(id);
        self.extension_of(owner).unwrap_or(owner)
    }

    /// Mirrors a successful placement.
    pub fn place(&mut self, id: DataId, payload: impl Into<Bytes>) {
        let loc = self.placement_target(&id);
        self.tombstones.remove(&id);
        self.items.insert(
            id,
            Item {
                payload: payload.into(),
                loc,
            },
        );
    }

    /// Mirrors a successful range extension.
    pub fn extend(&mut self, original: ServerId, takeover: ServerId) {
        let prev = self.extensions.insert(original, takeover);
        debug_assert!(prev.is_none(), "extend over an active extension");
    }

    /// Mirrors a successful retraction: items the takeover held on the
    /// original's behalf come home.
    pub fn retract(&mut self, original: ServerId) {
        let Some(takeover) = self.extensions.remove(&original) else {
            return;
        };
        let homecoming: Vec<DataId> = self
            .items
            .iter()
            .filter(|(id, item)| item.loc == takeover && self.owner(id) == original)
            .map(|(id, _)| id.clone())
            .collect();
        for id in homecoming {
            self.items.get_mut(&id).expect("item exists").loc = original;
        }
    }

    /// Mirrors a successful switch join (after which data whose owner
    /// changed migrates).
    pub fn join(&mut self, switch: usize, position: Point2, servers: usize) {
        self.members.insert(switch, Member { position, servers });
        self.migrate();
    }

    /// Mirrors the data loss of a crash: everything stored on `switch`
    /// becomes a tombstone. Called *before* [`Oracle::leave`].
    pub fn crash_drain(&mut self, switch: usize) {
        let lost: Vec<DataId> = self
            .items
            .iter()
            .filter(|(_, item)| item.loc.switch == switch)
            .map(|(id, _)| id.clone())
            .collect();
        for id in lost {
            self.items.remove(&id);
            self.tombstones.insert(id);
        }
        while self.tombstones.len() > MAX_TOMBSTONES {
            let oldest = self.tombstones.iter().next().cloned().expect("nonempty");
            self.tombstones.remove(&oldest);
        }
    }

    /// Mirrors a successful graceful removal of `switch`, in the same
    /// order as the real controller: retract extensions touching the
    /// switch (old membership), orphan its items, drop the member, re-home
    /// orphans under the new membership, then migrate everything whose
    /// owner changed.
    pub fn leave(&mut self, switch: usize) {
        let touching: Vec<ServerId> = self
            .extensions
            .iter()
            .filter(|(o, t)| o.switch == switch || t.switch == switch)
            .map(|(&o, _)| o)
            .collect();
        for original in touching {
            self.retract(original);
        }

        let orphans: Vec<DataId> = self
            .items
            .iter()
            .filter(|(_, item)| item.loc.switch == switch)
            .map(|(id, _)| id.clone())
            .collect();

        self.members.remove(&switch);

        for id in orphans {
            let target = self.placement_target(&id);
            self.items.get_mut(&id).expect("item exists").loc = target;
        }
        self.migrate();
    }

    /// Moves every item whose location is neither its owner nor its
    /// owner's current target — the mirror of the controller's
    /// post-dynamics migration pass.
    fn migrate(&mut self) {
        let moves: Vec<(DataId, ServerId)> = self
            .items
            .iter()
            .filter_map(|(id, item)| {
                let owner = self.owner(id);
                let target = self.extension_of(owner).unwrap_or(owner);
                (item.loc != target && item.loc != owner).then(|| (id.clone(), target))
            })
            .collect();
        for (id, target) in moves {
            self.items.get_mut(&id).expect("item exists").loc = target;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gred::{GredConfig, GredNetwork};
    use gred_net::{waxman_topology, ServerPool, WaxmanConfig};

    fn net(switches: usize, seed: u64) -> GredNetwork {
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, seed));
        let pool = ServerPool::uniform(switches, 2, 100_000);
        let config = GredConfig {
            auto_extend: false,
            ..GredConfig::with_iterations(2).seeded(seed)
        };
        GredNetwork::build(topo, pool, config).unwrap()
    }

    #[test]
    fn owner_matches_network_responsible_server() {
        for seed in [1u64, 2, 3] {
            let n = net(14, seed);
            let oracle = Oracle::from_network(&n);
            for i in 0..200 {
                let id = DataId::new(format!("agree/{seed}/{i}"));
                assert_eq!(
                    oracle.owner(&id),
                    n.responsible_server(&id),
                    "seed {seed} id {i}: oracle and network disagree on the owner"
                );
            }
        }
    }

    #[test]
    fn place_and_retract_round_trip() {
        let mut n = net(10, 5);
        let mut oracle = Oracle::from_network(&n);
        let id = DataId::new("round-trip");
        let owner = n.responsible_server(&id);

        let takeover = n.extend_range(owner).unwrap();
        oracle.extend(owner, takeover);
        let receipt = n.place(&id, b"v".as_ref(), 0).unwrap();
        oracle.place(id.clone(), b"v".as_ref());
        assert_eq!(oracle.items().next().unwrap().1.loc, receipt.server);

        n.retract_range(owner).unwrap();
        oracle.retract(owner);
        assert_eq!(oracle.items().next().unwrap().1.loc, owner);
        assert_eq!(n.retrieve(&id, 0).unwrap().server, owner);
        assert!(oracle.extensions().is_empty());
    }

    #[test]
    fn crash_drain_tombstones_only_the_victim() {
        let mut n = net(10, 6);
        let mut oracle = Oracle::from_network(&n);
        for i in 0..40 {
            let id = DataId::new(format!("c/{i}"));
            let payload = format!("p/{i}");
            n.place(&id, payload.clone(), 0).unwrap();
            oracle.place(id, payload);
        }
        let victim = oracle.items().next().unwrap().1.loc.switch;
        let at_victim = oracle
            .items()
            .filter(|(_, it)| it.loc.switch == victim)
            .count();
        assert!(at_victim > 0);
        let before = oracle.item_count();
        oracle.crash_drain(victim);
        assert_eq!(oracle.item_count(), before - at_victim);
        assert_eq!(oracle.tombstones().count(), at_victim);
    }

    #[test]
    fn tombstones_are_bounded() {
        let mut oracle = Oracle::default();
        oracle.members.insert(
            0,
            Member {
                position: Point2::new(0.0, 0.0),
                servers: 1,
            },
        );
        for i in 0..200 {
            oracle.place(DataId::new(format!("t/{i}")), Bytes::new());
        }
        oracle.crash_drain(0);
        assert!(oracle.tombstones().count() <= MAX_TOMBSTONES);
        assert_eq!(oracle.item_count(), 0);
    }
}
