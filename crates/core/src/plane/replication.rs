//! Data copies (paper Section VI).
//!
//! Replica `k` of a data item hashes `id # k`, so each copy gets an
//! independent virtual position and lands on an independent switch.
//! Because the virtual space embeds network distance, the copy whose
//! position is closest to the access switch's position is (approximately)
//! the closest copy in the network — retrieval fetches that one first and
//! falls back to farther copies on a miss.

use crate::error::GredError;
use crate::network::GredNetwork;
use crate::plane::placement::PlacementReceipt;
use crate::plane::retrieval::RetrievalResult;
use bytes::Bytes;
use gred_geometry::Point2;
use gred_hash::DataId;

/// Replica serials `0..copies` of `id` in the order a retrieval from the
/// switch at virtual position `from` should probe them: by squared
/// virtual-space distance from `from`, nearest first. The sort is stable,
/// so equidistant serials keep serial order.
pub fn nearest_first(from: Point2, id: &DataId, copies: u32) -> Vec<u32> {
    // Each serial is hashed once, not once per comparison.
    let mut by_distance: Vec<(f64, u32)> = (0..copies)
        .map(|serial| {
            let (x, y) = gred_hash::virtual_position(&id.replica(serial));
            (from.distance_squared(Point2::new(x, y)), serial)
        })
        .collect();
    by_distance.sort_by(|a, b| a.0.total_cmp(&b.0));
    by_distance.into_iter().map(|(_, serial)| serial).collect()
}

impl GredNetwork {
    /// Places `copies` replicas of `id` (serial 0 is the primary).
    ///
    /// Returns one receipt per copy.
    ///
    /// # Errors
    ///
    /// Propagates the first placement failure. Copies placed before the
    /// failure are rolled back, so on `Err` the store holds no replica of
    /// `id` from this call (range extensions created by `auto_extend`
    /// along the way are control-plane state and stay in place).
    ///
    /// # Panics
    ///
    /// Panics if `copies == 0`.
    pub fn place_replicated(
        &mut self,
        id: &DataId,
        payload: impl Into<Bytes>,
        copies: u32,
        access_switch: usize,
    ) -> Result<Vec<PlacementReceipt>, GredError> {
        assert!(copies > 0, "at least one copy is required");
        let payload: Bytes = payload.into();
        let mut receipts: Vec<(DataId, PlacementReceipt)> = Vec::with_capacity(copies as usize);
        for serial in 0..copies {
            let replica_id = id.replica(serial);
            match self.place(&replica_id, payload.clone(), access_switch) {
                Ok(r) => receipts.push((replica_id, r)),
                Err(e) => {
                    for (rid, r) in receipts {
                        self.store_mut().remove(r.server, &rid);
                    }
                    return Err(e);
                }
            }
        }
        Ok(receipts.into_iter().map(|(_, r)| r).collect())
    }

    /// Retrieves the copy of `id` nearest (in the virtual space) to the
    /// access switch, falling back to farther copies when a replica is
    /// missing (e.g. its switch left the network).
    ///
    /// # Errors
    ///
    /// [`GredError::NotFound`] when no copy is retrievable.
    ///
    /// # Panics
    ///
    /// Panics if `copies == 0`.
    pub fn retrieve_nearest(
        &self,
        id: &DataId,
        copies: u32,
        access_switch: usize,
    ) -> Result<RetrievalResult, GredError> {
        assert!(copies > 0, "at least one copy is required");
        let access_pos =
            self.position_of_switch(access_switch)
                .ok_or(GredError::UnknownSwitch {
                    switch: access_switch,
                })?;
        let mut last_err = GredError::NotFound;
        for serial in nearest_first(access_pos, id, copies) {
            match self.retrieve(&id.replica(serial), access_switch) {
                Ok(found) => return Ok(found),
                Err(GredError::NotFound) => last_err = GredError::NotFound,
                Err(other) => return Err(other),
            }
        }
        Err(last_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GredConfig;
    use gred_net::{waxman_topology, ServerPool, WaxmanConfig};

    fn net(switches: usize, seed: u64) -> GredNetwork {
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, seed));
        let pool = ServerPool::uniform(switches, 3, 100_000);
        GredNetwork::build(topo, pool, GredConfig::with_iterations(10).seeded(seed)).unwrap()
    }

    #[test]
    fn replicas_land_on_multiple_switches() {
        let mut n = net(20, 3);
        let receipts = n
            .place_replicated(&DataId::new("popular"), b"v".as_ref(), 4, 0)
            .unwrap();
        assert_eq!(receipts.len(), 4);
        let switches: std::collections::BTreeSet<usize> =
            receipts.iter().map(|r| r.server.switch).collect();
        assert!(
            switches.len() >= 2,
            "4 copies should spread beyond one switch"
        );
    }

    #[test]
    fn nearest_copy_is_retrieved() {
        let mut n = net(25, 4);
        let id = DataId::new("hot-item");
        let receipts = n.place_replicated(&id, b"data".as_ref(), 3, 0).unwrap();
        for access in 0..25 {
            let got = n.retrieve_nearest(&id, 3, access).unwrap();
            assert_eq!(got.payload.as_ref(), b"data");
            assert!(receipts.iter().any(|r| r.server == got.server));
        }
    }

    #[test]
    fn nearest_copy_reduces_average_distance() {
        let mut n = net(30, 5);
        let trials = 30;
        let mut primary_hops = 0u32;
        let mut nearest_hops = 0u32;
        for i in 0..trials {
            let id = DataId::new(format!("repl{i}"));
            n.place_replicated(&id, b"x".as_ref(), 3, 0).unwrap();
            let access = (i * 7) % 30;
            primary_hops += n.retrieve(&id.replica(0), access).unwrap().total_hops();
            nearest_hops += n.retrieve_nearest(&id, 3, access).unwrap().total_hops();
        }
        assert!(
            nearest_hops <= primary_hops,
            "nearest-copy retrieval should not exceed primary-only hops \
             (nearest {nearest_hops} vs primary {primary_hops})"
        );
    }

    #[test]
    fn fallback_when_nearest_copy_missing() {
        let mut n = net(15, 6);
        let id = DataId::new("fragile");
        let receipts = n.place_replicated(&id, b"v".as_ref(), 2, 0).unwrap();
        // Delete one copy directly from its store shelf.
        let victim = receipts[0].server;
        let victim_id = id.replica(0);
        n.store_mut().remove(victim, &victim_id);
        // Every access point can still fetch the surviving copy.
        for access in 0..15 {
            let got = n.retrieve_nearest(&id, 2, access).unwrap();
            assert_eq!(got.payload.as_ref(), b"v");
        }
    }

    #[test]
    fn failed_replication_rolls_back_earlier_copies() {
        use gred_net::Topology;

        // Tiny network, one capacity-1 server per switch, no auto-extend:
        // a second replica landing on a full server must fail cleanly.
        let topo = Topology::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let pool = ServerPool::uniform(4, 2, 1);
        let config = GredConfig {
            auto_extend: false,
            ..GredConfig::with_iterations(5)
        };
        let mut n = GredNetwork::build(topo, pool, config).unwrap();

        // Find an id whose two replicas land on different owners, then
        // fill replica 1's owner so the second placement fails.
        let mut chosen = None;
        for i in 0..64 {
            let id = DataId::new(format!("atomic{i}"));
            let o0 = n.responsible_server(&id.replica(0));
            let o1 = n.responsible_server(&id.replica(1));
            if o0 != o1 {
                chosen = Some((id, o0, o1));
                break;
            }
        }
        let (id, o0, o1) = chosen.expect("some id spreads replicas over two owners");
        n.store_debug_insert(o1, DataId::new("blocker"));

        let before = n.store().total_items();
        let err = n.place_replicated(&id, b"v".as_ref(), 2, 0).unwrap_err();
        assert_eq!(err, GredError::CapacityExceeded { server: o1 });
        // Copy 0 was stored mid-call and must have been rolled back.
        assert!(n.store().get(o0, &id.replica(0)).is_none());
        assert_eq!(n.store().total_items(), before);
    }

    #[test]
    fn all_copies_missing_is_not_found() {
        let n = net(10, 7);
        assert_eq!(
            n.retrieve_nearest(&DataId::new("ghost"), 3, 0).unwrap_err(),
            GredError::NotFound
        );
    }
}
