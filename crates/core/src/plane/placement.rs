//! Data placement (paper Section V-A/B).
//!
//! `H(d)` names a point in the virtual space; greedy forwarding delivers
//! the item to the switch closest to that point; `H(d) mod s` picks the
//! server behind the switch; an active range extension redirects the write
//! to the takeover server; capacity pressure (with `auto_extend`) triggers
//! a new extension.

use crate::error::GredError;
use crate::network::GredNetwork;
use crate::plane::forwarding::{route, Route};
use bytes::Bytes;
use gred_hash::DataId;
use gred_net::ServerId;

/// Where a placement ended up.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementReceipt {
    /// The server that physically stored the item.
    pub server: ServerId,
    /// The server `H(d) mod s` named (differs from `server` when a range
    /// extension redirected the write).
    pub primary: ServerId,
    /// The request's trajectory.
    pub route: Route,
    /// Whether a range extension redirected this write.
    pub extended: bool,
}

impl GredNetwork {
    /// Places `payload` under `id`, entering the network at
    /// `access_switch`.
    ///
    /// # Errors
    ///
    /// - Routing errors ([`GredError::UnknownSwitch`], transit access),
    /// - [`GredError::CapacityExceeded`] when the responsible server (and
    ///   its extension target, if any) is full and `auto_extend` cannot
    ///   help.
    pub fn place(
        &mut self,
        id: &DataId,
        payload: impl Into<Bytes>,
        access_switch: usize,
    ) -> Result<PlacementReceipt, GredError> {
        let position = self.position_of_id(id);
        let r = route(self.dataplanes(), access_switch, position, id)?;
        let primary = r.server;
        let mut target = r.delivery().write_target();

        // Capacity management. Capacities are soft in the paper (they
        // drive extension, not failure); a placement only fails when
        // neither the target nor a fresh extension has room.
        if self.server_load(target) >= self.server_capacity(target) {
            if self.config().auto_extend && r.extended_to.is_none() {
                let takeover = self.extend_range(primary)?;
                target = takeover;
            }
            if self.server_load(target) >= self.server_capacity(target) {
                return Err(GredError::CapacityExceeded { server: target });
            }
        }

        // A redirected write supersedes any copy the primary stored before
        // its range was extended; drop it so a duplicated retrieval (which
        // asks the primary first) cannot answer with the stale payload.
        if target != primary {
            self.store_mut().remove(primary, id);
        }
        self.store_mut().insert(target, id.clone(), payload.into());
        Ok(PlacementReceipt {
            server: target,
            primary,
            extended: target != primary,
            route: r,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GredConfig;
    use gred_net::{ServerPool, Topology};

    fn small_net(capacity: u64, auto_extend: bool) -> GredNetwork {
        let topo = Topology::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let pool = ServerPool::uniform(4, 2, capacity);
        let config = GredConfig {
            auto_extend,
            ..GredConfig::with_iterations(5)
        };
        GredNetwork::build(topo, pool, config).unwrap()
    }

    #[test]
    fn placement_stores_payload() {
        let mut net = small_net(100, true);
        let id = DataId::new("item");
        let receipt = net.place(&id, b"hello".as_ref(), 0).unwrap();
        assert!(!receipt.extended);
        assert_eq!(receipt.server, receipt.primary);
        assert_eq!(
            net.store().get(receipt.server, &id).unwrap().as_ref(),
            b"hello"
        );
        assert_eq!(net.store().total_items(), 1);
    }

    #[test]
    fn placement_is_access_independent() {
        let mut a = small_net(1000, true);
        let mut b = small_net(1000, true);
        for i in 0..50 {
            let id = DataId::new(format!("k{i}"));
            let ra = a.place(&id, Bytes::new(), 0).unwrap();
            let rb = b.place(&id, Bytes::new(), i % 4).unwrap();
            assert_eq!(
                ra.server, rb.server,
                "key {i}: owner must not depend on access point"
            );
        }
    }

    #[test]
    fn full_server_triggers_auto_extension() {
        let mut net = small_net(1, true);
        // Fill servers until some placement must extend.
        let mut extended = 0;
        for i in 0..16 {
            match net.place(&DataId::new(format!("fill{i}")), Bytes::new(), 0) {
                Ok(r) if r.extended => extended += 1,
                Ok(_) => {}
                Err(GredError::CapacityExceeded { .. })
                | Err(GredError::NoExtensionCandidate { .. })
                | Err(GredError::AlreadyExtended { .. }) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(extended > 0, "capacity-1 servers must trigger extensions");
    }

    #[test]
    fn capacity_error_without_auto_extend() {
        let mut net = small_net(1, false);
        let mut saw_full = false;
        for i in 0..32 {
            match net.place(&DataId::new(format!("x{i}")), Bytes::new(), 0) {
                Ok(_) => {}
                Err(GredError::CapacityExceeded { .. }) => {
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(saw_full, "without auto_extend a full server must reject");
    }

    #[test]
    fn replace_under_extension_removes_stale_primary_copy() {
        let mut net = small_net(1000, false);
        let id = DataId::new("rewritten");
        let first = net.place(&id, b"old".as_ref(), 0).unwrap();
        assert_eq!(first.server, first.primary);

        // Extend the owner's range, then overwrite the item: the write is
        // redirected to the takeover and the old primary copy must go,
        // otherwise the duplicated retrieval would answer with "old".
        let takeover = net.extend_range(first.primary).unwrap();
        let second = net.place(&id, b"new".as_ref(), 0).unwrap();
        assert_eq!(second.server, takeover);
        assert!(net.store().get(first.primary, &id).is_none());
        assert_eq!(net.retrieve(&id, 0).unwrap().payload.as_ref(), b"new");
        assert_eq!(net.store().total_items(), 1);
    }

    #[test]
    fn route_ends_at_owner_switch() {
        let mut net = small_net(1000, true);
        let id = DataId::new("check-route");
        let receipt = net.place(&id, Bytes::new(), 2).unwrap();
        assert_eq!(receipt.route.dest, receipt.primary.switch);
        assert_eq!(*receipt.route.switches.first().unwrap(), 2);
        assert_eq!(*receipt.route.switches.last().unwrap(), receipt.route.dest);
    }
}
