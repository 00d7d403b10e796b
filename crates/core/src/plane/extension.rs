//! Range extension (paper Section V-B, Tables I/II).
//!
//! When an edge server approaches overload, its switch asks the controller
//! to extend the switch's management range: the controller picks the
//! server with the most remaining capacity among the *physical neighbor
//! switches'* servers, installs an address-rewrite entry at the overloaded
//! server's switch, and subsequent placements for that server land on the
//! takeover server. Retrievals are duplicated to both until the extension
//! is retracted (when the load drains, the extended data is pulled back
//! and the entries removed).

use crate::error::GredError;
use crate::network::GredNetwork;
use gred_dataplane::ExtensionEntry;
use gred_net::ServerId;

impl GredNetwork {
    /// Extends the management range of `overloaded`: future placements
    /// that `H(d) mod s` maps to it are redirected to the returned
    /// takeover server on a physically neighboring switch.
    ///
    /// # Errors
    ///
    /// - [`GredError::UnknownServer`] if the server does not exist,
    /// - [`GredError::AlreadyExtended`] if an extension is active,
    /// - [`GredError::NoExtensionCandidate`] if no neighbor switch has a
    ///   server with remaining capacity.
    pub fn extend_range(&mut self, overloaded: ServerId) -> Result<ServerId, GredError> {
        if !self.server_exists(overloaded) {
            return Err(GredError::UnknownServer { server: overloaded });
        }
        if self.extension_of(overloaded).is_some() {
            return Err(GredError::AlreadyExtended { server: overloaded });
        }

        // Candidates: every server on a physically neighboring switch.
        let candidates: Vec<ServerId> = self
            .topology()
            .neighbors(overloaded.switch)
            .flat_map(|s| {
                (0..self.pool().servers_at(s)).map(move |index| ServerId { switch: s, index })
            })
            .collect();
        let loads = |id: ServerId| self.server_load(id);
        let takeover = self
            .pool()
            .most_remaining(candidates.into_iter(), &loads)
            .filter(|&t| self.server_load(t) < self.server_capacity(t))
            .ok_or(GredError::NoExtensionCandidate { server: overloaded })?;

        self.dataplanes_mut()[overloaded.switch].install_extension(ExtensionEntry {
            original: overloaded,
            takeover,
        });
        Ok(takeover)
    }

    /// Retracts the extension of `original`: items the takeover held on
    /// its behalf are pulled back (the paper's "the edge server will first
    /// retrieve the data … then the extended forwarding entries will also
    /// be deleted").
    ///
    /// # Errors
    ///
    /// [`GredError::UnknownServer`] when no extension is active for
    /// `original`.
    pub fn retract_range(&mut self, original: ServerId) -> Result<(), GredError> {
        let Some(takeover) = self.extension_of(original) else {
            return Err(GredError::UnknownServer { server: original });
        };
        self.dataplanes_mut()[original.switch].remove_extension(original);
        // With the entry gone, only the items that belonged to `original`
        // have a home elsewhere (the takeover server also has its own
        // primary load, and may stand in for another server too).
        for (id, payload) in self.store_mut().drain_server(takeover) {
            let home = self.home_of(&id, takeover).unwrap_or(takeover);
            self.store_mut().insert(home, id, payload);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GredConfig;
    use bytes::Bytes;
    use gred_hash::DataId;
    use gred_net::{ServerPool, Topology};

    fn net() -> GredNetwork {
        let topo = Topology::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let pool = ServerPool::uniform(4, 2, 1000);
        GredNetwork::build(topo, pool, GredConfig::with_iterations(5)).unwrap()
    }

    #[test]
    fn extension_targets_a_physical_neighbor() {
        let mut n = net();
        let server = ServerId {
            switch: 0,
            index: 0,
        };
        let takeover = n.extend_range(server).unwrap();
        assert!(n.topology().has_link(0, takeover.switch));
        assert_eq!(n.extension_of(server), Some(takeover));
    }

    #[test]
    fn double_extension_rejected() {
        let mut n = net();
        let server = ServerId {
            switch: 0,
            index: 0,
        };
        n.extend_range(server).unwrap();
        assert_eq!(
            n.extend_range(server).unwrap_err(),
            GredError::AlreadyExtended { server }
        );
    }

    #[test]
    fn unknown_server_rejected() {
        let mut n = net();
        let bogus = ServerId {
            switch: 0,
            index: 99,
        };
        assert_eq!(
            n.extend_range(bogus).unwrap_err(),
            GredError::UnknownServer { server: bogus }
        );
    }

    #[test]
    fn takeover_is_least_loaded_candidate() {
        let mut n = net();
        // Pre-load every server of switch 1 heavily, leave switch 3 light;
        // extension of a switch-0 server must pick a switch-3 server
        // (switches 1 and 3 are switch 0's physical neighbors).
        for i in 0..20 {
            let id = DataId::new(format!("preload{i}"));
            n.store_mut().insert(
                ServerId {
                    switch: 1,
                    index: 0,
                },
                id.clone(),
                Bytes::new(),
            );
            n.store_mut().insert(
                ServerId {
                    switch: 1,
                    index: 1,
                },
                id,
                Bytes::new(),
            );
        }
        let takeover = n
            .extend_range(ServerId {
                switch: 0,
                index: 0,
            })
            .unwrap();
        assert_eq!(takeover.switch, 3);
    }

    #[test]
    fn placements_redirect_then_retract_pulls_back() {
        let mut n = net();
        // Find an id owned by some server, extend that server, place, and
        // verify the write landed on the takeover.
        let id = DataId::new("redirected-item");
        let owner = n.responsible_server(&id);
        let takeover = n.extend_range(owner).unwrap();

        let receipt = n.place(&id, b"v".as_ref(), 0).unwrap();
        assert!(receipt.extended);
        assert_eq!(receipt.server, takeover);
        assert_eq!(receipt.primary, owner);
        assert!(n.store().get(takeover, &id).is_some());

        // Retrieval still finds it (duplicated query).
        let got = n.retrieve(&id, 2).unwrap();
        assert_eq!(got.server, takeover);

        // Retraction moves it home and removes the entries.
        n.retract_range(owner).unwrap();
        assert!(n.active_extensions().is_empty());
        assert!(n.store().get(owner, &id).is_some());
        assert!(n.store().get(takeover, &id).is_none());
        let got = n.retrieve(&id, 2).unwrap();
        assert_eq!(got.server, owner);
        assert_eq!(got.queried.len(), 1);
    }

    #[test]
    fn retract_preserves_takeovers_own_items() {
        let mut n = net();
        let id = DataId::new("takeover-native");
        let owner = n.responsible_server(&id);
        assert_eq!(n.place(&id, b"native".as_ref(), 0).unwrap().server, owner);
        // Extend and retract a server on a neighbor switch, whose takeover
        // may be `owner`: the item `owner` holds for itself stays put.
        let victim = ServerId {
            switch: n.topology().neighbors(owner.switch).next().unwrap(),
            index: 0,
        };
        n.extend_range(victim).unwrap();
        n.retract_range(victim).unwrap();
        let kept = n.store().get(owner, &id).map(|p| p.as_ref());
        assert_eq!(kept, Some(b"native".as_ref()));
    }

    #[test]
    fn no_candidate_when_all_neighbor_servers_full() {
        // Triangle topology; switch 0 has one roomy server, switches 1 and
        // 2 carry only capacity-0 servers, so an extension of switch 0's
        // server finds every candidate already at capacity.
        let topo = Topology::from_links(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let pool = ServerPool::from_capacities(vec![vec![10], vec![0], vec![0]]);
        let mut n = GredNetwork::build(
            topo,
            pool,
            GredConfig {
                auto_extend: false,
                ..GredConfig::with_iterations(5)
            },
        )
        .unwrap();
        let server = ServerId {
            switch: 0,
            index: 0,
        };
        assert_eq!(
            n.extend_range(server).unwrap_err(),
            GredError::NoExtensionCandidate { server }
        );
    }

    #[test]
    fn extend_again_after_retraction() {
        let mut n = net();
        let server = ServerId {
            switch: 0,
            index: 0,
        };
        let first = n.extend_range(server).unwrap();
        n.retract_range(server).unwrap();
        // The slate is clean: a fresh extension succeeds (same candidate
        // set, so the same takeover wins again) and is tracked.
        let second = n.extend_range(server).unwrap();
        assert_eq!(first, second);
        assert_eq!(n.extension_of(server), Some(second));
        n.retract_range(server).unwrap();
        assert_eq!(n.extension_of(server), None);
    }

    #[test]
    fn retract_without_extension_errors() {
        let mut n = net();
        let s = ServerId {
            switch: 0,
            index: 0,
        };
        assert_eq!(
            n.retract_range(s).unwrap_err(),
            GredError::UnknownServer { server: s }
        );
    }
}
