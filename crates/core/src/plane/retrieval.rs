//! Data retrieval (paper Section V-C).
//!
//! Retrieval routes exactly like placement — greedy to the switch closest
//! to `H(d)` — then asks the server `H(d) mod s` names. When that server's
//! range has been extended the request is duplicated to the takeover
//! server as well ("the retrieval request is forwarded to the two edge
//! servers at the same time"), and whichever stores the item responds.

use crate::error::GredError;
use crate::network::GredNetwork;
use crate::plane::forwarding::{route, Route};
use bytes::Bytes;
use gred_hash::DataId;
use gred_net::ServerId;

/// The outcome of a retrieval.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalResult {
    /// The stored payload.
    pub payload: Bytes,
    /// The server that responded.
    pub server: ServerId,
    /// Every server the request was delivered to (two when a range
    /// extension forced duplication).
    pub queried: Vec<ServerId>,
    /// The request's trajectory to the owner switch.
    pub route: Route,
    /// Physical hops of the response back to the access switch (shortest
    /// path from the responder's switch).
    pub response_hops: u32,
}

impl RetrievalResult {
    /// Total physical hops: request plus response.
    pub fn total_hops(&self) -> u32 {
        self.route.physical_hops() + self.response_hops
    }
}

impl GredNetwork {
    /// Retrieves the item stored under `id`, entering at `access_switch`.
    ///
    /// # Errors
    ///
    /// Routing errors, or [`GredError::NotFound`] when no responsible
    /// server stores the item.
    pub fn retrieve(
        &self,
        id: &DataId,
        access_switch: usize,
    ) -> Result<RetrievalResult, GredError> {
        let position = self.position_of_id(id);
        let r = route(self.dataplanes(), access_switch, position, id)?;

        let queried: Vec<ServerId> = r.delivery().read_order().collect();
        let responder = queried
            .iter()
            .copied()
            .find(|&s| self.store().get(s, id).is_some())
            .ok_or(GredError::NotFound)?;
        let payload = self
            .store()
            .get(responder, id)
            .expect("responder just matched")
            .clone();
        let response_hops = self
            .topology()
            .shortest_path(responder.switch, access_switch)
            .ok_or(GredError::Disconnected)?
            .len() as u32
            - 1;
        Ok(RetrievalResult {
            payload,
            server: responder,
            queried,
            route: r,
            response_hops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GredConfig;
    use gred_net::{ServerPool, Topology};

    fn net() -> GredNetwork {
        let topo =
            Topology::from_links(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]).unwrap();
        let pool = ServerPool::uniform(5, 2, 1000);
        GredNetwork::build(topo, pool, GredConfig::with_iterations(5)).unwrap()
    }

    #[test]
    fn round_trip_place_then_retrieve() {
        let mut n = net();
        for i in 0..40 {
            let id = DataId::new(format!("rt{i}"));
            let put = n
                .place(&id, format!("payload-{i}").into_bytes(), i % 5)
                .unwrap();
            for access in 0..5 {
                let got = n.retrieve(&id, access).unwrap();
                assert_eq!(got.payload.as_ref(), format!("payload-{i}").as_bytes());
                assert_eq!(got.server, put.server);
                assert_eq!(got.queried, vec![put.primary]);
            }
        }
    }

    #[test]
    fn missing_item_not_found() {
        let n = net();
        assert_eq!(
            n.retrieve(&DataId::new("never-stored"), 0).unwrap_err(),
            GredError::NotFound
        );
    }

    #[test]
    fn response_hops_zero_when_local() {
        let mut n = net();
        let id = DataId::new("local");
        let put = n.place(&id, Bytes::new(), 0).unwrap();
        // Retrieve from the owner switch itself.
        let got = n.retrieve(&id, put.server.switch).unwrap();
        assert_eq!(got.response_hops, 0);
        assert_eq!(got.total_hops(), got.route.physical_hops());
    }

    #[test]
    fn retrieval_after_extension_queries_both() {
        let mut n = net();
        let id = DataId::new("ext-item");
        let put = n.place(&id, b"v".as_ref(), 0).unwrap();
        // Force an extension of the item's primary server, then move the
        // item to the takeover as the paper's migration would.
        let takeover = n.extend_range(put.primary).unwrap();
        let payload = n.store_mut().remove(put.primary, &id).unwrap();
        n.store_mut().insert(takeover, id.clone(), payload);

        let got = n.retrieve(&id, 1).unwrap();
        assert_eq!(got.queried.len(), 2, "extension duplicates the query");
        assert_eq!(got.server, takeover);
        assert_eq!(got.payload.as_ref(), b"v");
    }
}
