//! Boots one [`Node`] per switch of a built [`GredNetwork`] and tears
//! the whole thing down gracefully.
//!
//! Booting binds every listener first (loopback, ephemeral ports), so
//! the complete peer address map exists before any node starts serving —
//! no node can observe a half-wired cluster. Data already placed
//! in-process is preloaded into the owning nodes, one command per node,
//! letting a cluster take over a simulated network mid-experiment.
//!
//! Shutdown is two-phase: every node is told to drain *before* any
//! node is joined, so no node blocks waiting for a peer that has not
//! heard the news yet; then each node drains its responses, closes its
//! listener and links, and joins its reactor thread.

use crate::client::{Client, ClientConfig, ClientError};
use crate::node::{Node, NodeConfig, NodeReport};
use bytes::Bytes;
use gred::GredNetwork;
use gred_geometry::Point2;
use gred_hash::DataId;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::sync::Arc;

/// Maps the address node `from` should use to reach node `to` (whose
/// real listener is the third argument). The identity function wires
/// nodes directly; a chaos fabric substitutes per-directed-link proxy
/// addresses here. Called again when `to` restarts, so a fabric can
/// re-target its proxy.
pub type AddrRewrite = Arc<dyn Fn(usize, usize, SocketAddr) -> SocketAddr + Send + Sync>;

/// Configuration for [`Cluster::boot`].
#[derive(Debug, Clone, Default)]
pub struct ClusterConfig {
    /// Per-node tuning.
    pub node: NodeConfig,
    /// Defaults for clients created via [`Cluster::client`].
    pub client: ClientConfig,
}

/// Aggregated accounting from a graceful shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterReport {
    /// One report per node, in switch order.
    pub nodes: Vec<NodeReport>,
}

impl ClusterReport {
    /// Requests dispatched across all nodes.
    pub fn total_requests(&self) -> u64 {
        self.nodes.iter().map(|n| n.requests).sum()
    }

    /// Requests that ended in an error response.
    pub fn total_errors(&self) -> u64 {
        self.nodes.iter().map(|n| n.errors).sum()
    }

    /// Threads joined across all nodes: one reactor each.
    pub fn workers_joined(&self) -> usize {
        self.nodes.iter().map(|n| n.workers_joined).sum()
    }

    /// Items stored across all nodes at shutdown.
    pub fn stored_items(&self) -> usize {
        self.nodes.iter().map(|n| n.stored_items).sum()
    }

    /// Hot-path contention counters summed across all nodes. A healthy
    /// run keeps `link_reconnects` at zero.
    pub fn hot_stats(&self) -> gred_dataplane::NodeHotStats {
        self.nodes
            .iter()
            .map(|n| n.hot)
            .fold(gred_dataplane::NodeHotStats::default(), |acc, h| {
                acc.merged(h)
            })
    }
}

impl std::fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nodes, {} requests ({} errors), {} workers joined, {} items stored; {}",
            self.nodes.len(),
            self.total_requests(),
            self.total_errors(),
            self.workers_joined(),
            self.stored_items(),
            self.hot_stats(),
        )
    }
}

/// A running loopback cluster: one TCP node per switch. Slots of
/// crashed nodes stay `None` until [`Cluster::restart_node`] revives
/// them.
pub struct Cluster {
    nodes: Vec<Option<Node>>,
    /// Real listener addresses, by switch — updated on restart.
    addrs: Vec<SocketAddr>,
    /// Virtual-space positions, by switch — handed to clients so
    /// replicated reads can probe the nearest replica first.
    positions: Vec<Point2>,
    node_cfg: NodeConfig,
    client_cfg: ClientConfig,
    rewrite: AddrRewrite,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes)
            .field("addrs", &self.addrs)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Boots a node for every switch of `net`, wiring peer addresses and
    /// preloading each node's store with the data `net` already placed.
    ///
    /// # Errors
    ///
    /// I/O errors binding listeners or spawning node threads.
    pub fn boot(net: &GredNetwork, cfg: ClusterConfig) -> io::Result<Cluster> {
        Self::boot_with(net, cfg, Arc::new(|_, _, real| real))
    }

    /// Like [`Cluster::boot`], but routes every node-to-node link through
    /// `rewrite` — the hook a chaos fabric uses to interpose proxies on
    /// individual directed links. Clients still connect to the real
    /// listener addresses.
    ///
    /// # Errors
    ///
    /// I/O errors binding listeners or spawning node threads.
    pub fn boot_with(
        net: &GredNetwork,
        cfg: ClusterConfig,
        rewrite: AddrRewrite,
    ) -> io::Result<Cluster> {
        let count = net.topology().switch_count();
        let mut listeners = Vec::with_capacity(count);
        let mut addrs = Vec::with_capacity(count);
        for _ in 0..count {
            let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
            addrs.push(listener.local_addr()?);
            listeners.push(listener);
        }
        let mut nodes = Vec::with_capacity(count);
        for (switch, listener) in listeners.into_iter().enumerate() {
            let plane = net.dataplanes()[switch].clone();
            plane.reset_counters();
            nodes.push(Some(Node::spawn(
                switch,
                plane,
                peer_map(switch, &addrs, &rewrite),
                listener,
                cfg.node.clone(),
            )?));
        }
        let positions = net.dataplanes().iter().map(|p| p.position()).collect();
        let cluster = Cluster {
            nodes,
            addrs,
            positions,
            node_cfg: cfg.node,
            client_cfg: cfg.client,
            rewrite,
        };
        for (switch, items) in placed_items(net).into_iter().enumerate() {
            cluster.node(switch).preload_many(items);
        }
        Ok(cluster)
    }

    /// Number of node slots (= switches), including crashed ones.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no node slots.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The address switch `switch`'s node listens (or listened) on.
    pub fn addr(&self, switch: usize) -> SocketAddr {
        self.addrs[switch]
    }

    /// The running node for `switch`.
    ///
    /// # Panics
    ///
    /// If the node was crashed and not restarted.
    pub fn node(&self, switch: usize) -> &Node {
        self.nodes[switch]
            .as_ref()
            .unwrap_or_else(|| panic!("node {switch} is crashed"))
    }

    /// The node for `switch`, or `None` while it is crashed.
    pub fn try_node(&self, switch: usize) -> Option<&Node> {
        self.nodes.get(switch).and_then(Option::as_ref)
    }

    /// All live nodes with their switch ids, in switch order.
    pub fn live_nodes(&self) -> impl Iterator<Item = (usize, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(switch, slot)| slot.as_ref().map(|node| (switch, node)))
    }

    /// A client attached to switch `switch`'s node. The client knows
    /// the node's virtual position, so replicated reads probe the
    /// nearest replica first.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the node is unreachable.
    pub fn client(&self, switch: usize) -> Result<Client, ClientError> {
        self.client_multi(&[switch])
    }

    /// A client that rotates across several access nodes, so a crashed
    /// entry point costs a retry instead of the whole request. Each
    /// access node's virtual position rides along for replica steering.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when none of the access nodes is reachable.
    pub fn client_multi(&self, switches: &[usize]) -> Result<Client, ClientError> {
        let addrs = switches.iter().map(|&s| self.addr(s)).collect();
        let positions = switches.iter().map(|&s| self.positions[s]).collect();
        Client::connect_multi_positioned(addrs, positions, self.client_cfg.clone())
    }

    /// Scrapes every live node's stats snapshot purely over the wire,
    /// one fresh single-node client per node so each scrape lands on
    /// the node it names. Returns snapshots in switch order; feed them
    /// to [`ClusterHealth::aggregate`](crate::ClusterHealth::aggregate)
    /// for the cluster view.
    ///
    /// # Errors
    ///
    /// [`ClientError`] if any live node cannot be reached or returns a
    /// malformed snapshot.
    pub fn scrape(&self) -> Result<Vec<gred_dataplane::StatsSnapshot>, ClientError> {
        let mut snapshots = Vec::new();
        for (switch, _) in self.live_nodes() {
            let mut client = self.client(switch)?;
            snapshots.push(client.scrape()?);
        }
        Ok(snapshots)
    }

    /// Abruptly stops node `switch`, discarding everything it stored —
    /// the socket-level analogue of `GredNetwork::crash_switch`. Peers
    /// discover the crash through dead links and mark the switch
    /// suspect; data survives only where replicas were placed.
    ///
    /// Returns the final accounting, or `None` if the node was already
    /// down.
    pub fn crash_node(&mut self, switch: usize) -> Option<NodeReport> {
        let mut node = self.nodes[switch].take()?;
        node.request_shutdown();
        Some(node.shutdown())
    }

    /// Boots a fresh node in slot `switch` from the model's *current*
    /// dataplane and store contents, then re-introduces it to every live
    /// peer (clearing their suspicion). After a `crash_switch` on the
    /// model twin this revives the slot as a transit-only relay; after a
    /// re-join it revives it as a full member.
    ///
    /// # Errors
    ///
    /// I/O errors binding the new listener or spawning the node.
    ///
    /// # Panics
    ///
    /// If the slot is still occupied — call [`Cluster::crash_node`]
    /// first.
    pub fn restart_node(&mut self, switch: usize, net: &GredNetwork) -> io::Result<SocketAddr> {
        assert!(
            self.nodes[switch].is_none(),
            "node {switch} is still running"
        );
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        self.addrs[switch] = addr;
        self.positions[switch] = net.dataplanes()[switch].position();
        let plane = net.dataplanes()[switch].clone();
        plane.reset_counters();
        let node = Node::spawn(
            switch,
            plane,
            peer_map(switch, &self.addrs, &self.rewrite),
            listener,
            self.node_cfg.clone(),
        )?;
        node.preload_many(placed_items(net).swap_remove(switch));
        self.nodes[switch] = Some(node);
        // Tell every live peer about the new listener; register_peer
        // also clears the suspect flag, restoring the one-hop routes.
        for (other, node) in self.live_nodes() {
            if other != switch {
                node.register_peer(switch, (self.rewrite)(other, switch, addr));
            }
        }
        Ok(addr)
    }

    /// Installs the model twin's current dataplanes on every live node —
    /// the push half of a topology change (`crash_switch`, `add_switch`,
    /// `remove_switch` applied to `net` first).
    pub fn apply_planes(&self, net: &GredNetwork) {
        let planes = net.dataplanes();
        for (switch, node) in self.live_nodes() {
            let plane = planes[switch].clone();
            plane.reset_counters();
            node.install_plane(plane);
        }
    }

    /// Moves every stored item whose owner changed under the current
    /// model topology onto its new owning node, returning how many items
    /// migrated. Items owned by a crashed node are dropped (they are
    /// unreachable anyway) and counted in the second tuple slot.
    pub fn migrate_misplaced(&self, net: &GredNetwork) -> (usize, usize) {
        let mut moved = 0;
        let mut dropped = 0;
        let mut arrivals = vec![Vec::new(); self.nodes.len()];
        for (switch, node) in self.live_nodes() {
            let evicted = node.extract_items(|id| net.responsible_server(id).switch != switch);
            for (id, payload) in evicted {
                let owner = net.responsible_server(&id);
                match self.try_node(owner.switch) {
                    Some(_) => arrivals[owner.switch].push((id, owner.index, payload)),
                    None => dropped += 1,
                }
            }
        }
        for (switch, items) in arrivals.into_iter().enumerate() {
            if !items.is_empty() {
                moved += items.len();
                self.node(switch).preload_many(items);
            }
        }
        (moved, dropped)
    }

    /// Applies a join that was already performed on the model twin
    /// (`net.add_switch(..)`): boots nodes for any new switch slots,
    /// pushes the refreshed dataplanes everywhere, and migrates the keys
    /// whose owner moved to the newcomer.
    ///
    /// # Errors
    ///
    /// I/O errors booting the new nodes.
    pub fn apply_join(&mut self, net: &GredNetwork) -> io::Result<usize> {
        let count = net.topology().switch_count();
        while self.nodes.len() < count {
            let switch = self.nodes.len();
            self.nodes.push(None);
            // Placeholders until restart_node fills the real values in.
            self.addrs.push(SocketAddr::from((Ipv4Addr::LOCALHOST, 0)));
            self.positions.push(Point2::ORIGIN);
            self.restart_node(switch, net)?;
        }
        self.apply_planes(net);
        let (moved, _) = self.migrate_misplaced(net);
        Ok(moved)
    }

    /// Applies a leave that was already performed on the model twin
    /// (`net.remove_switch(..)`): pushes the demoted (transit) plane to
    /// the leaver and refreshed planes to everyone else, then migrates
    /// the leaver's keys to their new owners. The leaver keeps running
    /// as a relay, mirroring the model's transit plane.
    pub fn apply_leave(&mut self, net: &GredNetwork) -> usize {
        self.apply_planes(net);
        let (moved, _) = self.migrate_misplaced(net);
        moved
    }

    /// Gracefully stops every node and returns the final accounting.
    /// Crashed slots are absent from the report.
    pub fn shutdown(mut self) -> ClusterReport {
        self.shutdown_in_place()
    }

    fn shutdown_in_place(&mut self) -> ClusterReport {
        // Phase 1: tell everyone, so no node waits on an unaware peer.
        for (_, node) in self.live_nodes() {
            node.request_shutdown();
        }
        // Phase 2: drain and join each node.
        let nodes = self
            .nodes
            .drain(..)
            .flatten()
            .map(|mut node| node.shutdown())
            .collect();
        ClusterReport { nodes }
    }
}

/// What `net` has placed, as `(id, server index, payload)` lists indexed
/// by switch — each node's preload, handed over in one command.
fn placed_items(net: &GredNetwork) -> Vec<Vec<(DataId, usize, Bytes)>> {
    let mut items = vec![Vec::new(); net.topology().switch_count()];
    for (server, id) in net.store().all_locations() {
        if let Some(payload) = net.store().get(server, &id) {
            items[server.switch].push((id, server.index, payload.clone()));
        }
    }
    items
}

/// The peer address map node `switch` should dial, with every non-self
/// link passed through the rewrite hook.
fn peer_map(switch: usize, addrs: &[SocketAddr], rewrite: &AddrRewrite) -> Vec<SocketAddr> {
    addrs
        .iter()
        .enumerate()
        .map(|(to, &real)| {
            if to == switch {
                real
            } else {
                rewrite(switch, to, real)
            }
        })
        .collect()
}

impl Drop for Cluster {
    /// Best-effort graceful stop when the cluster is dropped without an
    /// explicit [`Cluster::shutdown`].
    fn drop(&mut self) {
        let _ = self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gred::GredConfig;
    use gred_hash::DataId;
    use gred_net::{ServerPool, Topology};

    fn ring(switches: usize) -> GredNetwork {
        let links: Vec<(usize, usize)> = (0..switches).map(|s| (s, (s + 1) % switches)).collect();
        let topo = Topology::from_links(switches, &links).unwrap();
        let pool = ServerPool::uniform(switches, 2, 10_000);
        GredNetwork::build(topo, pool, GredConfig::with_iterations(8).seeded(17)).unwrap()
    }

    #[test]
    fn boot_place_retrieve_shutdown() {
        let net = ring(5);
        let cluster = Cluster::boot(&net, ClusterConfig::default()).unwrap();
        assert_eq!(cluster.len(), 5);

        let mut client = cluster.client(0).unwrap();
        let id = DataId::new("cluster-smoke");
        let ack = client.place(&id, b"over tcp".as_ref()).unwrap();
        assert!(ack.is_hit());
        assert_eq!(
            ack.ack_server().expect("ack names a server"),
            net.responsible_server(&id),
            "the TCP path and the in-process model agree on the owner"
        );

        // Retrieve through a different access node.
        let mut other = cluster.client(3).unwrap();
        let got = other.retrieve(&id).unwrap();
        assert!(got.is_hit());
        assert_eq!(got.payload.as_ref(), b"over tcp");

        let report = cluster.shutdown();
        assert_eq!(report.total_errors(), 0);
        assert!(report.total_requests() >= 2);
        assert_eq!(report.stored_items(), 1);
    }

    #[test]
    fn preloads_data_placed_in_process() {
        let mut net = ring(4);
        let id = DataId::new("preloaded");
        let receipt = net.place(&id, b"before boot".as_ref(), 0).unwrap();

        let cluster = Cluster::boot(&net, ClusterConfig::default()).unwrap();
        assert_eq!(
            cluster.node(receipt.server.switch).stored_items(),
            1,
            "the owning node starts with the preloaded item"
        );
        let mut client = cluster.client(2).unwrap();
        let got = client.retrieve(&id).unwrap();
        assert_eq!(got.payload.as_ref(), b"before boot");
        cluster.shutdown();
    }

    #[test]
    fn crash_failover_and_restart() {
        let mut net = ring(5);
        let id = DataId::new("failover-key");
        let owner = net.responsible_server(&id);
        let mut cluster = Cluster::boot(&net, ClusterConfig::default()).unwrap();
        let access = (owner.switch + 1) % 5;
        let mut client = cluster.client(access).unwrap();
        client.place(&id, b"v".as_ref()).unwrap();

        // Kill the owner, mirror the crash on the model twin, push the
        // post-crash planes, and revive the slot as a transit relay.
        assert!(cluster.crash_node(owner.switch).is_some());
        assert!(cluster.crash_node(owner.switch).is_none(), "already down");
        net.crash_switch(owner.switch).unwrap();
        cluster.apply_planes(&net);
        cluster.restart_node(owner.switch, &net).unwrap();

        // The unreplicated key died with the node: the new owner answers
        // authoritatively with a miss, not a hang or an error.
        let got = client.retrieve(&id).unwrap();
        assert!(!got.is_hit(), "data on the crashed node is gone");

        // Fresh writes land where the post-crash model twin says.
        let id2 = DataId::new("post-crash-write");
        let ack = client.place(&id2, b"w".as_ref()).unwrap();
        assert!(ack.is_hit());
        assert_eq!(
            ack.ack_server().expect("ack names a server"),
            net.responsible_server(&id2)
        );
        cluster.shutdown();
    }

    #[test]
    fn leave_migrates_keys_to_new_owners() {
        let mut net = ring(5);
        let mut cluster = Cluster::boot(&net, ClusterConfig::default()).unwrap();
        let mut client = cluster.client(0).unwrap();
        let ids: Vec<DataId> = (0..20).map(|i| DataId::new(format!("k{i}"))).collect();
        for id in &ids {
            client.place(id, b"x".as_ref()).unwrap();
        }

        net.remove_switch(2).unwrap();
        cluster.apply_leave(&net);

        for id in &ids {
            let got = client.retrieve(id).unwrap();
            assert!(got.is_hit(), "key survives the graceful leave");
        }
        cluster.shutdown();
    }

    #[test]
    fn join_boots_new_node_and_migrates() {
        let mut net = ring(4);
        let mut cluster = Cluster::boot(&net, ClusterConfig::default()).unwrap();
        let mut client = cluster.client(0).unwrap();
        let ids: Vec<DataId> = (0..16).map(|i| DataId::new(format!("j{i}"))).collect();
        for id in &ids {
            client.place(id, b"x".as_ref()).unwrap();
        }

        let newcomer = net.add_switch(&[0, 2], vec![10_000, 10_000]).unwrap();
        cluster.apply_join(&net).unwrap();
        assert_eq!(cluster.len(), 5);
        assert!(cluster.try_node(newcomer).is_some());

        for id in &ids {
            let got = client.retrieve(id).unwrap();
            assert!(got.is_hit(), "key survives the join");
        }
        cluster.shutdown();
    }

    #[test]
    fn hot_reads_hit_the_access_node_cache_and_writes_invalidate() {
        let net = ring(5);
        let cluster = Cluster::boot(&net, ClusterConfig::default()).unwrap();
        let id = DataId::new("hot-key");
        let owner = net.responsible_server(&id).switch;
        // Enter away from the owner so retrievals would forward — the
        // cache probe sits on that forwarding path.
        let access = (owner + 1) % 5;
        let mut client = cluster.client(access).unwrap();

        client.place(&id, b"v1".as_ref()).unwrap();
        let first = client.retrieve(&id).unwrap();
        assert_eq!(first.payload.as_ref(), b"v1");
        // The second read of the hot key is served from the access
        // node's cache: same bytes, no forwarding.
        let second = client.retrieve(&id).unwrap();
        assert_eq!(second.payload.as_ref(), b"v1");

        // A write-through invalidation races nothing: the owner
        // broadcasts Invalidate before acking, so the next read must
        // see v2, never the cached v1.
        client.place(&id, b"v2".as_ref()).unwrap();
        let fresh = client.retrieve(&id).unwrap();
        assert_eq!(
            fresh.payload.as_ref(),
            b"v2",
            "a cached copy survived the write-through invalidation"
        );

        let report = cluster.shutdown();
        let hot = report.hot_stats();
        assert!(hot.cache_hits >= 1, "expected a cache hit: {hot}");
        assert!(
            hot.invalidations_rx >= 1,
            "expected invalidation traffic: {hot}"
        );
        assert_eq!(report.total_errors(), 0);
    }

    #[test]
    fn drop_without_shutdown_is_clean() {
        let net = ring(3);
        let cluster = Cluster::boot(&net, ClusterConfig::default()).unwrap();
        let mut client = cluster.client(1).unwrap();
        let _ = client.retrieve(&DataId::new("missing")).unwrap();
        drop(cluster); // Drop impl joins everything; nothing to assert
                       // beyond "does not hang or panic".
    }
}
