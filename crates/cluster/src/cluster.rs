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
use crate::node::{Node, NodeConfig};
use crate::observe::ClusterHealth;
use gred::GredNetwork;
use gred_dataplane::{NodeHotStats, StatsSnapshot, SwitchDataplane};
use gred_geometry::Point2;
use gred_net::ServerId;
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

/// Aggregated accounting from a graceful shutdown: every node's final
/// [`StatsSnapshot`], summed by [`ClusterHealth::aggregate`] like a live
/// scrape.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// One final snapshot per node, in switch order.
    pub nodes: Vec<StatsSnapshot>,
}

impl ClusterReport {
    /// The cluster totals of the final snapshots.
    fn health(&self) -> ClusterHealth {
        ClusterHealth::aggregate(&self.nodes)
    }

    /// Requests dispatched across all nodes.
    pub fn total_requests(&self) -> u64 {
        self.health().requests
    }

    /// Requests that ended in an error response.
    pub fn total_errors(&self) -> u64 {
        self.health().errors
    }

    /// Items stored across all nodes at shutdown.
    pub fn stored_items(&self) -> usize {
        self.health().stored_items as usize
    }

    /// Hot-path contention counters summed across all nodes. A healthy
    /// run keeps `link_reconnects` at zero.
    pub fn hot_stats(&self) -> NodeHotStats {
        self.health().hot
    }
}

impl std::fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let health = self.health();
        write!(f, "{health}; {}", health.hot)
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
        let mut cluster = Cluster {
            nodes: Vec::with_capacity(count),
            addrs,
            positions: net.dataplanes().iter().map(|p| p.position()).collect(),
            node_cfg: cfg.node,
            client_cfg: cfg.client,
            rewrite,
        };
        for (switch, listener) in listeners.into_iter().enumerate() {
            let node = cluster.spawn(net, switch, listener)?;
            cluster.nodes.push(Some(node));
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
    pub fn scrape(&self) -> Result<Vec<StatsSnapshot>, ClientError> {
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
    /// Returns the node's final snapshot, or `None` if the node was
    /// already down.
    pub fn crash_node(&mut self, switch: usize) -> Option<StatsSnapshot> {
        let mut node = self.nodes[switch].take()?;
        Some(node.shutdown())
    }

    /// Boots a fresh node in slot `switch` from the model's *current*
    /// dataplane and store contents, then re-introduces it to every live
    /// peer (clearing their suspicion). After a `crash_switch` on the
    /// model twin this revives the slot as a transit-only relay; after an
    /// `add_switch` it boots the newcomer in a new slot, ready for the
    /// [`Cluster::apply_planes`] cut that hands it its keys.
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
        while self.nodes.len() <= switch {
            self.nodes.push(None);
            self.addrs.push(SocketAddr::from((Ipv4Addr::LOCALHOST, 0)));
            self.positions.push(Point2::ORIGIN);
        }
        assert!(
            self.nodes[switch].is_none(),
            "node {switch} is still running"
        );
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        self.addrs[switch] = addr;
        self.positions[switch] = net.dataplanes()[switch].position();
        self.nodes[switch] = Some(self.spawn(net, switch, listener)?);
        // Tell every live peer about the new listener; register_peer
        // also clears the suspect flag, restoring the one-hop routes.
        for (other, node) in self.live_nodes() {
            if other != switch {
                node.register_peer(switch, (self.rewrite)(other, switch, addr));
            }
        }
        Ok(addr)
    }

    /// Cuts every live node over to the model twin's current dataplanes
    /// (after `crash_switch`, `remove_switch`, `extend_range`,
    /// `retract_range`, or `add_switch` and [`Cluster::restart_node`] for
    /// the newcomer) and moves every stored item that is no longer at
    /// home ([`GredNetwork::home_of`]) onto its home's node, as one atomic
    /// cut: every live node is held first, so none serves a request until
    /// all of them run the new plane and hold the items they now own.
    /// Returns `(moved, dropped)`: items re-homed, and items whose home
    /// is crashed (unreachable anyway).
    pub fn apply_planes(&self, net: &GredNetwork) -> (usize, usize) {
        let _held: Vec<_> = self.live_nodes().map(|(_, node)| node.hold()).collect();
        let (mut moved, mut dropped) = (0, 0);
        let mut arrivals = vec![Vec::new(); self.nodes.len()];
        for (switch, node) in self.live_nodes() {
            node.install_plane(fresh_plane(net, switch));
            let evicted =
                node.extract_items(|id, index| net.home_of(id, ServerId { switch, index }));
            for (id, home, payload) in evicted {
                if self.try_node(home.switch).is_some() {
                    arrivals[home.switch].push((id, home.index, payload));
                    moved += 1;
                } else {
                    dropped += 1;
                }
            }
        }
        for (switch, items) in arrivals.into_iter().enumerate() {
            if !items.is_empty() {
                self.node(switch).preload_many(items);
            }
        }
        (moved, dropped)
    }

    /// Spawns switch `switch`'s node on `listener`, serving the model's
    /// current plane, and preloads what the model stores there.
    fn spawn(&self, net: &GredNetwork, switch: usize, listener: TcpListener) -> io::Result<Node> {
        let peers = peer_map(switch, &self.addrs, &self.rewrite);
        let plane = fresh_plane(net, switch);
        let node = Node::spawn(switch, plane, peers, listener, self.node_cfg.clone())?;
        let placed = net.store().items_on(switch);
        let items = placed.map(|(at, id, bytes)| (id.clone(), at.index, bytes.clone()));
        node.preload_many(items.collect());
        Ok(node)
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

/// Switch `switch`'s plane in `net`, with zeroed counters for a node.
fn fresh_plane(net: &GredNetwork, switch: usize) -> SwitchDataplane {
    let plane = net.dataplanes()[switch].clone();
    plane.reset_counters();
    plane
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
        let cluster = Cluster::boot(&net, ClusterConfig::default()).unwrap();
        let mut client = cluster.client(0).unwrap();
        let ids: Vec<DataId> = (0..20).map(|i| DataId::new(format!("k{i}"))).collect();
        for id in &ids {
            client.place(id, b"x".as_ref()).unwrap();
        }

        net.remove_switch(2).unwrap();
        let (moved, dropped) = cluster.apply_planes(&net);
        assert!(moved > 0, "the leaver owned some of the keys");
        assert_eq!(dropped, 0);

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
        cluster.restart_node(newcomer, &net).unwrap();
        cluster.apply_planes(&net);
        assert_eq!(cluster.len(), 5);
        assert!(cluster.try_node(newcomer).is_some());

        for id in &ids {
            let got = client.retrieve(id).unwrap();
            assert!(got.is_hit(), "key survives the join");
        }
        cluster.shutdown();
    }

    /// An idle cut moves nothing: the copy a takeover server holds for
    /// an extended owner on another switch is at home there.
    #[test]
    fn idle_cut_keeps_a_takeover_copy_in_place() {
        let mut net = ring(5);
        let id = DataId::new("extended-key");
        let owner = net.responsible_server(&id);
        let takeover = net.extend_range(owner).unwrap();
        assert_ne!(takeover.switch, owner.switch);
        let cluster = Cluster::boot(&net, ClusterConfig::default()).unwrap();
        let mut client = cluster.client(owner.switch).unwrap();
        let ack = client.place(&id, b"x".as_ref()).unwrap();
        assert_eq!(ack.ack_server(), Some(takeover));

        assert_eq!(cluster.apply_planes(&net), (0, 0));
        let held = cluster.node(takeover.switch).stored_ids();
        assert_eq!(held, vec![(id, takeover.index)]);
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

    /// The report a shutdown returns sums the nodes' final snapshots the
    /// way a live scrape is summed: right after the workload, both agree.
    #[test]
    fn shutdown_report_matches_a_scrape_after_the_workload() {
        let net = ring(5);
        let cluster = Cluster::boot(&net, ClusterConfig::default()).unwrap();
        let mut client = cluster.client(1).unwrap();
        for i in 0..12 {
            let id = DataId::new(format!("report-{i}"));
            client.place(&id, b"v".as_ref()).unwrap();
            client.retrieve(&id).unwrap();
            client.retrieve(&id).unwrap();
        }
        drop(client);
        let live = ClusterHealth::aggregate(&cluster.scrape().unwrap());
        let report = cluster.shutdown();
        assert_eq!(report.nodes.len(), 5);
        assert_eq!(report.total_requests(), live.requests);
        assert_eq!(report.total_errors(), live.errors);
        assert_eq!(report.stored_items() as u64, live.stored_items);
        assert_eq!(report.hot_stats(), live.hot);
        assert!(live.hot.cache_hits > 0, "the workload exercised the cache");
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
