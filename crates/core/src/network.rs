//! [`GredNetwork`]: the assembled system — topology, controller state,
//! per-switch data planes, and the edge servers' stores.

use crate::config::GredConfig;
use crate::control::delta::{
    affected_members, strip_member_state, Batch, DeltaReport, TopologyChange,
};
use crate::control::embedding::{
    embed_new_switch, fit_scale, m_position_landmark_with, m_position_with, separate_duplicates,
    separate_joiner, Embedding,
};
use crate::control::installer::{
    apply_member_entries, install_dataplanes_with, member_virtual_paths,
};
use crate::control::regulation::refine_positions_with;
use crate::control::DtGraph;
use crate::error::GredError;
use crate::store::DataStore;
use gred_dataplane::{link_hops, BrokenAt, SwitchDataplane, TableStats};
use gred_geometry::Point2;
use gred_hash::DataId;
use gred_net::{ServerId, ServerPool, Topology};
use gred_runtime::BuildReport;
use std::collections::HashMap;

/// A complete GRED deployment over one edge network.
///
/// Constructed by [`GredNetwork::build`], which runs the paper's whole
/// control-plane pipeline: M-position embedding → C-regulation refinement
/// → multi-hop DT → forwarding-entry installation. Thereafter the
/// placement/retrieval methods (in [`crate::plane`]) execute purely
/// against the installed data-plane state, exactly as the switches would.
#[derive(Debug, Clone)]
pub struct GredNetwork {
    topology: Topology,
    pool: ServerPool,
    config: GredConfig,
    dt: DtGraph,
    dataplanes: Vec<SwitchDataplane>,
    store: DataStore,
    /// Active range extensions (controller's mirror of the switch
    /// entries): original server → takeover server.
    extensions: HashMap<ServerId, ServerId>,
    /// Virtual-distance-per-hop factor recorded by the embedding.
    scale: f64,
    /// Upper bound on the hop length of every installed virtual link:
    /// set by each full installation, raised by each delta. It bounds
    /// how far from a joiner trigger 4 of [`crate::control::delta`]
    /// looks.
    longest_link: usize,
}

/// Topology, pool and DT after a batch of joins and leaves, not yet
/// installed on any switch.
struct Evolved {
    topology: Topology,
    pool: ServerPool,
    dt: DtGraph,
    /// Switch ids created by joins, in order.
    joined: Vec<usize>,
    /// Switch ids removed by leaves, in order.
    left: Vec<usize>,
    /// Switches whose DT neighbors an event may have changed: each
    /// joiner with its neighbors after joining, each leaver's neighbors
    /// before leaving.
    touched: Vec<usize>,
}

/// The storage switches (those with a server) of a pool that describes
/// `topology`, ascending.
fn storage_switches(topology: &Topology, pool: &ServerPool) -> Result<Vec<usize>, GredError> {
    if topology.switch_count() != pool.switch_count() {
        return Err(GredError::SwitchCountMismatch {
            topology: topology.switch_count(),
            pool: pool.switch_count(),
        });
    }
    Ok((0..topology.switch_count())
        .filter(|&s| pool.servers_at(s) > 0)
        .collect())
}

impl GredNetwork {
    /// Runs the full control-plane pipeline and returns a ready network.
    ///
    /// Switches with servers become DT members; switches without servers
    /// participate only as relays.
    ///
    /// # Errors
    ///
    /// - [`GredError::SwitchCountMismatch`] when `topology` and `pool`
    ///   disagree,
    /// - [`GredError::NoStorageSwitches`] when no switch has a server,
    /// - [`GredError::Disconnected`] when members cannot all reach each
    ///   other,
    /// - embedding/triangulation failures.
    pub fn build(
        topology: Topology,
        pool: ServerPool,
        config: GredConfig,
    ) -> Result<Self, GredError> {
        Self::build_reported(topology, pool, config).map(|(net, _)| net)
    }

    /// [`GredNetwork::build`] returning the per-phase [`BuildReport`]
    /// alongside the network: wall time and work counters for the
    /// embedding, regulation, triangulation, and installation phases,
    /// each run on `config.threads` worker threads.
    ///
    /// # Errors
    ///
    /// Same as [`GredNetwork::build`].
    pub fn build_reported(
        topology: Topology,
        pool: ServerPool,
        config: GredConfig,
    ) -> Result<(Self, BuildReport), GredError> {
        let members = storage_switches(&topology, &pool)?;
        let threads = config.effective_threads();
        let mut report = BuildReport::new(threads);
        let embedding = match config.landmarks {
            // Landmark path records its own finer-grained phases
            // (landmark_bfs / landmark_embed / trilateration), or plain
            // "embedding" when it falls back to the exact path.
            Some(k) => m_position_landmark_with(
                &topology,
                &members,
                k,
                config.seed,
                threads,
                Some(&mut report),
            )?,
            None => report.phase("embedding", members.len(), || {
                m_position_with(&topology, &members, threads)
            })?,
        };
        let net = Self::from_embedding(topology, pool, config, embedding, &mut report)?;
        report.finish();
        Ok((net, report))
    }

    /// Builds a network from caller-supplied virtual positions instead of
    /// running M-position — an ablation hook for studying embedding
    /// quality (e.g. feeding in the topology generator's true plane
    /// coordinates as an oracle). C-regulation still runs per `config`.
    ///
    /// `positions[i]` is the position of the `i`-th *storage* switch in
    /// ascending switch order.
    ///
    /// # Errors
    ///
    /// Same as [`GredNetwork::build`], plus
    /// [`GredError::SwitchCountMismatch`] when the position count differs
    /// from the number of storage switches.
    pub fn build_with_positions(
        topology: Topology,
        pool: ServerPool,
        positions: &[Point2],
        config: GredConfig,
    ) -> Result<Self, GredError> {
        let members = storage_switches(&topology, &pool)?;
        if members.is_empty() {
            return Err(GredError::NoStorageSwitches);
        }
        if members.len() != positions.len() {
            return Err(GredError::SwitchCountMismatch {
                topology: members.len(),
                pool: positions.len(),
            });
        }
        let mut given = positions.to_vec();
        separate_duplicates(&mut given);
        let embedding = Embedding {
            members,
            positions: given,
            scale: 1.0,
        };
        let mut unread = BuildReport::new(config.effective_threads());
        Self::from_embedding(topology, pool, config, embedding, &mut unread)
    }

    /// The pipeline downstream of the embedding — C-regulation, multi-hop
    /// DT, entry installation — each recorded as a phase of `report`.
    fn from_embedding(
        topology: Topology,
        pool: ServerPool,
        config: GredConfig,
        embedding: Embedding,
        report: &mut BuildReport,
    ) -> Result<Self, GredError> {
        let threads = config.effective_threads();
        let member_count = embedding.members.len();
        let samples = config.regulation.iterations * config.regulation.samples_per_iteration;
        let refined = report.phase("regulation", samples, || {
            refine_positions_with(
                &embedding.positions,
                &config.regulation,
                config.seed,
                threads,
            )
        });
        // Rank-equalized positions no longer match the embedding's
        // hop-to-virtual factor; joiners need the one they do match.
        let scale = if config.regulation.equalizes(member_count) {
            fit_scale(&topology, &embedding.members, &refined, threads)?
        } else {
            embedding.scale
        };
        let dt = report.phase("triangulation", member_count, || {
            DtGraph::build(embedding.members, &refined)
        })?;
        let (dataplanes, longest_link) = report.phase("installation", member_count, || {
            install_dataplanes_with(&topology, &pool, &dt, threads)
        })?;
        Ok(GredNetwork {
            topology,
            pool,
            config,
            dt,
            dataplanes,
            store: DataStore::new(),
            extensions: HashMap::new(),
            scale,
            longest_link,
        })
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// The physical topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The edge-server pool.
    pub fn pool(&self) -> &ServerPool {
        &self.pool
    }

    /// The protocol configuration.
    pub fn config(&self) -> &GredConfig {
        &self.config
    }

    /// The controller's DT over storage switches.
    pub fn dt(&self) -> &DtGraph {
        &self.dt
    }

    /// Per-switch data planes (index = switch id).
    pub fn dataplanes(&self) -> &[SwitchDataplane] {
        &self.dataplanes
    }

    pub(crate) fn dataplanes_mut(&mut self) -> &mut [SwitchDataplane] {
        &mut self.dataplanes
    }

    /// The stored data across all edge servers.
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    pub(crate) fn store_mut(&mut self) -> &mut DataStore {
        &mut self.store
    }

    /// DT member switch ids (storage switches), ascending.
    pub fn members(&self) -> &[usize] {
        self.dt.members()
    }

    /// Whether `switch` is a storage (DT member) switch.
    pub fn is_member(&self, switch: usize) -> bool {
        self.dt.is_member(switch)
    }

    /// The virtual position of a member switch.
    pub fn position_of_switch(&self, switch: usize) -> Option<Point2> {
        self.dt.position_of(switch)
    }

    /// The virtual position a data identifier hashes to.
    pub fn position_of_id(&self, id: &DataId) -> Point2 {
        let (x, y) = gred_hash::virtual_position(id);
        Point2::new(x, y)
    }

    /// The server responsible for `id` with *no* routing: nearest member
    /// switch in the virtual space, then `H(d) mod s`. Greedy forwarding
    /// from any access switch provably reaches this same server.
    pub fn responsible_server(&self, id: &DataId) -> ServerId {
        // One digest serves both the position and the server pick.
        let digest = id.digest();
        let (x, y) = gred_hash::position::digest_position(&digest);
        let switch = self.dt.nearest_switch(Point2::new(x, y));
        let index = gred_hash::server::digest_server(&digest, self.pool.servers_at(switch));
        ServerId { switch, index }
    }

    /// Whether `server` exists in the pool.
    pub fn server_exists(&self, server: ServerId) -> bool {
        server.switch < self.pool.switch_count()
            && server.index < self.pool.servers_at(server.switch)
    }

    /// Items currently stored on `server`.
    pub fn server_load(&self, server: ServerId) -> u64 {
        self.store.load(server)
    }

    /// Storage capacity of `server`.
    pub fn server_capacity(&self, server: ServerId) -> u64 {
        self.pool.capacity(server)
    }

    /// Load of every server in the pool, including empty ones — the
    /// denominator population of the paper's `max/avg` metric.
    pub fn server_loads(&self) -> Vec<(ServerId, u64)> {
        self.pool
            .iter_ids()
            .map(|id| (id, self.store.load(id)))
            .collect()
    }

    /// Expires (deletes) the item stored under `id` on `server`, modeling
    /// the paper's "some data could be invalid or migrated to the Cloud".
    /// Returns the payload if it was present.
    pub fn expire(&mut self, server: ServerId, id: &DataId) -> Option<bytes::Bytes> {
        self.store.remove(server, id)
    }

    /// The takeover server currently extending `original`, if any.
    pub fn extension_of(&self, original: ServerId) -> Option<ServerId> {
        self.extensions.get(&original).copied()
    }

    /// Every active range extension as `(original, takeover)` pairs,
    /// sorted by the original server — the controller's view, for
    /// external checkers comparing it against the switch tables.
    pub fn active_extensions(&self) -> Vec<(ServerId, ServerId)> {
        let mut out: Vec<(ServerId, ServerId)> =
            self.extensions.iter().map(|(&o, &t)| (o, t)).collect();
        out.sort();
        out
    }

    pub(crate) fn record_extension(&mut self, original: ServerId, takeover: ServerId) {
        self.extensions.insert(original, takeover);
    }

    pub(crate) fn clear_extension(&mut self, original: ServerId) {
        self.extensions.remove(&original);
    }

    /// Forwarding-table statistics across all switches (Fig. 9(d)).
    pub fn table_stats(&self) -> TableStats {
        TableStats::collect(self.dataplanes.iter())
    }

    // ------------------------------------------------------------------
    // Network dynamics (paper Section VI).
    // ------------------------------------------------------------------

    /// Adds a new edge node: a switch linked to `links`, carrying servers
    /// with the given `capacities`. Existing switch positions are kept
    /// fixed; the new switch is embedded locally, the DT updated, entries
    /// reinstalled, and data whose owner changed migrates to the new
    /// switch. Returns the new switch id.
    ///
    /// # Errors
    ///
    /// - [`GredError::Topology`] for invalid links,
    /// - [`GredError::InvalidDynamics`] when `capacities` is empty (use a
    ///   plain topology edit for transit switches) or `links` is empty.
    pub fn add_switch(
        &mut self,
        links: &[usize],
        capacities: Vec<u64>,
    ) -> Result<usize, GredError> {
        let next = self.evolve(&[TopologyChange::Join {
            links: links.to_vec(),
            capacities,
        }])?;
        let new_switch = next.joined[0];
        self.rebuild(next)?;
        Ok(new_switch)
    }

    /// Removes an edge node: switch `switch` loses its servers and links;
    /// its data migrates to the remaining nearest switches.
    ///
    /// # Errors
    ///
    /// - [`GredError::InvalidDynamics`] when the switch is not a member or
    ///   is the last one,
    /// - [`GredError::Disconnected`] when removing it would disconnect the
    ///   remaining members.
    pub fn remove_switch(&mut self, switch: usize) -> Result<(), GredError> {
        let next = self.evolve(&[TopologyChange::Leave { switch }])?;
        self.rebuild(next)
    }

    /// Applies a batch of joins/leaves with an *incremental* control-plane
    /// rebuild: positions stay fixed (joiners embedded locally), the DT is
    /// updated through the incremental machinery, and only the *affected*
    /// members' forwarding entries are recomputed — everyone else keeps
    /// their installed state verbatim (see [`crate::control::delta`] for
    /// the affected-set triggers). The per-event
    /// [`Self::add_switch`]/[`Self::remove_switch`] path, which re-runs the
    /// full installation each time, remains the fallback and the
    /// equivalence oracle this path is tested against.
    ///
    /// Events apply in order; a later event may reference a switch created
    /// by an earlier `Join` in the same batch. On error nothing observable
    /// changes: the batch is evolved on clones and the affected members'
    /// paths are searched before anything is mutated; only then are the
    /// installed planes patched in place.
    ///
    /// # Errors
    ///
    /// Same per-event errors as [`Self::add_switch`] and
    /// [`Self::remove_switch`].
    pub fn apply_delta(&mut self, changes: &[TopologyChange]) -> Result<DeltaReport, GredError> {
        let start = std::time::Instant::now();
        let next = self.evolve(changes)?;
        let (topo, dt, left) = (&next.topology, &next.dt, &next.left);

        // The affected set, against the pre-batch planes, and its path
        // search (in parallel) — the last step that can fail.
        let affected: Vec<usize> = affected_members(&Batch {
            old_dt: &self.dt,
            new_dt: dt,
            old_topo: &self.topology,
            new_topo: topo,
            planes: &self.dataplanes,
            joiners: &next.joined,
            leavers: left,
            touched: &next.touched,
            longest_link: self.longest_link,
        })
        .into_iter()
        .collect();
        let threads = self.config.effective_threads();
        let paths_per_member: Vec<_> =
            gred_runtime::parallel_map_min_chunk(affected.clone(), threads, 8, |u| {
                member_virtual_paths(topo, dt, u)
            })
            .into_iter()
            .collect::<Option<_>>()
            .ok_or(GredError::Disconnected)?;

        self.retract_touching(left);
        // Strip stale state — affected members' outgoing chains, every
        // leaver's chains, then the leaver planes themselves.
        let mut planes = std::mem::take(&mut self.dataplanes);
        let mut tuples_removed = 0;
        for &u in affected.iter().chain(left) {
            if u < planes.len() {
                tuples_removed += strip_member_state(&mut planes, u);
            }
        }
        for &l in left {
            if l < planes.len() {
                planes[l] = SwitchDataplane::transit(l);
            }
        }

        // Fresh planes for joiners (a join-then-leave within the batch
        // ends up transit).
        for s in planes.len()..topo.switch_count() {
            planes.push(match dt.position_of(s) {
                Some(pos) if next.pool.servers_at(s) > 0 => {
                    SwitchDataplane::new(s, pos, next.pool.servers_at(s))
                }
                _ => SwitchDataplane::transit(s),
            });
        }

        // Reinstall only the affected cells, entries applied serially in
        // member order — the same discipline as the full installer.
        for (&u, member_paths) in affected.iter().zip(paths_per_member) {
            let longest = apply_member_entries(&mut planes, topo, dt, u, member_paths);
            self.longest_link = self.longest_link.max(longest);
            planes[u].shrink_to_fit();
        }

        let members_total = dt.len();
        self.commit(next.topology, next.pool, next.dt, planes, &next.left);
        Ok(DeltaReport {
            joined: next.joined,
            left: next.left,
            affected,
            members_total,
            relay_tuples_removed: tuples_removed,
            wall: start.elapsed(),
        })
    }

    /// Topology, pool, DT and positions after `changes`, event by event
    /// (each join is embedded against the state its predecessors left
    /// behind). Works on clones: a refused event leaves `self` untouched.
    fn evolve(&self, changes: &[TopologyChange]) -> Result<Evolved, GredError> {
        let mut topo = self.topology.clone();
        let mut pool = self.pool.clone();
        // The batch's one DT copy; every event edits it in place.
        let mut dt = self.dt.clone();
        let mut joined = Vec::new();
        let mut left = Vec::new();
        let mut touched = Vec::new();
        for change in changes {
            match change {
                TopologyChange::Join { links, capacities } => {
                    if capacities.is_empty() {
                        return Err(GredError::InvalidDynamics {
                            reason: "a joining edge node needs at least one server",
                        });
                    }
                    if links.is_empty() {
                        return Err(GredError::InvalidDynamics {
                            reason: "a joining switch needs at least one link",
                        });
                    }
                    let new_switch = topo.add_switch();
                    for &l in links {
                        topo.add_link(new_switch, l)?;
                    }
                    // Embed the newcomer against the fixed existing
                    // positions, then move it clear of all of them.
                    let view = Embedding {
                        members: dt.members().to_vec(),
                        positions: dt
                            .members()
                            .iter()
                            .map(|&m| dt.position_of(m).expect("member has position"))
                            .collect(),
                        scale: self.scale,
                    };
                    let position = embed_new_switch(&topo, &view, new_switch)?;
                    dt.join(new_switch, separate_joiner(&view.positions, position))?;
                    touched.push(new_switch);
                    touched.extend(dt.neighbors_of(new_switch));
                    pool.push_switch(capacities.clone());
                    joined.push(new_switch);
                }
                TopologyChange::Leave { switch } => {
                    if dt.is_member(*switch) {
                        touched.extend(dt.neighbors_of(*switch));
                    }
                    dt.leave(*switch)?;
                    // The remaining members must stay mutually reachable.
                    topo.isolate(*switch);
                    let hops = topo.bfs_hops(dt.members()[0]);
                    if dt.members().iter().any(|&m| hops[m] == u32::MAX) {
                        return Err(GredError::Disconnected);
                    }
                    pool.clear_switch(*switch);
                    left.push(*switch);
                }
            }
        }
        Ok(Evolved {
            topology: topo,
            pool,
            dt,
            joined,
            left,
            touched,
        })
    }

    /// Retracts every range extension touching a leaver while the old
    /// tables still route: items come home (or to wherever they belong)
    /// before the switch disappears.
    fn retract_touching(&mut self, left: &[usize]) {
        for &l in left {
            let touching: Vec<ServerId> = self
                .extensions
                .iter()
                .filter(|(o, t)| o.switch == l || t.switch == l)
                .map(|(&o, _)| o)
                .collect();
            for original in touching {
                let _ = self.retract_range(original);
            }
        }
    }

    /// The per-event path: every switch's entries installed from scratch
    /// on the evolved state.
    fn rebuild(&mut self, next: Evolved) -> Result<(), GredError> {
        self.retract_touching(&next.left);
        let (mut planes, longest_link) = install_dataplanes_with(
            &next.topology,
            &next.pool,
            &next.dt,
            self.config.effective_threads(),
        )?;
        self.longest_link = longest_link;
        self.reinstall_extensions(&mut planes);
        self.commit(next.topology, next.pool, next.dt, planes, &next.left);
        Ok(())
    }

    /// Swaps in an evolved control plane with its installed `dataplanes`,
    /// re-homes the data the leavers `left` behind and migrates every key
    /// whose owner changed.
    fn commit(
        &mut self,
        topology: Topology,
        pool: ServerPool,
        dt: DtGraph,
        dataplanes: Vec<SwitchDataplane>,
        left: &[usize],
    ) {
        let orphans: Vec<_> = left
            .iter()
            .flat_map(|&l| self.store.drain_switch(l))
            .collect();
        self.topology = topology;
        self.pool = pool;
        self.dt = dt;
        self.dataplanes = dataplanes;
        for (id, payload) in orphans {
            let owner = self.responsible_server(&id);
            let target = self.extension_of(owner).unwrap_or(owner);
            self.store.insert(target, id, payload);
        }
        self.migrate_all();
    }

    /// An edge node *crashes*: unlike the graceful [`Self::remove_switch`],
    /// every item stored on the switch's servers is lost before the
    /// controller reacts. Used by fault-tolerance experiments to show what
    /// replication (Section VI) buys.
    ///
    /// # Errors
    ///
    /// Same as [`Self::remove_switch`].
    pub fn crash_switch(&mut self, switch: usize) -> Result<(), GredError> {
        if !self.is_member(switch) {
            return Err(GredError::InvalidDynamics {
                reason: "switch is not a DT member",
            });
        }
        // Data dies with the node.
        let _ = self.store.drain_switch(switch);
        self.remove_switch(switch)
    }

    /// Moves every stored item to its current responsible server (used
    /// after membership changes; only items whose owner changed move).
    fn migrate_all(&mut self) {
        let locations = self.store.all_locations();
        for (server, id) in locations {
            let owner = self.responsible_server(&id);
            let target = self.extension_of(owner).unwrap_or(owner);
            if server != target && server != owner {
                if let Some(payload) = self.store.remove(server, &id) {
                    self.store.insert(target, id, payload);
                }
            } else if server == owner && target != owner {
                // Owner's range is extended: primary copies placed before
                // the extension may stay (retrieval queries both).
            }
        }
    }

    /// Test support: stores an item directly on a server, bypassing
    /// routing. Exists so integration tests can plant inconsistencies for
    /// [`Self::verify_invariants`] to find.
    #[doc(hidden)]
    pub fn store_debug_insert(&mut self, server: ServerId, id: DataId) {
        self.store.insert(server, id, bytes::Bytes::new());
    }

    /// Test support: mutable access to one switch's data plane, so
    /// fault-injection harnesses can corrupt installed entries and verify
    /// the damage is detected.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is out of range.
    #[doc(hidden)]
    pub fn dataplane_debug_mut(&mut self, switch: usize) -> &mut SwitchDataplane {
        &mut self.dataplanes[switch]
    }

    /// Verifies the deployment's internal invariants, returning every
    /// violation found (empty = healthy). Intended for tests and for
    /// operators after dynamics:
    ///
    /// 1. every DT member has a data plane with its position and server
    ///    count; non-members are transit planes,
    /// 2. every virtual-link (non-physical) neighbor entry has a complete
    ///    relay chain installed,
    /// 3. the controller's extension map mirrors the switch entries,
    /// 4. every stored item sits on its responsible server or on that
    ///    server's recorded takeover.
    pub fn verify_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();

        // 1. Plane/DT agreement.
        for s in 0..self.topology.switch_count() {
            let plane = &self.dataplanes[s];
            match self.dt.position_of(s) {
                Some(pos) if self.pool.servers_at(s) > 0 => {
                    if plane.position() != pos {
                        problems.push(format!("switch {s}: plane position differs from DT"));
                    }
                    if plane.server_count() != self.pool.servers_at(s) {
                        problems.push(format!("switch {s}: plane server count differs from pool"));
                    }
                }
                _ => {
                    if plane.server_count() != 0 {
                        problems.push(format!("switch {s}: non-member plane has servers"));
                    }
                }
            }
        }

        // 2. Relay chains complete for every virtual-link entry.
        for &u in self.dt.members() {
            for entry in self.dataplanes[u].neighbor_entries() {
                if entry.physical {
                    continue;
                }
                let v = entry.neighbor;
                if let Err(BrokenAt(at)) = link_hops(&self.dataplanes, u, entry.via, v) {
                    problems.push(format!("virtual link {u}->{v}: relay chain broken at {at}"));
                }
            }
        }

        // 3. Extension mirror agreement.
        for (&original, &takeover) in &self.extensions {
            if self.dataplanes[original.switch].extension_of(original) != Some(takeover) {
                problems.push(format!(
                    "extension {original}->{takeover} missing from the switch table"
                ));
            }
        }

        // 4. Stored items sit where routing will look for them.
        for (server, id) in self.store.all_locations() {
            let owner = self.responsible_server(&id);
            let takeover = self.extension_of(owner);
            if server != owner && Some(server) != takeover {
                problems.push(format!(
                    "item {id} stored on {server}, but owner is {owner} (takeover {takeover:?})"
                ));
            }
        }
        problems
    }

    /// Re-installs extension rewrite entries into freshly rebuilt
    /// `planes`, forgetting any whose original server is gone.
    fn reinstall_extensions(&mut self, planes: &mut [SwitchDataplane]) {
        let entries: Vec<(ServerId, ServerId)> =
            self.extensions.iter().map(|(&o, &t)| (o, t)).collect();
        for (original, takeover) in entries {
            if original.switch < planes.len()
                && planes[original.switch].server_count() > original.index
            {
                planes[original.switch]
                    .install_extension(gred_dataplane::ExtensionEntry { original, takeover });
            } else {
                self.extensions.remove(&original);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gred_net::{waxman_topology, WaxmanConfig};

    fn build_net(switches: usize, seed: u64) -> GredNetwork {
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, seed));
        let pool = ServerPool::uniform(switches, 2, 100_000);
        GredNetwork::build(topo, pool, GredConfig::with_iterations(10).seeded(seed)).unwrap()
    }

    #[test]
    fn build_rejects_mismatched_pool() {
        let topo = Topology::from_links(3, &[(0, 1), (1, 2)]).unwrap();
        let pool = ServerPool::uniform(2, 1, 10);
        assert!(matches!(
            GredNetwork::build(topo, pool, GredConfig::default()),
            Err(GredError::SwitchCountMismatch {
                topology: 3,
                pool: 2
            })
        ));
    }

    #[test]
    fn build_rejects_all_transit() {
        let topo = Topology::from_links(2, &[(0, 1)]).unwrap();
        let pool = ServerPool::from_capacities(vec![vec![], vec![]]);
        assert_eq!(
            GredNetwork::build(topo, pool, GredConfig::default()).unwrap_err(),
            GredError::NoStorageSwitches
        );
    }

    #[test]
    fn build_reported_records_every_phase() {
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(16, 5));
        let pool = ServerPool::uniform(16, 2, 100_000);
        let (net, report) =
            GredNetwork::build_reported(topo, pool, GredConfig::with_iterations(5)).unwrap();
        assert_eq!(report.threads, 1);
        for phase in ["embedding", "regulation", "triangulation", "installation"] {
            let p = report
                .phase_named(phase)
                .unwrap_or_else(|| panic!("missing phase {phase}"));
            assert!(p.items > 0, "phase {phase} counted no work");
        }
        assert!(report.total_wall() >= report.phases.iter().map(|p| p.wall).sum());
        assert!(!net.members().is_empty());
    }

    #[test]
    fn landmark_build_reports_split_phases_and_is_healthy() {
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(48, 11));
        let pool = ServerPool::uniform(48, 2, 100_000);
        let (net, report) = GredNetwork::build_reported(
            topo,
            pool,
            GredConfig::with_iterations(5).seeded(11).landmarks(12),
        )
        .unwrap();
        for phase in ["landmark_bfs", "landmark_embed", "trilateration"] {
            assert!(
                report.phase_named(phase).is_some(),
                "landmark build missing phase {phase}"
            );
        }
        assert!(report.phase_named("embedding").is_none());
        assert!(net.verify_invariants().is_empty());
        // End-to-end routing still delivers on the approximate embedding.
        for i in 0..30 {
            let id = DataId::new(format!("lm{i}"));
            let receipt = net.clone().place(&id, Bytes::new(), i % 48).unwrap();
            assert_eq!(receipt.primary, net.responsible_server(&id));
        }
    }

    #[test]
    fn landmark_small_network_matches_exact_build() {
        // k >= members: the landmark knob must change nothing at all.
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(14, 3));
        let pool = ServerPool::uniform(14, 2, 100_000);
        let exact = GredNetwork::build(
            topo.clone(),
            pool.clone(),
            GredConfig::with_iterations(8).seeded(3),
        )
        .unwrap();
        let landmark = GredNetwork::build(
            topo,
            pool,
            GredConfig::with_iterations(8).seeded(3).landmarks(64),
        )
        .unwrap();
        assert_eq!(network_fingerprint(&exact), network_fingerprint(&landmark));
    }

    type Fingerprint = (
        Vec<(usize, Point2)>,
        Vec<(usize, usize)>,
        Vec<(
            Vec<gred_dataplane::NeighborEntry>,
            Vec<gred_dataplane::DtTuple>,
        )>,
    );

    /// Every observable artifact of the build: virtual positions, DT
    /// adjacency, and per-switch installed forwarding state.
    fn network_fingerprint(net: &GredNetwork) -> Fingerprint {
        let positions = net
            .members()
            .iter()
            .map(|&m| (m, net.position_of_switch(m).unwrap()))
            .collect();
        let edges = net.dt().edges();
        let tables = net
            .dataplanes()
            .iter()
            .map(|dp| {
                (
                    dp.neighbor_entries().copied().collect::<Vec<_>>(),
                    dp.relay_entries().copied().collect::<Vec<_>>(),
                )
            })
            .collect();
        (positions, edges, tables)
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        for threads in [2, 3, 8] {
            let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(24, 7));
            let pool = ServerPool::uniform(24, 2, 100_000);
            let serial = GredNetwork::build(
                topo.clone(),
                pool.clone(),
                GredConfig::with_iterations(12).threads(1),
            )
            .unwrap();
            let parallel =
                GredNetwork::build(topo, pool, GredConfig::with_iterations(12).threads(threads))
                    .unwrap();
            assert_eq!(
                network_fingerprint(&serial),
                network_fingerprint(&parallel),
                "threads={threads} diverged from serial build"
            );
        }
    }

    #[test]
    fn members_are_storage_switches_only() {
        let topo = Topology::from_links(3, &[(0, 1), (1, 2)]).unwrap();
        let pool = ServerPool::from_capacities(vec![vec![10], vec![], vec![10]]);
        let net = GredNetwork::build(topo, pool, GredConfig::with_iterations(0)).unwrap();
        assert_eq!(net.members(), &[0, 2]);
        assert!(net.is_member(0) && !net.is_member(1));
        assert!(net.position_of_switch(1).is_none());
    }

    #[test]
    fn responsible_server_matches_routing() {
        let mut net = build_net(15, 9);
        for i in 0..60 {
            let id = DataId::new(format!("agree{i}"));
            let predicted = net.responsible_server(&id);
            let receipt = net.place(&id, Bytes::new(), i % 15).unwrap();
            assert_eq!(receipt.primary, predicted, "key {i}");
        }
    }

    #[test]
    fn table_stats_cover_all_switches() {
        let net = build_net(12, 2);
        let stats = net.table_stats();
        assert_eq!(stats.switches, 12);
        assert!(stats.mean > 0.0);
    }

    #[test]
    fn server_loads_include_empty_servers() {
        let net = build_net(6, 3);
        let loads = net.server_loads();
        assert_eq!(loads.len(), 12); // 6 switches × 2 servers
        assert!(loads.iter().all(|&(_, l)| l == 0));
    }

    #[test]
    fn add_switch_migrates_only_affected_items() {
        let mut net = build_net(10, 4);
        let mut receipts = Vec::new();
        for i in 0..80 {
            let id = DataId::new(format!("dyn{i}"));
            let r = net.place(&id, Bytes::new(), i % 10).unwrap();
            receipts.push((id, r.server));
        }
        let new_switch = net.add_switch(&[0, 3], vec![100_000, 100_000]).unwrap();
        assert_eq!(new_switch, 10);
        assert!(net.is_member(new_switch));

        // Every item is still retrievable; some may have moved to the new
        // switch, everything else stayed put.
        let mut moved = 0;
        for (id, old_server) in &receipts {
            let got = net.retrieve(id, 0).unwrap();
            if got.server != *old_server {
                moved += 1;
                assert_eq!(
                    got.server.switch, new_switch,
                    "items may only move to the newcomer"
                );
            }
        }
        assert!(moved < receipts.len(), "most items must not move");
        assert_eq!(net.store().total_items(), receipts.len() as u64);
    }

    #[test]
    fn remove_switch_rehomes_its_data() {
        let mut net = build_net(10, 5);
        for i in 0..60 {
            net.place(&DataId::new(format!("rem{i}")), Bytes::new(), i % 10)
                .unwrap();
        }
        let victim = net.members()[3];
        net.remove_switch(victim).unwrap();
        assert!(!net.is_member(victim));
        assert_eq!(net.store().total_items(), 60);
        for i in 0..60 {
            let id = DataId::new(format!("rem{i}"));
            let access = net.members()[0];
            let got = net.retrieve(&id, access).unwrap();
            assert_ne!(got.server.switch, victim);
        }
    }

    #[test]
    fn remove_last_member_rejected() {
        let topo = Topology::from_links(2, &[(0, 1)]).unwrap();
        let pool = ServerPool::from_capacities(vec![vec![10], vec![]]);
        let mut net = GredNetwork::build(topo, pool, GredConfig::with_iterations(0)).unwrap();
        assert!(matches!(
            net.remove_switch(0),
            Err(GredError::InvalidDynamics { .. })
        ));
    }

    #[test]
    fn add_switch_validations() {
        let mut net = build_net(5, 6);
        assert!(matches!(
            net.add_switch(&[], vec![10]),
            Err(GredError::InvalidDynamics { .. })
        ));
        assert!(matches!(
            net.add_switch(&[0], vec![]),
            Err(GredError::InvalidDynamics { .. })
        ));
        assert!(matches!(
            net.add_switch(&[99], vec![10]),
            Err(GredError::Topology(_))
        ));
    }

    #[test]
    fn apply_delta_join_batch_is_bit_identical_to_sequential() {
        // Joins only: the delta path must reproduce the one-at-a-time
        // path bit for bit (joins cannot shift BFS tie-breaks — the new
        // switch takes the largest id).
        let mut seq = build_net(16, 31);
        for i in 0..50 {
            seq.place(&DataId::new(format!("jb{i}")), Bytes::new(), i % 16)
                .unwrap();
        }
        let mut delta = seq.clone();
        let batch = vec![
            TopologyChange::Join {
                links: vec![0, 5],
                capacities: vec![100_000],
            },
            TopologyChange::Join {
                links: vec![2, 16],
                capacities: vec![100_000, 100_000],
            },
        ];
        let report = delta.apply_delta(&batch).unwrap();
        assert_eq!(report.joined, vec![16, 17]);
        assert!(report.left.is_empty());
        assert!(report.affected.len() < delta.members().len(), "localized");

        seq.add_switch(&[0, 5], vec![100_000]).unwrap();
        seq.add_switch(&[2, 16], vec![100_000, 100_000]).unwrap();
        assert_eq!(network_fingerprint(&seq), network_fingerprint(&delta));
        assert!(delta.verify_invariants().is_empty());
        for i in 0..50 {
            let id = DataId::new(format!("jb{i}"));
            assert_eq!(
                seq.retrieve(&id, 3).unwrap().server,
                delta.retrieve(&id, 3).unwrap().server
            );
        }
    }

    #[test]
    fn apply_delta_mixed_batch_is_decision_equivalent() {
        // Leaves may re-break BFS ties, so the oracle is decision
        // equivalence: same members, positions, DT, owners, and stored
        // state — not bit-equal relay tables.
        let mut seq = build_net(18, 33);
        for i in 0..60 {
            seq.place(&DataId::new(format!("mx{i}")), Bytes::new(), i % 18)
                .unwrap();
        }
        let mut delta = seq.clone();
        let victim = seq.members()[4];
        let batch = vec![
            TopologyChange::Join {
                links: vec![1, 7],
                capacities: vec![100_000],
            },
            TopologyChange::Leave { switch: victim },
        ];
        let report = delta.apply_delta(&batch).unwrap();
        assert_eq!(report.left, vec![victim]);
        assert!(report.relay_tuples_removed > 0 || report.affected.is_empty());

        seq.add_switch(&[1, 7], vec![100_000]).unwrap();
        seq.remove_switch(victim).unwrap();

        assert_eq!(seq.members(), delta.members());
        for &m in seq.members() {
            assert_eq!(seq.position_of_switch(m), delta.position_of_switch(m));
        }
        assert_eq!(seq.dt().edges(), delta.dt().edges());
        assert!(delta.verify_invariants().is_empty());
        for i in 0..60 {
            let id = DataId::new(format!("mx{i}"));
            assert_eq!(seq.responsible_server(&id), delta.responsible_server(&id));
            assert_eq!(
                seq.retrieve(&id, 0).unwrap().server,
                delta.retrieve(&id, 0).unwrap().server
            );
        }
    }

    #[test]
    fn apply_delta_error_leaves_network_untouched() {
        let mut net = build_net(10, 35);
        let before = network_fingerprint(&net);
        let err = net.apply_delta(&[
            TopologyChange::Join {
                links: vec![0],
                capacities: vec![100_000],
            },
            TopologyChange::Leave { switch: 999 },
        ]);
        assert!(matches!(err, Err(GredError::InvalidDynamics { .. })));
        assert_eq!(
            network_fingerprint(&net),
            before,
            "failed batch mutated state"
        );
        assert_eq!(net.topology().switch_count(), 10);
    }

    #[test]
    fn disconnecting_dynamics_fail_alike_on_both_paths() {
        let mut net = build_net(10, 37);
        // The pendant hangs off switch 0 alone, so 0 leaving would cut
        // it from every other member.
        let pendant = net.add_switch(&[0], vec![100_000]).unwrap();
        let before = network_fingerprint(&net);
        assert_eq!(net.remove_switch(0), Err(GredError::Disconnected));
        assert_eq!(
            net.apply_delta(&[TopologyChange::Leave { switch: 0 }])
                .unwrap_err(),
            GredError::Disconnected
        );
        assert_eq!(network_fingerprint(&net), before);

        // A joiner whose only link is a switch that already left reaches
        // no member: in one batch, and event by event.
        let rejoin = TopologyChange::Join {
            links: vec![pendant],
            capacities: vec![100_000],
        };
        assert_eq!(
            net.apply_delta(&[TopologyChange::Leave { switch: pendant }, rejoin.clone()])
                .unwrap_err(),
            GredError::Disconnected
        );
        assert_eq!(network_fingerprint(&net), before);
        net.remove_switch(pendant).unwrap();
        let before = network_fingerprint(&net);
        assert_eq!(
            net.add_switch(&[pendant], vec![100_000]),
            Err(GredError::Disconnected)
        );
        assert_eq!(
            net.apply_delta(&[rejoin]).unwrap_err(),
            GredError::Disconnected
        );
        assert_eq!(network_fingerprint(&net), before);
        assert_eq!(net.topology().switch_count(), 11);
        assert_eq!(net.pool().switch_count(), 11);
        assert!(net.verify_invariants().is_empty());
    }

    #[test]
    fn bounded_triggers_match_the_full_scans() {
        // Seeded join+leave churn. For every batch, the affected set
        // apply_delta computes (trigger 1 over the touched members only,
        // trigger 4 over the members near each joiner) equals trigger 1
        // over every member and trigger 4 over every installed link.
        use crate::control::delta::{affected_with, shortened_anywhere};
        let mut net = build_net(90, 41);
        let mut state = 41u64;
        let mut pick = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let mut shortcuts = 0;
        for batch_no in 0..80 {
            let n = net.topology().switch_count();
            let members = net.members().to_vec();
            let batch = vec![
                TopologyChange::Join {
                    links: vec![members[pick(members.len())], members[pick(members.len())]],
                    capacities: vec![100_000],
                },
                TopologyChange::Leave {
                    switch: members[pick(members.len())],
                },
                TopologyChange::Join {
                    links: vec![n, pick(n)],
                    capacities: vec![100_000],
                },
            ];
            let Ok(next) = net.evolve(&batch) else {
                continue;
            };
            let everyone: Vec<usize> = net
                .members()
                .iter()
                .chain(next.dt.members())
                .copied()
                .collect();
            let batch_view = |touched| Batch {
                old_dt: &net.dt,
                new_dt: &next.dt,
                old_topo: &net.topology,
                new_topo: &next.topology,
                planes: &net.dataplanes,
                joiners: &next.joined,
                leavers: &next.left,
                touched,
                longest_link: net.longest_link,
            };
            let oracle = affected_with(&batch_view(&everyone), shortened_anywhere);
            let bounded = affected_members(&batch_view(&next.touched));
            assert_eq!(bounded, oracle, "batch {batch_no}");
            let near_only = affected_with(&batch_view(&everyone), |_, _, _| Vec::new());
            shortcuts += oracle.len() - near_only.len();
            let report = net.apply_delta(&batch).unwrap();
            assert_eq!(report.affected, oracle.into_iter().collect::<Vec<_>>());
            // The kept bound covers every installed chain.
            for (u, plane) in net.dataplanes.iter().enumerate() {
                for e in plane.neighbor_entries().filter(|e| !e.physical) {
                    let hops = link_hops(&net.dataplanes, u, e.via, e.neighbor).unwrap();
                    assert!(hops <= net.longest_link, "link {u}->{}", e.neighbor);
                }
            }
        }
        assert!(shortcuts > 0, "no batch exercised trigger 4");
        assert!(net.verify_invariants().is_empty());
    }

    #[test]
    fn clone_is_independent() {
        let mut a = build_net(6, 7);
        let b = a.clone();
        a.place(&DataId::new("only-in-a"), Bytes::new(), 0).unwrap();
        assert_eq!(a.store().total_items(), 1);
        assert_eq!(b.store().total_items(), 0);
    }
}
