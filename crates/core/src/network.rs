//! [`GredNetwork`]: the assembled system — topology, controller state,
//! per-switch data planes, and the edge servers' stores.

use crate::config::GredConfig;
use crate::control::delta::{
    affected_members, split_links, strip_member_state, Batch, DeltaReport, TopologyChange,
};
use crate::control::dt::leaving_index;
use crate::control::embedding::{
    embed_new_switch, fit_scale, m_position_landmark, separate_duplicates, separate_joiner,
    Embedding,
};
use crate::control::installer::{apply_member_entries, install_dataplanes, virtual_paths};
use crate::control::regulation::refine_positions;
use crate::control::DtGraph;
use crate::error::GredError;
use crate::store::DataStore;
use gred_dataplane::{link_hops, BrokenAt, SwitchDataplane, TableStats};
use gred_geometry::Point2;
use gred_hash::DataId;
use gred_net::{ServerId, ServerPool, Topology};
use gred_runtime::BuildReport;
use std::collections::BTreeMap;

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
    /// Virtual-distance-per-hop factor recorded by the embedding.
    scale: f64,
    /// Upper bound on the hop length of every installed virtual link:
    /// set by the build, raised by each delta. It bounds
    /// how far from a joiner trigger 4 of [`crate::control::delta`]
    /// looks.
    longest_link: usize,
}

/// One event of a batch as [`GredNetwork::admit`] applied it to the
/// topology, with what `evolve` and `undo` need.
enum Edit {
    /// A new switch, the servers it brings, and its BFS hop row from when
    /// it joined (a later leave in the batch may change distances).
    Join {
        switch: usize,
        capacities: Vec<u64>,
        hops: Vec<u32>,
    },
    /// A departed switch and the links it lost.
    Leave { switch: usize, links: Vec<usize> },
}

/// The switches `edits` added and removed, each in order.
fn joined_and_left(edits: &[Edit]) -> (Vec<usize>, Vec<usize>) {
    let (mut joined, mut left) = (Vec::new(), Vec::new());
    for edit in edits {
        match *edit {
            Edit::Join { switch, .. } => joined.push(switch),
            Edit::Leave { switch, .. } => left.push(switch),
        }
    }
    (joined, left)
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
    /// embedding (`landmark_bfs`, `landmark_embed`, `trilateration`),
    /// regulation, triangulation, and installation phases.
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
        let mut report = BuildReport::new();
        let k = config.landmarks.unwrap_or(members.len());
        let embedding =
            m_position_landmark(&topology, &members, k, config.seed, Some(&mut report))?;
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
        let mut unread = BuildReport::new();
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
        let member_count = embedding.members.len();
        let samples = config.regulation.iterations * config.regulation.samples_per_iteration;
        let refined = report.phase("regulation", samples, || {
            refine_positions(&embedding.positions, &config.regulation, config.seed)
        });
        // Rank-equalized positions no longer match the embedding's
        // hop-to-virtual factor; joiners need the one they do match.
        let scale = if config.regulation.equalizes(member_count) {
            fit_scale(&topology, &embedding.members, &refined)?
        } else {
            embedding.scale
        };
        let dt = report.phase("triangulation", member_count, || {
            DtGraph::build(embedding.members, &refined)
        })?;
        let (dataplanes, longest_link) = report.phase("installation", member_count, || {
            install_dataplanes(&topology, &pool, &dt)
        })?;
        Ok(GredNetwork {
            topology,
            pool,
            config,
            dt,
            dataplanes,
            store: DataStore::new(),
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

    /// The takeover server currently extending `original`, if any, as
    /// the rewrite entry at `original`'s switch records it.
    pub fn extension_of(&self, original: ServerId) -> Option<ServerId> {
        self.dataplanes.get(original.switch)?.extension_of(original)
    }

    /// Every active range extension as `(original, takeover)` pairs,
    /// sorted by the original server, read off the switch tables.
    pub fn active_extensions(&self) -> Vec<(ServerId, ServerId)> {
        self.dataplanes
            .iter()
            .flat_map(SwitchDataplane::extension_entries)
            .map(|e| (e.original, e.takeover))
            .collect()
    }

    /// Where a copy of `id` stored on `at` belongs: `None` while `at` is
    /// the owner or the owner's takeover (a primary copy placed before
    /// the extension may stay, retrieval queries both), otherwise the
    /// takeover if the owner's range is extended, else the owner. Every
    /// re-homing of a stored copy goes through this one rule.
    pub fn home_of(&self, id: &DataId, at: ServerId) -> Option<ServerId> {
        let owner = self.responsible_server(id);
        let home = self.extension_of(owner).unwrap_or(owner);
        (at != owner && at != home).then_some(home)
    }

    /// Forwarding-table statistics across all switches (Fig. 9(d)).
    pub fn table_stats(&self) -> TableStats {
        TableStats::collect(self.dataplanes.iter())
    }

    // ------------------------------------------------------------------
    // Network dynamics (paper Section VI).
    // ------------------------------------------------------------------

    /// Adds a new edge node, a one-event [`Self::apply_delta`] batch: a
    /// switch linked to `links`, carrying servers with the given
    /// `capacities`. Existing positions stay fixed, and data whose owner
    /// changed migrates to the new switch. Returns the new switch id.
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
        let report = self.apply_delta(&[TopologyChange::Join {
            links: links.to_vec(),
            capacities,
        }])?;
        Ok(report.joined[0])
    }

    /// Removes an edge node, a one-event [`Self::apply_delta`] batch:
    /// switch `switch` loses its servers and links; its data migrates to
    /// the remaining nearest switches.
    ///
    /// # Errors
    ///
    /// - [`GredError::InvalidDynamics`] when the switch is not a member or
    ///   is the last one,
    /// - [`GredError::Disconnected`] when removing it would disconnect the
    ///   remaining members.
    pub fn remove_switch(&mut self, switch: usize) -> Result<(), GredError> {
        self.apply_delta(&[TopologyChange::Leave { switch }])
            .map(drop)
    }

    /// Applies a batch of joins/leaves — the one membership path — with an
    /// *incremental* control-plane update: positions stay fixed (joiners
    /// embedded locally), the DT is updated in place, and only the
    /// *affected* members' forwarding entries are recomputed; everyone
    /// else keeps their installed state verbatim (see
    /// [`crate::control::delta`] for the affected-set triggers).
    ///
    /// Events apply in order; a later event may reference a switch created
    /// by an earlier `Join` in the same batch. On error nothing observable
    /// changes: an admission pass first applies the batch to the topology
    /// alone and decides every refusal there, undoing its edits (last
    /// first) before it returns the error. Every later step cannot fail:
    /// the DT and pool take the batch in place, and the installed planes
    /// are patched in place before every key not at home moves.
    ///
    /// # Errors
    ///
    /// Same per-event errors as [`Self::add_switch`] and
    /// [`Self::remove_switch`].
    pub fn apply_delta(&mut self, changes: &[TopologyChange]) -> Result<DeltaReport, GredError> {
        let start = std::time::Instant::now();
        let edits = self.admit(changes)?;
        let (joined, left) = joined_and_left(&edits);
        self.retract_touching(&left);
        let (replaced, leaver_links) = self.evolve(edits);

        // The affected set and its stale links, against the pre-batch
        // planes, and their path search.
        let batch = Batch {
            new_dt: &self.dt,
            new_topo: &self.topology,
            replaced: &replaced,
            planes: &self.dataplanes,
            joiners: &joined,
            leavers: &left,
            leaver_links: &leaver_links,
            longest_link: self.longest_link,
        };
        let hit = affected_members(&batch);
        let affected: Vec<usize> = hit.members.iter().copied().collect();
        let links: Vec<(Vec<usize>, Vec<usize>)> = affected
            .iter()
            .map(|&u| split_links(&batch, &hit.stale, u))
            .collect();
        let (topo, dt) = (&self.topology, &self.dt);
        let paths_per_member: Vec<_> = affected
            .iter()
            .zip(&links)
            .map(|(&u, (_, searched))| {
                virtual_paths(topo, u, searched).expect("admitted members stay connected")
            })
            .collect();
        let links_searched = links.iter().map(|(_, searched)| searched.len()).sum();

        // Strip stale state — affected members' entries but their kept
        // links, every leaver's chains, then the leaver planes themselves.
        let planes = &mut self.dataplanes;
        let mut tuples_removed = 0;
        for (&u, (kept, _)) in affected.iter().zip(&links) {
            if u < planes.len() {
                tuples_removed += strip_member_state(planes, u, kept);
            }
        }
        let old_leavers: Vec<usize> = left.iter().copied().filter(|&l| l < planes.len()).collect();
        for &l in &old_leavers {
            tuples_removed += strip_member_state(planes, l, &[]);
        }
        for &l in &old_leavers {
            planes[l] = SwitchDataplane::transit(l);
        }

        // Fresh planes for joiners (a join-then-leave within the batch
        // ends up transit).
        for s in planes.len()..topo.switch_count() {
            planes.push(match dt.position_of(s) {
                Some(pos) if self.pool.servers_at(s) > 0 => {
                    SwitchDataplane::new(s, pos, self.pool.servers_at(s))
                }
                _ => SwitchDataplane::transit(s),
            });
        }

        // Reinstall the searched links and every physical entry of the
        // affected cells, applied serially in member order — the same
        // discipline as the full installer.
        for (&u, member_paths) in affected.iter().zip(paths_per_member) {
            let longest = apply_member_entries(planes, topo, dt, u, member_paths);
            self.longest_link = self.longest_link.max(longest);
        }

        let members_total = dt.len();
        self.migrate_all();
        Ok(DeltaReport {
            joined,
            left,
            affected,
            members_total,
            links_searched,
            relay_tuples_removed: tuples_removed,
            wall: start.elapsed(),
        })
    }

    /// The admission pass of [`Self::apply_delta`]: applies `changes` to
    /// the topology alone, in order, and decides every refusal there. On
    /// error every edit made so far is undone, so `self` is unchanged.
    fn admit(&mut self, changes: &[TopologyChange]) -> Result<Vec<Edit>, GredError> {
        let mut members = self.dt.members().to_vec();
        let mut edits = Vec::with_capacity(changes.len());
        for change in changes {
            if let Err(e) = self.admit_event(change, &mut members, &mut edits) {
                self.undo(edits);
                return Err(e);
            }
        }
        Ok(edits)
    }

    /// One event of [`Self::admit`], checked against the working member
    /// list `members`; its edit is journaled before a check can refuse it.
    fn admit_event(
        &mut self,
        change: &TopologyChange,
        members: &mut Vec<usize>,
        edits: &mut Vec<Edit>,
    ) -> Result<(), GredError> {
        let topo = &mut self.topology;
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
                let switch = topo.add_switch();
                let linked = links.iter().try_for_each(|&l| topo.add_link(switch, l));
                let hops = topo.bfs_hops(switch);
                // The joiner must reach every member it is embedded against.
                let reaches = members.iter().all(|&m| hops[m] != u32::MAX);
                let capacities = capacities.clone();
                edits.push(Edit::Join {
                    switch,
                    capacities,
                    hops,
                });
                linked?;
                if !reaches {
                    return Err(GredError::Disconnected);
                }
                members.push(switch);
            }
            TopologyChange::Leave { switch } => {
                members.remove(leaving_index(members, *switch)?);
                let links = topo.isolate(*switch);
                edits.push(Edit::Leave {
                    switch: *switch,
                    links,
                });
                // The remaining members must stay mutually reachable.
                let hops = topo.bfs_hops(members[0]);
                if members.iter().any(|&m| hops[m] == u32::MAX) {
                    return Err(GredError::Disconnected);
                }
            }
        }
        Ok(())
    }

    /// Takes `edits` back off the topology, last first.
    fn undo(&mut self, edits: Vec<Edit>) {
        for edit in edits.into_iter().rev() {
            match edit {
                Edit::Join { switch, .. } => {
                    self.topology.isolate(switch);
                    self.topology.pop_switch();
                }
                Edit::Leave { switch, links } => {
                    for n in links {
                        self.topology
                            .add_link(switch, n)
                            .expect("a removed link is valid");
                    }
                }
            }
        }
    }

    /// Applies admitted `edits` to the DT and pool in place, each joiner
    /// embedded from its saved hop row. Returns the pre-batch DT
    /// neighbors of every member an event rewrote (see [`Batch`]) and
    /// each leaver's lost links.
    fn evolve(&mut self, edits: Vec<Edit>) -> (BTreeMap<usize, Vec<usize>>, Vec<Vec<usize>>) {
        let mut replaced = BTreeMap::new();
        let mut leaver_links = Vec::new();
        for edit in edits {
            let rewritten = match edit {
                Edit::Join {
                    switch,
                    capacities,
                    hops,
                } => {
                    // Embed the newcomer against the fixed existing
                    // positions, then move it clear of all of them.
                    let view = Embedding {
                        members: self.dt.members().to_vec(),
                        positions: self.dt.triangulation().points().to_vec(),
                        scale: self.scale,
                    };
                    let position =
                        embed_new_switch(&hops, &view).expect("an admitted joiner reaches members");
                    self.pool.push_switch(capacities);
                    self.dt
                        .join(switch, separate_joiner(&view.positions, position))
                        .expect("a separated joiner sits inside the unit square, apart")
                }
                Edit::Leave { switch, links } => {
                    self.pool.clear_switch(switch);
                    leaver_links.push(links);
                    self.dt
                        .leave(switch)
                        .expect("an admitted leaver is a member, not the last")
                }
            };
            for (m, old) in rewritten {
                replaced.entry(m).or_insert(old);
            }
        }
        (replaced, leaver_links)
    }

    /// Retracts every range extension touching a leaver while the old
    /// tables still route: items come home (or to wherever they belong)
    /// before the switch disappears.
    fn retract_touching(&mut self, left: &[usize]) {
        let touching: Vec<ServerId> = self
            .active_extensions()
            .into_iter()
            .filter(|(o, t)| left.contains(&o.switch) || left.contains(&t.switch))
            .map(|(o, _)| o)
            .collect();
        for original in touching {
            let _ = self.retract_range(original);
        }
    }

    /// An edge node *crashes*: unlike the graceful [`Self::remove_switch`],
    /// every item stored on the switch's servers is lost before the
    /// controller reacts. Used by fault-tolerance experiments to show what
    /// replication (Section VI) buys.
    ///
    /// # Errors
    ///
    /// Same as [`Self::remove_switch`]. A refused crash changes nothing:
    /// the leave is validated before any item is dropped.
    pub fn crash_switch(&mut self, switch: usize) -> Result<(), GredError> {
        let edits = self.admit(&[TopologyChange::Leave { switch }])?;
        self.undo(edits);
        // Data dies with the node.
        let _ = self.store.drain_switch(switch);
        self.remove_switch(switch)
    }

    /// Moves every stored item that is not at home (see
    /// [`Self::home_of`]) there — used after membership changes; only
    /// items whose owner changed move.
    fn migrate_all(&mut self) {
        for (server, id) in self.store.all_locations() {
            if let Some(home) = self.home_of(&id, server) {
                if let Some(payload) = self.store.remove(server, &id) {
                    self.store.insert(home, id, payload);
                }
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
    /// 3. every stored item is at home (see [`Self::home_of`]): on its
    ///    responsible server or on that server's takeover,
    /// 4. every complete relay chain is a shortest physical path: its hop
    ///    count equals the BFS distance between its endpoints (what
    ///    [`Self::apply_delta`] relies on to keep a chain).
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

        // 2. Relay chains complete for every virtual-link entry, and
        // 4. each complete one as short as the topology allows: one BFS
        // per member, ending at its farthest DT neighbor.
        for &u in self.dt.members() {
            let mut chains = Vec::new();
            for entry in self.dataplanes[u].neighbor_entries() {
                if entry.physical {
                    continue;
                }
                let v = entry.neighbor;
                match link_hops(&self.dataplanes, u, entry.via, v) {
                    Ok(hops) => chains.push((v, hops)),
                    Err(BrokenAt(at)) => {
                        problems.push(format!("virtual link {u}->{v}: relay chain broken at {at}"));
                    }
                }
            }
            if chains.is_empty() {
                continue;
            }
            let targets: Vec<usize> = chains.iter().map(|&(v, _)| v).collect();
            let shortest = self.topology.shortest_paths_to(u, &targets);
            for ((v, hops), path) in chains.into_iter().zip(shortest) {
                let distance = path.map(|p| p.len() - 1);
                if distance != Some(hops) {
                    problems.push(format!(
                        "virtual link {u}->{v}: chain of {hops} hops, shortest path {distance:?}"
                    ));
                }
            }
        }

        // 3. Stored items sit where routing will look for them.
        for (server, id) in self.store.all_locations() {
            if let Some(home) = self.home_of(&id, server) {
                problems.push(format!(
                    "item {id} stored on {server}, but its home is {home}"
                ));
            }
        }
        problems
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
        for phase in [
            "landmark_bfs",
            "landmark_embed",
            "regulation",
            "triangulation",
            "installation",
        ] {
            let p = report
                .phase_named(phase)
                .unwrap_or_else(|| panic!("missing phase {phase}"));
            assert!(p.items > 0, "phase {phase} counted no work");
        }
        // The exact embedding makes every member a landmark.
        assert_eq!(report.phase_named("trilateration").unwrap().items, 0);
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
    fn refused_crash_keeps_the_victims_data() {
        // Switch 1 is the line's cut vertex: its crash must be refused
        // before a single one of its items is dropped.
        let topo = Topology::from_links(3, &[(0, 1), (1, 2)]).unwrap();
        let pool = ServerPool::uniform(3, 1, 100_000);
        let mut net = GredNetwork::build(topo, pool, GredConfig::with_iterations(0)).unwrap();
        for i in 0..60 {
            net.place(&DataId::new(format!("cut{i}")), Bytes::new(), 0)
                .unwrap();
        }
        assert!(
            net.server_load(ServerId {
                switch: 1,
                index: 0
            }) > 0
        );
        assert_eq!(net.crash_switch(1), Err(GredError::Disconnected));
        assert!(net.is_member(1));
        assert_eq!(net.store().total_items(), 60);
        assert!(net.verify_invariants().is_empty());
    }

    #[test]
    fn crash_of_a_non_member_is_refused() {
        // Switch 1 is transit and 7 does not exist: neither crash may
        // drop or move an item.
        let topo = Topology::from_links(3, &[(0, 1), (1, 2)]).unwrap();
        let pool = ServerPool::from_capacities(vec![vec![100_000], vec![], vec![100_000]]);
        let mut net = GredNetwork::build(topo, pool, GredConfig::with_iterations(0)).unwrap();
        for i in 0..40 {
            net.place(&DataId::new(format!("nm{i}")), Bytes::new(), 0)
                .unwrap();
        }
        let before = net.store().all_locations();
        for victim in [1, 7] {
            let reason = "switch is not a DT member";
            assert_eq!(
                net.crash_switch(victim),
                Err(GredError::InvalidDynamics { reason })
            );
            assert_eq!(net.store().all_locations(), before);
        }
    }

    #[test]
    fn a_crashed_relay_relays_nothing() {
        // A crash is a leave: the victim loses every link, its plane
        // becomes an empty transit plane, and every chain that ran
        // through it is re-searched on a topology where it has none.
        let net = build_net(30, 11);
        let (v, crashed) = net
            .members()
            .iter()
            .filter(|&&v| net.dataplanes()[v].relay_entries().next().is_some())
            .find_map(|&v| {
                let mut crashed = net.clone();
                crashed.crash_switch(v).ok().map(|()| (v, crashed))
            })
            .expect("a relaying member crashes without a partition");
        assert_eq!(crashed.topology().degree(v), 0);
        let plane = &crashed.dataplanes()[v];
        assert_eq!(plane.neighbor_entries().count(), 0);
        assert_eq!(plane.relay_entries().count(), 0);
        for p in crashed.dataplanes() {
            assert!(
                p.relay_entries().all(|t| t.pred != v && t.succ != v),
                "switch {} still relays through {v}",
                p.id()
            );
        }
        assert!(crashed.verify_invariants().is_empty());
    }

    #[test]
    fn verify_invariants_reports_a_detour_chain() {
        // Members 0 and 3 over a 2-hop path 0-1-3 and a 3-hop one
        // 0-2-4-3: the build installs 0->3 via 1. Rerouting it over the
        // longer path keeps the chain complete but not shortest.
        let topo = Topology::from_links(5, &[(0, 1), (1, 3), (0, 2), (2, 4), (4, 3)]).unwrap();
        let pool = ServerPool::from_capacities(vec![vec![10], vec![], vec![], vec![10], vec![]]);
        let mut net = GredNetwork::build(topo, pool, GredConfig::with_iterations(0)).unwrap();
        assert!(net.verify_invariants().is_empty());
        let entry = *net.dataplanes()[0]
            .neighbor_entries()
            .find(|e| e.neighbor == 3)
            .unwrap();
        assert_eq!((entry.via, entry.physical), (1, false));
        net.dataplane_debug_mut(1).remove_relay(3, 0).unwrap();
        net.dataplane_debug_mut(0)
            .install_neighbor(gred_dataplane::NeighborEntry { via: 2, ..entry });
        for (at, pred, succ) in [(2, 0, 4), (4, 2, 3)] {
            net.dataplane_debug_mut(at)
                .install_relay(gred_dataplane::DtTuple {
                    sour: 0,
                    pred,
                    succ,
                    dest: 3,
                });
        }
        assert_eq!(
            net.verify_invariants(),
            vec!["virtual link 0->3: chain of 3 hops, shortest path Some(2)".to_string()]
        );
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
    fn apply_delta_join_batch_routes_like_a_full_install() {
        // Joins only. A joiner can open an equal-length path that a
        // from-scratch BFS finds first, so relay tables may differ from a
        // full installation on the same state; the decisions may not:
        // from every member, every key takes the same overlay route over
        // the same number of physical hops.
        use crate::plane::forwarding::route;
        let mut net = build_net(16, 31);
        for i in 0..50 {
            net.place(&DataId::new(format!("jb{i}")), Bytes::new(), i % 16)
                .unwrap();
        }
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
        let report = net.apply_delta(&batch).unwrap();
        assert_eq!(report.joined, vec![16, 17]);
        assert!(report.left.is_empty());
        assert!(report.affected.len() < net.members().len(), "localized");
        // Check 3: every placed key migrated home.
        assert!(net.verify_invariants().is_empty());

        let (full, _) = install_dataplanes(net.topology(), net.pool(), net.dt()).unwrap();
        for i in 0..200 {
            let id = DataId::new(format!("jr{i}"));
            let position = net.position_of_id(&id);
            for &m in net.members() {
                let delta = route(net.dataplanes(), m, position, &id).unwrap();
                let reference = route(&full, m, position, &id).unwrap();
                assert_eq!(delta.overlay, reference.overlay, "key {i} from {m}");
                assert_eq!(
                    delta.physical_hops(),
                    reference.physical_hops(),
                    "key {i} from {m}"
                );
            }
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
        // apply_delta computes (trigger 1 over the rewritten lists only,
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
            let mut next = net.clone();
            let Ok(edits) = next.admit(&batch) else {
                continue;
            };
            let (joined, left) = joined_and_left(&edits);
            let (replaced, leaver_links) = next.evolve(edits);
            let everyone: BTreeMap<usize, Vec<usize>> = net
                .members()
                .iter()
                .map(|&m| (m, net.dt.neighbors_of(m)))
                .collect();
            let batch_view = |replaced| Batch {
                new_dt: &next.dt,
                new_topo: &next.topology,
                replaced,
                planes: &net.dataplanes,
                joiners: &joined,
                leavers: &left,
                leaver_links: &leaver_links,
                longest_link: net.longest_link,
            };
            let oracle = affected_with(&batch_view(&everyone), shortened_anywhere);
            let bounded = affected_members(&batch_view(&replaced));
            assert_eq!(bounded, oracle, "batch {batch_no}");
            let near_only = affected_with(&batch_view(&everyone), |_, _| Vec::new());
            shortcuts += oracle.members.len() - near_only.members.len();
            let report = net.apply_delta(&batch).unwrap();
            assert_eq!(
                report.affected,
                oracle.members.into_iter().collect::<Vec<_>>()
            );
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
