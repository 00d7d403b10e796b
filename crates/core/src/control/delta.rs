//! Incremental ("delta") control-plane updates for joins and leaves.
//!
//! Every membership change is a [`crate::GredNetwork::apply_delta`]
//! batch (`add_switch`, `remove_switch` and `crash_switch` are one-event
//! batches); only the build runs the full installation, which searches
//! every member's virtual-link paths. This module is the control-plane
//! half of `apply_delta`: it decides which members are *affected* by a
//! batch of joins/leaves and, inside each, which virtual links are stale;
//! only those are searched again.
//!
//! Every step of a batch costs what the change touches, not what the
//! network holds, and nothing is copied whole. An admission pass applies
//! the batch to the live topology, journaling each edit, and decides
//! every refusal there; a refused batch is undone edit by edit, so it
//! leaves the network untouched. The DT and server pool then take the
//! batch in place, each join and leave re-triangulating only its own
//! cell ([`DtGraph::join`], [`DtGraph::leave`]) and reporting the
//! neighbor lists it rewrote, so only those members are checked for
//! changed DT neighbors; a joiner is separated from the members alone;
//! and the installed planes are patched in place. What still costs
//! O(members) per event is a pass over flat arrays:
//! [`crate::control::embedding::embed_new_switch`]'s stress descent and
//! the member positions it reads, the joiner's BFS (one at admission for
//! the descent, one for trigger 4), a leave's connectivity BFS, and a
//! leave's renumbering of the triangulation's points, triangles and
//! neighbor lists.
//!
//! A member is affected when any of the following holds:
//!
//! 1. its DT neighbor set changed (this covers new members and every
//!    survivor adjacent to a joiner or leaver in either triangulation —
//!    an insertion changes only the joiner's and its new neighbors'
//!    sets, a deletion only its old neighbors', so only those are
//!    compared),
//! 2. it gained a physical link to a joiner, or lost one to a leaver —
//!    physical member neighbors are greedy candidates even when they are
//!    not DT-adjacent, so the candidate set changes either way,
//! 3. one of its virtual-link relay chains ran through a leaver (the
//!    leaver's own relay table names exactly the broken `(sour, dest)`
//!    links), or
//! 4. a joiner strictly shortens one of its virtual-link paths — the
//!    from-scratch BFS would now route through the newcomer.
//!
//! Trigger 4 scans only members near the joiner. Every installed chain
//! is a shortest path of the current topology (check 4 of
//! [`crate::GredNetwork::verify_invariants`]; the keep rule below keeps
//! it true), so a link's two directions have the same length, at most
//! `L`, the bound [`crate::GredNetwork`] keeps on installed link length
//! (the build's full installation sets it, each delta raises it to its
//! longest new path). A link `u`–`v` shortened through joiner `j` has
//! `hops(j, u) + hops(j, v) < L`, so one endpoint lies within
//! `⌊(L − 1)/2⌋` hops of `j`, and scanning that endpoint's entries finds
//! the link; both of its directions are named.
//!
//! # The unit of reuse is the link
//!
//! Inside an affected member `u`, the virtual link to `v` is kept
//! verbatim — its neighbor entry and every relay tuple of its chain —
//! when all of these hold:
//!
//! - `v` is still a DT neighbor of `u` with no direct link,
//! - no leaver lies on the installed chain (trigger 3 did not name it),
//! - no joiner `j` strictly shortens it, that is, `hops(j, u) +
//!   hops(j, v)` is at least the chain's length (trigger 4 did not name
//!   it).
//!
//! Everything else — new DT neighbors, chains through a leaver, and
//! shortened links in both directions — is stripped and searched, all of
//! a member's targets in one early-terminating BFS; a member with none
//! runs no BFS. Physical entries are rewritten from the new topology.
//!
//! A kept chain is still a shortest path. Before the batch it was one,
//! of length `d`. A leave only removes links, so a new path that avoids
//! every joiner was a path before and is at least `d` long; a new path
//! through a joiner `j` is at least `hops(j, u) + hops(j, v) ≥ d` long.
//! With no leaver on it, the chain itself is still there. So stretch,
//! load, owners and path lengths are what a full installation gives; only the
//! choice between equal-length chains may differ.
//!
//! Everything outside the affected set keeps its installed entries
//! verbatim too. The invariant versus a full installation on the same
//! state is therefore
//! *decision equivalence* — same members, positions, DT, owners, and
//! path lengths — not bit-equality of relay tables.

use crate::control::dt::DtGraph;
use crate::control::installer::virtual_neighbors;
use gred_dataplane::{link_hops, SwitchDataplane};
use gred_net::Topology;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// One churn event in a batch handed to
/// [`crate::GredNetwork::apply_delta`]. Events apply in order, so a later
/// event may reference a switch introduced by an earlier `Join`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyChange {
    /// A new edge node joins: a fresh switch (taking the next free id)
    /// linked to `links`, carrying servers with the given `capacities`.
    Join {
        /// Existing switches the newcomer is wired to.
        links: Vec<usize>,
        /// Capacities of the newcomer's servers (must be non-empty).
        capacities: Vec<u64>,
    },
    /// Edge node `switch` leaves gracefully: its data is rehomed, its
    /// servers and links removed.
    Leave {
        /// The departing member switch.
        switch: usize,
    },
}

/// What a delta update did — the observability record backing the
/// `repro build-report` output and the scaling benchmarks.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// Switch ids created by `Join` events, in order.
    pub joined: Vec<usize>,
    /// Switch ids removed by `Leave` events, in order.
    pub left: Vec<usize>,
    /// Members whose forwarding state was recomputed (sorted). Everyone
    /// else kept their installed entries untouched.
    pub affected: Vec<usize>,
    /// Total members after the batch.
    pub members_total: usize,
    /// Virtual links searched again (the rest of the affected members'
    /// links kept their chains).
    pub links_searched: usize,
    /// Stale relay tuples removed while stripping affected chains.
    pub relay_tuples_removed: usize,
    /// Wall time of the whole delta application.
    pub wall: Duration,
}

impl DeltaReport {
    /// Fraction of members whose state was reused without recomputation.
    pub fn reuse_ratio(&self) -> f64 {
        if self.members_total == 0 {
            return 0.0;
        }
        1.0 - self.affected.len() as f64 / self.members_total as f64
    }
}

/// One batch as the triggers see it: the control plane after it, the
/// planes installed before it, and what the batch did.
pub(crate) struct Batch<'a> {
    pub new_dt: &'a DtGraph,
    pub new_topo: &'a Topology,
    /// For every member whose DT neighbor list an event rewrote, its list
    /// before the batch (a joiner's: the one it joined with), by switch
    /// id. Every other member kept its list.
    pub replaced: &'a BTreeMap<usize, Vec<usize>>,
    /// The pre-batch installed planes; a joiner has none.
    pub planes: &'a [SwitchDataplane],
    pub joiners: &'a [usize],
    pub leavers: &'a [usize],
    /// Each leaver's physical links when it left, parallel to `leavers`.
    pub leaver_links: &'a [Vec<usize>],
    /// Upper bound on the hop length of every installed virtual link.
    pub longest_link: usize,
}

/// What a batch invalidates (module docs).
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Affected {
    /// Members whose forwarding state is revisited (triggers 1–4).
    pub members: BTreeSet<usize>,
    /// Installed virtual links `(sour, dest)` that must be searched
    /// again: those through a leaver (trigger 3) and those a joiner
    /// strictly shortens, in both directions (trigger 4). Every other
    /// installed link of an affected member keeps its chain.
    pub stale: BTreeSet<(usize, usize)>,
}

/// What `batch` invalidates: the members of `batch.new_dt` whose
/// forwarding state must be revisited and their stale links (see the
/// module docs for the four triggers). A joiner that also left within
/// the batch has no plane and is skipped.
pub(crate) fn affected_members(batch: &Batch) -> Affected {
    affected_with(batch, shortened_near)
}

/// [`affected_members`] with trigger 4's links named by `shortened`.
pub(crate) fn affected_with(
    batch: &Batch,
    shortened: impl Fn(&Batch, usize) -> Vec<(usize, usize)>,
) -> Affected {
    let Batch {
        new_dt,
        new_topo,
        replaced,
        planes,
        joiners,
        leavers,
        leaver_links,
        ..
    } = *batch;
    let mut hit = Affected::default();

    // (1) The member is new, or its DT adjacency changed: only a list an
    // event rewrote can differ from the one before the batch.
    hit.members
        .extend(joiners.iter().copied().filter(|&j| new_dt.is_member(j)));
    for (&m, old) in replaced {
        if new_dt.is_member(m) && *old != new_dt.neighbors_of(m) {
            hit.members.insert(m);
        }
    }

    // (2) Members wired directly to a joiner — and members who *were*
    // wired to a leaver: a physical member neighbor is a greedy
    // candidate entry even without a DT edge, so it must be dropped or
    // added whenever the link set changes.
    for &j in joiners {
        if j >= new_topo.switch_count() {
            continue;
        }
        hit.members
            .extend(new_topo.neighbors(j).filter(|&nb| new_dt.is_member(nb)));
    }
    for (l, links) in leavers.iter().zip(leaver_links) {
        // A switch that joined in this batch had no link before it and
        // has none after: no member's candidates changed.
        if joiners.contains(l) {
            continue;
        }
        hit.members
            .extend(links.iter().copied().filter(|&nb| new_dt.is_member(nb)));
    }

    // (3) Chains through a leaver: every intermediate of a virtual-link
    // path holds the path's tuple, so the leaver's relay table lists
    // exactly the links whose chains it carried.
    for &l in leavers {
        let Some(plane) = planes.get(l) else { continue };
        for t in plane.relay_entries().filter(|t| new_dt.is_member(t.sour)) {
            hit.members.insert(t.sour);
            hit.stale.insert((t.sour, t.dest));
        }
    }

    // (4) Virtual links strictly shortened by a joiner. Both directions
    // are searched again, so the two stay the same length.
    for &j in joiners {
        if j < new_topo.switch_count() {
            for (u, v) in shortened(batch, j) {
                hit.members.insert(u);
                hit.stale.insert((u, v));
            }
        }
    }
    hit
}

/// Trigger 4 for joiner `j`: both directions of every virtual link that
/// a path through `j` strictly shortens, read off the members within
/// `⌊(L − 1)/2⌋` hops of `j` (module docs). A link is walked only when a
/// path through `j` could beat the bound at all.
fn shortened_near(batch: &Batch, j: usize) -> Vec<(usize, usize)> {
    let hops = batch.new_topo.bfs_hops(j);
    let radius = batch.longest_link.saturating_sub(1) / 2;
    let mut out = Vec::new();
    for u in (0..hops.len()).filter(|&u| hops[u] as usize <= radius) {
        let Some(plane) = batch.planes.get(u) else {
            continue;
        };
        if !batch.new_dt.is_member(u) {
            continue;
        }
        for entry in plane.neighbor_entries().filter(|e| !e.physical) {
            let v = entry.neighbor;
            if hops[v] == u32::MAX || !batch.new_dt.is_member(v) {
                continue;
            }
            let through = hops[u] as usize + hops[v] as usize;
            if through < batch.longest_link
                && chain_len(batch.planes, u, entry.via, v).is_some_and(|old| through < old)
            {
                out.extend([(u, v), (v, u)]);
            }
        }
    }
    out
}

/// Trigger 4 over every member's links, however far from `j`: the
/// oracle [`shortened_near`] is tested against.
#[cfg(test)]
pub(crate) fn shortened_anywhere(batch: &Batch, j: usize) -> Vec<(usize, usize)> {
    let hops = batch.new_topo.bfs_hops(j);
    let mut out = Vec::new();
    for &u in batch.new_dt.members() {
        let Some(plane) = batch.planes.get(u) else {
            continue;
        };
        for entry in plane.neighbor_entries().filter(|e| !e.physical) {
            let v = entry.neighbor;
            if hops[u] == u32::MAX || hops[v] == u32::MAX {
                continue;
            }
            let through = hops[u] as usize + hops[v] as usize;
            if chain_len(batch.planes, u, entry.via, v).is_some_and(|old| through < old) {
                out.extend([(u, v), (v, u)]);
            }
        }
    }
    out
}

/// Hop length of member `u`'s installed virtual-link chain to `v`
/// starting at `via`. `None` if the chain is broken or loops (defensive;
/// installed chains never do).
fn chain_len(planes: &[SwitchDataplane], u: usize, via: usize, v: usize) -> Option<usize> {
    link_hops(planes, u, via, v).ok()
}

/// Affected member `u`'s virtual links after the batch, split by the keep
/// rule (module docs): `(kept, searched)`. A link is kept when `u` has
/// its chain installed and `stale` does not name it.
pub(crate) fn split_links(
    batch: &Batch,
    stale: &BTreeSet<(usize, usize)>,
    u: usize,
) -> (Vec<usize>, Vec<usize>) {
    let installed = |v: usize| {
        batch
            .planes
            .get(u)
            .is_some_and(|p| p.neighbor_entries().any(|e| e.neighbor == v && !e.physical))
    };
    virtual_neighbors(batch.new_topo, batch.new_dt, u)
        .into_iter()
        .partition(|&v| installed(v) && !stale.contains(&(u, v)))
}

/// Removes member `u`'s outgoing forwarding state except its links to
/// `keep`: every other neighbor entry, plus the relay tuples of each of
/// those virtual-link chains (walked via the tuples themselves, removing
/// as it goes). Returns the number of relay tuples removed. Planes of
/// *other* members are untouched except for `u`'s tuples stored on them.
pub(crate) fn strip_member_state(
    planes: &mut [SwitchDataplane],
    u: usize,
    keep: &[usize],
) -> usize {
    let entries: Vec<(usize, usize, bool)> = planes[u]
        .neighbor_entries()
        .filter(|e| !keep.contains(&e.neighbor))
        .map(|e| (e.neighbor, e.via, e.physical))
        .collect();
    let mut removed = 0;
    for (v, via, physical) in entries {
        planes[u].remove_neighbor(v);
        if physical {
            continue;
        }
        let mut at = via;
        let mut guard = planes.len();
        while at != v && guard > 0 {
            let Some(t) = planes[at].remove_relay(v, u) else {
                break;
            };
            removed += 1;
            at = t.succ;
            guard -= 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use gred_dataplane::{DtTuple, NeighborEntry};
    use gred_geometry::Point2;

    /// Line 0-1-2-3 with members {0, 3}: one virtual link each way,
    /// relayed by 1 and 2.
    fn line_planes() -> (Topology, DtGraph, Vec<SwitchDataplane>) {
        let topo = Topology::from_links(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let dt = DtGraph::build(
            vec![0, 3],
            &[Point2::new(0.25, 0.5), Point2::new(0.75, 0.5)],
        )
        .unwrap();
        let mut planes: Vec<SwitchDataplane> = vec![
            SwitchDataplane::new(0, Point2::new(0.25, 0.5), 1),
            SwitchDataplane::transit(1),
            SwitchDataplane::transit(2),
            SwitchDataplane::new(3, Point2::new(0.75, 0.5), 1),
        ];
        for (u, v) in [(0usize, 3usize), (3, 0)] {
            let path: Vec<usize> = if u == 0 {
                vec![0, 1, 2, 3]
            } else {
                vec![3, 2, 1, 0]
            };
            planes[u].install_neighbor(NeighborEntry {
                neighbor: v,
                position: dt.position_of(v).unwrap(),
                via: path[1],
                physical: false,
            });
            for k in 1..path.len() - 1 {
                planes[path[k]].install_relay(DtTuple {
                    sour: u,
                    pred: path[k - 1],
                    succ: path[k + 1],
                    dest: v,
                });
            }
        }
        (topo, dt, planes)
    }

    /// [`affected_members`] with every member of the old DT replaced
    /// and no bound on link length: triggers 1 and 4 check everyone.
    fn affected(
        old_dt: &DtGraph,
        new_dt: &DtGraph,
        old_topo: &Topology,
        new_topo: &Topology,
        planes: &[SwitchDataplane],
        joiners: &[usize],
        leavers: &[usize],
    ) -> Vec<usize> {
        let replaced: BTreeMap<usize, Vec<usize>> = old_dt
            .members()
            .iter()
            .map(|&m| (m, old_dt.neighbors_of(m)))
            .collect();
        let leaver_links: Vec<Vec<usize>> = leavers
            .iter()
            .map(|&l| old_topo.neighbors(l).collect())
            .collect();
        affected_members(&Batch {
            new_dt,
            new_topo,
            replaced: &replaced,
            planes,
            joiners,
            leavers,
            leaver_links: &leaver_links,
            longest_link: planes.len(),
        })
        .members
        .into_iter()
        .collect()
    }

    #[test]
    fn chain_len_walks_installed_tuples() {
        let (_, _, planes) = line_planes();
        assert_eq!(chain_len(&planes, 0, 1, 3), Some(3));
        assert_eq!(chain_len(&planes, 3, 2, 0), Some(3));
        // No chain for a pair that was never installed.
        assert_eq!(chain_len(&planes, 1, 2, 3), None);
    }

    #[test]
    fn strip_removes_both_entries_and_chain_tuples() {
        let (_, _, mut planes) = line_planes();
        let removed = strip_member_state(&mut planes, 0, &[]);
        assert_eq!(removed, 2, "tuples at switches 1 and 2");
        assert_eq!(planes[0].neighbor_entries().count(), 0);
        assert_eq!(planes[1].relay_lookup(3, 0), None);
        assert_eq!(planes[2].relay_lookup(3, 0), None);
        // The reverse direction (sour = 3) is untouched.
        assert!(planes[1].relay_lookup(0, 3).is_some());
        assert_eq!(planes[3].neighbor_entries().count(), 1);
    }

    #[test]
    fn leaver_relay_table_flags_transit_victims() {
        let (topo, dt, planes) = line_planes();
        // Switch 2 "leaves" (it is pure transit here, but the trigger
        // logic only reads its relay table): both chain sources flagged.
        let affected = affected(&dt, &dt, &topo, &topo, &planes, &[], &[2]);
        assert_eq!(affected, vec![0, 3]);
    }

    #[test]
    fn unchanged_dt_and_no_churn_affects_nobody() {
        let (topo, dt, planes) = line_planes();
        let affected = affected(&dt, &dt, &topo, &topo, &planes, &[], &[]);
        assert!(affected.is_empty());
    }

    #[test]
    fn shortcut_joiner_flags_both_endpoints() {
        let (old_topo, dt, planes) = line_planes();
        // Joiner 4 wired to 0 and 3 directly: the 3-hop virtual link
        // 0↔3 is strictly shortened to 2 hops through it.
        let topo = Topology::from_links(5, &[(0, 1), (1, 2), (2, 3), (4, 0), (4, 3)]).unwrap();
        let affected = affected(&dt, &dt, &old_topo, &topo, &planes, &[4], &[]);
        assert!(affected.contains(&0) && affected.contains(&3));
    }

    #[test]
    fn equal_length_alternative_does_not_trigger_reinstall() {
        let (old_topo, dt, planes) = line_planes();
        // Joiner 4 wired to 1 and 2: the path through it is still 3
        // hops — no strict improvement, nobody reinstalls.
        let topo = Topology::from_links(5, &[(0, 1), (1, 2), (2, 3), (4, 1), (4, 2)]).unwrap();
        let affected = affected(&dt, &dt, &old_topo, &topo, &planes, &[4], &[]);
        assert!(affected.is_empty());
    }

    #[test]
    fn physical_neighbor_of_leaver_is_affected_without_dt_change() {
        // Triangle of members 0-1-2 all physically linked; if 2 leaves,
        // 0 and 1 must drop their physical candidate entries for it even
        // though we pass an unchanged DT here.
        let topo = Topology::from_links(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let dt = DtGraph::build(
            vec![0, 1],
            &[Point2::new(0.25, 0.5), Point2::new(0.75, 0.5)],
        )
        .unwrap();
        let planes = vec![
            SwitchDataplane::new(0, Point2::new(0.25, 0.5), 1),
            SwitchDataplane::new(1, Point2::new(0.75, 0.5), 1),
            SwitchDataplane::transit(2),
        ];
        let mut isolated = topo.clone();
        isolated.isolate(2);
        let affected = affected(&dt, &dt, &topo, &isolated, &planes, &[], &[2]);
        assert_eq!(affected, vec![0, 1]);
    }

    #[test]
    fn reuse_ratio_reflects_affected_share() {
        let report = DeltaReport {
            joined: vec![10],
            left: vec![],
            affected: vec![3, 7, 10],
            members_total: 12,
            links_searched: 4,
            relay_tuples_removed: 5,
            wall: Duration::from_millis(1),
        };
        assert!((report.reuse_ratio() - 0.75).abs() < 1e-12);
    }
}
