//! Forwarding-entry installation (paper Sections III–IV).
//!
//! The controller proactively installs three kinds of state:
//!
//! 1. a neighbor entry per *physical* member neighbor — one link away,
//! 2. a neighbor entry per *multi-hop DT* neighbor, with the first hop of
//!    its virtual-link path,
//! 3. a relay tuple `<sour, pred, succ, dest>` at every intermediate
//!    switch of each virtual-link path (transit switches included).
//!
//! No per-flow entries exist anywhere — forwarding state depends only on
//! the DT, which is what keeps table sizes independent of traffic
//! (Fig. 9(d)).

use crate::control::dt::DtGraph;
use crate::error::GredError;
use gred_dataplane::{DtTuple, NeighborEntry, SwitchDataplane};
use gred_net::{ServerPool, Topology};

/// Builds one data plane per switch and installs all GRED forwarding
/// entries. Index `i` of the returned vector is switch `i`'s data plane;
/// switches without servers get transit data planes (relay tuples only).
/// Also returns the hop length of the longest virtual link installed.
///
/// Members are handled in ascending order, and path search breaks BFS
/// ties toward smaller switch indices, so the installed tables are a
/// pure function of the topology, pool and DT.
///
/// # Errors
///
/// Returns [`GredError::Disconnected`] if a DT edge has no physical path.
pub fn install_dataplanes(
    topo: &Topology,
    pool: &ServerPool,
    dt: &DtGraph,
) -> Result<(Vec<SwitchDataplane>, usize), GredError> {
    let n = topo.switch_count();
    let mut planes: Vec<SwitchDataplane> = (0..n)
        .map(|s| match dt.position_of(s) {
            Some(pos) if pool.servers_at(s) > 0 => SwitchDataplane::new(s, pos, pool.servers_at(s)),
            _ => SwitchDataplane::transit(s),
        })
        .collect();

    // Per member, the shortest physical path to each multi-hop DT
    // neighbor — the dominant cost of installation — then its entries.
    let mut longest = 0;
    for &u in dt.members() {
        let paths = virtual_paths(topo, u, &virtual_neighbors(topo, dt, u))
            .ok_or(GredError::Disconnected)?;
        longest = longest.max(apply_member_entries(&mut planes, topo, dt, u, paths));
    }
    for plane in &mut planes {
        plane.shrink_to_fit();
    }
    Ok((planes, longest))
}

/// Member `u`'s multi-hop DT neighbors: the DT neighbors it has no
/// direct link to, each reached over a virtual link.
pub(crate) fn virtual_neighbors(topo: &Topology, dt: &DtGraph, u: usize) -> Vec<usize> {
    dt.neighbors_of(u)
        .into_iter()
        .filter(|&v| !topo.has_link(u, v))
        .collect()
}

/// The shortest physical path from member `u` to each of `targets`,
/// computed in a single early-terminating multi-target BFS (identical
/// paths to per-target [`Topology::shortest_path`], one graph traversal
/// instead of one per target; no traversal at all for no targets).
/// `None` when any target is unreachable.
pub(crate) fn virtual_paths(
    topo: &Topology,
    u: usize,
    targets: &[usize],
) -> Option<Vec<(usize, Vec<usize>)>> {
    if targets.is_empty() {
        return Some(Vec::new());
    }
    topo.shortest_paths_to(u, targets)
        .into_iter()
        .zip(targets)
        .map(|(path, &v)| path.map(|p| (v, p)))
        .collect()
}

/// Applies member `u`'s forwarding entries to the data planes: physical
/// member-neighbor entries, multi-hop DT neighbor entries, and relay
/// tuples at every intermediate switch of each virtual-link path in
/// `member_paths`. Entries for other neighbors are left as they are.
/// Returns the hop length of the longest path in `member_paths` (0 if
/// none).
pub(crate) fn apply_member_entries(
    planes: &mut [SwitchDataplane],
    topo: &Topology,
    dt: &DtGraph,
    u: usize,
    member_paths: Vec<(usize, Vec<usize>)>,
) -> usize {
    let longest = member_paths
        .iter()
        .map(|(_, p)| p.len() - 1)
        .max()
        .unwrap_or(0);
    // Physical neighbors that are members: direct greedy candidates
    // (Algorithm 2 considers physical neighbors alongside DT ones).
    for v in topo.neighbors(u) {
        if let Some(pos) = dt.position_of(v) {
            planes[u].install_neighbor(NeighborEntry {
                neighbor: v,
                position: pos,
                via: v,
                physical: true,
            });
        }
    }
    // DT neighbors: direct links were installed above; multi-hop ones
    // become virtual links along their precomputed shortest path.
    for (v, path) in member_paths {
        let via = path[1];
        planes[u].install_neighbor(NeighborEntry {
            neighbor: v,
            position: dt.position_of(v).expect("DT neighbor is a member"),
            via,
            physical: false,
        });
        // Relay tuples at every intermediate switch.
        for k in 1..path.len() - 1 {
            planes[path[k]].install_relay(DtTuple {
                sour: u,
                pred: path[k - 1],
                succ: path[k + 1],
                dest: v,
            });
        }
    }
    longest
}

#[cfg(test)]
mod tests {
    use super::*;
    use gred_geometry::Point2;

    /// A line of 4 switches where only the endpoints store data: their DT
    /// edge must become a virtual link relayed by the transit middle.
    fn line_with_transit() -> (Topology, ServerPool, DtGraph) {
        let topo = Topology::from_links(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let pool = ServerPool::from_capacities(vec![vec![10], vec![], vec![], vec![10]]);
        let dt = DtGraph::build(
            vec![0, 3],
            &[Point2::new(0.25, 0.5), Point2::new(0.75, 0.5)],
        )
        .unwrap();
        (topo, pool, dt)
    }

    #[test]
    fn virtual_link_installs_relays() {
        let (topo, pool, dt) = line_with_transit();
        let planes = install_dataplanes(&topo, &pool, &dt).unwrap().0;

        // Endpoint 0 sees 3 as a non-physical neighbor via 1.
        let entries: Vec<&NeighborEntry> = planes[0].neighbor_entries().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].neighbor, 3);
        assert_eq!(entries[0].via, 1);
        assert!(!entries[0].physical);

        // Transit switches 1 and 2 relay toward 3 (and back toward 0).
        assert_eq!(planes[1].relay_next(3, 0), Some(2));
        assert_eq!(planes[2].relay_next(3, 0), Some(3));
        assert_eq!(planes[2].relay_next(0, 3), Some(1));
        assert_eq!(planes[1].relay_next(0, 3), Some(0));
    }

    #[test]
    fn physical_members_get_direct_entries() {
        let topo = Topology::from_links(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let pool = ServerPool::uniform(3, 2, 100);
        let dt = DtGraph::build(
            vec![0, 1, 2],
            &[
                Point2::new(0.2, 0.2),
                Point2::new(0.8, 0.2),
                Point2::new(0.5, 0.8),
            ],
        )
        .unwrap();
        let planes = install_dataplanes(&topo, &pool, &dt).unwrap().0;
        for plane in planes.iter().take(3) {
            let entries: Vec<&NeighborEntry> = plane.neighbor_entries().collect();
            assert_eq!(entries.len(), 2, "triangle: each member sees both others");
            assert!(entries.iter().all(|e| e.physical));
            assert_eq!(plane.entry_breakdown().1, 0, "no relays needed");
        }
    }

    #[test]
    fn transit_plane_has_no_neighbors() {
        let (topo, pool, dt) = line_with_transit();
        let planes = install_dataplanes(&topo, &pool, &dt).unwrap().0;
        assert_eq!(planes[1].neighbor_entries().count(), 0);
        assert_eq!(planes[1].server_count(), 0);
    }

    #[test]
    fn disconnected_dt_edge_errors() {
        let topo = Topology::new(2); // no physical link at all
        let pool = ServerPool::uniform(2, 1, 10);
        let dt = DtGraph::build(
            vec![0, 1],
            &[Point2::new(0.25, 0.5), Point2::new(0.75, 0.5)],
        )
        .unwrap();
        assert_eq!(
            install_dataplanes(&topo, &pool, &dt).unwrap_err(),
            GredError::Disconnected
        );
    }

    #[test]
    fn member_physical_neighbor_not_in_dt_still_candidate() {
        // Square of members: DT of 4 corner positions has 5 edges (one
        // diagonal); the other diagonal pair are physical neighbors in the
        // topology and must still appear as greedy candidates.
        let topo =
            Topology::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]).unwrap();
        let pool = ServerPool::uniform(4, 1, 10);
        let dt = DtGraph::build(
            vec![0, 1, 2, 3],
            &[
                Point2::new(0.1, 0.1),
                Point2::new(0.9, 0.1),
                Point2::new(0.9, 0.9),
                Point2::new(0.1, 0.9),
            ],
        )
        .unwrap();
        let planes = install_dataplanes(&topo, &pool, &dt).unwrap().0;
        for plane in planes.iter().take(4) {
            assert_eq!(
                plane.neighbor_entries().count(),
                3,
                "every corner sees all three others (physical ∪ DT)"
            );
        }
    }
}
