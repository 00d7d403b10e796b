//! Undirected switch-level topology with hop-count shortest paths.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Error manipulating a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A switch index was out of range.
    SwitchOutOfRange {
        /// The offending switch index.
        switch: usize,
        /// Number of switches in the topology.
        count: usize,
    },
    /// Attempted to link a switch to itself.
    SelfLoop {
        /// The switch that was linked to itself.
        switch: usize,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::SwitchOutOfRange { switch, count } => {
                write!(f, "switch {switch} out of range (topology has {count})")
            }
            TopologyError::SelfLoop { switch } => {
                write!(f, "switch {switch} cannot link to itself")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// An undirected graph of switches identified by `0..switch_count()`.
///
/// Links are unweighted; network distance is the hop count, matching the
/// paper's shortest-path matrix `L` (Section IV-A).
///
/// ```
/// use gred_net::Topology;
/// # fn main() -> Result<(), gred_net::TopologyError> {
/// let mut t = Topology::new(3);
/// t.add_link(0, 1)?;
/// t.add_link(1, 2)?;
/// assert_eq!(t.shortest_path_matrix()[0][2], 2);
/// # Ok(())
/// # }
/// ```
///
/// Each switch's neighbors are a sorted, duplicate-free `Vec`: iteration
/// is ascending (the BFS tie-break every path search relies on), a link
/// test is a binary search, and a clone is one copy per switch. There
/// are no serde derives: a decoded neighbor list would bypass that
/// invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    adj: Vec<Vec<usize>>,
}

impl Topology {
    /// An edgeless topology with `n` switches.
    pub fn new(n: usize) -> Self {
        Topology {
            adj: vec![Vec::new(); n],
        }
    }

    /// Builds a topology from an explicit link list.
    ///
    /// # Errors
    ///
    /// Returns an error if any endpoint is out of range or a link is a
    /// self-loop. Duplicate links are tolerated.
    pub fn from_links(n: usize, links: &[(usize, usize)]) -> Result<Self, TopologyError> {
        let mut t = Topology::new(n);
        for &(a, b) in links {
            t.add_link(a, b)?;
        }
        Ok(t)
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.adj.len()
    }

    /// Adds an undirected link between `a` and `b` (idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::SwitchOutOfRange`] or
    /// [`TopologyError::SelfLoop`].
    pub fn add_link(&mut self, a: usize, b: usize) -> Result<(), TopologyError> {
        let count = self.adj.len();
        for s in [a, b] {
            if s >= count {
                return Err(TopologyError::SwitchOutOfRange { switch: s, count });
            }
        }
        if a == b {
            return Err(TopologyError::SelfLoop { switch: a });
        }
        for (s, t) in [(a, b), (b, a)] {
            if let Err(at) = self.adj[s].binary_search(&t) {
                self.adj[s].insert(at, t);
            }
        }
        Ok(())
    }

    /// Whether switches `a` and `b` share a link.
    pub fn has_link(&self, a: usize, b: usize) -> bool {
        self.adj.get(a).is_some_and(|s| s.binary_search(&b).is_ok())
    }

    /// The physical neighbors of switch `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn neighbors(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[s].iter().copied()
    }

    /// Degree of switch `s`.
    pub fn degree(&self, s: usize) -> usize {
        self.adj[s].len()
    }

    /// All links as `(smaller, larger)` pairs, sorted.
    pub fn links(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (a, ns) in self.adj.iter().enumerate() {
            for &b in ns {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// Total number of links.
    pub fn link_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Hop distances from `source` to every switch (`u32::MAX` when
    /// unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn bfs_hops(&self, source: usize) -> Vec<u32> {
        assert!(source < self.adj.len(), "source {source} out of range");
        let mut dist = vec![u32::MAX; self.adj.len()];
        dist[source] = 0;
        let mut q = VecDeque::from([source]);
        while let Some(u) = q.pop_front() {
            for &v in &self.adj[u] {
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// The full all-pairs shortest-path (hop) matrix — the matrix `L` the
    /// M-position algorithm embeds.
    pub fn shortest_path_matrix(&self) -> Vec<Vec<u32>> {
        (0..self.adj.len()).map(|s| self.bfs_hops(s)).collect()
    }

    /// One shortest path from `a` to `b` (inclusive of both endpoints),
    /// breaking ties toward smaller switch indices. `None` when unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn shortest_path(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        self.shortest_paths_to(a, &[b]).pop().flatten()
    }

    /// Shortest paths from `a` to each of `targets` in a single BFS that
    /// terminates as soon as every target is discovered.
    ///
    /// [`Topology::shortest_path`] is its one-target case. The BFS visits
    /// neighbors in ascending order, so the predecessor tree (and
    /// therefore every tie-break) does not depend on which other targets
    /// are asked for. Entry `i` is `None` when `targets[i]` is
    /// unreachable.
    ///
    /// The controller's installer asks for paths from one member to all of
    /// its DT neighbors; doing that in one bounded BFS instead of one full
    /// BFS per neighbor is what keeps installation sub-quadratic at 10k
    /// switches.
    ///
    /// # Panics
    ///
    /// Panics if `a` or any target is out of range.
    pub fn shortest_paths_to(&self, a: usize, targets: &[usize]) -> Vec<Option<Vec<usize>>> {
        assert!(a < self.adj.len(), "endpoint out of range");
        for &t in targets {
            assert!(t < self.adj.len(), "endpoint out of range");
        }
        let mut remaining = 0usize;
        let mut wanted = vec![false; self.adj.len()];
        for &t in targets {
            if t != a && !wanted[t] {
                wanted[t] = true;
                remaining += 1;
            }
        }
        let mut prev = vec![usize::MAX; self.adj.len()];
        let mut seen = vec![false; self.adj.len()];
        seen[a] = true;
        // Every target is `a` itself: there is nothing to search for.
        let mut q = VecDeque::from_iter((remaining > 0).then_some(a));
        'bfs: while let Some(u) = q.pop_front() {
            for &v in &self.adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    prev[v] = u;
                    if wanted[v] {
                        remaining -= 1;
                        if remaining == 0 {
                            break 'bfs;
                        }
                    }
                    q.push_back(v);
                }
            }
        }
        targets
            .iter()
            .map(|&t| {
                if t == a {
                    return Some(vec![a]);
                }
                if !seen[t] {
                    return None;
                }
                let mut path = vec![t];
                let mut cur = t;
                while cur != a {
                    cur = prev[cur];
                    path.push(cur);
                }
                path.reverse();
                Some(path)
            })
            .collect()
    }

    /// Appends a new isolated switch and returns its index. Used by the
    /// delta rebuild path, which grows the network one join at a time
    /// without reconstructing the whole adjacency structure.
    pub fn add_switch(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Whether every switch can reach every other.
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        self.bfs_hops(0).iter().all(|&d| d != u32::MAX)
    }

    /// Removes the last switch, which must have no links: undoes an
    /// [`Topology::add_switch`] once [`Topology::isolate`] has removed
    /// the new switch's links.
    ///
    /// # Panics
    ///
    /// Panics if the topology is empty or the last switch has a link.
    pub fn pop_switch(&mut self) {
        let last = self.adj.pop().expect("a switch to pop");
        assert!(last.is_empty(), "popped switch still has links");
    }

    /// Removes switch `s`'s links (the switch index remains valid but
    /// isolated) and returns its former neighbors, ascending. Used to
    /// model switch failure.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn isolate(&mut self, s: usize) -> Vec<usize> {
        assert!(s < self.adj.len(), "switch {s} out of range");
        let links = std::mem::take(&mut self.adj[s]);
        for &n in &links {
            let at = self.adj[n].binary_search(&s).expect("links are symmetric");
            self.adj[n].remove(at);
        }
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ring(n: usize) -> Topology {
        let links: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Topology::from_links(n, &links).unwrap()
    }

    #[test]
    fn add_and_query_links() {
        let mut t = Topology::new(3);
        t.add_link(0, 1).unwrap();
        assert!(t.has_link(0, 1));
        assert!(t.has_link(1, 0));
        assert!(!t.has_link(0, 2));
        assert_eq!(t.degree(0), 1);
        assert_eq!(t.link_count(), 1);
        // Idempotent.
        t.add_link(1, 0).unwrap();
        assert_eq!(t.link_count(), 1);
    }

    #[test]
    fn link_errors() {
        let mut t = Topology::new(2);
        assert_eq!(
            t.add_link(0, 5),
            Err(TopologyError::SwitchOutOfRange {
                switch: 5,
                count: 2
            })
        );
        assert_eq!(t.add_link(1, 1), Err(TopologyError::SelfLoop { switch: 1 }));
    }

    #[test]
    fn bfs_on_ring() {
        let t = ring(6);
        let d = t.bfs_hops(0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let t = ring(8);
        let p = t.shortest_path(0, 3).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&3));
        assert_eq!(p.len(), 4); // 3 hops
        assert_eq!(t.shortest_path(2, 2).unwrap(), vec![2]);
    }

    #[test]
    fn unreachable_is_none() {
        let t = Topology::new(3); // no links
        assert_eq!(t.shortest_path(0, 2), None);
        assert!(!t.is_connected());
        assert_eq!(t.bfs_hops(0)[2], u32::MAX);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn matrix_is_symmetric_and_metric() {
        let t = ring(7);
        let m = t.shortest_path_matrix();
        for i in 0..7 {
            assert_eq!(m[i][i], 0);
            for j in 0..7 {
                assert_eq!(m[i][j], m[j][i]);
                for k in 0..7 {
                    assert!(m[i][j] <= m[i][k] + m[k][j], "triangle inequality");
                }
            }
        }
    }

    #[test]
    fn isolate_disconnects() {
        let mut t = ring(5);
        t.isolate(2);
        assert_eq!(t.degree(2), 0);
        assert!(!t.has_link(1, 2));
        // Remaining ring-with-gap is still connected among the others.
        let d = t.bfs_hops(1);
        assert_eq!(d[2], u32::MAX);
        assert_ne!(d[3], u32::MAX);
    }

    #[test]
    fn empty_topology_is_connected() {
        assert!(Topology::new(0).is_connected());
        assert!(Topology::new(1).is_connected());
    }

    #[test]
    fn multi_target_paths_match_single_target() {
        let mut t = ring(9);
        t.add_link(0, 4).unwrap();
        t.add_link(2, 7).unwrap();
        let targets = [3, 0, 6, 3, 8];
        let got = t.shortest_paths_to(0, &targets);
        for (i, &target) in targets.iter().enumerate() {
            assert_eq!(got[i], t.shortest_path(0, target), "target {target}");
        }
    }

    #[test]
    fn multi_target_unreachable_and_empty() {
        let mut t = Topology::new(4);
        t.add_link(0, 1).unwrap();
        let got = t.shortest_paths_to(0, &[1, 3]);
        assert_eq!(got[0], Some(vec![0, 1]));
        assert_eq!(got[1], None);
        assert!(t.shortest_paths_to(2, &[]).is_empty());
    }

    #[test]
    fn add_switch_appends_isolated() {
        let mut t = ring(3);
        let s = t.add_switch();
        assert_eq!(s, 3);
        assert_eq!(t.switch_count(), 4);
        assert_eq!(t.degree(s), 0);
        t.add_link(s, 0).unwrap();
        assert!(t.has_link(3, 0));
    }

    proptest! {
        /// Multi-target BFS reproduces the single-target search exactly,
        /// including tie-breaks, on arbitrary augmented rings.
        #[test]
        fn prop_multi_target_matches_single(
            n in 3usize..14,
            extra in proptest::collection::vec((0usize..14, 0usize..14), 0..20),
        ) {
            let mut t = ring(n);
            for (a, b) in extra {
                if a < n && b < n && a != b {
                    t.add_link(a, b).unwrap();
                }
            }
            for a in 0..n {
                let targets: Vec<usize> = (0..n).collect();
                let got = t.shortest_paths_to(a, &targets);
                for (b, path) in got.iter().enumerate() {
                    prop_assert_eq!(path, &t.shortest_path(a, b));
                }
            }
        }

        /// Path length reported by shortest_path always matches the BFS
        /// distance matrix.
        #[test]
        #[allow(clippy::needless_range_loop)]
        fn prop_path_length_matches_matrix(
            n in 2usize..12,
            extra in proptest::collection::vec((0usize..12, 0usize..12), 0..20),
        ) {
            let mut t = ring(n);
            for (a, b) in extra {
                if a < n && b < n && a != b {
                    t.add_link(a, b).unwrap();
                }
            }
            let m = t.shortest_path_matrix();
            for a in 0..n {
                for b in 0..n {
                    let p = t.shortest_path(a, b).unwrap();
                    prop_assert_eq!(p.len() as u32 - 1, m[a][b]);
                    // Consecutive path nodes are linked.
                    for w in p.windows(2) {
                        prop_assert!(t.has_link(w[0], w[1]));
                    }
                }
            }
        }
    }
}

/// Graph-level statistics of a topology (used by experiment reports and
/// the topology-inspection example).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyStats {
    /// Number of switches.
    pub switches: usize,
    /// Number of links.
    pub links: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree.
    pub mean_degree: f64,
    /// Graph diameter in hops (`None` when disconnected or trivial).
    pub diameter: Option<u32>,
    /// Mean shortest-path length over reachable pairs.
    pub mean_path_length: f64,
}

impl Topology {
    /// Computes [`TopologyStats`] (O(n·(n+m)) — all-pairs BFS).
    pub fn stats(&self) -> TopologyStats {
        let n = self.switch_count();
        let degrees: Vec<usize> = (0..n).map(|s| self.degree(s)).collect();
        let mut diameter = 0u32;
        let mut sum_paths = 0u64;
        let mut pairs = 0u64;
        let mut connected = n > 0;
        for s in 0..n {
            for (t, &d) in self.bfs_hops(s).iter().enumerate() {
                if t == s {
                    continue;
                }
                if d == u32::MAX {
                    connected = false;
                } else {
                    diameter = diameter.max(d);
                    sum_paths += u64::from(d);
                    pairs += 1;
                }
            }
        }
        TopologyStats {
            switches: n,
            links: self.link_count(),
            min_degree: degrees.iter().min().copied().unwrap_or(0),
            max_degree: degrees.iter().max().copied().unwrap_or(0),
            mean_degree: if n == 0 {
                0.0
            } else {
                degrees.iter().sum::<usize>() as f64 / n as f64
            },
            diameter: if connected && n > 1 {
                Some(diameter)
            } else {
                None
            },
            mean_path_length: if pairs == 0 {
                0.0
            } else {
                sum_paths as f64 / pairs as f64
            },
        }
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    #[test]
    fn ring_stats() {
        let links: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        let t = Topology::from_links(6, &links).unwrap();
        let s = t.stats();
        assert_eq!(s.switches, 6);
        assert_eq!(s.links, 6);
        assert_eq!((s.min_degree, s.max_degree), (2, 2));
        assert_eq!(s.mean_degree, 2.0);
        assert_eq!(s.diameter, Some(3));
        // Ring of 6: distances 1,1,2,2,3 from each node -> mean 1.8.
        assert!((s.mean_path_length - 1.8).abs() < 1e-12);
    }

    #[test]
    fn disconnected_has_no_diameter() {
        let t = Topology::new(3);
        let s = t.stats();
        assert_eq!(s.diameter, None);
        assert_eq!(s.mean_path_length, 0.0);
    }

    #[test]
    fn trivial_graphs() {
        assert_eq!(Topology::new(0).stats().switches, 0);
        let one = Topology::new(1).stats();
        assert_eq!(one.diameter, None);
        assert_eq!(one.mean_degree, 0.0);
    }
}
