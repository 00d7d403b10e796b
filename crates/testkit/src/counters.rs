//! Counter-asserted invariants over scraped [`StatsSnapshot`]s.
//!
//! Chaos and observability tests used to establish properties like
//! "detours stopped" or "the cache absorbed the crowd" by grepping node
//! logs — fragile, and blind to anything a log line didn't mention. With
//! the stats plane every node exports its full counter block over the
//! wire, so the same properties become *delta assertions*: scrape before,
//! run the scenario, scrape after, and assert exactly which counters
//! moved and by how much.
//!
//! [`CounterWindow`] packages the pattern. It pins the *before* scrape
//! and answers delta queries against an *after* scrape, summed
//! cluster-wide or broken out per node. Counters are monotonic, so a
//! negative delta (or a node present before but missing after, without
//! an intervening crash) is itself a bug — the window panics loudly
//! rather than returning a wrapped number.

use gred_dataplane::StatsSnapshot;

/// A before/after pair of cluster scrapes, queried for counter deltas.
///
/// ```
/// use gred_dataplane::StatsSnapshot;
/// use gred_testkit::CounterWindow;
///
/// let mut before = StatsSnapshot::default();
/// before.switch = 3;
/// let mut after = before.clone();
/// after.hot.cache_hits += 40;
///
/// let window = CounterWindow::open(vec![before]);
/// assert_eq!(window.delta(&[after.clone()], |s| s.hot.cache_hits), 40);
/// assert_eq!(window.delta(&[after], |s| s.hot.cache_misses), 0);
/// ```
#[derive(Debug, Clone)]
pub struct CounterWindow {
    before: Vec<StatsSnapshot>,
}

impl CounterWindow {
    /// Pins the baseline scrape the deltas are measured from.
    pub fn open(before: Vec<StatsSnapshot>) -> CounterWindow {
        CounterWindow { before }
    }

    /// The pinned baseline, for assertions about the starting state.
    pub fn baseline(&self) -> &[StatsSnapshot] {
        &self.before
    }

    /// Cluster-wide delta of one counter: `counter` summed over `after`
    /// minus the same sum over the baseline.
    ///
    /// Panics if the counter *regressed* — monotonic counters never go
    /// down on a live cluster, so a negative delta means the scrape hit
    /// a restarted node or the counter is broken.
    pub fn delta(&self, after: &[StatsSnapshot], counter: impl Fn(&StatsSnapshot) -> u64) -> u64 {
        let start: u64 = self.before.iter().map(&counter).sum();
        let end: u64 = after.iter().map(&counter).sum();
        assert!(
            end >= start,
            "counter regressed across the window: {start} -> {end} \
             (a monotonic counter went down — restarted node, or broken counter)"
        );
        end - start
    }

    /// Per-node deltas of one counter, keyed by switch id and sorted.
    ///
    /// Nodes that appear on only one side of the window (booted or
    /// crashed mid-scenario) are reported with the present side's value
    /// against an implicit zero — joins show their whole count, and a
    /// crashed node's counter vanishing panics via the regression check.
    pub fn per_node_delta(
        &self,
        after: &[StatsSnapshot],
        counter: impl Fn(&StatsSnapshot) -> u64,
    ) -> Vec<(u32, u64)> {
        let mut deltas: Vec<(u32, u64)> = after
            .iter()
            .map(|snap| {
                let start = self
                    .before
                    .iter()
                    .find(|b| b.switch == snap.switch)
                    .map(&counter)
                    .unwrap_or(0);
                let end = counter(snap);
                assert!(
                    end >= start,
                    "node {}: counter regressed across the window: {start} -> {end}",
                    snap.switch
                );
                (snap.switch, end - start)
            })
            .collect();
        deltas.sort_unstable_by_key(|&(switch, _)| switch);
        deltas
    }

    /// Asserts that a counter did not move anywhere in the cluster —
    /// the workhorse for "X must have stopped" invariants (detours
    /// after a heal, misses against a warm cache, dispatch spawns
    /// during a scrape storm).
    ///
    /// Panics with `what` and the offending per-node deltas otherwise.
    pub fn assert_flat(
        &self,
        after: &[StatsSnapshot],
        counter: impl Fn(&StatsSnapshot) -> u64,
        what: &str,
    ) {
        let moved: Vec<(u32, u64)> = self
            .per_node_delta(after, counter)
            .into_iter()
            .filter(|&(_, delta)| delta > 0)
            .collect();
        assert!(
            moved.is_empty(),
            "{what}: counter moved on nodes {moved:?} but must stay flat"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(switch: u32, hits: u64, detours: u64) -> StatsSnapshot {
        let mut snap = StatsSnapshot {
            switch,
            ..StatsSnapshot::default()
        };
        snap.hot.cache_hits = hits;
        snap.hot.detour_forwards = detours;
        snap
    }

    #[test]
    fn sums_deltas_cluster_wide_and_per_node() {
        let window = CounterWindow::open(vec![snap(0, 10, 1), snap(1, 5, 0)]);
        let after = vec![snap(0, 17, 1), snap(1, 8, 0)];
        assert_eq!(window.delta(&after, |s| s.hot.cache_hits), 10);
        assert_eq!(
            window.per_node_delta(&after, |s| s.hot.cache_hits),
            vec![(0, 7), (1, 3)]
        );
        window.assert_flat(&after, |s| s.hot.detour_forwards, "post-heal detours");
    }

    #[test]
    fn joined_nodes_count_from_zero() {
        let window = CounterWindow::open(vec![snap(0, 10, 0)]);
        let after = vec![snap(0, 10, 0), snap(7, 4, 0)];
        assert_eq!(
            window.per_node_delta(&after, |s| s.hot.cache_hits),
            vec![(0, 0), (7, 4)]
        );
    }

    #[test]
    #[should_panic(expected = "must stay flat")]
    fn flat_assertion_names_the_moving_node() {
        let window = CounterWindow::open(vec![snap(0, 0, 2)]);
        window.assert_flat(
            &[snap(0, 0, 5)],
            |s| s.hot.detour_forwards,
            "post-heal detours",
        );
    }

    #[test]
    #[should_panic(expected = "regressed")]
    fn counter_regression_is_loud() {
        let window = CounterWindow::open(vec![snap(0, 10, 0)]);
        window.delta(&[snap(0, 3, 0)], |s| s.hot.cache_hits);
    }
}
