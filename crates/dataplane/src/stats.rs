//! Forwarding-table occupancy statistics (Fig. 9(d)) and hot-path
//! contention counters reported by node runtimes.

use crate::switch::SwitchDataplane;
use serde::{Deserialize, Serialize};

/// Hot-path health counters a node runtime (e.g. `gred-cluster`'s
/// per-switch daemon) accumulates while serving requests.
///
/// These exist so a regression shows up as a *metric*, not just as a
/// benchmark slope: a healthy multiplexed deployment keeps
/// `link_reconnects` at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NodeHotStats {
    /// Retired — removed with the next benchmark PR. The one-shot TCP
    /// fallback it counted no longer exists; always zero, kept (with
    /// its wire slot) because the benchmark reads it.
    pub oneshot_fallbacks: u64,
    /// Parked continuations resent over a fresh peer link because the
    /// established link they were written to died.
    pub link_reconnects: u64,
    /// Retired — removed with the next benchmark PR. The node's store
    /// is a plain map its reactor owns, with no lock to contend; always
    /// zero, kept (with its wire slot) because the benchmark reads it.
    pub store_shard_contention: u64,
    /// Frames reassembled and parsed by this node (client connections,
    /// multiplexed peer servers, and demux readers combined).
    pub frames_decoded: u64,
    /// Packet encodes served from an already-warm reusable buffer (the
    /// per-connection/per-link scratch `Vec` had capacity from a prior
    /// send, so the encode allocated nothing).
    pub encode_buf_reuses: u64,
    /// Times a peer was marked suspect after its multiplexed link died
    /// and could not be re-established. Monotonic: a flapping peer
    /// increments once per suspicion episode.
    pub peers_suspected: u64,
    /// Forwarding decisions that detoured around a suspect DT neighbor
    /// (the true greedy next hop was skipped).
    pub detour_forwards: u64,
    /// Requests refused with `Redirect` because every viable next hop
    /// was suspect or the detour budget ran out.
    pub redirects_issued: u64,
    /// Remote-destined retrievals answered from the node's read cache
    /// (zero peer RPCs, zero dispatch-pool handoffs).
    pub cache_hits: u64,
    /// Remote-destined retrievals that probed the read cache and had to
    /// forward anyway. Hit rate = hits / (hits + misses).
    pub cache_misses: u64,
    /// Cached entries evicted by the CLOCK sweep to stay inside the
    /// byte budget.
    pub cache_evictions: u64,
    /// Invalidation frames received from peers (write-through coherence
    /// traffic; each one drops any cached copy of the written id).
    pub invalidations_rx: u64,
}

impl NodeHotStats {
    /// Element-wise sum, for aggregating per-node stats into a cluster
    /// total.
    pub fn merged(self, other: NodeHotStats) -> NodeHotStats {
        NodeHotStats {
            oneshot_fallbacks: self.oneshot_fallbacks + other.oneshot_fallbacks,
            link_reconnects: self.link_reconnects + other.link_reconnects,
            store_shard_contention: self.store_shard_contention + other.store_shard_contention,
            frames_decoded: self.frames_decoded + other.frames_decoded,
            encode_buf_reuses: self.encode_buf_reuses + other.encode_buf_reuses,
            peers_suspected: self.peers_suspected + other.peers_suspected,
            detour_forwards: self.detour_forwards + other.detour_forwards,
            redirects_issued: self.redirects_issued + other.redirects_issued,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            cache_evictions: self.cache_evictions + other.cache_evictions,
            invalidations_rx: self.invalidations_rx + other.invalidations_rx,
        }
    }
}

impl std::fmt::Display for NodeHotStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "oneshot_fallbacks={} link_reconnects={} store_shard_contention={} \
             frames_decoded={} encode_buf_reuses={} peers_suspected={} \
             detour_forwards={} redirects_issued={} cache_hits={} \
             cache_misses={} cache_evictions={} invalidations_rx={}",
            self.oneshot_fallbacks,
            self.link_reconnects,
            self.store_shard_contention,
            self.frames_decoded,
            self.encode_buf_reuses,
            self.peers_suspected,
            self.detour_forwards,
            self.redirects_issued,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.invalidations_rx,
        )
    }
}

/// Aggregate table statistics over a set of switches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    /// Number of switches sampled.
    pub switches: usize,
    /// Mean entries per switch.
    pub mean: f64,
    /// Minimum entries on any switch.
    pub min: usize,
    /// Median (lower-median nearest rank) entries per switch — with
    /// `min`/`max` this gives the per-switch distribution the scaling
    /// experiments report.
    pub p50: usize,
    /// Maximum entries on any switch.
    pub max: usize,
    /// Half-width of the 90% confidence interval of the mean (the paper's
    /// error bars), computed with the normal approximation.
    pub ci90_half_width: f64,
}

impl TableStats {
    /// Computes statistics over `switches`.
    ///
    /// Returns a zeroed struct when the slice is empty.
    pub fn collect<'a>(switches: impl IntoIterator<Item = &'a SwitchDataplane>) -> TableStats {
        let counts: Vec<usize> = switches
            .into_iter()
            .map(SwitchDataplane::entry_count)
            .collect();
        TableStats::from_counts(&counts)
    }

    /// Statistics from raw per-switch entry counts.
    pub fn from_counts(counts: &[usize]) -> TableStats {
        if counts.is_empty() {
            return TableStats {
                switches: 0,
                mean: 0.0,
                min: 0,
                p50: 0,
                max: 0,
                ci90_half_width: 0.0,
            };
        }
        let mut sorted = counts.to_vec();
        sorted.sort_unstable();
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<usize>() as f64 / n;
        let var = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n.max(1.0);
        // z_{0.95} = 1.645 for a two-sided 90% interval.
        let ci90_half_width = if counts.len() > 1 {
            1.645 * (var / n).sqrt()
        } else {
            0.0
        };
        TableStats {
            switches: counts.len(),
            mean,
            min: sorted[0],
            p50: sorted[(sorted.len() - 1) / 2],
            max: *sorted.last().expect("nonempty"),
            ci90_half_width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gred_geometry::Point2;

    #[test]
    fn hot_stats_merge_and_display() {
        let a = NodeHotStats {
            oneshot_fallbacks: 1,
            link_reconnects: 2,
            store_shard_contention: 3,
            frames_decoded: 4,
            encode_buf_reuses: 5,
            peers_suspected: 6,
            detour_forwards: 7,
            redirects_issued: 8,
            cache_hits: 9,
            cache_misses: 10,
            cache_evictions: 11,
            invalidations_rx: 12,
        };
        let b = NodeHotStats {
            frames_decoded: 10,
            cache_hits: 1,
            ..NodeHotStats::default()
        };
        let m = a.merged(b);
        assert_eq!(m.frames_decoded, 14);
        assert_eq!(m.oneshot_fallbacks, 1);
        let text = m.to_string();
        assert!(text.contains("oneshot_fallbacks=1"), "got {text}");
        assert!(text.contains("frames_decoded=14"), "got {text}");
        assert_eq!(m.peers_suspected, 6);
        assert!(text.contains("peers_suspected=6"), "got {text}");
        assert!(text.contains("redirects_issued=8"), "got {text}");
        assert_eq!(m.cache_hits, 10);
        assert!(text.contains("cache_hits=10"), "got {text}");
        assert!(text.contains("invalidations_rx=12"), "got {text}");
    }

    #[test]
    fn empty_stats() {
        let s = TableStats::from_counts(&[]);
        assert_eq!(s.switches, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn single_switch_has_no_ci() {
        let s = TableStats::from_counts(&[5]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.ci90_half_width, 0.0);
        assert_eq!((s.min, s.max), (5, 5));
    }

    #[test]
    fn from_counts_known_values() {
        let s = TableStats::from_counts(&[2, 4, 6]);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert_eq!(s.min, 2);
        assert_eq!(s.p50, 4);
        assert_eq!(s.max, 6);
        assert!(s.ci90_half_width > 0.0);
    }

    #[test]
    fn p50_is_order_independent_lower_median() {
        assert_eq!(TableStats::from_counts(&[9, 1, 5]).p50, 5);
        assert_eq!(TableStats::from_counts(&[8, 2, 4, 6]).p50, 4);
        assert_eq!(TableStats::from_counts(&[7]).p50, 7);
    }

    #[test]
    fn collect_from_switches() {
        use crate::entries::NeighborEntry;
        let mut a = SwitchDataplane::new(0, Point2::ORIGIN, 1);
        a.install_neighbor(NeighborEntry {
            neighbor: 1,
            position: Point2::new(0.5, 0.5),
            via: 1,
            physical: true,
        });
        let b = SwitchDataplane::new(1, Point2::new(0.5, 0.5), 1);
        let s = TableStats::collect([&a, &b]);
        assert_eq!(s.switches, 2);
        assert!((s.mean - 0.5).abs() < 1e-12);
    }
}
