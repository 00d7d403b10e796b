//! Cluster-wide health aggregation over wire-scraped snapshots.
//!
//! One [`StatsSnapshot`](gred_dataplane::StatsSnapshot) describes one
//! node; operators (and the chaos invariant checks) want the cluster
//! view: who suspects whom, how often greedy walks detour, how the read
//! cache is doing, and how much write traffic is backed up. This module
//! folds per-node snapshots into a [`ClusterHealth`] — pure arithmetic,
//! client-side, so the aggregation itself can never perturb the cluster
//! it measures.

use gred_dataplane::{NodeHotStats, StatsSnapshot, TableStats};

/// The cluster-wide view aggregated from per-node stats snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterHealth {
    /// Nodes that answered the scrape.
    pub nodes: usize,
    /// Requests accepted across the cluster.
    pub requests: u64,
    /// Requests delivered (served) across the cluster.
    pub delivered: u64,
    /// Requests answered with an error status.
    pub errors: u64,
    /// Items stored across the cluster.
    pub stored_items: u64,
    /// Detours per accepted request (`0.0` with no requests) — the
    /// live gauge of how far routing currently is from the paper's
    /// clean one-hop guarantee.
    pub detour_rate: f64,
    /// Hits per cache lookup (`0.0` with no lookups).
    pub cache_hit_rate: f64,
    /// Bytes queued in reactor write queues across the cluster, not
    /// yet written to any socket. This is the health snapshot's
    /// replica-lag proxy: replication acks ride the same write queues,
    /// so a growing backlog is unshipped replica traffic.
    pub write_backlog_bytes: u64,
    /// Live suspicion edges as `(reporter, suspected peer)` pairs, in
    /// reporter order. Empty in a healed cluster.
    pub suspects: Vec<(u32, u32)>,
    /// Forwarding-table occupancy across the scraped nodes (the
    /// paper's table-size metric, computed from live nodes instead of
    /// the in-process planes).
    pub table: TableStats,
    /// Element-wise sum of every node's hot-path counters: detours,
    /// cache hits and misses, invalidations received, link reconnects.
    pub hot: NodeHotStats,
}

impl Default for ClusterHealth {
    fn default() -> ClusterHealth {
        ClusterHealth {
            nodes: 0,
            requests: 0,
            delivered: 0,
            errors: 0,
            stored_items: 0,
            detour_rate: 0.0,
            cache_hit_rate: 0.0,
            write_backlog_bytes: 0,
            suspects: Vec::new(),
            table: TableStats::from_counts(&[]),
            hot: NodeHotStats::default(),
        }
    }
}

impl ClusterHealth {
    /// Folds per-node snapshots into the cluster view.
    pub fn aggregate(snapshots: &[StatsSnapshot]) -> ClusterHealth {
        let mut health = ClusterHealth {
            nodes: snapshots.len(),
            ..ClusterHealth::default()
        };
        let mut rows: Vec<usize> = Vec::with_capacity(snapshots.len());
        for snap in snapshots {
            health.requests += snap.requests;
            health.delivered += snap.delivered;
            health.errors += snap.errors;
            health.stored_items += snap.stored_items;
            health.write_backlog_bytes += snap.queued_bytes;
            health.hot = health.hot.merged(snap.hot);
            rows.push(snap.table_rows as usize);
            for link in &snap.links {
                if link.suspect_ms_left > 0 {
                    health.suspects.push((snap.switch, link.peer));
                }
            }
        }
        let hot = &health.hot;
        health.detour_rate = rate(hot.detour_forwards, health.requests);
        health.cache_hit_rate = rate(hot.cache_hits, hot.cache_hits + hot.cache_misses);
        health.table = TableStats::from_counts(&rows);
        health
    }

    /// Hand-rolled JSON object bundling the health view with the
    /// per-node snapshots it was computed from — the artifact shape the
    /// `stats-smoke` CI job uploads.
    pub fn to_json(&self, snapshots: &[StatsSnapshot]) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(&format!(
            "{{\"nodes\":{},\"requests\":{},\"delivered\":{},\"errors\":{},\
             \"stored_items\":{},\"detour_forwards\":{},\"detour_rate\":{:.6},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":{:.6},\
             \"invalidations_rx\":{},\"write_backlog_bytes\":{},\"link_reconnects\":{}",
            self.nodes,
            self.requests,
            self.delivered,
            self.errors,
            self.stored_items,
            self.hot.detour_forwards,
            self.detour_rate,
            self.hot.cache_hits,
            self.hot.cache_misses,
            self.cache_hit_rate,
            self.hot.invalidations_rx,
            self.write_backlog_bytes,
            self.hot.link_reconnects,
        ));
        s.push_str(",\"suspects\":[");
        for (i, (reporter, peer)) in self.suspects.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{reporter},{peer}]"));
        }
        s.push_str(&format!(
            "],\"table\":{{\"switches\":{},\"mean\":{:.3},\"min\":{},\"p50\":{},\"max\":{}}}",
            self.table.switches, self.table.mean, self.table.min, self.table.p50, self.table.max
        ));
        s.push_str(",\"snapshots\":[");
        for (i, snap) in snapshots.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&snap.to_json());
        }
        s.push_str("]}");
        s
    }
}

/// `num / den` as an `f64` rate, `0.0` when the denominator is zero.
fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl std::fmt::Display for ClusterHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nodes: {} requests ({} delivered, {} errors), {} stored, \
             detour rate {:.4}, cache hit rate {:.4}, {} invalidations rx, \
             {} backlog bytes, {} reconnects, {} suspect links",
            self.nodes,
            self.requests,
            self.delivered,
            self.errors,
            self.stored_items,
            self.detour_rate,
            self.cache_hit_rate,
            self.hot.invalidations_rx,
            self.write_backlog_bytes,
            self.hot.link_reconnects,
            self.suspects.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gred_dataplane::LinkStats;

    fn snap(switch: u32, requests: u64, hits: u64, misses: u64, rows: u64) -> StatsSnapshot {
        StatsSnapshot {
            switch,
            requests,
            table_rows: rows,
            hot: NodeHotStats {
                cache_hits: hits,
                cache_misses: misses,
                ..NodeHotStats::default()
            },
            ..StatsSnapshot::default()
        }
    }

    #[test]
    fn aggregate_sums_and_rates() {
        let mut a = snap(0, 100, 30, 10, 8);
        a.hot.detour_forwards = 5;
        a.queued_bytes = 100;
        let mut b = snap(3, 300, 10, 50, 12);
        b.links.push(LinkStats {
            peer: 0,
            connected: true,
            suspect_ms_left: 200,
            reconnects: 1,
        });
        b.hot.link_reconnects = 1;
        let health = ClusterHealth::aggregate(&[a, b]);
        assert_eq!(health.nodes, 2);
        assert_eq!(health.requests, 400);
        assert_eq!(health.hot.detour_forwards, 5);
        assert!((health.detour_rate - 5.0 / 400.0).abs() < 1e-12);
        assert_eq!(health.hot.cache_hits, 40);
        assert!((health.cache_hit_rate - 40.0 / 100.0).abs() < 1e-12);
        assert_eq!(health.write_backlog_bytes, 100);
        assert_eq!(health.hot.link_reconnects, 1);
        assert_eq!(health.suspects, vec![(3, 0)]);
        assert_eq!(health.table.switches, 2);
        assert_eq!(health.table.min, 8);
        assert_eq!(health.table.max, 12);
    }

    #[test]
    fn aggregate_of_nothing_is_all_zero() {
        let health = ClusterHealth::aggregate(&[]);
        assert_eq!(health.nodes, 0);
        assert_eq!(health.detour_rate, 0.0);
        assert_eq!(health.cache_hit_rate, 0.0);
        assert!(health.suspects.is_empty());
    }

    // Wire round-trip properties for the observability opcodes: every
    // Stats/Admin packet must survive `write_call` → byte-at-a-time
    // FrameDecoder reassembly → `read_call` byte-exact, both as a bare
    // packet and batched under a GB container. This is the property
    // the scrape path depends on when replies arrive fragmented.
    mod wire_props {
        use crate::frame::{read_call, write_call, Body, FrameDecoder};
        use bytes::Bytes;
        use gred_dataplane::obs::{AdminOp, LinkStats, StatsSnapshot};
        use gred_dataplane::packet::Packet;
        use gred_dataplane::stats::NodeHotStats;
        use proptest::prelude::*;

        /// Ships `packets` as one call frame under `corr` through
        /// 1-byte reassembly and returns what the reader makes of it.
        fn round_trip(corr: u64, packets: &[Packet], batch: bool) -> (u64, Body) {
            let mut frame = Vec::new();
            write_call(&mut frame, corr, packets, batch);
            read_call(&reassemble_one_byte_at_a_time(&frame)).unwrap()
        }

        /// Reassembles `frame` by feeding the decoder one byte at a
        /// time, asserting no frame surfaces before the last byte.
        fn reassemble_one_byte_at_a_time(frame: &[u8]) -> Bytes {
            let mut dec = FrameDecoder::new();
            for (i, byte) in frame.iter().enumerate() {
                dec.feed(std::slice::from_ref(byte));
                let got = dec.next_frame().expect("no frame error mid-stream");
                if i + 1 < frame.len() {
                    assert!(got.is_none(), "frame surfaced early at byte {i}");
                } else {
                    return got.expect("complete frame after final byte");
                }
            }
            unreachable!("empty frames are impossible: prefix is 4 bytes")
        }

        /// Builds a snapshot from raw drawn values (the shim's
        /// strategies compose in `proptest!` bindings, not `prop_map`).
        fn build_snapshot(
            switch: u32,
            h: &[u64],
            links: &[(u32, bool, u64, u64)],
            queued: u64,
            conns: u32,
        ) -> StatsSnapshot {
            StatsSnapshot {
                switch,
                uptime_ms: h[0],
                requests: h[1],
                forwarded: h[2],
                relayed: h[3],
                delivered: h[4],
                errors: h[5],
                stored_items: h[6],
                open_connections: conns,
                queued_bytes: queued,
                dispatch_workers: conns ^ 7,
                table_rows: h[7],
                hot: NodeHotStats {
                    detour_forwards: h[8],
                    cache_hits: h[9],
                    cache_misses: h[10],
                    invalidations_rx: h[11],
                    ..NodeHotStats::default()
                },
                links: links
                    .iter()
                    .map(
                        |&(peer, connected, suspect_ms_left, reconnects)| LinkStats {
                            peer,
                            connected,
                            suspect_ms_left,
                            reconnects,
                        },
                    )
                    .collect(),
            }
        }

        fn build_admin_op(
            tag: u8,
            switch: u32,
            neighbors: Vec<u32>,
            capacities: Vec<u64>,
        ) -> AdminOp {
            match tag {
                0 => AdminOp::Ping,
                1 => AdminOp::Crash { switch },
                2 => AdminOp::Restart { switch },
                3 => AdminOp::Drain,
                4 => AdminOp::Join {
                    neighbors,
                    capacities,
                },
                _ => AdminOp::Leave { switch },
            }
        }

        proptest! {
            /// A stats reply survives framing and 1-byte reassembly with
            /// the decoded snapshot equal to the original.
            #[test]
            fn prop_stats_reply_one_byte_reassembly(
                switch in any::<u32>(),
                h in proptest::collection::vec(any::<u64>(), 12),
                links in proptest::collection::vec(
                    (any::<u32>(), any::<bool>(), any::<u64>(), any::<u64>()),
                    0..4,
                ),
                queued in any::<u64>(),
                conns in any::<u32>(),
            ) {
                let snap = build_snapshot(switch, &h, &links, queued, conns);
                let packet = Packet::stats_response(snap.encode());
                let parsed = round_trip(queued, std::slice::from_ref(&packet), false);
                prop_assert_eq!(&parsed, &(queued, Body::One(packet)));
                let decoded = StatsSnapshot::decode(&parsed.1.into_vec()[0].payload).unwrap();
                prop_assert_eq!(decoded, snap);
            }

            /// Every admin verb survives framing and 1-byte reassembly.
            #[test]
            fn prop_admin_op_one_byte_reassembly(
                tag in 0u8..6,
                switch in any::<u32>(),
                neighbors in proptest::collection::vec(any::<u32>(), 0..8),
                capacities in proptest::collection::vec(any::<u64>(), 0..8),
            ) {
                let op = build_admin_op(tag, switch, neighbors, capacities);
                let packet = Packet::admin_request(op.encode());
                let corr = u64::from(switch);
                let parsed = round_trip(corr, std::slice::from_ref(&packet), false);
                prop_assert_eq!(&parsed, &(corr, Body::One(packet)));
                let decoded = AdminOp::decode(&parsed.1.into_vec()[0].payload).unwrap();
                prop_assert_eq!(decoded, op);
            }

            /// A GB batch mixing every observability opcode survives
            /// framing and 1-byte reassembly byte-exact.
            #[test]
            fn prop_batched_obs_one_byte_reassembly(
                switch in any::<u32>(),
                h in proptest::collection::vec(any::<u64>(), 12),
                tag in 0u8..6,
                neighbors in proptest::collection::vec(any::<u32>(), 0..8),
                text in proptest::collection::vec(any::<u8>(), 0..64),
            ) {
                let snap = build_snapshot(switch, &h, &[], h[0], switch);
                let op = build_admin_op(tag, switch, neighbors, vec![h[1], h[2]]);
                let packets = vec![
                    Packet::stats_request(),
                    Packet::stats_response(snap.encode()),
                    Packet::admin_request(op.encode()),
                    Packet::admin_response(text.clone()),
                    Packet::admin_error(text),
                ];
                let parsed = round_trip(h[3], &packets, true);
                prop_assert_eq!(parsed, (h[3], Body::Many(packets)));
            }
        }
    }

    #[test]
    fn json_is_balanced_and_carries_suspects() {
        let mut b = snap(3, 300, 10, 50, 12);
        b.links.push(LinkStats {
            peer: 1,
            connected: false,
            suspect_ms_left: 99,
            reconnects: 4,
        });
        let snaps = vec![snap(0, 1, 0, 0, 4), b];
        let health = ClusterHealth::aggregate(&snaps);
        let json = health.to_json(&snaps);
        assert!(json.contains("\"suspects\":[[3,1]]"), "{json}");
        assert!(json.contains("\"snapshots\":["), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
