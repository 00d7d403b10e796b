//! Observability payloads: the stats snapshot a node serves over the
//! wire and the admin verbs the control endpoint accepts.
//!
//! The wire layer ([`crate::wire`]) only moves opaque payload bytes;
//! this module defines what those bytes *are* for the `Stats`/`Admin`
//! packet kinds. Both codecs are versioned, big-endian, and total: a
//! decoder reads through the crate's one [`Cursor`] and either
//! reproduces the encoded value byte-exactly or returns a
//! [`DecodeError`] — never a panic, never a reservation sized by a
//! count field alone — because scrape responses cross trust boundaries
//! exactly like data packets.
//!
//! A [`StatsSnapshot`] is assembled by the node's reactor thread from
//! the state it owns, between two event batches, so it never waits on
//! anything. It is also the node's only accounting record: the reactor
//! returns its last snapshot when it exits.

use crate::cursor::{Cursor, DecodeError};
use crate::stats::NodeHotStats;

/// Codec version for [`StatsSnapshot`] and [`AdminOp`] payloads.
const OBS_VERSION: u8 = 1;

/// A cursor over `bytes` past the leading [`OBS_VERSION`] byte.
fn versioned(bytes: &[u8]) -> Result<Cursor<'_>, DecodeError> {
    let mut r = Cursor::new(bytes);
    match r.u8()? {
        OBS_VERSION => Ok(r),
        other => Err(DecodeError::BadVersion(other)),
    }
}

/// Live counters for one peer link, as seen by the scraped node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Peer switch id the link points at.
    pub peer: u32,
    /// Whether an established connection to the peer exists right now.
    pub connected: bool,
    /// Milliseconds until the peer's suspicion expires; `0` when the
    /// peer is not suspect.
    pub suspect_ms_left: u64,
    /// Times the scraped node rebuilt its multiplexed connection to
    /// this peer after an RPC error.
    pub reconnects: u64,
}

/// Everything one node exports in answer to a `Stats` scrape, and the
/// final accounting it returns when it stops.
///
/// Field groups mirror where the numbers live on the node: the
/// request-accounting counters, reactor gauges, the data-plane table
/// size, the hot-path counter block, and per-peer link state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Switch id of the scraped node.
    pub switch: u32,
    /// Milliseconds since the node booted.
    pub uptime_ms: u64,
    /// Requests accepted (placement/retrieval/relay entering routing).
    pub requests: u64,
    /// Packets forwarded to a peer by greedy routing.
    pub forwarded: u64,
    /// Packets forwarded along a virtual-link relay chain.
    pub relayed: u64,
    /// Requests delivered (served) locally.
    pub delivered: u64,
    /// Requests answered with an error status.
    pub errors: u64,
    /// Items in the local store.
    pub stored_items: u64,
    /// Sockets currently registered with the reactor.
    pub open_connections: u32,
    /// Bytes sitting in reactor write queues, accepted from handlers
    /// but not yet written to any socket — the node's write backlog.
    pub queued_bytes: u64,
    /// Retired — removed with the next benchmark PR. A node is one
    /// reactor thread and has no dispatch workers; always zero, kept
    /// (with its wire slot) because the benchmark reads it.
    pub dispatch_workers: u32,
    /// Rows in the node's forwarding table (DT neighbors + extensions).
    pub table_rows: u64,
    /// The hot-path counter block shared with the in-process API.
    pub hot: NodeHotStats,
    /// Per-peer link counters, indexed by peer switch id.
    pub links: Vec<LinkStats>,
}

impl StatsSnapshot {
    /// Serializes the snapshot as a `StatsResponse` payload.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot reports more than 65535 links; a node's
    /// peer table is bounded by the switch count.
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.links.len() <= u16::MAX as usize,
            "snapshot with {} links exceeds the u16 count field",
            self.links.len()
        );
        let mut out =
            Vec::with_capacity(1 + 4 + 8 * 8 + 4 + 4 + 12 * 8 + 2 + self.links.len() * LINK_BYTES);
        out.push(OBS_VERSION);
        out.extend_from_slice(&self.switch.to_be_bytes());
        out.extend_from_slice(&self.uptime_ms.to_be_bytes());
        out.extend_from_slice(&self.requests.to_be_bytes());
        out.extend_from_slice(&self.forwarded.to_be_bytes());
        out.extend_from_slice(&self.relayed.to_be_bytes());
        out.extend_from_slice(&self.delivered.to_be_bytes());
        out.extend_from_slice(&self.errors.to_be_bytes());
        out.extend_from_slice(&self.stored_items.to_be_bytes());
        out.extend_from_slice(&self.open_connections.to_be_bytes());
        out.extend_from_slice(&self.queued_bytes.to_be_bytes());
        out.extend_from_slice(&self.dispatch_workers.to_be_bytes());
        out.extend_from_slice(&self.table_rows.to_be_bytes());
        for field in hot_fields(&self.hot) {
            out.extend_from_slice(&field.to_be_bytes());
        }
        out.extend_from_slice(&(self.links.len() as u16).to_be_bytes());
        for link in &self.links {
            out.extend_from_slice(&link.peer.to_be_bytes());
            out.push(u8::from(link.connected));
            out.extend_from_slice(&link.suspect_ms_left.to_be_bytes());
            out.extend_from_slice(&link.reconnects.to_be_bytes());
        }
        out
    }

    /// Decodes a `StatsResponse` payload.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for truncated, over-long, or version-mismatched
    /// payloads.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = versioned(bytes)?;
        // (Field initialisers run in the order written: wire order.)
        let mut snap = StatsSnapshot {
            switch: r.u32()?,
            uptime_ms: r.u64()?,
            requests: r.u64()?,
            forwarded: r.u64()?,
            relayed: r.u64()?,
            delivered: r.u64()?,
            errors: r.u64()?,
            stored_items: r.u64()?,
            open_connections: r.u32()?,
            queued_bytes: r.u64()?,
            dispatch_workers: r.u32()?,
            table_rows: r.u64()?,
            hot: NodeHotStats {
                oneshot_fallbacks: r.u64()?,
                link_reconnects: r.u64()?,
                store_shard_contention: r.u64()?,
                frames_decoded: r.u64()?,
                encode_buf_reuses: r.u64()?,
                peers_suspected: r.u64()?,
                detour_forwards: r.u64()?,
                redirects_issued: r.u64()?,
                cache_hits: r.u64()?,
                cache_misses: r.u64()?,
                cache_evictions: r.u64()?,
                invalidations_rx: r.u64()?,
            },
            links: Vec::new(),
        };
        let count = r.u16()? as usize;
        snap.links = r.vec_for(count, LINK_BYTES);
        for _ in 0..count {
            snap.links.push(LinkStats {
                peer: r.u32()?,
                connected: match r.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(DecodeError::BadTag(other)),
                },
                suspect_ms_left: r.u64()?,
                reconnects: r.u64()?,
            });
        }
        r.finish()?;
        Ok(snap)
    }

    /// Whether any peer is currently suspect from this node's view.
    pub fn has_suspects(&self) -> bool {
        self.links.iter().any(|l| l.suspect_ms_left > 0)
    }

    /// Hand-rolled JSON object (the serde shim has no serializer). All
    /// fields are numbers or booleans, so no string escaping is needed.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(640);
        s.push_str(&format!(
            "{{\"switch\":{},\"uptime_ms\":{},\"requests\":{},\"forwarded\":{},\
             \"relayed\":{},\"delivered\":{},\"errors\":{},\"stored_items\":{},\
             \"open_connections\":{},\"queued_bytes\":{},\"dispatch_workers\":{},\
             \"table_rows\":{}",
            self.switch,
            self.uptime_ms,
            self.requests,
            self.forwarded,
            self.relayed,
            self.delivered,
            self.errors,
            self.stored_items,
            self.open_connections,
            self.queued_bytes,
            self.dispatch_workers,
            self.table_rows,
        ));
        s.push_str(",\"hot\":{");
        for (i, (name, value)) in HOT_FIELD_NAMES
            .iter()
            .zip(hot_fields(&self.hot))
            .enumerate()
        {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{name}\":{value}"));
        }
        s.push_str("},\"links\":[");
        for (i, link) in self.links.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"peer\":{},\"connected\":{},\"suspect_ms_left\":{},\"reconnects\":{}}}",
                link.peer, link.connected, link.suspect_ms_left, link.reconnects
            ));
        }
        s.push_str("]}");
        s
    }
}

impl std::fmt::Display for StatsSnapshot {
    /// An operator-readable block: one line for the node, one per link.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {}: up {}ms | {} requests ({} delivered, {} errors) | \
             {} stored | {} forwarded, {} relayed, {} detours | \
             cache {}h/{}m ({} evictions, {} invalidations rx) | \
             {} conns, {} queued bytes, {} workers | {} table rows",
            self.switch,
            self.uptime_ms,
            self.requests,
            self.delivered,
            self.errors,
            self.stored_items,
            self.forwarded,
            self.relayed,
            self.hot.detour_forwards,
            self.hot.cache_hits,
            self.hot.cache_misses,
            self.hot.cache_evictions,
            self.hot.invalidations_rx,
            self.open_connections,
            self.queued_bytes,
            self.dispatch_workers,
            self.table_rows,
        )?;
        for link in &self.links {
            write!(
                f,
                "\n  link -> {}: {}, {} reconnects",
                link.peer,
                if link.connected { "connected" } else { "down" },
                link.reconnects,
            )?;
            if link.suspect_ms_left > 0 {
                write!(f, ", suspect for {}ms", link.suspect_ms_left)?;
            }
        }
        Ok(())
    }
}

/// Encoded size of one [`LinkStats`] row.
const LINK_BYTES: usize = 4 + 1 + 8 + 8;

/// Number of `u64` counters in [`NodeHotStats`].
const HOT_FIELDS: usize = 12;

/// JSON keys for the hot counters, in wire order.
const HOT_FIELD_NAMES: [&str; HOT_FIELDS] = [
    "oneshot_fallbacks",
    "link_reconnects",
    "store_shard_contention",
    "frames_decoded",
    "encode_buf_reuses",
    "peers_suspected",
    "detour_forwards",
    "redirects_issued",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "invalidations_rx",
];

/// The hot counters in their fixed wire order. Destructures the struct
/// so adding a field to [`NodeHotStats`] is a compile error here until
/// the codec learns about it.
fn hot_fields(hot: &NodeHotStats) -> [u64; HOT_FIELDS] {
    let NodeHotStats {
        oneshot_fallbacks,
        link_reconnects,
        store_shard_contention,
        frames_decoded,
        encode_buf_reuses,
        peers_suspected,
        detour_forwards,
        redirects_issued,
        cache_hits,
        cache_misses,
        cache_evictions,
        invalidations_rx,
    } = *hot;
    [
        oneshot_fallbacks,
        link_reconnects,
        store_shard_contention,
        frames_decoded,
        encode_buf_reuses,
        peers_suspected,
        detour_forwards,
        redirects_issued,
        cache_hits,
        cache_misses,
        cache_evictions,
        invalidations_rx,
    ]
}

/// An admin verb carried in an `Admin` packet payload.
///
/// Data nodes answer only [`Ping`](AdminOp::Ping) (inline, like a
/// scrape); every lifecycle verb is the admin endpoint's business
/// because only the orchestrator owns the network model and node
/// handles needed to act on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminOp {
    /// Liveness probe: answered by every endpoint.
    Ping,
    /// Crash the node on `switch` (chaos injection over the wire).
    Crash {
        /// Victim switch id.
        switch: u32,
    },
    /// Restart a previously crashed `switch` as an isolated transit switch.
    Restart {
        /// Slot to revive.
        switch: u32,
    },
    /// Re-home misplaced items cluster-wide (the operator runbook step
    /// after topology churn).
    Drain,
    /// Add a switch linked to `neighbors`, hosting servers with the
    /// given `capacities`.
    Join {
        /// Existing switches the newcomer links to.
        neighbors: Vec<u32>,
        /// Capacity of each server hosted on the newcomer.
        capacities: Vec<u64>,
    },
    /// Gracefully remove `switch` from the network.
    Leave {
        /// Switch id to remove.
        switch: u32,
    },
}

const TAG_PING: u8 = 0;
const TAG_CRASH: u8 = 1;
const TAG_RESTART: u8 = 2;
const TAG_DRAIN: u8 = 3;
const TAG_JOIN: u8 = 4;
const TAG_LEAVE: u8 = 5;

impl AdminOp {
    /// Serializes the verb as an `Admin` packet payload.
    ///
    /// # Panics
    ///
    /// Panics if a `Join` lists more than 65535 neighbors or servers.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.push(OBS_VERSION);
        match self {
            AdminOp::Ping => out.push(TAG_PING),
            AdminOp::Crash { switch } => {
                out.push(TAG_CRASH);
                out.extend_from_slice(&switch.to_be_bytes());
            }
            AdminOp::Restart { switch } => {
                out.push(TAG_RESTART);
                out.extend_from_slice(&switch.to_be_bytes());
            }
            AdminOp::Drain => out.push(TAG_DRAIN),
            AdminOp::Join {
                neighbors,
                capacities,
            } => {
                assert!(
                    neighbors.len() <= u16::MAX as usize && capacities.len() <= u16::MAX as usize,
                    "join verb exceeds the u16 count fields"
                );
                out.push(TAG_JOIN);
                out.extend_from_slice(&(neighbors.len() as u16).to_be_bytes());
                for n in neighbors {
                    out.extend_from_slice(&n.to_be_bytes());
                }
                out.extend_from_slice(&(capacities.len() as u16).to_be_bytes());
                for c in capacities {
                    out.extend_from_slice(&c.to_be_bytes());
                }
            }
            AdminOp::Leave { switch } => {
                out.push(TAG_LEAVE);
                out.extend_from_slice(&switch.to_be_bytes());
            }
        }
        out
    }

    /// Decodes an `Admin` packet payload.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for truncated payloads, unknown tags, or a
    /// version mismatch.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = versioned(bytes)?;
        let op = match r.u8()? {
            TAG_PING => AdminOp::Ping,
            TAG_CRASH => AdminOp::Crash { switch: r.u32()? },
            TAG_RESTART => AdminOp::Restart { switch: r.u32()? },
            TAG_DRAIN => AdminOp::Drain,
            TAG_JOIN => {
                let n = r.u16()? as usize;
                let mut neighbors = r.vec_for(n, 4);
                for _ in 0..n {
                    neighbors.push(r.u32()?);
                }
                let c = r.u16()? as usize;
                let mut capacities = r.vec_for(c, 8);
                for _ in 0..c {
                    capacities.push(r.u64()?);
                }
                AdminOp::Join {
                    neighbors,
                    capacities,
                }
            }
            TAG_LEAVE => AdminOp::Leave { switch: r.u32()? },
            other => return Err(DecodeError::BadTag(other)),
        };
        r.finish()?;
        Ok(op)
    }
}

impl std::fmt::Display for AdminOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdminOp::Ping => write!(f, "ping"),
            AdminOp::Crash { switch } => write!(f, "crash {switch}"),
            AdminOp::Restart { switch } => write!(f, "restart {switch}"),
            AdminOp::Drain => write!(f, "drain"),
            AdminOp::Join {
                neighbors,
                capacities,
            } => write!(f, "join {neighbors:?} x{}", capacities.len()),
            AdminOp::Leave { switch } => write!(f, "leave {switch}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> StatsSnapshot {
        StatsSnapshot {
            switch: 7,
            uptime_ms: 123_456,
            requests: 1000,
            forwarded: 400,
            relayed: 25,
            delivered: 575,
            errors: 3,
            stored_items: 88,
            open_connections: 9,
            queued_bytes: 4096,
            dispatch_workers: 2,
            table_rows: 14,
            hot: NodeHotStats {
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
            },
            links: vec![
                LinkStats {
                    peer: 3,
                    connected: true,
                    suspect_ms_left: 0,
                    reconnects: 2,
                },
                LinkStats {
                    peer: 11,
                    connected: false,
                    suspect_ms_left: 240,
                    reconnects: 0,
                },
            ],
        }
    }

    #[test]
    fn snapshot_round_trip() {
        let snap = sample_snapshot();
        assert_eq!(StatsSnapshot::decode(&snap.encode()).unwrap(), snap);
        let empty = StatsSnapshot::default();
        assert_eq!(StatsSnapshot::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn snapshot_truncation_detected_at_every_prefix() {
        let full = sample_snapshot().encode();
        for len in 0..full.len() {
            assert!(
                StatsSnapshot::decode(&full[..len]).is_err(),
                "prefix of {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn snapshot_rejects_trailing_garbage_and_bad_version() {
        let mut b = sample_snapshot().encode();
        b.push(0xFF);
        assert_eq!(
            StatsSnapshot::decode(&b),
            Err(DecodeError::TrailingGarbage { extra: 1 })
        );
        let mut b = sample_snapshot().encode();
        b[0] = 9;
        assert_eq!(StatsSnapshot::decode(&b), Err(DecodeError::BadVersion(9)));
        // A boolean is 0 or 1: anything else would not re-encode to
        // the bytes it was decoded from.
        let mut b = sample_snapshot().encode();
        let connected_at = b.len() - 2 * LINK_BYTES + 4;
        b[connected_at] = 2;
        assert_eq!(StatsSnapshot::decode(&b), Err(DecodeError::BadTag(2)));
    }

    #[test]
    fn suspects_visible() {
        assert!(sample_snapshot().has_suspects());
        let mut clean = sample_snapshot();
        for link in &mut clean.links {
            link.suspect_ms_left = 0;
        }
        assert!(!clean.has_suspects());
    }

    #[test]
    fn snapshot_json_carries_every_field() {
        let json = sample_snapshot().to_json();
        for key in [
            "\"switch\":7",
            "\"queued_bytes\":4096",
            "\"invalidations_rx\":12",
            "\"peer\":11",
            "\"connected\":false",
            "\"suspect_ms_left\":240",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Sanity: balanced braces/brackets (the shim has no JSON parser).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }

    #[test]
    fn admin_op_round_trips() {
        for op in [
            AdminOp::Ping,
            AdminOp::Crash { switch: 3 },
            AdminOp::Restart { switch: 4 },
            AdminOp::Drain,
            AdminOp::Join {
                neighbors: vec![0, 2, 5],
                capacities: vec![10_000, 20_000],
            },
            AdminOp::Join {
                neighbors: vec![],
                capacities: vec![],
            },
            AdminOp::Leave { switch: 15 },
        ] {
            assert_eq!(AdminOp::decode(&op.encode()).unwrap(), op, "{op}");
        }
    }

    #[test]
    fn admin_op_rejects_malformed_payloads() {
        let truncated = |needed, have| Err(DecodeError::Truncated { needed, have });
        assert_eq!(AdminOp::decode(&[]), truncated(1, 0));
        assert_eq!(AdminOp::decode(&[OBS_VERSION]), truncated(2, 1));
        assert_eq!(
            AdminOp::decode(&[OBS_VERSION, 99]),
            Err(DecodeError::BadTag(99))
        );
        assert_eq!(
            AdminOp::decode(&[7, TAG_PING]),
            Err(DecodeError::BadVersion(7))
        );
        let mut b = AdminOp::Ping.encode();
        b.push(0);
        assert_eq!(
            AdminOp::decode(&b),
            Err(DecodeError::TrailingGarbage { extra: 1 })
        );
        // Truncated mid-join.
        let full = AdminOp::Join {
            neighbors: vec![1, 2],
            capacities: vec![9],
        }
        .encode();
        for len in 0..full.len() {
            assert!(AdminOp::decode(&full[..len]).is_err(), "prefix {len}");
        }
    }
}
