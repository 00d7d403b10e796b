//! The node's counters and the two views of them: the in-process hot
//! counter block and the snapshot a wire `Stats` scrape answers with.

use super::Inner;
use gred_dataplane::{LinkStats, NodeHotStats, StatsSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Default)]
pub(super) struct Counters {
    pub(super) requests: AtomicU64,
    pub(super) forwarded: AtomicU64,
    pub(super) relayed: AtomicU64,
    pub(super) delivered: AtomicU64,
    pub(super) errors: AtomicU64,
    pub(super) link_reconnects: AtomicU64,
    pub(super) peers_suspected: AtomicU64,
    pub(super) detour_forwards: AtomicU64,
    pub(super) redirects_issued: AtomicU64,
    pub(super) invalidations_rx: AtomicU64,
    /// Frames reassembled, requests and peer responses alike.
    pub(super) frames_decoded: AtomicU64,
    /// Frames encoded into a connection's already-warm scratch buffer.
    pub(super) encode_buf_reuses: AtomicU64,
}

impl Inner {
    pub(super) fn hot_stats(&self) -> NodeHotStats {
        let cache = self.cache.stats();
        NodeHotStats {
            // Retired — removed with the next benchmark PR.
            oneshot_fallbacks: 0,
            link_reconnects: self.counters.link_reconnects.load(Ordering::Relaxed),
            store_shard_contention: self.store.contended(),
            frames_decoded: self.counters.frames_decoded.load(Ordering::Relaxed),
            encode_buf_reuses: self.counters.encode_buf_reuses.load(Ordering::Relaxed),
            peers_suspected: self.counters.peers_suspected.load(Ordering::Relaxed),
            detour_forwards: self.counters.detour_forwards.load(Ordering::Relaxed),
            redirects_issued: self.counters.redirects_issued.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            invalidations_rx: self.counters.invalidations_rx.load(Ordering::Relaxed),
        }
    }

    /// Assembles the stats snapshot a `Stats` scrape answers with.
    /// Runs on the reactor thread, so it must never block: everything
    /// it reads is an atomic or a gauge behind a short read lock.
    pub(super) fn wire_snapshot(&self) -> StatsSnapshot {
        let now = self.now_ms();
        let links = {
            let peers = self.peers();
            (0..peers.addrs.len())
                .filter(|&peer| peer != self.id)
                .map(|peer| LinkStats {
                    peer: peer as u32,
                    connected: peers.connected[peer].load(Ordering::Relaxed),
                    suspect_ms_left: peers.suspect[peer]
                        .load(Ordering::Relaxed)
                        .saturating_sub(now),
                    reconnects: peers.reconnects[peer].load(Ordering::Relaxed),
                })
                .collect()
        };
        StatsSnapshot {
            switch: self.id as u32,
            uptime_ms: now,
            requests: self.counters.requests.load(Ordering::Relaxed),
            forwarded: self.counters.forwarded.load(Ordering::Relaxed),
            relayed: self.counters.relayed.load(Ordering::Relaxed),
            delivered: self.counters.delivered.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            stored_items: self.store.len() as u64,
            open_connections: self.reactor.conns_open.load(Ordering::Relaxed) as u32,
            queued_bytes: self.reactor.queued_bytes.load(Ordering::Relaxed),
            // Retired — removed with the next benchmark PR.
            dispatch_workers: 0,
            table_rows: self.plane().entry_count() as u64,
            hot: self.hot_stats(),
            links,
        }
    }
}
