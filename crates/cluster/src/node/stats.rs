//! The node's counters and the two views of them: the in-process hot
//! counter block and the snapshot a wire `Stats` scrape answers with,
//! which is also the reactor's final accounting.

use super::conn::Reactor;
use super::State;
use gred_dataplane::{LinkStats, NodeHotStats, StatsSnapshot};

#[derive(Debug, Default)]
pub(super) struct Counters {
    pub(super) requests: u64,
    pub(super) forwarded: u64,
    pub(super) relayed: u64,
    pub(super) delivered: u64,
    pub(super) errors: u64,
    /// Counted in place, except the cache's fields, which the cache
    /// keeps itself, and the retired ones, which stay zero.
    pub(super) hot: NodeHotStats,
}

impl State {
    pub(super) fn hot_stats(&self) -> NodeHotStats {
        let cache = self.cache.stats();
        NodeHotStats {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            ..self.counters.hot
        }
    }
}

impl Reactor {
    /// Assembles the stats snapshot a `Stats` scrape answers with. The
    /// write backlog is summed over the connections' queues here, at
    /// scrape time.
    pub(super) fn wire_snapshot(&self) -> StatsSnapshot {
        let state = &self.state;
        let now = state.now_ms();
        let links = state
            .peers
            .iter()
            .enumerate()
            .filter(|&(peer, _)| peer != state.id)
            .map(|(peer, p)| LinkStats {
                peer: peer as u32,
                connected: p.connected,
                suspect_ms_left: p.suspect.saturating_sub(now),
                reconnects: p.reconnects,
            })
            .collect();
        let c = &state.counters;
        StatsSnapshot {
            switch: state.id as u32,
            uptime_ms: now,
            requests: c.requests,
            forwarded: c.forwarded,
            relayed: c.relayed,
            delivered: c.delivered,
            errors: c.errors,
            stored_items: state.store.len() as u64,
            open_connections: self.inbound() as u32,
            queued_bytes: self
                .conns
                .iter()
                .flatten()
                .map(|conn| conn.outq.pending() as u64)
                .sum(),
            // Retired — removed with the next benchmark PR.
            dispatch_workers: 0,
            table_rows: state.plane.entry_count() as u64,
            hot: state.hot_stats(),
            links,
        }
    }
}
