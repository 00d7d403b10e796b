//! The peer table: where every other switch listens, whether the
//! reactor holds a link to it, and the TTL-stamped suspicion greedy
//! forwarding routes around.

use super::Inner;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{PoisonError, RwLockReadGuard};

/// Per-peer connectivity state the greedy pipeline and stats scrapes
/// consult. One table per node, guarded by a `RwLock` so live
/// reconfiguration (join/leave/restart) can grow it or repoint an
/// address while requests are in flight. The links themselves are
/// reactor-owned connections; this is only what other threads may read.
pub(super) struct PeerTable {
    pub(super) addrs: Vec<SocketAddr>,
    /// Suspicion expiry stamps, in milliseconds since the node booted
    /// (`0` = not suspect). Set to `now + suspect_ttl` when a
    /// continuation parked on the peer failed (deadline, or a second
    /// link death), cleared on the next response or an explicit revive.
    /// Greedy forwarding treats an unexpired suspect DT neighbor as
    /// absent; once the stamp expires the peer is optimistically
    /// retried, so a healed peer that greedy stopped talking to still
    /// recovers.
    pub(super) suspect: Vec<AtomicU64>,
    /// Per-peer reconnect counters: continuations resent to the peer
    /// over a fresh link after an established one died under them. The
    /// sum over peers equals the node-wide `link_reconnects` hot
    /// counter; a stats scrape exports both so an operator can tell
    /// *which* link flaps.
    pub(super) reconnects: Vec<AtomicU64>,
    /// Whether the reactor currently holds an established link to the
    /// peer.
    pub(super) connected: Vec<AtomicBool>,
}

impl PeerTable {
    pub(super) fn new(addrs: Vec<SocketAddr>) -> PeerTable {
        let mut table = PeerTable {
            addrs: Vec::new(),
            suspect: Vec::new(),
            reconnects: Vec::new(),
            connected: Vec::new(),
        };
        for addr in addrs {
            table.push(addr);
        }
        table
    }

    pub(super) fn push(&mut self, addr: SocketAddr) {
        self.addrs.push(addr);
        self.suspect.push(AtomicU64::new(0));
        self.reconnects.push(AtomicU64::new(0));
        self.connected.push(AtomicBool::new(false));
    }

    /// Whether `peer` is under suspicion that has not expired at `now`.
    pub(super) fn suspect_at(&self, peer: usize, now: u64) -> bool {
        self.suspect
            .get(peer)
            .is_some_and(|stamp| stamp.load(Ordering::Relaxed) > now)
    }

    pub(super) fn set_connected(&self, peer: usize, up: bool) {
        if let Some(flag) = self.connected.get(peer) {
            flag.store(up, Ordering::Relaxed);
        }
    }
}

impl Inner {
    /// The peer table, for reading. (A poisoned lock is recovered: the
    /// table holds plain data and atomics.)
    pub(super) fn peers(&self) -> RwLockReadGuard<'_, PeerTable> {
        self.peers.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Marks `peer` suspect until `now + suspect_ttl`; counts only the
    /// not-suspect → suspect transition so `peers_suspected` reflects
    /// detection events, not retries.
    pub(super) fn mark_suspect(&self, peer: usize) {
        let now = self.now_ms();
        let expiry =
            now.saturating_add(u64::try_from(self.cfg.suspect_ttl.as_millis()).unwrap_or(u64::MAX));
        let peers = self.peers();
        if let Some(stamp) = peers.suspect.get(peer) {
            let prev = stamp.swap(expiry.max(1), Ordering::Relaxed);
            if prev <= now {
                drop(peers);
                self.counters
                    .peers_suspected
                    .fetch_add(1, Ordering::Relaxed);
                self.log(&format!("peer {peer} marked suspect"));
            }
        }
    }

    pub(super) fn clear_suspect(&self, peer: usize) {
        let now = self.now_ms();
        let peers = self.peers();
        if let Some(stamp) = peers.suspect.get(peer) {
            let prev = stamp.swap(0, Ordering::Relaxed);
            if prev > now {
                drop(peers);
                self.log(&format!("peer {peer} recovered"));
            }
        }
    }

    /// Records a continuation resent to peer `to` after its established
    /// link died, on both the node-wide hot counter and the per-peer
    /// slot a scrape exports.
    pub(super) fn note_reconnect(&self, to: usize) {
        self.counters
            .link_reconnects
            .fetch_add(1, Ordering::Relaxed);
        let peers = self.peers();
        if let Some(slot) = peers.reconnects.get(to) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }
}
