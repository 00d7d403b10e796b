//! The peer table: where every other switch listens, whether the
//! reactor holds a link to it, and the TTL-stamped suspicion greedy
//! forwarding routes around.

use super::State;
use std::net::SocketAddr;

/// What the node knows about one switch of the network. The link itself
/// is a reactor-owned connection; this is what routing and stats
/// scrapes consult.
#[derive(Clone, Copy)]
pub(super) struct Peer {
    pub(super) addr: SocketAddr,
    /// Suspicion expiry stamp, in milliseconds since the node booted
    /// (`0` = not suspect). Set to `now + suspect_ttl` when a
    /// continuation parked on the peer failed (deadline, or a second
    /// link death), cleared on the next response or an explicit revive.
    /// Greedy forwarding treats an unexpired suspect DT neighbor as
    /// absent; once the stamp expires the peer is optimistically
    /// retried, so a healed peer that greedy stopped talking to still
    /// recovers.
    pub(super) suspect: u64,
    /// Continuations resent to the peer over a fresh link after an
    /// established one died under them. The sum over peers equals the
    /// node-wide `link_reconnects` hot counter; a stats scrape exports
    /// both so an operator can tell *which* link flaps.
    pub(super) reconnects: u64,
    /// Whether the reactor currently holds an established link to the
    /// peer.
    pub(super) connected: bool,
}

impl Peer {
    pub(super) fn new(addr: SocketAddr) -> Peer {
        Peer {
            addr,
            suspect: 0,
            reconnects: 0,
            connected: false,
        }
    }
}

impl State {
    /// Whether `peer` is under suspicion that has not expired at `now`.
    pub(super) fn suspect_at(&self, peer: usize, now: u64) -> bool {
        self.peers.get(peer).is_some_and(|p| p.suspect > now)
    }

    /// Marks `peer` suspect until `now + suspect_ttl`; counts only the
    /// not-suspect → suspect transition so `peers_suspected` reflects
    /// detection events, not retries.
    pub(super) fn mark_suspect(&mut self, peer: usize) {
        let now = self.now_ms();
        let expiry =
            now.saturating_add(u64::try_from(self.cfg.suspect_ttl.as_millis()).unwrap_or(u64::MAX));
        if let Some(p) = self.peers.get_mut(peer) {
            let prev = std::mem::replace(&mut p.suspect, expiry.max(1));
            if prev <= now {
                self.counters.hot.peers_suspected += 1;
                self.log(&format!("peer {peer} marked suspect"));
            }
        }
    }

    pub(super) fn clear_suspect(&mut self, peer: usize) {
        let now = self.now_ms();
        if let Some(p) = self.peers.get_mut(peer) {
            let prev = std::mem::take(&mut p.suspect);
            if prev > now {
                self.log(&format!("peer {peer} recovered"));
            }
        }
    }
}
