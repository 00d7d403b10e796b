//! Correlation ids for multiplexed peer links: the continuation slab.
//!
//! A peer link carries any number of interleaved request/response
//! frames, correlated by an in-band 8-byte id (see [`crate::frame`] for
//! the layout). The node reactor never waits for a response: it writes
//! the request frame, *parks* what must happen when the answer arrives
//! in a [`Parked`] slab, and goes back to its event loop. The key the
//! slab hands out **is** the correlation id on the wire; the peer echoes
//! it, and the reactor takes the continuation back out and runs it on
//! the same thread.
//!
//! Keys are generational — `generation << 32 | slot` — so a key names
//! its value only until that value is taken. A response that arrives
//! after its continuation expired (or was failed by link death) finds
//! nothing, even when the slot has long been reused, and is dropped:
//! a timeout never desynchronizes a link and never tears it down.

/// A generational slab of parked continuations, keyed by the correlation
/// id sent on the wire.
#[derive(Debug)]
pub(crate) struct Parked<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

#[derive(Debug)]
struct Slot<T> {
    /// Bumped every time the slot is vacated, which kills the old key.
    generation: u32,
    value: Option<T>,
}

impl<T> Default for Parked<T> {
    fn default() -> Self {
        Parked {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }
}

impl<T> Parked<T> {
    /// Parks `value` and returns the correlation id that names it.
    pub(crate) fn park(&mut self, value: T) -> u64 {
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                generation: 0,
                value: None,
            });
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 parked continuations")
        });
        let slot = &mut self.slots[index as usize];
        slot.value = Some(value);
        self.live += 1;
        u64::from(slot.generation) << 32 | u64::from(index)
    }

    fn slot(&self, corr: u64) -> Option<&Slot<T>> {
        self.slots
            .get((corr & 0xFFFF_FFFF) as usize)
            .filter(|slot| u64::from(slot.generation) == corr >> 32)
    }

    /// The continuation `corr` names, if it is still parked.
    pub(crate) fn get(&self, corr: u64) -> Option<&T> {
        self.slot(corr)?.value.as_ref()
    }

    /// Mutable access to the continuation `corr` names.
    pub(crate) fn get_mut(&mut self, corr: u64) -> Option<&mut T> {
        self.slot(corr)?;
        self.slots[(corr & 0xFFFF_FFFF) as usize].value.as_mut()
    }

    /// Removes and returns the continuation `corr` names. `None` for a
    /// late id: the continuation already completed, expired, or failed.
    pub(crate) fn take(&mut self, corr: u64) -> Option<T> {
        self.slot(corr)?;
        let index = (corr & 0xFFFF_FFFF) as u32;
        let slot = &mut self.slots[index as usize];
        let value = slot.value.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(index);
        self.live -= 1;
        Some(value)
    }

    /// Continuations currently parked.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Every parked continuation with its correlation id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots.iter().enumerate().filter_map(|(index, slot)| {
            let value = slot.value.as_ref()?;
            Some((u64::from(slot.generation) << 32 | index as u64, value))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::tests::{forwarder, roundtrip, scripted_peer, test_config, with_peer};
    use gred_dataplane::{Packet, ResponseStatus};
    use gred_hash::DataId;
    use std::io::Read;
    use std::net::TcpListener;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn demux_routes_by_correlation_id() {
        let mut parked = Parked::default();
        let one = parked.park("one");
        let two = parked.park("two");
        assert_ne!(one, two);
        assert_eq!(parked.len(), 2);
        assert_eq!(parked.take(two), Some("two"));
        assert_eq!(parked.get(one), Some(&"one"));
        assert_eq!(parked.take(one), Some("one"));
        // A late response after an expiry is dropped, not misdelivered —
        // even though the slot is immediately reused by a new request.
        let expired = parked.park("expired");
        assert_eq!(parked.take(expired), Some("expired"));
        let reused = parked.park("fresh");
        assert_eq!(reused & 0xFFFF_FFFF, expired & 0xFFFF_FFFF, "same slot");
        assert_eq!(parked.take(expired), None, "the old key is dead");
        assert_eq!(parked.get_mut(reused), Some(&mut "fresh"));
        assert_eq!(parked.iter().collect::<Vec<_>>(), vec![(reused, &"fresh")]);
    }

    #[test]
    fn concurrent_calls_each_get_their_own_response() {
        // Two forwards in flight on one link; the peer answers them in
        // reverse arrival order. Each response echoes its request's id,
        // so each client proves it got the answer to *its* request.
        let reorderer = |listener: TcpListener| {
            let mut held: Vec<(u64, Packet)> = Vec::new();
            scripted_peer(&listener, |corr, request| {
                held.push((corr, Packet::response(request.id, format!("corr-{corr}"))));
                if held.len() < 2 {
                    return Vec::new();
                }
                held.drain(..).rev().collect()
            });
        };
        with_peer(reorderer, |peer_addr| {
            let mut node = forwarder(peer_addr, test_config());
            let addr = node.addr();
            thread::scope(|scope| {
                for i in 0..2 {
                    scope.spawn(move || {
                        let id = DataId::new(format!("key-{i}"));
                        let reply = roundtrip(addr, &Packet::retrieval(id.clone()));
                        assert_eq!(reply.id, id, "caller {i} got a sibling's response");
                        let text = String::from_utf8(reply.payload.to_vec()).unwrap();
                        assert!(text.starts_with("corr-"), "unexpected payload {text}");
                    });
                }
            });
            assert_eq!(node.parked_continuations(), 0);
            node.shutdown();
        });
    }

    #[test]
    fn timeout_leaves_the_link_usable() {
        let swallower = |listener: TcpListener| {
            let mut seen = 0u32;
            let mut swallowed = None;
            scripted_peer(&listener, |corr, request| {
                seen += 1;
                if seen == 1 {
                    swallowed = Some((corr, request.id));
                    return Vec::new(); // let the first request time out
                }
                // Answer the second request — and, late, the first: the
                // expired continuation's id must find nothing.
                let (late, late_id) = swallowed.take().expect("first request seen");
                vec![
                    (late, Packet::response(late_id, b"late".as_ref())),
                    (corr, Packet::response(request.id, b"answered".as_ref())),
                ]
            });
        };
        with_peer(swallower, |peer_addr| {
            let mut cfg = test_config();
            cfg.peer_reply_timeout = Duration::from_millis(60);
            cfg.suspect_ttl = Duration::from_millis(1);
            let mut node = forwarder(peer_addr, cfg);
            let request = Packet::retrieval(DataId::new("k"));
            let expired = roundtrip(node.addr(), &request);
            assert_eq!(expired.status, ResponseStatus::Redirect);
            assert_eq!(node.parked_continuations(), 0, "the expiry freed its slot");
            thread::sleep(Duration::from_millis(5)); // let the suspicion lapse
            let reply = roundtrip(node.addr(), &request);
            assert_eq!(reply.payload.as_ref(), b"answered");
            let report = node.shutdown();
            assert_eq!(
                report.hot.link_reconnects, 0,
                "a timeout must not kill the link"
            );
            assert_eq!(report.hot.peers_suspected, 1);
        });
    }

    #[test]
    fn demux_fail_all_disconnects_waiters_and_refuses_new_ones() {
        // Link death fails every continuation parked on it — after one
        // resend on a fresh link — and a peer that keeps hanging up is
        // suspected instead of being dialed forever.
        let hanger_up = |listener: TcpListener| {
            for _ in 0..2 {
                // Read the request, answer nothing, hang up.
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = [0u8; 4096];
                let _ = stream.read(&mut buf);
            }
        };
        with_peer(hanger_up, |peer_addr| {
            let mut node = forwarder(peer_addr, test_config());
            let reply = roundtrip(node.addr(), &Packet::retrieval(DataId::new("k")));
            assert_eq!(
                reply.status,
                ResponseStatus::Redirect,
                "no 5 s timeout wait"
            );
            assert_eq!(node.parked_continuations(), 0);
            assert_eq!(node.suspect_peers(), vec![1]);
            // While the peer is suspect greedy treats it as absent: the next
            // read is served (as a degraded miss) without touching the link.
            let detoured = roundtrip(node.addr(), &Packet::retrieval(DataId::new("k")));
            assert_eq!(detoured.detours, 1);
            let report = node.shutdown();
            assert_eq!(report.hot.link_reconnects, 1, "one resend on a fresh link");
            assert_eq!(report.hot.redirects_issued, 1);
        });
    }
}
