//! Routing steps: what this node does with one packet up to the point
//! where it would leave the node. The switch program itself — relay
//! header, greedy pipeline — is [`SwitchDataplane::step`], the function
//! the in-process model walks; this module is only what a *node* adds
//! around it: kind dispatch and server-addressed delivery before it,
//! then, in order, the detour budget, the read-cache probe and the send
//! — or, when the step delivers here, the store and its sharer
//! bookkeeping. Pure local work on the switch's [`State`] — nothing
//! here touches a socket.
//!
//! [`SwitchDataplane::step`]: gred_dataplane::SwitchDataplane::step

use super::{Sharers, State, StoredItem, MAX_DETOURS};
use crate::proto;
use bytes::Bytes;
use gred_cache::Token;
use gred_dataplane::{AdminOp, Cacheable, Delivery, Hop, Packet, PacketKind, ResponseStatus};
use gred_hash::DataId;
use gred_net::ServerId;

/// Outcome of one local routing decision ([`State::route_step`]): either
/// the response is ready, or the packet (already mutated for the hop —
/// hops counted, relay/server headers set) must travel to peer `to`.
/// Splitting the decision from the send is what lets the reactor group
/// every packet of a call bound for the same next hop into one frame.
pub(super) enum Step {
    /// The request was answered (or refused) on this node.
    Respond {
        resp: Packet,
        /// The response acks a placement stored on *this* node that owes
        /// these invalidations: they must run (and may downgrade the
        /// ack) before the response leaves the node. `None` when no
        /// switch can cache an older copy.
        fanout: Option<Fanout>,
    },
    /// The packet's next stop is peer switch `to`.
    Forward {
        /// Destination switch id.
        to: usize,
        /// The packet as it must appear on the wire to `to`.
        packet: Packet,
        /// A clean retrieval that missed this node's cache: admit the
        /// peer's response under this pre-send token (refused if an
        /// invalidation raced past while the continuation was parked).
        fill: Option<CacheFill>,
    },
}

/// The invalidations one stored write owes before it may ack.
#[derive(Clone, Copy)]
pub(super) struct Fanout {
    /// The write's [`StoredItem::serial`].
    pub(super) serial: u64,
    /// Every switch that may cache an older copy of the item.
    pub(super) targets: Sharers,
}

impl Step {
    /// A plain local answer: no store, no cache admission.
    pub(super) fn respond(resp: Packet) -> Step {
        Step::Respond { resp, fanout: None }
    }

    /// The packet leaves for `to`, one hop older.
    fn forward(mut packet: Packet, to: usize, fill: Option<CacheFill>) -> Step {
        packet.hops = packet.hops.saturating_add(1);
        Step::Forward { to, packet, fill }
    }

    /// The packet leaves for `server`'s switch, addressed at the server
    /// itself so greedy forwarding cannot route it back to the owner.
    fn to_server(packet: Packet, server: ServerId) -> Step {
        let packet = proto::address_to_server(packet, server);
        Step::forward(packet, server.switch, None)
    }
}

/// Pending read-cache admission for one forwarded retrieval.
pub(super) struct CacheFill {
    pub(super) id: DataId,
    pub(super) token: Token,
    /// This node is the request's access node, stamped as its sharer.
    pub(super) access: bool,
}

impl State {
    /// One local routing decision: runs the packet up to the point where
    /// it would leave this node, returning the prepared hop instead of
    /// performing it. Pure local work — it never touches a socket, which
    /// is what lets the reactor run it inline.
    pub(super) fn route_step(&mut self, mut packet: Packet) -> Step {
        if packet.kind == PacketKind::Invalidate {
            // Coherence traffic: drop any cached copy and ack. Handled
            // before the request counter — an invalidation is overhead
            // of someone else's write, not a request of its own.
            self.cache.take_invalidation(&packet.id);
            self.counters.hot.invalidations_rx += 1;
            return Step::respond(Packet::answer(&packet, Bytes::new()));
        }
        if packet.kind == PacketKind::Admin {
            // Data nodes answer liveness probes and refuse lifecycle
            // verbs: only the admin endpoint owns the network model and
            // node handles those verbs act on. Refusal is in-band (an
            // error-status AdminResponse), never a dropped frame.
            let reply = match AdminOp::decode(&packet.payload) {
                Ok(AdminOp::Ping) => {
                    Packet::admin_response(format!("pong from switch {}", self.id).into_bytes())
                }
                Ok(op) => Packet::admin_error(
                    format!(
                        "node {} refuses {op}: lifecycle verbs need the admin endpoint",
                        self.id
                    )
                    .into_bytes(),
                ),
                Err(e) => Packet::admin_error(format!("bad admin payload: {e}").into_bytes()),
            };
            return Step::respond(reply);
        }
        self.counters.requests += 1;
        if packet.kind == PacketKind::RetrievalResponse {
            // Responses travel back along the links, never as requests.
            return Step::respond(self.refuse(&packet, "response packet arrived as a request"));
        }
        if let Some(server) = proto::server_addressed(&packet) {
            if server.switch != self.id {
                return Step::respond(
                    self.refuse(&packet, "server-addressed packet at the wrong switch"),
                );
            }
            return self.deliver_direct(packet.without_relay(), server);
        }
        // Everything else is the switch program itself: relay-header
        // handling, then the greedy pipeline with suspect DT neighbors
        // treated as absent.
        let stepped = {
            let now = self.now_ms();
            let alive = |n: usize| !self.suspect_at(n, now);
            self.plane
                .step(packet.position, &packet.id, packet.relay, &alive)
        };
        let (hop, detoured) = match stepped {
            Ok(stepped) => stepped,
            Err(refusal) => return Step::respond(self.refuse(&packet, refusal)),
        };
        if detoured {
            // The walk took the next-best live neighbor (or delivered
            // here): count it in the packet and abort with a redirect
            // once the budget is spent, so a partitioned walk terminates
            // observably.
            self.counters.hot.detour_forwards += 1;
            packet.detours = packet.detours.saturating_add(1);
            if packet.detours > MAX_DETOURS {
                return Step::respond(self.redirect(&packet, "detour budget exhausted"));
            }
        }
        match hop {
            Hop::Deliver(delivery) => self.deliver_step(packet, delivery),
            Hop::Relay { to, relay } => {
                self.counters.relayed += 1;
                packet.relay = Some(relay);
                Step::forward(packet, to, None)
            }
            Hop::Forward { to, relay } => {
                // Hot-key fast path: a clean remote-destined retrieval
                // may be answered from the read cache with zero further
                // peer frames. The access node (the request entered the
                // cluster here) may answer from any entry; a miss leaves
                // stamped with its id, so the owner records who will
                // cache the reply. A transit node answers only from a
                // shared entry — a copy whose owner tracks no readers —
                // and its answer is marked as a cache's. Local
                // deliveries, relay legs and detoured walks never probe
                // or fill. `maybe_cache` holds the admission rules.
                let fill = if packet.kind == PacketKind::Retrieval
                    && packet.detours == 0
                    && self.cache.is_enabled()
                {
                    let access = packet.hops == 0;
                    let token = self.cache.begin_read(&packet.id);
                    let hit = if access {
                        self.cache.get(&packet.id)
                    } else {
                        self.cache.get_shared(&packet.id)
                    };
                    if let Some(payload) = hit {
                        let mut resp = Packet::answer(&packet, payload);
                        if !access {
                            resp.cacheable = Cacheable::WhenPristine;
                        }
                        return Step::respond(resp);
                    }
                    if access {
                        packet.sharer = Some(self.id);
                    }
                    Some(CacheFill {
                        id: packet.id.clone(),
                        token,
                        access,
                    })
                } else {
                    None
                };
                self.counters.forwarded += 1;
                packet.relay = relay;
                Step::forward(packet, to, fill)
            }
        }
    }

    /// Owner-switch delivery: this switch is closest to `H(d)`.
    fn deliver_step(&mut self, packet: Packet, delivery: Delivery) -> Step {
        match packet.kind {
            PacketKind::Placement => {
                let target = delivery.write_target();
                if target.switch == self.id {
                    return self.store_local(&packet, target, false);
                }
                // The extension redirected the write to a server behind
                // another switch. The redirected copy supersedes any
                // stale primary copy — including a cached one.
                self.store.remove(&packet.id);
                self.cache.take_invalidation(&packet.id);
                Step::to_server(packet, target)
            }
            PacketKind::Retrieval => {
                for server in delivery.read_order() {
                    if server.switch != self.id {
                        return Step::to_server(packet, server);
                    }
                    if let Some(found) = self.lookup_local(&packet, server) {
                        return Step::respond(found);
                    }
                }
                Step::respond(self.respond_miss(&packet))
            }
            PacketKind::RetrievalResponse
            | PacketKind::Invalidate
            | PacketKind::Stats
            | PacketKind::StatsResponse
            | PacketKind::Admin
            | PacketKind::AdminResponse => {
                unreachable!("answered before delivery")
            }
        }
    }

    /// Serves a packet addressed at one specific local server. A write
    /// here is a range extension's: the copies it supersedes may sit on
    /// other switches, so it invalidates every peer.
    fn deliver_direct(&mut self, packet: Packet, server: ServerId) -> Step {
        match packet.kind {
            PacketKind::Placement => self.store_local(&packet, server, true),
            PacketKind::Retrieval => Step::respond(
                self.lookup_local(&packet, server)
                    .unwrap_or_else(|| self.respond_miss(&packet)),
            ),
            PacketKind::RetrievalResponse
            | PacketKind::Invalidate
            | PacketKind::Stats
            | PacketKind::StatsResponse
            | PacketKind::Admin
            | PacketKind::AdminResponse => {
                unreachable!("answered before delivery")
            }
        }
    }

    /// Stores the placement payload under local server `target` and acks
    /// with the storing server's identity. The payload is copied out of
    /// the decoded frame: sharing the frame's allocation would let one
    /// long-lived item pin the whole frame it arrived in.
    ///
    /// The ack owes an invalidation to every switch that may cache an
    /// older copy: the old copy's readers plus what its own write has not
    /// confirmed yet — or every peer when there is no old copy here or
    /// the write must `broadcast`.
    fn store_local(&mut self, packet: &Packet, target: ServerId, broadcast: bool) -> Step {
        debug_assert_eq!(target.switch, self.id);
        // The owner can also be an access node for the same id: its own
        // cached copy is superseded the moment the write lands.
        self.cache.take_invalidation(&packet.id);
        self.writes += 1;
        let serial = self.writes;
        let targets = match self.store.get(&packet.id) {
            Some(old) if !broadcast => old.readers.union(old.pending),
            _ => Sharers::All,
        };
        let item = StoredItem {
            index: target.index,
            payload: Bytes::copy_from_slice(&packet.payload),
            serial,
            readers: Sharers::NONE,
            pending: targets,
        };
        self.store.insert(packet.id.clone(), item);
        self.counters.delivered += 1;
        let mut ack = Packet::answer(packet, proto::ack_payload(target));
        if packet.detours > 0 {
            // Stored, but the greedy walk detoured: the storing switch
            // may not be the true owner, so the ack does not count as a
            // clean copy for replication quorums.
            ack.status = ResponseStatus::Degraded;
        }
        Step::Respond {
            resp: ack,
            fanout: (!targets.is_empty()).then_some(Fanout { serial, targets }),
        }
    }

    /// A write's invalidations were all confirmed: if its copy is still
    /// the stored one, no switch can hold anything older any more.
    pub(super) fn settle(&mut self, id: &DataId, serial: u64) {
        if let Some(item) = self.store.get_mut(id).filter(|item| item.serial == serial) {
            item.pending = Sharers::NONE;
        }
    }

    /// A hit response if local server `server` stores the packet's id.
    /// The access switch stamped on the request, if it is a peer, is
    /// recorded as a reader of the copy it gets, so a write replacing
    /// that copy afterwards invalidates it. A copy whose readers are
    /// unknown anyway is marked cacheable `Anywhere`: its next write
    /// invalidates every switch.
    fn lookup_local(&mut self, packet: &Packet, server: ServerId) -> Option<Packet> {
        debug_assert_eq!(server.switch, self.id);
        let sharer = packet
            .sharer
            .filter(|&s| s != self.id && s < self.peers.len())
            .and_then(|s| u32::try_from(s).ok());
        let item = self
            .store
            .get_mut(&packet.id)
            .filter(|item| item.index == server.index)?;
        if let Some(sharer) = sharer {
            item.readers.add(sharer);
        }
        let (payload, untracked) = (item.payload.clone(), item.readers == Sharers::All);
        self.counters.delivered += 1;
        let mut resp = Packet::answer(packet, payload);
        if untracked {
            resp.cacheable = Cacheable::Anywhere;
        }
        if packet.detours > 0 {
            resp.status = ResponseStatus::Degraded;
        }
        Some(resp)
    }

    fn respond_miss(&mut self, packet: &Packet) -> Packet {
        self.counters.delivered += 1;
        let mut resp = Packet::answer(packet, Bytes::new());
        resp.status = ResponseStatus::NotFound;
        resp
    }

    pub(super) fn refuse(&mut self, packet: &Packet, why: impl std::fmt::Display) -> Packet {
        self.counters.errors += 1;
        self.log(&format!("refused {} for {}: {why}", packet.kind, packet.id));
        let mut resp = Packet::answer(packet, Bytes::new());
        resp.status = ResponseStatus::Error;
        resp
    }

    /// Aborts the request with a [`Redirect`] response: nothing was
    /// served; the client should retry through another access node.
    ///
    /// [`Redirect`]: gred_dataplane::ResponseStatus::Redirect
    pub(super) fn redirect(&mut self, packet: &Packet, why: &str) -> Packet {
        self.counters.hot.redirects_issued += 1;
        self.log(&format!(
            "redirected {} for {}: {why}",
            packet.kind, packet.id
        ));
        let mut resp = Packet::answer(packet, Bytes::new());
        resp.status = ResponseStatus::Redirect;
        resp
    }

    /// Admits a forwarded retrieval's response into the read cache.
    /// Only a clean hit qualifies: an `Ok`, detour-free
    /// `RetrievalResponse` whose [`Cacheable`] mark lets this node keep
    /// it. A `BySharer` copy is kept by the stamped access node alone,
    /// as a plain entry: the owner invalidates exactly its sharers. An
    /// `Anywhere` copy is kept by any node, as a shared entry: its
    /// owner's next write invalidates every switch. A cache's
    /// (`WhenPristine`) answer is kept only if no write has ever
    /// invalidated anything in this node's cache bucket for the id: a node that
    /// was already told to drop the id must not take back an older copy
    /// from a cache the same write has not reached yet. A detoured (`Degraded`) or aborted
    /// (`Redirect`) answer may come from a stand-in switch rather than
    /// the true owner and must never populate the cache; misses and
    /// errors carry nothing worth caching. The pre-send token makes the
    /// admission epoch-fenced: if an invalidation for the id landed
    /// while the continuation was parked, the insert is refused. The
    /// payload is copied: it shares the whole response frame's
    /// allocation, which a long-lived entry would otherwise pin.
    pub(super) fn maybe_cache(&self, fill: Option<CacheFill>, resp: &Packet) {
        let Some(fill) = fill else { return };
        let shared = match resp.cacheable {
            Cacheable::BySharer if fill.access => false,
            Cacheable::Anywhere => true,
            Cacheable::WhenPristine if fill.token.is_pristine() => true,
            Cacheable::BySharer | Cacheable::WhenPristine => return,
        };
        if resp.kind != PacketKind::RetrievalResponse
            || resp.status != ResponseStatus::Ok
            || resp.detours != 0
        {
            return;
        }
        let payload = Bytes::copy_from_slice(&resp.payload);
        if shared {
            self.cache
                .insert_shared_if_fresh(fill.token, fill.id, payload);
        } else {
            self.cache.insert_if_fresh(fill.token, fill.id, payload);
        }
    }
}
