//! GRED packet headers.
//!
//! The P4 prototype defines a custom header carrying the request tag
//! (placement vs retrieval — "a tag is used in the packet header to
//! indicate a placement/retrieval request", Section V-C), the data
//! identifier's virtual position, and, while a packet traverses a virtual
//! link, the relay fields `<dest, sour, relay>` of Section V-A.

use bytes::Bytes;
use gred_geometry::Point2;
use gred_hash::DataId;

/// Well-known id carried by stats scrape packets (observability traffic
/// concerns no data item, but the wire header still needs an id).
pub const OBS_STATS_ID: &str = "!gred/stats";
/// Well-known id carried by admin verb packets.
pub const OBS_ADMIN_ID: &str = "!gred/admin";

/// What a GRED packet asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Store the payload at the responsible edge server.
    Placement,
    /// Fetch the data; the storing server responds.
    Retrieval,
    /// A server's answer to a retrieval.
    RetrievalResponse,
    /// Coherence traffic: drop any cached copy of the id. Sent
    /// point-to-point between peers before a write acks; never routed
    /// greedily and never relayed.
    Invalidate,
    /// Observability scrape: ask the receiving node for its live stats
    /// snapshot. Payload-free, never routed greedily, never relayed, and
    /// answered by the reactor from the state it owns.
    Stats,
    /// Answer to a [`Stats`](PacketKind::Stats) scrape. The payload is an
    /// encoded `StatsSnapshot` (see the `obs` module).
    StatsResponse,
    /// Admin verb (ping / drain / crash / restart / join / leave),
    /// encoded as an `AdminOp` payload. Data nodes only answer `Ping`;
    /// lifecycle verbs are the admin endpoint's business.
    Admin,
    /// Answer to an [`Admin`](PacketKind::Admin) verb: UTF-8 result text,
    /// with [`ResponseStatus::Error`] when the verb was refused or
    /// failed.
    AdminResponse,
}

impl PacketKind {
    /// Whether this kind is a response (and may therefore legally carry a
    /// non-[`Ok`](ResponseStatus::Ok) status on the wire).
    pub fn is_response(self) -> bool {
        matches!(
            self,
            PacketKind::RetrievalResponse | PacketKind::StatsResponse | PacketKind::AdminResponse
        )
    }
}

impl std::fmt::Display for PacketKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PacketKind::Placement => "placement",
            PacketKind::Retrieval => "retrieval",
            PacketKind::RetrievalResponse => "retrieval-response",
            PacketKind::Invalidate => "invalidate",
            PacketKind::Stats => "stats",
            PacketKind::StatsResponse => "stats-response",
            PacketKind::Admin => "admin",
            PacketKind::AdminResponse => "admin-response",
        };
        f.write_str(s)
    }
}

/// Outcome carried by a response packet. Requests always carry
/// [`ResponseStatus::Ok`]; a response distinguishes a hit from a miss
/// (`NotFound`), from a server-side failure (`Error`), from a routing
/// abort caused by suspect peers (`Redirect` — the request was *not*
/// served and the client should retry elsewhere), and from a served-but-
/// detoured delivery (`Degraded` — the answer is real but greedy
/// forwarding had to route around suspect neighbors, so the one-hop
/// placement guarantee may not hold for this copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResponseStatus {
    /// The request succeeded (or this is a request packet).
    #[default]
    Ok,
    /// The responsible server does not store the item.
    NotFound,
    /// The request could not be served (misrouted, transit access, or a
    /// broken relay chain).
    Error,
    /// Routing aborted before reaching an owner: every viable next hop
    /// was suspect or the detour budget ran out. Nothing was stored or
    /// read — the client must retry via another access node.
    Redirect,
    /// Served, but the greedy walk detoured around suspect neighbors —
    /// the delivery switch may not be the true greedy owner.
    Degraded,
}

impl ResponseStatus {
    /// Whether a placement carrying this status actually stored the item
    /// somewhere (cleanly or on a detour owner).
    pub fn served(self) -> bool {
        matches!(self, ResponseStatus::Ok | ResponseStatus::Degraded)
    }
}

impl std::fmt::Display for ResponseStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ResponseStatus::Ok => "ok",
            ResponseStatus::NotFound => "not-found",
            ResponseStatus::Error => "error",
            ResponseStatus::Redirect => "redirect",
            ResponseStatus::Degraded => "degraded",
        };
        f.write_str(s)
    }
}

/// Which read caches a retrieval response may fill on its way back to
/// the access switch. Every other kind carries the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Cacheable {
    /// The owner answered and recorded the access switch stamped as the
    /// request's [`sharer`](Packet::sharer): only that switch may keep it.
    #[default]
    BySharer,
    /// The owner answered an item whose readers it does not track: any
    /// switch may keep it, since the item's next write invalidates every
    /// switch.
    Anywhere,
    /// A cache answered from such a copy. A switch may keep it only if no
    /// write's invalidation has ever reached its cache shard for the id:
    /// the copy may predate a write whose invalidation that switch
    /// already took.
    WhenPristine,
}

/// Virtual-link relay header: present while the packet is being tunnelled
/// between two multi-hop DT neighbors. Field names follow the paper's
/// `d = <d.dest, d.sour, d.relay, d.data>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RelayHeader {
    /// End switch of the virtual link.
    pub dest: usize,
    /// Source switch of the virtual link.
    pub sour: usize,
    /// Next relay switch the packet is currently addressed to.
    pub relay: usize,
}

/// A GRED data-plane packet.
///
/// ```
/// use gred_dataplane::{Packet, PacketKind};
/// use gred_hash::DataId;
/// let p = Packet::placement(DataId::new("k"), b"value".as_ref());
/// assert_eq!(p.kind, PacketKind::Placement);
/// assert!(p.relay.is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Request tag.
    pub kind: PacketKind,
    /// The data identifier the request concerns.
    pub id: DataId,
    /// The identifier's position in the virtual space (`H(d)` reduced to
    /// the unit square). Stored in the header so every switch on the path
    /// can compare neighbor distances without re-hashing: the client
    /// hashes once, a response echoes its request's position, and
    /// nothing after the client hashes the id again to route it.
    pub position: Point2,
    /// Virtual-link relay header, when traversing a virtual link.
    pub relay: Option<RelayHeader>,
    /// Response outcome (always [`ResponseStatus::Ok`] on requests).
    pub status: ResponseStatus,
    /// Physical hops this packet has traversed — an in-band telemetry
    /// counter incremented by every switch that forwards the packet, so a
    /// response can report the request's routing cost to the client.
    pub hops: u16,
    /// Detours this packet has taken: forwarding decisions where the true
    /// greedy next hop was suspect and a farther neighbor (or local
    /// delivery) was used instead. Nonzero detours on a delivered packet
    /// mean the one-hop routing guarantee may not hold for it.
    pub detours: u16,
    /// The access switch that will cache the answer to this retrieval —
    /// stamped by that switch when it forwards the request, so the owner
    /// can record who holds a copy and invalidate only them on the next
    /// write. Only ever set on [`PacketKind::Retrieval`].
    pub sharer: Option<usize>,
    /// Which caches may keep this response (responses only).
    pub cacheable: Cacheable,
    /// Payload (data contents for placements, empty for retrievals).
    pub payload: Bytes,
}

impl Packet {
    /// A packet of `kind` for `id` at its hashed position, with every
    /// header field at its request default.
    fn new(kind: PacketKind, id: DataId, payload: Bytes) -> Self {
        let (x, y) = gred_hash::virtual_position(&id);
        Packet::at(kind, id, Point2::new(x, y), payload)
    }

    /// A packet of `kind` for `id` at `position`, which must be `H(id)`'s,
    /// with every other header field at its request default.
    fn at(kind: PacketKind, id: DataId, position: Point2, payload: Bytes) -> Self {
        Packet {
            kind,
            position,
            id,
            relay: None,
            status: ResponseStatus::Ok,
            hops: 0,
            detours: 0,
            sharer: None,
            cacheable: Cacheable::BySharer,
            payload,
        }
    }

    /// A placement request for `id` carrying `payload`.
    pub fn placement(id: DataId, payload: impl Into<Bytes>) -> Self {
        Packet::new(PacketKind::Placement, id, payload.into())
    }

    /// A retrieval request for `id`.
    pub fn retrieval(id: DataId) -> Self {
        Packet::new(PacketKind::Retrieval, id, Bytes::new())
    }

    /// A response to a retrieval, carrying the stored payload.
    pub fn response(id: DataId, payload: impl Into<Bytes>) -> Self {
        Packet::new(PacketKind::RetrievalResponse, id, payload.into())
    }

    /// A node's answer to `request`: an `Ok` response for the same id
    /// carrying `payload`, with the request's hop and detour counts. It
    /// takes the request's position, which already is `H(id)`, so
    /// building it hashes nothing.
    pub fn answer(request: &Packet, payload: impl Into<Bytes>) -> Self {
        let mut p = Packet::at(
            PacketKind::RetrievalResponse,
            request.id.clone(),
            request.position,
            payload.into(),
        );
        p.hops = request.hops;
        p.detours = request.detours;
        p
    }

    /// An invalidation notice for `id`: the receiver must drop any
    /// cached copy before the sender's write acks. Payload-free.
    pub fn invalidate(id: DataId) -> Self {
        Packet::new(PacketKind::Invalidate, id, Bytes::new())
    }

    /// The invalidation notice a write owes for the id `ack` answers,
    /// at `ack`'s position: what [`invalidate`](Packet::invalidate)
    /// builds, without hashing the id again.
    pub fn notice_for(ack: &Packet) -> Self {
        Packet::at(
            PacketKind::Invalidate,
            ack.id.clone(),
            ack.position,
            Bytes::new(),
        )
    }

    /// A stats scrape request. Observability packets concern no data
    /// item, so they carry a fixed well-known id (and its hashed
    /// position, which routing never looks at — stats are answered by
    /// whichever node receives them).
    pub fn stats_request() -> Self {
        Packet::new(PacketKind::Stats, DataId::new(OBS_STATS_ID), Bytes::new())
    }

    /// A stats scrape answer carrying an encoded snapshot.
    pub fn stats_response(payload: impl Into<Bytes>) -> Self {
        let mut p = Packet::stats_request();
        p.kind = PacketKind::StatsResponse;
        p.payload = payload.into();
        p
    }

    /// An admin verb carrying an encoded `AdminOp` payload.
    pub fn admin_request(payload: impl Into<Bytes>) -> Self {
        Packet::new(PacketKind::Admin, DataId::new(OBS_ADMIN_ID), payload.into())
    }

    /// A successful admin answer carrying UTF-8 result text.
    pub fn admin_response(text: impl Into<Bytes>) -> Self {
        let mut p = Packet::admin_request(text);
        p.kind = PacketKind::AdminResponse;
        p
    }

    /// A refused/failed admin answer: UTF-8 error text with
    /// [`ResponseStatus::Error`].
    pub fn admin_error(text: impl Into<Bytes>) -> Self {
        let mut p = Packet::admin_response(text);
        p.status = ResponseStatus::Error;
        p
    }

    /// A miss response: the responsible server stores nothing under `id`.
    pub fn not_found(id: DataId) -> Self {
        let mut p = Packet::response(id, Bytes::new());
        p.status = ResponseStatus::NotFound;
        p
    }

    /// A failure response: the request could not be served.
    pub fn error_response(id: DataId) -> Self {
        let mut p = Packet::response(id, Bytes::new());
        p.status = ResponseStatus::Error;
        p
    }

    /// A redirect response: routing aborted on suspect peers / detour
    /// budget, the client should retry via a different access node.
    pub fn redirect_response(id: DataId) -> Self {
        let mut p = Packet::response(id, Bytes::new());
        p.status = ResponseStatus::Redirect;
        p
    }

    /// Enters a virtual link from `sour` to `dest`, initially addressed to
    /// `relay`.
    pub fn with_relay(mut self, sour: usize, relay: usize, dest: usize) -> Self {
        self.relay = Some(RelayHeader { dest, sour, relay });
        self
    }

    /// Leaves the virtual link (the header is popped at the link end).
    pub fn without_relay(mut self) -> Self {
        self.relay = None;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind_and_position() {
        let id = DataId::new("abc");
        let place = Packet::placement(id.clone(), b"v".as_ref());
        let get = Packet::retrieval(id.clone());
        let resp = Packet::response(id.clone(), b"v".as_ref());
        assert_eq!(place.kind, PacketKind::Placement);
        assert_eq!(get.kind, PacketKind::Retrieval);
        assert_eq!(resp.kind, PacketKind::RetrievalResponse);
        // All three carry the same hashed position.
        assert_eq!(place.position, get.position);
        assert_eq!(get.position, resp.position);
        let (x, y) = gred_hash::virtual_position(&id);
        assert_eq!(place.position, Point2::new(x, y));
    }

    #[test]
    fn answers_and_notices_inherit_without_hashing() {
        let id = DataId::new("k");
        let mut request = Packet::placement(id.clone(), b"v".as_ref());
        request.hops = 3;
        request.detours = 1;
        request.position = Point2::new(0.25, 0.75); // not H(k): visibly copied
        let answer = Packet::answer(&request, b"ack".as_ref());
        let mut want = Packet::response(id.clone(), b"ack".as_ref());
        want.position = request.position;
        want.hops = 3;
        want.detours = 1;
        assert_eq!(answer, want);
        let mut notice = Packet::invalidate(id);
        notice.position = request.position;
        assert_eq!(Packet::notice_for(&answer), notice);
    }

    #[test]
    fn relay_header_lifecycle() {
        let p = Packet::retrieval(DataId::new("k"));
        assert_eq!(p.relay, None);
        let p = p.with_relay(1, 2, 5);
        assert_eq!(
            p.relay,
            Some(RelayHeader {
                dest: 5,
                sour: 1,
                relay: 2
            })
        );
        let p = p.without_relay();
        assert_eq!(p.relay, None);
    }

    #[test]
    fn payloads() {
        let place = Packet::placement(DataId::new("k"), b"hello".as_ref());
        assert_eq!(&place.payload[..], b"hello");
        assert!(Packet::retrieval(DataId::new("k")).payload.is_empty());
    }

    #[test]
    fn status_constructors() {
        let id = DataId::new("k");
        assert_eq!(
            Packet::placement(id.clone(), Bytes::new()).status,
            ResponseStatus::Ok
        );
        let miss = Packet::not_found(id.clone());
        assert_eq!(miss.kind, PacketKind::RetrievalResponse);
        assert_eq!(miss.status, ResponseStatus::NotFound);
        assert!(miss.payload.is_empty());
        let err = Packet::error_response(id.clone());
        assert_eq!(err.kind, PacketKind::RetrievalResponse);
        assert_eq!(err.status, ResponseStatus::Error);
        let redir = Packet::redirect_response(id);
        assert_eq!(redir.kind, PacketKind::RetrievalResponse);
        assert_eq!(redir.status, ResponseStatus::Redirect);
        assert!(redir.payload.is_empty());
    }

    #[test]
    fn served_statuses() {
        assert!(ResponseStatus::Ok.served());
        assert!(ResponseStatus::Degraded.served());
        assert!(!ResponseStatus::NotFound.served());
        assert!(!ResponseStatus::Error.served());
        assert!(!ResponseStatus::Redirect.served());
    }

    #[test]
    fn hops_start_at_zero() {
        assert_eq!(Packet::retrieval(DataId::new("k")).hops, 0);
        assert_eq!(Packet::response(DataId::new("k"), Bytes::new()).hops, 0);
    }

    #[test]
    fn status_display() {
        assert_eq!(ResponseStatus::Ok.to_string(), "ok");
        assert_eq!(ResponseStatus::NotFound.to_string(), "not-found");
        assert_eq!(ResponseStatus::Error.to_string(), "error");
        assert_eq!(ResponseStatus::Redirect.to_string(), "redirect");
        assert_eq!(ResponseStatus::Degraded.to_string(), "degraded");
    }

    #[test]
    fn kind_display() {
        assert_eq!(PacketKind::Placement.to_string(), "placement");
        assert_eq!(PacketKind::Retrieval.to_string(), "retrieval");
        assert_eq!(
            PacketKind::RetrievalResponse.to_string(),
            "retrieval-response"
        );
        assert_eq!(PacketKind::Invalidate.to_string(), "invalidate");
        assert_eq!(PacketKind::Stats.to_string(), "stats");
        assert_eq!(PacketKind::StatsResponse.to_string(), "stats-response");
        assert_eq!(PacketKind::Admin.to_string(), "admin");
        assert_eq!(PacketKind::AdminResponse.to_string(), "admin-response");
    }

    #[test]
    fn response_kinds() {
        assert!(PacketKind::RetrievalResponse.is_response());
        assert!(PacketKind::StatsResponse.is_response());
        assert!(PacketKind::AdminResponse.is_response());
        assert!(!PacketKind::Placement.is_response());
        assert!(!PacketKind::Retrieval.is_response());
        assert!(!PacketKind::Invalidate.is_response());
        assert!(!PacketKind::Stats.is_response());
        assert!(!PacketKind::Admin.is_response());
    }

    #[test]
    fn observability_constructors() {
        let scrape = Packet::stats_request();
        assert_eq!(scrape.kind, PacketKind::Stats);
        assert!(scrape.payload.is_empty());
        assert!(scrape.relay.is_none());
        assert_eq!(scrape.id, DataId::new(OBS_STATS_ID));

        let snap = Packet::stats_response(b"snapshot".as_ref());
        assert_eq!(snap.kind, PacketKind::StatsResponse);
        assert_eq!(snap.status, ResponseStatus::Ok);
        assert_eq!(&snap.payload[..], b"snapshot");
        assert_eq!(snap.id, scrape.id);

        let verb = Packet::admin_request(b"op".as_ref());
        assert_eq!(verb.kind, PacketKind::Admin);
        assert_eq!(verb.id, DataId::new(OBS_ADMIN_ID));

        let ok = Packet::admin_response(b"done".as_ref());
        assert_eq!(ok.kind, PacketKind::AdminResponse);
        assert_eq!(ok.status, ResponseStatus::Ok);
        assert_eq!(&ok.payload[..], b"done");

        let err = Packet::admin_error(b"refused".as_ref());
        assert_eq!(err.kind, PacketKind::AdminResponse);
        assert_eq!(err.status, ResponseStatus::Error);
        assert_eq!(&err.payload[..], b"refused");
    }

    #[test]
    fn invalidate_constructor_is_payload_free_and_unrouted() {
        let id = DataId::new("k");
        let p = Packet::invalidate(id.clone());
        assert_eq!(p.kind, PacketKind::Invalidate);
        assert_eq!(p.status, ResponseStatus::Ok);
        assert!(p.payload.is_empty());
        assert!(p.relay.is_none());
        let (x, y) = gred_hash::virtual_position(&id);
        assert_eq!(p.position, Point2::new(x, y));
    }
}
