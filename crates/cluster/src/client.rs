//! Client side of the cluster protocol.
//!
//! A [`Client`] talks to one node at a time (any node — GRED routes from
//! wherever the request enters) over **one** persistent connection: the
//! correlated mux channel of [`crate::pipelined`]. A single request
//! ([`Client::place`], [`Client::retrieve`], [`Client::scrape`],
//! [`Client::admin`]) is one bare packet under a fresh correlation id —
//! a call of depth 1; a burst ([`Client::retrieve_many`],
//! [`Client::place_many`]) is chunked into batch frames, shipped with
//! one syscall and demultiplexed by correlation id on the way back. Both
//! go through the same exchange routine.
//!
//! # Retry policy
//!
//! Failures are typed ([`ClientError`]). There is one policy, applied to
//! singles and bursts alike: a *transient* failed attempt (connect/read
//! errors, timeouts, framing damage, redirects) drops the connection,
//! **rotates** to the next configured access node
//! ([`Client::connect_multi`]) and retries after a doubling backoff
//! (clamped and capped — see [`retry_backoff`]), a bounded number of
//! times — so a crashed entry point costs one attempt, not the whole
//! retry budget. A *definitive* answer (an in-band `Error` status, a
//! response of the wrong kind) is returned at once and leaves the
//! connection and the entry point alone: correlation ids keep a
//! connection in sync whatever a call's outcome, so only a failure that
//! another node might not repeat is a reason to move.
//!
//! Per-packet outcomes of a burst (including `Error` and `Redirect`) are
//! reported in each [`Reply::status`] rather than as a [`ClientError`],
//! because sibling packets in the same burst may have succeeded.
//!
//! # Replica failover
//!
//! [`Client::place_replicated`] writes `hash(id || serial)` copies until
//! a quorum of *clean* acks (status `Ok`, not `Degraded`) lands on
//! distinct switches, probing a few extra serials when owners collide;
//! [`Client::retrieve_replicated`] walks the same serials until one
//! copy answers, so a GET survives the primary's crash as long as any
//! replica's owner is alive. When the client knows its access nodes'
//! virtual positions ([`Client::connect_multi_positioned`]), the serial
//! walk is **distance-steered**: serials are probed nearest-replica
//! first in virtual space, so the common all-healthy read pays the
//! shortest greedy walk instead of serial 0's arbitrary one.

use crate::frame::FrameError;
use crate::pipelined::{Framing, PipeConn, PIPELINE_CHUNK};
use crate::proto;
use bytes::Bytes;
use gred::plane::replication::nearest_first;
use gred_dataplane::{AdminOp, DecodeError, Packet, PacketKind, ResponseStatus, StatsSnapshot};
use gred_geometry::Point2;
use gred_hash::DataId;
use gred_net::ServerId;
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// Timeouts and retry policy for a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// End-to-end deadline for one request attempt.
    pub request_timeout: Duration,
    /// Stream read timeout — the polling granularity inside an attempt.
    pub read_timeout: Duration,
    /// Retries after the first failed attempt.
    pub retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_millis(20),
            retries: 2,
            backoff: Duration::from_millis(25),
        }
    }
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// A socket operation failed.
    Io {
        /// What the client was doing.
        context: &'static str,
        /// The OS error class.
        kind: io::ErrorKind,
    },
    /// No response arrived within the request timeout.
    Timeout {
        /// The deadline that expired.
        after: Duration,
    },
    /// The response stream violated the framing protocol.
    Frame(FrameError),
    /// The response frame was not a parseable GRED packet.
    Protocol(DecodeError),
    /// The node answered with a packet kind that is not a response.
    UnexpectedKind(PacketKind),
    /// The node answered with [`ResponseStatus::Error`]: the request
    /// could not be served (misrouted, transit access, broken relay
    /// chain, or an unreachable peer).
    ServerError {
        /// The id the failed request concerned.
        id: DataId,
    },
    /// The node answered with [`ResponseStatus::Redirect`]: routing
    /// aborted on suspect peers or an exhausted detour budget. Nothing
    /// was served — transient, and the retry rotates to the next access
    /// node.
    Redirected {
        /// The id the redirected request concerned.
        id: DataId,
    },
    /// [`Client::place_replicated`] could not land the required number
    /// of clean copies on distinct switches.
    QuorumFailed {
        /// The id whose replication fell short.
        id: DataId,
        /// Distinct switches that acknowledged a clean copy.
        achieved: usize,
        /// The quorum that was required.
        required: usize,
    },
    /// Every attempt failed; `last` is the final attempt's error.
    RetriesExhausted {
        /// Attempts made (1 + retries).
        attempts: u32,
        /// The error of the last attempt.
        last: Box<ClientError>,
    },
    /// A stats scrape answered with a payload that is not a decodable
    /// snapshot — a protocol bug or version skew, never transient.
    BadSnapshot(DecodeError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io { context, kind } => write!(f, "i/o failure while {context}: {kind}"),
            ClientError::Timeout { after } => {
                write!(f, "no response within {:?}", after)
            }
            ClientError::Frame(e) => write!(f, "framing violation in response: {e}"),
            ClientError::Protocol(e) => write!(f, "malformed response packet: {e}"),
            ClientError::UnexpectedKind(kind) => {
                write!(f, "node answered with a {kind} packet")
            }
            ClientError::ServerError { id } => {
                write!(f, "node could not serve the request for {id}")
            }
            ClientError::Redirected { id } => {
                write!(f, "node redirected the request for {id} (suspect peers)")
            }
            ClientError::QuorumFailed {
                id,
                achieved,
                required,
            } => {
                write!(
                    f,
                    "replication quorum for {id} not reached: {achieved} of {required} clean copies"
                )
            }
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "request failed after {attempts} attempts: {last}")
            }
            ClientError::BadSnapshot(e) => write!(f, "malformed stats snapshot: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether a fresh connection and another attempt (via the next
    /// access node) could help.
    fn transient(&self) -> bool {
        matches!(
            self,
            ClientError::Io { .. }
                | ClientError::Timeout { .. }
                | ClientError::Frame(_)
                | ClientError::Redirected { .. }
        )
    }
}

/// A successful response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Hit, miss, or (never here — surfaced as an error) failure.
    pub status: ResponseStatus,
    /// Response payload: the stored bytes for a retrieval hit, the
    /// storing server's identity for a placement ack, empty for a miss.
    pub payload: Bytes,
    /// Physical hops the request traveled to the switch that answered —
    /// the routing cost GRED's evaluation measures, reported in-band.
    pub hops: u16,
    /// Detours the request took around suspect neighbors; nonzero means
    /// the answering switch may not be the true greedy owner.
    pub detours: u16,
}

impl Reply {
    fn from_response(response: Packet) -> Reply {
        Reply {
            status: response.status,
            payload: response.payload,
            hops: response.hops,
            detours: response.detours,
        }
    }

    /// For placement acks: the server that physically stored the item.
    pub fn ack_server(&self) -> Option<ServerId> {
        proto::parse_ack(&self.payload)
    }

    /// Whether the reply served the request — a clean hit/ack (`Ok`) or
    /// a detoured one (`Degraded`).
    pub fn is_hit(&self) -> bool {
        self.status.served()
    }

    /// Whether the reply is a clean, detour-free hit/ack. Replication
    /// quorums count only clean acks: a degraded copy may sit on the
    /// wrong switch and be unreachable once routing heals.
    pub fn is_clean(&self) -> bool {
        self.status == ResponseStatus::Ok
    }
}

/// What an admin endpoint answered to a verb ([`Client::admin`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdminReply {
    /// Whether the verb was accepted and applied (`Ok` status).
    pub ok: bool,
    /// Human-readable result or refusal text.
    pub message: String,
}

/// Extra replica serials probed beyond the requested copy count when
/// placing or retrieving replicated data — covers the (rare) case where
/// several serials hash to the same owner switch, so a `copies = k`
/// write can still land `k` clean copies on distinct switches.
pub const REPLICA_PROBE_SLACK: u32 = 4;

/// Outcome of a quorum placement ([`Client::place_replicated`]).
#[derive(Debug, Clone)]
pub struct ReplicatedPlacement {
    /// Every successful per-serial ack, in serial order.
    pub acks: Vec<(u32, Reply)>,
    /// Distinct switches that acknowledged a clean copy.
    pub clean_switches: Vec<usize>,
    /// Serials attempted (may exceed `copies` when owners collided).
    pub serials_tried: u32,
}

/// A connection to a cluster, entered through one access node at a time.
///
/// One correlated socket carries everything: a single request is a call
/// of depth 1, a burst ([`retrieve_many`](Client::retrieve_many)) keeps
/// many frames in flight. It is re-dialed lazily after a transient
/// failure, rotating across the configured access nodes so a dead entry
/// point costs one attempt instead of the whole retry budget.
#[derive(Debug)]
pub struct Client {
    addrs: Vec<SocketAddr>,
    /// Virtual-space positions of the access nodes, parallel to
    /// `addrs`. Empty when unknown — replica steering then degrades to
    /// serial order.
    positions: Vec<Point2>,
    current: usize,
    cfg: ClientConfig,
    conn: Option<PipeConn>,
}

impl Client {
    /// Connects to the node at `addr`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the node is unreachable.
    pub fn connect(addr: SocketAddr, cfg: ClientConfig) -> Result<Client, ClientError> {
        Client::connect_multi(vec![addr], cfg)
    }

    /// Connects to the first reachable of `addrs`; later retries rotate
    /// through the rest in order.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when every access node is unreachable (the
    /// last attempt's error), or when `addrs` is empty.
    pub fn connect_multi(addrs: Vec<SocketAddr>, cfg: ClientConfig) -> Result<Client, ClientError> {
        Client::connect_multi_positioned(addrs, Vec::new(), cfg)
    }

    /// Like [`connect_multi`](Client::connect_multi), but also records
    /// each access node's virtual-space position (parallel to `addrs`).
    /// Knowing where the entry point sits lets
    /// [`retrieve_replicated`](Client::retrieve_replicated) probe
    /// replica serials nearest-first instead of in serial order. Pass an
    /// empty `positions` (or mismatched length — it is ignored then) to
    /// opt out.
    ///
    /// # Errors
    ///
    /// Same as [`connect_multi`](Client::connect_multi).
    pub fn connect_multi_positioned(
        addrs: Vec<SocketAddr>,
        positions: Vec<Point2>,
        cfg: ClientConfig,
    ) -> Result<Client, ClientError> {
        if addrs.is_empty() {
            return Err(ClientError::Io {
                context: "connecting to the node",
                kind: io::ErrorKind::InvalidInput,
            });
        }
        let positions = if positions.len() == addrs.len() {
            positions
        } else {
            Vec::new()
        };
        let mut client = Client {
            addrs,
            positions,
            current: 0,
            cfg,
            conn: None,
        };
        let mut last = None;
        for _ in 0..client.addrs.len() {
            match client.ensure() {
                Ok(_) => return Ok(client),
                Err(e) => {
                    last = Some(e);
                    client.rotate();
                }
            }
        }
        Err(last.expect("addrs is non-empty"))
    }

    /// The access-node address the client currently talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addrs[self.current]
    }

    /// Every configured access-node address, in rotation order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Drops the connection and advances to the next access node.
    fn rotate(&mut self) {
        self.conn = None;
        self.current = (self.current + 1) % self.addrs.len();
    }

    /// Places `payload` under `id`, entering the network at this
    /// client's node.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; on success the reply's
    /// [`ack_server`](Reply::ack_server) names the storing server.
    pub fn place(&mut self, id: &DataId, payload: impl Into<Bytes>) -> Result<Reply, ClientError> {
        let packet = Packet::placement(id.clone(), payload.into());
        self.request(&packet)
    }

    /// Retrieves the item stored under `id`. A miss is a *successful*
    /// reply with [`ResponseStatus::NotFound`], not an error — the
    /// network answered; the answer is "nothing there".
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn retrieve(&mut self, id: &DataId) -> Result<Reply, ClientError> {
        self.request(&Packet::retrieval(id.clone()))
    }

    /// Places `copies` replicas of `payload` under `id.replica(serial)`
    /// (`hash(id || serial)`, the paper's Section VI scheme; serial 0 is
    /// `id` itself), acking only once `quorum` *clean* copies landed on
    /// distinct switches. When serial owners collide on a switch, up to
    /// [`REPLICA_PROBE_SLACK`] extra serials are tried so the quorum
    /// still measures real crash independence.
    ///
    /// # Errors
    ///
    /// [`ClientError::QuorumFailed`] when too few clean copies landed;
    /// per-serial transport errors are absorbed as long as the quorum is
    /// reached.
    pub fn place_replicated(
        &mut self,
        id: &DataId,
        payload: impl Into<Bytes>,
        copies: u32,
        quorum: usize,
    ) -> Result<ReplicatedPlacement, ClientError> {
        let payload: Bytes = payload.into();
        let copies = copies.max(1);
        let mut acks = Vec::new();
        let mut clean_switches: Vec<usize> = Vec::new();
        let mut serial = 0u32;
        while serial < copies + REPLICA_PROBE_SLACK
            && (serial < copies || clean_switches.len() < quorum)
        {
            let rid = id.replica(serial);
            if let Ok(reply) = self.place(&rid, payload.clone()) {
                if reply.is_clean() {
                    if let Some(server) = reply.ack_server() {
                        if !clean_switches.contains(&server.switch) {
                            clean_switches.push(server.switch);
                        }
                    }
                }
                acks.push((serial, reply));
            }
            serial += 1;
        }
        if clean_switches.len() < quorum {
            return Err(ClientError::QuorumFailed {
                id: id.clone(),
                achieved: clean_switches.len(),
                required: quorum,
            });
        }
        Ok(ReplicatedPlacement {
            acks,
            clean_switches,
            serials_tried: serial,
        })
    }

    /// The order in which replica serials `0..count` of `id` should be
    /// probed from the current access node: [`nearest_first`] from the
    /// access node's virtual position, or serial order when the position
    /// is unknown. The nearest replica is the cheapest greedy walk from
    /// here.
    pub fn replica_order(&self, id: &DataId, count: u32) -> Vec<u32> {
        match self.positions.get(self.current) {
            Some(&from) => nearest_first(from, id, count),
            None => (0..count).collect(),
        }
    }

    /// Retrieves `id` by walking its replica serials until one copy
    /// answers — the failover read matching
    /// [`place_replicated`](Client::place_replicated): a crashed primary
    /// owner costs one extra probe, not the datum. With known access
    /// positions the walk is steered nearest-replica first
    /// ([`replica_order`](Client::replica_order)), so the healthy-path
    /// read pays the shortest virtual-space walk.
    ///
    /// # Errors
    ///
    /// The last probe's error when no serial could be queried at all; a
    /// miss on every serial is a successful `NotFound` reply.
    pub fn retrieve_replicated(&mut self, id: &DataId, copies: u32) -> Result<Reply, ClientError> {
        let copies = copies.max(1);
        let mut miss: Option<Reply> = None;
        let mut soft_miss: Option<Reply> = None;
        let mut last_err: Option<ClientError> = None;
        for serial in self.replica_order(id, copies + REPLICA_PROBE_SLACK) {
            match self.retrieve(&id.replica(serial)) {
                Ok(reply) if reply.is_hit() => return Ok(reply),
                // A clean miss comes from the serial's true greedy
                // owner; a detoured miss was answered by a stand-in
                // while routing avoided a suspect, so it proves nothing
                // about the copy.
                Ok(reply) if reply.detours == 0 => miss = Some(reply),
                Ok(reply) => soft_miss = Some(reply),
                Err(e) => last_err = Some(e),
            }
        }
        match (miss, last_err, soft_miss) {
            // At least one owner answered authoritatively: a miss.
            (Some(reply), _, _) => Ok(reply),
            (None, Some(e), _) => Err(e),
            // Only detoured stand-ins answered: inconclusive, surface
            // it as an error rather than a (false) authoritative miss.
            (None, None, Some(_)) => Err(ClientError::Redirected { id: id.clone() }),
            (None, None, None) => unreachable!("at least one serial is probed"),
        }
    }

    /// Sends an arbitrary request packet and returns the typed reply,
    /// applying the configured retry policy to transient failures.
    ///
    /// # Errors
    ///
    /// [`ClientError::RetriesExhausted`] wrapping the last transient
    /// failure, or the first definitive error.
    pub fn request(&mut self, packet: &Packet) -> Result<Reply, ClientError> {
        self.retrying(self.cfg.retries, |client| {
            client.attempt(packet, PacketKind::RetrievalResponse)
        })
    }

    /// Scrapes the connected node's live stats snapshot over the wire.
    /// Idempotent and read-only, so transient failures retry under the
    /// configured policy exactly like a data request. Note the rotation
    /// caveat: on a multi-node client a retry may scrape a *different*
    /// access node — scrape clients are normally built one per node.
    ///
    /// # Errors
    ///
    /// Transport-level [`ClientError`]s, or
    /// [`ClientError::BadSnapshot`] when the payload does not decode.
    pub fn scrape(&mut self) -> Result<StatsSnapshot, ClientError> {
        let request = Packet::stats_request();
        let reply = self.retrying(self.cfg.retries, |client| {
            client.attempt(&request, PacketKind::StatsResponse)
        })?;
        StatsSnapshot::decode(&reply.payload).map_err(ClientError::BadSnapshot)
    }

    /// Sends one admin verb and returns the endpoint's in-band answer.
    /// **Single attempt, no retries**: lifecycle verbs (join, restart,
    /// crash) are not idempotent, so a lost response must surface as an
    /// error instead of silently re-running the verb.
    ///
    /// # Errors
    ///
    /// Transport-level [`ClientError`]s; a *refused* verb is not an
    /// error but an [`AdminReply`] with `ok == false`.
    pub fn admin(&mut self, op: &AdminOp) -> Result<AdminReply, ClientError> {
        let request = Packet::admin_request(op.encode());
        let reply = self.retrying(0, |client| {
            client.attempt(&request, PacketKind::AdminResponse)
        })?;
        Ok(AdminReply {
            ok: reply.status == ResponseStatus::Ok,
            message: String::from_utf8_lossy(&reply.payload).into_owned(),
        })
    }

    /// Retrieves every id in `ids` as one burst: one syscall ships it,
    /// responses stream back out of order and are matched by correlation
    /// id. Returns one [`Reply`] per id, in input order. Per-packet
    /// failures (`Error`, `Redirect`) stay in [`Reply::status`] —
    /// sibling requests may have succeeded — so callers must check
    /// [`Reply::is_hit`] per entry.
    ///
    /// # Errors
    ///
    /// Transport-level [`ClientError`]s only; retries re-send the whole
    /// (idempotent) burst.
    pub fn retrieve_many(&mut self, ids: &[DataId]) -> Result<Vec<Reply>, ClientError> {
        let packets: Vec<Packet> = ids.iter().map(|id| Packet::retrieval(id.clone())).collect();
        self.request_many(&packets)
    }

    /// Places every `(id, payload)` pair as one burst. Same semantics as
    /// [`retrieve_many`](Client::retrieve_many): one ordered [`Reply`]
    /// per item, per-packet statuses preserved.
    ///
    /// # Errors
    ///
    /// Transport-level [`ClientError`]s only; placements are idempotent
    /// (same id, same bytes), so retries re-send the whole burst.
    pub fn place_many(&mut self, items: &[(DataId, Bytes)]) -> Result<Vec<Reply>, ClientError> {
        let packets: Vec<Packet> = items
            .iter()
            .map(|(id, payload)| Packet::placement(id.clone(), payload.clone()))
            .collect();
        self.request_many(&packets)
    }

    /// Sends a burst of request packets as chunked batch frames,
    /// applying the configured retry policy to transport failures.
    ///
    /// # Errors
    ///
    /// [`ClientError::RetriesExhausted`] wrapping the last transient
    /// failure, or the first definitive error.
    pub fn request_many(&mut self, packets: &[Packet]) -> Result<Vec<Reply>, ClientError> {
        if packets.is_empty() {
            return Ok(Vec::new());
        }
        let responses = self.retrying(self.cfg.retries, |client| {
            client.exchange(
                packets,
                Framing::Batch(PIPELINE_CHUNK),
                PacketKind::RetrievalResponse,
            )
        })?;
        Ok(responses.into_iter().map(Reply::from_response).collect())
    }

    /// The one retry policy: runs `attempt` until it succeeds, fails
    /// definitively, or `retries` retries are spent. Only a *transient*
    /// failure drops the connection and rotates to the next access node
    /// (then backs off); a definitive one leaves both alone — late
    /// answers die by correlation id, so the connection is still in
    /// sync, and the entry point did nothing another would not.
    fn retrying<T>(
        &mut self,
        retries: u32,
        attempt: impl Fn(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let err = match attempt(self) {
                Ok(value) => return Ok(value),
                Err(e) => e,
            };
            let transient = err.transient();
            if transient {
                self.rotate();
            }
            if !transient || attempts > retries {
                return Err(if attempts > 1 {
                    ClientError::RetriesExhausted {
                        attempts,
                        last: Box::new(err),
                    }
                } else {
                    err
                });
            }
            std::thread::sleep(retry_backoff(self.cfg.backoff, attempts));
        }
    }

    fn ensure(&mut self) -> Result<&mut PipeConn, ClientError> {
        if self.conn.is_none() {
            self.conn = Some(PipeConn::connect(self.addrs[self.current], &self.cfg)?);
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }

    /// One attempt at a call: ship `packets` framed per `framing`,
    /// demultiplex one response of kind `expect` per packet.
    fn exchange(
        &mut self,
        packets: &[Packet],
        framing: Framing,
        expect: PacketKind,
    ) -> Result<Vec<Packet>, ClientError> {
        let timeout = self.cfg.request_timeout;
        self.ensure()?.exchange(packets, framing, expect, timeout)
    }

    /// One attempt at a single request — a call of depth 1. Only the
    /// data path (`RetrievalResponse`) maps `Error`/`Redirect` statuses
    /// to typed errors — observability responses keep their status in
    /// the [`Reply`] so the caller can read the in-band refusal text.
    fn attempt(&mut self, packet: &Packet, expect: PacketKind) -> Result<Reply, ClientError> {
        let response = self
            .exchange(std::slice::from_ref(packet), Framing::Bare, expect)?
            .pop()
            .expect("one response per packet");
        if expect == PacketKind::RetrievalResponse {
            if response.status == ResponseStatus::Error {
                return Err(ClientError::ServerError { id: response.id });
            }
            if response.status == ResponseStatus::Redirect {
                return Err(ClientError::Redirected { id: response.id });
            }
        }
        Ok(Reply::from_response(response))
    }
}

/// Largest exponent the doubling backoff may reach; beyond it the sleep
/// is pinned. Base 25ms shifted by 10 is already 25.6s — any larger
/// retry budget used to overflow `Duration` in the multiply and panic
/// mid-retry.
const BACKOFF_MAX_EXPONENT: u32 = 10;

/// Hard ceiling on a single retry sleep, whatever the exponent says.
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Doubling backoff with a clamped exponent and a capped, overflow-proof
/// sleep: `min(base << min(attempts-1, 10), 5s)`, saturating to the cap
/// when the multiply would overflow `Duration`.
fn retry_backoff(base: Duration, attempts: u32) -> Duration {
    let factor = 1u32 << attempts.saturating_sub(1).min(BACKOFF_MAX_EXPONENT);
    base.checked_mul(factor)
        .map_or(BACKOFF_CAP, |sleep| sleep.min(BACKOFF_CAP))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gred_hash::position::virtual_position;

    #[test]
    fn retry_backoff_doubles_then_clamps_and_caps() {
        let base = Duration::from_millis(25);
        assert_eq!(retry_backoff(base, 1), base);
        assert_eq!(retry_backoff(base, 2), base * 2);
        assert_eq!(retry_backoff(base, 3), base * 4);
        // A huge attempt count must clamp the shift (1u32 << 999 would
        // panic) and pin the sleep to the cap, not overflow.
        assert_eq!(retry_backoff(base, 999), BACKOFF_CAP);
        // A pathological base overflows the multiply: saturate to the
        // cap instead of panicking — the regression this fix is for.
        assert_eq!(retry_backoff(Duration::MAX, 4), BACKOFF_CAP);
        // The cap binds even when the multiply itself fits.
        assert_eq!(retry_backoff(Duration::from_secs(4), 2), BACKOFF_CAP);
    }

    #[test]
    fn connect_to_nothing_is_a_typed_io_error() {
        // A port from the ephemeral range with nothing bound: either
        // refused immediately or timed out, both surfaced as Io.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let err = Client::connect(
            addr,
            ClientConfig {
                connect_timeout: Duration::from_millis(200),
                ..ClientConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ClientError::Io { .. }), "got {err:?}");
    }

    #[test]
    fn transient_classification() {
        assert!(ClientError::Timeout {
            after: Duration::from_secs(1)
        }
        .transient());
        assert!(ClientError::Io {
            context: "x",
            kind: io::ErrorKind::ConnectionReset
        }
        .transient());
        assert!(
            ClientError::Redirected {
                id: DataId::new("k")
            }
            .transient(),
            "a redirect should be retried via the next access node"
        );
        assert!(!ClientError::ServerError {
            id: DataId::new("k")
        }
        .transient());
        assert!(!ClientError::QuorumFailed {
            id: DataId::new("k"),
            achieved: 1,
            required: 2
        }
        .transient());
        assert!(!ClientError::UnexpectedKind(PacketKind::Placement).transient());
    }

    #[test]
    fn retry_rotates_across_access_nodes() {
        use crate::node::tests::{scripted_peer, with_peer};
        use std::net::TcpListener;

        // Access node A accepts, then hangs up without answering; access
        // node B answers properly. The retry must move from A to B
        // instead of re-dialing A until the budget is gone.
        let a = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr_a = a.local_addr().unwrap();
        let dead = std::thread::spawn(move || {
            // One connection reaches A — the eager connect, reused by
            // the first request attempt (which dies on EOF).
            let Ok((stream, _)) = a.accept() else { return };
            drop(stream);
        });
        with_peer(
            |b| {
                scripted_peer(&b, |corr, request| {
                    vec![(corr, Packet::response(request.id, b"from-b".as_ref()))]
                })
            },
            |addr_b| {
                let mut client = Client::connect_multi(
                    vec![addr_a, addr_b],
                    ClientConfig {
                        retries: 1, // one retry: only rotation can reach B
                        backoff: Duration::from_millis(1),
                        ..ClientConfig::default()
                    },
                )
                .unwrap();
                let reply = client.retrieve(&DataId::new("k")).unwrap();
                assert_eq!(reply.payload.as_ref(), b"from-b");
                assert_eq!(client.addr(), addr_b, "the client rotated to B");
            },
        );
        dead.join().unwrap();
    }

    /// A definitive refusal must not move the entry point: an in-band
    /// `Error` reply is returned after one attempt, and the healthy,
    /// in-sync connection to A — `replica_order`'s steering origin —
    /// stays where it is.
    #[test]
    fn definitive_refusal_keeps_the_connection_and_the_entry_point() {
        use crate::node::tests::{scripted_peer, with_peer};
        use std::net::TcpListener;

        // B listens but is never needed.
        let b = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr_b = b.local_addr().unwrap();
        with_peer(
            |a| {
                scripted_peer(&a, |corr, request| {
                    vec![(corr, Packet::error_response(request.id))]
                });
                a.set_nonblocking(true).unwrap();
                assert!(
                    a.accept().is_err(),
                    "both refused requests rode A's one connection"
                );
            },
            |addr_a| {
                let mut client = Client::connect_multi(
                    vec![addr_a, addr_b],
                    ClientConfig {
                        backoff: Duration::from_millis(1),
                        ..ClientConfig::default()
                    },
                )
                .unwrap();
                let id = DataId::new("k");
                for _ in 0..2 {
                    assert_eq!(
                        client.retrieve(&id).unwrap_err(),
                        ClientError::ServerError { id: id.clone() },
                        "the refusal is returned as is, after one attempt"
                    );
                    assert_eq!(client.addr(), addr_a, "a refusal must not rotate");
                }
            },
        );
    }

    /// Every kind of call rides the one connection: singles, bursts and
    /// scrapes in sequence cost the node exactly one socket, and answer
    /// as they always did.
    #[test]
    fn every_call_kind_shares_one_socket() {
        let mut node = crate::node::tests::spawn_single(1);
        let addr = node.addr();
        assert_eq!(node.open_connections(), 0);

        let mut client = Client::connect(addr, ClientConfig::default()).unwrap();
        let (a, b) = (DataId::new("one/a"), DataId::new("one/b"));
        let miss = client.retrieve(&a).unwrap();
        assert_eq!((miss.status, miss.hops), (ResponseStatus::NotFound, 0));
        let misses = client.retrieve_many(&[a.clone(), b.clone()]).unwrap();
        assert!(misses.iter().all(|r| r.status == ResponseStatus::NotFound));
        let snapshot = client.scrape().unwrap();
        assert_eq!((snapshot.switch, snapshot.requests), (0, 3));
        let ack = client.place(&a, b"va".as_ref()).unwrap();
        assert!(ack.is_clean());
        assert_eq!(ack.ack_server().map(|s| s.switch), Some(0));
        let acks = client
            .place_many(&[(b.clone(), Bytes::from_static(b"vb"))])
            .unwrap();
        assert!(acks[0].is_clean());
        let hits = client.retrieve_many(&[a, b]).unwrap();
        assert_eq!(hits[0].payload.as_ref(), b"va");
        assert_eq!(hits[1].payload.as_ref(), b"vb");

        assert_eq!(
            node.open_connections(),
            1,
            "singles and bursts must share the client's one connection"
        );
        drop(client);
        let report = node.shutdown();
        assert_eq!((report.requests, report.errors), (7, 0));
    }

    /// A client that never connects — enough to exercise pure ordering
    /// logic.
    fn offline_client(positions: Vec<Point2>) -> Client {
        Client {
            addrs: vec!["127.0.0.1:1".parse().unwrap()],
            positions,
            current: 0,
            cfg: ClientConfig::default(),
            conn: None,
        }
    }

    #[test]
    fn replica_order_without_positions_is_serial_order() {
        let client = offline_client(Vec::new());
        assert_eq!(
            client.replica_order(&DataId::new("k"), 5),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn replica_order_sorts_by_virtual_distance_from_the_access_node() {
        let id = DataId::new("steered-key");
        let count = 6u32;
        // Park the access node exactly on replica 4's virtual position:
        // serial 4 must be probed first, and the rest must follow in
        // nondecreasing distance.
        let (x, y) = virtual_position(&id.replica(4));
        let client = offline_client(vec![Point2::new(x, y)]);
        let order = client.replica_order(&id, count);
        assert_eq!(order[0], 4, "nearest replica probed first: {order:?}");
        let distance = |serial: u32| {
            let (rx, ry) = virtual_position(&id.replica(serial));
            Point2::new(x, y).distance_squared(Point2::new(rx, ry))
        };
        assert!(
            order.windows(2).all(|w| distance(w[0]) <= distance(w[1])),
            "nondecreasing distance: {order:?}"
        );
        // Every serial still appears exactly once — steering reorders,
        // never drops.
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..count).collect::<Vec<_>>());
    }

    #[test]
    fn error_display_is_informative() {
        let e = ClientError::RetriesExhausted {
            attempts: 3,
            last: Box::new(ClientError::Timeout {
                after: Duration::from_secs(5),
            }),
        };
        let text = e.to_string();
        assert!(text.contains("3 attempts"), "got {text}");
        assert!(text.contains("no response"), "got {text}");
    }
}
