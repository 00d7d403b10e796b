//! The per-switch node runtime.
//!
//! A [`Node`] is one GRED switch promoted to a real network endpoint, and
//! it is **one thread**: a reactor that owns the listener, every accepted
//! socket, every outbound peer link and every request in flight. All
//! sockets are nonblocking and registered with a level-triggered epoll
//! [`Poller`], so ten thousand mostly-idle connections cost file
//! descriptors, not threads, and nothing the reactor runs can block.
//!
//! Each connection is a small state machine — demand the
//! [`MUX_PREAMBLE`] hello (a dialer that opens with anything else is
//! closed, counted and logged, never answered), reassemble frames with
//! the sticky incremental [`FrameDecoder`], take them apart with
//! [`frame::read_call`], absorb partial writes in a [`WriteQueue`].
//! Clients and peers speak the same one protocol: correlated call
//! frames. Every decoded packet runs the identical greedy
//! pipeline the in-process plane runs ([`SwitchDataplane::decide_avoiding`]
//! / [`SwitchDataplane::relay_next`]); a packet answered here is written
//! straight back, a packet whose next stop is another switch becomes a
//! parked continuation.
//!
//! # Forwarding = continuations on the reactor
//!
//! ```text
//!  origin conn ──frame──▶ route_step ×n ──▶ all answered here ─────────────┐
//!                              │                                            │
//!                   one frame per next-hop group,                           │
//!                   written to that peer's link                             ▼
//!                              │                                   (stored a write?)
//!                              ▼                                     │yes        │no
//!                      ┌── parked ──┐   response on the link         ▼           │
//!                      │ corr → call│──▶ completed: fill caches, ─▶ invalidation │
//!                      │  + deadline│    fill reply slots; last     scatter to   │
//!                      └────────────┘    group landed ─────────────▶ every peer, │
//!                        │        │                                 gather acks  │
//!          link died:    │        │ deadline passed / second death:     │        ▼
//!          resend once ◀─┘        └▶ expired: peer suspect, slots get   └─▶ answer the
//!          on a fresh link            `Redirect` (acks: `Degraded`)         origin conn
//! ```
//!
//! A *call* is one request frame (a single packet or a "GB" batch) with
//! one reply slot per packet. Packets bound for the same next hop travel
//! in **one** frame over the node's persistent link to that peer — an
//! outbound connection living in the same slab, on the same poller, as
//! the inbound ones (lazily dialed with a nonblocking `connect(2)`, the
//! same `GMUX` preamble and 8-byte correlation ids as ever). The reactor
//! writes the frame, parks `{call, peer, packets, cache-fill tokens}` in
//! the `Parked` slab under the correlation id, and returns to its event
//! loop; the peer's response takes the continuation back out on the same
//! thread. When a call's last group lands it either answers its origin
//! connection or — if it stored a write — runs the invalidation phase
//! through the same mechanism as a scatter-gather: one `Invalidate` frame
//! to every peer back-to-back, acks counted down, the origin answered
//! only after the last one. A clean ack therefore still proves every
//! reachable peer dropped its cached copy.
//!
//! Because nothing waits, a chain that crosses the same directed link
//! twice (a virtual link's relay path may pass through a switch the
//! packet later leaves again) is just two continuations parked on one
//! link; there is no thread to deadlock.
//!
//! Responses find their origin by `(slot, generation)`: a connection
//! that closed while its call was parked — even if its slot was reused —
//! simply drops the late answer.
//!
//! # Failure ladder
//!
//! Every parked continuation carries one deadline,
//! `now + peer_reply_timeout`; deadlines sit in one queue in expiry
//! order, and its front is the poller's wait timeout. A link that dies
//! (EOF, reset, failed dial) hands each continuation parked on it one
//! resend over a fresh link; a second death, or the deadline, marks the
//! peer suspect and fails the continuation — its reads and writes are
//! answered `Redirect`, an invalidation downgrades the write's ack to
//! `Degraded`. A timeout leaves the link up: the late response names a
//! dead correlation id and is dropped.
//!
//! # Hops
//!
//! Every **physical send** increments the packet's in-band `hops`
//! counter, and the owner switch copies the request's count into the
//! response — so a remote client observes exactly
//! [`Route::physical_hops`](gred::Route::physical_hops) for the same
//! request in the in-process model (asserted in the loopback test).
//!
//! # Shutdown
//!
//! [`Node::shutdown`] flips an atomic flag and wakes the poller. The
//! reactor drains in two phases: it closes the listener and its peer
//! links (every parked continuation is refused at once instead of
//! running to its deadline) and stops reading, then keeps flushing until
//! every response is on the wire — bounded by the peer reply timeout —
//! before closing all connections. Joining the reactor joins the node.

use crate::frame::{self, Body, FrameDecoder, MUX_PREAMBLE};
use crate::mux::Parked;
use crate::proto;
use bytes::Bytes;
use gred_cache::{ReadCache, Token};
use gred_dataplane::{
    AdminOp, ForwardDecision, LinkStats, NodeHotStats, Packet, PacketKind, ResponseStatus,
    StatsSnapshot, SwitchDataplane,
};
use gred_hash::DataId;
use gred_net::ServerId;
use gred_runtime::reactor::{
    connect_nonblocking, set_listen_backlog, Event, Events, Interest, Poller, WriteQueue,
    WAKE_TOKEN,
};
use gred_runtime::ShardedMap;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Environment variable naming a directory for per-node log files
/// (`node-<id>.log`). CI sets it so a failing cluster test can upload
/// what every node saw.
pub const LOG_DIR_ENV: &str = "GRED_CLUSTER_LOG_DIR";

/// Tuning knobs for a [`Node`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Reactor tick while draining for shutdown, and how long the
    /// listener stays paused after an accept error (steady-state waits
    /// are purely event-driven — an idle node burns no CPU).
    pub poll_interval: Duration,
    /// How long a dial to a peer may take before the link counts as dead.
    pub peer_connect_timeout: Duration,
    /// How long a parked continuation waits for a peer's response before
    /// the node gives up on it.
    pub peer_reply_timeout: Duration,
    /// Detour budget: once a packet has been forced off the true greedy
    /// path this many times (suspect neighbors), the node aborts the
    /// request with a [`ResponseStatus::Redirect`] instead of wandering —
    /// the guarantee-violation case stays observable and bounded.
    ///
    /// [`ResponseStatus::Redirect`]: gred_dataplane::ResponseStatus::Redirect
    pub max_detours: u16,
    /// How long a failed peer stays suspect before greedy forwarding
    /// optimistically retries it. Without the expiry, suspicion would be
    /// sticky: greedy avoids a suspect, so no request ever succeeds
    /// against it and nothing would clear the flag after the peer heals.
    pub suspect_ttl: Duration,
    /// Byte budget for the node's hot-key read cache ([`ReadCache`]):
    /// remote-destined retrievals that hit it are answered with zero
    /// peer frames, and every locally-stored write broadcasts an
    /// invalidation to all peers before it acks. `0` disables caching
    /// entirely (every probe is a silent no-op).
    pub cache_bytes: usize,
    /// Accept backlog requested for the listener (clamped by the kernel
    /// to `net.core.somaxconn`). `TcpListener::bind` hardcodes 128,
    /// which a connect burst overflows whenever the reactor thread is
    /// momentarily descheduled — the kernel then drops the overflowing
    /// SYN and that dialer stalls a full ~1s retransmit timeout. A node
    /// built to hold 10k+ connections needs queue headroom to match.
    pub listen_backlog: u32,
    /// Directory for this node's log file; `None` disables logging.
    pub log_dir: Option<PathBuf>,
}

impl Default for NodeConfig {
    /// Loopback-friendly defaults; `log_dir` comes from [`LOG_DIR_ENV`]
    /// when set.
    fn default() -> Self {
        NodeConfig {
            poll_interval: Duration::from_millis(2),
            peer_connect_timeout: Duration::from_secs(1),
            peer_reply_timeout: Duration::from_secs(5),
            max_detours: 8,
            suspect_ttl: Duration::from_secs(2),
            cache_bytes: 8 * 1024 * 1024,
            listen_backlog: 4096,
            log_dir: std::env::var_os(LOG_DIR_ENV).map(PathBuf::from),
        }
    }
}

/// Final accounting returned by [`Node::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeReport {
    /// The switch id this node served.
    pub id: usize,
    /// Requests dispatched (greedy, relay, and server-addressed).
    pub requests: u64,
    /// Packets forwarded one greedy hop to a peer.
    pub forwarded: u64,
    /// Packets relayed along a virtual link.
    pub relayed: u64,
    /// Requests answered from the local store (placements stored plus
    /// retrievals served, including misses).
    pub delivered: u64,
    /// Requests that ended in an error response at this node.
    pub errors: u64,
    /// Threads joined during shutdown: the reactor — exactly 1, and 0 on
    /// a repeated shutdown.
    pub workers_joined: usize,
    /// Items in the local store at shutdown.
    pub stored_items: usize,
    /// Hot-path contention counters (see [`NodeHotStats`]).
    pub hot: NodeHotStats,
}

/// One stored item: which local server holds it, and its payload. The
/// index matters because a range extension can store an item under a
/// takeover server while `H(d) mod s` still names the primary — a
/// retrieval must not answer for the wrong server.
#[derive(Debug, Clone)]
struct StoredItem {
    index: usize,
    payload: Bytes,
}

/// Outcome of one local routing decision ([`Inner::route_step`]): either
/// the response is ready, or the packet (already mutated for the hop —
/// hops counted, relay/server headers set) must travel to peer `to`.
/// Splitting the decision from the send is what lets the reactor group
/// every packet of a call bound for the same next hop into one frame.
enum Step {
    /// The request was answered (or refused) on this node.
    Respond {
        resp: Packet,
        /// The response acks a placement stored on *this* node: the
        /// write-through invalidation broadcast must run (and may
        /// downgrade the ack) before the response leaves the node.
        stored: bool,
    },
    /// The packet's next stop is peer switch `to`.
    Forward {
        /// Destination switch id.
        to: usize,
        /// The packet as it must appear on the wire to `to`.
        packet: Packet,
        /// A clean greedy retrieval that missed the read cache: admit
        /// the peer's response under this pre-send token (refused if an
        /// invalidation raced past while the continuation was parked).
        fill: Option<CacheFill>,
    },
}

impl Step {
    /// A plain local answer: no store, no cache admission.
    fn respond(resp: Packet) -> Step {
        Step::Respond {
            resp,
            stored: false,
        }
    }
}

/// Pending read-cache admission for one forwarded retrieval.
struct CacheFill {
    id: DataId,
    token: Token,
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    forwarded: AtomicU64,
    relayed: AtomicU64,
    delivered: AtomicU64,
    errors: AtomicU64,
    link_reconnects: AtomicU64,
    peers_suspected: AtomicU64,
    detour_forwards: AtomicU64,
    redirects_issued: AtomicU64,
    invalidations_rx: AtomicU64,
    /// Frames reassembled, requests and peer responses alike.
    frames_decoded: AtomicU64,
    /// Frames encoded into a connection's already-warm scratch buffer.
    encode_buf_reuses: AtomicU64,
}

/// Per-peer connectivity state the greedy pipeline and stats scrapes
/// consult. One table per node, guarded by a `RwLock` so live
/// reconfiguration (join/leave/restart) can grow it or repoint an
/// address while requests are in flight. The links themselves are
/// reactor-owned connections; this is only what other threads may read.
struct PeerTable {
    addrs: Vec<SocketAddr>,
    /// Suspicion expiry stamps, in milliseconds since the node booted
    /// (`0` = not suspect). Set to `now + suspect_ttl` when a
    /// continuation parked on the peer failed (deadline, or a second
    /// link death), cleared on the next response or an explicit revive.
    /// Greedy forwarding treats an unexpired suspect DT neighbor as
    /// absent; once the stamp expires the peer is optimistically
    /// retried, so a healed peer that greedy stopped talking to still
    /// recovers.
    suspect: Vec<AtomicU64>,
    /// Per-peer reconnect counters: continuations resent to the peer
    /// over a fresh link after an established one died under them. The
    /// sum over peers equals the node-wide `link_reconnects` hot
    /// counter; a stats scrape exports both so an operator can tell
    /// *which* link flaps.
    reconnects: Vec<AtomicU64>,
    /// Whether the reactor currently holds an established link to the
    /// peer.
    connected: Vec<AtomicBool>,
}

impl PeerTable {
    fn new(addrs: Vec<SocketAddr>) -> PeerTable {
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

    fn push(&mut self, addr: SocketAddr) {
        self.addrs.push(addr);
        self.suspect.push(AtomicU64::new(0));
        self.reconnects.push(AtomicU64::new(0));
        self.connected.push(AtomicBool::new(false));
    }

    /// Whether `peer` is under suspicion that has not expired at `now`.
    fn suspect_at(&self, peer: usize, now: u64) -> bool {
        self.suspect
            .get(peer)
            .is_some_and(|stamp| stamp.load(Ordering::Relaxed) > now)
    }

    fn set_connected(&self, peer: usize, up: bool) {
        if let Some(flag) = self.connected.get(peer) {
            flag.store(up, Ordering::Relaxed);
        }
    }
}

struct Inner {
    id: usize,
    /// The forwarding state, swappable at runtime: live reconfiguration
    /// (join/leave/crash recovery) installs a fresh plane while requests
    /// keep flowing; each request clones the `Arc` once and runs against
    /// a consistent snapshot.
    plane: RwLock<Arc<SwitchDataplane>>,
    /// Packets processed by planes that have since been replaced, so
    /// [`Node::packets_processed`] stays monotone across installs.
    retired_processed: AtomicU64,
    peers: RwLock<PeerTable>,
    store: ShardedMap<DataId, StoredItem>,
    /// Hot-key read cache consulted on the would-forward path; kept
    /// coherent by the write-through invalidation broadcast and flushed
    /// whenever a new forwarding plane is installed (crash/join/leave).
    cache: ReadCache,
    shutdown: AtomicBool,
    /// What the public API shares with the reactor thread: the poller
    /// (for wakeups) and the gauges a scrape reads.
    reactor: ReactorShared,
    counters: Counters,
    cfg: NodeConfig,
    log: Option<Mutex<std::fs::File>>,
    booted: Instant,
}

/// A running GRED switch daemon. See the module docs for the threading
/// model.
pub struct Node {
    inner: Arc<Inner>,
    addr: SocketAddr,
    reactor: Option<thread::JoinHandle<()>>,
}

impl Node {
    /// Starts serving `plane` (switch `id`) on `listener`. `peer_addrs`
    /// maps every switch id in the network to its node's address; the
    /// node dials a peer lazily when it first forwards to it.
    ///
    /// # Errors
    ///
    /// I/O errors configuring the listener, opening the log file, or
    /// spawning the reactor thread.
    pub fn spawn(
        id: usize,
        plane: SwitchDataplane,
        peer_addrs: Vec<SocketAddr>,
        listener: TcpListener,
        cfg: NodeConfig,
    ) -> io::Result<Node> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        set_listen_backlog(listener.as_raw_fd(), cfg.listen_backlog)?;
        let log = match &cfg.log_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(dir.join(format!("node-{id}.log")))?;
                Some(Mutex::new(file))
            }
            None => None,
        };
        let inner = Arc::new(Inner {
            id,
            plane: RwLock::new(Arc::new(plane)),
            retired_processed: AtomicU64::new(0),
            peers: RwLock::new(PeerTable::new(peer_addrs)),
            store: ShardedMap::new(),
            cache: ReadCache::new(cfg.cache_bytes),
            shutdown: AtomicBool::new(false),
            reactor: ReactorShared {
                poller: Poller::new()?,
                conns_open: AtomicUsize::new(0),
                queued_bytes: AtomicU64::new(0),
                parked: AtomicUsize::new(0),
                #[cfg(test)]
                accept_faults: AtomicUsize::new(0),
            },
            counters: Counters::default(),
            cfg,
            log,
            booted: Instant::now(),
        });
        inner
            .reactor
            .poller
            .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        inner.log(&format!("listening on {addr}"));
        let reactor = Reactor {
            inner: Arc::clone(&inner),
            listener: Some(listener),
            conns: Vec::new(),
            free: Vec::new(),
            freed: Vec::new(),
            next_gen: 0,
            links: Vec::new(),
            calls: Parked::default(),
            parked: Parked::default(),
            timers: VecDeque::new(),
            orphans: Vec::new(),
            touched: Vec::new(),
            read_buf: vec![0u8; 64 * 1024],
            draining: false,
            deadline: None,
        };
        let handle = thread::Builder::new()
            .name(format!("gred-node-{id}-reactor"))
            .spawn(move || reactor.run())?;
        Ok(Node {
            inner,
            addr,
            reactor: Some(handle),
        })
    }

    /// The switch id this node serves.
    pub fn id(&self) -> usize {
        self.inner.id
    }

    /// The address the node listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Packets the underlying data plane processed (greedy decisions plus
    /// virtual-link relays) — directly comparable to the same counter on
    /// the in-process plane. Monotone across [`Node::install_plane`].
    pub fn packets_processed(&self) -> u64 {
        self.inner.retired_processed.load(Ordering::Relaxed)
            + self.inner.plane().packets_processed()
    }

    /// Replaces the forwarding state with `plane` while the node keeps
    /// serving — the push half of live reconfiguration: the control
    /// plane recomputes tables after a join/leave/crash and installs
    /// them here, mirroring what `gred::control::dynamics` does to the
    /// in-process planes. Requests already holding the old plane finish
    /// against it; new requests see the new tables.
    pub fn install_plane(&self, plane: SwitchDataplane) {
        let old = {
            let mut guard = self
                .inner
                .plane
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *guard, Arc::new(plane))
        };
        self.inner
            .retired_processed
            .fetch_add(old.packets_processed(), Ordering::Relaxed);
        // A plane install accompanies a topology change (crash, join,
        // leave): ownership moved, and ids tombstoned by a crash must
        // not be resurrected from stale cached copies.
        self.inner.cache.flush();
        self.inner.log("installed a new forwarding plane");
    }

    /// Registers (or re-points) the address of peer switch `switch`,
    /// growing the peer table when the switch is new. A link to the old
    /// address is dropped the next time the reactor reaches for it — the
    /// next request dials the new address — and the peer's suspicion is
    /// cleared: a re-registered peer is presumed alive until proven
    /// otherwise.
    pub fn register_peer(&self, switch: usize, addr: SocketAddr) {
        let mut peers = self
            .inner
            .peers
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        while peers.addrs.len() <= switch {
            // Placeholder slots for any gap; they are re-pointed when
            // their switch registers.
            peers.push(addr);
        }
        peers.addrs[switch] = addr;
        peers.suspect[switch].store(0, Ordering::Relaxed);
        drop(peers);
        self.inner
            .log(&format!("peer {switch} registered at {addr}"));
    }

    /// Peer switches currently marked suspect (stamp not yet expired),
    /// in ascending order.
    pub fn suspect_peers(&self) -> Vec<usize> {
        let now = self.inner.now_ms();
        let peers = self.inner.peers();
        (0..peers.suspect.len())
            .filter(|&peer| peers.suspect_at(peer, now))
            .collect()
    }

    /// Marks peer `switch` suspect, exactly as a failed continuation
    /// would.
    pub fn mark_peer_suspect(&self, switch: usize) {
        self.inner.mark_suspect(switch);
    }

    /// Clears peer `switch`'s suspicion (the peer recovered).
    pub fn clear_peer_suspect(&self, switch: usize) {
        self.inner.clear_suspect(switch);
    }

    /// Removes and returns every stored item whose id satisfies `pred` —
    /// the migration half of live reconfiguration: after new tables are
    /// installed, keys this switch no longer owns are extracted here and
    /// re-placed on their new owners.
    pub fn extract_items(&self, pred: impl Fn(&DataId) -> bool) -> Vec<(DataId, Bytes)> {
        let mut ids = Vec::new();
        self.inner.store.for_each(|id, _| {
            if pred(id) {
                ids.push(id.clone());
            }
        });
        ids.into_iter()
            .filter_map(|id| {
                let item = self.inner.store.remove(&id)?;
                Some((id, item.payload))
            })
            .collect()
    }

    /// Requests this node has dispatched so far.
    pub fn requests_served(&self) -> u64 {
        self.inner.counters.requests.load(Ordering::Relaxed)
    }

    /// Items currently in the local store.
    pub fn stored_items(&self) -> usize {
        self.inner.store.len()
    }

    /// Current hot-path contention counters — readable while the node is
    /// serving, so tests can assert (for example) that a contended run
    /// rebuilt no link.
    pub fn hot_stats(&self) -> NodeHotStats {
        self.inner.hot_stats()
    }

    /// The same snapshot a wire `Stats` scrape would answer with,
    /// assembled in-process — the parity twin tests compare against.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.inner.wire_snapshot()
    }

    /// Seeds the local store with an item held by local server `index` —
    /// used when booting a cluster from a network that already placed
    /// data in-process.
    pub fn preload(&self, id: DataId, index: usize, payload: Bytes) {
        // Preloading overwrites the store out of band, so any cached
        // copy of the id on this node is stale by definition.
        self.inner.cache.invalidate(&id);
        self.inner.store.insert(id, StoredItem { index, payload });
    }

    /// Inbound connections the reactor currently holds open — the gauge
    /// the connection-scale soak test asserts against.
    pub fn open_connections(&self) -> usize {
        self.inner.reactor.conns_open.load(Ordering::Relaxed)
    }

    /// Continuations currently parked on peer links: forwarded frames
    /// and invalidations whose response has neither arrived nor expired.
    /// Zero whenever the node is idle.
    pub fn parked_continuations(&self) -> usize {
        self.inner.reactor.parked.load(Ordering::Relaxed)
    }

    /// Signals shutdown without waiting. [`Cluster`](crate::Cluster)
    /// flips every node's flag before joining any of them so peers stop
    /// accepting new work together.
    pub fn request_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.reactor.poller.wake();
    }

    /// Stops the node: signals shutdown, wakes the poller, and joins the
    /// reactor — which refuses whatever is still parked, flushes every
    /// response, and closes the listener, the peer links and every
    /// connection. Idempotent.
    pub fn shutdown(&mut self) -> NodeReport {
        self.request_shutdown();
        let joined = match self.reactor.take() {
            Some(handle) => {
                let _ = handle.join();
                1
            }
            None => 0,
        };
        self.inner.log(&format!("stopped; joined {joined} workers"));
        let c = &self.inner.counters;
        NodeReport {
            id: self.inner.id,
            requests: c.requests.load(Ordering::Relaxed),
            forwarded: c.forwarded.load(Ordering::Relaxed),
            relayed: c.relayed.load(Ordering::Relaxed),
            delivered: c.delivered.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            workers_joined: joined,
            stored_items: self.stored_items(),
            hot: self.inner.hot_stats(),
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        if self.reactor.is_some() {
            let _ = self.shutdown();
        }
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.inner.id)
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// Registration token of the node's TCP listener.
const LISTENER_TOKEN: u64 = 0;
/// Connection tokens start here: `token = FIRST_CONN_TOKEN + slot`.
const FIRST_CONN_TOKEN: u64 = 1;

/// State shared between the reactor thread and the node's public API.
struct ReactorShared {
    /// The epoll instance; [`Poller::wake`] interrupts the reactor's
    /// wait (shutdown requests).
    poller: Poller,
    /// Open inbound connections (gauge for [`Node::open_connections`]).
    conns_open: AtomicUsize,
    /// Bytes sitting in per-connection write queues, accepted from
    /// handlers but not yet handed to a socket. Maintained by the
    /// reactor thread via per-connection deltas in `settle`/`close_conn`
    /// (which bracket every queue mutation), so a stats scrape can read
    /// the node's write backlog without touching reactor-owned state.
    queued_bytes: AtomicU64,
    /// Continuations parked on peer links (gauge for
    /// [`Node::parked_continuations`]).
    parked: AtomicUsize,
    /// Accepts that fail with `EMFILE` before the listener is consulted
    /// again — how the tests put the listener into its error state.
    #[cfg(test)]
    accept_faults: AtomicUsize,
}

impl ReactorShared {
    fn accept(&self, listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
        #[cfg(test)]
        if self
            .accept_faults
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(io::Error::from_raw_os_error(24)); // EMFILE
        }
        listener.accept()
    }
}

/// Per-connection protocol state machine.
enum Protocol {
    /// Accepted, and `got` bytes of the [`MUX_PREAMBLE`] hello have
    /// arrived so far. Nothing is served before all four match.
    Hello { got: usize },
    /// Inbound connection past its hello (a peer's link, or a client):
    /// requests interleave under correlation ids.
    Mux,
    /// Outbound multiplexed link this node dialed to peer switch `peer`:
    /// it carries our requests out and the peer's responses back.
    /// Frames queue until the nonblocking dial is `established`.
    Link { peer: usize, established: bool },
}

/// One connection owned by the reactor, inbound or outbound.
struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    proto: Protocol,
    decoder: FrameDecoder,
    /// Unwritten bytes; partial writes land here.
    outq: WriteQueue,
    /// Reusable encode buffer for the frames written to this connection.
    scratch: Vec<u8>,
    /// Distinguishes this connection from earlier tenants of its slot.
    generation: u64,
    /// The interest currently registered with the poller.
    interest: Interest,
    /// Peer closed its write half; frames already received still get
    /// their responses, then the connection closes.
    eof: bool,
    /// Calls from this connection parked and not yet answered.
    inflight: usize,
    /// Pending `outq` bytes last folded into the node-wide
    /// `queued_bytes` gauge; `settle`/`close_conn` apply the delta.
    queued_reported: u64,
}

impl Conn {
    /// Encodes one call frame into the connection's reusable scratch
    /// buffer, replacing what it held.
    fn encode_call(&mut self, counters: &Counters, corr: u64, packets: &[Packet], batch: bool) {
        if self.scratch.capacity() > 0 {
            counters.encode_buf_reuses.fetch_add(1, Ordering::Relaxed);
        }
        self.scratch.clear();
        frame::write_call(&mut self.scratch, corr, packets, batch);
    }
}

/// Where a call's answer goes. The generation makes a late answer to a
/// closed connection die instead of reaching the slot's next tenant.
#[derive(Clone, Copy)]
struct Origin {
    slot: usize,
    generation: u64,
    /// The request's correlation id, echoed on the answer.
    corr: u64,
}

/// One request frame being served: a reply slot per packet, filled
/// locally or by the continuations parked on its behalf.
struct Call {
    origin: Origin,
    /// The request arrived as a "GB" container and is answered as one.
    batch: bool,
    replies: Vec<Option<Packet>>,
    /// Reply slots acking a placement stored on this node.
    stored: Vec<usize>,
    /// Frames parked on this call's behalf that have not landed yet.
    outstanding: usize,
    /// The `Invalidate` packet(s) for `stored`, once the forwards are
    /// done and the invalidation phase runs; empty before.
    invalidation: Vec<Packet>,
    /// Every peer confirmed the invalidation so far; a suspect or
    /// unreachable one downgrades the stored acks to `Degraded`.
    coherent: bool,
}

/// Packets of one call bound for the same next hop, with the reply slot
/// and cache admission each one's response belongs to.
#[derive(Default)]
struct Group {
    packets: Vec<Packet>,
    slots: Vec<(usize, Option<CacheFill>)>,
}

/// What a parked frame carries.
enum Work {
    /// Packets forwarded one hop.
    Forward(Group),
    /// The call's invalidation frame (packets in [`Call::invalidation`]).
    Invalidate,
}

/// A continuation: one frame written to peer `to`, waiting for its
/// correlated response.
struct Pending {
    call: u64,
    to: usize,
    /// Generation of the link connection the frame was last written to,
    /// so a dying link fails exactly the continuations it carried.
    link: u64,
    /// The one resend a dead link grants has been used.
    resent: bool,
    work: Work,
}

/// An entry of the reactor's deadline queue.
enum Timer {
    /// A parked continuation's reply deadline.
    Reply(u64),
    /// An outbound dial's connect deadline.
    Dial { slot: usize, generation: u64 },
    /// Resume accepting after an accept error.
    Accept,
}

/// The event loop owning the listener, the connection slab, the parked
/// continuations and all I/O. Runs on the single
/// `gred-node-{id}-reactor` thread and never blocks outside
/// [`Poller::wait`].
struct Reactor {
    inner: Arc<Inner>,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots closed during the current loop iteration. They rejoin
    /// `free` only at the next one, so a handler that finds its slot
    /// empty knows the connection died — never that a new one moved in.
    freed: Vec<usize>,
    next_gen: u64,
    /// Slot of the outbound link to each peer switch, if one is up.
    links: Vec<Option<usize>>,
    calls: Parked<Call>,
    parked: Parked<Pending>,
    /// Deadlines in expiry order. Nearly every entry is a reply deadline
    /// `now + peer_reply_timeout`, so arming appends; the rare shorter
    /// timer walks back from the tail to its place.
    timers: VecDeque<(Instant, Timer)>,
    /// Continuations whose link died (and whether it was established),
    /// awaiting their one resend or their failure.
    orphans: Vec<(u64, bool)>,
    /// Origin slots answered outside their own event; they are pumped
    /// and settled before the loop waits again.
    touched: Vec<usize>,
    read_buf: Vec<u8>,
    draining: bool,
    deadline: Option<Instant>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            self.free.append(&mut self.freed);
            // Steady state blocks until a socket, a wakeup or the next
            // deadline fires — an idle node spends no CPU.
            let timeout = self.next_timeout();
            if let Err(e) = self.inner.reactor.poller.wait(&mut events, timeout) {
                self.inner.log(&format!("poller wait failed: {e}"));
                break;
            }
            if !self.draining && self.inner.shutdown.load(Ordering::Relaxed) {
                self.begin_drain();
            }
            for ev in events.iter() {
                match ev.token {
                    WAKE_TOKEN => {}
                    LISTENER_TOKEN => self.on_accept(),
                    token => self.on_conn_event(token, ev),
                }
            }
            self.fire_timers();
            self.settle_deferred();
            if self.draining
                && (self.quiescent() || self.deadline.is_some_and(|d| Instant::now() >= d))
            {
                break;
            }
        }
        // Close every connection; peers see EOF after their last
        // response was flushed (or the drain deadline expired).
        for slot in 0..self.conns.len() {
            self.close_conn(slot);
        }
        self.inner.log("reactor stopped");
    }

    /// How long the next wait may block: until the earliest live
    /// deadline (settled continuations' timers are dropped on the way),
    /// capped by the drain tick while shutting down.
    fn next_timeout(&mut self) -> Option<Duration> {
        while let Some((_, Timer::Reply(corr))) = self.timers.front() {
            if self.parked.get(*corr).is_some() {
                break;
            }
            self.timers.pop_front();
        }
        let next = self
            .timers
            .front()
            .map(|(at, _)| at.saturating_duration_since(Instant::now()));
        match (next, self.draining) {
            (Some(next), true) => Some(next.min(self.inner.cfg.poll_interval)),
            (None, true) => Some(self.inner.cfg.poll_interval),
            (next, false) => next,
        }
    }

    fn arm(&mut self, after: Duration, timer: Timer) {
        let at = Instant::now() + after;
        let pos = self
            .timers
            .iter()
            .rposition(|(t, _)| *t <= at)
            .map_or(0, |i| i + 1);
        self.timers.insert(pos, (at, timer));
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        while self.timers.front().is_some_and(|(at, _)| *at <= now) {
            let (_, timer) = self.timers.pop_front().expect("front just observed");
            match timer {
                Timer::Reply(corr) => {
                    if let Some(pending) = self.parked.get(corr) {
                        self.inner
                            .log(&format!("peer {} did not respond in time", pending.to));
                        self.fail(corr);
                    }
                }
                Timer::Dial { slot, generation } => {
                    let dialing =
                        self.conns
                            .get(slot)
                            .and_then(Option::as_ref)
                            .is_some_and(|conn| {
                                conn.generation == generation
                                    && matches!(
                                        conn.proto,
                                        Protocol::Link {
                                            established: false,
                                            ..
                                        }
                                    )
                            });
                    if dialing {
                        self.close_conn(slot);
                    }
                }
                Timer::Accept => self.listen_for_accepts(true),
            }
        }
    }

    /// Stops taking new work: closes the listener and every peer link
    /// (whatever is parked is refused now rather than at its deadline),
    /// stops reading, and gives responses one reply-timeout to flush.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.deadline = Some(Instant::now() + self.inner.cfg.peer_reply_timeout);
        if let Some(listener) = self.listener.take() {
            let _ = self.inner.reactor.poller.deregister(listener.as_raw_fd());
            // Dropping closes it: new connections are refused while the
            // drain runs.
        }
        for slot in 0..self.conns.len() {
            match self.conns[slot].as_ref().map(|conn| &conn.proto) {
                Some(Protocol::Link { .. }) => self.close_conn(slot),
                Some(_) => self.settle(slot, Ok(())),
                None => {}
            }
        }
        self.inner.log("draining");
    }

    /// Every call has been answered and every response byte is on the
    /// wire.
    fn quiescent(&self) -> bool {
        self.calls.len() == 0 && self.conns.iter().flatten().all(|conn| conn.outq.is_empty())
    }

    /// Turns the listener's read interest on or off.
    fn listen_for_accepts(&mut self, read: bool) {
        if let Some(listener) = &self.listener {
            let _ = self.inner.reactor.poller.reregister(
                listener.as_raw_fd(),
                LISTENER_TOKEN,
                Interest { read, write: false },
            );
        }
    }

    fn on_accept(&mut self) {
        loop {
            let accepted = match self.listener.as_ref() {
                Some(listener) => self.inner.reactor.accept(listener),
                None => return,
            };
            match accepted {
                Ok((stream, peer)) => self.admit(stream, peer),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) => {
                    // Back off one tick (fd exhaustion and friends)
                    // without stalling everything parked on this thread:
                    // stop listening for the level-triggered event and
                    // let the deadline queue turn it back on.
                    self.inner.log(&format!("accept error: {e}"));
                    self.listen_for_accepts(false);
                    self.arm(self.inner.cfg.poll_interval, Timer::Accept);
                    return;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream, peer: SocketAddr) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let hello = Protocol::Hello { got: 0 };
        if self.adopt(stream, peer, hello, Interest::READ).is_ok() {
            self.inner.log(&format!("accepted {peer}"));
            self.inner
                .reactor
                .conns_open
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Gives `stream` a slot and registers it with the poller.
    fn adopt(
        &mut self,
        stream: TcpStream,
        peer: SocketAddr,
        proto: Protocol,
        interest: Interest,
    ) -> io::Result<usize> {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = FIRST_CONN_TOKEN + slot as u64;
        if let Err(e) = self
            .inner
            .reactor
            .poller
            .register(stream.as_raw_fd(), token, interest)
        {
            self.free.push(slot);
            let _ = stream.shutdown(Shutdown::Both);
            return Err(e);
        }
        self.next_gen += 1;
        self.conns[slot] = Some(Conn {
            stream,
            peer,
            proto,
            decoder: FrameDecoder::new(),
            outq: WriteQueue::new(),
            scratch: Vec::new(),
            generation: self.next_gen,
            interest,
            eof: false,
            inflight: 0,
            queued_reported: 0,
        });
        Ok(slot)
    }

    /// The slot of the link to peer switch `to`, dialing if none is up
    /// (or the peer was re-registered at another address).
    fn link_to(&mut self, to: usize) -> io::Result<usize> {
        let addr = {
            let peers = self.inner.peers();
            peers
                .addrs
                .get(to)
                .copied()
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "unknown peer switch"))?
        };
        if let Some(slot) = self.links.get(to).copied().flatten() {
            if self.conns[slot].as_ref().is_some_and(|c| c.peer == addr) {
                return Ok(slot);
            }
            self.close_conn(slot);
        }
        let stream = connect_nonblocking(addr)?;
        let _ = stream.set_nodelay(true);
        let proto = Protocol::Link {
            peer: to,
            established: false,
        };
        let slot = self.adopt(stream, addr, proto, Interest::READ_WRITE)?;
        let conn = self.conns[slot].as_mut().expect("just adopted");
        conn.outq.push(&MUX_PREAMBLE);
        let generation = conn.generation;
        if self.links.len() <= to {
            self.links.resize(to + 1, None);
        }
        self.links[to] = Some(slot);
        self.arm(
            self.inner.cfg.peer_connect_timeout,
            Timer::Dial { slot, generation },
        );
        Ok(slot)
    }

    fn on_conn_event(&mut self, token: u64, ev: Event) {
        let slot = (token - FIRST_CONN_TOKEN) as usize;
        if self.conns.get(slot).is_none_or(|c| c.is_none()) {
            return; // already closed earlier this tick
        }
        let outcome = self.drive(slot, ev);
        self.settle(slot, outcome);
    }

    /// Services one readiness event: finish a dial, flush pending
    /// writes, then read until the socket would block, decoding and
    /// serving as we go.
    fn drive(&mut self, slot: usize, ev: Event) -> io::Result<()> {
        let conn = self.conns[slot].as_mut().expect("live slot");
        if let Protocol::Link {
            peer,
            established: established @ false,
        } = &mut conn.proto
        {
            // The first event on a dialing socket is the dial's outcome.
            if let Some(e) = conn.stream.take_error()? {
                return Err(e);
            }
            if ev.hangup || !ev.writable {
                return Err(io::ErrorKind::ConnectionAborted.into());
            }
            *established = true;
            self.inner.peers().set_connected(*peer, true);
        }
        if ev.writable {
            let Conn { stream, outq, .. } = conn;
            outq.flush(stream)?;
        }
        if ev.readable && !conn.eof && !self.draining {
            self.fill(slot)?;
        } else if ev.hangup {
            conn.eof = true;
        }
        Ok(())
    }

    /// Reads until `WouldBlock`, feeding the decoder and serving every
    /// complete frame.
    fn fill(&mut self, slot: usize) -> io::Result<()> {
        let mut buf = std::mem::take(&mut self.read_buf);
        let outcome = self.fill_with(slot, &mut buf);
        self.read_buf = buf;
        outcome
    }

    fn fill_with(&mut self, slot: usize, buf: &mut [u8]) -> io::Result<()> {
        loop {
            // Serving a frame can close any connection, this one too.
            let Some(conn) = self.conns[slot].as_mut() else {
                return Ok(());
            };
            let n = match conn.stream.read(buf) {
                Ok(0) => {
                    conn.eof = true;
                    return Ok(());
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.ingest(slot, &buf[..n])?;
        }
    }

    /// Checks `bytes` against what is still due of the hello, then feeds
    /// the decoder.
    fn ingest(&mut self, slot: usize, mut bytes: &[u8]) -> io::Result<()> {
        let conn = self.conns[slot].as_mut().expect("live slot");
        if let Protocol::Hello { got } = &mut conn.proto {
            let due = &MUX_PREAMBLE[*got..];
            let take = due.len().min(bytes.len());
            if bytes[..take] != due[..take] {
                let peer = conn.peer;
                return Err(self.inner.violation(peer, &"no GMUX hello"));
            }
            *got += take;
            bytes = &bytes[take..];
            if take < due.len() {
                return Ok(());
            }
            conn.proto = Protocol::Mux;
        }
        conn.decoder.feed(bytes);
        self.pump(slot)
    }

    /// Serves every complete frame the decoder holds: a request on an
    /// inbound connection, a peer's response on a link. (A malformed
    /// one closes a link too, and everything parked on it is resent.)
    fn pump(&mut self, slot: usize) -> io::Result<()> {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return Ok(());
            };
            let peer = conn.peer;
            let frame = match conn.decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(()),
                Err(e) => return Err(self.inner.violation(peer, &e)),
            };
            self.inner
                .counters
                .frames_decoded
                .fetch_add(1, Ordering::Relaxed);
            let (corr, body) =
                frame::read_call(&frame).map_err(|e| self.inner.violation(peer, &e))?;
            match conn.proto {
                Protocol::Mux => {
                    let origin = Origin {
                        slot,
                        generation: conn.generation,
                        corr,
                    };
                    self.serve(origin, body);
                }
                Protocol::Link { .. } => self.complete(corr, body)?,
                Protocol::Hello { .. } => unreachable!("frames decode only after the hello"),
            }
        }
    }

    /// Serves one request frame: every packet takes its local routing
    /// step, the packets bound for the same next hop leave in one frame
    /// per peer, and the call is answered once all of those landed (and
    /// its writes are coherent). A frame answered entirely here never
    /// touches the slabs.
    fn serve(&mut self, origin: Origin, body: Body) {
        let (steps, batch) = match body {
            Body::One(packet) => match self.inner.route_step(packet) {
                Step::Respond {
                    resp,
                    stored: false,
                } => return self.respond(origin, std::slice::from_ref(&resp), false),
                step => (vec![step], false),
            },
            Body::Many(packets) => (
                packets
                    .into_iter()
                    .map(|packet| self.inner.route_step(packet))
                    .collect(),
                true,
            ),
        };
        let mut call = Call {
            origin,
            batch,
            replies: Vec::with_capacity(steps.len()),
            stored: Vec::new(),
            outstanding: 0,
            invalidation: Vec::new(),
            coherent: true,
        };
        // BTreeMap for a deterministic peer order within a call.
        let mut groups: BTreeMap<usize, Group> = BTreeMap::new();
        for (i, step) in steps.into_iter().enumerate() {
            match step {
                Step::Respond { resp, stored } => {
                    if stored {
                        call.stored.push(i);
                    }
                    call.replies.push(Some(resp));
                }
                Step::Forward { to, packet, fill } => {
                    let group = groups.entry(to).or_default();
                    group.packets.push(packet);
                    group.slots.push((i, fill));
                    call.replies.push(None);
                }
            }
        }
        if let Some(conn) = self.conns[origin.slot].as_mut() {
            conn.inflight += 1;
        }
        if groups.is_empty() {
            return self.forwards_done(call);
        }
        call.outstanding = groups.len();
        let key = self.calls.park(call);
        for (to, group) in groups {
            self.launch(key, to, Work::Forward(group));
        }
    }

    /// Parks a continuation for one frame to peer `to` and writes it.
    fn launch(&mut self, call: u64, to: usize, work: Work) {
        let corr = self.parked.park(Pending {
            call,
            to,
            link: 0,
            resent: false,
            work,
        });
        self.inner.reactor.parked.fetch_add(1, Ordering::Relaxed);
        self.arm(self.inner.cfg.peer_reply_timeout, Timer::Reply(corr));
        self.transmit(corr);
    }

    /// Writes the parked continuation `corr`'s frame to its peer's link
    /// (dialing if need be). A link that cannot take it orphans the
    /// continuation; [`settle_deferred`](Reactor::settle_deferred) then
    /// walks it down the failure ladder.
    fn transmit(&mut self, corr: u64) {
        let to = self
            .parked
            .get(corr)
            .expect("transmitting a parked frame")
            .to;
        let dialed = if self.draining {
            Err(io::Error::other("node is shutting down"))
        } else {
            self.link_to(to)
        };
        let slot = match dialed {
            Ok(slot) => slot,
            Err(e) => {
                self.inner.log(&format!("no link to node {to}: {e}"));
                self.orphans.push((corr, false));
                return;
            }
        };
        let pending = self.parked.get_mut(corr).expect("still parked");
        let conn = self.conns[slot]
            .as_mut()
            .expect("link_to returns a live slot");
        pending.link = conn.generation;
        let packets = match &pending.work {
            Work::Forward(group) => &group.packets,
            Work::Invalidate => {
                let call = self.calls.get(pending.call);
                &call.expect("call outlives its frames").invalidation
            }
        };
        conn.encode_call(&self.inner.counters, corr, packets, packets.len() > 1);
        let sent = match conn.proto {
            Protocol::Link {
                established: true, ..
            } => conn.outq.send(&mut conn.stream, &conn.scratch).map(drop),
            _ => {
                conn.outq.push(&conn.scratch);
                Ok(())
            }
        };
        self.settle(slot, sent);
    }

    /// A response frame arrived on a peer link: take its continuation
    /// back out and run it. An id nothing is parked under belongs to a
    /// continuation that already expired — the response is dropped.
    fn complete(&mut self, corr: u64, body: Body) -> io::Result<()> {
        let Some(pending) = self.parked.get(corr) else {
            return Ok(());
        };
        let expected = match &pending.work {
            Work::Forward(group) => group.packets.len(),
            Work::Invalidate => self.calls.get(pending.call).map_or(0, |c| c.stored.len()),
        };
        // A mismatched answer poisons the link, not just this frame: the
        // error closes it and everything parked on it is resent.
        let replies = body.into_vec();
        if replies.len() != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "response carries {} packets for {expected} requests",
                    replies.len()
                ),
            ));
        }
        let pending = self.unpark(corr).expect("observed above");
        self.inner.clear_suspect(pending.to);
        if let Work::Forward(Group { slots, .. }) = pending.work {
            let call = self
                .calls
                .get_mut(pending.call)
                .expect("call outlives its frames");
            for ((i, fill), reply) in slots.into_iter().zip(replies) {
                self.inner.maybe_cache(fill, &reply);
                call.replies[i] = Some(reply);
            }
        }
        self.landed(pending.call);
        Ok(())
    }

    fn unpark(&mut self, corr: u64) -> Option<Pending> {
        let pending = self.parked.take(corr)?;
        self.inner.reactor.parked.fetch_sub(1, Ordering::Relaxed);
        Some(pending)
    }

    /// Gives up on continuation `corr`: the peer is suspect from now on
    /// (greedy routing detours around it), forwarded packets are
    /// answered `Redirect` so the client retries instead of losing the
    /// write silently, and an unconfirmed invalidation downgrades its
    /// call's acks. A draining node refuses instead of accusing anyone.
    fn fail(&mut self, corr: u64) {
        let Some(pending) = self.unpark(corr) else {
            return;
        };
        if !self.draining {
            self.inner.mark_suspect(pending.to);
        }
        let call = self
            .calls
            .get_mut(pending.call)
            .expect("call outlives its frames");
        match pending.work {
            Work::Forward(Group { packets, slots }) => {
                for ((i, _), packet) in slots.into_iter().zip(packets) {
                    call.replies[i] = Some(if self.draining {
                        self.inner.refuse(&packet, "node is shutting down")
                    } else {
                        self.inner.redirect(&packet, "peer unreachable")
                    });
                }
            }
            Work::Invalidate => call.coherent = false,
        }
        self.landed(pending.call);
    }

    /// One of `call`'s frames landed (answered or failed); the last one
    /// moves the call on.
    fn landed(&mut self, call: u64) {
        let state = self.calls.get_mut(call).expect("call outlives its frames");
        state.outstanding -= 1;
        if state.outstanding > 0 {
            return;
        }
        let state = self.calls.take(call).expect("observed above");
        if state.invalidation.is_empty() {
            self.forwards_done(state);
        } else {
            self.answer(state);
        }
    }

    /// Every reply slot of `call` is filled. Write-through coherence:
    /// before a placement stored on this node acks, every remote peer is
    /// told to drop any cached copy — one `Invalidate` frame each,
    /// written back to back, the call answered after the last ack.
    ///
    /// An unreachable peer is marked suspect and the ack downgraded to
    /// `Degraded` — never a hard failure. That keeps the guarantee exact
    /// without sacrificing availability: after a *clean* ack no cache
    /// anywhere can serve the old value, while a write racing a dead
    /// peer still lands (degraded, so replication quorums don't count
    /// it). Peers already under suspicion are not re-probed on the write
    /// path — the first failure paid the timeout; further writes inside
    /// the TTL just stay degraded.
    fn forwards_done(&mut self, mut call: Call) {
        if call.stored.is_empty() {
            return self.answer(call);
        }
        let mut targets = Vec::new();
        {
            let now = self.inner.now_ms();
            let peers = self.inner.peers();
            for to in (0..peers.suspect.len()).filter(|&to| to != self.inner.id) {
                if peers.suspect_at(to, now) {
                    call.coherent = false;
                } else {
                    targets.push(to);
                }
            }
        }
        if targets.is_empty() {
            return self.answer(call); // nobody reachable could be caching
        }
        call.invalidation = call
            .stored
            .iter()
            .map(|&i| {
                let ack = call.replies[i].as_ref().expect("stored slot is answered");
                Packet::invalidate(ack.id.clone())
            })
            .collect();
        call.outstanding = targets.len();
        let key = self.calls.park(call);
        for to in targets {
            self.launch(key, to, Work::Invalidate);
        }
    }

    /// Sends `call`'s replies to the connection it came from.
    fn answer(&mut self, mut call: Call) {
        if !call.coherent {
            for &i in &call.stored {
                degrade_ack(call.replies[i].as_mut().expect("stored slot is answered"));
            }
        }
        let replies: Vec<Packet> = call
            .replies
            .into_iter()
            .map(|reply| reply.expect("every packet of the call is answered"))
            .collect();
        self.respond(call.origin, &replies, call.batch);
        let Origin {
            slot, generation, ..
        } = call.origin;
        if let Some(conn) = self.conns[slot]
            .as_mut()
            .filter(|conn| conn.generation == generation)
        {
            conn.inflight -= 1;
            self.touched.push(slot);
        }
    }

    /// Encodes `replies` and writes them to `origin` — unless that
    /// connection is gone (the slot empty or re-tenanted), in which case
    /// the answer has nowhere to go and is dropped.
    fn respond(&mut self, origin: Origin, replies: &[Packet], batch: bool) {
        let Some(conn) = self.conns[origin.slot]
            .as_mut()
            .filter(|conn| conn.generation == origin.generation)
        else {
            return;
        };
        conn.encode_call(&self.inner.counters, origin.corr, replies, batch);
        if conn.outq.send(&mut conn.stream, &conn.scratch).is_err() {
            self.close_conn(origin.slot);
        }
    }

    /// Runs what handlers deferred to keep themselves non-reentrant:
    /// orphaned continuations get their one resend (or fail), and
    /// connections answered from another connection's event reconcile
    /// their poller interest (and close, if they were only waiting for
    /// that answer).
    fn settle_deferred(&mut self) {
        loop {
            if let Some((corr, established)) = self.orphans.pop() {
                let draining = self.draining;
                match self.parked.get_mut(corr) {
                    None => {} // expired in the meantime
                    Some(pending) if pending.resent || draining => self.fail(corr),
                    Some(pending) => {
                        // The peer never saw the request or its answer
                        // was lost with the socket; requests are
                        // idempotent either way.
                        pending.resent = true;
                        if established {
                            let to = pending.to;
                            self.inner.note_reconnect(to);
                        }
                        self.transmit(corr);
                    }
                }
            } else if let Some(slot) = self.touched.pop() {
                self.settle(slot, Ok(()));
            } else {
                return;
            }
        }
    }

    /// Applies the outcome of servicing a connection: close on error,
    /// otherwise reconcile poller interest and check whether a
    /// half-closed connection has finished.
    fn settle(&mut self, slot: usize, outcome: io::Result<()>) {
        if outcome.is_err() {
            self.close_conn(slot);
            return;
        }
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        // Fold this connection's pending-write delta into the node-wide
        // backlog gauge. Every path that mutates `outq` ends in `settle`
        // or `close_conn`, so the gauge tracks the true sum without the
        // scraper touching reactor-owned state.
        let pending = conn.outq.pending() as u64;
        sync_queued_gauge(&self.inner, &mut conn.queued_reported, pending);
        // (A dialing link holds its preamble queued, so it polls for the
        // writable event that reports the dial's outcome.)
        let want = Interest {
            read: !conn.eof && !self.draining,
            write: !conn.outq.is_empty(),
        };
        if want != conn.interest
            && self
                .inner
                .reactor
                .poller
                .reregister(
                    conn.stream.as_raw_fd(),
                    FIRST_CONN_TOKEN + slot as u64,
                    want,
                )
                .is_ok()
        {
            conn.interest = want;
        }
        // A half-closed connection ends once everything it asked for has
        // been answered and written; a link ends with its peer's EOF.
        let link = matches!(conn.proto, Protocol::Link { .. });
        if conn.eof && (link || (conn.outq.is_empty() && conn.inflight == 0)) {
            self.close_conn(slot);
        }
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        // Bytes queued on a dying connection will never be written;
        // return them to the gauge.
        sync_queued_gauge(&self.inner, &mut conn.queued_reported, 0);
        let _ = self
            .inner
            .reactor
            .poller
            .deregister(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.freed.push(slot);
        let Protocol::Link { peer, established } = conn.proto else {
            self.inner
                .reactor
                .conns_open
                .fetch_sub(1, Ordering::Relaxed);
            return;
        };
        // A dead link orphans exactly the continuations it carried.
        self.links[peer] = None;
        self.inner.peers().set_connected(peer, false);
        self.orphans.extend(
            self.parked
                .iter()
                .filter(|(_, p)| p.to == peer && p.link == conn.generation)
                .map(|(corr, _)| (corr, established)),
        );
    }
}

/// Reconciles one connection's contribution to the node-wide
/// write-backlog gauge: `reported` is what the gauge currently carries
/// for this connection, `pending` is the truth. Only the reactor thread
/// calls this, but the gauge itself is read lock-free by scrapes.
fn sync_queued_gauge(inner: &Inner, reported: &mut u64, pending: u64) {
    match pending.cmp(reported) {
        std::cmp::Ordering::Greater => {
            inner
                .reactor
                .queued_bytes
                .fetch_add(pending - *reported, Ordering::Relaxed);
        }
        std::cmp::Ordering::Less => {
            inner
                .reactor
                .queued_bytes
                .fetch_sub(*reported - pending, Ordering::Relaxed);
        }
        std::cmp::Ordering::Equal => {}
    }
    *reported = pending;
}

impl Inner {
    fn log(&self, msg: &str) {
        if let Some(file) = &self.log {
            let mut file = file.lock().expect("log lock");
            let t = self.booted.elapsed();
            let _ = writeln!(file, "[node {} +{:>9.3}s] {msg}", self.id, t.as_secs_f64());
        }
    }

    /// Counts and logs a protocol violation by the dialer at `peer` —
    /// the error closes its connection, and nothing is answered: there
    /// is no guessing at what it speaks.
    fn violation(&self, peer: SocketAddr, what: &dyn std::fmt::Display) -> io::Error {
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        self.log(&format!("protocol violation from {peer}: {what}"));
        io::Error::new(io::ErrorKind::InvalidData, what.to_string())
    }

    /// The peer table, for reading. (A poisoned lock is recovered: the
    /// table holds plain data and atomics.)
    fn peers(&self) -> RwLockReadGuard<'_, PeerTable> {
        self.peers.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current forwarding-plane snapshot.
    fn plane(&self) -> Arc<SwitchDataplane> {
        Arc::clone(&self.plane.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Milliseconds since this node booted — the clock suspicion stamps
    /// are expressed in.
    fn now_ms(&self) -> u64 {
        u64::try_from(self.booted.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Marks `peer` suspect until `now + suspect_ttl`; counts only the
    /// not-suspect → suspect transition so `peers_suspected` reflects
    /// detection events, not retries.
    fn mark_suspect(&self, peer: usize) {
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

    fn clear_suspect(&self, peer: usize) {
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

    fn hot_stats(&self) -> NodeHotStats {
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
    fn wire_snapshot(&self) -> StatsSnapshot {
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

    /// One local routing decision: runs the greedy pipeline up to the
    /// point where the packet would leave this node, returning the
    /// prepared hop instead of performing it. Pure local work — it never
    /// touches a socket, which is what lets the reactor run it inline.
    fn route_step(&self, packet: Packet) -> Step {
        if packet.kind == PacketKind::Invalidate {
            // Coherence traffic: drop any cached copy and ack. Handled
            // before the request counter — an invalidation is overhead
            // of someone else's write, not a request of its own.
            self.cache.invalidate(&packet.id);
            self.counters
                .invalidations_rx
                .fetch_add(1, Ordering::Relaxed);
            let mut ack = Packet::response(packet.id.clone(), Bytes::new());
            ack.hops = packet.hops;
            return Step::respond(ack);
        }
        if packet.kind == PacketKind::Stats {
            // Observability: answer with a snapshot of this node's
            // counters. Handled before the request counter — a scrape
            // must not perturb the request accounting it reports.
            return Step::respond(Packet::stats_response(self.wire_snapshot().encode()));
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
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
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
            let stored = packet.kind == PacketKind::Placement;
            return Step::Respond {
                resp: self.deliver_direct(packet.without_relay(), server),
                stored,
            };
        }
        if let Some(header) = packet.relay {
            if header.relay != self.id {
                return Step::respond(self.refuse(&packet, "relayed packet at the wrong switch"));
            }
            if header.dest == self.id {
                // Virtual-link endpoint: pop the header, resume greedy.
                return self.greedy_step(packet.without_relay());
            }
            // Intermediate relay: rewrite d.relay to the tuple's succ.
            return match self.plane().relay_next(header.dest, header.sour) {
                Some(succ) => {
                    self.counters.relayed.fetch_add(1, Ordering::Relaxed);
                    let mut fwd = packet.clone().with_relay(header.sour, succ, header.dest);
                    fwd.hops = fwd.hops.saturating_add(1);
                    Step::Forward {
                        to: succ,
                        packet: fwd,
                        fill: None,
                    }
                }
                None => Step::respond(self.refuse(&packet, "no relay tuple for the virtual link")),
            };
        }
        self.greedy_step(packet)
    }

    /// Greedy pipeline step at this switch (packet not in a virtual
    /// link). Suspect DT neighbors are treated as absent: the walk
    /// detours to the next-best live neighbor (or delivers locally) and
    /// counts each detour in the packet, aborting with a redirect once
    /// the budget is spent so a partitioned walk terminates observably.
    fn greedy_step(&self, mut packet: Packet) -> Step {
        let plane = self.plane();
        if plane.server_count() == 0 {
            // Transit switches only relay; they are never access points
            // and never DT members (mirrors `route`'s InvalidDynamics).
            return Step::respond(
                self.refuse(&packet, "transit switch cannot run the greedy pipeline"),
            );
        }
        let (decision, detoured) = {
            let now = self.now_ms();
            let peers = self.peers();
            let alive = |n: usize| !peers.suspect_at(n, now);
            plane.decide_avoiding(packet.position, &packet.id, &alive)
        };
        if detoured {
            self.counters
                .detour_forwards
                .fetch_add(1, Ordering::Relaxed);
            packet.detours = packet.detours.saturating_add(1);
            if packet.detours > self.cfg.max_detours {
                return Step::respond(self.redirect(&packet, "detour budget exhausted"));
            }
        }
        match decision {
            ForwardDecision::DeliverLocal {
                server,
                extended_to,
            } => self.deliver_step(packet, server, extended_to),
            ForwardDecision::Forward {
                neighbor,
                next_hop,
                virtual_link,
            } => {
                // Hot-key fast path: a clean remote-destined retrieval
                // may be answered from the read cache with zero peer
                // frames. Probed only here — local deliveries and relay
                // legs never consult it — so the hit rate measures
                // forwarding actually saved. Detoured walks skip the
                // cache entirely (probe and admission): only the true
                // greedy path's answers are trusted.
                let fill = if packet.kind == PacketKind::Retrieval && packet.detours == 0 {
                    let token = self.cache.begin_read(&packet.id);
                    if let Some(payload) = self.cache.get(&packet.id) {
                        let mut resp = Packet::response(packet.id.clone(), payload);
                        resp.hops = packet.hops;
                        resp.detours = packet.detours;
                        return Step::respond(resp);
                    }
                    Some(CacheFill {
                        id: packet.id.clone(),
                        token,
                    })
                } else {
                    None
                };
                self.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                let mut fwd = if virtual_link {
                    packet.with_relay(self.id, next_hop, neighbor)
                } else {
                    packet
                };
                fwd.hops = fwd.hops.saturating_add(1);
                Step::Forward {
                    to: next_hop,
                    packet: fwd,
                    fill,
                }
            }
        }
    }

    /// Owner-switch delivery: this switch is closest to `H(d)`.
    fn deliver_step(
        &self,
        packet: Packet,
        server: ServerId,
        extended_to: Option<ServerId>,
    ) -> Step {
        match packet.kind {
            PacketKind::Placement => {
                let target = extended_to.unwrap_or(server);
                if target.switch == self.id {
                    Step::Respond {
                        resp: self.store_local(&packet, target),
                        stored: true,
                    }
                } else {
                    // The extension redirected the write to a server
                    // behind another switch. The redirected copy
                    // supersedes any stale primary copy (mirrors
                    // `GredNetwork::place`) — including a cached one.
                    self.store.remove(&packet.id);
                    self.cache.invalidate(&packet.id);
                    let mut fwd = proto::address_to_server(packet, target);
                    fwd.hops = fwd.hops.saturating_add(1);
                    Step::Forward {
                        to: target.switch,
                        packet: fwd,
                        fill: None,
                    }
                }
            }
            PacketKind::Retrieval => {
                // Ask the primary, then the takeover. The paper duplicates
                // the request to both "at the same time"; querying in
                // order is observably equivalent and keeps the response
                // deterministic.
                if let Some(found) = self.lookup_local(&packet, server) {
                    return Step::respond(found);
                }
                match extended_to {
                    Some(takeover) if takeover.switch == self.id => Step::respond(
                        self.lookup_local(&packet, takeover)
                            .unwrap_or_else(|| self.respond_miss(&packet)),
                    ),
                    Some(takeover) => {
                        let mut fwd = proto::address_to_server(packet, takeover);
                        fwd.hops = fwd.hops.saturating_add(1);
                        Step::Forward {
                            to: takeover.switch,
                            packet: fwd,
                            fill: None,
                        }
                    }
                    None => Step::respond(self.respond_miss(&packet)),
                }
            }
            PacketKind::RetrievalResponse
            | PacketKind::Invalidate
            | PacketKind::Stats
            | PacketKind::StatsResponse
            | PacketKind::Admin
            | PacketKind::AdminResponse => {
                unreachable!("rejected in route_step()")
            }
        }
    }

    /// Serves a packet addressed at one specific local server.
    fn deliver_direct(&self, packet: Packet, server: ServerId) -> Packet {
        match packet.kind {
            PacketKind::Placement => self.store_local(&packet, server),
            PacketKind::Retrieval => self
                .lookup_local(&packet, server)
                .unwrap_or_else(|| self.respond_miss(&packet)),
            PacketKind::RetrievalResponse
            | PacketKind::Invalidate
            | PacketKind::Stats
            | PacketKind::StatsResponse
            | PacketKind::Admin
            | PacketKind::AdminResponse => {
                unreachable!("rejected in route_step()")
            }
        }
    }

    /// Stores the placement payload under local server `target` and acks
    /// with the storing server's identity. The payload `Bytes` still
    /// shares the decoded frame's allocation — storing it is a
    /// refcount bump, not a copy.
    fn store_local(&self, packet: &Packet, target: ServerId) -> Packet {
        debug_assert_eq!(target.switch, self.id);
        // The owner can also be an access node for the same id: its own
        // cached copy is superseded the moment the write lands.
        self.cache.invalidate(&packet.id);
        self.store.insert(
            packet.id.clone(),
            StoredItem {
                index: target.index,
                payload: packet.payload.clone(),
            },
        );
        self.counters.delivered.fetch_add(1, Ordering::Relaxed);
        let mut ack = Packet::response(packet.id.clone(), proto::ack_payload(target));
        ack.hops = packet.hops;
        ack.detours = packet.detours;
        if packet.detours > 0 {
            // Stored, but the greedy walk detoured: the storing switch
            // may not be the true owner, so the ack does not count as a
            // clean copy for replication quorums.
            ack.status = gred_dataplane::ResponseStatus::Degraded;
        }
        ack
    }

    /// A hit response if local server `server` stores the packet's id.
    /// Only the cheap `Bytes` clone happens under the shard lock.
    fn lookup_local(&self, packet: &Packet, server: ServerId) -> Option<Packet> {
        debug_assert_eq!(server.switch, self.id);
        let payload = self.store.read(&packet.id, |item| {
            item.filter(|item| item.index == server.index)
                .map(|item| item.payload.clone())
        })?;
        self.counters.delivered.fetch_add(1, Ordering::Relaxed);
        let mut resp = Packet::response(packet.id.clone(), payload);
        resp.hops = packet.hops;
        resp.detours = packet.detours;
        if packet.detours > 0 {
            resp.status = gred_dataplane::ResponseStatus::Degraded;
        }
        Some(resp)
    }

    fn respond_miss(&self, packet: &Packet) -> Packet {
        self.counters.delivered.fetch_add(1, Ordering::Relaxed);
        let mut resp = Packet::not_found(packet.id.clone());
        resp.hops = packet.hops;
        resp.detours = packet.detours;
        resp
    }

    fn refuse(&self, packet: &Packet, why: &str) -> Packet {
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        self.log(&format!("refused {} for {}: {why}", packet.kind, packet.id));
        let mut resp = Packet::error_response(packet.id.clone());
        resp.hops = packet.hops;
        resp.detours = packet.detours;
        resp
    }

    /// Aborts the request with a [`Redirect`] response: nothing was
    /// served; the client should retry through another access node.
    ///
    /// [`Redirect`]: gred_dataplane::ResponseStatus::Redirect
    fn redirect(&self, packet: &Packet, why: &str) -> Packet {
        self.counters
            .redirects_issued
            .fetch_add(1, Ordering::Relaxed);
        self.log(&format!(
            "redirected {} for {}: {why}",
            packet.kind, packet.id
        ));
        let mut resp = Packet::redirect_response(packet.id.clone());
        resp.hops = packet.hops;
        resp.detours = packet.detours;
        resp
    }

    /// Records a continuation resent to peer `to` after its established
    /// link died, on both the node-wide hot counter and the per-peer
    /// slot a scrape exports.
    fn note_reconnect(&self, to: usize) {
        self.counters
            .link_reconnects
            .fetch_add(1, Ordering::Relaxed);
        let peers = self.peers();
        if let Some(slot) = peers.reconnects.get(to) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Admits a forwarded retrieval's response into the read cache.
    /// Only a clean authoritative hit qualifies: an `Ok`, detour-free
    /// `RetrievalResponse`. A detoured (`Degraded`) or aborted
    /// (`Redirect`) answer may come from a stand-in switch rather than
    /// the true owner and must never populate the cache; misses and
    /// errors carry nothing worth caching. The pre-send token makes the
    /// admission epoch-fenced: if an invalidation for the id landed
    /// while the continuation was parked, the insert is refused.
    fn maybe_cache(&self, fill: Option<CacheFill>, resp: &Packet) {
        let Some(fill) = fill else { return };
        if resp.kind != PacketKind::RetrievalResponse
            || resp.status != ResponseStatus::Ok
            || resp.detours != 0
        {
            return;
        }
        self.cache
            .insert_if_fresh(fill.token, fill.id, resp.payload.clone());
    }
}

/// Downgrades a clean placement ack whose invalidation broadcast could
/// not reach every peer: the write landed, but some cache may still
/// hold the old value, so the copy must not count toward a replication
/// quorum. Already-degraded (detoured) acks are left alone.
fn degrade_ack(resp: &mut Packet) {
    if resp.status == ResponseStatus::Ok {
        resp.status = ResponseStatus::Degraded;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::client::ClientConfig;
    use crate::pipelined::{Framing, PipeConn, PIPELINE_CHUNK};
    use gred_dataplane::NeighborEntry;
    use gred_geometry::Point2;
    use std::sync::mpsc;

    pub(crate) fn test_config() -> NodeConfig {
        NodeConfig {
            log_dir: None,
            ..NodeConfig::default()
        }
    }

    pub(crate) fn spawn_single(server_count: usize) -> Node {
        let plane = SwitchDataplane::new(0, Point2::new(0.5, 0.5), server_count);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        Node::spawn(0, plane, vec![addr], listener, test_config()).unwrap()
    }

    /// Switch 0 of a two-switch network whose only neighbor, switch 1 at
    /// `peer`, is closer to every id: each request is forwarded there.
    pub(crate) fn forwarder(peer: SocketAddr, cfg: NodeConfig) -> Node {
        let mut plane = SwitchDataplane::new(0, Point2::new(9.0, 9.0), 1);
        plane.install_neighbor(NeighborEntry {
            neighbor: 1,
            position: Point2::new(0.5, 0.5),
            via: 1,
            physical: true,
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        Node::spawn(0, plane, vec![addr, peer], listener, cfg).unwrap()
    }

    /// Plays switch 1 for a [`forwarder`]: accepts one GMUX link and
    /// hands each decoded `(corr, request)` to `answer`, writing back
    /// whatever `(corr, response)` frames it returns.
    pub(crate) fn scripted_peer(
        listener: &TcpListener,
        mut answer: impl FnMut(u64, Packet) -> Vec<(u64, Packet)>,
    ) {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        let mut preamble = [0u8; 4];
        stream.read_exact(&mut preamble).unwrap();
        assert_eq!(preamble, MUX_PREAMBLE);
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        loop {
            let n = match stream.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => n,
            };
            decoder.feed(&buf[..n]);
            while let Some(body) = decoder.next_frame().unwrap() {
                let (corr, Body::One(request)) = frame::read_call(&body).unwrap() else {
                    panic!("the forwarder sends single packets");
                };
                for (corr, response) in answer(corr, request) {
                    stream.write_all(&call(corr, &response)).unwrap();
                }
            }
        }
    }

    /// Runs `test` against the address of a listener that `peer` serves
    /// on a scoped thread. The peer must return once the node under test
    /// hangs up; the scope joins it.
    pub(crate) fn with_peer(peer: impl FnOnce(TcpListener) + Send, test: impl FnOnce(SocketAddr)) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::scope(|scope| {
            scope.spawn(move || peer(listener));
            test(addr);
        });
    }

    /// One bare call frame carrying `packet` under `corr`.
    fn call(corr: u64, packet: &Packet) -> Vec<u8> {
        let mut out = Vec::new();
        frame::write_call(&mut out, corr, std::slice::from_ref(packet), false);
        out
    }

    /// What a dialer opens with: the hello, then `packet` as its first
    /// call.
    fn hello(packet: &Packet) -> Vec<u8> {
        [&MUX_PREAMBLE[..], &call(1, packet)].concat()
    }

    fn read_reply(stream: &mut TcpStream) -> Packet {
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        loop {
            if let Some(body) = decoder.next_frame().unwrap() {
                let (_, Body::One(reply)) = frame::read_call(&body).unwrap() else {
                    panic!("a bare request is answered bare");
                };
                return reply;
            }
            let n = stream.read(&mut buf).unwrap();
            assert_ne!(n, 0, "node closed the connection without responding");
            decoder.feed(&buf[..n]);
        }
    }

    pub(crate) fn roundtrip(addr: SocketAddr, packet: &Packet) -> Packet {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&hello(packet)).unwrap();
        read_reply(&mut stream)
    }

    #[test]
    fn single_node_place_then_retrieve() {
        let mut node = spawn_single(2);
        let id = DataId::new("solo");
        // With no neighbors the node is always closest: local delivery.
        let ack = roundtrip(node.addr(), &Packet::placement(id.clone(), b"v".as_ref()));
        assert_eq!(ack.kind, PacketKind::RetrievalResponse);
        assert_eq!(ack.status, gred_dataplane::ResponseStatus::Ok);
        let server = proto::parse_ack(&ack.payload).expect("ack names the server");
        assert_eq!(server.switch, 0);
        assert_eq!(server.index, gred_hash::select_server(&id, 2));

        let got = roundtrip(node.addr(), &Packet::retrieval(id.clone()));
        assert_eq!(got.payload.as_ref(), b"v");
        assert_eq!(got.hops, 0, "no physical hop on local delivery");

        let miss = roundtrip(node.addr(), &Packet::retrieval(DataId::new("absent")));
        assert_eq!(miss.status, gred_dataplane::ResponseStatus::NotFound);

        let report = node.shutdown();
        assert_eq!(report.requests, 3);
        assert_eq!(report.errors, 0);
        assert_eq!(report.stored_items, 1);
        assert_eq!(report.workers_joined, 1, "the reactor is the whole node");
        assert_eq!(report.hot.frames_decoded, 3);
    }

    #[test]
    fn a_dialer_without_the_preamble_is_closed_not_served() {
        let mut node = spawn_single(1);
        // What the retired plain protocol opened with: a bare
        // length-prefixed `Retrieval` frame.
        let mut stranger = TcpStream::connect(node.addr()).unwrap();
        let bare = crate::frame::encode_frame(&gred_dataplane::encode(&Packet::retrieval(
            DataId::new("k"),
        )));
        stranger.write_all(&bare).unwrap();
        let mut answer = Vec::new();
        // A reset is as closed as a FIN; what matters is that no byte
        // was ever sent back.
        let _ = stranger.read_to_end(&mut answer);
        assert!(answer.is_empty(), "the node answered {answer:?}");
        while node.open_connections() != 0 {
            thread::yield_now();
        }
        // The node itself is unharmed: the next dialer that says hello
        // is served.
        let reply = roundtrip(node.addr(), &Packet::retrieval(DataId::new("k")));
        assert_eq!(reply.status, ResponseStatus::NotFound);
        let report = node.shutdown();
        assert_eq!(report.errors, 1, "the refusal is counted");
        assert_eq!(report.requests, 1, "only the second dialer was served");
    }

    #[test]
    fn a_preamble_split_across_four_writes_is_accepted() {
        let mut node = spawn_single(1);
        let mut stream = TcpStream::connect(node.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        for byte in MUX_PREAMBLE {
            stream.write_all(&[byte]).unwrap();
            thread::sleep(Duration::from_millis(2)); // one segment each
        }
        stream
            .write_all(&call(9, &Packet::retrieval(DataId::new("k"))))
            .unwrap();
        assert_eq!(read_reply(&mut stream).status, ResponseStatus::NotFound);
        let report = node.shutdown();
        assert_eq!((report.requests, report.errors), (1, 0));
    }

    #[test]
    fn invalidate_frames_drop_cached_entries_inline() {
        let mut node = spawn_single(1);
        let id = DataId::new("inv-key");
        // Seed the read cache directly (a single node never forwards,
        // so the population path cannot run here).
        let token = node.inner.cache.begin_read(&id);
        assert!(node
            .inner
            .cache
            .insert_if_fresh(token, id.clone(), Bytes::from_static(b"v")));
        let resp = roundtrip(node.addr(), &Packet::invalidate(id.clone()));
        assert_eq!(resp.status, gred_dataplane::ResponseStatus::Ok);
        assert!(resp.payload.is_empty());
        assert!(node.inner.cache.get(&id).is_none(), "the entry is dropped");
        let report = node.shutdown();
        assert_eq!(report.hot.invalidations_rx, 1);
        assert_eq!(report.requests, 0, "coherence traffic is not a request");
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn detoured_or_redirected_responses_never_populate_the_cache() {
        let mut node = spawn_single(1);
        let id = DataId::new("detour-no-fill");
        let fill = |token| {
            Some(CacheFill {
                id: id.clone(),
                token,
            })
        };

        let mut degraded = Packet::response(id.clone(), b"stale".as_ref());
        degraded.status = gred_dataplane::ResponseStatus::Degraded;
        degraded.detours = 1;
        let token = node.inner.cache.begin_read(&id);
        node.inner.maybe_cache(fill(token), &degraded);
        assert!(
            node.inner.cache.get(&id).is_none(),
            "a degraded (detoured) read must never populate the cache"
        );

        let redirect = Packet::redirect_response(id.clone());
        let token = node.inner.cache.begin_read(&id);
        node.inner.maybe_cache(fill(token), &redirect);
        assert!(
            node.inner.cache.get(&id).is_none(),
            "a redirected read must never populate the cache"
        );

        let miss = Packet::not_found(id.clone());
        let token = node.inner.cache.begin_read(&id);
        node.inner.maybe_cache(fill(token), &miss);
        assert!(node.inner.cache.get(&id).is_none(), "misses are not cached");

        // The clean authoritative answer is the only one admitted.
        let ok = Packet::response(id.clone(), b"fresh".as_ref());
        let token = node.inner.cache.begin_read(&id);
        node.inner.maybe_cache(fill(token), &ok);
        assert_eq!(
            node.inner
                .cache
                .get(&id)
                .expect("clean hit cached")
                .as_ref(),
            b"fresh"
        );
        node.shutdown();
    }

    #[test]
    fn transit_node_refuses_greedy_requests() {
        let plane = SwitchDataplane::transit(0);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut node = Node::spawn(0, plane, vec![addr], listener, test_config()).unwrap();
        let resp = roundtrip(node.addr(), &Packet::retrieval(DataId::new("k")));
        assert_eq!(resp.status, gred_dataplane::ResponseStatus::Error);
        let report = node.shutdown();
        assert_eq!(report.errors, 1);
    }

    #[test]
    fn misaddressed_packets_get_error_responses_not_hangs() {
        let mut node = spawn_single(1);
        // Server-addressed to a different switch.
        let wrong = proto::address_to_server(
            Packet::retrieval(DataId::new("k")),
            ServerId {
                switch: 9,
                index: 0,
            },
        );
        assert_eq!(
            roundtrip(node.addr(), &wrong).status,
            gred_dataplane::ResponseStatus::Error
        );
        // A response packet arriving as a request.
        let bogus = Packet::response(DataId::new("k"), b"x".as_ref());
        assert_eq!(
            roundtrip(node.addr(), &bogus).status,
            gred_dataplane::ResponseStatus::Error
        );
        node.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drains_workers() {
        let mut node = spawn_single(1);
        let addr = node.addr();
        let _ = roundtrip(addr, &Packet::retrieval(DataId::new("k")));
        let first = node.shutdown();
        assert_eq!(first.workers_joined, 1);
        let second = node.shutdown();
        assert_eq!(second.workers_joined, 0, "workers join exactly once");
        // The listener is closed: new connections are refused.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn mux_batch_call_round_trips_through_a_node() {
        let mut node = spawn_single(1);
        let mut link = PipeConn::connect(node.addr(), &ClientConfig::default()).unwrap();
        let places: Vec<Packet> = (0..5)
            .map(|i| Packet::placement(DataId::new(format!("mb/{i}")), format!("v{i}")))
            .collect();
        let acks = link
            .exchange(
                &places,
                Framing::Batch(PIPELINE_CHUNK),
                PacketKind::RetrievalResponse,
                Duration::from_secs(5),
            )
            .unwrap();
        assert!(acks
            .iter()
            .all(|a| a.status == gred_dataplane::ResponseStatus::Ok));
        let gets: Vec<Packet> = (0..5)
            .map(|i| Packet::retrieval(DataId::new(format!("mb/{i}"))))
            .collect();
        let replies = link
            .exchange(
                &gets,
                Framing::Batch(PIPELINE_CHUNK),
                PacketKind::RetrievalResponse,
                Duration::from_secs(5),
            )
            .unwrap();
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(reply.id, gets[i].id, "responses keep request order");
            assert_eq!(reply.payload.as_ref(), format!("v{i}").as_bytes());
        }
        // Inside one container the packets are served in order: a read
        // sees the write ahead of it, and a miss keeps its place.
        let mixed = vec![
            Packet::placement(DataId::new("batch/a"), b"va".as_ref()),
            Packet::placement(DataId::new("batch/b"), b"vb".as_ref()),
            Packet::retrieval(DataId::new("batch/a")),
            Packet::retrieval(DataId::new("absent")),
        ];
        let replies = link
            .exchange(
                &mixed,
                Framing::Batch(PIPELINE_CHUNK),
                PacketKind::RetrievalResponse,
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(replies.len(), 4, "one response per request, in order");
        assert_eq!(replies[0].status, gred_dataplane::ResponseStatus::Ok);
        assert_eq!(replies[1].status, gred_dataplane::ResponseStatus::Ok);
        assert_eq!(replies[2].payload.as_ref(), b"va");
        assert_eq!(replies[3].status, gred_dataplane::ResponseStatus::NotFound);
        let report = node.shutdown();
        assert_eq!(report.requests, 14, "each batched packet counts once");
        assert_eq!(report.stored_items, 7);
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn node_serves_the_mux_protocol_with_interleaved_requests() {
        // Drive a node over one GMUX connection — the same protocol
        // peers use — with every request in flight at once under its
        // own correlation id.
        let mut node = spawn_single(1);
        let mut link = PipeConn::connect(node.addr(), &ClientConfig::default()).unwrap();
        let places: Vec<Packet> = (0..4)
            .map(|t| Packet::placement(DataId::new(format!("mux-{t}")), format!("value-{t}")))
            .collect();
        let acks = link
            .exchange(
                &places,
                Framing::Batch(1),
                PacketKind::RetrievalResponse,
                Duration::from_secs(5),
            )
            .unwrap();
        assert!(acks
            .iter()
            .all(|a| a.status == gred_dataplane::ResponseStatus::Ok));
        let gets: Vec<Packet> = (0..4)
            .map(|t| Packet::retrieval(DataId::new(format!("mux-{t}"))))
            .collect();
        let replies = link
            .exchange(
                &gets,
                Framing::Batch(1),
                PacketKind::RetrievalResponse,
                Duration::from_secs(5),
            )
            .unwrap();
        for (t, reply) in replies.iter().enumerate() {
            assert_eq!(reply.id, gets[t].id);
            assert_eq!(reply.payload.as_ref(), format!("value-{t}").as_bytes());
        }
        let report = node.shutdown();
        assert_eq!(report.requests, 8);
        assert_eq!(report.errors, 0);
        assert_eq!(report.stored_items, 4);
    }

    #[test]
    fn evicted_cache_entry_is_forwarded_not_redirected() {
        // The reactor used to answer a remote-destined read inline only
        // after peeking `cache.contains`; an entry evicted between that
        // peek and the real probe came back as a spurious `Redirect`.
        // Forwards are legal on the reactor now: a vanished entry is
        // simply a miss, and a miss is forwarded.
        let owner = |listener: TcpListener| {
            scripted_peer(&listener, |corr, request| {
                vec![(corr, Packet::response(request.id, b"owned".as_ref()))]
            });
        };
        with_peer(owner, |peer_addr| {
            let mut node = forwarder(peer_addr, test_config());
            let id = DataId::new("raced-key");
            let read = Packet::retrieval(id.clone());
            assert_eq!(roundtrip(node.addr(), &read).payload.as_ref(), b"owned");
            assert!(
                node.inner.cache.contains(&id),
                "the forward filled the cache"
            );
            assert_eq!(roundtrip(node.addr(), &read).payload.as_ref(), b"owned");
            assert_eq!(node.hot_stats().cache_hits, 1, "the second read is a hit");
            // Evict, as a racing invalidation or CLOCK sweep would.
            node.inner.cache.invalidate(&id);
            let reply = roundtrip(node.addr(), &read);
            assert_eq!(reply.status, ResponseStatus::Ok);
            assert_eq!(reply.payload.as_ref(), b"owned");
            let report = node.shutdown();
            assert_eq!(report.forwarded, 2, "miss, hit, evicted miss");
            assert_eq!(report.hot.redirects_issued, 0);
            assert_eq!(report.errors, 0);
        });
    }

    #[test]
    fn accept_errors_pause_the_listener_without_stalling_parked_forwards() {
        // The owner answers only when told to, so the forward stays
        // parked while the listener is driven into its error state.
        let (release, released) = mpsc::channel::<()>();
        let owner = move |listener: TcpListener| {
            scripted_peer(&listener, |corr, request| {
                released.recv().unwrap();
                vec![(corr, Packet::response(request.id, b"late".as_ref()))]
            });
        };
        with_peer(owner, |peer_addr| {
            let mut node = forwarder(peer_addr, test_config());
            let mut first = TcpStream::connect(node.addr()).unwrap();
            let read = hello(&Packet::retrieval(DataId::new("k")));
            first.write_all(&read).unwrap();
            while node.parked_continuations() == 0 {
                thread::yield_now();
            }
            // Every accept now fails EMFILE-style. A second client dials in:
            // the kernel completes its handshake, the reactor's accept fails.
            node.inner
                .reactor
                .accept_faults
                .store(usize::MAX, Ordering::Relaxed);
            let mut second = TcpStream::connect(node.addr()).unwrap();
            second.write_all(&read).unwrap();
            while node.inner.reactor.accept_faults.load(Ordering::Relaxed) == usize::MAX {
                thread::yield_now();
            }
            // The parked forward completes while accepts keep failing.
            release.send(()).unwrap();
            assert_eq!(read_reply(&mut first).payload.as_ref(), b"late");
            assert!(node.inner.reactor.accept_faults.load(Ordering::Relaxed) > 0);
            assert_eq!(node.open_connections(), 1, "the second dial still waits");
            // Once accepts succeed again the deadline queue re-arms the
            // listener and the waiting client is served.
            node.inner.reactor.accept_faults.store(0, Ordering::Relaxed);
            release.send(()).unwrap();
            assert_eq!(read_reply(&mut second).payload.as_ref(), b"late");
            let report = node.shutdown();
            assert_eq!(report.errors, 0);
        });
    }

    #[test]
    fn late_completion_after_origin_slot_reuse_is_dropped() {
        let (release, released) = mpsc::channel::<()>();
        let owner = move |listener: TcpListener| {
            scripted_peer(&listener, |corr, request| {
                released.recv().unwrap();
                let payload = request.id.as_bytes().to_vec();
                vec![(corr, Packet::response(request.id, payload))]
            });
        };
        with_peer(owner, |peer_addr| {
            let mut node = forwarder(peer_addr, test_config());
            // The first client parks a forward over a mux connection (served
            // frame by frame), then kills that connection with a framing
            // violation (an oversized length prefix).
            let mut doomed = TcpStream::connect(node.addr()).unwrap();
            let mut bytes = hello(&Packet::retrieval(DataId::new("doomed")));
            bytes.extend_from_slice(&u32::MAX.to_be_bytes());
            doomed.write_all(&bytes).unwrap();
            while node.parked_continuations() == 0 || node.open_connections() != 0 {
                thread::yield_now();
            }
            assert_eq!(node.parked_continuations(), 1, "the forward outlives it");
            // The next connection moves into the vacated slot.
            let mut heir = TcpStream::connect(node.addr()).unwrap();
            while node.open_connections() != 1 {
                thread::yield_now();
            }
            release.send(()).unwrap();
            while node.parked_continuations() != 0 {
                thread::yield_now();
            }
            // The late completion died by generation: the heir reads only
            // the answer to its own request, never the doomed one's.
            let own = hello(&Packet::retrieval(DataId::new("heir")));
            heir.write_all(&own).unwrap();
            release.send(()).unwrap();
            let reply = read_reply(&mut heir);
            assert_eq!(reply.id, DataId::new("heir"));
            assert_eq!(reply.payload.as_ref(), b"heir");
            // Nothing leaked: a drain with a call still open would sit out
            // the whole reply timeout.
            let started = Instant::now();
            let report = node.shutdown();
            assert!(started.elapsed() < Duration::from_secs(2), "a call leaked");
            assert_eq!(report.forwarded, 2);
        });
    }

    #[test]
    fn one_byte_at_a_time_peer_response_completes_byte_exactly() {
        use crate::frame::tests::{drain_queue, Throttled};
        let payload: Vec<u8> = (0..700u32).map(|i| (i * 31 % 251) as u8).collect();
        let expected = payload.clone();
        let dribbler = move |listener: TcpListener| {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut decoder = FrameDecoder::new();
            let mut buf = [0u8; 4096];
            let mut skip = MUX_PREAMBLE.len();
            let body = loop {
                let n = stream.read(&mut buf).unwrap();
                let fresh = &buf[skip.min(n)..n];
                skip -= skip.min(n);
                decoder.feed(fresh);
                if let Some(body) = decoder.next_frame().unwrap() {
                    break body;
                }
            };
            let (corr, Body::One(request)) = frame::read_call(&body).unwrap() else {
                panic!("the forwarder sends single packets");
            };
            // The response leaves through the worst sink there is — one
            // byte accepted, one write refused, forever — and reaches
            // the node one byte per segment.
            let out = call(corr, &Packet::response(request.id, payload));
            let mut queue = WriteQueue::new();
            let mut sink = Throttled::new(1);
            queue.send(&mut sink, &out).unwrap();
            drain_queue(&mut queue, &mut sink);
            for byte in sink.out {
                stream.write_all(&[byte]).unwrap();
            }
            let _ = stream.read(&mut buf); // hold the link until the node hangs up
        };
        with_peer(dribbler, |peer_addr| {
            let mut node = forwarder(peer_addr, test_config());
            let reply = roundtrip(node.addr(), &Packet::retrieval(DataId::new("dribble")));
            assert_eq!(reply.status, ResponseStatus::Ok);
            assert_eq!(reply.payload.as_ref(), &expected[..]);
            assert_eq!(node.parked_continuations(), 0);
            let report = node.shutdown();
            assert_eq!(report.hot.frames_decoded, 2, "one request, one response");
        });
    }
}
