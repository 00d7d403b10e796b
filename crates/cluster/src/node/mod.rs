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
//! frames. Every decoded packet runs the very function the in-process
//! plane walks ([`SwitchDataplane::step`]); a packet answered here is
//! written straight back, a packet whose next stop is another switch
//! becomes a parked continuation.
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
//!                      └────────────┘    group landed ─────────────▶ sharers,    │
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
//! per sharer back-to-back, acks counted down, the origin answered only
//! after the last one.
//!
//! # Who can hold a copy
//!
//! A retrieval that misses the cache of the node it entered (its access
//! node) leaves stamped with that node's id (the wire's `sharer` field).
//! The owner that answers from its store records the id on the item and
//! marks the reply [`Cacheable::BySharer`]: only that access node may
//! keep it. An item whose readers the owner does not track — one it did
//! not store from the wire, or one more switches read than its set
//! holds — is marked [`Cacheable::Anywhere`] instead: every switch on
//! the way back may keep it, since its next write invalidates every peer
//! anyway, and a transit switch may answer later requests from such a
//! copy. That answer is marked [`Cacheable::WhenPristine`]: a switch
//! keeps it only if no write's invalidation ever reached its cache shard
//! for the id, so a switch that was already told to drop the id cannot
//! take back an older copy from a cache the same write has not reached
//! yet. An
//! overwrite invalidates the old copy's readers — plus whatever an
//! earlier write of the same item has not confirmed yet — or every peer
//! when they are unknown. A clean ack therefore still proves no
//! reachable cache holds an older value.
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
//! # Ownership
//!
//! The reactor owns all of the node's state — the forwarding plane, the
//! peer table, the store, the read cache, the counters, the log file —
//! as plain fields it mutates through `&mut self`; no lock or atomic
//! guards any of it. A [`Node`] is a mailbox: each of its methods sends
//! a closure down an `mpsc` channel and wakes the poller, and all but
//! [`Node::request_shutdown`] wait for the reply. The reactor runs the
//! queued closures between two event batches, so a control verb
//! (install a plane, re-point a peer, preload or extract items) finds
//! and leaves the state exactly as a request does, and
//! [`Node::stats_snapshot`] runs the code a wire `Stats` scrape runs.
//! Once the reactor has exited nothing runs them: a verb is dropped, and
//! an accessor answers from the final [`NodeReport`]
//! ([`Node::stored_items`], [`Node::hot_stats`]) or with an empty value
//! (zero, an empty list, a default snapshot) — it never waits.
//!
//! # Shutdown
//!
//! [`Node::shutdown`] mails the drain command. The reactor drains in two
//! phases: it closes the listener and its peer links (every parked
//! continuation is refused at once instead of running to its deadline)
//! and stops reading, then keeps flushing until every response is on the
//! wire — bounded by the peer reply timeout — before closing all
//! connections and returning its final [`NodeReport`]. Joining the
//! reactor joins the node.
//!
//! [`Cacheable::BySharer`]: gred_dataplane::Cacheable::BySharer
//! [`Cacheable::Anywhere`]: gred_dataplane::Cacheable::Anywhere
//! [`Cacheable::WhenPristine`]: gred_dataplane::Cacheable::WhenPristine
//! [`MUX_PREAMBLE`]: crate::frame::MUX_PREAMBLE
//! [`FrameDecoder`]: crate::frame::FrameDecoder
//! [`frame::read_call`]: crate::frame::read_call
//! [`WriteQueue`]: gred_runtime::reactor::WriteQueue

use self::conn::{Reactor, LISTENER_TOKEN};
use self::peers::Peer;
use self::stats::Counters;
use bytes::Bytes;
use gred_cache::ReadCache;
use gred_dataplane::{NodeHotStats, StatsSnapshot, SwitchDataplane};
use gred_hash::DataId;
use gred_runtime::reactor::{set_listen_backlog, Interest, Poller};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

mod call;
mod conn;
mod peers;
mod route;
mod stats;
#[cfg(test)]
pub(crate) mod tests;

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
    /// further peer frames; a miss at the node a retrieval entered is
    /// forwarded stamped with this node's id, so the owner invalidates
    /// this cache on the next write. `0` disables caching entirely: no
    /// probe, no stamp.
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
#[derive(Debug, Clone, PartialEq, Eq, Default)]
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

/// One stored item: which local server holds it, its payload, and who
/// may cache it. The index matters because a range extension can store
/// an item under a takeover server while `H(d) mod s` still names the
/// primary — a retrieval must not answer for the wrong server.
#[derive(Debug, Clone)]
struct StoredItem {
    index: usize,
    payload: Bytes,
    /// The write that stored this copy (`0`: not a wire write), so that
    /// write's completion can tell its own copy from a later one.
    serial: u64,
    /// Access switches this copy was read by.
    readers: Sharers,
    /// Switches that may still cache an older copy: the targets of the
    /// write that stored this one, until it confirmed them all.
    pending: Sharers,
}

/// Most switch ids a [`Sharers`] set tracks before it gives up and
/// becomes [`Sharers::All`].
const SHARER_SLOTS: usize = 8;

/// A bounded set of switch ids that may cache an item, or `All` when
/// that is unknown or too many to track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sharers {
    Known { ids: [u32; SHARER_SLOTS], len: u8 },
    All,
}

impl Sharers {
    const NONE: Sharers = Sharers::Known {
        ids: [0; SHARER_SLOTS],
        len: 0,
    };

    fn add(&mut self, id: u32) {
        let Sharers::Known { ids, len } = self else {
            return;
        };
        let held = usize::from(*len);
        if ids[..held].contains(&id) {
            return;
        }
        if held == SHARER_SLOTS {
            *self = Sharers::All;
        } else {
            ids[held] = id;
            *len += 1;
        }
    }

    fn union(mut self, other: Sharers) -> Sharers {
        match other.known() {
            Some(ids) => {
                ids.iter().for_each(|&id| self.add(id));
                self
            }
            None => Sharers::All,
        }
    }

    fn is_empty(&self) -> bool {
        self.known().is_some_and(<[u32]>::is_empty)
    }

    /// The ids, or `None` for `All`.
    fn known(&self) -> Option<&[u32]> {
        match self {
            Sharers::Known { ids, len } => Some(&ids[..usize::from(*len)]),
            Sharers::All => None,
        }
    }
}

/// Everything the switch knows, owned by its reactor thread as plain
/// fields (see the module docs).
struct State {
    id: usize,
    /// The forwarding state. Live reconfiguration (join/leave/crash
    /// recovery) installs a fresh plane between two event batches, so
    /// every request runs against one plane.
    plane: SwitchDataplane,
    /// Packets processed by planes that have since been replaced, so
    /// [`Node::packets_processed`] stays monotone across installs.
    retired_processed: u64,
    /// Every switch of the network, by id.
    peers: Vec<Peer>,
    store: HashMap<DataId, StoredItem>,
    /// Serial of the last write stored here (see [`StoredItem::serial`]).
    writes: u64,
    /// Hot-key read cache consulted on the would-forward path; filled
    /// only with replies this node may keep (see the module docs), kept
    /// coherent by the owners' invalidations, and flushed whenever a new
    /// forwarding plane is installed (crash/join/leave).
    cache: ReadCache,
    counters: Counters,
    cfg: NodeConfig,
    log: Option<File>,
    booted: Instant,
}

/// A control verb: runs on the reactor thread between two event
/// batches.
type Command = Box<dyn FnOnce(&mut Reactor) + Send>;

/// A running GRED switch daemon: the mailbox of its reactor thread. See
/// the module docs for the threading model.
pub struct Node {
    id: usize,
    addr: SocketAddr,
    mailbox: mpsc::Sender<Command>,
    /// The reactor's poller, held here only to wake it after a send.
    poller: Arc<Poller>,
    reactor: Option<thread::JoinHandle<NodeReport>>,
    /// The reactor's final accounting once joined; empty until then.
    report: NodeReport,
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
                Some(file)
            }
            None => None,
        };
        let poller = Arc::new(Poller::new()?);
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        let state = State {
            id,
            plane,
            retired_processed: 0,
            peers: peer_addrs.into_iter().map(Peer::new).collect(),
            store: HashMap::new(),
            writes: 0,
            cache: ReadCache::new(cfg.cache_bytes),
            counters: Counters::default(),
            cfg,
            log,
            booted: Instant::now(),
        };
        state.log(&format!("listening on {addr}"));
        let (mailbox, commands) = mpsc::channel();
        let reactor = Reactor::new(state, listener, Arc::clone(&poller), commands);
        let handle = thread::Builder::new()
            .name(format!("gred-node-{id}-reactor"))
            .spawn(move || reactor.run())?;
        Ok(Node {
            id,
            addr,
            mailbox,
            poller,
            reactor: Some(handle),
            report: NodeReport {
                id,
                ..NodeReport::default()
            },
        })
    }

    /// Runs `query` on the reactor and waits for its answer: `None` once
    /// the reactor has exited, because the dropped closure takes its
    /// reply channel with it.
    fn ask<R: Send + 'static>(
        &self,
        query: impl FnOnce(&mut Reactor) -> R + Send + 'static,
    ) -> Option<R> {
        let (reply, answer) = mpsc::channel();
        let command = move |reactor: &mut Reactor| {
            let _ = reply.send(query(reactor));
        };
        self.mailbox.send(Box::new(command)).ok()?;
        self.poller.wake();
        answer.recv().ok()
    }

    /// The switch id this node serves.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The address the node listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Packets the underlying data plane processed (greedy decisions plus
    /// virtual-link relays) — directly comparable to the same counter on
    /// the in-process plane. Monotone across [`Node::install_plane`];
    /// `0` once the reactor has exited.
    pub fn packets_processed(&self) -> u64 {
        self.ask(|r| r.state.retired_processed + r.state.plane.packets_processed())
            .unwrap_or(0)
    }

    /// Replaces the forwarding state with `plane` while the node keeps
    /// serving — the push half of live reconfiguration: the control
    /// plane recomputes tables after a join/leave/crash and installs
    /// them here, mirroring what `gred::control::dynamics` does to the
    /// in-process planes. Requests served before the install ran on the
    /// old plane; every later one sees the new tables.
    pub fn install_plane(&self, plane: SwitchDataplane) {
        self.ask(move |r| {
            let state = &mut r.state;
            let old = std::mem::replace(&mut state.plane, plane);
            state.retired_processed += old.packets_processed();
            // A plane install accompanies a topology change (crash, join,
            // leave): ownership moved, and ids tombstoned by a crash must
            // not be resurrected from stale cached copies.
            state.cache.flush();
            state.log("installed a new forwarding plane");
        });
    }

    /// Registers (or re-points) the address of peer switch `switch`,
    /// growing the peer table when the switch is new. A link to the old
    /// address is dropped the next time the reactor reaches for it — the
    /// next request dials the new address — and the peer's suspicion is
    /// cleared: a re-registered peer is presumed alive until proven
    /// otherwise.
    pub fn register_peer(&self, switch: usize, addr: SocketAddr) {
        self.ask(move |r| {
            let state = &mut r.state;
            if state.peers.len() <= switch {
                // Placeholder slots for any gap; they are re-pointed when
                // their switch registers.
                state.peers.resize(switch + 1, Peer::new(addr));
            }
            let peer = &mut state.peers[switch];
            peer.addr = addr;
            peer.suspect = 0;
            state.log(&format!("peer {switch} registered at {addr}"));
        });
    }

    /// Peer switches currently marked suspect (stamp not yet expired),
    /// in ascending order; empty once the reactor has exited.
    pub fn suspect_peers(&self) -> Vec<usize> {
        self.ask(|r| {
            let now = r.state.now_ms();
            (0..r.state.peers.len())
                .filter(|&peer| r.state.suspect_at(peer, now))
                .collect()
        })
        .unwrap_or_default()
    }

    /// Removes and returns every stored item whose id satisfies `pred` —
    /// the migration half of live reconfiguration: after new tables are
    /// installed, keys this switch no longer owns are extracted here and
    /// re-placed on their new owners. Empty once the reactor has exited.
    pub fn extract_items(&self, pred: impl Fn(&DataId) -> bool) -> Vec<(DataId, Bytes)> {
        // `pred` may borrow the caller's data, so it runs on this
        // thread: the reactor lists the ids, then removes those chosen.
        let ids = self
            .ask(|r| r.state.store.keys().cloned().collect::<Vec<_>>())
            .unwrap_or_default();
        let chosen: Vec<DataId> = ids.into_iter().filter(|id| pred(id)).collect();
        self.ask(move |r| {
            chosen
                .into_iter()
                .filter_map(|id| {
                    let item = r.state.store.remove(&id)?;
                    Some((id, item.payload))
                })
                .collect()
        })
        .unwrap_or_default()
    }

    /// Items currently in the local store; once the reactor has exited,
    /// the count it reported (`0` before [`Node::shutdown`] joined it).
    pub fn stored_items(&self) -> usize {
        self.ask(|r| r.state.store.len())
            .unwrap_or(self.report.stored_items)
    }

    /// Current hot-path contention counters — readable while the node is
    /// serving, so tests can assert (for example) that a contended run
    /// rebuilt no link. Once the reactor has exited, the counters it
    /// reported (zero before [`Node::shutdown`] joined it).
    pub fn hot_stats(&self) -> NodeHotStats {
        self.ask(|r| r.state.hot_stats()).unwrap_or(self.report.hot)
    }

    /// The same snapshot a wire `Stats` scrape would answer with, built
    /// by the same code — the parity twin tests compare against. A
    /// default (all-zero) snapshot once the reactor has exited.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.ask(|r| r.wire_snapshot()).unwrap_or_default()
    }

    /// Seeds the local store with an item held by local server `index` —
    /// used when booting a cluster from a network that already placed
    /// data in-process, and to re-home migrated items. Nobody's reads of
    /// it were seen here, so its first overwrite invalidates every peer.
    pub fn preload(&self, id: DataId, index: usize, payload: Bytes) {
        self.preload_many(vec![(id, index, payload)]);
    }

    /// [`Node::preload`] for every `(id, index, payload)` of `items`, in
    /// one round trip to the reactor.
    pub(crate) fn preload_many(&self, items: Vec<(DataId, usize, Bytes)>) {
        self.ask(move |r| {
            let state = &mut r.state;
            for (id, index, payload) in items {
                // Preloading overwrites the store out of band, so any
                // cached copy of the id on this node is stale by
                // definition. It is no write — it invalidates no other
                // cache — so the shard stays pristine for cache-to-cache
                // fills (see `maybe_cache`).
                state.cache.invalidate(&id);
                let item = StoredItem {
                    index,
                    payload,
                    serial: 0,
                    readers: Sharers::All,
                    pending: Sharers::NONE,
                };
                state.store.insert(id, item);
            }
        });
    }

    /// Inbound connections the reactor currently holds open — the gauge
    /// the connection-scale soak test asserts against. `0` once the
    /// reactor has exited.
    pub fn open_connections(&self) -> usize {
        self.ask(|r| r.inbound()).unwrap_or(0)
    }

    /// Continuations currently parked on peer links: forwarded frames
    /// and invalidations whose response has neither arrived nor expired.
    /// Zero whenever the node is idle, and once the reactor has exited.
    pub fn parked_continuations(&self) -> usize {
        self.ask(|r| r.parked.len()).unwrap_or(0)
    }

    /// Signals shutdown without waiting. [`Cluster`](crate::Cluster)
    /// signals every node before joining any of them so peers stop
    /// accepting new work together.
    pub fn request_shutdown(&self) {
        if self.mailbox.send(Box::new(Reactor::begin_drain)).is_ok() {
            self.poller.wake();
        }
    }

    /// Stops the node: signals shutdown and joins the reactor — which
    /// refuses whatever is still parked, flushes every response, closes
    /// the listener, the peer links and every connection, and returns
    /// its final accounting. Idempotent.
    pub fn shutdown(&mut self) -> NodeReport {
        self.request_shutdown();
        let joined = match self.reactor.take() {
            Some(handle) => {
                // A reactor that panicked leaves no accounting: the
                // report stays empty.
                if let Ok(report) = handle.join() {
                    self.report = report;
                }
                1
            }
            None => 0,
        };
        NodeReport {
            workers_joined: joined,
            ..self.report.clone()
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
            .field("id", &self.id)
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl State {
    fn log(&self, msg: &str) {
        if let Some(mut file) = self.log.as_ref() {
            let t = self.booted.elapsed();
            let _ = writeln!(file, "[node {} +{:>9.3}s] {msg}", self.id, t.as_secs_f64());
        }
    }

    /// Counts and logs a protocol violation by the dialer at `peer` —
    /// the error closes its connection, and nothing is answered: there
    /// is no guessing at what it speaks.
    fn violation(&mut self, peer: SocketAddr, what: &dyn std::fmt::Display) -> io::Error {
        self.counters.errors += 1;
        self.log(&format!("protocol violation from {peer}: {what}"));
        io::Error::new(io::ErrorKind::InvalidData, what.to_string())
    }

    /// Milliseconds since this node booted — the clock suspicion stamps
    /// are expressed in.
    fn now_ms(&self) -> u64 {
        u64::try_from(self.booted.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}
