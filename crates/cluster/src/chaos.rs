//! Socket-level chaos testing for the cluster runtime.
//!
//! Three layers, smallest first:
//!
//! - [`ChaosFabric`] — a loopback TCP proxy fleet. Every directed
//!   node-to-node link is routed through its own tiny proxy, created
//!   lazily by the [`AddrRewrite`] hook the fabric hands to
//!   [`Cluster::boot_with`]. Each link can independently be severed
//!   (connections reset, new dials refused), black-holed (bytes accepted
//!   and silently dropped — the sender learns only by timeout), or
//!   delayed. Clients are never proxied: faults hit the peer mesh, where
//!   the failure-detection and detour machinery lives. One poller thread
//!   owns every proxy; the hook and the mode setters reach it through
//!   its [`Mailbox`], so a mode is in force when the setter returns.
//! - [`run_chaos`] — the acceptance scenario: boot a cluster behind the
//!   fabric, run a seeded replicated workload while a
//!   [`ChaosPlan`](gred_testkit::ChaosPlan) kills nodes and breaks
//!   links, drive crash recovery the way an operator would
//!   (`crash_switch` on the model twin, `apply_planes`, transit revival,
//!   read-repair), and audit every acknowledged write at the end. The
//!   verdict is binary: an acknowledged write that cannot be read back
//!   is a lost write; an unacknowledged failure is an error statistic.
//! - [`ChaosTransport`] — the [`TransportProbe`] that replays the
//!   model-based harness's schedule ([`gred_testkit::Harness::replay_probed`])
//!   over a *real* loopback cluster: every placement and retrieval the
//!   schedule performs in-process is repeated over TCP, and any
//!   divergence (wrong server, wrong payload, a hit where the model
//!   misses) is reported in the harness's violation currency. Dynamics
//!   and range extensions arrive as `resync`, which cuts the running
//!   cluster over the way an operator would: a node for each switch the
//!   model added, then one [`Cluster::apply_planes`]; after the cut
//!   every item the model stores must sit on the same server in the
//!   cluster. Built with [`ChaosTransport::new`] it sits behind a fabric
//!   and fires a chaos plan between operations — node kills revive
//!   immediately from the model store (durable-restart semantics), so
//!   the model comparison stays exact while every fault is masked — or
//!   honestly reported — by retries, rotation, and detours; built with
//!   [`ChaosTransport::direct`] it is the same replay with no fabric
//!   and no faults.

use crate::client::{Client, ClientError, Reply};
use crate::cluster::{AddrRewrite, Cluster, ClusterConfig, ClusterReport};
use crate::node::NodeConfig;
use crate::observe::ClusterHealth;
use gred::GredNetwork;
use gred_dataplane::{Packet, StatsSnapshot};
use gred_hash::DataId;
use gred_net::{ServerId, ServerPool, Topology};
use gred_runtime::reactor::{Command, Events, Interest, Mailbox, Poller};
use gred_testkit::{ChaosAction, ChaosPlan, LinkMode, TransportProbe};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Domain-mixing constant: the chaos *workload* stream must differ from
/// the chaos *plan* stream generated from the same seed.
const WORKLOAD_DOMAIN: u64 = 0x5EED_C4A0_5FAB_0003;

/// One proxied connection: bytes flow client → `up` → server and
/// server → `down` → client, each chunk stamped for delay injection.
struct ProxyConn {
    client: TcpStream,
    server: Option<TcpStream>,
    up: VecDeque<(Instant, Vec<u8>)>,
    down: VecDeque<(Instant, Vec<u8>)>,
    dead: bool,
}

/// The proxy of one directed link.
struct ProxyLink {
    /// What the `from` node dials.
    listener: TcpListener,
    /// Where accepted connections are forwarded (the `to` node's real
    /// listener) — re-pointed when the node restarts.
    target: SocketAddr,
    mode: LinkMode,
    conns: Vec<ProxyConn>,
}

/// Everything the fabric's poller thread owns: the shared reactor
/// poller, where every proxy listener and connection is registered
/// read-interest, and every directed link's proxy.
struct Fabric {
    poller: Arc<Poller>,
    links: HashMap<(usize, usize), ProxyLink>,
    stopped: bool,
}

/// A fleet of per-directed-link loopback proxies with runtime fault
/// injection, driven by one background poller thread that owns every
/// link. The methods reach it through its mailbox and return once the
/// thread has applied them.
pub struct ChaosFabric {
    mailbox: Mailbox<Fabric>,
    thread: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ChaosFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let links = self.mailbox.ask(|fabric| fabric.links.len());
        f.debug_struct("ChaosFabric")
            .field("links", &links)
            .finish_non_exhaustive()
    }
}

impl Default for ChaosFabric {
    fn default() -> Self {
        Self::new()
    }
}

impl ChaosFabric {
    /// Starts the fabric's poller thread. Proxies appear lazily as the
    /// rewrite hook is called.
    pub fn new() -> ChaosFabric {
        let poller = Arc::new(Poller::new().expect("creating the fabric poller"));
        let (mailbox, commands) = Mailbox::new(Arc::clone(&poller));
        let fabric = Fabric {
            poller,
            links: HashMap::new(),
            stopped: false,
        };
        let thread = thread::Builder::new()
            .name("chaos-fabric".into())
            .spawn(move || fabric.run(&commands))
            .expect("spawning the fabric poller");
        ChaosFabric {
            mailbox,
            thread: Some(thread),
        }
    }

    /// The [`AddrRewrite`] hook to pass to [`Cluster::boot_with`]: every
    /// directed peer link gets (or re-targets) its own proxy. Once the
    /// fabric has shut down, the hook leaves addresses as they are.
    pub fn rewrite(&self) -> AddrRewrite {
        let mailbox = self.mailbox.clone();
        Arc::new(move |from, to, real| {
            match mailbox.ask(move |fabric| fabric.proxy_addr((from, to), real)) {
                Some(addr) => addr.expect("binding a chaos proxy"),
                None => real,
            }
        })
    }

    /// Sets the fault mode of the directed link `from → to`. Severing
    /// closes its live connections before this returns.
    pub fn set_mode(&self, from: usize, to: usize, mode: LinkMode) {
        self.mailbox.ask(move |fabric| {
            if let Some(link) = fabric.links.get_mut(&(from, to)) {
                link.mode = mode;
                if mode == LinkMode::Severed {
                    for conn in link.conns.drain(..) {
                        conn.deregister(&fabric.poller);
                    }
                }
            }
        });
    }

    /// The current mode of `from → to`, if that link exists.
    pub fn mode(&self, from: usize, to: usize) -> Option<LinkMode> {
        self.mailbox
            .ask(move |fabric| fabric.links.get(&(from, to)).map(|l| l.mode))
            .flatten()
    }

    /// Restores every link to transparent forwarding.
    pub fn heal_all(&self) {
        self.mailbox.ask(|fabric| {
            for link in fabric.links.values_mut() {
                link.mode = LinkMode::Open;
            }
        });
    }

    /// Stops the poller and drops every proxy.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.mailbox.tell(|fabric| fabric.stopped = true);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosFabric {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Registration token shared by every fabric fd. Tokens are not used
/// for dispatch — any wakeup runs a full service pass over every link,
/// and each pass reads every socket to `WouldBlock`, so level-triggered
/// readiness never re-fires for data the pass already consumed.
const FABRIC_TOKEN: u64 = 0;

impl Fabric {
    fn run(mut self, commands: &mpsc::Receiver<Command<Fabric>>) {
        let mut events = Events::with_capacity(256);
        while !self.stopped {
            for link in self.links.values_mut() {
                service_link(link, &self.poller);
            }
            // Queued chunks (delay injection, or a downstream write that
            // would block) need a timed retry; with nothing queued, block
            // until a socket fires or a command wakes us — an idle fabric
            // burns no CPU.
            let queued = self.links.values().any(|l| {
                l.conns
                    .iter()
                    .any(|c| !c.up.is_empty() || !c.down.is_empty())
            });
            let timeout = queued.then_some(Duration::from_millis(1));
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            while let Ok(command) = commands.try_recv() {
                command(&mut self);
            }
        }
    }

    /// Create-or-retarget the proxy for `key`, including again after
    /// its `to` node restarts — the existing proxy then simply points at
    /// the new real listener.
    fn proxy_addr(&mut self, key: (usize, usize), real: SocketAddr) -> io::Result<SocketAddr> {
        if let Some(link) = self.links.get_mut(&key) {
            link.target = real;
            return link.listener.local_addr();
        }
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        self.poller
            .register(listener.as_raw_fd(), FABRIC_TOKEN, Interest::READ)?;
        let link = ProxyLink {
            listener,
            target: real,
            mode: LinkMode::Open,
            conns: Vec::new(),
        };
        self.links.insert(key, link);
        Ok(addr)
    }
}

/// Services one link's listener and connections. New connections are
/// registered with the fabric poller; dead ones are deregistered as
/// they drop.
fn service_link(link: &mut ProxyLink, poller: &Poller) {
    // Accept new dials. Severed links accept-and-drop so the dialer sees
    // a prompt EOF rather than a connect timeout.
    loop {
        match link.listener.accept() {
            Ok((client, _)) => {
                if link.mode == LinkMode::Severed {
                    drop(client);
                    continue;
                }
                if client.set_nonblocking(true).is_err() {
                    continue;
                }
                // Connect upstream now; loopback either succeeds or
                // refuses fast. A dead target closes the conn, which the
                // dialing node reads as link death — exactly right.
                let server = TcpStream::connect_timeout(&link.target, Duration::from_millis(100))
                    .ok()
                    .and_then(|s| s.set_nonblocking(true).ok().map(|()| s));
                let Some(server) = server else {
                    continue; // drops `client`
                };
                if poller
                    .register(client.as_raw_fd(), FABRIC_TOKEN, Interest::READ)
                    .is_err()
                {
                    continue;
                }
                if poller
                    .register(server.as_raw_fd(), FABRIC_TOKEN, Interest::READ)
                    .is_err()
                {
                    let _ = poller.deregister(client.as_raw_fd());
                    continue;
                }
                link.conns.push(ProxyConn {
                    client,
                    server: Some(server),
                    up: VecDeque::new(),
                    down: VecDeque::new(),
                    dead: false,
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
    let delay = match link.mode {
        LinkMode::Delay(d) => d,
        _ => Duration::ZERO,
    };
    let black_hole = link.mode == LinkMode::BlackHole;
    for conn in &mut link.conns {
        service_conn(conn, delay, black_hole);
    }
    for conn in link.conns.iter().filter(|c| c.dead) {
        conn.deregister(poller);
    }
    link.conns.retain(|c| !c.dead);
}

impl ProxyConn {
    fn deregister(&self, poller: &Poller) {
        let _ = poller.deregister(self.client.as_raw_fd());
        if let Some(server) = &self.server {
            let _ = poller.deregister(server.as_raw_fd());
        }
    }
}

/// Shuttles one connection's bytes.
fn service_conn(conn: &mut ProxyConn, delay: Duration, black_hole: bool) {
    let now = Instant::now();
    let mut buf = [0u8; 8192];

    // Ingest from both ends. A black-holed link keeps reading (writes on
    // the node side must succeed) but never enqueues.
    match conn.client.read(&mut buf) {
        Ok(0) => conn.dead = true,
        Ok(n) => {
            if !black_hole {
                conn.up.push_back((now, buf[..n].to_vec()));
            }
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
        Err(_) => conn.dead = true,
    }
    if let Some(server) = &mut conn.server {
        match server.read(&mut buf) {
            Ok(0) => conn.dead = true,
            Ok(n) => {
                if !black_hole {
                    conn.down.push_back((now, buf[..n].to_vec()));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => conn.dead = true,
        }
    }
    if conn.dead || black_hole {
        return;
    }

    // Flush chunks that have served their delay, preserving order.
    if let Some(server) = &mut conn.server {
        if !flush(&mut conn.up, server, delay, now) {
            conn.dead = true;
            return;
        }
    }
    if !flush(&mut conn.down, &mut conn.client, delay, now) {
        conn.dead = true;
    }
}

/// Writes every due chunk of `queue` to `out`; returns `false` when the
/// stream died. Partial writes keep the remainder queued at the front.
fn flush(
    queue: &mut VecDeque<(Instant, Vec<u8>)>,
    out: &mut TcpStream,
    delay: Duration,
    now: Instant,
) -> bool {
    while let Some((stamp, chunk)) = queue.front() {
        if now.duration_since(*stamp) < delay {
            return true;
        }
        match out.write(chunk) {
            Ok(n) if n == chunk.len() => {
                queue.pop_front();
            }
            Ok(n) => {
                let (stamp, mut chunk) = queue.pop_front().expect("front just peeked");
                chunk.drain(..n);
                queue.push_front((stamp, chunk));
                return true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(_) => return false,
        }
    }
    true
}

/// Parameters of one [`run_chaos`] acceptance run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seeds both the fault plan and the workload.
    pub seed: u64,
    /// Switches in the ring-with-chords topology.
    pub switches: usize,
    /// Workload operations.
    pub ops: usize,
    /// Node crashes injected mid-run.
    pub kills: usize,
    /// Transient link faults (sever / black-hole / delay) injected.
    pub link_faults: usize,
}

/// Replicas per acknowledged write (the paper's `k`).
pub const COPIES: u32 = 2;

/// Clean copies on distinct switches required before acking.
pub const QUORUM: usize = 2;

impl Default for ChaosConfig {
    /// The ISSUE's acceptance scenario: 16 switches, `k = 2`, 2 crashes,
    /// 500 operations.
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            switches: 16,
            ops: 500,
            kills: 2,
            link_faults: 4,
        }
    }
}

/// What a chaos run observed. The only hard failure is
/// [`lost_acked`](ChaosOutcome::lost_acked) — every other counter is an
/// honest report of faults the cluster weathered.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Seed the run (plan + workload) was generated from.
    pub seed: u64,
    /// Workload length.
    pub ops: usize,
    /// Writes acknowledged with a full quorum.
    pub acked_writes: usize,
    /// Writes that failed *before* acknowledgment — reported to the
    /// caller as errors, so they are not loss.
    pub write_errors: usize,
    /// Mid-run reads that returned the acknowledged payload.
    pub read_hits: usize,
    /// Mid-run reads that failed with an error (allowed under faults).
    pub read_errors: usize,
    /// Acknowledged writes that could not be read back — the number the
    /// whole exercise exists to keep at zero.
    pub lost_acked: usize,
    /// Acknowledged writes re-replicated after a crash ate one copy.
    pub repairs: usize,
    /// Repair attempts that failed (the write keeps its degraded
    /// replica set and stays exposed to the next crash).
    pub repair_failures: usize,
    /// Switch ids crashed, in injection order.
    pub killed: Vec<usize>,
    /// Link fault events fired (including heals).
    pub link_events: usize,
    /// Final accounting from the surviving nodes.
    pub report: ClusterReport,
    /// Post-heal wire probe: scraped counter deltas proving the cluster
    /// settled, taken between the final audit and shutdown. `None` only
    /// when the scrape itself failed (infrastructure, not a verdict).
    pub probe: Option<HealProbe>,
}

/// Wire-scraped evidence that the cluster settled after `heal_all`: two
/// full-cluster scrapes bracketing a burst of fresh unreplicated writes.
/// The counter-asserted chaos invariants read these numbers instead of
/// grepping logs: a healed cluster stops detouring, drains its suspect
/// set, and delivers every write's invalidations to all their targets.
///
/// Every live node reads each probe key before the first scrape. The
/// keys do not exist yet, so each read is a miss that must leave no
/// sharer behind, and each probe write is a first insert: its targets
/// are unknown, it invalidates every peer, and so it exercises every
/// link of the storing node.
#[derive(Debug, Clone)]
pub struct HealProbe {
    /// Cluster-total `detour_forwards` at the first post-heal scrape.
    pub detours_before: u64,
    /// Cluster-total `detour_forwards` after the probe writes. Equal to
    /// [`detours_before`](HealProbe::detours_before) in a settled
    /// cluster — healed routing takes clean greedy paths.
    pub detours_after: u64,
    /// Suspicion edges still live at the second scrape (reporter, peer).
    pub suspect_links: usize,
    /// Probe writes acknowledged clean (status `Ok`).
    pub clean_writes: usize,
    /// Probe writes acknowledged degraded (broadcast not confirmed).
    pub degraded_writes: usize,
    /// Live nodes scraped.
    pub nodes: usize,
    /// Δ cluster-total `invalidations_rx` across the probe writes. Each
    /// clean first insert notifies every peer but the storing node, so a
    /// settled cluster shows exactly `clean_writes * (nodes - 1)`.
    pub invalidations_delta: u64,
    /// The second scrape's per-node snapshots (the CI artifact payload).
    pub snapshots: Vec<StatsSnapshot>,
}

impl ChaosOutcome {
    /// Whether the run met the acceptance bar: no acknowledged write was
    /// lost.
    pub fn passed(&self) -> bool {
        self.lost_acked == 0
    }

    /// The command reproducing this exact run (same plan, same
    /// workload).
    pub fn repro_line(&self) -> String {
        format!(
            "cargo run -p gred-sim --bin repro -- chaos --seed {} --ops {}",
            self.seed, self.ops
        )
    }
}

impl std::fmt::Display for ChaosOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chaos seed={}: {} acked writes, {} lost, {} repairs ({} failed), \
             {} read hits, {} read errors, {} write errors, killed {:?}, {} link events",
            self.seed,
            self.acked_writes,
            self.lost_acked,
            self.repairs,
            self.repair_failures,
            self.read_hits,
            self.read_errors,
            self.write_errors,
            self.killed,
            self.link_events,
        )
    }
}

/// Cluster timeouts tuned for fault injection: a black-holed RPC must
/// burn milliseconds, not the default seconds, or every timeout-driven
/// suspicion blows the run budget.
pub fn chaos_cluster_config() -> ClusterConfig {
    ClusterConfig {
        node: NodeConfig {
            poll_interval: Duration::from_millis(1),
            peer_connect_timeout: Duration::from_millis(200),
            peer_reply_timeout: Duration::from_millis(120),
            suspect_ttl: Duration::from_millis(250),
            ..NodeConfig::default()
        },
        client: crate::client::ClientConfig {
            connect_timeout: Duration::from_millis(200),
            request_timeout: Duration::from_millis(600),
            read_timeout: Duration::from_millis(10),
            retries: 4,
            backoff: Duration::from_millis(5),
        },
    }
}

/// One acknowledged write and where its clean copies live.
struct AckedWrite {
    id: DataId,
    payload: Vec<u8>,
    clean_switches: Vec<usize>,
}

/// Runs the chaos acceptance scenario described by `cfg`. Deterministic
/// in its fault plan and workload; socket timing varies, but the
/// zero-loss verdict must not.
///
/// # Errors
///
/// Infrastructure failures only (booting the cluster, model dynamics) —
/// workload and fault outcomes are reported in the [`ChaosOutcome`],
/// not as errors.
pub fn run_chaos(cfg: &ChaosConfig) -> io::Result<ChaosOutcome> {
    let plan = ChaosPlan::generate(cfg.seed, cfg.ops, cfg.kills, cfg.link_faults);
    let mut net = chaos_network(cfg)?;
    let fabric = ChaosFabric::new();
    let mut cluster = Cluster::boot_with(&net, chaos_cluster_config(), fabric.rewrite())?;
    let mut client = member_client(&cluster, &net).map_err(io::Error::other)?;

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ WORKLOAD_DOMAIN);
    let mut acked: Vec<AckedWrite> = Vec::new();
    let mut outcome = ChaosOutcome {
        seed: cfg.seed,
        ops: cfg.ops,
        acked_writes: 0,
        write_errors: 0,
        read_hits: 0,
        read_errors: 0,
        lost_acked: 0,
        repairs: 0,
        repair_failures: 0,
        killed: Vec::new(),
        link_events: 0,
        report: ClusterReport { nodes: Vec::new() },
        probe: None,
    };

    // A killed node stays dead for this many workload operations before
    // the operator-style recovery kicks in — the window where failure
    // detection, suspicion, and replica failover carry the traffic.
    const RECOVERY_LAG: usize = 8;
    // The victim of a crash whose recovery is still pending, with the
    // operation index at which recovery runs.
    let mut pending: Option<(usize, usize)> = None;

    let mut cursor = 0;
    for op in 0..cfg.ops {
        if let Some((victim, recover_at)) = pending {
            if op >= recover_at {
                client = recover(&mut cluster, &mut net, victim, &mut acked, &mut outcome)?;
                pending = None;
            }
        }
        while cursor < plan.events.len() && plan.events[cursor].at_op <= op {
            let action = plan.events[cursor].action;
            cursor += 1;
            match action {
                ChaosAction::KillNode { pick } => {
                    // One outstanding crash at a time: with `k` copies
                    // the guarantee only covers crashes separated by
                    // repair, so recover the previous victim first.
                    if let Some((victim, _)) = pending.take() {
                        client = recover(&mut cluster, &mut net, victim, &mut acked, &mut outcome)?;
                    }
                    let members = net.members().to_vec();
                    if members.len() <= 4 {
                        continue; // keep the cluster routable
                    }
                    let victim = members[pick as usize % members.len()];
                    cluster.crash_node(victim);
                    outcome.killed.push(victim);
                    pending = Some((victim, op + RECOVERY_LAG));
                }
                ChaosAction::Link { from, to, mode } => {
                    apply_link(&fabric, &net, from, to, mode);
                    outcome.link_events += 1;
                }
            }
        }

        let write = acked.is_empty() || rng.gen_range(0u32..100) < 55;
        if write {
            let serial = outcome.acked_writes + outcome.write_errors;
            let id = DataId::new(format!("chaos-{}-{serial}", cfg.seed));
            let payload = format!("payload-{}-{serial}", cfg.seed).into_bytes();
            match client.place_replicated(&id, payload.clone(), COPIES, QUORUM) {
                Ok(placement) => {
                    outcome.acked_writes += 1;
                    acked.push(AckedWrite {
                        id,
                        payload,
                        clean_switches: placement.clean_switches,
                    });
                }
                Err(_) => outcome.write_errors += 1,
            }
        } else {
            let entry = &acked[rng.gen_range(0..acked.len())];
            match client.retrieve_replicated(&entry.id, COPIES) {
                Ok(reply) if reply.is_hit() && reply.payload.as_ref() == &entry.payload[..] => {
                    outcome.read_hits += 1;
                }
                Ok(reply) if reply.is_hit() => outcome.lost_acked += 1, // wrong payload
                Ok(_) => outcome.lost_acked += 1, // authoritative miss of an acked write
                Err(_) => outcome.read_errors += 1,
            }
        }
    }

    // A crash still awaiting recovery at the end of the workload is
    // recovered before the audit — the operator always finishes the
    // runbook.
    if let Some((victim, _)) = pending.take() {
        recover(&mut cluster, &mut net, victim, &mut acked, &mut outcome)?;
    }

    // Final audit under healed links: every acknowledged write must read
    // back. This is the acceptance criterion. Stale suspicion expires
    // first, so the audit walks clean greedy paths, not detours.
    fabric.heal_all();
    thread::sleep(chaos_cluster_config().node.suspect_ttl + Duration::from_millis(50));
    let mut auditor = member_client(&cluster, &net).map_err(io::Error::other)?;
    for entry in &acked {
        match auditor.retrieve_replicated(&entry.id, COPIES) {
            Ok(reply) if reply.is_hit() && reply.payload.as_ref() == &entry.payload[..] => {}
            _ => outcome.lost_acked += 1,
        }
    }

    // Counter-asserted settling probe: scrape over the wire, write a
    // burst of fresh keys, scrape again. The deltas are the invariants
    // the chaos tests assert — no log grepping.
    outcome.probe = heal_probe(&cluster, &net, cfg);

    outcome.report = cluster.shutdown();
    fabric.shutdown();
    Ok(outcome)
}

/// Keys written by the post-heal probe, enough to make a broadcast
/// miscount unambiguous without stretching the run budget.
const PROBE_WRITES: usize = 6;

/// Runs the post-heal settle probe. `None` means the probe machinery
/// itself failed (a node unreachable mid-scrape), never a failed
/// invariant — the invariants live in the numbers.
fn heal_probe(cluster: &Cluster, net: &GredNetwork, cfg: &ChaosConfig) -> Option<HealProbe> {
    let ids: Vec<DataId> = (0..PROBE_WRITES)
        .map(|i| DataId::new(format!("heal-probe-{}-{i}", cfg.seed)))
        .collect();
    for (switch, _) in cluster.live_nodes() {
        let mut reader = cluster.client(switch).ok()?;
        for id in &ids {
            // A transit switch refuses; a member answers `NotFound`.
            let _ = reader.retrieve(id);
        }
    }
    let before = ClusterHealth::aggregate(&cluster.scrape().ok()?);
    let mut client = member_client(cluster, net).ok()?;
    let mut clean_writes = 0;
    let mut degraded_writes = 0;
    for (i, id) in ids.iter().enumerate() {
        match client.place(id, format!("probe-{i}").into_bytes()) {
            Ok(reply) if reply.is_clean() => clean_writes += 1,
            Ok(_) => degraded_writes += 1,
            Err(_) => {}
        }
    }
    let snapshots = cluster.scrape().ok()?;
    let after = ClusterHealth::aggregate(&snapshots);
    Some(HealProbe {
        detours_before: before.hot.detour_forwards,
        detours_after: after.hot.detour_forwards,
        suspect_links: after.suspects.len(),
        clean_writes,
        degraded_writes,
        nodes: after.nodes,
        invalidations_delta: after.hot.invalidations_rx - before.hot.invalidations_rx,
        snapshots,
    })
}

/// The operator runbook for a crashed node: mirror the crash on the
/// model twin (victim loses its links and becomes an empty transit
/// plane, its data is gone, every chain through it is re-routed), cut
/// over to the post-crash planes, revive the slot as an isolated transit
/// switch that relays nothing, repair, and reconnect.
fn recover(
    cluster: &mut Cluster,
    net: &mut GredNetwork,
    victim: usize,
    acked: &mut [AckedWrite],
    outcome: &mut ChaosOutcome,
) -> io::Result<Client> {
    net.crash_switch(victim).map_err(io::Error::other)?;
    cluster.apply_planes(net);
    cluster.restart_node(victim, net)?;
    let mut client = member_client(cluster, net).map_err(io::Error::other)?;
    repair_after_crash(&mut client, acked, victim, outcome);
    Ok(client)
}

/// Ring-with-chords topology: every switch links to its successor and to
/// the switch four ahead, giving the DT enough alternative paths that a
/// crash never partitions it.
fn chaos_network(cfg: &ChaosConfig) -> io::Result<GredNetwork> {
    let n = cfg.switches;
    let mut links: Vec<(usize, usize)> = (0..n).map(|s| (s, (s + 1) % n)).collect();
    if n > 8 {
        links.extend((0..n).map(|s| (s, (s + 4) % n)));
    }
    let topo = Topology::from_links(n, &links).map_err(io::Error::other)?;
    let pool = ServerPool::uniform(n, 2, 100_000);
    let gred_cfg = gred::GredConfig::with_iterations(8).seeded(cfg.seed ^ 0x70B0);
    GredNetwork::build(topo, pool, gred_cfg).map_err(io::Error::other)
}

/// A client rotating across four live member switches — killed slots
/// (revived as isolated transit switches) are not used as access nodes.
fn member_client(cluster: &Cluster, net: &GredNetwork) -> Result<Client, ClientError> {
    let members = net.members();
    let stride = (members.len() / 4).max(1);
    let access: Vec<usize> = members.iter().step_by(stride).take(4).copied().collect();
    cluster.client_multi(&access)
}

/// Applies a plan's link action: resolves its abstract picks against
/// live membership (`from == to` rotates `to` one member ahead) and
/// sets `mode` on that directed link.
fn apply_link(fabric: &ChaosFabric, net: &GredNetwork, from: u32, to: u32, mode: LinkMode) {
    let members = net.members();
    if members.len() < 2 {
        return;
    }
    let from = members[from as usize % members.len()];
    let mut to = members[to as usize % members.len()];
    if to == from {
        let next = members.iter().position(|&m| m == to).expect("member") + 1;
        to = members[next % members.len()];
    }
    fabric.set_mode(from, to, mode);
}

/// Re-replicates every acknowledged write that had a clean copy on the
/// crashed switch. A write whose surviving copies cannot be found is
/// counted lost immediately — honest accounting beats a quiet audit
/// surprise later.
fn repair_after_crash(
    client: &mut Client,
    acked: &mut [AckedWrite],
    victim: usize,
    outcome: &mut ChaosOutcome,
) {
    for entry in acked
        .iter_mut()
        .filter(|e| e.clean_switches.contains(&victim))
    {
        let survivor = match client.retrieve_replicated(&entry.id, COPIES) {
            Ok(reply) if reply.is_hit() && reply.payload.as_ref() == &entry.payload[..] => true,
            Ok(reply) if reply.is_hit() => false,
            Ok(_) => false,
            Err(_) => {
                // Unreachable right now is not lost: the audit settles it.
                outcome.repair_failures += 1;
                continue;
            }
        };
        if !survivor {
            outcome.lost_acked += 1;
            continue;
        }
        match client.place_replicated(&entry.id, entry.payload.clone(), COPIES, QUORUM) {
            Ok(placement) => {
                entry.clean_switches = placement.clean_switches;
                outcome.repairs += 1;
            }
            Err(_) => outcome.repair_failures += 1,
        }
    }
}

/// The [`TransportProbe`] that replays the harness schedule over a
/// loopback cluster, booted once: each resync is an operator's cut plus
/// a placement check (see the module docs). With a fabric
/// ([`new`](ChaosTransport::new)) a
/// [`ChaosPlan`] fires between operations: node kills are followed by an
/// immediate revival preloaded from the model store (a durable restart),
/// so the model comparison stays exact; link faults are left for
/// retries, client rotation, and suspect detours to absorb. Without one
/// ([`direct`](ChaosTransport::direct)) it is the plain socket replay.
#[derive(Debug)]
pub struct ChaosTransport {
    cfg: ClusterConfig,
    plan: ChaosPlan,
    cursor: usize,
    op_count: usize,
    /// `None` boots the nodes on their real addresses; the plan is then
    /// empty, so there is no link to break.
    fabric: Option<ChaosFabric>,
    cluster: Option<Cluster>,
    clients: HashMap<usize, Client>,
    /// How one data request crosses the wire: [`Client::request`],
    /// except where a test swaps in another framing of the same packet.
    send: fn(&mut Client, &Packet) -> Result<Reply, ClientError>,
    /// Clusters booted so far: 1 after any op, since a resync cuts the
    /// running cluster over instead of rebooting it.
    boots: usize,
    /// Chaos events fired so far.
    faults_fired: usize,
    /// Kill/revive cycles performed so far.
    kills: usize,
}

impl ChaosTransport {
    /// A transport firing `plan` over a fabric-wrapped cluster booted
    /// with the tuned [`chaos_cluster_config`].
    pub fn new(plan: ChaosPlan) -> ChaosTransport {
        ChaosTransport {
            fabric: Some(ChaosFabric::new()),
            plan,
            ..ChaosTransport::direct(chaos_cluster_config())
        }
    }

    /// A fault-free transport: no fabric, no plan — the harness schedule
    /// replayed over a cluster booted with `cfg`.
    pub fn direct(cfg: ClusterConfig) -> ChaosTransport {
        ChaosTransport {
            cfg,
            plan: ChaosPlan {
                seed: 0,
                events: Vec::new(),
            },
            cursor: 0,
            op_count: 0,
            fabric: None,
            cluster: None,
            clients: HashMap::new(),
            send: Client::request,
            boots: 0,
            faults_fired: 0,
            kills: 0,
        }
    }

    /// How many times a cluster was (re)booted.
    pub fn boots(&self) -> usize {
        self.boots
    }

    /// Chaos events fired so far.
    pub fn faults_fired(&self) -> usize {
        self.faults_fired
    }

    /// Kill/revive cycles performed so far.
    pub fn kills(&self) -> usize {
        self.kills
    }

    fn ensure(&mut self, net: &GredNetwork) -> Result<(), String> {
        if self.cluster.is_none() {
            let booted = match &self.fabric {
                Some(fabric) => Cluster::boot_with(net, self.cfg.clone(), fabric.rewrite()),
                None => Cluster::boot(net, self.cfg.clone()),
            };
            self.cluster =
                Some(booted.map_err(|e| format!("transport: cluster boot failed: {e}"))?);
            self.boots += 1;
        }
        Ok(())
    }

    /// Fires every plan event due at this operation index.
    fn advance(&mut self, net: &GredNetwork) -> Vec<String> {
        self.op_count += 1;
        let mut violations = Vec::new();
        while self.cursor < self.plan.events.len()
            && self.plan.events[self.cursor].at_op <= self.op_count
        {
            let action = self.plan.events[self.cursor].action;
            self.cursor += 1;
            self.faults_fired += 1;
            match action {
                ChaosAction::KillNode { pick } => {
                    let Some(cluster) = self.cluster.as_mut() else {
                        continue;
                    };
                    let members = net.members().to_vec();
                    if members.is_empty() {
                        continue;
                    }
                    let victim = members[pick as usize % members.len()];
                    cluster.crash_node(victim);
                    // Durable restart: the store reloads from the model,
                    // the listener moves, peers re-learn the address.
                    if let Err(e) = cluster.restart_node(victim, net) {
                        violations.push(format!("transport: reviving node {victim} failed: {e}"));
                    }
                    self.clients.remove(&victim);
                    self.kills += 1;
                }
                ChaosAction::Link { from, to, mode } => {
                    if let Some(fabric) = &self.fabric {
                        apply_link(fabric, net, from, to, mode);
                    }
                }
            }
        }
        violations
    }

    /// Fires the due plan events, then sends `packet` through the client
    /// attached to node `access` (booting the cluster and connecting on
    /// first use). Returns the violations so far and the reply, if any.
    fn call(
        &mut self,
        net: &GredNetwork,
        access: usize,
        op: &str,
        packet: &Packet,
    ) -> (Vec<String>, Option<Reply>) {
        let mut violations = self.advance(net);
        let reply = self.ensure(net).and_then(|()| {
            let cluster = self.cluster.as_ref().expect("cluster just ensured");
            if let std::collections::hash_map::Entry::Vacant(slot) = self.clients.entry(access) {
                slot.insert(
                    cluster.client(access).map_err(|e| {
                        format!("transport: connecting to node {access} failed: {e}")
                    })?,
                );
            }
            let client = self.clients.get_mut(&access).expect("client just ensured");
            (self.send)(client, packet)
                .map_err(|e| format!("transport: {op} {:?} via node {access}: {e}", packet.id))
        });
        let reply = reply.map_err(|e| violations.push(e)).ok();
        (violations, reply)
    }
}

impl TransportProbe for ChaosTransport {
    fn place(
        &mut self,
        net: &GredNetwork,
        access: usize,
        id: &DataId,
        payload: &[u8],
        expected: ServerId,
    ) -> Vec<String> {
        let packet = Packet::placement(id.clone(), payload.to_vec());
        let (mut violations, reply) = self.call(net, access, "place", &packet);
        match reply.map(|reply| reply.ack_server()) {
            None => {}
            Some(Some(server)) if server == expected => {}
            Some(Some(server)) => violations.push(format!(
                "transport: place {id:?} acked by {server} but the \
                 in-process model stored on {expected}"
            )),
            Some(None) => violations.push(format!(
                "transport: place {id:?} ack payload is not a server identity"
            )),
        }
        violations
    }

    fn retrieve(
        &mut self,
        net: &GredNetwork,
        access: usize,
        id: &DataId,
        expected_payload: &[u8],
    ) -> Vec<String> {
        let (mut violations, reply) =
            self.call(net, access, "retrieve", &Packet::retrieval(id.clone()));
        match reply {
            Some(reply) if !reply.is_hit() => violations.push(format!(
                "transport: retrieve {id:?} missed over TCP but hits in-process"
            )),
            Some(reply) if reply.payload.as_ref() != expected_payload => violations.push(format!(
                "transport: retrieve {id:?} returned {} bytes that differ \
                 from the in-process payload",
                reply.payload.len()
            )),
            _ => {}
        }
        violations
    }

    fn retrieve_missing(&mut self, net: &GredNetwork, access: usize, id: &DataId) -> Vec<String> {
        let (mut violations, reply) = self.call(
            net,
            access,
            "retrieve missing",
            &Packet::retrieval(id.clone()),
        );
        if reply.is_some_and(|reply| reply.is_hit()) {
            violations.push(format!(
                "transport: never-placed {id:?} returned data over TCP"
            ));
        }
        violations
    }

    fn resync(&mut self, net: &GredNetwork) -> Vec<String> {
        // Boot eagerly, so a boot failure surfaces on the step that
        // changed the state, not on the next data op.
        if let Err(e) = self.ensure(net) {
            return vec![e];
        }
        let cluster = self.cluster.as_mut().expect("cluster just ensured");
        let mut violations = Vec::new();
        for joiner in cluster.len()..net.topology().switch_count() {
            if let Err(e) = cluster.restart_node(joiner, net) {
                violations.push(format!("transport: booting joiner {joiner} failed: {e}"));
            }
        }
        cluster.apply_planes(net);
        violations.extend(misplaced(cluster, net));
        violations
    }
}

/// Every item the model stores that the cluster does not hold on the
/// same server. The cluster may hold more: to it a model crash is a
/// leave, so it re-homes the copies the model dropped.
fn misplaced(cluster: &Cluster, net: &GredNetwork) -> Vec<String> {
    let held: HashSet<(DataId, ServerId)> = cluster
        .live_nodes()
        .flat_map(|(switch, node)| {
            let ids = node.stored_ids().into_iter();
            ids.map(move |(id, index)| (id, ServerId { switch, index }))
        })
        .collect();
    net.store()
        .all_locations()
        .into_iter()
        .filter(|(server, id)| !held.contains(&(id.clone(), *server)))
        .map(|(server, id)| {
            format!("transport: after the cut {id} is not on {server}, where the model keeps it")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_forwards_and_severs() {
        let fabric = ChaosFabric::new();
        let echo = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let real = echo.local_addr().unwrap();
        let server = thread::spawn(move || {
            for stream in echo.incoming() {
                let Ok(mut stream) = stream else { break };
                let mut buf = [0u8; 64];
                let Ok(n) = stream.read(&mut buf) else {
                    continue;
                };
                if n == 0 {
                    continue;
                }
                if &buf[..n] == b"quit" {
                    break;
                }
                let _ = stream.write_all(&buf[..n]);
            }
        });

        let proxy = {
            let rewrite = fabric.rewrite();
            rewrite(0, 1, real)
        };
        // Open: bytes round-trip through the proxy.
        let mut conn = TcpStream::connect(proxy).unwrap();
        conn.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        // Severed: the live connection dies and new dials see EOF.
        fabric.set_mode(0, 1, LinkMode::Severed);
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let died = matches!(conn.read(&mut buf), Ok(0) | Err(_));
        assert!(died, "severing must kill the in-flight connection");
        let mut fresh = TcpStream::connect(proxy).unwrap();
        fresh
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let _ = fresh.write_all(b"pong");
        assert!(
            matches!(fresh.read(&mut buf), Ok(0) | Err(_)),
            "a severed link must refuse new traffic"
        );

        // Healed: the mode is in force once `set_mode` returns, so the
        // first dial after it echoes.
        fabric.set_mode(0, 1, LinkMode::Open);
        let mut healed = TcpStream::connect(proxy).unwrap();
        healed
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        healed.write_all(b"back").unwrap();
        healed.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"back");

        let mut quit = TcpStream::connect(proxy).unwrap();
        quit.write_all(b"quit").unwrap();
        drop(quit);
        server.join().unwrap();
        fabric.shutdown();
    }

    #[test]
    fn fabric_black_hole_swallows_bytes() {
        let fabric = ChaosFabric::new();
        let echo = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let real = echo.local_addr().unwrap();
        let server = thread::spawn(move || {
            if let Ok((mut stream, _)) = echo.accept() {
                let mut buf = [0u8; 64];
                while let Ok(n) = stream.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    let _ = stream.write_all(&buf[..n]);
                }
            }
        });

        let proxy = {
            let rewrite = fabric.rewrite();
            rewrite(2, 3, real)
        };
        let mut conn = TcpStream::connect(proxy).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(150)))
            .unwrap();
        fabric.set_mode(2, 3, LinkMode::BlackHole);
        conn.write_all(b"void").unwrap();
        let mut buf = [0u8; 4];
        let got = conn.read(&mut buf);
        assert!(
            matches!(got, Err(ref e) if e.kind() == io::ErrorKind::WouldBlock
                || e.kind() == io::ErrorKind::TimedOut),
            "black-holed bytes must never come back, got {got:?}"
        );
        drop(conn);
        fabric.shutdown();
        server.join().unwrap();
    }

    #[test]
    fn chaos_run_small_smoke() {
        let outcome = run_chaos(&ChaosConfig {
            seed: 11,
            switches: 8,
            ops: 60,
            kills: 1,
            link_faults: 2,
        })
        .unwrap();
        assert!(outcome.acked_writes > 0, "workload must make progress");
        assert_eq!(
            outcome.lost_acked, 0,
            "acknowledged writes must survive one crash: {outcome}"
        );
        assert_eq!(outcome.killed.len(), 1);
        assert!(outcome.repro_line().contains("--seed 11"));
    }

    /// Replays seeds 43, 45, 47 and 49 (40 ops each, the default op mix)
    /// over a direct cluster whose data requests cross the wire through
    /// `send`. Places, retrievals, extensions and dynamics all cross the
    /// TCP path; every resync must cut the one booted cluster over.
    fn replay_harness(send: fn(&mut Client, &Packet) -> Result<Reply, ClientError>) {
        let harness = gred_testkit::Harness::new(gred_testkit::HarnessConfig {
            switches: 8,
            max_switches: 10,
        });
        let (mut extended, mut left) = (0, 0);
        for seed in [43, 45, 47, 49] {
            let mut transport = ChaosTransport {
                send,
                ..ChaosTransport::direct(ClusterConfig::default())
            };
            let ops = gred_testkit::generate(seed, 40);
            let outcome = harness.replay_probed(seed, &ops, &mut transport);
            assert!(
                outcome.failure.is_none(),
                "seed {seed}: probed run diverged: {:?}",
                outcome.failure
            );
            assert_eq!(transport.boots(), 1, "seed {seed}: a resync rebooted");
            extended += outcome.stats.extended;
            left += outcome.stats.left;
        }
        assert!(extended > 0 && left > 0, "the seeds must extend and leave");
    }

    #[test]
    fn probed_replay_matches_the_socket_cluster() {
        replay_harness(Client::request);
    }

    /// A data request as a batch frame of one: the burst API leaves
    /// per-packet `Error`/`Redirect` statuses in the reply, so collapse
    /// them into the errors the single-request path would have produced.
    fn batch_of_one(client: &mut Client, packet: &Packet) -> Result<Reply, ClientError> {
        use gred_dataplane::ResponseStatus;
        let reply = client
            .request_many(std::slice::from_ref(packet))?
            .pop()
            .expect("one reply per packet");
        match reply.status {
            ResponseStatus::Error => Err(ClientError::ServerError {
                id: packet.id.clone(),
            }),
            ResponseStatus::Redirect => Err(ClientError::Redirected {
                id: packet.id.clone(),
            }),
            _ => Ok(reply),
        }
    }

    /// The batch ≡ singles oracle: the *same* schedules, replayed with
    /// every data op crossing the batch container, must produce zero
    /// divergence from the in-process model — exactly like the
    /// single-request replay above.
    #[test]
    fn probed_replay_matches_the_batched_socket_cluster() {
        replay_harness(batch_of_one);
    }
}
