//! The three serving workloads: a 16-node loopback cluster driven at
//! saturation by a closed loop of batched calls.
//!
//! Closed loop, because on a small shared VM anything that leaves CPUs
//! idle does not repeat (see the README): one generator thread per
//! client connection, one pipelined call of 128 operations in flight on
//! each. The cluster's nodes run in this process and talk over loopback
//! TCP; the whole process is confined to one CPU
//! (`host::confine_to_one_cpu`), which any of these loads saturates.

use crate::gen::{self, Zipf};
use crate::host;
use crate::layers::{self, Layers};
use crate::metrics::Metrics;
use crate::paper;
use crate::stats;
use crate::trace::{Tracer, NONE};
use crate::{Outcome, RunArgs};
use bytes::Bytes;
use gred::{BuildReport, GredConfig, GredNetwork};
use gred_cluster::{Client, Cluster, ClusterConfig, Reply};
use gred_dataplane::StatsSnapshot;
use gred_hash::DataId;
use gred_net::{waxman_topology, ServerPool, WaxmanConfig};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SWITCHES: usize = 16;
/// The network is part of the workload's definition, not of its seeded
/// input: one topology and embedding for every run, so that runs with
/// different seeds measure the same system on different request streams.
const TOPOLOGY_SEED: u64 = 2019;
/// Operations per call — the depth each connection keeps in flight.
const CALL_OPS: usize = 128;
/// Untimed full-load run-in: caches fill and dispatch pools grow for
/// several seconds. What is left of the ramp lands in the slower
/// windows, which are set aside anyway.
const WARMUP: Duration = Duration::from_secs(6);
const WINDOW: Duration = Duration::from_secs(1);
/// Windows of the traced run that record a span per call.
const TRACED_WINDOWS: usize = 4;
/// Set-ups per untraced run; `setup_s` is their median. More do not
/// steady it: 40 a run left the run-to-run spread where 7 did (≈ 20 %),
/// because a process's set-ups are slow or fast together.
const SETUP_REPS: usize = 7;
/// The depth-1 traced pass stops at whichever comes first.
const LOCKSTEP_REQUESTS: usize = 2_000;
const LOCKSTEP_BUDGET: Duration = Duration::from_secs(4);
/// Writer id of the preloaded payloads; connection `k` writes as `k + 1`.
const PRELOAD_WRITER: u32 = 0;
/// A connection whose calls keep failing at the transport stops early
/// instead of spinning through its retry budget for the whole run.
const MAX_TRANSPORT_ERRORS: usize = 3;

/// What distinguishes one serving workload from another.
pub struct Spec {
    pub name: &'static str,
    keys: usize,
    payload_len: usize,
    /// Zipf exponent of the key popularity; `None` is uniform.
    skew: Option<f64>,
    /// Leading writes of every call; the rest are reads.
    writes_per_call: usize,
    /// Generator threads, one pipelined connection each, entering at
    /// access switches spread over the members. On the one CPU the run
    /// is confined to, one call in flight already keeps it busy
    /// (utilisation 1.00 at every count tried), and more connections are
    /// only more threads taking turns: `read_hot` served 340k / 285k /
    /// 285k req/s at 2 / 4 / 8, `mixed_rw` 12.1k / 11.7k / 10.5k op/s at
    /// 4 / 8 / 16. Two, so that calls overlap; four where writers must
    /// race readers on other connections.
    connections: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "read_forward",
        keys: 65_536,
        payload_len: 1024,
        skew: None,
        writes_per_call: 0,
        connections: 2,
    },
    Spec {
        name: "read_hot",
        keys: 4_096,
        payload_len: 256,
        skew: Some(1.1),
        writes_per_call: 0,
        connections: 2,
    },
    Spec {
        name: "mixed_rw",
        keys: 4_096,
        payload_len: 256,
        skew: Some(1.1),
        writes_per_call: 25,
        connections: 4,
    },
];

/// A booted cluster with the workload's keys preloaded.
struct Deployment {
    net: GredNetwork,
    cluster: Cluster,
    keys: Vec<DataId>,
    /// The access switches the connections enter at.
    access: Vec<usize>,
    build: BuildReport,
    boot: Duration,
}

/// Topology, control-plane build, preload and cluster boot — everything
/// before the first request can be sent.
fn deploy(spec: &Spec) -> Deployment {
    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(SWITCHES, TOPOLOGY_SEED));
    let pool = ServerPool::uniform(SWITCHES, 2, u64::MAX);
    let config = GredConfig {
        auto_extend: false,
        ..GredConfig::with_iterations(8).seeded(TOPOLOGY_SEED)
    };
    let (mut net, build) =
        GredNetwork::build_reported(topo, pool, config).expect("the seeded network builds");
    let members = net.members().to_vec();
    let keys: Vec<DataId> = (0..spec.keys).map(|i| gen::key_id(spec.name, i)).collect();
    for (i, id) in keys.iter().enumerate() {
        let payload = gen::payload(i as u32, PRELOAD_WRITER, 0, spec.payload_len);
        net.place(id, payload, members[i % members.len()])
            .expect("preload placement succeeds");
    }
    let boot_start = Instant::now();
    let cluster = Cluster::boot(&net, ClusterConfig::default()).expect("the cluster boots");
    let boot = boot_start.elapsed();
    Deployment {
        net,
        cluster,
        keys,
        access: (0..spec.connections)
            .map(|k| members[k * members.len() / spec.connections])
            .collect(),
        build,
        boot,
    }
}

/// One generator's connection and the state its checks need.
struct Conn {
    client: Client,
    rng: StdRng,
    /// This connection's writer id; it alone writes keys with
    /// `key % connections == writer - 1`, so it knows their history.
    writer: u32,
    /// Last version this connection saw acknowledged, per key.
    acked: Vec<u32>,
    log: Vec<Call>,
    tracer: Tracer,
    ops: u64,
    writes: u64,
    failed: u64,
    /// Reads of this connection's own keys that returned a version
    /// older than its last acknowledged write. Counted apart from
    /// `failed`: see `check_read`.
    stale: u64,
    problems: Vec<String>,
    transport_errors: usize,
}

/// One completed call.
struct Call {
    /// Completion time, nanoseconds since the run's epoch.
    end: u64,
    latency_ms: f64,
    ok: u32,
}

struct Workload<'a> {
    spec: &'a Spec,
    keys: &'a [DataId],
    popularity: Option<Zipf>,
}

impl Workload<'_> {
    fn next_key(&self, rng: &mut StdRng) -> usize {
        match &self.popularity {
            Some(zipf) => zipf.sample(rng),
            None => rng.gen_range(0..self.keys.len()),
        }
    }
}

impl Conn {
    fn problem(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(what);
        }
    }

    /// A key this connection owns, near the sampled `key`, not yet in
    /// `taken`: writes of one call go to distinct keys so their order
    /// inside the batch cannot matter.
    fn own_key(&self, key: usize, w: &Workload, taken: &[usize]) -> usize {
        let (keys, lanes) = (w.keys.len(), w.spec.connections);
        let lane = self.writer as usize - 1;
        let mut k = (key - key % lanes + lane) % keys;
        while taken.contains(&k) {
            k = (k + lanes) % keys;
        }
        k
    }

    fn check_write(&mut self, key: usize, version: u32, reply: &Reply) -> bool {
        if reply.is_clean() {
            self.acked[key] = version;
            true
        } else {
            self.problem(format!("write of key {key} answered {:?}", reply.status));
            false
        }
    }

    /// A read must return a whole, clean payload of the key asked for,
    /// written by someone who writes that key; anything else is a failed
    /// operation.
    ///
    /// On a key this connection writes, the payload should also be no
    /// older than its last acknowledged write. The parent commit breaks
    /// that about once per million operations under this very load: a
    /// peer that was already invalidated relays a read through a peer
    /// that was not yet, and re-caches the old value. A benchmark's
    /// workloads may not fail on the code they are defined against, so
    /// such reads are counted as `stale` and reported, not failed.
    fn check_read(&mut self, w: &Workload, key: usize, reply: &Reply) -> bool {
        let seen = reply
            .is_clean()
            .then(|| gen::check_payload(&reply.payload, key as u32, w.spec.payload_len))
            .flatten();
        let owner = if w.spec.writes_per_call > 0 {
            (key % w.spec.connections) as u32 + 1
        } else {
            PRELOAD_WRITER
        };
        match seen {
            Some((writer, version)) if writer == owner || writer == PRELOAD_WRITER => {
                if owner == self.writer && version < self.acked[key] {
                    self.stale += 1;
                    if self.problems.len() < 5 {
                        self.problems.push(format!(
                            "stale read of key {key}: version {version}, acknowledged {}",
                            self.acked[key]
                        ));
                    }
                }
                true
            }
            _ => {
                self.problem(format!(
                    "read of key {key} answered {:?} carrying {seen:?}",
                    reply.status
                ));
                false
            }
        }
    }

    /// One closed-loop call: the leading writes as one `place_many`,
    /// then the reads as one `retrieve_many`. Returns the operations
    /// that completed correctly.
    fn call(&mut self, w: &Workload) -> u32 {
        let mut write_keys = Vec::with_capacity(w.spec.writes_per_call);
        let mut items = Vec::with_capacity(w.spec.writes_per_call);
        for _ in 0..w.spec.writes_per_call {
            let sampled = w.next_key(&mut self.rng);
            let key = self.own_key(sampled, w, &write_keys);
            let version = self.acked[key] + 1;
            let payload = gen::payload(key as u32, self.writer, version, w.spec.payload_len);
            write_keys.push(key);
            items.push((w.keys[key].clone(), payload));
        }
        let read_keys: Vec<usize> = (w.spec.writes_per_call..CALL_OPS)
            .map(|_| w.next_key(&mut self.rng))
            .collect();
        let ids: Vec<DataId> = read_keys.iter().map(|&k| w.keys[k].clone()).collect();

        let mut ok = 0;
        self.ops += CALL_OPS as u64;
        self.writes += items.len() as u64;
        let outcome = self
            .client
            .place_many(&items)
            .and_then(|acks| Ok((acks, self.client.retrieve_many(&ids)?)));
        match outcome {
            Ok((acks, replies)) => {
                for (&key, ack) in write_keys.iter().zip(&acks) {
                    let version = self.acked[key] + 1;
                    ok += u32::from(self.check_write(key, version, ack));
                }
                for (&key, reply) in read_keys.iter().zip(&replies) {
                    ok += u32::from(self.check_read(w, key, reply));
                }
            }
            Err(e) => {
                self.transport_errors += 1;
                self.failed += CALL_OPS as u64 - 1;
                self.problem(format!("call failed: {e}"));
            }
        }
        ok
    }

    /// Calls back to back until `stop`, logging each; while `traced`,
    /// each call is also a span.
    fn drive(&mut self, w: &Workload, epoch: Instant, stop: &AtomicBool, traced: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) && self.transport_errors < MAX_TRANSPORT_ERRORS {
            let span = traced
                .load(Ordering::Relaxed)
                .then(|| self.tracer.open("cluster.client.call", NONE, NONE));
            let start = Instant::now();
            let ok = self.call(w);
            let end = Instant::now();
            if let Some(span) = span {
                self.tracer.close(span);
            }
            self.log.push(Call {
                end: (end - epoch).as_nanos() as u64,
                latency_ms: (end - start).as_secs_f64() * 1e3,
                ok,
            });
        }
    }
}

/// Calls that completed in `[from, to)`, as `(latencies, correct ops)`.
fn window(conns: &[Conn], from: Duration, to: Duration) -> (Vec<f64>, u64) {
    let (from, to) = (from.as_nanos() as u64, to.as_nanos() as u64);
    let mut latencies = Vec::new();
    let mut ok = 0u64;
    for call in conns.iter().flat_map(|c| &c.log) {
        if (from..to).contains(&call.end) {
            latencies.push(call.latency_ms);
            ok += u64::from(call.ok);
        }
    }
    (latencies, ok)
}

/// Cluster-wide sum of one counter.
fn total(snapshots: &[StatsSnapshot], field: impl Fn(&StatsSnapshot) -> u64) -> f64 {
    snapshots.iter().map(field).sum::<u64>() as f64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Conn {
    /// The next operation of the depth-1 pass: a write with the share
    /// writes have in a call, else a read.
    fn next_single(&mut self, w: &Workload) -> (usize, Option<(u32, Bytes)>) {
        let key = w.next_key(&mut self.rng);
        if self.rng.gen_range(0..CALL_OPS) >= w.spec.writes_per_call {
            return (key, None);
        }
        let key = self.own_key(key, w, &[]);
        let version = self.acked[key] + 1;
        let payload = gen::payload(key as u32, self.writer, version, w.spec.payload_len);
        (key, Some((version, payload)))
    }
}

/// The traced depth-1 pass on one connection: each request of the
/// workload's stream is issued lockstep through the client under a
/// `request` root span, then — once all are done, so the layers run warm
/// and undisturbed by the cluster's threads — replayed through the
/// layers' functions under a `replay` root with the same request id.
/// Returns `(hops, µs)` per request as the client saw it.
fn lockstep_pass(
    d: &Deployment,
    w: &Workload,
    conn: &mut Conn,
    layers: &mut Layers,
    t: &mut Tracer,
) -> Vec<(u16, f64)> {
    let mut seen = Vec::with_capacity(LOCKSTEP_REQUESTS);
    let mut issued = Vec::with_capacity(LOCKSTEP_REQUESTS);
    let deadline = Instant::now() + LOCKSTEP_BUDGET;
    while issued.len() < LOCKSTEP_REQUESTS && Instant::now() < deadline {
        let req = issued.len() as u32;
        let (key, write) = conn.next_single(w);
        let id = &w.keys[key];
        let root = t.open("request", NONE, req);
        let call = t.open("cluster.client.call", root, req);
        let reply = match &write {
            Some((_, payload)) => conn.client.place(id, payload.clone()),
            None => conn.client.retrieve(id),
        };
        t.close(call);
        t.close(root);
        conn.ops += 1;
        conn.writes += u64::from(write.is_some());
        match reply {
            Ok(reply) => {
                match &write {
                    Some((version, _)) => conn.check_write(key, *version, &reply),
                    None => conn.check_read(w, key, &reply),
                };
                let span = &t.spans[call as usize];
                seen.push((reply.hops, (span.end - span.start) as f64 / 1e3));
            }
            Err(e) => conn.problem(format!("lockstep request failed: {e}")),
        }
        issued.push((key, write.map(|(_, payload)| payload)));
    }
    for (req, (key, write)) in issued.into_iter().enumerate() {
        let root = t.open("replay", NONE, req as u32);
        layers.request(t, root, req as u32, d.access[0], &w.keys[key], write);
        t.close(root);
    }
    seen
}

/// Median, over requests, of the time the replayed layer spans took.
fn replayed_us(t: &Tracer) -> f64 {
    let mut per_request: Vec<f64> = Vec::new();
    for s in &t.spans {
        if s.parent != NONE && t.spans[s.parent as usize].name == "replay" {
            let req = s.req as usize;
            if per_request.len() <= req {
                per_request.resize(req + 1, 0.0);
            }
            per_request[req] += (s.end - s.start) as f64 / 1e3;
        }
    }
    stats::median(&per_request)
}

/// Depth-1 latency rows: overall, at zero hops, and the least-squares
/// cost of one more hop over the per-hop-count medians.
fn lockstep_rows(seen: &[(u16, f64)], m: &mut Metrics) {
    let mut all: Vec<f64> = seen.iter().map(|&(_, us)| us).collect();
    stats::sort(&mut all);
    m.set("cluster.lockstep_p50_us", stats::percentile(&all, 0.5));
    m.set("cluster.lockstep_p99_us", stats::percentile(&all, 0.99));
    let max_hops = seen.iter().map(|&(h, _)| h).max().unwrap_or(0);
    let mut by_hops = Vec::new();
    for hops in 0..=max_hops {
        let bucket: Vec<f64> = seen
            .iter()
            .filter(|&&(h, _)| h == hops)
            .map(|&(_, us)| us)
            .collect();
        if bucket.len() >= stats::MIN_BEYOND {
            by_hops.push((f64::from(hops), stats::median(&bucket)));
        }
    }
    let hop0 = by_hops.iter().find(|p| p.0 == 0.0).map_or(0.0, |p| p.1);
    m.set("cluster.lockstep_hop0_p50_us", hop0);
    m.set("cluster.lockstep_us_per_hop", stats::slope(&by_hops));
}

/// Runs one serving workload end to end.
pub fn run(spec: &Spec, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let m = &mut out.metrics;

    // Set-up, several times over: `setup_s` is the median.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let (d, clients) = loop {
        let start = Instant::now();
        let d = deploy(spec);
        let clients: Vec<Client> = d
            .access
            .iter()
            .map(|&s| d.cluster.client(s).expect("a generator connects"))
            .collect();
        setup_s.push(start.elapsed().as_secs_f64());
        if setup_s.len() == reps {
            break (d, clients);
        }
        drop(clients);
        d.cluster.shutdown();
    };
    m.set("setup_s", stats::median(&setup_s));

    let w = Workload {
        spec,
        keys: &d.keys,
        popularity: spec.skew.map(|s| Zipf::new(spec.keys, s)),
    };
    let mut conns: Vec<Conn> = clients
        .into_iter()
        .enumerate()
        .map(|(k, client)| Conn {
            client,
            rng: gen::rng(args.seed, k as u64 + 1),
            writer: k as u32 + 1,
            acked: vec![0; spec.keys],
            log: Vec::with_capacity(1 << 18),
            tracer: Tracer::with_capacity(1 << 16),
            ops: 0,
            writes: 0,
            failed: 0,
            stale: 0,
            problems: Vec::new(),
            transport_errors: 0,
        })
        .collect();

    // Warm-up, then the timed windows; the traced run appends windows
    // in which every call is also a span.
    let timed = args.seconds / if args.trace { 2 } else { 1 };
    let windows = (timed / WINDOW.as_secs()).max(2) as usize;
    let all_windows = windows + if args.trace { TRACED_WINDOWS } else { 0 };
    let before = d.cluster.scrape().expect("every node answers a scrape");
    let (stop, traced) = (AtomicBool::new(false), AtomicBool::new(false));
    let epoch = Instant::now();
    // Window boundaries: time since `epoch`, and process CPU seconds.
    let mut marks: Vec<(Duration, f64)> = Vec::with_capacity(all_windows + 1);
    let (mut queued_max, mut threads) = (0.0f64, 0.0);
    std::thread::scope(|scope| {
        for conn in &mut conns {
            scope.spawn(|| conn.drive(&w, epoch, &stop, &traced));
        }
        for i in 0..=all_windows {
            let due = epoch + WARMUP + WINDOW * i as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            marks.push((epoch.elapsed(), host::cpu_seconds()));
            if i == windows {
                traced.store(true, Ordering::Relaxed);
            }
            // Mid-load gauges, traced run only: the scrape itself is
            // load, and every window of that run starts with one.
            if args.trace && i < all_windows {
                threads = host::threads() - (spec.connections + 1) as f64;
                if let Ok(snapshots) = d.cluster.scrape() {
                    queued_max = queued_max
                        .max(snapshots.iter().map(|s| s.queued_bytes).max().unwrap_or(0) as f64);
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let after = d.cluster.scrape().expect("every node answers a scrape");

    // Every timing metric rests on the faster half of the timed windows
    // (see `stats::faster_half`); all windows go on record.
    let rate = |i: usize| {
        let (from, to) = (marks[i].0, marks[i + 1].0);
        window(&conns, from, to).1 as f64 / (to - from).as_secs_f64()
    };
    let rates: Vec<f64> = (0..windows).map(rate).collect();
    for (i, rate) in rates.iter().enumerate() {
        out.info.push((format!("window_{i}_rps"), *rate));
    }
    let fast = stats::faster_half(&rates);
    let fast_rates: Vec<f64> = fast.iter().map(|&i| rates[i]).collect();
    let mut latencies = Vec::new();
    let (mut fast_ok, mut cpu) = (0u64, 0.0);
    for &i in &fast {
        let (lat, ok) = window(&conns, marks[i].0, marks[i + 1].0);
        latencies.extend(lat);
        fast_ok += ok;
        cpu += marks[i + 1].1 - marks[i].1;
    }
    stats::sort(&mut latencies);
    // The ten-beyond rule for call_p90_ms: 100 calls or more.
    out.info
        .push(("calls_in_fast_windows".into(), latencies.len() as f64));
    if stats::highest_supported_percentile(latencies.len()).unwrap_or(0.0) < 0.9 {
        eprintln!(
            "{}: only {} calls in the fast windows, too few for call_p90_ms",
            spec.name,
            latencies.len()
        );
    }
    m.set("throughput_rps", stats::median(&fast_rates));
    m.set("call_p50_ms", stats::percentile(&latencies, 0.5));
    m.set("call_p90_ms", stats::percentile(&latencies, 0.9));
    m.set("cpu_us_per_req", cpu * 1e6 / fast_ok.max(1) as f64);

    // The paper's metrics, on the network the cluster served.
    let routes = paper::route_sample(&d.net, args.seed);
    m.set("stretch_mean", routes.stretch_mean);
    m.set(
        "load_max_over_avg",
        paper::load_max_over_avg(&d.net, args.seed),
    );

    // Fault-free gate: none of these may move during a healthy run.
    let delta = |field: fn(&StatsSnapshot) -> u64| total(&after, field) - total(&before, field);
    for (name, moved) in [
        ("errors", delta(|s| s.errors)),
        ("link_reconnects", delta(|s| s.hot.link_reconnects)),
        ("peers_suspected", delta(|s| s.hot.peers_suspected)),
        ("redirects_issued", delta(|s| s.hot.redirects_issued)),
    ] {
        out.attempted += 1;
        if moved != 0.0 {
            out.failed += 1;
            out.problems
                .push(format!("{name} moved by {moved} in a fault-free run"));
        }
    }

    // Not gated, but they explain a slow run: emergency connects and
    // the size the dispatch pools grew to.
    out.info.push((
        "oneshot_fallbacks".into(),
        delta(|s| s.hot.oneshot_fallbacks),
    ));
    out.info.push((
        "dispatch_workers".into(),
        total(&after, |s| u64::from(s.dispatch_workers)),
    ));

    if args.trace {
        let ops: f64 = conns.iter().map(|c| c.ops as f64).sum();
        let writes: f64 = conns.iter().map(|c| c.writes as f64).sum();
        let per_op = |moved: f64| moved / ops.max(1.0);
        let hits = delta(|s| s.hot.cache_hits);
        let misses = delta(|s| s.hot.cache_misses);
        m.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
        m.set(
            "cache.evictions_per_req",
            per_op(delta(|s| s.hot.cache_evictions)),
        );
        m.set(
            "cache.invalidations_per_write",
            delta(|s| s.hot.invalidations_rx) / writes.max(1.0),
        );
        m.set(
            "runtime.shard_contention_per_mreq",
            per_op(delta(|s| s.hot.store_shard_contention)) * 1e6,
        );
        m.set("runtime.queued_bytes_max", queued_max);
        m.set("cluster.forwards_per_req", per_op(delta(|s| s.forwarded)));
        m.set("cluster.relays_per_req", per_op(delta(|s| s.relayed)));
        m.set(
            "cluster.frames_per_req",
            per_op(delta(|s| s.hot.frames_decoded)),
        );
        m.set("cluster.threads", threads);
        m.set("cluster.boot_ms", ms(d.boot));
        crate::build_rows(&d.build, m);
        let tables = d.net.table_stats();
        m.set("dataplane.entries_p50", tables.p50 as f64);
        m.set("dataplane.entries_max", tables.max as f64);
        m.set("core.route_hops_mean", routes.hops_mean);

        m.set("cluster.call_p99_ms", stats::percentile(&latencies, 0.99));
        let traced_rates: Vec<f64> = (windows..all_windows).map(rate).collect();
        m.set(
            "bench.trace_overhead_share",
            1.0 - stats::median(&traced_rates) / stats::median(&rates),
        );

        let mut t = Tracer::with_capacity(1 << 18);
        let mut layers = Layers::new(&d.net, &d.keys, spec.payload_len, spec.keys / SWITCHES);
        let seen = lockstep_pass(&d, &w, &mut conns[0], &mut layers, &mut t);
        lockstep_rows(&seen, m);
        m.set(
            "cluster.unattributed_us",
            m.get("cluster.lockstep_p50_us").unwrap_or(0.0) - replayed_us(&t),
        );
        layers.micro(&mut t, &d.keys);
        for conn in &mut conns {
            t.absorb(std::mem::replace(
                &mut conn.tracer,
                Tracer::with_capacity(0),
            ));
        }
        layers::report(&t, m);
        crate::write_trace(&t, spec.name);
    }

    let mut stale = 0;
    for conn in conns {
        out.attempted += conn.ops;
        out.failed += conn.failed;
        stale += conn.stale;
        out.problems.extend(conn.problems);
    }
    out.info.push(("stale_reads".into(), stale as f64));
    m.set(
        "cache.stale_reads_per_mreq",
        stale as f64 * 1e6 / out.attempted.max(1) as f64,
    );
    out.attempted += 1;
    let report = d.cluster.shutdown();
    if report.total_errors() != 0 {
        out.failed += 1;
        out.problems.push(format!(
            "nodes reported {} errors at shutdown",
            report.total_errors()
        ));
    }
    out
}
