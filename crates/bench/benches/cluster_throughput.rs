//! Cluster request throughput: retrieval req/s over loopback TCP against
//! a pre-booted 16-node cluster, by concurrent client-thread count.
//!
//! Each iteration fires a fixed batch of retrievals split evenly across
//! K client threads (each with its own persistent connection to a
//! different member node), so `throughput_elements / mean_seconds` is
//! the end-to-end request rate including framing, socket hops, and the
//! full greedy multi-hop forwarding path between nodes.
//!
//! Three variants, tagged in the benchmark id (and by
//! `scripts/bench_to_json.py`):
//!
//! - **lockstep** (`16sw_{k}c`): one frame per request, write-one/
//!   read-one — the syscall-bound baseline.
//! - **pipelined** (`16sw_{k}c_pipelined`): each thread ships its whole
//!   share as one `retrieve_many` burst — chunked batch frames, one
//!   write syscall per burst, correlated demux on the way back, and
//!   batched greedy forwarding between nodes.
//! - **contention** (`4sw_8c_contention`): few switches, many clients,
//!   stressing the shared multiplexed peer links.
//! - **reactor** (`16sw_1c_reactor`): the pipelined burst again, but
//!   with 1000 idle client connections parked on the access node — the
//!   readiness reactor must keep per-connection cost at zero, so this
//!   row should match the plain pipelined one (the thread-per-
//!   connection runtime could not even hold the sockets).
//! - **zipf_hotkey** (`16sw_1c_zipf_hotkey`): lockstep retrievals drawn
//!   from a pre-sampled Zipf(s = 1.1) rank trace over the same working
//!   set — web-like skew, so a handful of hot ids dominate. The access
//!   node's read cache should absorb most remote-destined repeats; the
//!   observed hit rate is recorded as a join-able metrics line next to
//!   the timing record.
//!
//! Convert the results into `BENCH_cluster_throughput.json` with
//! `scripts/bench_to_json.py --group cluster_throughput` after a run.
//! Interpret the client-thread scaling honestly: on a single-CPU runner
//! the node workers and the client threads all share one core, so added
//! client concurrency mostly measures pipelining across blocking socket
//! waits, not parallel speedup — the pipelined variant shows what the
//! same core does once the per-request syscalls are amortized away.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gred::{GredConfig, GredNetwork};
use gred_cluster::{Client, Cluster, ClusterConfig};
use gred_hash::DataId;
use gred_net::{waxman_topology, ServerPool, WaxmanConfig};
use gred_sim::workload::ZipfPicker;

const SWITCHES: usize = 16;
const SEED: u64 = 2019;
/// Ids pre-placed before timing starts.
const IDS: usize = 120;
/// Retrievals per timed iteration (divisible by every thread count).
/// Large enough that the per-iteration `thread::scope` spawn/join cost
/// and the last-thread tail are noise next to the requests themselves.
const REQS: usize = 480;

/// Contention variant: few switches, many clients, so every node serves
/// several concurrent client connections while also answering nested
/// peer RPCs over the same multiplexed links.
const CONTENTION_SWITCHES: usize = 4;
const CONTENTION_CLIENTS: usize = 8;

fn boot(switches: usize) -> (GredNetwork, Cluster) {
    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, SEED));
    let pool = ServerPool::uniform(switches, 2, u64::MAX);
    let cfg = GredConfig {
        auto_extend: false,
        ..GredConfig::with_iterations(8).seeded(SEED)
    };
    let net = GredNetwork::build(topo, pool, cfg).expect("seeded network builds");
    let cluster = Cluster::boot(&net, ClusterConfig::default()).expect("cluster boots");
    (net, cluster)
}

/// Pre-places the bench working set so the timed section is retrieval-only.
fn seed_store(cluster: &Cluster, access: usize) {
    let mut seeder = cluster.client(access).expect("seeder connects");
    for i in 0..IDS {
        let id = DataId::new(format!("bench/{i}"));
        seeder
            .place(&id, format!("payload/{i}").into_bytes())
            .expect("seed placement succeeds");
    }
}

/// Fires `REQS` retrievals split evenly over the connections, one thread
/// per connection.
fn fire_batch(conns: &mut [Client]) {
    let clients = conns.len();
    let per_thread = REQS / clients;
    std::thread::scope(|scope| {
        for (k, conn) in conns.iter_mut().enumerate() {
            scope.spawn(move || {
                for j in 0..per_thread {
                    let id = DataId::new(format!("bench/{}", (k * per_thread + j) % IDS));
                    let reply = conn.retrieve(&id).expect("retrieval succeeds");
                    assert!(reply.is_hit(), "bench id must be stored");
                }
            });
        }
    });
}

/// Fires `REQS` retrievals as one pipelined burst per thread: batch
/// frames over the correlated channel instead of lockstep round trips.
fn fire_batch_pipelined(conns: &mut [Client]) {
    let clients = conns.len();
    let per_thread = REQS / clients;
    std::thread::scope(|scope| {
        for (k, conn) in conns.iter_mut().enumerate() {
            scope.spawn(move || {
                let ids: Vec<DataId> = (0..per_thread)
                    .map(|j| DataId::new(format!("bench/{}", (k * per_thread + j) % IDS)))
                    .collect();
                let replies = conn
                    .retrieve_many(&ids)
                    .expect("batched retrieval succeeds");
                for reply in &replies {
                    assert!(reply.is_hit(), "bench id must be stored");
                }
            });
        }
    });
}

fn bench_cluster_throughput(c: &mut Criterion) {
    let (net, cluster) = boot(SWITCHES);
    let members = net.members().to_vec();
    seed_store(&cluster, members[0]);

    let mut group = c.benchmark_group("cluster_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(REQS as u64));
    for clients in [1usize, 2, 4] {
        // Persistent connections, one per thread, all to the same access
        // node: the thread count then varies only the concurrency, not
        // the route mix, so the per-client-count numbers are comparable.
        let mut conns: Vec<Client> = (0..clients)
            .map(|_| cluster.client(members[0]).expect("bench client connects"))
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{SWITCHES}sw_{clients}c")),
            &clients,
            |b, _| b.iter(|| fire_batch(&mut conns)),
        );
    }
    // Pipelined variant: same cluster, same working set, same thread
    // counts — only the transport changes, so the per-variant rows are
    // directly comparable.
    for clients in [1usize, 2, 4] {
        let mut conns: Vec<Client> = (0..clients)
            .map(|_| cluster.client(members[0]).expect("bench client connects"))
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{SWITCHES}sw_{clients}c_pipelined")),
            &clients,
            |b, _| b.iter(|| fire_batch_pipelined(&mut conns)),
        );
    }
    group.finish();
    let report = cluster.shutdown();
    println!("cluster_throughput hot stats: {}", report.hot_stats());
}

/// Contention-heavy variant: 8 client threads hammer a 4-node cluster,
/// so every node multiplexes several clients plus its own forwards over
/// the same links. The old one-connection-per-peer design collapsed here
/// (every busy link cost a fresh TCP handshake); the multiplexed links
/// must absorb it without a single reconnect.
fn bench_cluster_contention(c: &mut Criterion) {
    let (net, cluster) = boot(CONTENTION_SWITCHES);
    let members = net.members().to_vec();
    seed_store(&cluster, members[0]);

    let mut group = c.benchmark_group("cluster_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(REQS as u64));
    let mut conns: Vec<Client> = (0..CONTENTION_CLIENTS)
        .map(|k| {
            cluster
                .client(members[k % members.len()])
                .expect("bench client connects")
        })
        .collect();
    group.bench_with_input(
        BenchmarkId::from_parameter(format!(
            "{CONTENTION_SWITCHES}sw_{CONTENTION_CLIENTS}c_contention"
        )),
        &CONTENTION_CLIENTS,
        |b, _| b.iter(|| fire_batch(&mut conns)),
    );
    group.finish();
    let report = cluster.shutdown();
    let hot = report.hot_stats();
    println!("cluster_contention hot stats: {hot}");
    assert_eq!(
        hot.link_reconnects, 0,
        "contention must be absorbed by the multiplexed links"
    );
}

/// Reactor variant: the single-client pipelined burst with 1000 idle
/// client connections parked on the same access node. Idle sockets are
/// pure epoll registrations — no threads, no wakeups — so this row must
/// match the plain `16sw_1c_pipelined` one; a gap means per-connection
/// cost crept back into the runtime.
const PARKED_CONNS: usize = 1000;

fn bench_cluster_reactor(c: &mut Criterion) {
    let (net, cluster) = boot(SWITCHES);
    let members = net.members().to_vec();
    seed_store(&cluster, members[0]);

    let _parked: Vec<Client> = (0..PARKED_CONNS)
        .map(|i| {
            cluster
                .client(members[0])
                .unwrap_or_else(|e| panic!("parked client {i} connects: {e:?}"))
        })
        .collect();

    let mut group = c.benchmark_group("cluster_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(REQS as u64));
    let mut conns: Vec<Client> = vec![cluster.client(members[0]).expect("bench client connects")];
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("{SWITCHES}sw_1c_reactor")),
        &1usize,
        |b, _| b.iter(|| fire_batch_pipelined(&mut conns)),
    );
    group.finish();
    drop(_parked);
    let report = cluster.shutdown();
    println!("cluster_reactor hot stats: {}", report.hot_stats());
}

/// Zipf exponent for the hot-key variant: web-like skew (s ≥ 0.9), so
/// the top handful of ranks dominate the trace.
const ZIPF_S: f64 = 1.1;

/// Hot-key variant: lockstep retrievals following a pre-sampled
/// Zipf-skewed rank trace, the access pattern GRED's Section VI
/// replication targets. Repeats of a remote-destined hot id should be
/// absorbed by the access node's read cache (zero forwarding, zero
/// dispatch-pool handoff), so this row should beat the uniform lockstep
/// one; the hit rate observed over the whole run is recorded as a
/// join-able metrics line for `bench_to_json.py`.
fn bench_cluster_zipf_hotkey(c: &mut Criterion) {
    let (net, cluster) = boot(SWITCHES);
    let members = net.members().to_vec();
    seed_store(&cluster, members[0]);

    // Pre-drawn trace: sampling happens outside the timed loop, so the
    // iterations measure serving skewed traffic, not drawing it.
    let mut picker = ZipfPicker::new(IDS, ZIPF_S, SEED);
    let trace: Vec<DataId> = (0..REQS)
        .map(|_| DataId::new(format!("bench/{}", picker.pick())))
        .collect();

    let bench_id = format!("{SWITCHES}sw_1c_zipf_hotkey");
    let mut group = c.benchmark_group("cluster_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(REQS as u64));
    let mut conn = cluster.client(members[0]).expect("bench client connects");
    group.bench_with_input(BenchmarkId::from_parameter(&bench_id), &1usize, |b, _| {
        b.iter(|| {
            for id in &trace {
                let reply = conn.retrieve(id).expect("retrieval succeeds");
                assert!(reply.is_hit(), "bench id must be stored");
            }
        })
    });
    group.finish();
    let report = cluster.shutdown();
    let hot = report.hot_stats();
    println!("cluster_zipf_hotkey hot stats: {hot}");
    let probes = hot.cache_hits + hot.cache_misses;
    if probes > 0 {
        criterion::record_metrics(
            "cluster_throughput",
            &bench_id,
            &[
                ("cache_hit_rate", hot.cache_hits as f64 / probes as f64),
                ("cache_hits", hot.cache_hits as f64),
                ("cache_misses", hot.cache_misses as f64),
            ],
        );
    }
}

criterion_group!(
    benches,
    bench_cluster_throughput,
    bench_cluster_contention,
    bench_cluster_reactor,
    bench_cluster_zipf_hotkey
);
criterion_main!(benches);
