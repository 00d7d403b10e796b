//! Loopback cluster integration test (the tentpole's acceptance bar).
//!
//! Boots a 16-switch GRED network as 16 real TCP nodes, places 200 ids
//! through rotating access switches, retrieves all 200 from a client
//! attached to one deterministically chosen node, and checks the remote
//! observations against an identical in-process twin network:
//!
//! - every placement ack names exactly the server the twin's
//!   `place()` stores on,
//! - every reply's in-band hop count equals the twin route's
//!   `physical_hops()`,
//! - after the workload, every switch's `packets_processed` counter
//!   matches the twin's — the TCP path exercised the data plane
//!   *exactly* as the in-process walk does, packet for packet,
//! - graceful shutdown joins every worker and loses nothing.

use gred::{GredConfig, GredNetwork};
use gred_cluster::{Cluster, ClusterConfig, ClusterHealth};
use gred_hash::DataId;
use gred_net::{waxman_topology, ServerPool, WaxmanConfig};
use std::collections::HashMap;

const SEED: u64 = 2019;
const SWITCHES: usize = 16;
const OPS: usize = 200;

fn build_network() -> GredNetwork {
    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(SWITCHES, SEED));
    let pool = ServerPool::uniform(SWITCHES, 2, u64::MAX);
    let cfg = GredConfig {
        auto_extend: false,
        ..GredConfig::with_iterations(8).seeded(SEED)
    };
    GredNetwork::build(topo, pool, cfg).expect("seeded network builds")
}

/// Deterministic access-switch sequence (no RNG state shared with the
/// network build).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[test]
fn loopback_cluster_matches_the_in_process_data_plane() {
    // `net` boots the cluster; `twin` is an identical build that walks
    // every request in-process for comparison. Both are deterministic
    // functions of SEED.
    let net = build_network();
    let mut twin = build_network();
    for plane in twin.dataplanes() {
        plane.reset_counters();
    }

    let cluster = Cluster::boot(&net, ClusterConfig::default()).expect("cluster boots");
    assert_eq!(cluster.len(), SWITCHES);
    let members = net.members().to_vec();
    assert!(members.len() > 1, "seeded build keeps several DT members");

    let mut lcg = Lcg(SEED);
    let mut clients: HashMap<usize, gred_cluster::Client> = HashMap::new();

    // Place OPS ids through rotating access members.
    for i in 0..OPS {
        let id = DataId::new(format!("loopback/{i}"));
        let payload = format!("payload/{SEED}/{i}");
        let access = members[lcg.next() as usize % members.len()];
        let client = match clients.entry(access) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(cluster.client(access).expect("client connects"))
            }
        };

        let reply = client
            .place(&id, payload.clone().into_bytes())
            .unwrap_or_else(|e| panic!("place {i} via {access} failed: {e}"));
        let receipt = twin
            .place(&id, payload.into_bytes(), access)
            .expect("twin placement succeeds");

        assert!(reply.is_hit(), "place {i} not acked");
        assert_eq!(
            reply.ack_server(),
            Some(receipt.server),
            "place {i}: TCP ack and in-process receipt disagree on the server"
        );
        assert_eq!(
            u32::from(reply.hops),
            receipt.route.physical_hops(),
            "place {i}: TCP hop count diverges from the in-process route"
        );
    }

    // Retrieve all OPS ids from a client attached to one (seeded-random)
    // member node.
    let retrieval_access = members[lcg.next() as usize % members.len()];
    let mut reader = cluster
        .client(retrieval_access)
        .expect("retrieval client connects");
    for i in 0..OPS {
        let id = DataId::new(format!("loopback/{i}"));
        let reply = reader
            .retrieve(&id)
            .unwrap_or_else(|e| panic!("retrieve {i} via {retrieval_access} failed: {e}"));
        let expected = twin
            .retrieve(&id, retrieval_access)
            .expect("twin retrieval hits");

        assert!(reply.is_hit(), "retrieve {i}: lost over TCP");
        assert_eq!(
            reply.payload.as_ref(),
            expected.payload.as_ref(),
            "retrieve {i}: payload corrupted in transit"
        );
        assert_eq!(
            u32::from(reply.hops),
            expected.route.physical_hops(),
            "retrieve {i}: TCP hop count diverges from the in-process route"
        );
    }

    // The TCP path drove every switch's pipeline exactly as the twin's
    // in-process walk did: same decisions, same relays, per switch.
    for switch in 0..SWITCHES {
        assert_eq!(
            cluster.node(switch).packets_processed(),
            twin.dataplanes()[switch].packets_processed(),
            "switch {switch}: packets_processed diverges from the twin"
        );
    }

    // Graceful shutdown: every worker joins, nothing was lost.
    drop(clients);
    drop(reader);
    let report = cluster.shutdown();
    assert_eq!(report.total_errors(), 0, "zero lost requests required");
    assert_eq!(
        report.stored_items(),
        OPS,
        "every placed id is stored exactly once"
    );
    assert!(
        !report.nodes.is_empty(),
        "shutdown must join the connection workers"
    );
    assert_eq!(
        report.total_requests(),
        report.nodes.iter().map(|n| n.requests).sum::<u64>()
    );
}

/// Batched parity: the same 200-op workload shipped as pipelined batch
/// frames (bursts of `place_many`/`retrieve_many`) must drive the data
/// plane *identically* to sending every packet singly — same ack
/// servers, same hop counts, same per-switch `packets_processed` as the
/// in-process twin that walks each request one at a time. This is the
/// batch ≡ singles acceptance bar for the batched transport.
#[test]
fn pipelined_batches_match_the_in_process_data_plane() {
    const BURST: usize = 25;

    let net = build_network();
    let mut twin = build_network();
    for plane in twin.dataplanes() {
        plane.reset_counters();
    }

    let cluster = Cluster::boot(&net, ClusterConfig::default()).expect("cluster boots");
    let members = net.members().to_vec();
    let mut lcg = Lcg(SEED);
    let mut clients: HashMap<usize, gred_cluster::Client> = HashMap::new();

    // Place OPS ids in bursts of BURST, each burst entering through one
    // rotating access member; the twin places the same ids singly from
    // the same access node.
    for burst in 0..OPS / BURST {
        let access = members[lcg.next() as usize % members.len()];
        let items: Vec<(gred_hash::DataId, bytes::Bytes)> = (0..BURST)
            .map(|j| {
                let i = burst * BURST + j;
                (
                    DataId::new(format!("batched/{i}")),
                    bytes::Bytes::from(format!("payload/{SEED}/{i}")),
                )
            })
            .collect();
        let client = clients
            .entry(access)
            .or_insert_with(|| cluster.client(access).expect("client connects"));
        let replies = client
            .place_many(&items)
            .unwrap_or_else(|e| panic!("burst {burst} via {access} failed: {e}"));
        assert_eq!(replies.len(), items.len());
        for (j, ((id, payload), reply)) in items.iter().zip(&replies).enumerate() {
            let receipt = twin
                .place(id, payload.to_vec(), access)
                .expect("twin placement succeeds");
            assert!(reply.is_hit(), "burst {burst} item {j} not acked");
            assert_eq!(
                reply.ack_server(),
                Some(receipt.server),
                "burst {burst} item {j}: batched ack disagrees with the twin's server"
            );
            assert_eq!(
                u32::from(reply.hops),
                receipt.route.physical_hops(),
                "burst {burst} item {j}: batched hop count diverges from the twin"
            );
        }
    }

    // Retrieve all OPS ids as one big pipelined burst (several chunks
    // deep) from a single seeded-random access member.
    let retrieval_access = members[lcg.next() as usize % members.len()];
    let mut reader = cluster
        .client(retrieval_access)
        .expect("retrieval client connects");
    let ids: Vec<gred_hash::DataId> = (0..OPS)
        .map(|i| DataId::new(format!("batched/{i}")))
        .collect();
    let replies = reader
        .retrieve_many(&ids)
        .unwrap_or_else(|e| panic!("batched retrieval via {retrieval_access} failed: {e}"));
    assert_eq!(replies.len(), OPS);
    for (i, (id, reply)) in ids.iter().zip(&replies).enumerate() {
        let expected = twin
            .retrieve(id, retrieval_access)
            .expect("twin retrieval hits");
        assert!(reply.is_hit(), "batched retrieve {i}: lost over TCP");
        assert_eq!(
            reply.payload.as_ref(),
            expected.payload.as_ref(),
            "batched retrieve {i}: payload corrupted in transit"
        );
        assert_eq!(
            u32::from(reply.hops),
            expected.route.physical_hops(),
            "batched retrieve {i}: hop count diverges from the twin"
        );
    }

    // Batch ≡ singles down to the per-switch packet counters: grouping
    // packets into frames and peer RPCs must not add, drop, or reroute
    // a single pipeline decision.
    for switch in 0..SWITCHES {
        assert_eq!(
            cluster.node(switch).packets_processed(),
            twin.dataplanes()[switch].packets_processed(),
            "switch {switch}: batched packets_processed diverges from the twin"
        );
    }

    drop(clients);
    drop(reader);
    let report = cluster.shutdown();
    assert_eq!(report.total_errors(), 0, "zero lost requests required");
    assert_eq!(
        report.stored_items(),
        OPS,
        "every placed id is stored exactly once"
    );
}

/// Contention variant: 8 client threads hammer a 4-switch cluster at
/// once, so every node serves several concurrent client connections
/// while answering nested peer RPCs over the same multiplexed links.
///
/// Under the old one-connection-per-peer design a busy link forced an
/// emergency one-shot TCP connection per overlapping request; the
/// multiplexed links must absorb the whole burst — the test asserts the
/// `oneshot_fallbacks` counter stayed at zero — without corrupting a
/// single payload.
#[test]
fn concurrent_clients_share_multiplexed_links_without_fallbacks() {
    const CONTENTION_SWITCHES: usize = 4;
    const CLIENT_THREADS: usize = 8;
    const OPS_PER_THREAD: usize = 25;

    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(CONTENTION_SWITCHES, SEED));
    let pool = ServerPool::uniform(CONTENTION_SWITCHES, 2, u64::MAX);
    let cfg = GredConfig {
        auto_extend: false,
        ..GredConfig::with_iterations(8).seeded(SEED)
    };
    let net = GredNetwork::build(topo, pool, cfg).expect("seeded network builds");
    let cluster = Cluster::boot(&net, ClusterConfig::default()).expect("cluster boots");
    let members = net.members().to_vec();

    // Every thread places its own ids through its own access node, then
    // reads back every one of them and checks payload parity.
    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS {
            let access = members[t % members.len()];
            let cluster = &cluster;
            scope.spawn(move || {
                let mut client = cluster.client(access).expect("client connects");
                for i in 0..OPS_PER_THREAD {
                    let id = DataId::new(format!("contention/{t}/{i}"));
                    let payload = format!("payload/{t}/{i}");
                    let reply = client
                        .place(&id, payload.clone().into_bytes())
                        .unwrap_or_else(|e| panic!("thread {t} place {i} failed: {e}"));
                    assert!(reply.is_hit(), "thread {t} place {i} not acked");
                }
                for i in 0..OPS_PER_THREAD {
                    let id = DataId::new(format!("contention/{t}/{i}"));
                    let reply = client
                        .retrieve(&id)
                        .unwrap_or_else(|e| panic!("thread {t} retrieve {i} failed: {e}"));
                    assert!(reply.is_hit(), "thread {t} retrieve {i}: lost");
                    assert_eq!(
                        reply.payload.as_ref(),
                        format!("payload/{t}/{i}").as_bytes(),
                        "thread {t} retrieve {i}: payload corrupted under contention"
                    );
                }
            });
        }
    });

    let report = cluster.shutdown();
    assert_eq!(report.total_errors(), 0, "zero lost requests required");
    assert_eq!(
        report.stored_items(),
        CLIENT_THREADS * OPS_PER_THREAD,
        "every placed id is stored exactly once"
    );
    let hot = report.hot_stats();
    assert_eq!(
        hot.oneshot_fallbacks, 0,
        "the multiplexed links must absorb the burst without emergency \
         one-shot connections; got {hot}"
    );
    assert_eq!(
        hot.link_reconnects, 0,
        "no link should have failed during a healthy run; got {hot}"
    );
    assert!(
        hot.frames_decoded > 0,
        "hot-path counters must be live; got {hot}"
    );
}

/// Stats-scrape parity: after the standard 200-op workload, each node's
/// wire-scraped `StatsSnapshot` must be *identical* to the in-process
/// twin read from the same node object — field for field, including the
/// full `NodeHotStats` block and the per-link counters. The scrape
/// itself must not perturb what it measures: `Stats` frames are served
/// inline on the reactor, before the request counter, on a fresh
/// connection whose first response reuses no encode scratch.
#[test]
fn wire_scraped_stats_match_the_in_process_twin() {
    let net = build_network();
    let cluster = Cluster::boot(&net, ClusterConfig::default()).expect("cluster boots");
    let members = net.members().to_vec();

    let mut lcg = Lcg(SEED);
    let mut clients: HashMap<usize, gred_cluster::Client> = HashMap::new();
    for i in 0..OPS {
        let id = DataId::new(format!("parity/{i}"));
        let access = members[lcg.next() as usize % members.len()];
        let client = match clients.entry(access) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(cluster.client(access).expect("client connects"))
            }
        };
        client
            .place(&id, format!("payload/{i}").into_bytes())
            .unwrap_or_else(|e| panic!("place {i} failed: {e}"));
        client
            .retrieve(&id)
            .unwrap_or_else(|e| panic!("retrieve {i} failed: {e}"));
    }

    // Workload clients stay connected so the connection gauge cannot
    // move between the wire scrape and the in-process read.
    for switch in 0..cluster.len() {
        let mut scraper = cluster.client(switch).expect("scrape client connects");
        let wire = scraper.scrape().expect("node answers the scrape");
        let twin = cluster.node(switch).stats_snapshot();

        assert_eq!(wire.switch, switch as u32);
        assert_eq!(
            wire.hot, twin.hot,
            "node {switch}: wire hot-path counters diverge from the twin"
        );
        assert_eq!(
            (
                wire.requests,
                wire.forwarded,
                wire.relayed,
                wire.delivered,
                wire.errors
            ),
            (
                twin.requests,
                twin.forwarded,
                twin.relayed,
                twin.delivered,
                twin.errors
            ),
            "node {switch}: routing counters diverge"
        );
        assert_eq!(
            (wire.stored_items, wire.table_rows),
            (twin.stored_items, twin.table_rows),
            "node {switch}: store/table accounting diverges"
        );
        assert_eq!(
            (
                wire.open_connections,
                wire.queued_bytes,
                wire.dispatch_workers
            ),
            (
                twin.open_connections,
                twin.queued_bytes,
                twin.dispatch_workers
            ),
            "node {switch}: reactor gauges diverge"
        );
        assert_eq!(
            wire.links, twin.links,
            "node {switch}: per-link counters diverge"
        );
        assert_eq!(
            wire.queued_bytes, 0,
            "node {switch}: idle node has a write backlog"
        );
    }

    drop(clients);
    let report = cluster.shutdown();
    assert_eq!(report.total_errors(), 0);
}

/// Flash crowd: a cold key suddenly goes viral in one *region* — every
/// request enters through a few neighboring access nodes, none of them
/// the owner. The sim-layer twin (`flash_crowd_request_load` in
/// `gred-sim`) shows the raw request pile-up; here the read cache must
/// absorb it, and the proof is counters scraped **over the wire**:
///
/// - once each regional node has seen the key, the crowd converges to a
///   100% cache hit rate — zero further misses cluster-wide,
/// - a version bump of the viral key invalidates exactly the regional
///   caches that read it (`invalidations_rx` rises by exactly the region
///   size for the one clean write) and **no read ever returns the stale
///   bytes**,
/// - the crowd re-converges on the new version just as fast.
#[test]
fn flash_crowd_cache_converges_without_stale_serves() {
    const ROUNDS: usize = 25;
    const REGION: usize = 3;

    let net = build_network();
    let cluster = Cluster::boot(&net, ClusterConfig::default()).expect("cluster boots");
    let members = net.members().to_vec();

    let viral = DataId::new("flash/viral");
    let v1 = b"breaking-v1".to_vec();
    let v2 = b"breaking-v2".to_vec();

    let mut writer = cluster.client(members[0]).expect("writer connects");
    let ack = writer.place(&viral, v1.clone()).expect("viral key places");
    assert!(
        ack.is_hit() && ack.is_clean(),
        "healthy write must be clean"
    );
    let owner = ack.ack_server().expect("ack names the owner").switch;

    // Pick the region: access members (never the owner) whose read path
    // actually forwards the viral key and so probes + fills the read
    // cache. One warm read per candidate both qualifies the node and
    // leaves its cache hot — the crowd then starts from steady state.
    let mut region: Vec<(usize, gred_cluster::Client)> = Vec::new();
    for &m in members.iter().filter(|&&m| m != owner) {
        if region.len() == REGION {
            break;
        }
        let misses_before = cluster.node(m).stats_snapshot().hot.cache_misses;
        let mut client = cluster.client(m).expect("regional client connects");
        let reply = client.retrieve(&viral).expect("warm read answers");
        assert!(reply.is_hit());
        assert_eq!(reply.payload.as_ref(), &v1[..]);
        if cluster.node(m).stats_snapshot().hot.cache_misses > misses_before {
            region.push((m, client));
        }
    }
    assert_eq!(
        region.len(),
        REGION,
        "seeded topology must yield {REGION} caching access members"
    );

    let scrape = |cluster: &Cluster| cluster.scrape().expect("every node answers the scrape");

    // Phase 1 — the crowd hits warm caches: every read is a hit, zero
    // misses anywhere, and the wire-scraped counters prove it.
    let window = gred_testkit::CounterWindow::open(scrape(&cluster));
    for _ in 0..ROUNDS {
        for (m, client) in &mut region {
            let reply = client.retrieve(&viral).expect("flash read answers");
            assert!(reply.is_hit(), "flash read via {m} lost");
            assert_eq!(
                reply.payload.as_ref(),
                &v1[..],
                "flash read via {m} corrupted"
            );
        }
    }
    let crowd = scrape(&cluster);
    let reads = (ROUNDS * REGION) as u64;
    assert_eq!(
        window.delta(&crowd, |s| s.hot.cache_hits),
        reads,
        "a warm regional crowd must be absorbed entirely by the caches"
    );
    window.assert_flat(&crowd, |s| s.hot.cache_misses, "flash reads on warm caches");
    let after = ClusterHealth::aggregate(&crowd);

    // Phase 2 — the story develops: v2 overwrites the viral key. The
    // one clean write must invalidate every regional cache — the only
    // switches that read the key — and not a single subsequent read may
    // serve the stale v1 bytes.
    let ack = writer.place(&viral, v2.clone()).expect("v2 write lands");
    assert!(ack.is_hit() && ack.is_clean(), "v2 write must be clean");
    let healed = scrape(&cluster);
    assert_eq!(
        ClusterHealth::aggregate(&healed).hot.invalidations_rx - after.hot.invalidations_rx,
        REGION as u64,
        "one clean write must invalidate exactly the regional sharers"
    );

    // One refill round: every regional node misses once and re-fills —
    // but serves v2, never the stale bytes.
    let window = gred_testkit::CounterWindow::open(healed);
    for (m, client) in &mut region {
        let reply = client.retrieve(&viral).expect("refill read answers");
        assert!(reply.is_hit(), "refill read via {m} lost");
        assert_eq!(
            reply.payload.as_ref(),
            &v2[..],
            "STALE SERVE: refill via {m} returned pre-invalidation bytes"
        );
    }
    let refilled = scrape(&cluster);
    assert!(
        window.delta(&refilled, |s| s.hot.cache_misses) >= REGION as u64,
        "the invalidation must have emptied every regional cache"
    );

    // Re-converged: the crowd keeps coming and is once again absorbed
    // entirely by the caches — zero further misses, all v2.
    let window = gred_testkit::CounterWindow::open(refilled);
    for round in 0..ROUNDS {
        for (m, client) in &mut region {
            let reply = client.retrieve(&viral).expect("post-write read answers");
            assert!(reply.is_hit(), "post-write read via {m} lost");
            assert_eq!(
                reply.payload.as_ref(),
                &v2[..],
                "STALE SERVE: round {round} via {m} returned pre-invalidation bytes"
            );
        }
    }
    let after2 = scrape(&cluster);
    window.assert_flat(
        &after2,
        |s| s.hot.cache_misses,
        "one refill round must fully re-converge the caches",
    );
    assert_eq!(
        window.delta(&after2, |s| s.hot.cache_hits),
        reads,
        "the re-converged crowd is cache-absorbed again"
    );

    drop(writer);
    drop(region);
    let report = cluster.shutdown();
    assert_eq!(report.total_errors(), 0);
}

/// A scrape storm is free: eight clients hammering `Stats` against
/// every node, concurrently with a read burst, must (a) never spawn a
/// dispatch worker beyond what the warm-up already spawned — stats are
/// served inline on the reactor — (b) leave the request counter to the
/// workload alone, and (c) not perturb a single reply of the
/// simultaneous burst (same payloads, same hop counts as the calm run).
#[test]
fn scrape_storm_spawns_no_workers_and_preserves_ordering() {
    const STORM_CLIENTS: usize = 8;
    const SCRAPES_EACH: usize = 30;
    const KEYS: usize = 40;

    let net = build_network();
    let cluster = Cluster::boot(&net, ClusterConfig::default()).expect("cluster boots");
    let members = net.members().to_vec();
    let access = members[0];

    let ids: Vec<DataId> = (0..KEYS)
        .map(|i| DataId::new(format!("storm/{i}")))
        .collect();
    let mut writer = cluster.client(access).expect("client connects");
    for (i, id) in ids.iter().enumerate() {
        writer
            .place(id, format!("payload/{i}").into_bytes())
            .expect("placement succeeds");
    }

    // Warm-up pass: first reads fill the access node's cache, so every
    // later pass (calm and stormed alike) runs against the same warm
    // cache state and must behave identically.
    for id in &ids {
        assert!(writer.retrieve(id).expect("warm-up read answers").is_hit());
    }

    let total_requests = |cluster: &Cluster| -> u64 {
        (0..cluster.len())
            .map(|s| cluster.node(s).stats_snapshot().requests)
            .sum()
    };

    // Calm pass: the expected answer for every read, and the request
    // accounting one burst costs with nobody scraping.
    let calm_base = total_requests(&cluster);
    let calm: Vec<(Vec<u8>, u16)> = ids
        .iter()
        .map(|id| {
            let reply = writer.retrieve(id).expect("calm retrieval answers");
            assert!(reply.is_hit());
            (reply.payload.to_vec(), reply.hops)
        })
        .collect();
    let calm_cost = total_requests(&cluster) - calm_base;

    let workers_before: Vec<u32> = (0..cluster.len())
        .map(|s| {
            let mut c = cluster.client(s).expect("scrape client connects");
            c.scrape().expect("scrape answers").dispatch_workers
        })
        .collect();
    let requests_before = total_requests(&cluster);

    // Storm: 8 clients × every node × SCRAPES_EACH, racing a burst of
    // the same reads on the workload connection.
    std::thread::scope(|scope| {
        for _ in 0..STORM_CLIENTS {
            let cluster = &cluster;
            scope.spawn(move || {
                for s in 0..cluster.len() {
                    let mut c = cluster.client(s).expect("storm client connects");
                    for _ in 0..SCRAPES_EACH / cluster.len() {
                        let snap = c.scrape().expect("storm scrape answers");
                        assert_eq!(snap.switch, s as u32);
                    }
                }
            });
        }
        for (id, (payload, hops)) in ids.iter().zip(&calm) {
            let reply = writer.retrieve(id).expect("stormed retrieval answers");
            assert!(reply.is_hit(), "read of {id} lost under the scrape storm");
            assert_eq!(
                reply.payload.as_ref(),
                &payload[..],
                "read of {id} perturbed by the scrape storm"
            );
            assert_eq!(
                reply.hops, *hops,
                "read of {id} rerouted under the scrape storm"
            );
        }
    });

    let workers_after: Vec<u32> = (0..cluster.len())
        .map(|s| {
            let mut c = cluster.client(s).expect("scrape client connects");
            c.scrape().expect("scrape answers").dispatch_workers
        })
        .collect();
    assert_eq!(
        workers_before, workers_after,
        "a scrape storm must never spawn dispatch workers"
    );
    assert_eq!(
        total_requests(&cluster) - requests_before,
        calm_cost,
        "an identical burst must cost identical request accounting — \
         {STORM_CLIENTS} storm clients' scrapes leaked into the counter"
    );

    let report = cluster.shutdown();
    assert_eq!(report.total_errors(), 0);
}
