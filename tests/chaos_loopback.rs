//! Chaos acceptance tests: the loopback cluster must keep every
//! acknowledged write through seeded node kills and link faults.
//!
//! The contract under test, end to end:
//!
//! - writes ack only after a quorum of clean copies landed on distinct
//!   switches (`Client::place_replicated`);
//! - a node crash is detected at the sockets (dead links → suspicion),
//!   routed around (detours), repaired (transit revival + read-repair),
//!   and never loses an acknowledged write;
//! - failures before the ack are *errors the caller sees*, never a
//!   silent fake-ack — under total owner isolation a placement either
//!   errors or is explicitly labeled `Degraded`;
//! - the whole exercise is replayable: the fault plan and workload are
//!   pure functions of the seed, so a failure report's repro line
//!   regenerates the identical schedule (checked across a 50-seed
//!   matrix).

use gred_cluster::{
    chaos_cluster_config, run_chaos, ChaosConfig, ChaosFabric, ChaosTransport, Cluster,
    ClusterConfig, LinkMode, NodeConfig,
};
use gred_hash::DataId;
use gred_net::{ServerPool, Topology};
use gred_testkit::{generate, ChaosPlan, Harness, HarnessConfig};
use std::time::Duration;

fn ring(switches: usize) -> gred::GredNetwork {
    let links: Vec<(usize, usize)> = (0..switches).map(|s| (s, (s + 1) % switches)).collect();
    let topo = Topology::from_links(switches, &links).unwrap();
    let pool = ServerPool::uniform(switches, 2, 10_000);
    gred::GredNetwork::build(topo, pool, gred::GredConfig::with_iterations(8).seeded(23)).unwrap()
}

/// The ISSUE's acceptance scenario: 16 switches, `k = 2` replication,
/// two seeded kills mid-workload, zero acknowledged-write loss.
#[test]
fn chaos_two_kills_zero_acked_loss() {
    let outcome = run_chaos(&ChaosConfig {
        seed: 2019,
        ..ChaosConfig::default()
    })
    .expect("chaos infrastructure boots");
    assert_eq!(outcome.killed.len(), 2, "both kills must fire: {outcome}");
    assert!(
        outcome.acked_writes >= 100,
        "the workload must make real progress: {outcome}"
    );
    assert_eq!(
        outcome.lost_acked,
        0,
        "acknowledged writes must survive two crashes: {outcome}\nreproduce: {}",
        outcome.repro_line()
    );
}

/// Same seed ⇒ same fault plan and same repro line, across 50 seeds.
/// This is what makes a red chaos run in CI actionable: the printed
/// command regenerates the identical kill/fault schedule.
#[test]
fn fifty_seed_matrix_is_deterministic() {
    let cfg = ChaosConfig::default();
    for seed in 0..50u64 {
        let a = ChaosPlan::generate(seed, cfg.ops, cfg.kills, cfg.link_faults);
        let b = ChaosPlan::generate(seed, cfg.ops, cfg.kills, cfg.link_faults);
        assert_eq!(a, b, "seed {seed}: plan generation must be deterministic");
        assert_eq!(
            a.events.len(),
            b.events.len(),
            "seed {seed}: event counts diverged"
        );
    }
    // Plans must actually differ across the matrix — a constant plan
    // would trivially satisfy the check above.
    let first = ChaosPlan::generate(0, cfg.ops, cfg.kills, cfg.link_faults);
    let distinct = (1..50u64)
        .map(|s| ChaosPlan::generate(s, cfg.ops, cfg.kills, cfg.link_faults))
        .filter(|p| p.events != first.events)
        .count();
    assert!(
        distinct >= 45,
        "only {distinct}/49 seeds produced distinct plans"
    );
}

/// A few full socket runs from the matrix: different seeds, different
/// kill schedules, same zero-loss verdict.
#[test]
fn seed_matrix_socket_runs_keep_acked_writes() {
    for seed in [3, 17, 29] {
        let outcome = run_chaos(&ChaosConfig {
            seed,
            switches: 8,
            ops: 80,
            kills: 1,
            link_faults: 2,
        })
        .expect("chaos infrastructure boots");
        assert_eq!(
            outcome.lost_acked,
            0,
            "seed {seed} lost acknowledged writes: {outcome}\nreproduce: {}",
            outcome.repro_line()
        );
        assert!(outcome.acked_writes > 0, "seed {seed} made no progress");
    }
}

/// Counter-asserted settling invariants, scraped purely over the wire:
/// after a seeded chaos plan heals, (1) the detour counter stops
/// increasing — fresh writes ride clean greedy paths; (2) the suspect
/// set drains empty — no node still distrusts a live peer; (3) received
/// invalidations match the writes broadcast exactly — each clean write
/// notifies every peer but the storing node once. These three
/// properties used to be observable only by grepping node logs; now
/// they are numbers in the [`gred_cluster::HealProbe`] the chaos run
/// scrapes from its own cluster.
#[test]
fn healed_cluster_counters_settle() {
    for seed in [3u64, 29] {
        let outcome = run_chaos(&ChaosConfig {
            seed,
            switches: 8,
            ops: 80,
            kills: 1,
            link_faults: 2,
        })
        .expect("chaos infrastructure boots");
        let probe = outcome
            .probe
            .as_ref()
            .expect("a healed cluster answers the post-heal scrape");

        assert_eq!(
            probe.detours_after, probe.detours_before,
            "seed {seed}: detours kept increasing after heal_all: {probe:?}"
        );
        assert_eq!(
            probe.suspect_links, 0,
            "seed {seed}: suspect set did not drain after the TTL: {probe:?}"
        );
        assert_eq!(
            probe.degraded_writes, 0,
            "seed {seed}: a healed cluster must ack probe writes clean: {probe:?}"
        );
        assert!(
            probe.clean_writes > 0,
            "seed {seed}: the probe must make progress: {probe:?}"
        );
        assert_eq!(
            probe.invalidations_delta,
            probe.clean_writes as u64 * (probe.nodes as u64 - 1),
            "seed {seed}: invalidation broadcasts lost or duplicated: {probe:?}"
        );
        assert_eq!(
            probe.nodes, 8,
            "seed {seed}: every slot (including revived victims) must answer: {probe:?}"
        );
    }
}

/// Unacknowledged failures are loud, never silent: with every link into
/// the owner severed, a placement must either error or be explicitly
/// labeled `Degraded` — a clean `Ok` ack would be a lie. After the
/// links heal and suspicion expires, clean placement resumes.
#[test]
fn isolated_owner_never_acks_clean() {
    let net = ring(5);
    let id = DataId::new("isolated-owner-key");
    let owner = net.responsible_server(&id).switch;
    let fabric = ChaosFabric::new();
    let cluster =
        Cluster::boot_with(&net, chaos_cluster_config(), fabric.rewrite()).expect("cluster boots");
    for from in 0..cluster.len() {
        if from != owner {
            fabric.set_mode(from, owner, LinkMode::Severed);
        }
    }
    let access = (owner + 1) % 5;
    let mut client = cluster.client(access).expect("client connects");

    // A loud `Err` is equally acceptable; only a clean ack is a lie.
    if let Ok(reply) = client.place(&id, b"must not vanish".as_ref()) {
        assert!(
            !reply.is_clean(),
            "a clean ack with the owner unreachable is a silent lie"
        );
    }

    // Heal, wait out the suspicion TTL, and confirm clean service
    // resumes — detection is not a one-way door.
    fabric.heal_all();
    std::thread::sleep(chaos_cluster_config().node.suspect_ttl + Duration::from_millis(100));
    let mut clean = false;
    for _ in 0..5 {
        if let Ok(reply) = client.place(&id, b"must not vanish".as_ref()) {
            if reply.is_clean() {
                clean = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(clean, "clean placement must resume after links heal");
    cluster.shutdown();
    fabric.shutdown();
}

/// The read-cache staleness invariant under churn: with hot-key
/// traffic (repeated reads of a small key set, so the access nodes'
/// caches are actually exercised) across two crash/restart cycles, no
/// read ever returns a version older than the last *clean-acked* write
/// of that key, and no read resurrects a value whose only copy died
/// with a crashed owner. This is the socket-level twin of the oracle's
/// `cache_never_serves_stale_across_seeded_churn`.
#[test]
fn hot_key_reads_never_go_stale_under_chaos() {
    let mut net = ring(6);
    let fabric = ChaosFabric::new();
    let mut cluster =
        Cluster::boot_with(&net, chaos_cluster_config(), fabric.rewrite()).expect("cluster boots");
    let keys: Vec<DataId> = (0..4).map(|k| DataId::new(format!("hot/{k}"))).collect();
    let mut client = cluster.client_multi(&[0, 1, 2]).expect("client connects");
    // Per key: the newest version whose write acked clean, and whether
    // the key's only copy died with a crash (so any later hit before a
    // rewrite is a resurrection).
    let mut acked: Vec<Option<u64>> = vec![None; keys.len()];
    let mut tombstoned = vec![false; keys.len()];
    let mut version = 0u64;
    for round in 0..30usize {
        let k = round % keys.len();
        version += 1;
        if let Ok(reply) = client.place(&keys[k], format!("{version}")) {
            if reply.is_clean() {
                acked[k] = Some(version);
                tombstoned[k] = false;
            }
        }
        // Read every key twice: the second read of an unchanged hot key
        // is the cache's chance to serve — and to go stale.
        for (i, key) in keys.iter().enumerate() {
            for pass in 0..2 {
                let Ok(reply) = client.retrieve(key) else {
                    continue;
                };
                if !reply.is_hit() {
                    continue;
                }
                let got: u64 = std::str::from_utf8(&reply.payload)
                    .expect("versioned payload")
                    .parse()
                    .expect("versioned payload");
                assert!(
                    !tombstoned[i],
                    "round {round} pass {pass}: read of {key} resurrected \
                     a crash-tombstoned value (v{got})"
                );
                if let Some(promised) = acked[i] {
                    assert!(
                        got >= promised,
                        "round {round} pass {pass}: read of {key} returned \
                         v{got}, older than the clean-acked v{promised}"
                    );
                }
            }
        }
        // Two mid-run crashes: kill the current owner of a hot key,
        // mirror the crash on the model, push the post-crash planes
        // (which flushes every cache), and revive the slot as transit.
        if round == 9 || round == 19 {
            let victim = net
                .responsible_server(&keys[if round == 9 { 0 } else { 2 }])
                .switch;
            if net.members().contains(&victim) && cluster.try_node(victim).is_some() {
                cluster.crash_node(victim);
                for (i, key) in keys.iter().enumerate() {
                    if net.responsible_server(key).switch == victim {
                        tombstoned[i] = true;
                        acked[i] = None;
                    }
                }
                net.crash_switch(victim).expect("model mirrors the crash");
                cluster.apply_planes(&net);
                cluster.restart_node(victim, &net).expect("transit revival");
            }
        }
    }
    let report = cluster.shutdown();
    fabric.shutdown();
    let hot = report.hot_stats();
    assert!(
        hot.cache_hits >= 1,
        "hot-key traffic must actually exercise the cache: {hot}"
    );
}

/// Twin-network parity: the same seeded workload (places, overwrites,
/// repeated reads, one crash/restart cycle) against a cache-enabled and
/// a cache-disabled cluster must serve byte-identical payloads at every
/// read. The cache may only change *where* a read is answered from,
/// never *what* it answers.
#[test]
fn cache_on_and_off_twins_serve_identical_payloads() {
    let run = |cache_bytes: usize| -> Vec<Option<Vec<u8>>> {
        let mut net = ring(5);
        let cfg = ClusterConfig {
            node: NodeConfig {
                cache_bytes,
                ..NodeConfig::default()
            },
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::boot(&net, cfg).expect("cluster boots");
        let keys: Vec<DataId> = (0..8).map(|k| DataId::new(format!("twin/{k}"))).collect();
        let mut client = cluster.client(0).expect("client connects");
        let mut observed = Vec::new();
        for round in 0..6usize {
            for (i, key) in keys.iter().enumerate() {
                if (round + i) % 2 == 0 {
                    client
                        .place(key, format!("twin/{i}/v{round}"))
                        .expect("placement succeeds");
                }
                // Two reads back to back: in the cached twin the second
                // one is typically a hit; the payload must not care.
                for _ in 0..2 {
                    let reply = client.retrieve(key).expect("retrieval answers");
                    observed.push(reply.is_hit().then(|| reply.payload.to_vec()));
                }
            }
            if round == 3 {
                let victim = net.responsible_server(&keys[0]).switch;
                cluster.crash_node(victim);
                net.crash_switch(victim).expect("model mirrors the crash");
                cluster.apply_planes(&net);
                cluster.restart_node(victim, &net).expect("transit revival");
            }
        }
        let report = cluster.shutdown();
        assert_eq!(report.total_errors(), 0);
        if cache_bytes == 0 {
            let hot = report.hot_stats();
            assert_eq!(
                (hot.cache_hits, hot.cache_misses),
                (0, 0),
                "a disabled cache must not even count probes: {hot}"
            );
        }
        observed
    };
    let cached = run(NodeConfig::default().cache_bytes);
    let uncached = run(0);
    assert_eq!(
        cached, uncached,
        "cache-on and cache-off twins diverged in served payloads"
    );
}

/// The model-based harness replays its schedule over a fabric-wrapped
/// cluster while a chaos plan kills nodes (durable restarts) and breaks
/// links between operations. Retries, client rotation, and suspect
/// detours must mask every fault: the socket view never diverges from
/// the in-process model.
#[test]
fn probed_replay_survives_chaos_plan() {
    let harness = Harness::new(HarnessConfig {
        switches: 8,
        max_switches: 10,
    });
    let seed = 47;
    let ops = generate(seed, 24);
    let plan = ChaosPlan::generate(seed, ops.len(), 2, 3);
    let mut transport = ChaosTransport::new(plan);
    let outcome = harness.replay_probed(seed, &ops, &mut transport);
    assert!(
        outcome.failure.is_none(),
        "probed chaos run diverged: {:?}",
        outcome.failure
    );
    assert!(
        transport.faults_fired() > 0,
        "the chaos plan must actually fire during the replay"
    );
}
