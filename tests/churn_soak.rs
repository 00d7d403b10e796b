//! Long churn on a delta-patched network: every join+leave batch through
//! `GredNetwork::apply_delta` must apply, and the network the batches
//! leave behind must pass `verify_invariants`.
//!
//! A batch is what the `churn` benchmark workload applies: a join wired
//! to two seeded members, and the leave of a seeded member whose
//! departure keeps the rest connected, so membership stays constant and
//! no batch may fail. The stream is seeded the way the benchmark seeds
//! it, so a seed here replays that seed's batches.
//!
//! Each soak also bounds the drift of the paper's two quality metrics:
//! routing stretch and max/avg load, on the network the batches leave.
//!
//! Tier-1 runs a 200-switch network, and checks that the fresh
//! 2,000-switch landmark build balances load. The 2,000-switch landmark
//! soak is ignored by default; run it in release mode:
//!
//! ```text
//! cargo test --release -p gred-sim --test churn_soak -- --ignored
//! ```

use gred::plane::forwarding;
use gred::{GredConfig, GredNetwork, TopologyChange};
use gred_geometry::Point2;
use gred_hash::DataId;
use gred_net::{waxman_topology, ServerPool, Topology, WaxmanConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The starting network is fixed; the seed drives the churn.
const TOPOLOGY_SEED: u64 = 2019;
/// Virtual positions per side of the load grid.
const GRID: usize = 200;
/// Seeded `(access member, id)` pairs routed for the stretch sample.
const STRETCH_PAIRS: usize = 2_000;

fn build(switches: usize, landmarks: usize) -> GredNetwork {
    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, TOPOLOGY_SEED));
    let pool = ServerPool::uniform(switches, 4, u64::MAX);
    let config = GredConfig::with_iterations(10)
        .seeded(TOPOLOGY_SEED)
        .landmarks(landmarks);
    GredNetwork::build(topo, pool, config).expect("the seeded network builds")
}

/// Whether every member but `without` still reaches every other once
/// `without`'s links are gone.
fn stays_connected(topo: &Topology, members: &[usize], without: usize) -> bool {
    let Some(&start) = members.iter().find(|&&m| m != without) else {
        return false;
    };
    let mut seen = vec![false; topo.switch_count()];
    seen[start] = true;
    seen[without] = true;
    let mut frontier = vec![start];
    while let Some(s) = frontier.pop() {
        for n in topo.neighbors(s) {
            if !seen[n] {
                seen[n] = true;
                frontier.push(n);
            }
        }
    }
    members.iter().all(|&m| seen[m])
}

fn churn_batch(rng: &mut StdRng, net: &GredNetwork) -> Vec<TopologyChange> {
    let members = net.members();
    let pick = |rng: &mut StdRng| members[rng.gen_range(0..members.len())];
    let a = pick(rng);
    let b = loop {
        let b = pick(rng);
        if b != a {
            break b;
        }
    };
    let leaver = loop {
        let candidate = pick(rng);
        if candidate != a && candidate != b && stays_connected(net.topology(), members, candidate) {
            break candidate;
        }
    };
    vec![
        TopologyChange::Join {
            links: vec![a, b],
            capacities: vec![u64::MAX; 4],
        },
        TopologyChange::Leave { switch: leaver },
    ]
}

/// Max ÷ mean of the members' shares of a uniform `GRID × GRID` grid of
/// virtual positions, each owned by its nearest member.
fn load_max_over_avg(net: &GredNetwork) -> f64 {
    let mut owned = vec![0usize; net.topology().switch_count()];
    let at = |i: usize| (i as f64 + 0.5) / GRID as f64;
    for i in 0..GRID {
        for j in 0..GRID {
            owned[net.dt().nearest_switch(Point2::new(at(i), at(j)))] += 1;
        }
    }
    let max = owned.into_iter().max().unwrap_or(0);
    (max * net.members().len()) as f64 / (GRID * GRID) as f64
}

/// Σ physical hops of the greedy routes ÷ Σ shortest-path hops, over
/// [`STRETCH_PAIRS`] seeded pairs whose owner is not the access switch.
fn stretch_mean(net: &GredNetwork, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let members = net.members();
    let (mut routed, mut shortest) = (0u64, 0u64);
    for i in 0..STRETCH_PAIRS {
        let access = members[rng.gen_range(0..members.len())];
        let id = DataId::new(format!("stretch/{i}"));
        let route = forwarding::route(net.dataplanes(), access, net.position_of_id(&id), &id)
            .expect("greedy routing delivers");
        let direct = net.topology().bfs_hops(access)[route.dest];
        if direct > 0 {
            routed += u64::from(route.physical_hops());
            shortest += u64::from(direct);
        }
    }
    routed as f64 / shortest.max(1) as f64
}

/// Applies `batches` churn batches for `seed`, checks every one applied
/// and the invariants hold at the end, and returns the network's max/avg
/// load and stretch.
fn soak(mut net: GredNetwork, seed: u64, batches: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let members = net.members().len();
    for batch in 0..batches {
        let changes = churn_batch(&mut rng, &net);
        if let Err(e) = net.apply_delta(&changes) {
            panic!("seed {seed}: batch {batch} failed: {e}");
        }
    }
    assert_eq!(net.members().len(), members, "seed {seed}");
    let findings = net.verify_invariants();
    assert!(findings.is_empty(), "seed {seed}: {findings:?}");
    (load_max_over_avg(&net), stretch_mean(&net, seed))
}

#[test]
fn small_network_absorbs_churn() {
    let (load, stretch) = soak(build(200, 16), 7, 1_000);
    assert!(load <= 21.0, "max/avg load drifted to {load:.2}");
    assert!(stretch <= 3.7, "stretch drifted to {stretch:.3}");
}

/// The `churn` workload's starting network: 2,000 switches, 64
/// landmarks, T = 10 — too few Lloyd steps to spread the embedding, so
/// C-regulation starts from the rank grid.
#[test]
fn two_thousand_switch_build_balances_load() {
    let load = load_max_over_avg(&build(2_000, 64));
    assert!(load <= 4.0, "max/avg load of the fresh build is {load:.2}");
}

#[test]
#[ignore = "2,000 switches x 6,000 batches: run in release mode"]
fn two_thousand_switch_landmark_soak() {
    let net = build(2_000, 64);
    for seed in 501..=503 {
        let (load, stretch) = soak(net.clone(), seed, 2_000);
        assert!(
            load <= 10.0,
            "seed {seed}: max/avg load drifted to {load:.2}"
        );
        assert!(
            stretch <= 3.0,
            "seed {seed}: stretch drifted to {stretch:.3}"
        );
    }
}
