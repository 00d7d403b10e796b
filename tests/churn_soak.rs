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
//! Tier-1 runs a 200-switch network. The 2,000-switch landmark soak is
//! ignored by default; run it in release mode:
//!
//! ```text
//! cargo test --release -p gred-sim --test churn_soak -- --ignored
//! ```

use gred::{GredConfig, GredNetwork, TopologyChange};
use gred_net::{waxman_topology, ServerPool, Topology, WaxmanConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The starting network is fixed; the seed drives the churn.
const TOPOLOGY_SEED: u64 = 2019;

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

/// Applies `batches` churn batches for `seed` and checks every one
/// applied and the invariants hold at the end.
fn soak(mut net: GredNetwork, seed: u64, batches: usize) {
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
}

#[test]
fn small_network_absorbs_churn() {
    soak(build(200, 16), 7, 1_000);
}

#[test]
#[ignore = "2,000 switches x 6,000 batches: run in release mode"]
fn two_thousand_switch_landmark_soak() {
    let net = build(2_000, 64);
    for seed in 501..=503 {
        soak(net.clone(), seed, 2_000);
    }
}
