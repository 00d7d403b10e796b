//! The paper's own quality metrics, read off a workload's final
//! `GredNetwork`: routing stretch (Fig. 9) and load balance (Fig. 11).

use crate::gen;
use gred::plane::forwarding;
use gred::GredNetwork;
use gred_hash::DataId;
use rand::Rng;
use std::collections::HashMap;

/// `(access member, id)` pairs routed for the stretch sample.
pub const STRETCH_PAIRS: usize = 2_000;
/// Ids assigned to owners for the load sample.
pub const LOAD_IDS: usize = 100_000;

/// What routing a seeded sample of requests showed.
pub struct RouteSample {
    /// Σ physical hops of `forwarding::route` ÷ Σ shortest-path hops,
    /// over the pairs whose owner is not the access switch itself.
    pub stretch_mean: f64,
    /// Mean physical hops per routed pair, distance-0 pairs included.
    pub hops_mean: f64,
    /// Pairs whose route failed or ended anywhere but
    /// `responsible_server`.
    pub misdelivered: u64,
}

/// Routes [`STRETCH_PAIRS`] seeded `(access member, id)` pairs.
pub fn route_sample(net: &GredNetwork, seed: u64) -> RouteSample {
    let mut rng = gen::rng(seed, 0x5712);
    let members = net.members();
    let mut bfs: HashMap<usize, Vec<u32>> = HashMap::new();
    let (mut routed, mut shortest, mut all_hops, mut misdelivered) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..STRETCH_PAIRS {
        let access = members[rng.gen_range(0..members.len())];
        let id = DataId::new(format!("stretch/{seed:x}/{i}"));
        let position = net.position_of_id(&id);
        let Ok(route) = forwarding::route(net.dataplanes(), access, position, &id) else {
            misdelivered += 1;
            continue;
        };
        if route.server != net.responsible_server(&id) {
            misdelivered += 1;
        }
        all_hops += u64::from(route.physical_hops());
        let direct = bfs
            .entry(access)
            .or_insert_with(|| net.topology().bfs_hops(access))[route.dest];
        if direct > 0 {
            routed += u64::from(route.physical_hops());
            shortest += u64::from(direct);
        }
    }
    RouteSample {
        stretch_mean: routed as f64 / shortest.max(1) as f64,
        hops_mean: all_hops as f64 / STRETCH_PAIRS as f64,
        misdelivered,
    }
}

/// Max ÷ mean of per-switch owner counts for [`LOAD_IDS`] seeded ids.
pub fn load_max_over_avg(net: &GredNetwork, seed: u64) -> f64 {
    let mut owned: HashMap<usize, u64> = HashMap::new();
    for i in 0..LOAD_IDS {
        let id = DataId::new(format!("load/{seed:x}/{i}"));
        *owned.entry(net.responsible_server(&id).switch).or_default() += 1;
    }
    let max = owned.values().copied().max().unwrap_or(0);
    max as f64 * net.members().len() as f64 / LOAD_IDS as f64
}
