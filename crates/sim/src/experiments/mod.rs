//! One module per figure of the paper's evaluation (Section VII).
//!
//! | Module | Paper figure | What it reproduces |
//! |---|---|---|
//! | [`testbed`] | Fig. 7(a), 7(b) | prototype stretch ≈ 1; CVT's load-balance win |
//! | [`delay`] | Fig. 8 | flat response delay vs number of requests |
//! | [`stretch`] | Fig. 9(a)–(c) | stretch vs size, vs min degree, with range extension |
//! | [`table_entries`] | Fig. 9(d) | forwarding entries per switch vs network size |
//! | [`load`] | Fig. 11(a)–(c) | `max/avg` vs size, vs items, vs iterations `T` |
//!
//! Beyond the paper's figures, [`churn`] quantifies Section VI's
//! migration-locality claim and [`embedding`] ablates the M-position
//! embedding against oracle and random coordinates.
//!
//! Every function takes explicit parameters so the `repro` binary can run
//! quick and paper-scale variants of the same code.

pub mod availability;
pub mod churn;
pub mod contention;
pub mod control_overhead;
pub mod delay;
pub mod embedding;
pub mod forwarding_load;
pub mod heterogeneity;
pub mod hotspot;
pub mod load;
pub mod stretch;
pub mod table_entries;
pub mod testbed;

use gred_net::{waxman_topology, ServerPool, Topology, WaxmanConfig};

/// The standard simulation substrate: a Waxman topology with
/// `servers_per_switch` servers behind every switch (the paper attaches
/// 10), unbounded capacities.
pub fn substrate(
    switches: usize,
    servers_per_switch: usize,
    min_degree: usize,
    seed: u64,
) -> (Topology, ServerPool) {
    let cfg = WaxmanConfig {
        switches,
        min_degree,
        seed,
        ..WaxmanConfig::default()
    };
    let (topo, _) = waxman_topology(&cfg);
    let pool = ServerPool::uniform(switches, servers_per_switch, u64::MAX);
    (topo, pool)
}
