//! Load-balance experiments: Figs. 11(a), 11(b), 11(c).
//!
//! Items are hashed and assigned to their owner server (no payloads are
//! stored — the figures only need per-server counts), so the paper's
//! 100k–1M item sweeps run comfortably.

use crate::experiments::substrate;
use crate::metrics::max_avg;
use crate::report::{f3, Cells};
use crate::systems::{ComparedSystem, SystemUnderTest};
use crate::workload::ItemGenerator;
use gred_net::ServerId;
use gred_runtime::{default_threads, parallel_map};
use serde::Serialize;
use std::collections::HashMap;

/// One plotted point of a load figure.
#[derive(Debug, Clone, Serialize)]
pub struct LoadRow {
    /// X-axis value (total servers, items, or iterations `T`).
    pub x: usize,
    /// System name.
    pub system: String,
    /// The `max/avg` load-balance metric (1 is perfect).
    pub max_avg: f64,
}

impl Cells for LoadRow {
    fn cells(&self) -> Vec<String> {
        vec![self.x.to_string(), self.system.clone(), f3(self.max_avg)]
    }
}

/// Computes `max/avg` after hashing `items` ids into `sut`.
pub fn measure_load(sut: &SystemUnderTest, items: usize, prefix: &str) -> f64 {
    let mut gen = ItemGenerator::new(prefix);
    let mut counts: HashMap<ServerId, u64> = HashMap::new();
    for _ in 0..items {
        *counts.entry(sut.owner_server(&gen.next_id())).or_default() += 1;
    }
    // Every server participates in the average, loaded or not.
    let mut loads: Vec<u64> = counts.into_values().collect();
    loads.resize(sut.total_servers().max(loads.len()), 0);
    max_avg(&loads)
}

/// Fig. 11(a): `max/avg` vs total edge servers (10 per switch), with
/// `items` data items. Compares Chord, GRED(T=10), GRED(T=50).
pub fn load_vs_network_size(server_counts: &[usize], items: usize, seed: u64) -> Vec<LoadRow> {
    parallel_map(server_counts.to_vec(), default_threads(), |servers| {
        let switches = (servers / 10).max(1);
        let (topo, pool) = substrate(switches, 10, 3, seed ^ servers as u64);
        [
            ComparedSystem::Chord { virtual_nodes: 1 },
            ComparedSystem::Gred { iterations: 10 },
            ComparedSystem::Gred { iterations: 50 },
        ]
        .into_iter()
        .map(|system| {
            let sut = SystemUnderTest::build(topo.clone(), pool.clone(), system, seed);
            LoadRow {
                x: servers,
                system: system.name(),
                max_avg: measure_load(&sut, items, &format!("load-a-{servers}")),
            }
        })
        .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Fig. 11(b): `max/avg` vs number of placed items on a fixed network
/// with `servers` edge servers.
pub fn load_vs_items(item_counts: &[usize], servers: usize, seed: u64) -> Vec<LoadRow> {
    let switches = (servers / 10).max(1);
    let (topo, pool) = substrate(switches, 10, 3, seed);
    let systems = [
        ComparedSystem::Chord { virtual_nodes: 1 },
        ComparedSystem::Gred { iterations: 10 },
        ComparedSystem::Gred { iterations: 50 },
    ];
    let suts: Vec<(ComparedSystem, SystemUnderTest)> = systems
        .into_iter()
        .map(|s| {
            (
                s,
                SystemUnderTest::build(topo.clone(), pool.clone(), s, seed),
            )
        })
        .collect();
    let mut rows = Vec::new();
    for &items in item_counts {
        for (system, sut) in &suts {
            rows.push(LoadRow {
                x: items,
                system: system.name(),
                max_avg: measure_load(sut, items, &format!("load-b-{items}")),
            });
        }
    }
    rows
}

/// Fig. 11(c): `max/avg` vs C-regulation iterations `T`, with Chord and
/// GRED-NoCVT as flat references.
pub fn load_vs_iterations(ts: &[usize], items: usize, servers: usize, seed: u64) -> Vec<LoadRow> {
    let switches = (servers / 10).max(1);
    let (topo, pool) = substrate(switches, 10, 3, seed);
    let mut rows = Vec::new();

    for system in [
        ComparedSystem::Chord { virtual_nodes: 1 },
        ComparedSystem::Gred { iterations: 0 },
    ] {
        let sut = SystemUnderTest::build(topo.clone(), pool.clone(), system, seed);
        let value = measure_load(&sut, items, "load-c-flat");
        for &t in ts {
            rows.push(LoadRow {
                x: t,
                system: system.name(),
                max_avg: value, // independent of T, plotted as a flat line
            });
        }
    }

    rows.extend(parallel_map(ts.to_vec(), default_threads(), |t| {
        let sut = SystemUnderTest::build(
            topo.clone(),
            pool.clone(),
            ComparedSystem::Gred { iterations: t },
            seed,
        );
        LoadRow {
            x: t,
            system: "GRED".to_string(),
            max_avg: measure_load(&sut, items, "load-c-gred"),
        }
    }));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11a_ordering_holds() {
        let rows = load_vs_network_size(&[200], 20_000, 3);
        let get = |name: &str| rows.iter().find(|r| r.system == name).unwrap().max_avg;
        let chord = get("Chord");
        let t10 = get("GRED(T=10)");
        let t50 = get("GRED(T=50)");
        assert!(t50 < chord, "GRED(T=50) {t50:.2} !< Chord {chord:.2}");
        assert!(t10 < chord, "GRED(T=10) {t10:.2} !< Chord {chord:.2}");
        assert!(t50 <= t10 * 1.25, "more iterations should not hurt much");
    }

    #[test]
    fn fig11c_more_iterations_improve_balance() {
        let rows = load_vs_iterations(&[0, 40], 20_000, 200, 5);
        let gred_at = |t: usize| {
            rows.iter()
                .find(|r| r.system == "GRED" && r.x == t)
                .unwrap()
                .max_avg
        };
        assert!(
            gred_at(40) < gred_at(0),
            "T=40 ({:.2}) should beat T=0 ({:.2})",
            gred_at(40),
            gred_at(0)
        );
        // Flat references present for every T.
        assert_eq!(rows.iter().filter(|r| r.system == "Chord").count(), 2);
    }

    #[test]
    fn average_counts_every_server_of_the_pool() {
        // One item on 12 switches × 4 servers: max 1, average 1/48.
        let (topo, pool) = substrate(12, 4, 3, 7);
        for system in [
            ComparedSystem::Chord { virtual_nodes: 1 },
            ComparedSystem::Gred { iterations: 10 },
        ] {
            let sut = SystemUnderTest::build(topo.clone(), pool.clone(), system, 7);
            assert_eq!(measure_load(&sut, 1, "pool"), 48.0, "{}", system.name());
        }
    }

    #[test]
    fn measured_loads_cover_all_items() {
        // max_avg of a uniform distribution over many items approaches a
        // small constant; sanity-check magnitudes.
        let rows = load_vs_items(&[10_000], 100, 9);
        for r in &rows {
            assert!(r.max_avg >= 1.0, "{}: max/avg {} < 1", r.system, r.max_avg);
            assert!(
                r.max_avg < 20.0,
                "{}: max/avg {} absurd",
                r.system,
                r.max_avg
            );
        }
    }
}
