//! Heterogeneous server counts (extension): the scenario that motivates
//! range extension.
//!
//! The paper notes "switches could connect to different numbers of edge
//! servers or servers with different capacity" (Section VII-B). GRED's
//! C-regulation equalizes *per-switch* key share; a switch with one
//! server then concentrates its whole share on that server, while Chord
//! (which rings individual servers) splits load per server naturally.
//! This experiment measures that effect and how much of it range
//! extension claws back.

use crate::metrics::max_avg;
use crate::report::{f3, Cells};
use crate::workload::ItemGenerator;
use bytes::Bytes;
use gred::{GredConfig, GredError, GredNetwork};
use gred_chord::{ChordConfig, ChordNetwork};
use gred_net::{waxman_topology, ServerId, ServerPool, WaxmanConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::HashMap;

/// One row of the heterogeneity experiment.
#[derive(Debug, Clone, Serialize)]
pub struct HeterogeneityRow {
    /// System / configuration name.
    pub system: String,
    /// Per-server `max/avg` item load.
    pub max_avg: f64,
}

impl Cells for HeterogeneityRow {
    fn cells(&self) -> Vec<String> {
        vec![self.system.clone(), f3(self.max_avg)]
    }
}

/// Builds a pool with per-switch server counts uniform in
/// `1..=max_servers` and per-server capacity `capacity`.
fn heterogeneous_pool(switches: usize, max_servers: usize, capacity: u64, seed: u64) -> ServerPool {
    let mut rng = StdRng::seed_from_u64(seed);
    ServerPool::from_capacities(
        (0..switches)
            .map(|_| vec![capacity; rng.gen_range(1..=max_servers)])
            .collect(),
    )
}

/// Places `items` under three configurations on the same heterogeneous
/// substrate: GRED without extensions (unbounded capacity), GRED with
/// auto-extension under a per-server cap, and Chord.
pub fn heterogeneous_load(switches: usize, items: usize, seed: u64) -> Vec<HeterogeneityRow> {
    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, seed));
    let mut rows = Vec::new();

    // GRED, no capacity pressure: per-switch shares concentrate on
    // small-server switches.
    {
        let pool = heterogeneous_pool(switches, 10, u64::MAX, seed ^ 1);
        let net = GredNetwork::build(
            topo.clone(),
            pool.clone(),
            GredConfig::default().seeded(seed),
        )
        .expect("builds");
        let mut gen = ItemGenerator::new("het-gred");
        let mut counts: HashMap<ServerId, u64> = HashMap::new();
        for _ in 0..items {
            *counts
                .entry(net.responsible_server(&gen.next_id()))
                .or_default() += 1;
        }
        let mut loads: Vec<u64> = pool
            .iter_ids()
            .map(|s| counts.get(&s).copied().unwrap_or(0))
            .collect();
        loads.sort_unstable();
        rows.push(HeterogeneityRow {
            system: "GRED (no extension)".into(),
            max_avg: max_avg(&loads),
        });
    }

    // GRED with capacity-driven auto-extension: overloads spill to
    // neighbor switches' servers.
    {
        let fair = (items / (switches * 5)).max(1) as u64; // ≈ avg per server
        let cap = fair * 2; // extend once a server holds 2x its fair share
        let pool = heterogeneous_pool(switches, 10, cap, seed ^ 1);
        let mut net = GredNetwork::build(
            topo.clone(),
            pool.clone(),
            GredConfig::default().seeded(seed),
        )
        .expect("builds");
        let mut gen = ItemGenerator::new("het-gred-ext");
        let mut stored = 0u64;
        for i in 0..items {
            match net.place(&gen.next_id(), Bytes::new(), i % switches) {
                Ok(_) => stored += 1,
                Err(GredError::CapacityExceeded { .. })
                | Err(GredError::NoExtensionCandidate { .. })
                | Err(GredError::AlreadyExtended { .. }) => {}
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        let loads: Vec<u64> = net.server_loads().iter().map(|&(_, l)| l).collect();
        let _ = stored;
        rows.push(HeterogeneityRow {
            system: "GRED (auto-extension)".into(),
            max_avg: max_avg(&loads),
        });
    }

    // Chord: every server is its own ring node regardless of its switch.
    {
        let pool = heterogeneous_pool(switches, 10, u64::MAX, seed ^ 1);
        let chord = ChordNetwork::build(&pool, ChordConfig::default());
        let mut gen = ItemGenerator::new("het-chord");
        let mut counts: HashMap<ServerId, u64> = HashMap::new();
        for _ in 0..items {
            *counts.entry(chord.owner(&gen.next_id())).or_default() += 1;
        }
        let loads: Vec<u64> = pool
            .iter_ids()
            .map(|s| counts.get(&s).copied().unwrap_or(0))
            .collect();
        rows.push(HeterogeneityRow {
            system: "Chord".into(),
            max_avg: max_avg(&loads),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heterogeneity_hurts_plain_gred_and_extension_helps() {
        let rows = heterogeneous_load(20, 20_000, 7);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.system.starts_with(name))
                .unwrap_or_else(|| panic!("missing {name}"))
                .max_avg
        };
        let plain = get("GRED (no extension)");
        let extended = get("GRED (auto-extension)");
        assert!(
            extended < plain,
            "auto-extension should improve heterogeneous balance: {extended:.2} vs {plain:.2}"
        );
        // Everything stays in a sane band.
        for r in &rows {
            assert!(r.max_avg >= 1.0, "{}: {}", r.system, r.max_avg);
            assert!(r.max_avg < 50.0, "{}: {}", r.system, r.max_avg);
        }
    }

    #[test]
    fn pool_generation_is_heterogeneous_and_deterministic() {
        let a = heterogeneous_pool(10, 10, 5, 3);
        let b = heterogeneous_pool(10, 10, 5, 3);
        for s in 0..10 {
            assert_eq!(a.servers_at(s), b.servers_at(s));
        }
        let counts: Vec<usize> = (0..10).map(|s| a.servers_at(s)).collect();
        assert!(counts.iter().any(|&c| c != counts[0]), "{counts:?}");
    }
}
