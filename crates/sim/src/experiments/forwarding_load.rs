//! Forwarding-load distribution (extension): which switches do the work?
//!
//! Storage load is one balance question; *forwarding* load is another —
//! greedy routes and virtual-link relays concentrate packet processing on
//! some switches. This experiment counts, per switch, how many packets it
//! processed (greedy decisions + relays, via the data plane's P4-style
//! counters) while serving a batch of random requests, and compares the
//! concentration against Chord's underlay usage.

use crate::metrics::max_avg;
use crate::report::{f3, Cells};
use crate::systems::{ComparedSystem, SystemUnderTest};
use crate::workload::{AccessPicker, ItemGenerator};
use gred_chord::{ChordConfig, ChordNetwork};
use serde::Serialize;

/// One row of the forwarding-load experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ForwardingLoadRow {
    /// System name.
    pub system: String,
    /// `max/avg` of per-switch packets processed.
    pub max_avg: f64,
    /// Total switch-visits across all requests (lower = less network
    /// work; proportional to aggregate bandwidth use).
    pub total_visits: u64,
}

impl Cells for ForwardingLoadRow {
    fn cells(&self) -> Vec<String> {
        vec![
            self.system.clone(),
            f3(self.max_avg),
            self.total_visits.to_string(),
        ]
    }
}

/// Serves `requests` random retrievals on a fixed substrate and reports
/// per-switch forwarding-load concentration for GRED and Chord.
pub fn forwarding_load(switches: usize, requests: usize, seed: u64) -> Vec<ForwardingLoadRow> {
    let (topo, pool) = crate::experiments::substrate(switches, 10, 3, seed);
    let members: Vec<usize> = (0..switches).collect();
    let mut rows = Vec::new();

    // GRED: the data-plane counters record exactly who processed what.
    {
        let sut = SystemUnderTest::build(
            topo.clone(),
            pool.clone(),
            ComparedSystem::Gred { iterations: 50 },
            seed,
        );
        let net = sut.as_gred().expect("gred");
        let mut gen = ItemGenerator::new("fload-gred");
        let mut picker = AccessPicker::new(&members, seed);
        for _ in 0..requests {
            let id = gen.next_id();
            let pos = net.position_of_id(&id);
            gred::plane::forwarding::route(net.dataplanes(), picker.pick(), pos, &id)
                .expect("routes");
        }
        let counts: Vec<u64> = net
            .dataplanes()
            .iter()
            .map(|p| p.packets_processed())
            .collect();
        rows.push(ForwardingLoadRow {
            system: "GRED".into(),
            max_avg: max_avg(&counts),
            total_visits: counts.iter().sum(),
        });
    }

    // Chord: count switch visits along each overlay-expanded walk.
    {
        let chord = ChordNetwork::build(&pool, ChordConfig::default());
        let mut counts = vec![0u64; switches];
        let mut gen = ItemGenerator::new("fload-chord");
        let mut picker = AccessPicker::new(&members, seed);
        for _ in 0..requests {
            let id = gen.next_id();
            let access = picker.pick();
            let overlay = chord.lookup_path(access, &id);
            counts[access] += 1;
            for w in overlay.windows(2) {
                let seg = topo
                    .shortest_path(w[0].switch, w[1].switch)
                    .expect("connected");
                for &s in seg.iter().skip(1) {
                    counts[s] += 1;
                }
            }
        }
        rows.push(ForwardingLoadRow {
            system: "Chord".into(),
            max_avg: max_avg(&counts),
            total_visits: counts.iter().sum(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gred_does_less_total_work() {
        let rows = forwarding_load(30, 500, 7);
        let gred = rows.iter().find(|r| r.system == "GRED").unwrap();
        let chord = rows.iter().find(|r| r.system == "Chord").unwrap();
        assert!(
            gred.total_visits * 2 < chord.total_visits,
            "GRED visits {} should be far below Chord's {}",
            gred.total_visits,
            chord.total_visits
        );
        assert!(gred.max_avg >= 1.0 && chord.max_avg >= 1.0);
    }

    #[test]
    fn counters_match_route_lengths() {
        // The P4 counters must equal the number of decisions + relays —
        // i.e. the switch-visit count of all routes.
        use crate::systems::SystemUnderTest;
        let (topo, pool) = crate::experiments::substrate(15, 4, 3, 9);
        let sut = SystemUnderTest::build(topo, pool, ComparedSystem::Gred { iterations: 10 }, 9);
        let net = sut.as_gred().unwrap();
        let mut expected = 0u64;
        for i in 0..50 {
            let id = gred_hash::DataId::new(format!("cnt/{i}"));
            let pos = net.position_of_id(&id);
            let route = gred::plane::forwarding::route(net.dataplanes(), i % 15, pos, &id).unwrap();
            // decide() runs at every overlay switch; relay_next at every
            // relay switch. Relay count = physical hops - overlay hops.
            expected += u64::from(route.overlay_hops()) + 1; // decisions
            expected += u64::from(route.physical_hops() - route.overlay_hops());
            // relays
        }
        let total: u64 = net.dataplanes().iter().map(|p| p.packets_processed()).sum();
        assert_eq!(total, expected);
    }
}
