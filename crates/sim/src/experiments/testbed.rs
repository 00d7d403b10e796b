//! Prototype-testbed experiments: Figs. 7(a) and 7(b).
//!
//! The paper's 6-switch / 12-server P4 testbed shows (a) both GRED
//! variants route with stretch ≈ 1, and (b) C-regulation visibly improves
//! `max/avg` over GRED-NoCVT.

use crate::metrics::{max_avg, MetricSeries};
use crate::report::{f3, Cells};
use crate::systems::{ComparedSystem, SystemUnderTest};
use crate::workload::{AccessPicker, ItemGenerator};
use gred_net::testbed_topology;
use gred_net::ServerId;
use serde::Serialize;
use std::collections::HashMap;

/// One bar of Fig. 7(a) / 7(b).
#[derive(Debug, Clone, Serialize)]
pub struct TestbedRow {
    /// "GRED" or "GRED-NoCVT".
    pub system: String,
    /// Mean routing stretch (Fig. 7a).
    pub stretch: f64,
    /// `max/avg` over the 12 servers (Fig. 7b).
    pub max_avg: f64,
}

impl Cells for TestbedRow {
    fn cells(&self) -> Vec<String> {
        vec![self.system.clone(), f3(self.stretch), f3(self.max_avg)]
    }
}

/// The two systems the prototype compares (T = 50 per the paper).
fn prototype_systems() -> [(ComparedSystem, &'static str); 2] {
    [
        (ComparedSystem::Gred { iterations: 50 }, "GRED"),
        (ComparedSystem::Gred { iterations: 0 }, "GRED-NoCVT"),
    ]
}

/// Runs both testbed experiments: `requests` routed placements for the
/// stretch column, `items` hashed placements for the load column.
pub fn testbed_experiment(requests: usize, items: usize, seed: u64) -> Vec<TestbedRow> {
    let (topo, pool) = testbed_topology();
    prototype_systems()
        .into_iter()
        .map(|(system, name)| {
            let sut = SystemUnderTest::build(topo.clone(), pool.clone(), system, seed);

            let members: Vec<usize> = (0..topo.switch_count()).collect();
            let mut gen = ItemGenerator::new(format!("tb-{name}"));
            let mut picker = AccessPicker::new(&members, seed);
            let stretch: MetricSeries = (0..requests)
                .map(|_| sut.request_stretch(&gen.next_id(), picker.pick()))
                .collect();

            let mut loads: HashMap<ServerId, u64> = HashMap::new();
            let mut gen = ItemGenerator::new(format!("tb-load-{name}"));
            for _ in 0..items {
                *loads.entry(sut.owner_server(&gen.next_id())).or_default() += 1;
            }
            let mut counts: Vec<u64> = loads.into_values().collect();
            counts.resize(pool.total_servers().max(counts.len()), 0);

            TestbedRow {
                system: name.to_string(),
                stretch: stretch.mean(),
                max_avg: max_avg(&counts),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7a_stretch_near_one() {
        let rows = testbed_experiment(100, 2_000, 1);
        for r in &rows {
            assert!(
                r.stretch < 1.6,
                "{}: testbed stretch should be near 1, got {:.2}",
                r.system,
                r.stretch
            );
            assert!(r.stretch >= 1.0);
        }
    }

    #[test]
    fn fig7b_cvt_improves_balance() {
        let rows = testbed_experiment(10, 5_000, 2);
        let gred = rows.iter().find(|r| r.system == "GRED").unwrap().max_avg;
        let nocvt = rows
            .iter()
            .find(|r| r.system == "GRED-NoCVT")
            .unwrap()
            .max_avg;
        assert!(
            gred <= nocvt,
            "CVT should improve testbed balance: GRED {gred:.2} vs NoCVT {nocvt:.2}"
        );
    }
}
