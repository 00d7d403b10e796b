//! Forwarding-table occupancy: Fig. 9(d).
//!
//! GRED's scalability claim: the number of forwarding entries per switch
//! depends on the DT degree (≈ 6 on average) plus relay tuples, not on
//! the number of flows or the network size — the growth with network size
//! is modest.

use crate::experiments::substrate;
use crate::report::{f3, Cells};
use crate::systems::{ComparedSystem, SystemUnderTest};
use serde::Serialize;

/// One plotted point of Fig. 9(d).
#[derive(Debug, Clone, Serialize)]
pub struct TableEntriesRow {
    /// Number of switches.
    pub switches: usize,
    /// Mean forwarding entries per switch.
    pub mean: f64,
    /// 90% confidence half-width over switches.
    pub ci90: f64,
    /// Fewest entries on any switch.
    pub min: usize,
    /// Most entries on any switch.
    pub max: usize,
}

impl Cells for TableEntriesRow {
    fn cells(&self) -> Vec<String> {
        vec![
            self.switches.to_string(),
            f3(self.mean),
            f3(self.ci90),
            self.min.to_string(),
            self.max.to_string(),
        ]
    }
}

/// Measures average per-switch forwarding-table occupancy for GRED
/// (T = 50) across network sizes.
pub fn entries_vs_network_size(sizes: &[usize], seed: u64) -> Vec<TableEntriesRow> {
    sizes
        .iter()
        .map(|&n| {
            let (topo, pool) = substrate(n, 10, 3, seed ^ n as u64);
            let sut =
                SystemUnderTest::build(topo, pool, ComparedSystem::Gred { iterations: 50 }, seed);
            let stats = sut.as_gred().expect("gred").table_stats();
            TableEntriesRow {
                switches: n,
                mean: stats.mean,
                ci90: stats.ci90_half_width,
                min: stats.min,
                max: stats.max,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_is_modest() {
        let rows = entries_vs_network_size(&[20, 80], 3);
        assert_eq!(rows.len(), 2);
        let small = rows[0].mean;
        let large = rows[1].mean;
        assert!(small > 0.0);
        // 4x the switches must yield far less than 4x the entries.
        assert!(
            large < small * 3.0,
            "entries grew too fast: {small:.1} -> {large:.1}"
        );
    }

    #[test]
    fn per_switch_entries_are_bounded_by_graph_degree_scale() {
        let rows = entries_vs_network_size(&[50], 5);
        // DT average degree < 6 plus physical neighbors and relay tuples:
        // the mean should stay in the low tens, far below n.
        assert!(rows[0].mean < 50.0 / 2.0, "mean {}", rows[0].mean);
        assert!(rows[0].min <= rows[0].max);
    }
}
