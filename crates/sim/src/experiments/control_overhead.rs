//! Control-plane update cost on dynamics (extension): how many
//! forwarding entries change when an edge node joins?
//!
//! The paper's Section VI claims a join "only affects its neighbors" —
//! the controller should touch a handful of switches, not reprogram the
//! network. We diff every switch's installed entries before and after a
//! join and count how many switches saw any change.

use crate::experiments::substrate;
use crate::report::Cells;
use gred::{GredConfig, GredNetwork};
use gred_dataplane::SwitchDataplane;
use serde::Serialize;
use std::collections::BTreeSet;

/// One row of the control-overhead experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ControlOverheadRow {
    /// Switches before the join.
    pub switches: usize,
    /// Switches whose forwarding state changed.
    pub switches_touched: usize,
    /// Net change in total installed entries.
    pub entry_delta: i64,
    /// Entries installed on the joining switch itself.
    pub newcomer_entries: usize,
}

impl Cells for ControlOverheadRow {
    fn cells(&self) -> Vec<String> {
        vec![
            self.switches.to_string(),
            self.switches_touched.to_string(),
            self.entry_delta.to_string(),
            self.newcomer_entries.to_string(),
        ]
    }
}

/// A switch's installed state, as comparable sets.
fn snapshot(plane: &SwitchDataplane) -> (BTreeSet<String>, usize) {
    let neighbors: BTreeSet<String> = plane
        .neighbor_entries()
        .map(|e| format!("{}@{:?}via{}", e.neighbor, e.position, e.via))
        .collect();
    (neighbors, plane.entry_count())
}

/// Joins one switch at each network size and reports the controller's
/// update footprint.
pub fn join_overhead(sizes: &[usize], seed: u64) -> Vec<ControlOverheadRow> {
    sizes
        .iter()
        .map(|&n| {
            let (topo, pool) = substrate(n, 4, 3, seed ^ n as u64);
            let mut net =
                GredNetwork::build(topo, pool, GredConfig::default().seeded(seed)).expect("builds");
            let before: Vec<(BTreeSet<String>, usize)> =
                net.dataplanes().iter().map(snapshot).collect();
            let before_total: usize = net.dataplanes().iter().map(|p| p.entry_count()).sum();

            let new_switch = net
                .add_switch(&[0, n / 2], vec![u64::MAX; 4])
                .expect("joins");

            let mut touched = 0;
            for (s, old) in before.iter().enumerate() {
                if snapshot(&net.dataplanes()[s]) != *old {
                    touched += 1;
                }
            }
            let after_total: usize = net.dataplanes().iter().map(|p| p.entry_count()).sum();
            ControlOverheadRow {
                switches: n,
                switches_touched: touched,
                entry_delta: after_total as i64 - before_total as i64,
                newcomer_entries: net.dataplanes()[new_switch].entry_count(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_touches_a_minority_of_switches() {
        for row in join_overhead(&[30, 60], 5) {
            assert!(
                row.switches_touched * 2 < row.switches,
                "n={}: join touched {} of {} switches",
                row.switches,
                row.switches_touched,
                row.switches
            );
            assert!(
                row.newcomer_entries > 0,
                "newcomer needs forwarding entries"
            );
        }
    }

    #[test]
    fn entry_growth_is_local_not_global() {
        let rows = join_overhead(&[40], 9);
        let row = &rows[0];
        // The delta should be on the order of the newcomer's degree, not
        // the network size times average degree.
        assert!(
            row.entry_delta.unsigned_abs() < 40,
            "entry delta {} too large for one join",
            row.entry_delta
        );
    }
}
