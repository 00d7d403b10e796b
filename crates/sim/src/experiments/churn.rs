//! Network-dynamics experiment (paper Section VI, beyond the figures):
//! how much data moves when an edge node joins or leaves.
//!
//! The paper's claim: "the new edge node has no effect on the other edge
//! nodes. It only affects its neighbors" — i.e. a join should migrate
//! roughly `1/(n+1)` of the keys (the newcomer's Voronoi cell) and leave
//! the rest untouched; a leave should move only the leaver's share.

use crate::report::{f3, Cells};
use bytes::Bytes;
use gred::{GredConfig, GredNetwork};
use gred_hash::DataId;
use gred_net::{waxman_topology, ServerPool, WaxmanConfig};
use serde::Serialize;
use std::collections::HashMap;

/// Result of one churn event.
#[derive(Debug, Clone, Serialize)]
pub struct ChurnRow {
    /// Switches before the event.
    pub switches: usize,
    /// "join" or "leave".
    pub event: String,
    /// Fraction of stored items whose server changed.
    pub moved_fraction: f64,
    /// The ideal fraction (newcomer/leaver's fair share of the keys).
    pub fair_share: f64,
}

impl Cells for ChurnRow {
    fn cells(&self) -> Vec<String> {
        vec![
            self.switches.to_string(),
            self.event.clone(),
            f3(self.moved_fraction),
            f3(self.fair_share),
        ]
    }
}

fn snapshot(net: &GredNetwork) -> HashMap<DataId, gred_net::ServerId> {
    net.store()
        .all_locations()
        .into_iter()
        .map(|(server, id)| (id, server))
        .collect()
}

fn moved_fraction(
    before: &HashMap<DataId, gred_net::ServerId>,
    after: &HashMap<DataId, gred_net::ServerId>,
) -> f64 {
    let moved = before
        .iter()
        .filter(|(id, server)| after.get(*id) != Some(server))
        .count();
    moved as f64 / before.len().max(1) as f64
}

/// Measures migration volume for a join followed by a leave, at each
/// network size.
pub fn churn_migration(sizes: &[usize], items: usize, seed: u64) -> Vec<ChurnRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(n, seed ^ n as u64));
        let pool = ServerPool::uniform(n, 4, u64::MAX);
        let mut net =
            GredNetwork::build(topo, pool, GredConfig::default().seeded(seed)).expect("builds");
        for i in 0..items {
            net.place(&DataId::new(format!("churn/{n}/{i}")), Bytes::new(), i % n)
                .expect("places");
        }

        // Join.
        let before = snapshot(&net);
        let added = net
            .add_switch(&[0, n / 2], vec![u64::MAX; 4])
            .expect("join succeeds");
        let after = snapshot(&net);
        rows.push(ChurnRow {
            switches: n,
            event: "join".into(),
            moved_fraction: moved_fraction(&before, &after),
            fair_share: 1.0 / (n + 1) as f64,
        });

        // Leave (the same node departs again).
        let before = snapshot(&net);
        net.remove_switch(added).expect("leave succeeds");
        let after = snapshot(&net);
        rows.push(ChurnRow {
            switches: n,
            event: "leave".into(),
            moved_fraction: moved_fraction(&before, &after),
            fair_share: 1.0 / (n + 1) as f64,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_moves_roughly_fair_share() {
        let rows = churn_migration(&[20], 400, 3);
        let join = rows.iter().find(|r| r.event == "join").unwrap();
        // The newcomer's cell should attract a bounded multiple of its
        // fair share — far from a rehash-everything event.
        assert!(
            join.moved_fraction < 6.0 * join.fair_share,
            "join moved {:.1}% (fair share {:.1}%)",
            100.0 * join.moved_fraction,
            100.0 * join.fair_share
        );
    }

    #[test]
    fn leave_returns_the_same_keys() {
        let rows = churn_migration(&[15], 300, 5);
        let join = rows.iter().find(|r| r.event == "join").unwrap();
        let leave = rows.iter().find(|r| r.event == "leave").unwrap();
        // Leaving undoes the join: comparable volume in both directions.
        assert!(leave.moved_fraction <= join.moved_fraction + 0.05);
        assert!(leave.moved_fraction > 0.0 || join.moved_fraction == 0.0);
    }

    #[test]
    fn most_items_never_move() {
        for (i, row) in churn_migration(&[25], 500, 7).iter().enumerate() {
            assert!(
                row.moved_fraction < 0.5,
                "event {i} ({}) moved {:.0}% of items",
                row.event,
                100.0 * row.moved_fraction
            );
        }
    }
}

/// One row of the GRED-vs-Chord ownership-churn comparison.
#[derive(Debug, Clone, Serialize)]
pub struct OwnerChurnRow {
    /// Switches before the join.
    pub switches: usize,
    /// "GRED" or "Chord".
    pub system: String,
    /// Fraction of keys whose owner changed when one edge node joined.
    pub moved_fraction: f64,
    /// The joining node's fair share of the key space.
    pub fair_share: f64,
}

impl Cells for OwnerChurnRow {
    fn cells(&self) -> Vec<String> {
        vec![
            self.switches.to_string(),
            self.system.clone(),
            f3(self.moved_fraction),
            f3(self.fair_share),
        ]
    }
}

/// Compares ownership churn on a node join: GRED (one new DT site claims
/// its Voronoi cell) vs Chord (one new ring arc per virtual node). Both
/// are consistent-hashing designs, so both should move ≈ the fair share —
/// this experiment verifies GRED gives up nothing on churn for its
/// stretch and balance wins.
pub fn owner_churn_comparison(sizes: &[usize], keys: usize, seed: u64) -> Vec<OwnerChurnRow> {
    use gred_chord::{ChordConfig, ChordNetwork};
    use gred_net::waxman_topology as waxman;

    let mut rows = Vec::new();
    for &n in sizes {
        let servers_per_switch = 4;
        let ids: Vec<DataId> = (0..keys)
            .map(|i| DataId::new(format!("ochurn/{n}/{i}")))
            .collect();
        let fair_share = 1.0 / (n + 1) as f64;

        // GRED: add one switch, existing positions fixed.
        let (topo, _) = waxman(&gred_net::WaxmanConfig::with_switches(n, seed ^ n as u64));
        let pool = ServerPool::uniform(n, servers_per_switch, u64::MAX);
        let mut net =
            GredNetwork::build(topo, pool, GredConfig::default().seeded(seed)).expect("builds");
        let before: Vec<_> = ids.iter().map(|id| net.responsible_server(id)).collect();
        net.add_switch(&[0, n / 2], vec![u64::MAX; servers_per_switch])
            .expect("join succeeds");
        let moved = ids
            .iter()
            .zip(&before)
            .filter(|(id, &b)| net.responsible_server(id) != b)
            .count();
        rows.push(OwnerChurnRow {
            switches: n,
            system: "GRED".into(),
            moved_fraction: moved as f64 / keys as f64,
            fair_share,
        });

        // Chord: add one switch's worth of servers to the ring.
        let pool_before = ServerPool::uniform(n, servers_per_switch, u64::MAX);
        let pool_after = ServerPool::uniform(n + 1, servers_per_switch, u64::MAX);
        let chord_before = ChordNetwork::build(&pool_before, ChordConfig::default());
        let chord_after = ChordNetwork::build(&pool_after, ChordConfig::default());
        let moved = ids
            .iter()
            .filter(|id| chord_before.owner(id) != chord_after.owner(id))
            .count();
        rows.push(OwnerChurnRow {
            switches: n,
            system: "Chord".into(),
            moved_fraction: moved as f64 / keys as f64,
            fair_share,
        });
    }
    rows
}

#[cfg(test)]
mod owner_churn_tests {
    use super::*;

    #[test]
    fn both_systems_move_near_fair_share() {
        let rows = owner_churn_comparison(&[25], 4_000, 7);
        for r in &rows {
            assert!(
                r.moved_fraction < 5.0 * r.fair_share,
                "{}: moved {:.1}% vs fair share {:.1}%",
                r.system,
                100.0 * r.moved_fraction,
                100.0 * r.fair_share
            );
            assert!(
                r.moved_fraction > 0.0,
                "{}: a join must claim some keys",
                r.system
            );
        }
    }

    #[test]
    fn gred_churn_is_competitive_with_chord() {
        let rows = owner_churn_comparison(&[20], 4_000, 9);
        let gred = rows
            .iter()
            .find(|r| r.system == "GRED")
            .unwrap()
            .moved_fraction;
        let chord = rows
            .iter()
            .find(|r| r.system == "Chord")
            .unwrap()
            .moved_fraction;
        // GRED should not move an order of magnitude more than Chord.
        assert!(gred < chord * 8.0, "GRED {gred:.3} vs Chord {chord:.3}");
    }
}
