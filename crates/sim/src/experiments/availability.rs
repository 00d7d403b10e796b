//! Fault-tolerance experiment (extension of paper Section VI): data
//! availability under edge-node crashes, with and without replication.
//!
//! "The data copies are fundamental for the fault tolerance." This
//! experiment quantifies it: place items with `k` copies, crash `f`
//! random storage switches (their data is lost, unlike a graceful
//! leave), and measure the fraction of items still retrievable via
//! nearest-copy retrieval.

use crate::report::{f3, Cells};
use bytes::Bytes;
use gred::{GredConfig, GredError, GredNetwork};
use gred_hash::DataId;
use gred_net::{waxman_topology, ServerPool, WaxmanConfig};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use serde::Serialize;

/// One availability measurement.
#[derive(Debug, Clone, Serialize)]
pub struct AvailabilityRow {
    /// Copies per item.
    pub replicas: u32,
    /// Storage switches crashed.
    pub failures: usize,
    /// Fraction of items still retrievable.
    pub availability: f64,
}

impl Cells for AvailabilityRow {
    fn cells(&self) -> Vec<String> {
        vec![
            self.replicas.to_string(),
            self.failures.to_string(),
            f3(self.availability),
        ]
    }
}

/// Crashes `failures` random switches under each replication factor in
/// `replica_counts` and reports surviving availability.
pub fn availability_under_crashes(
    replica_counts: &[u32],
    failures: usize,
    switches: usize,
    items: usize,
    seed: u64,
) -> Vec<AvailabilityRow> {
    replica_counts
        .iter()
        .map(|&replicas| {
            let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, seed));
            let pool = ServerPool::uniform(switches, 3, u64::MAX);
            let mut net =
                GredNetwork::build(topo, pool, GredConfig::default().seeded(seed)).expect("builds");

            let ids: Vec<DataId> = (0..items)
                .map(|i| DataId::new(format!("avail/{replicas}/{i}")))
                .collect();
            for (i, id) in ids.iter().enumerate() {
                net.place_replicated(id, Bytes::from_static(b"v"), replicas, i % switches)
                    .expect("places");
            }

            // Crash f random storage switches (keeping the network
            // connected — crashes that would disconnect it are skipped,
            // as the metric is about data loss, not partitions).
            let mut rng = StdRng::seed_from_u64(seed ^ u64::from(replicas));
            let mut candidates: Vec<usize> = net.members().to_vec();
            candidates.shuffle(&mut rng);
            let mut crashed = 0;
            for victim in candidates {
                if crashed == failures || net.members().len() <= 2 {
                    break;
                }
                match net.crash_switch(victim) {
                    Ok(()) => crashed += 1,
                    Err(GredError::Disconnected) => continue,
                    Err(e) => panic!("unexpected crash error: {e}"),
                }
            }

            let access = net.members()[0];
            let alive = ids
                .iter()
                .filter(|id| net.retrieve_nearest(id, replicas, access).is_ok())
                .count();
            AvailabilityRow {
                replicas,
                failures: crashed,
                availability: alive as f64 / items as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_improves_availability() {
        let rows = availability_under_crashes(&[1, 3], 4, 20, 150, 3);
        let single = rows.iter().find(|r| r.replicas == 1).unwrap();
        let triple = rows.iter().find(|r| r.replicas == 3).unwrap();
        assert!(
            triple.availability >= single.availability,
            "3 copies ({:.2}) must not lose to 1 copy ({:.2})",
            triple.availability,
            single.availability
        );
        assert!(
            triple.availability > 0.95,
            "3 copies across 20 switches should survive 4 crashes: {:.2}",
            triple.availability
        );
        assert!(
            single.availability < 1.0,
            "crashing 4 of 20 switches must lose some single-copy items"
        );
    }

    #[test]
    fn no_failures_full_availability() {
        let rows = availability_under_crashes(&[1], 0, 12, 100, 4);
        assert_eq!(rows[0].availability, 1.0);
        assert_eq!(rows[0].failures, 0);
    }
}
