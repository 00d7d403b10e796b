//! Response-delay experiment: Fig. 8.
//!
//! The paper pre-places data on the testbed, issues batches of retrieval
//! requests, and reports the average response delay — which stays flat as
//! the number of requests grows and is similar for both GRED variants,
//! because delay is a function of path length (stretch ≈ 1 for both), not
//! of request volume.

use crate::report::{f3, Cells};
use crate::systems::{ComparedSystem, SystemUnderTest};
use crate::workload::{AccessPicker, ItemGenerator};
use gred_net::{testbed_topology, LatencyModel};
use serde::Serialize;

/// One plotted point of Fig. 8.
#[derive(Debug, Clone, Serialize)]
pub struct DelayRow {
    /// Number of retrieval requests issued.
    pub requests: usize,
    /// "GRED" or "GRED-NoCVT".
    pub system: String,
    /// Average response delay in microseconds.
    pub avg_delay_us: f64,
}

impl Cells for DelayRow {
    fn cells(&self) -> Vec<String> {
        vec![
            self.requests.to_string(),
            self.system.clone(),
            f3(self.avg_delay_us),
        ]
    }
}

/// Issues each batch size in `request_counts` against a pre-loaded
/// testbed and reports mean round-trip delay under `latency`.
pub fn response_delay(request_counts: &[usize], latency: LatencyModel, seed: u64) -> Vec<DelayRow> {
    let (topo, pool) = testbed_topology();
    let mut rows = Vec::new();
    for (system, name) in [
        (ComparedSystem::Gred { iterations: 50 }, "GRED"),
        (ComparedSystem::Gred { iterations: 0 }, "GRED-NoCVT"),
    ] {
        let sut = SystemUnderTest::build(topo.clone(), pool.clone(), system, seed);
        let members: Vec<usize> = (0..topo.switch_count()).collect();
        for &requests in request_counts {
            let mut gen = ItemGenerator::new(format!("delay-{name}-{requests}"));
            let mut picker = AccessPicker::new(&members, seed ^ requests as u64);
            let mut total = 0.0;
            for _ in 0..requests {
                let id = gen.next_id();
                let access = picker.pick();
                let (actual, shortest) = sut.request_hops(&id, access);
                // Request travels the greedy route; the response returns
                // on the shortest path from the owner.
                total += latency.round_trip_us(actual, shortest);
            }
            rows.push(DelayRow {
                requests,
                system: name.to_string(),
                avg_delay_us: total / requests.max(1) as f64,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_delay_is_flat_and_similar() {
        let rows = response_delay(&[100, 400, 1000], LatencyModel::default(), 3);
        assert_eq!(rows.len(), 6);
        // Flat: max/min over batch sizes within 15% for each system.
        for name in ["GRED", "GRED-NoCVT"] {
            let delays: Vec<f64> = rows
                .iter()
                .filter(|r| r.system == name)
                .map(|r| r.avg_delay_us)
                .collect();
            let lo = delays.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = delays.iter().cloned().fold(0.0, f64::max);
            assert!(hi / lo < 1.15, "{name}: delay not flat: {delays:?}");
        }
        // Similar across variants at the same batch size.
        let g = rows
            .iter()
            .find(|r| r.system == "GRED" && r.requests == 400)
            .unwrap()
            .avg_delay_us;
        let n = rows
            .iter()
            .find(|r| r.system == "GRED-NoCVT" && r.requests == 400)
            .unwrap()
            .avg_delay_us;
        assert!(
            (g / n - 1.0).abs() < 0.4,
            "variants differ too much: {g} vs {n}"
        );
    }

    #[test]
    fn delay_scales_with_latency_model() {
        let slow = LatencyModel {
            per_hop_us: 500.0,
            service_us: 200.0,
        };
        let fast = LatencyModel {
            per_hop_us: 5.0,
            service_us: 200.0,
        };
        let s = response_delay(&[200], slow, 1);
        let f = response_delay(&[200], fast, 1);
        assert!(s[0].avg_delay_us > f[0].avg_delay_us);
    }
}

/// Fig. 8 under server queueing: the same experiment, but requests in a
/// batch arrive uniformly over `window_us` and queue FIFO at their
/// servers. At the paper's request volumes delay stays flat (the servers
/// are unsaturated); pushing the batch far beyond the window's service
/// capacity makes queueing visible — the regime the paper's "modest
/// change" hints at.
pub fn response_delay_with_queueing(
    request_counts: &[usize],
    latency: LatencyModel,
    window_us: f64,
    seed: u64,
) -> Vec<DelayRow> {
    use crate::queueing::{fifo_delays, QueuedRequest};

    let (topo, pool) = testbed_topology();
    let mut rows = Vec::new();
    for (system, name) in [
        (ComparedSystem::Gred { iterations: 50 }, "GRED"),
        (ComparedSystem::Gred { iterations: 0 }, "GRED-NoCVT"),
    ] {
        let sut = SystemUnderTest::build(topo.clone(), pool.clone(), system, seed);
        let members: Vec<usize> = (0..topo.switch_count()).collect();
        for &requests in request_counts {
            let mut gen = ItemGenerator::new(format!("qdelay-{name}-{requests}"));
            let mut picker = AccessPicker::new(&members, seed ^ requests as u64);
            let queued: Vec<QueuedRequest<gred_net::ServerId>> = (0..requests)
                .map(|i| {
                    let id = gen.next_id();
                    let access = picker.pick();
                    let (actual, shortest) = sut.request_hops(&id, access);
                    QueuedRequest {
                        arrival_us: window_us * (i as f64 / requests.max(1) as f64)
                            + latency.one_way_us(actual),
                        server: sut.owner_server(&id),
                        network_us: latency.one_way_us(actual) + latency.one_way_us(shortest),
                    }
                })
                .collect();
            let delays = fifo_delays(&queued, latency.service_us);
            rows.push(DelayRow {
                requests,
                system: name.to_string(),
                avg_delay_us: delays.iter().sum::<f64>() / delays.len().max(1) as f64,
            });
        }
    }
    rows
}

#[cfg(test)]
mod queueing_tests {
    use super::*;

    #[test]
    fn unsaturated_volume_stays_flat() {
        // 1 second window, 200 µs service, 12 servers: capacity ≈ 60k
        // requests; 1000 is deeply unsaturated.
        let rows =
            response_delay_with_queueing(&[100, 1000], LatencyModel::default(), 1_000_000.0, 5);
        for name in ["GRED", "GRED-NoCVT"] {
            let d: Vec<f64> = rows
                .iter()
                .filter(|r| r.system == name)
                .map(|r| r.avg_delay_us)
                .collect();
            assert!(
                (d[1] / d[0] - 1.0).abs() < 0.1,
                "{name}: unsaturated delay should be flat: {d:?}"
            );
        }
    }

    #[test]
    fn saturation_inflates_delay() {
        // Squeeze the same requests into a tiny window: queues build.
        let flat = response_delay_with_queueing(&[500], LatencyModel::default(), 10_000_000.0, 6);
        let packed = response_delay_with_queueing(&[500], LatencyModel::default(), 1_000.0, 6);
        assert!(
            packed[0].avg_delay_us > 2.0 * flat[0].avg_delay_us,
            "saturated {} vs unsaturated {}",
            packed[0].avg_delay_us,
            flat[0].avg_delay_us
        );
    }
}
