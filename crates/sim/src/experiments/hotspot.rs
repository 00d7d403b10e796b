//! Request-load experiment under Zipf popularity (extension).
//!
//! GRED's storage load is balanced by hashing regardless of which items
//! are *requested*, but a skewed popularity distribution concentrates
//! request traffic on whichever servers happen to own the hot items. The
//! paper's replication mechanism (Section VI) is the remedy: replicating
//! the hot head of the catalog and fetching the nearest copy spreads
//! request load across the replicas. This experiment quantifies both
//! effects.

use crate::metrics::max_avg;
use crate::report::{f3, Cells};
use crate::workload::{AccessPicker, ZipfPicker};
use bytes::Bytes;
use gred::{GredConfig, GredNetwork};
use gred_hash::DataId;
use gred_net::{waxman_topology, ServerPool, WaxmanConfig};
use serde::Serialize;
use std::collections::HashMap;

/// One row of the hotspot experiment.
#[derive(Debug, Clone, Serialize)]
pub struct HotspotRow {
    /// Zipf exponent of the request popularity.
    pub zipf_s: f64,
    /// Copies of each of the hottest items (1 = no replication).
    pub hot_replicas: u32,
    /// `max/avg` of *requests served* per server.
    pub request_max_avg: f64,
}

impl Cells for HotspotRow {
    fn cells(&self) -> Vec<String> {
        vec![
            format!("{:.1}", self.zipf_s),
            self.hot_replicas.to_string(),
            f3(self.request_max_avg),
        ]
    }
}

/// Serves `requests` Zipf-distributed retrievals over a `catalog_size`
/// catalog on a fixed network; the top `hot_items` of the catalog are
/// stored with `hot_replicas` copies and fetched nearest-copy.
pub fn hotspot_request_load(
    zipf_exponents: &[f64],
    hot_replicas: &[u32],
    catalog_size: usize,
    hot_items: usize,
    requests: usize,
    seed: u64,
) -> Vec<HotspotRow> {
    let switches = 25;
    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, seed));
    let pool = ServerPool::uniform(switches, 4, u64::MAX);

    let mut rows = Vec::new();
    for &replicas in hot_replicas {
        // One network per replication factor: catalog stored up front.
        let mut net = GredNetwork::build(
            topo.clone(),
            pool.clone(),
            GredConfig::default().seeded(seed),
        )
        .expect("builds");
        let ids: Vec<DataId> = (0..catalog_size)
            .map(|k| DataId::new(format!("hot/{k:05}")))
            .collect();
        for (k, id) in ids.iter().enumerate() {
            let copies = if k < hot_items { replicas } else { 1 };
            net.place_replicated(id, Bytes::from_static(b"v"), copies, k % switches)
                .expect("places");
        }

        for &s in zipf_exponents {
            let mut zipf = ZipfPicker::new(catalog_size, s, seed ^ 17);
            let mut picker = AccessPicker::new(net.members(), seed ^ 23);
            let mut served: HashMap<gred_net::ServerId, u64> = HashMap::new();
            for _ in 0..requests {
                let rank = zipf.pick();
                let access = picker.pick();
                let copies = if rank < hot_items { replicas } else { 1 };
                let got = net
                    .retrieve_nearest(&ids[rank], copies, access)
                    .expect("stored items retrieve");
                *served.entry(got.server).or_default() += 1;
            }
            let mut loads: Vec<u64> = served.into_values().collect();
            loads.resize(net.pool().total_servers().max(loads.len()), 0);
            rows.push(HotspotRow {
                zipf_s: s,
                hot_replicas: replicas,
                request_max_avg: max_avg(&loads),
            });
        }
    }
    rows
}

/// One phase of the flash-crowd variant.
#[derive(Debug, Clone, Serialize)]
pub struct FlashCrowdRow {
    /// Phase label: steady background, the regional flash crowd, or the
    /// flash crowd after the operator replicates the viral key.
    pub phase: &'static str,
    /// `max/avg` of requests served per server during the phase.
    pub request_max_avg: f64,
    /// Fraction of the phase's requests served by the single busiest
    /// server — how much of the crowd one box absorbs.
    pub peak_share: f64,
}

impl Cells for FlashCrowdRow {
    fn cells(&self) -> Vec<String> {
        vec![
            self.phase.to_string(),
            f3(self.request_max_avg),
            f3(self.peak_share),
        ]
    }
}

/// The flash-crowd scenario: a key that nobody requested suddenly goes
/// viral in one *region* — every request for it enters through a small
/// neighborhood of access switches, as a regionally-trending item does
/// on an edge network. Three phases over the same network:
///
/// 1. `background`: uniform requests over the whole catalog, all access
///    switches — the steady state.
/// 2. `flash`: 80% of requests hit the one cold key, all entering
///    through `region_size` contiguous access members.
/// 3. `flash+replicas`: the same crowd after the operator gives the
///    viral key 4 copies, fetched nearest-copy.
///
/// The socket-level twin of this scenario
/// (`flash_crowd_cache_converges_without_stale_serves` in
/// `tests/cluster_loopback.rs`) asserts the read path's cache absorbs
/// the crowd — hit rate converging, zero stale serves — via counters
/// scraped over the wire.
pub fn flash_crowd_request_load(
    catalog_size: usize,
    requests: usize,
    region_size: usize,
    seed: u64,
) -> Vec<FlashCrowdRow> {
    let switches = 25;
    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, seed));
    let pool = ServerPool::uniform(switches, 4, u64::MAX);
    let mut net = GredNetwork::build(topo, pool, GredConfig::default().seeded(seed))
        .expect("seeded network builds");

    let ids: Vec<DataId> = (0..catalog_size)
        .map(|k| DataId::new(format!("flash/{k:05}")))
        .collect();
    for (k, id) in ids.iter().enumerate() {
        net.place_replicated(id, Bytes::from_static(b"v"), 1, k % switches)
            .expect("catalog places");
    }
    // The viral key: placed like everything else, requested by nobody
    // until the flash phase.
    let viral = DataId::new("flash/viral");
    net.place_replicated(&viral, Bytes::from_static(b"breaking"), 1, 0)
        .expect("viral key places");

    let members = net.members().to_vec();
    let region: Vec<usize> = members.iter().copied().take(region_size.max(1)).collect();
    let total_servers = net.pool().total_servers();
    let mut rows = Vec::new();

    let run_phase = |phase: &'static str,
                     viral_copies: u32,
                     net: &GredNetwork,
                     seed_mix: u64|
     -> FlashCrowdRow {
        let mut zipf = ZipfPicker::new(catalog_size, 0.0, seed ^ seed_mix);
        let mut all_picker = AccessPicker::new(&members, seed ^ seed_mix ^ 29);
        let mut region_picker = AccessPicker::new(&region, seed ^ seed_mix ^ 31);
        let mut served: HashMap<gred_net::ServerId, u64> = HashMap::new();
        let mut toggle = 0u64;
        for _ in 0..requests {
            toggle = toggle.wrapping_add(1);
            // The flash phases route 80% of traffic at the viral key,
            // always entering through the region.
            let flash = phase != "background" && !toggle.is_multiple_of(5);
            let got = if flash {
                net.retrieve_nearest(&viral, viral_copies, region_picker.pick())
                    .expect("viral key retrieves")
            } else {
                net.retrieve_nearest(&ids[zipf.pick()], 1, all_picker.pick())
                    .expect("catalog retrieves")
            };
            *served.entry(got.server).or_default() += 1;
        }
        let peak = served.values().copied().max().unwrap_or(0);
        let mut loads: Vec<u64> = served.into_values().collect();
        loads.resize(total_servers.max(loads.len()), 0);
        FlashCrowdRow {
            phase,
            request_max_avg: max_avg(&loads),
            peak_share: peak as f64 / requests as f64,
        }
    };

    rows.push(run_phase("background", 1, &net, 41));
    rows.push(run_phase("flash", 1, &net, 43));
    // Operator response: replicate the viral key, crowd keeps coming.
    net.place_replicated(&viral, Bytes::from_static(b"breaking"), 4, 0)
        .expect("viral key re-replicates");
    rows.push(run_phase("flash+replicas", 4, &net, 47));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_concentrates_requests() {
        let rows = hotspot_request_load(&[0.0, 1.2], &[1], 200, 10, 3_000, 5);
        let uniform = rows
            .iter()
            .find(|r| r.zipf_s == 0.0)
            .unwrap()
            .request_max_avg;
        let skewed = rows
            .iter()
            .find(|r| r.zipf_s == 1.2)
            .unwrap()
            .request_max_avg;
        assert!(
            skewed > uniform,
            "zipf skew must concentrate request load: uniform {uniform:.2}, skewed {skewed:.2}"
        );
    }

    #[test]
    fn flash_crowd_concentrates_on_one_server() {
        let rows = flash_crowd_request_load(150, 3_000, 3, 7);
        let background = rows.iter().find(|r| r.phase == "background").unwrap();
        let flash = rows.iter().find(|r| r.phase == "flash").unwrap();
        assert!(
            flash.peak_share > background.peak_share,
            "a regional flash crowd must pile onto the viral key's server: \
             background peak share {:.3}, flash {:.3}",
            background.peak_share,
            flash.peak_share
        );
        assert!(
            flash.request_max_avg > background.request_max_avg,
            "flash must worsen request max/avg: background {:.2}, flash {:.2}",
            background.request_max_avg,
            flash.request_max_avg
        );
    }

    #[test]
    fn replicating_the_viral_key_tames_the_crowd() {
        let rows = flash_crowd_request_load(150, 3_000, 3, 8);
        let flash = rows.iter().find(|r| r.phase == "flash").unwrap();
        let healed = rows.iter().find(|r| r.phase == "flash+replicas").unwrap();
        assert!(
            healed.peak_share < flash.peak_share,
            "4 copies should shrink the busiest server's share: \
             flash {:.3}, with replicas {:.3}",
            flash.peak_share,
            healed.peak_share
        );
    }

    #[test]
    fn replicating_the_head_spreads_request_load() {
        let rows = hotspot_request_load(&[1.2], &[1, 4], 200, 10, 3_000, 6);
        let single = rows
            .iter()
            .find(|r| r.hot_replicas == 1)
            .unwrap()
            .request_max_avg;
        let quad = rows
            .iter()
            .find(|r| r.hot_replicas == 4)
            .unwrap()
            .request_max_avg;
        assert!(
            quad < single,
            "4 copies of hot items should cut request max/avg: {quad:.2} vs {single:.2}"
        );
    }
}
