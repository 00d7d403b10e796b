//! Embedding-quality ablation (DESIGN.md Section 5): how much of GRED's
//! stretch comes from the M-position embedding vs the greedy routing
//! itself?
//!
//! We compare three coordinate sources over the same Waxman topology:
//!
//! 1. **M-position** (the paper): MDS over the hop matrix,
//! 2. **oracle**: the topology generator's true plane coordinates (the
//!    Waxman model links near nodes, so these are near-ideal greedy
//!    coordinates),
//! 3. **random**: uniform random positions (a lower bound showing what
//!    happens without any embedding).
//!
//! The DT guarantees delivery under all three — only the path quality
//! changes — which cleanly separates the embedding's contribution.

use crate::metrics::MetricSeries;
use crate::report::{f3, Cells};
use crate::workload::{AccessPicker, ItemGenerator};
use gred::{GredConfig, GredNetwork};
use gred_geometry::Point2;
use gred_net::{waxman_topology, ServerPool, WaxmanConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// One row of the embedding ablation.
#[derive(Debug, Clone, Serialize)]
pub struct EmbeddingRow {
    /// Number of switches.
    pub switches: usize,
    /// Coordinate source ("m-position", "oracle", "random").
    pub source: String,
    /// Mean routing stretch.
    pub mean: f64,
    /// 90% confidence half-width.
    pub ci90: f64,
}

impl Cells for EmbeddingRow {
    fn cells(&self) -> Vec<String> {
        vec![
            self.switches.to_string(),
            self.source.clone(),
            f3(self.mean),
            f3(self.ci90),
        ]
    }
}

fn measure(net: &GredNetwork, items: usize, seed: u64) -> MetricSeries {
    let members = net.members().to_vec();
    let mut gen = ItemGenerator::new(format!("emb-{seed}"));
    let mut picker = AccessPicker::new(&members, seed);
    (0..items)
        .map(|_| {
            let id = gen.next_id();
            let access = picker.pick();
            let pos = net.position_of_id(&id);
            let route =
                gred::plane::forwarding::route(net.dataplanes(), access, pos, &id).expect("routes");
            let shortest = net
                .topology()
                .shortest_path(access, route.dest)
                .expect("connected")
                .len() as u32
                - 1;
            crate::metrics::stretch(route.physical_hops(), shortest)
        })
        .collect()
}

/// Runs the ablation at each network size. C-regulation is disabled for
/// all three sources so only the raw coordinates differ.
pub fn embedding_ablation(sizes: &[usize], items: usize, seed: u64) -> Vec<EmbeddingRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let (topo, coords) = waxman_topology(&WaxmanConfig::with_switches(n, seed ^ n as u64));
        let pool = ServerPool::uniform(n, 4, u64::MAX);
        let config = GredConfig::no_cvt().seeded(seed);

        let m_position =
            GredNetwork::build(topo.clone(), pool.clone(), config.clone()).expect("builds");

        let oracle_positions: Vec<Point2> = coords
            .iter()
            .map(|&(x, y)| Point2::new(x.clamp(0.01, 0.99), y.clamp(0.01, 0.99)))
            .collect();
        let oracle = GredNetwork::build_with_positions(
            topo.clone(),
            pool.clone(),
            &oracle_positions,
            config.clone(),
        )
        .expect("builds");

        let mut rng = StdRng::seed_from_u64(seed);
        let random_positions: Vec<Point2> = (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let random = GredNetwork::build_with_positions(topo, pool, &random_positions, config)
            .expect("builds");

        for (net, source) in [
            (&m_position, "m-position"),
            (&oracle, "oracle"),
            (&random, "random"),
        ] {
            let series = measure(net, items, seed);
            rows.push(EmbeddingRow {
                switches: n,
                source: source.to_string(),
                mean: series.mean(),
                ci90: series.ci90(),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_beats_random_and_tracks_oracle() {
        let rows = embedding_ablation(&[40], 40, 9);
        let get = |s: &str| rows.iter().find(|r| r.source == s).unwrap().mean;
        let m = get("m-position");
        let oracle = get("oracle");
        let random = get("random");
        assert!(
            m < random,
            "M-position ({m:.2}) must beat random coordinates ({random:.2})"
        );
        // The embedding should recover most of the oracle's quality.
        assert!(
            m < oracle * 2.0,
            "M-position ({m:.2}) should be within 2x of the oracle ({oracle:.2})"
        );
    }

    #[test]
    fn all_sources_deliver() {
        // Delivery (hence a finite stretch) holds for every source — the
        // DT guarantee is coordinate-agnostic.
        for row in embedding_ablation(&[20], 25, 11) {
            assert!(row.mean >= 1.0);
            assert!(row.mean.is_finite());
        }
    }
}
