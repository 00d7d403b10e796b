//! Quality bounds for the landmark (Nyström-style) embedding: the
//! subsampled MDS must preserve the pairwise-distance structure of the
//! full classical embedding, and greedy routing on a landmark-built
//! network must still deliver every request to the responsible server.
//!
//! Pairwise distances — not raw coordinates — are compared, because two
//! eigendecompositions may legitimately differ by rotation/reflection of
//! the plane; the distance matrix is the rotation-invariant artifact the
//! DT and greedy forwarding actually consume.

use gred::control::{m_position, m_position_landmark};
use gred::{GredConfig, GredNetwork};
use gred_hash::DataId;
use gred_net::{waxman_topology, ServerPool, WaxmanConfig};

/// All pairwise distances of an embedding, row-major upper triangle.
fn pairwise(positions: &[gred_geometry::Point2]) -> Vec<f64> {
    let mut out = Vec::new();
    for i in 0..positions.len() {
        for j in i + 1..positions.len() {
            out.push(positions[i].distance(positions[j]));
        }
    }
    out
}

/// Pearson correlation of two equally long samples.
fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
    let cov = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| (x - ma) * (y - mb))
        .sum::<f64>();
    let (va, vb) = (
        a.iter().map(|&x| (x - ma) * (x - ma)).sum::<f64>(),
        b.iter().map(|&y| (y - mb) * (y - mb)).sum::<f64>(),
    );
    cov / (va.sqrt() * vb.sqrt()).max(f64::MIN_POSITIVE)
}

#[test]
fn landmark_embedding_preserves_pairwise_structure() {
    // Dense Waxman graphs have a small hop diameter, so even the *full*
    // classical MDS achieves only moderate hop correlation at this size;
    // the meaningful property is therefore relative — the subsampled
    // embedding must stay close to whatever structure the full one
    // recovers — plus a bounded absolute distortion between the two.
    for (switches, k, seed) in [(120usize, 24usize, 7u64), (120, 24, 19), (120, 24, 42)] {
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, seed));
        let members: Vec<usize> = (0..switches).collect();

        let full = m_position(&topo, &members).expect("connected");
        let landmark = m_position_landmark(&topo, &members, k, seed, None).expect("connected");

        let df = pairwise(&full.positions);
        let dl = pairwise(&landmark.positions);

        // Positively related distance matrices: the landmark embedding
        // approximates the same metric structure, not an arbitrary
        // layout (empirical range on these graphs: 0.38–0.91).
        let r = correlation(&df, &dl);
        assert!(
            r > 0.3,
            "seed {seed}: landmark vs full pairwise correlation {r:.3} too low"
        );

        // Bounded mean relative distortion (both embeddings are
        // normalized to the same unit square, so scales are comparable).
        let mean_f = df.iter().sum::<f64>() / df.len() as f64;
        let mean_abs_err = df
            .iter()
            .zip(&dl)
            .map(|(&a, &b)| (a - b).abs())
            .sum::<f64>()
            / df.len() as f64;
        assert!(
            mean_abs_err / mean_f < 0.5,
            "seed {seed}: mean relative distortion {:.3} exceeds bound",
            mean_abs_err / mean_f
        );
    }
}

#[test]
fn landmark_embedding_tracks_hops_nearly_as_well_as_full_mds() {
    // The property the paper needs from M-position: virtual distance
    // grows with physical hop distance. The landmark approximation must
    // retain most of whatever hop correlation the exact embedding
    // achieves on the same graph (it cannot be *better* than the graph
    // allows, so the bound is relative to full MDS).
    for (switches, k, seed) in [(100usize, 20usize, 5u64), (120, 24, 7), (60, 12, 1)] {
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, seed));
        let members: Vec<usize> = (0..switches).collect();
        let full = m_position(&topo, &members).expect("connected");
        let lm = m_position_landmark(&topo, &members, k, seed, None).expect("connected");

        let mut hops_flat = Vec::new();
        let mut full_d = Vec::new();
        let mut lm_d = Vec::new();
        for i in 0..switches {
            let hops = topo.bfs_hops(i);
            for (j, &h) in hops.iter().enumerate().skip(i + 1) {
                hops_flat.push(f64::from(h));
                full_d.push(full.positions[i].distance(full.positions[j]));
                lm_d.push(lm.positions[i].distance(lm.positions[j]));
            }
        }
        let r_full = correlation(&hops_flat, &full_d);
        let r_lm = correlation(&hops_flat, &lm_d);
        assert!(
            r_lm > 0.75 * r_full,
            "sw={switches} seed={seed}: landmark hop correlation {r_lm:.3} \
             lost too much versus full MDS {r_full:.3}"
        );
        assert!(
            r_lm > 0.3,
            "sw={switches} seed={seed}: hop correlation {r_lm:.3} degenerate"
        );
    }
}

#[test]
fn greedy_routing_on_landmark_embedding_delivers_everything() {
    // End to end: a landmark-built network must route every placement
    // and retrieval to the provably responsible server, from arbitrary
    // access switches — the delivery guarantee does not depend on
    // embedding quality, only on the DT being a real triangulation.
    for (switches, landmarks, seed) in [(60, 12, 1u64), (90, 16, 2), (120, 24, 3)] {
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, seed));
        let pool = ServerPool::uniform(switches, 2, u64::MAX);
        let mut net = GredNetwork::build(
            topo,
            pool,
            GredConfig::with_iterations(10)
                .seeded(seed)
                .landmarks(landmarks),
        )
        .expect("landmark build");
        assert!(net.verify_invariants().is_empty());

        for i in 0..120 {
            let id = DataId::new(format!("lm-{switches}-{i}"));
            let predicted = net.responsible_server(&id);
            let receipt = net
                .place(&id, bytes::Bytes::new(), i % switches)
                .expect("placement routes");
            assert_eq!(receipt.primary, predicted, "switches={switches} key {i}");
            let got = net
                .retrieve(&id, (i * 7) % switches)
                .expect("retrieval routes");
            assert_eq!(got.server, predicted, "switches={switches} key {i}");
        }
    }
}
