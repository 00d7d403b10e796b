//! Property-based check that the landmark knob is a no-op on networks too
//! small to subsample: both builds run the one M-position
//! (`m_position_landmark`) with every member a landmark, so for any
//! topology and seed a build asking for more landmarks than members
//! ignores the landmark seed and is bit-identical to the `landmarks:
//! None` build — same virtual positions, same Delaunay adjacency, same
//! installed forwarding entries on every switch.

use gred::{GredConfig, GredNetwork};
use gred_dataplane::{DtTuple, NeighborEntry};
use gred_geometry::Point2;
use gred_net::{waxman_topology, ServerPool, WaxmanConfig};
use proptest::prelude::*;

type Fingerprint = (
    Vec<(usize, Point2)>,
    Vec<(usize, usize)>,
    Vec<(Vec<NeighborEntry>, Vec<DtTuple>)>,
);

/// Every artifact the build pipeline produces, in a directly comparable
/// form. Relay tables are BTreeMap-backed, so iteration order is already
/// canonical.
fn fingerprint(net: &GredNetwork) -> Fingerprint {
    let positions = net
        .members()
        .iter()
        .map(|&m| (m, net.position_of_switch(m).expect("member has a position")))
        .collect();
    let edges = net.dt().edges();
    let tables = net
        .dataplanes()
        .iter()
        .map(|dp| {
            (
                dp.neighbor_entries().copied().collect::<Vec<_>>(),
                dp.relay_entries().copied().collect::<Vec<_>>(),
            )
        })
        .collect();
    (positions, edges, tables)
}

/// The seeded Waxman build, embedded on `landmarks` when given.
fn build(switches: usize, seed: u64, landmarks: Option<usize>) -> GredNetwork {
    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, seed));
    let pool = ServerPool::uniform(switches, 2, u64::MAX);
    let config = GredConfig {
        landmarks,
        ..GredConfig::with_iterations(5).seeded(seed)
    };
    GredNetwork::build(topo, pool, config).expect("Waxman topologies are connected")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// When `k >= members`, the landmark knob must be a no-op: an
    /// oversized `k` ignores the landmark seed and equals `landmarks:
    /// None` bit for bit.
    #[test]
    fn oversized_landmark_count_falls_back_to_exact(
        switches in 5usize..20,
        seed in 0u64..1000,
    ) {
        let exact = fingerprint(&build(switches, seed, None));
        let fallback = fingerprint(&build(switches, seed, Some(100)));
        prop_assert_eq!(exact, fallback);
    }
}
