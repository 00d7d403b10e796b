//! Uniform drivers for the compared systems.
//!
//! Every experiment compares some subset of GRED, GRED-NoCVT, and Chord
//! over the *same* topology and server pool. [`SystemUnderTest`] gives the
//! experiments one interface for the two operations every figure needs:
//! "which server owns this id" (load experiments) and "how many hops does
//! a request take vs the shortest path" (stretch experiments).

use gred::{GredConfig, GredNetwork};
use gred_chord::{overlay_path_physical_hops, ChordConfig, ChordNetwork};
use gred_hash::DataId;
use gred_net::{ServerId, ServerPool, Topology};

/// Which system an experiment instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComparedSystem {
    /// GRED with `iterations` C-regulation iterations. `iterations = 0`
    /// is the paper's GRED-NoCVT variant.
    Gred {
        /// The `T` knob of Fig. 11(c).
        iterations: usize,
    },
    /// Chord with `virtual_nodes` virtual nodes per server (1 = plain).
    Chord {
        /// Virtual nodes per server.
        virtual_nodes: usize,
    },
}

impl ComparedSystem {
    /// The display name used in tables ("GRED", "GRED-NoCVT", "Chord").
    pub fn name(&self) -> String {
        match self {
            ComparedSystem::Gred { iterations: 0 } => "GRED-NoCVT".to_string(),
            ComparedSystem::Gred { iterations } => format!("GRED(T={iterations})"),
            ComparedSystem::Chord { virtual_nodes: 1 } => "Chord".to_string(),
            ComparedSystem::Chord { virtual_nodes } => format!("Chord(v={virtual_nodes})"),
        }
    }
}

/// One instantiated system over a topology + pool.
#[derive(Debug)]
pub struct SystemUnderTest {
    topology: Topology,
    total_servers: usize,
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    Gred(Box<GredNetwork>),
    Chord(ChordNetwork),
}

impl SystemUnderTest {
    /// Builds `system` over the given substrate.
    ///
    /// # Panics
    ///
    /// Panics when the underlying build fails (the experiment substrates
    /// are always valid: connected topologies, every switch with servers).
    pub fn build(topology: Topology, pool: ServerPool, system: ComparedSystem, seed: u64) -> Self {
        let total_servers = pool.total_servers();
        let inner = match system {
            ComparedSystem::Gred { iterations } => {
                let config = GredConfig::with_iterations(iterations).seeded(seed);
                let net = GredNetwork::build(topology.clone(), pool, config)
                    .expect("experiment substrate builds");
                Inner::Gred(Box::new(net))
            }
            ComparedSystem::Chord { virtual_nodes } => {
                let chord = ChordNetwork::build(&pool, ChordConfig { virtual_nodes });
                Inner::Chord(chord)
            }
        };
        SystemUnderTest {
            topology,
            total_servers,
            inner,
        }
    }

    /// The physical topology the system runs over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The number of servers in the pool the system was built over.
    pub(crate) fn total_servers(&self) -> usize {
        self.total_servers
    }

    /// The server that owns `id` (no data is stored; used for load
    /// accounting at scale).
    pub fn owner_server(&self, id: &DataId) -> ServerId {
        match &self.inner {
            Inner::Gred(net) => net.responsible_server(id),
            Inner::Chord(chord) => chord.owner(id),
        }
    }

    /// Request hop counts for retrieving `id` from `access_switch`:
    /// `(actual_hops, shortest_hops)` where `shortest` is the direct
    /// shortest path from the access switch to the owner switch.
    pub fn request_hops(&self, id: &DataId, access_switch: usize) -> (u32, u32) {
        match &self.inner {
            Inner::Gred(net) => {
                let pos = net.position_of_id(id);
                let route =
                    gred::plane::forwarding::route(net.dataplanes(), access_switch, pos, id)
                        .expect("routing over installed state succeeds");
                let shortest = self
                    .topology
                    .shortest_path(access_switch, route.dest)
                    .expect("connected topology")
                    .len() as u32
                    - 1;
                (route.physical_hops(), shortest)
            }
            Inner::Chord(chord) => {
                let path = chord.lookup_path(access_switch, id);
                let actual =
                    overlay_path_physical_hops(&self.topology, &path).expect("connected topology");
                let owner = path.last().expect("path is nonempty");
                let shortest = self
                    .topology
                    .shortest_path(access_switch, owner.switch)
                    .expect("connected topology")
                    .len() as u32
                    - 1;
                (actual, shortest)
            }
        }
    }

    /// Routing stretch for one request (1.0 when the owner is the access
    /// switch itself).
    pub fn request_stretch(&self, id: &DataId, access_switch: usize) -> f64 {
        let (actual, shortest) = self.request_hops(id, access_switch);
        crate::metrics::stretch(actual, shortest)
    }

    /// Access to the GRED network when the system is a GRED variant.
    pub fn as_gred(&self) -> Option<&GredNetwork> {
        match &self.inner {
            Inner::Gred(net) => Some(net),
            Inner::Chord(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gred_net::{waxman_topology, WaxmanConfig};

    fn substrate(n: usize, seed: u64) -> (Topology, ServerPool) {
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(n, seed));
        (topo, ServerPool::uniform(n, 10, u64::MAX))
    }

    #[test]
    fn names() {
        assert_eq!(ComparedSystem::Gred { iterations: 0 }.name(), "GRED-NoCVT");
        assert_eq!(ComparedSystem::Gred { iterations: 50 }.name(), "GRED(T=50)");
        assert_eq!(ComparedSystem::Chord { virtual_nodes: 1 }.name(), "Chord");
        assert_eq!(
            ComparedSystem::Chord { virtual_nodes: 4 }.name(),
            "Chord(v=4)"
        );
    }

    #[test]
    fn owner_is_deterministic_and_matches_routing() {
        let (topo, pool) = substrate(20, 1);
        let sut = SystemUnderTest::build(topo, pool, ComparedSystem::Gred { iterations: 10 }, 1);
        let net = sut.as_gred().unwrap();
        for i in 0..40 {
            let id = DataId::new(format!("own{i}"));
            assert_eq!(sut.owner_server(&id), net.responsible_server(&id));
        }
    }

    #[test]
    fn gred_stretch_is_low_chord_higher() {
        let (topo, pool) = substrate(40, 2);
        let gred = SystemUnderTest::build(
            topo.clone(),
            pool.clone(),
            ComparedSystem::Gred { iterations: 10 },
            2,
        );
        let chord =
            SystemUnderTest::build(topo, pool, ComparedSystem::Chord { virtual_nodes: 1 }, 2);
        let mut g_total = 0.0;
        let mut c_total = 0.0;
        let n = 50;
        for i in 0..n {
            let id = DataId::new(format!("st{i}"));
            let access = (i * 3) % 40;
            g_total += gred.request_stretch(&id, access);
            c_total += chord.request_stretch(&id, access);
        }
        let (g, c) = (g_total / n as f64, c_total / n as f64);
        assert!(g < c, "GRED stretch {g:.2} must beat Chord {c:.2}");
        assert!(g < 2.0, "GRED stretch should be small, got {g:.2}");
    }

    #[test]
    fn chord_owner_ignores_access_point() {
        let (topo, pool) = substrate(15, 3);
        let sut = SystemUnderTest::build(topo, pool, ComparedSystem::Chord { virtual_nodes: 1 }, 3);
        let id = DataId::new("fixed");
        let owner = sut.owner_server(&id);
        for access in 0..15 {
            let path_owner = sut.request_hops(&id, access);
            // The stretch call must not panic and the owner stays fixed.
            let _ = path_owner;
            assert_eq!(sut.owner_server(&id), owner);
        }
    }
}
