//! Link-contention experiment (extension): GRED vs Chord completion
//! times when many requests share the network at once.
//!
//! The paper's stretch metric counts hops; under load, hops also cost
//! *link occupancy*. Chord's overlay detours traverse ~4× the links per
//! request, so at equal request rates Chord both (a) takes longer per
//! request at baseline and (b) builds deeper link queues. This experiment
//! drives both systems' actual request paths through the discrete-event
//! link simulator ([`gred_net::events`]) and reports mean completion
//! time.

use crate::report::{f3, Cells};
use crate::systems::{ComparedSystem, SystemUnderTest};
use crate::workload::{AccessPicker, ItemGenerator};
use gred_chord::ChordConfig;
use gred_chord::ChordNetwork;
use gred_net::{simulate_journeys, JourneySpec, LinkParams};
use serde::Serialize;

/// One plotted point of the contention experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ContentionRow {
    /// Requests injected into the fixed arrival window.
    pub requests: usize,
    /// System name.
    pub system: String,
    /// Mean request completion time in microseconds.
    pub mean_completion_us: f64,
}

impl Cells for ContentionRow {
    fn cells(&self) -> Vec<String> {
        vec![
            self.requests.to_string(),
            self.system.clone(),
            f3(self.mean_completion_us),
        ]
    }
}

/// Gathers the physical switch path of one request under each system.
fn request_path(
    sut: &SystemUnderTest,
    chord: Option<&ChordNetwork>,
    id: &gred_hash::DataId,
    access: usize,
) -> Vec<usize> {
    match (sut.as_gred(), chord) {
        (Some(net), _) => {
            let pos = net.position_of_id(id);
            gred::plane::forwarding::route(net.dataplanes(), access, pos, id)
                .expect("routes")
                .switches
        }
        (None, Some(ring)) => {
            // Expand the overlay path into the physical switch walk.
            let overlay = ring.lookup_path(access, id);
            let mut path = Vec::new();
            for w in overlay.windows(2) {
                let seg = sut
                    .topology()
                    .shortest_path(w[0].switch, w[1].switch)
                    .expect("connected");
                if path.is_empty() {
                    path.extend(seg);
                } else {
                    path.extend(seg.into_iter().skip(1));
                }
            }
            if path.is_empty() {
                path.push(access);
            }
            path
        }
        _ => unreachable!("one of the two systems is always present"),
    }
}

/// Injects each batch size uniformly over `window_us` and simulates the
/// request paths through the link-level simulator.
pub fn contention_completion(
    request_counts: &[usize],
    window_us: f64,
    params: LinkParams,
    seed: u64,
) -> Vec<ContentionRow> {
    let (topo, pool) = crate::experiments::substrate(30, 10, 3, seed);
    let gred = SystemUnderTest::build(
        topo.clone(),
        pool.clone(),
        ComparedSystem::Gred { iterations: 50 },
        seed,
    );
    let chord_sut = SystemUnderTest::build(
        topo.clone(),
        pool.clone(),
        ComparedSystem::Chord { virtual_nodes: 1 },
        seed,
    );
    let chord_ring = ChordNetwork::build(&pool, ChordConfig::default());

    let mut rows = Vec::new();
    for &requests in request_counts {
        for (name, sut, ring) in [
            ("GRED", &gred, None),
            ("Chord", &chord_sut, Some(&chord_ring)),
        ] {
            let mut gen = ItemGenerator::new(format!("cont-{name}-{requests}"));
            let members: Vec<usize> = (0..30).collect();
            let mut picker = AccessPicker::new(&members, seed ^ requests as u64);
            let specs: Vec<JourneySpec> = (0..requests)
                .map(|i| {
                    let id = gen.next_id();
                    let access = picker.pick();
                    JourneySpec {
                        start_us: window_us * (i as f64 / requests.max(1) as f64),
                        path: request_path(sut, ring, &id, access),
                    }
                })
                .collect();
            let done = simulate_journeys(&specs, params);
            let mean: f64 = done
                .iter()
                .zip(&specs)
                .map(|(d, s)| d - s.start_us)
                .sum::<f64>()
                / requests.max(1) as f64;
            rows.push(ContentionRow {
                requests,
                system: name.to_string(),
                mean_completion_us: mean,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gred_completes_faster_under_load() {
        let rows = contention_completion(&[400], 1_000.0, LinkParams::default(), 11);
        let gred = rows.iter().find(|r| r.system == "GRED").unwrap();
        let chord = rows.iter().find(|r| r.system == "Chord").unwrap();
        assert!(
            gred.mean_completion_us < chord.mean_completion_us,
            "GRED {:.0}us must beat Chord {:.0}us under contention",
            gred.mean_completion_us,
            chord.mean_completion_us
        );
    }

    #[test]
    fn load_increases_completion_time() {
        let rows = contention_completion(&[50, 2000], 500.0, LinkParams::default(), 13);
        let at = |req: usize, name: &str| {
            rows.iter()
                .find(|r| r.requests == req && r.system == name)
                .unwrap()
                .mean_completion_us
        };
        assert!(
            at(2000, "Chord") > at(50, "Chord"),
            "packing 40x the requests into the window must queue"
        );
    }
}
