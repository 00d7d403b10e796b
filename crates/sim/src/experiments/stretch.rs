//! Routing-stretch experiments: Figs. 9(a), 9(b), 9(c).

use crate::experiments::substrate;
use crate::metrics::MetricSeries;
use crate::report::{f3, Cells};
use crate::systems::{ComparedSystem, SystemUnderTest};
use crate::workload::{AccessPicker, ItemGenerator};
use gred_runtime::{default_threads, parallel_map};
use serde::Serialize;

/// One plotted point of a stretch figure.
#[derive(Debug, Clone, Serialize)]
pub struct StretchRow {
    /// X-axis value (number of switches, or minimum degree).
    pub x: usize,
    /// System name ("Chord", "GRED(T=50)", "GRED-NoCVT", …).
    pub system: String,
    /// Mean routing stretch over the sampled requests.
    pub mean: f64,
    /// 90% confidence half-width (the paper's error bars).
    pub ci90: f64,
}

impl Cells for StretchRow {
    fn cells(&self) -> Vec<String> {
        vec![
            self.x.to_string(),
            self.system.clone(),
            f3(self.mean),
            f3(self.ci90),
        ]
    }
}

/// The three systems every stretch figure compares.
pub fn standard_systems() -> Vec<ComparedSystem> {
    vec![
        ComparedSystem::Chord { virtual_nodes: 1 },
        ComparedSystem::Gred { iterations: 50 },
        ComparedSystem::Gred { iterations: 0 },
    ]
}

fn measure_stretch(sut: &SystemUnderTest, items: usize, seed: u64) -> MetricSeries {
    let members: Vec<usize> = (0..sut.topology().switch_count()).collect();
    let mut gen = ItemGenerator::new(format!("stretch-{seed}"));
    let mut picker = AccessPicker::new(&members, seed);
    (0..items)
        .map(|_| sut.request_stretch(&gen.next_id(), picker.pick()))
        .collect()
}

/// Fig. 9(a): routing stretch vs number of switches (10 servers each,
/// min degree 3, `items` random data items with random access points per
/// setting).
pub fn stretch_vs_network_size(sizes: &[usize], items: usize, seed: u64) -> Vec<StretchRow> {
    parallel_map(sizes.to_vec(), default_threads(), |n| {
        let (topo, pool) = substrate(n, 10, 3, seed ^ n as u64);
        standard_systems()
            .into_iter()
            .map(|system| {
                let sut = SystemUnderTest::build(topo.clone(), pool.clone(), system, seed);
                let series = measure_stretch(&sut, items, seed);
                StretchRow {
                    x: n,
                    system: system.name(),
                    mean: series.mean(),
                    ci90: series.ci90(),
                }
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Fig. 9(b): routing stretch vs minimum interconnection degree on a
/// 100-switch / 1000-server network.
pub fn stretch_vs_min_degree(
    degrees: &[usize],
    switches: usize,
    items: usize,
    seed: u64,
) -> Vec<StretchRow> {
    parallel_map(degrees.to_vec(), default_threads(), |d| {
        let (topo, pool) = substrate(switches, 10, d, seed ^ (d as u64) << 8);
        standard_systems()
            .into_iter()
            .map(|system| {
                let sut = SystemUnderTest::build(topo.clone(), pool.clone(), system, seed);
                let series = measure_stretch(&sut, items, seed);
                StretchRow {
                    x: d,
                    system: system.name(),
                    mean: series.mean(),
                    ci90: series.ci90(),
                }
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Fig. 9(c): GRED vs extended-GRED (data placed at a server connected to
/// a *neighbor* switch of the destination switch) vs Chord.
///
/// Extended-GRED requests travel the normal greedy route plus one link to
/// the takeover switch, and are judged against the shortest path from the
/// access switch to that takeover switch.
pub fn stretch_with_extension(sizes: &[usize], items: usize, seed: u64) -> Vec<StretchRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let (topo, pool) = substrate(n, 10, 3, seed ^ n as u64);
        let members: Vec<usize> = (0..n).collect();

        // Plain GRED and Chord baselines.
        for system in [
            ComparedSystem::Chord { virtual_nodes: 1 },
            ComparedSystem::Gred { iterations: 50 },
        ] {
            let sut = SystemUnderTest::build(topo.clone(), pool.clone(), system, seed);
            let series = measure_stretch(&sut, items, seed);
            rows.push(StretchRow {
                x: n,
                system: system.name(),
                mean: series.mean(),
                ci90: series.ci90(),
            });
        }

        // Extended-GRED: every placement redirected one hop past the
        // destination switch.
        let sut = SystemUnderTest::build(
            topo.clone(),
            pool.clone(),
            ComparedSystem::Gred { iterations: 50 },
            seed,
        );
        let net = sut.as_gred().expect("gred variant");
        let mut gen = ItemGenerator::new(format!("ext-{seed}"));
        let mut picker = AccessPicker::new(&members, seed);
        let mut series = MetricSeries::new();
        for _ in 0..items {
            let id = gen.next_id();
            let access = picker.pick();
            let pos = net.position_of_id(&id);
            let route = gred::plane::forwarding::route(net.dataplanes(), access, pos, &id)
                .expect("routing succeeds");
            // Takeover switch: the destination's first physical neighbor
            // (the controller would pick the least-loaded one; any
            // neighbor is one link away, which is what stretch measures).
            let takeover = topo
                .neighbors(route.dest)
                .next()
                .expect("min-degree-3 switches have neighbors");
            let actual = route.physical_hops() + 1;
            let shortest = topo
                .shortest_path(access, takeover)
                .expect("connected")
                .len() as u32
                - 1;
            series.push(crate::metrics::stretch(actual, shortest));
        }
        rows.push(StretchRow {
            x: n,
            system: "extended-GRED".to_string(),
            mean: series.mean(),
            ci90: series.ci90(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9a_shape_holds_at_small_scale() {
        let rows = stretch_vs_network_size(&[20, 40], 30, 7);
        assert_eq!(rows.len(), 6);
        for n in [20usize, 40] {
            let get = |name: &str| {
                rows.iter()
                    .find(|r| r.x == n && r.system == name)
                    .unwrap_or_else(|| panic!("missing {name} at {n}"))
                    .mean
            };
            let chord = get("Chord");
            let gred = get("GRED(T=50)");
            let nocvt = get("GRED-NoCVT");
            assert!(gred < chord, "n={n}: GRED {gred:.2} !< Chord {chord:.2}");
            assert!(nocvt < chord, "n={n}: NoCVT {nocvt:.2} !< Chord {chord:.2}");
            assert!(gred < 2.5, "n={n}: GRED stretch too high: {gred:.2}");
        }
    }

    #[test]
    fn fig9b_gred_beats_chord_across_degrees() {
        let rows = stretch_vs_min_degree(&[3, 6], 30, 20, 11);
        for d in [3usize, 6] {
            let chord = rows
                .iter()
                .find(|r| r.x == d && r.system == "Chord")
                .unwrap()
                .mean;
            let gred = rows
                .iter()
                .find(|r| r.x == d && r.system == "GRED(T=50)")
                .unwrap()
                .mean;
            assert!(gred < chord, "degree {d}");
        }
    }

    #[test]
    fn fig9c_extension_costs_little() {
        let rows = stretch_with_extension(&[25], 30, 13);
        let gred = rows.iter().find(|r| r.system == "GRED(T=50)").unwrap().mean;
        let ext = rows
            .iter()
            .find(|r| r.system == "extended-GRED")
            .unwrap()
            .mean;
        let chord = rows.iter().find(|r| r.system == "Chord").unwrap().mean;
        assert!(
            ext >= gred * 0.8,
            "extension should not reduce stretch much"
        );
        assert!(ext < chord, "extended-GRED must still beat Chord");
    }
}
