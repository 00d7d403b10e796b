//! Centroidal Voronoi tessellation: Lloyd iteration and the paper's
//! sampling-based C-regulation method (Algorithm 1, Section IV-B).
//!
//! The M-position embedding fixes switch positions by network distance only;
//! their Voronoi cells then have unequal areas, so uniformly-hashed data
//! load is unbalanced. A centroidal Voronoi tessellation (every site at the
//! centroid of its own cell) is the minimizer of the CVT energy
//! `F = Σ_i ∫_{R_i} ρ(r) |r - q_i|² dr`, and its cells are far more uniform.
//!
//! The paper refines positions with a *sampling* estimate: each iteration
//! draws `samples` uniform points, assigns each to its nearest site, and
//! moves every site toward the centroid of its assigned samples
//! ([`c_regulation`]); [`cvt_energy_exact`] scores the result.
//!
//! A Lloyd step moves density about one cell (Du, Emelianenko & Ju, SIAM
//! J. Numer. Anal. 2006), so `T` steps cannot spread `n` sites packed into
//! a few cells across a square `√n` cells wide. The raw MDS embedding of a
//! 2,000-switch network is such a start: 91 % of the sites sit within 0.28
//! of the centre, and the largest cell is 135× the average. So when
//! `T² < n` ([`CRegulationConfig::equalizes`]) the steps start from
//! [`rank_equalize`]d sites, which keep each axis's order but fill the
//! square; otherwise they start from the sites as given.

use crate::point::nearest_index;
use crate::voronoi::voronoi_cells;
use crate::{Point2, Polygon};
use rand::Rng;

/// Configuration of the C-regulation refinement.
#[derive(Debug, Clone, PartialEq)]
pub struct CRegulationConfig {
    /// Number of refinement iterations `T` (the paper sweeps 0–100; its
    /// default GRED configuration uses 50).
    pub iterations: usize,
    /// Uniform sample points drawn per iteration (paper: 1000).
    pub samples_per_iteration: usize,
}

impl Default for CRegulationConfig {
    /// The paper's defaults: `T = 50`, 1000 samples.
    fn default() -> Self {
        CRegulationConfig {
            iterations: 50,
            samples_per_iteration: 1000,
        }
    }
}

impl CRegulationConfig {
    /// A configuration running exactly `iterations` iterations with the
    /// paper's sample count.
    pub fn with_iterations(iterations: usize) -> Self {
        CRegulationConfig {
            iterations,
            ..CRegulationConfig::default()
        }
    }

    /// Whether `n` sites start from [`rank_equalize`]: `iterations` is
    /// nonzero but `iterations² < n`, too few steps to move density
    /// across a square `√n` cells wide.
    pub fn equalizes(&self, n: usize) -> bool {
        self.iterations > 0 && self.iterations.saturating_mul(self.iterations) < n
    }
}

/// Each coordinate replaced by its rank on its axis, spread evenly over
/// (0, 1) as `(rank + 0.5) / n`. Each axis keeps its order (ties broken
/// by the other coordinate, then by index), so no two outputs share a
/// row or column of the `n × n` rank grid.
///
/// ```
/// use gred_geometry::{cvt::rank_equalize, Point2};
/// let sites = vec![Point2::new(0.5, 0.9), Point2::new(0.49, 0.1)];
/// assert_eq!(
///     rank_equalize(&sites),
///     vec![Point2::new(0.75, 0.75), Point2::new(0.25, 0.25)]
/// );
/// ```
pub fn rank_equalize(sites: &[Point2]) -> Vec<Point2> {
    let spread = |rank: usize| (rank as f64 + 0.5) / sites.len() as f64;
    let transposed = |i: usize| Point2::new(sites[i].y, sites[i].x);
    let mut out = vec![Point2::ORIGIN; sites.len()];
    let mut order: Vec<usize> = (0..sites.len()).collect();
    order.sort_by(|&a, &b| sites[a].lex_cmp(sites[b]));
    for (rank, &i) in order.iter().enumerate() {
        out[i].x = spread(rank);
    }
    order.sort_by(|&a, &b| transposed(a).lex_cmp(transposed(b)));
    for (rank, &i) in order.iter().enumerate() {
        out[i].y = spread(rank);
    }
    out
}

/// The exact CVT energy `Σ_i ∫_{R_i} |r - q_i|² dr` of `sites` in `bounds`
/// under uniform density.
pub fn cvt_energy_exact(sites: &[Point2], bounds: &Polygon) -> f64 {
    voronoi_cells(sites, bounds)
        .iter()
        .zip(sites)
        .map(|(cell, &site)| cell.second_moment_about(site))
        .sum()
}

/// The paper's C-regulation refinement (Algorithm 1).
///
/// Runs `config.iterations` iterations; each draws
/// `config.samples_per_iteration` uniform sample points in the unit square,
/// assigns every sample to its nearest site, and moves each site to the
/// centroid of its assigned samples. When [`CRegulationConfig::equalizes`]
/// holds for the site count, the iterations start from
/// [`rank_equalize`]d sites.
///
/// Returns the refined sites (always the same count as the input, in the
/// same order). With `config.iterations == 0` the input is returned
/// unchanged — that is exactly the paper's GRED-NoCVT variant.
///
/// ```
/// use gred_geometry::{c_regulation, CRegulationConfig, Point2};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let sites = vec![
///     Point2::new(0.01, 0.01),
///     Point2::new(0.02, 0.01),
///     Point2::new(0.01, 0.02),
/// ];
/// let refined = c_regulation(&sites, &CRegulationConfig::with_iterations(30), &mut rng);
/// // Clustered sites spread out toward a balanced tessellation.
/// let spread = refined[0].distance(refined[1]);
/// assert!(spread > 0.1);
/// ```
pub fn c_regulation(
    sites: &[Point2],
    config: &CRegulationConfig,
    rng: &mut impl Rng,
) -> Vec<Point2> {
    c_regulation_with(sites, config, rng, 1)
}

/// Fixed sample-batch size for the parallel assignment fan-out.
///
/// Samples are accumulated per batch and the partial sums merged in batch
/// order, so the floating-point association — and therefore the refined
/// positions, bit for bit — depends only on this constant, never on the
/// thread count.
const SAMPLE_BATCH: usize = 256;

/// [`c_regulation`] with the nearest-site assignment of each iteration
/// fanned out over `threads` worker threads.
///
/// Determinism: all of an iteration's samples are drawn from `rng`
/// *before* the fan-out (the consumed stream is independent of the thread
/// count), and the per-batch partial sums are merged in batch order, so
/// `threads = 1` and `threads = N` produce bit-identical positions for
/// the same seed.
pub fn c_regulation_with(
    sites: &[Point2],
    config: &CRegulationConfig,
    rng: &mut impl Rng,
    threads: usize,
) -> Vec<Point2> {
    if sites.is_empty() {
        return Vec::new();
    }
    let mut current = if config.equalizes(sites.len()) {
        rank_equalize(sites)
    } else {
        sites.to_vec()
    };
    for _ in 0..config.iterations {
        let samples: Vec<Point2> = (0..config.samples_per_iteration)
            .map(|_| Point2::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();

        let sites_now = &current;
        let partials = gred_runtime::parallel_map(
            samples.chunks(SAMPLE_BATCH).collect::<Vec<_>>(),
            threads,
            |batch: &[Point2]| {
                let mut sums = vec![Point2::ORIGIN; sites_now.len()];
                let mut counts = vec![0usize; sites_now.len()];
                for &p in batch {
                    let k = nearest_index(sites_now, p).expect("sites nonempty");
                    sums[k] = sums[k] + p;
                    counts[k] += 1;
                }
                (sums, counts)
            },
        );

        let mut sums = vec![Point2::ORIGIN; current.len()];
        let mut counts = vec![0usize; current.len()];
        for (batch_sums, batch_counts) in partials {
            for k in 0..current.len() {
                sums[k] = sums[k] + batch_sums[k];
                counts[k] += batch_counts[k];
            }
        }

        for k in 0..current.len() {
            if counts[k] > 0 {
                current[k] = sums[k] * (1.0 / counts[k] as f64);
            }
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_sites(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect()
    }

    fn cell_area_imbalance(sites: &[Point2]) -> f64 {
        let cells = voronoi_cells(sites, &Polygon::unit_square());
        let areas: Vec<f64> = cells.iter().map(Polygon::area).collect();
        let avg = areas.iter().sum::<f64>() / areas.len() as f64;
        areas.iter().cloned().fold(0.0, f64::max) / avg
    }

    #[test]
    fn zero_iterations_is_identity() {
        let sites = random_sites(10, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let out = c_regulation(&sites, &CRegulationConfig::with_iterations(0), &mut rng);
        assert_eq!(out, sites);
    }

    #[test]
    fn empty_sites_ok() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(c_regulation(&[], &CRegulationConfig::default(), &mut rng).is_empty());
    }

    #[test]
    fn regulation_improves_balance() {
        let sites = random_sites(20, 7);
        let before = cell_area_imbalance(&sites);
        let mut rng = StdRng::seed_from_u64(3);
        let refined = c_regulation(&sites, &CRegulationConfig::with_iterations(50), &mut rng);
        let after = cell_area_imbalance(&refined);
        assert!(
            after < before,
            "imbalance should drop: before={before}, after={after}"
        );
        assert!(
            after < 2.0,
            "after 50 iterations max/avg area should be < 2, got {after}"
        );
    }

    #[test]
    fn regulation_reduces_exact_energy() {
        let sites = random_sites(16, 11);
        let square = Polygon::unit_square();
        let before = cvt_energy_exact(&sites, &square);
        let mut rng = StdRng::seed_from_u64(5);
        let refined = c_regulation(&sites, &CRegulationConfig::with_iterations(40), &mut rng);
        let after = cvt_energy_exact(&refined, &square);
        assert!(after < before, "energy: before={before}, after={after}");
    }

    #[test]
    fn more_iterations_do_not_hurt() {
        let sites = random_sites(15, 13);
        let mut rng10 = StdRng::seed_from_u64(6);
        let mut rng50 = StdRng::seed_from_u64(6);
        let square = Polygon::unit_square();
        let t10 = c_regulation(&sites, &CRegulationConfig::with_iterations(10), &mut rng10);
        let t50 = c_regulation(&sites, &CRegulationConfig::with_iterations(50), &mut rng50);
        // Sampled refinement fluctuates; allow slack but expect the trend.
        assert!(cvt_energy_exact(&t50, &square) < cvt_energy_exact(&t10, &square) * 1.15);
    }

    #[test]
    fn too_few_iterations_start_from_the_rank_grid() {
        // With no samples no site moves, so the output is the start.
        let cfg = CRegulationConfig {
            iterations: 2,
            samples_per_iteration: 0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let four = random_sites(4, 2);
        assert!(!cfg.equalizes(4));
        assert_eq!(c_regulation(&four, &cfg, &mut rng), four);
        let five = random_sites(5, 2);
        assert!(cfg.equalizes(5));
        assert_eq!(c_regulation(&five, &cfg, &mut rng), rank_equalize(&five));
        assert!(!CRegulationConfig::with_iterations(0).equalizes(5));
    }

    #[test]
    fn rank_equalize_keeps_axis_order_on_the_rank_grid() {
        let sites = random_sites(40, 3);
        let out = rank_equalize(&sites);
        let grid: Vec<f64> = (0..40).map(|r| (r as f64 + 0.5) / 40.0).collect();
        for axis in [|p: Point2| p.x, |p: Point2| p.y] {
            let mut got: Vec<f64> = out.iter().map(|&p| axis(p)).collect();
            got.sort_by(f64::total_cmp);
            assert_eq!(got, grid);
            for (a, b) in sites.iter().zip(&out) {
                for (c, d) in sites.iter().zip(&out) {
                    assert_eq!(axis(*a) < axis(*c), axis(*b) < axis(*d));
                }
            }
        }
    }

    #[test]
    fn rank_equalize_commutes_with_permutation() {
        let sites = random_sites(30, 5);
        let out = rank_equalize(&sites);
        let perm: Vec<usize> = (0..30).map(|i| i * 7 % 30).collect();
        let permuted: Vec<Point2> = perm.iter().map(|&i| sites[i]).collect();
        let expected: Vec<Point2> = perm.iter().map(|&i| out[i]).collect();
        assert_eq!(rank_equalize(&permuted), expected);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // 18 sites at T = 15 start as given; 60 at T = 5 from the rank grid.
        for (n, iterations) in [(18, 15), (60, 5)] {
            let sites = random_sites(n, 41);
            let cfg = CRegulationConfig::with_iterations(iterations);
            let mut rng = StdRng::seed_from_u64(12);
            let serial = c_regulation_with(&sites, &cfg, &mut rng, 1);
            for threads in [2usize, 3, 8] {
                let mut rng = StdRng::seed_from_u64(12);
                let parallel = c_regulation_with(&sites, &cfg, &mut rng, threads);
                assert_eq!(
                    serial, parallel,
                    "n={n} threads={threads} diverged bit-wise"
                );
            }
        }
    }

    #[test]
    fn sites_stay_in_unit_square() {
        let sites = random_sites(25, 31);
        let mut rng = StdRng::seed_from_u64(10);
        let refined = c_regulation(&sites, &CRegulationConfig::default(), &mut rng);
        for p in &refined {
            assert!((0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y));
        }
    }
}
