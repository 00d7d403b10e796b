//! C-regulation in the controller: CVT refinement of the embedded
//! positions (paper Section IV-B, Algorithm 1).
//!
//! The heavy lifting lives in [`gred_geometry::c_regulation`]; the
//! controller wrapper seeds the sampler deterministically, keeps positions
//! inside the unit square, and re-separates any positions that the
//! sampling step left coincident (a site that attracted no samples does
//! not move).
//!
//! When `T² < n` ([`CRegulationConfig::equalizes`]) the steps start from
//! the rank grid (see [`gred_geometry::cvt`]); that stretches virtual
//! distances, so the builder then refits the joiners' hop-to-virtual
//! scale (`embedding::fit_scale`).

use crate::control::embedding::separate_duplicates;
use gred_geometry::{c_regulation, CRegulationConfig, Point2};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Refines `positions` with `config.iterations` C-regulation iterations,
/// deterministically for a given `seed`. Zero iterations returns the input
/// unchanged (the GRED-NoCVT variant).
pub fn refine_positions(
    positions: &[Point2],
    config: &CRegulationConfig,
    seed: u64,
) -> Vec<Point2> {
    if config.iterations == 0 || positions.len() < 2 {
        return positions.to_vec();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut refined = c_regulation(positions, config, &mut rng);
    for p in &mut refined {
        *p = p.clamp_to(0.001, 0.999);
    }
    separate_duplicates(&mut refined);
    refined
}

#[cfg(test)]
mod tests {
    use super::*;
    use gred_geometry::{cvt_energy_exact, Polygon};
    use rand::Rng;

    fn random_positions(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect()
    }

    #[test]
    fn zero_iterations_is_identity() {
        let pts = random_positions(10, 1);
        let cfg = CRegulationConfig::with_iterations(0);
        assert_eq!(refine_positions(&pts, &cfg, 42), pts);
    }

    #[test]
    fn deterministic_for_seed() {
        let pts = random_positions(12, 2);
        let cfg = CRegulationConfig::with_iterations(20);
        assert_eq!(
            refine_positions(&pts, &cfg, 7),
            refine_positions(&pts, &cfg, 7)
        );
        assert_ne!(
            refine_positions(&pts, &cfg, 7),
            refine_positions(&pts, &cfg, 8)
        );
    }

    #[test]
    fn refinement_lowers_cvt_energy() {
        let pts = random_positions(15, 3);
        let cfg = CRegulationConfig::with_iterations(40);
        let refined = refine_positions(&pts, &cfg, 5);
        let square = Polygon::unit_square();
        assert!(cvt_energy_exact(&refined, &square) < cvt_energy_exact(&pts, &square));
    }

    #[test]
    fn output_stays_distinct_and_in_bounds() {
        let pts = random_positions(20, 4);
        let refined = refine_positions(&pts, &CRegulationConfig::with_iterations(30), 6);
        for (i, p) in refined.iter().enumerate() {
            assert!((0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y));
            for q in &refined[i + 1..] {
                assert!(p.distance(*q) > 1e-5);
            }
        }
    }

    #[test]
    fn enough_iterations_keep_the_sampled_path_bit_for_bit() {
        // Fingerprints of the positions the sampled steps alone produced
        // from these inputs; with T² ≥ n the rank start must not run.
        for (n, iterations, want) in [
            (16, 4, 0xa169_41e2_5a17_7728_u64),
            (100, 10, 0x7690_5fbf_d93b_0d4b),
            (12, 20, 0x8c5b_6b9a_25d7_4ca7),
        ] {
            let pts = random_positions(n, n as u64);
            let cfg = CRegulationConfig::with_iterations(iterations);
            let got = refine_positions(&pts, &cfg, 3);
            let fingerprint = got
                .iter()
                .flat_map(|p| [p.x, p.y])
                .fold(0xcbf2_9ce4_8422_2325_u64, |h, v| {
                    (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3)
                });
            assert_eq!(fingerprint, want, "n={n} T={iterations}");
        }
    }

    #[test]
    fn single_position_untouched() {
        let pts = vec![Point2::new(0.5, 0.5)];
        let out = refine_positions(&pts, &CRegulationConfig::default(), 1);
        assert_eq!(out, pts);
    }
}
