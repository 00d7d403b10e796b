//! Landmark (pivot) MDS: classical MDS on a small landmark set plus
//! least-squares trilateration for everything else.
//!
//! Full classical MDS needs the whole `n × n` distance matrix and an
//! `O(n³)` eigendecomposition — fine for hundreds of switches, hopeless
//! for ten thousand. Landmark MDS (de Silva & Tenenbaum) embeds only
//! `k ≪ n` landmark points classically and then places every remaining
//! point from its distances *to the landmarks alone*:
//!
//! 1. embed the `k × k` landmark distance matrix by classical MDS
//!    ([`crate::mds`]'s steps),
//! 2. form the pseudo-inverse rows `pᵃ = vᵃ / √λₐ` from the landmark
//!    eigenpairs,
//! 3. place a point with squared landmark distances `δ` at
//!    `x = -1/2 · P (δ - δ̄)`, where `δ̄` holds the column means of the
//!    squared landmark matrix.
//!
//! Step 3 is the least-squares solution of the trilateration system, so
//! a landmark fed its own distance column lands exactly on its classical
//! coordinates (when the distances are Euclidean). The total cost is
//! `O(k³ + n·k)` instead of `O(n³)`. With every point a landmark
//! (`k = n`) the landmark coordinates are the classical MDS embedding
//! itself, which is how GRED's exact M-position runs.

use crate::{double_center, symmetric_eigen, Matrix, MdsError};

/// A landmark embedding: classical coordinates for the landmarks plus the
/// precomputed trilateration operator for placing non-landmark points.
#[derive(Debug, Clone)]
pub struct LandmarkEmbedding {
    /// Classical MDS coordinates of the `k` landmarks (`k` rows of
    /// `dims` entries).
    landmarks: Vec<Vec<f64>>,
    /// `dims` pseudo-inverse rows of length `k`: `pᵃ = vᵃ / √λₐ`, zeroed
    /// when the eigenvalue is non-positive or negligible.
    pseudo: Vec<Vec<f64>>,
    /// Column means of the squared landmark distance matrix.
    col_means: Vec<f64>,
}

impl LandmarkEmbedding {
    /// Number of landmarks `k`.
    pub fn landmark_count(&self) -> usize {
        self.landmarks.len()
    }

    /// The classical MDS coordinates of landmark `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.landmark_count()`.
    pub fn landmark(&self, i: usize) -> &[f64] {
        &self.landmarks[i]
    }

    /// Places a point from its distances (*not* squared) to the `k`
    /// landmarks, in landmark order.
    ///
    /// # Panics
    ///
    /// Panics if `dists.len() != self.landmark_count()`.
    pub fn place(&self, dists: &[f64]) -> Vec<f64> {
        let k = self.landmarks.len();
        assert_eq!(
            dists.len(),
            k,
            "expected {k} landmark distances, got {}",
            dists.len()
        );
        let mut out = vec![0.0; self.pseudo.len()];
        for (axis, row) in self.pseudo.iter().enumerate() {
            let mut acc = 0.0;
            for j in 0..k {
                let delta = dists[j] * dists[j] - self.col_means[j];
                acc += row[j] * delta;
            }
            out[axis] = -0.5 * acc;
        }
        out
    }
}

/// Builds a [`LandmarkEmbedding`] from the `k × k` landmark distance
/// matrix.
///
/// The landmark coordinates are the classical MDS embedding of `l`
/// (top-`dims` eigenpairs of the double-centred squared matrix, negative
/// eigenvalues clamped to zero); the embedding additionally retains the
/// eigenpairs needed to trilaterate non-landmark points via
/// [`LandmarkEmbedding::place`].
///
/// # Errors
///
/// Returns an [`MdsError`] for non-square or asymmetric input, zero
/// dimensions, or fewer landmarks than dimensions.
///
/// ```
/// use gred_linalg::{landmark_mds, Matrix};
/// # fn main() -> Result<(), gred_linalg::MdsError> {
/// // Landmarks at 0, 3, 5 on a line; a probe point sits at 4.
/// let l = Matrix::from_vec(3, 3, vec![0.0, 3.0, 5.0, 3.0, 0.0, 2.0, 5.0, 2.0, 0.0]);
/// let emb = landmark_mds(&l, 1)?;
/// let probe = emb.place(&[4.0, 1.0, 1.0]);
/// let d = (probe[0] - emb.landmark(0)[0]).abs();
/// assert!((d - 4.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn landmark_mds(l: &Matrix, dims: usize) -> Result<LandmarkEmbedding, MdsError> {
    if !l.is_square() {
        return Err(MdsError::NotSquare {
            rows: l.rows(),
            cols: l.cols(),
        });
    }
    if dims == 0 {
        return Err(MdsError::ZeroDimensions);
    }
    let k = l.rows();
    if k < dims {
        return Err(MdsError::TooFewPoints { points: k, dims });
    }
    if !l.is_symmetric(1e-9) {
        return Err(MdsError::NotSymmetric);
    }

    // Column means of the squared matrix (δ̄ in the trilateration formula).
    let mut col_means = vec![0.0; k];
    for i in 0..k {
        for (j, mean) in col_means.iter_mut().enumerate() {
            let v = l[(i, j)];
            *mean += v * v;
        }
    }
    for mean in &mut col_means {
        *mean /= k as f64;
    }

    let b = double_center(l);
    let e = symmetric_eigen(&b);

    // Landmark coordinates Q = E_m Λ_m^{1/2}, clamping negative
    // eigenvalues to zero.
    let mut landmarks = vec![vec![0.0; dims]; k];
    for (a, coord_axis) in (0..dims).enumerate() {
        let lambda = e.values[a].max(0.0);
        let scale = lambda.sqrt();
        for (i, point) in landmarks.iter_mut().enumerate() {
            point[coord_axis] = e.vectors[(i, a)] * scale;
        }
    }

    // Pseudo-inverse rows vᵃ/√λₐ. Axes whose eigenvalue is non-positive
    // or negligible relative to the dominant one contribute nothing —
    // dividing by a near-zero √λ would amplify noise, not signal.
    let lambda_max = e.values.first().copied().unwrap_or(0.0).max(0.0);
    let floor = lambda_max * 1e-12;
    let mut pseudo = vec![vec![0.0; k]; dims];
    for (a, row) in pseudo.iter_mut().enumerate() {
        let lambda = e.values[a];
        if lambda <= floor || lambda <= 0.0 {
            continue;
        }
        let inv = 1.0 / lambda.sqrt();
        for (i, p) in row.iter_mut().enumerate() {
            *p = e.vectors[(i, a)] * inv;
        }
    }

    Ok(LandmarkEmbedding {
        landmarks,
        pseudo,
        col_means,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn landmarks_trilaterate_onto_themselves() {
        // Euclidean input: feeding a landmark its own distance column must
        // reproduce its classical coordinates.
        let pts = [[0.0, 0.0], [2.0, 0.0], [0.5, 1.5], [1.8, 2.2]];
        let n = pts.len();
        let l = Matrix::from_fn(n, n, |i, j| dist(&pts[i], &pts[j]));
        let emb = landmark_mds(&l, 2).unwrap();
        for i in 0..n {
            let col: Vec<f64> = (0..n).map(|j| l[(j, i)]).collect();
            let placed = emb.place(&col);
            for axis in 0..2 {
                assert!(
                    (placed[axis] - emb.landmark(i)[axis]).abs() < 1e-9,
                    "landmark {i} axis {axis}: {placed:?} vs {:?}",
                    emb.landmark(i)
                );
            }
        }
    }

    #[test]
    fn non_landmark_points_recovered_in_plane() {
        // 4 landmarks plus 20 probes, all genuinely planar: trilateration
        // must recover every probe's pairwise geometry.
        let mut rng = StdRng::seed_from_u64(7);
        let landmarks: Vec<[f64; 2]> = vec![[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]];
        let probes: Vec<[f64; 2]> = (0..20)
            .map(|_| [rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)])
            .collect();
        let k = landmarks.len();
        let l = Matrix::from_fn(k, k, |i, j| dist(&landmarks[i], &landmarks[j]));
        let emb = landmark_mds(&l, 2).unwrap();

        let placed: Vec<Vec<f64>> = probes
            .iter()
            .map(|p| {
                let d: Vec<f64> = landmarks.iter().map(|q| dist(p, q)).collect();
                emb.place(&d)
            })
            .collect();
        for i in 0..probes.len() {
            for j in 0..probes.len() {
                let want = dist(&probes[i], &probes[j]);
                let got = dist(&placed[i], &placed[j]);
                assert!(
                    (want - got).abs() < 1e-8,
                    "probe pair ({i},{j}): want {want}, got {got}"
                );
            }
            // Probe-to-landmark distances must also be preserved.
            for (li, lp) in landmarks.iter().enumerate() {
                let want = dist(&probes[i], lp);
                let got = dist(&placed[i], emb.landmark(li));
                assert!(
                    (want - got).abs() < 1e-8,
                    "probe {i} to landmark {li}: want {want}, got {got}"
                );
            }
        }
    }

    #[test]
    fn collinear_landmarks_stay_finite() {
        // Degenerate landmark set: the second eigenvalue vanishes, so the
        // second axis must be zeroed rather than amplified by 1/√λ.
        let xs = [0.0f64, 1.0, 3.0];
        let l = Matrix::from_fn(3, 3, |i, j| (xs[i] - xs[j]).abs());
        let emb = landmark_mds(&l, 2).unwrap();
        let placed = emb.place(&[0.5, 0.5, 2.5]);
        assert!(placed.iter().all(|x| x.is_finite()));
        assert!(placed[1].abs() < 1e-9, "degenerate axis must be zero");
        // The line coordinate is still recovered.
        let d0 = dist(&placed, emb.landmark(0));
        assert!((d0 - 0.5).abs() < 1e-8, "line offset {d0}");
    }

    #[test]
    fn hop_distances_place_without_error() {
        // Non-Euclidean hop metric (a 4-cycle): placement must stay finite
        // and keep near things nearer than far things.
        let l = Matrix::from_vec(
            4,
            4,
            vec![
                0.0, 1.0, 2.0, 1.0, //
                1.0, 0.0, 1.0, 2.0, //
                2.0, 1.0, 0.0, 1.0, //
                1.0, 2.0, 1.0, 0.0,
            ],
        );
        let emb = landmark_mds(&l, 2).unwrap();
        // A probe adjacent to landmark 0 and far from landmark 2.
        let placed = emb.place(&[1.0, 2.0, 3.0, 2.0]);
        assert!(placed.iter().all(|x| x.is_finite()));
        let near = dist(&placed, emb.landmark(0));
        let far = dist(&placed, emb.landmark(2));
        assert!(near < far, "near {near} vs far {far}");
    }

    #[test]
    #[should_panic(expected = "landmark distances")]
    fn place_rejects_wrong_arity() {
        let l = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let emb = landmark_mds(&l, 1).unwrap();
        let _ = emb.place(&[1.0]);
    }
}
