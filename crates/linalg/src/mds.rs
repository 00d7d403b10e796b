//! Classical multidimensional scaling (the math inside GRED's M-position).
//!
//! Given an `n × n` matrix of pairwise distances `L`, classical MDS finds
//! `n` points in `m` dimensions whose Euclidean distances approximate `L`:
//!
//! 1. `B = -1/2 · J L⁽²⁾ J`, where `L⁽²⁾` squares entries and
//!    `J = I - (1/n) A` (`A` all-ones) — "double centering",
//! 2. eigendecompose `B`,
//! 3. coordinates `Q = E_m Λ_m^{1/2}` from the top `m` eigenpairs.
//!
//! The paper embeds switch shortest-path hop distances into `m = 2`
//! dimensions so that greedy routing in the virtual plane tracks shortest
//! paths in the physical network. [`crate::landmark_mds`] runs these steps
//! on the landmark distance matrix; with every point a landmark it is
//! classical MDS.

use crate::Matrix;

/// Error produced by [`crate::landmark_mds`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdsError {
    /// The distance matrix was not square.
    NotSquare {
        /// Row count of the offending matrix.
        rows: usize,
        /// Column count of the offending matrix.
        cols: usize,
    },
    /// The distance matrix was not symmetric.
    NotSymmetric,
    /// Fewer points than requested embedding dimensions.
    TooFewPoints {
        /// Number of points provided.
        points: usize,
        /// Number of dimensions requested.
        dims: usize,
    },
    /// Requested zero dimensions.
    ZeroDimensions,
}

impl std::fmt::Display for MdsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdsError::NotSquare { rows, cols } => {
                write!(f, "distance matrix must be square, got {rows}x{cols}")
            }
            MdsError::NotSymmetric => write!(f, "distance matrix must be symmetric"),
            MdsError::TooFewPoints { points, dims } => {
                write!(f, "cannot embed {points} points into {dims} dimensions")
            }
            MdsError::ZeroDimensions => write!(f, "embedding dimension must be at least 1"),
        }
    }
}

impl std::error::Error for MdsError {}

/// Double-centers the squared distance matrix: `B = -1/2 · J L⁽²⁾ J`.
///
/// The result is symmetric with zero row and column sums — the Gram matrix
/// of the centered point configuration when `L` is Euclidean.
///
/// # Panics
///
/// Panics if `l` is not square.
///
/// ```
/// use gred_linalg::{Matrix, double_center};
/// let l = Matrix::from_vec(2, 2, vec![0.0, 2.0, 2.0, 0.0]);
/// let b = double_center(&l);
/// // Two points distance 2 apart => Gram matrix [[1,-1],[-1,1]].
/// assert!((b[(0, 0)] - 1.0).abs() < 1e-12);
/// assert!((b[(0, 1)] + 1.0).abs() < 1e-12);
/// ```
pub fn double_center(l: &Matrix) -> Matrix {
    assert!(l.is_square(), "distance matrix must be square");
    let n = l.rows();
    let sq = l.map(|x| x * x);

    // Row means, column means, grand mean of the squared matrix.
    let mut row_mean = vec![0.0; n];
    let mut col_mean = vec![0.0; n];
    let mut grand = 0.0;
    for i in 0..n {
        for j in 0..n {
            let v = sq[(i, j)];
            row_mean[i] += v;
            col_mean[j] += v;
            grand += v;
        }
    }
    let nf = n as f64;
    for m in row_mean.iter_mut().chain(col_mean.iter_mut()) {
        *m /= nf;
    }
    grand /= nf * nf;

    Matrix::from_fn(n, n, |i, j| {
        -0.5 * (sq[(i, j)] - row_mean[i] - col_mean[j] + grand)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmark_mds;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Classical MDS of `l`: its landmark embedding with every point a
    /// landmark.
    fn classical(l: &Matrix, dims: usize) -> Vec<Vec<f64>> {
        let emb = landmark_mds(l, dims).unwrap();
        (0..emb.landmark_count())
            .map(|i| emb.landmark(i).to_vec())
            .collect()
    }

    fn dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn double_center_zero_row_sums() {
        let l = Matrix::from_vec(3, 3, vec![0.0, 1.0, 2.0, 1.0, 0.0, 1.5, 2.0, 1.5, 0.0]);
        let b = double_center(&l);
        for i in 0..3 {
            let row_sum: f64 = (0..3).map(|j| b[(i, j)]).sum();
            let col_sum: f64 = (0..3).map(|j| b[(j, i)]).sum();
            assert!(row_sum.abs() < 1e-12, "row {i} sum {row_sum}");
            assert!(col_sum.abs() < 1e-12, "col {i} sum {col_sum}");
        }
        assert!(b.is_symmetric(1e-12));
    }

    #[test]
    fn recovers_planar_configuration() {
        // Points genuinely in 2D: MDS must reproduce all pairwise distances.
        let pts = [
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0, 1.0],
            [0.3, 0.7],
            [2.0, 0.5],
        ];
        let n = pts.len();
        let l = Matrix::from_fn(n, n, |i, j| dist(&pts[i], &pts[j]));
        let out = classical(&l, 2);
        for i in 0..n {
            for j in 0..n {
                let want = dist(&pts[i], &pts[j]);
                let got = dist(&out[i], &out[j]);
                assert!(
                    (want - got).abs() < 1e-9,
                    "pair ({i},{j}): want {want}, got {got}"
                );
            }
        }
    }

    #[test]
    fn embedding_is_centered() {
        let pts = [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]];
        let l = Matrix::from_fn(3, 3, |i, j| dist(&pts[i], &pts[j]));
        let out = classical(&l, 2);
        for axis in 0..2 {
            let mean: f64 = out.iter().map(|p| p[axis]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    fn hop_count_matrix_embeds_without_error() {
        // A path graph's hop matrix is Euclidean in 1D and embeds exactly.
        let n = 6;
        let l = Matrix::from_fn(n, n, |i, j| (i as f64 - j as f64).abs());
        let out = classical(&l, 2);
        for i in 0..n {
            for j in 0..n {
                let want = (i as f64 - j as f64).abs();
                assert!((dist(&out[i], &out[j]) - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn non_euclidean_distances_clamp_gracefully() {
        // A 4-cycle's hop metric is not embeddable exactly in 2D; MDS should
        // still return finite coordinates with modest distortion.
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
        let out = classical(&l, 2);
        for p in &out {
            assert!(p.iter().all(|x| x.is_finite()));
        }
        // Opposite corners should remain the farthest pairs.
        let d02 = dist(&out[0], &out[2]);
        let d01 = dist(&out[0], &out[1]);
        assert!(d02 > d01);
    }

    #[test]
    fn error_cases() {
        let rect = Matrix::zeros(2, 3);
        let err = |l: &Matrix, dims| landmark_mds(l, dims).err();
        assert_eq!(
            err(&rect, 2),
            Some(MdsError::NotSquare { rows: 2, cols: 3 })
        );

        let asym = Matrix::from_vec(2, 2, vec![0.0, 1.0, 2.0, 0.0]);
        assert_eq!(err(&asym, 1), Some(MdsError::NotSymmetric));

        let one = Matrix::from_vec(1, 1, vec![0.0]);
        assert_eq!(
            err(&one, 2),
            Some(MdsError::TooFewPoints { points: 1, dims: 2 })
        );
        assert_eq!(err(&one, 0), Some(MdsError::ZeroDimensions));
    }

    #[test]
    fn error_display_messages() {
        assert!(MdsError::NotSymmetric.to_string().contains("symmetric"));
        assert!(MdsError::ZeroDimensions.to_string().contains("at least 1"));
    }

    #[test]
    fn random_planar_configurations_recovered() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..5 {
            let n = rng.gen_range(3..20);
            let pts: Vec<[f64; 2]> = (0..n)
                .map(|_| [rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)])
                .collect();
            let l = Matrix::from_fn(n, n, |i, j| dist(&pts[i], &pts[j]));
            let out = classical(&l, 2);
            for i in 0..n {
                for j in 0..n {
                    let want = dist(&pts[i], &pts[j]);
                    let got = dist(&out[i], &out[j]);
                    assert!(
                        (want - got).abs() < 1e-7,
                        "trial {trial} pair ({i},{j}): want {want}, got {got}"
                    );
                }
            }
        }
    }
}
