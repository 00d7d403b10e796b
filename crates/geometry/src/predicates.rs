//! The floating-point orientation test and the tolerance the polygon
//! and hull code share.
//!
//! [`orient2d`] is evaluated in `f64`; [`EPS`] is the tolerance under
//! which the convex hull and polygon clipping treat a value as zero. The
//! Delaunay triangulation uses neither: its orientation and in-circle
//! tests run in exact integer arithmetic on a snapped lattice (see
//! [`crate::delaunay`]).

use crate::Point2;

/// Tolerance under which a predicate value is treated as zero.
pub const EPS: f64 = 1e-12;

/// Sign of the signed area of triangle `(a, b, c)`.
///
/// Positive: counter-clockwise; negative: clockwise; zero (within [`EPS`]
/// scaled by the magnitudes involved): collinear.
///
/// ```
/// use gred_geometry::{predicates::orient2d, Point2};
/// let o = orient2d(
///     Point2::new(0.0, 0.0),
///     Point2::new(1.0, 0.0),
///     Point2::new(0.0, 1.0),
/// );
/// assert!(o > 0.0); // counter-clockwise
/// ```
pub fn orient2d(a: Point2, b: Point2, c: Point2) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn orientation_signs() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        assert!(orient2d(a, b, Point2::new(0.5, 1.0)) > 0.0);
        assert!(orient2d(a, b, Point2::new(0.5, -1.0)) < 0.0);
        assert_eq!(orient2d(a, b, Point2::new(2.0, 0.0)), 0.0);
    }

    proptest! {
        /// orient2d flips sign under a transposition and is invariant under
        /// cyclic rotation of its arguments.
        #[test]
        fn prop_orient2d_permutation_consistency(
            ax in -5.0f64..5.0, ay in -5.0f64..5.0,
            bx in -5.0f64..5.0, by in -5.0f64..5.0,
            cx in -5.0f64..5.0, cy in -5.0f64..5.0,
        ) {
            let a = Point2::new(ax, ay);
            let b = Point2::new(bx, by);
            let c = Point2::new(cx, cy);
            let base = orient2d(a, b, c);
            let tol = 1e-9 * base.abs().max(1.0);
            // Cyclic rotations preserve the signed area.
            prop_assert!((orient2d(b, c, a) - base).abs() <= tol);
            prop_assert!((orient2d(c, a, b) - base).abs() <= tol);
            // Transpositions negate it.
            prop_assert!((orient2d(a, c, b) + base).abs() <= tol);
            prop_assert!((orient2d(b, a, c) + base).abs() <= tol);
        }
    }
}
