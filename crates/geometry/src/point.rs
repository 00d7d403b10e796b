//! Points in the virtual 2D Euclidean space.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::ops::{Add, Mul, Sub};

/// A point (or vector) in the virtual 2D space.
///
/// ```
/// use gred_geometry::Point2;
/// let a = Point2::new(0.0, 0.0);
/// let b = Point2::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2 {
    /// Creates a point from its coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2::new(0.0, 0.0);

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point2) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the square root when
    /// only comparisons are needed).
    pub fn distance_squared(self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Dot product, treating both points as vectors.
    pub fn dot(self, other: Point2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Squared length as a vector.
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// The midpoint of `self` and `other`.
    pub fn midpoint(self, other: Point2) -> Point2 {
        Point2::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Lexicographic comparison (x first, then y).
    ///
    /// This is the tie-breaking order the paper prescribes for data mapped
    /// exactly onto a Voronoi edge: "the tie can be broken by ranking the x
    /// coordinate, then y coordinate" (Section V-A).
    pub fn lex_cmp(self, other: Point2) -> Ordering {
        self.x
            .partial_cmp(&other.x)
            .unwrap_or(Ordering::Equal)
            .then(self.y.partial_cmp(&other.y).unwrap_or(Ordering::Equal))
    }

    /// Clamps the point into the axis-aligned box `[min, max]²`.
    pub fn clamp_to(self, min: f64, max: f64) -> Point2 {
        Point2::new(self.x.clamp(min, max), self.y.clamp(min, max))
    }
}

impl Add for Point2 {
    type Output = Point2;
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    fn mul(self, s: f64) -> Point2 {
        Point2::new(self.x * s, self.y * s)
    }
}

impl From<(f64, f64)> for Point2 {
    fn from((x, y): (f64, f64)) -> Self {
        Point2::new(x, y)
    }
}

impl From<Point2> for (f64, f64) {
    fn from(p: Point2) -> Self {
        (p.x, p.y)
    }
}

impl std::fmt::Display for Point2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x, self.y)
    }
}

/// Index of the point in `candidates` nearest to `target`, breaking exact
/// distance ties by the paper's lexicographic coordinate rank.
///
/// Returns `None` when `candidates` is empty.
///
/// ```
/// use gred_geometry::{point::nearest_index, Point2};
/// let pts = [Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)];
/// assert_eq!(nearest_index(&pts, Point2::new(0.9, 0.0)), Some(1));
/// ```
pub fn nearest_index(candidates: &[Point2], target: Point2) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &p) in candidates.iter().enumerate() {
        let d = p.distance_squared(target);
        best = match best {
            None => Some((i, d)),
            Some((bi, bd)) => {
                if d < bd || (d == bd && p.lex_cmp(candidates[bi]) == Ordering::Less) {
                    Some((i, d))
                } else {
                    Some((bi, bd))
                }
            }
        };
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distances() {
        let a = Point2::new(1.0, 2.0);
        assert_eq!(a.distance(a), 0.0);
        assert_eq!(Point2::ORIGIN.distance_squared(Point2::new(3.0, 4.0)), 25.0);
    }

    #[test]
    fn vector_ops() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, 5.0);
        assert_eq!(a + b, Point2::new(4.0, 7.0));
        assert_eq!(b - a, Point2::new(2.0, 3.0));
        assert_eq!(a * 2.0, Point2::new(2.0, 4.0));
        assert_eq!(a.dot(b), 13.0);
        assert_eq!(a.midpoint(b), Point2::new(2.0, 3.5));
    }

    #[test]
    fn lex_order() {
        let a = Point2::new(0.0, 1.0);
        let b = Point2::new(0.0, 2.0);
        let c = Point2::new(1.0, 0.0);
        assert_eq!(a.lex_cmp(b), Ordering::Less);
        assert_eq!(b.lex_cmp(c), Ordering::Less);
        assert_eq!(a.lex_cmp(a), Ordering::Equal);
    }

    #[test]
    fn nearest_with_tie_breaking() {
        // Target equidistant from both; lexicographically smaller wins.
        let pts = [Point2::new(1.0, 0.0), Point2::new(-1.0, 0.0)];
        assert_eq!(nearest_index(&pts, Point2::ORIGIN), Some(1));
        assert_eq!(nearest_index(&[], Point2::ORIGIN), None);
    }

    #[test]
    fn clamp() {
        assert_eq!(
            Point2::new(-0.5, 2.0).clamp_to(0.0, 1.0),
            Point2::new(0.0, 1.0)
        );
    }

    #[test]
    fn conversions_and_display() {
        let p: Point2 = (1.0, 2.0).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.0, 2.0));
        assert!(p.to_string().starts_with("(1.0"));
    }

    proptest! {
        #[test]
        fn prop_triangle_inequality(
            ax in -10.0f64..10.0, ay in -10.0f64..10.0,
            bx in -10.0f64..10.0, by in -10.0f64..10.0,
            cx in -10.0f64..10.0, cy in -10.0f64..10.0,
        ) {
            let a = Point2::new(ax, ay);
            let b = Point2::new(bx, by);
            let c = Point2::new(cx, cy);
            prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
        }

        #[test]
        fn prop_nearest_is_minimal(
            pts in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..20),
            tx in -10.0f64..10.0, ty in -10.0f64..10.0,
        ) {
            let pts: Vec<Point2> = pts.into_iter().map(Point2::from).collect();
            let t = Point2::new(tx, ty);
            let i = nearest_index(&pts, t).unwrap();
            for p in &pts {
                prop_assert!(pts[i].distance_squared(t) <= p.distance_squared(t));
            }
        }
    }
}
