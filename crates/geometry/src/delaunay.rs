//! Delaunay triangulation for greedy routing.
//!
//! GRED's guaranteed-delivery property (paper Section II-B) rests on a
//! classical theorem: greedy forwarding on a Delaunay triangulation always
//! reaches the node closest to the destination position. The control plane
//! therefore triangulates the refined switch positions and installs the DT
//! edges as (possibly multi-hop) forwarding adjacencies.
//!
//! # Exact arithmetic on a quantized lattice
//!
//! Floating-point orientation/in-circle predicates give inconsistent answers
//! on near-degenerate input and can corrupt an incremental triangulation
//! (overlaps, holes, flip cycles). Instead of adaptive-precision floats, we
//! snap every input coordinate to a lattice of spacing 2⁻³⁰ and evaluate all
//! predicates in exact `i128` integer arithmetic. Input coordinates must
//! lie in the box [−0.25, 1.25]² (GRED positions lie in the unit square):
//! two snapped points then differ by at most 1.5·2³⁰ per axis, so the
//! degree-4 in-circle determinant is bounded by 12·(1.5·2³⁰)⁴ ≈ 2^125.9,
//! inside `i128`. The paper itself quantizes virtual-space positions to
//! 4-byte fixed point, so a 2⁻³⁰ grid loses nothing. Every predicate is
//! exact, so the flip algorithm provably terminates at the true Delaunay
//! triangulation of the snapped points.
//!
//! Construction is the join, repeated: triangulate a seed triangle — the
//! two smallest points in sorted order plus the first later point off
//! their line — then insert every other point in sorted order the way
//! [`Triangulation::insert`] places a joiner. Each insertion locates the
//! point by a walk across triangles, splits the triangle or edge it lands
//! in (or fans it to the boundary edges it sees from outside), and
//! restores the empty circumcircle property with Lawson edge flips.
//! Degenerate inputs (all points collinear) fall back to the 1D Delaunay
//! graph — the path along the sorted points — on which greedy routing
//! still delivers. Joins and leaves update an existing triangulation in
//! place ([`Triangulation::insert`], [`Triangulation::remove`]), touching
//! only the triangles they replace.

use crate::Point2;
use std::collections::VecDeque;

/// Lattice resolution: input coordinates are snapped to multiples of
/// `1 / QUANT_SCALE` (2⁻³⁰ ≈ 9.3e-10).
const QUANT_SCALE: f64 = (1u64 << 30) as f64;

/// Each input coordinate's admissible range: the box `COORD_RANGE²`
/// around the unit square (where GRED positions lie) is as wide as the
/// exact `i128` in-circle arithmetic holds (see the module docs).
const COORD_RANGE: std::ops::RangeInclusive<f64> = -0.25..=1.25;

/// Whether `p` lies in the admissible box (false for NaN and infinities).
fn admissible(p: Point2) -> bool {
    COORD_RANGE.contains(&p.x) && COORD_RANGE.contains(&p.y)
}

/// Integer lattice point.
type IPoint = (i64, i64);

fn quantize(p: Point2) -> IPoint {
    (
        (p.x * QUANT_SCALE).round() as i64,
        (p.y * QUANT_SCALE).round() as i64,
    )
}

fn unquantize(p: IPoint) -> Point2 {
    Point2::new(p.0 as f64 / QUANT_SCALE, p.1 as f64 / QUANT_SCALE)
}

/// Exact orientation: > 0 when `c` is left of directed line `a -> b`
/// (counter-clockwise triangle), < 0 right, == 0 collinear.
fn iorient(a: IPoint, b: IPoint, c: IPoint) -> i128 {
    let (abx, aby) = ((b.0 - a.0) as i128, (b.1 - a.1) as i128);
    let (acx, acy) = ((c.0 - a.0) as i128, (c.1 - a.1) as i128);
    abx * acy - aby * acx
}

/// Exact squared distance.
fn idist2(a: IPoint, b: IPoint) -> i128 {
    let dx = (a.0 - b.0) as i128;
    let dy = (a.1 - b.1) as i128;
    dx * dx + dy * dy
}

/// Exact in-circumcircle determinant for a counter-clockwise triangle
/// `(a, b, c)`: > 0 iff `d` lies strictly inside the circumcircle.
fn i_incircle(a: IPoint, b: IPoint, c: IPoint, d: IPoint) -> i128 {
    let adx = (a.0 - d.0) as i128;
    let ady = (a.1 - d.1) as i128;
    let bdx = (b.0 - d.0) as i128;
    let bdy = (b.1 - d.1) as i128;
    let cdx = (c.0 - d.0) as i128;
    let cdy = (c.1 - d.1) as i128;
    let ad2 = adx * adx + ady * ady;
    let bd2 = bdx * bdx + bdy * bdy;
    let cd2 = cdx * cdx + cdy * cdy;
    adx * (bdy * cd2 - bd2 * cdy) - ady * (bdx * cd2 - bd2 * cdx) + ad2 * (bdx * cdy - bdy * cdx)
}

/// Error constructing a [`Triangulation`].
#[derive(Debug, Clone, PartialEq)]
pub enum DelaunayError {
    /// No input points.
    Empty,
    /// Two input points coincide after lattice quantization (closer than
    /// ~1e-9 apart).
    DuplicatePoint {
        /// Index of the first point of the coinciding pair.
        first: usize,
        /// Index of the second point of the coinciding pair.
        second: usize,
    },
    /// An input coordinate was NaN, infinite, or outside the admissible
    /// box [−0.25, 1.25]² (the range the exact in-circle arithmetic
    /// holds).
    InvalidCoordinate {
        /// Index of the offending point.
        index: usize,
    },
}

impl std::fmt::Display for DelaunayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DelaunayError::Empty => write!(f, "cannot triangulate an empty point set"),
            DelaunayError::DuplicatePoint { first, second } => {
                write!(f, "points {first} and {second} coincide after quantization")
            }
            DelaunayError::InvalidCoordinate { index } => {
                write!(
                    f,
                    "point {index} has a non-finite or out-of-range coordinate"
                )
            }
        }
    }
}

impl std::error::Error for DelaunayError {}

/// A Delaunay triangulation of a fixed point set, with the adjacency and
/// nearest-point queries GRED needs.
///
/// Coordinates are snapped to a 2⁻³⁰ lattice on construction (see the
/// module docs); [`Triangulation::points`] returns the snapped positions.
///
/// ```
/// use gred_geometry::{Point2, Triangulation};
/// # fn main() -> Result<(), gred_geometry::DelaunayError> {
/// let pts = vec![
///     Point2::new(0.0, 0.0),
///     Point2::new(1.0, 0.0),
///     Point2::new(0.0, 1.0),
///     Point2::new(1.0, 1.0),
/// ];
/// let dt = Triangulation::new(&pts)?;
/// // Greedy forwarding toward a target ends at the point nearest it; here
/// // that is point 3, whose DT neighbors are the two adjacent corners.
/// let target = Point2::new(0.95, 0.95);
/// assert_eq!(dt.nearest(target), 3);
/// assert_eq!(dt.neighbors(3).collect::<Vec<_>>(), vec![1, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Triangulation {
    points: Vec<Point2>,
    /// The snapped points and their triangles (none for collinear input).
    mesh: Mesh,
    /// DT adjacency per point, each list sorted and duplicate-free.
    neighbors: Vec<Vec<usize>>,
    /// True when the input was collinear and the graph is the sorted path.
    collinear: bool,
}

/// The neighbor lists an update of a [`Triangulation`] overwrote, as
/// `(point, list before the update)` pairs; every point not listed keeps
/// its list.
pub type Rewritten = Vec<(usize, Vec<usize>)>;

fn edge_key(a: usize, b: usize) -> (usize, usize) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A triangle slot that holds no live triangle.
const DEAD: [usize; 3] = [usize::MAX; 3];

/// Points and CCW triangles, with each point's incident triangles: every
/// edge lookup, point location and flip reads only the triangles around
/// the vertices it touches, so an insertion or deletion costs what it
/// changes. Both construction and the incremental updates run on it.
#[derive(Debug, Clone)]
struct Mesh {
    pts: Vec<IPoint>,
    /// Triangle slots; a `DEAD` slot is listed in `free` for reuse.
    tris: Vec<[usize; 3]>,
    free: Vec<usize>,
    /// Live triangle slots per point, in the order they were added.
    incident: Vec<Vec<usize>>,
    /// The most recently added triangle, where point location starts.
    newest: usize,
}

/// Where a point landed during location.
enum Location {
    Inside(usize),
    OnEdge(usize, usize),
    /// Outside the triangulated region, strictly right of boundary edge
    /// `(u, v)` (directed with the interior on its left).
    Outside(usize, usize),
}

impl Mesh {
    fn new(pts: Vec<IPoint>) -> Self {
        Mesh {
            incident: vec![Vec::new(); pts.len()],
            pts,
            tris: Vec::new(),
            free: Vec::new(),
            newest: 0,
        }
    }

    fn live(&self) -> impl Iterator<Item = (usize, [usize; 3])> + '_ {
        self.tris
            .iter()
            .enumerate()
            .filter(|(_, t)| **t != DEAD)
            .map(|(id, &t)| (id, t))
    }

    fn ccw(&self, t: [usize; 3]) -> [usize; 3] {
        if iorient(self.pts[t[0]], self.pts[t[1]], self.pts[t[2]]) < 0 {
            [t[0], t[2], t[1]]
        } else {
            t
        }
    }

    fn add_tri(&mut self, t: [usize; 3]) -> usize {
        let t = self.ccw(t);
        debug_assert!(
            iorient(self.pts[t[0]], self.pts[t[1]], self.pts[t[2]]) > 0,
            "degenerate triangle {t:?}"
        );
        let id = match self.free.pop() {
            Some(id) => {
                self.tris[id] = t;
                id
            }
            None => {
                self.tris.push(t);
                self.tris.len() - 1
            }
        };
        for v in t {
            self.incident[v].push(id);
        }
        self.newest = id;
        id
    }

    fn remove_tri(&mut self, id: usize) {
        let t = std::mem::replace(&mut self.tris[id], DEAD);
        debug_assert!(t != DEAD, "removing a live triangle");
        for v in t {
            self.incident[v].retain(|&x| x != id);
        }
        self.free.push(id);
    }

    /// The live triangles with edge `(a, b)`, in the order they were added.
    fn edge_tris(&self, a: usize, b: usize) -> impl Iterator<Item = usize> + '_ {
        self.incident[a]
            .iter()
            .copied()
            .filter(move |&id| self.tris[id].contains(&b))
    }

    /// The two triangles of edge `(a, b)`, when it has two.
    fn interior_edge(&self, a: usize, b: usize) -> Option<(usize, usize)> {
        let mut ids = self.edge_tris(a, b);
        match (ids.next(), ids.next(), ids.next()) {
            (Some(id1), Some(id2), None) => Some((id1, id2)),
            _ => None,
        }
    }

    /// The other live triangle on the edge from `a` to `b` of triangle `id`.
    fn across(&self, id: usize, a: usize, b: usize) -> Option<usize> {
        self.edge_tris(a, b).find(|&other| other != id)
    }

    /// The sorted, distinct points sharing a triangle with `v`.
    fn adjacent(&self, v: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self.incident[v]
            .iter()
            .flat_map(|&id| self.tris[id])
            .filter(|&u| u != v)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Finds where `p` lies by a visibility walk from the newest triangle:
    /// while `p` lies strictly right of an edge of the current triangle,
    /// step across that edge. The walk never cycles on a Delaunay
    /// triangulation; past a step cap it falls back to scanning every
    /// triangle all the same, and a point outside that scan finds no
    /// edge for is left to the caller's rebuild (`None`). The
    /// triangulated region is convex, so a walk that meets a boundary
    /// edge facing `p` has left it.
    fn locate(&self, p: IPoint) -> Option<Location> {
        let mut id = self.newest;
        for _ in 0..self.tris.len() {
            let t = self.tris[id];
            let Some(k) =
                (0..3).find(|&k| iorient(self.pts[t[k]], self.pts[t[(k + 1) % 3]], p) < 0)
            else {
                return self.location_in(id, p);
            };
            let (u, v) = (t[k], t[(k + 1) % 3]);
            match self.across(id, u, v) {
                Some(next) => id = next,
                None => return Some(Location::Outside(u, v)),
            }
        }
        (0..self.tris.len()).find_map(|id| self.location_in(id, p))
    }

    /// Where `p` lies in live triangle `id`, if inside it or on its
    /// boundary.
    fn location_in(&self, id: usize, p: IPoint) -> Option<Location> {
        let [a, b, c] = self.tris[id];
        if a == usize::MAX {
            return None;
        }
        let o_ab = iorient(self.pts[a], self.pts[b], p);
        let o_bc = iorient(self.pts[b], self.pts[c], p);
        let o_ca = iorient(self.pts[c], self.pts[a], p);
        if o_ab < 0 || o_bc < 0 || o_ca < 0 {
            return None;
        }
        Some(if o_ab == 0 {
            Location::OnEdge(a, b)
        } else if o_bc == 0 {
            Location::OnEdge(b, c)
        } else if o_ca == 0 {
            Location::OnEdge(c, a)
        } else {
            Location::Inside(id)
        })
    }

    /// Inserts point `p` (already in `pts`, with no triangles) and
    /// restores the Delaunay property around it. A point outside the
    /// triangulated region is fanned to every boundary edge it strictly
    /// sees (the standard incremental hull extension). Returns `Ok(false)`,
    /// with nothing changed, when `p` cannot be located, and `Err(q)` when
    /// `p` coincides with point `q`.
    fn insert(&mut self, p: usize) -> Result<bool, usize> {
        let mut seeds = match self.locate(self.pts[p]) {
            Some(Location::Inside(id)) => self.split_triangle(id, p),
            // Interior edges split both adjacent triangles; a boundary
            // edge splits its single triangle and `p` becomes a collinear
            // boundary vertex (distinct points put it strictly between the
            // endpoints, so both halves are non-degenerate).
            Some(Location::OnEdge(a, b)) => {
                if let Some(q) = [a, b].into_iter().find(|&q| self.pts[q] == self.pts[p]) {
                    return Err(q);
                }
                self.split_edge(a, b, p)
            }
            Some(Location::Outside(u, v)) => {
                let visible = self.visible_hull_edges(u, v, self.pts[p]);
                for &(u, v) in &visible {
                    self.add_tri([u, v, p]);
                }
                visible.into_iter().map(|(u, v)| edge_key(u, v)).collect()
            }
            None => return Ok(false),
        };
        // The new point's spokes: its triangles are the ones just added.
        seeds.extend(self.adjacent(p).into_iter().map(|v| edge_key(v, p)));
        self.legalize(seeds);
        Ok(true)
    }

    /// The boundary edges strictly visible from exterior point `p`, found
    /// by walking the boundary both ways from visible edge `(u, v)` (a
    /// convex region's visible edges are contiguous), directed so the
    /// interior lies on the left and sorted for deterministic fan
    /// insertion.
    fn visible_hull_edges(&self, u: usize, v: usize, p: IPoint) -> Vec<(usize, usize)> {
        // The boundary edge leaving `v` (forward) or entering `u`
        // (backward): in a CCW triangle `(x, y, z)` the edge from `x` to
        // `y` is on the boundary when no other triangle has it.
        let boundary = |at: usize, forward: bool| -> (usize, usize) {
            self.incident[at]
                .iter()
                .find_map(|&id| {
                    let t = self.tris[id];
                    let k = t.iter().position(|&x| x == at).expect("incident");
                    let e = if forward {
                        (at, t[(k + 1) % 3])
                    } else {
                        (t[(k + 2) % 3], at)
                    };
                    self.across(id, e.0, e.1).is_none().then_some(e)
                })
                .expect("a boundary vertex has boundary edges both ways")
        };
        let sees = |(a, b): (usize, usize)| iorient(self.pts[a], self.pts[b], p) < 0;
        let mut out = vec![(u, v)];
        let mut e = boundary(v, true);
        while sees(e) && e != (u, v) {
            out.push(e);
            e = boundary(e.1, true);
        }
        let mut e = boundary(u, false);
        while sees(e) && !out.contains(&e) {
            out.push(e);
            e = boundary(e.0, false);
        }
        out.sort_unstable();
        out
    }

    /// Splits triangle `id` by strictly-interior point `p_idx`.
    fn split_triangle(&mut self, id: usize, p_idx: usize) -> Vec<(usize, usize)> {
        let [a, b, c] = self.tris[id];
        self.remove_tri(id);
        self.add_tri([a, b, p_idx]);
        self.add_tri([b, c, p_idx]);
        self.add_tri([c, a, p_idx]);
        vec![edge_key(a, b), edge_key(b, c), edge_key(c, a)]
    }

    /// Splits edge `(a, b)` by a point lying exactly on it, dividing each
    /// adjacent triangle in two.
    fn split_edge(&mut self, a: usize, b: usize, p_idx: usize) -> Vec<(usize, usize)> {
        let ids: Vec<usize> = self.edge_tris(a, b).collect();
        let mut affected = Vec::new();
        for id in ids {
            let t = self.tris[id];
            let opp = *t
                .iter()
                .find(|&&v| v != a && v != b)
                .expect("triangle has an opposite vertex");
            self.remove_tri(id);
            self.add_tri([a, opp, p_idx]);
            self.add_tri([opp, b, p_idx]);
            affected.push(edge_key(a, opp));
            affected.push(edge_key(opp, b));
        }
        affected
    }

    /// Lawson flip propagation from the seed edges. With exact predicates
    /// this terminates at a locally (hence globally) Delaunay state.
    fn legalize(&mut self, seeds: Vec<(usize, usize)>) {
        let mut queue: VecDeque<(usize, usize)> = seeds.into();
        while let Some((a, b)) = queue.pop_front() {
            let Some((id1, id2)) = self.interior_edge(a, b) else {
                continue; // hull edge or stale
            };
            let (t1, t2) = (self.tris[id1], self.tris[id2]);
            let c = *t1
                .iter()
                .find(|&&v| v != a && v != b)
                .expect("opposite vertex in t1");
            let d = *t2
                .iter()
                .find(|&&v| v != a && v != b)
                .expect("opposite vertex in t2");

            let t1c = self.ccw([a, b, c]);
            if i_incircle(
                self.pts[t1c[0]],
                self.pts[t1c[1]],
                self.pts[t1c[2]],
                self.pts[d],
            ) <= 0
            {
                continue;
            }
            // In a valid triangulation an in-circle violation implies the
            // quad is strictly convex, so the flip is always legal.
            debug_assert!({
                let oa = iorient(self.pts[c], self.pts[d], self.pts[a]);
                let ob = iorient(self.pts[c], self.pts[d], self.pts[b]);
                oa != 0 && ob != 0 && (oa > 0) != (ob > 0)
            });
            self.remove_tri(id1);
            self.remove_tri(id2);
            self.add_tri([c, d, a]);
            self.add_tri([c, d, b]);
            for e in [
                edge_key(a, c),
                edge_key(a, d),
                edge_key(b, c),
                edge_key(b, d),
            ] {
                queue.push_back(e);
            }
        }
    }

    /// Deletes point `i`, which no triangle uses any more: points above
    /// it move down one index, and the triangle slots are compacted.
    fn delete_point(&mut self, i: usize) {
        debug_assert!(self.incident[i].is_empty(), "point {i} still in use");
        self.pts.remove(i);
        self.incident.remove(i);
        let mut slot = vec![usize::MAX; self.tris.len()];
        let mut tris = Vec::with_capacity(self.tris.len() - self.free.len());
        for (id, t) in self.live() {
            slot[id] = tris.len();
            tris.push(t.map(|v| if v > i { v - 1 } else { v }));
        }
        for list in &mut self.incident {
            for id in list.iter_mut() {
                *id = slot[*id];
            }
        }
        self.newest = match slot.get(self.newest) {
            Some(&id) if id != usize::MAX => id,
            _ => tris.len().saturating_sub(1),
        };
        self.tris = tris;
        self.free.clear();
    }
}

fn check_coordinate(p: Point2, index: usize) -> Result<(), DelaunayError> {
    if !admissible(p) {
        return Err(DelaunayError::InvalidCoordinate { index });
    }
    Ok(())
}

impl Triangulation {
    /// Triangulates `points` (snapped to the 2⁻³⁰ lattice).
    ///
    /// # Errors
    ///
    /// - [`DelaunayError::Empty`] for an empty slice,
    /// - [`DelaunayError::InvalidCoordinate`] for NaN/infinite/out-of-range
    ///   coordinates,
    /// - [`DelaunayError::DuplicatePoint`] when two points coincide after
    ///   quantization.
    pub fn new(points: &[Point2]) -> Result<Self, DelaunayError> {
        if points.is_empty() {
            return Err(DelaunayError::Empty);
        }
        for (i, &p) in points.iter().enumerate() {
            check_coordinate(p, i)?;
        }
        let ipoints: Vec<IPoint> = points.iter().map(|&p| quantize(p)).collect();
        let snapped: Vec<Point2> = ipoints.iter().map(|&p| unquantize(p)).collect();

        // Duplicate detection on the sorted order.
        let mut order: Vec<usize> = (0..ipoints.len()).collect();
        order.sort_by_key(|&i| ipoints[i]);
        for w in order.windows(2) {
            if ipoints[w[0]] == ipoints[w[1]] {
                return Err(DelaunayError::DuplicatePoint {
                    first: w[0].min(w[1]),
                    second: w[0].max(w[1]),
                });
            }
        }

        // Seed: the two smallest points plus the first later point off
        // their line; every other point is a join into that triangle's DT.
        let seed = order
            .iter()
            .skip(2)
            .find(|&&c| iorient(ipoints[order[0]], ipoints[order[1]], ipoints[c]) != 0);
        let mut mesh = Mesh::new(ipoints);
        let neighbors = match seed {
            Some(&third) => {
                mesh.add_tri([order[0], order[1], third]);
                for &i in &order[2..] {
                    if i != third {
                        let placed = mesh.insert(i);
                        debug_assert_eq!(placed, Ok(true), "point {i} was not placed");
                    }
                }
                (0..snapped.len()).map(|v| mesh.adjacent(v)).collect()
            }
            // Collinear (or < 3 points): Delaunay graph is the sorted path.
            None => {
                let mut neighbors = vec![Vec::new(); snapped.len()];
                for w in order.windows(2) {
                    neighbors[w[0]].push(w[1]);
                    neighbors[w[1]].push(w[0]);
                }
                for list in &mut neighbors {
                    list.sort_unstable();
                }
                neighbors
            }
        };
        Ok(Triangulation {
            points: snapped,
            mesh,
            neighbors,
            collinear: seed.is_none(),
        })
    }

    /// The triangulated points (lattice-snapped), in input order.
    pub fn points(&self) -> &[Point2] {
        &self.points
    }

    /// The triangles (CCW vertex index triples). Empty for collinear input.
    pub fn triangles(&self) -> Vec<[usize; 3]> {
        self.mesh.live().map(|(_, t)| t).collect()
    }

    /// Whether the input was collinear (graph degraded to a path).
    pub fn is_collinear(&self) -> bool {
        self.collinear
    }

    /// The DT neighbors of point `i`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.neighbors[i].iter().copied()
    }

    /// Degree of point `i` in the DT graph.
    pub fn degree(&self, i: usize) -> usize {
        self.neighbors[i].len()
    }

    /// All DT edges as `(smaller, larger)` index pairs, sorted.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, ns) in self.neighbors.iter().enumerate() {
            for &j in ns {
                if i < j {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Index of the point nearest `target` (exact comparison on the
    /// lattice; ties broken lexicographically by coordinates).
    pub fn nearest(&self, target: Point2) -> usize {
        let t = quantize(target);
        let pts = &self.mesh.pts;
        let mut best = 0usize;
        let mut best_d = idist2(pts[0], t);
        for (i, &q) in pts.iter().enumerate().skip(1) {
            let d = idist2(q, t);
            if d < best_d || (d == best_d && q < pts[best]) {
                best = i;
                best_d = d;
            }
        }
        best
    }

    /// Verifies the empty-circumcircle property for every triangle with
    /// [`empty_circumcircle_violation`] (used by tests; O(n·t)). Returns
    /// the first violation as `(triangle_index, offending_point)`,
    /// indexing [`Triangulation::triangles`].
    pub fn delaunay_violation(&self) -> Option<(usize, usize)> {
        empty_circumcircle_violation(&self.points, &self.triangles())
    }

    /// Incremental insertion (the paper's Section VI join), in place: `p`
    /// becomes the last point, existing points keep their indices, and
    /// only the triangles whose circumcircles hold `p` are replaced.
    ///
    /// A point outside the current convex hull is fanned to the hull
    /// edges it sees. Collinear history degrades to a full rebuild — the
    /// result is identical either way because a point set has a unique
    /// DT (up to co-circular ties).
    ///
    /// Returns the lists it rewrote: one per neighbor of `p`, or one per
    /// existing point after a rebuild.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Triangulation::new`]; on error `self` is
    /// unchanged.
    pub fn insert(&mut self, p: Point2) -> Result<Rewritten, DelaunayError> {
        let n = self.points.len();
        check_coordinate(p, n)?;
        let ip = quantize(p);
        if !self.collinear {
            self.mesh.pts.push(ip);
            self.mesh.incident.push(Vec::new());
            match self.mesh.insert(n) {
                Ok(true) => {
                    self.points.push(unquantize(ip));
                    let spokes = self.mesh.adjacent(n);
                    let replaced = spokes.iter().map(|&v| self.refresh(v)).collect();
                    self.neighbors.push(spokes);
                    return Ok(replaced);
                }
                outcome => {
                    self.mesh.pts.pop();
                    self.mesh.incident.pop();
                    if let Err(first) = outcome {
                        return Err(DelaunayError::DuplicatePoint { first, second: n });
                    }
                }
            }
        }
        // Collinear history, or a point the walk could not place:
        // rebuild from scratch.
        let mut pts = self.points.clone();
        pts.push(p);
        let old = std::mem::replace(self, Triangulation::new(&pts)?).neighbors;
        Ok(old.into_iter().enumerate().collect())
    }

    /// Recomputes point `v`'s neighbor list from the mesh, returning `v`
    /// with its old list.
    fn refresh(&mut self, v: usize) -> (usize, Vec<usize>) {
        (
            v,
            std::mem::replace(&mut self.neighbors[v], self.mesh.adjacent(v)),
        )
    }

    /// Incremental deletion (the paper's Section VI leave), in place:
    /// removes point `i`, re-triangulating only the hole its star leaves.
    /// Points above `i` move down one index; every point keeps its
    /// position.
    ///
    /// The hole is filled with the triangles of the DT of `i`'s link (its
    /// DT neighbors) whose centroid lies in `i`'s old star. The star's
    /// boundary edges are Delaunay in the link, so no link-DT triangle
    /// crosses the boundary — even on co-circular ties: a link edge
    /// crossing a boundary edge `(u, v)` needs an endpoint on the far arc
    /// of the empty circle through `i`, `u` and `v`, and `i`'s DT edge to
    /// that endpoint would cross `(u, v)`. Collinear input and a collinear
    /// remainder fall back to a full rebuild. The result is the DT of the
    /// remaining points either way (up to co-circular ties).
    ///
    /// Returns the lists it rewrote, in indices from before the removal:
    /// one per neighbor of `i`, or one per remaining point after a
    /// rebuild. Every other list is kept, shifted with the indices.
    ///
    /// # Errors
    ///
    /// [`DelaunayError::Empty`] when `i` is the only point; `self` is
    /// then unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn remove(&mut self, i: usize) -> Result<Rewritten, DelaunayError> {
        assert!(i < self.points.len(), "point index out of range");
        let rebuild = |this: &mut Triangulation| {
            let mut pts = this.points.clone();
            pts.remove(i);
            let old = std::mem::replace(this, Triangulation::new(&pts)?).neighbors;
            Ok(old
                .into_iter()
                .enumerate()
                .filter(|&(v, _)| v != i)
                .collect())
        };
        if self.collinear {
            return rebuild(self);
        }
        let star: Vec<usize> = self.mesh.incident[i].clone();
        let link = &self.neighbors[i];
        let link_points: Vec<Point2> = link.iter().map(|&v| self.points[v]).collect();
        let link_dt = Triangulation::new(&link_points).expect("link points are distinct and valid");
        // The centroid test runs on coordinates ×3, so it stays exact.
        let pts = &self.mesh.pts;
        let tripled = |v: usize| (3 * pts[v].0, 3 * pts[v].1);
        let in_star = |c: IPoint| {
            star.iter().any(|&id| {
                let [a, b, d] = self.mesh.tris[id].map(tripled);
                iorient(a, b, c) >= 0 && iorient(b, d, c) >= 0 && iorient(d, a, c) >= 0
            })
        };
        let fill: Vec<[usize; 3]> = link_dt
            .triangles()
            .into_iter()
            .map(|t| t.map(|k| link[k]))
            .filter(|t| {
                in_star(
                    t.iter()
                        .fold((0, 0), |(x, y), &v| (x + pts[v].0, y + pts[v].1)),
                )
            })
            .collect();
        let live = self.mesh.tris.len() - self.mesh.free.len();
        if live == star.len() && fill.is_empty() {
            // No triangle left: the remainder is collinear.
            return rebuild(self);
        }
        let link = std::mem::take(&mut self.neighbors[i]);
        for id in star {
            self.mesh.remove_tri(id);
        }
        for t in fill {
            self.mesh.add_tri(t);
        }
        let replaced = link.iter().map(|&v| self.refresh(v)).collect();
        self.mesh.delete_point(i);
        self.points.remove(i);
        self.neighbors.remove(i);
        for list in &mut self.neighbors {
            for v in list.iter_mut().filter(|v| **v > i) {
                *v -= 1;
            }
        }
        Ok(replaced)
    }
}

/// Checks the empty-circumcircle property of an arbitrary triangle list
/// over `points`, independent of any [`Triangulation`] instance — external
/// checkers (e.g. the model-based harness) can validate a triangulation
/// reported by another component without trusting its bookkeeping.
///
/// Coordinates are snapped to the same 2⁻³⁰ lattice the triangulation uses
/// and every test runs in exact integer arithmetic. Triangles may be given
/// in either winding; zero-area (degenerate) triangles count as violations.
///
/// Returns the first violation as `(triangle_index, offending_point_index)`
/// — for a degenerate triangle the offending point is one of its own
/// vertices — or `None` when every circumcircle is empty.
///
/// # Panics
///
/// Panics if a point lies outside the box [−0.25, 1.25]² that
/// [`Triangulation::new`] admits: beyond it the exact arithmetic could
/// overflow and answer wrongly.
pub fn empty_circumcircle_violation(
    points: &[Point2],
    triangles: &[[usize; 3]],
) -> Option<(usize, usize)> {
    assert!(
        points.iter().all(|&p| admissible(p)),
        "points outside [-0.25, 1.25]²"
    );
    let ipts: Vec<IPoint> = points.iter().map(|&p| quantize(p)).collect();
    for (ti, t) in triangles.iter().enumerate() {
        let mut t = *t;
        let orient = iorient(ipts[t[0]], ipts[t[1]], ipts[t[2]]);
        if orient == 0 {
            return Some((ti, t[2]));
        }
        if orient < 0 {
            t.swap(1, 2);
        }
        let (a, b, c) = (ipts[t[0]], ipts[t[1]], ipts[t[2]]);
        for (pi, &p) in ipts.iter().enumerate() {
            if t.contains(&pi) {
                continue;
            }
            if i_incircle(a, b, c, p) > 0 {
                return Some((ti, pi));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::orient2d;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect()
    }

    /// Asserts the premise of greedy delivery (paper Theorem 1), exactly
    /// on the lattice: every point farther from `target` than the nearest
    /// one has a DT neighbor strictly closer to it, so a greedy walk from
    /// any point ends at a point as close as the nearest.
    pub(super) fn assert_greedy_delivers(dt: &Triangulation, target: Point2) {
        let t = quantize(target);
        let pts = &dt.mesh.pts;
        let best = idist2(pts[dt.nearest(target)], t);
        for (i, &p) in pts.iter().enumerate() {
            let d = idist2(p, t);
            assert!(
                d == best || dt.neighbors(i).any(|j| idist2(pts[j], t) < d),
                "point {i} is a local minimum toward {target:?}"
            );
        }
    }

    #[test]
    fn errors() {
        assert_eq!(Triangulation::new(&[]).unwrap_err(), DelaunayError::Empty);
        let dup = vec![Point2::ORIGIN, Point2::new(1.0, 0.0), Point2::ORIGIN];
        assert_eq!(
            Triangulation::new(&dup).unwrap_err(),
            DelaunayError::DuplicatePoint {
                first: 0,
                second: 2
            }
        );
        let nan = vec![Point2::new(f64::NAN, 0.0)];
        assert_eq!(
            Triangulation::new(&nan).unwrap_err(),
            DelaunayError::InvalidCoordinate { index: 0 }
        );
        let big = vec![Point2::new(1e9, 0.0)];
        assert_eq!(
            Triangulation::new(&big).unwrap_err(),
            DelaunayError::InvalidCoordinate { index: 0 }
        );
    }

    #[test]
    fn the_admissible_box_holds_the_exact_arithmetic() {
        // The box's corners and edge midpoints, then its centre: the
        // widest spreads the in-circle determinant must hold. Debug
        // builds check every `i128` product for overflow.
        let (lo, hi) = COORD_RANGE.into_inner();
        let coords = [lo, 0.5, hi];
        let pts: Vec<Point2> = coords
            .iter()
            .flat_map(|&x| coords.map(|y| Point2::new(x, y)))
            .filter(|&p| p != Point2::new(0.5, 0.5))
            .collect();
        let mut dt = Triangulation::new(&pts).unwrap();
        assert_eq!(dt.delaunay_violation(), None);
        dt.insert(Point2::new(0.5, 0.5)).unwrap();
        assert_eq!(dt.delaunay_violation(), None);
        for i in 0..dt.points().len() {
            let mut removed = dt.clone();
            removed.remove(i).unwrap();
            assert_eq!(removed.delaunay_violation(), None);
        }
        // One float past either end (its bits one up, for either sign) is
        // refused by the build, a join and the checker.
        let [below, above] = [lo, hi].map(|c| f64::from_bits(c.to_bits() + 1));
        for outside in [Point2::new(above, 0.5), Point2::new(0.5, below)] {
            assert_eq!(
                Triangulation::new(&[Point2::new(0.5, 0.5), outside]).unwrap_err(),
                DelaunayError::InvalidCoordinate { index: 1 }
            );
            assert_eq!(
                dt.insert(outside).unwrap_err(),
                DelaunayError::InvalidCoordinate { index: 9 }
            );
            let check = || empty_circumcircle_violation(&[outside], &[]);
            assert!(std::panic::catch_unwind(check).is_err());
        }
    }

    #[test]
    fn near_duplicates_quantize_to_duplicates() {
        let pts = vec![Point2::new(0.5, 0.5), Point2::new(0.5 + 1e-12, 0.5)];
        assert!(matches!(
            Triangulation::new(&pts).unwrap_err(),
            DelaunayError::DuplicatePoint { .. }
        ));
    }

    #[test]
    fn single_point() {
        let dt = Triangulation::new(&[Point2::new(0.5, 0.5)]).unwrap();
        assert!(dt.is_collinear());
        assert_eq!(dt.degree(0), 0);
        assert_eq!(dt.nearest(Point2::ORIGIN), 0);
    }

    #[test]
    fn collinear_points_form_path() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.5, 0.0),
        ];
        let dt = Triangulation::new(&pts).unwrap();
        assert!(dt.is_collinear());
        assert_eq!(dt.edges(), vec![(0, 2), (1, 2)]);
        // Greedy toward the right end walks the path.
        assert_greedy_delivers(&dt, Point2::new(1.0, 0.0));
    }

    #[test]
    fn two_triangles_flip_to_delaunay() {
        // Four points whose long diagonal (0, 2) is not Delaunay.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.5, -0.05),
            Point2::new(1.0, 0.0),
            Point2::new(0.5, 1.0),
        ];
        let dt = Triangulation::new(&pts).unwrap();
        assert_eq!(dt.triangles().len(), 2);
        assert!(dt.delaunay_violation().is_none());
    }

    #[test]
    fn interior_point_splits() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
            Point2::new(0.4, 0.6),
        ];
        let dt = Triangulation::new(&pts).unwrap();
        assert!(dt.delaunay_violation().is_none());
        // Euler: triangles = 2n - h - 2 = 2*5 - 4 - 2 = 4.
        assert_eq!(dt.triangles().len(), 4);
        assert_eq!(dt.degree(4), 4);
    }

    #[test]
    fn point_on_edge_is_handled() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
            Point2::new(0.5, 0.5), // exactly on the fan diagonal
        ];
        let dt = Triangulation::new(&pts).unwrap();
        assert!(dt.delaunay_violation().is_none());
        let total_area: f64 = dt
            .triangles()
            .iter()
            .map(|t| orient2d(pts[t[0]], pts[t[1]], pts[t[2]]).abs() / 2.0)
            .sum();
        assert!((total_area - 1.0).abs() < 1e-9, "area {total_area}");
    }

    #[test]
    fn point_on_hull_edge_is_handled() {
        // Fifth point exactly on the bottom hull edge.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
            Point2::new(0.5, 0.0),
        ];
        let dt = Triangulation::new(&pts).unwrap();
        assert!(dt.delaunay_violation().is_none());
        assert!(dt.degree(4) >= 2);
        let total_area: f64 = dt
            .triangles()
            .iter()
            .map(|t| orient2d(pts[t[0]], pts[t[1]], pts[t[2]]).abs() / 2.0)
            .sum();
        assert!((total_area - 1.0).abs() < 1e-9, "area {total_area}");
    }

    #[test]
    fn random_sets_are_delaunay() {
        for seed in 0..5 {
            let pts = random_points(60, seed);
            let dt = Triangulation::new(&pts).unwrap();
            assert_eq!(
                dt.delaunay_violation(),
                None,
                "seed {seed}: triangulation violates empty circumcircle"
            );
        }
    }

    #[test]
    fn triangulation_covers_hull_area() {
        for seed in 10..14 {
            let pts = random_points(40, seed);
            let dt = Triangulation::new(&pts).unwrap();
            let snapped = dt.points().to_vec();
            let hull = crate::convex_hull(&snapped);
            let hull_area: f64 = {
                let n = hull.len();
                (0..n)
                    .map(|i| {
                        let a = snapped[hull[i]];
                        let b = snapped[hull[(i + 1) % n]];
                        a.x * b.y - b.x * a.y
                    })
                    .sum::<f64>()
                    / 2.0
            };
            let tri_area: f64 = dt
                .triangles()
                .iter()
                .map(|t| orient2d(snapped[t[0]], snapped[t[1]], snapped[t[2]]) / 2.0)
                .sum();
            assert!(
                (hull_area - tri_area).abs() < 1e-9 * hull_area.max(1.0),
                "seed {seed}: hull {hull_area} vs triangles {tri_area}"
            );
        }
    }

    #[test]
    fn euler_triangle_count() {
        // t = 2n - h - 2 for a triangulation of n points with h on the hull
        // (counting points on hull edges as hull vertices). Random points in
        // general position have no such collinearities, so the strict hull
        // count applies.
        for seed in 20..24 {
            let pts = random_points(50, seed);
            let dt = Triangulation::new(&pts).unwrap();
            let h = crate::convex_hull(dt.points()).len();
            assert_eq!(dt.triangles().len(), 2 * pts.len() - h - 2, "seed {seed}");
        }
    }

    #[test]
    fn greedy_always_reaches_nearest() {
        let mut rng = StdRng::seed_from_u64(42);
        for seed in 0..8 {
            let pts = random_points(80, 100 + seed);
            let dt = Triangulation::new(&pts).unwrap();
            for _ in 0..50 {
                let target = Point2::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
                // The helper checks every start; the draw keeps the targets.
                let _from = rng.gen_range(0..pts.len());
                assert_greedy_delivers(&dt, target);
            }
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let pts = random_points(70, 55);
        let dt = Triangulation::new(&pts).unwrap();
        for i in 0..pts.len() {
            for j in dt.neighbors(i) {
                assert!(dt.neighbors(j).any(|k| k == i), "asymmetric edge {i}-{j}");
            }
        }
    }

    #[test]
    fn average_degree_is_bounded_and_graph_connected() {
        // Planar graph: average degree < 6.
        let pts = random_points(200, 321);
        let dt = Triangulation::new(&pts).unwrap();
        let total: usize = (0..pts.len()).map(|i| dt.degree(i)).sum();
        assert!(total < 6 * pts.len());
        let mut seen = vec![false; pts.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for v in dt.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "DT graph must be connected");
    }

    #[test]
    fn grid_with_jitter_is_delaunay() {
        // Near-degenerate (almost co-circular and almost-collinear-hull)
        // grid configurations — the classic killer of float predicates.
        let mut rng = StdRng::seed_from_u64(9);
        let mut pts = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                pts.push(Point2::new(
                    i as f64 / 5.0 + rng.gen_range(-1e-6..1e-6),
                    j as f64 / 5.0 + rng.gen_range(-1e-6..1e-6),
                ));
            }
        }
        let dt = Triangulation::new(&pts).unwrap();
        assert!(dt.delaunay_violation().is_none());
    }

    #[test]
    fn exact_grid_is_delaunay() {
        // Perfectly co-circular quadruples everywhere: any triangulation is
        // Delaunay; the checker must accept whichever diagonal was chosen.
        let mut pts = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                pts.push(Point2::new(i as f64 / 4.0, j as f64 / 4.0));
            }
        }
        let dt = Triangulation::new(&pts).unwrap();
        assert!(dt.delaunay_violation().is_none());
        // Full cover: 2n - h - 2 with h = 16 boundary points counted as
        // hull-edge points; area check is the robust invariant.
        let total_area: f64 = dt
            .triangles()
            .iter()
            .map(|t| orient2d(pts[t[0]], pts[t[1]], pts[t[2]]).abs() / 2.0)
            .sum();
        assert!((total_area - 1.0).abs() < 1e-9, "area {total_area}");
    }

    #[test]
    fn greedy_on_near_degenerate_grid() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut pts = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                pts.push(Point2::new(
                    i as f64 / 7.0 + rng.gen_range(-1e-7..1e-7),
                    j as f64 / 7.0 + rng.gen_range(-1e-7..1e-7),
                ));
            }
        }
        let dt = Triangulation::new(&pts).unwrap();
        for _ in 0..200 {
            let target = Point2::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            // The helper checks every start; the draw keeps the targets.
            let _from = rng.gen_range(0..pts.len());
            assert_greedy_delivers(&dt, target);
        }
    }

    #[test]
    fn edge_fingerprint_matches_the_recorded_build() {
        // FNV-1a over the sorted edge list of 2,000 seeded points, every
        // 50th on the border line x = 0.001 where the embedding clamps
        // positions. The constant was recorded when `locate` scanned
        // every triangle, before it became a walk: any edge the walk
        // builds differently moves it.
        let mut rng = StdRng::seed_from_u64(2019);
        let pts: Vec<Point2> = (0..2000)
            .map(|k| {
                let y = rng.gen_range(0.0..1.0);
                let x = if k % 50 == 0 {
                    0.001
                } else {
                    rng.gen_range(0.0..1.0)
                };
                Point2::new(x, y)
            })
            .collect();
        let edges = Triangulation::new(&pts).unwrap().edges();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for v in edges.iter().flat_map(|&(a, b)| [a, b]) {
            hash = (hash ^ v as u64).wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(edges.len(), 5978);
        assert_eq!(hash, 0xaa62_396d_bf39_582a);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::assert_greedy_delivers;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any admissible point set triangulates to an exactly-Delaunay
        /// structure with symmetric adjacency.
        #[test]
        fn prop_triangulation_is_delaunay(
            pts in proptest::collection::hash_set((0u32..1000, 0u32..1000), 3..60)
        ) {
            let pts: Vec<Point2> = pts
                .into_iter()
                .map(|(x, y)| Point2::new(f64::from(x) / 1000.0, f64::from(y) / 1000.0))
                .collect();
            let dt = Triangulation::new(&pts).unwrap();
            prop_assert_eq!(dt.delaunay_violation(), None);
            for i in 0..pts.len() {
                for j in dt.neighbors(i) {
                    prop_assert!(dt.neighbors(j).any(|k| k == i));
                }
            }
        }

        /// Greedy routing delivers to the nearest site from any start, for
        /// any target.
        #[test]
        fn prop_greedy_delivers(
            pts in proptest::collection::hash_set((0u32..1000, 0u32..1000), 3..40),
            tx in 0u32..1000, ty in 0u32..1000,
        ) {
            let pts: Vec<Point2> = pts
                .into_iter()
                .map(|(x, y)| Point2::new(f64::from(x) / 1000.0, f64::from(y) / 1000.0))
                .collect();
            let dt = Triangulation::new(&pts).unwrap();
            let target = Point2::new(f64::from(tx) / 1000.0, f64::from(ty) / 1000.0);
            assert_greedy_delivers(&dt, target);
        }

        /// Collinear sets degrade to the sorted path: no triangles, every
        /// interior point has degree 2, the ends degree 1. With points
        /// added right of the line, the build's seed — the two smallest
        /// points plus the first later point off their line — takes its
        /// third point after the whole run, or last of all when only the
        /// rightmost point is off the line; every point is still placed.
        #[test]
        fn prop_collinear_sets_form_path(
            xs in proptest::collection::hash_set(0u32..1000, 2..30),
            slope in 0u32..5, intercept in 0u32..100,
            right in proptest::collection::hash_set((1000u32..1500, 0u32..8000), 0..20),
            lift in 1u32..100,
        ) {
            // Power-of-two denominators quantize exactly onto the 2⁻³⁰
            // lattice, so collinearity survives coordinate snapping.
            let pts: Vec<Point2> = xs
                .into_iter()
                .map(|x| {
                    let fx = f64::from(x) / 4096.0;
                    Point2::new(fx, fx * f64::from(slope) + f64::from(intercept) / 4096.0)
                })
                .collect();
            let dt = Triangulation::new(&pts).unwrap();
            prop_assert!(dt.is_collinear());
            prop_assert!(dt.triangles().is_empty());
            let mut by_degree = [0usize; 3];
            for i in 0..pts.len() {
                prop_assert!(dt.degree(i) <= 2);
                by_degree[dt.degree(i)] += 1;
            }
            // A path: exactly two endpoints, everything else interior.
            prop_assert_eq!(by_degree[1], 2);
            prop_assert_eq!(by_degree[2], pts.len() - 2);

            // The same line at half scale, so that the points right of it
            // stay in the admissible box.
            let at = |x: u32, y: u32| Point2::new(f64::from(x) / 8192.0, f64::from(y) / 8192.0);
            let line = pts.iter().map(|&p| Point2::new(p.x / 2.0, p.y / 2.0));
            let last = at(1500, 1500 * slope + intercept + lift);
            let beyond: Vec<Point2> = right.iter().map(|&(x, y)| at(x, y)).chain([last]).collect();
            for more in [&beyond[..], &[last]] {
                let all: Vec<Point2> = line.clone().chain(more.iter().copied()).collect();
                let dt = Triangulation::new(&all).unwrap();
                prop_assert_eq!(dt.delaunay_violation(), None);
                // Euler: t = 2n - b - 2, with b the points on the hull's
                // edges (a supporting line meets the hull in one edge).
                let hull = crate::convex_hull(&all);
                let edges = hull.iter().zip(hull.iter().cycle().skip(1));
                let on_edge = |p: Point2| {
                    edges.clone().any(|(&u, &v)| crate::predicates::orient2d(all[u], all[v], p) == 0.0)
                };
                let b = all.iter().filter(|&&p| on_edge(p)).count();
                prop_assert_eq!(dt.triangles().len(), 2 * all.len() - b - 2);
            }
        }

        /// Duplicated points are rejected with `DuplicatePoint`, never a
        /// panic, regardless of where the duplicate sits.
        #[test]
        fn prop_duplicates_rejected(
            pts in proptest::collection::hash_set((0u32..1000, 0u32..1000), 3..20),
            dup_pick in any::<prop::sample::Index>(),
        ) {
            let mut pts: Vec<Point2> = pts
                .into_iter()
                .map(|(x, y)| Point2::new(f64::from(x) / 1000.0, f64::from(y) / 1000.0))
                .collect();
            let dup = pts[dup_pick.index(pts.len())];
            pts.push(dup);
            prop_assert!(matches!(
                Triangulation::new(&pts),
                Err(DelaunayError::DuplicatePoint { .. })
            ));
        }
    }

    #[test]
    fn checker_flags_planted_violations() {
        // A non-Delaunay diagonal of a convex quad: point 3 sits inside the
        // circumcircle of (0, 1, 2).
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.5, -0.05),
            Point2::new(1.0, 0.0),
            Point2::new(0.5, 1.0),
        ];
        let bad = vec![[0, 1, 2], [0, 2, 3]];
        assert!(empty_circumcircle_violation(&pts, &bad).is_some());
        // The flip of that diagonal is the true DT; winding order must not
        // matter to the checker.
        let good = vec![[0, 1, 3], [3, 1, 2]];
        let good_cw = vec![[0, 3, 1], [3, 2, 1]];
        assert_eq!(empty_circumcircle_violation(&pts, &good), None);
        assert_eq!(empty_circumcircle_violation(&pts, &good_cw), None);
        // Zero-area triangles are violations, not panics.
        let degen = vec![[0, 1, 1]];
        assert_eq!(empty_circumcircle_violation(&pts, &degen), Some((0, 1)));
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn random_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.gen_range(0.1..0.9), rng.gen_range(0.1..0.9)))
            .collect()
    }

    fn edge_set(dt: &Triangulation) -> BTreeSet<(usize, usize)> {
        dt.edges().into_iter().collect()
    }

    #[test]
    fn incremental_matches_from_scratch_interior() {
        for seed in 0..6 {
            let pts = random_points(30, seed);
            let dt = Triangulation::new(&pts).unwrap();
            let mut rng = StdRng::seed_from_u64(100 + seed);
            // Interior point (well inside the hull of random points).
            let p = Point2::new(rng.gen_range(0.4..0.6), rng.gen_range(0.4..0.6));
            let mut incremental = dt.clone();
            incremental.insert(p).unwrap();
            let mut all = pts.clone();
            all.push(p);
            let scratch = Triangulation::new(&all).unwrap();
            assert_eq!(incremental.delaunay_violation(), None, "seed {seed}");
            assert_eq!(edge_set(&incremental), edge_set(&scratch), "seed {seed}");
        }
    }

    #[test]
    fn exterior_insert_stays_delaunay_and_matches_rebuild() {
        // The set at a quarter scale, so that every point lies in the
        // admissible box.
        for seed in [9u64, 21, 33] {
            let pts: Vec<Point2> = random_points(20, seed)
                .into_iter()
                .map(|p| p * 0.25)
                .collect();
            let dt = Triangulation::new(&pts).unwrap();
            for outside in [
                Point2::new(0.24975, 0.24975),
                Point2::new(-0.0625, 0.1),
                Point2::new(0.125, 0.425),
                Point2::new(-0.25, -0.25),
            ] {
                let mut inc = dt.clone();
                inc.insert(outside).unwrap();
                assert_eq!(inc.points().len(), 21);
                assert_eq!(inc.delaunay_violation(), None);
                let mut all = pts.clone();
                all.push(outside);
                let full = Triangulation::new(&all).unwrap();
                for i in 0..all.len() {
                    let a: Vec<usize> = inc.neighbors(i).collect();
                    let b: Vec<usize> = full.neighbors(i).collect();
                    assert_eq!(a, b, "seed {seed}, point {outside:?}, vertex {i}");
                }
            }
        }
    }

    #[test]
    fn insert_on_hull_boundary_edge_splits_in_place() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
        ];
        let mut grown = Triangulation::new(&pts).unwrap();
        grown.insert(Point2::new(0.5, 0.0)).unwrap();
        assert_eq!(grown.triangles().len(), 2);
        assert_eq!(grown.delaunay_violation(), None);
        let nb: Vec<usize> = grown.neighbors(3).collect();
        assert_eq!(nb, vec![0, 1, 2]);
    }

    #[test]
    fn chained_exterior_inserts_stay_delaunay() {
        // Repeated hull extensions, including points collinear with a
        // previously extended hull edge; at a quarter scale, so that every
        // point lies in the admissible box.
        let pts: Vec<Point2> = random_points(15, 4).into_iter().map(|p| p * 0.25).collect();
        let mut dt = Triangulation::new(&pts).unwrap();
        for (i, q) in [
            Point2::new(0.3, 0.125),
            Point2::new(0.35, 0.125),
            Point2::new(0.325, 0.325),
            Point2::new(0.125, -0.175),
            Point2::new(-0.1, 0.025),
        ]
        .into_iter()
        .enumerate()
        {
            dt.insert(q).unwrap();
            assert_eq!(dt.points().len(), 16 + i);
            assert_eq!(dt.delaunay_violation(), None, "after insert {i}");
        }
    }

    #[test]
    fn duplicate_insert_rejected() {
        let pts = random_points(10, 11);
        let mut dt = Triangulation::new(&pts).unwrap();
        assert!(matches!(
            dt.insert(pts[3]),
            Err(DelaunayError::DuplicatePoint { first: 3, .. })
        ));
    }

    #[test]
    fn insert_into_collinear_set_rebuilds() {
        let pts = vec![
            Point2::new(0.1, 0.5),
            Point2::new(0.5, 0.5),
            Point2::new(0.9, 0.5),
        ];
        let mut grown = Triangulation::new(&pts).unwrap();
        assert!(grown.is_collinear());
        grown.insert(Point2::new(0.5, 0.9)).unwrap();
        assert!(!grown.is_collinear());
        assert_eq!(grown.triangles().len(), 2);
    }

    /// Removes every point of `pts` in turn: each result must be the
    /// from-scratch DT of the rest, and re-inserting the point must give
    /// back the original edges.
    fn check_every_removal(pts: &[Point2]) {
        let dt = Triangulation::new(pts).unwrap();
        let n = pts.len();
        for i in 0..n {
            let mut removed = dt.clone();
            removed.remove(i).unwrap();
            let mut rest = pts.to_vec();
            rest.remove(i);
            let scratch = Triangulation::new(&rest).unwrap();
            assert_eq!(removed.delaunay_violation(), None, "removing {i}");
            assert_eq!(removed.is_collinear(), scratch.is_collinear());
            assert_eq!(edge_set(&removed), edge_set(&scratch), "removing {i}");
            let mut back = removed.clone();
            back.insert(pts[i]).unwrap();
            let up = |j: usize| match j {
                _ if j == n - 1 => i,
                _ if j >= i => j + 1,
                _ => j,
            };
            let restored: BTreeSet<(usize, usize)> = back
                .edges()
                .into_iter()
                .map(|(a, b)| edge_key(up(a), up(b)))
                .collect();
            assert_eq!(restored, edge_set(&dt), "re-inserting {i}");
        }
    }

    #[test]
    fn removal_matches_rebuild_for_every_point() {
        // Interior points, hull corners, and a run on the border line
        // x = 0.001 between two of them (hull points collinear with
        // their hull edge).
        let mut pts = random_points(25, 41);
        pts.extend(
            [(0.001, 0.0), (0.001, 1.0), (1.0, 0.0), (1.0, 1.0)].map(|(x, y)| Point2::new(x, y)),
        );
        pts.extend((1..6).map(|k| Point2::new(0.001, 0.15 * k as f64)));
        check_every_removal(&pts);
    }

    #[test]
    fn removal_down_to_a_collinear_remainder_rebuilds() {
        let pts: Vec<Point2> = [(0.1, 0.5), (0.5, 0.5), (0.9, 0.5), (0.3, 0.5), (0.5, 0.9)]
            .map(|(x, y)| Point2::new(x, y))
            .to_vec();
        let mut line = Triangulation::new(&pts).unwrap();
        line.remove(4).unwrap();
        assert!(line.is_collinear());
        assert_eq!(line.edges(), vec![(0, 3), (1, 2), (1, 3)]);
        while line.points().len() > 1 {
            line.remove(0).unwrap();
        }
        assert_eq!(line.remove(0).unwrap_err(), DelaunayError::Empty);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// On a coarse grid (co-circular ties everywhere, so the edge set
        /// is not unique) every removal still leaves a Delaunay
        /// triangulation of the rebuild's region, with its triangle count.
        #[test]
        fn prop_removal_from_a_grid_subset_stays_a_delaunay_cover(
            cells in proptest::collection::hash_set((0u32..6, 0u32..6), 3..30),
        ) {
            let pts: Vec<Point2> = cells
                .into_iter()
                .map(|(x, y)| Point2::new(f64::from(x) / 8.0, f64::from(y) / 8.0))
                .collect();
            let area = |t: &Triangulation| -> f64 {
                let p = t.points();
                t.triangles()
                    .iter()
                    .map(|t| crate::predicates::orient2d(p[t[0]], p[t[1]], p[t[2]]) / 2.0)
                    .sum()
            };
            let dt = Triangulation::new(&pts).unwrap();
            for i in 0..pts.len() {
                let mut removed = dt.clone();
                removed.remove(i).unwrap();
                let mut rest = pts.clone();
                rest.remove(i);
                let scratch = Triangulation::new(&rest).unwrap();
                proptest::prop_assert_eq!(removed.delaunay_violation(), None);
                proptest::prop_assert_eq!(removed.triangles().len(), scratch.triangles().len());
                proptest::prop_assert_eq!(area(&removed), area(&scratch));
            }
        }

        /// Removing any point, from any set mixing interior points with a
        /// run on the clamped border line, equals a rebuild without it.
        #[test]
        fn prop_removal_matches_rebuild(
            inner in proptest::collection::vec((0.05f64..0.95, 0.05f64..0.95), 0..30),
            border in proptest::collection::vec(0.0f64..1.0, 0..8),
        ) {
            let pts: Vec<Point2> = border
                .iter()
                .map(|&y| Point2::new(0.001, y))
                .chain(inner.iter().map(|&(x, y)| Point2::new(x, y)))
                .collect();
            proptest::prop_assume!(pts.len() >= 2 && Triangulation::new(&pts).is_ok());
            check_every_removal(&pts);
        }

        /// An insert or a remove reports exactly the neighbor lists it
        /// rewrote: each listed pair carries the list from before the
        /// event, and every unlisted point keeps its list, mapped through
        /// the index shift.
        #[test]
        fn prop_events_report_every_rewritten_list(
            cells in proptest::collection::hash_set((0u32..1000, 0u32..1000), 3..40),
            joiner in (0u32..1000, 0u32..1000),
            victim in proptest::prelude::any::<proptest::sample::Index>(),
            remove in proptest::prelude::any::<bool>(),
        ) {
            let at = |(x, y): (u32, u32)| Point2::new(f64::from(x) / 1000.0, f64::from(y) / 1000.0);
            proptest::prop_assume!(remove || !cells.contains(&joiner));
            let pts: Vec<Point2> = cells.into_iter().map(at).collect();
            let before = Triangulation::new(&pts).unwrap();
            let mut after = before.clone();
            let (replaced, gone) = if remove {
                let i = victim.index(pts.len());
                (after.remove(i).unwrap(), Some(i))
            } else {
                (after.insert(at(joiner)).unwrap(), None)
            };
            let shift = |v: usize| if gone.is_some_and(|i| v > i) { v - 1 } else { v };
            for (v, old) in &replaced {
                proptest::prop_assert!(Some(*v) != gone);
                proptest::prop_assert_eq!(old, &before.neighbors(*v).collect::<Vec<_>>());
            }
            for v in (0..pts.len()).filter(|&v| Some(v) != gone) {
                if replaced.iter().all(|(w, _)| *w != v) {
                    let kept: Vec<usize> = before.neighbors(v).map(shift).collect();
                    proptest::prop_assert_eq!(after.neighbors(shift(v)).collect::<Vec<_>>(), kept);
                }
            }
        }
    }

    #[test]
    fn repeated_insertion_grows_consistently() {
        let mut dt = Triangulation::new(&random_points(10, 13)).unwrap();
        let extra = random_points(15, 14);
        for p in extra {
            match dt.insert(p) {
                Ok(_) => {}
                Err(DelaunayError::DuplicatePoint { .. }) => continue,
                Err(e) => panic!("unexpected: {e}"),
            }
            assert_eq!(dt.delaunay_violation(), None);
        }
        assert!(dt.points().len() >= 20);
    }
}
