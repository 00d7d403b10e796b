//! The M-position algorithm (paper Section IV-A): greedy network
//! embedding of the switch topology into the virtual 2D space.
//!
//! The controller computes the all-pairs shortest-path (hop) matrix `L`
//! over the storage switches, double-centers its square
//! (`B = -1/2 J L⁽²⁾ J`), takes the top-2 eigenpairs and reads coordinates
//! off `Q = E₂ Λ₂^{1/2}` — classical MDS. The embedded Euclidean distance
//! between two switches is then (approximately) proportional to their
//! network distance, which is what keeps greedy routing's stretch low.
//! For large networks the matrix is formed over `k` landmark members only
//! and every other member is trilaterated against them
//! ([`m_position_landmark`]); the exact embedding ([`m_position`]) is the
//! case where every member is a landmark.
//!
//! The raw MDS coordinates are centered at the origin with hop-scale
//! units; we map them into the unit square with one uniform scale factor
//! (preserving distance ratios) and record that factor so later joins can
//! be embedded consistently.

use crate::error::GredError;
use gred_geometry::Point2;
use gred_linalg::{landmark_mds, Matrix};
use gred_net::Topology;

/// Margin kept between embedded points and the unit-square border, so CVT
/// refinement has room to move sites outward.
const BORDER_MARGIN: f64 = 0.05;

/// Minimum separation enforced between embedded switch positions.
/// Symmetric topologies (e.g. two leaves on one hub) produce identical
/// distance rows, hence identical MDS coordinates; the DT requires
/// distinct points.
const MIN_SEPARATION: f64 = 1e-4;

/// The result of the M-position algorithm.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Switch ids that participate (storage switches), ascending.
    pub members: Vec<usize>,
    /// Virtual position of each member (parallel to `members`), inside
    /// the unit square.
    pub positions: Vec<Point2>,
    /// Virtual-space distance corresponding to one physical hop (the
    /// uniform normalization factor). Used to embed late joiners.
    pub scale: f64,
}

impl Embedding {
    /// Position of a switch, if it is a member.
    pub fn position_of(&self, switch: usize) -> Option<Point2> {
        self.members
            .binary_search(&switch)
            .ok()
            .map(|i| self.positions[i])
    }
}

/// Runs M-position for the storage switches `members` of `topo`: the
/// exact embedding, which is [`m_position_landmark`] with every member a
/// landmark.
///
/// # Errors
///
/// - [`GredError::NoStorageSwitches`] when `members` is empty,
/// - [`GredError::Disconnected`] when some member cannot reach another,
/// - [`GredError::Embedding`] when MDS fails.
pub fn m_position(topo: &Topology, members: &[usize]) -> Result<Embedding, GredError> {
    m_position_landmark(topo, members, members.len(), 0, None)
}

/// Maps raw MDS coordinates into the unit square with one uniform scale
/// factor (preserving distance ratios), separates coincident sites, and
/// returns the positions plus the hop-to-virtual scale.
fn normalize_to_unit_square(coords: &[Vec<f64>]) -> (Vec<Point2>, f64) {
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for c in coords {
        min_x = min_x.min(c[0]);
        max_x = max_x.max(c[0]);
        min_y = min_y.min(c[1]);
        max_y = max_y.max(c[1]);
    }
    let extent = (max_x - min_x).max(max_y - min_y).max(1e-9);
    let scale = (1.0 - 2.0 * BORDER_MARGIN) / extent;
    let offset_x = BORDER_MARGIN + (1.0 - 2.0 * BORDER_MARGIN - (max_x - min_x) * scale) / 2.0;
    let offset_y = BORDER_MARGIN + (1.0 - 2.0 * BORDER_MARGIN - (max_y - min_y) * scale) / 2.0;

    let mut positions: Vec<Point2> = coords
        .iter()
        .map(|c| {
            Point2::new(
                (c[0] - min_x) * scale + offset_x,
                (c[1] - min_y) * scale + offset_y,
            )
        })
        .collect();
    separate_duplicates(&mut positions);
    (positions, scale)
}

/// Landmarks chosen per max-min sampling round. Each round picks this
/// many farthest members from the current min-distance frontier and only
/// then folds their BFS rows into it, so the batch size decides which
/// members become landmarks: changing it changes every landmark-built
/// embedding.
const LANDMARK_BATCH: usize = 8;

/// M-position from `landmarks` members: BFS only from the landmarks,
/// classical MDS on the landmark distance matrix, and least-squares
/// trilateration for every other member — `O(k·(V+E) + k³ + n·k)` for `k`
/// landmarks among `n` members.
///
/// Landmarks are chosen by deterministic seeded max-min (farthest-point)
/// sampling in fixed batches of [`LANDMARK_BATCH`]: the seed picks the
/// first landmark, and each round BFSes one batch before it updates the
/// min-distance frontier. When `landmarks >= members.len()` (or `n <= 3`)
/// every member is a landmark, in member order with no sampling, and
/// nobody is trilaterated: that is the exact embedding, [`m_position`].
/// One member sits at the centre and two on a horizontal segment, with
/// no MDS.
///
/// When `report` is given, the phases are recorded as `landmark_bfs`,
/// `landmark_embed`, and `trilateration`.
///
/// # Errors
///
/// Same as [`m_position`].
pub fn m_position_landmark(
    topo: &Topology,
    members: &[usize],
    landmarks: usize,
    seed: u64,
    report: Option<&mut gred_runtime::BuildReport>,
) -> Result<Embedding, GredError> {
    if members.is_empty() {
        return Err(GredError::NoStorageSwitches);
    }
    // A caller that wants no report still runs the same phases, into one
    // that is dropped.
    let mut unread = gred_runtime::BuildReport::new();
    let report = report.unwrap_or(&mut unread);
    let n = members.len();
    if n == 1 {
        return Ok(Embedding {
            members: members.to_vec(),
            positions: vec![Point2::new(0.5, 0.5)],
            scale: 1.0,
        });
    }
    let k = landmarks.clamp(3, n.max(3)).min(n);

    // Phase 1: seeded max-min landmark sampling with batched BFS rows;
    // with every member a landmark, member order from the first.
    let mut chosen = vec![false; n];
    let mut landmark_members: Vec<usize> = Vec::with_capacity(k);
    let mut rows: Vec<Vec<u32>> = Vec::with_capacity(k);
    report.phase("landmark_bfs", k, || -> Result<(), GredError> {
        let first = if k < n { (seed % n as u64) as usize } else { 0 };
        chosen[first] = true;
        landmark_members.push(members[first]);
        rows.push(topo.bfs_hops(members[first]));
        // Every member must be reachable from the first landmark.
        let mut min_hops: Vec<u32> = members.iter().map(|&m| rows[0][m]).collect();
        if min_hops.contains(&u32::MAX) {
            return Err(GredError::Disconnected);
        }
        while landmark_members.len() < k {
            // Farthest-first batch: (min-hops desc, index asc), fixed
            // size, selected before any of the batch's rows land.
            let mut order: Vec<usize> = (0..n).filter(|&i| !chosen[i]).collect();
            if k < n {
                order.sort_by_key(|&i| (std::cmp::Reverse(min_hops[i]), i));
            }
            let batch = LANDMARK_BATCH.min(k - landmark_members.len());
            for i in order.into_iter().take(batch) {
                let row = topo.bfs_hops(members[i]);
                chosen[i] = true;
                landmark_members.push(members[i]);
                for (j, h) in min_hops.iter_mut().enumerate() {
                    *h = (*h).min(row[members[j]]);
                }
                rows.push(row);
            }
        }
        Ok(())
    })?;
    if n == 2 {
        return Ok(Embedding {
            members: members.to_vec(),
            positions: vec![Point2::new(0.25, 0.5), Point2::new(0.75, 0.5)],
            scale: 0.5 / f64::from(rows[0][members[1]]).max(1.0),
        });
    }

    // Phase 2: classical MDS on the k × k landmark distance matrix.
    let l = Matrix::from_fn(k, k, |i, j| f64::from(rows[i][landmark_members[j]]));
    let emb = report.phase("landmark_embed", k, || landmark_mds(&l, 2))?;

    // Phase 3: trilaterate every member against the landmark frame.
    // Landmarks keep their exact classical coordinates; everyone else is
    // placed from its BFS column.
    let landmark_index: std::collections::BTreeMap<usize, usize> = landmark_members
        .iter()
        .enumerate()
        .map(|(i, &m)| (m, i))
        .collect();
    let place = |member: usize| -> Vec<f64> {
        if let Some(&i) = landmark_index.get(&member) {
            return emb.landmark(i).to_vec();
        }
        let dists: Vec<f64> = rows.iter().map(|row| f64::from(row[member])).collect();
        emb.place(&dists)
    };
    let coords = report.phase("trilateration", n - k, || {
        members.iter().map(|&m| place(m)).collect::<Vec<_>>()
    });
    let (positions, scale) = normalize_to_unit_square(&coords);

    Ok(Embedding {
        members: members.to_vec(),
        positions,
        scale,
    })
}

/// Full rounds of [`separate_duplicates`] before its fallback search.
const NUDGE_ROUNDS: usize = 16;

const GOLDEN_ANGLE: f64 = 2.399_963_229_728_653;

/// `p` moved by `r` along `angle`, kept inside the unit square's margin.
fn step_toward(p: Point2, r: f64, angle: f64) -> Point2 {
    Point2::new(
        (p.x + r * angle.cos()).clamp(0.001, 0.999),
        (p.y + r * angle.sin()).clamp(0.001, 0.999),
    )
}

/// Where round `round` of the sweep moves point `j` from `p`.
fn nudge(p: Point2, j: usize, round: usize) -> Point2 {
    let angle = GOLDEN_ANGLE * (j as f64 + 1.0) + round as f64;
    step_toward(p, MIN_SEPARATION * (1.0 + round as f64), angle)
}

/// The first point `clear` accepts on a golden-angle spiral around `from`
/// (radius `MIN_SEPARATION · √k` at step `k`, turned by point `j`'s
/// index). The spiral's points inside the square sit about 1.8 ×
/// `MIN_SEPARATION` apart, so each existing point blocks O(1) of them and
/// the search ends within O(points) steps.
fn free_spot(from: Point2, j: usize, clear: impl Fn(Point2) -> bool) -> Point2 {
    let mut k = 1usize;
    loop {
        let angle = GOLDEN_ANGLE * (k + j) as f64;
        let p = step_toward(from, MIN_SEPARATION * (k as f64).sqrt(), angle);
        if clear(p) {
            return p;
        }
        k += 1;
    }
}

/// Spreads coincident (or near-coincident) points apart deterministically
/// on tiny circles so the Delaunay construction sees distinct sites, and
/// leaves every pair at least [`MIN_SEPARATION`] apart.
///
/// Semantically this is the all-pairs sweep: for each of up to
/// [`NUDGE_ROUNDS`] rounds, every ordered pair `(i, j)` with `i < j` is
/// checked in ascending order and `j` is nudged when the pair sits closer
/// than [`MIN_SEPARATION`]. The implementation buckets points into a
/// `MIN_SEPARATION`-sized grid so each `i` only examines its 3×3
/// neighborhood — O(n) per round instead of O(n²). The displacement of
/// `j` depends only on `(j, round)` and each `j` is checked exactly once
/// per `(i, round)`, so the grid walk reproduces the naive sweep bit for
/// bit (asserted by `grid_sweep_matches_naive_sweep`).
///
/// Because a nudge depends only on the index and the round, points that
/// start clamped into the same corner walk the same nudges, and sixteen
/// rounds need not end clear. When they do not, each point still closer
/// than `MIN_SEPARATION` to an earlier one moves, in index order, to the
/// first [`free_spot`] clear of every other point.
pub(crate) fn separate_duplicates(positions: &mut [Point2]) {
    let mut grid = Grid::new(positions);
    for round in 0..NUDGE_ROUNDS {
        let mut any = false;
        for i in 0..positions.len() {
            let mut candidates = grid.around(positions[i]);
            candidates.retain(|&j| j > i);
            candidates.sort_unstable();
            for j in candidates {
                if positions[i].distance(positions[j]) < MIN_SEPARATION {
                    grid.relocate(positions, j, nudge(positions[j], j, round));
                    any = true;
                }
            }
        }
        if !any {
            return;
        }
    }
    let crowded = |grid: &Grid, positions: &[Point2], j: usize, p: Point2, below: usize| {
        grid.around(p)
            .into_iter()
            .any(|i| i != j && i < below && positions[i].distance(p) < MIN_SEPARATION)
    };
    for j in 0..positions.len() {
        if crowded(&grid, positions, j, positions[j], j) {
            let to = free_spot(positions[j], j, |p| {
                !crowded(&grid, positions, j, p, positions.len())
            });
            grid.relocate(positions, j, to);
        }
    }
}

/// Point indices bucketed by `MIN_SEPARATION`-sized cell: every point
/// within `MIN_SEPARATION` of `p` lies in the 3×3 cells around `p`'s.
struct Grid(std::collections::HashMap<(i64, i64), Vec<usize>>);

impl Grid {
    fn new(positions: &[Point2]) -> Self {
        let mut grid = Grid(std::collections::HashMap::new());
        for (i, &p) in positions.iter().enumerate() {
            grid.0.entry(Grid::cell(p)).or_default().push(i);
        }
        grid
    }

    fn cell(p: Point2) -> (i64, i64) {
        (
            (p.x / MIN_SEPARATION).floor() as i64,
            (p.y / MIN_SEPARATION).floor() as i64,
        )
    }

    /// The points in the 3×3 cells around `p`, in no particular order.
    fn around(&self, p: Point2) -> Vec<usize> {
        let (cx, cy) = Grid::cell(p);
        let mut out = Vec::new();
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(bucket) = self.0.get(&(cx + dx, cy + dy)) {
                    out.extend_from_slice(bucket);
                }
            }
        }
        out
    }

    /// Moves point `j` to `to`, re-bucketing it.
    fn relocate(&mut self, positions: &mut [Point2], j: usize, to: Point2) {
        let (from, into) = (Grid::cell(positions[j]), Grid::cell(to));
        positions[j] = to;
        if into != from {
            let bucket = self.0.get_mut(&from).expect("point is in its cell");
            bucket.retain(|&x| x != j);
            if bucket.is_empty() {
                self.0.remove(&from);
            }
            self.0.entry(into).or_default().push(j);
        }
    }
}

/// [`separate_duplicates`] for one point `p` joining `members`, which are
/// already pairwise at least [`MIN_SEPARATION`] apart: only `p` (index
/// `members.len()` of the sweep) can move, so only it is checked — O(members)
/// per round, with no grid. Returns where `p` ends up.
pub(crate) fn separate_joiner(members: &[Point2], mut p: Point2) -> Point2 {
    let j = members.len();
    let crowded = |p: Point2| members.iter().any(|q| q.distance(p) < MIN_SEPARATION);
    for round in 0..NUDGE_ROUNDS {
        let mut any = false;
        for q in members {
            if q.distance(p) < MIN_SEPARATION {
                p = nudge(p, j, round);
                any = true;
            }
        }
        if !any {
            return p;
        }
    }
    if crowded(p) {
        free_spot(p, j, |c| !crowded(c))
    } else {
        p
    }
}

/// Embeds a late-joining switch against an existing embedding: starts at
/// the centroid of its already-embedded physical neighbors and runs a few
/// gradient steps minimizing `Σ_j (‖p − q_j‖ − scale · h_j)²` over all
/// members, where `h_j` is the hop distance. This is the local equivalent
/// of re-running M-position without moving anyone else (paper Section VI:
/// "the new edge node has no effect on the other edge nodes").
///
/// `hops` is the new switch's BFS row ([`Topology::bfs_hops`]), indexed
/// by switch id.
///
/// # Errors
///
/// [`GredError::Disconnected`] when `hops` leaves a member unreached.
pub fn embed_new_switch(hops: &[u32], embedding: &Embedding) -> Result<Point2, GredError> {
    // Member coordinates and target distances, one flat array each.
    let n = embedding.members.len();
    let (mut qx, mut qy, mut want) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for (&m, q) in embedding.members.iter().zip(&embedding.positions) {
        let h = hops[m];
        if h == u32::MAX {
            return Err(GredError::Disconnected);
        }
        qx.push(q.x);
        qy.push(q.y);
        want.push(f64::from(h) * embedding.scale);
    }
    if n == 0 {
        return Ok(Point2::new(0.5, 0.5));
    }

    // Initialize at the centroid of the nearest members (by hops).
    let min_h = want.iter().copied().fold(f64::INFINITY, f64::min);
    let near: Vec<Point2> = (0..n)
        .filter(|&i| want[i] <= min_h + embedding.scale)
        .map(|i| embedding.positions[i])
        .collect();
    let mut p = near.iter().fold(Point2::ORIGIN, |acc, &q| acc + q) * (1.0 / near.len() as f64);

    // Gradient descent on the stress function. Each step takes two
    // passes: every member's coefficient (independent, so the square
    // roots and divisions vectorize), then the gradient summed in member
    // order, which keeps every position bit-identical to a single pass.
    let mut coeff = vec![0.0; n];
    let mut step = 0.2;
    for _ in 0..200 {
        for (((c, &x), &y), &w) in coeff.iter_mut().zip(&qx).zip(&qy).zip(&want) {
            let (dx, dy) = (p.x - x, p.y - y);
            let d = (dx * dx + dy * dy).sqrt().max(1e-9);
            *c = 2.0 * (d - w) / d;
        }
        let (mut gx, mut gy) = (0.0, 0.0);
        for ((&c, &x), &y) in coeff.iter().zip(&qx).zip(&qy) {
            gx += (p.x - x) * c;
            gy += (p.y - y) * c;
        }
        let next = Point2::new(
            (p.x - step * gx / n as f64).clamp(0.001, 0.999),
            (p.y - step * gy / n as f64).clamp(0.001, 0.999),
        );
        if p.distance(next) < 1e-9 {
            break;
        }
        p = next;
        step *= 0.98;
    }
    Ok(p)
}

/// BFS sources of [`fit_scale`], evenly spaced over the members.
const SCALE_FIT_SOURCES: usize = 16;

/// The hop-to-virtual factor that best fits `positions` to `topo`: the
/// least-squares `s` of `‖p_i − p_j‖ ≈ s · h_ij` over every member `j`
/// and [`SCALE_FIT_SOURCES`] evenly spaced members `i`, which is
/// `Σ d·h / Σ h²`, summed in source order. [`embed_new_switch`] needs it
/// once C-regulation has moved the positions away from the embedding's
/// own scale.
///
/// # Errors
///
/// [`GredError::Disconnected`] when a source cannot reach some member.
pub(crate) fn fit_scale(
    topo: &Topology,
    members: &[usize],
    positions: &[Point2],
) -> Result<f64, GredError> {
    let step = members.len().div_ceil(SCALE_FIT_SOURCES).max(1);
    let (mut dh, mut hh) = (0.0, 0.0);
    for i in (0..members.len()).step_by(step) {
        let row = topo.bfs_hops(members[i]);
        for (&m, &q) in members.iter().zip(positions) {
            if row[m] == u32::MAX {
                return Err(GredError::Disconnected);
            }
            let h = f64::from(row[m]);
            dh += positions[i].distance(q) * h;
            hh += h * h;
        }
    }
    Ok(if hh > 0.0 { dh / hh } else { 1.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gred_net::{waxman_topology, WaxmanConfig};

    fn line(n: usize) -> Topology {
        Topology::from_links(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn empty_members_error() {
        let t = line(3);
        assert_eq!(
            m_position(&t, &[]).unwrap_err(),
            GredError::NoStorageSwitches
        );
    }

    #[test]
    fn single_member_center() {
        let t = line(3);
        let e = m_position(&t, &[1]).unwrap();
        assert_eq!(e.positions, vec![Point2::new(0.5, 0.5)]);
        assert_eq!(e.position_of(1), Some(Point2::new(0.5, 0.5)));
        assert_eq!(e.position_of(0), None);
    }

    #[test]
    fn two_members_horizontal() {
        let t = line(4);
        let e = m_position(&t, &[0, 3]).unwrap();
        assert_eq!(e.positions.len(), 2);
        let d = e.positions[0].distance(e.positions[1]);
        assert!((d - 0.5).abs() < 1e-9);
        assert!((e.scale - 0.5 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_errors() {
        let t = Topology::new(3);
        assert_eq!(
            m_position(&t, &[0, 1, 2]).unwrap_err(),
            GredError::Disconnected
        );
    }

    #[test]
    fn line_graph_embeds_on_a_line() {
        let t = line(6);
        let members: Vec<usize> = (0..6).collect();
        let e = m_position(&t, &members).unwrap();
        // Hop distance ratios should be preserved: d(0,5) = 5 * d(i,i+1).
        let unit = e.positions[0].distance(e.positions[1]);
        let total = e.positions[0].distance(e.positions[5]);
        assert!(
            (total - 5.0 * unit).abs() < 0.05 * total,
            "unit={unit}, total={total}"
        );
        // All inside the unit square.
        for p in &e.positions {
            assert!((0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y));
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn embedding_distance_correlates_with_hops() {
        let (t, _) = waxman_topology(&WaxmanConfig::with_switches(40, 5));
        let members: Vec<usize> = (0..40).collect();
        let e = m_position(&t, &members).unwrap();
        let m = t.shortest_path_matrix();
        // Pearson correlation between hop distance and embedded distance
        // should be strongly positive.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            for j in (i + 1)..40 {
                xs.push(f64::from(m[i][j]));
                ys.push(e.positions[i].distance(e.positions[j]));
            }
        }
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
        let r = cov / (vx.sqrt() * vy.sqrt());
        assert!(r > 0.65, "correlation too weak: {r}");
    }

    #[test]
    fn symmetric_leaves_get_separated() {
        // Star: hub 0, leaves 1..=4 all have identical distance rows.
        let t = Topology::from_links(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let e = m_position(&t, &[0, 1, 2, 3, 4]).unwrap();
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert!(
                    e.positions[i].distance(e.positions[j]) >= 1e-5,
                    "positions {i} and {j} coincide"
                );
            }
        }
    }

    #[test]
    fn transit_switches_are_skipped_but_route() {
        // Members 0 and 2 connected only through transit switch 1.
        let t = line(3);
        let e = m_position(&t, &[0, 2]).unwrap();
        assert_eq!(e.members, vec![0, 2]);
        // Distance covers 2 physical hops.
        assert!((e.positions[0].distance(e.positions[1]) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fit_scale_recovers_an_exact_hop_scale() {
        let t = line(40);
        let members: Vec<usize> = (0..40).collect();
        let positions: Vec<Point2> = (0..40)
            .map(|i| Point2::new(0.1 + 0.02 * i as f64, 0.5))
            .collect();
        let s = fit_scale(&t, &members, &positions).unwrap();
        assert!((s - 0.02).abs() < 1e-12, "{s}");
    }

    #[test]
    fn new_switch_embeds_near_its_neighbors() {
        let t = line(6);
        let members: Vec<usize> = (0..5).collect(); // 5 not yet a member
        let e = m_position(&t, &members).unwrap();
        let p = embed_new_switch(&t.bfs_hops(5), &e).unwrap();
        // Switch 5 hangs off switch 4, so its position should be closest
        // to switch 4's.
        let d4 = p.distance(e.positions[4]);
        for i in 0..4 {
            assert!(
                d4 <= p.distance(e.positions[i]) + 1e-9,
                "new switch should sit nearest member 4"
            );
        }
    }

    #[test]
    fn separate_duplicates_is_idempotent_on_distinct_points() {
        let mut pts = vec![Point2::new(0.2, 0.2), Point2::new(0.8, 0.8)];
        let before = pts.clone();
        separate_duplicates(&mut pts);
        assert_eq!(pts, before);
    }

    /// The all-pairs sweep `separate_duplicates` is specified against.
    fn separate_duplicates_naive(positions: &mut [Point2]) {
        const GOLDEN_ANGLE: f64 = 2.399_963_229_728_653;
        for round in 0..16 {
            let mut any = false;
            for i in 0..positions.len() {
                for j in (i + 1)..positions.len() {
                    if positions[i].distance(positions[j]) < MIN_SEPARATION {
                        let angle = GOLDEN_ANGLE * (j as f64 + 1.0) + round as f64;
                        let r = MIN_SEPARATION * (1.0 + round as f64);
                        positions[j] = Point2::new(
                            (positions[j].x + r * angle.cos()).clamp(0.001, 0.999),
                            (positions[j].y + r * angle.sin()).clamp(0.001, 0.999),
                        );
                        any = true;
                    }
                }
            }
            if !any {
                return;
            }
        }
    }

    #[test]
    fn grid_sweep_matches_naive_sweep() {
        // Clustered inputs with many sub-MIN_SEPARATION pairs, including
        // exact duplicates, plus uniform background points.
        let mut state = 0xdead_beef_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for n in [1usize, 2, 17, 64, 300] {
            let mut pts = Vec::with_capacity(n);
            for k in 0..n {
                pts.push(match k % 5 {
                    0 | 1 => Point2::new(0.25 + next() * 5e-5, 0.25 + next() * 5e-5),
                    2 => Point2::new(0.25, 0.25),
                    3 => Point2::new(0.75 + next() * 5e-5, 0.5),
                    _ => Point2::new(next(), next()),
                });
            }
            let mut grid = pts.clone();
            let mut naive = pts;
            separate_duplicates(&mut grid);
            separate_duplicates_naive(&mut naive);
            assert_eq!(grid, naive, "n={n}");
        }
    }

    /// The members near the corner (0.001, 0.999) that a 2,000-member
    /// churn stream had built when its next joiner, clamped into that
    /// corner, walked sixteen rounds of nudges and stopped 5.8e-5 from
    /// the last one listed here.
    const CROWDED_CORNER: [(f64, f64); 31] = [
        (0.0010000001639127731, 0.9989999998360872),
        (0.0010000001639127731, 0.998778366483748),
        (0.0010000001639127731, 0.9974485663697124),
        (0.0010000001639127731, 0.9970052996650338),
        (0.0010000001639127731, 0.9927942650392652),
        (0.0033338135108351707, 0.9989999998360872),
        (0.0010000001639127731, 0.9981134664267302),
        (0.005361851304769516, 0.9989999998360872),
        (0.0038394704461097717, 0.9989999998360872),
        (0.002840384840965271, 0.995887728407979),
        (0.0011030100286006927, 0.9979485906660557),
        (0.0010000001639127731, 0.9983350997790694),
        (0.0010000001639127731, 0.9985567331314087),
        (0.002055239863693714, 0.9976432109251618),
        (0.0015791254118084908, 0.99779590126127),
        (0.002518116496503353, 0.9980249777436256),
        (0.002980993129312992, 0.9984067436307669),
        (0.003443869762122631, 0.9987885095179081),
        (0.0031040506437420845, 0.9989999998360872),
        (0.002384365536272526, 0.9989999998360872),
        (0.0016646813601255417, 0.9989999998360872),
        (0.001911872997879982, 0.9964471710845828),
        (0.005028192885220051, 0.9967808611690998),
        (0.003925969824194908, 0.9963064100593328),
        (0.005240847356617451, 0.998063350096345),
        (0.004415047354996204, 0.9989999998360872),
        (0.0019289087504148483, 0.9986073030158877),
        (0.0010000001639127731, 0.9982146061956882),
        (0.0010000001639127731, 0.9978219084441662),
        (0.0010000001639127731, 0.9959034956991673),
        (0.0010000001639127731, 0.9943777788430452),
    ];

    #[test]
    fn a_joiner_clamped_into_a_crowded_corner_lands_clear() {
        // A nudge depends only on the sweep index and the round, and a
        // join+leave stream keeps the joiner's index (here 2,000) fixed,
        // so corner joiners walk the same sixteen nudges and the last
        // can end on an earlier one. Members far from the corner fill
        // the indices below the crowd.
        let mut members: Vec<Point2> = (0..2000 - CROWDED_CORNER.len())
            .map(|k| Point2::new(0.3 + 0.01 * (k % 40) as f64, 0.3 + 0.01 * (k / 40) as f64))
            .collect();
        members.extend(CROWDED_CORNER.iter().map(|&(x, y)| Point2::new(x, y)));
        let corner = Point2::new(0.001, 0.999);
        let mut swept = members.clone();
        swept.push(corner);
        separate_duplicates(&mut swept);
        let joined = swept[2000];
        assert_eq!(&swept[..2000], &members[..], "members stay put");
        assert!(members.iter().all(|q| q.distance(joined) >= MIN_SEPARATION));
        assert_eq!(separate_joiner(&members, corner), joined);
    }

    #[test]
    fn the_build_sweep_leaves_every_pair_separated() {
        // Three more points clamped into the crowded corner, as a build
        // sees them: sixteen rounds cannot clear them all.
        let mut pts: Vec<Point2> = (0..2000 - CROWDED_CORNER.len())
            .map(|k| Point2::new(0.3 + 0.01 * (k % 40) as f64, 0.3 + 0.01 * (k / 40) as f64))
            .chain(CROWDED_CORNER.iter().map(|&(x, y)| Point2::new(x, y)))
            .collect();
        pts.extend([Point2::new(0.001, 0.999); 3]);
        separate_duplicates(&mut pts);
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                assert!(pts[i].distance(pts[j]) >= MIN_SEPARATION, "{i} and {j}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// On members already pairwise separated, separating a joiner
        /// alone moves it exactly where the full sweep does, and the
        /// sweep moves nobody else — including when a crowded corner
        /// sends the joiner to the free-spot search.
        #[test]
        fn prop_joiner_separation_matches_the_sweep(
            cells in proptest::collection::hash_set((0u32..130, 0u32..4), 0..500),
            far in proptest::collection::vec((0.05f64..0.95, 0.05f64..0.95), 0..20),
            at in 0usize..3,
        ) {
            // Lattice points along the two border lines at the corner
            // (0.001, 0.999), where clamped joiners pile up.
            let spacing = 1.05 * MIN_SEPARATION;
            let along = |a: u32, b: u32| (0.001 + f64::from(b) * spacing, 0.999 - f64::from(a) * spacing);
            let mut members: Vec<Point2> = cells
                .iter()
                .flat_map(|&(a, b)| [along(a, b), along(b, a)])
                .map(|(x, y)| Point2::new(x, y))
                .collect();
            members.sort_by(|p, q| p.x.total_cmp(&q.x).then(p.y.total_cmp(&q.y)));
            members.dedup();
            members.extend(far.iter().map(|&(x, y)| Point2::new(x, y)));
            let mut separated = members.clone();
            separate_duplicates(&mut separated);
            proptest::prop_assume!(separated == members);
            let joiner = match at {
                0 => Point2::new(0.001, 0.999),
                1 => Point2::new(0.001 + 1.3 * spacing, 0.999 - 2.5 * spacing),
                _ => far.first().map_or(Point2::new(0.5, 0.5), |&(x, y)| Point2::new(x, y)),
            };
            let mut swept = members.clone();
            swept.push(joiner);
            separate_duplicates(&mut swept);
            proptest::prop_assert_eq!(&swept[..members.len()], &members[..]);
            proptest::prop_assert_eq!(separate_joiner(&members, joiner), swept[members.len()]);
        }
    }

    #[test]
    fn landmark_small_network_falls_back_to_exact_path() {
        let t = line(3);
        let members = vec![0, 1, 2];
        let full = m_position(&t, &members).unwrap();
        let lm = m_position_landmark(&t, &members, 8, 42, None).unwrap();
        assert_eq!(lm.positions, full.positions);
        assert_eq!(lm.scale, full.scale);
    }

    #[test]
    fn landmark_embedding_correlates_with_hops() {
        let (t, _) = waxman_topology(&WaxmanConfig::with_switches(50, 5));
        let members: Vec<usize> = (0..50).collect();
        let e = m_position_landmark(&t, &members, 12, 2019, None).unwrap();
        let m = t.shortest_path_matrix();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (i, row) in m.iter().enumerate() {
            for (j, &hops) in row.iter().enumerate().skip(i + 1) {
                xs.push(f64::from(hops));
                ys.push(e.positions[i].distance(e.positions[j]));
            }
        }
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
        let r = cov / (vx.sqrt() * vy.sqrt());
        assert!(r > 0.6, "landmark correlation too weak: {r}");
    }

    #[test]
    fn landmark_records_phase_timings() {
        let (t, _) = waxman_topology(&WaxmanConfig::with_switches(40, 9));
        let members: Vec<usize> = (0..40).collect();
        let mut report = gred_runtime::BuildReport::new();
        let _ = m_position_landmark(&t, &members, 10, 0, Some(&mut report)).unwrap();
        assert_eq!(report.phase_named("landmark_bfs").unwrap().items, 10);
        assert_eq!(report.phase_named("landmark_embed").unwrap().items, 10);
        assert_eq!(report.phase_named("trilateration").unwrap().items, 30);
    }

    #[test]
    fn landmark_disconnected_errors() {
        let mut t = line(10);
        t.isolate(9);
        let members: Vec<usize> = (0..10).collect();
        assert_eq!(
            m_position_landmark(&t, &members, 4, 0, None).unwrap_err(),
            GredError::Disconnected
        );
    }

    #[test]
    fn landmark_positions_stay_in_unit_square() {
        let (t, _) = waxman_topology(&WaxmanConfig::with_switches(80, 3));
        let members: Vec<usize> = (0..80).collect();
        let e = m_position_landmark(&t, &members, 16, 1, None).unwrap();
        assert_eq!(e.positions.len(), 80);
        for p in &e.positions {
            assert!((0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y));
        }
        // Distinct sites for the DT.
        for i in 0..80 {
            for j in (i + 1)..80 {
                assert!(e.positions[i].distance(e.positions[j]) >= 1e-5);
            }
        }
    }
}

/// Normalized stress of an embedding: how faithfully the virtual
/// distances reproduce the (scaled) hop distances,
/// `sqrt( Σ (d_ij − s·h_ij)² / Σ (s·h_ij)² )` over member pairs, with
/// `s` the embedding's hop-to-virtual scale. 0 is a perfect embedding;
/// values around 0.2–0.4 are typical for 2-D MDS of hop metrics.
///
/// # Panics
///
/// Panics if some member pair is unreachable (callers validate
/// connectivity at build time).
pub fn embedding_stress(topo: &Topology, embedding: &Embedding) -> f64 {
    let n = embedding.members.len();
    if n < 2 {
        return 0.0;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &a) in embedding.members.iter().enumerate() {
        let hops = topo.bfs_hops(a);
        for (j, &b) in embedding.members.iter().enumerate().skip(i + 1) {
            let h = hops[b];
            assert!(h != u32::MAX, "members must be mutually reachable");
            let want = f64::from(h) * embedding.scale;
            let got = embedding.positions[i].distance(embedding.positions[j]);
            num += (got - want) * (got - want);
            den += want * want;
        }
    }
    (num / den.max(1e-300)).sqrt()
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use gred_net::{waxman_topology, WaxmanConfig};

    #[test]
    fn perfect_line_has_low_stress() {
        let t = Topology::from_links(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let members: Vec<usize> = (0..5).collect();
        let e = m_position(&t, &members).unwrap();
        let s = embedding_stress(&t, &e);
        assert!(
            s < 0.05,
            "a path graph embeds almost exactly: stress {s:.3}"
        );
    }

    #[test]
    fn waxman_stress_is_moderate() {
        let (t, _) = waxman_topology(&WaxmanConfig::with_switches(50, 8));
        let members: Vec<usize> = (0..50).collect();
        let e = m_position(&t, &members).unwrap();
        let s = embedding_stress(&t, &e);
        assert!(s > 0.0 && s < 0.6, "stress out of expected band: {s:.3}");
    }

    #[test]
    fn single_member_zero_stress() {
        let t = Topology::new(1);
        let e = m_position(&t, &[0]).unwrap();
        assert_eq!(embedding_stress(&t, &e), 0.0);
    }
}
