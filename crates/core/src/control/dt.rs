//! The controller's multi-hop DT over storage switches.
//!
//! Wraps the geometric [`Triangulation`] with the switch-id bookkeeping
//! the rest of the system needs: members are arbitrary switch ids, DT
//! vertices are member indices, and positions may differ from the raw
//! embedding after C-regulation.

use crate::error::GredError;
use gred_geometry::{Point2, Rewritten, Triangulation};

/// The DT of the storage switches in the virtual space.
#[derive(Debug, Clone)]
pub struct DtGraph {
    members: Vec<usize>,
    triangulation: Triangulation,
}

impl DtGraph {
    /// Triangulates `positions` (parallel to `members`, which must be
    /// sorted ascending).
    ///
    /// # Errors
    ///
    /// Propagates triangulation failures (duplicate or invalid points).
    ///
    /// # Panics
    ///
    /// Panics if `members` and `positions` lengths differ or `members` is
    /// not sorted.
    pub fn build(members: Vec<usize>, positions: &[Point2]) -> Result<Self, GredError> {
        assert_eq!(members.len(), positions.len(), "members/positions mismatch");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be sorted"
        );
        let triangulation = Triangulation::new(positions)?;
        Ok(DtGraph {
            members,
            triangulation,
        })
    }

    /// The member switch ids, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the graph has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `switch` is a DT member.
    pub fn is_member(&self, switch: usize) -> bool {
        self.members.binary_search(&switch).is_ok()
    }

    /// The member index of `switch`.
    pub fn index_of(&self, switch: usize) -> Option<usize> {
        self.members.binary_search(&switch).ok()
    }

    /// The (lattice-snapped) virtual position of `switch`.
    pub fn position_of(&self, switch: usize) -> Option<Point2> {
        self.index_of(switch)
            .map(|i| self.triangulation.points()[i])
    }

    /// DT neighbors of `switch`, as switch ids.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is not a member.
    pub fn neighbors_of(&self, switch: usize) -> Vec<usize> {
        let i = self.index_of(switch).expect("switch is a DT member");
        self.triangulation
            .neighbors(i)
            .map(|j| self.members[j])
            .collect()
    }

    /// The member switch whose position is nearest `p` (ties broken by
    /// coordinate rank — the paper's Voronoi-edge tie-break).
    pub fn nearest_switch(&self, p: Point2) -> usize {
        self.members[self.triangulation.nearest(p)]
    }

    /// All DT edges as `(smaller switch id, larger switch id)`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.triangulation
            .edges()
            .into_iter()
            .map(|(i, j)| {
                let (a, b) = (self.members[i], self.members[j]);
                (a.min(b), a.max(b))
            })
            .collect()
    }

    /// Access to the underlying triangulation (for diagnostics/tests).
    pub fn triangulation(&self) -> &Triangulation {
        &self.triangulation
    }

    /// Incremental join (paper Section VI), in place: inserts `switch` at
    /// `position` without moving any existing site, updating the
    /// triangulation locally via [`Triangulation::insert`]. The joiner's
    /// id must be larger than every current member's — always true for a
    /// freshly added switch, which takes the next free id.
    ///
    /// Returns the neighbor lists it rewrote, in switch ids.
    ///
    /// # Errors
    ///
    /// [`GredError::InvalidDynamics`] when `switch` is already a member
    /// or sorts below one; triangulation errors otherwise. On error
    /// `self` is unchanged.
    pub fn join(&mut self, switch: usize, position: Point2) -> Result<Rewritten, GredError> {
        if self.members.last().is_some_and(|&m| switch <= m) {
            return Err(GredError::InvalidDynamics {
                reason: "a joining switch must take an id above every member",
            });
        }
        let replaced = self.triangulation.insert(position)?;
        let replaced = self.to_switches(replaced);
        self.members.push(switch);
        Ok(replaced)
    }

    /// Incremental leave (paper Section VI), in place: removes `switch`,
    /// and only its DT cell is re-triangulated, via
    /// [`Triangulation::remove`]. No other member moves.
    ///
    /// Returns the neighbor lists it rewrote, in switch ids.
    ///
    /// # Errors
    ///
    /// [`GredError::InvalidDynamics`] when `switch` is not a member or is
    /// the last one; `self` is then unchanged.
    pub fn leave(&mut self, switch: usize) -> Result<Rewritten, GredError> {
        let idx = leaving_index(&self.members, switch)?;
        let replaced = self.triangulation.remove(idx)?;
        let replaced = self.to_switches(replaced);
        self.members.remove(idx);
        Ok(replaced)
    }

    /// The triangulation's `(index, neighbor indices)` pairs as switch ids.
    fn to_switches(&self, pairs: Rewritten) -> Rewritten {
        let id = |i: usize| self.members[i];
        let ids = |list: Vec<usize>| list.into_iter().map(id).collect();
        pairs
            .into_iter()
            .map(|(v, list)| (id(v), ids(list)))
            .collect()
    }
}

/// The index of `switch` in the ascending `members`, if it may leave:
/// [`GredError::InvalidDynamics`] when it is no member or the last one.
pub(crate) fn leaving_index(members: &[usize], switch: usize) -> Result<usize, GredError> {
    let Ok(idx) = members.binary_search(&switch) else {
        return Err(GredError::InvalidDynamics {
            reason: "switch is not a DT member",
        });
    };
    if members.len() == 1 {
        return Err(GredError::InvalidDynamics {
            reason: "cannot remove the last storage switch",
        });
    }
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_dt() -> DtGraph {
        // Members 2, 5, 7, 9 at the unit-square corners.
        DtGraph::build(
            vec![2, 5, 7, 9],
            &[
                Point2::new(0.1, 0.1),
                Point2::new(0.9, 0.1),
                Point2::new(0.1, 0.9),
                Point2::new(0.9, 0.9),
            ],
        )
        .unwrap()
    }

    #[test]
    fn membership_and_positions() {
        let dt = square_dt();
        assert_eq!(dt.len(), 4);
        assert!(!dt.is_empty());
        assert!(dt.is_member(5));
        assert!(!dt.is_member(3));
        assert_eq!(dt.index_of(7), Some(2));
        let p = dt.position_of(9).unwrap();
        assert!((p.x - 0.9).abs() < 1e-6 && (p.y - 0.9).abs() < 1e-6);
        assert_eq!(dt.position_of(4), None);
    }

    #[test]
    fn neighbors_map_to_switch_ids() {
        let dt = square_dt();
        let ns = dt.neighbors_of(2);
        // Corner is adjacent to at least the two adjacent corners.
        assert!(ns.contains(&5) && ns.contains(&7));
        for n in ns {
            assert!(dt.is_member(n));
        }
    }

    #[test]
    fn nearest_uses_switch_ids() {
        let dt = square_dt();
        assert_eq!(dt.nearest_switch(Point2::new(0.85, 0.88)), 9);
    }

    #[test]
    fn edges_are_switch_id_pairs() {
        let dt = square_dt();
        for (a, b) in dt.edges() {
            assert!(a < b);
            assert!(dt.is_member(a) && dt.is_member(b));
        }
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_members_panic() {
        let _ = DtGraph::build(vec![3, 1], &[Point2::new(0.1, 0.1), Point2::new(0.9, 0.9)]);
    }
}

#[cfg(test)]
mod join_tests {
    use super::*;

    #[test]
    fn incremental_join_adds_member_without_moving_others() {
        let dt = DtGraph::build(
            vec![1, 4, 6],
            &[
                Point2::new(0.2, 0.2),
                Point2::new(0.8, 0.2),
                Point2::new(0.5, 0.8),
            ],
        )
        .unwrap();
        let mut joined = dt.clone();
        joined.join(9, Point2::new(0.5, 0.4)).unwrap();
        assert_eq!(joined.members(), &[1, 4, 6, 9]);
        for &m in dt.members() {
            assert_eq!(joined.position_of(m), dt.position_of(m), "member {m} moved");
        }
        assert!(joined.triangulation().delaunay_violation().is_none());
        // The newcomer is interior to the triangle: it neighbors everyone.
        assert_eq!(joined.neighbors_of(9).len(), 3);
    }

    #[test]
    fn join_with_smaller_id_is_refused() {
        let dt = DtGraph::build(
            vec![4, 6, 8],
            &[
                Point2::new(0.2, 0.2),
                Point2::new(0.8, 0.2),
                Point2::new(0.5, 0.8),
            ],
        )
        .unwrap();
        let mut joined = dt.clone();
        assert!(matches!(
            joined.join(2, Point2::new(0.5, 0.4)),
            Err(GredError::InvalidDynamics { .. })
        ));
        assert_eq!(joined.members(), dt.members());
        assert_eq!(joined.triangulation().points(), dt.triangulation().points());
        assert_eq!(joined.edges(), dt.edges());
    }

    #[test]
    fn join_existing_member_rejected() {
        let mut dt = DtGraph::build(
            vec![1, 4],
            &[Point2::new(0.25, 0.5), Point2::new(0.75, 0.5)],
        )
        .unwrap();
        assert!(matches!(
            dt.join(4, Point2::new(0.5, 0.6)),
            Err(GredError::InvalidDynamics { .. })
        ));
    }
}

#[cfg(test)]
mod leave_tests {
    use super::*;

    fn dt3() -> DtGraph {
        DtGraph::build(
            vec![1, 4, 6],
            &[
                Point2::new(0.2, 0.2),
                Point2::new(0.8, 0.2),
                Point2::new(0.5, 0.8),
            ],
        )
        .unwrap()
    }

    #[test]
    fn leave_removes_only_target() {
        let mut left = dt3();
        left.leave(4).unwrap();
        assert_eq!(left.members(), &[1, 6]);
        assert_eq!(left.position_of(1), dt3().position_of(1));
        assert_eq!(left.position_of(6), dt3().position_of(6));
        assert_eq!(left.edges(), vec![(1, 6)]);
    }

    #[test]
    fn leave_matches_a_rebuild_of_the_rest() {
        // Members 10, 20, ... on a jittered 6×6 grid; every leave must
        // give the DT a rebuild of the remaining members gives.
        let members: Vec<usize> = (1..=36).map(|k| 10 * k).collect();
        let positions: Vec<Point2> = (0..36u32)
            .map(|k| {
                let jitter = f64::from((k * 7919) % 97) / 97.0 * 0.05;
                Point2::new(
                    0.1 + f64::from(k / 6) * 0.15 + jitter,
                    0.1 + f64::from(k % 6) * 0.15 - jitter / 2.0,
                )
            })
            .collect();
        let dt = DtGraph::build(members.clone(), &positions).unwrap();
        for (idx, &m) in members.iter().enumerate() {
            let mut left = dt.clone();
            left.leave(m).unwrap();
            let (mut rest, mut at) = (members.clone(), positions.clone());
            rest.remove(idx);
            at.remove(idx);
            assert_eq!(left.edges(), DtGraph::build(rest, &at).unwrap().edges());
        }
    }

    #[test]
    fn leave_non_member_fails() {
        assert!(matches!(
            dt3().leave(2),
            Err(GredError::InvalidDynamics { .. })
        ));
    }

    #[test]
    fn cannot_remove_last_member() {
        let mut dt = DtGraph::build(vec![3], &[Point2::new(0.5, 0.5)]).unwrap();
        assert!(matches!(
            dt.leave(3),
            Err(GredError::InvalidDynamics { .. })
        ));
    }
}
