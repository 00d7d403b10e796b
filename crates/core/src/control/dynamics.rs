//! Network dynamics: the membership tables of a join that cannot take the
//! incremental path (paper Section VI).
//!
//! The paper's incremental story: a joining node gets a position, DT edges
//! to its new neighbors, and forwarding entries; only data at those
//! neighbors is re-examined. A leaving node's DT edges are removed, its
//! neighbors re-triangulate locally, and its data migrates to them. Every
//! *existing* position stays fixed, so ownership of unaffected keys cannot
//! change. [`DtGraph::join`] and [`DtGraph::leave`] update the
//! triangulation locally. Only a join whose switch id sorts below an
//! existing member needs the tables here, and it rebuilds the
//! triangulation over them — the same DT, because a DT is uniquely
//! determined by its sites (up to co-circular ties).

use crate::control::dt::DtGraph;
use crate::error::GredError;
use gred_geometry::Point2;

/// The member/position tables of a network after a join.
#[derive(Debug, Clone)]
pub struct MembershipChange {
    /// New sorted member list.
    pub members: Vec<usize>,
    /// Positions parallel to `members`.
    pub positions: Vec<Point2>,
}

/// Adds `switch` at `position` to the membership.
///
/// # Errors
///
/// [`GredError::InvalidDynamics`] if the switch is already a member.
pub fn join_membership(
    dt: &DtGraph,
    switch: usize,
    position: Point2,
) -> Result<MembershipChange, GredError> {
    if dt.is_member(switch) {
        return Err(GredError::InvalidDynamics {
            reason: "switch is already a DT member",
        });
    }
    let mut members: Vec<usize> = dt.members().to_vec();
    let mut positions: Vec<Point2> = members
        .iter()
        .map(|&m| dt.position_of(m).expect("member has a position"))
        .collect();
    let insert_at = members.partition_point(|&m| m < switch);
    members.insert(insert_at, switch);
    positions.insert(insert_at, position);
    Ok(MembershipChange { members, positions })
}

#[cfg(test)]
mod tests {
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
    fn join_inserts_sorted() {
        let change = join_membership(&dt3(), 5, Point2::new(0.5, 0.5)).unwrap();
        assert_eq!(change.members, vec![1, 4, 5, 6]);
        assert!(change.positions[2].distance(Point2::new(0.5, 0.5)) < 1e-6);
        // Existing positions untouched (up to lattice snapping).
        assert!(change.positions[0].distance(Point2::new(0.2, 0.2)) < 1e-6);
    }

    #[test]
    fn join_existing_member_fails() {
        assert!(matches!(
            join_membership(&dt3(), 4, Point2::new(0.5, 0.5)),
            Err(GredError::InvalidDynamics { .. })
        ));
    }
}
