//! The four invariant families checked after every schedule step.
//!
//! Each check returns human-readable violation strings instead of
//! panicking, so the harness can attach the failing step and its
//! reproduction line before surfacing them.

use crate::oracle::Oracle;
use gred::plane::forwarding::route;
use gred::{GredError, GredNetwork};
use gred_geometry::empty_circumcircle_violation;
use gred_hash::DataId;

/// Runs every invariant family. `probe` must be an id never placed by the
/// schedule (fresh per step), used for the Theorem 1 delivery check;
/// `rotation` varies the access switch used per stored item so different
/// steps exercise different entry points.
pub fn check_all(
    net: &GredNetwork,
    oracle: &Oracle,
    probe: &DataId,
    rotation: usize,
) -> Vec<String> {
    let mut v = Vec::new();
    check_theorem1(net, oracle, probe, &mut v);
    check_delaunay(net, &mut v);
    check_retrievability(net, oracle, rotation, &mut v);
    check_table_hygiene(net, oracle, &mut v);
    v
}

/// Invariant 1 (Theorem 1): greedy forwarding from *every* member switch
/// reaches the server the oracle's brute-force nearest scan names.
fn check_theorem1(net: &GredNetwork, oracle: &Oracle, probe: &DataId, out: &mut Vec<String>) {
    let expected = oracle.owner(probe);
    let position = net.position_of_id(probe);
    for &from in net.members() {
        match route(net.dataplanes(), from, position, probe) {
            Ok(r) => {
                if r.server != expected {
                    out.push(format!(
                        "theorem1: route from {from} for {probe:?} ended at {} (dest {}), \
                         oracle says {expected}",
                        r.server, r.dest
                    ));
                }
            }
            Err(e) => out.push(format!(
                "theorem1: route from {from} for {probe:?} failed: {e}"
            )),
        }
    }
}

/// Invariant 2: the live DT is a valid Delaunay triangulation of the
/// member positions (exact empty-circumcircle test). Collinear member
/// sets degrade to a path and carry no triangles to check.
fn check_delaunay(net: &GredNetwork, out: &mut Vec<String>) {
    let tri = net.dt().triangulation();
    if tri.is_collinear() {
        return;
    }
    if let Some((t, p)) = empty_circumcircle_violation(tri.points(), &tri.triangles()) {
        out.push(format!(
            "delaunay: triangle {t} has point {p} inside its circumcircle"
        ));
    }
}

/// Invariant 3: every datum the oracle holds is retrievable with the
/// oracle's payload from the oracle's location; every tombstoned datum is
/// gone.
fn check_retrievability(
    net: &GredNetwork,
    oracle: &Oracle,
    rotation: usize,
    out: &mut Vec<String>,
) {
    let members = net.members();
    if members.is_empty() {
        out.push("retrievability: network has no members".to_string());
        return;
    }
    for (i, (id, item)) in oracle.items().enumerate() {
        let access = members[(i + rotation) % members.len()];
        match net.retrieve(id, access) {
            Ok(res) => {
                if res.payload != item.payload {
                    out.push(format!(
                        "retrievability: {id:?} from {access} returned the wrong payload"
                    ));
                }
                if res.server != item.loc {
                    out.push(format!(
                        "retrievability: {id:?} served by {} but oracle places it on {}",
                        res.server, item.loc
                    ));
                }
            }
            Err(e) => out.push(format!(
                "retrievability: {id:?} from {access} failed: {e} (oracle holds it on {})",
                item.loc
            )),
        }
    }
    for (i, id) in oracle.tombstones().enumerate() {
        let access = members[(i + rotation) % members.len()];
        match net.retrieve(id, access) {
            Err(GredError::NotFound) => {}
            Ok(res) => out.push(format!(
                "retrievability: tombstoned {id:?} still served by {}",
                res.server
            )),
            Err(e) => out.push(format!(
                "retrievability: tombstoned {id:?} lookup failed oddly: {e}"
            )),
        }
    }
}

/// Invariant 4: forwarding state never references departed switches, each
/// member's neighbor entries mirror the controller's DT exactly, and the
/// network's own self-audit is clean.
fn check_table_hygiene(net: &GredNetwork, oracle: &Oracle, out: &mut Vec<String>) {
    // Oracle and controller agree on the world before we compare the
    // switches against it.
    if oracle.member_ids() != net.members() {
        out.push(format!(
            "hygiene: oracle members {:?} != network members {:?}",
            oracle.member_ids(),
            net.members()
        ));
    }
    for &m in net.members() {
        let Some(member) = oracle.member(m) else {
            continue; // already reported above
        };
        if Some(member.position) != net.position_of_switch(m) {
            out.push(format!("hygiene: switch {m} position drifted from oracle"));
        }
        if member.servers != net.pool().servers_at(m) {
            out.push(format!(
                "hygiene: switch {m} server count drifted from oracle"
            ));
        }
    }
    if oracle.extensions() != net.active_extensions() {
        out.push(format!(
            "hygiene: oracle extensions {:?} != network extensions {:?}",
            oracle.extensions(),
            net.active_extensions()
        ));
    }

    // Per-switch tables: no entry may name a non-member, and each member
    // plane's DT adjacency must match the controller's triangulation.
    for s in 0..net.topology().switch_count() {
        let plane = &net.dataplanes()[s];
        for entry in plane.neighbor_entries() {
            if !net.is_member(entry.neighbor) {
                out.push(format!(
                    "hygiene: switch {s} has a neighbor entry for departed switch {}",
                    entry.neighbor
                ));
            }
        }
        for tuple in plane.relay_entries() {
            if !net.is_member(tuple.dest) || !net.is_member(tuple.sour) {
                out.push(format!(
                    "hygiene: switch {s} relays {}->{} involving a departed switch",
                    tuple.sour, tuple.dest
                ));
            }
        }
    }
    for &m in net.members() {
        let mut installed: Vec<usize> = net.dataplanes()[m]
            .neighbor_entries()
            .map(|e| e.neighbor)
            .collect();
        installed.sort_unstable();
        // The controller installs DT neighbors plus physical member
        // neighbors (Algorithm 2 greedily considers both).
        let mut expected = net.dt().neighbors_of(m);
        for v in net.topology().neighbors(m) {
            if net.is_member(v) {
                expected.push(v);
            }
        }
        expected.sort_unstable();
        expected.dedup();
        if installed != expected {
            out.push(format!(
                "hygiene: switch {m} neighbor entries {installed:?} != DT ∪ physical members {expected:?}"
            ));
        }
        for entry in net.dataplanes()[m].neighbor_entries() {
            if Some(entry.position) != net.position_of_switch(entry.neighbor) {
                out.push(format!(
                    "hygiene: switch {m} caches a stale position for neighbor {}",
                    entry.neighbor
                ));
            }
        }
    }
    for (original, takeover) in net.active_extensions() {
        if !net.server_exists(original) || !net.server_exists(takeover) {
            out.push(format!(
                "hygiene: extension {original}->{takeover} references a missing server"
            ));
        }
    }
    for problem in net.verify_invariants() {
        out.push(format!("hygiene: self-audit: {problem}"));
    }
}
