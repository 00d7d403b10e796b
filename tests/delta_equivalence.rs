//! Decision equivalence of the incremental delta update under seeded
//! churn, against two references: the same events applied one at a time
//! (`add_switch`/`remove_switch`, each a one-event delta batch), and a
//! full installation (`gred::control::install_dataplanes`) on the state
//! the batch leaves behind. The one-at-a-time reference runs the delta
//! path too, so it checks batching and event order; the full
//! installation is the reference for the delta's correctness.
//!
//! `GredNetwork::apply_delta` must produce a network that *behaves*
//! exactly like both: identical members, positions, DT adjacency, data
//! ownership, overlay routes, and physical path lengths. Relay tables
//! need not be bit-equal — a leave can re-break BFS ties among
//! equal-length paths, and a join can open an equal-length path a
//! from-scratch search finds first — which is why the oracle compares
//! decisions, not tables.

use gred::control::install_dataplanes;
use gred::plane::forwarding::route;
use gred::{GredConfig, GredError, GredNetwork, TopologyChange};
use gred_dataplane::DtTuple;
use gred_hash::DataId;
use gred_net::{waxman_topology, ServerPool, TopologyError, WaxmanConfig};
use std::collections::{BTreeMap, BTreeSet};

/// Deterministic LCG, so churn schedules are reproducible.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

fn base_network(switches: usize, seed: u64) -> GredNetwork {
    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, seed));
    let pool = ServerPool::uniform(switches, 2, u64::MAX);
    let mut net = GredNetwork::build(topo, pool, GredConfig::with_iterations(10).seeded(seed))
        .expect("base build");
    for i in 0..80 {
        net.place(
            &DataId::new(format!("churn-{seed}-{i}")),
            bytes::Bytes::new(),
            i % switches,
        )
        .expect("seed placement");
    }
    net
}

/// Draws a churn batch and keeps only events the sequential path accepts
/// (probing each event on a clone), so both paths see an all-valid batch.
fn valid_batch(net: &GredNetwork, rng: &mut Lcg, events: usize) -> Vec<TopologyChange> {
    let mut probe = net.clone();
    let mut batch = Vec::new();
    for _ in 0..events {
        let n = probe.topology().switch_count();
        let change = if rng.next().is_multiple_of(3) && probe.members().len() > 4 {
            let victim = probe.members()[rng.pick(probe.members().len())];
            TopologyChange::Leave { switch: victim }
        } else {
            let mut links = vec![rng.pick(n), rng.pick(n)];
            links.dedup();
            TopologyChange::Join {
                links,
                capacities: vec![u64::MAX; 1 + rng.pick(2)],
            }
        };
        let accepted = match &change {
            TopologyChange::Join { links, capacities } => {
                probe.add_switch(links, capacities.clone()).is_ok()
            }
            TopologyChange::Leave { switch } => probe.remove_switch(*switch).is_ok(),
        };
        if accepted {
            batch.push(change);
        }
    }
    batch
}

fn assert_decision_equivalent(seq: &GredNetwork, delta: &GredNetwork, tag: &str) {
    assert_eq!(seq.members(), delta.members(), "{tag}: members");
    for &m in seq.members() {
        assert_eq!(
            seq.position_of_switch(m),
            delta.position_of_switch(m),
            "{tag}: position of {m}"
        );
    }
    assert_eq!(seq.dt().edges(), delta.dt().edges(), "{tag}: DT edges");
    assert!(
        delta.verify_invariants().is_empty(),
        "{tag}: delta invariants: {:?}",
        delta.verify_invariants()
    );

    // Ownership and routing decisions agree for a spread of keys, from a
    // spread of access switches — overlay routes bit-equal, physical
    // path lengths equal (exact relay chains may legitimately differ).
    let seq_probe = seq.clone();
    let delta_probe = delta.clone();
    let accesses: Vec<usize> = seq.members().iter().copied().take(5).collect();
    for i in 0..60 {
        let id = DataId::new(format!("probe-{tag}-{i}"));
        assert_eq!(
            seq.responsible_server(&id),
            delta.responsible_server(&id),
            "{tag}: owner of key {i}"
        );
        let access = accesses[i % accesses.len()];
        let s = seq_probe.retrieve(&id, access);
        let d = delta_probe.retrieve(&id, access);
        match (s, d) {
            (Ok(s), Ok(d)) => {
                assert_eq!(s.server, d.server, "{tag}: key {i} server");
                assert_eq!(s.route.overlay, d.route.overlay, "{tag}: key {i} overlay");
                assert_eq!(
                    s.route.physical_hops(),
                    d.route.physical_hops(),
                    "{tag}: key {i} physical hops"
                );
            }
            (Err(_), Err(_)) => {} // both miss the same way (item absent)
            (s, d) => panic!("{tag}: key {i} diverged: seq={s:?} delta={d:?}"),
        }
    }

    // Stored state ended up in the same place.
    let mut seq_loads = seq.server_loads();
    let mut delta_loads = delta.server_loads();
    seq_loads.sort();
    delta_loads.sort();
    assert_eq!(seq_loads, delta_loads, "{tag}: server loads");
}

/// One `apply_delta` batch against the same events as one-event
/// `apply_delta` batches (`add_switch`/`remove_switch`). Both sides run
/// the delta path, so a fault in it shows on both alike: this checks
/// batching and event order only (it still passes with trigger 4
/// switched off). The correctness check of the delta itself is
/// `seeded_churn_bursts_route_like_a_full_install`.
#[test]
fn seeded_churn_bursts_match_sequential_dynamics() {
    for seed in [11u64, 23, 47, 91] {
        let net = base_network(24, seed);
        let mut rng = Lcg(seed ^ 0x5DEECE66D);
        let batch = valid_batch(&net, &mut rng, 6);
        assert!(!batch.is_empty(), "seed {seed}: empty batch drawn");

        let mut delta = net.clone();
        let report = delta.apply_delta(&batch).expect("delta applies");
        assert_eq!(
            report.joined.len() + report.left.len(),
            batch.len(),
            "seed {seed}: every event accounted for"
        );

        let mut seq = net;
        for change in &batch {
            match change {
                TopologyChange::Join { links, capacities } => {
                    seq.add_switch(links, capacities.clone())
                        .expect("probed ok");
                }
                TopologyChange::Leave { switch } => {
                    seq.remove_switch(*switch).expect("probed ok");
                }
            }
        }
        assert_decision_equivalent(&seq, &delta, &format!("seed{seed}"));
    }
}

#[test]
fn seeded_churn_bursts_route_like_a_full_install() {
    for seed in [11u64, 23, 47, 91] {
        let mut net = base_network(24, seed);
        let mut rng = Lcg(seed ^ 0x5DEECE66D);
        for round in 0..3 {
            let batch = valid_batch(&net, &mut rng, 6);
            net.apply_delta(&batch).expect("delta applies");
            let (full, _) =
                install_dataplanes(net.topology(), net.pool(), net.dt()).expect("full install");
            for i in 0..60 {
                let id = DataId::new(format!("full-{seed}-{i}"));
                let position = net.position_of_id(&id);
                for &m in net.members() {
                    let tag = format!("seed {seed} round {round}: key {i} from {m}");
                    let delta = route(net.dataplanes(), m, position, &id).expect("delta route");
                    let reference = route(&full, m, position, &id).expect("full route");
                    assert_eq!(delta.overlay, reference.overlay, "{tag}: overlay");
                    assert_eq!(
                        delta.physical_hops(),
                        reference.physical_hops(),
                        "{tag}: physical hops"
                    );
                    assert_eq!(delta.delivery(), reference.delivery(), "{tag}: server");
                }
            }
        }
    }
}

#[test]
fn repeated_delta_batches_stay_healthy() {
    // Several delta batches back to back — stale state from batch k must
    // not poison batch k+1.
    let mut net = base_network(20, 77);
    let mut rng = Lcg(0xFEED);
    for round in 0..4 {
        let batch = valid_batch(&net, &mut rng, 4);
        if batch.is_empty() {
            continue;
        }
        let report = net.apply_delta(&batch).expect("delta applies");
        assert!(
            report.affected.len() <= report.members_total,
            "round {round}: affected exceeds membership"
        );
        assert!(
            net.verify_invariants().is_empty(),
            "round {round}: {:?}",
            net.verify_invariants()
        );
    }
    // Everything placed at the start is still retrievable.
    let access = net.members()[0];
    for i in 0..80 {
        let id = DataId::new(format!("churn-77-{i}"));
        net.retrieve(&id, access)
            .unwrap_or_else(|e| panic!("key {i} lost after churn: {e:?}"));
    }
}

#[test]
fn delta_localizes_work_on_large_networks() {
    // The point of the delta path: one join in a 150-member network must
    // not touch most members' forwarding state.
    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(150, 13));
    let pool = ServerPool::uniform(150, 2, u64::MAX);
    let mut net = GredNetwork::build(
        topo,
        pool,
        GredConfig::with_iterations(5).seeded(13).landmarks(24),
    )
    .expect("landmark build");
    let report = net
        .apply_delta(&[TopologyChange::Join {
            links: vec![3, 70],
            capacities: vec![u64::MAX],
        }])
        .expect("delta applies");
    assert!(
        report.affected.len() < 30,
        "one join re-installed {} of {} members",
        report.affected.len(),
        report.members_total
    );
    assert!(report.reuse_ratio() > 0.8);
    assert!(net.verify_invariants().is_empty());
}

/// Relay chain of one virtual link: each intermediate switch with the
/// tuple installed there, in path order.
type Chain = Vec<(usize, DtTuple)>;

/// Every virtual link of `net`, `(sour, dest)`, with its relay chain.
fn chains(net: &GredNetwork) -> BTreeMap<(usize, usize), Chain> {
    let planes = net.dataplanes();
    let mut out = BTreeMap::new();
    for &u in net.members() {
        for entry in planes[u].neighbor_entries().filter(|e| !e.physical) {
            let (v, mut at) = (entry.neighbor, entry.via);
            let mut chain = Vec::new();
            while at != v {
                let tuple = *planes[at].relay_lookup(v, u).expect("complete chain");
                chain.push((at, tuple));
                assert!(chain.len() < planes.len(), "chain {u}->{v} loops");
                at = tuple.succ;
            }
            out.insert((u, v), chain);
        }
    }
    out
}

/// The links of `after` whose chain is not the one `before` had.
fn changed(
    before: &BTreeMap<(usize, usize), Chain>,
    after: &BTreeMap<(usize, usize), Chain>,
) -> BTreeSet<(usize, usize)> {
    let differs = |(link, chain): &(&(usize, usize), &Chain)| before.get(link) != Some(chain);
    after
        .iter()
        .filter(differs)
        .map(|(&link, _)| link)
        .collect()
}

/// The links of `after` that `before` did not have.
fn new_links(
    before: &BTreeMap<(usize, usize), Chain>,
    after: &BTreeMap<(usize, usize), Chain>,
) -> BTreeSet<(usize, usize)> {
    let new = after.keys().filter(|link| !before.contains_key(link));
    new.copied().collect()
}

#[test]
fn a_relay_leave_re_searches_exactly_the_chains_through_it() {
    let net = base_network(60, 29);
    let before = chains(&net);
    // The member relaying the most chains whose leave is accepted.
    let mut relays = net.members().to_vec();
    relays.sort_by_key(|&m| std::cmp::Reverse(net.dataplanes()[m].relay_entries().count()));
    let (leaver, after_net, report) = relays
        .iter()
        .find_map(|&l| {
            let mut after = net.clone();
            let report = after
                .apply_delta(&[TopologyChange::Leave { switch: l }])
                .ok()?;
            Some((l, after, report))
        })
        .expect("some member can leave");
    let after = chains(&after_net);

    // Links through the leaver that survive it; none can keep its chain.
    let through: BTreeSet<(usize, usize)> = before
        .iter()
        .filter(|(link, chain)| after.contains_key(link) && chain.iter().any(|&(s, _)| s == leaver))
        .map(|(&link, _)| link)
        .collect();
    assert!(
        !through.is_empty(),
        "no surviving chain ran through {leaver}"
    );
    let new = new_links(&before, &after);
    assert_eq!(changed(&before, &after), &through | &new);
    assert_eq!(report.links_searched, through.len() + new.len());

    // The same affected members' other links kept every tuple.
    let kept = after
        .iter()
        .filter(|(link, chain)| {
            report.affected.contains(&link.0) && before.get(link) == Some(chain)
        })
        .count();
    assert!(kept > 0, "no affected member kept a link");
    assert!(after_net.verify_invariants().is_empty());
}

#[test]
fn a_shortcut_joiner_re_searches_exactly_the_shortened_link() {
    let net = base_network(60, 31);
    let before = chains(&net);
    // The longest virtual link that a joiner wired to both ends leaves
    // in the DT: it shrinks to two hops through the joiner.
    let mut longest: Vec<(usize, usize)> = before.keys().copied().collect();
    longest.sort_by_key(|link| std::cmp::Reverse(before[link].len()));
    let ((u, v), after_net, report) = longest
        .iter()
        .take_while(|link| before[*link].len() >= 2)
        .find_map(|&(u, v)| {
            let mut after = net.clone();
            let report = after
                .apply_delta(&[TopologyChange::Join {
                    links: vec![u, v],
                    capacities: vec![u64::MAX],
                }])
                .expect("a join applies");
            after
                .dt()
                .neighbors_of(u)
                .contains(&v)
                .then_some(((u, v), after, report))
        })
        .expect("some link of three or more hops stays in the DT");
    let after = chains(&after_net);
    let joiner = report.joined[0];
    assert_eq!(
        after[&(u, v)].iter().map(|&(s, _)| s).collect::<Vec<_>>(),
        [joiner]
    );
    assert_eq!(
        after[&(v, u)].iter().map(|&(s, _)| s).collect::<Vec<_>>(),
        [joiner]
    );

    // Exactly the links the joiner strictly shortens were searched again,
    // both directions of each; every other one kept its chain.
    let topo = after_net.topology();
    let shortened: BTreeSet<(usize, usize)> = before
        .iter()
        .filter(|(link, chain)| {
            after.contains_key(link) && (topo.bfs_hops(link.0)[link.1] as usize) < chain.len() + 1
        })
        .map(|(&link, _)| link)
        .collect();
    assert!(shortened.contains(&(u, v)) && shortened.contains(&(v, u)));
    assert!(shortened.iter().all(|&(a, b)| shortened.contains(&(b, a))));
    let new = new_links(&before, &after);
    assert_eq!(changed(&before, &after), &shortened | &new);
    assert_eq!(report.links_searched, shortened.len() + new.len());
    assert!(after_net.verify_invariants().is_empty());
}

#[test]
fn every_chain_stays_a_shortest_path_under_churn() {
    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(200, 2019));
    let pool = ServerPool::uniform(200, 4, u64::MAX);
    let config = GredConfig::with_iterations(10).seeded(2019).landmarks(16);
    let mut net = GredNetwork::build(topo, pool, config).expect("base build");
    let mut rng = Lcg(2019);
    let mut applied = 0;
    for round in 0..60 {
        let members = net.members();
        let mut links = vec![
            members[rng.pick(members.len())],
            members[rng.pick(members.len())],
        ];
        links.dedup();
        let leaver = members[rng.pick(members.len())];
        let batch = [
            TopologyChange::Join {
                links,
                capacities: vec![u64::MAX; 4],
            },
            TopologyChange::Leave { switch: leaver },
        ];
        applied += usize::from(net.apply_delta(&batch).is_ok());
        let findings = net.verify_invariants();
        assert!(findings.is_empty(), "round {round}: {findings:?}");
    }
    assert!(applied > 50, "only {applied} of 60 batches applied");

    // Check 4 of verify_invariants, by hand: every chain is as short as
    // the topology allows.
    let mut from = (usize::MAX, Vec::new());
    for ((u, v), chain) in chains(&net) {
        if from.0 != u {
            from = (u, net.topology().bfs_hops(u));
        }
        assert_eq!(chain.len() + 1, from.1[v] as usize, "link {u}->{v}");
    }
}

/// Everything a refused batch must leave as it was: the topology, the
/// members and their positions, the DT edges, every plane's neighbor and
/// relay entries, and the store.
type Snapshot = (
    gred_net::Topology,
    Vec<(usize, gred_geometry::Point2)>,
    Vec<(usize, usize)>,
    Vec<(Vec<gred_dataplane::NeighborEntry>, Vec<DtTuple>)>,
    Vec<(gred_net::ServerId, DataId)>,
);

fn snapshot(net: &GredNetwork) -> Snapshot {
    let positions = net
        .members()
        .iter()
        .map(|&m| (m, net.position_of_switch(m).expect("member position")))
        .collect();
    let tables = net
        .dataplanes()
        .iter()
        .map(|p| {
            (
                p.neighbor_entries().copied().collect(),
                p.relay_entries().copied().collect(),
            )
        })
        .collect();
    (
        net.topology().clone(),
        positions,
        net.dt().edges(),
        tables,
        net.store().all_locations(),
    )
}

/// A member whose leave the network accepts on its own.
fn removable_member(net: &GredNetwork) -> usize {
    let members = net.members();
    *members[1..]
        .iter()
        .find(|&&m| net.clone().remove_switch(m).is_ok())
        .expect("a removable member")
}

#[test]
fn a_batch_refused_mid_way_changes_nothing() {
    // Each batch is refused at its second or third event, after earlier
    // events edited the topology: the refusal must undo them all.
    for seed in [3, 17] {
        let mut net = base_network(24, seed);
        let n = net.topology().switch_count();
        let anchor = net.members()[0];
        let victim = removable_member(&net);
        let join = |links: Vec<usize>| TopologyChange::Join {
            links,
            capacities: vec![u64::MAX],
        };
        let refused = [
            // The joiner hangs off `anchor` alone, so `anchor` leaving
            // cuts it off from every other member.
            (
                vec![join(vec![anchor]), TopologyChange::Leave { switch: anchor }],
                GredError::Disconnected,
            ),
            // The second joiner's first link is made before its second
            // one is refused.
            (
                vec![join(vec![1, 2]), join(vec![0, n + 99])],
                GredError::Topology(TopologyError::SwitchOutOfRange {
                    switch: n + 99,
                    count: n + 2,
                }),
            ),
            // `victim` is no member any more when it leaves again.
            (
                vec![
                    join(vec![2]),
                    TopologyChange::Leave { switch: victim },
                    TopologyChange::Leave { switch: victim },
                ],
                GredError::InvalidDynamics {
                    reason: "switch is not a DT member",
                },
            ),
        ];
        for (batch, expected) in refused {
            let before = snapshot(&net);
            assert_eq!(
                net.apply_delta(&batch).unwrap_err(),
                expected,
                "seed {seed}"
            );
            assert!(
                snapshot(&net) == before,
                "seed {seed}: {expected:?} changed state"
            );
        }
        assert!(net.verify_invariants().is_empty());
        // The network still takes a valid batch afterwards.
        let report = net
            .apply_delta(&[
                join(vec![anchor, 1]),
                TopologyChange::Leave { switch: victim },
            ])
            .expect("a valid batch");
        assert_eq!(report.joined, vec![n]);
        assert!(net.verify_invariants().is_empty());
    }
}

#[test]
fn a_refused_crash_changes_nothing() {
    // A pendant hangs off `anchor` alone, so `anchor` is a cut vertex:
    // its crash is refused before any item or edit is lost.
    let mut net = base_network(20, 5);
    let mut held = BTreeMap::new();
    for (server, _) in net.store().all_locations() {
        *held.entry(server.switch).or_insert(0) += 1;
    }
    let (&anchor, _) = held.iter().max_by_key(|&(_, count)| *count).expect("items");
    net.add_switch(&[anchor], vec![u64::MAX])
        .expect("pendant joins");
    let held = net
        .store()
        .all_locations()
        .iter()
        .filter(|(s, _)| s.switch == anchor)
        .count();
    assert!(held > 0, "the victim holds items");
    let before = snapshot(&net);
    assert_eq!(net.crash_switch(anchor), Err(GredError::Disconnected));
    assert!(snapshot(&net) == before);
    assert!(net.verify_invariants().is_empty());
}
