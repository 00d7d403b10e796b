//! Network-wide greedy forwarding (Algorithm 2 executed hop by hop).
//!
//! A request enters at an access switch and is handed from switch to
//! switch; at each one [`SwitchDataplane::step`] — the same function a
//! cluster node runs per packet — handles the virtual-link header and
//! the greedy comparison: move to the strict minimum, stop when the
//! local switch is closest. Every send, including each relay leg of a
//! virtual link, is one physical hop — the quantity the routing-stretch
//! metric counts. This module only records where the packet went.

use crate::error::GredError;
use gred_dataplane::{Delivery, Hop, Refusal, RelayHeader, SwitchDataplane};
use gred_geometry::Point2;
use gred_hash::DataId;
use gred_net::ServerId;

/// The full trajectory of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Every switch the packet touched, access switch first, owner switch
    /// last — including virtual-link relay switches.
    pub switches: Vec<usize>,
    /// The greedy (overlay) switch sequence: DT members only.
    pub overlay: Vec<usize>,
    /// The owner switch (closest to the data position).
    pub dest: usize,
    /// The server `H(d) mod s` names at the owner switch.
    pub server: ServerId,
    /// The takeover server, when the named server's range is extended.
    pub extended_to: Option<ServerId>,
}

impl Route {
    /// Physical links traversed.
    pub fn physical_hops(&self) -> u32 {
        (self.switches.len() - 1) as u32
    }

    /// Greedy (overlay) hops taken on the DT.
    pub fn overlay_hops(&self) -> u32 {
        (self.overlay.len() - 1) as u32
    }

    /// The owner switch's delivery: which server takes a write, which
    /// servers answer a read.
    pub fn delivery(&self) -> Delivery {
        Delivery {
            server: self.server,
            extended_to: self.extended_to,
        }
    }
}

/// Walks a request for `id` (hashing to `position`) from `from` until the
/// owner switch is found.
///
/// # Errors
///
/// - [`GredError::UnknownSwitch`] if `from` is out of range,
/// - [`GredError::InvalidDynamics`] if `from` is a transit switch (no
///   servers — the paper's access points attach to storage switches),
/// - [`GredError::RelayEntryMissing`] if installed relay state is
///   inconsistent (a controller bug, surfaced rather than looped on).
pub fn route(
    planes: &[SwitchDataplane],
    from: usize,
    position: Point2,
    id: &DataId,
) -> Result<Route, GredError> {
    route_avoiding(planes, from, position, id, &|_| true).map(|(route, _)| route)
}

/// [`route`] with a liveness filter: DT neighbors for which `alive`
/// returns `false` are treated as absent at every greedy step, so the
/// walk detours around suspect switches instead of forwarding into them
/// (the cluster runtime's failure-detection behaviour, modelled
/// in-process for property testing).
///
/// Returns the route and the number of *detoured* steps — greedy
/// decisions where the unfiltered pipeline would have chosen a different
/// (suspect) next hop. Zero detours means the route is identical to what
/// [`route`] computes. Filtering only removes forwarding candidates, so
/// every step still strictly decreases the squared distance to the data
/// position: the walk terminates within `planes.len()` overlay hops for
/// *any* filter, it just may deliver off the true greedy owner (the
/// caller sees `detours > 0` and can degrade the response).
///
/// # Errors
///
/// Same conditions as [`route`]. Relay chains of virtual links are walked
/// unfiltered — a dead relay is the transport's problem, not the greedy
/// pipeline's.
pub fn route_avoiding(
    planes: &[SwitchDataplane],
    from: usize,
    position: Point2,
    id: &DataId,
    alive: &dyn Fn(usize) -> bool,
) -> Result<(Route, u32), GredError> {
    if from >= planes.len() {
        return Err(GredError::UnknownSwitch { switch: from });
    }
    let (mut switches, mut overlay) = (vec![from], Vec::new());
    let (mut cur, mut relay, mut detours) = (from, None, 0u32);
    let missing = |at, relay: Option<RelayHeader>| GredError::RelayEntryMissing {
        at,
        dest: relay.map_or(at, |header| header.dest),
    };
    // Greedy distance strictly decreases per overlay hop — the filter
    // can only shrink the candidate set, never add a non-improving hop —
    // and an installed relay chain is a simple path: at most
    // `planes.len()` overlay hops of fewer than `planes.len()` sends
    // each. Only a looping relay chain can outlast the bound.
    for _ in 0..planes.len() * planes.len() {
        let stepped = planes[cur].step(position, id, relay, alive);
        let (hop, detoured) = stepped.map_err(|refusal| match refusal {
            Refusal::TransitGreedy => GredError::InvalidDynamics {
                reason: "access switch is transit-only (no DT position)",
            },
            Refusal::NoRelayTuple => missing(cur, relay),
            Refusal::WrongSwitch => unreachable!("the walk goes where the header says"),
        })?;
        detours += u32::from(detoured);
        (cur, relay) = match hop {
            Hop::Deliver(Delivery {
                server,
                extended_to,
            }) => {
                overlay.push(cur);
                let route = Route {
                    switches,
                    overlay,
                    dest: cur,
                    server,
                    extended_to,
                };
                return Ok((route, detours));
            }
            Hop::Forward { to, relay } => {
                overlay.push(cur);
                (to, relay)
            }
            Hop::Relay { to, relay } => (to, Some(relay)),
        };
        switches.push(cur);
    }
    Err(missing(cur, relay))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GredConfig;
    use crate::control::{install_dataplanes, DtGraph};
    use crate::network::GredNetwork;
    use gred_dataplane::Packet;
    use gred_net::{waxman_topology, ServerPool, Topology, WaxmanConfig};

    /// Line 0-1-2-3 where 0 and 3 store data; 1, 2 are transit relays.
    fn setup_line() -> Vec<SwitchDataplane> {
        let topo = Topology::from_links(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let pool = ServerPool::from_capacities(vec![vec![10, 10], vec![], vec![], vec![10]]);
        let dt = DtGraph::build(
            vec![0, 3],
            &[Point2::new(0.25, 0.5), Point2::new(0.75, 0.5)],
        )
        .unwrap();
        install_dataplanes(&topo, &pool, &dt).unwrap().0
    }

    #[test]
    fn local_delivery_when_access_is_owner() {
        let planes = setup_line();
        let id = DataId::new("k");
        // Position right on top of switch 0.
        let r = route(&planes, 0, Point2::new(0.2, 0.5), &id).unwrap();
        assert_eq!(r.dest, 0);
        assert_eq!(r.switches, vec![0]);
        assert_eq!(r.physical_hops(), 0);
        assert_eq!(r.overlay_hops(), 0);
        assert_eq!(r.server.switch, 0);
        assert!(r.server.index < 2);
    }

    #[test]
    fn virtual_link_walk_counts_relays() {
        let planes = setup_line();
        let id = DataId::new("k");
        // Position near switch 3: from 0 the packet crosses the virtual
        // link through transit switches 1 and 2.
        let r = route(&planes, 0, Point2::new(0.8, 0.5), &id).unwrap();
        assert_eq!(r.dest, 3);
        assert_eq!(r.switches, vec![0, 1, 2, 3]);
        assert_eq!(r.physical_hops(), 3);
        assert_eq!(r.overlay, vec![0, 3]);
        assert_eq!(r.overlay_hops(), 1);
    }

    #[test]
    fn transit_access_switch_rejected() {
        let planes = setup_line();
        let err = route(&planes, 1, Point2::new(0.5, 0.5), &DataId::new("k")).unwrap_err();
        assert!(matches!(err, GredError::InvalidDynamics { .. }));
    }

    #[test]
    fn unknown_switch_rejected() {
        let planes = setup_line();
        let err = route(&planes, 9, Point2::new(0.5, 0.5), &DataId::new("k")).unwrap_err();
        assert_eq!(err, GredError::UnknownSwitch { switch: 9 });
    }

    #[test]
    fn route_avoiding_all_alive_matches_route() {
        let planes = setup_line();
        let id = DataId::new("k");
        let pos = Point2::new(0.8, 0.5);
        let plain = route(&planes, 0, pos, &id).unwrap();
        let (avoided, detours) = route_avoiding(&planes, 0, pos, &id, &|_| true).unwrap();
        assert_eq!(avoided, plain);
        assert_eq!(detours, 0);
    }

    #[test]
    fn route_avoiding_detours_around_a_dead_owner() {
        let planes = setup_line();
        let id = DataId::new("k");
        let pos = Point2::new(0.8, 0.5);
        // Switch 3 (the true owner) is suspect: the walk must terminate
        // at the access switch instead, flagged as a detour.
        let (r, detours) = route_avoiding(&planes, 0, pos, &id, &|s| s != 3).unwrap();
        assert_eq!(r.dest, 0, "delivery falls back to the best live switch");
        assert_eq!(detours, 1);
        assert_eq!(r.overlay, vec![0]);
    }

    #[test]
    fn missing_relay_entry_is_an_error_not_a_loop() {
        let mut planes = setup_line();
        planes[2].clear_relays();
        let err = route(&planes, 0, Point2::new(0.8, 0.5), &DataId::new("k")).unwrap_err();
        assert!(matches!(
            err,
            GredError::RelayEntryMissing { at: 2, dest: 3 }
        ));
    }

    #[test]
    fn wire_parse_then_forward() {
        // Full data-plane path: encode -> parse (the programmable parser)
        // -> forward.
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(10, 33));
        let pool = ServerPool::uniform(10, 2, u64::MAX);
        let net = GredNetwork::build(topo, pool, GredConfig::no_cvt().seeded(33)).unwrap();

        let original = Packet::placement(DataId::new("wire/key"), b"bytes".as_ref());
        let wire = gred_dataplane::wire::encode(&original);
        let parsed = gred_dataplane::wire::parse(&wire).unwrap();
        let r = route(net.dataplanes(), 4, parsed.position, &parsed.id).unwrap();
        assert_eq!(r.server, net.responsible_server(&DataId::new("wire/key")));
    }

    #[test]
    fn route_fingerprint_matches_the_recorded_walk() {
        // FNV-1a over every field of 60 routes (44 of them cross a
        // virtual link). The constant was recorded from `walk` when it
        // was a greedy loop with a nested relay-chain loop, before it
        // became a loop over `SwitchDataplane::step`: any hop the step
        // decides differently moves it.
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(25, 31));
        let pool = ServerPool::uniform(25, 3, u64::MAX);
        let net =
            GredNetwork::build(topo, pool, GredConfig::with_iterations(10).seeded(31)).unwrap();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: usize| hash = (hash ^ v as u64).wrapping_mul(0x0100_0000_01b3);
        for i in 0..60 {
            let id = DataId::new(format!("pkt/{i}"));
            let r = route(net.dataplanes(), i % 25, net.position_of_id(&id), &id).unwrap();
            for list in [&r.switches, &r.overlay] {
                mix(list.len());
                list.iter().for_each(|&s| mix(s));
            }
            for server in [Some(r.server), r.extended_to] {
                mix(server.map_or(usize::MAX, |s| s.switch));
                mix(server.map_or(usize::MAX, |s| s.index));
            }
            mix(r.dest);
        }
        assert_eq!(hash, 0x0d56_68e0_f7fe_fd95);
    }
}
