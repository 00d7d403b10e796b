//! The one per-switch step: what a GRED switch does with one packet.
//!
//! The paper's data plane is a single match-action program per switch:
//! handle the virtual-link header `<dest, sour, relay>` (Section V-A),
//! then run the greedy comparison (Algorithm 2). [`SwitchDataplane::step`]
//! is that program as a function of the packet's routing fields alone —
//! no socket, no store, no clock — and it is the only code that executes
//! it: the in-process model (`gred::plane::forwarding`) loops over it, a
//! cluster node wraps it with what is the node's own (counters, detour
//! budget, read cache, store). [`link_hops`] walks one installed
//! virtual link for the controller's audits, next to the code that
//! forwards along it.

use crate::packet::RelayHeader;
use crate::switch::{ForwardDecision, SwitchDataplane};
use gred_geometry::Point2;
use gred_hash::DataId;
use gred_net::ServerId;

/// Delivery at the owner switch: the server `H(d) mod s` names, plus the
/// takeover server when that server's range is extended (Tables I/II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The server `H(d) mod s` selects.
    pub server: ServerId,
    /// Takeover server, when `server`'s range was extended.
    pub extended_to: Option<ServerId>,
}

impl Delivery {
    /// The server a write lands on: the takeover wins while the range is
    /// extended.
    pub fn write_target(&self) -> ServerId {
        self.extended_to.unwrap_or(self.server)
    }

    /// The servers a read asks, in answering order: the primary, then
    /// the takeover. The paper duplicates the request to both "at the
    /// same time"; asking in order is observably equivalent and keeps
    /// the response deterministic.
    pub fn read_order(&self) -> impl Iterator<Item = ServerId> {
        std::iter::once(self.server).chain(self.extended_to)
    }
}

/// What [`SwitchDataplane::step`] tells its switch to do with the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// The greedy pipeline found no closer neighbor: deliver here.
    Deliver(Delivery),
    /// The greedy pipeline chose a closer neighbor: send to `to` — the
    /// neighbor itself (`relay` is `None`), or the first relay of a
    /// virtual link the packet now enters carrying `relay`.
    Forward {
        /// Next switch.
        to: usize,
        /// The header to send with: cleared, or set on entering a link.
        relay: Option<RelayHeader>,
    },
    /// Mid-link: the greedy pipeline did not run; the header's `relay`
    /// was rewritten to the tuple's `succ`, which is `to`.
    Relay {
        /// Next switch.
        to: usize,
        /// The rewritten header.
        relay: RelayHeader,
    },
}

/// Why a switch will not process a packet. A value, never a panic: the
/// model turns it into an error, a node into an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The relay header names another switch as the current relay.
    WrongSwitch,
    /// Mid-link, but no relay tuple matches the link's destination.
    NoRelayTuple,
    /// A transit switch (no servers, no DT position) was asked to run
    /// the greedy pipeline: as an access point or as a link's endpoint.
    TransitGreedy,
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Refusal::WrongSwitch => "relayed packet at the wrong switch",
            Refusal::NoRelayTuple => "no relay tuple for the virtual link",
            Refusal::TransitGreedy => "transit switch cannot run the greedy pipeline",
        })
    }
}

impl SwitchDataplane {
    /// Processes one packet at this switch: the three Section V-A header
    /// cases, then Algorithm 2.
    ///
    /// - `relay` names this switch mid-link: look up the tuple, rewrite
    ///   `relay` to its `succ` ([`Hop::Relay`]);
    /// - `relay` names this switch as the link's `dest`: pop the header
    ///   and fall through to the greedy pipeline;
    /// - no header: run [`decide_avoiding`](Self::decide_avoiding), and
    ///   when it picks a multi-hop DT neighbor set the header
    ///   `<dest: neighbor, sour: self, relay: first hop>`.
    ///
    /// The `bool` is `decide_avoiding`'s detour flag (always `false` on a
    /// relay leg). `packets_processed` counts one per greedy decision and
    /// one per relay lookup, nothing for a `WrongSwitch` or
    /// `TransitGreedy` refusal.
    pub fn step(
        &self,
        position: Point2,
        id: &DataId,
        relay: Option<RelayHeader>,
        alive: &dyn Fn(usize) -> bool,
    ) -> Result<(Hop, bool), Refusal> {
        if let Some(header) = relay {
            if header.relay != self.id() {
                return Err(Refusal::WrongSwitch);
            }
            if header.dest != self.id() {
                let to = self
                    .relay_next(header.dest, header.sour)
                    .ok_or(Refusal::NoRelayTuple)?;
                let relay = RelayHeader {
                    relay: to,
                    ..header
                };
                return Ok((Hop::Relay { to, relay }, false));
            }
        }
        if self.server_count() == 0 {
            return Err(Refusal::TransitGreedy);
        }
        let (decision, detoured) = self.decide_avoiding(position, id, alive);
        let hop = match decision {
            ForwardDecision::DeliverLocal {
                server,
                extended_to,
            } => Hop::Deliver(Delivery {
                server,
                extended_to,
            }),
            ForwardDecision::Forward {
                neighbor,
                next_hop,
                virtual_link,
            } => Hop::Forward {
                to: next_hop,
                relay: virtual_link.then_some(RelayHeader {
                    dest: neighbor,
                    sour: self.id(),
                    relay: next_hop,
                }),
            },
        };
        Ok((hop, detoured))
    }
}

/// The relay at which an installed virtual link stops short of its
/// destination: it holds no tuple for the link, or the chain led in a
/// circle and the walk was cut off there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokenAt(pub usize);

/// Physical hops of the virtual link `sour → dest` whose first relay is
/// `via`, following the tuple each relay holds for exactly
/// `(dest, sour)` — what the controller installed, without the data
/// path's dest-only fallback and without counting a packet.
pub fn link_hops(
    planes: &[SwitchDataplane],
    sour: usize,
    via: usize,
    dest: usize,
) -> Result<usize, BrokenAt> {
    let mut at = via;
    // A chain is a simple path: more hops than switches means a cycle.
    for hops in 1..=planes.len() {
        if at == dest {
            return Ok(hops);
        }
        let tuple = planes.get(at).and_then(|p| p.relay_lookup(dest, sour));
        at = tuple.ok_or(BrokenAt(at))?.succ;
    }
    Err(BrokenAt(at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entries::{DtTuple, ExtensionEntry, NeighborEntry};

    /// Line 0-1-2-3: 0 and 3 store data and are DT neighbors over the
    /// virtual link relayed by transit switches 1 and 2.
    fn line() -> Vec<SwitchDataplane> {
        let ends = [(0, Point2::new(0.25, 0.5)), (3, Point2::new(0.75, 0.5))];
        let mut planes = vec![
            SwitchDataplane::new(0, ends[0].1, 1),
            SwitchDataplane::transit(1),
            SwitchDataplane::transit(2),
            SwitchDataplane::new(3, ends[1].1, 1),
        ];
        for (path, (neighbor, position)) in [([0, 1, 2, 3], ends[1]), ([3, 2, 1, 0], ends[0])] {
            planes[path[0]].install_neighbor(NeighborEntry {
                neighbor,
                position,
                via: path[1],
                physical: false,
            });
            for k in 1..=2 {
                planes[path[k]].install_relay(DtTuple {
                    sour: path[0],
                    pred: path[k - 1],
                    succ: path[k + 1],
                    dest: neighbor,
                });
            }
        }
        planes
    }

    fn step_at(
        planes: &[SwitchDataplane],
        at: usize,
        relay: Option<RelayHeader>,
    ) -> Result<(Hop, bool), Refusal> {
        // Near switch 3.
        planes[at].step(Point2::new(0.8, 0.5), &DataId::new("k"), relay, &|_| true)
    }

    #[test]
    fn header_is_set_rewritten_and_popped_across_a_virtual_link() {
        let planes = line();
        let header = |relay| RelayHeader {
            dest: 3,
            sour: 0,
            relay,
        };
        // Entering the link sets the header.
        let entered = Hop::Forward {
            to: 1,
            relay: Some(header(1)),
        };
        assert_eq!(step_at(&planes, 0, None), Ok((entered, false)));
        // Each intermediate relay rewrites `relay` to its tuple's succ.
        for (at, to) in [(1, 2), (2, 3)] {
            let rewritten = Hop::Relay {
                to,
                relay: header(to),
            };
            assert_eq!(
                step_at(&planes, at, Some(header(at))),
                Ok((rewritten, false))
            );
        }
        // The endpoint pops it and the greedy pipeline delivers.
        let Ok((Hop::Deliver(delivery), false)) = step_at(&planes, 3, Some(header(3))) else {
            panic!("the link's endpoint must resume greedy and deliver");
        };
        assert_eq!((delivery.server.switch, delivery.extended_to), (3, None));
        // One greedy decision at each end, one relay lookup at each
        // intermediate: every switch handled the packet exactly once.
        let counts: Vec<u64> = planes.iter().map(|p| p.packets_processed()).collect();
        assert_eq!(counts, vec![1, 1, 1, 1]);
        assert_eq!(link_hops(&planes, 0, 1, 3), Ok(3));
    }

    #[test]
    fn every_refusal_is_a_value() {
        let mut planes = line();
        let header = RelayHeader {
            dest: 3,
            sour: 0,
            relay: 1,
        };
        assert_eq!(
            step_at(&planes, 2, Some(header)),
            Err(Refusal::WrongSwitch),
            "header addressed to switch 1 shown to switch 2"
        );
        assert_eq!(step_at(&planes, 1, None), Err(Refusal::TransitGreedy));
        let at_transit_end = RelayHeader {
            dest: 1,
            sour: 0,
            relay: 1,
        };
        assert_eq!(
            step_at(&planes, 1, Some(at_transit_end)),
            Err(Refusal::TransitGreedy)
        );
        assert_eq!(
            planes[1].packets_processed() + planes[2].packets_processed(),
            0
        );

        planes[1].clear_relays();
        assert_eq!(
            step_at(&planes, 1, Some(header)),
            Err(Refusal::NoRelayTuple)
        );
        assert_eq!(link_hops(&planes, 0, 1, 3), Err(BrokenAt(1)));
        // 1 -> 2 -> 1 -> ...: a chain that loops is cut off, not followed.
        for (at, succ) in [(1, 2), (2, 1)] {
            planes[at].install_relay(DtTuple {
                sour: 0,
                pred: succ,
                succ,
                dest: 3,
            });
        }
        assert!(link_hops(&planes, 0, 1, 3).is_err());
    }

    #[test]
    fn takeover_wins_the_write_and_answers_the_read_second() {
        let primary = ServerId {
            switch: 3,
            index: 0,
        };
        let takeover = ServerId {
            switch: 0,
            index: 0,
        };
        let mut planes = line();
        planes[3].install_extension(ExtensionEntry {
            original: primary,
            takeover,
        });
        let Ok((Hop::Deliver(extended), _)) = step_at(&planes, 3, None) else {
            panic!("switch 3 owns the position");
        };
        assert_eq!(extended.write_target(), takeover);
        assert_eq!(
            extended.read_order().collect::<Vec<_>>(),
            [primary, takeover]
        );
        let plain = Delivery {
            server: primary,
            extended_to: None,
        };
        assert_eq!(plain.write_target(), primary);
        assert_eq!(plain.read_order().collect::<Vec<_>>(), [primary]);
    }
}
