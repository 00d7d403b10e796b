#![warn(missing_docs)]

//! A P4-style programmable data plane, simulated.
//!
//! The paper implements GRED's switch logic in P4: a programmable parser
//! for the GRED packet headers, a series of match-action stages that find
//! the neighbor closest to a data item's virtual position, and exact-match
//! tables holding physical-neighbor ports, multi-hop DT relay tuples
//! `<sour, pred, succ, dest>`, and range-extension rewrites (paper
//! Tables I/II). We reproduce that machinery in software:
//!
//! - [`cursor`]: the one bounds-checked big-endian cursor every decoder
//!   reads through, and the one [`DecodeError`] they all fail with,
//! - [`packet`]: GRED packet headers (placement/retrieval/response tags,
//!   data id and virtual position, virtual-link relay header, payload),
//! - [`relay`]: the prefix-compressed relay table — per-destination
//!   wildcard defaults plus exception entries, keeping installed counts
//!   sub-linear in the number of relayed paths,
//! - [`entries`]: the concrete entry types GRED installs,
//! - [`switch`]: the per-switch data plane — the neighbor, relay and
//!   extension tables, each a sorted `Vec` of its own entries, with
//!   entry accounting (forwarding-table size is one of the paper's
//!   metrics),
//! - [`step`]: the one per-switch step — relay-header handling
//!   (Section V-A) then the greedy stage (Algorithm 2's data-plane
//!   half) — that the in-process model walks and a cluster node wraps,
//! - [`stats`]: per-switch and network-wide table-occupancy statistics
//!   (Fig. 9(d)),
//! - [`obs`]: observability payloads — the stats snapshot a node serves
//!   over the wire and the admin verbs the control endpoint accepts.
//!
//! All figure-level behaviour (who wins, table growth, load placement)
//! depends on this forwarding logic, not on ASIC timing, so a faithful
//! software pipeline reproduces the paper's data-plane results.

pub mod cursor;
pub mod entries;
pub mod obs;
pub mod packet;
pub mod relay;
pub mod stats;
pub mod step;
pub mod switch;
pub mod wire;

pub use cursor::{Cursor, DecodeError};
pub use entries::{DtTuple, ExtensionEntry, NeighborEntry};
pub use obs::{AdminOp, LinkStats, StatsSnapshot};
pub use packet::{Cacheable, Packet, PacketKind, RelayHeader, ResponseStatus};
pub use relay::RelayTable;
pub use stats::{NodeHotStats, TableStats};
pub use step::{link_hops, BrokenAt, Delivery, Hop, Refusal};
pub use switch::SwitchDataplane;
pub use wire::{encode, encode_into, parse, parse_bytes};
