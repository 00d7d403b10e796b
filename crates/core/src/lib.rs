#![warn(missing_docs)]

//! GRED: Greedy Routing for Edge Data.
//!
//! A from-scratch reproduction of *Efficient Data Placement and Retrieval
//! Services in Edge Computing* (Xie, Qian, Guo, Li, Shi, Chen — ICDCS
//! 2019). GRED is a one-overlay-hop DHT for software-defined edge
//! networks: the SDN controller embeds the switch topology into a virtual
//! 2D space (M-position), refines the positions toward a centroidal
//! Voronoi tessellation for load balance (C-regulation), triangulates them
//! (multi-hop Delaunay), and installs greedy forwarding state into P4-style
//! switches. A data item's SHA-256 hash names a point in the space; greedy
//! forwarding on the DT provably reaches the switch closest to that point,
//! which stores the item on one of its servers via `H(d) mod s`.
//!
//! # Quick start
//!
//! ```
//! use gred::{GredConfig, GredNetwork};
//! use gred_hash::DataId;
//! use gred_net::{waxman_topology, ServerPool, WaxmanConfig};
//!
//! # fn main() -> Result<(), gred::GredError> {
//! let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(20, 42));
//! let pool = ServerPool::uniform(20, 4, 10_000);
//! let mut net = GredNetwork::build(topo, pool, GredConfig::default())?;
//!
//! let receipt = net.place(&DataId::new("sensor/1/frame/9"), b"payload".as_ref(), 0)?;
//! let got = net.retrieve(&DataId::new("sensor/1/frame/9"), 5)?;
//! assert_eq!(&got.payload[..], b"payload");
//! assert_eq!(got.server, receipt.server);
//! # Ok(())
//! # }
//! ```
//!
//! # Crate layout
//!
//! - [`control`]: the SDN controller — network embedding
//!   ([`control::embedding`]), CVT refinement ([`control::regulation`]),
//!   the multi-hop DT ([`control::dt`]), forwarding-entry installation
//!   ([`control::installer`]), and incremental node join/leave
//!   ([`control::delta`]),
//! - [`plane`]: the data plane in motion — network-wide greedy forwarding
//!   walks ([`plane::forwarding`]), placement/retrieval, range extension
//!   and replication,
//! - [`store`]: the edge servers' stored items and load counters,
//! - [`network`]: [`GredNetwork`], the facade tying it all together.

pub mod config;
pub mod control;
pub mod error;
pub mod network;
pub mod plane;
pub mod store;

pub use config::GredConfig;
pub use control::{DeltaReport, TopologyChange};
pub use error::GredError;
pub use gred_runtime::{BuildReport, PhaseReport};
pub use network::GredNetwork;
pub use plane::forwarding::Route;
pub use plane::placement::PlacementReceipt;
pub use plane::retrieval::RetrievalResult;
