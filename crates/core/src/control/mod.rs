//! The SDN controller: everything GRED computes centrally.
//!
//! The control plane knows the full topology (obtainable in SDN by
//! collecting switch/port/link/host state), computes virtual coordinates
//! for every storage switch, refines them for load balance, triangulates
//! them, and pushes forwarding entries to the switch data planes. Packets
//! are then forwarded entirely by pre-installed rules — the controller is
//! not on the data path.

pub mod delta;
pub mod dt;
pub mod embedding;
pub mod installer;
pub mod regulation;

pub use delta::{DeltaReport, TopologyChange};
pub use dt::DtGraph;
pub use embedding::{m_position, m_position_landmark, Embedding};
pub use installer::install_dataplanes;
pub use regulation::refine_positions;
