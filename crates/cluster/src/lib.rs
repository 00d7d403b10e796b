#![warn(missing_docs)]

//! gred-cluster: every GRED switch as a real TCP endpoint.
//!
//! The rest of the workspace exercises GRED's data plane in-process: the
//! simulator calls [`SwitchDataplane::step`] in a loop and moves packets
//! between switches with function calls. This crate replaces those
//! function calls with sockets. Each switch becomes a [`node::Node`] — a
//! single-threaded reactor that listens on a TCP address, parses
//! length-prefixed GRED wire packets ([`frame`]), runs the *same* greedy
//! pipeline the in-process plane runs, and forwards packets to peer nodes
//! over multiplexed persistent connections, parking a continuation per
//! frame instead of waiting for the answer. A [`client::Client`] places and
//! retrieves data by talking to any node, and a [`cluster::Cluster`]
//! boots one node per switch of a built
//! [`GredNetwork`](gred::GredNetwork), wires the peer addresses, and
//! shuts the whole thing down gracefully.
//!
//! The point is fidelity, not novelty: the wire format is the paper's
//! packet header ([`gred_dataplane::wire`]), the forwarding state is a
//! clone of the controller-installed tables, and the hop counts a remote
//! client observes are asserted (in `tests/cluster_loopback.rs`) to match
//! the in-process [`Route`](gred::Route) exactly. Everything runs on
//! `std::net` — no async runtime, no new dependencies.
//!
//! [`SwitchDataplane::step`]: gred_dataplane::SwitchDataplane::step

pub mod admin;
pub mod chaos;
pub mod client;
pub mod cluster;
pub mod frame;
pub(crate) mod mux;
pub mod node;
pub mod observe;
pub(crate) mod pipelined;
pub mod proto;

pub use admin::{admin_call, AdminServer};
pub use chaos::{
    chaos_cluster_config, run_chaos, ChaosConfig, ChaosFabric, ChaosOutcome, ChaosTransport,
    HealProbe, COPIES, QUORUM,
};
pub use client::{AdminReply, Client, ClientConfig, ClientError, Reply};
pub use cluster::{AddrRewrite, Cluster, ClusterConfig, ClusterReport};
pub use frame::{encode_frame, FrameDecoder, FrameError, MAX_FRAME_LEN, MUX_PREAMBLE};
pub use gred_testkit::LinkMode;
pub use node::{Node, NodeConfig};
pub use observe::ClusterHealth;
