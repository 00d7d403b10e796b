#![warn(missing_docs)]

//! Deterministic model-based testing for GRED.
//!
//! The paper's correctness claims — greedy forwarding always reaches the
//! member switch nearest `H(d)` (Theorem 1), and placement/retrieval
//! survive range extension and switch dynamics (Sections V–VI) — are easy
//! to exercise on happy paths and hard to trust under churn. This crate
//! closes that gap with a classic model-based harness:
//!
//! - [`schedule`] turns a `(seed, length)` pair into a randomized but
//!   fully deterministic sequence of operations (place, retrieve,
//!   replicate, extend, retract, join, leave, crash);
//! - [`oracle`] is a deliberately simple in-memory reference model that
//!   mirrors where every datum must live, using the same exact lattice
//!   arithmetic as the production Delaunay code;
//! - [`invariants`] checks the real [`gred::GredNetwork`] against the
//!   oracle after every step: Theorem 1 delivery from every member,
//!   empty-circumcircle validity of the live DT, retrievability of every
//!   oracle-stored datum, and forwarding-table hygiene;
//! - [`counters`] turns wire-scraped [`gred_dataplane::StatsSnapshot`]s
//!   into delta assertions, so chaos properties once established by
//!   grepping logs ("detours stopped", "the cache absorbed the crowd")
//!   become exact counter arithmetic;
//! - [`harness`] ties it together, injects faults ([`Mutation`]) for
//!   checker smoke-tests, prints a one-line reproduction command on
//!   failure, and greedily shrinks failing schedules.
//!
//! A failure report names only `(seed, schedule length)`; re-running with
//! the same pair replays the identical schedule, network, and checks.

pub mod chaos;
pub mod counters;
pub mod harness;
pub mod invariants;
pub mod oracle;
pub mod schedule;
pub mod transport;

pub use chaos::{ChaosAction, ChaosEvent, ChaosPlan, LinkMode};
pub use counters::CounterWindow;
pub use harness::{Failure, Harness, HarnessConfig, Mutation, RunOutcome, RunStats};
pub use oracle::Oracle;
pub use schedule::{generate, Op};
pub use transport::TransportProbe;
