#![warn(missing_docs)]

//! The experiment harness: everything needed to regenerate the paper's
//! evaluation (Section VII), figure by figure.
//!
//! - [`metrics`]: routing stretch and `max/avg` load-balance metrics with
//!   the paper's 90% confidence intervals,
//! - [`workload`]: data-item and access-point generators,
//! - [`systems`]: uniform drivers for the three compared systems (GRED,
//!   GRED-NoCVT, Chord) over the same topology and server pool,
//! - [`experiments`]: one module per figure, each returning the table of
//!   numbers the paper plots,
//! - [`report`]: plain-text table rendering for the `repro` binary.
//!
//! Every experiment is deterministic given its seed, and scaled-down
//! presets (`quick`) exist so the full suite runs in CI time; the paper's
//! full parameters are the `paper` presets.

pub mod experiments;
pub mod metrics;
pub mod queueing;
pub mod report;
pub mod systems;
pub mod trace;
pub mod viz;
pub mod workload;

pub use metrics::{ci90_half_width, max_avg, MetricSeries};
pub use systems::{ComparedSystem, SystemUnderTest};
