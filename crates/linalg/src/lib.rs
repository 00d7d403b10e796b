#![warn(missing_docs)]

//! Dense linear algebra supporting GRED's M-position algorithm.
//!
//! The M-position algorithm (paper Section IV-A) embeds the switch-level
//! shortest-path matrix into a low-dimensional Euclidean space by classical
//! multidimensional scaling (MDS):
//!
//! 1. square the distance matrix `L`,
//! 2. double-center it: `B = -1/2 · J L⁽²⁾ J` with `J = I - (1/n) A`,
//! 3. take the `m` largest eigenvalues/eigenvectors of `B`,
//! 4. coordinates `Q = E_m Λ_m^{1/2}`.
//!
//! This crate provides exactly the pieces that pipeline needs and nothing
//! more: a small dense [`Matrix`] type ([`matrix`]), a cyclic Jacobi
//! eigensolver for symmetric matrices ([`eigen`]), the double centring and
//! error type of MDS ([`mds`]), and landmark MDS ([`mds_landmark`]), the
//! one MDS: it embeds `k` landmarks classically and trilaterates the
//! remaining points in `O(n·k)`. Everything is implemented from scratch.
//! With every point a landmark it is full classical MDS, running Jacobi
//! on the `n × n` matrix (comfortable up to a few hundred switches).

pub mod eigen;
pub mod matrix;
pub mod mds;
pub mod mds_landmark;

pub use eigen::{symmetric_eigen, EigenDecomposition};
pub use matrix::Matrix;
pub use mds::{double_center, MdsError};
pub use mds_landmark::{landmark_mds, LandmarkEmbedding};
