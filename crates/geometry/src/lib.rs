#![warn(missing_docs)]

//! 2D computational geometry for the GRED virtual space.
//!
//! GRED's control plane lives in a virtual 2D Euclidean space: switch
//! positions come from a network embedding, are refined toward a centroidal
//! Voronoi tessellation for load balance, and are connected by a Delaunay
//! triangulation so greedy forwarding enjoys guaranteed delivery. This crate
//! supplies those geometric building blocks:
//!
//! - [`point`]: the [`Point2`] type and distance/tie-breaking rules,
//! - [`predicates`]: the floating-point orientation test,
//! - [`hull`]: convex hull (monotone chain),
//! - [`polygon`]: convex polygon clipping, area, centroid, second moment,
//! - [`delaunay`]: a flip-based Delaunay [`Triangulation`] with greedy
//!   routing (the guaranteed-delivery property the paper relies on),
//! - [`voronoi`]: Voronoi cells clipped to a bounding box,
//! - [`cvt`]: the paper's sampling-based C-regulation (Lloyd iteration).

pub mod cvt;
pub mod delaunay;
pub mod hull;
pub mod point;
pub mod polygon;
pub mod predicates;
pub mod voronoi;

pub use cvt::{c_regulation, c_regulation_with, cvt_energy_exact, CRegulationConfig};
pub use delaunay::{empty_circumcircle_violation, DelaunayError, Triangulation};
pub use hull::convex_hull;
pub use point::Point2;
pub use polygon::Polygon;
pub use voronoi::{voronoi_cell, voronoi_cells};
