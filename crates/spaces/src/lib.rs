//! # decay-spaces
//!
//! Generators for the decay spaces studied in *Beyond Geometry* (PODC
//! 2014): geometric (GEO-SINR) baselines, the paper's special
//! constructions, the capacity hardness instances of Theorems 3 and 6, and
//! random premetrics/deployments.
//!
//! # Examples
//!
//! ```
//! use decay_core::metricity;
//! use decay_spaces::{geometric_space, random_points};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Geometric path loss has metricity exactly alpha.
//! let pts = random_points(10, 100.0, 42);
//! let space = geometric_space(&pts, 3.0)?;
//! assert!((metricity(&space).zeta - 3.0).abs() < 0.05);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod euclid;
mod extended;
mod graph;
mod hardness;
mod random;
mod special;

pub use euclid::{
    clustered_points, distance, geometric_space, grid_points, line_points,
    perturbed_geometric_space, random_points, ring_points, Point,
};
pub use extended::{
    distance_3d, dual_slope_space, geometric_space_3d, obstructed_grid_space, random_points_3d,
    Point3,
};
pub use graph::Graph;
pub use hardness::{two_line_instance, unit_decay_instance, HardnessError, HardnessInstance};
pub use random::{bounded_length_deployment, random_link_deployment, random_premetric};
pub use special::{phi_gap_space, star_nodes, star_space, uniform_space, welzl_space};
