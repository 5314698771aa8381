//! # decay-sinr
//!
//! SINR machinery over decay spaces: links, power assignments, affectance,
//! feasibility, and the partition lemmas of *Beyond Geometry* (PODC 2014).
//!
//! The flow mirrors the paper's Section 2:
//!
//! 1. Build a [`decay_core::DecaySpace`] (measured, simulated or
//!    geometric).
//! 2. Declare a [`LinkSet`] of sender/receiver pairs and a
//!    [`PowerAssignment`] (uniform / oblivious / custom).
//! 3. Build an [`AffectanceMatrix`] under some [`SinrParams`] and query
//!    feasibility, `K`-feasibility, in/out-affectances, or raw SINR.
//! 4. Use [`signal_strengthen`] (Lemma B.1), link separation (Lemma B.2)
//!    and [`separation_partition`]/[`sparsify_feasible`] (Lemmas B.3/4.1)
//!    as algorithmic building blocks.
//!
//! # Examples
//!
//! ```
//! use decay_core::{DecaySpace, NodeId};
//! use decay_sinr::{
//!     AffectanceMatrix, Link, LinkId, LinkSet, PowerAssignment, SinrParams,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two parallel links far apart: feasible together.
//! let pos = [0.0_f64, 1.0, 10.0, 11.0];
//! let space = DecaySpace::from_fn(4, |i, j| (pos[i] - pos[j]).abs().powi(2))?;
//! let links = LinkSet::new(&space, vec![
//!     Link::new(NodeId::new(0), NodeId::new(1)),
//!     Link::new(NodeId::new(2), NodeId::new(3)),
//! ])?;
//! let powers = PowerAssignment::unit().powers(&space, &links)?;
//! let aff = AffectanceMatrix::build(&space, &links, &powers, &SinrParams::default())?;
//! let all: Vec<LinkId> = links.ids().collect();
//! assert!(aff.is_feasible(&all));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod affectance;
mod error;
mod inductive;
mod link;
mod partition;
mod power;
mod separation;
mod strengthen;

pub use affectance::{sinr, sinr_feasible, AffectanceMatrix, SinrParams};
pub use error::SinrError;
pub use inductive::{
    inductive_independence, sample_feasible_sets, CIndependence, ConflictGraph,
    EXACT_NEIGHBORHOOD_LIMIT,
};
pub use link::{Link, LinkId, LinkSet};
pub use partition::{separation_partition, sparsify_feasible};
pub use power::{is_monotone, PowerAssignment};
pub use separation::{
    is_link_separated_from, is_link_set_separated, link_distance, link_length, separation_of,
};
pub use strengthen::{signal_strengthen, strengthening_bound};
