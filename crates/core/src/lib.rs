//! # decay-core
//!
//! Core model of *Beyond Geometry: Towards Fully Realistic Wireless Models*
//! (Bodlaender & Halldórsson, PODC 2014): **decay spaces** and the
//! parameters that control how much classical SINR theory transfers to
//! them.
//!
//! A decay space `D = (V, f)` assigns to every ordered pair of nodes the
//! multiplicative *decay* a signal suffers between them (`gain = 1/f`).
//! Unlike the geometric SINR model (`f = dist^α`), decays are arbitrary
//! positive values: they can encode walls, reflections, anisotropic
//! antennas — anything static. The paper's program is to parameterize such
//! spaces by how far they are from geometry:
//!
//! * [`metricity`] — the metricity `ζ(D)` (Definition 2.2): the smallest
//!   exponent making `f^{1/ζ}` satisfy the triangle inequality. Plays the
//!   role of the path-loss exponent `α`.
//! * [`phi_metricity`] — the variant `ϕ`/`φ` (Section 4.2) with the
//!   relaxed multiplicative triangle inequality.
//! * [`QuasiMetric`] — the induced quasi-metric `d = f^{1/ζ}` through which
//!   metric-space results transfer (Proposition 1).
//! * [`assouad_dimension`] — packing dimension (Definition 3.2); spaces
//!   with `A < 1` are *fading spaces* (Definition 3.3).
//! * [`fading_value`] / [`fading_parameter`] — the fading parameter `γ`
//!   (Definition 3.1) governing distributed algorithms, with the annulus
//!   bound of Theorem 2 in [`theorem2_bound`].
//! * [`independence_dimension`] / [`guard_set`] — bounded-growth machinery
//!   (Definition 4.1, Welzl's guards) behind Theorem 4 and Algorithm 1.
//!
//! # Examples
//!
//! ```
//! use decay_core::{DecaySpace, metricity, QuasiMetric};
//!
//! # fn main() -> Result<(), decay_core::DecayError> {
//! // A 4-node space measured in some building: arbitrary positive decays.
//! let space = DecaySpace::from_matrix(4, vec![
//!     0.0,  4.0, 19.0,  7.5,
//!     4.0,  0.0,  6.0, 11.0,
//!    19.0,  6.0,  0.0,  3.0,
//!     7.5, 11.0,  3.0,  0.0,
//! ])?;
//! let m = metricity(&space);
//! assert!(m.zeta > 0.0);
//! // The induced quasi-metric satisfies the triangle inequality.
//! let quasi = QuasiMetric::from_space(&space);
//! assert!(quasi.triangle_violation() <= 1e-9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ball;
mod dimension;
mod error;
mod fading;
mod growth;
mod independence;
pub mod json;
mod metricity;
mod quasi;
mod separation;
mod space;
pub mod telemetry;
mod util;

pub use ball::{ball, densest_packing, is_packing, packing_number, Packing, EXACT_PACKING_LIMIT};
pub use dimension::{
    assouad_dimension, assouad_dimension_default, assouad_dimension_fit, is_fading_space,
    quasi_doubling_dimension, AssouadDimension, DEFAULT_SCALES,
};
pub use error::DecayError;
pub use fading::{fading_parameter, fading_value, theorem2_bound, FadingValue, EXACT_GAMMA_LIMIT};
pub use growth::{growth_profile, GrowthProfile};
pub use independence::{
    guard_set, independence_at, independence_at_with, independence_dimension,
    independence_dimension_with, is_guard_set, is_independent_wrt, is_independent_wrt_with,
    Independence, Strictness, EXACT_INDEPENDENCE_LIMIT,
};
pub use metricity::{
    metricity, metricity_sampled, phi_metricity, triangle_violation_at, zeta_upper_bound,
    Metricity, PhiMetricity,
};
pub use quasi::QuasiMetric;
pub use separation::{greedy_separated_subset, is_separated, min_pairwise_decay};
pub use space::{DecaySpace, NodeId, Symmetrization};
pub use telemetry::{Counter, CounterSnapshot, Counters, Ring, SpanEvent, TelemetrySample, Timer};
pub use util::{approx_eq, lg, riemann_zeta};
