//! # decay-envsim
//!
//! An indoor radio propagation and measurement simulator producing
//! [`decay_core::DecaySpace`] matrices — the stand-in for the testbed
//! measurement campaigns behind *Beyond Geometry* (see the sibling
//! measurement paper \[24] in its bibliography).
//!
//! The pipeline:
//!
//! 1. Describe the environment: a [`FloorPlan`] of attenuating [`Wall`]s
//!    (or use [`FloorPlan::office`]).
//! 2. Deploy [`Device`]s (position + [`AntennaPattern`]).
//! 3. Pick a [`PropagationModel`]: log-distance path loss, wall
//!    penetration, correlated static shadowing ([`NoiseField`]), hardware
//!    TX/RX offsets.
//! 4. Get the ground-truth decay space, and optionally a noisy/quantized
//!    [`MeasurementModel`] reconstruction of it.
//!
//! Or do all of it at once with [`OfficeConfig::build`].
//!
//! # Examples
//!
//! ```
//! use decay_envsim::OfficeConfig;
//! use decay_core::metricity;
//!
//! let scenario = OfficeConfig::default().build();
//! // The decay space exists and the measured reconstruction tracks it.
//! assert_eq!(scenario.truth.len(), scenario.measured.space.len());
//! assert!(metricity(&scenario.truth).zeta > 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod antenna;
mod floorplan;
mod geometry;
mod measurement;
mod noise;
mod propagation;
mod reflection;
mod scenario;

pub use antenna::AntennaPattern;
pub use floorplan::{FloorPlan, Wall};
pub use geometry::{segments_intersect, Point2, Segment};
pub use measurement::{distance_decay_correlation, Measured, MeasurementModel};
pub use noise::NoiseField;
pub use propagation::{Device, PropagationModel};
pub use reflection::{mirror_across, MultipathModel};
pub use scenario::{OfficeConfig, OfficeScenario};
