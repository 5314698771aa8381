//! # decay-channel
//!
//! Time-varying gain fields for the decay engine: the subsystem that
//! turns a static-snapshot simulator into a dynamic-channel simulator
//! without giving up determinism, checkpoint/resume invariance, or
//! cross-backend trace conformance.
//!
//! *Beyond Geometry*'s central move is to model wireless behavior by the
//! gain matrix itself rather than by geometry — but a matrix measured in
//! the field *drifts*: nodes move, shadowing decorrelates, fading
//! redraws every coherence time. This crate models that drift on top of
//! any static [`decay_engine::DecayBackend`]:
//!
//! * [`TemporalBackend`] — a gain field quantized into *coherence
//!   blocks*: constant within a block, free to change between blocks.
//!   The block structure keeps the engine's `O(active · k)` hot path:
//!   reach sets are recomputed only at block boundaries.
//!   [`TemporalAdapter`] caches them in a per-block view the engine
//!   advances once per resolution round
//!   ([`decay_engine::DecayBackend::advance_to`]; block-0 static view
//!   kept separately, per-source dense rows built by one batched
//!   [`TemporalBackend::decay_row_in_block`] call), and
//!   [`TemporalChannel::with_geometric_hints`] shrinks each per-block
//!   scan from `n` nodes to a conservatively widened window of the base
//!   topology's hint, pruned pair by pair with a lower bound on the
//!   decay before any exact evaluation.
//! * [`TemporalChannel`] — mobility ([`MobilityModel::RandomWaypoint`],
//!   [`MobilityModel::LevyWalk`], [`MobilityModel::Group`] over
//!   `decay-spaces` point sets), Gudmundson-style spatially correlated
//!   log-normal shadowing ([`ShadowingConfig`]), and block Rayleigh
//!   fading ([`FadingConfig`]) layered multiplicatively on the base
//!   field; over a declared geometric base the product is evaluated in
//!   closed form from positions and per-node shadowing shares.
//! * [`GainTrace`] / [`TraceChannel`] — a hand-rolled JSON
//!   importer/exporter so externally measured gain matrices replay
//!   bit-identically (same decays, same engine trace hash).
//! * [`MetricityMonitor`] — samples the paper's `ζ` and `φ` parameters
//!   of the *instantaneous* matrix over time, turning the metricity
//!   constant into the trajectory `ζ(t)`.
//!
//! # Determinism
//!
//! Every stochastic layer draws from random-access hashes of
//! `(seed, block, entity)` — there is no mutable RNG stream, so channel
//! state never needs checkpointing. An engine checkpoint (format v3)
//! records only the channel's [`TemporalBackend::signature`];
//! [`decay_engine::Engine::restore`] verifies that the rebuilt channel
//! matches and the replayed field is bit-identical by construction.
//!
//! # Example
//!
//! ```
//! use decay_channel::{
//!     FadingConfig, MetricityMonitor, MobilityConfig, MobilityModel, TemporalAdapter,
//!     TemporalChannel,
//! };
//! use decay_engine::{DecayBackend, LazyBackend};
//! use decay_spaces::line_points;
//!
//! // A static 32-node line, then drift: waypoint mobility + block fading.
//! let base = LazyBackend::from_fn(32, |i, j| ((i as f64) - (j as f64)).abs().powi(2));
//! let channel = TemporalChannel::new(base, line_points(32, 1.0), 2.0, 16)
//!     .with_mobility(MobilityConfig {
//!         model: MobilityModel::RandomWaypoint { speed: 0.4, pause: 1 },
//!         seed: 7,
//!     })
//!     .with_fading(FadingConfig { seed: 9 });
//! let backend = TemporalAdapter::new(channel);
//!
//! // The engine sees a DecayBackend whose decay_at varies per block...
//! let d0 = backend.decay_at(0, 3.into(), 4.into());
//! let d99 = backend.decay_at(99 * 16, 3.into(), 4.into());
//! assert_ne!(d0.to_bits(), d99.to_bits());
//!
//! // ...and the metricity parameter becomes a trajectory.
//! let mut monitor = MetricityMonitor::new(16, 24);
//! for tick in (0..200).step_by(16) {
//!     monitor.record(tick, &backend);
//! }
//! assert!(monitor.samples().len() > 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adaptive;
mod channel;
mod draw;
mod fading;
mod mobility;
mod monitor;
mod shadowing;
mod temporal;
mod trace;

pub use adaptive::AdaptiveContention;
pub use channel::TemporalChannel;
pub use fading::FadingConfig;
pub use mobility::{MobilityConfig, MobilityModel};
pub use monitor::{sample, MetricityMonitor, ZetaSample};
pub use shadowing::ShadowingConfig;
pub use temporal::{ScanStats, TemporalAdapter, TemporalBackend};
pub use trace::{GainFrame, GainTrace, TraceChannel, TraceError};
