//! # decay-engine
//!
//! A deterministic discrete-event simulation engine for decay spaces —
//! the one execution substrate for the Section 3 program of *Beyond
//! Geometry* (PODC 2014): distributed algorithms transfer unchanged to
//! arbitrary decay spaces, so the simulator should scale to the spaces,
//! not the other way around.
//!
//! A slot-synchronous run over a dense `O(n²)` decay matrix steps
//! *every* node *every* slot, capping realistic experiments at a few
//! thousand nodes. This engine removes both costs for protocols written
//! against it, and still runs slot protocols at lockstep cost:
//!
//! * **Event queue over a tick clock** ([`Engine`]) — only nodes with a
//!   scheduled event cost work; idle listeners are free.
//! * **Backends instead of matrices** ([`DecayBackend`]) — dense for
//!   small spaces, [`LazyBackend`] (compute on demand, store nothing)
//!   for large ones, plus [top-k affectance pruning](EngineConfig::top_k) and
//!   [reach cutoffs](EngineConfig::reach_decay) for `O(active · k)`
//!   reception resolution.
//! * **Dynamics** — node churn ([`ChurnConfig`]), scheduled outages
//!   (reusing [`decay_netsim::FaultPlan`]), delivery latency and jitter
//!   ([`LatencyModel`]), and jamming ([`JamSchedule`], mirroring
//!   `decay_distributed::adversarial`).
//! * **Checkpointing** ([`Checkpoint`]) — snapshot clock, event queue,
//!   every RNG stream, node modes and behavior state; resume to a
//!   bit-identical trace.
//! * **Probes and controllers** ([`probe`]) — typed pause-grid
//!   callbacks for observing a run ([`Probe`]: metrics, ζ(t)
//!   monitoring, windowed PRR) and steering it ([`Controller`]:
//!   grid-aligned re-tuning whose identity is folded into checkpoint
//!   signatures), composed over one shared drive loop
//!   ([`drive_probed`] / [`drive_until`]).
//! * **Slot protocols** ([`SlotAdapter::engine`]) — every
//!   [`decay_netsim::NodeBehavior`] protocol runs unmodified on a dense
//!   backend, one slot per tick, with seeded per-node and fading
//!   streams.
//!
//! # Quickstart
//!
//! ```
//! use decay_engine::{Engine, EngineConfig, EventBehavior, LazyBackend, NodeCtx};
//! use decay_core::NodeId;
//! use decay_sinr::SinrParams;
//!
//! /// Every node announces itself once, at a random tick, then listens.
//! #[derive(Clone)]
//! struct Announce {
//!     heard: Vec<u64>,
//! }
//!
//! impl EventBehavior for Announce {
//!     fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
//!         ctx.listen();
//!         let t = ctx.now + 1 + (rand::Rng::gen_range(ctx.rng, 0..20));
//!         ctx.wake_at(t);
//!     }
//!     fn on_wake(&mut self, ctx: &mut NodeCtx<'_>) {
//!         ctx.transmit(1.0, ctx.node.index() as u64);
//!         ctx.listen(); // back to listening after the burst
//!     }
//!     fn on_receive(&mut self, _ctx: &mut NodeCtx<'_>, _from: NodeId, msg: u64, _p: f64) {
//!         self.heard.push(msg);
//!     }
//! }
//!
//! # fn main() -> Result<(), decay_engine::EngineError> {
//! // A 10k-node line space that is never materialized.
//! let backend = LazyBackend::from_fn(10_000, |i, j| {
//!     ((i as f64) - (j as f64)).abs().powi(2)
//! })
//! .with_neighbor_hint(|i, reach| {
//!     let w = reach.sqrt().ceil() as usize;
//!     (i.saturating_sub(w)..=(i + w).min(9_999)).collect()
//! });
//! let behaviors = (0..10_000).map(|_| Announce { heard: vec![] }).collect();
//! let config = EngineConfig {
//!     reach_decay: Some(25.0), // ignore signals past distance 5
//!     ..EngineConfig::default()
//! };
//! let mut engine = Engine::new(backend, behaviors, SinrParams::default(), config, 42)?;
//! engine.run_until(25);
//! let stats = engine.stats();
//! assert!(stats.transmissions > 0 && stats.deliveries > 0);
//!
//! // Checkpoint, keep running, restore, re-run: identical traces.
//! let snapshot = engine.checkpoint();
//! engine.run_until(40);
//! let backend2 = LazyBackend::from_fn(10_000, |i, j| {
//!     ((i as f64) - (j as f64)).abs().powi(2)
//! });
//! let mut resumed = Engine::restore(backend2, snapshot)?;
//! resumed.run_until(40);
//! assert_eq!(engine.trace_hash(), resumed.trace_hash());
//! # Ok(())
//! # }
//! ```
//!
//! # Determinism contract
//!
//! Everything random flows from one master seed through named
//! [`EngineRng`] streams (per-node, churn, fading, jitter, jamming), and
//! same-tick events fire in a fixed class order with insertion-order
//! tie-breaks. Two engines built with the same backend, behaviors,
//! config and seed produce identical event sequences, delivery traces,
//! and [`Engine::trace_hash`] values — and a [`Checkpoint`] restored
//! into a fresh process continues exactly where the original would have
//! gone.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adapter;
mod backend;
pub mod codec;
mod engine;
mod event;
pub mod probe;
mod rng;
pub mod telemetry;

pub use adapter::SlotAdapter;
pub use backend::{DecayBackend, DecayFn, DenseBackend, LazyBackend, NeighborFn};
pub use codec::{Codec, CodecError};
pub use engine::{
    Checkpoint, ChurnConfig, DeliveryRecord, Engine, EngineConfig, EngineError, EngineStats,
    EventBehavior, JamSchedule, LatencyModel, NodeCtx, NodeMode,
};
pub use event::{Event, QueuedEvent, Tick};
pub use probe::{
    apply_directives, drive_probed, drive_until, Controller, Directive, PauseCtx, Probe,
    PrrWindowSample, Tunable, WindowedPrr,
};
pub use rng::{geometric_gap, EngineRng};
pub use telemetry::{dump_flight, EventKind, EventRecord};
