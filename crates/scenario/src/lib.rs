//! # decay-scenario
//!
//! Declarative scenarios for the decay engine: the ROADMAP's "as many
//! scenarios as you can imagine" machine. A [`ScenarioSpec`] is one JSON
//! document describing a complete simulation — topology, backend, SINR
//! physics, protocol, churn, faults, jamming, latency, seed, horizon —
//! and a [`ScenarioRunner`] compiles it into a configured
//! [`decay_engine::Engine`] run, collecting a [`MetricsReport`]
//! (delivery-latency histogram, PRR, completion tick, events/sec) and a
//! canonical [`TraceDigest`].
//!
//! Every future workload becomes a config file instead of a code change,
//! and every shipped spec doubles as a regression test: its digest is
//! recorded under `tests/golden/` and must stay bit-identical across
//! dense and lazy backends and across checkpoint/resume cycles (see
//! the conformance and golden suites under `tests/`).
//!
//! # Spec format
//!
//! ```json
//! {
//!   "name": "line-broadcast",
//!   "seed": 7,
//!   "horizon": 2000,
//!   "check_interval": 64,
//!   "topology": { "kind": "line", "n": 64, "spacing": 1.0, "alpha": 2.0 },
//!   "backend": { "kind": "lazy" },
//!   "sinr": { "beta": 1.0, "noise": 0.05 },
//!   "reception": "threshold",
//!   "protocol": { "kind": "broadcast", "neighborhood_decay": 4.0, "power": 1.0 },
//!   "churn": { "interval": 8, "leave_prob": 0.2, "join_prob": 0.8 },
//!   "faults": [ { "node": 3, "from": 10, "until": 40 } ],
//!   "jamming": { "kind": "periodic", "period": 7 },
//!   "latency": { "kind": "jittered", "base": 1, "jitter": 3 },
//!   "reach_decay": 64.0,
//!   "top_k": 8,
//!   "channel": {
//!     "block": 16,
//!     "mobility": { "kind": "waypoint", "speed": 0.4, "pause": 1, "seed": 9 },
//!     "shadowing": { "sigma_db": 3.0, "corr_dist": 3.0, "time_corr": 0.7, "seed": 4 },
//!     "fading": { "kind": "rayleigh", "seed": 11 },
//!     "monitor": { "interval": 64, "max_nodes": 18 }
//!   },
//!   "prr_window": 128,
//!   "adaptive": {
//!     "interval": 64, "max_nodes": 16,
//!     "base_p": 0.1, "zeta_ref": 2.0, "floor": 0.02, "cap": 0.4
//!   }
//! }
//! ```
//!
//! `check_interval`, `backend`, `reception`, `churn`, `faults`,
//! `jamming`, `latency`, `reach_decay`, `top_k`, `channel`,
//! `prr_window`, and `adaptive` are optional (the defaults are lazy
//! backend, threshold reception, no dynamics, exact resolution, a
//! frozen gain matrix, lifetime-only PRR, and fixed probabilities).
//! Protocols: `broadcast` (complete when every decay-neighborhood heard
//! its owner), `contention` (one packet per link), `announce`
//! (free-running traffic for the whole horizon).
//!
//! The `channel` block makes the gain matrix *time-varying* (see
//! `decay-channel`): decays hold for `block` ticks and drift between
//! blocks under `mobility` (`waypoint` | `levy` | `group`), spatially
//! correlated log-normal `shadowing`, and block-`rayleigh` `fading` —
//! or replay an imported gain `trace` verbatim (inline, or via a
//! repository-relative `trace_path` file resolved when the runner is
//! built). A `monitor` samples the metricity trajectory `ζ(t)`/`φ(t)`
//! of the instantaneous matrix into the metrics report, on the runner's
//! pause grid so sampling can never perturb the digest.
//!
//! # Observation and controllers
//!
//! A [`RunSession`] folds every pause once, in one recorder: the
//! latency histogram, the ζ(t) series, the windowed PRR series
//! (`prr_window`), the telemetry counter deltas, the golden-digest
//! ingredients, the flight-recorder tail, and — when a writer is
//! attached — the `decay-runlog-v1` stream ([`runlog`]) are all read
//! from that one fold. Callers attach their own read-only [`Probe`]s
//! with [`RunSession::new`] and drive the session with
//! [`RunSession::run_to_end`]. The `adaptive` block compiles to a [`AdaptiveContention`]
//! [`Controller`] whose grid-aligned decisions re-tune every node's
//! transmit probability from a live ζ(t) estimate; controller identity
//! is folded into checkpoint signatures, so resume invariance and
//! cross-backend conformance hold for steered runs exactly as for
//! passive ones.
//!
//! # Example
//!
//! ```
//! use decay_scenario::{RunOptions, ScenarioRunner, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_json_str(r#"{
//!   "name": "quick",
//!   "seed": 3,
//!   "horizon": 400,
//!   "topology": { "kind": "line", "n": 12, "spacing": 1.0, "alpha": 3.0 },
//!   "sinr": { "beta": 1.0, "noise": 0.0 },
//!   "protocol": { "kind": "broadcast", "neighborhood_decay": 8.0, "power": 1.0 }
//! }"#).unwrap();
//! let report = ScenarioRunner::new(spec)
//!     .unwrap()
//!     .run(RunOptions::default())
//!     .unwrap();
//! assert!(report.metrics.prr > 0.0);
//! // The digest is a pure function of the spec: bit-equal on every
//! // backend and across checkpoint/resume.
//! println!("{}", report.digest.canonical());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cells;
mod channel;
pub mod golden;
pub mod json;
mod metrics;
mod recorder;
pub mod runlog;
mod runner;
mod session;
mod spec;
mod topology;

pub use decay_channel::{AdaptiveContention, ZetaSample};
pub use decay_engine::probe::{Controller, Directive, PauseCtx, Probe, Tunable, WindowedPrr};
pub use decay_engine::PrrWindowSample;
pub use json::{JsonError, JsonValue};
pub use metrics::{MetricsCollector, MetricsReport, BUCKET_LABELS, LATENCY_BUCKETS};
pub use runlog::{chrome_trace_json, spec_signature, RunLog, RunRecord, RUNLOG_FORMAT};
pub use runner::{RunOptions, ScenarioError, ScenarioReport, ScenarioRunner, TraceDigest};
pub use session::{CompiledScenario, RunSession, ScenarioCache, SessionStep};
pub use spec::{
    AdaptiveSpec, BackendSpec, ChannelSpec, FadingSpec, FaultSpec, LinkSpec, MobilitySpec,
    MonitorSpec, ProtocolSpec, ScenarioSpec, ShadowingSpec, SinrSpec, SpecError, TopologySpec,
};
