//! # beyond-geometry
//!
//! A from-scratch Rust reproduction of *Beyond Geometry: Towards Fully
//! Realistic Wireless Models* (Bodlaender & Halldórsson, PODC 2014,
//! arXiv:1402.5003): decay spaces and their parameters, SINR machinery,
//! capacity algorithms, hardness constructions, an indoor propagation
//! simulator, a discrete-event network engine, and distributed
//! protocols.
//!
//! This facade re-exports the workspace crates under stable module names;
//! depend on the individual crates for finer-grained builds.
//!
//! | Module | Contents |
//! |---|---|
//! | [`core`] | decay spaces, metricity `ζ`, `φ`, quasi-metrics, dimensions, fading `γ`, independence/guards |
//! | [`sinr`] | links, powers, affectance, feasibility, partition lemmas |
//! | [`spaces`] | geometric/random/special/adversarial space generators |
//! | [`envsim`] | indoor propagation + RSSI measurement simulator |
//! | [`capacity`] | Algorithm 1, greedy baselines, exact optimum, amicability, scheduling |
//! | [`netsim`] | slot protocol vocabulary, fault plans, reception models, PRR-based decay inference |
//! | [`engine`] | discrete-event engine: lazy million-node backends, churn, checkpointing, slot protocols |
//! | [`channel`] | time-varying gain fields: mobility, shadowing, fading, trace replay, ζ(t) monitoring |
//! | [`distributed`] | regret capacity game, randomized local broadcast (slot + event-driven) |
//! | [`scenario`] | declarative JSON scenario specs, metrics, golden-trace digests |
//!
//! # Quickstart
//!
//! ```
//! use beyond_geometry::prelude::*;
//!
//! // Simulate an office, measure its decay space, run capacity on it.
//! let scenario = OfficeConfig::default().build();
//! let zeta = metricity(&scenario.truth).zeta_at_least_one();
//! assert!(zeta > 1.0);
//! ```

pub use decay_capacity as capacity;
pub use decay_channel as channel;
pub use decay_core as core;
pub use decay_distributed as distributed;
pub use decay_engine as engine;
pub use decay_envsim as envsim;
pub use decay_netsim as netsim;
pub use decay_scenario as scenario;
pub use decay_sinr as sinr;
pub use decay_spaces as spaces;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use decay_capacity::{
        aggregation_tree, algorithm1, arrival_order, conflict_schedule_report, greedy_affectance,
        max_feasible_subset, max_weight_feasible_subset, online_capacity, run_auction,
        schedule_aggregation, schedule_by_capacity, weighted_greedy, ArrivalOrder, AuctionConfig,
        CapacityResult, OnlineRule, EXACT_CAPACITY_LIMIT, EXACT_WEIGHTED_LIMIT,
    };
    pub use decay_channel::{
        AdaptiveContention, FadingConfig, GainTrace, MetricityMonitor, MobilityConfig,
        MobilityModel, ShadowingConfig, TemporalAdapter, TemporalBackend, TemporalChannel,
        TraceChannel, ZetaSample,
    };
    pub use decay_core::{
        assouad_dimension_fit, fading_parameter, independence_dimension, metricity, phi_metricity,
        DecayError, DecaySpace, NodeId, QuasiMetric,
    };
    pub use decay_distributed::{
        adversarial_regret_game, regret_capacity_game, run_coloring, run_contention,
        run_contention_event, run_dominating_set, run_local_broadcast, run_local_broadcast_event,
        run_multi_broadcast, run_queueing, AdversarialConfig, BroadcastConfig, ColoringConfig,
        ContentionConfig, DominatingConfig, EventBroadcastConfig, EventContentionConfig,
        MultiBroadcastConfig, QueueingConfig, RegretConfig,
    };
    pub use decay_engine::{
        apply_directives, drive_probed, drive_until, ChurnConfig, Controller, DecayBackend,
        DenseBackend, Directive, Engine, EngineConfig, EventBehavior, JamSchedule, LatencyModel,
        LazyBackend, NodeCtx, PauseCtx, Probe, PrrWindowSample, SlotAdapter, Tunable, WindowedPrr,
    };
    pub use decay_envsim::{Device, FloorPlan, MeasurementModel, OfficeConfig, PropagationModel};
    pub use decay_netsim::{
        compare_decays, infer_decay_from_prr, run_probe_campaign, Action, FaultPlan, NodeBehavior,
        PrrTracker, ReceptionModel, SlotContext,
    };
    pub use decay_scenario::{
        chrome_trace_json, runlog, AdaptiveSpec, BackendSpec, ChannelSpec, CompiledScenario,
        MetricsReport, MobilitySpec, MonitorSpec, ProtocolSpec, RunLog, RunOptions, RunSession,
        ScenarioCache, ScenarioReport, ScenarioRunner, ScenarioSpec, SessionStep, TopologySpec,
        TraceDigest,
    };
    pub use decay_sinr::{
        inductive_independence, sample_feasible_sets, AffectanceMatrix, ConflictGraph, Link,
        LinkId, LinkSet, PowerAssignment, SinrParams,
    };
    pub use decay_spaces::{
        geometric_space, random_link_deployment, random_points, two_line_instance,
        unit_decay_instance, Graph,
    };
}
