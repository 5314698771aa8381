//! # decay-distributed
//!
//! Distributed protocols over decay spaces, demonstrating the paper's
//! Section 3 program: once the fading parameter `γ` (and, for capacity,
//! amicability) of a decay space is bounded, the standard randomized
//! distributed algorithms run unchanged — only their round complexity
//! scales with the space's parameters instead of with geometric constants.
//!
//! * [`regret_capacity_game`] — distributed capacity by multiplicative-
//!   weights regret minimization (\[14], \[1]).
//! * [`adversarial_regret_game`] — the same game under jamming (\[11]) and
//!   changing spectrum availability / sleeping experts (\[12]).
//! * [`run_local_broadcast`] — randomized local broadcast with fixed
//!   transmit probability (the annulus-argument family [22, 69]).
//! * [`run_multi_broadcast`] — global and multiple-message broadcast
//!   (\[13], \[65, 66]).
//! * [`run_contention`] — distributed contention resolution (\[45, 28]).
//! * [`run_coloring`] — distributed coloring in the physical model (\[67]).
//! * [`run_queueing`] — dynamic packet scheduling / queue stability
//!   (\[44], \[2, 3] in the paper's transfer list).
//! * [`run_dominating_set`] — distributed dominating set (\[55]).
//! * [`run_local_broadcast_event`] / [`run_contention_event`] — the
//!   broadcast and contention protocols ported natively to the
//!   event-driven `decay_engine`, scaling to 100k+ nodes on lazy decay
//!   backends with churn, latency, jamming and checkpointing.
//!
//! All are deterministic in their seeds and run on
//! [`decay_engine::Engine`] (the slot protocols through
//! [`decay_engine::SlotAdapter::engine`]) or directly on affectance
//! matrices.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adversarial;
mod broadcast;
mod coloring;
mod contention;
mod dominating;
mod event_broadcast;
mod event_contention;
mod multimsg;
mod queueing;
mod regret;

pub use adversarial::{
    adversarial_regret_game, AdversarialConfig, AdversarialOutcome, AvailabilityModel, JammingModel,
};
pub use broadcast::{neighborhood_sizes, run_local_broadcast, BroadcastConfig, BroadcastReport};
pub use coloring::{
    is_proper_coloring, mutual_neighbor_graph, run_coloring, ColoringConfig, ColoringReport,
};
pub use contention::{run_contention, ContentionConfig, ContentionReport, ContentionStrategy};
pub use dominating::{
    greedy_dominating_set, run_dominating_set, DominatingConfig, DominatingReport,
};
pub use event_broadcast::{
    build_broadcast_engine, jam_schedule_from_model, run_local_broadcast_event,
    EventBroadcastConfig, EventBroadcastReport, EventBroadcaster,
};
pub use event_contention::{
    build_contention_engine, run_contention_event, ContentionNode, EventContentionConfig,
    EventContentionReport,
};
pub use multimsg::{
    run_multi_broadcast, run_multi_broadcast_with_faults, MultiBroadcastConfig,
    MultiBroadcastReport, MAX_MESSAGES,
};
pub use queueing::{run_queueing, QueueingConfig, QueueingReport, Scheduler};
pub use regret::{regret_capacity_game, RegretConfig, RegretOutcome};
