//! # decay-capacity
//!
//! CAPACITY and SCHEDULING algorithms over decay spaces, reproducing the
//! algorithmic results of *Beyond Geometry* (PODC 2014):
//!
//! * [`algorithm1`] — the paper's Algorithm 1: uniform-power capacity in
//!   bounded-growth decay spaces, `ζ^{O(1)}`-approximate (Theorem 5).
//! * [`greedy_affectance`] — the general-metric greedy baseline (\[30]),
//!   exponential in `ζ`.
//! * [`power_control_capacity`] — Kesselheim-style selection with power
//!   control (Observation 4.2 family).
//! * [`max_feasible_subset`] — exact optimum by branch and bound, the
//!   ground truth for approximation-ratio experiments.
//! * [`amicable_core`] — the constructive Theorem 4 (amicability).
//! * [`schedule_by_capacity`] — SCHEDULING via repeated capacity.
//! * [`max_weight_feasible_subset`]/[`weighted_greedy`] — weighted
//!   capacity ([26, 33] in the paper's transfer list).
//! * [`aggregation_tree`]/[`schedule_aggregation`] — connectivity and
//!   aggregation ([34, 51]).
//!
//! # Examples
//!
//! ```
//! use decay_core::{metricity, QuasiMetric};
//! use decay_sinr::{AffectanceMatrix, LinkId, PowerAssignment, SinrParams};
//! use decay_spaces::random_link_deployment;
//! use decay_capacity::algorithm1;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (space, links, _) = random_link_deployment(12, 100.0, 2.5, 7)?;
//! let zeta = metricity(&space).zeta_at_least_one();
//! let quasi = QuasiMetric::from_space_with_exponent(&space, zeta);
//! let powers = PowerAssignment::unit().powers(&space, &links)?;
//! let aff = AffectanceMatrix::build(&space, &links, &powers, &SinrParams::default())?;
//! let result = algorithm1(&space, &links, &quasi, &aff, None);
//! assert!(aff.is_feasible(&result.selected));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod algorithm1;
mod amicability;
mod auction;
mod conflict;
mod connectivity;
mod exact;
mod greedy;
mod online;
mod power_control;
mod scheduling;
mod weighted;

pub use algorithm1::{algorithm1, algorithm1_variant, Algorithm1Variant, CapacityResult};
pub use amicability::{amicable_core, AmicabilityReport};
pub use auction::{run_auction, AuctionConfig, AuctionOutcome};
pub use conflict::{
    conflict_graph_schedule, conflict_schedule_report, repair_schedule, slot_feasibility,
    ConflictScheduleReport,
};
pub use connectivity::{
    aggregation_tree, schedule_aggregation, AggregationSchedule, AggregationTree,
};
pub use exact::{max_feasible_subset, EXACT_CAPACITY_LIMIT};
pub use greedy::{first_fit_feasible, greedy_affectance};
pub use online::{arrival_order, online_capacity, ArrivalOrder, OnlineResult, OnlineRule};
pub use power_control::power_control_capacity;
pub use scheduling::{schedule_by_capacity, Schedule};
pub use weighted::{
    max_weight_feasible_subset, total_weight, weighted_greedy, EXACT_WEIGHTED_LIMIT,
};
