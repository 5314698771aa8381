//! Randomized local broadcast over decay spaces (the [22, 69, 32] family
//! analyzed through the annulus argument of Section 3).
//!
//! Every node owns one message and must deliver it to its *neighborhood*:
//! all nodes within decay `F` of it. Nodes transmit with a fixed
//! probability `p` (default `c / Δ` with `Δ` the largest neighborhood
//! size) and listen otherwise — the classic decay-style dynamics whose
//! round complexity is governed by the fading parameter `γ` of the space.

use decay_core::DecaySpace;
use decay_engine::{EngineConfig, SlotAdapter, Tick};
use decay_netsim::{Action, NodeBehavior, ReceptionModel, SlotContext};
use decay_sinr::SinrParams;
use rand::Rng;

/// Parameters of a local broadcast run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BroadcastConfig {
    /// Neighborhood radius in decay: node `z` must hear node `u` whenever
    /// `f(u, z) ≤ F`.
    pub neighborhood_decay: f64,
    /// Transmit probability; `None` selects `0.5 / Δ` from the instance.
    pub probability: Option<f64>,
    /// Transmission power (uniform).
    pub power: f64,
    /// Slot budget before giving up.
    pub max_slots: usize,
    /// Reception model (thresholding by default; Rayleigh measures the
    /// \[10\] simulation claim — see experiment E34).
    pub reception: ReceptionModel,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BroadcastConfig {
    fn default() -> Self {
        BroadcastConfig {
            neighborhood_decay: 16.0,
            probability: None,
            power: 1.0,
            max_slots: 50_000,
            reception: ReceptionModel::Threshold,
            seed: 1,
        }
    }
}

/// Outcome of a local broadcast run.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastReport {
    /// Slots until every required (sender, neighbor) pair was delivered;
    /// `None` when the budget ran out first.
    pub completed_in: Option<usize>,
    /// Fraction of required pairs delivered by the end of the run.
    pub coverage: f64,
    /// The number of required (sender, neighbor) pairs.
    pub required_pairs: usize,
    /// The transmit probability used.
    pub probability: f64,
    /// The maximum neighborhood size Δ of the instance.
    pub max_neighborhood: usize,
}

/// The fixed-probability broadcaster behavior.
#[derive(Debug, Clone, Copy)]
struct Broadcaster {
    p: f64,
    power: f64,
}

impl NodeBehavior for Broadcaster {
    fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action {
        if ctx.rng.gen_range(0.0..1.0) < self.p {
            Action::Transmit {
                power: self.power,
                message: ctx.node.index() as u64,
            }
        } else {
            Action::Listen
        }
    }
}

/// The in-neighborhood sizes: for each node `u`, how many nodes must hear
/// it (`|{z ≠ u : f(u, z) ≤ F}|`).
pub fn neighborhood_sizes(space: &DecaySpace, f_max: f64) -> Vec<usize> {
    space
        .nodes()
        .map(|u| {
            space
                .nodes()
                .filter(|&z| z != u && space.decay(u, z) <= f_max)
                .count()
        })
        .collect()
}

/// Runs randomized local broadcast; see the module docs.
///
/// # Panics
///
/// Panics on degenerate configs (non-positive decay radius, power or slot
/// budget; explicit probability outside `(0, 1)`).
pub fn run_local_broadcast(
    space: &DecaySpace,
    params: &SinrParams,
    config: &BroadcastConfig,
) -> BroadcastReport {
    assert!(
        config.neighborhood_decay > 0.0,
        "neighborhood radius must be positive"
    );
    assert!(config.power > 0.0, "power must be positive");
    assert!(config.max_slots > 0, "slot budget must be positive");
    let n = space.len();
    let sizes = neighborhood_sizes(space, config.neighborhood_decay);
    let delta = sizes.iter().copied().max().unwrap_or(0);
    let p = match config.probability {
        Some(p) => {
            assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1)");
            p
        }
        None => (0.5 / delta.max(1) as f64).min(0.5),
    };
    // Required ordered pairs (u delivered to z).
    let mut required = vec![false; n * n];
    let mut required_count = 0usize;
    for u in space.nodes() {
        for z in space.nodes() {
            if u != z && space.decay(u, z) <= config.neighborhood_decay {
                required[u.index() * n + z.index()] = true;
                required_count += 1;
            }
        }
    }
    let behaviors = vec![
        Broadcaster {
            p,
            power: config.power,
        };
        n
    ];
    let engine_config = EngineConfig {
        reception: config.reception,
        record_trace: true,
        ..EngineConfig::default()
    };
    let mut engine = SlotAdapter::engine(
        space.clone(),
        behaviors,
        *params,
        engine_config,
        config.seed,
    )
    .expect("behavior count matches");
    let mut delivered = vec![false; n * n];
    let mut remaining = required_count;
    let mut completed_in = None;
    for slot in 0..config.max_slots {
        engine.run_until(slot as Tick);
        for d in engine.drain_trace() {
            let idx = d.from.index() * n + d.to.index();
            if required[idx] && !delivered[idx] {
                delivered[idx] = true;
                remaining -= 1;
            }
        }
        if remaining == 0 {
            completed_in = Some(slot + 1);
            break;
        }
    }
    BroadcastReport {
        completed_in,
        coverage: if required_count == 0 {
            1.0
        } else {
            (required_count - remaining) as f64 / required_count as f64
        },
        required_pairs: required_count,
        probability: p,
        max_neighborhood: delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, alpha: f64) -> DecaySpace {
        DecaySpace::from_fn(n, |i, j| ((i as f64) - (j as f64)).abs().powf(alpha)).unwrap()
    }

    #[test]
    fn broadcast_completes_on_small_line() {
        let s = line(8, 3.0);
        let report = run_local_broadcast(
            &s,
            &SinrParams::default(),
            &BroadcastConfig {
                neighborhood_decay: 8.0, // distance 2 at alpha = 3
                ..Default::default()
            },
        );
        assert_eq!(report.coverage, 1.0);
        assert!(report.completed_in.is_some());
        assert!(report.required_pairs > 0);
    }

    #[test]
    fn neighborhood_sizes_match_geometry() {
        let s = line(5, 2.0);
        // F = 4: neighbors within distance 2.
        let sizes = neighborhood_sizes(&s, 4.0);
        assert_eq!(sizes, vec![2, 3, 4, 3, 2]);
    }

    #[test]
    fn tiny_budget_reports_partial_coverage() {
        let s = line(12, 2.0);
        let report = run_local_broadcast(
            &s,
            &SinrParams::default(),
            &BroadcastConfig {
                neighborhood_decay: 9.0,
                max_slots: 2,
                ..Default::default()
            },
        );
        assert!(report.completed_in.is_none());
        assert!(report.coverage < 1.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let s = line(8, 3.0);
        let cfg = BroadcastConfig {
            neighborhood_decay: 8.0,
            ..Default::default()
        };
        let a = run_local_broadcast(&s, &SinrParams::default(), &cfg);
        let b = run_local_broadcast(&s, &SinrParams::default(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn denser_neighborhoods_take_longer() {
        let s = line(10, 2.0);
        let sparse = run_local_broadcast(
            &s,
            &SinrParams::default(),
            &BroadcastConfig {
                neighborhood_decay: 1.5, // only adjacent nodes
                seed: 3,
                ..Default::default()
            },
        );
        let dense = run_local_broadcast(
            &s,
            &SinrParams::default(),
            &BroadcastConfig {
                neighborhood_decay: 20.0, // distance up to ~4.5
                seed: 3,
                ..Default::default()
            },
        );
        let (Some(a), Some(b)) = (sparse.completed_in, dense.completed_in) else {
            panic!("both runs should complete");
        };
        assert!(b > a, "dense {b} should exceed sparse {a}");
    }

    #[test]
    fn explicit_probability_is_used() {
        let s = line(6, 3.0);
        let report = run_local_broadcast(
            &s,
            &SinrParams::default(),
            &BroadcastConfig {
                neighborhood_decay: 8.0,
                probability: Some(0.25),
                ..Default::default()
            },
        );
        assert_eq!(report.probability, 0.25);
    }

    #[test]
    fn rayleigh_broadcast_completes_with_bounded_slowdown() {
        // The [10] claim in miniature: moving from thresholding to a
        // randomized filter (Rayleigh) preserves correctness; the round
        // count inflates by a bounded factor, not asymptotically.
        let s = line(8, 3.0);
        let base = BroadcastConfig {
            neighborhood_decay: 8.0,
            seed: 5,
            ..Default::default()
        };
        let threshold = run_local_broadcast(&s, &SinrParams::default(), &base);
        let rayleigh = run_local_broadcast(
            &s,
            &SinrParams::default(),
            &BroadcastConfig {
                reception: ReceptionModel::Rayleigh,
                ..base
            },
        );
        let t = threshold.completed_in.expect("threshold completes");
        let r = rayleigh.completed_in.expect("rayleigh completes");
        assert!(
            r <= 20 * t.max(1),
            "rayleigh {r} slots vs threshold {t}: unbounded slowdown"
        );
    }
}
