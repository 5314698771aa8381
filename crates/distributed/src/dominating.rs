//! Distributed dominating set under SINR (the paper's transfer list cites
//! Scheideler–Richa–Santi [55], an `O(log n)`-slot protocol).
//!
//! Every node must end up either a *dominator* or within decay `F` of one
//! it has actually heard. The protocol is the classic announce/acknowledge
//! dynamics: candidates announce themselves with a fixed probability;
//! an announcement that is captured by at least one listener promotes the
//! sender to dominator (the capture acts as the ACK the radio layer
//! provides); candidates that hear a dominator within their neighborhood
//! become dominated and go passive. Dominators keep announcing so that
//! late candidates can still hear them.

use decay_core::{DecaySpace, NodeId};
use decay_engine::{Engine, EngineConfig, SlotAdapter, Tick};
use decay_netsim::{Action, NodeBehavior, SlotContext};
use decay_sinr::SinrParams;
use rand::Rng;

/// Parameters for the dominating-set protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DominatingConfig {
    /// Neighborhood radius in decay: hearing a dominator `u` with
    /// `f(u, z) ≤ F` dominates `z`.
    pub neighborhood_decay: f64,
    /// Announcement probability; `None` selects `0.5 / Δ`.
    pub probability: Option<f64>,
    /// Transmission power (uniform).
    pub power: f64,
    /// Slot budget.
    pub max_slots: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DominatingConfig {
    fn default() -> Self {
        DominatingConfig {
            neighborhood_decay: 16.0,
            probability: None,
            power: 1.0,
            max_slots: 50_000,
            seed: 1,
        }
    }
}

/// Outcome of a dominating-set run.
#[derive(Debug, Clone, PartialEq)]
pub struct DominatingReport {
    /// The elected dominators.
    pub dominators: Vec<NodeId>,
    /// Slots until no candidate remained (`None` if the budget ran out).
    pub completed_in: Option<usize>,
    /// Whether every node is a dominator or heard one within `F`.
    pub valid: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Candidate,
    Dominator,
    Dominated,
}

#[derive(Debug, Clone, Copy)]
struct DominatingNode {
    role: Role,
    p: f64,
    power: f64,
    /// Minimum RSSI at which a heard dominator counts as in-neighborhood:
    /// decay(u, z) <= F  <=>  received power >= P/F (uniform power).
    min_rssi: f64,
}

const DOMINATOR_FLAG: u64 = 1 << 63;

impl NodeBehavior for DominatingNode {
    fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action {
        let announce = match self.role {
            Role::Candidate | Role::Dominator => ctx.rng.gen_range(0.0..1.0) < self.p,
            Role::Dominated => false,
        };
        if announce {
            let mut msg = ctx.node.index() as u64;
            if self.role == Role::Dominator {
                msg |= DOMINATOR_FLAG;
            }
            Action::Transmit {
                power: self.power,
                message: msg,
            }
        } else {
            Action::Listen
        }
    }

    fn on_receive(&mut self, _from: NodeId, message: u64, power: f64) {
        // Hearing a dominator loudly enough (RSSI encodes the decay under
        // uniform power) dominates a candidate.
        if self.role == Role::Candidate && message & DOMINATOR_FLAG != 0 && power >= self.min_rssi {
            self.role = Role::Dominated;
        }
    }

    fn on_transmit_result(&mut self, receivers: usize) {
        // A captured announcement is the ACK that promotes a candidate.
        if self.role == Role::Candidate && receivers > 0 {
            self.role = Role::Dominator;
        }
    }
}

/// Runs the dominating-set protocol; see the module docs.
///
/// # Panics
///
/// Panics on degenerate configs.
pub fn run_dominating_set(
    space: &DecaySpace,
    params: &SinrParams,
    config: &DominatingConfig,
) -> DominatingReport {
    assert!(config.neighborhood_decay > 0.0, "radius must be positive");
    assert!(config.power > 0.0, "power must be positive");
    assert!(config.max_slots > 0, "slot budget must be positive");
    let n = space.len();
    let delta = crate::broadcast::neighborhood_sizes(space, config.neighborhood_decay)
        .into_iter()
        .max()
        .unwrap_or(0);
    let p = match config.probability {
        Some(p) => {
            assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1)");
            p
        }
        None => (0.5 / delta.max(1) as f64).min(0.5),
    };
    let behaviors = vec![
        DominatingNode {
            role: Role::Candidate,
            p,
            power: config.power,
            min_rssi: config.power / config.neighborhood_decay,
        };
        n
    ];
    let mut engine = SlotAdapter::engine(
        space.clone(),
        behaviors,
        *params,
        EngineConfig::default(),
        config.seed,
    )
    .expect("behavior count matches");
    let role = |engine: &Engine<SlotAdapter<DominatingNode>>, i: usize| {
        engine.behavior(NodeId::new(i)).inner().role
    };
    let mut completed_in = None;
    for slot in 0..config.max_slots {
        engine.run_until(slot as Tick);
        let done = (0..n).all(|i| role(&engine, i) != Role::Candidate);
        if done {
            completed_in = Some(slot + 1);
            break;
        }
    }
    // Any leftover candidates dominate themselves (budget exhaustion).
    let dominators: Vec<NodeId> = (0..n)
        .filter(|&i| role(&engine, i) != Role::Dominated)
        .map(NodeId::new)
        .collect();
    let valid = (0..n).all(|i| {
        role(&engine, i) != Role::Dominated
            || dominators
                .iter()
                .any(|&u| space.decay(u, NodeId::new(i)) <= config.neighborhood_decay)
    });
    DominatingReport {
        dominators,
        completed_in,
        valid,
    }
}

/// Centralized greedy dominating set (coverage baseline): repeatedly pick
/// the node covering the most uncovered nodes within decay `F`.
pub fn greedy_dominating_set(space: &DecaySpace, f_max: f64) -> Vec<NodeId> {
    let n = space.len();
    let mut covered = vec![false; n];
    let mut dominators = Vec::new();
    while covered.iter().any(|&c| !c) {
        let best = space
            .nodes()
            .max_by_key(|&u| {
                space
                    .nodes()
                    .filter(|&z| !covered[z.index()] && (z == u || space.decay(u, z) <= f_max))
                    .count()
            })
            .expect("non-empty space");
        dominators.push(best);
        for z in space.nodes() {
            if z == best || space.decay(best, z) <= f_max {
                covered[z.index()] = true;
            }
        }
    }
    dominators
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, alpha: f64) -> DecaySpace {
        DecaySpace::from_fn(n, |i, j| ((i as f64) - (j as f64)).abs().powf(alpha)).unwrap()
    }

    #[test]
    fn protocol_produces_valid_dominating_set() {
        let s = line(12, 3.0);
        let report = run_dominating_set(
            &s,
            &SinrParams::default(),
            &DominatingConfig {
                neighborhood_decay: 8.0,
                ..Default::default()
            },
        );
        assert!(report.valid);
        assert!(report.completed_in.is_some());
        assert!(!report.dominators.is_empty());
        assert!(report.dominators.len() < 12);
    }

    #[test]
    fn greedy_baseline_covers() {
        let s = line(12, 3.0);
        let doms = greedy_dominating_set(&s, 8.0);
        for z in s.nodes() {
            assert!(
                doms.contains(&z) || doms.iter().any(|&u| s.decay(u, z) <= 8.0),
                "{z} uncovered"
            );
        }
        // F = 8 at alpha 3 covers distance 2: ceil(12/5) = 3 dominators.
        assert!(doms.len() <= 4, "greedy used {} dominators", doms.len());
    }

    #[test]
    fn protocol_size_tracks_greedy_within_factor() {
        let s = line(16, 3.0);
        let report = run_dominating_set(
            &s,
            &SinrParams::default(),
            &DominatingConfig {
                neighborhood_decay: 8.0,
                seed: 5,
                ..Default::default()
            },
        );
        let greedy = greedy_dominating_set(&s, 8.0);
        assert!(report.valid);
        // Distributed protocols pay a constant blow-up over the greedy.
        assert!(
            report.dominators.len() <= 6 * greedy.len(),
            "protocol {} vs greedy {}",
            report.dominators.len(),
            greedy.len()
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let s = line(10, 3.0);
        let cfg = DominatingConfig {
            neighborhood_decay: 8.0,
            seed: 9,
            ..Default::default()
        };
        let a = run_dominating_set(&s, &SinrParams::default(), &cfg);
        let b = run_dominating_set(&s, &SinrParams::default(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_budget_still_returns_valid_cover() {
        let s = line(10, 2.0);
        let report = run_dominating_set(
            &s,
            &SinrParams::default(),
            &DominatingConfig {
                neighborhood_decay: 4.0,
                max_slots: 1,
                ..Default::default()
            },
        );
        // Leftover candidates self-dominate, so validity always holds.
        assert!(report.valid);
    }
}
