//! Distributed capacity via regret minimization ([14], [1]; extended in
//! [11, 19, 12] — the family whose guarantees Theorem 4 improves to
//! `ζ^{O(1)}` in bounded-growth decay spaces).
//!
//! Each link runs multiplicative weights over two actions, *transmit* and
//! *idle*. A round samples every link's action; transmitting links
//! succeed when their in-affectance from the other transmitters stays at
//! most 1 (exactly `SINR ≥ β`). The transmit payoff is `+1` on success
//! and `−λ` on failure; idling pays 0. Since a link can evaluate its
//! counterfactual success from the observed interference, full-information
//! updates are honest here.
//!
//! The per-round success sets are feasible by construction, so the game
//! yields an anytime distributed capacity algorithm; its long-run average
//! tracks a constant fraction of the amicable core (Definition 4.2).

use decay_sinr::{AffectanceMatrix, LinkId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the regret game.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegretConfig {
    /// Number of rounds to play.
    pub rounds: usize,
    /// Multiplicative-weights learning rate `η`.
    pub learning_rate: f64,
    /// Penalty `λ` for a failed transmission.
    pub failure_penalty: f64,
    /// Exploration floor: transmit probabilities are clipped to
    /// `[floor, 1 − floor]`.
    pub probability_floor: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RegretConfig {
    fn default() -> Self {
        RegretConfig {
            rounds: 2000,
            learning_rate: 0.1,
            failure_penalty: 1.5,
            probability_floor: 0.01,
            seed: 1,
        }
    }
}

/// Outcome of a regret-game run.
#[derive(Debug, Clone, PartialEq)]
pub struct RegretOutcome {
    /// The largest feasible success set observed in any round.
    pub best_feasible: Vec<LinkId>,
    /// Per-round count of successful links.
    pub success_history: Vec<usize>,
    /// Mean successes over the last quarter of the run (the "converged"
    /// throughput).
    pub converged_throughput: f64,
    /// Final transmit probabilities per link.
    pub final_probabilities: Vec<f64>,
}

/// Plays the regret-minimization capacity game over the given links.
///
/// # Panics
///
/// Panics on degenerate configs (zero rounds, non-positive learning rate,
/// floor outside `(0, 1/2)`).
pub fn regret_capacity_game(aff: &AffectanceMatrix, config: &RegretConfig) -> RegretOutcome {
    assert!(config.rounds > 0, "need at least one round");
    assert!(config.learning_rate > 0.0, "learning rate must be positive");
    assert!(
        config.probability_floor > 0.0 && config.probability_floor < 0.5,
        "probability floor must be in (0, 1/2)"
    );
    let m = aff.len();
    let ids: Vec<LinkId> = (0..m).map(LinkId::new).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Cumulative transmit payoff per link (idle payoff is identically 0).
    let mut score = vec![0.0_f64; m];
    let mut best_feasible: Vec<LinkId> = Vec::new();
    let mut history = Vec::with_capacity(config.rounds);

    let prob = |score: f64, cfg: &RegretConfig| -> f64 {
        // MW over {transmit, idle}: p = e^{ηS} / (e^{ηS} + 1), clipped.
        let x = (cfg.learning_rate * score).clamp(-30.0, 30.0).exp();
        (x / (x + 1.0)).clamp(cfg.probability_floor, 1.0 - cfg.probability_floor)
    };

    for _ in 0..config.rounds {
        // Sample actions.
        let transmitting: Vec<LinkId> = ids
            .iter()
            .copied()
            .filter(|&v| {
                aff.noise_factor(v).is_finite()
                    && rng.gen_range(0.0..1.0) < prob(score[v.index()], config)
            })
            .collect();
        // Counterfactual payoff for every link: would transmitting have
        // succeeded against the *other* transmitters?
        let mut successes: Vec<LinkId> = Vec::new();
        for &v in &ids {
            if !aff.noise_factor(v).is_finite() {
                continue;
            }
            let others: Vec<LinkId> = transmitting.iter().copied().filter(|&w| w != v).collect();
            let ok = aff.in_affectance_raw(&others, v) <= 1.0 + 1e-12;
            let payoff = if ok { 1.0 } else { -config.failure_penalty };
            score[v.index()] += payoff;
            if ok && transmitting.contains(&v) {
                successes.push(v);
            }
        }
        history.push(successes.len());
        if successes.len() > best_feasible.len() {
            best_feasible = successes;
        }
    }
    let tail = config.rounds - config.rounds / 4;
    let converged =
        history[tail..].iter().sum::<usize>() as f64 / (config.rounds - tail).max(1) as f64;
    RegretOutcome {
        best_feasible,
        success_history: history,
        converged_throughput: converged,
        final_probabilities: (0..m).map(|i| prob(score[i], config)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decay_core::{DecaySpace, NodeId};
    use decay_sinr::{Link, LinkSet, PowerAssignment, SinrParams};

    fn parallel(m: usize, gap: f64) -> AffectanceMatrix {
        let mut pos = Vec::new();
        for i in 0..m {
            pos.push(i as f64 * gap);
            pos.push(i as f64 * gap + 1.0);
        }
        let s = DecaySpace::from_fn(pos.len(), |i, j| (pos[i] - pos[j]).abs().powi(2)).unwrap();
        let links: Vec<Link> = (0..m)
            .map(|i| Link::new(NodeId::new(2 * i), NodeId::new(2 * i + 1)))
            .collect();
        let ls = LinkSet::new(&s, links).unwrap();
        let powers = PowerAssignment::unit().powers(&s, &ls).unwrap();
        AffectanceMatrix::build(&s, &ls, &powers, &SinrParams::default()).unwrap()
    }

    #[test]
    fn sparse_instance_converges_to_everyone_on() {
        let aff = parallel(6, 40.0);
        let out = regret_capacity_game(&aff, &RegretConfig::default());
        assert_eq!(out.best_feasible.len(), 6);
        assert!(
            out.converged_throughput > 5.0,
            "throughput = {}",
            out.converged_throughput
        );
        for p in &out.final_probabilities {
            assert!(*p > 0.9, "probability {p} should saturate");
        }
    }

    #[test]
    fn crowded_instance_learns_restraint() {
        // Adjacent links at the SINR boundary: everyone transmitting
        // yields zero throughput, the game must learn to alternate.
        let aff = parallel(8, 1.8);
        let out = regret_capacity_game(&aff, &RegretConfig::default());
        assert!(!out.best_feasible.is_empty());
        assert!(aff.is_feasible(&out.best_feasible));
        assert!(
            out.converged_throughput >= 1.0,
            "throughput = {}",
            out.converged_throughput
        );
    }

    #[test]
    fn best_feasible_is_always_feasible() {
        for gap in [1.5, 2.5, 5.0] {
            let aff = parallel(7, gap);
            let out = regret_capacity_game(
                &aff,
                &RegretConfig {
                    rounds: 600,
                    ..Default::default()
                },
            );
            assert!(aff.is_feasible(&out.best_feasible), "gap {gap}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let aff = parallel(5, 3.0);
        let cfg = RegretConfig {
            rounds: 300,
            ..Default::default()
        };
        let a = regret_capacity_game(&aff, &cfg);
        let b = regret_capacity_game(&aff, &cfg);
        assert_eq!(a.success_history, b.success_history);
        let c = regret_capacity_game(&aff, &RegretConfig { seed: 99, ..cfg });
        assert_ne!(a.success_history, c.success_history);
    }

    #[test]
    fn history_length_matches_rounds() {
        let aff = parallel(4, 10.0);
        let out = regret_capacity_game(
            &aff,
            &RegretConfig {
                rounds: 123,
                ..Default::default()
            },
        );
        assert_eq!(out.success_history.len(), 123);
    }
}
