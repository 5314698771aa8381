//! Adversarially perturbed regret learning: jamming ([11]) and changing
//! spectrum availability / sleeping experts ([12]).
//!
//! The paper's transfer list extends the regret-based distributed capacity
//! family to jammed channels and to links whose spectrum comes and goes.
//! Both perturbations plug into the same multiplicative-weights game as
//! [`crate::regret_capacity_game`]:
//!
//! * **Jamming** — in a jammed round, a chosen subset of links cannot
//!   succeed no matter what (the jammer owns their channel). A jammed
//!   link *detects* the jamming (the jammer's signal is physically
//!   observable as an interference level no set of legitimate senders
//!   could produce) and discards the round from its learning — the
//!   robustness mechanism that lets the guarantee of [11] track the
//!   optimum of the *clean* rounds instead of collapsing. A naive learner
//!   that charges itself for jammed rounds drives its transmit probability
//!   to the floor once the jamming rate exceeds `1/(1+λ)`.
//! * **Availability** — a link may only play in rounds where its spectrum
//!   is available (the *sleeping experts* setting of [12]); asleep links
//!   neither transmit nor update, and their regret is measured only over
//!   awake rounds.
//!
//! Experiment E29 measures both: throughput degradation as the jamming
//! rate grows, and per-link conditional success under random availability.

use decay_sinr::{AffectanceMatrix, LinkId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the jammer behaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JammingModel {
    /// No jamming.
    None,
    /// Each round is jammed independently with probability `round_prob`;
    /// in a jammed round each link is targeted with probability
    /// `link_prob`.
    Random {
        /// Probability that a round is jammed.
        round_prob: f64,
        /// Probability that a given link is targeted in a jammed round.
        link_prob: f64,
    },
    /// Every `period`-th round jams all links (a periodic burst jammer).
    Periodic {
        /// Burst period in rounds (≥ 1; 1 jams every round).
        period: usize,
    },
}

/// How spectrum availability behaves (the sleeping-experts dimension).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AvailabilityModel {
    /// Every link is available every round.
    Always,
    /// Each link is independently available with probability `prob` each
    /// round.
    Random {
        /// Per-round availability probability.
        prob: f64,
    },
    /// Links take turns: link `i` is available in round `t` iff
    /// `t % groups == i % groups` (disjoint spectrum slices).
    RoundRobin {
        /// Number of spectrum slices.
        groups: usize,
    },
}

/// Parameters of the adversarial regret game.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversarialConfig {
    /// Number of rounds.
    pub rounds: usize,
    /// Multiplicative-weights learning rate.
    pub learning_rate: f64,
    /// Penalty for a failed transmission.
    pub failure_penalty: f64,
    /// Transmit-probability clipping floor.
    pub probability_floor: f64,
    /// Jammer model.
    pub jamming: JammingModel,
    /// Availability model.
    pub availability: AvailabilityModel,
    /// RNG seed (drives actions, the jammer, and availability).
    pub seed: u64,
}

impl Default for AdversarialConfig {
    fn default() -> Self {
        AdversarialConfig {
            rounds: 3000,
            learning_rate: 0.1,
            failure_penalty: 1.5,
            probability_floor: 0.01,
            jamming: JammingModel::None,
            availability: AvailabilityModel::Always,
            seed: 1,
        }
    }
}

/// Outcome of an adversarial regret run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarialOutcome {
    /// Per-round success counts.
    pub success_history: Vec<usize>,
    /// Rounds in which the jammer acted.
    pub jammed_rounds: usize,
    /// Mean successes over the last quarter of *clean* (unjammed) rounds.
    pub clean_throughput: f64,
    /// Largest feasible success set observed in any round.
    pub best_feasible: Vec<LinkId>,
    /// Per-link fraction of rounds the link was available.
    pub availability_rate: Vec<f64>,
    /// Per-link success rate over its available rounds (0 when never
    /// available).
    pub conditional_success: Vec<f64>,
}

/// Plays the regret game under jamming and availability adversaries.
///
/// # Panics
///
/// Panics on degenerate configs (zero rounds, bad probabilities, zero
/// period/groups).
pub fn adversarial_regret_game(
    aff: &AffectanceMatrix,
    config: &AdversarialConfig,
) -> AdversarialOutcome {
    assert!(config.rounds > 0, "need at least one round");
    assert!(config.learning_rate > 0.0, "learning rate must be positive");
    assert!(
        config.probability_floor > 0.0 && config.probability_floor < 0.5,
        "probability floor must be in (0, 1/2)"
    );
    match config.jamming {
        JammingModel::Random {
            round_prob,
            link_prob,
        } => {
            assert!(
                (0.0..=1.0).contains(&round_prob) && (0.0..=1.0).contains(&link_prob),
                "jamming probabilities must be in [0, 1]"
            );
        }
        JammingModel::Periodic { period } => assert!(period > 0, "period must be positive"),
        JammingModel::None => {}
    }
    match config.availability {
        AvailabilityModel::Random { prob } => {
            assert!(
                prob > 0.0 && prob <= 1.0,
                "availability probability must be in (0, 1]"
            );
        }
        AvailabilityModel::RoundRobin { groups } => {
            assert!(groups > 0, "need at least one spectrum slice");
        }
        AvailabilityModel::Always => {}
    }

    let m = aff.len();
    let ids: Vec<LinkId> = (0..m).map(LinkId::new).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut score = vec![0.0_f64; m];
    let mut history = Vec::with_capacity(config.rounds);
    let mut best_feasible: Vec<LinkId> = Vec::new();
    let mut jammed_rounds = 0usize;
    let mut available_rounds = vec![0usize; m];
    let mut available_successes = vec![0usize; m];
    let mut clean_tail_sum = 0usize;
    let mut clean_tail_rounds = 0usize;
    let tail_start = config.rounds - config.rounds / 4;

    let prob = |score: f64| -> f64 {
        let x = (config.learning_rate * score).clamp(-30.0, 30.0).exp();
        (x / (x + 1.0)).clamp(config.probability_floor, 1.0 - config.probability_floor)
    };

    for round in 0..config.rounds {
        // Availability mask.
        let available: Vec<bool> = (0..m)
            .map(|i| match config.availability {
                AvailabilityModel::Always => true,
                AvailabilityModel::Random { prob } => rng.gen_range(0.0..1.0) < prob,
                AvailabilityModel::RoundRobin { groups } => round % groups == i % groups,
            })
            .collect();
        // Jamming mask.
        let jam_round = match config.jamming {
            JammingModel::None => false,
            JammingModel::Random { round_prob, .. } => rng.gen_range(0.0..1.0) < round_prob,
            JammingModel::Periodic { period } => round % period == 0,
        };
        let jammed: Vec<bool> = (0..m)
            .map(|i| {
                jam_round
                    && match config.jamming {
                        JammingModel::None => false,
                        JammingModel::Random { link_prob, .. } => {
                            rng.gen_range(0.0..1.0) < link_prob
                        }
                        JammingModel::Periodic { .. } => true,
                    }
                    && available[i]
            })
            .collect();
        if jammed.iter().any(|&j| j) {
            jammed_rounds += 1;
        }

        let transmitting: Vec<LinkId> = ids
            .iter()
            .copied()
            .filter(|&v| {
                let i = v.index();
                available[i]
                    && aff.noise_factor(v).is_finite()
                    && rng.gen_range(0.0..1.0) < prob(score[i])
            })
            .collect();
        let mut successes: Vec<LinkId> = Vec::new();
        for &v in &ids {
            let i = v.index();
            if !available[i] || !aff.noise_factor(v).is_finite() {
                continue; // asleep experts are not charged
            }
            available_rounds[i] += 1;
            let others: Vec<LinkId> = transmitting.iter().copied().filter(|&w| w != v).collect();
            let ok = !jammed[i] && aff.in_affectance_raw(&others, v) <= 1.0 + 1e-12;
            // Jammed rounds are detected and discarded from learning;
            // only genuine congestion updates the score.
            if !jammed[i] {
                score[i] += if ok { 1.0 } else { -config.failure_penalty };
            }
            if ok && transmitting.contains(&v) {
                successes.push(v);
                available_successes[i] += 1;
            }
        }
        history.push(successes.len());
        if successes.len() > best_feasible.len() {
            best_feasible = successes;
        }
        if round >= tail_start && !jam_round {
            clean_tail_sum += history[round];
            clean_tail_rounds += 1;
        }
    }

    AdversarialOutcome {
        success_history: history,
        jammed_rounds,
        clean_throughput: clean_tail_sum as f64 / clean_tail_rounds.max(1) as f64,
        best_feasible,
        availability_rate: (0..m)
            .map(|i| available_rounds[i] as f64 / config.rounds as f64)
            .collect(),
        conditional_success: (0..m)
            .map(|i| {
                if available_rounds[i] == 0 {
                    0.0
                } else {
                    available_successes[i] as f64 / available_rounds[i] as f64
                }
            })
            .collect(),
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
        let ls = LinkSet::new(
            &s,
            (0..m)
                .map(|i| Link::new(NodeId::new(2 * i), NodeId::new(2 * i + 1)))
                .collect(),
        )
        .unwrap();
        let powers = PowerAssignment::unit().powers(&s, &ls).unwrap();
        AffectanceMatrix::build(&s, &ls, &powers, &SinrParams::default()).unwrap()
    }

    #[test]
    fn no_adversary_matches_plain_regret_quality() {
        let aff = parallel(6, 40.0);
        let out = adversarial_regret_game(&aff, &AdversarialConfig::default());
        assert_eq!(out.jammed_rounds, 0);
        assert!(out.clean_throughput > 5.0, "{}", out.clean_throughput);
        assert_eq!(out.best_feasible.len(), 6);
        assert!(out.availability_rate.iter().all(|&a| a == 1.0));
    }

    #[test]
    fn periodic_jammer_is_survivable() {
        let aff = parallel(6, 40.0);
        let out = adversarial_regret_game(
            &aff,
            &AdversarialConfig {
                jamming: JammingModel::Periodic { period: 4 },
                ..Default::default()
            },
        );
        assert!(out.jammed_rounds >= 3000 / 4);
        // Clean rounds still converge to everyone transmitting.
        assert!(
            out.clean_throughput > 4.0,
            "clean throughput {}",
            out.clean_throughput
        );
    }

    #[test]
    fn heavier_jamming_hurts_total_but_not_clean_rounds() {
        let aff = parallel(5, 40.0);
        let mk = |round_prob| {
            adversarial_regret_game(
                &aff,
                &AdversarialConfig {
                    jamming: JammingModel::Random {
                        round_prob,
                        link_prob: 1.0,
                    },
                    ..Default::default()
                },
            )
        };
        let light = mk(0.1);
        let heavy = mk(0.5);
        let total = |o: &AdversarialOutcome| o.success_history.iter().sum::<usize>();
        assert!(total(&heavy) < total(&light));
        assert!(heavy.clean_throughput > 3.0, "{}", heavy.clean_throughput);
    }

    #[test]
    fn round_robin_availability_caps_rates() {
        let aff = parallel(6, 40.0);
        let out = adversarial_regret_game(
            &aff,
            &AdversarialConfig {
                availability: AvailabilityModel::RoundRobin { groups: 3 },
                rounds: 3000,
                ..Default::default()
            },
        );
        for (i, &rate) in out.availability_rate.iter().enumerate() {
            assert!((rate - 1.0 / 3.0).abs() < 0.01, "link {i} rate {rate}");
        }
        // Sparse instance: awake links should succeed almost always.
        for (i, &cs) in out.conditional_success.iter().enumerate() {
            assert!(cs > 0.8, "link {i} conditional success {cs}");
        }
    }

    #[test]
    fn random_availability_sleeping_experts_still_learn() {
        let aff = parallel(6, 30.0);
        let out = adversarial_regret_game(
            &aff,
            &AdversarialConfig {
                availability: AvailabilityModel::Random { prob: 0.5 },
                ..Default::default()
            },
        );
        for (i, &rate) in out.availability_rate.iter().enumerate() {
            assert!((rate - 0.5).abs() < 0.1, "link {i} rate {rate}");
            assert!(
                out.conditional_success[i] > 0.6,
                "link {i} cs {}",
                out.conditional_success[i]
            );
        }
    }

    #[test]
    fn best_feasible_is_feasible_under_adversaries() {
        let aff = parallel(8, 2.0);
        let out = adversarial_regret_game(
            &aff,
            &AdversarialConfig {
                jamming: JammingModel::Random {
                    round_prob: 0.3,
                    link_prob: 0.5,
                },
                availability: AvailabilityModel::Random { prob: 0.8 },
                ..Default::default()
            },
        );
        assert!(aff.is_feasible(&out.best_feasible));
    }

    #[test]
    fn deterministic_in_seed() {
        let aff = parallel(4, 5.0);
        let cfg = AdversarialConfig {
            rounds: 500,
            jamming: JammingModel::Random {
                round_prob: 0.2,
                link_prob: 0.7,
            },
            availability: AvailabilityModel::Random { prob: 0.7 },
            ..Default::default()
        };
        let a = adversarial_regret_game(&aff, &cfg);
        let b = adversarial_regret_game(&aff, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_is_rejected() {
        let aff = parallel(2, 10.0);
        adversarial_regret_game(
            &aff,
            &AdversarialConfig {
                jamming: JammingModel::Periodic { period: 0 },
                ..Default::default()
            },
        );
    }
}
