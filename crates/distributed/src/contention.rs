//! Distributed contention resolution ([45], refined in [28] — both on the
//! paper's transfer list).
//!
//! Every link must deliver one packet; senders know nothing about each
//! other and react only to their own successes and failures. Each slot an
//! undelivered link transmits with its current probability; it succeeds
//! when its in-affectance from the other transmitters is at most 1
//! (`SINR ≥ β`), upon which it leaves the game. Proposition 1 transfers
//! the GEO-SINR guarantees verbatim: the completion time scales with the
//! schedule length `T` of the instance and the decay-space parameters
//! rather than with geometric constants; experiment E26 measures the
//! ratio to the centralized schedule length.
//!
//! Two sender strategies are provided: a fixed transmission probability
//! (the analysis-friendly baseline) and multiplicative backoff (halve on
//! failure, recover slowly), the practical variant.

use decay_sinr::{AffectanceMatrix, LinkId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How an undelivered sender chooses its transmission probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContentionStrategy {
    /// Transmit with a fixed probability every slot.
    Fixed {
        /// The transmission probability.
        p: f64,
    },
    /// Start at `start`; multiply by `down` (< 1) after a failed
    /// transmission and by `up` (> 1) after every slot without a failure,
    /// clamped to `[floor, start]`.
    Backoff {
        /// Initial (and maximum) probability.
        start: f64,
        /// Multiplier after a failure (in `(0, 1)`).
        down: f64,
        /// Recovery multiplier (≥ 1).
        up: f64,
        /// Minimum probability (> 0).
        floor: f64,
    },
}

impl ContentionStrategy {
    fn validate(&self) {
        match *self {
            ContentionStrategy::Fixed { p } => {
                assert!(p > 0.0 && p <= 1.0, "fixed probability must be in (0, 1]");
            }
            ContentionStrategy::Backoff {
                start,
                down,
                up,
                floor,
            } => {
                assert!(start > 0.0 && start <= 1.0, "start must be in (0, 1]");
                assert!(down > 0.0 && down < 1.0, "down must be in (0, 1)");
                assert!(up >= 1.0, "up must be at least 1");
                assert!(floor > 0.0 && floor <= start, "floor must be in (0, start]");
            }
        }
    }
}

/// Parameters of a contention-resolution run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionConfig {
    /// Sender strategy.
    pub strategy: ContentionStrategy,
    /// Give up after this many slots.
    pub max_slots: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig {
            strategy: ContentionStrategy::Fixed { p: 0.1 },
            max_slots: 20_000,
            seed: 1,
        }
    }
}

/// Outcome of a contention-resolution run.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionReport {
    /// Slot in which each link delivered (`None` = never, within the cap;
    /// links that cannot clear the noise floor alone can never deliver).
    pub delivered_slot: Vec<Option<usize>>,
    /// Slots simulated (`max_slots` unless everyone finished earlier).
    pub slots_used: usize,
    /// Whether every viable link delivered.
    pub all_delivered: bool,
    /// Total transmission attempts across all links.
    pub transmissions: usize,
}

impl ContentionReport {
    /// Number of links that delivered.
    pub fn delivered(&self) -> usize {
        self.delivered_slot.iter().filter(|s| s.is_some()).count()
    }

    /// The last delivery slot (the makespan), if anything delivered.
    pub fn makespan(&self) -> Option<usize> {
        self.delivered_slot.iter().flatten().copied().max()
    }
}

/// Runs contention resolution until every viable link has delivered once
/// or `max_slots` elapse.
///
/// # Panics
///
/// Panics on degenerate configs (see [`ContentionStrategy`]) or zero
/// `max_slots`.
pub fn run_contention(aff: &AffectanceMatrix, config: &ContentionConfig) -> ContentionReport {
    config.strategy.validate();
    assert!(config.max_slots > 0, "need at least one slot");
    let m = aff.len();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let viable: Vec<bool> = (0..m)
        .map(|i| aff.noise_factor(LinkId::new(i)).is_finite())
        .collect();
    let (start_p, down, up, floor) = match config.strategy {
        ContentionStrategy::Fixed { p } => (p, 1.0, 1.0, p),
        ContentionStrategy::Backoff {
            start,
            down,
            up,
            floor,
        } => (start, down, up, floor),
    };
    let mut prob = vec![start_p; m];
    let mut delivered_slot: Vec<Option<usize>> = vec![None; m];
    let mut transmissions = 0usize;
    let mut slots_used = 0usize;
    for slot in 0..config.max_slots {
        slots_used = slot + 1;
        let active: Vec<usize> = (0..m)
            .filter(|&i| viable[i] && delivered_slot[i].is_none())
            .collect();
        if active.is_empty() {
            slots_used = slot;
            break;
        }
        let transmitting: Vec<LinkId> = active
            .iter()
            .copied()
            .filter(|&i| rng.gen_range(0.0..1.0) < prob[i])
            .map(LinkId::new)
            .collect();
        transmissions += transmitting.len();
        for &v in &transmitting {
            let others: Vec<LinkId> = transmitting.iter().copied().filter(|&w| w != v).collect();
            let ok = aff.in_affectance_raw(&others, v) <= 1.0 + 1e-12;
            let i = v.index();
            if ok {
                delivered_slot[i] = Some(slot);
            } else {
                prob[i] = (prob[i] * down).max(floor);
            }
        }
        // Slow recovery for everyone who did not just fail.
        for &i in &active {
            if !transmitting.contains(&LinkId::new(i)) || delivered_slot[i].is_some() {
                prob[i] = (prob[i] * up).min(start_p);
            }
        }
    }
    let all_delivered = (0..m).all(|i| !viable[i] || delivered_slot[i].is_some());
    ContentionReport {
        delivered_slot,
        slots_used,
        all_delivered,
        transmissions,
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
    fn sparse_instance_finishes_fast() {
        let aff = parallel(8, 50.0);
        let report = run_contention(&aff, &ContentionConfig::default());
        assert!(report.all_delivered);
        assert_eq!(report.delivered(), 8);
        // With p = 0.1 and no interference, expect ~10 slots per link.
        assert!(report.slots_used < 500, "slots {}", report.slots_used);
    }

    #[test]
    fn dense_instance_still_completes() {
        let aff = parallel(10, 1.5);
        let report = run_contention(&aff, &ContentionConfig::default());
        assert!(report.all_delivered, "delivered {}", report.delivered());
    }

    #[test]
    fn backoff_completes_and_adapts() {
        let aff = parallel(10, 1.5);
        let report = run_contention(
            &aff,
            &ContentionConfig {
                strategy: ContentionStrategy::Backoff {
                    start: 0.5,
                    down: 0.5,
                    up: 1.05,
                    floor: 0.01,
                },
                ..Default::default()
            },
        );
        assert!(report.all_delivered);
        assert!(report.makespan().is_some());
    }

    #[test]
    fn noise_floor_losers_never_deliver() {
        let mut pos = Vec::new();
        for i in 0..3 {
            pos.push(i as f64 * 30.0);
            pos.push(i as f64 * 30.0 + 3.0);
        }
        let s = DecaySpace::from_fn(6, |i, j| (pos[i] - pos[j]).abs().powi(2)).unwrap();
        let ls = LinkSet::new(
            &s,
            (0..3)
                .map(|i| Link::new(NodeId::new(2 * i), NodeId::new(2 * i + 1)))
                .collect(),
        )
        .unwrap();
        let powers = PowerAssignment::unit().powers(&s, &ls).unwrap();
        // Signal 1/9, noise 1: hopeless.
        let aff =
            AffectanceMatrix::build(&s, &ls, &powers, &SinrParams::new(1.0, 1.0).unwrap()).unwrap();
        let report = run_contention(
            &aff,
            &ContentionConfig {
                max_slots: 200,
                ..Default::default()
            },
        );
        assert_eq!(report.delivered(), 0);
        // Hopeless links do not prevent the "all viable delivered" verdict.
        assert!(report.all_delivered);
        assert_eq!(report.transmissions, 0);
    }

    #[test]
    fn deterministic_in_seed() {
        let aff = parallel(6, 2.0);
        let a = run_contention(&aff, &ContentionConfig::default());
        let b = run_contention(&aff, &ContentionConfig::default());
        assert_eq!(a, b);
        let c = run_contention(
            &aff,
            &ContentionConfig {
                seed: 7,
                ..Default::default()
            },
        );
        assert_ne!(a.delivered_slot, c.delivered_slot);
    }

    #[test]
    fn higher_probability_finishes_sparse_instances_sooner() {
        let aff = parallel(6, 80.0);
        let slow = run_contention(
            &aff,
            &ContentionConfig {
                strategy: ContentionStrategy::Fixed { p: 0.02 },
                ..Default::default()
            },
        );
        let fast = run_contention(
            &aff,
            &ContentionConfig {
                strategy: ContentionStrategy::Fixed { p: 0.9 },
                ..Default::default()
            },
        );
        assert!(fast.slots_used <= slow.slots_used);
    }

    #[test]
    #[should_panic(expected = "fixed probability")]
    fn invalid_probability_is_rejected() {
        let aff = parallel(2, 10.0);
        run_contention(
            &aff,
            &ContentionConfig {
                strategy: ContentionStrategy::Fixed { p: 0.0 },
                ..Default::default()
            },
        );
    }
}
