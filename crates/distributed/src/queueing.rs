//! Dynamic packet scheduling / stability (the paper's transfer list cites
//! Kesselheim [44] and Ásgeirsson–Halldórsson–Mitra [2, 3]).
//!
//! Packets arrive at links by a Bernoulli process; each slot a scheduler
//! picks a feasible set of backlogged links to transmit. A scheduler is
//! *stable* at arrival rate `λ` when queues do not grow without bound.
//! This module provides the slotted queueing loop plus two schedulers:
//! the centralized max-backlog-greedy and the distributed probabilistic
//! one, letting experiments trace the stability region on any decay
//! space.

use decay_sinr::{AffectanceMatrix, LinkId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scheduler choices for the queueing simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Centralized: scan backlogged links by decreasing queue length,
    /// admit while the scheduled set stays feasible (longest-queue-first
    /// greedy; feasibility is hereditary so the incremental check is
    /// sound).
    LongestQueueGreedy,
    /// Distributed: every backlogged link transmits independently with a
    /// fixed probability; successes drain (ALOHA-style baseline).
    Probabilistic {
        /// Per-slot transmit probability (scaled to 0–1000 to stay `Eq`;
        /// 500 means 0.5).
        per_mille: u16,
    },
}

/// Parameters of a queueing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueingConfig {
    /// Per-link per-slot packet arrival probability `λ`.
    pub arrival_rate: f64,
    /// Number of slots to simulate.
    pub slots: usize,
    /// Scheduler to drive transmissions.
    pub scheduler: Scheduler,
    /// RNG seed.
    pub seed: u64,
}

/// Outcome of a queueing run.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueingReport {
    /// Final queue length per link.
    pub final_queues: Vec<usize>,
    /// Mean total backlog over the last quarter of the run.
    pub mean_backlog: f64,
    /// Total packets delivered.
    pub delivered: usize,
    /// Total packets that arrived.
    pub arrived: usize,
    /// Mean backlog over the *first* quarter (for drift comparison).
    pub early_backlog: f64,
}

impl QueueingReport {
    /// A pragmatic stability verdict: the late-run backlog has not grown
    /// to more than double the early-run backlog plus slack.
    pub fn looks_stable(&self) -> bool {
        self.mean_backlog <= 2.0 * self.early_backlog + 4.0
    }
}

/// Runs the slotted queueing simulation on the given affectance matrix.
///
/// Transmission success is evaluated exactly: the scheduled set drains
/// those members whose in-affectance from the other scheduled links is at
/// most 1 (i.e. `SINR ≥ β`).
///
/// # Panics
///
/// Panics on degenerate configs (`λ` outside `[0, 1]`, zero slots).
pub fn run_queueing(aff: &AffectanceMatrix, config: &QueueingConfig) -> QueueingReport {
    assert!(
        (0.0..=1.0).contains(&config.arrival_rate),
        "arrival rate must be a probability"
    );
    assert!(config.slots > 0, "need at least one slot");
    let m = aff.len();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut queues = vec![0usize; m];
    let mut arrived = 0usize;
    let mut delivered = 0usize;
    let quarter = (config.slots / 4).max(1);
    let mut early_sum = 0usize;
    let mut late_sum = 0usize;
    for slot in 0..config.slots {
        // Arrivals.
        for q in queues.iter_mut() {
            if rng.gen_range(0.0..1.0) < config.arrival_rate {
                *q += 1;
                arrived += 1;
            }
        }
        // Schedule.
        let backlogged: Vec<LinkId> = (0..m)
            .filter(|&i| queues[i] > 0 && aff.noise_factor(LinkId::new(i)).is_finite())
            .map(LinkId::new)
            .collect();
        let scheduled: Vec<LinkId> = match config.scheduler {
            Scheduler::LongestQueueGreedy => {
                let mut order = backlogged.clone();
                order.sort_by(|a, b| {
                    queues[b.index()]
                        .cmp(&queues[a.index()])
                        .then(a.index().cmp(&b.index()))
                });
                // Admit while the set stays feasible (feasibility is
                // hereditary, so the incremental check is sound). Using a
                // fixed affectance slack here instead would refuse to
                // saturate instances whose full link set is feasible.
                let mut chosen: Vec<LinkId> = Vec::new();
                for v in order {
                    chosen.push(v);
                    if !aff.is_feasible(&chosen) {
                        chosen.pop();
                    }
                }
                chosen
            }
            Scheduler::Probabilistic { per_mille } => backlogged
                .iter()
                .copied()
                .filter(|_| rng.gen_range(0u16..1000) < per_mille)
                .collect(),
        };
        // Resolve successes exactly.
        for &v in &scheduled {
            let others: Vec<LinkId> = scheduled.iter().copied().filter(|&w| w != v).collect();
            if aff.in_affectance_raw(&others, v) <= 1.0 + 1e-12 {
                queues[v.index()] -= 1;
                delivered += 1;
            }
        }
        let backlog: usize = queues.iter().sum();
        if slot < quarter {
            early_sum += backlog;
        } else if slot >= config.slots - quarter {
            late_sum += backlog;
        }
    }
    QueueingReport {
        final_queues: queues,
        mean_backlog: late_sum as f64 / quarter as f64,
        delivered,
        arrived,
        early_backlog: early_sum as f64 / quarter as f64,
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
    fn light_load_is_stable_under_greedy() {
        let aff = parallel(8, 6.0);
        let report = run_queueing(
            &aff,
            &QueueingConfig {
                arrival_rate: 0.2,
                slots: 4000,
                scheduler: Scheduler::LongestQueueGreedy,
                seed: 3,
            },
        );
        assert!(report.looks_stable(), "backlog {}", report.mean_backlog);
        // Little's-law sanity: deliveries track arrivals.
        assert!(report.delivered as f64 >= 0.9 * report.arrived as f64);
    }

    #[test]
    fn overload_is_unstable() {
        // Crowded links: capacity per slot is well below 8 while arrivals
        // average 0.9 * 8 = 7.2 packets per slot.
        let aff = parallel(8, 1.5);
        let report = run_queueing(
            &aff,
            &QueueingConfig {
                arrival_rate: 0.9,
                slots: 2000,
                scheduler: Scheduler::LongestQueueGreedy,
                seed: 3,
            },
        );
        assert!(!report.looks_stable(), "backlog {}", report.mean_backlog);
        assert!(report.mean_backlog > 100.0);
    }

    #[test]
    fn greedy_beats_probabilistic_at_moderate_load() {
        let aff = parallel(8, 3.0);
        let cfg = |scheduler| QueueingConfig {
            arrival_rate: 0.4,
            slots: 3000,
            scheduler,
            seed: 7,
        };
        let greedy = run_queueing(&aff, &cfg(Scheduler::LongestQueueGreedy));
        let aloha = run_queueing(&aff, &cfg(Scheduler::Probabilistic { per_mille: 400 }));
        assert!(greedy.mean_backlog <= aloha.mean_backlog + 1.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let aff = parallel(5, 4.0);
        let cfg = QueueingConfig {
            arrival_rate: 0.3,
            slots: 500,
            scheduler: Scheduler::LongestQueueGreedy,
            seed: 11,
        };
        assert_eq!(run_queueing(&aff, &cfg), run_queueing(&aff, &cfg));
    }

    #[test]
    fn conservation_of_packets() {
        let aff = parallel(6, 5.0);
        let report = run_queueing(
            &aff,
            &QueueingConfig {
                arrival_rate: 0.5,
                slots: 1000,
                scheduler: Scheduler::Probabilistic { per_mille: 300 },
                seed: 9,
            },
        );
        let remaining: usize = report.final_queues.iter().sum();
        assert_eq!(report.arrived, report.delivered + remaining);
    }
}
