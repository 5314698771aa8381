//! Multiple-message broadcast ([65, 66]) and global single-message
//! broadcast ([13]) — annulus-argument protocols from the paper's
//! Section 3.3 list.
//!
//! `k` messages start at `k` source nodes; every node must eventually
//! know all of them, with dissemination hopping through the decay space
//! (multi-hop: distant nodes can only be reached through relays). The
//! protocol is the standard randomized gossip in the physical model: each
//! slot, a node knowing at least one message transmits a uniformly random
//! known message with probability `p_send`, otherwise listens. With `k =
//! 1` and a single source this is the broadcast of [13].
//!
//! The round complexity of these protocols is governed by the fading
//! parameter `γ` of the space (Theorem 2): the analyses only need the
//! expected-interference bound of the annulus argument. Experiment E28
//! measures completion slots against `n`, `k`, and the space.

use decay_core::{DecaySpace, NodeId};
use decay_engine::{Engine, EngineConfig, SlotAdapter, Tick};
use decay_netsim::{Action, FaultPlan, NodeBehavior, SlotContext};
use decay_sinr::SinrParams;
use rand::Rng;

/// Maximum number of distinct messages (knowledge is a `u64` bitmask).
pub const MAX_MESSAGES: usize = 64;

/// Parameters of a multi-message broadcast run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiBroadcastConfig {
    /// Per-slot transmission probability for informed nodes.
    pub p_send: f64,
    /// Uniform transmission power.
    pub power: f64,
    /// Give up after this many slots.
    pub max_slots: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MultiBroadcastConfig {
    fn default() -> Self {
        MultiBroadcastConfig {
            p_send: 0.15,
            power: 1.0,
            max_slots: 100_000,
            seed: 1,
        }
    }
}

/// Outcome of a multi-message broadcast run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiBroadcastReport {
    /// Whether every node learned every message within the cap.
    pub completed: bool,
    /// Slots used.
    pub slots: usize,
    /// Messages known per node at the end.
    pub known_counts: Vec<usize>,
    /// Number of messages in play.
    pub messages: usize,
}

impl MultiBroadcastReport {
    /// Fraction of (node, message) pairs delivered.
    pub fn coverage(&self) -> f64 {
        if self.messages == 0 || self.known_counts.is_empty() {
            return 1.0;
        }
        let total: usize = self.known_counts.iter().sum();
        total as f64 / (self.messages * self.known_counts.len()) as f64
    }
}

struct Gossip {
    known: u64,
    p_send: f64,
    power: f64,
}

impl Gossip {
    fn known_count(&self) -> usize {
        self.known.count_ones() as usize
    }
}

impl NodeBehavior for Gossip {
    fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action {
        if self.known == 0 || ctx.rng.gen_range(0.0..1.0) >= self.p_send {
            return Action::Listen;
        }
        // Pick a uniformly random known message.
        let count = self.known.count_ones();
        let pick = ctx.rng.gen_range(0..count);
        let mut seen = 0;
        for bit in 0..64 {
            if self.known & (1 << bit) != 0 {
                if seen == pick {
                    return Action::Transmit {
                        power: self.power,
                        message: bit,
                    };
                }
                seen += 1;
            }
        }
        unreachable!("count_ones and the scan agree");
    }

    fn on_receive(&mut self, _from: NodeId, message: u64, _power: f64) {
        self.known |= 1 << message;
    }
}

/// Runs multi-message gossip: message `i` starts at `sources[i]`.
///
/// # Panics
///
/// Panics if `sources` is empty or longer than [`MAX_MESSAGES`], if a
/// source is out of range, or on degenerate configs.
pub fn run_multi_broadcast(
    space: &DecaySpace,
    params: &SinrParams,
    sources: &[NodeId],
    config: &MultiBroadcastConfig,
) -> MultiBroadcastReport {
    run_multi_broadcast_with_faults(space, params, sources, config, &FaultPlan::none())
}

/// [`run_multi_broadcast`] under a crash-fault plan: down nodes neither
/// gossip nor learn. Completion requires every node still alive at the
/// slot cap (i.e. not scheduled down at `max_slots`) to know every
/// message; a permanently crashed *source* that never spoke makes
/// completion impossible, which the report shows as `completed = false`.
///
/// # Panics
///
/// Same conditions as [`run_multi_broadcast`].
pub fn run_multi_broadcast_with_faults(
    space: &DecaySpace,
    params: &SinrParams,
    sources: &[NodeId],
    config: &MultiBroadcastConfig,
    faults: &FaultPlan,
) -> MultiBroadcastReport {
    assert!(
        !sources.is_empty() && sources.len() <= MAX_MESSAGES,
        "need between 1 and {MAX_MESSAGES} sources"
    );
    for s in sources {
        assert!(s.index() < space.len(), "source {s} out of range");
    }
    assert!(
        config.p_send > 0.0 && config.p_send <= 1.0,
        "p_send must be in (0, 1]"
    );
    assert!(config.power > 0.0, "power must be positive");
    assert!(config.max_slots > 0, "need at least one slot");
    let n = space.len();
    let k = sources.len();
    let full: u64 = if k == 64 { u64::MAX } else { (1 << k) - 1 };
    let behaviors: Vec<Gossip> = (0..n)
        .map(|i| {
            let mut known = 0u64;
            for (msg, s) in sources.iter().enumerate() {
                if s.index() == i {
                    known |= 1 << msg;
                }
            }
            Gossip {
                known,
                p_send: config.p_send,
                power: config.power,
            }
        })
        .collect();
    let engine_config = EngineConfig {
        faults: faults.clone(),
        ..EngineConfig::default()
    };
    let mut engine = SlotAdapter::engine(
        space.clone(),
        behaviors,
        *params,
        engine_config,
        config.seed,
    )
    .expect("behavior count matches node count");
    let alive: Vec<bool> = (0..n)
        .map(|i| !faults.is_down(NodeId::new(i), config.max_slots))
        .collect();
    fn gossip(engine: &Engine<SlotAdapter<Gossip>>, i: usize) -> &Gossip {
        engine.behavior(NodeId::new(i)).inner()
    }
    let (mut slots, mut completed) = (config.max_slots, false);
    for slot in 0..config.max_slots {
        engine.run_until(slot as Tick);
        if (0..n).all(|i| !alive[i] || gossip(&engine, i).known == full) {
            (slots, completed) = (slot + 1, true);
            break;
        }
    }
    MultiBroadcastReport {
        completed,
        slots,
        known_counts: (0..n).map(|i| gossip(&engine, i).known_count()).collect(),
        messages: k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> DecaySpace {
        DecaySpace::from_fn(n, |i, j| ((i as f64) - (j as f64)).abs().powi(2)).unwrap()
    }

    #[test]
    fn single_message_broadcast_completes() {
        let s = line(10);
        let report = run_multi_broadcast(
            &s,
            &SinrParams::default(),
            &[NodeId::new(0)],
            &MultiBroadcastConfig::default(),
        );
        assert!(report.completed, "stuck at coverage {}", report.coverage());
        assert!(report.known_counts.iter().all(|&c| c == 1));
        assert!((report.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multi_message_from_opposite_ends_completes() {
        let s = line(8);
        let report = run_multi_broadcast(
            &s,
            &SinrParams::default(),
            &[NodeId::new(0), NodeId::new(7), NodeId::new(3)],
            &MultiBroadcastConfig::default(),
        );
        assert!(report.completed);
        assert_eq!(report.messages, 3);
        assert!(report.known_counts.iter().all(|&c| c == 3));
    }

    #[test]
    fn noise_limits_range_and_gossip_relays_through() {
        // With noise 0.01, a single transmitter reaches decay < 100, i.e.
        // distance < 10 on the line: node 0 cannot reach node 12 directly,
        // only via relays.
        let s = line(13);
        let params = SinrParams::new(1.0, 0.01).unwrap();
        let report = run_multi_broadcast(
            &s,
            &params,
            &[NodeId::new(0)],
            &MultiBroadcastConfig::default(),
        );
        assert!(report.completed, "multihop relay failed");
    }

    #[test]
    fn coverage_is_partial_when_capped_early() {
        let s = line(20);
        let params = SinrParams::new(1.0, 0.01).unwrap();
        let report = run_multi_broadcast(
            &s,
            &params,
            &[NodeId::new(0)],
            &MultiBroadcastConfig {
                max_slots: 2,
                ..Default::default()
            },
        );
        assert!(!report.completed);
        assert!(report.coverage() < 1.0);
        assert!(report.coverage() > 0.0, "sources always know their message");
    }

    #[test]
    fn deterministic_in_seed() {
        let s = line(7);
        let cfg = MultiBroadcastConfig::default();
        let a = run_multi_broadcast(&s, &SinrParams::default(), &[NodeId::new(2)], &cfg);
        let b = run_multi_broadcast(&s, &SinrParams::default(), &[NodeId::new(2)], &cfg);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_is_rejected() {
        let s = line(3);
        run_multi_broadcast(
            &s,
            &SinrParams::default(),
            &[NodeId::new(9)],
            &MultiBroadcastConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "need between 1 and")]
    fn empty_sources_are_rejected() {
        let s = line(3);
        run_multi_broadcast(
            &s,
            &SinrParams::default(),
            &[],
            &MultiBroadcastConfig::default(),
        );
    }
}
