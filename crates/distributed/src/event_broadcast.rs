//! Event-driven local broadcast: the [`crate::run_local_broadcast`]
//! protocol ported natively to `decay-engine`.
//!
//! The protocol is unchanged — every node owns one message and transmits
//! with per-slot probability `p` until its whole decay-`F` neighborhood
//! has heard it — but the *execution* is event-driven: instead of waking
//! every node every slot to flip a `p`-coin, each node schedules its next
//! transmission tick directly from the geometric distribution
//! `Geom(p)` and sleeps in listening mode in between. A tick costs
//! `O(transmitters · k)` work rather than `O(n)`, which is what makes
//! 100k+-node broadcast runs practical — with churn, jamming, latency
//! and checkpointing available for free from the engine.

use decay_core::NodeId;
use decay_engine::{
    ChurnConfig, Codec, CodecError, DecayBackend, Engine, EngineConfig, EngineError, EngineStats,
    EventBehavior, JamSchedule, LatencyModel, NodeCtx, Tick,
};
use decay_netsim::ReceptionModel;
use decay_sinr::SinrParams;

use crate::adversarial::JammingModel;

/// Maps the adversarial jammer models onto the engine's jam schedule, so
/// jamming experiments port directly from the regret game to the engine.
pub fn jam_schedule_from_model(model: JammingModel) -> JamSchedule {
    match model {
        JammingModel::None => JamSchedule::None,
        JammingModel::Periodic { period } => JamSchedule::Periodic {
            period: period as Tick,
        },
        // The engine jammer blankets whole ticks; per-link targeting
        // collapses onto the round probability.
        JammingModel::Random { round_prob, .. } => JamSchedule::Random { prob: round_prob },
    }
}

/// Parameters of an event-driven local broadcast run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventBroadcastConfig {
    /// Neighborhood radius in decay: node `z` must hear node `u` whenever
    /// `f(u, z) ≤ F`.
    pub neighborhood_decay: f64,
    /// Transmit probability per tick; `None` selects `0.5 / Δ`.
    pub probability: Option<f64>,
    /// Transmission power (uniform).
    pub power: f64,
    /// Tick budget before giving up.
    pub max_ticks: Tick,
    /// How often the driver pauses the engine to measure coverage
    /// (completion is detected at this granularity).
    pub check_interval: Tick,
    /// Reception model.
    pub reception: ReceptionModel,
    /// Decay beyond which signals are ignored (see
    /// [`EngineConfig::reach_decay`]); `None` is exact but `O(n)` per
    /// transmission.
    pub reach_decay: Option<f64>,
    /// Top-k affectance pruning (see [`EngineConfig::top_k`]).
    pub top_k: Option<usize>,
    /// Node churn, if any.
    pub churn: Option<ChurnConfig>,
    /// Jamming, in the adversarial module's vocabulary.
    pub jamming: JammingModel,
    /// Delivery latency model.
    pub latency: LatencyModel,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EventBroadcastConfig {
    fn default() -> Self {
        EventBroadcastConfig {
            neighborhood_decay: 16.0,
            probability: None,
            power: 1.0,
            max_ticks: 50_000,
            check_interval: 64,
            reception: ReceptionModel::Threshold,
            reach_decay: None,
            top_k: None,
            churn: None,
            jamming: JammingModel::None,
            latency: LatencyModel::Immediate,
            seed: 1,
        }
    }
}

/// Outcome of an event-driven local broadcast run.
#[derive(Debug, Clone, PartialEq)]
pub struct EventBroadcastReport {
    /// Tick (at check granularity) by which every required pair was
    /// delivered; `None` when the budget ran out first.
    pub completed_at: Option<Tick>,
    /// Fraction of required (sender, neighbor) pairs delivered.
    pub coverage: f64,
    /// Number of required pairs.
    pub required_pairs: usize,
    /// The transmit probability used.
    pub probability: f64,
    /// The maximum neighborhood size Δ.
    pub max_neighborhood: usize,
    /// Engine counters at the end of the run.
    pub stats: EngineStats,
    /// The engine's rolling delivery-trace hash (equal hashes = equal
    /// delivery traces; the determinism acceptance check).
    pub trace_hash: u64,
}

/// The event-driven broadcaster behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct EventBroadcaster {
    p: f64,
    power: f64,
    /// Messages (sender indices) heard so far, ascending and distinct.
    heard: Vec<u64>,
}

impl EventBroadcaster {
    /// A broadcaster transmitting with per-tick probability `p`.
    pub fn new(p: f64, power: f64) -> Self {
        EventBroadcaster {
            p,
            power,
            heard: Vec::new(),
        }
    }

    /// Whether this node has heard `sender`'s message.
    pub fn has_heard(&self, sender: NodeId) -> bool {
        self.heard.binary_search(&(sender.index() as u64)).is_ok()
    }

    /// Records `message` as heard, keeping `heard` ascending and distinct.
    fn hear(&mut self, message: u64) {
        if let Err(at) = self.heard.binary_search(&message) {
            self.heard.insert(at, message);
        }
    }

    /// Next transmission gap drawn from `Geom(p)` (support `1, 2, ...`).
    fn next_gap(&self, ctx: &mut NodeCtx<'_>) -> Tick {
        decay_engine::geometric_gap(ctx.rng, self.p)
    }
}

impl EventBehavior for EventBroadcaster {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.listen();
        let gap = self.next_gap(ctx);
        ctx.wake_in(gap);
    }

    fn on_wake(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.transmit(self.power, ctx.node.index() as u64);
        ctx.listen();
        let gap = self.next_gap(ctx);
        ctx.wake_in(gap);
    }

    fn on_receive(&mut self, _ctx: &mut NodeCtx<'_>, _from: NodeId, message: u64, _power: f64) {
        self.hear(message);
    }
}

/// The probe-API re-tune hook: a controller directive replaces the
/// per-tick transmit probability. Already-scheduled wake-ups keep their
/// tick; the new probability governs every gap drawn afterwards.
impl decay_engine::probe::Tunable for EventBroadcaster {
    fn set_probability(&mut self, p: f64) {
        assert!(
            p.is_finite() && p > 0.0 && p <= 1.0,
            "broadcast probability must be in (0, 1]"
        );
        self.p = p;
    }
}

impl Codec for EventBroadcaster {
    fn encode(&self, out: &mut Vec<u8>) {
        self.p.encode(out);
        self.power.encode(out);
        self.heard.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let p = f64::decode(input)?;
        let power = f64::decode(input)?;
        let mut heard = Vec::<u64>::decode(input)?;
        heard.sort_unstable();
        heard.dedup();
        Ok(EventBroadcaster { p, power, heard })
    }
}

/// Builds the broadcast engine without driving it — for callers that
/// want to checkpoint/resume or interleave their own instrumentation.
///
/// Returns the engine plus the required-pair lists (`required[u]` holds
/// the nodes that must hear `u`).
///
/// # Errors
///
/// Returns an error for degenerate configs (see [`EngineError`]).
pub fn build_broadcast_engine<Bk: DecayBackend + 'static>(
    backend: Bk,
    params: &SinrParams,
    config: &EventBroadcastConfig,
) -> Result<(Engine<EventBroadcaster>, Vec<Vec<NodeId>>), EngineError> {
    let radius_ok = config.neighborhood_decay.is_finite() && config.neighborhood_decay > 0.0;
    if !radius_ok {
        return Err(EngineError::InvalidConfig {
            reason: "neighborhood radius must be positive".to_string(),
        });
    }
    let power_ok = config.power.is_finite() && config.power > 0.0;
    if !power_ok {
        return Err(EngineError::InvalidConfig {
            reason: "power must be positive".to_string(),
        });
    }
    if let Some(reach) = config.reach_decay {
        // A reach cutoff below the neighborhood radius would make some
        // required pairs physically undeliverable: the run could never
        // complete, indistinguishable from a slow one.
        if reach < config.neighborhood_decay {
            return Err(EngineError::InvalidConfig {
                reason: "reach_decay must be at least neighborhood_decay".to_string(),
            });
        }
    }
    let n = backend.len();
    // Who must hear whom (the in-range out-neighbors of each node).
    let required: Vec<Vec<NodeId>> = (0..n)
        .map(|u| backend.potential_receivers(NodeId::new(u), Some(config.neighborhood_decay)))
        .collect();
    let delta = required.iter().map(Vec::len).max().unwrap_or(0);
    let p = match config.probability {
        Some(p) => {
            if !(p > 0.0 && p < 1.0) {
                return Err(EngineError::InvalidConfig {
                    reason: "probability must be in (0, 1)".to_string(),
                });
            }
            p
        }
        None => (0.5 / delta.max(1) as f64).min(0.5),
    };
    let behaviors = (0..n)
        .map(|_| EventBroadcaster::new(p, config.power))
        .collect();
    let engine_config = EngineConfig {
        reach_decay: config.reach_decay,
        top_k: config.top_k,
        reception: config.reception,
        latency: config.latency,
        churn: config.churn,
        jamming: jam_schedule_from_model(config.jamming),
        ..EngineConfig::default()
    };
    let engine = Engine::new(backend, behaviors, *params, engine_config, config.seed)?;
    Ok((engine, required))
}

/// Counts delivered required pairs by inspecting node state.
fn covered_pairs(engine: &Engine<EventBroadcaster>, required: &[Vec<NodeId>]) -> usize {
    required
        .iter()
        .enumerate()
        .map(|(u, receivers)| {
            receivers
                .iter()
                .filter(|&&z| engine.behavior(z).has_heard(NodeId::new(u)))
                .count()
        })
        .sum()
}

/// Runs event-driven local broadcast to completion or budget exhaustion.
///
/// # Panics
///
/// Panics on degenerate configs (mirroring
/// [`crate::run_local_broadcast`]'s contract).
pub fn run_local_broadcast_event<Bk: DecayBackend + 'static>(
    backend: Bk,
    params: &SinrParams,
    config: &EventBroadcastConfig,
) -> EventBroadcastReport {
    assert!(config.max_ticks > 0, "tick budget must be positive");
    assert!(config.check_interval > 0, "check interval must be positive");
    let (mut engine, required) =
        build_broadcast_engine(backend, params, config).expect("valid broadcast config");
    let required_pairs: usize = required.iter().map(Vec::len).sum();
    let probability = engine.behavior(NodeId::new(0)).p;
    let max_neighborhood = required.iter().map(Vec::len).max().unwrap_or(0);
    // The generic probed driver supplies the pause grid; this protocol
    // only contributes its completion predicate (coverage of every
    // required pair).
    let completed_at = decay_engine::drive_until(
        &mut engine,
        config.max_ticks,
        config.check_interval,
        &mut [],
        |e| covered_pairs(e, &required) == required_pairs,
    );
    let covered = covered_pairs(&engine, &required);
    EventBroadcastReport {
        completed_at,
        coverage: if required_pairs == 0 {
            1.0
        } else {
            covered as f64 / required_pairs as f64
        },
        required_pairs,
        probability,
        max_neighborhood,
        stats: engine.stats(),
        trace_hash: engine.trace_hash(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decay_core::DecaySpace;
    use decay_engine::{DenseBackend, LazyBackend};

    fn line_space(n: usize, alpha: f64) -> DecaySpace {
        DecaySpace::from_fn(n, |i, j| ((i as f64) - (j as f64)).abs().powf(alpha)).unwrap()
    }

    fn line_backend(n: usize, alpha: f64) -> LazyBackend {
        let last = n - 1;
        LazyBackend::from_fn(n, move |i, j| ((i as f64) - (j as f64)).abs().powf(alpha))
            .with_neighbor_hint(move |i, reach| {
                let w = reach.powf(1.0 / alpha).ceil() as usize;
                (i.saturating_sub(w)..=(i + w).min(last)).collect()
            })
    }

    #[test]
    fn event_broadcast_completes_on_small_line() {
        let report = run_local_broadcast_event(
            DenseBackend::new(line_space(8, 3.0)),
            &SinrParams::default(),
            &EventBroadcastConfig {
                neighborhood_decay: 8.0,
                ..Default::default()
            },
        );
        assert_eq!(report.coverage, 1.0);
        assert!(report.completed_at.is_some());
        assert!(report.required_pairs > 0);
        assert!(report.stats.transmissions > 0);
    }

    #[test]
    fn lazy_backend_matches_coverage_semantics() {
        let report = run_local_broadcast_event(
            line_backend(64, 2.0),
            &SinrParams::default(),
            &EventBroadcastConfig {
                neighborhood_decay: 4.0,
                reach_decay: Some(100.0),
                top_k: Some(8),
                ..Default::default()
            },
        );
        assert_eq!(report.coverage, 1.0, "report: {report:?}");
    }

    #[test]
    fn deterministic_in_seed() {
        let run = |seed| {
            run_local_broadcast_event(
                line_backend(32, 2.0),
                &SinrParams::default(),
                &EventBroadcastConfig {
                    neighborhood_decay: 4.0,
                    reach_decay: Some(64.0),
                    seed,
                    ..Default::default()
                },
            )
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).trace_hash, run(4).trace_hash);
    }

    #[test]
    fn churn_slows_but_does_not_wedge_broadcast() {
        let base = EventBroadcastConfig {
            neighborhood_decay: 8.0,
            max_ticks: 20_000,
            seed: 5,
            ..Default::default()
        };
        let clean = run_local_broadcast_event(
            DenseBackend::new(line_space(10, 3.0)),
            &SinrParams::default(),
            &base,
        );
        let churned = run_local_broadcast_event(
            DenseBackend::new(line_space(10, 3.0)),
            &SinrParams::default(),
            &EventBroadcastConfig {
                churn: Some(ChurnConfig {
                    interval: 8,
                    leave_prob: 0.3,
                    join_prob: 0.9,
                }),
                ..base
            },
        );
        let c = clean.completed_at.expect("clean run completes");
        assert!(churned.stats.churn_leaves > 0, "churn never fired");
        // Under rejoin-heavy churn the run still finishes, just later (or
        // in the worst case exhausts a much larger budget with high
        // coverage).
        match churned.completed_at {
            Some(t) => assert!(t >= c / 2),
            None => assert!(churned.coverage > 0.5, "coverage {}", churned.coverage),
        }
    }

    #[test]
    fn periodic_jamming_maps_and_blanks_ticks() {
        let report = run_local_broadcast_event(
            DenseBackend::new(line_space(8, 3.0)),
            &SinrParams::default(),
            &EventBroadcastConfig {
                neighborhood_decay: 8.0,
                jamming: JammingModel::Periodic { period: 2 },
                seed: 9,
                ..Default::default()
            },
        );
        assert!(report.stats.jammed_ticks > 0);
        // Half the ticks are jammed; broadcast still completes.
        assert!(report.completed_at.is_some());
        assert!(matches!(
            jam_schedule_from_model(JammingModel::Random {
                round_prob: 0.25,
                link_prob: 0.5
            }),
            JamSchedule::Random { prob } if prob == 0.25
        ));
    }

    #[test]
    fn latency_delays_but_preserves_delivery() {
        let report = run_local_broadcast_event(
            DenseBackend::new(line_space(8, 3.0)),
            &SinrParams::default(),
            &EventBroadcastConfig {
                neighborhood_decay: 8.0,
                latency: LatencyModel::Jittered { base: 1, jitter: 3 },
                seed: 2,
                ..Default::default()
            },
        );
        assert_eq!(report.coverage, 1.0);
    }

    #[test]
    fn reach_below_neighborhood_is_rejected() {
        // Such a config could never complete (pairs past the reach are
        // undeliverable), so it must fail loudly, not time out quietly.
        let err = build_broadcast_engine(
            DenseBackend::new(line_space(8, 2.0)),
            &SinrParams::default(),
            &EventBroadcastConfig {
                neighborhood_decay: 16.0,
                reach_decay: Some(4.0),
                ..Default::default()
            },
        )
        .map(|(engine, required)| (engine.len(), required.len()))
        .expect_err("reach below neighborhood must be rejected");
        assert!(err.to_string().contains("reach_decay"));
    }

    /// The checkpoint bytes of a broadcaster whose heard set is `heard`,
    /// as the `BTreeSet` representation encoded them.
    fn set_encoding(heard: &std::collections::BTreeSet<u64>) -> Vec<u8> {
        let mut out = Vec::new();
        0.5f64.encode(&mut out);
        1.0f64.encode(&mut out);
        heard.iter().copied().collect::<Vec<u64>>().encode(&mut out);
        out
    }

    #[test]
    fn heard_encoding_matches_the_set_encoding() {
        use rand::Rng;
        let mut rng = decay_engine::EngineRng::for_stream(11, 0);
        let mut node = EventBroadcaster::new(0.5, 1.0);
        let mut set = std::collections::BTreeSet::new();
        for _ in 0..400 {
            let message = rng.gen_range(0..96u64);
            node.hear(message);
            set.insert(message);
            let mut bytes = Vec::new();
            node.encode(&mut bytes);
            assert_eq!(bytes, set_encoding(&set));
        }
        for sender in 0..96 {
            assert_eq!(
                node.has_heard(NodeId::new(sender)),
                set.contains(&(sender as u64))
            );
        }
    }

    #[test]
    fn decoding_normalizes_unsorted_and_repeated_messages() {
        let mut bytes = Vec::new();
        0.5f64.encode(&mut bytes);
        1.0f64.encode(&mut bytes);
        vec![9u64, 3, 9, 0, 3, 7].encode(&mut bytes);
        let node = EventBroadcaster::decode(&mut bytes.as_slice()).expect("decodes");
        let set = [0u64, 3, 7, 9].into_iter().collect();
        let mut normalized = Vec::new();
        node.encode(&mut normalized);
        assert_eq!(normalized, set_encoding(&set));
        assert!(node.has_heard(NodeId::new(7)));
        assert!(!node.has_heard(NodeId::new(8)));
    }
}
