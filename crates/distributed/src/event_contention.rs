//! Event-driven contention resolution: the [`crate::run_contention`]
//! protocol ported to `decay-engine`.
//!
//! Each link's sender must deliver one packet to its dedicated receiver,
//! reacting only to its own successes and failures. The port replaces
//! the per-slot coin flip with geometric wake scheduling (an undelivered
//! sender at probability `p` sleeps `Geom(p)` ticks between attempts) and
//! replaces the centralized affectance oracle with the engine's physical
//! reception resolution: an attempt succeeds when the link's receiver
//! actually captures the transmission under SINR. Backoff senders
//! recover multiplicatively over the *elapsed* ticks since their last
//! attempt, the event-driven equivalent of the slot protocol's per-slot
//! recovery.

use decay_core::{DecaySpace, NodeId};
use decay_engine::{
    Codec, CodecError, DecayBackend, DenseBackend, Engine, EngineConfig, EngineStats,
    EventBehavior, NodeCtx, Tick,
};
use decay_sinr::SinrParams;

use crate::contention::ContentionStrategy;

/// Parameters of an event-driven contention run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventContentionConfig {
    /// Sender strategy (shared with the slot-synchronous port).
    pub strategy: ContentionStrategy,
    /// Give up after this many ticks.
    pub max_ticks: Tick,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EventContentionConfig {
    fn default() -> Self {
        EventContentionConfig {
            strategy: ContentionStrategy::Fixed { p: 0.1 },
            max_ticks: 20_000,
            seed: 1,
        }
    }
}

/// Outcome of an event-driven contention run.
#[derive(Debug, Clone, PartialEq)]
pub struct EventContentionReport {
    /// Tick at which each link delivered (`None` = never).
    pub delivered_at: Vec<Option<Tick>>,
    /// Whether every viable link delivered.
    pub all_delivered: bool,
    /// Total transmission attempts.
    pub transmissions: u64,
    /// Ticks simulated.
    pub ticks_used: Tick,
    /// Engine counters.
    pub stats: EngineStats,
}

impl EventContentionReport {
    /// Number of links that delivered.
    pub fn delivered(&self) -> usize {
        self.delivered_at.iter().filter(|t| t.is_some()).count()
    }

    /// The last delivery tick (the makespan), if anything delivered.
    pub fn makespan(&self) -> Option<Tick> {
        self.delivered_at.iter().flatten().copied().max()
    }
}

/// Per-node behavior: a link sender or its passive receiver.
#[derive(Debug, Clone, PartialEq)]
pub enum ContentionNode {
    /// An undelivered sender driving one link.
    Sender {
        /// The dedicated receiver.
        peer: NodeId,
        /// Current transmission probability.
        prob: f64,
        /// Probability cap (the strategy's starting value).
        start: f64,
        /// Failure multiplier.
        down: f64,
        /// Per-tick recovery multiplier.
        up: f64,
        /// Probability floor.
        floor: f64,
        /// Tick of the last attempt (for elapsed-time recovery).
        last_attempt: Tick,
        /// When the packet was delivered.
        delivered_at: Option<Tick>,
        /// Whether the link can clear the noise floor at all.
        viable: bool,
        /// Attempts so far.
        attempts: u64,
    },
    /// A passive receiver.
    Receiver {
        /// The link's sender.
        peer: NodeId,
    },
}

impl ContentionNode {
    fn schedule_next(&mut self, ctx: &mut NodeCtx<'_>) {
        if let ContentionNode::Sender {
            prob,
            delivered_at: None,
            viable: true,
            ..
        } = self
        {
            let gap = decay_engine::geometric_gap(ctx.rng, *prob);
            ctx.wake_in(gap);
        }
    }
}

impl EventBehavior for ContentionNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        match self {
            ContentionNode::Receiver { .. } => ctx.listen(),
            ContentionNode::Sender { .. } => {
                // Senders do not listen; they learn from the transmit
                // result, as in the slot-synchronous port.
                ctx.sleep();
                self.schedule_next(ctx);
            }
        }
    }

    fn on_wake(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now;
        if let ContentionNode::Sender {
            peer,
            prob,
            start,
            up,
            last_attempt,
            delivered_at: None,
            viable: true,
            attempts,
            ..
        } = self
        {
            // Elapsed-tick recovery toward the cap.
            let gap = now.saturating_sub(*last_attempt);
            if gap > 0 && *up > 1.0 {
                *prob = (*prob * up.powf(gap as f64)).min(*start);
            }
            *last_attempt = now;
            *attempts += 1;
            ctx.transmit(1.0, peer.index() as u64);
            self.schedule_next(ctx);
        }
    }

    fn on_transmit_result(&mut self, ctx: &mut NodeCtx<'_>, receivers: &[NodeId]) {
        if let ContentionNode::Sender {
            peer,
            prob,
            down,
            floor,
            delivered_at,
            ..
        } = self
        {
            if delivered_at.is_none() {
                if receivers.contains(peer) {
                    *delivered_at = Some(ctx.now);
                } else {
                    *prob = (*prob * *down).max(*floor);
                }
            }
        }
    }
}

/// The probe-API re-tune hook: a controller directive re-centers an
/// undelivered sender's probability schedule — current probability and
/// recovery cap (`start`) move to `p`, so the backoff dynamics
/// (`down`/`up`) operate around the new set point instead of silently
/// recovering back to the old one. The failure floor keeps its
/// strategy-configured value, lowered only when needed to preserve
/// `floor ≤ start` — a one-way ratchet: a floor once lowered for a
/// small set point stays low when the set point later rises, so
/// backoff below the new set point remains possible. Receivers and
/// delivered senders are unaffected.
impl decay_engine::probe::Tunable for ContentionNode {
    fn set_probability(&mut self, p: f64) {
        assert!(
            p.is_finite() && p > 0.0 && p <= 1.0,
            "contention probability must be in (0, 1]"
        );
        if let ContentionNode::Sender {
            prob,
            start,
            floor,
            delivered_at: None,
            ..
        } = self
        {
            *prob = p;
            *start = p;
            *floor = (*floor).min(p);
        }
    }
}

/// Byte-level state capture, so contention runs can checkpoint/resume
/// through `decay_engine::Checkpoint` (see `decay_engine::codec`).
impl Codec for ContentionNode {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ContentionNode::Receiver { peer } => {
                out.push(0);
                peer.encode(out);
            }
            ContentionNode::Sender {
                peer,
                prob,
                start,
                down,
                up,
                floor,
                last_attempt,
                delivered_at,
                viable,
                attempts,
            } => {
                out.push(1);
                peer.encode(out);
                prob.encode(out);
                start.encode(out);
                down.encode(out);
                up.encode(out);
                floor.encode(out);
                last_attempt.encode(out);
                delivered_at.encode(out);
                viable.encode(out);
                attempts.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(ContentionNode::Receiver {
                peer: NodeId::decode(input)?,
            }),
            1 => Ok(ContentionNode::Sender {
                peer: NodeId::decode(input)?,
                prob: f64::decode(input)?,
                start: f64::decode(input)?,
                down: f64::decode(input)?,
                up: f64::decode(input)?,
                floor: f64::decode(input)?,
                last_attempt: Tick::decode(input)?,
                delivered_at: Option::<Tick>::decode(input)?,
                viable: bool::decode(input)?,
                attempts: u64::decode(input)?,
            }),
            tag => Err(CodecError::InvalidTag {
                tag,
                ty: "ContentionNode",
            }),
        }
    }
}

/// Builds a contention engine over any [`DecayBackend`] without driving
/// it — the seam declarative scenarios compile through, and the entry
/// point for callers that want churn/jamming/latency dynamics (via
/// `engine_config`) or checkpoint/resume around a contention run.
///
/// Returns the engine plus the sender of each link, in link order.
///
/// # Panics
///
/// Panics on out-of-range strategy parameters, out-of-range link
/// endpoints, or links sharing endpoints.
pub fn build_contention_engine<Bk: DecayBackend + 'static>(
    backend: Bk,
    links: &[(NodeId, NodeId)],
    params: &SinrParams,
    strategy: ContentionStrategy,
    engine_config: EngineConfig,
    seed: u64,
) -> (Engine<ContentionNode>, Vec<NodeId>) {
    let n = backend.len();
    let (start, down, up, floor) = match strategy {
        ContentionStrategy::Fixed { p } => {
            assert!(p > 0.0 && p <= 1.0, "fixed probability must be in (0, 1]");
            (p, 1.0, 1.0, p)
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
            (start, down, up, floor)
        }
    };
    let mut behaviors: Vec<ContentionNode> = (0..n)
        .map(|_| ContentionNode::Receiver {
            peer: NodeId::new(usize::MAX),
        })
        .collect();
    let mut sender_of_link = Vec::with_capacity(links.len());
    let mut used = vec![false; n];
    for &(s, r) in links {
        assert!(
            s.index() < n && r.index() < n && s != r,
            "link endpoints out of range"
        );
        // One behavior per node: links must be endpoint-disjoint, or a
        // node's Sender/Receiver role would be silently overwritten.
        assert!(
            !used[s.index()] && !used[r.index()],
            "links must not share endpoints (node {} or {} appears twice)",
            s,
            r
        );
        used[s.index()] = true;
        used[r.index()] = true;
        // A link that cannot clear the noise floor alone can never
        // deliver; its sender stays silent (mirrors run_contention).
        let viable = params.noise() == 0.0
            || (1.0 / backend.decay(s, r)) / params.noise() >= params.beta() * (1.0 - 1e-12);
        behaviors[r.index()] = ContentionNode::Receiver { peer: s };
        behaviors[s.index()] = ContentionNode::Sender {
            peer: r,
            prob: start,
            start,
            down,
            up,
            floor,
            last_attempt: 0,
            delivered_at: None,
            viable,
            attempts: 0,
        };
        sender_of_link.push(s);
    }
    let engine = Engine::new(backend, behaviors, *params, engine_config, seed)
        .expect("behavior count matches backend");
    (engine, sender_of_link)
}

/// Runs event-driven contention resolution over `links` (sender,
/// receiver) pairs on `space`. Links must be endpoint-disjoint (each
/// node drives or terminates at most one link): the port models roles
/// as one behavior per node.
///
/// # Panics
///
/// Panics on degenerate configs, out-of-range link endpoints, or links
/// sharing endpoints.
pub fn run_contention_event(
    space: &DecaySpace,
    links: &[(NodeId, NodeId)],
    params: &SinrParams,
    config: &EventContentionConfig,
) -> EventContentionReport {
    assert!(config.max_ticks > 0, "need at least one tick");
    let (mut engine, sender_of_link) = build_contention_engine(
        DenseBackend::new(space.clone()),
        links,
        params,
        config.strategy,
        EngineConfig::default(),
        config.seed,
    );
    // The generic probed driver supplies the pause grid; this protocol
    // only contributes its completion predicate (every viable link
    // delivered).
    decay_engine::drive_until(&mut engine, config.max_ticks, 64, &mut [], |e| {
        sender_of_link.iter().all(|&s| {
            matches!(
                e.behavior(s),
                ContentionNode::Sender {
                    delivered_at: Some(_),
                    ..
                } | ContentionNode::Sender { viable: false, .. }
            )
        })
    });
    let ticks_used = engine.now();
    let mut delivered_at = Vec::with_capacity(links.len());
    let mut transmissions = 0;
    let mut all_delivered = true;
    for &s in &sender_of_link {
        let ContentionNode::Sender {
            delivered_at: d,
            viable,
            attempts,
            ..
        } = engine.behavior(s)
        else {
            unreachable!("sender behavior replaced")
        };
        delivered_at.push(*d);
        transmissions += attempts;
        if *viable && d.is_none() {
            all_delivered = false;
        }
    }
    EventContentionReport {
        delivered_at,
        all_delivered,
        transmissions,
        ticks_used,
        stats: engine.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `m` parallel unit links spaced `gap` apart on a line.
    fn parallel(m: usize, gap: f64) -> (DecaySpace, Vec<(NodeId, NodeId)>) {
        let mut pos = Vec::new();
        for i in 0..m {
            pos.push(i as f64 * gap);
            pos.push(i as f64 * gap + 1.0);
        }
        let space = DecaySpace::from_fn(pos.len(), |i, j| (pos[i] - pos[j]).abs().powi(2)).unwrap();
        let links = (0..m)
            .map(|i| (NodeId::new(2 * i), NodeId::new(2 * i + 1)))
            .collect();
        (space, links)
    }

    #[test]
    fn sparse_instance_finishes_fast() {
        let (space, links) = parallel(8, 50.0);
        let report = run_contention_event(
            &space,
            &links,
            &SinrParams::default(),
            &EventContentionConfig::default(),
        );
        assert!(report.all_delivered, "delivered {}", report.delivered());
        assert_eq!(report.delivered(), 8);
        assert!(report.ticks_used < 2_000, "ticks {}", report.ticks_used);
    }

    #[test]
    fn dense_instance_still_completes() {
        let (space, links) = parallel(10, 1.5);
        let report = run_contention_event(
            &space,
            &links,
            &SinrParams::default(),
            &EventContentionConfig::default(),
        );
        assert!(report.all_delivered, "delivered {}", report.delivered());
        assert!(report.makespan().is_some());
    }

    #[test]
    fn backoff_adapts_and_completes() {
        let (space, links) = parallel(10, 1.5);
        let report = run_contention_event(
            &space,
            &links,
            &SinrParams::default(),
            &EventContentionConfig {
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
    }

    #[test]
    fn noise_floor_losers_never_deliver() {
        let (space, links) = parallel(3, 30.0);
        // Each link has length 1 -> decay 1 -> signal 1; but rebuild with
        // length-3 links: use noise high enough that SNR < beta.
        let report = run_contention_event(
            &space,
            &links,
            &SinrParams::new(1.0, 2.0).unwrap(),
            &EventContentionConfig {
                max_ticks: 500,
                ..Default::default()
            },
        );
        // decay 1, noise 2 -> SNR 0.5 < 1: hopeless.
        assert_eq!(report.delivered(), 0);
        assert_eq!(report.transmissions, 0);
        assert!(report.all_delivered, "hopeless links do not block verdict");
    }

    #[test]
    fn deterministic_in_seed() {
        let (space, links) = parallel(6, 2.0);
        let run = |seed| {
            run_contention_event(
                &space,
                &links,
                &SinrParams::default(),
                &EventContentionConfig {
                    seed,
                    ..Default::default()
                },
            )
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1).delivered_at, run(7).delivered_at);
    }

    #[test]
    #[should_panic(expected = "share endpoints")]
    fn shared_endpoints_are_rejected() {
        let (space, _) = parallel(2, 10.0);
        // Node 0 is sender of one link and receiver of another.
        let links = vec![
            (NodeId::new(0), NodeId::new(1)),
            (NodeId::new(2), NodeId::new(0)),
        ];
        run_contention_event(
            &space,
            &links,
            &SinrParams::default(),
            &EventContentionConfig::default(),
        );
    }
}
