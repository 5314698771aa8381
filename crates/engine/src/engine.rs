//! The discrete-event engine itself.
//!
//! # Execution model
//!
//! Time is a [`Tick`] counter. Nodes are *passive* between events: a node
//! only costs work when one of its events fires. The event kinds are
//! wake-ups (scheduled by the node's own behavior), reception resolution
//! (scheduled lazily, once per tick with transmissions), message
//! deliveries (scheduled by resolution, possibly delayed by the latency
//! model), and churn steps. Within a tick events fire in a fixed class
//! order — churn, wakes, resolution, deliveries — with insertion order
//! breaking ties: the total ordering that makes runs bit-reproducible
//! from a seed. The [`EventQueue`] keeps that order with one FIFO lane
//! per class for the tick being drained and a heap for later ticks.
//!
//! Transmissions within one tick contend exactly as slot-synchronous
//! `decay-netsim` slots do: a listener captures the strongest incoming
//! signal iff its SINR against the other transmissions (plus noise)
//! clears `β`. The difference is cost: a tick costs `O(active)` work, not
//! `O(n)`, and the decay matrix behind it may be lazy. (A resolution
//! round also clears and sums `n + 1` prefix counts to group its pairs
//! by listener, see [`Engine::resolve_pairs`]: one linear pass over a
//! `u32` array, small next to the round's pairs at the densities the
//! benchmarks run.)

use std::cmp::Ordering as CmpOrdering;
use std::fmt;

use decay_core::telemetry::{Counter, Counters, Ring, SpanEvent, Timer};
use decay_core::NodeId;
use decay_netsim::{FaultPlan, ReceptionModel};
use decay_sinr::SinrParams;
use rand::Rng;

use crate::backend::DecayBackend;
use crate::codec::{Codec, CodecError};
use crate::event::{Event, EventQueue, QueuedEvent, Tick};
use crate::rng::EngineRng;

/// Reserved RNG stream ids; per-node streams start after these.
const STREAM_CHURN: u64 = 0;
const STREAM_FADING: u64 = 1;
const STREAM_JITTER: u64 = 2;
const STREAM_JAM: u64 = 3;
const STREAM_NODE_BASE: u64 = 4;

/// A node's radio mode between events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeMode {
    /// Radio on: the node is a reception candidate.
    Listening,
    /// Radio off: transmissions never reach this node.
    Sleeping,
    /// The node has left (churn); it neither acts nor receives until it
    /// rejoins.
    Down,
}

/// What a behavior asked the engine to do, buffered during a callback and
/// applied when the callback returns.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Command {
    Transmit { power: f64, message: u64 },
    Listen,
    Sleep,
    WakeAt { tick: Tick },
}

/// The engine-side view a behavior gets during any callback.
///
/// All effects are *commands*: they buffer inside the context and the
/// engine applies them after the callback returns, so behaviors can never
/// observe (or corrupt) mid-event engine state.
pub struct NodeCtx<'a> {
    /// This node's id.
    pub node: NodeId,
    /// Total number of nodes (alive or not).
    pub nodes: usize,
    /// The current tick.
    pub now: Tick,
    /// This node's private serializable RNG stream.
    pub rng: &'a mut EngineRng,
    commands: &'a mut Vec<Command>,
}

impl NodeCtx<'_> {
    /// Transmits `message` at `power` in the current tick. The node still
    /// cannot receive during a tick in which it transmits.
    ///
    /// # Panics
    ///
    /// Panics unless `power` is positive and finite.
    pub fn transmit(&mut self, power: f64, message: u64) {
        assert!(
            power.is_finite() && power > 0.0,
            "node {} transmitted with non-positive power",
            self.node
        );
        self.commands.push(Command::Transmit { power, message });
    }

    /// Turns the radio on: the node becomes a standing reception
    /// candidate until it sleeps or goes down. Unlike the slot simulator
    /// there is no per-slot listen decision — listening is a mode, which
    /// is what lets idle listeners cost nothing.
    pub fn listen(&mut self) {
        self.commands.push(Command::Listen);
    }

    /// Turns the radio off.
    pub fn sleep(&mut self) {
        self.commands.push(Command::Sleep);
    }

    /// Schedules a wake-up at the absolute tick `tick` (`≥ now`).
    ///
    /// # Panics
    ///
    /// Panics if `tick` is in the past.
    pub fn wake_at(&mut self, tick: Tick) {
        assert!(tick >= self.now, "cannot schedule a wake in the past");
        self.commands.push(Command::WakeAt { tick });
    }

    /// Schedules a wake-up `dt` ticks from now.
    pub fn wake_in(&mut self, dt: Tick) {
        self.commands.push(Command::WakeAt {
            tick: self.now + dt,
        });
    }
}

impl fmt::Debug for NodeCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeCtx")
            .field("node", &self.node)
            .field("nodes", &self.nodes)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

/// A node's protocol logic in the event-driven model.
///
/// Behaviors schedule their own wake-ups; a node with nothing scheduled
/// is free. For running unmodified slot-synchronous
/// [`decay_netsim::NodeBehavior`] protocols, see
/// [`crate::SlotAdapter`].
pub trait EventBehavior {
    /// Called once when the node enters the simulation: at tick 0 for the
    /// initial population, and again (with state preserved) each time the
    /// node rejoins after churn. Typical implementations call
    /// [`NodeCtx::listen`] and schedule a first wake.
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>);

    /// Called at a wake-up the behavior scheduled.
    fn on_wake(&mut self, ctx: &mut NodeCtx<'_>) {
        let _ = ctx;
    }

    /// Called when a message is delivered to this node. `power` is the
    /// received signal power (transmit power over decay, after fading).
    fn on_receive(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, message: u64, power: f64) {
        let _ = (ctx, from, message, power);
    }

    /// Called at resolution time for a tick in which this node
    /// transmitted, with the listeners that captured the transmission
    /// (deliveries are *scheduled* for them; latency may still delay, and
    /// churn may still drop, the actual arrival). An acknowledgment-style
    /// oracle, as in the slot simulator.
    fn on_transmit_result(&mut self, ctx: &mut NodeCtx<'_>, receivers: &[NodeId]) {
        let _ = (ctx, receivers);
    }
}

/// Node churn: the engine flips at most one node per churn step.
///
/// Every `interval` ticks one node is drawn uniformly; if it is up it
/// leaves with probability `leave_prob`, if it is down it rejoins with
/// probability `join_prob`. A rejoining node keeps its behavior state
/// (crash-recovery semantics, matching [`decay_netsim::FaultPlan`]) but
/// gets a fresh incarnation: wake-ups and deliveries scheduled for its
/// previous life are dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Ticks between churn steps (≥ 1).
    pub interval: Tick,
    /// Probability that the drawn node leaves, when up.
    pub leave_prob: f64,
    /// Probability that the drawn node rejoins, when down.
    pub join_prob: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            interval: 1,
            leave_prob: 0.5,
            join_prob: 0.5,
        }
    }
}

/// Latency applied to each scheduled delivery.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LatencyModel {
    /// Deliveries arrive in the tick they were resolved (slot semantics).
    #[default]
    Immediate,
    /// Every delivery is delayed by a fixed number of ticks.
    Fixed {
        /// The delay in ticks.
        ticks: Tick,
    },
    /// Deliveries are delayed by `base` plus a uniform draw from
    /// `[0, jitter]` ticks (drawn per delivery from the jitter stream).
    Jittered {
        /// Minimum delay in ticks.
        base: Tick,
        /// Maximum extra delay in ticks.
        jitter: Tick,
    },
}

/// When the jammer blankets the channel, killing every reception in the
/// affected tick. The schedule kinds mirror
/// `decay_distributed::adversarial::JammingModel` so adversarial
/// experiments port directly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum JamSchedule {
    /// No jamming.
    #[default]
    None,
    /// Every `period`-th tick (ticks ≡ 0 mod `period`) is jammed.
    Periodic {
        /// The period in ticks (≥ 1).
        period: Tick,
    },
    /// Each tick with transmissions is jammed independently with
    /// probability `prob`.
    Random {
        /// Per-tick jamming probability.
        prob: f64,
    },
}

/// Engine configuration: physics, dynamics, and instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Decay beyond which a signal is treated as unreceivable. `None`
    /// considers every node a candidate (`O(n)` per transmission —
    /// correct but slow at scale). Set it to the decay at which received
    /// power drops below any detectable level for your powers and noise.
    pub reach_decay: Option<f64>,
    /// Top-k affectance pruning: each listener's SINR denominator keeps
    /// only its `k` strongest concurrent signals; weaker interferers are
    /// dropped. `None` sums all concurrent transmissions (exact).
    pub top_k: Option<usize>,
    /// Reception model, shared with the slot simulator.
    pub reception: ReceptionModel,
    /// Delivery latency model.
    pub latency: LatencyModel,
    /// Node churn, if any.
    pub churn: Option<ChurnConfig>,
    /// Jamming schedule.
    pub jamming: JamSchedule,
    /// Scheduled per-node outages, reusing the slot simulator's plan
    /// type; ticks index slots. A node inside an outage window neither
    /// wakes nor receives; pending wakes resume at the window's end.
    pub faults: FaultPlan,
    /// Whether to record the full delivery trace (the rolling
    /// [`Engine::trace_hash`] is always maintained).
    pub record_trace: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            reach_decay: None,
            top_k: None,
            reception: ReceptionModel::Threshold,
            latency: LatencyModel::Immediate,
            churn: None,
            jamming: JamSchedule::None,
            faults: FaultPlan::none(),
            record_trace: false,
        }
    }
}

impl EngineConfig {
    fn validate(&self) -> Result<(), EngineError> {
        let bad = |reason: &str| {
            Err(EngineError::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        if let Some(r) = self.reach_decay {
            if !(r.is_finite() && r > 0.0) {
                return bad("reach_decay must be positive and finite");
            }
        }
        if self.top_k == Some(0) {
            return bad("top_k must keep at least one signal");
        }
        if let Some(churn) = &self.churn {
            if churn.interval == 0 {
                return bad("churn interval must be at least one tick");
            }
            if !(0.0..=1.0).contains(&churn.leave_prob) || !(0.0..=1.0).contains(&churn.join_prob) {
                return bad("churn probabilities must be in [0, 1]");
            }
        }
        match self.jamming {
            JamSchedule::Periodic { period: 0 } => {
                return bad("jamming period must be at least one tick");
            }
            JamSchedule::Random { prob } if !(0.0..=1.0).contains(&prob) => {
                return bad("jamming probability must be in [0, 1]");
            }
            _ => {}
        }
        Ok(())
    }
}

/// One recorded delivery (when [`EngineConfig::record_trace`] is on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Tick the message arrived (resolution tick plus latency).
    pub tick: Tick,
    /// Tick the transmission was resolved; `tick - sent` is the delivery
    /// latency imposed by the [`LatencyModel`].
    pub sent: Tick,
    /// The transmitter.
    pub from: NodeId,
    /// The receiver.
    pub to: NodeId,
    /// The payload.
    pub message: u64,
}

impl DeliveryRecord {
    /// Ticks this delivery spent in flight.
    pub fn latency(&self) -> Tick {
        self.tick - self.sent
    }
}

/// Cumulative counters over a run.
///
/// # Codec / equality split
///
/// [`queue_high_water`](Self::queue_high_water) is *display-only*
/// telemetry: it is excluded from the checkpoint [`Codec`] (so format
/// v4 and the pinned golden digests stay byte-stable) **and** from
/// `PartialEq` (so digests compare equal across resume splits, where a
/// restored engine rebuilds its queue and restarts the high-water mark
/// from the restore point). Every trace-defining counter participates
/// in both.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Events dispatched.
    pub events: u64,
    /// Wake-ups delivered to behaviors.
    pub wakes: u64,
    /// Transmissions attempted.
    pub transmissions: u64,
    /// Messages delivered (callback fired).
    pub deliveries: u64,
    /// Scheduled deliveries dropped in flight (receiver down, asleep, or
    /// reincarnated before arrival).
    pub dropped_deliveries: u64,
    /// Ticks with transmissions that the jammer blanked.
    pub jammed_ticks: u64,
    /// Churn departures.
    pub churn_leaves: u64,
    /// Churn rejoins.
    pub churn_joins: u64,
    /// Deepest the event queue has been (display-only; see the struct
    /// docs for why it is outside the codec and equality).
    pub queue_high_water: u64,
}

impl PartialEq for EngineStats {
    fn eq(&self, other: &Self) -> bool {
        // `queue_high_water` is deliberately ignored — see struct docs.
        self.events == other.events
            && self.wakes == other.wakes
            && self.transmissions == other.transmissions
            && self.deliveries == other.deliveries
            && self.dropped_deliveries == other.dropped_deliveries
            && self.jammed_ticks == other.jammed_ticks
            && self.churn_leaves == other.churn_leaves
            && self.churn_joins == other.churn_joins
    }
}

impl Eq for EngineStats {}

/// Errors constructing or restoring an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Behavior count does not match the backend's node count.
    BehaviorCountMismatch {
        /// Nodes in the backend.
        nodes: usize,
        /// Behaviors supplied.
        behaviors: usize,
    },
    /// A configuration value is out of range.
    InvalidConfig {
        /// What was wrong.
        reason: String,
    },
    /// The backend supplied to [`Engine::restore`] declares a different
    /// channel configuration than the one the checkpoint was taken under
    /// (see [`DecayBackend::channel_signature`]).
    ChannelMismatch {
        /// The signature recorded in the checkpoint.
        expected: u64,
        /// The signature of the supplied backend.
        found: u64,
    },
    /// The controller supplied to [`Engine::restore_with_controller`]
    /// declares a different signature than the one the checkpoint was
    /// taken under (see
    /// [`crate::probe::Controller::signature`]) — resuming under a
    /// different controller would silently change the trace.
    ControllerMismatch {
        /// The signature recorded in the checkpoint.
        expected: u64,
        /// The signature of the supplied controller.
        found: u64,
    },
    /// The checkpoint's decoded state is inconsistent (a config value
    /// out of range, a per-node vector of the wrong length, a node id
    /// out of range); [`Engine::restore`] refuses it instead of
    /// panicking or looping on it later.
    InvalidCheckpoint {
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BehaviorCountMismatch { nodes, behaviors } => write!(
                f,
                "expected {nodes} behaviors for {nodes} nodes, got {behaviors}"
            ),
            EngineError::InvalidConfig { reason } => write!(f, "invalid engine config: {reason}"),
            EngineError::ChannelMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under channel signature {expected:#x}, \
                 but the supplied backend declares {found:#x}"
            ),
            EngineError::ControllerMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under controller signature {expected:#x}, \
                 but the supplied controller declares {found:#x}"
            ),
            EngineError::InvalidCheckpoint { reason } => write!(f, "invalid checkpoint: {reason}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A complete, serializable snapshot of engine state (everything except
/// the backend, which is re-supplied on [`Engine::restore`] — backends
/// are deterministic pure functions of node pairs, so they carry no run
/// state).
///
/// Restoring a checkpoint and continuing produces a *bit-identical*
/// trace to the uninterrupted run: the event queue, every RNG stream's
/// mid-state, node modes and incarnations, behavior state, and the
/// rolling trace hash are all captured.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<B> {
    /// Snapshot format version.
    pub version: u32,
    /// The channel signature of the backend the snapshot was taken over
    /// (0 for static backends); [`Engine::restore`] verifies it.
    channel: u64,
    /// The signature of the [`crate::probe::Controller`] steering the
    /// run (0 when none); [`Engine::restore_with_controller`] verifies
    /// it — controller identity is part of the trace-defining
    /// configuration, exactly like the channel.
    controller: u64,
    now: Tick,
    seq: u64,
    queue: Vec<QueuedEvent>,
    pending_tx: Vec<(NodeId, f64, u64)>,
    resolve_scheduled: bool,
    modes: Vec<NodeMode>,
    incarnations: Vec<u32>,
    rngs: Vec<EngineRng>,
    churn_rng: EngineRng,
    fading_rng: EngineRng,
    jitter_rng: EngineRng,
    jam_rng: EngineRng,
    stats: EngineStats,
    trace_hash: u64,
    trace: Vec<DeliveryRecord>,
    behaviors: Vec<B>,
    params: SinrParams,
    config: EngineConfig,
}

impl<B> Checkpoint<B> {
    /// Checks what a restore would otherwise trust blindly: the config
    /// ranges [`Engine::new`] enforces, one incarnation, behavior and
    /// RNG stream per node, every node id in the queue and the pending
    /// transmissions, and the queue order [`EventQueue`] relies on — no
    /// queued event before `now`, and distinct sequence numbers below
    /// the next one to be issued.
    fn validate(&self) -> Result<(), EngineError> {
        let bad = |reason: String| Err(EngineError::InvalidCheckpoint { reason });
        if let Err(e) = self.config.validate() {
            return bad(e.to_string());
        }
        let n = self.modes.len();
        for (what, len) in [
            ("incarnations", self.incarnations.len()),
            ("behaviors", self.behaviors.len()),
            ("rngs", self.rngs.len()),
        ] {
            if len != n {
                return bad(format!("{len} {what} for {n} nodes"));
            }
        }
        let queued = self
            .queue
            .iter()
            .flat_map(|qe| match qe.event {
                Event::Wake { node, .. } => [Some(node), None],
                Event::Deliver { to, from, .. } => [Some(to), Some(from)],
                Event::Resolve | Event::ChurnStep => [None, None],
            })
            .flatten();
        let pending = self.pending_tx.iter().map(|&(node, _, _)| node);
        if let Some(node) = queued.chain(pending).find(|v| v.index() >= n) {
            return bad(format!("node {} out of range for {n} nodes", node.index()));
        }
        let (now, next) = (self.now, self.seq);
        if let Some(qe) = self.queue.iter().find(|qe| qe.tick < now || qe.seq >= next) {
            return bad(format!(
                "queued event (tick {}, seq {}) outside tick >= {now}, seq < {next}",
                qe.tick, qe.seq
            ));
        }
        let mut seqs: Vec<u64> = self.queue.iter().map(|qe| qe.seq).collect();
        seqs.sort_unstable();
        if let Some(pair) = seqs.windows(2).find(|pair| pair[0] == pair[1]) {
            return bad(format!("queued seq {} repeated", pair[0]));
        }
        Ok(())
    }
}

/// Format history: v1 had no `sent` tick in deliveries, v2 added it,
/// v3 added the channel signature (temporal backends), v4 added the
/// controller signature (probe/controller API).
const CHECKPOINT_VERSION: u32 = 4;

/// Magic bytes opening a serialized checkpoint.
const CHECKPOINT_MAGIC: u32 = 0xDECA_E001;

impl Codec for NodeMode {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            NodeMode::Listening => 0,
            NodeMode::Sleeping => 1,
            NodeMode::Down => 2,
        });
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(NodeMode::Listening),
            1 => Ok(NodeMode::Sleeping),
            2 => Ok(NodeMode::Down),
            tag => Err(CodecError::InvalidTag {
                tag,
                ty: "NodeMode",
            }),
        }
    }
}

impl Codec for ChurnConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.interval.encode(out);
        self.leave_prob.encode(out);
        self.join_prob.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(ChurnConfig {
            interval: Tick::decode(input)?,
            leave_prob: f64::decode(input)?,
            join_prob: f64::decode(input)?,
        })
    }
}

impl Codec for LatencyModel {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LatencyModel::Immediate => out.push(0),
            LatencyModel::Fixed { ticks } => {
                out.push(1);
                ticks.encode(out);
            }
            LatencyModel::Jittered { base, jitter } => {
                out.push(2);
                base.encode(out);
                jitter.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(LatencyModel::Immediate),
            1 => Ok(LatencyModel::Fixed {
                ticks: Tick::decode(input)?,
            }),
            2 => Ok(LatencyModel::Jittered {
                base: Tick::decode(input)?,
                jitter: Tick::decode(input)?,
            }),
            tag => Err(CodecError::InvalidTag {
                tag,
                ty: "LatencyModel",
            }),
        }
    }
}

impl Codec for JamSchedule {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            JamSchedule::None => out.push(0),
            JamSchedule::Periodic { period } => {
                out.push(1);
                period.encode(out);
            }
            JamSchedule::Random { prob } => {
                out.push(2);
                prob.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(JamSchedule::None),
            1 => Ok(JamSchedule::Periodic {
                period: Tick::decode(input)?,
            }),
            2 => Ok(JamSchedule::Random {
                prob: f64::decode(input)?,
            }),
            tag => Err(CodecError::InvalidTag {
                tag,
                ty: "JamSchedule",
            }),
        }
    }
}

impl Codec for EngineConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.reach_decay.encode(out);
        self.top_k.encode(out);
        self.reception.encode(out);
        self.latency.encode(out);
        self.churn.encode(out);
        self.jamming.encode(out);
        self.faults.encode(out);
        self.record_trace.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(EngineConfig {
            reach_decay: Option::<f64>::decode(input)?,
            top_k: Option::<usize>::decode(input)?,
            reception: Codec::decode(input)?,
            latency: LatencyModel::decode(input)?,
            churn: Option::<ChurnConfig>::decode(input)?,
            jamming: JamSchedule::decode(input)?,
            faults: Codec::decode(input)?,
            record_trace: bool::decode(input)?,
        })
    }
}

impl Codec for DeliveryRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tick.encode(out);
        self.sent.encode(out);
        self.from.encode(out);
        self.to.encode(out);
        self.message.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(DeliveryRecord {
            tick: Tick::decode(input)?,
            sent: Tick::decode(input)?,
            from: Codec::decode(input)?,
            to: Codec::decode(input)?,
            message: u64::decode(input)?,
        })
    }
}

impl Codec for EngineStats {
    // `queue_high_water` stays out of the wire format: checkpoint
    // format v4 encodes exactly these eight trace-defining counters
    // (see the struct docs). Decode leaves it at zero; `restore`
    // re-seeds it from the rebuilt queue.
    fn encode(&self, out: &mut Vec<u8>) {
        for field in [
            self.events,
            self.wakes,
            self.transmissions,
            self.deliveries,
            self.dropped_deliveries,
            self.jammed_ticks,
            self.churn_leaves,
            self.churn_joins,
        ] {
            field.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(EngineStats {
            events: u64::decode(input)?,
            wakes: u64::decode(input)?,
            transmissions: u64::decode(input)?,
            deliveries: u64::decode(input)?,
            dropped_deliveries: u64::decode(input)?,
            jammed_ticks: u64::decode(input)?,
            churn_leaves: u64::decode(input)?,
            churn_joins: u64::decode(input)?,
            queue_high_water: 0,
        })
    }
}

impl<B: Codec> Codec for Checkpoint<B> {
    fn encode(&self, out: &mut Vec<u8>) {
        CHECKPOINT_MAGIC.encode(out);
        self.version.encode(out);
        self.channel.encode(out);
        self.controller.encode(out);
        self.now.encode(out);
        self.seq.encode(out);
        self.queue.encode(out);
        self.pending_tx.encode(out);
        self.resolve_scheduled.encode(out);
        self.modes.encode(out);
        self.incarnations.encode(out);
        self.rngs.encode(out);
        self.churn_rng.encode(out);
        self.fading_rng.encode(out);
        self.jitter_rng.encode(out);
        self.jam_rng.encode(out);
        self.stats.encode(out);
        self.trace_hash.encode(out);
        self.trace.encode(out);
        self.behaviors.encode(out);
        self.params.encode(out);
        self.config.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        if u32::decode(input)? != CHECKPOINT_MAGIC {
            return Err(CodecError::Invalid("checkpoint magic"));
        }
        let version = u32::decode(input)?;
        if version != CHECKPOINT_VERSION {
            return Err(CodecError::Invalid("checkpoint version"));
        }
        Ok(Checkpoint {
            version,
            channel: u64::decode(input)?,
            controller: u64::decode(input)?,
            now: Tick::decode(input)?,
            seq: u64::decode(input)?,
            queue: Codec::decode(input)?,
            pending_tx: Codec::decode(input)?,
            resolve_scheduled: bool::decode(input)?,
            modes: Codec::decode(input)?,
            incarnations: Vec::<u32>::decode(input)?,
            rngs: Codec::decode(input)?,
            churn_rng: Codec::decode(input)?,
            fading_rng: Codec::decode(input)?,
            jitter_rng: Codec::decode(input)?,
            jam_rng: Codec::decode(input)?,
            stats: Codec::decode(input)?,
            trace_hash: u64::decode(input)?,
            trace: Codec::decode(input)?,
            behaviors: Codec::decode(input)?,
            params: Codec::decode(input)?,
            config: Codec::decode(input)?,
        })
    }
}

impl<B> Checkpoint<B> {
    /// The channel signature recorded when the snapshot was taken (0 for
    /// static backends).
    pub fn channel_signature(&self) -> u64 {
        self.channel
    }

    /// The controller signature recorded when the snapshot was taken (0
    /// when no controller was steering the run).
    pub fn controller_signature(&self) -> u64 {
        self.controller
    }
}

impl<B: Codec> Checkpoint<B> {
    /// Serializes the checkpoint to bytes with the hand-rolled codec
    /// (see [`crate::codec`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        crate::codec::to_bytes(self)
    }

    /// Deserializes a checkpoint from bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated, corrupt, or
    /// version-mismatched input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        crate::codec::from_bytes(bytes)
    }
}

/// The deterministic discrete-event simulation engine.
///
/// The [crate docs](crate) outline the execution model and give a
/// quickstart.
pub struct Engine<B> {
    backend: Box<dyn DecayBackend>,
    behaviors: Vec<B>,
    params: SinrParams,
    config: EngineConfig,
    now: Tick,
    seq: u64,
    queue: EventQueue,
    /// Transmissions of the current tick, awaiting resolution.
    pending_tx: Vec<(NodeId, f64, u64)>,
    resolve_scheduled: bool,
    modes: Vec<NodeMode>,
    incarnations: Vec<u32>,
    rngs: Vec<EngineRng>,
    churn_rng: EngineRng,
    fading_rng: EngineRng,
    jitter_rng: EngineRng,
    jam_rng: EngineRng,
    stats: EngineStats,
    trace_hash: u64,
    trace: Vec<DeliveryRecord>,
    /// Signature of the controller steering this run (0 = none);
    /// recorded into checkpoints.
    controller: u64,
    /// Scratch command buffer, reused across callbacks.
    scratch: Vec<Command>,
    /// Hot-path telemetry sink (always-on counters; strictly
    /// observational, never checkpointed — see [`crate::telemetry`]).
    telemetry: Counters,
    /// Flight-recorder event ring (off by default; see
    /// [`Self::enable_event_log`]). Runtime state, not configuration:
    /// deliberately outside [`EngineConfig`] so checkpoint format v4
    /// is untouched.
    event_log: Option<Ring<crate::telemetry::EventRecord>>,
    /// Resolve scratch, reused across ticks and never checkpointed:
    /// per-node "transmits this tick" flags (set and cleared within one
    /// resolution round), one reach query's `(receiver, decay)` list,
    /// the `(pair key, decay)` list in scan order, its indices grouped
    /// by listener and the grouping's `n + 1` prefix counts (see
    /// [`Self::resolve_pairs`]), and one listener group's received
    /// powers.
    transmitting: Vec<bool>,
    reach_buf: Vec<(NodeId, f64)>,
    pairs: Vec<(u64, f64)>,
    order: Vec<u32>,
    starts: Vec<u32>,
    rx: Vec<(usize, f64)>,
}

impl<B> fmt::Debug for Engine<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("nodes", &self.modes.len())
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Compile-time `Send` audit: an engine is one self-contained unit of
/// work that a serving layer parks, resumes, and migrates across worker
/// threads, so `Engine<B>` must be `Send` whenever its behaviors are.
/// If a field ever regresses (an `Rc`, a non-`Send` trait object, a
/// thread-pinned cache), this stops compiling.
fn _assert_engine_is_send<B: Send>() {
    fn assert_send<T: Send>() {}
    assert_send::<Engine<B>>();
    assert_send::<Checkpoint<B>>();
}

/// FNV-1a over one delivery tuple, folded into the rolling hash.
fn fold_delivery(hash: u64, tick: Tick, sent: Tick, from: NodeId, to: NodeId, message: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = hash;
    for word in [tick, sent, from.index() as u64, to.index() as u64, message] {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

impl<B: EventBehavior> Engine<B> {
    /// Creates an engine; `behaviors[i]` drives node `i`. Every node
    /// starts up (mode [`NodeMode::Sleeping`] until its `on_start` says
    /// otherwise); `on_start` runs immediately, at tick 0.
    ///
    /// # Errors
    ///
    /// Returns an error if the behavior count does not match the backend
    /// or the configuration is degenerate.
    pub fn new(
        backend: impl DecayBackend + 'static,
        behaviors: Vec<B>,
        params: SinrParams,
        config: EngineConfig,
        seed: u64,
    ) -> Result<Self, EngineError> {
        config.validate()?;
        let n = backend.len();
        if behaviors.len() != n {
            return Err(EngineError::BehaviorCountMismatch {
                nodes: n,
                behaviors: behaviors.len(),
            });
        }
        let mut engine = Engine {
            backend: Box::new(backend),
            behaviors,
            params,
            now: 0,
            seq: 0,
            queue: EventQueue::default(),
            pending_tx: Vec::new(),
            resolve_scheduled: false,
            modes: vec![NodeMode::Sleeping; n],
            incarnations: vec![0; n],
            rngs: (0..n)
                .map(|i| EngineRng::for_stream(seed, STREAM_NODE_BASE + i as u64))
                .collect(),
            churn_rng: EngineRng::for_stream(seed, STREAM_CHURN),
            fading_rng: EngineRng::for_stream(seed, STREAM_FADING),
            jitter_rng: EngineRng::for_stream(seed, STREAM_JITTER),
            jam_rng: EngineRng::for_stream(seed, STREAM_JAM),
            stats: EngineStats::default(),
            trace_hash: 0xCBF2_9CE4_8422_2325, // FNV-1a offset basis
            trace: Vec::new(),
            controller: 0,
            scratch: Vec::new(),
            telemetry: Counters::new(),
            event_log: None,
            transmitting: vec![false; n],
            reach_buf: Vec::new(),
            pairs: Vec::new(),
            order: Vec::new(),
            starts: Vec::new(),
            rx: Vec::new(),
            config,
        };
        for i in 0..n {
            engine.with_ctx(i, |b, ctx| b.on_start(ctx));
        }
        if let Some(churn) = engine.config.churn {
            engine.push_event(churn.interval, Event::ChurnStep);
        }
        Ok(engine)
    }

    /// Restores an engine from a checkpoint; the backend must describe
    /// the same space the checkpoint was taken over (same node count and
    /// channel signature at minimum — decay values are the caller's
    /// responsibility, since backends are not serializable).
    ///
    /// A checkpoint taken under a [`crate::probe::Controller`] carries
    /// that controller's signature; callers resuming such a run should
    /// use [`Self::restore_with_controller`] so the identity is
    /// verified, not just carried along.
    ///
    /// # Errors
    ///
    /// Returns an error if the backend's node count or channel signature
    /// does not match the checkpoint, or
    /// [`EngineError::InvalidCheckpoint`] if the checkpoint's own state
    /// is inconsistent.
    pub fn restore(
        backend: impl DecayBackend + 'static,
        checkpoint: Checkpoint<B>,
    ) -> Result<Self, EngineError> {
        if backend.len() != checkpoint.modes.len() {
            return Err(EngineError::BehaviorCountMismatch {
                nodes: backend.len(),
                behaviors: checkpoint.modes.len(),
            });
        }
        if backend.channel_signature() != checkpoint.channel {
            return Err(EngineError::ChannelMismatch {
                expected: checkpoint.channel,
                found: backend.channel_signature(),
            });
        }
        checkpoint.validate()?;
        let n = checkpoint.modes.len();
        let mut engine = Engine {
            backend: Box::new(backend),
            behaviors: checkpoint.behaviors,
            params: checkpoint.params,
            config: checkpoint.config,
            now: checkpoint.now,
            seq: checkpoint.seq,
            queue: checkpoint.queue.into_iter().collect(),
            pending_tx: checkpoint.pending_tx,
            resolve_scheduled: checkpoint.resolve_scheduled,
            modes: checkpoint.modes,
            incarnations: checkpoint.incarnations,
            rngs: checkpoint.rngs,
            churn_rng: checkpoint.churn_rng,
            fading_rng: checkpoint.fading_rng,
            jitter_rng: checkpoint.jitter_rng,
            jam_rng: checkpoint.jam_rng,
            stats: checkpoint.stats,
            trace_hash: checkpoint.trace_hash,
            trace: checkpoint.trace,
            controller: checkpoint.controller,
            scratch: Vec::new(),
            // Telemetry restarts from zero at a restore: counters are
            // observational, not checkpointed. The high-water mark
            // keeps whatever the checkpoint carried (zero after a byte
            // round-trip — the codec drops it) but never reads below
            // the rebuilt queue's current depth.
            telemetry: Counters::new(),
            event_log: None,
            transmitting: vec![false; n],
            reach_buf: Vec::new(),
            pairs: Vec::new(),
            order: Vec::new(),
            starts: Vec::new(),
            rx: Vec::new(),
        };
        engine.stats.queue_high_water =
            engine.stats.queue_high_water.max(engine.queue.len() as u64);
        Ok(engine)
    }

    /// [`Self::restore`], additionally verifying that the checkpoint was
    /// taken under a controller with signature `controller_signature`
    /// (0 = no controller). Controller decisions are part of the
    /// trace-defining configuration, so resuming under a different one
    /// would silently diverge — this refuses instead.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ControllerMismatch`] on a signature
    /// mismatch, plus every error [`Self::restore`] can return.
    pub fn restore_with_controller(
        backend: impl DecayBackend + 'static,
        checkpoint: Checkpoint<B>,
        controller_signature: u64,
    ) -> Result<Self, EngineError> {
        if checkpoint.controller != controller_signature {
            return Err(EngineError::ControllerMismatch {
                expected: checkpoint.controller,
                found: controller_signature,
            });
        }
        Self::restore(backend, checkpoint)
    }

    /// Snapshots the complete engine state. Call between [`Self::run_until`]
    /// calls; the snapshot is self-contained modulo the backend.
    pub fn checkpoint(&self) -> Checkpoint<B>
    where
        B: Clone,
    {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            channel: self.backend.channel_signature(),
            controller: self.controller,
            now: self.now,
            seq: self.seq,
            queue: self.queue.to_sorted_vec(),
            pending_tx: self.pending_tx.clone(),
            resolve_scheduled: self.resolve_scheduled,
            modes: self.modes.clone(),
            incarnations: self.incarnations.clone(),
            rngs: self.rngs.clone(),
            churn_rng: self.churn_rng.clone(),
            fading_rng: self.fading_rng.clone(),
            jitter_rng: self.jitter_rng.clone(),
            jam_rng: self.jam_rng.clone(),
            stats: self.stats,
            trace_hash: self.trace_hash,
            trace: self.trace.clone(),
            behaviors: self.behaviors.clone(),
            params: self.params,
            config: self.config.clone(),
        }
    }

    /// Processes every event with firing tick `≤ end`, then advances the
    /// clock to `end`. Returns the cumulative stats.
    pub fn run_until(&mut self, end: Tick) -> EngineStats {
        let mut dispatched = 0u64;
        // Timers at batch granularity only: one Dispatch span per drive
        // step (resolve time nested inside it) and one Resolve span per
        // resolution round. Per-event clock reads would cost ~25% of
        // the 3.8M ev/s static path; this costs two reads per rare
        // event kind and keeps the enabled-timing overhead within the
        // CI budget.
        let drive = self.telemetry.timer_start();
        while let Some(qe) = self.queue.pop_through(end) {
            self.now = qe.tick;
            self.stats.events += 1;
            dispatched += 1;
            if let Some(log) = self.event_log.as_mut() {
                log.push(crate::telemetry::EventRecord::of(qe.tick, &qe.event));
            }
            if matches!(qe.event, Event::Resolve) {
                let timer = self.telemetry.timer_start();
                self.dispatch(qe.event);
                self.telemetry.timer_stop(Timer::Resolve, timer);
            } else {
                self.dispatch(qe.event);
            }
        }
        self.telemetry.timer_stop(Timer::Dispatch, drive);
        // One batched add per drive step keeps the telemetry cost off
        // the per-event path.
        self.telemetry.add(Counter::Events, dispatched);
        self.now = self.now.max(end);
        self.stats
    }

    /// Runs `dt` more ticks (see [`Self::run_until`]).
    pub fn run_for(&mut self, dt: Tick) -> EngineStats {
        self.run_until(self.now + dt)
    }

    /// The current tick.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.modes.len()
    }

    /// Whether the engine has no nodes (never true for constructed
    /// engines; for API completeness).
    pub fn is_empty(&self) -> bool {
        self.modes.is_empty()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Read access to a node's behavior.
    pub fn behavior(&self, node: NodeId) -> &B {
        &self.behaviors[node.index()]
    }

    /// Write access to a node's behavior — the hook
    /// [`crate::probe::Directive`]s are applied through.
    ///
    /// Mutating behaviors between [`Self::run_until`] calls is part of
    /// the trace-defining configuration: the change is captured by
    /// subsequent checkpoints (behavior state is serialized), but
    /// reproducing the run from scratch requires re-applying the same
    /// mutations at the same ticks — which is exactly what a
    /// grid-aligned [`crate::probe::Controller`] guarantees.
    pub fn behavior_mut(&mut self, node: NodeId) -> &mut B {
        &mut self.behaviors[node.index()]
    }

    /// Declares the signature of the controller steering this run (see
    /// [`crate::probe::Controller::signature`]); recorded into every
    /// subsequent checkpoint. Call once, before running.
    pub fn set_controller_signature(&mut self, signature: u64) {
        self.controller = signature;
    }

    /// The controller signature this run was declared under (0 = none).
    pub fn controller_signature(&self) -> u64 {
        self.controller
    }

    /// Raises the queue high-water mark to at least `prior`. The mark is
    /// display-only and outside the checkpoint codec, so a resumed run
    /// restarts it from the restore point; callers that know the
    /// pre-split peak (e.g. a scenario runner cycling through bytes)
    /// carry it across with this method.
    pub fn note_queue_high_water(&mut self, prior: u64) {
        self.stats.queue_high_water = self.stats.queue_high_water.max(prior);
    }

    /// A node's current radio mode.
    pub fn mode(&self, node: NodeId) -> NodeMode {
        self.modes[node.index()]
    }

    /// Whether the node is currently up (not churned out).
    pub fn is_up(&self, node: NodeId) -> bool {
        self.modes[node.index()] != NodeMode::Down
    }

    /// The rolling FNV-1a hash over every delivery
    /// `(tick, from, to, message)` so far — equal hashes mean equal
    /// delivery traces, without storing them.
    pub fn trace_hash(&self) -> u64 {
        self.trace_hash
    }

    /// The recorded deliveries (empty unless
    /// [`EngineConfig::record_trace`] is set).
    pub fn trace(&self) -> &[DeliveryRecord] {
        &self.trace
    }

    /// Takes the recorded deliveries accumulated since construction (or
    /// the last drain), leaving the buffer empty — the streaming hook for
    /// metrics collectors on runs too long to hold a full trace. The
    /// rolling [`Self::trace_hash`] is unaffected; note that a
    /// [`Checkpoint`] only captures records not yet drained.
    pub fn drain_trace(&mut self) -> Vec<DeliveryRecord> {
        std::mem::take(&mut self.trace)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The SINR parameters in force.
    pub fn params(&self) -> SinrParams {
        self.params
    }

    /// The backend being simulated.
    pub fn backend(&self) -> &dyn DecayBackend {
        &*self.backend
    }

    /// Pending events (diagnostic).
    pub fn queued_events(&self) -> usize {
        self.queue.len()
    }

    /// The engine's hot-path telemetry sink. Owned by the engine (no
    /// two runs share counters) and strictly observational: nothing
    /// here feeds back into the trace. Backend-side counters live in
    /// the backend's own sink (see [`DecayBackend::telemetry`]).
    pub fn telemetry(&self) -> &Counters {
        &self.telemetry
    }

    /// Arms wall-clock timeline-span recording on the engine's sink and
    /// the backend's (when it has one). Spans only actually record in
    /// `telemetry-timing` builds; like the event log, arming is runtime
    /// state that cannot change checkpoints, traces, or digests.
    pub fn arm_spans(&self) {
        self.telemetry.arm_spans();
        if let Some(t) = self.backend.telemetry() {
            t.arm_spans();
        }
    }

    /// Drains every recorded timeline span from the engine's and the
    /// backend's sinks, merged in start order. Always empty unless
    /// [`Self::arm_spans`] ran on a `telemetry-timing` build.
    pub fn take_spans(&self) -> Vec<SpanEvent> {
        let mut spans = self.telemetry.take_spans();
        if let Some(t) = self.backend.telemetry() {
            spans.extend(t.take_spans());
        }
        spans.sort_by_key(|s| (s.start_ns, s.tid));
        spans
    }

    /// Turns on the flight-recorder event ring: the last `capacity`
    /// dispatched events are retained for [`Self::recent_events`].
    /// Runtime state, deliberately not an [`EngineConfig`] field —
    /// enabling it cannot change checkpoints, traces, or digests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_event_log(&mut self, capacity: usize) {
        self.event_log = Some(Ring::new(capacity));
    }

    /// The most recent dispatched events, oldest first (empty unless
    /// [`Self::enable_event_log`] was called).
    pub fn recent_events(&self) -> Vec<crate::telemetry::EventRecord> {
        self.event_log
            .as_ref()
            .map(|log| log.iter().copied().collect())
            .unwrap_or_default()
    }

    fn push_event(&mut self, tick: Tick, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QueuedEvent::new(tick, seq, event));
        let depth = self.queue.len() as u64;
        if depth > self.stats.queue_high_water {
            self.stats.queue_high_water = depth;
        }
    }

    /// Runs a behavior callback for node `i` with a fresh context, then
    /// applies the buffered commands.
    fn with_ctx<F: FnOnce(&mut B, &mut NodeCtx<'_>)>(&mut self, i: usize, f: F) {
        let mut cmds = std::mem::take(&mut self.scratch);
        {
            let mut ctx = NodeCtx {
                node: NodeId::new(i),
                nodes: self.modes.len(),
                now: self.now,
                rng: &mut self.rngs[i],
                commands: &mut cmds,
            };
            f(&mut self.behaviors[i], &mut ctx);
        }
        self.apply_commands(NodeId::new(i), &mut cmds);
        cmds.clear();
        self.scratch = cmds;
    }

    fn apply_commands(&mut self, node: NodeId, cmds: &mut Vec<Command>) {
        for cmd in cmds.drain(..) {
            match cmd {
                Command::Transmit { power, message } => {
                    if !self.resolve_scheduled {
                        self.push_event(self.now, Event::Resolve);
                        self.resolve_scheduled = true;
                    }
                    self.pending_tx.push((node, power, message));
                }
                Command::Listen => self.modes[node.index()] = NodeMode::Listening,
                Command::Sleep => self.modes[node.index()] = NodeMode::Sleeping,
                Command::WakeAt { tick } => {
                    let incarnation = self.incarnations[node.index()];
                    self.push_event(tick, Event::Wake { node, incarnation });
                }
            }
        }
    }

    /// The tick until which `node` is down per the fault plan, if it is
    /// down at `tick`; `None` when it is up. `Tick::MAX` means a
    /// permanent crash.
    fn fault_until(&self, node: NodeId, tick: Tick) -> Option<Tick> {
        let slot = usize::try_from(tick).unwrap_or(usize::MAX);
        self.config
            .faults
            .outages()
            .iter()
            .filter(|o| o.node == node && o.covers(slot))
            .map(|o| {
                if o.until_slot == usize::MAX {
                    Tick::MAX
                } else {
                    o.until_slot as Tick
                }
            })
            .max()
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Wake { node, incarnation } => {
                let i = node.index();
                if self.incarnations[i] != incarnation || self.modes[i] == NodeMode::Down {
                    return;
                }
                if let Some(until) = self.fault_until(node, self.now) {
                    // Frozen by the fault plan: resume at the outage end
                    // (drop permanently for a crash).
                    if until != Tick::MAX {
                        self.push_event(until, Event::Wake { node, incarnation });
                    }
                    return;
                }
                self.stats.wakes += 1;
                self.with_ctx(i, |b, ctx| b.on_wake(ctx));
            }
            Event::Resolve => self.resolve_tick(),
            Event::Deliver {
                to,
                from,
                message,
                power,
                incarnation,
                sent,
            } => {
                let i = to.index();
                if self.incarnations[i] != incarnation
                    || self.modes[i] != NodeMode::Listening
                    || self.fault_until(to, self.now).is_some()
                {
                    self.stats.dropped_deliveries += 1;
                    return;
                }
                self.stats.deliveries += 1;
                self.trace_hash = fold_delivery(self.trace_hash, self.now, sent, from, to, message);
                if self.config.record_trace {
                    self.trace.push(DeliveryRecord {
                        tick: self.now,
                        sent,
                        from,
                        to,
                        message,
                    });
                }
                self.with_ctx(i, |b, ctx| b.on_receive(ctx, from, message, power));
            }
            Event::ChurnStep => {
                let Some(churn) = self.config.churn else {
                    return;
                };
                let n = self.modes.len();
                let i = self.churn_rng.gen_range(0..n);
                let u: f64 = self.churn_rng.gen_range(0.0..1.0);
                if self.modes[i] == NodeMode::Down {
                    if u < churn.join_prob {
                        self.incarnations[i] += 1;
                        self.modes[i] = NodeMode::Sleeping;
                        self.stats.churn_joins += 1;
                        self.with_ctx(i, |b, ctx| b.on_start(ctx));
                    }
                } else if u < churn.leave_prob {
                    self.modes[i] = NodeMode::Down;
                    self.stats.churn_leaves += 1;
                }
                self.push_event(self.now + churn.interval, Event::ChurnStep);
            }
        }
    }

    /// Resolves all transmissions of the current tick under SINR and
    /// schedules the resulting deliveries.
    fn resolve_tick(&mut self) {
        self.resolve_scheduled = false;
        let txs = std::mem::take(&mut self.pending_tx);
        if txs.is_empty() {
            return;
        }
        self.stats.transmissions += txs.len() as u64;
        self.telemetry.add(Counter::ResolveTicks, 1);
        let jammed = match self.config.jamming {
            JamSchedule::None => false,
            JamSchedule::Periodic { period } => self.now.is_multiple_of(period),
            JamSchedule::Random { prob } => self.jam_rng.gen_range(0.0..1.0) < prob,
        };
        let mut per_tx_receivers: Vec<Vec<NodeId>> = vec![Vec::new(); txs.len()];
        if jammed {
            self.stats.jammed_ticks += 1;
        } else {
            self.resolve_pairs(&txs, &mut per_tx_receivers);
        }
        // Transmit-result callbacks, in transmission order.
        for (k, &(t, _, _)) in txs.iter().enumerate() {
            let receivers = std::mem::take(&mut per_tx_receivers[k]);
            if self.modes[t.index()] == NodeMode::Down {
                continue;
            }
            self.with_ctx(t.index(), |b, ctx| {
                b.on_transmit_result(ctx, &receivers);
            });
        }
    }

    /// SINR resolution for one tick's transmissions, in one serial
    /// pass whose order is the determinism contract:
    ///
    /// 0. **View advance**: the backend moves its tick-scoped view
    ///    ([`DecayBackend::advance_to`]) to the current tick.
    /// 1. **Reach scans**, in transmission order: each
    ///    [`DecayBackend::reach_at`] query yields its receivers with the
    ///    decays they were filtered on, collected as `(key, decay)`
    ///    pairs — listener id in the high 32 bits, tx index in the low
    ///    32 — and grouped by listener with a stable counting sort
    ///    ([`group_by_listener`]). The scan appends in tx order, so each
    ///    listener's candidates form one group in tx order: the order a
    ///    sort by key would give, without comparisons.
    /// 2. **Per listener group**, ascending listener id: a listener that
    ///    is not listening, is inside an outage, or transmits this tick
    ///    is skipped. Otherwise each pair draws its Rayleigh fade (before
    ///    top-k pruning) and reads its carried decay, and the strongest
    ///    signal is tested against SINR.
    /// 3. **Per won reception**: the latency jitter draw and the
    ///    delivery event. Fades and jitter come from separate streams,
    ///    so both draw sequences are fixed by the group order alone.
    fn resolve_pairs(&mut self, txs: &[(NodeId, f64, u64)], per_tx_receivers: &mut [Vec<NodeId>]) {
        let mut reach = std::mem::take(&mut self.reach_buf);
        let mut pairs = std::mem::take(&mut self.pairs);
        let mut order = std::mem::take(&mut self.order);
        let mut rx = std::mem::take(&mut self.rx);
        pairs.clear();
        assert!(
            self.modes.len() <= u32::MAX as usize && txs.len() <= u32::MAX as usize,
            "pair keys hold 32-bit listener and transmission indices"
        );
        self.backend.advance_to(self.now);
        for (k, &(t, _, _)) in txs.iter().enumerate() {
            reach.clear();
            self.backend
                .reach_at(self.now, t, self.config.reach_decay, &mut reach);
            pairs.extend(
                reach
                    .iter()
                    .map(|&(v, decay)| (((v.index() as u64) << 32) | k as u64, decay)),
            );
            self.transmitting[t.index()] = true;
        }
        self.telemetry.add(Counter::ReachScans, txs.len() as u64);
        self.telemetry.add(Counter::SinrPairs, pairs.len() as u64);
        group_by_listener(&pairs, self.modes.len(), &mut self.starts, &mut order);

        let listener = |i: u32| pairs[i as usize].0 >> 32;
        let mut decay_calls = 0u64;
        for group in order.chunk_by(|&a, &b| listener(a) == listener(b)) {
            let v = NodeId::new(listener(group[0]) as usize);
            if self.modes[v.index()] != NodeMode::Listening
                || self.transmitting[v.index()]
                || self.fault_until(v, self.now).is_some()
            {
                continue;
            }
            // Received power from each in-reach concurrent transmitter
            // (out-of-reach interference is below the reach cutoff by
            // construction).
            rx.clear();
            decay_calls += group.len() as u64;
            for &i in group {
                let (key, decay) = pairs[i as usize];
                let k = (key & u64::from(u32::MAX)) as usize;
                let (_, power, _) = txs[k];
                let fade = match self.config.reception {
                    ReceptionModel::Threshold => 1.0,
                    // Unit-mean exponential via inverse CDF, as in the
                    // slot simulator.
                    ReceptionModel::Rayleigh => -(1.0 - self.fading_rng.gen::<f64>()).ln(),
                };
                rx.push((k, fade * power / decay));
            }
            // Top-k affectance pruning: keep only the k strongest signals
            // in the SINR denominator. Stable sort keeps the earliest
            // transmitter first among ties.
            if let Some(keep) = self.config.top_k {
                if rx.len() > keep {
                    rx.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(CmpOrdering::Equal));
                    rx.truncate(keep);
                }
            }
            // First strict maximum wins ties, as in the slot simulator.
            let (mut best_k, mut best_p) = rx[0];
            let mut total = 0.0;
            for &(k, p) in &rx {
                total += p;
                if p > best_p {
                    best_k = k;
                    best_p = p;
                }
            }
            let interference = total - best_p + self.params.noise();
            let sinr = if interference > 0.0 {
                best_p / interference
            } else {
                f64::INFINITY
            };
            if sinr >= self.params.beta() * (1.0 - 1e-12) {
                let delay = match self.config.latency {
                    LatencyModel::Immediate => 0,
                    LatencyModel::Fixed { ticks } => ticks,
                    LatencyModel::Jittered { base, jitter } => {
                        base + if jitter == 0 {
                            0
                        } else {
                            self.jitter_rng.gen_range(0..=jitter)
                        }
                    }
                };
                let (from, _, message) = txs[best_k];
                self.push_event(
                    self.now + delay,
                    Event::Deliver {
                        to: v,
                        from,
                        message,
                        power: best_p,
                        incarnation: self.incarnations[v.index()],
                        sent: self.now,
                    },
                );
                per_tx_receivers[best_k].push(v);
            }
        }
        for &(t, _, _) in txs {
            self.transmitting[t.index()] = false;
        }
        self.telemetry.add(Counter::DecayCalls, decay_calls);
        self.reach_buf = reach;
        self.pairs = pairs;
        self.order = order;
        self.rx = rx;
    }
}

/// Fills `order` with the indices of `pairs` grouped by listener (the
/// key's high 32 bits, below `n`), ascending listener id, each
/// listener's pairs in input order: a stable counting sort with
/// `starts` as scratch for its `n + 1` prefix counts. Indices keep the
/// scatter buffer at 4 bytes a pair.
///
/// # Panics
///
/// Panics if there are `u32::MAX` pairs or more.
fn group_by_listener(pairs: &[(u64, f64)], n: usize, starts: &mut Vec<u32>, order: &mut Vec<u32>) {
    assert!(pairs.len() < u32::MAX as usize, "32-bit pair offsets");
    starts.clear();
    starts.resize(n + 1, 0);
    for &(key, _) in pairs {
        starts[(key >> 32) as usize + 1] += 1;
    }
    // Inclusive sums of the shifted counts: `starts[v]` becomes where
    // listener `v`'s group begins.
    let mut sum = 0;
    for start in starts.iter_mut() {
        sum += *start;
        *start = sum;
    }
    order.clear();
    order.resize(pairs.len(), 0);
    for (i, &(key, _)) in pairs.iter().enumerate() {
        let slot = &mut starts[(key >> 32) as usize];
        order[*slot as usize] = i as u32;
        *slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::LazyBackend;

    /// Wakes every tick and transmits half the time.
    #[derive(Clone)]
    struct Chatty;

    impl EventBehavior for Chatty {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.listen();
            ctx.wake_in(1);
        }

        fn on_wake(&mut self, ctx: &mut NodeCtx<'_>) {
            if ctx.rng.gen_range(0.0..1.0) < 0.5 {
                ctx.transmit(1.0, 0);
                ctx.listen();
            }
            ctx.wake_in(1);
        }
    }

    const N: usize = 8;

    fn line() -> LazyBackend {
        LazyBackend::from_fn(N, |i, j| (i as f64 - j as f64).powi(2))
    }

    /// A real mid-run checkpoint: wakes, delayed deliveries and a churn
    /// step are in its queue.
    fn checkpoint() -> Checkpoint<Chatty> {
        let config = EngineConfig {
            reach_decay: Some(9.0),
            latency: LatencyModel::Fixed { ticks: 2 },
            churn: Some(ChurnConfig {
                interval: 3,
                leave_prob: 0.1,
                join_prob: 0.5,
            }),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(line(), vec![Chatty; N], SinrParams::default(), config, 7)
            .expect("valid config");
        engine.run_until(10);
        let cp = engine.checkpoint();
        assert!(cp
            .queue
            .iter()
            .any(|qe| matches!(qe.event, Event::Deliver { .. })));
        cp
    }

    /// The reason `restore` refused `cp` with.
    fn refusal(cp: Checkpoint<Chatty>) -> String {
        match Engine::restore(line(), cp) {
            Err(EngineError::InvalidCheckpoint { reason }) => reason,
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("restore accepted an inconsistent checkpoint"),
        }
    }

    #[test]
    fn restore_rejects_a_zero_churn_interval() {
        let mut cp = checkpoint();
        cp.config.churn.as_mut().expect("churn on").interval = 0;
        assert!(refusal(cp).contains("churn interval"));
    }

    #[test]
    fn restore_rejects_top_k_zero() {
        let mut cp = checkpoint();
        cp.config.top_k = Some(0);
        assert!(refusal(cp).contains("top_k"));
    }

    #[test]
    fn restore_rejects_short_incarnations() {
        let mut cp = checkpoint();
        cp.incarnations.pop();
        assert!(refusal(cp).contains("incarnations"));
    }

    #[test]
    fn restore_rejects_short_behaviors() {
        let mut cp = checkpoint();
        cp.behaviors.pop();
        assert!(refusal(cp).contains("behaviors"));
    }

    #[test]
    fn restore_rejects_short_rngs() {
        let mut cp = checkpoint();
        cp.rngs.pop();
        assert!(refusal(cp).contains("rngs"));
    }

    #[test]
    fn restore_rejects_an_out_of_range_queued_node() {
        let mut cp = checkpoint();
        let deliver = cp
            .queue
            .iter_mut()
            .find(|qe| matches!(qe.event, Event::Deliver { .. }))
            .expect("a delivery in flight");
        if let Event::Deliver { from, .. } = &mut deliver.event {
            *from = NodeId::new(N);
        }
        assert!(refusal(cp).contains("out of range"));
    }

    #[test]
    fn restore_rejects_a_queued_event_before_now() {
        let mut cp = checkpoint();
        cp.queue[0].tick = cp.now - 1;
        assert!(refusal(cp).contains("outside tick"));
    }

    #[test]
    fn restore_rejects_a_queued_seq_past_the_next_seq() {
        let mut cp = checkpoint();
        cp.queue[0].seq = cp.seq;
        assert!(refusal(cp).contains("outside tick"));
    }

    #[test]
    fn restore_rejects_a_repeated_queued_seq() {
        let mut cp = checkpoint();
        cp.queue[1].seq = cp.queue[0].seq;
        assert!(refusal(cp).contains("repeated"));
    }

    #[test]
    fn restore_accepts_a_queued_event_at_now() {
        let mut cp = checkpoint();
        cp.queue[0].tick = cp.now;
        assert!(Engine::restore(line(), cp).is_ok());
    }

    /// `group_by_listener` against the sort it replaced, on random pairs
    /// from `txs` transmitters to `n` listeners, appended per
    /// transmitter as a reach scan appends them: each listener at most
    /// once per transmitter.
    fn grouping_matches_the_sort(seed: u64, n: usize, txs: usize) {
        let mut rng = EngineRng::for_stream(seed, 0);
        let mut pairs = Vec::new();
        for k in 0..txs as u64 {
            for v in 0..n as u64 {
                if rng.gen_range(0..4) == 0 {
                    pairs.push(((v << 32) | k, rng.gen::<f64>()));
                }
            }
        }
        let mut sorted = pairs.clone();
        sorted.sort_unstable_by_key(|&(key, _)| key);
        let (mut starts, mut order) = (Vec::new(), vec![7]);
        group_by_listener(&pairs, n, &mut starts, &mut order);
        let grouped: Vec<(u64, f64)> = order.iter().map(|&i| pairs[i as usize]).collect();
        assert_eq!(grouped, sorted, "seed {seed}, {n} listeners, {txs} txs");
    }

    proptest::proptest! {
        #[test]
        fn grouping_matches_the_sort_on_random_pairs(
            seed in 0u64..u64::MAX,
            n in 1usize..40,
            txs in 0usize..12,
        ) {
            grouping_matches_the_sort(seed, n, txs);
        }
    }

    #[test]
    fn grouping_handles_empty_single_and_last_listener_sets() {
        let (mut starts, mut order) = (Vec::new(), Vec::new());
        group_by_listener(&[], 5, &mut starts, &mut order);
        assert!(order.is_empty());
        group_by_listener(&[((4 << 32) | 2, 1.5)], 5, &mut starts, &mut order);
        assert_eq!(order, [0]);
        // Listener n − 1 ahead of listener 0 in scan order, twice over.
        let pairs = [(4 << 32, 1.0), (0, 2.0), ((4 << 32) | 1, 3.0), (1, 4.0)];
        group_by_listener(&pairs, 5, &mut starts, &mut order);
        assert_eq!(order, [1, 3, 0, 2]);
        grouping_matches_the_sort(3, 1, 6);
    }

    #[test]
    fn restore_rejects_an_out_of_range_pending_transmitter() {
        let mut cp = checkpoint();
        cp.pending_tx.push((NodeId::new(N + 3), 1.0, 0));
        assert!(refusal(cp).contains("out of range"));
    }
}
