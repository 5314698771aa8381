//! Slot-synchronous protocols on the event engine.
//!
//! [`SlotAdapter::engine`] runs unmodified [`decay_netsim::NodeBehavior`]
//! protocols (broadcast, coloring, dominating set, gossip, ...) on a
//! dense backend. Each adapter wakes its node every tick, asks the
//! wrapped behavior for its slot action, and translates it into engine
//! commands. This is lockstep execution, so every node pays one wake per
//! tick; protocols wanting the sparse-wake speedup implement
//! [`crate::EventBehavior`] natively instead (see
//! `decay_distributed::run_local_broadcast_event`).
//!
//! A tick is a slot: same-tick transmissions contend under the engine's
//! SINR capture rule, and a node inside a [`decay_netsim::FaultPlan`]
//! outage neither acts nor receives. The random streams are fixed
//! here, in one place. Node `i` draws its slot decisions from its
//! adapter's own stream, seeded `seed ^ i·φ`, and the engine's fading
//! stream is seeded `seed ^ FADING_SALT`. Slot runs use no churn,
//! jitter or jamming streams. Ticks go in id order, except that a node
//! back from an outage of two slots or more transmits first in its tick:
//! its wake was re-queued when the outage began.

use decay_core::{DecaySpace, NodeId};
use decay_netsim::{Action, NodeBehavior, SlotContext};
use decay_sinr::SinrParams;

use crate::backend::DenseBackend;
use crate::engine::{Engine, EngineConfig, EngineError, EventBehavior, NodeCtx, STREAM_FADING};
use crate::rng::EngineRng;

/// The golden-ratio multiplier that spreads node indices over seeds.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Salt of a slot run's fading stream.
const FADING_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// Wraps a [`NodeBehavior`] so it runs on the event engine, with the
/// node's own decision stream. Built only by [`SlotAdapter::engine`].
///
/// It has no checkpoint codec: nothing checkpoints a slot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotAdapter<B> {
    inner: B,
    rng: EngineRng,
}

impl<B: NodeBehavior> SlotAdapter<B> {
    /// Builds an engine that runs `behaviors[i]` as node `i` of `space`,
    /// one slot per tick from tick 0. `config` carries the reception
    /// model, the fault plan and trace recording; slot semantics assume
    /// its other fields keep their defaults.
    ///
    /// # Errors
    ///
    /// Returns an error if the behavior count does not match the space
    /// or the configuration is degenerate.
    pub fn engine(
        space: DecaySpace,
        behaviors: Vec<B>,
        params: SinrParams,
        config: EngineConfig,
        seed: u64,
    ) -> Result<Engine<Self>, EngineError> {
        let adapters = behaviors
            .into_iter()
            .enumerate()
            .map(|(i, inner)| SlotAdapter {
                inner,
                rng: EngineRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(PHI)),
            })
            .collect();
        // The engine seeds its fading stream `seed' ^ STREAM_FADING·φ`
        // (`EngineRng::for_stream`), so this makes it `seed ^ FADING_SALT`.
        let engine_seed = seed ^ FADING_SALT ^ STREAM_FADING.wrapping_mul(PHI);
        Engine::new(
            DenseBackend::new(space),
            adapters,
            params,
            config,
            engine_seed,
        )
    }
}

impl<B> SlotAdapter<B> {
    /// The wrapped behavior.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: NodeBehavior> EventBehavior for SlotAdapter<B> {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // Slot semantics: decide an action every tick, starting now.
        ctx.wake_at(ctx.now);
    }

    fn on_wake(&mut self, ctx: &mut NodeCtx<'_>) {
        let action = self.inner.on_slot(&mut SlotContext {
            node: ctx.node,
            nodes: ctx.nodes,
            slot: usize::try_from(ctx.now).expect("tick exceeds usize"),
            rng: &mut self.rng,
        });
        match action {
            Action::Transmit { power, message } => {
                // A transmitting node hears nothing this tick (the engine
                // enforces that), and is not a listener until it says so.
                ctx.sleep();
                ctx.transmit(power, message);
            }
            Action::Listen => ctx.listen(),
            Action::Idle => ctx.sleep(),
        }
        ctx.wake_in(1);
    }

    fn on_receive(&mut self, _ctx: &mut NodeCtx<'_>, from: NodeId, message: u64, power: f64) {
        self.inner.on_receive(from, message, power);
    }

    fn on_transmit_result(&mut self, _ctx: &mut NodeCtx<'_>, receivers: &[NodeId]) {
        self.inner.on_transmit_result(receivers.len());
    }
}
