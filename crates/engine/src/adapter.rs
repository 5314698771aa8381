//! Compatibility adapter: run unmodified slot-synchronous
//! [`decay_netsim::NodeBehavior`] protocols on the event engine.
//!
//! The adapter wakes its node every tick, asks the wrapped behavior for
//! its slot action, and translates it into engine commands. This
//! reproduces lockstep semantics — every node pays one wake per tick —
//! so it does not deliver the engine's only-active-nodes-cost-work
//! speedup; what it does deliver is every existing protocol (broadcast,
//! contention, coloring, queueing, ...) running on lazy backends, with
//! churn, latency, jamming and checkpointing, without a line of protocol
//! changes. Protocols wanting the sparse-wake speedup implement
//! [`crate::EventBehavior`] natively instead (see
//! `decay_distributed::run_local_broadcast_event`).

use decay_core::NodeId;
use decay_netsim::{Action, NodeBehavior, SlotContext};

use crate::engine::{EventBehavior, NodeCtx};

/// Wraps a [`NodeBehavior`] so it runs on the event engine.
///
/// Serializable (hence checkpointable) whenever the wrapped behavior is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotAdapter<B> {
    inner: B,
}

impl<B> SlotAdapter<B> {
    /// Wraps a slot-synchronous behavior.
    pub fn new(inner: B) -> Self {
        SlotAdapter { inner }
    }

    /// The wrapped behavior.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwraps the behavior.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: NodeBehavior> EventBehavior for SlotAdapter<B> {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // Slot semantics: decide an action every tick, starting now.
        ctx.wake_at(ctx.now);
    }

    fn on_wake(&mut self, ctx: &mut NodeCtx<'_>) {
        let action = {
            let mut slot_ctx = SlotContext {
                node: ctx.node,
                nodes: ctx.nodes,
                slot: usize::try_from(ctx.now).expect("tick exceeds usize"),
                rng: ctx.rng,
            };
            self.inner.on_slot(&mut slot_ctx)
        };
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
