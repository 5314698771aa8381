//! # decay-netsim
//!
//! The slot-synchronous protocol vocabulary for the distributed
//! algorithms the paper argues carry over to arbitrary decay spaces
//! (Section 3), plus fault plans, reception models and packet-reception
//! measurement.
//!
//! Each slot, every node independently decides to [`Action::Transmit`],
//! [`Action::Listen`] or stay [`Action::Idle`]. A listening node receives
//! the message of its strongest incoming transmitter iff that signal's
//! SINR against all other transmissions (plus ambient noise) clears the
//! threshold `β` — the physical ("capture") reception model. Transmitting
//! nodes hear nothing. The protocols run on `decay-engine`, whose
//! `SlotAdapter::engine` steps a [`NodeBehavior`] once per tick with a
//! seeded per-node RNG, so runs are exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use decay_core::DecaySpace;
//! use decay_engine::{EngineConfig, SlotAdapter};
//! use decay_netsim::{Action, NodeBehavior, SlotContext};
//! use decay_sinr::SinrParams;
//!
//! /// Every node shouts its own id once, in its own slot.
//! struct RoundRobin;
//! impl NodeBehavior for RoundRobin {
//!     fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action {
//!         if ctx.slot % ctx.nodes == ctx.node.index() {
//!             Action::Transmit { power: 1.0, message: ctx.node.index() as u64 }
//!         } else {
//!             Action::Listen
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let space = DecaySpace::from_fn(3, |i, j| {
//!     ((i as f64) - (j as f64)).abs().powi(2)
//! })?;
//! let behaviors = (0..3).map(|_| RoundRobin).collect();
//! let config = EngineConfig::default();
//! let mut engine = SlotAdapter::engine(space, behaviors, SinrParams::default(), config, 42)?;
//! let stats = engine.run_until(0); // slot 0
//! // Exactly one transmitter, everyone else hears it (no interference).
//! assert_eq!(stats.transmissions, 1);
//! assert_eq!(stats.deliveries, 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod faults;
mod prr;
mod reception;

pub use faults::{FaultPlan, Outage};
pub use prr::{
    compare_decays, infer_decay_from_prr, run_probe_campaign, InferenceError, InferenceOutcome,
    InferenceReport, PrrMatrix, PrrTracker,
};
pub use reception::ReceptionModel;

use decay_core::NodeId;
use rand::RngCore;

/// What a node does in one slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Transmit `message` at `power`; the node cannot receive this slot.
    Transmit {
        /// Transmission power (must be positive and finite).
        power: f64,
        /// Opaque payload.
        message: u64,
    },
    /// Listen for incoming messages.
    Listen,
    /// Neither transmit nor listen (radio off).
    Idle,
}

/// Everything a behavior may consult when choosing its action.
///
/// The RNG is type-erased, so a behavior never names the generator
/// behind it; `decay-engine`'s slot adapter hands out a seeded per-node
/// stream.
pub struct SlotContext<'a> {
    /// This node's id.
    pub node: NodeId,
    /// Total number of nodes in the network.
    pub nodes: usize,
    /// The current slot number (0-based).
    pub slot: usize,
    /// This node's private RNG (deterministic per node and seed).
    pub rng: &'a mut dyn RngCore,
}

impl std::fmt::Debug for SlotContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotContext")
            .field("node", &self.node)
            .field("nodes", &self.nodes)
            .field("slot", &self.slot)
            .finish_non_exhaustive()
    }
}

/// A node's protocol logic.
///
/// One behavior instance exists per node; the engine never lets
/// behaviors inspect each other, so all coordination must flow through
/// messages — keeping simulated protocols honestly distributed.
pub trait NodeBehavior {
    /// Decides this node's action for the current slot.
    fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action;

    /// Called when this node successfully receives a message. `power` is
    /// the received signal power (the RSSI a real radio would report):
    /// transmit power divided by the decay from the sender.
    fn on_receive(&mut self, from: NodeId, message: u64, power: f64) {
        let _ = (from, message, power);
    }

    /// Called at slot end when this node transmitted, with the count of
    /// nodes that captured the transmission (enables acknowledgment-style
    /// analysis without extra message traffic; a physically honest
    /// protocol should ignore it unless modeling an ACK channel).
    fn on_transmit_result(&mut self, receivers: usize) {
        let _ = receivers;
    }
}
