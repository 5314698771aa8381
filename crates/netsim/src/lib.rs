//! # decay-netsim
//!
//! A slot-synchronous SINR network simulator over decay spaces — the
//! execution substrate for the distributed algorithms the paper argues
//! carry over to arbitrary decay spaces (Section 3).
//!
//! Each slot, every node independently decides to [`Action::Transmit`],
//! [`Action::Listen`] or stay [`Action::Idle`]. A listening node receives
//! the message of its strongest incoming transmitter iff that signal's
//! SINR against all other transmissions (plus ambient noise) clears the
//! threshold `β` — the physical ("capture") reception model. Transmitting
//! nodes hear nothing. Per-node seeded RNGs keep runs exactly
//! reproducible.
//!
//! # Examples
//!
//! ```
//! use decay_core::DecaySpace;
//! use decay_netsim::{Action, NodeBehavior, Simulator, SlotContext};
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
//! let mut sim = Simulator::new(space, behaviors, SinrParams::default(), 42)?;
//! let report = sim.step();
//! // Exactly one transmitter, everyone else hears it (no interference).
//! assert_eq!(report.transmitters.len(), 1);
//! assert_eq!(report.deliveries.len(), 2);
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

use decay_core::{DecaySpace, NodeId};
use decay_sinr::SinrParams;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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

/// A successful reception.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The receiving node.
    pub to: NodeId,
    /// The transmitting node whose signal was captured.
    pub from: NodeId,
    /// The payload.
    pub message: u64,
}

/// Everything a behavior may consult when choosing its action.
///
/// The RNG is type-erased so the same behavior runs unmodified on every
/// execution substrate: the slot-synchronous [`Simulator`] here hands out
/// per-node [`StdRng`]s, while the event-driven `decay-engine` hands out
/// its own serializable per-node streams.
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
/// One behavior instance exists per node; the simulator never lets
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

/// Outcome of one simulated slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotReport {
    /// The slot number.
    pub slot: usize,
    /// Who transmitted.
    pub transmitters: Vec<NodeId>,
    /// Successful receptions.
    pub deliveries: Vec<Delivery>,
    /// Nodes that were down this slot per the [`FaultPlan`].
    pub downed: Vec<NodeId>,
}

/// Cumulative statistics over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Slots simulated.
    pub slots: usize,
    /// Total transmissions.
    pub transmissions: usize,
    /// Total successful deliveries.
    pub deliveries: usize,
}

/// The slot-synchronous simulator.
#[derive(Debug)]
pub struct Simulator<B> {
    space: DecaySpace,
    behaviors: Vec<B>,
    params: SinrParams,
    rngs: Vec<StdRng>,
    slot: usize,
    stats: RunStats,
    reception: ReceptionModel,
    faults: FaultPlan,
    /// Fading draws live in their own stream so that switching reception
    /// models never perturbs the per-node protocol RNGs.
    fading_rng: StdRng,
}

impl<B: NodeBehavior> Simulator<B> {
    /// Creates a simulator; `behaviors[i]` drives node `i`.
    ///
    /// # Errors
    ///
    /// Returns an error if the behavior count does not match the space.
    pub fn new(
        space: DecaySpace,
        behaviors: Vec<B>,
        params: SinrParams,
        seed: u64,
    ) -> Result<Self, BehaviorCountMismatch> {
        if behaviors.len() != space.len() {
            return Err(BehaviorCountMismatch {
                nodes: space.len(),
                behaviors: behaviors.len(),
            });
        }
        let rngs = (0..space.len())
            .map(|i| StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        Ok(Simulator {
            space,
            behaviors,
            params,
            rngs,
            slot: 0,
            stats: RunStats::default(),
            reception: ReceptionModel::Threshold,
            faults: FaultPlan::none(),
            fading_rng: StdRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03),
        })
    }

    /// Switches the reception model (default: deterministic thresholding).
    pub fn set_reception_model(&mut self, model: ReceptionModel) -> &mut Self {
        self.reception = model;
        self
    }

    /// The active reception model.
    pub fn reception_model(&self) -> ReceptionModel {
        self.reception
    }

    /// Installs a fault plan (default: no faults). Nodes that are down
    /// neither run their behavior nor transmit, listen, or receive; their
    /// state is frozen until the outage ends.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.faults = plan;
        self
    }

    /// The decay space being simulated.
    pub fn space(&self) -> &DecaySpace {
        &self.space
    }

    /// Cumulative run statistics.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The current slot number (number of completed slots).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Read access to a node's behavior (for harness-side inspection).
    pub fn behavior(&self, node: NodeId) -> &B {
        &self.behaviors[node.index()]
    }

    /// Simulates one slot and returns what happened.
    pub fn step(&mut self) -> SlotReport {
        let n = self.space.len();
        // Phase 1: collect actions; down nodes are forced idle without
        // running their behavior.
        let mut actions = Vec::with_capacity(n);
        let mut downed = Vec::new();
        for i in 0..n {
            if self.faults.is_down(NodeId::new(i), self.slot) {
                downed.push(NodeId::new(i));
                actions.push(Action::Idle);
                continue;
            }
            let mut ctx = SlotContext {
                node: NodeId::new(i),
                nodes: n,
                slot: self.slot,
                rng: &mut self.rngs[i],
            };
            let action = self.behaviors[i].on_slot(&mut ctx);
            if let Action::Transmit { power, .. } = action {
                assert!(
                    power.is_finite() && power > 0.0,
                    "node {i} transmitted with non-positive power"
                );
            }
            actions.push(action);
        }
        let transmitters: Vec<usize> = (0..n)
            .filter(|&i| matches!(actions[i], Action::Transmit { .. }))
            .collect();
        // Phase 2: resolve reception at every listener.
        let mut deliveries = Vec::new();
        for i in 0..n {
            if !matches!(actions[i], Action::Listen) {
                continue;
            }
            let rx = NodeId::new(i);
            // Received power from each transmitter; track the strongest.
            let mut best: Option<(usize, f64)> = None;
            let mut total = self.params.noise();
            for &t in &transmitters {
                let Action::Transmit { power, .. } = actions[t] else {
                    unreachable!()
                };
                let fade = match self.reception {
                    ReceptionModel::Threshold => 1.0,
                    // Unit-mean exponential via inverse CDF; `gen` draws
                    // from [0, 1), so `1 - u` is in (0, 1] and the log is
                    // finite.
                    ReceptionModel::Rayleigh => -(1.0 - self.fading_rng.gen::<f64>()).ln(),
                };
                let p = fade * power / self.space.decay(NodeId::new(t), rx);
                total += p;
                match best {
                    Some((_, bp)) if bp >= p => {}
                    _ => best = Some((t, p)),
                }
            }
            if let Some((t, p)) = best {
                let interference = total - p;
                let sinr = if interference > 0.0 {
                    p / interference
                } else {
                    f64::INFINITY
                };
                if sinr >= self.params.beta() * (1.0 - 1e-12) {
                    let Action::Transmit { message, .. } = actions[t] else {
                        unreachable!()
                    };
                    deliveries.push((
                        Delivery {
                            to: rx,
                            from: NodeId::new(t),
                            message,
                        },
                        p,
                    ));
                }
            }
        }
        // Phase 3: callbacks.
        for (d, power) in &deliveries {
            self.behaviors[d.to.index()].on_receive(d.from, d.message, *power);
        }
        for &t in &transmitters {
            let count = deliveries
                .iter()
                .filter(|(d, _)| d.from.index() == t)
                .count();
            self.behaviors[t].on_transmit_result(count);
        }
        let report = SlotReport {
            slot: self.slot,
            transmitters: transmitters.into_iter().map(NodeId::new).collect(),
            deliveries: deliveries.into_iter().map(|(d, _)| d).collect(),
            downed,
        };
        self.slot += 1;
        self.stats.slots += 1;
        self.stats.transmissions += report.transmitters.len();
        self.stats.deliveries += report.deliveries.len();
        report
    }

    /// Runs until `done` returns true or `max_slots` elapse; returns the
    /// number of slots executed by this call and whether `done` fired.
    pub fn run_until<F>(&mut self, max_slots: usize, mut done: F) -> (usize, bool)
    where
        F: FnMut(&SlotReport, &Self) -> bool,
    {
        for k in 0..max_slots {
            let report = self.step();
            if done(&report, self) {
                return (k + 1, true);
            }
        }
        (max_slots, false)
    }
}

/// Error: behavior count does not match the node count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BehaviorCountMismatch {
    /// Nodes in the space.
    pub nodes: usize,
    /// Behaviors supplied.
    pub behaviors: usize,
}

impl std::fmt::Display for BehaviorCountMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "expected {} behaviors for {} nodes, got {}",
            self.nodes, self.nodes, self.behaviors
        )
    }
}

impl std::error::Error for BehaviorCountMismatch {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn line(n: usize) -> DecaySpace {
        DecaySpace::from_fn(n, |i, j| ((i as f64) - (j as f64)).abs().powi(2)).unwrap()
    }

    /// Transmits with fixed probability, counts receptions.
    struct Aloha {
        p: f64,
        received: Vec<(NodeId, u64)>,
        acks: usize,
    }

    impl Aloha {
        fn new(p: f64) -> Self {
            Aloha {
                p,
                received: Vec::new(),
                acks: 0,
            }
        }
    }

    impl NodeBehavior for Aloha {
        fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action {
            if ctx.rng.gen_range(0.0..1.0) < self.p {
                Action::Transmit {
                    power: 1.0,
                    message: ctx.node.index() as u64,
                }
            } else {
                Action::Listen
            }
        }
        fn on_receive(&mut self, from: NodeId, message: u64, _power: f64) {
            self.received.push((from, message));
        }
        fn on_transmit_result(&mut self, receivers: usize) {
            self.acks += receivers;
        }
    }

    #[test]
    fn single_transmitter_reaches_everyone_noiseless() {
        struct OneShot;
        impl NodeBehavior for OneShot {
            fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action {
                if ctx.node.index() == 0 && ctx.slot == 0 {
                    Action::Transmit {
                        power: 1.0,
                        message: 77,
                    }
                } else {
                    Action::Listen
                }
            }
        }
        let mut sim = Simulator::new(
            line(5),
            (0..5).map(|_| OneShot).collect(),
            SinrParams::default(),
            1,
        )
        .unwrap();
        let r = sim.step();
        assert_eq!(r.transmitters, vec![NodeId::new(0)]);
        assert_eq!(r.deliveries.len(), 4);
        assert!(r.deliveries.iter().all(|d| d.message == 77));
    }

    #[test]
    fn two_transmitters_capture_resolution() {
        struct Pair;
        impl NodeBehavior for Pair {
            fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action {
                let last = ctx.nodes - 1;
                if ctx.node.index() == 0 || ctx.node.index() == last {
                    Action::Transmit {
                        power: 1.0,
                        message: ctx.node.index() as u64,
                    }
                } else {
                    Action::Listen
                }
            }
        }
        // 5 nodes on a line: transmitters at 0 and 4. Listener 1 hears 0
        // at power 1 vs 4 at 1/9: captures 0. Listener 2 is equidistant:
        // SINR exactly 1 >= beta = 1, captured.
        let mut sim = Simulator::new(
            line(5),
            (0..5).map(|_| Pair).collect(),
            SinrParams::default(),
            1,
        )
        .unwrap();
        let r = sim.step();
        assert_eq!(r.deliveries.len(), 3);
        let to1 = r
            .deliveries
            .iter()
            .find(|d| d.to == NodeId::new(1))
            .unwrap();
        assert_eq!(to1.from, NodeId::new(0));
    }

    #[test]
    fn beta_two_blocks_boundary_capture() {
        struct Pair;
        impl NodeBehavior for Pair {
            fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action {
                let last = ctx.nodes - 1;
                if ctx.node.index() == 0 || ctx.node.index() == last {
                    Action::Transmit {
                        power: 1.0,
                        message: 5,
                    }
                } else {
                    Action::Listen
                }
            }
        }
        let mut sim = Simulator::new(
            line(5),
            (0..5).map(|_| Pair).collect(),
            SinrParams::noiseless(2.0).unwrap(),
            1,
        )
        .unwrap();
        let r = sim.step();
        // Node 2: SINR 1 < 2 -> no capture. Nodes 1 and 3: SINR 9 >= 2.
        assert_eq!(r.deliveries.len(), 2);
        assert!(r.deliveries.iter().all(|d| d.to != NodeId::new(2)));
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(
                line(8),
                (0..8).map(|_| Aloha::new(0.3)).collect(),
                SinrParams::default(),
                seed,
            )
            .unwrap();
            let mut log = Vec::new();
            for _ in 0..50 {
                log.push(sim.step());
            }
            log
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn callbacks_fire_and_stats_balance() {
        let mut sim = Simulator::new(
            line(6),
            (0..6).map(|_| Aloha::new(0.25)).collect(),
            SinrParams::default(),
            3,
        )
        .unwrap();
        for _ in 0..100 {
            sim.step();
        }
        let stats = sim.stats();
        assert!(stats.transmissions > 0);
        assert!(stats.deliveries > 0);
        let total_received: usize = (0..6)
            .map(|i| sim.behavior(NodeId::new(i)).received.len())
            .sum();
        assert_eq!(total_received, stats.deliveries);
        let total_acks: usize = (0..6).map(|i| sim.behavior(NodeId::new(i)).acks).sum();
        assert_eq!(total_acks, stats.deliveries);
    }

    #[test]
    fn run_until_stops_on_predicate() {
        let mut sim = Simulator::new(
            line(6),
            (0..6).map(|_| Aloha::new(0.3)).collect(),
            SinrParams::default(),
            5,
        )
        .unwrap();
        let (slots, fired) = sim.run_until(1000, |r, _| !r.deliveries.is_empty());
        assert!(fired);
        assert!(slots < 1000);
    }

    #[test]
    fn behavior_count_mismatch_is_rejected() {
        let err = Simulator::new(
            line(4),
            (0..3).map(|_| Aloha::new(0.1)).collect(),
            SinrParams::default(),
            1,
        )
        .err()
        .expect("mismatch must be rejected");
        assert_eq!(err.nodes, 4);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn transmitters_do_not_receive() {
        struct AllTransmit;
        impl NodeBehavior for AllTransmit {
            fn on_slot(&mut self, _ctx: &mut SlotContext<'_>) -> Action {
                Action::Transmit {
                    power: 1.0,
                    message: 1,
                }
            }
        }
        let mut sim = Simulator::new(
            line(4),
            (0..4).map(|_| AllTransmit).collect(),
            SinrParams::default(),
            1,
        )
        .unwrap();
        let r = sim.step();
        assert_eq!(r.transmitters.len(), 4);
        assert!(r.deliveries.is_empty());
    }

    #[test]
    fn down_nodes_neither_act_nor_receive() {
        struct Chatty;
        impl NodeBehavior for Chatty {
            fn on_slot(&mut self, _ctx: &mut SlotContext<'_>) -> Action {
                Action::Transmit {
                    power: 1.0,
                    message: 1,
                }
            }
        }
        let mut sim = Simulator::new(
            line(3),
            (0..3).map(|_| Chatty).collect(),
            SinrParams::default(),
            1,
        )
        .unwrap();
        sim.set_fault_plan(FaultPlan::none().with_outage(NodeId::new(1), 0, 2));
        let r0 = sim.step();
        assert_eq!(r0.downed, vec![NodeId::new(1)]);
        assert_eq!(r0.transmitters.len(), 2);
        let r1 = sim.step();
        assert_eq!(r1.downed, vec![NodeId::new(1)]);
        // Outage over: all three transmit again.
        let r2 = sim.step();
        assert!(r2.downed.is_empty());
        assert_eq!(r2.transmitters.len(), 3);
    }

    #[test]
    fn crashed_listener_hears_nothing() {
        struct OneTalks;
        impl NodeBehavior for OneTalks {
            fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action {
                if ctx.node.index() == 0 {
                    Action::Transmit {
                        power: 1.0,
                        message: 4,
                    }
                } else {
                    Action::Listen
                }
            }
        }
        let mut sim = Simulator::new(
            line(3),
            (0..3).map(|_| OneTalks).collect(),
            SinrParams::default(),
            1,
        )
        .unwrap();
        sim.set_fault_plan(FaultPlan::none().with_crash(NodeId::new(2), 0));
        let r = sim.step();
        assert_eq!(r.deliveries.len(), 1);
        assert_eq!(r.deliveries[0].to, NodeId::new(1));
    }

    #[test]
    fn rayleigh_runs_are_deterministic_and_differ_from_threshold() {
        let run = |model: ReceptionModel, seed: u64| {
            let mut sim = Simulator::new(
                line(8),
                (0..8).map(|_| Aloha::new(0.3)).collect(),
                SinrParams::new(1.0, 0.05).unwrap(),
                seed,
            )
            .unwrap();
            sim.set_reception_model(model);
            let mut log = Vec::new();
            for _ in 0..100 {
                log.push(sim.step());
            }
            log
        };
        assert_eq!(
            run(ReceptionModel::Rayleigh, 5),
            run(ReceptionModel::Rayleigh, 5)
        );
        // Fading has its own RNG stream, so node decisions are identical
        // but receptions differ.
        let th = run(ReceptionModel::Threshold, 5);
        let ray = run(ReceptionModel::Rayleigh, 5);
        let tx_th: Vec<_> = th.iter().map(|r| r.transmitters.clone()).collect();
        let tx_ray: Vec<_> = ray.iter().map(|r| r.transmitters.clone()).collect();
        assert_eq!(tx_th, tx_ray);
        assert_ne!(th, ray);
    }

    #[test]
    fn rayleigh_fading_can_fail_a_clear_link() {
        // Threshold: single transmitter, noise 0.5, signal 1 -> SINR 2 >= 1
        // always succeeds. Rayleigh: succeeds w.p. exp(-0.5) < 1, so over
        // many slots some failures must appear.
        struct OneTalks;
        impl NodeBehavior for OneTalks {
            fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action {
                if ctx.node.index() == 0 {
                    Action::Transmit {
                        power: 1.0,
                        message: 4,
                    }
                } else {
                    Action::Listen
                }
            }
        }
        let mut sim = Simulator::new(
            line(2),
            (0..2).map(|_| OneTalks).collect(),
            SinrParams::new(1.0, 0.5).unwrap(),
            1,
        )
        .unwrap();
        sim.set_reception_model(ReceptionModel::Rayleigh);
        let mut delivered = 0;
        for _ in 0..300 {
            delivered += sim.step().deliveries.len();
        }
        assert!(delivered > 100, "delivered {delivered}");
        assert!(delivered < 300, "fading never failed");
    }

    #[test]
    fn idle_nodes_neither_send_nor_receive() {
        struct Sleepy;
        impl NodeBehavior for Sleepy {
            fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action {
                if ctx.node.index() == 0 {
                    Action::Transmit {
                        power: 1.0,
                        message: 9,
                    }
                } else {
                    Action::Idle
                }
            }
        }
        let mut sim = Simulator::new(
            line(3),
            (0..3).map(|_| Sleepy).collect(),
            SinrParams::default(),
            1,
        )
        .unwrap();
        let r = sim.step();
        assert!(r.deliveries.is_empty());
    }
}
