//! Netsim-vs-engine equivalence: a lockstep (RNG-free) `NodeBehavior`
//! protocol run natively on the slot-synchronous `decay_netsim`
//! simulator and through the engine's `SlotAdapter` must produce
//! identical per-slot delivery sets — on a 1k-node space, with a
//! scheduled outage active. This pins the semantic bridge between the
//! two execution substrates: same SINR capture rule, same
//! transmitter-exclusion, same fault semantics, same tie-breaks.

use std::collections::BTreeSet;

use decay_core::NodeId;
use decay_engine::{DenseBackend, Engine, EngineConfig, SlotAdapter};
use decay_netsim::{Action, FaultPlan, NodeBehavior, Simulator, SlotContext};
use decay_scenario::TopologySpec;
use decay_sinr::SinrParams;

/// Deterministic lockstep protocol: node `i` transmits exactly when
/// `(slot + 7·i) mod 97 == 0` (about 1% of nodes per slot), listens
/// otherwise. No RNG — the two substrates draw per-node randomness from
/// different stream families, so only an RNG-free behavior can be
/// compared delivery-for-delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lockstep;

impl NodeBehavior for Lockstep {
    fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action {
        if (ctx.slot + 7 * ctx.node.index()).is_multiple_of(97) {
            Action::Transmit {
                power: 1.0,
                message: ctx.node.index() as u64,
            }
        } else {
            Action::Listen
        }
    }
}

type DeliverySet = BTreeSet<(usize, usize, u64)>;

#[test]
fn slot_adapter_matches_native_simulator_on_1k_nodes() {
    const SLOTS: usize = 60;
    // An irregular 1000-node deployment (irrational pairwise distances
    // keep SINR comparisons away from exact threshold boundaries, where
    // the two substrates' floating-point summation orders could
    // legitimately differ).
    let topology = TopologySpec::Random {
        n: 1000,
        size: 60.0,
        alpha: 2.5,
        seed: 42,
    };
    let space = topology.dense_space();
    let params = SinrParams::new(2.0, 0.01).unwrap();
    let faults = FaultPlan::none()
        .with_outage(NodeId::new(5), 10, 30)
        .with_crash(NodeId::new(17), 40);

    // Native slot-synchronous run.
    let mut sim = Simulator::new(space.clone(), vec![Lockstep; 1000], params, 1).unwrap();
    sim.set_fault_plan(faults.clone());
    let mut native: Vec<DeliverySet> = Vec::with_capacity(SLOTS);
    for _ in 0..SLOTS {
        let report = sim.step();
        native.push(
            report
                .deliveries
                .iter()
                .map(|d| (d.from.index(), d.to.index(), d.message))
                .collect(),
        );
    }

    // The same behaviors, unmodified, through the engine's SlotAdapter.
    let behaviors: Vec<SlotAdapter<Lockstep>> =
        (0..1000).map(|_| SlotAdapter::new(Lockstep)).collect();
    let config = EngineConfig {
        faults,
        record_trace: true,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(DenseBackend::new(space), behaviors, params, config, 1).unwrap();
    engine.run_until(SLOTS as u64 - 1);
    let mut adapted: Vec<DeliverySet> = vec![DeliverySet::new(); SLOTS];
    for record in engine.trace() {
        let slot = usize::try_from(record.tick).unwrap();
        assert_eq!(record.sent, record.tick, "immediate latency");
        adapted[slot].insert((record.from.index(), record.to.index(), record.message));
    }

    let total: usize = native.iter().map(BTreeSet::len).sum();
    assert!(total > 1000, "only {total} deliveries in {SLOTS} slots");
    for (slot, (n, a)) in native.iter().zip(adapted.iter()).enumerate() {
        assert_eq!(n, a, "delivery sets diverge at slot {slot}");
    }

    // The outage actually bit: node 5 received nothing in [10, 30).
    let to_node5_in_outage = native
        .iter()
        .take(30)
        .skip(10)
        .flat_map(|s| s.iter())
        .filter(|&&(_, to, _)| to == 5)
        .count();
    assert_eq!(to_node5_in_outage, 0);
    // And node 17 stayed silent after its crash.
    let from_17_after_crash = native
        .iter()
        .skip(40)
        .flat_map(|s| s.iter())
        .filter(|&&(from, _, _)| from == 17)
        .count();
    assert_eq!(from_17_after_crash, 0);
}
