//! A fault plan on a 1k-node slot run: a lockstep (RNG-free)
//! `NodeBehavior` protocol runs through `SlotAdapter::engine` on an
//! irregular deployment, and a node inside an outage receives nothing
//! while a crashed node stays silent for good.

use decay_core::NodeId;
use decay_engine::{EngineConfig, SlotAdapter};
use decay_netsim::{Action, FaultPlan, NodeBehavior, SlotContext};
use decay_scenario::TopologySpec;
use decay_sinr::SinrParams;

/// Deterministic lockstep protocol: node `i` transmits exactly when
/// `(slot + 7·i) mod 97 == 0` (about 1% of nodes per slot), listens
/// otherwise.
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

/// Deliveries `(tick, from, to)` of 60 slots under `faults`.
fn run(faults: FaultPlan) -> Vec<(u64, usize, usize)> {
    let space = TopologySpec::Random {
        n: 1000,
        size: 60.0,
        alpha: 2.5,
        seed: 42,
    }
    .dense_space();
    let config = EngineConfig {
        faults,
        record_trace: true,
        ..EngineConfig::default()
    };
    let params = SinrParams::new(2.0, 0.01).unwrap();
    let mut engine = SlotAdapter::engine(space, vec![Lockstep; 1000], params, config, 1).unwrap();
    engine.run_until(59);
    let trace = engine.trace();
    assert!(trace.iter().all(|d| d.sent == d.tick), "immediate latency");
    trace
        .iter()
        .map(|d| (d.tick, d.from.index(), d.to.index()))
        .collect()
}

#[test]
fn outages_and_crashes_hold_on_1k_nodes() {
    // Node 49 transmits in slot 45 ((45 + 7·49) mod 97 = 0).
    let faults = FaultPlan::none()
        .with_outage(NodeId::new(5), 10, 30)
        .with_crash(NodeId::new(49), 40);
    let (free, faulty) = (run(FaultPlan::none()), run(faults));
    assert!(faulty.len() > 1000, "only {} deliveries", faulty.len());
    let to_5_in_outage = |trace: &[(u64, usize, usize)]| {
        let hits = trace
            .iter()
            .filter(|&&(t, _, to)| to == 5 && (10..30).contains(&t));
        hits.count()
    };
    let from_49_after_crash = |trace: &[(u64, usize, usize)]| {
        trace
            .iter()
            .filter(|&&(t, from, _)| from == 49 && t >= 40)
            .count()
    };
    assert!(to_5_in_outage(&free) > 0 && from_49_after_crash(&free) > 0);
    assert_eq!(to_5_in_outage(&faulty), 0);
    assert_eq!(from_49_after_crash(&faulty), 0);
    // Outside the outage node 5 hears as before.
    let to_5_after = |trace: &[(u64, usize, usize)]| {
        let hits = trace.iter().filter(|&&(t, _, to)| to == 5 && t >= 30);
        hits.count()
    };
    assert!(to_5_after(&faulty) > 0);
}
