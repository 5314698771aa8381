//! Slot semantics of [`SlotAdapter::engine`]: the capture rule, who may
//! send and receive, fault plans, acknowledgments, determinism and the
//! Rayleigh reception model, as cases of one table on small lines.

use decay_core::{DecaySpace, NodeId};
use decay_engine::{EngineConfig, EngineError, EngineStats, SlotAdapter, Tick};
use decay_netsim::{Action, FaultPlan, NodeBehavior, ReceptionModel, SlotContext};
use decay_sinr::SinrParams;
use proptest::prelude::*;
use rand::{Rng, RngCore};
use ReceptionModel::{Rayleigh, Threshold};

/// A node's slot decision: `(node, slot, rng) -> action`.
type Script = fn(usize, usize, &mut dyn RngCore) -> Action;

/// Runs a [`Script`] and logs the slots it transmitted in, what it
/// heard and the acknowledgments it got.
#[derive(Clone)]
struct Scripted {
    act: Script,
    sent: Vec<usize>,
    heard: usize,
    acks: usize,
}

impl NodeBehavior for Scripted {
    fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action {
        let action = (self.act)(ctx.node.index(), ctx.slot, ctx.rng);
        if matches!(action, Action::Transmit { .. }) {
            self.sent.push(ctx.slot);
        }
        action
    }

    fn on_receive(&mut self, _from: NodeId, _message: u64, _power: f64) {
        self.heard += 1;
    }

    fn on_transmit_result(&mut self, receivers: usize) {
        self.acks += receivers;
    }
}

/// What a slot run did, slot by slot.
#[derive(Debug, PartialEq)]
struct Run {
    /// Transmitting nodes per slot, ascending.
    transmitters: Vec<Vec<usize>>,
    /// `(from, to)` deliveries per slot, in delivery order.
    deliveries: Vec<Vec<(usize, usize)>>,
    /// Receptions and acknowledgments summed over the behaviors.
    heard: usize,
    acks: usize,
    stats: EngineStats,
}

fn line(n: usize) -> DecaySpace {
    DecaySpace::from_fn(n, |i, j| ((i as f64) - (j as f64)).abs().powi(2)).unwrap()
}

struct Case {
    name: &'static str,
    /// Nodes on the line `f(i, j) = (i - j)²`.
    n: usize,
    params: SinrParams,
    faults: FaultPlan,
    slots: usize,
    act: Script,
    check: Check,
}

/// Asserts on runs of a case, made by `run(reception, seed)`.
type Check = fn(&dyn Fn(ReceptionModel, u64) -> Run);

impl Case {
    fn run(&self, reception: ReceptionModel, seed: u64) -> Run {
        let space = line(self.n);
        let config = EngineConfig {
            reception,
            faults: self.faults.clone(),
            record_trace: true,
            ..EngineConfig::default()
        };
        run_slots(space, self.act, self.params, config, seed, self.slots)
    }
}

/// Runs `act` on every node of `space` for `slots` slots.
fn run_slots(
    space: DecaySpace,
    act: Script,
    params: SinrParams,
    config: EngineConfig,
    seed: u64,
    slots: usize,
) -> Run {
    let n = space.len();
    let node = Scripted {
        act,
        sent: Vec::new(),
        heard: 0,
        acks: 0,
    };
    let mut engine = SlotAdapter::engine(space, vec![node; n], params, config, seed).unwrap();
    engine.run_until(slots as Tick - 1);
    let mut run = Run {
        transmitters: vec![Vec::new(); slots],
        deliveries: vec![Vec::new(); slots],
        heard: 0,
        acks: 0,
        stats: engine.stats(),
    };
    for record in engine.trace() {
        assert_eq!(record.sent, record.tick, "slot deliveries are immediate");
        run.deliveries[record.tick as usize].push((record.from.index(), record.to.index()));
    }
    for i in 0..n {
        let b = engine.behavior(NodeId::new(i)).inner();
        for &slot in &b.sent {
            run.transmitters[slot].push(i);
        }
        run.heard += b.heard;
        run.acks += b.acks;
    }
    run
}

/// Node 0 transmits at slot 0; everyone else listens.
fn one_shot(node: usize, slot: usize, _: &mut dyn RngCore) -> Action {
    if node == 0 && slot == 0 {
        transmit(node)
    } else {
        Action::Listen
    }
}

/// The two ends of a 5-node line transmit; the middle listens.
fn ends(node: usize, _: usize, _: &mut dyn RngCore) -> Action {
    if node == 0 || node == 4 {
        transmit(node)
    } else {
        Action::Listen
    }
}

/// Node 0 transmits every slot; everyone else listens.
fn zero_talks(node: usize, _: usize, _: &mut dyn RngCore) -> Action {
    if node == 0 {
        transmit(node)
    } else {
        Action::Listen
    }
}

/// Transmits with probability 0.3, listens otherwise.
fn aloha(node: usize, _: usize, rng: &mut dyn RngCore) -> Action {
    if rng.gen_range(0.0..1.0) < 0.3 {
        transmit(node)
    } else {
        Action::Listen
    }
}

fn transmit(node: usize) -> Action {
    Action::Transmit {
        power: 1.0,
        message: node as u64,
    }
}

/// A one-slot case on a noiseless line with `β = 1` and no faults.
fn case(name: &'static str, n: usize, act: Script, check: Check) -> Case {
    Case {
        name,
        n,
        params: SinrParams::default(),
        faults: FaultPlan::none(),
        slots: 1,
        act,
        check,
    }
}

fn cases() -> Vec<Case> {
    vec![
        case(
            "a lone transmitter reaches everyone on a noiseless line",
            5,
            one_shot,
            |run| {
                let r = run(Threshold, 1);
                assert_eq!(r.transmitters[0], [0]);
                assert_eq!(r.deliveries[0], [(0, 1), (0, 2), (0, 3), (0, 4)]);
            },
        ),
        // Listener 1 hears node 0 at power 1 against 1/9 from node 4;
        // listener 2 is equidistant, SINR exactly 1 >= beta = 1, and the
        // first strict maximum (node 0) wins the tie.
        case(
            "capture at beta 1 includes the equidistant SINR-1 tie",
            5,
            ends,
            |run| assert_eq!(run(Threshold, 1).deliveries[0], [(0, 1), (0, 2), (4, 3)]),
        ),
        // Node 2: SINR 1 < 2, no capture. Nodes 1 and 3: SINR 9.
        Case {
            params: SinrParams::noiseless(2.0).unwrap(),
            ..case("beta 2 blocks the boundary capture", 5, ends, |run| {
                assert_eq!(run(Threshold, 1).deliveries[0], [(0, 1), (4, 3)]);
            })
        },
        case(
            "transmitters do not receive",
            4,
            |node, _, _| transmit(node),
            |run| {
                let r = run(Threshold, 1);
                assert_eq!(r.transmitters[0], [0, 1, 2, 3]);
                assert!(r.deliveries[0].is_empty());
            },
        ),
        case(
            "idle nodes neither send nor receive",
            3,
            |node, _, _| {
                if node == 0 {
                    transmit(node)
                } else {
                    Action::Idle
                }
            },
            |run| {
                let r = run(Threshold, 1);
                assert_eq!(r.transmitters[0], [0]);
                assert!(r.deliveries[0].is_empty());
            },
        ),
        Case {
            faults: FaultPlan::none().with_outage(NodeId::new(1), 0, 2),
            slots: 3,
            ..case(
                "a down node neither acts nor receives until its outage ends",
                3,
                |node, _, _| transmit(node),
                |run| {
                    let r = run(Threshold, 1);
                    assert_eq!(r.transmitters, [vec![0, 2], vec![0, 2], vec![0, 1, 2]]);
                },
            )
        },
        Case {
            faults: FaultPlan::none().with_crash(NodeId::new(2), 0),
            ..case("a crashed listener hears nothing", 3, zero_talks, |run| {
                assert_eq!(run(Threshold, 1).deliveries[0], [(0, 1)]);
            })
        },
        // On the engine a node back from an outage of two slots or more
        // transmits first in its tick: its wake was re-queued when the
        // outage began, before the others queued theirs. So it wins an
        // exact tie that the lower id wins otherwise: node 4 is frozen
        // in slots 0 and 1 and captures listener 2 in slot 2.
        Case {
            faults: FaultPlan::none().with_outage(NodeId::new(4), 0, 2),
            slots: 3,
            ..case(
                "a node back from an outage transmits first in its tick",
                5,
                ends,
                |run| {
                    let r = run(Threshold, 1);
                    assert_eq!(r.deliveries[1], [(0, 1), (0, 2), (0, 3)]);
                    assert_eq!(r.deliveries[2], [(0, 1), (4, 2), (4, 3)]);
                },
            )
        },
        Case {
            slots: 100,
            ..case(
                "receptions and acknowledgments balance the stats",
                6,
                aloha,
                |run| {
                    let r = run(Threshold, 3);
                    assert!(r.stats.transmissions > 0 && r.stats.deliveries > 0);
                    assert_eq!(r.heard as u64, r.stats.deliveries);
                    assert_eq!(r.acks as u64, r.stats.deliveries);
                    let sent: usize = r.transmitters.iter().map(Vec::len).sum();
                    assert_eq!(sent as u64, r.stats.transmissions);
                },
            )
        },
        Case {
            slots: 50,
            ..case("runs are deterministic in the seed", 8, aloha, |run| {
                assert_eq!(run(Threshold, 7), run(Threshold, 7));
                assert_ne!(run(Threshold, 7), run(Threshold, 8));
                assert_eq!(run(Rayleigh, 5), run(Rayleigh, 5));
            })
        },
        // Fading has its own stream, so decisions stay identical.
        Case {
            params: SinrParams::new(1.0, 0.05).unwrap(),
            slots: 100,
            ..case(
                "Rayleigh keeps node decisions and changes receptions",
                8,
                aloha,
                |run| {
                    let (th, ray) = (run(Threshold, 5), run(Rayleigh, 5));
                    assert_eq!(th.transmitters, ray.transmitters);
                    assert_ne!(th.deliveries, ray.deliveries);
                },
            )
        },
        // Thresholding: signal 1 over noise 0.5 always clears beta 1.
        // Rayleigh succeeds with probability exp(-0.5) < 1.
        Case {
            params: SinrParams::new(1.0, 0.5).unwrap(),
            slots: 300,
            ..case("Rayleigh can fail a clear link", 2, zero_talks, |run| {
                assert_eq!(run(Threshold, 1).stats.deliveries, 300);
                let delivered = run(Rayleigh, 1).stats.deliveries;
                assert!((100..300).contains(&delivered), "delivered {delivered}");
            })
        },
    ]
}

#[test]
fn slot_engine_cases() {
    for case in cases() {
        eprintln!("case: {}", case.name);
        (case.check)(&|reception, seed| case.run(reception, seed));
    }
}

fn arb_space(n: usize) -> impl Strategy<Value = DecaySpace> {
    prop::collection::vec(0.5f64..20.0, n * n).prop_map(move |mut vals| {
        for i in 0..n {
            vals[i * n + i] = 0.0;
        }
        DecaySpace::from_matrix(n, vals).expect("positive off-diagonal")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    #[test]
    fn downed_nodes_never_transmit_or_receive(
        space in arb_space(6),
        seed in 0u64..100,
        victim in 0usize..6,
        from in 0usize..20,
        len in 1usize..20,
    ) {
        let config = EngineConfig {
            faults: FaultPlan::none().with_outage(NodeId::new(victim), from, from + len),
            record_trace: true,
            ..EngineConfig::default()
        };
        let run = run_slots(space, aloha, SinrParams::default(), config, seed, from + len + 5);
        for slot in from..from + len {
            prop_assert!(!run.transmitters[slot].contains(&victim), "slot {}", slot);
            prop_assert!(run.deliveries[slot].iter().all(|&(_, to)| to != victim));
        }
    }

    /// The fading stream is separate: protocol decisions are identical
    /// across reception models.
    #[test]
    fn reception_models_share_node_decisions(space in arb_space(5), seed in 0u64..100) {
        let run = |reception| {
            let config = EngineConfig { reception, record_trace: true, ..EngineConfig::default() };
            let params = SinrParams::new(1.0, 0.1).unwrap();
            run_slots(space.clone(), aloha, params, config, seed, 30).transmitters
        };
        prop_assert_eq!(run(Threshold), run(Rayleigh));
    }
}

#[test]
fn behavior_count_mismatch_is_rejected() {
    let node = Scripted {
        act: one_shot,
        sent: Vec::new(),
        heard: 0,
        acks: 0,
    };
    let err = SlotAdapter::engine(
        line(4),
        vec![node; 3],
        SinrParams::default(),
        EngineConfig::default(),
        1,
    )
    .expect_err("mismatch must be rejected");
    assert_eq!(
        err,
        EngineError::BehaviorCountMismatch {
            nodes: 4,
            behaviors: 3
        }
    );
}
