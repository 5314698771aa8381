//! Property-based tests for the engine's determinism and checkpointing
//! contracts (mirroring the style of `crates/core/tests/properties.rs`):
//! same seed ⇒ identical event trace; checkpoint/restore ⇒ bit-identical
//! continuation, including through the byte codec.

use decay_core::NodeId;
use decay_engine::{
    Checkpoint, ChurnConfig, Codec, CodecError, DenseBackend, Engine, EngineConfig, EventBehavior,
    JamSchedule, LatencyModel, LazyBackend, NodeCtx, Tick,
};
use decay_netsim::{FaultPlan, ReceptionModel};
use decay_sinr::SinrParams;
use proptest::prelude::*;
use rand::Rng;

/// A chatty test behavior: transmits with probability `p` at each wake,
/// wakes every 1–3 ticks, and remembers everything it hears.
#[derive(Debug, Clone, PartialEq)]
struct Chirper {
    p: f64,
    heard: Vec<(Tick, u64)>,
    acks: u64,
}

impl Chirper {
    fn new(p: f64) -> Self {
        Chirper {
            p,
            heard: Vec::new(),
            acks: 0,
        }
    }
}

impl EventBehavior for Chirper {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.listen();
        let gap: u64 = ctx.rng.gen_range(1..4);
        ctx.wake_in(gap);
    }

    fn on_wake(&mut self, ctx: &mut NodeCtx<'_>) {
        if ctx.rng.gen_range(0.0..1.0) < self.p {
            ctx.transmit(1.0, ctx.node.index() as u64);
            ctx.listen();
        }
        let gap: u64 = ctx.rng.gen_range(1..4);
        ctx.wake_in(gap);
    }

    fn on_receive(&mut self, ctx: &mut NodeCtx<'_>, _from: NodeId, message: u64, _power: f64) {
        self.heard.push((ctx.now, message));
    }

    fn on_transmit_result(&mut self, _ctx: &mut NodeCtx<'_>, receivers: &[NodeId]) {
        self.acks += receivers.len() as u64;
    }
}

impl Codec for Chirper {
    fn encode(&self, out: &mut Vec<u8>) {
        self.p.encode(out);
        self.heard.encode(out);
        self.acks.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Chirper {
            p: f64::decode(input)?,
            heard: Codec::decode(input)?,
            acks: u64::decode(input)?,
        })
    }
}

fn line_backend(n: usize) -> DenseBackend {
    DenseBackend::new(
        decay_core::DecaySpace::from_fn(n, |i, j| ((i as f64) - (j as f64)).abs().powi(2)).unwrap(),
    )
}

/// A varied but valid engine config derived from three knobs.
fn config_from(churn: bool, jam: bool, latency: u8) -> EngineConfig {
    EngineConfig {
        reception: ReceptionModel::Rayleigh,
        latency: match latency % 3 {
            0 => LatencyModel::Immediate,
            1 => LatencyModel::Fixed { ticks: 2 },
            _ => LatencyModel::Jittered { base: 1, jitter: 2 },
        },
        churn: churn.then_some(ChurnConfig {
            interval: 3,
            leave_prob: 0.3,
            join_prob: 0.7,
        }),
        jamming: if jam {
            JamSchedule::Random { prob: 0.2 }
        } else {
            JamSchedule::None
        },
        faults: FaultPlan::none().with_outage(NodeId::new(0), 5, 12),
        record_trace: true,
        ..EngineConfig::default()
    }
}

fn build(n: usize, seed: u64, cfg: &EngineConfig) -> Engine<Chirper> {
    Engine::new(
        line_backend(n),
        (0..n).map(|_| Chirper::new(0.4)).collect(),
        SinrParams::new(1.0, 0.05).unwrap(),
        cfg.clone(),
        seed,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed, same config => identical delivery traces, stats, and
    /// complete engine state.
    #[test]
    fn same_seed_same_trace(
        n in 3usize..10,
        seed in 0u64..1000,
        churn in 0u8..2,
        jam in 0u8..2,
        latency in 0u8..3,
    ) {
        let cfg = config_from(churn == 1, jam == 1, latency);
        let mut a = build(n, seed, &cfg);
        let mut b = build(n, seed, &cfg);
        a.run_until(40);
        b.run_until(40);
        prop_assert_eq!(a.trace_hash(), b.trace_hash());
        prop_assert_eq!(a.trace(), b.trace());
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.checkpoint(), b.checkpoint());
    }

    /// A checkpoint taken mid-run resumes to a state bit-identical to the
    /// uninterrupted run — including through the byte codec.
    #[test]
    fn checkpoint_resumes_bit_identically(
        n in 3usize..10,
        seed in 0u64..1000,
        churn in 0u8..2,
        jam in 0u8..2,
        latency in 0u8..3,
        split in 5u64..35,
    ) {
        let cfg = config_from(churn == 1, jam == 1, latency);
        let mut original = build(n, seed, &cfg);
        original.run_until(split);
        let snapshot = original.checkpoint();
        original.run_until(40);

        // In-memory restore.
        let mut resumed = Engine::restore(line_backend(n), snapshot.clone()).unwrap();
        resumed.run_until(40);
        prop_assert_eq!(original.trace_hash(), resumed.trace_hash());
        prop_assert_eq!(original.checkpoint(), resumed.checkpoint());

        // Byte-level round trip (real persistence, not just cloning).
        let bytes = snapshot.to_bytes();
        let decoded: Checkpoint<Chirper> = Checkpoint::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&decoded, &snapshot);
        let mut from_bytes = Engine::restore(line_backend(n), decoded).unwrap();
        from_bytes.run_until(40);
        prop_assert_eq!(original.trace_hash(), from_bytes.trace_hash());
        prop_assert_eq!(original.checkpoint(), from_bytes.checkpoint());
    }

    /// Checkpoints are stable through encode/decode even when taken at
    /// arbitrary points, and corrupting the bytes is detected.
    #[test]
    fn checkpoint_bytes_reject_corruption(
        n in 3usize..8,
        seed in 0u64..200,
        at in 1u64..30,
    ) {
        let cfg = config_from(true, false, 0);
        let mut engine = build(n, seed, &cfg);
        engine.run_until(at);
        let bytes = engine.checkpoint().to_bytes();
        // Truncation is always detected.
        prop_assert!(Checkpoint::<Chirper>::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        // Wrong magic is always detected.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        prop_assert!(Checkpoint::<Chirper>::from_bytes(&bad).is_err());
    }
}

/// Controller identity is part of the checkpoint (format v4): a
/// checkpoint taken under one controller signature refuses to restore
/// under another, mirroring the channel-signature guard.
#[test]
fn controller_signature_is_folded_into_checkpoints() {
    let cfg = config_from(false, false, 0);
    let mut engine = build(6, 3, &cfg);
    let sig = decay_engine::probe::signature_hash(7, &[1, 2, 3]);
    engine.set_controller_signature(sig);
    assert_eq!(engine.controller_signature(), sig);
    engine.run_until(10);
    let bytes = engine.checkpoint().to_bytes();
    let decoded: Checkpoint<Chirper> = Checkpoint::from_bytes(&bytes).unwrap();
    assert_eq!(decoded.controller_signature(), sig);

    // The matching signature restores; a mismatch is refused.
    let restored = Engine::restore_with_controller(line_backend(6), decoded.clone(), sig).unwrap();
    assert_eq!(restored.controller_signature(), sig);
    let err = Engine::restore_with_controller(line_backend(6), decoded.clone(), 0).unwrap_err();
    assert!(matches!(
        err,
        decay_engine::EngineError::ControllerMismatch { expected, found }
            if expected == sig && found == 0
    ));
    // Plain restore carries the signature along for callers that manage
    // their own verification.
    let carried = Engine::restore(line_backend(6), decoded).unwrap();
    assert_eq!(carried.controller_signature(), sig);
}

#[test]
fn different_seeds_diverge() {
    let cfg = config_from(false, false, 0);
    let mut a = build(8, 1, &cfg);
    let mut b = build(8, 2, &cfg);
    a.run_until(60);
    b.run_until(60);
    assert_ne!(a.trace_hash(), b.trace_hash());
    assert!(a.stats().deliveries > 0, "no traffic at all");
}

#[test]
fn churn_takes_nodes_down_and_back() {
    let cfg = EngineConfig {
        churn: Some(ChurnConfig {
            interval: 1,
            leave_prob: 0.5,
            join_prob: 0.5,
        }),
        record_trace: true,
        ..EngineConfig::default()
    };
    let mut engine = build(10, 7, &cfg);
    engine.run_until(300);
    let stats = engine.stats();
    assert!(stats.churn_leaves > 0, "no node ever left");
    assert!(stats.churn_joins > 0, "no node ever rejoined");
    // Deliveries to churned-out nodes were dropped, not delivered.
    assert!(stats.deliveries > 0);
}

#[test]
fn fault_plan_freezes_and_resumes_wakes() {
    // Node 0 is down for ticks [2, 30); its wakes must resume after.
    let cfg = EngineConfig {
        faults: FaultPlan::none().with_outage(NodeId::new(0), 2, 30),
        record_trace: true,
        ..EngineConfig::default()
    };
    let mut engine = build(4, 3, &cfg);
    engine.run_until(100);
    // Node 0 heard nothing during the outage window...
    let heard_in_outage = engine
        .behavior(NodeId::new(0))
        .heard
        .iter()
        .filter(|(t, _)| (2..30).contains(t))
        .count();
    assert_eq!(heard_in_outage, 0);
    // ...but resumed participating afterwards.
    let heard_after = engine
        .behavior(NodeId::new(0))
        .heard
        .iter()
        .filter(|(t, _)| *t >= 30)
        .count();
    assert!(heard_after > 0, "node 0 never resumed after its outage");
}

/// Lazy and dense backends over the same decay function produce the same
/// trace under the same seed.
#[test]
fn lazy_and_dense_backends_agree() {
    let n = 12;
    let cfg = EngineConfig {
        record_trace: true,
        ..EngineConfig::default()
    };
    let mut dense = build(n, 5, &cfg);
    let lazy = LazyBackend::from_fn(n, |i, j| ((i as f64) - (j as f64)).abs().powi(2));
    let mut from_lazy = Engine::new(
        lazy,
        (0..n).map(|_| Chirper::new(0.4)).collect(),
        SinrParams::new(1.0, 0.05).unwrap(),
        cfg,
        5,
    )
    .unwrap();
    dense.run_until(80);
    from_lazy.run_until(80);
    assert_eq!(dense.trace_hash(), from_lazy.trace_hash());
    assert_eq!(dense.trace(), from_lazy.trace());
}

/// A neighbor hint may repeat indices ("superset allowed"). On a ring
/// whose wrapping window overlaps itself, the repeat once put a
/// `(listener, transmitter)` pair into the SINR group twice, so the
/// transmitter interfered with itself and the delivery was lost. The
/// hinted run must match the unhinted row scan exactly.
#[test]
fn self_overlapping_ring_hint_matches_the_unhinted_scan() {
    let n = 6;
    let ring = move |i: usize, j: usize| {
        let d = i.abs_diff(j).min(n - i.abs_diff(j)) as f64;
        d * d
    };
    let cfg = EngineConfig {
        reach_decay: Some(9.0),
        record_trace: true,
        ..EngineConfig::default()
    };
    let run = |backend: LazyBackend| {
        let mut engine = Engine::new(
            backend,
            (0..n).map(|_| Chirper::new(0.4)).collect(),
            SinrParams::new(1.0, 0.05).unwrap(),
            cfg.clone(),
            9,
        )
        .unwrap();
        engine.run_until(80);
        (engine.trace_hash(), engine.trace().to_vec())
    };
    // Reach 9 spans 3 hops each way: 7 window slots on a 6-node ring,
    // so the farthest node appears twice.
    let hinted = LazyBackend::from_fn(n, ring).with_neighbor_hint(move |i, reach| {
        let w = reach.sqrt().ceil() as usize;
        (0..=2 * w).map(|k| (i + n * w + k - w) % n).collect()
    });
    let (hash, trace) = run(LazyBackend::from_fn(n, ring));
    assert!(!trace.is_empty(), "the run delivers something");
    assert_eq!(run(hinted), (hash, trace));
}
