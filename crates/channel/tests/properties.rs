//! Integration properties: an unmodified `decay-engine` running over
//! temporal channels keeps every determinism guarantee the static
//! backends have — bit-identical reruns, checkpoint/resume invariance
//! (now with channel-signature verification), and bit-identical gain
//! replay through the JSON trace format.

use decay_channel::{
    FadingConfig, GainTrace, MetricityMonitor, MobilityConfig, MobilityModel, ShadowingConfig,
    TemporalAdapter, TemporalChannel, TraceChannel,
};
use decay_core::NodeId;
use decay_engine::{
    Checkpoint, DecayBackend, DenseBackend, Engine, EngineConfig, EngineError, EventBehavior,
    LazyBackend, NodeCtx,
};
use decay_sinr::SinrParams;
use decay_spaces::{distance, geometric_space, line_points, Point};
use proptest::prelude::*;
use rand::Rng;

/// Gossip behavior: listen, transmit at geometric intervals.
#[derive(Clone, Debug, PartialEq)]
struct Gossiper {
    heard: u64,
}

impl decay_engine::Codec for Gossiper {
    fn encode(&self, out: &mut Vec<u8>) {
        self.heard.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, decay_engine::CodecError> {
        Ok(Gossiper {
            heard: u64::decode(input)?,
        })
    }
}

impl EventBehavior for Gossiper {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.listen();
        let gap = 1 + ctx.rng.gen_range(0..6u64);
        ctx.wake_in(gap);
    }
    fn on_wake(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.transmit(1.0, ctx.node.index() as u64);
        ctx.listen();
        let gap = 1 + ctx.rng.gen_range(0..6u64);
        ctx.wake_in(gap);
    }
    fn on_receive(&mut self, _ctx: &mut NodeCtx<'_>, _from: NodeId, _msg: u64, _p: f64) {
        self.heard += 1;
    }
}

const N: usize = 14;

fn base() -> LazyBackend {
    LazyBackend::from_fn(N, |i, j| ((i as f64) - (j as f64)).abs().powi(2))
}

/// A channel with every generative layer on, parameterized by seed.
fn stormy_channel(seed: u64, block_len: u64) -> TemporalAdapter {
    let channel = TemporalChannel::new(base(), line_points(N, 1.0), 2.0, block_len);
    TemporalAdapter::new(storm_layers(channel.with_geometric_hints(), seed))
}

/// Every generative layer, parameterized by seed.
fn storm_layers(channel: TemporalChannel, seed: u64) -> TemporalChannel {
    channel
        .with_mobility(MobilityConfig {
            model: MobilityModel::RandomWaypoint {
                speed: 0.5,
                pause: 1,
            },
            seed,
        })
        .with_shadowing(ShadowingConfig {
            sigma_db: 4.0,
            corr_dist: 3.0,
            time_corr: 0.7,
            seed: seed ^ 0xA5,
        })
        .with_fading(FadingConfig { seed: seed ^ 0x5A })
}

fn engine_over(backend: impl DecayBackend + 'static, seed: u64) -> Engine<Gossiper> {
    let behaviors = (0..N).map(|_| Gossiper { heard: 0 }).collect();
    let config = EngineConfig {
        reach_decay: Some(36.0),
        top_k: Some(5),
        record_trace: false,
        ..EngineConfig::default()
    };
    Engine::new(backend, behaviors, SinrParams::default(), config, seed).expect("engine builds")
}

#[test]
fn temporal_runs_are_deterministic_and_channel_sensitive() {
    let run = |ch_seed: u64| {
        let mut e = engine_over(stormy_channel(ch_seed, 8), 7);
        e.run_until(300);
        (e.trace_hash(), e.stats())
    };
    let (h1, s1) = run(1);
    let (h2, s2) = run(1);
    let (h3, _) = run(2);
    assert_eq!(h1, h2, "same channel seed, same trace");
    assert_eq!(s1, s2);
    assert_ne!(h1, h3, "channel seed must shape the trace");
    assert!(s1.deliveries > 0, "no traffic simulated");
}

#[test]
fn bare_temporal_channel_matches_the_static_backend() {
    let mut plain = engine_over(base(), 7);
    let bare = TemporalAdapter::new(TemporalChannel::new(base(), line_points(N, 1.0), 2.0, 8));
    let mut wrapped = engine_over(bare, 7);
    plain.run_until(300);
    wrapped.run_until(300);
    assert_eq!(plain.trace_hash(), wrapped.trace_hash());
    assert_eq!(plain.stats(), wrapped.stats());
}

#[test]
fn trace_export_replays_bit_identically_through_json() {
    // Capture the generative channel's gain field...
    let channel = TemporalChannel::new(base(), line_points(N, 1.0), 2.0, 8)
        .with_mobility(MobilityConfig {
            model: MobilityModel::LevyWalk {
                scale: 0.3,
                exponent: 1.4,
                cap: 2.5,
            },
            seed: 3,
        })
        .with_fading(FadingConfig { seed: 11 });
    let horizon = 300u64;
    let trace = GainTrace::capture(&channel, horizon / 8 + 1);
    let json = trace.to_json_string();

    // ...run the original, then replay the shipped JSON.
    let mut original = engine_over(TemporalAdapter::new(channel), 7);
    original.run_until(horizon);
    let replayed_trace = GainTrace::from_json_str(&json).expect("trace parses");
    let mut replay = engine_over(TemporalAdapter::new(TraceChannel::new(replayed_trace)), 7);
    replay.run_until(horizon);
    assert_eq!(
        original.trace_hash(),
        replay.trace_hash(),
        "replayed gains must reproduce the event trace bit for bit"
    );
    assert_eq!(original.stats(), replay.stats());
}

#[test]
fn restore_rejects_a_different_channel() {
    let mut engine = engine_over(stormy_channel(1, 8), 7);
    engine.run_until(100);
    let bytes = engine.checkpoint().to_bytes();
    let snap: Checkpoint<Gossiper> = Checkpoint::from_bytes(&bytes).expect("decodes");
    assert_ne!(snap.channel_signature(), 0);

    // Wrong channel seed: refused.
    let err = Engine::restore(stormy_channel(2, 8), snap.clone()).unwrap_err();
    assert!(matches!(err, EngineError::ChannelMismatch { .. }), "{err}");
    assert!(err.to_string().contains("signature"));
    // Static backend: refused too.
    assert!(Engine::restore(base(), snap.clone()).is_err());
    // The right channel: accepted.
    assert!(Engine::restore(stormy_channel(1, 8), snap).is_ok());
}

/// Before the closed-form kernel a geometric channel's signature was
/// its undeclared (layered) twin's: the kernel version word is the only
/// difference. A checkpoint carrying that old signature is refused, so
/// it can never replay under the new kernel's bits — and vice versa.
/// So is one carrying the version-1 closed form's signature.
#[test]
fn restore_rejects_a_checkpoint_from_the_layered_kernel() {
    let layered = || {
        let channel = TemporalChannel::new(base(), line_points(N, 1.0), 2.0, 8);
        TemporalAdapter::new(storm_layers(channel, 1))
    };
    let mut old = engine_over(layered(), 7);
    old.run_until(100);
    let snap: Checkpoint<Gossiper> =
        Checkpoint::from_bytes(&old.checkpoint().to_bytes()).expect("decodes");
    let err = Engine::restore(stormy_channel(1, 8), snap.clone()).unwrap_err();
    assert!(matches!(err, EngineError::ChannelMismatch { .. }), "{err}");
    assert!(Engine::restore(layered(), snap).is_ok());

    let mut new = engine_over(stormy_channel(1, 8), 7);
    new.run_until(100);
    let bytes = new.checkpoint().to_bytes();
    let snap: Checkpoint<Gossiper> = Checkpoint::from_bytes(&bytes).expect("decodes");
    assert!(Engine::restore(layered(), snap).is_err());

    // The same checkpoint under the version-1 kernel's signature for
    // this channel (the plain `powf` kernel, before square roots) is
    // refused too: its bits differ from the current kernel's.
    let current = stormy_channel(1, 8).channel_signature();
    let version_1: u64 = 15_156_646_943_768_219_932;
    assert_ne!(current, version_1);
    let at = bytes
        .windows(8)
        .position(|w| w == current.to_le_bytes())
        .expect("the checkpoint records the channel signature");
    let mut old_kernel = bytes.clone();
    old_kernel[at..at + 8].copy_from_slice(&version_1.to_le_bytes());
    let snap: Checkpoint<Gossiper> = Checkpoint::from_bytes(&old_kernel).expect("decodes");
    assert_eq!(snap.channel_signature(), version_1);
    let err = Engine::restore(stormy_channel(1, 8), snap).unwrap_err();
    assert!(matches!(err, EngineError::ChannelMismatch { .. }), "{err}");
}

#[test]
fn monitor_sees_drift_under_a_temporal_channel() {
    let static_backend = base();
    let drifting = stormy_channel(5, 4);
    let mut static_mon = MetricityMonitor::new(20, N);
    let mut drift_mon = MetricityMonitor::new(20, N);
    for tick in (0..=200).step_by(20) {
        static_mon.record(tick, &static_backend);
        drift_mon.record(tick, &drifting);
    }
    let flat: Vec<f64> = static_mon.samples().iter().map(|s| s.zeta).collect();
    let moving: Vec<f64> = drift_mon.samples().iter().map(|s| s.zeta).collect();
    assert!(
        flat.windows(2).all(|w| w[0] == w[1]),
        "static ζ must be flat"
    );
    assert!(
        moving.windows(2).any(|w| w[0] != w[1]),
        "temporal ζ(t) never moved: {moving:?}"
    );
}

/// A 2-D deployment of `N` nodes: a grid four wide, its last row
/// partial.
fn grid_points() -> Vec<Point> {
    (0..N).map(|i| ((i % 4) as f64, (i / 4) as f64)).collect()
}

/// The deployment and path-loss exponent behind base `kind`: the line
/// at α = 2 for kinds 0–1, the grid at α = 2.5 for kind 2.
fn deployment(kind: usize) -> (Vec<Point>, f64) {
    if kind == 2 {
        (grid_points(), 2.5)
    } else {
        (line_points(N, 1.0), 2.0)
    }
}

/// One of the static bases realizing a geometric field: the line on
/// dense and lazy (with a neighbor hint) backends — bit-identical
/// across the two, the standing cross-backend invariant — or the 2-D
/// grid on a lazy backend.
fn geometric_base(kind: usize) -> Box<dyn DecayBackend> {
    let (pts, alpha) = deployment(kind);
    let f = move |i: usize, j: usize| distance(pts[i], pts[j]).powf(alpha);
    match kind {
        0 => Box::new(DenseBackend::new(
            geometric_space(&line_points(N, 1.0), 2.0).expect("distinct points"),
        )),
        1 => {
            let last = N - 1;
            Box::new(
                LazyBackend::from_fn(N, f).with_neighbor_hint(move |i, reach| {
                    let w = reach.sqrt().ceil() as usize;
                    (i.saturating_sub(w)..=(i + w).min(last)).collect()
                }),
            )
        }
        _ => Box::new(LazyBackend::from_fn(N, f)),
    }
}

/// A channel over `geometric_base(kind)` with the layer subset `mask`
/// (bit 0 mobility, bit 1 shadowing, bit 2 fading) and structured
/// reach hints enabled.
fn hinted_channel(kind: usize, seed: u64, mask: u8, block_len: u64) -> TemporalAdapter {
    let (pts, alpha) = deployment(kind);
    let mut ch =
        TemporalChannel::new(geometric_base(kind), pts, alpha, block_len).with_geometric_hints();
    if mask & 1 != 0 {
        ch = ch.with_mobility(MobilityConfig {
            model: MobilityModel::RandomWaypoint {
                speed: 0.5,
                pause: 1,
            },
            seed,
        });
    }
    if mask & 2 != 0 {
        ch = ch.with_shadowing(ShadowingConfig {
            sigma_db: 4.0,
            corr_dist: 3.0,
            time_corr: 0.7,
            seed: seed ^ 0xA5,
        });
    }
    if mask & 4 != 0 {
        ch = ch.with_fading(FadingConfig { seed: seed ^ 0x5A });
    }
    TemporalAdapter::new(ch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The snapshot path (hint-widened candidate windows pruned by the
    /// per-pair bound, cached rows, the block-0 snapshot) answers every
    /// reach query, ids and carried decays bit for bit, exactly as a
    /// brute-force per-block scan does — across
    /// random interleavings of blocks up to 64 (so mobility drifts far
    /// from the deployment), sources, and reach values (including `None`
    /// and the exact decay of a random pair, which sits on the boundary
    /// and must be kept), under every layer subset, on the line's two
    /// static bases and a 2-D grid at α = 2.5. The view advances before
    /// every other query, so both cached view rows and uncached off-view
    /// scans are checked.
    #[test]
    fn snapshot_reach_sets_equal_brute_force_scans(
        seed in 0u64..300,
        mask in 0u8..8,
        block_len in 1u64..6,
        // Reach index 4 encodes `None` (the vendored proptest stand-in
        // has no `option::of`), 5 the exact decay to the partner at
        // offset `off`.
        queries in prop::collection::vec((0u64..65, 0usize..N, 0usize..6, 1usize..N), 24),
    ) {
        let reaches = [4.0, 9.0, 36.0, 1e6];
        for kind in 0..3 {
            let mut adapter = hinted_channel(kind, seed, mask, block_len);
            for (i, &(block, src, reach_idx, off)) in queries.iter().enumerate() {
                if i % 2 == 0 {
                    adapter.advance_to(block * block_len);
                }
                let from = NodeId::new(src);
                let partner = NodeId::new((src + off) % N);
                let reach = match reach_idx {
                    4 => None,
                    5 => Some(adapter.inner().decay_in_block(block, from, partner)),
                    k => Some(reaches[k]),
                };
                let mut got = Vec::new();
                adapter.reach_at(block * block_len, from, reach, &mut got);
                let want: Vec<(NodeId, u64)> = (0..N)
                    .filter(|&j| j != src)
                    .map(|j| {
                        let to = NodeId::new(j);
                        (to, adapter.inner().decay_in_block(block, from, to))
                    })
                    .filter(|&(_, d)| reach.is_none_or(|r| d <= r))
                    .map(|(to, d)| (to, d.to_bits()))
                    .collect();
                let got: Vec<(NodeId, u64)> = got.iter().map(|&(v, d)| (v, d.to_bits())).collect();
                if reach_idx == 5 {
                    prop_assert!(got.iter().any(|&(v, _)| v == partner), "boundary pair dropped");
                }
                prop_assert_eq!(
                    got, want,
                    "base {} mask {} block {} src {} reach {:?}",
                    kind, mask, block, src, reach
                );
            }
        }
    }

    /// `reach_at` is the fused form of a brute-force scan: on every
    /// static base and over it every layer subset, at any tick, for a
    /// reach inside the cached row's window, one beyond it (the
    /// uncached fallback) and no reach at all, it yields exactly
    /// `(v, decay_at(tick, from, v))` for each `v ≠ from` whose decay
    /// is within reach — ids equal, decays bit-equal.
    #[test]
    fn reach_at_equals_a_brute_force_decay_at_scan(
        seed in 0u64..300,
        mask in 0u8..8,
        block_len in 1u64..6,
        queries in prop::collection::vec((0u64..200, 0usize..N), 12),
    ) {
        for kind in 0..3 {
            let base = geometric_base(kind);
            let mut adapter = hinted_channel(kind, seed, mask, block_len);
            for &(tick, src) in &queries {
                adapter.advance_to(tick);
                let from = NodeId::new(src);
                // The first reach builds the view's row; the second sits
                // inside its window, the third beyond it.
                for reach in [Some(9.0), Some(4.0), Some(1e6), None] {
                    for backend in [&adapter as &dyn DecayBackend, &*base] {
                        let mut got = Vec::new();
                        backend.reach_at(tick, from, reach, &mut got);
                        let got: Vec<(NodeId, u64)> =
                            got.iter().map(|&(v, d)| (v, d.to_bits())).collect();
                        let want: Vec<(NodeId, u64)> = (0..N)
                            .filter(|&j| j != src)
                            .map(|j| (NodeId::new(j), backend.decay_at(tick, from, NodeId::new(j))))
                            .filter(|&(_, d)| reach.is_none_or(|r| d <= r))
                            .map(|(v, d)| (v, d.to_bits()))
                            .collect();
                        prop_assert_eq!(
                            got, want,
                            "base {} mask {} tick {} src {} reach {:?}",
                            kind, mask, tick, src, reach
                        );
                    }
                }
            }
        }
    }

    /// Checkpoint/resume at an arbitrary split under a full generative
    /// channel reproduces the uninterrupted run bit for bit — without
    /// serializing any channel state (the rebuilt channel re-derives it).
    #[test]
    fn resume_is_invariant_under_temporal_channels(
        ch_seed in 0u64..500,
        run_seed in 0u64..500,
        block_len in 1u64..20,
        split in 1u64..300,
    ) {
        let mut full = engine_over(stormy_channel(ch_seed, block_len), run_seed);
        full.run_until(300);

        let mut first = engine_over(stormy_channel(ch_seed, block_len), run_seed);
        first.run_until(split);
        let bytes = first.checkpoint().to_bytes();
        let snap: Checkpoint<Gossiper> = Checkpoint::from_bytes(&bytes).expect("decodes");
        let mut resumed = Engine::restore(stormy_channel(ch_seed, block_len), snap)
            .expect("matching channel restores");
        resumed.run_until(300);

        prop_assert_eq!(full.trace_hash(), resumed.trace_hash(), "split {}", split);
        prop_assert_eq!(full.stats(), resumed.stats());
    }
}

/// With timers compiled in, a storm-shaped run (a 12 × 12 grid at
/// α = 2.5 under every layer) times its reach windows and its row
/// builds inside the channel, and the two spans are disjoint and nest
/// inside the engine's `resolve`: both are non-zero and their sum is at
/// most `resolve`'s.
#[cfg(feature = "telemetry-timing")]
#[test]
fn reach_window_and_row_build_are_disjoint_inside_resolve() {
    use decay_core::telemetry::Timer;
    let side = 12;
    let pts: Vec<Point> = (0..side * side)
        .map(|i| ((i % side) as f64, (i / side) as f64))
        .collect();
    let field = pts.clone();
    let base = LazyBackend::from_fn(pts.len(), move |i, j| {
        distance(field[i], field[j]).powf(2.5)
    });
    let channel = TemporalChannel::new(base, pts.clone(), 2.5, 2).with_geometric_hints();
    let behaviors = pts.iter().map(|_| Gossiper { heard: 0 }).collect();
    let config = EngineConfig {
        reach_decay: Some(36.0),
        top_k: Some(5),
        record_trace: false,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(
        TemporalAdapter::new(storm_layers(channel, 3)),
        behaviors,
        SinrParams::default(),
        config,
        11,
    )
    .expect("engine builds");
    engine.run_until(200);
    let channel = engine
        .backend()
        .telemetry()
        .expect("a temporal backend keeps a sink")
        .snapshot();
    let ns = |timer| channel.timer_ns(timer).expect("timing is compiled in");
    let (window, rows) = (ns(Timer::ReachWindow), ns(Timer::RowBuild));
    let resolve = engine
        .telemetry()
        .snapshot()
        .timer_ns(Timer::Resolve)
        .expect("timing is compiled in");
    assert!(
        window > 0 && rows > 0,
        "reach_window {window}, row_build {rows}"
    );
    assert!(
        window + rows <= resolve,
        "reach_window {window} + row_build {rows} > resolve {resolve}"
    );
}
