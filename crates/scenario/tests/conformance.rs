//! Cross-backend conformance: the same [`ScenarioSpec`] run on dense
//! and lazy [`decay_engine::DecayBackend`]s must yield bit-identical
//! trace digests. This is the property that catches pruning/cutoff
//! divergence — a neighbor hint that drops an in-reach node, a memo
//! that rounds a decay differently, a reach filter applied on one
//! backend but not another — all surface as digest drift here.

use decay_distributed::ContentionStrategy;
use decay_engine::{ChurnConfig, JamSchedule, LatencyModel};
use decay_netsim::ReceptionModel;
use decay_scenario::{
    AdaptiveSpec, BackendSpec, ChannelSpec, FadingSpec, MobilitySpec, MonitorSpec, ProtocolSpec,
    RunOptions, ScenarioRunner, ScenarioSpec, ShadowingSpec, SinrSpec, TopologySpec,
};
use proptest::prelude::*;

/// Integer knobs a conformance case is generated from.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    topo: u8,
    n: usize,
    seed: u64,
    protocol: u8,
    churn: bool,
    jam: u8,
    latency: u8,
    pruned: bool,
    channel: u8,
}

/// Builds a varied but valid spec from integer knobs.
fn spec_from_knobs(knobs: Knobs) -> ScenarioSpec {
    let Knobs {
        topo,
        n,
        seed,
        protocol,
        churn,
        jam,
        latency,
        pruned,
        channel,
    } = knobs;
    let topology = match topo % 5 {
        0 => TopologySpec::Line {
            n,
            spacing: 1.0,
            alpha: 2.5,
        },
        1 => {
            let side = (3 + n % 4).max(3);
            TopologySpec::Grid {
                side,
                spacing: 1.3,
                alpha: 2.8,
            }
        }
        2 => TopologySpec::Ring {
            n,
            radius: n as f64 / 2.0,
            alpha: 2.0,
        },
        3 => TopologySpec::Random {
            n,
            size: 25.0,
            alpha: 2.2,
            seed: 11,
        },
        _ => {
            let clusters = 2 + n % 3;
            TopologySpec::Clustered {
                clusters,
                per_cluster: n / clusters,
                size: 25.0,
                alpha: 2.4,
                seed: 13,
            }
        }
    };
    let protocol = match protocol % 3 {
        0 => ProtocolSpec::Announce {
            probability: 0.15,
            power: 1.0,
        },
        1 => ProtocolSpec::Broadcast {
            neighborhood_decay: 4.0,
            probability: Some(0.08),
            power: 1.0,
        },
        _ => ProtocolSpec::Contention {
            links: vec![],
            strategy: ContentionStrategy::Backoff {
                start: 0.4,
                down: 0.5,
                up: 1.05,
                floor: 0.02,
            },
        },
    };
    // Reach cutoffs and top-k pruning are exactly the machinery most
    // likely to diverge between backends; exercise them hard.
    let (reach_decay, top_k) = if pruned {
        (Some(64.0), Some(4))
    } else {
        (None, None)
    };
    // Temporal channels: the block-boundary reach recomputation and the
    // multiplicative layers must be backend-invariant too.
    let channel = match channel % 4 {
        0 => None,
        variant => Some(ChannelSpec {
            block: 4,
            mobility: (variant != 2).then_some(MobilitySpec::Waypoint {
                speed: 0.3,
                pause: 1,
                seed: 31,
            }),
            shadowing: (variant >= 2).then_some(ShadowingSpec {
                sigma_db: 3.0,
                corr_dist: 2.5,
                time_corr: 0.6,
                seed: 32,
            }),
            fading: (variant >= 2).then_some(FadingSpec { seed: 33 }),
            trace: None,
            trace_path: None,
            monitor: Some(MonitorSpec {
                interval: 64,
                max_nodes: 8,
            }),
        }),
    };
    ScenarioSpec {
        name: "conformance".to_string(),
        seed,
        horizon: 220,
        check_interval: 16,
        topology,
        backend: BackendSpec::Lazy,
        sinr: SinrSpec {
            beta: 1.0,
            noise: 0.05,
        },
        reception: if jam == 2 {
            ReceptionModel::Rayleigh
        } else {
            ReceptionModel::Threshold
        },
        protocol,
        churn: churn.then_some(ChurnConfig {
            interval: 6,
            leave_prob: 0.25,
            join_prob: 0.75,
        }),
        faults: vec![],
        jamming: match jam {
            0 => JamSchedule::None,
            1 => JamSchedule::Periodic { period: 5 },
            _ => JamSchedule::Random { prob: 0.15 },
        },
        latency: match latency % 3 {
            0 => LatencyModel::Immediate,
            1 => LatencyModel::Fixed { ticks: 2 },
            _ => LatencyModel::Jittered { base: 1, jitter: 3 },
        },
        reach_decay,
        top_k,
        channel,
        prr_window: Some(32),
        // Half the cases run under the ζ(t)-adaptive controller: its
        // decisions derive from the backend's instantaneous field,
        // which is bit-identical across backends, so controlled runs
        // must conform exactly like passive ones.
        adaptive: seed.is_multiple_of(2).then_some(AdaptiveSpec {
            interval: 16,
            max_nodes: 8,
            base_p: 0.1,
            zeta_ref: 2.0,
            floor: 0.02,
            cap: 0.4,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Dense and lazy backends produce bit-identical digests for
    /// the same spec, across topologies, protocols, dynamics, and temporal
    /// channels — and when a metricity monitor runs, the ζ(t) series is
    /// backend-invariant too.
    #[test]
    fn backends_yield_identical_digests(
        topo in 0u8..5,
        n in 8usize..26,
        seed in 0u64..10_000,
        protocol in 0u8..3,
        churn in 0u8..2,
        jam in 0u8..3,
        latency in 0u8..3,
        pruned in 0u8..2,
        channel in 0u8..4,
    ) {
        let spec = spec_from_knobs(Knobs {
            topo,
            n,
            seed,
            protocol,
            churn: churn == 1,
            jam,
            latency,
            pruned: pruned == 1,
            channel,
        });
        assert_backends_agree(spec);
    }
}

/// Dense and lazy backends produce bit-identical digests (and
/// ζ(t) series) for `spec`.
fn assert_backends_agree(spec: ScenarioSpec) {
    let monitored = spec.channel.as_ref().is_some_and(|c| c.monitor.is_some());
    let runner = ScenarioRunner::new(spec).unwrap();
    let run_on = |backend| {
        runner
            .run(RunOptions {
                backend: Some(backend),
                ..RunOptions::default()
            })
            .unwrap()
    };
    let dense = run_on(BackendSpec::Dense);
    let lazy = run_on(BackendSpec::Lazy);
    assert_eq!(&dense.digest, &lazy.digest, "dense vs lazy");
    assert_eq!(&dense.metrics.zeta_series, &lazy.metrics.zeta_series);
    if monitored {
        assert!(
            !dense.metrics.zeta_series.is_empty(),
            "monitored channel produced no ζ(t) samples"
        );
    }
    // Deterministic in the spec: a second run reproduces exactly.
    let again = run_on(BackendSpec::Dense);
    assert_eq!(&dense.digest, &again.digest, "rerun");
    // And the digest survives its own canonical text form.
    let parsed = decay_scenario::TraceDigest::parse(&dense.digest.canonical()).unwrap();
    assert_eq!(parsed, dense.digest);
}

/// Clustered deployments get every channel variant, static included,
/// whatever the proptest draws.
#[test]
fn clustered_backends_yield_identical_digests() {
    for channel in 0..4 {
        for (n, protocol) in [(13, 0), (22, 1)] {
            let spec = spec_from_knobs(Knobs {
                topo: 4,
                n,
                seed: 5 + channel as u64,
                protocol,
                churn: false,
                jam: 0,
                latency: 1,
                pruned: channel % 2 == 1,
                channel,
            });
            assert_backends_agree(spec);
        }
    }
}

/// Different seeds produce different traces (the digest actually hashes
/// the trace, rather than collapsing everything to a constant).
#[test]
fn seeds_differentiate_digests() {
    let run = |seed| {
        let spec = spec_from_knobs(Knobs {
            topo: 0,
            n: 16,
            seed,
            protocol: 0,
            churn: false,
            jam: 0,
            latency: 0,
            pruned: false,
            channel: 0,
        });
        ScenarioRunner::new(spec)
            .unwrap()
            .run(RunOptions::default())
            .unwrap()
            .digest
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(a.hash, b.hash);
    assert!(a.stats.deliveries > 0, "no traffic simulated");
}
