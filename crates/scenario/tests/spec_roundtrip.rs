//! Round-trip property for the scenario JSON layer: any valid
//! [`ScenarioSpec`] — including the temporal `channel` block and inline
//! gain traces — printed by the hand-rolled serializer and re-parsed
//! must compare equal, and printing must be a fixed point (re-serializing
//! never diffs). This is what lets shipped spec files be regenerated by
//! tooling without spurious churn.

use decay_channel::{GainFrame, GainTrace};
use decay_distributed::ContentionStrategy;
use decay_engine::{ChurnConfig, JamSchedule, LatencyModel};
use decay_netsim::ReceptionModel;
use decay_scenario::{
    spec_signature, AdaptiveSpec, BackendSpec, ChannelSpec, FadingSpec, FaultSpec, LinkSpec,
    MobilitySpec, MonitorSpec, ProtocolSpec, ScenarioSpec, ShadowingSpec, SinrSpec, TopologySpec,
};
use proptest::prelude::*;

/// An awkward but JSON-exact float derived from an integer knob: mixes
/// negative-power-of-two fractions (exact) with decimal fractions whose
/// shortest representation exercises the printer.
fn knobbed_f64(k: u64, lo: f64) -> f64 {
    lo + (k % 7) as f64 + (k % 13) as f64 / 64.0 + (k % 3) as f64 * 0.1
}

fn topology(knob: u64, n: usize) -> TopologySpec {
    let alpha = 1.5 + (knob % 5) as f64 / 2.0;
    match knob % 5 {
        0 => TopologySpec::Line {
            n,
            spacing: knobbed_f64(knob, 0.5),
            alpha,
        },
        1 => TopologySpec::Grid {
            side: 3 + (n % 3),
            spacing: knobbed_f64(knob, 0.5),
            alpha,
        },
        2 => TopologySpec::Ring {
            n,
            radius: knobbed_f64(knob, 2.0),
            alpha,
        },
        3 => TopologySpec::Random {
            n,
            size: knobbed_f64(knob, 10.0),
            alpha,
            seed: knob,
        },
        _ => TopologySpec::Clustered {
            clusters: 2 + n % 3,
            per_cluster: 2 + n % 4,
            size: knobbed_f64(knob, 10.0),
            alpha,
            seed: knob,
        },
    }
}

fn protocol(knob: u64) -> ProtocolSpec {
    match knob % 4 {
        0 => ProtocolSpec::Broadcast {
            neighborhood_decay: knobbed_f64(knob, 2.0),
            probability: knob
                .is_multiple_of(2)
                .then_some(0.05 + (knob % 9) as f64 / 100.0),
            power: knobbed_f64(knob, 0.5),
        },
        1 => ProtocolSpec::Contention {
            links: vec![LinkSpec { from: 0, to: 1 }, LinkSpec { from: 3, to: 2 }],
            strategy: ContentionStrategy::Fixed {
                p: 0.1 + (knob % 8) as f64 / 10.0,
            },
        },
        2 => ProtocolSpec::Contention {
            links: vec![],
            strategy: ContentionStrategy::Backoff {
                start: 0.5,
                down: 0.25 + (knob % 5) as f64 / 10.0,
                up: 1.0 + (knob % 3) as f64 / 4.0,
                floor: 0.0625,
            },
        },
        _ => ProtocolSpec::Announce {
            probability: 0.05 + (knob % 9) as f64 / 100.0,
            power: knobbed_f64(knob, 0.5),
        },
    }
}

fn channel(knob: u64, n: usize, check_interval: u64) -> Option<ChannelSpec> {
    if knob.is_multiple_of(5) {
        return None;
    }
    let block = 1 + knob % 16;
    // Variant 4: an inline gain trace (excludes the generative layers).
    if knob % 5 == 4 {
        let frame = |b: u64, scale: f64| GainFrame {
            block: b,
            gains: (0..n * n)
                .map(|k| {
                    let (i, j) = (k / n, k % n);
                    if i == j {
                        0.0
                    } else {
                        scale * ((i as f64) - (j as f64)).abs() + 0.125
                    }
                })
                .collect(),
        };
        let trace = GainTrace::from_frames(
            n,
            block,
            vec![
                frame(0, 1.0),
                frame(2 + knob % 5, knobbed_f64(knob, 0.5) + 0.25),
            ],
        )
        .expect("generated frames validate");
        // Odd knobs reference the trace by repo-relative path instead of
        // inlining it (resolution happens at runner build, not parse, so
        // the round trip is pure).
        let use_path = !knob.is_multiple_of(2);
        return Some(ChannelSpec {
            block,
            mobility: None,
            shadowing: None,
            fading: None,
            trace: (!use_path).then_some(trace),
            trace_path: use_path.then(|| format!("scenarios/traces/knob_{}.json", knob % 4)),
            monitor: knob.is_multiple_of(2).then_some(MonitorSpec {
                interval: check_interval * (1 + knob % 3),
                max_nodes: 3 + (knob % 8) as usize,
            }),
        });
    }
    let mobility = match knob % 4 {
        0 => None,
        1 => Some(MobilitySpec::Waypoint {
            speed: (knob % 10) as f64 / 8.0,
            pause: knob % 5,
            seed: knob,
        }),
        2 => Some(MobilitySpec::Levy {
            scale: 0.125 + (knob % 4) as f64 / 8.0,
            exponent: 1.0 + (knob % 5) as f64 / 4.0,
            cap: 8.0,
            seed: knob,
        }),
        _ => Some(MobilitySpec::Group {
            groups: 1 + (knob % 3) as usize,
            speed: (knob % 7) as f64 / 8.0,
            spread: (knob % 5) as f64 / 16.0,
            seed: knob,
        }),
    };
    Some(ChannelSpec {
        block,
        mobility,
        shadowing: knob.is_multiple_of(3).then_some(ShadowingSpec {
            sigma_db: (knob % 12) as f64 / 2.0,
            corr_dist: knobbed_f64(knob, 1.0),
            time_corr: (knob % 10) as f64 / 10.0,
            seed: knob,
        }),
        fading: knob.is_multiple_of(2).then_some(FadingSpec { seed: knob }),
        trace: None,
        trace_path: None,
        monitor: (knob % 3 == 1).then_some(MonitorSpec {
            interval: check_interval * (1 + knob % 4),
            max_nodes: 3 + (knob % 10) as usize,
        }),
    })
}

/// A valid spec assembled from integer knobs, spanning every topology,
/// backend, protocol, dynamics, and channel variant.
fn spec_from_knobs(k: [u64; 8]) -> ScenarioSpec {
    let n = 4 + (k[1] % 12) as usize;
    let check_interval = 8 + k[2] % 57;
    let spec = ScenarioSpec {
        name: format!("rt-{}_{}", k[0] % 97, k[1] % 89),
        seed: k[0],
        horizon: 1 + k[2] % 100_000,
        check_interval,
        topology: topology(k[3], n),
        backend: match k[4] % 2 {
            0 => BackendSpec::Dense,
            _ => BackendSpec::Lazy,
        },
        sinr: SinrSpec {
            beta: 1.0 + (k[5] % 8) as f64 / 4.0,
            noise: (k[5] % 5) as f64 / 20.0,
        },
        reception: if k[5].is_multiple_of(2) {
            ReceptionModel::Threshold
        } else {
            ReceptionModel::Rayleigh
        },
        protocol: protocol(k[6]),
        churn: k[6].is_multiple_of(3).then_some(ChurnConfig {
            interval: 1 + k[6] % 20,
            leave_prob: (k[6] % 11) as f64 / 10.0,
            join_prob: (k[6] % 7) as f64 / 6.0,
        }),
        faults: if k[7].is_multiple_of(4) {
            vec![
                FaultSpec {
                    node: 0,
                    from: k[7] % 50,
                    until: Some(k[7] % 50 + 1 + k[7] % 30),
                },
                FaultSpec {
                    node: 1,
                    from: 5,
                    until: None,
                },
            ]
        } else {
            vec![]
        },
        jamming: match k[7] % 3 {
            0 => JamSchedule::None,
            1 => JamSchedule::Periodic {
                period: 1 + k[7] % 12,
            },
            _ => JamSchedule::Random {
                prob: (k[7] % 10) as f64 / 10.0,
            },
        },
        latency: match (k[7] / 3) % 3 {
            0 => LatencyModel::Immediate,
            1 => LatencyModel::Fixed { ticks: k[7] % 9 },
            _ => LatencyModel::Jittered {
                base: k[7] % 4,
                jitter: k[7] % 6,
            },
        },
        reach_decay: k[5]
            .is_multiple_of(3)
            .then_some(1000.0 + knobbed_f64(k[5], 0.0)),
        top_k: k[5].is_multiple_of(4).then_some(1 + (k[5] % 12) as usize),
        channel: channel(k[0] ^ k[7], n, check_interval),
        prr_window: k[4]
            .is_multiple_of(3)
            .then_some(check_interval * (1 + k[4] % 5)),
        adaptive: k[3].is_multiple_of(4).then_some(AdaptiveSpec {
            interval: check_interval * (1 + k[3] % 3),
            max_nodes: 3 + (k[3] % 10) as usize,
            base_p: 0.1 + (k[3] % 5) as f64 / 16.0,
            zeta_ref: 1.5 + (k[3] % 4) as f64 / 2.0,
            floor: 0.05,
            cap: 0.5,
        }),
    };
    // The generators above aim at valid specs by construction; skip the
    // rare combination that misses (e.g. a contention link set on a
    // 4-node clustered deployment) rather than weaken the assertion.
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// print → parse is the identity on valid specs, and printing is a
    /// fixed point.
    #[test]
    fn specs_round_trip_through_the_json_layer(
        k0 in 0u64..1_000_000,
        k1 in 0u64..1_000_000,
        k2 in 0u64..1_000_000,
        k3 in 0u64..1_000_000,
        k4 in 0u64..1_000_000,
        k5 in 0u64..1_000_000,
        k6 in 0u64..1_000_000,
        k7 in 0u64..1_000_000,
    ) {
        let spec = spec_from_knobs([k0, k1, k2, k3, k4, k5, k6, k7]);
        prop_assume!(spec.validate().is_ok());
        let text = spec.to_json_string();
        let back = ScenarioSpec::from_json_str(&text)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n{text}"));
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_json_string(), text, "printing must be a fixed point");
    }
}

/// The assumption above must not be vacuous: most generated specs are
/// valid, and both channel-bearing and channel-free specs occur.
#[test]
fn generator_yields_mostly_valid_specs() {
    let mut valid = 0;
    let mut with_channel = 0;
    let mut with_trace = 0;
    let mut with_trace_path = 0;
    let mut with_adaptive = 0;
    let total = 400u64;
    for x in 0..total {
        let spec = spec_from_knobs([x * 31, x * 7, x * 13, x * 3, x * 5, x * 11, x * 17, x * 19]);
        if spec.validate().is_ok() {
            valid += 1;
            if spec.adaptive.is_some() {
                with_adaptive += 1;
            }
            if let Some(c) = &spec.channel {
                with_channel += 1;
                if c.trace.is_some() {
                    with_trace += 1;
                }
                if c.trace_path.is_some() {
                    with_trace_path += 1;
                }
            }
        }
    }
    assert!(valid > total / 2, "only {valid}/{total} specs valid");
    assert!(with_channel > 50, "only {with_channel} channel specs");
    assert!(
        with_trace + with_trace_path > 5,
        "only {with_trace} inline + {with_trace_path} path trace specs"
    );
    assert!(with_adaptive > 10, "only {with_adaptive} adaptive specs");
}

/// The retired `threads` key is still accepted — range-checked to
/// [1, 256], then ignored — so specs written with it keep parsing to the
/// same spec and signature. The printer never emits it.
#[test]
fn threads_key_is_range_checked_then_ignored() {
    let spec = (0..)
        .map(|x: u64| {
            spec_from_knobs([x * 31, x * 7, x * 13, x * 3, x * 5, x * 11, x * 17, x * 19])
        })
        .find(|spec| spec.validate().is_ok())
        .expect("a valid generated spec");
    let text = spec.to_json_string();
    assert!(!text.contains("\"threads\""), "{text}");
    let with_threads = |t: i64| text.replacen('{', &format!("{{\"threads\": {t},"), 1);
    for t in [1, 4, 256] {
        let back = ScenarioSpec::from_json_str(&with_threads(t))
            .unwrap_or_else(|e| panic!("threads {t} rejected: {e}"));
        assert_eq!(back, spec);
        assert_eq!(spec_signature(&back), spec_signature(&spec));
    }
    for t in [0, 257] {
        let err = ScenarioSpec::from_json_str(&with_threads(t)).expect_err("out of range");
        assert_eq!(err.path, "threads", "threads {t}: {err}");
    }
}
