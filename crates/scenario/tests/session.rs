//! Session-driver conformance: a [`RunSession`] driven externally —
//! stepped pause by pause, parked to bytes at an arbitrary split, and
//! resumed — must be byte-identical (runlog, digest, ζ(t), windowed
//! PRR, latency histogram) to the one-shot [`ScenarioRunner`] drivers,
//! on every backend. This is the contract that makes
//! external schedulers (preemption, migration across threads) free.

use std::sync::Arc;

use decay_channel::ZetaSample;
use decay_distributed::ContentionStrategy;
use decay_engine::{ChurnConfig, JamSchedule, LatencyModel, PrrWindowSample, Tick};
use decay_netsim::ReceptionModel;
use decay_scenario::{
    runlog, AdaptiveSpec, BackendSpec, ChannelSpec, CompiledScenario, FadingSpec, MobilitySpec,
    MonitorSpec, ProtocolSpec, RunLog, RunOptions, RunSession, ScenarioCache, ScenarioError,
    ScenarioReport, ScenarioRunner, ScenarioSpec, SessionStep, ShadowingSpec, SinrSpec,
    TopologySpec,
};
use proptest::prelude::*;

/// A spec with every observable stream active: temporal channel, ζ(t)
/// monitor, windowed PRR, and (optionally) the adaptive controller.
fn observed_spec(protocol: u8, seed: u64, adaptive: bool) -> ScenarioSpec {
    ScenarioSpec {
        name: "sessioned".to_string(),
        seed,
        horizon: 260,
        check_interval: 16,
        topology: TopologySpec::Line {
            n: 18,
            spacing: 1.0,
            alpha: 2.2,
        },
        backend: BackendSpec::Lazy,
        sinr: SinrSpec {
            beta: 1.0,
            noise: 0.05,
        },
        reception: ReceptionModel::Rayleigh,
        protocol: match protocol % 3 {
            0 => ProtocolSpec::Announce {
                probability: 0.2,
                power: 1.0,
            },
            1 => ProtocolSpec::Broadcast {
                neighborhood_decay: 4.0,
                probability: Some(0.1),
                power: 1.0,
            },
            _ => ProtocolSpec::Contention {
                links: vec![],
                strategy: ContentionStrategy::Fixed { p: 0.15 },
            },
        },
        churn: Some(ChurnConfig {
            interval: 5,
            leave_prob: 0.25,
            join_prob: 0.75,
        }),
        faults: vec![],
        jamming: JamSchedule::Periodic { period: 7 },
        latency: LatencyModel::Jittered { base: 1, jitter: 3 },
        reach_decay: Some(100.0),
        top_k: Some(6),
        channel: Some(ChannelSpec {
            block: 8,
            mobility: Some(MobilitySpec::Waypoint {
                speed: 0.4,
                pause: 1,
                seed: 51,
            }),
            shadowing: Some(ShadowingSpec {
                sigma_db: 3.0,
                corr_dist: 3.0,
                time_corr: 0.6,
                seed: 52,
            }),
            fading: Some(FadingSpec { seed: 53 }),
            trace: None,
            trace_path: None,
            monitor: Some(MonitorSpec {
                interval: 32,
                max_nodes: 10,
            }),
        }),
        prr_window: Some(32),
        adaptive: adaptive.then_some(AdaptiveSpec {
            interval: 16,
            max_nodes: 10,
            base_p: 0.12,
            zeta_ref: 2.2,
            floor: 0.02,
            cap: 0.4,
        }),
    }
}

fn backend_for(which: u8) -> BackendSpec {
    match which {
        0 => BackendSpec::Dense,
        _ => BackendSpec::Lazy,
    }
}

/// The deterministic slice of a report the conformance checks compare
/// (wall-clock rates, and the rescans a split inside a coherence block
/// adds to `scan_stats`, are execution-dependent by design).
#[expect(
    clippy::type_complexity,
    reason = "a flat tuple of borrowed fields compares in one assert"
)]
fn deterministic_view(
    r: &ScenarioReport,
) -> (
    &decay_scenario::TraceDigest,
    &Vec<ZetaSample>,
    &Vec<PrrWindowSample>,
    f64,
    Option<Tick>,
    &[u64; decay_scenario::LATENCY_BUCKETS],
    u64,
) {
    (
        &r.digest,
        &r.metrics.zeta_series,
        &r.metrics.prr_windows,
        r.metrics.prr,
        r.metrics.completed_at,
        &r.metrics.latency_hist,
        r.metrics.channel_signature,
    )
}

/// Drives a session by hand: step to every pause, and at the requested
/// breakpoint run a full checkpoint + park + resume cycle through
/// bytes. Returns the report, the runlog text, and the parked bytes.
fn drive_session(
    spec: ScenarioSpec,
    backend: BackendSpec,
    split: Tick,
) -> (ScenarioReport, String, Option<Vec<u8>>) {
    let compiled = Arc::new(CompiledScenario::compile(spec).expect("compiles"));
    let mut log: Vec<u8> = Vec::new();
    let mut parked_bytes = None;
    let report = {
        let mut session = RunSession::new(
            Arc::clone(&compiled),
            RunOptions {
                backend: Some(backend),
                runlog: Some(&mut log),
                ..RunOptions::default()
            },
            &mut [],
        )
        .expect("session opens");
        session.set_breakpoint(split);
        loop {
            match session.step_to_next_pause() {
                SessionStep::Paused => {}
                SessionStep::Breakpoint => {
                    assert_eq!(session.now(), split, "breakpoint paused off-split");
                    // A passive snapshot and a park must serialize the
                    // same state.
                    let peek = session.checkpoint();
                    let bytes = session.park();
                    assert_eq!(peek, bytes, "checkpoint() and park() bytes diverge");
                    assert!(session.is_parked());
                    session.resume(&bytes).expect("resume succeeds");
                    assert!(!session.is_parked());
                    parked_bytes = Some(bytes);
                }
                SessionStep::Finished => break,
            }
        }
        session.finish().expect("finish succeeds")
    };
    // `parked_bytes` stays `None` when the run completed before the
    // split — the one-shot driver reports `checkpointed: None` there
    // too, and the caller checks the two agree.
    (
        report,
        String::from_utf8(log).expect("runlog is utf-8"),
        parked_bytes,
    )
}

/// The uninterrupted one-shot reference run, with runlog attached.
fn reference_run(spec: ScenarioSpec, backend: BackendSpec) -> (ScenarioReport, String) {
    let mut log: Vec<u8> = Vec::new();
    let report = ScenarioRunner::new(spec)
        .expect("spec compiles")
        .run(RunOptions {
            backend: Some(backend),
            runlog: Some(&mut log),
            ..RunOptions::default()
        })
        .expect("reference run succeeds");
    (report, String::from_utf8(log).expect("runlog is utf-8"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// An externally stepped session — parked to bytes at an arbitrary
    /// split and resumed — reproduces the uninterrupted dense reference
    /// byte for byte: runlog (modulo the resume marker), digest, ζ(t),
    /// windowed PRR, and latency histogram. The checkpoint bytes
    /// themselves are pinned identical across backend choices.
    #[test]
    fn stepped_session_matches_oneshot_driver(
        protocol in 0u8..3,
        seed in 0u64..1_000,
        adaptive_knob in 0u8..2,
        backend_a in 0u8..2,
        backend_b in 0u8..2,
        split in 1u64..260,
    ) {
        let adaptive = adaptive_knob == 1;
        let (reference, ref_log) =
            reference_run(observed_spec(protocol, seed, adaptive), BackendSpec::Dense);

        // Two independently chosen backends.
        let (run_a, log_a, bytes_a) =
            drive_session(observed_spec(protocol, seed, adaptive), backend_for(backend_a), split);
        let (run_b, log_b, bytes_b) =
            drive_session(observed_spec(protocol, seed, adaptive), backend_for(backend_b), split);

        for (run, bytes) in [(&run_a, &bytes_a), (&run_b, &bytes_b)] {
            prop_assert_eq!(deterministic_view(run), deterministic_view(&reference));
            prop_assert_eq!(run.nodes, reference.nodes);
            // The cycle runs unless the goal was reached first — and
            // completion is deterministic, so both sessions agree.
            prop_assert_eq!(run.checkpointed, bytes.as_ref().map(|_| split));
        }
        prop_assert_eq!(run_a.checkpointed, run_b.checkpointed);
        prop_assert_eq!(reference.checkpointed, None);

        // The runlog byte stream is session- and backend-invariant once
        // the resume marker is normalized away.
        let ref_norm = runlog::normalize(&ref_log).expect("reference log parses");
        prop_assert_eq!(&runlog::normalize(&log_a).expect("log parses"), &ref_norm);
        prop_assert_eq!(&runlog::normalize(&log_b).expect("log parses"), &ref_norm);

        // Checkpoint bytes are a pure function of (spec, tick):
        // identical across backend choices.
        prop_assert_eq!(&bytes_a, &bytes_b);
    }
}

/// `scan_stats` of a resumed run covers the whole run, not only the
/// part after the split: at block length 1 every split lands on a
/// block boundary, so the rebuilt backend rescans nothing the first
/// one already built and the totals equal the uninterrupted run's.
#[test]
fn resumed_scan_stats_cover_the_whole_run() {
    let spec = || {
        let mut spec = observed_spec(0, 7, false);
        spec.channel.as_mut().expect("temporal spec").block = 1;
        spec
    };
    let (reference, _) = reference_run(spec(), BackendSpec::Lazy);
    let whole = reference.metrics.scan_stats.expect("temporal backend");
    assert!(whole.scans > 0);
    for split in [16, 100, 203] {
        let (run, _, bytes) = drive_session(spec(), BackendSpec::Lazy, split);
        assert!(bytes.is_some(), "split {split} never parked");
        assert_eq!(run.metrics.scan_stats, Some(whole), "split {split}");
    }
}

/// A horizon-bound run (announce never completes) ends with
/// `Finished` at the horizon, never `Paused` or `Breakpoint` there: a
/// park at `tick == horizon` would write a resume marker that
/// `RunLog::parse` rejects. The session is parked and resumed at every
/// pause it reports, with and without a breakpoint on the horizon
/// itself (the on-grid breakpoint path), and the runlog must parse.
#[test]
fn horizon_ends_the_run_and_every_park_parses() {
    for breakpoint_at_horizon in [false, true] {
        let spec = observed_spec(0, 11, false);
        let horizon = spec.horizon;
        let compiled = Arc::new(CompiledScenario::compile(spec).expect("compiles"));
        let mut log: Vec<u8> = Vec::new();
        let mut parks = 0;
        let report = {
            let mut session = RunSession::new(
                compiled,
                RunOptions {
                    runlog: Some(&mut log),
                    ..RunOptions::default()
                },
                &mut [],
            )
            .expect("session opens");
            session.set_breakpoint(40);
            loop {
                let step = session.step_to_next_pause();
                if step == SessionStep::Finished {
                    break;
                }
                assert!(session.now() < horizon, "{step:?} at the horizon");
                if step == SessionStep::Breakpoint && breakpoint_at_horizon {
                    session.set_breakpoint(horizon);
                }
                let bytes = session.park();
                session.resume(&bytes).expect("resume succeeds");
                parks += 1;
            }
            assert_eq!(session.now(), horizon);
            session.finish().expect("finish succeeds")
        };
        assert_eq!(report.metrics.completed_at, None);
        let text = String::from_utf8(log).expect("runlog is utf-8");
        RunLog::parse(&text).unwrap_or_else(|e| panic!("runlog rejected: {e}"));
        let markers = text
            .lines()
            .filter(|l| l.contains("\"record\":\"resume\""))
            .count();
        assert_eq!(markers, parks);
    }
}

/// A session refuses a `resume_at` outside `(0, horizon)` when it
/// opens, instead of running to the end without a checkpoint cycle;
/// an interior split opens and checkpoints exactly there.
#[test]
fn session_rejects_out_of_range_resume_at() {
    let spec = observed_spec(0, 1, false);
    let horizon = spec.horizon;
    let compiled = Arc::new(CompiledScenario::compile(spec).expect("compiles"));
    let open = |resume_at| {
        RunSession::new(
            Arc::clone(&compiled),
            RunOptions {
                resume_at: Some(resume_at),
                ..RunOptions::default()
            },
            &mut [],
        )
    };
    for bad in [0, horizon, 1000] {
        match open(bad) {
            Err(ScenarioError::InvalidSplit { split, horizon: h }) => {
                assert_eq!((split, h), (bad, horizon));
            }
            other => panic!("resume_at {bad}: expected InvalidSplit, got {other:?}"),
        }
    }
    let report = open(100)
        .expect("interior split opens")
        .run_to_end()
        .expect("run succeeds");
    assert_eq!(report.checkpointed, Some(100));
}

/// A warm [`ScenarioCache`] hit shares the compilation — points and
/// plan untouched, `compile_hits` bumped — and the shared compilation
/// runs to the same digest as the cold one.
#[test]
fn warm_cache_skips_recompilation() {
    let cache = ScenarioCache::new(4);
    let spec = observed_spec(1, 9, true);
    let cold = cache.compile(spec.clone()).expect("cold compile");
    assert_eq!(cache.compile_hits(), 0);
    let first = ScenarioRunner::from_compiled(Arc::clone(&cold))
        .run(RunOptions::default())
        .expect("cold run");

    let warm = cache.compile(spec).expect("warm compile");
    assert_eq!(cache.compile_hits(), 1, "second submission must hit");
    assert!(
        Arc::ptr_eq(&cold, &warm),
        "warm hit rebuilt the compilation"
    );
    assert!(
        Arc::ptr_eq(cold.points(), warm.points()),
        "warm hit redeployed the topology"
    );
    let second = ScenarioRunner::from_compiled(warm)
        .run(RunOptions::default())
        .expect("warm run");
    assert_eq!(first.digest, second.digest);
}
