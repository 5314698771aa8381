//! Checkpoint/resume determinism under combined dynamics: pausing a run
//! at an arbitrary mid-run point, serializing the engine to bytes,
//! decoding, and restoring onto a freshly built backend must leave the
//! golden digest unchanged — with churn, jamming, and delivery jitter
//! all active at once.

use decay_core::telemetry::Counter;
use decay_distributed::ContentionStrategy;
use decay_engine::{ChurnConfig, JamSchedule, LatencyModel, Tick};
use decay_netsim::ReceptionModel;
use decay_scenario::{
    runlog, AdaptiveSpec, BackendSpec, ChannelSpec, FadingSpec, FaultSpec, MobilitySpec,
    MonitorSpec, ProtocolSpec, RunOptions, ScenarioReport, ScenarioRunner, ScenarioSpec,
    ShadowingSpec, SinrSpec, TopologySpec,
};
use proptest::prelude::*;

/// The combined-dynamics scenario: churn + periodic jamming + jittered
/// latency + a scheduled outage + a full temporal channel (mobility,
/// shadowing, block fading, metricity monitoring), on a lazy line
/// backend.
fn stormy_spec(protocol: u8, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "stormy".to_string(),
        seed,
        horizon: 300,
        check_interval: 32,
        topology: TopologySpec::Line {
            n: 20,
            spacing: 1.0,
            alpha: 2.5,
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
            interval: 4,
            leave_prob: 0.3,
            join_prob: 0.7,
        }),
        faults: vec![FaultSpec {
            node: 2,
            from: 20,
            until: Some(60),
        }],
        jamming: JamSchedule::Periodic { period: 6 },
        latency: LatencyModel::Jittered { base: 1, jitter: 4 },
        reach_decay: Some(100.0),
        top_k: Some(6),
        channel: Some(ChannelSpec {
            block: 8,
            mobility: Some(MobilitySpec::Levy {
                scale: 0.2,
                exponent: 1.4,
                cap: 2.0,
                seed: 41,
            }),
            shadowing: Some(ShadowingSpec {
                sigma_db: 3.5,
                corr_dist: 3.0,
                time_corr: 0.7,
                seed: 42,
            }),
            fading: Some(FadingSpec { seed: 43 }),
            trace: None,
            trace_path: None,
            monitor: Some(MonitorSpec {
                interval: 32,
                max_nodes: 12,
            }),
        }),
        prr_window: Some(64),
        // The ζ(t)-adaptive controller re-tunes every coherence block
        // (32-tick decisions over 8-tick blocks on the 32-tick pause
        // grid); its decisions are a pure function of (tick, backend),
        // so the resumed run must re-derive them bit-identically.
        adaptive: Some(AdaptiveSpec {
            interval: 32,
            max_nodes: 12,
            base_p: 0.12,
            zeta_ref: 2.5,
            floor: 0.02,
            cap: 0.4,
        }),
    }
}

/// The engine-side counters of a report's telemetry series, per
/// sample. Channel-side counters are left out: a restore rebuilds the
/// backend, which rescans its rows.
fn engine_counters(report: &ScenarioReport) -> Vec<(Tick, [u64; 5])> {
    report
        .metrics
        .telemetry
        .iter()
        .map(|s| {
            let counts = [
                Counter::Events,
                Counter::ResolveTicks,
                Counter::SinrPairs,
                Counter::DecayCalls,
                Counter::ReachScans,
            ]
            .map(|c| s.delta.get(c));
            (s.tick, counts)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    /// Resuming at an arbitrary mid-run tick — on or off the completion
    /// check grid — reproduces the uninterrupted digest bit for bit,
    /// for every protocol, under churn + jamming + jitter + faults.
    #[test]
    fn resume_preserves_digest(
        protocol in 0u8..3,
        seed in 0u64..5_000,
        split in 1u64..300,
    ) {
        let runner = ScenarioRunner::new(stormy_spec(protocol, seed)).unwrap();
        let mut plain_log = Vec::new();
        let uninterrupted = runner
            .run(RunOptions {
                runlog: Some(&mut plain_log),
                ..RunOptions::default()
            })
            .unwrap();
        let mut resumed_log = Vec::new();
        let resumed = runner
            .run(RunOptions {
                resume_at: Some(split as Tick),
                runlog: Some(&mut resumed_log),
                ..RunOptions::default()
            })
            .unwrap();
        prop_assert_eq!(&uninterrupted.digest, &resumed.digest, "split {}", split);
        // The runlog determinism contract: the resumed run's byte
        // stream equals the uninterrupted one's, modulo the `resume`
        // marker — even the counter deltas in the sample spanning the
        // split, which the recorder accumulates across the restore.
        let plain_text = String::from_utf8(plain_log).unwrap();
        let resumed_text = String::from_utf8(resumed_log).unwrap();
        if !decay_core::telemetry::Counters::timing_enabled() {
            // In default builds this is exact byte equality once the
            // marker line is dropped (timing builds carry wall-clock
            // `timers` objects, normalized below).
            let stripped: String = resumed_text
                .lines()
                .filter(|l| !l.contains("\"record\":\"resume\""))
                .map(|l| format!("{l}\n"))
                .collect();
            prop_assert_eq!(&plain_text, &stripped, "split {}", split);
        }
        prop_assert_eq!(runlog::diff(&plain_text, &resumed_text).unwrap(), None);
        // When the run reached the split, the marker really is there.
        if resumed.checkpointed.is_some() {
            prop_assert!(resumed_text.contains("\"record\":\"resume\""));
        }
        // Metrics built from the streamed trace agree too (everything
        // deterministic; wall-clock throughput is excluded).
        prop_assert_eq!(
            uninterrupted.metrics.latency_hist,
            resumed.metrics.latency_hist
        );
        prop_assert_eq!(uninterrupted.metrics.prr, resumed.metrics.prr);
        prop_assert_eq!(
            uninterrupted.metrics.completed_at,
            resumed.metrics.completed_at
        );
        // The ζ(t) series samples only on the pause grid, so the extra
        // checkpoint pause cannot add, drop, or perturb a sample.
        prop_assert_eq!(
            &uninterrupted.metrics.zeta_series,
            &resumed.metrics.zeta_series
        );
        prop_assert!(!uninterrupted.metrics.zeta_series.is_empty());
        // Windowed PRR emits on fixed boundaries the pause grid always
        // hits, so the series is split-invariant too.
        prop_assert_eq!(
            &uninterrupted.metrics.prr_windows,
            &resumed.metrics.prr_windows
        );
        // The telemetry series accumulates across the restore as well,
        // so its engine-side counters match sample for sample, the
        // sample spanning the split included.
        prop_assert_eq!(
            engine_counters(&uninterrupted),
            engine_counters(&resumed),
            "split {}",
            split
        );
        // The queue high-water mark is excluded from EngineStats
        // equality (it is telemetry, not trace), so the digest checks
        // above never see it — but the *report* must still carry the
        // whole-run peak: the runner notes the pre-split peak across
        // the checkpoint cycle, and restore seeds the mark from the
        // rebuilt queue. A resumed run that restarted the mark at the
        // split would underreport here.
        prop_assert_eq!(
            uninterrupted.metrics.stats.queue_high_water,
            resumed.metrics.stats.queue_high_water,
            "queue high-water must survive the resume split"
        );
        prop_assert!(uninterrupted.metrics.stats.queue_high_water > 0);
    }
}

/// The storm actually storms: the digest records churn, jamming, drops,
/// and delayed deliveries, so the resume property above is exercised
/// under real dynamics, not a quiet run.
#[test]
fn stormy_spec_exercises_all_dynamics() {
    let report = ScenarioRunner::new(stormy_spec(0, 7))
        .unwrap()
        .run(RunOptions::default())
        .unwrap();
    let stats = report.digest.stats;
    assert!(stats.deliveries > 0, "no deliveries");
    assert!(stats.jammed_ticks > 0, "jamming never fired");
    assert!(stats.churn_leaves > 0, "churn never fired");
    assert!(
        report.metrics.latency_hist[0] == 0,
        "jittered latency cannot deliver in 0 ticks"
    );
    assert!(report.metrics.mean_latency >= 1.0);
}
