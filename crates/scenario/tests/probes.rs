//! Probe transparency: attaching *any* subset of read-only probes to a
//! run — with any backend, with or without a checkpoint/resume split,
//! with or without a ζ(t)-adaptive controller — must leave the trace
//! digest and the ζ(t) series bit-identical to a bare run, and
//! attaching a runlog writer must leave the whole report untouched.
//! This is the determinism contract of the probe API: observation
//! never perturbs.

use std::sync::Arc;

use decay_channel::MetricityMonitor;
use decay_distributed::ContentionStrategy;
use decay_engine::probe::{PauseCtx, Probe};
use decay_engine::{ChurnConfig, JamSchedule, LatencyModel, Tick, WindowedPrr};
use decay_netsim::ReceptionModel;
use decay_scenario::{
    runlog, AdaptiveSpec, BackendSpec, ChannelSpec, FadingSpec, MobilitySpec, MonitorSpec,
    ProtocolSpec, RunOptions, RunSession, ScenarioRunner, ScenarioSpec, ShadowingSpec, SinrSpec,
    TopologySpec,
};
use proptest::prelude::*;

/// A spec with every observable stream active: temporal channel, ζ(t)
/// monitor, windowed PRR, and (optionally) the adaptive controller.
fn observed_spec(protocol: u8, seed: u64, adaptive: bool) -> ScenarioSpec {
    ScenarioSpec {
        name: "probed".to_string(),
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

/// A probe that counts what it sees, to prove extras really observed
/// the run they did not perturb.
#[derive(Default)]
struct Counter {
    starts: usize,
    pauses: usize,
    finishes: usize,
    deliveries: u64,
    last_tick: Tick,
}

impl Probe for Counter {
    fn on_start(&mut self, _ctx: &PauseCtx<'_>) {
        self.starts += 1;
    }
    fn on_pause(&mut self, ctx: &PauseCtx<'_>) {
        self.pauses += 1;
        self.deliveries += ctx.batch.len() as u64;
        assert!(ctx.tick >= self.last_tick, "pause stream went backwards");
        self.last_tick = ctx.tick;
    }
    fn on_finish(&mut self, ctx: &PauseCtx<'_>) {
        self.finishes += 1;
        self.deliveries += ctx.batch.len() as u64;
    }
}

use decay_core::telemetry::{Counter as TCounter, TelemetrySample};

/// One timing-free telemetry sample: tick, queue high-water mark, and
/// the chosen counter deltas by wire name.
type CounterViewRow = (Tick, u64, Vec<(&'static str, u64)>);

/// A timing-free view of a telemetry series. Comparisons go through
/// this instead of `TelemetrySample` equality because the
/// feature-gated phase timers measure wall clock, which no two
/// observations share.
fn counter_view(samples: &[TelemetrySample], counters: &[TCounter]) -> Vec<CounterViewRow> {
    samples
        .iter()
        .map(|s| {
            (
                s.tick,
                s.queue_high_water,
                counters
                    .iter()
                    .map(|&c| (c.name(), s.delta.get(c)))
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any subset of read-only extra probes, on any backend, with or
    /// without a resume split and with or without the adaptive
    /// controller, reproduces the bare run's digest, ζ(t) series, and
    /// windowed-PRR series bit for bit; and a run without a runlog
    /// reports the same telemetry and scan stats as one with it.
    #[test]
    fn probe_subsets_never_perturb_the_run(
        protocol in 0u8..3,
        seed in 0u64..3_000,
        backend_knob in 0u8..2,
        subset in 0u8..8,
        split_knob in 0u64..520,
        adaptive_knob in 0u8..2,
    ) {
        // Half the cases resume at a mid-run split in [1, 259].
        let split = (split_knob % 2 == 0).then(|| 1 + (split_knob / 2) % 259);
        let adaptive = adaptive_knob == 1;
        let backend = match backend_knob {
            0 => BackendSpec::Dense,
            _ => BackendSpec::Lazy,
        };
        let runner =
            ScenarioRunner::new(observed_spec(protocol, seed, adaptive)).unwrap();
        let mut bare_log = Vec::new();
        let bare = runner
            .run(RunOptions {
                backend: Some(backend),
                runlog: Some(&mut bare_log),
                ..RunOptions::default()
            })
            .unwrap();

        // A runlog writer renders what the session already folded, so
        // dropping it leaves every counter delta — the backend-side
        // row/epoch counters included — and the scan stats unchanged.
        let unlogged = runner
            .run(RunOptions {
                backend: Some(backend),
                ..RunOptions::default()
            })
            .unwrap();
        prop_assert_eq!(
            counter_view(&unlogged.metrics.telemetry, &TCounter::ALL),
            counter_view(&bare.metrics.telemetry, &TCounter::ALL),
            "attaching a runlog changed the telemetry series"
        );
        prop_assert_eq!(unlogged.metrics.scan_stats, bare.metrics.scan_stats);

        let mut counter = Counter::default();
        // Same grid and subset size as the spec's monitor, so the two
        // series must agree sample for sample.
        let mut extra_monitor = MetricityMonitor::new(32, 10);
        let mut extra_prr = WindowedPrr::new(18, 64, 4);
        let mut extras: Vec<&mut dyn Probe> = Vec::new();
        if subset & 1 != 0 {
            extras.push(&mut counter);
        }
        if subset & 2 != 0 {
            extras.push(&mut extra_monitor);
        }
        if subset & 4 != 0 {
            extras.push(&mut extra_prr);
        }
        let mut probed_log = Vec::new();
        let probed = RunSession::new(
            Arc::clone(runner.compiled()),
            RunOptions {
                backend: Some(backend),
                resume_at: split,
                runlog: Some(&mut probed_log),
                ..RunOptions::default()
            },
            &mut extras,
        )
        .unwrap()
        .run_to_end()
        .unwrap();
        drop(extras);

        prop_assert_eq!(&bare.digest, &probed.digest, "digest drift");
        // The runlog is part of the transparency contract: extra
        // probes and a checkpoint split must leave its bytes
        // unchanged, modulo the `resume` marker.
        let bare_text = String::from_utf8(bare_log).unwrap();
        let probed_text = String::from_utf8(probed_log).unwrap();
        if !decay_core::telemetry::Counters::timing_enabled() {
            let stripped: String = probed_text
                .lines()
                .filter(|l| !l.contains("\"record\":\"resume\""))
                .map(|l| format!("{l}\n"))
                .collect();
            prop_assert_eq!(&bare_text, &stripped, "runlog bytes drifted");
        }
        prop_assert_eq!(runlog::diff(&bare_text, &probed_text).unwrap(), None);
        prop_assert_eq!(&bare.metrics.zeta_series, &probed.metrics.zeta_series);
        prop_assert_eq!(&bare.metrics.prr_windows, &probed.metrics.prr_windows);
        prop_assert_eq!(bare.metrics.latency_hist, probed.metrics.latency_hist);
        prop_assert!(!bare.metrics.zeta_series.is_empty(), "monitor never sampled");
        // A run that completes before the first 32-tick boundary emits
        // no full window; otherwise the series must be populated.
        if bare.digest.completed_at.is_none_or(|t| t >= 32) {
            prop_assert!(!bare.metrics.prr_windows.is_empty(), "no PRR windows emitted");
        }

        // The extras really watched the run they left untouched.
        if subset & 1 != 0 {
            prop_assert_eq!(counter.starts, 1);
            prop_assert_eq!(counter.finishes, 1);
            prop_assert!(counter.pauses > 0);
            prop_assert_eq!(counter.deliveries, probed.digest.stats.deliveries);
        }
        if subset & 2 != 0 {
            prop_assert_eq!(
                extra_monitor.samples(),
                &probed.metrics.zeta_series[..],
                "an extra monitor on the same grid must see the same series"
            );
        }
        if subset & 4 != 0 {
            let sum: u64 = extra_prr.samples().iter().map(|s| s.deliveries).sum();
            prop_assert!(sum <= probed.digest.stats.deliveries);
        }
    }
}

/// The telemetry series is a backend invariant too: the same scenario
/// on dense and lazy backends dispatches the identical event
/// trace, so every pause-grid counter delta — engine-side *and* the
/// temporal layer's row/epoch counters, since both wrap the same
/// channel stack — must agree sample for sample (no resume split; a
/// split legitimately zeroes the sinks mid-series).
#[test]
fn counter_deltas_identical_across_backends() {
    let runner = ScenarioRunner::new(observed_spec(1, 7, false)).unwrap();
    let dense = runner
        .run(RunOptions {
            backend: Some(BackendSpec::Dense),
            ..RunOptions::default()
        })
        .unwrap();
    let lazy = runner
        .run(RunOptions {
            backend: Some(BackendSpec::Lazy),
            ..RunOptions::default()
        })
        .unwrap();
    assert!(
        !dense.metrics.telemetry.is_empty(),
        "scenario runs always carry a telemetry series"
    );
    // Everything except RowHits is a backend invariant: the dispatch
    // counts follow the (bit-identical) trace, and the temporal layer
    // builds the same rows over the same candidate windows. Row-cache
    // *hits* are the one cost-shape counter allowed to wiggle. The
    // engine's reach queries hit or build rows alike on every backend,
    // but whether a read from outside the engine (the ζ monitor's
    // `decay_at`) hits can depend on the row's candidate window, which
    // follows the inner backend's hint enumeration.
    let stable: Vec<TCounter> = TCounter::ALL
        .iter()
        .copied()
        .filter(|&c| c != TCounter::RowHits)
        .collect();
    let view = |r: &decay_scenario::ScenarioReport| counter_view(&r.metrics.telemetry, &stable);
    assert_eq!(view(&dense), view(&lazy), "dense vs lazy");
    let row_hits: u64 = dense
        .metrics
        .telemetry
        .iter()
        .map(|s| s.delta.get(TCounter::RowHits))
        .sum();
    assert!(row_hits > 0, "row cache never hit");
    // The series actually counted the run: the event deltas sum to at
    // most the digest's total (the tail past the last grid tick is not
    // sampled — the horizon here is off the 16-tick grid).
    let events: u64 = dense
        .metrics
        .telemetry
        .iter()
        .map(|s| s.delta.get(TCounter::Events))
        .sum();
    assert!(events > 0, "no events counted");
    assert!(events <= dense.digest.stats.events);
    // And the channel scenario surfaced its scan stats.
    let scan = dense.metrics.scan_stats.expect("temporal backend");
    assert!(scan.scans > 0, "rows were built");
    assert!(scan.pairs >= scan.scans, "windows hold at least one pair");
}

/// Out-of-range resume splits now fail loudly instead of silently
/// running without a checkpoint cycle.
#[test]
fn out_of_range_splits_are_rejected() {
    let runner = ScenarioRunner::new(observed_spec(0, 1, false)).unwrap();
    let horizon = runner.spec().horizon;
    for bad in [0, horizon, horizon + 1, horizon * 10] {
        match runner.run(RunOptions {
            resume_at: Some(bad),
            ..RunOptions::default()
        }) {
            Err(decay_scenario::ScenarioError::InvalidSplit { split, horizon: h }) => {
                assert_eq!(split, bad);
                assert_eq!(h, horizon);
            }
            other => panic!("split {bad}: expected InvalidSplit, got {other:?}"),
        }
    }
    // Every strictly-interior split is accepted and actually checkpoints
    // (unless the run completes first, which `checkpointed` reports).
    let report = runner
        .run(RunOptions {
            resume_at: Some(horizon - 1),
            ..RunOptions::default()
        })
        .unwrap();
    assert_eq!(
        report.digest,
        runner.run(RunOptions::default()).unwrap().digest
    );
}

/// The adaptive controller actually steers: the same spec with and
/// without the `adaptive` block produces different traces, and the
/// adaptive run is deterministic. Announce is the sensitive workload —
/// free-running traffic redraws its transmit gap from the live
/// probability for the whole horizon (a contention run that delivers
/// every link on the first attempt would never consult the re-tuned
/// probability at all).
#[test]
fn adaptive_block_changes_and_reproduces_the_trace() {
    let fixed = ScenarioRunner::new(observed_spec(0, 9, false))
        .unwrap()
        .run(RunOptions::default())
        .unwrap();
    let run_adaptive = || {
        ScenarioRunner::new(observed_spec(0, 9, true))
            .unwrap()
            .run(RunOptions::default())
            .unwrap()
    };
    let adaptive = run_adaptive();
    assert_ne!(
        fixed.digest.hash, adaptive.digest.hash,
        "controller directives must change the trace"
    );
    assert_eq!(adaptive.digest, run_adaptive().digest, "non-deterministic");
}
