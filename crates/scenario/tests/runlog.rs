//! The runlog determinism contract, end to end: `decay-runlog-v1`
//! streams must be byte-identical across backends (against a dense
//! reference), survive resume splits
//! modulo the `resume` marker, round-trip through the parser, and —
//! for one shipped scenario — match a pinned golden fixture
//! (`SCENARIO_GOLDEN_UPDATE=1` to bless).

use std::fs;

use decay_core::telemetry::Counters;
use decay_scenario::{
    golden, runlog, BackendSpec, RunOptions, RunRecord, ScenarioRunner, ScenarioSpec,
};
use proptest::prelude::*;

/// A compact storm with every record-bearing feature on: temporal
/// channel with ζ(t) monitor, windowed PRR, and the adaptive
/// controller (directives), so samples carry all optional fields.
fn full_featured_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::from_json_str(&format!(
        r#"{{
        "name": "runlogged",
        "seed": {seed},
        "horizon": 260,
        "check_interval": 16,
        "topology": {{ "kind": "line", "n": 16, "spacing": 1.0, "alpha": 2.2 }},
        "backend": {{ "kind": "lazy" }},
        "sinr": {{ "beta": 1.0, "noise": 0.05 }},
        "reception": "rayleigh",
        "protocol": {{ "kind": "announce", "probability": 0.2, "power": 1.0 }},
        "churn": {{ "interval": 5, "leave_prob": 0.25, "join_prob": 0.75 }},
        "jamming": {{ "kind": "periodic", "period": 7 }},
        "latency": {{ "kind": "jittered", "base": 1, "jitter": 3 }},
        "reach_decay": 100.0,
        "top_k": 6,
        "channel": {{
            "block": 8,
            "mobility": {{ "kind": "waypoint", "speed": 0.4, "pause": 1, "seed": 51 }},
            "shadowing": {{ "sigma_db": 3.0, "corr_dist": 3.0, "time_corr": 0.6, "seed": 52 }},
            "fading": {{ "kind": "rayleigh", "seed": 53 }},
            "monitor": {{ "interval": 32, "max_nodes": 10 }}
        }},
        "prr_window": 32,
        "adaptive": {{
            "interval": 16, "max_nodes": 10,
            "base_p": 0.12, "zeta_ref": 2.2, "floor": 0.02, "cap": 0.4
        }}
    }}"#
    ))
    .expect("spec parses")
}

fn run_with_log(
    spec: ScenarioSpec,
    backend: BackendSpec,
    split: Option<u64>,
) -> (decay_scenario::ScenarioReport, String) {
    let mut log = Vec::new();
    let report = ScenarioRunner::new(spec)
        .unwrap()
        .run(RunOptions {
            backend: Some(backend),
            resume_at: split,
            runlog: Some(&mut log),
            ..RunOptions::default()
        })
        .unwrap();
    (report, String::from_utf8(log).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every (backend, resume split) combination produces the dense
    /// uninterrupted run's byte stream — exactly, in default builds,
    /// once `resume` markers are dropped.
    #[test]
    fn runlog_bytes_invariant_across_backend_split(
        seed in 0u64..2_000,
        backend_knob in 0u8..2,
        split_knob in 0u64..520,
    ) {
        let backend = match backend_knob {
            0 => BackendSpec::Dense,
            _ => BackendSpec::Lazy,
        };
        let split = (split_knob % 2 == 0).then(|| 1 + (split_knob / 2) % 259);

        let (_, reference) =
            run_with_log(full_featured_spec(seed), BackendSpec::Dense, None);
        let (_, variant) = run_with_log(full_featured_spec(seed), backend, split);

        if !Counters::timing_enabled() {
            let stripped: String = variant
                .lines()
                .filter(|l| !l.contains("\"record\":\"resume\""))
                .map(|l| format!("{l}\n"))
                .collect();
            prop_assert_eq!(&reference, &stripped, "runlog bytes depend on execution knobs");
        }
        prop_assert_eq!(runlog::diff(&reference, &variant).unwrap(), None);
    }
}

/// The full-featured stream parses back, every record kind is present,
/// and the parsed values agree with the report the run returned.
#[test]
fn runlog_round_trips_every_record_kind() {
    let (report, text) = run_with_log(full_featured_spec(7), BackendSpec::Lazy, Some(100));
    let log = runlog::RunLog::parse(&text).expect("stream validates");

    let mut saw_start = false;
    let mut saw_resume = false;
    let mut samples = 0;
    let mut zeta_samples = 0;
    let mut prr_windows = 0;
    let mut directive_count = 0;
    for record in &log.records {
        match record {
            RunRecord::RunStart {
                name,
                horizon,
                protocol,
                controller_sig,
                channel_sig,
                ..
            } => {
                saw_start = true;
                assert_eq!(name, "runlogged");
                assert_eq!(*horizon, 260);
                assert_eq!(protocol, "announce");
                assert_ne!(*controller_sig, 0, "adaptive spec folds a controller sig");
                assert_ne!(*channel_sig, 0, "temporal channel folds a channel sig");
            }
            RunRecord::Sample {
                tick,
                stats,
                counters,
                zeta,
                prr_window,
                directives,
                timers,
                ..
            } => {
                samples += 1;
                assert!(*tick > 0 && *tick <= 260);
                assert!(stats.events > 0);
                assert_eq!(counters.len(), 5);
                zeta_samples += usize::from(zeta.is_some());
                prr_windows += usize::from(prr_window.is_some());
                directive_count += directives;
                assert_eq!(*timers, Counters::timing_enabled());
            }
            RunRecord::Resume { tick } => {
                saw_resume = true;
                assert_eq!(*tick, 100);
            }
            RunRecord::RunEnd {
                completed_at,
                hash,
                prr,
                ..
            } => {
                assert_eq!(*completed_at, report.metrics.completed_at);
                assert_eq!(*hash, report.digest.hash);
                assert!((prr - report.metrics.prr).abs() < 1e-12);
            }
        }
    }
    assert!(saw_start);
    assert!(saw_resume, "split 100 must leave a resume marker");
    // Announce never completes, so every grid tick emits one sample
    // (horizon 260 on a 16-tick grid: 16 grid ticks + the off-grid
    // horizon pause).
    assert_eq!(samples, 17);
    assert_eq!(zeta_samples, 8, "ticks 32,64,...,256");
    assert_eq!(prr_windows, 8, "same 32-tick boundaries");
    assert!(directive_count > 0, "the controller issued directives");
    // The final sample's cumulative stats equal the digest's.
    let last_sample_stats = log
        .records
        .iter()
        .rev()
        .find_map(|r| match r {
            RunRecord::Sample { stats, .. } => Some(*stats),
            _ => None,
        })
        .unwrap();
    assert_eq!(last_sample_stats, report.digest.stats);
    // The engine-side counter deltas sum to a consistent event total.
    let events_total: u64 = log
        .records
        .iter()
        .filter_map(|r| match r {
            RunRecord::Sample { counters, .. } => counters
                .iter()
                .find(|(name, _)| name == "events")
                .map(|&(_, n)| n),
            _ => None,
        })
        .sum();
    assert!(events_total > 0);
    assert!(events_total <= report.digest.stats.events);
    // And the summary renders without panicking.
    assert!(log.summary().contains("runlogged"));
}

/// One shipped scenario's normalized runlog is pinned as a golden
/// fixture, like the trace digests: byte drift fails loudly;
/// `SCENARIO_GOLDEN_UPDATE=1` re-blesses.
#[test]
fn shipped_scenario_runlog_matches_golden_fixture() {
    let spec_path = golden::scenario_dir().join("adaptive_zeta_announce.json");
    let spec = ScenarioSpec::from_json_str(&fs::read_to_string(&spec_path).expect("shipped spec"))
        .expect("shipped spec parses");
    let name = spec.name.clone();
    let mut log = Vec::new();
    ScenarioRunner::new(spec)
        .unwrap()
        .run(RunOptions {
            runlog: Some(&mut log),
            ..RunOptions::default()
        })
        .unwrap();
    let text = String::from_utf8(log).unwrap();
    // Pin the normalized form so default and timing builds agree on
    // the fixture (normalization strips only the wall-clock `timers`
    // objects; there is no resume marker in a straight run).
    let actual = runlog::normalize(&text).expect("own stream normalizes");
    runlog::RunLog::parse(&text).expect("own stream validates");

    let path = golden::golden_dir().join(format!("{name}.runlog"));
    if golden::updates_enabled() {
        fs::create_dir_all(golden::golden_dir()).expect("create tests/golden");
        fs::write(&path, &actual).expect("write golden runlog");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden runlog {} — run with SCENARIO_GOLDEN_UPDATE=1 to record it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "runlog drifted from the recorded golden; \
         SCENARIO_GOLDEN_UPDATE=1 re-blesses an intentional change"
    );
}

/// The flight-dump sink always receives a `flight-recorder v1` dump,
/// and the span sink is populated exactly when timing is compiled in.
#[test]
fn flight_dump_and_trace_spans_sinks() {
    let mut dump = Vec::new();
    let mut spans = Vec::new();
    ScenarioRunner::new(full_featured_spec(3))
        .unwrap()
        .run(RunOptions {
            resume_at: Some(90),
            flight_dump: Some(&mut dump),
            trace_spans: Some(&mut spans),
            ..RunOptions::default()
        })
        .unwrap();
    let dump_text = String::from_utf8(dump).unwrap();
    assert!(
        dump_text.starts_with("flight-recorder v1"),
        "{dump_text:.60}"
    );
    if Counters::timing_enabled() {
        assert!(!spans.is_empty(), "timing builds record spans");
        let trace = runlog::chrome_trace_json(&spans);
        let n = runlog::validate_trace(&trace).expect("trace validates");
        assert_eq!(n, spans.len());
        // The engine's phase timers appear on the timeline, and so do
        // the channel's epoch solves and reach windows, timed into the
        // backend's sink.
        assert!(spans.iter().any(|s| s.name == "resolve"));
        assert!(spans.iter().any(|s| s.name == "epoch_solve"));
        assert!(spans.iter().any(|s| s.name == "reach_window"));
    } else {
        assert!(spans.is_empty(), "default builds compile spans out");
        // An empty timeline still renders valid (if boring) JSON.
        assert_eq!(
            runlog::validate_trace(&runlog::chrome_trace_json(&spans)),
            Ok(0)
        );
    }
}
