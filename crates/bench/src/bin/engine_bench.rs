//! The engine throughput bench behind CI's `BENCH_engine.json` artifact:
//! events/sec at 10k nodes on the static lazy backend versus the full
//! temporal channel (mobility + shadowing + block fading), plus the
//! same static workload at 100k nodes, on 10k uniform random points
//! (the `random` row: a scenario topology's lazy backend, whose
//! neighbor hint is the bucket-grid index over the points) and on a
//! 100 × 100 scenario grid at α 2.5 (the `grid` row, the only one whose
//! decays take a fractional power) — one JSON document per run so the
//! perf trajectory accumulates across commits.
//!
//! ```text
//! cargo run --release -p decay-bench --bin engine_bench -- --quick --out BENCH_engine.json
//! ```
//!
//! `--quick` shortens the measured horizon (the CI setting); omit it for
//! a steadier local measurement. The workload is the gossip traffic E38
//! runs at smoke-test size.
//!
//! Beyond throughput, every row carries the cost-shape counter columns
//! (`rows_built`, `pairs_per_scan`, `row_hit_rate`, `queue_high_water`)
//! so `bench_trend` can flag a hot path whose *shape* regressed — rows
//! silently widening, a cache losing its hit rate — even when
//! events/sec stays flat. Two further flags serve CI:
//!
//! - `--telemetry-out <path>` writes the full per-row counter totals
//!   (all counters, plus `<timer>_ns`/`<timer>_calls` when built with
//!   `--features telemetry-timing`) as a separate JSON artifact.
//! - `--overhead-against <baseline.json> --max-overhead <pct>` compares
//!   this binary's static-row events/sec against a previous run's and
//!   exits non-zero when it fell more than `<pct>` percent — the gate
//!   that keeps enabled-timing overhead bounded.
//! - `--trace-out <path>` arms phase-span recording on every
//!   measured engine and writes the collected spans as Chrome Trace
//!   Event JSON (load in Perfetto / `chrome://tracing`). Spans exist
//!   only under `--features telemetry-timing`, and arming them perturbs
//!   the wall clock — never combine with `--overhead-against` numbers
//!   you intend to gate on.

use std::time::Instant;

use decay_channel::{
    FadingConfig, MobilityConfig, MobilityModel, ShadowingConfig, TemporalAdapter, TemporalChannel,
};
use decay_core::json::{int, num, obj, parse, s, JsonValue};
use decay_core::telemetry::{Counter, CounterSnapshot, Counters, SpanEvent, Timer};
use decay_engine::{DecayBackend, Engine, EngineConfig, EventBehavior, LazyBackend, NodeCtx};
use decay_scenario::{runlog, BackendSpec, TopologySpec};
use decay_sinr::SinrParams;
use decay_spaces::line_points;
use rand::Rng;

#[derive(Clone)]
struct Gossiper {
    mean_gap: u64,
}

impl EventBehavior for Gossiper {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.listen();
        let gap = 1 + ctx.rng.gen_range(0..self.mean_gap.max(1) * 2);
        ctx.wake_in(gap);
    }
    fn on_wake(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.transmit(1.0, ctx.node.index() as u64);
        ctx.listen();
        let gap = 1 + ctx.rng.gen_range(0..self.mean_gap.max(1) * 2);
        ctx.wake_in(gap);
    }
}

fn lazy_line(n: usize) -> LazyBackend {
    let last = n - 1;
    LazyBackend::from_fn(n, |i, j| ((i as f64) - (j as f64)).abs().powi(2)).with_neighbor_hint(
        move |i, reach| {
            let w = reach.sqrt().ceil() as usize;
            (i.saturating_sub(w)..=(i + w).min(last)).collect()
        },
    )
}

/// `n` uniform random points as a scenario topology builds them, at the
/// line's density of receivers: about 20 nodes lie within the gossip
/// reach (decay 100, distance 10).
fn random(n: usize) -> Box<dyn DecayBackend> {
    BackendSpec::Lazy.build(&TopologySpec::Random {
        n,
        size: 400.0,
        alpha: 2.0,
        seed: 3,
    })
}

/// A `side × side` unit-spacing grid as a scenario topology builds it,
/// at α 2.5: its lattice decays `dist^2.5` are the scenario path's
/// fractional powers.
fn grid(side: usize) -> Box<dyn DecayBackend> {
    BackendSpec::Lazy.build(&TopologySpec::Grid {
        side,
        spacing: 1.0,
        alpha: 2.5,
    })
}

fn temporal(n: usize, block_len: u64) -> TemporalAdapter {
    TemporalAdapter::new(
        TemporalChannel::new(lazy_line(n), line_points(n, 1.0), 2.0, block_len)
            .with_geometric_hints()
            .with_mobility(MobilityConfig {
                model: MobilityModel::RandomWaypoint {
                    speed: 0.5,
                    pause: 1,
                },
                seed: 5,
            })
            .with_shadowing(ShadowingConfig {
                sigma_db: 4.0,
                corr_dist: 40.0,
                time_corr: 0.7,
                seed: 6,
            })
            .with_fading(FadingConfig { seed: 7 }),
    )
}

/// One measured configuration: throughput plus the cost-shape counters.
struct Measurement {
    events: u64,
    deliveries: u64,
    events_per_sec: f64,
    queue_high_water: u64,
    /// Engine sink merged with the backend's (when it has one).
    counters: CounterSnapshot,
    /// Phase spans, when recording was armed (timing builds).
    spans: Vec<SpanEvent>,
}

impl Measurement {
    fn rows_built(&self) -> u64 {
        self.counters.get(Counter::RowsBuilt)
    }

    fn pairs_per_scan(&self) -> f64 {
        let scans = self.rows_built();
        if scans == 0 {
            0.0
        } else {
            self.counters.get(Counter::RowPairs) as f64 / scans as f64
        }
    }

    fn row_hit_rate(&self) -> f64 {
        let hits = self.counters.get(Counter::RowHits);
        let total = hits + self.rows_built();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Best-of-`k` wrapper: reruns the identical deterministic workload
/// and keeps the fastest observation. Counters and event totals are
/// bit-identical across repeats (fixed seed); only the wall clock
/// varies, and its max is the least noisy throughput estimator on a
/// shared runner — which is what the `--overhead-against` gate needs.
fn measure_best<B: DecayBackend + 'static>(
    mk: impl Fn() -> B,
    n: usize,
    horizon: u64,
    k: usize,
    record_spans: bool,
) -> Measurement {
    let mut best = measure(mk(), n, horizon, record_spans);
    for _ in 1..k {
        let m = measure(mk(), n, horizon, record_spans);
        if m.events_per_sec > best.events_per_sec {
            best = m;
        }
    }
    best
}

fn measure(
    backend: impl DecayBackend + 'static,
    n: usize,
    horizon: u64,
    record_spans: bool,
) -> Measurement {
    let behaviors = (0..n).map(|_| Gossiper { mean_gap: 50 }).collect();
    let config = EngineConfig {
        reach_decay: Some(100.0),
        top_k: Some(8),
        ..EngineConfig::default()
    };
    let mut engine =
        Engine::new(backend, behaviors, SinrParams::default(), config, 7).expect("engine builds");
    if record_spans {
        engine.arm_spans();
    }
    #[expect(clippy::disallowed_methods, reason = "report-only harness timing")]
    let start = Instant::now();
    engine.run_until(horizon);
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let stats = engine.stats();
    let mut counters = engine.telemetry().snapshot();
    if let Some(backend_sink) = engine.backend().telemetry() {
        counters = counters.merge(&backend_sink.snapshot());
    }
    let spans = if record_spans {
        engine.take_spans()
    } else {
        Vec::new()
    };
    Measurement {
        events: stats.events,
        deliveries: stats.deliveries,
        events_per_sec: stats.events as f64 / secs,
        queue_high_water: stats.queue_high_water,
        counters,
        spans,
    }
}

/// The full counter totals of one row, for the telemetry artifact.
fn counters_json(m: &Measurement) -> JsonValue {
    let mut pairs: Vec<(&str, JsonValue)> = vec![("queue_high_water", int(m.queue_high_water))];
    for c in Counter::ALL {
        pairs.push((c.name(), int(m.counters.get(c))));
    }
    if Counters::timing_enabled() {
        for t in Timer::ALL {
            if let (Some(ns), Some(calls)) = (m.counters.timer_ns(t), m.counters.timer_calls(t)) {
                pairs.push((t.ns_key(), int(ns)));
                pairs.push((t.calls_key(), int(calls)));
            }
        }
    }
    obj(pairs)
}

/// Reads the static row's events/sec out of a previous
/// `BENCH_engine.json`, for the `--overhead-against` gate.
fn baseline_static_rate(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("rows")
        .and_then(JsonValue::as_array)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("backend").and_then(JsonValue::as_str) == Some("static"))
        })
        .and_then(|r| r.get("events_per_sec").and_then(JsonValue::as_f64))
        .ok_or_else(|| format!("{path}: no static row with events_per_sec"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out = flag("--out").unwrap_or_else(|| "BENCH_engine.json".to_string());
    let telemetry_out = flag("--telemetry-out");
    let trace_out = flag("--trace-out");
    let record_spans = trace_out.is_some();
    let overhead_against = flag("--overhead-against");
    let max_overhead: f64 = flag("--max-overhead")
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    let best_of: usize = flag("--best-of")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1);

    let n = 10_000;
    let horizon = if quick { 120 } else { 400 };
    let mut rows: Vec<JsonValue> = Vec::new();
    let mut telemetry_rows: Vec<JsonValue> = Vec::new();
    let mut all_spans: Vec<SpanEvent> = Vec::new();
    let mut static_rate = 0.0;
    let mut push = |backend: &str, block: Option<u64>, mut m: Measurement| {
        all_spans.append(&mut m.spans);
        let mut pairs = vec![("backend", s(backend))];
        if let Some(b) = block {
            pairs.push(("block", int(b)));
        }
        pairs.extend([
            ("events", int(m.events)),
            ("deliveries", int(m.deliveries)),
            ("events_per_sec", num(m.events_per_sec.round())),
            // The cost-shape columns bench_trend watches alongside
            // throughput (zero for backends without a scan layer).
            ("rows_built", int(m.rows_built())),
            ("pairs_per_scan", num(m.pairs_per_scan())),
            ("row_hit_rate", num(m.row_hit_rate())),
            ("queue_high_water", int(m.queue_high_water)),
        ]);
        rows.push(obj(pairs));
        let mut tele = vec![("backend", s(backend))];
        if let Some(b) = block {
            tele.push(("block", int(b)));
        }
        tele.push(("counters", counters_json(&m)));
        telemetry_rows.push(obj(tele));
        eprintln!(
            "{backend}{}: {} events, {:.0} events/sec, qhw {}",
            block.map(|b| format!(" (block {b})")).unwrap_or_default(),
            m.events,
            m.events_per_sec,
            m.queue_high_water,
        );
        if backend == "static" {
            static_rate = m.events_per_sec;
        }
    };

    push(
        "static",
        None,
        measure_best(|| lazy_line(n), n, horizon, best_of, record_spans),
    );
    for block in [1u64, 16, 64] {
        push(
            "temporal",
            Some(block),
            measure_best(|| temporal(n, block), n, horizon, best_of, record_spans),
        );
    }

    // The same static gossip workload at 100k nodes.
    let n_scale = 100_000;
    let scale_horizon = if quick { 40 } else { 120 };
    push(
        "static-100k",
        None,
        measure_best(
            || lazy_line(n_scale),
            n_scale,
            scale_horizon,
            best_of,
            record_spans,
        ),
    );

    // The static workload on random points.
    push(
        "random",
        None,
        measure_best(|| random(n), n, horizon, best_of, record_spans),
    );

    // The static workload on a lattice with a fractional path-loss
    // exponent.
    push(
        "grid",
        None,
        measure_best(|| grid(100), n, horizon, best_of, record_spans),
    );

    let doc = obj(vec![
        ("bench", s("engine")),
        ("nodes", int(n as u64)),
        ("horizon", int(horizon)),
        ("quick", JsonValue::Bool(quick)),
        ("timing", JsonValue::Bool(Counters::timing_enabled())),
        ("rows", JsonValue::Array(rows)),
    ]);
    std::fs::write(&out, doc.pretty())?;
    eprintln!("written {out}");

    if let Some(path) = trace_out {
        std::fs::write(&path, runlog::chrome_trace_json(&all_spans))?;
        if all_spans.is_empty() && !Counters::timing_enabled() {
            eprintln!(
                "written {path} (0 spans — build with --features telemetry-timing \
                 to record phase spans)"
            );
        } else {
            eprintln!("written {path} ({} spans)", all_spans.len());
        }
    }

    if let Some(path) = telemetry_out {
        let doc = obj(vec![
            ("bench", s("engine-telemetry")),
            ("nodes", int(n as u64)),
            ("horizon", int(horizon)),
            ("timing", JsonValue::Bool(Counters::timing_enabled())),
            ("rows", JsonValue::Array(telemetry_rows)),
        ]);
        std::fs::write(&path, doc.pretty())?;
        eprintln!("written {path}");
    }

    if let Some(baseline) = overhead_against {
        let base = baseline_static_rate(&baseline).map_err(|e| format!("overhead gate: {e}"))?;
        let overhead = (base - static_rate) / base.max(1e-9) * 100.0;
        eprintln!(
            "overhead vs {baseline}: static {:.0} -> {:.0} events/sec ({overhead:+.1}%, \
             max allowed {max_overhead:.1}%)",
            base, static_rate
        );
        if overhead > max_overhead {
            return Err(format!(
                "static-path overhead {overhead:.1}% exceeds the {max_overhead:.1}% budget"
            )
            .into());
        }
    }
    Ok(())
}
