//! Per-layer metrics: self time per span name, counts per submission,
//! and the ζ(t) sampling replay. `NOTES.md` defines each metric.

use std::collections::BTreeMap;

use decay_scenario::{CompiledScenario, ScenarioSpec};

use crate::submit::Counts;
use crate::trace::{Span, Tracer};
use crate::workload::Mode;

/// One submission, as the metrics see it.
#[derive(Debug)]
pub struct Record {
    pub id: u32,
    /// A set-up submission (cold, runlog on) rather than a timed one.
    pub reference: bool,
    pub traced: bool,
    pub mode: Mode,
    pub failed: bool,
    pub wall_ns: u64,
    pub nodes: usize,
    pub compile_hit: bool,
    pub parks: u64,
    pub checkpoint_bytes: u64,
    pub runlog_records: u64,
    pub runlog_bytes: u64,
    pub counts: Counts,
}

/// The span id ζ replay spans are filed under (no submission).
const REPLAY: u32 = u32::MAX;

/// ζ samples taken for a spec without a monitor or controller: one,
/// at tick 0, over this many nodes, as a static-field control.
const CONTROL_ZETA_NODES: usize = 24;

/// Nearest-rank quantile (`q` in (0, 1]); 0 for no samples.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// A `/proc/self/status` field (`VmHWM`, `VmRSS`) in bytes.
pub fn proc_status_bytes(key: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kib| kib * 1024)
        .ok_or_else(|| format!("/proc/self/status has no {key}"))
}

/// The (tick, max_nodes) pairs at which a submission of `spec_json`
/// samples ζ: the monitor's ticks (`monitor_ticks`, read off the
/// reference report) and every controller decision tick up to
/// `final_tick`.
pub fn zeta_plan(spec_json: &str, monitor_ticks: &[u64], final_tick: u64) -> Vec<(u64, usize)> {
    let spec = ScenarioSpec::from_json_str(spec_json).expect("generated specs parse");
    let mut plan = Vec::new();
    if let Some(m) = spec.channel.as_ref().and_then(|c| c.monitor.as_ref()) {
        plan.extend(monitor_ticks.iter().map(|&t| (t, m.max_nodes)));
    }
    if let Some(a) = &spec.adaptive {
        plan.extend(
            (0..=final_tick)
                .step_by(a.interval as usize)
                .map(|t| (t, a.max_nodes)),
        );
    }
    plan.sort_unstable();
    plan
}

/// Replays `decay_channel::sample` at `plan`'s ticks on a fresh backend
/// of `spec_json` (or once at tick 0 when the plan is empty), each call
/// in a `zeta.sample` span.
pub fn replay_zeta(
    spec_json: &str,
    plan: &[(u64, usize)],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let spec = ScenarioSpec::from_json_str(spec_json).map_err(|e| format!("zeta replay: {e}"))?;
    let backend_kind = spec.backend;
    let compiled = CompiledScenario::compile(spec).map_err(|e| format!("zeta replay: {e}"))?;
    let backend = compiled.build_backend(backend_kind);
    let control = [(0, CONTROL_ZETA_NODES)];
    let plan = if plan.is_empty() { &control[..] } else { plan };
    let root = tracer.begin_submission(REPLAY, "zeta.replay");
    for &(tick, nodes) in plan {
        let z = tracer.span("zeta.sample", || {
            decay_channel::sample(tick, &*backend, nodes)
        });
        std::hint::black_box(z);
    }
    tracer.end_submission(root);
    Ok(())
}

/// Self time (span minus its direct children) and call count, per
/// (submission, span name).
fn self_times(spans: &[Span]) -> BTreeMap<(u32, &'static str), (u64, u64)> {
    let mut child = vec![0u64; spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            child[p] += sp.dur();
        }
    }
    let mut out: BTreeMap<(u32, &'static str), (u64, u64)> = BTreeMap::new();
    for (sp, c) in spans.iter().zip(&child) {
        let slot = out.entry((sp.submission, sp.name)).or_default();
        slot.0 += sp.dur().saturating_sub(*c);
        slot.1 += 1;
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, as (name, value, unit).
pub fn per_layer(
    records: &[Record],
    spans: &[Span],
    rounds: &[(bool, u64, u64)],
    rss_start: u64,
    zeta_samples: usize,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let times = self_times(spans);
    let timed: Vec<&Record> = records
        .iter()
        .filter(|r| r.traced && !r.reference)
        .collect();
    let refs: Vec<&Record> = records.iter().filter(|r| r.traced && r.reference).collect();
    let layer = |pool: &[&Record], name: &'static str| -> (f64, f64) {
        pool.iter().fold((0.0, 0.0), |(ns, calls), r| {
            let (t, c) = times.get(&(r.id, name)).copied().unwrap_or_default();
            (ns + t as f64, calls + c as f64)
        })
    };
    // Timed submissions where the layer ran, else the references (the
    // only submissions that park and write a runlog on the warm
    // workloads).
    let pick = |keep: &dyn Fn(&Record) -> bool| -> Vec<&Record> {
        let hit: Vec<&Record> = timed.iter().copied().filter(|r| keep(r)).collect();
        if hit.is_empty() {
            refs.iter().copied().filter(|r| keep(r)).collect()
        } else {
            hit
        }
    };
    let per_call_ms = |pool: &[&Record], name: &'static str| {
        let (ns, calls) = layer(pool, name);
        ratio(ns / 1e6, calls)
    };
    let per_sub_ms =
        |pool: &[&Record], name: &'static str| ratio(layer(pool, name).0 / 1e6, pool.len() as f64);
    let n = timed.len() as f64;
    let mean = |f: &dyn Fn(&Record) -> f64| ratio(timed.iter().map(|r| f(r)).sum(), n);
    let sum = |pool: &[&Record], f: &dyn Fn(&Record) -> f64| pool.iter().map(|r| f(r)).sum::<f64>();

    let misses = pick(&|r| !r.compile_hit);
    let hits = pick(&|r| r.compile_hit);
    let parked = pick(&|r| r.parks > 0);
    let logged = pick(&|r| r.runlog_records > 0);
    let cold = pick(&|r| r.mode == Mode::Cold);
    let c = |r: &Record| r.counts;

    // The root span's self time is exactly the part no layer covers.
    let mut root_dur: BTreeMap<u32, u64> = BTreeMap::new();
    for sp in spans.iter().filter(|s| s.name == "submission") {
        *root_dur.entry(sp.submission).or_default() += sp.dur();
    }
    let root_ns = sum(&timed, &|r| {
        root_dur.get(&r.id).copied().unwrap_or(0) as f64
    });
    let unattributed_ns = layer(&timed, "submission").0;
    let rate = |traced: bool| {
        let (ticks, wall) = rounds
            .iter()
            .filter(|r| r.0 == traced)
            .fold((0.0, 0.0), |(t, w), r| (t + r.1 as f64, w + r.2 as f64));
        ratio(ticks, wall / 1e9)
    };
    let (zeta_ns, zeta_calls) = times
        .get(&(REPLAY, "zeta.sample"))
        .copied()
        .unwrap_or_default();
    let step_s = layer(&timed, "session.step").0 / 1e9;
    let max_nodes = records.iter().map(|r| r.nodes).max().unwrap_or(1).max(1);

    Ok(vec![
        ("spec.parse_ms", per_call_ms(&timed, "spec.parse"), "ms"),
        ("compile.miss_ms", per_call_ms(&misses, "compile"), "ms"),
        ("compile.hit_ms", per_call_ms(&hits, "compile"), "ms"),
        (
            "compile.misses",
            mean(&|r| f64::from(u8::from(!r.compile_hit))),
            "count/submission",
        ),
        (
            "compile.hits",
            mean(&|r| f64::from(u8::from(r.compile_hit))),
            "count/submission",
        ),
        ("session.open_ms", per_call_ms(&timed, "session.open"), "ms"),
        (
            "session.step_self_ms",
            per_sub_ms(&timed, "session.step"),
            "ms",
        ),
        (
            "session.pauses",
            ratio(layer(&timed, "session.step").1, n),
            "count/submission",
        ),
        (
            "session.finish_ms",
            per_call_ms(&timed, "session.finish"),
            "ms",
        ),
        ("codec.park_ms", per_call_ms(&parked, "codec.park"), "ms"),
        (
            "codec.resume_ms",
            per_call_ms(&parked, "codec.resume"),
            "ms",
        ),
        ("codec.parks", mean(&|r| r.parks as f64), "count/submission"),
        (
            "codec.checkpoint_bytes_per_node",
            ratio(
                sum(&parked, &|r| r.checkpoint_bytes as f64),
                sum(&parked, &|r| (r.parks as usize * r.nodes) as f64),
            ),
            "B/node",
        ),
        ("runlog.write_ms", per_sub_ms(&logged, "runlog.write"), "ms"),
        (
            "runlog.records",
            ratio(
                sum(&logged, &|r| r.runlog_records as f64),
                logged.len() as f64,
            ),
            "count",
        ),
        (
            "runlog.bytes_per_record",
            ratio(
                sum(&logged, &|r| r.runlog_bytes as f64),
                sum(&logged, &|r| r.runlog_records as f64),
            ),
            "B",
        ),
        (
            "runlog.parse_ms",
            per_call_ms(&logged, "runlog.parse"),
            "ms",
        ),
        ("runlog.diff_ms", per_call_ms(&logged, "runlog.diff"), "ms"),
        (
            "engine.events",
            mean(&|r| c(r).events as f64),
            "count/submission",
        ),
        (
            "engine.events_per_s",
            ratio(sum(&timed, &|r| c(r).events as f64), step_s),
            "events/s",
        ),
        (
            "engine.resolve_ticks",
            mean(&|r| c(r).resolve_ticks as f64),
            "count/submission",
        ),
        (
            "engine.sinr_pairs_per_resolve",
            ratio(
                sum(&timed, &|r| c(r).sinr_pairs as f64),
                sum(&timed, &|r| c(r).resolve_ticks as f64),
            ),
            "pairs/resolve",
        ),
        (
            "engine.decay_calls",
            mean(&|r| c(r).decay_calls as f64),
            "count/submission",
        ),
        (
            "engine.reach_scans",
            mean(&|r| c(r).reach_scans as f64),
            "count/submission",
        ),
        (
            "engine.queue_high_water",
            timed
                .iter()
                .map(|r| c(r).queue_high_water)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        (
            "engine.deliveries_per_tx",
            ratio(
                sum(&timed, &|r| c(r).deliveries as f64),
                sum(&timed, &|r| c(r).transmissions as f64),
            ),
            "ratio",
        ),
        (
            "channel.rows_built",
            mean(&|r| c(r).rows_built as f64),
            "count/submission",
        ),
        (
            "channel.pairs_per_scan",
            ratio(
                sum(&timed, &|r| c(r).row_pairs as f64),
                sum(&timed, &|r| c(r).rows_built as f64),
            ),
            "pairs/scan",
        ),
        (
            "channel.row_hit_rate",
            ratio(
                sum(&timed, &|r| c(r).row_hits as f64),
                sum(&timed, &|r| (c(r).row_hits + c(r).rows_built) as f64),
            ),
            "ratio",
        ),
        (
            "channel.epoch_loads",
            mean(&|r| c(r).epoch_loads as f64),
            "count/submission",
        ),
        (
            "channel.epoch_swaps",
            mean(&|r| c(r).epoch_swaps as f64),
            "count/submission",
        ),
        (
            "channel.zeta_sample_ms",
            ratio(zeta_ns as f64 / 1e6, zeta_calls as f64),
            "ms",
        ),
        (
            "channel.zeta_samples",
            zeta_samples as f64,
            "count/submission",
        ),
        (
            "mem.rss_bytes_per_node",
            ratio(
                proc_status_bytes("VmHWM")?.saturating_sub(rss_start) as f64,
                max_nodes as f64,
            ),
            "B/node",
        ),
        (
            "report.telemetry_gap_events",
            ratio(
                sum(&cold, &|r| c(r).telemetry_gap as f64),
                cold.len() as f64,
            ),
            "count/submission",
        ),
        (
            "trace.unattributed_pct",
            ratio(100.0 * unattributed_ns, root_ns),
            "%",
        ),
        (
            "trace.overhead_pct",
            100.0 * (ratio(rate(false), rate(true)) - 1.0),
            "%",
        ),
    ])
}
