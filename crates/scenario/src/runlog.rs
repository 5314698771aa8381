//! The structured run-event stream: `decay-runlog-v1`.
//!
//! A runlog is NDJSON — one compact JSON object per line — narrating a
//! scenario run on the pause grid: a [`run_start`] header carrying the
//! spec/channel/controller signatures, one [`sample`] record per
//! `check_interval` boundary (engine counters, telemetry deltas, ζ(t),
//! windowed PRR, delivery summaries, controller directives), a
//! [`resume`] marker when a checkpoint/restore cycle ran, and a
//! [`run_end`] record with the final report. The session's recorder
//! writes it when a writer is attached via
//! [`RunOptions::runlog`](crate::RunOptions::runlog): every field is
//! read from the same per-pause fold that builds the metrics report,
//! so the stream and the report cannot disagree, and attaching a
//! writer leaves the report unchanged. This module holds the format:
//! the record types, the parser, [`normalize`] and [`diff`].
//!
//! [`run_start`]: RunRecord::RunStart
//! [`sample`]: RunRecord::Sample
//! [`resume`]: RunRecord::Resume
//! [`run_end`]: RunRecord::RunEnd
//!
//! # Determinism contract
//!
//! The runlog is simultaneously a debugging artifact and a conformance
//! witness, so its byte stability is pinned by proptests:
//!
//! * **Backend-invariant** — dense, lazy, and tiled backends produce
//!   byte-identical runlogs: every emitted field (engine stats, the
//!   five engine-side counters, ζ(t), PRR windows, deliveries,
//!   directives) is derived from the event trace or the gain values,
//!   never from backend-side caching behavior.
//!   The spec signature deliberately excludes the `backend` key.
//! * **Resume-invariant modulo the marker** — a run split by a
//!   checkpoint/restore cycle produces the identical byte stream plus
//!   one `resume` line. Counter deltas are accumulated across the
//!   restore (the sinks restart at zero; the recorder re-baselines),
//!   so even the interval spanning the split matches.
//! * **Timing-gated fields are exempt** — with the `telemetry-timing`
//!   feature each sample gains a `"timers"` object of wall-clock
//!   nanoseconds; [`normalize`] strips it (and `resume` markers) so
//!   timing builds can still be diffed against the golden fixture.
//!
//! # Span timelines
//!
//! Orthogonally to the runlog, [`chrome_trace_json`] renders the
//! engine's recorded [`SpanEvent`]s (the `dispatch` / `resolve` /
//! `row_build` / `epoch_solve` / `reach_window` phase timers) as Chrome
//! Trace Event JSON, loadable in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`. Spans only exist on the `telemetry-timing`
//! feature and are wall-clock by nature: nothing about them is part of
//! the determinism contract.

use decay_core::telemetry::SpanEvent;
use decay_engine::probe::Directive;
use decay_engine::{EngineStats, Tick};

use crate::json::{self, int, num, obj, s, JsonValue};

/// The format tag every runlog's `run_start` record carries.
pub const RUNLOG_FORMAT: &str = "decay-runlog-v1";

/// The spec fingerprint the `run_start` header carries — defined next
/// to the spec types (it doubles as the compiled-scenario cache key) and
/// re-exported here because the runlog is where the signature first
/// shipped.
pub use crate::spec::spec_signature;

/// A `u64` as the `0x`-prefixed, zero-padded hex string the runlog uses
/// for hashes and signatures.
pub(crate) fn hex(x: u64) -> JsonValue {
    s(&format!("{x:#018x}"))
}

/// Engine counters as the JSON object the runlog and the metrics
/// report share.
pub(crate) fn stats_json(stats: &EngineStats) -> JsonValue {
    obj(vec![
        ("events", int(stats.events)),
        ("wakes", int(stats.wakes)),
        ("transmissions", int(stats.transmissions)),
        ("deliveries", int(stats.deliveries)),
        ("dropped_deliveries", int(stats.dropped_deliveries)),
        ("jammed_ticks", int(stats.jammed_ticks)),
        ("churn_leaves", int(stats.churn_leaves)),
        ("churn_joins", int(stats.churn_joins)),
        ("queue_high_water", int(stats.queue_high_water)),
    ])
}

/// Controller directives as a JSON array.
pub(crate) fn directives_json(directives: &[Directive]) -> JsonValue {
    JsonValue::Array(
        directives
            .iter()
            .map(|d| match d {
                Directive::SetProbability { node, p } => obj(vec![
                    ("kind", s("set_probability")),
                    ("node", int(node.index() as u64)),
                    ("p", num(*p)),
                ]),
                Directive::SetAllProbabilities { p } => {
                    obj(vec![("kind", s("set_all_probabilities")), ("p", num(*p))])
                }
                // `Directive` is non_exhaustive: render unknown
                // variants opaquely rather than failing the stream.
                _ => obj(vec![("kind", s("unknown"))]),
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------
// Parsing, validation, and diffing — the `runlog_cat` engine.
// ---------------------------------------------------------------------

/// One parsed runlog record. Parsing keeps the fields consumers
/// (summaries, diffs, assertions) need; the full fidelity source is
/// always the NDJSON line itself.
#[derive(Debug, Clone, PartialEq)]
pub enum RunRecord {
    /// The header line.
    RunStart {
        /// Scenario name.
        name: String,
        /// Master seed.
        seed: u64,
        /// Run length in ticks.
        horizon: Tick,
        /// Pause-grid interval.
        check_interval: Tick,
        /// Node count.
        nodes: u64,
        /// Workload kind (`broadcast` / `contention` / `announce`).
        protocol: String,
        /// [`spec_signature`] of the trace-defining spec.
        spec_sig: u64,
        /// The backend's channel signature.
        channel_sig: u64,
        /// The controller signature (0 = none).
        controller_sig: u64,
    },
    /// One pause-grid sample.
    Sample {
        /// The grid tick.
        tick: Tick,
        /// Cumulative engine counters at this pause.
        stats: EngineStats,
        /// Engine-side counter deltas since the previous sample.
        counters: Vec<(String, u64)>,
        /// Deliveries since the previous sample.
        deliveries: u64,
        /// ζ(t) when this tick is on the monitor grid.
        zeta: Option<f64>,
        /// Windowed PRR when this tick is a window boundary.
        prr_window: Option<f64>,
        /// Controller directives issued at this pause.
        directives: usize,
        /// Whether the timing-gated `timers` object was present.
        timers: bool,
    },
    /// A checkpoint/restore cycle ran at this tick.
    Resume {
        /// The split tick.
        tick: Tick,
    },
    /// The trailer line.
    RunEnd {
        /// Final tick (completion tick, or the horizon).
        tick: Tick,
        /// Completion tick, if the protocol goal was reached.
        completed_at: Option<Tick>,
        /// The rolling delivery-trace hash.
        hash: u64,
        /// Lifetime packet reception ratio.
        prr: f64,
    },
}

/// A parsed, structurally validated runlog.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLog {
    /// The records, in stream order.
    pub records: Vec<RunRecord>,
}

impl RunLog {
    /// Parses and validates NDJSON runlog text: every line must parse
    /// as a known record, the first must be a well-formed `run_start`
    /// (with the `decay-runlog-v1` format tag), the last a `run_end`,
    /// sample ticks must be strictly increasing and inside the
    /// horizon, and `resume` markers must name mid-run ticks.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line (1-based).
    pub fn parse(text: &str) -> Result<RunLog, String> {
        let mut records = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            if line.trim().is_empty() {
                return Err(format!("line {lineno}: blank line in runlog"));
            }
            let record = parse_record(line).map_err(|e| format!("line {lineno}: {e}"))?;
            records.push(record);
        }
        if records.is_empty() {
            return Err("empty runlog".to_string());
        }
        let horizon = match &records[0] {
            RunRecord::RunStart { horizon, .. } => *horizon,
            _ => return Err("line 1: first record must be run_start".to_string()),
        };
        match records.last() {
            Some(RunRecord::RunEnd { .. }) => {}
            _ => return Err("last record must be run_end".to_string()),
        }
        let mut prev_sample: Option<Tick> = None;
        for (idx, record) in records.iter().enumerate().skip(1) {
            let lineno = idx + 1;
            match record {
                RunRecord::RunStart { .. } => {
                    return Err(format!("line {lineno}: duplicate run_start"));
                }
                RunRecord::RunEnd { .. } if idx + 1 != records.len() => {
                    return Err(format!("line {lineno}: run_end before end of stream"));
                }
                RunRecord::RunEnd { .. } => {}
                RunRecord::Sample { tick, .. } => {
                    if *tick > horizon {
                        return Err(format!(
                            "line {lineno}: sample tick {tick} beyond horizon {horizon}"
                        ));
                    }
                    if let Some(prev) = prev_sample {
                        if *tick <= prev {
                            return Err(format!(
                                "line {lineno}: sample tick {tick} not after {prev}"
                            ));
                        }
                    }
                    prev_sample = Some(*tick);
                }
                RunRecord::Resume { tick } => {
                    if *tick == 0 || *tick >= horizon {
                        return Err(format!(
                            "line {lineno}: resume tick {tick} outside (0, {horizon})"
                        ));
                    }
                }
            }
        }
        Ok(RunLog { records })
    }

    /// A short human-readable digest of the stream.
    pub fn summary(&self) -> String {
        let mut samples = 0usize;
        let mut resumes = 0usize;
        let mut zeta_samples = 0usize;
        let mut prr_windows = 0usize;
        let mut directives = 0usize;
        let mut header = String::new();
        let mut trailer = String::new();
        for record in &self.records {
            match record {
                RunRecord::RunStart {
                    name,
                    seed,
                    horizon,
                    check_interval,
                    nodes,
                    protocol,
                    ..
                } => {
                    header = format!(
                        "{name}: {protocol}, {nodes} nodes, horizon {horizon}, \
                         grid {check_interval}, seed {seed}"
                    );
                }
                RunRecord::Sample {
                    zeta,
                    prr_window,
                    directives: d,
                    ..
                } => {
                    samples += 1;
                    zeta_samples += usize::from(zeta.is_some());
                    prr_windows += usize::from(prr_window.is_some());
                    directives += d;
                }
                RunRecord::Resume { .. } => resumes += 1,
                RunRecord::RunEnd {
                    tick,
                    completed_at,
                    hash,
                    prr,
                } => {
                    let completed = match completed_at {
                        Some(t) => format!("completed at {t}"),
                        None => "ran out the horizon".to_string(),
                    };
                    trailer =
                        format!("final tick {tick}, {completed}, hash {hash:#018x}, prr {prr:.4}");
                }
            }
        }
        format!(
            "{header}\n{n} records: {samples} samples ({zeta_samples} with zeta, \
             {prr_windows} prr windows, {directives} directives), {resumes} resume\n{trailer}",
            n = self.records.len(),
        )
    }
}

/// Parses one NDJSON line into a [`RunRecord`].
///
/// # Errors
///
/// Returns a message describing the malformed field.
pub fn parse_record(line: &str) -> Result<RunRecord, String> {
    let v = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let kind = req_str(&v, "record")?;
    match kind.as_str() {
        "run_start" => {
            let format = req_str(&v, "format")?;
            if format != RUNLOG_FORMAT {
                return Err(format!("unknown format '{format}'"));
            }
            Ok(RunRecord::RunStart {
                name: req_str(&v, "name")?,
                seed: req_u64(&v, "seed")?,
                horizon: req_u64(&v, "horizon")?,
                check_interval: req_u64(&v, "check_interval")?,
                nodes: req_u64(&v, "nodes")?,
                protocol: req_str(&v, "protocol")?,
                spec_sig: req_hex(&v, "spec_sig")?,
                channel_sig: req_hex(&v, "channel_sig")?,
                controller_sig: req_hex(&v, "controller_sig")?,
            })
        }
        "sample" => {
            let stats_v = v.get("stats").ok_or("sample missing 'stats'")?;
            let counters_v = v.get("counters").ok_or("sample missing 'counters'")?;
            let counters = counters_v
                .entries()
                .ok_or("'counters' is not an object")?
                .iter()
                .map(|(k, c)| {
                    c.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("counter '{k}' is not an integer"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let deliveries = v
                .get("deliveries")
                .ok_or("sample missing 'deliveries'")
                .and_then(|d| req_u64(d, "count").map_err(|_| "bad deliveries.count"))?;
            Ok(RunRecord::Sample {
                tick: req_u64(&v, "tick")?,
                stats: parse_stats(stats_v)?,
                counters,
                deliveries,
                zeta: v.get("zeta").map(|z| req_f64(z, "zeta")).transpose()?,
                prr_window: v.get("prr_window").map(|w| req_f64(w, "prr")).transpose()?,
                directives: v
                    .get("directives")
                    .and_then(JsonValue::as_array)
                    .map_or(0, <[JsonValue]>::len),
                timers: v.get("timers").is_some(),
            })
        }
        "resume" => Ok(RunRecord::Resume {
            tick: req_u64(&v, "tick")?,
        }),
        "run_end" => {
            let completed_at = match v.get("completed_at") {
                None | Some(JsonValue::Null) => None,
                Some(t) => Some(
                    t.as_u64()
                        .ok_or("run_end 'completed_at' is not an integer")?,
                ),
            };
            Ok(RunRecord::RunEnd {
                tick: req_u64(&v, "tick")?,
                completed_at,
                hash: req_hex(&v, "hash")?,
                prr: req_f64(&v, "prr")?,
            })
        }
        other => Err(format!("unknown record kind '{other}'")),
    }
}

fn parse_stats(v: &JsonValue) -> Result<EngineStats, String> {
    Ok(EngineStats {
        events: req_u64(v, "events")?,
        wakes: req_u64(v, "wakes")?,
        transmissions: req_u64(v, "transmissions")?,
        deliveries: req_u64(v, "deliveries")?,
        dropped_deliveries: req_u64(v, "dropped_deliveries")?,
        jammed_ticks: req_u64(v, "jammed_ticks")?,
        churn_leaves: req_u64(v, "churn_leaves")?,
        churn_joins: req_u64(v, "churn_joins")?,
        queue_high_water: req_u64(v, "queue_high_water")?,
    })
}

fn req_str(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string '{key}'"))
}

fn req_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer '{key}'"))
}

fn req_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing or non-number '{key}'"))
}

fn req_hex(v: &JsonValue, key: &str) -> Result<u64, String> {
    let text = req_str(v, key)?;
    text.strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("bad hex '{key}' = '{text}'"))
}

/// Canonicalizes runlog text for comparison: drops `resume` markers
/// and strips the timing-gated `timers` object from every sample, then
/// re-renders each record compactly. Two runs of the same
/// trace-defining spec must normalize to identical bytes — across
/// backends, resume splits, and timing builds.
///
/// # Errors
///
/// Returns a message naming an unparseable line.
pub fn normalize(text: &str) -> Result<String, String> {
    let mut out = String::new();
    for (idx, line) in text.lines().enumerate() {
        let mut v = json::parse(line).map_err(|e| format!("line {}: bad JSON: {e}", idx + 1))?;
        if v.get("record").and_then(JsonValue::as_str) == Some("resume") {
            continue;
        }
        if let JsonValue::Object(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "timers");
        }
        out.push_str(&v.compact());
        out.push('\n');
    }
    Ok(out)
}

/// Compares two runlogs modulo the exempt fields ([`normalize`]d
/// form). Returns `None` when equivalent, otherwise a message pointing
/// at the first differing record.
///
/// # Errors
///
/// Returns a message naming an unparseable line in either input.
pub fn diff(a: &str, b: &str) -> Result<Option<String>, String> {
    let na = normalize(a).map_err(|e| format!("left: {e}"))?;
    let nb = normalize(b).map_err(|e| format!("right: {e}"))?;
    let la: Vec<&str> = na.lines().collect();
    let lb: Vec<&str> = nb.lines().collect();
    for (idx, (ra, rb)) in la.iter().zip(lb.iter()).enumerate() {
        if ra != rb {
            return Ok(Some(format!(
                "record {} differs\n  left:  {ra}\n  right: {rb}",
                idx + 1
            )));
        }
    }
    if la.len() != lb.len() {
        return Ok(Some(format!(
            "record counts differ: {} vs {}",
            la.len(),
            lb.len()
        )));
    }
    Ok(None)
}

// ---------------------------------------------------------------------
// Span timelines → Chrome Trace Event JSON.
// ---------------------------------------------------------------------

/// Renders recorded spans as Chrome Trace Event JSON (the `X` complete
/// event form), loadable in Perfetto or `chrome://tracing`. Timestamps
/// are microseconds since the process's span epoch; each recording
/// thread gets its own `tid` row.
pub fn chrome_trace_json(spans: &[SpanEvent]) -> String {
    let events: Vec<JsonValue> = spans
        .iter()
        .map(|span| {
            obj(vec![
                ("name", s(span.name)),
                ("cat", s("engine")),
                ("ph", s("X")),
                ("ts", num(span.start_ns as f64 / 1_000.0)),
                ("dur", num(span.dur_ns as f64 / 1_000.0)),
                ("pid", int(1)),
                ("tid", int(u64::from(span.tid))),
            ])
        })
        .collect();
    obj(vec![
        ("traceEvents", JsonValue::Array(events)),
        ("displayTimeUnit", s("ms")),
    ])
    .pretty()
}

/// Validates Chrome Trace Event JSON produced by [`chrome_trace_json`]
/// and returns the event count.
///
/// # Errors
///
/// Returns a message describing the first malformed event.
pub fn validate_trace(text: &str) -> Result<usize, String> {
    let v = json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing 'traceEvents' array")?;
    for (idx, event) in events.iter().enumerate() {
        for key in ["name", "ph"] {
            if event.get(key).and_then(JsonValue::as_str).is_none() {
                return Err(format!("event {idx}: missing or non-string '{key}'"));
            }
        }
        for key in ["ts", "dur", "pid", "tid"] {
            if event.get(key).and_then(JsonValue::as_f64).is_none() {
                return Err(format!("event {idx}: missing or non-number '{key}'"));
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY_LOG: &str = concat!(
        "{\"record\":\"run_start\",\"format\":\"decay-runlog-v1\",\"name\":\"t\",",
        "\"seed\":7,\"horizon\":64,\"check_interval\":16,\"nodes\":4,",
        "\"protocol\":\"announce\",\"spec_sig\":\"0x0000000000000001\",",
        "\"channel_sig\":\"0x0000000000000000\",\"controller_sig\":\"0x0000000000000000\"}\n",
        "{\"record\":\"sample\",\"tick\":16,\"stats\":{\"events\":5,\"wakes\":4,",
        "\"transmissions\":3,\"deliveries\":2,\"dropped_deliveries\":0,",
        "\"jammed_ticks\":0,\"churn_leaves\":0,\"churn_joins\":0,",
        "\"queue_high_water\":6},\"counters\":{\"events\":5,\"resolve_ticks\":1,",
        "\"sinr_pairs\":9,\"decay_calls\":9,\"reach_scans\":3},",
        "\"deliveries\":{\"count\":2,\"first\":3,\"last\":11},",
        "\"zeta\":{\"zeta\":1.5,\"phi\":0.5,\"nodes\":4},",
        "\"prr_window\":{\"transmissions\":3,\"deliveries\":2,\"prr\":0.5},",
        "\"directives\":[{\"kind\":\"set_all_probabilities\",\"p\":0.25}],",
        "\"timers\":{\"dispatch_ns\":10,\"dispatch_calls\":1,\"resolve_ns\":5,",
        "\"resolve_calls\":1,\"row_build_ns\":0,\"row_build_calls\":0}}\n",
        "{\"record\":\"resume\",\"tick\":20}\n",
        "{\"record\":\"sample\",\"tick\":32,\"stats\":{\"events\":9,\"wakes\":8,",
        "\"transmissions\":6,\"deliveries\":4,\"dropped_deliveries\":1,",
        "\"jammed_ticks\":0,\"churn_leaves\":0,\"churn_joins\":0,",
        "\"queue_high_water\":6},\"counters\":{\"events\":4,\"resolve_ticks\":1,",
        "\"sinr_pairs\":9,\"decay_calls\":9,\"reach_scans\":3},",
        "\"deliveries\":{\"count\":2,\"first\":18,\"last\":27}}\n",
        "{\"record\":\"run_end\",\"tick\":64,\"completed_at\":null,",
        "\"hash\":\"0x00000000deadbeef\",\"stats\":{\"events\":20,\"wakes\":16,",
        "\"transmissions\":12,\"deliveries\":8,\"dropped_deliveries\":1,",
        "\"jammed_ticks\":0,\"churn_leaves\":0,\"churn_joins\":0,",
        "\"queue_high_water\":6},\"prr\":0.8888888888888888,",
        "\"latency_hist\":[1,2,3,2,0,0,0,0],\"mean_latency\":2.5,",
        "\"first_delivery\":3,\"last_delivery\":27}\n",
    );

    #[test]
    fn parses_every_record_kind() {
        let log = RunLog::parse(TINY_LOG).expect("tiny log parses");
        assert_eq!(log.records.len(), 5);
        assert!(matches!(
            log.records[0],
            RunRecord::RunStart { seed: 7, .. }
        ));
        match &log.records[1] {
            RunRecord::Sample {
                tick,
                stats,
                counters,
                deliveries,
                zeta,
                prr_window,
                directives,
                timers,
            } => {
                assert_eq!(*tick, 16);
                assert_eq!(stats.events, 5);
                assert_eq!(stats.queue_high_water, 6);
                assert_eq!(counters.len(), 5);
                assert_eq!(counters[0], ("events".to_string(), 5));
                assert_eq!(*deliveries, 2);
                assert_eq!(*zeta, Some(1.5));
                assert_eq!(*prr_window, Some(0.5));
                assert_eq!(*directives, 1);
                assert!(timers);
            }
            other => panic!("expected sample, got {other:?}"),
        }
        assert_eq!(log.records[2], RunRecord::Resume { tick: 20 });
        assert!(
            matches!(&log.records[3], RunRecord::Sample { timers: false, .. }),
            "second sample has no timers object"
        );
        match &log.records[4] {
            RunRecord::RunEnd {
                tick,
                completed_at,
                hash,
                prr,
            } => {
                assert_eq!(*tick, 64);
                assert_eq!(*completed_at, None);
                assert_eq!(*hash, 0x0000_0000_DEAD_BEEF);
                assert!((prr - 0.888_888_888_888_888_8).abs() < 1e-12);
            }
            other => panic!("expected run_end, got {other:?}"),
        }
        let summary = log.summary();
        assert!(summary.contains("announce"));
        assert!(summary.contains("1 resume"));
    }

    #[test]
    fn parse_rejects_malformed_streams() {
        assert!(RunLog::parse("").is_err());
        // Missing run_end.
        let truncated: String = TINY_LOG.lines().take(4).map(|l| format!("{l}\n")).collect();
        assert!(RunLog::parse(&truncated).unwrap_err().contains("run_end"));
        // Samples out of order.
        let mut lines: Vec<&str> = TINY_LOG.lines().collect();
        lines.swap(1, 3);
        let swapped: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert!(RunLog::parse(&swapped).unwrap_err().contains("not after"));
        // Unknown record kind.
        assert!(parse_record("{\"record\":\"banana\"}")
            .unwrap_err()
            .contains("banana"));
        // Wrong format tag.
        assert!(parse_record("{\"record\":\"run_start\",\"format\":\"v0\"}")
            .unwrap_err()
            .contains("unknown format"));
    }

    #[test]
    fn normalize_strips_resume_and_timers() {
        let normalized = normalize(TINY_LOG).expect("normalizes");
        assert!(!normalized.contains("\"resume\""));
        assert!(!normalized.contains("timers"));
        assert_eq!(normalized.lines().count(), 4);
        // Normalization is idempotent.
        assert_eq!(normalize(&normalized).unwrap(), normalized);
        // A resumed log diffs clean against its normalized form.
        assert_eq!(diff(TINY_LOG, &normalized).unwrap(), None);
        // A genuine divergence is reported.
        let tampered = TINY_LOG.replace(
            "\"deliveries\":{\"count\":2,\"first\":3",
            "\"deliveries\":{\"count\":3,\"first\":3",
        );
        let verdict = diff(TINY_LOG, &tampered).unwrap().expect("must differ");
        assert!(verdict.contains("record 2 differs"));
    }

    #[test]
    fn chrome_trace_renders_and_validates() {
        let spans = [
            SpanEvent {
                name: "resolve",
                tid: 3,
                start_ns: 1_500,
                dur_ns: 2_000,
            },
            SpanEvent {
                name: "dispatch",
                tid: 1,
                start_ns: 0,
                dur_ns: 10_000,
            },
        ];
        let text = chrome_trace_json(&spans);
        assert_eq!(validate_trace(&text).expect("valid trace"), 2);
        let v = json::parse(&text).unwrap();
        let events = v.get("traceEvents").and_then(JsonValue::as_array).unwrap();
        assert_eq!(events[0].get("ts").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(events[0].get("tid").and_then(JsonValue::as_u64), Some(3));
        assert!(validate_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
    }
}
