//! Compares two `BENCH_engine.json` documents and flags events/sec
//! regressions — the perf-trajectory guard behind CI's bench-trend
//! step.
//!
//! ```text
//! cargo run --release -p decay-bench --bin bench_trend -- \
//!     --baseline previous/BENCH_engine.json --current BENCH_engine.json \
//!     [--threshold 20] [--strict]
//! ```
//!
//! Rows are matched by `(backend, block)`. A row whose `events_per_sec`
//! fell more than `threshold` percent below the baseline is reported as
//! a regression with a GitHub Actions `::warning::` annotation (or
//! `::error::` plus a non-zero exit under `--strict` — quick-mode CI
//! measurements on shared runners are noisy, so the default annotates
//! instead of failing). New or vanished rows are informational.
//!
//! Rows also carry deterministic *cost-shape* columns (`rows_built`,
//! `pairs_per_scan`, `row_hit_rate`, `queue_high_water` — see
//! `engine_bench`). Unlike wall-clock throughput these cannot be noisy,
//! so any shape drift beyond `--shape-threshold` percent (default 10) is
//! flagged the same way: cost counters rising, or the row-cache hit
//! rate falling, means the hot path's shape changed — rows widening, a
//! cache losing locality — even if events/sec held steady.
//! Baselines written before the columns existed compare throughput only.
//!
//! `--history <path>` additionally appends the current document's rows
//! as a dated entry to a tracked `BENCH_history.json` (created when
//! absent; an existing same-date entry is replaced so reruns stay
//! idempotent) — the long-horizon perf trajectory that survives CI
//! artifact expiry. The artifact-based baseline flow above works
//! unchanged whether or not a history file exists.

use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use decay_core::json::parse;
use decay_core::json::{obj, s, JsonValue};

/// The deterministic cost-shape columns: (name, value, whether an
/// increase is the bad direction).
struct Shape {
    name: &'static str,
    value: f64,
    rising_is_bad: bool,
}

/// One comparable measurement row.
struct Row {
    key: String,
    events_per_sec: f64,
    shape: Vec<Shape>,
}

fn rows_of(doc: &JsonValue, path: &str) -> Result<Vec<Row>, String> {
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{path}: no rows array"))?;
    rows.iter()
        .map(|r| {
            let backend = r
                .get("backend")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{path}: row without backend"))?;
            let key = match r.get("block").and_then(JsonValue::as_u64) {
                Some(b) => format!("{backend} (block {b})"),
                None => backend.to_string(),
            };
            let events_per_sec = r
                .get("events_per_sec")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{path}: row {key} without events_per_sec"))?;
            // Optional: absent in documents from before the columns
            // existed, so the shape comparison degrades gracefully.
            let shape = [
                ("rows_built", true),
                ("pairs_per_scan", true),
                ("queue_high_water", true),
                ("row_hit_rate", false),
            ]
            .into_iter()
            .filter_map(|(name, rising_is_bad)| {
                r.get(name).and_then(JsonValue::as_f64).map(|value| Shape {
                    name,
                    value,
                    rising_is_bad,
                })
            })
            .collect();
            Ok(Row {
                key,
                events_per_sec,
                shape,
            })
        })
        .collect()
}

fn load(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    rows_of(&doc, path)
}

/// Today as `YYYY-MM-DD` (UTC), from the system clock alone — the civil
/// from-days conversion (Howard Hinnant's algorithm), so no date crate.
fn today_utc() -> String {
    #[expect(clippy::disallowed_methods, reason = "dates the history entry")]
    let days = (SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
        / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Appends the current document's rows to the dated history file
/// (replacing an existing entry for today, so CI reruns stay
/// idempotent). A missing or empty history file starts a fresh one.
fn append_history(history_path: &str, current_path: &str) -> Result<usize, String> {
    let current_text =
        std::fs::read_to_string(current_path).map_err(|e| format!("{current_path}: {e}"))?;
    let current = parse(&current_text).map_err(|e| format!("{current_path}: {e}"))?;
    let rows = current
        .get("rows")
        .cloned()
        .ok_or_else(|| format!("{current_path}: no rows array"))?;
    let date = today_utc();
    let mut entries: Vec<JsonValue> = match std::fs::read_to_string(history_path) {
        Ok(text) if !text.trim().is_empty() => parse(&text)
            .map_err(|e| format!("{history_path}: {e}"))?
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{history_path}: no entries array"))?
            .to_vec(),
        _ => Vec::new(),
    };
    entries.retain(|e| e.get("date").and_then(JsonValue::as_str) != Some(date.as_str()));
    let mut pairs = vec![("date", s(&date))];
    if let Some(quick) = current.get("quick").cloned() {
        pairs.push(("quick", quick));
    }
    if let Some(timing) = current.get("timing").cloned() {
        pairs.push(("timing", timing));
    }
    pairs.push(("rows", rows));
    entries.push(obj(pairs));
    let n = entries.len();
    let doc = obj(vec![
        ("bench", s("engine-history")),
        ("entries", JsonValue::Array(entries)),
    ]);
    std::fs::write(history_path, doc.pretty()).map_err(|e| format!("{history_path}: {e}"))?;
    Ok(n)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(baseline_path) = flag("--baseline") else {
        eprintln!(
            "usage: bench_trend --baseline <json> --current <json> [--threshold <pct>] [--strict]"
        );
        return ExitCode::from(2);
    };
    let Some(current_path) = flag("--current") else {
        eprintln!(
            "usage: bench_trend --baseline <json> --current <json> [--threshold <pct>] [--strict]"
        );
        return ExitCode::from(2);
    };
    let threshold: f64 = flag("--threshold")
        .and_then(|t| t.parse().ok())
        .unwrap_or(20.0);
    let shape_threshold: f64 = flag("--shape-threshold")
        .and_then(|t| t.parse().ok())
        .unwrap_or(10.0);
    let strict = args.iter().any(|a| a == "--strict");

    let (baseline, current) = match (load(&baseline_path), load(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_trend: {e}");
            return ExitCode::from(2);
        }
    };

    let mut regressions = 0u32;
    println!(
        "{:<28} {:>14} {:>14} {:>9}",
        "row", "baseline", "current", "delta"
    );
    for row in &current {
        match baseline.iter().find(|b| b.key == row.key) {
            None => println!(
                "{:<28} {:>14} {:>14.0} {:>9}",
                row.key, "(new)", row.events_per_sec, "-"
            ),
            Some(base) => {
                let delta = (row.events_per_sec - base.events_per_sec)
                    / base.events_per_sec.max(1e-9)
                    * 100.0;
                println!(
                    "{:<28} {:>14.0} {:>14.0} {:>+8.1}%",
                    row.key, base.events_per_sec, row.events_per_sec, delta
                );
                if delta < -threshold {
                    regressions += 1;
                    let kind = if strict { "error" } else { "warning" };
                    println!(
                        "::{kind}::engine bench regression: {} fell {:.1}% \
                         ({:.0} -> {:.0} events/sec, threshold {:.0}%)",
                        row.key, -delta, base.events_per_sec, row.events_per_sec, threshold
                    );
                }
                // Cost-shape drift: deterministic counters, tighter
                // leash, both directions reported but only the bad one
                // counts as a regression.
                for cur in &row.shape {
                    let Some(base_shape) = base.shape.iter().find(|s| s.name == cur.name) else {
                        continue;
                    };
                    let drift = (cur.value - base_shape.value) / base_shape.value.max(1e-9) * 100.0;
                    let bad = if cur.rising_is_bad {
                        drift > shape_threshold
                    } else {
                        drift < -shape_threshold
                    };
                    if bad {
                        regressions += 1;
                        let kind = if strict { "error" } else { "warning" };
                        println!(
                            "::{kind}::cost-shape regression: {} {} moved {:+.1}% \
                             ({} -> {}, shape threshold {:.0}%)",
                            row.key, cur.name, drift, base_shape.value, cur.value, shape_threshold
                        );
                    }
                }
            }
        }
    }
    for base in &baseline {
        if !current.iter().any(|r| r.key == base.key) {
            println!(
                "{:<28} {:>14.0} {:>14} {:>9}",
                base.key, base.events_per_sec, "(gone)", "-"
            );
        }
    }

    // History is recorded regardless of regressions — the trajectory
    // should show the dip, not hide it.
    if let Some(history_path) = flag("--history") {
        match append_history(&history_path, &current_path) {
            Ok(n) => eprintln!("bench_trend: {history_path} now holds {n} dated entr(y|ies)"),
            Err(e) => {
                eprintln!("bench_trend: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if regressions > 0 {
        eprintln!(
            "bench_trend: {regressions} row(s) regressed more than {threshold:.0}% \
             (strict: {strict})"
        );
        if strict {
            return ExitCode::FAILURE;
        }
    } else {
        eprintln!("bench_trend: no regressions beyond {threshold:.0}%");
    }
    ExitCode::SUCCESS
}
