//! Run a declarative scenario from a JSON spec file.
//!
//! ```text
//! cargo run --release --example scenario_run                           # shipped demo spec
//! cargo run --release --example scenario_run -- scenarios/drift_mobility_storm.json
//! cargo run --release --example scenario_run -- my_spec.json --json    # machine-readable report
//! cargo run --release --example scenario_run -- my_spec.json --metrics-json out.json
//! cargo run --release --example scenario_run -- my_spec.json --runlog run.runlog
//! cargo run --release --example scenario_run -- my_spec.json --flight-dump flight.txt
//! cargo run --release --features telemetry-timing --example scenario_run -- \
//!     my_spec.json --trace-out trace.json
//! ```
//!
//! The same spec produces a bit-identical trace digest on every decay
//! backend and across checkpoint/resume cycles — this driver prints the
//! digest so you can pin it (see `tests/golden/`). Output flags:
//!
//! - `--metrics-json <path>` writes the full JSON metrics report
//!   (latency histogram, PRR, ζ(t) series for monitored channels,
//!   counters) for downstream tooling.
//! - `--runlog <path>` streams the run as `decay-runlog-v1` NDJSON —
//!   one typed record per pause-grid sample; inspect with
//!   `runlog_cat`. The stream is bit-identical across backends
//!   (default builds).
//! - `--trace-out <path>` writes the engine's phase spans as Chrome Trace
//!   Event JSON, loadable in Perfetto (`ui.perfetto.dev`) or
//!   `chrome://tracing`. Spans need `--features telemetry-timing`;
//!   without it the file holds an empty timeline.
//! - `--flight-dump <path>` writes the flight recorder's final ring
//!   buffers (always on run end; also on engine errors, where it is
//!   the post-mortem).

use beyond_geometry::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let as_json = args.iter().any(|a| a == "--json");
    const PATH_FLAGS: [&str; 4] = ["--metrics-json", "--runlog", "--trace-out", "--flight-dump"];
    let path_flag = |name: &str| -> Result<Option<String>, String> {
        args.iter()
            .position(|a| a == name)
            .map(|i| {
                args.get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .cloned()
                    .ok_or(format!("{name} needs a file path argument"))
            })
            .transpose()
    };
    let metrics_path = path_flag("--metrics-json")?;
    let runlog_path = path_flag("--runlog")?;
    let trace_path = path_flag("--trace-out")?;
    let flight_path = path_flag("--flight-dump")?;
    let path = {
        let mut positional = Vec::new();
        let mut skip_next = false;
        for a in &args {
            if skip_next {
                skip_next = false;
                continue;
            }
            if PATH_FLAGS.contains(&a.as_str()) {
                skip_next = true;
            } else if !a.starts_with("--") {
                positional.push(a.clone());
            }
        }
        positional
            .into_iter()
            .next()
            .unwrap_or_else(|| "scenarios/line_broadcast_storm.json".to_string())
    };

    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read spec {path}: {e}"))?;
    let spec = ScenarioSpec::from_json_str(&text)?;
    println!("loaded {path}: scenario \"{}\"\n", spec.name);

    let runner = ScenarioRunner::new(spec)?;
    let mut runlog_file = runlog_path
        .as_ref()
        .map(std::fs::File::create)
        .transpose()
        .map_err(|e| format!("cannot create runlog file: {e}"))?;
    let mut flight_file = flight_path
        .as_ref()
        .map(std::fs::File::create)
        .transpose()
        .map_err(|e| format!("cannot create flight-dump file: {e}"))?;
    let mut spans = Vec::new();
    let report = runner.run(RunOptions {
        runlog: runlog_file
            .as_mut()
            .map(|f| f as &mut (dyn std::io::Write + Send)),
        flight_dump: flight_file
            .as_mut()
            .map(|f| f as &mut (dyn std::io::Write + Send)),
        trace_spans: trace_path.is_some().then_some(&mut spans),
        ..RunOptions::default()
    })?;
    if as_json {
        print!("{}", report.to_json().pretty());
    } else {
        println!("{report}");
    }
    if let Some(out) = metrics_path {
        std::fs::write(&out, report.metrics.to_json().pretty())
            .map_err(|e| format!("cannot write metrics to {out}: {e}"))?;
        println!("\nmetrics report written to {out}");
    }
    if let Some(out) = runlog_path {
        println!("runlog written to {out} ({} format)", runlog::RUNLOG_FORMAT);
    }
    if let Some(out) = flight_path {
        println!("flight-recorder dump written to {out}");
    }
    if let Some(out) = trace_path {
        std::fs::write(&out, chrome_trace_json(&spans))
            .map_err(|e| format!("cannot write trace to {out}: {e}"))?;
        if spans.is_empty() {
            println!("trace written to {out} (0 spans — rebuild with --features telemetry-timing)");
        } else {
            println!("trace written to {out} ({} spans)", spans.len());
        }
    }

    // The reproducibility contract in action: re-running on a different
    // backend leaves the digest untouched.
    let cross = runner.run(RunOptions {
        backend: Some(BackendSpec::Dense),
        ..RunOptions::default()
    })?;
    assert_eq!(cross.digest, report.digest, "cross-backend digest drift");
    println!("\ncross-checked on the dense backend: digests identical");
    Ok(())
}
