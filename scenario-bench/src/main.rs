//! Scenario-submission benchmark.
//!
//! ```text
//! cargo run --release --manifest-path scenario-bench/Cargo.toml -- \
//!     --workload <static-grid|temporal-storm|session-lifecycle> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client submits generated scenario specs, one at a
//! time, through the public pipeline: `ScenarioSpec::from_json_str` →
//! `ScenarioCache::compile` → `RunSession::{new, step_to_next_pause,
//! park, resume, finish}` → `RunLog::parse`. Every submission is checked
//! against a reference submission of the same spec. The last line of
//! stdout is one JSON object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics (from spans recorded around each public call)
//! with `--trace 1`. `workloads.json` defines the workloads and
//! `NOTES.md` defines every metric.

mod layers;
mod submit;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;

use decay_scenario::{runlog, RunRecord, ScenarioCache, TraceDigest};

use crate::layers::Record;
use crate::submit::{submit, Counts, Outcome};
use crate::trace::{now_ns, Tracer};
use crate::workload::{Mode, Workload};

/// Set-up runs this many times; `setup_s` is the median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name} <value>"))
    };
    let workload = flag("--workload")?.to_string();
    if !workload::names().contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            workload::names().join(", ")
        ));
    }
    let seed = flag("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    now_ns();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("scenario-bench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("scenario-bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// What every later submission of a spec is checked against.
struct Reference {
    digest: TraceDigest,
    runlog: String,
}

/// The run's state: submissions made, failures seen, spans recorded.
struct Bench {
    tracer: Tracer,
    records: Vec<Record>,
    failures: BTreeMap<&'static str, u64>,
    next_id: u32,
}

impl Bench {
    fn fail(&mut self, check: &'static str, spec: &str, detail: &str) {
        eprintln!("check failed: {check} on {spec}: {detail}");
        *self.failures.entry(check).or_default() += 1;
    }

    /// Submits one spec, runs every correctness check against
    /// `reference` (when there is one), and records the outcome.
    #[allow(clippy::too_many_arguments)]
    fn submit(
        &mut self,
        wl: &Workload,
        spec: usize,
        mode: Mode,
        runlog_on: bool,
        cache: &ScenarioCache,
        reference: Option<&Reference>,
        is_reference: bool,
    ) -> Option<Outcome> {
        let id = self.next_id;
        self.next_id += 1;
        let name = format!("{}[{spec}]", wl.name);
        let outcome = match submit(
            &wl.specs[spec],
            mode,
            runlog_on,
            cache,
            &mut self.tracer,
            id,
        ) {
            Ok(o) => o,
            Err(e) => {
                self.fail("submit-error", &name, &e);
                return None;
            }
        };
        let failed_before = self.failures.values().sum::<u64>();
        if outcome.compile_hit != (mode == Mode::Warm) {
            self.fail(
                "compile-cache",
                &name,
                &format!("{mode:?} submission hit={}", outcome.compile_hit),
            );
        }
        if let Some((text, parsed)) = &outcome.runlog {
            match parsed {
                Err(e) => self.fail("runlog-parse", &name, e),
                Ok(log) => {
                    let resumes = log
                        .records
                        .iter()
                        .filter(|r| matches!(r, RunRecord::Resume { .. }))
                        .count() as u64;
                    if resumes != outcome.parks {
                        self.fail(
                            "resume-markers",
                            &name,
                            &format!("{resumes} resume records for {} parks", outcome.parks),
                        );
                    }
                }
            }
            if let Some(r) = reference {
                let diff = self
                    .tracer
                    .span("runlog.diff", || runlog::diff(&r.runlog, text));
                match diff {
                    Ok(None) => {}
                    Ok(Some(d)) => self.fail("runlog-diff", &name, &d),
                    Err(e) => self.fail("runlog-diff", &name, &e),
                }
            }
        }
        if let Some(r) = reference {
            let digest = &outcome.report.digest;
            if digest.stats.events != r.digest.stats.events {
                self.fail(
                    "event-count",
                    &name,
                    &format!(
                        "{} events vs {}",
                        digest.stats.events, r.digest.stats.events
                    ),
                );
            } else if *digest != r.digest {
                self.fail(
                    "digest",
                    &name,
                    &format!("{:#018x} vs {:#018x}", digest.hash, r.digest.hash),
                );
            }
        }
        self.records.push(Record {
            id,
            reference: is_reference,
            traced: self.tracer.on,
            mode,
            failed: self.failures.values().sum::<u64>() > failed_before,
            wall_ns: outcome.wall_ns,
            nodes: outcome.report.nodes,
            compile_hit: outcome.compile_hit,
            parks: outcome.parks,
            checkpoint_bytes: outcome.checkpoint_bytes,
            runlog_records: outcome
                .runlog
                .as_ref()
                .map_or(0, |(t, _)| t.lines().count()) as u64,
            runlog_bytes: outcome.runlog.as_ref().map_or(0, |(t, _)| t.len()) as u64,
            counts: Counts::of(&outcome),
        });
        Some(outcome)
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let mut bench = Bench {
        tracer: Tracer::new(args.trace),
        records: Vec::new(),
        failures: BTreeMap::new(),
        next_id: 0,
    };

    // Set-up: generate the specs and submit each once, cold, on a fresh
    // cache. The first set-up's submissions are the references; the
    // repeats must reproduce them.
    let rss_start = layers::proc_status_bytes("VmRSS")?;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut references: Vec<Reference> = Vec::new();
    let mut zeta_plan = Vec::new();
    let mut setup_cache = ScenarioCache::new(1);
    let mut wl = None;
    let mut setup_start = 0;
    for k in 0..SETUPS {
        let generated = workload::generate(&args.workload, args.seed)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?;
        setup_cache = ScenarioCache::new(generated.specs.len());
        for i in 0..generated.specs.len() {
            let reference = references.get(i);
            let Some(outcome) = bench.submit(
                &generated,
                i,
                Mode::Cold,
                true,
                &setup_cache,
                reference,
                true,
            ) else {
                if k == 0 {
                    return Err("a reference submission failed".to_string());
                }
                continue;
            };
            if k == 0 {
                if i == 0 {
                    let monitor: Vec<u64> = outcome
                        .report
                        .metrics
                        .zeta_series
                        .iter()
                        .map(|z| z.tick)
                        .collect();
                    zeta_plan = layers::zeta_plan(&generated.specs[0], &monitor, outcome.ticks());
                }
                references.push(Reference {
                    digest: outcome.report.digest.clone(),
                    runlog: outcome.runlog.map(|(t, _)| t).unwrap_or_default(),
                });
            }
        }
        let now = now_ns();
        setups.push(now - setup_start);
        setup_start = now;
        wl = Some(generated);
    }
    let wl = wl.expect("at least one set-up");

    // Timed rounds. A round submits every spec in each of its modes; a
    // round whose first mode is cold starts from an empty cache, a warm
    // round reuses the last set-up's cache. With tracing, every other
    // round runs untraced, for the overhead comparison.
    let min_rounds = if args.trace { 2 } else { 1 };
    let deadline = now_ns() + (args.seconds * 1e9) as u64;
    let mut rounds: Vec<(bool, u64, u64)> = Vec::new();
    while rounds.len() < min_rounds || now_ns() < deadline {
        let traced = args.trace && rounds.len().is_multiple_of(2);
        bench.tracer.on = traced;
        let fresh;
        let cache = if wl.per_spec.first() == Some(&Mode::Cold) {
            fresh = ScenarioCache::new(wl.specs.len());
            &fresh
        } else {
            &setup_cache
        };
        let (mut ticks, mut wall) = (0, 0);
        for (i, reference) in references.iter().enumerate() {
            for &mode in &wl.per_spec {
                if let Some(o) =
                    bench.submit(&wl, i, mode, wl.runlog, cache, Some(reference), false)
                {
                    ticks += o.ticks();
                    wall += o.wall_ns;
                }
            }
        }
        rounds.push((traced, ticks, wall));
    }
    bench.tracer.on = args.trace;

    let timed: Vec<&Record> = bench.records.iter().filter(|r| !r.reference).collect();
    // A submission that errored leaves no record.
    let errored = bench.failures.get("submit-error").copied().unwrap_or(0);
    let attempted = bench.records.len() as u64 + errored;
    let failed = bench.records.iter().filter(|r| r.failed).count() as u64 + errored;
    println!(
        "workload {} seed {}: {} timed submissions in {} rounds, {} set-up submissions",
        wl.name,
        args.seed,
        timed.len(),
        rounds.len(),
        attempted - timed.len() as u64,
    );
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        layers::replay_zeta(&wl.specs[0], &zeta_plan, &mut bench.tracer)?;
        metrics = layers::per_layer(
            &bench.records,
            &bench.tracer.spans,
            &rounds,
            rss_start,
            zeta_plan.len(),
        )?;
        write_spans(&bench.tracer, args)?;
    } else {
        // A ratio of sums, not a median over rounds: the host's speed
        // alternates between a fast and a slow phase every few seconds,
        // and a median jumps between the two where a mean moves smoothly.
        let (ticks, wall) = rounds.iter().fold((0, 0), |(t, w), r| (t + r.1, w + r.2));
        let mut submit_ms: Vec<f64> = timed.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
        let mut setup_s: Vec<f64> = setups.iter().map(|&ns| ns as f64 / 1e9).collect();
        metrics.push(("setup_s", layers::quantile(&mut setup_s, 0.5), "s"));
        metrics.push((
            "sim_ticks_per_s",
            ticks as f64 / (wall.max(1) as f64 / 1e9),
            "ticks/s",
        ));
        metrics.push(("submit_ms_p50", layers::quantile(&mut submit_ms, 0.5), "ms"));
        metrics.push(("submit_ms_p90", layers::quantile(&mut submit_ms, 0.9), "ms"));
        metrics.push((
            "peak_rss_mb",
            layers::proc_status_bytes("VmHWM")? as f64 / 1048576.0,
            "MiB",
        ));
        println!("submit_ms samples: {}", submit_ms.len());
    }
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    println!(
        "fail_ratio {} ({failed}/{attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    if failed > 0 {
        let checks: Vec<String> = bench
            .failures
            .iter()
            .map(|(check, n)| format!("{check} ×{n}"))
            .collect();
        eprintln!("scenario-bench: failing checks: {}", checks.join(", "));
    }
    Ok(failed == 0)
}

/// Writes the recorded spans under `.bench_build/` once the run is over.
fn write_spans(tracer: &Tracer, args: &Args) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_build").join("scenario-bench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, tracer.to_json().compact())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {} spans to {}", tracer.spans.len(), path.display());
    Ok(())
}
