//! One scenario submission through the public pipeline, with a span
//! around every call: spec JSON in, report and parsed runlog out.

use std::io::Write;

use decay_core::telemetry::Counter;
use decay_scenario::{
    RunLog, RunOptions, RunRecord, RunSession, ScenarioCache, ScenarioReport, ScenarioSpec,
    SessionStep,
};

use crate::trace::{now_ns, TimedSink, Tracer};
use crate::workload::Mode;

/// What one submission produced.
#[derive(Debug)]
pub struct Outcome {
    /// Wall time from spec parse to report plus parsed runlog.
    pub wall_ns: u64,
    pub compile_hit: bool,
    pub report: ScenarioReport,
    /// The runlog text and its parse, when one was attached.
    pub runlog: Option<(String, Result<RunLog, String>)>,
    pub parks: u64,
    pub checkpoint_bytes: u64,
}

impl Outcome {
    /// Simulated ticks: the completion tick, or the horizon.
    pub fn ticks(&self) -> u64 {
        let m = &self.report.metrics;
        m.completed_at.unwrap_or(m.horizon)
    }
}

/// Submits `json` once. A failure names the call that failed.
pub fn submit(
    json: &str,
    mode: Mode,
    with_runlog: bool,
    cache: &ScenarioCache,
    tracer: &mut Tracer,
    id: u32,
) -> Result<Outcome, String> {
    let first_span = tracer.spans.len();
    let start = now_ns();
    let root = tracer.begin_submission(id, "submission");
    let mut sink = TimedSink {
        buf: Vec::new(),
        writes: tracer.on.then(Vec::new),
    };
    let result = drive(json, mode, with_runlog, cache, tracer, &mut sink).map(|mut outcome| {
        if with_runlog {
            let text = String::from_utf8_lossy(&sink.buf).into_owned();
            let parsed = tracer.span("runlog.parse", || RunLog::parse(&text));
            outcome.runlog = Some((text, parsed));
        }
        outcome
    });
    tracer.end_submission(root);
    let wall_ns = now_ns() - start;
    if let Some(writes) = &sink.writes {
        tracer.attach_writes(first_span, writes);
    }
    result.map(|outcome| Outcome { wall_ns, ..outcome })
}

fn drive(
    json: &str,
    mode: Mode,
    with_runlog: bool,
    cache: &ScenarioCache,
    tracer: &mut Tracer,
    sink: &mut TimedSink,
) -> Result<Outcome, String> {
    let spec = tracer
        .span("spec.parse", || ScenarioSpec::from_json_str(json))
        .map_err(|e| format!("spec parse: {e}"))?;
    let horizon = spec.horizon;
    let hits = cache.compile_hits();
    let compiled = tracer
        .span("compile", || cache.compile(spec))
        .map_err(|e| format!("compile: {e}"))?;
    let compile_hit = cache.compile_hits() > hits;
    let opts = RunOptions {
        runlog: with_runlog.then_some(sink as &mut (dyn Write + Send)),
        ..RunOptions::default()
    };
    let mut session = tracer
        .span("session.open", || RunSession::new(compiled, opts, &mut []))
        .map_err(|e| format!("session open: {e}"))?;
    let (mut parks, mut checkpoint_bytes) = (0, 0);
    while tracer.span("session.step", || session.step_to_next_pause()) != SessionStep::Finished {
        // The session also pauses (as `Paused`, not `Finished`) at
        // tick == horizon when the protocol has not completed; a park
        // there writes a resume marker that `RunLog::parse` rejects.
        // Only pauses strictly inside (0, horizon) are parked.
        if mode == Mode::Cold && session.now() < horizon {
            let bytes = tracer.span("codec.park", || session.park());
            parks += 1;
            checkpoint_bytes += bytes.len() as u64;
            tracer
                .span("codec.resume", || session.resume(&bytes))
                .map_err(|e| format!("resume: {e}"))?;
        }
    }
    let report = tracer
        .span("session.finish", || session.finish())
        .map_err(|e| format!("finish: {e}"))?;
    Ok(Outcome {
        wall_ns: 0,
        compile_hit,
        report,
        runlog: None,
        parks,
        checkpoint_bytes,
    })
}

/// Engine and channel counts of one submission.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub events: u64,
    pub resolve_ticks: u64,
    pub sinr_pairs: u64,
    pub decay_calls: u64,
    pub reach_scans: u64,
    pub transmissions: u64,
    pub deliveries: u64,
    pub queue_high_water: u64,
    pub rows_built: u64,
    pub row_pairs: u64,
    pub row_hits: u64,
    pub epoch_loads: u64,
    pub epoch_swaps: u64,
    /// `stats.events` minus the summed telemetry `events` deltas: what
    /// the telemetry series lost across park/resume splits.
    pub telemetry_gap: u64,
}

impl Counts {
    /// Engine counts come from the runlog's `sample` records when there
    /// is one (they are resume-invariant), otherwise from the telemetry
    /// series, which is complete only for an uninterrupted run. Channel
    /// counts always come from the telemetry series.
    pub fn of(outcome: &Outcome) -> Counts {
        let m = &outcome.report.metrics;
        let telemetry = |c: Counter| m.telemetry.iter().map(|t| t.delta.get(c)).sum::<u64>();
        let mut counts = Counts {
            events: telemetry(Counter::Events),
            resolve_ticks: telemetry(Counter::ResolveTicks),
            sinr_pairs: telemetry(Counter::SinrPairs),
            decay_calls: telemetry(Counter::DecayCalls),
            reach_scans: telemetry(Counter::ReachScans),
            transmissions: m.stats.transmissions,
            deliveries: m.stats.deliveries,
            queue_high_water: m.stats.queue_high_water,
            rows_built: telemetry(Counter::RowsBuilt),
            row_pairs: telemetry(Counter::RowPairs),
            row_hits: telemetry(Counter::RowHits),
            epoch_loads: telemetry(Counter::EpochLoads),
            epoch_swaps: telemetry(Counter::EpochSwaps),
            telemetry_gap: m.stats.events.saturating_sub(telemetry(Counter::Events)),
        };
        if let Some((_, Ok(log))) = &outcome.runlog {
            let sampled = |name: &str| -> u64 {
                log.records
                    .iter()
                    .filter_map(|r| match r {
                        RunRecord::Sample { counters, .. } => {
                            counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
                        }
                        _ => None,
                    })
                    .sum()
            };
            counts.events = sampled("events");
            counts.resolve_ticks = sampled("resolve_ticks");
            counts.sinr_pairs = sampled("sinr_pairs");
            counts.decay_calls = sampled("decay_calls");
            counts.reach_scans = sampled("reach_scans");
        }
        counts
    }
}
