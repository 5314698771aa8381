//! The session's one observer: [`RunRecorder`] folds every pause of a
//! [`crate::RunSession`] exactly once, and everything the run reports
//! is read from that fold.
//!
//! At each pause the recorder streams the delivery batch into the
//! latency histogram and folds the merged engine + backend counter
//! sinks into one [`CounterAccumulator`]. On the sample grid it also
//! takes the ζ(t) scan (one [`decay_channel::sample`] call per due
//! tick), closes the PRR window, and records the counter delta. From
//! that one fold it builds the report's `zeta_series`, `prr_windows`,
//! `telemetry` and `scan_stats`, the [`TraceDigest`], the
//! flight-recorder tail, and — when a writer is attached — the
//! `decay-runlog-v1` stream ([`crate::runlog`]). The writer only
//! renders what the fold already holds, so attaching one cannot change
//! the report.
//!
//! # Sampling contract
//!
//! A sample closes at every `check_interval` multiple past tick 0, and
//! at the horizon when it is off that grid (a runlog `sample` record
//! only). It covers the ticks since the previous sample. An off-grid
//! pause (a checkpoint breakpoint, say) folds counters without
//! sampling, and a restore re-baselines the accumulator, so the
//! engine-side counters (`events`, `resolve_ticks`, `sinr_pairs`,
//! `decay_calls`, `reach_scans`) are invariant to how often the driver
//! pauses and where it splits. Channel-side counters fold the same
//! way, so they equal an unsplit run's when the split lands on a
//! coherence-block boundary (every split, at block length 1); a split
//! inside a block also counts the rebuilt backend's rescan of that
//! block's rows.
//!
//! ζ(t) is sampled at tick 0 and at every due multiple of the
//! monitor's interval, before the counters fold, so the ζ scan's
//! backend reads land in the sample that took them. PRR windows close
//! at every due multiple of `prr_window`; a final partial window is
//! dropped.
//!
//! # Flight recorder
//!
//! The flight dump holds the last [`FLIGHT_KEEP_SAMPLES`] telemetry
//! samples plus the engine's ring of recent events, rendered by
//! [`decay_engine::dump_flight`].

use std::io::Write;
use std::time::Duration;

use decay_channel::ZetaSample;
use decay_core::telemetry::{Counter, CounterSnapshot, Counters, TelemetrySample, Timer};
use decay_engine::probe::{Directive, PauseCtx};
use decay_engine::telemetry::CounterAccumulator;
use decay_engine::{DeliveryRecord, EngineStats, PrrWindowSample, Tick};

use crate::json::{int, num, obj, s, JsonValue};
use crate::metrics::{MetricsCollector, MetricsReport, ScanStatsReport};
use crate::runlog::{directives_json, hex, stats_json, RUNLOG_FORMAT};
use crate::runner::{ScenarioError, TraceDigest};
use crate::spec::{spec_signature, MonitorSpec, ProtocolSpec, ScenarioSpec};

/// Telemetry samples the flight dump retains (the report series is
/// unbounded; this only caps the crash-dump tail).
pub(crate) const FLIGHT_KEEP_SAMPLES: usize = 32;

/// The engine-side counters a runlog `sample` record reports. They
/// count trace events, not cache behavior, so they are backend- and
/// split-invariant; the backend-side row/epoch counters stay in the
/// report's telemetry series.
const ENGINE_COUNTERS: [Counter; 5] = [
    Counter::Events,
    Counter::ResolveTicks,
    Counter::SinrPairs,
    Counter::DecayCalls,
    Counter::ReachScans,
];

/// Which lifecycle point a pause is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunPhase {
    /// Before the first event fires (`tick == 0`).
    Start,
    /// A pause-grid (or off-grid breakpoint) stop.
    Pause,
    /// The final drain after completion or the horizon.
    Finish,
}

/// The fold of one run's pause stream (see the [module docs](self)).
pub(crate) struct RunRecorder<'w> {
    horizon: Tick,
    ci: Tick,
    monitor: Option<MonitorSpec>,
    window: Option<Tick>,
    latency: MetricsCollector,
    /// Counters accumulated over the whole run, additive across
    /// checkpoint/restore cycles.
    counters: CounterAccumulator,
    /// The accumulated total as of the previous sample.
    at_sample: CounterSnapshot,
    last_sample: Option<Tick>,
    /// The counter delta of a sample closed at the current pause,
    /// waiting for the runlog line.
    fresh: Option<CounterSnapshot>,
    /// Cumulative (transmissions, deliveries) at the previous PRR
    /// window boundary.
    at_boundary: (u64, u64),
    zeta_series: Vec<ZetaSample>,
    prr_windows: Vec<PrrWindowSample>,
    telemetry: Vec<TelemetrySample>,
    /// Read off the backend at the start pause.
    channel_signature: u64,
    has_channel_sink: bool,
    nodes: usize,
    /// Trace hash and engine counters at the finish pause.
    end: Option<(u64, EngineStats)>,
    runlog: Option<RunLogWriter<'w>>,
}

impl<'w> RunRecorder<'w> {
    /// A recorder for `spec`, streaming a runlog to `runlog` when one
    /// is given. `controller_sig` is the signature the session
    /// registered with the engine (0 = no controller).
    pub(crate) fn new(
        spec: &ScenarioSpec,
        controller_sig: u64,
        runlog: Option<&'w mut (dyn Write + Send)>,
    ) -> Self {
        RunRecorder {
            horizon: spec.horizon,
            ci: spec.check_interval,
            monitor: spec.channel.as_ref().and_then(|c| c.monitor),
            window: spec.prr_window,
            latency: MetricsCollector::new(),
            counters: CounterAccumulator::default(),
            at_sample: CounterSnapshot::default(),
            last_sample: None,
            fresh: None,
            at_boundary: (0, 0),
            zeta_series: Vec::new(),
            prr_windows: Vec::new(),
            telemetry: Vec::new(),
            channel_signature: 0,
            has_channel_sink: false,
            nodes: 0,
            end: None,
            runlog: runlog.map(|out| RunLogWriter::new(out, spec, controller_sig)),
        }
    }

    /// Folds one pause. The session calls this before extra probes and
    /// the controller see the pause.
    pub(crate) fn observe(&mut self, phase: RunPhase, ctx: &PauseCtx<'_>) {
        self.latency.observe_all(ctx.batch);
        if let Some(log) = self.runlog.as_mut() {
            log.pend(ctx.batch);
        }
        if phase == RunPhase::Start {
            self.channel_signature = ctx.backend.channel_signature();
            self.has_channel_sink = ctx.backend.telemetry().is_some();
            self.nodes = ctx.backend.len();
            self.sample_zeta(ctx);
            self.counters.start(ctx);
            return;
        }
        let tick = ctx.tick;
        let due = tick > 0
            && (tick.is_multiple_of(self.ci) || tick == self.horizon)
            && self.last_sample != Some(tick);
        if due {
            self.sample_zeta(ctx);
        }
        let total = self.counters.fold(ctx);
        if phase == RunPhase::Finish {
            self.end = Some((ctx.trace_hash, ctx.stats));
        }
        if !due {
            return;
        }
        let delta = total.delta_since(&self.at_sample);
        self.at_sample = total;
        self.last_sample = Some(tick);
        self.fresh = Some(delta);
        if self.window.is_some_and(|w| tick.is_multiple_of(w)) {
            let (tx0, dv0) = self.at_boundary;
            let transmissions = ctx.stats.transmissions - tx0;
            let deliveries = ctx.stats.deliveries - dv0;
            self.prr_windows.push(PrrWindowSample {
                tick,
                transmissions,
                deliveries,
                prr: if transmissions == 0 {
                    0.0
                } else {
                    deliveries as f64 / transmissions as f64
                },
            });
            self.at_boundary = (ctx.stats.transmissions, ctx.stats.deliveries);
        }
        if tick.is_multiple_of(self.ci) {
            self.telemetry.push(TelemetrySample {
                tick,
                delta,
                queue_high_water: ctx.stats.queue_high_water,
            });
        }
    }

    /// Samples ζ(t) when `ctx.tick` is on the monitor's grid.
    fn sample_zeta(&mut self, ctx: &PauseCtx<'_>) {
        if let Some(m) = self.monitor.filter(|m| ctx.tick.is_multiple_of(m.interval)) {
            self.zeta_series
                .push(decay_channel::sample(ctx.tick, ctx.backend, m.max_nodes));
        }
    }

    /// Writes the runlog line for the pause just observed, once the
    /// controller has decided: the `run_start` header at the start
    /// pause, a `sample` record when the pause closed a sample.
    pub(crate) fn narrate(
        &mut self,
        phase: RunPhase,
        ctx: &PauseCtx<'_>,
        directives: &[Directive],
    ) {
        let fresh = self.fresh.take();
        let Some(log) = self.runlog.as_mut() else {
            return;
        };
        if phase == RunPhase::Start {
            let record = log.run_start(ctx, directives);
            log.write(&record);
            return;
        }
        let Some(delta) = fresh else {
            return;
        };
        let tick = ctx.tick;
        let zeta = self.zeta_series.last().filter(|z| z.tick == tick);
        let window = self.prr_windows.last().filter(|w| w.tick == tick);
        let record = log.sample(ctx, &delta, zeta, window, directives);
        log.write(&record);
    }

    /// Marks a successful checkpoint/restore cycle at `split`: the
    /// rebuilt sinks start at zero, and the runlog gains a `resume`
    /// record.
    pub(crate) fn note_restore(&mut self, split: Tick) {
        self.counters.note_restore();
        if let Some(log) = self.runlog.as_mut() {
            log.write(&obj(vec![("record", s("resume")), ("tick", int(split))]));
        }
    }

    /// The flight-recorder tail: the most recent telemetry samples,
    /// oldest first.
    pub(crate) fn flight_tail(&self) -> &[TelemetrySample] {
        let keep_from = self.telemetry.len().saturating_sub(FLIGHT_KEEP_SAMPLES);
        &self.telemetry[keep_from..]
    }

    /// Node count of the backend the run started on.
    pub(crate) fn nodes(&self) -> usize {
        self.nodes
    }

    /// Assembles the digest and the metrics report after the finish
    /// pause, then writes the runlog's `run_end` record. `prr` and
    /// `completed_at` are the session's protocol-level verdicts, `wall`
    /// the run's wall-clock time.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::RunLog`] when the runlog writer failed.
    ///
    /// # Panics
    ///
    /// Panics if the finish pause was never observed.
    pub(crate) fn finish(
        self,
        name: String,
        prr: f64,
        completed_at: Option<Tick>,
        wall: Duration,
    ) -> Result<(TraceDigest, MetricsReport), ScenarioError> {
        let (hash, stats) = self.end.expect("finish pause observed");
        let total = self.counters.total();
        let metrics = MetricsReport {
            horizon: self.horizon,
            channel_signature: self.channel_signature,
            completed_at,
            prr,
            zeta_series: self.zeta_series,
            prr_windows: self.prr_windows,
            telemetry: self.telemetry,
            scan_stats: self.has_channel_sink.then(|| ScanStatsReport {
                scans: total.get(Counter::RowsBuilt),
                pairs: total.get(Counter::RowPairs),
                row_hits: total.get(Counter::RowHits),
            }),
            latency_hist: self.latency.hist,
            mean_latency: self.latency.mean_latency(),
            first_delivery: self.latency.first_delivery,
            last_delivery: self.latency.last_delivery,
            events_per_sec: if wall.as_secs_f64() > 0.0 {
                stats.events as f64 / wall.as_secs_f64()
            } else {
                f64::INFINITY
            },
            stats,
        };
        let digest = TraceDigest {
            name,
            hash,
            stats,
            completed_at,
        };
        if let Some(mut log) = self.runlog {
            log.write(&run_end(&digest, &metrics));
            log.flush();
            if let Some(e) = log.error {
                return Err(ScenarioError::RunLog(e));
            }
        }
        Ok((digest, metrics))
    }
}

/// The `decay-runlog-v1` writer: the header fields the spec fixes,
/// the deliveries pending since the previous sample, and the first IO
/// error (the stream is best-effort while the run is in flight; the
/// error surfaces at [`RunRecorder::finish`]).
struct RunLogWriter<'w> {
    out: &'w mut (dyn Write + Send),
    /// The `run_start` fields before and after `channel_sig`, which
    /// only the live backend knows.
    head: Vec<(&'static str, JsonValue)>,
    tail: Vec<(&'static str, JsonValue)>,
    pending: u64,
    first_pending: Option<Tick>,
    last_pending: Option<Tick>,
    error: Option<String>,
}

impl<'w> RunLogWriter<'w> {
    fn new(out: &'w mut (dyn Write + Send), spec: &ScenarioSpec, controller_sig: u64) -> Self {
        let protocol = match spec.protocol {
            ProtocolSpec::Broadcast { .. } => "broadcast",
            ProtocolSpec::Contention { .. } => "contention",
            ProtocolSpec::Announce { .. } => "announce",
        };
        let head = vec![
            ("record", s("run_start")),
            ("format", s(RUNLOG_FORMAT)),
            ("name", s(&spec.name)),
            ("seed", int(spec.seed)),
            ("horizon", int(spec.horizon)),
            ("check_interval", int(spec.check_interval)),
            ("nodes", int(spec.node_count() as u64)),
            ("protocol", s(protocol)),
            ("spec_sig", hex(spec_signature(spec))),
        ];
        let mut tail = vec![("controller_sig", hex(controller_sig))];
        if let Some(m) = spec.channel.as_ref().and_then(|c| c.monitor) {
            tail.push((
                "monitor",
                obj(vec![
                    ("interval", int(m.interval)),
                    ("max_nodes", int(m.max_nodes as u64)),
                ]),
            ));
        }
        if let Some(w) = spec.prr_window {
            tail.push(("prr_window", int(w)));
        }
        RunLogWriter {
            out,
            head,
            tail,
            pending: 0,
            first_pending: None,
            last_pending: None,
            error: None,
        }
    }

    fn pend(&mut self, batch: &[DeliveryRecord]) {
        self.pending += batch.len() as u64;
        if let Some(first) = batch.first() {
            self.first_pending.get_or_insert(first.tick);
        }
        if let Some(last) = batch.last() {
            self.last_pending = Some(last.tick);
        }
    }

    /// The `run_start` header, taken once at the start pause.
    fn run_start(&mut self, ctx: &PauseCtx<'_>, directives: &[Directive]) -> JsonValue {
        let mut fields = std::mem::take(&mut self.head);
        fields.push(("channel_sig", hex(ctx.backend.channel_signature())));
        fields.append(&mut self.tail);
        if !directives.is_empty() {
            fields.push(("directives", directives_json(directives)));
        }
        obj(fields)
    }

    /// A `sample` record; resets the pending deliveries.
    fn sample(
        &mut self,
        ctx: &PauseCtx<'_>,
        delta: &CounterSnapshot,
        zeta: Option<&ZetaSample>,
        window: Option<&PrrWindowSample>,
        directives: &[Directive],
    ) -> JsonValue {
        let mut fields = vec![
            ("record", s("sample")),
            ("tick", int(ctx.tick)),
            ("stats", stats_json(&ctx.stats)),
            (
                "counters",
                obj(ENGINE_COUNTERS
                    .iter()
                    .map(|&c| (c.name(), int(delta.get(c))))
                    .collect()),
            ),
        ];
        let mut deliveries = vec![("count", int(self.pending))];
        if self.pending > 0 {
            if let Some(first) = self.first_pending {
                deliveries.push(("first", int(first)));
            }
            if let Some(last) = self.last_pending {
                deliveries.push(("last", int(last)));
            }
        }
        fields.push(("deliveries", obj(deliveries)));
        self.pending = 0;
        self.first_pending = None;
        self.last_pending = None;
        if let Some(z) = zeta {
            fields.push((
                "zeta",
                obj(vec![
                    ("zeta", num(z.zeta)),
                    ("phi", num(z.phi)),
                    ("nodes", int(z.nodes as u64)),
                ]),
            ));
        }
        if let Some(w) = window {
            fields.push((
                "prr_window",
                obj(vec![
                    ("transmissions", int(w.transmissions)),
                    ("deliveries", int(w.deliveries)),
                    ("prr", num(w.prr)),
                ]),
            ));
        }
        if !directives.is_empty() {
            fields.push(("directives", directives_json(directives)));
        }
        if Counters::timing_enabled() {
            let mut timers = Vec::with_capacity(2 * Timer::ALL.len());
            for t in Timer::ALL {
                timers.push((t.ns_key(), int(delta.timer_ns(t).unwrap_or(0))));
                timers.push((t.calls_key(), int(delta.timer_calls(t).unwrap_or(0))));
            }
            fields.push(("timers", obj(timers)));
        }
        obj(fields)
    }

    fn write(&mut self, record: &JsonValue) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.out, "{}", record.compact()) {
            self.error = Some(format!("runlog write: {e}"));
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(format!("runlog flush: {e}"));
            }
        }
    }
}

/// The `run_end` record of a finished run.
fn run_end(digest: &TraceDigest, m: &MetricsReport) -> JsonValue {
    let opt_tick = |t: Option<Tick>| t.map_or(JsonValue::Null, int);
    obj(vec![
        ("record", s("run_end")),
        ("tick", int(m.completed_at.unwrap_or(m.horizon))),
        ("completed_at", opt_tick(m.completed_at)),
        ("hash", hex(digest.hash)),
        ("stats", stats_json(&m.stats)),
        ("prr", num(m.prr)),
        (
            "latency_hist",
            JsonValue::Array(m.latency_hist.iter().map(|&b| int(b)).collect()),
        ),
        ("mean_latency", num(m.mean_latency)),
        ("first_delivery", opt_tick(m.first_delivery)),
        ("last_delivery", opt_tick(m.last_delivery)),
    ])
}
