//! The scenario runner: a thin driver over the session core. A run is
//! **compile** ([`crate::CompiledScenario`]) → **session**
//! ([`crate::RunSession`]) → this module's drive loop, which just steps
//! the session to completion (parking and resuming it once when a
//! resume split is requested).
//!
//! # Determinism
//!
//! A run's [`TraceDigest`] is a pure function of the spec: it folds the
//! engine's rolling delivery-trace hash with the final event counters.
//! The session only pauses the engine on a fixed boundary grid
//! (multiples of `check_interval`), so pausing more often — to
//! checkpoint, restore, or drain metrics — cannot change what the
//! engine computes. That is what makes
//! [`ScenarioRunner::run_with_resume`] digest-identical to
//! [`ScenarioRunner::run`], and all three decay backends
//! digest-identical to each other.

use std::fmt;
use std::io;
use std::sync::Arc;

use decay_core::telemetry::SpanEvent;
use decay_engine::probe::Probe;
use decay_engine::{EngineError, EngineStats, Tick};
use serde::{Deserialize, Serialize};

use crate::json::{int, obj, s, JsonValue};
use crate::metrics::MetricsReport;
use crate::session::{CompiledScenario, RunSession, SessionStep};
use crate::spec::{BackendSpec, ScenarioSpec, SpecError};

/// A failure constructing or running a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The spec failed validation or decoding.
    Spec(SpecError),
    /// The compiled engine rejected its configuration.
    Engine(EngineError),
    /// A checkpoint failed to round-trip through bytes.
    Checkpoint(String),
    /// [`ScenarioRunner::run_with_resume`] was asked to split outside
    /// `(0, horizon)` — such a split could never checkpoint mid-run, and
    /// silently running without one (the old behavior) made callers
    /// believe resume fidelity had been exercised when it had not.
    InvalidSplit {
        /// The requested split tick.
        split: Tick,
        /// The spec's horizon.
        horizon: Tick,
    },
    /// An attached runlog or flight-dump writer failed.
    RunLog(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Spec(e) => write!(f, "{e}"),
            ScenarioError::Engine(e) => write!(f, "{e}"),
            ScenarioError::Checkpoint(what) => write!(f, "checkpoint round trip failed: {what}"),
            ScenarioError::InvalidSplit { split, horizon } => write!(
                f,
                "resume split {split} is outside (0, {horizon}): a checkpoint \
                 cycle needs a strictly mid-run tick"
            ),
            ScenarioError::RunLog(what) => write!(f, "run-log stream failed: {what}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<SpecError> for ScenarioError {
    fn from(e: SpecError) -> Self {
        ScenarioError::Spec(e)
    }
}

impl From<EngineError> for ScenarioError {
    fn from(e: EngineError) -> Self {
        ScenarioError::Engine(e)
    }
}

/// The canonical digest of one run's event trace: the engine's rolling
/// delivery hash plus every deterministic counter. Two runs of the same
/// spec — on any backend, with or without a checkpoint/resume cycle —
/// must produce equal digests; `tests/golden/` pins them per shipped
/// spec.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceDigest {
    /// The spec name.
    pub name: String,
    /// The engine's rolling FNV-1a delivery-trace hash.
    pub hash: u64,
    /// Final engine counters.
    pub stats: EngineStats,
    /// Tick the protocol goal was reached, if it was.
    pub completed_at: Option<Tick>,
}

impl TraceDigest {
    /// Renders the canonical, diffable text form recorded under
    /// `tests/golden/`.
    pub fn canonical(&self) -> String {
        let completed = match self.completed_at {
            Some(t) => t.to_string(),
            None => "none".to_string(),
        };
        format!(
            "scenario-digest v1\n\
             name = {}\n\
             hash = {:#018x}\n\
             events = {}\n\
             wakes = {}\n\
             transmissions = {}\n\
             deliveries = {}\n\
             dropped_deliveries = {}\n\
             jammed_ticks = {}\n\
             churn_leaves = {}\n\
             churn_joins = {}\n\
             completed_at = {}\n",
            self.name,
            self.hash,
            self.stats.events,
            self.stats.wakes,
            self.stats.transmissions,
            self.stats.deliveries,
            self.stats.dropped_deliveries,
            self.stats.jammed_ticks,
            self.stats.churn_leaves,
            self.stats.churn_joins,
            completed,
        )
    }

    /// Parses the canonical text form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        if lines.next() != Some("scenario-digest v1") {
            return Err("missing 'scenario-digest v1' header".to_string());
        }
        let mut get = |key: &str| -> Result<String, String> {
            let line = lines.next().ok_or_else(|| format!("missing '{key}'"))?;
            let (k, v) = line
                .split_once(" = ")
                .ok_or_else(|| format!("malformed line '{line}'"))?;
            if k != key {
                return Err(format!("expected '{key}', found '{k}'"));
            }
            Ok(v.to_string())
        };
        let name = get("name")?;
        let hash_text = get("hash")?;
        let hash = hash_text
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad hash '{hash_text}'"))?;
        let mut int_field = |key: &str| -> Result<u64, String> {
            let v = get(key)?;
            v.parse().map_err(|_| format!("bad {key} '{v}'"))
        };
        let stats = EngineStats {
            events: int_field("events")?,
            wakes: int_field("wakes")?,
            transmissions: int_field("transmissions")?,
            deliveries: int_field("deliveries")?,
            dropped_deliveries: int_field("dropped_deliveries")?,
            jammed_ticks: int_field("jammed_ticks")?,
            churn_leaves: int_field("churn_leaves")?,
            churn_joins: int_field("churn_joins")?,
            // Observational only — never part of the canonical form
            // (and excluded from EngineStats equality for the same
            // reason), so pinned goldens stay byte-stable.
            queue_high_water: 0,
        };
        let completed = get("completed_at")?;
        let completed_at = match completed.as_str() {
            "none" => None,
            t => Some(t.parse().map_err(|_| format!("bad completed_at '{t}'"))?),
        };
        Ok(TraceDigest {
            name,
            hash,
            stats,
            completed_at,
        })
    }
}

/// The outcome of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// The canonical trace digest.
    pub digest: TraceDigest,
    /// Collected metrics.
    pub metrics: MetricsReport,
    /// Number of nodes simulated.
    pub nodes: usize,
    /// Tick at which a checkpoint/restore cycle actually ran (only for
    /// [`ScenarioRunner::run_with_resume`], and `None` there too when
    /// the run completed before reaching the requested split — callers
    /// asserting resume fidelity should check this rather than assume).
    pub checkpointed: Option<Tick>,
}

impl ScenarioReport {
    /// Renders the report as JSON.
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("name", s(&self.digest.name)),
            ("nodes", int(self.nodes as u64)),
            ("hash", s(&format!("{:#018x}", self.digest.hash))),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== scenario {} — {} nodes ===",
            self.digest.name, self.nodes
        )?;
        write!(f, "{}", self.metrics)?;
        write!(f, "trace hash: {:#018x}", self.digest.hash)
    }
}

/// Optional attachments for [`ScenarioRunner::run_with_options`] and
/// [`RunSession::new`]: the backend override (the one execution knob
/// [`crate::spec_signature`] excludes, so a cached compilation runs
/// under the submitted backend), the checkpoint
/// split, and the observability sinks (none of which can perturb the
/// run — the runlog is read-only like a probe, spans are timing-gated
/// telemetry, and the flight dump is written after the engine stops).
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Backend override (`None` = the spec's declared backend).
    pub backend: Option<BackendSpec>,
    /// Checkpoint/restore split tick, as in
    /// [`ScenarioRunner::run_with_resume`].
    pub resume_at: Option<Tick>,
    /// Writer receiving the `decay-runlog-v1` NDJSON stream (see
    /// [`crate::runlog`]).
    pub runlog: Option<&'a mut (dyn io::Write + Send)>,
    /// Sink for the engine's recorded span timeline. Arms span
    /// recording for the run; spans only exist on the
    /// `telemetry-timing` feature (the vec stays empty otherwise).
    /// Render with [`crate::runlog::chrome_trace_json`].
    pub trace_spans: Option<&'a mut Vec<SpanEvent>>,
    /// Writer receiving the `flight-recorder v1` dump — always
    /// written (after the final pause, or at the point of failure),
    /// not just on restore errors, so bug reports can attach it.
    pub flight_dump: Option<&'a mut (dyn io::Write + Send)>,
}

impl fmt::Debug for RunOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOptions")
            .field("backend", &self.backend)
            .field("resume_at", &self.resume_at)
            .field("runlog", &self.runlog.is_some())
            .field("trace_spans", &self.trace_spans.is_some())
            .field("flight_dump", &self.flight_dump.is_some())
            .finish()
    }
}

/// Compiles and drives [`ScenarioSpec`]s. Holds the compilation behind
/// an `Arc`, so cloning a runner — or building one from a
/// [`crate::ScenarioCache`] hit via [`Self::from_compiled`] — shares
/// the deployment and protocol plan instead of rebuilding them.
#[derive(Debug, Clone)]
pub struct ScenarioRunner {
    compiled: Arc<CompiledScenario>,
}

impl ScenarioRunner {
    /// Compiles a validated spec, resolving any `channel.trace_path`
    /// against the repository root — or, when the compile-time root is
    /// not present (a binary deployed outside its build checkout), the
    /// current working directory. The loaded trace is inlined, so the
    /// rest of the pipeline never touches the filesystem. Callers that
    /// know their root should prefer [`Self::new_with_root`].
    ///
    /// # Errors
    ///
    /// Returns the first validation failure, including an unreadable or
    /// malformed gain-trace file.
    pub fn new(spec: ScenarioSpec) -> Result<Self, ScenarioError> {
        Ok(ScenarioRunner {
            compiled: Arc::new(CompiledScenario::compile(spec)?),
        })
    }

    /// [`Self::new`] with an explicit root directory for
    /// `channel.trace_path` resolution.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure, including an unreadable or
    /// malformed gain-trace file.
    pub fn new_with_root(
        spec: ScenarioSpec,
        root: &std::path::Path,
    ) -> Result<Self, ScenarioError> {
        Ok(ScenarioRunner {
            compiled: Arc::new(CompiledScenario::compile_with_root(spec, root)?),
        })
    }

    /// Wraps an existing compilation (e.g. a [`crate::ScenarioCache`]
    /// hit) without recompiling anything.
    pub fn from_compiled(compiled: Arc<CompiledScenario>) -> Self {
        ScenarioRunner { compiled }
    }

    /// The spec being run.
    pub fn spec(&self) -> &ScenarioSpec {
        self.compiled.spec()
    }

    /// The compilation this runner drives.
    pub fn compiled(&self) -> &Arc<CompiledScenario> {
        &self.compiled
    }

    /// Runs the scenario on the backend the spec declares.
    ///
    /// # Errors
    ///
    /// Returns an error if the engine rejects the compiled configuration.
    pub fn run(&self) -> Result<ScenarioReport, ScenarioError> {
        self.run_on(self.spec().backend)
    }

    /// Runs the scenario on an explicit backend (the cross-backend
    /// conformance hook; the digest must not depend on the choice).
    ///
    /// # Errors
    ///
    /// Returns an error if the engine rejects the compiled configuration.
    pub fn run_on(&self, backend: BackendSpec) -> Result<ScenarioReport, ScenarioError> {
        self.execute(
            RunOptions {
                backend: Some(backend),
                ..RunOptions::default()
            },
            &mut [],
        )
    }

    /// Runs the scenario with a checkpoint/restore cycle at tick
    /// `split`: the engine is serialized to bytes, decoded, and restored
    /// onto a freshly built backend mid-run. The digest must equal an
    /// uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidSplit`] unless
    /// `0 < split < horizon`, and an error if the engine rejects the
    /// configuration or the checkpoint fails to round-trip.
    pub fn run_with_resume(&self, split: Tick) -> Result<ScenarioReport, ScenarioError> {
        self.run_instrumented(self.spec().backend, Some(split), &mut [])
    }

    /// The fully general entry point: runs on `backend`, optionally
    /// with a checkpoint/restore cycle at `resume_at`, feeding every
    /// probe in `extra` the same pause stream the built-in probes
    /// (metrics, ζ(t) monitor, windowed PRR, digest capture) observe.
    /// Probes are read-only, so attaching any subset leaves the digest
    /// and the ζ(t) series bit-identical — the probe-transparency
    /// proptest under `tests/` enforces it.
    ///
    /// # Errors
    ///
    /// Everything [`Self::run_on`] and [`Self::run_with_resume`] can
    /// return.
    pub fn run_instrumented(
        &self,
        backend: BackendSpec,
        resume_at: Option<Tick>,
        extra: &mut [&mut dyn Probe],
    ) -> Result<ScenarioReport, ScenarioError> {
        self.run_with_options(
            RunOptions {
                backend: Some(backend),
                resume_at,
                ..RunOptions::default()
            },
            extra,
        )
    }

    /// [`Self::run_instrumented`] plus the observability sinks: attach
    /// a `decay-runlog-v1` writer, a span-timeline sink, and/or a
    /// flight-recorder dump writer via [`RunOptions`]. All sinks are
    /// pause-grid observers — attaching any subset leaves the digest,
    /// the metrics series, and the runlog bytes unchanged.
    ///
    /// # Errors
    ///
    /// Everything [`Self::run_instrumented`] can return, plus
    /// [`ScenarioError::RunLog`] when an attached writer fails.
    pub fn run_with_options<'a>(
        &self,
        opts: RunOptions<'a>,
        extra: &'a mut [&mut dyn Probe],
    ) -> Result<ScenarioReport, ScenarioError> {
        if let Some(split) = opts.resume_at {
            if split == 0 || split >= self.spec().horizon {
                return Err(ScenarioError::InvalidSplit {
                    split,
                    horizon: self.spec().horizon,
                });
            }
        }
        self.execute(opts, extra)
    }

    /// The drive loop: step the session to completion, and when it
    /// reports the breakpoint (the requested resume split), run one
    /// full park/resume cycle through checkpoint bytes.
    fn execute<'a>(
        &self,
        opts: RunOptions<'a>,
        extra: &'a mut [&mut dyn Probe],
    ) -> Result<ScenarioReport, ScenarioError> {
        let mut session = RunSession::new(Arc::clone(&self.compiled), opts, extra)?;
        loop {
            match session.step_to_next_pause() {
                SessionStep::Paused => {}
                SessionStep::Breakpoint => {
                    let bytes = session.park();
                    session.resume(&bytes)?;
                }
                SessionStep::Finished => break,
            }
        }
        session.finish()
    }
}
