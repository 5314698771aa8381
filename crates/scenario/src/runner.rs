//! The scenario runner: a thin driver over the session core. A run is
//! **compile** ([`crate::CompiledScenario`]) → **session**
//! ([`crate::RunSession`]) → [`crate::RunSession::run_to_end`], which
//! steps the session to completion (parking and resuming it once when
//! [`RunOptions::resume_at`] requests a split).
//!
//! # Determinism
//!
//! A run's [`TraceDigest`] is a pure function of the spec: it folds the
//! engine's rolling delivery-trace hash with the final event counters.
//! The session only pauses the engine on a fixed boundary grid
//! (multiples of `check_interval`), so pausing more often — to
//! checkpoint, restore, or drain metrics — cannot change what the
//! engine computes. That is what makes a run with a `resume_at` split
//! digest-identical to one without, and the dense and lazy decay
//! backends digest-identical to each other.

use std::fmt;
use std::io;
use std::sync::Arc;

use decay_core::telemetry::SpanEvent;
use decay_engine::{EngineError, EngineStats, Tick};

use crate::json::{int, obj, s, JsonValue};
use crate::metrics::MetricsReport;
use crate::session::{CompiledScenario, RunSession};
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
    /// [`RunOptions::resume_at`] asked to split outside `(0, horizon)` —
    /// such a split could never checkpoint mid-run, and silently running
    /// without one made callers believe resume fidelity had been
    /// exercised when it had not.
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The canonical trace digest.
    pub digest: TraceDigest,
    /// Collected metrics.
    pub metrics: MetricsReport,
    /// Number of nodes simulated.
    pub nodes: usize,
    /// Tick at which a checkpoint/restore cycle actually ran (only with
    /// [`RunOptions::resume_at`], and `None` there too when the run
    /// completed before reaching the requested split — callers
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

/// Optional attachments for [`ScenarioRunner::run`] and
/// [`RunSession::new`]: the backend override (the one execution knob
/// [`crate::spec_signature`] excludes, so a cached compilation runs
/// under the submitted backend), the checkpoint split, and the
/// observability sinks. No sink can perturb the run or its report: the
/// runlog writer renders what the session's recorder already folded,
/// spans are timing-gated telemetry, and the flight dump is written
/// after the engine stops. Attaching any subset leaves the digest, the
/// metrics series, and the runlog bytes unchanged.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Backend override (`None` = the spec's declared backend).
    pub backend: Option<BackendSpec>,
    /// Checkpoint/restore split tick: the run is serialized to bytes,
    /// decoded, and restored onto a freshly built backend there. Must
    /// lie inside `(0, horizon)`.
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

    /// Runs the scenario to the end through one [`RunSession`]:
    /// `opts.backend` overrides the spec's backend (the cross-backend
    /// conformance hook; the digest must not depend on the choice),
    /// `opts.resume_at` runs one checkpoint/restore cycle mid-run (the
    /// digest must equal an uninterrupted run's), and the sinks receive
    /// the runlog, spans, and flight dump. To attach extra probes, open
    /// the session with [`RunSession::new`] and call
    /// [`RunSession::run_to_end`].
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidSplit`] unless `resume_at` lies
    /// inside `(0, horizon)`, an error if the engine rejects the
    /// configuration or the checkpoint fails to round-trip, and
    /// [`ScenarioError::RunLog`] when an attached writer fails.
    pub fn run(&self, opts: RunOptions<'_>) -> Result<ScenarioReport, ScenarioError> {
        RunSession::new(Arc::clone(&self.compiled), opts, &mut [])?.run_to_end()
    }
}
