//! The session core: compile once, run many, pause anywhere.
//!
//! The run pipeline decomposes into three owned phases:
//!
//! 1. **Compile** — [`CompiledScenario`] resolves a [`ScenarioSpec`]
//!    into everything that is a pure function of the spec: the deployed
//!    point set, the protocol plan (required broadcast pairs, contention
//!    links, tuned probabilities), and the spec signature. It is
//!    immutable and `Send + Sync`, so one compilation can feed any
//!    number of concurrent runs. [`ScenarioCache`] memoizes compilations
//!    by signature.
//! 2. **Session** — [`RunSession`] owns a running engine, the one
//!    recorder that folds every pause (metrics, ζ(t), windowed PRR,
//!    telemetry, digest, runlog), and any caller extras, and exposes
//!    the run as a sequence of externally driven steps:
//!    [`RunSession::step_to_next_pause`], [`RunSession::checkpoint`],
//!    [`RunSession::park`] / [`RunSession::resume`],
//!    [`RunSession::finish`].
//! 3. **Drive** — [`RunSession::run_to_end`] steps a session to the
//!    end, parking and resuming it once at the requested split;
//!    [`crate::ScenarioRunner::run`] is that loop over a fresh session.
//!    External schedulers can drive the same session API themselves
//!    (preempt a run, serialize it, resume it on another thread).
//!
//! # Determinism
//!
//! The session pauses the engine only on the `check_interval` grid plus
//! at most one caller-requested breakpoint, and a park/resume cycle is
//! invisible to the event schedule — so a stepped, parked, and resumed
//! session is byte-identical (runlog, digest, ζ(t), PRR) to an
//! uninterrupted [`crate::ScenarioRunner::run`]. The session-conformance
//! proptest under `tests/` pins exactly that.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use decay_channel::AdaptiveContention;
use decay_core::telemetry::SpanEvent;
use decay_core::NodeId;
use decay_distributed::{build_contention_engine, ContentionNode, EventBroadcaster};
use decay_engine::probe::{apply_directives, Controller, Directive, PauseCtx, Probe, Tunable};
use decay_engine::{
    dump_flight, Checkpoint, Codec, DecayBackend, Engine, EngineConfig, EngineStats, EventBehavior,
    EventRecord, Tick,
};
use decay_spaces::Point;

use crate::recorder::{RunPhase, RunRecorder};
use crate::runner::{RunOptions, ScenarioError, ScenarioReport};
use crate::spec::{spec_signature, BackendSpec, ProtocolSpec, ScenarioSpec};

/// Dispatched events the engine-side flight-recorder ring retains.
pub(crate) const FLIGHT_KEEP_EVENTS: usize = 64;

/// Delivered required pairs of a broadcast run (the completion check).
fn covered_pairs(engine: &Engine<EventBroadcaster>, required: &[Vec<NodeId>]) -> usize {
    required
        .iter()
        .enumerate()
        .map(|(u, receivers)| {
            receivers
                .iter()
                .filter(|&&z| engine.behavior(z).has_heard(NodeId::new(u)))
                .count()
        })
        .sum()
}

/// The protocol-level half of a compilation: everything the drive loop
/// once derived per run that is actually a pure function of the spec.
///
/// Broadcast's required-receiver sets are computed from a lazily built,
/// channel-wrapped field probe; the cross-backend conformance suite pins
/// reach queries value-identical across backends, so the plan is
/// valid for whichever backend the run later picks.
enum ProtocolPlan {
    Broadcast {
        /// Per-source required receivers within the neighborhood decay.
        required: Arc<Vec<Vec<NodeId>>>,
        /// Total required pairs (the completion denominator).
        required_pairs: usize,
        /// Transmission probability (spec'd, or `0.5/Δ` tuned).
        p: f64,
        /// Transmission power.
        power: f64,
    },
    Contention {
        /// Directed sender→receiver links (defaulted when unspecified).
        links: Arc<Vec<(NodeId, NodeId)>>,
    },
    Announce {
        /// Transmission probability.
        probability: f64,
        /// Transmission power.
        power: f64,
    },
}

impl ProtocolPlan {
    fn compile(spec: &ScenarioSpec, points: &Arc<Vec<Point>>) -> ProtocolPlan {
        match &spec.protocol {
            ProtocolSpec::Broadcast {
                neighborhood_decay,
                probability,
                power,
            } => {
                // Probe the composite field once, at compile time. The
                // lazy backend is the cheapest prober, and conformance
                // pins its reach queries equal to dense — so the
                // plan cannot depend on the run's backend choice.
                let probe = realize(spec, points, BackendSpec::Lazy);
                let n = probe.len();
                let required: Vec<Vec<NodeId>> = (0..n)
                    .map(|u| probe.potential_receivers(NodeId::new(u), Some(*neighborhood_decay)))
                    .collect();
                let delta = required.iter().map(Vec::len).max().unwrap_or(0);
                let p = probability.unwrap_or((0.5 / delta.max(1) as f64).min(0.5));
                let required_pairs = required.iter().map(Vec::len).sum();
                ProtocolPlan::Broadcast {
                    required: Arc::new(required),
                    required_pairs,
                    p,
                    power: *power,
                }
            }
            ProtocolSpec::Contention { .. } => ProtocolPlan::Contention {
                links: Arc::new(spec.contention_links()),
            },
            ProtocolSpec::Announce { probability, power } => ProtocolPlan::Announce {
                probability: *probability,
                power: *power,
            },
        }
    }
}

/// The static field the spec's backend realizes, wrapped in the temporal
/// channel when one is declared. Rebuilding (for checkpoint restore)
/// reconstructs the same channel — layers are pure functions of their
/// config, and the engine verifies the channel signature on restore.
fn realize(
    spec: &ScenarioSpec,
    points: &Arc<Vec<Point>>,
    backend: BackendSpec,
) -> Box<dyn DecayBackend> {
    match &spec.channel {
        Some(channel) => channel.wrap_with_points(&spec.topology, points.as_slice(), || {
            backend.build_with_points(&spec.topology, Arc::clone(points))
        }),
        None => backend.build_with_points(&spec.topology, Arc::clone(points)),
    }
}

/// The repository root baked in at build time, or — when it is not
/// present (a binary deployed outside its build checkout) — the
/// current working directory.
fn repo_root_or_cwd() -> std::path::PathBuf {
    let baked = crate::golden::repo_root();
    if baked.is_dir() {
        baked
    } else {
        std::path::PathBuf::from(".")
    }
}

/// Validates `spec`, resolves its `channel.trace_path` against `root`,
/// and returns its signature. The signature is taken after resolution,
/// so two specs naming the same trace file by different paths — or one
/// inlining what the other loads — compile to the same cache key.
fn resolve(spec: &mut ScenarioSpec, root: &std::path::Path) -> Result<u64, ScenarioError> {
    spec.validate()?;
    spec.resolve_trace_path(root)?;
    Ok(spec_signature(spec))
}

/// A validated, resolved, fully precomputed scenario: the immutable
/// product of the **compile** phase.
///
/// Holds the deployed point set (shared with every backend the
/// compilation builds), the protocol plan, and the spec signature —
/// the same [`spec_signature`] the runlog header records, with the
/// execution knob `backend` excluded. It is `Send + Sync`,
/// so one compilation can feed concurrent sessions; [`ScenarioCache`]
/// memoizes compilations by signature.
pub struct CompiledScenario {
    spec: ScenarioSpec,
    sig: u64,
    points: Arc<Vec<Point>>,
    plan: ProtocolPlan,
}

impl fmt::Debug for CompiledScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledScenario")
            .field("name", &self.spec.name)
            .field("sig", &format_args!("{:#018x}", self.sig))
            .field("nodes", &self.points.len())
            .finish()
    }
}

impl CompiledScenario {
    /// Compiles a spec, resolving any `channel.trace_path` against the
    /// repository root — or, when the compile-time root is not present
    /// (a binary deployed outside its build checkout), the current
    /// working directory. Callers that know their root should prefer
    /// [`Self::compile_with_root`].
    ///
    /// # Errors
    ///
    /// Returns the first validation failure, including an unreadable or
    /// malformed gain-trace file.
    pub fn compile(spec: ScenarioSpec) -> Result<CompiledScenario, ScenarioError> {
        Self::compile_with_root(spec, &repo_root_or_cwd())
    }

    /// [`Self::compile`] with an explicit root directory for
    /// `channel.trace_path` resolution.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure, including an unreadable or
    /// malformed gain-trace file.
    pub fn compile_with_root(
        mut spec: ScenarioSpec,
        root: &std::path::Path,
    ) -> Result<CompiledScenario, ScenarioError> {
        let sig = resolve(&mut spec, root)?;
        Ok(Self::from_resolved(spec, sig))
    }

    /// Deploys the points and builds the protocol plan for a spec that
    /// [`resolve`] already validated and signed.
    fn from_resolved(spec: ScenarioSpec, sig: u64) -> CompiledScenario {
        let points = Arc::new(spec.topology.points());
        let plan = ProtocolPlan::compile(&spec, &points);
        CompiledScenario {
            spec,
            sig,
            points,
            plan,
        }
    }

    /// The validated, trace-resolved spec.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The spec signature ([`spec_signature`]): the cache key, and the
    /// `spec_sig` the runlog header records. The `backend` is excluded —
    /// it selects *how* to run, not *what*.
    pub fn signature(&self) -> u64 {
        self.sig
    }

    /// The deployed point set, shared with every backend this
    /// compilation builds.
    pub fn points(&self) -> &Arc<Vec<Point>> {
        &self.points
    }

    /// Builds a backend realizing this scenario's composite field
    /// (static decays plus the declared temporal channel) without
    /// regenerating the deployment.
    pub fn build_backend(&self, backend: BackendSpec) -> Box<dyn DecayBackend> {
        realize(&self.spec, &self.points, backend)
    }
}

/// An LRU-bounded memo of compilations keyed by [`spec_signature`].
///
/// Submitting a spec whose signature matches a cached compilation
/// returns the same `Arc<CompiledScenario>` — the deployment, protocol
/// plan, and resolved trace are shared, not rebuilt — and bumps
/// [`Self::compile_hits`]. Because the key excludes the
/// `backend`, a hit may return a compilation whose stored spec names a
/// *different* backend than the submitted one: pass the run's backend
/// through [`RunOptions::backend`] instead of relying on the cached
/// spec's.
pub struct ScenarioCache {
    inner: Mutex<CacheState>,
}

struct CacheState {
    // decay-lint: allow(hash-iteration) — lookup-only: accessed via
    // get/insert/remove by signature; eviction order lives in `order`.
    map: HashMap<u64, Arc<CompiledScenario>>,
    /// Signatures in recency order, most recently used last.
    order: Vec<u64>,
    capacity: usize,
    /// Times [`ScenarioCache::compile`] returned a cached compilation.
    hits: u64,
}

impl fmt::Debug for ScenarioCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.inner.lock().expect("scenario cache poisoned");
        f.debug_struct("ScenarioCache")
            .field("len", &state.map.len())
            .field("capacity", &state.capacity)
            .field("compile_hits", &state.hits)
            .finish()
    }
}

impl ScenarioCache {
    /// An empty cache retaining at most `capacity` compilations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "scenario cache capacity must be positive");
        ScenarioCache {
            inner: Mutex::new(CacheState {
                map: HashMap::new(),
                order: Vec::new(),
                capacity,
                hits: 0,
            }),
        }
    }

    /// Compiles `spec`, or returns the cached compilation with the same
    /// signature. A miss compiles under the lock, so concurrent
    /// submissions of the same spec compile it exactly once.
    ///
    /// # Errors
    ///
    /// Everything [`CompiledScenario::compile`] can return. Failed
    /// compilations are not cached.
    pub fn compile(&self, spec: ScenarioSpec) -> Result<Arc<CompiledScenario>, ScenarioError> {
        // Validation and trace resolution are cheap relative to the
        // deployment + plan probe, and the key must be taken over the
        // *resolved* spec — so do that much, once, before consulting
        // the map.
        let mut spec = spec;
        let sig = resolve(&mut spec, &repo_root_or_cwd())?;

        let mut state = self.inner.lock().expect("scenario cache poisoned");
        if let Some(hit) = state.map.get(&sig).cloned() {
            state.order.retain(|&k| k != sig);
            state.order.push(sig);
            state.hits += 1;
            return Ok(hit);
        }
        let compiled = Arc::new(CompiledScenario::from_resolved(spec, sig));
        state.map.insert(sig, Arc::clone(&compiled));
        state.order.push(sig);
        while state.map.len() > state.capacity {
            let evict = state.order.remove(0);
            state.map.remove(&evict);
        }
        Ok(compiled)
    }

    /// Cached compilations currently retained.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("scenario cache poisoned")
            .map
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Times [`Self::compile`] returned a cached compilation.
    pub fn compile_hits(&self) -> u64 {
        self.inner.lock().expect("scenario cache poisoned").hits
    }
}

/// Panic message for session methods that need a live engine.
const PARKED: &str = "RunSession is parked; call resume() with the parked bytes first";

/// The backend-generic engine state behind a [`RunSession`], erased so
/// the session is a single non-generic `Send` type. One implementation
/// exists per protocol behavior; the session only ever talks to the
/// trait.
trait EngineHarness: Send {
    fn now(&self) -> Tick;
    fn run_until(&mut self, tick: Tick);
    /// Runs one pause: assembles the [`PauseCtx`], feeds it to `visit`,
    /// and applies the directives `visit` returns.
    fn pause(&mut self, horizon: Tick, visit: &mut dyn FnMut(&PauseCtx<'_>) -> Vec<Directive>);
    fn done(&self) -> bool;
    fn prr(&self) -> f64;
    fn stats(&self) -> EngineStats;
    fn checkpoint_bytes(&mut self) -> Vec<u8>;
    /// Drops the engine; every other method panics until
    /// [`Self::restore`] succeeds.
    fn park(&mut self);
    fn is_parked(&self) -> bool;
    /// Decodes `bytes` and restores onto a freshly rebuilt backend.
    fn restore(&mut self, bytes: &[u8], controller_sig: u64) -> Result<(), ScenarioError>;
    fn set_controller_signature(&mut self, sig: u64);
    fn enable_event_log(&mut self, keep: usize);
    fn note_queue_high_water(&mut self, mark: u64);
    fn arm_spans(&mut self);
    fn take_spans(&mut self) -> Vec<SpanEvent>;
    fn recent_events(&self) -> Vec<EventRecord>;
}

struct Harness<B: EventBehavior, D, P> {
    engine: Option<Engine<B>>,
    rebuild: Box<dyn Fn() -> Box<dyn DecayBackend> + Send>,
    done: D,
    prr: P,
}

impl<B: EventBehavior, D, P> Harness<B, D, P> {
    fn engine(&self) -> &Engine<B> {
        self.engine.as_ref().expect(PARKED)
    }

    fn engine_mut(&mut self) -> &mut Engine<B> {
        self.engine.as_mut().expect(PARKED)
    }
}

impl<B, D, P> EngineHarness for Harness<B, D, P>
where
    B: EventBehavior + Codec + Clone + PartialEq + fmt::Debug + Tunable + Send + 'static,
    D: Fn(&Engine<B>) -> bool + Send,
    P: Fn(&Engine<B>) -> f64 + Send,
{
    fn now(&self) -> Tick {
        self.engine().now()
    }

    fn run_until(&mut self, tick: Tick) {
        self.engine_mut().run_until(tick);
    }

    fn pause(&mut self, horizon: Tick, visit: &mut dyn FnMut(&PauseCtx<'_>) -> Vec<Directive>) {
        let engine = self.engine.as_mut().expect(PARKED);
        let directives = decay_engine::probe::with_pause(engine, horizon, |ctx| visit(ctx));
        apply_directives(engine, &directives);
    }

    fn done(&self) -> bool {
        (self.done)(self.engine())
    }

    fn prr(&self) -> f64 {
        (self.prr)(self.engine())
    }

    fn stats(&self) -> EngineStats {
        self.engine().stats()
    }

    fn checkpoint_bytes(&mut self) -> Vec<u8> {
        self.engine().checkpoint().to_bytes()
    }

    fn park(&mut self) {
        assert!(self.engine.is_some(), "{PARKED}");
        self.engine = None;
    }

    fn is_parked(&self) -> bool {
        self.engine.is_none()
    }

    fn restore(&mut self, bytes: &[u8], controller_sig: u64) -> Result<(), ScenarioError> {
        let decoded: Checkpoint<B> =
            Checkpoint::from_bytes(bytes).map_err(|e| ScenarioError::Checkpoint(e.to_string()))?;
        let engine = Engine::restore_with_controller((self.rebuild)(), decoded, controller_sig)?;
        self.engine = Some(engine);
        Ok(())
    }

    fn set_controller_signature(&mut self, sig: u64) {
        self.engine_mut().set_controller_signature(sig);
    }

    fn enable_event_log(&mut self, keep: usize) {
        self.engine_mut().enable_event_log(keep);
    }

    fn note_queue_high_water(&mut self, mark: u64) {
        self.engine_mut().note_queue_high_water(mark);
    }

    fn arm_spans(&mut self) {
        self.engine_mut().arm_spans();
    }

    fn take_spans(&mut self) -> Vec<SpanEvent> {
        self.engine_mut().take_spans()
    }

    fn recent_events(&self) -> Vec<EventRecord> {
        self.engine().recent_events()
    }
}

/// Builds the protocol's engine + completion/PRR closures behind the
/// erased harness.
fn build_harness(
    compiled: &Arc<CompiledScenario>,
    backend: BackendSpec,
    config: EngineConfig,
) -> Result<Box<dyn EngineHarness>, ScenarioError> {
    let spec = &compiled.spec;
    let rebuild: Box<dyn Fn() -> Box<dyn DecayBackend> + Send> = {
        let compiled = Arc::clone(compiled);
        Box::new(move || compiled.build_backend(backend))
    };
    match &compiled.plan {
        ProtocolPlan::Broadcast {
            required,
            required_pairs,
            p,
            power,
        } => {
            let field = compiled.build_backend(backend);
            let n = field.len();
            let behaviors: Vec<EventBroadcaster> =
                (0..n).map(|_| EventBroadcaster::new(*p, *power)).collect();
            let engine = Engine::new(field, behaviors, spec.sinr_params(), config, spec.seed)?;
            let required_pairs = *required_pairs;
            let done_req = Arc::clone(required);
            let prr_req = Arc::clone(required);
            Ok(Box::new(Harness {
                engine: Some(engine),
                rebuild,
                done: move |e: &Engine<EventBroadcaster>| {
                    covered_pairs(e, &done_req) == required_pairs
                },
                prr: move |e: &Engine<EventBroadcaster>| {
                    if required_pairs == 0 {
                        1.0
                    } else {
                        covered_pairs(e, &prr_req) as f64 / required_pairs as f64
                    }
                },
            }))
        }
        ProtocolPlan::Contention { links } => {
            let strategy = match &spec.protocol {
                ProtocolSpec::Contention { strategy, .. } => *strategy,
                _ => unreachable!("plan and spec protocol agree by construction"),
            };
            let (engine, senders) = build_contention_engine(
                compiled.build_backend(backend),
                links,
                &spec.sinr_params(),
                strategy,
                config,
                spec.seed,
            );
            let done_senders = senders.clone();
            let total = senders.len().max(1);
            let prr_senders = senders;
            Ok(Box::new(Harness {
                engine: Some(engine),
                rebuild,
                done: move |e: &Engine<ContentionNode>| {
                    done_senders.iter().all(|&s| {
                        matches!(
                            e.behavior(s),
                            ContentionNode::Sender {
                                delivered_at: Some(_),
                                ..
                            } | ContentionNode::Sender { viable: false, .. }
                        )
                    })
                },
                prr: move |e: &Engine<ContentionNode>| {
                    prr_senders
                        .iter()
                        .filter(|&&s| {
                            matches!(
                                e.behavior(s),
                                ContentionNode::Sender {
                                    delivered_at: Some(_),
                                    ..
                                }
                            )
                        })
                        .count() as f64
                        / total as f64
                },
            }))
        }
        ProtocolPlan::Announce { probability, power } => {
            let n = spec.node_count();
            let behaviors: Vec<EventBroadcaster> = (0..n)
                .map(|_| EventBroadcaster::new(*probability, *power))
                .collect();
            let engine = Engine::new(
                compiled.build_backend(backend),
                behaviors,
                spec.sinr_params(),
                config,
                spec.seed,
            )?;
            // Announce has no completion notion: run the horizon out.
            Ok(Box::new(Harness {
                engine: Some(engine),
                rebuild,
                done: |_: &Engine<EventBroadcaster>| false,
                prr: |e: &Engine<EventBroadcaster>| {
                    let s = e.stats();
                    let total = s.deliveries + s.dropped_deliveries;
                    if total == 0 {
                        0.0
                    } else {
                        s.deliveries as f64 / total as f64
                    }
                },
            }))
        }
    }
}

/// What [`RunSession::step_to_next_pause`] arrived at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStep {
    /// A grid pause: probes have observed, directives were applied, the
    /// run goal is not yet reached.
    Paused,
    /// The caller's breakpoint: same as a pause, but at the tick set by
    /// [`RunSession::set_breakpoint`] (now cleared). The natural moment
    /// to [`RunSession::checkpoint`] or [`RunSession::park`].
    Breakpoint,
    /// The run is over — the goal was reached on the grid or the
    /// horizon was hit. Call [`RunSession::finish`].
    Finished,
}

/// The one sanctioned wall-clock read in this crate: the session's
/// start instant, reported as `elapsed` in the run summary. Nothing
/// derived from it ever reaches the trace, the digests, or the
/// telemetry counters that gate conformance.
#[allow(clippy::disallowed_methods)] // see comment above — report-only
fn wall_clock_start() -> Instant {
    // decay-lint: allow(wall-clock) — report-only: feeds the run
    // summary's elapsed field and never influences a trace.
    Instant::now()
}

/// One scenario run, held open: the **session** phase.
///
/// A session owns the engine, the recorder that folds every pause, the
/// controller, and the observability sinks, and exposes the run as
/// externally driven steps. Between steps the caller may snapshot
/// ([`Self::checkpoint`]), fully preempt ([`Self::park`], which drops
/// the engine) and later [`Self::resume`] — on the same thread or
/// another, since the session is `Send`.
///
/// Stepping never pauses off the `check_interval` grid except at the
/// single optional breakpoint, so however the session is driven, its
/// digest, runlog, ζ(t) series, and PRR are byte-identical to
/// [`crate::ScenarioRunner::run`]'s.
pub struct RunSession<'a, 'p> {
    compiled: Arc<CompiledScenario>,
    harness: Box<dyn EngineHarness>,
    horizon: Tick,
    ci: Tick,
    recorder: RunRecorder<'a>,
    extra: &'a mut [&'p mut dyn Probe],
    controller: Option<AdaptiveContention>,
    controller_sig: u64,
    trace_spans: Option<&'a mut Vec<SpanEvent>>,
    flight_dump: Option<&'a mut (dyn io::Write + Send)>,
    wall_start: Instant,
    completed_at: Option<Tick>,
    checkpointed: Option<Tick>,
    breakpoint: Option<Tick>,
    /// Engine-side flight-recorder tail captured at [`Self::park`], so
    /// a failed [`Self::resume`] can still dump it.
    parked_events: Vec<EventRecord>,
    /// Tick at which the session was parked (the restore marker's tick).
    parked_at: Tick,
    /// Queue high-water mark carried across a park/resume cycle — it is
    /// runtime telemetry, not codec state (format v4 is frozen), so the
    /// session re-applies it after restore.
    prior_high_water: u64,
}

impl fmt::Debug for RunSession<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunSession")
            .field("scenario", &self.compiled.spec.name)
            .field("horizon", &self.horizon)
            .field("parked", &self.harness.is_parked())
            .field("breakpoint", &self.breakpoint)
            .finish()
    }
}

impl<'a, 'p> RunSession<'a, 'p> {
    /// Opens a session over a compiled scenario: builds the engine on
    /// the resolved backend, arms the recorder and `extra`, and fires
    /// the start pause. `opts.resume_at` becomes the initial
    /// breakpoint; `opts.backend` overrides the spec's (that is how a
    /// cached compilation — keyed without the backend — runs under the
    /// submitted spec's backend).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidSplit`] unless `opts.resume_at`
    /// is `None` or inside `(0, horizon)`, and an error if the engine
    /// rejects the compiled configuration.
    pub fn new(
        compiled: Arc<CompiledScenario>,
        opts: RunOptions<'a>,
        extra: &'a mut [&'p mut dyn Probe],
    ) -> Result<RunSession<'a, 'p>, ScenarioError> {
        let spec = compiled.spec();
        if let Some(split) = opts.resume_at {
            if split == 0 || split >= spec.horizon {
                return Err(ScenarioError::InvalidSplit {
                    split,
                    horizon: spec.horizon,
                });
            }
        }
        let backend = opts.backend.unwrap_or(spec.backend);
        let config = spec.engine_config();

        // The controller, when the spec declares one, is part of the
        // trace-defining configuration: its identity is folded into
        // every checkpoint, and restore refuses a mismatch.
        let controller = spec.adaptive.map(|a| {
            AdaptiveContention::new(
                a.interval,
                a.max_nodes,
                a.base_p,
                a.zeta_ref,
                a.floor,
                a.cap,
            )
        });
        let controller_sig = controller.as_ref().map_or(0, Controller::signature);

        let mut harness = build_harness(&compiled, backend, config)?;
        harness.enable_event_log(FLIGHT_KEEP_EVENTS);
        harness.set_controller_signature(controller_sig);

        let recorder = RunRecorder::new(spec, controller_sig, opts.runlog);
        if opts.trace_spans.is_some() {
            harness.arm_spans();
        }

        let mut session = RunSession {
            horizon: spec.horizon,
            ci: spec.check_interval,
            compiled,
            harness,
            recorder,
            extra,
            controller,
            controller_sig,
            trace_spans: opts.trace_spans,
            flight_dump: opts.flight_dump,
            wall_start: wall_clock_start(),
            completed_at: None,
            checkpointed: None,
            breakpoint: opts.resume_at,
            parked_events: Vec::new(),
            parked_at: 0,
            prior_high_water: 0,
        };
        session.pause_all(RunPhase::Start, true);
        Ok(session)
    }

    /// Runs one pause over the [`PauseCtx`] assembled once by
    /// [`decay_engine::probe::with_pause`]: the recorder folds it, the
    /// extras observe it, the controller decides (`steer: false`
    /// suppresses decisions — off-grid breakpoint pauses, the final
    /// drain), and the recorder writes the runlog line last, with the
    /// directives in hand.
    fn pause_all(&mut self, phase: RunPhase, steer: bool) {
        fn dispatch(p: &mut dyn Probe, phase: RunPhase, ctx: &PauseCtx<'_>) {
            match phase {
                RunPhase::Start => p.on_start(ctx),
                RunPhase::Pause => p.on_pause(ctx),
                RunPhase::Finish => p.on_finish(ctx),
            }
        }
        let RunSession {
            harness,
            horizon,
            recorder,
            extra,
            controller,
            ..
        } = self;
        harness.pause(*horizon, &mut |ctx| {
            recorder.observe(phase, ctx);
            for p in extra.iter_mut() {
                dispatch(&mut **p, phase, ctx);
            }
            let directives = match controller.as_mut() {
                Some(c) if steer && phase != RunPhase::Finish => c.decide(ctx),
                _ => Vec::new(),
            };
            recorder.narrate(phase, ctx, &directives);
            directives
        });
    }

    /// The engine's current tick.
    ///
    /// # Panics
    ///
    /// Panics if the session is parked.
    pub fn now(&self) -> Tick {
        self.harness.now()
    }

    /// Whether the session is parked (engine dropped, awaiting
    /// [`Self::resume`]).
    pub fn is_parked(&self) -> bool {
        self.harness.is_parked()
    }

    /// Requests one extra pause at `tick` (cleared once hit, or skipped
    /// if already past). An off-grid breakpoint pause is invisible to
    /// sampling probes, controller decisions, and the completion check,
    /// so it cannot perturb the run.
    pub fn set_breakpoint(&mut self, tick: Tick) {
        self.breakpoint = Some(tick);
    }

    /// Advances the engine to the next pause — the next
    /// `check_interval` grid tick, or the breakpoint if one lands
    /// sooner — runs the full recorder/probe/controller pause there, and
    /// reports what it arrived at.
    ///
    /// # Panics
    ///
    /// Panics if the session is parked.
    pub fn step_to_next_pause(&mut self) -> SessionStep {
        assert!(!self.harness.is_parked(), "{PARKED}");
        let now = self.harness.now();
        if now >= self.horizon {
            return SessionStep::Finished;
        }
        let grid_next = ((now / self.ci + 1) * self.ci).min(self.horizon);
        if let Some(split) = self.breakpoint {
            if split > now && split <= grid_next {
                self.harness.run_until(split);
                // An off-grid breakpoint pause is invisible: the
                // recorder samples only on the grid, and
                // completion/decisions are only evaluated on the grid —
                // so a stepped run observes, steers, and stops
                // identically to an uninterrupted one.
                let on_grid = split == grid_next;
                self.pause_all(RunPhase::Pause, on_grid);
                if on_grid && self.harness.done() {
                    self.completed_at = Some(self.harness.now());
                    return SessionStep::Finished;
                }
                self.breakpoint = None;
                if split >= self.horizon {
                    return SessionStep::Finished;
                }
                return SessionStep::Breakpoint;
            }
            if split <= now {
                self.breakpoint = None;
            }
        }
        self.harness.run_until(grid_next);
        self.pause_all(RunPhase::Pause, true);
        if self.harness.done() {
            self.completed_at = Some(self.harness.now());
            return SessionStep::Finished;
        }
        // The horizon ends the run even when the goal was not reached
        // (`completed_at` stays `None`); a park there would write a
        // resume marker that `RunLog::parse` rejects.
        if grid_next >= self.horizon {
            return SessionStep::Finished;
        }
        SessionStep::Paused
    }

    /// Serializes the engine to checkpoint bytes without disturbing the
    /// run (decisions at the current pause precede the snapshot, so the
    /// bytes carry any re-tuned behaviors).
    ///
    /// # Panics
    ///
    /// Panics if the session is parked.
    pub fn checkpoint(&mut self) -> Vec<u8> {
        assert!(!self.harness.is_parked(), "{PARKED}");
        self.harness.checkpoint_bytes()
    }

    /// Fully preempts the session: snapshots the engine to bytes,
    /// harvests its span timeline and flight-recorder tail, and drops
    /// it. The session stays alive (it is `Send`, so it can move to
    /// another thread) but every engine-touching method panics until
    /// [`Self::resume`] succeeds with these — or byte-equal — bytes.
    ///
    /// # Panics
    ///
    /// Panics if the session is already parked.
    pub fn park(&mut self) -> Vec<u8> {
        assert!(!self.harness.is_parked(), "{PARKED}");
        self.prior_high_water = self.harness.stats().queue_high_water;
        self.parked_at = self.harness.now();
        let bytes = self.harness.checkpoint_bytes();
        // The restore will replace the engine, so harvest the pre-park
        // span timeline first — the recorder's buffer lives in the
        // engine's telemetry sinks.
        if let Some(spans) = self.trace_spans.as_deref_mut() {
            spans.extend(self.harness.take_spans());
        }
        self.parked_events = self.harness.recent_events();
        self.harness.park();
        bytes
    }

    /// Restores a parked session onto a freshly rebuilt backend and
    /// re-applies everything the checkpoint codec deliberately
    /// excludes: the flight-recorder ring, the carried queue high-water
    /// mark, span arming, and the recorder's counter baseline (plus the
    /// runlog's `resume` record).
    ///
    /// # Errors
    ///
    /// Returns an error if the bytes fail to decode or the engine
    /// refuses the restore (controller or channel mismatch). The
    /// flight-recorder dump captured at [`Self::park`] is written to
    /// the `flight_dump` sink (and stderr) first, and the session stays
    /// parked.
    ///
    /// # Panics
    ///
    /// Panics if the session is not parked.
    pub fn resume(&mut self, bytes: &[u8]) -> Result<(), ScenarioError> {
        assert!(
            self.harness.is_parked(),
            "RunSession::resume on a live session; call park() first"
        );
        if let Err(err) = self.harness.restore(bytes, self.controller_sig) {
            let dump = dump_flight(self.recorder.flight_tail(), &self.parked_events);
            if let Some(w) = self.flight_dump.as_deref_mut() {
                // Best-effort: the resume already failed, and the
                // caller gets the underlying error either way.
                let _ = w.write_all(dump.as_bytes());
                let _ = w.flush();
            }
            eprintln!(
                "scenario {}: checkpoint cycle failed at the split; \
                 flight recorder follows\n{dump}",
                self.compiled.spec.name,
            );
            return Err(err);
        }
        self.parked_events = Vec::new();
        self.harness.enable_event_log(FLIGHT_KEEP_EVENTS);
        self.harness.note_queue_high_water(self.prior_high_water);
        if self.trace_spans.is_some() {
            self.harness.arm_spans();
        }
        self.recorder.note_restore(self.parked_at);
        for p in self.extra.iter_mut() {
            p.on_restore();
        }
        self.checkpointed = Some(self.parked_at);
        Ok(())
    }

    /// Closes the session: fires the finish pause, harvests the span
    /// timeline, writes the flight-recorder dump, and assembles the
    /// [`ScenarioReport`].
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::RunLog`] when an attached runlog or
    /// flight-dump writer failed.
    ///
    /// # Panics
    ///
    /// Panics if the session is parked.
    pub fn finish(mut self) -> Result<ScenarioReport, ScenarioError> {
        assert!(!self.harness.is_parked(), "{PARKED}");
        self.pause_all(RunPhase::Finish, false);
        if let Some(spans) = self.trace_spans.as_deref_mut() {
            spans.extend(self.harness.take_spans());
        }
        if let Some(w) = self.flight_dump.as_deref_mut() {
            let dump = dump_flight(self.recorder.flight_tail(), &self.harness.recent_events());
            if let Err(e) = w.write_all(dump.as_bytes()).and_then(|()| w.flush()) {
                return Err(ScenarioError::RunLog(format!("flight dump: {e}")));
            }
        }
        let nodes = self.recorder.nodes();
        let (digest, metrics) = self.recorder.finish(
            self.compiled.spec.name.clone(),
            self.harness.prr(),
            self.completed_at,
            self.wall_start.elapsed(),
        )?;
        Ok(ScenarioReport {
            digest,
            metrics,
            nodes,
            checkpointed: self.checkpointed,
        })
    }

    /// Steps the session to the end and finishes it. At the breakpoint
    /// (the requested `resume_at` split) it runs one full park/resume
    /// cycle through checkpoint bytes.
    ///
    /// # Errors
    ///
    /// Everything [`Self::resume`] and [`Self::finish`] can return.
    pub fn run_to_end(mut self) -> Result<ScenarioReport, ScenarioError> {
        loop {
            match self.step_to_next_pause() {
                SessionStep::Paused => {}
                SessionStep::Breakpoint => {
                    let bytes = self.park();
                    self.resume(&bytes)?;
                }
                SessionStep::Finished => return self.finish(),
            }
        }
    }
}

/// Compile-time `Send` audit of the session stack. A session crossing
/// threads is the point of the park/resume lifecycle; if any layer
/// regresses (an `Rc` creeping back into the engine, a non-`Send`
/// probe), this stops compiling.
#[allow(dead_code)]
fn _assert_session_stack_is_send() {
    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledScenario>();
    assert_send_sync::<ScenarioCache>();
    assert_send::<RunSession<'static, 'static>>();
    assert_send::<Box<dyn EngineHarness>>();
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::spec::{SinrSpec, TopologySpec};
    use decay_engine::{JamSchedule, LatencyModel};
    use decay_netsim::ReceptionModel;

    fn announce_spec(name: &str, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            seed,
            horizon: 32,
            check_interval: 8,
            topology: TopologySpec::Line {
                n: 8,
                spacing: 1.0,
                alpha: 2.0,
            },
            backend: BackendSpec::Lazy,
            sinr: SinrSpec {
                beta: 1.0,
                noise: 0.0,
            },
            reception: ReceptionModel::Threshold,
            protocol: ProtocolSpec::Announce {
                probability: 0.2,
                power: 1.0,
            },
            churn: None,
            faults: vec![],
            jamming: JamSchedule::None,
            latency: LatencyModel::Immediate,
            reach_decay: None,
            top_k: None,
            channel: None,
            prr_window: None,
            adaptive: None,
        }
    }

    #[test]
    fn compile_resolves_points_and_signature() {
        let spec = announce_spec("compiled", 7);
        let sig = spec_signature(&spec);
        let compiled = CompiledScenario::compile(spec.clone()).expect("compiles");
        assert_eq!(compiled.signature(), sig);
        assert_eq!(compiled.points().len(), spec.node_count());
        assert_eq!(compiled.spec().name, "compiled");
    }

    #[test]
    fn cache_hit_returns_shared_compilation() {
        let cache = ScenarioCache::new(4);
        let spec = announce_spec("cached", 7);
        let first = cache.compile(spec.clone()).expect("compiles");
        assert_eq!(cache.compile_hits(), 0);
        let second = cache.compile(spec).expect("compiles");
        assert_eq!(cache.compile_hits(), 1);
        assert!(Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(first.points(), second.points()));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_key_excludes_execution_knobs() {
        let cache = ScenarioCache::new(4);
        let spec = announce_spec("knobs", 7);
        let mut re_knobbed = spec.clone();
        re_knobbed.backend = BackendSpec::Dense;
        let first = cache.compile(spec).expect("compiles");
        let second = cache.compile(re_knobbed).expect("compiles");
        assert_eq!(cache.compile_hits(), 1);
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let cache = ScenarioCache::new(2);
        let a = announce_spec("a", 1);
        let b = announce_spec("b", 2);
        let c = announce_spec("c", 3);
        cache.compile(a.clone()).expect("compiles");
        cache.compile(b).expect("compiles");
        // Touch `a`, then insert `c`: `b` is now the LRU and must go.
        cache.compile(a.clone()).expect("hit");
        assert_eq!(cache.compile_hits(), 1);
        cache.compile(c).expect("compiles");
        assert_eq!(cache.len(), 2);
        // `a` is still cached (hit), `b` was evicted (miss keeps hits
        // unchanged at 2 after this `a` hit).
        cache.compile(a).expect("hit");
        assert_eq!(cache.compile_hits(), 2);
    }
}
