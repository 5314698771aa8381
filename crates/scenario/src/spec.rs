//! The declarative scenario specification.
//!
//! A [`ScenarioSpec`] is a complete, human-readable description of one
//! simulation run: which topology and decay backend, which protocol with
//! which parameters, which dynamics (churn, faults, jamming, latency),
//! the SINR physics, the seed, and the horizon. Specs live in JSON files
//! (see `scenarios/` at the repository root) and are the unit of
//! reproducibility: the same spec always produces the same event trace,
//! on every backend, across checkpoint/resume cycles — enforced by the
//! golden-trace suite.
//!
//! The JSON codec here is hand-rolled over [`decay_core::json`].

use std::fmt;
use std::path::Path;

use decay_channel::GainTrace;
use decay_core::NodeId;
use decay_distributed::ContentionStrategy;
use decay_engine::{ChurnConfig, EngineConfig, JamSchedule, LatencyModel, Tick};
use decay_netsim::{FaultPlan, ReceptionModel};
use decay_sinr::SinrParams;

use crate::json::{self, int, num, obj, s, JsonError, JsonValue};

/// A named node layout. Every topology is a point deployment with
/// geometric decay `f(u, v) = dist(u, v)^alpha`; the names map onto the
/// constructors in `decay-spaces` ([`decay_spaces::line_points`],
/// [`decay_spaces::grid_points`], [`decay_spaces::ring_points`],
/// [`decay_spaces::random_points`], [`decay_spaces::clustered_points`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySpec {
    /// `n` evenly spaced nodes on a line.
    Line {
        /// Node count.
        n: usize,
        /// Distance between adjacent nodes.
        spacing: f64,
        /// Path-loss exponent.
        alpha: f64,
    },
    /// A `side × side` grid.
    Grid {
        /// Nodes per side (total `side²`).
        side: usize,
        /// Distance between adjacent nodes.
        spacing: f64,
        /// Path-loss exponent.
        alpha: f64,
    },
    /// `n` nodes evenly spaced on a circle.
    Ring {
        /// Node count.
        n: usize,
        /// Circle radius.
        radius: f64,
        /// Path-loss exponent.
        alpha: f64,
    },
    /// `n` nodes uniformly random in a square box.
    Random {
        /// Node count.
        n: usize,
        /// Box side length.
        size: f64,
        /// Path-loss exponent.
        alpha: f64,
        /// Placement seed (independent of the run seed, so the same
        /// deployment can be re-run under different traffic seeds).
        seed: u64,
    },
    /// Hotspot clusters in a square box.
    Clustered {
        /// Number of cluster centers.
        clusters: usize,
        /// Nodes per cluster.
        per_cluster: usize,
        /// Box side length.
        size: f64,
        /// Path-loss exponent.
        alpha: f64,
        /// Placement seed.
        seed: u64,
    },
}

/// Which [`decay_engine::DecayBackend`] realizes the topology's decay
/// space. Both are required to produce bit-identical traces for the
/// same spec — the cross-backend conformance suite enforces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSpec {
    /// Materialized `n × n` matrix ([`decay_engine::DenseBackend`]).
    Dense,
    /// Compute on demand, store nothing ([`decay_engine::LazyBackend`]),
    /// with a structured neighbor hint where the topology admits one.
    Lazy,
}

/// SINR physics: capture threshold and ambient noise (see
/// [`decay_sinr::SinrParams`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinrSpec {
    /// Capture threshold `β`.
    pub beta: f64,
    /// Ambient noise power `N`.
    pub noise: f64,
}

/// One scheduled outage (see [`decay_netsim::Outage`]); `until: None`
/// means a permanent crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The affected node index.
    pub node: usize,
    /// First tick of the outage.
    pub from: Tick,
    /// First tick after the outage; `None` for a permanent crash.
    pub until: Option<Tick>,
}

/// One directed link for the contention protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// The sending node index.
    pub from: usize,
    /// The receiving node index.
    pub to: usize,
}

/// The workload: which protocol the nodes run.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolSpec {
    /// Event-driven local broadcast
    /// ([`decay_distributed::run_local_broadcast_event`]): every node
    /// owns one message and transmits with a geometric gap until its
    /// whole decay-neighborhood has heard it. The run completes when
    /// every required (sender, neighbor) pair has been delivered.
    Broadcast {
        /// Neighborhood radius in decay: `z` must hear `u` whenever
        /// `f(u, z) ≤ neighborhood_decay`.
        neighborhood_decay: f64,
        /// Per-tick transmit probability; `None` selects `0.5 / Δ`.
        probability: Option<f64>,
        /// Uniform transmission power.
        power: f64,
    },
    /// Event-driven contention resolution
    /// ([`decay_distributed::run_contention_event`]): each link's sender
    /// delivers one packet to its dedicated receiver. Completes when all
    /// viable links have delivered. With an empty `links` list,
    /// consecutive node pairs `(0→1), (2→3), …` are used.
    Contention {
        /// The links; endpoints must be disjoint across links.
        links: Vec<LinkSpec>,
        /// Sender strategy.
        strategy: ContentionStrategy,
    },
    /// Free-running announcements: every node transmits its id with a
    /// geometric gap for the whole horizon (the
    /// [`decay_distributed::EventBroadcaster`] behavior without a
    /// completion condition) — the steady-state traffic workload.
    Announce {
        /// Per-tick transmit probability.
        probability: f64,
        /// Uniform transmission power.
        power: f64,
    },
}

/// The mobility layer of a temporal channel (see
/// [`decay_channel::MobilityModel`]). Distances are in deployment units,
/// speeds in units per coherence block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilitySpec {
    /// Random waypoint: walk to a uniform target, pause, repeat.
    Waypoint {
        /// Distance covered per coherence block.
        speed: f64,
        /// Blocks to rest at each waypoint.
        pause: u64,
        /// Trajectory seed (independent of the run seed).
        seed: u64,
    },
    /// Lévy walk: heavy-tailed per-block hops reflecting off the
    /// deployment bounding box.
    Levy {
        /// Scale (minimum) step length per block.
        scale: f64,
        /// Pareto tail exponent.
        exponent: f64,
        /// Truncation cap on one block's step.
        cap: f64,
        /// Trajectory seed.
        seed: u64,
    },
    /// Reference-point group mobility over contiguous index groups.
    Group {
        /// Number of groups.
        groups: usize,
        /// Reference-point speed per block.
        speed: f64,
        /// Member jitter amplitude around the moving reference.
        spread: f64,
        /// Trajectory seed.
        seed: u64,
    },
}

/// Spatially correlated log-normal shadowing (see
/// [`decay_channel::ShadowingConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowingSpec {
    /// Per-link shadowing standard deviation in dB.
    pub sigma_db: f64,
    /// Gudmundson decorrelation distance.
    pub corr_dist: f64,
    /// AR(1) coefficient across coherence blocks, in `[0, 1)`.
    pub time_corr: f64,
    /// Field seed.
    pub seed: u64,
}

/// Block Rayleigh fading (see [`decay_channel::FadingConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FadingSpec {
    /// Draw seed.
    pub seed: u64,
}

/// Metricity monitoring: sample `ζ(t)`/`φ(t)` of the instantaneous gain
/// matrix into the metrics report (see
/// [`decay_channel::MetricityMonitor`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorSpec {
    /// Sampling interval in ticks; must be a multiple of the spec's
    /// `check_interval` (samples are taken on the runner's pause grid,
    /// which is what keeps them invisible to the engine).
    pub interval: Tick,
    /// Maximum nodes in the sampled submatrix, in `[3, 64]`.
    pub max_nodes: usize,
}

/// The temporal-channel block: coherence-block structure plus the
/// layers riding on the static backend. With a `trace` (inline) or a
/// `trace_path` (repo-relative file), the measured gain matrices
/// replace the generative layers entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSpec {
    /// Coherence block length in ticks.
    pub block: Tick,
    /// Mobility layer, if any.
    pub mobility: Option<MobilitySpec>,
    /// Shadowing layer, if any.
    pub shadowing: Option<ShadowingSpec>,
    /// Block Rayleigh fading layer, if any.
    pub fading: Option<FadingSpec>,
    /// An imported gain trace replayed verbatim (mutually exclusive
    /// with the generative layers and with `trace_path`).
    pub trace: Option<GainTrace>,
    /// A repository-relative path to a gain-trace JSON file, resolved
    /// and loaded when the runner is built — keeps large measured
    /// traces out of spec files. Mutually exclusive with `trace` and
    /// the generative layers; loading failures surface as validation
    /// errors naming the path.
    pub trace_path: Option<String>,
    /// Metricity monitoring, if any.
    pub monitor: Option<MonitorSpec>,
}

/// The ζ(t)-adaptive scheduling block: a
/// [`decay_channel::AdaptiveContention`] controller re-tuning every
/// node's transmit probability from a live metricity estimate, once per
/// `interval` ticks. Controller identity (kind + parameters) is folded
/// into checkpoint signatures, so resuming under a different adaptive
/// block is refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSpec {
    /// Decision interval in ticks; must be a multiple of the spec's
    /// `check_interval` (decisions fire on the runner's pause grid,
    /// which is what keeps them checkpoint/resume-invariant). Align it
    /// with the channel's coherence block to re-tune once per block.
    pub interval: Tick,
    /// Maximum nodes in the ζ-estimate submatrix, in `[3, 64]`.
    pub max_nodes: usize,
    /// The probability applied when the estimate equals `zeta_ref`.
    pub base_p: f64,
    /// The reference metricity (e.g. the deployment's path-loss α).
    pub zeta_ref: f64,
    /// Lower clamp on the re-tuned probability.
    pub floor: f64,
    /// Upper clamp on the re-tuned probability.
    pub cap: f64,
}

/// A complete declarative scenario. See the crate docs for the JSON
/// format and `scenarios/` for shipped examples.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name; also names the golden-trace digest file.
    pub name: String,
    /// Master RNG seed for the run (churn, fading, jitter, jamming, and
    /// per-node streams all derive from it).
    pub seed: u64,
    /// Run length in ticks.
    pub horizon: Tick,
    /// How often the runner pauses the engine to check completion and
    /// drain metrics (completion is detected at this granularity).
    pub check_interval: Tick,
    /// Node layout.
    pub topology: TopologySpec,
    /// Decay-space storage backend.
    pub backend: BackendSpec,
    /// SINR physics.
    pub sinr: SinrSpec,
    /// Reception model (deterministic threshold or Rayleigh fading).
    pub reception: ReceptionModel,
    /// The workload.
    pub protocol: ProtocolSpec,
    /// Node churn, if any.
    pub churn: Option<ChurnConfig>,
    /// Scheduled per-node outages.
    pub faults: Vec<FaultSpec>,
    /// Jamming schedule.
    pub jamming: JamSchedule,
    /// Delivery latency model.
    pub latency: LatencyModel,
    /// Decay beyond which signals are ignored (`None` = exact `O(n)`
    /// candidate scans).
    pub reach_decay: Option<f64>,
    /// Top-k affectance pruning (`None` = exact interference sums).
    pub top_k: Option<usize>,
    /// The temporal channel, if any (`None` = the classic frozen
    /// snapshot).
    pub channel: Option<ChannelSpec>,
    /// Windowed-PRR reporting: emit one per-window reception-ratio
    /// sample every this many ticks into the metrics report (`None` =
    /// lifetime PRR only). Must be a multiple of `check_interval`.
    pub prr_window: Option<Tick>,
    /// ζ(t)-adaptive scheduling, if any (`None` = the spec's fixed
    /// probabilities for the whole run).
    pub adaptive: Option<AdaptiveSpec>,
}

/// A spec that failed validation or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Dotted path of the offending field (e.g. `"topology.spacing"`).
    pub path: String,
    /// What was wrong.
    pub message: String,
}

impl SpecError {
    fn new(path: impl Into<String>, message: impl Into<String>) -> Self {
        SpecError {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid scenario spec at {}: {}",
            self.path, self.message
        )
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(err: JsonError) -> Self {
        SpecError::new("<json>", err.to_string())
    }
}

// ---------------------------------------------------------------------
// Decoding helpers
// ---------------------------------------------------------------------

fn field<'a>(v: &'a JsonValue, path: &str, key: &str) -> Result<&'a JsonValue, SpecError> {
    v.get(key)
        .ok_or_else(|| SpecError::new(join(path, key), "missing field"))
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn get_u64(v: &JsonValue, path: &str, key: &str) -> Result<u64, SpecError> {
    field(v, path, key)?
        .as_u64()
        .ok_or_else(|| SpecError::new(join(path, key), "expected a non-negative integer"))
}

fn get_usize(v: &JsonValue, path: &str, key: &str) -> Result<usize, SpecError> {
    usize::try_from(get_u64(v, path, key)?)
        .map_err(|_| SpecError::new(join(path, key), "integer out of range"))
}

fn get_f64(v: &JsonValue, path: &str, key: &str) -> Result<f64, SpecError> {
    field(v, path, key)?
        .as_f64()
        .ok_or_else(|| SpecError::new(join(path, key), "expected a number"))
}

fn get_str<'a>(v: &'a JsonValue, path: &str, key: &str) -> Result<&'a str, SpecError> {
    field(v, path, key)?
        .as_str()
        .ok_or_else(|| SpecError::new(join(path, key), "expected a string"))
}

fn get_kind<'a>(v: &'a JsonValue, path: &str) -> Result<&'a str, SpecError> {
    get_str(v, path, "kind")
}

/// Rejects object keys outside the allowed set, so typos in spec files
/// fail loudly instead of silently falling back to defaults.
fn reject_unknown(v: &JsonValue, path: &str, allowed: &[&str]) -> Result<(), SpecError> {
    if let Some(entries) = v.entries() {
        for (key, _) in entries {
            if !allowed.contains(&key.as_str()) {
                return Err(SpecError::new(join(path, key), "unknown field"));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Per-type JSON codecs
// ---------------------------------------------------------------------

impl TopologySpec {
    fn to_json(self) -> JsonValue {
        match self {
            TopologySpec::Line { n, spacing, alpha } => obj(vec![
                ("kind", s("line")),
                ("n", int(n as u64)),
                ("spacing", num(spacing)),
                ("alpha", num(alpha)),
            ]),
            TopologySpec::Grid {
                side,
                spacing,
                alpha,
            } => obj(vec![
                ("kind", s("grid")),
                ("side", int(side as u64)),
                ("spacing", num(spacing)),
                ("alpha", num(alpha)),
            ]),
            TopologySpec::Ring { n, radius, alpha } => obj(vec![
                ("kind", s("ring")),
                ("n", int(n as u64)),
                ("radius", num(radius)),
                ("alpha", num(alpha)),
            ]),
            TopologySpec::Random {
                n,
                size,
                alpha,
                seed,
            } => obj(vec![
                ("kind", s("random")),
                ("n", int(n as u64)),
                ("size", num(size)),
                ("alpha", num(alpha)),
                ("seed", int(seed)),
            ]),
            TopologySpec::Clustered {
                clusters,
                per_cluster,
                size,
                alpha,
                seed,
            } => obj(vec![
                ("kind", s("clustered")),
                ("clusters", int(clusters as u64)),
                ("per_cluster", int(per_cluster as u64)),
                ("size", num(size)),
                ("alpha", num(alpha)),
                ("seed", int(seed)),
            ]),
        }
    }

    fn from_json(v: &JsonValue, path: &str) -> Result<Self, SpecError> {
        match get_kind(v, path)? {
            "line" => {
                reject_unknown(v, path, &["kind", "n", "spacing", "alpha"])?;
                Ok(TopologySpec::Line {
                    n: get_usize(v, path, "n")?,
                    spacing: get_f64(v, path, "spacing")?,
                    alpha: get_f64(v, path, "alpha")?,
                })
            }
            "grid" => {
                reject_unknown(v, path, &["kind", "side", "spacing", "alpha"])?;
                Ok(TopologySpec::Grid {
                    side: get_usize(v, path, "side")?,
                    spacing: get_f64(v, path, "spacing")?,
                    alpha: get_f64(v, path, "alpha")?,
                })
            }
            "ring" => {
                reject_unknown(v, path, &["kind", "n", "radius", "alpha"])?;
                Ok(TopologySpec::Ring {
                    n: get_usize(v, path, "n")?,
                    radius: get_f64(v, path, "radius")?,
                    alpha: get_f64(v, path, "alpha")?,
                })
            }
            "random" => {
                reject_unknown(v, path, &["kind", "n", "size", "alpha", "seed"])?;
                Ok(TopologySpec::Random {
                    n: get_usize(v, path, "n")?,
                    size: get_f64(v, path, "size")?,
                    alpha: get_f64(v, path, "alpha")?,
                    seed: get_u64(v, path, "seed")?,
                })
            }
            "clustered" => {
                reject_unknown(
                    v,
                    path,
                    &["kind", "clusters", "per_cluster", "size", "alpha", "seed"],
                )?;
                Ok(TopologySpec::Clustered {
                    clusters: get_usize(v, path, "clusters")?,
                    per_cluster: get_usize(v, path, "per_cluster")?,
                    size: get_f64(v, path, "size")?,
                    alpha: get_f64(v, path, "alpha")?,
                    seed: get_u64(v, path, "seed")?,
                })
            }
            other => Err(SpecError::new(
                join(path, "kind"),
                format!("unknown topology \"{other}\" (line|grid|ring|random|clustered)"),
            )),
        }
    }
}

impl BackendSpec {
    fn to_json(self) -> JsonValue {
        match self {
            BackendSpec::Dense => obj(vec![("kind", s("dense"))]),
            BackendSpec::Lazy => obj(vec![("kind", s("lazy"))]),
        }
    }

    fn from_json(v: &JsonValue, path: &str) -> Result<Self, SpecError> {
        match get_kind(v, path)? {
            "dense" => {
                reject_unknown(v, path, &["kind"])?;
                Ok(BackendSpec::Dense)
            }
            "lazy" => {
                reject_unknown(v, path, &["kind"])?;
                Ok(BackendSpec::Lazy)
            }
            other => Err(SpecError::new(
                join(path, "kind"),
                format!("unknown backend \"{other}\" (dense|lazy)"),
            )),
        }
    }
}

fn strategy_to_json(strategy: &ContentionStrategy) -> JsonValue {
    match *strategy {
        ContentionStrategy::Fixed { p } => obj(vec![("kind", s("fixed")), ("p", num(p))]),
        ContentionStrategy::Backoff {
            start,
            down,
            up,
            floor,
        } => obj(vec![
            ("kind", s("backoff")),
            ("start", num(start)),
            ("down", num(down)),
            ("up", num(up)),
            ("floor", num(floor)),
        ]),
    }
}

fn strategy_from_json(v: &JsonValue, path: &str) -> Result<ContentionStrategy, SpecError> {
    match get_kind(v, path)? {
        "fixed" => {
            reject_unknown(v, path, &["kind", "p"])?;
            Ok(ContentionStrategy::Fixed {
                p: get_f64(v, path, "p")?,
            })
        }
        "backoff" => {
            reject_unknown(v, path, &["kind", "start", "down", "up", "floor"])?;
            Ok(ContentionStrategy::Backoff {
                start: get_f64(v, path, "start")?,
                down: get_f64(v, path, "down")?,
                up: get_f64(v, path, "up")?,
                floor: get_f64(v, path, "floor")?,
            })
        }
        other => Err(SpecError::new(
            join(path, "kind"),
            format!("unknown strategy \"{other}\" (fixed|backoff)"),
        )),
    }
}

impl ProtocolSpec {
    fn to_json(&self) -> JsonValue {
        match self {
            ProtocolSpec::Broadcast {
                neighborhood_decay,
                probability,
                power,
            } => {
                let mut pairs = vec![
                    ("kind", s("broadcast")),
                    ("neighborhood_decay", num(*neighborhood_decay)),
                ];
                if let Some(p) = probability {
                    pairs.push(("probability", num(*p)));
                }
                pairs.push(("power", num(*power)));
                obj(pairs)
            }
            ProtocolSpec::Contention { links, strategy } => obj(vec![
                ("kind", s("contention")),
                (
                    "links",
                    JsonValue::Array(
                        links
                            .iter()
                            .map(|l| {
                                obj(vec![("from", int(l.from as u64)), ("to", int(l.to as u64))])
                            })
                            .collect(),
                    ),
                ),
                ("strategy", strategy_to_json(strategy)),
            ]),
            ProtocolSpec::Announce { probability, power } => obj(vec![
                ("kind", s("announce")),
                ("probability", num(*probability)),
                ("power", num(*power)),
            ]),
        }
    }

    fn from_json(v: &JsonValue, path: &str) -> Result<Self, SpecError> {
        match get_kind(v, path)? {
            "broadcast" => {
                reject_unknown(
                    v,
                    path,
                    &["kind", "neighborhood_decay", "probability", "power"],
                )?;
                Ok(ProtocolSpec::Broadcast {
                    neighborhood_decay: get_f64(v, path, "neighborhood_decay")?,
                    probability: match v.get("probability") {
                        None | Some(JsonValue::Null) => None,
                        Some(p) => Some(p.as_f64().ok_or_else(|| {
                            SpecError::new(join(path, "probability"), "expected a number")
                        })?),
                    },
                    power: get_f64(v, path, "power")?,
                })
            }
            "contention" => {
                reject_unknown(v, path, &["kind", "links", "strategy"])?;
                let links = field(v, path, "links")?
                    .as_array()
                    .ok_or_else(|| SpecError::new(join(path, "links"), "expected an array"))?
                    .iter()
                    .enumerate()
                    .map(|(i, l)| {
                        let lp = format!("{}.links[{i}]", path);
                        reject_unknown(l, &lp, &["from", "to"])?;
                        Ok(LinkSpec {
                            from: get_usize(l, &lp, "from")?,
                            to: get_usize(l, &lp, "to")?,
                        })
                    })
                    .collect::<Result<Vec<_>, SpecError>>()?;
                Ok(ProtocolSpec::Contention {
                    links,
                    strategy: strategy_from_json(
                        field(v, path, "strategy")?,
                        &join(path, "strategy"),
                    )?,
                })
            }
            "announce" => {
                reject_unknown(v, path, &["kind", "probability", "power"])?;
                Ok(ProtocolSpec::Announce {
                    probability: get_f64(v, path, "probability")?,
                    power: get_f64(v, path, "power")?,
                })
            }
            other => Err(SpecError::new(
                join(path, "kind"),
                format!("unknown protocol \"{other}\" (broadcast|contention|announce)"),
            )),
        }
    }
}

fn jamming_to_json(jamming: JamSchedule) -> JsonValue {
    match jamming {
        JamSchedule::None => obj(vec![("kind", s("none"))]),
        JamSchedule::Periodic { period } => {
            obj(vec![("kind", s("periodic")), ("period", int(period))])
        }
        JamSchedule::Random { prob } => obj(vec![("kind", s("random")), ("prob", num(prob))]),
    }
}

fn jamming_from_json(v: &JsonValue, path: &str) -> Result<JamSchedule, SpecError> {
    match get_kind(v, path)? {
        "none" => {
            reject_unknown(v, path, &["kind"])?;
            Ok(JamSchedule::None)
        }
        "periodic" => {
            reject_unknown(v, path, &["kind", "period"])?;
            Ok(JamSchedule::Periodic {
                period: get_u64(v, path, "period")?,
            })
        }
        "random" => {
            reject_unknown(v, path, &["kind", "prob"])?;
            Ok(JamSchedule::Random {
                prob: get_f64(v, path, "prob")?,
            })
        }
        other => Err(SpecError::new(
            join(path, "kind"),
            format!("unknown jamming \"{other}\" (none|periodic|random)"),
        )),
    }
}

fn latency_to_json(latency: LatencyModel) -> JsonValue {
    match latency {
        LatencyModel::Immediate => obj(vec![("kind", s("immediate"))]),
        LatencyModel::Fixed { ticks } => obj(vec![("kind", s("fixed")), ("ticks", int(ticks))]),
        LatencyModel::Jittered { base, jitter } => obj(vec![
            ("kind", s("jittered")),
            ("base", int(base)),
            ("jitter", int(jitter)),
        ]),
    }
}

fn latency_from_json(v: &JsonValue, path: &str) -> Result<LatencyModel, SpecError> {
    match get_kind(v, path)? {
        "immediate" => {
            reject_unknown(v, path, &["kind"])?;
            Ok(LatencyModel::Immediate)
        }
        "fixed" => {
            reject_unknown(v, path, &["kind", "ticks"])?;
            Ok(LatencyModel::Fixed {
                ticks: get_u64(v, path, "ticks")?,
            })
        }
        "jittered" => {
            reject_unknown(v, path, &["kind", "base", "jitter"])?;
            Ok(LatencyModel::Jittered {
                base: get_u64(v, path, "base")?,
                jitter: get_u64(v, path, "jitter")?,
            })
        }
        other => Err(SpecError::new(
            join(path, "kind"),
            format!("unknown latency \"{other}\" (immediate|fixed|jittered)"),
        )),
    }
}

impl MobilitySpec {
    fn to_json(self) -> JsonValue {
        match self {
            MobilitySpec::Waypoint { speed, pause, seed } => obj(vec![
                ("kind", s("waypoint")),
                ("speed", num(speed)),
                ("pause", int(pause)),
                ("seed", int(seed)),
            ]),
            MobilitySpec::Levy {
                scale,
                exponent,
                cap,
                seed,
            } => obj(vec![
                ("kind", s("levy")),
                ("scale", num(scale)),
                ("exponent", num(exponent)),
                ("cap", num(cap)),
                ("seed", int(seed)),
            ]),
            MobilitySpec::Group {
                groups,
                speed,
                spread,
                seed,
            } => obj(vec![
                ("kind", s("group")),
                ("groups", int(groups as u64)),
                ("speed", num(speed)),
                ("spread", num(spread)),
                ("seed", int(seed)),
            ]),
        }
    }

    fn from_json(v: &JsonValue, path: &str) -> Result<Self, SpecError> {
        match get_kind(v, path)? {
            "waypoint" => {
                reject_unknown(v, path, &["kind", "speed", "pause", "seed"])?;
                Ok(MobilitySpec::Waypoint {
                    speed: get_f64(v, path, "speed")?,
                    pause: get_u64(v, path, "pause")?,
                    seed: get_u64(v, path, "seed")?,
                })
            }
            "levy" => {
                reject_unknown(v, path, &["kind", "scale", "exponent", "cap", "seed"])?;
                Ok(MobilitySpec::Levy {
                    scale: get_f64(v, path, "scale")?,
                    exponent: get_f64(v, path, "exponent")?,
                    cap: get_f64(v, path, "cap")?,
                    seed: get_u64(v, path, "seed")?,
                })
            }
            "group" => {
                reject_unknown(v, path, &["kind", "groups", "speed", "spread", "seed"])?;
                Ok(MobilitySpec::Group {
                    groups: get_usize(v, path, "groups")?,
                    speed: get_f64(v, path, "speed")?,
                    spread: get_f64(v, path, "spread")?,
                    seed: get_u64(v, path, "seed")?,
                })
            }
            other => Err(SpecError::new(
                join(path, "kind"),
                format!("unknown mobility \"{other}\" (waypoint|levy|group)"),
            )),
        }
    }
}

impl ChannelSpec {
    fn to_json(&self) -> JsonValue {
        let mut pairs = vec![("block", int(self.block))];
        if let Some(m) = self.mobility {
            pairs.push(("mobility", m.to_json()));
        }
        if let Some(sh) = self.shadowing {
            pairs.push((
                "shadowing",
                obj(vec![
                    ("sigma_db", num(sh.sigma_db)),
                    ("corr_dist", num(sh.corr_dist)),
                    ("time_corr", num(sh.time_corr)),
                    ("seed", int(sh.seed)),
                ]),
            ));
        }
        if let Some(f) = self.fading {
            pairs.push((
                "fading",
                obj(vec![("kind", s("rayleigh")), ("seed", int(f.seed))]),
            ));
        }
        if let Some(trace) = &self.trace {
            pairs.push(("trace", trace.to_json()));
        }
        if let Some(path) = &self.trace_path {
            pairs.push(("trace_path", s(path)));
        }
        if let Some(m) = self.monitor {
            pairs.push((
                "monitor",
                obj(vec![
                    ("interval", int(m.interval)),
                    ("max_nodes", int(m.max_nodes as u64)),
                ]),
            ));
        }
        obj(pairs)
    }

    fn from_json(v: &JsonValue, path: &str) -> Result<Self, SpecError> {
        reject_unknown(
            v,
            path,
            &[
                "block",
                "mobility",
                "shadowing",
                "fading",
                "trace",
                "trace_path",
                "monitor",
            ],
        )?;
        Ok(ChannelSpec {
            block: get_u64(v, path, "block")?,
            mobility: match v.get("mobility") {
                None | Some(JsonValue::Null) => None,
                Some(m) => Some(MobilitySpec::from_json(m, &join(path, "mobility"))?),
            },
            shadowing: match v.get("shadowing") {
                None | Some(JsonValue::Null) => None,
                Some(sv) => {
                    let sp = join(path, "shadowing");
                    reject_unknown(sv, &sp, &["sigma_db", "corr_dist", "time_corr", "seed"])?;
                    Some(ShadowingSpec {
                        sigma_db: get_f64(sv, &sp, "sigma_db")?,
                        corr_dist: get_f64(sv, &sp, "corr_dist")?,
                        time_corr: get_f64(sv, &sp, "time_corr")?,
                        seed: get_u64(sv, &sp, "seed")?,
                    })
                }
            },
            fading: match v.get("fading") {
                None | Some(JsonValue::Null) => None,
                Some(fv) => {
                    let fp = join(path, "fading");
                    match get_kind(fv, &fp)? {
                        "rayleigh" => {
                            reject_unknown(fv, &fp, &["kind", "seed"])?;
                            Some(FadingSpec {
                                seed: get_u64(fv, &fp, "seed")?,
                            })
                        }
                        other => {
                            return Err(SpecError::new(
                                join(&fp, "kind"),
                                format!("unknown fading \"{other}\" (rayleigh)"),
                            ))
                        }
                    }
                }
            },
            trace: match v.get("trace") {
                None | Some(JsonValue::Null) => None,
                Some(tv) => Some(
                    GainTrace::from_json(tv)
                        .map_err(|e| SpecError::new(join(path, "trace"), e.to_string()))?,
                ),
            },
            trace_path: match v.get("trace_path") {
                None | Some(JsonValue::Null) => None,
                Some(_) => Some(get_str(v, path, "trace_path")?.to_string()),
            },
            monitor: match v.get("monitor") {
                None | Some(JsonValue::Null) => None,
                Some(mv) => {
                    let mp = join(path, "monitor");
                    reject_unknown(mv, &mp, &["interval", "max_nodes"])?;
                    Some(MonitorSpec {
                        interval: get_u64(mv, &mp, "interval")?,
                        max_nodes: get_usize(mv, &mp, "max_nodes")?,
                    })
                }
            },
        })
    }
}

impl AdaptiveSpec {
    fn to_json(self) -> JsonValue {
        obj(vec![
            ("interval", int(self.interval)),
            ("max_nodes", int(self.max_nodes as u64)),
            ("base_p", num(self.base_p)),
            ("zeta_ref", num(self.zeta_ref)),
            ("floor", num(self.floor)),
            ("cap", num(self.cap)),
        ])
    }

    fn from_json(v: &JsonValue, path: &str) -> Result<Self, SpecError> {
        reject_unknown(
            v,
            path,
            &[
                "interval",
                "max_nodes",
                "base_p",
                "zeta_ref",
                "floor",
                "cap",
            ],
        )?;
        Ok(AdaptiveSpec {
            interval: get_u64(v, path, "interval")?,
            max_nodes: get_usize(v, path, "max_nodes")?,
            base_p: get_f64(v, path, "base_p")?,
            zeta_ref: get_f64(v, path, "zeta_ref")?,
            floor: get_f64(v, path, "floor")?,
            cap: get_f64(v, path, "cap")?,
        })
    }
}

const SPEC_FIELDS: &[&str] = &[
    "name",
    "seed",
    "horizon",
    "check_interval",
    "topology",
    "backend",
    "sinr",
    "reception",
    "protocol",
    "churn",
    "faults",
    "jamming",
    "latency",
    "reach_decay",
    "top_k",
    "channel",
    "prr_window",
    "adaptive",
    "threads",
];

/// FNV tag domain-separating [`spec_signature`] from the other
/// [`signature_hash`](decay_engine::probe::signature_hash) users
/// (controller and channel signatures).
const SPEC_SIG_TAG: u64 = 0x5350_4543_5349_4731; // "SPECSIG1"

/// FNV-1a fingerprint of the spec's *trace-defining* configuration:
/// the canonical compact JSON with the `backend` key removed, because
/// the backend is an execution knob the determinism contract promises
/// cannot change the run. Two specs with equal signatures must produce
/// byte-identical runlogs — which is also what makes the signature the
/// [`ScenarioCache`](crate::ScenarioCache) key: a cached
/// [`CompiledScenario`](crate::CompiledScenario) is reusable across
/// every backend.
pub fn spec_signature(spec: &ScenarioSpec) -> u64 {
    let mut v = spec.to_json();
    if let JsonValue::Object(pairs) = &mut v {
        pairs.retain(|(k, _)| k != "backend");
    }
    decay_engine::probe::signature_hash(SPEC_SIG_TAG, v.compact().as_bytes())
}

impl ScenarioSpec {
    /// Serializes the spec to a [`JsonValue`] (field order is fixed, so
    /// output is byte-stable).
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("name", s(&self.name)),
            ("seed", int(self.seed)),
            ("horizon", int(self.horizon)),
            ("check_interval", int(self.check_interval)),
            ("topology", self.topology.to_json()),
            ("backend", self.backend.to_json()),
            (
                "sinr",
                obj(vec![
                    ("beta", num(self.sinr.beta)),
                    ("noise", num(self.sinr.noise)),
                ]),
            ),
            (
                "reception",
                s(match self.reception {
                    ReceptionModel::Threshold => "threshold",
                    ReceptionModel::Rayleigh => "rayleigh",
                }),
            ),
            ("protocol", self.protocol.to_json()),
        ];
        if let Some(churn) = self.churn {
            pairs.push((
                "churn",
                obj(vec![
                    ("interval", int(churn.interval)),
                    ("leave_prob", num(churn.leave_prob)),
                    ("join_prob", num(churn.join_prob)),
                ]),
            ));
        }
        if !self.faults.is_empty() {
            pairs.push((
                "faults",
                JsonValue::Array(
                    self.faults
                        .iter()
                        .map(|f| {
                            let mut fp = vec![("node", int(f.node as u64)), ("from", int(f.from))];
                            if let Some(until) = f.until {
                                fp.push(("until", int(until)));
                            }
                            obj(fp)
                        })
                        .collect(),
                ),
            ));
        }
        pairs.push(("jamming", jamming_to_json(self.jamming)));
        pairs.push(("latency", latency_to_json(self.latency)));
        if let Some(reach) = self.reach_decay {
            pairs.push(("reach_decay", num(reach)));
        }
        if let Some(k) = self.top_k {
            pairs.push(("top_k", int(k as u64)));
        }
        if let Some(channel) = &self.channel {
            pairs.push(("channel", channel.to_json()));
        }
        if let Some(w) = self.prr_window {
            pairs.push(("prr_window", int(w)));
        }
        if let Some(a) = self.adaptive {
            pairs.push(("adaptive", a.to_json()));
        }
        obj(pairs)
    }

    /// Renders the spec as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Decodes a spec from a parsed JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending field on missing,
    /// mistyped, unknown, or out-of-range fields.
    pub fn from_json(v: &JsonValue) -> Result<Self, SpecError> {
        reject_unknown(v, "", SPEC_FIELDS)?;
        // `threads` is a retired key: range-checked so existing specs
        // keep parsing (with unchanged signatures), then ignored.
        if !matches!(v.get("threads"), None | Some(JsonValue::Null)) {
            let threads = get_usize(v, "", "threads")?;
            if !(1..=256).contains(&threads) {
                return Err(SpecError::new("threads", "must be in [1, 256]"));
            }
        }
        let spec = ScenarioSpec {
            name: get_str(v, "", "name")?.to_string(),
            seed: get_u64(v, "", "seed")?,
            horizon: get_u64(v, "", "horizon")?,
            check_interval: match v.get("check_interval") {
                None => 64,
                Some(_) => get_u64(v, "", "check_interval")?,
            },
            topology: TopologySpec::from_json(field(v, "", "topology")?, "topology")?,
            backend: match v.get("backend") {
                None => BackendSpec::Lazy,
                Some(b) => BackendSpec::from_json(b, "backend")?,
            },
            sinr: {
                let sv = field(v, "", "sinr")?;
                reject_unknown(sv, "sinr", &["beta", "noise"])?;
                SinrSpec {
                    beta: get_f64(sv, "sinr", "beta")?,
                    noise: get_f64(sv, "sinr", "noise")?,
                }
            },
            reception: match v.get("reception") {
                None => ReceptionModel::Threshold,
                Some(r) => match r.as_str() {
                    Some("threshold") => ReceptionModel::Threshold,
                    Some("rayleigh") => ReceptionModel::Rayleigh,
                    _ => {
                        return Err(SpecError::new(
                            "reception",
                            "expected \"threshold\" or \"rayleigh\"",
                        ))
                    }
                },
            },
            protocol: ProtocolSpec::from_json(field(v, "", "protocol")?, "protocol")?,
            churn: match v.get("churn") {
                None | Some(JsonValue::Null) => None,
                Some(cv) => {
                    reject_unknown(cv, "churn", &["interval", "leave_prob", "join_prob"])?;
                    Some(ChurnConfig {
                        interval: get_u64(cv, "churn", "interval")?,
                        leave_prob: get_f64(cv, "churn", "leave_prob")?,
                        join_prob: get_f64(cv, "churn", "join_prob")?,
                    })
                }
            },
            faults: match v.get("faults") {
                None => Vec::new(),
                Some(fv) => fv
                    .as_array()
                    .ok_or_else(|| SpecError::new("faults", "expected an array"))?
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        let fp = format!("faults[{i}]");
                        reject_unknown(f, &fp, &["node", "from", "until"])?;
                        Ok(FaultSpec {
                            node: get_usize(f, &fp, "node")?,
                            from: get_u64(f, &fp, "from")?,
                            until: match f.get("until") {
                                None | Some(JsonValue::Null) => None,
                                Some(_) => Some(get_u64(f, &fp, "until")?),
                            },
                        })
                    })
                    .collect::<Result<Vec<_>, SpecError>>()?,
            },
            jamming: match v.get("jamming") {
                None => JamSchedule::None,
                Some(jv) => jamming_from_json(jv, "jamming")?,
            },
            latency: match v.get("latency") {
                None => LatencyModel::Immediate,
                Some(lv) => latency_from_json(lv, "latency")?,
            },
            reach_decay: match v.get("reach_decay") {
                None | Some(JsonValue::Null) => None,
                Some(r) => Some(
                    r.as_f64()
                        .ok_or_else(|| SpecError::new("reach_decay", "expected a number"))?,
                ),
            },
            top_k: match v.get("top_k") {
                None | Some(JsonValue::Null) => None,
                Some(k) => Some(
                    k.as_u64()
                        .and_then(|k| usize::try_from(k).ok())
                        .ok_or_else(|| SpecError::new("top_k", "expected an integer"))?,
                ),
            },
            channel: match v.get("channel") {
                None | Some(JsonValue::Null) => None,
                Some(cv) => Some(ChannelSpec::from_json(cv, "channel")?),
            },
            prr_window: match v.get("prr_window") {
                None | Some(JsonValue::Null) => None,
                Some(_) => Some(get_u64(v, "", "prr_window")?),
            },
            adaptive: match v.get("adaptive") {
                None | Some(JsonValue::Null) => None,
                Some(av) => Some(AdaptiveSpec::from_json(av, "adaptive")?),
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on malformed JSON or an invalid spec.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        Self::from_json(&json::parse(text)?)
    }

    /// The number of nodes the topology deploys (saturating, so absurd
    /// spec values fail validation instead of overflowing).
    pub fn node_count(&self) -> usize {
        match self.topology {
            TopologySpec::Line { n, .. } | TopologySpec::Ring { n, .. } => n,
            TopologySpec::Grid { side, .. } => side.saturating_mul(side),
            TopologySpec::Random { n, .. } => n,
            TopologySpec::Clustered {
                clusters,
                per_cluster,
                ..
            } => clusters.saturating_mul(per_cluster),
        }
    }

    /// The SINR parameters.
    ///
    /// # Panics
    ///
    /// Never panics on a validated spec.
    pub fn sinr_params(&self) -> SinrParams {
        SinrParams::new(self.sinr.beta, self.sinr.noise).expect("validated by ScenarioSpec")
    }

    /// The contention links, with the default consecutive pairing
    /// `(0→1), (2→3), …` applied when the spec lists none. Empty for
    /// other protocols.
    pub fn contention_links(&self) -> Vec<(NodeId, NodeId)> {
        match &self.protocol {
            ProtocolSpec::Contention { links, .. } if links.is_empty() => (0..self.node_count()
                / 2)
                .map(|i| (NodeId::new(2 * i), NodeId::new(2 * i + 1)))
                .collect(),
            ProtocolSpec::Contention { links, .. } => links
                .iter()
                .map(|l| (NodeId::new(l.from), NodeId::new(l.to)))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The engine configuration this spec compiles to (trace recording
    /// always on — the metrics collector consumes it).
    pub fn engine_config(&self) -> EngineConfig {
        let mut faults = FaultPlan::none();
        for f in &self.faults {
            let node = NodeId::new(f.node);
            faults = match f.until {
                Some(until) => faults.with_outage(
                    node,
                    usize::try_from(f.from).unwrap_or(usize::MAX),
                    usize::try_from(until).unwrap_or(usize::MAX),
                ),
                None => faults.with_crash(node, usize::try_from(f.from).unwrap_or(usize::MAX)),
            };
        }
        EngineConfig {
            reach_decay: self.reach_decay,
            top_k: self.top_k,
            reception: self.reception,
            latency: self.latency,
            churn: self.churn,
            jamming: self.jamming,
            faults,
            record_trace: true,
        }
    }

    /// Validates every field; called by the JSON decoder and by
    /// [`crate::ScenarioRunner::new`].
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        let bad = |path: &str, msg: &str| Err(SpecError::new(path, msg));
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return bad(
                "name",
                "must be non-empty and use only [A-Za-z0-9_-] (it names the golden file)",
            );
        }
        if self.horizon == 0 {
            return bad("horizon", "must be at least one tick");
        }
        if self.check_interval == 0 {
            return bad("check_interval", "must be at least one tick");
        }
        // Every integer in a spec must survive the JSON number round
        // trip (f64 mantissa), or a spec written by `to_json_string`
        // would not parse back.
        const MAX_JSON_INT: u64 = 1 << 53;
        let json_int_fields: [(&str, u64); 3] = [
            ("seed", self.seed),
            ("horizon", self.horizon),
            ("check_interval", self.check_interval),
        ];
        for (path, value) in json_int_fields {
            if value > MAX_JSON_INT {
                return bad(path, "must fit in 2^53 (JSON number precision)");
            }
        }
        if let TopologySpec::Random { seed, .. } | TopologySpec::Clustered { seed, .. } =
            self.topology
        {
            if seed > MAX_JSON_INT {
                return bad("topology.seed", "must fit in 2^53 (JSON number precision)");
            }
        }
        let n = self.node_count();
        if n < 2 {
            return bad("topology", "needs at least two nodes");
        }
        // Far above any practical engine run, but low enough that grid
        // sides and cluster products can never overflow node_count.
        if n > 10_000_000 {
            return bad("topology", "deploys more than 10M nodes");
        }
        let positive = |x: f64| x.is_finite() && x > 0.0;
        match self.topology {
            TopologySpec::Line { spacing, alpha, .. }
            | TopologySpec::Grid { spacing, alpha, .. } => {
                if !positive(spacing) || !positive(alpha) {
                    return bad("topology", "spacing and alpha must be positive and finite");
                }
            }
            TopologySpec::Ring { radius, alpha, .. } => {
                if !positive(radius) || !positive(alpha) {
                    return bad("topology", "radius and alpha must be positive and finite");
                }
            }
            TopologySpec::Random { size, alpha, .. }
            | TopologySpec::Clustered { size, alpha, .. } => {
                if !positive(size) || !positive(alpha) {
                    return bad("topology", "size and alpha must be positive and finite");
                }
            }
        }
        // Every decay must stay inside the decay-space contract (0, ∞):
        // the farthest pair's squared distance and decay finite (with a
        // margin for the rounding of the computed distances), the
        // closest guaranteed pair's squared distance a normal float (a
        // subnormal one loses the pair to underflow) and its decay
        // positive.
        let (near, far) = self.topology.separation_bounds();
        let far = far * (1.0 + 1e-9);
        let alpha = self.topology.alpha();
        if !(far * far).is_finite() || !far.powf(alpha).is_finite() {
            return bad(
                "topology",
                "the farthest pair's decay overflows: shrink the deployment or lower alpha",
            );
        }
        if near * near < f64::MIN_POSITIVE || near.powf(alpha) <= 0.0 {
            return bad(
                "topology",
                "the closest pair's decay underflows: spread the deployment or lower alpha",
            );
        }
        if SinrParams::new(self.sinr.beta, self.sinr.noise).is_err() {
            return bad("sinr", "beta must be >= 1 and noise >= 0, both finite");
        }
        match &self.protocol {
            ProtocolSpec::Broadcast {
                neighborhood_decay,
                probability,
                power,
            } => {
                if !positive(*neighborhood_decay) {
                    return bad("protocol.neighborhood_decay", "must be positive and finite");
                }
                if !positive(*power) {
                    return bad("protocol.power", "must be positive and finite");
                }
                if let Some(p) = probability {
                    if !(*p > 0.0 && *p < 1.0) {
                        return bad("protocol.probability", "must be in (0, 1)");
                    }
                }
                if let Some(reach) = self.reach_decay {
                    if reach < *neighborhood_decay {
                        return bad(
                            "reach_decay",
                            "must be at least the broadcast neighborhood_decay \
                             (pairs past the reach could never be delivered)",
                        );
                    }
                }
            }
            ProtocolSpec::Contention { strategy, .. } => {
                let links = self.contention_links();
                if links.is_empty() {
                    return bad("protocol.links", "needs at least one link");
                }
                let mut used = vec![false; n];
                for (from, to) in &links {
                    if from.index() >= n || to.index() >= n || from == to {
                        return bad("protocol.links", "link endpoints out of range");
                    }
                    if used[from.index()] || used[to.index()] {
                        return bad("protocol.links", "links must not share endpoints");
                    }
                    used[from.index()] = true;
                    used[to.index()] = true;
                }
                match *strategy {
                    ContentionStrategy::Fixed { p } => {
                        if !(p > 0.0 && p <= 1.0) {
                            return bad("protocol.strategy.p", "must be in (0, 1]");
                        }
                    }
                    ContentionStrategy::Backoff {
                        start,
                        down,
                        up,
                        floor,
                    } => {
                        let ok = start > 0.0
                            && start <= 1.0
                            && down > 0.0
                            && down < 1.0
                            && up >= 1.0
                            && floor > 0.0
                            && floor <= start;
                        if !ok {
                            return bad(
                                "protocol.strategy",
                                "need start in (0,1], down in (0,1), up >= 1, floor in (0, start]",
                            );
                        }
                    }
                }
            }
            ProtocolSpec::Announce { probability, power } => {
                if !(*probability > 0.0 && *probability < 1.0) {
                    return bad("protocol.probability", "must be in (0, 1)");
                }
                if !positive(*power) {
                    return bad("protocol.power", "must be positive and finite");
                }
            }
        }
        if let Some(churn) = &self.churn {
            if churn.interval == 0 || churn.interval > MAX_JSON_INT {
                return bad("churn.interval", "must be in [1, 2^53] ticks");
            }
            if !(0.0..=1.0).contains(&churn.leave_prob) || !(0.0..=1.0).contains(&churn.join_prob) {
                return bad("churn", "probabilities must be in [0, 1]");
            }
        }
        for (i, f) in self.faults.iter().enumerate() {
            if f.node >= n {
                return bad(&format!("faults[{i}].node"), "node index out of range");
            }
            if f.from > MAX_JSON_INT || f.until.is_some_and(|u| u > MAX_JSON_INT) {
                return bad(
                    &format!("faults[{i}]"),
                    "ticks must fit in 2^53 (JSON number precision)",
                );
            }
            if let Some(until) = f.until {
                if until <= f.from {
                    return bad(&format!("faults[{i}]"), "until must exceed from");
                }
            }
        }
        match self.jamming {
            JamSchedule::Periodic { period } if period == 0 || period > MAX_JSON_INT => {
                return bad("jamming.period", "must be in [1, 2^53] ticks");
            }
            JamSchedule::Random { prob } if !(0.0..=1.0).contains(&prob) => {
                return bad("jamming.prob", "must be in [0, 1]");
            }
            _ => {}
        }
        match self.latency {
            LatencyModel::Fixed { ticks } if ticks > MAX_JSON_INT => {
                return bad("latency.ticks", "must fit in 2^53 (JSON number precision)");
            }
            LatencyModel::Jittered { base, jitter }
                if base > MAX_JSON_INT || jitter > MAX_JSON_INT =>
            {
                return bad("latency", "ticks must fit in 2^53 (JSON number precision)");
            }
            _ => {}
        }
        if let Some(reach) = self.reach_decay {
            if !positive(reach) {
                return bad("reach_decay", "must be positive and finite");
            }
        }
        if self.top_k == Some(0) {
            return bad("top_k", "must keep at least one signal");
        }
        if let Some(channel) = &self.channel {
            if channel.block == 0 || channel.block > MAX_JSON_INT {
                return bad("channel.block", "must be in [1, 2^53] ticks");
            }
            if channel.trace.is_some() && channel.trace_path.is_some() {
                return bad(
                    "channel.trace_path",
                    "an inline trace and a trace_path are mutually exclusive",
                );
            }
            if (channel.trace.is_some() || channel.trace_path.is_some())
                && (channel.mobility.is_some()
                    || channel.shadowing.is_some()
                    || channel.fading.is_some())
            {
                return bad(
                    "channel.trace",
                    "a gain trace replays verbatim and excludes the generative layers",
                );
            }
            if let Some(path) = &channel.trace_path {
                if path.is_empty() || Path::new(path).is_absolute() || path.contains("..") {
                    return bad(
                        "channel.trace_path",
                        "must be a repository-relative path (no leading '/', no '..')",
                    );
                }
            }
            match &channel.mobility {
                Some(MobilitySpec::Waypoint { speed, pause, seed }) => {
                    if !(speed.is_finite() && *speed >= 0.0) {
                        return bad("channel.mobility.speed", "must be non-negative and finite");
                    }
                    if *pause > MAX_JSON_INT || *seed > MAX_JSON_INT {
                        return bad("channel.mobility", "integers must fit in 2^53");
                    }
                }
                Some(MobilitySpec::Levy {
                    scale,
                    exponent,
                    cap,
                    seed,
                }) => {
                    if !(positive(*scale) && positive(*exponent) && positive(*cap)) || cap < scale {
                        return bad(
                            "channel.mobility",
                            "need scale > 0, exponent > 0, cap >= scale, all finite",
                        );
                    }
                    if *seed > MAX_JSON_INT {
                        return bad("channel.mobility.seed", "must fit in 2^53");
                    }
                }
                Some(MobilitySpec::Group {
                    groups,
                    speed,
                    spread,
                    seed,
                }) => {
                    if *groups == 0 || *groups > n {
                        return bad("channel.mobility.groups", "must be in [1, node count]");
                    }
                    let ok = |x: f64| x.is_finite() && x >= 0.0;
                    if !ok(*speed) || !ok(*spread) {
                        return bad(
                            "channel.mobility",
                            "speed and spread must be non-negative and finite",
                        );
                    }
                    if *seed > MAX_JSON_INT {
                        return bad("channel.mobility.seed", "must fit in 2^53");
                    }
                }
                None => {}
            }
            if let Some(sh) = &channel.shadowing {
                if !(sh.sigma_db.is_finite() && sh.sigma_db >= 0.0) {
                    return bad(
                        "channel.shadowing.sigma_db",
                        "must be non-negative and finite",
                    );
                }
                if !positive(sh.corr_dist) {
                    return bad("channel.shadowing.corr_dist", "must be positive and finite");
                }
                if !(0.0..1.0).contains(&sh.time_corr) {
                    return bad("channel.shadowing.time_corr", "must be in [0, 1)");
                }
                if sh.seed > MAX_JSON_INT {
                    return bad("channel.shadowing.seed", "must fit in 2^53");
                }
            }
            if let Some(f) = &channel.fading {
                if f.seed > MAX_JSON_INT {
                    return bad("channel.fading.seed", "must fit in 2^53");
                }
            }
            if let Some(trace) = &channel.trace {
                if trace.nodes() != n {
                    return bad("channel.trace", "trace node count must match the topology");
                }
                if trace.block_len() != channel.block {
                    return bad("channel.trace", "trace block_len must equal channel.block");
                }
            }
            if let Some(m) = &channel.monitor {
                if m.interval == 0
                    || m.interval > MAX_JSON_INT
                    || !m.interval.is_multiple_of(self.check_interval)
                {
                    return bad(
                        "channel.monitor.interval",
                        "must be a positive multiple of check_interval (in [1, 2^53])",
                    );
                }
                if !(3..=64).contains(&m.max_nodes) {
                    return bad("channel.monitor.max_nodes", "must be in [3, 64]");
                }
            }
        }
        if let Some(w) = self.prr_window {
            if w == 0 || w > MAX_JSON_INT || !w.is_multiple_of(self.check_interval) {
                return bad(
                    "prr_window",
                    "must be a positive multiple of check_interval (in [1, 2^53])",
                );
            }
        }
        if let Some(a) = &self.adaptive {
            if a.interval == 0
                || a.interval > MAX_JSON_INT
                || !a.interval.is_multiple_of(self.check_interval)
            {
                return bad(
                    "adaptive.interval",
                    "must be a positive multiple of check_interval (in [1, 2^53]); \
                     decisions fire on the runner's pause grid",
                );
            }
            if !(3..=64).contains(&a.max_nodes) {
                return bad("adaptive.max_nodes", "must be in [3, 64]");
            }
            if !(a.zeta_ref.is_finite() && a.zeta_ref > 0.0) {
                return bad("adaptive.zeta_ref", "must be positive and finite");
            }
            let ordered = a.floor > 0.0 && a.floor <= a.base_p && a.base_p <= a.cap && a.cap <= 1.0;
            if !(a.floor.is_finite() && a.base_p.is_finite() && a.cap.is_finite() && ordered) {
                return bad(
                    "adaptive",
                    "need 0 < floor <= base_p <= cap <= 1, all finite",
                );
            }
        }
        Ok(())
    }

    /// Resolves a `channel.trace_path` against the repository root
    /// `root`: loads the gain-trace JSON file, inlines it as
    /// `channel.trace`, clears the path, and re-validates (node count
    /// and block length must still match). Returns whether anything was
    /// resolved. Called by `crate::ScenarioRunner::new`, so spec
    /// *parsing* stays IO-free.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the path on an unreadable or
    /// malformed trace file, and any validation error of the resolved
    /// spec.
    pub fn resolve_trace_path(&mut self, root: &Path) -> Result<bool, SpecError> {
        let Some(channel) = &mut self.channel else {
            return Ok(false);
        };
        let Some(path) = channel.trace_path.take() else {
            return Ok(false);
        };
        let full = root.join(&path);
        let text = std::fs::read_to_string(&full).map_err(|e| {
            SpecError::new(
                "channel.trace_path",
                format!("cannot read gain trace \"{path}\": {e}"),
            )
        })?;
        let trace = GainTrace::from_json_str(&text).map_err(|e| {
            SpecError::new(
                "channel.trace_path",
                format!("malformed gain trace \"{path}\": {e}"),
            )
        })?;
        channel.trace = Some(trace);
        self.validate()?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "demo".to_string(),
            seed: 7,
            horizon: 500,
            check_interval: 32,
            topology: TopologySpec::Line {
                n: 16,
                spacing: 1.0,
                alpha: 2.0,
            },
            backend: BackendSpec::Lazy,
            sinr: SinrSpec {
                beta: 1.0,
                noise: 0.05,
            },
            reception: ReceptionModel::Threshold,
            protocol: ProtocolSpec::Broadcast {
                neighborhood_decay: 4.0,
                probability: Some(0.05),
                power: 1.0,
            },
            churn: Some(ChurnConfig {
                interval: 8,
                leave_prob: 0.2,
                join_prob: 0.8,
            }),
            faults: vec![FaultSpec {
                node: 3,
                from: 10,
                until: Some(40),
            }],
            jamming: JamSchedule::Periodic { period: 7 },
            latency: LatencyModel::Jittered { base: 1, jitter: 3 },
            reach_decay: Some(64.0),
            top_k: Some(8),
            channel: Some(ChannelSpec {
                block: 8,
                mobility: Some(MobilitySpec::Waypoint {
                    speed: 0.25,
                    pause: 1,
                    seed: 21,
                }),
                shadowing: Some(ShadowingSpec {
                    sigma_db: 3.0,
                    corr_dist: 2.0,
                    time_corr: 0.5,
                    seed: 22,
                }),
                fading: Some(FadingSpec { seed: 23 }),
                trace: None,
                trace_path: None,
                monitor: Some(MonitorSpec {
                    interval: 64,
                    max_nodes: 12,
                }),
            }),
            prr_window: Some(64),
            adaptive: Some(AdaptiveSpec {
                interval: 32,
                max_nodes: 12,
                base_p: 0.05,
                zeta_ref: 2.0,
                floor: 0.01,
                cap: 0.3,
            }),
        }
    }

    #[test]
    fn specs_round_trip_through_json() {
        let spec = demo_spec();
        let text = spec.to_json_string();
        let back = ScenarioSpec::from_json_str(&text).unwrap();
        assert_eq!(back, spec);
        // Printing is a fixed point, so re-serializing never diffs.
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn optional_fields_default() {
        let text = r#"{
            "name": "min",
            "seed": 1,
            "horizon": 100,
            "topology": {"kind": "grid", "side": 4, "spacing": 1.0, "alpha": 2.0},
            "sinr": {"beta": 1.0, "noise": 0.0},
            "protocol": {"kind": "announce", "probability": 0.1, "power": 1.0}
        }"#;
        let spec = ScenarioSpec::from_json_str(text).unwrap();
        assert_eq!(spec.backend, BackendSpec::Lazy);
        assert_eq!(spec.reception, ReceptionModel::Threshold);
        assert_eq!(spec.jamming, JamSchedule::None);
        assert_eq!(spec.latency, LatencyModel::Immediate);
        assert_eq!(spec.check_interval, 64);
        assert!(spec.churn.is_none() && spec.faults.is_empty());
        assert_eq!(spec.node_count(), 16);
    }

    #[test]
    fn unknown_and_invalid_fields_are_rejected() {
        let base = demo_spec();
        // Unknown top-level key.
        let mut v = base.to_json();
        if let JsonValue::Object(pairs) = &mut v {
            pairs.push(("typo_field".to_string(), int(1)));
        }
        let err = ScenarioSpec::from_json(&v).unwrap_err();
        assert!(err.path.contains("typo_field"), "{err}");

        // `tiled` is not a backend kind.
        let mut v = base.to_json();
        if let JsonValue::Object(pairs) = &mut v {
            for (key, value) in pairs.iter_mut() {
                if key == "backend" {
                    *value = obj(vec![
                        ("kind", s("tiled")),
                        ("tile_size", int(16)),
                        ("max_tiles", int(8)),
                    ]);
                }
            }
        }
        let err = ScenarioSpec::from_json(&v).unwrap_err();
        assert_eq!(err.path, "backend.kind");
        assert_eq!(err.message, r#"unknown backend "tiled" (dense|lazy)"#);

        // Out-of-range probability.
        let mut bad = base.clone();
        bad.protocol = ProtocolSpec::Announce {
            probability: 1.5,
            power: 1.0,
        };
        assert!(bad.validate().is_err());

        // Fault on a nonexistent node.
        let mut bad = base.clone();
        bad.faults[0].node = 999;
        assert!(bad.validate().is_err());

        // Reach below the broadcast neighborhood.
        let mut bad = base.clone();
        bad.reach_decay = Some(1.0);
        assert!(bad.validate().is_err());

        // Integers past 2^53 would not survive the JSON round trip, so
        // validation refuses them up front.
        let mut bad = base.clone();
        bad.seed = u64::MAX;
        assert!(bad.validate().is_err());

        // Absurd topology sizes fail cleanly instead of overflowing.
        let mut bad = base;
        bad.topology = TopologySpec::Grid {
            side: 1 << 33,
            spacing: 1.0,
            alpha: 2.0,
        };
        assert!(bad.validate().is_err());
    }

    /// Topologies whose decays would leave `(0, ∞)` fail validation at
    /// `topology` instead of panicking while the backend is built or
    /// hanging in point generation; every shipped spec still passes.
    #[test]
    fn decays_outside_the_contract_are_rejected() {
        let grid = |spacing, alpha| TopologySpec::Grid {
            side: 32,
            spacing,
            alpha,
        };
        for (topology, channel) in [
            (grid(1.0, 400.0), true),
            (grid(1.0, 190.0), true),
            (grid(1.0, 1e3), false),
            (grid(1e-200, 2.5), true),
            (
                TopologySpec::Random {
                    n: 1500,
                    size: 1e-250,
                    alpha: 2.5,
                    seed: 0,
                },
                false,
            ),
        ] {
            let mut spec = demo_spec();
            spec.topology = topology;
            if !channel {
                spec.channel = None;
                spec.adaptive = None;
            }
            let err = spec.validate().unwrap_err();
            assert_eq!(err.path, "topology", "{topology:?}: {err}");
        }
        let specs = crate::golden::load_specs(&crate::golden::scenario_dir()).unwrap();
        assert_eq!(specs.len(), 8);
    }

    #[test]
    fn channel_blocks_are_validated() {
        let base = demo_spec();
        let channel = |f: &dyn Fn(&mut ChannelSpec)| {
            let mut spec = base.clone();
            let c = spec.channel.as_mut().unwrap();
            f(c);
            spec
        };

        // Zero coherence block.
        assert!(channel(&|c| c.block = 0).validate().is_err());
        // Monitor off the check-interval grid (demo check_interval: 32).
        assert!(channel(&|c| c.monitor.as_mut().unwrap().interval = 48)
            .validate()
            .is_err());
        // Monitor submatrix out of range.
        assert!(channel(&|c| c.monitor.as_mut().unwrap().max_nodes = 2)
            .validate()
            .is_err());
        // Negative mobility speed.
        assert!(channel(&|c| {
            c.mobility = Some(MobilitySpec::Waypoint {
                speed: -1.0,
                pause: 0,
                seed: 1,
            })
        })
        .validate()
        .is_err());
        // Lévy cap below scale.
        assert!(channel(&|c| {
            c.mobility = Some(MobilitySpec::Levy {
                scale: 2.0,
                exponent: 1.5,
                cap: 1.0,
                seed: 1,
            })
        })
        .validate()
        .is_err());
        // More groups than nodes (demo topology has 16).
        assert!(channel(&|c| {
            c.mobility = Some(MobilitySpec::Group {
                groups: 99,
                speed: 0.2,
                spread: 0.1,
                seed: 1,
            })
        })
        .validate()
        .is_err());
        // Shadowing time correlation at 1 (must be < 1).
        assert!(channel(&|c| c.shadowing.as_mut().unwrap().time_corr = 1.0)
            .validate()
            .is_err());
        // A trace alongside generative layers.
        let trace = decay_channel::GainTrace::from_frames(
            16,
            8,
            vec![decay_channel::GainFrame {
                block: 0,
                gains: (0..256)
                    .map(|k| if k / 16 == k % 16 { 0.0 } else { 1.0 })
                    .collect(),
            }],
        )
        .unwrap();
        let t = trace.clone();
        assert!(channel(&|c| c.trace = Some(t.clone())).validate().is_err());
        // A trace alone, matching n and block: valid.
        let t = trace.clone();
        let ok = channel(&|c| {
            c.mobility = None;
            c.shadowing = None;
            c.fading = None;
            c.trace = Some(t.clone());
        });
        ok.validate().unwrap();
        // Trace block_len must equal channel.block.
        let t = trace;
        assert!(channel(&|c| {
            c.mobility = None;
            c.shadowing = None;
            c.fading = None;
            c.block = 4;
            c.trace = Some(t.clone());
        })
        .validate()
        .is_err());
    }

    #[test]
    fn prr_window_and_adaptive_are_validated() {
        let base = demo_spec(); // check_interval 32
        let mut bad = base.clone();
        bad.prr_window = Some(48);
        assert!(bad.validate().is_err(), "off-grid prr_window");
        bad.prr_window = Some(0);
        assert!(bad.validate().is_err(), "zero prr_window");
        bad.prr_window = Some(96);
        bad.validate().unwrap();

        let adaptive = |f: &dyn Fn(&mut AdaptiveSpec)| {
            let mut spec = base.clone();
            let a = spec.adaptive.as_mut().unwrap();
            f(a);
            spec.validate()
        };
        assert!(adaptive(&|a| a.interval = 48).is_err(), "off-grid interval");
        assert!(adaptive(&|a| a.max_nodes = 2).is_err(), "max_nodes < 3");
        assert!(adaptive(&|a| a.zeta_ref = 0.0).is_err(), "zeta_ref <= 0");
        assert!(adaptive(&|a| a.floor = 0.0).is_err(), "floor <= 0");
        assert!(
            adaptive(&|a| a.cap = a.base_p / 2.0).is_err(),
            "cap < base_p"
        );
        assert!(adaptive(&|a| a.base_p = f64::NAN).is_err(), "NaN base_p");
        assert!(adaptive(&|a| a.cap = 0.2).is_ok());
    }

    #[test]
    fn trace_paths_are_validated_and_resolved() {
        let mut spec = demo_spec();
        {
            let c = spec.channel.as_mut().unwrap();
            c.mobility = None;
            c.shadowing = None;
            c.fading = None;
        }
        let with_path = |path: &str| {
            let mut s = spec.clone();
            s.channel.as_mut().unwrap().trace_path = Some(path.to_string());
            s
        };
        // Absolute and escaping paths are rejected up front.
        assert!(with_path("/etc/passwd").validate().is_err());
        assert!(with_path("../outside.json").validate().is_err());
        assert!(with_path("").validate().is_err());
        // A plausible repo-relative path validates without IO...
        let mut ok = with_path("scenarios/traces/nope.json");
        ok.validate().unwrap();
        // ...and resolution errors name the missing file.
        let err = ok
            .resolve_trace_path(Path::new("/nonexistent-root"))
            .unwrap_err();
        assert!(err.path.contains("trace_path"), "{err}");
        assert!(err.message.contains("nope.json"), "{err}");
        // Specs without a trace_path resolve to a no-op.
        let mut bare = spec.clone();
        assert!(!bare.resolve_trace_path(Path::new("/tmp")).unwrap());
        // trace and trace_path together are rejected.
        let mut both = with_path("scenarios/traces/x.json");
        both.channel.as_mut().unwrap().trace = Some(
            decay_channel::GainTrace::from_frames(
                16,
                8,
                vec![decay_channel::GainFrame {
                    block: 0,
                    gains: (0..256)
                        .map(|k| if k / 16 == k % 16 { 0.0 } else { 1.0 })
                        .collect(),
                }],
            )
            .unwrap(),
        );
        assert!(both.validate().is_err());
    }

    #[test]
    fn unknown_fields_in_sub_objects_are_rejected() {
        // A typo'd key inside jamming/latency/backend/strategy must fail
        // loudly, not silently run with the default dynamics.
        for (field, value) in [
            ("jamming", r#"{"kind": "none", "period": 7}"#),
            ("latency", r#"{"kind": "fixed", "ticks": 2, "jitter": 3}"#),
            ("backend", r#"{"kind": "lazy", "tile_size": 4}"#),
        ] {
            let text = format!(
                r#"{{
                    "name": "x",
                    "seed": 1,
                    "horizon": 10,
                    "topology": {{"kind": "line", "n": 4, "spacing": 1.0, "alpha": 2.0}},
                    "sinr": {{"beta": 1.0, "noise": 0.0}},
                    "protocol": {{"kind": "announce", "probability": 0.1, "power": 1.0}},
                    "{field}": {value}
                }}"#
            );
            let err = ScenarioSpec::from_json_str(&text).expect_err(field);
            assert!(err.path.starts_with(field), "{field}: {err}");
        }
    }

    #[test]
    fn contention_default_pairing_and_endpoint_checks() {
        let mut spec = demo_spec();
        spec.protocol = ProtocolSpec::Contention {
            links: vec![],
            strategy: ContentionStrategy::Fixed { p: 0.2 },
        };
        spec.reach_decay = None;
        spec.validate().unwrap();
        let links = spec.contention_links();
        assert_eq!(links.len(), 8);
        assert_eq!(links[3], (NodeId::new(6), NodeId::new(7)));

        spec.protocol = ProtocolSpec::Contention {
            links: vec![LinkSpec { from: 0, to: 1 }, LinkSpec { from: 2, to: 0 }],
            strategy: ContentionStrategy::Fixed { p: 0.2 },
        };
        assert!(spec.validate().is_err(), "shared endpoint must be rejected");
    }

    #[test]
    fn engine_config_reflects_spec() {
        let spec = demo_spec();
        let cfg = spec.engine_config();
        assert!(cfg.record_trace);
        assert_eq!(cfg.top_k, Some(8));
        assert_eq!(cfg.reach_decay, Some(64.0));
        assert_eq!(cfg.faults.outages().len(), 1);
        assert!(cfg.churn.is_some());
    }
}
