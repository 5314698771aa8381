//! The composite generative channel: mobility, shadowing, and fading
//! layered multiplicatively on any static [`DecayBackend`].
//!
//! The instantaneous decay during coherence block `b` is
//!
//! ```text
//! f_b(i, j) = f(i, j) · M_b(i, j) · S_b(i, j) · F_b(i, j)
//! ```
//!
//! where `f` is the static base field, `M_b` the mobility modulation
//! `(dist_b(i, j) / dist_0(i, j))^α` induced by the moving deployment,
//! `S_b` correlated log-normal shadowing, and `F_b` block Rayleigh
//! fading (each factor 1 when its layer is absent). Because the base
//! term is the *same bit pattern* on dense, lazy, and tiled backends
//! (the existing cross-backend invariant) and every modulation is a pure
//! function of the block, the composite field — and therefore every
//! engine trace over it — is bit-identical across base backends too.
//!
//! Per-block state (mobility positions, per-node shadowing field values
//! and reach scales) lives in one epoch cache. The *epoch solve* that
//! recomputes it at a block boundary advances mobility, evaluates the
//! spectral shadowing field once per node (`O(n · M)` with `M` fixed
//! sinusoids, see [`crate::shadowing`]) and derives each node's reach
//! scale; it is timed as `epoch_solve` under `telemetry-timing`.
//! Queries for an earlier block rebuild deterministically from block 0,
//! which is how checkpoint restore replays without serialized channel
//! state.
//!
//! # Geometric channels
//!
//! Over a geometric base (see [`TemporalChannel::with_geometric_hints`])
//! the product above is, up to rounding, `db^α · s_i · s_j · F_b(i, j)`:
//! `db` the current-block distance, `s_k` node `k`'s share of the
//! separable shadowing factor, `F_b` the block fade. Such a channel
//! evaluates that closed form instead of the layered product:
//!
//! ```text
//! f_b(i, j) = max(db², d0² · 10^-12)^(α/2) · s_i · s_j / g_b(i, j)
//! ```
//!
//! with `d0` the deployment distance (the `max` is the mobility layer's
//! clamp `db ≥ d0 · 10^-6`), `s_k = exp(ℓ_k)` cached per node and block
//! next to its reach scale, and `g_b = 1 / F_b` the fade's power gain.
//! That is one `powf` and one `ln` per pair, with no base call and no
//! `sqrt`; the per-pair and batched-row paths share the one kernel, so
//! they stay bit-equal. The base then only answers hint windows. The
//! closed form agrees with the layered product to a relative `10^-12`,
//! not bit for bit, so the kernel's version is part of the channel
//! signature. A channel without the declaration keeps the layered
//! product: the paper's non-geometric decay spaces need it.
//!
//! # Reach candidates
//!
//! A reach scan over a geometric channel first
//! takes the base's hint window around the deployment (a dense or tiled
//! base, which has no hint, filters its whole static row), then drops every
//! candidate the closed form provably puts above the reach in two
//! branch-free compaction passes — a multiply-only test with the fade
//! at its clamp, then the bucket of the pair's fade draw for the
//! survivors — so rows evaluate the composite only for pairs that can
//! be in reach. Fade draws hash the block's key prefix once per row or
//! window ([`FadingConfig::block_key`]), not once per pair. The window
//! query and both passes are timed as `reach_window`. The caller
//! re-filters against the exact field, so the bound changes cost, never
//! values.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use decay_core::telemetry::{Counters, Timer};
use decay_core::NodeId;
use decay_engine::{DecayBackend, Tick};
use decay_spaces::{distance, Point};

use crate::fading::{FadeKey, FadingConfig, DRAW_BUCKETS};
use crate::mobility::{MobilityConfig, MobilityEngine, MobilityModel, MobilityState};
use crate::shadowing::{ShadowField, ShadowingConfig, FIELD_VERSION};
use crate::temporal::{signature_of, TemporalBackend};

/// Decay clamp keeping composite values inside the decay-space contract
/// even under extreme factor stacking.
const MIN_DECAY: f64 = 1e-300;
const MAX_DECAY: f64 = 1e300;

/// Version of the closed-form kernel geometric channels evaluate (see
/// the module docs), folded into their signature: bump it whenever the
/// kernel's bits change, so checkpoints taken under the old kernel fail
/// to resume instead of silently replaying a different field.
const KERNEL_VERSION: u64 = 1;

/// Safety margin applied to hint-widening thresholds, absorbing the
/// floating-point slop between the bounds' arithmetic and the closed
/// form's `(db²)^(α/2) · s_i · s_j` (and any `pow` monotonicity wobble). Hints may over-approximate
/// freely — candidates are re-filtered against the exact field — so the
/// margin costs a few extra candidates, never correctness.
const HINT_MARGIN: f64 = 1.05;

/// Per-block derived state shared by the layers.
struct Epoch {
    block: u64,
    ready: bool,
    mob: Option<MobilityState>,
    /// Per-node shadowing field values (empty when shadowing is off).
    shadow: Vec<f64>,
    /// Per-node share `s_k = exp(ℓ_k)` of the separable shadowing
    /// factor, the closed form's per-node term (empty when shadowing is
    /// off).
    share: Vec<f64>,
    /// Per-node reach scale `t_k = s_k^(-2/α)`, with `s_k` the node's
    /// share of the shadowing factor (empty when shadowing is off): a
    /// pair can be in reach only if its squared distance is at most
    /// `(reach / F)^(2/α) · t_i · t_j`.
    reach_scale: Vec<f64>,
    /// Largest displacement of any node from its deployment position
    /// this block (0 when mobility is off) — the measured counterpart
    /// of [`MobilityModel::max_displacement`], used to widen reach
    /// windows exactly as far as the deployment actually drifted.
    max_disp: f64,
    /// Minimum shadowing field value this block (+∞ when shadowing is
    /// off), anchoring the sound floor on any link's shadow factor.
    shadow_min: f64,
}

/// A time-varying gain field over a static base backend. Construct with
/// [`TemporalChannel::new`], attach layers with the `with_*` builders,
/// and hand it to the engine through
/// [`crate::TemporalAdapter`].
pub struct TemporalChannel {
    base: Box<dyn DecayBackend>,
    initial: Vec<Point>,
    alpha: f64,
    block_len: Tick,
    mobility_config: Option<MobilityConfig>,
    shadowing_config: Option<ShadowingConfig>,
    fading: Option<FadingConfig>,
    mobility: Option<MobilityEngine>,
    shadowing: Option<ShadowField>,
    /// Whether the base backend is the geometric field of the
    /// deployment (see [`TemporalChannel::with_geometric_hints`]).
    geometric: bool,
    /// `gain^(2/α)` at the upper edge of each fade-draw bucket, the
    /// fade's share of the per-pair reach bound (all 1 without fading).
    gain_powers: Box<[f64; DRAW_BUCKETS]>,
    /// One 1 per node: the shares and reach scales of a block without
    /// shadowing.
    ones: Box<[f64]>,
    epoch: Mutex<Epoch>,
    /// Sink for the epoch-solve timer: the adapter's, once attached
    /// (see [`TemporalBackend::attach_telemetry`]).
    telemetry: Arc<Counters>,
}

impl TemporalChannel {
    /// A channel over `base` with no layers yet (identical to the static
    /// field until a `with_*` builder adds dynamics). `points` is the
    /// deployment `base` realizes and `alpha` its path-loss exponent —
    /// both needed by the mobility modulation; `block_len` is the
    /// coherence block length in ticks.
    ///
    /// # Panics
    ///
    /// Panics if `points` does not match the backend's node count,
    /// `alpha` is not positive and finite, or `block_len` is 0.
    pub fn new(
        base: impl DecayBackend + 'static,
        points: Vec<Point>,
        alpha: f64,
        block_len: Tick,
    ) -> Self {
        assert_eq!(
            base.len(),
            points.len(),
            "deployment points must match the backend's node count"
        );
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "alpha must be positive and finite"
        );
        assert!(block_len >= 1, "coherence block must be >= 1 tick");
        let n = points.len();
        TemporalChannel {
            base: Box::new(base),
            initial: points,
            alpha,
            block_len,
            mobility_config: None,
            shadowing_config: None,
            fading: None,
            mobility: None,
            shadowing: None,
            geometric: false,
            gain_powers: Box::new([1.0; DRAW_BUCKETS]),
            ones: vec![1.0; n].into(),
            epoch: Mutex::new(Epoch {
                block: 0,
                ready: false,
                mob: None,
                shadow: Vec::new(),
                share: Vec::new(),
                reach_scale: Vec::new(),
                max_disp: 0.0,
                shadow_min: f64::INFINITY,
            }),
            telemetry: Arc::new(Counters::new()),
        }
    }

    /// Declares that the base backend realizes the *geometric* field of
    /// the deployment — `base.decay(i, j) = dist(points[i], points[j])^alpha`.
    ///
    /// The declaration fixes how values are evaluated, not just which
    /// pairs are: every decay of the channel comes from the closed form
    /// `max(db², d0² · 10^-12)^(α/2) · s_i · s_j / g`, with `db` and `d0`
    /// the current-block and deployment distances (the `max` is the
    /// mobility clamp), `s_k` node `k`'s share of the separable
    /// shadowing factor and `g` the fade's power gain — one `powf` and
    /// one `ln` per pair — never from the base. The closed form agrees
    /// with the layered product to a relative `10^-12` but not bit for
    /// bit, so the kernel's version joins the channel signature and
    /// checkpoints taken under another kernel are refused.
    ///
    /// It also enables structured reach hints: instead of scanning all
    /// `n` nodes per (block, source), the per-block reach scan queries
    /// the base backend's hint window (see
    /// [`DecayBackend::hint_candidates`]), widened conservatively for
    /// every attached layer (mobility displacement, the block's
    /// shadowing floor, the fading clamp), and then prunes that window
    /// pair by pair with a lower bound on the closed form. Only the
    /// survivors are evaluated exactly, so a row's `row_pairs` count is
    /// its exact evaluations, not the window width. Both steps
    /// over-approximate and the candidates are re-filtered against the
    /// exact instantaneous field, so they change cost, never values.
    ///
    /// # Panics
    ///
    /// Panics if a spot check finds a base decay that is not the
    /// geometric decay of the deployment (the declaration would be
    /// unsound: a too-narrow window silently loses deliveries).
    #[must_use]
    pub fn with_geometric_hints(self) -> Self {
        let n = self.initial.len();
        for k in 0..n.min(8) {
            let (i, j) = (k, (k + n / 2 + 1) % n);
            if i == j {
                continue;
            }
            let expect = distance(self.initial[i], self.initial[j]).powf(self.alpha);
            let got = self.base.decay(NodeId::new(i), NodeId::new(j));
            assert!(
                (got - expect).abs() <= expect.abs() * 1e-9,
                "with_geometric_hints: base decay ({i}, {j}) = {got} is not the \
                 geometric {expect} of the deployment"
            );
        }
        TemporalChannel {
            geometric: true,
            ..self
        }
    }

    /// Adds a mobility layer.
    #[must_use]
    pub fn with_mobility(mut self, config: MobilityConfig) -> Self {
        self.mobility = Some(MobilityEngine::new(config, self.initial.clone()));
        self.mobility_config = Some(config);
        self
    }

    /// Adds a correlated shadowing layer.
    #[must_use]
    pub fn with_shadowing(mut self, config: ShadowingConfig) -> Self {
        self.shadowing = Some(ShadowField::new(config));
        self.shadowing_config = Some(config);
        self
    }

    /// Adds a block Rayleigh fading layer.
    #[must_use]
    pub fn with_fading(mut self, config: FadingConfig) -> Self {
        self.fading = Some(config);
        self.gain_powers = crate::fading::gain_powers(2.0 / self.alpha);
        self
    }

    /// The static base backend.
    pub fn base(&self) -> &dyn DecayBackend {
        &*self.base
    }

    /// Node positions during `block` (the deployment when no mobility
    /// layer is attached).
    pub fn positions_in_block(&self, block: u64) -> Vec<Point> {
        if self.mobility.is_none() {
            return self.initial.clone();
        }
        let epoch = self.epoch_at(block);
        epoch
            .mob
            .as_ref()
            .expect("mobility state present")
            .pos
            .clone()
    }

    /// Ensures the epoch cache describes `block` and returns it.
    fn epoch_at(&self, block: u64) -> MutexGuard<'_, Epoch> {
        let mut epoch = self.epoch.lock().expect("epoch cache poisoned");
        if epoch.ready && epoch.block == block {
            return epoch;
        }
        let timer = self.telemetry.timer_start();
        if let Some(engine) = &self.mobility {
            let state = epoch.mob.get_or_insert_with(|| engine.initial_state());
            if state.block > block {
                // Backward query (fresh restore, monitor replay):
                // rebuild deterministically from the deployment.
                *state = engine.initial_state();
            }
            while state.block < block {
                engine.advance(state);
            }
        }
        if let Some(field) = &self.shadowing {
            let values = {
                let positions = epoch.mob.as_ref().map_or(&self.initial[..], |s| &s.pos[..]);
                field.node_values(block, positions)
            };
            epoch.reach_scale.clear();
            epoch
                .reach_scale
                .extend(values.iter().map(|&f| field.reach_scale(f, self.alpha)));
            epoch.share.clear();
            epoch.share.extend(values.iter().map(|&f| field.share(f)));
            epoch.shadow = values;
        }
        epoch.max_disp = epoch.mob.as_ref().map_or(0.0, |s| {
            s.pos
                .iter()
                .zip(&self.initial)
                .map(|(p, q)| distance(*p, *q))
                .fold(0.0, f64::max)
        });
        epoch.shadow_min = epoch.shadow.iter().copied().fold(f64::INFINITY, f64::min);
        epoch.block = block;
        epoch.ready = true;
        self.telemetry.timer_stop(Timer::EpochSolve, timer);
        epoch
    }

    /// The block's fade key (`None` without a fading layer).
    fn fade_key(&self, block: u64) -> Option<FadeKey> {
        self.fading.map(|fade| fade.block_key(block))
    }

    /// The per-node inputs the closed form and the reach prune read for
    /// the block of `epoch` (`None` when neither mobility nor shadowing
    /// is attached).
    fn view<'a>(&'a self, epoch: Option<&'a Epoch>) -> View<'a> {
        let pos = epoch
            .and_then(|e| e.mob.as_ref())
            .map_or(&self.initial[..], |s| &s.pos[..]);
        match epoch {
            Some(e) if self.shadowing.is_some() => View {
                pos,
                share: &e.share,
                scale: &e.reach_scale,
            },
            _ => View {
                pos,
                share: &self.ones,
                scale: &self.ones,
            },
        }
    }

    /// One composite decay evaluation under an already-locked epoch
    /// (`None` when neither mobility nor shadowing is attached) and the
    /// block's fade key: the closed form on a geometric channel, the
    /// layered product otherwise.
    fn decay_with(
        &self,
        epoch: Option<&Epoch>,
        fade: Option<FadeKey>,
        from: NodeId,
        to: NodeId,
    ) -> f64 {
        if self.geometric {
            self.closed_form(&self.view(epoch), fade, from, to)
        } else {
            self.layered(epoch, fade, from, to)
        }
    }

    /// The geometric channel's kernel (see the module docs):
    /// `max(db², d0² · 10^-12)^(α/2) · s_i · s_j / g`, clamped into the
    /// decay-space range. The per-pair and batched-row paths both end
    /// here, so they produce identical bits.
    fn closed_form(&self, view: &View<'_>, fade: Option<FadeKey>, from: NodeId, to: NodeId) -> f64 {
        let (i, j) = (from.index(), to.index());
        let d0_sq = dist_sq(self.initial[i], self.initial[j]);
        // Clamp relative to the deployment separation so nodes drifting
        // onto each other never zero a decay: `db ≥ d0 · 1e-6`.
        let db_sq = dist_sq(view.pos[i], view.pos[j]).max(d0_sq * 1e-12);
        let mut d = db_sq.powf(0.5 * self.alpha) * view.share[i] * view.share[j];
        if let Some(fade) = fade {
            d /= fade.gain(from, to);
        }
        d.clamp(MIN_DECAY, MAX_DECAY)
    }

    /// The layered product `f · M_b · S_b · F_b` over the base field,
    /// factor by factor.
    fn layered(
        &self,
        epoch: Option<&Epoch>,
        fade: Option<FadeKey>,
        from: NodeId,
        to: NodeId,
    ) -> f64 {
        let mut d = self.base.decay(from, to);
        if let Some(epoch) = epoch {
            if self.mobility.is_some() {
                let pos = &epoch.mob.as_ref().expect("mobility state present").pos;
                let d0 = distance(self.initial[from.index()], self.initial[to.index()]);
                // Clamp relative to the deployment separation so nodes
                // drifting onto each other never zero a decay.
                let db = distance(pos[from.index()], pos[to.index()]).max(d0 * 1e-6);
                d *= (db / d0).powf(self.alpha);
            }
            if let Some(field) = &self.shadowing {
                d *= field.link_factor(epoch.shadow[from.index()], epoch.shadow[to.index()]);
            }
        }
        if let Some(fade) = fade {
            d *= fade.decay_factor(from, to);
        }
        d.clamp(MIN_DECAY, MAX_DECAY)
    }

    /// Drops every candidate whose decay from `from` in the block of
    /// `epoch` and `fade` is provably above `reach` (`reach <
    /// MAX_DECAY`, geometric channel), keeping the survivors in order.
    ///
    /// Up to its clamps the closed form is `db^α · s_i · s_j / g`, so a
    /// pair is in reach only if `db² ≤ reach^(2/α) · g^(2/α) · t_i · t_j`,
    /// with `t_k = s_k^(-2/α)` the per-node reach scale. Ids outside the
    /// deployment are dropped first; then two in-place compaction
    /// passes apply the test without a branch per candidate: each
    /// writes the candidate at the kept count and advances the count by
    /// the test's outcome. The coarse pass takes `g` at its clamp and
    /// costs only multiplies. The fine pass runs on its survivors with
    /// the bucket of the pair's fade draw, reading `g^(2/α)` at the
    /// bucket's upper edge (see [`crate::fading::gain_powers`]): one
    /// keyed hash and a lookup where the exact factor would cost a log
    /// and a power.
    ///
    /// `HINT_MARGIN` on the reach absorbs the rounding between this
    /// product and the closed form. The bound stays sound because the
    /// closed form's clamps only raise a decay: the mobility clamp
    /// replaces `db²` by something larger, and `MIN_DECAY` lifts tiny
    /// decays. Only `MAX_DECAY` can lower one, and the caller skips the
    /// filter when it could matter.
    fn prune(
        &self,
        epoch: Option<&Epoch>,
        fade: Option<FadeKey>,
        from: NodeId,
        reach: f64,
        candidates: &mut Vec<NodeId>,
    ) {
        let View { pos, scale, .. } = self.view(epoch);
        candidates.retain(|to| to.index() < pos.len());
        let fine = (reach * HINT_MARGIN).powf(2.0 / self.alpha) * scale[from.index()];
        let coarse = fine * self.gain_powers[DRAW_BUCKETS - 1];
        let p = pos[from.index()];
        let mut kept = 0;
        for i in 0..candidates.len() {
            let to = candidates[i].index();
            candidates[kept] = candidates[i];
            kept += usize::from(dist_sq(p, pos[to]) <= coarse * scale[to]);
        }
        candidates.truncate(kept);
        let Some(fade) = fade else {
            return;
        };
        let mut kept = 0;
        for i in 0..candidates.len() {
            let to = candidates[i];
            let bound = fine * self.gain_powers[fade.bucket(from, to)] * scale[to.index()];
            candidates[kept] = to;
            kept += usize::from(dist_sq(p, pos[to.index()]) <= bound);
        }
        candidates.truncate(kept);
    }
}

/// One block's per-node inputs to the closed form and the reach prune
/// (see [`TemporalChannel::view`]).
struct View<'a> {
    /// Current-block positions.
    pos: &'a [Point],
    /// Shadowing shares `s_k` (all 1 without shadowing).
    share: &'a [f64],
    /// Reach scales `t_k = s_k^(-2/α)` (all 1 without shadowing).
    scale: &'a [f64],
}

/// Squared Euclidean distance.
fn dist_sq(p: Point, q: Point) -> f64 {
    let (dx, dy) = (p.0 - q.0, p.1 - q.1);
    dx * dx + dy * dy
}

impl fmt::Debug for TemporalChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TemporalChannel")
            .field("n", &self.initial.len())
            .field("alpha", &self.alpha)
            .field("block_len", &self.block_len)
            .field("mobility", &self.mobility_config)
            .field("shadowing", &self.shadowing_config)
            .field("fading", &self.fading)
            .finish_non_exhaustive()
    }
}

impl TemporalBackend for TemporalChannel {
    fn len(&self) -> usize {
        self.initial.len()
    }

    fn block_len(&self) -> Tick {
        self.block_len
    }

    fn decay_in_block(&self, block: u64, from: NodeId, to: NodeId) -> f64 {
        if from == to {
            return 0.0;
        }
        let fade = self.fade_key(block);
        if self.mobility.is_some() || self.shadowing.is_some() {
            let epoch = self.epoch_at(block);
            self.decay_with(Some(&epoch), fade, from, to)
        } else {
            self.decay_with(None, fade, from, to)
        }
    }

    fn decay_row_in_block(&self, block: u64, from: NodeId, targets: &[NodeId]) -> Vec<f64> {
        // One epoch solve (mobility positions, shadowing node values)
        // for the whole row, instead of one lock + lookup per pair.
        let epoch =
            (self.mobility.is_some() || self.shadowing.is_some()).then(|| self.epoch_at(block));
        let epoch = epoch.as_deref();
        let fade = self.fade_key(block);
        let view = self.geometric.then(|| self.view(epoch));
        targets
            .iter()
            .map(|&to| match &view {
                _ if from == to => 0.0,
                Some(view) => self.closed_form(view, fade, from, to),
                None => self.layered(epoch, fade, from, to),
            })
            .collect()
    }

    fn reach_candidates(&self, block: u64, from: NodeId, reach: f64) -> Option<Vec<NodeId>> {
        if !self.geometric {
            return None;
        }
        // Window budget in the decay domain: the closed form is (up to
        // its clamps and rounding, absorbed by HINT_MARGIN) the
        // instantaneous distance raised to α times the shadow and fade
        // factors, so a node is in reach only when `db^α · S · F ≤ reach`.
        // Bounding the shadow factor below by the block's floor and the
        // fade factor below by the clamp gives
        // `db^α ≤ reach / (S_floor · F_floor)`.
        let mut budget = reach;
        if self.fading.is_some() {
            budget *= crate::fading::MAX_GAIN;
        }
        let mut widen = 0.0;
        let epoch =
            (self.mobility.is_some() || self.shadowing.is_some()).then(|| self.epoch_at(block));
        if let Some(epoch) = &epoch {
            if let Some(field) = &self.shadowing {
                budget /= field.link_factor_floor(epoch.shadow[from.index()], epoch.shadow_min);
            }
            // Both endpoints drifted at most this far from deployment,
            // and never farther than the model's structural bound.
            let measured = epoch.max_disp;
            let model = self
                .mobility_config
                .map_or(0.0, |m| m.model.max_displacement(block));
            widen = 2.0 * measured.min(model);
        }
        // Back to the deployment's decay domain: `d0 ≤ db + widen`.
        let dist = budget.powf(1.0 / self.alpha) * HINT_MARGIN + widen;
        let widened = dist.powf(self.alpha) * HINT_MARGIN;
        if !widened.is_finite() {
            return None;
        }
        // Timed after the epoch solve, so `reach_window` and
        // `epoch_solve` stay disjoint.
        let timer = self.telemetry.timer_start();
        // A base without a hint (dense and tiled backends) filters its
        // whole static row instead.
        let mut candidates = self
            .base
            .hint_candidates(from, widened)
            .unwrap_or_else(|| self.base.potential_receivers(from, Some(widened)));
        // At `MAX_DECAY` and above the clamp can pull a decay *down*
        // into reach, which the product bound below does not model.
        if reach < MAX_DECAY {
            let fade = self.fade_key(block);
            self.prune(epoch.as_deref(), fade, from, reach, &mut candidates);
        }
        self.telemetry.timer_stop(Timer::ReachWindow, timer);
        Some(candidates)
    }

    fn attach_telemetry(&mut self, sink: Arc<Counters>) {
        self.telemetry = sink;
    }

    fn signature(&self) -> u64 {
        let mut words = vec![0xC4A7_7E1Du64, self.block_len, self.alpha.to_bits()];
        if let Some(m) = &self.mobility_config {
            words.push(1);
            words.push(m.seed);
            match m.model {
                MobilityModel::RandomWaypoint { speed, pause } => {
                    words.extend([1, speed.to_bits(), pause]);
                }
                MobilityModel::LevyWalk {
                    scale,
                    exponent,
                    cap,
                } => {
                    words.extend([2, scale.to_bits(), exponent.to_bits(), cap.to_bits()]);
                }
                MobilityModel::Group {
                    groups,
                    speed,
                    spread,
                } => {
                    words.extend([3, groups as u64, speed.to_bits(), spread.to_bits()]);
                }
            }
        }
        if let Some(s) = &self.shadowing_config {
            words.extend([
                2,
                FIELD_VERSION,
                s.sigma_db.to_bits(),
                s.corr_dist.to_bits(),
                s.time_corr.to_bits(),
                s.seed,
            ]);
        }
        if let Some(f) = &self.fading {
            words.extend([3, f.seed]);
        }
        if self.geometric {
            words.extend([4, KERNEL_VERSION]);
        }
        signature_of(&words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decay_engine::LazyBackend;
    use decay_spaces::line_points;

    fn base(n: usize) -> LazyBackend {
        LazyBackend::from_fn(n, |i, j| ((i as f64) - (j as f64)).abs().powi(2))
    }

    fn channel(n: usize) -> TemporalChannel {
        TemporalChannel::new(base(n), line_points(n, 1.0), 2.0, 4)
    }

    #[test]
    fn bare_channel_equals_the_static_base() {
        let ch = channel(10);
        let b = base(10);
        for block in [0, 3, 100] {
            for i in 0..10 {
                for j in 0..10 {
                    let (p, q) = (NodeId::new(i), NodeId::new(j));
                    assert_eq!(
                        ch.decay_in_block(block, p, q).to_bits(),
                        b.decay(p, q).to_bits(),
                        "block {block} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn mobility_layer_is_identity_at_block_zero() {
        let ch = channel(10).with_mobility(MobilityConfig {
            model: MobilityModel::RandomWaypoint {
                speed: 0.5,
                pause: 0,
            },
            seed: 7,
        });
        let b = base(10);
        let (p, q) = (NodeId::new(2), NodeId::new(7));
        assert_eq!(
            ch.decay_in_block(0, p, q).to_bits(),
            b.decay(p, q).to_bits()
        );
        // ...and genuinely drifts later.
        let drifted =
            (1..30).any(|blk| ch.decay_in_block(blk, p, q).to_bits() != b.decay(p, q).to_bits());
        assert!(drifted, "mobility never changed the decay");
    }

    #[test]
    fn epoch_cache_rebuilds_backward_queries_exactly() {
        let make = || {
            channel(8).with_mobility(MobilityConfig {
                model: MobilityModel::LevyWalk {
                    scale: 0.3,
                    exponent: 1.4,
                    cap: 2.0,
                },
                seed: 3,
            })
        };
        let fresh = make();
        let reused = make();
        let (p, q) = (NodeId::new(1), NodeId::new(6));
        // Drive the reused channel forward, then query backward.
        let forward = reused.decay_in_block(9, p, q);
        let back = reused.decay_in_block(4, p, q);
        assert_eq!(back.to_bits(), fresh.decay_in_block(4, p, q).to_bits());
        assert_eq!(
            reused.decay_in_block(9, p, q).to_bits(),
            forward.to_bits(),
            "re-advancing lands on the same field"
        );
    }

    #[test]
    fn all_layers_compose_and_stay_positive() {
        let ch = channel(12)
            .with_mobility(MobilityConfig {
                model: MobilityModel::Group {
                    groups: 3,
                    speed: 0.4,
                    spread: 0.2,
                },
                seed: 5,
            })
            .with_shadowing(ShadowingConfig {
                sigma_db: 6.0,
                corr_dist: 2.0,
                time_corr: 0.6,
                seed: 8,
            })
            .with_fading(FadingConfig { seed: 13 });
        for block in 0..20 {
            for i in 0..12 {
                for j in 0..12 {
                    let d = ch.decay_in_block(block, NodeId::new(i), NodeId::new(j));
                    if i == j {
                        assert_eq!(d, 0.0);
                    } else {
                        assert!(d.is_finite() && d > 0.0, "block {block} ({i},{j}): {d}");
                    }
                }
            }
        }
    }

    /// The deployment hint window cannot narrow a storm grid — the
    /// fading clamp and the block's shadow floor open it past the whole
    /// grid — so only the per-pair bound keeps rows small: well under
    /// `n / 2` exact evaluations per scan even after 64 blocks of drift.
    /// The channel is the temporal-storm one: a 32 × 32 grid at α = 2.5
    /// under waypoint mobility, σ = 4 dB shadowing and block fading.
    #[test]
    fn storm_grid_rows_evaluate_under_half_the_nodes() {
        let side = 32;
        let n = side * side;
        let pts: Vec<Point> = (0..n)
            .map(|i| ((i % side) as f64, (i / side) as f64))
            .collect();
        let field = pts.clone();
        let base = LazyBackend::from_fn(n, move |i, j| distance(field[i], field[j]).powf(2.5));
        let mut adapter = crate::TemporalAdapter::new(
            TemporalChannel::new(base, pts, 2.5, 1)
                .with_geometric_hints()
                .with_mobility(MobilityConfig {
                    model: MobilityModel::RandomWaypoint {
                        speed: 0.4,
                        pause: 1,
                    },
                    seed: 1,
                })
                .with_shadowing(ShadowingConfig {
                    sigma_db: 4.0,
                    corr_dist: 3.0,
                    time_corr: 0.7,
                    seed: 2,
                })
                .with_fading(FadingConfig { seed: 3 }),
        );
        for block in [32, 64] {
            adapter.advance_to(block);
            for src in (0..n).step_by(61) {
                adapter.reach_at(block, NodeId::new(src), Some(100.0), &mut Vec::new());
            }
        }
        let stats = adapter.scan_stats();
        assert!(stats.scans > 0);
        let per_scan = stats.pairs as f64 / stats.scans as f64;
        assert!(
            per_scan < n as f64 / 2.0,
            "{per_scan:.0} pairs per scan on {n} nodes"
        );
    }

    /// The two compaction passes keep exactly what one `retain` over
    /// the combined bound keeps, in the same order, for every mix of
    /// layers, and everything they drop has a closed-form decay above
    /// the reach. Windows hold the source itself, duplicates, unsorted
    /// ids and ids outside the deployment.
    #[test]
    fn prune_keeps_what_a_retain_keeps() {
        let side = 12;
        let n = side * side;
        let pts: Vec<Point> = (0..n)
            .map(|i| ((i % side) as f64, (i / side) as f64))
            .collect();
        let alpha = 2.5;
        for mask in 0..8u8 {
            let field = pts.clone();
            let base =
                LazyBackend::from_fn(n, move |i, j| distance(field[i], field[j]).powf(alpha));
            let mut ch = TemporalChannel::new(base, pts.clone(), alpha, 1).with_geometric_hints();
            if mask & 1 != 0 {
                ch = ch.with_mobility(MobilityConfig {
                    model: MobilityModel::RandomWaypoint {
                        speed: 0.6,
                        pause: 1,
                    },
                    seed: 4,
                });
            }
            if mask & 2 != 0 {
                ch = ch.with_shadowing(ShadowingConfig {
                    sigma_db: 6.0,
                    corr_dist: 2.0,
                    time_corr: 0.5,
                    seed: 5,
                });
            }
            if mask & 4 != 0 {
                ch = ch.with_fading(FadingConfig { seed: 6 });
            }
            let layered = ch.mobility.is_some() || ch.shadowing.is_some();
            for block in [0, 3, 17] {
                let guard = layered.then(|| ch.epoch_at(block));
                let epoch = guard.as_deref();
                let fade = ch.fade_key(block);
                // The single-pass predicate the two passes replace.
                let pos = epoch
                    .and_then(|e| e.mob.as_ref())
                    .map_or(&ch.initial[..], |s| &s.pos[..]);
                let scale = epoch.map_or(&[][..], |e| &e.reach_scale[..]);
                let t = |k: NodeId| scale.get(k.index()).copied().unwrap_or(1.0);
                for reach in [1.0, 10.0, 100.0, 1e4] {
                    for from in [0, 7, n / 2 + 5, n - 1] {
                        let src = NodeId::new(from);
                        let fine = (reach * HINT_MARGIN).powf(2.0 / alpha) * t(src);
                        let coarse = fine * ch.gain_powers[DRAW_BUCKETS - 1];
                        let p = pos[from];
                        let mut window: Vec<NodeId> =
                            (0..n).rev().step_by(3).map(NodeId::new).collect();
                        window.extend([from, n, from, n + 7, 5, 5, usize::MAX].map(NodeId::new));
                        window.extend((0..n).step_by(5).map(NodeId::new));
                        let mut want = window.clone();
                        want.retain(|&to| {
                            let Some(&q) = pos.get(to.index()) else {
                                return false;
                            };
                            let (dx, dy) = (p.0 - q.0, p.1 - q.1);
                            let d2 = dx * dx + dy * dy;
                            if d2 > coarse * t(to) {
                                return false;
                            }
                            fade.is_none_or(|fade| {
                                let k = (fade.draw(src, to) * DRAW_BUCKETS as f64) as usize;
                                d2 <= fine * ch.gain_powers[k] * t(to)
                            })
                        });
                        let mut got = window.clone();
                        ch.prune(epoch, fade, src, reach, &mut got);
                        assert_eq!(
                            got, want,
                            "mask {mask} block {block} reach {reach} from {from}"
                        );
                        for &to in window.iter().filter(|&&to| to != src && to.index() < n) {
                            let d = ch.closed_form(&ch.view(epoch), fade, src, to);
                            assert!(
                                got.contains(&to) || d > reach,
                                "mask {mask} block {block} reach {reach}: ({from}, {to:?}) \
                                 at {d} dropped"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Pins the shadowing field's bits for one configuration over three
    /// blocks, next to the channel signature. A change to the field must
    /// bump [`FIELD_VERSION`], which moves the signature and makes old
    /// checkpoints fail to resume instead of replaying a different
    /// field; then both pins are updated together.
    #[test]
    fn shadow_field_bits_are_pinned_to_the_signature() {
        let ch = channel(16).with_shadowing(ShadowingConfig {
            sigma_db: 4.0,
            corr_dist: 3.0,
            time_corr: 0.7,
            seed: 77,
        });
        let bits: Vec<u64> = (0..3)
            .flat_map(|block| ch.epoch_at(block).shadow.clone())
            .map(f64::to_bits)
            .collect();
        assert_eq!(
            (FIELD_VERSION, ch.signature(), crate::draw::mix(&bits)),
            (2, 9_687_319_280_409_153_735, 15_842_272_315_176_972_517),
            "shadow field bits moved: bump FIELD_VERSION and re-pin"
        );
    }

    /// Pins the closed-form composite's bits for one storm channel over
    /// three blocks, next to the channel signature. A change to the
    /// kernel must bump [`KERNEL_VERSION`], which moves the signature
    /// and makes old checkpoints fail to resume instead of replaying a
    /// different field; then both pins are updated together.
    #[test]
    fn composite_bits_are_pinned_to_the_signature() {
        let pts: Vec<Point> = (0..16).map(|k| ((k % 4) as f64, (k / 4) as f64)).collect();
        let ch = layered_twin(true, 2.5, &pts, 9, 7);
        let bits: Vec<u64> = (0..3)
            .flat_map(|block| {
                let ch = &ch;
                (0..16).flat_map(move |i| {
                    (0..16).map(move |j| ch.decay_in_block(block, NodeId::new(i), NodeId::new(j)))
                })
            })
            .map(f64::to_bits)
            .collect();
        assert_eq!(
            (KERNEL_VERSION, ch.signature(), crate::draw::mix(&bits)),
            (1, 11_612_699_182_480_411_602, 10_461_550_440_317_924_435),
            "composite bits moved: bump KERNEL_VERSION and re-pin"
        );
    }

    /// A channel over `pts` with the layer subset `mask` (bit 0
    /// mobility, bit 1 shadowing, bit 2 fading), with or without the
    /// geometric declaration.
    fn layered_twin(
        geometric: bool,
        alpha: f64,
        pts: &[Point],
        seed: u64,
        mask: u8,
    ) -> TemporalChannel {
        let field = pts.to_vec();
        let base = LazyBackend::from_fn(pts.len(), move |i, j| {
            distance(field[i], field[j]).powf(alpha)
        });
        let mut ch = TemporalChannel::new(base, pts.to_vec(), alpha, 1);
        if geometric {
            ch = ch.with_geometric_hints();
        }
        if mask & 1 != 0 {
            ch = ch.with_mobility(MobilityConfig {
                model: MobilityModel::RandomWaypoint {
                    speed: 0.7,
                    pause: 1,
                },
                seed,
            });
        }
        if mask & 2 != 0 {
            ch = ch.with_shadowing(ShadowingConfig {
                sigma_db: 8.0,
                corr_dist: 2.0,
                time_corr: 0.5,
                seed: seed ^ 0xA5,
            });
        }
        if mask & 4 != 0 {
            ch = ch.with_fading(FadingConfig { seed: seed ^ 0x5A });
        }
        ch
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The closed form agrees with the layered product to a relative
        /// `1e-12` for every pair, over α in [1.5, 6], grid and random
        /// deployments, every layer subset and mobility blocks up to 80
        /// — and at one pair whose endpoint is moved onto (or next to)
        /// its partner, where both evaluations take the mobility clamp.
        #[test]
        fn closed_form_matches_the_layered_product(
            alpha in 1.5f64..6.0,
            random in 0u8..2,
            n in 4usize..30,
            spacing in 0.3f64..3.0,
            seed in 0u64..1000,
            mask in 0u8..8,
            blocks in proptest::prop::collection::vec(0u64..80, 3),
            drift in (0usize..30, 1usize..30, 0usize..4),
        ) {
            let pts: Vec<Point> = if random == 1 {
                (0..n)
                    .map(|k| {
                        let u = |w: u64| crate::draw::unit(crate::draw::mix(&[seed, k as u64, w]));
                        (20.0 * spacing * u(0), 20.0 * spacing * u(1))
                    })
                    .collect()
            } else {
                let side = (n as f64).sqrt().ceil() as usize;
                (0..n)
                    .map(|k| ((k % side) as f64 * spacing, (k / side) as f64 * spacing))
                    .collect()
            };
            let geometric = layered_twin(true, alpha, &pts, seed, mask);
            let layered = layered_twin(false, alpha, &pts, seed, mask);
            let close = |got: f64, want: f64| (got - want).abs() <= want * 1e-12;
            for &block in &blocks {
                for i in 0..n {
                    for j in 0..n {
                        let (p, q) = (NodeId::new(i), NodeId::new(j));
                        let got = geometric.decay_in_block(block, p, q);
                        let want = layered.decay_in_block(block, p, q);
                        proptest::prop_assert!(
                            close(got, want),
                            "block {} ({}, {}): {} vs {}", block, i, j, got, want
                        );
                    }
                }
            }
            if mask & 1 != 0 {
                let (i, j) = (drift.0 % n, (drift.0 + drift.1) % n);
                if i != j {
                    let block = blocks[0];
                    let mut epoch = geometric.epoch_at(block);
                    let offset = [0.0, 1e-12, 1e-7, 1e-3][drift.2] * spacing;
                    let pos = &mut epoch.mob.as_mut().expect("mobility state present").pos;
                    pos[j] = (pos[i].0 + offset, pos[i].1 - offset);
                    let fade = geometric.fade_key(block);
                    let (p, q) = (NodeId::new(i), NodeId::new(j));
                    let got = geometric.decay_with(Some(&epoch), fade, p, q);
                    let want = layered.layered(Some(&epoch), fade, p, q);
                    epoch.ready = false;
                    proptest::prop_assert!(
                        close(got, want),
                        "drift ({}, {}) by {}: {} vs {}", i, j, offset, got, want
                    );
                }
            }
        }
    }

    #[test]
    fn signatures_distinguish_configurations() {
        let a = channel(6).with_fading(FadingConfig { seed: 1 });
        let b = channel(6).with_fading(FadingConfig { seed: 2 });
        let c = channel(6).with_fading(FadingConfig { seed: 1 });
        assert_ne!(a.signature(), b.signature());
        assert_eq!(a.signature(), c.signature());
        assert_ne!(a.signature(), 0);
        assert_ne!(channel(6).signature(), a.signature());
    }
}
