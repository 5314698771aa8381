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
//! Per-block state (mobility positions, per-node shadowing field values)
//! lives in one epoch cache, recomputed at block boundaries; queries for
//! an earlier block rebuild deterministically from block 0, which is how
//! checkpoint restore replays without serialized channel state.
//!
//! # Reach candidates
//!
//! Over a geometric base (see [`TemporalChannel::with_geometric_hints`])
//! the composite is, up to rounding, `db^α · s_i · s_j · F_b(i, j)`:
//! `db` the current-block distance, `s_k` node `k`'s share of the
//! separable shadowing factor, `F_b` the block fade. A reach scan first
//! takes the base's hint window around the deployment, then drops every
//! candidate this product provably puts above the reach — a
//! multiply-only test with the fade at its clamp, then the pair's exact
//! fade draw for the survivors — so rows evaluate the full composite
//! only for pairs that can be in reach. The caller re-filters against
//! the exact field, so the bound changes cost, never values.

use std::fmt;
use std::sync::{Mutex, MutexGuard};

use decay_core::NodeId;
use decay_engine::{DecayBackend, Tick};
use decay_spaces::{distance, Point};

use crate::fading::{FadingConfig, DRAW_BUCKETS};
use crate::mobility::{MobilityConfig, MobilityEngine, MobilityModel, MobilityState};
use crate::shadowing::{ShadowField, ShadowingConfig};
use crate::temporal::{signature_of, TemporalBackend};

/// Decay clamp keeping composite values inside the decay-space contract
/// even under extreme factor stacking.
const MIN_DECAY: f64 = 1e-300;
const MAX_DECAY: f64 = 1e300;

/// Safety margin applied to hint-widening thresholds, absorbing the
/// floating-point slop between `f0 · (db/d0)^α` and the exact `db^α`
/// (and any `pow` monotonicity wobble). Hints may over-approximate
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
    /// fade's share of the per-pair reach bound (empty without fading).
    gain_powers: Box<[f64]>,
    epoch: Mutex<Epoch>,
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
            gain_powers: Box::new([]),
            epoch: Mutex::new(Epoch {
                block: 0,
                ready: false,
                mob: None,
                shadow: Vec::new(),
                reach_scale: Vec::new(),
                max_disp: 0.0,
                shadow_min: f64::INFINITY,
            }),
        }
    }

    /// Declares that the base backend realizes the *geometric* field of
    /// the deployment — `base.decay(i, j) = dist(points[i], points[j])^alpha`
    /// — enabling structured reach hints: instead of scanning all `n`
    /// nodes per (block, source), the per-block reach scan queries the
    /// base topology's hint window, widened conservatively for every
    /// attached layer (mobility displacement, the block's shadowing
    /// floor, the fading clamp), and then prunes that window pair by
    /// pair with a lower bound on the composite decay built from the
    /// current-block positions, per-node shadowing and the block fade
    /// (see the [module docs](self)). Only the survivors are evaluated
    /// exactly, so a row's `row_pairs` count is its exact evaluations,
    /// not the window width. Both steps over-approximate and the
    /// candidates are re-filtered against the exact instantaneous field,
    /// so they change cost, never values.
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
        self.shadowing = Some(ShadowField::new(config, &self.initial));
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
            let exp = -2.0 / self.alpha;
            epoch.reach_scale.clear();
            epoch
                .reach_scale
                .extend(values.iter().map(|&f| field.node_factor(f).powf(exp)));
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
        epoch
    }

    /// One composite decay evaluation under an already-locked epoch
    /// (`None` when neither mobility nor shadowing is attached). Shared
    /// by the per-pair and batched-row paths so both produce identical
    /// bits: same factors, same order.
    fn decay_with(&self, epoch: Option<&Epoch>, block: u64, from: NodeId, to: NodeId) -> f64 {
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
        if let Some(fade) = &self.fading {
            d *= fade.decay_factor(block, from, to);
        }
        d.clamp(MIN_DECAY, MAX_DECAY)
    }

    /// Drops every candidate whose block-`block` decay from `from` is
    /// provably above `reach` (`reach < MAX_DECAY`, geometric base).
    ///
    /// With a geometric base the composite is `db^α · s_i · s_j · F`
    /// up to rounding, so a pair is in reach only if
    /// `db² ≤ reach^(2/α) · g^(2/α) · t_i · t_j`, with `g = 1 / F` the
    /// fade's power gain. The first test takes `g` at its clamp and
    /// costs only multiplies. The second runs on its survivors with the
    /// pair's exact fade draw, reading `g^(2/α)` at the upper edge of
    /// the draw's bucket (see [`crate::fading::gain_powers`]): one hash
    /// and a lookup where the exact factor would cost a log and a
    /// power.
    ///
    /// `HINT_MARGIN` on the reach absorbs the rounding between this
    /// product and the composite's factor-by-factor evaluation. The
    /// bound stays sound because the composite's adjustments only raise
    /// a decay: the mobility clamp `db.max(d0 · 1e-6)` replaces `db` by
    /// something larger, and `MIN_DECAY` lifts tiny decays. Only
    /// `MAX_DECAY` can lower one, and the caller skips the filter when
    /// it could matter.
    fn prune(
        &self,
        epoch: Option<&Epoch>,
        block: u64,
        from: NodeId,
        reach: f64,
        candidates: &mut Vec<NodeId>,
    ) {
        let pos = epoch
            .and_then(|e| e.mob.as_ref())
            .map_or(&self.initial[..], |s| &s.pos[..]);
        let scale = epoch.map_or(&[][..], |e| &e.reach_scale[..]);
        let t = |k: NodeId| scale.get(k.index()).copied().unwrap_or(1.0);
        let fine = (reach * HINT_MARGIN).powf(2.0 / self.alpha) * t(from);
        let coarse = fine * self.gain_powers.last().copied().unwrap_or(1.0);
        let p = pos[from.index()];
        candidates.retain(|&to| {
            let Some(&q) = pos.get(to.index()) else {
                return false;
            };
            let (dx, dy) = (p.0 - q.0, p.1 - q.1);
            let d2 = dx * dx + dy * dy;
            let t_to = t(to);
            if d2 > coarse * t_to {
                return false;
            }
            self.fading.as_ref().is_none_or(|fade| {
                let k = (fade.draw(block, from, to) * DRAW_BUCKETS as f64) as usize;
                d2 <= fine * self.gain_powers[k] * t_to
            })
        });
    }
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
        if self.mobility.is_some() || self.shadowing.is_some() {
            let epoch = self.epoch_at(block);
            self.decay_with(Some(&epoch), block, from, to)
        } else {
            self.decay_with(None, block, from, to)
        }
    }

    fn decay_row_in_block(&self, block: u64, from: NodeId, targets: &[NodeId]) -> Vec<f64> {
        // One epoch solve (mobility positions, shadowing node values)
        // for the whole row, instead of one lock + lookup per pair.
        let epoch =
            (self.mobility.is_some() || self.shadowing.is_some()).then(|| self.epoch_at(block));
        targets
            .iter()
            .map(|&to| {
                if from == to {
                    0.0
                } else {
                    self.decay_with(epoch.as_deref(), block, from, to)
                }
            })
            .collect()
    }

    fn reach_candidates(&self, block: u64, from: NodeId, reach: f64) -> Option<Vec<NodeId>> {
        if !self.geometric {
            return None;
        }
        // Window budget in the decay domain: with a geometric base the base
        // decay times the mobility modulation is (up to rounding,
        // absorbed by HINT_MARGIN) the instantaneous distance raised to
        // α, so a node is in reach only when `db^α · S · F ≤ reach`.
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
        let mut candidates = self
            .base
            .hint_candidates(from, widened)
            .unwrap_or_else(|| self.base.potential_receivers(from, Some(widened)));
        // At `MAX_DECAY` and above the clamp can pull a decay *down*
        // into reach, which the product bound below does not model.
        if reach < MAX_DECAY {
            self.prune(epoch.as_deref(), block, from, reach, &mut candidates);
        }
        Some(candidates)
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
                s.sigma_db.to_bits(),
                s.corr_dist.to_bits(),
                s.time_corr.to_bits(),
                s.seed,
            ]);
        }
        if let Some(f) = &self.fading {
            words.extend([3, f.seed]);
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
                adapter.potential_receivers_at(block, NodeId::new(src), Some(100.0));
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
