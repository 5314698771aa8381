//! Spatially correlated log-normal shadowing with Gudmundson-style
//! exponential correlation.
//!
//! The shadowing field is realized as a lattice of Gaussian anchor
//! processes over the deployment bounding box, spaced one correlation
//! distance apart. A node's shadowing value is the normalized
//! `exp(-d/d_corr)`-weighted combination of the anchors around its
//! position, so nearby nodes see correlated shadowing that decorrelates
//! exponentially with separation — Gudmundson's model, realized as a
//! field instead of a per-link process so it stays consistent when
//! mobility moves nodes through it. Each anchor evolves across coherence
//! blocks as an AR(1) process with coefficient `time_corr`, evaluated by
//! a truncated moving-average sum over random-access draws: any block's
//! field can be recomputed from scratch, which is what lets checkpoints
//! skip shadowing state entirely.
//!
//! A link's shadowing loss in dB is
//! `sigma_db · (F(p_i) + F(p_j)) / √2` — unit-variance per endpoint,
//! combining to variance `sigma_db²` per link with reciprocal links
//! identical.

use decay_spaces::Point;

use crate::draw::{gauss, mix};

/// Stream tag for anchor draws.
const STREAM_ANCHOR: u64 = 11;

/// Maximum anchors per axis (the field degrades gracefully to coarser
/// effective correlation when the box spans many correlation lengths).
const MAX_ANCHORS_PER_AXIS: usize = 12;

/// Terms kept in the truncated AR(1) moving-average sum.
const MAX_AR_TERMS: u64 = 48;

/// Log-normal shadowing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowingConfig {
    /// Standard deviation of the per-link shadowing loss, in dB.
    pub sigma_db: f64,
    /// Decorrelation distance: correlation between two positions decays
    /// as `exp(-d / corr_dist)`.
    pub corr_dist: f64,
    /// AR(1) coefficient across coherence blocks, in `[0, 1)`; 0 draws
    /// an independent field every block.
    pub time_corr: f64,
    /// Seed for the anchor processes.
    pub seed: u64,
}

/// The realized field: anchor lattice plus the AR(1) machinery.
#[derive(Debug, Clone)]
pub(crate) struct ShadowField {
    config: ShadowingConfig,
    anchors: Vec<Point>,
    /// `time_corr^d` MA coefficients, pre-normalized to unit variance.
    coeffs: Vec<f64>,
}

impl ShadowField {
    /// Builds the field over the bounding box of `points`.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma_db >= 0`, `corr_dist > 0`, and `time_corr`
    /// is in `[0, 1)`, all finite.
    pub(crate) fn new(config: ShadowingConfig, points: &[Point]) -> Self {
        assert!(
            config.sigma_db.is_finite() && config.sigma_db >= 0.0,
            "sigma_db must be non-negative and finite"
        );
        assert!(
            config.corr_dist.is_finite() && config.corr_dist > 0.0,
            "corr_dist must be positive and finite"
        );
        assert!(
            (0.0..1.0).contains(&config.time_corr),
            "time_corr must be in [0, 1)"
        );
        let lo = (
            points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min),
            points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min),
        );
        let hi = (
            points.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max),
            points.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max),
        );
        // One anchor per correlation distance, padded half a cell past
        // the box so border nodes are surrounded, capped per axis.
        let counts = |span: f64| -> usize {
            ((span / config.corr_dist).ceil() as usize + 2).min(MAX_ANCHORS_PER_AXIS)
        };
        let (nx, ny) = (counts(hi.0 - lo.0), counts(hi.1 - lo.1));
        let step = |lo: f64, hi: f64, k: usize, i: usize| -> f64 {
            if k == 1 {
                (lo + hi) / 2.0
            } else {
                // Anchors span one correlation distance beyond each edge.
                let (a, b) = (lo - config.corr_dist, hi + config.corr_dist);
                a + (b - a) * i as f64 / (k - 1) as f64
            }
        };
        let mut anchors = Vec::with_capacity(nx * ny);
        for yi in 0..ny {
            for xi in 0..nx {
                anchors.push((step(lo.0, hi.0, nx, xi), step(lo.1, hi.1, ny, yi)));
            }
        }
        // AR(1) as a truncated MA: x_b = Σ_d c_d w_{b-d} with
        // c_d ∝ time_corr^d, normalized so Var x_b = 1.
        let rho = config.time_corr;
        let terms = if rho == 0.0 {
            1
        } else {
            let d = (1e-4f64.ln() / rho.ln()).ceil() as u64;
            d.clamp(1, MAX_AR_TERMS) + 1
        };
        let mut coeffs: Vec<f64> = (0..terms).map(|d| rho.powi(d as i32)).collect();
        let norm = coeffs.iter().map(|c| c * c).sum::<f64>().sqrt();
        for c in &mut coeffs {
            *c /= norm;
        }
        ShadowField {
            config,
            anchors,
            coeffs,
        }
    }

    /// Anchor `a`'s AR(1) value at `block`. History indices wrap below
    /// block 0 (the draws are pure hashes, so "negative" history is just
    /// more deterministic noise) — every block sums the full coefficient
    /// window, keeping the process stationary from the very first block
    /// instead of ramping variance up over the MA depth.
    fn anchor_value(&self, a: usize, block: u64) -> f64 {
        let seed = self.config.seed;
        self.coeffs
            .iter()
            .enumerate()
            .map(|(d, c)| {
                c * gauss(mix(&[
                    seed,
                    STREAM_ANCHOR,
                    a as u64,
                    block.wrapping_sub(d as u64),
                ]))
            })
            .sum()
    }

    /// The unit-variance field value at position `p`, combining
    /// precomputed per-anchor values for one block (normalized
    /// inverse-exponential-distance weighting).
    fn field_at(&self, anchor_values: &[f64], p: Point) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (anchor, value) in self.anchors.iter().zip(anchor_values) {
            let d = decay_spaces::distance(p, *anchor);
            let w = (-d / self.config.corr_dist).exp();
            num += w * value;
            den += w * w;
        }
        if den > 0.0 {
            num / den.sqrt()
        } else {
            0.0
        }
    }

    /// Per-node field values for one block at the given positions — the
    /// per-epoch bulk recomputation the channel caches. Anchor AR(1)
    /// values are materialized once per block, so the cost is
    /// `O(anchors · ar_terms + nodes · anchors)`, not
    /// `O(nodes · anchors · ar_terms)`.
    pub(crate) fn node_values(&self, block: u64, positions: &[Point]) -> Vec<f64> {
        let anchor_values: Vec<f64> = (0..self.anchors.len())
            .map(|a| self.anchor_value(a, block))
            .collect();
        positions
            .iter()
            .map(|&p| self.field_at(&anchor_values, p))
            .collect()
    }

    /// The multiplicative decay factor for a link between nodes with
    /// cached field values `fi` and `fj`:
    /// `10^(sigma_db · (fi + fj) / (√2 · 10))`.
    pub(crate) fn link_factor(&self, fi: f64, fj: f64) -> f64 {
        let x_db = self.config.sigma_db * (fi + fj) * std::f64::consts::FRAC_1_SQRT_2;
        10f64.powf(x_db / 10.0)
    }

    /// One endpoint's share of [`Self::link_factor`]:
    /// `10^(sigma_db · f / (√2 · 10))`. The link factor is separable,
    /// `link_factor(fi, fj) = node_factor(fi) · node_factor(fj)` up to
    /// rounding, which is what lets per-pair reach bounds precompute one
    /// scale per node instead of one per link.
    pub(crate) fn node_factor(&self, f: f64) -> f64 {
        let x_db = self.config.sigma_db * f * std::f64::consts::FRAC_1_SQRT_2;
        10f64.powf(x_db / 10.0)
    }

    /// A sound lower bound on [`Self::link_factor`] between a node with
    /// field value `fi` and *any* partner this block, given the block's
    /// minimum field value `f_min`: the factor is monotone in the
    /// partner's field value, so evaluating at the minimum bounds every
    /// pair, with a small margin shaved off against `pow` rounding.
    /// Structured reach hints divide the reach budget by this floor —
    /// the deeper the block's shadowing dips, the wider the candidate
    /// window must open.
    pub(crate) fn link_factor_floor(&self, fi: f64, f_min: f64) -> f64 {
        self.link_factor(fi, f_min) * 0.999
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(side: usize, spacing: f64) -> Vec<Point> {
        (0..side * side)
            .map(|i| ((i % side) as f64 * spacing, (i / side) as f64 * spacing))
            .collect()
    }

    fn field(corr_dist: f64, time_corr: f64, seed: u64, pts: &[Point]) -> ShadowField {
        ShadowField::new(
            ShadowingConfig {
                sigma_db: 6.0,
                corr_dist,
                time_corr,
                seed,
            },
            pts,
        )
    }

    #[test]
    fn field_is_deterministic_and_seed_sensitive() {
        let pts = grid(4, 1.0);
        let a = field(2.0, 0.7, 9, &pts).node_values(5, &pts);
        let b = field(2.0, 0.7, 9, &pts).node_values(5, &pts);
        let c = field(2.0, 0.7, 10, &pts).node_values(5, &pts);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn nearby_positions_correlate_more_than_distant_ones() {
        let pts: Vec<Point> = vec![(0.0, 0.0), (0.3, 0.0), (11.0, 0.0)];
        let f = field(2.0, 0.0, 4, &pts);
        let (mut near, mut far) = (0.0, 0.0);
        let blocks = 400;
        for b in 0..blocks {
            let v = f.node_values(b, &pts);
            near += v[0] * v[1];
            far += v[0] * v[2];
        }
        let (near, far) = (near / blocks as f64, far / blocks as f64);
        assert!(
            near > far + 0.2,
            "spatial correlation not decaying: near {near:.3} far {far:.3}"
        );
        assert!(
            near > 0.5,
            "adjacent positions barely correlated: {near:.3}"
        );
    }

    #[test]
    fn time_correlation_tracks_the_ar_coefficient() {
        let pts = vec![(0.0, 0.0), (1.0, 0.0)];
        let smooth = field(2.0, 0.9, 4, &pts);
        let rough = field(2.0, 0.0, 4, &pts);
        let lag1 = |f: &ShadowField| {
            let blocks = 400;
            let mut acc = 0.0;
            let mut prev = f.node_values(0, &pts)[0];
            for b in 1..blocks {
                let v = f.node_values(b, &pts)[0];
                acc += prev * v;
                prev = v;
            }
            acc / (blocks - 1) as f64
        };
        assert!(lag1(&smooth) > 0.6, "AR(0.9) lag-1 {:.3}", lag1(&smooth));
        assert!(lag1(&rough).abs() < 0.25, "AR(0) lag-1 {:.3}", lag1(&rough));
    }

    #[test]
    fn field_variance_is_near_unit() {
        let pts = grid(3, 3.0);
        let f = field(2.5, 0.5, 8, &pts);
        let blocks = 500;
        let mut acc = 0.0;
        for b in 0..blocks {
            let v = f.node_values(b, &pts);
            acc += v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64;
        }
        let var = acc / blocks as f64;
        assert!((var - 1.0).abs() < 0.25, "field variance {var:.3}");
    }

    #[test]
    fn link_factor_is_log_normal_around_one() {
        let pts = vec![(0.0, 0.0), (1.0, 0.0)];
        let f = field(2.0, 0.3, 2, &pts);
        let v = f.node_values(7, &pts);
        let fac = f.link_factor(v[0], v[1]);
        assert!(fac.is_finite() && fac > 0.0);
        // Zero field = exactly no shadowing.
        assert_eq!(f.link_factor(0.0, 0.0), 1.0);
        // Separable into per-node shares.
        let split = f.node_factor(v[0]) * f.node_factor(v[1]);
        assert!((split / fac - 1.0).abs() < 1e-12, "{split} vs {fac}");
    }
}
