//! Spatially correlated log-normal shadowing with Gudmundson-style
//! exponential correlation.
//!
//! # Construction
//!
//! The field is a sum of [`COMPONENTS`] random sinusoids (a spectral,
//! or "random Fourier feature", realization):
//!
//! ```text
//! F(p, b) = M^(-1/2) · Σ_m [A_m(b) · cos(2π k_m·p) + B_m(b) · sin(2π k_m·p)]
//! ```
//!
//! with `M = COMPONENTS`, wave vectors `k_m` (in turns per unit length)
//! and coefficients `A_m`, `B_m`:
//!
//! - Each `k_m` is a pure hash of the seed, fixed for the field's
//!   lifetime. Its direction is uniform. Its length is drawn from the
//!   spectral density of the 2-D exponential covariance
//!   `exp(-d / d_corr)`, whose radial law in angular frequency `ω` has
//!   CDF `1 − (1 + d_corr² ω²)^(-1/2)`. Inverting it gives
//!   `ω = √((1 − u)^(-2) − 1) / d_corr` and `|k_m| = ω / 2π`. The `u`
//!   are stratified, one per `1/M` slice of `[0, 1)`, so every field
//!   covers the whole spectrum. `1 − u` is floored at [`MIN_TAIL`],
//!   which keeps the phase inside the range its rounding step handles
//!   exactly (see [`cos_sin_quarters`]).
//! - `A_m` and `B_m` are unit Gaussians, each an AR(1) process across
//!   coherence blocks with coefficient `time_corr`. They are evaluated
//!   by a truncated moving-average sum over random-access draws, so any
//!   block's field can be recomputed from scratch. That is what lets
//!   checkpoints skip shadowing state entirely.
//!
//! # Why it meets the contract
//!
//! Given the wave vectors the field is a linear combination of
//! independent unit Gaussians with squared weights summing to
//! `M^(-1) · Σ (cos² + sin²) = 1`, so every value is exactly Gaussian
//! with variance 1. Its covariance between `p` and `q` given the wave
//! vectors is `M^(-1) · Σ_m cos(2π k_m·(p − q))`. Averaged over seeds,
//! each stratum's `u` is uniform on its slice, so the strata together
//! sample the full spectral law and the expected covariance is the
//! characteristic function of that law: exactly `exp(-|p − q| / d_corr)`
//! (up to the `MIN_TAIL` floor, below `2^-12`). For one fixed seed the
//! realized correlation is a sum of `M` cosines and deviates from the
//! ensemble curve by about `1 / √(2M)` (≈ 0.125), the price of a
//! stateless `O(M)` per-node evaluation. The field is defined on all of
//! ℝ², so mobility can carry nodes anywhere without a bounding box.
//! At a fixed position the value is AR(1) across blocks with exactly
//! `time_corr` as lag-1 correlation, because every coefficient is.
//!
//! A link's shadowing loss in dB is
//! `sigma_db · (F(p_i) + F(p_j)) / √2` — unit-variance per endpoint,
//! combining to variance `sigma_db²` per link with reciprocal links
//! identical.

use std::f64::consts::{FRAC_PI_2, TAU};

use decay_spaces::Point;

use crate::draw::{gauss, mix, unit};

/// Stream tag for the wave-vector draws.
const STREAM_WAVE: u64 = 12;

/// Stream tag for the AR(1) coefficient draws.
const STREAM_COEFF: u64 = 13;

/// Sinusoids in the field. Fixed: the per-seed correlation residual is
/// about `1 / √(2 · COMPONENTS)`, and the per-node cost is linear in it.
const COMPONENTS: usize = 32;

/// Floor on `1 − u` in the radial draw. It caps `|k| · d_corr` at
/// `√(MIN_TAIL^-2 − 1) / 2π ≈ 652` turns, so a phase stays below the
/// `2^51` quarter turns [`cos_sin_quarters`] rounds exactly for every
/// position within about `8 · 10^11 · d_corr` of the origin, and it trims
/// less than `2^-12` of the spectrum.
const MIN_TAIL: f64 = 1.0 / 4096.0;

/// `1.5 · 2^52`: adding it rounds any `|x| < 2^51` to the nearest
/// integer and leaves that integer, two's complement, in the low
/// mantissa bits.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// Terms kept in the truncated AR(1) moving-average sum.
const MAX_AR_TERMS: u64 = 48;

/// Version of the field construction, folded into the channel
/// signature: bump it whenever [`ShadowField::node_values`] changes for
/// any configuration, so checkpoints taken over the old field fail to
/// resume instead of silently replaying a different one.
pub(crate) const FIELD_VERSION: u64 = 2;

/// Log-normal shadowing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowingConfig {
    /// Standard deviation of the per-link shadowing loss, in dB.
    pub sigma_db: f64,
    /// Decorrelation distance: correlation between two positions decays
    /// as `exp(-d / corr_dist)`.
    pub corr_dist: f64,
    /// AR(1) coefficient across coherence blocks, in `[0, 1)`; 0 draws
    /// independent coefficients every block.
    pub time_corr: f64,
    /// Seed for the wave vectors and coefficient processes.
    pub seed: u64,
}

/// The realized field: wave vectors plus the AR(1) machinery.
#[derive(Debug, Clone)]
pub(crate) struct ShadowField {
    config: ShadowingConfig,
    /// Wave vectors in quarter turns per unit length: the phase of
    /// component `m` at `p` is `k.0 · p.0 + k.1 · p.1` quarter turns.
    waves: [(f64, f64); COMPONENTS],
    /// `time_corr^d` MA coefficients, pre-normalized to unit variance.
    coeffs: Vec<f64>,
}

impl ShadowField {
    /// Builds the field.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma_db >= 0`, `corr_dist > 0`, and `time_corr`
    /// is in `[0, 1)`, all finite.
    pub(crate) fn new(config: ShadowingConfig) -> Self {
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
        let waves = std::array::from_fn(|m| {
            let draw = |which: u64| unit(mix(&[config.seed, STREAM_WAVE, m as u64, which]));
            let u = (m as f64 + draw(0)) / COMPONENTS as f64;
            let tail = (1.0 - u).max(MIN_TAIL);
            let omega = (tail.powi(-2) - 1.0).sqrt() / config.corr_dist;
            let k = omega / FRAC_PI_2;
            let heading = TAU * draw(1);
            (k * heading.cos(), k * heading.sin())
        });
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
            waves,
            coeffs,
        }
    }

    /// Coefficient process `j`'s AR(1) value at `block` (`A_m` is
    /// process `2m`, `B_m` process `2m + 1`). History indices wrap
    /// below block 0 (the draws are pure hashes, so "negative" history
    /// is just more deterministic noise) — every block sums the full
    /// coefficient window, keeping the process stationary from the very
    /// first block instead of ramping variance up over the MA depth.
    fn coefficient(&self, j: u64, block: u64) -> f64 {
        let seed = self.config.seed;
        self.coeffs
            .iter()
            .enumerate()
            .map(|(d, c)| c * gauss(mix(&[seed, STREAM_COEFF, j, block.wrapping_sub(d as u64)])))
            .sum()
    }

    /// Per-node field values for one block at the given positions — the
    /// per-epoch bulk recomputation the channel caches. The `2M`
    /// coefficients are drawn once per block, so the cost is
    /// `O(M · ar_terms + nodes · M)`.
    ///
    /// The per-node loop calls no libm and runs component by component
    /// over the coordinates, so it compiles to packed arithmetic: each
    /// term is a phase in quarter turns (two multiplies and an add)
    /// through [`cos_sin_quarters`]. Every node still sums its
    /// components in order `m = 0, 1, …`.
    pub(crate) fn node_values(&self, block: u64, positions: &[Point]) -> Vec<f64> {
        let scale = (COMPONENTS as f64).sqrt().recip();
        let (xs, ys): (Vec<f64>, Vec<f64>) = positions.iter().copied().unzip();
        let mut values = vec![0.0; positions.len()];
        for (m, &(kx, ky)) in self.waves.iter().enumerate() {
            let a = scale * self.coefficient(2 * m as u64, block);
            let b = scale * self.coefficient(2 * m as u64 + 1, block);
            for ((f, &x), &y) in values.iter_mut().zip(&xs).zip(&ys) {
                let (cos, sin) = cos_sin_quarters(kx * x + ky * y);
                *f += a * cos + b * sin;
            }
        }
        values
    }

    /// The multiplicative decay factor for a link between nodes with
    /// cached field values `fi` and `fj`:
    /// `10^(sigma_db · (fi + fj) / (√2 · 10))`.
    pub(crate) fn link_factor(&self, fi: f64, fj: f64) -> f64 {
        let x_db = self.config.sigma_db * (fi + fj) * std::f64::consts::FRAC_1_SQRT_2;
        10f64.powf(x_db / 10.0)
    }

    /// `ln s` for a node with field value `f`, where
    /// `s = 10^(sigma_db · f / (√2 · 10))` is the node's share of
    /// [`Self::link_factor`]. The link factor is separable,
    /// `link_factor(fi, fj) = s_i · s_j` up to rounding, which is what
    /// lets geometric channels evaluate a link from two per-node shares
    /// and per-pair reach bounds precompute one scale per node instead
    /// of one per link.
    fn ln_share(&self, f: f64) -> f64 {
        self.config.sigma_db * f * std::f64::consts::FRAC_1_SQRT_2 / 10.0 * std::f64::consts::LN_10
    }

    /// A node's share `s = exp(ln s)` of the link factor (see
    /// [`Self::ln_share`]): one `exp` per node and block.
    pub(crate) fn share(&self, f: f64) -> f64 {
        self.ln_share(f).exp()
    }

    /// A node's reach scale `s^(-2/α)` for the path-loss exponent
    /// `alpha` (see [`Self::ln_share`]). One `exp` per node: the bound
    /// it feeds carries its own rounding margin.
    pub(crate) fn reach_scale(&self, f: f64, alpha: f64) -> f64 {
        (-2.0 / alpha * self.ln_share(f)).exp()
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

/// `(cos φ, sin φ)` for the phase `φ = x · π/2`, `x` in quarter turns
/// with `|x| < 2^51`, without libm.
///
/// Adding [`ROUND`] rounds `x` to the nearest quadrant `q`, whose low
/// two bits select the quadrant, and leaves an exact remainder
/// `a ∈ [−π/4, π/4]`. Taylor polynomials through `a^10` and `a^9` give
/// `cos a` and `sin a` to within `2 · 10^-9`, and the quadrant turns
/// them into `cos φ` and `sin φ` by a swap and sign flips. Branch-free,
/// so a loop over it vectorizes.
#[inline]
fn cos_sin_quarters(x: f64) -> (f64, f64) {
    let rounded = x + ROUND;
    let q = rounded.to_bits();
    let a = (x - (rounded - ROUND)) * FRAC_PI_2;
    let z = a * a;
    let c = 1.0
        + z * (-1.0 / 2.0
            + z * (1.0 / 24.0
                + z * (-1.0 / 720.0 + z * (1.0 / 40_320.0 - z * (1.0 / 3_628_800.0)))));
    let s =
        a + a * z * (-1.0 / 6.0 + z * (1.0 / 120.0 + z * (-1.0 / 5_040.0 + z * (1.0 / 362_880.0))));
    // φ = qπ/2 + a: odd quadrants swap cos and sin; cos φ is negative
    // in quadrants 1 and 2, sin φ in quadrants 2 and 3.
    let (c, s) = if q & 1 == 0 { (c, s) } else { (s, c) };
    let cos = f64::from_bits(c.to_bits() ^ (((q ^ (q >> 1)) & 1) << 63));
    let sin = f64::from_bits(s.to_bits() ^ (((q >> 1) & 1) << 63));
    (cos, sin)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(side: usize, spacing: f64) -> Vec<Point> {
        (0..side * side)
            .map(|i| ((i % side) as f64 * spacing, (i / side) as f64 * spacing))
            .collect()
    }

    fn field(corr_dist: f64, time_corr: f64, seed: u64) -> ShadowField {
        ShadowField::new(ShadowingConfig {
            sigma_db: 6.0,
            corr_dist,
            time_corr,
            seed,
        })
    }

    #[test]
    fn field_is_deterministic_and_seed_sensitive() {
        let pts = grid(4, 1.0);
        let a = field(2.0, 0.7, 9).node_values(5, &pts);
        let b = field(2.0, 0.7, 9).node_values(5, &pts);
        let c = field(2.0, 0.7, 10).node_values(5, &pts);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn quarter_turn_cos_sin_matches_libm() {
        for i in -40_000..=40_000 {
            // Quadrant edges, their neighbourhoods and far phases.
            for x in [
                i as f64 / 1000.0,
                i as f64 * 0.5 + 0.5,
                i as f64 * 1e6 + 0.37,
            ] {
                let (c, s) = cos_sin_quarters(x);
                let phase = x * FRAC_PI_2;
                let tol = 2e-9 + x.abs() * 1e-15;
                assert!(
                    (c - phase.cos()).abs() < tol,
                    "cos at {x} quarter turns: {c}"
                );
                assert!(
                    (s - phase.sin()).abs() < tol,
                    "sin at {x} quarter turns: {s}"
                );
            }
        }
    }

    /// The quadrant select and polynomial agree with the same sum of
    /// sinusoids evaluated through libm, including far from the origin
    /// and at negative coordinates.
    #[test]
    fn node_values_match_a_libm_reference() {
        let f = field(3.0, 0.5, 21);
        let pts = [
            (0.0, 0.0),
            (1.5, -2.25),
            (-700.0, 13.0),
            (12_345.5, -9_876.0),
        ];
        let got = f.node_values(4, &pts);
        let scale = (COMPONENTS as f64).sqrt().recip();
        for (p, g) in pts.iter().zip(&got) {
            let want: f64 = (0..COMPONENTS)
                .map(|m| {
                    let (kx, ky) = f.waves[m];
                    let phase = FRAC_PI_2 * (kx * p.0 + ky * p.1);
                    let a = f.coefficient(2 * m as u64, 4);
                    let b = f.coefficient(2 * m as u64 + 1, 4);
                    scale * (a * phase.cos() + b * phase.sin())
                })
                .sum();
            let tol = 1e-6 * (1.0 + (p.0.abs() + p.1.abs()) / 1000.0);
            assert!((g - want).abs() < tol, "{p:?}: {g} vs {want}");
        }
    }

    /// The contract itself. Over 400 seeds (time_corr 0, block 0), the
    /// field's variance is 1 ± 0.1 and the correlation at lag
    /// `d ∈ {0.5, 1, 2, 4} · d_corr` is within ±0.1 of
    /// `exp(-d / d_corr)`, on a line and on a 32 × 32 grid. Lags run
    /// along the x axis; on the grid every row contributes its pairs.
    #[test]
    fn correlation_matches_the_exponential_contract() {
        // (deployment, row length, d_corr): lags 0.5/1/2/4 · d_corr are
        // whole multiples of the unit spacing.
        let line: Vec<Point> = (0..256).map(|i| (i as f64, 0.0)).collect();
        let cases = [("line", line, 256, 8.0), ("grid", grid(32, 1.0), 32, 2.0)];
        for (name, pts, row, d_corr) in cases {
            let lags: Vec<usize> = [0.5, 1.0, 2.0, 4.0]
                .iter()
                .map(|m| (m * d_corr) as usize)
                .collect();
            let (mut var, mut var_n) = (0.0, 0.0);
            let mut prod = vec![(0.0, 0.0); lags.len()];
            for seed in 0..400 {
                let v = field(d_corr, 0.0, 1000 + seed).node_values(0, &pts);
                var += v.iter().map(|x| x * x).sum::<f64>();
                var_n += v.len() as f64;
                for (lag, acc) in lags.iter().zip(&mut prod) {
                    for (i, x) in v.iter().enumerate() {
                        if i % row + lag < row {
                            acc.0 += x * v[i + lag];
                            acc.1 += 1.0;
                        }
                    }
                }
            }
            let var = var / var_n;
            assert!((var - 1.0).abs() < 0.1, "{name}: variance {var:.3}");
            for (lag, (sum, count)) in lags.iter().zip(&prod) {
                let rho = sum / count / var;
                let want = (-(*lag as f64) / d_corr).exp();
                assert!(
                    (rho - want).abs() < 0.1,
                    "{name}: lag {lag} (d_corr {d_corr}) rho {rho:.3}, want {want:.3}"
                );
            }
        }
    }

    /// Over 800 blocks at 16 nearly independent points (spacing 5 ·
    /// `d_corr`), each node's series has lag-1 correlation within ±0.1
    /// of `time_corr` and variance 1 ± 0.1 — the latter pins the
    /// truncated-MA normalization, which only acts when `time_corr > 0`.
    #[test]
    fn time_correlation_tracks_the_ar_coefficient() {
        let pts = grid(4, 10.0);
        for time_corr in [0.0, 0.5, 0.9] {
            let f = field(2.0, time_corr, 4);
            let series: Vec<Vec<f64>> = (0..800).map(|b| f.node_values(b, &pts)).collect();
            let (mut lagged, mut power) = (0.0, 0.0);
            for w in series.windows(2) {
                for (x, y) in w[0].iter().zip(&w[1]) {
                    lagged += x * y;
                    power += x * x;
                }
            }
            let lag1 = lagged / power;
            assert!(
                (lag1 - time_corr).abs() < 0.1,
                "AR({time_corr}) lag-1 {lag1:.3}"
            );
            let var = power / (799 * pts.len()) as f64;
            assert!((var - 1.0).abs() < 0.1, "AR({time_corr}) variance {var:.3}");
        }
    }

    #[test]
    fn link_factor_is_log_normal_around_one() {
        let pts = vec![(0.0, 0.0), (1.0, 0.0)];
        let f = field(2.0, 0.3, 2);
        let v = f.node_values(7, &pts);
        let fac = f.link_factor(v[0], v[1]);
        assert!(fac.is_finite() && fac > 0.0);
        // Zero field = exactly no shadowing.
        assert_eq!(f.link_factor(0.0, 0.0), 1.0);
        // Separable into per-node reach scales.
        let split = f.reach_scale(v[0], 2.5) * f.reach_scale(v[1], 2.5);
        let want = fac.powf(-2.0 / 2.5);
        assert!((split / want - 1.0).abs() < 1e-12, "{split} vs {want}");
    }
}
