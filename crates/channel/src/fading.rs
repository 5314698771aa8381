//! Block Rayleigh fading.
//!
//! Rayleigh amplitude fading makes the received *power* gain of a link an
//! exponential random variable with unit mean. In the block-fading
//! abstraction the gain holds for one coherence block and redraws
//! independently for the next — the standard regime between fast fading
//! (every symbol) and shadowing (many blocks). On the decay side a power
//! gain `g` divides the decay: `f_t = f / g`. Draws are random-access
//! hashes of `(seed, block, link)`, reciprocal (`(i, j)` and `(j, i)`
//! fade together), and clamped away from 0 and ∞ so the decay-space
//! contract (finite, strictly positive) survives the deepest fade.

use decay_core::NodeId;

use crate::draw::{mix, unit};

/// Stream tag for fading draws.
const STREAM_FADE: u64 = 23;

/// Power-gain clamp: a fade can bury a link ~90 dB or boost it ~10× but
/// never drives a decay to 0 or ∞. `MAX_GAIN` doubles as the sound
/// reach-widening slack for structured hints: a fade divides a decay by
/// at most `MAX_GAIN`, so a node outside `reach · MAX_GAIN` of the
/// unfaded field can never fade into reach.
const MIN_GAIN: f64 = 1e-9;
pub(crate) const MAX_GAIN: f64 = 1e1;

/// Block Rayleigh fading parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FadingConfig {
    /// Seed for the per-(block, link) gain draws.
    pub seed: u64,
}

impl FadingConfig {
    /// The multiplicative *decay* factor (`1 / power gain`) for the link
    /// in the given coherence block.
    pub(crate) fn decay_factor(&self, block: u64, from: NodeId, to: NodeId) -> f64 {
        1.0 / gain(self.draw(block, from, to))
    }

    /// The uniform draw in `[0, 1)` behind the link's fade in `block`;
    /// the power gain is the increasing function [`gain`] of it.
    pub(crate) fn draw(&self, block: u64, from: NodeId, to: NodeId) -> f64 {
        let (a, b) = if from.index() <= to.index() {
            (from.index(), to.index())
        } else {
            (to.index(), from.index())
        };
        unit(mix(&[self.seed, STREAM_FADE, block, a as u64, b as u64]))
    }
}

/// The clamped power gain for the uniform draw `u`: a unit-mean
/// exponential via inverse CDF (`1 - u` is in `(0, 1]`), increasing in
/// `u`.
fn gain(u: f64) -> f64 {
    (-(1.0 - u).ln()).clamp(MIN_GAIN, MAX_GAIN)
}

/// Buckets of the fade draw in [`gain_powers`]: a power of two, so
/// `u · DRAW_BUCKETS` is exact and bucket `k` holds exactly the draws
/// in `[k, k + 1) / DRAW_BUCKETS`.
pub(crate) const DRAW_BUCKETS: usize = 1024;

/// `gain^exp` at the upper edge of every draw bucket. Since the gain
/// increases with the draw, entry `⌊u · DRAW_BUCKETS⌋` bounds
/// `gain(u)^exp` from above for `exp > 0` — a pair-by-pair fade bound
/// that costs one hash and a lookup instead of a log and a power.
pub(crate) fn gain_powers(exp: f64) -> Box<[f64]> {
    (1..=DRAW_BUCKETS)
        .map(|k| gain(k as f64 / DRAW_BUCKETS as f64).powf(exp))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fades_are_reciprocal_and_block_constant() {
        let f = FadingConfig { seed: 5 };
        let a = f.decay_factor(3, NodeId::new(1), NodeId::new(7));
        let b = f.decay_factor(3, NodeId::new(7), NodeId::new(1));
        assert_eq!(a.to_bits(), b.to_bits(), "reciprocity");
        assert_eq!(
            a.to_bits(),
            f.decay_factor(3, NodeId::new(1), NodeId::new(7)).to_bits(),
            "determinism"
        );
        assert_ne!(
            a.to_bits(),
            f.decay_factor(4, NodeId::new(1), NodeId::new(7)).to_bits(),
            "fresh draw per block"
        );
    }

    #[test]
    fn gains_have_unit_mean_and_spread() {
        let f = FadingConfig { seed: 9 };
        let n = 4000u64;
        let gains: Vec<f64> = (0..n)
            .map(|b| 1.0 / f.decay_factor(b, NodeId::new(0), NodeId::new(1)))
            .collect();
        let mean = gains.iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.08, "mean gain {mean}");
        let deep = gains.iter().filter(|&&g| g < 0.1).count() as u64;
        // P(Exp(1) < 0.1) ≈ 9.5%: deep fades genuinely happen.
        assert!(deep > n / 20, "only {deep} deep fades in {n}");
        for g in gains {
            assert!((MIN_GAIN..=MAX_GAIN).contains(&g));
        }
    }

    #[test]
    fn gain_powers_bound_every_draw_in_their_bucket() {
        let exp = 0.8;
        let table = gain_powers(exp);
        for k in 0..20_000u64 {
            let u = unit(mix(&[k]));
            let bucket = (u * DRAW_BUCKETS as f64) as usize;
            assert!(gain(u).powf(exp) <= table[bucket], "draw {u}");
        }
        assert_eq!(table[DRAW_BUCKETS - 1], MAX_GAIN.powf(exp), "top bucket");
    }
}
