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

use crate::draw::{absorb, scramble, unit, MIX_START};

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
    /// The hash prefix every link's draw in `block` shares:
    /// `(seed, STREAM_FADE, block)` absorbed once, so a row or a reach
    /// window pays only its pairs' two words each.
    pub(crate) fn block_key(&self, block: u64) -> FadeKey {
        FadeKey(absorb(MIX_START, &[self.seed, STREAM_FADE, block]))
    }
}

/// One coherence block's fade draws (see [`FadingConfig::block_key`]).
/// A link's draw is `unit(mix(&[seed, STREAM_FADE, block, min, max]))`
/// over its endpoint indices, bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FadeKey(u64);

impl FadeKey {
    /// The uniform draw in `[0, 1)` behind the link's fade; the power
    /// gain is the increasing function [`gain`] of it.
    pub(crate) fn draw(self, from: NodeId, to: NodeId) -> f64 {
        unit(self.hash(from, to))
    }

    /// The link's scrambled key, endpoints ordered by `min`/`max`
    /// rather than a branch.
    pub(crate) fn hash(self, from: NodeId, to: NodeId) -> u64 {
        let (a, b) = (from.index(), to.index());
        scramble(absorb(self.0, &[a.min(b) as u64, a.max(b) as u64]))
    }

    /// The hashes of `from`'s row (see [`RowFade`]).
    pub(crate) fn row(self, from: NodeId) -> RowFade {
        let from = from.index() as u64;
        RowFade {
            key: self.0,
            from,
            prefix: absorb(self.0, &[from]),
        }
    }

    /// The multiplicative *decay* factor (`1 / power gain`) for the
    /// link.
    pub(crate) fn decay_factor(self, from: NodeId, to: NodeId) -> f64 {
        1.0 / gain(self.draw(from, to))
    }
}

/// One row's fade hashes: [`FadeKey::hash`] from a fixed `from`, bit
/// for bit. The key absorbs the lower endpoint first, so every partner
/// above `from` extends the chain state with `from` already absorbed,
/// computed once per row; a partner below `from` pays the full chain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowFade {
    key: u64,
    from: u64,
    /// `absorb(key, [from])`.
    prefix: u64,
}

impl RowFade {
    /// [`FadeKey::hash`] of `(from, to)`, for `to != from`.
    #[inline]
    pub(crate) fn hash(self, to: NodeId) -> u64 {
        let to = to.index() as u64;
        let chain = if to > self.from {
            scramble(self.prefix ^ to)
        } else {
            absorb(self.key, &[to, self.from])
        };
        scramble(chain)
    }
}

/// The bucket in [`gain_powers`] of the draw behind `hash`: its top
/// bits, which equal `⌊draw · DRAW_BUCKETS⌋` exactly because the draw
/// is `(hash >> 11) / 2^53`. Always below `DRAW_BUCKETS`.
#[inline]
pub(crate) fn bucket(hash: u64) -> usize {
    (hash >> (64 - DRAW_BUCKETS.trailing_zeros())) as usize
}

/// The clamped power gain of the link whose fade hash is `hash`; a
/// geometric channel divides its decay by it.
#[inline]
pub(crate) fn hash_gain(hash: u64) -> f64 {
    gain(unit(hash))
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
pub(crate) fn gain_powers(exp: f64) -> Box<[f64; DRAW_BUCKETS]> {
    Box::new(std::array::from_fn(|k| {
        gain((k + 1) as f64 / DRAW_BUCKETS as f64).powf(exp)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::draw::mix;

    #[test]
    fn fades_are_reciprocal_and_block_constant() {
        let f = FadingConfig { seed: 5 };
        let a = f.block_key(3).decay_factor(NodeId::new(1), NodeId::new(7));
        let b = f.block_key(3).decay_factor(NodeId::new(7), NodeId::new(1));
        assert_eq!(a.to_bits(), b.to_bits(), "reciprocity");
        assert_eq!(
            a.to_bits(),
            f.block_key(3)
                .decay_factor(NodeId::new(1), NodeId::new(7))
                .to_bits(),
            "determinism"
        );
        assert_ne!(
            a.to_bits(),
            f.block_key(4)
                .decay_factor(NodeId::new(1), NodeId::new(7))
                .to_bits(),
            "fresh draw per block"
        );
    }

    /// The keyed draw is the one-shot hash of the whole key, bit for
    /// bit, for either endpoint order.
    #[test]
    fn keyed_draw_is_the_full_key_hash() {
        for k in 0..2000u64 {
            let seed = mix(&[k, 1]);
            let block = mix(&[k, 2]) % 1_000_000;
            let i = (mix(&[k, 3]) % 50_000) as usize;
            let j = (mix(&[k, 4]) % 50_000) as usize;
            let (lo, hi) = (i.min(j) as u64, i.max(j) as u64);
            let want = unit(mix(&[seed, STREAM_FADE, block, lo, hi]));
            let got = FadingConfig { seed }
                .block_key(block)
                .draw(NodeId::new(i), NodeId::new(j));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "seed {seed} block {block} ({i}, {j})"
            );
        }
    }

    #[test]
    fn gains_have_unit_mean_and_spread() {
        let f = FadingConfig { seed: 9 };
        let n = 4000u64;
        let gains: Vec<f64> = (0..n)
            .map(|b| 1.0 / f.block_key(b).decay_factor(NodeId::new(0), NodeId::new(1)))
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

    /// The integer bucket is the float bucket of the draw, for random
    /// keys and endpoints in either order.
    #[test]
    fn bucket_is_the_scaled_draw() {
        for k in 0..20_000u64 {
            let key = FadingConfig { seed: mix(&[k, 1]) }.block_key(mix(&[k, 2]) % 1_000_000);
            let i = NodeId::new((mix(&[k, 3]) % 100_000) as usize);
            let j = NodeId::new((mix(&[k, 4]) % 100_000) as usize);
            let want = (key.draw(i, j) * DRAW_BUCKETS as f64) as usize;
            assert_eq!(bucket(key.hash(i, j)), want, "key {k}");
            assert_eq!(bucket(key.hash(j, i)), want, "key {k} reversed");
        }
    }

    /// A row's prefix-shared hash is the link's hash, bit for bit, with
    /// the row's source as either endpoint: partners above and below
    /// it, next to it and at the ends of the id range.
    #[test]
    fn row_hash_is_the_link_hash() {
        for k in 0..20_000u64 {
            let key = FadingConfig { seed: mix(&[k, 5]) }.block_key(mix(&[k, 6]) % 1_000_000);
            let i = (mix(&[k, 7]) % 100_000) as usize;
            let j = match k % 4 {
                0 => i + 1,
                1 => i.saturating_sub(1),
                2 => 0,
                _ => (mix(&[k, 8]) % 100_000) as usize,
            };
            if i == j {
                continue;
            }
            let (a, b) = (NodeId::new(i), NodeId::new(j));
            assert_eq!(key.row(a).hash(b), key.hash(a, b), "key {k} ({i}, {j})");
            assert_eq!(key.row(b).hash(a), key.hash(b, a), "key {k} ({j}, {i})");
        }
    }
}
