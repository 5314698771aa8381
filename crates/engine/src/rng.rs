//! A small, fast, *serializable* RNG for the engine.
//!
//! The engine cannot use [`rand::rngs::StdRng`] because checkpointing
//! (see [`crate::Checkpoint`]) must capture the exact mid-stream state of
//! every per-node generator, and `StdRng` does not expose or serialize its
//! internals. [`EngineRng`] is xoshiro256++ — 32 bytes of state, full
//! `u64` output, and good enough statistical quality for simulation — with
//! a [`Codec`] impl so a checkpoint resumes bit-identically.

use rand::{Error, RngCore};

use crate::codec::{Codec, CodecError};

/// A serializable xoshiro256++ generator.
///
/// Implements [`rand::RngCore`], so all [`rand::Rng`] conveniences
/// (`gen_range`, `gen_bool`, ...) work on it, including through
/// `&mut dyn RngCore` as handed to node behaviors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EngineRng {
    s: [u64; 4],
}

/// The splitmix64 step used to expand a 64-bit seed into RNG state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl EngineRng {
    /// Creates a generator from a 64-bit seed (via splitmix64 expansion,
    /// the construction recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        EngineRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// A per-stream generator: mixes `stream` into `seed` so distinct
    /// streams (per-node, churn, fading, ...) are statistically
    /// independent while remaining reproducible from one master seed.
    pub fn for_stream(seed: u64, stream: u64) -> Self {
        Self::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Draws a geometric gap with success probability `p` (support `1, 2,
/// ...`): the number of ticks until the next success when each tick
/// succeeds independently with probability `p`. The event-driven
/// replacement for flipping a `p`-coin every slot.
///
/// # Panics
///
/// Panics unless `p` is in `(0, 1]`.
pub fn geometric_gap<R: rand::Rng + ?Sized>(rng: &mut R, p: f64) -> u64 {
    assert!(p > 0.0 && p <= 1.0, "geometric gap needs p in (0, 1]");
    if p >= 1.0 {
        return 1;
    }
    let u: f64 = rng.gen_range(0.0..1.0);
    // Inverse CDF; `1 - u` is in (0, 1] so the log is finite.
    let k = ((1.0 - u).ln() / (1.0 - p).ln()).floor() as u64;
    k.saturating_add(1)
}

impl Codec for EngineRng {
    fn encode(&self, out: &mut Vec<u8>) {
        for word in self.s {
            word.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = u64::decode(input)?;
        }
        Ok(EngineRng { s })
    }
}

impl RngCore for EngineRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_in_seed() {
        let mut a = EngineRng::seed_from_u64(7);
        let mut b = EngineRng::seed_from_u64(7);
        let mut c = EngineRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn streams_differ() {
        let mut a = EngineRng::for_stream(7, 0);
        let mut b = EngineRng::for_stream(7, 1);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn codec_round_trip_resumes_mid_stream() {
        let mut rng = EngineRng::seed_from_u64(3);
        for _ in 0..17 {
            rng.next_u64();
        }
        let bytes = crate::codec::to_bytes(&rng);
        let mut back: EngineRng = crate::codec::from_bytes(&bytes).unwrap();
        assert_eq!(rng, back);
        assert_eq!(rng.next_u64(), back.next_u64());
    }

    #[test]
    fn uniform_draws_cover_unit_interval() {
        let mut rng = EngineRng::seed_from_u64(1);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..1000 {
            let u: f64 = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&u));
            lo |= u < 0.25;
            hi |= u > 0.75;
        }
        assert!(lo && hi);
    }

    #[test]
    fn fill_bytes_handles_odd_lengths() {
        let mut rng = EngineRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
