//! Deterministic, random-access random draws.
//!
//! Every stochastic ingredient of a temporal channel — waypoint choices,
//! Lévy step lengths, shadowing wave vectors and coefficients, block
//! fading gains — is a *pure function* of `(seed, stream, coherence
//! block, entity)`. That is what makes the whole subsystem
//! checkpoint-free: a restored engine can re-evaluate any past or future
//! block and land on exactly the bits the uninterrupted run saw, with no
//! mid-stream RNG state to serialize. The
//! generator is a splitmix64 chain over the key words (the same mixer
//! `decay-engine`'s RNG seeds from), which passes through to uniform and
//! Gaussian variates.

/// One splitmix64 scramble step.
pub(crate) fn scramble(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The chain state before any key word: pi, for nothing-up-my-sleeve.
pub(crate) const MIX_START: u64 = 0x243F_6A88_85A3_08D3;

/// Absorbs key words into a chain state. A key shared by many draws is
/// absorbed once and extended per draw:
/// `scramble(absorb(absorb(MIX_START, a), b)) == mix(a ++ b)`.
pub(crate) fn absorb(mut h: u64, words: &[u64]) -> u64 {
    for &w in words {
        h = scramble(h ^ w);
    }
    h
}

/// Mixes key words into one well-scrambled 64-bit value: the absorbed
/// chain plus a final scramble. Order matters: `mix(&[a, b]) !=
/// mix(&[b, a])` in general.
pub(crate) fn mix(words: &[u64]) -> u64 {
    scramble(absorb(MIX_START, words))
}

/// A uniform draw in `[0, 1)` from a mixed key (53 mantissa bits).
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A standard Gaussian draw from a mixed key, via Box–Muller on two
/// decorrelated halves of the key stream.
pub(crate) fn gauss(h: u64) -> f64 {
    let u1 = unit(scramble(h ^ 0x5851_F42D_4C95_7F2D));
    let u2 = unit(scramble(h ^ 0x1405_7B7E_F767_814F));
    // 1 - u1 is in (0, 1], so the log is finite and non-positive.
    (-2.0 * (1.0 - u1).ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_pure_functions_of_the_key() {
        assert_eq!(mix(&[1, 2, 3]), mix(&[1, 2, 3]));
        assert_ne!(mix(&[1, 2, 3]), mix(&[3, 2, 1]));
        assert_ne!(mix(&[0]), mix(&[1]));
        assert_eq!(gauss(42).to_bits(), gauss(42).to_bits());
    }

    #[test]
    fn unit_covers_and_stays_in_range() {
        let (mut lo, mut hi) = (false, false);
        for k in 0..2000u64 {
            let u = unit(mix(&[k]));
            assert!((0.0..1.0).contains(&u));
            lo |= u < 0.1;
            hi |= u > 0.9;
        }
        assert!(lo && hi);
    }

    #[test]
    fn gauss_has_plausible_moments() {
        let n = 4000;
        let xs: Vec<f64> = (0..n).map(|k| gauss(mix(&[7, k]))).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.08, "mean {mean}");
        assert!((var - 1.0).abs() < 0.12, "var {var}");
    }
}
