//! Deterministic, spatially correlated shadowing fields.
//!
//! Log-normal shadowing in static environments is *fixed in space*: two
//! measurements of the same link agree, and nearby links see correlated
//! shadowing. We model this with seeded lattice value noise (bilinear
//! interpolation of hashed lattice values, several octaves), which is
//! deterministic, smooth, and has tunable correlation length.

/// A deterministic correlated scalar field over the plane with values
/// roughly in `[-1, 1]` scaled by `amplitude`.
///
/// # Examples
///
/// ```
/// use decay_envsim::NoiseField;
///
/// let field = NoiseField::new(42, 8.0, 2.0);
/// let v = field.sample(3.0, 4.0);
/// // Deterministic: the same query always returns the same value.
/// assert_eq!(v, field.sample(3.0, 4.0));
/// assert!(v.abs() <= 2.0 + 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseField {
    seed: u64,
    /// Correlation length in meters: features of the field vary over
    /// roughly this scale.
    correlation_length: f64,
    /// Peak amplitude of the field.
    amplitude: f64,
}

impl NoiseField {
    /// Creates a field with the given seed, correlation length (meters)
    /// and amplitude.
    ///
    /// # Panics
    ///
    /// Panics unless `correlation_length > 0` and `amplitude >= 0`.
    pub fn new(seed: u64, correlation_length: f64, amplitude: f64) -> Self {
        assert!(
            correlation_length > 0.0,
            "correlation length must be positive"
        );
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        NoiseField {
            seed,
            correlation_length,
            amplitude,
        }
    }

    /// The amplitude of the field.
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// Samples the field at `(x, y)`.
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        // Three octaves of value noise: weights 4:2:1.
        let mut total = 0.0;
        let mut weight = 4.0;
        let mut freq = 1.0 / self.correlation_length;
        for octave in 0..3u64 {
            total += weight * self.value_noise(x * freq, y * freq, octave);
            weight *= 0.5;
            freq *= 2.0;
        }
        self.amplitude * total / 7.0
    }

    /// Single octave: bilinear interpolation of hashed lattice values in
    /// `[-1, 1]`.
    fn value_noise(&self, x: f64, y: f64, octave: u64) -> f64 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = x - x0;
        let fy = y - y0;
        // Smoothstep for C1 continuity.
        let sx = fx * fx * (3.0 - 2.0 * fx);
        let sy = fy * fy * (3.0 - 2.0 * fy);
        let (x0i, y0i) = (x0 as i64, y0 as i64);
        let v00 = self.lattice(x0i, y0i, octave);
        let v10 = self.lattice(x0i + 1, y0i, octave);
        let v01 = self.lattice(x0i, y0i + 1, octave);
        let v11 = self.lattice(x0i + 1, y0i + 1, octave);
        let top = v00 + sx * (v10 - v00);
        let bot = v01 + sx * (v11 - v01);
        top + sy * (bot - top)
    }

    /// Hashed lattice value in `[-1, 1]` (splitmix64 over the cell
    /// coordinates, the seed and the octave).
    fn lattice(&self, ix: i64, iy: i64, octave: u64) -> f64 {
        let mut h = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((ix as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add((iy as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(octave.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        // Map to [-1, 1].
        (h as f64 / u64::MAX as f64) * 2.0 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = NoiseField::new(7, 5.0, 1.0);
        let b = NoiseField::new(7, 5.0, 1.0);
        let c = NoiseField::new(8, 5.0, 1.0);
        assert_eq!(a.sample(1.5, 2.5), b.sample(1.5, 2.5));
        assert_ne!(a.sample(1.5, 2.5), c.sample(1.5, 2.5));
    }

    #[test]
    fn bounded_by_amplitude() {
        let f = NoiseField::new(3, 4.0, 6.0);
        for i in 0..50 {
            for j in 0..50 {
                let v = f.sample(i as f64 * 0.7, j as f64 * 1.3);
                assert!(v.abs() <= 6.0 + 1e-9, "out of range: {v}");
            }
        }
    }

    #[test]
    fn nearby_points_are_correlated_far_points_vary() {
        let f = NoiseField::new(11, 10.0, 1.0);
        // Within a tenth of the correlation length values barely move.
        let base = f.sample(25.0, 25.0);
        let near = f.sample(25.5, 25.2);
        assert!(
            (base - near).abs() < 0.3,
            "near delta {}",
            (base - near).abs()
        );
        // Across many correlation lengths the field takes diverse values.
        let samples: Vec<f64> = (0..40)
            .map(|i| f.sample(i as f64 * 37.0, i as f64 * 53.0))
            .collect();
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.5, "field too flat: range {}", max - min);
    }

    #[test]
    fn zero_amplitude_is_flat() {
        let f = NoiseField::new(5, 3.0, 0.0);
        assert_eq!(f.sample(10.0, 20.0), 0.0);
    }

    #[test]
    fn continuity_across_cells() {
        let f = NoiseField::new(9, 1.0, 1.0);
        // Sample just either side of a lattice line: values must be close.
        let a = f.sample(3.0 - 1e-7, 0.4);
        let b = f.sample(3.0 + 1e-7, 0.4);
        assert!((a - b).abs() < 1e-4, "discontinuity {}", (a - b).abs());
    }
}
