//! Antenna patterns: isotropic, cardioid and sector gains.
//!
//! Anisotropic antennas are one of the effects the paper names as breaking
//! geometric decay; a pattern maps the departure (or arrival) angle to a
//! gain in dB that enters the link budget.

/// A transmit/receive antenna pattern.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AntennaPattern {
    /// Equal gain in all directions.
    #[default]
    Isotropic,
    /// Smooth heart-shaped pattern: `front_db` at the boresight fading to
    /// `back_db` directly behind.
    Cardioid {
        /// Boresight direction in radians.
        orientation: f64,
        /// Gain on the boresight, dB.
        front_db: f64,
        /// Gain directly behind, dB (typically negative).
        back_db: f64,
    },
    /// Idealized sector antenna: `in_db` within `±width/2` of the
    /// boresight, `out_db` elsewhere.
    Sector {
        /// Boresight direction in radians.
        orientation: f64,
        /// Angular width of the main lobe in radians.
        width: f64,
        /// Gain inside the lobe, dB.
        in_db: f64,
        /// Gain outside the lobe, dB.
        out_db: f64,
    },
}

impl AntennaPattern {
    /// The gain in dB toward the absolute direction `angle` (radians).
    pub fn gain_db(&self, angle: f64) -> f64 {
        match *self {
            AntennaPattern::Isotropic => 0.0,
            AntennaPattern::Cardioid {
                orientation,
                front_db,
                back_db,
            } => {
                let rel = normalize_angle(angle - orientation);
                // Cardioid blend: 1 at boresight, 0 behind.
                let t = 0.5 * (1.0 + rel.cos());
                back_db + t * (front_db - back_db)
            }
            AntennaPattern::Sector {
                orientation,
                width,
                in_db,
                out_db,
            } => {
                let rel = normalize_angle(angle - orientation);
                if rel.abs() <= width / 2.0 {
                    in_db
                } else {
                    out_db
                }
            }
        }
    }
}

/// Wraps an angle into `(-π, π]`.
fn normalize_angle(a: f64) -> f64 {
    let mut a = a % std::f64::consts::TAU;
    if a > std::f64::consts::PI {
        a -= std::f64::consts::TAU;
    } else if a <= -std::f64::consts::PI {
        a += std::f64::consts::TAU;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn isotropic_is_flat() {
        let a = AntennaPattern::Isotropic;
        assert_eq!(a.gain_db(0.0), 0.0);
        assert_eq!(a.gain_db(2.1), 0.0);
    }

    #[test]
    fn cardioid_front_and_back() {
        let a = AntennaPattern::Cardioid {
            orientation: 0.0,
            front_db: 6.0,
            back_db: -12.0,
        };
        assert!((a.gain_db(0.0) - 6.0).abs() < 1e-12);
        assert!((a.gain_db(PI) - -12.0).abs() < 1e-12);
        // Side: halfway blend.
        assert!((a.gain_db(FRAC_PI_2) - -3.0).abs() < 1e-12);
    }

    #[test]
    fn cardioid_respects_orientation() {
        let a = AntennaPattern::Cardioid {
            orientation: PI,
            front_db: 3.0,
            back_db: -9.0,
        };
        assert!((a.gain_db(PI) - 3.0).abs() < 1e-12);
        assert!((a.gain_db(0.0) - -9.0).abs() < 1e-12);
    }

    #[test]
    fn sector_lobe_boundaries() {
        let a = AntennaPattern::Sector {
            orientation: 0.0,
            width: FRAC_PI_2,
            in_db: 9.0,
            out_db: -20.0,
        };
        assert_eq!(a.gain_db(0.0), 9.0);
        assert_eq!(a.gain_db(FRAC_PI_2 / 2.0 - 1e-9), 9.0);
        assert_eq!(a.gain_db(FRAC_PI_2), -20.0);
        assert_eq!(a.gain_db(PI), -20.0);
    }

    #[test]
    fn angle_normalization_wraps() {
        assert!((normalize_angle(3.0 * PI) - PI).abs() < 1e-12);
        assert!((normalize_angle(-3.0 * PI) - PI).abs() < 1e-9);
        assert_eq!(normalize_angle(0.0), 0.0);
    }
}
