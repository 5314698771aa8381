//! Power assignments (Section 2.4).
//!
//! A power assignment `P` gives each link a transmission power. The paper
//! works with *monotone* assignments: whenever `l_v ≺ l_w` (i.e.
//! `f_vv ≤ f_ww`), both `P_v ≤ P_w` (longer links use no less power) and
//! `P_w / f_ww ≤ P_v / f_vv` (longer links receive no more signal). This
//! captures the standard *oblivious* family `P_v ∝ f_vv^τ` for
//! `τ ∈ [0, 1]`: uniform power (`τ = 0`), mean power (`τ = 1/2`) and
//! linear power (`τ = 1`).

use decay_core::DecaySpace;

use crate::error::SinrError;
use crate::link::LinkSet;

/// A rule assigning transmission powers to links.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerAssignment {
    /// Every sender uses the same power.
    Uniform {
        /// The common transmission power.
        power: f64,
    },
    /// Oblivious power `P_v = scale * f_vv^tau`.
    ///
    /// `tau = 0` is uniform, `tau = 1/2` is mean power, `tau = 1` is linear
    /// power; all `tau ∈ [0, 1]` are monotone.
    Oblivious {
        /// Exponent `τ` applied to the link decay.
        tau: f64,
        /// Multiplicative scale (the power of a unit-decay link).
        scale: f64,
    },
    /// Arbitrary per-link powers, e.g. produced by a power-control
    /// algorithm.
    Custom(Vec<f64>),
}

impl PowerAssignment {
    /// Uniform power 1 — the paper's default for Algorithm 1 and the
    /// hardness constructions.
    pub fn unit() -> Self {
        PowerAssignment::Uniform { power: 1.0 }
    }

    /// Linear power with the given scale: `P_v = scale * f_vv`, making
    /// every link receive the same signal strength.
    pub fn linear(scale: f64) -> Self {
        PowerAssignment::Oblivious { tau: 1.0, scale }
    }

    /// Mean power with the given scale: `P_v = scale * sqrt(f_vv)`.
    pub fn mean(scale: f64) -> Self {
        PowerAssignment::Oblivious { tau: 0.5, scale }
    }

    /// Evaluates the assignment to a per-link power vector.
    ///
    /// # Errors
    ///
    /// Returns an error if a computed or supplied power is not positive and
    /// finite, or if a custom vector has the wrong length.
    pub fn powers(&self, space: &DecaySpace, links: &LinkSet) -> Result<Vec<f64>, SinrError> {
        let m = links.len();
        let out: Vec<f64> = match self {
            PowerAssignment::Uniform { power } => vec![*power; m],
            PowerAssignment::Oblivious { tau, scale } => links
                .ids()
                .map(|id| scale * links.decay_of(space, id).powf(*tau))
                .collect(),
            PowerAssignment::Custom(v) => {
                if v.len() != m {
                    return Err(SinrError::PowerLengthMismatch {
                        links: m,
                        powers: v.len(),
                    });
                }
                v.clone()
            }
        };
        for (i, &p) in out.iter().enumerate() {
            if !(p.is_finite() && p > 0.0) {
                return Err(SinrError::InvalidPower { link: i, value: p });
            }
        }
        Ok(out)
    }
}

/// Whether a concrete power vector is *monotone* on the given links
/// (Section 2.4): for `f_vv ≤ f_ww`, both `P_v ≤ P_w` and
/// `P_w / f_ww ≤ P_v / f_vv`, up to relative tolerance `tol`.
pub fn is_monotone(space: &DecaySpace, links: &LinkSet, powers: &[f64], tol: f64) -> bool {
    let order = links.ids_by_decay(space);
    for (k, &v) in order.iter().enumerate() {
        for &w in &order[k + 1..] {
            let (pv, pw) = (powers[v.index()], powers[w.index()]);
            let (fv, fw) = (links.decay_of(space, v), links.decay_of(space, w));
            if pv > pw * (1.0 + tol) {
                return false;
            }
            if pw / fw > (pv / fv) * (1.0 + tol) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use decay_core::NodeId;

    fn setup() -> (DecaySpace, LinkSet) {
        let s = DecaySpace::from_fn(6, |i, j| ((i as f64) - (j as f64)).abs().powi(2)).unwrap();
        let ls = LinkSet::new(
            &s,
            vec![
                Link::new(NodeId::new(0), NodeId::new(1)), // decay 1
                Link::new(NodeId::new(0), NodeId::new(3)), // decay 9
                Link::new(NodeId::new(1), NodeId::new(5)), // decay 16
            ],
        )
        .unwrap();
        (s, ls)
    }

    #[test]
    fn uniform_powers() {
        let (s, ls) = setup();
        let p = PowerAssignment::unit().powers(&s, &ls).unwrap();
        assert_eq!(p, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn linear_powers_equalize_received_signal() {
        let (s, ls) = setup();
        let p = PowerAssignment::linear(2.0).powers(&s, &ls).unwrap();
        assert_eq!(p, vec![2.0, 18.0, 32.0]);
        // Received signal P_v / f_vv identical across links.
        for (i, id) in ls.ids().enumerate() {
            assert!((p[i] / ls.decay_of(&s, id) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn oblivious_family_is_monotone() {
        let (s, ls) = setup();
        for tau in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let p = PowerAssignment::Oblivious { tau, scale: 1.0 }
                .powers(&s, &ls)
                .unwrap();
            assert!(is_monotone(&s, &ls, &p, 1e-12), "tau = {tau}");
        }
    }

    #[test]
    fn super_linear_power_is_not_monotone() {
        let (s, ls) = setup();
        let p = PowerAssignment::Oblivious {
            tau: 1.5,
            scale: 1.0,
        }
        .powers(&s, &ls)
        .unwrap();
        assert!(!is_monotone(&s, &ls, &p, 1e-12));
    }

    #[test]
    fn decreasing_power_is_not_monotone() {
        let (s, ls) = setup();
        let p = vec![3.0, 2.0, 1.0];
        assert!(!is_monotone(&s, &ls, &p, 1e-12));
    }

    #[test]
    fn custom_validates_length_and_positivity() {
        let (s, ls) = setup();
        assert!(matches!(
            PowerAssignment::Custom(vec![1.0]).powers(&s, &ls),
            Err(SinrError::PowerLengthMismatch { .. })
        ));
        assert!(matches!(
            PowerAssignment::Custom(vec![1.0, -1.0, 1.0]).powers(&s, &ls),
            Err(SinrError::InvalidPower { link: 1, .. })
        ));
    }

    #[test]
    fn mean_power_is_geometric_midpoint() {
        let (s, ls) = setup();
        let p = PowerAssignment::mean(1.0).powers(&s, &ls).unwrap();
        assert!((p[1] - 3.0).abs() < 1e-12); // sqrt(9)
    }
}
