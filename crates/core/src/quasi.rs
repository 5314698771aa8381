//! Quasi-distances induced by a decay space (Section 2.2).
//!
//! Given a decay space `D = (V, f)` with metricity `ζ`, the quasi-distances
//! `d(p, q) = f(p, q)^{1/ζ}` form a *quasi-metric* `D′ = (V, d)` — a metric
//! except for the possible lack of symmetry. In the Euclidean setting
//! quasi-distances are simply the Euclidean distances. Proposition 1 (theory
//! transfer) works by applying metric-space results to `D′` with path-loss
//! constant `ζ(D)`.

use crate::metricity::metricity;
use crate::space::{DecaySpace, NodeId};

/// The quasi-metric `D′ = (V, d)` induced by a decay space, `d = f^{1/ζ}`.
///
/// # Examples
///
/// ```
/// use decay_core::{DecaySpace, QuasiMetric, NodeId};
///
/// # fn main() -> Result<(), decay_core::DecayError> {
/// let pos = [0.0_f64, 1.0, 3.0, 6.0];
/// // Geometric path loss with alpha = 2...
/// let space = DecaySpace::from_fn(4, |i, j| (pos[i] - pos[j]).powi(2).abs())?;
/// let quasi = QuasiMetric::from_space(&space);
/// // ...induces the underlying Euclidean line distances.
/// let d = quasi.distance(NodeId::new(0), NodeId::new(2));
/// assert!((d - 3.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuasiMetric {
    n: usize,
    zeta: f64,
    /// Row-major distances `d[i * n + j]`.
    dist: Vec<f64>,
}

impl QuasiMetric {
    /// Builds the induced quasi-metric using the space's exact metricity
    /// `ζ(D)` (clamped to at least 1).
    pub fn from_space(space: &DecaySpace) -> Self {
        let zeta = metricity(space).zeta_at_least_one();
        Self::from_space_with_exponent(space, zeta)
    }

    /// Builds quasi-distances `d = f^{1/ζ}` for a caller-supplied exponent.
    ///
    /// Useful when `ζ` is already known (e.g. geometric path loss, where
    /// `ζ = α`), or when probing non-minimal exponents.
    ///
    /// # Panics
    ///
    /// Panics if `zeta` is not finite and positive.
    pub fn from_space_with_exponent(space: &DecaySpace, zeta: f64) -> Self {
        assert!(zeta.is_finite() && zeta > 0.0, "zeta must be positive");
        let n = space.len();
        let t = 1.0 / zeta;
        let mut dist = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    dist[i * n + j] = space.decay(NodeId::new(i), NodeId::new(j)).powf(t);
                }
            }
        }
        QuasiMetric { n, zeta, dist }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the quasi-metric is over an empty node set (never true for
    /// instances built from a [`DecaySpace`]).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The exponent `ζ` used to induce these distances.
    pub fn zeta(&self) -> f64 {
        self.zeta
    }

    /// The quasi-distance `d(from, to) = f(from, to)^{1/ζ}`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    pub fn distance(&self, from: NodeId, to: NodeId) -> f64 {
        assert!(from.index() < self.n && to.index() < self.n);
        self.dist[from.index() * self.n + to.index()]
    }

    /// The smaller of the two directed quasi-distances between `a` and `b`.
    #[inline]
    pub fn pair_min(&self, a: NodeId, b: NodeId) -> f64 {
        self.distance(a, b).min(self.distance(b, a))
    }

    /// Maximum relative triangle-inequality violation over ordered triples:
    /// positive values mean `d` is *not* a quasi-metric at this exponent.
    pub fn triangle_violation(&self) -> f64 {
        let mut worst = f64::NEG_INFINITY;
        for x in 0..self.n {
            for y in 0..self.n {
                if x == y {
                    continue;
                }
                let c = self.dist[x * self.n + y];
                for z in 0..self.n {
                    if z == x || z == y {
                        continue;
                    }
                    let a = self.dist[x * self.n + z];
                    let b = self.dist[z * self.n + y];
                    let viol = (c - (a + b)) / c.max(1e-300);
                    worst = worst.max(viol);
                }
            }
        }
        if worst == f64::NEG_INFINITY {
            0.0
        } else {
            worst
        }
    }

    /// Whether `d` is symmetric within relative tolerance `tol` — i.e.
    /// whether `D′` is a genuine metric rather than only a quasi-metric.
    pub fn is_metric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let a = self.dist[i * self.n + j];
                let b = self.dist[j * self.n + i];
                if !crate::util::approx_eq(a, b, tol) {
                    return false;
                }
            }
        }
        self.triangle_violation() <= tol
    }

    /// Converts the quasi-metric back into a decay space with path-loss
    /// exponent `alpha`: `f(p, q) = d(p, q)^alpha`.
    ///
    /// Composing [`QuasiMetric::from_space`] with this at `alpha = ζ`
    /// round-trips the original space. This is the mechanical half of
    /// Proposition 1 (theory transfer).
    pub fn to_decay_space(&self, alpha: f64) -> DecaySpace {
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
        DecaySpace::from_fn(self.n, |i, j| self.dist[i * self.n + j].powf(alpha))
            .expect("quasi-metric distances are positive off-diagonal")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo_points(alpha: f64) -> DecaySpace {
        let pos = [0.0_f64, 1.0, 2.5, 4.0, 8.0];
        DecaySpace::from_fn(pos.len(), |i, j| (pos[i] - pos[j]).abs().powf(alpha)).unwrap()
    }

    #[test]
    fn induced_distances_recover_geometry() {
        let s = geo_points(3.0);
        let q = QuasiMetric::from_space(&s);
        assert!((q.zeta() - 3.0).abs() < 1e-6);
        let d = q.distance(NodeId::new(0), NodeId::new(4));
        assert!((d - 8.0).abs() < 1e-6);
    }

    #[test]
    fn induced_quasi_metric_satisfies_triangle() {
        let s = DecaySpace::from_fn(7, |i, j| ((i * 5 + j * 11) % 13 + 1) as f64).unwrap();
        let q = QuasiMetric::from_space(&s);
        assert!(q.triangle_violation() <= 1e-9);
    }

    #[test]
    fn symmetric_space_induces_metric() {
        let s = geo_points(2.0);
        let q = QuasiMetric::from_space(&s);
        assert!(q.is_metric(1e-9));
    }

    #[test]
    fn asymmetric_space_induces_quasi_metric_only() {
        let s = DecaySpace::from_matrix(
            3,
            vec![
                0.0, 1.0, 2.0, //
                2.0, 0.0, 1.0, //
                1.0, 2.0, 0.0,
            ],
        )
        .unwrap();
        let q = QuasiMetric::from_space(&s);
        assert!(!q.is_metric(1e-9));
        assert!(q.triangle_violation() <= 1e-9);
    }

    #[test]
    fn roundtrip_through_decay_space() {
        let s = geo_points(4.0);
        let q = QuasiMetric::from_space(&s);
        let back = q.to_decay_space(q.zeta());
        for (i, j, f) in s.ordered_pairs() {
            let g = back.decay(i, j);
            assert!(crate::util::approx_eq(f, g, 1e-6), "({i}, {j}): {f} vs {g}");
        }
    }

    #[test]
    fn pair_min_uses_smaller_direction() {
        let s = DecaySpace::from_matrix(2, vec![0.0, 16.0, 81.0, 0.0]).unwrap();
        let q = QuasiMetric::from_space_with_exponent(&s, 2.0);
        assert!((q.pair_min(NodeId::new(0), NodeId::new(1)) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zeta must be positive")]
    fn zero_exponent_panics() {
        let s = geo_points(2.0);
        QuasiMetric::from_space_with_exponent(&s, 0.0);
    }
}
