//! The [`DecaySpace`] type: the paper's central object (Definition 2.1).
//!
//! A decay space is a pair `D = (V, f)` where `V` is a finite set of nodes
//! and `f : V × V → R≥0` assigns a positive *decay* to every ordered pair of
//! distinct nodes. The channel gain between a sender at `p` and a receiver
//! at `q` is `G = 1 / f(p, q)`. Decay spaces need not be symmetric and need
//! not satisfy any triangle inequality (they are *premetrics*).

use std::fmt;

use crate::error::DecayError;

/// Identifier of a node (point) in a [`DecaySpace`].
///
/// Node identifiers are dense indices `0..space.len()`; they are only
/// meaningful relative to the space that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node id from a raw index.
    pub const fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// The raw index of this node.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

/// How to symmetrize an asymmetric decay space; see
/// [`DecaySpace::symmetrized`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Symmetrization {
    /// Replace both directions by the smaller decay (stronger link wins).
    Min,
    /// Replace both directions by the larger decay (conservative).
    Max,
    /// Replace both directions by the arithmetic mean.
    Mean,
    /// Replace both directions by the geometric mean.
    GeometricMean,
}

/// A finite decay space `D = (V, f)` stored as a dense row-major matrix.
///
/// Invariants, enforced at construction (Definition 2.1):
///
/// * every decay is finite and non-negative;
/// * `f(p, q) = 0` if and only if `p = q`.
///
/// # Examples
///
/// ```
/// use decay_core::{DecaySpace, NodeId};
///
/// # fn main() -> Result<(), decay_core::DecayError> {
/// // Geometric path loss on three collinear points at positions 0, 1, 3
/// // with path-loss exponent alpha = 2: f(x, y) = d(x, y)^2.
/// let space = DecaySpace::from_fn(3, |i, j| {
///     let pos = [0.0_f64, 1.0, 3.0];
///     (pos[i] - pos[j]).abs().powi(2)
/// })?;
/// assert_eq!(space.len(), 3);
/// assert_eq!(space.decay(NodeId::new(0), NodeId::new(2)), 9.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecaySpace {
    n: usize,
    /// Row-major: `decays[i * n + j] = f(i, j)`.
    decays: Vec<f64>,
}

impl DecaySpace {
    /// Creates a decay space from a dense row-major matrix.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is not `n * n` entries, if any entry is
    /// negative, NaN, or infinite, if any off-diagonal entry is zero, or if
    /// any diagonal entry is nonzero (see [`DecayError`]).
    pub fn from_matrix(n: usize, decays: Vec<f64>) -> Result<Self, DecayError> {
        if n == 0 {
            return Err(DecayError::Empty);
        }
        if decays.len() != n * n {
            return Err(DecayError::DimensionMismatch {
                nodes: n,
                entries: decays.len(),
            });
        }
        for i in 0..n {
            for j in 0..n {
                let v = decays[i * n + j];
                if !v.is_finite() {
                    return Err(DecayError::NonFiniteDecay {
                        from: i,
                        to: j,
                        value: v,
                    });
                }
                if v < 0.0 {
                    return Err(DecayError::NegativeDecay {
                        from: i,
                        to: j,
                        value: v,
                    });
                }
                if i == j && v != 0.0 {
                    return Err(DecayError::NonZeroDiagonal { node: i, value: v });
                }
                if i != j && v == 0.0 {
                    return Err(DecayError::ZeroOffDiagonal { from: i, to: j });
                }
            }
        }
        Ok(DecaySpace { n, decays })
    }

    /// Creates a decay space by evaluating `f(i, j)` for every ordered pair.
    ///
    /// The diagonal is forced to zero regardless of what `f(i, i)` returns,
    /// matching the paper's remark that the value at a point is immaterial.
    ///
    /// # Errors
    ///
    /// Returns an error under the same conditions as [`Self::from_matrix`].
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(n: usize, mut f: F) -> Result<Self, DecayError> {
        let mut decays = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    decays[i * n + j] = f(i, j);
                }
            }
        }
        Self::from_matrix(n, decays)
    }

    /// Number of nodes in the space.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the space has no nodes. Always `false` for constructed spaces,
    /// provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterator over all node ids, `v0, v1, ...`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId::new)
    }

    /// The decay `f(from, to)` of a signal sent from `from` as received at
    /// `to`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    pub fn decay(&self, from: NodeId, to: NodeId) -> f64 {
        assert!(from.index() < self.n && to.index() < self.n);
        self.decays[from.index() * self.n + to.index()]
    }

    /// The channel gain `G(from, to) = 1 / f(from, to)`; infinite when
    /// `from == to`.
    #[inline]
    pub fn gain(&self, from: NodeId, to: NodeId) -> f64 {
        1.0 / self.decay(from, to)
    }

    /// The smaller of the two directed decays between `a` and `b`.
    ///
    /// Used as the canonical pairwise "proximity" in separation and packing
    /// predicates on possibly-asymmetric spaces.
    #[inline]
    pub fn pair_min(&self, a: NodeId, b: NodeId) -> f64 {
        self.decay(a, b).min(self.decay(b, a))
    }

    /// The larger of the two directed decays between `a` and `b`.
    #[inline]
    pub fn pair_max(&self, a: NodeId, b: NodeId) -> f64 {
        self.decay(a, b).max(self.decay(b, a))
    }

    /// Minimum decay over distinct ordered pairs.
    pub fn min_decay(&self) -> f64 {
        let mut m = f64::INFINITY;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    m = m.min(self.decays[i * self.n + j]);
                }
            }
        }
        m
    }

    /// Maximum decay over distinct ordered pairs.
    pub fn max_decay(&self) -> f64 {
        let mut m = 0.0_f64;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    m = m.max(self.decays[i * self.n + j]);
                }
            }
        }
        m
    }

    /// Whether `f(p, q) = f(q, p)` for all pairs, up to relative tolerance
    /// `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let a = self.decays[i * self.n + j];
                let b = self.decays[j * self.n + i];
                if !crate::util::approx_eq(a, b, tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns a symmetric copy of this space per the given rule.
    pub fn symmetrized(&self, rule: Symmetrization) -> DecaySpace {
        let n = self.n;
        let mut decays = self.decays.clone();
        for i in 0..n {
            for j in (i + 1)..n {
                let a = self.decays[i * n + j];
                let b = self.decays[j * n + i];
                let v = match rule {
                    Symmetrization::Min => a.min(b),
                    Symmetrization::Max => a.max(b),
                    Symmetrization::Mean => 0.5 * (a + b),
                    Symmetrization::GeometricMean => (a * b).sqrt(),
                };
                decays[i * n + j] = v;
                decays[j * n + i] = v;
            }
        }
        DecaySpace { n, decays }
    }

    /// Returns the sub-space induced by the given nodes, in the given order.
    ///
    /// # Errors
    ///
    /// Returns [`DecayError::NodeOutOfRange`] if any node is invalid, or
    /// [`DecayError::Empty`] if `nodes` is empty.
    pub fn restrict(&self, nodes: &[NodeId]) -> Result<DecaySpace, DecayError> {
        if nodes.is_empty() {
            return Err(DecayError::Empty);
        }
        for &v in nodes {
            if v.index() >= self.n {
                return Err(DecayError::NodeOutOfRange {
                    node: v.index(),
                    len: self.n,
                });
            }
        }
        let m = nodes.len();
        let mut decays = vec![0.0; m * m];
        for (i, &vi) in nodes.iter().enumerate() {
            for (j, &vj) in nodes.iter().enumerate() {
                if i != j {
                    decays[i * m + j] = self.decay(vi, vj);
                }
            }
        }
        Ok(DecaySpace { n: m, decays })
    }

    /// Applies a positive rescaling `f'(p, q) = scale * f(p, q)`.
    ///
    /// Rescaling leaves the metricity `ζ` and all separation structure
    /// unchanged but shifts absolute decay levels (useful for matching noise
    /// floors).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn scaled(&self, scale: f64) -> DecaySpace {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be positive and finite"
        );
        let decays = self.decays.iter().map(|&v| v * scale).collect();
        DecaySpace { n: self.n, decays }
    }

    /// Applies `f'(p, q) = f(p, q)^k` for `k > 0` (preserves orderings;
    /// multiplies metricity by `k` in geometric spaces).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not finite and positive.
    pub fn powered(&self, k: f64) -> DecaySpace {
        assert!(k.is_finite() && k > 0.0, "exponent must be positive");
        let decays = self
            .decays
            .iter()
            .map(|&v| if v == 0.0 { 0.0 } else { v.powf(k) })
            .collect();
        DecaySpace { n: self.n, decays }
    }

    /// Iterator over ordered pairs of distinct nodes with their decays.
    pub fn ordered_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.n).flat_map(move |i| {
            (0..self.n).filter_map(move |j| {
                if i == j {
                    None
                } else {
                    Some((NodeId::new(i), NodeId::new(j), self.decays[i * self.n + j]))
                }
            })
        })
    }

    /// View of the raw row-major decay matrix.
    pub fn as_matrix(&self) -> &[f64] {
        &self.decays
    }
}

impl fmt::Display for DecaySpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DecaySpace({} nodes, decay range [{:.3e}, {:.3e}])",
            self.n,
            self.min_decay(),
            self.max_decay()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_space(alpha: f64) -> DecaySpace {
        // Points at 0, 1, 3 with geometric path loss.
        let pos = [0.0_f64, 1.0, 3.0];
        DecaySpace::from_fn(3, |i, j| (pos[i] - pos[j]).abs().powf(alpha)).unwrap()
    }

    #[test]
    fn from_matrix_validates_dimensions() {
        let err = DecaySpace::from_matrix(2, vec![0.0, 1.0, 1.0]).unwrap_err();
        assert_eq!(
            err,
            DecayError::DimensionMismatch {
                nodes: 2,
                entries: 3
            }
        );
    }

    #[test]
    fn from_matrix_rejects_empty() {
        assert_eq!(
            DecaySpace::from_matrix(0, vec![]).unwrap_err(),
            DecayError::Empty
        );
    }

    #[test]
    fn from_matrix_rejects_zero_offdiag() {
        let err = DecaySpace::from_matrix(2, vec![0.0, 0.0, 1.0, 0.0]).unwrap_err();
        assert_eq!(err, DecayError::ZeroOffDiagonal { from: 0, to: 1 });
    }

    #[test]
    fn from_matrix_rejects_negative() {
        let err = DecaySpace::from_matrix(2, vec![0.0, -2.0, 1.0, 0.0]).unwrap_err();
        assert!(matches!(err, DecayError::NegativeDecay { .. }));
    }

    #[test]
    fn from_matrix_rejects_nan() {
        let err = DecaySpace::from_matrix(2, vec![0.0, f64::NAN, 1.0, 0.0]).unwrap_err();
        assert!(matches!(err, DecayError::NonFiniteDecay { .. }));
    }

    #[test]
    fn from_matrix_rejects_nonzero_diagonal() {
        let err = DecaySpace::from_matrix(2, vec![1.0, 2.0, 1.0, 0.0]).unwrap_err();
        assert_eq!(
            err,
            DecayError::NonZeroDiagonal {
                node: 0,
                value: 1.0
            }
        );
    }

    #[test]
    fn from_fn_forces_zero_diagonal() {
        let s = DecaySpace::from_fn(2, |_, _| 5.0).unwrap();
        assert_eq!(s.decay(NodeId::new(0), NodeId::new(0)), 0.0);
        assert_eq!(s.decay(NodeId::new(0), NodeId::new(1)), 5.0);
    }

    #[test]
    fn gain_is_reciprocal_of_decay() {
        let s = line_space(2.0);
        let g = s.gain(NodeId::new(0), NodeId::new(2));
        assert!((g - 1.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_decay() {
        let s = line_space(2.0);
        assert_eq!(s.min_decay(), 1.0);
        assert_eq!(s.max_decay(), 9.0);
    }

    #[test]
    fn symmetry_detection() {
        let s = line_space(2.0);
        assert!(s.is_symmetric(1e-12));
        let asym = DecaySpace::from_matrix(2, vec![0.0, 1.0, 2.0, 0.0]).unwrap();
        assert!(!asym.is_symmetric(1e-12));
    }

    #[test]
    fn symmetrization_rules() {
        let asym = DecaySpace::from_matrix(2, vec![0.0, 1.0, 4.0, 0.0]).unwrap();
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        assert_eq!(asym.symmetrized(Symmetrization::Min).decay(a, b), 1.0);
        assert_eq!(asym.symmetrized(Symmetrization::Max).decay(b, a), 4.0);
        assert_eq!(asym.symmetrized(Symmetrization::Mean).decay(a, b), 2.5);
        assert_eq!(
            asym.symmetrized(Symmetrization::GeometricMean).decay(a, b),
            2.0
        );
        assert!(asym.symmetrized(Symmetrization::Min).is_symmetric(0.0));
    }

    #[test]
    fn pair_min_max() {
        let asym = DecaySpace::from_matrix(2, vec![0.0, 1.0, 4.0, 0.0]).unwrap();
        assert_eq!(asym.pair_min(NodeId::new(0), NodeId::new(1)), 1.0);
        assert_eq!(asym.pair_max(NodeId::new(0), NodeId::new(1)), 4.0);
    }

    #[test]
    fn restrict_preserves_decays() {
        let s = line_space(1.0);
        let sub = s.restrict(&[NodeId::new(0), NodeId::new(2)]).unwrap();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.decay(NodeId::new(0), NodeId::new(1)), 3.0);
    }

    #[test]
    fn restrict_rejects_bad_nodes() {
        let s = line_space(1.0);
        assert!(matches!(
            s.restrict(&[NodeId::new(7)]),
            Err(DecayError::NodeOutOfRange { node: 7, len: 3 })
        ));
        assert!(matches!(s.restrict(&[]), Err(DecayError::Empty)));
    }

    #[test]
    fn scaled_and_powered() {
        let s = line_space(1.0);
        let a = NodeId::new(0);
        let c = NodeId::new(2);
        assert_eq!(s.scaled(2.0).decay(a, c), 6.0);
        assert_eq!(s.powered(2.0).decay(a, c), 9.0);
        assert_eq!(s.powered(2.0).decay(a, a), 0.0);
    }

    #[test]
    fn ordered_pairs_covers_all() {
        let s = line_space(1.0);
        let pairs: Vec<_> = s.ordered_pairs().collect();
        assert_eq!(pairs.len(), 6);
    }

    #[test]
    fn display_is_nonempty() {
        let s = line_space(2.0);
        assert!(!format!("{s}").is_empty());
        assert!(!format!("{}", NodeId::new(3)).is_empty());
    }

    #[test]
    fn debug_shows_contents() {
        let s = line_space(2.0);
        assert!(format!("{s:?}").contains("decays"));
    }
}
