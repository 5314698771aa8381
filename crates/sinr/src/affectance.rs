//! SINR, affectance and feasibility (Sections 2.1 and 2.4).
//!
//! The *affectance* of link `l_w` on link `l_v` under power assignment `P`
//! normalizes the interference of `w`'s sender at `v`'s receiver by `v`'s
//! received signal:
//!
//! ```text
//! a_w(v) = min(1, c_v · (P_w / f_wv) · (f_vv / P_v)),   a_v(v) = 0,
//! ```
//!
//! where `c_v = β / (1 − β·N / S_v) > β` folds in the ambient noise `N` and
//! `S_v = P_v / f_vv` is the received signal. A set `S` is *feasible* when
//! every member's in-affectance `a_S(v) = Σ_{w∈S} a_w(v)` is at most 1 —
//! equivalent to every member meeting `SINR ≥ β` — and `K`-feasible when
//! `a_S(v) ≤ 1/K` (see DESIGN.md reading note 3).

use decay_core::DecaySpace;

use crate::error::SinrError;
use crate::link::{LinkId, LinkSet};

/// Physical-layer parameters: SINR threshold and ambient noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinrParams {
    beta: f64,
    noise: f64,
}

impl SinrParams {
    /// Creates validated parameters.
    ///
    /// # Errors
    ///
    /// Returns an error unless `beta >= 1` (the paper's hardware
    /// assumption) and `noise` is finite and non-negative.
    pub fn new(beta: f64, noise: f64) -> Result<Self, SinrError> {
        if !(beta.is_finite() && beta >= 1.0) {
            return Err(SinrError::InvalidBeta { value: beta });
        }
        if !(noise.is_finite() && noise >= 0.0) {
            return Err(SinrError::InvalidNoise { value: noise });
        }
        Ok(SinrParams { beta, noise })
    }

    /// Noiseless parameters with the given threshold.
    ///
    /// # Errors
    ///
    /// Returns an error unless `beta >= 1`.
    pub fn noiseless(beta: f64) -> Result<Self, SinrError> {
        Self::new(beta, 0.0)
    }

    /// The SINR threshold `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The ambient noise `N`.
    pub fn noise(&self) -> f64 {
        self.noise
    }
}

impl Default for SinrParams {
    /// `β = 1`, no noise: the cleanest theoretical setting.
    fn default() -> Self {
        SinrParams {
            beta: 1.0,
            noise: 0.0,
        }
    }
}

/// Precomputed pairwise affectances for one (space, links, powers, params)
/// combination.
///
/// Building the matrix is `O(m²)`; all queries afterwards are `O(1)` per
/// pair or `O(|S|)` per sum.
#[derive(Debug, Clone, PartialEq)]
pub struct AffectanceMatrix {
    m: usize,
    /// Row-major: `a[w * m + v] = a_w(v)` (capped at 1, the paper's form).
    a: Vec<f64>,
    /// Row-major uncapped affectances `c_v · I_wv / S_v`; sums of these are
    /// exactly equivalent to the SINR threshold.
    raw: Vec<f64>,
    /// Per-link noise factor `c_v`; infinite when the link cannot meet the
    /// threshold even without interference.
    c: Vec<f64>,
}

impl AffectanceMatrix {
    /// Builds the affectance matrix.
    ///
    /// # Errors
    ///
    /// Returns an error if `powers` has the wrong length or contains a
    /// non-positive value.
    pub fn build(
        space: &DecaySpace,
        links: &LinkSet,
        powers: &[f64],
        params: &SinrParams,
    ) -> Result<Self, SinrError> {
        let m = links.len();
        if powers.len() != m {
            return Err(SinrError::PowerLengthMismatch {
                links: m,
                powers: powers.len(),
            });
        }
        for (i, &p) in powers.iter().enumerate() {
            if !(p.is_finite() && p > 0.0) {
                return Err(SinrError::InvalidPower { link: i, value: p });
            }
        }
        let beta = params.beta();
        let noise = params.noise();
        // Noise factor c_v = beta / (1 - beta * N / S_v); infinite when the
        // signal cannot clear the noise floor at threshold.
        let mut c = vec![0.0; m];
        for (i, id) in links.ids().enumerate() {
            let fvv = links.decay_of(space, id);
            let s_v = powers[i] / fvv;
            let denom = 1.0 - beta * noise / s_v;
            c[i] = if denom > 0.0 {
                beta / denom
            } else {
                f64::INFINITY
            };
        }
        let mut a = vec![0.0; m * m];
        let mut raw = vec![0.0; m * m];
        for (wi, wid) in links.ids().enumerate() {
            let lw = links.link(wid);
            for (vi, vid) in links.ids().enumerate() {
                if wi == vi {
                    continue;
                }
                let lv = links.link(vid);
                let fvv = lv.decay(space);
                let fwv = space.decay(lw.sender, lv.receiver);
                let r = if fwv == 0.0 {
                    f64::INFINITY
                } else {
                    c[vi] * (powers[wi] / fwv) * (fvv / powers[vi])
                };
                raw[wi * m + vi] = r;
                a[wi * m + vi] = r.min(1.0);
            }
        }
        Ok(AffectanceMatrix { m, a, raw, c })
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.m
    }

    /// Whether the matrix is over an empty link set.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// The affectance `a_w(v)` of link `w` on link `v` (capped at 1, the
    /// paper's definition).
    #[inline]
    pub fn affectance(&self, w: LinkId, v: LinkId) -> f64 {
        self.a[w.index() * self.m + v.index()]
    }

    /// The uncapped affectance `c_v · I_wv / S_v`. Within feasible sets it
    /// coincides with [`Self::affectance`]; sums of uncapped values encode
    /// the SINR threshold exactly.
    #[inline]
    pub fn raw_affectance(&self, w: LinkId, v: LinkId) -> f64 {
        self.raw[w.index() * self.m + v.index()]
    }

    /// Uncapped in-affectance `Σ_{w ∈ set} raw a_w(v)`.
    pub fn in_affectance_raw(&self, set: &[LinkId], v: LinkId) -> f64 {
        set.iter().map(|&w| self.raw_affectance(w, v)).sum()
    }

    /// The noise factor `c_v` of link `v` (infinite when the link cannot
    /// meet the threshold alone).
    pub fn noise_factor(&self, v: LinkId) -> f64 {
        self.c[v.index()]
    }

    /// In-affectance `a_S(v) = Σ_{w ∈ set} a_w(v)`.
    pub fn in_affectance(&self, set: &[LinkId], v: LinkId) -> f64 {
        set.iter().map(|&w| self.affectance(w, v)).sum()
    }

    /// Out-affectance `a_v(S) = Σ_{w ∈ set} a_v(w)`.
    pub fn out_affectance(&self, v: LinkId, set: &[LinkId]) -> f64 {
        set.iter().map(|&w| self.affectance(v, w)).sum()
    }

    /// The worst in-affectance over members of `set` (0 for empty sets).
    /// A set is feasible iff this is at most 1 and every member clears the
    /// noise floor.
    pub fn worst_in_affectance(&self, set: &[LinkId]) -> f64 {
        set.iter()
            .map(|&v| self.in_affectance(set, v))
            .fold(0.0, f64::max)
    }

    /// Whether `set` is feasible: every member has finite noise factor and
    /// in-affectance at most 1 (with tiny tolerance for float noise).
    pub fn is_feasible(&self, set: &[LinkId]) -> bool {
        self.is_k_feasible(set, 1.0)
    }

    /// Whether `set` is `K`-feasible: uncapped in-affectance at most `1/K`
    /// (for `K = 1` this is exactly `SINR ≥ β` for every member).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not positive.
    pub fn is_k_feasible(&self, set: &[LinkId], k: f64) -> bool {
        assert!(k > 0.0, "feasibility strength K must be positive");
        set.iter().all(|&v| {
            self.c[v.index()].is_finite() && self.in_affectance_raw(set, v) <= 1.0 / k + 1e-12
        })
    }

    /// The largest `K` such that `set` is `K`-feasible, `+∞` for sets with
    /// no interference at all. Returns 0 when some member cannot clear the
    /// noise floor.
    pub fn feasibility_strength(&self, set: &[LinkId]) -> f64 {
        if set.iter().any(|&v| !self.c[v.index()].is_finite()) {
            return 0.0;
        }
        let worst = set
            .iter()
            .map(|&v| self.in_affectance_raw(set, v))
            .fold(0.0, f64::max);
        if worst == 0.0 {
            f64::INFINITY
        } else {
            1.0 / worst
        }
    }
}

/// The raw SINR of link `v` when exactly the links in `active` transmit
/// (Equation 1). `v` must be a member of `active`; its own sender is
/// excluded from the interference sum.
///
/// # Panics
///
/// Panics if `powers` has the wrong length.
pub fn sinr(
    space: &DecaySpace,
    links: &LinkSet,
    powers: &[f64],
    params: &SinrParams,
    active: &[LinkId],
    v: LinkId,
) -> f64 {
    assert_eq!(powers.len(), links.len(), "power vector length mismatch");
    let lv = links.link(v);
    let signal = powers[v.index()] / lv.decay(space);
    let mut interference = params.noise();
    for &w in active {
        if w == v {
            continue;
        }
        let lw = links.link(w);
        interference += powers[w.index()] / space.decay(lw.sender, lv.receiver);
    }
    if interference == 0.0 {
        f64::INFINITY
    } else {
        signal / interference
    }
}

/// Whether every link in `active` meets the SINR threshold when all of
/// `active` transmit simultaneously.
pub fn sinr_feasible(
    space: &DecaySpace,
    links: &LinkSet,
    powers: &[f64],
    params: &SinrParams,
    active: &[LinkId],
) -> bool {
    active
        .iter()
        .all(|&v| sinr(space, links, powers, params, active, v) >= params.beta() * (1.0 - 1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use crate::power::PowerAssignment;
    use decay_core::NodeId;

    /// Two parallel links on a line: senders at 0 and d, receivers at
    /// 1 and d+1; geometric decay with alpha = 2.
    fn parallel_pair(d: f64) -> (DecaySpace, LinkSet) {
        let pos = [0.0, 1.0, d, d + 1.0];
        let s = DecaySpace::from_fn(4, |i, j| (pos[i] - pos[j]).abs().powi(2)).unwrap();
        let ls = LinkSet::new(
            &s,
            vec![
                Link::new(NodeId::new(0), NodeId::new(1)),
                Link::new(NodeId::new(2), NodeId::new(3)),
            ],
        )
        .unwrap();
        (s, ls)
    }

    fn matrix(space: &DecaySpace, links: &LinkSet, params: &SinrParams) -> AffectanceMatrix {
        let powers = PowerAssignment::unit().powers(space, links).unwrap();
        AffectanceMatrix::build(space, links, &powers, params).unwrap()
    }

    #[test]
    fn far_links_are_feasible_close_links_are_not() {
        let params = SinrParams::default();
        let ids = [LinkId::new(0), LinkId::new(1)];

        let (s, ls) = parallel_pair(10.0);
        let a = matrix(&s, &ls, &params);
        assert!(a.is_feasible(&ids));

        // d = 2: the interfering sender sits at decay exactly equal to the
        // signal, SINR = beta exactly -> feasible at the threshold.
        let (s, ls) = parallel_pair(2.0);
        let a = matrix(&s, &ls, &params);
        assert!(a.is_feasible(&ids));

        // d = 1.8: interference exceeds the signal, infeasible. Note the
        // capped affectance would report a sum of exactly 1 here; the raw
        // (SINR-exact) sum correctly rejects the set.
        let (s, ls) = parallel_pair(1.8);
        let a = matrix(&s, &ls, &params);
        assert!(!a.is_feasible(&ids));
        assert!(a.worst_in_affectance(&ids) <= 1.0);
        assert!(a.in_affectance_raw(&ids, LinkId::new(0)) > 1.0);
    }

    #[test]
    fn noiseless_noise_factor_is_beta() {
        let params = SinrParams::noiseless(1.5).unwrap();
        let (s, ls) = parallel_pair(5.0);
        let a = matrix(&s, &ls, &params);
        assert_eq!(a.noise_factor(LinkId::new(0)), 1.5);
    }

    #[test]
    fn affectance_matches_sinr_threshold() {
        // For uncapped affectances, a_S(v) <= 1 iff SINR_v >= beta.
        let params = SinrParams::new(1.0, 0.01).unwrap();
        for d in [3.0, 4.0, 6.0, 12.0] {
            let (s, ls) = parallel_pair(d);
            let powers = PowerAssignment::unit().powers(&s, &ls).unwrap();
            let a = AffectanceMatrix::build(&s, &ls, &powers, &params).unwrap();
            let ids = [LinkId::new(0), LinkId::new(1)];
            let by_affectance = a.is_feasible(&ids);
            let by_sinr = sinr_feasible(&s, &ls, &powers, &params, &ids);
            assert_eq!(by_affectance, by_sinr, "d = {d}");
        }
    }

    #[test]
    fn singleton_below_noise_floor_is_infeasible() {
        // Signal 1/9; noise 1: SINR = 1/9 < 1.
        let params = SinrParams::new(1.0, 1.0).unwrap();
        let pos = [0.0_f64, 3.0];
        let s = DecaySpace::from_fn(2, |i, j| (pos[i] - pos[j]).abs().powi(2)).unwrap();
        let ls = LinkSet::new(&s, vec![Link::new(NodeId::new(0), NodeId::new(1))]).unwrap();
        let a = matrix(&s, &ls, &params);
        assert!(!a.noise_factor(LinkId::new(0)).is_finite());
        assert!(!a.is_feasible(&[LinkId::new(0)]));
        assert_eq!(a.feasibility_strength(&[LinkId::new(0)]), 0.0);
    }

    #[test]
    fn self_affectance_is_zero() {
        let (s, ls) = parallel_pair(5.0);
        let a = matrix(&s, &ls, &SinrParams::default());
        assert_eq!(a.affectance(LinkId::new(0), LinkId::new(0)), 0.0);
    }

    #[test]
    fn rearrangement_identity() {
        // sum_v a_S(v) == sum_v a_v(S) (both count every ordered pair).
        let (s, ls) = parallel_pair(4.0);
        let a = matrix(&s, &ls, &SinrParams::default());
        let set: Vec<LinkId> = ls.ids().collect();
        let sum_in: f64 = set.iter().map(|&v| a.in_affectance(&set, v)).sum();
        let sum_out: f64 = set.iter().map(|&v| a.out_affectance(v, &set)).sum();
        assert!((sum_in - sum_out).abs() < 1e-12);
    }

    #[test]
    fn k_feasibility_nests() {
        let (s, ls) = parallel_pair(20.0);
        let a = matrix(&s, &ls, &SinrParams::default());
        let ids: Vec<LinkId> = ls.ids().collect();
        let strength = a.feasibility_strength(&ids);
        assert!(strength > 1.0);
        assert!(a.is_k_feasible(&ids, strength * 0.999));
        assert!(!a.is_k_feasible(&ids, strength * 1.1));
    }

    #[test]
    fn empty_set_is_feasible_with_infinite_strength() {
        let (s, ls) = parallel_pair(5.0);
        let a = matrix(&s, &ls, &SinrParams::default());
        assert!(a.is_feasible(&[]));
        assert_eq!(a.feasibility_strength(&[]), f64::INFINITY);
    }

    #[test]
    fn sinr_with_no_interference_is_infinite_when_noiseless() {
        let (s, ls) = parallel_pair(5.0);
        let powers = PowerAssignment::unit().powers(&s, &ls).unwrap();
        let v = LinkId::new(0);
        let val = sinr(&s, &ls, &powers, &SinrParams::default(), &[v], v);
        assert!(val.is_infinite());
    }

    #[test]
    fn params_validation() {
        assert!(SinrParams::new(0.5, 0.0).is_err());
        assert!(SinrParams::new(1.0, -1.0).is_err());
        assert!(SinrParams::new(f64::NAN, 0.0).is_err());
        assert!(SinrParams::new(2.0, 0.5).is_ok());
    }

    #[test]
    fn capped_affectance_never_exceeds_one() {
        let (s, ls) = parallel_pair(1.5);
        let a = matrix(&s, &ls, &SinrParams::default());
        for w in ls.ids() {
            for v in ls.ids() {
                assert!(a.affectance(w, v) <= 1.0);
            }
        }
    }
}
