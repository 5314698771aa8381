//! Amicability (Definition 4.2 and Theorem 4).
//!
//! A link set `L` is `h(ζ)`-amicable when every feasible subset `S ⊆ L`
//! contains a large core `S′` (`|S′| ≥ c·|S|/h(ζ)`) that nobody in `L`
//! affects much (`a_v(S′) ≤ c` for every `l_v ∈ L`, uniform power).
//! Theorem 4: bounded-growth decay spaces are `O(D·ζ²·2^{A′})`-amicable
//! with constant `c = (1 + 2e²)·D`.
//!
//! [`amicable_core`] runs the constructive proof: sparsify the feasible
//! set to a ζ-separated subset (Lemma 4.1), keep the members with
//! out-affectance at most 2, and report the shrinkage ratio and the worst
//! out-affectance any candidate link has on the core.

use decay_core::{DecaySpace, QuasiMetric};
use decay_sinr::{sparsify_feasible, AffectanceMatrix, LinkId, LinkSet, SinrError};

/// Outcome of the Theorem 4 construction on one feasible set.
#[derive(Debug, Clone, PartialEq)]
pub struct AmicabilityReport {
    /// Size of the input feasible set `S`.
    pub base_size: usize,
    /// The core `S′`.
    pub core: Vec<LinkId>,
    /// The shrinkage `|S| / |S′|` — an empirical sample of `h(ζ)`.
    pub shrinkage: f64,
    /// `max_{l_v ∈ L} a_v(S′)` — an empirical sample of the constant `c`.
    pub worst_out_affectance: f64,
}

/// Runs the Theorem 4 construction: returns the amicable core of a
/// feasible set and the measured constants.
///
/// `all_links` is the candidate universe `L` over which the
/// out-affectance constant is measured (pass the feasible set itself to
/// restrict).
///
/// # Errors
///
/// Returns an error when `feasible` is not actually feasible.
pub fn amicable_core(
    space: &DecaySpace,
    links: &LinkSet,
    quasi: &QuasiMetric,
    aff: &AffectanceMatrix,
    feasible: &[LinkId],
    all_links: &[LinkId],
    beta: f64,
) -> Result<AmicabilityReport, SinrError> {
    let _ = space; // the space is implicit in aff/quasi; kept for symmetry
    if !aff.is_feasible(feasible) {
        let worst = feasible
            .iter()
            .map(|&v| aff.in_affectance_raw(feasible, v))
            .fold(0.0, f64::max);
        return Err(SinrError::NotFeasible {
            worst_affectance: worst,
        });
    }
    if feasible.is_empty() {
        return Ok(AmicabilityReport {
            base_size: 0,
            core: Vec::new(),
            shrinkage: 1.0,
            worst_out_affectance: 0.0,
        });
    }
    // Lemma 4.1: zeta-separated classes; keep the largest.
    let classes = sparsify_feasible(aff, quasi, links, feasible, beta)?;
    let s_hat = classes.into_iter().max_by_key(Vec::len).unwrap_or_default();
    // Keep the low out-affectance half (Theorem 4 averaging step).
    let core: Vec<LinkId> = s_hat
        .iter()
        .copied()
        .filter(|&v| aff.out_affectance(v, &s_hat) <= 2.0)
        .collect();
    let worst = all_links
        .iter()
        .map(|&v| aff.out_affectance(v, &core))
        .fold(0.0, f64::max);
    let shrinkage = if core.is_empty() {
        f64::INFINITY
    } else {
        feasible.len() as f64 / core.len() as f64
    };
    Ok(AmicabilityReport {
        base_size: feasible.len(),
        core,
        shrinkage,
        worst_out_affectance: worst,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decay_core::{metricity, DecaySpace, NodeId};
    use decay_sinr::{Link, LinkSet, PowerAssignment, SinrParams};

    fn parallel(m: usize, gap: f64) -> (DecaySpace, LinkSet, QuasiMetric, AffectanceMatrix) {
        let mut pos = Vec::new();
        for i in 0..m {
            pos.push(i as f64 * gap);
            pos.push(i as f64 * gap + 1.0);
        }
        let s = DecaySpace::from_fn(pos.len(), |i, j| (pos[i] - pos[j]).abs().powi(2)).unwrap();
        let links: Vec<Link> = (0..m)
            .map(|i| Link::new(NodeId::new(2 * i), NodeId::new(2 * i + 1)))
            .collect();
        let ls = LinkSet::new(&s, links).unwrap();
        let zeta = metricity(&s).zeta_at_least_one();
        let quasi = QuasiMetric::from_space_with_exponent(&s, zeta);
        let powers = PowerAssignment::unit().powers(&s, &ls).unwrap();
        let aff = AffectanceMatrix::build(&s, &ls, &powers, &SinrParams::default()).unwrap();
        (s, ls, quasi, aff)
    }

    #[test]
    fn core_is_bounded_and_nonempty() {
        let (s, ls, quasi, aff) = parallel(12, 6.0);
        let all: Vec<LinkId> = ls.ids().collect();
        assert!(aff.is_feasible(&all));
        let rep = amicable_core(&s, &ls, &quasi, &aff, &all, &all, 1.0).unwrap();
        assert!(!rep.core.is_empty());
        assert!(rep.shrinkage >= 1.0);
        // Theorem 4's constant: (1 + 2e^2) * D; on a line D <= 2, so ~17.
        assert!(
            rep.worst_out_affectance <= 17.0,
            "worst out-affectance {}",
            rep.worst_out_affectance
        );
        // Core members keep low out-affectance within the core.
        for &v in &rep.core {
            assert!(aff.out_affectance(v, &rep.core) <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn infeasible_input_is_rejected() {
        let (s, ls, quasi, aff) = parallel(6, 1.2);
        let all: Vec<LinkId> = ls.ids().collect();
        if !aff.is_feasible(&all) {
            assert!(matches!(
                amicable_core(&s, &ls, &quasi, &aff, &all, &all, 1.0),
                Err(SinrError::NotFeasible { .. })
            ));
        }
    }

    #[test]
    fn empty_input_gives_empty_core() {
        let (s, ls, quasi, aff) = parallel(4, 10.0);
        let rep = amicable_core(&s, &ls, &quasi, &aff, &[], &[], 1.0).unwrap();
        assert_eq!(rep.base_size, 0);
        assert!(rep.core.is_empty());
    }

    #[test]
    fn shrinkage_stays_polynomial_in_zeta() {
        // Sweep alpha (= zeta); shrinkage should grow slowly, not blow up
        // exponentially.
        for alpha in [2.0_f64, 3.0, 4.0] {
            let mut pos = Vec::new();
            let m = 10;
            for i in 0..m {
                pos.push(i as f64 * 8.0);
                pos.push(i as f64 * 8.0 + 1.0);
            }
            let s =
                DecaySpace::from_fn(pos.len(), |i, j| (pos[i] - pos[j]).abs().powf(alpha)).unwrap();
            let links: Vec<Link> = (0..m)
                .map(|i| Link::new(NodeId::new(2 * i), NodeId::new(2 * i + 1)))
                .collect();
            let ls = LinkSet::new(&s, links).unwrap();
            let quasi = QuasiMetric::from_space_with_exponent(&s, alpha);
            let powers = PowerAssignment::unit().powers(&s, &ls).unwrap();
            let aff = AffectanceMatrix::build(&s, &ls, &powers, &SinrParams::default()).unwrap();
            let all: Vec<LinkId> = ls.ids().collect();
            let rep = amicable_core(&s, &ls, &quasi, &aff, &all, &all, 1.0).unwrap();
            assert!(
                rep.shrinkage <= 4.0 * alpha * alpha,
                "alpha {alpha}: shrinkage {}",
                rep.shrinkage
            );
        }
    }
}
