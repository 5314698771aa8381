//! Online capacity maximization ([15] in the paper's transfer list).
//!
//! Links arrive one at a time and must be irrevocably accepted or
//! rejected; the accepted set must be feasible after every decision. The
//! paper's Proposition 1 transfers the GEO-SINR online results to decay
//! spaces verbatim: the competitive ratio becomes a function of `ζ`
//! instead of `α`. Two admission rules are provided:
//!
//! * [`OnlineRule::GreedyFeasible`] — accept iff the union stays feasible.
//!   Simple, but a single early long link can lock out an entire later
//!   cluster.
//! * [`OnlineRule::BudgetedAdmission`] — the online analogue of
//!   Algorithm 1's test: accept iff the newcomer is `ζ/2`-separated from
//!   the accepted set, its own affectance budget `a_v(X) + a_X(v) ≤ 1/2`
//!   holds, and no already-accepted link's tracked in-affectance would
//!   exceed 1. Tracking in-affectance online replaces the offline final
//!   filter (which an online algorithm cannot apply), so every prefix of
//!   accepted links is feasible.
//!
//! Experiment E23 measures both rules' competitive ratios against the
//! exact offline optimum across arrival orders.

use decay_core::{DecaySpace, QuasiMetric};
use decay_sinr::{is_link_separated_from, AffectanceMatrix, LinkId, LinkSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Online admission rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OnlineRule {
    /// Accept iff the accepted set stays feasible.
    GreedyFeasible,
    /// Algorithm-1-style admission with online in-affectance tracking.
    BudgetedAdmission,
}

/// Outcome of an online run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineResult {
    /// The accepted links, in acceptance order.
    pub accepted: Vec<LinkId>,
    /// Arrivals examined (equals the arrival-order length).
    pub examined: usize,
    /// Arrivals rejected because they alone cannot clear the noise floor.
    pub hopeless: usize,
}

impl OnlineResult {
    /// Number of accepted links.
    pub fn size(&self) -> usize {
        self.accepted.len()
    }
}

/// Runs online capacity over the given arrival order.
///
/// Every prefix of the returned `accepted` set is feasible — the defining
/// guarantee of the online model.
///
/// # Panics
///
/// Panics if `arrivals` repeats a link.
pub fn online_capacity(
    links: &LinkSet,
    quasi: &QuasiMetric,
    aff: &AffectanceMatrix,
    arrivals: &[LinkId],
    rule: OnlineRule,
) -> OnlineResult {
    let mut seen = vec![false; links.len()];
    let zeta = quasi.zeta();
    let mut accepted: Vec<LinkId> = Vec::new();
    // Tracked in-affectance of each accepted link (BudgetedAdmission).
    let mut in_acc = vec![0.0_f64; links.len()];
    let mut hopeless = 0;
    for &v in arrivals {
        assert!(!seen[v.index()], "link {v} arrived twice");
        seen[v.index()] = true;
        if !aff.noise_factor(v).is_finite() {
            hopeless += 1;
            continue;
        }
        let admit = match rule {
            OnlineRule::GreedyFeasible => {
                accepted.push(v);
                let ok = aff.is_feasible(&accepted);
                if !ok {
                    accepted.pop();
                }
                ok
            }
            OnlineRule::BudgetedAdmission => {
                let separated = is_link_separated_from(quasi, links, v, &accepted, zeta / 2.0);
                let budget = aff.out_affectance(v, &accepted) + aff.in_affectance(&accepted, v);
                let safe = accepted
                    .iter()
                    .all(|&w| in_acc[w.index()] + aff.affectance(v, w) <= 1.0);
                let ok = separated && budget <= 0.5 && safe;
                if ok {
                    for &w in &accepted {
                        in_acc[w.index()] += aff.affectance(v, w);
                    }
                    in_acc[v.index()] = aff.in_affectance(&accepted, v);
                    accepted.push(v);
                }
                ok
            }
        };
        let _ = admit;
    }
    OnlineResult {
        accepted,
        examined: arrivals.len(),
        hopeless,
    }
}

/// Canonical arrival orders for online experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrivalOrder {
    /// By link id (the adversary picked the indexing).
    ById,
    /// Longest (largest decay) links first — hardest for greedy rules.
    DecreasingDecay,
    /// Shortest links first — the offline Algorithm 1 order.
    IncreasingDecay,
    /// Uniformly random, deterministic in the seed.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// Materializes an arrival order over all links.
pub fn arrival_order(space: &DecaySpace, links: &LinkSet, order: ArrivalOrder) -> Vec<LinkId> {
    match order {
        ArrivalOrder::ById => links.ids().collect(),
        ArrivalOrder::IncreasingDecay => links.ids_by_decay(space),
        ArrivalOrder::DecreasingDecay => {
            let mut ids = links.ids_by_decay(space);
            ids.reverse();
            ids
        }
        ArrivalOrder::Random { seed } => {
            let mut ids: Vec<LinkId> = links.ids().collect();
            ids.shuffle(&mut StdRng::seed_from_u64(seed));
            ids
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decay_core::metricity;
    use decay_core::{DecaySpace, NodeId};
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

    fn all_prefixes_feasible(aff: &AffectanceMatrix, accepted: &[LinkId]) -> bool {
        (1..=accepted.len()).all(|k| aff.is_feasible(&accepted[..k]))
    }

    #[test]
    fn greedy_feasible_accepts_everything_sparse() {
        let (s, ls, quasi, aff) = parallel(8, 40.0);
        for order in [
            ArrivalOrder::ById,
            ArrivalOrder::DecreasingDecay,
            ArrivalOrder::Random { seed: 3 },
        ] {
            let arr = arrival_order(&s, &ls, order);
            let res = online_capacity(&ls, &quasi, &aff, &arr, OnlineRule::GreedyFeasible);
            assert_eq!(res.size(), 8, "{order:?}");
            assert!(all_prefixes_feasible(&aff, &res.accepted));
        }
    }

    #[test]
    fn budgeted_admission_keeps_prefixes_feasible_dense() {
        let (s, ls, quasi, aff) = parallel(14, 1.4);
        for order in [
            ArrivalOrder::ById,
            ArrivalOrder::DecreasingDecay,
            ArrivalOrder::IncreasingDecay,
            ArrivalOrder::Random { seed: 11 },
        ] {
            let arr = arrival_order(&s, &ls, order);
            let res = online_capacity(&ls, &quasi, &aff, &arr, OnlineRule::BudgetedAdmission);
            assert!(
                all_prefixes_feasible(&aff, &res.accepted),
                "{order:?}: prefix infeasible"
            );
            assert!(res.examined == 14);
        }
    }

    #[test]
    fn greedy_feasible_prefixes_stay_feasible_dense() {
        let (s, ls, quasi, aff) = parallel(14, 1.4);
        let arr = arrival_order(&s, &ls, ArrivalOrder::DecreasingDecay);
        let res = online_capacity(&ls, &quasi, &aff, &arr, OnlineRule::GreedyFeasible);
        assert!(all_prefixes_feasible(&aff, &res.accepted));
        assert!(res.size() >= 1);
    }

    #[test]
    fn hopeless_links_are_counted_not_accepted() {
        // Strong noise: links cannot clear the floor alone.
        let mut pos = Vec::new();
        for i in 0..3 {
            pos.push(i as f64 * 5.0);
            pos.push(i as f64 * 5.0 + 3.0);
        }
        let s = DecaySpace::from_fn(6, |i, j| (pos[i] - pos[j]).abs().powi(2)).unwrap();
        let ls = LinkSet::new(
            &s,
            (0..3)
                .map(|i| Link::new(NodeId::new(2 * i), NodeId::new(2 * i + 1)))
                .collect(),
        )
        .unwrap();
        let powers = PowerAssignment::unit().powers(&s, &ls).unwrap();
        // Signal 1/9; noise 1 -> SINR 1/9 < 1: hopeless.
        let aff =
            AffectanceMatrix::build(&s, &ls, &powers, &SinrParams::new(1.0, 1.0).unwrap()).unwrap();
        let zeta = metricity(&s).zeta_at_least_one();
        let quasi = QuasiMetric::from_space_with_exponent(&s, zeta);
        let arr = arrival_order(&s, &ls, ArrivalOrder::ById);
        let res = online_capacity(&ls, &quasi, &aff, &arr, OnlineRule::GreedyFeasible);
        assert_eq!(res.size(), 0);
        assert_eq!(res.hopeless, 3);
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn duplicate_arrivals_are_rejected() {
        let (_s, ls, quasi, aff) = parallel(3, 10.0);
        let arr = vec![LinkId::new(0), LinkId::new(0)];
        online_capacity(&ls, &quasi, &aff, &arr, OnlineRule::GreedyFeasible);
    }

    #[test]
    fn arrival_orders_are_permutations() {
        let (s, ls, _, _) = parallel(9, 2.0);
        for order in [
            ArrivalOrder::ById,
            ArrivalOrder::DecreasingDecay,
            ArrivalOrder::IncreasingDecay,
            ArrivalOrder::Random { seed: 1 },
        ] {
            let mut arr = arrival_order(&s, &ls, order);
            arr.sort();
            let expect: Vec<LinkId> = ls.ids().collect();
            assert_eq!(arr, expect, "{order:?}");
        }
    }

    #[test]
    fn random_orders_differ_by_seed_but_are_deterministic() {
        let (s, ls, _, _) = parallel(12, 2.0);
        let a = arrival_order(&s, &ls, ArrivalOrder::Random { seed: 1 });
        let b = arrival_order(&s, &ls, ArrivalOrder::Random { seed: 1 });
        let c = arrival_order(&s, &ls, ArrivalOrder::Random { seed: 2 });
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
