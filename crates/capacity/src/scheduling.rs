//! SCHEDULING via repeated capacity: partition all links into feasible
//! slots (the classic reduction the paper cites for [16, 17]).

use decay_sinr::{AffectanceMatrix, LinkId};

/// A schedule: feasible slots plus links that cannot be scheduled at all
/// (they fail even alone, e.g. below the noise floor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The slots, in order; each is feasible.
    pub slots: Vec<Vec<LinkId>>,
    /// Links infeasible even as singletons.
    pub dropped: Vec<LinkId>,
}

impl Schedule {
    /// Number of slots (the schedule length `T`).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total scheduled links.
    pub fn scheduled(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }
}

/// Builds a schedule by repeatedly invoking a capacity subroutine on the
/// remaining links.
///
/// `capacity` receives the remaining candidates and returns a subset to
/// schedule this slot; if it returns an empty set while feasible links
/// remain, the scheduler falls back to scheduling one link alone (keeping
/// progress guaranteed regardless of the subroutine's quality).
pub fn schedule_by_capacity<F>(aff: &AffectanceMatrix, all: &[LinkId], mut capacity: F) -> Schedule
where
    F: FnMut(&[LinkId]) -> Vec<LinkId>,
{
    let mut remaining: Vec<LinkId> = Vec::new();
    let mut dropped: Vec<LinkId> = Vec::new();
    for &v in all {
        if aff.noise_factor(v).is_finite() && aff.is_feasible(&[v]) {
            remaining.push(v);
        } else {
            dropped.push(v);
        }
    }
    let mut slots: Vec<Vec<LinkId>> = Vec::new();
    while !remaining.is_empty() {
        let mut slot: Vec<LinkId> = capacity(&remaining)
            .into_iter()
            .filter(|v| remaining.contains(v))
            .collect();
        if slot.is_empty() || !aff.is_feasible(&slot) {
            // Guaranteed progress: schedule the first remaining link alone.
            slot = vec![remaining[0]];
        }
        remaining.retain(|v| !slot.contains(v));
        slots.push(slot);
    }
    Schedule { slots, dropped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_affectance;
    use decay_core::{DecaySpace, NodeId};
    use decay_sinr::{Link, LinkSet, PowerAssignment, SinrParams};

    fn parallel(m: usize, gap: f64) -> (DecaySpace, LinkSet, AffectanceMatrix) {
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
        let powers = PowerAssignment::unit().powers(&s, &ls).unwrap();
        let aff = AffectanceMatrix::build(&s, &ls, &powers, &SinrParams::default()).unwrap();
        (s, ls, aff)
    }

    #[test]
    fn schedule_covers_all_links_in_feasible_slots() {
        let (s, ls, aff) = parallel(14, 1.6);
        let all: Vec<LinkId> = ls.ids().collect();
        let sched = schedule_by_capacity(&aff, &all, |rem| {
            greedy_affectance(&s, &ls, &aff, Some(rem)).selected
        });
        assert_eq!(sched.scheduled() + sched.dropped.len(), all.len());
        assert!(sched.dropped.is_empty());
        for slot in &sched.slots {
            assert!(aff.is_feasible(slot));
        }
        // No duplicates across slots.
        let mut seen: Vec<LinkId> = sched.slots.iter().flatten().copied().collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), all.len());
    }

    #[test]
    fn sparse_instance_needs_one_slot() {
        let (s, ls, aff) = parallel(6, 50.0);
        let all: Vec<LinkId> = ls.ids().collect();
        let sched = schedule_by_capacity(&aff, &all, |rem| {
            greedy_affectance(&s, &ls, &aff, Some(rem)).selected
        });
        assert_eq!(sched.len(), 1);
    }

    #[test]
    fn degenerate_capacity_fn_still_terminates() {
        let (_, ls, aff) = parallel(5, 3.0);
        let all: Vec<LinkId> = ls.ids().collect();
        // A useless subroutine returning nothing: fallback singletons.
        let sched = schedule_by_capacity(&aff, &all, |_| Vec::new());
        assert_eq!(sched.len(), 5);
        assert_eq!(sched.scheduled(), 5);
    }

    #[test]
    fn noise_floor_losers_are_dropped() {
        let (_, ls, _) = parallel(3, 5.0);
        let s =
            DecaySpace::from_fn(6, |i, j| ((i as f64) - (j as f64)).abs().max(0.4) * 50.0).unwrap();
        let powers = PowerAssignment::unit().powers(&s, &ls).unwrap();
        let aff =
            AffectanceMatrix::build(&s, &ls, &powers, &SinrParams::new(2.0, 1.0).unwrap()).unwrap();
        let all: Vec<LinkId> = ls.ids().collect();
        let sched = schedule_by_capacity(&aff, &all, |rem| rem.to_vec());
        assert_eq!(sched.dropped.len() + sched.scheduled(), 3);
        assert!(!sched.dropped.is_empty());
    }
}
