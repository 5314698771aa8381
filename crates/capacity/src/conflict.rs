//! Conflict-graph scheduling versus SINR scheduling ([60, 61] in the
//! paper's transfer list).
//!
//! Conflict (or "protocol-model") schedulers color a pairwise conflict
//! graph and transmit one color class per slot. Because conflict graphs
//! ignore the *additivity* of interference — one of the two key properties
//! the paper's Section 2.1 keeps — a class of pairwise-compatible links
//! can still be SINR-infeasible. This module builds conflict-graph
//! schedules over decay spaces, measures exactly how often that failure
//! occurs, and repairs the schedule into an SINR-feasible one so the
//! length overhead of the conflict-graph abstraction can be quantified
//! (experiment E24, mirroring Tonoyan's comparisons).

use decay_core::DecaySpace;
use decay_sinr::{AffectanceMatrix, ConflictGraph, LinkId, LinkSet};

use crate::scheduling::Schedule;

/// Outcome of scheduling through a conflict graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictScheduleReport {
    /// The raw conflict-graph schedule (color classes in decay order).
    pub raw: Schedule,
    /// Per-slot SINR feasibility of the raw schedule.
    pub feasible_slots: Vec<bool>,
    /// The repaired, SINR-feasible schedule.
    pub repaired: Schedule,
}

impl ConflictScheduleReport {
    /// Number of raw slots that were SINR-infeasible despite pairwise
    /// compatibility — the additivity violations.
    pub fn additivity_violations(&self) -> usize {
        self.feasible_slots.iter().filter(|&&ok| !ok).count()
    }

    /// Slots added by the repair pass.
    pub fn repair_overhead(&self) -> usize {
        self.repaired.len().saturating_sub(self.raw.len())
    }
}

/// First-fit colors the conflict graph in non-decreasing decay order and
/// returns the color classes as a schedule. Links that cannot clear the
/// noise floor alone are dropped.
pub fn conflict_graph_schedule(
    space: &DecaySpace,
    links: &LinkSet,
    aff: &AffectanceMatrix,
    graph: &ConflictGraph,
) -> Schedule {
    let order = links.ids_by_decay(space);
    let colors = graph.first_fit_coloring(&order);
    let classes = colors.iter().copied().max().map_or(0, |c| c + 1);
    let mut slots: Vec<Vec<LinkId>> = vec![Vec::new(); classes];
    let mut dropped = Vec::new();
    for v in links.ids() {
        if aff.noise_factor(v).is_finite() && aff.is_feasible(&[v]) {
            slots[colors[v.index()]].push(v);
        } else {
            dropped.push(v);
        }
    }
    slots.retain(|s| !s.is_empty());
    Schedule { slots, dropped }
}

/// SINR feasibility of every slot of a schedule.
pub fn slot_feasibility(aff: &AffectanceMatrix, schedule: &Schedule) -> Vec<bool> {
    schedule
        .slots
        .iter()
        .map(|slot| aff.is_feasible(slot))
        .collect()
}

/// Splits every SINR-infeasible slot greedily (first-fit into feasible
/// sub-slots) until the whole schedule is feasible. Feasible slots are
/// kept verbatim, so the repaired schedule is never shorter than the
/// feasible part of the input.
pub fn repair_schedule(aff: &AffectanceMatrix, schedule: &Schedule) -> Schedule {
    let mut slots: Vec<Vec<LinkId>> = Vec::new();
    for slot in &schedule.slots {
        if aff.is_feasible(slot) {
            slots.push(slot.clone());
            continue;
        }
        // First-fit split of the offending slot.
        let mut parts: Vec<Vec<LinkId>> = Vec::new();
        for &v in slot {
            let mut placed = false;
            for part in &mut parts {
                part.push(v);
                if aff.is_feasible(part) {
                    placed = true;
                    break;
                }
                part.pop();
            }
            if !placed {
                parts.push(vec![v]);
            }
        }
        slots.extend(parts);
    }
    Schedule {
        slots,
        dropped: schedule.dropped.clone(),
    }
}

/// Runs the full pipeline: color, audit, repair.
pub fn conflict_schedule_report(
    space: &DecaySpace,
    links: &LinkSet,
    aff: &AffectanceMatrix,
    conflict_threshold: f64,
) -> ConflictScheduleReport {
    let graph = ConflictGraph::from_affectance(aff, conflict_threshold);
    let raw = conflict_graph_schedule(space, links, aff, &graph);
    let feasible_slots = slot_feasibility(aff, &raw);
    let repaired = repair_schedule(aff, &raw);
    ConflictScheduleReport {
        raw,
        feasible_slots,
        repaired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn schedule_partitions_all_links() {
        let (s, ls, aff) = parallel(12, 1.7);
        let report = conflict_schedule_report(&s, &ls, &aff, 1.0);
        let mut seen: Vec<LinkId> = report.repaired.slots.iter().flatten().copied().collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len() + report.repaired.dropped.len(), ls.len());
    }

    #[test]
    fn repaired_schedule_is_always_feasible() {
        for gap in [1.2, 1.8, 3.0, 10.0] {
            let (s, ls, aff) = parallel(10, gap);
            let report = conflict_schedule_report(&s, &ls, &aff, 1.0);
            for slot in &report.repaired.slots {
                assert!(aff.is_feasible(slot), "gap {gap}");
            }
            assert!(report.repaired.len() >= report.raw.len() - report.additivity_violations());
        }
    }

    #[test]
    fn additivity_violation_materializes() {
        // A victim link ringed by six interferers: every pair is fine
        // (mutual affectance < 1) but the accumulated interference breaks
        // the victim's SINR — the classic additivity failure conflict
        // graphs cannot see.
        let k = 6;
        let mut pos: Vec<(f64, f64)> = vec![(0.0, 0.0), (1.0, 0.0)]; // victim
        for i in 0..k {
            let theta = 2.0 * std::f64::consts::PI * i as f64 / k as f64;
            // Radial link of length 0.5 starting at radius 2 around the
            // victim's receiver.
            let (cx, cy) = (1.0 + 2.0 * theta.cos(), 2.0 * theta.sin());
            pos.push((cx, cy));
            pos.push((cx + 0.5 * theta.cos(), cy + 0.5 * theta.sin()));
        }
        let s = DecaySpace::from_fn(pos.len(), |i, j| {
            let (xi, yi) = pos[i];
            let (xj, yj) = pos[j];
            (xi - xj).powi(2) + (yi - yj).powi(2)
        })
        .unwrap();
        let ls = LinkSet::new(
            &s,
            (0..=k)
                .map(|i| Link::new(NodeId::new(2 * i), NodeId::new(2 * i + 1)))
                .collect(),
        )
        .unwrap();
        let powers = PowerAssignment::unit().powers(&s, &ls).unwrap();
        let aff = AffectanceMatrix::build(&s, &ls, &powers, &SinrParams::default()).unwrap();
        let graph = ConflictGraph::from_affectance(&aff, 1.0);
        assert_eq!(
            graph.edge_count(),
            0,
            "pairs must look compatible to the conflict graph"
        );
        let report = conflict_schedule_report(&s, &ls, &aff, 1.0);
        assert_eq!(report.raw.len(), 1, "one color class");
        assert!(
            report.additivity_violations() > 0,
            "the single class must be SINR-infeasible"
        );
        assert!(report.repaired.len() > report.raw.len());
    }

    #[test]
    fn sparse_instances_incur_no_overhead() {
        let (s, ls, aff) = parallel(6, 80.0);
        let report = conflict_schedule_report(&s, &ls, &aff, 1.0);
        assert_eq!(report.raw.len(), 1);
        assert_eq!(report.additivity_violations(), 0);
        assert_eq!(report.repair_overhead(), 0);
    }

    #[test]
    fn tighter_threshold_gives_more_slots_but_feasible_ones() {
        let (s, ls, aff) = parallel(10, 1.5);
        let loose = conflict_schedule_report(&s, &ls, &aff, 1.0);
        let tight = conflict_schedule_report(&s, &ls, &aff, 0.05);
        assert!(tight.raw.len() >= loose.raw.len());
        assert!(tight.additivity_violations() <= loose.additivity_violations());
    }

    #[test]
    fn noise_floor_losers_are_dropped() {
        let mut pos = Vec::new();
        for i in 0..4 {
            pos.push(i as f64 * 10.0);
            pos.push(i as f64 * 10.0 + 3.0);
        }
        let s = DecaySpace::from_fn(8, |i, j| (pos[i] - pos[j]).abs().powi(2)).unwrap();
        let ls = LinkSet::new(
            &s,
            (0..4)
                .map(|i| Link::new(NodeId::new(2 * i), NodeId::new(2 * i + 1)))
                .collect(),
        )
        .unwrap();
        let powers = PowerAssignment::unit().powers(&s, &ls).unwrap();
        let aff =
            AffectanceMatrix::build(&s, &ls, &powers, &SinrParams::new(1.0, 1.0).unwrap()).unwrap();
        let report = conflict_schedule_report(&s, &ls, &aff, 1.0);
        assert_eq!(report.raw.dropped.len(), 4);
        assert_eq!(report.repaired.scheduled(), 0);
    }
}
