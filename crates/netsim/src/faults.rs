//! Crash-fault injection for slot runs.
//!
//! A [`FaultPlan`] declares slot intervals during which given nodes are
//! *down*: a down node neither transmits, listens, nor runs its behavior
//! (crash-recovery semantics — state is frozen, not erased, and the node
//! resumes where it left off when the outage ends). Fault plans let tests
//! and experiments check that the randomized protocols of Section 3, whose
//! analyses only rely on *expected* interference bounds, degrade gracefully
//! rather than catastrophically when participants disappear.

use decay_core::NodeId;

/// One contiguous outage of one node over the half-open slot interval
/// `[from_slot, until_slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Outage {
    /// The affected node.
    pub node: NodeId,
    /// First slot of the outage.
    pub from_slot: usize,
    /// First slot *after* the outage (use `usize::MAX` for a permanent
    /// crash).
    pub until_slot: usize,
}

impl Outage {
    /// Whether this outage covers the given slot.
    pub fn covers(&self, slot: usize) -> bool {
        self.from_slot <= slot && slot < self.until_slot
    }
}

/// A set of scheduled node outages.
///
/// # Examples
///
/// ```
/// use decay_core::NodeId;
/// use decay_netsim::FaultPlan;
///
/// let plan = FaultPlan::new(vec![])
///     .with_crash(NodeId::new(3), 10)
///     .with_outage(NodeId::new(1), 5, 8);
/// assert!(plan.is_down(NodeId::new(3), 10_000));
/// assert!(plan.is_down(NodeId::new(1), 6));
/// assert!(!plan.is_down(NodeId::new(1), 8));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    outages: Vec<Outage>,
}

impl FaultPlan {
    /// A plan with the given outages.
    pub fn new(outages: Vec<Outage>) -> Self {
        FaultPlan { outages }
    }

    /// The empty plan: no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a permanent crash of `node` starting at `from_slot`.
    #[must_use]
    pub fn with_crash(mut self, node: NodeId, from_slot: usize) -> Self {
        self.outages.push(Outage {
            node,
            from_slot,
            until_slot: usize::MAX,
        });
        self
    }

    /// Adds a temporary outage of `node` over `[from_slot, until_slot)`.
    #[must_use]
    pub fn with_outage(mut self, node: NodeId, from_slot: usize, until_slot: usize) -> Self {
        self.outages.push(Outage {
            node,
            from_slot,
            until_slot,
        });
        self
    }

    /// Whether `node` is down in `slot`.
    pub fn is_down(&self, node: NodeId, slot: usize) -> bool {
        self.outages
            .iter()
            .any(|o| o.node == node && o.covers(slot))
    }

    /// Whether the plan schedules no outages at all.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
    }

    /// The scheduled outages.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_open_interval_semantics() {
        let o = Outage {
            node: NodeId::new(0),
            from_slot: 2,
            until_slot: 5,
        };
        assert!(!o.covers(1));
        assert!(o.covers(2));
        assert!(o.covers(4));
        assert!(!o.covers(5));
    }

    #[test]
    fn crash_is_permanent() {
        let plan = FaultPlan::none().with_crash(NodeId::new(1), 3);
        assert!(!plan.is_down(NodeId::new(1), 2));
        assert!(plan.is_down(NodeId::new(1), 3));
        assert!(plan.is_down(NodeId::new(1), usize::MAX - 1));
        assert!(!plan.is_down(NodeId::new(0), 3));
    }

    #[test]
    fn empty_plan_never_downs() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.is_down(NodeId::new(0), 0));
    }

    #[test]
    fn overlapping_outages_union() {
        let plan = FaultPlan::new(vec![
            Outage {
                node: NodeId::new(2),
                from_slot: 0,
                until_slot: 4,
            },
            Outage {
                node: NodeId::new(2),
                from_slot: 3,
                until_slot: 7,
            },
        ]);
        for slot in 0..7 {
            assert!(plan.is_down(NodeId::new(2), slot), "slot {slot}");
        }
        assert!(!plan.is_down(NodeId::new(2), 7));
        assert_eq!(plan.outages().len(), 2);
    }
}
