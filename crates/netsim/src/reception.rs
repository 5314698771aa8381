//! Reception models: how simultaneous transmissions resolve into
//! deliveries at a listener.
//!
//! The paper's model is deterministic SINR *thresholding* — transmission
//! succeeds iff `SINR ≥ β` (Section 2.1) — and cites Dams, Kesselheim and
//! Hoefer [10] for the fact that stochastic-filter models such as Rayleigh
//! fading can be simulated by thresholding algorithms. The engine
//! supports both, so that the near-thresholding relationship between SINR
//! level and packet reception rate (one of the experimentally verified
//! assumptions the paper lists in its introduction) can be measured rather
//! than assumed; experiment E30 does exactly that.

/// How a listener decides whether it captures a transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReceptionModel {
    /// Deterministic SINR thresholding (Section 2.1): success iff
    /// `SINR ≥ β` computed from the decay matrix alone.
    #[default]
    Threshold,
    /// Rayleigh (fast) fading: every received power — signal and
    /// interference alike — is multiplied by an independent unit-mean
    /// exponential draw, fresh per (transmitter, listener, slot). The SINR
    /// test is then applied to the faded powers.
    ///
    /// For an interference-free probe at power `P` over decay `f` against
    /// noise `N`, the success probability is exactly
    /// `exp(-β · N · f / P)` — the closed form the PRR-based decay
    /// inference of [`crate::infer_decay_from_prr`] inverts.
    Rayleigh,
}

impl ReceptionModel {
    /// Whether receptions are deterministic given the actions of a slot.
    pub fn is_deterministic(self) -> bool {
        matches!(self, ReceptionModel::Threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_threshold() {
        assert_eq!(ReceptionModel::default(), ReceptionModel::Threshold);
        assert!(ReceptionModel::Threshold.is_deterministic());
        assert!(!ReceptionModel::Rayleigh.is_deterministic());
    }
}
