//! Secondary spectrum auctions ([38, 37] in the paper's transfer list).
//!
//! Bidders are links: each declares a bid for the right to transmit, the
//! auctioneer sells `k` channels, and every channel's winner set must be
//! SINR-feasible. Hoefer–Kesselheim–Vöcking [38] approximate the welfare-
//! optimal allocation with a greedy-by-bid mechanism whose analysis rests
//! on inductive independence — exactly the parameter Observation 4.2
//! transfers to decay spaces, turning the approximation guarantee into a
//! function of `ζ`.
//!
//! The mechanism here is the classical monotone greedy for single-minded
//! bidders: consider bidders by descending bid, assign each to the first
//! channel that stays feasible, and charge winners their *critical value*
//! (the infimum bid at which they would still win). Monotone allocation +
//! critical payments is truthful; the tests verify both properties
//! empirically and experiment E25 measures welfare against the exact
//! optimum.

use decay_sinr::{AffectanceMatrix, LinkId};

/// Auction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuctionConfig {
    /// Number of orthogonal channels for sale.
    pub channels: usize,
}

impl Default for AuctionConfig {
    /// One channel.
    fn default() -> Self {
        AuctionConfig { channels: 1 }
    }
}

/// Outcome of a spectrum auction.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionOutcome {
    /// Winner sets per channel; each is feasible.
    pub allocation: Vec<Vec<LinkId>>,
    /// All winners (union of the allocation).
    pub winners: Vec<LinkId>,
    /// Per-bidder payments (0 for losers); `payments[i] <= bids[i]`.
    pub payments: Vec<f64>,
    /// Sum of winning bids (the declared welfare).
    pub welfare: f64,
}

impl AuctionOutcome {
    /// Total revenue collected.
    pub fn revenue(&self) -> f64 {
        self.payments.iter().sum()
    }
}

/// Bidders in consideration order: descending bid; ties by id, except that
/// a `demoted` bidder loses every tie (used for critical-value probes so
/// that the probe bid is effectively "just below" the tied bids).
fn consideration_order(bids: &[f64], demoted: Option<usize>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..bids.len()).collect();
    order.sort_by(|&a, &b| {
        bids[b]
            .partial_cmp(&bids[a])
            .unwrap()
            .then_with(|| {
                let da = Some(a) == demoted;
                let db = Some(b) == demoted;
                da.cmp(&db) // non-demoted first
            })
            .then(a.cmp(&b))
    });
    order
}

/// Greedy winner determination: by descending bid, first feasible channel.
fn allocate(
    aff: &AffectanceMatrix,
    bids: &[f64],
    channels: usize,
    demoted: Option<usize>,
) -> Vec<Vec<LinkId>> {
    let mut allocation: Vec<Vec<LinkId>> = vec![Vec::new(); channels];
    for &i in &consideration_order(bids, demoted) {
        if bids[i] <= 0.0 {
            continue; // zero bids buy nothing
        }
        let v = LinkId::new(i);
        if !aff.noise_factor(v).is_finite() {
            continue;
        }
        for channel in &mut allocation {
            channel.push(v);
            if aff.is_feasible(channel) {
                break;
            }
            channel.pop();
        }
    }
    allocation
}

fn wins(aff: &AffectanceMatrix, bids: &[f64], channels: usize, i: usize, demoted: bool) -> bool {
    let allocation = allocate(aff, bids, channels, demoted.then_some(i));
    let v = LinkId::new(i);
    allocation.iter().any(|c| c.contains(&v))
}

/// Runs the auction: greedy allocation plus critical-value payments.
///
/// # Panics
///
/// Panics if `bids` does not match the matrix, contains a negative or
/// non-finite value, or `config.channels` is zero.
pub fn run_auction(aff: &AffectanceMatrix, bids: &[f64], config: &AuctionConfig) -> AuctionOutcome {
    assert_eq!(bids.len(), aff.len(), "one bid per link");
    assert!(config.channels > 0, "need at least one channel");
    for (i, &b) in bids.iter().enumerate() {
        assert!(b.is_finite() && b >= 0.0, "bid {i} invalid: {b}");
    }
    let allocation = allocate(aff, bids, config.channels, None);
    let mut winners: Vec<LinkId> = allocation.iter().flatten().copied().collect();
    winners.sort();
    let welfare: f64 = winners.iter().map(|v| bids[v.index()]).sum();
    // Critical payments: for each winner, the largest rival bid value at
    // which the winner (bidding that value, losing ties) would lose; the
    // allocation is constant between consecutive rival bid values, so
    // these are the only candidates.
    let mut payments = vec![0.0; bids.len()];
    for &w in &winners {
        let i = w.index();
        let mut candidates: Vec<f64> = bids
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &b)| b)
            .collect();
        candidates.sort_by(|a, b| b.partial_cmp(a).unwrap());
        candidates.dedup();
        let mut probe = bids.to_vec();
        let mut critical = 0.0;
        for &c in &candidates {
            probe[i] = c;
            if !wins(aff, &probe, config.channels, i, true) {
                critical = c;
                break; // monotone: lower candidates lose too
            }
        }
        payments[i] = critical;
    }
    AuctionOutcome {
        allocation,
        winners,
        payments,
        welfare,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decay_core::{DecaySpace, NodeId};
    use decay_sinr::{Link, LinkSet, PowerAssignment, SinrParams};

    fn parallel(m: usize, gap: f64) -> AffectanceMatrix {
        let mut pos = Vec::new();
        for i in 0..m {
            pos.push(i as f64 * gap);
            pos.push(i as f64 * gap + 1.0);
        }
        let s = DecaySpace::from_fn(pos.len(), |i, j| (pos[i] - pos[j]).abs().powi(2)).unwrap();
        let ls = LinkSet::new(
            &s,
            (0..m)
                .map(|i| Link::new(NodeId::new(2 * i), NodeId::new(2 * i + 1)))
                .collect(),
        )
        .unwrap();
        let powers = PowerAssignment::unit().powers(&s, &ls).unwrap();
        AffectanceMatrix::build(&s, &ls, &powers, &SinrParams::default()).unwrap()
    }

    #[test]
    fn sparse_instance_everyone_wins_and_pays_nothing() {
        let aff = parallel(5, 50.0);
        let bids = vec![5.0, 4.0, 3.0, 2.0, 1.0];
        let out = run_auction(&aff, &bids, &AuctionConfig::default());
        assert_eq!(out.winners.len(), 5);
        assert_eq!(out.welfare, 15.0);
        // No competition: critical values are 0.
        assert!(out.payments.iter().all(|&p| p == 0.0));
        assert_eq!(out.revenue(), 0.0);
    }

    #[test]
    fn channels_are_feasible_and_disjoint() {
        let aff = parallel(10, 1.4);
        let bids: Vec<f64> = (0..10).map(|i| 1.0 + i as f64).collect();
        for channels in [1, 2, 3] {
            let out = run_auction(&aff, &bids, &AuctionConfig { channels });
            assert_eq!(out.allocation.len(), channels);
            let mut all: Vec<LinkId> = out.allocation.iter().flatten().copied().collect();
            let before = all.len();
            all.sort();
            all.dedup();
            assert_eq!(all.len(), before, "winner appears twice");
            for c in &out.allocation {
                assert!(aff.is_feasible(c));
            }
        }
    }

    #[test]
    fn more_channels_never_hurt_welfare() {
        let aff = parallel(12, 1.3);
        let bids: Vec<f64> = (0..12)
            .map(|i| (i as f64 * 1.37).sin().abs() + 0.5)
            .collect();
        let mut last = 0.0;
        for channels in 1..=4 {
            let out = run_auction(&aff, &bids, &AuctionConfig { channels });
            assert!(
                out.welfare >= last - 1e-12,
                "welfare dropped at {channels} channels"
            );
            last = out.welfare;
        }
    }

    #[test]
    fn highest_bidder_always_wins() {
        let aff = parallel(8, 1.2);
        let mut bids = vec![1.0; 8];
        bids[5] = 100.0;
        let out = run_auction(&aff, &bids, &AuctionConfig::default());
        assert!(out.winners.contains(&LinkId::new(5)));
    }

    #[test]
    fn payments_are_critical_values() {
        let aff = parallel(6, 1.4);
        let bids = vec![6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        let out = run_auction(&aff, &bids, &AuctionConfig::default());
        for &w in &out.winners {
            let i = w.index();
            let p = out.payments[i];
            assert!(p <= bids[i] + 1e-12, "payment exceeds bid");
            // Bidding just above the critical value still wins...
            let mut probe = bids.clone();
            probe[i] = p + 1e-6;
            let again = run_auction(&aff, &probe, &AuctionConfig::default());
            assert!(again.winners.contains(&w), "winning above critical failed");
            // ...and bidding below it loses (when the payment is positive).
            if p > 0.0 {
                probe[i] = p * 0.5;
                let lost = run_auction(&aff, &probe, &AuctionConfig::default());
                assert!(!lost.winners.contains(&w), "won below critical value");
            }
        }
    }

    #[test]
    fn allocation_is_monotone_in_own_bid() {
        let aff = parallel(8, 1.3);
        let bids: Vec<f64> = (0..8).map(|i| 1.0 + (i as f64 * 0.7).cos().abs()).collect();
        let out = run_auction(&aff, &bids, &AuctionConfig::default());
        for &w in &out.winners {
            let mut richer = bids.clone();
            richer[w.index()] *= 3.0;
            let again = run_auction(&aff, &richer, &AuctionConfig::default());
            assert!(again.winners.contains(&w), "raising the bid lost {w}");
        }
    }

    #[test]
    fn zero_bidders_and_hopeless_links_lose() {
        let mut pos = Vec::new();
        for i in 0..3 {
            pos.push(i as f64 * 20.0);
            pos.push(i as f64 * 20.0 + 1.0);
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
        // Noise 0.6: signal 1 -> SINR 1/0.6 > 1 fine; bump one link's decay
        // via a custom bid of zero instead.
        let aff =
            AffectanceMatrix::build(&s, &ls, &powers, &SinrParams::new(1.0, 0.6).unwrap()).unwrap();
        let bids = vec![0.0, 2.0, 3.0];
        let out = run_auction(&aff, &bids, &AuctionConfig::default());
        assert!(!out.winners.contains(&LinkId::new(0)));
        assert_eq!(out.payments[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "one bid per link")]
    fn bid_count_mismatch_panics() {
        let aff = parallel(3, 5.0);
        run_auction(&aff, &[1.0], &AuctionConfig::default());
    }

    #[test]
    #[should_panic(expected = "need at least one channel")]
    fn zero_channels_panics() {
        let aff = parallel(3, 5.0);
        run_auction(&aff, &[1.0, 1.0, 1.0], &AuctionConfig { channels: 0 });
    }

    #[test]
    fn auction_is_deterministic() {
        let aff = parallel(9, 1.5);
        let bids: Vec<f64> = (0..9).map(|i| ((i * 7) % 5) as f64 + 1.0).collect();
        let a = run_auction(&aff, &bids, &AuctionConfig { channels: 2 });
        let b = run_auction(&aff, &bids, &AuctionConfig { channels: 2 });
        assert_eq!(a, b);
    }
}
