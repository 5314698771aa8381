//! Decay inference from packet reception rates.
//!
//! Section 2.2 of the paper notes that decay spaces "can also be inferred
//! by packet reception rates". This module implements that measurement
//! path end to end: a round-robin *probe campaign* in which every node
//! broadcasts alone in its own slots ([`run_probe_campaign`]) yields a
//! [`PrrMatrix`] of per-ordered-pair reception rates; under Rayleigh
//! fading the interference-free success probability has the closed form
//! `p = exp(-β·N·f/P)`, which [`infer_decay_from_prr`] inverts to recover
//! the decay matrix. [`compare_decays`] quantifies how faithful the
//! reconstruction is — experiment E31 runs the full pipeline and checks
//! that metricity and capacity decisions computed from the inferred space
//! agree with the ground truth.

use decay_core::{DecaySpace, NodeId};
use decay_sinr::SinrParams;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ReceptionModel;

/// Packet reception rates for every ordered (transmitter, receiver) pair,
/// produced by a probe campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrrMatrix {
    n: usize,
    rounds: usize,
    /// Row-major: `successes[tx * n + rx]`.
    successes: Vec<u32>,
}

impl PrrMatrix {
    /// Number of nodes probed.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Probe transmissions per ordered pair.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Raw success count for the ordered pair.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn successes(&self, from: NodeId, to: NodeId) -> u32 {
        assert!(from.index() < self.n && to.index() < self.n);
        self.successes[from.index() * self.n + to.index()]
    }

    /// The packet reception rate `successes / rounds` for the ordered
    /// pair; 0 for `from == to`.
    pub fn rate(&self, from: NodeId, to: NodeId) -> f64 {
        self.successes(from, to) as f64 / self.rounds as f64
    }
}

/// Runs a round-robin probe campaign: `rounds` cycles in which each node
/// transmits alone at `power` while everyone else listens, under the given
/// reception model.
///
/// Probes are interference-free by construction, so with
/// [`ReceptionModel::Rayleigh`] the expected reception rate for pair
/// `(s, r)` is exactly `exp(-β·N·f(s,r)/P)`. Each slot draws one fade per
/// listener, in ascending order, from one stream seeded
/// `seed ^ 0xD1B5_4A32_D192_ED03`.
///
/// # Panics
///
/// Panics if `rounds` is zero or `power` is not positive and finite.
pub fn run_probe_campaign(
    space: &DecaySpace,
    params: &SinrParams,
    model: ReceptionModel,
    rounds: usize,
    power: f64,
    seed: u64,
) -> PrrMatrix {
    assert!(rounds > 0, "probe campaign needs at least one round");
    assert!(
        power.is_finite() && power > 0.0,
        "probe power must be positive"
    );
    let n = space.len();
    let mut fading = StdRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03);
    let mut successes = vec![0u32; n * n];
    for slot in 0..rounds * n {
        let tx = slot % n;
        for rx in (0..n).filter(|&rx| rx != tx) {
            let fade = match model {
                ReceptionModel::Threshold => 1.0,
                // Unit-mean exponential via inverse CDF; `gen` draws
                // from [0, 1), so `1 - u` is in (0, 1].
                ReceptionModel::Rayleigh => -(1.0 - fading.gen::<f64>()).ln(),
            };
            let p = fade * power / space.decay(NodeId::new(tx), NodeId::new(rx));
            // Noise plus every signal minus the captured one, not
            // `noise`: the two round differently, and the registry
            // golden pins the counts this expression gives.
            let interference = (params.noise() + p) - p;
            let sinr = if interference > 0.0 {
                p / interference
            } else {
                f64::INFINITY
            };
            if sinr >= params.beta() * (1.0 - 1e-12) {
                successes[tx * n + rx] += 1;
            }
        }
    }
    PrrMatrix {
        n,
        rounds,
        successes,
    }
}

/// Streaming per-pair reception statistics over *arbitrary* traffic.
///
/// [`PrrMatrix`] comes from the dedicated interference-free probe
/// campaign; this tracker instead folds the transmitters and deliveries
/// of any running protocol into per-ordered-pair attempt/success counts,
/// so harness-side code can read PRR out of real traffic without
/// re-instrumenting behaviors. `decay_engine::probe::WindowedPrr` feeds
/// it one engine window at a time.
///
/// An "attempt" at pair `(tx, rx)` is a slot in which `tx` transmitted
/// (every other node is a potential receiver under the broadcast
/// medium); a success is `rx` actually capturing that transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrrTracker {
    n: usize,
    /// Slots in which each node transmitted.
    attempts: Vec<u64>,
    /// Row-major `successes[tx * n + rx]`.
    successes: Vec<u64>,
    /// Total deliveries folded in.
    deliveries: u64,
    /// Sliding window length in slots (0 = windowing disabled).
    window: usize,
    /// Retained recent slots, oldest first, for windowed queries.
    recent: std::collections::VecDeque<WindowSlot>,
}

/// One retained slot of the sliding window.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WindowSlot {
    slot: usize,
    transmitters: Vec<NodeId>,
    deliveries: Vec<(NodeId, NodeId)>,
}

impl PrrTracker {
    /// A tracker over `n` nodes with no traffic recorded yet (lifetime
    /// statistics only; see [`PrrTracker::with_window`]).
    pub fn new(n: usize) -> Self {
        PrrTracker {
            n,
            attempts: vec![0; n],
            successes: vec![0; n * n],
            deliveries: 0,
            window: 0,
            recent: std::collections::VecDeque::new(),
        }
    }

    /// A tracker that additionally keeps the last `window` slots of
    /// traffic for windowed PRR queries — the view that shows PRR
    /// *drift* under time-varying channels, where the lifetime average
    /// flattens every fade and mobility swing into one number.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(n: usize, window: usize) -> Self {
        assert!(window > 0, "sliding window needs at least one slot");
        PrrTracker {
            window,
            ..PrrTracker::new(n)
        }
    }

    /// Folds one slot's traffic into the statistics: the nodes that
    /// transmitted and every delivered `(from, to)` pair. With a sliding
    /// window, slots older than `window` slots before `slot` are evicted.
    ///
    /// A caller may collapse a window of ticks onto one synthetic slot;
    /// `decay_engine::probe::WindowedPrr` does, and since an engine
    /// trace records no silent attempts it passes the transmitters seen
    /// delivering in the window.
    ///
    /// # Panics
    ///
    /// Panics if a node is outside the tracked range.
    pub fn record(
        &mut self,
        slot: usize,
        transmitters: &[NodeId],
        deliveries: &[(NodeId, NodeId)],
    ) {
        for t in transmitters {
            self.attempts[t.index()] += 1;
        }
        for &(from, to) in deliveries {
            self.successes[from.index() * self.n + to.index()] += 1;
            self.deliveries += 1;
        }
        if self.window > 0 {
            self.recent.push_back(WindowSlot {
                slot,
                transmitters: transmitters.to_vec(),
                deliveries: deliveries.to_vec(),
            });
            let horizon = slot.saturating_sub(self.window - 1);
            while self.recent.front().is_some_and(|s| s.slot < horizon) {
                self.recent.pop_front();
            }
        }
    }

    /// The sliding window length in slots (0 when windowing is off).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Attempts by `from` within the sliding window.
    pub fn windowed_attempts(&self, from: NodeId) -> u64 {
        self.recent
            .iter()
            .flat_map(|s| &s.transmitters)
            .filter(|&&t| t == from)
            .count() as u64
    }

    /// The packet reception rate of the ordered pair over the sliding
    /// window only: recent captures over recent attempts (0 when `from`
    /// has not transmitted within the window).
    ///
    /// # Panics
    ///
    /// Panics if the tracker was built without a window
    /// ([`PrrTracker::new`]).
    pub fn windowed_rate(&self, from: NodeId, to: NodeId) -> f64 {
        assert!(self.window > 0, "tracker was built without a window");
        let attempts = self.windowed_attempts(from);
        if attempts == 0 {
            return 0.0;
        }
        let successes = self
            .recent
            .iter()
            .flat_map(|s| &s.deliveries)
            .filter(|&&(f, t)| f == from && t == to)
            .count() as u64;
        successes as f64 / attempts as f64
    }

    /// Network-wide PRR over the sliding window: delivered
    /// (transmission, potential-receiver) opportunities over all of
    /// them, counting only retained slots.
    ///
    /// # Panics
    ///
    /// Panics if the tracker was built without a window.
    pub fn windowed_overall(&self) -> f64 {
        assert!(self.window > 0, "tracker was built without a window");
        let attempts: u64 = self
            .recent
            .iter()
            .map(|s| s.transmitters.len() as u64)
            .sum();
        let opportunities = attempts * (self.n as u64).saturating_sub(1);
        if opportunities == 0 {
            return 0.0;
        }
        let delivered: u64 = self.recent.iter().map(|s| s.deliveries.len() as u64).sum();
        delivered as f64 / opportunities as f64
    }

    /// Number of nodes tracked.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Slots in which `from` transmitted.
    pub fn attempts(&self, from: NodeId) -> u64 {
        self.attempts[from.index()]
    }

    /// Captures of `from` by `to`.
    pub fn successes(&self, from: NodeId, to: NodeId) -> u64 {
        self.successes[from.index() * self.n + to.index()]
    }

    /// The packet reception rate of the ordered pair: captures over
    /// transmission attempts (0 when `from` never transmitted).
    pub fn rate(&self, from: NodeId, to: NodeId) -> f64 {
        let attempts = self.attempts(from);
        if attempts == 0 {
            0.0
        } else {
            self.successes(from, to) as f64 / attempts as f64
        }
    }

    /// Mean receivers per transmission of `from` (its broadcast yield).
    pub fn yield_of(&self, from: NodeId) -> f64 {
        let attempts = self.attempts(from);
        if attempts == 0 {
            return 0.0;
        }
        let row = &self.successes[from.index() * self.n..(from.index() + 1) * self.n];
        row.iter().sum::<u64>() as f64 / attempts as f64
    }

    /// Network-wide PRR: delivered (transmission, potential-receiver)
    /// opportunities over all of them — `Σ successes / (Σ attempts ·
    /// (n - 1))`.
    pub fn overall(&self) -> f64 {
        let opportunities = self.attempts.iter().sum::<u64>() * (self.n as u64).saturating_sub(1);
        if opportunities == 0 {
            0.0
        } else {
            self.deliveries as f64 / opportunities as f64
        }
    }
}

/// Why PRR-based inference can fail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InferenceError {
    /// The channel has no ambient noise: under Rayleigh fading every
    /// interference-free probe then succeeds with probability 1 regardless
    /// of decay, so reception rates carry no decay information.
    NoiselessChannel,
    /// The probe power was not positive and finite.
    InvalidPower {
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for InferenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferenceError::NoiselessChannel => {
                write!(f, "cannot infer decays from PRR on a noiseless channel")
            }
            InferenceError::InvalidPower { value } => {
                write!(f, "probe power must be positive and finite, got {value}")
            }
        }
    }
}

impl std::error::Error for InferenceError {}

/// An inferred decay space plus the pairs whose rates pinned to 0 or 1 and
/// therefore only yield decay bounds, not estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceOutcome {
    /// The inferred decay space.
    pub space: DecaySpace,
    /// Pairs with zero successes: the true decay is at least the inferred
    /// value (right-censored).
    pub censored: Vec<(NodeId, NodeId)>,
    /// Pairs with all successes: the true decay is at most the inferred
    /// value (left-censored).
    pub saturated: Vec<(NodeId, NodeId)>,
}

impl InferenceOutcome {
    /// All pairs whose inferred value is only a bound; callers comparing
    /// against ground truth should exclude these.
    pub fn unreliable_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut v = self.censored.clone();
        v.extend_from_slice(&self.saturated);
        v
    }
}

/// Inverts the Rayleigh probe model `p = exp(-β·N·f/P)` to recover decays:
/// `f = -P·ln(p) / (β·N)`.
///
/// Rates of exactly 0 or 1 are continuity-corrected to
/// `1/(2·rounds)` and `1 - 1/(2·rounds)` respectively and reported as
/// censored/saturated in the outcome.
///
/// # Errors
///
/// Returns [`InferenceError::NoiselessChannel`] when `params.noise() == 0`
/// and [`InferenceError::InvalidPower`] for bad `power`.
pub fn infer_decay_from_prr(
    prr: &PrrMatrix,
    power: f64,
    params: &SinrParams,
) -> Result<InferenceOutcome, InferenceError> {
    if params.noise() == 0.0 {
        return Err(InferenceError::NoiselessChannel);
    }
    if !(power.is_finite() && power > 0.0) {
        return Err(InferenceError::InvalidPower { value: power });
    }
    let n = prr.nodes();
    let rounds = prr.rounds() as f64;
    let scale = power / (params.beta() * params.noise());
    let mut censored = Vec::new();
    let mut saturated = Vec::new();
    let space = DecaySpace::from_fn(n, |i, j| {
        let s = prr.successes(NodeId::new(i), NodeId::new(j));
        let p = if s == 0 {
            censored.push((NodeId::new(i), NodeId::new(j)));
            1.0 / (2.0 * rounds)
        } else if s as f64 >= rounds {
            saturated.push((NodeId::new(i), NodeId::new(j)));
            1.0 - 1.0 / (2.0 * rounds)
        } else {
            s as f64 / rounds
        };
        -p.ln() * scale
    })
    .expect("corrected rates are in (0, 1), so inferred decays are positive and finite");
    Ok(InferenceOutcome {
        space,
        censored,
        saturated,
    })
}

/// Agreement statistics between a ground-truth and an inferred decay
/// space, on the log scale (decays are ratio quantities).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceReport {
    /// Mean of `|log10(f̂/f)|` over compared pairs.
    pub mean_abs_log10_error: f64,
    /// Maximum of `|log10(f̂/f)|` over compared pairs.
    pub max_abs_log10_error: f64,
    /// Pearson correlation between `ln f` and `ln f̂`.
    pub log_correlation: f64,
    /// Number of ordered pairs compared.
    pub pairs: usize,
}

/// Compares two decay spaces over the same node set, skipping the given
/// pairs (typically the censored/saturated ones).
///
/// # Panics
///
/// Panics if the spaces have different sizes.
pub fn compare_decays(
    truth: &DecaySpace,
    inferred: &DecaySpace,
    skip: &[(NodeId, NodeId)],
) -> InferenceReport {
    assert_eq!(
        truth.len(),
        inferred.len(),
        "spaces must have the same node count"
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (a, b, f_true) in truth.ordered_pairs() {
        if skip.contains(&(a, b)) {
            continue;
        }
        xs.push(f_true.ln());
        ys.push(inferred.decay(a, b).ln());
    }
    let pairs = xs.len();
    if pairs == 0 {
        return InferenceReport {
            mean_abs_log10_error: 0.0,
            max_abs_log10_error: 0.0,
            log_correlation: 1.0,
            pairs,
        };
    }
    let ln10 = std::f64::consts::LN_10;
    let mut sum = 0.0;
    let mut max = 0.0_f64;
    for (x, y) in xs.iter().zip(&ys) {
        let e = ((y - x) / ln10).abs();
        sum += e;
        max = max.max(e);
    }
    let mean_x = xs.iter().sum::<f64>() / pairs as f64;
    let mean_y = ys.iter().sum::<f64>() / pairs as f64;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (x, y) in xs.iter().zip(&ys) {
        cov += (x - mean_x) * (y - mean_y);
        var_x += (x - mean_x).powi(2);
        var_y += (y - mean_y).powi(2);
    }
    let log_correlation = if var_x > 0.0 && var_y > 0.0 {
        cov / (var_x * var_y).sqrt()
    } else {
        // A constant series carries no correlation signal; report 0.
        0.0
    };
    InferenceReport {
        mean_abs_log10_error: sum / pairs as f64,
        max_abs_log10_error: max,
        log_correlation,
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, alpha: f64) -> DecaySpace {
        DecaySpace::from_fn(n, |i, j| ((i as f64) - (j as f64)).abs().powf(alpha)).unwrap()
    }

    /// Feeds `slots` slots of round-robin traffic on a noiseless line:
    /// each node transmits alone in its slot and everyone hears it.
    fn round_robin(tracker: &mut PrrTracker, n: usize, slots: usize) {
        for slot in 0..slots {
            let tx = NodeId::new(slot % n);
            let heard: Vec<_> = (0..n)
                .filter(|&rx| rx != tx.index())
                .map(|rx| (tx, NodeId::new(rx)))
                .collect();
            tracker.record(slot, &[tx], &heard);
        }
    }

    #[test]
    fn tracker_accumulates_arbitrary_traffic() {
        let n = 4;
        let mut tracker = PrrTracker::new(n);
        round_robin(&mut tracker, n, 3 * n);
        assert_eq!(tracker.nodes(), n);
        for tx in 0..n {
            assert_eq!(tracker.attempts(NodeId::new(tx)), 3);
            assert_eq!(tracker.yield_of(NodeId::new(tx)), (n - 1) as f64);
            for rx in 0..n {
                if tx != rx {
                    assert_eq!(tracker.rate(NodeId::new(tx), NodeId::new(rx)), 1.0);
                    assert_eq!(tracker.successes(NodeId::new(tx), NodeId::new(rx)), 3);
                }
            }
        }
        assert_eq!(tracker.overall(), 1.0);
    }

    /// Node 0 transmits in `slot`; `delivered` says whether node 1
    /// captures it.
    fn record_probe(tracker: &mut PrrTracker, slot: usize, delivered: bool) {
        let pair: &[(NodeId, NodeId)] = if delivered {
            &[(NodeId::new(0), NodeId::new(1))]
        } else {
            &[]
        };
        tracker.record(slot, &[NodeId::new(0)], pair);
    }

    #[test]
    fn windowed_rate_tracks_drift_the_lifetime_average_hides() {
        // A channel that works for 50 slots, then fades out completely:
        // exactly the regime time-varying channels produce.
        let (from, to) = (NodeId::new(0), NodeId::new(1));
        let mut tracker = PrrTracker::with_window(2, 20);
        for slot in 0..50 {
            record_probe(&mut tracker, slot, true);
        }
        assert_eq!(tracker.windowed_rate(from, to), 1.0);
        for slot in 50..100 {
            record_probe(&mut tracker, slot, false);
        }
        // Lifetime average still says "half works"...
        assert_eq!(tracker.rate(from, to), 0.5);
        // ...while the window has seen the fade.
        assert_eq!(tracker.windowed_rate(from, to), 0.0);
        assert_eq!(tracker.windowed_overall(), 0.0);
        assert_eq!(tracker.windowed_attempts(from), 20);
        assert_eq!(tracker.window(), 20);

        // Partial recovery shows up at window resolution.
        for slot in 100..110 {
            record_probe(&mut tracker, slot, true);
        }
        assert_eq!(tracker.windowed_rate(from, to), 0.5, "10 of last 20");
        assert_eq!(tracker.rate(from, to), 60.0 / 110.0);
    }

    #[test]
    fn window_eviction_follows_the_recorded_slot() {
        let mut tracker = PrrTracker::with_window(3, 8);
        record_probe(&mut tracker, 0, true);
        // A jump in slot numbers (paused simulation, sparse recording)
        // evicts everything older than the window.
        record_probe(&mut tracker, 100, false);
        assert_eq!(tracker.windowed_attempts(NodeId::new(0)), 1);
        assert_eq!(tracker.windowed_rate(NodeId::new(0), NodeId::new(1)), 0.0);
        // Lifetime stats keep the full history.
        assert_eq!(tracker.attempts(NodeId::new(0)), 2);
        assert_eq!(tracker.rate(NodeId::new(0), NodeId::new(1)), 0.5);
    }

    #[test]
    fn windowed_queries_are_empty_safe() {
        let tracker = PrrTracker::with_window(4, 5);
        assert_eq!(tracker.windowed_overall(), 0.0);
        assert_eq!(tracker.windowed_rate(NodeId::new(0), NodeId::new(1)), 0.0);
        assert_eq!(tracker.windowed_attempts(NodeId::new(2)), 0);
        // Lifetime-only trackers report window 0.
        assert_eq!(PrrTracker::new(4).window(), 0);
    }

    #[test]
    fn windowed_tracker_agrees_with_lifetime_inside_one_window() {
        // While total traffic fits in the window, both views agree.
        let n = 4;
        let mut tracker = PrrTracker::with_window(n, 100);
        round_robin(&mut tracker, n, 3 * n);
        for tx in 0..n {
            for rx in 0..n {
                if tx != rx {
                    let (a, b) = (NodeId::new(tx), NodeId::new(rx));
                    assert_eq!(tracker.windowed_rate(a, b), tracker.rate(a, b));
                }
            }
        }
        assert_eq!(tracker.windowed_overall(), tracker.overall());
    }

    #[test]
    fn tracker_is_quiet_without_traffic() {
        let tracker = PrrTracker::new(5);
        assert_eq!(tracker.overall(), 0.0);
        assert_eq!(tracker.rate(NodeId::new(0), NodeId::new(1)), 0.0);
        assert_eq!(tracker.yield_of(NodeId::new(2)), 0.0);
        // Degenerate sizes never underflow the opportunity count.
        assert_eq!(PrrTracker::new(0).overall(), 0.0);
        assert_eq!(PrrTracker::new(1).overall(), 0.0);
    }

    #[test]
    fn threshold_noiseless_probes_always_succeed() {
        let s = line(4, 2.0);
        let prr = run_probe_campaign(
            &s,
            &SinrParams::default(),
            ReceptionModel::Threshold,
            5,
            1.0,
            1,
        );
        for (a, b, _) in s.ordered_pairs() {
            assert_eq!(prr.successes(a, b), 5, "{a} -> {b}");
            assert_eq!(prr.rate(a, b), 1.0);
        }
    }

    #[test]
    fn campaign_is_deterministic_in_seed() {
        let s = line(4, 2.0);
        let params = SinrParams::new(1.0, 0.2).unwrap();
        let a = run_probe_campaign(&s, &params, ReceptionModel::Rayleigh, 50, 1.0, 9);
        let b = run_probe_campaign(&s, &params, ReceptionModel::Rayleigh, 50, 1.0, 9);
        let c = run_probe_campaign(&s, &params, ReceptionModel::Rayleigh, 50, 1.0, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rayleigh_rates_track_the_closed_form() {
        // p = exp(-beta N f / P): check the empirical rate is close for a
        // pair with moderate decay.
        let s = line(2, 1.0); // f = 1 both ways
        let params = SinrParams::new(1.0, 0.5).unwrap();
        let prr = run_probe_campaign(&s, &params, ReceptionModel::Rayleigh, 4000, 1.0, 3);
        let expect = (-0.5_f64).exp(); // ~0.6065
        let got = prr.rate(NodeId::new(0), NodeId::new(1));
        assert!(
            (got - expect).abs() < 0.03,
            "rate {got} vs closed form {expect}"
        );
    }

    #[test]
    fn inference_recovers_decays() {
        let s = line(5, 1.2);
        let params = SinrParams::new(1.0, 0.3).unwrap();
        let prr = run_probe_campaign(&s, &params, ReceptionModel::Rayleigh, 3000, 1.0, 7);
        let outcome = infer_decay_from_prr(&prr, 1.0, &params).unwrap();
        let report = compare_decays(&s, &outcome.space, &outcome.unreliable_pairs());
        assert!(report.pairs > 0);
        assert!(
            report.mean_abs_log10_error < 0.1,
            "mean log error {}",
            report.mean_abs_log10_error
        );
        assert!(
            report.log_correlation > 0.9,
            "correlation {}",
            report.log_correlation
        );
    }

    #[test]
    fn extreme_decays_are_censored() {
        // f(0,1) = 1 but f(0,2) = 200: with N = 0.5 the far pair succeeds
        // w.p. e^{-100}, i.e. never in any realistic campaign.
        let s =
            DecaySpace::from_matrix(3, vec![0.0, 1.0, 200.0, 1.0, 0.0, 200.0, 200.0, 200.0, 0.0])
                .unwrap();
        let params = SinrParams::new(1.0, 0.5).unwrap();
        let prr = run_probe_campaign(&s, &params, ReceptionModel::Rayleigh, 200, 1.0, 11);
        let outcome = infer_decay_from_prr(&prr, 1.0, &params).unwrap();
        assert!(outcome.censored.contains(&(NodeId::new(0), NodeId::new(2))));
        // Censored estimate is a lower bound that still dominates the
        // resolvable pairs.
        assert!(
            outcome.space.decay(NodeId::new(0), NodeId::new(2))
                > outcome.space.decay(NodeId::new(0), NodeId::new(1))
        );
    }

    #[test]
    fn noiseless_inference_is_rejected() {
        let s = line(3, 2.0);
        let prr = run_probe_campaign(
            &s,
            &SinrParams::default(),
            ReceptionModel::Threshold,
            5,
            1.0,
            1,
        );
        let err = infer_decay_from_prr(&prr, 1.0, &SinrParams::default()).unwrap_err();
        assert_eq!(err, InferenceError::NoiselessChannel);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn invalid_power_is_rejected() {
        let s = line(3, 2.0);
        let params = SinrParams::new(1.0, 0.1).unwrap();
        let prr = run_probe_campaign(&s, &params, ReceptionModel::Threshold, 5, 1.0, 1);
        assert!(matches!(
            infer_decay_from_prr(&prr, 0.0, &params),
            Err(InferenceError::InvalidPower { .. })
        ));
    }

    #[test]
    fn compare_decays_identity_is_exact() {
        let s = line(4, 2.0);
        let r = compare_decays(&s, &s, &[]);
        assert_eq!(r.mean_abs_log10_error, 0.0);
        assert_eq!(r.max_abs_log10_error, 0.0);
        assert!(r.log_correlation > 0.999);
    }

    #[test]
    fn compare_decays_skip_list_is_honored() {
        let s = line(3, 2.0);
        let all: Vec<_> = s.ordered_pairs().map(|(a, b, _)| (a, b)).collect();
        let r = compare_decays(&s, &s, &all);
        assert_eq!(r.pairs, 0);
    }
}
