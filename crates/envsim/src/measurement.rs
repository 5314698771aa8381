//! The RSSI measurement model: what a cheap radio reports about a decay
//! space.
//!
//! The sibling paper [24] builds decay matrices from testbed RSSI
//! measurements. We reproduce the measurement *process*: transmit at a
//! known power, read RSSI quantized to hardware steps, average a few
//! samples, and censor links below the radio's sensitivity floor. The
//! result is a measured [`DecaySpace`] plus the list of censored pairs.

use decay_core::{DecayError, DecaySpace, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RSSI measurement parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementModel {
    /// Transmit power used during calibration, dBm.
    pub tx_power_dbm: f64,
    /// RSSI register step, dB (1 dB on typical 802.15.4 radios).
    pub quantization_db: f64,
    /// Standard deviation of a single RSSI reading, dB.
    pub noise_sigma_db: f64,
    /// Number of averaged readings per pair.
    pub samples: u32,
    /// Receiver sensitivity, dBm: links arriving weaker are not heard.
    pub sensitivity_dbm: f64,
}

impl Default for MeasurementModel {
    /// Typical 802.15.4 mote: 0 dBm TX, 1 dB steps, 2 dB reading noise,
    /// 8 averaged samples, −94 dBm sensitivity.
    fn default() -> Self {
        MeasurementModel {
            tx_power_dbm: 0.0,
            quantization_db: 1.0,
            noise_sigma_db: 2.0,
            samples: 8,
            sensitivity_dbm: -94.0,
        }
    }
}

/// A measured decay space: the reconstruction plus censoring metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The reconstructed decay space (censored pairs clamped to the
    /// observability limit).
    pub space: DecaySpace,
    /// Ordered pairs whose signal fell below sensitivity; their decay in
    /// `space` is a lower bound, not a measurement.
    pub censored: Vec<(NodeId, NodeId)>,
}

impl MeasurementModel {
    /// The largest decay observable: `10^{(tx − sensitivity)/10}`.
    pub fn censoring_decay(&self) -> f64 {
        10f64.powf((self.tx_power_dbm - self.sensitivity_dbm) / 10.0)
    }

    /// Simulates measuring `truth`, deterministic in `seed`.
    ///
    /// Per ordered pair: RSSI = TX − PL + averaged noise, quantized to the
    /// register step; pairs below sensitivity are censored at the
    /// observability limit.
    ///
    /// # Errors
    ///
    /// Propagates decay-space construction failures (cannot occur: the
    /// reconstruction keeps decays positive).
    pub fn measure(&self, truth: &DecaySpace, seed: u64) -> Result<Measured, DecayError> {
        let n = truth.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let sigma = self.noise_sigma_db / (self.samples.max(1) as f64).sqrt();
        let mut censored = Vec::new();
        let mut matrix = vec![0.0_f64; n * n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (ni, nj) = (NodeId::new(i), NodeId::new(j));
                let pl_true = 10.0 * truth.decay(ni, nj).log10();
                // Averaged reading noise (Irwin–Hall approximation).
                let g: f64 = (0..12).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() - 6.0;
                let rssi = self.tx_power_dbm - pl_true + sigma * g;
                let quantized = if self.quantization_db > 0.0 {
                    (rssi / self.quantization_db).round() * self.quantization_db
                } else {
                    rssi
                };
                if quantized < self.sensitivity_dbm {
                    censored.push((ni, nj));
                    matrix[i * n + j] = self.censoring_decay();
                } else {
                    let pl_est = self.tx_power_dbm - quantized;
                    // Clamp at a tiny positive decay so the space stays
                    // valid even for absurdly strong readings.
                    matrix[i * n + j] = 10f64.powf(pl_est / 10.0).max(1e-12);
                }
            }
        }
        Ok(Measured {
            space: DecaySpace::from_matrix(n, matrix)?,
            censored,
        })
    }
}

/// Pearson correlation of `log(distance)` against `log(decay)` over all
/// ordered pairs — the "link quality is (not) correlated with distance"
/// statistic of the experimental literature (Baccour et al., and the
/// sibling paper \[24]).
///
/// Returns a value in `[-1, 1]`; 1 means decay is a perfect power law of
/// distance (free space), values near 0 mean geometry has lost its
/// predictive power.
///
/// # Panics
///
/// Panics if `positions.len() != space.len()` or fewer than 3 nodes.
pub fn distance_decay_correlation(
    positions: &[crate::geometry::Point2],
    space: &DecaySpace,
) -> f64 {
    assert_eq!(positions.len(), space.len(), "positions/space mismatch");
    assert!(space.len() >= 3, "need at least 3 nodes");
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (i, j, f) in space.ordered_pairs() {
        let d = positions[i.index()]
            .distance(positions[j.index()])
            .max(1e-9);
        xs.push(d.ln());
        ys.push(f.ln());
    }
    pearson(&xs, &ys)
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
        sxy += (x - mx) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::FloorPlan;
    use crate::geometry::Point2;
    use crate::propagation::{Device, PropagationModel};

    fn truth_line() -> (Vec<Point2>, DecaySpace) {
        let pts: Vec<Point2> = (0..6).map(|i| Point2::new(3.0 * i as f64, 0.0)).collect();
        let devs: Vec<Device> = pts.iter().map(|&p| Device::isotropic(p)).collect();
        let s = PropagationModel::free_space()
            .decay_space(&devs, &FloorPlan::new())
            .unwrap();
        (pts, s)
    }

    #[test]
    fn measurement_is_deterministic() {
        let (_, truth) = truth_line();
        let m = MeasurementModel::default();
        assert_eq!(m.measure(&truth, 5).unwrap(), m.measure(&truth, 5).unwrap());
        assert_ne!(m.measure(&truth, 5).unwrap(), m.measure(&truth, 6).unwrap());
    }

    #[test]
    fn noiseless_measurement_recovers_truth_within_quantization() {
        let (_, truth) = truth_line();
        let m = MeasurementModel {
            noise_sigma_db: 0.0,
            quantization_db: 1.0,
            ..Default::default()
        };
        let got = m.measure(&truth, 1).unwrap();
        assert!(got.censored.is_empty());
        for (i, j, f) in truth.ordered_pairs() {
            let est = got.space.decay(i, j);
            let err_db = (10.0 * (est / f).log10()).abs();
            assert!(err_db <= 0.5 + 1e-9, "error {err_db} dB");
        }
    }

    #[test]
    fn weak_links_are_censored() {
        let (_, truth) = truth_line();
        let m = MeasurementModel {
            sensitivity_dbm: -55.0, // decays above 10^5.5 unobservable
            noise_sigma_db: 0.0,
            ..Default::default()
        };
        let got = m.measure(&truth, 2).unwrap();
        assert!(!got.censored.is_empty());
        let cap = m.censoring_decay();
        for &(i, j) in &got.censored {
            assert_eq!(got.space.decay(i, j), cap);
            assert!(truth.decay(i, j) > cap * 0.5);
        }
    }

    #[test]
    fn free_space_correlation_is_near_one() {
        let (pts, truth) = truth_line();
        let c = distance_decay_correlation(&pts, &truth);
        assert!(c > 0.999, "correlation = {c}");
    }

    #[test]
    fn measurement_degrades_but_preserves_broad_correlation() {
        let (pts, truth) = truth_line();
        let m = MeasurementModel::default();
        let got = m.measure(&truth, 3).unwrap();
        let c = distance_decay_correlation(&pts, &got.space);
        assert!(c > 0.9, "correlation = {c}");
    }

    #[test]
    fn censoring_decay_formula() {
        let m = MeasurementModel::default();
        assert!((m.censoring_decay() - 10f64.powf(9.4)).abs() < 1e-3);
    }
}
