//! The propagation engine: link budgets over a floor plan.
//!
//! Path loss from device `i` to device `j` combines:
//!
//! * log-distance path loss `PL₀ + 10·n·log₁₀(d)`,
//! * per-wall penetration losses from the [`FloorPlan`],
//! * spatially correlated static shadowing (a [`NoiseField`] sampled at
//!   the link midpoint — deterministic, so the environment is *static* as
//!   the paper requires),
//! * anisotropic antenna gains at both ends, and
//! * per-device hardware TX/RX calibration offsets (making decays
//!   asymmetric, as testbeds consistently report).
//!
//! The decay is `f(i, j) = 10^{PL(i→j)/10}`, i.e. gain `= 1/f`.

use decay_core::{DecayError, DecaySpace};

use crate::antenna::AntennaPattern;
use crate::floorplan::FloorPlan;
use crate::geometry::Point2;
use crate::noise::NoiseField;

/// A deployed transceiver: position plus antenna pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    /// Where the device sits.
    pub position: Point2,
    /// Its antenna pattern (used for both transmit and receive).
    pub antenna: AntennaPattern,
}

impl Device {
    /// An isotropic device at the given position.
    pub fn isotropic(position: Point2) -> Self {
        Device {
            position,
            antenna: AntennaPattern::Isotropic,
        }
    }
}

/// Propagation model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropagationModel {
    /// Path-loss exponent `n` (2 in free space, 1.6–1.8 line-of-sight
    /// indoors, up to 4+ obstructed).
    pub exponent: f64,
    /// Reference loss at 1 m, dB (typically ~40 dB at 2.4 GHz).
    pub reference_loss_db: f64,
    /// Static correlated shadowing field (dB).
    pub shadowing: NoiseField,
    /// Standard deviation of per-device hardware TX/RX offsets, dB.
    /// Produces asymmetric decay matrices when positive.
    pub hardware_sigma_db: f64,
    /// Seed for the hardware offsets.
    pub hardware_seed: u64,
}

impl PropagationModel {
    /// Free-space model: exponent 2, 40 dB reference loss, no shadowing,
    /// no hardware variation.
    pub fn free_space() -> Self {
        PropagationModel {
            exponent: 2.0,
            reference_loss_db: 40.0,
            shadowing: NoiseField::new(0, 1.0, 0.0),
            hardware_sigma_db: 0.0,
            hardware_seed: 0,
        }
    }

    /// A typical indoor model: exponent 3, 40 dB reference loss, 6 dB
    /// correlated shadowing over 8 m, 1.5 dB hardware spread.
    pub fn indoor(seed: u64) -> Self {
        PropagationModel {
            exponent: 3.0,
            reference_loss_db: 40.0,
            shadowing: NoiseField::new(seed, 8.0, 6.0),
            hardware_sigma_db: 1.5,
            hardware_seed: seed.wrapping_add(0x5EED),
        }
    }

    /// Hardware TX offset of device `i`, dB (deterministic in the seed).
    fn tx_offset_db(&self, i: usize) -> f64 {
        self.hardware_sigma_db * hash_unit(self.hardware_seed, i as u64, 0)
    }

    /// Hardware RX offset of device `j`, dB.
    fn rx_offset_db(&self, j: usize) -> f64 {
        self.hardware_sigma_db * hash_unit(self.hardware_seed, j as u64, 1)
    }

    /// The directed path loss `PL(i → j)` in dB over the given plan.
    ///
    /// Distances below 0.1 m are clamped (near-field); the result is
    /// clamped at ≥ 0 dB so gains never exceed 1.
    pub fn path_loss_db(&self, devices: &[Device], i: usize, j: usize, plan: &FloorPlan) -> f64 {
        let tx = devices[i];
        let rx = devices[j];
        let d = tx.position.distance(rx.position).max(0.1);
        let mid = tx.position.midpoint(rx.position);
        let geometric = self.reference_loss_db + 10.0 * self.exponent * d.log10();
        let walls = plan.crossing_loss_db(tx.position, rx.position);
        let shadow = self.shadowing.sample(mid.x, mid.y);
        let tx_gain = tx.antenna.gain_db(tx.position.angle_to(rx.position));
        let rx_gain = rx.antenna.gain_db(rx.position.angle_to(tx.position));
        let hw = self.tx_offset_db(i) + self.rx_offset_db(j);
        (geometric + walls + shadow - tx_gain - rx_gain + hw).max(0.0)
    }

    /// Builds the ground-truth decay space for a deployment:
    /// `f(i, j) = 10^{PL(i→j)/10}`.
    ///
    /// # Errors
    ///
    /// Returns an error if two devices are co-located (zero decay).
    pub fn decay_space(
        &self,
        devices: &[Device],
        plan: &FloorPlan,
    ) -> Result<DecaySpace, DecayError> {
        DecaySpace::from_fn(devices.len(), |i, j| {
            let pl = self.path_loss_db(devices, i, j, plan);
            10f64.powf(pl / 10.0)
        })
    }
}

/// Hash to a roughly standard-normal value (sum of three unit hashes,
/// centered and scaled) — deterministic per (seed, a, b).
fn hash_unit(seed: u64, a: u64, b: u64) -> f64 {
    let mut acc = 0.0;
    for k in 0..3u64 {
        let mut h = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(k.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        acc += h as f64 / u64::MAX as f64;
    }
    // Sum of 3 uniforms: mean 1.5, var 3/12 = 0.25 -> sd 0.5.
    (acc - 1.5) / 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices_on_line(xs: &[f64]) -> Vec<Device> {
        xs.iter()
            .map(|&x| Device::isotropic(Point2::new(x, 0.0)))
            .collect()
    }

    #[test]
    fn free_space_follows_log_distance() {
        let m = PropagationModel::free_space();
        let devs = devices_on_line(&[0.0, 1.0, 10.0, 100.0]);
        let plan = FloorPlan::new();
        let pl1 = m.path_loss_db(&devs, 0, 1, &plan);
        let pl10 = m.path_loss_db(&devs, 0, 2, &plan);
        let pl100 = m.path_loss_db(&devs, 0, 3, &plan);
        assert!((pl1 - 40.0).abs() < 1e-9);
        assert!((pl10 - 60.0).abs() < 1e-9);
        assert!((pl100 - 80.0).abs() < 1e-9);
    }

    #[test]
    fn free_space_decay_space_is_symmetric_and_geometric() {
        let m = PropagationModel::free_space();
        let devs = devices_on_line(&[0.0, 3.0, 7.0, 15.0]);
        let plan = FloorPlan::new();
        let s = m.decay_space(&devs, &plan).unwrap();
        assert!(s.is_symmetric(1e-9));
        // f = 10^4 * d^2: metricity must be ~2... note that rescaling by
        // 10^4 does not change zeta.
        let z = decay_core::metricity(&s).zeta;
        assert!((z - 2.0).abs() < 0.05, "zeta = {z}");
    }

    #[test]
    fn walls_increase_decay() {
        let m = PropagationModel::free_space();
        let devs = devices_on_line(&[0.0, 10.0]);
        let open = m.decay_space(&devs, &FloorPlan::new()).unwrap();
        let mut plan = FloorPlan::new();
        plan.add_wall(crate::floorplan::Wall::new(
            crate::geometry::Segment::new(Point2::new(5.0, -5.0), Point2::new(5.0, 5.0)),
            10.0,
        ));
        let blocked = m.decay_space(&devs, &plan).unwrap();
        let a = decay_core::NodeId::new(0);
        let b = decay_core::NodeId::new(1);
        // 10 dB = 10x decay.
        assert!((blocked.decay(a, b) / open.decay(a, b) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn hardware_offsets_produce_asymmetry() {
        let mut m = PropagationModel::free_space();
        m.hardware_sigma_db = 3.0;
        m.hardware_seed = 99;
        let devs = devices_on_line(&[0.0, 10.0, 25.0]);
        let s = m.decay_space(&devs, &FloorPlan::new()).unwrap();
        assert!(!s.is_symmetric(1e-6));
    }

    #[test]
    fn directional_antenna_strengthens_forward_link() {
        let m = PropagationModel::free_space();
        let fwd = Device {
            position: Point2::new(0.0, 0.0),
            antenna: AntennaPattern::Cardioid {
                orientation: 0.0, // facing +x
                front_db: 9.0,
                back_db: -9.0,
            },
        };
        let right = Device::isotropic(Point2::new(10.0, 0.0));
        let left = Device::isotropic(Point2::new(-10.0, 0.0));
        let devs = vec![fwd, right, left];
        let plan = FloorPlan::new();
        let to_right = m.path_loss_db(&devs, 0, 1, &plan);
        let to_left = m.path_loss_db(&devs, 0, 2, &plan);
        assert!((to_left - to_right - 18.0).abs() < 1e-9);
    }

    #[test]
    fn model_is_deterministic() {
        let m = PropagationModel::indoor(5);
        let devs = devices_on_line(&[0.0, 4.0, 9.0]);
        let plan = FloorPlan::office(1, 1, 12.0, 1.0, 6.0, 15.0);
        let a = m.decay_space(&devs, &plan).unwrap();
        let b = m.decay_space(&devs, &plan).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shadowing_perturbs_pure_geometry() {
        let clean = PropagationModel::free_space();
        let shadowed = PropagationModel {
            shadowing: NoiseField::new(3, 5.0, 8.0),
            ..clean
        };
        let devs = devices_on_line(&[0.0, 6.0, 13.0, 21.0, 34.0]);
        let plan = FloorPlan::new();
        let zc = decay_core::metricity(&clean.decay_space(&devs, &plan).unwrap()).zeta;
        let zs = decay_core::metricity(&shadowed.decay_space(&devs, &plan).unwrap()).zeta;
        assert!(zs != zc, "shadowing should change the metricity");
    }
}
