//! End-to-end indoor scenarios: an office floor plan populated with motes,
//! ground-truth propagation, and simulated measurement — the synthetic
//! stand-in for the testbed campaigns of the sibling paper [24].

use decay_core::DecaySpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::antenna::AntennaPattern;
use crate::floorplan::FloorPlan;
use crate::geometry::Point2;
use crate::measurement::{Measured, MeasurementModel};
use crate::propagation::{Device, PropagationModel};

/// Configuration of an office testbed scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfficeConfig {
    /// Rooms along x.
    pub rooms_x: usize,
    /// Rooms along y.
    pub rooms_y: usize,
    /// Room edge length, meters.
    pub room_size: f64,
    /// Door gap width, meters.
    pub door: f64,
    /// Interior wall penetration loss, dB.
    pub wall_loss_db: f64,
    /// Outer shell loss, dB.
    pub shell_loss_db: f64,
    /// Motes placed uniformly at random per room.
    pub motes_per_room: usize,
    /// Fraction of motes given directional (cardioid) antennas, in `[0, 1]`.
    pub directional_fraction: f64,
    /// Master seed (placement, shadowing, hardware, measurement).
    pub seed: u64,
}

impl Default for OfficeConfig {
    /// A 3×2 office of 8 m rooms with 3 motes per room — 18 motes, a scale
    /// at which every exact analysis in this workspace still runs.
    fn default() -> Self {
        OfficeConfig {
            rooms_x: 3,
            rooms_y: 2,
            room_size: 8.0,
            door: 1.2,
            wall_loss_db: 6.0,
            shell_loss_db: 15.0,
            motes_per_room: 3,
            directional_fraction: 0.0,
            seed: 1,
        }
    }
}

/// A built scenario: plan, devices, ground truth and measurement.
#[derive(Debug, Clone)]
pub struct OfficeScenario {
    /// The floor plan.
    pub plan: FloorPlan,
    /// The deployed devices.
    pub devices: Vec<Device>,
    /// Device positions (convenience copy of `devices[i].position`).
    pub positions: Vec<Point2>,
    /// The propagation model used.
    pub model: PropagationModel,
    /// Ground-truth decay space.
    pub truth: DecaySpace,
    /// Measured decay space (RSSI reconstruction).
    pub measured: Measured,
}

impl OfficeConfig {
    /// Builds the scenario deterministically from the config.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (no rooms, no motes, fraction
    /// outside `[0, 1]`).
    pub fn build(&self) -> OfficeScenario {
        assert!(
            (0.0..=1.0).contains(&self.directional_fraction),
            "directional fraction must be in [0, 1]"
        );
        assert!(self.motes_per_room > 0, "need at least one mote per room");
        let plan = FloorPlan::office(
            self.rooms_x,
            self.rooms_y,
            self.room_size,
            self.door,
            self.wall_loss_db,
            self.shell_loss_db,
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut devices = Vec::new();
        let margin = 0.5;
        for ry in 0..self.rooms_y {
            for rx in 0..self.rooms_x {
                let x0 = rx as f64 * self.room_size;
                let y0 = ry as f64 * self.room_size;
                for _ in 0..self.motes_per_room {
                    let pos = Point2::new(
                        rng.gen_range(x0 + margin..x0 + self.room_size - margin),
                        rng.gen_range(y0 + margin..y0 + self.room_size - margin),
                    );
                    let antenna = if rng.gen_range(0.0..1.0) < self.directional_fraction {
                        AntennaPattern::Cardioid {
                            orientation: rng.gen_range(0.0..std::f64::consts::TAU),
                            front_db: 6.0,
                            back_db: -12.0,
                        }
                    } else {
                        AntennaPattern::Isotropic
                    };
                    devices.push(Device {
                        position: pos,
                        antenna,
                    });
                }
            }
        }
        let model = PropagationModel::indoor(self.seed.wrapping_add(17));
        let truth = model
            .decay_space(&devices, &plan)
            .expect("motes are pairwise distinct");
        let measured = MeasurementModel::default()
            .measure(&truth, self.seed.wrapping_add(29))
            .expect("measurement reconstruction is valid");
        let positions = devices.iter().map(|d| d.position).collect();
        OfficeScenario {
            plan,
            devices,
            positions,
            model,
            truth,
            measured,
        }
    }
}

impl OfficeScenario {
    /// Number of motes.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the scenario has no motes (never true once built).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Mean absolute dB error between measured and true decays over
    /// non-censored pairs.
    pub fn measurement_error_db(&self) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for (i, j, f_true) in self.truth.ordered_pairs() {
            if self.measured.censored.contains(&(i, j)) {
                continue;
            }
            let f_est = self.measured.space.decay(i, j);
            total += (10.0 * (f_est / f_true).log10()).abs();
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::distance_decay_correlation;
    use decay_core::metricity;

    #[test]
    fn default_scenario_builds() {
        let sc = OfficeConfig::default().build();
        assert_eq!(sc.len(), 18);
        assert_eq!(sc.truth.len(), 18);
        assert_eq!(sc.measured.space.len(), 18);
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = OfficeConfig::default().build();
        let b = OfficeConfig::default().build();
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.measured.space, b.measured.space);
    }

    #[test]
    fn indoor_decorrelates_distance_from_decay() {
        // The headline phenomenon: walls + shadowing push the distance-
        // decay correlation well below the free-space value of ~1.
        let sc = OfficeConfig {
            rooms_x: 3,
            rooms_y: 2,
            wall_loss_db: 10.0,
            ..Default::default()
        }
        .build();
        let c = distance_decay_correlation(&sc.positions, &sc.truth);
        assert!(c < 0.9, "correlation = {c} (should drop below free space)");
        assert!(c > 0.0, "correlation = {c} (distance still matters a bit)");
    }

    #[test]
    fn indoor_metricity_is_moderate() {
        let sc = OfficeConfig::default().build();
        let z = metricity(&sc.truth).zeta;
        // Indoor spaces have zeta above the pure exponent but far from the
        // a-priori lg(max/min) bound.
        assert!(z > 3.0, "zeta = {z}");
        assert!(z <= decay_core::zeta_upper_bound(&sc.truth), "zeta = {z}");
    }

    #[test]
    fn measurement_error_is_small() {
        let sc = OfficeConfig::default().build();
        let err = sc.measurement_error_db();
        assert!(err < 2.0, "mean error {err} dB");
    }

    #[test]
    fn directional_fraction_changes_space() {
        let base = OfficeConfig::default().build();
        let directional = OfficeConfig {
            directional_fraction: 1.0,
            ..Default::default()
        }
        .build();
        assert_ne!(base.truth, directional.truth);
    }
}
