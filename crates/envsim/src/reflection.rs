//! One-bounce specular reflections — the remaining item on the paper's
//! list of real-environment effects ("walls, ceilings and obstacles, as
//! well as complex interactions involving reflections, shadowing,
//! multi-path signals, and anisotropic antennas", Section 1).
//!
//! The [`MultipathModel`] wraps a [`PropagationModel`] and adds, for every
//! ordered pair, the power arriving via single specular bounces off each
//! wall: the transmitter is mirrored across the wall's line, the image-to-
//! receiver ray must actually strike the wall *segment* (a valid specular
//! point), and the bounced path is charged the full image-path length plus
//! a per-bounce reflection loss. Powers add linearly — multipath can
//! therefore *reduce* effective decay (constructive energy collection),
//! one more way real matrices escape pure geometry while remaining
//! perfectly static and measurable.

use decay_core::{DecayError, DecaySpace};

use crate::floorplan::FloorPlan;
use crate::geometry::{Point2, Segment};
use crate::propagation::{Device, PropagationModel};

/// Mirrors `p` across the infinite line through `seg`; `None` when the
/// segment is degenerate (zero length).
pub fn mirror_across(p: Point2, seg: &Segment) -> Option<Point2> {
    let dx = seg.b.x - seg.a.x;
    let dy = seg.b.y - seg.a.y;
    let len2 = dx * dx + dy * dy;
    if len2 < 1e-18 {
        return None;
    }
    // Projection of (p - a) onto the segment direction.
    let t = ((p.x - seg.a.x) * dx + (p.y - seg.a.y) * dy) / len2;
    let foot = Point2::new(seg.a.x + t * dx, seg.a.y + t * dy);
    Some(Point2::new(2.0 * foot.x - p.x, 2.0 * foot.y - p.y))
}

/// A propagation model with one-bounce specular multipath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultipathModel {
    /// The direct-path model (log-distance + walls + shadowing + antennas
    /// + hardware offsets).
    pub base: PropagationModel,
    /// Extra loss charged per reflection, dB (typical interior surfaces:
    /// 6–15 dB).
    pub reflection_loss_db: f64,
}

impl MultipathModel {
    /// Wraps a base model with the given per-bounce loss.
    ///
    /// # Panics
    ///
    /// Panics if `reflection_loss_db` is negative (a reflecting surface
    /// cannot amplify).
    pub fn new(base: PropagationModel, reflection_loss_db: f64) -> Self {
        assert!(
            reflection_loss_db >= 0.0,
            "reflection loss must be non-negative"
        );
        MultipathModel {
            base,
            reflection_loss_db,
        }
    }

    /// Number of propagation paths (direct + valid single bounces) from
    /// device `i` to device `j`.
    pub fn path_count(&self, devices: &[Device], i: usize, j: usize, plan: &FloorPlan) -> usize {
        1 + self.bounce_lengths(devices, i, j, plan).len()
    }

    /// The image-path lengths of all valid single bounces from `i` to `j`.
    fn bounce_lengths(&self, devices: &[Device], i: usize, j: usize, plan: &FloorPlan) -> Vec<f64> {
        let tx = devices[i].position;
        let rx = devices[j].position;
        let mut lengths = Vec::new();
        for wall in plan.walls() {
            let Some(image) = mirror_across(tx, &wall.segment) else {
                continue;
            };
            // The specular point is where the image→rx ray crosses the
            // wall; a bounce only exists when that crossing lies on the
            // wall segment itself.
            if !Segment::new(image, rx).intersects(&wall.segment) {
                continue;
            }
            let length = image.distance(rx);
            if length < 1e-9 {
                continue; // degenerate: rx on the wall at the image point
            }
            lengths.push(length);
        }
        lengths
    }

    /// The directed *effective* path loss in dB: powers of the direct path
    /// and every valid bounce added linearly, then converted back to dB.
    /// Never exceeds the base model's direct-path loss (extra paths only
    /// add energy), and is clamped at ≥ 0 dB like the base model.
    pub fn path_loss_db(&self, devices: &[Device], i: usize, j: usize, plan: &FloorPlan) -> f64 {
        let direct_db = self.base.path_loss_db(devices, i, j, plan);
        let mut gain = 10f64.powf(-direct_db / 10.0);
        let d_direct = devices[i].position.distance(devices[j].position).max(0.1);
        for length in self.bounce_lengths(devices, i, j, plan) {
            // Charge the bounce the same per-meter law as the direct path
            // plus the reflection loss: its dB loss is the direct loss
            // with the geometric term re-evaluated at the image length.
            let extra_geometric = 10.0 * self.base.exponent * (length.max(0.1) / d_direct).log10();
            let bounce_db = direct_db + extra_geometric + self.reflection_loss_db;
            gain += 10f64.powf(-bounce_db / 10.0);
        }
        (-10.0 * gain.log10()).max(0.0)
    }

    /// Builds the decay space with multipath:
    /// `f(i, j) = 10^{PL_eff(i→j)/10}`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Wall;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn corridor_wall() -> FloorPlan {
        // A long wall along y = 2 above the x axis.
        let mut plan = FloorPlan::new();
        plan.add_wall(Wall::new(Segment::new(p(-100.0, 2.0), p(100.0, 2.0)), 8.0));
        plan
    }

    #[test]
    fn mirror_across_horizontal_line() {
        let seg = Segment::new(p(0.0, 2.0), p(10.0, 2.0));
        let m = mirror_across(p(3.0, 0.0), &seg).unwrap();
        assert!((m.x - 3.0).abs() < 1e-12);
        assert!((m.y - 4.0).abs() < 1e-12);
        // Degenerate segment.
        assert!(mirror_across(p(0.0, 0.0), &Segment::new(p(1.0, 1.0), p(1.0, 1.0))).is_none());
    }

    #[test]
    fn bounce_requires_the_specular_point_on_the_wall() {
        let model = MultipathModel::new(PropagationModel::free_space(), 6.0);
        let devs = vec![
            Device::isotropic(p(0.0, 0.0)),
            Device::isotropic(p(10.0, 0.0)),
        ];
        // Wall spans the specular point (x = 5): bounce exists.
        let plan = corridor_wall();
        assert_eq!(model.path_count(&devs, 0, 1, &plan), 2);
        // Short wall far to the side: no valid specular point.
        let mut side = FloorPlan::new();
        side.add_wall(Wall::new(Segment::new(p(50.0, 2.0), p(60.0, 2.0)), 8.0));
        assert_eq!(model.path_count(&devs, 0, 1, &side), 1);
    }

    #[test]
    fn multipath_only_adds_energy() {
        let base = PropagationModel::free_space();
        let model = MultipathModel::new(base, 6.0);
        let devs = vec![
            Device::isotropic(p(0.0, 0.0)),
            Device::isotropic(p(10.0, 0.0)),
        ];
        let plan = corridor_wall();
        let with = model.path_loss_db(&devs, 0, 1, &plan);
        let without = base.path_loss_db(&devs, 0, 1, &plan);
        assert!(
            with < without,
            "reflection must reduce the effective loss: {with} vs {without}"
        );
        // ...but a reflected path is weaker than a direct one, so the gain
        // is bounded by 3 dB (doubling).
        assert!(without - with < 3.0);
    }

    #[test]
    fn huge_reflection_loss_recovers_the_base_model() {
        let base = PropagationModel::free_space();
        let model = MultipathModel::new(base, 300.0);
        let devs = vec![
            Device::isotropic(p(0.0, 0.0)),
            Device::isotropic(p(10.0, 0.0)),
        ];
        let plan = corridor_wall();
        let with = model.path_loss_db(&devs, 0, 1, &plan);
        let without = base.path_loss_db(&devs, 0, 1, &plan);
        assert!((with - without).abs() < 1e-9);
    }

    #[test]
    fn decay_space_changes_metricity_versus_base() {
        let base = PropagationModel::free_space();
        let model = MultipathModel::new(base, 6.0);
        let devs: Vec<Device> = [0.0, 3.0, 7.0, 12.0, 20.0]
            .iter()
            .map(|&x| Device::isotropic(p(x, 0.0)))
            .collect();
        let plan = corridor_wall();
        let multi = model.decay_space(&devs, &plan).unwrap();
        let plain = base.decay_space(&devs, &plan).unwrap();
        // Multipath decays are pointwise no larger...
        for (a, b, f) in plain.ordered_pairs() {
            assert!(multi.decay(a, b) <= f + 1e-9);
        }
        // ...and genuinely different (the bounce geometry varies by pair).
        assert_ne!(multi, plain);
    }

    #[test]
    fn deterministic() {
        let model = MultipathModel::new(PropagationModel::indoor(9), 8.0);
        let devs: Vec<Device> = [0.0, 4.0, 9.0]
            .iter()
            .map(|&x| Device::isotropic(p(x, 0.5)))
            .collect();
        let plan = corridor_wall();
        assert_eq!(
            model.decay_space(&devs, &plan).unwrap(),
            model.decay_space(&devs, &plan).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "reflection loss must be non-negative")]
    fn negative_reflection_loss_is_rejected() {
        MultipathModel::new(PropagationModel::free_space(), -1.0);
    }
}
