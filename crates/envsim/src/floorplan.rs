//! Floor plans: walls with attenuation and office-building generators.

use crate::geometry::{Point2, Segment};

/// A wall: a segment with a per-crossing attenuation in dB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// The wall's footprint.
    pub segment: Segment,
    /// Attenuation suffered by a signal crossing this wall, dB.
    pub loss_db: f64,
}

impl Wall {
    /// Creates a wall.
    ///
    /// # Panics
    ///
    /// Panics if `loss_db` is negative or not finite.
    pub fn new(segment: Segment, loss_db: f64) -> Self {
        assert!(
            loss_db.is_finite() && loss_db >= 0.0,
            "wall loss must be non-negative"
        );
        Wall { segment, loss_db }
    }
}

/// A static floor plan: a collection of attenuating walls.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FloorPlan {
    walls: Vec<Wall>,
}

impl FloorPlan {
    /// An empty (free-space) plan.
    pub fn new() -> Self {
        FloorPlan::default()
    }

    /// Adds a wall; returns `&mut self` for chaining.
    pub fn add_wall(&mut self, wall: Wall) -> &mut Self {
        self.walls.push(wall);
        self
    }

    /// The walls of the plan.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// Total attenuation in dB accumulated along the straight path from
    /// `tx` to `rx` (sum of the losses of every crossed wall).
    pub fn crossing_loss_db(&self, tx: Point2, rx: Point2) -> f64 {
        let path = Segment::new(tx, rx);
        self.walls
            .iter()
            .filter(|w| w.segment.intersects(&path))
            .map(|w| w.loss_db)
            .sum()
    }

    /// Number of walls crossed on the straight path from `tx` to `rx`.
    pub fn crossings(&self, tx: Point2, rx: Point2) -> usize {
        let path = Segment::new(tx, rx);
        self.walls
            .iter()
            .filter(|w| w.segment.intersects(&path))
            .count()
    }

    /// An office floor: `rooms_x × rooms_y` rooms of `room` meters square,
    /// interior walls with `wall_loss_db`, a `door` meters gap in the
    /// middle of every interior wall, and an outer shell with
    /// `shell_loss_db`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters (zero rooms, non-positive sizes, a
    /// door wider than a wall).
    pub fn office(
        rooms_x: usize,
        rooms_y: usize,
        room: f64,
        door: f64,
        wall_loss_db: f64,
        shell_loss_db: f64,
    ) -> Self {
        assert!(rooms_x > 0 && rooms_y > 0, "need at least one room");
        assert!(room > 0.0, "room size must be positive");
        assert!(door >= 0.0 && door < room, "door must fit in a wall");
        let w = rooms_x as f64 * room;
        let h = rooms_y as f64 * room;
        let mut plan = FloorPlan::new();
        let seg = |x0: f64, y0: f64, x1: f64, y1: f64| {
            Segment::new(Point2::new(x0, y0), Point2::new(x1, y1))
        };
        // Outer shell (no doors).
        plan.add_wall(Wall::new(seg(0.0, 0.0, w, 0.0), shell_loss_db));
        plan.add_wall(Wall::new(seg(0.0, h, w, h), shell_loss_db));
        plan.add_wall(Wall::new(seg(0.0, 0.0, 0.0, h), shell_loss_db));
        plan.add_wall(Wall::new(seg(w, 0.0, w, h), shell_loss_db));
        // Interior vertical walls with a centered door per room edge.
        for i in 1..rooms_x {
            let x = i as f64 * room;
            for j in 0..rooms_y {
                let y0 = j as f64 * room;
                let gap0 = y0 + (room - door) / 2.0;
                let gap1 = gap0 + door;
                plan.add_wall(Wall::new(seg(x, y0, x, gap0), wall_loss_db));
                plan.add_wall(Wall::new(seg(x, gap1, x, y0 + room), wall_loss_db));
            }
        }
        // Interior horizontal walls with a centered door per room edge.
        for j in 1..rooms_y {
            let y = j as f64 * room;
            for i in 0..rooms_x {
                let x0 = i as f64 * room;
                let gap0 = x0 + (room - door) / 2.0;
                let gap1 = gap0 + door;
                plan.add_wall(Wall::new(seg(x0, y, gap0, y), wall_loss_db));
                plan.add_wall(Wall::new(seg(gap1, y, x0 + room, y), wall_loss_db));
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn free_space_has_no_loss() {
        let plan = FloorPlan::new();
        assert_eq!(plan.crossing_loss_db(p(0.0, 0.0), p(10.0, 10.0)), 0.0);
        assert_eq!(plan.crossings(p(0.0, 0.0), p(10.0, 10.0)), 0);
    }

    #[test]
    fn single_wall_attenuates_crossing_paths_only() {
        let mut plan = FloorPlan::new();
        plan.add_wall(Wall::new(Segment::new(p(5.0, -10.0), p(5.0, 10.0)), 7.0));
        assert_eq!(plan.crossing_loss_db(p(0.0, 0.0), p(10.0, 0.0)), 7.0);
        assert_eq!(plan.crossing_loss_db(p(0.0, 0.0), p(4.0, 0.0)), 0.0);
    }

    #[test]
    fn multiple_walls_accumulate() {
        let mut plan = FloorPlan::new();
        for x in [2.0, 4.0, 6.0] {
            plan.add_wall(Wall::new(Segment::new(p(x, -1.0), p(x, 1.0)), 5.0));
        }
        assert_eq!(plan.crossing_loss_db(p(0.0, 0.0), p(7.0, 0.0)), 15.0);
        assert_eq!(plan.crossings(p(0.0, 0.0), p(5.0, 0.0)), 2);
    }

    #[test]
    fn office_same_room_is_line_of_sight() {
        let plan = FloorPlan::office(2, 2, 10.0, 1.0, 6.0, 15.0);
        // Two points inside room (0,0).
        assert_eq!(plan.crossing_loss_db(p(2.0, 2.0), p(8.0, 8.0)), 0.0);
    }

    #[test]
    fn office_neighbor_room_crosses_one_wall_unless_through_door() {
        let plan = FloorPlan::office(2, 1, 10.0, 2.0, 6.0, 15.0);
        // Straight through the interior wall off the door gap.
        assert_eq!(plan.crossing_loss_db(p(5.0, 2.0), p(15.0, 2.0)), 6.0);
        // Straight through the centered door (gap y in [4, 6]).
        assert_eq!(plan.crossing_loss_db(p(5.0, 5.0), p(15.0, 5.0)), 0.0);
    }

    #[test]
    fn office_diagonal_crosses_two_walls() {
        let plan = FloorPlan::office(2, 2, 10.0, 1.0, 6.0, 15.0);
        // Room (0,0) to room (1,1): crosses one vertical + one horizontal
        // interior wall (away from doors).
        let loss = plan.crossing_loss_db(p(2.0, 2.0), p(18.0, 17.0));
        assert_eq!(loss, 12.0);
    }

    #[test]
    fn office_wall_count() {
        let plan = FloorPlan::office(2, 2, 10.0, 1.0, 6.0, 15.0);
        // 4 shell + 2 interior edges * 2 rooms * 2 segments each = 12.
        assert_eq!(plan.walls().len(), 4 + 4 + 4);
    }

    #[test]
    #[should_panic(expected = "door must fit")]
    fn oversized_door_panics() {
        FloorPlan::office(2, 2, 5.0, 6.0, 3.0, 10.0);
    }
}
