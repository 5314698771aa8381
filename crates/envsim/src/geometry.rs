//! Minimal 2D geometry: points, segments, and segment intersection, used
//! to count wall crossings along line-of-sight paths.

/// A point in the plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point2 {
    /// X coordinate in meters.
    pub x: f64,
    /// Y coordinate in meters.
    pub y: f64,
}

impl Point2 {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Angle of the vector from `self` to `other`, in radians.
    pub fn angle_to(&self, other: Point2) -> f64 {
        (other.y - self.y).atan2(other.x - self.x)
    }

    /// Midpoint between `self` and `other`.
    pub fn midpoint(&self, other: Point2) -> Point2 {
        Point2::new(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))
    }
}

impl From<(f64, f64)> for Point2 {
    fn from((x, y): (f64, f64)) -> Self {
        Point2::new(x, y)
    }
}

/// A line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// One endpoint.
    pub a: Point2,
    /// The other endpoint.
    pub b: Point2,
}

impl Segment {
    /// Creates a segment.
    pub const fn new(a: Point2, b: Point2) -> Self {
        Segment { a, b }
    }

    /// Length of the segment.
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Whether this segment properly intersects `other` (shared interior
    /// point; touching at endpoints counts as crossing, so a signal path
    /// grazing a wall end is attenuated — the conservative choice).
    pub fn intersects(&self, other: &Segment) -> bool {
        segments_intersect(self.a, self.b, other.a, other.b)
    }
}

/// Orientation of the ordered triple (p, q, r): positive for
/// counter-clockwise, negative for clockwise, zero for collinear (with a
/// tolerance scaled to the coordinates).
fn orient(p: Point2, q: Point2, r: Point2) -> f64 {
    (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
}

fn on_segment(p: Point2, q: Point2, r: Point2) -> bool {
    // r collinear with pq assumed; check bounding box.
    r.x >= p.x.min(q.x) - 1e-12
        && r.x <= p.x.max(q.x) + 1e-12
        && r.y >= p.y.min(q.y) - 1e-12
        && r.y <= p.y.max(q.y) + 1e-12
}

/// Whether segments `p1 q1` and `p2 q2` intersect (including endpoint
/// touching and collinear overlap).
pub fn segments_intersect(p1: Point2, q1: Point2, p2: Point2, q2: Point2) -> bool {
    let d1 = orient(p2, q2, p1);
    let d2 = orient(p2, q2, q1);
    let d3 = orient(p1, q1, p2);
    let d4 = orient(p1, q1, q2);

    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    // Collinear / endpoint cases.
    (d1.abs() < 1e-12 && on_segment(p2, q2, p1))
        || (d2.abs() < 1e-12 && on_segment(p2, q2, q1))
        || (d3.abs() < 1e-12 && on_segment(p1, q1, p2))
        || (d4.abs() < 1e-12 && on_segment(p1, q1, q2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn distance_and_midpoint() {
        assert_eq!(p(0.0, 0.0).distance(p(3.0, 4.0)), 5.0);
        assert_eq!(p(0.0, 0.0).midpoint(p(2.0, 4.0)), p(1.0, 2.0));
    }

    #[test]
    fn angle_to_cardinal_directions() {
        assert!((p(0.0, 0.0).angle_to(p(1.0, 0.0)) - 0.0).abs() < 1e-12);
        assert!((p(0.0, 0.0).angle_to(p(0.0, 1.0)) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn crossing_segments_intersect() {
        let s1 = Segment::new(p(0.0, 0.0), p(2.0, 2.0));
        let s2 = Segment::new(p(0.0, 2.0), p(2.0, 0.0));
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        let s1 = Segment::new(p(0.0, 0.0), p(2.0, 0.0));
        let s2 = Segment::new(p(0.0, 1.0), p(2.0, 1.0));
        assert!(!s1.intersects(&s2));
    }

    #[test]
    fn touching_at_endpoint_counts() {
        let s1 = Segment::new(p(0.0, 0.0), p(1.0, 1.0));
        let s2 = Segment::new(p(1.0, 1.0), p(2.0, 0.0));
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn collinear_overlap_counts() {
        let s1 = Segment::new(p(0.0, 0.0), p(2.0, 0.0));
        let s2 = Segment::new(p(1.0, 0.0), p(3.0, 0.0));
        assert!(s1.intersects(&s2));
        let s3 = Segment::new(p(3.0, 0.0), p(4.0, 0.0));
        assert!(!s1.intersects(&s3));
    }

    #[test]
    fn near_miss_does_not_intersect() {
        let s1 = Segment::new(p(0.0, 0.0), p(1.0, 0.0));
        let s2 = Segment::new(p(0.5, 0.001), p(0.5, 1.0));
        assert!(!s1.intersects(&s2));
    }

    #[test]
    fn segment_length() {
        assert_eq!(Segment::new(p(0.0, 0.0), p(0.0, 5.0)).length(), 5.0);
    }
}
