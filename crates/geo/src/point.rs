//! Planar geometry primitives, in metres.
//!
//! The campus is small enough (≤1 km) that a flat local tangent plane is
//! exact for our purposes; positions are metres east/north of the campus
//! south-west corner.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A point (or vector) in the campus plane, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Metres east of the origin.
    pub x: f64,
    /// Metres north of the origin.
    pub y: f64,
}

impl Point {
    /// Constructs a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, metres.
    pub fn distance(self, other: Point) -> f64 {
        (self - other).norm()
    }

    /// Vector length.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Azimuth of the vector from `self` to `other`, in degrees
    /// counter-clockwise from east, normalised to `[0, 360)`.
    pub fn azimuth_to(self, other: Point) -> f64 {
        let d = other - self;
        let deg = d.y.atan2(d.x).to_degrees();
        // `(deg + 360.0) % 360.0` without the libm fmod: the sum lies in
        // [180, 540], where subtracting 360 is exact (Sterbenz), so the
        // result matches the fmod bit for bit (NaN stays NaN).
        let wrapped = deg + 360.0;
        if wrapped >= 360.0 {
            wrapped - 360.0
        } else {
            wrapped
        }
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        self + (other - self) * t
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}
impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}
impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// A directed line segment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Constructs a segment from `a` to `b`.
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length, metres.
    pub fn length(self) -> f64 {
        self.a.distance(self.b)
    }

    /// Point at parameter `t ∈ [0, 1]` along the segment.
    pub fn at(self, t: f64) -> Point {
        self.a.lerp(self.b, t)
    }

    /// Whether this segment properly or improperly intersects `other`.
    pub fn intersects(self, other: Segment) -> bool {
        // Orientation-based test with collinear handling.
        fn orient(p: Point, q: Point, r: Point) -> f64 {
            (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
        }
        fn on_segment(p: Point, q: Point, r: Point) -> bool {
            q.x <= p.x.max(r.x) + 1e-12
                && q.x + 1e-12 >= p.x.min(r.x)
                && q.y <= p.y.max(r.y) + 1e-12
                && q.y + 1e-12 >= p.y.min(r.y)
        }
        let (p1, q1, p2, q2) = (self.a, self.b, other.a, other.b);
        let d1 = orient(p1, q1, p2);
        let d2 = orient(p1, q1, q2);
        let d3 = orient(p2, q2, p1);
        let d4 = orient(p2, q2, q1);
        if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
        {
            return true;
        }
        (d1.abs() < 1e-12 && on_segment(p1, p2, q1))
            || (d2.abs() < 1e-12 && on_segment(p1, q2, q1))
            || (d3.abs() < 1e-12 && on_segment(p2, p1, q2))
            || (d4.abs() < 1e-12 && on_segment(p2, q1, q2))
    }
}

/// An axis-aligned rectangle, used for campus bounds and building
/// footprints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Minimum (south-west) corner.
    pub min: Point,
    /// Maximum (north-east) corner.
    pub max: Point,
}

impl Rect {
    /// Constructs a rectangle from two opposite corners (any order).
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Constructs from the SW corner plus width/height.
    pub fn from_origin_size(origin: Point, width: f64, height: f64) -> Self {
        Rect::new(origin, origin + Point::new(width, height))
    }

    /// Width (east-west extent), metres.
    pub fn width(self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (north-south extent), metres.
    pub fn height(self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in square metres.
    pub fn area(self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point.
    pub fn center(self) -> Point {
        Point::new(
            0.5 * (self.min.x + self.max.x),
            0.5 * (self.min.y + self.max.y),
        )
    }

    /// Whether `p` lies inside or on the boundary.
    pub fn contains(self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether `p` lies strictly inside.
    pub fn contains_strict(self, p: Point) -> bool {
        p.x > self.min.x && p.x < self.max.x && p.y > self.min.y && p.y < self.max.y
    }

    /// The four edges, counter-clockwise from the bottom edge.
    pub fn edges(self) -> [Segment; 4] {
        let bl = self.min;
        let br = Point::new(self.max.x, self.min.y);
        let tr = self.max;
        let tl = Point::new(self.min.x, self.max.y);
        [
            Segment::new(bl, br),
            Segment::new(br, tr),
            Segment::new(tr, tl),
            Segment::new(tl, bl),
        ]
    }

    /// Number of rectangle edges crossed by `seg` (0, 1 or 2 for a convex
    /// footprint; crossing through a corner may count both edges, which
    /// overestimates walls by at most one — acceptable for loss modelling).
    pub fn crossings(self, seg: Segment) -> usize {
        if self.misses_bbox(seg) {
            return 0;
        }
        self.edges().iter().filter(|e| e.intersects(seg)).count()
    }

    /// `self.crossings(seg) > 0`, stopping at the first crossed edge.
    pub fn is_crossed_by(self, seg: Segment) -> bool {
        !self.misses_bbox(seg) && self.edges().iter().any(|e| e.intersects(seg))
    }

    /// Fast reject: both endpoints on the same outside half-plane.
    fn misses_bbox(self, seg: Segment) -> bool {
        (seg.a.x < self.min.x && seg.b.x < self.min.x)
            || (seg.a.x > self.max.x && seg.b.x > self.max.x)
            || (seg.a.y < self.min.y && seg.b.y < self.min.y)
            || (seg.a.y > self.max.y && seg.b.y > self.max.y)
    }

    /// Whether the segment passes through (or touches) the rectangle.
    pub fn intersects_segment(self, seg: Segment) -> bool {
        self.contains(seg.a) || self.contains(seg.b) || self.is_crossed_by(seg)
    }

    /// Expands the rectangle outward by `margin` metres on all sides.
    pub fn inflate(self, margin: f64) -> Rect {
        Rect::new(
            self.min - Point::new(margin, margin),
            self.max + Point::new(margin, margin),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_and_norm() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!((b - a).norm(), 5.0);
    }

    #[test]
    fn azimuth_quadrants() {
        let o = Point::new(0.0, 0.0);
        assert_eq!(o.azimuth_to(Point::new(1.0, 0.0)), 0.0);
        assert_eq!(o.azimuth_to(Point::new(0.0, 1.0)), 90.0);
        assert_eq!(o.azimuth_to(Point::new(-1.0, 0.0)), 180.0);
        assert_eq!(o.azimuth_to(Point::new(0.0, -1.0)), 270.0);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, 10.0));
    }

    #[test]
    fn segment_intersection_crossing() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let s2 = Segment::new(Point::new(0.0, 10.0), Point::new(10.0, 0.0));
        assert!(s1.intersects(s2));
    }

    #[test]
    fn segment_intersection_disjoint() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        let s2 = Segment::new(Point::new(0.0, 1.0), Point::new(1.0, 1.0));
        assert!(!s1.intersects(s2));
    }

    #[test]
    fn segment_intersection_touching() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(5.0, 0.0));
        let s2 = Segment::new(Point::new(5.0, 0.0), Point::new(5.0, 5.0));
        assert!(s1.intersects(s2));
    }

    #[test]
    fn rect_contains() {
        let r = Rect::from_origin_size(Point::new(0.0, 0.0), 10.0, 20.0);
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(!r.contains_strict(Point::new(0.0, 0.0)));
        assert!(!r.contains(Point::new(11.0, 5.0)));
        assert_eq!(r.area(), 200.0);
        assert_eq!(r.center(), Point::new(5.0, 10.0));
    }

    #[test]
    fn rect_crossings_through() {
        let r = Rect::from_origin_size(Point::new(10.0, 10.0), 10.0, 10.0);
        // Straight through: crosses two walls.
        let through = Segment::new(Point::new(0.0, 15.0), Point::new(30.0, 15.0));
        assert_eq!(r.crossings(through), 2);
        // Ends inside: crosses one wall.
        let into = Segment::new(Point::new(0.0, 15.0), Point::new(15.0, 15.0));
        assert_eq!(r.crossings(into), 1);
        // Entirely outside.
        let out = Segment::new(Point::new(0.0, 0.0), Point::new(5.0, 5.0));
        assert_eq!(r.crossings(out), 0);
        // Entirely inside: no wall crossed.
        let inside = Segment::new(Point::new(12.0, 12.0), Point::new(18.0, 18.0));
        assert_eq!(r.crossings(inside), 0);
    }

    #[test]
    fn rect_intersects_segment_inside_case() {
        let r = Rect::from_origin_size(Point::new(0.0, 0.0), 10.0, 10.0);
        let inside = Segment::new(Point::new(1.0, 1.0), Point::new(2.0, 2.0));
        assert!(r.intersects_segment(inside));
    }

    #[test]
    fn inflate_grows() {
        let r = Rect::from_origin_size(Point::new(5.0, 5.0), 10.0, 10.0).inflate(2.0);
        assert_eq!(r.min, Point::new(3.0, 3.0));
        assert_eq!(r.max, Point::new(17.0, 17.0));
    }
}
