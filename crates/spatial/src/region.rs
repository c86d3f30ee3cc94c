//! Axis-aligned rectangles and circles.
//!
//! [`Rect`] doubles as the geometric primitive of the Section 4 index, whose
//! "hierarchical recursive decomposition of space \[is\] usually into
//! rectangles" over the (time × value) plane.

use crate::point::Point;

/// An axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]` (closed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub min_x: f64,
    /// Bottom edge.
    pub min_y: f64,
    /// Right edge.
    pub max_x: f64,
    /// Top edge.
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle; coordinates are normalized so min ≤ max.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Rect {
            min_x: min_x.min(max_x),
            min_y: min_y.min(max_y),
            max_x: min_x.max(max_x),
            max_y: min_y.max(max_y),
        }
    }

    /// Width along x.
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height along y.
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Whether the point lies inside (boundary inclusive).
    pub fn contains(&self, p: Point) -> bool {
        self.min_x <= p.x && p.x <= self.max_x && self.min_y <= p.y && p.y <= self.max_y
    }

    /// Whether two rectangles share at least a boundary point.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Whether `other` lies entirely within `self`.
    pub fn covers(&self, other: &Rect) -> bool {
        self.min_x <= other.min_x
            && other.max_x <= self.max_x
            && self.min_y <= other.min_y
            && other.max_y <= self.max_y
    }

    /// The smallest rectangle covering both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }
}

/// A circle (the paper's "within a radius of 5 miles" display region).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center point.
    pub center: Point,
    /// Radius (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle.
    ///
    /// # Panics
    /// Panics on a negative radius.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(radius >= 0.0, "circle radius must be non-negative");
        Circle { center, radius }
    }

    /// Whether the point lies inside (boundary inclusive).
    pub fn contains(&self, p: Point) -> bool {
        self.center.dist_sq(p) <= self.radius * self.radius
    }

    /// Bounding box of the circle.
    pub fn bounding_box(&self) -> Rect {
        Rect::new(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_normalizes() {
        let r = Rect::new(5.0, 6.0, 1.0, 2.0);
        assert_eq!((r.min_x, r.min_y, r.max_x, r.max_y), (1.0, 2.0, 5.0, 6.0));
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 16.0);
    }

    #[test]
    fn rect_containment_and_intersection() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.1, 5.0)));
        assert!(r.intersects(&Rect::new(9.0, 9.0, 20.0, 20.0)));
        assert!(r.intersects(&Rect::new(10.0, 0.0, 20.0, 10.0))); // touching
        assert!(!r.intersects(&Rect::new(11.0, 0.0, 20.0, 10.0)));
        assert!(r.covers(&Rect::new(1.0, 1.0, 9.0, 9.0)));
        assert!(!r.covers(&Rect::new(1.0, 1.0, 11.0, 9.0)));
    }

    #[test]
    fn rect_union() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(3.0, 3.0, 4.0, 4.0);
        let u = a.union(&b);
        assert_eq!((u.min_x, u.min_y, u.max_x, u.max_y), (0.0, 0.0, 4.0, 4.0));
    }

    #[test]
    fn circle_containment() {
        let c = Circle::new(Point::new(1.0, 1.0), 2.0);
        assert!(c.contains(Point::new(1.0, 3.0)));
        assert!(c.contains(Point::new(2.0, 2.0)));
        assert!(!c.contains(Point::new(4.0, 1.0)));
        let bb = c.bounding_box();
        assert_eq!((bb.min_x, bb.max_x), (-1.0, 3.0));
    }

    #[test]
    #[should_panic]
    fn negative_radius_panics() {
        let _ = Circle::new(Point::origin(), -1.0);
    }
}
