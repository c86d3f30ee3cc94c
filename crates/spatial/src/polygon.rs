//! Simple polygons: containment, edges, area and bounding boxes.
//!
//! The paper's `INSIDE(o, P)` / `OUTSIDE(o, P)` spatial methods take a point
//! object and a polygon object.  Containment treats the boundary as inside
//! (so `INSIDE` and `OUTSIDE` are complementary, as the paper's pairing
//! suggests).

use crate::point::{Point, Velocity};
use crate::region::Rect;
/// A simple (non-self-intersecting) polygon, vertices in order (either
/// orientation).
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

/// One edge of a polygon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Edge start vertex.
    pub a: Point,
    /// Edge end vertex.
    pub b: Point,
}

impl Polygon {
    /// Creates a polygon from at least three vertices.
    ///
    /// # Panics
    /// Panics when fewer than three vertices are supplied.
    pub fn new(vertices: Vec<Point>) -> Self {
        assert!(
            vertices.len() >= 3,
            "a polygon needs at least 3 vertices, got {}",
            vertices.len()
        );
        Polygon { vertices }
    }

    /// Axis-aligned rectangle polygon with corners `(x0, y0)` and `(x1, y1)`.
    pub fn rectangle(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        let (x0, x1) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
        let (y0, y1) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
        Polygon::new(vec![
            Point::new(x0, y0),
            Point::new(x1, y0),
            Point::new(x1, y1),
            Point::new(x0, y1),
        ])
    }

    /// Regular `n`-gon approximation of a circle (used for "within a radius
    /// of 5 miles"-style display regions that move with a vehicle, as in the
    /// paper's introduction).
    pub fn regular(center: Point, radius: f64, n: usize) -> Self {
        assert!(n >= 3, "need at least 3 sides");
        let vertices = (0..n)
            .map(|i| {
                let a = std::f64::consts::TAU * i as f64 / n as f64;
                Point::new(center.x + radius * a.cos(), center.y + radius * a.sin())
            })
            .collect();
        Polygon::new(vertices)
    }

    /// The vertices in order.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Iterator over the edges, closing back to the first vertex.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Edge {
            a: self.vertices[i],
            b: self.vertices[(i + 1) % n],
        })
    }

    /// Point containment (boundary counts as inside), by ray casting with an
    /// explicit on-boundary check for robustness at vertices and horizontal
    /// edges.
    pub fn contains(&self, p: Point) -> bool {
        if self.on_boundary(p) {
            return true;
        }
        // Standard even-odd ray cast to +x.
        let mut inside = false;
        for e in self.edges() {
            let (a, b) = (e.a, e.b);
            let crosses = (a.y > p.y) != (b.y > p.y);
            if crosses {
                let x_at = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
                if p.x < x_at {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// Whether `p` lies on the polygon boundary (within a small tolerance).
    pub fn on_boundary(&self, p: Point) -> bool {
        self.edges().any(|e| e.contains_point(p, 1e-9))
    }

    /// Signed area (positive for counter-clockwise orientation).
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut s = 0.0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            s += a.x * b.y - b.x * a.y;
        }
        s / 2.0
    }

    /// Absolute area.
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Vertex centroid (arithmetic mean of the vertices).
    pub fn vertex_centroid(&self) -> Point {
        let n = self.vertices.len() as f64;
        let (sx, sy) = self
            .vertices
            .iter()
            .fold((0.0, 0.0), |(sx, sy), v| (sx + v.x, sy + v.y));
        Point::new(sx / n, sy / n)
    }

    /// Whether the polygon is convex (no reflex vertices; collinear runs are
    /// tolerated).
    pub fn is_convex(&self) -> bool {
        let n = self.vertices.len();
        let mut sign = 0.0f64;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            let c = self.vertices[(i + 2) % n];
            let cross = b.delta(a).cross(c.delta(b));
            if cross != 0.0 {
                if sign != 0.0 && sign.signum() != cross.signum() {
                    return false;
                }
                sign = cross;
            }
        }
        true
    }

    /// Whether the polygon is *simple* (no two non-adjacent edges
    /// intersect) — the precondition every containment routine assumes.
    /// O(n²); intended for validation at construction sites, not hot
    /// paths.
    pub fn is_simple(&self) -> bool {
        let edges: Vec<Edge> = self.edges().collect();
        let n = edges.len();
        for i in 0..n {
            for j in i + 1..n {
                // Adjacent edges share an endpoint by construction.
                let adjacent = j == i + 1 || (i == 0 && j == n - 1);
                if adjacent {
                    continue;
                }
                if segments_intersect(edges[i], edges[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// Axis-aligned bounding box.
    pub fn bounding_box(&self) -> Rect {
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for v in &self.vertices {
            min_x = min_x.min(v.x);
            min_y = min_y.min(v.y);
            max_x = max_x.max(v.x);
            max_y = max_y.max(v.y);
        }
        Rect::new(min_x, min_y, max_x, max_y)
    }

    /// The box outside which [`Polygon::contains`] is false: the bounding
    /// box widened by the band [`Polygon::on_boundary`] accepts and the
    /// rounding of its test.  `swept_box_misses` in [`crate::predicates`]
    /// derives that reach as `2e-9 + 32ε·s`, with `s` summing the box's
    /// and the point's coordinate magnitudes.  A point within the margin
    /// `m` below has `s ≤ 3·S + 4m` (`S` sums the box's magnitudes), for
    /// which that reach is less than `m`; a point farther out is rejected.
    pub fn reach(&self) -> Rect {
        let b = self.bounding_box();
        let magnitude = b.min_x.abs() + b.min_y.abs() + b.max_x.abs() + b.max_y.abs();
        let m = 2e-9 + 128.0 * f64::EPSILON * magnitude;
        Rect::new(b.min_x - m, b.min_y - m, b.max_x + m, b.max_y + m)
    }

    /// Translates every vertex by `v` — the paper's "circle C moves as a
    /// rigid body having the motion vector of the car".
    pub fn translated(&self, v: Velocity) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&p| p + v).collect(),
        }
    }
}

/// Proper or touching intersection of two closed segments.
fn segments_intersect(a: Edge, b: Edge) -> bool {
    let d1 = direction(b.a, b.b, a.a);
    let d2 = direction(b.a, b.b, a.b);
    let d3 = direction(a.a, a.b, b.a);
    let d4 = direction(a.a, a.b, b.b);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    (d1 == 0.0 && b.contains_point(a.a, 1e-12))
        || (d2 == 0.0 && b.contains_point(a.b, 1e-12))
        || (d3 == 0.0 && a.contains_point(b.a, 1e-12))
        || (d4 == 0.0 && a.contains_point(b.b, 1e-12))
}

fn direction(o: Point, a: Point, b: Point) -> f64 {
    a.delta(o).cross(b.delta(o))
}

impl Edge {
    /// Whether `p` lies on the closed segment within tolerance `eps`.
    pub fn contains_point(self, p: Point, eps: f64) -> bool {
        let ab = self.b.delta(self.a);
        let ap = p.delta(self.a);
        let cross = ab.cross(ap);
        // Distance from the line: |cross| / |ab|.
        let len = ab.speed();
        if len == 0.0 {
            return self.a.dist(p) <= eps;
        }
        if cross.abs() / len > eps {
            return false;
        }
        let dot = ab.dot(ap);
        -eps * len <= dot && dot <= ab.norm_sq() + eps * len
    }

    /// Edge direction vector.
    pub fn direction(self) -> Velocity {
        self.b.delta(self.a)
    }
}

impl most_testkit::ser::ToJson for Polygon {
    fn to_json(&self) -> most_testkit::ser::Json {
        self.vertices.to_json()
    }
}

impl most_testkit::ser::FromJson for Polygon {
    fn from_json(j: &most_testkit::ser::Json) -> Result<Self, most_testkit::ser::JsonError> {
        let vertices: Vec<Point> = most_testkit::ser::FromJson::from_json(j)?;
        if vertices.len() < 3 {
            return Err(most_testkit::ser::JsonError::Decode(format!(
                "a polygon needs at least 3 vertices, got {}",
                vertices.len()
            )));
        }
        Ok(Polygon { vertices })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::rectangle(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    #[should_panic]
    fn degenerate_polygon_panics() {
        let _ = Polygon::new(vec![Point::origin(), Point::new(1.0, 1.0)]);
    }

    #[test]
    fn square_containment() {
        let p = unit_square();
        assert!(p.contains(Point::new(0.5, 0.5)));
        assert!(!p.contains(Point::new(1.5, 0.5)));
        assert!(!p.contains(Point::new(-0.5, 0.5)));
        assert!(!p.contains(Point::new(0.5, 2.0)));
    }

    #[test]
    fn boundary_counts_as_inside() {
        let p = unit_square();
        assert!(p.contains(Point::new(0.0, 0.5))); // edge
        assert!(p.contains(Point::new(0.0, 0.0))); // vertex
        assert!(p.contains(Point::new(0.5, 1.0))); // top edge
    }

    #[test]
    fn concave_polygon_containment() {
        // L-shape: big square minus top-right quadrant.
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 2.0),
            Point::new(0.0, 2.0),
        ]);
        assert!(l.contains(Point::new(0.5, 1.5)));
        assert!(l.contains(Point::new(1.5, 0.5)));
        assert!(!l.contains(Point::new(1.5, 1.5)));
        assert!(!l.is_convex());
    }

    #[test]
    fn area_and_centroid() {
        let p = unit_square();
        assert!((p.area() - 1.0).abs() < 1e-12);
        let c = p.vertex_centroid();
        assert!((c.x - 0.5).abs() < 1e-12 && (c.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn convexity() {
        assert!(unit_square().is_convex());
        assert!(Polygon::regular(Point::origin(), 2.0, 8).is_convex());
    }

    #[test]
    fn regular_polygon_radius() {
        let p = Polygon::regular(Point::new(1.0, 1.0), 3.0, 16);
        for v in p.vertices() {
            assert!((v.dist(Point::new(1.0, 1.0)) - 3.0).abs() < 1e-9);
        }
        assert!(p.contains(Point::new(1.0, 1.0)));
    }

    #[test]
    fn bounding_box_encloses() {
        let p = Polygon::new(vec![
            Point::new(-1.0, 2.0),
            Point::new(3.0, -4.0),
            Point::new(0.0, 5.0),
        ]);
        let bb = p.bounding_box();
        assert_eq!(
            (bb.min_x, bb.min_y, bb.max_x, bb.max_y),
            (-1.0, -4.0, 3.0, 5.0)
        );
    }

    #[test]
    fn reach_holds_the_boundary_band() {
        for offset in [0.0, 1e6, 1e9] {
            let p = Polygon::rectangle(offset, offset, offset + 10.0, offset + 10.0);
            let reach = p.reach();
            // Just past the right edge, inside the band `contains` accepts.
            let near = Point::new(offset + 10.0 + 5e-10, offset + 5.0);
            assert!(p.contains(near) && reach.contains(near), "{offset}");
            let far = Point::new(reach.max_x + 1e-6 * (1.0 + offset), offset + 5.0);
            assert!(!p.contains(far), "{offset}");
        }
        let unit = Polygon::rectangle(0.0, 0.0, 10.0, 10.0);
        assert!(!unit.bounding_box().contains(Point::new(10.0 + 5e-10, 5.0)));
    }

    #[test]
    fn translation_moves_rigidly() {
        let p = unit_square().translated(Velocity::new(2.0, 3.0));
        assert!(p.contains(Point::new(2.5, 3.5)));
        assert!(!p.contains(Point::new(0.5, 0.5)));
        assert!((p.area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edge_contains_point() {
        let e = Edge {
            a: Point::new(0.0, 0.0),
            b: Point::new(4.0, 0.0),
        };
        assert!(e.contains_point(Point::new(2.0, 0.0), 1e-9));
        assert!(e.contains_point(Point::new(0.0, 0.0), 1e-9));
        assert!(e.contains_point(Point::new(4.0, 0.0), 1e-9));
        assert!(!e.contains_point(Point::new(5.0, 0.0), 1e-9));
        assert!(!e.contains_point(Point::new(2.0, 0.1), 1e-9));
    }

    #[test]
    fn simplicity_detection() {
        assert!(unit_square().is_simple());
        assert!(Polygon::regular(Point::origin(), 3.0, 7).is_simple());
        // The classic bow-tie: edges (0,0)-(1,1) and (1,0)-(0,1) cross.
        let bowtie = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ]);
        assert!(!bowtie.is_simple());
        // Concave but simple.
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 2.0),
            Point::new(0.0, 2.0),
        ]);
        assert!(l.is_simple());
    }

    #[test]
    fn rectangle_normalizes_corner_order() {
        let p = Polygon::rectangle(1.0, 1.0, 0.0, 0.0);
        assert!(p.contains(Point::new(0.5, 0.5)));
    }
}
