//! The atomic-predicate "routines" of the appendix: for each instantiation
//! of moving objects, the clock-tick intervals during which a spatial
//! relation holds.
//!
//! All results are **exact at integer clock ticks**: real-valued root
//! solving produces candidate intervals which are then verified (and, when
//! floating-point rounding demands it, adjusted by a bounded number of
//! ticks) against direct evaluation of the predicate at the boundary ticks.
//! FTL's semantics only ever inspect integer ticks, so tick-exactness is the
//! right notion of correctness here; the property tests compare every
//! routine against brute-force per-tick evaluation.
//!
//! Ticks in and out are global.  A routine solves in `τ = t − h.start()`
//! ([`Horizon::offset`]), from each motion's position at the horizon start,
//! so the magnitudes it works with do not grow with the clock.

use crate::motion::MovingPoint;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::region::{Circle, Rect};
use crate::roots::{solve_linear_eq, solve_quadratic_le, RealIntervals};
use crate::trajectory::Trajectory;
use most_temporal::{Horizon, Interval, IntervalSet, Tick};

/// Maximum number of ticks a candidate boundary is nudged while reconciling
/// real-root rounding with exact per-tick evaluation.  Roots are computed in
/// double precision from double-precision inputs, so the error is far below
/// one tick; 8 leaves a wide margin.
const MAX_BOUNDARY_NUDGE: u64 = 8;

/// Converts real solution intervals, in `τ` ([`Horizon::offset`]), into an
/// exact [`IntervalSet`] of `h`'s global ticks, verifying boundaries with
/// `pred` (exact evaluation of the predicate at a global tick `t`; a
/// predicate in `τ` reads `h.offset(t)`).
///
/// `pred` must agree with the real solution away from its boundaries; the
/// conversion rounds each real interval to ticks and then nudges / shrinks
/// the boundaries (a bounded number of steps) until they match `pred`, which
/// absorbs floating-point error in root finding.  Exposed publicly because
/// the FTL numeric-term analysis assembles its own real solution sets.
pub fn exact_ticks<F: Fn(Tick) -> bool>(sol: &RealIntervals, h: Horizon, pred: F) -> IntervalSet {
    let mut out: Vec<Interval> = Vec::with_capacity(sol.intervals().len());
    for riv in sol.intervals() {
        let lo = riv.lo.max(0.0);
        let hi = riv.hi.min(h.offset(h.end()));
        if lo > hi + 1.0 {
            continue;
        }
        let mut begin = h.start() + lo.ceil().max(0.0) as Tick;
        let mut end = h.start() + if hi < 0.0 { 0 } else { hi.floor() as Tick };
        // Expand outwards if rounding clipped a satisfied tick.
        for _ in 0..MAX_BOUNDARY_NUDGE {
            if begin > h.start() && pred(begin - 1) {
                begin -= 1;
            } else {
                break;
            }
        }
        for _ in 0..MAX_BOUNDARY_NUDGE {
            if end < h.end() && pred(end + 1) {
                end += 1;
            } else {
                break;
            }
        }
        // Shrink inwards if rounding included an unsatisfied tick.
        for _ in 0..MAX_BOUNDARY_NUDGE {
            if begin <= end && !pred(begin) {
                begin += 1;
            } else {
                break;
            }
        }
        for _ in 0..MAX_BOUNDARY_NUDGE {
            if begin <= end && !pred(end) {
                end -= 1;
            } else {
                break;
            }
        }
        if begin <= end && pred(begin) && pred(end) {
            out.push(Interval::new(begin, end));
        }
    }
    IntervalSet::from_intervals(out)
}

/// `DIST(a, b) ≤ r`: ticks at which two linearly moving points are within
/// distance `r`.
pub fn dist_within(a: MovingPoint, b: MovingPoint, r: f64, h: Horizon) -> IntervalSet {
    let rel = a.relative_at(b, h.start());
    let p0 = rel.anchor;
    let v = rel.velocity;
    // |p0 + v t|² ≤ r²
    let qa = v.norm_sq();
    let qb = 2.0 * (p0.x * v.dx + p0.y * v.dy);
    let qc = p0.x * p0.x + p0.y * p0.y - r * r;
    let sol = solve_quadratic_le(qa, qb, qc);
    exact_ticks(&sol, h, |t| a.dist_at(b, t as f64) <= r)
}

/// `DIST(a, b) ≥ r`: ticks at which two linearly moving points are at least
/// `r` apart.
pub fn dist_at_least(a: MovingPoint, b: MovingPoint, r: f64, h: Horizon) -> IntervalSet {
    let rel = a.relative_at(b, h.start());
    let p0 = rel.anchor;
    let v = rel.velocity;
    // |p0 + v t|² ≥ r²  ⇔  -(...) ≤ 0
    let qa = -v.norm_sq();
    let qb = -2.0 * (p0.x * v.dx + p0.y * v.dy);
    let qc = -(p0.x * p0.x + p0.y * p0.y - r * r);
    let sol = solve_quadratic_le(qa, qb, qc);
    exact_ticks(&sol, h, |t| a.dist_at(b, t as f64) >= r)
}

/// Whether no tick of `h` can find `m` inside `poly`: the box spanned by
/// its positions at ticks `h.start()` and `h.end()` misses `poly`'s bounding box
/// by more than `contains` reaches past it.  Exact, because:
/// - every tick `inside_polygon` returns is confirmed by `contains` (the
///   event-tick check, or an interval end `exact_ticks` verified), so when
///   no tick is inside it answers empty anyway;
/// - each coordinate of `anchor + velocity·(t − since)` is a chain of
///   correctly rounded operations monotone in `t`, so every tick's
///   position lies in the swept box (a NaN or infinite coordinate makes
///   `s` below non-finite, and then no comparison holds);
/// - `contains` is false outside the polygon's box widened by `margin`.
///   Let `u = ε/2`; `s` bounds every coordinate in play.  The ray cast
///   counts no edge above or below the box, and left or right of it all
///   or none of an even number (a crossing abscissa lies within `4u·s` of
///   its edge's x-range).  `on_boundary` accepts within 1e-9 of an edge's
///   line and ends; its cross and dot products err by at most
///   `γ4·|ab|·|ap|` (γk = ku/(1 − ku)), its lengths by `γ4` relative, its
///   own product or quotient by `u`, so with `|ab|, |ap| ≤ 2√2·s` it
///   accepts only within `√2·(1e-9·(1 + γ6) + 9u·2√2·s) ≤ 1.5e-9 + 36u·s`
///   of an edge.  Rounding the comparison adds `2u·s`; the margin
///   `2e-9 + 32ε·s` covers the `1.5e-9 + 38u·s` needed.
fn swept_box_misses(m: MovingPoint, poly: &Polygon, h: Horizon) -> bool {
    let (a, b, r) = (
        m.position_at_tick(h.start()),
        m.position_at_tick(h.end()),
        poly.bounding_box(),
    );
    let corners = [a.x, a.y, b.x, b.y, r.min_x, r.min_y, r.max_x, r.max_y];
    let s: f64 = corners.iter().map(|c| c.abs()).sum();
    let margin = 2e-9 + 32.0 * f64::EPSILON * s;
    a.x.max(b.x) < r.min_x - margin
        || a.x.min(b.x) > r.max_x + margin
        || a.y.max(b.y) < r.min_y - margin
        || a.y.min(b.y) > r.max_y + margin
}

/// `INSIDE(o, P)` for a linearly moving point and a static simple polygon
/// (boundary counts as inside).
pub fn inside_polygon(m: MovingPoint, poly: &Polygon, h: Horizon) -> IntervalSet {
    if swept_box_misses(m, poly, h) {
        return IntervalSet::empty();
    }
    if m.is_stationary() {
        return if poly.contains(m.anchor) {
            IntervalSet::full(h)
        } else {
            IntervalSet::empty()
        };
    }
    // Containment status can only change when the point crosses the
    // boundary; collect every candidate crossing time τ.
    let local = MovingPoint::new(m.position_at_tick(h.start()), 0, m.velocity);
    let p0 = local.anchor;
    let v = m.velocity;
    let h_real = h.offset(h.end());
    let mut events: Vec<f64> = vec![0.0, h_real];
    for e in poly.edges() {
        let ab = e.direction();
        let cross_v = ab.cross(v);
        let cross_p = ab.cross(p0.delta(e.a));
        if cross_v != 0.0 {
            // Single time at which the point lies on the edge's line.
            if let Some(t) = solve_linear_eq(cross_v, cross_p) {
                if (-1.0..=h_real + 1.0).contains(&t) {
                    events.push(t.clamp(0.0, h_real));
                }
            }
        } else if cross_p == 0.0 {
            // Moving along the edge's line: status changes where the
            // segment-parameter s(t) = dot(ab, p(t)-a)/|ab|² hits 0 or 1.
            let denom = ab.norm_sq();
            if denom > 0.0 {
                let s0 = ab.dot(p0.delta(e.a));
                let s1 = ab.dot(v);
                for target in [0.0, denom] {
                    if let Some(t) = solve_linear_eq(s1, s0 - target) {
                        if (-1.0..=h_real + 1.0).contains(&t) {
                            events.push(t.clamp(0.0, h_real));
                        }
                    }
                }
            }
        }
    }
    events.sort_by(|a, b| a.partial_cmp(b).expect("crossing times are finite"));
    events.dedup();

    // Between consecutive events the status is constant; sample midpoints.
    let mut spans: Vec<(f64, f64)> = Vec::new();
    for w in events.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let mid = (lo + hi) / 2.0;
        if poly.contains(local.position_at(mid)) {
            match spans.last_mut() {
                Some(last) if last.1 >= lo => last.1 = hi,
                _ => spans.push((lo, hi)),
            }
        }
    }
    // Event points themselves may be inside (boundary) even when the
    // adjacent open intervals are not: widen spans by a half tick so the
    // per-tick verification in `exact_ticks` decides.
    let widened = spans
        .into_iter()
        .map(|(lo, hi)| crate::roots::RealInterval {
            lo: lo - 0.5,
            hi: hi + 0.5,
        });
    let real_intervals = RealIntervals::of(widened.collect());
    let pred = |t: Tick| poly.contains(m.position_at_tick(t));
    let mut result = exact_ticks(&real_intervals, h, pred);
    // Isolated boundary touches exactly at integer event ticks that fall in
    // gaps between spans: verify event ticks directly.
    let mut extra = Vec::new();
    for &e in &events {
        let t = e.round();
        if (0.0..=h_real).contains(&t) {
            let tick = h.start() + t as Tick;
            if !result.contains(tick) && pred(tick) {
                extra.push(Interval::point(tick));
            }
        }
    }
    if !extra.is_empty() {
        result = result.union(&IntervalSet::from_intervals(extra));
    }
    result
}

/// `OUTSIDE(o, P)`: complement of [`inside_polygon`] within the horizon
/// (the paper pairs the two methods as complementary relations).
pub fn outside_polygon(m: MovingPoint, poly: &Polygon, h: Horizon) -> IntervalSet {
    inside_polygon(m, poly, h).complement(h)
}

/// Ticks at which a moving point is inside a static circle
/// (boundary inclusive).
pub fn inside_circle(m: MovingPoint, c: Circle, h: Horizon) -> IntervalSet {
    dist_within(m, MovingPoint::stationary(c.center), c.radius, h)
}

/// Ticks at which a moving point is inside a static axis-aligned rectangle
/// (boundary inclusive).
pub fn inside_rect(m: MovingPoint, r: Rect, h: Horizon) -> IntervalSet {
    let p0 = m.position_at_tick(h.start());
    let v = m.velocity;
    // Intersection of four half-plane constraints, each linear in t.
    let mut acc = IntervalSet::full(h);
    let constraints = [
        (v.dx, p0.x - r.max_x),  // x(t) ≤ max_x
        (-v.dx, r.min_x - p0.x), // x(t) ≥ min_x
        (v.dy, p0.y - r.max_y),  // y(t) ≤ max_y
        (-v.dy, r.min_y - p0.y), // y(t) ≥ min_y
    ];
    for (b, c) in constraints {
        let sol = crate::roots::solve_linear_le(b, c);
        let ticks = exact_ticks(&sol, h, |t| {
            b * h.offset(t) + c <= 1e-9 // tolerance only guards rounding at ticks
        });
        acc = acc.intersect(&ticks);
        if acc.is_empty() {
            break;
        }
    }
    // Verify against the exact containment test at boundaries.
    refine_against(acc, h, |t| r.contains(m.position_at_tick(t)))
}

/// Re-verifies a candidate tick set against an exact per-tick predicate,
/// nudging interval boundaries by up to [`MAX_BOUNDARY_NUDGE`].
fn refine_against<F: Fn(Tick) -> bool>(set: IntervalSet, h: Horizon, pred: F) -> IntervalSet {
    let sol = RealIntervals::of(
        set.intervals()
            .iter()
            .map(|iv| crate::roots::RealInterval {
                lo: h.offset(iv.begin()),
                hi: h.offset(iv.end()),
            })
            .collect(),
    );
    exact_ticks(&sol, h, pred)
}

/// `WITHIN-A-SPHERE(r, o1, ..., ok)`: ticks at which all `k` moving points
/// fit in a disk of radius `r`.
///
/// Exact reduction for `k ≤ 2`; for `k ≥ 3` the minimum enclosing circle
/// radius is piecewise-algebraic, so the routine brackets it between two
/// pairwise-distance conditions (MEC ≤ r implies pairwise ≤ 2r; by Jung's
/// planar theorem pairwise ≤ √3·r implies MEC ≤ r) and settles the
/// remaining uncertain ticks by exact per-tick minimum-enclosing-circle
/// computation.
pub fn within_sphere(r: f64, movers: &[MovingPoint], h: Horizon) -> IntervalSet {
    match movers.len() {
        0 | 1 => IntervalSet::full(h),
        2 => dist_within(movers[0], movers[1], 2.0 * r, h),
        _ => {
            let mut necessary = IntervalSet::full(h);
            let mut sufficient = IntervalSet::full(h);
            let sqrt3 = 3.0f64.sqrt();
            for i in 0..movers.len() {
                for j in i + 1..movers.len() {
                    necessary = necessary.intersect(&dist_within(movers[i], movers[j], 2.0 * r, h));
                    if necessary.is_empty() {
                        return necessary;
                    }
                    sufficient =
                        sufficient.intersect(&dist_within(movers[i], movers[j], sqrt3 * r, h));
                }
            }
            let uncertain = necessary.difference(&sufficient, h);
            let mut verified = Vec::new();
            for t in uncertain.ticks() {
                let pts: Vec<Point> = movers.iter().map(|m| m.position_at_tick(t)).collect();
                if min_enclosing_circle(&pts).radius <= r + 1e-9 {
                    verified.push(Interval::point(t));
                }
            }
            sufficient.union(&IntervalSet::from_intervals(verified))
        }
    }
}

/// Exact minimum enclosing circle of a non-empty point set.
///
/// Brute force over the support candidates (all pairs as diameters, all
/// triples as circumcircles): the MEC is determined by at most three points,
/// so this is exact; `O(k⁴)` is fine for the small `k` of
/// `WITHIN-A-SPHERE(r, o1, ..., ok)` instantiations.
pub fn min_enclosing_circle(points: &[Point]) -> Circle {
    assert!(!points.is_empty(), "minimum enclosing circle of no points");
    if points.len() == 1 {
        return Circle::new(points[0], 0.0);
    }
    let eps = 1e-9;
    let encloses = |c: &Circle| {
        points
            .iter()
            .all(|&p| c.center.dist_sq(p) <= (c.radius + eps) * (c.radius + eps))
    };
    let mut best: Option<Circle> = None;
    let mut consider = |c: Circle| {
        if encloses(&c) && best.as_ref().is_none_or(|b| c.radius < b.radius) {
            best = Some(c);
        }
    };
    for i in 0..points.len() {
        for j in i + 1..points.len() {
            consider(circle_from_diameter(points[i], points[j]));
            for k in j + 1..points.len() {
                if let Some(c) = circumcircle(points[i], points[j], points[k]) {
                    consider(c);
                }
            }
        }
    }
    best.expect(
        "some diameter circle always encloses two points; full check succeeds for MEC support",
    )
}

/// The circle having segment `ab` as a diameter.
fn circle_from_diameter(a: Point, b: Point) -> Circle {
    let center = Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0);
    Circle::new(center, center.dist(a))
}

/// Circumcircle of a (non-degenerate) triangle; `None` for collinear points.
fn circumcircle(a: Point, b: Point, c: Point) -> Option<Circle> {
    let d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y));
    if d.abs() < 1e-12 {
        return None;
    }
    let a2 = a.x * a.x + a.y * a.y;
    let b2 = b.x * b.x + b.y * b.y;
    let c2 = c.x * c.x + c.y * c.y;
    let ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d;
    let uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d;
    let center = Point::new(ux, uy);
    Some(Circle::new(center, center.dist(a)))
}

/// Evaluates a per-leg predicate routine over a piecewise-linear
/// [`Trajectory`], unioning the per-leg results restricted to each leg's
/// validity range.  This is how persistent queries (whose histories contain
/// explicit updates) reuse the single-leg routines.
pub fn piecewise<F>(traj: &Trajectory, h: Horizon, leg_fn: F) -> IntervalSet
where
    F: Fn(MovingPoint, Horizon) -> IntervalSet,
{
    let mut acc = IntervalSet::empty();
    for (leg, lo, hi) in traj.legs_between(h.start(), h.end()) {
        let ticks = leg_fn(leg, h);
        if !ticks.is_empty() {
            acc = acc.union(&ticks.intersect(&IntervalSet::singleton(Interval::new(lo, hi))));
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Velocity;

    const H: Horizon = Horizon::new(200);

    fn brute<F: Fn(Tick) -> bool>(pred: F) -> IntervalSet {
        IntervalSet::from_predicate(H, pred)
    }

    #[test]
    fn dist_within_head_on() {
        // Two cars approaching head-on at combined speed 2, starting 100
        // apart: within distance 10 while |100 - 2t| <= 10, i.e. t in [45,55].
        let a = MovingPoint::from_origin(Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        let b = MovingPoint::from_origin(Point::new(100.0, 0.0), Velocity::new(-1.0, 0.0));
        let got = dist_within(a, b, 10.0, H);
        assert_eq!(got, brute(|t| a.dist_at(b, t as f64) <= 10.0));
        assert_eq!(got.first_tick(), Some(45));
        assert_eq!(got.last_tick(), Some(55));
    }

    #[test]
    fn dist_within_never_close() {
        let a = MovingPoint::from_origin(Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        let b = MovingPoint::from_origin(Point::new(0.0, 50.0), Velocity::new(1.0, 0.0));
        assert!(dist_within(a, b, 10.0, H).is_empty());
    }

    #[test]
    fn dist_within_parallel_always() {
        let a = MovingPoint::from_origin(Point::new(0.0, 0.0), Velocity::new(2.0, 1.0));
        let b = MovingPoint::from_origin(Point::new(3.0, 0.0), Velocity::new(2.0, 1.0));
        assert_eq!(dist_within(a, b, 5.0, H), IntervalSet::full(H));
    }

    #[test]
    fn dist_at_least_complements_within_except_boundary() {
        let a = MovingPoint::from_origin(Point::new(0.0, 0.0), Velocity::new(1.0, 0.5));
        let b = MovingPoint::from_origin(Point::new(80.0, -10.0), Velocity::new(-0.5, 0.75));
        let within = dist_within(a, b, 20.0, H);
        let at_least = dist_at_least(a, b, 20.0, H);
        assert_eq!(within, brute(|t| a.dist_at(b, t as f64) <= 20.0));
        assert_eq!(at_least, brute(|t| a.dist_at(b, t as f64) >= 20.0));
        // Together they cover the horizon (boundary ticks may be in both).
        assert_eq!(within.union(&at_least), IntervalSet::full(H));
    }

    #[test]
    fn inside_polygon_crossing_square() {
        let poly = Polygon::rectangle(50.0, -10.0, 80.0, 10.0);
        let m = MovingPoint::from_origin(Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        let got = inside_polygon(m, &poly, H);
        assert_eq!(got, brute(|t| poly.contains(m.position_at_tick(t))));
        assert_eq!(got.first_tick(), Some(50));
        assert_eq!(got.last_tick(), Some(80));
    }

    #[test]
    fn inside_polygon_stationary_cases() {
        let poly = Polygon::rectangle(0.0, 0.0, 10.0, 10.0);
        let inside = MovingPoint::stationary(Point::new(5.0, 5.0));
        let outside = MovingPoint::stationary(Point::new(50.0, 5.0));
        assert_eq!(inside_polygon(inside, &poly, H), IntervalSet::full(H));
        assert!(inside_polygon(outside, &poly, H).is_empty());
    }

    #[test]
    fn inside_polygon_concave_reentry() {
        // U-shaped polygon; a horizontal path through the middle enters the
        // left arm, leaves into the notch, and enters the right arm.
        let u = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(30.0, 0.0),
            Point::new(30.0, 20.0),
            Point::new(20.0, 20.0),
            Point::new(20.0, 5.0),
            Point::new(10.0, 5.0),
            Point::new(10.0, 20.0),
            Point::new(0.0, 20.0),
        ]);
        let m = MovingPoint::from_origin(Point::new(-5.0, 10.0), Velocity::new(0.25, 0.0));
        let got = inside_polygon(m, &u, H);
        let want = brute(|t| u.contains(m.position_at_tick(t)));
        assert_eq!(got, want);
        assert!(
            got.span_count() >= 2,
            "re-entry must produce 2 spans: {got}"
        );
    }

    #[test]
    fn inside_polygon_tangent_edge() {
        // Path grazing along the top edge y = 10 of the square: boundary
        // counts as inside for the whole traversal of the edge.
        let poly = Polygon::rectangle(20.0, 0.0, 60.0, 10.0);
        let m = MovingPoint::from_origin(Point::new(0.0, 10.0), Velocity::new(1.0, 0.0));
        let got = inside_polygon(m, &poly, H);
        assert_eq!(got, brute(|t| poly.contains(m.position_at_tick(t))));
        assert_eq!(got.first_tick(), Some(20));
        assert_eq!(got.last_tick(), Some(60));
    }

    #[test]
    fn outside_polygon_complements_inside() {
        let poly = Polygon::rectangle(50.0, -10.0, 80.0, 10.0);
        let m = MovingPoint::from_origin(Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        let inside = inside_polygon(m, &poly, H);
        let outside = outside_polygon(m, &poly, H);
        assert!(inside.intersect(&outside).is_empty());
        assert_eq!(inside.union(&outside), IntervalSet::full(H));
    }

    #[test]
    fn inside_circle_matches_brute() {
        let c = Circle::new(Point::new(100.0, 0.0), 15.0);
        let m = MovingPoint::from_origin(Point::new(0.0, 5.0), Velocity::new(1.0, 0.0));
        assert_eq!(
            inside_circle(m, c, H),
            brute(|t| c.contains(m.position_at_tick(t)))
        );
    }

    #[test]
    fn inside_rect_matches_brute() {
        let r = Rect::new(30.0, -5.0, 90.0, 5.0);
        let m = MovingPoint::from_origin(Point::new(0.0, -20.0), Velocity::new(0.8, 0.2));
        assert_eq!(
            inside_rect(m, r, H),
            brute(|t| r.contains(m.position_at_tick(t)))
        );
    }

    #[test]
    fn within_sphere_pair_reduces_to_distance() {
        let a = MovingPoint::from_origin(Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        let b = MovingPoint::from_origin(Point::new(60.0, 0.0), Velocity::new(-1.0, 0.0));
        assert_eq!(within_sphere(5.0, &[a, b], H), dist_within(a, b, 10.0, H));
        assert_eq!(within_sphere(5.0, &[a], H), IntervalSet::full(H));
        assert_eq!(within_sphere(5.0, &[], H), IntervalSet::full(H));
    }

    #[test]
    fn within_sphere_triple_matches_brute() {
        let a = MovingPoint::from_origin(Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        let b = MovingPoint::from_origin(Point::new(100.0, 4.0), Velocity::new(-1.0, 0.0));
        let c = MovingPoint::from_origin(Point::new(50.0, -40.0), Velocity::new(0.0, 1.0));
        let r = 6.0;
        let got = within_sphere(r, &[a, b, c], H);
        let want = brute(|t| {
            let pts = [
                a.position_at_tick(t),
                b.position_at_tick(t),
                c.position_at_tick(t),
            ];
            min_enclosing_circle(&pts).radius <= r + 1e-9
        });
        assert_eq!(got, want);
        assert!(!got.is_empty(), "the three paths do meet");
    }

    #[test]
    fn mec_known_configurations() {
        // Diameter pair.
        let c = min_enclosing_circle(&[Point::new(0.0, 0.0), Point::new(4.0, 0.0)]);
        assert!((c.radius - 2.0).abs() < 1e-9);
        assert!((c.center.x - 2.0).abs() < 1e-9);
        // Equilateral-ish triangle: circumcircle.
        let c = min_enclosing_circle(&[
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(2.0, 3.0),
        ]);
        for p in [
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(2.0, 3.0),
        ] {
            assert!(c.center.dist(p) <= c.radius + 1e-9);
        }
        // Obtuse triangle: MEC is the diameter circle of the long side.
        let c = min_enclosing_circle(&[
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(5.0, 0.5),
        ]);
        assert!((c.radius - 5.0).abs() < 1e-6);
        // Single point.
        assert_eq!(min_enclosing_circle(&[Point::new(1.0, 1.0)]).radius, 0.0);
    }

    #[test]
    fn piecewise_trajectory_polygon() {
        // The object drives east, turns around inside the polygon, and exits
        // west — the per-leg union must match brute-force on the trajectory.
        let poly = Polygon::rectangle(40.0, -10.0, 120.0, 10.0);
        let mut traj = Trajectory::starting_at(Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        traj.update_velocity(60, Velocity::new(-1.0, 0.0));
        let got = piecewise(&traj, H, |leg, h| inside_polygon(leg, &poly, h));
        let want = brute(|t| poly.contains(traj.position_at_tick(t)));
        assert_eq!(got, want);
        // Entered at 40, exited when heading back past 40 at t = 60+20.
        assert_eq!(got.first_tick(), Some(40));
        assert_eq!(got.last_tick(), Some(80));
    }
}
