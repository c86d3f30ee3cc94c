//! Property tests: every predicate routine must agree with brute-force
//! per-tick evaluation, for random motions, polygons and radii.

use most_spatial::predicates::{
    dist_at_least, dist_within, inside_circle, inside_polygon, inside_rect,
    min_enclosing_circle, outside_polygon, piecewise, within_sphere,
};
use most_spatial::{Circle, MovingPoint, Point, Polygon, Rect, Trajectory, Velocity};
use most_temporal::{Horizon, Interval, IntervalSet, Tick};
use most_testkit::check::{ints, select, tuple2, tuple3, tuple4, vecs, Check, Gen};

const H_END: Tick = 120;
const CASES: usize = 64;

fn horizon() -> Horizon {
    Horizon::new(H_END)
}

/// A horizon that starts after tick 0, ending where [`horizon`] does.
const LATE_START: Tick = 37;

fn late_horizon() -> Horizon {
    Horizon::between(LATE_START, H_END)
}

fn brute<F: Fn(Tick) -> bool>(pred: F) -> IntervalSet {
    IntervalSet::from_predicate(horizon(), pred)
}

/// Coordinates/velocities on a coarse lattice: keeps root-finding exercised
/// (crossings frequently fall between and exactly on ticks) while staying
/// far away from the adversarial-float regime the library does not target.
fn arb_coord() -> Gen<f64> {
    ints(-200i32..=200).map(|v| v as f64 * 0.5)
}

fn arb_vel() -> Gen<f64> {
    ints(-12i32..=12).map(|v| v as f64 * 0.25)
}

fn arb_mover() -> Gen<MovingPoint> {
    tuple4(arb_coord(), arb_coord(), arb_vel(), arb_vel()).map(|(x, y, dx, dy)| {
        MovingPoint::from_origin(Point::new(x, y), Velocity::new(dx, dy))
    })
}

fn arb_rect() -> Gen<Rect> {
    tuple4(arb_coord(), arb_coord(), ints(1u32..80), ints(1u32..80))
        .map(|(x, y, w, h)| Rect::new(x, y, x + w as f64, y + h as f64))
}

fn arb_convex_polygon() -> Gen<Polygon> {
    tuple4(arb_coord(), arb_coord(), ints(2u32..40), ints(3usize..9))
        .map(|(x, y, r, n)| Polygon::regular(Point::new(x, y), r as f64, n))
}

/// A star-shaped (generally concave) simple polygon: random radii at evenly
/// spread angles around a center.
fn arb_star_polygon() -> Gen<Polygon> {
    tuple3(arb_coord(), arb_coord(), vecs(ints(4u32..50), 4..10)).map(|(x, y, radii)| {
        let n = radii.len();
        let vertices = radii
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let a = std::f64::consts::TAU * i as f64 / n as f64;
                Point::new(x + r as f64 * a.cos(), y + r as f64 * a.sin())
            })
            .collect();
        Polygon::new(vertices)
    })
}

#[test]
fn dist_within_matches_brute() {
    Check::new("spatial::dist_within_matches_brute").cases(CASES).run(
        &tuple3(arb_mover(), arb_mover(), ints(1u32..60)),
        |(a, b, r)| {
            let r = *r as f64;
            let got = dist_within(*a, *b, r, horizon());
            let want = brute(|t| a.dist_at(*b, t as f64) <= r);
            assert_eq!(got, want);
        },
    );
}

#[test]
fn dist_at_least_matches_brute() {
    Check::new("spatial::dist_at_least_matches_brute").cases(CASES).run(
        &tuple3(arb_mover(), arb_mover(), ints(1u32..60)),
        |(a, b, r)| {
            let r = *r as f64;
            let got = dist_at_least(*a, *b, r, horizon());
            let want = brute(|t| a.dist_at(*b, t as f64) >= r);
            assert_eq!(got, want);
        },
    );
}

#[test]
fn inside_rect_matches_brute() {
    Check::new("spatial::inside_rect_matches_brute").cases(CASES).run(
        &tuple2(arb_mover(), arb_rect()),
        |(m, rect)| {
            let got = inside_rect(*m, *rect, horizon());
            let want = brute(|t| rect.contains(m.position_at_tick(t)));
            assert_eq!(got, want);
        },
    );
}

#[test]
fn inside_circle_matches_brute() {
    Check::new("spatial::inside_circle_matches_brute").cases(CASES).run(
        &tuple4(arb_mover(), arb_coord(), arb_coord(), ints(1u32..50)),
        |(m, c, cy, r)| {
            let circle = Circle::new(Point::new(*c, *cy), *r as f64);
            let got = inside_circle(*m, circle, horizon());
            let want = brute(|t| circle.contains(m.position_at_tick(t)));
            assert_eq!(got, want);
        },
    );
}

#[test]
fn inside_star_polygon_matches_brute() {
    Check::new("spatial::inside_star_polygon_matches_brute").cases(CASES).run(
        &tuple2(arb_mover(), arb_star_polygon()),
        |(m, poly)| {
            let got = inside_polygon(*m, poly, horizon());
            let want = brute(|t| poly.contains(m.position_at_tick(t)));
            assert_eq!(got, want);
        },
    );
}

#[test]
fn inside_polygon_matches_brute() {
    Check::new("spatial::inside_polygon_matches_brute").cases(CASES).run(
        &tuple2(arb_mover(), arb_convex_polygon()),
        |(m, poly)| {
            let got = inside_polygon(*m, poly, horizon());
            let want = brute(|t| poly.contains(m.position_at_tick(t)));
            assert_eq!(got, want);
        },
    );
}

#[test]
fn outside_is_complement_of_inside() {
    Check::new("spatial::outside_is_complement_of_inside").cases(CASES).run(
        &tuple2(arb_mover(), arb_convex_polygon()),
        |(m, poly)| {
            let h = horizon();
            let inside = inside_polygon(*m, poly, h);
            let outside = outside_polygon(*m, poly, h);
            assert_eq!(inside.union(&outside), IntervalSet::full(h));
            assert!(inside.intersect(&outside).is_empty());
        },
    );
}

#[test]
fn within_sphere_matches_brute_for_triples() {
    Check::new("spatial::within_sphere_matches_brute_for_triples")
        .cases(CASES)
        .run(
            &tuple4(arb_mover(), arb_mover(), arb_mover(), ints(1u32..40)),
            |(a, b, c, r)| {
                let r = *r as f64;
                let movers = [*a, *b, *c];
                let got = within_sphere(r, &movers, horizon());
                let want = brute(|t| {
                    let pts: Vec<Point> =
                        movers.iter().map(|m| m.position_at_tick(t)).collect();
                    min_enclosing_circle(&pts).radius <= r + 1e-9
                });
                assert_eq!(got, want);
            },
        );
}

#[test]
fn mec_encloses_all_points() {
    let arb_points = vecs(
        tuple2(arb_coord(), arb_coord()).map(|(x, y)| Point::new(x, y)),
        1..8,
    );
    Check::new("spatial::mec_encloses_all_points").cases(CASES).run(&arb_points, |pts| {
        let c = min_enclosing_circle(pts);
        for p in pts {
            assert!(c.center.dist(*p) <= c.radius + 1e-6);
        }
        // Minimality against diameter lower bound.
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                assert!(c.radius + 1e-6 >= pts[i].dist(pts[j]) / 2.0);
            }
        }
    });
}

#[test]
fn piecewise_matches_brute_on_trajectories() {
    let arb_v2 = tuple2(arb_vel(), arb_vel()).map(|(dx, dy)| Velocity::new(dx, dy));
    Check::new("spatial::piecewise_matches_brute_on_trajectories")
        .cases(CASES)
        .run(
            &tuple4(arb_mover(), arb_v2, ints(1..H_END), arb_convex_polygon()),
            |(m, v2, switch, poly)| {
                let mut traj = Trajectory::new(*m);
                traj.update_velocity(*switch, *v2);
                let got = piecewise(&traj, horizon(), |leg, h| inside_polygon(leg, poly, h));
                let want = brute(|t| poly.contains(traj.position_at_tick(t)));
                assert_eq!(got, want);
            },
        );
}

/// A mover placed against a polygon where a swept-box reject is easy to
/// get wrong: at or just past the polygon's box, on its boundary, along an
/// edge line, at coordinates up to 1e9.
#[derive(Debug, Clone)]
struct EdgeCase {
    poly: Polygon,
    mover: MovingPoint,
}

/// How [`arb_edge_case`] places the mover.
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// Anywhere near the polygon: mostly rejected, sometimes crossing.
    Free,
    /// Through a vertex, pushed outward, exactly at tick `t0`.
    Vertex,
    /// Along an edge's line, through a point of it at tick `t0`.
    AlongEdge,
    /// Stationary on an edge (or just past it).
    Stationary,
    /// Parallel to a side of the polygon's box, at the vertex spanning that
    /// side, pushed outward: where the reject's margin decides.
    BoxSide,
}

fn arb_edge_case() -> Gen<EdgeCase> {
    let shape = tuple4(
        select(&[0u8, 1, 2]), // star, rectangle, regular
        vecs(ints(4u32..50), 4..10),
        tuple2(arb_coord(), arb_coord()),
        tuple2(
            select(&[0.0f64, 1e9, -1e9]),
            select(&[1.0f64, 1e3, 1e6, 2e7]),
        ),
    );
    let placement = tuple4(
        select(&[
            Placement::Free,
            Placement::Vertex,
            Placement::AlongEdge,
            Placement::Stationary,
            Placement::BoxSide,
        ]),
        tuple2(ints(0usize..16), ints(0u64..=H_END)),
        tuple3(arb_vel(), arb_vel(), select(&[0u8, 1, 2])), // 1, 2: x, y still
        tuple2(
            select(&[0.0f64, 0.25, 0.5, 0.9, 1.0, 2.0, 8.0, 64.0, 1e4]),
            select(&[1.0f64, 0.5, -0.5, 1.5]),
        ),
    );
    tuple2(shape, placement).map(|(shape, placement)| {
        let (kind, radii, (cx, cy), (offset, size)) = shape;
        let (place, (i, t0), (dx, dy, still), (push, along)) = placement;
        let center = Point::new(offset + cx * size.min(1e3), offset + cy * size.min(1e3));
        let n = radii.len();
        let vertices: Vec<Point> = match kind {
            0 => radii
                .iter()
                .enumerate()
                .map(|(k, &r)| {
                    let a = std::f64::consts::TAU * k as f64 / n as f64;
                    Point::new(
                        center.x + size * r as f64 * a.cos(),
                        center.y + size * r as f64 * a.sin(),
                    )
                })
                .collect(),
            1 => {
                let (w, h) = (size * radii[0] as f64, size * radii[1] as f64);
                Polygon::rectangle(center.x, center.y, center.x + w, center.y + h)
                    .vertices()
                    .to_vec()
            }
            _ => Polygon::regular(center, size * radii[0] as f64, n)
                .vertices()
                .to_vec(),
        };
        let poly = Polygon::new(vertices);
        let vs = poly.vertices();
        let (a, b) = (vs[i % vs.len()], vs[(i + 1) % vs.len()]);
        let v = Velocity::new(
            if still == 1 { 0.0 } else { dx },
            if still == 2 { 0.0 } else { dy },
        );
        // A push of `push` units outward: one unit is the boundary test's
        // 1e-9 tolerance plus the rounding step at the polygon's largest
        // coordinate, the two terms of the reject's margin.
        let bbox = poly.bounding_box();
        let scale = [bbox.min_x, bbox.min_y, bbox.max_x, bbox.max_y]
            .iter()
            .fold(0.0f64, |s, c| s.max(c.abs()));
        let u = push * (1e-9 + f64::EPSILON * scale);
        let outward = |p: Point| {
            let sx = if p.x >= (bbox.min_x + bbox.max_x) / 2.0 {
                u
            } else {
                -u
            };
            let sy = if p.y >= (bbox.min_y + bbox.max_y) / 2.0 {
                u
            } else {
                -u
            };
            Point::new(p.x + sx, p.y + sy)
        };
        // Anchored at tick 0 so that it passes `at` at tick `t0`.
        let through = |at: Point, v: Velocity| {
            MovingPoint::from_origin(
                Point::new(at.x - v.dx * t0 as f64, at.y - v.dy * t0 as f64),
                v,
            )
        };
        let on_edge = Point::new(a.x + (b.x - a.x) * along, a.y + (b.y - a.y) * along);
        let mover = match place {
            Placement::Free => {
                let scale = size * 60.0;
                through(
                    Point::new(center.x + dx * scale / 3.0, center.y + dy * scale / 3.0),
                    v,
                )
            }
            Placement::Vertex => through(outward(a), v),
            Placement::AlongEdge => {
                let k = dx / 64.0;
                through(on_edge, Velocity::new((b.x - a.x) * k, (b.y - a.y) * k))
            }
            Placement::Stationary => MovingPoint::stationary(outward(on_edge)),
            Placement::BoxSide => {
                // The vertex spanning side `i % 4` of the box, and motion
                // along that side.
                let side = i % 4;
                let key = |p: &&Point| match side {
                    0 => p.x,
                    1 => -p.x,
                    2 => p.y,
                    _ => -p.y,
                };
                let extreme = *vs
                    .iter()
                    .max_by(|p, q| key(p).total_cmp(&key(q)))
                    .expect("vertices");
                let (p, v) = match side {
                    0 => (Point::new(extreme.x + u, extreme.y), Velocity::new(0.0, dy)),
                    1 => (Point::new(extreme.x - u, extreme.y), Velocity::new(0.0, dy)),
                    2 => (Point::new(extreme.x, extreme.y + u), Velocity::new(dx, 0.0)),
                    _ => (Point::new(extreme.x, extreme.y - u), Velocity::new(dx, 0.0)),
                };
                through(p, v)
            }
        };
        EdgeCase { poly, mover }
    })
}

/// Where a case's swept box lies relative to the polygon's box: clear of
/// it by more than the reject's margin (`Rejected`), disjoint within the
/// margin (`Grazing`), or meeting it.
#[derive(PartialEq, Debug, Clone, Copy)]
enum Sweep {
    Rejected,
    Grazing,
    Meeting,
}

/// Mirrors the reject's test in `predicates::inside_polygon`, to measure
/// how many generated cases exercise each side of it.
fn sweep_of(m: &MovingPoint, poly: &Polygon, h: Horizon) -> Sweep {
    let (a, b) = (m.position_at_tick(h.start()), m.position_at_tick(h.end()));
    let r = poly.bounding_box();
    let s: f64 = [a.x, a.y, b.x, b.y, r.min_x, r.min_y, r.max_x, r.max_y]
        .iter()
        .map(|c| c.abs())
        .sum();
    let gap = |margin: f64| {
        a.x.max(b.x) < r.min_x - margin
            || a.x.min(b.x) > r.max_x + margin
            || a.y.max(b.y) < r.min_y - margin
            || a.y.min(b.y) > r.max_y + margin
    };
    if gap(2e-9 + 32.0 * f64::EPSILON * s) {
        Sweep::Rejected
    } else if gap(0.0) {
        Sweep::Grazing
    } else {
        Sweep::Meeting
    }
}

/// The swept-box reject in `inside_polygon` is exact at every scale: on
/// its side of the box edge (rejected, or disjoint within its margin) the
/// routine answers what per-tick evaluation does, and `OUTSIDE` the
/// complement.  Its premise holds everywhere: every interval the routine
/// returns begins and ends at a tick `contains` confirms.
///
/// Where the swept box meets the polygon's box the reject does not act,
/// and the routine is not tick-exact on all of these inputs: `contains`
/// accepts a 1e-9 band around the boundary that the crossing events do
/// not model (a path 1.3e-9 outside a reflex vertex at an integer tick;
/// motion along an edge line at coordinates beyond 1e6, where the band is
/// narrower than one rounding step).  Those cases are generated and
/// checked for the premise only; exact equality for them is covered on the
/// lattice by the properties above.
///
/// Each case runs on the horizon from tick 0 and on one that starts at
/// [`LATE_START`], where the swept box spans the start's position instead.
#[test]
fn inside_polygon_matches_brute_at_the_box_edge() {
    // Rejected, grazing, grazing with a tick inside, all cases.
    let seen = std::cell::Cell::new([0usize; 4]);
    Check::new("spatial::inside_polygon_matches_brute_at_the_box_edge")
        .cases(2048)
        .regressions(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/proptests.seeds"
        ))
        .run(&arb_edge_case(), |c| {
            for h in [horizon(), late_horizon()] {
                let (m, poly) = (c.mover, &c.poly);
                let want = IntervalSet::from_predicate(h, |t| poly.contains(m.position_at_tick(t)));
                let got = inside_polygon(m, poly, h);
                for iv in got.intervals() {
                    assert!(
                        want.contains(iv.begin()) && want.contains(iv.end()),
                        "{got} vs {want}"
                    );
                }
                let mut s = seen.get();
                s[3] += 1;
                match sweep_of(&m, poly, h) {
                    Sweep::Meeting => {}
                    sweep => {
                        assert_eq!(got, want, "from tick {}", h.start());
                        let outside =
                            IntervalSet::from_predicate(h, |t| !poly.contains(m.position_at_tick(t)));
                        assert_eq!(outside_polygon(m, poly, h), outside);
                        if sweep == Sweep::Rejected {
                            s[0] += 1;
                        } else {
                            s[1] += 1;
                            s[2] += usize::from(!want.is_empty());
                        }
                    }
                }
                seen.set(s);
            }
        });
    let [rejected, grazing, grazing_inside, total] = seen.get();
    // Not vacuous: a fair share takes the reject, and some cases sit in its
    // margin with `contains` true just outside the polygon's box.
    assert!(
        rejected * 5 >= total,
        "{rejected} of {total} cases rejected"
    );
    assert!(grazing_inside > 0, "{grazing} grazing cases, none inside");
}

/// `piecewise` over multi-leg trajectories, leg by leg: on every leg the
/// reject decides (see above), the union matches per-tick evaluation over
/// that leg's ticks, on the horizon from tick 0 and on one from
/// [`LATE_START`].
#[test]
fn piecewise_matches_brute_at_the_box_edge() {
    let updates = vecs(tuple3(ints(1..H_END), arb_vel(), arb_vel()), 1..4);
    let rejected_legs = std::cell::Cell::new(0usize);
    Check::new("spatial::piecewise_matches_brute_at_the_box_edge")
        .cases(1024)
        .regressions(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/proptests.seeds"
        ))
        .run(&tuple2(arb_edge_case(), updates), |(c, updates)| {
            let mut updates = updates.clone();
            updates.sort_by_key(|u| u.0);
            let mut traj = Trajectory::new(c.mover);
            for &(t, dx, dy) in &updates {
                // Odd-tick updates keep the first leg's heading (rescaled),
                // so a later leg can run along the side it grazed.
                if t % 2 == 0 {
                    traj.update_velocity(t, Velocity::new(dx, dy));
                } else {
                    traj.update_velocity(t, c.mover.velocity * (dx / 4.0));
                }
            }
            let poly = &c.poly;
            for h in [horizon(), late_horizon()] {
                let got = piecewise(&traj, h, |leg, h| inside_polygon(leg, poly, h));
                let want =
                    IntervalSet::from_predicate(h, |t| poly.contains(traj.position_at_tick(t)));
                for (leg, lo, hi) in traj.legs_between(h.start(), h.end()) {
                    let sweep = sweep_of(&leg, poly, h);
                    if sweep != Sweep::Meeting {
                        let span = IntervalSet::singleton(Interval::new(lo, hi));
                        assert_eq!(got.intersect(&span), want.intersect(&span), "leg {leg}");
                    }
                    if sweep == Sweep::Rejected {
                        rejected_legs.set(rejected_legs.get() + 1);
                    }
                }
            }
        });
    assert!(rejected_legs.get() > 0, "no leg took the reject");
}
