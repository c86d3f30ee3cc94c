//! Property tests: the appendix interval algorithm must agree with the
//! naive per-tick Section 3.3 oracle on random scenarios and random
//! formulas.

use most_dbms::value::Value;
use most_ftl::context::{EvalContext, MemoryContext};
use most_ftl::semantics::naive_answer;
use most_ftl::{evaluate_query, Query};
use most_spatial::{Point, Polygon, Rect, Trajectory, Velocity};
use most_temporal::{Horizon, Interval};
use most_testkit::check::{ints, just, one_of, tuple2, tuple3, tuple4, vecs, Check, Gen};

const H_END: u64 = 60;

/// A [`MemoryContext`] behind the two Section 4 probes, answering with
/// supersets the way an index does: every object whose motion's bounding
/// box meets the region's, every object whose attribute lies within 25 of
/// the range.  Evaluating through it drives the index-pruned atoms and the
/// probe ∩ restriction path.
struct PruningContext(MemoryContext);

impl EvalContext for PruningContext {
    fn horizon(&self) -> Horizon {
        self.0.horizon()
    }
    fn object_ids(&self) -> Vec<u64> {
        self.0.object_ids()
    }
    fn trajectory(&self, id: u64) -> Option<Trajectory> {
        self.0.trajectory(id)
    }
    fn attr_series(&self, id: u64, name: &str) -> Vec<(Value, Interval)> {
        self.0.attr_series(id, name)
    }
    fn region(&self, name: &str) -> Option<Polygon> {
        self.0.region(name)
    }
    fn inside_candidates(&self, region: &Polygon) -> Option<Vec<u64>> {
        let target = region.bounding_box();
        let ids = self.0.object_ids().into_iter().filter(|&id| {
            let traj = self.0.trajectory(id).expect("listed object");
            let corners = traj.legs().iter().map(|leg| leg.since).chain([0, H_END]);
            let bbox = corners
                .map(|t| traj.position_at_tick(t.min(H_END)))
                .map(|p| Rect::new(p.x, p.y, p.x, p.y))
                .reduce(|a, b| a.union(&b))
                .expect("two corners at least");
            bbox.intersects(&target)
        });
        Some(ids.collect())
    }
    fn attr_range_candidates(&self, attr: &str, lo: f64, hi: f64) -> Option<Vec<u64>> {
        let near = |v: &Value| v.as_f64().is_some_and(|x| lo - 25.0 <= x && x <= hi + 25.0);
        let ids = self
            .0
            .object_ids()
            .into_iter()
            .filter(|&id| self.0.attr_series(id, attr).iter().any(|(v, _)| near(v)));
        Some(ids.collect())
    }
}

#[derive(Debug, Clone)]
#[allow(clippy::type_complexity)]
struct Scenario {
    objects: Vec<(Point, Velocity, Option<(u64, Velocity)>, f64)>, // pos, vel, update, price
    region_p: (f64, f64, f64, f64),
    region_q: (f64, f64, f64, f64),
}

fn arb_coord() -> Gen<f64> {
    ints(-60i32..=60).map(|v| v as f64)
}

fn arb_vel() -> Gen<Velocity> {
    tuple2(ints(-8i32..=8), ints(-8i32..=8))
        .map(|(x, y)| Velocity::new(x as f64 * 0.25, y as f64 * 0.25))
}

#[allow(clippy::type_complexity)]
fn arb_object() -> Gen<(Point, Velocity, Option<(u64, Velocity)>, f64)> {
    tuple4(
        tuple2(arb_coord(), arb_coord()).map(|(x, y)| Point::new(x, y)),
        arb_vel(),
        one_of(vec![
            just(None),
            tuple2(ints(1..H_END), arb_vel()).map(Some),
        ]),
        ints(0u32..200).map(|p| p as f64),
    )
}

fn arb_rect_tuple() -> Gen<(f64, f64, f64, f64)> {
    tuple4(arb_coord(), arb_coord(), ints(5u32..40), ints(5u32..40))
        .map(|(x, y, w, h)| (x, y, x + w as f64, y + h as f64))
}

fn arb_scenario() -> Gen<Scenario> {
    tuple3(vecs(arb_object(), 1..5), arb_rect_tuple(), arb_rect_tuple()).map(
        |(objects, region_p, region_q)| Scenario { objects, region_p, region_q },
    )
}

fn build_context(s: &Scenario) -> MemoryContext {
    let mut ctx = MemoryContext::new(H_END);
    for (i, (pos, vel, update, price)) in s.objects.iter().enumerate() {
        let mut traj = Trajectory::starting_at(*pos, *vel);
        if let Some((t, v2)) = update {
            traj.update_velocity(*t, *v2);
        }
        ctx.add_object(i as u64 + 1, traj);
        ctx.set_attr(i as u64 + 1, "PRICE", *price);
    }
    let (x0, y0, x1, y1) = s.region_p;
    ctx.add_region("P", Polygon::rectangle(x0, y0, x1, y1));
    let (x0, y0, x1, y1) = s.region_q;
    ctx.add_region("Q", Polygon::rectangle(x0, y0, x1, y1));
    ctx
}

/// Query templates exercising every operator; `{c}` is replaced by a small
/// duration.
const TEMPLATES: &[&str] = &[
    "RETRIEVE o WHERE Eventually INSIDE(o, P)",
    "RETRIEVE o WHERE Always OUTSIDE(o, Q)",
    "RETRIEVE o WHERE Eventually within {c} INSIDE(o, P)",
    "RETRIEVE o WHERE Eventually after {c} INSIDE(o, P)",
    "RETRIEVE o WHERE Eventually (INSIDE(o, P) AND Always for {c} INSIDE(o, P))",
    "RETRIEVE o WHERE Nexttime Nexttime INSIDE(o, P)",
    "RETRIEVE o WHERE OUTSIDE(o, P) Until INSIDE(o, P)",
    "RETRIEVE o WHERE OUTSIDE(o, P) until_within {c} INSIDE(o, P)",
    "RETRIEVE o WHERE o.PRICE <= 100 AND Eventually INSIDE(o, P)",
    "RETRIEVE o WHERE INSIDE(o, P) OR INSIDE(o, Q)",
    "RETRIEVE o WHERE NOT Eventually INSIDE(o, P)",
    "RETRIEVE o, n WHERE Eventually (DIST(o, n) <= {c})",
    "RETRIEVE o, n WHERE DIST(o, n) <= 40 Until (INSIDE(o, P) AND INSIDE(n, P))",
    "RETRIEVE o, n WHERE Eventually WITHIN_SPHERE(8, o, n)",
    "RETRIEVE o WHERE Eventually (o.X >= 10 AND o.Y <= 20)",
    "RETRIEVE o WHERE [x <- o.SPEED] Eventually (o.SPEED >= 2 * x)",
    "RETRIEVE o WHERE Always (time <= {c} OR OUTSIDE(o, P))",
    "RETRIEVE o WHERE Eventually (DIST(o, POINT(10, 10)) <= {c})",
    "RETRIEVE o, n WHERE o <> n AND Eventually (DIST(o, n) <= 5)",
    "RETRIEVE o WHERE Eventually (o.VX >= 1 AND INSIDE(o, P))",
    "RETRIEVE o WHERE [x <- o.SPEED] [y <- o.PRICE] Eventually (o.SPEED >= x AND o.PRICE <= y)",
    "RETRIEVE o WHERE (INSIDE(o, P) OR INSIDE(o, Q)) Until OUTSIDE(o, P)",
    "RETRIEVE o WHERE Always Eventually INSIDE(o, P)",
    "RETRIEVE o WHERE Eventually Always INSIDE(o, P)",
    "RETRIEVE o WHERE Eventually within {c} Nexttime INSIDE(o, P)",
    "RETRIEVE o, n WHERE o <> n AND Eventually INSIDE(o, P, n)",
    "RETRIEVE o, n WHERE o <> n AND (DIST(o, n) <= 40 Until INSIDE(o, P))",
    "RETRIEVE o, n WHERE o <> n AND Always OUTSIDE(o, Q, n)",
    // Conjunctions over one object variable, which evaluate their second
    // operand only over the first one's survivors: both operand orders,
    // then negated, disjunctive, temporal, assignment and nullary partners.
    "RETRIEVE o WHERE o.PRICE <= {c}0 AND INSIDE(o, P)",
    "RETRIEVE o WHERE INSIDE(o, P) AND o.PRICE <= {c}0",
    "RETRIEVE o WHERE INSIDE(o, P) AND INSIDE(o, Q)",
    "RETRIEVE o WHERE INSIDE(o, P) AND NOT INSIDE(o, Q)",
    "RETRIEVE o WHERE o.PRICE >= {c}0 AND NOT Eventually INSIDE(o, P)",
    "RETRIEVE o WHERE INSIDE(o, Q) AND (o.PRICE <= {c}0 OR INSIDE(o, P))",
    "RETRIEVE o WHERE o.PRICE <= {c}0 AND Eventually within {c} INSIDE(o, P)",
    "RETRIEVE o WHERE INSIDE(o, P) AND (OUTSIDE(o, Q) Until INSIDE(o, Q))",
    "RETRIEVE o WHERE INSIDE(o, P) AND ([x <- o.SPEED] Eventually (o.SPEED >= 2 * x))",
    "RETRIEVE o WHERE INSIDE(o, P) AND o.PRICE <= {c}0 AND Always for {c} OUTSIDE(o, Q)",
    "RETRIEVE o WHERE time <= {c} AND INSIDE(o, P)",
    "RETRIEVE o WHERE INSIDE(o, Q) AND time >= {c}",
    "RETRIEVE o, n WHERE INSIDE(o, P) AND o.PRICE <= {c}0",
    // Two-variable conjunctions keep the unrestricted path.
    "RETRIEVE o, n WHERE INSIDE(o, P) AND DIST(o, n) <= {c}",
    "RETRIEVE o, n WHERE DIST(o, n) <= {c} AND INSIDE(n, Q)",
    "RETRIEVE o, n WHERE INSIDE(o, P) AND INSIDE(n, Q)",
    "RETRIEVE o, n WHERE o.PRICE <= {c}0 AND NOT INSIDE(n, P)",
];

#[test]
fn interval_algorithm_matches_oracle() {
    Check::new("ftl::interval_algorithm_matches_oracle")
        .cases(96)
        .regressions(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/proptests.seeds"
        ))
        .run(
            &tuple3(arb_scenario(), ints(0..TEMPLATES.len()), ints(1u64..30)),
            |(s, template_idx, c)| {
                let ctx = build_context(s);
                let src = TEMPLATES[*template_idx].replace("{c}", &c.to_string());
                let q = Query::parse(&src).expect("template parses");
                let fast = evaluate_query(&ctx, &q).expect("interval evaluation succeeds");
                let slow = naive_answer(&ctx, &q).expect("oracle evaluation succeeds");
                assert_eq!(fast, slow, "query: {src}");
                let pruned = PruningContext(ctx);
                let indexed = evaluate_query(&pruned, &q).expect("pruned evaluation succeeds");
                assert_eq!(indexed, slow, "query through the probes: {src}");
            },
        );
}

#[test]
fn answers_are_normalized() {
    Check::new("ftl::answers_are_normalized").cases(48).run(
        &tuple3(arb_scenario(), ints(0..TEMPLATES.len()), ints(1u64..30)),
        |(s, template_idx, c)| {
            let ctx = build_context(s);
            let src = TEMPLATES[*template_idx].replace("{c}", &c.to_string());
            let q = Query::parse(&src).expect("template parses");
            let a = evaluate_query(&ctx, &q).expect("evaluation succeeds");
            for tup in &a.tuples {
                assert!(tup.intervals.is_normalized());
                assert!(!tup.intervals.is_empty());
                assert_eq!(tup.values.len(), q.targets.len());
            }
        },
    );
}
