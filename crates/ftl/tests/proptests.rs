//! Property tests: the appendix interval algorithm must agree with the
//! naive per-tick Section 3.3 oracle on random scenarios and random
//! formulas.

use most_dbms::value::Value;
use most_ftl::ast::{ArithOp, CmpOp};
use most_ftl::context::{EvalContext, MemoryContext, StoredAttr};
use most_ftl::eval::evaluate_formula;
use most_ftl::semantics::{eval_atom, naive_answer, Env};
use most_ftl::FtlError;
use most_ftl::{evaluate_query, Formula, Query, Term};
use most_spatial::{Point, Polygon, Rect, Trajectory, Velocity};
use most_temporal::{Horizon, Interval, IntervalSet};
use most_testkit::check::{
    bools, ints, just, one_of, select, tuple2, tuple3, tuple4, vecs, Check, Gen,
};
use std::borrow::Cow;
use std::collections::BTreeMap;

const H_END: u64 = 60;

/// A [`MemoryContext`] behind the Section 4 probe, answering with a
/// superset the way an index does: every object whose motion's bounding
/// box meets the region's.  Evaluating through it drives the index-pruned
/// atoms and the probe ∩ restriction path.
struct PruningContext(MemoryContext);

impl EvalContext for PruningContext {
    fn horizon(&self) -> Horizon {
        self.0.horizon()
    }
    fn object_ids(&self) -> Vec<u64> {
        self.0.object_ids()
    }
    fn trajectory(&self, id: u64) -> Option<Cow<'_, Trajectory>> {
        self.0.trajectory(id)
    }
    fn attr(&self, id: u64, name: &str) -> StoredAttr {
        self.0.attr(id, name)
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
        |(objects, region_p, region_q)| Scenario {
            objects,
            region_p,
            region_q,
        },
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
                assert_eq!(indexed, slow, "query through the probe: {src}");
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

/// A stored value of every kind a static attribute may hold.
fn arb_value() -> Gen<Value> {
    one_of(vec![
        ints(-20i64..200).map(Value::Int),
        ints(0u32..400).map(|v| Value::from(v as f64 * 0.5)),
        select(&["abc", "m", "zz"]).map(Value::from),
        just(Value::Null),
    ])
}

/// A piecewise series: consecutive pieces from a start tick, which may
/// leave gaps at either end of the horizon or run past it.
fn arb_series(value: Gen<Value>) -> Gen<Vec<(Value, Interval)>> {
    tuple2(ints(0u64..8), vecs(tuple2(ints(1u64..45), value), 1..4)).map(|(start, pieces)| {
        let mut begin = start;
        let mut out = Vec::new();
        for (len, v) in pieces {
            out.push((v, Interval::new(begin, begin + len - 1)));
            begin += len;
        }
        out
    })
}

/// Parked objects `1..`: object `i` stands at `(10·i, 0)`, so region `P`
/// (x ∈ [0, 25]) holds objects 1 and 2.
fn static_context(series: &[Vec<(Value, Interval)>]) -> MemoryContext {
    let mut ctx = MemoryContext::new(H_END);
    for (i, s) in series.iter().enumerate() {
        let id = i as u64 + 1;
        let at = Point::new(10.0 * id as f64, 0.0);
        ctx.add_object(id, Trajectory::starting_at(at, Velocity::zero()));
        ctx.set_attr_series(id, "PRICE", s.clone());
    }
    ctx.add_region("P", Polygon::rectangle(0.0, -5.0, 25.0, 5.0));
    ctx
}

const OPS: &[&str] = &["<=", "<", ">=", ">", "=", "<>"];

/// Comparisons between the stored `PRICE` and a constant or another stored
/// value, in both orientations; `{op}` is one of [`OPS`], `{c}` a constant.
const STATIC_TEMPLATES: &[&str] = &[
    "RETRIEVE o WHERE o.PRICE {op} {c}",
    "RETRIEVE o WHERE {c} {op} o.PRICE",
    "RETRIEVE o WHERE NOT (o.PRICE {op} {c})",
    "RETRIEVE o WHERE Eventually (o.PRICE {op} {c})",
    "RETRIEVE o WHERE Always ({c} {op} o.PRICE)",
    "RETRIEVE o WHERE INSIDE(o, P) AND o.PRICE {op} {c}",
    "RETRIEVE o WHERE o.PRICE {op} {c} AND Eventually after 10 o.PRICE {op} {c}",
    "RETRIEVE o, n WHERE o.PRICE {op} n.PRICE",
    "RETRIEVE o WHERE [x <- o.PRICE] Eventually (o.PRICE {op} x)",
    "RETRIEVE o WHERE [x <- o.PRICE] Always (x {op} o.PRICE OR o.PRICE {op} {c})",
];

/// A template instantiated with an operator and a constant of some kind.
fn arb_static_query(templates: &'static [&'static str], constants: Gen<String>) -> Gen<String> {
    tuple3(ints(0..templates.len()), select(OPS), constants)
        .map(move |(t, op, c)| templates[t].replace("{op}", op).replace("{c}", &c))
}

#[test]
fn stored_value_comparisons_match_oracle() {
    // Int, Float, Str and Null values, mixed within one series, against
    // constants of every kind: the per-value path must agree with the
    // per-tick reference semantics, including across kinds.  Negative
    // literals parse as `0 - c` and, like other arithmetic on constants,
    // fold to one value before the comparison.
    let constants = one_of(vec![
        ints(0u32..200).map(|c| c.to_string()),
        ints(0u32..200).map(|c| format!("{c}.5")),
        ints(0u32..30).map(|c| format!("-{c}")),
        ints(0u32..30).map(|c| format!("-{c}.5")),
        tuple2(ints(0u32..200), ints(0u32..200)).map(|(a, b)| format!("{a} - {b}")),
        tuple2(ints(0u32..100), ints(1u32..4)).map(|(a, b)| format!("({a} + 1) * {b} / 2")),
        select(&["'abc'", "'b'", "'zz'"]).map(str::to_owned),
    ]);
    Check::new("ftl::stored_value_comparisons_match_oracle")
        .cases(96)
        .regressions(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/proptests.seeds"
        ))
        .run(
            &tuple2(
                vecs(arb_series(arb_value()), 1..5),
                arb_static_query(STATIC_TEMPLATES, constants),
            ),
            |(series, src)| {
                let ctx = static_context(series);
                let q = Query::parse(src).expect("template parses");
                let fast = evaluate_query(&ctx, &q).expect("interval evaluation succeeds");
                let slow = naive_answer(&ctx, &q).expect("oracle evaluation succeeds");
                assert_eq!(fast, slow, "query: {src}");
            },
        );
}

/// [`MemoryContext`] with a scalar dynamic `PRICE` laid over the static one
/// on some objects: `(first tick, [a, b, c])` pieces running to the horizon.
struct Shadowing(MemoryContext, BTreeMap<u64, (u64, [f64; 3])>);

impl EvalContext for Shadowing {
    fn horizon(&self) -> Horizon {
        self.0.horizon()
    }
    fn object_ids(&self) -> Vec<u64> {
        self.0.object_ids()
    }
    fn trajectory(&self, id: u64) -> Option<Cow<'_, Trajectory>> {
        self.0.trajectory(id)
    }
    fn attr(&self, id: u64, name: &str) -> StoredAttr {
        match self.1.get(&id) {
            Some(&(from, coeffs)) if name == "PRICE" => {
                StoredAttr::Dynamic(vec![(Interval::new(from, H_END), 0, coeffs)])
            }
            _ => self.0.attr(id, name),
        }
    }
    fn region(&self, name: &str) -> Option<Polygon> {
        self.0.region(name)
    }
}

#[test]
fn a_dynamic_attribute_shadows_a_static_one() {
    // Where a dynamic PRICE exists it is the attribute, on both evaluators:
    // the static value underneath is never read, and ticks before the
    // dynamic piece starts are undefined.
    let numeric = one_of(vec![
        ints(-20i64..200).map(Value::Int),
        ints(0u32..400).map(|v| Value::from(v as f64 * 0.5)),
    ]);
    let dynamic = one_of(vec![
        just(None),
        tuple3(
            ints(0u64..20),
            select(&[0.0, 0.5, -1.0, 2.0]),
            ints(0u32..150),
        )
        .map(|(from, slope, c)| Some((from, [0.0, slope, c as f64]))),
    ]);
    let constants = ints(0u32..200).map(|c| c.to_string());
    Check::new("ftl::a_dynamic_attribute_shadows_a_static_one")
        .cases(96)
        .regressions(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/proptests.seeds"
        ))
        .run(
            &tuple2(
                vecs(tuple2(arb_series(numeric), dynamic), 1..5),
                arb_static_query(STATIC_TEMPLATES, constants),
            ),
            |(objects, src)| {
                let series: Vec<_> = objects.iter().map(|(s, _)| s.clone()).collect();
                let shadows = objects
                    .iter()
                    .enumerate()
                    .filter_map(|(i, (_, d))| d.map(|d| (i as u64 + 1, d)))
                    .collect();
                let ctx = Shadowing(static_context(&series), shadows);
                let q = Query::parse(src).expect("template parses");
                let slow = naive_answer(&ctx, &q).expect("oracle evaluation succeeds");
                match evaluate_query(&ctx, &q) {
                    Ok(fast) => assert_eq!(fast, slow, "query: {src}"),
                    // Binding a time-varying value is outside the fragment.
                    Err(FtlError::Unsupported(_)) => {
                        let varying = ctx.1.values().any(|(_, [_, slope, _])| *slope != 0.0);
                        assert!(src.contains("<-") && varying, "query: {src}");
                    }
                    Err(e) => panic!("query: {src}: {e}"),
                }
            },
        );
}

/// What an object stores under `PRICE`: nothing, one value over the
/// horizon, or a recorded series.
#[derive(Debug, Clone)]
enum Stored {
    Missing,
    One(Value),
    Series(Vec<(Value, Interval)>),
}

/// A comparison operand without variables: a constant of every kind, or
/// arithmetic on constants, which folds to one value (or, dividing by zero,
/// fails to).
fn arb_closed_operand() -> Gen<Term> {
    let arith = |op, a: Term, b: Term| Term::Arith(op, Box::new(a), Box::new(b));
    one_of(vec![
        ints(-20i64..200).map(Term::val),
        ints(0u32..400).map(|v| Term::val(v as f64 * 0.5)),
        select(&["abc", "m", "zz"]).map(Term::val),
        just(Term::Const(Value::Null)),
        ints(1u64..6).map(|id| Term::Const(Value::Id(id))),
        // `0 - 1` and its kin.
        tuple2(ints(0i64..200), ints(0i64..200))
            .map(move |(a, b)| arith(ArithOp::Sub, Term::val(a), Term::val(b))),
        // `(2 + 1) * 4` and its kin.
        tuple2(ints(0i64..100), ints(0i64..5)).map(move |(a, b)| {
            let sum = arith(ArithOp::Add, Term::val(a), Term::val(1));
            arith(ArithOp::Mul, sum, Term::val(b))
        }),
        ints(0i64..200).map(move |a| arith(ArithOp::Div, Term::val(a), Term::val(0))),
    ])
}

const CMP_OPS: &[CmpOp] = &[
    CmpOp::Le,
    CmpOp::Lt,
    CmpOp::Ge,
    CmpOp::Gt,
    CmpOp::Eq,
    CmpOp::Ne,
];

#[test]
fn a_planned_comparison_matches_the_per_tick_semantics() {
    // One `o.PRICE op c` or `c op o.PRICE` atom, planned once and evaluated
    // per object, against the per-tick truth of the same atom for each
    // object.  A dynamic PRICE shadows the static one where it exists.
    let stored = one_of(vec![
        just(Stored::Missing),
        arb_value().map(Stored::One),
        arb_series(arb_value()).map(Stored::Series),
    ]);
    let dynamic = one_of(vec![
        just(None),
        tuple3(
            ints(0u64..20),
            select(&[0.0, 0.5, -1.0, 2.0]),
            ints(0u32..150),
        )
        .map(|(from, slope, c)| Some((from, [0.0, slope, c as f64]))),
    ]);
    Check::new("ftl::a_planned_comparison_matches_the_per_tick_semantics")
        .cases(256)
        .regressions(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/proptests.seeds"
        ))
        .run(
            &tuple2(
                vecs(tuple2(stored, dynamic), 1..5),
                tuple3(select(CMP_OPS), bools(), arb_closed_operand()),
            ),
            |(objects, (op, constant_first, c))| {
                let mut memory = MemoryContext::new(H_END);
                let mut shadows = BTreeMap::new();
                for (i, (stored, dynamic)) in objects.iter().enumerate() {
                    let id = i as u64 + 1;
                    let parked = Trajectory::starting_at(Point::origin(), Velocity::zero());
                    memory.add_object(id, parked);
                    match stored {
                        Stored::Missing => {}
                        Stored::One(v) => {
                            memory.set_attr(id, "PRICE", v.clone());
                        }
                        Stored::Series(s) => {
                            memory.set_attr_series(id, "PRICE", s.clone());
                        }
                    }
                    if let Some(d) = dynamic {
                        shadows.insert(id, *d);
                    }
                }
                let ctx = Shadowing(memory, shadows);
                let price = Term::attr(Term::var("o"), "PRICE");
                let atom = if *constant_first {
                    Formula::Cmp(*op, c.clone(), price)
                } else {
                    Formula::Cmp(*op, price, c.clone())
                };
                let by_zero = matches!(c, Term::Arith(ArithOp::Div, ..));
                // A non-numeric constant is outside the fragment a dynamic
                // attribute is solved in.
                let non_numeric =
                    matches!(c, Term::Const(v) if v.as_f64().is_none() && *v != Value::Null);
                match evaluate_formula(&ctx, &atom, &[]) {
                    Ok(rel) if !by_zero => {
                        let h = ctx.horizon();
                        let expected: Vec<_> = ctx
                            .object_ids()
                            .into_iter()
                            .filter_map(|id| {
                                let mut env = Env::new();
                                env.bind("o", Value::Id(id));
                                let set = IntervalSet::from_predicate(h, |t| {
                                    eval_atom(&ctx, &env, &atom, t).expect("per-tick truth")
                                });
                                (!set.is_empty()).then(|| (vec![Value::Id(id)], set))
                            })
                            .collect();
                        assert_eq!(rel.rows(), expected.as_slice(), "atom: {atom}");
                    }
                    Err(FtlError::Type(_)) if by_zero => {}
                    Err(FtlError::Type(_)) if non_numeric && !ctx.1.is_empty() => {}
                    other => panic!("atom: {atom}: {other:?}"),
                }
            },
        );
}
