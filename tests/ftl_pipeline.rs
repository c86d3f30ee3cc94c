//! Integration: parse → evaluate → answer across the whole stack, with the
//! interval algorithm pinned to the per-tick oracle on generated workloads.

use moving_objects::ftl::context::MemoryContext;
use moving_objects::ftl::semantics::naive_answer;
use moving_objects::ftl::{evaluate_query, Query};
use moving_objects::spatial::Polygon;
use moving_objects::workload::cars::CarScenario;

fn build_ctx(seed: u64, n: usize, updates: bool) -> MemoryContext {
    let scenario = CarScenario {
        count: n,
        area: 200.0,
        speed: (0.5, 2.0),
        mean_update_gap: if updates { 60.0 } else { 1e18 },
        horizon: 150,
        seed,
    };
    let mut ctx = MemoryContext::new(150);
    for (i, plan) in scenario.generate().iter().enumerate() {
        ctx.add_object(i as u64 + 1, plan.trajectory());
        ctx.set_attr(i as u64 + 1, "PRICE", plan.price);
    }
    ctx.add_region("P", Polygon::rectangle(-80.0, -80.0, 80.0, 80.0));
    ctx.add_region("Q", Polygon::rectangle(100.0, -60.0, 220.0, 60.0));
    ctx
}

const QUERIES: &[&str] = &[
    "RETRIEVE o WHERE o.PRICE <= 120 AND Eventually within 60 INSIDE(o, P)",
    "RETRIEVE o WHERE Eventually (INSIDE(o, P) AND Always for 15 INSIDE(o, P))",
    "RETRIEVE o WHERE Eventually within 50 (INSIDE(o, P) AND Eventually after 40 INSIDE(o, Q))",
    "RETRIEVE o, n WHERE o <> n AND (DIST(o, n) <= 100 Until (INSIDE(o, P) AND INSIDE(n, P)))",
    "RETRIEVE o WHERE Nexttime Nexttime (o.X >= 0 AND o.Y >= 0)",
    "RETRIEVE o WHERE [x <- o.SPEED] Always (o.SPEED >= x)",
    "RETRIEVE o, n WHERE Eventually WITHIN_SPHERE(30, o, n, POINT(0, 0))",
    "RETRIEVE o WHERE OUTSIDE(o, P) until_within 80 INSIDE(o, P)",
    "RETRIEVE o WHERE NOT Eventually INSIDE(o, Q)",
    "RETRIEVE o WHERE INSIDE(o, P) OR INSIDE(o, Q)",
];

#[test]
fn algorithm_matches_oracle_without_updates() {
    let ctx = build_ctx(31, 8, false);
    for src in QUERIES {
        let q = Query::parse(src).expect("parses");
        let fast = evaluate_query(&ctx, &q).expect("interval algorithm");
        let slow = naive_answer(&ctx, &q).expect("oracle");
        assert_eq!(fast, slow, "query: {src}");
    }
}

#[test]
fn algorithm_matches_oracle_with_piecewise_trajectories() {
    // Persistent-style contexts: trajectories carry recorded motion-vector
    // updates, exercising the piecewise predicate paths.
    for seed in [1u64, 2, 3] {
        let ctx = build_ctx(seed, 6, true);
        for src in QUERIES {
            let q = Query::parse(src).expect("parses");
            let fast = evaluate_query(&ctx, &q).expect("interval algorithm");
            let slow = naive_answer(&ctx, &q).expect("oracle");
            assert_eq!(fast, slow, "seed {seed}, query: {src}");
        }
    }
}

#[test]
fn parse_display_round_trip() {
    for src in QUERIES {
        let q = Query::parse(src).expect("parses");
        let q2 = Query::parse(&q.to_string()).expect("round-trips");
        assert_eq!(q, q2, "source: {src}");
    }
}

#[test]
fn answers_serve_continuous_displays() {
    let ctx = build_ctx(7, 10, false);
    let q = Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
    let answer = evaluate_query(&ctx, &q).unwrap();
    // The at_tick display must agree with direct per-tick evaluation.
    let oracle = naive_answer(&ctx, &q).unwrap();
    for t in [0u64, 10, 50, 100, 150] {
        let a: Vec<_> = answer.at_tick(t).iter().map(|x| x.values.clone()).collect();
        let b: Vec<_> = oracle.at_tick(t).iter().map(|x| x.values.clone()).collect();
        assert_eq!(a, b, "t = {t}");
    }
}

#[test]
fn scalar_dynamic_attributes_queryable() {
    // Fuel drains linearly; FTL sees it as `StoredAttr::Dynamic`.
    use moving_objects::core::{AttrFunction, Database};
    let mut db = Database::new(200);
    let a = db.insert_moving_object("tanks", Default::default(), Default::default());
    let b = db.insert_moving_object("tanks", Default::default(), Default::default());
    db.set_dynamic_scalar(a, "FUEL", Some(100.0), Some(AttrFunction::Linear(-1.0)))
        .unwrap();
    db.set_dynamic_scalar(b, "FUEL", Some(100.0), Some(AttrFunction::Linear(-0.1)))
        .unwrap();
    let q = Query::parse("RETRIEVE o WHERE Eventually within 120 (o.FUEL <= 20)").unwrap();
    let ans = db.instantaneous(&q).unwrap();
    // Tank a hits 20 at t=80 (within 120); tank b would need t=800.
    assert_eq!(ans.ids(), vec![a]);
    // The quadratic extension: braking consumption.
    db.set_dynamic_scalar(
        b,
        "FUEL",
        None,
        Some(AttrFunction::Quadratic { accel: -0.01, slope: -0.1 }),
    )
    .unwrap();
    let ans = db.instantaneous(&q).unwrap();
    // Now b's fuel = 100 - 0.1 t - 0.01 t²; hits 20 near t ≈ 85 < 120.
    assert_eq!(ans.ids(), vec![a, b]);
}
