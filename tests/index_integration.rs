//! Integration: the Section 4 index answers the same questions as FTL /
//! scan paths, through the database facade and standalone.

use moving_objects::core::Database;
use moving_objects::ftl::Query;
use moving_objects::index::{DynamicAttributeIndex, LEAF_CAPACITY};
use moving_objects::spatial::{Point, Polygon, Rect, Velocity};
use moving_objects::temporal::{Interval, IntervalSet};
use moving_objects::workload::cars::{apply_due_updates, CarScenario};

/// Rolls the position index as a publish does, then reads through it.
fn in_rect(db: &mut Database, rect: &Rect) -> (Vec<u64>, bool) {
    db.maintain_spatial_index();
    db.objects_in_rect_at(rect)
}

#[test]
fn database_spatial_index_matches_ftl_inside_query() {
    let scenario = CarScenario {
        count: 40,
        area: 300.0,
        speed: (0.5, 2.0),
        mean_update_gap: 80.0,
        horizon: 400,
        seed: 13,
    };
    let plans = scenario.generate();
    let mut db = Database::new(1_000);
    let ids = scenario.populate(&mut db, &plans);
    db.enable_spatial_index(Rect::new(-2_000.0, -2_000.0, 2_000.0, 2_000.0));
    let rect = Rect::new(-60.0, -60.0, 60.0, 60.0);
    db.add_region(
        "R",
        moving_objects::spatial::Polygon::rectangle(-60.0, -60.0, 60.0, 60.0),
    );
    let q = Query::parse("RETRIEVE o WHERE INSIDE(o, R)").unwrap();
    let mut last = 0;
    for step in [0u64, 50, 137, 256, 399] {
        db.advance_clock(step - last);
        apply_due_updates(&mut db, &ids, &plans, last, step);
        last = step;
        let (via_index, used) = in_rect(&mut db, &rect);
        assert!(used, "index should serve the query");
        let via_ftl = db.instantaneous_now(&q).unwrap();
        let ftl_ids: Vec<u64> = via_ftl.iter().map(|v| v[0].as_id().unwrap()).collect();
        assert_eq!(via_index, ftl_ids, "t = {step}");
    }
}

#[test]
fn continuous_index_query_matches_ftl_windows() {
    // The index's continuous range query on attribute A mirrors an FTL
    // comparison query's satisfaction intervals.
    use moving_objects::ftl::context::MemoryContext;
    use moving_objects::ftl::evaluate_query;
    use moving_objects::spatial::Trajectory;

    let lifetime = 300u64;
    let mut idx = DynamicAttributeIndex::new(lifetime, (-1_000.0, 1_000.0));
    let mut ctx = MemoryContext::new(lifetime);
    // A.value == X coordinate of each car.
    let setups = [(0.0, 1.0), (500.0, -2.0), (120.0, 0.0), (-300.0, 2.5)];
    for (i, &(x0, vx)) in setups.iter().enumerate() {
        let id = i as u64 + 1;
        idx.insert(id, 0, x0, vx);
        ctx.add_object(
            id,
            Trajectory::starting_at(Point::new(x0, 0.0), Velocity::new(vx, 0.0)),
        );
    }
    let (rows, _) = idx.continuous(0, 100.0, 150.0).unwrap();
    let q = Query::parse("RETRIEVE o WHERE o.X >= 100 AND o.X <= 150").unwrap();
    let answer = evaluate_query(&ctx, &q).unwrap();
    assert_eq!(rows.len(), answer.len());
    for (id, set) in rows {
        let want = answer
            .intervals_for(&[moving_objects::dbms::value::Value::Id(id)])
            .unwrap_or_else(|| panic!("object {id} missing from FTL answer"));
        assert_eq!(&set, want, "object {id}");
    }
}

#[test]
fn rebuilding_index_tracks_long_lived_objects() {
    // Rolled with reach 0, the reconstruction "every T time units": the
    // index rolls once the query's tick leaves its lifetime.
    let mut idx = DynamicAttributeIndex::new(200, (-1e5, 1e5));
    idx.insert(1, 0, 0.0, 1.0);
    idx.insert(2, 0, 1_000.0, -1.0);
    let mut rebuilds = 0;
    // March far beyond several lifetimes with periodic queries.
    for epoch in 1..=10u64 {
        let t = epoch * 150;
        rebuilds += u32::from(idx.roll_to(t, 0));
        let (ids, _) = idx
            .instantaneous(t, t as f64 - 0.5, t as f64 + 0.5)
            .unwrap();
        assert_eq!(ids, vec![1], "object 1 has value == t at every t (t = {t})");
    }
    // Each epoch starts at the tick that left the last one, so with steps
    // of 150 and T = 200 every other step rolls: at 300, 600, …, 1500.
    assert_eq!(rebuilds, 5);
}

#[test]
fn index_pruned_ftl_answers_equal_unpruned() {
    // Section 4's purpose: INSIDE atoms skip objects that can never enter
    // the region.  The pruned evaluation must be answer-identical.
    let scenario = CarScenario {
        count: 60,
        area: 800.0,
        speed: (0.5, 2.0),
        mean_update_gap: 120.0,
        horizon: 400,
        seed: 21,
    };
    let plans = scenario.generate();
    let queries = [
        "RETRIEVE o WHERE Eventually within 300 INSIDE(o, P)",
        "RETRIEVE o WHERE INSIDE(o, P) AND o.PRICE <= 150",
        "RETRIEVE o, n WHERE o <> n AND (DIST(o, n) <= 80 Until INSIDE(o, P))",
        "RETRIEVE o WHERE NOT Eventually INSIDE(o, P)", // complement needs full domain
    ];
    let run = |use_index: bool| {
        let mut db = Database::new(600);
        db.add_region(
            "P",
            moving_objects::spatial::Polygon::rectangle(-80.0, -80.0, 80.0, 80.0),
        );
        let ids = scenario.populate(&mut db, &plans);
        if use_index {
            db.enable_spatial_index(Rect::new(-5_000.0, -5_000.0, 5_000.0, 5_000.0));
        }
        let mut answers = Vec::new();
        let mut last = 0;
        for now in [0u64, 77, 240] {
            db.advance_clock(now - db.now());
            apply_due_updates(&mut db, &ids, &plans, last, now);
            last = now;
            for q in &queries {
                answers.push(db.instantaneous(&Query::parse(q).unwrap()).unwrap());
            }
        }
        answers
    };
    let plain = run(false);
    let pruned = run(true);
    assert_eq!(plain, pruned);
    // And the pruning is actually engaged: with the index on, a region in
    // its space but far from everything yields an empty candidate set
    // instantly.
    let mut db = Database::new(600);
    scenario.populate(&mut db, &plans);
    db.add_region(
        "FAR",
        moving_objects::spatial::Polygon::rectangle(4_000.0, 4_000.0, 4_010.0, 4_010.0),
    );
    db.enable_spatial_index(Rect::new(-5_000.0, -5_000.0, 5_000.0, 5_000.0));
    let ctx = db.current_context();
    use moving_objects::ftl::EvalContext;
    let cands = ctx
        .inside_candidates(db.region("FAR").unwrap())
        .expect("index enabled and window in epoch");
    assert!(cands.is_empty(), "nothing ever reaches FAR: {cands:?}");
}

/// The index keeps a leg only in the cells it crosses, so once its root
/// splits nothing outside its space is indexed: a region that leaves the
/// space must be answered by the scan, never from the tree.
#[test]
fn inside_beyond_the_index_space_matches_the_scan() {
    let world = |indexed: bool| {
        let mut db = Database::new(100);
        // Enough cars parked in [0, 10)² to split the root.
        for i in 0..4 * LEAF_CAPACITY as u64 {
            let p = Point::new((i % 97) as f64 * 0.1, (i % 89) as f64 * 0.1);
            db.insert_moving_object("cars", p, Velocity::zero());
        }
        let far = db.insert_moving_object("cars", Point::new(500.0, 500.0), Velocity::zero());
        let mover =
            db.insert_moving_object("cars", Point::new(5.0, 5.0), Velocity::new(10.0, 10.0));
        db.add_region("FAR", Polygon::rectangle(490.0, 490.0, 510.0, 510.0));
        if indexed {
            db.enable_spatial_index(Rect::new(-20.0, -20.0, 20.0, 20.0));
        }
        (db, far, mover)
    };
    let q = Query::parse("RETRIEVE o WHERE INSIDE(o, FAR)").unwrap();
    let (mut scan, far, mover) = world(false);
    let (mut indexed, _, _) = world(true);
    let want = scan.instantaneous(&q).unwrap();
    assert_eq!(want.ids(), vec![far, mover]);
    let id = |id| [moving_objects::dbms::value::Value::Id(id)];
    assert_eq!(
        want.intervals_for(&id(far)),
        Some(&IntervalSet::singleton(Interval::new(0, 100)))
    );
    assert_eq!(
        want.intervals_for(&id(mover)),
        Some(&IntervalSet::singleton(Interval::new(49, 50)))
    );
    assert_eq!(indexed.instantaneous(&q).unwrap(), want);

    let far_box = Rect::new(490.0, 490.0, 510.0, 510.0);
    assert_eq!(in_rect(&mut indexed, &far_box), (vec![far], false));
    assert_eq!(in_rect(&mut scan, &far_box), (vec![far], false));
    // A box inside the space is still answered from the tree.
    let home = Rect::new(0.0, 0.0, 10.0, 10.0);
    let (ids, used) = in_rect(&mut indexed, &home);
    assert!(used);
    assert_eq!(ids, in_rect(&mut scan, &home).0);
}

/// The index is a filter, so it must never drop what a scan keeps.  Each
/// region is a rectangle with one edge through a car's position at the
/// clock: that car touches the region at the query window's first tick,
/// and when it moves away the touch is all there is.  The tree's clip
/// must keep it, at unit scale and far from the origin.
#[test]
fn a_region_with_an_edge_through_a_car_answers_as_the_scan_does() {
    let q = Query::parse("RETRIEVE o WHERE INSIDE(o, R)").unwrap();
    for offset in [0.0, 1e6] {
        let world = |indexed: bool| {
            let mut rng = most_testkit::rng::Rng::seed_from_u64(0xED6E);
            let mut db = Database::new(100);
            for _ in 0..400 {
                let p = Point::new(
                    offset + rng.random_range(-500.0..500.0f64),
                    offset + rng.random_range(-500.0..500.0f64),
                );
                let v = Velocity::new(
                    rng.random_range(-3.0..3.0f64),
                    rng.random_range(-3.0..3.0f64),
                );
                db.insert_moving_object("cars", p, v);
            }
            if indexed {
                let r = 5_000.0;
                db.enable_spatial_index(Rect::new(offset - r, offset - r, offset + r, offset + r));
            }
            db.advance_clock(7);
            db
        };
        let (mut scan, mut indexed) = (world(false), world(true));
        let mut rng = most_testkit::rng::Rng::seed_from_u64(0x0ED6E);
        for k in 0..600u64 {
            let car = 1 + rng.below(400);
            let p = scan.object(car).unwrap().position_at(7).unwrap();
            let (w, h) = (
                rng.random_range(1.0..80.0f64),
                rng.random_range(1.0..80.0f64),
            );
            let (x0, y0) = (p.x - w / 2.0, p.y - h / 2.0);
            // The edge through the car: left, right, bottom or top.
            let region = match k % 4 {
                0 => Polygon::rectangle(p.x, y0, p.x + w, y0 + h),
                1 => Polygon::rectangle(p.x - w, y0, p.x, y0 + h),
                2 => Polygon::rectangle(x0, p.y, x0 + w, p.y + h),
                _ => Polygon::rectangle(x0, p.y - h, x0 + w, p.y),
            };
            scan.add_region("R", region.clone());
            indexed.add_region("R", region);
            assert_eq!(
                indexed.instantaneous(&q).unwrap(),
                scan.instantaneous(&q).unwrap(),
                "offset {offset}, region {k} through car {car} at {p:?}"
            );
        }
    }
}
