//! Large-scale smoke tests, `#[ignore]`d by default (run with
//! `cargo test --release -- --ignored`): validate that the headline claims
//! hold at sizes close to the full-scale experiment runs.

use moving_objects::ftl::Query;
use moving_objects::index::{DynamicAttributeIndex, ScanIndex};
use moving_objects::spatial::Polygon;
use moving_objects::workload::cars::CarScenario;
use std::time::Instant;

#[test]
#[ignore = "large-scale; run with --release -- --ignored"]
fn index_handles_two_hundred_thousand_objects() {
    let n = 200_000u64;
    let mut idx = DynamicAttributeIndex::new(1_000, (-(n as f64), 2.0 * n as f64));
    let mut scan = ScanIndex::new();
    for i in 0..n {
        let v0 = (i as f64 * 13.37) % (n as f64);
        let slope = ((i % 11) as f64 - 5.0) * 0.1;
        idx.insert(i, 0, v0, slope);
        scan.upsert(i, 0, v0, slope);
    }
    let window = n as f64 / 200.0; // 0.5% selectivity
    let t0 = Instant::now();
    let mut idx_total = 0usize;
    for k in 0..50u64 {
        let lo = (k as f64 * 97.0) % (n as f64 - window);
        let (ids, _) = idx.instantaneous(k * 17 % 1000, lo, lo + window).unwrap();
        idx_total += ids.len();
    }
    let idx_time = t0.elapsed();
    let t0 = Instant::now();
    let mut scan_total = 0usize;
    for k in 0..50u64 {
        let lo = (k as f64 * 97.0) % (n as f64 - window);
        let (ids, _) = scan.instantaneous(k * 17 % 1000, lo, lo + window);
        scan_total += ids.len();
    }
    let scan_time = t0.elapsed();
    assert_eq!(idx_total, scan_total);
    assert!(
        idx_time < scan_time,
        "index {idx_time:?} should beat scan {scan_time:?} at n = {n}"
    );
}

#[test]
#[ignore = "large-scale; run with --release -- --ignored"]
fn ftl_queries_over_a_thousand_objects() {
    let scenario = CarScenario {
        count: 1_000,
        area: 2_000.0,
        speed: (0.5, 2.0),
        mean_update_gap: 1e18,
        horizon: 500,
        seed: 1,
    };
    let plans = scenario.generate();
    let mut db = moving_objects::core::Database::new(500);
    scenario.populate(&mut db, &plans);
    db.add_region("P", Polygon::rectangle(-200.0, -200.0, 200.0, 200.0));
    let q = Query::parse(
        "RETRIEVE o WHERE o.PRICE <= 120 AND Eventually within 300 (INSIDE(o, P) AND Always for 20 INSIDE(o, P))",
    )
    .unwrap();
    let t0 = Instant::now();
    let answer = db.instantaneous(&q).unwrap();
    let dt = t0.elapsed();
    assert!(!answer.is_empty());
    assert!(
        dt.as_secs_f64() < 5.0,
        "1000-object temporal query took {dt:?}"
    );
}

#[test]
#[ignore = "large-scale; run with --release -- --ignored"]
fn index_pruning_accelerates_ftl_inside_queries() {
    use moving_objects::core::Database;
    use moving_objects::spatial::Rect;
    let scenario = CarScenario {
        count: 20_000,
        area: 20_000.0,
        speed: (0.5, 2.0),
        mean_update_gap: 1e18,
        horizon: 500,
        seed: 3,
    };
    let plans = scenario.generate();
    let q = Query::parse("RETRIEVE o WHERE Eventually within 400 INSIDE(o, P)").unwrap();
    let build = |index: bool| {
        let mut db = Database::new(500);
        db.add_region("P", Polygon::rectangle(-150.0, -150.0, 150.0, 150.0));
        scenario.populate(&mut db, &plans);
        if index {
            db.enable_spatial_index(Rect::new(-60_000.0, -60_000.0, 60_000.0, 60_000.0));
        }
        db
    };
    let mut plain_db = build(false);
    let t0 = Instant::now();
    let plain = plain_db.instantaneous(&q).unwrap();
    let plain_time = t0.elapsed();
    let mut indexed_db = build(true);
    let t0 = Instant::now();
    let indexed = indexed_db.instantaneous(&q).unwrap();
    let indexed_time = t0.elapsed();
    assert_eq!(plain, indexed);
    assert!(
        indexed_time.as_secs_f64() < plain_time.as_secs_f64(),
        "pruned {indexed_time:?} should beat full enumeration {plain_time:?}"
    );
    println!("20k objects: full {plain_time:?} vs index-pruned {indexed_time:?}");
}
