//! Structural sharing of materialized answers: a delta refresh rewrites
//! the answer chunks holding the rows its batch changed and shares every
//! other chunk with the epoch before it, whatever the answer's size.
//!
//! Counts through the database's own sharing report, never through a
//! process-global counter, so it holds beside any other test.

use most_core::{Database, EpochDb, UpdateOp};
use most_ftl::Query;
use most_spatial::{Point, Polygon, Velocity};

/// Cars on a lattice, one per 10 × 10 cell, drifting right; a region
/// covering the whole lattice; one per-object `INSIDE` query over it.
/// Every car starts inside, so the answer holds a row per car.
fn world(cars: u64) -> (EpochDb, u64) {
    let mut db = Database::new(100);
    let width = (cars as f64).sqrt().ceil() as u64;
    for i in 0..cars {
        let p = Point::new((i % width) as f64 * 10.0, (i / width) as f64 * 10.0);
        db.insert_moving_object("cars", p, Velocity::new(1.0, 0.5));
    }
    let side = width as f64 * 10.0;
    db.add_region("ALL", Polygon::rectangle(-5.0, -5.0, side, side));
    let cq = db
        .register_continuous(Query::parse("RETRIEVE o WHERE INSIDE(o, ALL)").unwrap())
        .unwrap();
    db.advance_clock(10);
    (EpochDb::new(db), cq)
}

/// A batch sending `ops` cars spread over the id range fast to the left,
/// out of the region well inside the window, so each changes its row.
fn batch(cars: u64, ops: u64) -> Vec<UpdateOp> {
    (0..ops)
        .map(|k| UpdateOp::Motion {
            id: 1 + k * (cars / ops),
            velocity: Velocity::new(-200.0, 0.0),
        })
        .collect()
}

#[test]
fn a_delta_refresh_rewrites_only_the_chunks_its_rows_sit_in() {
    for cars in [2_000u64, 20_000] {
        let (edb, cq) = world(cars);
        let rows = edb.pin().continuous_answer(cq).unwrap().len() as u64;
        assert!(rows >= cars / 4, "{rows} rows at {cars} cars");
        for ops in [1u64, 16] {
            let pinned = edb.pin();
            let evaluations = pinned.continuous_evaluations();
            edb.apply_updates(&batch(cars, ops)).unwrap();
            let current = edb.pin();
            assert_eq!(
                current.continuous_evaluations(),
                evaluations + 1,
                "the batch changed the answer"
            );
            let (shared, total) = current.shared_answer_chunks(&pinned, cq);
            let unshared = (total - shared) as u64;
            assert!(
                (1..=ops + 1).contains(&unshared),
                "{cars} cars, {ops} ops: {unshared} of {total} answer chunks rewritten"
            );
        }
    }
}
