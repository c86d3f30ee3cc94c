//! Regression tests: a panicking query evaluation must not terminate the
//! refresh pass (PR 9 satellite bugfix).
//!
//! Before the fix, one panicking evaluation aborted the entire refresh,
//! unwound through `SharedDatabase::write`, poisoned the epoch writer
//! lock, and wedged every later mutation.  Now the panic is caught at the
//! evaluation boundary: only the offending query's refresh fails (with
//! `CoreError::EvalPanic`), every other query refreshes, the batch's
//! mutations stay applied, and the next clean batch brings the failed
//! query's answer back up to date.
//!
//! The deliberately panicking evaluation comes from
//! `Database::set_eval_fault`: queries reading the armed attribute panic
//! at evaluation entry, on the exact production path (refresh pass, epoch
//! writers).

use most_core::{CoreError, Database, SharedDatabase, UpdateOp};
use most_ftl::Query;
use most_spatial::{Point, Polygon, Velocity};

const BOOM: &str = "BOOM";

/// A database with `n` cars moving right, a region P, a faulty CQ reading
/// the armed attribute, and a healthy spatial CQ.  Returns
/// `(db, faulty_cq, healthy_cq)`; the fault is armed after registration
/// (registration itself must evaluate cleanly).
fn armed_db(n: u64) -> (Database, u64, u64) {
    let mut db = Database::new(300);
    for i in 0..n {
        let id = db.insert_moving_object(
            "cars",
            Point::new(i as f64 * 5.0, 0.0),
            Velocity::new(1.0, 0.0),
        );
        db.set_static(id, BOOM, most_dbms::value::Value::from(1.0)).unwrap();
    }
    db.add_region("P", Polygon::rectangle(10.0, -10.0, 200.0, 10.0));
    let faulty = db
        .register_continuous(faulty_query())
        .unwrap();
    let healthy = db
        .register_continuous(
            Query::parse("RETRIEVE o WHERE Eventually within 200 INSIDE(o, P)").unwrap(),
        )
        .unwrap();
    db.set_eval_fault(Some(BOOM.into()));
    (db, faulty, healthy)
}

fn faulty_query() -> Query {
    Query::parse(&format!("RETRIEVE o WHERE o.{BOOM} <= 100")).unwrap()
}

/// A batch of motion updates (every object) plus one `BOOM` write, so
/// dependency filtering refreshes both the spatial CQ and the
/// attribute-reading (faulty) CQ.
fn motion_batch(n: u64) -> Vec<UpdateOp> {
    batch_with_boom(n, 2.0)
}

/// [`motion_batch`] writing `boom` to object 1: above 100 it takes the
/// object out of the faulty CQ's answer.
fn batch_with_boom(n: u64, boom: f64) -> Vec<UpdateOp> {
    let mut ops: Vec<UpdateOp> = (0..n)
        .map(|i| UpdateOp::Motion { id: i + 1, velocity: Velocity::new(2.0, 0.0) })
        .collect();
    ops.push(UpdateOp::Static {
        id: 1,
        attr: BOOM.into(),
        value: most_dbms::value::Value::from(boom),
    });
    ops
}

/// What a fresh evaluation of the faulty CQ's query displays right now.
fn fresh_display(db: &Database) -> Vec<Vec<most_dbms::value::Value>> {
    let now = db.now();
    let answer = db.instantaneous_readonly(&faulty_query()).unwrap();
    answer.at_tick(now).into_iter().map(|t| t.values.clone()).collect()
}

#[test]
fn panicking_evaluation_fails_only_that_query() {
    let (mut db, faulty, healthy) = armed_db(8);
    let healthy_before = db.continuous_answer(healthy).unwrap().clone();

    // The refresh pass must survive the panic and report it as an error.
    let err = db.apply_updates(&motion_batch(8)).unwrap_err();
    assert!(matches!(err, CoreError::EvalPanic(_)), "expected EvalPanic, got {err:?}");

    // The mutations stayed applied and the healthy CQ refreshed.
    let now = db.now();
    assert_eq!(
        db.object(1).unwrap().velocity_at(now),
        Some(Velocity::new(2.0, 0.0))
    );
    let healthy_after = db.continuous_answer(healthy).unwrap();
    assert_ne!(
        healthy_before, *healthy_after,
        "healthy CQ must refresh past the panic"
    );
    // The faulty CQ still serves its pre-batch materialized answer.
    assert!(db.continuous_answer(faulty).is_ok());

    // The database is not wedged: disarm and mutate again cleanly.
    db.set_eval_fault(None);
    db.apply_updates(&motion_batch(8)).unwrap();
}

#[test]
fn faulty_query_catches_up_on_the_next_clean_batch() {
    let (mut db, faulty, _healthy) = armed_db(6);

    // The failing batch takes object 1 out of the true answer; the
    // materialized one could not refresh and goes stale.
    let err = db.apply_updates(&batch_with_boom(6, 500.0)).unwrap_err();
    assert!(matches!(err, CoreError::EvalPanic(_)), "{err:?}");
    db.set_eval_fault(None);
    assert_ne!(
        db.continuous_display(faulty, db.now()).unwrap(),
        fresh_display(&db),
        "the failed refresh must have left a stale display to repair"
    );

    // The next batch re-evaluates the query and repairs it.
    db.advance_clock(1);
    db.apply_updates(&batch_with_boom(6, 600.0)).unwrap();
    assert_eq!(
        db.continuous_display(faulty, db.now()).unwrap(),
        fresh_display(&db),
        "the faulty CQ must catch up once the fault clears"
    );
}

#[test]
fn panicking_evaluation_is_counted() {
    let (mut db, _faulty, _healthy) = armed_db(4);
    let before = most_obs::counter_value("refresh.worker_panics");
    let err = db.apply_updates(&motion_batch(4)).unwrap_err();
    assert!(matches!(err, CoreError::EvalPanic(_)));
    if cfg!(feature = "obs") {
        assert!(
            most_obs::counter_value("refresh.worker_panics") > before,
            "panic must be counted in refresh.worker_panics"
        );
    }
    db.set_eval_fault(None);
    db.apply_updates(&motion_batch(4)).unwrap();
}

#[test]
fn shared_database_survives_panicking_refresh() {
    // The epoch-writer path: before the fix the panic unwound through
    // `EpochDb::write` and poisoned the writer lock; every later mutation
    // then panicked on `.expect("epoch writer lock poisoned")`.
    let (db, _faulty, healthy) = armed_db(6);
    let shared = SharedDatabase::new(db);
    let err = shared.apply_updates(&motion_batch(6)).unwrap_err();
    assert!(matches!(err, CoreError::EvalPanic(_)));

    // Readers still work and see the applied batch.
    let pin = shared.pin();
    let now = pin.now();
    assert_eq!(
        pin.object(1).unwrap().velocity_at(now),
        Some(Velocity::new(2.0, 0.0))
    );
    assert!(pin.continuous_answer(healthy).is_ok());

    // The writer lock is not poisoned: disarm and keep mutating.
    shared.write(|db| db.set_eval_fault(None));
    shared.apply_updates(&motion_batch(6)).unwrap();
    shared.advance_clock(1);
}
