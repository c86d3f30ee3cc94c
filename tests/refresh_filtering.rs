//! Soundness of the refresh engine's dependency filtering (ISSUE 2
//! acceptance): a randomized lockstep property drives two databases — one
//! with dependency-set filtering, one re-evaluating every registered query
//! on every update, the paper's literal reading — through the same event
//! sequence and asserts their
//! materialized `Answer(CQ)`s are identical after **every** event.  Any
//! update whose refresh the engine skips therefore never changes a query's
//! reference-semantics answer.
//!
//! Answers are compared **clamped to the coverage window guaranteed at
//! registration** (`[0, expiration]`): every re-evaluation at clock `t`
//! incidentally covers up to `t + expiration`, so a refresh the filter
//! skips also skips that horizon *extension* — by design (the skipped
//! query's answer is exactly as extended as if the update had never
//! happened).  Inside the guaranteed window, where the paper's semantics
//! are defined, filtering must be observationally invisible.

use most_testkit::check::{ints, one_of, tuple2, tuple3, vecs, Check, Gen};
use moving_objects::core::{AttrFunction, Database, UpdateOp};
use moving_objects::dbms::value::Value;
use moving_objects::ftl::answer::Answer;
use moving_objects::ftl::Query;
use moving_objects::spatial::{Point, Polygon, Velocity};
use moving_objects::temporal::{Horizon, IntervalSet};

/// The expiration horizon shared by both lockstep databases.
const EXPIRATION: u64 = 400;

/// An answer restricted to the registration-time coverage window (see the
/// module docs): the rows on which the two regimes must agree exactly.
fn covered(ans: &Answer) -> Vec<(Vec<Value>, IntervalSet)> {
    let window = Horizon::new(EXPIRATION);
    ans.tuples
        .iter()
        .filter_map(|t| {
            let s = t.intervals.clamp(window);
            (!s.is_empty()).then(|| (t.values.clone(), s))
        })
        .collect()
}

#[derive(Debug, Clone)]
enum Ev {
    Advance(u64),
    Motion { obj: usize, vx: i32, vy: i32 },
    Price { obj: usize, price: u32 },
    Fuel { obj: usize, level: u32, rate: i32 },
    Insert,
    /// A batch mixing one motion and one attribute write, applied through
    /// the batched entry point ([`Database::apply_updates`]).
    Batch { obj: usize, vx: i32, price: u32 },
}

fn arb_events() -> Gen<Vec<Ev>> {
    vecs(
        one_of(vec![
            ints(1..25u64).map(Ev::Advance),
            tuple3(ints(0..4usize), ints(-4i32..4), ints(-4i32..4))
                .map(|(obj, vx, vy)| Ev::Motion { obj, vx, vy }),
            tuple2(ints(0..4usize), ints(40..200u32))
                .map(|(obj, price)| Ev::Price { obj, price }),
            tuple3(ints(0..4usize), ints(20..150u32), ints(-4i32..0))
                .map(|(obj, level, rate)| Ev::Fuel { obj, level, rate }),
            ints(0..1usize).map(|_| Ev::Insert),
            tuple3(ints(0..4usize), ints(-4i32..4), ints(40..200u32))
                .map(|(obj, vx, price)| Ev::Batch { obj, vx, price }),
        ]),
        1..18,
    )
}

/// Queries spanning the dependency-set lattice: position-only, one
/// attribute, attribute + position, motion-sub-attribute, and constant
/// (domain-only).
const QUERIES: &[&str] = &[
    "RETRIEVE o WHERE Eventually INSIDE(o, P)",
    "RETRIEVE o WHERE o.PRICE <= 120",
    "RETRIEVE o WHERE o.PRICE <= 150 AND Eventually (o.FUEL <= 60)",
    "RETRIEVE o WHERE o.SPEED >= 1.0 OR OUTSIDE(o, P)",
    "RETRIEVE o WHERE true",
];

fn build_db(filtering: bool) -> (Database, Vec<u64>) {
    let mut db = Database::new(EXPIRATION);
    db.set_refresh_filtering(filtering);
    let starts = [
        (Point::new(-60.0, 0.0), Velocity::new(1.0, 0.0)),
        (Point::new(40.0, 10.0), Velocity::new(-1.0, 0.0)),
        (Point::new(0.0, -30.0), Velocity::new(0.0, 1.0)),
        (Point::new(25.0, 25.0), Velocity::new(-0.5, -0.5)),
    ];
    let ids: Vec<u64> = starts
        .iter()
        .map(|&(p, v)| db.insert_moving_object("cars", p, v))
        .collect();
    db.add_region("P", Polygon::rectangle(-20.0, -20.0, 20.0, 20.0));
    for (i, &id) in ids.iter().enumerate() {
        db.set_static(id, "PRICE", (80.0 + 20.0 * i as f64).into()).unwrap();
        db.set_dynamic_scalar(id, "FUEL", Some(100.0), Some(AttrFunction::Linear(-1.0)))
            .unwrap();
    }
    (db, ids)
}

fn apply(db: &mut Database, ids: &mut Vec<u64>, ev: &Ev) {
    match *ev {
        Ev::Advance(dt) => db.advance_clock(dt),
        Ev::Motion { obj, vx, vy } => {
            let id = ids[obj % ids.len()];
            db.update_motion(id, Velocity::new(vx as f64 * 0.5, vy as f64 * 0.5)).unwrap();
        }
        Ev::Price { obj, price } => {
            let id = ids[obj % ids.len()];
            db.set_static(id, "PRICE", (price as f64).into()).unwrap();
        }
        Ev::Fuel { obj, level, rate } => {
            let id = ids[obj % ids.len()];
            db.set_dynamic_scalar(
                id,
                "FUEL",
                Some(level as f64),
                Some(AttrFunction::Linear(rate as f64 * 0.5)),
            )
            .unwrap();
        }
        Ev::Insert => {
            ids.push(db.insert_moving_object(
                "cars",
                Point::new(-40.0, -40.0),
                Velocity::new(0.5, 0.5),
            ));
        }
        Ev::Batch { obj, vx, price } => {
            let id = ids[obj % ids.len()];
            db.apply_updates(&[
                UpdateOp::Motion { id, velocity: Velocity::new(vx as f64 * 0.5, 0.25) },
                UpdateOp::Static { id, attr: "PRICE".into(), value: Value::from(price as f64) },
            ])
            .unwrap();
        }
    }
}

#[test]
fn skipped_refreshes_never_change_an_answer() {
    Check::new("refresh::skipped_refreshes_never_change_an_answer")
        .cases(24)
        .run(&arb_events(), |events| {
            let (mut filtered, mut ids_a) = build_db(true);
            let (mut unfiltered, mut ids_b) = build_db(false);
            let cqs: Vec<u64> = QUERIES
                .iter()
                .map(|src| {
                    let q = Query::parse(src).expect("query parses");
                    let a = filtered.register_continuous(q.clone()).expect("register");
                    let b = unfiltered.register_continuous(q).expect("register");
                    assert_eq!(a, b, "registries assign ids in lockstep");
                    a
                })
                .collect();
            for (step, ev) in events.iter().enumerate() {
                apply(&mut filtered, &mut ids_a, ev);
                apply(&mut unfiltered, &mut ids_b, ev);
                for (&cq, src) in cqs.iter().zip(QUERIES) {
                    let a = &filtered.continuous_registry().get(cq).expect("entry").answer;
                    let b = &unfiltered.continuous_registry().get(cq).expect("entry").answer;
                    assert_eq!(
                        covered(a),
                        covered(b),
                        "after step {step} ({ev:?}), query {src:?}: filtered \
                         answer diverged from re-evaluate-everything answer \
                         inside the guaranteed coverage window"
                    );
                }
            }
            // Filtering must never *create* refresh work.
            let performed_f =
                filtered.continuous_evaluations() + filtered.noop_refreshes();
            let performed_u =
                unfiltered.continuous_evaluations() + unfiltered.noop_refreshes();
            assert!(
                performed_f <= performed_u,
                "filtered path evaluated more ({performed_f}) than full ({performed_u})"
            );
            assert_eq!(unfiltered.skipped_refreshes(), 0);
        });
}

#[test]
fn irrelevant_updates_are_skipped_and_counted() {
    let (mut db, ids) = build_db(true);
    let spatial = db
        .register_continuous(Query::parse("RETRIEVE o WHERE Eventually INSIDE(o, P)").unwrap())
        .unwrap();
    let pricey = db
        .register_continuous(Query::parse("RETRIEVE o WHERE o.PRICE <= 120").unwrap())
        .unwrap();
    let before_spatial = db.continuous_registry().get(spatial).unwrap().answer.clone();

    // A PRICE write cannot affect the spatial query: skipped, not refreshed.
    db.set_static(ids[0], "PRICE", Value::from(999.0)).unwrap();
    assert_eq!(db.skipped_refreshes(), 1);
    let spatial_entry = db.continuous_registry().get(spatial).unwrap();
    assert_eq!(spatial_entry.skipped, 1);
    assert_eq!(spatial_entry.answer, before_spatial);

    // A motion update cannot affect the PRICE query: skipped the other way.
    db.update_motion(ids[0], Velocity::new(2.0, 0.0)).unwrap();
    assert_eq!(db.skipped_refreshes(), 2);
    assert_eq!(db.continuous_registry().get(pricey).unwrap().skipped, 1);

    // An attribute the PRICE query does not mention is skipped by both.
    db.set_dynamic_scalar(ids[1], "FUEL", Some(10.0), None).unwrap();
    assert_eq!(db.skipped_refreshes(), 4);

    // A domain change refreshes everything.
    let skipped_before = db.skipped_refreshes();
    db.insert_moving_object("cars", Point::origin(), Velocity::zero());
    assert_eq!(db.skipped_refreshes(), skipped_before);
}
