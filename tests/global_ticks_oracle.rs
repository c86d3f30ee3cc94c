//! Database answers against a reference on the global clock.
//!
//! A random fleet (integer positions, velocities in quarter units, so no
//! position anywhere rounds) runs a script of clock advances, motion
//! updates and `PRICE` writes to a clock `c`.  The reference is
//! [`naive_answer`] over a [`MemoryContext`] that holds each car's stored
//! trajectory and its recorded `PRICE` series, on global ticks from tick 0;
//! it never goes through the database's evaluation context.  Every FTL
//! operator looks forward only, so the reference's rows clipped to ticks
//! `>= c` are the answer of an evaluation that starts at `c`:
//!
//! * `instantaneous_readonly`, without and with the spatial index, against
//!   the reference of horizon end `c + 40`, clipped to `>= c`;
//! * `persistent_answer(q, o)` for an anchor `o <= c`, against the
//!   reference of horizon end `o + 40`, clipped to `>= o`.
//!
//! The queries are the FTL property test's templates, less the two whose
//! region rides with a second object (`INSIDE(o, P, n)`): that region is
//! placed where the object stands at the evaluation's first tick, so a
//! reference starting at tick 0 asks a different question.  `time` is the
//! clock on every context, so the templates that read it ask the same
//! question of both; their bounds are scaled by ten to reach the clock.
//!
//! Previously failing cases are pinned by `tests/global_ticks_oracle.seeds`.

use most_testkit::check::{ints, one_of, tuple2, tuple3, tuple4, vecs, Check, Gen};
use moving_objects::core::Database;
use moving_objects::ftl::answer::AnswerTuple;
use moving_objects::ftl::context::MemoryContext;
use moving_objects::ftl::semantics::naive_answer;
use moving_objects::ftl::{Answer, Query};
use moving_objects::spatial::{Point, Polygon, Rect, Velocity};
use moving_objects::temporal::{Interval, IntervalSet, Tick};

/// Query expiration: every evaluation covers `[start, start + 40]`.
const EXPIRATION: u64 = 40;
/// The script's clock never passes this tick.
const MAX_CLOCK: u64 = 80;

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
    "RETRIEVE o WHERE Always (time <= {c}0 OR OUTSIDE(o, P))",
    "RETRIEVE o WHERE Eventually (DIST(o, POINT(10, 10)) <= {c})",
    "RETRIEVE o, n WHERE o <> n AND Eventually (DIST(o, n) <= 5)",
    "RETRIEVE o WHERE Eventually (o.VX >= 1 AND INSIDE(o, P))",
    "RETRIEVE o WHERE [x <- o.SPEED] [y <- o.PRICE] Eventually (o.SPEED >= x AND o.PRICE <= y)",
    "RETRIEVE o WHERE (INSIDE(o, P) OR INSIDE(o, Q)) Until OUTSIDE(o, P)",
    "RETRIEVE o WHERE Always Eventually INSIDE(o, P)",
    "RETRIEVE o WHERE Eventually Always INSIDE(o, P)",
    "RETRIEVE o WHERE Eventually within {c} Nexttime INSIDE(o, P)",
    "RETRIEVE o, n WHERE o <> n AND (DIST(o, n) <= 40 Until INSIDE(o, P))",
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
    "RETRIEVE o WHERE time <= {c}0 AND INSIDE(o, P)",
    "RETRIEVE o WHERE INSIDE(o, Q) AND time >= {c}0",
    "RETRIEVE o, n WHERE INSIDE(o, P) AND o.PRICE <= {c}0",
    "RETRIEVE o, n WHERE INSIDE(o, P) AND DIST(o, n) <= {c}",
    "RETRIEVE o, n WHERE DIST(o, n) <= {c} AND INSIDE(n, Q)",
    "RETRIEVE o, n WHERE INSIDE(o, P) AND INSIDE(n, Q)",
    "RETRIEVE o, n WHERE o.PRICE <= {c}0 AND NOT INSIDE(n, P)",
];

/// A car: position `(x, y)`, velocity `(vx, vy) / 4`.
type Car = (i32, i32, i32, i32);

#[derive(Debug, Clone)]
enum Ev {
    Advance(u64),
    Motion { car: usize, vx: i32, vy: i32 },
    Price { car: usize, price: u32 },
}

fn arb_cars() -> Gen<Vec<Car>> {
    vecs(
        tuple4(
            ints(-60i32..61),
            ints(-60i32..61),
            ints(-8i32..9),
            ints(-8i32..9),
        ),
        1..6,
    )
}

fn arb_script() -> Gen<Vec<Ev>> {
    vecs(
        one_of(vec![
            ints(1u64..25).map(Ev::Advance),
            tuple3(ints(0usize..5), ints(-8i32..9), ints(-8i32..9))
                .map(|(car, vx, vy)| Ev::Motion { car, vx, vy }),
            tuple2(ints(0usize..5), ints(40u32..200)).map(|(car, price)| Ev::Price { car, price }),
        ]),
        0..14,
    )
}

fn quarter(v: i32) -> f64 {
    f64::from(v) * 0.25
}

/// Runs the script on a fresh database; the index, when asked for, is
/// enabled from the start and rolled after each advance as a publish does.
fn run(cars: &[Car], script: &[Ev], indexed: bool) -> Database {
    let mut db = Database::new(EXPIRATION);
    db.add_region("P", Polygon::rectangle(-20.0, -20.0, 20.0, 20.0));
    db.add_region("Q", Polygon::rectangle(5.0, -45.0, 50.0, 0.0));
    if indexed {
        db.enable_spatial_index(Rect::new(-1000.0, -1000.0, 1000.0, 1000.0));
    }
    for (i, &(x, y, vx, vy)) in cars.iter().enumerate() {
        let id = db.insert_moving_object(
            "cars",
            Point::new(f64::from(x), f64::from(y)),
            Velocity::new(quarter(vx), quarter(vy)),
        );
        // Every other car starts without a PRICE.
        if i % 2 == 0 {
            db.set_static(id, "PRICE", (60.0 + 20.0 * i as f64).into())
                .unwrap();
        }
    }
    let ids = db.object_ids();
    for ev in script {
        match *ev {
            Ev::Advance(n) => {
                db.advance_clock(n.min(MAX_CLOCK - db.now()));
                db.maintain_spatial_index();
            }
            Ev::Motion { car, vx, vy } => db
                .update_motion(
                    ids[car % ids.len()],
                    Velocity::new(quarter(vx), quarter(vy)),
                )
                .unwrap(),
            Ev::Price { car, price } => db
                .set_static(ids[car % ids.len()], "PRICE", f64::from(price).into())
                .unwrap(),
        }
    }
    db
}

/// The reference history up to `end`: stored trajectories and recorded
/// `PRICE` series, on global ticks from 0.
fn reference(db: &Database, end: Tick) -> MemoryContext {
    let mut ctx = MemoryContext::new(end);
    for id in db.object_ids() {
        let obj = db.object(id).unwrap();
        ctx.add_object(id, obj.trajectory().unwrap().clone());
        let price = obj.static_series("PRICE", end);
        if !price.is_empty() {
            ctx.set_attr_series(id, "PRICE", price);
        }
    }
    for (name, poly) in db.regions_iter() {
        ctx.add_region(name, poly.clone());
    }
    ctx
}

/// `answer`'s rows cut to the ticks `>= from`.
fn from_tick(answer: Answer, from: Tick) -> Answer {
    let after = IntervalSet::singleton(Interval::new(from, Tick::MAX));
    let tuples = answer
        .tuples
        .into_iter()
        .map(|t| AnswerTuple {
            intervals: t.intervals.intersect(&after),
            values: t.values,
        })
        .collect();
    Answer::new(answer.vars, tuples)
}

#[test]
fn answers_match_a_global_tick_reference() {
    Check::new("global_ticks::answers_match_a_global_tick_reference")
        .cases(64)
        .regressions("tests/global_ticks_oracle.seeds")
        .run(
            &tuple4(
                arb_cars(),
                arb_script(),
                ints(0..TEMPLATES.len()),
                tuple2(ints(1u64..30), ints(0u64..81)),
            ),
            |(cars, script, template, (c, anchor_pick))| {
                let src = TEMPLATES[*template].replace("{c}", &c.to_string());
                let q = Query::parse(&src).expect("template parses");
                let db = run(cars, script, false);
                let indexed = run(cars, script, true);
                let now = db.now();
                assert_eq!(indexed.now(), now);

                let expected = naive_answer(&reference(&db, now + EXPIRATION), &q)
                    .expect("reference evaluation");
                let expected = from_tick(expected, now);
                let scan = db.instantaneous_readonly(&q).expect("instantaneous");
                assert_eq!(scan, expected, "instantaneous: {src} at {now}");
                let probed = indexed.instantaneous_readonly(&q).expect("indexed");
                assert_eq!(probed, expected, "indexed instantaneous: {src} at {now}");

                let origin = anchor_pick % (now + 1);
                let expected = naive_answer(&reference(&db, origin + EXPIRATION), &q)
                    .expect("reference evaluation");
                let expected = from_tick(expected, origin);
                let persistent = db.persistent_answer(&q, origin).expect("persistent");
                assert_eq!(persistent, expected, "persistent: {src} from {origin}");
            },
        );
}
