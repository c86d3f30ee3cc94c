//! The refresh property: a maintained `Answer(CQ)` is a fresh query.
//!
//! Section 2.3 defines a continuous query by what a fresh evaluation
//! would return, and the refresh pass re-evaluates with the evaluator
//! instantaneous queries use, so one oracle covers the whole pass —
//! dependency filter, batch refresh, merge:
//!
//! 1. **Future.**  After every step, each materialized answer from `now`
//!    onwards equals [`Database::instantaneous_readonly`] of the same
//!    query on the window the materialized answer covers, `now ..= last
//!    renewal + expiration`.  "On the window" is literal: the reference
//!    runs on an unindexed copy of the state whose horizon ends where the
//!    materialized one does, because a temporal operator evaluated at a
//!    later tick would otherwise look further ahead than the materialized
//!    answer could.  A window moves only by the horizon rule: a refresh
//!    evaluates on the window it finds, and a query whose window the clock
//!    outruns is renewed on the clock tick that outruns it.  The oracle
//!    tracks renewals itself and checks the engine's `evaluated_at`
//!    against them after every write, so an unsound skip, a missed
//!    renewal and a moved window all show up as a divergence.
//! 2. **Past.**  A display served at a tick the clock has left never
//!    changes.
//! 3. **Accounting.**  Every write either skips or evaluates each query.
//!
//! Half of the random worlds maintain the spatial index; the reference
//! copy never has it, so index pruning is checked against full
//! enumeration by the same comparison.
//!
//! The named cases at the bottom are the counterexamples that separated
//! the deleted per-object refresh from full re-evaluation (EXPERIMENTS.md,
//! E3), with their expected displays.  Counterexamples 2 and 3 run with
//! the write at the tick the answer was evaluated and one tick later; a
//! per-object query re-evaluates only the objects a write touched at
//! either (DESIGN.md §6), as does an insert under `OUTSIDE` and `true`.
//! A touched object is evaluated on the rest of the window, never past
//! it.  A region write refreshes the queries that name the region.

use most_testkit::check::{bools, ints, one_of, tuple2, tuple3, vecs, Check, Gen};
use most_testkit::ser::{FromJson, Json, ToJson};
use moving_objects::core::{AttrFunction, Database, MotionUpdate, UpdateOp};
use moving_objects::dbms::value::Value;
use moving_objects::ftl::answer::Answer;
use moving_objects::ftl::Query;
use moving_objects::spatial::{Point, Polygon, Rect, Velocity};
use moving_objects::temporal::{Interval, IntervalSet, Tick};
use std::collections::BTreeMap;

const EXPIRATION: u64 = 120;

/// Every shape the refresh pass has been checked on: the dependency-set
/// lattice (position-only, one attribute, attribute + position, motion
/// sub-attribute, domain-only), bounded and unbounded temporal operators,
/// disjunction, negation, a pair query, a non-target variable and `time`,
/// which reads the clock.
const QUERIES: &[&str] = &[
    "RETRIEVE o WHERE INSIDE(o, P)",
    "RETRIEVE o WHERE Eventually INSIDE(o, P)",
    "RETRIEVE o WHERE o.PRICE <= 120",
    "RETRIEVE o WHERE o.PRICE <= 150 AND Eventually (o.FUEL <= 60)",
    "RETRIEVE o WHERE o.SPEED >= 1.0 OR OUTSIDE(o, P)",
    "RETRIEVE o WHERE true",
    "RETRIEVE o WHERE Eventually within 60 (INSIDE(o, P) AND o.PRICE <= 100)",
    "RETRIEVE o WHERE o.FUEL >= 20 OR INSIDE(o, P)",
    "RETRIEVE o, n WHERE o <> n AND DIST(o, n) <= 40",
    "RETRIEVE o WHERE NOT INSIDE(o, P)",
    "RETRIEVE o WHERE OUTSIDE(o, P)",
    "RETRIEVE o WHERE o <> n AND DIST(o, n) <= 40",
    "RETRIEVE o WHERE time >= 100 AND Eventually within 30 INSIDE(o, P)",
];

type Rows = Vec<(Vec<Value>, IntervalSet)>;
type Display = Vec<Vec<Value>>;

/// The rows of `answer` from tick `from` onwards.
fn rows_from(answer: &Answer, from: Tick) -> Rows {
    let future = IntervalSet::singleton(Interval::new(from, Tick::MAX));
    answer
        .tuples
        .iter()
        .filter_map(|t| {
            let s = t.intervals.intersect(&future);
            (!s.is_empty()).then(|| (t.values.clone(), s))
        })
        .collect()
}

/// An unindexed copy of `db` whose query horizon ends at global tick `end`.
fn copy_with_horizon_end(db: &Database, end: Tick) -> Database {
    let Json::Obj(mut fields) = db.to_json() else {
        panic!("a database serializes to an object");
    };
    for (name, value) in &mut fields {
        if name == "expiration" {
            *value = (end - db.now()).to_json();
        }
    }
    Database::from_json(&Json::Obj(fields)).expect("copy restores")
}

struct Cq {
    id: u64,
    query: Query,
    last_eval: Tick,
}

/// A database under test with its live objects, its continuous queries and
/// every display it has served.
struct World {
    db: Database,
    ids: Vec<u64>,
    cqs: Vec<Cq>,
    indexed: bool,
    served: Vec<(Tick, Vec<Display>)>,
}

impl World {
    fn new(db: Database, ids: Vec<u64>, queries: &[&str]) -> World {
        let mut world = World {
            db,
            ids,
            cqs: Vec::new(),
            indexed: false,
            served: Vec::new(),
        };
        for src in queries {
            let query = Query::parse(src).expect("query parses");
            let id = world
                .db
                .register_continuous(query.clone())
                .expect("registers");
            let last_eval = world.db.now();
            world.cqs.push(Cq {
                id,
                query,
                last_eval,
            });
        }
        world.check_future();
        world
    }

    fn with_index(mut self) -> World {
        self.db
            .enable_spatial_index(Rect::new(-20_000.0, -20_000.0, 20_000.0, 20_000.0));
        self.indexed = true;
        self
    }

    fn display(&self, cq: usize) -> Display {
        self.db
            .continuous_display(self.cqs[cq].id, self.db.now())
            .expect("live query")
    }

    /// Serves every display at each tick it leaves behind.
    fn advance(&mut self, ticks: u64) {
        for _ in 0..ticks {
            let shown = (0..self.cqs.len()).map(|cq| self.display(cq)).collect();
            self.served.push((self.db.now(), shown));
            self.db.advance_clock(1);
            let (now, expiration) = (self.db.now(), self.db.expiration());
            for cq in &mut self.cqs {
                if now > cq.last_eval + expiration {
                    cq.last_eval = now;
                }
            }
        }
        self.after_step();
    }

    /// One explicit update (a single call that applies at least one
    /// change): every query is then either skipped or evaluated now, on
    /// the window it already covers.
    fn write(&mut self, update: impl FnOnce(&mut Database)) {
        let work = |db: &Database| {
            db.skipped_refreshes() + db.continuous_evaluations() + db.noop_refreshes()
        };
        let before = work(&self.db);
        update(&mut self.db);
        assert_eq!(
            work(&self.db) - before,
            self.cqs.len() as u64,
            "every query is skipped or evaluated exactly once per write"
        );
        let registry = self.db.continuous_registry();
        for cq in &self.cqs {
            assert_eq!(
                registry.get(cq.id).expect("live query").evaluated_at,
                cq.last_eval,
                "a write moved the window of query {}",
                cq.query
            );
        }
        self.after_step();
    }

    fn after_step(&mut self) {
        if self.indexed {
            // As the epoch engine does at its boundaries.
            self.db.maintain_spatial_index();
        }
        self.check_future();
    }

    /// Property 1.
    fn check_future(&self) {
        let now = self.db.now();
        let mut copies: BTreeMap<Tick, Database> = BTreeMap::new();
        for cq in &self.cqs {
            let end = cq.last_eval + self.db.expiration();
            assert!(
                now <= end,
                "tick {now}: query {} ran out at {end}",
                cq.query
            );
            let copy = copies
                .entry(end)
                .or_insert_with(|| copy_with_horizon_end(&self.db, end));
            let fresh = copy.instantaneous_readonly(&cq.query).expect("evaluates");
            let maintained = self.db.continuous_answer(cq.id).expect("live query");
            assert_eq!(
                rows_from(&maintained, now),
                rows_from(&fresh, now),
                "tick {now}, window end {end}, query {}",
                cq.query
            );
        }
    }

    /// Property 2.
    fn check_past(&self) {
        for (t, shown) in &self.served {
            for (cq, shown) in self.cqs.iter().zip(shown) {
                assert_eq!(
                    &self.db.continuous_display(cq.id, *t).expect("live query"),
                    shown,
                    "already-served tick {t}, query {}",
                    cq.query
                );
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Step {
    Advance(u64),
    Motion {
        obj: usize,
        vx: i32,
        vy: i32,
    },
    /// A static write; `None` writes a non-numeric price.
    Price {
        obj: usize,
        price: Option<u32>,
    },
    Fuel {
        obj: usize,
        level: u32,
        rate: i32,
    },
    /// One `apply_updates` batch: a position report and a price for one
    /// object, a fuel reading for another.
    Batch {
        obj: usize,
        other: usize,
        x: i32,
        price: u32,
        level: u32,
    },
    Insert {
        x: i32,
        y: i32,
    },
    Remove {
        obj: usize,
    },
    /// `add_region` replaces P with one of two rectangles.
    Region {
        wide: bool,
    },
}

fn arb_steps() -> Gen<Vec<Step>> {
    let obj = || ints(0..8usize);
    let half = || ints(-6i32..=6);
    vecs(
        one_of(vec![
            ints(1..40u64).map(Step::Advance),
            tuple3(obj(), half(), half()).map(|(obj, vx, vy)| Step::Motion { obj, vx, vy }),
            tuple2(obj(), ints(40..220u32)).map(|(obj, p)| Step::Price {
                obj,
                price: (p < 200).then_some(p),
            }),
            tuple3(obj(), ints(20..150u32), ints(-4i32..=0)).map(|(obj, level, rate)| Step::Fuel {
                obj,
                level,
                rate,
            }),
            tuple3(
                tuple2(obj(), obj()),
                ints(-50i32..=50),
                tuple2(ints(40..200u32), ints(20..150u32)),
            )
            .map(|((obj, other), x, (price, level))| Step::Batch {
                obj,
                other,
                x,
                price,
                level,
            }),
            tuple2(ints(-50i32..=50), ints(-50i32..=50)).map(|(x, y)| Step::Insert { x, y }),
            obj().map(|obj| Step::Remove { obj }),
            bools().map(|wide| Step::Region { wide }),
        ]),
        1..25,
    )
}

/// Four cars around region P with prices and draining fuel.  Coordinates
/// and rates are multiples of one half, so positions are exact at every
/// tick and an evaluation does not depend on the tick it starts from.
fn build_world() -> World {
    let mut db = Database::new(EXPIRATION);
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
        db.set_static(id, "PRICE", (80.0 + 20.0 * i as f64).into())
            .unwrap();
        db.set_dynamic_scalar(id, "FUEL", Some(100.0), Some(AttrFunction::Linear(-1.0)))
            .unwrap();
    }
    World::new(db, ids, QUERIES)
}

fn apply(world: &mut World, step: &Step) {
    let pick = |obj: usize| world.ids[obj % world.ids.len()];
    match *step {
        Step::Advance(ticks) => world.advance(ticks),
        Step::Motion { obj, vx, vy } => {
            let id = pick(obj);
            world.write(|db| {
                db.update_motion(id, Velocity::new(vx as f64 * 0.5, vy as f64 * 0.5))
                    .unwrap()
            });
        }
        Step::Price { obj, price } => {
            let id = pick(obj);
            let value = match price {
                Some(p) => Value::from(p as f64),
                None => Value::Str("call us".into()),
            };
            world.write(|db| db.set_static(id, "PRICE", value).unwrap());
        }
        Step::Fuel { obj, level, rate } => {
            let id = pick(obj);
            let drain = AttrFunction::Linear(rate as f64 * 0.5);
            world.write(|db| {
                db.set_dynamic_scalar(id, "FUEL", Some(level as f64), Some(drain))
                    .unwrap()
            });
        }
        Step::Batch {
            obj,
            other,
            x,
            price,
            level,
        } => {
            let (id, other) = (pick(obj), pick(other));
            let report = MotionUpdate {
                position: Point::new(x as f64, 5.0),
                velocity: Velocity::new(0.5, -0.5),
            };
            world.write(|db| {
                db.apply_updates(&[
                    UpdateOp::Position { id, update: report },
                    UpdateOp::Static {
                        id,
                        attr: "PRICE".into(),
                        value: Value::from(price as f64),
                    },
                    UpdateOp::DynamicScalar {
                        id: other,
                        attr: "FUEL".into(),
                        value: Some(level as f64),
                        function: Some(AttrFunction::Linear(-0.5)),
                    },
                ])
                .unwrap()
            });
        }
        Step::Insert { x, y } => {
            let mut id = 0;
            world.write(|db| {
                id = db.insert_moving_object(
                    "cars",
                    Point::new(x as f64, y as f64),
                    Velocity::new(0.5, 0.5),
                )
            });
            world.ids.push(id);
        }
        Step::Remove { obj } => {
            if world.ids.len() > 1 {
                let id = world.ids.remove(obj % world.ids.len());
                world.write(|db| db.remove_object(id).unwrap());
            }
        }
        Step::Region { wide } => {
            let p = if wide {
                Polygon::rectangle(-40.0, -10.0, 30.0, 10.0)
            } else {
                Polygon::rectangle(-20.0, -20.0, 20.0, 20.0)
            };
            world.write(|db| db.add_region("P", p));
        }
    }
}

#[test]
fn maintained_answer_matches_fresh_evaluation() {
    Check::new("continuous::maintained_answer_matches_fresh_evaluation")
        .cases(32)
        .run(&tuple2(arb_steps(), bools()), |(steps, indexed)| {
            let mut world = build_world();
            if *indexed {
                world = world.with_index();
            }
            for step in steps {
                apply(&mut world, step);
            }
            world.check_past();
        });
}

/// Two relevant updates further apart than `expiration`.  Between them the
/// clock outruns the materialized window, which is renewed rather than left
/// to run out (the parked car stays displayed).  The second update
/// evaluates on the renewed window and leaves it in place; the clock
/// renews it again when it runs out.
#[test]
fn the_clock_renews_a_window_that_updates_leave_in_place() {
    let mut world = build_world();
    let parked = world.ids[0];
    world.write(|db| {
        let here = MotionUpdate {
            position: Point::origin(),
            velocity: Velocity::zero(),
        };
        db.update_position(parked, here).unwrap()
    });
    world.advance(EXPIRATION + 130);
    assert_eq!(
        world.display(0),
        vec![vec![Value::Id(parked)]],
        "past the first window"
    );
    let other = world.ids[1];
    world.write(|db| db.update_motion(other, Velocity::new(0.0, 1.0)).unwrap());
    assert_eq!(world.display(0), vec![vec![Value::Id(parked)]]);
    world.advance(EXPIRATION);
    assert_eq!(world.display(0), vec![vec![Value::Id(parked)]]);
    world.check_past();
}

/// The filter-horizon gap: a query no update in the script can affect
/// (motion never changes a price) is skipped by every write, yet its window
/// must not run out.  Before the horizon rule it displayed nothing from
/// tick 51 on, while a fresh evaluation displays the car.
#[test]
fn a_skipped_query_is_renewed_when_the_clock_outruns_its_window() {
    let mut db = Database::new(50);
    let car = db.insert_moving_object("cars", Point::origin(), Velocity::new(1.0, 0.0));
    db.set_static(car, "PRICE", Value::from(30.0)).unwrap();
    let mut world = World::new(db, vec![car], &["RETRIEVE o WHERE o.PRICE <= 40"]);
    for _ in 0..7 {
        world.advance(10);
        world.write(|db| db.update_motion(car, Velocity::new(0.0, 1.0)).unwrap());
    }
    assert_eq!(world.db.now(), 70);
    assert_eq!(world.display(0), vec![vec![Value::Id(car)]]);
    let fresh = world
        .db
        .instantaneous_readonly(&world.cqs[0].query)
        .unwrap();
    assert_eq!(fresh.ids(), vec![car]);
    world.check_past();
}

/// Counterexample 1 (horizon): rows of objects that are not in the batch
/// share the window of the rows the batch re-evaluates, and the clock
/// renews them all together, so parked cars stay displayed however long
/// ago their own last update was.  Per-object refresh moved the window
/// for the touched rows only and let the others expire.
#[test]
fn rows_of_objects_outside_the_batch_are_renewed_with_the_window() {
    let mut db = Database::new(100);
    let ids: Vec<u64> = (0..40)
        .map(|i| {
            db.insert_moving_object("cars", Point::new(i as f64 * 10.0, 0.0), Velocity::zero())
        })
        .collect();
    db.add_region("R", Polygon::rectangle(95.0, -5.0, 145.0, 5.0));
    let inside: Display = ids[10..15].iter().map(|&id| vec![Value::Id(id)]).collect();
    let mut world = World::new(db, ids, &["RETRIEVE o WHERE INSIDE(o, R)"]);
    assert_eq!(world.display(0), inside);
    for tick in 1..=600usize {
        world.advance(1);
        // One motion report per tick, from a car outside R.
        let id = world.ids[15 + tick % 25];
        world.write(|db| db.update_motion(id, Velocity::zero()).unwrap());
        if tick % 100 == 0 {
            assert_eq!(world.display(0), inside, "tick {tick}");
        }
    }
    world.check_past();
}

/// A touched object is evaluated on the rest of the window, not on a
/// fresh horizon: a car set moving one tick after registration enters `P`
/// at tick 101, one tick past the window end, and `Eventually within 60`
/// must not see that entry before the clock renews the window.  Evaluated
/// on `1 ..= 101`, the car's row would show from tick 41 while the
/// untouched rows end at tick 100.
#[test]
fn a_touched_object_does_not_look_past_the_window_end() {
    let mut db = Database::new(100);
    let car = db.insert_moving_object("cars", Point::origin(), Velocity::zero());
    let parked = db.insert_moving_object("cars", Point::new(110.0, 0.0), Velocity::zero());
    db.add_region("P", Polygon::rectangle(99.5, -10.0, 120.0, 10.0));
    let query = "RETRIEVE o WHERE Eventually within 60 INSIDE(o, P)";
    let mut world = World::new(db, vec![car, parked], &[query]);
    let just_parked = vec![vec![Value::Id(parked)]];
    assert_eq!(world.display(0), just_parked);
    world.advance(1);
    world.write(|db| db.update_motion(car, Velocity::new(1.0, 0.0)).unwrap());
    world.advance(99);
    assert_eq!(world.db.now(), 100);
    assert_eq!(world.display(0), just_parked, "the window ends at tick 100");
    world.advance(1);
    assert_eq!(world.cqs[0].last_eval, 101, "renewed");
    assert_eq!(
        world.display(0),
        vec![vec![Value::Id(car)], vec![Value::Id(parked)]]
    );
    world.check_past();
}

/// `time` is the clock, so a query reading it is per-object: a write five
/// ticks after registration re-evaluates the touched car from the write's
/// tick, and both rows still end at tick 10, where the clock passes the
/// bound.
#[test]
fn a_query_reading_time_counts_on_the_clock() {
    let mut db = Database::new(100);
    let moving = db.insert_moving_object("cars", Point::origin(), Velocity::zero());
    let parked = db.insert_moving_object("cars", Point::new(5.0, 0.0), Velocity::zero());
    let query = Query::parse("RETRIEVE o WHERE time <= 10 AND o.X <= 100").unwrap();
    let cq = db.register_continuous(query.clone()).unwrap();
    db.advance_clock(5);
    db.update_motion(moving, Velocity::new(0.5, 0.0)).unwrap();
    let fresh = db.instantaneous_readonly(&query).unwrap();
    assert_eq!(
        rows_from(&db.continuous_answer(cq).unwrap(), 5),
        rows_from(&fresh, 5)
    );
    let answer = db.continuous_answer(cq).unwrap();
    for id in [moving, parked] {
        assert_eq!(
            answer.intervals_for(&[Value::Id(id)]),
            Some(&spans(&[(0, 10)]))
        );
    }
    assert_eq!(
        db.continuous_display(cq, 10).unwrap(),
        vec![vec![Value::Id(moving)], vec![Value::Id(parked)]]
    );
    assert!(db.continuous_display(cq, 12).unwrap().is_empty());
}

/// A continuous query reading `time` shows the same display whatever the
/// writes between: with two cars, a motion update to one at tick 5, a
/// `PRICE` write the query does not read, or no write at all, the display
/// is both cars through tick 10 and empty from tick 11 on.
#[test]
fn time_in_a_continuous_query_is_the_clock() {
    let writes: [fn(&mut Database, u64); 3] = [
        |db, id| db.update_motion(id, Velocity::new(0.5, 0.0)).unwrap(),
        |db, id| db.set_static(id, "PRICE", Value::from(90.0)).unwrap(),
        |_, _| {},
    ];
    for write in writes {
        let mut db = Database::new(100);
        let moving = db.insert_moving_object("cars", Point::origin(), Velocity::zero());
        let parked = db.insert_moving_object("cars", Point::new(5.0, 0.0), Velocity::zero());
        let query = Query::parse("RETRIEVE o WHERE time <= 10 AND o.X <= 100").unwrap();
        let cq = db.register_continuous(query).unwrap();
        let both = vec![vec![Value::Id(moving)], vec![Value::Id(parked)]];
        for t in 0..=20 {
            if t == 5 {
                write(&mut db, moving);
            }
            let shown = db.continuous_display(cq, t).unwrap();
            if t <= 10 {
                assert_eq!(shown, both, "tick {t}");
            } else {
                assert!(shown.is_empty(), "tick {t}: {shown:?}");
            }
            db.advance_clock(1);
        }
    }
}

/// Counterexample 2 (non-target variables): `n` is projected away, so a
/// row `[o]` can depend on an object it does not name.  Per-object refresh
/// pinned target variables only and kept the stale `[1]`.
#[test]
fn a_row_follows_the_object_bound_to_a_projected_variable() {
    projected_variable_case(1);
}

/// Counterexample 2 at the tick the answer was evaluated: the query is not
/// per-object, so it is re-evaluated in full there too.
#[test]
fn a_row_follows_a_projected_variable_at_the_same_tick() {
    projected_variable_case(0);
}

/// Counterexample 2's script, writing `ticks` after registration.
fn projected_variable_case(ticks: u64) {
    let mut db = Database::new(100);
    let ids: Vec<u64> = [0.0, 30.0, 100.0]
        .iter()
        .map(|&x| db.insert_moving_object("cars", Point::new(x, 0.0), Velocity::zero()))
        .collect();
    let mut world = World::new(db, ids, &["RETRIEVE o WHERE o <> n AND DIST(o, n) <= 40"]);
    assert_eq!(
        world.display(0),
        vec![vec![Value::Id(1)], vec![Value::Id(2)]]
    );
    world.advance(ticks);
    // Car 2 leaves car 1's neighbourhood for car 3's.
    world.write(|db| {
        let there = MotionUpdate {
            position: Point::new(70.0, 0.0),
            velocity: Velocity::zero(),
        };
        db.update_position(2, there).unwrap()
    });
    assert_eq!(
        world.display(0),
        vec![vec![Value::Id(2)], vec![Value::Id(3)]]
    );
    world.check_past();
}

/// Counterexample 3 (removal under negation): a removed object leaves the
/// domain the complement ranges over.  Per-object refresh complemented an
/// empty relation for the object that no longer exists and kept `[2]`.
#[test]
fn a_removed_object_leaves_a_negated_answer() {
    removal_under_negation_case(1);
}

/// Counterexample 3 at the tick the answer was evaluated.  At either tick
/// only the touched objects are re-evaluated: the removed one's row is
/// dropped, not complemented back in.
#[test]
fn a_removed_object_leaves_a_negated_answer_at_the_same_tick() {
    removal_under_negation_case(0);
}

/// Counterexample 3's script, writing `ticks` after registration.
fn removal_under_negation_case(ticks: u64) {
    let mut db = Database::new(100);
    let ids: Vec<u64> = [0.0, 50.0, 80.0]
        .iter()
        .map(|&x| db.insert_moving_object("cars", Point::new(x, 0.0), Velocity::zero()))
        .collect();
    db.add_region("P", Polygon::rectangle(-10.0, -10.0, 10.0, 10.0));
    let mut world = World::new(db, ids, &["RETRIEVE o WHERE NOT INSIDE(o, P)"]);
    assert_eq!(
        world.display(0),
        vec![vec![Value::Id(2)], vec![Value::Id(3)]]
    );
    world.advance(ticks);
    world.ids.remove(1);
    world.write(|db| db.remove_object(2).unwrap());
    assert_eq!(world.display(0), vec![vec![Value::Id(3)]]);
    world.check_past();
}

/// An object inserted at the tick the answers were evaluated joins the
/// complement-shaped answers by its own evaluation, beside the kept rows.
#[test]
fn an_insert_at_the_same_tick_joins_outside_and_true() {
    let mut db = Database::new(100);
    let ids: Vec<u64> = [0.0, 50.0]
        .iter()
        .map(|&x| db.insert_moving_object("cars", Point::new(x, 0.0), Velocity::zero()))
        .collect();
    db.add_region("P", Polygon::rectangle(-10.0, -10.0, 10.0, 10.0));
    let queries = ["RETRIEVE o WHERE OUTSIDE(o, P)", "RETRIEVE o WHERE true"];
    let mut world = World::new(db, ids, &queries);
    assert_eq!(world.display(0), vec![vec![Value::Id(2)]]);
    let mut id = 0;
    world.write(|db| id = db.insert_moving_object("cars", Point::new(80.0, 0.0), Velocity::zero()));
    world.ids.push(id);
    assert_eq!(
        world.display(0),
        vec![vec![Value::Id(2)], vec![Value::Id(3)]]
    );
    let all: Display = world.ids.iter().map(|&id| vec![Value::Id(id)]).collect();
    assert_eq!(world.display(1), all);
    world.check_past();
}

/// Replacing a region's polygon refreshes the queries that name it.  They
/// used to keep their rows on the old polygon: `[1]` here, where a fresh
/// evaluation gives `[2]`.
#[test]
fn replacing_a_region_refreshes_the_queries_that_name_it() {
    let mut db = Database::new(100);
    let ids: Vec<u64> = [0.0, 100.0]
        .iter()
        .map(|&x| db.insert_moving_object("cars", Point::new(x, 0.0), Velocity::zero()))
        .collect();
    db.add_region("P", Polygon::rectangle(-10.0, -10.0, 10.0, 10.0));
    let mut world = World::new(db, ids, &["RETRIEVE o WHERE INSIDE(o, P)"]);
    assert_eq!(world.display(0), vec![vec![Value::Id(1)]]);
    world
        .db
        .add_region("P", Polygon::rectangle(90.0, -10.0, 110.0, 10.0));
    assert_eq!(world.display(0), vec![vec![Value::Id(2)]]);
    world.check_future();
}

// ---------------------------------------------------------------------
// The merge's edges on the delta path: a touched row that does not
// change, one whose future changes, one whose object is removed, and a
// two-target query on the full path.
// ---------------------------------------------------------------------

/// Cars parked inside region P (ids 1..=3) and one parked far outside it
/// (id 4), under a per-object `INSIDE` query.
fn parked_world() -> World {
    let mut db = Database::new(EXPIRATION);
    let spots = [(0.0, 0.0), (10.0, 0.0), (-10.0, 5.0), (500.0, 500.0)];
    let ids = spots
        .iter()
        .map(|&(x, y)| db.insert_moving_object("cars", Point::new(x, y), Velocity::zero()))
        .collect();
    db.add_region("P", Polygon::rectangle(-20.0, -20.0, 20.0, 20.0));
    World::new(db, ids, &["RETRIEVE o WHERE INSIDE(o, P)"])
}

/// The interval set of `[begin, end]` spans.
fn spans(ivs: &[(Tick, Tick)]) -> IntervalSet {
    IntervalSet::from_intervals(ivs.iter().map(|&(a, b)| Interval::new(a, b)))
}

/// (a) A touched car that stays outside the region changes no row: the
/// refresh counts as a no-op, and the answer keeps every chunk of the
/// epoch before it.
#[test]
fn a_touched_car_that_stays_outside_is_a_no_op() {
    let mut world = parked_world();
    world.advance(10);
    let before = world.db.clone();
    let (noops, evaluations) = (world.db.noop_refreshes(), world.db.continuous_evaluations());
    world.write(|db| db.update_motion(4, Velocity::new(1.0, 0.0)).unwrap());
    assert_eq!(world.db.noop_refreshes(), noops + 1);
    assert_eq!(world.db.continuous_evaluations(), evaluations);
    let (shared, total) = world.db.shared_answer_chunks(&before, world.cqs[0].id);
    assert_eq!((shared, total), (1, 1));
    world.check_past();
}

/// (b) A touched car whose future rows change keeps its rows before the
/// boundary: car 1 sits in P from registration, and leaves it once set
/// moving at tick 10.
#[test]
fn a_touched_car_keeps_its_rows_before_the_boundary() {
    let mut world = parked_world();
    world.advance(10);
    world.write(|db| db.update_motion(1, Velocity::new(10.0, 0.0)).unwrap());
    let answer = world.db.continuous_answer(world.cqs[0].id).unwrap();
    assert_eq!(
        answer.intervals_for(&[Value::Id(1)]),
        Some(&spans(&[(0, 12)]))
    );
    assert_eq!(
        answer.intervals_for(&[Value::Id(2)]),
        Some(&spans(&[(0, EXPIRATION)]))
    );
    world.check_past();
}

/// (c) A car removed mid-window keeps its past rows, on the delta path as
/// on the full one (the projected `n` makes the second query's refresh
/// full).
#[test]
fn a_car_removed_mid_window_keeps_its_past_rows() {
    let mut db = Database::new(EXPIRATION);
    let ids = [(0.0, 0.0), (10.0, 0.0)]
        .iter()
        .map(|&(x, y)| db.insert_moving_object("cars", Point::new(x, y), Velocity::zero()))
        .collect();
    db.add_region("P", Polygon::rectangle(-20.0, -20.0, 20.0, 20.0));
    let queries = [
        "RETRIEVE o WHERE INSIDE(o, P)",
        "RETRIEVE o WHERE INSIDE(o, P) AND INSIDE(n, P)",
    ];
    let mut world = World::new(db, ids, &queries);
    world.advance(10);
    world.ids.remove(0);
    world.write(|db| db.remove_object(1).unwrap());
    for cq in &world.cqs {
        let answer = world.db.continuous_answer(cq.id).unwrap();
        assert_eq!(
            answer.intervals_for(&[Value::Id(1)]),
            Some(&spans(&[(0, 9)]))
        );
        assert_eq!(
            answer.intervals_for(&[Value::Id(2)]),
            Some(&spans(&[(0, EXPIRATION)]))
        );
    }
    world.check_past();
}

/// (d) A two-target query, refreshed in full, matches a fresh evaluation
/// on its window after every step; twelve cars in one cluster give it 132
/// rows, more than one chunk.
#[test]
fn a_two_target_query_matches_a_fresh_evaluation_after_each_step() {
    let mut db = Database::new(EXPIRATION);
    let ids: Vec<u64> = (0..12)
        .map(|i| {
            let p = Point::new((i % 4) as f64 * 8.0, (i / 4) as f64 * 8.0);
            db.insert_moving_object("cars", p, Velocity::new(0.5, 0.0))
        })
        .collect();
    let query = "RETRIEVE o, n WHERE o <> n AND DIST(o, n) <= 40";
    let mut world = World::new(db, ids, &[query]);
    assert_eq!(
        world.db.continuous_answer(world.cqs[0].id).unwrap().len(),
        132
    );
    for step in 0..6u64 {
        world.advance(7);
        let id = world.ids[(step * 5) as usize % world.ids.len()];
        let away = Velocity::new(3.0 * step as f64 - 6.0, 2.0);
        world.write(|db| db.update_motion(id, away).unwrap());
    }
    world.ids.remove(3);
    world.write(|db| db.remove_object(4).unwrap());
    let mut id = 0;
    world.write(|db| id = db.insert_moving_object("cars", Point::new(4.0, 4.0), Velocity::zero()));
    world.ids.push(id);
    world.advance(EXPIRATION);
    world.check_past();
}

// ---------------------------------------------------------------------
// Merge idempotence: re-applying the same refresh result at the same
// boundary must be a no-op — the property behind the registry's
// "byte-identical answer ⇒ noop_refreshes" accounting.
// ---------------------------------------------------------------------

mod merge_props {
    use super::*;
    use moving_objects::core::continuous::{merge_answers, AnswerStore};
    use moving_objects::ftl::answer::AnswerTuple;

    /// Random single-variable answers over ids 1..=5 (duplicate ids fold
    /// into one row via interval-set union, as real answers are keyed).
    fn arb_answer() -> Gen<Answer> {
        vecs(
            tuple2(
                ints(1..6u64),
                vecs(tuple2(ints(0..60u64), ints(0..15u64)), 0..4),
            ),
            0..5,
        )
        .map(|rows| {
            let mut by_id: BTreeMap<u64, IntervalSet> = BTreeMap::new();
            for (id, spans) in rows {
                let set = IntervalSet::from_intervals(
                    spans.into_iter().map(|(s, len)| Interval::new(s, s + len)),
                );
                let slot = by_id.entry(id).or_insert_with(IntervalSet::empty);
                *slot = slot.union(&set);
            }
            Answer::new(
                vec!["o".to_owned()],
                by_id
                    .into_iter()
                    .map(|(id, intervals)| AnswerTuple {
                        values: vec![Value::Id(id)],
                        intervals,
                    })
                    .collect(),
            )
        })
    }

    #[test]
    fn merge_answers_is_idempotent_at_the_same_boundary() {
        Check::new("continuous::merge_answers_is_idempotent_at_the_same_boundary")
            .cases(64)
            .run(
                &tuple3(arb_answer(), arb_answer(), ints(0..70u64)),
                |(old, new, boundary)| {
                    let old = AnswerStore::new(old.clone());
                    let merged = merge_answers(&old, new, *boundary, None).unwrap_or(old);
                    let again = merge_answers(&merged, new, *boundary, None);
                    assert_eq!(again, None, "boundary {boundary}");
                },
            );
    }
}
