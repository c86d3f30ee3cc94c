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
//!    evaluation + expiration`.  "On the window" is literal: the reference
//!    runs on an unindexed copy of the state whose horizon ends where the
//!    materialized one does, because a temporal operator evaluated at a
//!    later tick would otherwise look further ahead than the materialized
//!    answer could.  A query the dependency filter skipped keeps the
//!    window of its last evaluation (ROADMAP item 4 records the gap past
//!    it), so an unsound skip shows up here as a divergence.
//! 2. **Past.**  A display served at a tick the clock has left never
//!    changes.
//! 3. **Accounting.**  Every write either skips or evaluates each query.
//!
//! Half of the random worlds maintain the spatial and attribute indexes;
//! the reference copy never has them, so index pruning is checked against
//! full enumeration by the same comparison.
//!
//! The named cases at the bottom are the counterexamples that separated
//! the deleted per-object refresh from full re-evaluation (EXPERIMENTS.md,
//! E3), with their expected displays.

use most_testkit::check::{bools, ints, one_of, tuple2, tuple3, vecs, Check, Gen};
use most_testkit::ser::{FromJson, Json, ToJson};
use moving_objects::core::{AttrFunction, Database, IndexKind, MotionUpdate, UpdateOp};
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
/// disjunction, negation, a pair query and a non-target variable.
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
            let id = world.db.register_continuous(query.clone()).expect("registers");
            let last_eval = world.db.now();
            world.cqs.push(Cq { id, query, last_eval });
        }
        world.check_future();
        world
    }

    fn with_indexes(mut self) -> World {
        self.db
            .enable_spatial_index(Rect::new(-20_000.0, -20_000.0, 20_000.0, 20_000.0));
        self.db
            .enable_attr_index("PRICE", IndexKind::RTree, (-10_000.0, 10_000.0));
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
        }
        self.after_step();
    }

    /// One explicit update (a single call that applies at least one
    /// change): every query is then either skipped or evaluated now.
    fn write(&mut self, update: impl FnOnce(&mut Database)) {
        let registry = self.db.continuous_registry();
        let skipped: Vec<u64> = self
            .cqs
            .iter()
            .map(|cq| registry.get(cq.id).expect("live query").skipped)
            .collect();
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
        let now = self.db.now();
        let registry = self.db.continuous_registry();
        for (cq, skipped) in self.cqs.iter_mut().zip(skipped) {
            if registry.get(cq.id).expect("live query").skipped == skipped {
                cq.last_eval = now;
            }
        }
        self.after_step();
    }

    fn after_step(&mut self) {
        if self.indexed {
            // As the epoch engine does at its boundaries.
            self.db.maintain_spatial_index();
            self.db.maintain_attr_index();
        }
        self.check_future();
    }

    /// Property 1.
    fn check_future(&self) {
        let now = self.db.now();
        let mut copies: BTreeMap<Tick, Database> = BTreeMap::new();
        for cq in &self.cqs {
            let end = cq.last_eval + self.db.expiration();
            if now > end {
                continue; // nothing materialized from here on
            }
            let copy = copies
                .entry(end)
                .or_insert_with(|| copy_with_horizon_end(&self.db, end));
            let fresh = copy.instantaneous_readonly(&cq.query).expect("evaluates");
            let maintained = self.db.continuous_answer(cq.id).expect("live query");
            assert_eq!(
                rows_from(maintained, now),
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
    Motion { obj: usize, vx: i32, vy: i32 },
    /// A static write; `None` writes a non-numeric price.
    Price { obj: usize, price: Option<u32> },
    Fuel { obj: usize, level: u32, rate: i32 },
    /// One `apply_updates` batch: a position report and a price for one
    /// object, a fuel reading for another.
    Batch { obj: usize, other: usize, x: i32, price: u32, level: u32 },
    Insert { x: i32, y: i32 },
    Remove { obj: usize },
}

fn arb_steps() -> Gen<Vec<Step>> {
    let obj = || ints(0..8usize);
    let half = || ints(-6i32..=6);
    vecs(
        one_of(vec![
            ints(1..40u64).map(Step::Advance),
            tuple3(obj(), half(), half()).map(|(obj, vx, vy)| Step::Motion { obj, vx, vy }),
            tuple2(obj(), ints(40..220u32))
                .map(|(obj, p)| Step::Price { obj, price: (p < 200).then_some(p) }),
            tuple3(obj(), ints(20..150u32), ints(-4i32..=0))
                .map(|(obj, level, rate)| Step::Fuel { obj, level, rate }),
            tuple3(tuple2(obj(), obj()), ints(-50i32..=50), tuple2(ints(40..200u32), ints(20..150u32)))
                .map(|((obj, other), x, (price, level))| Step::Batch { obj, other, x, price, level }),
            tuple2(ints(-50i32..=50), ints(-50i32..=50)).map(|(x, y)| Step::Insert { x, y }),
            obj().map(|obj| Step::Remove { obj }),
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
        db.set_static(id, "PRICE", (80.0 + 20.0 * i as f64).into()).unwrap();
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
                db.update_motion(id, Velocity::new(vx as f64 * 0.5, vy as f64 * 0.5)).unwrap()
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
                db.set_dynamic_scalar(id, "FUEL", Some(level as f64), Some(drain)).unwrap()
            });
        }
        Step::Batch { obj, other, x, price, level } => {
            let (id, other) = (pick(obj), pick(other));
            let report = MotionUpdate {
                position: Point::new(x as f64, 5.0),
                velocity: Velocity::new(0.5, -0.5),
            };
            world.write(|db| {
                db.apply_updates(&[
                    UpdateOp::Position { id, update: report },
                    UpdateOp::Static { id, attr: "PRICE".into(), value: Value::from(price as f64) },
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
    }
}

#[test]
fn maintained_answer_matches_fresh_evaluation() {
    Check::new("continuous::maintained_answer_matches_fresh_evaluation")
        .cases(32)
        .run(&tuple2(arb_steps(), bools()), |(steps, indexed)| {
            let mut world = build_world();
            if *indexed {
                world = world.with_indexes();
            }
            for step in steps {
                apply(&mut world, step);
            }
            world.check_past();
        });
}

/// The horizon extension served traffic relies on: two relevant updates
/// further apart than `expiration`.  Between them the materialized answer
/// runs out (nothing is displayed); the second update materializes a full
/// window again.
#[test]
fn an_update_past_expiration_materializes_a_full_window_again() {
    let mut world = build_world();
    let parked = world.ids[0];
    world.write(|db| {
        let here = MotionUpdate { position: Point::origin(), velocity: Velocity::zero() };
        db.update_position(parked, here).unwrap()
    });
    world.advance(EXPIRATION + 130);
    assert_eq!(world.display(0), Display::new(), "past the last evaluation's window");
    let other = world.ids[1];
    world.write(|db| db.update_motion(other, Velocity::new(0.0, 1.0)).unwrap());
    assert_eq!(world.display(0), vec![vec![Value::Id(parked)]]);
    world.advance(EXPIRATION);
    assert_eq!(world.display(0), vec![vec![Value::Id(parked)]]);
    world.check_past();
}

/// Counterexample 1 (horizon): rows of objects that are not in the batch
/// are re-evaluated too, so parked cars stay displayed however long ago
/// their own last update was.  Per-object refresh let them expire.
#[test]
fn rows_of_objects_outside_the_batch_keep_a_full_horizon() {
    let mut db = Database::new(100);
    let ids: Vec<u64> = (0..40)
        .map(|i| db.insert_moving_object("cars", Point::new(i as f64 * 10.0, 0.0), Velocity::zero()))
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

/// Counterexample 2 (non-target variables): `n` is projected away, so a
/// row `[o]` can depend on an object it does not name.  Per-object refresh
/// pinned target variables only and kept the stale `[1]`.
#[test]
fn a_row_follows_the_object_bound_to_a_projected_variable() {
    let mut db = Database::new(100);
    let ids: Vec<u64> = [0.0, 30.0, 100.0]
        .iter()
        .map(|&x| db.insert_moving_object("cars", Point::new(x, 0.0), Velocity::zero()))
        .collect();
    let mut world = World::new(db, ids, &["RETRIEVE o WHERE o <> n AND DIST(o, n) <= 40"]);
    assert_eq!(world.display(0), vec![vec![Value::Id(1)], vec![Value::Id(2)]]);
    world.advance(1);
    // Car 2 leaves car 1's neighbourhood for car 3's.
    world.write(|db| {
        let there = MotionUpdate { position: Point::new(70.0, 0.0), velocity: Velocity::zero() };
        db.update_position(2, there).unwrap()
    });
    assert_eq!(world.display(0), vec![vec![Value::Id(2)], vec![Value::Id(3)]]);
    world.check_past();
}

/// Counterexample 3 (removal under negation): a removed object leaves the
/// domain the complement ranges over.  Per-object refresh complemented an
/// empty relation for the object that no longer exists and kept `[2]`.
#[test]
fn a_removed_object_leaves_a_negated_answer() {
    let mut db = Database::new(100);
    let ids: Vec<u64> = [0.0, 50.0, 80.0]
        .iter()
        .map(|&x| db.insert_moving_object("cars", Point::new(x, 0.0), Velocity::zero()))
        .collect();
    db.add_region("P", Polygon::rectangle(-10.0, -10.0, 10.0, 10.0));
    let mut world = World::new(db, ids, &["RETRIEVE o WHERE NOT INSIDE(o, P)"]);
    assert_eq!(world.display(0), vec![vec![Value::Id(2)], vec![Value::Id(3)]]);
    world.advance(1);
    world.ids.remove(1);
    world.write(|db| db.remove_object(2).unwrap());
    assert_eq!(world.display(0), vec![vec![Value::Id(3)]]);
    world.check_past();
}

// ---------------------------------------------------------------------
// Merge idempotence: re-applying the same refresh result at the same
// boundary must be a no-op — the property behind the registry's
// "byte-identical answer ⇒ noop_refreshes" accounting.
// ---------------------------------------------------------------------

mod merge_props {
    use super::*;
    use moving_objects::core::continuous::merge_answers;
    use moving_objects::ftl::answer::AnswerTuple;

    /// Random single-variable answers over ids 1..=5 (duplicate ids fold
    /// into one row via interval-set union, as real answers are keyed).
    fn arb_answer() -> Gen<Answer> {
        vecs(
            tuple2(ints(1..6u64), vecs(tuple2(ints(0..60u64), ints(0..15u64)), 0..4)),
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
                    .map(|(id, intervals)| AnswerTuple { values: vec![Value::Id(id)], intervals })
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
                    let merged = merge_answers(old, new, *boundary);
                    let again = merge_answers(&merged, new, *boundary);
                    assert_eq!(again, merged, "boundary {boundary}");
                },
            );
    }
}
