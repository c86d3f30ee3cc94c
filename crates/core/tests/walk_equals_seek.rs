//! Walking the domain equals seeking it: a whole-domain atom evaluated
//! through [`DbContext`]'s in-order walk (each object handed to the atom in
//! place) answers byte-identically to the same atom evaluated through the
//! default per-id path, where every candidate is looked up by id.
//!
//! The per-id path is forced by [`Seek`], a wrapper that delegates every
//! context method except `for_each_candidate`.  Worlds have removed objects
//! (chunks with gaps, one chunk emptied), plain objects with no trajectory,
//! a dynamic `FUEL` shadowing a static one, non-numeric static values and
//! multi-leg histories; queries run in `Current` mode and in `Recorded` mode
//! at several origins.  Failures shrink and append their seed to
//! `tests/walk_equals_seek.seeds`.

use most_core::snapshot::DbContext;
use most_core::{AttrFunction, Database};
use most_dbms::value::Value;
use most_ftl::context::{EvalContext, StoredAttr};
use most_ftl::{evaluate_query, Query};
use most_spatial::{Point, Polygon, Rect, Trajectory, Velocity};
use most_temporal::Horizon;
use most_testkit::check::{bools, ints, tuple2, tuple3, tuple4, vecs, Check, Gen};
use std::borrow::Cow;

/// Every [`DbContext`] method but the candidate walk: atoms evaluated
/// through it look each candidate up by id.
struct Seek<'a>(&'a DbContext<'a>);

impl EvalContext for Seek<'_> {
    fn horizon(&self) -> Horizon {
        self.0.horizon()
    }
    fn object_ids(&self) -> Vec<u64> {
        self.0.object_ids()
    }
    fn object_count(&self) -> usize {
        self.0.object_count()
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
        self.0.inside_candidates(region)
    }
}

const QUERIES: &[&str] = &[
    "RETRIEVE o WHERE INSIDE(o, P)",
    "RETRIEVE o WHERE OUTSIDE(o, P)",
    "RETRIEVE o WHERE WITHIN_SPHERE({c}, o, POINT(10, 5))",
    "RETRIEVE o WHERE DIST(o, POINT(0, 0)) <= {c}",
    "RETRIEVE o WHERE o.PRICE <= {c}",
    "RETRIEVE o WHERE o.PRICE >= {c}",
    "RETRIEVE o WHERE o.FUEL <= {c}",
    "RETRIEVE o WHERE o.SPEED >= 2",
    "RETRIEVE o WHERE Eventually within {c} INSIDE(o, P)",
    "RETRIEVE o WHERE Always for 5 OUTSIDE(o, P)",
    "RETRIEVE o WHERE OUTSIDE(o, P) Until INSIDE(o, P)",
    "RETRIEVE o WHERE INSIDE(o, P) AND o.PRICE <= {c}",
    "RETRIEVE o WHERE o.PRICE <= {c} AND INSIDE(o, P)",
    "RETRIEVE o WHERE [x <- o.SPEED] Eventually (DIST(o, POINT(0, 0)) <= {c} * x)",
    "RETRIEVE o, n WHERE o <> n AND [x <- o.SPEED] Eventually (DIST(o, n) <= {c} + x)",
];

/// One object: `((id gap, plain?), (x, y, vx, vy), (PRICE kind, value),
/// (FUEL kind, value))`.  PRICE kinds: none, float, int, text.  FUEL kinds:
/// none, static, dynamic, dynamic over static.
type ObjectSpec = ((u64, bool), (i32, i32, i32, i32), (u8, u32), (u8, u32));

/// One update after the world is built: `(op, target index, value)`.
type Event = (u8, usize, u32);

type World = (Vec<ObjectSpec>, Vec<Event>, bool);

fn arb_object() -> Gen<ObjectSpec> {
    tuple4(
        tuple2(ints(1u64..80), bools()),
        tuple4(
            ints(-60i32..60),
            ints(-60i32..60),
            ints(-3i32..4),
            ints(-3i32..4),
        ),
        tuple2(ints(0u8..4), ints(0u32..200)),
        tuple2(ints(0u8..4), ints(0u32..200)),
    )
}

fn arb_world() -> Gen<World> {
    tuple3(
        vecs(arb_object(), 1..16),
        vecs(
            tuple3(ints(0u8..5), ints(0usize..64), ints(0u32..200)),
            0..12,
        ),
        bools(),
    )
}

/// Builds the world the spec describes.
fn build((objects, events, indexed): &World) -> Database {
    let mut db = Database::new(60);
    db.add_region("P", Polygon::rectangle(-20.0, -20.0, 20.0, 20.0));
    let mut ids = Vec::new();
    let mut next = 0u64;
    for (at, &((gap, plain), (x, y, vx, vy), price, fuel)) in objects.iter().enumerate() {
        if at == objects.len() / 2 {
            // A chunk that held objects and was emptied again.
            let base = (next / 64 + 1) * 64;
            for id in base..base + 3 {
                db.insert_moving_object_with_id(id, "cars", Point::origin(), Velocity::zero())
                    .unwrap();
            }
            for id in base..base + 3 {
                db.remove_object(id).unwrap();
            }
            next = base + 64;
        }
        let id = if plain {
            db.insert_plain_object("motels")
        } else {
            next += gap;
            let position = Point::new(x as f64, y as f64);
            let velocity = Velocity::new(vx as f64, vy as f64);
            db.insert_moving_object_with_id(next, "cars", position, velocity)
                .unwrap();
            next
        };
        next = next.max(id);
        ids.push(id);
        let price = match price {
            (0, _) => None,
            (1, v) => Some(Value::from(v as f64)),
            (2, v) => Some(Value::Int(v as i64)),
            _ => Some(Value::Str("n/a".into())),
        };
        if let Some(v) = price {
            db.set_static(id, "PRICE", v).unwrap();
        }
        let (kind, v) = fuel;
        if kind == 1 || kind == 3 {
            db.set_static(id, "FUEL", Value::from(v as f64)).unwrap();
        }
        if kind >= 2 {
            let drain = AttrFunction::Linear(-((v % 3) as f64));
            db.set_dynamic_scalar(id, "FUEL", Some(v as f64), Some(drain))
                .unwrap();
        }
    }
    if *indexed {
        db.enable_spatial_index(Rect::new(-400.0, -400.0, 400.0, 400.0));
    }
    for &(op, target, v) in events {
        let id = ids[target % ids.len()];
        // Updates to a removed or plain object fail and change nothing.
        let _ = match op {
            0 => {
                db.advance_clock(1 + (v % 7) as u64);
                Ok(())
            }
            1 => {
                let velocity = Velocity::new((v % 7) as f64 - 3.0, (v / 7 % 7) as f64 - 3.0);
                db.update_motion(id, velocity)
            }
            2 => db.set_static(id, "PRICE", Value::from(v as f64)),
            3 => db.set_dynamic_scalar(id, "FUEL", Some(v as f64), None),
            _ => db.remove_object(id),
        };
    }
    db
}

#[test]
fn walking_the_domain_equals_seeking_it() {
    Check::new("core::walking_the_domain_equals_seeking_it")
        .regressions(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/walk_equals_seek.seeds"
        ))
        .run(&tuple2(arb_world(), ints(1u32..60)), |(world, c)| {
            let db = build(world);
            let now = db.now();
            let contexts = [
                db.current_context(),
                db.recorded_context(0),
                db.recorded_context(now / 2),
                db.recorded_context(now),
            ];
            for ctx in &contexts {
                for template in QUERIES {
                    let src = template.replace("{c}", &c.to_string());
                    let q = Query::parse(&src).expect("template parses");
                    let walked = format!("{:?}", evaluate_query(ctx, &q));
                    let sought = format!("{:?}", evaluate_query(&Seek(ctx), &q));
                    assert_eq!(walked, sought, "query: {src} at origin {}", ctx.origin());
                }
            }
        });
}
