//! Skip accounting of the refresh engine's dependency filter: an update
//! outside a query's statically-extracted `DepSet` is skipped — counted per
//! query and per registry, answer untouched — and a domain change skips
//! nothing.  That a skip never changes what a query displays is the refresh
//! property in `tests/continuous_maintenance.rs`.

use moving_objects::core::{AttrFunction, Database};
use moving_objects::dbms::value::Value;
use moving_objects::ftl::Query;
use moving_objects::spatial::{Point, Polygon, Velocity};

fn build_db() -> (Database, Vec<u64>) {
    let mut db = Database::new(400);
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

#[test]
fn irrelevant_updates_are_skipped_and_counted() {
    let (mut db, ids) = build_db();
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
