//! Integration: the Section 5.1 MOST-on-DBMS layer agrees with the native
//! MOST engine on the same fleet.

use moving_objects::core::rewrite::{MostDbmsLayer, MovingTableDef};
use moving_objects::core::Database;
use moving_objects::dbms::expr::{CmpOp, Expr};
use moving_objects::dbms::query::SelectQuery;
use moving_objects::dbms::schema::ColumnType;
use moving_objects::dbms::value::Value;
use moving_objects::ftl::Query;
use moving_objects::workload::cars::CarScenario;

/// Builds the same fleet twice: natively and through the DBMS layer.
fn twin_representations() -> (Database, MostDbmsLayer, Vec<u64>) {
    let scenario = CarScenario {
        count: 25,
        area: 300.0,
        speed: (0.5, 2.0),
        mean_update_gap: 1e18,
        horizon: 400,
        seed: 77,
    };
    let plans = scenario.generate();

    let mut db = Database::new(1_000);
    let ids = scenario.populate(&mut db, &plans);

    let mut layer = MostDbmsLayer::new();
    layer
        .create_table(MovingTableDef {
            name: "cars".into(),
            static_columns: vec![
                ("id".into(), ColumnType::Id),
                ("PRICE".into(), ColumnType::Float),
            ],
            dynamic_attrs: vec!["X".into(), "Y".into()],
        })
        .unwrap();
    for (id, p) in ids.iter().zip(&plans) {
        layer
            .insert(
                "cars",
                vec![Value::Id(*id), p.price.into()],
                vec![
                    (p.start.x, 0, p.velocity.dx),
                    (p.start.y, 0, p.velocity.dy),
                ],
            )
            .unwrap();
    }
    (db, layer, ids)
}

#[test]
fn rewrite_layer_agrees_with_native_engine_over_time() {
    let (mut db, layer, _) = twin_representations();
    // "Cars currently in the [-50,50]² square with price <= 130."
    let ftl = Query::parse(
        "RETRIEVE o WHERE o.X >= -50 AND o.X <= 50 AND o.Y >= -50 AND o.Y <= 50 AND o.PRICE <= 130",
    )
    .unwrap();
    let sql = SelectQuery::from_table("cars").column("id").filter(
        Expr::cmp(CmpOp::Ge, Expr::col("X"), Expr::val(-50.0))
            .and(Expr::cmp(CmpOp::Le, Expr::col("X"), Expr::val(50.0)))
            .and(Expr::cmp(CmpOp::Ge, Expr::col("Y"), Expr::val(-50.0)))
            .and(Expr::cmp(CmpOp::Le, Expr::col("Y"), Expr::val(50.0)))
            .and(Expr::cmp(CmpOp::Le, Expr::col("PRICE"), Expr::val(130.0))),
    );
    for now in [0u64, 60, 150, 333] {
        db.advance_clock(now - db.now());
        let mut native: Vec<u64> = db
            .instantaneous_now(&ftl)
            .unwrap()
            .iter()
            .map(|v| v[0].as_id().unwrap())
            .collect();
        native.sort_unstable();
        let (rs, stats) = layer.query(&sql, now).unwrap();
        let mut layered: Vec<u64> = rs
            .rows
            .iter()
            .map(|r| r.get(0).unwrap().as_id().unwrap())
            .collect();
        layered.sort_unstable();
        assert_eq!(native, layered, "t = {now}");
        assert_eq!(stats.dynamic_atoms, 4);
        assert_eq!(stats.subqueries, 16, "2^4 decomposition");
    }
}

#[test]
fn layer_updates_propagate() {
    let (_, mut layer, ids) = twin_representations();
    let target = ids[0];
    // Stop the car at t=100 wherever it is.
    layer
        .update_dynamic("cars", &Value::Id(target), "X", 100, None, Some(0.0))
        .unwrap();
    layer
        .update_dynamic("cars", &Value::Id(target), "Y", 100, None, Some(0.0))
        .unwrap();
    let q = SelectQuery::from_table("cars")
        .column("X")
        .column("Y")
        .filter(Expr::cmp(CmpOp::Eq, Expr::col("id"), Expr::Const(Value::Id(target))));
    let (at_100, _) = layer.query(&q, 100).unwrap();
    let (at_400, _) = layer.query(&q, 400).unwrap();
    assert_eq!(at_100.rows, at_400.rows, "a stopped car stays put");
}

#[test]
fn ftl_temporal_queries_run_over_the_dbms_layer() {
    // The last step of Section 5.1: temporal operators over the host DBMS —
    // maximal nontemporal subformulas come from the decomposed tables, the
    // appendix procedure combines them.  The layer-backed context must give
    // the same answers as the native MOST engine.
    use moving_objects::ftl::evaluate_query;
    use moving_objects::spatial::Polygon;
    use std::collections::BTreeMap;

    let (mut db, layer, _) = twin_representations();
    let mut regions = BTreeMap::new();
    regions.insert(
        "P".to_string(),
        Polygon::rectangle(-80.0, -80.0, 80.0, 80.0),
    );
    db.add_region("P", Polygon::rectangle(-80.0, -80.0, 80.0, 80.0));

    let queries = [
        "RETRIEVE o WHERE Eventually within 200 INSIDE(o, P)",
        "RETRIEVE o WHERE o.PRICE <= 120 AND Eventually (INSIDE(o, P) AND Always for 20 INSIDE(o, P))",
        "RETRIEVE o, n WHERE o <> n AND Eventually (DIST(o, n) <= 15)",
    ];
    for now in [0u64, 120] {
        db.advance_clock(now - db.now());
        let ctx = layer
            .ftl_context("cars", now, db.expiration(), regions.clone())
            .unwrap();
        for src in queries {
            let q = Query::parse(src).unwrap();
            let via_layer = evaluate_query(&ctx, &q).unwrap();
            let via_native = db.instantaneous(&q).unwrap();
            // Both answers are in global ticks.
            assert_eq!(via_layer, via_native, "query {src} at t={now}");
        }
    }
}
