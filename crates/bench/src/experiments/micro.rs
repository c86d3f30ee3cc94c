//! MICRO — latency micro-benchmarks, the in-repo replacement for the
//! seven former criterion benches (tracking policies, range queries,
//! continuous service, FTL evaluation, the 2^k rewrite, distributed
//! strategies, index structures).
//!
//! Each row times one operation with [`crate::timing::bench`] (warmup +
//! timed samples; min and median reported).  The timing columns are
//! marked *measured*, so `experiments --quick` replaces them with a
//! placeholder and the rendered output stays byte-identical run to run;
//! the numbers are for humans running `experiments micro` at full scale.

use crate::table::fmt_duration;
use crate::timing::bench;
use crate::{Scale, Table};
use most_core::rewrite::{MostDbmsLayer, MovingTableDef};
use most_core::{Database, UpdateOp};
use most_dbms::expr::{CmpOp, Expr};
use most_dbms::query::SelectQuery;
use most_dbms::schema::ColumnType;
use most_dbms::value::Value;
use most_ftl::semantics::naive_answer;
use most_ftl::{evaluate_query, Query};
use most_index::{DynamicAttributeIndex, ScanIndex};
use most_mobile::strategy::{
    object_query_data_shipping, object_query_query_shipping, ObjectPredicate,
};
use most_mobile::{FleetSim, Network};
use most_spatial::{Point, Polygon, Rect, Trajectory, Velocity};
use most_testkit::rng::Rng;
use most_workload::cars::CarScenario;
use most_workload::update_process::update_schedule;
use most_workload::{simulate_tracking, TrackingPolicy};

/// Runs every micro-benchmark group and reports min/median latencies.
pub fn run(scale: Scale) -> Table {
    let warmup = scale.pick(1usize, 3usize);
    let samples = scale.pick(3usize, 15usize);
    let mut table = Table::new(
        "MICRO",
        "operation micro-benchmarks (min / median over timed samples)",
        &["group", "benchmark", "samples", "min", "median"],
    );
    let add = |table: &mut Table, group: &str, name: String, s: crate::timing::Sample| {
        table.row(vec![
            group.to_owned(),
            name,
            s.iters.to_string(),
            fmt_duration(s.min),
            fmt_duration(s.median),
        ]);
    };

    // -- tracking policies (former e1_update_cost bench) -----------------
    let path = {
        let horizon = scale.pick(1_000u64, 5_000u64);
        let mut rng = Rng::seed_from_u64(1);
        let mut traj = Trajectory::starting_at(Point::origin(), Velocity::new(1.0, 0.0));
        for (t, v) in update_schedule(&mut rng, horizon, 100.0, 0.5, 2.0) {
            traj.update_velocity(t, v);
        }
        (0..=horizon)
            .map(|t| traj.position_at_tick(t))
            .collect::<Vec<Point>>()
    };
    for (name, policy) in [
        ("every_tick", TrackingPolicy::EveryTick),
        ("every_20", TrackingPolicy::EveryK(20)),
        (
            "dead_reckoning",
            TrackingPolicy::DeadReckoning { threshold: 1.0 },
        ),
    ] {
        let s = bench(warmup, samples, || simulate_tracking(&path, policy));
        add(&mut table, "tracking", format!("policy/{name}"), s);
    }

    // -- instantaneous range query, index vs scan (former e2 bench) ------
    for &n in scale.pick(&[1_000usize][..], &[1_000usize, 10_000, 100_000][..]) {
        let mut rng = Rng::seed_from_u64(7);
        let mut idx = DynamicAttributeIndex::new(1_000, (-(n as f64), 2.0 * n as f64));
        let mut scan = ScanIndex::new();
        for i in 0..n as u64 {
            let v0 = rng.random_range(0.0..n as f64);
            let slope = rng.random_range(-0.5..0.5);
            idx.insert(i, 0, v0, slope);
            scan.upsert(i, 0, v0, slope);
        }
        let window = n as f64 / 100.0;
        let lo = n as f64 / 3.0;
        let s = bench(warmup, samples, || {
            idx.instantaneous(500, lo, lo + window)
                .expect("the index covers the query")
        });
        add(&mut table, "range_query", format!("index/n{n}"), s);
        let s = bench(warmup, samples, || scan.instantaneous(500, lo, lo + window));
        add(&mut table, "range_query", format!("scan/n{n}"), s);
    }

    // -- continuous-query service regimes (former e3 bench) --------------
    let window = scale.pick(30u64, 100u64);
    let build_db = |n: usize| {
        let scenario = CarScenario {
            count: n,
            area: 400.0,
            speed: (0.5, 2.0),
            mean_update_gap: 1e18,
            horizon: 500,
            seed: 42,
        };
        let plans = scenario.generate();
        let mut db = Database::new(1_000);
        db.add_region("P", Polygon::rectangle(-100.0, -100.0, 100.0, 100.0));
        scenario.populate(&mut db, &plans);
        db
    };
    let query = Query::parse("RETRIEVE o WHERE INSIDE(o, P)").expect("parses");
    for &n in scale.pick(&[30usize][..], &[30usize, 100][..]) {
        let s = bench(warmup, samples, || {
            let mut db = build_db(n);
            let cq = db.register_continuous(query.clone()).expect("register");
            let mut total = 0usize;
            for t in 0..window {
                db.advance_clock(1);
                total += db.continuous_display(cq, t + 1).expect("display").len();
            }
            total
        });
        add(
            &mut table,
            "continuous",
            format!("materialized_once/n{n}"),
            s,
        );
        let s = bench(warmup, samples, || {
            let mut db = build_db(n);
            let mut total = 0usize;
            for _ in 0..window {
                db.advance_clock(1);
                total += db.instantaneous_now(&query).expect("instantaneous").len();
            }
            total
        });
        add(
            &mut table,
            "continuous",
            format!("reissue_per_tick/n{n}"),
            s,
        );
    }

    // -- FTL interval algorithm vs per-tick oracle (former e4 bench) -----
    let ctx = super::e4_ftl::context(scale.pick(10, 20), scale.pick(100, 300), 9);
    for (name, src) in super::e4_ftl::paper_queries() {
        let q = Query::parse(src).expect("parses");
        let s = bench(warmup, samples, || evaluate_query(&ctx, &q).expect("eval"));
        add(&mut table, "ftl_eval", format!("interval_algo/{name}"), s);
        let s = bench(warmup, samples, || naive_answer(&ctx, &q).expect("eval"));
        add(&mut table, "ftl_eval", format!("per_tick_oracle/{name}"), s);
    }

    // -- one atom over a whole indexed fleet, shaped like query_static's:
    //    `PRICE` keeps ~1% of the cars and reads them all, `INSIDE` reads
    //    only the index's candidates (a few dozen) -----------------------
    let n = scale.pick(2_000usize, 20_000usize);
    let fleet_db = {
        let scenario = CarScenario::fleet(11, n);
        let plans = scenario.generate();
        let mut db = Database::new(100);
        let (a, pad) = (scenario.area, 300.0);
        db.enable_spatial_index(Rect::new(-a - pad, -a - pad, a + pad, a + pad));
        db.add_region("P", Polygon::rectangle(-600.0, -600.0, 600.0, 600.0));
        scenario.populate(&mut db, &plans);
        db
    };
    let ctx = fleet_db.current_context();
    for (name, src) in [
        ("attr_cmp", "RETRIEVE o WHERE o.PRICE <= 41"),
        ("inside", "RETRIEVE o WHERE INSIDE(o, P)"),
    ] {
        let q = Query::parse(src).expect("parses");
        let s = bench(warmup, samples, || evaluate_query(&ctx, &q).expect("eval"));
        add(&mut table, "ftl_eval", format!("{name}/n{n}"), s);
    }

    // -- `INSIDE` over an unindexed fleet shaped like one `sharded_large`
    //    shard (a car per 200 square units, 80 × 80 region): all candidates
    let n = scale.pick(2_000usize, 12_500usize);
    let scenario = CarScenario {
        area: (n as f64 * 50.0).sqrt(),
        ..CarScenario::fleet(11, n)
    };
    let mut scan_db = Database::new(100);
    scan_db.add_region("P", Polygon::rectangle(-40.0, -40.0, 40.0, 40.0));
    scenario.populate(&mut scan_db, &scenario.generate());
    let ctx = scan_db.current_context();
    // `conj_scan` is one `sharded_large` shard read: the `INSIDE` side walks
    // the whole domain, `PRICE` reads only its survivors.
    for (name, src) in [
        ("inside_scan", "RETRIEVE o WHERE INSIDE(o, P)"),
        (
            "conj_scan",
            "RETRIEVE o WHERE INSIDE(o, P) AND o.PRICE <= 120",
        ),
    ] {
        let q = Query::parse(src).expect("parses");
        let s = bench(warmup, samples, || evaluate_query(&ctx, &q).expect("eval"));
        add(&mut table, "ftl_eval", format!("{name}/n{n}"), s);
    }

    // -- one `sharded_large` shard write on the same fleet: 64 motions and
    //    the beacon toggle under the shard's two continuous queries, at the
    //    tick their answers were evaluated, on a fresh clone per sample ---
    let mut cq_db = scan_db.clone();
    for src in [
        "RETRIEVE o WHERE INSIDE(o, P)",
        "RETRIEVE o WHERE o.PRICE >= 1000",
    ] {
        let q = Query::parse(src).expect("parses");
        cq_db.register_continuous(q).expect("registers");
    }
    let ids = cq_db.object_ids();
    let mut rng = Rng::seed_from_u64(5);
    let mut batch: Vec<UpdateOp> = (0..64)
        .map(|_| UpdateOp::Motion {
            id: ids[rng.below(ids.len() as u64) as usize],
            velocity: Velocity::new(rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0)),
        })
        .collect();
    batch.push(UpdateOp::Static {
        id: ids[0],
        attr: "PRICE".into(),
        value: 1000.0.into(),
    });
    let s = bench(warmup, samples, || {
        let mut db = cq_db.clone();
        db.apply_updates(&batch).expect("applies");
        db
    });
    add(&mut table, "continuous", format!("same_tick_batch/n{n}"), s);

    // -- 2^k rewrite blow-up (former e5 bench) ---------------------------
    let layer = {
        let (n, attrs) = (scale.pick(200usize, 500usize), 8usize);
        let mut layer = MostDbmsLayer::new();
        layer
            .create_table(MovingTableDef {
                name: "cars".into(),
                static_columns: vec![
                    ("id".into(), ColumnType::Id),
                    ("price".into(), ColumnType::Float),
                ],
                dynamic_attrs: (0..attrs).map(|i| format!("A{i}")).collect(),
            })
            .expect("create");
        let mut rng = Rng::seed_from_u64(3);
        for i in 0..n as u64 {
            let dynamics = (0..attrs)
                .map(|_| {
                    (
                        rng.random_range(0.0..1000.0),
                        0,
                        rng.random_range(-2.0..2.0),
                    )
                })
                .collect();
            layer
                .insert(
                    "cars",
                    vec![Value::Id(i), rng.random_range(40.0..200.0).into()],
                    dynamics,
                )
                .expect("insert");
        }
        layer
    };
    for k in [1usize, 2, 4, 8] {
        let mut clause = Expr::cmp(CmpOp::Le, Expr::col("price"), Expr::val(1e9));
        for i in 0..k {
            clause = clause.and(Expr::cmp(
                CmpOp::Ge,
                Expr::col(format!("A{i}")),
                Expr::val(200.0),
            ));
        }
        let q = SelectQuery::from_table("cars").column("id").filter(clause);
        let s = bench(warmup, samples, || layer.query(&q, 50).expect("query"));
        add(&mut table, "rewrite", format!("k_atoms/{k}"), s);
    }

    // -- distributed strategies (former e6 bench) ------------------------
    let fleet = |n: usize| {
        let scenario = CarScenario {
            count: n,
            area: 400.0,
            speed: (0.5, 2.0),
            mean_update_gap: 1e18,
            horizon: 300,
            seed: 1,
        };
        let mut sim = FleetSim::new();
        sim.add_node(0, Point::origin(), Velocity::zero(), 0.0, vec![]);
        for (i, p) in scenario.generate().into_iter().enumerate() {
            sim.add_node(i as u64 + 1, p.start, p.velocity, p.price, p.updates);
        }
        sim
    };
    let pred = ObjectPredicate::ReachesPointWithin {
        target: Point::origin(),
        radius: 50.0,
        within: 300,
    };
    for &n in scale.pick(&[50usize][..], &[50usize, 200][..]) {
        let sim = fleet(n);
        let s = bench(warmup, samples, || {
            let mut net = Network::new(0);
            object_query_data_shipping(&sim, &mut net, 0, &pred)
        });
        add(&mut table, "distributed", format!("data_shipping/n{n}"), s);
        let s = bench(warmup, samples, || {
            let mut net = Network::new(0);
            object_query_query_shipping(&sim, &mut net, 0, &pred, "Q")
        });
        add(&mut table, "distributed", format!("query_shipping/n{n}"), s);
    }
    let s = bench(warmup, samples, || {
        super::e6_distributed::continuous_message_ratio(50, 300)
    });
    add(
        &mut table,
        "distributed",
        "continuous_ratio/n50".to_owned(),
        s,
    );

    // -- index structure: build / query (former e7 bench) --------------
    let n = scale.pick(2_000usize, 10_000usize);
    let objs: Vec<(u64, f64, f64)> = {
        let mut rng = Rng::seed_from_u64(5);
        (0..n as u64)
            .map(|i| {
                (
                    i,
                    rng.random_range(0.0..n as f64),
                    rng.random_range(-0.5..0.5),
                )
            })
            .collect()
    };
    let value_range = (-(n as f64), 2.0 * n as f64);
    let qwindow = n as f64 / 100.0;
    let build = || {
        let mut idx = DynamicAttributeIndex::new(1_000, value_range);
        for &(id, v, sl) in &objs {
            idx.insert(id, 0, v, sl);
        }
        idx
    };
    let s = bench(warmup, samples, || build().len());
    add(&mut table, "structures", "build/QuadTree".to_owned(), s);
    let idx = build();
    let s = bench(warmup, samples, || {
        idx.instantaneous(500, 1000.0, 1000.0 + qwindow)
            .expect("the index covers the query")
    });
    add(&mut table, "structures", "query/QuadTree".to_owned(), s);
    let mut scan = ScanIndex::new();
    for &(id, v, sl) in &objs {
        scan.upsert(id, 0, v, sl);
    }
    let s = bench(warmup, samples, || {
        scan.instantaneous(500, 1000.0, 1000.0 + qwindow)
    });
    add(&mut table, "structures", "query/scan".to_owned(), s);

    table.note(
        "Replaces the former external-criterion benches one for one; shapes \
         (index beats scan, interval algorithm beats the oracle, subqueries \
         double per atom) are asserted by the experiment tables, not here.",
    );
    table.mark_measured(&["min", "median"]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_seven_groups_and_stabilizes() {
        let mut t = run(Scale::Quick);
        let groups: std::collections::BTreeSet<&str> =
            t.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(
            groups.into_iter().collect::<Vec<_>>(),
            vec![
                "continuous",
                "distributed",
                "ftl_eval",
                "range_query",
                "rewrite",
                "structures",
                "tracking"
            ]
        );
        t.stabilize();
        for row in &t.rows {
            assert_eq!(row[3], "—");
            assert_eq!(row[4], "—");
        }
    }
}
