//! Replica convergence under injected faults: a primary ships its WAL
//! record sequence over the reliable mesh to two followers while the
//! network loses ≥ 20% of copies, duplicates more, jitters delivery,
//! and cuts one partition window — and every follower still converges
//! to a **byte-identical** database fingerprint, with all registered
//! continuous-query answers equal to the primary's.

use most_core::wal::{apply_record, WalRecord};
use most_core::{Database, UpdateOp};
use most_ftl::Query;
use most_mobile::{FaultPlan, Network, ReliableMesh, ReplicaApplier, ReplicaPublisher, RetryPolicy};
use most_spatial::{Point, Polygon, Velocity};
use most_testkit::rng::Rng;
use most_testkit::ser::to_json_string;

const PRIMARY: u64 = 0;
const FOLLOWERS: [u64; 2] = [1, 2];

fn build_world(seed: u64) -> (Database, Vec<u64>) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut db = Database::new(300);
    db.add_region("P", Polygon::rectangle(-30.0, -30.0, 30.0, 30.0));
    let mut ids = Vec::new();
    for _ in 0..5 {
        let p = Point::new(rng.random_range(-60.0..60.0), rng.random_range(-60.0..60.0));
        let v = Velocity::new(rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0));
        ids.push(db.insert_moving_object("cars", p, v));
    }
    db.register_continuous(Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap())
        .unwrap();
    (db, ids)
}

fn gen_records(seed: u64, ids: &[u64]) -> Vec<WalRecord> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed_f00d);
    let mut recs = Vec::new();
    for _ in 0..20 {
        if rng.random_bool(0.35) {
            recs.push(WalRecord::Advance { ticks: rng.random_range(1..3u64) });
        } else {
            recs.push(WalRecord::Batch {
                ops: vec![UpdateOp::Motion {
                    id: ids[rng.random_range(0..ids.len())],
                    velocity: Velocity::new(
                        rng.random_range(-2.0..2.0),
                        rng.random_range(-2.0..2.0),
                    ),
                }],
            });
        }
    }
    recs
}

/// Canonical CQ observation: every registered query's materialized
/// answer, serialized.
fn cq_answers(db: &Database) -> String {
    let mut out = String::new();
    for id in db.continuous_registry().ids() {
        out.push_str(&to_json_string(&db.continuous_answer(id).unwrap()).unwrap());
        out.push(';');
    }
    out
}

#[test]
fn followers_converge_under_loss_duplication_and_partition() {
    for (seed, loss) in [(1u64, 0.20), (2, 0.30), (3, 0.40)] {
        let (initial, ids) = build_world(seed);
        let records = gen_records(seed, &ids);

        // The primary applies its script up front; the mesh only has to
        // deliver the records.
        let mut primary = initial.clone();
        for r in &records {
            apply_record(&mut primary, r).unwrap();
        }

        let nodes = [PRIMARY, FOLLOWERS[0], FOLLOWERS[1]];
        let mut net = Network::new(1);
        net.set_faults(
            FaultPlan::new(seed ^ 0xFA17)
                .with_loss(loss)
                .with_duplication(0.2)
                .with_jitter(2)
                // One partition window isolating follower 1 mid-stream.
                .with_partition(&[FOLLOWERS[0]], 5, 20),
        );
        let policy = RetryPolicy { base_backoff: 2, max_backoff: 16, ..RetryPolicy::unbounded() };
        let mut mesh = ReliableMesh::new(&nodes, policy);
        let publisher = ReplicaPublisher::new(PRIMARY, &FOLLOWERS);
        let mut appliers: Vec<ReplicaApplier> = FOLLOWERS
            .iter()
            .map(|&f| ReplicaApplier::new(f, initial.clone(), 0))
            .collect();

        // Publish one record per tick, then keep ticking until the mesh
        // drains (unbounded retries guarantee it does).
        let mut drained = false;
        for t in 0..20_000u64 {
            if (t as usize) < records.len() {
                publisher.publish(&mut mesh, &mut net, t, &records[t as usize], t);
            }
            for d in mesh.tick(&mut net, t) {
                for a in appliers.iter_mut() {
                    if a.node() == d.at {
                        a.on_delivery(&d);
                    }
                }
            }
            if t as usize >= records.len() && mesh.is_idle() {
                drained = true;
                break;
            }
        }
        assert!(drained, "seed {seed}: mesh never drained");

        for a in &appliers {
            assert_eq!(
                a.applied(),
                records.len() as u64,
                "seed {seed}: follower {} missed records",
                a.node()
            );
            assert_eq!(a.buffered(), 0, "seed {seed}: follower {} left a gap", a.node());
            assert_eq!(
                a.fingerprint(),
                primary.fingerprint(),
                "seed {seed}: follower {} diverged from the primary",
                a.node()
            );
            assert_eq!(
                cq_answers(a.db()),
                cq_answers(&primary),
                "seed {seed}: follower {} CQ answers diverged",
                a.node()
            );
        }
    }
}
