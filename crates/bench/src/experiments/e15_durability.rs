//! E15 — durability and fault-tolerant replication.
//!
//! The paper's service envisions long-lived server state (Section 1: a
//! database of moving objects queried continuously); a deployable engine
//! must survive crashes without losing committed updates and must be able
//! to replicate its update stream to followers over an unreliable
//! network.  This experiment drives both halves of the PR 8 durability
//! layer:
//!
//! * **Phase A (crash/recover, the CI gate):** for each of 16 seeds, a
//!   durable server executes half of a scripted workload, crashes (its
//!   WAL tail even gains a torn frame), is recovered with
//!   [`most_core::wal::DurableDb::open`], and a second server finishes
//!   the script.  Every answer and the full database fingerprint must
//!   match an oracle that never crashed, recovery must flag the torn
//!   tail, and the recovered engine's epoch accounting must conserve.
//!   All asserted *in-run*; a failure aborts the experiment.
//! * **Phase B (replica convergence):** a primary ships its WAL record
//!   sequence over the reliable mesh to two followers while the network
//!   loses 0–40% of copies, duplicates 20%, jitters delivery and cuts a
//!   partition window.  Every follower must apply every record and land
//!   on a byte-identical fingerprint with identical continuous-query
//!   answers.

use crate::table::{fmt_duration, fmt_f64};
use crate::{Scale, Table};
use most_core::wal::{apply_record, WalRecord};
use most_core::{Database, UpdateOp};
use most_ftl::Query;
use most_mobile::{
    FaultPlan, Network, ReliableMesh, ReplicaApplier, ReplicaPublisher, RetryPolicy,
};
use most_server::load::{run_crash_recovery, LoadSpec};
use most_spatial::{Point, Polygon, Velocity};
use most_testkit::rng::Rng;
use most_testkit::ser::to_json_string;
use std::path::PathBuf;

/// Crash/recover seeds — the acceptance floor is 16.
const SEEDS: u64 = 16;

const PRIMARY: u64 = 0;
const FOLLOWERS: [u64; 2] = [1, 2];

/// WAL directories live under the workspace `target/` so experiment runs
/// never touch anything outside the repository; the per-seed suffix keeps
/// re-entrant runs (CI's double-run diff) from colliding mid-flight.
fn wal_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/e15_wal")
        .join(format!("{}-{tag}", std::process::id()))
}

/// The seeded replica world: five cars, one region, one registered CQ.
fn replica_world(seed: u64) -> (Database, Vec<u64>) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut db = Database::new(300);
    db.add_region("P", Polygon::rectangle(-30.0, -30.0, 30.0, 30.0));
    let mut ids = Vec::new();
    for _ in 0..5 {
        let p = Point::new(rng.random_range(-60.0..60.0), rng.random_range(-60.0..60.0));
        let v = Velocity::new(rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0));
        ids.push(db.insert_moving_object("cars", p, v));
    }
    db.register_continuous(Query::parse("RETRIEVE o WHERE INSIDE(o, P)").expect("parses"))
        .expect("registers");
    (db, ids)
}

/// The seeded record stream the primary ships.
fn replica_records(seed: u64, ids: &[u64], n: usize) -> Vec<WalRecord> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed_f00d);
    (0..n)
        .map(|_| {
            if rng.random_bool(0.35) {
                WalRecord::Advance { ticks: rng.random_range(1..3u64) }
            } else {
                WalRecord::Batch {
                    ops: vec![UpdateOp::Motion {
                        id: ids[rng.random_range(0..ids.len())],
                        velocity: Velocity::new(
                            rng.random_range(-2.0..2.0),
                            rng.random_range(-2.0..2.0),
                        ),
                    }],
                }
            }
        })
        .collect()
}

/// Every registered CQ's materialized answer, serialized — the canonical
/// "same answers" observation.
fn cq_answers(db: &Database) -> String {
    let mut out = String::new();
    for id in db.continuous_registry().ids() {
        out.push_str(&to_json_string(&db.continuous_answer(id).expect("cq exists")).expect("encodes"));
        out.push(';');
    }
    out
}

/// Runs the durability experiment.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "E15",
        "durability: crash/recover against a never-crashed oracle, then replica convergence under faults",
        &[
            "phase",
            "param",
            "records",
            "replayed",
            "torn-tail",
            "traffic",
            "drain-ticks",
            "verified",
            "time",
        ],
    );

    // Phase A: per-seed crash/recover sweep.  The workload size varies
    // with the seed so segment rotation and checkpointing both get
    // exercised across the sweep.
    for seed in 0..SEEDS {
        let spec = LoadSpec {
            subscribers: 0,
            queries: scale.pick(3, 4),
            objects: scale.pick(20, 40),
            area: 400.0,
            ticks: scale.pick(6, 12) + seed % 3,
            batch: 6,
            seed: 0xE15 ^ seed,
        };
        let dir = wal_dir(&format!("a{seed}"));
        let outcome = run_crash_recovery(&spec, &dir);
        // The CI smoke gate: divergence from the never-crashed oracle,
        // an undetected torn tail, a wrong replay count, or an epoch
        // accounting leak each fail the whole experiment run.
        assert!(outcome.verified, "seed {seed}: recovered state diverges: {outcome:?}");
        assert!(outcome.epoch_conserved, "seed {seed}: epoch leak: {outcome:?}");
        assert!(outcome.truncated_tail, "seed {seed}: torn tail not detected: {outcome:?}");
        let logged = spec.queries as u64 + 2 * (spec.ticks / 2).max(1);
        assert_eq!(
            outcome.records_replayed, logged,
            "seed {seed}: recovery replayed a different committed prefix: {outcome:?}"
        );
        table.row(vec![
            "A crash/recover".into(),
            format!("seed {seed}"),
            logged.to_string(),
            outcome.records_replayed.to_string(),
            outcome.truncated_tail.to_string(),
            outcome.requests.to_string(),
            "—".into(),
            outcome.verified.to_string(),
            fmt_duration(outcome.elapsed),
        ]);
    }

    // Phase B: replica convergence loss sweep, duplication + jitter + one
    // partition window throughout.
    let n_records = scale.pick(16usize, 40usize);
    for (i, loss) in [0.0, 0.2, 0.4].into_iter().enumerate() {
        let seed = 0xB0 + i as u64;
        let (initial, ids) = replica_world(seed);
        let records = replica_records(seed, &ids, n_records);
        let mut primary = initial.clone();
        for r in &records {
            apply_record(&mut primary, r).expect("primary applies its own record");
        }

        let nodes = [PRIMARY, FOLLOWERS[0], FOLLOWERS[1]];
        let mut net = Network::new(1);
        net.set_faults(
            FaultPlan::new(seed ^ 0xFA17)
                .with_loss(loss)
                .with_duplication(0.2)
                .with_jitter(2)
                .with_partition(&[FOLLOWERS[0]], 5, 25),
        );
        let policy = RetryPolicy { base_backoff: 2, max_backoff: 16, ..RetryPolicy::unbounded() };
        let mut mesh = ReliableMesh::new(&nodes, policy);
        let publisher = ReplicaPublisher::new(PRIMARY, &FOLLOWERS);
        let mut appliers: Vec<ReplicaApplier> = FOLLOWERS
            .iter()
            .map(|&f| ReplicaApplier::new(f, initial.clone(), 0))
            .collect();

        let before = net.stats;
        let mut drain_ticks = 0u64;
        for t in 0..50_000u64 {
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
                drain_ticks = t;
                break;
            }
        }
        assert!(drain_ticks > 0, "loss {loss}: mesh never drained");
        let mut converged = true;
        let mut applied = u64::MAX;
        for a in &appliers {
            applied = applied.min(a.applied());
            if a.fingerprint() != primary.fingerprint()
                || cq_answers(a.db()) != cq_answers(&primary)
                || a.buffered() != 0
            {
                converged = false;
            }
        }
        assert!(converged, "loss {loss}: a follower diverged from the primary");
        assert_eq!(applied, records.len() as u64, "loss {loss}: a follower missed records");
        table.row(vec![
            "B replica".into(),
            format!("loss {}", fmt_f64(loss)),
            records.len().to_string(),
            applied.to_string(),
            "—".into(),
            (net.stats.messages - before.messages).to_string(),
            drain_ticks.to_string(),
            converged.to_string(),
            "—".into(),
        ]);
    }

    table.note(
        "Phase A is the durability gate: for each seed a durable server crashes halfway \
         through a scripted workload (with a torn frame appended to its WAL tail), is \
         recovered, and finishes the script on a second server; the final answers and \
         the full database fingerprint must equal a never-crashed oracle's byte for \
         byte, recovery must stop exactly at the committed whole-record prefix, and \
         the recovered engine's epoch accounting must conserve.  Phase B ships the \
         primary's WAL record stream over the reliable mesh under seeded loss, 20% \
         duplication, jitter and a partition window; every follower converges to a \
         byte-identical fingerprint with identical continuous-query answers.",
    );
    table.mark_measured(&["time"]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_its_own_gates() {
        // `run` asserts oracle equality, torn-tail detection, epoch
        // conservation and replica convergence internally; reaching the
        // table at all means every gate held.
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), SEEDS as usize + 3);
        for r in 0..t.rows.len() {
            assert_eq!(t.cell(r, "verified"), Some("true"), "row {r}");
        }
    }
}
