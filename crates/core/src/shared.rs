//! A thread-safe facade over [`Database`].
//!
//! The paper's deployment picture (Section 5) has many clients — moving
//! vehicles, an air-traffic console — querying one database while sensor
//! feeds apply motion-vector updates.  [`SharedDatabase`] supports that
//! shape on top of the epoch engine ([`crate::epoch`]): queries evaluate
//! against a **pinned immutable epoch** with no lock held (readers never
//! wait for writers or for continuous-query refresh), while each write
//! path buffers into the next epoch and publishes it atomically before
//! returning — so a completed write is immediately visible to subsequent
//! reads, exactly as under the old global `RwLock`.
//!
//! Instantaneous queries through this facade use
//! [`Database::instantaneous_readonly`], which does not bump the stats
//! counter — so readers never contend with each other.

use crate::database::{Database, UpdateOp};
use crate::epoch::{EpochDb, EpochPin, EpochStats};
use crate::error::CoreResult;
use most_dbms::value::Value;
use most_ftl::answer::Answer;
use most_ftl::Query;
use most_spatial::Velocity;
use most_temporal::{Duration, Tick};

/// A cloneable, thread-safe handle to a MOST database.
#[derive(Debug, Clone)]
pub struct SharedDatabase {
    epochs: EpochDb,
}

impl SharedDatabase {
    /// Wraps a database, publishing its state as epoch 0.
    pub fn new(db: Database) -> Self {
        SharedDatabase {
            epochs: EpochDb::new(db),
        }
    }

    /// Wraps an **existing** epoch engine, sharing its published state.
    /// This is how the durable server overlays the read-only facade on
    /// a [`crate::wal::DurableDb`]: reads go through this handle while
    /// mutations go through the WAL-backed path, both seeing the same
    /// epoch sequence.
    pub fn from_epochs(epochs: EpochDb) -> Self {
        SharedDatabase { epochs }
    }

    /// Pins the currently published epoch for lock-free reading.
    pub fn pin(&self) -> EpochPin {
        self.epochs.pin()
    }

    /// The underlying epoch engine (buffered writes, explicit publish,
    /// accounting).
    pub fn epochs(&self) -> &EpochDb {
        &self.epochs
    }

    /// Epoch accounting snapshot (`created == retired + live`).
    pub fn epoch_stats(&self) -> EpochStats {
        self.epochs.stats()
    }

    /// Runs a closure against the published epoch (lock-free snapshot
    /// read).
    pub fn read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        let pin = self.epochs.pin();
        f(pin.db())
    }

    /// Runs a mutating closure and publishes the result as a new epoch
    /// before returning (read-your-writes).
    pub fn write<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        self.epochs.commit(f)
    }

    /// Evaluates an instantaneous query against the published epoch.
    pub fn instantaneous(&self, q: &Query) -> CoreResult<Answer> {
        self.epochs.pin().db().instantaneous_readonly(q)
    }

    /// The instantiations satisfied right now, on the published epoch.
    pub fn instantaneous_now(&self, q: &Query) -> CoreResult<Vec<Vec<Value>>> {
        let pin = self.epochs.pin();
        let now = pin.db().now();
        let answer = pin.db().instantaneous_readonly(q)?;
        Ok(answer
            .at_tick(now)
            .into_iter()
            .map(|t| t.values.clone())
            .collect())
    }

    /// Current clock tick (of the published epoch).
    pub fn now(&self) -> Tick {
        self.epochs.pin().db().now()
    }

    /// Advances the clock and publishes the new epoch.
    pub fn advance_clock(&self, ticks: Duration) {
        self.epochs.commit(|d| d.advance_clock(ticks));
    }

    /// Applies a motion-vector update (refreshes continuous queries as
    /// usual) and publishes the new epoch.
    pub fn update_motion(&self, id: u64, velocity: Velocity) -> CoreResult<()> {
        self.epochs.commit(|d| d.update_motion(id, velocity))
    }

    /// Applies a whole batch of updates as **one** epoch: one
    /// continuous-query refresh pass ([`Database::apply_updates`]) on the
    /// writer's copy, then one atomic publish.  With per-update calls, a
    /// batch of `n` sensor reports costs `n` refresh sweeps and `n`
    /// epochs; here it costs one of each — and a batch is never split
    /// across two epochs, even when it stops at an error (the applied
    /// prefix publishes in the same single epoch).
    pub fn apply_updates(&self, ops: &[UpdateOp]) -> CoreResult<()> {
        self.epochs.apply_updates(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use most_spatial::{Point, Polygon};
    use std::thread;

    fn shared() -> (SharedDatabase, u64) {
        let mut db = Database::new(10_000);
        let car = db.insert_moving_object("cars", Point::origin(), Velocity::new(1.0, 0.0));
        db.add_region("P", Polygon::rectangle(100.0, -50.0, 300.0, 50.0));
        (SharedDatabase::new(db), car)
    }

    #[test]
    fn concurrent_readers_and_one_writer() {
        let (db, car) = shared();
        let q = Query::parse("RETRIEVE o WHERE Eventually within 500 INSIDE(o, P)").unwrap();
        let mut readers = Vec::new();
        for _ in 0..4 {
            let db = db.clone();
            let q = q.clone();
            readers.push(thread::spawn(move || {
                let mut non_empty = 0usize;
                for _ in 0..50 {
                    let a = db.instantaneous(&q).expect("query evaluates");
                    if !a.is_empty() {
                        non_empty += 1;
                    }
                }
                non_empty
            }));
        }
        let writer = {
            let db = db.clone();
            thread::spawn(move || {
                for i in 0..50 {
                    db.advance_clock(1);
                    if i % 10 == 0 {
                        db.update_motion(car, Velocity::new(1.0, 0.1 * (i % 3) as f64))
                            .expect("update applies");
                    }
                }
            })
        };
        writer.join().expect("writer thread");
        for r in readers {
            // The car heads towards P throughout: every evaluation finds it.
            assert_eq!(r.join().expect("reader thread"), 50);
        }
        assert_eq!(db.now(), 50);
        // Every write above published one epoch; with no pins held only
        // the published one stays alive.
        let s = db.epoch_stats();
        assert_eq!(s.created, s.retired + s.live);
        assert_eq!(s.live, 1);
    }

    #[test]
    fn handles_share_state() {
        let (db, car) = shared();
        let other = db.clone();
        other.advance_clock(10);
        assert_eq!(db.now(), 10);
        db.update_motion(car, Velocity::zero()).unwrap();
        other.read(|d| {
            assert_eq!(
                d.object(car).unwrap().velocity_at(10),
                Some(Velocity::zero())
            );
        });
        db.write(|d| {
            d.add_region("Q", Polygon::rectangle(0.0, 0.0, 1.0, 1.0));
        });
        assert!(other.read(|d| d.region("Q").is_some()));
    }

    #[test]
    fn batched_updates_take_one_refresh_pass() {
        let (db, car) = shared();
        let q = Query::parse("RETRIEVE o WHERE Eventually within 500 INSIDE(o, P)").unwrap();
        let cq = db.write(|d| d.register_continuous(q)).unwrap();
        let baseline = db.read(|d| d.continuous_evaluations());
        db.apply_updates(&[
            UpdateOp::Motion {
                id: car,
                velocity: Velocity::new(2.0, 0.0),
            },
            UpdateOp::Motion {
                id: car,
                velocity: Velocity::new(3.0, 0.0),
            },
            UpdateOp::Static {
                id: car,
                attr: "PRICE".into(),
                value: Value::from(9.0),
            },
        ])
        .unwrap();
        db.read(|d| {
            // One refresh pass for the whole batch: at most one evaluation
            // (answer-changing or not) on top of the baseline.
            assert!(d.continuous_evaluations() + d.noop_refreshes() <= baseline + 1);
            assert_eq!(d.stats.updates, 3);
            // The final velocity is the last one in the batch.
            let now = d.now();
            assert_eq!(
                d.object(car).unwrap().velocity_at(now),
                Some(Velocity::new(3.0, 0.0))
            );
        });
        let _ = cq;
    }

    #[test]
    fn batched_updates_stop_at_first_error() {
        let (db, car) = shared();
        let err = db
            .apply_updates(&[
                UpdateOp::Motion {
                    id: car,
                    velocity: Velocity::zero(),
                },
                UpdateOp::Motion {
                    id: 999,
                    velocity: Velocity::zero(),
                },
                UpdateOp::Motion {
                    id: car,
                    velocity: Velocity::new(5.0, 5.0),
                },
            ])
            .unwrap_err();
        assert!(matches!(err, crate::error::CoreError::UnknownObject(999)));
        db.read(|d| {
            // The first op applied; the one after the failure did not.
            assert_eq!(
                d.object(car).unwrap().velocity_at(d.now()),
                Some(Velocity::zero())
            );
            assert_eq!(d.stats.updates, 1);
        });
        // The failed batch still published exactly one epoch (its prefix
        // must not merge into a later batch's epoch).
        assert_eq!(db.epoch_stats().current, 1);
    }

    #[test]
    fn readonly_queries_do_not_bump_stats() {
        let (db, _) = shared();
        let q = Query::parse("RETRIEVE o WHERE true").unwrap();
        let _ = db.instantaneous(&q).unwrap();
        let _ = db.instantaneous_now(&q).unwrap();
        assert_eq!(db.read(|d| d.stats.instantaneous_queries), 0);
        // Reads publish nothing: still epoch 0.
        assert_eq!(db.epoch_stats().current, 0);
    }
}
