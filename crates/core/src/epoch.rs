//! Epoch-snapshot (MVCC) engine: lock-free readers over immutable
//! published epochs.
//!
//! The paper's deployment picture (Section 5) has many concurrent readers
//! — vehicles issuing instantaneous queries, consoles holding continuous
//! subscriptions — against one stream of motion-vector updates.  A single
//! `RwLock<Database>` serves that shape correctly but serializes readers
//! behind every update *and* behind the continuous-query refresh pass the
//! update triggers.  [`EpochDb`] removes that coupling with a
//! copy-on-write epoch scheme:
//!
//! * The **published** epoch `E` is an immutable [`Database`] behind an
//!   `Arc`.  Readers [`pin`](EpochDb::pin) it — an `Arc` clone under a
//!   briefly-held pointer lock — and then evaluate instantaneous,
//!   continuous and persistent queries on the snapshot with **no lock
//!   held at all**.  A pin is valid indefinitely; the snapshot never
//!   changes underneath it.
//! * The **writer** accumulates update batches into epoch `E + 1`, a
//!   private clone of `E` materialized on first mutation.  The clone
//!   shares `E`'s state structurally — object chunks, octree nodes,
//!   classes, regions, materialized answers — and each write copies only
//!   the chunk or node it touches, so a batch costs O(batch · log n),
//!   not O(population).
//!   Continuous-query refresh runs on this private copy (inside
//!   [`Database::apply_updates`]) while readers keep answering from `E` —
//!   refresh and reads overlap instead of excluding each other.
//! * [`advance_epoch`](EpochDb::advance_epoch) publishes `E + 1`
//!   atomically (an `Arc` pointer swap) and becomes a no-op when nothing
//!   was buffered.  Before publishing, the spatial index is rolled via
//!   [`Database::maintain_spatial_index`] so reconstruction happens at
//!   epoch boundaries, never on a reader's path.
//! * Old epochs **retire when their last pin drops**: the `Arc` refcount
//!   is the pin count, so memory for epoch `E` is reclaimed exactly when
//!   the final [`EpochPin`] (and the publish slot) releases it.  A slow
//!   subscriber pins one old epoch — not the whole history — and what
//!   that pin keeps alive beyond the current state is only the chunks
//!   and nodes rewritten since.
//!
//! Accounting is exposed two ways: [`EpochDb::stats`] returns an
//! [`EpochStats`] snapshot obeying the conservation invariant
//! `created == retired + live` (usable even with `most-obs` stubbed out),
//! and the `epoch.current` / `epoch.pinned` gauges plus the
//! `epoch.retired` / `epoch.published` / `epoch.batches` counters mirror
//! the same numbers into the metrics registry.

use crate::database::{Database, UpdateOp};
use crate::error::CoreResult;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Callback invoked at the epoch-publish boundary, after index
/// maintenance and immediately before the pointer swap.  It runs under
/// the writer lock with exclusive access to the about-to-publish state,
/// so an observer sees every epoch exactly once, in publish order, with
/// no additional synchronization of its own against this engine.  The
/// second argument is the epoch number being published.
///
/// Observers must be cheap relative to batch application: they extend
/// the writer's critical section (readers are unaffected — they keep
/// answering from the previous epoch — but subsequent writers queue).
pub type PublishObserver = Arc<dyn Fn(&Database, u64) + Send + Sync>;

/// Monotone epoch accounting shared by the handle and every snapshot.
#[derive(Debug, Default)]
struct EpochCounters {
    /// Number of the currently published epoch.
    current: AtomicU64,
    /// Snapshots ever created (including the initial epoch 0).
    created: AtomicU64,
    /// Snapshots fully released (last pin dropped).
    retired: AtomicU64,
    /// Update batches absorbed via [`EpochDb::apply_updates`].
    batches: AtomicU64,
}

impl EpochCounters {
    fn live(&self) -> u64 {
        let created = self.created.load(Ordering::Acquire);
        let retired = self.retired.load(Ordering::Acquire);
        created.saturating_sub(retired)
    }
}

/// Point-in-time view of the epoch accounting.  The conservation
/// invariant `created == retired + live` holds whenever the system is
/// quiescent (no publish or retire mid-flight).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochStats {
    /// Number of the currently published epoch (starts at 0).
    pub current: u64,
    /// Snapshots ever created, including the initial one.
    pub created: u64,
    /// Snapshots whose last pin has dropped.
    pub retired: u64,
    /// Snapshots still reachable: `created - retired`.
    pub live: u64,
    /// Update batches buffered into the next epoch but not yet published.
    pub pending_batches: u64,
}

/// One immutable published database state.  Dropping the last reference
/// retires the epoch (bumping the `epoch.retired` counter).
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    db: Database,
    counters: Arc<EpochCounters>,
}

impl EpochSnapshot {
    /// The epoch number this snapshot was published as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen database state.
    pub fn db(&self) -> &Database {
        &self.db
    }
}

impl Drop for EpochSnapshot {
    fn drop(&mut self) {
        self.counters.retired.fetch_add(1, Ordering::AcqRel);
        most_obs::add("epoch.retired", 1);
        most_obs::gauge_set("epoch.pinned", self.counters.live());
    }
}

/// A reader's hold on one published epoch.  Dereferences to the frozen
/// [`Database`]; cloning the pin is an `Arc` clone.  The epoch stays
/// alive (and its memory allocated) until every pin on it is dropped.
#[derive(Debug, Clone)]
pub struct EpochPin {
    snap: Arc<EpochSnapshot>,
}

impl EpochPin {
    /// The epoch number this pin holds.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch()
    }

    /// The pinned database state.
    pub fn db(&self) -> &Database {
        self.snap.db()
    }
}

impl Deref for EpochPin {
    type Target = Database;

    fn deref(&self) -> &Database {
        self.snap.db()
    }
}

/// Writer-side state: the copy-on-write next epoch, if any mutation has
/// been buffered since the last publish.
struct WriterState {
    next: Option<Database>,
    pending_batches: u64,
    observer: Option<PublishObserver>,
}

impl std::fmt::Debug for WriterState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriterState")
            .field("next", &self.next)
            .field("pending_batches", &self.pending_batches)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

/// A cloneable handle to an epoch-versioned MOST database.  See the
/// module docs for the lifecycle.
#[derive(Debug, Clone)]
pub struct EpochDb {
    inner: Arc<EpochInner>,
}

#[derive(Debug)]
struct EpochInner {
    /// The published epoch.  Readers hold this lock only long enough to
    /// clone the `Arc`; the writer only to swap the pointer.  Nobody
    /// evaluates or mutates under it.
    published: RwLock<Arc<EpochSnapshot>>,
    /// Serializes writers.  Held across clone-on-write, batch
    /// application (including continuous-query refresh) and publish —
    /// never blocking readers.
    writer: Mutex<WriterState>,
    counters: Arc<EpochCounters>,
}

impl EpochDb {
    /// Wraps a database, publishing its state as epoch 0.
    pub fn new(db: Database) -> Self {
        let counters = Arc::new(EpochCounters::default());
        counters.created.store(1, Ordering::Release);
        most_obs::gauge_set("epoch.current", 0);
        most_obs::gauge_set("epoch.pinned", 1);
        let snapshot = EpochSnapshot {
            epoch: 0,
            db,
            counters: Arc::clone(&counters),
        };
        EpochDb {
            inner: Arc::new(EpochInner {
                published: RwLock::new(Arc::new(snapshot)),
                writer: Mutex::new(WriterState {
                    next: None,
                    pending_batches: 0,
                    observer: None,
                }),
                counters,
            }),
        }
    }

    /// Pins the currently published epoch.  Cost: one `Arc` clone under a
    /// briefly-held read lock; the returned pin is then evaluated against
    /// with no lock at all, concurrently with writers.
    pub fn pin(&self) -> EpochPin {
        let guard = self
            .inner
            .published
            .read()
            .expect("epoch pointer lock poisoned");
        EpochPin {
            snap: Arc::clone(&guard),
        }
    }

    /// Number of the currently published epoch.
    pub fn current_epoch(&self) -> u64 {
        self.inner.counters.current.load(Ordering::Acquire)
    }

    /// Runs a mutating closure against the **unpublished** next epoch
    /// (materializing it from the published state on first use).  The
    /// mutation is invisible to readers until [`EpochDb::advance_epoch`]
    /// (EpochDb::advance_epoch) publishes it.
    pub fn write<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut w = self.lock_writer();
        f(self.next_epoch(&mut w))
    }

    fn lock_writer(&self) -> MutexGuard<'_, WriterState> {
        self.inner
            .writer
            .lock()
            .expect("epoch writer lock poisoned")
    }

    /// The unpublished next epoch, materialized on first use as a clone of
    /// the published one.  The clone is structural sharing
    /// ([`Database`]'s `Clone`): it copies pointers, and every later write
    /// copies only the object chunk or index node it touches.
    fn next_epoch<'w>(&self, w: &'w mut WriterState) -> &'w mut Database {
        w.next.get_or_insert_with(|| Database::clone(&self.pin()))
    }

    /// Publishes the buffered next epoch, if any, and returns the current
    /// epoch number.  A no-op (no new epoch, no clone) when nothing was
    /// buffered.  The previous epoch retires as soon as its last pin
    /// drops — immediately, if no reader holds one.
    pub fn advance_epoch(&self) -> u64 {
        self.publish(&mut self.lock_writer())
    }

    fn publish(&self, w: &mut WriterState) -> u64 {
        let Some(mut db) = w.next.take() else {
            return self.current_epoch();
        };
        let batches = std::mem::take(&mut w.pending_batches);
        // Index maintenance belongs to the epoch boundary: readers must
        // never pay (or trigger) a reconstruction.
        db.maintain_spatial_index();
        let epoch = self.current_epoch() + 1;
        if let Some(observer) = w.observer.as_ref() {
            observer(&db, epoch);
        }
        let counters = &self.inner.counters;
        counters.created.fetch_add(1, Ordering::AcqRel);
        counters.current.store(epoch, Ordering::Release);
        counters.batches.fetch_add(batches, Ordering::AcqRel);
        let snapshot = Arc::new(EpochSnapshot {
            epoch,
            db,
            counters: Arc::clone(counters),
        });
        let old = {
            let mut slot = self
                .inner
                .published
                .write()
                .expect("epoch pointer lock poisoned");
            std::mem::replace(&mut *slot, snapshot)
        };
        // Release the pointer lock before the old epoch drops.  That frees
        // only what no later epoch shares: the chunks and nodes its
        // successor rewrote.
        drop(old);
        // A high-water mark, not last-write-wins: shards publish in
        // parallel, and which of them writes last is a race.
        most_obs::gauge_max("epoch.current", epoch);
        most_obs::gauge_set("epoch.pinned", counters.live());
        most_obs::add("epoch.published", 1);
        most_obs::add("epoch.batches", batches);
        epoch
    }

    /// Buffered mutation followed by an immediate publish: the classic
    /// read-committed write path ([`SharedDatabase::write`] uses this).
    ///
    /// [`SharedDatabase::write`]: crate::shared::SharedDatabase::write
    pub fn commit<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut w = self.lock_writer();
        let r = f(self.next_epoch(&mut w));
        self.publish(&mut w);
        r
    }

    /// Applies one update batch and publishes exactly one epoch for it:
    /// one batch → one continuous-query refresh pass → one epoch.
    ///
    /// The publish happens **even when the batch errors**: the
    /// successfully-applied prefix (the documented
    /// [`Database::apply_updates`] semantics) lands in that same single
    /// epoch rather than silently riding along with a later batch.
    ///
    /// The writer lock is held once across materialize → apply → publish,
    /// so concurrent callers each get their own epoch.
    pub fn apply_updates(&self, ops: &[UpdateOp]) -> CoreResult<()> {
        let mut w = self.lock_writer();
        w.pending_batches += 1;
        let result = self.next_epoch(&mut w).apply_updates(ops);
        self.publish(&mut w);
        result
    }

    /// Buffers one update batch into the next epoch **without**
    /// publishing.  Several batches may accumulate; each keeps the
    /// prefix-on-error semantics of [`Database::apply_updates`], and all
    /// buffered batches become visible atomically at the next
    /// [`advance_epoch`](EpochDb::advance_epoch).
    pub fn buffer_updates(&self, ops: &[UpdateOp]) -> CoreResult<()> {
        let mut w = self.lock_writer();
        w.pending_batches += 1;
        self.next_epoch(&mut w).apply_updates(ops)
    }

    /// Installs (or replaces, or clears) the publish observer.  The
    /// callback fires inside every subsequent
    /// [`advance_epoch`](EpochDb::advance_epoch) that actually
    /// publishes, with the
    /// about-to-publish [`Database`] and the new epoch number; see
    /// [`PublishObserver`] for the exact guarantees.  Epochs published
    /// before installation are not replayed — observers that need the
    /// current state (e.g. a history recorder catching up on a
    /// pre-populated database) should [`pin`](EpochDb::pin) and consume
    /// it once before or after installing.
    pub fn set_publish_observer(&self, observer: Option<PublishObserver>) {
        self.lock_writer().observer = observer;
    }

    /// Epoch accounting snapshot; see [`EpochStats`].
    pub fn stats(&self) -> EpochStats {
        let counters = &self.inner.counters;
        let pending_batches = self.lock_writer().pending_batches;
        EpochStats {
            current: counters.current.load(Ordering::Acquire),
            created: counters.created.load(Ordering::Acquire),
            retired: counters.retired.load(Ordering::Acquire),
            live: counters.live(),
            pending_batches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use most_ftl::Query;
    use most_spatial::{Point, Polygon, Velocity};

    fn small_db() -> (Database, u64) {
        let mut db = Database::new(1_000);
        let car = db.insert_moving_object("cars", Point::origin(), Velocity::new(1.0, 0.0));
        db.add_region("P", Polygon::rectangle(10.0, -5.0, 30.0, 5.0));
        (db, car)
    }

    #[test]
    fn pins_are_immutable_while_writer_publishes() {
        let (db, car) = small_db();
        let edb = EpochDb::new(db);
        let before = edb.pin();
        assert_eq!(before.epoch(), 0);
        edb.commit(|d| {
            d.advance_clock(5);
            d.update_motion(car, Velocity::new(2.0, 0.0)).unwrap();
        });
        // The old pin still reads epoch 0's state, byte for byte.
        assert_eq!(before.db().now(), 0);
        assert_eq!(
            before.db().object(car).unwrap().velocity_at(0),
            Some(Velocity::new(1.0, 0.0))
        );
        // A fresh pin sees epoch 1.
        let after = edb.pin();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.db().now(), 5);
        assert_eq!(
            after.db().object(car).unwrap().velocity_at(5),
            Some(Velocity::new(2.0, 0.0))
        );
    }

    #[test]
    fn buffered_writes_invisible_until_advance() {
        let (db, _) = small_db();
        let edb = EpochDb::new(db);
        edb.write(|d| d.advance_clock(7));
        assert_eq!(edb.pin().db().now(), 0, "buffered epoch leaked to readers");
        assert_eq!(edb.current_epoch(), 0);
        let e = edb.advance_epoch();
        assert_eq!(e, 1);
        assert_eq!(edb.pin().db().now(), 7);
    }

    #[test]
    fn advance_without_buffered_writes_is_free() {
        let (db, _) = small_db();
        let edb = EpochDb::new(db);
        assert_eq!(edb.advance_epoch(), 0);
        assert_eq!(edb.advance_epoch(), 0);
        let s = edb.stats();
        assert_eq!((s.current, s.created, s.retired, s.live), (0, 1, 0, 1));
    }

    #[test]
    fn unpinned_epochs_retire_on_publish() {
        let (db, _) = small_db();
        let edb = EpochDb::new(db);
        for i in 1..=10u64 {
            edb.commit(|d| d.advance_clock(1));
            let s = edb.stats();
            assert_eq!(s.current, i);
            assert_eq!(s.created, i + 1);
            // No pins held: only the published epoch is alive.
            assert_eq!(s.live, 1, "old epochs not retiring: {s:?}");
            assert_eq!(
                s.created,
                s.retired + s.live,
                "conservation violated: {s:?}"
            );
        }
    }

    #[test]
    fn one_error_batch_publishes_exactly_one_epoch_with_prefix() {
        let (db, car) = small_db();
        let edb = EpochDb::new(db);
        let err = edb
            .apply_updates(&[
                UpdateOp::Motion {
                    id: car,
                    velocity: Velocity::new(3.0, 0.0),
                },
                UpdateOp::Motion {
                    id: 999,
                    velocity: Velocity::zero(),
                },
                UpdateOp::Motion {
                    id: car,
                    velocity: Velocity::new(9.0, 9.0),
                },
            ])
            .unwrap_err();
        assert!(matches!(err, crate::error::CoreError::UnknownObject(999)));
        let s = edb.stats();
        // One batch, one epoch — even on error the applied prefix
        // publishes immediately rather than merging into a later batch.
        assert_eq!(s.current, 1, "error batch must still publish its epoch");
        assert_eq!(s.pending_batches, 0);
        let pin = edb.pin();
        assert_eq!(pin.epoch(), 1);
        assert_eq!(
            pin.db().object(car).unwrap().velocity_at(0),
            Some(Velocity::new(3.0, 0.0))
        );
    }

    #[test]
    fn publish_observer_sees_every_epoch_once_in_order() {
        let (db, car) = small_db();
        let edb = EpochDb::new(db);
        let seen: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        edb.set_publish_observer(Some(Arc::new(move |db, epoch| {
            sink.lock().unwrap().push((epoch, db.now()));
        })));
        edb.commit(|d| d.advance_clock(3));
        // A publish with nothing buffered must not fire the observer.
        edb.advance_epoch();
        edb.apply_updates(&[UpdateOp::Motion {
            id: car,
            velocity: Velocity::new(2.0, 0.0),
        }])
        .unwrap();
        edb.commit(|d| d.advance_clock(4));
        assert_eq!(*seen.lock().unwrap(), vec![(1, 3), (2, 3), (3, 7)]);
        // Clearing the observer stops the stream.
        edb.set_publish_observer(None);
        edb.commit(|d| d.advance_clock(1));
        assert_eq!(seen.lock().unwrap().len(), 3);
    }

    #[test]
    fn continuous_refresh_runs_on_the_writer_copy() {
        let (db, car) = small_db();
        let edb = EpochDb::new(db);
        let q = Query::parse("RETRIEVE o WHERE Eventually within 100 INSIDE(o, P)").unwrap();
        let cq = edb.commit(|d| d.register_continuous(q)).unwrap();
        let reader = edb.pin();
        let evals_before = reader.db().continuous_evaluations();
        edb.apply_updates(&[UpdateOp::Motion {
            id: car,
            velocity: Velocity::new(5.0, 0.0),
        }])
        .unwrap();
        // The pinned epoch's counters are frozen: refresh happened on the
        // next epoch's copy, not under the reader.
        assert_eq!(reader.db().continuous_evaluations(), evals_before);
        let fresh = edb.pin();
        assert!(fresh.db().continuous_evaluations() + fresh.db().noop_refreshes() > evals_before);
        assert!(fresh.db().continuous_display(cq, fresh.db().now()).is_ok());
    }
}
