//! Partitioned scatter-gather engine: N independent per-shard [`EpochDb`]
//! instances behind one cross-shard consistency cut.
//!
//! The ROADMAP north-star is serving millions of objects, but a single
//! [`EpochDb`] serializes every mutation — and the continuous-query
//! refresh pass the mutation triggers — through one writer publishing one
//! epoch stream.  Following MOIST's partitioned-indexing blueprint
//! (PAPERS.md), [`ShardedDb`] splits the object universe across N shards:
//!
//! * **Routing.**  Each object lives on exactly one shard, chosen at
//!   insert time — by a hash of its id ([`ShardRouting::HashId`], the
//!   default) or by the spatial band of its insert position
//!   ([`ShardRouting::SpatialBands`], which keeps geographically-close
//!   objects together so region-local queries touch few shards).  The
//!   assignment is stable for the object's lifetime; updates route to the
//!   owning shard.
//! * **Parallel updates.**  [`ShardedDb::apply_updates`] partitions a
//!   batch by owning shard (preserving the batch's per-object order) and
//!   applies the sub-batches **in parallel**, one scoped thread per
//!   shard.  Each shard runs its own continuous-query refresh over its
//!   own objects and publishes its own epoch — the per-batch refresh
//!   cost, the dominant term, divides by the shard count.
//! * **The cut.**  Readers never see shard A post-batch and shard B
//!   pre-batch: every global mutation ends by publishing a *cut* — a
//!   vector of freshly-pinned shard epochs swapped in atomically.
//!   [`ShardedDb::pin`] hands out the whole vector ([`CutPin`]); the pins
//!   keep all member epochs alive for as long as the reader holds the
//!   cut, exactly like a single [`EpochPin`].
//! * **Scatter-gather queries.**  Instantaneous, persistent and
//!   continuous answers are evaluated per shard against the pinned cut
//!   and combined with [`combine_shard_answers`] — a deterministic,
//!   order-independent union (rows collect into a `BTreeMap`,
//!   `IntervalSet::union` per duplicate instantiation), so a sharded
//!   answer is byte-identical to the single-shard reference.
//!
//! **Shardability.**  Per-shard evaluation is sound exactly when every
//! instantiation's satisfaction depends only on shard-local state: the
//! query has one target variable, no other free variables, and no fixed
//! object ids (a fixed object may live on another shard).  Everything
//! else — multi-variable joins would need cross-shard pairs — is rejected
//! with [`CoreError::Unshardable`] rather than answered wrongly.
//!
//! Continuous queries are registered on **every** shard (each maintains
//! the materialized sub-answer for its own objects); the registration
//! sequence is identical on all shards, so the per-shard ids coincide and
//! the global CQ id is that common id.

use crate::continuous::combine_shard_answers;
use crate::database::{Database, UpdateOp};
use crate::epoch::{EpochDb, EpochPin, EpochStats};
use crate::error::{CoreError, CoreResult};
use most_dbms::value::Value;
use most_ftl::answer::Answer;
use most_ftl::Query;
use most_spatial::{Point, Polygon, Rect, Velocity};
use most_temporal::{Duration, Tick};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// How objects map to shards.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardRouting {
    /// SplitMix64 hash of the object id, modulo the shard count.  Load
    /// balances uniformly regardless of id assignment order.
    HashId,
    /// Vertical spatial bands over `[min_x, max_x)`: an object joins the
    /// shard owning the band of its **insert** position and stays there
    /// (routing must be stable under motion, so later movement does not
    /// re-home it).  Keeps geographically-close objects on the same shard.
    SpatialBands {
        /// Left edge of the banded space.
        min_x: f64,
        /// Right edge of the banded space.
        max_x: f64,
    },
}

impl ShardRouting {
    /// The shard for a fresh insert.  `None` routing decisions never
    /// happen: hash covers every id, bands clamp out-of-range positions
    /// to the edge bands.
    fn route_insert(&self, id: u64, position: Point, shards: usize) -> usize {
        match self {
            ShardRouting::HashId => {
                (most_testkit::rng::SplitMix64::new(id).next_u64() % shards as u64) as usize
            }
            ShardRouting::SpatialBands { min_x, max_x } => {
                let width = (max_x - min_x).max(f64::MIN_POSITIVE);
                let frac = ((position.x - min_x) / width).clamp(0.0, 1.0);
                ((frac * shards as f64) as usize).min(shards - 1)
            }
        }
    }
}

/// Serialized writer-side state: global id allocation and, for spatial
/// routing, the stable object→shard assignment.
#[derive(Debug)]
struct ShardWriter {
    next_id: u64,
    /// Populated only under [`ShardRouting::SpatialBands`] (hash routing
    /// is computable from the id alone).
    assignment: BTreeMap<u64, usize>,
    cut_seq: u64,
}

/// One published cross-shard cut: a consistent vector of shard epochs.
/// The pins keep every member epoch alive while any reader holds the cut.
#[derive(Debug)]
pub struct ShardCut {
    seq: u64,
    pins: Vec<EpochPin>,
}

impl ShardCut {
    /// Monotone cut sequence number (starts at 0).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The per-shard epoch numbers this cut pins.
    pub fn epochs(&self) -> Vec<u64> {
        self.pins.iter().map(|p| p.epoch()).collect()
    }
}

/// A reader's hold on one published cut.  Queries evaluate against the
/// pinned shard epochs with no lock held; cloning is an `Arc` clone.
#[derive(Debug, Clone)]
pub struct CutPin {
    cut: Arc<ShardCut>,
}

impl CutPin {
    /// The pinned cut's metadata.
    pub fn cut(&self) -> &ShardCut {
        &self.cut
    }

    /// Number of shards in the cut.
    pub fn shard_count(&self) -> usize {
        self.cut.pins.len()
    }

    /// The pinned database of one shard.
    pub fn shard(&self, i: usize) -> &Database {
        self.cut.pins[i].db()
    }

    /// The global clock (all shards tick in lockstep; asserted in debug).
    pub fn now(&self) -> Tick {
        let now = self.cut.pins[0].now();
        debug_assert!(
            self.cut.pins.iter().all(|p| p.now() == now),
            "shard clocks diverged within one cut"
        );
        now
    }

    /// Total objects across all shards.
    pub fn len(&self) -> usize {
        self.cut.pins.iter().map(|p| p.len()).sum()
    }

    /// Whether no shard holds any object.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard holding object `id`, or an error if no shard does.
    pub fn object_shard(&self, id: u64) -> CoreResult<&Database> {
        self.cut
            .pins
            .iter()
            .map(|p| p.db())
            .find(|db| db.object(id).is_ok())
            .ok_or(CoreError::UnknownObject(id))
    }

    /// Scatter-gather **instantaneous** query: evaluates shard-locally in
    /// parallel against the pinned cut and combines with
    /// [`combine_shard_answers`].
    pub fn instantaneous(&self, q: &Query) -> CoreResult<Answer> {
        ensure_shardable(q)?;
        most_obs::inc("shard.scatter_queries");
        let parts = self.scatter(|db| db.instantaneous_readonly(q))?;
        combine_shard_answers(&parts)
    }

    /// Scatter-gather **persistent** query anchored at `origin`.
    pub fn persistent_answer(&self, q: &Query, origin: Tick) -> CoreResult<Answer> {
        ensure_shardable(q)?;
        most_obs::inc("shard.scatter_queries");
        let parts = self.scatter(|db| db.persistent_answer(q, origin))?;
        combine_shard_answers(&parts)
    }

    /// The combined materialized answer of a continuous query (each shard
    /// maintains the sub-answer for its own objects).
    pub fn continuous_answer(&self, cq: u64) -> CoreResult<Answer> {
        let parts: Vec<Answer> = self
            .cut
            .pins
            .iter()
            .map(|p| p.continuous_answer(cq))
            .collect::<CoreResult<_>>()?;
        combine_shard_answers(&parts)
    }

    /// The display of continuous query `cq` at tick `at`: the sorted
    /// union of the per-shard displays (shards partition the objects, so
    /// rows are disjoint; sorting restores the global order).
    pub fn continuous_display(&self, cq: u64, at: Tick) -> CoreResult<Vec<Vec<Value>>> {
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for pin in &self.cut.pins {
            rows.extend(pin.continuous_display(cq, at)?);
        }
        rows.sort();
        rows.dedup();
        Ok(rows)
    }

    /// Runs `f` against every pinned shard in parallel (scoped threads,
    /// one per shard), returning results in shard order.  Evaluation
    /// inside a shard is serial: the cross-shard threads *are* the
    /// parallelism level.
    fn scatter<R: Send>(
        &self,
        f: impl Fn(&Database) -> CoreResult<R> + Sync,
    ) -> CoreResult<Vec<R>> {
        if self.cut.pins.len() == 1 {
            return Ok(vec![f(self.cut.pins[0].db())?]);
        }
        let results: Vec<CoreResult<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .cut
                .pins
                .iter()
                .map(|pin| scope.spawn(|| f(pin.db())))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(payload) => Err(CoreError::EvalPanic(crate::refresh::panic_message(
                        &payload,
                    ))),
                })
                .collect()
        });
        results.into_iter().collect()
    }
}

/// Builds a sharded world **before** wrapping shards in epoch machinery:
/// bulk inserts go straight into raw per-shard [`Database`]s (no epoch
/// — a chunk copy, a refresh pass and a cut — published per insert), and
/// [`finish`](ShardedDbBuilder::finish) publishes every
/// shard's epoch 0 plus the initial cut.
#[derive(Debug)]
pub struct ShardedDbBuilder {
    dbs: Vec<Database>,
    routing: ShardRouting,
    next_id: u64,
    assignment: BTreeMap<u64, usize>,
}

impl ShardedDbBuilder {
    /// `shards` empty databases with the given query expiration.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize, expiration: Duration) -> Self {
        assert!(shards > 0, "a sharded database needs at least one shard");
        ShardedDbBuilder {
            dbs: (0..shards).map(|_| Database::new(expiration)).collect(),
            routing: ShardRouting::HashId,
            next_id: 1,
            assignment: BTreeMap::new(),
        }
    }

    /// Selects the routing policy (default: [`ShardRouting::HashId`]).
    pub fn with_routing(mut self, routing: ShardRouting) -> Self {
        self.routing = routing;
        self
    }

    /// Declares a named region on **every** shard (regions are reference
    /// data, not objects; each shard needs them to evaluate).
    pub fn add_region(&mut self, name: &str, poly: Polygon) {
        for db in &mut self.dbs {
            db.add_region(name, poly.clone());
        }
    }

    /// Enables the spatial index on every shard over the same space.
    pub fn enable_spatial_index(&mut self, space: Rect) {
        for db in &mut self.dbs {
            db.enable_spatial_index(space);
        }
    }

    /// Inserts a moving object, routed by the builder's policy, under a
    /// globally-unique id.  Panics on non-finite motion, like
    /// [`Database::insert_moving_object`].
    pub fn insert_moving_object(
        &mut self,
        class: &str,
        position: Point,
        velocity: Velocity,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let shard = self.routing.route_insert(id, position, self.dbs.len());
        self.dbs[shard]
            .insert_moving_object_with_id(id, class, position, velocity)
            .unwrap_or_else(|e| panic!("{e}"));
        if matches!(self.routing, ShardRouting::SpatialBands { .. }) {
            self.assignment.insert(id, shard);
        }
        id
    }

    /// Sets a static attribute on the owning shard.
    pub fn set_static(&mut self, id: u64, attr: &str, value: Value) -> CoreResult<()> {
        let shard = self.shard_of(id)?;
        self.dbs[shard].set_static(id, attr, value)
    }

    fn shard_of(&self, id: u64) -> CoreResult<usize> {
        let shard = match &self.routing {
            ShardRouting::HashId => self
                .routing
                .route_insert(id, Point::origin(), self.dbs.len()),
            ShardRouting::SpatialBands { .. } => *self
                .assignment
                .get(&id)
                .ok_or(CoreError::UnknownObject(id))?,
        };
        Ok(shard)
    }

    /// Publishes every shard as epoch 0 and the initial cut (sequence 0).
    pub fn finish(mut self) -> ShardedDb {
        for db in &mut self.dbs {
            db.maintain_spatial_index();
        }
        let shards: Vec<EpochDb> = self.dbs.into_iter().map(EpochDb::new).collect();
        let pins = shards.iter().map(|s| s.pin()).collect();
        most_obs::gauge_set("shard.count", shards.len() as u64);
        ShardedDb {
            shards,
            routing: self.routing,
            cut: RwLock::new(Arc::new(ShardCut { seq: 0, pins })),
            writer: Mutex::new(ShardWriter {
                next_id: self.next_id,
                assignment: self.assignment,
                cut_seq: 0,
            }),
        }
    }
}

/// A partitioned MOST database: N per-shard [`EpochDb`]s, one published
/// cross-shard cut.  See the module docs for the architecture.  Cloning
/// the handle shares all state.
#[derive(Debug)]
pub struct ShardedDb {
    shards: Vec<EpochDb>,
    routing: ShardRouting,
    cut: RwLock<Arc<ShardCut>>,
    writer: Mutex<ShardWriter>,
}

/// Recovers a lock from a poisoned state: every structure guarded here
/// (cut pointer, writer bookkeeping) is a plain value left consistent at
/// each await-free step, so a panic mid-critical-section (e.g. an
/// injected evaluation fault) must not wedge the engine.
fn lock_clean<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ShardedDb {
    /// An empty sharded database (bulk construction goes through
    /// [`ShardedDbBuilder`]).
    pub fn new(shards: usize, expiration: Duration) -> Self {
        ShardedDbBuilder::new(shards, expiration).finish()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Pins the currently published cut.  Cost: one `Arc` clone under a
    /// briefly-held read lock, exactly like [`EpochDb::pin`].
    pub fn pin(&self) -> CutPin {
        let guard = self.cut.read().unwrap_or_else(PoisonError::into_inner);
        CutPin {
            cut: Arc::clone(&guard),
        }
    }

    /// Per-shard epoch accounting.
    pub fn shard_stats(&self) -> Vec<EpochStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Installs the same publish observer on **every** shard's epoch
    /// engine (see [`EpochDb::set_publish_observer`]).  Shards publish in
    /// parallel, so the observer fires concurrently from different shard
    /// threads and must synchronize any shared state itself; per shard
    /// the per-epoch ordering guarantee still holds.
    pub fn set_publish_observer(&self, observer: Option<crate::epoch::PublishObserver>) {
        for shard in &self.shards {
            shard.set_publish_observer(observer.clone());
        }
    }

    /// Applies one update batch: ops partition by owning shard (batch
    /// order preserved within each shard), sub-batches apply **in
    /// parallel** (one epoch per touched shard, including that shard's
    /// continuous-query refresh), and one new cut publishes the whole
    /// batch atomically.
    ///
    /// On error the sharded semantics are *per-shard prefix*: each shard
    /// applies its sub-batch up to its first failing op (the documented
    /// [`Database::apply_updates`] behavior), other shards are unaffected,
    /// and the first error in shard order is returned.  The cut publishes
    /// either way, exactly like [`EpochDb::apply_updates`].
    pub fn apply_updates(&self, ops: &[UpdateOp]) -> CoreResult<()> {
        let writer = lock_clean(&self.writer);
        let mut parts: Vec<Vec<UpdateOp>> = vec![Vec::new(); self.shards.len()];
        for op in ops {
            parts[self.shard_of_locked(&writer, op_id(op))].push(op.clone());
        }
        let result = self.parallel_shards(|i, shard| {
            if parts[i].is_empty() {
                Ok(())
            } else {
                shard.apply_updates(&parts[i])
            }
        });
        most_obs::inc("shard.batches");
        self.publish_cut(writer);
        result
    }

    /// Advances the global clock on every shard and publishes a cut.
    pub fn advance_clock(&self, ticks: Duration) {
        let writer = lock_clean(&self.writer);
        let _ = self.parallel_shards(|_, shard| {
            shard.commit(|db| db.advance_clock(ticks));
            Ok(())
        });
        self.publish_cut(writer);
    }

    /// Registers a continuous query on **every** shard and publishes a
    /// cut.  The per-shard registries assign ids in lockstep (identical
    /// registration sequences), so the common id is returned as the
    /// global CQ id.  Rejects unshardable queries up front.
    pub fn register_continuous(&self, q: &Query) -> CoreResult<u64> {
        ensure_shardable(q)?;
        let writer = lock_clean(&self.writer);
        let ids = self.parallel_shards_collect(|_, shard| {
            shard.commit(|db| db.register_continuous(q.clone()))
        });
        self.publish_cut(writer);
        let ids: Vec<u64> = ids.into_iter().collect::<CoreResult<_>>()?;
        let id = ids[0];
        assert!(
            ids.iter().all(|&i| i == id),
            "per-shard CQ registries diverged: {ids:?}"
        );
        Ok(id)
    }

    /// Cancels a continuous query on every shard and publishes a cut.
    pub fn cancel_continuous(&self, cq: u64) -> CoreResult<()> {
        let writer = lock_clean(&self.writer);
        let results =
            self.parallel_shards_collect(|_, shard| shard.commit(|db| db.cancel_continuous(cq)));
        self.publish_cut(writer);
        results.into_iter().collect::<CoreResult<Vec<()>>>()?;
        Ok(())
    }

    /// Inserts a moving object at runtime, routed by policy, under a
    /// globally-unique id; publishes a cut.  Panics on non-finite motion,
    /// like [`Database::insert_moving_object`].
    pub fn insert_moving_object(&self, class: &str, position: Point, velocity: Velocity) -> u64 {
        let mut writer = lock_clean(&self.writer);
        let id = writer.next_id;
        writer.next_id += 1;
        let shard = self.routing.route_insert(id, position, self.shards.len());
        if matches!(self.routing, ShardRouting::SpatialBands { .. }) {
            writer.assignment.insert(id, shard);
        }
        self.shards[shard]
            .commit(|db| db.insert_moving_object_with_id(id, class, position, velocity))
            .unwrap_or_else(|e| panic!("{e}"));
        self.publish_cut(writer);
        id
    }

    /// Declares a region on every shard; publishes a cut.
    pub fn add_region(&self, name: &str, poly: Polygon) {
        let writer = lock_clean(&self.writer);
        let _ = self.parallel_shards(|_, shard| {
            shard.commit(|db| db.add_region(name, poly.clone()));
            Ok(())
        });
        self.publish_cut(writer);
    }

    /// The shard index an update for object `id` applies on (routing
    /// lookup only; the object may not exist).  An id no band was ever
    /// assigned exists on no shard, so whichever shard receives the op
    /// reports [`CoreError::UnknownObject`] under the per-shard-prefix
    /// semantics of [`ShardedDb::apply_updates`] — exactly what hash
    /// routing does with an unknown id.  Shard 0 is the arbitrary pick.
    fn shard_of_locked(&self, writer: &ShardWriter, id: u64) -> usize {
        match &self.routing {
            ShardRouting::HashId => {
                self.routing
                    .route_insert(id, Point::origin(), self.shards.len())
            }
            ShardRouting::SpatialBands { .. } => writer.assignment.get(&id).copied().unwrap_or(0),
        }
    }

    /// Re-pins every shard and atomically publishes the vector as the
    /// next cut.  Callers hold the writer lock (passed by value so the
    /// sequence bump and the swap happen under it).
    fn publish_cut(&self, mut writer: MutexGuard<'_, ShardWriter>) {
        writer.cut_seq += 1;
        let cut = Arc::new(ShardCut {
            seq: writer.cut_seq,
            pins: self.shards.iter().map(|s| s.pin()).collect(),
        });
        {
            let mut slot = self.cut.write().unwrap_or_else(PoisonError::into_inner);
            *slot = cut;
        }
        most_obs::inc("shard.cut_publishes");
    }

    /// Runs `f` over every shard in parallel, returning the first error
    /// in shard order.
    fn parallel_shards(
        &self,
        f: impl Fn(usize, &EpochDb) -> CoreResult<()> + Sync,
    ) -> CoreResult<()> {
        self.parallel_shards_collect(f)
            .into_iter()
            .collect::<CoreResult<Vec<()>>>()?;
        Ok(())
    }

    /// Runs `f` over every shard in parallel, collecting per-shard
    /// results in shard order.  A panicking shard closure becomes an
    /// [`CoreError::EvalPanic`] for that shard instead of unwinding into
    /// the caller (panic-safety invariant of this PR).
    fn parallel_shards_collect<R: Send>(
        &self,
        f: impl Fn(usize, &EpochDb) -> CoreResult<R> + Sync,
    ) -> Vec<CoreResult<R>> {
        if self.shards.len() == 1 {
            return vec![f(0, &self.shards[0])];
        }
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .enumerate()
                .map(|(i, shard)| scope.spawn(move || f(i, shard)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(payload) => Err(CoreError::EvalPanic(crate::refresh::panic_message(
                        &payload,
                    ))),
                })
                .collect()
        })
    }
}

/// The id an update op addresses.
fn op_id(op: &UpdateOp) -> u64 {
    match op {
        UpdateOp::Motion { id, .. }
        | UpdateOp::Position { id, .. }
        | UpdateOp::Static { id, .. }
        | UpdateOp::DynamicScalar { id, .. } => *id,
    }
}

/// Checks that per-shard evaluation + scatter-gather answers `q` exactly
/// (see the module docs): one target variable, no other free variables,
/// no fixed object ids.  Public so serving layers can reject unshardable
/// requests before scattering.
pub fn ensure_shardable(q: &Query) -> CoreResult<()> {
    if q.targets.len() != 1 {
        return Err(CoreError::Unshardable(format!(
            "{} target variables (cross-shard joins are not supported; shard-local \
             evaluation needs exactly one)",
            q.targets.len()
        )));
    }
    let free = q.formula.free_vars();
    if let Some(v) = free.iter().find(|v| !q.targets.contains(v)) {
        return Err(CoreError::Unshardable(format!(
            "free variable `{v}` is not the target"
        )));
    }
    if q.formula.mentions_object_constant() {
        return Err(CoreError::Unshardable(
            "formula references a fixed object id, which may live on another shard".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use most_testkit::rng::Rng;
    use most_testkit::ser::to_json_string;

    const WORLD: u64 = 24;

    /// Builds the same world twice: a single-shard reference `Database`
    /// and a `ShardedDb` with `shards` shards, holding identical object
    /// ids, positions, velocities and attributes.
    fn twin_worlds(shards: usize, routing: ShardRouting) -> (Database, ShardedDb) {
        let mut reference = Database::new(400);
        reference.add_region("P", Polygon::rectangle(40.0, -25.0, 120.0, 25.0));
        let mut builder = ShardedDbBuilder::new(shards, 400).with_routing(routing);
        builder.add_region("P", Polygon::rectangle(40.0, -25.0, 120.0, 25.0));
        let mut rng = Rng::seed_from_u64(0x5AAD);
        for i in 0..WORLD {
            let pos = Point::new(rng.random_range(0.0..200.0), rng.random_range(-20.0..20.0));
            let vel = Velocity::new(rng.random_range(-3.0..3.0), rng.random_range(-1.0..1.0));
            let price = rng.random_range(10.0..200.0);
            let id = reference.insert_moving_object("cars", pos, vel);
            assert_eq!(id, i + 1);
            reference
                .set_static(id, "PRICE", Value::from(price))
                .unwrap();
            let sid = builder.insert_moving_object("cars", pos, vel);
            assert_eq!(sid, id, "sharded ids must mirror the reference");
            builder
                .set_static(sid, "PRICE", Value::from(price))
                .unwrap();
        }
        (reference, builder.finish())
    }

    fn observe(reference: &Database, sharded: &ShardedDb, cq: u64) {
        let pin = sharded.pin();
        assert_eq!(pin.now(), reference.now());
        assert_eq!(pin.len(), reference.len());
        let inst = Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
        assert_eq!(
            to_json_string(&pin.instantaneous(&inst).unwrap()).unwrap(),
            to_json_string(&reference.instantaneous_readonly(&inst).unwrap()).unwrap(),
            "instantaneous answers must be byte-identical"
        );
        let pers = Query::parse("RETRIEVE o WHERE o.PRICE <= 120").unwrap();
        assert_eq!(
            to_json_string(&pin.persistent_answer(&pers, 0).unwrap()).unwrap(),
            to_json_string(&reference.persistent_answer(&pers, 0).unwrap()).unwrap(),
            "persistent answers must be byte-identical"
        );
        assert_eq!(
            to_json_string(&pin.continuous_answer(cq).unwrap()).unwrap(),
            to_json_string(&reference.continuous_answer(cq).unwrap()).unwrap(),
            "materialized continuous answers must be byte-identical"
        );
        assert_eq!(
            pin.continuous_display(cq, pin.now()).unwrap(),
            reference.continuous_display(cq, reference.now()).unwrap(),
            "continuous displays must be identical"
        );
    }

    #[test]
    fn sharded_answers_match_single_shard_reference() {
        let cq_src = "RETRIEVE o WHERE Eventually within 300 INSIDE(o, P)";
        for shards in [1, 2, 4] {
            for routing in [
                ShardRouting::HashId,
                ShardRouting::SpatialBands {
                    min_x: 0.0,
                    max_x: 200.0,
                },
            ] {
                let (mut reference, sharded) = twin_worlds(shards, routing.clone());
                let cq_r = reference
                    .register_continuous(Query::parse(cq_src).unwrap())
                    .unwrap();
                let cq_s = sharded
                    .register_continuous(&Query::parse(cq_src).unwrap())
                    .unwrap();
                assert_eq!(cq_r, cq_s, "global CQ ids must mirror the reference");
                observe(&reference, &sharded, cq_s);
                let mut rng = Rng::seed_from_u64(0xD1CE ^ shards as u64);
                for _step in 0..6 {
                    let batch: Vec<UpdateOp> = (0..8)
                        .map(|_| {
                            let id = rng.below(WORLD) + 1;
                            if rng.random_bool(0.75) {
                                UpdateOp::Motion {
                                    id,
                                    velocity: Velocity::new(
                                        rng.random_range(-4.0..4.0),
                                        rng.random_range(-1.0..1.0),
                                    ),
                                }
                            } else {
                                UpdateOp::Static {
                                    id,
                                    attr: "PRICE".into(),
                                    value: Value::from(rng.random_range(10.0..200.0)),
                                }
                            }
                        })
                        .collect();
                    reference.apply_updates(&batch).unwrap();
                    sharded.apply_updates(&batch).unwrap();
                    observe(&reference, &sharded, cq_s);
                    reference.advance_clock(3);
                    sharded.advance_clock(3);
                    observe(&reference, &sharded, cq_s);
                }
            }
        }
    }

    #[test]
    fn cut_pins_are_consistent_under_writes() {
        let (_, sharded) = twin_worlds(4, ShardRouting::HashId);
        let before = sharded.pin();
        let seq0 = before.cut().seq();
        let now0 = before.now();
        sharded.advance_clock(5);
        sharded
            .apply_updates(&[UpdateOp::Motion {
                id: 1,
                velocity: Velocity::new(9.0, 0.0),
            }])
            .unwrap();
        // The old cut still reads the old state on every shard.
        assert_eq!(before.now(), now0);
        assert_eq!(before.cut().seq(), seq0);
        // A fresh cut sees all shards advanced together.
        let after = sharded.pin();
        assert_eq!(after.now(), now0 + 5);
        assert!(after.cut().seq() > seq0);
        assert_eq!(after.cut().epochs().len(), 4);
    }

    #[test]
    fn unshardable_queries_are_rejected() {
        let (_, sharded) = twin_worlds(2, ShardRouting::HashId);
        let pin = sharded.pin();
        // Two target variables: a cross-shard join.
        let join = Query::parse("RETRIEVE o, p WHERE INSIDE(o, P) AND INSIDE(p, P)").unwrap();
        assert!(matches!(
            pin.instantaneous(&join),
            Err(CoreError::Unshardable(_))
        ));
        assert!(matches!(
            sharded.register_continuous(&join),
            Err(CoreError::Unshardable(_))
        ));
        // Single-variable queries pass the gate.
        let ok = Query::parse("RETRIEVE o WHERE OUTSIDE(o, P)").unwrap();
        assert!(pin.instantaneous(&ok).is_ok());
    }

    #[test]
    fn updates_for_unknown_objects_error_without_wedging() {
        for routing in [
            ShardRouting::HashId,
            ShardRouting::SpatialBands {
                min_x: 0.0,
                max_x: 200.0,
            },
        ] {
            let (_, sharded) = twin_worlds(2, routing.clone());
            let seq0 = sharded.pin().cut().seq();
            // Per-shard prefix: the valid op ahead of the bad one applies,
            // and the cut publishes either way.
            let err = sharded
                .apply_updates(&[
                    UpdateOp::Motion {
                        id: 1,
                        velocity: Velocity::new(7.0, 7.0),
                    },
                    UpdateOp::Motion {
                        id: 9_999,
                        velocity: Velocity::zero(),
                    },
                ])
                .unwrap_err();
            assert!(
                matches!(err, CoreError::UnknownObject(9_999)),
                "{routing:?}: {err:?}"
            );
            let pin = sharded.pin();
            assert_eq!(
                pin.cut().seq(),
                seq0 + 1,
                "{routing:?}: the cut must publish"
            );
            let db = pin.object_shard(1).unwrap();
            assert_eq!(
                db.object(1).unwrap().velocity_at(db.now()),
                Some(Velocity::new(7.0, 7.0)),
                "{routing:?}: the prefix ahead of the unknown id must apply"
            );
            // The engine still serves and mutates.
            sharded
                .apply_updates(&[UpdateOp::Motion {
                    id: 1,
                    velocity: Velocity::new(1.0, 1.0),
                }])
                .unwrap();
            assert!(sharded.pin().object_shard(1).is_ok());
        }
    }

    #[test]
    fn panicking_refresh_on_one_shard_fails_only_that_query() {
        let (_, sharded) = twin_worlds(2, ShardRouting::HashId);
        let cq = sharded
            .register_continuous(&Query::parse("RETRIEVE o WHERE o.PRICE <= 150").unwrap())
            .unwrap();
        // Arm the fault on every shard (the object distribution decides
        // which shard actually panics).
        for shard in &sharded.shards {
            shard.commit(|db| db.set_eval_fault(Some("PRICE".into())));
        }
        let err = sharded
            .apply_updates(&[UpdateOp::Static {
                id: 1,
                attr: "PRICE".into(),
                value: Value::from(5.0),
            }])
            .unwrap_err();
        assert!(matches!(err, CoreError::EvalPanic(_)));
        // The engine survives: disarm, mutate, query.
        for shard in &sharded.shards {
            shard.commit(|db| db.set_eval_fault(None));
        }
        sharded
            .apply_updates(&[UpdateOp::Static {
                id: 1,
                attr: "PRICE".into(),
                value: Value::from(7.0),
            }])
            .unwrap();
        assert!(sharded.pin().continuous_answer(cq).is_ok());
    }

    #[test]
    fn runtime_insert_routes_and_serves() {
        for routing in [
            ShardRouting::HashId,
            ShardRouting::SpatialBands {
                min_x: 0.0,
                max_x: 200.0,
            },
        ] {
            let (_, sharded) = twin_worlds(3, routing);
            let id = sharded.insert_moving_object(
                "cars",
                Point::new(150.0, 0.0),
                Velocity::new(1.0, 0.0),
            );
            assert_eq!(id, WORLD + 1);
            let pin = sharded.pin();
            assert_eq!(pin.len() as u64, WORLD + 1);
            assert!(pin.object_shard(id).is_ok());
            // Updates reach the owning shard.
            sharded
                .apply_updates(&[UpdateOp::Motion {
                    id,
                    velocity: Velocity::new(0.0, 2.0),
                }])
                .unwrap();
            let pin = sharded.pin();
            let db = pin.object_shard(id).unwrap();
            let now = db.now();
            assert_eq!(
                db.object(id).unwrap().velocity_at(now),
                Some(Velocity::new(0.0, 2.0))
            );
        }
    }

    #[test]
    fn spatial_bands_route_by_position() {
        let routing = ShardRouting::SpatialBands {
            min_x: 0.0,
            max_x: 100.0,
        };
        assert_eq!(routing.route_insert(1, Point::new(-50.0, 0.0), 4), 0);
        assert_eq!(routing.route_insert(1, Point::new(10.0, 0.0), 4), 0);
        assert_eq!(routing.route_insert(1, Point::new(30.0, 0.0), 4), 1);
        assert_eq!(routing.route_insert(1, Point::new(60.0, 0.0), 4), 2);
        assert_eq!(routing.route_insert(1, Point::new(99.0, 0.0), 4), 3);
        assert_eq!(routing.route_insert(1, Point::new(500.0, 0.0), 4), 3);
    }
}
