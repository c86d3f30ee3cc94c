//! The MOST database: object classes, moving objects, regions, the tick
//! clock, and the three query types.

use crate::class::{AttrKind, ClassDef};
use crate::continuous::{ContinuousRegistry, CqEntry};
use crate::deps::{DepSet, UpdateKind};
use crate::dynamic::AttrFunction;
use crate::error::{CoreError, CoreResult};
use crate::object::MovingObject;
use crate::snapshot::{ContextMode, DbContext};
use crate::trigger::{TriggerEvent, TriggerRegistry};
use most_dbms::value::Value;
use most_ftl::answer::Answer;
use most_ftl::{evaluate_query, evaluate_query_over, Query};
use most_index::{CowMap, MovingObjectIndex2D};
use most_spatial::{Point, Polygon, Rect, Velocity};
use most_temporal::{Duration, Horizon, Tick};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A position/velocity report from a sensor (e.g. GPS), applied as one
/// explicit update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionUpdate {
    /// New position.
    pub position: Point,
    /// New motion vector.
    pub velocity: Velocity,
}

/// One explicit update, for batched application via
/// [`Database::apply_updates`]: a whole batch shares a single refresh pass
/// (and, through [`crate::shared::SharedDatabase::apply_updates`], a single
/// lock acquisition).
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Change an object's motion vector (position continues).
    Motion {
        /// Target object.
        id: u64,
        /// New motion vector.
        velocity: Velocity,
    },
    /// Full sensor report: position and motion vector.
    Position {
        /// Target object.
        id: u64,
        /// The report.
        update: MotionUpdate,
    },
    /// Set a static attribute.
    Static {
        /// Target object.
        id: u64,
        /// Attribute name.
        attr: String,
        /// New value.
        value: Value,
    },
    /// Set / update a scalar dynamic attribute's sub-attributes.
    DynamicScalar {
        /// Target object.
        id: u64,
        /// Attribute name.
        attr: String,
        /// New `value` sub-attribute (kept when `None`).
        value: Option<f64>,
        /// New `function` sub-attribute (kept when `None`).
        function: Option<AttrFunction>,
    },
}

/// Cumulative database statistics (cost accounting for the experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Explicit updates applied (motion + attribute).
    pub updates: u64,
    /// Instantaneous query evaluations.
    pub instantaneous_queries: u64,
}

/// The MOST database.
///
/// Serializable for snapshot/restore (`mostql` SAVE/LOAD); the optional
/// spatial index is skipped and must be re-enabled after loading.
///
/// ```
/// use most_core::Database;
/// use most_ftl::Query;
/// use most_spatial::{Point, Polygon, Velocity};
///
/// let mut db = Database::new(1_000);
/// let car = db.insert_moving_object("cars", Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
/// db.add_region("P", Polygon::rectangle(90.0, -10.0, 110.0, 10.0));
///
/// // Continuous query: evaluated once, displayed from the materialized
/// // Answer(CQ) as time passes.
/// let cq = db.register_continuous(Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap()).unwrap();
/// assert!(db.continuous_display(cq, 0).unwrap().is_empty());
/// assert_eq!(
///     db.continuous_display(cq, 100).unwrap(),
///     vec![vec![most_dbms::value::Value::Id(car)]],
/// );
/// assert_eq!(db.continuous_evaluations(), 1);
/// ```
///
/// `Clone` is **structural sharing**, not a deep copy: the clone points at
/// the same classes, regions, triggers, materialized answers, object
/// chunks and index nodes, and each side copies only what it later
/// writes (`Arc::make_mut` at every write site).  The epoch engine leans
/// on this: one clone per published epoch costs the batch, not the
/// population.
#[derive(Debug, Clone)]
pub struct Database {
    // Persisted state: exactly what `ToJson` writes and `fingerprint`
    // hashes.
    expiration: Duration,
    clock: Tick,
    next_id: u64,
    classes: Arc<BTreeMap<String, ClassDef>>,
    objects: CowMap<MovingObject>,
    regions: Arc<BTreeMap<String, Polygon>>,
    pub(crate) continuous: ContinuousRegistry,
    triggers: Arc<TriggerRegistry>,
    /// Cost counters.
    pub stats: DbStats,
    // The Section 4 position index, when enabled: derived acceleration,
    // rebuilt from the persisted state on demand, never serialized, never
    // allowed to change an answer.
    spatial_index: Option<MovingObjectIndex2D>,
    // Fault injection for panic-safety tests (not persisted): when set,
    // evaluating any query that reads this attribute panics at evaluation
    // entry.  See `set_eval_fault`.
    eval_fault: Option<String>,
}

most_testkit::json_struct!(DbStats {
    updates,
    instantaneous_queries
});
most_testkit::json_struct!(MotionUpdate { position, velocity });
most_testkit::json_enum!(UpdateOp {
    Motion { id, velocity },
    Position { id, update },
    Static { id, attr, value },
    DynamicScalar { id, attr, value, function },
});

impl most_testkit::ser::ToJson for Database {
    fn to_json(&self) -> most_testkit::ser::Json {
        // The spatial index is a derived acceleration structure; it is
        // rebuilt on demand after loading rather than serialized.
        most_testkit::ser::Json::Obj(vec![
            ("expiration".to_owned(), self.expiration.to_json()),
            ("clock".to_owned(), self.clock.to_json()),
            ("next_id".to_owned(), self.next_id.to_json()),
            ("classes".to_owned(), self.classes.to_json()),
            ("objects".to_owned(), self.objects.to_json()),
            ("regions".to_owned(), self.regions.to_json()),
            ("continuous".to_owned(), self.continuous.to_json()),
            ("triggers".to_owned(), self.triggers.to_json()),
            ("stats".to_owned(), self.stats.to_json()),
        ])
    }
}

impl most_testkit::ser::FromJson for Database {
    fn from_json(j: &most_testkit::ser::Json) -> Result<Self, most_testkit::ser::JsonError> {
        Ok(Database {
            expiration: most_testkit::ser::FromJson::from_json(j.field("expiration")?)?,
            clock: most_testkit::ser::FromJson::from_json(j.field("clock")?)?,
            next_id: most_testkit::ser::FromJson::from_json(j.field("next_id")?)?,
            classes: most_testkit::ser::FromJson::from_json(j.field("classes")?)?,
            objects: CowMap::from_entries(
                CHUNKS_COPIED,
                BTreeMap::<u64, MovingObject>::from_json(j.field("objects")?)?,
            ),
            regions: most_testkit::ser::FromJson::from_json(j.field("regions")?)?,
            continuous: most_testkit::ser::FromJson::from_json(j.field("continuous")?)?,
            triggers: most_testkit::ser::FromJson::from_json(j.field("triggers")?)?,
            stats: most_testkit::ser::FromJson::from_json(j.field("stats")?)?,
            spatial_index: None,
            eval_fault: None,
        })
    }
}

/// Counter of object chunks copied because a published epoch still shares
/// them — the per-batch cost of copy-on-write, by count.
const CHUNKS_COPIED: &str = "epoch.chunks_copied";

impl Database {
    /// Creates a database whose queries expire `expiration` ticks after
    /// entry (the finite stand-in for the infinite future history; see
    /// Section 2.3).  The clock starts at tick 0.
    pub fn new(expiration: Duration) -> Self {
        Database {
            expiration,
            clock: 0,
            next_id: 1,
            classes: Arc::default(),
            objects: CowMap::new(CHUNKS_COPIED),
            regions: Arc::default(),
            continuous: ContinuousRegistry::new(),
            triggers: Arc::default(),
            stats: DbStats::default(),
            spatial_index: None,
            eval_fault: None,
        }
    }

    // ------------------------------------------------------------------
    // Clock
    // ------------------------------------------------------------------

    /// The current clock tick (the paper's `time` object).
    pub fn now(&self) -> Tick {
        self.clock
    }

    /// Query expiration (horizon length).
    pub fn expiration(&self) -> Duration {
        self.expiration
    }

    /// Advances the clock.  Answers change with time *without* updates —
    /// the whole point of the MOST model — so the only re-evaluation is a
    /// continuous query whose materialized window the clock has outrun
    /// (`refresh.horizon_renewals`).
    pub fn advance_clock(&mut self, ticks: Duration) {
        self.clock += ticks;
        self.renew_horizons();
    }

    // ------------------------------------------------------------------
    // Schema & objects
    // ------------------------------------------------------------------

    /// Declares (or replaces) an object class.
    pub fn define_class(&mut self, class: ClassDef) {
        Arc::make_mut(&mut self.classes).insert(class.name.clone(), class);
    }

    /// Inserts a spatial object of `class` at the current tick.  An
    /// undeclared class is auto-created as an open spatial class.
    ///
    /// # Panics
    /// Panics on motion [`Database::insert_moving_object_with_id`] rejects
    /// as [`CoreError::NonFiniteMotion`]: the caller guarantees a finite
    /// position and velocity that stay finite for 2 · expiration ticks.
    pub fn insert_moving_object(
        &mut self,
        class: impl Into<String>,
        position: Point,
        velocity: Velocity,
    ) -> u64 {
        let id = self.next_id;
        self.insert_moving_object_with_id(id, class, position, velocity)
            .unwrap_or_else(|e| panic!("{e}"));
        id
    }

    /// The id the next [`Database::insert_moving_object`] assigns.
    pub fn next_object_id(&self) -> u64 {
        self.next_id
    }

    /// Inserts a spatial object under an explicit, caller-chosen id.  The
    /// sharded engine routes objects to per-shard databases by a global id
    /// — shards must not assign their own (colliding) local ids, and the
    /// sharded world must be byte-identical to a single-shard reference
    /// holding the same ids.
    ///
    /// Errors with [`CoreError::DuplicateObject`] if the id already exists
    /// and with [`CoreError::NonFiniteMotion`] on motion that is or becomes
    /// non-finite; `next_id` advances past `id` so implicit inserts never
    /// collide.
    pub fn insert_moving_object_with_id(
        &mut self,
        id: u64,
        class: impl Into<String>,
        position: Point,
        velocity: Velocity,
    ) -> CoreResult<()> {
        if self.objects.contains_key(id) {
            return Err(CoreError::DuplicateObject(id));
        }
        self.check_finite_motion(id, position, velocity)?;
        let class = class.into();
        if !self.classes.contains_key(&class) {
            Arc::make_mut(&mut self.classes)
                .insert(class.clone(), ClassDef::spatial(class.clone()));
        }
        self.next_id = self.next_id.max(id + 1);
        let obj = MovingObject::spatial(id, class, self.clock, position, velocity);
        if let Some(ix) = &mut self.spatial_index {
            ix.insert(id, self.clock, position, velocity);
        }
        self.objects.insert(id, obj);
        if !self.continuous.is_empty() {
            // An insertion is an explicit update: refresh materialized
            // answers.  Evaluation cannot newly fail here — the queries
            // evaluated successfully at registration and the domain only
            // gained an object.
            self.after_updates(&[(id, UpdateKind::Domain)])
                .expect("continuous refresh after insert");
            self.stats.updates -= 1; // inserts are not counted as updates
        }
        Ok(())
    }

    /// Inserts a non-spatial object of `class` (auto-created as open).
    pub fn insert_plain_object(&mut self, class: impl Into<String>) -> u64 {
        let class = class.into();
        if !self.classes.contains_key(&class) {
            Arc::make_mut(&mut self.classes).insert(class.clone(), ClassDef::plain(class.clone()));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.objects.insert(id, MovingObject::plain(id, class));
        if !self.continuous.is_empty() {
            self.after_updates(&[(id, UpdateKind::Domain)])
                .expect("continuous refresh after insert");
            self.stats.updates -= 1; // inserts are not counted as updates
        }
        id
    }

    /// Immutable object access.
    pub fn object(&self, id: u64) -> CoreResult<&MovingObject> {
        self.objects.get(id).ok_or(CoreError::UnknownObject(id))
    }

    /// Every object in ascending id order, read in place.
    pub(crate) fn objects(&self) -> impl Iterator<Item = (u64, &MovingObject)> {
        self.objects.iter()
    }

    /// All object ids, ascending.
    pub fn object_ids(&self) -> Vec<u64> {
        self.objects.keys().collect()
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the database holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// How much of the object table this database shares with `other`, as
    /// `(chunks that are the same allocation in both, chunks here)` — the
    /// memory two epochs hold once rather than twice.
    pub fn shared_object_chunks(&self, other: &Database) -> (usize, usize) {
        (
            self.objects.chunks_shared_with(&other.objects),
            self.objects.chunk_count(),
        )
    }

    /// Removes an object (e.g. a vehicle leaving the monitored fleet).
    /// Continuous queries are refreshed, exactly as for any other explicit
    /// update.
    pub fn remove_object(&mut self, id: u64) -> CoreResult<()> {
        if self.objects.remove(id).is_none() {
            return Err(CoreError::UnknownObject(id));
        }
        if let Some(ix) = &mut self.spatial_index {
            ix.remove(id);
        }
        self.after_updates(&[(id, UpdateKind::Domain)])
    }

    /// Registers a named region (polygon) for `INSIDE` / `OUTSIDE`.
    /// Replacing a region refreshes the continuous queries that name it; it
    /// does not count as an update.  A failed refresh keeps its query's
    /// answer for the next refresh to repair, as a failed renewal does.
    pub fn add_region(&mut self, name: impl Into<String>, poly: Polygon) {
        let name = name.into();
        Arc::make_mut(&mut self.regions).insert(name.clone(), poly);
        if !self.continuous.is_empty() {
            // A region write names no object: its id is never read.
            let _ = self.refresh_pass(&[(0, UpdateKind::Region(name))]);
        }
    }

    /// The paper's opening query — "How far is the car with license plate
    /// RWW860 from the nearest hospital?": the nearest *other* object to
    /// `from` at the current tick, optionally restricted to a class,
    /// together with its distance.  `None` when no candidate exists.
    pub fn nearest_object(&self, from: u64, class: Option<&str>) -> CoreResult<Option<(u64, f64)>> {
        let now = self.clock;
        let origin =
            self.object(from)?
                .position_at(now)
                .ok_or_else(|| CoreError::AttributeKind {
                    attr: "POSITION".into(),
                    detail: "nearest_object from a non-spatial object".into(),
                })?;
        Ok(self
            .objects
            .values()
            .filter(|o| o.id != from)
            .filter(|o| class.is_none_or(|c| o.class == c))
            .filter_map(|o| o.position_at(now).map(|p| (o.id, origin.dist(p))))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))))
    }

    /// Looks up a region.
    pub fn region(&self, name: &str) -> Option<&Polygon> {
        self.regions.get(name)
    }

    /// Iterates all named regions in name order.
    pub fn regions_iter(&self) -> impl Iterator<Item = (&str, &Polygon)> {
        self.regions
            .iter()
            .map(|(name, poly)| (name.as_str(), poly))
    }

    // ------------------------------------------------------------------
    // Updates (all stamped with the current clock tick; the paper assumes
    // valid-time == transaction-time)
    // ------------------------------------------------------------------

    /// Updates an object's motion vector; the position continues from the
    /// current trajectory ("the computer can automatically update the
    /// motion vector when it senses a change in speed or direction").
    pub fn update_motion(&mut self, id: u64, velocity: Velocity) -> CoreResult<()> {
        self.apply_motion(id, velocity)?;
        self.after_updates(&[(id, UpdateKind::Motion)])
    }

    /// Explicitly sets both position and motion vector (a full sensor
    /// report).
    pub fn update_position(&mut self, id: u64, update: MotionUpdate) -> CoreResult<()> {
        self.apply_position(id, update)?;
        self.after_updates(&[(id, UpdateKind::Motion)])
    }

    /// Sets a static attribute.
    pub fn set_static(&mut self, id: u64, name: &str, value: Value) -> CoreResult<()> {
        self.apply_static(id, name, value)?;
        self.after_updates(&[(id, UpdateKind::Attr(name.to_owned()))])
    }

    /// Sets / updates a scalar dynamic attribute (e.g. FUEL): either
    /// sub-attribute may be changed, per Section 2.1.
    pub fn set_dynamic_scalar(
        &mut self,
        id: u64,
        name: &str,
        value: Option<f64>,
        function: Option<AttrFunction>,
    ) -> CoreResult<()> {
        self.apply_dynamic_scalar(id, name, value, function)?;
        self.after_updates(&[(id, UpdateKind::Attr(name.to_owned()))])
    }

    /// Applies a whole batch of explicit updates under **one** refresh
    /// pass: the batch mutates first, then continuous queries refresh once
    /// against the final state — equivalent to per-update refreshes at the
    /// same clock tick (every refresh merges at the same boundary, and the
    /// last merge of a sequence at one boundary wins), but paying one
    /// dependency-filter walk and one (possibly parallel) evaluation sweep.
    ///
    /// On an invalid op the batch stops at the first error: prior ops stay
    /// applied (matching their individual-call semantics), a refresh runs
    /// for them, and the first error is returned.
    pub fn apply_updates(&mut self, ops: &[UpdateOp]) -> CoreResult<()> {
        let mut applied: Vec<(u64, UpdateKind)> = Vec::with_capacity(ops.len());
        let mut first_err = None;
        for op in ops {
            let changed = match op {
                UpdateOp::Motion { id, velocity } => self
                    .apply_motion(*id, *velocity)
                    .map(|()| (*id, UpdateKind::Motion)),
                UpdateOp::Position { id, update } => self
                    .apply_position(*id, *update)
                    .map(|()| (*id, UpdateKind::Motion)),
                UpdateOp::Static { id, attr, value } => self
                    .apply_static(*id, attr, value.clone())
                    .map(|()| (*id, UpdateKind::Attr(attr.clone()))),
                UpdateOp::DynamicScalar {
                    id,
                    attr,
                    value,
                    function,
                } => self
                    .apply_dynamic_scalar(*id, attr, *value, *function)
                    .map(|()| (*id, UpdateKind::Attr(attr.clone()))),
            };
            match changed {
                Ok(change) => applied.push(change),
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        let refreshed = self.after_updates(&applied);
        match first_err {
            Some(e) => Err(e),
            None => refreshed,
        }
    }

    /// Motion-vector mutation without the refresh hook.
    fn apply_motion(&mut self, id: u64, velocity: Velocity) -> CoreResult<()> {
        let now = self.clock;
        let position =
            self.object(id)?
                .position_at(now)
                .ok_or_else(|| CoreError::AttributeKind {
                    attr: "POSITION".into(),
                    detail: "motion update on a non-spatial object".into(),
                })?;
        self.check_finite_motion(id, position, velocity)?;
        let obj = self.objects.get_mut(id).expect("looked up above");
        obj.update_velocity(now, velocity);
        if let Some(ix) = &mut self.spatial_index {
            ix.update(id, now, position, velocity);
        }
        Ok(())
    }

    /// Position-report mutation without the refresh hook.
    fn apply_position(&mut self, id: u64, update: MotionUpdate) -> CoreResult<()> {
        let now = self.clock;
        if self.object(id)?.trajectory().is_none() {
            return Err(CoreError::AttributeKind {
                attr: "POSITION".into(),
                detail: "position update on a non-spatial object".into(),
            });
        }
        self.check_finite_motion(id, update.position, update.velocity)?;
        let obj = self.objects.get_mut(id).expect("looked up above");
        obj.update_position(now, update.position, update.velocity);
        if let Some(ix) = &mut self.spatial_index {
            ix.update(id, now, update.position, update.velocity);
        }
        Ok(())
    }

    /// Rejects motion the model cannot carry: a non-finite position or
    /// velocity component, or a position that overflows within the index
    /// lifetime (2 · expiration).  A NaN would otherwise read back as every
    /// position and cross every octree cell.
    fn check_finite_motion(&self, id: u64, position: Point, velocity: Velocity) -> CoreResult<()> {
        let reach = 2.0 * self.expiration as f64;
        // `p + v · reach` is non-finite whenever `p` or `v` is, too.
        let far = [
            position.x + velocity.dx * reach,
            position.y + velocity.dy * reach,
        ];
        if far.iter().all(|c| c.is_finite()) {
            Ok(())
        } else {
            Err(CoreError::NonFiniteMotion { id })
        }
    }

    /// Static-attribute mutation without the refresh hook.
    fn apply_static(&mut self, id: u64, name: &str, value: Value) -> CoreResult<()> {
        let now = self.clock;
        let obj = self
            .objects
            .get_mut(id)
            .ok_or(CoreError::UnknownObject(id))?;
        let class = self
            .classes
            .get(&obj.class)
            .ok_or_else(|| CoreError::UnknownClass(obj.class.clone()))?;
        if !class.admits(name, AttrKind::Static) {
            return Err(CoreError::UndeclaredAttribute {
                class: class.name.clone(),
                attr: name.to_owned(),
            });
        }
        obj.set_static(now, name, value);
        Ok(())
    }

    /// Dynamic-attribute mutation without the refresh hook.
    fn apply_dynamic_scalar(
        &mut self,
        id: u64,
        name: &str,
        value: Option<f64>,
        function: Option<AttrFunction>,
    ) -> CoreResult<()> {
        let now = self.clock;
        let obj = self
            .objects
            .get_mut(id)
            .ok_or(CoreError::UnknownObject(id))?;
        let class = self
            .classes
            .get(&obj.class)
            .ok_or_else(|| CoreError::UnknownClass(obj.class.clone()))?;
        if !class.admits(name, AttrKind::Dynamic) {
            return Err(CoreError::UndeclaredAttribute {
                class: class.name.clone(),
                attr: name.to_owned(),
            });
        }
        obj.set_dynamic(now, name, value, function);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The FTL evaluation context for the current state ("the database
    /// implicitly represents future states of the system being modeled"),
    /// over `[now, now + expiration]`.
    pub fn current_context(&self) -> DbContext<'_> {
        DbContext::new(self, self.window_from(self.clock), ContextMode::Current)
    }

    /// The recorded-history context over `[origin, origin + expiration]`
    /// (persistent queries).
    pub fn recorded_context(&self, origin: Tick) -> DbContext<'_> {
        DbContext::new(self, self.window_from(origin), ContextMode::Recorded)
    }

    /// The evaluation horizon of a query entered at `start`.
    fn window_from(&self, start: Tick) -> Horizon {
        Horizon::between(start, start.saturating_add(self.expiration))
    }

    /// Evaluates a query on the implicit future history starting now; the
    /// answer is in clock ticks, as every evaluation's is.
    pub(crate) fn evaluate_global(&self, q: &Query) -> CoreResult<Answer> {
        self.evaluate_over(q, None, self.clock.saturating_add(self.expiration))
    }

    /// [`Database::evaluate_global`] on the window `now ..= end`, with the
    /// active domain cut to the sorted ids `ids` when given
    /// ([`most_ftl::evaluate_query_over`]).
    pub(crate) fn evaluate_over(
        &self,
        q: &Query,
        ids: Option<Vec<u64>>,
        end: Tick,
    ) -> CoreResult<Answer> {
        if let Some(marker) = &self.eval_fault {
            if DepSet::of_query(q).attrs.contains(marker) {
                panic!("injected evaluation fault: attribute `{marker}`");
            }
        }
        let ctx = self.current_context().until(end);
        Ok(match ids {
            Some(ids) => evaluate_query_over(&ctx, q, ids)?,
            None => evaluate_query(&ctx, q)?,
        })
    }

    /// Arms (or clears) evaluation fault injection: while set, evaluating
    /// any query that reads the named attribute panics at evaluation entry.
    /// This is the deterministic stand-in for "a query evaluation
    /// panicked" used by the panic-safety regression tests — the panic
    /// travels the exact production path (refresh pass, epoch writers,
    /// server sessions) without depending on an evaluator bug to trigger
    /// it.  Never set outside tests.
    pub fn set_eval_fault(&mut self, attr: Option<String>) {
        self.eval_fault = attr;
    }

    /// Evaluates an instantaneous query without mutating statistics —
    /// the read-path used by [`crate::shared::SharedDatabase`] so that
    /// concurrent readers need no write lock.
    pub fn instantaneous_readonly(&self, q: &Query) -> CoreResult<Answer> {
        self.evaluate_global(q)
    }

    /// Evaluates a **persistent query** anchored at `origin` without
    /// mutating any state: the query runs against the *recorded* history
    /// starting at `origin` (replayed updates up to the current clock,
    /// extrapolation beyond it) and the answer comes back in global ticks.
    ///
    /// This is the read-path equivalent of
    /// [`crate::persistent::PersistentQuery::answer`], usable under a
    /// shared read lock — the serving layer re-evaluates a client's
    /// persistent query on demand without tracking per-query state
    /// server-side (the anchor tick travels with each request).
    pub fn persistent_answer(&self, q: &Query, origin: Tick) -> CoreResult<Answer> {
        Ok(evaluate_query(&self.recorded_context(origin), q)?)
    }

    /// An **instantaneous query** (Section 2.3): one evaluation on the
    /// history starting at the current tick.  The returned [`Answer`] is in
    /// global ticks; the set the user sees immediately is
    /// [`Answer::at_tick`] of the current tick.
    pub fn instantaneous(&mut self, q: &Query) -> CoreResult<Answer> {
        self.stats.instantaneous_queries += 1;
        self.evaluate_global(q)
    }

    /// The instantiations satisfied *right now* by an instantaneous query.
    pub fn instantaneous_now(&mut self, q: &Query) -> CoreResult<Vec<Vec<Value>>> {
        let now = self.clock;
        let answer = self.instantaneous(q)?;
        Ok(answer
            .at_tick(now)
            .into_iter()
            .map(|t| t.values.clone())
            .collect())
    }

    /// Registers a **continuous query**: evaluated once, materialized, and
    /// refreshed only on explicit updates.  Returns the query id.  An
    /// evaluation that panics registers nothing and fails with
    /// [`CoreError::EvalPanic`], as a refresh does.
    pub fn register_continuous(&mut self, q: Query) -> CoreResult<u64> {
        let answer = crate::refresh::guarded_eval(|| self.evaluate_global(&q))?;
        Ok(self.continuous.register(q, self.clock, answer))
    }

    /// The materialized `Answer(CQ)` (global ticks), copied out of its
    /// store.
    pub fn continuous_answer(&self, id: u64) -> CoreResult<Answer> {
        Ok(self.cq(id)?.answer.to_answer())
    }

    fn cq(&self, id: u64) -> CoreResult<&CqEntry> {
        self.continuous
            .get(id)
            .ok_or(CoreError::UnknownContinuousQuery(id))
    }

    /// The display of a continuous query at a clock tick.
    pub fn continuous_display(&self, id: u64, at: Tick) -> CoreResult<Vec<Vec<Value>>> {
        let rows = self.cq(id)?.answer.rows();
        let shown = rows.filter(|t| t.intervals.contains(at));
        Ok(shown.map(|t| t.values.clone()).collect())
    }

    /// How much of continuous query `id`'s answer this database shares
    /// with `other`, as `(chunks that are the same allocation in both,
    /// chunks here)`; `(0, 0)` for a query either side lacks.
    pub fn shared_answer_chunks(&self, other: &Database, id: u64) -> (usize, usize) {
        match (self.cq(id), other.cq(id)) {
            (Ok(mine), Ok(theirs)) => mine.answer.shared_chunks(&theirs.answer),
            _ => (0, 0),
        }
    }

    /// Cancels a continuous query.
    pub fn cancel_continuous(&mut self, id: u64) -> CoreResult<()> {
        if self.continuous.cancel(id) {
            Ok(())
        } else {
            Err(CoreError::UnknownContinuousQuery(id))
        }
    }

    /// Total continuous-query evaluations performed so far (E3 metric).
    pub fn continuous_evaluations(&self) -> u64 {
        self.continuous.evaluations
    }

    /// Refreshes skipped by dependency-set filtering so far.
    pub fn skipped_refreshes(&self) -> u64 {
        self.continuous.skipped_refreshes
    }

    /// Refresh evaluations that ran but did not change any answer.
    pub fn noop_refreshes(&self) -> u64 {
        self.continuous.noop_refreshes
    }

    /// Read access to the continuous registry (per-entry refresh stats).
    pub fn continuous_registry(&self) -> &ContinuousRegistry {
        &self.continuous
    }

    /// A stable 64-bit digest of the **logical** serialized state
    /// (canonical JSON hashed with FNV-1a).  Two databases with equal
    /// fingerprints hold identical persisted state — clock, objects,
    /// regions, continuous-query answers, triggers, counters.  Two
    /// things are deliberately excluded:
    ///
    /// * the derived spatial index, exactly as in
    ///   [`ToJson`](most_testkit::ser::ToJson) — a recovered or replicated
    ///   copy that rebuilds it on demand still fingerprints equal;
    /// * wall-clock performance accounting (the per-CQ `refresh_nanos`
    ///   timing, zeroed at its one known location
    ///   `continuous.entries.<id>.refresh_nanos`), which is measured,
    ///   not replayed — the one serialized field two deterministic
    ///   replays of the same update sequence do *not* reproduce.  A
    ///   user attribute that merely shares the name still counts.
    ///
    /// This is the convergence check used by the WAL crash-recovery and
    /// replica oracles.
    pub fn fingerprint(&self) -> u64 {
        use most_testkit::ser::Json;
        fn field_mut<'a>(j: &'a mut Json, name: &str) -> Option<&'a mut Json> {
            match j {
                Json::Obj(fields) => fields.iter_mut().find(|(n, _)| n == name).map(|(_, v)| v),
                _ => None,
            }
        }
        let mut j = most_testkit::ser::ToJson::to_json(self);
        if let Some(Json::Obj(entries)) =
            field_mut(&mut j, "continuous").and_then(|reg| field_mut(reg, "entries"))
        {
            for (_, entry) in entries.iter_mut() {
                if let Some(nanos) = field_mut(entry, "refresh_nanos") {
                    *nanos = Json::Int(0);
                }
            }
        }
        let text = j.render().expect("database state always renders");
        most_testkit::hash::fnv1a64(text.as_bytes())
    }

    // ------------------------------------------------------------------
    // Triggers
    // ------------------------------------------------------------------

    /// Creates a temporal trigger from a continuous query (Section 2.3:
    /// "such a trigger is simply one of these two types of queries, coupled
    /// with an action").  Fired events are collected via
    /// [`Database::take_trigger_events`].
    pub fn create_trigger(&mut self, name: impl Into<String>, q: Query) -> CoreResult<u64> {
        let cq = self.register_continuous(q)?;
        Ok(Arc::make_mut(&mut self.triggers).create(name, cq, self.clock))
    }

    /// Collects trigger firings whose satisfaction began in
    /// `(last poll, now]`.
    pub fn take_trigger_events(&mut self) -> Vec<TriggerEvent> {
        let now = self.clock;
        let mut events = Vec::new();
        for trig in Arc::make_mut(&mut self.triggers).iter_mut() {
            let Some(entry) = self.continuous.get(trig.continuous_id) else {
                continue;
            };
            for tup in entry.answer.rows() {
                for iv in tup.intervals.intervals() {
                    if iv.begin() > trig.last_polled && iv.begin() <= now {
                        events.push(TriggerEvent {
                            trigger: trig.id,
                            name: trig.name.clone(),
                            values: tup.values.clone(),
                            at: iv.begin(),
                        });
                    }
                }
            }
            trig.last_polled = now;
        }
        events.sort_by_key(|a| (a.at, a.trigger));
        events
    }

    // ------------------------------------------------------------------
    // Spatial index (Section 4 integration)
    // ------------------------------------------------------------------

    /// Enables maintenance of the Section 4 position index over the given
    /// spatial extent.  Existing objects are bulk-inserted.
    ///
    /// The index is a filter: it answers candidate ids, and every caller
    /// tests them against the object table with the predicate a scan uses,
    /// so it never changes an answer.  Derived state, it is rebuilt on
    /// demand and never serialized.
    pub fn enable_spatial_index(&mut self, space: Rect) {
        // Lifetime 2× the query horizon so a query window [now, now + H]
        // always fits inside the current epoch: `maintain_spatial_index`
        // rolls it once the clock is more than H past its start.  A reach
        // of the whole lifetime starts the epoch at `now`.
        let (now, lifetime) = (self.clock, self.expiration * 2);
        let mut index = MovingObjectIndex2D::new(lifetime, space);
        index.roll_to(now, lifetime);
        for (id, obj) in self.objects.iter() {
            if let (Some(p), Some(v)) = (obj.position_at(now), obj.velocity_at(now)) {
                index.insert(id, now, p, v);
            }
        }
        self.spatial_index = Some(index);
    }

    /// Whether the position index is maintained.
    pub fn has_spatial_index(&self) -> bool {
        self.spatial_index.is_some()
    }

    /// Index-assisted candidate lookup: ids of objects whose indexed motion
    /// may touch `bbox` during the tick window `[from, to]`, a superset of
    /// those that do.  `None` when no index is enabled, the window leaves
    /// the current epoch or `bbox` leaves the indexed space.
    pub(crate) fn index_window_candidates(
        &self,
        from: Tick,
        to: Tick,
        bbox: &Rect,
    ) -> Option<Vec<u64>> {
        let (ids, _) = self.spatial_index.as_ref()?.candidates(from, to, bbox)?;
        Some(ids)
    }

    /// Rolls the position index to a fresh epoch when the clock has
    /// outrun it ("the index needs to be reconstructed every T time
    /// units"): once a query window `[now, now + expiration]` leaves the
    /// epoch.  Returns whether a reconstruction happened.
    ///
    /// The epoch engine ([`crate::epoch::EpochDb::advance_epoch`]) calls
    /// this on the writer's copy before publishing, so reconstruction is
    /// paid at epoch boundaries and a published snapshot's index is
    /// always fresh enough for [`Database::objects_in_rect_at`].
    pub fn maintain_spatial_index(&mut self) -> bool {
        let (now, reach) = (self.clock, self.expiration);
        self.spatial_index
            .as_mut()
            .is_some_and(|ix| ix.roll_to(now, reach))
    }

    /// Objects currently inside the rectangle, and whether the index chose
    /// the candidates.  It does when enabled, when the rectangle lies
    /// inside its space and the clock inside its epoch; otherwise every
    /// object is a candidate.  Either way each candidate is tested against
    /// the object table.  Never mutates, so pinned epoch snapshots can
    /// call it: a stale index falls back to the scan instead of
    /// reconstructing in place.
    pub fn objects_in_rect_at(&self, rect: &Rect) -> (Vec<u64>, bool) {
        let now = self.clock;
        let inside = |obj: &MovingObject| obj.position_at(now).is_some_and(|p| rect.contains(p));
        match self
            .spatial_index
            .as_ref()
            .and_then(|ix| ix.candidates(now, now, rect))
        {
            Some((ids, _)) => {
                let ids = ids
                    .into_iter()
                    .filter(|&id| self.objects.get(id).is_some_and(inside))
                    .collect();
                (ids, true)
            }
            None => {
                let ids = self
                    .objects
                    .iter()
                    .filter(|(_, obj)| inside(obj))
                    .map(|(id, _)| id)
                    .collect();
                (ids, false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rolls the position index as a publish does, then reads through it.
    fn in_rect(db: &mut Database, rect: &Rect) -> (Vec<u64>, bool) {
        db.maintain_spatial_index();
        db.objects_in_rect_at(rect)
    }

    fn highway_db() -> Database {
        let mut db = Database::new(500);
        let a = db.insert_moving_object("cars", Point::origin(), Velocity::new(1.0, 0.0));
        let b = db.insert_moving_object("cars", Point::new(200.0, 0.0), Velocity::new(-1.0, 0.0));
        db.set_static(a, "PRICE", Value::from(80.0)).unwrap();
        db.set_static(b, "PRICE", Value::from(150.0)).unwrap();
        db.add_region("P", Polygon::rectangle(90.0, -10.0, 110.0, 10.0));
        db
    }

    #[test]
    fn instantaneous_answers_in_global_ticks() {
        let mut db = highway_db();
        db.advance_clock(50); // car 1 at x=50
        let q = Query::parse("RETRIEVE o WHERE Eventually within 100 INSIDE(o, P)").unwrap();
        let a = db.instantaneous(&q).unwrap();
        // Car 1 enters P (x=90) at global tick 90; car 2 (x=150 now)
        // reaches x=110 at global tick 90 too.
        assert_eq!(a.ids(), vec![1, 2]);
        let s1 = a.intervals_for(&[Value::Id(1)]).unwrap();
        assert!(s1.contains(50), "satisfied at entry: {s1}");
        assert_eq!(db.stats.instantaneous_queries, 1);
    }

    #[test]
    fn answer_depends_on_entry_time_without_updates() {
        // The hallmark of MOST: same query, different times, different
        // answers, zero updates.
        let mut db = highway_db();
        let q = Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
        assert!(db.instantaneous_now(&q).unwrap().is_empty());
        db.advance_clock(100); // car 1 at 100, car 2 at 100: both inside
        let now = db.instantaneous_now(&q).unwrap();
        assert_eq!(now.len(), 2);
    }

    #[test]
    fn continuous_query_single_evaluation_until_update() {
        let mut db = highway_db();
        let q = Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
        let cq = db.register_continuous(q).unwrap();
        assert_eq!(db.continuous_evaluations(), 1);
        // Display changes over time with no re-evaluation.
        assert!(db.continuous_display(cq, 0).unwrap().is_empty());
        assert_eq!(db.continuous_display(cq, 95).unwrap().len(), 2);
        assert_eq!(db.continuous_evaluations(), 1);
        // An update triggers exactly one refresh per query.
        db.advance_clock(10);
        db.update_motion(1, Velocity::new(0.0, 1.0)).unwrap();
        assert_eq!(db.continuous_evaluations(), 2);
        // Car 1 now turns north at x=10 and never reaches P.
        let display = db.continuous_display(cq, 95).unwrap();
        assert_eq!(display, vec![vec![Value::Id(2)]]);
        db.cancel_continuous(cq).unwrap();
        assert!(db.continuous_display(cq, 95).is_err());
    }

    #[test]
    fn continuous_merge_preserves_served_past() {
        let mut db = highway_db();
        let q = Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
        let cq = db.register_continuous(q).unwrap();
        // Serve some ticks, then update *after* car 2 passed through P.
        db.advance_clock(130);
        db.update_motion(2, Velocity::new(0.0, 1.0)).unwrap();
        // Car 2 was displayed during [90, 110]; that history must remain.
        let ans = db.continuous_answer(cq).unwrap();
        let s2 = ans.intervals_for(&[Value::Id(2)]).unwrap();
        assert!(s2.contains(95));
    }

    #[test]
    fn trigger_fires_on_entry() {
        let mut db = highway_db();
        let q = Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
        db.create_trigger("entered_P", q).unwrap();
        assert!(db.take_trigger_events().is_empty());
        db.advance_clock(95); // both cars inside by now
        let events = db.take_trigger_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at, 90);
        assert_eq!(events[0].name, "entered_P");
        // No repeat firing.
        assert!(db.take_trigger_events().is_empty());
    }

    #[test]
    fn class_validation() {
        let mut db = Database::new(100);
        db.define_class(ClassDef::plain("motels").with_static("PRICE"));
        let m = db.insert_plain_object("motels");
        assert!(db.set_static(m, "PRICE", Value::from(60.0)).is_ok());
        assert!(matches!(
            db.set_static(m, "NOPE", Value::from(1.0)),
            Err(CoreError::UndeclaredAttribute { .. })
        ));
        assert!(matches!(
            db.set_dynamic_scalar(m, "PRICE", Some(0.0), None),
            Err(CoreError::UndeclaredAttribute { .. })
        ));
    }

    #[test]
    fn motion_updates_on_plain_objects_fail() {
        let mut db = Database::new(100);
        let m = db.insert_plain_object("motels");
        assert!(db.update_motion(m, Velocity::zero()).is_err());
        assert!(db
            .update_position(
                m,
                MotionUpdate {
                    position: Point::origin(),
                    velocity: Velocity::zero()
                }
            )
            .is_err());
        assert!(db.update_motion(99, Velocity::zero()).is_err());
    }

    #[test]
    fn non_finite_motion_is_rejected_mid_batch_before_it_mutates() {
        let mut db = highway_db();
        db.enable_spatial_index(Rect::new(-500.0, -500.0, 500.0, 500.0));
        db.advance_clock(10);
        let motion = |id, dx| UpdateOp::Motion {
            id,
            velocity: Velocity::new(dx, 0.0),
        };
        let hostile = [
            motion(2, f64::NAN),
            UpdateOp::Position {
                id: 2,
                update: MotionUpdate {
                    position: Point::new(190.0, 0.0),
                    velocity: Velocity::new(1e308, 1e308),
                },
            },
        ];
        for (k, bad) in hostile.into_iter().enumerate() {
            let before = format!("{:?}", db.object(2).unwrap());
            let speed = 2.0 + k as f64;
            let err = db
                .apply_updates(&[motion(1, speed), bad, motion(2, 3.0)])
                .unwrap_err();
            assert_eq!(err, CoreError::NonFiniteMotion { id: 2 });
            // The op before the bad one applied; the bad one and the rest did not.
            assert_eq!(
                db.object(1).unwrap().velocity_at(10),
                Some(Velocity::new(speed, 0.0))
            );
            assert_eq!(format!("{:?}", db.object(2).unwrap()), before);
            for t in [10, 50, 1_000] {
                let p = db.object(2).unwrap().position_at(t).unwrap();
                assert!(p.x.is_finite() && p.y.is_finite(), "tick {t}: {p:?}");
            }
        }
        // The index never saw the bad motion: car 2 is where it was headed.
        db.advance_clock(40);
        let (ids, used) = in_rect(&mut db, &Rect::new(145.0, -1.0, 155.0, 1.0));
        assert!(used);
        assert_eq!(ids, vec![2]);
        let far_away = Point::new(f64::INFINITY, 0.0);
        assert_eq!(
            db.insert_moving_object_with_id(9, "cars", far_away, Velocity::zero()),
            Err(CoreError::NonFiniteMotion { id: 9 })
        );
        assert!(db.object(9).is_err());
    }

    #[test]
    fn spatial_index_agrees_with_scan() {
        let mut db = Database::new(1000);
        for i in 0..50 {
            db.insert_moving_object(
                "cars",
                Point::new(i as f64 * 10.0, 0.0),
                Velocity::new(0.5, 0.0),
            );
        }
        db.advance_clock(20);
        let rect = Rect::new(100.0, -5.0, 200.0, 5.0);
        let (scan_ids, used) = in_rect(&mut db, &rect);
        assert!(!used);
        db.enable_spatial_index(Rect::new(-100.0, -100.0, 2000.0, 100.0));
        let (idx_ids, used) = in_rect(&mut db, &rect);
        assert!(used);
        assert_eq!(scan_ids, idx_ids);
        // Updates keep the index in sync.
        db.update_motion(1, Velocity::new(5.0, 0.0)).unwrap();
        db.advance_clock(30);
        let (idx_ids, _) = in_rect(&mut db, &rect);
        let expected: Vec<u64> = db
            .object_ids()
            .into_iter()
            .filter(|&id| {
                db.object(id)
                    .unwrap()
                    .position_at(50)
                    .is_some_and(|p| rect.contains(p))
            })
            .collect();
        assert_eq!(idx_ids, expected);
    }

    #[test]
    fn spatial_index_reconstructs_after_lifetime() {
        let mut db = Database::new(100);
        db.insert_moving_object("cars", Point::origin(), Velocity::new(1.0, 0.0));
        db.enable_spatial_index(Rect::new(-10.0, -10.0, 10_000.0, 10.0));
        db.advance_clock(250); // well past the lifetime
        assert!(db.maintain_spatial_index());
        let (ids, used) = db.objects_in_rect_at(&Rect::new(240.0, -5.0, 260.0, 5.0));
        assert!(used);
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn remove_object_refreshes_queries() {
        let mut db = highway_db();
        let q = Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
        let cq = db.register_continuous(q).unwrap();
        assert_eq!(db.continuous_answer(cq).unwrap().len(), 2);
        db.remove_object(2).unwrap();
        assert_eq!(db.continuous_answer(cq).unwrap().ids(), vec![1]);
        assert!(db.object(2).is_err());
        assert!(db.remove_object(2).is_err());
        // With a spatial index enabled, removal keeps it consistent.
        let mut db = highway_db();
        db.enable_spatial_index(Rect::new(-500.0, -500.0, 500.0, 500.0));
        db.remove_object(1).unwrap();
        db.advance_clock(95);
        let (ids, used) = in_rect(&mut db, &Rect::new(90.0, -10.0, 110.0, 10.0));
        assert!(used);
        assert_eq!(ids, vec![2]);
    }

    #[test]
    fn nearest_object_answers_the_opening_query() {
        let mut db = Database::new(100);
        let car = db.insert_moving_object("cars", Point::origin(), Velocity::new(1.0, 0.0));
        let h1 = db.insert_moving_object("hospitals", Point::new(50.0, 0.0), Velocity::zero());
        let h2 = db.insert_moving_object("hospitals", Point::new(10.0, 10.0), Velocity::zero());
        let other = db.insert_moving_object("cars", Point::new(1.0, 0.0), Velocity::zero());
        // Nearest of any class is the other car.
        assert_eq!(db.nearest_object(car, None).unwrap(), Some((other, 1.0)));
        // Nearest hospital right now is h2 (sqrt(200) < 50).
        let (id, d) = db.nearest_object(car, Some("hospitals")).unwrap().unwrap();
        assert_eq!(id, h2);
        assert!((d - 200f64.sqrt()).abs() < 1e-9);
        // The answer changes as the car moves — no updates needed.
        db.advance_clock(49);
        let (id, d) = db.nearest_object(car, Some("hospitals")).unwrap().unwrap();
        assert_eq!(id, h1);
        assert!((d - 1.0).abs() < 1e-9);
        assert_eq!(db.nearest_object(car, Some("nope")).unwrap(), None);
        let _ = h1;
    }

    #[test]
    fn update_counters() {
        let mut db = highway_db();
        assert_eq!(db.stats.updates, 2); // the two PRICE sets
        db.update_motion(1, Velocity::zero()).unwrap();
        assert_eq!(db.stats.updates, 3);
    }
}
