//! The MOST database: object classes, moving objects, regions, the tick
//! clock, and the three query types.

use crate::class::{AttrKind, ClassDef};
use crate::continuous::ContinuousRegistry;
use crate::deps::{DepSet, UpdateKind};
use crate::dynamic::AttrFunction;
use crate::error::{CoreError, CoreResult};
use crate::object::MovingObject;
use crate::snapshot::{ContextMode, DbContext};
use crate::trigger::{TriggerEvent, TriggerRegistry};
use most_dbms::value::Value;
use most_ftl::answer::{Answer, AnswerTuple};
use most_ftl::{evaluate_query, Query};
use most_index::{CowMap, DynamicAttributeIndex, IndexKind, MovingObjectIndex2D};
use most_spatial::{Point, Polygon, Rect, Velocity};
use most_temporal::{Duration, IntervalSet, Tick};
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
    // Derived acceleration: rebuilt from the persisted state on demand,
    // never serialized, never allowed to change an answer.
    derived: Derived,
    // Fault injection for panic-safety tests (not persisted): when set,
    // evaluating any query that reads this attribute panics at evaluation
    // entry.  See `set_eval_fault`.
    eval_fault: Option<String>,
}

most_testkit::json_struct!(DbStats { updates, instantaneous_queries });
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
            derived: Derived::default(),
            eval_fault: None,
        })
    }
}

/// Counter of object chunks copied because a published epoch still shares
/// them — the per-batch cost of copy-on-write, by count.
const CHUNKS_COPIED: &str = "epoch.chunks_copied";

/// The two Section 4 indexes.  Cloning shares them: the octree and its leg
/// table are path-copied inside `most-index`; the attribute index is one
/// `Arc`, copied whole by the first batch that writes the indexed
/// attribute and shared by every batch that does not.
#[derive(Debug, Clone, Default)]
struct Derived {
    spatial_index: Option<SpatialIndexState>,
    attr_index: Option<Arc<AttrIndexState>>,
}

#[derive(Debug, Clone)]
struct SpatialIndexState {
    index: MovingObjectIndex2D,
    space: Rect,
    epoch: Tick,
}

/// The Section 4 dynamic-attribute index wired into the refresh engine:
/// one attribute's value lines, so range atoms over that attribute fetch
/// index-pruned candidate sets.  Writes the line model cannot absorb
/// exactly (non-numeric values, quadratic functions, lines leaving the
/// declared value range, domain changes) set `dirty`: lookups return
/// `None` — falling back to full enumeration, so answers never depend on
/// index health — until the next epoch-boundary rebuild.
#[derive(Debug, Clone)]
struct AttrIndexState {
    attr: String,
    kind: IndexKind,
    index: DynamicAttributeIndex,
    epoch: Tick,
    dirty: bool,
}

/// How one object's attribute looks to the dynamic-attribute index at a
/// tick.  `Absent` covers both "no such attribute" and a non-numeric
/// value: neither can satisfy a numeric range atom while it holds, so the
/// object may be left out of the index.  `Quadratic` values vary in ways a
/// line cannot bound and force the index dirty instead.
enum AttrLine {
    Absent,
    Line(f64, f64),
    Quadratic,
}

fn attr_line(obj: &MovingObject, attr: &str, now: Tick) -> AttrLine {
    // A scalar dynamic attribute takes precedence over a static one of the
    // same name, matching evaluation order (`EvalContext::dynamic_series`
    // is consulted before `attr_series`).
    if let Some(state) = obj.dynamic_at(attr, now) {
        return match state.function {
            AttrFunction::Linear(slope) => {
                let value = state.value + slope * (now as f64 - state.updatetime as f64);
                AttrLine::Line(value, slope)
            }
            AttrFunction::Quadratic { .. } => AttrLine::Quadratic,
        };
    }
    match obj.static_at(attr, now).and_then(Value::as_f64) {
        Some(value) => AttrLine::Line(value, 0.0),
        None => AttrLine::Absent,
    }
}

/// Whether a line starting at `value` with `slope` stays inside the
/// declared value range for `span` ticks (linear, so the extremes are at
/// the endpoints) — the structure's bounds only cover that range.
fn line_in_range(value: f64, slope: f64, span: Tick, range: (f64, f64)) -> bool {
    let end = value + slope * span as f64;
    range.0 <= value && value <= range.1 && range.0 <= end && end <= range.1
}

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
            derived: Derived::default(),
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

    /// Advances the clock.  No re-evaluation happens: the whole point of
    /// the MOST model is that answers change with time *without* updates.
    pub fn advance_clock(&mut self, ticks: Duration) {
        self.clock += ticks;
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
    pub fn insert_moving_object(
        &mut self,
        class: impl Into<String>,
        position: Point,
        velocity: Velocity,
    ) -> u64 {
        let id = self.next_id;
        self.insert_moving_object_with_id(id, class, position, velocity)
            .expect("next_id is never taken");
        id
    }

    /// Inserts a spatial object under an explicit, caller-chosen id.  The
    /// sharded engine routes objects to per-shard databases by a global id
    /// — shards must not assign their own (colliding) local ids, and the
    /// sharded world must be byte-identical to a single-shard reference
    /// holding the same ids.
    ///
    /// Errors with [`CoreError::DuplicateObject`] if the id already exists;
    /// `next_id` advances past `id` so implicit inserts never collide.
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
        let class = class.into();
        if !self.classes.contains_key(&class) {
            Arc::make_mut(&mut self.classes).insert(class.clone(), ClassDef::spatial(class.clone()));
        }
        self.next_id = self.next_id.max(id + 1);
        let obj = MovingObject::spatial(id, class, self.clock, position, velocity);
        if let Some(ix) = &mut self.derived.spatial_index {
            ix.index.insert(id, self.clock - ix.epoch, position, velocity);
        }
        // The newcomer may acquire the indexed attribute later; rebuild at
        // the next epoch boundary rather than tracking it piecemeal.
        self.mark_attr_index_dirty();
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
        self.mark_attr_index_dirty();
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
        (self.objects.chunks_shared_with(&other.objects), self.objects.chunk_count())
    }

    /// Removes an object (e.g. a vehicle leaving the monitored fleet).
    /// Continuous queries are refreshed, exactly as for any other explicit
    /// update.
    pub fn remove_object(&mut self, id: u64) -> CoreResult<()> {
        if self.objects.remove(id).is_none() {
            return Err(CoreError::UnknownObject(id));
        }
        if let Some(ix) = &mut self.derived.spatial_index {
            ix.index.remove(id);
        }
        self.mark_attr_index_dirty();
        self.after_updates(&[(id, UpdateKind::Domain)])
    }

    /// Registers a named region (polygon) for `INSIDE` / `OUTSIDE`.
    pub fn add_region(&mut self, name: impl Into<String>, poly: Polygon) {
        Arc::make_mut(&mut self.regions).insert(name.into(), poly);
    }

    /// The paper's opening query — "How far is the car with license plate
    /// RWW860 from the nearest hospital?": the nearest *other* object to
    /// `from` at the current tick, optionally restricted to a class,
    /// together with its distance.  `None` when no candidate exists.
    pub fn nearest_object(
        &self,
        from: u64,
        class: Option<&str>,
    ) -> CoreResult<Option<(u64, f64)>> {
        let now = self.clock;
        let origin = self
            .object(from)?
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
        self.regions.iter().map(|(name, poly)| (name.as_str(), poly))
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
                UpdateOp::DynamicScalar { id, attr, value, function } => self
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
        let obj = self.objects.get_mut(id).ok_or(CoreError::UnknownObject(id))?;
        let position = obj
            .position_at(now)
            .ok_or_else(|| CoreError::AttributeKind {
                attr: "POSITION".into(),
                detail: "motion update on a non-spatial object".into(),
            })?;
        obj.update_velocity(now, velocity);
        if let Some(ix) = &mut self.derived.spatial_index {
            ix.index.update(id, now - ix.epoch, position, velocity);
        }
        Ok(())
    }

    /// Position-report mutation without the refresh hook.
    fn apply_position(&mut self, id: u64, update: MotionUpdate) -> CoreResult<()> {
        let now = self.clock;
        let obj = self.objects.get_mut(id).ok_or(CoreError::UnknownObject(id))?;
        if obj.trajectory().is_none() {
            return Err(CoreError::AttributeKind {
                attr: "POSITION".into(),
                detail: "position update on a non-spatial object".into(),
            });
        }
        obj.update_position(now, update.position, update.velocity);
        if let Some(ix) = &mut self.derived.spatial_index {
            ix.index
                .update(id, now - ix.epoch, update.position, update.velocity);
        }
        Ok(())
    }

    /// Static-attribute mutation without the refresh hook.
    fn apply_static(&mut self, id: u64, name: &str, value: Value) -> CoreResult<()> {
        let now = self.clock;
        let obj = self.objects.get_mut(id).ok_or(CoreError::UnknownObject(id))?;
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
        self.attr_index_on_write(id, name);
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
        let obj = self.objects.get_mut(id).ok_or(CoreError::UnknownObject(id))?;
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
        self.attr_index_on_write(id, name);
        Ok(())
    }

    /// Absorbs one attribute write into the dynamic-attribute index — the
    /// paper's model: an update replaces the tail of the object's value
    /// line from the current tick onwards — or marks the index dirty when
    /// the new state cannot be represented as an in-range line.
    fn attr_index_on_write(&mut self, id: u64, name: &str) {
        let now = self.clock;
        let (rel, lifetime, range) = match &self.derived.attr_index {
            Some(ix) if ix.attr == name && !ix.dirty && now - ix.epoch <= ix.index.lifetime() => {
                (now - ix.epoch, ix.index.lifetime(), ix.index.value_range())
            }
            Some(ix) if ix.attr == name => {
                // The clock has outrun the index lifetime; leave the rebuild
                // to the next epoch boundary.
                self.mark_attr_index_dirty();
                return;
            }
            _ => return,
        };
        let line = self.objects.get(id).map(|o| attr_line(o, name, now));
        let ix = Arc::make_mut(self.derived.attr_index.as_mut().expect("checked above"));
        match line {
            Some(AttrLine::Line(value, slope))
                if line_in_range(value, slope, lifetime - rel, range) =>
            {
                if ix.index.contains(id) {
                    ix.index.update(id, rel, value, slope);
                } else {
                    ix.index.insert(id, rel, value, slope);
                }
            }
            // A value no numeric line represents: sound to leave the object
            // unindexed, but an already-indexed line would go stale.
            Some(AttrLine::Absent) if !ix.index.contains(id) => {}
            _ => ix.dirty = true,
        }
    }

    /// Marks the dynamic-attribute index (if any) for rebuild at the next
    /// epoch boundary.  An already-dirty index stays shared.
    fn mark_attr_index_dirty(&mut self) {
        if let Some(ix) = self.derived.attr_index.as_mut().filter(|ix| !ix.dirty) {
            Arc::make_mut(ix).dirty = true;
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The FTL evaluation context for the current state ("the database
    /// implicitly represents future states of the system being modeled").
    pub fn current_context(&self) -> DbContext<'_> {
        DbContext::new(self, self.clock, ContextMode::Current)
    }

    /// The recorded-history context from `origin` (persistent queries).
    pub fn recorded_context(&self, origin: Tick) -> DbContext<'_> {
        DbContext::new(self, origin, ContextMode::Recorded)
    }

    /// Evaluates a query on the implicit future history starting now and
    /// returns the answer in **global** clock ticks.
    pub(crate) fn evaluate_global(&self, q: &Query) -> CoreResult<Answer> {
        if let Some(marker) = &self.eval_fault {
            if DepSet::of_query(q).attrs.contains(marker) {
                panic!("injected evaluation fault: attribute `{marker}`");
            }
        }
        let local = evaluate_query(&self.current_context(), q)?;
        Ok(shift_answer(local, self.clock))
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
        let ctx = self.recorded_context(origin);
        let local = evaluate_query(&ctx, q)?;
        Ok(shift_answer(local, origin))
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
    /// refreshed only on explicit updates.  Returns the query id.
    pub fn register_continuous(&mut self, q: Query) -> CoreResult<u64> {
        let answer = self.evaluate_global(&q)?;
        Ok(self.continuous.register(q, self.clock, answer))
    }

    /// The materialized `Answer(CQ)` (global ticks).
    pub fn continuous_answer(&self, id: u64) -> CoreResult<&Answer> {
        self.continuous
            .get(id)
            .map(|e| e.answer.as_ref())
            .ok_or(CoreError::UnknownContinuousQuery(id))
    }

    /// The display of a continuous query at a clock tick.
    pub fn continuous_display(&self, id: u64, at: Tick) -> CoreResult<Vec<Vec<Value>>> {
        Ok(self
            .continuous_answer(id)?
            .at_tick(at)
            .into_iter()
            .map(|t| t.values.clone())
            .collect())
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
    /// * derived acceleration structures (spatial/attr indexes), exactly
    ///   as in [`ToJson`](most_testkit::ser::ToJson) — a recovered or
    ///   replicated copy that rebuilds them on demand still fingerprints
    ///   equal;
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
                Json::Obj(fields) => {
                    fields.iter_mut().find(|(n, _)| n == name).map(|(_, v)| v)
                }
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
            for tup in &entry.answer.tuples {
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
    pub fn enable_spatial_index(&mut self, space: Rect) {
        // Lifetime 2× the query horizon so a query window [now, now + H]
        // always fits inside the current epoch (the epoch rolls once the
        // clock is more than H past its start).
        let mut index = MovingObjectIndex2D::new(self.expiration * 2, space);
        let now = self.clock;
        for (id, obj) in self.objects.iter() {
            if let (Some(p), Some(v)) = (obj.position_at(now), obj.velocity_at(now)) {
                index.insert(id, 0, p, v);
            }
        }
        self.derived.spatial_index = Some(SpatialIndexState { index, space, epoch: now });
    }

    /// Whether the position index is maintained.
    pub fn has_spatial_index(&self) -> bool {
        self.derived.spatial_index.is_some()
    }

    /// Index-assisted candidate lookup: ids of objects whose indexed motion
    /// intersects `bbox` during the *global* tick window `[from, to]`.
    /// `None` when no index is enabled or the window leaves the current
    /// epoch.
    pub(crate) fn index_window_candidates(
        &self,
        from: Tick,
        to: Tick,
        bbox: &Rect,
    ) -> Option<Vec<u64>> {
        let ix = self.derived.spatial_index.as_ref()?;
        if from < ix.epoch || to - ix.epoch > ix.index.lifetime() {
            return None;
        }
        let (rows, _) = ix.index.query_window(from - ix.epoch, to - ix.epoch, bbox);
        Some(rows.into_iter().map(|(id, _)| id).collect())
    }

    /// Rolls the position index to a fresh epoch when the clock has
    /// outrun it ("the index needs to be reconstructed every T time
    /// units").  Returns whether a reconstruction happened.
    ///
    /// The epoch engine ([`crate::epoch::EpochDb::advance_epoch`]) calls
    /// this on the writer's copy before publishing, so reconstruction is
    /// paid at epoch boundaries and a published snapshot's index is
    /// always fresh enough for [`Database::objects_in_rect_at`].
    pub fn maintain_spatial_index(&mut self) -> bool {
        if let Some(ix) = &self.derived.spatial_index {
            if self.clock - ix.epoch > self.expiration {
                let space = ix.space;
                self.enable_spatial_index(space);
                return true;
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Dynamic-attribute index (Section 4 integration for range atoms)
    // ------------------------------------------------------------------

    /// Enables maintenance of the Section 4 dynamic-attribute index over
    /// `attr` with the given value range.  Existing objects' current states
    /// are bulk-indexed; attribute range atoms over `attr` (`o.PRICE <= c`
    /// and friends) then fetch index-pruned candidate sets instead of
    /// enumerating the whole domain.  Writes the index cannot absorb
    /// exactly mark it dirty — lookups fall back to full enumeration until
    /// [`Database::maintain_attr_index`] rebuilds it at the next epoch
    /// boundary — so answers never depend on index health.
    pub fn enable_attr_index(
        &mut self,
        attr: impl Into<String>,
        kind: IndexKind,
        value_range: (f64, f64),
    ) {
        let attr = attr.into();
        self.derived.attr_index = Some(Arc::new(self.build_attr_index(attr, kind, value_range)));
    }

    /// Whether a dynamic-attribute index is maintained (dirty or not).
    pub fn has_attr_index(&self) -> bool {
        self.derived.attr_index.is_some()
    }

    fn build_attr_index(
        &self,
        attr: String,
        kind: IndexKind,
        value_range: (f64, f64),
    ) -> AttrIndexState {
        // Lifetime 2× the query horizon, mirroring the position index: a
        // query window [now, now + H] always fits until the epoch rolls.
        let lifetime = self.expiration * 2;
        let now = self.clock;
        let mut index = DynamicAttributeIndex::new(kind, lifetime, value_range);
        let mut dirty = false;
        for (id, obj) in self.objects.iter() {
            match attr_line(obj, &attr, now) {
                AttrLine::Absent => {}
                AttrLine::Line(value, slope) => {
                    if line_in_range(value, slope, lifetime, value_range) {
                        index.insert(id, 0, value, slope);
                    } else {
                        dirty = true;
                    }
                }
                AttrLine::Quadratic => dirty = true,
            }
        }
        AttrIndexState { attr, kind, index, epoch: now, dirty }
    }

    /// Index-assisted candidate lookup for attribute range atoms: ids whose
    /// indexed `attr` line can pass through `[lo, hi]` during the *global*
    /// tick window `[from, to]`.  `None` when no usable index covers the
    /// window (none enabled, different attribute, dirty, or the window
    /// leaves the current epoch).
    pub(crate) fn attr_index_range_candidates(
        &self,
        attr: &str,
        from: Tick,
        to: Tick,
        lo: f64,
        hi: f64,
    ) -> Option<Vec<u64>> {
        let ix = self.derived.attr_index.as_ref()?;
        if ix.dirty || ix.attr != attr {
            return None;
        }
        if from < ix.epoch || to - ix.epoch > ix.index.lifetime() {
            return None;
        }
        Some(ix.index.range_candidates(from - ix.epoch, to - ix.epoch, lo, hi))
    }

    /// Rolls the dynamic-attribute index to a fresh epoch when a write
    /// marked it dirty or the clock has outrun it — same cadence and
    /// caller ([`crate::epoch::EpochDb::advance_epoch`]) as
    /// [`Database::maintain_spatial_index`].  Returns whether a
    /// reconstruction happened.
    pub fn maintain_attr_index(&mut self) -> bool {
        if let Some(ix) = &self.derived.attr_index {
            if ix.dirty || self.clock - ix.epoch > self.expiration {
                let attr = ix.attr.clone();
                let kind = ix.kind;
                let range = ix.index.value_range();
                self.derived.attr_index = Some(Arc::new(self.build_attr_index(attr, kind, range)));
                most_obs::inc("index.attr_rebuilds");
                return true;
            }
        }
        false
    }

    /// Objects currently inside the rectangle, answered from the index when
    /// enabled (O(log n) access), otherwise by scanning all objects.
    /// Returns the ids and whether the index was used.
    pub fn objects_in_rect(&mut self, rect: &Rect) -> (Vec<u64>, bool) {
        self.maintain_spatial_index();
        self.objects_in_rect_at(rect)
    }

    /// Read-only variant of [`Database::objects_in_rect`] for pinned
    /// epoch snapshots, which must never mutate: a stale index (clock
    /// past the epoch's horizon) falls back to the linear scan instead of
    /// reconstructing in place.
    pub fn objects_in_rect_at(&self, rect: &Rect) -> (Vec<u64>, bool) {
        let now = self.clock;
        match &self.derived.spatial_index {
            Some(ix) if now - ix.epoch <= self.expiration => {
                let (ids, _) = ix.index.query_at(now - ix.epoch, rect);
                (ids, true)
            }
            _ => {
                let ids = self
                    .objects
                    .iter()
                    .filter(|(_, o)| {
                        o.position_at(now).is_some_and(|p| rect.contains(p))
                    })
                    .map(|(id, _)| id)
                    .collect();
                (ids, false)
            }
        }
    }
}

/// Whether a formula references a fixed object id through a constant term
/// (only constructible programmatically; the FTL grammar has no id
/// literals).  A row of such a query depends on an object it does not
/// bind, so per-shard evaluation cannot answer it.
pub(crate) fn formula_mentions_fixed_objects(f: &most_ftl::Formula) -> bool {
    use most_ftl::ast::{Formula, Term};
    fn term_has_id(t: &Term) -> bool {
        match t {
            Term::Const(Value::Id(_)) => true,
            Term::Var(_) | Term::Const(_) | Term::Time | Term::Point(..) => false,
            Term::Attr(b, _) => term_has_id(b),
            Term::Dist(a, b) | Term::Arith(_, a, b) => term_has_id(a) || term_has_id(b),
        }
    }
    match f {
        Formula::Bool(_) => false,
        Formula::Cmp(_, a, b) => term_has_id(a) || term_has_id(b),
        Formula::Inside(t, _) | Formula::Outside(t, _) => term_has_id(t),
        Formula::InsideMoving(t, _, a) | Formula::OutsideMoving(t, _, a) => {
            term_has_id(t) || term_has_id(a)
        }
        Formula::WithinSphere(_, ts) => ts.iter().any(term_has_id),
        Formula::And(a, b)
        | Formula::Or(a, b)
        | Formula::Until(a, b)
        | Formula::UntilWithin(_, a, b) => {
            formula_mentions_fixed_objects(a) || formula_mentions_fixed_objects(b)
        }
        Formula::Not(a)
        | Formula::Nexttime(a)
        | Formula::Eventually(a)
        | Formula::Always(a)
        | Formula::EventuallyWithin(_, a)
        | Formula::EventuallyAfter(_, a)
        | Formula::AlwaysFor(_, a) => formula_mentions_fixed_objects(a),
        Formula::Assign(_, term, body) => {
            term_has_id(term) || formula_mentions_fixed_objects(body)
        }
    }
}

/// Shifts a local-tick answer (tick 0 = evaluation time) to global ticks.
pub fn shift_answer(answer: Answer, origin: Tick) -> Answer {
    let tuples = answer
        .tuples
        .into_iter()
        .map(|t| AnswerTuple {
            values: t.values,
            intervals: IntervalSet::from_intervals(
                t.intervals.intervals().iter().map(|iv| iv.shift_up(origin)),
            ),
        })
        .collect();
    Answer::new(answer.vars, tuples)
}

#[cfg(test)]
mod tests {
    use super::*;

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
            .update_position(m, MotionUpdate { position: Point::origin(), velocity: Velocity::zero() })
            .is_err());
        assert!(db.update_motion(99, Velocity::zero()).is_err());
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
        let (scan_ids, used) = db.objects_in_rect(&rect);
        assert!(!used);
        db.enable_spatial_index(Rect::new(-100.0, -100.0, 2000.0, 100.0));
        let (idx_ids, used) = db.objects_in_rect(&rect);
        assert!(used);
        assert_eq!(scan_ids, idx_ids);
        // Updates keep the index in sync.
        db.update_motion(1, Velocity::new(5.0, 0.0)).unwrap();
        db.advance_clock(30);
        let (idx_ids, _) = db.objects_in_rect(&rect);
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
        let (ids, used) = db.objects_in_rect(&Rect::new(240.0, -5.0, 260.0, 5.0));
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
        let (ids, used) = db.objects_in_rect(&Rect::new(90.0, -10.0, 110.0, 10.0));
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

    /// Runs the same mixed workload against two databases and asserts every
    /// continuous answer stays identical tick for tick.
    fn assert_twin_answers(mut fast: Database, mut slow: Database) {
        let queries = [
            "RETRIEVE o WHERE INSIDE(o, P)",
            "RETRIEVE o WHERE o.PRICE <= 100",
            "RETRIEVE o WHERE Eventually within 200 (INSIDE(o, P) AND o.PRICE <= 100)",
        ];
        let mut cqs = Vec::new();
        for text in queries {
            let q = Query::parse(text).unwrap();
            let f = fast.register_continuous(q.clone()).unwrap();
            let s = slow.register_continuous(q).unwrap();
            cqs.push((f, s));
        }
        type Step<'a> = (u64, &'a dyn Fn(&mut Database));
        let steps: &[Step] = &[
            (10, &|db| db.set_static(1, "PRICE", Value::from(60.0)).unwrap()),
            (5, &|db| db.update_motion(2, Velocity::new(-2.0, 0.0)).unwrap()),
            (0, &|db| db.set_static(2, "PRICE", Value::from(90.0)).unwrap()),
            (20, &|db| db.set_static(1, "PRICE", Value::from(140.0)).unwrap()),
            (1, &|db| db.update_motion(1, Velocity::new(2.0, 0.0)).unwrap()),
        ];
        for (ticks, step) in steps {
            fast.advance_clock(*ticks);
            slow.advance_clock(*ticks);
            step(&mut fast);
            step(&mut slow);
            let now = fast.now();
            for (f, s) in &cqs {
                assert_eq!(
                    fast.continuous_answer(*f).unwrap(),
                    slow.continuous_answer(*s).unwrap(),
                    "answers diverged at tick {now}"
                );
            }
        }
    }

    #[test]
    fn attr_index_matches_unindexed_refreshes() {
        let mut fast = highway_db();
        fast.enable_attr_index("PRICE", IndexKind::RTree, (0.0, 1000.0));
        assert!(fast.has_attr_index());
        let slow = highway_db();
        assert_twin_answers(fast, slow);
    }

    #[test]
    fn attr_index_prunes_and_recovers_from_dirt() {
        let mut db = Database::new(100);
        for i in 0..10 {
            let id = db.insert_moving_object("cars", Point::origin(), Velocity::zero());
            db.set_static(id, "PRICE", Value::from(i as f64 * 10.0)).unwrap();
        }
        db.enable_attr_index("PRICE", IndexKind::RTree, (0.0, 1000.0));
        let pruned = db
            .attr_index_range_candidates("PRICE", 0, 100, f64::NEG_INFINITY, 25.0)
            .expect("fresh index must serve lookups");
        assert_eq!(pruned, vec![1, 2, 3], "static prices 0/10/20 pass <= 25");
        // Other attributes and out-of-epoch windows are not served.
        assert!(db.attr_index_range_candidates("SPEED", 0, 100, 0.0, 1.0).is_none());
        assert!(db
            .attr_index_range_candidates("PRICE", 0, 10_000, 0.0, 1.0)
            .is_none());
        // A non-numeric write dirties the index: lookups fall back...
        db.set_static(1, "PRICE", Value::Str("n/a".into())).unwrap();
        assert!(db.attr_index_range_candidates("PRICE", 0, 100, 0.0, 25.0).is_none());
        // ...until the epoch boundary rebuilds it.
        assert!(db.maintain_attr_index());
        let pruned = db
            .attr_index_range_candidates("PRICE", 0, 100, f64::NEG_INFINITY, 25.0)
            .expect("rebuilt index must serve lookups again");
        assert_eq!(pruned, vec![2, 3], "object 1 no longer has a numeric price");
        assert!(!db.maintain_attr_index(), "clean index within its epoch stays put");
    }

    #[test]
    fn attr_index_tracks_linear_dynamic_attributes() {
        let mut db = Database::new(100);
        let id = db.insert_moving_object("cars", Point::origin(), Velocity::zero());
        db.set_dynamic_scalar(id, "FUEL", Some(50.0), Some(AttrFunction::Linear(-1.0)))
            .unwrap();
        db.enable_attr_index("FUEL", IndexKind::RTree, (-1000.0, 1000.0));
        // FUEL hits 10 at tick 40: a window before that must prune the car
        // out, a later one must keep it.
        assert_eq!(
            db.attr_index_range_candidates("FUEL", 0, 30, f64::NEG_INFINITY, 10.0),
            Some(vec![])
        );
        assert_eq!(
            db.attr_index_range_candidates("FUEL", 0, 60, f64::NEG_INFINITY, 10.0),
            Some(vec![id])
        );
        // An update at a later tick replaces the line's tail exactly.
        db.advance_clock(20); // FUEL = 30 now
        db.set_dynamic_scalar(id, "FUEL", Some(30.0), Some(AttrFunction::Linear(0.0)))
            .unwrap();
        assert_eq!(
            db.attr_index_range_candidates("FUEL", 20, 90, f64::NEG_INFINITY, 10.0),
            Some(vec![]),
            "refuelled-flat line never reaches 10"
        );
        // A quadratic function cannot be a line: the index goes dirty.
        db.set_dynamic_scalar(
            id,
            "FUEL",
            Some(30.0),
            Some(AttrFunction::Quadratic { accel: -0.1, slope: 0.0 }),
        )
        .unwrap();
        assert!(db.attr_index_range_candidates("FUEL", 20, 90, 0.0, 10.0).is_none());
    }
}
