//! The evaluation context: how the FTL evaluator sees the database.
//!
//! The appendix assumes "the current database state reflects the positions
//! of objects as of [the evaluation time], and for each dynamic variable we
//! have functions denoting how these variables change over time", so that
//! "the future history of the database is implicitly defined".
//! [`EvalContext`] is that implicit history: the object domain, each
//! object's (piecewise-) linear motion, its static attributes and the named
//! regions queries may reference.
//!
//! A context speaks the database's clock: its horizon starts at the tick
//! the evaluation begins at, and every trajectory, series and answer is in
//! global ticks.  For an *instantaneous* or *continuous* query the motion in
//! force at the horizon start extrapolates forward.  For a *persistent*
//! query the trajectory and attribute series contain the recorded updates —
//! which is precisely why persistent evaluation "requires saving of
//! information about the way the database is updated over time"
//! (Section 2.3).

use crate::error::FtlResult;
use most_dbms::value::Value;
use most_spatial::{Polygon, Trajectory};
use most_temporal::{Horizon, Interval, Tick};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The evaluator's read-only view of a MOST database history over the
/// global ticks of its [`horizon`](EvalContext::horizon).
pub trait EvalContext: AsEvalContext {
    /// The finite evaluation horizon: from the tick the evaluation begins
    /// at to the query expiration time.
    fn horizon(&self) -> Horizon;

    /// The active domain: ids of all objects, ascending.
    fn object_ids(&self) -> Vec<u64>;

    /// The size of the active domain, without building it.
    fn object_count(&self) -> usize {
        self.object_ids().len()
    }

    /// The motion of object `id`, in global ticks.  A context that stores
    /// the trajectory lends it; one that assembles it from other columns
    /// builds it.  Legs outside the horizon are never read.
    fn trajectory(&self, id: u64) -> Option<Cow<'_, Trajectory>>;

    /// What object `id` stores under the non-motion attribute `name`, read
    /// once: the evaluator's numeric analysis and its per-tick semantics
    /// both take their answer from this one call.
    fn attr(&self, id: u64, name: &str) -> StoredAttr;

    /// A named region (polygon) referenced by `INSIDE` / `OUTSIDE`.
    fn region(&self, name: &str) -> Option<Polygon>;

    /// Index-assisted candidate pruning for `INSIDE` atoms (the purpose of
    /// the Section 4 index: "avoid examining each moving object in the
    /// database").  Returns ids of every object whose motion *could* enter
    /// `region` within the horizon — a superset of the true answer; the
    /// evaluator still computes exact intervals per candidate.  `None`
    /// (the default) means "no index; enumerate the whole domain".
    fn inside_candidates(&self, _region: &Polygon) -> Option<Vec<u64>> {
        None
    }

    /// Calls `visit(id, view)` for each of an atom's candidates in
    /// ascending id order: the ids of `probe`, or the whole active domain
    /// when no probe applies.  `view` reads the same domain, motions,
    /// attributes and regions as this context; a context that can reach an
    /// object without looking it up may hand out a view that serves that
    /// object's `trajectory` / `attr` directly.  The default looks each id
    /// up through `self`.
    fn for_each_candidate(
        &self,
        probe: Option<&[u64]>,
        visit: &mut dyn FnMut(u64, &dyn EvalContext) -> FtlResult<()>,
    ) -> FtlResult<()> {
        let view = self.as_eval_context();
        match probe {
            Some(ids) => ids.iter().try_for_each(|&id| visit(id, view)),
            None => self
                .object_ids()
                .into_iter()
                .try_for_each(|id| visit(id, view)),
        }
    }
}

/// `self` as a trait object, for [`EvalContext`]'s default methods (which
/// cannot unsize `Self` themselves).  Implemented for every sized context.
pub trait AsEvalContext {
    /// `self` as `&dyn EvalContext`.
    fn as_eval_context(&self) -> &dyn EvalContext;
}

impl<T: EvalContext> AsEvalContext for T {
    fn as_eval_context(&self) -> &dyn EvalContext {
        self
    }
}

/// An object's stored attribute over the horizon, as [`EvalContext::attr`]
/// returns it.
#[derive(Debug, Clone, PartialEq)]
pub enum StoredAttr {
    /// No such object, or no piece of the attribute on the horizon.
    Missing,
    /// A static attribute's value series.  For instantaneous evaluation
    /// this is a single pair covering the horizon; persistent contexts
    /// return the recorded piecewise history.
    Static(StaticSeries),
    /// A *scalar dynamic attribute*'s piecewise-polynomial series: for each
    /// validity interval, its anchor tick `u` and coefficients `[a, b, c]`
    /// of `a·(t − u)² + b·(t − u) + c` at global tick `t` (the stored
    /// `updatetime` and function, so no coefficient grows with the clock).
    /// The paper's model covers "dynamic attributes \[that\] represent,
    /// for example, temperature, or fuel consumption".  A dynamic attribute
    /// shadows a static one of the same name; ticks outside its pieces are
    /// undefined.
    Dynamic(Vec<(Interval, Tick, [f64; 3])>),
}

/// A static attribute's `(value, interval)` pairs, disjoint and in order.
/// A current read is one value over the whole horizon, held inline so that
/// reading it allocates nothing; a recorded history keeps its `Vec`.
#[derive(Debug, Clone, PartialEq)]
pub enum StaticSeries {
    /// One entry.
    One((Value, Interval)),
    /// Any number of entries.
    Many(Vec<(Value, Interval)>),
}

impl std::ops::Deref for StaticSeries {
    type Target = [(Value, Interval)];

    fn deref(&self) -> &Self::Target {
        match self {
            StaticSeries::One(entry) => std::slice::from_ref(entry),
            StaticSeries::Many(entries) => entries,
        }
    }
}

/// A self-contained in-memory context: the simplest possible MOST "database"
/// for tests, examples and benchmarks.
#[derive(Debug, Clone, Default)]
pub struct MemoryContext {
    horizon: Horizon,
    objects: BTreeMap<u64, MemoryObject>,
    regions: BTreeMap<String, Polygon>,
}

#[derive(Debug, Clone)]
struct MemoryObject {
    trajectory: Trajectory,
    attrs: BTreeMap<String, StaticSeries>,
}

impl MemoryContext {
    /// Creates a context with the given horizon end.
    pub fn new(horizon_end: u64) -> Self {
        MemoryContext {
            horizon: Horizon::new(horizon_end),
            objects: BTreeMap::new(),
            regions: BTreeMap::new(),
        }
    }

    /// Adds an object with its motion.
    pub fn add_object(&mut self, id: u64, trajectory: Trajectory) -> &mut Self {
        self.objects.insert(
            id,
            MemoryObject {
                trajectory,
                attrs: BTreeMap::new(),
            },
        );
        self
    }

    /// Sets a static attribute constant over the horizon.
    pub fn set_attr(
        &mut self,
        id: u64,
        name: impl Into<String>,
        value: impl Into<Value>,
    ) -> &mut Self {
        let iv = self.horizon.span();
        if let Some(o) = self.objects.get_mut(&id) {
            o.attrs
                .insert(name.into(), StaticSeries::One((value.into(), iv)));
        }
        self
    }

    /// Sets a static attribute's piecewise series (for persistent-query
    /// style histories).
    pub fn set_attr_series(
        &mut self,
        id: u64,
        name: impl Into<String>,
        series: Vec<(Value, Interval)>,
    ) -> &mut Self {
        if let Some(o) = self.objects.get_mut(&id) {
            o.attrs.insert(name.into(), StaticSeries::Many(series));
        }
        self
    }

    /// Registers a named region.
    pub fn add_region(&mut self, name: impl Into<String>, poly: Polygon) -> &mut Self {
        self.regions.insert(name.into(), poly);
        self
    }
}

impl EvalContext for MemoryContext {
    fn horizon(&self) -> Horizon {
        self.horizon
    }

    fn object_ids(&self) -> Vec<u64> {
        self.objects.keys().copied().collect()
    }

    fn trajectory(&self, id: u64) -> Option<Cow<'_, Trajectory>> {
        self.objects.get(&id).map(|o| Cow::Borrowed(&o.trajectory))
    }

    fn attr(&self, id: u64, name: &str) -> StoredAttr {
        match self.objects.get(&id).and_then(|o| o.attrs.get(name)) {
            Some(series) => StoredAttr::Static(series.clone()),
            None => StoredAttr::Missing,
        }
    }

    fn region(&self, name: &str) -> Option<Polygon> {
        self.regions.get(name).cloned()
    }
}

/// A view of `inner` whose active domain is the sorted id set `ids`: the
/// restriction a conjunction passes to its second operand.  The index
/// probe is cut to `ids` too, so an atom enumerates its probe ∩ `ids`.
pub(crate) struct Restricted<'a> {
    pub(crate) inner: &'a dyn EvalContext,
    pub(crate) ids: Vec<u64>,
}

impl Restricted<'_> {
    /// `probe` ∩ the restriction.
    fn restrict(&self, mut probe: Vec<u64>) -> Vec<u64> {
        probe.retain(|id| self.ids.binary_search(id).is_ok());
        probe
    }
}

impl EvalContext for Restricted<'_> {
    fn horizon(&self) -> Horizon {
        self.inner.horizon()
    }

    fn object_ids(&self) -> Vec<u64> {
        self.ids.clone()
    }

    fn object_count(&self) -> usize {
        self.ids.len()
    }

    fn trajectory(&self, id: u64) -> Option<Cow<'_, Trajectory>> {
        self.inner.trajectory(id)
    }

    fn attr(&self, id: u64, name: &str) -> StoredAttr {
        self.inner.attr(id, name)
    }

    fn region(&self, name: &str) -> Option<Polygon> {
        self.inner.region(name)
    }

    fn inside_candidates(&self, region: &Polygon) -> Option<Vec<u64>> {
        Some(self.restrict(self.inner.inside_candidates(region)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use most_spatial::{Point, Velocity};

    #[test]
    fn memory_context_round_trip() {
        let mut ctx = MemoryContext::new(100);
        ctx.add_object(
            1,
            Trajectory::starting_at(Point::origin(), Velocity::new(1.0, 0.0)),
        );
        ctx.set_attr(1, "PRICE", 80.0);
        ctx.add_region("P", Polygon::rectangle(0.0, 0.0, 10.0, 10.0));

        assert_eq!(ctx.horizon().end(), 100);
        assert_eq!(ctx.object_ids(), vec![1]);
        assert!(ctx.trajectory(1).is_some());
        assert!(ctx.trajectory(2).is_none());
        assert_eq!(
            ctx.attr(1, "PRICE"),
            StoredAttr::Static(StaticSeries::One((
                Value::from(80.0),
                Interval::new(0, 100)
            )))
        );
        assert_eq!(ctx.attr(1, "NOPE"), StoredAttr::Missing);
        assert_eq!(ctx.attr(2, "PRICE"), StoredAttr::Missing);
        assert!(ctx.region("P").is_some());
        assert!(ctx.region("Q").is_none());
    }

    #[test]
    fn attr_series_piecewise() {
        let mut ctx = MemoryContext::new(10);
        ctx.add_object(
            1,
            Trajectory::starting_at(Point::origin(), Velocity::zero()),
        );
        ctx.set_attr_series(
            1,
            "SPEED_CLASS",
            vec![
                (Value::Int(1), Interval::new(0, 4)),
                (Value::Int(2), Interval::new(5, 10)),
            ],
        );
        let StoredAttr::Static(s) = ctx.attr(1, "SPEED_CLASS") else {
            panic!("a static series");
        };
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].0, Value::Int(2));
    }
}
