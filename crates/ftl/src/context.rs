//! The evaluation context: how the FTL evaluator sees the database.
//!
//! The appendix assumes "the current database state reflects the positions
//! of objects as of [time zero], and for each dynamic variable we have
//! functions denoting how these variables change over time", so that "the
//! future history of the database is implicitly defined".  [`EvalContext`]
//! is that implicit history: the object domain, each object's (piecewise-)
//! linear motion, its static attributes and the named regions queries may
//! reference.
//!
//! For an *instantaneous* or *continuous* query every trajectory has a
//! single leg (the current motion vector, extrapolated).  For a *persistent*
//! query the trajectory and attribute series contain the recorded updates —
//! which is precisely why persistent evaluation "requires saving of
//! information about the way the database is updated over time"
//! (Section 2.3).

use most_dbms::value::Value;
use most_spatial::{Polygon, Trajectory};
use most_temporal::{Horizon, Interval};
use std::collections::BTreeMap;

/// The evaluator's read-only view of a MOST database history starting at
/// tick 0 (= the query entry time, per the appendix convention).
pub trait EvalContext {
    /// The finite evaluation horizon (query expiration time).
    fn horizon(&self) -> Horizon;

    /// The active domain: ids of all objects, ascending.
    fn object_ids(&self) -> Vec<u64>;

    /// The motion of object `id` over the horizon (single-leg for
    /// instantaneous/continuous evaluation).
    fn trajectory(&self, id: u64) -> Option<Trajectory>;

    /// A static attribute's value series over the horizon: pairs of
    /// `(value, interval)` with disjoint intervals in order.  For
    /// instantaneous evaluation this is a single pair covering the horizon;
    /// persistent contexts return the recorded piecewise history.
    fn attr_series(&self, id: u64, name: &str) -> Vec<(Value, Interval)>;

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

    /// Index-assisted candidate pruning for attribute range atoms
    /// (`o.NAME <= c` and friends): ids of every object whose attribute
    /// `attr` *could* take a value in `[lo, hi]` somewhere on the horizon —
    /// a superset of the true answer; the evaluator still computes exact
    /// interval sets per candidate.  `None` (the default) means "no index;
    /// enumerate the whole domain".  Implementations must only return
    /// `Some` when every object carrying `attr` is covered by the index
    /// (objects without the attribute never satisfy a range comparison and
    /// may be pruned freely).
    fn attr_range_candidates(&self, _attr: &str, _lo: f64, _hi: f64) -> Option<Vec<u64>> {
        None
    }

    /// A *scalar dynamic attribute*'s piecewise-polynomial series: for each
    /// validity interval, coefficients `[a, b, c]` of `a·t² + b·t + c`
    /// (local evaluation time).  The paper's model covers "dynamic
    /// attributes \[that\] represent, for example, temperature, or fuel
    /// consumption"; this hook feeds them to the evaluator.  Defaults to
    /// empty (no such attribute), in which case the evaluator falls back to
    /// [`EvalContext::attr_series`].
    fn dynamic_series(&self, _id: u64, _name: &str) -> Vec<(Interval, [f64; 3])> {
        Vec::new()
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
    attrs: BTreeMap<String, Vec<(Value, Interval)>>,
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
            MemoryObject { trajectory, attrs: BTreeMap::new() },
        );
        self
    }

    /// Sets a static attribute constant over the horizon.
    pub fn set_attr(&mut self, id: u64, name: impl Into<String>, value: impl Into<Value>) -> &mut Self {
        let iv = Interval::new(0, self.horizon.end());
        if let Some(o) = self.objects.get_mut(&id) {
            o.attrs.insert(name.into(), vec![(value.into(), iv)]);
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
            o.attrs.insert(name.into(), series);
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

    fn trajectory(&self, id: u64) -> Option<Trajectory> {
        self.objects.get(&id).map(|o| o.trajectory.clone())
    }

    fn attr_series(&self, id: u64, name: &str) -> Vec<(Value, Interval)> {
        self.objects
            .get(&id)
            .and_then(|o| o.attrs.get(name))
            .cloned()
            .unwrap_or_default()
    }

    fn region(&self, name: &str) -> Option<Polygon> {
        self.regions.get(name).cloned()
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
        let series = ctx.attr_series(1, "PRICE");
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].0, Value::from(80.0));
        assert!(ctx.attr_series(1, "NOPE").is_empty());
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
        let s = ctx.attr_series(1, "SPEED_CLASS");
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].0, Value::Int(2));
    }
}
