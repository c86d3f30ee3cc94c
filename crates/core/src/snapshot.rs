//! Evaluation contexts over a MOST database.
//!
//! [`DbContext`] adapts a [`Database`] to [`most_ftl::EvalContext`] on the
//! database's own clock: the horizon starts at the tick the evaluation
//! begins at (its origin), and trajectories, series and answers are all in
//! global ticks.  Nothing is re-anchored: a trajectory leg keeps its stored
//! anchor, an attribute piece its stored `updatetime`.  The two modes
//! differ in which history they read:
//!
//! * [`ContextMode::Current`] — the implicit future history of
//!   *instantaneous and continuous* queries: each object's state **as of
//!   the origin**, the current clock, extrapolated forward by its current
//!   function (the motion leg in force there, copied inline).  Updates
//!   recorded before the origin are irrelevant (only the current
//!   sub-attribute values matter) and updates after it do not exist yet.
//! * [`ContextMode::Recorded`] — the history a *persistent* query sees: all
//!   updates recorded since the origin replay at their recorded ticks, and
//!   the last state extrapolates into the future; the stored trajectory is
//!   lent, not copied.  This is the
//!   "saving of information about the way the database is updated over
//!   time" that Section 2.3 calls for.

use crate::database::Database;
use crate::dynamic::{AttrFunction, DynamicAttribute};
use crate::object::MovingObject;
use most_ftl::context::{StaticSeries, StoredAttr};
use most_ftl::{EvalContext, FtlResult};
use most_spatial::{Polygon, Trajectory};
use most_temporal::{Horizon, Interval, Tick};
use std::borrow::Cow;

/// Which slice of the database history the context exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextMode {
    /// Current state extrapolated (instantaneous / continuous queries).
    Current,
    /// Recorded updates replayed (persistent queries).
    Recorded,
}

/// A [`most_ftl::EvalContext`] view of a [`Database`].
pub struct DbContext<'a> {
    db: &'a Database,
    horizon: Horizon,
    mode: ContextMode,
}

impl<'a> DbContext<'a> {
    /// A context over the ticks of `horizon`.  A [`ContextMode::Current`]
    /// horizon starts at the clock: [`Database::current_context`].
    pub(crate) fn new(db: &'a Database, horizon: Horizon, mode: ContextMode) -> Self {
        DbContext { db, horizon, mode }
    }

    /// This context with its horizon cut to end at tick `end`, where a
    /// continuous query's materialized window ends (DESIGN.md §6).
    pub(crate) fn until(mut self, end: Tick) -> Self {
        let start = self.horizon.start();
        self.horizon = Horizon::between(start, end.max(start));
        self
    }

    /// The tick the evaluation begins at: the horizon's start.
    pub fn origin(&self) -> Tick {
        self.horizon.start()
    }

    /// A static attribute's `(value, interval)` series on the horizon.
    fn static_series(&self, obj: &MovingObject, name: &str) -> StaticSeries {
        match self.mode {
            ContextMode::Current => match obj.static_at(name, self.origin()) {
                Some(v) => StaticSeries::One((v.clone(), self.horizon.span())),
                None => StaticSeries::Many(Vec::new()),
            },
            // Each recorded entry clipped to the horizon; one in force at
            // the origin starts there.
            ContextMode::Recorded => {
                let mut series = obj.static_series(name, self.horizon.end());
                series.retain_mut(|(_, iv)| match iv.intersect(self.horizon.span()) {
                    Some(clipped) => {
                        *iv = clipped;
                        true
                    }
                    None => false,
                });
                StaticSeries::Many(series)
            }
        }
    }

    /// A scalar dynamic attribute's pieces on the horizon, each anchored at
    /// its state's `updatetime`.
    fn dynamic_series(&self, obj: &MovingObject, name: &str) -> Vec<(Interval, Tick, [f64; 3])> {
        // value(t) = v + f(t − updatetime)
        let piece = |iv: Interval, state: &DynamicAttribute| {
            let coeffs = match state.function {
                AttrFunction::Linear(s) => [0.0, s, state.value],
                AttrFunction::Quadratic { accel, slope } => [accel, slope, state.value],
            };
            (iv, state.updatetime, coeffs)
        };
        match self.mode {
            ContextMode::Current => match obj.dynamic_at(name, self.origin()) {
                Some(state) => vec![piece(self.horizon.span(), &state)],
                None => Vec::new(),
            },
            ContextMode::Recorded => {
                let Some(history) = obj.dynamic_history(name) else {
                    return Vec::new();
                };
                // Each state holds until the next one's updatetime; before
                // the first explicit set the attribute is undefined (no
                // piece), matching the static-attribute convention.
                let until = |i: usize| {
                    history
                        .get(i + 1)
                        .map_or(Tick::MAX, |next| next.updatetime.saturating_sub(1))
                };
                history
                    .iter()
                    .enumerate()
                    .filter_map(|(i, state)| {
                        let iv = Interval::try_new(state.updatetime, until(i))?;
                        Some(piece(iv.intersect(self.horizon.span())?, state))
                    })
                    .collect()
            }
        }
    }

    /// [`EvalContext::trajectory`] of an object already in hand, as
    /// stored: a current context (`CURRENT`) hands out the leg in force at
    /// the origin, copied inline with its own anchor; a recorded one lends
    /// the whole history.  The mode is a type parameter so that a
    /// whole-domain walk decides it once, not per candidate: a per-candidate
    /// branch on it cost the unindexed scan of MICRO `inside_scan` ~15%.
    fn trajectory_of<'o, const CURRENT: bool>(
        &self,
        obj: &'o MovingObject,
    ) -> Option<Cow<'o, Trajectory>> {
        let traj = obj.trajectory()?;
        Some(if CURRENT {
            Cow::Owned(Trajectory::new(traj.leg_at(self.origin())))
        } else {
            Cow::Borrowed(traj)
        })
    }

    /// [`EvalContext::attr`] of an object already in hand.
    fn attr_of(&self, obj: &MovingObject, name: &str) -> StoredAttr {
        let dynamic = self.dynamic_series(obj, name);
        if !dynamic.is_empty() {
            return StoredAttr::Dynamic(dynamic);
        }
        let series = self.static_series(obj, name);
        if series.is_empty() {
            StoredAttr::Missing
        } else {
            StoredAttr::Static(series)
        }
    }
}

/// What [`DbContext::for_each_candidate`] hands the atom for one object of
/// a whole-domain walk: `trajectory` / `attr` of that object read the
/// object the walk already holds, every other read goes to the context.
/// An atom never probes, so the probe keeps its "no index" default.
struct ObjectView<'c, 'a, const CURRENT: bool> {
    ctx: &'c DbContext<'a>,
    id: u64,
    obj: &'a MovingObject,
}

impl<const CURRENT: bool> EvalContext for ObjectView<'_, '_, CURRENT> {
    fn horizon(&self) -> Horizon {
        self.ctx.horizon()
    }

    fn object_ids(&self) -> Vec<u64> {
        self.ctx.object_ids()
    }

    fn trajectory(&self, id: u64) -> Option<Cow<'_, Trajectory>> {
        if id == self.id {
            self.ctx.trajectory_of::<CURRENT>(self.obj)
        } else {
            self.ctx.trajectory(id)
        }
    }

    fn attr(&self, id: u64, name: &str) -> StoredAttr {
        if id == self.id {
            self.ctx.attr_of(self.obj, name)
        } else {
            self.ctx.attr(id, name)
        }
    }

    fn region(&self, name: &str) -> Option<Polygon> {
        self.ctx.region(name)
    }
}

impl EvalContext for DbContext<'_> {
    fn horizon(&self) -> Horizon {
        self.horizon
    }

    fn object_ids(&self) -> Vec<u64> {
        self.db.object_ids()
    }

    fn object_count(&self) -> usize {
        self.db.len()
    }

    fn trajectory(&self, id: u64) -> Option<Cow<'_, Trajectory>> {
        let obj = self.db.object(id).ok()?;
        match self.mode {
            ContextMode::Current => self.trajectory_of::<true>(obj),
            ContextMode::Recorded => self.trajectory_of::<false>(obj),
        }
    }

    fn attr(&self, id: u64, name: &str) -> StoredAttr {
        match self.db.object(id) {
            Ok(obj) => self.attr_of(obj, name),
            Err(_) => StoredAttr::Missing,
        }
    }

    fn region(&self, name: &str) -> Option<Polygon> {
        self.db.region(name).cloned()
    }

    fn inside_candidates(&self, region: &Polygon) -> Option<Vec<u64>> {
        // Sound only for Current mode: the index covers the recorded
        // history *and* the currently extrapolated future, which is exactly
        // the history an instantaneous/continuous query sees.  Recorded
        // (persistent) evaluations replay arbitrary pasts and fall back to
        // full enumeration.
        if self.mode != ContextMode::Current {
            return None;
        }
        // The box `contains` can accept in, so the candidates hold every
        // object the scan's `inside_polygon` keeps.
        self.db
            .index_window_candidates(self.horizon.start(), self.horizon.end(), &region.reach())
    }

    fn for_each_candidate(
        &self,
        probe: Option<&[u64]>,
        visit: &mut dyn FnMut(u64, &dyn EvalContext) -> FtlResult<()>,
    ) -> FtlResult<()> {
        // A probe's ids are few: each is looked up.  The whole domain is
        // walked in id order, every object handed over in place.
        if let Some(ids) = probe {
            return ids.iter().try_for_each(|&id| visit(id, self));
        }
        let mut objects = self.db.objects();
        match self.mode {
            ContextMode::Current => objects
                .try_for_each(|(id, obj)| visit(id, &ObjectView::<true> { ctx: self, id, obj })),
            ContextMode::Recorded => objects
                .try_for_each(|(id, obj)| visit(id, &ObjectView::<false> { ctx: self, id, obj })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use most_dbms::value::Value;
    use most_spatial::{Point, Velocity};

    fn db() -> Database {
        let mut db = Database::new(100);
        let car = db.insert_moving_object("cars", Point::origin(), Velocity::new(1.0, 0.0));
        db.set_static(car, "PRICE", Value::from(80.0)).unwrap();
        db.set_dynamic_scalar(car, "FUEL", Some(100.0), Some(AttrFunction::Linear(-1.0)))
            .unwrap();
        db
    }

    #[test]
    fn current_mode_extrapolates_from_the_clock() {
        let mut database = db();
        database.advance_clock(10);
        database.update_motion(1, Velocity::new(0.0, 2.0)).unwrap();
        database.advance_clock(5); // now = 15, at (10, 10)
        let ctx = database.current_context();
        assert_eq!(ctx.horizon(), Horizon::between(15, 115));
        let traj = ctx.trajectory(1).unwrap();
        // Tick 15: position (10, 10), heading north, on the one leg in
        // force from the clock on.
        assert_eq!(traj.position_at_tick(15), Point::new(10.0, 10.0));
        assert_eq!(traj.position_at_tick(20), Point::new(10.0, 20.0));
        assert_eq!(traj.legs_between(15, 115).count(), 1);
        // Static attr spans the horizon.
        assert_eq!(
            ctx.attr(1, "PRICE"),
            StoredAttr::Static(StaticSeries::One((
                Value::from(80.0),
                Interval::new(15, 115)
            )))
        );
        // Fuel: 100 - t, set at tick 0, so 85 at the clock, draining.
        assert_eq!(
            ctx.attr(1, "FUEL"),
            StoredAttr::Dynamic(vec![(Interval::new(15, 115), 0, [0.0, -1.0, 100.0])])
        );
        assert_eq!(
            most_ftl::semantics::eval_attr(&ctx, 1, "FUEL", 15).unwrap(),
            Value::from(85.0)
        );
    }

    #[test]
    fn recorded_mode_replays_updates() {
        let mut database = db();
        database.advance_clock(10);
        database.update_motion(1, Velocity::new(2.0, 0.0)).unwrap();
        database.advance_clock(10); // now = 20
        let ctx = database.recorded_context(0);
        let traj = ctx.trajectory(1).unwrap();
        assert_eq!(traj.position_at_tick(5), Point::new(5.0, 0.0));
        assert_eq!(traj.position_at_tick(15), Point::new(20.0, 0.0));
        assert_eq!(traj.legs().len(), 2);
    }

    #[test]
    fn recorded_mode_starts_at_the_origin() {
        let mut database = db();
        database.advance_clock(10);
        database.update_motion(1, Velocity::new(2.0, 0.0)).unwrap();
        let ctx = database.recorded_context(5);
        assert_eq!(ctx.horizon(), Horizon::between(5, 105));
        let traj = ctx.trajectory(1).unwrap();
        // Tick 5: position (5, 0), still at speed 1.
        assert_eq!(traj.position_at_tick(5), Point::new(5.0, 0.0));
        // Tick 10: the update kicks in.
        assert_eq!(traj.velocity_at_tick(10), Velocity::new(2.0, 0.0));
        let legs: Vec<_> = traj
            .legs_between(5, 105)
            .map(|(_, lo, hi)| (lo, hi))
            .collect();
        assert_eq!(legs, vec![(5, 9), (10, 105)]);
    }

    #[test]
    fn recorded_static_series_with_updates() {
        let mut database = db();
        database.advance_clock(10);
        database.set_static(1, "PRICE", Value::from(95.0)).unwrap();
        let ctx = database.recorded_context(0);
        let StoredAttr::Static(series) = ctx.attr(1, "PRICE") else {
            panic!("a static series");
        };
        assert_eq!(series.len(), 2);
        assert_eq!(series[0], (Value::from(80.0), Interval::new(0, 9)));
        assert_eq!(series[1], (Value::from(95.0), Interval::new(10, 100)));
        // From a later origin the entry in force there is clipped to start
        // at it, on the same ticks.
        let StoredAttr::Static(series) = database.recorded_context(4).attr(1, "PRICE") else {
            panic!("a static series");
        };
        assert_eq!(series[0], (Value::from(80.0), Interval::new(4, 9)));
        assert_eq!(series[1], (Value::from(95.0), Interval::new(10, 104)));
    }

    #[test]
    fn recorded_dynamic_series_with_updates() {
        let mut database = db();
        database.advance_clock(20);
        // Refuel to 100 at t=20, drain twice as fast.
        database
            .set_dynamic_scalar(1, "FUEL", Some(100.0), Some(AttrFunction::Linear(-2.0)))
            .unwrap();
        let ctx = database.recorded_context(0);
        let StoredAttr::Dynamic(series) = ctx.attr(1, "FUEL") else {
            panic!("dynamic pieces");
        };
        assert_eq!(series.len(), 2);
        // First piece: 100 - t over [0, 19], anchored at tick 0.
        assert_eq!(series[0], (Interval::new(0, 19), 0, [0.0, -1.0, 100.0]));
        // Second piece: 100 - 2(t - 20) from 20 on, anchored at tick 20.
        assert_eq!(series[1], (Interval::new(20, 100), 20, [0.0, -2.0, 100.0]));
        for (t, fuel) in [(0, 100.0), (19, 81.0), (20, 100.0), (25, 90.0)] {
            assert_eq!(
                most_ftl::semantics::eval_attr(&ctx, 1, "FUEL", t).unwrap(),
                Value::from(fuel)
            );
        }
    }

    #[test]
    fn missing_object_yields_empty() {
        let database = db();
        let ctx = database.current_context();
        assert!(ctx.trajectory(99).is_none());
        assert_eq!(ctx.attr(99, "PRICE"), StoredAttr::Missing);
        assert_eq!(ctx.attr(99, "FUEL"), StoredAttr::Missing);
        assert_eq!(ctx.attr(1, "NOPE"), StoredAttr::Missing);
    }
}
