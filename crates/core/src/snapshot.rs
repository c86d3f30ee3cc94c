//! Evaluation contexts over a MOST database.
//!
//! FTL formulas are always evaluated on a history whose tick 0 is the query
//! entry time (appendix convention).  [`DbContext`] adapts a [`Database`]
//! to [`most_ftl::EvalContext`] by translating between global clock ticks
//! and that local frame, in one of two modes:
//!
//! * [`ContextMode::Current`] — the implicit future history of
//!   *instantaneous and continuous* queries: each object's state **as of
//!   the origin tick**, extrapolated forward by its current function.
//!   Updates recorded before the origin are irrelevant (only the current
//!   sub-attribute values matter) and updates after it do not exist yet.
//! * [`ContextMode::Recorded`] — the history a *persistent* query sees: all
//!   updates recorded since the origin replay at their recorded ticks, and
//!   the last state extrapolates into the future.  This is the
//!   "saving of information about the way the database is updated over
//!   time" that Section 2.3 calls for.

use crate::database::Database;
use crate::dynamic::AttrFunction;
use crate::object::MovingObject;
use most_ftl::context::{StaticSeries, StoredAttr};
use most_ftl::{EvalContext, FtlResult};
use most_spatial::{MovingPoint, Polygon, Trajectory};
use most_temporal::{Horizon, Interval, Tick};

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
    origin: Tick,
    horizon: Horizon,
    mode: ContextMode,
}

impl<'a> DbContext<'a> {
    /// Creates a context whose local tick 0 is global tick `origin`.
    pub fn new(db: &'a Database, origin: Tick, mode: ContextMode) -> Self {
        DbContext {
            db,
            origin,
            horizon: Horizon::new(db.expiration()),
            mode,
        }
    }

    /// This context with its horizon cut to end at global tick `end`, where
    /// a continuous query's materialized window ends (DESIGN.md §6).
    pub(crate) fn until(mut self, end: Tick) -> Self {
        self.horizon = Horizon::new(end.saturating_sub(self.origin));
        self
    }

    /// The global tick corresponding to local tick 0.
    pub fn origin(&self) -> Tick {
        self.origin
    }

    fn global_end(&self) -> Tick {
        self.origin + self.horizon.end()
    }

    /// A static attribute's `(value, interval)` series in local ticks.
    fn static_series(&self, obj: &MovingObject, name: &str) -> StaticSeries {
        match self.mode {
            ContextMode::Current => match obj.static_at(name, self.origin) {
                Some(v) => StaticSeries::One((v.clone(), Interval::new(0, self.horizon.end()))),
                None => StaticSeries::Many(Vec::new()),
            },
            ContextMode::Recorded => {
                // Clip each entry to [origin, global_end] and shift to local
                // ticks; an entry in force *at* the origin clips to start at
                // local 0.
                let mut out = Vec::new();
                for (value, iv) in obj.static_series(name, self.global_end()) {
                    let lo = iv.begin().max(self.origin);
                    let hi = iv.end();
                    if hi < self.origin {
                        continue;
                    }
                    out.push((value, Interval::new(lo - self.origin, hi - self.origin)));
                }
                StaticSeries::Many(out)
            }
        }
    }

    /// A scalar dynamic attribute's polynomial pieces in local ticks.
    fn dynamic_series(&self, obj: &MovingObject, name: &str) -> Vec<(Interval, [f64; 3])> {
        let coeffs = |state: &crate::dynamic::DynamicAttribute| -> [f64; 3] {
            // value(τ) for local τ:  v + f((τ + origin) − updatetime)
            let delta = self.origin as f64 - state.updatetime as f64;
            match state.function {
                AttrFunction::Linear(s) => [0.0, s, state.value + s * delta],
                AttrFunction::Quadratic { accel, slope } => [
                    accel,
                    2.0 * accel * delta + slope,
                    state.value + accel * delta * delta + slope * delta,
                ],
            }
        };
        match self.mode {
            ContextMode::Current => match obj.dynamic_at(name, self.origin) {
                Some(state) => {
                    vec![(Interval::new(0, self.horizon.end()), coeffs(&state))]
                }
                None => Vec::new(),
            },
            ContextMode::Recorded => {
                let Some(history) = obj.dynamic_history(name) else {
                    return Vec::new();
                };
                let mut out = Vec::new();
                for (i, state) in history.iter().enumerate() {
                    let from_global = state.updatetime.max(self.origin);
                    let until_global = history
                        .get(i + 1)
                        .map(|n| n.updatetime.saturating_sub(1))
                        .unwrap_or(self.global_end())
                        .min(self.global_end());
                    if until_global < self.origin || from_global > until_global {
                        continue;
                    }
                    // A state set before the origin is in force from local 0.
                    let lo = from_global - self.origin;
                    let hi = until_global - self.origin;
                    out.push((Interval::new(lo, hi), coeffs(state)));
                }
                // Before its first explicit set the attribute is undefined
                // (no piece), matching the static-attribute convention.
                out
            }
        }
    }

    /// [`EvalContext::trajectory`] of an object already in hand.
    fn trajectory_of(&self, obj: &MovingObject) -> Option<Trajectory> {
        let traj = obj.trajectory()?;
        match self.mode {
            ContextMode::Current => {
                // Single leg: the motion in force at the origin, rebased to
                // local tick 0.
                let leg = traj.leg_at(self.origin);
                let p = leg.position_at_tick(self.origin);
                Some(Trajectory::new(MovingPoint::new(p, 0, leg.velocity)))
            }
            ContextMode::Recorded => {
                let mut local: Option<Trajectory> = None;
                for (leg, lo, _hi) in traj.legs_between(self.origin, self.global_end()) {
                    let p = leg.position_at_tick(lo);
                    let local_tick = lo - self.origin;
                    match &mut local {
                        None => {
                            local = Some(Trajectory::new(MovingPoint::new(
                                p,
                                local_tick,
                                leg.velocity,
                            )))
                        }
                        Some(t) => t.update_position_and_velocity(local_tick, p, leg.velocity),
                    }
                }
                local
            }
        }
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
struct ObjectView<'c, 'a> {
    ctx: &'c DbContext<'a>,
    id: u64,
    obj: &'a MovingObject,
}

impl EvalContext for ObjectView<'_, '_> {
    fn horizon(&self) -> Horizon {
        self.ctx.horizon()
    }

    fn object_ids(&self) -> Vec<u64> {
        self.ctx.object_ids()
    }

    fn trajectory(&self, id: u64) -> Option<Trajectory> {
        if id == self.id {
            self.ctx.trajectory_of(self.obj)
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

    fn trajectory(&self, id: u64) -> Option<Trajectory> {
        self.trajectory_of(self.db.object(id).ok()?)
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
            .index_window_candidates(self.origin, self.global_end(), &region.reach())
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
        self.db
            .objects()
            .try_for_each(|(id, obj)| visit(id, &ObjectView { ctx: self, id, obj }))
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
    fn current_mode_extrapolates_from_origin() {
        let mut database = db();
        database.advance_clock(10);
        database.update_motion(1, Velocity::new(0.0, 2.0)).unwrap();
        database.advance_clock(5); // now = 15, at (10, 10)
        let ctx = DbContext::new(&database, 15, ContextMode::Current);
        let traj = ctx.trajectory(1).unwrap();
        // Local tick 0 == global 15: position (10, 10), heading north.
        assert_eq!(traj.position_at_tick(0), Point::new(10.0, 10.0));
        assert_eq!(traj.position_at_tick(5), Point::new(10.0, 20.0));
        assert_eq!(traj.legs().len(), 1);
        // Static attr spans the horizon.
        assert_eq!(
            ctx.attr(1, "PRICE"),
            StoredAttr::Static(StaticSeries::One((
                Value::from(80.0),
                Interval::new(0, 100)
            )))
        );
        // Fuel: 100 - t_global = 85 at origin, draining.
        assert_eq!(
            ctx.attr(1, "FUEL"),
            StoredAttr::Dynamic(vec![(Interval::new(0, 100), [0.0, -1.0, 85.0])])
        );
    }

    #[test]
    fn recorded_mode_replays_updates() {
        let mut database = db();
        database.advance_clock(10);
        database.update_motion(1, Velocity::new(2.0, 0.0)).unwrap();
        database.advance_clock(10); // now = 20
        let ctx = DbContext::new(&database, 0, ContextMode::Recorded);
        let traj = ctx.trajectory(1).unwrap();
        assert_eq!(traj.position_at_tick(5), Point::new(5.0, 0.0));
        assert_eq!(traj.position_at_tick(15), Point::new(20.0, 0.0));
        assert_eq!(traj.legs().len(), 2);
    }

    #[test]
    fn recorded_mode_shifts_origin() {
        let mut database = db();
        database.advance_clock(10);
        database.update_motion(1, Velocity::new(2.0, 0.0)).unwrap();
        let ctx = DbContext::new(&database, 5, ContextMode::Recorded);
        let traj = ctx.trajectory(1).unwrap();
        // Local 0 == global 5: position (5, 0), still at speed 1.
        assert_eq!(traj.position_at_tick(0), Point::new(5.0, 0.0));
        // Local 5 == global 10: the update kicks in.
        assert_eq!(traj.velocity_at_tick(5), Velocity::new(2.0, 0.0));
    }

    #[test]
    fn recorded_static_series_with_updates() {
        let mut database = db();
        database.advance_clock(10);
        database.set_static(1, "PRICE", Value::from(95.0)).unwrap();
        let ctx = DbContext::new(&database, 0, ContextMode::Recorded);
        let StoredAttr::Static(series) = ctx.attr(1, "PRICE") else {
            panic!("a static series");
        };
        assert_eq!(series.len(), 2);
        assert_eq!(series[0], (Value::from(80.0), Interval::new(0, 9)));
        assert_eq!(series[1].0, Value::from(95.0));
        assert_eq!(series[1].1.begin(), 10);
    }

    #[test]
    fn recorded_dynamic_series_with_updates() {
        let mut database = db();
        database.advance_clock(20);
        // Refuel to 100 at t=20, drain twice as fast.
        database
            .set_dynamic_scalar(1, "FUEL", Some(100.0), Some(AttrFunction::Linear(-2.0)))
            .unwrap();
        let ctx = DbContext::new(&database, 0, ContextMode::Recorded);
        let StoredAttr::Dynamic(series) = ctx.attr(1, "FUEL") else {
            panic!("dynamic pieces");
        };
        assert_eq!(series.len(), 2);
        // First piece: 100 - t over [0, 19].
        assert_eq!(series[0].0, Interval::new(0, 19));
        assert_eq!(series[0].1, [0.0, -1.0, 100.0]);
        // Second piece: 100 - 2(t - 20) = 140 - 2t from 20 on.
        assert_eq!(series[1].0.begin(), 20);
        assert_eq!(series[1].1, [0.0, -2.0, 140.0]);
    }

    #[test]
    fn missing_object_yields_empty() {
        let database = db();
        let ctx = DbContext::new(&database, 0, ContextMode::Current);
        assert!(ctx.trajectory(99).is_none());
        assert_eq!(ctx.attr(99, "PRICE"), StoredAttr::Missing);
        assert_eq!(ctx.attr(99, "FUEL"), StoredAttr::Missing);
        assert_eq!(ctx.attr(1, "NOPE"), StoredAttr::Missing);
    }
}
