//! Persistent queries (Section 2.3) — the paper's deferred future work,
//! implemented over the recorded update history.
//!
//! "A persistent query at time t is a sequence of instantaneous queries on
//! the infinite history starting at t ... the different instantaneous
//! queries comprising a persistent query have the same starting point in
//! the history.  These histories may differ for different instantaneous
//! queries due to database updates executed after time t."
//!
//! Concretely: the query is (re-)evaluated against the history anchored at
//! its entry tick, where states up to the current clock replay the
//! *recorded* updates and later states extrapolate the current functions.
//! Because "the evaluation of persistent queries requires saving of
//! information about the way the database is updated over time", the
//! [`crate::object::MovingObject`] histories provide exactly that log.
//!
//! The canonical example is the paper's query R — "retrieve the objects
//! whose speed in the direction of the X-axis doubles within 10 minutes" —
//! which is never satisfied as an instantaneous or continuous query (each
//! implicit future history has constant speed) but becomes satisfied as a
//! persistent query once recorded updates exhibit the doubling; see the
//! test below and `tests/three_query_types.rs`.

use crate::database::Database;
use crate::error::CoreResult;
use most_dbms::value::Value;
use most_ftl::answer::Answer;
use most_ftl::Query;
use most_temporal::Tick;

/// A persistent query: anchored at its entry tick, re-evaluated on demand
/// against the recorded history.
#[derive(Debug, Clone)]
pub struct PersistentQuery {
    query: Query,
    entered_at: Tick,
    /// Evaluations performed (cost accounting).
    pub evaluations: u64,
}

impl PersistentQuery {
    /// Enters a persistent query at the database's current tick.
    pub fn enter(db: &Database, query: Query) -> Self {
        PersistentQuery {
            query,
            entered_at: db.now(),
            evaluations: 0,
        }
    }

    /// The query text.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The anchor tick.
    pub fn entered_at(&self) -> Tick {
        self.entered_at
    }

    /// Evaluates the query on the history starting at the anchor tick as
    /// recorded so far; the answer is in global ticks.
    pub fn answer(&mut self, db: &Database) -> CoreResult<Answer> {
        self.evaluations += 1;
        db.persistent_answer(&self.query, self.entered_at)
    }

    /// The instantiations satisfied at the anchor state given everything
    /// recorded so far — what the user of the persistent query sees "at
    /// that time" (the paper's "at time 2 object o should be retrieved").
    pub fn satisfied_now(&mut self, db: &Database) -> CoreResult<Vec<Vec<Value>>> {
        let at = self.entered_at;
        let answer = self.answer(db)?;
        Ok(answer
            .at_tick(at)
            .into_iter()
            .map(|t| t.values.clone())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use most_spatial::{Point, Velocity};

    /// The paper's Section 2.3 walk-through, in ticks: speed 5 at t=0,
    /// updated to 7 at t=1 and to 10 at t=2; query R = "speed in X doubles
    /// within 10".
    fn speed_doubling_db() -> (Database, u64) {
        let mut db = Database::new(100);
        let o = db.insert_moving_object("objects", Point::origin(), Velocity::new(5.0, 0.0));
        (db, o)
    }

    fn query_r() -> Query {
        Query::parse("RETRIEVE o WHERE [x <- o.VX] Eventually within 10 (o.VX >= 2 * x)").unwrap()
    }

    #[test]
    fn persistent_query_sees_recorded_doubling() {
        let (mut db, o) = speed_doubling_db();
        let mut pq = PersistentQuery::enter(&db, query_r());
        // At time 0: "no objects will be retrieved, since for each object,
        // the speed is identical in all future database states."
        assert!(pq.satisfied_now(&db).unwrap().is_empty());
        // Minute one: speed 7.
        db.advance_clock(1);
        db.update_motion(o, Velocity::new(7.0, 0.0)).unwrap();
        assert!(pq.satisfied_now(&db).unwrap().is_empty());
        // Minute two: speed 10 — doubled from 5 within two ticks.
        db.advance_clock(1);
        db.update_motion(o, Velocity::new(10.0, 0.0)).unwrap();
        let now = pq.satisfied_now(&db).unwrap();
        assert_eq!(now, vec![vec![Value::Id(o)]]);
        assert_eq!(pq.entered_at(), 0);
        assert!(pq.evaluations >= 3);
    }

    #[test]
    fn instantaneous_and_continuous_never_see_it() {
        // "But if we consider the query R as instantaneous or continuous o
        // will never be retrieved."
        let (mut db, o) = speed_doubling_db();
        let cq = db.register_continuous(query_r()).unwrap();
        db.advance_clock(1);
        db.update_motion(o, Velocity::new(7.0, 0.0)).unwrap();
        db.advance_clock(1);
        db.update_motion(o, Velocity::new(10.0, 0.0)).unwrap();
        // Instantaneous now: future speeds are constant 10.
        assert!(db.instantaneous_now(&query_r()).unwrap().is_empty());
        // Continuous: refreshed on each update, still empty at every tick.
        let ans = db.continuous_answer(cq).unwrap();
        assert!(ans.is_empty());
    }

    #[test]
    fn anchor_later_than_zero() {
        let (mut db, o) = speed_doubling_db();
        db.advance_clock(5);
        let mut pq = PersistentQuery::enter(&db, query_r());
        assert_eq!(pq.entered_at(), 5);
        db.advance_clock(1);
        db.update_motion(o, Velocity::new(10.0, 0.0)).unwrap();
        let now = pq.satisfied_now(&db).unwrap();
        assert_eq!(now, vec![vec![Value::Id(o)]]);
    }
}
