//! The continuous-query refresh pass: filter → evaluate → merge.
//!
//! Continuous queries are materialized views (Section 2.3): `Answer(CQ)`
//! "has to be reevaluated when an update occurs that may change the set of
//! tuples".  [`Database::after_updates`] is that re-evaluation, run once
//! per explicit update batch, and this module is all of it:
//!
//! 1. **filter** — a query whose [`DepSet`](crate::deps::DepSet) no change
//!    in the batch can affect is skipped outright;
//! 2. **evaluate** — each surviving query is re-evaluated in full against
//!    the final batch state, by the evaluator instantaneous queries use, so
//!    a refreshed display equals a fresh query by construction;
//! 3. **merge** — the fresh answer replaces the materialized one from the
//!    current tick onwards.
//!
//! The pass is serial, one query at a time.  Parallelism in this engine
//! lives one level up, per shard (`crate::sharded`): work partitioned by
//! object scales, fan-out inside one batch was a knob no served workload
//! turned (EXPERIMENTS.md, E10).  Per-object refresh and a per-atom result
//! cache were tried, measured and removed (EXPERIMENTS.md, E3 and E14).

use crate::database::Database;
use crate::deps::UpdateKind;
use crate::error::{CoreError, CoreResult};
use most_ftl::answer::Answer;
use std::panic::{catch_unwind, AssertUnwindSafe};

impl Database {
    /// Refresh hook run after every explicit update batch.  Each change
    /// names the updated/inserted/removed object and the [`UpdateKind`]
    /// the dependency filter tests.
    ///
    /// A failing (or panicking) evaluation fails only the offending
    /// query's refresh: every other query still refreshes, the batch's
    /// mutations stay applied, and the first error is reported to the
    /// caller after the pass completes.
    pub(crate) fn after_updates(&mut self, changes: &[(u64, UpdateKind)]) -> CoreResult<()> {
        self.stats.updates += changes.len() as u64;
        if changes.is_empty() || self.continuous.is_empty() {
            return Ok(());
        }
        let boundary = self.now();
        most_obs::span!("refresh.eval");
        let (mut evaluated, mut skipped) = (0u64, 0u64);
        let mut first_err: Option<CoreError> = None;
        for id in self.continuous.ids() {
            let entry = self.continuous.get(id).expect("id from ids() snapshot");
            if !changes.iter().any(|(_, kind)| entry.deps.affected_by(kind)) {
                self.continuous.note_skipped(id);
                skipped += 1;
                continue;
            }
            evaluated += 1;
            match timed_eval(|| self.evaluate_global(&entry.query)) {
                (Ok(fresh), nanos) => self.continuous.refresh(id, boundary, fresh, nanos),
                (Err(e), _) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        most_obs::add("refresh.total", evaluated + skipped);
        most_obs::add("refresh.skipped", skipped);
        most_obs::add("refresh.evaluated", evaluated);
        first_err.map_or(Ok(()), Err)
    }
}

/// Runs one refresh evaluation, returning its result and wall-clock cost
/// in nanoseconds.
///
/// Evaluation runs arbitrary FTL over arbitrary trajectories; a panic in
/// one query must fail only that query's refresh, not abort the whole pass
/// — which would unwind through the epoch writer and wedge the server.
/// The `AssertUnwindSafe` is justified: evaluation only reads the database.
fn timed_eval(eval: impl FnOnce() -> CoreResult<Answer>) -> (CoreResult<Answer>, u64) {
    let start = std::time::Instant::now();
    let result = catch_unwind(AssertUnwindSafe(eval)).unwrap_or_else(|payload| {
        most_obs::inc("refresh.worker_panics");
        Err(CoreError::EvalPanic(panic_message(&payload)))
    });
    let nanos = start.elapsed().as_nanos() as u64;
    most_obs::observe("refresh.query_nanos", nanos);
    (result, nanos)
}

/// Renders a `catch_unwind`/`join` payload: `&str` and `String` payloads
/// (everything `panic!` produces in practice) verbatim, anything else
/// generically.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use most_ftl::Query;
    use most_spatial::{Point, Polygon, Velocity};

    #[test]
    fn empty_batch_is_fine() {
        let mut db = Database::new(300);
        db.insert_moving_object("cars", Point::origin(), Velocity::new(1.0, 0.0));
        db.add_region("P", Polygon::rectangle(100.0, -10.0, 150.0, 10.0));
        db.register_continuous(Query::parse("RETRIEVE o WHERE OUTSIDE(o, P)").unwrap())
            .unwrap();
        let evaluations = db.continuous_evaluations() + db.noop_refreshes();
        db.after_updates(&[]).unwrap();
        assert_eq!(
            db.continuous_evaluations() + db.noop_refreshes(),
            evaluations
        );
    }
}
