//! The continuous-query refresh pass: filter → evaluate → merge.
//!
//! Continuous queries are materialized views (Section 2.3): `Answer(CQ)`
//! "has to be reevaluated when an update occurs that may change the set of
//! tuples".  [`Database::after_updates`] is that re-evaluation, run once
//! per explicit update batch, and this module is all of it:
//!
//! 1. **filter** — a query whose [`DepSet`](crate::deps::DepSet) no change
//!    in the batch can affect is skipped outright, while its materialized
//!    window still covers the clock (the horizon rule, DESIGN.md §6);
//! 2. **evaluate** — each surviving query is re-evaluated against the
//!    final batch state, by the evaluator instantaneous queries use, on
//!    the window its answer still covers, so a refreshed display equals a
//!    fresh query on that window by construction.  A refresh never moves
//!    a window: only a query the clock has outrun is renewed, on a full
//!    one.  Inside its window an exact per-object query re-evaluates only
//!    the objects the batch touched and keeps every other row (DESIGN.md
//!    §6, "A refresh inside the window re-evaluates the objects the batch
//!    touched"); every other query is re-evaluated in full;
//! 3. **merge** — the fresh rows replace the materialized ones from the
//!    current tick onwards: every row after a full evaluation, the touched
//!    objects' rows after a delta one ([`crate::continuous::merge_answers`]).
//!
//! The pass is serial, one query at a time.  Parallelism in this engine
//! lives one level up, per shard (`crate::sharded`): work partitioned by
//! object scales, fan-out inside one batch was a knob no served workload
//! turned (EXPERIMENTS.md, E10).  The per-object refresh removed in
//! EXPERIMENTS.md, E3 moved each refreshed window and so left untouched
//! rows on a shorter one; the delta path is sound at every tick because
//! the window stays put until its renewal.  A per-atom result cache was
//! tried, measured and removed (EXPERIMENTS.md, E14).

use crate::database::Database;
use crate::deps::{DepSet, UpdateKind};
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
        self.refresh_pass(changes)
    }

    /// The clock's half of the horizon rule, run by
    /// [`Database::advance_clock`]: renews every query whose window no
    /// longer covers the clock.  A failed renewal keeps its query's answer
    /// and counts `refresh.renewal_errors`.  Its window still does not
    /// cover the clock, so every later `advance_clock` evaluates it once
    /// more until one succeeds; the next update pass reports the error.
    pub(crate) fn renew_horizons(&mut self) {
        let (now, expiration) = (self.now(), self.expiration());
        if self
            .continuous
            .iter()
            .any(|(_, e)| !e.covers(now, expiration))
        {
            let _ = self.refresh_pass(&[]);
        }
    }

    /// One filter → evaluate → merge pass over every query.  With no
    /// changes (the clock's pass) only renewals evaluate, and nothing
    /// counts as skipped.  Only a renewal moves a window.
    pub(crate) fn refresh_pass(&mut self, changes: &[(u64, UpdateKind)]) -> CoreResult<()> {
        let (boundary, expiration) = (self.now(), self.expiration());
        most_obs::span!("refresh.eval");
        let (mut evaluated, mut skipped, mut renewals, mut delta) = (0u64, 0u64, 0u64, 0u64);
        let mut first_err: Option<CoreError> = None;
        for id in self.continuous.ids() {
            let entry = self.continuous.get(id).expect("id from ids() snapshot");
            let renewal = !entry.covers(boundary, expiration);
            if !renewal && !changes.iter().any(|(_, kind)| entry.deps.affected_by(kind)) {
                if !changes.is_empty() {
                    self.continuous.note_skipped(id);
                    skipped += 1;
                }
                continue;
            }
            evaluated += 1;
            renewals += u64::from(renewal);
            let start = entry.evaluated_at;
            let start = if renewal { boundary } else { start };
            let end = start.saturating_add(expiration);
            // A renewal's window has moved, so it never takes this path.
            let touched = if !renewal && entry.per_object && entry.exact {
                touched_ids(changes, &entry.deps)
            } else {
                None
            };
            delta += u64::from(touched.is_some());
            // A delta refresh evaluates the touched objects still live: a
            // removed object's rows keep only their past, and a negation's
            // complement ranges over live objects only.
            let result = timed_eval(|| {
                let live = touched.as_ref().map(|ids| {
                    let is_live = |&id: &u64| self.object(id).is_ok();
                    ids.iter().copied().filter(is_live).collect()
                });
                self.evaluate_over(&entry.query, live, end)
            });
            match result {
                (Ok(fresh), nanos) => {
                    let touched = touched.as_deref();
                    self.continuous
                        .refresh(id, boundary, start, &fresh, touched, nanos)
                }
                (Err(e), _) => {
                    self.continuous.note_failed(id);
                    if renewal {
                        most_obs::inc("refresh.renewal_errors");
                    }
                    first_err.get_or_insert(e);
                }
            }
        }
        most_obs::add("refresh.total", evaluated + skipped);
        most_obs::add("refresh.skipped", skipped);
        most_obs::add("refresh.evaluated", evaluated);
        most_obs::add("refresh.horizon_renewals", renewals);
        most_obs::add("refresh.delta", delta);
        first_err.map_or(Ok(()), Err)
    }
}

/// The sorted ids of the objects whose changes affect `deps`, or `None`
/// when an affecting change names no object (a region write).
fn touched_ids(changes: &[(u64, UpdateKind)], deps: &DepSet) -> Option<Vec<u64>> {
    let mut ids = Vec::new();
    for (id, kind) in changes.iter().filter(|(_, kind)| deps.affected_by(kind)) {
        if matches!(kind, UpdateKind::Region(_)) {
            return None;
        }
        ids.push(*id);
    }
    ids.sort_unstable();
    ids.dedup();
    Some(ids)
}

/// Runs one refresh evaluation, returning its result and wall-clock cost
/// in nanoseconds.
fn timed_eval(eval: impl FnOnce() -> CoreResult<Answer>) -> (CoreResult<Answer>, u64) {
    let start = std::time::Instant::now();
    let result = guarded_eval(eval);
    let nanos = start.elapsed().as_nanos() as u64;
    most_obs::observe("refresh.query_nanos", nanos);
    (result, nanos)
}

/// Runs one evaluation behind the panic boundary: a panic becomes
/// [`CoreError::EvalPanic`] and counts `refresh.worker_panics`.
///
/// Evaluation runs arbitrary FTL over arbitrary trajectories; a panic in
/// one query must fail only that query's refresh (or registration), not
/// abort the whole pass — which would unwind through the epoch writer and
/// wedge the server.  The `AssertUnwindSafe` is justified: evaluation only
/// reads the database.
pub(crate) fn guarded_eval(eval: impl FnOnce() -> CoreResult<Answer>) -> CoreResult<Answer> {
    catch_unwind(AssertUnwindSafe(eval)).unwrap_or_else(|payload| {
        most_obs::inc("refresh.worker_panics");
        Err(CoreError::EvalPanic(panic_message(&payload)))
    })
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
