//! The continuous-query refresh pass: filter → evaluate → merge.
//!
//! Continuous queries are materialized views (Section 2.3): `Answer(CQ)`
//! "has to be reevaluated when an update occurs that may change the set of
//! tuples".  [`Database::after_updates`] is that re-evaluation, run once
//! per explicit update batch, and this module is all of it:
//!
//! 1. **filter** — a query whose [`DepSet`] no change in the batch can
//!    affect is skipped outright;
//! 2. **evaluate** — each surviving query re-evaluates against the final
//!    batch state, through its compiled plan in [`RefreshMode::Full`] or
//!    per changed object in [`RefreshMode::Incremental`];
//! 3. **merge** — the fresh answer replaces the materialized one from the
//!    current tick onwards.
//!
//! The pass is serial, one query at a time.  Parallelism in this engine
//! lives one level up, per shard (`crate::sharded`): work partitioned by
//! object scales, fan-out inside one batch was a knob no served workload
//! turned (EXPERIMENTS.md, E10).

use crate::database::{formula_mentions_fixed_objects, Database, RefreshMode};
use crate::deps::{DepSet, UpdateKind};
use crate::error::{CoreError, CoreResult};
use most_dbms::value::Value;
use most_ftl::answer::{Answer, AnswerTuple};
use most_ftl::plan::{AtomCache, CompiledPlan};
use most_ftl::Query;
use most_temporal::IntervalSet;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Compiled-plan state of one registered continuous query: the flat atom
/// plan built once at registration, each atom's statically-extracted
/// dependency set, and the cached atom relations surviving across refreshes
/// (see [`most_ftl::plan`]).
#[derive(Debug, Clone)]
pub(crate) struct PlanState {
    pub(crate) plan: CompiledPlan,
    atom_deps: Vec<(String, DepSet)>,
    pub(crate) cache: AtomCache,
}

impl PlanState {
    pub(crate) fn compile(q: &Query) -> PlanState {
        let plan = CompiledPlan::compile(q);
        let atom_deps = plan
            .atoms()
            .iter()
            .map(|a| (a.key.clone(), DepSet::of_formula(&a.formula)))
            .collect();
        PlanState {
            plan,
            atom_deps,
            cache: AtomCache::new(),
        }
    }

    /// Stamps the cache to the current `(clock, generation)` and drops the
    /// entries this update batch can affect: exactly the atoms whose
    /// dependency set one of the change kinds touches (a `Domain` change
    /// touches every atom).  Unknown keys are dropped conservatively.
    fn invalidate_affected(&mut self, stamp: (u64, u64), changes: &[(u64, UpdateKind)]) {
        self.cache.ensure_stamp(stamp);
        let atom_deps = &self.atom_deps;
        self.cache.invalidate(|key| {
            atom_deps
                .iter()
                .find(|(k, _)| k == key)
                .is_none_or(|(_, deps)| changes.iter().any(|(_, kind)| deps.affected_by(kind)))
        });
    }
}

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
        // Evaluation borrows the whole database immutably while its plan's
        // atom cache refills, so the plans step outside for the pass.
        // Nothing between here and the hand-back returns early; were the
        // pass to unwind, the plans are derived state and recompile lazily.
        let mut plans = std::mem::take(&mut self.plans);
        // Ensure every registered query has a plan (lazy compilation covers
        // freshly-loaded databases and plans dropped by a panic), then
        // stamp each cache to the current tick/generation and drop exactly
        // the cached atoms this batch can affect.
        if self.compiled_plans() {
            for (id, entry) in self.continuous.iter() {
                plans
                    .entry(id)
                    .or_insert_with(|| PlanState::compile(&entry.query));
            }
        }
        let stamp = (boundary, self.plan_generation);
        for state in plans.values_mut() {
            state.invalidate_affected(stamp, changes);
        }
        let incremental = self.refresh_mode() == RefreshMode::Incremental;
        let mut changed: Vec<u64> = Vec::new();
        if incremental {
            changed.extend(changes.iter().map(|(oid, _)| *oid));
            changed.sort_unstable();
            changed.dedup();
        }
        let (mut evaluated, mut skipped) = (0u64, 0u64);
        let mut first_err: Option<CoreError> = None;
        for id in self.continuous.ids() {
            let entry = self.continuous.get(id).expect("id from ids() snapshot");
            if self.refresh_filtering()
                && !changes.iter().any(|(_, kind)| entry.deps.affected_by(kind))
            {
                self.continuous.note_skipped(id);
                skipped += 1;
                continue;
            }
            evaluated += 1;
            if incremental && !formula_mentions_fixed_objects(&entry.query.formula) {
                // Per changed object, a restricted re-evaluation against
                // the final batch state (each pinned evaluation sees all
                // mutations, so the per-object merges commute).
                let query = entry.query.clone();
                for &oid in &changed {
                    match timed_eval(|| self.evaluate_pinned(&query, oid)) {
                        (Ok(fresh), nanos) => {
                            most_obs::inc("refresh.incremental");
                            self.continuous.refresh_incremental(
                                id,
                                boundary,
                                &Value::Id(oid),
                                fresh,
                                nanos,
                            );
                        }
                        (Err(e), _) => {
                            first_err.get_or_insert(e);
                            break; // the remaining objects keep their pre-batch rows
                        }
                    }
                }
            } else {
                let (result, nanos) =
                    timed_eval(|| self.evaluate_global_via(&entry.query, plans.get_mut(&id)));
                match result {
                    Ok(fresh) => self.continuous.refresh(id, boundary, fresh, nanos),
                    Err(e) => {
                        if matches!(e, CoreError::EvalPanic(_)) {
                            // The plan's atom cache may be half-written
                            // mid-panic; drop it so the next refresh
                            // recompiles from the AST.
                            plans.remove(&id);
                        }
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        self.plans = plans;
        most_obs::add("refresh.total", evaluated + skipped);
        most_obs::add("refresh.skipped", skipped);
        most_obs::add("refresh.evaluated", evaluated);
        first_err.map_or(Ok(()), Err)
    }

    /// Evaluates `q` restricted to instantiations that bind `id` in at
    /// least one target variable.  For each target `v`, the variable is
    /// *substituted* by the constant object (`Formula::pin`), so every atom
    /// mentioning `v` evaluates once for that object instead of being
    /// enumerated over the whole domain — this is what makes the
    /// incremental refresh cheaper than a full one.
    fn evaluate_pinned(&self, q: &Query, id: u64) -> CoreResult<Answer> {
        let mut merged: BTreeMap<Vec<Value>, IntervalSet> = BTreeMap::new();
        let pin_value = Value::Id(id);
        for (pos, var) in q.targets.iter().enumerate() {
            let pinned_formula = q.formula.pin(var, &pin_value);
            let other_targets: Vec<String> =
                q.targets.iter().filter(|t| *t != var).cloned().collect();
            let pinned = Query {
                targets: other_targets,
                formula: pinned_formula,
            };
            let answer = self.evaluate_global(&pinned)?;
            for tup in answer.tuples {
                // Re-insert the pinned value at every position held by
                // `var` (duplicate target names share one column value).
                let mut values = Vec::with_capacity(q.targets.len());
                let mut it = tup.values.into_iter();
                for (i, t) in q.targets.iter().enumerate() {
                    if i == pos || t == var {
                        values.push(pin_value.clone());
                    } else {
                        values.push(it.next().expect("arity matches other_targets"));
                    }
                }
                merged
                    .entry(values)
                    .and_modify(|s| *s = s.union(&tup.intervals))
                    .or_insert(tup.intervals);
            }
        }
        Ok(Answer::new(
            q.targets.clone(),
            merged
                .into_iter()
                .map(|(values, intervals)| AnswerTuple { values, intervals })
                .collect(),
        ))
    }
}

/// Runs one refresh evaluation, returning its result and wall-clock cost
/// in nanoseconds.
///
/// Evaluation runs arbitrary FTL over arbitrary trajectories; a panic in
/// one query must fail only that query's refresh, not abort the whole pass
/// — which would unwind through the epoch writer and wedge the server.
/// The `AssertUnwindSafe` is justified: the database is only read, and the
/// one thing an evaluation writes (its plan's atom cache) is discarded by
/// the caller on [`CoreError::EvalPanic`].
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
    use crate::database::UpdateOp;
    use most_spatial::{Point, Polygon, Velocity};

    const QUERIES: [&str; 2] = [
        "RETRIEVE o WHERE Eventually within 200 INSIDE(o, P)",
        "RETRIEVE o WHERE OUTSIDE(o, P)",
    ];

    /// `n` cars moving right past region P, one CQ per entry of
    /// [`QUERIES`]; returns the database and the CQ ids.
    fn db_with_cars(n: u64, compiled: bool) -> (Database, Vec<u64>) {
        let mut db = Database::new(300);
        db.set_compiled_plans(compiled);
        for i in 0..n {
            db.insert_moving_object(
                "cars",
                Point::new(i as f64 * 5.0, 0.0),
                Velocity::new(1.0, 0.0),
            );
        }
        db.add_region("P", Polygon::rectangle(100.0, -10.0, 150.0, 10.0));
        let cqs = QUERIES
            .iter()
            .map(|src| db.register_continuous(Query::parse(src).unwrap()).unwrap())
            .collect();
        (db, cqs)
    }

    #[test]
    fn compiled_plans_match_interpreter() {
        let (mut interpreted, cqs) = db_with_cars(40, false);
        let (mut compiled, _) = db_with_cars(40, true);
        for step in 0..4u64 {
            let batch = [UpdateOp::Motion {
                id: step + 1,
                velocity: Velocity::new(2.0 + step as f64, 0.0),
            }];
            for db in [&mut interpreted, &mut compiled] {
                db.advance_clock(3);
                db.apply_updates(&batch).unwrap();
            }
            for &cq in &cqs {
                assert_eq!(
                    interpreted.continuous_answer(cq).unwrap(),
                    compiled.continuous_answer(cq).unwrap(),
                    "compiled plans must reproduce interpreter answers"
                );
            }
            assert_eq!(
                compiled.plans.len(),
                cqs.len(),
                "plans come back after the pass"
            );
            assert!(interpreted.plans.is_empty());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (mut db, _) = db_with_cars(1, true);
        let evaluations = db.continuous_evaluations() + db.noop_refreshes();
        db.after_updates(&[]).unwrap();
        assert_eq!(
            db.continuous_evaluations() + db.noop_refreshes(),
            evaluations
        );
    }
}
