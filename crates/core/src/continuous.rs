//! Continuous queries: the materialized `Answer(CQ)` and its maintenance.
//!
//! Section 2.3: a continuous query is evaluated **once**, producing tuples
//! `(instantiation, begin, end)`; the display at each clock tick is served
//! from the materialized answer.  "A continuous query CQ has to be
//! reevaluated when an update occurs that may change the set of tuples
//! Answer(CQ).  In this sense Answer(CQ) is a materialized view."
//!
//! [`merge_answers`] implements the view-refresh rule: ticks before the
//! re-evaluation boundary were already served from the old answer and must
//! not be rewritten (the paper's example: an update before time 5 may turn
//! the tuple `(o, 5, 7)` into `(o, 6, 7)` — only the part of the answer
//! from the update time onwards changes).

use crate::deps::DepSet;
use most_dbms::value::Value;
use most_ftl::answer::{Answer, AnswerTuple};
use most_ftl::Query;
use most_temporal::{Duration, Interval, IntervalSet, Tick};
use most_testkit::ser::{FromJson, Json, JsonError, ToJson};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A registered continuous query.
#[derive(Debug, Clone)]
pub struct CqEntry {
    /// The query.
    pub query: Query,
    /// Global tick at which the query was entered.
    pub entered_at: Tick,
    /// Global tick the answer's window starts at: the registration, or
    /// the last renewal.  The answer covers ticks up to `evaluated_at +
    /// expiration`; a refresh inside that window evaluates on the rest of
    /// it and leaves this tick alone (the horizon rule, DESIGN.md §6).
    pub evaluated_at: Tick,
    /// Materialized answer, in **global** ticks.  Shared between epochs
    /// until a refresh changes it.
    pub answer: Arc<Answer>,
    /// Statically-extracted dependency set ([`DepSet::of_query`]); the
    /// refresh engine skips updates that cannot affect it.
    pub deps: DepSet,
    /// Answer-changing refresh evaluations applied to this entry.
    pub refreshes: u64,
    /// Refreshes skipped for this entry by dependency filtering.
    pub skipped: u64,
    /// Cumulative wall-clock nanoseconds spent re-evaluating this entry.
    pub refresh_nanos: u64,
    /// Whether each row depends on its own object alone
    /// ([`most_ftl::is_per_object`]).  Derived from `query`, not persisted.
    pub(crate) per_object: bool,
    /// Whether each object's rows of `answer`, from its last evaluation
    /// to the window end, are known to be a fresh evaluation of that
    /// object on that window, so a refresh inside the window may
    /// re-evaluate only the objects a batch touched (DESIGN.md §6): set
    /// by registration and each successful refresh, cleared by a failed
    /// one.  Not persisted, so a decoded entry is not vouched for until
    /// its next refresh.
    pub(crate) exact: bool,
}

impl CqEntry {
    /// The horizon rule: whether the materialized window still covers `now`.
    pub(crate) fn covers(&self, now: Tick, expiration: Duration) -> bool {
        now <= self.evaluated_at.saturating_add(expiration)
    }
}

/// Registry of live continuous queries.
#[derive(Debug, Clone, Default)]
pub struct ContinuousRegistry {
    next: u64,
    entries: BTreeMap<u64, CqEntry>,
    /// Number of evaluations that *changed* a materialized answer
    /// (initial registration + answer-changing refreshes) — the E3 cost
    /// metric.
    pub evaluations: u64,
    /// Refreshes skipped outright because the triggering updates were
    /// outside the query's dependency set (no evaluation performed).
    pub skipped_refreshes: u64,
    /// Refresh evaluations that ran but produced a merged answer identical
    /// to the materialized one (evaluation cost paid, no view change).
    pub noop_refreshes: u64,
}

impl ContinuousRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ContinuousRegistry::default()
    }

    /// Registers an evaluated query; returns its id.  The dependency set
    /// is extracted here, once, so every later update pays only a set
    /// lookup.
    pub fn register(&mut self, query: Query, entered_at: Tick, answer: Answer) -> u64 {
        let id = self.next;
        self.next += 1;
        let deps = DepSet::of_query(&query);
        let per_object = most_ftl::is_per_object(&query);
        self.entries.insert(
            id,
            CqEntry {
                query,
                entered_at,
                evaluated_at: entered_at,
                answer: Arc::new(answer),
                deps,
                refreshes: 0,
                skipped: 0,
                refresh_nanos: 0,
                per_object,
                exact: true,
            },
        );
        self.evaluations += 1;
        id
    }

    /// Looks up an entry.
    pub fn get(&self, id: u64) -> Option<&CqEntry> {
        self.entries.get(&id)
    }

    /// Cancels a continuous query ("until cancelled (e.g. until a
    /// satisfactory motel is found)").
    pub fn cancel(&mut self, id: u64) -> bool {
        self.entries.remove(&id).is_some()
    }

    /// Number of live queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(id, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &CqEntry)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Replaces an entry's answer after a refresh evaluation at
    /// `boundary` on the window starting at `start` (the entry's own, or
    /// `boundary` for a renewal).  `nanos` is the wall-clock cost of the
    /// evaluation that produced `answer`.
    ///
    /// Bumps `evaluations` only when the merged answer actually differs
    /// from the materialized one; a refresh whose merge is byte-identical
    /// past the boundary counts as a `noop_refreshes` instead, so the E3
    /// metric reports answer-*changing* evaluations.
    pub fn refresh(&mut self, id: u64, boundary: Tick, start: Tick, answer: Answer, nanos: u64) {
        if let Some(entry) = self.entries.get_mut(&id) {
            let merged = merge_answers(&entry.answer, &answer, boundary);
            entry.refresh_nanos += nanos;
            entry.evaluated_at = start;
            entry.exact = true;
            if merged == *entry.answer {
                self.noop_refreshes += 1;
            } else {
                entry.answer = Arc::new(merged);
                entry.refreshes += 1;
                self.evaluations += 1;
            }
        }
    }

    /// Records that a refresh evaluation of `id` failed: its answer keeps
    /// rows the failed pass should have replaced.
    pub(crate) fn note_failed(&mut self, id: u64) {
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.exact = false;
        }
    }

    /// Records that a refresh of `id` was skipped by dependency filtering.
    pub fn note_skipped(&mut self, id: u64) {
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.skipped += 1;
            self.skipped_refreshes += 1;
        }
    }

    /// Ids of all live queries (snapshot, for iteration while mutating).
    pub fn ids(&self) -> Vec<u64> {
        self.entries.keys().copied().collect()
    }
}

/// The difference between two continuous-query displays, as `(added,
/// removed)` row sets — the incremental payload a subscriber needs to move
/// from `prev` to `current` (the serving layer pushes exactly this instead
/// of re-sending the whole display every tick).
///
/// Both inputs are display snapshots as produced by
/// [`crate::Database::continuous_display`]: each row appears at most once
/// and rows are in ascending order (`Answer::new` sorts its tuples).  The
/// returned vectors preserve that order.
pub fn display_delta(
    prev: &[Vec<Value>],
    current: &[Vec<Value>],
) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    debug_assert!(prev.windows(2).all(|w| w[0] < w[1]), "prev display sorted");
    debug_assert!(
        current.windows(2).all(|w| w[0] < w[1]),
        "current display sorted"
    );
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < prev.len() && j < current.len() {
        match prev[i].cmp(&current[j]) {
            std::cmp::Ordering::Less => {
                removed.push(prev[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(current[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend(prev[i..].iter().cloned());
    added.extend(current[j..].iter().cloned());
    (added, removed)
}

/// Merges a materialized answer with a re-evaluation taken at `boundary`:
/// ticks `< boundary` keep the old answer (already served), ticks
/// `>= boundary` come from the new one.
pub fn merge_answers(old: &Answer, new: &Answer, boundary: Tick) -> Answer {
    // A real invariant, not a debug assert: in release builds a silent
    // mismatch would merge rows from differently-shaped answers into
    // garbage, and the sharded scatter-gather combine leans on this
    // function downstream of `combine_shard_answers`' own check.
    assert_eq!(
        old.vars, new.vars,
        "merge_answers: answers disagree on target variables"
    );
    let mut rows: BTreeMap<Vec<Value>, IntervalSet> = BTreeMap::new();
    if boundary > 0 {
        let past = IntervalSet::singleton(Interval::new(0, boundary - 1));
        for tup in &old.tuples {
            let clipped = tup.intervals.intersect(&past);
            if !clipped.is_empty() {
                rows.insert(tup.values.clone(), clipped);
            }
        }
    }
    // The future part must not extend below the boundary; `[boundary,
    // Tick::MAX]` is well-formed for every boundary, including `Tick::MAX`.
    let future = IntervalSet::singleton(Interval::new(boundary, Tick::MAX));
    for tup in &new.tuples {
        let clipped = tup.intervals.intersect(&future);
        if clipped.is_empty() {
            continue;
        }
        rows.entry(tup.values.clone())
            .and_modify(|s| *s = s.union(&clipped))
            .or_insert(clipped);
    }
    Answer::new(
        old.vars.clone(),
        rows.into_iter()
            .map(|(values, intervals)| AnswerTuple { values, intervals })
            .collect(),
    )
}

/// Combines per-shard answers to one scatter-gather query into a single
/// global answer.  Shards partition the object universe, so the same
/// instantiation can appear on at most one shard for single-variable
/// queries — but the combine is written for the general case: equal
/// instantiations have their interval sets unioned.
///
/// The result is order-independent by construction
/// ([`Answer::union_with`] is commutative and associative), so permuting
/// the shard answer order yields a byte-identical answer — the property
/// the cross-shard cut relies on for deterministic replies.
///
/// Errors with [`CoreError::AnswerVarsMismatch`](crate::error::CoreError::AnswerVarsMismatch)
/// when two shard answers
/// disagree on their target-variable lists (checked here, before the
/// panicking algebraic primitive), and rejects an empty slice because
/// there is no variable list to build an empty answer from (shard counts
/// are ≥ 1 everywhere in the engine).
pub fn combine_shard_answers(parts: &[Answer]) -> crate::error::CoreResult<Answer> {
    let first = parts.first().ok_or_else(|| {
        crate::error::CoreError::Unshardable("no shard answers to combine".into())
    })?;
    for part in parts {
        if part.vars != first.vars {
            return Err(crate::error::CoreError::AnswerVarsMismatch {
                left: first.vars.clone(),
                right: part.vars.clone(),
            });
        }
    }
    Ok(parts[1..]
        .iter()
        .fold(first.clone(), |acc, part| acc.union_with(part)))
}

impl ToJson for CqEntry {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("query".to_owned(), self.query.to_json()),
            ("entered_at".to_owned(), self.entered_at.to_json()),
            ("answer".to_owned(), self.answer.to_json()),
            ("deps".to_owned(), self.deps.to_json()),
            ("refreshes".to_owned(), self.refreshes.to_json()),
            ("skipped".to_owned(), self.skipped.to_json()),
            ("refresh_nanos".to_owned(), self.refresh_nanos.to_json()),
        ];
        // Written once a refresh has moved it, so snapshots written before
        // the field existed (which decode it as `entered_at`) re-encode
        // unchanged.
        if self.evaluated_at != self.entered_at {
            fields.push(("evaluated_at".to_owned(), self.evaluated_at.to_json()));
        }
        Json::Obj(fields)
    }
}

impl FromJson for CqEntry {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let entered_at = Tick::from_json(j.field("entered_at")?)?;
        let query: Query = FromJson::from_json(j.field("query")?)?;
        Ok(CqEntry {
            per_object: most_ftl::is_per_object(&query),
            exact: false,
            query,
            entered_at,
            evaluated_at: j
                .field("evaluated_at")
                .map_or(Ok(entered_at), Tick::from_json)?,
            answer: FromJson::from_json(j.field("answer")?)?,
            deps: FromJson::from_json(j.field("deps")?)?,
            refreshes: FromJson::from_json(j.field("refreshes")?)?,
            skipped: FromJson::from_json(j.field("skipped")?)?,
            refresh_nanos: FromJson::from_json(j.field("refresh_nanos")?)?,
        })
    }
}
most_testkit::json_struct!(ContinuousRegistry {
    next,
    entries,
    evaluations,
    skipped_refreshes,
    noop_refreshes
});

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(rows: &[(u64, &[(Tick, Tick)])]) -> Answer {
        Answer::new(
            vec!["o".into()],
            rows.iter()
                .map(|(id, ivs)| AnswerTuple {
                    values: vec![Value::Id(*id)],
                    intervals: IntervalSet::from_intervals(
                        ivs.iter().map(|&(a, b)| Interval::new(a, b)),
                    ),
                })
                .collect(),
        )
    }

    #[test]
    fn merge_keeps_past_and_takes_future() {
        // Old: object 1 in [5, 7]. Update at 6 says it's now [6, 9].
        let old = answer(&[(1, &[(5, 7)])]);
        let new = answer(&[(1, &[(6, 9)])]);
        let merged = merge_answers(&old, &new, 6);
        assert_eq!(
            merged.intervals_for(&[Value::Id(1)]).unwrap(),
            &IntervalSet::singleton(Interval::new(5, 9))
        );
    }

    #[test]
    fn merge_deletes_future_tuples_gone_from_new() {
        // The paper: "the tuple may need to be deleted".
        let old = answer(&[(1, &[(5, 7)]), (2, &[(1, 2)])]);
        let new = answer(&[]);
        let merged = merge_answers(&old, &new, 5);
        // Object 1's [5,7] was entirely in the future: gone.
        assert!(merged.intervals_for(&[Value::Id(1)]).is_none());
        // Object 2's [1,2] was already served: kept.
        assert!(merged.intervals_for(&[Value::Id(2)]).is_some());
    }

    #[test]
    fn merge_adds_new_tuples() {
        let old = answer(&[]);
        let new = answer(&[(3, &[(10, 12)])]);
        let merged = merge_answers(&old, &new, 8);
        assert_eq!(merged.ids(), vec![3]);
    }

    #[test]
    fn merge_at_zero_boundary_is_replacement() {
        let old = answer(&[(1, &[(0, 5)])]);
        let new = answer(&[(2, &[(0, 3)])]);
        let merged = merge_answers(&old, &new, 0);
        assert_eq!(merged.ids(), vec![2]);
    }

    #[test]
    fn registry_lifecycle() {
        let mut reg = ContinuousRegistry::new();
        let q = Query::parse("RETRIEVE o WHERE true").unwrap();
        let id = reg.register(q.clone(), 0, answer(&[(1, &[(0, 10)])]));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.evaluations, 1);
        assert!(reg.get(id).is_some());
        reg.refresh(id, 5, 5, answer(&[(1, &[(5, 20)])]), 7);
        assert_eq!(reg.evaluations, 2);
        assert_eq!(reg.noop_refreshes, 0);
        let entry = reg.get(id).unwrap();
        assert_eq!(entry.refreshes, 1);
        assert_eq!(entry.refresh_nanos, 7);
        assert_eq!(
            entry.answer.intervals_for(&[Value::Id(1)]).unwrap(),
            &IntervalSet::singleton(Interval::new(0, 20))
        );
        assert!(reg.cancel(id));
        assert!(!reg.cancel(id));
        assert!(reg.is_empty());
    }

    #[test]
    fn refresh_identical_answer_is_a_noop_not_an_evaluation() {
        let mut reg = ContinuousRegistry::new();
        let q = Query::parse("RETRIEVE o WHERE true").unwrap();
        let id = reg.register(q, 0, answer(&[(1, &[(0, 10)])]));
        // Re-evaluating at tick 4 yields the same future: merged answer is
        // byte-identical, so this refresh must not count as an evaluation.
        reg.refresh(id, 4, 0, answer(&[(1, &[(4, 10)])]), 3);
        assert_eq!(reg.evaluations, 1, "noop refresh must not bump evaluations");
        assert_eq!(reg.noop_refreshes, 1);
        let entry = reg.get(id).unwrap();
        assert_eq!(entry.refreshes, 0);
        assert_eq!(entry.refresh_nanos, 3, "evaluation cost is still recorded");
        // A later, answer-changing refresh counts again.
        reg.refresh(id, 6, 6, answer(&[(1, &[(6, 15)])]), 2);
        assert_eq!(reg.evaluations, 2);
        assert_eq!(reg.noop_refreshes, 1);
    }

    #[test]
    fn note_skipped_tracks_entry_and_registry() {
        let mut reg = ContinuousRegistry::new();
        let q = Query::parse("RETRIEVE o WHERE o.PRICE <= 100").unwrap();
        let id = reg.register(q, 0, answer(&[]));
        reg.note_skipped(id);
        reg.note_skipped(id);
        reg.note_skipped(9999); // unknown id: ignored
        assert_eq!(reg.skipped_refreshes, 2);
        assert_eq!(reg.get(id).unwrap().skipped, 2);
        assert!(!reg.get(id).unwrap().deps.position);
        assert!(reg.get(id).unwrap().deps.attrs.contains("PRICE"));
    }

    #[test]
    fn merge_boundary_equal_to_entry_time_replaces_everything() {
        // boundary == entered_at (0 here): nothing was served yet, the new
        // answer wins wholesale.
        let old = answer(&[(1, &[(0, 5)]), (2, &[(3, 9)])]);
        let new = answer(&[(3, &[(0, 4)])]);
        let merged = merge_answers(&old, &new, 0);
        assert_eq!(merged.ids(), vec![3]);
    }

    #[test]
    fn merge_at_tick_max_boundary_keeps_past_and_final_tick() {
        // A boundary at the very top of the tick domain used to construct
        // the inverted interval [MAX, MAX-1] and panic; it must instead
        // keep the whole served past and take only tick MAX from `new`.
        let old = answer(&[(1, &[(0, 5)])]);
        let new = answer(&[(1, &[(Tick::MAX, Tick::MAX)]), (2, &[(0, 5)])]);
        let merged = merge_answers(&old, &new, Tick::MAX);
        assert_eq!(
            merged.intervals_for(&[Value::Id(1)]).unwrap(),
            &IntervalSet::from_intervals([
                Interval::new(0, 5),
                Interval::new(Tick::MAX, Tick::MAX),
            ])
        );
        // Object 2's contribution lies entirely below the boundary: dropped.
        assert!(merged.intervals_for(&[Value::Id(2)]).is_none());
    }

    #[test]
    fn display_delta_splits_added_and_removed() {
        let row = |id: u64| vec![Value::Id(id)];
        let prev = vec![row(1), row(3), row(5)];
        let current = vec![row(2), row(3), row(6)];
        let (added, removed) = display_delta(&prev, &current);
        assert_eq!(added, vec![row(2), row(6)]);
        assert_eq!(removed, vec![row(1), row(5)]);

        // Identical displays: empty delta.
        let (added, removed) = display_delta(&prev, &prev);
        assert!(added.is_empty() && removed.is_empty());

        // From/to empty.
        let (added, removed) = display_delta(&[], &current);
        assert_eq!(added, current);
        assert!(removed.is_empty());
        let (added, removed) = display_delta(&prev, &[]);
        assert!(added.is_empty());
        assert_eq!(removed, prev);
    }

    #[test]
    fn display_delta_applies_back_to_prev() {
        // Applying (added, removed) to prev must reproduce current.
        let row = |id: u64| vec![Value::Id(id)];
        let prev = vec![row(10), row(20), row(30), row(40)];
        let current = vec![row(20), row(25), row(40), row(41)];
        let (added, removed) = display_delta(&prev, &current);
        let mut rebuilt: Vec<Vec<Value>> = prev
            .iter()
            .filter(|r| !removed.contains(r))
            .cloned()
            .collect();
        rebuilt.extend(added);
        rebuilt.sort();
        assert_eq!(rebuilt, current);
    }

    #[test]
    #[should_panic(expected = "disagree on target variables")]
    fn merge_answers_rejects_var_mismatch_in_release_too() {
        let old = answer(&[(1, &[(0, 5)])]);
        let new = Answer::new(vec!["x".into(), "y".into()], vec![]);
        let _ = merge_answers(&old, &new, 3);
    }

    #[test]
    fn combine_shard_answers_unions_rows() {
        let a = answer(&[(1, &[(0, 5)]), (2, &[(3, 4)])]);
        let b = answer(&[(2, &[(6, 9)]), (7, &[(1, 1)])]);
        let combined = combine_shard_answers(&[a, b]).unwrap();
        assert_eq!(combined.ids(), vec![1, 2, 7]);
        assert_eq!(
            combined.intervals_for(&[Value::Id(2)]).unwrap(),
            &IntervalSet::from_intervals([Interval::new(3, 4), Interval::new(6, 9)])
        );
    }

    #[test]
    fn combine_shard_answers_rejects_var_mismatch_and_empty() {
        let a = answer(&[(1, &[(0, 5)])]);
        let b = Answer::new(vec!["z".into()], vec![]);
        match combine_shard_answers(&[a, b]) {
            Err(crate::error::CoreError::AnswerVarsMismatch { left, right }) => {
                assert_eq!(left, vec!["o".to_string()]);
                assert_eq!(right, vec!["z".to_string()]);
            }
            other => panic!("expected AnswerVarsMismatch, got {other:?}"),
        }
        assert!(matches!(
            combine_shard_answers(&[]),
            Err(crate::error::CoreError::Unshardable(_))
        ));
    }

    #[test]
    fn combine_shard_answers_is_order_independent() {
        // Property test: permuting the shard answer order yields a
        // byte-identical combined answer.  Random shard partitions with
        // overlapping rows (overlap exercises the union path even though
        // real shards partition the universe).
        use most_testkit::ser::to_json_string;
        let mut rng = most_testkit::rng::Rng::seed_from_u64(0xE16C);
        for _ in 0..50 {
            let shards: Vec<Answer> = (0..4)
                .map(|_| {
                    let rows: Vec<(u64, Vec<(Tick, Tick)>)> = (0..rng.below(6))
                        .map(|_| {
                            let id = rng.below(8);
                            let a = rng.below(20) as Tick;
                            let b = a + rng.below(10) as Tick;
                            (id, vec![(a, b)])
                        })
                        .collect();
                    let borrowed: Vec<(u64, &[(Tick, Tick)])> =
                        rows.iter().map(|(id, ivs)| (*id, ivs.as_slice())).collect();
                    answer(&borrowed)
                })
                .collect();
            let reference = to_json_string(&combine_shard_answers(&shards).unwrap()).unwrap();
            // Exercise several permutations, including the reverse.
            let mut perm = shards.clone();
            perm.reverse();
            assert_eq!(
                to_json_string(&combine_shard_answers(&perm).unwrap()).unwrap(),
                reference
            );
            for _ in 0..4 {
                let i = rng.below(perm.len() as u64) as usize;
                let j = rng.below(perm.len() as u64) as usize;
                perm.swap(i, j);
                assert_eq!(
                    to_json_string(&combine_shard_answers(&perm).unwrap()).unwrap(),
                    reference,
                    "combine must be order-independent"
                );
            }
        }
    }

    #[test]
    fn merge_future_window_includes_tick_max() {
        // A fresh answer reaching Tick::MAX must not have its final tick
        // shaved off by the future-window clip.
        let old = answer(&[]);
        let new = answer(&[(1, &[(10, Tick::MAX)])]);
        let merged = merge_answers(&old, &new, 10);
        assert_eq!(
            merged.intervals_for(&[Value::Id(1)]).unwrap(),
            &IntervalSet::singleton(Interval::new(10, Tick::MAX))
        );
    }
}
