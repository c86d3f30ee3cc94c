//! Continuous queries: the materialized `Answer(CQ)` and its maintenance.
//!
//! Section 2.3: a continuous query is evaluated **once**, producing tuples
//! `(instantiation, begin, end)`; the display at each clock tick is served
//! from the materialized answer.  "A continuous query CQ has to be
//! reevaluated when an update occurs that may change the set of tuples
//! Answer(CQ).  In this sense Answer(CQ) is a materialized view."
//!
//! The view is an [`AnswerStore`], and [`merge_answers`] implements the
//! view-refresh rule: ticks before the
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
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Most rows one chunk of an [`AnswerStore`] holds.
const CHUNK_ROWS: usize = 64;

/// A materialized `Answer(CQ)`: the rows of an [`Answer`], ascending by
/// instantiation, in `Arc`-shared chunks of at most 64 rows.  Cloning
/// copies the chunk pointers, and [`merge_answers`] rebuilds only the
/// chunks holding a row it changes, so two epochs share every other
/// chunk.  It encodes as the [`Answer`] it holds.
#[derive(Debug, Clone)]
pub struct AnswerStore {
    vars: Vec<String>,
    /// Never empty; chunk `i` holds the rows from its first up to the
    /// first row of chunk `i + 1`.
    chunks: Vec<Arc<Vec<AnswerTuple>>>,
}

impl AnswerStore {
    /// The store of an answer's rows (sorted, as [`Answer::new`] leaves
    /// them), moved into chunks in one pass.
    pub fn new(answer: Answer) -> Self {
        let mut chunks = Vec::with_capacity(answer.tuples.len().div_ceil(CHUNK_ROWS));
        push_chunks(&mut chunks, answer.tuples);
        AnswerStore {
            vars: answer.vars,
            chunks,
        }
    }

    /// Rows ascending by instantiation.
    pub fn rows(&self) -> impl Iterator<Item = &AnswerTuple> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// The rows as an [`Answer`], already in its order.
    pub fn to_answer(&self) -> Answer {
        Answer {
            vars: self.vars.clone(),
            tuples: self.rows().cloned().collect(),
        }
    }

    /// The chunk `values` sits in, or would: the last one starting at or
    /// below it, else the first.
    fn chunk_of(&self, values: &[Value]) -> usize {
        let after = self.chunks.partition_point(|c| *c[0].values <= *values);
        after.saturating_sub(1)
    }

    /// The row of instantiation `values`, found by binary search.
    pub(crate) fn get(&self, values: &[Value]) -> Option<&AnswerTuple> {
        let chunk = self.chunks.get(self.chunk_of(values))?;
        let at = chunk.binary_search_by(|t| (*t.values).cmp(values)).ok()?;
        Some(&chunk[at])
    }

    /// `(chunks that are the same allocation in other, chunks here)`.
    pub(crate) fn shared_chunks(&self, other: &AnswerStore) -> (usize, usize) {
        let theirs: HashSet<_> = other.chunks.iter().map(Arc::as_ptr).collect();
        let shared = |c: &&Arc<_>| theirs.contains(&Arc::as_ptr(c));
        (self.chunks.iter().filter(shared).count(), self.chunks.len())
    }

    /// This store with `changes` (ascending by instantiation; `None`
    /// deletes) written in.  Only the chunks the changes fall in are
    /// rebuilt; every other chunk stays shared with `self`.
    fn with_changes(&self, changes: Vec<(&[Value], Option<AnswerTuple>)>) -> AnswerStore {
        let mut chunks = Vec::with_capacity(self.chunks.len() + 1);
        let (mut changes, mut copied) = (changes.into_iter().peekable(), 0);
        while let Some(&(key, _)) = changes.peek() {
            let at = self.chunk_of(key);
            chunks.extend(self.chunks[copied..at].iter().cloned());
            let mut rows = self.chunks.get(at).map_or_else(Vec::new, |c| Vec::clone(c));
            while let Some((key, row)) = changes.next_if(|(k, _)| self.chunk_of(k) == at) {
                match (rows.binary_search_by(|t| (*t.values).cmp(key)), row) {
                    (Ok(i), Some(row)) => rows[i] = row,
                    (Ok(i), None) => drop(rows.remove(i)),
                    (Err(i), Some(row)) => rows.insert(i, row),
                    (Err(_), None) => {}
                }
            }
            push_chunks(&mut chunks, rows);
            copied = at + 1;
        }
        chunks.extend(self.chunks.get(copied..).into_iter().flatten().cloned());
        AnswerStore {
            vars: self.vars.clone(),
            chunks,
        }
    }
}

impl PartialEq for AnswerStore {
    fn eq(&self, other: &Self) -> bool {
        self.vars == other.vars && self.rows().eq(other.rows())
    }
}

/// Appends `rows` to `chunks`, split into as few chunks of at most
/// [`CHUNK_ROWS`] as hold them, of near-equal size.
fn push_chunks(chunks: &mut Vec<Arc<Vec<AnswerTuple>>>, rows: Vec<AnswerTuple>) {
    let parts = rows.len().div_ceil(CHUNK_ROWS);
    if parts == 1 {
        return chunks.push(Arc::new(rows));
    }
    let size = rows.len().div_ceil(parts.max(1));
    let mut rows = rows.into_iter();
    chunks.extend((0..parts).map(|_| Arc::new(rows.by_ref().take(size).collect())));
}

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
    /// Materialized answer, in **global** ticks.  Its chunks are shared
    /// between epochs until a refresh rewrites one.
    pub answer: AnswerStore,
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
                answer: AnswerStore::new(answer),
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

    /// Merges a refresh evaluation at `boundary` on the window starting
    /// at `start` (the entry's own, or `boundary` for a renewal) into an
    /// entry's answer ([`merge_answers`]).  `nanos` is the wall-clock cost
    /// of the evaluation that produced `fresh`.
    ///
    /// Bumps `evaluations` only when the merge changes the answer; a
    /// refresh that changes no row counts as a `noop_refreshes` instead,
    /// so the E3 metric reports answer-*changing* evaluations.
    pub fn refresh(
        &mut self,
        id: u64,
        boundary: Tick,
        start: Tick,
        fresh: &Answer,
        touched: Option<&[u64]>,
        nanos: u64,
    ) {
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.refresh_nanos += nanos;
            entry.evaluated_at = start;
            entry.exact = true;
            match merge_answers(&entry.answer, fresh, boundary, touched) {
                Some(merged) => {
                    entry.answer = merged;
                    entry.refreshes += 1;
                    self.evaluations += 1;
                }
                None => self.noop_refreshes += 1,
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
/// ticks `< boundary` keep the old rows (already served), ticks
/// `>= boundary` come from `fresh`.  `None` when that changes no row.
///
/// `fresh` re-evaluated every instantiation, or with `touched` (sorted
/// ids) only those objects, whose old rows are found by binary search;
/// every other row stays as it is.  One linear walk pairs the replaced
/// rows with the fresh ones.  A pair that agrees from `boundary` on is
/// unchanged, so the no-op check compares only replaced rows and builds
/// nothing, and a merge copies only the chunks holding a changed row.
pub fn merge_answers(
    old: &AnswerStore,
    fresh: &Answer,
    boundary: Tick,
    touched: Option<&[u64]>,
) -> Option<AnswerStore> {
    // Checked in release builds too: differently-shaped rows merge into garbage.
    assert_eq!(
        old.vars, fresh.vars,
        "merge_answers: answers disagree on target variables"
    );
    let changes = match touched {
        None => changed_rows(old.rows(), &fresh.tuples, boundary),
        Some(ids) => changed_rows(
            ids.iter().filter_map(|&id| old.get(&[Value::Id(id)])),
            &fresh.tuples,
            boundary,
        ),
    };
    (!changes.is_empty()).then(|| old.with_changes(changes))
}

/// Walks the replaced rows and the fresh rows, both ascending, and
/// returns each instantiation whose merged row differs from its old one,
/// with that merged row (`None` when it is empty).
fn changed_rows<'a>(
    replaced: impl Iterator<Item = &'a AnswerTuple>,
    fresh: &'a [AnswerTuple],
    boundary: Tick,
) -> Vec<(&'a [Value], Option<AnswerTuple>)> {
    let (mut old, mut new) = (replaced.peekable(), fresh.iter().peekable());
    let mut changes = Vec::new();
    let future = Some(Interval::new(boundary, Tick::MAX));
    loop {
        let order = match (old.peek(), new.peek()) {
            (None, None) => return changes,
            (Some(o), Some(f)) => o.values.cmp(&f.values),
            // The side that ran out sorts last.
            (o, f) => f.is_some().cmp(&o.is_some()),
        };
        let o = old.next_if(|_| order.is_le());
        let f = new.next_if(|_| order.is_ge());
        if !clip(o, future).eq(clip(f, future)) {
            let past = boundary.checked_sub(1).map(|end| Interval::new(0, end));
            let intervals = IntervalSet::from_intervals(clip(o, past).chain(clip(f, future)));
            let values = &o.or(f).expect("one side of a pair").values;
            let row = (!intervals.is_empty()).then(|| AnswerTuple {
                values: values.clone(),
                intervals,
            });
            changes.push((values.as_slice(), row));
        }
    }
}

/// A row's intervals clipped to `window`; none when either is `None`.
fn clip(
    row: Option<&AnswerTuple>,
    window: Option<Interval>,
) -> impl Iterator<Item = Interval> + '_ {
    row.into_iter()
        .flat_map(|t| t.intervals.intervals())
        .filter_map(move |iv| iv.intersect(window?))
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

impl ToJson for AnswerStore {
    fn to_json(&self) -> Json {
        let tuples = Json::Arr(self.rows().map(ToJson::to_json).collect());
        let vars = self.vars.to_json();
        Json::Obj(vec![
            ("vars".to_owned(), vars),
            ("tuples".to_owned(), tuples),
        ])
    }
}

impl FromJson for AnswerStore {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Answer::from_json(j).map(AnswerStore::new)
    }
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

    /// The full-scope merge of two answers, as an answer.
    fn merge(old: &Answer, new: &Answer, boundary: Tick) -> Answer {
        let old = AnswerStore::new(old.clone());
        merge_answers(&old, new, boundary, None)
            .unwrap_or(old)
            .to_answer()
    }

    #[test]
    fn merge_keeps_past_and_takes_future() {
        // Old: object 1 in [5, 7]. Update at 6 says it's now [6, 9].
        let old = answer(&[(1, &[(5, 7)])]);
        let new = answer(&[(1, &[(6, 9)])]);
        let merged = merge(&old, &new, 6);
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
        let merged = merge(&old, &new, 5);
        // Object 1's [5,7] was entirely in the future: gone.
        assert!(merged.intervals_for(&[Value::Id(1)]).is_none());
        // Object 2's [1,2] was already served: kept.
        assert!(merged.intervals_for(&[Value::Id(2)]).is_some());
    }

    #[test]
    fn merge_adds_new_tuples() {
        let old = answer(&[]);
        let new = answer(&[(3, &[(10, 12)])]);
        let merged = merge(&old, &new, 8);
        assert_eq!(merged.ids(), vec![3]);
    }

    #[test]
    fn merge_at_zero_boundary_is_replacement() {
        let old = answer(&[(1, &[(0, 5)])]);
        let new = answer(&[(2, &[(0, 3)])]);
        let merged = merge(&old, &new, 0);
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
        reg.refresh(id, 5, 5, &answer(&[(1, &[(5, 20)])]), None, 7);
        assert_eq!(reg.evaluations, 2);
        assert_eq!(reg.noop_refreshes, 0);
        let entry = reg.get(id).unwrap();
        assert_eq!(entry.refreshes, 1);
        assert_eq!(entry.refresh_nanos, 7);
        assert_eq!(
            entry.answer.get(&[Value::Id(1)]).unwrap().intervals,
            IntervalSet::singleton(Interval::new(0, 20))
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
        reg.refresh(id, 4, 0, &answer(&[(1, &[(4, 10)])]), None, 3);
        assert_eq!(reg.evaluations, 1, "noop refresh must not bump evaluations");
        assert_eq!(reg.noop_refreshes, 1);
        let entry = reg.get(id).unwrap();
        assert_eq!(entry.refreshes, 0);
        assert_eq!(entry.refresh_nanos, 3, "evaluation cost is still recorded");
        // A later, answer-changing refresh counts again.
        reg.refresh(id, 6, 6, &answer(&[(1, &[(6, 15)])]), None, 2);
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
        let merged = merge(&old, &new, 0);
        assert_eq!(merged.ids(), vec![3]);
    }

    #[test]
    fn merge_at_tick_max_boundary_keeps_past_and_final_tick() {
        // A boundary at the very top of the tick domain used to construct
        // the inverted interval [MAX, MAX-1] and panic; it must instead
        // keep the whole served past and take only tick MAX from `new`.
        let old = answer(&[(1, &[(0, 5)])]);
        let new = answer(&[(1, &[(Tick::MAX, Tick::MAX)]), (2, &[(0, 5)])]);
        let merged = merge(&old, &new, Tick::MAX);
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
        let _ = merge(&old, &new, 3);
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

    /// The merge rule written out over whole answers: every old row keeps
    /// its past, and the future comes from `fresh` for the replaced rows
    /// and from the old row otherwise.
    fn reference_merge(old: &Answer, fresh: &Answer, boundary: Tick, touched: &[u64]) -> Answer {
        let mut rows: BTreeMap<Vec<Value>, IntervalSet> = BTreeMap::new();
        let past =
            IntervalSet::from_intervals(boundary.checked_sub(1).map(|e| Interval::new(0, e)));
        let future = IntervalSet::singleton(Interval::new(boundary, Tick::MAX));
        let replaced = |t: &AnswerTuple| touched.contains(&t.values[0].as_id().unwrap());
        for t in &old.tuples {
            let keep = if replaced(t) {
                &past
            } else {
                &future.union(&past)
            };
            rows.insert(t.values.clone(), t.intervals.intersect(keep));
        }
        for t in &fresh.tuples {
            let slot = rows.entry(t.values.clone()).or_default();
            *slot = slot.union(&t.intervals.intersect(&future));
        }
        Answer::new(
            old.vars.clone(),
            rows.into_iter()
                .map(|(values, intervals)| AnswerTuple { values, intervals })
                .collect(),
        )
    }

    /// A scoped merge equals the merge rule over whole answers, reports a
    /// no-op exactly when the answer is unchanged, keeps every chunk at
    /// 1..=64 rows, and shares every chunk that holds no changed row.
    #[test]
    fn a_scoped_merge_matches_the_rule_and_shares_untouched_chunks() {
        use most_testkit::rng::Rng;
        /// Rows for `ids`, each kept with probability `1 - 1/one_in`.
        fn some_rows(rng: &mut Rng, ids: impl IntoIterator<Item = u64>, one_in: u64) -> Answer {
            let mut rows = Vec::new();
            for id in ids {
                if rng.below(one_in) > 0 {
                    let a = rng.below(40) as Tick;
                    rows.push((id, [(a, a + rng.below(30) as Tick)]));
                }
            }
            answer(
                &rows
                    .iter()
                    .map(|(id, ivs)| (*id, &ivs[..]))
                    .collect::<Vec<_>>(),
            )
        }
        let mut rng = Rng::seed_from_u64(0x5C0E);
        for case in 0..300 {
            let universe = 1 + rng.below(400);
            let old = some_rows(&mut rng, 0..universe, 3);
            let mut touched: Vec<u64> = (0..rng.below(20))
                .map(|_| rng.below(universe + 5))
                .collect();
            touched.sort_unstable();
            touched.dedup();
            let fresh = some_rows(&mut rng, touched.iter().copied(), 4);
            let boundary = rng.below(50) as Tick;
            let store = AnswerStore::new(old.clone());
            let expected = reference_merge(&old, &fresh, boundary, &touched);
            let merged = merge_answers(&store, &fresh, boundary, Some(&touched));
            assert_eq!(merged.is_none(), expected == old, "case {case}: no-op");
            let merged = merged.unwrap_or_else(|| store.clone());
            assert_eq!(merged.to_answer(), expected, "case {case}");
            assert!(merged
                .chunks
                .iter()
                .all(|c| (1..=CHUNK_ROWS).contains(&c.len())));
            assert!(merged
                .rows()
                .zip(merged.rows().skip(1))
                .all(|(a, b)| a.values < b.values));
            let changed = expected
                .tuples
                .iter()
                .filter(|t| old.intervals_for(&t.values) != Some(&t.intervals))
                .count()
                + old
                    .tuples
                    .iter()
                    .filter(|t| expected.intervals_for(&t.values).is_none())
                    .count();
            let (shared, total) = merged.shared_chunks(&store);
            assert!(
                total - shared <= 2 * changed,
                "case {case}: {shared} of {total} shared"
            );
        }
    }

    #[test]
    fn the_store_encodes_as_its_answer_and_finds_every_row() {
        let rows: Vec<(u64, Vec<(Tick, Tick)>)> =
            (0..200).map(|id| (3 * id, vec![(id, id + 5)])).collect();
        let old = answer(
            &rows
                .iter()
                .map(|(id, ivs)| (*id, ivs.as_slice()))
                .collect::<Vec<_>>(),
        );
        let store = AnswerStore::new(old.clone());
        assert_eq!(store.chunks.len(), 4);
        assert_eq!(store.rows().count(), 200);
        let json = store.to_json();
        assert_eq!(json, old.to_json());
        assert_eq!(AnswerStore::from_json(&json).unwrap(), store);
        for t in &old.tuples {
            assert_eq!(store.get(&t.values), Some(t));
        }
        assert_eq!(store.get(&[Value::Id(1)]), None);
        assert_eq!(store.get(&[Value::Id(1_000)]), None);
    }

    #[test]
    fn merge_future_window_includes_tick_max() {
        // A fresh answer reaching Tick::MAX must not have its final tick
        // shaved off by the future-window clip.
        let old = answer(&[]);
        let new = answer(&[(1, &[(10, Tick::MAX)])]);
        let merged = merge(&old, &new, 10);
        assert_eq!(
            merged.intervals_for(&[Value::Id(1)]).unwrap(),
            &IntervalSet::singleton(Interval::new(10, Tick::MAX))
        );
    }
}
