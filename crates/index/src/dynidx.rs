//! The dynamic-attribute index of Section 4.
//!
//! One [`DynamicAttributeIndex`] indexes one dynamic attribute `A` over a
//! lifetime of `T` ticks ("in order to use this scheme we have to consider
//! the time dimension starting at 0 and ending at some time-point T").
//! Each object's `A.function` is a line in (time × value) space; updates
//! replace the line from the update time onwards, exactly as the paper
//! prescribes: "o is removed from the records representing rectangles
//! crossed by the old function-line, and it is added to the records
//! representing rectangles crossed by the new function-line" — where only
//! the part of the old line *after* the update time is replaced (the past
//! is history).  [`DynamicAttributeIndex::roll_to`] reconstructs it
//! "every T time units".
//!
//! Supported queries:
//!
//! * [`DynamicAttributeIndex::instantaneous`] — "Retrieve the objects for
//!   which currently `lo < A < hi`", via a thin time-slab rectangle query
//!   plus exact verification ("For each object id in these records we check
//!   whether currently 4 < A < 5");
//! * [`DynamicAttributeIndex::continuous`] — the same query entered as
//!   continuous: one rectangle query over `[t, T]` and, per candidate, "the
//!   time intervals when 4 < o.A < 5", assembled into `Answer(CQ)` rows.
//!
//! [`ScanIndex`] is the no-index baseline (experiment E2).
//!
//! These structures are a standalone reproduction of the paper's scheme,
//! measured by experiments E2, E7 and E8 and the MICRO table.  The database
//! does not maintain them: its one Section 4 index is the position octree
//! of [`crate::index2d`].

use crate::legs::{leg_at, Legs, Motion};
use crate::tree::Bounds;
use most_spatial::roots::solve_quadratic_le;
use most_spatial::{predicates::exact_ticks, Rect};
use most_temporal::{Horizon, Interval, IntervalSet, Tick};
use std::collections::HashMap;

/// Counters reported by queries (access-cost accounting for E2/E7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Spatial-structure nodes visited.
    pub nodes_visited: u64,
    /// Candidate object ids produced by the structure.
    pub candidates: u64,
    /// Ids surviving exact verification.
    pub results: u64,
}

/// Mirrors one query's [`QueryStats`] into the observability registry —
/// batched per query, never per node, so the hot path stays cheap.
fn record_query_stats(stats: &QueryStats) {
    most_obs::inc("index.queries");
    most_obs::add("index.nodes_visited", stats.nodes_visited);
    most_obs::add("index.candidates", stats.candidates);
    most_obs::add("index.results", stats.results);
}

/// A linear function-line: value `v0` at tick `since`, changing by `slope`
/// per tick.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Line {
    since: Tick,
    v0: f64,
    slope: f64,
}

impl Line {
    fn value_at(&self, t: Tick) -> f64 {
        // Signed difference: callers may probe ticks before the piece start
        // (extrapolation of the first piece).
        self.v0 + self.slope * (t as f64 - self.since as f64)
    }
}

impl Motion<2> for Line {
    fn at(&self, t: Tick) -> [f64; 2] {
        [t as f64, self.value_at(t)]
    }

    fn scale(&self, t: Tick) -> f64 {
        self.v0.abs() + self.slope.abs() * (t as f64 - self.since as f64).abs()
    }
}

/// The Section 4 index over one dynamic attribute.
///
/// ```
/// use most_index::DynamicAttributeIndex;
///
/// let mut idx = DynamicAttributeIndex::new(1_000, (-100.0, 1_100.0));
/// idx.insert(7, 0, 0.0, 1.0);   // A grows one unit per tick
/// idx.insert(8, 0, 500.0, 0.0); // A stays at 500
///
/// // "Retrieve the objects for which currently 495 < A < 505" at t = 500:
/// let (ids, _) = idx.instantaneous(500, 495.0, 505.0).unwrap();
/// assert_eq!(ids, vec![7, 8]);
///
/// // The same query as continuous returns per-object tick intervals.
/// let (rows, _) = idx.continuous(0, 495.0, 505.0).unwrap();
/// assert_eq!(rows.len(), 2);
///
/// // Past the lifetime the index cannot answer until it is rolled.
/// assert!(idx.instantaneous(1_001, 495.0, 505.0).is_none());
/// ```
#[derive(Debug)]
pub struct DynamicAttributeIndex {
    lines: Legs<Line, 2>,
}

impl DynamicAttributeIndex {
    /// Creates an index over ticks `[0, lifetime]` and the given attribute
    /// value range.
    pub fn new(lifetime: Tick, value_range: (f64, f64)) -> Self {
        DynamicAttributeIndex {
            lines: Legs::new(lifetime, [0.0, value_range.0], [0.0, value_range.1]),
        }
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an object whose attribute is `value` at tick `at` and moves
    /// with `slope` per tick; its line is plotted from `at` to the end of
    /// the lifetime.
    ///
    /// # Panics
    /// Panics if the id is already present (use [`Self::update`]).
    pub fn insert(&mut self, id: u64, at: Tick, value: f64, slope: f64) {
        let line = Line {
            since: at,
            v0: value,
            slope,
        };
        self.lines.insert(id, at, line);
    }

    /// Applies an explicit update at tick `t`: from `t` on, the attribute is
    /// `value` and changes with `slope`.  The portion of the old line after
    /// `t` is removed from the structure; the line before `t` stays (it
    /// records the past).
    pub fn update(&mut self, id: u64, t: Tick, value: f64, slope: f64) {
        let line = Line {
            since: t,
            v0: value,
            slope,
        };
        self.lines.update(id, t, line);
    }

    /// Reconstructs the index at tick `t` when the ticks `[t, t + reach]`
    /// leave its lifetime; returns whether it did.  Ticks are global: the
    /// lifetime after a reconstruction is `[t, t + T]`.
    pub fn roll_to(&mut self, t: Tick, reach: Tick) -> bool {
        self.lines.roll_to(t, reach)
    }

    /// The exact attribute value of `id` at tick `t` (from the recorded
    /// pieces), if indexed.
    pub fn value_of(&self, id: u64, t: Tick) -> Option<f64> {
        let leg = leg_at(self.lines.legs(id)?, t)?;
        Some(leg.motion.value_at(t))
    }

    /// Instantaneous range query: ids with `lo <= A <= hi` at tick `now`;
    /// `None` when `now` lies outside the lifetime (see [`Self::roll_to`])
    /// or `lo..hi` outside the value range, where the index cannot answer.
    ///
    /// "Using the index we retrieve the records representing the rectangles
    /// that intersect the rectangle `4 < A < 5` and `1−ε < t < 1+ε`.  For
    /// each object id in these records we check whether currently
    /// `4 < A < 5`."
    pub fn instantaneous(&self, now: Tick, lo: f64, hi: f64) -> Option<(Vec<u64>, QueryStats)> {
        let eps = 0.5;
        let rect = Rect::new(now as f64 - eps, lo, now as f64 + eps, hi);
        let (candidates, nodes_visited) = self.lines.query(now, now, &Bounds::from_rect(&rect))?;
        let mut stats = QueryStats {
            nodes_visited,
            candidates: candidates.len() as u64,
            results: 0,
        };
        let out: Vec<u64> = candidates
            .into_iter()
            .filter(|&id| self.value_of(id, now).is_some_and(|v| lo <= v && v <= hi))
            .collect();
        stats.results = out.len() as u64;
        record_query_stats(&stats);
        Some((out, stats))
    }

    /// Continuous range query from tick `now`: `Answer(CQ)` rows
    /// `(id, ticks during which lo <= A <= hi)` until the end of the
    /// lifetime; `None` where [`Self::instantaneous`] is.
    ///
    /// "Using the index we retrieve the records representing the rectangles
    /// that intersect the rectangle `4 < A < 5` and `1 < t < T`.  We
    /// construct the set Answer(CQ) by examining each object id in these
    /// records, and determining the time intervals when `4 < o.A < 5`."
    pub fn continuous(
        &self,
        now: Tick,
        lo: f64,
        hi: f64,
    ) -> Option<(Vec<(u64, IntervalSet)>, QueryStats)> {
        let end = self.lines.end();
        let rect = Rect::new(now as f64, lo, end as f64, hi);
        let (candidates, nodes_visited) = self.lines.query(now, end, &Bounds::from_rect(&rect))?;
        let mut stats = QueryStats {
            nodes_visited,
            candidates: candidates.len() as u64,
            results: 0,
        };
        let h = Horizon::new(end);
        let window = IntervalSet::singleton(Interval::new(now, end));
        let mut out = Vec::new();
        for id in candidates {
            let clipped = self.in_range_intervals(id, lo, hi, h).intersect(&window);
            if !clipped.is_empty() {
                out.push((id, clipped));
            }
        }
        stats.results = out.len() as u64;
        record_query_stats(&stats);
        Some((out, stats))
    }

    /// Ticks at which `lo <= A <= hi` for one object, across its pieces.
    fn in_range_intervals(&self, id: u64, lo: f64, hi: f64, h: Horizon) -> IntervalSet {
        let Some(legs) = self.lines.legs(id) else {
            return IntervalSet::empty();
        };
        let mut acc = IntervalSet::empty();
        for leg in legs {
            // lo <= v0 + slope·(t - since) <= hi, t in [leg.from, leg.until]
            let (p, from, until) = (leg.motion, leg.from, leg.until);
            let b = p.slope;
            let c0 = p.v0 - p.slope * p.since as f64;
            let le_hi = solve_quadratic_le(0.0, b, c0 - hi).clipped(from as f64, until as f64);
            let ge_lo = solve_quadratic_le(0.0, -b, lo - c0).clipped(from as f64, until as f64);
            let s1 = exact_ticks(&le_hi, h, |t| {
                p.value_at(t) <= hi && from <= t && t <= until
            });
            let s2 = exact_ticks(&ge_lo, h, |t| {
                p.value_at(t) >= lo && from <= t && t <= until
            });
            acc = acc.union(&s1.intersect(&s2));
        }
        acc
    }
}

/// The no-index baseline: a flat table of (value, slope) states scanned in
/// full for every query.
#[derive(Debug, Clone, Default)]
pub struct ScanIndex {
    objects: HashMap<u64, (Tick, f64, f64)>,
}

impl ScanIndex {
    /// An empty baseline store.
    pub fn new() -> Self {
        ScanIndex::default()
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Inserts or updates an object's state.
    pub fn upsert(&mut self, id: u64, at: Tick, value: f64, slope: f64) {
        self.objects.insert(id, (at, value, slope));
    }

    /// Instantaneous range query by full scan; the stats count one "node"
    /// per object examined.
    pub fn instantaneous(&self, now: Tick, lo: f64, hi: f64) -> (Vec<u64>, QueryStats) {
        let mut out = Vec::new();
        for (&id, &(at, v0, slope)) in &self.objects {
            let v = v0 + slope * (now.saturating_sub(at)) as f64;
            if lo <= v && v <= hi {
                out.push(id);
            }
        }
        out.sort_unstable();
        let n = self.objects.len() as u64;
        (
            out.clone(),
            QueryStats {
                nodes_visited: n,
                candidates: n,
                results: out.len() as u64,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> DynamicAttributeIndex {
        DynamicAttributeIndex::new(1000, (-2000.0, 2000.0))
    }

    #[test]
    fn instantaneous_matches_scan() {
        let mut idx = index();
        let mut scan = ScanIndex::new();
        for i in 0..200u64 {
            let v0 = (i as f64) - 100.0;
            let slope = ((i % 7) as f64 - 3.0) * 0.5;
            idx.insert(i, 0, v0, slope);
            scan.upsert(i, 0, v0, slope);
        }
        for now in [0u64, 10, 100, 500] {
            let (a, _) = idx.instantaneous(now, -20.0, 20.0).unwrap();
            let (b, _) = scan.instantaneous(now, -20.0, 20.0);
            assert_eq!(a, b, "now = {now}");
        }
    }

    #[test]
    fn index_visits_fewer_nodes_than_scan_at_scale() {
        let mut idx = DynamicAttributeIndex::new(1000, (-5000.0, 5000.0));
        let mut scan = ScanIndex::new();
        for i in 0..2000u64 {
            let v0 = (i as f64) * 2.0 - 2000.0;
            idx.insert(i, 0, v0, 0.1);
            scan.upsert(i, 0, v0, 0.1);
        }
        let (a, s_idx) = idx.instantaneous(5, -10.0, 10.0).unwrap();
        let (b, s_scan) = scan.instantaneous(5, -10.0, 10.0);
        assert_eq!(a, b);
        assert!(
            s_idx.nodes_visited + s_idx.candidates < s_scan.nodes_visited / 4,
            "index should touch far fewer entries ({s_idx:?} vs {s_scan:?})"
        );
    }

    #[test]
    fn update_redirects_the_line() {
        let mut idx = index();
        // Value t, then from 100 on value 200 - t.
        idx.insert(1, 0, 0.0, 1.0);
        idx.update(1, 100, 100.0, -1.0);
        // Past is preserved.
        assert_eq!(idx.value_of(1, 50), Some(50.0));
        // Future follows the new vector.
        assert_eq!(idx.value_of(1, 150), Some(50.0));
        let (ids, _) = idx.instantaneous(150, 45.0, 55.0).unwrap();
        assert_eq!(ids, vec![1]);
        // The old extrapolation (value 150 at t=150) must be gone.
        let (ids, _) = idx.instantaneous(150, 145.0, 155.0).unwrap();
        assert!(ids.is_empty());
    }

    #[test]
    fn continuous_query_returns_intervals() {
        let mut idx = index();
        idx.insert(1, 0, 0.0, 1.0); // crosses [40, 60] during t in [40, 60]
        idx.insert(2, 0, 500.0, 0.0); // never in range
        idx.insert(3, 0, 100.0, -1.0); // crosses during t in [40, 60]
        let (rows, stats) = idx.continuous(0, 40.0, 60.0).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(stats.results, 2);
        let r1 = rows.iter().find(|(id, _)| *id == 1).unwrap();
        assert_eq!(r1.1.first_tick(), Some(40));
        assert_eq!(r1.1.last_tick(), Some(60));
        // Starting the query later clips the intervals.
        let (rows, _) = idx.continuous(50, 40.0, 60.0).unwrap();
        let r1 = rows.iter().find(|(id, _)| *id == 1).unwrap();
        assert_eq!(r1.1.first_tick(), Some(50));
    }

    #[test]
    fn continuous_with_update_uses_pieces() {
        let mut idx = index();
        idx.insert(1, 0, 0.0, 1.0);
        idx.update(1, 50, 50.0, -1.0); // turns around at 50
        let (rows, _) = idx.continuous(0, 40.0, 45.0).unwrap();
        let set = &rows.iter().find(|(id, _)| *id == 1).unwrap().1;
        // In range on the way up (t in 40..=45) and on the way down
        // (value 45..40 at t in 55..=60).
        assert_eq!(set.span_count(), 2);
        assert_eq!(set.first_tick(), Some(40));
        assert_eq!(set.last_tick(), Some(60));
    }

    #[test]
    #[should_panic]
    fn double_insert_panics() {
        let mut idx = DynamicAttributeIndex::new(100, (0.0, 10.0));
        idx.insert(1, 0, 1.0, 0.0);
        idx.insert(1, 0, 2.0, 0.0);
    }

    /// Lifetime 100, rolled with reach 0: the reconstruction "every T time
    /// units", in global ticks.
    fn rolling() -> DynamicAttributeIndex {
        DynamicAttributeIndex::new(100, (-10_000.0, 10_000.0))
    }

    #[test]
    fn queries_work_across_epochs() {
        let mut idx = rolling();
        // Value = global t.  Inside the first epoch:
        idx.insert(1, 0, 0.0, 1.0);
        assert!(!idx.roll_to(50, 0));
        assert_eq!(idx.instantaneous(50, 45.0, 55.0).unwrap().0, vec![1]);
        assert!(!idx.roll_to(100, 0), "the lifetime's last tick is inside");
        // Far into the future: one reconstruction, and the line carries
        // over.
        assert!(idx.roll_to(350, 0));
        assert_eq!(idx.instantaneous(350, 345.0, 355.0).unwrap().0, vec![1]);
        assert_eq!(idx.value_of(1, 420), Some(420.0));
        // Rolling within the current lifetime is a no-op.
        assert!(!idx.roll_to(360, 0));
        assert!(!idx.roll_to(400, 0));
    }

    #[test]
    fn update_after_rollover() {
        let mut idx = rolling();
        idx.insert(1, 0, 0.0, 1.0);
        assert!(idx.roll_to(250, 0));
        idx.update(1, 250, 0.0, -1.0);
        assert_eq!(idx.instantaneous(260, -15.0, -5.0).unwrap().0, vec![1]);
    }

    #[test]
    fn continuous_clipped_to_epoch() {
        let mut idx = rolling();
        idx.insert(1, 0, 0.0, 1.0);
        assert!(idx.roll_to(150, 0));
        let (rows, _) = idx.continuous(150, 0.0, 10_000.0).unwrap();
        assert_eq!(rows.len(), 1);
        // Global ticks within the epoch [150, 250].
        assert_eq!(rows[0].1.first_tick(), Some(150));
        assert_eq!(rows[0].1.last_tick(), Some(250));
    }

    #[test]
    fn a_reach_rolls_before_the_window_leaves_the_lifetime() {
        let mut idx = rolling();
        idx.insert(1, 0, 0.0, 1.0);
        assert!(!idx.roll_to(50, 50));
        assert!(idx.roll_to(51, 50));
        let (rows, _) = idx.continuous(51, 0.0, 10_000.0).unwrap();
        assert_eq!(rows[0].1.last_tick(), Some(151));
    }

    #[test]
    fn smaller_period_means_more_rebuilds() {
        let rebuilds = |period| {
            let mut idx = DynamicAttributeIndex::new(period, (-1e6, 1e6));
            for i in 0..20 {
                idx.insert(i, 0, i as f64, 0.5);
            }
            (0..=1000)
                .step_by(10)
                .filter(|&t| idx.roll_to(t, 0))
                .count()
        };
        assert!(rebuilds(50) > rebuilds(500));
        assert_eq!(rebuilds(2000), 0);
    }
}
