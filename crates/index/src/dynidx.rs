//! The dynamic-attribute index of Section 4.
//!
//! One [`DynamicAttributeIndex`] indexes one dynamic attribute `A` over the
//! lifetime `[0, T]` ("in order to use this scheme we have to consider the
//! time dimension starting at 0 and ending at some time-point T").  Each
//! object's `A.function` is a line in (time × value) space; updates replace
//! the line from the update time onwards, exactly as the paper prescribes:
//! "o is removed from the records representing rectangles crossed by the
//! old function-line, and it is added to the records representing
//! rectangles crossed by the new function-line" — where only the part of
//! the old line *after* the update time is replaced (the past is history).
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

use crate::rtree::RTree;
use crate::tree::{Bounds, Seg, Tree};
use most_spatial::roots::solve_quadratic_le;
use most_spatial::{predicates::exact_ticks, Rect};
use most_temporal::{Horizon, IntervalSet, Tick};
use std::collections::HashMap;

/// Which spatial structure backs the index (ablation E7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Region quadtree decomposition over (time × value): the tree the
    /// position index runs, halving value and, where the lines move, time.
    QuadTree,
    /// R-tree with quadratic split.
    RTree,
}

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
pub(crate) fn record_query_stats(stats: &QueryStats) {
    most_obs::inc("index.queries");
    most_obs::add("index.nodes_visited", stats.nodes_visited);
    most_obs::add("index.candidates", stats.candidates);
    most_obs::add("index.results", stats.results);
}

#[derive(Debug)]
enum Structure {
    Quad(Tree<2>),
    R(RTree),
}

impl Structure {
    fn insert(&mut self, id: u64, seg: Seg<2>) {
        match self {
            Structure::Quad(t) => t.replace(id, [], [seg]),
            Structure::R(t) => t.insert(id, seg),
        }
    }

    fn remove(&mut self, id: u64, seg: Seg<2>) {
        match self {
            Structure::Quad(t) => t.replace(id, [seg], []),
            Structure::R(t) => {
                t.remove(id, seg);
            }
        }
    }

    fn query(&self, rect: &Rect) -> (Vec<u64>, u64) {
        match self {
            Structure::Quad(t) => t.query(&Bounds::from_rect(rect)),
            Structure::R(t) => t.query(rect),
        }
    }
}

/// A per-object piece of the function-line: value `v0` at tick `from`,
/// slope per tick, valid until `until` (inclusive, in ticks).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Piece {
    from: Tick,
    until: Tick,
    v0: f64,
    slope: f64,
}

impl Piece {
    fn segment(&self) -> Seg<2> {
        let (t0, t1) = (self.from as f64, self.until as f64);
        Seg {
            p0: [t0, self.v0],
            p1: [t1, self.v0 + self.slope * (t1 - t0)],
        }
    }

    fn value_at(&self, t: Tick) -> f64 {
        // Signed difference: callers may probe ticks before the piece start
        // (extrapolation of the first piece).
        self.v0 + self.slope * (t as f64 - self.from as f64)
    }
}

/// The Section 4 index over one dynamic attribute.
///
/// ```
/// use most_index::{DynamicAttributeIndex, IndexKind};
///
/// let mut idx = DynamicAttributeIndex::new(IndexKind::QuadTree, 1_000, (-100.0, 1_100.0));
/// idx.insert(7, 0, 0.0, 1.0);   // A grows one unit per tick
/// idx.insert(8, 0, 500.0, 0.0); // A stays at 500
///
/// // "Retrieve the objects for which currently 495 < A < 505" at t = 500:
/// let (ids, _) = idx.instantaneous(500, 495.0, 505.0);
/// assert_eq!(ids, vec![7, 8]);
///
/// // The same query as continuous returns per-object tick intervals.
/// let (rows, _) = idx.continuous(0, 495.0, 505.0);
/// assert_eq!(rows.len(), 2);
/// ```
#[derive(Debug)]
pub struct DynamicAttributeIndex {
    structure: Structure,
    /// Piecewise function-line per object, pieces in time order.
    objects: HashMap<u64, Vec<Piece>>,
    lifetime: Tick,
}

impl DynamicAttributeIndex {
    /// Creates an index over `[0, lifetime]` ticks and the given attribute
    /// value range.
    pub fn new(kind: IndexKind, lifetime: Tick, value_range: (f64, f64)) -> Self {
        let bounds = Rect::new(0.0, value_range.0, lifetime as f64, value_range.1);
        let structure = match kind {
            IndexKind::QuadTree => Structure::Quad(Tree::new(Bounds::from_rect(&bounds))),
            IndexKind::RTree => Structure::R(RTree::new()),
        };
        DynamicAttributeIndex {
            structure,
            objects: HashMap::new(),
            lifetime,
        }
    }

    /// Bulk-loads an index from `(id, value at tick 0, slope)` triples.
    ///
    /// With the R-tree structure this uses STR packing, which builds a
    /// tighter tree far faster than repeated insertion; the quadtree falls
    /// back to sequential insertion (its decomposition is
    /// position-determined, so packing gains nothing).
    pub fn bulk(
        kind: IndexKind,
        lifetime: Tick,
        value_range: (f64, f64),
        items: impl IntoIterator<Item = (u64, f64, f64)>,
    ) -> Self {
        let mut objects = HashMap::new();
        let mut entries = Vec::new();
        for (id, value, slope) in items {
            let piece = Piece {
                from: 0,
                until: lifetime,
                v0: value,
                slope,
            };
            let prev = objects.insert(id, vec![piece]);
            assert!(prev.is_none(), "duplicate id #{id} in bulk load");
            entries.push((id, piece.segment()));
        }
        let structure = match kind {
            IndexKind::RTree => Structure::R(RTree::bulk_load(entries)),
            IndexKind::QuadTree => {
                let bounds = Rect::new(0.0, value_range.0, lifetime as f64, value_range.1);
                let mut tree = Tree::new(Bounds::from_rect(&bounds));
                for (id, seg) in entries {
                    tree.replace(id, [], [seg]);
                }
                Structure::Quad(tree)
            }
        };
        DynamicAttributeIndex {
            structure,
            objects,
            lifetime,
        }
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Inserts an object whose attribute is `value` at tick `at` and moves
    /// with `slope` per tick; its line is plotted from `at` to `T`.
    ///
    /// # Panics
    /// Panics if the id is already present (use [`Self::update`]).
    pub fn insert(&mut self, id: u64, at: Tick, value: f64, slope: f64) {
        assert!(
            !self.objects.contains_key(&id),
            "object #{id} already indexed; use update()"
        );
        let piece = Piece {
            from: at,
            until: self.lifetime,
            v0: value,
            slope,
        };
        self.structure.insert(id, piece.segment());
        self.objects.insert(id, vec![piece]);
    }

    /// Applies an explicit update at tick `t`: from `t` on, the attribute is
    /// `value` and changes with `slope`.  The portion of the old line after
    /// `t` is removed from the structure; the line before `t` stays (it
    /// records the past).
    pub fn update(&mut self, id: u64, t: Tick, value: f64, slope: f64) {
        let pieces = self.objects.get_mut(&id).expect("object must be indexed");
        let last = pieces.last_mut().expect("objects have at least one piece");
        assert!(t >= last.from, "updates must move forward in time");
        // Remove the old tail.
        self.structure.remove(id, last.segment());
        if t > last.from {
            // Keep the historical prefix [last.from, t-1].
            let mut prefix = *last;
            prefix.until = t - 1;
            *last = prefix;
            self.structure.insert(id, prefix.segment());
            let tail = Piece {
                from: t,
                until: self.lifetime,
                v0: value,
                slope,
            };
            self.structure.insert(id, tail.segment());
            pieces.push(tail);
        } else {
            // Same-tick replacement.
            *last = Piece {
                from: t,
                until: self.lifetime,
                v0: value,
                slope,
            };
            let seg = last.segment();
            self.structure.insert(id, seg);
        }
    }

    /// The exact attribute value of `id` at tick `t` (from the recorded
    /// pieces), if indexed.
    pub fn value_of(&self, id: u64, t: Tick) -> Option<f64> {
        let pieces = self.objects.get(&id)?;
        let piece = pieces
            .iter()
            .rev()
            .find(|p| p.from <= t)
            .or_else(|| pieces.first())?;
        Some(piece.value_at(t))
    }

    /// Instantaneous range query: ids with `lo <= A <= hi` at tick `now`.
    ///
    /// "Using the index we retrieve the records representing the rectangles
    /// that intersect the rectangle `4 < A < 5` and `1−ε < t < 1+ε`.  For
    /// each object id in these records we check whether currently
    /// `4 < A < 5`."
    pub fn instantaneous(&self, now: Tick, lo: f64, hi: f64) -> (Vec<u64>, QueryStats) {
        let eps = 0.5;
        let rect = Rect::new(now as f64 - eps, lo, now as f64 + eps, hi);
        let (candidates, nodes_visited) = self.structure.query(&rect);
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
        (out, stats)
    }

    /// Continuous range query from tick `now`: `Answer(CQ)` rows
    /// `(id, ticks during which lo <= A <= hi)` until the index lifetime.
    ///
    /// "Using the index we retrieve the records representing the rectangles
    /// that intersect the rectangle `4 < A < 5` and `1 < t < T`.  We
    /// construct the set Answer(CQ) by examining each object id in these
    /// records, and determining the time intervals when `4 < o.A < 5`."
    pub fn continuous(&self, now: Tick, lo: f64, hi: f64) -> (Vec<(u64, IntervalSet)>, QueryStats) {
        let rect = Rect::new(now as f64, lo, self.lifetime as f64, hi);
        let (candidates, nodes_visited) = self.structure.query(&rect);
        let mut stats = QueryStats {
            nodes_visited,
            candidates: candidates.len() as u64,
            results: 0,
        };
        let h = Horizon::new(self.lifetime);
        let mut out = Vec::new();
        for id in candidates {
            let set = self.in_range_intervals(id, lo, hi, h);
            let clipped = set.intersect(&IntervalSet::singleton(most_temporal::Interval::new(
                now,
                self.lifetime,
            )));
            if !clipped.is_empty() {
                out.push((id, clipped));
            }
        }
        stats.results = out.len() as u64;
        record_query_stats(&stats);
        (out, stats)
    }

    /// Ticks at which `lo <= A <= hi` for one object, across its pieces.
    fn in_range_intervals(&self, id: u64, lo: f64, hi: f64, h: Horizon) -> IntervalSet {
        let Some(pieces) = self.objects.get(&id) else {
            return IntervalSet::empty();
        };
        let mut acc = IntervalSet::empty();
        for p in pieces {
            // lo <= v0 + slope·(t - from) <= hi, t in [p.from, p.until]
            let b = p.slope;
            let c0 = p.v0 - p.slope * p.from as f64;
            let le_hi = solve_quadratic_le(0.0, b, c0 - hi).clipped(p.from as f64, p.until as f64);
            let ge_lo = solve_quadratic_le(0.0, -b, lo - c0).clipped(p.from as f64, p.until as f64);
            let s1 = exact_ticks(&le_hi, h, |t| {
                p.value_at(t) <= hi && p.from <= t && t <= p.until
            });
            let s2 = exact_ticks(&ge_lo, h, |t| {
                p.value_at(t) >= lo && p.from <= t && t <= p.until
            });
            acc = acc.union(&s1.intersect(&s2));
        }
        acc
    }

    /// Snapshot of each object's final piece — used by
    /// [`crate::rebuild::RebuildingIndex`] to carry state across
    /// reconstruction.
    pub fn current_states(&self, at: Tick) -> Vec<(u64, f64, f64)> {
        let mut out: Vec<(u64, f64, f64)> = self
            .objects
            .iter()
            .map(|(&id, pieces)| {
                let last = pieces.last().expect("non-empty");
                (id, last.value_at(at.max(last.from)), last.slope)
            })
            .collect();
        out.sort_by_key(|&(id, _, _)| id);
        out
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

    fn both_kinds() -> Vec<DynamicAttributeIndex> {
        vec![
            DynamicAttributeIndex::new(IndexKind::QuadTree, 1000, (-2000.0, 2000.0)),
            DynamicAttributeIndex::new(IndexKind::RTree, 1000, (-2000.0, 2000.0)),
        ]
    }

    #[test]
    fn instantaneous_matches_scan() {
        for mut idx in both_kinds() {
            let mut scan = ScanIndex::new();
            for i in 0..200u64 {
                let v0 = (i as f64) - 100.0;
                let slope = ((i % 7) as f64 - 3.0) * 0.5;
                idx.insert(i, 0, v0, slope);
                scan.upsert(i, 0, v0, slope);
            }
            for now in [0u64, 10, 100, 500] {
                let (a, _) = idx.instantaneous(now, -20.0, 20.0);
                let (b, _) = scan.instantaneous(now, -20.0, 20.0);
                assert_eq!(a, b, "now = {now}");
            }
        }
    }

    #[test]
    fn index_visits_fewer_nodes_than_scan_at_scale() {
        let mut idx = DynamicAttributeIndex::new(IndexKind::QuadTree, 1000, (-5000.0, 5000.0));
        let mut scan = ScanIndex::new();
        for i in 0..2000u64 {
            let v0 = (i as f64) * 2.0 - 2000.0;
            idx.insert(i, 0, v0, 0.1);
            scan.upsert(i, 0, v0, 0.1);
        }
        let (a, s_idx) = idx.instantaneous(5, -10.0, 10.0);
        let (b, s_scan) = scan.instantaneous(5, -10.0, 10.0);
        assert_eq!(a, b);
        assert!(
            s_idx.nodes_visited + s_idx.candidates < s_scan.nodes_visited / 4,
            "index should touch far fewer entries ({s_idx:?} vs {s_scan:?})"
        );
    }

    #[test]
    fn update_redirects_the_line() {
        for mut idx in both_kinds() {
            idx.insert(1, 0, 0.0, 1.0); // value = t
            idx.update(1, 100, 100.0, -1.0); // from 100: value = 200 - t
                                             // Past is preserved.
            assert_eq!(idx.value_of(1, 50), Some(50.0));
            // Future follows the new vector.
            assert_eq!(idx.value_of(1, 150), Some(50.0));
            let (ids, _) = idx.instantaneous(150, 45.0, 55.0);
            assert_eq!(ids, vec![1]);
            // The old extrapolation (value 150 at t=150) must be gone.
            let (ids, _) = idx.instantaneous(150, 145.0, 155.0);
            assert!(ids.is_empty());
        }
    }

    #[test]
    fn continuous_query_returns_intervals() {
        for mut idx in both_kinds() {
            idx.insert(1, 0, 0.0, 1.0); // crosses [40, 60] during t in [40, 60]
            idx.insert(2, 0, 500.0, 0.0); // never in range
            idx.insert(3, 0, 100.0, -1.0); // crosses during t in [40, 60]
            let (rows, stats) = idx.continuous(0, 40.0, 60.0);
            assert_eq!(rows.len(), 2);
            assert_eq!(stats.results, 2);
            let r1 = rows.iter().find(|(id, _)| *id == 1).unwrap();
            assert_eq!(r1.1.first_tick(), Some(40));
            assert_eq!(r1.1.last_tick(), Some(60));
            // Starting the query later clips the intervals.
            let (rows, _) = idx.continuous(50, 40.0, 60.0);
            let r1 = rows.iter().find(|(id, _)| *id == 1).unwrap();
            assert_eq!(r1.1.first_tick(), Some(50));
        }
    }

    #[test]
    fn continuous_with_update_uses_pieces() {
        let mut idx = DynamicAttributeIndex::new(IndexKind::QuadTree, 1000, (-2000.0, 2000.0));
        idx.insert(1, 0, 0.0, 1.0);
        idx.update(1, 50, 50.0, -1.0); // turns around at 50
        let (rows, _) = idx.continuous(0, 40.0, 45.0);
        let set = &rows.iter().find(|(id, _)| *id == 1).unwrap().1;
        // In range on the way up (t in 40..=45) and on the way down
        // (value 45..40 at t in 55..=60).
        assert_eq!(set.span_count(), 2);
        assert_eq!(set.first_tick(), Some(40));
        assert_eq!(set.last_tick(), Some(60));
    }

    #[test]
    fn current_states_snapshot() {
        let mut idx = DynamicAttributeIndex::new(IndexKind::QuadTree, 100, (-500.0, 500.0));
        idx.insert(1, 0, 10.0, 1.0);
        idx.insert(2, 0, -10.0, 0.0);
        idx.update(1, 20, 30.0, 2.0);
        let states = idx.current_states(50);
        assert_eq!(states.len(), 2);
        assert_eq!(states[0], (1, 30.0 + 2.0 * 30.0, 2.0));
        assert_eq!(states[1], (2, -10.0, 0.0));
    }

    #[test]
    fn bulk_load_matches_incremental_build() {
        for kind in [IndexKind::QuadTree, IndexKind::RTree] {
            let items: Vec<(u64, f64, f64)> = (0..300)
                .map(|i| {
                    (
                        i,
                        (i as f64 * 7.0) % 400.0 - 100.0,
                        ((i % 9) as f64 - 4.0) * 0.25,
                    )
                })
                .collect();
            let bulk = DynamicAttributeIndex::bulk(kind, 1000, (-2000.0, 2000.0), items.clone());
            let mut inc = DynamicAttributeIndex::new(kind, 1000, (-2000.0, 2000.0));
            for &(id, v, s) in &items {
                inc.insert(id, 0, v, s);
            }
            for (now, lo, hi) in [(0u64, -50.0, 50.0), (200, 0.0, 120.0), (999, -400.0, 400.0)] {
                assert_eq!(
                    bulk.instantaneous(now, lo, hi).0,
                    inc.instantaneous(now, lo, hi).0,
                    "{kind:?} at {now}"
                );
            }
            assert_eq!(bulk.len(), 300);
        }
    }

    #[test]
    #[should_panic]
    fn bulk_duplicate_id_panics() {
        let _ = DynamicAttributeIndex::bulk(
            IndexKind::RTree,
            100,
            (0.0, 10.0),
            vec![(1, 1.0, 0.0), (1, 2.0, 0.0)],
        );
    }

    #[test]
    #[should_panic]
    fn double_insert_panics() {
        let mut idx = DynamicAttributeIndex::new(IndexKind::QuadTree, 100, (0.0, 10.0));
        idx.insert(1, 0, 1.0, 0.0);
        idx.insert(1, 0, 2.0, 0.0);
    }
}
