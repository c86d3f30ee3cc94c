//! Periodic reconstruction of the dynamic-attribute index.
//!
//! "Observe that spatial indexing is limited to finite space.  Thus, in
//! order to use this scheme we have to consider the time dimension starting
//! at 0 and ending at some time-point T.  Consequently, the index needs to
//! be reconstructed every T time units.  Choosing an appropriate value for
//! T is an important future-research question."  Experiment E8 sweeps `T`;
//! this wrapper provides the mechanism and the cost counters.
//!
//! Queries are not required to arrive in tick order: a query whose tick
//! falls *before* the current epoch (it straddles the latest
//! reconstruction boundary) is answered from the retired pre-rebuild
//! index, which is kept one epoch deep.  Rebasing such a tick into the
//! new epoch — what a naive `t - epoch` does — would either wrap (and
//! previously did, looping in release builds and tripping a debug
//! assertion otherwise) or silently truncate the pre-rebuild portion of
//! a continuous answer.

use crate::dynidx::{DynamicAttributeIndex, IndexKind, QueryStats};
use most_temporal::{IntervalSet, Tick};

/// A [`DynamicAttributeIndex`] that transparently reconstructs itself every
/// `period` ticks, rebasing global ticks onto the current epoch.
#[derive(Debug)]
pub struct RebuildingIndex {
    inner: DynamicAttributeIndex,
    kind: IndexKind,
    period: Tick,
    epoch: Tick,
    value_range: (f64, f64),
    /// The retired index of the previous epoch and its epoch start, kept
    /// one deep so queries straddling the latest reconstruction boundary
    /// are answered from pre-rebuild state instead of being mis-rebased.
    prev: Option<(Tick, DynamicAttributeIndex)>,
    /// Number of reconstructions performed.
    pub rebuilds: u64,
    /// Objects re-inserted across all reconstructions (rebuild work).
    pub reinserted: u64,
}

impl RebuildingIndex {
    /// Creates an index with reconstruction period `period`.
    pub fn new(kind: IndexKind, period: Tick, value_range: (f64, f64)) -> Self {
        RebuildingIndex {
            inner: DynamicAttributeIndex::new(kind, period, value_range),
            kind,
            period,
            epoch: 0,
            value_range,
            prev: None,
            rebuilds: 0,
            reinserted: 0,
        }
    }

    /// The reconstruction period `T`.
    pub fn period(&self) -> Tick {
        self.period
    }

    /// The current epoch start (global tick of local time 0).
    pub fn epoch(&self) -> Tick {
        self.epoch
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Rolls the epoch forward until `t` falls inside the current lifetime;
    /// a `t` at or before the current epoch's end is a no-op.
    fn advance_to(&mut self, t: Tick) {
        while t.saturating_sub(self.epoch) > self.period {
            let new_epoch = self.epoch + self.period;
            let states = self.inner.current_states(self.period);
            let mut fresh = DynamicAttributeIndex::new(self.kind, self.period, self.value_range);
            most_obs::add("index.reinserted", states.len() as u64);
            for (id, value, slope) in states {
                fresh.insert(id, 0, value, slope);
                self.reinserted += 1;
            }
            self.prev = Some((self.epoch, std::mem::replace(&mut self.inner, fresh)));
            self.epoch = new_epoch;
            self.rebuilds += 1;
            most_obs::inc("index.rebuilds");
        }
    }

    /// Rolls the reconstruction forward so that global tick `t` falls
    /// inside the current lifetime — the **epoch-boundary maintenance
    /// hook**.  Callers that version the database into explicit epochs
    /// (the `most-core` epoch engine) invoke this at publish time, on the
    /// writer's private copy, so queries against published snapshots
    /// never pay a rebuild; queries straddling the boundary are still
    /// answered from the retained one-epoch `prev` history.  Returns the
    /// number of reconstructions performed.
    pub fn roll_to(&mut self, t: Tick) -> u64 {
        let before = self.rebuilds;
        self.advance_to(t);
        self.rebuilds - before
    }

    /// The epoch start of the retained pre-rebuild index, if a
    /// reconstruction has happened (history is one epoch deep).
    pub fn prev_epoch(&self) -> Option<Tick> {
        self.prev.as_ref().map(|(pe, _)| *pe)
    }

    /// Inserts an object at global tick `t`.
    ///
    /// A straggler insert older than the current epoch is applied at the
    /// epoch start: the rebuilt index has no pre-rebuild write path.
    pub fn insert(&mut self, id: u64, t: Tick, value: f64, slope: f64) {
        self.advance_to(t);
        self.inner
            .insert(id, t.saturating_sub(self.epoch), value, slope);
    }

    /// Updates an object at global tick `t` (stragglers clamp like
    /// [`RebuildingIndex::insert`]).
    pub fn update(&mut self, id: u64, t: Tick, value: f64, slope: f64) {
        self.advance_to(t);
        self.inner
            .update(id, t.saturating_sub(self.epoch), value, slope);
    }

    /// Instantaneous range query at global tick `t`.
    ///
    /// A `t` before the current epoch is answered from the retired
    /// pre-rebuild index; history is one epoch deep, so a tick older than
    /// the previous epoch clamps to that epoch's start (best effort).
    pub fn instantaneous(&mut self, t: Tick, lo: f64, hi: f64) -> (Vec<u64>, QueryStats) {
        self.advance_to(t);
        if t < self.epoch {
            if let Some((pe, prev)) = &self.prev {
                return prev.instantaneous(t.saturating_sub(*pe), lo, hi);
            }
        }
        self.inner.instantaneous(t - self.epoch, lo, hi)
    }

    /// Continuous range query from global tick `t`; returned intervals are
    /// in global ticks and extend at most to the end of the current epoch
    /// (the index cannot see past its own lifetime — re-running after the
    /// next reconstruction extends the answer, which is exactly the T
    /// trade-off E8 measures).
    ///
    /// A `t` before the current epoch straddles the reconstruction
    /// boundary: the pre-boundary portion is answered from the retired
    /// index and unioned with the current epoch's full answer, so nothing
    /// is truncated at the boundary.
    pub fn continuous(
        &mut self,
        t: Tick,
        lo: f64,
        hi: f64,
    ) -> (Vec<(u64, IntervalSet)>, QueryStats) {
        self.advance_to(t);
        let epoch = self.epoch;
        if t < epoch {
            if let Some((pe, prev)) = &self.prev {
                let pe = *pe;
                let (past_rows, past_stats) = prev.continuous(t.saturating_sub(pe), lo, hi);
                let (cur_rows, cur_stats) = self.inner.continuous(0, lo, hi);
                let mut merged: std::collections::BTreeMap<u64, IntervalSet> =
                    std::collections::BTreeMap::new();
                for (id, set) in past_rows {
                    merged.insert(id, shift_set(&set, pe));
                }
                for (id, set) in cur_rows {
                    let global = shift_set(&set, epoch);
                    merged
                        .entry(id)
                        .and_modify(|s| *s = s.union(&global))
                        .or_insert(global);
                }
                let stats = QueryStats {
                    nodes_visited: past_stats.nodes_visited + cur_stats.nodes_visited,
                    candidates: past_stats.candidates + cur_stats.candidates,
                    results: merged.len() as u64,
                };
                return (merged.into_iter().collect(), stats);
            }
        }
        let (rows, stats) = self.inner.continuous(t - epoch, lo, hi);
        let shifted = rows
            .into_iter()
            .map(|(id, set)| (id, shift_set(&set, epoch)))
            .collect();
        (shifted, stats)
    }
}

/// Shifts a local-tick interval set up into global ticks.
fn shift_set(set: &IntervalSet, delta: Tick) -> IntervalSet {
    IntervalSet::from_intervals(set.intervals().iter().map(|iv| iv.shift_up(delta)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynidx::ScanIndex;

    #[test]
    fn queries_work_across_epochs() {
        let mut idx = RebuildingIndex::new(IndexKind::QuadTree, 100, (-10_000.0, 10_000.0));
        idx.insert(1, 0, 0.0, 1.0); // value = global t
                                    // Inside the first epoch.
        let (ids, _) = idx.instantaneous(50, 45.0, 55.0);
        assert_eq!(ids, vec![1]);
        assert_eq!(idx.rebuilds, 0);
        // Far into the future: epochs roll, state carries over.
        let (ids, _) = idx.instantaneous(350, 345.0, 355.0);
        assert_eq!(ids, vec![1]);
        assert!(idx.rebuilds >= 2, "rebuilds = {}", idx.rebuilds);
        assert!(idx.reinserted >= 2);
    }

    #[test]
    fn update_after_rollover() {
        let mut idx = RebuildingIndex::new(IndexKind::QuadTree, 100, (-10_000.0, 10_000.0));
        idx.insert(1, 0, 0.0, 1.0);
        idx.update(1, 250, 0.0, -1.0); // rolls epochs, then redirects
        let (ids, _) = idx.instantaneous(260, -15.0, -5.0);
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn continuous_clipped_to_epoch() {
        let mut idx = RebuildingIndex::new(IndexKind::QuadTree, 100, (-10_000.0, 10_000.0));
        idx.insert(1, 0, 0.0, 1.0);
        let (rows, _) = idx.continuous(150, 0.0, 10_000.0);
        assert_eq!(rows.len(), 1);
        let set = &rows[0].1;
        // Global ticks within the second epoch [100, 200].
        assert_eq!(set.first_tick(), Some(150));
        assert_eq!(set.last_tick(), Some(200));
    }

    #[test]
    fn smaller_period_means_more_rebuilds() {
        let mut small = RebuildingIndex::new(IndexKind::QuadTree, 50, (-1e6, 1e6));
        let mut large = RebuildingIndex::new(IndexKind::QuadTree, 500, (-1e6, 1e6));
        for idx in [&mut small, &mut large] {
            for i in 0..20 {
                idx.insert(i, 0, i as f64, 0.5);
            }
            idx.instantaneous(1000, 0.0, 100.0);
        }
        assert!(small.rebuilds > large.rebuilds);
        assert!(small.reinserted > large.reinserted);
    }

    /// Regression (pre-fix: debug assertion failure / wrapping rebase): an
    /// instantaneous query whose tick falls before the current epoch must
    /// be answered from pre-rebuild state and agree with the scan oracle.
    #[test]
    fn instantaneous_query_before_current_epoch_matches_scan_oracle() {
        let mut idx = RebuildingIndex::new(IndexKind::QuadTree, 100, (-10_000.0, 10_000.0));
        let mut oracle = ScanIndex::new();
        for (id, v0, slope) in [(1u64, 0.0, 1.0), (2, 100.0, -0.5), (3, 500.0, 0.0)] {
            idx.insert(id, 0, v0, slope);
            oracle.upsert(id, 0, v0, slope);
        }
        // Roll the epoch forward (epoch becomes 300), then query at a tick
        // inside the *previous* epoch [200, 300].
        idx.instantaneous(350, -1e4, 1e4);
        assert!(
            idx.epoch() > 250,
            "epoch must have rolled past the query tick"
        );
        for (lo, hi) in [(240.0, 260.0), (-50.0, 0.0), (400.0, 600.0), (-1e4, 1e4)] {
            let (got, _) = idx.instantaneous(250, lo, hi);
            let (want, _) = oracle.instantaneous(250, lo, hi);
            assert_eq!(got, want, "straddling query [{lo}, {hi}] at t=250");
        }
    }

    /// Regression (pre-fix: panic / truncation): a continuous query from a
    /// tick before the current epoch must cover both sides of the
    /// reconstruction boundary — `[t, epoch + period]`, not just one epoch.
    #[test]
    fn continuous_query_straddles_reconstruction_boundary() {
        let mut idx = RebuildingIndex::new(IndexKind::QuadTree, 100, (-10_000.0, 10_000.0));
        idx.insert(1, 0, 0.0, 1.0); // value = global t, always in range
        idx.instantaneous(350, -1e4, 1e4); // rolls the epoch to 300
        assert_eq!(idx.epoch(), 300);
        let (rows, _) = idx.continuous(250, 0.0, 10_000.0);
        assert_eq!(rows.len(), 1);
        let set = &rows[0].1;
        // Pre-boundary portion [250, 300] and current epoch [300, 400],
        // unioned into one seamless global answer.
        assert_eq!(set.first_tick(), Some(250), "pre-rebuild portion truncated");
        assert_eq!(set.last_tick(), Some(400));
        assert_eq!(
            set.span_count(),
            1,
            "answer must be seamless across the boundary"
        );

        // Oracle: the same trajectory in a single long-lifetime index.
        let mut plain = DynamicAttributeIndex::new(IndexKind::QuadTree, 1_000, (-1e4, 1e4));
        plain.insert(1, 0, 0.0, 1.0);
        let (oracle_rows, _) = plain.continuous(250, 0.0, 10_000.0);
        let clipped = IntervalSet::from_intervals(
            oracle_rows[0]
                .1
                .intervals()
                .iter()
                .filter_map(|iv| iv.intersect(most_temporal::Interval::new(250, 400))),
        );
        assert_eq!(
            set, &clipped,
            "straddling answer must match the unrebuilt oracle"
        );
    }

    /// Epoch-boundary maintenance: rolling ahead of queries means the
    /// query path itself performs zero rebuilds, and a query straddling
    /// the rolled boundary is still answered from the `prev` history.
    #[test]
    fn roll_to_moves_rebuild_cost_off_the_query_path() {
        let mut idx = RebuildingIndex::new(IndexKind::QuadTree, 100, (-10_000.0, 10_000.0));
        idx.insert(1, 0, 0.0, 1.0);
        // The epoch boundary (writer side) rolls the index forward...
        assert_eq!(idx.roll_to(350), 3);
        assert_eq!(idx.epoch(), 300);
        assert_eq!(idx.prev_epoch(), Some(200));
        // ...so queries at the published tick trigger no further rebuild.
        let before = idx.rebuilds;
        let (ids, _) = idx.instantaneous(350, 345.0, 355.0);
        assert_eq!(ids, vec![1]);
        let (rows, _) = idx.continuous(250, 0.0, 10_000.0);
        assert_eq!(
            rows[0].1.first_tick(),
            Some(250),
            "prev history lost by roll_to"
        );
        assert_eq!(idx.rebuilds, before, "query path paid a rebuild");
        // Rolling within the current lifetime is a no-op.
        assert_eq!(idx.roll_to(360), 0);
    }

    /// A tick older than the one-epoch history clamps to the retained
    /// pre-rebuild state instead of panicking.
    #[test]
    fn query_older_than_history_is_best_effort_not_a_panic() {
        let mut idx = RebuildingIndex::new(IndexKind::QuadTree, 100, (-10_000.0, 10_000.0));
        idx.insert(1, 0, 0.0, 1.0);
        idx.instantaneous(350, -1e4, 1e4); // epoch 300, history covers [200, 300]
                                           // t=50 predates the retained epoch: answered at its start (t=200).
        let (got, _) = idx.instantaneous(50, 150.0, 250.0);
        assert_eq!(got, vec![1]);
        // Straggler updates clamp to the current epoch start.
        idx.update(1, 120, 0.0, 0.0);
        let (ids, _) = idx.instantaneous(320, -1.0, 1.0);
        assert_eq!(ids, vec![1]);
    }
}
