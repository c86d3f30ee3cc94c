//! The per-object pieces both Section 4 indexes keep beside their tree,
//! and the one reconstruction.
//!
//! An object's function is a list of pieces in time order, each stored in
//! the tree as the segment it traces over its ticks.  An update at tick `t`
//! replaces the last piece if it starts at `t`; otherwise it cuts that
//! piece at `t − 1` ("o is removed from the records representing
//! rectangles crossed by the old function-line, and it is added to the
//! records representing rectangles crossed by the new function-line"),
//! keeping the served prefix, and appends the new piece.
//!
//! The index covers the ticks `[epoch, epoch + lifetime]` ("we have to
//! consider the time dimension starting at 0 and ending at some time-point
//! T"), in global ticks.  [`Legs::roll_to`] is the reconstruction "every T
//! time units": once a caller's window leaves that span it starts a fresh
//! tree at the window's first tick, from each object's piece there.
//!
//! The piece lists sit in a [`CowMap`], so a clone of the index shares
//! them chunk by chunk, as it shares the path-copied tree.

use crate::cowmap::CowMap;
use crate::tree::{Bounds, Seg, Tree, NODES_COPIED};
use most_temporal::Tick;

/// A piece's function of time: the point it traces at tick `t`, time
/// first, then its `K - 1` values.
pub(crate) trait Motion<const K: usize>: Copy {
    /// The point at tick `t`.
    fn at(&self, t: Tick) -> [f64; K];

    /// A bound on the magnitudes of the quantities [`Motion::at`] computes
    /// a coordinate at tick `t` from: `|anchor| + |rate| · |t − since|`.
    fn scale(&self, t: Tick) -> f64;
}

/// One piece of an object's function, valid over ticks `[from, until]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Leg<M> {
    pub(crate) from: Tick,
    pub(crate) until: Tick,
    pub(crate) motion: M,
}

impl<M> Leg<M> {
    fn seg<const K: usize>(&self) -> Seg<K>
    where
        M: Motion<K>,
    {
        Seg {
            p0: self.motion.at(self.from),
            p1: self.motion.at(self.until),
            scale: self
                .motion
                .scale(self.from)
                .max(self.motion.scale(self.until)),
        }
    }
}

/// The piece of `legs` that holds at tick `t`: the last one starting at or
/// before `t`, or the first for a tick before them all.
pub(crate) fn leg_at<M>(legs: &[Leg<M>], t: Tick) -> Option<&Leg<M>> {
    legs.iter()
        .rev()
        .find(|l| l.from <= t)
        .or_else(|| legs.first())
}

/// The tree over `[epoch, epoch + lifetime]` × the value box, and each
/// object's pieces.
#[derive(Debug, Clone)]
pub(crate) struct Legs<M, const K: usize> {
    tree: Tree<K>,
    legs: CowMap<Vec<Leg<M>>>,
    /// The tree's box; its time axis is `[epoch, epoch + lifetime]`.
    bounds: Bounds<K>,
    epoch: Tick,
    lifetime: Tick,
}

impl<M: Motion<K>, const K: usize> Legs<M, K> {
    /// An empty index over ticks `[0, lifetime]` and the value box
    /// `min..max` (time axis ignored).
    pub(crate) fn new(lifetime: Tick, min: [f64; K], max: [f64; K]) -> Self {
        let mut legs = Legs {
            tree: Tree::new(Bounds { min, max }),
            legs: CowMap::new(NODES_COPIED),
            bounds: Bounds { min, max },
            epoch: 0,
            lifetime,
        };
        legs.start_epoch(0);
        legs
    }

    /// Moves the box's time axis to `[epoch, epoch + lifetime]` and starts
    /// an empty tree over it.
    fn start_epoch(&mut self, epoch: Tick) {
        self.epoch = epoch;
        self.bounds.min[0] = epoch as f64;
        self.bounds.max[0] = self.end() as f64;
        self.tree = Tree::new(self.bounds);
    }

    /// The last tick the index covers.
    pub(crate) fn end(&self) -> Tick {
        self.epoch.saturating_add(self.lifetime)
    }

    pub(crate) fn len(&self) -> usize {
        self.legs.len()
    }

    /// Indexes a new object whose function is `motion` from tick `at` on.
    ///
    /// # Panics
    /// Panics when the id is already present.
    pub(crate) fn insert(&mut self, id: u64, at: Tick, motion: M) {
        assert!(!self.legs.contains_key(id), "object #{id} already indexed");
        let leg = Leg {
            from: at,
            until: self.end(),
            motion,
        };
        self.tree.replace(id, [], [leg.seg()]);
        self.legs.insert(id, vec![leg]);
    }

    /// An update at tick `t`: from `t` on, the function is `motion`.
    ///
    /// # Panics
    /// Panics when the id is absent or `t` precedes its last update.
    pub(crate) fn update(&mut self, id: u64, t: Tick, motion: M) {
        let end = self.end();
        let legs = self.legs.get_mut(id).expect("object must be indexed");
        let last = legs.last_mut().expect("objects have at least one leg");
        assert!(t >= last.from, "updates must move forward in time");
        let old = last.seg();
        let tail = Leg {
            from: t,
            until: end,
            motion,
        };
        // The old leg keeps its served prefix, if it has one.
        let prefix = (t > last.from).then(|| {
            last.until = t - 1;
            last.seg()
        });
        match prefix {
            Some(_) => legs.push(tail),
            None => *last = tail,
        }
        self.tree
            .replace(id, [old], prefix.into_iter().chain([tail.seg()]));
    }

    /// Drops an object and every segment of its function; returns whether
    /// it was present.
    pub(crate) fn remove(&mut self, id: u64) -> bool {
        let Some(legs) = self.legs.remove(id) else {
            return false;
        };
        self.tree.replace(id, legs.iter().map(Leg::seg), []);
        true
    }

    /// The pieces of `id`, in time order.
    pub(crate) fn legs(&self, id: u64) -> Option<&[Leg<M>]> {
        self.legs.get(id).map(Vec::as_slice)
    }

    /// The ids whose segments touch `probe`, sorted, plus the nodes
    /// visited.  `None` when the ticks `[from, to]` leave the lifetime or
    /// the probe leaves the value box, where the index cannot answer: a
    /// piece is kept only in the cells it crosses, so once the root splits
    /// nothing outside the box is indexed.  The probe's time axis is the
    /// caller's: it may reach past `[from, to]` by less than a tick.
    pub(crate) fn query(&self, from: Tick, to: Tick, probe: &Bounds<K>) -> Option<(Vec<u64>, u64)> {
        let inside = self.epoch <= from
            && to <= self.end()
            && (1..K).all(|axis| {
                self.bounds.min[axis] <= probe.min[axis] && probe.max[axis] <= self.bounds.max[axis]
            });
        inside.then(|| self.tree.query(probe))
    }

    /// Reconstructs the index when the window `[t, t + reach]` leaves
    /// `[epoch, epoch + lifetime]`: the new epoch starts at `t`, and each
    /// object is re-inserted from the piece that holds at `t`.  Returns
    /// whether it rebuilt.
    pub(crate) fn roll_to(&mut self, t: Tick, reach: Tick) -> bool {
        if self.epoch <= t && t.saturating_add(reach) <= self.end() {
            return false;
        }
        let old = std::mem::replace(&mut self.legs, CowMap::new(NODES_COPIED));
        self.start_epoch(t);
        for (id, legs) in old.iter() {
            let motion = leg_at(legs, t)
                .expect("objects have at least one leg")
                .motion;
            self.insert(id, t, motion);
        }
        // Re-anchoring an empty index is no reconstruction.
        if !old.is_empty() {
            most_obs::inc("index.rebuilds");
            most_obs::add("index.reinserted", old.len() as u64);
        }
        true
    }
}
