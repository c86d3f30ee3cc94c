//! Indexing objects moving in the plane: the paper's 3-D variant.
//!
//! "For an object moving in 2-dimensional space, the above scheme can be
//! mimicked using an index of 3-dimensional space, with the third dimension
//! being, obviously, time."  The structure here is an octree over
//! (time × x × y); each object's motion is a 3-D line segment (piecewise,
//! across motion-vector updates) inserted into every cell it crosses.
//!
//! A leaf that overflows picks its split axes from the segments it holds
//! (`splits_time`): it halves time as well as x and y only where the
//! objects move far enough within the node's time span for that to
//! separate them.  Elsewhere it halves x and y alone, into four children
//! that each keep the whole time span — halving time there would only copy
//! every leg into both halves, and a motion update would rewrite them all.
//!
//! The tree is **path-copied**: every child link is an [`Arc`], so cloning
//! the index copies the root pointer (and the leg table's chunk pointers),
//! and an update through a clone rewrites only the nodes its segments
//! cross — interior copies re-link their untouched children, they never
//! copy them.  That is what lets each database epoch publish its own
//! index for the price of the batch, not of the population.

use most_spatial::predicates::inside_rect;
use most_spatial::{MovingPoint, Point, Rect, Velocity};
use most_temporal::{Horizon, Interval, IntervalSet, Tick};
use std::sync::Arc;

use crate::cowmap::CowMap;
use crate::dynidx::QueryStats;

const LEAF_CAPACITY: usize = 8;
const MAX_DEPTH: u32 = 10;

/// An axis-aligned box in (time, x, y).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Box3 {
    min: [f64; 3],
    max: [f64; 3],
}

impl Box3 {
    fn intersects(&self, other: &Box3) -> bool {
        (0..3).all(|i| self.min[i] <= other.max[i] && other.min[i] <= self.max[i])
    }

    /// The `N` children of a node over this box: eight halve time, x and
    /// y; four halve x and y and keep the whole time span.  Child `i` takes
    /// the upper half of the `k`-th halved axis iff bit `k` of `i` is set.
    fn children<const N: usize>(&self) -> [Box3; N] {
        let first = first_split_axis::<N>();
        std::array::from_fn(|i| {
            let mut b = *self;
            for axis in first..3 {
                let mid = (self.min[axis] + self.max[axis]) / 2.0;
                if (i >> (axis - first)) & 1 == 0 {
                    b.max[axis] = mid;
                } else {
                    b.min[axis] = mid;
                }
            }
            b
        })
    }
}

/// The first axis a node with `N` children halves — time (0) for eight, x
/// (1) for four; every axis after it is halved too.
const fn first_split_axis<const N: usize>() -> usize {
    3 - N.trailing_zeros() as usize
}

/// A 3-D line segment (the space-time trace of one motion leg).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Seg3 {
    p0: [f64; 3],
    p1: [f64; 3],
}

impl Seg3 {
    /// Liang–Barsky clipping in three dimensions.
    fn intersects(&self, b: &Box3) -> bool {
        let mut t_min = 0.0f64;
        let mut t_max = 1.0f64;
        for axis in 0..3 {
            let d = self.p1[axis] - self.p0[axis];
            if d == 0.0 {
                if self.p0[axis] < b.min[axis] || self.p0[axis] > b.max[axis] {
                    return false;
                }
            } else {
                let t1 = (b.min[axis] - self.p0[axis]) / d;
                let t2 = (b.max[axis] - self.p0[axis]) / d;
                let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
                t_min = t_min.max(lo);
                t_max = t_max.min(hi);
                if t_min > t_max {
                    return false;
                }
            }
        }
        true
    }

    /// [`Seg3::intersects`] against each of `b`'s `N` children
    /// ([`Box3::children`]), sharing the per-plane divisions between them:
    /// a child's slab on a halved axis is the lower or the upper half of
    /// `b`'s and on the time axis of a four-way split is `b`'s own, so six
    /// parameter spans (axis × half) serve every test.  The arithmetic per
    /// child is that of `intersects`, operation for operation, so the two
    /// agree bit for bit.
    fn child_hits<const N: usize>(&self, b: &Box3) -> [bool; N] {
        let first = first_split_axis::<N>();
        let spans: [[Option<(f64, f64)>; 2]; 3] = std::array::from_fn(|axis| {
            let mid = (b.min[axis] + b.max[axis]) / 2.0;
            let planes = if axis < first {
                [b.min[axis], b.max[axis], b.max[axis]]
            } else {
                [b.min[axis], mid, b.max[axis]]
            };
            let (p0, d) = (self.p0[axis], self.p1[axis] - self.p0[axis]);
            std::array::from_fn(|half| {
                let (min, max) = (planes[half], planes[half + 1]);
                if d == 0.0 {
                    (!(p0 < min || p0 > max)).then_some((f64::NEG_INFINITY, f64::INFINITY))
                } else {
                    let (t1, t2) = ((min - p0) / d, (max - p0) / d);
                    Some(if t1 <= t2 { (t1, t2) } else { (t2, t1) })
                }
            })
        });
        std::array::from_fn(|child| {
            let (mut t_min, mut t_max) = (0.0f64, 1.0f64);
            for (axis, halves) in spans.iter().enumerate() {
                let half = if axis < first {
                    0
                } else {
                    (child >> (axis - first)) & 1
                };
                let Some((lo, hi)) = halves[half] else {
                    return false;
                };
                t_min = t_min.max(lo);
                t_max = t_max.min(hi);
                if t_min > t_max {
                    return false;
                }
            }
            true
        })
    }

    /// Distance covered in the plane per tick (0 for an instant).
    fn xy_speed(&self) -> f64 {
        let [dt, dx, dy]: [f64; 3] = std::array::from_fn(|axis| self.p1[axis] - self.p0[axis]);
        if dt > 0.0 {
            (dx * dx + dy * dy).sqrt() / dt
        } else {
            0.0
        }
    }
}

/// One indexed segment: the object and the piece of its motion.
type Item = (u64, Seg3);

/// The split rule for an overflowing leaf over `b`: halve time as well as
/// x and y only when the items' mean xy speed × the node's time extent
/// reaches its smaller xy extent, which keeps cells roughly isotropic in
/// (x, y, v̄·t).  It is read off the items rather than fixed because the
/// right time depth differs by region and by speed: a cell of parked cars
/// never gains from a time split (each stationary leg is copied into every
/// time half), a cell of fast ones does from the root down.
fn splits_time(items: &[Item], b: &Box3) -> bool {
    let mean_speed = items.iter().map(|(_, seg)| seg.xy_speed()).sum::<f64>() / items.len() as f64;
    let extent = |axis: usize| b.max[axis] - b.min[axis];
    mean_speed * extent(0) >= extent(1).min(extent(2))
}

/// A node *is* its shared allocation: a leaf's items sit inline behind one
/// `Arc`, an interior node's children behind another, so the tree
/// allocates, frees and dereferences exactly as often as an unshared one.
/// Cloning an interior array clones its handles, never a sibling's items.
/// An interior node records the split its leaf chose by its child count.
#[derive(Debug, Clone)]
enum Node {
    Leaf(Items),
    /// Halves x and y; each child keeps the node's whole time span.
    Quad(Arc<[Node; 4]>),
    /// Halves time, x and y.
    Oct(Arc<[Node; 8]>),
}

/// A leaf's items: a small vector whose buffer is one shareable
/// allocation.  `slots[..len]` are live and the rest is spare capacity
/// (doubling, like `Vec`), so a leaf no older clone shares grows in place
/// — the bulk build allocates as an unshared tree would — and a shared one
/// is rebuilt around the change.
#[derive(Debug, Clone)]
struct Items {
    slots: Arc<[Item]>,
    len: usize,
}

/// Filler for spare capacity; never read.
const NO_ITEM: Item = (
    0,
    Seg3 {
        p0: [0.0; 3],
        p1: [0.0; 3],
    },
);

impl Items {
    fn empty() -> Items {
        Items {
            slots: Arc::from([]),
            len: 0,
        }
    }

    fn live(&self) -> &[Item] {
        &self.slots[..self.len]
    }

    /// A fresh buffer holding `live`, with capacity for `len` items rounded
    /// up as `Vec` would.
    fn with_room(live: &[Item], len: usize) -> Items {
        let capacity = len.next_power_of_two().max(4);
        let mut slots: Arc<[Item]> = std::iter::repeat_n(NO_ITEM, capacity).collect();
        Arc::get_mut(&mut slots).expect("just allocated")[..live.len()].copy_from_slice(live);
        Items {
            slots,
            len: live.len(),
        }
    }

    /// Whether replacing the buffer leaves an older clone of the index
    /// holding the previous one (1) or simply frees it (0) — the
    /// copy-on-write count for leaves.
    fn shared(&self) -> u64 {
        u64::from(self.len > 0 && Arc::strong_count(&self.slots) > 1)
    }

    fn push(&mut self, item: Item, copied: &mut u64) {
        match Arc::get_mut(&mut self.slots) {
            Some(slots) if self.len < slots.len() => slots[self.len] = item,
            _ => {
                *copied += self.shared();
                let mut grown = Items::with_room(self.live(), self.len + 1).slots;
                Arc::get_mut(&mut grown).expect("just allocated")[self.len] = item;
                self.slots = grown;
            }
        }
        self.len += 1;
    }

    /// Removes the items `gone` selects.
    fn remove(&mut self, gone: impl Fn(&Item) -> bool, copied: &mut u64) {
        if let Some(slots) = Arc::get_mut(&mut self.slots) {
            // Unshared: compact in place, as `Vec::retain` would.
            let mut kept = 0;
            for at in 0..self.len {
                if !gone(&slots[at]) {
                    slots[kept] = slots[at];
                    kept += 1;
                }
            }
            self.len = kept;
        } else if self.live().iter().any(&gone) {
            *copied += self.shared();
            let kept: Vec<Item> = self
                .live()
                .iter()
                .copied()
                .filter(|item| !gone(item))
                .collect();
            *self = Items::with_room(&kept, kept.len());
        }
    }
}

/// Counter of octree nodes and leg-table chunks copied because an older
/// clone of the index still shares them.
const NODES_COPIED: &str = "index.nodes_copied";

/// Write access to an interior node's children, copying the array first
/// (and counting the copy) when an older clone of the index shares it.
fn unshare<'a, const N: usize>(
    kids: &'a mut Arc<[Node; N]>,
    copied: &mut u64,
) -> &'a mut [Node; N] {
    let before = Arc::as_ptr(kids);
    let kids = Arc::make_mut(kids);
    *copied += u64::from(!std::ptr::eq(before, kids));
    kids
}

/// Runs `f` on every child of an interior node over `bounds` that `seg`
/// crosses, with the child's box.
fn each_crossed<const N: usize>(
    kids: &mut Arc<[Node; N]>,
    bounds: Box3,
    seg: Seg3,
    copied: &mut u64,
    mut f: impl FnMut(&mut Node, Box3, &mut u64),
) {
    let hits = seg.child_hits::<N>(&bounds);
    for ((b, kid), hit) in bounds
        .children::<N>()
        .into_iter()
        .zip(unshare(kids, copied))
        .zip(hits)
    {
        if hit {
            f(kid, b, copied);
        }
    }
}

/// One motion leg of an indexed object.
#[derive(Debug, Clone, Copy)]
struct Leg {
    from: Tick,
    until: Tick,
    motion: MovingPoint,
}

impl Leg {
    fn seg(&self) -> Seg3 {
        let a = self.motion.position_at(self.from as f64);
        let b = self.motion.position_at(self.until as f64);
        Seg3 {
            p0: [self.from as f64, a.x, a.y],
            p1: [self.until as f64, b.x, b.y],
        }
    }
}

/// Octree index over moving points in the plane.
#[derive(Debug, Clone)]
pub struct MovingObjectIndex2D {
    bounds: Box3,
    root: Node,
    objects: CowMap<Vec<Leg>>,
    lifetime: Tick,
}

impl MovingObjectIndex2D {
    /// Creates an index over `[0, lifetime]` ticks and the given spatial
    /// extent.
    pub fn new(lifetime: Tick, space: Rect) -> Self {
        MovingObjectIndex2D {
            bounds: Box3 {
                min: [0.0, space.min_x, space.min_y],
                max: [lifetime as f64, space.max_x, space.max_y],
            },
            root: Node::Leaf(Items::empty()),
            objects: CowMap::new(NODES_COPIED),
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

    /// The index lifetime `T`.
    pub fn lifetime(&self) -> Tick {
        self.lifetime
    }

    /// Inserts an object at tick `at` with position `p` and motion vector
    /// `v`.
    ///
    /// # Panics
    /// Panics when the id is already present.
    pub fn insert(&mut self, id: u64, at: Tick, p: Point, v: Velocity) {
        assert!(
            !self.objects.contains_key(id),
            "object #{id} already indexed"
        );
        let leg = Leg {
            from: at,
            until: self.lifetime,
            motion: MovingPoint::new(p, at, v),
        };
        self.rewrite(|root, bounds, copied| insert_rec(root, bounds, id, leg.seg(), 0, copied));
        self.objects.insert(id, vec![leg]);
    }

    /// Runs one tree mutation and reports the nodes it had to copy, once
    /// per operation rather than once per node.
    fn rewrite(&mut self, f: impl FnOnce(&mut Node, Box3, &mut u64)) {
        let mut copied = 0;
        f(&mut self.root, self.bounds, &mut copied);
        if copied > 0 {
            most_obs::add(NODES_COPIED, copied);
        }
    }

    /// Motion-vector update at tick `t` (position explicitly supplied, as
    /// sensors report both).
    pub fn update(&mut self, id: u64, t: Tick, p: Point, v: Velocity) {
        let legs = self.objects.get_mut(id).expect("object must be indexed");
        let last = legs.last_mut().expect("non-empty legs");
        assert!(t >= last.from, "updates must move forward in time");
        let old_seg = last.seg();
        let new_leg = Leg {
            from: t,
            until: self.lifetime,
            motion: MovingPoint::new(p, t, v),
        };
        // The old leg keeps its served prefix, if it has one.
        let prefix = (t > last.from).then(|| {
            last.until = t - 1;
            last.seg()
        });
        match prefix {
            Some(_) => legs.push(new_leg),
            None => *last = new_leg,
        }
        self.rewrite(|root, bounds, copied| {
            remove_rec(root, bounds, id, old_seg, copied);
            for seg in prefix.into_iter().chain([new_leg.seg()]) {
                insert_rec(root, bounds, id, seg, 0, copied);
            }
        });
    }

    /// Removes an object and every segment of its motion history; returns
    /// whether it was present.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(legs) = self.objects.remove(id) else {
            return false;
        };
        self.rewrite(|root, bounds, copied| {
            for leg in legs {
                remove_rec(root, bounds, id, leg.seg(), copied);
            }
        });
        true
    }

    /// Objects inside `region` at tick `t` ("Retrieve the objects that are
    /// currently in the polygon P", with rectangles standing in for
    /// regions), plus access stats.
    pub fn query_at(&self, t: Tick, region: &Rect) -> (Vec<u64>, QueryStats) {
        let probe = Box3 {
            min: [t as f64 - 0.5, region.min_x, region.min_y],
            max: [t as f64 + 0.5, region.max_x, region.max_y],
        };
        let (candidates, nodes_visited) = self.query_box(&probe);
        let mut stats = QueryStats {
            nodes_visited,
            candidates: candidates.len() as u64,
            results: 0,
        };
        let out: Vec<u64> = candidates
            .into_iter()
            .filter(|&id| self.position_of(id, t).is_some_and(|p| region.contains(p)))
            .collect();
        stats.results = out.len() as u64;
        (out, stats)
    }

    /// Continuous variant: objects entering `region` during `[from, to]`,
    /// with the tick intervals they spend inside.
    pub fn query_window(
        &self,
        from: Tick,
        to: Tick,
        region: &Rect,
    ) -> (Vec<(u64, IntervalSet)>, QueryStats) {
        let probe = Box3 {
            min: [from as f64, region.min_x, region.min_y],
            max: [to as f64, region.max_x, region.max_y],
        };
        let (candidates, nodes_visited) = self.query_box(&probe);
        let mut stats = QueryStats {
            nodes_visited,
            candidates: candidates.len() as u64,
            results: 0,
        };
        let h = Horizon::new(self.lifetime);
        let window = IntervalSet::singleton(Interval::new(from, to.min(self.lifetime)));
        let mut out = Vec::new();
        for id in candidates {
            let Some(legs) = self.objects.get(id) else {
                continue;
            };
            let mut acc = IntervalSet::empty();
            for leg in legs {
                let span = IntervalSet::singleton(Interval::new(leg.from, leg.until));
                acc = acc.union(
                    &inside_rect(leg.motion, *region, h)
                        .intersect(&span)
                        .intersect(&window),
                );
            }
            if !acc.is_empty() {
                out.push((id, acc));
            }
        }
        out.sort_by_key(|(id, _)| *id);
        stats.results = out.len() as u64;
        (out, stats)
    }

    /// Exact recorded position of an object at tick `t`.
    pub fn position_of(&self, id: u64, t: Tick) -> Option<Point> {
        let legs = self.objects.get(id)?;
        let leg = legs
            .iter()
            .rev()
            .find(|l| l.from <= t)
            .or_else(|| legs.first())?;
        Some(leg.motion.position_at_tick(t))
    }

    fn query_box(&self, probe: &Box3) -> (Vec<u64>, u64) {
        let mut out = Vec::new();
        let mut visited = 0u64;
        query_rec(&self.root, self.bounds, probe, &mut out, &mut visited);
        out.sort_unstable();
        out.dedup();
        (out, visited)
    }
}

fn insert_rec(node: &mut Node, bounds: Box3, id: u64, seg: Seg3, depth: u32, copied: &mut u64) {
    let descend = |kid: &mut Node, b: Box3, copied: &mut u64| {
        insert_rec(kid, b, id, seg, depth + 1, copied);
    };
    match node {
        Node::Leaf(items) => {
            items.push((id, seg), copied);
            if items.len <= LEAF_CAPACITY || depth >= MAX_DEPTH {
                return;
            }
            let interior = if splits_time(items.live(), &bounds) {
                Node::Oct(split(items.live(), bounds, depth, copied))
            } else {
                Node::Quad(split(items.live(), bounds, depth, copied))
            };
            *node = interior;
        }
        Node::Quad(kids) => each_crossed(kids, bounds, seg, copied, descend),
        Node::Oct(kids) => each_crossed(kids, bounds, seg, copied, descend),
    }
}

/// The `N` children an overflowing leaf at `depth` hands its items to.
fn split<const N: usize>(
    items: &[Item],
    bounds: Box3,
    depth: u32,
    copied: &mut u64,
) -> Arc<[Node; N]> {
    let empty = Items::empty();
    let mut kids = Arc::new(std::array::from_fn(|_| Node::Leaf(empty.clone())));
    for &(id, seg) in items {
        each_crossed(&mut kids, bounds, seg, copied, |kid, b, copied| {
            insert_rec(kid, b, id, seg, depth + 1, copied);
        });
    }
    kids
}

fn remove_rec(node: &mut Node, bounds: Box3, id: u64, seg: Seg3, copied: &mut u64) {
    let descend = |kid: &mut Node, b: Box3, copied: &mut u64| remove_rec(kid, b, id, seg, copied);
    match node {
        Node::Leaf(items) => items.remove(|(i, s)| *i == id && *s == seg, copied),
        Node::Quad(kids) => each_crossed(kids, bounds, seg, copied, descend),
        Node::Oct(kids) => each_crossed(kids, bounds, seg, copied, descend),
    }
}

fn query_rec(node: &Node, bounds: Box3, probe: &Box3, out: &mut Vec<u64>, visited: &mut u64) {
    *visited += 1;
    match node {
        Node::Leaf(items) => {
            for (id, seg) in items.live() {
                if seg.intersects(probe) {
                    out.push(*id);
                }
            }
        }
        Node::Quad(kids) => query_kids(kids, bounds, probe, out, visited),
        Node::Oct(kids) => query_kids(kids, bounds, probe, out, visited),
    }
}

fn query_kids<const N: usize>(
    kids: &[Node; N],
    bounds: Box3,
    probe: &Box3,
    out: &mut Vec<u64>,
    visited: &mut u64,
) {
    for (b, kid) in bounds.children::<N>().iter().zip(kids) {
        if b.intersects(probe) {
            query_rec(kid, *b, probe, out, visited);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Rect {
        Rect::new(-500.0, -500.0, 500.0, 500.0)
    }

    #[test]
    fn query_at_finds_moving_objects() {
        let mut idx = MovingObjectIndex2D::new(1000, space());
        idx.insert(1, 0, Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        idx.insert(2, 0, Point::new(0.0, 100.0), Velocity::zero());
        let region = Rect::new(40.0, -10.0, 60.0, 10.0);
        let (ids, _) = idx.query_at(50, &region);
        assert_eq!(ids, vec![1]);
        let (ids, _) = idx.query_at(0, &region);
        assert!(ids.is_empty());
        let (ids, _) = idx.query_at(50, &Rect::new(-10.0, 90.0, 10.0, 110.0));
        assert_eq!(ids, vec![2]);
    }

    #[test]
    fn query_window_returns_intervals() {
        let mut idx = MovingObjectIndex2D::new(1000, space());
        idx.insert(1, 0, Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        let region = Rect::new(40.0, -10.0, 60.0, 10.0);
        let (rows, _) = idx.query_window(0, 1000, &region);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.first_tick(), Some(40));
        assert_eq!(rows[0].1.last_tick(), Some(60));
        // A window that misses the crossing.
        let (rows, _) = idx.query_window(70, 100, &region);
        assert!(rows.is_empty());
    }

    #[test]
    fn update_changes_course() {
        let mut idx = MovingObjectIndex2D::new(1000, space());
        idx.insert(1, 0, Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        // At t=30 turn north.
        idx.update(1, 30, Point::new(30.0, 0.0), Velocity::new(0.0, 1.0));
        let east = Rect::new(45.0, -5.0, 55.0, 5.0);
        let (ids, _) = idx.query_at(50, &east);
        assert!(ids.is_empty(), "old course should be un-indexed");
        let north = Rect::new(25.0, 15.0, 35.0, 25.0);
        let (ids, _) = idx.query_at(50, &north);
        assert_eq!(ids, vec![1]);
        // The historical prefix is still queryable.
        let (ids, _) = idx.query_at(10, &Rect::new(5.0, -5.0, 15.0, 5.0));
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn index_matches_brute_force_on_many_objects() {
        let mut idx = MovingObjectIndex2D::new(500, space());
        let mut objs = Vec::new();
        for i in 0..200u64 {
            let p = Point::new(
                (i % 20) as f64 * 40.0 - 400.0,
                (i / 20) as f64 * 40.0 - 200.0,
            );
            let v = Velocity::new(((i % 5) as f64 - 2.0) * 0.3, ((i % 3) as f64 - 1.0) * 0.3);
            idx.insert(i, 0, p, v);
            objs.push(MovingPoint::from_origin(p, v));
        }
        let region = Rect::new(-50.0, -50.0, 50.0, 50.0);
        for t in [0u64, 100, 250, 499] {
            let (got, stats) = idx.query_at(t, &region);
            let want: Vec<u64> = objs
                .iter()
                .enumerate()
                .filter(|(_, m)| region.contains(m.position_at_tick(t)))
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(got, want, "t = {t}");
            assert!(stats.nodes_visited > 0);
        }
    }

    /// Checks `child_hits::<N>` against `intersects` on each of the `N`
    /// child boxes for 20k segments whose lattice coordinates put endpoints
    /// on the faces and mid-planes and make axis-parallel (d == 0) segments
    /// common.
    fn child_hits_agree_with_intersects<const N: usize>(seed: u64) {
        let mut rng = most_testkit::rng::Rng::seed_from_u64(seed);
        let b = Box3 {
            min: [0.0, -500.0, -500.0],
            max: [200.0, 500.0, 500.0],
        };
        let mut coord = |axis: usize| {
            let span = b.max[axis] - b.min[axis];
            b.min[axis] + span * (rng.below(13) as f64 - 2.0) / 8.0
        };
        for _ in 0..20_000 {
            let seg = Seg3 {
                p0: [coord(0), coord(1), coord(2)],
                p1: [coord(0), coord(1), coord(2)],
            };
            let want = b.children::<N>().map(|c| seg.intersects(&c));
            assert_eq!(seg.child_hits::<N>(&b), want, "{seg:?}");
        }
    }

    #[test]
    fn octant_hits_agrees_with_intersects_octant_by_octant() {
        child_hits_agree_with_intersects::<8>(0x0C7A);
    }

    #[test]
    fn quadrant_hits_agrees_with_intersects_quadrant_by_quadrant() {
        let b = Box3 {
            min: [0.0, -500.0, -500.0],
            max: [200.0, 500.0, 500.0],
        };
        for q in b.children::<4>() {
            assert_eq!(
                (q.min[0], q.max[0]),
                (0.0, 200.0),
                "a quadrant keeps the time span"
            );
        }
        child_hits_agree_with_intersects::<4>(0x4CAD);
    }

    /// (four-way, eight-way) interior node counts.
    fn interior_counts(node: &Node) -> (usize, usize) {
        let sum = |kids: &[Node]| {
            kids.iter()
                .map(interior_counts)
                .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1))
        };
        match node {
            Node::Leaf(_) => (0, 0),
            Node::Quad(kids) => {
                let (q, o) = sum(&kids[..]);
                (q + 1, o)
            }
            Node::Oct(kids) => {
                let (q, o) = sum(&kids[..]);
                (q, o + 1)
            }
        }
    }

    #[test]
    fn time_is_split_only_where_the_objects_move() {
        // Parked cars never split time, however deep the cluster goes.
        let mut parked = MovingObjectIndex2D::new(200, space());
        for i in 0..64 {
            parked.insert(i, 0, Point::new(12.5, -7.0), Velocity::zero());
        }
        let (quads, octs) = interior_counts(&parked.root);
        assert_eq!((quads, octs), (MAX_DEPTH as usize, 0));
        assert_eq!(
            parked
                .query_at(150, &Rect::new(10.0, -10.0, 15.0, -5.0))
                .0
                .len(),
            64
        );

        // Cars crossing their cell within its time span split time too.
        let mut fast = MovingObjectIndex2D::new(200, space());
        for i in 0..64u64 {
            let p = Point::new(
                (i % 8) as f64 * 100.0 - 400.0,
                (i / 8) as f64 * 100.0 - 400.0,
            );
            fast.insert(i, 0, p, Velocity::new(4.0, 3.0));
        }
        let (_, octs) = interior_counts(&fast.root);
        assert!(octs > 0, "fast movers never split time");
    }

    #[test]
    #[should_panic]
    fn double_insert_panics() {
        let mut idx = MovingObjectIndex2D::new(100, space());
        idx.insert(1, 0, Point::origin(), Velocity::zero());
        idx.insert(1, 0, Point::origin(), Velocity::zero());
    }
}
