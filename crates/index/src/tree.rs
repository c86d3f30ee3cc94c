//! The Section 4 tree, over time and one or two value axes.
//!
//! "Spatial indexes use a hierarchical recursive decomposition of space,
//! usually into rectangles; the id of each object o is stored in the
//! records representing the rectangles crossed by the A.function of o" —
//! and for an object moving in the plane "the above scheme can be mimicked
//! using an index of 3-dimensional space, with the third dimension being,
//! obviously, time".  [`Tree<K>`] is that one scheme over `K` axes, time
//! first: `K = 2` holds a dynamic attribute's function-lines in
//! (time × value) for [`crate::dynidx`], and `K = 3` the (time × x × y)
//! traces of motion legs for [`crate::index2d`].  Each piece of a function
//! is a segment, stored in every leaf whose cell it crosses.
//!
//! A leaf that overflows picks its split axes from the segments it holds
//! (`splits_time`): it halves time as well as the value axes only where the
//! objects move far enough within the node's time span for that to
//! separate them.  Elsewhere it halves the value axes alone, into children
//! that each keep the whole time span — halving time there would only copy
//! every segment into both halves, and an update would rewrite them all.
//!
//! The tree is **path-copied**: every child link is an [`Arc`], so cloning
//! the tree copies the root pointer, and an update through a clone rewrites
//! only the nodes its segments cross — interior copies re-link their
//! untouched children, they never copy them.  That is what lets each
//! database epoch publish its own index for the price of the batch, not of
//! the population.

use most_spatial::error_bound::forward_error;
use most_spatial::Rect;
use std::sync::Arc;

/// Segments a leaf holds before it splits, in both trees.  A segment is
/// stored in every leaf it crosses and an update rewrites each of them, so
/// fuller leaves make a write cheaper, while a probe tests every segment
/// of the leaves it reaches.  At 64, a motion leg among 20 000 cars lands
/// in about 10 leaves (37 at 8) and a region probe tests as few segments
/// as at any capacity from 8 to 256; at 256 a write is cheaper still, but
/// the probe tests 2.5 times as many (EXPERIMENTS.md, PR 34).
pub const LEAF_CAPACITY: usize = 64;
const MAX_DEPTH: u32 = 10;

/// Rounded operations the clip's slab widening covers.  A position at a
/// tick and a segment's endpoints are each computed from the piece's
/// anchor in three (`anchor + velocity · (t − since)`), and the clip
/// adds at most six more per slab: the widening, the subtraction from
/// `p0`, the difference `p1 − p0`, the division and the two comparisons.
/// Sixteen covers both with room, over the summed magnitudes of the
/// segment's and the slab's coordinates on that axis and of the
/// quantities the endpoints were computed from ([`Seg::scale`]).  The
/// last term matters for a piece `roll_to` re-inserts: it keeps its
/// object's anchor, which may lie far beyond both endpoints (an object
/// that came from far away toward the origin since its last update).
const CLIP_OPS: u32 = 16;

/// Counter of tree nodes and leg-table chunks copied because an older
/// clone of the index still shares them.
pub(crate) const NODES_COPIED: &str = "index.nodes_copied";

/// An axis-aligned box over time (axis 0) and `K - 1` value axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Bounds<const K: usize> {
    pub(crate) min: [f64; K],
    pub(crate) max: [f64; K],
}

impl<const K: usize> Bounds<K> {
    fn intersects(&self, other: &Bounds<K>) -> bool {
        (0..K).all(|i| self.min[i] <= other.max[i] && other.min[i] <= self.max[i])
    }

    /// The `N` children of a node over this box: `2^K` halve every axis;
    /// `2^(K-1)` halve the value axes and keep the whole time span.  Child
    /// `i` takes the upper half of the `k`-th halved axis iff bit `k` of
    /// `i` is set.
    fn children<const N: usize>(&self) -> [Bounds<K>; N] {
        let first = first_split_axis::<K, N>();
        std::array::from_fn(|i| {
            let mut b = *self;
            for axis in first..K {
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

impl Bounds<2> {
    /// The (time × value) box of a rectangle whose x axis is time.
    pub(crate) fn from_rect(r: &Rect) -> Bounds<2> {
        Bounds {
            min: [r.min_x, r.min_y],
            max: [r.max_x, r.max_y],
        }
    }
}

/// The first axis a node with `N` children over `K` axes halves — time (0)
/// for `2^K`, the first value axis (1) for `2^(K-1)`; every axis after it
/// is halved too.
const fn first_split_axis<const K: usize, const N: usize>() -> usize {
    K - N.trailing_zeros() as usize
}

/// A segment in the tree's space: the trace of one piece of a function
/// (a function-line piece, or a motion leg), time running from `p0` to
/// `p1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Seg<const K: usize> {
    pub(crate) p0: [f64; K],
    pub(crate) p1: [f64; K],
    /// A bound on the magnitudes of the quantities the endpoints were
    /// computed from ([`crate::legs::Motion::scale`]); 0 for endpoints
    /// given exactly.
    pub(crate) scale: f64,
}

impl<const K: usize> Seg<K> {
    /// The span of the segment's parameter (0 at `p0`, 1 at `p1`) over
    /// which its `axis` coordinate lies in `[min, max]`, the slab widened
    /// by [`CLIP_OPS`]' forward error bound over the magnitudes of the
    /// segment, its scale and the slab; `None` when a segment constant on
    /// that axis lies outside.
    fn slab(&self, axis: usize, min: f64, max: f64) -> Option<(f64, f64)> {
        let (p0, p1) = (self.p0[axis], self.p1[axis]);
        let magnitude = self.scale + p0.abs() + p1.abs() + min.abs() + max.abs();
        let margin = forward_error(CLIP_OPS, magnitude);
        let (min, max) = (min - margin, max + margin);
        let d = p1 - p0;
        if d == 0.0 {
            (!(p0 < min || p0 > max)).then_some((f64::NEG_INFINITY, f64::INFINITY))
        } else {
            let (t1, t2) = ((min - p0) / d, (max - p0) / d);
            Some(if t1 <= t2 { (t1, t2) } else { (t2, t1) })
        }
    }

    /// Whether the segment touches the box — a Liang–Barsky clip whose
    /// slabs are widened by a forward error bound, so it never misses a
    /// touch that exact arithmetic finds.  It may report a segment that
    /// passes within rounding distance of the box: the index is a filter,
    /// and the exact test after it decides.
    pub(crate) fn intersects(&self, b: &Bounds<K>) -> bool {
        clip((0..K).map(|axis| self.slab(axis, b.min[axis], b.max[axis])))
    }

    /// [`Seg::intersects`] against each of `b`'s `N` children
    /// ([`Bounds::children`]), sharing the slabs between them: a child's
    /// slab on a halved axis is the lower or the upper half of `b`'s and on
    /// an axis the split keeps is `b`'s own, so two per axis serve every
    /// test.  Each is [`Seg::slab`] over the child's own planes, so the two
    /// agree bit for bit.
    fn child_hits<const N: usize>(&self, b: &Bounds<K>) -> [bool; N] {
        let first = first_split_axis::<K, N>();
        let spans: [[Option<(f64, f64)>; 2]; K] = std::array::from_fn(|axis| {
            let mid = (b.min[axis] + b.max[axis]) / 2.0;
            let planes = if axis < first {
                [b.min[axis], b.max[axis], b.max[axis]]
            } else {
                [b.min[axis], mid, b.max[axis]]
            };
            std::array::from_fn(|half| self.slab(axis, planes[half], planes[half + 1]))
        });
        std::array::from_fn(|child| {
            clip(spans.iter().enumerate().map(|(axis, halves)| {
                let half = if axis < first {
                    0
                } else {
                    (child >> (axis - first)) & 1
                };
                halves[half]
            }))
        })
    }

    /// Distance covered across the value axes per tick (0 for an instant).
    fn speed(&self) -> f64 {
        let dt = self.p1[0] - self.p0[0];
        if dt > 0.0 {
            let sq = (1..K).fold(0.0, |sq, axis| {
                let d = self.p1[axis] - self.p0[axis];
                sq + d * d
            });
            sq.sqrt() / dt
        } else {
            0.0
        }
    }
}

/// Whether the per-axis parameter spans of a segment ([`Seg::slab`])
/// leave some parameter in `[0, 1]` inside all of them.
fn clip(spans: impl Iterator<Item = Option<(f64, f64)>>) -> bool {
    let (mut t_min, mut t_max) = (0.0f64, 1.0f64);
    for span in spans {
        let Some((lo, hi)) = span else {
            return false;
        };
        t_min = t_min.max(lo);
        t_max = t_max.min(hi);
        if t_min > t_max {
            return false;
        }
    }
    true
}

/// One indexed segment: the object and the piece of its function.
type Item<const K: usize> = (u64, Seg<K>);

/// The split rule for an overflowing leaf over `b`: halve time as well as
/// the value axes only when the items' mean speed × the node's time extent
/// reaches its smallest value extent, which keeps cells roughly isotropic
/// in (values, v̄·t).  It is read off the items rather than fixed because
/// the right time depth differs by region and by speed: a cell of parked
/// cars (or constant attributes) never gains from a time split (each
/// stationary segment is copied into every time half), a cell of fast ones
/// does from the root down.
fn splits_time<const K: usize>(items: &[Item<K>], b: &Bounds<K>) -> bool {
    let mean_speed = items.iter().map(|(_, seg)| seg.speed()).sum::<f64>() / items.len() as f64;
    let extent = |axis: usize| b.max[axis] - b.min[axis];
    mean_speed * extent(0) >= (1..K).map(extent).fold(f64::INFINITY, f64::min)
}

/// A node *is* its shared allocation: a leaf's items sit inline behind one
/// `Arc`, an interior node's children behind another, so the tree
/// allocates, frees and dereferences exactly as often as an unshared one.
/// Cloning an interior array clones its handles, never a sibling's items.
/// An interior node records the split its leaf chose by its child count:
/// `2^(K-1)` halve the value axes, `2^K` halve time too.
#[derive(Debug, Clone)]
enum Node<const K: usize> {
    Leaf(Items<K>),
    /// Halves the value axis of a `K = 2` tree.
    Two(Arc<[Node<K>; 2]>),
    /// Halves time and value (`K = 2`), or x and y (`K = 3`).
    Four(Arc<[Node<K>; 4]>),
    /// Halves time, x and y (`K = 3`).
    Eight(Arc<[Node<K>; 8]>),
}

/// A leaf's items: a small vector whose buffer is one shareable
/// allocation.  `slots[..len]` are live and the rest is spare capacity
/// (doubling, like `Vec`), so a leaf no older clone shares grows in place
/// — the bulk build allocates as an unshared tree would — and a shared one
/// is rebuilt around the change.
#[derive(Debug, Clone)]
struct Items<const K: usize> {
    slots: Arc<[Item<K>]>,
    len: usize,
}

impl<const K: usize> Items<K> {
    /// Filler for spare capacity; never read.
    const NO_ITEM: Item<K> = (
        0,
        Seg {
            p0: [0.0; K],
            p1: [0.0; K],
            scale: 0.0,
        },
    );

    fn empty() -> Items<K> {
        Items {
            slots: Arc::from([]),
            len: 0,
        }
    }

    fn live(&self) -> &[Item<K>] {
        &self.slots[..self.len]
    }

    /// A fresh buffer holding `live`, with capacity for `len` items rounded
    /// up as `Vec` would.
    fn with_room(live: &[Item<K>], len: usize) -> Items<K> {
        let capacity = len.next_power_of_two().max(4);
        let mut slots: Arc<[Item<K>]> = std::iter::repeat_n(Self::NO_ITEM, capacity).collect();
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

    fn push(&mut self, item: Item<K>, copied: &mut u64) {
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
    fn remove(&mut self, gone: impl Fn(&Item<K>) -> bool, copied: &mut u64) {
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
            let kept: Vec<Item<K>> = self
                .live()
                .iter()
                .copied()
                .filter(|item| !gone(item))
                .collect();
            *self = Items::with_room(&kept, kept.len());
        }
    }
}

/// The tree over a fixed box: segments keyed by object id.
#[derive(Debug, Clone)]
pub(crate) struct Tree<const K: usize> {
    bounds: Bounds<K>,
    root: Node<K>,
}

impl<const K: usize> Tree<K> {
    /// An empty tree over `bounds`.
    pub(crate) fn new(bounds: Bounds<K>) -> Self {
        const { assert!(K == 2 || K == 3, "time and one or two value axes") };
        Tree {
            bounds,
            root: Node::Leaf(Items::empty()),
        }
    }

    /// Removes the segments `old` of object `id`, then inserts its
    /// segments `new`: one operation, whose node copies are reported once
    /// rather than once per node.  A segment is stored in the cells it
    /// crosses; one outside the bounds lands nowhere once the root splits.
    pub(crate) fn replace(
        &mut self,
        id: u64,
        old: impl IntoIterator<Item = Seg<K>>,
        new: impl IntoIterator<Item = Seg<K>>,
    ) {
        let mut copied = 0;
        for seg in old {
            remove_rec(&mut self.root, self.bounds, id, seg, &mut copied);
        }
        for seg in new {
            insert_rec(&mut self.root, self.bounds, id, seg, 0, &mut copied);
        }
        if copied > 0 {
            most_obs::add(NODES_COPIED, copied);
        }
    }

    /// The ids whose segments touch `probe`, sorted and deduplicated, plus
    /// the number of nodes visited.
    pub(crate) fn query(&self, probe: &Bounds<K>) -> (Vec<u64>, u64) {
        let mut out = Vec::new();
        let mut visited = 0u64;
        query_rec(&self.root, self.bounds, probe, &mut out, &mut visited);
        out.sort_unstable();
        out.dedup();
        (out, visited)
    }
}

/// Write access to an interior node's children, copying the array first
/// (and counting the copy) when an older clone of the index shares it.
fn unshare<'a, const K: usize, const N: usize>(
    kids: &'a mut Arc<[Node<K>; N]>,
    copied: &mut u64,
) -> &'a mut [Node<K>; N] {
    let before = Arc::as_ptr(kids);
    let kids = Arc::make_mut(kids);
    *copied += u64::from(!std::ptr::eq(before, kids));
    kids
}

/// Runs `f` on every child of an interior node over `bounds` that `seg`
/// crosses, with the child's box.
fn each_crossed<const K: usize, const N: usize>(
    kids: &mut Arc<[Node<K>; N]>,
    bounds: Bounds<K>,
    seg: Seg<K>,
    copied: &mut u64,
    mut f: impl FnMut(&mut Node<K>, Bounds<K>, &mut u64),
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

fn insert_rec<const K: usize>(
    node: &mut Node<K>,
    bounds: Bounds<K>,
    id: u64,
    seg: Seg<K>,
    depth: u32,
    copied: &mut u64,
) {
    let descend = |kid: &mut Node<K>, b: Bounds<K>, copied: &mut u64| {
        insert_rec(kid, b, id, seg, depth + 1, copied);
    };
    match node {
        Node::Leaf(items) => {
            items.push((id, seg), copied);
            if items.len <= LEAF_CAPACITY || depth >= MAX_DEPTH {
                return;
            }
            let (live, b) = (items.live(), bounds);
            let interior = match K - 1 + usize::from(splits_time(live, &b)) {
                1 => Node::Two(split(live, b, depth, copied)),
                2 => Node::Four(split(live, b, depth, copied)),
                _ => Node::Eight(split(live, b, depth, copied)),
            };
            *node = interior;
        }
        Node::Two(kids) => each_crossed(kids, bounds, seg, copied, descend),
        Node::Four(kids) => each_crossed(kids, bounds, seg, copied, descend),
        Node::Eight(kids) => each_crossed(kids, bounds, seg, copied, descend),
    }
}

/// The `N` children an overflowing leaf at `depth` hands its items to.
fn split<const K: usize, const N: usize>(
    items: &[Item<K>],
    bounds: Bounds<K>,
    depth: u32,
    copied: &mut u64,
) -> Arc<[Node<K>; N]> {
    let empty = Items::empty();
    let mut kids = Arc::new(std::array::from_fn(|_| Node::Leaf(empty.clone())));
    for &(id, seg) in items {
        each_crossed(&mut kids, bounds, seg, copied, |kid, b, copied| {
            insert_rec(kid, b, id, seg, depth + 1, copied);
        });
    }
    kids
}

fn remove_rec<const K: usize>(
    node: &mut Node<K>,
    bounds: Bounds<K>,
    id: u64,
    seg: Seg<K>,
    copied: &mut u64,
) {
    let descend =
        |kid: &mut Node<K>, b: Bounds<K>, copied: &mut u64| remove_rec(kid, b, id, seg, copied);
    match node {
        Node::Leaf(items) => items.remove(|(i, s)| *i == id && *s == seg, copied),
        Node::Two(kids) => each_crossed(kids, bounds, seg, copied, descend),
        Node::Four(kids) => each_crossed(kids, bounds, seg, copied, descend),
        Node::Eight(kids) => each_crossed(kids, bounds, seg, copied, descend),
    }
}

fn query_rec<const K: usize>(
    node: &Node<K>,
    bounds: Bounds<K>,
    probe: &Bounds<K>,
    out: &mut Vec<u64>,
    visited: &mut u64,
) {
    *visited += 1;
    match node {
        Node::Leaf(items) => {
            for (id, seg) in items.live() {
                if seg.intersects(probe) {
                    out.push(*id);
                }
            }
        }
        Node::Two(kids) => query_kids(kids, bounds, probe, out, visited),
        Node::Four(kids) => query_kids(kids, bounds, probe, out, visited),
        Node::Eight(kids) => query_kids(kids, bounds, probe, out, visited),
    }
}

fn query_kids<const K: usize, const N: usize>(
    kids: &[Node<K>; N],
    bounds: Bounds<K>,
    probe: &Bounds<K>,
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
pub(crate) mod tests {
    use super::*;

    /// The function-line piece of a linear attribute: value `v0` at time
    /// `t0`, changing by `slope` per tick, up to time `t1`.
    pub(crate) fn line(t0: f64, v0: f64, slope: f64, t1: f64) -> Seg<2> {
        Seg {
            p0: [t0, v0],
            p1: [t1, v0 + slope * (t1 - t0)],
            scale: 0.0,
        }
    }

    /// The (time × value) box `[t0, t1] × [v0, v1]`.
    fn cell(t0: f64, v0: f64, t1: f64, v1: f64) -> Bounds<2> {
        Bounds {
            min: [t0, v0],
            max: [t1, v1],
        }
    }

    /// `[0, 200]` in time and `[-500, 500]` on each value axis.
    fn space<const K: usize>() -> Bounds<K> {
        let (min, max) = ([0.0, -500.0, -500.0], [200.0, 500.0, 500.0]);
        Bounds {
            min: std::array::from_fn(|axis| min[axis]),
            max: std::array::from_fn(|axis| max[axis]),
        }
    }

    fn tree_of<const K: usize>(
        bounds: Bounds<K>,
        segs: impl IntoIterator<Item = (u64, Seg<K>)>,
    ) -> Tree<K> {
        let mut tree = Tree::new(bounds);
        for (id, seg) in segs {
            tree.replace(id, [], [seg]);
        }
        tree
    }

    /// Interior node counts by child count: (two, four, eight).
    fn interior_counts<const K: usize>(node: &Node<K>) -> [usize; 3] {
        let sum = |kids: &[Node<K>], at: usize| {
            let mut counts = kids
                .iter()
                .map(interior_counts)
                .fold([0; 3], |a, c| std::array::from_fn(|i| a[i] + c[i]));
            counts[at] += 1;
            counts
        };
        match node {
            Node::Leaf(_) => [0; 3],
            Node::Two(kids) => sum(&kids[..], 0),
            Node::Four(kids) => sum(&kids[..], 1),
            Node::Eight(kids) => sum(&kids[..], 2),
        }
    }

    #[test]
    fn segment_clipping_cases() {
        let diagonal = line(0.0, 0.0, 1.0, 10.0);
        let flat = line(0.0, 3.0, 0.0, 10.0);
        // Zero-duration segments arise for updates at the horizon edge.
        let instant = Seg {
            p0: [5.0, 1.0],
            p1: [5.0, 1.0],
            scale: 0.0,
        };
        for (case, seg, b, hit) in [
            (
                "diagonal crossing",
                diagonal,
                cell(4.0, 4.0, 6.0, 6.0),
                true,
            ),
            ("endpoint inside", diagonal, cell(0.0, 0.0, 1.0, 1.0), true),
            (
                "endpoint touch",
                diagonal,
                cell(10.0, 10.0, 12.0, 12.0),
                true,
            ),
            (
                "box above the line",
                diagonal,
                cell(0.0, 5.0, 2.0, 9.0),
                false,
            ),
            (
                "box below the line",
                diagonal,
                cell(6.0, 0.0, 9.0, 3.0),
                false,
            ),
            (
                "partial overlap",
                diagonal,
                cell(5.0, 5.0, 20.0, 20.0),
                true,
            ),
            (
                "flat through a tall box",
                flat,
                cell(4.0, 0.0, 5.0, 10.0),
                true,
            ),
            (
                "flat under a tall box",
                flat,
                cell(4.0, 4.0, 5.0, 10.0),
                false,
            ),
            ("boundary touch", flat, cell(4.0, 3.0, 5.0, 10.0), true),
            (
                "zero duration inside",
                instant,
                cell(4.0, 0.0, 6.0, 2.0),
                true,
            ),
            (
                "zero duration outside",
                instant,
                cell(6.0, 0.0, 7.0, 2.0),
                false,
            ),
        ] {
            assert_eq!(seg.intersects(&b), hit, "{case}");
        }
    }

    /// Checks `child_hits::<N>` against `intersects` on each of the `N`
    /// child boxes for 20k segments whose lattice coordinates put endpoints
    /// on the faces and mid-planes and make axis-parallel (d == 0) segments
    /// common.  The children of a `2^(K-1)`-way split keep the time span.
    fn child_hits_agree_with_intersects<const K: usize, const N: usize>(seed: u64) {
        let b = space::<K>();
        if N < 1 << K {
            for c in b.children::<N>() {
                assert_eq!((c.min[0], c.max[0]), (0.0, 200.0), "keeps the time span");
            }
        }
        let mut rng = most_testkit::rng::Rng::seed_from_u64(seed);
        let mut coord = |axis: usize| {
            let span = b.max[axis] - b.min[axis];
            b.min[axis] + span * (rng.below(13) as f64 - 2.0) / 8.0
        };
        for _ in 0..20_000 {
            let p0 = std::array::from_fn(&mut coord);
            let seg = Seg {
                p0,
                p1: std::array::from_fn(&mut coord),
                scale: 0.0,
            };
            let want = b.children::<N>().map(|c| seg.intersects(&c));
            assert_eq!(seg.child_hits::<N>(&b), want, "{seg:?}");
        }
    }

    #[test]
    fn octant_hits_agrees_with_intersects_octant_by_octant() {
        child_hits_agree_with_intersects::<3, 8>(0x0C7A);
    }

    #[test]
    fn quadrant_hits_agrees_with_intersects_quadrant_by_quadrant() {
        child_hits_agree_with_intersects::<3, 4>(0x4CAD);
    }

    #[test]
    fn time_value_hits_agree_with_intersects_child_by_child() {
        child_hits_agree_with_intersects::<2, 4>(0x2D4);
        child_hits_agree_with_intersects::<2, 2>(0x2D2);
    }

    #[test]
    fn time_is_split_only_where_the_objects_move() {
        // Eight leaves' worth of segments per case, so every case splits.
        let n = 8 * LEAF_CAPACITY as u64;
        // Parked cars never split time, however deep the cluster goes.
        let parked = Seg {
            p0: [0.0, 12.5, -7.0],
            p1: [200.0, 12.5, -7.0],
            scale: 0.0,
        };
        let parked = tree_of(space(), (0..n).map(|i| (i, parked)));
        assert_eq!(interior_counts(&parked.root), [0, MAX_DEPTH as usize, 0]);
        let probe = Bounds {
            min: [149.5, 10.0, -10.0],
            max: [150.5, 15.0, -5.0],
        };
        assert_eq!(parked.query(&probe).0.len(), n as usize);

        // Cars crossing their cell within its time span split time too.
        let side = (n as f64).sqrt().ceil() as u64;
        let pitch = 800.0 / side as f64;
        let fast = tree_of(
            space(),
            (0..n).map(|i| {
                let (x, y) = (
                    (i % side) as f64 * pitch - 400.0,
                    (i / side) as f64 * pitch - 400.0,
                );
                let seg = Seg {
                    p0: [0.0, x, y],
                    p1: [200.0, x + 800.0, y + 600.0],
                    scale: 0.0,
                };
                (i, seg)
            }),
        );
        assert!(
            interior_counts(&fast.root)[2] > 0,
            "fast movers never split time"
        );

        // So do constant attributes and steep function-lines.
        let constant = tree_of(space(), (0..n).map(|i| (i, line(0.0, 12.5, 0.0, 200.0))));
        assert_eq!(interior_counts(&constant.root), [MAX_DEPTH as usize, 0, 0]);
        assert_eq!(
            constant.query(&cell(149.5, 10.0, 150.5, 15.0)).0.len(),
            n as usize
        );
        let step = 768.0 / n as f64;
        let steep = tree_of(
            space(),
            (0..n).map(|i| (i, line(0.0, i as f64 * step - 400.0, 5.0, 200.0))),
        );
        assert!(
            interior_counts(&steep.root)[1] > 0,
            "steep lines never split time"
        );
    }

    /// Leaves and items stored in them, by walking the tree.
    fn leaves_and_items<const K: usize>(node: &Node<K>) -> (usize, usize) {
        let sum = |kids: &[Node<K>]| {
            kids.iter()
                .map(leaves_and_items)
                .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1))
        };
        match node {
            Node::Leaf(items) => (1, items.len),
            Node::Two(kids) => sum(&kids[..]),
            Node::Four(kids) => sum(&kids[..]),
            Node::Eight(kids) => sum(&kids[..]),
        }
    }

    /// A leg is stored in every leaf it crosses and an update rewrites
    /// each of them, so the number of leaves a leg lands in is what a
    /// write costs.  5 000 cars at the serving benchmark's density (one
    /// per 200 square units, on a jittered lattice), each driving at up to
    /// 2 units per tick on each axis for the index lifetime of 200 ticks,
    /// in a space 1 000 units wider than the start square on every side.
    #[test]
    fn a_leg_lands_in_a_handful_of_well_filled_leaves() {
        let (cars, width) = (5_000u64, 1_000.0);
        let side = (cars as f64).sqrt().ceil() as u64;
        let pitch = width / side as f64;
        let mut rng = most_testkit::rng::Rng::seed_from_u64(0x5EED);
        let legs = (0..cars).map(|i| {
            let x = ((i % side) as f64 + rng.f64()) * pitch;
            let y = ((i / side) as f64 + rng.f64()) * pitch;
            let (vx, vy) = (
                rng.random_range(-2.0..2.0f64),
                rng.random_range(-2.0..2.0f64),
            );
            let seg = Seg {
                p0: [0.0, x, y],
                p1: [200.0, x + 200.0 * vx, y + 200.0 * vy],
                scale: 0.0,
            };
            (i, seg)
        });
        let bounds = Bounds {
            min: [0.0, -1_000.0, -1_000.0],
            max: [200.0, width + 1_000.0, width + 1_000.0],
        };
        let tree = tree_of(bounds, legs);
        let (leaves, items) = leaves_and_items(&tree.root);
        let leaves_per_leg = items as f64 / cars as f64;
        let items_per_leaf = items as f64 / leaves as f64;
        // 10.7 and 30.2 at capacity 64; 32.6 and 3.5 at capacity 8.
        assert!(
            leaves_per_leg <= 14.0,
            "a leg lands in {leaves_per_leg:.1} leaves"
        );
        assert!(
            items_per_leaf >= 20.0,
            "a leaf holds {items_per_leaf:.1} items"
        );
    }

    /// `[0, 100]` in time and `[-100, 100]` in value.
    fn attr_space() -> Bounds<2> {
        cell(0.0, -100.0, 100.0, 100.0)
    }

    #[test]
    fn insert_query_round_trip() {
        // Object 1 rises from 0; object 2 stays flat at 50.
        let tree = tree_of(
            attr_space(),
            [
                (1, line(0.0, 0.0, 1.0, 100.0)),
                (2, line(0.0, 50.0, 0.0, 100.0)),
            ],
        );
        for (probe, want) in [
            (cell(9.0, 5.0, 11.0, 15.0), vec![1]),
            (cell(9.0, 45.0, 11.0, 55.0), vec![2]),
            (cell(49.0, 45.0, 51.0, 55.0), vec![1, 2]),
        ] {
            assert_eq!(tree.query(&probe).0, want, "{probe:?}");
        }
    }

    #[test]
    fn split_and_dedup() {
        // Six leaves' worth of lines, rising from values spread over [0, 50).
        let n = 6 * LEAF_CAPACITY as u64 + 2;
        let tree = tree_of(
            attr_space(),
            (0..n).map(|i| (i, line(0.0, i as f64 * 50.0 / n as f64, 0.5, 100.0))),
        );
        assert_ne!(
            interior_counts(&tree.root),
            [0; 3],
            "tree should have split"
        );
        // A query over the whole space returns each id once.
        let (ids, visited) = tree.query(&attr_space());
        assert_eq!(ids, (0..n).collect::<Vec<u64>>());
        assert!(visited > 1);
    }

    #[test]
    fn remove_segments() {
        let s = line(0.0, 10.0, 0.0, 100.0);
        let mut tree = tree_of(attr_space(), [(7, s)]);
        tree.replace(7, [s], []);
        // Removing it again changes nothing.
        tree.replace(7, [s], []);
        assert!(tree.query(&cell(0.0, 0.0, 100.0, 20.0)).0.is_empty());
    }

    #[test]
    fn query_misses_far_regions() {
        let tree = tree_of(attr_space(), [(1, line(0.0, -90.0, 0.0, 100.0))]);
        assert!(tree.query(&cell(0.0, 80.0, 100.0, 100.0)).0.is_empty());
    }

    #[test]
    fn deep_duplication_does_not_duplicate_results() {
        // Many overlapping steep lines force deep splits and multi-cell
        // storage.
        let lines: Vec<(u64, Seg<2>)> = (0..4 * LEAF_CAPACITY as u64 - 2)
            .map(|i| (i, line(0.0, -50.0 + i as f64 * 0.1, 1.5, 100.0)))
            .collect();
        let tree = tree_of(attr_space(), lines.iter().copied());
        let probe = cell(20.0, -40.0, 40.0, 40.0);
        let want: Vec<u64> = lines
            .iter()
            .filter(|(_, seg)| seg.intersects(&probe))
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(tree.query(&probe).0, want);
    }
}
