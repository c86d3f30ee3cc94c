//! An R-tree over function-line segments: the ablation alternative to the
//! Section 4 tree (DESIGN.md D4 / experiment E7).
//!
//! Supports STR (sort-tile-recursive) bulk loading from a segment set and
//! incremental insertion with quadratic split.  Queries first prune by
//! bounding boxes, then re-test candidate segments with the tree's own
//! clipper, so results match the tree's.

use crate::tree::{Bounds, Seg};
use most_spatial::Rect;

const MAX_ENTRIES: usize = 8;
const MIN_ENTRIES: usize = 3;

/// An R-tree of `(id, segment)` entries.
#[derive(Debug, Clone)]
pub struct RTree {
    root: Node,
    len: usize,
}

#[derive(Debug, Clone)]
struct Node {
    bbox: Rect,
    kind: NodeKind,
}

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf(Vec<(u64, Seg<2>)>),
    Internal(Vec<Node>),
}

fn empty_rect() -> Rect {
    Rect::new(0.0, 0.0, 0.0, 0.0)
}

/// A segment's bounding box in (time × value).
fn bbox(seg: &Seg<2>) -> Rect {
    Rect::new(seg.p0[0], seg.p0[1], seg.p1[0], seg.p1[1])
}

impl RTree {
    /// An empty tree.
    pub fn new() -> Self {
        RTree {
            root: Node {
                bbox: empty_rect(),
                kind: NodeKind::Leaf(Vec::new()),
            },
            len: 0,
        }
    }

    /// STR bulk load: sort by x-center into vertical slices, then by
    /// y-center within each slice.
    pub fn bulk_load(mut entries: Vec<(u64, Seg<2>)>) -> Self {
        let len = entries.len();
        if len == 0 {
            return RTree::new();
        }
        let leaf_count = len.div_ceil(MAX_ENTRIES);
        let slices = (leaf_count as f64).sqrt().ceil() as usize;
        let per_slice = len.div_ceil(slices);
        entries.sort_by(|a, b| {
            let ca = (a.1.p0[0] + a.1.p1[0]) / 2.0;
            let cb = (b.1.p0[0] + b.1.p1[0]) / 2.0;
            ca.total_cmp(&cb)
        });
        let mut leaves: Vec<Node> = Vec::with_capacity(leaf_count);
        for slice in entries.chunks(per_slice.max(1)) {
            let mut slice = slice.to_vec();
            slice.sort_by(|a, b| {
                let ca = (a.1.p0[1] + a.1.p1[1]) / 2.0;
                let cb = (b.1.p0[1] + b.1.p1[1]) / 2.0;
                ca.total_cmp(&cb)
            });
            for group in slice.chunks(MAX_ENTRIES) {
                let items = group.to_vec();
                let bbox = items
                    .iter()
                    .map(|(_, s)| bbox(s))
                    .reduce(|a, b| a.union(&b))
                    .expect("non-empty group");
                leaves.push(Node {
                    bbox,
                    kind: NodeKind::Leaf(items),
                });
            }
        }
        // Pack upwards.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(MAX_ENTRIES));
            level.sort_by(|a, b| a.bbox.center().x.total_cmp(&b.bbox.center().x));
            for group in level.chunks(MAX_ENTRIES) {
                let children: Vec<Node> = group.to_vec();
                let bbox = children
                    .iter()
                    .map(|c| c.bbox)
                    .reduce(|a, b| a.union(&b))
                    .expect("non-empty group");
                next.push(Node {
                    bbox,
                    kind: NodeKind::Internal(children),
                });
            }
            level = next;
        }
        RTree {
            root: level.pop().expect("at least one node"),
            len,
        }
    }

    /// Inserts an entry (choose-subtree by least enlargement; quadratic
    /// split on overflow).
    pub fn insert(&mut self, id: u64, seg: Seg<2>) {
        let bbox = bbox(&seg);
        if self.len == 0 {
            self.root = Node {
                bbox,
                kind: NodeKind::Leaf(vec![(id, seg)]),
            };
            self.len = 1;
            return;
        }
        if let Some((a, b)) = insert_rec(&mut self.root, id, seg) {
            // Root split.
            let bbox = a.bbox.union(&b.bbox);
            self.root = Node {
                bbox,
                kind: NodeKind::Internal(vec![a, b]),
            };
        }
        self.len += 1;
    }

    /// Removes an exact `(id, segment)` entry.
    pub fn remove(&mut self, id: u64, seg: Seg<2>) -> bool {
        let removed = remove_rec(&mut self.root, id, seg);
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Ids of segments intersecting the rectangle (exact; deduplicated),
    /// plus nodes visited.
    pub fn query(&self, rect: &Rect) -> (Vec<u64>, u64) {
        let mut out = Vec::new();
        let mut visited = 0u64;
        if self.len > 0 {
            query_rec(
                &self.root,
                rect,
                &Bounds::from_rect(rect),
                &mut out,
                &mut visited,
            );
        }
        out.sort_unstable();
        out.dedup();
        (out, visited)
    }
}

fn insert_rec(node: &mut Node, id: u64, seg: Seg<2>) -> Option<(Node, Node)> {
    let seg_box = bbox(&seg);
    node.bbox = if matches!(&node.kind, NodeKind::Leaf(v) if v.is_empty()) {
        seg_box
    } else {
        node.bbox.union(&seg_box)
    };
    match &mut node.kind {
        NodeKind::Leaf(items) => {
            items.push((id, seg));
            if items.len() > MAX_ENTRIES {
                let (a, b) = split_leaf(std::mem::take(items));
                Some((a, b))
            } else {
                None
            }
        }
        NodeKind::Internal(children) => {
            // Least-enlargement child.
            let best = children
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.bbox
                        .enlargement(&seg_box)
                        .total_cmp(&b.bbox.enlargement(&seg_box))
                })
                .map(|(i, _)| i)
                .expect("internal node has children");
            if let Some((a, b)) = insert_rec(&mut children[best], id, seg) {
                children.swap_remove(best);
                children.push(a);
                children.push(b);
                if children.len() > MAX_ENTRIES {
                    let (a, b) = split_internal(std::mem::take(children));
                    return Some((a, b));
                }
            }
            None
        }
    }
}

/// Quadratic split: pick the pair of seeds wasting the most area, then
/// assign each entry to the group whose bbox grows least.
fn split_leaf(items: Vec<(u64, Seg<2>)>) -> (Node, Node) {
    let boxes: Vec<Rect> = items.iter().map(|(_, s)| bbox(s)).collect();
    let (s1, s2) = pick_seeds(&boxes);
    let mut g1 = vec![items[s1]];
    let mut g2 = vec![items[s2]];
    let mut b1 = boxes[s1];
    let mut b2 = boxes[s2];
    for (i, item) in items.into_iter().enumerate() {
        if i == s1 || i == s2 {
            continue;
        }
        let bb = boxes[i];
        assign(&mut g1, &mut b1, &mut g2, &mut b2, item, bb);
    }
    (
        Node {
            bbox: b1,
            kind: NodeKind::Leaf(g1),
        },
        Node {
            bbox: b2,
            kind: NodeKind::Leaf(g2),
        },
    )
}

fn split_internal(children: Vec<Node>) -> (Node, Node) {
    let boxes: Vec<Rect> = children.iter().map(|c| c.bbox).collect();
    let (s1, s2) = pick_seeds(&boxes);
    let mut g1 = Vec::new();
    let mut g2 = Vec::new();
    let mut b1 = boxes[s1];
    let mut b2 = boxes[s2];
    for (i, child) in children.into_iter().enumerate() {
        if i == s1 {
            g1.insert(0, child);
            continue;
        }
        if i == s2 {
            g2.insert(0, child);
            continue;
        }
        let bb = boxes[i];
        assign(&mut g1, &mut b1, &mut g2, &mut b2, child, bb);
    }
    (
        Node {
            bbox: b1,
            kind: NodeKind::Internal(g1),
        },
        Node {
            bbox: b2,
            kind: NodeKind::Internal(g2),
        },
    )
}

fn pick_seeds(boxes: &[Rect]) -> (usize, usize) {
    let mut best = (0, 1);
    let mut worst_waste = f64::NEG_INFINITY;
    for i in 0..boxes.len() {
        for j in i + 1..boxes.len() {
            let waste = boxes[i].union(&boxes[j]).area() - boxes[i].area() - boxes[j].area();
            if waste > worst_waste {
                worst_waste = waste;
                best = (i, j);
            }
        }
    }
    best
}

fn assign<T>(g1: &mut Vec<T>, b1: &mut Rect, g2: &mut Vec<T>, b2: &mut Rect, item: T, bb: Rect) {
    // Honour minimum fill.
    let remaining_cap = |g: &Vec<T>| g.len() < MAX_ENTRIES + 1 - MIN_ENTRIES;
    let grow1 = b1.enlargement(&bb);
    let grow2 = b2.enlargement(&bb);
    let to_first = if !remaining_cap(g1) {
        false
    } else if !remaining_cap(g2) {
        true
    } else {
        grow1 <= grow2
    };
    if to_first {
        *b1 = b1.union(&bb);
        g1.push(item);
    } else {
        *b2 = b2.union(&bb);
        g2.push(item);
    }
}

fn remove_rec(node: &mut Node, id: u64, seg: Seg<2>) -> bool {
    match &mut node.kind {
        NodeKind::Leaf(items) => {
            let before = items.len();
            items.retain(|(i, s)| !(*i == id && *s == seg));
            let removed = items.len() != before;
            if removed {
                node.bbox = items
                    .iter()
                    .map(|(_, s)| bbox(s))
                    .reduce(|a, b| a.union(&b))
                    .unwrap_or_else(empty_rect);
            }
            removed
        }
        NodeKind::Internal(children) => {
            let sb = bbox(&seg);
            let mut removed = false;
            for c in children.iter_mut() {
                if c.bbox.intersects(&sb) && remove_rec(c, id, seg) {
                    removed = true;
                    break;
                }
            }
            if removed {
                children.retain(|c| match &c.kind {
                    NodeKind::Leaf(v) => !v.is_empty(),
                    NodeKind::Internal(v) => !v.is_empty(),
                });
                node.bbox = children
                    .iter()
                    .map(|c| c.bbox)
                    .reduce(|a, b| a.union(&b))
                    .unwrap_or_else(empty_rect);
            }
            removed
        }
    }
}

/// `probe` is `rect` as a tree box, for the exact segment test.
fn query_rec(node: &Node, rect: &Rect, probe: &Bounds<2>, out: &mut Vec<u64>, visited: &mut u64) {
    *visited += 1;
    match &node.kind {
        NodeKind::Leaf(items) => {
            for (id, seg) in items {
                if bbox(seg).intersects(rect) && seg.intersects(probe) {
                    out.push(*id);
                }
            }
        }
        NodeKind::Internal(children) => {
            for c in children {
                if c.bbox.intersects(rect) {
                    query_rec(c, rect, probe, out, visited);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::tests::line;

    fn lines(n: u64) -> Vec<(u64, Seg<2>)> {
        (0..n)
            .map(|i| (i, line(0.0, i as f64, (i % 5) as f64 * 0.1, 100.0)))
            .collect()
    }

    #[test]
    fn bulk_load_and_query() {
        let t = RTree::bulk_load(lines(100));
        assert_eq!(t.len, 100);
        let (ids, visited) = t.query(&Rect::new(0.0, 0.0, 0.5, 10.0));
        // At t≈0 values are exactly i: lines 0..=10 qualify.
        assert_eq!(ids, (0..=10).collect::<Vec<u64>>());
        assert!(visited > 0);
    }

    #[test]
    fn incremental_insert_matches_bulk() {
        let entries = lines(60);
        let bulk = RTree::bulk_load(entries.clone());
        let mut inc = RTree::new();
        for (id, s) in entries {
            inc.insert(id, s);
        }
        for rect in [
            Rect::new(0.0, 0.0, 10.0, 10.0),
            Rect::new(50.0, 10.0, 60.0, 40.0),
            Rect::new(90.0, -5.0, 100.0, 70.0),
        ] {
            assert_eq!(bulk.query(&rect).0, inc.query(&rect).0, "rect {rect:?}");
        }
    }

    #[test]
    fn remove_entries() {
        let mut t = RTree::bulk_load(lines(20));
        let seg = line(0.0, 5.0, 0.0, 100.0);
        assert!(t.remove(5, seg));
        assert!(!t.remove(5, seg));
        assert_eq!(t.len, 19);
        let (ids, _) = t.query(&Rect::new(0.0, 4.9, 100.0, 5.1));
        assert!(!ids.contains(&5));
    }

    #[test]
    fn empty_tree_queries() {
        let t = RTree::new();
        let (ids, _) = t.query(&Rect::new(0.0, 0.0, 1.0, 1.0));
        assert!(ids.is_empty());
        assert_eq!(t.len, 0);
    }

    #[test]
    fn exactness_no_bbox_false_positives() {
        // A steep diagonal has a huge bbox; querying a corner off the line
        // must return nothing.
        let mut t = RTree::new();
        t.insert(1, line(0.0, 0.0, 1.0, 100.0));
        let (ids, _) = t.query(&Rect::new(0.0, 60.0, 30.0, 100.0));
        assert!(ids.is_empty());
    }

    #[test]
    fn bounding_box_handles_descending() {
        let bb = bbox(&line(0.0, 10.0, -2.0, 4.0));
        assert_eq!(
            (bb.min_x, bb.min_y, bb.max_x, bb.max_y),
            (0.0, 2.0, 4.0, 10.0)
        );
    }
}
