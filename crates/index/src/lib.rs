//! Dynamic-attribute indexing (Section 4 of the paper).
//!
//! "The method plots all the functions representing the way a dynamic
//! attribute A changes with time.  Thus, the x-axis represents time, and the
//! y-axis represents the value of A. ... We use a spatial index for each
//! dynamic attribute A.  Spatial indexes use a hierarchical recursive
//! decomposition of space, usually into rectangles; the id of each object o
//! is stored in the records representing the rectangles crossed by the
//! A.function of o."
//!
//! This crate implements that scheme end to end:
//!
//! * `tree` (private) — the paper's "hierarchical recursive decomposition"
//!   over time and `K - 1` value axes: segments stored in the cells they
//!   cross, tested by one Liang–Barsky clipper, split by one rule, and
//!   path-copied between clones.  `K = 2` is a region quadtree over
//!   (time × value), `K = 3` an octree over (time × x × y).  The clipper
//!   widens each slab by a forward error bound, so the tree is a
//!   conservative filter: it never drops an object that exact arithmetic
//!   finds touching a probe;
//! * `legs` (private) — what both indexes keep beside the tree: each
//!   object's pieces, the update rule that cuts the last piece at the
//!   update tick, and the one reconstruction, `roll_to`, which starts a
//!   fresh tree "every T time units" once a caller's window leaves the
//!   lifetime.  A probe whose ticks leave the lifetime, or whose box
//!   leaves the value box, gets `None` from either index;
//! * [`dynidx`] — [`dynidx::DynamicAttributeIndex`]: insert / update /
//!   instantaneous and continuous range queries over one dynamic attribute,
//!   plus the [`dynidx::ScanIndex`] linear-scan baseline;
//! * [`index2d`] — the "3-dimensional space, with the third dimension being,
//!   obviously, time" variant for objects moving in the plane, answering
//!   candidate sets for the caller's exact `INSIDE` test;
//! * [`cowmap`] — the id-ordered copy-on-write map behind both indexes'
//!   piece tables and the database's object table (structural sharing
//!   between epochs).
//!
//! The attribute index backs the E2, E7, E8 and MICRO reproductions of
//! Section 4.  The database maintains one index, [`index2d`]'s octree, and
//! keeps its objects in a [`cowmap`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cowmap;
pub mod dynidx;
pub mod index2d;
mod legs;
mod tree;

pub use cowmap::CowMap;
pub use dynidx::{DynamicAttributeIndex, QueryStats, ScanIndex};
pub use index2d::MovingObjectIndex2D;
pub use tree::LEAF_CAPACITY;
