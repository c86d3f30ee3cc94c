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
//!   (time × value), `K = 3` an octree over (time × x × y);
//! * `rtree` (private) — an STR bulk-loaded R-tree alternative over the
//!   same segments (ablation E7);
//! * [`dynidx`] — [`dynidx::DynamicAttributeIndex`]: insert / update /
//!   instantaneous and continuous range queries over one dynamic attribute,
//!   on the `K = 2` tree or the R-tree, plus the [`dynidx::ScanIndex`]
//!   linear-scan baseline;
//! * [`index2d`] — the "3-dimensional space, with the third dimension
//!   being, obviously, time" variant for objects moving in the plane, on
//!   the `K = 3` tree;
//! * [`cowmap`] — the id-ordered copy-on-write map behind the position
//!   index's leg table and the database's object table (structural sharing
//!   between epochs);
//! * [`rebuild`] — horizon management: "the index needs to be reconstructed
//!   every T time units", with counters supporting the E8 sweep of the
//!   paper's open question ("choosing an appropriate value for T").
//!
//! The attribute structures ([`dynidx`], the R-tree, [`rebuild`]) back the
//! E2, E7, E8 and MICRO reproductions of Section 4.  The database maintains
//! one index, [`index2d`]'s octree, and keeps its objects in a [`cowmap`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cowmap;
pub mod dynidx;
pub mod index2d;
pub mod rebuild;
mod rtree;
mod tree;

pub use cowmap::CowMap;
pub use dynidx::{DynamicAttributeIndex, IndexKind, QueryStats, ScanIndex};
pub use index2d::MovingObjectIndex2D;
pub use rebuild::RebuildingIndex;
pub use tree::LEAF_CAPACITY;
