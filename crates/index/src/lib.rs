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
//! * [`segment`] — function-lines as 2-D segments with exact
//!   rectangle-intersection tests (Liang–Barsky clipping);
//! * [`quadtree`] — a region quadtree over (time × value) space, the
//!   paper's "hierarchical recursive decomposition ... into rectangles";
//! * [`rtree`] — an STR bulk-loaded R-tree alternative (ablation E7);
//! * [`dynidx`] — [`dynidx::DynamicAttributeIndex`]: insert / update /
//!   instantaneous and continuous range queries over one dynamic attribute,
//!   plus the [`dynidx::ScanIndex`] linear-scan baseline;
//! * [`index2d`] — the "3-dimensional space, with the third dimension
//!   being, obviously, time" variant for objects moving in the plane,
//!   implemented as an octree over (time × x × y);
//! * [`cowmap`] — the id-ordered copy-on-write map behind the octree's
//!   leg table and the database's object table (structural sharing
//!   between epochs);
//! * [`rebuild`] — horizon management: "the index needs to be reconstructed
//!   every T time units", with counters supporting the E8 sweep of the
//!   paper's open question ("choosing an appropriate value for T").
//!
//! The attribute structures ([`segment`], [`quadtree`], [`rtree`],
//! [`dynidx`], [`rebuild`]) back the E2, E7, E8 and MICRO reproductions of
//! Section 4.  The database maintains one index, [`index2d`]'s octree, and
//! keeps its objects in a [`cowmap`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cowmap;
pub mod dynidx;
pub mod index2d;
pub mod quadtree;
pub mod rebuild;
pub mod rtree;
pub mod segment;

pub use cowmap::CowMap;
pub use dynidx::{DynamicAttributeIndex, IndexKind, QueryStats, ScanIndex};
pub use index2d::MovingObjectIndex2D;
pub use rebuild::RebuildingIndex;
