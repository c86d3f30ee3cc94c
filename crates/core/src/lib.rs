//! The MOST data model (Moving Objects Spatio-Temporal), Sections 2 and 5
//! of the paper.
//!
//! A [`Database`] holds object classes, moving objects with *dynamic
//! attributes* (position coordinates and scalar attributes represented as
//! `value` / `updatetime` / `function` sub-attribute triples), named
//! regions, and the special `time` object (the tick clock).  On top of it:
//!
//! * the three query types of Section 2.3 — [`Database::instantaneous`],
//!   [`Database::register_continuous`] (materialized `Answer(CQ)` with
//!   re-evaluation only on relevant updates) and
//!   [`persistent::PersistentQuery`] (evaluated over the *recorded* update
//!   history — the paper's future-work item, implemented here);
//! * temporal [`trigger::Trigger`]s built from continuous queries
//!   (Section 2.3: "continuous and persistent queries can be used to define
//!   temporal triggers");
//! * the MOST-on-top-of-a-DBMS layer of Section 5.1 ([`rewrite`]): dynamic
//!   attributes stored as three host-DBMS columns, queries decomposed via
//!   `F = (F' ∧ p) ∨ (F'' ∧ ¬p)` into up to `2^k` nontemporal subqueries;
//! * optional maintenance of the Section 4 spatial index over positions
//!   ([`Database::enable_spatial_index`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod class;
pub mod continuous;
pub mod database;
pub mod deps;
pub mod dynamic;
pub mod epoch;
pub mod error;
pub mod object;
pub mod persistent;
mod refresh;
pub mod rewrite;
pub mod sharded;
pub mod shared;
pub mod snapshot;
pub mod trigger;
pub mod wal;

pub use class::ClassDef;
pub use continuous::display_delta;
pub use database::{Database, MotionUpdate, UpdateOp};
pub use deps::{DepSet, UpdateKind};
pub use dynamic::{AttrFunction, DynamicAttribute};
pub use epoch::{EpochDb, EpochPin, EpochSnapshot, EpochStats, PublishObserver};
pub use error::{CoreError, CoreResult};
pub use object::MovingObject;
pub use persistent::PersistentQuery;
pub use rewrite::MostDbmsLayer;
pub use sharded::{CutPin, ShardCut, ShardRouting, ShardedDb, ShardedDbBuilder};
pub use shared::SharedDatabase;
pub use trigger::{Trigger, TriggerEvent};
pub use wal::{apply_record, recover, DurableDb, Recovery, Wal, WalConfig, WalRecord};
