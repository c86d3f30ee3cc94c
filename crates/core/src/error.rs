//! Errors of the MOST core layer.

use most_dbms::DbError;
use most_ftl::FtlError;
use std::fmt;

/// Result alias for MOST operations.
pub type CoreResult<T> = Result<T, CoreError>;

/// Errors raised by the MOST data model.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// An object id does not exist.
    UnknownObject(u64),
    /// An object class does not exist.
    UnknownClass(String),
    /// An attribute is not declared by the object's class.
    UndeclaredAttribute {
        /// Class name.
        class: String,
        /// Attribute name.
        attr: String,
    },
    /// A continuous-query id does not exist.
    UnknownContinuousQuery(u64),
    /// A trigger id does not exist.
    UnknownTrigger(u64),
    /// The FTL layer rejected or failed the query.
    Ftl(FtlError),
    /// The substrate DBMS failed.
    Db(DbError),
    /// A dynamic attribute was addressed as static or vice versa.
    AttributeKind {
        /// Attribute name.
        attr: String,
        /// Human-readable detail.
        detail: String,
    },
    /// The write-ahead log failed (I/O or encoding).  Carries the
    /// rendered `io::Error`, since `io::Error` is neither `Clone` nor
    /// `PartialEq`.
    Wal(String),
    /// A replica feed asked for records below the checkpoint horizon;
    /// they were pruned with the segments the checkpoint covered.  The
    /// caller must bootstrap from a snapshot and resume the feed from
    /// `checkpoint_seq`.
    WalFeedPruned {
        /// The sequence number the feed asked for.
        from_seq: u64,
        /// The checkpoint horizon: the first sequence still served.
        checkpoint_seq: u64,
    },
    /// A query evaluation panicked during a continuous-query refresh.
    /// The panic was caught at the evaluation boundary: only the
    /// offending query's refresh failed (its materialized answer stays at
    /// the pre-batch state); every other query refreshed normally and the
    /// batch's mutations remain applied.  Carries the rendered panic
    /// payload.
    EvalPanic(String),
    /// An object id passed to an explicit-id insert already exists.
    DuplicateObject(u64),
    /// A position or motion vector has a non-finite component, or carries
    /// the object off the finite plane within the index lifetime
    /// (2 · expiration).  Rejected before anything is mutated.
    NonFiniteMotion {
        /// The object the motion was for.
        id: u64,
    },
    /// A query cannot be answered by shard-local evaluation +
    /// scatter-gather (more or fewer than one free object variable, or a
    /// fixed object id that may live on another shard).  Carries a
    /// human-readable reason.
    Unshardable(String),
    /// Two shard answers for the same query disagreed on their target
    /// variable lists — the cross-shard combine invariant.  Carries both
    /// lists, rendered.
    AnswerVarsMismatch {
        /// Variable list of the first answer.
        left: Vec<String>,
        /// Variable list of the disagreeing answer.
        right: Vec<String>,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownObject(id) => write!(f, "unknown object #{id}"),
            CoreError::UnknownClass(c) => write!(f, "unknown object class `{c}`"),
            CoreError::UndeclaredAttribute { class, attr } => {
                write!(f, "class `{class}` does not declare attribute `{attr}`")
            }
            CoreError::UnknownContinuousQuery(id) => {
                write!(f, "unknown continuous query #{id}")
            }
            CoreError::UnknownTrigger(id) => write!(f, "unknown trigger #{id}"),
            CoreError::Ftl(e) => write!(f, "FTL error: {e}"),
            CoreError::Db(e) => write!(f, "DBMS error: {e}"),
            CoreError::AttributeKind { attr, detail } => {
                write!(f, "attribute `{attr}`: {detail}")
            }
            CoreError::Wal(detail) => write!(f, "write-ahead log: {detail}"),
            CoreError::WalFeedPruned {
                from_seq,
                checkpoint_seq,
            } => write!(
                f,
                "feed from {from_seq} predates the checkpoint horizon {checkpoint_seq}: \
                 earlier records were pruned; bootstrap from a snapshot"
            ),
            CoreError::EvalPanic(detail) => {
                write!(f, "query evaluation panicked: {detail}")
            }
            CoreError::DuplicateObject(id) => {
                write!(f, "object #{id} already exists")
            }
            CoreError::NonFiniteMotion { id } => {
                write!(f, "object #{id}: position and motion must stay finite")
            }
            CoreError::Unshardable(detail) => {
                write!(f, "query is not shardable: {detail}")
            }
            CoreError::AnswerVarsMismatch { left, right } => write!(
                f,
                "shard answers disagree on target variables: {left:?} vs {right:?}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<FtlError> for CoreError {
    fn from(e: FtlError) -> Self {
        CoreError::Ftl(e)
    }
}

impl From<DbError> for CoreError {
    fn from(e: DbError) -> Self {
        CoreError::Db(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        assert_eq!(CoreError::UnknownObject(3).to_string(), "unknown object #3");
        let e: CoreError = FtlError::UnknownRegion("P".into()).into();
        assert!(e.to_string().contains("unknown region"));
        let e: CoreError = DbError::UnknownTable("t".into()).into();
        assert!(e.to_string().contains("unknown table"));
    }
}
