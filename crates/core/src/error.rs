//! The typed error surface of [`crate::CpmServer`], the one front end to
//! CPM.
//!
//! Caller mistakes are *expected* in production — duplicate ids from
//! retried requests, terminations racing cancellations, k = 0 from
//! defaulted config, a producer that double-sends or loses an event — so
//! the server checks every call and batch and returns [`CpmError`]
//! before any state changes. Programming errors (processing a delta
//! cycle without enabling capture, populating after installs) remain
//! panics: they are bugs in the embedding code, not runtime conditions
//! to handle.

use cpm_geom::{ObjectId, QueryId};
use cpm_grid::{GridConfigError, QueryKind};

/// Why a query-registry operation was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpmError {
    /// `install` of an id that is already registered.
    DuplicateQuery(QueryId),
    /// `terminate`/`update_spec` of an id that is not registered.
    UnknownQuery(QueryId),
    /// An update addressed a query of a different kind: `update_spec` (or
    /// a batched update) with a range spec for an installed k-NN query,
    /// or `update_rnn` for a query that is not a reverse-NN registration.
    KindMismatch {
        /// The addressed query.
        id: QueryId,
        /// The kind the operation expected.
        expected: QueryKind,
        /// The kind the query is actually registered as.
        actual: QueryKind,
    },
    /// `install` with `k == 0` (a continuous query must report at least
    /// one neighbor).
    InvalidK(QueryId),
    /// The id lies in the band the server reserves for internal queries
    /// (reverse-NN sector candidates), or outside the representable
    /// reverse-NN id range.
    ReservedId(QueryId),
    /// The operation addressed a composite reverse-NN registration
    /// through the single-spec surface (batched query events,
    /// `update_spec`): RNN registrations are managed through the
    /// dedicated calls (`install_rnn` / `update_rnn` / `terminate`).
    CompositeQuery(QueryId),
    /// An install or update carried a query geometry with a NaN or
    /// infinite point, corner or centre, or a circle radius that is not
    /// finite or is negative ([`crate::AnyQuerySpec::is_finite`]). Such a
    /// query would scan every cell for an empty result and enter every
    /// cell's influence list; it is refused before any state changes.
    NonFiniteQuery(QueryId),
    /// An object event carried a NaN or infinite coordinate: a corrupted
    /// producer. The whole batch is rejected before any state changes.
    NonFiniteCoordinate(ObjectId),
    /// An object event placed an object outside the unit workspace. Such
    /// a position is hostile input, not something to clamp: the whole
    /// batch is rejected before any state changes.
    OutOfWorkspace(ObjectId),
    /// One batch contained two object events for the same id. Per-cycle
    /// semantics admit at most one event per object (the paper's update
    /// tuple replaces the object's position once per timestamp), so a
    /// duplicate means the producer double-sent; the batch is rejected
    /// before any state changes.
    DuplicateObject(ObjectId),
    /// An object event does not fit the object's state before the batch:
    /// a move or a disappear of an off-line object (`live` is `false`),
    /// or an appear of a live one (`live` is `true`). The producer lost
    /// or replayed an event; the batch is rejected before any state
    /// changes.
    Liveness {
        /// The object the event names.
        id: ObjectId,
        /// Whether the object was live before the batch.
        live: bool,
    },
    /// An object event named an id at or above [`ObjectId::LIMIT`], the
    /// ceiling of the dense per-object tables; the batch is rejected
    /// before any state changes, and before anything is sized by the id.
    ObjectIdOutOfRange(ObjectId),
    /// A builder or a `regrid_to` named a grid resolution out of
    /// `1..=4096`. Wraps the grid layer's [`GridConfigError`].
    InvalidDim(GridConfigError),
    /// A snapshot's captured result of this query is not the one its
    /// objects give, so the snapshot contradicts itself and is refused.
    CapturedResultMismatch(QueryId),
}

impl From<GridConfigError> for CpmError {
    fn from(e: GridConfigError) -> Self {
        CpmError::InvalidDim(e)
    }
}

impl std::fmt::Display for CpmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CpmError::DuplicateQuery(id) => write!(f, "query {id} is already installed"),
            CpmError::UnknownQuery(id) => write!(f, "query {id} is not installed"),
            CpmError::KindMismatch {
                id,
                expected,
                actual,
            } => write!(
                f,
                "query {id} is a {actual} query, but the operation expected {expected}"
            ),
            CpmError::InvalidK(id) => write!(f, "query {id}: k must be at least 1"),
            CpmError::ReservedId(id) => write!(
                f,
                "query id {id} lies in (or would map into) the server's reserved internal band"
            ),
            CpmError::CompositeQuery(id) => write!(
                f,
                "query {id} is a composite reverse-NN registration: use install_rnn / \
                 update_rnn / terminate instead of the single-spec surface"
            ),
            CpmError::NonFiniteQuery(id) => write!(
                f,
                "query {id}: geometry carries a NaN or infinite coordinate or an invalid radius"
            ),
            CpmError::NonFiniteCoordinate(id) => {
                write!(f, "object {id}: event carries a NaN or infinite coordinate")
            }
            CpmError::OutOfWorkspace(id) => write!(
                f,
                "object {id}: event places the object outside the unit workspace"
            ),
            CpmError::DuplicateObject(id) => {
                write!(f, "object {id} appears more than once in the event batch")
            }
            CpmError::Liveness { id, live: true } => {
                write!(
                    f,
                    "object {id} is already live: only an off-line object can appear"
                )
            }
            CpmError::Liveness { id, live: false } => write!(
                f,
                "object {id} is off-line: only a live object can move or disappear"
            ),
            CpmError::ObjectIdOutOfRange(id) => write!(
                f,
                "object {id}: id is at or above the object-id ceiling {}",
                ObjectId::LIMIT
            ),
            CpmError::InvalidDim(e) => write!(f, "{e}"),
            CpmError::CapturedResultMismatch(id) => {
                write!(f, "query {id}: snapshot result contradicts its objects")
            }
        }
    }
}

impl std::error::Error for CpmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_query_and_the_kinds() {
        let e = CpmError::KindMismatch {
            id: QueryId(7),
            expected: QueryKind::Range,
            actual: QueryKind::Knn,
        };
        let msg = e.to_string();
        assert!(msg.contains('7') && msg.contains("range") && msg.contains("knn"));
        assert!(CpmError::DuplicateQuery(QueryId(1))
            .to_string()
            .contains("already installed"));
    }
}
