//! Update-stream event types shared by all monitoring algorithms.
//!
//! A processing cycle (one timestamp) delivers a batch `U_P` of object
//! events and a batch `U_q` of query events (Figure 3.9). The paper's object
//! update tuple is `<p.id, x_old, y_old, x_new, y_new>`; since the grid
//! already stores current positions, events carry only the new state and the
//! old position is read from the index. Appear/disappear events model the
//! Brinkhoff-style object life cycle (an object "appears on a network node
//! … and then disappears") and the off-line NNs of Section 4.2.

use cpm_geom::{ObjectId, Point, QueryId};

use crate::{CellCoord, Grid};

/// A single object update within a processing cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObjectEvent {
    /// A new (or returning) object enters the system at `pos`.
    Appear {
        /// Object identifier; must not be currently live.
        id: ObjectId,
        /// Initial position.
        pos: Point,
    },
    /// A live object reports a new location.
    Move {
        /// Object identifier; must be currently live.
        id: ObjectId,
        /// New position.
        to: Point,
    },
    /// A live object goes off-line (leaves the system).
    Disappear {
        /// Object identifier; must be currently live.
        id: ObjectId,
    },
}

impl ObjectEvent {
    /// The object this event concerns.
    #[inline]
    pub fn id(&self) -> ObjectId {
        match *self {
            ObjectEvent::Appear { id, .. }
            | ObjectEvent::Move { id, .. }
            | ObjectEvent::Disappear { id } => id,
        }
    }

    /// The position the event carries: the appear/move target, `None` for
    /// a disappearance. Ingest validation reads coordinates through this
    /// without matching every variant.
    #[inline]
    #[must_use]
    pub fn position(&self) -> Option<Point> {
        match *self {
            ObjectEvent::Appear { pos, .. } => Some(pos),
            ObjectEvent::Move { to, .. } => Some(to),
            ObjectEvent::Disappear { .. } => None,
        }
    }
}

/// A single k-NN query update within a processing cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryEvent {
    /// Register a new continuous k-NN query.
    Install {
        /// Query identifier; must not be currently installed.
        id: QueryId,
        /// Query point.
        pos: Point,
        /// Number of neighbors to monitor (`k ≥ 1`).
        k: usize,
    },
    /// An installed query changes location. Handled as terminate+reinstall
    /// (Section 3.3: "we treat the update as a termination of the old query,
    /// and an insertion of a new one").
    Move {
        /// Query identifier; must be currently installed.
        id: QueryId,
        /// New query point.
        to: Point,
    },
    /// An installed query is terminated.
    Terminate {
        /// Query identifier; must be currently installed.
        id: QueryId,
    },
}

impl QueryEvent {
    /// The query this event concerns.
    #[inline]
    pub fn id(&self) -> QueryId {
        match *self {
            QueryEvent::Install { id, .. }
            | QueryEvent::Move { id, .. }
            | QueryEvent::Terminate { id } => id,
        }
    }
}

/// The grid-side effect of one applied [`ObjectEvent`]: which cells the
/// object left/entered and where it now is.
///
/// Records are produced by [`apply_events`] during the ingest phase of a
/// processing cycle and then consumed read-only by the per-query
/// maintenance path — possibly from several worker threads at once. Each
/// consumer derives its own view of the batch through
/// [`UpdateRecord::old_cell`] / [`UpdateRecord::new_cell`]: SEA-CNN
/// probes its answer regions there, and the CPM engine sorts the records
/// by those cells once ([`crate::CellRuns`]) so each query reads its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateRecord {
    /// The updated object.
    pub id: ObjectId,
    /// Cell the object was removed from (`None` for an appearance).
    pub old_cell: Option<CellCoord>,
    /// Cell the object was inserted into (`None` for a disappearance).
    pub new_cell: Option<CellCoord>,
    /// Position after the event, as stored in the grid (i.e. clamped to
    /// the workspace); `None` for a disappearance.
    pub new_pos: Option<Point>,
}

/// Apply a batch of object events to the grid, appending one
/// [`UpdateRecord`] per event to `records`. Returns the number of
/// location updates applied (the `updates_applied` unit of
/// [`crate::Metrics`]).
///
/// This is phase 1 of the two-phase processing cycle and the *only*
/// mutator of a grid, so everything after it may borrow the grid
/// immutably (and therefore run in parallel). Each event is a position
/// write into the by-id table; after the batch the cell index is
/// re-sorted once ([`crate::CellIndex`]), O(N + cells) whatever moved.
///
/// # Panics
/// Panics if an event does not fit its object's liveness: a move or a
/// disappear of an off-line object, or an appear of a live one — and if
/// a position is not finite. The monitoring server refuses such a batch,
/// typed, before it gets here.
pub fn apply_events(
    grid: &mut Grid,
    events: &[ObjectEvent],
    records: &mut Vec<UpdateRecord>,
) -> u64 {
    grid.apply(events, records);
    events.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_ids() {
        assert_eq!(
            ObjectEvent::Appear {
                id: ObjectId(3),
                pos: Point::ORIGIN
            }
            .id(),
            ObjectId(3)
        );
        assert_eq!(ObjectEvent::Disappear { id: ObjectId(9) }.id(), ObjectId(9));
        assert_eq!(
            QueryEvent::Move {
                id: QueryId(2),
                to: Point::ORIGIN
            }
            .id(),
            QueryId(2)
        );
    }

    #[test]
    fn apply_events_records_cells_and_clamped_positions() {
        let mut g = crate::GridBuilder::new(8).build_uniform();
        let mut records = Vec::new();
        let applied = apply_events(
            &mut g,
            &[
                ObjectEvent::Appear {
                    id: ObjectId(1),
                    pos: Point::new(0.1, 0.1),
                },
                ObjectEvent::Move {
                    id: ObjectId(1),
                    to: Point::new(2.0, 0.9), // clamped to the workspace
                },
                ObjectEvent::Disappear { id: ObjectId(1) },
            ],
            &mut records,
        );
        assert_eq!(applied, 3);
        assert_eq!(records.len(), 3);

        assert_eq!(records[0].old_cell, None);
        assert_eq!(records[0].new_cell, Some(CellCoord::new(0, 0)));
        assert_eq!(records[0].new_pos, Some(Point::new(0.1, 0.1)));

        assert_eq!(records[1].old_cell, Some(CellCoord::new(0, 0)));
        assert_eq!(records[1].new_cell, Some(CellCoord::new(7, 7)));
        let clamped = records[1].new_pos.unwrap();
        assert!(clamped.x < 1.0, "position not clamped: {clamped:?}");

        assert_eq!(records[2].old_cell, Some(CellCoord::new(7, 7)));
        assert_eq!(records[2].new_cell, None);
        assert_eq!(records[2].new_pos, None);
        assert!(g.is_empty());
        g.check_integrity();
    }
}
