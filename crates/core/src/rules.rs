//! [`BatchRules`]: the one rule set a cycle's event batches are checked
//! with, before anything changes.
//!
//! The paper's cycle applies one batch per timestamp with at most one
//! update per object (Section 3.3); the server extends that to one event
//! per query. With one event per id, every event is checked against the
//! state *before* the batch, so a rule needs no more of its caller than
//! whether an object is live and which kind a query is installed as.
//! [`crate::CpmServer`] answers those from its grid and registry, the
//! cluster coordinator from its position table and ownership map — one
//! rule set, and a batch one of them refuses the other refuses too, with
//! the same [`CpmError`].

use cpm_geom::{FastHashSet, ObjectId, QueryId};
use cpm_grid::{ObjectEvent, QueryKind};

use crate::any::AnyQuerySpec;
use crate::engine::{QuerySpec, SpecEvent};
use crate::error::CpmError;
use crate::server::{install_k, RESERVED_ID_BASE};

/// The single node's batch rules, with the scratch that makes them cheap
/// to run every cycle. Each check reads nothing but the batch and its
/// caller's answers; the first offending event decides the error.
///
/// ```
/// use cpm_core::{BatchRules, CpmError};
/// use cpm_geom::{ObjectId, Point};
/// use cpm_grid::ObjectEvent;
///
/// let mv = ObjectEvent::Move { id: ObjectId(3), to: Point::new(0.5, 0.5) };
/// let mut rules = BatchRules::default();
/// assert_eq!(rules.check_objects(&[mv], |_| true), Ok(()));
/// assert_eq!(
///     rules.check_objects(&[mv, mv], |_| true),
///     Err(CpmError::DuplicateObject(ObjectId(3)))
/// );
/// ```
#[derive(Debug, Default)]
pub struct BatchRules {
    /// Per object id, the check pass that last named it — the duplicate
    /// check without hashing. Grows to the largest id seen, at most
    /// [`ObjectId::LIMIT`] slots.
    seen_objects: Vec<u32>,
    seen_pass: u32,
    /// The query ids a batch has named so far, cleared per batch so a
    /// steady batch size never rehashes.
    seen_queries: FastHashSet<QueryId>,
}

impl BatchRules {
    /// Check an object-event batch against the objects `is_live` reports
    /// before it: an id at or above [`ObjectId::LIMIT`], two events for
    /// one object, a NaN or infinite coordinate, a position outside the
    /// unit workspace, or a move or disappear of an off-line object or an
    /// appear of a live one refuses the whole batch.
    ///
    /// # Errors
    /// [`CpmError::ObjectIdOutOfRange`], [`CpmError::DuplicateObject`],
    /// [`CpmError::NonFiniteCoordinate`], [`CpmError::OutOfWorkspace`],
    /// [`CpmError::Liveness`], checked in that order per event.
    pub fn check_objects(
        &mut self,
        events: &[ObjectEvent],
        is_live: impl Fn(ObjectId) -> bool,
    ) -> Result<(), CpmError> {
        // A fresh pass number marks this batch; on wrap-around, stale
        // marks from 2³² passes ago must not read as this batch's.
        self.seen_pass = self.seen_pass.wrapping_add(1);
        if self.seen_pass == 0 {
            self.seen_objects.fill(0);
            self.seen_pass = 1;
        }
        let (seen, pass) = (&mut self.seen_objects, self.seen_pass);
        for ev in events {
            let id = ev.id();
            // The ceiling comes first: nothing is sized by an id past it.
            if id.0 >= ObjectId::LIMIT {
                return Err(CpmError::ObjectIdOutOfRange(id));
            }
            if id.index() >= seen.len() {
                seen.resize(id.index() + 1, 0);
            }
            if std::mem::replace(&mut seen[id.index()], pass) == pass {
                return Err(CpmError::DuplicateObject(id));
            }
            if let Some(p) = ev.position() {
                if !p.x.is_finite() || !p.y.is_finite() {
                    return Err(CpmError::NonFiniteCoordinate(id));
                }
                if !(0.0..=1.0).contains(&p.x) || !(0.0..=1.0).contains(&p.y) {
                    return Err(CpmError::OutOfWorkspace(id));
                }
            }
            // Only an appear wants its object off-line so far.
            let live = is_live(id);
            if live == matches!(ev, ObjectEvent::Appear { .. }) {
                return Err(CpmError::Liveness { id, live });
            }
        }
        Ok(())
    }

    /// Check a query-event batch against the kinds `kind_of` reports as
    /// installed before it. Events address the single-spec kinds: a
    /// reverse-NN registration is managed through the server's direct
    /// calls.
    ///
    /// # Errors
    /// [`CpmError::DuplicateQuery`] for a second event on one id or an
    /// install of an installed one; [`CpmError::UnknownQuery`],
    /// [`CpmError::KindMismatch`], [`CpmError::InvalidK`],
    /// [`CpmError::ReservedId`], [`CpmError::CompositeQuery`],
    /// [`CpmError::NonFiniteQuery`].
    pub fn check_queries(
        &mut self,
        events: &[SpecEvent<AnyQuerySpec>],
        kind_of: impl Fn(QueryId) -> Option<QueryKind>,
    ) -> Result<(), CpmError> {
        // One event per query per batch (the subscription hub's rule,
        // promoted to a typed error): a second event for the same id
        // would make changed-list and delta ordering ambiguous.
        self.seen_queries.clear();
        for ev in events {
            let id = ev.id();
            if !self.seen_queries.insert(id) {
                return Err(CpmError::DuplicateQuery(id));
            }
            let installed = kind_of(id);
            match ev {
                SpecEvent::Install { spec, k, .. } => {
                    Self::check_install(installed, id, spec, *k)?;
                }
                _ if installed == Some(QueryKind::Rnn) => return Err(CpmError::CompositeQuery(id)),
                SpecEvent::Update { spec, .. } => Self::check_update(installed, id, spec)?,
                SpecEvent::Terminate { .. } if installed.is_none() => {
                    return Err(CpmError::UnknownQuery(id))
                }
                SpecEvent::Terminate { .. } => {}
            }
        }
        Ok(())
    }

    /// The install rule: installing `spec` as `id` with `k`, where
    /// `installed` is what `id` holds now. A range install's `k` is
    /// ignored ([`install_k`]).
    fn check_install(
        installed: Option<QueryKind>,
        id: QueryId,
        spec: &AnyQuerySpec,
        k: usize,
    ) -> Result<(), CpmError> {
        Self::check_fresh(installed, id)?;
        if spec.kind() == QueryKind::Rnn {
            // A bare sector spec is an internal detail of the composite
            // registration.
            return Err(CpmError::CompositeQuery(id));
        }
        if !spec.is_finite() {
            return Err(CpmError::NonFiniteQuery(id));
        }
        if install_k(spec, k) == 0 {
            return Err(CpmError::InvalidK(id));
        }
        Ok(())
    }

    /// `id` is free for a new registration of any kind.
    pub(crate) fn check_fresh(installed: Option<QueryKind>, id: QueryId) -> Result<(), CpmError> {
        if id.0 >= RESERVED_ID_BASE {
            return Err(CpmError::ReservedId(id));
        }
        if installed.is_some() {
            return Err(CpmError::DuplicateQuery(id));
        }
        Ok(())
    }

    /// The update rule: `spec` may replace the geometry of `id`, installed
    /// as `installed` — not a reverse-NN registration, which
    /// [`BatchRules::check_queries`] refuses first.
    fn check_update(
        installed: Option<QueryKind>,
        id: QueryId,
        spec: &AnyQuerySpec,
    ) -> Result<(), CpmError> {
        Self::check_kind(installed, id, spec.kind())?;
        if spec.kind() == QueryKind::Rnn {
            // A bare sector spec can never address a composite
            // registration.
            return Err(CpmError::CompositeQuery(id));
        }
        if !spec.is_finite() {
            return Err(CpmError::NonFiniteQuery(id));
        }
        Ok(())
    }

    /// `id` is installed, as a query of the `expected` kind.
    pub(crate) fn check_kind(
        installed: Option<QueryKind>,
        id: QueryId,
        expected: QueryKind,
    ) -> Result<(), CpmError> {
        match installed {
            None => Err(CpmError::UnknownQuery(id)),
            Some(actual) if actual != expected => Err(CpmError::KindMismatch {
                id,
                expected,
                actual,
            }),
            Some(_) => Ok(()),
        }
    }
}
