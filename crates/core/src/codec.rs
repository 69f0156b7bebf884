//! Wire codecs ([`Encode`]/[`Decode`]) for the core query, delta and
//! policy types, so snapshots and journal records can carry them across
//! the durability boundary.
//!
//! Every invariant a constructor would enforce by panicking — finite
//! coordinates, non-empty ANN point sets, sector indices below the wedge
//! count, the fixed re-grid tuning — is re-checked here and reported as a
//! typed [`WireError::Invalid`] with the offending byte offset, so a
//! corrupted artifact can never smuggle a panic (or a silently wrong
//! value) into a recovered engine.

use std::num::NonZeroU64;

use cpm_geom::QueryId;
use cpm_grid::QueryKind;
use cpm_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::ann::{AggregateFn, AnnQuery};
use crate::any::AnyQuerySpec;
use crate::constrained::ConstrainedQuery;
use crate::delta::{CycleDeltas, DeltaBuf, NeighborDelta};
use crate::engine::{PointQuery, QuerySpec, SpecEvent};
use crate::neighbors::Neighbor;
use crate::range::{RangeQuery, Region};
use crate::regrid::{cooldown, RegridPolicy, HYSTERESIS, MAX_DIM, MIN_DIM, SKEW_THRESHOLD};
use crate::rnn::RnnQuery;

impl Encode for Neighbor {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        w.put_f64(self.dist);
    }
}

impl Decode for Neighbor {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let id = cpm_geom::ObjectId::decode(r)?;
        let at = r.offset();
        let dist = r.take_f64()?;
        // Result distances are never NaN (the lists sort by partial_cmp),
        // but +∞ is legitimate transient state for restricted specs.
        if dist.is_nan() {
            return Err(WireError::Invalid {
                offset: at,
                what: "NaN neighbor distance",
            });
        }
        Ok(Neighbor { id, dist })
    }
}

/// `DeltaBuf` encodes exactly like the slice it wraps; decoding reserves
/// once from the length prefix and pushes the entries back.
impl<T: Copy + Default + Encode> Encode for DeltaBuf<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(u32::try_from(self.len()).expect("delta component fits a u32 length prefix"));
        for item in self.as_slice() {
            item.encode(w);
        }
    }
}

impl<T: Copy + Default + Decode> Decode for DeltaBuf<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut buf = DeltaBuf::new();
        buf.refill(r)?;
        Ok(buf)
    }
}

impl<T: Copy + Default + Decode> DeltaBuf<T> {
    /// Replace the entries with the next encoded component of `r`,
    /// keeping any spill capacity.
    fn refill(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        let len = r.take_len(1)?;
        self.clear();
        self.reserve(r.reservable::<T>(len));
        for _ in 0..len {
            self.push(T::decode(r)?);
        }
        Ok(())
    }
}

impl Encode for NeighborDelta {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.epoch);
        self.added.encode(w);
        self.removed.encode(w);
        self.reordered.encode(w);
    }
}

impl Decode for NeighborDelta {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut delta = NeighborDelta::default();
        delta.refill(r)?;
        Ok(delta)
    }
}

impl NeighborDelta {
    /// Decode a delta that spans the whole of `bytes` into `self`, as
    /// [`Decode::decode_all`] would, but in place: each component is
    /// cleared and refilled and keeps its spill capacity, so a loop that
    /// decodes into one reused delta allocates only when a component
    /// outgrows every earlier one. On error `self` holds a partial decode.
    pub fn decode_into(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::new(bytes);
        self.refill(&mut r)?;
        r.expect_end()
    }

    fn refill(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        self.epoch = r.take_u64()?;
        self.added.refill(r)?;
        self.removed.refill(r)?;
        self.reordered.refill(r)
    }
}

impl Encode for CycleDeltas {
    fn encode(&self, w: &mut Writer) {
        self.encode_marking_deltas(w, |_, _| {});
    }
}

impl CycleDeltas {
    /// Write what [`Encode`] writes — the stamped epoch, the `changed`
    /// list, then the `(id, delta)` list — and hand `mark` the byte range
    /// `(start, end)` each delta body takes in `w`, in list order. The one
    /// writer of the layout: a fan-out encodes a batch once and slices
    /// every delta out of the shared bytes.
    pub fn encode_marking_deltas(&self, w: &mut Writer, mut mark: impl FnMut(usize, usize)) {
        w.put_u64(self.epoch);
        self.changed.encode(w);
        w.put_u32(u32::try_from(self.deltas.len()).expect("collection fits a u32 length prefix"));
        for (id, delta) in &self.deltas {
            id.encode(w);
            let start = w.len();
            delta.encode(w);
            mark(start, w.len());
        }
    }
}

impl Decode for CycleDeltas {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CycleDeltas {
            epoch: r.take_u64()?,
            changed: Vec::decode(r)?,
            deltas: Vec::decode(r)?,
        })
    }
}

/// Reads an encoded [`CycleDeltas`] front to back, one list entry at a
/// time, so that several batches whose lists are each in query-id order
/// (a cluster's workers) can be merged *while* they are decoded: every
/// delta is built once, where it ends up. The cursor holds an offset into
/// the bytes, not a borrow, so it can sit in a recycled table next to the
/// buffer that owns them; every call takes the same `bytes`.
///
/// What it yields, in order, is what [`CycleDeltas::decode_all`] yields.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleDeltasCursor {
    at: usize,
    /// Entries of the current list not yet read.
    left: usize,
}

impl CycleDeltasCursor {
    /// Start on `bytes`: the batch's stamped epoch, and a cursor at the
    /// head of its `changed` list.
    pub fn open(bytes: &[u8]) -> Result<(Self, u64), WireError> {
        let mut r = Reader::new(bytes);
        let epoch = r.take_u64()?;
        let left = r.take_len(1)?;
        Ok((
            Self {
                at: r.offset(),
                left,
            },
            epoch,
        ))
    }

    /// Entries of the current list not yet read.
    pub fn remaining(&self) -> usize {
        self.left
    }

    /// The next id of the `changed` list. `None` at its end, which also
    /// moves the cursor to the head of the `deltas` list (call it once).
    pub fn next_changed(&mut self, bytes: &[u8]) -> Result<Option<QueryId>, WireError> {
        let mut r = Reader::resume(bytes, self.at);
        let next = if self.left == 0 {
            self.left = r.take_len(1)?;
            None
        } else {
            self.left -= 1;
            Some(QueryId::decode(&mut r)?)
        };
        self.at = r.offset();
        Ok(next)
    }

    /// The query id of the next `deltas` entry, whose body
    /// [`delta`](Self::delta) must read before the id after it is asked
    /// for. `None` at the list's end, which must be the end of `bytes`.
    pub fn next_delta_id(&mut self, bytes: &[u8]) -> Result<Option<QueryId>, WireError> {
        let mut r = Reader::resume(bytes, self.at);
        if self.left == 0 {
            r.expect_end()?;
            return Ok(None);
        }
        self.left -= 1;
        let id = QueryId::decode(&mut r)?;
        self.at = r.offset();
        Ok(Some(id))
    }

    /// The body of the entry whose id [`next_delta_id`](Self::next_delta_id)
    /// just returned.
    pub fn delta(&mut self, bytes: &[u8]) -> Result<NeighborDelta, WireError> {
        let mut r = Reader::resume(bytes, self.at);
        let delta = NeighborDelta::decode(&mut r)?;
        self.at = r.offset();
        Ok(delta)
    }
}

impl Encode for PointQuery {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
}

impl Decode for PointQuery {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PointQuery(cpm_geom::Point::decode(r)?))
    }
}

impl Encode for Region {
    fn encode(&self, w: &mut Writer) {
        match *self {
            Region::Rect(rect) => {
                w.put_u8(0);
                rect.encode(w);
            }
            Region::Circle { center, radius } => {
                w.put_u8(1);
                center.encode(w);
                w.put_f64(radius);
            }
        }
    }
}

impl Decode for Region {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        match r.take_u8()? {
            0 => Ok(Region::Rect(cpm_geom::Rect::decode(r)?)),
            1 => {
                let center = cpm_geom::Point::decode(r)?;
                let radius_at = r.offset();
                let radius = r.take_f64()?;
                if !radius.is_finite() || radius < 0.0 {
                    return Err(WireError::Invalid {
                        offset: radius_at,
                        what: "circle radius must be finite and non-negative",
                    });
                }
                Ok(Region::Circle { center, radius })
            }
            _ => Err(WireError::Invalid {
                offset: at,
                what: "unknown region tag",
            }),
        }
    }
}

impl Encode for RangeQuery {
    fn encode(&self, w: &mut Writer) {
        self.region.encode(w);
    }
}

impl Decode for RangeQuery {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RangeQuery {
            region: Region::decode(r)?,
        })
    }
}

impl Encode for AggregateFn {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            AggregateFn::Sum => 0,
            AggregateFn::Min => 1,
            AggregateFn::Max => 2,
        });
    }
}

impl Decode for AggregateFn {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        match r.take_u8()? {
            0 => Ok(AggregateFn::Sum),
            1 => Ok(AggregateFn::Min),
            2 => Ok(AggregateFn::Max),
            _ => Err(WireError::Invalid {
                offset: at,
                what: "unknown aggregate-function tag",
            }),
        }
    }
}

impl Encode for AnnQuery {
    fn encode(&self, w: &mut Writer) {
        self.points().to_vec().encode(w);
        self.aggregate().encode(w);
    }
}

impl Decode for AnnQuery {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        let points: Vec<cpm_geom::Point> = Vec::decode(r)?;
        if points.is_empty() {
            return Err(WireError::Invalid {
                offset: at,
                what: "ANN query needs at least one point",
            });
        }
        let f = AggregateFn::decode(r)?;
        Ok(AnnQuery::new(points, f))
    }
}

impl Encode for ConstrainedQuery {
    fn encode(&self, w: &mut Writer) {
        self.q.encode(w);
        self.region.encode(w);
    }
}

impl Decode for ConstrainedQuery {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ConstrainedQuery {
            q: cpm_geom::Point::decode(r)?,
            region: cpm_geom::Rect::decode(r)?,
        })
    }
}

impl Encode for RnnQuery {
    fn encode(&self, w: &mut Writer) {
        self.q().encode(w);
        w.put_u8(self.sector() as u8);
    }
}

impl Decode for RnnQuery {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let q = cpm_geom::Point::decode(r)?;
        let at = r.offset();
        let sector = r.take_u8()? as u32;
        // Six 60° wedges partition the plane (Lemma in Section 6 of the
        // paper); RnnQuery::new panics past that.
        if sector >= 6 {
            return Err(WireError::Invalid {
                offset: at,
                what: "reverse-NN sector index out of range",
            });
        }
        Ok(RnnQuery::new(q, sector))
    }
}

impl Encode for AnyQuerySpec {
    fn encode(&self, w: &mut Writer) {
        match self {
            AnyQuerySpec::Knn(q) => {
                w.put_u8(0);
                q.encode(w);
            }
            AnyQuerySpec::Range(q) => {
                w.put_u8(1);
                q.encode(w);
            }
            AnyQuerySpec::Ann(q) => {
                w.put_u8(2);
                q.encode(w);
            }
            AnyQuerySpec::Constrained(q) => {
                w.put_u8(3);
                q.encode(w);
            }
            AnyQuerySpec::Rnn(q) => {
                w.put_u8(4);
                q.encode(w);
            }
        }
    }
}

impl Decode for AnyQuerySpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        match r.take_u8()? {
            0 => Ok(AnyQuerySpec::Knn(PointQuery::decode(r)?)),
            1 => Ok(AnyQuerySpec::Range(RangeQuery::decode(r)?)),
            2 => Ok(AnyQuerySpec::Ann(AnnQuery::decode(r)?)),
            3 => Ok(AnyQuerySpec::Constrained(ConstrainedQuery::decode(r)?)),
            4 => Ok(AnyQuerySpec::Rnn(RnnQuery::decode(r)?)),
            _ => Err(WireError::Invalid {
                offset: at,
                what: "unknown query-spec tag",
            }),
        }
    }
}

impl<S: Encode> Encode for SpecEvent<S> {
    fn encode(&self, w: &mut Writer) {
        match self {
            SpecEvent::Install { id, spec, k } => {
                w.put_u8(0);
                id.encode(w);
                spec.encode(w);
                k.encode(w);
            }
            SpecEvent::Update { id, spec } => {
                w.put_u8(1);
                id.encode(w);
                spec.encode(w);
            }
            SpecEvent::Terminate { id } => {
                w.put_u8(2);
                id.encode(w);
            }
        }
    }
}

/// An install with `k = 0` is refused unless it is a range's: a range
/// is installed with [`RangeQuery::UNBOUNDED_K`] whatever its `k`, so
/// the server accepts such an install, and a journal or a cluster frame
/// may carry it.
impl<S: Decode + QuerySpec> Decode for SpecEvent<S> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        match r.take_u8()? {
            0 => {
                let id = cpm_geom::QueryId::decode(r)?;
                let spec = S::decode(r)?;
                let k_at = r.offset();
                let k = usize::decode(r)?;
                if k == 0 && spec.kind() != QueryKind::Range {
                    return Err(WireError::Invalid {
                        offset: k_at,
                        what: "install event with k = 0",
                    });
                }
                Ok(SpecEvent::Install { id, spec, k })
            }
            1 => Ok(SpecEvent::Update {
                id: cpm_geom::QueryId::decode(r)?,
                spec: S::decode(r)?,
            }),
            2 => Ok(SpecEvent::Terminate {
                id: cpm_geom::QueryId::decode(r)?,
            }),
            _ => Err(WireError::Invalid {
                offset: at,
                what: "unknown query-event tag",
            }),
        }
    }
}

/// `RegridPolicy::Auto` writes six fields — the dimension bounds,
/// `check_every`, the hysteresis, the cooldown and the skew threshold —
/// the layout snapshots have always carried. All but `check_every` are
/// fixed by [`crate::regrid`]: bytes carrying any other value are refused.
impl Encode for RegridPolicy {
    fn encode(&self, w: &mut Writer) {
        match *self {
            RegridPolicy::Manual => w.put_u8(0),
            RegridPolicy::Auto { check_every } => {
                w.put_u8(1);
                w.put_u32(MIN_DIM);
                w.put_u32(MAX_DIM);
                w.put_u64(check_every.get());
                w.put_f64(HYSTERESIS);
                w.put_u64(cooldown(check_every));
                w.put_f64(SKEW_THRESHOLD);
            }
        }
    }
}

impl Decode for RegridPolicy {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        match r.take_u8()? {
            0 => Ok(RegridPolicy::Manual),
            1 => {
                let at = r.offset();
                let (min_dim, max_dim) = (r.take_u32()?, r.take_u32()?);
                let check_every = NonZeroU64::new(r.take_u64()?);
                let hysteresis = r.take_f64()?;
                let cooldown_cycles = r.take_u64()?;
                let skew_threshold = r.take_f64()?;
                match check_every {
                    Some(check_every)
                        if (min_dim, max_dim) == (MIN_DIM, MAX_DIM)
                            && hysteresis.to_bits() == HYSTERESIS.to_bits()
                            && cooldown_cycles == cooldown(check_every)
                            && skew_threshold.to_bits() == SKEW_THRESHOLD.to_bits() =>
                    {
                        Ok(RegridPolicy::Auto { check_every })
                    }
                    _ => Err(WireError::Invalid {
                        offset: at,
                        what: "auto re-grid tuning other than the fixed constants",
                    }),
                }
            }
            _ => Err(WireError::Invalid {
                offset: at,
                what: "unknown regrid-policy tag",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_geom::{ObjectId, Point, QueryId, Rect};

    fn n(id: u32, dist: f64) -> Neighbor {
        Neighbor {
            id: ObjectId(id),
            dist,
        }
    }

    #[test]
    fn specs_roundtrip() {
        let specs = vec![
            AnyQuerySpec::Knn(PointQuery(Point::new(0.25, 0.75))),
            AnyQuerySpec::Range(RangeQuery::circle(Point::new(0.5, 0.5), 0.1)),
            AnyQuerySpec::Range(RangeQuery::rect(Rect::new(
                Point::new(0.1, 0.2),
                Point::new(0.3, 0.4),
            ))),
            AnyQuerySpec::Ann(AnnQuery::new(
                vec![Point::new(0.1, 0.1), Point::new(0.9, 0.2)],
                AggregateFn::Max,
            )),
            AnyQuerySpec::Constrained(ConstrainedQuery::northeast_of(Point::new(0.4, 0.4))),
            AnyQuerySpec::Rnn(RnnQuery::new(Point::new(0.6, 0.6), 5)),
        ];
        let got = Vec::<AnyQuerySpec>::decode_all(&specs.encode_to_vec()).unwrap();
        assert_eq!(got.len(), specs.len());
        for (g, s) in got.iter().zip(&specs) {
            // Specs lack PartialEq; bit-compare their encodings instead.
            assert_eq!(g.encode_to_vec(), s.encode_to_vec());
        }
    }

    #[test]
    fn deltas_roundtrip_bit_exact() {
        let mut delta = NeighborDelta {
            epoch: 9,
            ..Default::default()
        };
        // Push past the inline capacity so the spill path decodes too.
        for i in 0..7 {
            delta.added.push(n(i, 0.125 * f64::from(i)));
        }
        delta.removed.push(ObjectId(40));
        delta.reordered.push(n(41, 0.5));
        let batch = CycleDeltas {
            epoch: 9,
            changed: vec![QueryId(1), QueryId(3)],
            deltas: vec![(QueryId(1), delta.clone())],
        };
        let got = CycleDeltas::decode_all(&batch.encode_to_vec()).unwrap();
        assert_eq!(got, batch);
        assert_eq!(
            NeighborDelta::decode_all(&delta.encode_to_vec()).unwrap(),
            delta
        );

        // The cursor yields the same batch an entry at a time ...
        let walk = |bytes: &[u8]| -> Result<CycleDeltas, WireError> {
            let (mut c, epoch) = CycleDeltasCursor::open(bytes)?;
            let mut out = CycleDeltas {
                epoch,
                ..Default::default()
            };
            while let Some(id) = c.next_changed(bytes)? {
                out.changed.push(id);
            }
            while let Some(id) = c.next_delta_id(bytes)? {
                out.deltas.push((id, c.delta(bytes)?));
            }
            Ok(out)
        };
        let bytes = batch.encode_to_vec();
        assert_eq!(walk(&bytes).unwrap(), batch);
        // ... and refuses, typed, whatever `decode_all` refuses.
        for cut in 0..bytes.len() {
            assert!(CycleDeltas::decode_all(&bytes[..cut]).is_err());
            assert!(walk(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(walk(&trailing).is_err());
    }

    /// Decoding into one reused delta yields what `decode_all` yields,
    /// whatever the delta before held, and a spilled component that
    /// still fits is refilled where it is.
    #[test]
    fn decode_into_refills_in_place() {
        let wide = NeighborDelta {
            epoch: 3,
            added: (0..9).map(|i| n(i, 0.125 * f64::from(i))).collect(),
            removed: vec![ObjectId(20), ObjectId(21)].into(),
            reordered: vec![n(30, 0.5)].into(),
        };
        let narrow = NeighborDelta {
            epoch: 4,
            added: (0..6).map(|i| n(i + 40, 0.25 * f64::from(i))).collect(),
            reordered: vec![n(30, 0.75)].into(),
            ..Default::default()
        };
        let mut into = NeighborDelta::default();
        into.decode_into(&wide.encode_to_vec()).unwrap();
        assert_eq!(into, wide);
        let spill = into.added.as_ptr();
        into.decode_into(&narrow.encode_to_vec()).unwrap();
        assert_eq!(into, narrow);
        assert_eq!(into.added.as_ptr(), spill, "the spill is reused");
        into.decode_into(&NeighborDelta::default().encode_to_vec())
            .unwrap();
        assert_eq!(into, NeighborDelta::default());

        let bytes = wide.encode_to_vec();
        for cut in 0..bytes.len() {
            assert!(into.decode_into(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert!(into.decode_into(&trailing).is_err());
    }

    #[test]
    fn events_and_policies_roundtrip() {
        let events: Vec<SpecEvent<AnyQuerySpec>> = vec![
            SpecEvent::Install {
                id: QueryId(1),
                spec: AnyQuerySpec::Knn(PointQuery(Point::new(0.2, 0.3))),
                k: 4,
            },
            SpecEvent::Update {
                id: QueryId(1),
                spec: AnyQuerySpec::Knn(PointQuery(Point::new(0.4, 0.3))),
            },
            SpecEvent::Terminate { id: QueryId(1) },
        ];
        let got = Vec::<SpecEvent<AnyQuerySpec>>::decode_all(&events.encode_to_vec()).unwrap();
        assert_eq!(got.len(), 3);
        assert!(matches!(got[0], SpecEvent::Install { k: 4, .. }));
        assert!(matches!(got[2], SpecEvent::Terminate { id } if id == QueryId(1)));

        for policy in [RegridPolicy::Manual, RegridPolicy::auto()] {
            let got = RegridPolicy::decode_all(&policy.encode_to_vec()).unwrap();
            assert_eq!(got, policy);
        }
    }

    #[test]
    fn corrupted_values_are_typed_errors() {
        // k = 0 install.
        let ev = SpecEvent::Install {
            id: QueryId(1),
            spec: PointQuery(Point::new(0.1, 0.1)),
            k: 1,
        };
        let mut bytes = ev.encode_to_vec();
        let klen = bytes.len();
        bytes[klen - 8..].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            SpecEvent::<PointQuery>::decode_all(&bytes),
            Err(WireError::Invalid { .. })
        ));
        // Negative circle radius.
        let mut w = Writer::new();
        w.put_u8(1);
        Point::new(0.5, 0.5).encode(&mut w);
        w.put_f64(-0.25);
        assert!(matches!(
            Region::decode_all(w.as_slice()),
            Err(WireError::Invalid { .. })
        ));
        // Empty ANN point set.
        let mut w = Writer::new();
        w.put_u32(0);
        AggregateFn::Sum.encode(&mut w);
        assert!(matches!(
            AnnQuery::decode_all(w.as_slice()),
            Err(WireError::Invalid { .. })
        ));
        // Sector ≥ 6.
        let mut w = Writer::new();
        Point::new(0.5, 0.5).encode(&mut w);
        w.put_u8(6);
        assert!(matches!(
            RnnQuery::decode_all(w.as_slice()),
            Err(WireError::Invalid { .. })
        ));
        // NaN neighbor distance.
        let mut w = Writer::new();
        ObjectId(1).encode(&mut w);
        w.put_f64(f64::NAN);
        assert!(matches!(
            Neighbor::decode_all(w.as_slice()),
            Err(WireError::Invalid { .. })
        ));
    }

    /// An auto policy's tag and six fields, laid out as
    /// [`RegridPolicy::encode`] writes them.
    fn auto_fields(
        dims: (u32, u32),
        check_every: u64,
        hysteresis: f64,
        cooldown: u64,
        skew_threshold: f64,
    ) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u32(dims.0);
        w.put_u32(dims.1);
        w.put_u64(check_every);
        w.put_f64(hysteresis);
        w.put_u64(cooldown);
        w.put_f64(skew_threshold);
        w.into_bytes()
    }

    #[test]
    fn auto_policy_bytes_other_than_the_fixed_tuning_are_refused_typed() {
        let three = RegridPolicy::Auto {
            check_every: NonZeroU64::new(3).unwrap(),
        };
        let bytes = auto_fields((MIN_DIM, MAX_DIM), 3, HYSTERESIS, 6, SKEW_THRESHOLD);
        assert_eq!(three.encode_to_vec(), bytes);
        assert_eq!(RegridPolicy::decode_all(&bytes), Ok(three));

        let refused = [
            auto_fields((8, MAX_DIM), 3, HYSTERESIS, 6, SKEW_THRESHOLD),
            auto_fields((MIN_DIM, 4096), 3, HYSTERESIS, 6, SKEW_THRESHOLD),
            auto_fields((MIN_DIM, MAX_DIM), 3, 1.5, 6, SKEW_THRESHOLD),
            auto_fields((MIN_DIM, MAX_DIM), 3, HYSTERESIS, 9, SKEW_THRESHOLD),
            auto_fields((MIN_DIM, MAX_DIM), 3, HYSTERESIS, 6, f64::INFINITY),
            auto_fields((MIN_DIM, MAX_DIM), 0, HYSTERESIS, 0, SKEW_THRESHOLD),
        ];
        for bytes in refused {
            assert_eq!(
                RegridPolicy::decode_all(&bytes),
                Err(WireError::Invalid {
                    offset: 1,
                    what: "auto re-grid tuning other than the fixed constants",
                }),
                "{bytes:02x?}"
            );
        }
    }
}
