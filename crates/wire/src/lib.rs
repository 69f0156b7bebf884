//! Hand-rolled binary codec for the CPM suite's durability and (future)
//! distribution boundaries: length-prefixed, versioned, CRC-checksummed
//! frames plus an append-only journal framing with sequence numbers.
//!
//! The build environment has no crates.io access, so serialization is
//! written out by hand against two tiny primitives — [`Writer`] (append
//! little-endian fields to a byte buffer) and [`Reader`] (consume them,
//! tracking the byte offset for error context). Everything that crosses a
//! durability boundary goes through the [`Encode`]/[`Decode`] traits, and
//! every artifact is wrapped in a [frame](write_frame) carrying a magic
//! number, a format version, a payload length and a CRC-32 of the whole
//! frame, so truncation, bit flips and version skew surface as typed
//! [`WireError`]s — never as a panic or a silently wrong value.
//!
//! Decoding is defensive by construction:
//!
//! * every length prefix is checked against the bytes actually remaining
//!   ([`Reader::take_len`]), so a corrupted count cannot trigger a huge
//!   allocation;
//! * invariants that constructors enforce by panicking (finite
//!   coordinates, ordered rectangles, known enum tags) are re-checked by
//!   `Decode` and reported as [`WireError::Invalid`] with the offending
//!   offset;
//! * [`Decode::decode_all`] rejects trailing garbage.
//!
//! The [`Journal`] builds on frames: each record is one frame whose
//! payload starts with a monotone sequence number. [`Journal::replay`]
//! tolerates exactly the failure modes of an append-only log — a torn or
//! corrupt *tail* stops replay (reported, not fatal), duplicated records
//! are deduplicated, reordered records are sorted — while a genuine gap in
//! the sequence is a hard error, because silently skipping a committed
//! record would resurrect a different history.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use cpm_geom::{ObjectId, Point, QueryId, Rect};
use cpm_grid::{KindMetrics, Metrics, ObjectEvent, QueryKind};

/// Magic number opening every frame (`"CPMW"` in ASCII).
pub const FRAME_MAGIC: u32 = 0x4350_4D57;

/// Current wire-format version; bumped on any incompatible layout change.
pub const WIRE_VERSION: u16 = 1;

/// Frame kind: a full engine/server snapshot.
pub const FRAME_SNAPSHOT: u16 = 1;

/// Frame kind: one journal record.
pub const FRAME_JOURNAL: u16 = 2;

/// Frame kind: one [`cluster::ClusterMsg`] of the coordinator/worker
/// protocol.
pub const FRAME_CLUSTER: u16 = 3;

pub mod cluster;

/// A typed decoding failure, carrying the byte offset where the input
/// stopped making sense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a field could be read in full.
    UnexpectedEof {
        /// Offset of the truncated field.
        offset: usize,
        /// Bytes the field still needed.
        needed: usize,
    },
    /// A frame did not start with [`FRAME_MAGIC`].
    BadMagic {
        /// Offset of the magic field.
        offset: usize,
        /// The value found instead.
        found: u32,
    },
    /// The frame's format version is not understood by this build.
    UnsupportedVersion {
        /// Offset of the version field.
        offset: usize,
        /// The version found.
        version: u16,
    },
    /// The frame kind did not match what the caller expected.
    WrongKind {
        /// Offset of the kind field.
        offset: usize,
        /// The kind found.
        found: u16,
        /// The kind expected.
        expected: u16,
    },
    /// The frame checksum did not match its contents.
    Checksum {
        /// Offset of the checksum field.
        offset: usize,
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum computed over the received bytes.
        computed: u32,
    },
    /// A decoded value violates an invariant of its type.
    Invalid {
        /// Offset of the offending field.
        offset: usize,
        /// What was wrong.
        what: &'static str,
    },
    /// Bytes were left over after the value was fully decoded.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        offset: usize,
        /// Number of unconsumed bytes.
        len: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WireError::UnexpectedEof { offset, needed } => {
                write!(f, "unexpected end of input at offset {offset} ({needed} more bytes needed)")
            }
            WireError::BadMagic { offset, found } => {
                write!(f, "bad frame magic {found:#010x} at offset {offset}")
            }
            WireError::UnsupportedVersion { offset, version } => {
                write!(f, "unsupported wire version {version} at offset {offset}")
            }
            WireError::WrongKind {
                offset,
                found,
                expected,
            } => write!(
                f,
                "frame kind {found} at offset {offset} (expected kind {expected})"
            ),
            WireError::Checksum {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch at offset {offset}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WireError::Invalid { offset, what } => {
                write!(f, "invalid value at offset {offset}: {what}")
            }
            WireError::TrailingBytes { offset, len } => {
                write!(f, "{len} trailing bytes at offset {offset}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// CRC-32 (IEEE 802.3 polynomial) lookup tables for slicing-by-8, built
/// at compile time: `CRC_TABLES[0]` is the classic one-byte table, and
/// `CRC_TABLES[k][b]` is the checksum of byte `b` followed by `k` zero
/// bytes, so eight look-ups fold eight input bytes into the state at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes`, eight bytes per step (slicing-by-8), the
/// tail a byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Append-only byte sink for encoding; all integers are little-endian.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that reuses `buf`'s allocation; any previous contents
    /// are cleared. This is the amortized-allocation path for encode
    /// loops that produce one value per cycle into the same buffer.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { buf }
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Forward-only byte source for decoding, tracking the current offset so
/// every [`WireError`] can say *where* the input went wrong.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Continue reading `buf` at offset `pos` — where an earlier reader
    /// over the same bytes stopped ([`Reader::offset`]) — so a caller can
    /// keep a position instead of a borrow between reads. A `pos` past
    /// the end reads as an exhausted input.
    pub fn resume(buf: &'a [u8], pos: usize) -> Self {
        Self {
            buf,
            pos: pos.min(buf.len()),
        }
    }

    /// Current byte offset from the start of the input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` once every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Error unless the input is fully consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.is_at_end() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                offset: self.pos,
                len: self.remaining(),
            })
        }
    }

    /// Take `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                offset: self.pos,
                needed: n - self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Take one byte.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Take a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take_bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Take a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Take a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take_bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Take an `f64` bit pattern (any bits — callers validate finiteness
    /// where it matters).
    pub fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Take a `u32` element count and sanity-check it against the bytes
    /// remaining (`min_elem_bytes ≥ 1` per element), so a corrupted count
    /// cannot drive a huge allocation.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let at = self.pos;
        let len = self.take_u32()? as usize;
        if len.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::Invalid {
                offset: at,
                what: "length prefix exceeds remaining input",
            });
        }
        Ok(len)
    }

    /// How many of the `len` elements a [`Reader::take_len`] prefix
    /// announced a decoder may reserve room for up front. `take_len` only
    /// proves one byte per element, so this is at most twice the input
    /// bytes left: a hostile prefix on a wide `T` cannot amplify, and
    /// honest batches stay exact-sized (a `Neighbor` is 16 bytes in memory
    /// for 12 on the wire, an `ObjectEvent` 24 for 21); growth covers
    /// anything wider.
    pub fn reservable<T>(&self, len: usize) -> usize {
        len.min(self.remaining().saturating_mul(2) / std::mem::size_of::<T>().max(1))
    }
}

/// Serialize a value into a [`Writer`].
pub trait Encode {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Encode into a fresh byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Encode into `out`, clearing it first but reusing its allocation.
    ///
    /// Produces exactly the bytes of [`Encode::encode_to_vec`]; steady
    /// state performs no allocation once `out` has grown to the working
    /// size.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::reusing(core::mem::take(out));
        self.encode(&mut w);
        *out = w.into_bytes();
    }
}

/// Deserialize a value from a [`Reader`], validating every invariant the
/// type's constructors would otherwise enforce by panicking.
pub trait Decode: Sized {
    /// Decode one value, advancing the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Decode a value that must span the whole input (no trailing bytes).
    fn decode_all(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

macro_rules! impl_codec_uint {
    ($($ty:ty => $put:ident / $take:ident),+ $(,)?) => {$(
        impl Encode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$take()
            }
        }
    )+};
}

impl_codec_uint! {
    u8 => put_u8 / take_u8,
    u16 => put_u16 / take_u16,
    u32 => put_u32 / take_u32,
    u64 => put_u64 / take_u64,
}

impl Encode for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        usize::try_from(r.take_u64()?).map_err(|_| WireError::Invalid {
            offset: at,
            what: "count does not fit this platform's usize",
        })
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
}

impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_f64()
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid {
                offset: at,
                what: "boolean tag outside {0, 1}",
            }),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(u32::try_from(self.len()).expect("collection fits a u32 length prefix"));
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.take_len(1)?;
        let mut out = Vec::with_capacity(r.reservable::<T>(len));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        if bool::decode(r)? {
            Ok(Some(T::decode(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(u32::try_from(self.len()).expect("string fits a u32 length prefix"));
        w.put_bytes(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.take_len(1)?;
        let at = r.offset();
        let bytes = r.take_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid {
            offset: at,
            what: "string bytes are not valid UTF-8",
        })
    }
}

impl Encode for ObjectId {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
}

impl Decode for ObjectId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ObjectId(r.take_u32()?))
    }
}

impl Encode for QueryId {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
}

impl Decode for QueryId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(QueryId(r.take_u32()?))
    }
}

impl Encode for Point {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.x);
        w.put_f64(self.y);
    }
}

impl Decode for Point {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        let x = r.take_f64()?;
        let y = r.take_f64()?;
        if !x.is_finite() || !y.is_finite() {
            return Err(WireError::Invalid {
                offset: at,
                what: "non-finite point coordinate",
            });
        }
        Ok(Point::new(x, y))
    }
}

impl Encode for Rect {
    fn encode(&self, w: &mut Writer) {
        self.lo.encode(w);
        self.hi.encode(w);
    }
}

impl Decode for Rect {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        let lo = Point::decode(r)?;
        let hi = Point::decode(r)?;
        if lo.x > hi.x || lo.y > hi.y {
            return Err(WireError::Invalid {
                offset: at,
                what: "rectangle corners out of order",
            });
        }
        Ok(Rect::new(lo, hi))
    }
}

impl Encode for QueryKind {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
}

impl Decode for QueryKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        match r.take_u8()? {
            0 => Ok(QueryKind::Knn),
            1 => Ok(QueryKind::Range),
            2 => Ok(QueryKind::Ann),
            3 => Ok(QueryKind::Constrained),
            4 => Ok(QueryKind::Rnn),
            _ => Err(WireError::Invalid {
                offset: at,
                what: "unknown query-kind tag",
            }),
        }
    }
}

/// The byte with which a snapshot payload and a `ClusterMsg::Hello` name
/// the spatial index. There is one index, so the byte is always `0`; it
/// stays so that both formats — and every artifact already written in
/// them — are unchanged.
pub fn put_index_tag(w: &mut Writer) {
    w.put_u8(0);
}

/// Read the byte [`put_index_tag`] writes.
///
/// # Errors
/// [`WireError::Invalid`] at the tag's offset for tag `1`, with which
/// earlier versions announced a quadtree (followed by its `u32` split
/// threshold), and for any other value.
pub fn take_index_tag(r: &mut Reader<'_>) -> Result<(), WireError> {
    let offset = r.offset();
    match r.take_u8()? {
        0 => Ok(()),
        1 => Err(WireError::Invalid {
            offset,
            what: "quadtree index backend is no longer supported",
        }),
        _ => Err(WireError::Invalid {
            offset,
            what: "unknown index-kind tag",
        }),
    }
}

impl Encode for ObjectEvent {
    fn encode(&self, w: &mut Writer) {
        match *self {
            ObjectEvent::Appear { id, pos } => {
                w.put_u8(0);
                id.encode(w);
                pos.encode(w);
            }
            ObjectEvent::Move { id, to } => {
                w.put_u8(1);
                id.encode(w);
                to.encode(w);
            }
            ObjectEvent::Disappear { id } => {
                w.put_u8(2);
                id.encode(w);
            }
        }
    }
}

impl Decode for ObjectEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        match r.take_u8()? {
            0 => Ok(ObjectEvent::Appear {
                id: ObjectId::decode(r)?,
                pos: Point::decode(r)?,
            }),
            1 => Ok(ObjectEvent::Move {
                id: ObjectId::decode(r)?,
                to: Point::decode(r)?,
            }),
            2 => Ok(ObjectEvent::Disappear {
                id: ObjectId::decode(r)?,
            }),
            _ => Err(WireError::Invalid {
                offset: at,
                what: "unknown object-event tag",
            }),
        }
    }
}

impl Encode for KindMetrics {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.cell_accesses);
        w.put_u64(self.objects_processed);
        w.put_u64(self.heap_pushes);
        w.put_u64(self.heap_pops);
        w.put_u64(self.computations);
        w.put_u64(self.recomputations);
        w.put_u64(self.merge_resolutions);
    }
}

impl Decode for KindMetrics {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(KindMetrics {
            cell_accesses: r.take_u64()?,
            objects_processed: r.take_u64()?,
            heap_pushes: r.take_u64()?,
            heap_pops: r.take_u64()?,
            computations: r.take_u64()?,
            recomputations: r.take_u64()?,
            merge_resolutions: r.take_u64()?,
        })
    }
}

impl Encode for Metrics {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.cell_accesses);
        w.put_u64(self.objects_processed);
        w.put_u64(self.heap_pushes);
        w.put_u64(self.heap_pops);
        w.put_u64(self.computations);
        w.put_u64(self.recomputations);
        w.put_u64(self.merge_resolutions);
        w.put_u64(self.updates_applied);
        w.put_u64(self.regrids);
        w.put_u64(self.regrid_objects_migrated);
        w.put_u64(self.regrid_queries_recomputed);
        for km in &self.by_kind {
            km.encode(w);
        }
    }
}

impl Decode for Metrics {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut m = Metrics {
            cell_accesses: r.take_u64()?,
            objects_processed: r.take_u64()?,
            heap_pushes: r.take_u64()?,
            heap_pops: r.take_u64()?,
            computations: r.take_u64()?,
            recomputations: r.take_u64()?,
            merge_resolutions: r.take_u64()?,
            updates_applied: r.take_u64()?,
            regrids: r.take_u64()?,
            regrid_objects_migrated: r.take_u64()?,
            regrid_queries_recomputed: r.take_u64()?,
            by_kind: Default::default(),
        };
        for km in m.by_kind.iter_mut() {
            *km = KindMetrics::decode(r)?;
        }
        Ok(m)
    }
}

/// Bytes of a frame before its payload: magic, version, kind, payload
/// length.
const FRAME_HEADER: usize = 12;

/// Open a frame at the end of `out`: its header, the payload length left
/// for [`seal_frame`] to fill in once the payload has been appended.
fn put_frame_header(out: &mut Vec<u8>, kind: u16) {
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
}

/// Close the frame opened at `out[start..]`: backfill the payload length
/// and append the CRC-32 of everything from `start`.
fn seal_frame(out: &mut Vec<u8>, start: usize) {
    let body = start + FRAME_HEADER;
    let len = u32::try_from(out.len() - body).expect("frame payload fits a u32 length");
    out[body - 4..body].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Append one frame — `[magic][version][kind][payload len][payload][crc]`,
/// with the CRC-32 computed over everything before it — to `out`.
pub fn write_frame(out: &mut Vec<u8>, kind: u16, payload: &[u8]) {
    let start = out.len();
    out.reserve(FRAME_HEADER + payload.len() + 4);
    put_frame_header(out, kind);
    out.extend_from_slice(payload);
    seal_frame(out, start);
}

/// Read one frame of kind `expect_kind` from `r`, verifying magic,
/// version, length and checksum; returns the payload slice.
pub fn read_frame<'a>(r: &mut Reader<'a>, expect_kind: u16) -> Result<&'a [u8], WireError> {
    let start = r.offset();
    let magic = r.take_u32()?;
    if magic != FRAME_MAGIC {
        return Err(WireError::BadMagic {
            offset: start,
            found: magic,
        });
    }
    let version_at = r.offset();
    let version = r.take_u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion {
            offset: version_at,
            version,
        });
    }
    let kind_at = r.offset();
    let kind = r.take_u16()?;
    if kind != expect_kind {
        return Err(WireError::WrongKind {
            offset: kind_at,
            found: kind,
            expected: expect_kind,
        });
    }
    let len = r.take_len(1)?;
    let payload = r.take_bytes(len)?;
    let body_end = r.offset();
    let crc_at = r.offset();
    let stored = r.take_u32()?;
    // Recompute over the whole frame body (header + payload). The reader
    // only hands out slices of its original buffer, so the frame bytes are
    // still addressable at `start..body_end`.
    let computed = {
        let whole = r.buf;
        crc32(&whole[start..body_end])
    };
    if stored != computed {
        return Err(WireError::Checksum {
            offset: crc_at,
            stored,
            computed,
        });
    }
    Ok(payload)
}

/// Encode `value` as a single standalone frame of `kind`.
pub fn encode_framed<T: Encode>(kind: u16, value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode_framed_into(kind, value, &mut out);
    out
}

/// Encode `value` as a single standalone frame of `kind` into `out`,
/// clearing it first but reusing its allocation.
///
/// The payload is encoded straight into the frame buffer after a length
/// placeholder that is backfilled once the payload size is known, so no
/// intermediate payload vector exists.
pub fn encode_framed_into<T: Encode>(kind: u16, value: &T, out: &mut Vec<u8>) {
    let mut w = Writer::reusing(core::mem::take(out));
    put_frame_header(&mut w.buf, kind);
    value.encode(&mut w);
    seal_frame(&mut w.buf, 0);
    *out = w.into_bytes();
}

/// Decode a single standalone frame of `kind` that must span all of
/// `bytes`, then decode its payload as `T`.
pub fn decode_framed<T: Decode>(kind: u16, bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let payload = read_frame(&mut r, kind)?;
    r.expect_end()?;
    T::decode_all(payload)
}

/// An in-memory append-only journal: each record is one
/// [`FRAME_JOURNAL`] frame whose payload opens with a monotone sequence
/// number. See [`Journal::replay`] for the recovery semantics.
#[derive(Debug, Clone)]
pub struct Journal {
    bytes: Vec<u8>,
    next_seq: u64,
}

/// The outcome of [`Journal::replay`]: the usable records plus, when the
/// journal did not end cleanly, the typed error describing its tail.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalReplay {
    /// `(sequence, payload)` records — deduplicated, sorted, and
    /// contiguous starting right after the requested watermark.
    pub records: Vec<(u64, Vec<u8>)>,
    /// `Some` when replay stopped at a torn or corrupt tail frame; the
    /// records before it are still valid (an append-only log's normal
    /// crash residue).
    pub tail_error: Option<WireError>,
}

impl Journal {
    /// An empty journal whose first appended record will carry sequence
    /// number `watermark + 1` (the snapshot it complements stores
    /// `watermark`).
    pub fn new(watermark: u64) -> Self {
        Self {
            bytes: Vec::new(),
            next_seq: watermark + 1,
        }
    }

    /// Append one record; returns its sequence number.
    pub fn append(&mut self, payload: &[u8]) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let start = self.bytes.len();
        self.bytes.reserve(FRAME_HEADER + 8 + payload.len() + 4);
        put_frame_header(&mut self.bytes, FRAME_JOURNAL);
        self.bytes.extend_from_slice(&seq.to_le_bytes());
        self.bytes.extend_from_slice(payload);
        seal_frame(&mut self.bytes, start);
        seq
    }

    /// The journal's raw bytes (what would be written to stable storage).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Sequence number of the most recently appended record (the
    /// watermark a snapshot taken *now* should store).
    pub fn watermark(&self) -> u64 {
        self.next_seq - 1
    }

    /// Drop every record and restart the sequence after a checkpoint at
    /// `watermark`.
    pub fn truncate_to(&mut self, watermark: u64) {
        self.bytes.clear();
        self.next_seq = watermark + 1;
    }

    /// Parse `bytes` as a journal and return the records with sequence
    /// numbers greater than `after`, ready to replay:
    ///
    /// * a torn or corrupt **tail** (truncated mid-frame, flipped bits —
    ///   the residue of a crash during an append) stops parsing; the
    ///   records already parsed are returned with
    ///   [`JournalReplay::tail_error`] describing the tail;
    /// * **duplicated** records (same sequence, same bytes — an at-least-
    ///   once redelivery) are deduplicated;
    /// * **reordered** records are sorted by sequence;
    /// * a **gap** in the sequence, or two records claiming the same
    ///   sequence with different payloads, is a hard error: replaying
    ///   around either would fabricate a history that was never run.
    pub fn replay(bytes: &[u8], after: u64) -> Result<JournalReplay, WireError> {
        let mut r = Reader::new(bytes);
        let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut tail_error = None;
        while !r.is_at_end() {
            let payload = match read_frame(&mut r, FRAME_JOURNAL) {
                Ok(p) => p,
                Err(e) => {
                    tail_error = Some(e);
                    break;
                }
            };
            let mut body = Reader::new(payload);
            match body.take_u64() {
                Ok(seq) => records.push((seq, payload[body.offset()..].to_vec())),
                Err(e) => {
                    tail_error = Some(e);
                    break;
                }
            }
        }
        Ok(JournalReplay {
            records: dedup(records, after)?,
            tail_error,
        })
    }
}

/// Collapse an at-least-once record stream into the unique, contiguous
/// suffix after `after`, with the semantics [`Journal::replay`] lists.
fn dedup(mut records: Vec<(u64, Vec<u8>)>, after: u64) -> Result<Vec<(u64, Vec<u8>)>, WireError> {
    records.retain(|&(seq, _)| seq > after);
    records.sort_by_key(|&(seq, _)| seq);
    let mut deduped: Vec<(u64, Vec<u8>)> = Vec::with_capacity(records.len());
    for (seq, payload) in records {
        match deduped.last() {
            Some((prev, prev_payload)) if *prev == seq => {
                if *prev_payload != payload {
                    return Err(WireError::Invalid {
                        offset: 0,
                        what: "conflicting journal records with the same sequence number",
                    });
                }
            }
            _ => deduped.push((seq, payload)),
        }
    }
    for (i, (seq, _)) in deduped.iter().enumerate() {
        if *seq != after + 1 + i as u64 {
            return Err(WireError::Invalid {
                offset: 0,
                what: "gap in journal sequence numbers",
            });
        }
    }
    Ok(deduped)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test oracle: the textbook loop, one table look-up per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// `len` bytes of a SplitMix64 stream.
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn crc32_equals_the_bytewise_oracle_at_every_length_and_alignment() {
        // Every length around the 8-byte step, at every offset of the
        // word loop's start within the buffer.
        let buf = random_bytes(7, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        // Large buffers, lengths not multiples of the step included.
        for (seed, len) in [
            (1u64, 1 << 20),
            (2, (1 << 20) - 3),
            (3, 65_537),
            (4, 4_099),
            (5, 1_000),
        ] {
            let buf = random_bytes(seed, len);
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "seed {seed} len {len}");
        }
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        7u8.encode(&mut w);
        513u16.encode(&mut w);
        0xDEAD_BEEFu32.encode(&mut w);
        u64::MAX.encode(&mut w);
        (-1.25f64).encode(&mut w);
        true.encode(&mut w);
        42usize.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(u8::decode(&mut r).unwrap(), 7);
        assert_eq!(u16::decode(&mut r).unwrap(), 513);
        assert_eq!(u32::decode(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::decode(&mut r).unwrap(), u64::MAX);
        assert_eq!(f64::decode(&mut r).unwrap().to_bits(), (-1.25f64).to_bits());
        assert!(bool::decode(&mut r).unwrap());
        assert_eq!(usize::decode(&mut r).unwrap(), 42);
        r.expect_end().unwrap();
    }

    #[test]
    fn geometry_and_event_types_roundtrip() {
        let values = (
            Point::new(0.25, 0.75),
            Rect::new(Point::new(0.1, 0.2), Point::new(0.3, 0.4)),
            vec![
                ObjectEvent::Appear {
                    id: ObjectId(3),
                    pos: Point::new(0.5, 0.5),
                },
                ObjectEvent::Move {
                    id: ObjectId(4),
                    to: Point::new(0.9, 0.1),
                },
                ObjectEvent::Disappear { id: ObjectId(5) },
            ],
        );
        let bytes = values.encode_to_vec();
        let got = <(Point, Rect, Vec<ObjectEvent>)>::decode_all(&bytes).unwrap();
        assert_eq!(got.0, values.0);
        assert_eq!(got.1.lo, values.1.lo);
        assert_eq!(got.1.hi, values.1.hi);
        assert_eq!(got.2, values.2);
    }

    #[test]
    fn encode_framed_into_matches_encode_framed_byte_for_byte() {
        let values = (
            Point::new(0.125, 0.875),
            vec![
                ObjectEvent::Appear {
                    id: ObjectId(3),
                    pos: Point::new(0.5, 0.5),
                },
                ObjectEvent::Disappear { id: ObjectId(5) },
            ],
        );
        let fresh = encode_framed(FRAME_SNAPSHOT, &values);
        let mut reused = vec![0xEE; 3]; // stale contents must be cleared
        encode_framed_into(FRAME_SNAPSHOT, &values, &mut reused);
        assert_eq!(reused, fresh);
        // ... and the payload-slice path writes the same frame, appending.
        let mut appended = vec![0xEE; 3];
        write_frame(&mut appended, FRAME_SNAPSHOT, &values.encode_to_vec());
        assert_eq!(appended[3..], fresh);
        // The reused path decodes through the same validated gate.
        let got: (Point, Vec<ObjectEvent>) = decode_framed(FRAME_SNAPSHOT, &reused).unwrap();
        assert_eq!(got.0, values.0);
        assert_eq!(got.1, values.1);
        // encode_into mirrors encode_to_vec the same way.
        let mut buf = Vec::new();
        values.1.encode_into(&mut buf);
        assert_eq!(buf, values.1.encode_to_vec());
    }

    #[test]
    fn index_tag_is_zero_and_every_other_value_is_refused_typed() {
        let mut w = Writer::new();
        w.put_u8(7); // something before the tag, so its offset is not 0
        put_index_tag(&mut w);
        assert_eq!(w.as_slice(), [7, 0]);
        let mut r = Reader::new(w.as_slice());
        r.take_u8().unwrap();
        assert_eq!(take_index_tag(&mut r), Ok(()));
        // Tag 1 announced a quadtree and its split threshold.
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u8(1);
        w.put_u32(32);
        let mut r = Reader::new(w.as_slice());
        r.take_u8().unwrap();
        assert_eq!(
            take_index_tag(&mut r),
            Err(WireError::Invalid {
                offset: 1,
                what: "quadtree index backend is no longer supported",
            })
        );
        assert!(matches!(
            take_index_tag(&mut Reader::new(&[9])),
            Err(WireError::Invalid { offset: 0, .. })
        ));
        assert!(take_index_tag(&mut Reader::new(&[])).is_err());
    }

    #[test]
    fn metrics_roundtrip_bit_exact() {
        let mut m = Metrics {
            cell_accesses: 10,
            updates_applied: 99,
            regrids: 2,
            ..Default::default()
        };
        m.by_kind[2].heap_pushes = 17;
        let got = Metrics::decode_all(&m.encode_to_vec()).unwrap();
        assert_eq!(got, m);
    }

    #[test]
    fn invalid_values_are_typed_errors() {
        // NaN point.
        let mut w = Writer::new();
        w.put_f64(f64::NAN);
        w.put_f64(0.5);
        assert!(matches!(
            Point::decode_all(w.as_slice()),
            Err(WireError::Invalid { offset: 0, .. })
        ));
        // Out-of-order rect.
        let bad_rect = (Point::new(0.9, 0.9), Point::new(0.1, 0.1)).encode_to_vec();
        assert!(matches!(
            Rect::decode_all(&bad_rect),
            Err(WireError::Invalid { .. })
        ));
        // Bad bool tag / kind tag / event tag.
        assert!(matches!(
            bool::decode_all(&[7]),
            Err(WireError::Invalid { .. })
        ));
        assert!(matches!(
            QueryKind::decode_all(&[9]),
            Err(WireError::Invalid { .. })
        ));
        assert!(matches!(
            ObjectEvent::decode_all(&[9]),
            Err(WireError::Invalid { .. })
        ));
        // Oversized length prefix cannot drive an allocation.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        assert!(matches!(
            Vec::<u64>::decode_all(w.as_slice()),
            Err(WireError::Invalid { .. })
        ));
    }

    #[test]
    fn frames_detect_every_corruption_class() {
        let value = vec![1u64, 2, 3];
        let good = encode_framed(FRAME_SNAPSHOT, &value);
        assert_eq!(
            decode_framed::<Vec<u64>>(FRAME_SNAPSHOT, &good).unwrap(),
            value
        );
        // Truncation at every prefix length fails typed, never panics.
        for cut in 0..good.len() {
            assert!(decode_framed::<Vec<u64>>(FRAME_SNAPSHOT, &good[..cut]).is_err());
        }
        // A flip of any single bit fails typed.
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            assert!(
                decode_framed::<Vec<u64>>(FRAME_SNAPSHOT, &bad).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
        // Wrong kind is reported as such.
        assert!(matches!(
            decode_framed::<Vec<u64>>(FRAME_JOURNAL, &good),
            Err(WireError::WrongKind { .. })
        ));
    }

    #[test]
    fn journal_replay_handles_crash_residue() {
        let mut j = Journal::new(10);
        assert_eq!(j.append(b"a"), 11);
        assert_eq!(j.append(b"bb"), 12);
        assert_eq!(j.append(b"ccc"), 13);
        assert_eq!(j.watermark(), 13);

        // Clean replay from the snapshot watermark.
        let replay = Journal::replay(j.bytes(), 10).unwrap();
        assert!(replay.tail_error.is_none());
        assert_eq!(
            replay.records,
            vec![
                (11, b"a".to_vec()),
                (12, b"bb".to_vec()),
                (13, b"ccc".to_vec())
            ]
        );
        // Replay after a later watermark skips the prefix.
        assert_eq!(Journal::replay(j.bytes(), 12).unwrap().records.len(), 1);

        // Torn tail: truncation anywhere inside the last frame loses only
        // that record and reports the tear.
        let frame_len = {
            let mut probe = Journal::new(0);
            probe.append(b"ccc");
            probe.bytes().len()
        };
        for cut in 1..frame_len {
            let torn = &j.bytes()[..j.bytes().len() - cut];
            let replay = Journal::replay(torn, 10).unwrap();
            assert_eq!(replay.records.len(), 2, "cut {cut}");
            assert!(replay.tail_error.is_some(), "cut {cut}");
        }

        // A duplicated frame (at-least-once redelivery) is deduplicated,
        // and a reordering is sorted back.
        let mut solo = Journal::new(0);
        solo.append(b"x");
        let frame = solo.bytes().to_vec();
        let mut j2 = Journal::new(1);
        j2.append(b"y");
        let mut duped = frame.clone();
        duped.extend_from_slice(j2.bytes());
        duped.extend_from_slice(&frame);
        let replay = Journal::replay(&duped, 0).unwrap();
        assert!(replay.tail_error.is_none());
        assert_eq!(replay.records, vec![(1, b"x".to_vec()), (2, b"y".to_vec())]);
        let mut reordered = j2.bytes().to_vec();
        reordered.extend_from_slice(&frame);
        let replay = Journal::replay(&reordered, 0).unwrap();
        assert_eq!(replay.records, vec![(1, b"x".to_vec()), (2, b"y".to_vec())]);

        // A genuine gap is a hard error.
        let mut j3 = Journal::new(5);
        j3.append(b"z");
        assert!(matches!(
            Journal::replay(j3.bytes(), 3),
            Err(WireError::Invalid { .. })
        ));
        // Conflicting payloads under one sequence number are a hard error.
        let mut conflict = frame.clone();
        let mut other = Journal::new(0);
        other.append(b"X");
        conflict.extend_from_slice(other.bytes());
        assert!(matches!(
            Journal::replay(&conflict, 0),
            Err(WireError::Invalid { .. })
        ));
    }

    #[test]
    fn watermark_tracks_appends_and_truncation() {
        let mut j = Journal::new(7);
        assert_eq!(j.watermark(), 7);
        assert_eq!(j.append(b"a"), 8);
        assert_eq!(j.watermark(), 8);
        j.truncate_to(20);
        assert_eq!(j.watermark(), 20);
        assert_eq!(j.append(b"b"), 21);
    }

    #[test]
    fn dedup_collapses_redelivery_and_rejects_gaps_and_conflicts() {
        let rec = |seq: u64, b: &[u8]| (seq, b.to_vec());
        // Reordered + duplicated at-least-once stream collapses to the
        // contiguous suffix after the watermark.
        let stream = vec![
            rec(3, b"c"),
            rec(1, b"a"),
            rec(2, b"b"),
            rec(2, b"b"),
            rec(1, b"a"),
        ];
        assert_eq!(
            dedup(stream, 0).unwrap(),
            vec![rec(1, b"a"), rec(2, b"b"), rec(3, b"c")]
        );
        // Records at or below the watermark are already applied.
        assert_eq!(
            dedup(vec![rec(1, b"a"), rec(2, b"b"), rec(3, b"c")], 2).unwrap(),
            vec![rec(3, b"c")]
        );
        assert_eq!(dedup(vec![rec(1, b"a")], 5).unwrap(), vec![]);
        // A gap is a hard error, not a silent skip.
        assert!(matches!(
            dedup(vec![rec(1, b"a"), rec(3, b"c")], 0),
            Err(WireError::Invalid { .. })
        ));
        // So is the same sequence claiming two different payloads.
        assert!(matches!(
            dedup(vec![rec(1, b"a"), rec(1, b"A")], 0),
            Err(WireError::Invalid { .. })
        ));
    }

    #[test]
    fn truncate_to_restarts_the_sequence() {
        let mut j = Journal::new(0);
        j.append(b"a");
        j.append(b"b");
        j.truncate_to(2);
        assert!(j.bytes().is_empty());
        assert_eq!(j.append(b"c"), 3);
    }

    #[test]
    fn mid_journal_corruption_stops_replay_without_panicking() {
        let mut j = Journal::new(0);
        j.append(b"one");
        j.append(b"two");
        j.append(b"three");
        // Flip one bit in the middle frame: that record and everything
        // after it are dropped, and the tail error says why.
        let frame_one_len = {
            let mut probe = Journal::new(0);
            probe.append(b"one");
            probe.bytes().len()
        };
        let mut bad = j.bytes().to_vec();
        bad[frame_one_len + 12] ^= 0x01;
        let replay = Journal::replay(&bad, 0).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.tail_error.is_some());
    }
}
