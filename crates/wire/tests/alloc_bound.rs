//! Decoding hostile input must not reserve memory out of proportion to
//! the input. This file holds exactly one test: the counting allocator
//! below is process-global, and a second test running beside it would
//! pollute the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cpm_geom::QueryId;
use cpm_wire::cluster::{ClusterMsg, TileRect};
use cpm_wire::{write_frame, Decode, Encode, Reader, WireError, FRAME_CLUSTER, WIRE_VERSION};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus live/peak byte counters (statistics only,
/// hence `Relaxed`).
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never influence a returned
// pointer or layout.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`
        // (the only allocator behind `alloc` above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Shaped like `(QueryId, NeighborDelta)`: 4 wire bytes minimum per
/// vector, 24 in-memory bytes each.
type Wide = (QueryId, (Vec<u32>, Vec<u32>, Vec<u32>));

/// Run `decode` and return its output with the peak of bytes it had
/// allocated at once.
fn peak_during<T>(decode: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let got = decode();
    (got, PEAK.load(Ordering::Relaxed) - before)
}

#[test]
fn hostile_length_prefix_on_a_wide_element_cannot_amplify() {
    // A length prefix equal to the remaining byte count passes the
    // one-byte-per-element floor; the 0xFF body then fails the first
    // element's own inner prefix.
    const BODY: usize = 1 << 20;
    let mut input = Vec::with_capacity(4 + BODY);
    input.extend_from_slice(&(BODY as u32).to_le_bytes());
    input.resize(4 + BODY, 0xFF);
    assert!(std::mem::size_of::<Wide>() >= 64, "element must be wide");

    let (got, reserved) = peak_during(|| Vec::<Wide>::decode(&mut Reader::new(&input)));
    assert!(matches!(got, Err(WireError::Invalid { .. })), "{got:?}");
    assert!(
        reserved <= 4 * input.len(),
        "decode reserved {reserved} bytes for {} input bytes",
        input.len()
    );

    // One more input: a `Hello` naming the removed quadtree index (tag 1
    // and a `u32` split threshold where the index tag `0` stands, payload
    // offset 11). The refusal comes from the tag itself and allocates
    // nothing beyond the frame it was read from.
    let tile = TileRect::new(0, 0, 15, 15);
    let hello = ClusterMsg::Hello {
        version: WIRE_VERSION,
        worker: 0,
        dim: 16,
        tile,
        coverage: tile,
    };
    let mut payload = hello.encode_to_vec();
    assert_eq!(payload[11], 0);
    payload.splice(11..12, [1, 32, 0, 0, 0]);
    let mut frame = Vec::new();
    write_frame(&mut frame, FRAME_CLUSTER, &payload);
    let (got, reserved) = peak_during(|| ClusterMsg::from_frame(&frame));
    let refusal = WireError::Invalid {
        offset: 11,
        what: "quadtree index backend is no longer supported",
    };
    assert_eq!(got, Err(refusal));
    assert!(
        reserved <= frame.len(),
        "refusing a {}-byte frame reserved {reserved} bytes",
        frame.len()
    );
}
