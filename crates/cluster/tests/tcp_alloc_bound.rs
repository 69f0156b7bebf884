//! A TCP peer must not be able to make `recv` reserve memory it never
//! sends, and what is not a frame is refused from its header. This file
//! holds exactly one test: the counting allocator below is
//! process-global, and a second test running beside it would pollute
//! the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};

use cpm_cluster::{TcpTransport, Transport, TransportError};
use cpm_wire::cluster::ClusterMsg;
use cpm_wire::WireError;

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

/// `recv` on a fresh loopback connection whose peer writes `bytes` and
/// hangs up; returns the result and the peak bytes allocated meanwhile.
fn recv_from_peer(bytes: Vec<u8>) -> (Result<Vec<u8>, TransportError>, usize) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&bytes).unwrap();
    });
    let mut transport = TcpTransport::accept_one(&listener).unwrap();
    peer.join().unwrap();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let got = transport.recv();
    (got, PEAK.load(Ordering::Relaxed) - before)
}

#[test]
fn a_header_cannot_reserve_what_the_peer_never_sends() {
    const FEW_MIB: usize = 4 << 20;
    let honest = ClusterMsg::SnapshotReq.to_frame();

    // A valid header claiming a 1 GiB payload, 1 KiB of it, a hang-up.
    let mut lying = honest[..8].to_vec();
    lying.extend_from_slice(&(1u32 << 30).to_le_bytes());
    lying.resize(12 + 1024, 0xAB);
    let (got, reserved) = recv_from_peer(lying);
    assert_eq!(got, Err(TransportError::Closed));
    assert!(
        reserved <= FEW_MIB,
        "recv reserved {reserved} bytes for 1 KiB"
    );

    // Not a frame at all: refused from the header, whatever it claims.
    let mut bad_magic = honest.clone();
    bad_magic[..4].copy_from_slice(b"HTTP");
    bad_magic[8..12].copy_from_slice(&(1u32 << 30).to_le_bytes());
    let (got, reserved) = recv_from_peer(bad_magic);
    let found = u32::from_le_bytes(*b"HTTP");
    let bad = WireError::BadMagic { offset: 0, found };
    assert_eq!(got, Err(TransportError::BadFrame(bad)));
    assert!(reserved <= FEW_MIB, "recv reserved {reserved} bytes");

    // A frame of a wire version this build does not speak.
    let mut future = honest.clone();
    future[4..6].copy_from_slice(&9u16.to_le_bytes());
    let (got, _) = recv_from_peer(future);
    let bad = WireError::UnsupportedVersion {
        offset: 4,
        version: 9,
    };
    assert_eq!(got, Err(TransportError::BadFrame(bad)));

    // And the honest frame still arrives whole.
    let (got, _) = recv_from_peer(honest.clone());
    assert_eq!(got, Ok(honest));
}
