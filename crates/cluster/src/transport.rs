//! The byte-level boundary between coordinator and workers.
//!
//! A [`Transport`] ships whole frames (already length-prefixed and
//! CRC-checksummed by `cpm-wire`) between two peers. Two backends:
//!
//! * [`duplex`] — an in-process pair of bounded-by-nothing byte queues,
//!   fully deterministic, no sockets: what the conformance tests and
//!   proptests run on;
//! * [`crate::tcp::TcpTransport`] — a `std::net::TcpStream` loopback
//!   backend with the same blocking semantics and no extra dependencies.
//!
//! Both ends speak strict request/reply in this subsystem, so the trait
//! is deliberately small and blocking; async serving is a separate
//! ROADMAP item.
//!
//! The per-cycle frames are hundreds of kilobytes, so the hot path hands
//! buffers over instead of copying them: [`Transport::send_owned`] gives
//! a finished frame away and gets an empty buffer back,
//! [`Transport::recycle`] returns a received frame's buffer once it has
//! been read. In process the same few allocations circulate between the
//! two ends; over TCP each end keeps its own.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer closed its end (worker exited, coordinator dropped).
    Closed,
    /// An I/O error (TCP backend), rendered.
    Io(String),
    /// The peer sent something that is not a frame of this wire version
    /// (TCP backend: refused from the header, before any body is read).
    BadFrame(cpm_wire::WireError),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "peer closed the transport"),
            TransportError::Io(e) => write!(f, "i/o error: {e}"),
            TransportError::BadFrame(e) => write!(f, "not a frame: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A blocking, frame-oriented, bidirectional byte channel.
pub trait Transport: Send {
    /// Ship one frame to the peer.
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError>;

    /// Receive the next frame, blocking until one arrives or the peer
    /// closes.
    fn recv(&mut self) -> Result<Vec<u8>, TransportError>;

    /// Ship a frame the caller is done with, and get a buffer (of
    /// unspecified contents) to build the next one in. A backend that can
    /// move the bytes to the peer does, instead of copying them.
    fn send_owned(&mut self, frame: Vec<u8>) -> Result<Vec<u8>, TransportError> {
        self.send(&frame)?;
        Ok(frame)
    }

    /// Give back the buffer of a frame [`recv`](Transport::recv) returned,
    /// once it has been read, for the backend to reuse.
    fn recycle(&mut self, _frame: Vec<u8>) {}
}

/// Read buffers a [`Pipe`] keeps for its sender — as many as frames can
/// be in flight one way (`submit_cycle`'s epoch in flight and the next:
/// two).
const SPARE_BUFFERS: usize = 2;

#[derive(Debug, Default)]
struct PipeState {
    frames: VecDeque<Vec<u8>>,
    closed: bool,
    /// Buffers the receiver has read and handed back, for the sender's
    /// next frames.
    spare: Vec<Vec<u8>>,
}

/// One direction of an in-process duplex channel.
#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    ready: Condvar,
}

impl Pipe {
    /// Queue `frame` for the receiver; returns a spare buffer if the
    /// receiver has handed one back.
    fn push(&self, frame: Vec<u8>) -> Result<Option<Vec<u8>>, TransportError> {
        let mut s = self.state.lock().expect("pipe lock");
        if s.closed {
            return Err(TransportError::Closed);
        }
        s.frames.push_back(frame);
        self.ready.notify_one();
        Ok(s.spare.pop())
    }

    fn pop(&self) -> Result<Vec<u8>, TransportError> {
        let mut s = self.state.lock().expect("pipe lock");
        loop {
            if let Some(frame) = s.frames.pop_front() {
                return Ok(frame);
            }
            if s.closed {
                return Err(TransportError::Closed);
            }
            s = self.ready.wait(s).expect("pipe lock");
        }
    }

    fn give_back(&self, frame: Vec<u8>) {
        let mut s = self.state.lock().expect("pipe lock");
        if s.spare.len() < SPARE_BUFFERS {
            s.spare.push(frame);
        }
    }

    fn close(&self) {
        let mut s = self.state.lock().expect("pipe lock");
        s.closed = true;
        self.ready.notify_all();
    }
}

/// One end of an in-process duplex byte channel (see [`duplex`]).
#[derive(Debug)]
pub struct ChannelTransport {
    tx: Arc<Pipe>,
    rx: Arc<Pipe>,
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.tx.push(frame.to_vec()).map(drop)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.rx.pop()
    }

    fn send_owned(&mut self, frame: Vec<u8>) -> Result<Vec<u8>, TransportError> {
        Ok(self.tx.push(frame)?.unwrap_or_default())
    }

    fn recycle(&mut self, frame: Vec<u8>) {
        self.rx.give_back(frame);
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        // Closing both directions wakes a peer blocked in recv() and
        // fails its next send() — a dropped coordinator reads as a clean
        // hang-up, exactly like a closed socket.
        self.tx.close();
        self.rx.close();
    }
}

/// Build a connected pair of in-process transports: frames sent on one
/// end arrive on the other, in order, with no loss or duplication.
pub fn duplex() -> (ChannelTransport, ChannelTransport) {
    let a_to_b = Arc::new(Pipe::default());
    let b_to_a = Arc::new(Pipe::default());
    (
        ChannelTransport {
            tx: Arc::clone(&a_to_b),
            rx: Arc::clone(&b_to_a),
        },
        ChannelTransport {
            tx: b_to_a,
            rx: a_to_b,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_ships_frames_in_order_both_ways() {
        let (mut a, mut b) = duplex();
        a.send(b"one").unwrap();
        a.send(b"two").unwrap();
        b.send(b"ack").unwrap();
        assert_eq!(b.recv().unwrap(), b"one");
        assert_eq!(b.recv().unwrap(), b"two");
        assert_eq!(a.recv().unwrap(), b"ack");
    }

    #[test]
    fn owned_frames_are_moved_and_their_buffers_come_back() {
        let (mut a, mut b) = duplex();
        let mut frame = Vec::with_capacity(4096);
        frame.extend_from_slice(b"payload");
        let sent_at = frame.as_ptr();
        // Nothing has been handed back yet: the sender gets an empty one.
        assert_eq!(a.send_owned(frame).unwrap().capacity(), 0);
        let got = b.recv().unwrap();
        assert_eq!(got, b"payload");
        assert_eq!(got.as_ptr(), sent_at, "moved, not copied");
        b.recycle(got);
        // The next send returns the very allocation the peer gave back.
        let spare = a.send_owned(b"next".to_vec()).unwrap();
        assert_eq!((spare.as_ptr(), spare.capacity()), (sent_at, 4096));
        assert_eq!(b.recv().unwrap(), b"next");
        // The pool is bounded.
        for _ in 0..2 * SPARE_BUFFERS {
            b.recycle(vec![0; 8]);
        }
        assert_eq!(b.rx.state.lock().unwrap().spare.len(), SPARE_BUFFERS);
    }

    #[test]
    fn dropping_one_end_closes_the_other() {
        let (a, mut b) = duplex();
        drop(a);
        assert_eq!(b.recv(), Err(TransportError::Closed));
        assert_eq!(b.send(b"x"), Err(TransportError::Closed));
        assert_eq!(b.send_owned(vec![1]), Err(TransportError::Closed));
    }

    #[test]
    fn recv_blocks_until_a_frame_arrives() {
        let (mut a, mut b) = duplex();
        let t = std::thread::spawn(move || b.recv().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(10));
        a.send(b"late").unwrap();
        assert_eq!(t.join().unwrap(), b"late");
    }
}
