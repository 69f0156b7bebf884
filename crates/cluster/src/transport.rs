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
}

/// One direction of an in-process duplex channel.
#[derive(Debug, Default)]
struct Pipe {
    queue: Mutex<(VecDeque<Vec<u8>>, bool)>,
    ready: Condvar,
}

impl Pipe {
    fn push(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        let mut q = self.queue.lock().expect("pipe lock");
        if q.1 {
            return Err(TransportError::Closed);
        }
        q.0.push_back(frame);
        self.ready.notify_one();
        Ok(())
    }

    fn pop(&self) -> Result<Vec<u8>, TransportError> {
        let mut q = self.queue.lock().expect("pipe lock");
        loop {
            if let Some(frame) = q.0.pop_front() {
                return Ok(frame);
            }
            if q.1 {
                return Err(TransportError::Closed);
            }
            q = self.ready.wait(q).expect("pipe lock");
        }
    }

    fn close(&self) {
        let mut q = self.queue.lock().expect("pipe lock");
        q.1 = true;
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
        self.tx.push(frame.to_vec())
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.rx.pop()
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
    fn dropping_one_end_closes_the_other() {
        let (a, mut b) = duplex();
        drop(a);
        assert_eq!(b.recv(), Err(TransportError::Closed));
        assert_eq!(b.send(b"x"), Err(TransportError::Closed));
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
