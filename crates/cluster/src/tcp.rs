//! TCP loopback backend for the cluster [`Transport`] — plain
//! `std::net::TcpStream`, no extra dependencies.
//!
//! Frames are already self-delimiting (`cpm-wire` puts the payload
//! length at a fixed header offset), so the socket carries them
//! back-to-back with no additional envelope: a reader pulls the
//! 12-byte header, learns the payload length, then pulls payload + CRC.
//! Corruption is the frame codec's problem (typed `WireError`s);
//! this layer only turns socket failures into
//! [`TransportError`]s.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};

use cpm_wire::{WireError, FRAME_MAGIC, WIRE_VERSION};

use crate::transport::{Transport, TransportError};

/// Bytes before the `len` field in a `cpm-wire` frame header
/// (magic `u32` + version `u16` + kind `u16`).
const LEN_OFFSET: usize = 8;
/// Full header size: the fields above plus the `len: u32` itself.
const HEADER: usize = 12;
/// Trailing CRC-32 size.
const TRAILER: usize = 4;
/// Refuse frames claiming more than this (a corrupt length prefix must
/// not trigger a giant allocation; a snapshot of millions of objects
/// fits comfortably).
const MAX_FRAME: usize = 1 << 30;
/// Reserved up front for a frame body; anything longer grows as its
/// bytes arrive.
const EAGER_RESERVE: usize = 1 << 20;

fn io_err(e: std::io::Error) -> TransportError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        TransportError::Closed
    } else {
        TransportError::Io(e.to_string())
    }
}

/// A connected TCP transport end.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    /// The last recycled read buffer, reused by the next `recv`.
    spare: Vec<u8>,
}

impl TcpTransport {
    /// Connect to a listening peer.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, TransportError> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        Self::from_stream(stream)
    }

    /// Wrap a connected stream.
    pub fn from_stream(stream: TcpStream) -> Result<Self, TransportError> {
        stream.set_nodelay(true).map_err(io_err)?;
        Ok(Self {
            stream,
            spare: Vec::new(),
        })
    }

    /// Accept exactly one connection on `listener`.
    pub fn accept_one(listener: &TcpListener) -> Result<Self, TransportError> {
        let (stream, _) = listener.accept().map_err(io_err)?;
        Self::from_stream(stream)
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.stream.write_all(frame).map_err(io_err)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let mut header = [0u8; HEADER];
        if let Err(e) = self.stream.read_exact(&mut header) {
            // EOF on a frame boundary is a clean hang-up.
            return Err(io_err(e));
        }
        let field = |at: usize, len: usize| &header[at..at + len];
        // Refuse what is not a frame of this wire version before its
        // length prefix is believed.
        let magic = u32::from_le_bytes(field(0, 4).try_into().expect("4-byte field"));
        if magic != FRAME_MAGIC {
            return Err(TransportError::BadFrame(WireError::BadMagic {
                offset: 0,
                found: magic,
            }));
        }
        let version = u16::from_le_bytes(field(4, 2).try_into().expect("2-byte field"));
        if version != WIRE_VERSION {
            return Err(TransportError::BadFrame(WireError::UnsupportedVersion {
                offset: 4,
                version,
            }));
        }
        let len = u32::from_le_bytes(field(LEN_OFFSET, 4).try_into().expect("4-byte field"));
        let body = len as usize + TRAILER;
        if len as usize > MAX_FRAME {
            return Err(TransportError::Io(format!(
                "frame length {len} exceeds the {MAX_FRAME}-byte cap"
            )));
        }
        // Memory grows with the bytes the peer actually sends, not with
        // the length it claims.
        let mut frame = std::mem::take(&mut self.spare);
        frame.clear();
        frame.reserve(HEADER + body.min(EAGER_RESERVE));
        frame.extend_from_slice(&header);
        let got = (&mut self.stream)
            .take(body as u64)
            .read_to_end(&mut frame)
            .map_err(io_err)?;
        if got < body {
            return Err(TransportError::Closed);
        }
        Ok(frame)
    }

    fn recycle(&mut self, frame: Vec<u8>) {
        self.spare = frame;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_wire::cluster::ClusterMsg;

    #[test]
    fn frames_roundtrip_over_a_loopback_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut t = TcpTransport::accept_one(&listener).unwrap();
            // Echo two frames back-to-back, then read one.
            let f1 = t.recv().unwrap();
            let f2 = t.recv().unwrap();
            t.send(&f2).unwrap();
            t.send(&f1).unwrap();
        });
        let mut t = TcpTransport::connect(addr).unwrap();
        let a = ClusterMsg::SnapshotReq.to_frame();
        let b = ClusterMsg::Ack {
            worker: 3,
            epoch: 9,
        }
        .to_frame();
        t.send(&a).unwrap();
        t.send(&b).unwrap();
        assert_eq!(t.recv().unwrap(), b);
        assert_eq!(t.recv().unwrap(), a);
        server.join().unwrap();
    }

    #[test]
    fn peer_hangup_is_a_clean_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let t = TcpTransport::connect(addr).unwrap();
            drop(t);
        });
        let mut t = TcpTransport::accept_one(&listener).unwrap();
        client.join().unwrap();
        assert_eq!(t.recv(), Err(TransportError::Closed));
    }
}
