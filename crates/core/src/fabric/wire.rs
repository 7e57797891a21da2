//! The fabric's wire protocol: length-prefixed, FNV-checksummed frames
//! carrying JSON-encoded messages, over any byte stream (localhost TCP
//! here; the framing is transport-agnostic).
//!
//! ```text
//! frame := len:u32le payload:[u8; len] fnv64(payload):u64le
//! ```
//!
//! This is deliberately the same frame shape as the journal's on-disk
//! records — one framing discipline, two substrates. No external
//! protocol dependency is involved: frames are hand-rolled over
//! `std::net`, and payloads use the already-vendored `serde_json`.

use crate::error::TeiError;
use crate::fabric::CampaignSpec;
use crate::journal::fnv64;
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted frame payload; a bigger length prefix is a corrupt
/// or hostile frame, not a real message.
pub const MAX_FRAME: usize = 1 << 20;

/// Every message the fabric exchanges. One flat enum keeps the protocol
/// auditable in a single place; direction is documented per variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Worker → coordinator: first message on a worker connection. The
    /// token must match the one the coordinator minted for this fleet.
    Hello {
        /// Spawn token (anti-cross-talk for stray local connections).
        token: u64,
        /// Worker index (stable across the fleet; names the journal).
        worker: u32,
    },
    /// Coordinator → worker: establish the campaign context. The worker
    /// resolves the spec independently and answers with [`Message::Ready`].
    Launch {
        /// The campaign to prepare for.
        spec: CampaignSpec,
    },
    /// Worker → coordinator: context built; `manifest_hash` is the
    /// worker's own derivation, cross-checked against the coordinator's
    /// to refuse binary/netlist drift between processes.
    Ready {
        /// Hash of the worker's independently derived manifest.
        manifest_hash: u64,
    },
    /// Coordinator → worker: execute runs `[lo, hi)` of the campaign.
    Grant {
        /// Lease id (echoed back in [`Message::LeaseDone`]).
        lease: u64,
        /// First run index of the lease.
        lo: u64,
        /// One past the last run index.
        hi: u64,
    },
    /// Worker → coordinator: the leased range is durably journaled.
    LeaseDone {
        /// Lease id.
        lease: u64,
    },
    /// Worker → coordinator: a lease failed in a way the worker could
    /// type (config drift, journal refusal). The coordinator treats the
    /// worker as poisoned and reassigns its leases.
    WorkerError {
        /// What failed.
        detail: String,
    },
    /// Worker → coordinator: periodic liveness beacon. Any message
    /// refreshes the coordinator's `last_seen` for the worker; heartbeats
    /// exist so a *quiet* worker (mid-lease, SIGSTOPped, wedged) is
    /// distinguishable from a dead one in seconds instead of waiting out
    /// the lease timeout.
    Heartbeat {
        /// Worker index.
        worker: u32,
    },
    /// Coordinator → worker: exit cleanly.
    Shutdown,
}

/// Write one frame. The caller flushes (TCP streams are unbuffered
/// here, so a frame is pushed immediately).
///
/// # Errors
///
/// Any transport write failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    write_frame_on("wire.send", w, payload)
}

/// [`write_frame`] with an explicit failpoint site, so heartbeat traffic
/// can be faulted (`wire.heartbeat`) without consuming hit counts that a
/// schedule aimed at control frames (`wire.send`).
fn write_frame_on(site: &str, w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let mut buf = Vec::with_capacity(payload.len() + 12);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&fnv64(payload).to_le_bytes());
    crate::failpoint::write_all(site, w, &buf)
}

/// Read one frame. `Ok(None)` when the peer closed the stream (at a
/// frame boundary or mid-frame — a dead peer is a dead peer); a
/// checksum mismatch or oversized length is an `InvalidData` error.
///
/// # Errors
///
/// Transport read failures, or `InvalidData` for corrupt frames.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut sum = [0u8; 8];
    match r
        .read_exact(&mut payload)
        .and_then(|()| r.read_exact(&mut sum))
    {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    if fnv64(&payload) != u64::from_le_bytes(sum) {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    Ok(Some(payload))
}

/// Send one message as a JSON-encoded frame.
///
/// # Errors
///
/// [`TeiError::Fabric`] on transport failure.
pub fn send(w: &mut impl Write, peer: &str, msg: &Message) -> Result<(), TeiError> {
    send_on("wire.send", w, peer, msg)
}

/// [`send`] through a named failpoint site. Heartbeat senders use
/// `wire.heartbeat` so chaos schedules can target beacons and control
/// frames independently.
pub fn send_on(site: &str, w: &mut impl Write, peer: &str, msg: &Message) -> Result<(), TeiError> {
    let payload = serde_json::to_string(msg).map_err(|e| TeiError::Fabric {
        detail: format!("encode message for {peer}: {e}"),
    })?;
    write_frame_on(site, w, payload.as_bytes()).map_err(|e| TeiError::Fabric {
        detail: format!("send to {peer}: {e}"),
    })
}

/// Decode one frame payload into a [`Message`].
///
/// # Errors
///
/// [`TeiError::Protocol`] for non-UTF-8 or undecodable payloads.
pub fn decode(payload: &[u8], peer: &str) -> Result<Message, TeiError> {
    std::str::from_utf8(payload)
        .map_err(|e| TeiError::Protocol {
            peer: peer.to_string(),
            detail: format!("non-UTF-8 message payload: {e}"),
        })
        .and_then(|text| {
            serde_json::from_str(text).map_err(|e| TeiError::Protocol {
                peer: peer.to_string(),
                detail: format!("undecodable message: {e}"),
            })
        })
}

/// Receive one message. `Ok(None)` when the peer closed the stream.
///
/// # Errors
///
/// [`TeiError::Protocol`] for corrupt frames or undecodable messages,
/// [`TeiError::Fabric`] for transport failures.
pub fn recv(r: &mut impl Read, peer: &str) -> Result<Option<Message>, TeiError> {
    let frame = match crate::failpoint::io_check("wire.recv").and_then(|()| read_frame(r)) {
        Ok(f) => f,
        Err(e) if e.kind() == ErrorKind::InvalidData => {
            return Err(TeiError::Protocol {
                peer: peer.to_string(),
                detail: e.to_string(),
            })
        }
        Err(e) => {
            return Err(TeiError::Fabric {
                detail: format!("receive from {peer}: {e}"),
            })
        }
    };
    match frame {
        None => Ok(None),
        Some(payload) => decode(&payload, peer).map(Some),
    }
}

/// One step of a [`FrameReader`].
#[derive(Debug, PartialEq, Eq)]
pub enum FrameStep {
    /// A complete frame's payload.
    Frame(Vec<u8>),
    /// The peer closed the stream (at or inside a frame boundary).
    Eof,
    /// The underlying read timed out with no complete frame available.
    /// Framing state — including a partially received frame — is
    /// preserved; call [`FrameReader::step`] again.
    Idle,
}

/// Incremental frame reader that survives read timeouts.
///
/// [`read_frame`] uses `read_exact`, which makes a `WouldBlock`/`TimedOut`
/// return *mid-frame* unrecoverable: the bytes already consumed are lost
/// and the stream desyncs. Sockets with read timeouts (every fabric
/// connection, so dead peers are detected in bounded time) therefore read
/// through this accumulator instead — a timeout yields [`FrameStep::Idle`]
/// with any partial frame retained for the next call.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a byte stream (typically a `TcpStream` with a read timeout).
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: Vec::new(),
        }
    }

    /// Read until a full frame, EOF, or a timeout.
    ///
    /// # Errors
    ///
    /// Transport failures, or `InvalidData` for corrupt frames.
    pub fn step(&mut self) -> std::io::Result<FrameStep> {
        crate::failpoint::io_check("wire.recv")?;
        loop {
            if let Some(payload) = self.try_parse()? {
                return Ok(FrameStep::Frame(payload));
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => return Ok(FrameStep::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(FrameStep::Idle)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn try_parse(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(&self.buf[..4]);
        let len = u32::from_le_bytes(len4) as usize;
        if len > MAX_FRAME {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
            ));
        }
        let total = 4 + len + 8;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        let mut sum8 = [0u8; 8];
        sum8.copy_from_slice(&self.buf[4 + len..total]);
        self.buf.drain(..total);
        if fnv64(&payload) != u64::from_le_bytes(sum8) {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "frame checksum mismatch",
            ));
        }
        Ok(Some(payload))
    }
}

/// Apply the fabric's socket discipline: bounded reads and writes, so a
/// dead or wedged peer never blocks a thread forever. `None` disables a
/// timeout (used nowhere in the fabric; kept for tests).
///
/// # Errors
///
/// The underlying `setsockopt` failures.
pub fn set_timeouts(
    stream: &TcpStream,
    read: Option<Duration>,
    write: Option<Duration>,
) -> std::io::Result<()> {
    stream.set_read_timeout(read)?;
    stream.set_write_timeout(write)
}

#[cfg(test)]
mod tests {
    // Tests should panic loudly, not thread errors.
    #![allow(clippy::disallowed_methods)]

    use super::*;

    #[test]
    fn frame_roundtrip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None);
        // A torn tail reads as peer-closed, like a killed worker's socket.
        let mut torn = &buf[..buf.len() - 3];
        assert_eq!(
            read_frame(&mut torn).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(read_frame(&mut torn).unwrap(), None);
    }

    #[test]
    fn corrupt_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    /// Scripted reader: `None` entries yield `WouldBlock` (a socket read
    /// timeout), `Some` entries yield those bytes, exhaustion yields EOF.
    struct Stutter(std::collections::VecDeque<Option<Vec<u8>>>);

    impl Read for Stutter {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(std::io::Error::new(ErrorKind::WouldBlock, "timeout")),
                Some(Some(bytes)) => {
                    assert!(bytes.len() <= out.len());
                    out[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"beta").unwrap();
        // Deliver the stream in awkward slices with timeouts between —
        // including one *inside* the first frame's length prefix.
        let cut1 = 2; // mid length-prefix
        let cut2 = 9; // mid payload
        let script: std::collections::VecDeque<Option<Vec<u8>>> = [
            None,
            Some(wire[..cut1].to_vec()),
            None,
            Some(wire[cut1..cut2].to_vec()),
            None,
            Some(wire[cut2..].to_vec()),
        ]
        .into_iter()
        .collect();
        let mut r = FrameReader::new(Stutter(script));
        assert_eq!(r.step().unwrap(), FrameStep::Idle);
        assert_eq!(r.step().unwrap(), FrameStep::Idle);
        assert_eq!(r.step().unwrap(), FrameStep::Idle);
        assert_eq!(r.step().unwrap(), FrameStep::Frame(b"alpha".to_vec()));
        assert_eq!(r.step().unwrap(), FrameStep::Frame(b"beta".to_vec()));
        assert_eq!(r.step().unwrap(), FrameStep::Eof);
    }

    #[test]
    fn frame_reader_rejects_corrupt_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        let mid = wire.len() / 2;
        wire[mid] ^= 0x40;
        let mut r = FrameReader::new(Stutter([Some(wire)].into_iter().collect()));
        let err = r.step().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn message_roundtrip() {
        let msgs = [
            Message::Hello {
                token: 7,
                worker: 2,
            },
            Message::Launch {
                spec: CampaignSpec::new("sobel"),
            },
            Message::Grant {
                lease: 3,
                lo: 100,
                hi: 250,
            },
            Message::Heartbeat { worker: 1 },
            Message::Shutdown,
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            send(&mut buf, "test", m).unwrap();
        }
        let mut r = &buf[..];
        for m in &msgs {
            assert_eq!(recv(&mut r, "test").unwrap().as_ref(), Some(m));
        }
        assert_eq!(recv(&mut r, "test").unwrap(), None);
    }
}
