//! The wire protocol: length-prefixed binary framing and the
//! request/reply message set.
//!
//! # Framing
//!
//! Every message travels in one version-3 frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic       b"HAMR"
//! 4       2     version     u16 LE, always 3
//! 6       1     opcode      message discriminant
//! 7       8     request id  u64 LE, echoed verbatim in the reply
//! 15      8     trace id    u64 LE, 0 = untraced
//! 23      4     deadline    u32 LE milliseconds, 0 = none
//! 27      4     payload len u32 LE, bytes that follow (≤ 64 MiB)
//! 31      …     payload     opcode-specific (see [`crate::codec`])
//! ```
//!
//! The `deadline` is the sender's remaining time budget, propagated so
//! the server can refuse or cancel work the client will no longer wait
//! for. The `trace id` is a 64-bit request correlation token stamped by
//! [`crate::ServeClient`] (or assigned at frame arrival for bare
//! clients), carried at a fixed offset directly after the request id so
//! even protocol-blind middleboxes (the chaos proxy) can sniff it.
//! Version 3 is the only version: [`read_frame`] rejects any other with
//! [`WireError::BadVersion`] before reading past the version field.
//!
//! The request id is an opaque client token, echoed verbatim in the
//! reply. A client may pipeline requests on one connection; the server
//! answers them one at a time, in the order they arrived.
//!
//! Everything is hand-rolled over `std::io` — no serde, no external
//! dependencies — and every decoder treats its input as untrusted:
//! malformed frames surface as [`WireError`], never as panics.

use std::fmt;
use std::io::{Read, Write};

use hammer_dist::DistError;

/// Frame magic: `b"HAMR"`.
pub const MAGIC: [u8; 4] = *b"HAMR";
/// The protocol version, the only one read or written.
pub const VERSION: u16 = 3;
/// Upper bound on a frame payload; larger length prefixes are rejected
/// before any allocation happens.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;
/// Frame header size in bytes.
pub const HEADER_LEN: usize = 31;
/// Byte offset of the trace-id field — fixed directly after the request
/// id so middleboxes can sniff it without a decoder.
pub const TRACE_ID_OFFSET: usize = 15;

/// The opcode table. Requests (client → server) use the low half and
/// replies (server → client) set the high bit. `Reconstruct` and
/// `SampleAndReconstruct` are the two compute requests; the server
/// answers both with a distribution. Every other value decodes as
/// [`WireError::UnknownOpcode`], the retired `0x03`/`0x83` (figures of
/// merit) and `0x05`/`0x85` (stats) pairs included.
pub mod opcode {
    /// Liveness probe.
    pub const PING: u8 = 0x01;
    /// Counts + config in, reconstructed distribution out.
    pub const RECONSTRUCT: u8 = 0x02;
    /// Circuit + device + trials + seed + config in, reconstructed
    /// distribution out (the full simulate-then-HAMMER pipeline).
    pub const SAMPLE_AND_RECONSTRUCT: u8 = 0x04;
    /// Graceful shutdown: stop accepting, drain in-flight work.
    pub const SHUTDOWN: u8 = 0x06;
    /// Drain the server's ring of captured slow-request traces.
    pub const TRACE_DUMP: u8 = 0x07;
    /// Snapshot of every registered observability series.
    pub const METRICS_SNAPSHOT: u8 = 0x08;

    /// Reply opcodes (server → client) set the high bit.
    pub const PONG: u8 = 0x81;
    /// A [`hammer_dist::Distribution`] payload.
    pub const DISTRIBUTION: u8 = 0x82;
    /// Shutdown acknowledged; the connection stays usable until closed.
    pub const SHUTDOWN_ACK: u8 = 0x86;
    /// Captured slow-request traces (see [`crate::TraceDumpEntry`]).
    pub const TRACE_DUMP_REPLY: u8 = 0x87;
    /// A full observability snapshot (see
    /// [`hammer_obs::MetricsSnapshot`]).
    pub const METRICS_SNAPSHOT_REPLY: u8 = 0x88;
    /// A [`hammer_dist::Distribution`] payload flagged approximate —
    /// same encoding as [`DISTRIBUTION`]. The server never sends it;
    /// it stays decodable while perfbench's tests still name it.
    pub const DISTRIBUTION_APPROX: u8 = 0x84;
    /// 503-style backpressure: the request queue is full, retry later.
    pub const BUSY: u8 = 0xF0;
    /// The request's deadline expired before (or while) computing.
    pub const DEADLINE_EXCEEDED: u8 = 0xF1;
    /// The server is draining for shutdown; it will not take new work.
    pub const SHUTTING_DOWN: u8 = 0xF2;
    /// Request-level failure; payload is a UTF-8 message.
    pub const ERROR: u8 = 0xFF;
}

/// Everything that can go wrong on the wire (or in a decoded payload).
#[derive(Debug)]
pub enum WireError {
    /// Transport failure.
    Io(std::io::Error),
    /// The frame did not start with `b"HAMR"`.
    BadMagic([u8; 4]),
    /// Protocol version mismatch.
    BadVersion(u16),
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// Length prefix beyond [`MAX_PAYLOAD`].
    PayloadTooLarge(u32),
    /// Payload ended before its declared content.
    Truncated,
    /// Payload continued past its declared content.
    TrailingBytes,
    /// A structurally invalid payload field.
    Malformed(String),
    /// A decoded `Counts`/`Distribution` violated a data-layer
    /// invariant.
    Dist(DistError),
    /// The server refused the request under load (in-band `Busy`
    /// reply, surfaced as an error by the typed client helpers).
    Busy,
    /// The request's deadline expired before a result was produced
    /// (in-band `DeadlineExceeded` reply, or the client-side budget ran
    /// out first).
    DeadlineExceeded,
    /// The server is draining for shutdown and refused the request.
    ShuttingDown,
    /// The server reported a request-level failure.
    Remote(String),
    /// The reply opcode did not match the request (client side).
    UnexpectedReply(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadMagic(m) => write!(f, "bad frame magic {m:02x?} (want \"HAMR\")"),
            Self::BadVersion(v) => write!(f, "unsupported protocol version {v} (want {VERSION})"),
            Self::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            Self::PayloadTooLarge(n) => {
                write!(f, "payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte cap")
            }
            Self::Truncated => write!(f, "payload truncated"),
            Self::TrailingBytes => write!(f, "payload has trailing bytes"),
            Self::Malformed(what) => write!(f, "malformed payload: {what}"),
            Self::Dist(e) => write!(f, "invalid distribution data: {e}"),
            Self::Busy => write!(f, "server busy (request queue full)"),
            Self::DeadlineExceeded => write!(f, "deadline exceeded before a reply was produced"),
            Self::ShuttingDown => write!(f, "server is shutting down"),
            Self::Remote(msg) => write!(f, "server error: {msg}"),
            Self::UnexpectedReply(op) => write!(f, "unexpected reply opcode 0x{op:02x}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<DistError> for WireError {
    fn from(e: DistError) -> Self {
        Self::Dist(e)
    }
}

/// One decoded frame: the header fields plus the raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The sender's opaque request token, echoed in replies.
    pub request_id: u64,
    /// Message discriminant.
    pub opcode: u8,
    /// Sender's remaining time budget in milliseconds; 0 = none.
    pub deadline_ms: u32,
    /// 64-bit request-correlation token; 0 = untraced.
    pub trace_id: u64,
    /// Opcode-specific bytes.
    pub payload: Vec<u8>,
}

/// Writes one frame: header plus payload, built in one buffer and
/// handed to the stream in a single `write_all`, then flushed.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame<W: Write>(
    w: &mut W,
    request_id: u64,
    opcode: u8,
    deadline_ms: u32,
    trace_id: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    w.write_all(&encode_frame(
        request_id,
        opcode,
        deadline_ms,
        trace_id,
        payload,
    ))?;
    w.flush()
}

/// One frame's bytes: the header, then `payload` copied in after it.
pub(crate) fn encode_frame(
    request_id: u64,
    opcode: u8,
    deadline_ms: u32,
    trace_id: u64,
    payload: &[u8],
) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize, "oversized payload");
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.push(opcode);
    frame.extend_from_slice(&request_id.to_le_bytes());
    frame.extend_from_slice(&trace_id.to_le_bytes());
    frame.extend_from_slice(&deadline_ms.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Reads one frame. The magic and version are checked before the rest
/// of the header is read, so a peer speaking another version gets
/// [`WireError::BadVersion`] instead of a read stalled on header bytes
/// it never sends.
///
/// # Errors
///
/// [`WireError::Io`] on transport failure (including a clean EOF before
/// the header, which surfaces as `UnexpectedEof`), and the framing
/// variants on a corrupt header.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let (prefix, rest) = header.split_at_mut(6);
    r.read_exact(prefix)?;
    if prefix[0..4] != MAGIC {
        return Err(WireError::BadMagic([
            prefix[0], prefix[1], prefix[2], prefix[3],
        ]));
    }
    let version = u16::from_le_bytes([prefix[4], prefix[5]]);
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    r.read_exact(rest)?;
    let u32_at = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    let u64_at = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    let len = u32_at(27);
    if len > MAX_PAYLOAD {
        return Err(WireError::PayloadTooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Frame {
        request_id: u64_at(7),
        opcode: header[6],
        deadline_ms: u32_at(23),
        trace_id: u64_at(TRACE_ID_OFFSET),
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ping_frame() -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, opcode::PING, 0, 0, b"").unwrap();
        buf
    }

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0xDEAD_BEEF, opcode::PING, 0, 0, b"xyz").unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(
            frame,
            Frame {
                request_id: 0xDEAD_BEEF,
                opcode: opcode::PING,
                deadline_ms: 0,
                trace_id: 0,
                payload: b"xyz".to_vec(),
            }
        );
    }

    #[test]
    fn deadline_round_trips_through_the_full_reader() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, opcode::RECONSTRUCT, 1500, 0, b"pay").unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.request_id, 7);
        assert_eq!(frame.opcode, opcode::RECONSTRUCT);
        assert_eq!(frame.deadline_ms, 1500);
        assert_eq!(frame.trace_id, 0);
        assert_eq!(frame.payload, b"pay");
    }

    #[test]
    fn trace_id_round_trips_through_the_full_reader() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 9, opcode::RECONSTRUCT, 250, 0xFACE_FEED, b"pp").unwrap();
        assert_eq!(buf.len(), HEADER_LEN + 2);
        // The trace id sits at its documented fixed offset.
        let sniffed = u64::from_le_bytes(
            buf[TRACE_ID_OFFSET..TRACE_ID_OFFSET + 8]
                .try_into()
                .unwrap(),
        );
        assert_eq!(sniffed, 0xFACE_FEED);
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(
            frame,
            Frame {
                request_id: 9,
                opcode: opcode::RECONSTRUCT,
                deadline_ms: 250,
                trace_id: 0xFACE_FEED,
                payload: b"pp".to_vec(),
            }
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = ping_frame();
        buf[0] = b'X';
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_version_is_rejected() {
        for version in [1u16, 2, 4, 99] {
            let mut buf = ping_frame();
            buf[4..6].copy_from_slice(&version.to_le_bytes());
            // Only magic + version are present: a v1/v2 peer's shorter
            // header must not leave the reader waiting for more bytes.
            let mut r = &buf[..6];
            let err = read_frame(&mut r).unwrap_err();
            assert!(matches!(err, WireError::BadVersion(v) if v == version));
            assert_eq!(
                err.to_string(),
                format!("unsupported protocol version {version} (want 3)")
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = ping_frame();
        buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::PayloadTooLarge(u32::MAX))
        ));
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, opcode::PING, 0, 0, b"abcdef").unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::Io(_))
        ));
    }
}
