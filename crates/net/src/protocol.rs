//! The wire protocol: hand-rolled, versioned, checksummed,
//! length-prefixed binary frames (the workspace's serde shim is a
//! no-op, so serialization is explicit).
//!
//! # Frame layout
//!
//! ```text
//! length  4 B   LE u32 — byte count of everything after this prefix
//!               (type byte through checksum, inclusive); capped at
//!               MAX_FRAME_BYTES so a garbage prefix cannot make the
//!               reader allocate unbounded memory
//! type    1 B   frame discriminant (see below)
//! body    …     type-specific fields, all little-endian
//! check   8 B   FNV-1a 64 over type + body (LE u64)
//! ```
//!
//! | type | frame       | body                                                         |
//! |------|-------------|--------------------------------------------------------------|
//! | 1    | Hello       | magic `MGNP` (4 B), version u16                              |
//! | 2    | HelloAck    | version u16, gate count u32, then per gate: name len u16 + UTF-8, input count u8, word width u8, waveguide u64, lane u16 |
//! | 3    | Submit      | tag u64, gate u32, lane flag u8 (0/1), [lane u16], operand count u8, then per operand: width u8, bits u64 |
//! | 4    | Response    | tag u64, width u8, bits u64                                  |
//! | 5    | Error       | tag u64, code u8 ([`WireErrorCode`]), message len u16 + UTF-8 |
//! | 6    | RetryAfter  | tag u64, shard u32, hint µs u32 (1..=u32::MAX)               |
//!
//! Any truncation, length overrun, checksum mismatch, unknown type tag
//! or out-of-range field fails decoding with [`NetError::Protocol`];
//! the server answers one diagnostic error frame and closes that
//! connection without affecting others.
//!
//! # Version history
//!
//! * **v2** — the FDM revision: the hello-ack directory advertises each
//!   gate's waveguide id and frequency lane, and submit frames may pin
//!   an expected lane (the server rejects a mismatch with
//!   [`WireErrorCode::LaneMismatch`] instead of silently serving a
//!   repatterned gate). v1 peers are rejected at the hello; v1-shaped
//!   submit/hello-ack bodies fail decoding outright (the lane fields
//!   make them under- or over-long).
//! * **v1** — initial protocol (PR 4).

use crate::error::{NetError, WireErrorCode};
use magnon_core::word::Word;
use std::io::{Read, Write};
use std::time::Duration;

/// Magic the client opens its [`Frame::Hello`] with.
pub const NET_MAGIC: [u8; 4] = *b"MGNP";

/// Current protocol version (v2: FDM lanes in the directory and on
/// submit frames).
pub const NET_VERSION: u16 = 2;

/// Upper bound on the length prefix: no legal frame comes close (the
/// largest is a HelloAck for a big gate directory), and rejecting here
/// keeps a garbage prefix from turning into a huge allocation.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Most operand words one submit may carry (the gate models cap `m` at
/// 16 inputs).
pub const MAX_OPERANDS: usize = 16;

const MAX_NAME_BYTES: usize = 1024;
const MAX_MESSAGE_BYTES: usize = 512;

/// One gate in the server's directory, as advertised by the hello-ack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateInfo {
    /// Registration name.
    pub name: String,
    /// Operand words per request.
    pub input_count: u8,
    /// Channel count / word width.
    pub word_width: u8,
    /// The physical waveguide the gate is patterned on. Gates sharing
    /// a waveguide on distinct lanes serve concurrently via FDM.
    pub waveguide: u64,
    /// The gate's frequency lane on that waveguide.
    pub lane: u16,
}

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server, first frame on a connection.
    Hello {
        /// The client's protocol version.
        version: u16,
    },
    /// Server → client, answers the hello with the gate directory.
    HelloAck {
        /// The server's protocol version.
        version: u16,
        /// Registered gates, indexed by their wire id (position).
        gates: Vec<GateInfo>,
    },
    /// Client → server: evaluate `operands` on gate `gate`.
    Submit {
        /// Client-chosen tag echoed on the completion (out-of-order
        /// delivery is the norm).
        tag: u64,
        /// Index into the hello-ack gate directory.
        gate: u32,
        /// Optional frequency-lane pin: when set, the server verifies
        /// the target gate still occupies this lane and answers
        /// [`WireErrorCode::LaneMismatch`] otherwise — a guard against
        /// serving through a repatterned directory slot.
        lane: Option<u16>,
        /// The operand words.
        operands: Vec<Word>,
    },
    /// Server → client: the evaluation's output word.
    Response {
        /// The submit's tag.
        tag: u64,
        /// The decoded output word.
        word: Word,
    },
    /// Server → client: the request (or the connection, for `tag` 0
    /// handshake/framing problems) failed.
    Error {
        /// The submit's tag (0 when no request is attributable).
        tag: u64,
        /// Machine-readable failure class.
        code: WireErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Server → client: the scheduler queue is full; re-submit after
    /// the hint. This is how [`magnon_serve::ServeError::QueueFull`]
    /// backpressure propagates to the wire instead of stalling the
    /// connection's reader.
    RetryAfter {
        /// The refused submit's tag.
        tag: u64,
        /// The shard whose queue was full.
        shard: u32,
        /// Suggested backoff before re-submitting. The wire field is a
        /// u32 microsecond count: encoding clamps to
        /// `1..=u32::MAX` µs (hints beyond ~71.6 minutes saturate;
        /// sub-microsecond hints round up to 1 µs so a zero-length
        /// hint can never tell a client to retry immediately in a hot
        /// loop), and decoding rejects a zero hint as a protocol
        /// violation.
        hint: Duration,
    },
}

impl Frame {
    /// Serializes the frame, length prefix and checksum included.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64);
        match self {
            Frame::Hello { version } => {
                body.push(1);
                body.extend_from_slice(&NET_MAGIC);
                body.extend_from_slice(&version.to_le_bytes());
            }
            Frame::HelloAck { version, gates } => {
                body.push(2);
                body.extend_from_slice(&version.to_le_bytes());
                body.extend_from_slice(&(gates.len() as u32).to_le_bytes());
                for gate in gates {
                    let name = truncate_utf8(&gate.name, MAX_NAME_BYTES);
                    body.extend_from_slice(&(name.len() as u16).to_le_bytes());
                    body.extend_from_slice(name.as_bytes());
                    body.push(gate.input_count);
                    body.push(gate.word_width);
                    body.extend_from_slice(&gate.waveguide.to_le_bytes());
                    body.extend_from_slice(&gate.lane.to_le_bytes());
                }
            }
            Frame::Submit {
                tag,
                gate,
                lane,
                operands,
            } => {
                body.push(3);
                body.extend_from_slice(&tag.to_le_bytes());
                body.extend_from_slice(&gate.to_le_bytes());
                match lane {
                    Some(lane) => {
                        body.push(1);
                        body.extend_from_slice(&lane.to_le_bytes());
                    }
                    None => body.push(0),
                }
                body.push(operands.len() as u8);
                for word in operands {
                    body.push(word.width() as u8);
                    body.extend_from_slice(&word.bits().to_le_bytes());
                }
            }
            Frame::Response { tag, word } => {
                body.push(4);
                body.extend_from_slice(&tag.to_le_bytes());
                body.push(word.width() as u8);
                body.extend_from_slice(&word.bits().to_le_bytes());
            }
            Frame::Error { tag, code, message } => {
                body.push(5);
                body.extend_from_slice(&tag.to_le_bytes());
                body.push(*code as u8);
                let msg = truncate_utf8(message, MAX_MESSAGE_BYTES);
                body.extend_from_slice(&(msg.len() as u16).to_le_bytes());
                body.extend_from_slice(msg.as_bytes());
            }
            Frame::RetryAfter { tag, shard, hint } => {
                body.push(6);
                body.extend_from_slice(&tag.to_le_bytes());
                body.extend_from_slice(&shard.to_le_bytes());
                // Clamp into the wire range 1..=u32::MAX µs: hints past
                // ~71.6 min saturate, and a zero-length hint rounds up
                // to 1 µs — the decoder treats a literal zero as a
                // protocol violation, so both ends agree it never
                // appears on the wire.
                let micros = hint.as_micros().clamp(1, u32::MAX as u128) as u32;
                body.extend_from_slice(&micros.to_le_bytes());
            }
        }
        let checksum = fnv1a(&body);
        let mut frame = Vec::with_capacity(4 + body.len() + 8);
        frame.extend_from_slice(&((body.len() + 8) as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&checksum.to_le_bytes());
        frame
    }

    /// Decodes one frame payload (the bytes *after* the length prefix:
    /// type + body + checksum).
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] for any malformed input.
    pub fn decode(payload: &[u8]) -> Result<Self, NetError> {
        // Checked splits all the way down: this is the path raw peer
        // bytes walk, so a malformed frame must become an error value,
        // never a panicking index.
        let Some((body, check)) = payload.split_last_chunk::<8>() else {
            return Err(NetError::protocol("frame shorter than type + checksum"));
        };
        let stored = u64::from_le_bytes(*check);
        if stored != fnv1a(body) {
            return Err(NetError::protocol("frame checksum mismatch"));
        }
        let Some((&frame_type, fields)) = body.split_first() else {
            return Err(NetError::protocol("frame shorter than type + checksum"));
        };
        let mut r = Cursor::new(fields);
        let frame = match frame_type {
            1 => {
                let magic = r.take(4)?;
                if magic != NET_MAGIC {
                    return Err(NetError::protocol("hello carries the wrong magic"));
                }
                Frame::Hello { version: r.u16()? }
            }
            2 => {
                let version = r.u16()?;
                let count = r.u32()? as usize;
                let mut gates = Vec::new();
                for _ in 0..count {
                    let name_len = r.u16()? as usize;
                    if name_len > MAX_NAME_BYTES {
                        return Err(NetError::protocol("gate name too long"));
                    }
                    let name = String::from_utf8(r.take(name_len)?.to_vec())
                        .map_err(|_| NetError::protocol("gate name is not UTF-8"))?;
                    let input_count = r.u8()?;
                    let word_width = r.u8()?;
                    let waveguide = r.u64()?;
                    let lane = r.u16()?;
                    gates.push(GateInfo {
                        name,
                        input_count,
                        word_width,
                        waveguide,
                        lane,
                    });
                }
                Frame::HelloAck { version, gates }
            }
            3 => {
                let tag = r.u64()?;
                let gate = r.u32()?;
                let lane = match r.u8()? {
                    0 => None,
                    1 => Some(r.u16()?),
                    flag => {
                        return Err(NetError::protocol(format!(
                            "submit lane flag must be 0 or 1, got {flag}"
                        )))
                    }
                };
                let count = r.u8()? as usize;
                if count == 0 || count > MAX_OPERANDS {
                    return Err(NetError::protocol(format!(
                        "operand count {count} outside 1..={MAX_OPERANDS}"
                    )));
                }
                let mut operands = Vec::with_capacity(count);
                for _ in 0..count {
                    operands.push(r.word()?);
                }
                Frame::Submit {
                    tag,
                    gate,
                    lane,
                    operands,
                }
            }
            4 => {
                let tag = r.u64()?;
                let word = r.word()?;
                Frame::Response { tag, word }
            }
            5 => {
                let tag = r.u64()?;
                let code = WireErrorCode::from_byte(r.u8()?)
                    .ok_or_else(|| NetError::protocol("unknown error code"))?;
                let len = r.u16()? as usize;
                if len > MAX_MESSAGE_BYTES {
                    return Err(NetError::protocol("error message too long"));
                }
                let message = String::from_utf8(r.take(len)?.to_vec())
                    .map_err(|_| NetError::protocol("error message is not UTF-8"))?;
                Frame::Error { tag, code, message }
            }
            6 => {
                let tag = r.u64()?;
                let shard = r.u32()?;
                let micros = r.u32()?;
                if micros == 0 {
                    // A zero hint would have clients retrying in a hot
                    // loop; the encoder never emits one (it clamps to
                    // ≥ 1 µs), so reject it like any other
                    // out-of-range field. The cap is u32::MAX µs —
                    // longer encoder-side hints arrive saturated, not
                    // wrapped.
                    return Err(NetError::protocol("zero-length retry-after hint"));
                }
                let hint = Duration::from_micros(micros as u64);
                Frame::RetryAfter { tag, shard, hint }
            }
            tag => return Err(NetError::protocol(format!("unknown frame type {tag}"))),
        };
        if r.remaining() != 0 {
            return Err(NetError::protocol("trailing bytes inside frame"));
        }
        Ok(frame)
    }
}

/// Writes one frame to `w` (no flush — callers batch pipelined submits
/// and flush before blocking on a read).
///
/// # Errors
///
/// [`NetError::Io`] when the write fails.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), NetError> {
    w.write_all(&frame.encode())
        .map_err(|e| NetError::io("write frame", e))
}

/// Reads one length-prefixed frame from `r` in a single shot.
///
/// Convenience for callers that own a blocking stream with no read
/// timeout (tests, probes). Streams with a read timeout must use
/// [`FrameReader`]: this function loses already-consumed bytes when a
/// timeout fires mid-frame.
///
/// # Errors
///
/// * [`NetError::Io`] for socket failures (including EOF mid-frame and
///   read timeouts — callers distinguish via `source.kind()`).
/// * [`NetError::Protocol`] for an oversized or undersized length
///   prefix and any decoding failure.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, NetError> {
    FrameReader::new().read_frame(r)
}

const MIN_FRAME_BYTES: usize = 1 + 8; // type byte + checksum

/// Resumable frame decoder: buffers partial reads internally, so a
/// `WouldBlock`/`TimedOut` between TCP segments preserves every byte
/// already consumed and the next call picks up mid-frame. Both the
/// server's connection readers and the client use one of these per
/// stream — retrying a bare [`read_frame`] after a timeout would lose
/// sync instead.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Payload length parsed from a complete prefix, once known.
    frame_len: Option<usize>,
}

impl FrameReader {
    /// A reader with no buffered bytes.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Reads until one whole frame is buffered, then decodes it.
    ///
    /// # Errors
    ///
    /// * [`NetError::Io`] for socket failures. A timeout
    ///   (`WouldBlock`/`TimedOut`) is resumable — call again with the
    ///   same reader. EOF with an empty buffer is a clean close
    ///   (`UnexpectedEof`); EOF with buffered bytes is a
    ///   [`NetError::Protocol`] violation (the peer quit mid-frame).
    /// * [`NetError::Protocol`] for a bad length prefix or any
    ///   decoding failure.
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<Frame, NetError> {
        loop {
            if self.frame_len.is_none() {
                if let Some(prefix) = self.buf.first_chunk::<4>() {
                    let len = u32::from_le_bytes(*prefix) as usize;
                    if !(MIN_FRAME_BYTES..=MAX_FRAME_BYTES).contains(&len) {
                        return Err(NetError::protocol(format!(
                            "frame length {len} outside {MIN_FRAME_BYTES}..={MAX_FRAME_BYTES}"
                        )));
                    }
                    self.frame_len = Some(len);
                }
            }
            if let Some(len) = self.frame_len {
                if let Some(payload) = self.buf.get(4..4 + len) {
                    let frame = Frame::decode(payload)?;
                    self.buf.drain(..4 + len);
                    self.frame_len = None;
                    return Ok(frame);
                }
            }
            let mut chunk = [0u8; 4096];
            match r.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.is_empty() {
                        return Err(NetError::io(
                            "read frame",
                            std::io::Error::new(
                                std::io::ErrorKind::UnexpectedEof,
                                "connection closed",
                            ),
                        ));
                    }
                    return Err(NetError::protocol(
                        "connection closed mid-frame (truncated frame)",
                    ));
                }
                // A conforming `Read` never returns more than the
                // buffer holds; the checked take keeps a broken one
                // from panicking this connection's thread.
                Ok(n) => self.buf.extend_from_slice(chunk.get(..n).unwrap_or(&chunk)),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::io("read frame", e)),
            }
        }
    }
}

/// Cuts `s` to at most `max` bytes on a char boundary.
fn truncate_utf8(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    s.get(..end).unwrap_or("")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Bounds-checked cursor over a frame body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let truncated = || NetError::protocol("unexpected end of frame");
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or_else(truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// `take(N)` as a fixed-size array, for the integer decoders. The
    /// conversion cannot fail after a successful take; the error arm
    /// exists so the decode path holds no panicking conversions.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], NetError> {
        self.take(N)?
            .try_into()
            .map_err(|_| NetError::protocol("unexpected end of frame"))
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        let [byte] = self.array::<1>()?;
        Ok(byte)
    }

    fn u16(&mut self) -> Result<u16, NetError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A wire word: width byte + bits. Strict — bits above the declared
    /// width are rejected here rather than silently truncated
    /// ([`Word::from_bits`] masks; the wire must not), so a corrupted
    /// operand cannot quietly evaluate to something plausible.
    fn word(&mut self) -> Result<Word, NetError> {
        let width = self.u8()? as usize;
        let bits = self.u64()?;
        if width < 64 && bits >> width != 0 {
            return Err(NetError::protocol(format!(
                "bad word on the wire: bits 0x{bits:X} overflow the declared {width}-bit width"
            )));
        }
        Word::from_bits(bits, width)
            .map_err(|e| NetError::protocol(format!("bad word on the wire: {e}")))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let encoded = frame.encode();
        let len = u32::from_le_bytes(encoded[..4].try_into().unwrap()) as usize;
        assert_eq!(len, encoded.len() - 4);
        assert_eq!(Frame::decode(&encoded[4..]).unwrap(), frame);
        // And through the streaming path.
        let mut cursor = std::io::Cursor::new(&encoded);
        assert_eq!(read_frame(&mut cursor).unwrap(), frame);
    }

    #[test]
    fn every_frame_type_roundtrips() {
        roundtrip(Frame::Hello {
            version: NET_VERSION,
        });
        roundtrip(Frame::HelloAck {
            version: NET_VERSION,
            gates: vec![
                GateInfo {
                    name: "maj3_w8_0".into(),
                    input_count: 3,
                    word_width: 8,
                    waveguide: 0,
                    lane: 0,
                },
                GateInfo {
                    name: "xor2_w8_0_lane1".into(),
                    input_count: 2,
                    word_width: 8,
                    waveguide: 0,
                    lane: 1,
                },
            ],
        });
        roundtrip(Frame::Submit {
            tag: 0xDEAD_BEEF,
            gate: 1,
            lane: None,
            operands: vec![Word::from_u8(0x5A), Word::from_bits(0x1FFF, 16).unwrap()],
        });
        roundtrip(Frame::Submit {
            tag: 0xDEAD_BEF0,
            gate: 1,
            lane: Some(3),
            operands: vec![Word::from_u8(0x5A)],
        });
        roundtrip(Frame::Response {
            tag: 7,
            word: Word::from_bits(u64::MAX, 64).unwrap(),
        });
        roundtrip(Frame::Error {
            tag: 9,
            code: WireErrorCode::Gate,
            message: "gate expects 3 input words, got 1".into(),
        });
        roundtrip(Frame::RetryAfter {
            tag: 3,
            shard: 1,
            hint: Duration::from_micros(250),
        });
    }

    #[test]
    fn corruption_truncation_and_garbage_are_rejected() {
        let good = Frame::Submit {
            tag: 1,
            gate: 0,
            lane: None,
            operands: vec![Word::from_u8(1), Word::from_u8(2), Word::from_u8(3)],
        }
        .encode();
        // Flip one payload byte: checksum catches it.
        let mut bad = good.clone();
        bad[9] ^= 0xFF;
        assert!(Frame::decode(&bad[4..]).is_err());
        // Truncated payload: EOF mid-frame is a framing violation.
        let mut cursor = std::io::Cursor::new(&good[..good.len() - 3]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::Protocol { reason }) if reason.contains("mid-frame")
        ));
        // Length prefix larger than the cap.
        let mut oversized = good.clone();
        oversized[..4].copy_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(&oversized);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::Protocol { .. })
        ));
        // Length prefix too small to hold type + checksum.
        let mut tiny = good.clone();
        tiny[..4].copy_from_slice(&3u32.to_le_bytes());
        let mut cursor = std::io::Cursor::new(&tiny);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::Protocol { .. })
        ));
        // Unknown frame type (re-checksummed so only the type is bad).
        let mut body = good[4..good.len() - 8].to_vec();
        body[0] = 42;
        let mut retagged = body.clone();
        retagged.extend_from_slice(&fnv1a(&body).to_le_bytes());
        assert!(matches!(
            Frame::decode(&retagged),
            Err(NetError::Protocol { reason }) if reason.contains("unknown frame type")
        ));
        // Plain garbage (an HTTP request, say) fails the checksum.
        let garbage = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n";
        assert!(Frame::decode(garbage).is_err());
    }

    #[test]
    fn out_of_range_fields_are_rejected() {
        // A word whose bits overflow its width.
        let mut body = vec![4u8]; // Response
        body.extend_from_slice(&1u64.to_le_bytes());
        body.push(4); // width 4…
        body.extend_from_slice(&0xFFu64.to_le_bytes()); // …but 8 bits set
        let mut payload = body.clone();
        payload.extend_from_slice(&fnv1a(&body).to_le_bytes());
        assert!(matches!(
            Frame::decode(&payload),
            Err(NetError::Protocol { reason }) if reason.contains("bad word")
        ));
        // Zero operands.
        let mut body = vec![3u8];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.push(0); // lane flag: none
        body.push(0); // operand count 0
        let mut payload = body.clone();
        payload.extend_from_slice(&fnv1a(&body).to_le_bytes());
        assert!(Frame::decode(&payload).is_err());
        // Hello with the wrong magic.
        let mut body = vec![1u8];
        body.extend_from_slice(b"HTTP");
        body.extend_from_slice(&NET_VERSION.to_le_bytes());
        let mut payload = body.clone();
        payload.extend_from_slice(&fnv1a(&body).to_le_bytes());
        assert!(matches!(
            Frame::decode(&payload),
            Err(NetError::Protocol { reason }) if reason.contains("magic")
        ));
        // Trailing bytes inside an otherwise valid frame.
        let good = Frame::Hello {
            version: NET_VERSION,
        }
        .encode();
        let mut body = good[4..good.len() - 8].to_vec();
        body.push(0);
        let mut payload = body.clone();
        payload.extend_from_slice(&fnv1a(&body).to_le_bytes());
        assert!(matches!(
            Frame::decode(&payload),
            Err(NetError::Protocol { reason }) if reason.contains("trailing")
        ));
    }

    #[test]
    fn retry_after_hints_saturate_and_reject_zero() {
        // Exactly at the cap: round-trips unchanged.
        roundtrip(Frame::RetryAfter {
            tag: 1,
            shard: 0,
            hint: Duration::from_micros(u32::MAX as u64),
        });
        // Beyond the cap: encoding saturates to u32::MAX µs instead of
        // wrapping (one µs past the boundary and a huge hint both land
        // on the cap).
        for big in [
            Duration::from_micros(u32::MAX as u64 + 1),
            Duration::from_secs(86_400),
        ] {
            let encoded = Frame::RetryAfter {
                tag: 2,
                shard: 0,
                hint: big,
            }
            .encode();
            match Frame::decode(&encoded[4..]).unwrap() {
                Frame::RetryAfter { hint, .. } => {
                    assert_eq!(hint, Duration::from_micros(u32::MAX as u64));
                }
                other => panic!("expected RetryAfter, got {other:?}"),
            }
        }
        // A zero-length hint never reaches the wire: encode rounds it
        // up to 1 µs…
        let encoded = Frame::RetryAfter {
            tag: 3,
            shard: 0,
            hint: Duration::ZERO,
        }
        .encode();
        match Frame::decode(&encoded[4..]).unwrap() {
            Frame::RetryAfter { hint, .. } => assert_eq!(hint, Duration::from_micros(1)),
            other => panic!("expected RetryAfter, got {other:?}"),
        }
        // …and a crafted zero hint is rejected by decode.
        let mut body = vec![6u8];
        body.extend_from_slice(&3u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        let mut payload = body.clone();
        payload.extend_from_slice(&fnv1a(&body).to_le_bytes());
        assert!(matches!(
            Frame::decode(&payload),
            Err(NetError::Protocol { reason }) if reason.contains("zero-length")
        ));
    }

    #[test]
    fn v1_shaped_submit_frames_are_rejected() {
        // A protocol-v1 submit had no lane flag: tag, gate, operand
        // count, operands. Re-checksummed so only the layout is old.
        let mut body = vec![3u8];
        body.extend_from_slice(&9u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.push(3); // v1 operand count — v2 reads this as a lane flag
        for byte in [1u8, 2, 3] {
            body.push(8);
            body.extend_from_slice(&(byte as u64).to_le_bytes());
        }
        let mut payload = body.clone();
        payload.extend_from_slice(&fnv1a(&body).to_le_bytes());
        assert!(matches!(
            Frame::decode(&payload),
            Err(NetError::Protocol { reason }) if reason.contains("lane flag")
        ));
        // And a malformed v2 lane flag is rejected the same way.
        let mut body = vec![3u8];
        body.extend_from_slice(&9u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.push(2); // invalid flag
        body.push(1);
        body.push(8);
        body.extend_from_slice(&1u64.to_le_bytes());
        let mut payload = body.clone();
        payload.extend_from_slice(&fnv1a(&body).to_le_bytes());
        assert!(Frame::decode(&payload).is_err());
    }

    /// Yields one byte per read, with a `WouldBlock` before every byte
    /// — the worst-case slow link for a resumable reader.
    struct Trickle {
        bytes: Vec<u8>,
        pos: usize,
        ready: bool,
    }

    impl std::io::Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.bytes.len() {
                return Ok(0);
            }
            if !self.ready {
                self.ready = true;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.ready = false;
            buf[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_resumes_across_timeouts_and_split_reads() {
        let frame = Frame::Submit {
            tag: 77,
            gate: 2,
            lane: Some(1),
            operands: vec![Word::from_u8(1), Word::from_u8(2), Word::from_u8(3)],
        };
        let mut trickle = Trickle {
            bytes: frame.encode(),
            pos: 0,
            ready: false,
        };
        let mut reader = FrameReader::new();
        // Every other call times out mid-frame; the buffered prefix
        // bytes must survive so the stream never desyncs.
        let decoded = loop {
            match reader.read_frame(&mut trickle) {
                Ok(frame) => break frame,
                Err(NetError::Io { source, .. })
                    if source.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("resumable read must not fail: {e}"),
            }
        };
        assert_eq!(decoded, frame);
    }

    #[test]
    fn frame_reader_separates_pipelined_frames_and_flags_mid_frame_eof() {
        let a = Frame::Response {
            tag: 1,
            word: Word::from_u8(0xAB),
        };
        let b = Frame::RetryAfter {
            tag: 2,
            shard: 0,
            hint: Duration::from_micros(50),
        };
        // Both frames plus a truncated third arrive in one burst.
        let mut bytes = a.encode();
        bytes.extend_from_slice(&b.encode());
        let truncated = Frame::Response {
            tag: 3,
            word: Word::from_u8(0xCD),
        }
        .encode();
        bytes.extend_from_slice(&truncated[..truncated.len() - 4]);
        let mut cursor = std::io::Cursor::new(bytes);
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_frame(&mut cursor).unwrap(), a);
        assert_eq!(reader.read_frame(&mut cursor).unwrap(), b);
        // EOF with a partial frame buffered is a protocol violation…
        assert!(matches!(
            reader.read_frame(&mut cursor),
            Err(NetError::Protocol { reason }) if reason.contains("mid-frame")
        ));
        // …while EOF at a frame boundary is a clean close.
        let mut clean = std::io::Cursor::new(a.encode());
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_frame(&mut clean).unwrap(), a);
        assert!(matches!(
            reader.read_frame(&mut clean),
            Err(NetError::Io { source, .. })
                if source.kind() == std::io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn long_error_messages_truncate_on_char_boundaries() {
        let frame = Frame::Error {
            tag: 0,
            code: WireErrorCode::Protocol,
            message: "é".repeat(600), // 1200 bytes of 2-byte chars
        };
        let encoded = frame.encode();
        match Frame::decode(&encoded[4..]).unwrap() {
            Frame::Error { message, .. } => {
                assert!(message.len() <= MAX_MESSAGE_BYTES);
                assert!(message.chars().all(|c| c == 'é'));
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }
}
