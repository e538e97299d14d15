//! The wire protocol: tiny, length-prefixed, binary.
//!
//! Every message on a connection is one **frame**:
//!
//! ```text
//! +----------------+-----+------------------------+
//! | len: u32 LE    | tag | body (len - 1 bytes)   |
//! +----------------+-----+------------------------+
//! ```
//!
//! `len` counts the tag byte plus the body, so an empty-body frame has
//! `len == 1`. All integers are little-endian. Keys and values are raw
//! byte strings with explicit length prefixes and hard caps
//! ([`MAX_KEY_LEN`], [`MAX_VALUE_LEN`]); a frame whose declared `len`
//! exceeds [`MAX_FRAME_LEN`] is rejected *before* any allocation, so a
//! corrupt or adversarial length prefix cannot balloon memory.
//!
//! | tag | frame | body |
//! |-----|-------|------|
//! | 1 | [`Frame::Get`]    | `req_id: u32`, `tenant: u16`, `key_len: u16`, key |
//! | 2 | [`Frame::Put`]    | `req_id: u32`, `tenant: u16`, `key_len: u16`, key, `value_len: u32`, value |
//! | 3 | [`Frame::Reply`]  | `req_id: u32`, `latency: u32`, `value_len: u32`, value |
//! | 4 | [`Frame::Reject`] | `req_id: u32`, `cause: u8` |
//! | 5 | [`Frame::Ping`]   | `nonce: u64` |
//!
//! Decoding is **total**: any byte sequence produces either a frame, a
//! "need more bytes" signal, or a typed [`DecodeError`] — never a panic
//! and never an out-of-bounds read (`tests/proto_roundtrip.rs` sweeps
//! truncations and corruptions of every frame type to pin this).
//!
//! Every length on the wire is read by one private cursor call that
//! checks it against its cap before anything is sliced or allocated by
//! it, and returns only what passed: the capped bytes of a key or
//! value, or a frame's capped length. No raw wire length leaves the
//! cursor, so no caller can size an allocation or a slice by one.
//! `proto_roundtrip` runs under a 64 MiB address-space limit in CI,
//! where a buffer sized by an unchecked length aborts the run.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects
)]

/// Hard cap on a key, in bytes.
pub const MAX_KEY_LEN: usize = 128;

/// Hard cap on a value, in bytes.
pub const MAX_VALUE_LEN: usize = 4096;

/// Hard cap on one frame's `len` field (tag + body). Derived from the
/// largest legal frame (a max-key max-value put) plus its fixed fields,
/// rounded up; anything larger is a corrupt or hostile length prefix.
pub const MAX_FRAME_LEN: usize = 1 + 4 + 2 + 2 + MAX_KEY_LEN + 4 + MAX_VALUE_LEN;

/// Why a request was refused (the body of a [`Frame::Reject`]).
///
/// The first five variants mirror the engine's
/// [`rlb_core::RejectReason`] causes one-to-one; the rest are
/// serve-layer causes that never reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCause {
    /// The routing policy declined the request.
    Policy,
    /// Delayed cuckoo routing's table-failure event.
    TableFailed,
    /// The chosen replica's queue class was full.
    Overflow,
    /// Dropped by a voluntary queue flush after acceptance.
    Flush,
    /// The chosen (or only) replica server is down.
    ServerDown,
    /// The admission gate refused the request: the cluster's bounded
    /// backlog (queued plus reply-pending work) is at its limit.
    Admission,
    /// The request arrived on a session whose byte stream failed to
    /// decode; the session is closed after this frame.
    Malformed,
    /// The server is shutting down and no longer admits requests.
    Shutdown,
}

/// All causes, in wire-tag order (`cause.code()` indexes this table).
pub const REJECT_CAUSES: [RejectCause; 8] = [
    RejectCause::Policy,
    RejectCause::TableFailed,
    RejectCause::Overflow,
    RejectCause::Flush,
    RejectCause::ServerDown,
    RejectCause::Admission,
    RejectCause::Malformed,
    RejectCause::Shutdown,
];

impl RejectCause {
    /// Short stable name (used in transcripts and reports).
    pub fn name(self) -> &'static str {
        match self {
            RejectCause::Policy => "policy",
            RejectCause::TableFailed => "table",
            RejectCause::Overflow => "overflow",
            RejectCause::Flush => "flush",
            RejectCause::ServerDown => "down",
            RejectCause::Admission => "admission",
            RejectCause::Malformed => "malformed",
            RejectCause::Shutdown => "shutdown",
        }
    }

    /// The wire byte for this cause (its index in [`REJECT_CAUSES`]).
    pub fn code(self) -> u8 {
        match self {
            RejectCause::Policy => 0,
            RejectCause::TableFailed => 1,
            RejectCause::Overflow => 2,
            RejectCause::Flush => 3,
            RejectCause::ServerDown => 4,
            RejectCause::Admission => 5,
            RejectCause::Malformed => 6,
            RejectCause::Shutdown => 7,
        }
    }

    /// The engine cause behind a reject, mapped onto the wire enum.
    pub(crate) fn from_engine(reason: rlb_core::RejectReason) -> Self {
        match reason {
            rlb_core::RejectReason::Policy => RejectCause::Policy,
            rlb_core::RejectReason::TableFailed => RejectCause::TableFailed,
            rlb_core::RejectReason::Overflow => RejectCause::Overflow,
            rlb_core::RejectReason::Flush => RejectCause::Flush,
            rlb_core::RejectReason::ServerDown => RejectCause::ServerDown,
        }
    }
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: read `key` on behalf of `tenant`.
    Get {
        /// Client-assigned correlation id, echoed in the response.
        req_id: u32,
        /// Tenant the request is accounted to.
        tenant: u16,
        /// Key bytes (`<= MAX_KEY_LEN`).
        key: Vec<u8>,
    },
    /// Client → server: write `value` under `key`.
    Put {
        /// Client-assigned correlation id, echoed in the response.
        req_id: u32,
        /// Tenant the request is accounted to.
        tenant: u16,
        /// Key bytes (`<= MAX_KEY_LEN`).
        key: Vec<u8>,
        /// Value bytes (`<= MAX_VALUE_LEN`).
        value: Vec<u8>,
    },
    /// Server → client: the request completed.
    Reply {
        /// The request's correlation id.
        req_id: u32,
        /// Modeled service latency in engine steps (virtual ticks).
        latency: u32,
        /// For a get: the stored value (empty if the key is unset).
        /// For a put: empty.
        value: Vec<u8>,
    },
    /// Server → client: the request was refused.
    Reject {
        /// The request's correlation id (0 for session-level rejects).
        req_id: u32,
        /// Why.
        cause: RejectCause,
    },
    /// Liveness probe; the server echoes it back verbatim.
    Ping {
        /// Opaque correlation payload.
        nonce: u64,
    },
}

/// A typed decode failure. Every variant names what was wrong and
/// where, so transports can log it and sessions can be closed with a
/// [`RejectCause::Malformed`] instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLong {
        /// The declared length.
        declared: usize,
    },
    /// The length prefix says `len == 0` (a frame has at least a tag).
    EmptyFrame,
    /// The tag byte names no known frame type.
    BadTag(u8),
    /// A reject frame carries an out-of-range cause byte.
    BadCause(u8),
    /// The body ended before a declared field (the *frame* is complete
    /// per its length prefix, but its internal lengths overrun it).
    Truncated {
        /// The frame tag being decoded.
        tag: u8,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes remaining in the body.
        had: usize,
    },
    /// A key length field exceeds [`MAX_KEY_LEN`].
    KeyTooLong(usize),
    /// A value length field exceeds [`MAX_VALUE_LEN`].
    ValueTooLong(usize),
    /// The body had bytes left over after the last field.
    TrailingBytes {
        /// The frame tag being decoded.
        tag: u8,
        /// How many bytes were left.
        extra: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::FrameTooLong { declared } => {
                write!(f, "frame length {declared} exceeds max {MAX_FRAME_LEN}")
            }
            DecodeError::EmptyFrame => write!(f, "zero-length frame"),
            DecodeError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            DecodeError::BadCause(c) => write!(f, "unknown reject cause {c}"),
            DecodeError::Truncated { tag, needed, had } => {
                write!(
                    f,
                    "frame tag {tag}: field needs {needed} bytes, body has {had}"
                )
            }
            DecodeError::KeyTooLong(n) => write!(f, "key length {n} exceeds max {MAX_KEY_LEN}"),
            DecodeError::ValueTooLong(n) => {
                write!(f, "value length {n} exceeds max {MAX_VALUE_LEN}")
            }
            DecodeError::TrailingBytes { tag, extra } => {
                write!(
                    f,
                    "frame tag {tag}: {extra} trailing bytes after last field"
                )
            }
        }
    }
}

impl Frame {
    /// The wire tag.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Get { .. } => 1,
            Frame::Put { .. } => 2,
            Frame::Reply { .. } => 3,
            Frame::Reject { .. } => 4,
            Frame::Ping { .. } => 5,
        }
    }

    /// Appends the full frame (length prefix included) to `out`.
    ///
    /// # Panics
    /// Panics if a key or value exceeds its cap — encoding oversized
    /// frames is a caller bug, not a runtime condition (decode-side
    /// violations are typed errors instead).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]); // length back-patched below
        out.push(self.tag());
        match self {
            Frame::Get {
                req_id,
                tenant,
                key,
            } => {
                assert!(key.len() <= MAX_KEY_LEN, "key exceeds MAX_KEY_LEN");
                out.extend_from_slice(&req_id.to_le_bytes());
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&len_u16(key).to_le_bytes());
                out.extend_from_slice(key);
            }
            Frame::Put {
                req_id,
                tenant,
                key,
                value,
            } => {
                assert!(key.len() <= MAX_KEY_LEN, "key exceeds MAX_KEY_LEN");
                assert!(value.len() <= MAX_VALUE_LEN, "value exceeds MAX_VALUE_LEN");
                out.extend_from_slice(&req_id.to_le_bytes());
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&len_u16(key).to_le_bytes());
                out.extend_from_slice(key);
                out.extend_from_slice(&len_u32(value).to_le_bytes());
                out.extend_from_slice(value);
            }
            Frame::Reply {
                req_id,
                latency,
                value,
            } => {
                assert!(value.len() <= MAX_VALUE_LEN, "value exceeds MAX_VALUE_LEN");
                out.extend_from_slice(&req_id.to_le_bytes());
                out.extend_from_slice(&latency.to_le_bytes());
                out.extend_from_slice(&len_u32(value).to_le_bytes());
                out.extend_from_slice(value);
            }
            Frame::Reject { req_id, cause } => {
                out.extend_from_slice(&req_id.to_le_bytes());
                out.push(cause.code());
            }
            Frame::Ping { nonce } => {
                out.extend_from_slice(&nonce.to_le_bytes());
            }
        }
        // Both subtractions are structurally safe (the prefix and tag
        // were pushed above), but the encoder stays total anyway: a
        // saturated zero length fails loudly at decode as EmptyFrame
        // instead of corrupting the stream framing.
        let body_len = out.len().saturating_sub(start).saturating_sub(4);
        debug_assert!(
            body_len <= MAX_FRAME_LEN,
            "encoded frame exceeds MAX_FRAME_LEN"
        );
        let len = u32::try_from(body_len).unwrap_or(u32::MAX);
        if let Some(slot) = out.get_mut(start..start.saturating_add(4)) {
            slot.copy_from_slice(&len.to_le_bytes());
        }
    }

    /// Encodes into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes one frame *body* (tag byte + fields, length prefix
    /// already stripped and validated by [`FrameReader`]).
    pub fn decode_body(body: &[u8]) -> Result<Frame, DecodeError> {
        let mut cur = Cursor { buf: body, at: 0 };
        let tag = cur.u8(0)?;
        let frame = match tag {
            1 => Frame::Get {
                req_id: cur.u32(tag)?,
                tenant: cur.u16(tag)?,
                key: cur.key(tag)?,
            },
            2 => Frame::Put {
                req_id: cur.u32(tag)?,
                tenant: cur.u16(tag)?,
                key: cur.key(tag)?,
                value: cur.value(tag)?,
            },
            3 => Frame::Reply {
                req_id: cur.u32(tag)?,
                latency: cur.u32(tag)?,
                value: cur.value(tag)?,
            },
            4 => {
                let req_id = cur.u32(tag)?;
                let cause_byte = cur.u8(tag)?;
                let cause = *REJECT_CAUSES
                    .get(cause_byte as usize)
                    .ok_or(DecodeError::BadCause(cause_byte))?;
                Frame::Reject { req_id, cause }
            }
            5 => {
                let nonce = cur.u64(tag)?;
                Frame::Ping { nonce }
            }
            other => return Err(DecodeError::BadTag(other)),
        };
        if cur.at != body.len() {
            return Err(DecodeError::TrailingBytes {
                tag,
                extra: body.len().saturating_sub(cur.at),
            });
        }
        Ok(frame)
    }
}

/// Encode-side length field helpers: the caller asserted the cap, so
/// these never actually saturate; saturating keeps the encoder total
/// without an `as` truncation.
fn len_u16(bytes: &[u8]) -> u16 {
    u16::try_from(bytes.len()).unwrap_or(u16::MAX)
}

fn len_u32(bytes: &[u8]) -> u32 {
    u32::try_from(bytes.len()).unwrap_or(u32::MAX)
}

/// Bounds-checked field reader over a frame body. Every accessor is
/// total: the cursor never indexes, slices, or does bare arithmetic on
/// attacker-controlled lengths. A length prefix is read only by
/// [`Cursor::key`], [`Cursor::value`] and [`Cursor::frame_len`], which
/// check it against its cap before they act on it.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn bytes(&mut self, tag: u8, n: usize) -> Result<&[u8], DecodeError> {
        let had = self.buf.len().saturating_sub(self.at);
        let (end, overflow) = self.at.overflowing_add(n);
        if had < n || overflow {
            return Err(DecodeError::Truncated {
                tag,
                needed: n,
                had,
            });
        }
        let out = self.buf.get(self.at..end).unwrap_or(&[]);
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self, tag: u8) -> Result<u8, DecodeError> {
        Ok(self.bytes(tag, 1)?.first().copied().unwrap_or(0))
    }

    fn u16(&mut self, tag: u8) -> Result<u16, DecodeError> {
        let b: [u8; 2] = self.bytes(tag, 2)?.try_into().unwrap_or([0; 2]);
        Ok(u16::from_le_bytes(b))
    }

    fn u32(&mut self, tag: u8) -> Result<u32, DecodeError> {
        let b: [u8; 4] = self.bytes(tag, 4)?.try_into().unwrap_or([0; 4]);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, tag: u8) -> Result<u64, DecodeError> {
        let b: [u8; 8] = self.bytes(tag, 8)?.try_into().unwrap_or([0; 8]);
        Ok(u64::from_le_bytes(b))
    }

    /// A key: a `u16` length, then the bytes it counts.
    fn key(&mut self, tag: u8) -> Result<Vec<u8>, DecodeError> {
        let prefix = |c: &mut Self| c.u16(tag).map(u32::from);
        self.counted(tag, prefix, MAX_KEY_LEN, DecodeError::KeyTooLong)
    }

    /// A value: a `u32` length, then the bytes it counts.
    fn value(&mut self, tag: u8) -> Result<Vec<u8>, DecodeError> {
        let prefix = |c: &mut Self| c.u32(tag);
        self.counted(tag, prefix, MAX_VALUE_LEN, DecodeError::ValueTooLong)
    }

    /// Reads a field's length with `prefix`, then the bytes it counts,
    /// taken only once the length is within `cap`. The one place a key
    /// or value length is held before its cap is checked.
    fn counted(
        &mut self,
        tag: u8,
        prefix: impl FnOnce(&mut Self) -> Result<u32, DecodeError>,
        cap: usize,
        too_long: fn(usize) -> DecodeError,
    ) -> Result<Vec<u8>, DecodeError> {
        let n = usize::try_from(prefix(self)?).unwrap_or(usize::MAX);
        if n > cap {
            return Err(too_long(n));
        }
        Ok(self.bytes(tag, n)?.to_vec())
    }

    /// A frame's length prefix, once it is neither 0 nor past
    /// [`MAX_FRAME_LEN`].
    fn frame_len(&mut self) -> Result<usize, DecodeError> {
        let declared = usize::try_from(self.u32(0)?).unwrap_or(usize::MAX);
        if declared == 0 {
            return Err(DecodeError::EmptyFrame);
        }
        if declared > MAX_FRAME_LEN {
            return Err(DecodeError::FrameTooLong { declared });
        }
        Ok(declared)
    }
}

/// The first frame of a byte slice, as far as the slice goes.
enum Split<'a> {
    /// A whole frame: its body (tag + fields) and the bytes after it.
    Whole(&'a [u8], &'a [u8]),
    /// Not whole yet: the frame's length, prefix included, or 4 while
    /// the prefix itself is short.
    Short(usize),
}

/// Splits the first frame off `bytes`. The length prefix is checked as
/// soon as its fourth byte is there, before any of the body is looked
/// at, so a hostile prefix fails without the reader keeping its body.
fn split_frame(bytes: &[u8]) -> Result<Split<'_>, DecodeError> {
    let Some(prefix) = bytes.first_chunk::<4>() else {
        return Ok(Split::Short(4));
    };
    let len = Cursor { buf: prefix, at: 0 }.frame_len()?;
    // len <= MAX_FRAME_LEN, so the prefix+body total can't overflow
    // usize.
    let total = len.saturating_add(4);
    match (bytes.get(4..total), bytes.get(total..)) {
        (Some(body), Some(rest)) => Ok(Split::Whole(body, rest)),
        _ => Ok(Split::Short(total)),
    }
}

/// Incremental frame reassembly over an arbitrary byte stream.
///
/// Push bytes in whatever fragments the transport delivers; drain the
/// decoded frames. `push` decodes every whole frame straight from the
/// pushed slice and copies only an incomplete trailing frame, so the
/// reader never holds more than `3 + MAX_FRAME_LEN` undecoded bytes. A
/// [`DecodeError`] is terminal for the stream: the reader makes no
/// attempt to resynchronize (callers close the session), keeps no more
/// input, and reports the same error on every later drain.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// The leading bytes of one incomplete frame, prefix first.
    partial: Vec<u8>,
    /// Frames decoded and not yet drained.
    ready: Vec<Frame>,
    /// The stream's decode error, once it has one.
    error: Option<DecodeError>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds raw transport bytes: decodes every frame they complete and
    /// keeps the bytes of the one they leave incomplete.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.decode_from(bytes) {
            self.error = Some(e);
            self.partial.clear();
        }
    }

    fn decode_from(&mut self, mut bytes: &[u8]) -> Result<(), DecodeError> {
        // Top up a partial frame with only the bytes it still lacks:
        // first its prefix, then the body that prefix declares.
        while !self.partial.is_empty() {
            match split_frame(&self.partial)? {
                Split::Whole(body, _) => {
                    self.ready.push(Frame::decode_body(body)?);
                    self.partial.clear();
                }
                Split::Short(total) => {
                    let missing = total.saturating_sub(self.partial.len());
                    let Some((head, rest)) = bytes.split_at_checked(missing) else {
                        self.partial.extend_from_slice(bytes);
                        return Ok(());
                    };
                    self.partial.extend_from_slice(head);
                    bytes = rest;
                }
            }
        }
        loop {
            match split_frame(bytes)? {
                Split::Whole(body, rest) => {
                    self.ready.push(Frame::decode_body(body)?);
                    bytes = rest;
                }
                Split::Short(_) => {
                    self.partial.extend_from_slice(bytes);
                    return Ok(());
                }
            }
        }
    }

    /// Bytes buffered but not yet decoded into frames.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }

    /// Takes every frame decoded so far.
    ///
    /// On a decode error, returns the frames decoded before it together
    /// with the error, and the error alone on every call after that.
    pub fn drain(&mut self) -> (Vec<Frame>, Option<DecodeError>) {
        (std::mem::take(&mut self.ready), self.error.clone())
    }
}

/// Stable single-line rendering of a frame for transcripts (keys and
/// values render as lowercase hex so arbitrary bytes stay printable and
/// byte-for-byte reproducible).
pub fn fmt_frame(frame: &Frame) -> String {
    fn hex(bytes: &[u8]) -> String {
        let mut s = String::with_capacity(bytes.len().saturating_mul(2));
        for b in bytes {
            use std::fmt::Write as _;
            let _ = write!(s, "{b:02x}");
        }
        s
    }
    match frame {
        Frame::Get {
            req_id,
            tenant,
            key,
        } => {
            format!("get id={req_id} tn={tenant} key={}", hex(key))
        }
        Frame::Put {
            req_id,
            tenant,
            key,
            value,
        } => format!(
            "put id={req_id} tn={tenant} key={} vlen={}",
            hex(key),
            value.len()
        ),
        Frame::Reply {
            req_id,
            latency,
            value,
        } => format!("reply id={req_id} lat={latency} vlen={}", value.len()),
        Frame::Reject { req_id, cause } => {
            format!("reject id={req_id} cause={}", cause.name())
        }
        Frame::Ping { nonce } => format!("ping nonce={nonce}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = frame.to_bytes();
        let mut r = FrameReader::new();
        r.push(&bytes);
        assert_eq!(r.drain(), (vec![frame], None));
        assert_eq!(r.pending(), 0);
        assert_eq!(r.drain(), (vec![], None));
    }

    #[test]
    fn every_frame_type_round_trips() {
        roundtrip(Frame::Get {
            req_id: 7,
            tenant: 3,
            key: b"hello".to_vec(),
        });
        roundtrip(Frame::Put {
            req_id: 8,
            tenant: 0,
            key: vec![0xff; MAX_KEY_LEN],
            value: vec![0xab; MAX_VALUE_LEN],
        });
        roundtrip(Frame::Reply {
            req_id: 9,
            latency: 42,
            value: b"v".to_vec(),
        });
        for cause in REJECT_CAUSES {
            roundtrip(Frame::Reject { req_id: 10, cause });
        }
        roundtrip(Frame::Ping { nonce: u64::MAX });
    }

    #[test]
    fn fragmented_delivery_reassembles() {
        let frames = [
            Frame::Get {
                req_id: 1,
                tenant: 0,
                key: b"k1".to_vec(),
            },
            Frame::Ping { nonce: 5 },
            Frame::Reply {
                req_id: 1,
                latency: 2,
                value: b"abc".to_vec(),
            },
        ];
        let mut stream = Vec::new();
        for f in &frames {
            f.encode(&mut stream);
        }
        // Deliver one byte at a time.
        let mut r = FrameReader::new();
        let mut got = Vec::new();
        for b in &stream {
            r.push(std::slice::from_ref(b));
            let (mut frames, err) = r.drain();
            assert_eq!(err, None);
            got.append(&mut frames);
        }
        assert_eq!(got.as_slice(), &frames);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut r = FrameReader::new();
        r.push(&(u32::MAX).to_le_bytes());
        assert_eq!(
            r.drain(),
            (
                vec![],
                Some(DecodeError::FrameTooLong {
                    declared: u32::MAX as usize
                })
            )
        );
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn zero_length_frame_is_an_error() {
        let mut r = FrameReader::new();
        r.push(&0u32.to_le_bytes());
        assert_eq!(r.drain(), (vec![], Some(DecodeError::EmptyFrame)));
    }

    #[test]
    fn bad_tag_and_bad_cause_are_typed() {
        assert_eq!(Frame::decode_body(&[99]), Err(DecodeError::BadTag(99)));
        // Reject with cause byte out of range.
        let mut body = vec![4u8];
        body.extend_from_slice(&0u32.to_le_bytes());
        body.push(200);
        assert_eq!(Frame::decode_body(&body), Err(DecodeError::BadCause(200)));
    }

    #[test]
    fn oversized_key_and_value_are_typed() {
        // Get with key_len > MAX_KEY_LEN.
        let mut body = vec![1u8];
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&0u16.to_le_bytes());
        body.extend_from_slice(&(MAX_KEY_LEN as u16 + 1).to_le_bytes());
        assert_eq!(
            Frame::decode_body(&body),
            Err(DecodeError::KeyTooLong(MAX_KEY_LEN + 1))
        );
        // Reply with value_len > MAX_VALUE_LEN.
        let mut body = vec![3u8];
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&(MAX_VALUE_LEN as u32 + 1).to_le_bytes());
        assert_eq!(
            Frame::decode_body(&body),
            Err(DecodeError::ValueTooLong(MAX_VALUE_LEN + 1))
        );
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let mut bytes = Frame::Ping { nonce: 1 }.to_bytes();
        // Grow the body by one byte and patch the length prefix.
        bytes.push(0);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        let mut r = FrameReader::new();
        r.push(&bytes);
        assert_eq!(
            r.drain(),
            (
                vec![],
                Some(DecodeError::TrailingBytes { tag: 5, extra: 1 })
            )
        );
    }

    #[test]
    fn formatting_is_stable() {
        let f = Frame::Get {
            req_id: 3,
            tenant: 1,
            key: vec![0xde, 0xad],
        };
        assert_eq!(fmt_frame(&f), "get id=3 tn=1 key=dead");
        let r = Frame::Reject {
            req_id: 4,
            cause: RejectCause::Admission,
        };
        assert_eq!(fmt_frame(&r), "reject id=4 cause=admission");
    }
}
