//! Wire protocol: length-prefixed, CRC-checked binary frames.
//!
//! Every frame is laid out as
//!
//! ```text
//! offset  size  field
//!      0     4  magic  = b"STGW"
//!      4     1  version (1 or 2)
//!      5     1  kind    (1 = Request, 2 = Response, 3 = Error)
//!      6     2  reserved (must be 0)
//!      8     4  payload_len (LE; at most MAX_PAYLOAD)
//!     12     N  payload (kind-specific, little-endian fields)
//!   12+N     4  crc32 over bytes [0, 12+N)  — header AND payload
//! ```
//!
//! The CRC covers the header too, so a bit flip anywhere in a frame —
//! including one that turns a Request into a syntactically valid Error —
//! yields a typed [`DecodeError`], never a silent misinterpretation (the
//! corruption suite flips every bit of a frame and asserts this). The CRC is
//! the same IEEE CRC-32 the checkpoint format uses
//! ([`stisan_nn::crc32`]).
//!
//! ## Versions
//!
//! Version 2 extends the v1 payloads with trailing tracing fields: a
//! request may carry a `trace_id` (u64) and a response may echo it back
//! with per-stage server-side timings ([`TraceEcho`]). [`encode`] picks
//! the lowest version that can represent the frame — a frame without
//! tracing fields is emitted as v1 bit-for-bit identical to what a v1
//! peer produces, and error frames are always v1 — so old clients
//! interoperate untouched: a v1 client never receives a v2 frame, and a
//! v2 server decodes both versions. A version this decoder does not
//! speak fails typed ([`DecodeError::BadVersion`] →
//! `UNSUPPORTED_VERSION` on the wire).
//!
//! Encoding and decoding are pure byte-slice functions, testable without a
//! socket; [`read_frame`]/[`write_frame`] adapt them to blocking streams
//! with an allocation bound enforced *before* the payload is read.

use std::fmt;
use std::io::{self, Read, Write};

use stisan_nn::crc32;

/// Frame magic: the first four bytes of every well-formed frame.
pub const MAGIC: [u8; 4] = *b"STGW";
/// The original protocol version: no tracing fields.
pub const VERSION_V1: u8 = 1;
/// Current protocol version: optional trailing tracing fields.
pub const VERSION: u8 = 2;
/// Fixed header size in bytes (magic + version + kind + reserved + len).
pub const HEADER_LEN: usize = 12;
/// Hard upper bound on `payload_len`: a peer can never make the server
/// allocate more than this per frame.
pub const MAX_PAYLOAD: usize = 1 << 20;
/// Upper bound on check-ins per request (well under [`MAX_PAYLOAD`]).
pub const MAX_SEQ_LEN: usize = 4096;
/// Upper bound on requested recommendations.
pub const MAX_K: usize = 1024;

/// One check-in of the request's history, as sent over the wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Visit {
    /// Remapped POI id (`1..=num_pois` on the serving catalogue).
    pub poi: u32,
    /// Check-in timestamp, seconds.
    pub time: f64,
    /// Check-in latitude, degrees (informational; the server scores against
    /// its own catalogue locations).
    pub lat: f64,
    /// Check-in longitude, degrees.
    pub lon: f64,
}

/// A recommendation request frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Remapped user id.
    pub user: u32,
    /// Number of recommendations wanted (`1..=MAX_K`).
    pub k: u16,
    /// Latency budget in milliseconds, measured from admission; `0` means
    /// no deadline. Requests still queued past their budget are answered
    /// with [`ErrorCode::DeadlineExceeded`] instead of being scored.
    pub deadline_ms: u32,
    /// Check-in history, oldest first. Only the most recent `max_len` are
    /// scored (the model's window).
    pub seq: Vec<Visit>,
    /// Trace id to carry through the serving pipeline (v2 field). `None`
    /// encodes as a v1 frame; the server then assigns its own id.
    pub trace_id: Option<u64>,
}

/// Server-side stage timings echoed in a v2 response, all in microseconds
/// since admission (saturating at `u32::MAX` ≈ 71 minutes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEcho {
    /// The trace id the request travelled under (client-supplied or
    /// server-assigned).
    pub trace_id: u64,
    /// Offsets at which the request was enqueued, its batch sealed, its
    /// scores produced, and its response written — admission is 0 by
    /// definition, so four stamps describe all five stages.
    pub stage_us: [u32; 4],
}

impl TraceEcho {
    /// µs from admission to enqueue.
    pub fn enqueued_us(&self) -> u32 {
        self.stage_us[0]
    }
    /// µs from admission to batch seal.
    pub fn batch_sealed_us(&self) -> u32 {
        self.stage_us[1]
    }
    /// µs from admission to scoring completion.
    pub fn scored_us(&self) -> u32 {
        self.stage_us[2]
    }
    /// µs from admission to response write — the server-side total.
    pub fn written_us(&self) -> u32 {
        self.stage_us[3]
    }
    /// Whether the stamps are non-decreasing in pipeline order.
    pub fn is_monotonic(&self) -> bool {
        self.stage_us.windows(2).all(|w| w[0] <= w[1])
    }
}

/// A recommendation response frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Size of the unpruned candidate pool (the full catalogue).
    pub pool: u32,
    /// Candidates actually scored after geo pruning.
    pub scored: u32,
    /// `(poi_id, score)` pairs, best first.
    pub items: Vec<(u32, f32)>,
    /// Trace echo (v2 field). `None` encodes as a v1 frame.
    pub trace: Option<TraceEcho>,
}

/// Typed server-side failure, sent instead of a [`Response`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame failed structural decoding (bad magic/CRC/field). The
    /// connection is closed after this: framing cannot be trusted anymore.
    Malformed = 1,
    /// The frame's version byte is newer than this server speaks.
    UnsupportedVersion = 2,
    /// The frame decoded but its content is invalid for this catalogue
    /// (unknown POI/user id, `k` out of range, empty sequence).
    BadRequest = 3,
    /// The pending queue is full; the request was shed at admission.
    Overloaded = 4,
    /// The request spent longer than its `deadline_ms` in the queue.
    DeadlineExceeded = 5,
    /// The server is draining for shutdown and admits no new requests.
    ShuttingDown = 6,
    /// The serving pipeline dropped the request (worker failure).
    Internal = 7,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::UnsupportedVersion),
            3 => Some(ErrorCode::BadRequest),
            4 => Some(ErrorCode::Overloaded),
            5 => Some(ErrorCode::DeadlineExceeded),
            6 => Some(ErrorCode::ShuttingDown),
            7 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Malformed => "MALFORMED",
            ErrorCode::UnsupportedVersion => "UNSUPPORTED_VERSION",
            ErrorCode::BadRequest => "BAD_REQUEST",
            ErrorCode::Overloaded => "OVERLOADED",
            ErrorCode::DeadlineExceeded => "DEADLINE_EXCEEDED",
            ErrorCode::ShuttingDown => "SHUTTING_DOWN",
            ErrorCode::Internal => "INTERNAL",
        };
        f.write_str(s)
    }
}

/// An error frame: a typed code plus a short human-readable detail.
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorFrame {
    /// What went wrong.
    pub code: ErrorCode,
    /// Free-text detail (bounded by `u16` length on the wire).
    pub message: String,
}

impl ErrorFrame {
    /// Convenience constructor; the message is truncated to `u16` range at
    /// encode time.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ErrorFrame {
        ErrorFrame { code, message: message.into() }
    }
}

/// Any frame of the protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server.
    Request(Request),
    /// Server → client, success.
    Response(Response),
    /// Server → client, typed failure.
    Error(ErrorFrame),
}

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_ERROR: u8 = 3;

/// Why a byte buffer failed to decode as a frame. Decoding never panics;
/// every corruption (truncated, bit-flipped, oversized) maps to one of
/// these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the structure requires.
    Truncated,
    /// The magic bytes are wrong — this is not a gateway frame.
    BadMagic,
    /// The version byte is not one this decoder speaks.
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// The reserved header bytes are non-zero.
    BadReserved,
    /// `payload_len` exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The CRC footer disagrees with the frame bytes.
    CrcMismatch {
        /// CRC stored in the frame footer.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// Structurally valid frame whose payload violates a field constraint.
    Malformed(&'static str),
    /// Bytes left over after the payload parsed completely.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::BadReserved => write!(f, "non-zero reserved header bytes"),
            DecodeError::Oversized(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            DecodeError::CrcMismatch { stored, computed } => {
                write!(f, "crc mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            DecodeError::Malformed(what) => write!(f, "malformed payload: {what}"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decoded fixed header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Protocol version of the frame ([`VERSION_V1`]..=[`VERSION`]).
    pub version: u8,
    /// Frame kind byte (validated against the known kinds).
    pub kind: u8,
    /// Payload length in bytes (validated against [`MAX_PAYLOAD`]).
    pub payload_len: u32,
}

/// Validates the 12-byte fixed header. Used by [`decode`] and by the
/// streaming reader to reject oversized frames *before* allocating.
pub fn decode_header(b: &[u8; HEADER_LEN]) -> Result<Header, DecodeError> {
    if b[0..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = b[4];
    if !(VERSION_V1..=VERSION).contains(&version) {
        return Err(DecodeError::BadVersion(version));
    }
    let kind = b[5];
    if !(KIND_REQUEST..=KIND_ERROR).contains(&kind) {
        return Err(DecodeError::BadKind(kind));
    }
    if b[6] != 0 || b[7] != 0 {
        return Err(DecodeError::BadReserved);
    }
    let payload_len = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
    if payload_len as usize > MAX_PAYLOAD {
        return Err(DecodeError::Oversized(payload_len));
    }
    Ok(Header { version, kind, payload_len })
}

/// Bounds-checked little-endian reader over a payload slice.
struct Reader<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn new(b: &'a [u8]) -> Reader<'a> {
        Reader { b, off: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.off.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.b.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.b[self.off..end];
        self.off = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let s = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(u64::from_le_bytes(a))
    }

    fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        let s = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(f64::from_le_bytes(a))
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.off != self.b.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(())
    }
}

fn put_request(out: &mut Vec<u8>, r: &Request) {
    out.extend_from_slice(&r.user.to_le_bytes());
    out.extend_from_slice(&r.k.to_le_bytes());
    out.extend_from_slice(&r.deadline_ms.to_le_bytes());
    let n = r.seq.len().min(MAX_SEQ_LEN) as u16;
    out.extend_from_slice(&n.to_le_bytes());
    for v in r.seq.iter().take(n as usize) {
        out.extend_from_slice(&v.poi.to_le_bytes());
        out.extend_from_slice(&v.time.to_le_bytes());
        out.extend_from_slice(&v.lat.to_le_bytes());
        out.extend_from_slice(&v.lon.to_le_bytes());
    }
    // v2: trailing trace id. Its presence is what makes the frame v2.
    if let Some(id) = r.trace_id {
        out.extend_from_slice(&id.to_le_bytes());
    }
}

fn decode_request(payload: &[u8], version: u8) -> Result<Request, DecodeError> {
    let mut r = Reader::new(payload);
    let user = r.u32()?;
    let k = r.u16()?;
    let deadline_ms = r.u32()?;
    let n = r.u16()? as usize;
    if n > MAX_SEQ_LEN {
        return Err(DecodeError::Malformed("sequence longer than MAX_SEQ_LEN"));
    }
    let mut seq = Vec::with_capacity(n);
    for _ in 0..n {
        seq.push(Visit { poi: r.u32()?, time: r.f64()?, lat: r.f64()?, lon: r.f64()? });
    }
    let trace_id = if version >= 2 { Some(r.u64()?) } else { None };
    r.finish()?;
    Ok(Request { user, k, deadline_ms, seq, trace_id })
}

fn put_response(out: &mut Vec<u8>, r: &Response) {
    out.extend_from_slice(&r.pool.to_le_bytes());
    out.extend_from_slice(&r.scored.to_le_bytes());
    let n = r.items.len().min(u16::MAX as usize) as u16;
    out.extend_from_slice(&n.to_le_bytes());
    for &(poi, score) in r.items.iter().take(n as usize) {
        out.extend_from_slice(&poi.to_le_bytes());
        out.extend_from_slice(&score.to_bits().to_le_bytes());
    }
    // v2: trailing trace echo.
    if let Some(t) = &r.trace {
        out.extend_from_slice(&t.trace_id.to_le_bytes());
        for us in t.stage_us {
            out.extend_from_slice(&us.to_le_bytes());
        }
    }
}

fn decode_response(payload: &[u8], version: u8) -> Result<Response, DecodeError> {
    let mut r = Reader::new(payload);
    let pool = r.u32()?;
    let scored = r.u32()?;
    let n = r.u16()? as usize;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push((r.u32()?, r.f32()?));
    }
    let trace = if version >= 2 {
        let trace_id = r.u64()?;
        let mut stage_us = [0u32; 4];
        for us in &mut stage_us {
            *us = r.u32()?;
        }
        Some(TraceEcho { trace_id, stage_us })
    } else {
        None
    };
    r.finish()?;
    Ok(Response { pool, scored, items, trace })
}

fn put_error(out: &mut Vec<u8>, e: &ErrorFrame) {
    out.push(e.code as u8);
    let msg = e.message.as_bytes();
    let n = msg.len().min(u16::MAX as usize) as u16;
    out.extend_from_slice(&n.to_le_bytes());
    out.extend_from_slice(&msg[..n as usize]);
}

fn decode_error(payload: &[u8]) -> Result<ErrorFrame, DecodeError> {
    let mut r = Reader::new(payload);
    let code =
        ErrorCode::from_u8(r.u8()?).ok_or(DecodeError::Malformed("unknown error code"))?;
    let n = r.u16()? as usize;
    let bytes = r.take(n)?;
    let message = std::str::from_utf8(bytes)
        .map_err(|_| DecodeError::Malformed("error message is not utf-8"))?
        .to_string();
    r.finish()?;
    Ok(ErrorFrame { code, message })
}

/// Builds one whole frame in a single pass: the header with a placeholder
/// length, the payload written by `body`, the patched length, then the CRC
/// over header and payload. `payload_hint` sizes the buffer up front.
fn build_frame(
    kind: u8,
    version: u8,
    payload_hint: usize,
    body: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload_hint + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&[version, kind, 0, 0, 0, 0, 0, 0]); // reserved + length
    body(&mut out);
    let payload_len = out.len() - HEADER_LEN;
    debug_assert!(payload_len <= MAX_PAYLOAD);
    out[8..HEADER_LEN].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Encodes a request frame straight from a borrowed [`Request`] — what
/// [`encode`] does for `Frame::Request`, without building the `Frame`.
pub fn encode_request(r: &Request) -> Vec<u8> {
    let version = if r.trace_id.is_some() { VERSION } else { VERSION_V1 };
    let hint = 12 + 28 * r.seq.len().min(MAX_SEQ_LEN) + 8;
    build_frame(KIND_REQUEST, version, hint, |out| put_request(out, r))
}

/// Encodes one frame into a fresh byte vector (header + payload + CRC).
/// The version byte is the lowest that can represent the frame: frames
/// without tracing fields (and all error frames) are emitted as v1,
/// bit-for-bit identical to a v1 peer's encoding.
pub fn encode(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Request(r) => encode_request(r),
        Frame::Response(r) => {
            let version = if r.trace.is_some() { VERSION } else { VERSION_V1 };
            let hint = 10 + 8 * r.items.len().min(u16::MAX as usize) + 24;
            build_frame(KIND_RESPONSE, version, hint, |out| put_response(out, r))
        }
        Frame::Error(e) => {
            build_frame(KIND_ERROR, VERSION_V1, 3 + e.message.len(), |out| put_error(out, e))
        }
    }
}

/// Decodes a byte buffer holding exactly one frame. Pure and panic-free:
/// any corruption yields a typed [`DecodeError`].
pub fn decode(bytes: &[u8]) -> Result<Frame, DecodeError> {
    if bytes.len() < HEADER_LEN + 4 {
        return Err(DecodeError::Truncated);
    }
    let mut hb = [0u8; HEADER_LEN];
    hb.copy_from_slice(&bytes[..HEADER_LEN]);
    let header = decode_header(&hb)?;
    let body_end = HEADER_LEN + header.payload_len as usize;
    match bytes.len().cmp(&(body_end + 4)) {
        std::cmp::Ordering::Less => return Err(DecodeError::Truncated),
        std::cmp::Ordering::Greater => return Err(DecodeError::TrailingBytes),
        std::cmp::Ordering::Equal => {}
    }
    let stored = u32::from_le_bytes([
        bytes[body_end],
        bytes[body_end + 1],
        bytes[body_end + 2],
        bytes[body_end + 3],
    ]);
    let computed = crc32(&bytes[..body_end]);
    if stored != computed {
        return Err(DecodeError::CrcMismatch { stored, computed });
    }
    let payload = &bytes[HEADER_LEN..body_end];
    match header.kind {
        KIND_REQUEST => Ok(Frame::Request(decode_request(payload, header.version)?)),
        KIND_RESPONSE => Ok(Frame::Response(decode_response(payload, header.version)?)),
        KIND_ERROR => Ok(Frame::Error(decode_error(payload)?)),
        k => Err(DecodeError::BadKind(k)),
    }
}

/// Why a stream read failed to produce a frame.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// The transport failed (includes timeouts, resets, mid-frame EOF).
    Io(io::Error),
    /// The bytes arrived but are not a valid frame.
    Decode(DecodeError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Eof => write!(f, "connection closed"),
            ReadError::Io(e) => write!(f, "io error: {e}"),
            ReadError::Decode(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

impl From<DecodeError> for ReadError {
    fn from(e: DecodeError) -> ReadError {
        ReadError::Decode(e)
    }
}

/// Reads exactly one frame from a blocking stream. The header is validated
/// before the payload buffer is allocated, so a hostile length field cannot
/// force a large allocation. A clean EOF before the first header byte maps
/// to [`ReadError::Eof`]; EOF mid-frame is an [`ReadError::Io`] error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ReadError> {
    let mut hb = [0u8; HEADER_LEN];
    // First byte distinguishes clean close from mid-frame truncation.
    let mut got = 0usize;
    while got < hb.len() {
        let n = r.read(&mut hb[got..])?;
        if n == 0 {
            if got == 0 {
                return Err(ReadError::Eof);
            }
            return Err(ReadError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof inside frame header",
            )));
        }
        got += n;
    }
    let header = decode_header(&hb)?;
    let rest_len = header.payload_len as usize + 4;
    let mut buf = Vec::with_capacity(HEADER_LEN + rest_len);
    buf.extend_from_slice(&hb);
    buf.resize(HEADER_LEN + rest_len, 0);
    r.read_exact(&mut buf[HEADER_LEN..])?;
    Ok(decode(&buf)?)
}

/// Encodes and writes one frame to a blocking stream.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let bytes = encode(frame);
    w.write_all(&bytes)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Frame {
        Frame::Request(Request {
            user: 7,
            k: 10,
            deadline_ms: 250,
            seq: vec![
                Visit { poi: 3, time: 1_000.0, lat: 30.25, lon: -97.75 },
                Visit { poi: 9, time: 2_000.5, lat: 30.26, lon: -97.74 },
            ],
            trace_id: None,
        })
    }

    fn traced_request(trace_id: u64) -> Frame {
        let Frame::Request(mut r) = sample_request() else { unreachable!() };
        r.trace_id = Some(trace_id);
        Frame::Request(r)
    }

    #[test]
    fn roundtrip_all_kinds() {
        let frames = [
            sample_request(),
            traced_request(0xDEAD_BEEF_CAFE_F00D),
            Frame::Response(Response {
                pool: 500,
                scored: 120,
                items: vec![(4, 1.5), (2, 1.5), (9, -0.25)],
                trace: None,
            }),
            Frame::Response(Response {
                pool: 500,
                scored: 120,
                items: vec![(4, 1.5)],
                trace: Some(TraceEcho { trace_id: 99, stage_us: [10, 250, 900, 950] }),
            }),
            Frame::Error(ErrorFrame::new(ErrorCode::Overloaded, "queue full")),
        ];
        for f in &frames {
            let bytes = encode(f);
            assert_eq!(&decode(&bytes).unwrap(), f);
        }
    }

    #[test]
    fn version_byte_tracks_content() {
        // Untraced frames and errors are v1 on the wire; traced are v2.
        assert_eq!(encode(&sample_request())[4], VERSION_V1);
        assert_eq!(encode(&traced_request(1))[4], VERSION);
        let untraced =
            Frame::Response(Response { pool: 1, scored: 1, items: vec![], trace: None });
        assert_eq!(encode(&untraced)[4], VERSION_V1);
        let traced = Frame::Response(Response {
            pool: 1,
            scored: 1,
            items: vec![],
            trace: Some(TraceEcho { trace_id: 5, stage_us: [0, 0, 0, 0] }),
        });
        assert_eq!(encode(&traced)[4], VERSION);
        let err = Frame::Error(ErrorFrame::new(ErrorCode::Malformed, "x"));
        assert_eq!(encode(&err)[4], VERSION_V1);
    }

    #[test]
    fn version_payload_mismatches_are_typed() {
        // A v2 header on a v1-sized request payload: the missing trace id
        // reads as Truncated. (CRC is recomputed so only the version
        // mismatch is under test.)
        let mut bytes = encode(&sample_request());
        bytes[4] = VERSION;
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&bytes), Err(DecodeError::Truncated));

        // A v1 header on a v2-sized payload: the trailing 8 bytes are junk.
        let mut bytes = encode(&traced_request(42));
        bytes[4] = VERSION_V1;
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&bytes), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn trace_echo_monotonicity_helper() {
        let ok = TraceEcho { trace_id: 1, stage_us: [5, 5, 80, 81] };
        assert!(ok.is_monotonic());
        assert_eq!((ok.enqueued_us(), ok.written_us()), (5, 81));
        let bad = TraceEcho { trace_id: 1, stage_us: [5, 4, 80, 81] };
        assert!(!bad.is_monotonic());
    }

    #[test]
    fn empty_sequence_and_empty_items_roundtrip() {
        let req =
            Frame::Request(Request { user: 0, k: 1, deadline_ms: 0, seq: vec![], trace_id: None });
        assert_eq!(decode(&encode(&req)).unwrap(), req);
        let resp = Frame::Response(Response { pool: 0, scored: 0, items: vec![], trace: None });
        assert_eq!(decode(&encode(&resp)).unwrap(), resp);
        // A traced request with an empty history is still v2.
        let req2 = Frame::Request(Request {
            user: 0,
            k: 1,
            deadline_ms: 0,
            seq: vec![],
            trace_id: Some(3),
        });
        assert_eq!(decode(&encode(&req2)).unwrap(), req2);
    }

    #[test]
    fn header_rejections() {
        let good = encode(&sample_request());
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(decode(&bad_magic), Err(DecodeError::BadMagic));

        let mut bad_version = good.clone();
        bad_version[4] = VERSION + 1;
        assert_eq!(decode(&bad_version), Err(DecodeError::BadVersion(VERSION + 1)));

        let mut bad_kind = good.clone();
        bad_kind[5] = 77;
        assert_eq!(decode(&bad_kind), Err(DecodeError::BadKind(77)));

        let mut bad_reserved = good.clone();
        bad_reserved[6] = 1;
        assert_eq!(decode(&bad_reserved), Err(DecodeError::BadReserved));

        let mut oversized = good.clone();
        oversized[8..12].copy_from_slice(&((MAX_PAYLOAD as u32) + 1).to_le_bytes());
        assert_eq!(decode(&oversized), Err(DecodeError::Oversized(MAX_PAYLOAD as u32 + 1)));
    }

    #[test]
    fn crc_catches_payload_flip() {
        let mut bytes = encode(&sample_request());
        let payload_byte = HEADER_LEN + 2;
        bytes[payload_byte] ^= 0x10;
        assert!(matches!(decode(&bytes), Err(DecodeError::CrcMismatch { .. })));
    }

    #[test]
    fn length_mismatches_are_typed() {
        let bytes = encode(&sample_request());
        assert_eq!(decode(&bytes[..bytes.len() - 1]), Err(DecodeError::Truncated));
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(decode(&longer), Err(DecodeError::TrailingBytes));
        assert_eq!(decode(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn stream_read_write_roundtrip_and_eof() {
        let f1 = sample_request();
        let f2 = Frame::Error(ErrorFrame::new(ErrorCode::Internal, "x"));
        let mut buf = Vec::new();
        write_frame(&mut buf, &f1).unwrap();
        write_frame(&mut buf, &f2).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), f1);
        assert_eq!(read_frame(&mut cursor).unwrap(), f2);
        assert!(matches!(read_frame(&mut cursor), Err(ReadError::Eof)));
    }

    #[test]
    fn stream_read_rejects_oversized_before_allocating() {
        let mut bytes = encode(&sample_request());
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ReadError::Decode(DecodeError::Oversized(u32::MAX)))
        ));
    }
}
