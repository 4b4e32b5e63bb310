//! The wire protocol: framing, opcodes, and request/response/answer
//! encodings over the little-endian [`wnrs_storage`] codec.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! [u32 payload length, little-endian][payload bytes]
//! ```
//!
//! A request payload is `[u64 request id][u8 opcode][body]`; a response
//! payload is `[u64 request id][u8 opcode][u8 status][body]` (the
//! opcode is echoed so responses are self-describing). The full
//! byte-level specification, with worked examples, lives in
//! `docs/SERVING.md`.
//!
//! Decoding is total: malformed input — truncated frames, oversized
//! lengths, unknown opcodes, non-finite coordinates, inverted
//! rectangles, hostile list counts — returns a typed [`ProtoError`]
//! and never panics.
//!
//! ## Round-trip example
//!
//! ```
//! use wnrs_geometry::Point;
//! use wnrs_server::proto::{self, Request};
//!
//! let req = Request::Rsl { q: Point::xy(8.5, 55.0) };
//! let frame = proto::encode_request(7, &req).expect("encodable");
//! // [4-byte length][8-byte id][1-byte opcode][query point]
//! assert_eq!(frame.len(), 4 + 8 + 1 + (4 + 2 * 8));
//! let (id, decoded) = proto::decode_request(&frame[4..]).expect("decodable");
//! assert_eq!(id, 7);
//! assert_eq!(decoded, req);
//! ```

use std::fmt;
use std::io::{Read, Write};
use wnrs_core::{Candidate, MwqCase, Question};
use wnrs_geometry::{Point, Region};
use wnrs_rtree::ItemId;
use wnrs_storage::codec::CodecError;
use wnrs_storage::{Decoder, Encoder};

/// Hard ceiling on one frame's payload length (4 MiB). A peer
/// announcing more is answered with [`ProtoError::FrameTooLarge`] and
/// disconnected before any allocation happens.
pub const MAX_FRAME_LEN: u32 = 4 << 20;

/// Maximum point dimensionality accepted off the wire.
pub const MAX_DIM: u32 = 64;

/// Protocol version byte reserved in `docs/SERVING.md`; bump on any
/// incompatible wire change.
pub const PROTO_VERSION: u8 = 1;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong encoding, decoding, or transporting a
/// frame. Decode paths return these instead of panicking, keeping the
/// server total on hostile input.
#[derive(Debug)]
pub enum ProtoError {
    /// The payload ended before a fixed-width field (wraps the storage
    /// codec's typed overflow).
    Codec(CodecError),
    /// A frame header announced more than [`MAX_FRAME_LEN`] bytes.
    FrameTooLarge {
        /// Announced payload length.
        len: u32,
        /// The ceiling it exceeded.
        max: u32,
    },
    /// Unknown request opcode byte.
    BadOpcode(u8),
    /// Unknown response status byte.
    BadStatus(u8),
    /// Unknown customer-tag byte.
    BadCustomerTag(u8),
    /// Unknown MWQ case byte.
    BadCase(u8),
    /// A boolean field held something other than 0 or 1.
    BadBool(u8),
    /// A point dimensionality outside `1..=`[`MAX_DIM`].
    BadDim(u32),
    /// A point coordinate was NaN or infinite.
    NonFinite,
    /// A rectangle whose low corner exceeds its high corner, or whose
    /// corners disagree in dimensionality.
    BadRect,
    /// A list count that cannot fit in the bytes that follow it.
    BadCount {
        /// The announced element count.
        count: u32,
        /// Payload bytes actually remaining.
        remaining: usize,
    },
    /// Bytes left over after a complete message was decoded.
    TrailingBytes {
        /// How many bytes trailed the message.
        remaining: usize,
    },
    /// An error-message field was not valid UTF-8.
    BadUtf8,
    /// The underlying stream failed (or closed mid-frame).
    Io(std::io::Error),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Codec(e) => write!(f, "truncated payload: {e}"),
            ProtoError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            ProtoError::BadOpcode(b) => write!(f, "unknown opcode byte 0x{b:02x}"),
            ProtoError::BadStatus(b) => write!(f, "unknown status byte 0x{b:02x}"),
            ProtoError::BadCustomerTag(b) => write!(f, "unknown customer tag 0x{b:02x}"),
            ProtoError::BadCase(b) => write!(f, "unknown MWQ case byte 0x{b:02x}"),
            ProtoError::BadBool(b) => write!(f, "boolean field holds 0x{b:02x}"),
            ProtoError::BadDim(d) => {
                write!(f, "point dimensionality {d} outside 1..={MAX_DIM}")
            }
            ProtoError::NonFinite => write!(f, "non-finite point coordinate"),
            ProtoError::BadRect => write!(f, "malformed rectangle"),
            ProtoError::BadCount { count, remaining } => {
                write!(
                    f,
                    "list count {count} cannot fit in {remaining} remaining bytes"
                )
            }
            ProtoError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete message")
            }
            ProtoError::BadUtf8 => write!(f, "error message is not valid UTF-8"),
            ProtoError::Io(e) => write!(f, "stream error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        ProtoError::Codec(e)
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Opcodes, statuses, messages
// ---------------------------------------------------------------------------

/// How a request names the why-not customer (tag byte 0, 1 or 2 on the
/// wire).
pub use wnrs_core::Customer;

/// Request opcodes, one per serving operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; empty body, empty answer.
    Ping = 0,
    /// Reverse skyline of a query point.
    Rsl = 1,
    /// Aspect 1: the culprit products keeping a customer out of `RSL(q)`.
    Explain = 2,
    /// Algorithm 1: minimum-cost why-not point modifications.
    Mwp = 3,
    /// Algorithm 2: minimum-cost query point modifications.
    Mqp = 4,
    /// Algorithm 3: the safe region of `q`.
    SafeRegion = 5,
    /// Algorithm 4: modify both the query and the why-not point.
    Mwq = 6,
    /// Insert a product tuple (in-memory engines only).
    Insert = 7,
    /// Delete a product tuple by id (in-memory engines only).
    Delete = 8,
    /// Begin graceful shutdown; acknowledged, then the server drains.
    Shutdown = 9,
}

impl Opcode {
    /// Decodes an opcode byte.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadOpcode`] on an unknown byte.
    pub fn from_byte(b: u8) -> Result<Opcode, ProtoError> {
        Ok(match b {
            0 => Opcode::Ping,
            1 => Opcode::Rsl,
            2 => Opcode::Explain,
            3 => Opcode::Mwp,
            4 => Opcode::Mqp,
            5 => Opcode::SafeRegion,
            6 => Opcode::Mwq,
            7 => Opcode::Insert,
            8 => Opcode::Delete,
            9 => Opcode::Shutdown,
            other => return Err(ProtoError::BadOpcode(other)),
        })
    }

    /// The stable lower-case name (used in spans and CLI flags).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Opcode::Ping => "ping",
            Opcode::Rsl => "rsl",
            Opcode::Explain => "explain",
            Opcode::Mwp => "mwp",
            Opcode::Mqp => "mqp",
            Opcode::SafeRegion => "safe-region",
            Opcode::Mwq => "mwq",
            Opcode::Insert => "insert",
            Opcode::Delete => "delete",
            Opcode::Shutdown => "shutdown",
        }
    }
}

/// Non-`Ok` response statuses. Overload and deadline rejections are
/// first-class protocol citizens: admission control never silently
/// drops a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ErrorKind {
    /// The bounded request queue (or connection cap) was full; retry
    /// with backoff.
    Overload = 1,
    /// The request aged past the per-request deadline while queued.
    DeadlineExceeded = 2,
    /// The request was structurally valid but semantically wrong
    /// (unknown id, dimension mismatch, malformed body).
    BadRequest = 3,
    /// The operation is not available on this engine mode (e.g. writes
    /// against a paged read-only index).
    Unsupported = 4,
    /// The server is draining; no new requests are admitted.
    ShuttingDown = 5,
    /// The engine failed internally (e.g. a page read error).
    Internal = 6,
}

impl ErrorKind {
    fn from_byte(b: u8) -> Result<ErrorKind, ProtoError> {
        Ok(match b {
            1 => ErrorKind::Overload,
            2 => ErrorKind::DeadlineExceeded,
            3 => ErrorKind::BadRequest,
            4 => ErrorKind::Unsupported,
            5 => ErrorKind::ShuttingDown,
            6 => ErrorKind::Internal,
            other => return Err(ProtoError::BadStatus(other)),
        })
    }

    /// The stable lower-case name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            ErrorKind::Overload => "overload",
            ErrorKind::DeadlineExceeded => "deadline-exceeded",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// `RSL(q)`.
    Rsl {
        /// The query point.
        q: Point,
    },
    /// Why is `customer` missing from `RSL(q)`?
    Explain {
        /// The why-not customer.
        customer: Customer,
        /// The query point.
        q: Point,
    },
    /// Algorithm 1 for `customer`.
    Mwp {
        /// The why-not customer.
        customer: Customer,
        /// The query point.
        q: Point,
    },
    /// Algorithm 2 for `customer`.
    Mqp {
        /// The why-not customer.
        customer: Customer,
        /// The query point.
        q: Point,
    },
    /// Algorithm 3: the safe region of `q`.
    SafeRegion {
        /// The query point.
        q: Point,
    },
    /// Algorithm 4 for `customer` (safe region computed server-side).
    Mwq {
        /// The why-not customer.
        customer: Customer,
        /// The query point.
        q: Point,
    },
    /// Insert a product tuple.
    Insert {
        /// The new product's location.
        point: Point,
    },
    /// Delete a product tuple.
    Delete {
        /// The tuple to delete.
        id: ItemId,
    },
    /// Begin graceful shutdown.
    Shutdown,
}

impl From<Question> for Request {
    /// The request asking `question`. The wire carries no sample size:
    /// a server answers safe-region and MWQ requests with the region
    /// its own configuration names.
    fn from(question: Question) -> Request {
        match question {
            Question::Rsl { q } => Request::Rsl { q },
            Question::Explain { customer, q } => Request::Explain { customer, q },
            Question::Mwp { customer, q } => Request::Mwp { customer, q },
            Question::Mqp { customer, q } => Request::Mqp { customer, q },
            Question::SafeRegion { q, .. } => Request::SafeRegion { q },
            Question::Mwq { customer, q, .. } => Request::Mwq { customer, q },
        }
    }
}

impl Request {
    /// The opcode this request travels under.
    #[must_use]
    pub const fn opcode(&self) -> Opcode {
        match self {
            Request::Ping => Opcode::Ping,
            Request::Rsl { .. } => Opcode::Rsl,
            Request::Explain { .. } => Opcode::Explain,
            Request::Mwp { .. } => Opcode::Mwp,
            Request::Mqp { .. } => Opcode::Mqp,
            Request::SafeRegion { .. } => Opcode::SafeRegion,
            Request::Mwq { .. } => Opcode::Mwq,
            Request::Insert { .. } => Opcode::Insert,
            Request::Delete { .. } => Opcode::Delete,
            Request::Shutdown => Opcode::Shutdown,
        }
    }
}

/// A successful answer, shaped by the request's opcode.
#[derive(Debug, Clone)]
pub enum Answer {
    /// `Ping` / `Shutdown`: no payload.
    Empty,
    /// `Rsl` / `Explain`: dataset tuples (reverse-skyline members or
    /// culprit products). An empty `Explain` list means the customer
    /// is already a member.
    Items(Vec<(ItemId, Point)>),
    /// `Mwp` / `Mqp`: repair candidates, cheapest first.
    Candidates(Vec<Candidate>),
    /// `SafeRegion`: the region's boxes as `(lo, hi)` corner pairs.
    Region(Vec<(Point, Point)>),
    /// `Mwq`: the Algorithm 4 verdict.
    Mwq {
        /// Which case of the paper's Table I applied.
        case: MwqCase,
        /// The refined query point (inside the safe region).
        q_star: Point,
        /// The repaired why-not point (case C2 only).
        c_star: Option<Candidate>,
        /// The Eqn-(11) cost.
        cost: f64,
    },
    /// `Insert`: the id assigned to the new tuple.
    Inserted(ItemId),
    /// `Delete`: whether a live tuple was removed.
    Deleted(bool),
}

/// A response body: a successful answer or a typed error with a
/// human-readable message.
#[derive(Debug, Clone)]
pub enum ResponseBody {
    /// Status 0: the operation's answer.
    Ok(Answer),
    /// Any other status: the error kind plus a diagnostic message
    /// (possibly empty).
    Error(ErrorKind, String),
}

/// A decoded response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Echo of the request id this answers.
    pub id: u64,
    /// Echo of the request opcode (makes responses self-describing).
    pub opcode: Opcode,
    /// Answer or typed error.
    pub body: ResponseBody,
}

// ---------------------------------------------------------------------------
// Size accounting (exact payload sizes, so encoding never reallocates)
// ---------------------------------------------------------------------------

fn point_size(p: &Point) -> usize {
    4 + 8 * p.dim()
}

fn customer_size(c: &Customer) -> usize {
    1 + match c {
        Customer::Id(_) => 4,
        Customer::External(p) => point_size(p),
        Customer::PointExcluding(p, _) => point_size(p) + 4,
    }
}

fn items_size(items: &[(ItemId, Point)]) -> usize {
    4 + items.iter().map(|(_, p)| 4 + point_size(p)).sum::<usize>()
}

fn candidate_size(c: &Candidate) -> usize {
    point_size(&c.point) + 8 + 1
}

fn answer_size(a: &Answer) -> usize {
    match a {
        Answer::Empty => 0,
        Answer::Items(items) => items_size(items),
        Answer::Candidates(cands) => 4 + cands.iter().map(candidate_size).sum::<usize>(),
        Answer::Region(boxes) => {
            4 + boxes
                .iter()
                .map(|(lo, hi)| point_size(lo) + point_size(hi))
                .sum::<usize>()
        }
        Answer::Mwq { q_star, c_star, .. } => {
            1 + point_size(q_star) + 1 + c_star.as_ref().map_or(0, candidate_size) + 8
        }
        Answer::Inserted(_) => 4,
        Answer::Deleted(_) => 1,
    }
}

fn request_body_size(r: &Request) -> usize {
    match r {
        Request::Ping | Request::Shutdown => 0,
        Request::Rsl { q } | Request::SafeRegion { q } => point_size(q),
        Request::Explain { customer, q }
        | Request::Mwp { customer, q }
        | Request::Mqp { customer, q }
        | Request::Mwq { customer, q } => customer_size(customer) + point_size(q),
        Request::Insert { point } => point_size(point),
        Request::Delete { .. } => 4,
    }
}

// ---------------------------------------------------------------------------
// Field encoders/decoders
// ---------------------------------------------------------------------------

fn put_point(enc: &mut Encoder<'_>, p: &Point) -> Result<(), ProtoError> {
    enc.put_u32(p.dim() as u32)?;
    for &c in p.coords() {
        enc.put_f64(c)?;
    }
    Ok(())
}

fn get_point(dec: &mut Decoder<'_>) -> Result<Point, ProtoError> {
    let dim = dec.get_u32()?;
    if dim == 0 || dim > MAX_DIM {
        return Err(ProtoError::BadDim(dim));
    }
    let mut coords = Vec::with_capacity(dim as usize);
    for _ in 0..dim {
        let c = dec.get_f64()?;
        if !c.is_finite() {
            return Err(ProtoError::NonFinite);
        }
        coords.push(c);
    }
    Ok(Point::new(coords))
}

/// Guards a list count against hostile values: each element needs at
/// least `min_elem` bytes, so a count the remaining payload cannot hold
/// is rejected before any allocation.
fn check_count(count: u32, min_elem: usize, dec: &Decoder<'_>) -> Result<usize, ProtoError> {
    let n = count as usize;
    if n.saturating_mul(min_elem) > dec.remaining() {
        return Err(ProtoError::BadCount {
            count,
            remaining: dec.remaining(),
        });
    }
    Ok(n)
}

fn put_items(enc: &mut Encoder<'_>, items: &[(ItemId, Point)]) -> Result<(), ProtoError> {
    enc.put_u32(items.len() as u32)?;
    for (id, p) in items {
        enc.put_u32(id.0)?;
        put_point(enc, p)?;
    }
    Ok(())
}

fn get_items(dec: &mut Decoder<'_>) -> Result<Vec<(ItemId, Point)>, ProtoError> {
    let count = dec.get_u32()?;
    // Minimum item: id (4) + dim header (4) + one coordinate (8).
    let n = check_count(count, 16, dec)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        let id = ItemId(dec.get_u32()?);
        items.push((id, get_point(dec)?));
    }
    Ok(items)
}

fn put_candidate(enc: &mut Encoder<'_>, c: &Candidate) -> Result<(), ProtoError> {
    put_point(enc, &c.point)?;
    enc.put_f64(c.cost)?;
    enc.put_u8(u8::from(c.verified))?;
    Ok(())
}

fn get_candidate(dec: &mut Decoder<'_>) -> Result<Candidate, ProtoError> {
    let point = get_point(dec)?;
    // Costs pass through as raw bits: +inf marks an unreachable repair,
    // so only points get the finiteness check.
    let cost = dec.get_f64()?;
    let verified = get_bool(dec)?;
    Ok(Candidate {
        point,
        cost,
        verified,
    })
}

fn get_bool(dec: &mut Decoder<'_>) -> Result<bool, ProtoError> {
    match dec.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(ProtoError::BadBool(other)),
    }
}

fn put_customer(enc: &mut Encoder<'_>, c: &Customer) -> Result<(), ProtoError> {
    match c {
        Customer::Id(id) => {
            enc.put_u8(0)?;
            enc.put_u32(id.0)?;
        }
        Customer::External(p) => {
            enc.put_u8(1)?;
            put_point(enc, p)?;
        }
        Customer::PointExcluding(p, id) => {
            enc.put_u8(2)?;
            put_point(enc, p)?;
            enc.put_u32(id.0)?;
        }
    }
    Ok(())
}

fn get_customer(dec: &mut Decoder<'_>) -> Result<Customer, ProtoError> {
    match dec.get_u8()? {
        0 => Ok(Customer::Id(ItemId(dec.get_u32()?))),
        1 => Ok(Customer::External(get_point(dec)?)),
        2 => {
            let p = get_point(dec)?;
            Ok(Customer::PointExcluding(p, ItemId(dec.get_u32()?)))
        }
        other => Err(ProtoError::BadCustomerTag(other)),
    }
}

// ---------------------------------------------------------------------------
// Message encode/decode
// ---------------------------------------------------------------------------

/// Encodes a request as a complete frame (length prefix included).
///
/// # Errors
///
/// Returns [`ProtoError::Codec`] only on an internal size-accounting
/// bug; well-formed requests always encode.
pub fn encode_request(id: u64, req: &Request) -> Result<Vec<u8>, ProtoError> {
    let payload_len = 8 + 1 + request_body_size(req);
    let mut frame = vec![0u8; 4 + payload_len];
    frame[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let mut enc = Encoder::new(&mut frame[4..]);
    enc.put_u64(id)?;
    enc.put_u8(req.opcode() as u8)?;
    match req {
        Request::Ping | Request::Shutdown => {}
        Request::Rsl { q } | Request::SafeRegion { q } => put_point(&mut enc, q)?,
        Request::Explain { customer, q }
        | Request::Mwp { customer, q }
        | Request::Mqp { customer, q }
        | Request::Mwq { customer, q } => {
            put_customer(&mut enc, customer)?;
            put_point(&mut enc, q)?;
        }
        Request::Insert { point } => put_point(&mut enc, point)?,
        Request::Delete { id } => enc.put_u32(id.0)?,
    }
    Ok(frame)
}

/// Reads just the request header (id and opcode) from a payload, so a
/// server can still address its error response when the body is
/// malformed.
///
/// # Errors
///
/// Returns a [`ProtoError`] when even the 9-byte header is unreadable.
pub fn decode_request_header(payload: &[u8]) -> Result<(u64, Opcode), ProtoError> {
    let mut dec = Decoder::new(payload);
    let id = dec.get_u64()?;
    let opcode = Opcode::from_byte(dec.get_u8()?)?;
    Ok((id, opcode))
}

/// Decodes a full request payload (the bytes after the length prefix).
///
/// # Errors
///
/// Returns a [`ProtoError`] on any malformed byte; never panics.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), ProtoError> {
    let mut dec = Decoder::new(payload);
    let id = dec.get_u64()?;
    let opcode = Opcode::from_byte(dec.get_u8()?)?;
    let req = match opcode {
        Opcode::Ping => Request::Ping,
        Opcode::Shutdown => Request::Shutdown,
        Opcode::Rsl => Request::Rsl {
            q: get_point(&mut dec)?,
        },
        Opcode::SafeRegion => Request::SafeRegion {
            q: get_point(&mut dec)?,
        },
        Opcode::Explain => {
            let customer = get_customer(&mut dec)?;
            Request::Explain {
                customer,
                q: get_point(&mut dec)?,
            }
        }
        Opcode::Mwp => {
            let customer = get_customer(&mut dec)?;
            Request::Mwp {
                customer,
                q: get_point(&mut dec)?,
            }
        }
        Opcode::Mqp => {
            let customer = get_customer(&mut dec)?;
            Request::Mqp {
                customer,
                q: get_point(&mut dec)?,
            }
        }
        Opcode::Mwq => {
            let customer = get_customer(&mut dec)?;
            Request::Mwq {
                customer,
                q: get_point(&mut dec)?,
            }
        }
        Opcode::Insert => Request::Insert {
            point: get_point(&mut dec)?,
        },
        Opcode::Delete => Request::Delete {
            id: ItemId(dec.get_u32()?),
        },
    };
    if dec.remaining() > 0 {
        return Err(ProtoError::TrailingBytes {
            remaining: dec.remaining(),
        });
    }
    Ok((id, req))
}

/// Encodes a response as a complete frame (length prefix included).
/// Error messages longer than 64 KiB are truncated at a character
/// boundary.
///
/// # Errors
///
/// Returns [`ProtoError::Codec`] only on an internal size-accounting
/// bug; well-formed responses always encode.
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, ProtoError> {
    let (status, body_len) = match &resp.body {
        ResponseBody::Ok(a) => (0u8, answer_size(a)),
        ResponseBody::Error(kind, msg) => (*kind as u8, 4 + truncated_len(msg)),
    };
    let payload_len = 8 + 1 + 1 + body_len;
    let mut frame = vec![0u8; 4 + payload_len];
    frame[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let mut enc = Encoder::new(&mut frame[4..]);
    enc.put_u64(resp.id)?;
    enc.put_u8(resp.opcode as u8)?;
    enc.put_u8(status)?;
    match &resp.body {
        ResponseBody::Ok(answer) => match answer {
            Answer::Empty => {}
            Answer::Items(items) => put_items(&mut enc, items)?,
            Answer::Candidates(cands) => {
                enc.put_u32(cands.len() as u32)?;
                for c in cands {
                    put_candidate(&mut enc, c)?;
                }
            }
            Answer::Region(boxes) => {
                enc.put_u32(boxes.len() as u32)?;
                for (lo, hi) in boxes {
                    put_point(&mut enc, lo)?;
                    put_point(&mut enc, hi)?;
                }
            }
            Answer::Mwq {
                case,
                q_star,
                c_star,
                cost,
            } => {
                enc.put_u8(match case {
                    MwqCase::Overlap => 0,
                    MwqCase::Disjoint => 1,
                })?;
                put_point(&mut enc, q_star)?;
                match c_star {
                    Some(c) => {
                        enc.put_u8(1)?;
                        put_candidate(&mut enc, c)?;
                    }
                    None => enc.put_u8(0)?,
                }
                enc.put_f64(*cost)?;
            }
            Answer::Inserted(id) => enc.put_u32(id.0)?,
            Answer::Deleted(removed) => enc.put_u8(u8::from(*removed))?,
        },
        ResponseBody::Error(_, msg) => {
            let len = truncated_len(msg);
            enc.put_u32(len as u32)?;
            for &b in &msg.as_bytes()[..len] {
                enc.put_u8(b)?;
            }
        }
    }
    Ok(frame)
}

/// Longest prefix of `msg` that fits the 64 KiB error-message cap
/// without splitting a UTF-8 character.
fn truncated_len(msg: &str) -> usize {
    const CAP: usize = 64 << 10;
    if msg.len() <= CAP {
        return msg.len();
    }
    let mut cut = CAP;
    while cut > 0 && !msg.is_char_boundary(cut) {
        cut -= 1;
    }
    cut
}

/// Decodes a response payload (the bytes after the length prefix).
///
/// # Errors
///
/// Returns a [`ProtoError`] on any malformed byte; never panics.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut dec = Decoder::new(payload);
    let id = dec.get_u64()?;
    let opcode = Opcode::from_byte(dec.get_u8()?)?;
    let status = dec.get_u8()?;
    let body = if status == 0 {
        ResponseBody::Ok(match opcode {
            Opcode::Ping | Opcode::Shutdown => Answer::Empty,
            Opcode::Rsl | Opcode::Explain => Answer::Items(get_items(&mut dec)?),
            Opcode::Mwp | Opcode::Mqp => {
                let count = dec.get_u32()?;
                // Minimum candidate: dim header (4) + one coordinate
                // (8) + cost (8) + verified (1).
                let n = check_count(count, 21, &dec)?;
                let mut cands = Vec::with_capacity(n);
                for _ in 0..n {
                    cands.push(get_candidate(&mut dec)?);
                }
                Answer::Candidates(cands)
            }
            Opcode::SafeRegion => {
                let count = dec.get_u32()?;
                // Minimum box: two 1-d points of 12 bytes each.
                let n = check_count(count, 24, &dec)?;
                let mut boxes = Vec::with_capacity(n);
                for _ in 0..n {
                    let lo = get_point(&mut dec)?;
                    let hi = get_point(&mut dec)?;
                    if lo.dim() != hi.dim()
                        || lo.coords().iter().zip(hi.coords()).any(|(a, b)| a > b)
                    {
                        return Err(ProtoError::BadRect);
                    }
                    boxes.push((lo, hi));
                }
                Answer::Region(boxes)
            }
            Opcode::Mwq => {
                let case = match dec.get_u8()? {
                    0 => MwqCase::Overlap,
                    1 => MwqCase::Disjoint,
                    other => return Err(ProtoError::BadCase(other)),
                };
                let q_star = get_point(&mut dec)?;
                let c_star = if get_bool(&mut dec)? {
                    Some(get_candidate(&mut dec)?)
                } else {
                    None
                };
                let cost = dec.get_f64()?;
                Answer::Mwq {
                    case,
                    q_star,
                    c_star,
                    cost,
                }
            }
            Opcode::Insert => Answer::Inserted(ItemId(dec.get_u32()?)),
            Opcode::Delete => Answer::Deleted(get_bool(&mut dec)?),
        })
    } else {
        let kind = ErrorKind::from_byte(status)?;
        let len = dec.get_u32()?;
        let n = check_count(len, 1, &dec)?;
        let mut bytes = Vec::with_capacity(n);
        for _ in 0..n {
            bytes.push(dec.get_u8()?);
        }
        let msg = String::from_utf8(bytes).map_err(|_| ProtoError::BadUtf8)?;
        ResponseBody::Error(kind, msg)
    };
    if dec.remaining() > 0 {
        return Err(ProtoError::TrailingBytes {
            remaining: dec.remaining(),
        });
    }
    Ok(Response { id, opcode, body })
}

/// Builds the `Answer::Region` payload view of a [`Region`].
#[must_use]
pub fn region_to_wire(region: &Region) -> Vec<(Point, Point)> {
    region
        .boxes()
        .iter()
        .map(|b| (b.lo().clone(), b.hi().clone()))
        .collect()
}

// ---------------------------------------------------------------------------
// Framing over streams and buffers
// ---------------------------------------------------------------------------

/// Writes one frame (already carrying its length prefix, as produced by
/// [`encode_request`]/[`encode_response`]) to a blocking stream.
///
/// # Errors
///
/// Propagates the underlying [`std::io::Error`].
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), ProtoError> {
    w.write_all(frame)?;
    Ok(())
}

/// Reads one frame payload from a blocking stream. Returns `Ok(None)`
/// on a clean EOF at a frame boundary.
///
/// # Errors
///
/// [`ProtoError::FrameTooLarge`] on an oversized header,
/// [`ProtoError::Io`] on stream failure or EOF mid-frame.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut header = [0u8; 4];
    match r.read(&mut header) {
        Ok(0) => return Ok(None),
        Ok(n) if n < 4 => r.read_exact(&mut header[n..])?,
        Ok(_) => {}
        Err(e) => return Err(ProtoError::Io(e)),
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Extracts one complete frame payload from the front of an
/// accumulation buffer (for non-blocking readers that append raw bytes
/// as they arrive). Returns `Ok(None)` until a full frame is buffered;
/// on success the frame's bytes are drained from `buf`.
///
/// # Errors
///
/// [`ProtoError::FrameTooLarge`] as soon as an oversized header is
/// visible, without waiting for (or allocating) the body.
pub fn take_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, ProtoError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = buf[4..total].to_vec();
    buf.drain(..total);
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_decodes_even_when_body_is_malformed() {
        let frame = encode_request(
            42,
            &Request::Rsl {
                q: Point::xy(1.0, 2.0),
            },
        )
        .unwrap_or_else(|e| panic!("encode: {e}"));
        // Truncate the body: header still parses.
        let payload = &frame[4..14];
        let (id, opcode) = decode_request_header(payload).unwrap_or_else(|e| panic!("header: {e}"));
        assert_eq!((id, opcode), (42, Opcode::Rsl));
        assert!(decode_request(payload).is_err());
    }

    #[test]
    fn take_frame_is_incremental() {
        let frame = encode_request(1, &Request::Ping).unwrap_or_else(|e| panic!("encode: {e}"));
        let mut buf = Vec::new();
        for &b in &frame[..frame.len() - 1] {
            buf.push(b);
            assert!(matches!(take_frame(&mut buf), Ok(None)));
        }
        buf.push(frame[frame.len() - 1]);
        let payload = take_frame(&mut buf)
            .unwrap_or_else(|e| panic!("take: {e}"))
            .unwrap_or_else(|| panic!("frame expected"));
        assert_eq!(decode_request(&payload).map(|(id, _)| id).ok(), Some(1));
        assert!(buf.is_empty());
    }

    #[test]
    fn hostile_count_rejected_before_allocation() {
        // Items list claiming u32::MAX entries in a 4-byte body.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.push(Opcode::Rsl as u8); // opcode byte; body follows
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // dim = u32::MAX
        assert!(matches!(
            decode_request(&payload),
            Err(ProtoError::BadDim(_))
        ));
    }
}
