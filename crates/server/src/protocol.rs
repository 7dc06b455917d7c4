//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload; the first payload byte is the opcode. Integers are
//! little-endian and `f64`s travel as their bits; a string is a `u16`
//! byte length then UTF-8, a list a `u32` count then its elements, and a
//! one-byte enum its byte from a `(value, byte)` table. Join pairs are
//! two `u32` point ids — the same representation the engine serves, so a
//! batch frame is one `memcpy`-shaped loop on both sides.
//!
//! Each frame's opcode and fields are written once, as one row of the
//! frame table in this module's source (the `frames!` invocation), and
//! each struct payload's fields once beside it (`wire_structs!`). Row
//! order is wire order. The four codec functions — [`encode_request`],
//! [`decode_request`], [`encode_response`], [`decode_response`] — are
//! generated from those rows, so an encoder and its decoder cannot
//! disagree; `tests/fixtures/wire_frames.txt` pins the bytes.
//!
//! A connection opens with a mandatory handshake: the client's first
//! frame must be `HELLO` carrying [`PROTOCOL_VERSION`] and its feature
//! bits; the server answers `WELCOME` (version + the feature bits it
//! supports) or a terminal `ERROR` frame (version mismatch, or a
//! legacy peer that sent any other frame first) and closes. `PING` is
//! answered with `PONG` by the event loop itself — a keepalive that
//! never queues behind worker jobs. `BUSY` answers a request the server
//! chose not to serve (rate limit or load shed); the request was **not**
//! executed and may be retried after `retry_after_ms`.
//!
//! A `SAMPLE` answer is a stream: zero or more `BATCH` frames followed
//! by exactly one `DONE` (which also reports per-request serving
//! statistics). `req_id` is echoed on every frame of the answer so a
//! client may pipeline requests on one connection and demultiplex the
//! interleaved batches.
//!
//! `INSERT`/`DELETE` mutate a dataset's point sets (side `0` = `R`,
//! `1` = `S`); the `UPDATE` answer carries the first assigned id (for
//! inserts — ids are contiguous per frame), how many operations
//! applied, and the dataset's epoch/version after the mutation. Ids
//! are **epoch-relative**: a rebuild (observable via the `EPOCH`
//! request, or `UPDATE.epoch` bumping) renumbers them.

use std::io::{Read, Write};

use srj_core::JoinPair;
use srj_engine::Algorithm;
use srj_geom::Point;

/// Hard ceiling on a frame payload, enforced on both read and write: a
/// hostile or corrupt length prefix must fail fast, not allocate
/// gigabytes. Batches are sized well below this
/// (`crate::ServerConfig::batch_pairs` × 8 bytes + header).
pub const MAX_FRAME_LEN: usize = 1 << 22; // 4 MiB

/// The protocol version this build speaks, carried in `HELLO` and
/// `WELCOME`. A server rejects any other version with a clean `ERROR`
/// frame — never a hang or a silently-garbled stream. Bumped whenever
/// a frame's layout changes (2: `STATS` is sixteen words; 3: `TRACE` is
/// gone and a `SLOWLOG` entry carries a stage record, not spans).
pub const PROTOCOL_VERSION: u16 = 3;

/// Feature bit: the peer answers `PING` with `PONG`.
pub const FEAT_KEEPALIVE: u32 = 1 << 0;
/// Feature bit: the peer may answer any request with `BUSY` (rate
/// limiting / load shedding) instead of executing it.
pub const FEAT_BUSY: u32 = 1 << 1;
/// Feature bit: the peer serves `INSERT`/`DELETE`/`EPOCH` mutations.
pub const FEAT_MUTATIONS: u32 = 1 << 2;

/// Every feature bit this build implements.
pub const SERVER_FEATURES: u32 = FEAT_KEEPALIVE | FEAT_BUSY | FEAT_MUTATIONS;

/// Longest `ERROR` message the encoder emits / the decoder accepts.
pub const MAX_ERROR_MSG_LEN: usize = 512;

/// Why the server terminated a connection with an `ERROR` frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The `HELLO` carried a protocol version this server does not
    /// speak.
    VersionMismatch,
    /// The first frame on the connection was not `HELLO`.
    HandshakeRequired,
    /// The server rejected the frame for another terminal reason.
    Rejected,
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorCode::VersionMismatch => "version mismatch",
            ErrorCode::HandshakeRequired => "handshake required",
            ErrorCode::Rejected => "rejected",
        })
    }
}

/// Which point set a mutation targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// The query set `R`.
    R,
    /// The data set `S`.
    S,
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Side::R => "R",
            Side::S => "S",
        })
    }
}

/// How a finished request ended, carried in the `DONE` frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestStatus {
    /// All `t` samples were delivered.
    Ok,
    /// The request named a dataset id the server has not registered.
    UnknownDataset,
    /// The join is provably empty ([`srj_core::SampleError::EmptyJoin`]).
    EmptyJoin,
    /// The rejection safety valve tripped
    /// ([`srj_core::SampleError::RejectionLimit`]).
    RejectionLimit,
    /// The request frame could not be decoded.
    BadRequest,
    /// The server is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for RequestStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RequestStatus::Ok => "ok",
            RequestStatus::UnknownDataset => "unknown dataset id",
            RequestStatus::EmptyJoin => "empty join",
            RequestStatus::RejectionLimit => "rejection limit exceeded",
            RequestStatus::BadRequest => "malformed request",
            RequestStatus::ShuttingDown => "server shutting down",
        })
    }
}

/// A `SAMPLE` request: draw `t` uniform join samples from the engine
/// for `(dataset, l)` built with `algorithm` (`None` = the engine's
/// choice, as `srj_engine::Engine::auto` makes it: KDS on a tiny input,
/// BBST otherwise).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleRequest {
    /// Client-chosen id echoed on every response frame of the answer.
    pub req_id: u32,
    /// Registered dataset id (see `crate::DatasetRegistry`).
    pub dataset: u64,
    /// Window half-extent `l`.
    pub l: f64,
    /// Forced algorithm, or `None` for the engine's choice (never
    /// KDS-rejection, which serves only when forced).
    pub algorithm: Option<Algorithm>,
    /// Reserved: carried on the wire, ignored by the server. Every value
    /// decodes and names the same engine; clients send `1`.
    pub shards: u32,
    /// Number of samples to draw.
    pub t: u64,
    /// RNG seed for the serving handle; `0` = server-assigned (every
    /// request gets an independent stream).
    pub seed: u64,
}

/// Per-request serving statistics, carried in the `DONE` frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestStats {
    /// Samples actually delivered (may trail `t` on error).
    pub samples: u64,
    /// Sampling-loop iterations spent, rejections included.
    pub iterations: u64,
    /// Server-side wall time from dequeue to `DONE`, in nanoseconds.
    pub elapsed_ns: u64,
    /// The id of this request's slow-log entry ([`SlowLogEntry::id`],
    /// fetched with `SLOWLOG`), `0` when it was not captured.
    pub trace_id: u64,
}

/// Server-wide aggregate statistics, answered to a `STATS` request.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServerStatsFrame {
    /// `SAMPLE` requests finished (any status).
    pub queries: u64,
    /// Join samples delivered across all requests.
    pub samples: u64,
    /// Sampling-loop iterations across all requests (rejection-rate
    /// numerator, as in `srj_engine::StatsSnapshot`).
    pub iterations: u64,
    /// Requests that finished with a non-[`RequestStatus::Ok`] status.
    pub errors: u64,
    /// Mean per-request serving latency, nanoseconds.
    pub mean_ns: u64,
    /// Median per-request serving latency, nanoseconds (bucket
    /// resolution).
    pub p50_ns: u64,
    /// 99th-percentile per-request serving latency, nanoseconds.
    pub p99_ns: u64,
    /// Serving engines currently retained, summed over every dataset's
    /// engine map.
    pub engines_cached: u64,
    /// Serving-engine lookup hits.
    pub cache_hits: u64,
    /// Serving-engine lookup misses (each paid an index build).
    pub cache_misses: u64,
    /// Connections accepted since the server started.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Major swaps that went through the cell-granular patch path,
    /// summed over every serving engine.
    pub patch_swaps: u64,
    /// `S`-cells rebuilt by patch-based swaps (clean cells were
    /// `Arc`-shared across the swap and cost nothing), summed over
    /// every serving engine.
    pub cells_patched: u64,
    /// Duration of each dataset's most recent epoch swap, nanoseconds
    /// (maximum across datasets) — the epoch-swap-cost signal.
    pub last_swap_ns: u64,
    /// `Σµ` summed over every serving engine — the quantity a
    /// delete-heavy workload must see shrink across an epoch swap.
    pub mu_total: f64,
}

/// A mutation outcome, carried in the `UPDATE` frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Id assigned to the first inserted point (inserts get contiguous
    /// ids per frame); `0` for deletes.
    pub first_id: u32,
    /// Operations actually applied (deletes skip unknown/tombstoned
    /// ids).
    pub applied: u32,
    /// Dataset epoch after the mutation (rebuilds renumber ids).
    pub epoch: u64,
    /// Dataset mutation version after the mutation.
    pub version: u64,
}

/// A dataset's epoch/version state, answered to an `EPOCH` request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochInfo {
    /// Rebuild epoch (bumps when pending deltas are folded into a
    /// fresh base snapshot — ids are relative to it).
    pub epoch: u64,
    /// Mutation version (bumps on every applied insert/delete).
    pub version: u64,
    /// Live `|R'|`.
    pub live_r: u64,
    /// Live `|S'|`.
    pub live_s: u64,
    /// Mutations pending since the last rebuild.
    pub pending_ops: u64,
    /// Duration of the most recent engine swap for this dataset, of
    /// any of its engines, nanoseconds.
    pub last_swap_ns: u64,
}

/// Decoded request frames.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Mandatory first frame: protocol version + client feature bits.
    Hello {
        /// The protocol version the client speaks.
        version: u16,
        /// The client's feature bits (informational today).
        features: u32,
    },
    /// Keepalive probe, answered with `PONG` by the event loop.
    Ping {
        /// Opaque token echoed back in the `PONG`.
        token: u64,
    },
    /// Draw samples (see [`SampleRequest`]).
    Sample(SampleRequest),
    /// Report server-wide statistics.
    Stats,
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// Insert points into one side of a dataset.
    Insert {
        /// Client-chosen id echoed on the `UPDATE` answer.
        req_id: u32,
        /// Registered dataset id.
        dataset: u64,
        /// Which point set to extend.
        side: Side,
        /// The points.
        points: Vec<Point>,
    },
    /// Tombstone points of one side of a dataset by id.
    Delete {
        /// Client-chosen id echoed on the `UPDATE` answer.
        req_id: u32,
        /// Registered dataset id.
        dataset: u64,
        /// Which point set to shrink.
        side: Side,
        /// Epoch-relative point ids.
        ids: Vec<u32>,
    },
    /// Query a dataset's epoch/version state.
    Epoch {
        /// Client-chosen id echoed on the `EPOCH` answer.
        req_id: u32,
        /// Registered dataset id.
        dataset: u64,
    },
    /// Fetch the server's metrics registry as Prometheus text
    /// exposition.
    Metrics,
    /// Fetch the most recent slow-request captures (tail-based
    /// forensics), newest first.
    SlowLog {
        /// At most this many entries (the server additionally caps the
        /// answer to fit one frame).
        max: u32,
    },
}

/// Decoded response frames.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Successful handshake answer to `HELLO`.
    Welcome {
        /// The protocol version the server speaks.
        version: u16,
        /// The server's feature bits (see [`SERVER_FEATURES`]).
        features: u32,
    },
    /// Keepalive answer to `PING`.
    Pong {
        /// Echo of the `PING` token.
        token: u64,
    },
    /// The server declined to execute a request (rate limit or load
    /// shed). The request did **not** run; retry after
    /// `retry_after_ms`.
    Busy {
        /// Echo of the declined request's id (`0` for frames that
        /// carry none).
        req_id: u32,
        /// Suggested minimum backoff before retrying, milliseconds.
        retry_after_ms: u32,
    },
    /// Terminal connection error (handshake rejection); the server
    /// closes the connection after sending it.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail (at most [`MAX_ERROR_MSG_LEN`]
        /// bytes).
        message: String,
    },
    /// One batch of an in-flight `SAMPLE` answer.
    Batch {
        /// Echo of [`SampleRequest::req_id`].
        req_id: u32,
        /// The samples.
        pairs: Vec<JoinPair>,
    },
    /// Terminates a `SAMPLE` answer.
    Done {
        /// Echo of [`SampleRequest::req_id`].
        req_id: u32,
        /// How the request ended.
        status: RequestStatus,
        /// Serving statistics for this request.
        stats: RequestStats,
    },
    /// Answer to a `STATS` request.
    ServerStats(ServerStatsFrame),
    /// Answer to an `INSERT`/`DELETE` request.
    Update {
        /// Echo of the request id.
        req_id: u32,
        /// How the mutation ended.
        status: RequestStatus,
        /// The mutation outcome.
        stats: UpdateStats,
    },
    /// Answer to an `EPOCH` request.
    Epoch {
        /// Echo of the request id.
        req_id: u32,
        /// How the query ended.
        status: RequestStatus,
        /// The dataset's epoch state (zeroed unless `status` is
        /// [`RequestStatus::Ok`]).
        info: EpochInfo,
    },
    /// Answer to a `METRICS` request.
    Metrics {
        /// Prometheus text exposition of the server's registry.
        text: String,
    },
    /// Answer to a `SLOWLOG` request.
    SlowLog {
        /// Retained slow-request captures, newest first.
        entries: Vec<SlowLogEntry>,
    },
}

/// One retained slow request as the `SLOWLOG` response carries it: the
/// request context plus its stage record — the slow log's own entry,
/// sent as is.
pub type SlowLogEntry = srj_obs::SlowEntry;

/// A slow-log entry's stage record.
pub type Stages = srj_obs::Stages;

/// Why a frame could not be decoded.
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying transport failure.
    Io(std::io::Error),
    /// Structurally invalid payload.
    Malformed(&'static str),
    /// Length prefix above [`MAX_FRAME_LEN`].
    TooLarge(usize),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "I/O error: {e}"),
            ProtocolError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtocolError::TooLarge(n) => write!(f, "frame length {n} exceeds {MAX_FRAME_LEN}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

// ---- field layouts -------------------------------------------------------

/// A cursor over one payload; a read past its end is a clean error.
struct Parser<'a> {
    buf: &'a [u8],
}

impl Parser<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], ProtocolError> {
        let (head, rest) = self
            .buf
            .split_first_chunk()
            .ok_or(ProtocolError::Malformed("truncated field"))?;
        self.buf = rest;
        Ok(*head)
    }

    fn str(&mut self, len: usize) -> Result<String, ProtocolError> {
        let (head, rest) = self
            .buf
            .split_at_checked(len)
            .ok_or(ProtocolError::Malformed("truncated string"))?;
        self.buf = rest;
        std::str::from_utf8(head)
            .map(str::to_owned)
            .map_err(|_| ProtocolError::Malformed("invalid utf-8"))
    }
}

/// One field type's layout, written once for both directions. A codec
/// is usually the field's own type; the few field rules (a finite
/// positive `l`, a canonical `Σµ`, a capped `ERROR` message, `METRICS`'
/// long text) are codec types of their own whose `Value` is the field's
/// type.
trait Wire {
    /// The type of the field this codec reads and writes.
    type Value;
    /// The fewest bytes one value takes on the wire: what a list's count
    /// is checked against before anything is allocated.
    const MIN_LEN: usize;
    /// Whether every value takes exactly `MIN_LEN` bytes. A list of
    /// such values is read from a slice of exactly its length, so the
    /// compiler can drop the per-element bounds checks.
    const FIXED: bool = false;
    fn put(v: &Self::Value, out: &mut Vec<u8>);
    fn get(p: &mut Parser<'_>) -> Result<Self::Value, ProtocolError>;
}

macro_rules! int_wire {
    ($($t:ty)*) => {$(
        impl Wire for $t {
            type Value = $t;
            const MIN_LEN: usize = size_of::<$t>();
            const FIXED: bool = true;
            fn put(v: &$t, out: &mut Vec<u8>) {
                out.extend_from_slice(&v.to_le_bytes());
            }
            fn get(p: &mut Parser<'_>) -> Result<$t, ProtocolError> {
                Ok(<$t>::from_le_bytes(p.take()?))
            }
        }
    )*};
}

int_wire!(u8 u16 u32 u64);

/// Two `f64`s as bits. Only `INSERT` carries points, and a non-finite
/// coordinate is refused.
impl Wire for Point {
    type Value = Point;
    const MIN_LEN: usize = 16;
    const FIXED: bool = true;
    fn put(v: &Point, out: &mut Vec<u8>) {
        u64::put(&v.x.to_bits(), out);
        u64::put(&v.y.to_bits(), out);
    }
    fn get(p: &mut Parser<'_>) -> Result<Point, ProtocolError> {
        let x = f64::from_bits(u64::get(p)?);
        let y = f64::from_bits(u64::get(p)?);
        if !(x.is_finite() && y.is_finite()) {
            return Err(ProtocolError::Malformed("non-finite point coordinate"));
        }
        Ok(Point::new(x, y))
    }
}

impl Wire for JoinPair {
    type Value = JoinPair;
    const MIN_LEN: usize = 8;
    const FIXED: bool = true;
    fn put(v: &JoinPair, out: &mut Vec<u8>) {
        u32::put(&v.r, out);
        u32::put(&v.s, out);
    }
    fn get(p: &mut Parser<'_>) -> Result<JoinPair, ProtocolError> {
        Ok(JoinPair::new(u32::get(p)?, u32::get(p)?))
    }
}

/// A `u16` byte length, then UTF-8.
impl Wire for String {
    type Value = String;
    const MIN_LEN: usize = 2;
    fn put(v: &String, out: &mut Vec<u8>) {
        u16::put(&(v.len() as u16), out);
        out.extend_from_slice(v.as_bytes());
    }
    fn get(p: &mut Parser<'_>) -> Result<String, ProtocolError> {
        let len = u16::get(p)?;
        p.str(len.into())
    }
}

/// A `u32` count, then the elements. The count is checked against the
/// bytes left — `count` elements take at least `count × T::MIN_LEN` —
/// before anything is allocated; an outer list and every list nested in
/// its elements go through this one check.
impl<T: Wire> Wire for Vec<T> {
    type Value = Vec<T::Value>;
    const MIN_LEN: usize = 4;
    fn put(v: &Vec<T::Value>, out: &mut Vec<u8>) {
        out.reserve(4 + v.len() * T::MIN_LEN);
        u32::put(&(v.len() as u32), out);
        for x in v {
            T::put(x, out);
        }
    }
    fn get(p: &mut Parser<'_>) -> Result<Vec<T::Value>, ProtocolError> {
        const { assert!(T::MIN_LEN > 0, "a list element takes at least one byte") };
        let count = u32::get(p)? as usize;
        if count.saturating_mul(T::MIN_LEN) > p.buf.len() {
            return Err(ProtocolError::Malformed("count exceeds the frame"));
        }
        // The elements are read from the bytes they can occupy: exactly
        // `count × MIN_LEN` when fixed-width, everything left otherwise.
        let span = if T::FIXED {
            count * T::MIN_LEN
        } else {
            p.buf.len()
        };
        let mut items = Parser {
            buf: &p.buf[..span],
        };
        let mut v = Vec::with_capacity(count);
        for _ in 0..count {
            v.push(T::get(&mut items)?);
        }
        let consumed = span - items.buf.len();
        p.buf = &p.buf[consumed..];
        Ok(v)
    }
}

/// `SAMPLE`'s half-extent `l`: `f64` bits, finite and positive.
struct HalfExtent;

impl Wire for HalfExtent {
    type Value = f64;
    const MIN_LEN: usize = 8;
    const FIXED: bool = true;
    fn put(v: &f64, out: &mut Vec<u8>) {
        u64::put(&v.to_bits(), out);
    }
    fn get(p: &mut Parser<'_>) -> Result<f64, ProtocolError> {
        let l = f64::from_bits(u64::get(p)?);
        if !(l.is_finite() && l > 0.0) {
            return Err(ProtocolError::Malformed("non-positive half-extent"));
        }
        Ok(l)
    }
}

/// `STATS`' `Σµ`: `f64` bits. A non-finite value (which a healthy
/// server never produces) is sent as 0, so no arbitrary NaN bit pattern
/// reaches the wire, and refused when read.
struct MuTotal;

impl Wire for MuTotal {
    type Value = f64;
    const MIN_LEN: usize = 8;
    const FIXED: bool = true;
    fn put(v: &f64, out: &mut Vec<u8>) {
        let mu = if v.is_finite() { *v } else { 0.0 };
        u64::put(&mu.to_bits(), out);
    }
    fn get(p: &mut Parser<'_>) -> Result<f64, ProtocolError> {
        let mu = f64::from_bits(u64::get(p)?);
        if !mu.is_finite() {
            return Err(ProtocolError::Malformed("non-finite mu_total"));
        }
        Ok(mu)
    }
}

/// `ERROR`'s message: a string of at most [`MAX_ERROR_MSG_LEN`] bytes,
/// truncated on a UTF-8 boundary when sent and refused, before it is
/// read, when a peer claims a longer one.
struct ErrorText;

impl Wire for ErrorText {
    type Value = String;
    const MIN_LEN: usize = 2;
    fn put(v: &String, out: &mut Vec<u8>) {
        let msg = &v[..v.floor_char_boundary(MAX_ERROR_MSG_LEN)];
        u16::put(&(msg.len() as u16), out);
        out.extend_from_slice(msg.as_bytes());
    }
    fn get(p: &mut Parser<'_>) -> Result<String, ProtocolError> {
        let len = usize::from(u16::get(p)?);
        if len > MAX_ERROR_MSG_LEN {
            return Err(ProtocolError::Malformed("error message too long"));
        }
        p.str(len)
    }
}

/// `METRICS`' exposition text: the one string with a `u32` length.
struct LongText;

impl Wire for LongText {
    type Value = String;
    const MIN_LEN: usize = 4;
    fn put(v: &String, out: &mut Vec<u8>) {
        u32::put(&(v.len() as u32), out);
        out.extend_from_slice(v.as_bytes());
    }
    fn get(p: &mut Parser<'_>) -> Result<String, ProtocolError> {
        let len = u32::get(p)?;
        p.str(len as usize)
    }
}

/// A one-byte enum: one `(value, byte)` row per variant, read in both
/// directions.
trait ByteCoded: Copy + PartialEq + 'static {
    const BYTES: &'static [(Self, u8)];
    /// The decode error for a byte no row has.
    const UNKNOWN: &'static str;
}

impl<T: ByteCoded> Wire for T {
    type Value = T;
    const MIN_LEN: usize = 1;
    const FIXED: bool = true;
    fn put(v: &T, out: &mut Vec<u8>) {
        let (_, byte) = T::BYTES
            .iter()
            .find(|(x, _)| x == v)
            .expect("every variant has a byte");
        out.push(*byte);
    }
    fn get(p: &mut Parser<'_>) -> Result<T, ProtocolError> {
        let byte = u8::get(p)?;
        T::BYTES
            .iter()
            .find(|(_, b)| *b == byte)
            .map(|(v, _)| *v)
            .ok_or(ProtocolError::Malformed(T::UNKNOWN))
    }
}

impl ByteCoded for bool {
    const BYTES: &'static [(bool, u8)] = &[(false, 0), (true, 1)];
    const UNKNOWN: &'static str = "unknown bool byte";
}

impl ByteCoded for Side {
    const BYTES: &'static [(Side, u8)] = &[(Side::R, 0), (Side::S, 1)];
    const UNKNOWN: &'static str = "unknown side byte";
}

impl ByteCoded for RequestStatus {
    const BYTES: &'static [(RequestStatus, u8)] = &[
        (RequestStatus::Ok, 0),
        (RequestStatus::UnknownDataset, 1),
        (RequestStatus::EmptyJoin, 2),
        (RequestStatus::RejectionLimit, 3),
        (RequestStatus::BadRequest, 4),
        (RequestStatus::ShuttingDown, 5),
    ];
    const UNKNOWN: &'static str = "unknown status byte";
}

impl ByteCoded for ErrorCode {
    const BYTES: &'static [(ErrorCode, u8)] = &[
        (ErrorCode::VersionMismatch, 1),
        (ErrorCode::HandshakeRequired, 2),
        (ErrorCode::Rejected, 3),
    ];
    const UNKNOWN: &'static str = "unknown error code byte";
}

/// `0` lets the engine pick (KDS or BBST, never KDS-rejection).
impl ByteCoded for Option<Algorithm> {
    const BYTES: &'static [(Option<Algorithm>, u8)] = &[
        (None, 0),
        (Some(Algorithm::Kds), 1),
        (Some(Algorithm::KdsRejection), 2),
        (Some(Algorithm::Bbst), 3),
    ];
    const UNKNOWN: &'static str = "unknown algorithm byte";
}

/// A struct payload: its fields in wire order, each with its codec. The
/// struct literal in `get` names every field, so a field missing from a
/// row does not compile.
macro_rules! wire_structs {
    ($($name:ident { $($field:ident: $codec:ty),* $(,)? })*) => {$(
        impl Wire for $name {
            type Value = $name;
            const MIN_LEN: usize = 0 $(+ <$codec as Wire>::MIN_LEN)*;
            const FIXED: bool = true $(&& <$codec as Wire>::FIXED)*;
            fn put(v: &$name, out: &mut Vec<u8>) {
                $(<$codec as Wire>::put(&v.$field, out);)*
            }
            fn get(p: &mut Parser<'_>) -> Result<$name, ProtocolError> {
                Ok($name { $($field: <$codec as Wire>::get(p)?),* })
            }
        }
    )*};
}

wire_structs! {
    SampleRequest {
        req_id: u32, dataset: u64, l: HalfExtent, algorithm: Option<Algorithm>,
        shards: u32, t: u64, seed: u64,
    }
    RequestStats { samples: u64, iterations: u64, elapsed_ns: u64, trace_id: u64 }
    ServerStatsFrame {
        queries: u64, samples: u64, iterations: u64, errors: u64,
        mean_ns: u64, p50_ns: u64, p99_ns: u64, engines_cached: u64,
        cache_hits: u64, cache_misses: u64, connections_accepted: u64,
        active_connections: u64, patch_swaps: u64, cells_patched: u64,
        last_swap_ns: u64, mu_total: MuTotal,
    }
    UpdateStats { first_id: u32, applied: u32, epoch: u64, version: u64 }
    EpochInfo {
        epoch: u64, version: u64, live_r: u64, live_s: u64,
        pending_ops: u64, last_swap_ns: u64,
    }
    Stages { queued_ns: u64, acquire_ns: u64, draw_ns: u64, encode_ns: u64, waiting_ns: u64 }
    SlowLogEntry {
        id: u64, finished_ns: u64, dataset: u64, t: u64, epoch: u64,
        iterations: u64, batches: u64, elapsed_ns: u64, stages: Stages,
        inline: bool, algorithm: String, served: String,
    }
}

// ---- the frame table -----------------------------------------------------

/// Generates a direction's encoder and decoder from its rows: `opcode
/// Variant`, then the variant's fields with their codecs — `(binding:
/// Codec)` for a one-field tuple variant, `{ field: Codec, … }` for a
/// struct variant, nothing for a unit variant. The encoder's `match` is
/// exhaustive, so a variant without a row does not compile, and a
/// repeated opcode is an unreachable-pattern warning in the decoder.
/// The encoder reserves the length prefix and [`finish_frame`] fills it
/// in, so a frame is built once, in place.
macro_rules! frames {
    ($(
        $msg:ident, $encode:ident, $decode:ident, $unknown:literal {
            $($op:literal $variant:ident
                $(($one:ident: $one_codec:ty))?
                $({ $($field:ident: $codec:ty),* $(,)? })?,)*
        }
    )*) => {$(
        #[doc = concat!(
            "Encodes a [`", stringify!($msg), "`] into a complete frame ",
            "(length prefix included)."
        )]
        pub fn $encode(msg: &$msg) -> Vec<u8> {
            let mut out = Vec::with_capacity(64);
            out.extend_from_slice(&[0; 4]);
            match msg {
                $($msg::$variant $(($one))? $({ $($field),* })? => {
                    out.push($op);
                    $(<$one_codec as Wire>::put($one, &mut out);)?
                    $($(<$codec as Wire>::put($field, &mut out);)*)?
                })*
            }
            finish_frame(out)
        }

        #[doc = concat!(
            "Decodes a [`", stringify!($msg), "`] payload (the bytes after ",
            "the length prefix)."
        )]
        pub fn $decode(payload: &[u8]) -> Result<$msg, ProtocolError> {
            let mut p = Parser { buf: payload };
            let msg = match u8::get(&mut p)? {
                $($op => {
                    $(let $one = <$one_codec as Wire>::get(&mut p)?;)?
                    $($(let $field = <$codec as Wire>::get(&mut p)?;)*)?
                    $msg::$variant $(($one))? $({ $($field),* })?
                })*
                _ => return Err(ProtocolError::Malformed($unknown)),
            };
            if !p.buf.is_empty() {
                return Err(ProtocolError::Malformed("trailing bytes"));
            }
            Ok(msg)
        }
    )*};
}

frames! {
    Request, encode_request, decode_request, "unknown request opcode" {
        0x01 Sample(sample: SampleRequest),
        0x02 Stats,
        0x03 Shutdown,
        0x04 Insert { req_id: u32, dataset: u64, side: Side, points: Vec<Point> },
        0x05 Delete { req_id: u32, dataset: u64, side: Side, ids: Vec<u32> },
        0x06 Epoch { req_id: u32, dataset: u64 },
        0x07 Metrics,
        0x09 Hello { version: u16, features: u32 },
        0x0A Ping { token: u64 },
        0x0B SlowLog { max: u32 },
    }
    Response, encode_response, decode_response, "unknown response opcode" {
        0x81 Batch { req_id: u32, pairs: Vec<JoinPair> },
        0x82 Done { req_id: u32, status: RequestStatus, stats: RequestStats },
        0x83 ServerStats(stats: ServerStatsFrame),
        0x84 Update { req_id: u32, status: RequestStatus, stats: UpdateStats },
        0x85 Epoch { req_id: u32, status: RequestStatus, info: EpochInfo },
        0x86 Metrics { text: LongText },
        0x88 Welcome { version: u16, features: u32 },
        0x89 Pong { token: u64 },
        0x8A Busy { req_id: u32, retry_after_ms: u32 },
        0x8B Error { code: ErrorCode, message: ErrorText },
        0x8C SlowLog { entries: Vec<SlowLogEntry> },
    }
}

// ---- framing -------------------------------------------------------------

/// Writes the payload length into the 4 bytes an encoder reserved at
/// the front of `frame`.
fn finish_frame(mut frame: Vec<u8>) -> Vec<u8> {
    let len = frame.len() - 4;
    assert!(len <= MAX_FRAME_LEN, "frame exceeds MAX_FRAME_LEN");
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
    frame
}

/// The payload length a frame's prefix announces, refused above
/// [`MAX_FRAME_LEN`] before any payload is buffered or allocated: the
/// one length check every reader of frames goes through.
pub(crate) fn payload_len(prefix: [u8; 4]) -> Result<usize, ProtocolError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::TooLarge(len));
    }
    Ok(len)
}

/// Writes a pre-encoded frame (as produced by the `encode_*` helpers).
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> std::io::Result<()> {
    w.write_all(frame)
}

/// Reads one frame payload. `Ok(None)` on clean EOF at a frame
/// boundary; mid-frame EOF is an error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut prefix = [0u8; 4];
    // Distinguish "connection closed between frames" from "closed
    // mid-frame": the first is a clean end-of-stream.
    match r.read(&mut prefix)? {
        0 => return Ok(None),
        n => r.read_exact(&mut prefix[n..])?,
    }
    let mut payload = vec![0u8; payload_len(prefix)?];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Incremental frame decoder for nonblocking sockets.
///
/// The readiness loop reads whatever bytes the socket has and feeds
/// them through [`FrameAccumulator::extend`]; complete frame payloads
/// come back out of [`FrameAccumulator::next_frame`] one at a time,
/// in arrival order, regardless of how the byte stream was split.
/// The length prefix is validated against [`MAX_FRAME_LEN`] as soon
/// as its 4 bytes are present — an oversized frame is rejected before
/// any payload is buffered, exactly like [`read_frame`]'s check
/// before allocation.
#[derive(Debug, Default)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as frames; compacted lazily.
    pos: usize,
}

/// Consumed prefix past which [`FrameAccumulator::next_frame`]
/// compacts its buffer instead of letting it creep.
const ACCUMULATOR_COMPACT_BYTES: usize = 64 * 1024;

impl FrameAccumulator {
    pub fn new() -> FrameAccumulator {
        FrameAccumulator::default()
    }

    /// Appends raw socket bytes (any split, including one at a time).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame payload, `Ok(None)` when more
    /// bytes are needed. A length prefix beyond [`MAX_FRAME_LEN`] is
    /// an error the moment it is readable; the accumulator is then
    /// poisoned garbage and the connection must be torn down.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        let pending = &self.buf[self.pos..];
        let Some(&prefix) = pending.first_chunk::<4>() else {
            self.maybe_compact();
            return Ok(None);
        };
        let len = payload_len(prefix)?;
        if pending.len() < 4 + len {
            self.maybe_compact();
            return Ok(None);
        }
        let payload = pending[4..4 + len].to_vec();
        self.pos += 4 + len;
        self.maybe_compact();
        Ok(Some(payload))
    }

    /// Whether a partial frame (or partial length prefix) is pending —
    /// the state that arms a mid-frame read deadline.
    pub fn has_partial(&self) -> bool {
        self.buf.len() > self.pos
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn maybe_compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > ACCUMULATOR_COMPACT_BYTES {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow_entry(id: u64) -> SlowLogEntry {
        SlowLogEntry {
            id,
            finished_ns: 1_000_000,
            dataset: 3,
            t: 50_000,
            algorithm: "auto".to_string(),
            served: "bbst".to_string(),
            epoch: 2,
            iterations: 123_456,
            batches: 7,
            inline: false,
            elapsed_ns: 42_000_000,
            stages: Stages {
                queued_ns: 7_890,
                acquire_ns: 110,
                draw_ns: 40_000_000,
                encode_ns: 1_900_000,
                waiting_ns: 92_000,
            },
        }
    }

    #[test]
    fn slowlog_hostile_counts_are_rejected() {
        let frame = encode_response(&Response::SlowLog {
            entries: vec![slow_entry(1)],
        });
        // Claim 60000 entries: must fail the pre-allocation bound
        // check (entry count lives right after the opcode byte).
        let mut payload = frame[4..].to_vec();
        payload[1..5].copy_from_slice(&60_000u32.to_le_bytes());
        assert!(decode_response(&payload).is_err());
        // The `inline` byte (after the opcode, the entry count and
        // thirteen u64 words) is a bool: any other value is refused.
        let mut payload = frame[4..].to_vec();
        let off = 1 + 4 + 13 * 8;
        assert_eq!(payload[off], 0);
        payload[off] = 2;
        assert!(decode_response(&payload).is_err());
        // Truncating the final string mid-way is a malformed frame.
        let short = &frame[4..frame.len() - 3];
        assert!(decode_response(short).is_err());
    }

    #[test]
    fn non_finite_mu_total_is_canonicalized_and_rejected() {
        // Encode canonicalizes a NaN Σµ to 0.0 — no arbitrary NaN bit
        // patterns on the wire.
        let frame = encode_response(&Response::ServerStats(ServerStatsFrame {
            mu_total: f64::NAN,
            ..ServerStatsFrame::default()
        }));
        match decode_response(&frame[4..]).unwrap() {
            Response::ServerStats(s) => assert_eq!(s.mu_total, 0.0),
            other => panic!("unexpected response: {other:?}"),
        }
        // A frame carrying non-finite bits anyway (hostile or corrupt
        // peer) is rejected as malformed, for every non-finite class.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let frame = encode_response(&Response::ServerStats(ServerStatsFrame::default()));
            let mut payload = frame[4..].to_vec();
            let off = payload.len() - 8;
            payload[off..].copy_from_slice(&bad.to_bits().to_le_bytes());
            assert!(
                matches!(decode_response(&payload), Err(ProtocolError::Malformed(_))),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn malformed_update_frames_are_rejected() {
        // count says 2 points but payload holds 1
        let frame = encode_request(&Request::Insert {
            req_id: 0,
            dataset: 1,
            side: Side::R,
            points: vec![Point::new(1.0, 2.0)],
        });
        let mut payload = frame[4..].to_vec();
        payload[14..18].copy_from_slice(&2u32.to_le_bytes());
        assert!(decode_request(&payload).is_err());
        // count says 0 points but payload holds 1: trailing bytes
        payload[14..18].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_request(&payload).is_err());
        // non-finite coordinate, either axis
        for off in [16, 8] {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut frame = frame.clone();
                let at = frame.len() - off;
                frame[at..at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
                assert!(decode_request(&frame[4..]).is_err());
            }
        }
        // unknown side byte
        let mut frame = encode_request(&Request::Delete {
            req_id: 0,
            dataset: 1,
            side: Side::S,
            ids: vec![1],
        });
        frame[17] = 9;
        assert!(decode_request(&frame[4..]).is_err());
    }

    #[test]
    fn truncated_stats_frame_is_rejected() {
        let frame = encode_response(&Response::ServerStats(ServerStatsFrame::default()));
        // Drop the trailing mu_total field: a shorter layout must not
        // parse — nor may version 1's seventeen words.
        assert!(decode_response(&frame[4..frame.len() - 8]).is_err());
        let mut v1 = frame[4..].to_vec();
        v1.extend_from_slice(&[0; 8]);
        assert!(decode_response(&v1).is_err());
    }

    #[test]
    fn malformed_frames_are_rejected_not_panicked() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0xFF]).is_err());
        assert!(decode_response(&[0x7F]).is_err());
        assert!(decode_request(&[0x01, 1, 2]).is_err(), "truncated SAMPLE");
        // trailing garbage after a valid STATS
        assert!(decode_request(&[0x02, 0]).is_err());
        let sample = encode_request(&Request::Sample(SampleRequest {
            req_id: 0,
            dataset: 1,
            l: 1.0,
            algorithm: None,
            shards: 1,
            t: 1,
            seed: 0,
        }));
        // NaN, infinite, zero or negative half-extent (offset: 4 len +
        // 1 op + 4 req_id + 8 dataset)
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let mut frame = sample.clone();
            frame[17..25].copy_from_slice(&bad.to_bits().to_le_bytes());
            assert!(decode_request(&frame[4..]).is_err(), "l = {bad}");
        }
        // unknown algorithm byte (right after l)
        let mut frame = sample.clone();
        frame[25] = 4;
        assert!(decode_request(&frame[4..]).is_err());
        // unknown status byte (right after DONE's req_id)
        let mut frame = encode_response(&Response::Done {
            req_id: 0,
            status: RequestStatus::Ok,
            stats: RequestStats::default(),
        });
        frame[9] = 6;
        assert!(decode_response(&frame[4..]).is_err());

        assert!(decode_response(&[0x81, 0, 0, 0, 0, 9, 0, 0, 0]).is_err());
    }

    #[test]
    fn oversized_error_message_is_truncated_on_encode_rejected_on_decode() {
        // Encode truncates to MAX_ERROR_MSG_LEN without splitting a
        // UTF-8 scalar...
        let long = "é".repeat(MAX_ERROR_MSG_LEN); // 2 bytes each
        let frame = encode_response(&Response::Error {
            code: ErrorCode::Rejected,
            message: long,
        });
        match decode_response(&frame[4..]).unwrap() {
            Response::Error { message, .. } => {
                assert!(message.len() <= MAX_ERROR_MSG_LEN);
                assert!(!message.is_empty());
            }
            other => panic!("unexpected response: {other:?}"),
        }
        // ...and a hostile frame claiming a longer message is
        // rejected before any allocation happens.
        let mut payload = vec![0x8B, 3];
        payload.extend_from_slice(&((MAX_ERROR_MSG_LEN as u16) + 1).to_le_bytes());
        payload.extend(std::iter::repeat_n(b'x', MAX_ERROR_MSG_LEN + 1));
        assert!(decode_response(&payload).is_err());
        // Unknown error-code byte.
        let payload = vec![0x8B, 99, 0, 0];
        assert!(decode_response(&payload).is_err());
    }
}
