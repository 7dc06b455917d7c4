//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload; the first payload byte is the opcode. Integers are
//! little-endian, `l` travels as `f64` bits, and join pairs are two
//! `u32` point ids — the same representation the engine serves, so a
//! batch frame is one `memcpy`-shaped loop on both sides.
//!
//! ```text
//! request  frames: HELLO   { version, features }
//!                  SAMPLE  { req_id, dataset, l, algorithm, shards, t, seed }
//!                  STATS   { }
//!                  SHUTDOWN{ }
//!                  INSERT  { req_id, dataset, side, count, (x, y) × count }
//!                  DELETE  { req_id, dataset, side, count, id × count }
//!                  EPOCH   { req_id, dataset }
//!                  METRICS { }
//!                  TRACE   { trace_id }
//!                  SLOWLOG { max }
//!                  PING    { token }
//! response frames: WELCOME { version, features }
//!                  BATCH   { req_id, count, (r, s) × count }
//!                  DONE    { req_id, status, samples, iterations,
//!                            elapsed_ns, trace_id }
//!                  STATS   { queries, samples, iterations, errors,
//!                            mean_ns, p50_ns, p99_ns, engines_cached,
//!                            cache_hits, cache_misses,
//!                            connections_accepted, active_connections,
//!                            patch_swaps, cells_patched, last_swap_ns,
//!                            mu_total }
//!                  UPDATE  { req_id, status, first_id, applied, epoch, version }
//!                  EPOCH   { req_id, status, epoch, version, live_r, live_s,
//!                            pending_ops, last_swap_ns }
//!                  METRICS { len, utf8 text (Prometheus exposition) }
//!                  TRACE   { trace_id, count,
//!                            (ns, span_len, span, event_len, event) × count }
//!                  SLOWLOG { count, (trace_id, finished_ns, dataset, t,
//!                            epoch, iterations, queue_wait_ns, elapsed_ns,
//!                            algo_len, algo, span_count, spans...) × count }
//!                  PONG    { token }
//!                  BUSY    { req_id, retry_after_ms }
//!                  ERROR   { code, msg_len, utf8 msg }
//! ```
//!
//! A connection opens with a mandatory handshake: the client's first
//! frame must be `HELLO` carrying [`PROTOCOL_VERSION`] and its feature
//! bits; the server answers `WELCOME` (version + the feature bits it
//! supports) or a terminal `ERROR` frame (version mismatch, or a
//! legacy peer that sent any other frame first) and closes. `PING` is
//! answered with `PONG` directly from the connection's reader thread —
//! a keepalive that never queues behind worker jobs. `BUSY` answers a
//! request the server chose not to serve (rate limit or load shed);
//! the request was **not** executed and may be retried after
//! `retry_after_ms`.
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
/// a frame's layout changes (2: `STATS` is sixteen words).
pub const PROTOCOL_VERSION: u16 = 2;

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

/// Request opcodes.
const OP_SAMPLE: u8 = 0x01;
const OP_STATS: u8 = 0x02;
const OP_SHUTDOWN: u8 = 0x03;
const OP_INSERT: u8 = 0x04;
const OP_DELETE: u8 = 0x05;
const OP_EPOCH: u8 = 0x06;
const OP_METRICS: u8 = 0x07;
const OP_TRACE: u8 = 0x08;
const OP_HELLO: u8 = 0x09;
const OP_PING: u8 = 0x0A;
const OP_SLOWLOG: u8 = 0x0B;
/// Response opcodes.
const OP_BATCH: u8 = 0x81;
const OP_DONE: u8 = 0x82;
const OP_SERVER_STATS: u8 = 0x83;
const OP_UPDATE: u8 = 0x84;
const OP_EPOCH_INFO: u8 = 0x85;
const OP_METRICS_TEXT: u8 = 0x86;
const OP_TRACE_SPANS: u8 = 0x87;
const OP_WELCOME: u8 = 0x88;
const OP_PONG: u8 = 0x89;
const OP_BUSY: u8 = 0x8A;
const OP_ERROR: u8 = 0x8B;
const OP_SLOWLOG_ENTRIES: u8 = 0x8C;

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

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::VersionMismatch => 1,
            ErrorCode::HandshakeRequired => 2,
            ErrorCode::Rejected => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtocolError> {
        match b {
            1 => Ok(ErrorCode::VersionMismatch),
            2 => Ok(ErrorCode::HandshakeRequired),
            3 => Ok(ErrorCode::Rejected),
            _ => Err(ProtocolError::Malformed("unknown error code byte")),
        }
    }
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

impl Side {
    fn to_byte(self) -> u8 {
        match self {
            Side::R => 0,
            Side::S => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtocolError> {
        match b {
            0 => Ok(Side::R),
            1 => Ok(Side::S),
            _ => Err(ProtocolError::Malformed("unknown side byte")),
        }
    }
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

impl RequestStatus {
    fn to_byte(self) -> u8 {
        match self {
            RequestStatus::Ok => 0,
            RequestStatus::UnknownDataset => 1,
            RequestStatus::EmptyJoin => 2,
            RequestStatus::RejectionLimit => 3,
            RequestStatus::BadRequest => 4,
            RequestStatus::ShuttingDown => 5,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => RequestStatus::Ok,
            1 => RequestStatus::UnknownDataset,
            2 => RequestStatus::EmptyJoin,
            3 => RequestStatus::RejectionLimit,
            4 => RequestStatus::BadRequest,
            5 => RequestStatus::ShuttingDown,
            _ => return None,
        })
    }
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
/// for `(dataset, l, shards)` built with `algorithm` (`None` = let the
/// planner pick).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleRequest {
    /// Client-chosen id echoed on every response frame of the answer.
    pub req_id: u32,
    /// Registered dataset id (see `crate::DatasetRegistry`).
    pub dataset: u64,
    /// Window half-extent `l`.
    pub l: f64,
    /// Forced algorithm, or `None` for the planner's choice.
    pub algorithm: Option<Algorithm>,
    /// `R`-shard count for the engine build (`0`/`1` = unsharded).
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
    /// Server-assigned trace id when the request was sampled for
    /// tracing (`0` = untraced); feed it to a `TRACE` request to pull
    /// the request's span records.
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
    /// per-`(l, shards, algorithm)` engine map.
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
    /// Duration of the most recent epoch swap, nanoseconds (maximum
    /// across all serving engines) — the epoch-swap-cost signal.
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
    /// Duration of the most recent engine swap for this dataset
    /// (maximum across its serving engines), nanoseconds.
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
    /// Keepalive probe, answered with `PONG` from the reader thread.
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
    /// Fetch the buffered trace spans for a trace id (as returned in
    /// [`RequestStats::trace_id`]).
    Trace {
        /// The trace to dump.
        trace_id: u64,
    },
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
    /// Answer to a `TRACE` request.
    Trace {
        /// Echo of the requested trace id.
        trace_id: u64,
        /// Buffered span records, oldest first (empty for an unknown
        /// or already-overwritten trace).
        spans: Vec<TraceSpan>,
    },
    /// Answer to a `SLOWLOG` request.
    SlowLog {
        /// Retained slow-request captures, newest first.
        entries: Vec<SlowLogEntry>,
    },
}

/// One retained slow request, as carried by the `SLOWLOG` response
/// frame: the full request context plus the span tree snapshotted when
/// the request breached the latency threshold.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlowLogEntry {
    /// The request's (forced or sampled) trace id.
    pub trace_id: u64,
    /// Server-process-monotone completion timestamp, nanoseconds.
    pub finished_ns: u64,
    /// Served dataset id.
    pub dataset: u64,
    /// Requested sample count.
    pub t: u64,
    /// Serving algorithm name (`auto` when the planner chose).
    pub algorithm: String,
    /// Dataset epoch the request was served against.
    pub epoch: u64,
    /// Rejection-loop iterations the request burned.
    pub iterations: u64,
    /// Time between frame decode and the first worker step,
    /// nanoseconds.
    pub queue_wait_ns: u64,
    /// End-to-end wall time, nanoseconds.
    pub elapsed_ns: u64,
    /// The span tree, oldest first.
    pub spans: Vec<TraceSpan>,
}

/// One span record of a traced request, as carried by the `TRACE`
/// response frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// Server-process-monotone timestamp, nanoseconds.
    pub ns: u64,
    /// Instrumented stage (e.g. `draw_loop`).
    pub span: String,
    /// What happened in the stage (e.g. `begin`).
    pub event: String,
}

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

// ---- primitive encoding helpers -----------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Parser<'a> {
    buf: &'a [u8],
}

impl<'a> Parser<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Parser { buf }
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        let (&b, rest) = self
            .buf
            .split_first()
            .ok_or(ProtocolError::Malformed("truncated u8"))?;
        self.buf = rest;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<2>()
            .ok_or(ProtocolError::Malformed("truncated u16"))?;
        self.buf = rest;
        Ok(u16::from_le_bytes(*head))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<4>()
            .ok_or(ProtocolError::Malformed("truncated u32"))?;
        self.buf = rest;
        Ok(u32::from_le_bytes(*head))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<8>()
            .ok_or(ProtocolError::Malformed("truncated u64"))?;
        self.buf = rest;
        Ok(u64::from_le_bytes(*head))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() < n {
            return Err(ProtocolError::Malformed("truncated bytes"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn str(&mut self, n: usize) -> Result<&'a str, ProtocolError> {
        std::str::from_utf8(self.bytes(n)?).map_err(|_| ProtocolError::Malformed("invalid utf-8"))
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed("trailing bytes"))
        }
    }
}

/// Truncates to at most `max` bytes without splitting a UTF-8
/// scalar.
fn truncate_utf8(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn algorithm_to_byte(a: Option<Algorithm>) -> u8 {
    match a {
        None => 0,
        Some(Algorithm::Kds) => 1,
        Some(Algorithm::KdsRejection) => 2,
        Some(Algorithm::Bbst) => 3,
    }
}

fn algorithm_from_byte(b: u8) -> Result<Option<Algorithm>, ProtocolError> {
    Ok(match b {
        0 => None,
        1 => Some(Algorithm::Kds),
        2 => Some(Algorithm::KdsRejection),
        3 => Some(Algorithm::Bbst),
        _ => return Err(ProtocolError::Malformed("unknown algorithm byte")),
    })
}

/// Encodes a span list: count, then `(ns, span_len, span, event_len,
/// event)` per span — the layout shared by `TRACE` and `SLOWLOG`.
fn put_spans(out: &mut Vec<u8>, spans: &[TraceSpan]) {
    put_u32(out, spans.len() as u32);
    for s in spans {
        put_u64(out, s.ns);
        put_u16(out, s.span.len() as u16);
        out.extend_from_slice(s.span.as_bytes());
        put_u16(out, s.event.len() as u16);
        out.extend_from_slice(s.event.as_bytes());
    }
}

/// Smallest wire size of one span: ns + two empty strings.
const MIN_SPAN_LEN: usize = 12;

/// Decodes a span list as written by [`put_spans`], bounding the
/// allocation against the parser's remaining bytes before trusting the
/// count.
fn parse_spans(p: &mut Parser<'_>) -> Result<Vec<TraceSpan>, ProtocolError> {
    let count = p.u32()? as usize;
    if count * MIN_SPAN_LEN > p.remaining() {
        return Err(ProtocolError::Malformed("span count vs length mismatch"));
    }
    let mut spans = Vec::with_capacity(count);
    for _ in 0..count {
        let ns = p.u64()?;
        let span_len = p.u16()? as usize;
        let span = p.str(span_len)?.to_string();
        let event_len = p.u16()? as usize;
        let event = p.str(event_len)?.to_string();
        spans.push(TraceSpan { ns, span, event });
    }
    Ok(spans)
}

// ---- frame encode/decode -------------------------------------------------

/// Encodes a request into a complete frame (length prefix included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    match req {
        Request::Sample(s) => {
            payload.push(OP_SAMPLE);
            put_u32(&mut payload, s.req_id);
            put_u64(&mut payload, s.dataset);
            put_u64(&mut payload, s.l.to_bits());
            payload.push(algorithm_to_byte(s.algorithm));
            put_u32(&mut payload, s.shards);
            put_u64(&mut payload, s.t);
            put_u64(&mut payload, s.seed);
        }
        Request::Stats => payload.push(OP_STATS),
        Request::Shutdown => payload.push(OP_SHUTDOWN),
        Request::Insert {
            req_id,
            dataset,
            side,
            points,
        } => {
            payload.reserve(points.len() * 16 + 18);
            payload.push(OP_INSERT);
            put_u32(&mut payload, *req_id);
            put_u64(&mut payload, *dataset);
            payload.push(side.to_byte());
            put_u32(&mut payload, points.len() as u32);
            for p in points {
                put_u64(&mut payload, p.x.to_bits());
                put_u64(&mut payload, p.y.to_bits());
            }
        }
        Request::Delete {
            req_id,
            dataset,
            side,
            ids,
        } => {
            payload.reserve(ids.len() * 4 + 18);
            payload.push(OP_DELETE);
            put_u32(&mut payload, *req_id);
            put_u64(&mut payload, *dataset);
            payload.push(side.to_byte());
            put_u32(&mut payload, ids.len() as u32);
            for &id in ids {
                put_u32(&mut payload, id);
            }
        }
        Request::Epoch { req_id, dataset } => {
            payload.push(OP_EPOCH);
            put_u32(&mut payload, *req_id);
            put_u64(&mut payload, *dataset);
        }
        Request::Metrics => payload.push(OP_METRICS),
        Request::Trace { trace_id } => {
            payload.push(OP_TRACE);
            put_u64(&mut payload, *trace_id);
        }
        Request::Hello { version, features } => {
            payload.push(OP_HELLO);
            put_u16(&mut payload, *version);
            put_u32(&mut payload, *features);
        }
        Request::Ping { token } => {
            payload.push(OP_PING);
            put_u64(&mut payload, *token);
        }
        Request::SlowLog { max } => {
            payload.push(OP_SLOWLOG);
            put_u32(&mut payload, *max);
        }
    }
    finish_frame(payload)
}

/// Decodes a request payload (the bytes after the length prefix).
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut p = Parser::new(payload);
    let req = match p.u8()? {
        OP_SAMPLE => {
            let req_id = p.u32()?;
            let dataset = p.u64()?;
            let l = f64::from_bits(p.u64()?);
            let algorithm = algorithm_from_byte(p.u8()?)?;
            let shards = p.u32()?;
            let t = p.u64()?;
            let seed = p.u64()?;
            if !(l.is_finite() && l > 0.0) {
                return Err(ProtocolError::Malformed("non-positive half-extent"));
            }
            Request::Sample(SampleRequest {
                req_id,
                dataset,
                l,
                algorithm,
                shards,
                t,
                seed,
            })
        }
        OP_STATS => Request::Stats,
        OP_SHUTDOWN => Request::Shutdown,
        OP_INSERT => {
            let req_id = p.u32()?;
            let dataset = p.u64()?;
            let side = Side::from_byte(p.u8()?)?;
            let count = p.u32()? as usize;
            if count * 16 != payload.len() - 18 {
                return Err(ProtocolError::Malformed("insert count vs length mismatch"));
            }
            let mut points = Vec::with_capacity(count);
            for _ in 0..count {
                let x = f64::from_bits(p.u64()?);
                let y = f64::from_bits(p.u64()?);
                if !(x.is_finite() && y.is_finite()) {
                    return Err(ProtocolError::Malformed("non-finite point coordinate"));
                }
                points.push(Point::new(x, y));
            }
            Request::Insert {
                req_id,
                dataset,
                side,
                points,
            }
        }
        OP_DELETE => {
            let req_id = p.u32()?;
            let dataset = p.u64()?;
            let side = Side::from_byte(p.u8()?)?;
            let count = p.u32()? as usize;
            if count * 4 != payload.len() - 18 {
                return Err(ProtocolError::Malformed("delete count vs length mismatch"));
            }
            let mut ids = Vec::with_capacity(count);
            for _ in 0..count {
                ids.push(p.u32()?);
            }
            Request::Delete {
                req_id,
                dataset,
                side,
                ids,
            }
        }
        OP_EPOCH => Request::Epoch {
            req_id: p.u32()?,
            dataset: p.u64()?,
        },
        OP_METRICS => Request::Metrics,
        OP_TRACE => Request::Trace { trace_id: p.u64()? },
        OP_HELLO => Request::Hello {
            version: p.u16()?,
            features: p.u32()?,
        },
        OP_PING => Request::Ping { token: p.u64()? },
        OP_SLOWLOG => Request::SlowLog { max: p.u32()? },
        _ => return Err(ProtocolError::Malformed("unknown request opcode")),
    };
    p.finish()?;
    Ok(req)
}

/// Encodes a response into a complete frame (length prefix included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut payload = Vec::with_capacity(32);
    match resp {
        Response::Batch { req_id, pairs } => {
            payload.reserve(pairs.len() * 8 + 9);
            payload.push(OP_BATCH);
            put_u32(&mut payload, *req_id);
            put_u32(&mut payload, pairs.len() as u32);
            for p in pairs {
                put_u32(&mut payload, p.r);
                put_u32(&mut payload, p.s);
            }
        }
        Response::Done {
            req_id,
            status,
            stats,
        } => {
            payload.push(OP_DONE);
            put_u32(&mut payload, *req_id);
            payload.push(status.to_byte());
            put_u64(&mut payload, stats.samples);
            put_u64(&mut payload, stats.iterations);
            put_u64(&mut payload, stats.elapsed_ns);
            put_u64(&mut payload, stats.trace_id);
        }
        Response::ServerStats(s) => {
            payload.push(OP_SERVER_STATS);
            for v in [
                s.queries,
                s.samples,
                s.iterations,
                s.errors,
                s.mean_ns,
                s.p50_ns,
                s.p99_ns,
                s.engines_cached,
                s.cache_hits,
                s.cache_misses,
                s.connections_accepted,
                s.active_connections,
                s.patch_swaps,
                s.cells_patched,
                s.last_swap_ns,
                // Canonicalize: a non-finite Σµ (which a healthy
                // server never produces) must not leak arbitrary NaN
                // bit patterns onto the wire.
                if s.mu_total.is_finite() {
                    s.mu_total.to_bits()
                } else {
                    0.0f64.to_bits()
                },
            ] {
                put_u64(&mut payload, v);
            }
        }
        Response::Update {
            req_id,
            status,
            stats,
        } => {
            payload.push(OP_UPDATE);
            put_u32(&mut payload, *req_id);
            payload.push(status.to_byte());
            put_u32(&mut payload, stats.first_id);
            put_u32(&mut payload, stats.applied);
            put_u64(&mut payload, stats.epoch);
            put_u64(&mut payload, stats.version);
        }
        Response::Metrics { text } => {
            payload.reserve(text.len() + 5);
            payload.push(OP_METRICS_TEXT);
            put_u32(&mut payload, text.len() as u32);
            payload.extend_from_slice(text.as_bytes());
        }
        Response::Trace { trace_id, spans } => {
            payload.push(OP_TRACE_SPANS);
            put_u64(&mut payload, *trace_id);
            put_spans(&mut payload, spans);
        }
        Response::SlowLog { entries } => {
            payload.push(OP_SLOWLOG_ENTRIES);
            put_u32(&mut payload, entries.len() as u32);
            for e in entries {
                put_u64(&mut payload, e.trace_id);
                put_u64(&mut payload, e.finished_ns);
                put_u64(&mut payload, e.dataset);
                put_u64(&mut payload, e.t);
                put_u64(&mut payload, e.epoch);
                put_u64(&mut payload, e.iterations);
                put_u64(&mut payload, e.queue_wait_ns);
                put_u64(&mut payload, e.elapsed_ns);
                put_u16(&mut payload, e.algorithm.len() as u16);
                payload.extend_from_slice(e.algorithm.as_bytes());
                put_spans(&mut payload, &e.spans);
            }
        }
        Response::Welcome { version, features } => {
            payload.push(OP_WELCOME);
            put_u16(&mut payload, *version);
            put_u32(&mut payload, *features);
        }
        Response::Pong { token } => {
            payload.push(OP_PONG);
            put_u64(&mut payload, *token);
        }
        Response::Busy {
            req_id,
            retry_after_ms,
        } => {
            payload.push(OP_BUSY);
            put_u32(&mut payload, *req_id);
            put_u32(&mut payload, *retry_after_ms);
        }
        Response::Error { code, message } => {
            let msg = truncate_utf8(message, MAX_ERROR_MSG_LEN);
            payload.push(OP_ERROR);
            payload.push(code.to_byte());
            put_u16(&mut payload, msg.len() as u16);
            payload.extend_from_slice(msg.as_bytes());
        }
        Response::Epoch {
            req_id,
            status,
            info,
        } => {
            payload.push(OP_EPOCH_INFO);
            put_u32(&mut payload, *req_id);
            payload.push(status.to_byte());
            for v in [
                info.epoch,
                info.version,
                info.live_r,
                info.live_s,
                info.pending_ops,
                info.last_swap_ns,
            ] {
                put_u64(&mut payload, v);
            }
        }
    }
    finish_frame(payload)
}

/// Decodes a response payload (the bytes after the length prefix).
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut p = Parser::new(payload);
    let resp = match p.u8()? {
        OP_BATCH => {
            let req_id = p.u32()?;
            let count = p.u32()? as usize;
            if count * 8 != payload.len() - 9 {
                return Err(ProtocolError::Malformed("batch count vs length mismatch"));
            }
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                let r = p.u32()?;
                let s = p.u32()?;
                pairs.push(JoinPair::new(r, s));
            }
            Response::Batch { req_id, pairs }
        }
        OP_DONE => {
            let req_id = p.u32()?;
            let status = RequestStatus::from_byte(p.u8()?)
                .ok_or(ProtocolError::Malformed("unknown status byte"))?;
            let stats = RequestStats {
                samples: p.u64()?,
                iterations: p.u64()?,
                elapsed_ns: p.u64()?,
                trace_id: p.u64()?,
            };
            Response::Done {
                req_id,
                status,
                stats,
            }
        }
        OP_SERVER_STATS => {
            let mut vals = [0u64; 16];
            for v in &mut vals {
                *v = p.u64()?;
            }
            Response::ServerStats(ServerStatsFrame {
                queries: vals[0],
                samples: vals[1],
                iterations: vals[2],
                errors: vals[3],
                mean_ns: vals[4],
                p50_ns: vals[5],
                p99_ns: vals[6],
                engines_cached: vals[7],
                cache_hits: vals[8],
                cache_misses: vals[9],
                connections_accepted: vals[10],
                active_connections: vals[11],
                patch_swaps: vals[12],
                cells_patched: vals[13],
                last_swap_ns: vals[14],
                mu_total: {
                    let mu = f64::from_bits(vals[15]);
                    if !mu.is_finite() {
                        return Err(ProtocolError::Malformed("non-finite mu_total"));
                    }
                    mu
                },
            })
        }
        OP_UPDATE => {
            let req_id = p.u32()?;
            let status = RequestStatus::from_byte(p.u8()?)
                .ok_or(ProtocolError::Malformed("unknown status byte"))?;
            let stats = UpdateStats {
                first_id: p.u32()?,
                applied: p.u32()?,
                epoch: p.u64()?,
                version: p.u64()?,
            };
            Response::Update {
                req_id,
                status,
                stats,
            }
        }
        OP_EPOCH_INFO => {
            let req_id = p.u32()?;
            let status = RequestStatus::from_byte(p.u8()?)
                .ok_or(ProtocolError::Malformed("unknown status byte"))?;
            let info = EpochInfo {
                epoch: p.u64()?,
                version: p.u64()?,
                live_r: p.u64()?,
                live_s: p.u64()?,
                pending_ops: p.u64()?,
                last_swap_ns: p.u64()?,
            };
            Response::Epoch {
                req_id,
                status,
                info,
            }
        }
        OP_METRICS_TEXT => {
            let len = p.u32()? as usize;
            let text = p.str(len)?.to_string();
            Response::Metrics { text }
        }
        OP_TRACE_SPANS => {
            let trace_id = p.u64()?;
            let spans = parse_spans(&mut p)?;
            Response::Trace { trace_id, spans }
        }
        OP_SLOWLOG_ENTRIES => {
            let count = p.u32()? as usize;
            // Each entry is at least 70 bytes (eight u64 fields, an
            // empty algorithm string, an empty span list); bound the
            // allocation before trusting the count.
            if count * 70 > p.remaining() {
                return Err(ProtocolError::Malformed("slowlog count vs length mismatch"));
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let trace_id = p.u64()?;
                let finished_ns = p.u64()?;
                let dataset = p.u64()?;
                let t = p.u64()?;
                let epoch = p.u64()?;
                let iterations = p.u64()?;
                let queue_wait_ns = p.u64()?;
                let elapsed_ns = p.u64()?;
                let algo_len = p.u16()? as usize;
                let algorithm = p.str(algo_len)?.to_string();
                let spans = parse_spans(&mut p)?;
                entries.push(SlowLogEntry {
                    trace_id,
                    finished_ns,
                    dataset,
                    t,
                    algorithm,
                    epoch,
                    iterations,
                    queue_wait_ns,
                    elapsed_ns,
                    spans,
                });
            }
            Response::SlowLog { entries }
        }
        OP_WELCOME => Response::Welcome {
            version: p.u16()?,
            features: p.u32()?,
        },
        OP_PONG => Response::Pong { token: p.u64()? },
        OP_BUSY => Response::Busy {
            req_id: p.u32()?,
            retry_after_ms: p.u32()?,
        },
        OP_ERROR => {
            let code = ErrorCode::from_byte(p.u8()?)?;
            let len = p.u16()? as usize;
            if len > MAX_ERROR_MSG_LEN {
                return Err(ProtocolError::Malformed("error message too long"));
            }
            let message = p.str(len)?.to_string();
            Response::Error { code, message }
        }
        _ => return Err(ProtocolError::Malformed("unknown response opcode")),
    };
    p.finish()?;
    Ok(resp)
}

/// Prepends the length prefix, turning a payload into a wire frame.
fn finish_frame(payload: Vec<u8>) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "frame exceeds MAX_FRAME_LEN"
    );
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Writes a pre-encoded frame (as produced by the `encode_*` helpers).
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> std::io::Result<()> {
    w.write_all(frame)
}

/// Reads one frame payload. `Ok(None)` on clean EOF at a frame
/// boundary; mid-frame EOF is an error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len_buf = [0u8; 4];
    // Distinguish "connection closed between frames" from "closed
    // mid-frame": the first is a clean end-of-stream.
    match r.read(&mut len_buf)? {
        0 => return Ok(None),
        n => r.read_exact(&mut len_buf[n..])?,
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Outcome of a deadline-aware frame read
/// ([`read_frame_or_idle`]).
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// Clean end-of-stream at a frame boundary.
    Eof,
    /// The socket's read timeout expired with **zero** bytes received
    /// — the peer is idle at a frame boundary, not broken. (A timeout
    /// after partial bytes is a mid-frame stall and surfaces as
    /// [`ProtocolError::Io`].)
    Idle,
}

/// Reads one frame from a stream that has a read timeout set
/// (`TcpStream::set_read_timeout`). A timeout before the first byte
/// of the length prefix is reported as [`FrameRead::Idle`] so the
/// caller can check liveness/shutdown flags and keep waiting; a
/// timeout anywhere inside a frame means the peer stalled mid-frame
/// and is an error.
pub fn read_frame_or_idle<R: Read>(r: &mut R) -> Result<FrameRead, ProtocolError> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(FrameRead::Eof),
        Ok(n) => r.read_exact(&mut len_buf[n..])?,
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            return Ok(FrameRead::Idle);
        }
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(FrameRead::Frame(payload))
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
        if pending.len() < 4 {
            self.maybe_compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(ProtocolError::TooLarge(len));
        }
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

    fn roundtrip_request(req: Request) {
        let frame = encode_request(&req);
        let mut cursor = std::io::Cursor::new(&frame);
        let payload = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(decode_request(&payload).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let frame = encode_response(&resp);
        let mut cursor = std::io::Cursor::new(&frame);
        let payload = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        for algorithm in [
            None,
            Some(Algorithm::Kds),
            Some(Algorithm::KdsRejection),
            Some(Algorithm::Bbst),
        ] {
            roundtrip_request(Request::Sample(SampleRequest {
                req_id: 7,
                dataset: 0xDEAD_BEEF,
                l: 123.456,
                algorithm,
                shards: 4,
                t: 1_000_000,
                seed: 42,
            }));
        }
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Trace { trace_id: 0xFEED });
    }

    #[test]
    fn observability_responses_roundtrip() {
        roundtrip_response(Response::Metrics {
            text: String::new(),
        });
        roundtrip_response(Response::Metrics {
            text: "# TYPE srj_requests_total counter\nsrj_requests_total 5\n".to_string(),
        });
        roundtrip_response(Response::Trace {
            trace_id: 42,
            spans: Vec::new(),
        });
        roundtrip_response(Response::Trace {
            trace_id: 42,
            spans: vec![
                TraceSpan {
                    ns: 1_000,
                    span: "frame_decode".to_string(),
                    event: "begin".to_string(),
                },
                TraceSpan {
                    ns: 2_000,
                    span: "draw_loop".to_string(),
                    event: "end".to_string(),
                },
            ],
        });
    }

    fn slow_entry(trace_id: u64) -> SlowLogEntry {
        SlowLogEntry {
            trace_id,
            finished_ns: 1_000_000,
            dataset: 3,
            t: 50_000,
            algorithm: "auto".to_string(),
            epoch: 2,
            iterations: 123_456,
            queue_wait_ns: 7_890,
            elapsed_ns: 42_000_000,
            spans: vec![
                TraceSpan {
                    ns: 10,
                    span: "frame_decode".to_string(),
                    event: "sample_request".to_string(),
                },
                TraceSpan {
                    ns: 20,
                    span: "draw_loop".to_string(),
                    event: "begin".to_string(),
                },
            ],
        }
    }

    #[test]
    fn slowlog_frames_roundtrip() {
        roundtrip_request(Request::SlowLog { max: 0 });
        roundtrip_request(Request::SlowLog { max: 32 });
        roundtrip_response(Response::SlowLog {
            entries: Vec::new(),
        });
        roundtrip_response(Response::SlowLog {
            entries: vec![slow_entry(9), slow_entry(8)],
        });
        // An entry with no spans and an empty algorithm name is the
        // minimal (70-byte) wire form.
        roundtrip_response(Response::SlowLog {
            entries: vec![SlowLogEntry::default()],
        });
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
        // Claim a huge span count inside the single entry: the nested
        // span guard must reject it. The span count sits after the
        // opcode, entry count, eight u64 fields, and "auto".
        let mut payload = frame[4..].to_vec();
        let off = 1 + 4 + 64 + 2 + 4;
        payload[off..off + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
        assert!(decode_response(&payload).is_err());
        // Truncating the final span mid-string is a malformed frame.
        let short = &frame[4..frame.len() - 3];
        assert!(decode_response(short).is_err());
    }

    #[test]
    fn trace_span_count_mismatch_is_rejected() {
        let frame = encode_response(&Response::Trace {
            trace_id: 1,
            spans: vec![TraceSpan {
                ns: 5,
                span: "a".to_string(),
                event: "b".to_string(),
            }],
        });
        let mut payload = frame[4..].to_vec();
        // claim 1000 spans: must fail the pre-allocation bound check
        payload[9..13].copy_from_slice(&1000u32.to_le_bytes());
        assert!(decode_response(&payload).is_err());
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
    fn update_requests_roundtrip() {
        for side in [Side::R, Side::S] {
            roundtrip_request(Request::Insert {
                req_id: 11,
                dataset: 7,
                side,
                points: vec![Point::new(1.5, -2.5), Point::new(0.0, 9999.0)],
            });
            roundtrip_request(Request::Insert {
                req_id: 12,
                dataset: 7,
                side,
                points: Vec::new(),
            });
            roundtrip_request(Request::Delete {
                req_id: 13,
                dataset: 7,
                side,
                ids: vec![0, 42, u32::MAX],
            });
        }
        roundtrip_request(Request::Epoch {
            req_id: 14,
            dataset: 7,
        });
    }

    #[test]
    fn update_responses_roundtrip() {
        roundtrip_response(Response::Update {
            req_id: 21,
            status: RequestStatus::Ok,
            stats: UpdateStats {
                first_id: 100,
                applied: 3,
                epoch: 2,
                version: 17,
            },
        });
        roundtrip_response(Response::Update {
            req_id: 22,
            status: RequestStatus::UnknownDataset,
            stats: UpdateStats::default(),
        });
        roundtrip_response(Response::Epoch {
            req_id: 23,
            status: RequestStatus::Ok,
            info: EpochInfo {
                epoch: 3,
                version: 99,
                live_r: 1000,
                live_s: 2000,
                pending_ops: 12,
                last_swap_ns: 1_234_567,
            },
        });
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
        // NaN coordinate
        let mut frame = encode_request(&Request::Insert {
            req_id: 0,
            dataset: 1,
            side: Side::R,
            points: vec![Point::new(1.0, 2.0)],
        });
        let off = frame.len() - 8;
        frame[off..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(decode_request(&frame[4..]).is_err());
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
    fn responses_roundtrip() {
        roundtrip_response(Response::Batch {
            req_id: 3,
            pairs: (0..1000).map(|i| JoinPair::new(i, i * 2)).collect(),
        });
        roundtrip_response(Response::Batch {
            req_id: 0,
            pairs: Vec::new(),
        });
        for status in [
            RequestStatus::Ok,
            RequestStatus::UnknownDataset,
            RequestStatus::EmptyJoin,
            RequestStatus::RejectionLimit,
            RequestStatus::BadRequest,
            RequestStatus::ShuttingDown,
        ] {
            roundtrip_response(Response::Done {
                req_id: 9,
                status,
                stats: RequestStats {
                    samples: 100,
                    iterations: 250,
                    elapsed_ns: 12_345,
                    trace_id: 77,
                },
            });
        }
        roundtrip_response(Response::ServerStats(ServerStatsFrame {
            queries: 1,
            samples: 2,
            iterations: 3,
            errors: 4,
            mean_ns: 5,
            p50_ns: 6,
            p99_ns: 7,
            engines_cached: 8,
            cache_hits: 9,
            cache_misses: 10,
            connections_accepted: 11,
            active_connections: 12,
            patch_swaps: 13,
            cells_patched: 14,
            last_swap_ns: 15,
            mu_total: 1234.5,
        }));
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
        assert!(decode_request(&[OP_SAMPLE, 1, 2]).is_err(), "truncated");
        // trailing garbage after a valid STATS
        assert!(decode_request(&[OP_STATS, 0]).is_err());
        // NaN / negative half-extent
        let mut frame = encode_request(&Request::Sample(SampleRequest {
            req_id: 0,
            dataset: 1,
            l: 1.0,
            algorithm: None,
            shards: 1,
            t: 1,
            seed: 0,
        }));
        // stomp the l bits (offset: 4 len + 1 op + 4 req_id + 8 dataset)
        frame[17..25].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(decode_request(&frame[4..]).is_err());

        assert!(decode_response(&[OP_BATCH, 0, 0, 0, 0, 9, 0, 0, 0]).is_err());
    }

    #[test]
    fn handshake_and_control_frames_roundtrip() {
        roundtrip_request(Request::Hello {
            version: PROTOCOL_VERSION,
            features: SERVER_FEATURES,
        });
        roundtrip_request(Request::Hello {
            version: 0,
            features: 0,
        });
        roundtrip_request(Request::Ping { token: u64::MAX });
        roundtrip_response(Response::Welcome {
            version: PROTOCOL_VERSION,
            features: SERVER_FEATURES,
        });
        roundtrip_response(Response::Pong { token: 0xDEAD });
        roundtrip_response(Response::Busy {
            req_id: 7,
            retry_after_ms: 125,
        });
        for code in [
            ErrorCode::VersionMismatch,
            ErrorCode::HandshakeRequired,
            ErrorCode::Rejected,
        ] {
            roundtrip_response(Response::Error {
                code,
                message: format!("{code}"),
            });
        }
        roundtrip_response(Response::Error {
            code: ErrorCode::Rejected,
            message: String::new(),
        });
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
        let mut payload = vec![OP_ERROR, 3];
        payload.extend_from_slice(&((MAX_ERROR_MSG_LEN as u16) + 1).to_le_bytes());
        payload.extend(std::iter::repeat_n(b'x', MAX_ERROR_MSG_LEN + 1));
        assert!(decode_response(&payload).is_err());
        // Unknown error-code byte.
        let payload = vec![OP_ERROR, 99, 0, 0];
        assert!(decode_response(&payload).is_err());
    }

    /// `Idle` only at a frame boundary: a timeout mid-frame is a
    /// broken peer, not an idle one.
    #[test]
    fn read_frame_or_idle_distinguishes_idle_eof_and_stall() {
        struct Script(Vec<std::io::Result<Vec<u8>>>);
        impl Read for Script {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.0.pop() {
                    None => Ok(0),
                    Some(Ok(bytes)) => {
                        buf[..bytes.len()].copy_from_slice(&bytes);
                        Ok(bytes.len())
                    }
                    Some(Err(e)) => Err(e),
                }
            }
        }
        let timeout = || std::io::Error::from(std::io::ErrorKind::WouldBlock);

        // Timeout before any byte: Idle.
        let mut r = Script(vec![Err(timeout())]);
        assert!(matches!(read_frame_or_idle(&mut r), Ok(FrameRead::Idle)));
        // EOF at the boundary: Eof.
        let mut r = Script(vec![]);
        assert!(matches!(read_frame_or_idle(&mut r), Ok(FrameRead::Eof)));
        // Two length bytes then a timeout: mid-frame stall, error.
        let mut r = Script(vec![Err(timeout()), Ok(vec![2, 0])]);
        assert!(matches!(
            read_frame_or_idle(&mut r),
            Err(ProtocolError::Io(_))
        ));
        // A whole frame delivered byte-wise still parses.
        let frame = encode_request(&Request::Ping { token: 9 });
        let mut r = Script(frame.iter().rev().map(|&b| Ok(vec![b])).collect());
        match read_frame_or_idle(&mut r) {
            Ok(FrameRead::Frame(payload)) => {
                assert_eq!(
                    decode_request(&payload).unwrap(),
                    Request::Ping { token: 9 }
                );
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let mut cursor = std::io::Cursor::new(&bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::TooLarge(_))
        ));
    }

    #[test]
    fn clean_eof_is_none_midframe_eof_is_error() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut empty).unwrap().is_none());
        // length says 10 bytes, stream has 2
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&10u32.to_le_bytes());
        bytes.extend_from_slice(&[1, 2]);
        let mut cursor = std::io::Cursor::new(&bytes);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn accumulator_reassembles_byte_at_a_time() {
        let reqs = [
            Request::Ping { token: 3 },
            Request::Stats,
            Request::Sample(SampleRequest {
                req_id: 1,
                dataset: 2,
                l: 4.5,
                algorithm: None,
                shards: 1,
                t: 10,
                seed: 6,
            }),
        ];
        let mut wire = Vec::new();
        for req in &reqs {
            wire.extend_from_slice(&encode_request(req));
        }
        let mut acc = FrameAccumulator::new();
        let mut decoded = Vec::new();
        for &b in &wire {
            acc.extend(&[b]);
            while let Some(payload) = acc.next_frame().unwrap() {
                decoded.push(decode_request(&payload).unwrap());
            }
        }
        assert_eq!(decoded, reqs);
        assert!(!acc.has_partial());
        assert_eq!(acc.buffered(), 0);
    }

    #[test]
    fn accumulator_rejects_oversized_prefix_before_payload() {
        let mut acc = FrameAccumulator::new();
        acc.extend(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(acc.next_frame(), Err(ProtocolError::TooLarge(_))));
    }

    #[test]
    fn accumulator_tracks_partial_state() {
        let frame = encode_request(&Request::Ping { token: 11 });
        let mut acc = FrameAccumulator::new();
        assert!(!acc.has_partial());
        acc.extend(&frame[..3]);
        assert!(acc.next_frame().unwrap().is_none());
        assert!(acc.has_partial(), "a split length prefix is mid-frame");
        acc.extend(&frame[3..]);
        let payload = acc.next_frame().unwrap().unwrap();
        assert_eq!(
            decode_request(&payload).unwrap(),
            Request::Ping { token: 11 }
        );
        assert!(!acc.has_partial());
    }
}
