//! A blocking, fault-tolerant client for the `srj-server` protocol.
//!
//! One [`Client`] owns one TCP connection, opened under
//! [`ClientConfig::connect_timeout`] and versioned by the mandatory
//! `HELLO`/`WELCOME` handshake. [`Client::sample`] issues a `SAMPLE`
//! request and collects the whole answer; [`Client::sample_with`]
//! hands each batch to a callback as it arrives, which is both the
//! streaming consumption mode and — because a callback that dawdles
//! stops reading the socket — the natural way to exercise the server's
//! backpressure.
//!
//! **Retry semantics.** Every request runs the same retry loop: a
//! `BUSY{retry_after_ms}` answer is counted, backed off (jittered
//! exponential backoff, never less than the server's hint) and resent;
//! a transport failure is backed off, reconnected and resent when the
//! request allows it; every resend counts against
//! [`ClientConfig::retries`]. What a transport failure may resend
//! differs by request:
//!
//! * reads (`SAMPLE`, `STATS`, `METRICS`, `EPOCH`, `SLOWLOG`,
//!   `PING`)
//!   are idempotent — transport failures reconnect and resend freely
//!   ([`Client::sample`] restarts with a fresh buffer;
//!   [`Client::sample_with`] only resends while *zero* batches have
//!   reached the callback, since delivered pairs cannot be recalled);
//! * mutations (`INSERT`/`DELETE`) are **not** idempotent over a lost
//!   answer. The client probes the dataset's `EPOCH` counters before
//!   sending; after a transport failure it reconnects, re-probes, and
//!   resends only when the counters are unchanged (the mutation
//!   provably did not apply). A changed counter surfaces as
//!   [`ClientError::AmbiguousMutation`] — with this client as the
//!   dataset's sole mutator that means "applied, answer lost", and
//!   callers holding a ledger (e.g. the chaos harness) can resolve it
//!   from the live counts. `BUSY` answers to mutations are always safe
//!   to retry: the server declined before applying anything.

use std::cell::Cell;
use std::io::Read;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use srj_core::JoinPair;
use srj_geom::Point;

use crate::fault::FaultRng;
use crate::protocol::{
    decode_response, encode_request, payload_len, write_frame, EpochInfo, ErrorCode, ProtocolError,
    Request, RequestStats, RequestStatus, Response, SampleRequest, ServerStatsFrame, Side,
    FEAT_BUSY, FEAT_KEEPALIVE, FEAT_MUTATIONS, PROTOCOL_VERSION,
};
use crate::server::timeout_opt;

/// Initial size of a connection's read buffer: room for a short answer
/// (`BATCH` + `DONE`) in one `read(2)`. It grows to the largest frame
/// the connection has seen.
const READ_BUF_BYTES: usize = 16 * 1024;

/// Connection and retry knobs. The defaults suit an interactive client
/// on a healthy network; a chaos harness raises `retries`.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Deadline for the TCP connect itself. Default 5 s. Zero blocks
    /// indefinitely (plain `connect`).
    pub connect_timeout: Duration,
    /// Socket read deadline; an answer stalled past it counts as a
    /// transport failure (and retries, when the request allows).
    /// Default 30 s. Zero disables.
    pub read_timeout: Duration,
    /// Socket write deadline. Default 30 s. Zero disables.
    pub write_timeout: Duration,
    /// `TCP_NODELAY` on the connection. Default `true` — the protocol
    /// is request/response, Nagle only adds latency.
    pub nodelay: bool,
    /// Resends allowed per request after `BUSY` answers or transport
    /// failures. Default 3. Zero also skips the pre-mutation `EPOCH`
    /// probe (no retry, nothing to classify).
    pub retries: u32,
    /// First backoff step; doubles each retry. Default 50 ms.
    pub backoff_base: Duration,
    /// Backoff ceiling. Default 2 s.
    pub backoff_max: Duration,
    /// Seed for the backoff jitter stream (any value works; two
    /// clients with different seeds desynchronise their retry storms).
    pub jitter_seed: u64,
    /// Feature bits advertised in `HELLO`. Default: everything this
    /// client implements.
    pub features: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            nodelay: true,
            retries: 3,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            jitter_seed: 0,
            features: FEAT_KEEPALIVE | FEAT_BUSY | FEAT_MUTATIONS,
        }
    }
}

/// Client-side failure modes.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Protocol(ProtocolError),
    /// The server answered out of protocol (wrong frame kind or an
    /// unexpected request id).
    Unexpected(&'static str),
    /// The connection ended before the answer completed.
    Disconnected,
    /// The server answered `BUSY` and the retry budget is exhausted;
    /// carries the server's last `retry_after_ms` hint.
    Busy {
        /// The server's suggested wait before re-offering.
        retry_after_ms: u32,
    },
    /// The server refused the connection or request with an `ERROR`
    /// frame (version mismatch, missing handshake, …).
    Rejected {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// A mutation's answer was lost and the dataset's epoch/version
    /// moved meanwhile, so the client cannot prove the mutation did
    /// not apply. Sole-mutator callers can resolve this from the
    /// dataset's live counts ([`Client::epoch`]).
    AmbiguousMutation,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Unexpected(what) => write!(f, "unexpected server answer: {what}"),
            ClientError::Disconnected => write!(f, "server closed the connection mid-answer"),
            ClientError::Busy { retry_after_ms } => {
                write!(f, "server busy (retry after {retry_after_ms} ms)")
            }
            ClientError::Rejected { code, message } => {
                write!(f, "server rejected the connection ({code}): {message}")
            }
            ClientError::AmbiguousMutation => {
                write!(
                    f,
                    "mutation answer lost; server state moved, cannot prove non-application"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Protocol(ProtocolError::Io(e))
    }
}

/// Whether an error is a transport failure (reconnect + resend might
/// help) rather than a semantic answer.
fn is_transport(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Protocol(ProtocolError::Io(_)) | ClientError::Disconnected
    )
}

/// Whether a request whose attempt failed in transport may be resent.
enum Resend {
    /// It is idempotent.
    Always,
    /// It is not: a stream already handed out pairs, or a mutation has
    /// no baseline to prove non-application against.
    Never,
    /// A mutation, once the dataset's `(epoch, version)` — probed after
    /// the reconnect — still equals the pre-send baseline: the
    /// interrupted attempt provably did not apply.
    IfUnmoved(u64, (u64, u64)),
}

/// A completed `SAMPLE` answer.
#[derive(Debug)]
pub struct SampleOutcome {
    /// How the server ended the request. [`RequestStatus::Ok`] means
    /// all `t` samples arrived; any other status may come with a
    /// partial prefix of the stream.
    pub status: RequestStatus,
    /// Server-side per-request statistics from the `DONE` frame.
    pub stats: RequestStats,
    /// Samples received (empty for [`Client::sample_with`], which
    /// hands them to the callback instead).
    pub pairs: Vec<JoinPair>,
}

/// A completed `INSERT`/`DELETE` answer (see
/// [`crate::protocol::UpdateStats`] for the field semantics).
#[derive(Clone, Copy, Debug)]
pub struct UpdateOutcome {
    /// How the mutation ended.
    pub status: RequestStatus,
    /// First assigned id (inserts; contiguous per call).
    pub first_id: u32,
    /// Operations actually applied.
    pub applied: u32,
    /// Dataset epoch after the mutation.
    pub epoch: u64,
    /// Dataset version after the mutation.
    pub version: u64,
}

/// One blocking connection to an `srj-server`, with reconnect/retry
/// state (see the module docs for what is safe to resend).
pub struct Client {
    stream: TcpStream,
    /// Bytes read off `stream` and not yet decoded: `rbuf[rpos..rend]`.
    /// One `read(2)` takes whatever the socket holds — usually a whole
    /// answer — and frames are decoded in place. The bytes belong to
    /// *this* connection: [`Client::reconnect`] discards them.
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    /// Resolved server addresses, kept for reconnects.
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    next_req_id: u32,
    /// Feature bits the server advertised in `WELCOME`.
    server_features: u32,
    /// Resends performed (both `BUSY`- and transport-triggered).
    retries_total: u64,
    /// `BUSY` answers received.
    busy_answers: u64,
    jitter: FaultRng,
}

impl Client {
    /// Connects with the default [`ClientConfig`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects (under `config.connect_timeout`) and performs the
    /// `HELLO`/`WELCOME` handshake. A server speaking another protocol
    /// version answers a clean `ERROR` frame, surfaced as
    /// [`ClientError::Rejected`].
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        config: ClientConfig,
    ) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(ClientError::Unexpected("address resolved to nothing"));
        }
        let stream = dial(&addrs, &config)?;
        let mut client = Client {
            stream,
            rbuf: vec![0u8; READ_BUF_BYTES],
            rpos: 0,
            rend: 0,
            addrs,
            config,
            next_req_id: 1,
            server_features: 0,
            retries_total: 0,
            busy_answers: 0,
            jitter: FaultRng::new(config.jitter_seed ^ 0x6A17_7E5E_ED5E_ED00),
        };
        client.handshake()?;
        Ok(client)
    }

    /// Feature bits the server advertised in `WELCOME`.
    pub fn server_features(&self) -> u32 {
        self.server_features
    }

    /// Resends this client has performed (after `BUSY` answers or
    /// transport failures).
    pub fn retries(&self) -> u64 {
        self.retries_total
    }

    /// `BUSY` answers this client has received.
    pub fn busy_answers(&self) -> u64 {
        self.busy_answers
    }

    /// Round-trips a keepalive `PING` (retried like any idempotent
    /// read).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let token = u64::from(self.next_id()) | 0x5157_0000_0000_0000;
        match self.exchange(&Request::Ping { token })? {
            Response::Pong { token: t } if t == token => Ok(()),
            _ => Err(ClientError::Unexpected("expected a pong frame")),
        }
    }

    /// Draws `req.t` samples, collecting every batch. `req.req_id` is
    /// overwritten with a connection-unique id. Retries freely: every
    /// attempt restarts with a fresh buffer, so a mid-stream transport
    /// failure costs time, never correctness.
    pub fn sample(&mut self, req: SampleRequest) -> Result<SampleOutcome, ClientError> {
        self.retrying(
            |client| {
                let mut pairs = Vec::new();
                let outcome = client.try_sample(req, |batch| pairs.extend_from_slice(batch))?;
                Ok(SampleOutcome { pairs, ..outcome })
            },
            || Resend::Always,
        )
    }

    /// Draws `req.t` samples, handing each batch to `on_batch` as it
    /// arrives. The callback runs between socket reads: a slow callback
    /// is a slow reader, and the server parks this request (only) until
    /// the client catches up. Transport failures are retried only while
    /// zero batches have reached the callback — delivered pairs cannot
    /// be recalled, so a mid-stream failure surfaces as an error.
    pub fn sample_with(
        &mut self,
        req: SampleRequest,
        mut on_batch: impl FnMut(&[JoinPair]),
    ) -> Result<SampleOutcome, ClientError> {
        let delivered = Cell::new(false);
        self.retrying(
            |client| {
                client.try_sample(req, |batch| {
                    delivered.set(true);
                    on_batch(batch);
                })
            },
            || {
                if delivered.get() {
                    Resend::Never
                } else {
                    Resend::Always
                }
            },
        )
    }

    /// One `SAMPLE` attempt on the current connection.
    fn try_sample(
        &mut self,
        mut req: SampleRequest,
        mut on_batch: impl FnMut(&[JoinPair]),
    ) -> Result<SampleOutcome, ClientError> {
        req.req_id = self.next_id();
        write_frame(&mut self.stream, &encode_request(&Request::Sample(req)))?;
        loop {
            match self.read_response()? {
                Response::Batch { req_id, pairs } if req_id == req.req_id => on_batch(&pairs),
                Response::Done {
                    req_id,
                    status,
                    stats,
                } if req_id == req.req_id => {
                    return Ok(SampleOutcome {
                        status,
                        stats,
                        pairs: Vec::new(),
                    });
                }
                Response::Busy {
                    req_id,
                    retry_after_ms,
                } if req_id == req.req_id => {
                    return Err(ClientError::Busy { retry_after_ms });
                }
                Response::Error { code, message } => {
                    return Err(ClientError::Rejected { code, message });
                }
                _ => return Err(ClientError::Unexpected("frame for a different request")),
            }
        }
    }

    /// Inserts `points` into one side of a dataset. On
    /// [`RequestStatus::Ok`] the points were assigned the contiguous id
    /// range starting at [`UpdateOutcome::first_id`] (epoch-relative —
    /// a later rebuild renumbers ids; watch [`UpdateOutcome::epoch`] /
    /// [`Client::epoch`]). See the module docs for the retry contract.
    pub fn insert(
        &mut self,
        dataset: u64,
        side: Side,
        points: &[Point],
    ) -> Result<UpdateOutcome, ClientError> {
        let req = Request::Insert {
            req_id: 0,
            dataset,
            side,
            points: points.to_vec(),
        };
        self.mutate(dataset, req)
    }

    /// Tombstones points of one side of a dataset by id. Unknown or
    /// already-deleted ids are skipped; [`UpdateOutcome::applied`]
    /// counts the ids that actually took effect. See the module docs
    /// for the retry contract.
    pub fn delete(
        &mut self,
        dataset: u64,
        side: Side,
        ids: &[u32],
    ) -> Result<UpdateOutcome, ClientError> {
        let req = Request::Delete {
            req_id: 0,
            dataset,
            side,
            ids: ids.to_vec(),
        };
        self.mutate(dataset, req)
    }

    /// The shared mutation path: probe, send, and classify failures so
    /// a mutation is only ever resent when it provably did not apply.
    fn mutate(&mut self, dataset: u64, mut req: Request) -> Result<UpdateOutcome, ClientError> {
        // The baseline the non-application proof compares against. Not
        // probed when retries are off — there would be nothing to
        // classify — and absent when the server refuses the probe
        // (unknown dataset: the mutation below earns the same refusal
        // as its own clean UPDATE status).
        let baseline = if self.config.retries > 0 {
            self.baseline_counters(dataset)?
        } else {
            None
        };
        self.retrying(
            |client| {
                let req_id = client.next_id();
                match &mut req {
                    Request::Insert { req_id: id, .. } | Request::Delete { req_id: id, .. } => {
                        *id = req_id;
                    }
                    _ => unreachable!("mutate() only takes mutation requests"),
                }
                write_frame(&mut client.stream, &encode_request(&req))?;
                match client.read_response()? {
                    Response::Update {
                        req_id: rid,
                        status,
                        stats,
                    } if rid == req_id => Ok(UpdateOutcome {
                        status,
                        first_id: stats.first_id,
                        applied: stats.applied,
                        epoch: stats.epoch,
                        version: stats.version,
                    }),
                    // BUSY is an admission-control answer: the server
                    // declined before touching the store, so resending
                    // is always safe.
                    Response::Busy {
                        req_id: rid,
                        retry_after_ms,
                    } if rid == req_id => Err(ClientError::Busy { retry_after_ms }),
                    Response::Error { code, message } => {
                        Err(ClientError::Rejected { code, message })
                    }
                    _ => Err(ClientError::Unexpected("expected an update frame")),
                }
            },
            || {
                baseline.map_or(Resend::Never, |counters| {
                    Resend::IfUnmoved(dataset, counters)
                })
            },
        )
    }

    /// Queries a dataset's epoch/version state.
    pub fn epoch(&mut self, dataset: u64) -> Result<(RequestStatus, EpochInfo), ClientError> {
        let req_id = self.next_id();
        match self.exchange(&Request::Epoch { req_id, dataset })? {
            Response::Epoch {
                req_id: rid,
                status,
                info,
            } if rid == req_id => Ok((status, info)),
            _ => Err(ClientError::Unexpected("expected an epoch frame")),
        }
    }

    /// `(epoch, version)` of a dataset, for mutation-retry proofs.
    fn probe_counters(&mut self, dataset: u64) -> Result<(u64, u64), ClientError> {
        let (status, info) = self.epoch(dataset)?;
        if status != RequestStatus::Ok {
            return Err(ClientError::Unexpected("epoch probe refused"));
        }
        Ok((info.epoch, info.version))
    }

    /// Pre-mutation baseline: like [`Self::probe_counters`], but a
    /// refused probe is `None` rather than an error, so a mutation
    /// against an unknown dataset still reaches the server and comes
    /// back with its proper `UNKNOWN_DATASET` status.
    fn baseline_counters(&mut self, dataset: u64) -> Result<Option<(u64, u64)>, ClientError> {
        let (status, info) = self.epoch(dataset)?;
        Ok((status == RequestStatus::Ok).then_some((info.epoch, info.version)))
    }

    fn next_id(&mut self) -> u32 {
        let id = self.next_req_id;
        self.next_req_id = self.next_req_id.wrapping_add(1);
        id
    }

    /// Fetches server-wide aggregate statistics.
    pub fn server_stats(&mut self) -> Result<ServerStatsFrame, ClientError> {
        match self.exchange(&Request::Stats)? {
            Response::ServerStats(frame) => Ok(frame),
            _ => Err(ClientError::Unexpected("expected a stats frame")),
        }
    }

    /// Fetches the server's metrics in the Prometheus text exposition
    /// format (the `METRICS` frame; what `srj-top` polls).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.exchange(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            _ => Err(ClientError::Unexpected("expected a metrics frame")),
        }
    }

    /// Fetches the server's slow-request log: up to `max` of the most
    /// recent over-threshold requests, newest first, each with its
    /// request context and stage record. A captured request's `DONE`
    /// carries its entry's id ([`RequestStats::trace_id`]). The server
    /// additionally caps the answer at its own retention/frame limit.
    pub fn slow_log(
        &mut self,
        max: u32,
    ) -> Result<Vec<crate::protocol::SlowLogEntry>, ClientError> {
        match self.exchange(&Request::SlowLog { max })? {
            Response::SlowLog { entries } => Ok(entries),
            _ => Err(ClientError::Unexpected("expected a slow-log frame")),
        }
    }

    /// Asks the server to shut down gracefully. The connection is
    /// unusable afterwards.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        write_frame(&mut self.stream, &encode_request(&Request::Shutdown))?;
        Ok(())
    }

    /// One idempotent request/answer exchange with the full retry
    /// treatment. Only used for requests that are safe to replay.
    fn exchange(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.retrying(
            |client| {
                write_frame(&mut client.stream, &encode_request(req))?;
                match client.read_response()? {
                    Response::Busy { retry_after_ms, .. } => {
                        Err(ClientError::Busy { retry_after_ms })
                    }
                    Response::Error { code, message } => {
                        Err(ClientError::Rejected { code, message })
                    }
                    resp => Ok(resp),
                }
            },
            || Resend::Always,
        )
    }

    /// The one retry loop every request runs. `attempt` tries once on
    /// the current connection. A `BUSY` is counted and backed off with
    /// the server's hint, then resent; a transport failure is resent
    /// after a backoff and a reconnect when `resend` allows it. Each
    /// resend counts as a retry, and `ClientConfig::retries` of them
    /// end the loop with the last failure.
    fn retrying<T>(
        &mut self,
        mut attempt: impl FnMut(&mut Self) -> Result<T, ClientError>,
        resend: impl Fn() -> Resend,
    ) -> Result<T, ClientError> {
        for n in 0.. {
            match attempt(self) {
                Err(ClientError::Busy { retry_after_ms }) => {
                    self.busy_answers += 1;
                    if n >= self.config.retries {
                        return Err(ClientError::Busy { retry_after_ms });
                    }
                    self.backoff(n, retry_after_ms);
                }
                Err(e) if is_transport(&e) => {
                    let resend = resend();
                    if matches!(resend, Resend::Never) || n >= self.config.retries {
                        return Err(e);
                    }
                    self.backoff(n, 0);
                    self.reconnect()?;
                    // A moved counter means *some* mutation (with a sole
                    // mutator: ours) or a compaction landed — resending
                    // could double-apply, so surface the ambiguity.
                    if let Resend::IfUnmoved(dataset, counters) = resend {
                        if self.probe_counters(dataset)? != counters {
                            return Err(ClientError::AmbiguousMutation);
                        }
                    }
                }
                result => return result,
            }
            self.retries_total += 1;
        }
        unreachable!("the retry budget is a u32")
    }

    /// Sleeps the jittered exponential backoff for `attempt`, never
    /// less than the server's `retry_after_ms` hint.
    fn backoff(&mut self, attempt: u32, retry_after_ms: u32) {
        let step = self
            .config
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16));
        let capped = step
            .min(self.config.backoff_max)
            .max(Duration::from_millis(1));
        // Half deterministic, half jitter: concurrent clients shed at
        // the same instant spread their re-offers apart.
        let half_ns = (capped.as_nanos() / 2).min(u128::from(u64::MAX)) as u64;
        let wait = Duration::from_nanos(half_ns)
            + Duration::from_nanos(self.jitter.next_u64() % half_ns.max(1));
        let hint = Duration::from_millis(u64::from(retry_after_ms));
        std::thread::sleep(wait.max(hint));
    }

    /// Re-dials and re-handshakes after a transport failure.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.stream = dial(&self.addrs, &self.config)?;
        // Whatever the dead connection left half-read is not a prefix
        // of anything the new one will send.
        (self.rpos, self.rend) = (0, 0);
        self.handshake()
    }

    /// The client half of the mandatory handshake.
    fn handshake(&mut self) -> Result<(), ClientError> {
        write_frame(
            &mut self.stream,
            &encode_request(&Request::Hello {
                version: PROTOCOL_VERSION,
                features: self.config.features,
            }),
        )?;
        match self.read_response()? {
            Response::Welcome { features, .. } => {
                self.server_features = features;
                Ok(())
            }
            Response::Error { code, message } => Err(ClientError::Rejected { code, message }),
            _ => Err(ClientError::Unexpected("expected a welcome frame")),
        }
    }

    /// The next response frame: decoded straight out of the read
    /// buffer when it is already there, else after as many `read(2)`s
    /// as the frame needs. End-of-stream at a frame boundary is
    /// [`ClientError::Disconnected`]; inside a frame it is an I/O error
    /// — both transport failures.
    fn read_response(&mut self) -> Result<Response, ClientError> {
        loop {
            if self.rpos == self.rend {
                (self.rpos, self.rend) = (0, 0);
            }
            let have = self.rend - self.rpos;
            let mut need = 4;
            if have >= 4 {
                let prefix = self.rbuf[self.rpos..self.rpos + 4]
                    .try_into()
                    .expect("4 bytes");
                need += payload_len(prefix)?;
                if have >= need {
                    let payload = &self.rbuf[self.rpos + 4..self.rpos + need];
                    let response = decode_response(payload);
                    self.rpos += need;
                    return Ok(response?);
                }
            }
            // Make room for the rest of the frame at the tail: slide
            // the partial frame to the front, grow if it is larger than
            // the buffer.
            if self.rpos + need > self.rbuf.len() {
                self.rbuf.copy_within(self.rpos..self.rend, 0);
                (self.rpos, self.rend) = (0, have);
                if need > self.rbuf.len() {
                    self.rbuf.resize(need, 0);
                }
            }
            match self.stream.read(&mut self.rbuf[self.rend..]) {
                Ok(0) if have == 0 => return Err(ClientError::Disconnected),
                Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into()),
                Ok(n) => self.rend += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Dials the first reachable address under the configured connect
/// timeout and applies the socket options.
fn dial(addrs: &[SocketAddr], config: &ClientConfig) -> Result<TcpStream, ClientError> {
    let mut last: Option<std::io::Error> = None;
    for addr in addrs {
        let dialed = if config.connect_timeout.is_zero() {
            TcpStream::connect(addr)
        } else {
            TcpStream::connect_timeout(addr, config.connect_timeout)
        };
        match dialed {
            Ok(stream) => {
                if config.nodelay {
                    let _ = stream.set_nodelay(true);
                }
                let _ = stream.set_read_timeout(timeout_opt(config.read_timeout));
                let _ = stream.set_write_timeout(timeout_opt(config.write_timeout));
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last
        .unwrap_or_else(|| std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no address"))
        .into())
}
