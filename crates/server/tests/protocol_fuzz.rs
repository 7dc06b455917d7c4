//! Property-based and adversarial wire-format tests: every frame type
//! must round-trip exactly, and no byte sequence an attacker or a
//! truncating network can produce may panic, over-allocate, or decode
//! into something a well-formed encoder could not have produced —
//! malformed input always surfaces as a clean `Err`.

use proptest::prelude::*;
use srj_core::JoinPair;
use srj_geom::Point;
use srj_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, EpochInfo,
    ErrorCode, FrameAccumulator, ProtocolError, Request, RequestStats, RequestStatus, Response,
    SampleRequest, ServerStatsFrame, Side, SlowLogEntry, TraceSpan, UpdateStats, MAX_ERROR_MSG_LEN,
    MAX_FRAME_LEN, PROTOCOL_VERSION, SERVER_FEATURES,
};
use srj_server::Algorithm;

/// Splits a wire frame into its length prefix and payload, checking
/// the prefix is consistent.
fn payload_of(frame: &[u8]) -> &[u8] {
    assert!(frame.len() >= 4, "frame shorter than its length prefix");
    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    assert_eq!(len, frame.len() - 4, "length prefix disagrees with frame");
    &frame[4..]
}

fn roundtrip_request(req: Request) {
    let payload = payload_of(&encode_request(&req)).to_vec();
    assert_eq!(decode_request(&payload).unwrap(), req);
    assert_prefixes_fail_request(&payload);
}

fn roundtrip_response(resp: Response) {
    let payload = payload_of(&encode_response(&resp)).to_vec();
    assert_eq!(decode_response(&payload).unwrap(), resp);
    assert_prefixes_fail_response(&payload);
}

/// The decoder consumes exactly the payload it was given, so every
/// strict prefix of a valid payload must fail cleanly — there is no
/// byte position where a truncated frame silently parses.
fn assert_prefixes_fail_request(payload: &[u8]) {
    for cut in 0..payload.len() {
        assert!(
            decode_request(&payload[..cut]).is_err(),
            "request prefix of {cut}/{} bytes decoded",
            payload.len()
        );
    }
}

fn assert_prefixes_fail_response(payload: &[u8]) {
    for cut in 0..payload.len() {
        assert!(
            decode_response(&payload[..cut]).is_err(),
            "response prefix of {cut}/{} bytes decoded",
            payload.len()
        );
    }
}

fn algorithm_from_index(i: u8) -> Option<Algorithm> {
    match i % 4 {
        0 => None,
        1 => Some(Algorithm::Kds),
        2 => Some(Algorithm::KdsRejection),
        _ => Some(Algorithm::Bbst),
    }
}

fn status_from_index(i: u8) -> RequestStatus {
    [
        RequestStatus::Ok,
        RequestStatus::UnknownDataset,
        RequestStatus::EmptyJoin,
        RequestStatus::RejectionLimit,
        RequestStatus::BadRequest,
        RequestStatus::ShuttingDown,
    ][i as usize % 6]
}

fn side_from(b: bool) -> Side {
    if b {
        Side::S
    } else {
        Side::R
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hello_roundtrips(version in 0u16..=u16::MAX, features in any::<u32>()) {
        roundtrip_request(Request::Hello { version, features });
    }

    #[test]
    fn ping_roundtrips(token in any::<u64>()) {
        roundtrip_request(Request::Ping { token });
    }

    #[test]
    fn sample_roundtrips(
        ids in (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()),
        l in 1e-6..1e9f64,
        algo in any::<u8>(),
        shards in any::<u32>(),
    ) {
        roundtrip_request(Request::Sample(SampleRequest {
            req_id: ids.0,
            dataset: ids.1,
            l,
            algorithm: algorithm_from_index(algo),
            shards,
            t: ids.2,
            seed: ids.3,
        }));
    }

    #[test]
    fn insert_roundtrips(
        req_id in any::<u32>(),
        dataset in any::<u64>(),
        s_side in any::<bool>(),
        coords in prop::collection::vec((-1e9..1e9f64, -1e9..1e9f64), 0..40),
    ) {
        roundtrip_request(Request::Insert {
            req_id,
            dataset,
            side: side_from(s_side),
            points: coords.into_iter().map(|(x, y)| Point::new(x, y)).collect(),
        });
    }

    #[test]
    fn delete_roundtrips(
        req_id in any::<u32>(),
        dataset in any::<u64>(),
        s_side in any::<bool>(),
        ids in prop::collection::vec(any::<u32>(), 0..40),
    ) {
        roundtrip_request(Request::Delete {
            req_id,
            dataset,
            side: side_from(s_side),
            ids,
        });
    }

    #[test]
    fn epoch_and_trace_roundtrip(req_id in any::<u32>(), id in any::<u64>()) {
        roundtrip_request(Request::Epoch { req_id, dataset: id });
        roundtrip_request(Request::Trace { trace_id: id });
    }

    #[test]
    fn welcome_pong_busy_roundtrip(
        version in 0u16..=u16::MAX,
        features in any::<u32>(),
        token in any::<u64>(),
        req_id in any::<u32>(),
        retry_after_ms in any::<u32>(),
    ) {
        roundtrip_response(Response::Welcome { version, features });
        roundtrip_response(Response::Pong { token });
        roundtrip_response(Response::Busy { req_id, retry_after_ms });
    }

    #[test]
    fn error_roundtrips(code in 0u8..3, msg_len in 0usize..MAX_ERROR_MSG_LEN) {
        let code = [
            ErrorCode::VersionMismatch,
            ErrorCode::HandshakeRequired,
            ErrorCode::Rejected,
        ][code as usize];
        roundtrip_response(Response::Error {
            code,
            message: "e".repeat(msg_len),
        });
    }

    #[test]
    fn batch_and_done_roundtrip(
        req_id in any::<u32>(),
        pairs in prop::collection::vec((any::<u32>(), any::<u32>()), 0..60),
        status in any::<u8>(),
        stats in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        roundtrip_response(Response::Batch {
            req_id,
            pairs: pairs.into_iter().map(|(r, s)| JoinPair::new(r, s)).collect(),
        });
        roundtrip_response(Response::Done {
            req_id,
            status: status_from_index(status),
            stats: RequestStats {
                samples: stats.0,
                iterations: stats.1,
                elapsed_ns: stats.2,
                trace_id: stats.3,
            },
        });
    }

    #[test]
    fn update_and_epoch_info_roundtrip(
        req_id in any::<u32>(),
        status in any::<u8>(),
        small in (any::<u32>(), any::<u32>()),
        wide in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        roundtrip_response(Response::Update {
            req_id,
            status: status_from_index(status),
            stats: UpdateStats {
                first_id: small.0,
                applied: small.1,
                epoch: wide.0,
                version: wide.1,
            },
        });
        roundtrip_response(Response::Epoch {
            req_id,
            status: status_from_index(status),
            info: EpochInfo {
                epoch: wide.0,
                version: wide.1,
                live_r: wide.2,
                live_s: wide.3,
                pending_ops: wide.4,
                last_swap_ns: wide.5,
            },
        });
    }

    #[test]
    fn server_stats_roundtrips(
        a in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        b in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        c in (any::<u64>(), any::<u64>(), any::<u64>()),
        mu in 0.0..1e12f64,
    ) {
        roundtrip_response(Response::ServerStats(ServerStatsFrame {
            queries: a.0,
            samples: a.1,
            iterations: a.2,
            errors: a.3,
            mean_ns: a.4,
            p50_ns: a.5,
            p99_ns: b.0,
            engines_cached: b.1,
            cache_hits: b.2,
            cache_misses: b.3,
            connections_accepted: b.4,
            active_connections: b.5,
            patch_swaps: c.0,
            cells_patched: c.1,
            last_swap_ns: c.2,
            mu_total: mu,
        }));
    }

    #[test]
    fn metrics_and_trace_responses_roundtrip(
        text_len in 0usize..512,
        trace_id in any::<u64>(),
        spans in prop::collection::vec((any::<u64>(), 0usize..24, 0usize..24), 0..16),
    ) {
        roundtrip_response(Response::Metrics {
            text: "m".repeat(text_len),
        });
        roundtrip_response(Response::Trace {
            trace_id,
            spans: spans
                .into_iter()
                .map(|(ns, a, b)| TraceSpan {
                    ns,
                    span: "s".repeat(a),
                    event: "v".repeat(b),
                })
                .collect(),
        });
    }

    #[test]
    fn slowlog_roundtrips(
        max in any::<u32>(),
        entries in prop::collection::vec(
            (
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
                0usize..12,
                prop::collection::vec((any::<u64>(), 0usize..16, 0usize..16), 0..6),
            ),
            0..4,
        ),
    ) {
        roundtrip_request(Request::SlowLog { max });
        roundtrip_response(Response::SlowLog {
            entries: entries
                .into_iter()
                .map(|(a, b, algo_len, spans)| SlowLogEntry {
                    trace_id: a.0,
                    finished_ns: a.1,
                    dataset: a.2,
                    t: a.3,
                    algorithm: "a".repeat(algo_len),
                    epoch: b.0,
                    iterations: b.1,
                    queue_wait_ns: b.2,
                    elapsed_ns: b.3,
                    spans: spans
                        .into_iter()
                        .map(|(ns, s, v)| TraceSpan {
                            ns,
                            span: "s".repeat(s),
                            event: "v".repeat(v),
                        })
                        .collect(),
                })
                .collect(),
        });
    }

    /// Arbitrary bytes never panic the decoders — every outcome is a
    /// clean `Ok`/`Err`, even for garbage that happens to start with a
    /// valid opcode.
    #[test]
    fn random_bytes_decode_cleanly(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Single-byte corruptions of valid frames never panic either —
    /// they decode to an error or to some other well-formed frame.
    #[test]
    fn flipped_bytes_decode_cleanly(
        pos in any::<usize>(),
        bit in 0u8..8,
        token in any::<u64>(),
        ids in prop::collection::vec(any::<u32>(), 0..20),
    ) {
        for payload in [
            payload_of(&encode_request(&Request::Ping { token })).to_vec(),
            payload_of(&encode_request(&Request::Delete {
                req_id: 1,
                dataset: 2,
                side: Side::S,
                ids,
            }))
            .to_vec(),
        ] {
            let mut corrupted = payload.clone();
            let at = pos % corrupted.len();
            corrupted[at] ^= 1 << bit;
            let _ = decode_request(&corrupted);
        }
    }

    /// Adversarial `count` fields (the length-prefixed vector sizes)
    /// must be rejected by the count-vs-payload cross-check before any
    /// allocation trusts them.
    #[test]
    fn inflated_counts_rejected(count in 50u32..=u32::MAX) {
        // DELETE with 2 real ids but a claimed count of `count`.
        let mut payload = payload_of(&encode_request(&Request::Delete {
            req_id: 9,
            dataset: 9,
            side: Side::R,
            ids: vec![1, 2],
        }))
        .to_vec();
        let fixed_prefix = 1 + 4 + 8 + 1; // opcode + req_id + dataset + side
        payload[fixed_prefix..fixed_prefix + 4].copy_from_slice(&count.to_le_bytes());
        assert!(decode_request(&payload).is_err());
    }
}

#[test]
fn wrong_version_hello_still_decodes() {
    // Version negotiation is semantic, not syntactic: a HELLO carrying
    // a version this server will reject must still *decode*, so the
    // server can answer with a well-formed ERROR instead of a hang.
    let payload = payload_of(&encode_request(&Request::Hello {
        version: PROTOCOL_VERSION + 41,
        features: SERVER_FEATURES,
    }))
    .to_vec();
    match decode_request(&payload).unwrap() {
        Request::Hello { version, .. } => assert_eq!(version, PROTOCOL_VERSION + 41),
        other => panic!("decoded {other:?}"),
    }
}

#[test]
fn oversized_length_prefix_is_too_large_not_oom() {
    // A length prefix just past the cap must be rejected *before* the
    // payload allocation. (If it allocated first, a 4 GiB claim would
    // be an OOM attack.)
    for claim in [MAX_FRAME_LEN as u32 + 1, u32::MAX] {
        let mut wire = claim.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        let mut cursor = std::io::Cursor::new(wire);
        match read_frame(&mut cursor) {
            Err(ProtocolError::TooLarge(len)) => assert_eq!(len, claim as usize),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }
}

#[test]
fn max_length_prefix_with_short_body_is_io_error() {
    // A length prefix at exactly the cap is structurally legal; when
    // the peer then hangs up mid-frame, the reader reports a transport
    // error — never a partial frame.
    let mut wire = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&[0u8; 64]); // far short of MAX_FRAME_LEN
    let mut cursor = std::io::Cursor::new(wire);
    match read_frame(&mut cursor) {
        Err(ProtocolError::Io(_)) => {}
        other => panic!("expected Io error, got {other:?}"),
    }
}

#[test]
fn mid_frame_eof_is_error_and_boundary_eof_is_clean() {
    let frame = encode_request(&Request::Ping { token: 7 });
    // Clean EOF at a frame boundary.
    let mut empty = std::io::Cursor::new(Vec::new());
    assert!(matches!(read_frame(&mut empty), Ok(None)));
    // EOF anywhere inside a frame (even inside the length prefix) is
    // an error, not a silent truncation.
    for cut in 1..frame.len() {
        let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
        assert!(
            read_frame(&mut cursor).is_err(),
            "EOF after {cut}/{} bytes was not an error",
            frame.len()
        );
    }
}

/// One request of every frame type — fixed-size, variable-size, and
/// empty-payload shapes — so the incremental-decode tests below cover
/// each wire layout the readiness loop's accumulator will see.
fn request_corpus() -> Vec<Request> {
    vec![
        Request::Hello {
            version: PROTOCOL_VERSION,
            features: SERVER_FEATURES,
        },
        Request::Ping {
            token: 0xDEAD_BEEF_CAFE_F00D,
        },
        Request::Sample(SampleRequest {
            req_id: 7,
            dataset: 1,
            l: 100.0,
            algorithm: Some(Algorithm::Kds),
            shards: 2,
            t: 4096,
            seed: 99,
        }),
        Request::Stats,
        Request::Shutdown,
        Request::Insert {
            req_id: 8,
            dataset: 2,
            side: Side::R,
            points: (0..17).map(|i| Point::new(i as f64, -(i as f64))).collect(),
        },
        Request::Delete {
            req_id: 9,
            dataset: 3,
            side: Side::S,
            ids: (0..23).collect(),
        },
        Request::Epoch {
            req_id: 10,
            dataset: 4,
        },
        Request::Metrics,
        Request::Trace { trace_id: 0x1234 },
        Request::SlowLog { max: 5 },
    ]
}

/// The accumulator must reassemble every request frame type from the
/// worst possible fragmentation — one byte per read — yielding no
/// frame early, exactly one frame at the final byte, and an empty
/// buffer afterwards.
#[test]
fn accumulator_decodes_every_request_byte_at_a_time() {
    for req in request_corpus() {
        let wire = encode_request(&req);
        let mut acc = FrameAccumulator::new();
        for (i, byte) in wire.iter().enumerate() {
            assert!(
                acc.next_frame().unwrap().is_none(),
                "{req:?}: frame surfaced after {i}/{} bytes",
                wire.len()
            );
            acc.extend(std::slice::from_ref(byte));
            assert!(
                acc.has_partial(),
                "{req:?}: partial not flagged at byte {i}"
            );
        }
        let payload = acc
            .next_frame()
            .unwrap()
            .unwrap_or_else(|| panic!("{req:?}: no frame after all {} bytes", wire.len()));
        assert_eq!(decode_request(&payload).unwrap(), req);
        assert!(acc.next_frame().unwrap().is_none());
        assert!(!acc.has_partial(), "{req:?}: bytes left over");
        assert_eq!(acc.buffered(), 0);
    }
}

/// A length prefix beyond `MAX_FRAME_LEN` is rejected the moment its
/// fourth byte lands — before any payload is buffered — even when it
/// arrives mid-stream behind valid frames, one byte at a time.
#[test]
fn accumulator_rejects_oversized_prefix_mid_stream() {
    let mut acc = FrameAccumulator::new();
    acc.extend(&encode_request(&Request::Ping { token: 1 }));
    assert!(acc.next_frame().unwrap().is_some());
    let claim = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
    for (i, byte) in claim.iter().enumerate() {
        if i < 3 {
            acc.extend(std::slice::from_ref(byte));
            assert!(acc.next_frame().unwrap().is_none());
        } else {
            acc.extend(std::slice::from_ref(byte));
            assert!(matches!(
                acc.next_frame(),
                Err(ProtocolError::TooLarge(len)) if len == MAX_FRAME_LEN + 1
            ));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The whole request corpus concatenated into one byte stream and
    /// delivered in arbitrary chunks — including splits inside length
    /// prefixes and across frame boundaries — must come back out as
    /// exactly the original frame sequence, popping eagerly after
    /// every chunk (the readiness loop's access pattern, which also
    /// exercises the lazy compaction).
    #[test]
    fn accumulator_reassembles_random_splits(
        raw_cuts in prop::collection::vec(any::<usize>(), 0..24),
    ) {
        let corpus = request_corpus();
        let stream: Vec<u8> = corpus.iter().flat_map(encode_request).collect();
        let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % stream.len()).collect();
        cuts.push(0);
        cuts.push(stream.len());
        cuts.sort_unstable();
        cuts.dedup();
        let mut acc = FrameAccumulator::new();
        let mut decoded = Vec::new();
        for window in cuts.windows(2) {
            acc.extend(&stream[window[0]..window[1]]);
            while let Some(payload) = acc.next_frame().unwrap() {
                decoded.push(decode_request(&payload).unwrap());
            }
        }
        prop_assert_eq!(decoded, corpus);
        prop_assert!(!acc.has_partial());
    }
}

/// A frame of the fixed corpus, either direction.
enum Frame {
    Request(Request),
    Response(Response),
}

impl Frame {
    fn direction(&self) -> &'static str {
        match self {
            Frame::Request(_) => "request",
            Frame::Response(_) => "response",
        }
    }

    fn encode(&self) -> Vec<u8> {
        match self {
            Frame::Request(req) => encode_request(req),
            Frame::Response(resp) => encode_response(resp),
        }
    }
}

fn sample_with(algorithm: Option<Algorithm>) -> Frame {
    Frame::Request(Request::Sample(SampleRequest {
        req_id: 0x0102_0304,
        dataset: 0x1122_3344_5566_7788,
        l: 12.375,
        algorithm,
        shards: 3,
        t: 1 << 40,
        seed: 0xFEED_FACE,
    }))
}

fn done_with(status: RequestStatus) -> Frame {
    Frame::Response(Response::Done {
        req_id: 77,
        status,
        stats: RequestStats {
            samples: 4096,
            iterations: 5000,
            elapsed_ns: 123_456_789,
            trace_id: 0xABCD,
        },
    })
}

fn span(ns: u64, span: &str, event: &str) -> TraceSpan {
    TraceSpan {
        ns,
        span: span.to_string(),
        event: event.to_string(),
    }
}

/// Every frame type at least once, with empty vectors, a multi-span
/// `SLOWLOG` entry and every byte of every byte-coded enum (side,
/// algorithm, status, error code).
fn wire_corpus() -> Vec<(&'static str, Frame)> {
    vec![
        (
            "hello",
            Frame::Request(Request::Hello {
                version: PROTOCOL_VERSION,
                features: SERVER_FEATURES,
            }),
        ),
        (
            "ping",
            Frame::Request(Request::Ping {
                token: 0x0123_4567_89AB_CDEF,
            }),
        ),
        ("sample_auto", sample_with(None)),
        ("sample_kds", sample_with(Some(Algorithm::Kds))),
        (
            "sample_kds_rejection",
            sample_with(Some(Algorithm::KdsRejection)),
        ),
        ("sample_bbst", sample_with(Some(Algorithm::Bbst))),
        ("stats", Frame::Request(Request::Stats)),
        ("shutdown", Frame::Request(Request::Shutdown)),
        (
            "insert_r",
            Frame::Request(Request::Insert {
                req_id: 5,
                dataset: 6,
                side: Side::R,
                points: vec![Point::new(1.5, -2.25), Point::new(-0.0, 1e300)],
            }),
        ),
        (
            "insert_s_empty",
            Frame::Request(Request::Insert {
                req_id: 7,
                dataset: 8,
                side: Side::S,
                points: Vec::new(),
            }),
        ),
        (
            "delete_s",
            Frame::Request(Request::Delete {
                req_id: 9,
                dataset: 10,
                side: Side::S,
                ids: vec![0, 42, u32::MAX],
            }),
        ),
        (
            "delete_r_empty",
            Frame::Request(Request::Delete {
                req_id: 11,
                dataset: 12,
                side: Side::R,
                ids: Vec::new(),
            }),
        ),
        (
            "epoch",
            Frame::Request(Request::Epoch {
                req_id: 13,
                dataset: 14,
            }),
        ),
        ("metrics", Frame::Request(Request::Metrics)),
        ("trace", Frame::Request(Request::Trace { trace_id: 0xF00D })),
        ("slowlog", Frame::Request(Request::SlowLog { max: 32 })),
        (
            "welcome",
            Frame::Response(Response::Welcome {
                version: PROTOCOL_VERSION,
                features: SERVER_FEATURES,
            }),
        ),
        (
            "pong",
            Frame::Response(Response::Pong {
                token: 0x0123_4567_89AB_CDEF,
            }),
        ),
        (
            "busy",
            Frame::Response(Response::Busy {
                req_id: 15,
                retry_after_ms: 250,
            }),
        ),
        (
            "error_version_mismatch",
            Frame::Response(Response::Error {
                code: ErrorCode::VersionMismatch,
                message: "speak v2 — or leave".to_string(),
            }),
        ),
        (
            "error_handshake_required",
            Frame::Response(Response::Error {
                code: ErrorCode::HandshakeRequired,
                message: "hello first".to_string(),
            }),
        ),
        (
            "error_rejected_empty",
            Frame::Response(Response::Error {
                code: ErrorCode::Rejected,
                message: String::new(),
            }),
        ),
        (
            "batch",
            Frame::Response(Response::Batch {
                req_id: 16,
                pairs: vec![
                    JoinPair::new(1, 2),
                    JoinPair::new(u32::MAX, 0),
                    JoinPair::new(3, 4),
                ],
            }),
        ),
        (
            "batch_empty",
            Frame::Response(Response::Batch {
                req_id: 17,
                pairs: Vec::new(),
            }),
        ),
        ("done_ok", done_with(RequestStatus::Ok)),
        (
            "done_unknown_dataset",
            done_with(RequestStatus::UnknownDataset),
        ),
        ("done_empty_join", done_with(RequestStatus::EmptyJoin)),
        (
            "done_rejection_limit",
            done_with(RequestStatus::RejectionLimit),
        ),
        ("done_bad_request", done_with(RequestStatus::BadRequest)),
        ("done_shutting_down", done_with(RequestStatus::ShuttingDown)),
        (
            "server_stats",
            Frame::Response(Response::ServerStats(ServerStatsFrame {
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
            })),
        ),
        (
            "update",
            Frame::Response(Response::Update {
                req_id: 18,
                status: RequestStatus::Ok,
                stats: UpdateStats {
                    first_id: 100,
                    applied: 3,
                    epoch: 2,
                    version: 17,
                },
            }),
        ),
        (
            "epoch_info",
            Frame::Response(Response::Epoch {
                req_id: 19,
                status: RequestStatus::UnknownDataset,
                info: EpochInfo {
                    epoch: 3,
                    version: 99,
                    live_r: 1000,
                    live_s: 2000,
                    pending_ops: 12,
                    last_swap_ns: 1_234_567,
                },
            }),
        ),
        (
            "metrics_text",
            Frame::Response(Response::Metrics {
                text: "# TYPE srj_requests_total counter\nsrj_requests_total 5\n".to_string(),
            }),
        ),
        (
            "metrics_empty",
            Frame::Response(Response::Metrics {
                text: String::new(),
            }),
        ),
        (
            "trace_spans",
            Frame::Response(Response::Trace {
                trace_id: 20,
                spans: vec![
                    span(1_000, "frame_decode", "begin"),
                    span(2_000, "draw_loop", "end"),
                ],
            }),
        ),
        (
            "trace_empty",
            Frame::Response(Response::Trace {
                trace_id: 21,
                spans: Vec::new(),
            }),
        ),
        (
            "slowlog_entries",
            Frame::Response(Response::SlowLog {
                entries: vec![
                    SlowLogEntry {
                        trace_id: 22,
                        finished_ns: 1_000_000,
                        dataset: 3,
                        t: 50_000,
                        algorithm: "auto".to_string(),
                        epoch: 2,
                        iterations: 123_456,
                        queue_wait_ns: 7_890,
                        elapsed_ns: 42_000_000,
                        spans: vec![
                            span(10, "frame_decode", "sample_request"),
                            span(20, "draw_loop", "begin"),
                            span(30, "", ""),
                        ],
                    },
                    SlowLogEntry::default(),
                ],
            }),
        ),
        (
            "slowlog_empty",
            Frame::Response(Response::SlowLog {
                entries: Vec::new(),
            }),
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

/// The wire pinned byte for byte: `tests/fixtures/wire_frames.txt` holds
/// one `direction label hex` line per corpus frame, recorded before the
/// codec was generated from one layout table. Encoding must reproduce
/// every line, and every recorded line must decode back to its frame.
/// Only re-record for a change that is meant to move the wire, and bump
/// `PROTOCOL_VERSION` with it.
#[test]
fn wire_frames_match_the_recorded_fixture() {
    let recorded = include_str!("fixtures/wire_frames.txt");
    let corpus = wire_corpus();
    let encoded: String = corpus
        .iter()
        .map(|(label, frame)| format!("{} {label} {}\n", frame.direction(), hex(&frame.encode())))
        .collect();
    assert!(
        encoded == recorded,
        "the wire moved; encoded now:\n{encoded}\nrecorded:\n{recorded}"
    );
    let mut opcodes = std::collections::BTreeSet::new();
    for ((label, frame), line) in corpus.iter().zip(recorded.lines()) {
        let bytes = unhex(line.rsplit(' ').next().unwrap());
        let payload = payload_of(&bytes);
        opcodes.insert(payload[0]);
        match frame {
            Frame::Request(req) => assert_eq!(&decode_request(payload).unwrap(), req, "{label}"),
            Frame::Response(resp) => {
                assert_eq!(&decode_response(payload).unwrap(), resp, "{label}")
            }
        }
    }
    assert_eq!(opcodes.len(), 23, "every frame type is pinned");
}

#[test]
fn error_message_is_capped_on_encode() {
    let resp = Response::Error {
        code: ErrorCode::Rejected,
        message: "x".repeat(MAX_ERROR_MSG_LEN * 4),
    };
    let payload = payload_of(&encode_response(&resp)).to_vec();
    match decode_response(&payload).unwrap() {
        Response::Error { message, .. } => assert_eq!(message.len(), MAX_ERROR_MSG_LEN),
        other => panic!("decoded {other:?}"),
    }
}
