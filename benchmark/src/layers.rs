//! The layer ladder: what each layer costs on a workload's dataset and
//! request shape, measured in-process around public calls only.
//!
//! Two parts. The *replay* runs the workload's operations through the
//! same calls, in the same order, as the server does — request codec,
//! engine acquisition, batched draws, response codec — with spans
//! recorded in every other block of operations, so that traced and
//! untraced requests share the same stretch of time on a host whose
//! speed drifts. The rungs below `SamplerHandle` (alias,
//! grid, cell stores, cursor) and the layers a request never calls
//! directly (epoch swaps, net, obs) are timed standalone on the same
//! data.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srj_alias::AliasTable;
use srj_core::{BbstIndex, Cursor, JoinPair, KdsIndex, OverlaySupport, SampleConfig, SamplerIndex};
use srj_engine::{Algorithm, DatasetStore, EpochConfig, EpochEngine};
use srj_geom::{Point, PointId, Rect};
use srj_grid::Grid;
use srj_kdtree::CanonicalScratch;
use srj_net::{Interest, Poller, TimerWheel, Waker};
use srj_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, FrameAccumulator, Request,
    Response,
};
use srj_server::{RequestStats, RequestStatus, Side};

use crate::json::Json;
use crate::metrics;
use crate::round::{sample_request, server_config, DeleteBank};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{mutation_points, Op, Workload};

/// The replay covers this many of a workload's first operations.
const REPLAY_OPS: usize = 2_000;
/// Spans are recorded in every other block of about this many
/// operations (rounded up to whole patterns).
const REPLAY_BLOCK_OPS: usize = 10;
/// Spans of operations below this index are written to `trace.json`.
const TRACE_FILE_REQUESTS: u32 = 128;
/// Draws per repetition of a draw-rate measurement.
const DRAWS: usize = 100_000;
const REPS: usize = 5;

pub struct LayerReport {
    pub workload: String,
    pub metrics: Vec<(String, f64)>,
    /// Per span name: median and mean self time per replayed request.
    pub ladder: Json,
    /// Spans of the first replayed requests.
    pub trace: Json,
}

impl LayerReport {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.clone())),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("ladder", self.ladder.clone()),
            ("trace", self.trace.clone()),
        ])
    }
}

/// Median over `reps` runs of `f`, nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&runs).unwrap_or(f64::NAN)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Sink(Vec<(String, f64)>);

impl Sink {
    fn put(&mut self, name: &str, value: f64) {
        debug_assert!(
            metrics::per_layer(name).is_some(),
            "{name} is not a declared per-layer metric"
        );
        self.0.push((name.to_string(), value));
    }
}

// ---- the replay -----------------------------------------------------------

/// The server's per-dataset engine map, as `ServedDataset::engine_for`
/// keeps it: recency order, least recently used shape evicted at
/// capacity.
struct EngineLru {
    capacity: usize,
    entries: Vec<(u64, Arc<EpochEngine>)>,
    build_ms: Vec<f64>,
    /// Swaps performed by engines that have since been evicted.
    retired_swaps: u64,
}

fn swaps(engine: &EpochEngine) -> u64 {
    engine.minor_swaps() + engine.major_swaps()
}

impl EngineLru {
    fn new(capacity: usize) -> EngineLru {
        EngineLru {
            capacity,
            entries: Vec::new(),
            build_ms: Vec::new(),
            retired_swaps: 0,
        }
    }

    fn get(&mut self, store: &Arc<DatasetStore>, algorithm: Algorithm, l: f64) -> Arc<EpochEngine> {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == l.to_bits()) {
            let entry = self.entries.remove(i);
            let engine = Arc::clone(&entry.1);
            self.entries.push(entry);
            return engine;
        }
        let t0 = Instant::now();
        let engine = Arc::new(build_engine(store, algorithm, l, EpochConfig::default()));
        self.build_ms.push(ms(t0.elapsed()));
        if self.entries.len() >= self.capacity.max(1) {
            let (_, evicted) = self.entries.remove(0);
            self.retired_swaps += swaps(&evicted);
        }
        self.entries.push((l.to_bits(), Arc::clone(&engine)));
        engine
    }

    fn total_swaps(&self) -> u64 {
        self.retired_swaps + self.entries.iter().map(|(_, e)| swaps(e)).sum::<u64>()
    }
}

/// An engine built the way the server builds one on a cache miss.
fn build_engine(
    store: &Arc<DatasetStore>,
    algorithm: Algorithm,
    l: f64,
    epoch: EpochConfig,
) -> EpochEngine {
    let config = SampleConfig::new(l).with_build_threads(server_config().build_threads);
    let epoch = EpochConfig {
        shards: 1,
        algorithm: Some(algorithm),
        ..epoch
    };
    let engine = EpochEngine::with_store(Arc::clone(store), &config, epoch);
    engine.set_buffers_enabled(server_config().buffers);
    engine
}

struct ReplayOutcome {
    tracer: Tracer,
    /// Duration of every replayed SAMPLE, microseconds, by whether its
    /// block recorded spans.
    untraced_us: Vec<f64>,
    traced_us: Vec<f64>,
    lru: EngineLru,
}

/// Decodes a response the way the client side does: bytes into the
/// accumulator, one frame out, the frame decoded.
fn receive(
    acc: &mut FrameAccumulator,
    tracer: &mut Tracer,
    frame: &[u8],
    decode_span: &'static str,
) -> Response {
    tracer.enter("accumulate");
    acc.extend(frame);
    let payload = acc
        .next_frame()
        .expect("a frame this code encoded")
        .expect("a complete frame");
    tracer.exit();
    tracer.enter(decode_span);
    let response = decode_response(&payload).expect("a frame this code encoded");
    tracer.exit();
    response
}

fn replay(w: &Workload, ops: &[Op], store: &Arc<DatasetStore>) -> ReplayOutcome {
    let batch_pairs = server_config().batch_pairs as u64;
    let mut lru = EngineLru::new(server_config().cache_capacity);
    let mut tracer = Tracer::new();
    let mut acc = FrameAccumulator::new();
    let mut bank = DeleteBank::default();
    let mut last_answer: Vec<JoinPair> = Vec::new();
    let (mut untraced_us, mut traced_us) = (Vec::new(), Vec::new());
    // Whole patterns per block, so both kinds of block do the same mix
    // of work.
    let block = w.pattern_ops() * REPLAY_BLOCK_OPS.div_ceil(w.pattern_ops());

    for (i, op) in ops.iter().enumerate() {
        let traced = (i / block) % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_request(i as u32);
        match op {
            Op::Sample { l, t, seed } => {
                let start = Instant::now();
                tracer.enter("request");
                tracer.enter("encode_request");
                let frame = encode_request(&Request::Sample(sample_request(w, *l, *t, *seed)));
                tracer.exit();
                tracer.enter("decode_request");
                let Ok(Request::Sample(req)) = decode_request(&frame[4..]) else {
                    panic!("a SAMPLE frame must decode to a SAMPLE request");
                };
                tracer.exit();
                tracer.enter("acquire");
                let engine = lru.get(store, w.algorithm, req.l);
                let mut handle = engine.handle_seeded(req.seed);
                tracer.exit();
                last_answer.clear();
                let mut sent = 0u64;
                while sent < req.t {
                    let chunk = (req.t - sent).min(batch_pairs) as usize;
                    tracer.enter("draw");
                    let pairs = handle.sample_batch(chunk).expect("a non-empty join");
                    tracer.exit();
                    sent += pairs.len() as u64;
                    tracer.enter("encode_batch");
                    let frame = encode_response(&Response::Batch {
                        req_id: req.req_id,
                        pairs,
                    });
                    tracer.exit();
                    if let Response::Batch { pairs, .. } =
                        receive(&mut acc, &mut tracer, &frame, "decode_batch")
                    {
                        last_answer.extend_from_slice(&pairs);
                    }
                }
                tracer.enter("done");
                let frame = encode_response(&Response::Done {
                    req_id: req.req_id,
                    status: RequestStatus::Ok,
                    stats: RequestStats {
                        samples: sent,
                        iterations: handle.report().iterations,
                        elapsed_ns: start.elapsed().as_nanos() as u64,
                        trace_id: 0,
                    },
                });
                black_box(receive(&mut acc, &mut tracer, &frame, "decode_done"));
                tracer.exit();
                tracer.exit();
                let us = start.elapsed().as_nanos() as f64 / 1e3;
                if traced {
                    traced_us.push(us);
                } else {
                    untraced_us.push(us);
                }
            }
            Op::Insert { side, points } => {
                tracer.enter("mutate");
                let applied = match side {
                    Side::R => store.insert_r_batch(points),
                    Side::S => store.insert_s_batch(points),
                };
                tracer.exit();
                if *side == Side::S {
                    bank.bank(applied.epoch, applied.first_id, applied.applied);
                }
            }
            Op::DeleteS { count } => {
                let ids = bank.take(store.epoch(), *count, &last_answer);
                tracer.enter("mutate");
                black_box(store.delete_s_batch(&ids));
                tracer.exit();
            }
        }
    }
    ReplayOutcome {
        tracer,
        untraced_us,
        traced_us,
        lru,
    }
}

/// The ladder: per span name, the self time of a typical replayed
/// request (median over the traced requests; per mutation for
/// `mutate`) and its mean (which also carries the rare stalls — an
/// epoch swap inside an acquisition — that a median leaves out), plus
/// the check that a request's self times add up to the request.
fn ladder(
    sink: &mut Sink,
    replayed: &ReplayOutcome,
    untraced_request_us: f64,
    traced_request_us: f64,
) -> Json {
    // Self time per span name within each replayed operation; an
    // operation's spans are contiguous.
    let spans = replayed.tracer.spans();
    let own = replayed.tracer.self_times_ns();
    let mut operations: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut current = None;
    for (span, own_ns) in spans.iter().zip(own) {
        // `decode_done` is part of answering DONE.
        let name = if span.name == "decode_done" {
            "done"
        } else {
            span.name
        };
        if current != Some(span.request) {
            current = Some(span.request);
            operations.push(Vec::new());
        }
        let operation = operations.last_mut().expect("pushed above");
        match operation.iter_mut().find(|(n, _)| *n == name) {
            Some((_, us)) => *us += own_ns as f64 / 1e3,
            None => operation.push((name, own_ns as f64 / 1e3)),
        }
    }
    let is_mutation = |operation: &[(&str, f64)]| operation.iter().any(|(n, _)| *n == "mutate");
    let of = |name: &str, mutation: bool| -> Vec<f64> {
        operations
            .iter()
            .filter(|operation| is_mutation(operation) == mutation)
            .map(|operation| {
                operation
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, us)| *us)
            })
            .collect()
    };
    let mean = |values: &[f64]| values.iter().sum::<f64>() / values.len().max(1) as f64;

    let mut rows = Vec::new();
    let mut self_sum_us = 0.0;
    for span in [
        "request",
        "encode_request",
        "decode_request",
        "acquire",
        "draw",
        "encode_batch",
        "accumulate",
        "decode_batch",
        "done",
    ] {
        let values = of(span, false);
        let typical = stats::median(&values).unwrap_or(0.0);
        self_sum_us += typical;
        if span != "request" {
            sink.put(&format!("replay.{span}_us"), typical);
        }
        rows.push((span, typical, mean(&values)));
    }
    let values = of("mutate", true);
    let typical = stats::median(&values).unwrap_or(0.0);
    sink.put("replay.mutate_us", typical);
    rows.push(("mutate", typical, mean(&values)));

    Json::obj([
        (
            "spans",
            Json::Arr(
                rows.into_iter()
                    .map(|(span, typical, mean)| {
                        Json::obj([
                            ("span", Json::str(span)),
                            ("median_self_us", Json::Num(typical)),
                            ("mean_self_us", Json::Num(mean)),
                            (
                                "share_of_request",
                                Json::Num(if span == "mutate" {
                                    f64::NAN
                                } else {
                                    typical / self_sum_us
                                }),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("self_sum_us", Json::Num(self_sum_us)),
        ("traced_request_p50_us", Json::Num(traced_request_us)),
        ("untraced_request_p50_us", Json::Num(untraced_request_us)),
        (
            "self_sum_over_untraced",
            Json::Num(self_sum_us / untraced_request_us),
        ),
    ])
}

// ---- standalone rungs -----------------------------------------------------

/// Draw cost through a bare cursor: plain, then through the sample
/// buffers.
fn cursor_rungs<I: SamplerIndex>(sink: &mut Sink, index: Arc<I>, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out: Vec<JoinPair> = Vec::with_capacity(DRAWS);
    let mut cursor = Cursor::new(Arc::clone(&index));
    let plain = median_ns(REPS, || {
        out.clear();
        cursor
            .sample_batch(DRAWS, &mut rng, &mut out)
            .expect("a non-empty join");
        black_box(&out);
    });
    sink.put("core.cursor.draw_ns", plain / DRAWS as f64);
    let report = cursor.sampling_stats();
    sink.put(
        "core.cursor.iterations_per_sample",
        report.iterations as f64 / report.samples.max(1) as f64,
    );

    let mut cursor = Cursor::new(index);
    cursor.set_buffers(true);
    cursor.seed_buffers(seed);
    // One untimed pass lets hot cells climb the promotion ladder.
    out.clear();
    cursor
        .sample_batch(DRAWS, &mut rng, &mut out)
        .expect("a non-empty join");
    let _ = cursor.drain_buffer_stats();
    let buffered = median_ns(REPS, || {
        out.clear();
        cursor
            .sample_batch(DRAWS, &mut rng, &mut out)
            .expect("a non-empty join");
        black_box(&out);
    });
    sink.put("core.cursor.draw_buffered_ns", buffered / DRAWS as f64);
    let hits = cursor.drain_buffer_stats().hits;
    sink.put("core.buffer.hit_share", hits as f64 / (REPS * DRAWS) as f64);
}

fn structure_rungs(
    sink: &mut Sink,
    w: &Workload,
    r: &[Point],
    s: &[Point],
    mutation: &[Point],
    seed: u64,
) {
    let l = w.windows[0];
    let config = SampleConfig::new(l).with_build_threads(server_config().build_threads);
    let nothing_deleted: HashSet<PointId> = HashSet::new();

    // grid
    let mut grid = None;
    sink.put(
        "grid.build_ms",
        median_ns(3, || grid = Some(Grid::build(s, l))) / 1e6,
    );
    let grid = grid.expect("built above");
    sink.put(
        "grid.patch_ms",
        median_ns(REPS, || {
            black_box(grid.patch(mutation, &nothing_deleted));
        }) / 1e6,
    );
    drop(grid);

    // kd-tree cell store
    let (kd_cells, kd_build) = KdsIndex::build_s_structure(s, &config);
    sink.put("kdtree.s_build_ms", ms(kd_build));
    let probes = &r[..r.len().min(DRAWS)];
    let mut weights = vec![0.0f64; probes.len()];
    let count_ns = median_ns(3, || {
        for (slot, &p) in weights.iter_mut().zip(probes) {
            *slot = kd_cells.count_window(&Rect::window(p, l)) as f64;
        }
    });
    sink.put("kdtree.count_window_ns", count_ns / probes.len() as f64);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut scratch = CanonicalScratch::new();
    let sample_ns = median_ns(3, || {
        for &p in probes {
            black_box(kd_cells.sample_in_window(&Rect::window(p, l), &mut rng, &mut scratch));
        }
    });
    sink.put(
        "kdtree.sample_in_window_ns",
        sample_ns / probes.len() as f64,
    );

    // alias, over the exact per-r window counts just taken
    if weights.iter().sum::<f64>() > 0.0 {
        let mut table = None;
        let build_ns = median_ns(REPS, || table = AliasTable::new(&weights));
        sink.put("alias.build_ns_per_weight", build_ns / weights.len() as f64);
        let table = table.expect("positive total weight");
        let mut slots = vec![0usize; DRAWS];
        let draw_ns = median_ns(REPS, || {
            table.sample_many(&mut rng, &mut slots);
            black_box(&slots);
        });
        sink.put("alias.draw_ns", draw_ns / DRAWS as f64);
    }

    // per-cell BBSTs, and a one-mutation patch of them
    let t0 = Instant::now();
    let s_side = BbstIndex::build_s_structures(s, &config);
    let s_build = t0.elapsed();
    sink.put("bbst.s_build_ms", ms(s_build));
    let mut cells_rebuilt = 0usize;
    sink.put(
        "core.cellstore.patch_ms",
        median_ns(REPS, || {
            let (patched, report) = s_side.patch(mutation, &nothing_deleted);
            cells_rebuilt = report.cells_rebuilt;
            black_box(patched);
        }) / 1e6,
    );
    sink.put("core.cellstore.cells_rebuilt", cells_rebuilt as f64);

    // the workload's own index family, and a bare cursor over it
    match w.algorithm {
        Algorithm::Bbst => {
            let t0 = Instant::now();
            let index = BbstIndex::build_shared(r, &config, &s_side);
            let build = s_build + t0.elapsed();
            drop(kd_cells);
            let upper_bounding = index.build_report().upper_bounding;
            index_rungs(sink, build, s_build, upper_bounding, Arc::new(index), seed);
        }
        Algorithm::Kds | Algorithm::KdsRejection => {
            drop(s_side);
            let t0 = Instant::now();
            let index = KdsIndex::build_shared(r, kd_cells, &config);
            let build = kd_build + t0.elapsed();
            let upper_bounding = index.build_report().upper_bounding;
            index_rungs(sink, build, kd_build, upper_bounding, Arc::new(index), seed);
        }
    }

    sink.put(
        "core.overlay.support_build_ms",
        ms(OverlaySupport::build(r, s, l).build_time()),
    );
}

/// `s_side` is the S-side structure build (sort, grid, per-cell
/// structures), which a shared build charges to whoever built it;
/// `upper_bounding` comes from the index's public `PhaseReport`.
fn index_rungs<I: SamplerIndex>(
    sink: &mut Sink,
    build: Duration,
    s_side: Duration,
    upper_bounding: Duration,
    index: Arc<I>,
    seed: u64,
) {
    sink.put("core.index_build_ms", ms(build));
    sink.put("core.build.grid_mapping_ms", ms(s_side));
    sink.put("core.build.upper_bounding_ms", ms(upper_bounding));
    cursor_rungs(sink, index, seed);
}

/// `SamplerHandle` and epoch rungs on fresh engines over fresh stores,
/// so a workload's own mutation history does not leak into them.
fn engine_rungs(
    sink: &mut Sink,
    w: &Workload,
    r: &[Point],
    s: &[Point],
    anchors: &[Point],
    seed: u64,
    build_ms: &mut Vec<f64>,
) {
    let l = w.windows[0];
    let t = w.t as usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xE961);
    let store = Arc::new(DatasetStore::new(r.to_vec(), s.to_vec()));
    let t0 = Instant::now();
    let engine = build_engine(&store, w.algorithm, l, EpochConfig::default());
    build_ms.push(ms(t0.elapsed()));
    sink.put(
        "engine.memory_bytes_per_point",
        engine.engine().memory_bytes() as f64 / (r.len() + s.len()) as f64,
    );

    const ACQUIRES: usize = 2_000;
    let acquire = median_ns(REPS, || {
        for i in 0..ACQUIRES {
            black_box(engine.handle_seeded(i as u64 + 1));
        }
    });
    sink.put("engine.handle_acquire_ns", acquire / ACQUIRES as f64);

    let mut handle = engine.handle_seeded(seed | 1);
    black_box(handle.sample_batch(DRAWS).expect("a non-empty join"));
    let draw = median_ns(REPS, || {
        black_box(handle.sample_batch(DRAWS).expect("a non-empty join"));
    });
    sink.put("engine.handle.draw_ns", draw / DRAWS as f64);

    // One request as the worker runs it: acquire, then draw t.
    let requests = (2_000_000 / t.max(1)).clamp(20, 2_000);
    let mut request_ns: Vec<f64> = Vec::with_capacity(requests);
    for i in 0..requests {
        let t0 = Instant::now();
        let mut handle = engine.handle_seeded(i as u64 + 1);
        black_box(handle.sample_batch(t).expect("a non-empty join"));
        request_ns.push(t0.elapsed().as_nanos() as f64);
    }
    sink.put(
        "engine.request_us",
        stats::median(&request_ns).unwrap_or(f64::NAN) / 1e3,
    );

    // Mutations below the rebuild threshold: the store append, then the
    // minor swap the next acquisition pays. The first swap of an epoch
    // also builds the overlay support grids and is left out.
    let mut mutate_us = Vec::new();
    let mut minor_us = Vec::new();
    for k in 0..=REPS {
        let points = mutation_points(anchors[k % anchors.len()], &mut rng);
        let t0 = Instant::now();
        black_box(store.insert_s_batch(&points));
        mutate_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        let t0 = Instant::now();
        engine.refresh();
        if k > 0 {
            minor_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    sink.put(
        "engine.dataset.mutate_batch_us",
        stats::median(&mutate_us).unwrap_or(f64::NAN),
    );
    sink.put(
        "engine.epoch.minor_swap_us",
        stats::median(&minor_us).unwrap_or(f64::NAN),
    );

    // Draws through the overlay with about 1% of the dataset pending:
    // half inserted near existing S points, half tombstoned.
    let pending = ((r.len() + s.len()) / 200).max(1);
    let near: Vec<Point> = (0..pending)
        .map(|_| {
            let p = s[rng.gen_range(0..s.len())];
            Point::new(
                p.x + rng.gen_range(-1.0..1.0),
                p.y + rng.gen_range(-1.0..1.0),
            )
        })
        .collect();
    store.insert_s_batch(&near);
    let doomed: Vec<PointId> = (0..pending)
        .map(|_| rng.gen_range(0..s.len()) as PointId)
        .collect();
    store.delete_s_batch(&doomed);
    let mut handle = engine.handle_seeded(seed | 1);
    black_box(handle.sample_batch(DRAWS).expect("a non-empty join"));
    let overlay = median_ns(REPS, || {
        black_box(handle.sample_batch(DRAWS).expect("a non-empty join"));
    });
    sink.put("engine.handle.draw_overlay_ns", overlay / DRAWS as f64);
    drop(handle);
    drop(engine);

    // Major swaps, on an engine whose threshold any mutation crosses. A
    // spatially local batch goes through the cell patch; compacting the
    // store from outside invalidates the engine's S-side, so the next
    // swap is a full rebuild.
    let store = Arc::new(DatasetStore::new(r.to_vec(), s.to_vec()));
    let eager = EpochConfig::default().with_rebuild_fraction(f64::MIN_POSITIVE);
    let t0 = Instant::now();
    let engine = build_engine(&store, w.algorithm, l, eager);
    build_ms.push(ms(t0.elapsed()));
    store.insert_s_batch(&mutation_points(anchors[0], &mut rng));
    let t0 = Instant::now();
    engine.refresh();
    let patch = t0.elapsed();
    sink.put(
        "engine.epoch.patch_swap_ms",
        if engine.patch_swaps() == 1 {
            ms(patch)
        } else {
            f64::NAN
        },
    );
    store.insert_s_batch(&mutation_points(anchors[0], &mut rng));
    let _ = store.compact();
    let t0 = Instant::now();
    engine.refresh();
    let full = t0.elapsed();
    sink.put(
        "engine.epoch.full_rebuild_ms",
        if engine.major_swaps() == 2 && engine.patch_swaps() == 1 {
            ms(full)
        } else {
            f64::NAN
        },
    );
}

fn protocol_rungs(sink: &mut Sink, w: &Workload) {
    const CODEC_LOOPS: usize = 10_000;
    let request = Request::Sample(sample_request(w, w.windows[0], w.t, 7));
    let codec = median_ns(REPS, || {
        for _ in 0..CODEC_LOOPS {
            let frame = encode_request(black_box(&request));
            black_box(decode_request(&frame[4..]).expect("own frame"));
        }
    });
    sink.put(
        "server.protocol.request_codec_ns",
        codec / CODEC_LOOPS as f64,
    );

    let pairs = server_config().batch_pairs;
    let batch = Response::Batch {
        req_id: 1,
        pairs: (0..pairs as u32)
            .map(|i| JoinPair::new(i, i ^ 0x55))
            .collect(),
    };
    let reps = 25;
    let mut frame = Vec::new();
    let encode = median_ns(reps, || frame = encode_response(black_box(&batch)));
    sink.put("server.protocol.encode_batch_ns", encode / pairs as f64);
    let mut acc = FrameAccumulator::new();
    let mut payload = Vec::new();
    let accumulate = median_ns(reps, || {
        acc.extend(&frame);
        payload = acc
            .next_frame()
            .expect("own frame")
            .expect("a complete frame");
    });
    sink.put("server.protocol.accumulate_ns", accumulate / pairs as f64);
    let decode = median_ns(reps, || {
        black_box(decode_response(&payload).expect("own frame"));
    });
    sink.put("server.protocol.decode_batch_ns", decode / pairs as f64);
}

fn net_rungs(sink: &mut Sink) -> std::io::Result<()> {
    const PEER: u64 = 1;
    const ROUND_TRIPS: usize = 2_000;
    // Two threads, each parked in its own poller, waking each other:
    // what a worker and the loop thread do once per response.
    let here = Arc::new(Waker::new()?);
    let there = Arc::new(Waker::new()?);
    let stop = Arc::new(AtomicBool::new(false));
    let mut poller = Poller::new()?;
    poller.register(here.fd(), PEER, Interest::READ)?;
    let echo = {
        let (here, there, stop) = (Arc::clone(&here), Arc::clone(&there), Arc::clone(&stop));
        std::thread::spawn(move || -> std::io::Result<()> {
            let mut poller = Poller::new()?;
            poller.register(there.fd(), PEER, Interest::READ)?;
            let mut events = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                poller.wait(&mut events, Some(Duration::from_millis(100)))?;
                if !events.is_empty() {
                    there.drain();
                    here.wake();
                }
            }
            Ok(())
        })
    };
    let mut events = Vec::new();
    let mut rtt_us = Vec::with_capacity(ROUND_TRIPS);
    for _ in 0..ROUND_TRIPS {
        let t0 = Instant::now();
        there.wake();
        loop {
            poller.wait(&mut events, Some(Duration::from_millis(100)))?;
            if !events.is_empty() {
                break;
            }
        }
        here.drain();
        rtt_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    stop.store(true, Ordering::SeqCst);
    there.wake();
    echo.join().expect("the echo thread does not panic")?;
    sink.put(
        "net.waker_rtt_us",
        stats::median(&rtt_us).unwrap_or(f64::NAN),
    );

    // A wheel is filled, timed, then swept, timed: one pass gives both.
    const TIMERS: usize = 10_000;
    let (mut schedule_ns, mut advance_ns) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut wheel: TimerWheel<u64> = TimerWheel::new(Duration::from_millis(1), 512);
        let now = Instant::now();
        for i in 0..TIMERS {
            wheel.schedule(now + Duration::from_millis((i % 400) as u64), i as u64);
        }
        schedule_ns.push(now.elapsed().as_nanos() as f64 / TIMERS as f64);
        let mut fired = Vec::with_capacity(TIMERS);
        let t0 = Instant::now();
        wheel.advance(now + Duration::from_millis(600), &mut fired);
        advance_ns.push(t0.elapsed().as_nanos() as f64 / fired.len().max(1) as f64);
    }
    sink.put(
        "net.timer.schedule_ns",
        stats::median(&schedule_ns).unwrap_or(f64::NAN),
    );
    sink.put(
        "net.timer.advance_ns",
        stats::median(&advance_ns).unwrap_or(f64::NAN),
    );
    Ok(())
}

fn obs_rungs(sink: &mut Sink) {
    const LOOPS: u64 = 1_000_000;
    let histogram = srj_obs::Histogram::new();
    let record = median_ns(REPS, || {
        for v in 0..LOOPS {
            histogram.observe(black_box(v));
        }
    });
    sink.put("obs.histogram_record_ns", record / LOOPS as f64);
    // No server runs in this process, so tracing is off: this is what
    // every instrumented call site costs a request that is not traced.
    let event = median_ns(REPS, || {
        for _ in 0..LOOPS {
            srj_obs::trace::event(black_box("bench"), black_box("probe"));
        }
    });
    sink.put("obs.trace_event_off_ns", event / LOOPS as f64);
}

pub fn run_layers(w: &Workload, seed: u64) -> Result<LayerReport, String> {
    let data = w.dataset();
    let (r, s) = (data.r, data.s);
    let all_ops = w.ops(seed, &r);
    let ops = &all_ops[..all_ops.len().min(REPLAY_OPS)];
    let anchors = w.anchors(&r);
    let mutation = mutation_points(anchors[0], &mut SmallRng::seed_from_u64(seed));
    let mut sink = Sink(Vec::new());

    let store = Arc::new(DatasetStore::new(r.clone(), s.clone()));
    let replayed = replay(w, ops, &store);
    drop(store);
    let untraced_us = stats::median(&replayed.untraced_us).unwrap_or(f64::NAN);
    let traced_us = stats::median(&replayed.traced_us).unwrap_or(f64::NAN);
    sink.put("bench.replay_request_us", untraced_us);
    sink.put("bench.trace_overhead_ratio", traced_us / untraced_us);
    sink.put("engine.epoch.swaps", replayed.lru.total_swaps() as f64);
    let mut engine_build_ms = replayed.lru.build_ms.clone();
    let ladder = ladder(&mut sink, &replayed, untraced_us, traced_us);
    let trace = replayed.tracer.to_json(TRACE_FILE_REQUESTS);
    drop(replayed);

    structure_rungs(&mut sink, w, &r, &s, &mutation, seed);
    engine_rungs(&mut sink, w, &r, &s, &anchors, seed, &mut engine_build_ms);
    sink.put(
        "engine.build_ms",
        stats::median(&engine_build_ms).unwrap_or(f64::NAN),
    );
    protocol_rungs(&mut sink, w);
    net_rungs(&mut sink).map_err(|e| format!("net rungs: {e}"))?;
    obs_rungs(&mut sink);

    Ok(LayerReport {
        workload: w.name.to_string(),
        metrics: sink.0,
        ladder,
        trace,
    })
}
