//! One end-to-end round: data from the seed, timed set-up, untimed
//! warm-up, a timed phase of a fixed operation count against a real
//! server over loopback. Runs in a process of its own, so peak memory,
//! set-up time and the mutation history belong to this round alone.
//!
//! Closed loop, one client thread, one connection: the reference host
//! has two cores, and the server adds its loop thread and one worker.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use srj_core::JoinPair;
use srj_engine::{DatasetSnapshot, DatasetStore};
use srj_geom::{Point, PointId, Rect};
use srj_server::{
    Client, ClientConfig, DatasetRegistry, RequestStatus, SampleRequest, Server, ServerConfig,
    ServerStatsFrame, Side,
};

use crate::host;
use crate::json::Json;
use crate::stats;
use crate::workload::{op_hash, Op, Workload, DATASET_ID};

/// Every pair of every `FULL_CHECK_EVERY`-th request is
/// membership-checked; of every other request, the first
/// `PREFIX_CHECK_PAIRS`.
const FULL_CHECK_EVERY: usize = 64;
const PREFIX_CHECK_PAIRS: usize = 32;

pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        build_threads: 1,
        ..ServerConfig::default()
    }
}

/// No retries: every refusal and transport error surfaces as a failure.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        retries: 0,
        ..ClientConfig::default()
    }
}

pub fn sample_request(w: &Workload, l: f64, t: u64, seed: u64) -> SampleRequest {
    SampleRequest {
        req_id: 0,
        dataset: DATASET_ID,
        l,
        algorithm: Some(w.algorithm),
        shards: 1,
        t,
        seed,
    }
}

/// Resolves the ids of an answer against the store's own snapshot. With
/// one closed-loop client nothing moves between an answer and its check:
/// mutations buffer, and compaction only runs inside the next SAMPLE.
pub struct Resolver {
    store: Arc<DatasetStore>,
    snapshot: DatasetSnapshot,
}

impl Resolver {
    pub fn new(store: Arc<DatasetStore>) -> Resolver {
        let snapshot = store.snapshot();
        Resolver { store, snapshot }
    }

    fn refresh(&mut self) {
        if self.store.version() != self.snapshot.version {
            self.snapshot = self.store.snapshot();
        }
    }

    fn is_member(&self, pair: JoinPair, l: f64) -> bool {
        let snap = &self.snapshot;
        let live = snap.delta.is_r_live(pair.r)
            && snap.delta.is_s_live(pair.s)
            && !snap.s_dead.contains(&pair.s);
        match (snap.r_point(pair.r), snap.s_point(pair.s)) {
            (Some(r), Some(s)) => live && Rect::window(r, l).contains(s),
            _ => false,
        }
    }

    /// Whether every one of `pairs` is a pair of the current join.
    pub fn all_members(&mut self, pairs: &[JoinPair], l: f64) -> bool {
        self.refresh();
        pairs.iter().all(|&p| self.is_member(p, l))
    }
}

/// Which S ids a DELETE names. Ids are epoch-relative, so only INSERT
/// answers of the dataset's current epoch are banked; with nothing
/// banked (a compaction just ran) the ids come from the latest SAMPLE
/// answer, which was drawn in the current epoch.
#[derive(Default)]
pub struct DeleteBank {
    batches: VecDeque<(u64, PointId, u32)>,
}

impl DeleteBank {
    pub fn bank(&mut self, epoch: u64, first_id: PointId, count: u32) {
        self.batches.push_back((epoch, first_id, count));
    }

    pub fn take(&mut self, epoch: u64, count: usize, last_answer: &[JoinPair]) -> Vec<PointId> {
        self.batches.retain(|&(e, _, _)| e == epoch);
        if let Some((_, first, n)) = self.batches.pop_front() {
            return (first..first + n).take(count).collect();
        }
        let mut seen = HashSet::new();
        last_answer
            .iter()
            .map(|p| p.s)
            .filter(|id| seen.insert(*id))
            .take(count)
            .collect()
    }
}

/// Sum of a counter's series in a Prometheus text exposition.
fn metric_total(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|line| {
            line.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// The server-side counters a round reads before and after its timed
/// phase.
struct ServerCounts {
    stats: ServerStatsFrame,
    wakeups: f64,
    parks: f64,
    shed: f64,
    buffer_hits: f64,
}

impl ServerCounts {
    fn read(server: &Server) -> ServerCounts {
        let text = server.metrics_text();
        ServerCounts {
            stats: server.stats(),
            wakeups: metric_total(&text, "srj_event_loop_wakeups_total"),
            parks: metric_total(&text, "srj_backpressure_parks_total"),
            shed: metric_total(&text, "srj_requests_shed"),
            buffer_hits: metric_total(&text, "srj_buffer_hits_total"),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What one round measured. `metrics` holds this round's end-to-end
/// values (NaN where an estimator refused), `counts` the server-side
/// counts over the timed phase, which repeat exactly for one seed.
#[derive(Clone, Debug)]
pub struct RoundReport {
    pub workload: String,
    pub metrics: Vec<(String, f64)>,
    pub counts: Vec<(String, f64)>,
    pub request_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub op_hash: u64,
    /// Set-up plus timed phase: what this round spent measuring.
    pub measured_s: f64,
}

impl RoundReport {
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .chain(&self.counts)
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    pub fn to_json(&self) -> Json {
        let pairs = |items: &[(String, f64)]| {
            Json::Obj(
                items
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            )
        };
        Json::obj([
            ("workload", Json::str(self.workload.clone())),
            ("metrics", pairs(&self.metrics)),
            ("counts", pairs(&self.counts)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("op_hash", Json::str(format!("{:016x}", self.op_hash))),
            ("measured_s", Json::Num(self.measured_s)),
            ("request_us", Json::nums(self.request_us.iter().copied())),
        ])
    }

    pub fn from_json(j: &Json) -> Option<RoundReport> {
        let pairs = |key: &str| -> Vec<(String, f64)> {
            j.get(key)
                .and_then(Json::as_obj)
                .map(|o| {
                    o.iter()
                        .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
                        .collect()
                })
                .unwrap_or_default()
        };
        Some(RoundReport {
            workload: j.get("workload")?.as_str()?.to_string(),
            metrics: pairs("metrics"),
            counts: pairs("counts"),
            request_us: j.f64s("request_us"),
            attempted: j.get("attempted")?.as_f64()? as u64,
            failed: j.get("failed")?.as_f64()? as u64,
            op_hash: u64::from_str_radix(j.get("op_hash")?.as_str()?, 16).ok()?,
            measured_s: j.get("measured_s")?.as_f64()?,
        })
    }
}

fn micros(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&v| v as f64 / 1e3).collect()
}

/// Round trips per loopback probe.
const PROBE_ROUND_TRIPS: usize = 300;

/// Median round trip of `f`, microseconds; NaN if any attempt failed.
fn probe_us(mut f: impl FnMut(usize) -> bool) -> f64 {
    let mut us = Vec::with_capacity(PROBE_ROUND_TRIPS);
    for i in 0..PROBE_ROUND_TRIPS {
        let t0 = Instant::now();
        if !f(i) {
            return f64::NAN;
        }
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    stats::median(&us).unwrap_or(f64::NAN)
}

/// A server that has answered its first sample, and the way in.
struct Live {
    store: Arc<DatasetStore>,
    server: Server,
    client: Client,
}

/// One timed set-up: from the points to the first served sample.
/// Returns the seconds it took.
fn set_up(w: &Workload, r: Vec<Point>, s: Vec<Point>) -> Result<(f64, Live), String> {
    let start = Instant::now();
    let store = Arc::new(DatasetStore::new(r, s));
    let mut registry = DatasetRegistry::new();
    registry.register_store(DATASET_ID, Arc::clone(&store));
    let server = Server::start("127.0.0.1:0", registry, server_config())
        .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect_with(server.local_addr(), client_config())
        .map_err(|e| format!("connect: {e}"))?;
    let first = client
        .sample(sample_request(w, w.windows[0], 1, 1))
        .map_err(|e| format!("first sample: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    if first.status != RequestStatus::Ok || first.pairs.len() != 1 {
        return Err(format!("first sample ended {}", first.status));
    }
    Ok((
        seconds,
        Live {
            store,
            server,
            client,
        },
    ))
}

/// Wall time, CPU time and samples delivered over one segment of the
/// timed phase.
struct Segment {
    start: Instant,
    cpu_start: u64,
    delivered: u64,
}

impl Segment {
    fn begin() -> Segment {
        Segment {
            start: Instant::now(),
            cpu_start: host::process_cpu_ns(),
            delivered: 0,
        }
    }

    /// `(samples per second, CPU ns per sample)`.
    fn rates(&self) -> (f64, f64) {
        let wall_s = self.start.elapsed().as_secs_f64();
        let cpu_ns = (host::process_cpu_ns() - self.cpu_start) as f64;
        let delivered = self.delivered as f64;
        (
            ratio(delivered, wall_s),
            if self.delivered > 0 {
                cpu_ns / delivered
            } else {
                f64::NAN
            },
        )
    }
}

/// Runs one round. With `probes`, the server is also asked — after the
/// timed phase and after the counts are read — for a PING (loop thread
/// only) and a one-sample SAMPLE (loop, worker hand-off, acquire, one
/// draw) a few hundred times: the traced run's loopback rungs.
///
/// The server comes back still running. Dropping it shuts it down, which
/// waits up to a second for its recorder thread to wake; the round's
/// child process has nothing left to do and simply exits instead.
pub fn run_round(w: &Workload, seed: u64, probes: bool) -> Result<(RoundReport, Server), String> {
    let data = w.dataset();
    let ops = w.ops(seed, &data.r);
    let digest = op_hash(&ops);

    let (setup_s, live) = set_up(w, data.r, data.s)?;
    let Live {
        store,
        server,
        mut client,
    } = live;

    let mut resolver = Resolver::new(Arc::clone(&store));
    let mut bank = DeleteBank::default();
    let mut last_answer: Vec<JoinPair> = Vec::new();
    let mut request_ns: Vec<u64> = Vec::with_capacity(w.timed_ops);
    let mut update_ns: Vec<u64> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut samples_sent = 0usize;
    let mut phase: Option<(Instant, ServerCounts)> = None;
    let mut segment = Segment::begin();
    let mut segment_rates: Vec<(f64, f64)> = Vec::new();

    for (i, op) in ops.iter().enumerate() {
        let timed = i >= w.warm_ops;
        if i == w.warm_ops {
            phase = Some((Instant::now(), ServerCounts::read(&server)));
            segment = Segment::begin();
        }
        let (ok, elapsed_ns) = match op {
            Op::Sample { l, t, seed } => {
                let t0 = Instant::now();
                let answer = client.sample(sample_request(w, *l, *t, *seed));
                let elapsed = t0.elapsed().as_nanos() as u64;
                // Checks run between requests, outside the latency timer.
                let ok = match answer {
                    Ok(out) => {
                        let checked = if samples_sent.is_multiple_of(FULL_CHECK_EVERY) {
                            &out.pairs[..]
                        } else {
                            &out.pairs[..out.pairs.len().min(PREFIX_CHECK_PAIRS)]
                        };
                        let ok = out.status == RequestStatus::Ok
                            && out.pairs.len() as u64 == *t
                            && resolver.all_members(checked, *l);
                        last_answer = out.pairs;
                        ok
                    }
                    Err(_) => false,
                };
                samples_sent += 1;
                if timed {
                    request_ns.push(elapsed);
                    if ok {
                        segment.delivered += t;
                    }
                }
                (ok, None)
            }
            Op::Insert { side, points } => {
                let t0 = Instant::now();
                let answer = client.insert(DATASET_ID, *side, points);
                let elapsed = t0.elapsed().as_nanos() as u64;
                let ok = match answer {
                    Ok(out) => {
                        if *side == Side::S && out.status == RequestStatus::Ok {
                            bank.bank(out.epoch, out.first_id, out.applied);
                        }
                        out.status == RequestStatus::Ok && out.applied as usize == points.len()
                    }
                    Err(_) => false,
                };
                (ok, Some(elapsed))
            }
            Op::DeleteS { count } => {
                // The epoch probe is the protocol's way to learn which
                // banked ids still mean anything; it is not the update.
                match client.epoch(DATASET_ID) {
                    Ok((RequestStatus::Ok, info)) => {
                        let ids = bank.take(info.epoch, *count, &last_answer);
                        let t0 = Instant::now();
                        let answer = client.delete(DATASET_ID, Side::S, &ids);
                        let elapsed = t0.elapsed().as_nanos() as u64;
                        let ok = answer.is_ok_and(|out| {
                            out.status == RequestStatus::Ok && out.applied as usize == ids.len()
                        });
                        (ok && !ids.is_empty(), Some(elapsed))
                    }
                    _ => (false, None),
                }
            }
        };
        if timed {
            attempted += 1;
            failed += u64::from(!ok);
            update_ns.extend(elapsed_ns);
            if (i + 1 - w.warm_ops).is_multiple_of(w.segment_ops) {
                segment_rates.push(segment.rates());
                segment = Segment::begin();
            }
        }
    }

    let (phase_start, before) = phase.ok_or("the workload has no timed operations")?;
    let wall_s = phase_start.elapsed().as_secs_f64();
    let over_segments = |pick: fn(&(f64, f64)) -> f64| {
        stats::median(&segment_rates.iter().map(pick).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let after = ServerCounts::read(&server);
    let mut probed = Vec::new();
    if probes {
        // The window of the last request: its engine is certainly cached.
        let cached_l = ops
            .iter()
            .rev()
            .find_map(|op| match op {
                Op::Sample { l, .. } => Some(*l),
                _ => None,
            })
            .unwrap_or(w.windows[0]);
        probed.push(("server.ping_rtt_us", probe_us(|_| client.ping().is_ok())));
        probed.push((
            "server.sample1_rtt_us",
            probe_us(|i| {
                client
                    .sample(sample_request(w, cached_l, 1, i as u64 + 1))
                    .is_ok_and(|out| out.status == RequestStatus::Ok)
            }),
        ));
    }
    drop(client);

    let request_us = micros(&request_ns);
    let update_us = micros(&update_ns);
    let or_nan = |v: Option<f64>| v.unwrap_or(f64::NAN);
    let metrics = vec![
        ("setup_s", setup_s),
        ("samples_per_s", over_segments(|rates| rates.0)),
        ("request_p50_us", or_nan(stats::median(&request_us))),
        (
            "request_p90_us",
            or_nan(stats::percentile(&request_us, 0.9)),
        ),
        ("update_p50_us", or_nan(stats::median(&update_us))),
        ("update_p90_us", or_nan(stats::percentile(&update_us, 0.9))),
        ("cpu_ns_per_sample", over_segments(|rates| rates.1)),
        ("peak_rss_mb", host::peak_rss_mib()),
        ("failed_share", ratio(failed as f64, attempted as f64)),
    ];
    let requests = (after.stats.queries - before.stats.queries) as f64;
    // Engine-map counters lose an evicted engine's share, so on a
    // cache-thrashing workload a difference can come out negative.
    let hits = (after.buffer_hits - before.buffer_hits).max(0.0);
    let mut counts = vec![
        (
            "server.iterations_per_sample",
            ratio(
                (after.stats.iterations - before.stats.iterations) as f64,
                (after.stats.samples - before.stats.samples) as f64,
            ),
        ),
        (
            "server.cache_misses",
            (after.stats.cache_misses - before.stats.cache_misses) as f64,
        ),
        (
            "server.patch_swaps",
            after
                .stats
                .patch_swaps
                .saturating_sub(before.stats.patch_swaps) as f64,
        ),
        (
            "server.cells_patched",
            after
                .stats
                .cells_patched
                .saturating_sub(before.stats.cells_patched) as f64,
        ),
        (
            "server.loop_wakeups_per_request",
            ratio(after.wakeups - before.wakeups, requests),
        ),
        // Share of delivered samples served by a sample-buffer pop.
        (
            "server.buffer_hit_share",
            ratio(hits, (after.stats.samples - before.stats.samples) as f64),
        ),
        ("server.backpressure_parks", after.parks - before.parks),
        ("server.shed", after.shed - before.shed),
    ];
    counts.extend(probed);
    let named = |items: Vec<(&str, f64)>| {
        items
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<Vec<_>>()
    };
    let report = RoundReport {
        workload: w.name.to_string(),
        metrics: named(metrics),
        counts: named(counts),
        request_us,
        attempted,
        failed,
        op_hash: digest,
        measured_s: setup_s + wall_s,
    };
    Ok((report, server))
}
