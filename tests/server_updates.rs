//! Loopback integration tests for the dynamic-dataset protocol:
//! `INSERT`/`DELETE`/`EPOCH` frames end to end, mutation visibility in
//! subsequent `SAMPLE` answers, epoch-swap observability, and error
//! frames for unknown datasets.

use srj::{
    Algorithm, Client, DatasetRegistry, Point, Rect, RequestStatus, SampleRequest, Server,
    ServerConfig, Side,
};

fn pseudo_points(n: usize, seed: u64, extent: f64) -> Vec<Point> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| Point::new(next() * extent, next() * extent))
        .collect()
}

fn request(dataset: u64, l: f64, t: u64, seed: u64) -> SampleRequest {
    SampleRequest {
        req_id: 0,
        dataset,
        l,
        algorithm: None,
        shards: 1,
        t,
        seed,
    }
}

fn start_server() -> Server {
    let mut registry = DatasetRegistry::new();
    registry.register(1, pseudo_points(60, 1, 40.0), pseudo_points(90, 2, 40.0));
    Server::start("127.0.0.1:0", registry, ServerConfig::default()).expect("bind loopback")
}

/// Inserted points must show up in subsequent samples — without a
/// server restart — and deletes must stop showing up. The epoch frame
/// tracks the mutation counters throughout.
#[test]
fn updates_flow_over_tcp_and_reach_the_samples() {
    let mut server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let l = 5.0;

    let (status, info0) = client.epoch(1).unwrap();
    assert_eq!(status, RequestStatus::Ok);
    assert_eq!((info0.epoch, info0.version, info0.pending_ops), (0, 0, 0));
    assert_eq!((info0.live_r, info0.live_s), (60, 90));

    // A far-away cluster only reachable through the inserted points.
    let r_ins = client
        .insert(1, Side::R, &[Point::new(500.0, 500.0)])
        .unwrap();
    assert_eq!(r_ins.status, RequestStatus::Ok);
    assert_eq!(r_ins.applied, 1);
    assert_eq!(r_ins.first_id, 60, "R ids continue after the base");
    let s_ins = client
        .insert(
            1,
            Side::S,
            &[Point::new(501.0, 501.0), Point::new(499.0, 499.0)],
        )
        .unwrap();
    assert_eq!(s_ins.status, RequestStatus::Ok);
    assert_eq!(s_ins.first_id, 90);
    assert_eq!(s_ins.applied, 2);

    let (_, info1) = client.epoch(1).unwrap();
    assert_eq!(info1.version, 2, "one version bump per update batch");
    assert_eq!(info1.pending_ops, 3);
    assert_eq!((info1.live_r, info1.live_s), (61, 92));

    // The new cluster must be sampleable now.
    let outcome = client.sample(request(1, l, 4_000, 7)).unwrap();
    assert_eq!(outcome.status, RequestStatus::Ok);
    let cluster_hits = outcome
        .pairs
        .iter()
        .filter(|p| p.r == r_ins.first_id)
        .count();
    assert!(cluster_hits > 0, "inserted pair never sampled over TCP");
    for p in &outcome.pairs {
        if p.r == r_ins.first_id {
            assert!(p.s == 90 || p.s == 91, "cluster r joined a far s: {p:?}");
        }
    }

    // Delete the inserted R point: the cluster must vanish.
    let del = client.delete(1, Side::R, &[r_ins.first_id]).unwrap();
    assert_eq!(del.status, RequestStatus::Ok);
    assert_eq!(del.applied, 1);
    // Idempotent over the wire: a second delete applies nothing.
    let del2 = client.delete(1, Side::R, &[r_ins.first_id]).unwrap();
    assert_eq!(del2.status, RequestStatus::Ok);
    assert_eq!(del2.applied, 0);

    let outcome = client.sample(request(1, l, 4_000, 8)).unwrap();
    assert_eq!(outcome.status, RequestStatus::Ok);
    assert!(
        outcome.pairs.iter().all(|p| p.r != r_ins.first_id),
        "tombstoned point still sampled"
    );

    server.shutdown();
}

/// Enough mutations cross the rebuild threshold: the epoch bumps, ids
/// renumber, and samples stay valid against the compacted dataset.
#[test]
fn rebuild_threshold_bumps_the_epoch_over_tcp() {
    let r = pseudo_points(40, 11, 30.0);
    let s = pseudo_points(40, 12, 30.0);
    let mut registry = DatasetRegistry::new();
    registry.register(1, r.clone(), s.clone());
    let config = ServerConfig {
        epoch: srj::EpochConfig::default().with_rebuild_fraction(0.1),
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry, config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let l = 4.0;

    // Prime an engine so the swap below is observable as a swap.
    assert_eq!(
        client.sample(request(1, l, 500, 3)).unwrap().status,
        RequestStatus::Ok
    );

    let extra = pseudo_points(20, 13, 30.0);
    let ins = client.insert(1, Side::R, &extra).unwrap();
    assert_eq!(ins.status, RequestStatus::Ok);
    assert_eq!(ins.epoch, 0, "mutation alone must not rebuild");

    // The next sample folds the delta in (lazy swap) — past the 10%
    // threshold that means compaction.
    let outcome = client.sample(request(1, l, 2_000, 4)).unwrap();
    assert_eq!(outcome.status, RequestStatus::Ok);
    let (_, info) = client.epoch(1).unwrap();
    assert_eq!(info.epoch, 1, "threshold crossed: epoch must bump");
    assert_eq!(info.pending_ops, 0, "compaction folds the delta");
    assert_eq!(info.live_r, 60);

    // Post-swap ids address the compacted arrays.
    let mut all: Vec<Point> = r;
    all.extend_from_slice(&extra);
    let outcome = client.sample(request(1, l, 2_000, 5)).unwrap();
    for p in &outcome.pairs {
        let rp = all[p.r as usize];
        let sp = s[p.s as usize];
        assert!(Rect::window(rp, l).contains(sp), "bad post-swap pair {p:?}");
    }

    server.shutdown();
}

/// Delete-only `S` batches under read load: once the tombstones pass
/// their threshold the server must fold them in with cell-granular
/// patch swaps, and the served `Σµ` must strictly shrink — tombstone
/// rejection alone never shrinks it.
#[test]
fn delete_only_batches_patch_cells_and_shrink_mu_over_tcp() {
    const BATCH: u32 = 64;
    let mut registry = DatasetRegistry::new();
    registry.register(
        1,
        pseudo_points(2_000, 21, 400.0),
        pseudo_points(2_000, 22, 400.0),
    );
    let config = ServerConfig {
        epoch: srj::EpochConfig::default().with_tombstone_rebuild_fraction(0.02),
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry, config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let bbst = |t, seed| SampleRequest {
        algorithm: Some(Algorithm::Bbst),
        ..request(1, 10.0, t, seed)
    };

    // The serving engine must exist, with its `Σµ` registered, before
    // the first delete.
    assert_eq!(client.sample(bbst(1, 1)).unwrap().status, RequestStatus::Ok);
    let before = client.server_stats().unwrap();
    let (_, epoch_before) = client.epoch(1).unwrap();

    for round in 0..3 {
        // `S` ids are stable across patch swaps, so consecutive ranges
        // stay addressable.
        let ids: Vec<u32> = (round * BATCH..(round + 1) * BATCH).collect();
        let del = client.delete(1, Side::S, &ids).unwrap();
        assert_eq!(del.status, RequestStatus::Ok);
        assert_eq!(del.applied, BATCH);
        let outcome = client.sample(bbst(2_000, 2 + u64::from(round))).unwrap();
        assert_eq!(outcome.status, RequestStatus::Ok);
        assert_eq!(outcome.pairs.len(), 2_000);
    }

    let after = client.server_stats().unwrap();
    let (_, epoch_after) = client.epoch(1).unwrap();
    assert!(
        epoch_after.epoch > epoch_before.epoch,
        "the tombstone threshold never fired a swap"
    );
    assert_eq!(epoch_after.live_s, 2_000 - 3 * u64::from(BATCH));
    assert!(
        after.patch_swaps > before.patch_swaps,
        "deletes were folded in, but not by cell-patch swaps"
    );
    assert!(
        after.mu_total < before.mu_total,
        "delete-only swaps did not shrink Σµ: {} -> {}",
        before.mu_total,
        after.mu_total
    );

    // `STATS`, `EPOCH` and `METRICS` read one pass over the engines, so
    // with no traffic in between they agree exactly.
    let metrics = client.metrics().unwrap();
    let series = |name: &str| -> f64 {
        metrics
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in METRICS:\n{metrics}"))
    };
    assert_eq!(
        after.patch_swaps as f64,
        series("srj_maintenance_total{dataset=\"1\",rung=\"cell_patch\"}")
    );
    assert_eq!(
        after.cells_patched as f64,
        series("srj_cells_patched_total{dataset=\"1\"}")
    );
    assert_eq!(after.mu_total, series("srj_mu_total{dataset=\"1\"}"));
    assert_eq!(after.last_swap_ns, epoch_after.last_swap_ns);
    server.shutdown();
}

/// Every exported `_total` series of a dataset only grows, across
/// engine evictions and swaps: with room for one engine, two window
/// sizes evict each other every round, and each round's second `SAMPLE`
/// folds an insert in with a swap. At the end the exported iteration
/// and sample counters are the ones `STATS` reports.
#[test]
fn dataset_totals_never_decrease_across_evictions_and_swaps() {
    let mut registry = DatasetRegistry::new();
    registry.register(
        1,
        pseudo_points(400, 31, 100.0),
        pseudo_points(400, 32, 100.0),
    );
    let config = ServerConfig {
        cache_capacity: 1,
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry, config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // The dataset's counter series (`srj_mu_total` is a gauge).
    let totals = |client: &mut Client| -> Vec<(String, f64)> {
        let text = client.metrics().unwrap();
        let counters: Vec<&str> = text
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE ")?.strip_suffix(" counter"))
            .collect();
        text.lines()
            .filter(|line| {
                line.split_once("{dataset=\"1\"")
                    .is_some_and(|(name, _)| name.ends_with("_total") && counters.contains(&name))
            })
            .map(|line| {
                let (series, value) = line.rsplit_once(' ').expect("a value");
                (series.to_string(), value.parse().expect("a number"))
            })
            .collect()
    };

    let mut last = totals(&mut client);
    let inserts = pseudo_points(64, 33, 100.0);
    for (round, points) in inserts.chunks(16).enumerate() {
        let l = [5.0, 8.0][round % 2];
        for (step, points) in points.chunks(8).enumerate() {
            let ins = client.insert(1, Side::S, points).unwrap();
            assert_eq!(ins.status, RequestStatus::Ok);
            let seed = (2 * round + step) as u64 + 1;
            let outcome = client.sample(request(1, l, 500, seed)).unwrap();
            assert_eq!(outcome.status, RequestStatus::Ok);
            let now = totals(&mut client);
            for (series, value) in &now {
                let before = last
                    .iter()
                    .find(|(s, _)| s == series)
                    .map_or(0.0, |(_, v)| *v);
                assert!(
                    *value >= before,
                    "{series} went {before} -> {value} (round {round}, step {step})"
                );
            }
            last = now;
        }
    }

    let stats = client.server_stats().unwrap();
    let series = |name: &str| -> f64 {
        last.iter()
            .find(|(s, _)| s == name)
            .unwrap_or_else(|| panic!("no {name} in {last:?}"))
            .1
    };
    assert!(stats.cache_misses >= 4, "every round evicts: {stats:?}");
    assert!(
        series("srj_maintenance_total{dataset=\"1\",rung=\"minor_swap\"}")
            + series("srj_maintenance_total{dataset=\"1\",rung=\"full_rebuild\"}")
            > 0.0,
        "no insert was folded in by a swap: {last:?}"
    );
    assert_eq!(
        series("srj_rejection_iterations_total{dataset=\"1\"}"),
        stats.iterations as f64
    );
    assert_eq!(
        series("srj_samples_total{dataset=\"1\"}"),
        stats.samples as f64
    );
    server.shutdown();
}

/// Two windows on one ladder step are served by one engine, so a
/// mutation batch is folded once: one cell patch, not a patch for the
/// first window and a rebuild for the second.
#[test]
fn two_windows_on_one_step_patch_once_per_mutation_batch() {
    use srj::EpochConfig;

    // Twelve clumps one unit wide: group rows serve both windows.
    let centres = pseudo_points(12, 51, 58.0);
    let clumped = |n: usize, seed: u64| -> Vec<Point> {
        pseudo_points(n, seed, 1.0)
            .into_iter()
            .zip(centres.iter().cycle())
            .map(|(p, c)| Point::new(c.x + p.x, c.y + p.y))
            .collect()
    };
    let mut registry = DatasetRegistry::new();
    registry.register(1, clumped(300, 52), clumped(900, 53));
    let config = ServerConfig {
        epoch: EpochConfig::default().with_rebuild_fraction(1e-4),
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry, config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // 2.6 and 3.0 both stand on the step 3.15.
    let sample_both = |client: &mut Client, seed: u64| {
        for l in [2.6, 3.0] {
            let outcome = client
                .sample(SampleRequest {
                    algorithm: Some(Algorithm::Bbst),
                    ..request(1, l, 500, seed)
                })
                .unwrap();
            assert_eq!(outcome.status, RequestStatus::Ok, "l = {l}");
        }
    };
    let rungs = |client: &mut Client| -> [f64; 2] {
        let text = client.metrics().unwrap();
        ["cell_patch", "full_rebuild"].map(|rung| {
            let series = format!("srj_maintenance_total{{dataset=\"1\",rung=\"{rung}\"}} ");
            text.lines()
                .find_map(|line| line.strip_prefix(&series))
                .unwrap_or_else(|| panic!("no {series} in:\n{text}"))
                .parse()
                .expect("a number")
        })
    };
    sample_both(&mut client, 1);
    let before = rungs(&mut client);
    let near = centres[3];
    let ins = client
        .insert(1, Side::S, &[Point::new(near.x + 0.5, near.y + 0.5)])
        .unwrap();
    assert_eq!(ins.status, RequestStatus::Ok);
    sample_both(&mut client, 2);
    let after = rungs(&mut client);
    assert_eq!(
        [after[0] - before[0], after[1] - before[1]],
        [1.0, 0.0],
        "one cell patch for the step, nothing for the second window"
    );
    let stats = client.server_stats().unwrap();
    assert_eq!((stats.cache_misses, stats.engines_cached), (1, 1));
    server.shutdown();
}

/// Unknown datasets answer clean error frames for every update opcode;
/// the connection stays usable.
#[test]
fn unknown_dataset_update_error_frames() {
    let mut server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let ins = client.insert(99, Side::R, &[Point::new(0.0, 0.0)]).unwrap();
    assert_eq!(ins.status, RequestStatus::UnknownDataset);
    let del = client.delete(99, Side::S, &[0]).unwrap();
    assert_eq!(del.status, RequestStatus::UnknownDataset);
    let (status, _) = client.epoch(99).unwrap();
    assert_eq!(status, RequestStatus::UnknownDataset);

    // Still serving afterwards.
    let outcome = client.sample(request(1, 5.0, 100, 1)).unwrap();
    assert_eq!(outcome.status, RequestStatus::Ok);
    server.shutdown();
}

/// Mixed concurrent readers and writers: no request may fail, every
/// pair must be valid for some epoch's id space, and the server's
/// stats stay coherent.
#[test]
fn concurrent_updates_and_reads_stay_consistent() {
    let mut server = start_server();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        // Two writer connections inserting disjoint far-away clusters.
        for w in 0..2u64 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..20 {
                    let base = 1_000.0 * (w + 1) as f64 + i as f64 * 10.0;
                    let ins = client
                        .insert(1, Side::R, &[Point::new(base, base)])
                        .unwrap();
                    assert_eq!(ins.status, RequestStatus::Ok);
                    let ins = client
                        .insert(1, Side::S, &[Point::new(base + 1.0, base + 1.0)])
                        .unwrap();
                    assert_eq!(ins.status, RequestStatus::Ok);
                }
            });
        }
        // Two reader connections sampling throughout.
        for rdr in 0..2u64 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..10 {
                    let outcome = client
                        .sample(request(1, 5.0, 1_000, rdr * 100 + i))
                        .unwrap();
                    assert_eq!(outcome.status, RequestStatus::Ok);
                    assert_eq!(outcome.pairs.len(), 1_000);
                }
            });
        }
    });

    let mut client = Client::connect(addr).unwrap();
    let (status, info) = client.epoch(1).unwrap();
    assert_eq!(status, RequestStatus::Ok);
    assert_eq!(info.live_r, 60 + 40);
    assert_eq!(info.live_s, 90 + 40);
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.errors, 0);
    assert!(stats.queries >= 20);
    server.shutdown();
}
