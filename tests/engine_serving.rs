//! Integration tests for the `srj-engine` serving subsystem: the
//! build-once/serve-many contract under real threads, and statistical
//! uniformity when samples are drawn through the engine path (mirroring
//! `tests/uniformity.rs` for the single-threaded samplers).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use srj::grid::{ladder_side, Grid};
use srj::{
    Algorithm, BbstIndex, DatasetStore, Engine, EpochConfig, EpochEngine, GroupIndex, JoinPair,
    KdsIndex, KdsRejectionIndex, Point, Rect, RowGranularity, SampleConfig,
};

mod common;
use common::{draw_and_check, draw_batches_and_check, pseudo_points};

/// ≥ 4 threads share one engine built once; every draw must be a
/// genuine join pair and every per-thread stream must be reproducible
/// under its fixed seed.
#[test]
fn concurrent_threads_share_one_engine() {
    const THREADS: u64 = 8;
    const PER_THREAD: usize = 2_000;

    let r = pseudo_points(300, 1, 80.0);
    let s = pseudo_points(500, 2, 80.0);
    let l = 6.0;
    let cfg = SampleConfig::new(l);

    for algo in [Algorithm::Kds, Algorithm::KdsRejection, Algorithm::Bbst] {
        let engine = Arc::new(Engine::build(&r, &s, &cfg, algo));

        let run_all = |engine: &Arc<Engine>| -> Vec<Vec<JoinPair>> {
            let mut joins = Vec::new();
            thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|tid| {
                        let engine = Arc::clone(engine);
                        scope.spawn(move || {
                            let mut h = engine.handle_seeded(0xFEED ^ tid);
                            h.sample_batch(PER_THREAD)
                                .expect("non-empty join must sample")
                        })
                    })
                    .collect();
                joins = handles.into_iter().map(|h| h.join().unwrap()).collect();
            });
            joins
        };

        let first = run_all(&engine);
        // every draw from every thread is a genuine join pair
        for pairs in &first {
            assert_eq!(pairs.len(), PER_THREAD);
            for p in pairs {
                let w = Rect::window(r[p.r as usize], l);
                assert!(w.contains(s[p.s as usize]), "{algo}: non-join pair {p:?}");
            }
        }
        // distinct seeds actually explore different streams
        let distinct: HashSet<&Vec<JoinPair>> = first.iter().collect();
        assert_eq!(distinct.len(), THREADS as usize, "{algo}: seed collision");

        // re-running with the same seeds reproduces every stream,
        // regardless of thread scheduling
        let second = run_all(&engine);
        assert_eq!(first, second, "{algo}: streams not reproducible");

        // aggregate stats saw every query
        let snap = engine.stats();
        assert_eq!(snap.queries, 2 * THREADS);
        assert_eq!(snap.samples, 2 * THREADS * PER_THREAD as u64);
        assert_eq!(snap.errors, 0);
        assert!(snap.p99_latency >= snap.p50_latency);
    }
}

/// Chi-square uniformity over a fully-enumerable join, drawing through
/// the engine path (handle-owned RNG, stats recording and all), for
/// each algorithm the engine can serve.
#[test]
fn engine_path_is_uniform_over_join() {
    let r = pseudo_points(60, 101, 60.0);
    let s = pseudo_points(90, 102, 60.0);
    let l = 6.0;

    let join = srj::join::nested_loop_join(&r, &s, l);
    assert!(join.len() > 10, "test join too small to be meaningful");
    let expected_support: HashSet<JoinPair> =
        join.iter().map(|&(a, b)| JoinPair::new(a, b)).collect();

    let per_pair = 60usize;
    let draws = per_pair * join.len();

    for algo in [Algorithm::Kds, Algorithm::KdsRejection, Algorithm::Bbst] {
        let engine = Engine::build(&r, &s, &SampleConfig::new(l), algo);
        let mut handle = engine.handle_seeded(0xC0FFEE);
        let samples = handle.sample_batch(draws).unwrap();

        let mut freq: HashMap<JoinPair, usize> = HashMap::new();
        for p in samples {
            assert!(
                expected_support.contains(&p),
                "{algo}: emitted a non-join pair {p:?}"
            );
            *freq.entry(p).or_default() += 1;
        }
        assert_eq!(
            freq.len(),
            join.len(),
            "{algo}: some join pairs are unreachable"
        );

        let expected = per_pair as f64;
        let chi2: f64 = expected_support
            .iter()
            .map(|p| {
                let obs = *freq.get(p).unwrap_or(&0) as f64;
                (obs - expected) * (obs - expected) / expected
            })
            .sum();
        let df = (join.len() - 1) as f64;
        let threshold = df + 6.0 * (2.0 * df).sqrt();
        assert!(
            chi2 < threshold,
            "{algo}: χ² = {chi2:.1} exceeds {threshold:.1} (df = {df})"
        );
    }
}

/// The same uniformity must hold when the draws are split across
/// threads: merging every thread's samples is still uniform over `J`.
#[test]
fn engine_path_is_uniform_across_threads() {
    let r = pseudo_points(50, 201, 50.0);
    let s = pseudo_points(80, 202, 50.0);
    let l = 6.0;

    let join = srj::join::nested_loop_join(&r, &s, l);
    assert!(join.len() > 10);
    let expected_support: HashSet<JoinPair> =
        join.iter().map(|&(a, b)| JoinPair::new(a, b)).collect();

    const THREADS: u64 = 4;
    let per_pair = 60usize;
    let per_thread = per_pair * join.len() / THREADS as usize;

    let engine = Arc::new(Engine::build(
        &r,
        &s,
        &SampleConfig::new(l),
        Algorithm::Bbst,
    ));
    let mut freq: HashMap<JoinPair, usize> = HashMap::new();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    engine
                        .handle_seeded(0xBEEF ^ tid)
                        .sample_batch(per_thread)
                        .unwrap()
                })
            })
            .collect();
        for h in handles {
            for p in h.join().unwrap() {
                *freq.entry(p).or_default() += 1;
            }
        }
    });

    for p in freq.keys() {
        assert!(expected_support.contains(p), "non-join pair {p:?}");
    }
    assert_eq!(freq.len(), join.len(), "some join pairs unreachable");

    let total: usize = freq.values().sum();
    let expected = total as f64 / join.len() as f64;
    let chi2: f64 = expected_support
        .iter()
        .map(|p| {
            let obs = *freq.get(p).unwrap_or(&0) as f64;
            (obs - expected) * (obs - expected) / expected
        })
        .sum();
    let df = (join.len() - 1) as f64;
    let threshold = df + 6.0 * (2.0 * df).sqrt();
    assert!(chi2 < threshold, "χ² = {chi2:.1} exceeds {threshold:.1}");
}

/// Duplicate coordinates, negative coordinates and points on cell
/// boundaries: the data on which a tie order or a boundary rule shows.
fn lattice_points(n: usize, seed: u64) -> Vec<Point> {
    pseudo_points(n, seed, 41.0)
        .into_iter()
        .map(|p| Point::new(p.x.floor() * 0.5 - 10.0, p.y.floor() * 0.5 - 10.0))
        .collect()
}

fn epoch_engine(store: &Arc<DatasetStore>, l: f64, algorithm: Algorithm) -> EpochEngine {
    EpochEngine::with_store(
        Arc::clone(store),
        &SampleConfig::new(l),
        EpochConfig::default().with_algorithm(algorithm),
    )
}

/// Every sample of a clean epoch engine is a pair of the join over the
/// store's snapshot.
fn assert_membership(engine: &EpochEngine, l: f64) {
    let snap = engine.store().snapshot();
    for p in engine.handle_seeded(0xC0DE).sample_batch(500).unwrap() {
        let w = Rect::window(snap.r_point(p.r).unwrap(), l);
        assert!(
            w.contains(snap.s_point(p.s).unwrap()),
            "non-join pair {p:?}"
        );
    }
}

/// A full build's grid of `S` has every cell sorted, and pre-processing
/// to show for it, where its rows read runs; under group rows, neither.
fn assert_sorts_what_it_reads(engine: &srj::Engine, l: f64) {
    let grid = engine.s_grid().unwrap();
    let sorted = grid.cells().iter().filter(|c| c.has_views()).count();
    let preprocessing = engine.build_report().preprocessing;
    if engine.row_granularity() == RowGranularity::Group {
        assert_eq!((sorted, preprocessing), (0, Duration::ZERO), "l = {l}");
    } else {
        assert_eq!(sorted, grid.num_cells(), "l = {l}");
        assert!(preprocessing > Duration::ZERO, "l = {l}");
    }
}

/// Engines of different window sizes over one store stand on one
/// `PointSet`, which holds the points and nothing else; a build sorts
/// the cells of its own grid exactly when its family reads their runs —
/// every cell for per-`r` rows, KDS and KDS-rejection, none for group
/// rows — and charges that to pre-processing; and what is built on the
/// shared set is what is built from a slice.
#[test]
fn window_sizes_over_one_store_share_one_point_set() {
    let r = lattice_points(400, 11);
    let s = lattice_points(2_000, 12);
    let store = Arc::new(DatasetStore::new(r.clone(), s.clone()));
    let base = store.snapshot().base_s;

    let first = epoch_engine(&store, 1.5, Algorithm::Bbst);
    for (l, algorithm) in [
        (1.5, Algorithm::Bbst),
        (0.5, Algorithm::Bbst),
        (2.0, Algorithm::Kds),
        (3.7, Algorithm::KdsRejection),
    ] {
        let next = epoch_engine(&store, l, algorithm);
        let engine = next.engine();
        assert!(
            Arc::ptr_eq(engine.s_grid().unwrap().point_set(), &base),
            "l = {l}"
        );
        assert_sorts_what_it_reads(&engine, l);
        assert!(engine.memory_bytes() > base.memory_bytes());
        assert_eq!(base.memory_bytes(), s.len() * 16);
        assert_membership(&next, l);
    }

    // Shared set or slice, the index is the same index.
    for l in [0.5, 1.5, 3.7] {
        let cfg = SampleConfig::new(l);
        let shared = BbstIndex::build(&r, &base, &cfg);
        let sliced = BbstIndex::build(&r, &s, &cfg);
        assert_eq!(shared.mu_total(), sliced.mu_total());
        assert!((0..r.len()).all(|i| shared.mu_of(i) == sliced.mu_of(i)));
        // The engine serves one of the family's two row granularities:
        // group rows on the grid of the window's ladder step, or — where
        // those need more than two iterations a sample — on a grid of
        // side `l`, as per-`r` rows stand.
        let engine = epoch_engine(&store, l, Algorithm::Bbst);
        let side = engine.engine().s_grid().unwrap().cell_side();
        assert!(side == ladder_side(l) || side == l, "l = {l}: side {side}");
        let on_side = |grid| GroupIndex::build_on_grid(&r, Arc::new(grid), &cfg);
        let rows = on_side(Grid::build(&base, side));
        let sliced_rows = on_side(Grid::build(&s, side));
        assert_eq!(rows.mu_total(), sliced_rows.mu_total());
        assert_eq!(
            engine.total_weight(),
            match engine.engine().row_granularity() {
                RowGranularity::PerR => sliced.mu_total(),
                RowGranularity::Group => rows.mu_total(),
            },
            "l = {l}"
        );
        let shared = KdsRejectionIndex::build(&r, &base, &cfg);
        let sliced = KdsRejectionIndex::build(&r, &s, &cfg);
        assert_eq!(shared.mu_total(), sliced.mu_total());
        assert!((0..r.len()).all(|i| shared.mu_of(i) == sliced.mu_of(i)));
        let shared = KdsIndex::build(&r, &base, &cfg);
        let sliced = KdsIndex::build(&r, &s, &cfg);
        assert_eq!(shared.mu_total(), sliced.mu_total());
        assert!(shared
            .rows()
            .iter()
            .zip(sliced.rows())
            .all(|(a, b)| a.total() == b.total()));
    }

    // An incremental compaction appends to `S`: a new set.
    store.insert_s(Point::new(0.25, -0.75));
    let (snap, _) = store.compact_incremental();
    assert!(!Arc::ptr_eq(&snap.base_s, &base));
    let after_incremental = epoch_engine(&store, 1.5, Algorithm::Bbst);
    let engine = after_incremental.engine();
    assert!(Arc::ptr_eq(
        engine.s_grid().unwrap().point_set(),
        &snap.base_s
    ));
    assert_sorts_what_it_reads(&engine, 1.5);
    assert_membership(&after_incremental, 1.5);

    // A full compaction renumbers `S`: again a new set.
    assert!(store.delete_s(7));
    let (renumbered, s_changed) = store.compact();
    assert!(s_changed && !Arc::ptr_eq(&renumbered.base_s, &snap.base_s));
    let after_full = epoch_engine(&store, 0.5, Algorithm::Bbst);
    let engine = after_full.engine();
    assert!(Arc::ptr_eq(
        engine.s_grid().unwrap().point_set(),
        &renumbered.base_s
    ));
    assert_sorts_what_it_reads(&engine, 0.5);
    // Half-unit cells over the half-unit lattice: a window covers its
    // whole block, the grid bound is exact and group rows serve.
    assert_eq!(engine.row_granularity(), RowGranularity::Group);
    assert_eq!(
        after_full.total_weight(),
        GroupIndex::build(
            &renumbered.base_r,
            &renumbered.base_s[..],
            &SampleConfig::new(0.5)
        )
        .mu_total()
    );
    assert_membership(&after_full, 0.5);
    // The first epoch's engines still stand on the set they were built on.
    assert!(Arc::ptr_eq(
        first.engine().s_grid().unwrap().point_set(),
        &base
    ));
}

/// `R` is held once per epoch: engines of two window sizes over one
/// store stand on the store's `R` set itself, and an `R`-only rebuild,
/// a patch swap and a full rebuild each stand on the set of the epoch
/// they commit — in every family.
#[test]
fn window_sizes_over_one_store_share_one_r_set() {
    for algorithm in [Algorithm::Bbst, Algorithm::Kds, Algorithm::KdsRejection] {
        let store = Arc::new(DatasetStore::new(
            pseudo_points(300, 21, 50.0),
            pseudo_points(400, 22, 50.0),
        ));
        let cfg = EpochConfig::default()
            .with_algorithm(algorithm)
            .with_rebuild_fraction(1e-4);
        let narrow = EpochEngine::with_store(Arc::clone(&store), &SampleConfig::new(2.0), cfg);
        let wide = EpochEngine::with_store(Arc::clone(&store), &SampleConfig::new(3.5), cfg);
        let first = store.snapshot().base_r;
        let stands_on_the_store_set = |engine: &EpochEngine, what: &str| {
            let set = engine.engine().r_set();
            assert!(
                Arc::ptr_eq(&set, &store.snapshot().base_r),
                "{algorithm} {what}: not the epoch's R set"
            );
            set
        };
        let set = stands_on_the_store_set(&narrow, "first build");
        assert!(Arc::ptr_eq(&set, &first));
        assert!(Arc::ptr_eq(&wide.engine().r_set(), &set), "{algorithm}");

        // An `R`-only rebuild keeps the grid of `S` and takes the new
        // epoch's `R`.
        let grid = narrow.engine().s_grid().unwrap();
        narrow.insert_r(Point::new(10.0, 10.0));
        narrow.refresh();
        assert!(Arc::ptr_eq(&narrow.engine().s_grid().unwrap(), &grid));
        let r_only = stands_on_the_store_set(&narrow, "R-only rebuild");
        assert!(!Arc::ptr_eq(&r_only, &first) && r_only.len() == first.len() + 1);
        assert_membership(&narrow, 2.0);

        // A patch swap folds only `S`: the epoch keeps the `R` set.
        narrow.insert_s(Point::new(11.0, 10.5));
        narrow.refresh();
        assert_eq!(narrow.patch_swaps(), 1, "{algorithm}");
        let patched = stands_on_the_store_set(&narrow, "patch swap");
        assert!(
            Arc::ptr_eq(&patched, &r_only),
            "{algorithm}: a patch swap copied the R it left alone"
        );
        assert_membership(&narrow, 2.0);

        // A compaction from outside forces the full path.
        narrow.insert_r(Point::new(20.0, 20.0));
        store.compact();
        narrow.refresh();
        assert!(!Arc::ptr_eq(&narrow.engine().s_grid().unwrap(), &grid));
        let full = stands_on_the_store_set(&narrow, "full rebuild");
        assert!(!Arc::ptr_eq(&full, &patched) && full.len() == patched.len() + 1);
        assert_membership(&narrow, 2.0);

        // The other window size catches up onto the same set.
        wide.refresh();
        stands_on_the_store_set(&wide, "sibling rebuild");
        assert_membership(&wide, 3.5);
    }
}

/// Two cache misses on two window sizes at the same moment: both stand
/// on the store's one set, each sorts the cells of its own grid, and the
/// set is left as it was.
#[test]
fn concurrent_misses_on_two_window_sizes_share_the_base() {
    let r = lattice_points(200, 21);
    let store = Arc::new(DatasetStore::new(r, lattice_points(20_000, 22)));
    let base = store.snapshot().base_s;
    let start = std::sync::Barrier::new(2);
    thread::scope(|scope| {
        for l in [1.0, 2.5] {
            let (store, start, base) = (&store, &start, &base);
            scope.spawn(move || {
                start.wait();
                let engine = epoch_engine(store, l, Algorithm::Kds);
                assert_membership(&engine, l);
                let grid = engine.engine().s_grid().unwrap();
                assert!(Arc::ptr_eq(grid.point_set(), base));
                assert!(grid.cells().iter().all(|c| c.has_views()));
            });
        }
    });
    assert_eq!(base.memory_bytes(), 20_000 * 16);
}

/// Every rung of the maintenance ladder is a function of the data, never
/// of who sampled before: draws on one handle — 40 000 of them over 256
/// isolated one-point corner cells, the loosest input per-`r` BBST rows
/// have (a full bucket per cell, eight iterations a sample) and one the
/// build therefore serves from group rows, whose bound is exact here —
/// leave the epoch, `Σµ`, the row granularity, every cell's structure and
/// every fixed-seed stream exactly as they were.
#[test]
fn sampling_traffic_never_changes_an_epoch() {
    let l = 5.0;
    let at = |i: usize, off: f64| Point::new((5 * i) as f64 * l + off * l, off * l);
    let r: Vec<Point> = (0..256).map(|i| at(i, 0.5)).collect();
    let s: Vec<Point> = (0..256).map(|i| at(i, 1.3)).collect();

    for algorithm in [Some(Algorithm::Bbst), Some(Algorithm::KdsRejection), None] {
        let cfg = EpochConfig {
            algorithm,
            ..EpochConfig::default()
        };
        let engine = EpochEngine::new(r.clone(), s.clone(), &SampleConfig::new(l), cfg);
        let batch = || engine.handle_seeded(7).sample_batch(200).unwrap();
        let summary = || {
            let rows = engine.engine().row_granularity();
            (
                engine.epoch(),
                engine.total_weight(),
                engine.algorithm(),
                rows,
            )
        };
        let (batch_before, summary_before) = (batch(), summary());
        let tokens_before = engine.engine().s_cell_tokens();
        if algorithm == Some(Algorithm::Bbst) {
            let bound = 256.0; // every block holds the one point its window does
            let rows = RowGranularity::Group;
            assert_eq!(summary_before, (0, bound, Algorithm::Bbst, rows));
        }

        let mut other = engine.handle_seeded(99);
        other.sample_batch(40_000).unwrap();
        if algorithm == Some(Algorithm::Bbst) {
            assert_eq!(other.rejection_rate(), Some(1.0));
        }
        engine.refresh();
        assert_eq!(summary(), summary_before, "{algorithm:?}");
        // `assert!`, not `assert_eq!`: a failure must not print 200
        // pairs and 256 cell tokens twice.
        assert!(batch() == batch_before, "{algorithm:?}: the stream moved");
        let tokens = engine.engine().s_cell_tokens();
        assert!(tokens == tokens_before, "{algorithm:?}: a cell was rebuilt");
        assert_eq!(engine.minor_swaps() + engine.major_swaps(), 0);
    }
}

/// The row granularity of a BBST engine is decided by its full build,
/// from `(R, S, l)` alone: clustered data is served from group
/// rows, locally uniform data — the fixture data of
/// `tests/golden_streams.rs`, which this change must not move — from the
/// per-`r` rows of a plain [`BbstIndex`], draw for draw; sampling traffic
/// changes neither, and every way to a full build decides alike.
#[test]
fn row_granularity_is_a_function_of_the_data() {
    use rand::{rngs::SmallRng, SeedableRng};
    use srj::{BbstCursor, GroupCursor};

    let cfg = SampleConfig::new(4.0);
    let uniform = [71, 72].map(|seed| pseudo_points(600, seed, 60.0));
    let clustered = [81, 82].map(|seed| clustered_points(600, seed, 60.0));
    for ([r, s], rows) in [
        (&uniform, RowGranularity::PerR),
        (&clustered, RowGranularity::Group),
    ] {
        let r = &r[..400];
        let build = || Engine::build(r, s, &cfg, Algorithm::Bbst);
        let engine = build();
        let summary = |e: &Engine| (e.row_granularity(), e.row_count(), e.total_weight());
        let stream = |e: &Engine| e.handle_seeded(7).sample_batch(300).unwrap();
        let (summary_before, stream_before) = (summary(&engine), stream(&engine));
        assert_eq!(summary_before.0, rows);

        // The engine draws what the bare index of its granularity does.
        let mut rng = SmallRng::seed_from_u64(7);
        let mut bare = Vec::new();
        let drawn = match rows {
            RowGranularity::PerR => {
                let index = BbstIndex::build(r, &s[..], &cfg);
                assert_eq!(summary_before.2, index.mu_total());
                BbstCursor::new(Arc::new(index)).sample_batch(300, &mut rng, &mut bare)
            }
            RowGranularity::Group => {
                let index = GroupIndex::build(r, &s[..], &cfg);
                assert_eq!(summary_before.1, index.group_count());
                assert_eq!(summary_before.2, index.mu_total());
                GroupCursor::new(Arc::new(index)).sample_batch(300, &mut rng, &mut bare)
            }
        };
        assert_eq!(drawn, Ok(()));
        assert!(
            bare == stream_before,
            "{rows:?}: not the bare index's stream"
        );

        // Traffic moves nothing, on this engine or on the next build.
        engine.handle_seeded(99).sample_batch(40_000).unwrap();
        let store = Arc::new(DatasetStore::new(r.to_vec(), s.clone()));
        let epoch_cfg = EpochConfig::default().with_algorithm(Algorithm::Bbst);
        let served = EpochEngine::with_store(store, &cfg, epoch_cfg).engine();
        for (what, e) in [
            ("after 40 000 draws", &engine),
            ("rebuilt", &build()),
            ("epoch", &served),
        ] {
            assert_eq!(summary(e), summary_before, "{rows:?}: {what}");
            assert!(stream(e) == stream_before, "{rows:?}: {what}");
        }
    }
}

/// Every BBST build the benchmark makes serves group rows: the datasets
/// of `benchmark/src/workload.rs` (kind, scale × base size, data seed 1,
/// as `tests/rounding_probes.rs` generates them), `cold_windows`' 24
/// window sizes and `mixed_updates`' one. Its loosest window
/// (`cold_windows`, `l` = 50) probes at about 1.64 iterations a sample.
#[test]
fn every_benchmark_bbst_window_serves_group_rows() {
    use srj::grid::PointSet;
    use srj::{generate, split_rs, DatasetKind, DatasetSpec};

    let ls = |from: u32, to: u32| (from..=to).step_by(10).map(f64::from).collect::<Vec<_>>();
    for (name, n, ls) in [
        ("mixed_updates", 40_000, ls(100, 100)),
        ("cold_windows", 80_000, ls(50, 280)),
    ] {
        let points = generate(&DatasetSpec::new(DatasetKind::PoiClusters, n, 1));
        let (r, s) = split_rs(&points, 0.5, 1 ^ 0xDEAD_BEEF);
        let s = Arc::new(PointSet::new(s));
        for l in ls {
            let engine = Engine::build(&r, &s, &SampleConfig::new(l), Algorithm::Bbst);
            assert_eq!(
                engine.row_granularity(),
                RowGranularity::Group,
                "{name}, l = {l}"
            );
        }
    }
}

/// Tight clusters, far narrower than any window the tests use: every
/// window holds its whole cluster, so the grid's block bound is nearly
/// exact.
fn clustered_points(n: usize, seed: u64, extent: f64) -> Vec<Point> {
    let centres = pseudo_points(12, 77, extent - 2.0);
    pseudo_points(n, seed, 0.8)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let c = centres[i % centres.len()];
            Point::new(c.x + p.x, c.y + p.y)
        })
        .collect()
}

/// The engine holds every index in one shape — the index of a family,
/// optionally under an overlay — so every operation must behave the
/// same way down the whole table `{KDS, KDS-rejection, BBST per-r rows,
/// BBST group rows} × {base, with_overlay}`.
#[test]
fn every_family_and_overlay_is_one_index_shape() {
    use srj::{DeltaSet, OverlaySupport, PointId};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let l = 5.0;
    let cfg = SampleConfig::new(l);
    let uniform = [901, 902, 903].map(|seed| pseudo_points(600, seed, 60.0));
    let clustered = [911, 912, 913].map(|seed| clustered_points(600, seed, 60.0));
    let cases = [
        (Algorithm::Kds, &uniform, RowGranularity::PerR),
        (Algorithm::KdsRejection, &uniform, RowGranularity::PerR),
        (Algorithm::Bbst, &uniform, RowGranularity::PerR),
        (Algorithm::Bbst, &clustered, RowGranularity::Group),
    ];

    for (algo, [r, s, r2], rows) in cases {
        let (r, r2) = (&r[..240], &r2[..200]);

        // Pending mutations for the overlay engines, each beside a point
        // of the other side so that its chunk row is not empty.
        let support = OverlaySupport::build(r, s, l);
        let mut delta = DeltaSet::for_base(r.len(), s.len());
        delta.r_inserted.push(Point::new(s[1].x + 0.1, s[1].y));
        delta.s_inserted.push(Point::new(r[1].x, r[1].y + 0.1));
        delta.s_deleted.insert(7);

        // An `S` patch: two inserts into one corner, two deletes elsewhere.
        let inserted_s = [Point::new(1.0, 1.0), Point::new(1.5, 1.5)];
        let deleted_s: HashSet<PointId> = [7, 450].into();

        let in_window = |r: &[Point], pairs: &[JoinPair], what: &str| {
            for p in pairs {
                let w = Rect::window(r[p.r as usize], l);
                assert!(w.contains(s[p.s as usize]), "{what}: {p:?} is no join pair");
            }
        };

        let base = Engine::build(r, s, &cfg, algo);
        let s_patched = base.s_grid().unwrap().point_set().extended(&inserted_s);
        let s_patched = Arc::new(s_patched);
        let overlay = base.with_overlay(delta.clone(), &support, &cfg);
        for (engine, is_overlay) in [(&base, false), (&overlay, true)] {
            let what = format!("{algo} {rows:?} × overlay {is_overlay}");
            assert_eq!(engine.algorithm(), algo, "{what}");
            assert_eq!(engine.handle().algorithm(), algo, "{what}");
            assert_eq!(engine.is_overlay(), is_overlay, "{what}");
            assert_eq!(engine.cell_count(), base.cell_count(), "{what}");

            assert_eq!(engine.row_granularity(), rows, "{what}");
            assert_eq!(engine.row_count(), base.row_count(), "{what}");

            // Memory by structure: the parts are the whole; a clean
            // index keeps one forty-byte row per `r` (KDS-rejection
            // one `f64`) and stands on the `R` set, 16 B a point (a
            // slice came in: a set of its own) — or per group
            // of `R` one forty-byte row and its nine four-byte cell
            // slots, beside the set `R`'s indices in group order, and no
            // per-cell units; pending mutations add to the overlay's own
            // entries and to nothing of the base's.
            let bytes = engine.memory_breakdown();
            assert_eq!(bytes.total(), engine.memory_bytes(), "{what}");
            let clean = base.memory_breakdown();
            let row_count = base.row_count();
            if rows == RowGranularity::Group {
                assert!(row_count < r.len() / 4, "{what}: {row_count} rows");
                assert_eq!(clean.rows, (40 + 36) * row_count, "{what}");
                let group_bounds = 4 * (row_count + 1);
                assert_eq!(clean.r_points, (16 + 4) * r.len() + group_bounds, "{what}");
                assert_eq!(clean.units, 0, "{what}");
            } else {
                let per_r = if algo == Algorithm::KdsRejection {
                    8
                } else {
                    40
                };
                assert_eq!(row_count, r.len(), "{what}");
                assert_eq!(clean.rows, per_r * r.len(), "{what}");
                assert_eq!(clean.r_points, 16 * r.len(), "{what}");
            }
            assert_eq!(clean.delta, 0, "{what}");
            if is_overlay {
                assert!(bytes.delta > 0, "{what}");
                assert_eq!(bytes.rows, clean.rows + 2 * 40, "{what}: two chunk rows");
                assert_eq!((bytes.r_points, bytes.units), (clean.r_points, clean.units));
                assert!(bytes.grid > clean.grid && bytes.point_set > clean.point_set);
            }

            // Same seed, same stream, through either entry point.
            let batch = engine.handle_seeded(11).sample_batch(300).unwrap();
            assert_eq!(batch.len(), 300, "{what}");
            assert_eq!(
                batch,
                engine.handle_seeded(11).sample_batch(300).unwrap(),
                "{what}: sample_batch"
            );
            assert_eq!(
                engine.handle_seeded(11).sample_batch(300).unwrap(),
                engine.handle_seeded(11).sample_batch(300).unwrap(),
                "{what}: sample"
            );

            if is_overlay {
                // Structure belongs to the full build underneath.
                assert!(engine.rebuild_r_only(r2, &cfg).is_none(), "{what}");
                assert!(
                    engine
                        .rebuild_with_s_patch(r2, &cfg, &s_patched, &deleted_s)
                        .is_none(),
                    "{what}"
                );
                assert!(engine.s_cell_tokens().is_none(), "{what}");
                assert!(engine.s_grid().is_none(), "{what}");
                let stacked = catch_unwind(AssertUnwindSafe(|| {
                    engine.with_overlay(delta.clone(), &support, &cfg)
                }));
                assert!(stacked.is_err(), "{what}: overlays must not stack");
                continue;
            }
            in_window(r, &batch, &what);
            let tokens = engine.s_cell_tokens().expect("a full build has cells");
            let grid = engine.s_grid().expect("a full build has a grid of S");
            assert_eq!(grid.num_cells(), engine.cell_count(), "{what}");

            // A new `R` over the same `S`-side: every cell and the
            // grid cross by `Arc` identity.
            let rebuilt = engine.rebuild_r_only(r2, &cfg).expect("a full build");
            assert_eq!(rebuilt.algorithm(), algo, "{what}");
            assert_eq!(rebuilt.row_granularity(), rows, "{what}");
            assert_eq!(rebuilt.s_cell_tokens().unwrap(), tokens, "{what}");
            assert!(Arc::ptr_eq(&rebuilt.s_grid().unwrap(), &grid), "{what}");
            let pairs = rebuilt.handle_seeded(12).sample_batch(300).unwrap();
            in_window(r2, &pairs, &format!("{what}, R-only rebuild"));

            // An `S` patch: clean cells keep their token, dirty ones
            // do not.
            let (patched, report) = engine
                .rebuild_with_s_patch(r2, &cfg, &s_patched, &deleted_s)
                .expect("a full build");
            assert_eq!(patched.algorithm(), algo, "{what}");
            assert_eq!(patched.row_granularity(), rows, "{what}");
            let dirty = grid.dirty_cells(&inserted_s, &deleted_s);
            assert_eq!(report.cells_rebuilt, dirty.len(), "{what}");
            let before: HashMap<(i32, i32), usize> = tokens.iter().copied().collect();
            for (coord, token) in patched.s_cell_tokens().unwrap() {
                match before.get(&coord) {
                    Some(old) if dirty.contains(&coord) => {
                        assert_ne!(token, *old, "{what}: dirty cell {coord:?} shared")
                    }
                    Some(old) => assert_eq!(token, *old, "{what}: clean cell {coord:?}"),
                    None => assert!(dirty.contains(&coord), "{what}: fresh {coord:?}"),
                }
            }
            assert!(
                patched.handle_seeded(13).sample_batch(100).is_ok(),
                "{what}"
            );
        }
    }
}

/// A store of clustered points (`clustered_points`): every window from
/// 0.7 up holds its whole cluster, so group rows serve at every ladder
/// step the tests below use.
fn clustered_store() -> Arc<DatasetStore> {
    Arc::new(DatasetStore::new(
        clustered_points(120, 31, 60.0),
        clustered_points(180, 32, 60.0),
    ))
}

/// A group-row build sorts nothing: `S` is its points, 16 B each, and
/// no cell of the grid has a view. A KDS build over the same store sorts
/// every cell of its own grid, and counts the views with the grid.
#[test]
fn a_group_row_build_sorts_nothing() {
    let store = clustered_store();
    let m = store.snapshot().base_s.len();
    let group = epoch_engine(&store, 1.0, Algorithm::Bbst);
    let engine = group.engine();
    assert_eq!(engine.row_granularity(), RowGranularity::Group);
    assert_eq!(engine.memory_breakdown().point_set, 16 * m);
    let grid = engine.s_grid().unwrap();
    assert!(grid.cells().iter().all(|c| !c.has_views()));

    let kds = epoch_engine(&store, 1.0, Algorithm::Kds);
    let engine = kds.engine();
    assert_eq!(engine.memory_breakdown().point_set, 16 * m);
    let grid = engine.s_grid().unwrap();
    assert!(grid.cells().iter().all(|c| c.has_views()));
    // Members and both views: three ids a point, within the grid's bytes.
    let cells: usize = grid.cells().iter().map(|c| c.memory_bytes()).sum();
    assert_eq!(cells, 3 * 4 * m);
    assert!(engine.memory_breakdown().grid > cells);
}

/// One engine per ladder step: it serves its own window and every
/// narrower one on the step from one grid and one set of group rows;
/// the next step's window stands on the next step's engine.
#[test]
fn windows_on_one_ladder_step_share_one_grid() {
    let store = clustered_store();
    let (step, next) = (
        epoch_engine(&store, 1.0, Algorithm::Bbst),
        epoch_engine(&store, 1.25, Algorithm::Bbst),
    );
    let windows = [(&step, 0.9), (&step, 1.0), (&next, 1.1)];
    let served = windows.map(|(engine, l)| engine.engine_at(l).unwrap());
    let grids = served.each_ref().map(|e| e.s_grid().unwrap());
    let cores = served.each_ref().map(|e| e.group_core().unwrap());
    assert_eq!(grids.each_ref().map(|g| g.cell_side()), [1.0, 1.0, 1.25]);
    assert!(Arc::ptr_eq(&grids[0], &grids[1]));
    assert!(Arc::ptr_eq(&cores[0], &cores[1]));
    assert!(!Arc::ptr_eq(&grids[1], &grids[2]));
    assert!(!Arc::ptr_eq(&cores[1], &cores[2]));
    for ((engine, l), served) in windows.into_iter().zip(&served) {
        assert_eq!(served.row_granularity(), RowGranularity::Group);
        draw_and_check(engine, l, 3, &format!("l = {l}"));
    }
}

/// The stream rule holds across sharing: a window's seeded stream is a
/// function of `(R, S, l)`, whether the step's engine serves it beside
/// the step's own window, a fresh step engine serves it, an engine is
/// built for the window alone, or a standalone engine. The step's rows
/// live as long as the last handle on them, and no longer.
#[test]
fn a_shared_step_draws_what_a_fresh_one_does_and_dies_with_its_engines() {
    let store = clustered_store();
    let stream = |mut h: srj::SamplerHandle| h.sample_batch(400).unwrap();

    let step = epoch_engine(&store, 1.0, Algorithm::Bbst);
    step.handle_seeded(7).sample_batch(100).unwrap();
    let mut held = step.handle_at(0.9, Some(7)).unwrap();
    let core = step.engine_at(0.9).unwrap().group_core().unwrap();
    assert!(Arc::ptr_eq(&core, &step.engine().group_core().unwrap()));
    let shared = held.sample_batch(400).unwrap();
    let weak = Arc::downgrade(&core);
    drop((core, step));
    assert!(weak.upgrade().is_some(), "a live handle keeps its rows");
    assert_eq!(held.sample_batch(10).unwrap().len(), 10);
    drop(held);
    assert!(
        weak.upgrade().is_none(),
        "the step's rows outlived their last handle"
    );

    let alone = epoch_engine(&store, 1.0, Algorithm::Bbst);
    let fresh = alone.engine().group_core().unwrap();
    assert!(!std::ptr::eq(weak.as_ptr(), Arc::as_ptr(&fresh)));
    assert!(
        stream(alone.handle_at(0.9, Some(7)).unwrap()) == shared,
        "a fresh step drew another stream"
    );
    let own = epoch_engine(&store, 0.9, Algorithm::Bbst);
    assert!(stream(own.handle_seeded(7)) == shared);
    let snap = store.snapshot();
    let standalone = Engine::build(
        &snap.base_r,
        &snap.base_s,
        &SampleConfig::new(0.9),
        Algorithm::Bbst,
    );
    assert!(stream(standalone.handle_seeded(7)) == shared);

    // A compaction is a new base: a build over it stands on new rows,
    // even while the old ones are alive.
    store.insert_s(Point::new(30.0, 30.0));
    store.compact();
    let next = epoch_engine(&store, 1.0, Algorithm::Bbst);
    let after = next.engine().group_core().unwrap();
    assert!(!Arc::ptr_eq(&after, &fresh));
    assert!(Arc::ptr_eq(after.r_set(), &store.snapshot().base_r));
    drop(alone);
    assert_eq!(
        Arc::strong_count(&fresh),
        1,
        "only this test holds the old rows"
    );
}

/// Windows off the ladder serve group rows at the step above them,
/// exactly — built for the window itself, or served by the step's
/// engine: every draw a join pair of window `l`, and uniform.
#[test]
fn off_ladder_group_engines_draw_uniformly() {
    let store = clustered_store();
    for (l, step) in [(0.7, 0.8), (0.9, 1.0), (1.1, 1.25), (1.3, 1.6), (3.0, 3.15)] {
        for home in [l, step] {
            let engine = epoch_engine(&store, home, Algorithm::Bbst);
            let served = engine.engine_at(l).unwrap();
            assert_eq!(served.row_granularity(), RowGranularity::Group, "l = {l}");
            assert_eq!(served.s_grid().unwrap().cell_side(), step, "l = {l}");
            let what = format!("l = {l} on step {step}, engine at {home}");
            draw_batches_and_check(&engine, l, 5, &what);
        }
    }
}
