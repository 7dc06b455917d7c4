//! Integration tests for epoch-versioned dynamic datasets: statistical
//! uniformity with pending deltas (between rebuilds) and after epoch
//! swaps, and in-flight handles surviving swaps.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use srj::{Algorithm, EpochConfig, EpochEngine, Point, Rect, RowGranularity, SampleConfig};

mod common;
use common::{draw_and_check, draw_batches_and_check, pseudo_points};

/// Uniformity must hold with pending deltas (served through the
/// overlay, *between* rebuilds) and again after the epoch swap folds
/// them in — for every algorithm.
#[test]
fn uniform_with_pending_deltas_and_after_epoch_swap() {
    let l = 6.0;
    let cfg = SampleConfig::new(l);
    for (i, algo) in [Algorithm::Kds, Algorithm::KdsRejection, Algorithm::Bbst]
        .into_iter()
        .enumerate()
    {
        let seed = 1000 + i as u64 * 10;
        let r = pseudo_points(60, seed, 50.0);
        let s = pseudo_points(80, seed + 1, 50.0);
        // Thresholds high enough that the interleaved batches below
        // stay pending (overlay-served) until we force the swap — the
        // tombstone-only trigger would otherwise fire on the delete
        // batches.
        let engine = EpochEngine::new(
            r,
            s,
            &cfg,
            EpochConfig::default()
                .with_algorithm(algo)
                .with_rebuild_fraction(0.9)
                .with_tombstone_rebuild_fraction(0.9),
        );

        // Interleaved insert/delete batches on both sides.
        for (j, p) in pseudo_points(20, seed + 2, 50.0).into_iter().enumerate() {
            let rid = engine.insert_r(p);
            if j % 5 == 0 {
                assert!(engine.delete_r(rid), "fresh insert must be deletable");
            }
        }
        for p in pseudo_points(25, seed + 3, 50.0) {
            engine.insert_s(p);
        }
        for id in (0..60u32).step_by(9) {
            assert!(engine.delete_r(id));
        }
        for id in (0..80u32).step_by(11) {
            assert!(engine.delete_s(id));
        }

        engine.refresh();
        assert_eq!(engine.epoch(), 0, "{algo}: deltas must stay pending");
        assert!(engine.engine().is_overlay(), "{algo}: expected overlay");
        draw_and_check(&engine, l, 7 + seed, &format!("{algo} pre-rebuild"));

        // Fold the deltas in: compact + rebuild = major epoch swap.
        engine.store().compact();
        engine.refresh();
        assert_eq!(engine.epoch(), 1, "{algo}: swap must bump the epoch");
        assert!(!engine.engine().is_overlay());
        assert_eq!(engine.algorithm(), algo, "pinned algorithm must survive");
        draw_and_check(&engine, l, 8 + seed, &format!("{algo} post-rebuild"));
    }
}

/// In-flight handles pinned to an old epoch must complete cleanly —
/// and stay correct against *their* epoch's id space and algorithm —
/// while inserts and a full rebuild happen underneath them.
#[test]
fn in_flight_handles_survive_epoch_swaps() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 20_000;
    let l = 5.0;
    let r = pseudo_points(80, 21, 40.0);
    let s = pseudo_points(120, 22, 40.0);
    let engine = Arc::new(EpochEngine::new(
        r,
        s,
        &SampleConfig::new(l),
        EpochConfig::default().with_rebuild_fraction(0.05),
    ));

    let start = Arc::new(Barrier::new(THREADS + 1));
    let swapped = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let start = Arc::clone(&start);
            let swapped = Arc::clone(&swapped);
            thread::spawn(move || {
                // Pin a handle + its epoch's snapshot before any mutation.
                let snap = engine.store().snapshot();
                let mut h = engine.handle_seeded(100 + t as u64);
                let algorithm = h.algorithm();
                start.wait();
                let mut drawn = 0usize;
                while drawn < PER_THREAD || !swapped.load(Ordering::Acquire) {
                    let p = h.sample_one().expect("pinned handle must keep serving");
                    let rp = snap.r_point(p.r).expect("id outside pinned epoch");
                    let sp = snap.s_point(p.s).expect("id outside pinned epoch");
                    assert!(Rect::window(rp, l).contains(sp));
                    drawn += 1;
                    if drawn > PER_THREAD * 100 {
                        panic!("swap flag never arrived");
                    }
                }
                assert_eq!(h.algorithm(), algorithm, "a swap reached a pinned handle");
                drawn
            })
        })
        .collect();

    start.wait();
    // Mutate past the rebuild threshold while the workers sample.
    let before = engine.epoch();
    for p in pseudo_points(30, 23, 40.0) {
        engine.insert_r(p);
        engine.insert_s(Point::new(p.x * 0.9, p.y * 0.9));
    }
    engine.refresh(); // major swap: compaction renumbers ids
    assert!(engine.epoch() > before, "rebuild threshold must have fired");
    swapped.store(true, Ordering::Release);

    for w in workers {
        let drawn = w.join().expect("worker panicked");
        assert!(drawn >= PER_THREAD);
    }

    // New handles see the new epoch and its renumbered ids.
    let snap = engine.store().snapshot();
    let mut h = engine.handle_seeded(999);
    for _ in 0..2_000 {
        let p = h.sample_one().unwrap();
        let rp = snap.r_point(p.r).unwrap();
        let sp = snap.s_point(p.s).unwrap();
        assert!(Rect::window(rp, l).contains(sp));
    }
}

/// The batch-draw suite: batch draws on the fresh engine, mutate both
/// sides, draw through the pending overlay, force the epoch swap, and
/// draw again — at every stage each sample must belong to that stage's
/// live join and stay chi-squared uniform. Runs every algorithm family.
/// BBST runs on the locally uniform data of `tests/golden_streams.rs`,
/// where its group-row probe needs more than two iterations a sample, so
/// it serves per-`r` rows, the paper's Algorithm 1, on both sides of the
/// swap.
#[test]
fn batches_stay_uniform_across_mutations_and_swap() {
    for (i, (algo, (n_r, n_s), extent, l)) in [
        (Algorithm::Kds, (60, 80), 50.0, 6.0),
        (Algorithm::KdsRejection, (60, 80), 50.0, 6.0),
        (Algorithm::Bbst, (400, 600), 60.0, 4.0),
    ]
    .into_iter()
    .enumerate()
    {
        let seed = 4000 + i as u64 * 10;
        let r = pseudo_points(n_r, seed, extent);
        let s = pseudo_points(n_s, seed + 1, extent);
        let engine = EpochEngine::new(
            r,
            s,
            &SampleConfig::new(l),
            EpochConfig::default()
                .with_algorithm(algo)
                .with_rebuild_fraction(0.9)
                .with_tombstone_rebuild_fraction(0.9),
        );
        let per_r = || engine.engine().row_granularity() == RowGranularity::PerR;
        assert!(per_r(), "{algo}: the fresh engine serves per-r rows");

        draw_batches_and_check(&engine, l, seed + 7, &format!("{algo} batch fresh"));

        // Mutate both sides.
        for (j, p) in pseudo_points(20, seed + 2, extent).into_iter().enumerate() {
            let rid = engine.insert_r(p);
            if j % 5 == 0 {
                assert!(engine.delete_r(rid));
            }
        }
        for p in pseudo_points(25, seed + 3, extent) {
            engine.insert_s(p);
        }
        for id in (0..60u32).step_by(9) {
            assert!(engine.delete_r(id));
        }
        for id in (0..80u32).step_by(11) {
            assert!(engine.delete_s(id));
        }
        engine.refresh();
        assert_eq!(engine.epoch(), 0, "{algo}: deltas must stay pending");
        assert!(engine.engine().is_overlay());
        // Pending deltas serve through the overlay — batch draws must
        // reflect them immediately.
        draw_batches_and_check(&engine, l, seed + 8, &format!("{algo} batch overlay"));

        // Fold the deltas in: compact + rebuild = major epoch swap.
        engine.store().compact();
        engine.refresh();
        assert_eq!(engine.epoch(), 1, "{algo}: swap must bump the epoch");
        assert!(per_r(), "{algo}: the swap changed the row granularity");
        draw_batches_and_check(&engine, l, seed + 9, &format!("{algo} batch post-swap"));
    }
}

/// Zero-sample and zero-iteration accessors return `None` or `0.0`,
/// never NaN.
#[test]
fn rejection_rate_accessors_guard_zero_samples() {
    let r = pseudo_points(50, 71, 30.0);
    let s = pseudo_points(50, 72, 30.0);
    let engine = srj::Engine::auto(&r, &s, &SampleConfig::new(4.0));
    let h = engine.handle_seeded(0);
    assert_eq!(h.rejection_rate(), None, "zero-sample handle");
    let rate = engine.stats().rejection_rate();
    assert!(!rate.is_nan(), "zero-sample engine rate must not be NaN");
    assert_eq!(rate, 0.0, "zero-sample engine");
}
