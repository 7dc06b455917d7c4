//! Integration tests for epoch-versioned dynamic datasets: statistical
//! uniformity with pending deltas (between rebuilds) and after epoch
//! swaps, and in-flight handles surviving swaps.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use srj::{
    Algorithm, DatasetSnapshot, EpochConfig, EpochEngine, JoinPair, Point, Rect, RowGranularity,
    SampleConfig,
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

/// Brute-force live join of a snapshot, by (epoch-relative) ids.
fn live_join(snap: &DatasetSnapshot, l: f64) -> Vec<JoinPair> {
    let mut out = Vec::new();
    for (rid, rp) in snap.live_r() {
        let w = Rect::window(rp, l);
        for (sid, sp) in snap.live_s() {
            if w.contains(sp) {
                out.push(JoinPair::new(rid, sid));
            }
        }
    }
    out
}

/// Chi-squared uniformity over the exact pair space (the same
/// Wilson–Hilferty p ≈ 0.001 cutoff as tests/uniformity.rs).
fn assert_uniform(counts: &HashMap<JoinPair, u64>, join: &[JoinPair], draws: u64, what: &str) {
    let k = join.len() as f64;
    let expected = draws as f64 / k;
    assert!(expected >= 5.0, "{what}: test underpowered ({expected})");
    let chi2: f64 = join
        .iter()
        .map(|p| {
            let o = *counts.get(p).unwrap_or(&0) as f64;
            (o - expected) * (o - expected) / expected
        })
        .sum();
    let dof = k - 1.0;
    let z = 3.09;
    let cut = dof * (1.0 - 2.0 / (9.0 * dof) + z * (2.0 / (9.0 * dof)).sqrt()).powi(3);
    assert!(
        chi2 < cut,
        "{what}: chi2 {chi2:.1} over cutoff {cut:.1} (dof {dof})"
    );
}

fn draw_and_check(engine: &EpochEngine, l: f64, seed: u64, what: &str) {
    let snap = engine.store().snapshot();
    let join = live_join(&snap, l);
    assert!(
        join.len() > 30,
        "{what}: workload too sparse ({})",
        join.len()
    );
    let join_set: std::collections::HashSet<JoinPair> = join.iter().copied().collect();
    let draws = (join.len() as u64 * 60).max(20_000);
    let mut h = engine.handle_seeded(seed);
    let mut counts: HashMap<JoinPair, u64> = HashMap::new();
    for _ in 0..draws {
        let p = h.sample_one().unwrap();
        assert!(
            join_set.contains(&p),
            "{what}: emitted dead or non-join pair {p:?}"
        );
        *counts.entry(p).or_insert(0) += 1;
    }
    assert_uniform(&counts, &join, draws, what);
}

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

/// Like [`draw_and_check`] but through the buffered batch path
/// ([`srj::SamplerHandle::sample_batch`]): draws in uneven batches so
/// buffer refill boundaries and partial batches are both crossed, and
/// every emitted pair is validated against the **current** live join —
/// a stale buffered id would fail the membership check before it could
/// skew the chi-squared.
fn draw_batches_and_check(engine: &EpochEngine, l: f64, seed: u64, what: &str) {
    let snap = engine.store().snapshot();
    let join = live_join(&snap, l);
    assert!(
        join.len() > 30,
        "{what}: workload too sparse ({})",
        join.len()
    );
    let join_set: std::collections::HashSet<JoinPair> = join.iter().copied().collect();
    let draws = (join.len() as u64 * 60).max(20_000);
    let mut h = engine.handle_seeded(seed);
    let mut counts: HashMap<JoinPair, u64> = HashMap::new();
    let mut remaining = draws as usize;
    // 517 is deliberately coprime to the 256-id buffer capacity, so
    // batch ends and refill boundaries drift against each other.
    while remaining > 0 {
        let n = remaining.min(517);
        let pairs = h.sample_batch(n).unwrap();
        assert_eq!(pairs.len(), n, "{what}: short batch");
        for p in pairs {
            assert!(
                join_set.contains(&p),
                "{what}: emitted stale or non-join pair {p:?}"
            );
            *counts.entry(p).or_insert(0) += 1;
        }
        remaining -= n;
    }
    assert_uniform(&counts, &join, draws, what);
}

/// The buffered-draw suite: warm buffers with batch draws, mutate both
/// sides, draw through the pending overlay, force the epoch swap, and
/// draw again — at every stage each sample must belong to that stage's
/// live join (no stale buffered ids) and stay chi-squared uniform.
/// Runs every algorithm family; the buffer counters must show real
/// buffered traffic and the swap must charge an invalidation. BBST runs
/// on the locally uniform data of `tests/golden_streams.rs`, where its
/// group-row probe needs more than two iterations a sample, so it serves
/// per-`r` rows — the granularity that arms buffers.
#[test]
fn buffered_batches_stay_uniform_across_mutations_and_swap() {
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
        assert!(engine.buffers_enabled(), "{algo}: buffers default on");
        let per_r = || engine.engine().row_granularity() == RowGranularity::PerR;
        assert!(per_r(), "{algo}: buffers arm on per-r rows only");

        // Warm: batch draws on the fresh engine promote hot cells.
        draw_batches_and_check(&engine, l, seed + 7, &format!("{algo} buffered warm"));
        let (warm_hits, warm_refills, _) = engine.buffer_counters();

        // Mutate both sides past the warm buffers' world.
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
        // reflect them immediately (a stale buffer would keep serving
        // the pre-mutation members).
        draw_batches_and_check(&engine, l, seed + 8, &format!("{algo} buffered overlay"));

        // Fold the deltas in: compact + rebuild = major epoch swap.
        engine.store().compact();
        engine.refresh();
        assert_eq!(engine.epoch(), 1, "{algo}: swap must bump the epoch");
        assert!(per_r(), "{algo}: the swap changed the row granularity");
        draw_batches_and_check(&engine, l, seed + 9, &format!("{algo} buffered post-swap"));

        let (hits, refills, invalidations) = engine.buffer_counters();
        assert!(
            warm_hits > 0 && warm_refills > 0,
            "{algo}: warm phase never hit a buffer ({warm_hits}/{warm_refills})"
        );
        assert!(
            hits > warm_hits,
            "{algo}: post-swap draws never hit a buffer"
        );
        assert!(refills >= warm_refills);
        assert!(
            invalidations >= 1,
            "{algo}: retiring the armed engine must charge an invalidation"
        );
    }
}

/// `PlanReport::buffers` mirrors the live engine flag, not the state
/// at plan time.
#[test]
fn plan_report_tracks_buffer_flag() {
    let r = pseudo_points(500, 81, 60.0);
    let s = pseudo_points(500, 82, 60.0);
    let engine = EpochEngine::new(r, s, &SampleConfig::new(6.0), EpochConfig::default());
    let plan = engine.engine().plan().expect("auto engine records a plan");
    assert!(plan.buffers, "buffers default on");
    engine.set_buffers_enabled(false);
    assert!(!engine.engine().plan().unwrap().buffers);
    engine.set_buffers_enabled(true);
    assert!(engine.engine().plan().unwrap().buffers);
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
