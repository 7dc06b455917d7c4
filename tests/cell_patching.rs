//! Cell-granular S-side maintenance: patch-based epoch swaps rebuild
//! only the dirty cells (clean cells are `Arc`-shared across epochs,
//! proven by pointer identity), samples stay exactly uniform after a
//! partial patch for all three algorithms, and delete-only workloads
//! shrink `Σµ`.

use std::collections::{HashMap, HashSet};

use srj::{
    Algorithm, DatasetSnapshot, EpochConfig, EpochEngine, JoinPair, Point, Rect, SampleConfig,
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

/// Brute-force live join of a snapshot, by (epoch-relative) ids — dead
/// ids excluded by `live_r`/`live_s`.
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

/// The PR's acceptance criterion, per algorithm: an epoch swap whose
/// dirty-cell set is ≤ 10% of the S-side cells must rebuild **only**
/// those cells — every clean cell's structure crosses the epoch by
/// `Arc` identity — and the cells-patched counter must record exactly
/// the dirty work. Samples drawn after the patch are chi-squared
/// uniform over the live join.
#[test]
fn patch_swap_rebuilds_only_dirty_cells_and_stays_uniform() {
    let l = 5.0;
    let cfg = SampleConfig::new(l);
    for (i, algo) in [Algorithm::Kds, Algorithm::KdsRejection, Algorithm::Bbst]
        .into_iter()
        .enumerate()
    {
        let seed = 3000 + i as u64 * 10;
        let r = pseudo_points(80, seed, 60.0);
        let s = pseudo_points(600, seed + 1, 60.0);
        let engine = EpochEngine::new(
            r,
            s.clone(),
            &cfg,
            EpochConfig::default()
                .with_algorithm(algo)
                // One mutation crosses the threshold: the swap below is
                // deliberate, not incidental.
                .with_rebuild_fraction(1e-4),
        );
        let tokens_before: HashMap<(i32, i32), usize> = engine
            .engine()
            .s_cell_tokens()
            .expect("base engine must expose cell tokens")
            .into_iter()
            .collect();
        let total_cells = tokens_before.len();
        assert!(total_cells >= 30, "{algo}: dataset too coarse");

        // A small S delta: two inserts into one corner, two deletes
        // elsewhere (plus an R insert, which never dirties S cells).
        engine.insert_s(Point::new(1.0, 1.0));
        engine.insert_s(Point::new(1.5, 1.5));
        let del_a = 7u32;
        let del_b = 450u32;
        assert!(engine.delete_s(del_a));
        assert!(engine.delete_s(del_b));
        engine.insert_r(Point::new(30.0, 30.0));

        let pre = engine.store().snapshot();
        let dirty = pre.delta.dirty_s_cells(&pre.base_s, l);
        assert!(
            dirty.len() * 10 <= total_cells,
            "{algo}: scenario must stay within the 10% dirty budget \
             ({} dirty of {total_cells})",
            dirty.len()
        );

        engine.refresh();
        assert_eq!(engine.epoch(), 1, "{algo}: threshold must swap");
        assert_eq!(engine.major_swaps(), 1);
        assert_eq!(
            engine.patch_swaps(),
            1,
            "{algo}: the swap must take the cell-patch path"
        );
        let patched = engine.cells_patched();
        assert!(
            patched > 0 && patched as usize <= dirty.len(),
            "{algo}: cells-patched counter {patched} vs {} dirty cells",
            dirty.len()
        );

        // Clean cells crossed the epoch by Arc identity; dirty ones
        // were rebuilt.
        let tokens_after = engine
            .engine()
            .s_cell_tokens()
            .expect("patched engine must expose cell tokens");
        let mut shared = 0usize;
        for (coord, token) in &tokens_after {
            match tokens_before.get(coord) {
                Some(old) if !dirty.contains(coord) => {
                    assert_eq!(token, old, "{algo}: clean cell {coord:?} was rebuilt");
                    shared += 1;
                }
                Some(old) if dirty.contains(coord) => {
                    assert_ne!(token, old, "{algo}: dirty cell {coord:?} was shared");
                }
                _ => assert!(
                    dirty.contains(coord),
                    "{algo}: unexpected fresh cell {coord:?}"
                ),
            }
        }
        assert!(
            shared >= total_cells - dirty.len(),
            "{algo}: only {shared} of {} clean cells shared",
            total_cells - dirty.len()
        );

        // Exact uniformity over the live join of the patched epoch
        // (stable S ids, renumbered R ids, dead ids invisible).
        let snap = engine.store().snapshot();
        assert!(snap.s_dead.contains(&del_a) && snap.s_dead.contains(&del_b));
        let join = live_join(&snap, l);
        assert!(join.len() > 30, "{algo}: workload too sparse");
        let join_set: HashSet<JoinPair> = join.iter().copied().collect();
        let draws = (join.len() as u64 * 60).max(20_000);
        let mut h = engine.handle_seeded(9 + seed);
        let mut counts: HashMap<JoinPair, u64> = HashMap::new();
        for _ in 0..draws {
            let p = h.sample_one().unwrap();
            assert!(
                join_set.contains(&p),
                "{algo}: emitted dead or non-join pair {p:?}"
            );
            *counts.entry(p).or_insert(0) += 1;
        }
        assert_uniform(&counts, &join, draws, &format!("{algo} post-patch"));
    }
}

/// Consecutive patch swaps keep sharing: a second patch must share the
/// cells the first patch rebuilt (they are clean the second time).
#[test]
fn consecutive_patches_share_previously_patched_cells() {
    let l = 4.0;
    let engine = EpochEngine::new(
        pseudo_points(50, 77, 50.0),
        pseudo_points(400, 78, 50.0),
        &SampleConfig::new(l),
        EpochConfig::default()
            .with_algorithm(Algorithm::Bbst)
            .with_rebuild_fraction(1e-4),
    );
    engine.insert_s(Point::new(2.0, 2.0));
    engine.refresh();
    assert_eq!(engine.patch_swaps(), 1);
    let tokens_mid: HashMap<(i32, i32), usize> = engine
        .engine()
        .s_cell_tokens()
        .unwrap()
        .into_iter()
        .collect();

    // Second patch, far away from the first.
    engine.insert_s(Point::new(45.0, 45.0));
    engine.refresh();
    assert_eq!(engine.patch_swaps(), 2);
    let tokens_after = engine.engine().s_cell_tokens().unwrap();
    let far_coord = (
        (2.0f64 / l).floor() as i32, //
        (2.0f64 / l).floor() as i32,
    );
    let shared_first_patch_cell = tokens_after
        .iter()
        .find(|(c, _)| *c == far_coord)
        .map(|(c, t)| tokens_mid.get(c) == Some(t));
    assert_eq!(
        shared_first_patch_cell,
        Some(true),
        "the cell patched first must be shared by the second patch"
    );
}
