//! Cell-granular S-side maintenance: patch-based epoch swaps rebuild
//! only the dirty cells (clean cells are `Arc`-shared across epochs,
//! proven by pointer identity), samples stay exactly uniform after a
//! partial patch for all three algorithms, and delete-only workloads
//! shrink `Σµ`.

use std::collections::HashMap;

use srj::{Algorithm, EpochConfig, EpochEngine, Point, SampleConfig};

mod common;
use common::{draw_and_check, draw_batches_and_check, pseudo_points};

/// Per algorithm: an epoch swap whose dirty-cell set is ≤ 10% of the
/// S-side cells must rebuild **only** those cells — every clean cell's
/// structure crosses the epoch by `Arc` identity — and the cells-patched
/// counter must record exactly the dirty work. Samples drawn after the
/// patch are chi-squared uniform over the live join, and so are those
/// of a pending overlay over the patched base, which stands on the
/// base's grid of `S` instead of building one of its own.
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
                // Two deletes cross the threshold: the swap below is
                // deliberate, not incidental. The one delete of the
                // overlay step after it does not.
                .with_rebuild_fraction(0.9)
                .with_tombstone_rebuild_fraction(0.002),
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
        let base_grid = engine
            .engine()
            .s_grid()
            .expect("a full build has a grid of S");
        let dirty = base_grid.dirty_cells(&pre.delta.s_inserted, &pre.delta.s_deleted);
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
        draw_and_check(&engine, l, 9 + seed, &format!("{algo} post-patch"));

        // A pending overlay over the patched base: two inserts per side,
        // each beside a point of the other, and one more live S point
        // deleted. Its rows of inserted R rank into the base's grid of
        // S, where the dead ids are in no cell.
        let base_bytes = engine.engine().memory_breakdown();
        engine.insert_r(Point::new(s[10].x + 0.1, s[10].y));
        engine.insert_r(Point::new(s[20].x, s[20].y + 0.1));
        engine.insert_s(Point::new(snap.base_r[1].x + 0.1, snap.base_r[1].y));
        engine.insert_s(Point::new(snap.base_r[2].x, snap.base_r[2].y - 0.1));
        assert!(engine.delete_s(100));
        engine.refresh();
        assert_eq!(
            engine.minor_swaps(),
            1,
            "{algo}: the overlay step is a minor swap"
        );
        assert!(engine.engine().is_overlay(), "{algo}");
        assert_eq!(engine.epoch(), 1, "{algo}");
        let what = format!("{algo} overlay after a patch");
        draw_and_check(&engine, l, 10 + seed, &what);
        draw_batches_and_check(&engine, l, 11 + seed, &what);
        // The support adds the cells of a grid of base R and nothing of
        // S. That grid stands on the epoch's R set, not a copy: the set's
        // two orders, computed for it and kept in the set, are all it
        // adds to what the base counts as `R`.
        let overlay_bytes = engine.engine().memory_breakdown();
        assert_eq!(
            overlay_bytes.point_set, base_bytes.point_set,
            "{what}: the overlay counts a point set of its own"
        );
        assert_eq!(
            overlay_bytes.r_points - base_bytes.r_points,
            8 * snap.base_r.len(),
            "{what}: the overlay counts R other than by its orders"
        );
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
