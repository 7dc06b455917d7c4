//! An epoch whose full build stands on a ladder step above its window
//! (`srj_grid::ladder_side`): the overlay stands on the epoch's grid,
//! whose cell side exceeds `l`, so a chunk row is its member's block of
//! nine cell populations and every candidate is tested against the
//! window. Drawn uniformly through every rung of the maintenance ladder.

use std::sync::Arc;

use srj::grid::ladder_side;
use srj::{Algorithm, EpochConfig, EpochEngine, Point, PointId, RowGranularity, SampleConfig};

mod common;
use common::{draw_and_check, draw_batches_and_check, pseudo_points};

/// Clusters of the shape of `tests/golden_streams.rs`' clustered data,
/// but 2 units across instead of 0.8: wider than the window of 1.3 used
/// here, so a block of the step's grid holds points outside the window
/// — the points a row counted as exact would wrongly take — while the
/// rows still need under two iterations a sample, and group rows serve.
fn clustered_points(n: usize, seed: u64, extent: f64) -> Vec<Point> {
    let centres = pseudo_points(12, 77, extent - 2.0);
    pseudo_points(n, seed, 2.0)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let c = centres[i % centres.len()];
            Point::new(c.x + p.x, c.y + p.y)
        })
        .collect()
}

/// `l` = 1.3 stands on the step 1.6. Minor swaps with `R` and `S` inserts
/// (cross parts live both ways), a base and an insert tombstone, then a
/// patch swap of a local batch of `S`, then an `R`-only rebuild: each
/// stage draws uniformly over the live join, one draw at a time and in
/// batches — from an engine built for the window, whose chunk rows are
/// their blocks' populations, and from the step's engine, whose chunk
/// rows are exact for the step's window and whose draws test the
/// narrower one.
#[test]
fn an_off_ladder_group_epoch_draws_uniformly_through_every_rung() {
    let l = 1.3;
    let step = ladder_side(l);
    assert!(step > l);
    for home in [l, step] {
        through_every_rung(l, home);
    }
}

fn through_every_rung(l: f64, home: f64) {
    let step = ladder_side(l);
    let (r, s) = (
        clustered_points(120, 41, 60.0),
        clustered_points(180, 42, 60.0),
    );
    let more_r = clustered_points(160, 43, 60.0);
    // Inserted `S` lands in three of the twelve clusters, so that the
    // patch swap dirties few cells.
    let more_s: Vec<Point> = clustered_points(240, 44, 60.0)
        .into_iter()
        .enumerate()
        .filter_map(|(i, p)| (i % 12 < 3).then_some(p))
        .collect();
    // The minor stages pend 72 of 300 base points; the patch batch
    // crosses 0.3.
    let cfg = EpochConfig::default()
        .with_algorithm(Algorithm::Bbst)
        .with_rebuild_fraction(0.3);
    let engine = EpochEngine::new(r.clone(), s, &SampleConfig::new(home), cfg);
    let on_the_step = |what: &str| {
        let what = &format!("{what}, engine at {home}");
        // An overlay answers for the full build under it.
        let served = engine.engine_at(l).expect("the rows serve l");
        assert_eq!(served.row_granularity(), RowGranularity::Group, "{what}");
        let core = served.group_core().expect("group rows");
        assert_eq!(core.grid().cell_side(), step, "{what}");
        draw_and_check(&engine, l, 1, what);
        draw_batches_and_check(&engine, l, 2, what);
    };
    on_the_step("base");

    // Minor swaps: `R` inserts, then `S` inserts seeing them, then both
    // again with one tombstone of a base `S` point and one of an
    // inserted `R` point.
    for &p in &more_r[..20] {
        engine.insert_r(p);
    }
    engine.refresh();
    on_the_step("R inserts");
    for &p in &more_s[..30] {
        engine.insert_s(p);
    }
    engine.refresh();
    on_the_step("S inserts");
    for &p in &more_r[20..30] {
        engine.insert_r(p);
    }
    for &p in &more_s[30..40] {
        engine.insert_s(p);
    }
    assert!(engine.delete_s(5));
    assert!(engine.delete_r(r.len() as PointId + 3));
    engine.refresh();
    assert!(engine.engine().is_overlay());
    assert_eq!((engine.minor_swaps(), engine.major_swaps()), (3, 0));
    on_the_step("both sides and tombstones");

    // A patch swap: 20 more `S` points beside one cluster.
    let centre = more_s[0];
    for p in pseudo_points(20, 45, 0.5) {
        engine.insert_s(Point::new(centre.x + p.x, centre.y + p.y));
    }
    engine.refresh();
    assert_eq!(engine.patch_swaps(), 1, "a local S batch is a cell patch");
    assert!(!engine.engine().is_overlay());
    on_the_step("patch swap");

    // An `R`-only rebuild keeps the patched grid.
    let grid = engine.engine().s_grid().unwrap();
    for &p in &more_r[30..] {
        engine.insert_r(p);
    }
    engine.refresh();
    assert_eq!((engine.patch_swaps(), engine.major_swaps()), (1, 2));
    assert!(Arc::ptr_eq(&engine.engine().s_grid().unwrap(), &grid));
    on_the_step("R-only rebuild");
}
