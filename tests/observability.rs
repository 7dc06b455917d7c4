//! Lifecycle journal coverage: driving an engine up each maintenance
//! rung — minor swap, cell patch, `R`-only rebuild, full rebuild — must
//! land exactly the
//! expected event kinds, in order, in the process-global journal,
//! labelled with the store's dataset id and timestamped monotonically.
//!
//! Everything lives in ONE test function: the journal is a process
//! singleton, so a single sequential driver is the only way to assert
//! exact per-dataset sequences without cross-test interleaving.

use srj::{Algorithm, EpochConfig, EpochEngine, EventKind, Point, SampleConfig};

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

fn kinds_for(dataset: u64) -> Vec<EventKind> {
    srj::obs::journal::journal()
        .for_dataset(dataset)
        .iter()
        .map(|e| e.kind)
        .collect()
}

#[test]
fn maintenance_ladder_journals_expected_event_sequence() {
    // --- Rung 1 + 2: minor swap, then a cell-patch epoch swap --------
    //
    // rebuild_fraction 0.01 over a 680-point base: one pending insert
    // (fraction ~0.0015) stays below the threshold and overlays; nine
    // pending inserts (~0.013) cross it. The first sits on an R point
    // (so it has partners), the other eight in one corner, so the swap
    // takes the cell-patch path (dirty cells << the 50% patch budget) —
    // and the incremental compaction it rides on journals a Compaction
    // first.
    let l = 5.0;
    let r = pseudo_points(80, 900, 60.0);
    let beside_r0 = r[0];
    let engine = EpochEngine::new(
        r,
        pseudo_points(600, 901, 60.0),
        &SampleConfig::new(l),
        EpochConfig::default()
            .with_algorithm(Algorithm::Bbst)
            .with_rebuild_fraction(0.01),
    );
    engine.store().set_obs_label(9101);

    engine.insert_s(beside_r0);
    engine.refresh();
    assert_eq!(engine.minor_swaps(), 1, "one insert must overlay");
    assert_eq!(kinds_for(9101), vec![EventKind::MinorSwap]);
    // A minor swap says what it installed: one pending insert, so the
    // overlay draws from the base index and one chunk of inserted S.
    let minor = srj::obs::journal::journal().for_dataset(9101)[0].clone();
    assert_eq!((minor.pending_ops, minor.sources), (1, 2));

    for i in 0..8 {
        engine.insert_s(Point::new(1.0 + 0.1 * i as f64, 1.5));
    }
    engine.refresh();
    assert_eq!(engine.patch_swaps(), 1, "corner delta must patch-swap");
    assert_eq!(
        kinds_for(9101),
        vec![
            EventKind::MinorSwap,
            EventKind::Compaction,
            EventKind::CellPatch
        ],
        "a patch swap rides an incremental compaction"
    );

    // --- Rung 2, R only: a major swap that keeps the S-side ----------
    //
    // Nine R inserts cross the same threshold but dirty no cell of S:
    // the incremental compaction keeps the S-side whole and only R is
    // rebuilt. That counts as a full rebuild, and journals as one.
    let (majors, patches) = (engine.major_swaps(), engine.patch_swaps());
    for i in 0..9 {
        engine.insert_r(Point::new(2.0 + 0.1 * i as f64, 2.5));
    }
    engine.refresh();
    assert_eq!(
        (engine.major_swaps(), engine.patch_swaps()),
        (majors + 1, patches),
        "an R-only rebuild is a major swap and no patch"
    );
    assert_eq!(
        kinds_for(9101)[3..],
        [EventKind::Compaction, EventKind::FullRebuild],
        "an R-only rebuild journals the full rebuild it counts"
    );
    let r_only = srj::obs::journal::journal().for_dataset(9101)[4].clone();
    assert_eq!((r_only.epoch, r_only.dirty_cells), (engine.epoch(), 0));

    // --- Rung 3: full rebuild ----------------------------------------
    //
    // The same deltas against a zero patch budget: the one insert still
    // overlays, and the swap that follows cannot patch, so it rebuilds
    // everything over a full compaction.
    let full_engine = EpochEngine::new(
        pseudo_points(80, 900, 60.0),
        pseudo_points(600, 901, 60.0),
        &SampleConfig::new(l),
        EpochConfig::default()
            .with_algorithm(Algorithm::Bbst)
            .with_rebuild_fraction(0.01)
            .with_max_patch_fraction(0.0),
    );
    full_engine.store().set_obs_label(9102);
    full_engine.insert_s(beside_r0);
    full_engine.refresh();
    for i in 0..8 {
        full_engine.insert_s(Point::new(1.0 + 0.1 * i as f64, 1.5));
    }
    full_engine.refresh();
    assert_eq!(
        (full_engine.major_swaps(), full_engine.patch_swaps()),
        (1, 0)
    );
    assert_eq!(
        kinds_for(9102),
        vec![
            EventKind::MinorSwap,
            EventKind::Compaction,
            EventKind::FullRebuild
        ],
        "a full rebuild rides a full compaction"
    );
    let rebuild = srj::obs::journal::journal().for_dataset(9102)[2].clone();
    assert_eq!(rebuild.epoch, full_engine.epoch());
    assert!(rebuild.mu_after > rebuild.mu_before, "nine inserts grow Σµ");

    // --- The whole ladder, interleaved ------------------------------
    //
    // The engines above were driven strictly in sequence, so the
    // global journal must hold their events in exactly that order,
    // with strictly monotone sequence numbers and non-decreasing
    // timestamps.
    let all: Vec<_> = srj::obs::journal::journal()
        .recent(4096)
        .into_iter()
        .filter(|e| matches!(e.dataset, Some(9101..=9102)))
        .collect();
    let ladder: Vec<(Option<u64>, EventKind)> = all.iter().map(|e| (e.dataset, e.kind)).collect();
    assert_eq!(
        ladder,
        vec![
            (Some(9101), EventKind::MinorSwap),
            (Some(9101), EventKind::Compaction),
            (Some(9101), EventKind::CellPatch),
            (Some(9101), EventKind::Compaction),
            (Some(9101), EventKind::FullRebuild),
            (Some(9102), EventKind::MinorSwap),
            (Some(9102), EventKind::Compaction),
            (Some(9102), EventKind::FullRebuild),
        ]
    );
    assert!(
        all.windows(2).all(|w| w[0].seq < w[1].seq),
        "sequence numbers must be strictly monotone"
    );
    assert!(
        all.windows(2).all(|w| w[0].ns <= w[1].ns),
        "timestamps must be non-decreasing"
    );
}
