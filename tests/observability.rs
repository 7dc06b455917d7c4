//! Lifecycle journal coverage: driving one engine up each maintenance
//! rung — minor swap, cell patch, targeted repair, re-plan — must land
//! exactly the expected event kinds, in order, in the process-global
//! journal, labelled with the store's dataset id and timestamped
//! monotonically.
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
    // Buffers are on by default, so every swap that retires an armed
    // engine journals a BufferInvalidate right after its swap event.
    assert_eq!(
        kinds_for(9101),
        vec![EventKind::MinorSwap, EventKind::BufferInvalidate]
    );
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
            EventKind::BufferInvalidate,
            EventKind::Compaction,
            EventKind::CellPatch,
            EventKind::BufferInvalidate
        ],
        "a patch swap rides an incremental compaction"
    );

    // --- Rung 3: targeted repair (the cell_patching.rs harness) ------
    //
    // r_i at a cell center, its only partner s_i diagonally 0.8l away
    // in the corner cell: 1-point cells whose Virtual bounds are the
    // full bucket capacity, so sampling racks up attributable per-cell
    // rejections and the next refresh repairs in place (same epoch, no
    // compaction, no swap).
    let n = 25usize;
    let mut r = Vec::new();
    let mut s = Vec::new();
    for i in 0..n {
        let x = (5 * i) as f64 * l + 0.5 * l;
        let y = 0.5 * l;
        r.push(Point::new(x, y));
        s.push(Point::new(x + 0.8 * l, y + 0.8 * l));
    }
    let repair_engine = EpochEngine::new(
        r,
        s,
        &SampleConfig::new(l),
        EpochConfig::default()
            .with_algorithm(Algorithm::Bbst)
            .with_repair_factor(1.0)
            .with_replan_min_samples(256)
            .with_repair_min_cell_rejections(8),
    );
    repair_engine.store().set_obs_label(9102);
    repair_engine.handle_seeded(11).sample(4_000).unwrap();
    repair_engine.refresh();
    assert_eq!(repair_engine.repairs(), 1, "feedback must trigger repair");
    assert_eq!(
        kinds_for(9102),
        vec![EventKind::Repair, EventKind::BufferInvalidate]
    );
    let repair = srj::obs::journal::journal().for_dataset(9102)[0].clone();
    assert!(repair.dirty_cells > 0, "repair must name its cells");
    assert!(
        repair.mu_after < repair.mu_before,
        "exact-mass repair must tighten recorded Σµ: {} -> {}",
        repair.mu_before,
        repair.mu_after
    );

    // --- Rung 4: re-plan (the dynamic_updates.rs divergence) ---------
    //
    // Dense uniform workload: the planner picks KDS-rejection. Three
    // quarters of S tombstoned (the base index still proposes them, so
    // its draws mostly reject) plus far-away partnerless R inserts that
    // keep n·√m over the exact-counting budget: the delta first
    // overlays (0.75 pending < 0.8 threshold ⇒ MinorSwap), then
    // sampling observes the divergence and the next refresh re-plans —
    // a full rebuild over a full compaction.
    let l2 = 10.0;
    let replan_engine = EpochEngine::new(
        pseudo_points(4_000, 961, 100.0),
        pseudo_points(4_000, 962, 100.0),
        &SampleConfig::new(l2),
        EpochConfig::default()
            .with_rebuild_fraction(0.8)
            .with_tombstone_rebuild_fraction(0.9)
            .with_replan_min_samples(500),
    );
    replan_engine.store().set_obs_label(9103);
    assert_eq!(replan_engine.algorithm(), Algorithm::KdsRejection);
    for id in (0..4_000u32).filter(|id| id % 4 != 0) {
        assert!(replan_engine.delete_s(id));
    }
    for i in 0..3_000u64 {
        let x = 1_000.0 + (i % 50) as f64 * 3.0 * l2;
        let y = 1_000.0 + (i / 50) as f64 * 3.0 * l2;
        replan_engine.insert_r(Point::new(x, y));
    }
    replan_engine.handle_seeded(4).sample(2_000).unwrap();
    replan_engine.refresh();
    assert_eq!(replan_engine.replans(), 1, "divergence must re-plan");
    assert_eq!(replan_engine.algorithm(), Algorithm::Bbst);
    assert_eq!(
        kinds_for(9103),
        vec![
            EventKind::MinorSwap,
            EventKind::BufferInvalidate,
            EventKind::Compaction,
            EventKind::Replan,
            EventKind::BufferInvalidate
        ],
        "a re-plan rides a full compaction"
    );

    // --- The whole ladder, interleaved ------------------------------
    //
    // The engines above were driven strictly in sequence, so the
    // global journal must hold their events in exactly that order,
    // with strictly monotone sequence numbers and non-decreasing
    // timestamps.
    let all: Vec<_> = srj::obs::journal::journal()
        .recent(4096)
        .into_iter()
        .filter(|e| matches!(e.dataset, Some(9101..=9103)))
        .collect();
    let ladder: Vec<(Option<u64>, EventKind)> = all.iter().map(|e| (e.dataset, e.kind)).collect();
    assert_eq!(
        ladder,
        vec![
            (Some(9101), EventKind::MinorSwap),
            (Some(9101), EventKind::BufferInvalidate),
            (Some(9101), EventKind::Compaction),
            (Some(9101), EventKind::CellPatch),
            (Some(9101), EventKind::BufferInvalidate),
            (Some(9102), EventKind::Repair),
            (Some(9102), EventKind::BufferInvalidate),
            (Some(9103), EventKind::MinorSwap),
            (Some(9103), EventKind::BufferInvalidate),
            (Some(9103), EventKind::Compaction),
            (Some(9103), EventKind::Replan),
            (Some(9103), EventKind::BufferInvalidate),
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
