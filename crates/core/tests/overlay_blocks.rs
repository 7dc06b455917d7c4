//! `OverlayIndex` through `Cursor::sample_batch` — its block path
//! (`SamplerIndex::try_many`) — seen from outside: uniform over the
//! brute-force live join after a history of minor swaps, the accept
//! loop's accounting, reproducible from a seed and a batch-size
//! sequence.
//!
//! Deterministic: fixed seeds, chi-squared threshold `df + 6·√(2·df)`
//! (the repository's usual margin), so a failure is a bias, not luck.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use srj_alias::BlockRow;
use srj_core::{
    BbstIndex, Cursor, DeltaSet, JoinPair, JoinSampler, KdsIndex, KdsRejectionIndex, OverlayIndex,
    OverlaySupport, SampleConfig, SampleError, SamplerIndex,
};
use srj_geom::{Point, PointId, Rect};
use srj_grid::{case_of, CellCase, Grid};

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

/// A generator that counts the words it hands out.
struct CountingRng {
    inner: SmallRng,
    words: u64,
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

const L: f64 = 6.0;

fn base_sets() -> (Vec<Point>, Vec<Point>) {
    (pseudo_points(60, 101, 50.0), pseudo_points(80, 102, 50.0))
}

/// Brute-force current join over a delta'd dataset.
fn live_join(base_r: &[Point], base_s: &[Point], delta: &DeltaSet) -> Vec<JoinPair> {
    let side = |base: &[Point], inserted: &[Point], deleted: &dyn Fn(PointId) -> bool| {
        base.iter()
            .chain(inserted)
            .zip(0..)
            .filter(|&(_, id)| !deleted(id))
            .map(|(&p, id)| (id, p))
            .collect::<Vec<(PointId, Point)>>()
    };
    let rs = side(base_r, &delta.r_inserted, &|id| {
        delta.r_deleted.contains(&id)
    });
    let ss = side(base_s, &delta.s_inserted, &|id| {
        delta.s_deleted.contains(&id)
    });
    let mut out = Vec::new();
    for &(rid, rp) in &rs {
        let w = Rect::window(rp, L);
        out.extend(
            ss.iter()
                .filter(|(_, sp)| w.contains(*sp))
                .map(|&(sid, _)| JoinPair::new(rid, sid)),
        );
    }
    out
}

/// Seven refreshes of one epoch: inserts on one side, on the other, on
/// both between two refreshes; tombstones of base ids, of ids inserted
/// refreshes ago, and of an id inserted since the last refresh — on
/// both sides. Returns the final delta and the support extended at
/// every refresh, the way `EpochEngine::minor_swap` extends it.
fn seven_swaps(base_r: &[Point], base_s: &[Point]) -> (DeltaSet, OverlaySupport) {
    let (nr, ns) = (base_r.len() as PointId, base_s.len() as PointId);
    let more_r = pseudo_points(40, 103, 50.0);
    let more_s = pseudo_points(50, 104, 50.0);
    let mut delta = DeltaSet::for_base(base_r.len(), base_s.len());
    let mut support = OverlaySupport::build(base_r, base_s, L);
    let mut refresh = |delta: &DeltaSet| support = support.extended(delta);

    delta.r_inserted.extend_from_slice(&more_r[..10]);
    refresh(&delta); // 1: R only
    delta.s_inserted.extend_from_slice(&more_s[..12]);
    refresh(&delta); // 2: S only
    delta.r_inserted.extend_from_slice(&more_r[10..18]);
    delta.s_inserted.extend_from_slice(&more_s[12..21]);
    refresh(&delta); // 3: both sides between two refreshes
    delta.r_deleted.extend((0..nr).step_by(7));
    delta.s_deleted.extend((0..ns).step_by(9));
    refresh(&delta); // 4: base tombstones only
    delta.s_inserted.extend_from_slice(&more_s[21..28]);
    delta.r_deleted.extend([nr + 2, nr + 11]); // inserted in 1 and 3
    delta.s_deleted.extend([ns + 3, ns + 15]); // inserted in 2 and 3
    refresh(&delta); // 5
    delta.r_inserted.extend_from_slice(&more_r[18..27]);
    delta.s_deleted.extend([ns + 22, ns + 4]); // inserted in 5 and 2
    refresh(&delta); // 6
    delta.r_inserted.extend_from_slice(&more_r[27..33]);
    delta.s_inserted.extend_from_slice(&more_s[28..36]);
    delta.r_deleted.extend([nr + 28, nr + 19]); // inserted just now, and in 6
    delta.s_deleted.extend([ns + 30, 5]); // inserted just now, and a base id
    refresh(&delta); // 7
    (delta, support)
}

/// Test (a): after the seven refreshes, batches of `t` pairs are
/// uniform over the brute-force live join and contain nothing else —
/// for batch sizes below, at, just above and far above the block size,
/// over each base family. A pair owned by two sources would come up
/// twice as often as its neighbours; a pair owned by none, never.
fn uniform_after_seven_swaps<I, F>(build: F, seed: u64)
where
    I: SamplerIndex,
    F: Fn(&[Point], &[Point], &SampleConfig) -> I,
{
    let cfg = SampleConfig::new(L);
    let (base_r, base_s) = base_sets();
    let (delta, support) = seven_swaps(&base_r, &base_s);
    assert!(
        support.source_count() > 6,
        "the history must leave the base and several chunks on each side"
    );
    let join = live_join(&base_r, &base_s, &delta);
    assert!(join.len() > 200, "test join too small: {}", join.len());
    let members: HashSet<JoinPair> = join.iter().copied().collect();
    let owned_by_a_chunk = join
        .iter()
        .filter(|p| p.r as usize >= base_r.len() || p.s as usize >= base_s.len())
        .count();
    assert!(owned_by_a_chunk * 4 > join.len(), "too few delta pairs");
    let df = (join.len() - 1) as f64;
    let threshold = df + 6.0 * (2.0 * df).sqrt();

    let base = Arc::new(build(&base_r, &base_s, &cfg));
    let overlay = Arc::new(OverlayIndex::new(base, delta, &support, &cfg));
    let draws = join.len() * 60;
    for t in [1usize, 63, 64, 65, 517] {
        let mut cursor = Cursor::new(Arc::clone(&overlay));
        let mut rng = SmallRng::seed_from_u64(seed ^ t as u64);
        let mut out = Vec::new();
        while out.len() < draws {
            let before = out.len();
            cursor.sample_batch(t, &mut rng, &mut out).unwrap();
            assert_eq!(out.len(), before + t, "a batch is exactly t pairs");
        }
        let mut freq: HashMap<JoinPair, u64> = HashMap::new();
        for p in &out {
            assert!(members.contains(p), "t={t}: dead or non-join pair {p:?}");
            *freq.entry(*p).or_default() += 1;
        }
        let expected = out.len() as f64 / join.len() as f64;
        let chi2: f64 = join
            .iter()
            .map(|p| {
                let obs = *freq.get(p).unwrap_or(&0) as f64;
                (obs - expected) * (obs - expected) / expected
            })
            .sum();
        assert!(
            chi2 < threshold,
            "t={t}: χ² = {chi2:.1} exceeds {threshold:.1}"
        );
        let stats = cursor.sampling_stats();
        assert_eq!(stats.samples, out.len() as u64);
        assert!(stats.iterations >= stats.samples);
    }
}

#[test]
fn uniform_after_seven_swaps_over_kds() {
    uniform_after_seven_swaps(|r, s, cfg| KdsIndex::build(r, s, cfg), 0xA1);
}

#[test]
fn uniform_after_seven_swaps_over_kds_rejection() {
    uniform_after_seven_swaps(|r, s, cfg| KdsRejectionIndex::build(r, s, cfg), 0xA2);
}

#[test]
fn uniform_after_seven_swaps_over_bbst() {
    uniform_after_seven_swaps(|r, s, cfg| BbstIndex::build(r, s, cfg), 0xA3);
}

/// A chunk sweeps its members' nine cell counts straight into its rows
/// and adds the cross count in place. Every row of every chunk of the
/// seven-swap history must be the row built the two-step way: the nine
/// counts taken one member at a time — in-window members of the centre
/// and edge cells, the population of a corner cell — then
/// `BlockRow::new(cells, cross)` with the opposite inserts below the
/// chunk's watermark in the member's block. (An `S` chunk bounds its
/// cells a few ulps wider than `L`; no point of this data sits in that
/// sliver.)
#[test]
fn chunk_rows_are_the_rows_built_in_two_steps() {
    let (base_r, base_s) = base_sets();
    let (delta, support) = seven_swaps(&base_r, &base_s);
    let sides = [
        (true, &delta.r_inserted, &base_s, &delta.s_inserted),
        (false, &delta.s_inserted, &base_r, &delta.r_inserted),
    ];
    let mut crossing = 0;
    for (r_side, inserted, opposite_base, opposite_inserted) in sides {
        let grid = Grid::build(opposite_base, L);
        let mut chunks = 0;
        for (start, watermark, rows) in support.chunk_rows(r_side) {
            chunks += 1;
            for (&p, row) in inserted[start..].iter().zip(rows) {
                let w = Rect::window(p, L);
                let mut cells = [0u64; 9];
                for (i, cell) in grid.neighborhood(p).into_iter().enumerate() {
                    let Some(cell) = cell else { continue };
                    cells[i] = match case_of(i) {
                        CellCase::Quadrant { .. } => cell.len(),
                        _ => cell
                            .members()
                            .iter()
                            .filter(|&&id| w.contains(grid.point(id)))
                            .count(),
                    } as u64;
                }
                let (cx, cy) = grid.coord_of(p);
                let cross = opposite_inserted[..watermark]
                    .iter()
                    .map(|&q| grid.coord_of(q))
                    .filter(|&(x, y)| (x - cx).abs() <= 1 && (y - cy).abs() <= 1)
                    .count() as u64;
                crossing += cross;
                assert_eq!(*row, BlockRow::new(cells, cross), "r side {r_side}, {p:?}");
            }
        }
        assert!(chunks >= 3, "the history leaves several chunks a side");
    }
    assert!(
        crossing > 0,
        "no row had a cross part: the test checks nothing"
    );
}

/// Test (b), the accepting side. Every overlay iteration spends one
/// word on its source; a chunk iteration spends two more (member, row
/// position) and so does a BBST base iteration — three words an
/// iteration whatever the mix, and with no base at all every iteration
/// is a chunk's.
#[test]
fn an_iteration_spends_one_source_word_and_two_more() {
    let cfg = SampleConfig::new(L);
    let (base_r, base_s) = base_sets();
    let (delta, support) = seven_swaps(&base_r, &base_s);
    let mixed = OverlayIndex::new(
        Arc::new(BbstIndex::build(&base_r, &base_s, &cfg)),
        delta,
        &support,
        &cfg,
    );
    // No base points: both base grids are empty, every pair is a
    // chunk's (an inserted S only ever sees earlier inserted R).
    let mut only_inserts = DeltaSet::for_base(0, 0);
    let mut support = OverlaySupport::build(&[], &[], L);
    only_inserts.r_inserted = base_r.clone();
    support = support.extended(&only_inserts);
    only_inserts.s_inserted = base_s.clone();
    support = support.extended(&only_inserts);
    let chunks_only = OverlayIndex::new(
        Arc::new(BbstIndex::build(&[], &[], &cfg)),
        only_inserts,
        &support,
        &cfg,
    );

    for overlay in [mixed, chunks_only] {
        let mut cursor = Cursor::new(Arc::new(overlay));
        let mut rng = CountingRng {
            inner: SmallRng::seed_from_u64(5),
            words: 0,
        };
        let mut out = Vec::new();
        let mut asked = 0u64;
        for t in [0usize, 1, 64, 65, 1000, 4096] {
            cursor.sample_batch(t, &mut rng, &mut out).unwrap();
            asked += t as u64;
            let stats = *cursor.sampling_stats();
            assert_eq!(out.len() as u64, asked);
            assert_eq!(stats.samples, asked);
            assert!(stats.iterations >= stats.samples);
            assert_eq!(rng.words, 3 * stats.iterations, "after t = {t}");
        }
        let stats = cursor.sampling_stats();
        assert!(
            stats.iterations > stats.samples,
            "corner and cross candidates must reject sometimes, or this test checks nothing"
        );
    }
}

/// Test (b), the refusing side: with every `R` point tombstoned each
/// iteration rejects, and the consecutive-rejection count must run
/// across block boundaries and trip on exactly the configured
/// iteration — 2000 is neither a multiple of the block size nor within
/// the first block — with nothing run after it.
#[test]
fn everything_deleted_trips_the_valve_on_the_configured_iteration() {
    let cfg = SampleConfig::new(5.0).with_rejection_limit(2_000);
    let r = pseudo_points(20, 7, 20.0);
    let s = pseudo_points(20, 8, 20.0);
    let mut delta = DeltaSet::for_base(r.len(), s.len());
    delta.s_inserted = pseudo_points(10, 9, 20.0);
    delta.r_deleted.extend(0..r.len() as PointId);
    let support = OverlaySupport::build(&r, &s, 5.0);
    let overlay = Arc::new(OverlayIndex::new(
        Arc::new(KdsRejectionIndex::build(&r, &s, &cfg)),
        delta,
        &support,
        &cfg,
    ));
    assert!(overlay.total_weight() > 0.0);
    for t in [1usize, 64, 100] {
        let mut cursor = Cursor::new(Arc::clone(&overlay));
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        assert_eq!(
            cursor.sample_batch(t, &mut rng, &mut out),
            Err(SampleError::RejectionLimit),
            "t = {t}"
        );
        assert!(out.is_empty());
        let stats = *cursor.sampling_stats();
        assert_eq!((stats.iterations, stats.samples), (2_000, 0), "t = {t}");
    }
    let mut cursor = Cursor::new(overlay);
    let mut rng = SmallRng::seed_from_u64(1);
    assert_eq!(
        cursor.sample_one(&mut rng),
        Err(SampleError::RejectionLimit)
    );
}

#[test]
fn empty_join_is_reported_before_any_iteration() {
    let cfg = SampleConfig::new(1.0);
    let r = vec![Point::new(0.0, 0.0)];
    let s = vec![Point::new(500.0, 500.0)];
    let mut delta = DeltaSet::for_base(1, 1);
    delta.s_inserted.push(Point::new(900.0, 900.0)); // partnerless too
    let support = OverlaySupport::build(&r, &s, 1.0);
    let overlay = OverlayIndex::new(
        Arc::new(BbstIndex::build(&r, &s, &cfg)),
        delta,
        &support,
        &cfg,
    );
    assert_eq!(overlay.total_weight(), 0.0);
    let mut cursor = Cursor::new(Arc::new(overlay));
    let mut rng = SmallRng::seed_from_u64(0);
    let mut out = Vec::new();
    assert_eq!(
        cursor.sample_batch(100, &mut rng, &mut out),
        Err(SampleError::EmptyJoin)
    );
    assert_eq!(cursor.sampling_stats().iterations, 0);
    // Nothing asked, nothing refused.
    assert_eq!(cursor.sample_batch(0, &mut rng, &mut out), Ok(()));
    assert!(out.is_empty());
}

/// Test (d): through an overlay the pairs are a function of the seed
/// and the batch-size sequence — the same two give the same pairs — and
/// of nothing less: a block takes its source words first, so the same
/// seed cut into different batches is another (equally uniform) stream.
#[test]
fn same_seed_and_batch_sizes_give_identical_pairs() {
    let cfg = SampleConfig::new(L);
    let (base_r, base_s) = base_sets();
    let (delta, support) = seven_swaps(&base_r, &base_s);
    let overlay = Arc::new(OverlayIndex::new(
        Arc::new(KdsIndex::build(&base_r, &base_s, &cfg)),
        delta,
        &support,
        &cfg,
    ));
    let sizes = [517usize, 1, 64, 63, 65, 2048, 7];
    let run = |sizes: &[usize]| {
        let mut cursor = Cursor::new(Arc::clone(&overlay));
        let mut rng = SmallRng::seed_from_u64(1234);
        let mut out = Vec::new();
        for &t in sizes {
            cursor.sample_batch(t, &mut rng, &mut out).unwrap();
        }
        out
    };
    let total = sizes.iter().sum::<usize>();
    let (a, b) = (run(&sizes), run(&sizes));
    assert_eq!(a.len(), total);
    assert_eq!(a, b);
    assert_ne!(a, run(&[total]));
}
