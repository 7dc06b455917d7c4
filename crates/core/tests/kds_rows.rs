//! `KdsIndex` seen from outside: the rows its build keeps are the exact
//! per-cell counts of every window, and the draw that reads them —
//! through `Cursor::sample_batch` — is uniform over the materialised
//! join, spends two words an iteration, survives a cell patch across the
//! kd leaf size and is reproducible from a seed.
//!
//! (a) rows against brute force, (b) word and iteration accounting,
//! (c) chi-squared at every batch shape, (d) the per-cell ranked query on
//! both sides of the leaf size (the tree-level half sits beside
//! `KdTree::nth_in_range`), (e) a patch that moves cells across the leaf
//! size, (f) determinism.
//!
//! Deterministic: fixed seeds, chi-squared threshold `df + 6·√(2·df)`
//! (the margin `block_kernel.rs` states), so a failure is a bias, not
//! luck.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use srj_core::{Cursor, JoinPair, KdCellStore, KdsCursor, KdsIndex, SampleConfig, SampleError};
use srj_geom::{Point, PointId, Rect};
use srj_kdtree::{CanonicalScratch, DEFAULT_LEAF_SIZE};

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

/// `n` points inside the unit-side square at `(x, y)`.
fn clump(n: usize, seed: u64, x: f64, y: f64) -> Vec<Point> {
    pseudo_points(n, seed, 1.0)
        .into_iter()
        .map(|p| Point::new(x + p.x, y + p.y))
        .collect()
}

/// ~80 R × 170 S over a 60×60 domain with `l` = 6: most cells hold one
/// or two points (scanned), four hold 20 (kd-trees), and a fifth of `R`
/// sits among those four — about a thousand join pairs, corner draws
/// from both kinds of cell.
fn test_sets() -> (Vec<Point>, Vec<Point>, f64) {
    let mut r = pseudo_points(60, 101, 60.0);
    r.extend(pseudo_points(20, 103, 12.0));
    let mut s = pseudo_points(90, 102, 60.0);
    for (k, (x, y)) in [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0), (6.0, 6.0)]
        .into_iter()
        .enumerate()
    {
        let crowd = pseudo_points(20, 110 + k as u64, 5.9);
        s.extend(crowd.into_iter().map(|p| Point::new(x + p.x, y + p.y)));
    }
    (r, s, 6.0)
}

fn join_of(r: &[Point], s: &[Point], l: f64) -> Vec<JoinPair> {
    srj_join::nested_loop_join(r, s, l)
        .into_iter()
        .map(|(a, b)| JoinPair::new(a, b))
        .collect()
}

/// Every stored row of `index` against a brute-force count of each block
/// cell's members inside the window — all nine weights, not the total.
fn assert_rows_are_brute_force(index: &KdsIndex, r: &[Point], l: f64) {
    let cells = index.s_cells();
    let grid = cells.grid();
    assert_eq!(index.rows().len(), r.len());
    for (ridx, (&rp, row)) in r.iter().zip(index.rows()).enumerate() {
        let w = Rect::window(rp, l);
        let brute: [u64; 9] = grid.neighborhood_slots(rp).map(|slot| {
            slot.map_or(0, |slot| {
                let members = grid.cell(slot).members();
                members
                    .iter()
                    .filter(|&&id| w.contains(grid.point(id)))
                    .count() as u64
            })
        });
        let stored: [u64; 9] = std::array::from_fn(|i| u64::from(row.weight(i)));
        assert_eq!(stored, brute, "r{ridx} = {rp:?}");
    }
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

/// Half-unit lattice points, both coordinates in `span` half-units.
fn lattice_points(
    span: std::ops::Range<i32>,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((span.clone(), span), len).prop_map(|v| {
        v.into_iter()
            .map(|(x, y)| Point::new(x as f64 * 0.5, y as f64 * 0.5))
            .collect()
    })
}

/// Populations on both sides of the kd leaf size (16): scanned cells,
/// the boundary, one-split trees, deep trees.
const CROWDS: [u32; 6] = [1, 15, 16, 17, 40, 1000];

/// `n` points on the lattice positions of the cell containing `anchor`
/// (its lower edges among them), and one `r` on the lower corner of each
/// cell of the block around it plus one on every member position: far
/// from the random `S`, so the cell holds exactly `n`.
fn crowded_cell(anchor: Point, l_steps: u32, n: u32) -> (Vec<Point>, Vec<Point>) {
    let l = l_steps as f64 * 0.5;
    let (cx, cy) = ((anchor.x / l).floor(), (anchor.y / l).floor());
    let s: Vec<Point> = (0..n)
        .map(|k| {
            let (ox, oy) = (
                k.wrapping_mul(7) % l_steps,
                (k / 3).wrapping_mul(5) % l_steps,
            );
            Point::new(cx * l + ox as f64 * 0.5, cy * l + oy as f64 * 0.5)
        })
        .collect();
    let mut r: Vec<Point> = srj_grid::NEIGHBOR_OFFSETS
        .iter()
        .map(|&(dx, dy)| Point::new((cx + dx as f64) * l, (cy + dy as f64) * l))
        .collect();
    r.extend(s.iter().take(l_steps as usize * l_steps as usize));
    (s, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Test (a). Everything sits on the half-unit lattice and so does
    /// `l`: coordinates repeat, points lie exactly on window edges and on
    /// cell boundaries. `R` reaches well beyond `S`, both straddle the
    /// origin, either may be empty, and a cell of every population in
    /// [`CROWDS`] is ringed by `r`s of its own.
    #[test]
    fn rows_are_the_exact_per_cell_counts(
        s in lattice_points(-24..24, 0..200),
        r in lattice_points(-40..40, 0..160),
        crowd in (0usize..CROWDS.len() + 1, 60i32..90, 60i32..90),
        l_steps in 1u32..9,
        threads in 1usize..4,
    ) {
        let (mut s, mut r) = (s, r);
        if let Some(&n) = CROWDS.get(crowd.0) {
            let anchor = Point::new(crowd.1 as f64 * 0.5, crowd.2 as f64 * 0.5);
            let (crowd_s, ring_r) = crowded_cell(anchor, l_steps, n);
            s.extend(crowd_s);
            r.extend(ring_r);
        }
        let l = l_steps as f64 * 0.5;
        let cfg = SampleConfig::new(l).with_build_threads(threads);
        let index = KdsIndex::build(&r, &s, &cfg);
        assert_rows_are_brute_force(&index, &r, l);
        let join = srj_join::nested_loop_join(&r, &s, l).len() as u64;
        prop_assert_eq!(index.join_size(), join);
        prop_assert_eq!(index.mu_total(), join as f64);
        prop_assert!(index.stray().is_empty(), "nothing rounds on the half-unit lattice");
    }
}

/// Test (a) on the inputs a generator rarely hits.
#[test]
fn rows_on_degenerate_inputs() {
    let some = [
        Point::new(-1.5, 2.0),
        Point::new(0.0, 0.0),
        Point::new(0.0, 0.0),
    ];
    let cfg = SampleConfig::new(1.5);
    for n in CROWDS {
        let (crowd, ring) = crowded_cell(Point::new(-3.0, 4.5), 3, n);
        for (r, s) in [
            (&[][..], &some[..]),
            (&some[..], &[][..]),
            (&[][..], &[][..]),
            (&ring[..], &crowd[..]),
            (&some[..], &crowd[..]),
        ] {
            for threads in [1, 3] {
                let index = KdsIndex::build(r, s, &cfg.with_build_threads(threads));
                assert_rows_are_brute_force(&index, r, 1.5);
                let join = srj_join::nested_loop_join(r, s, 1.5).len() as u64;
                assert_eq!(index.join_size(), join);
            }
        }
    }
}

/// Test (b): an iteration is two words — the alias word and the row word
/// — whether the pick lands in a corner cell or not; nothing rejects; an empty join is reported before any word
/// is drawn; `t = 0` is `Ok` and draws nothing.
#[test]
fn an_iteration_spends_two_words_corner_or_not() {
    let (r, s, l) = test_sets();
    let index = Arc::new(KdsIndex::build(&r, &s, &SampleConfig::new(l)));
    let cell_of = |p: Point| ((p.x / l).floor() as i64, (p.y / l).floor() as i64);
    let mut cursor = KdsCursor::new(Arc::clone(&index));
    let mut rng = CountingRng {
        inner: SmallRng::seed_from_u64(5),
        words: 0,
    };
    let mut out = Vec::new();
    cursor.sample_batch(0, &mut rng, &mut out).unwrap();
    assert_eq!((rng.words, out.len()), (0, 0));
    let (mut corner, mut other) = (0u32, 0u32);
    for i in 1..=4000u64 {
        cursor.sample_batch(1, &mut rng, &mut out).unwrap();
        assert_eq!(rng.words, 2 * i, "draw {i}");
        let pair = out[i as usize - 1];
        let (rc, sc) = (cell_of(r[pair.r as usize]), cell_of(s[pair.s as usize]));
        if rc.0 != sc.0 && rc.1 != sc.1 {
            corner += 1;
        } else {
            other += 1;
        }
    }
    assert!(
        corner > 400 && other > 400,
        "{corner} corner, {other} other"
    );
    cursor.sample_batch(517, &mut rng, &mut out).unwrap();
    assert_eq!(rng.words, 2 * 4517);
    let stats = cursor.sampling_stats();
    assert_eq!((stats.iterations, stats.samples), (4517, 4517));

    let far = [Point::new(1000.0, 1000.0)];
    let empty = Arc::new(KdsIndex::build(&r, &far, &SampleConfig::new(l)));
    let mut cursor = KdsCursor::new(empty);
    let mut rng = CountingRng {
        inner: SmallRng::seed_from_u64(6),
        words: 0,
    };
    let mut out = Vec::new();
    assert_eq!(cursor.sample_batch(0, &mut rng, &mut out), Ok(()));
    assert_eq!(
        cursor.sample_batch(5, &mut rng, &mut out),
        Err(SampleError::EmptyJoin)
    );
    assert_eq!((rng.words, out.len()), (0, 0));
    assert_eq!(cursor.sampling_stats().iterations, 0);
}

/// Test (c): batches of `t` pairs, repeated past 200 000 samples, are
/// uniform over the materialised join and contain nothing else — for the
/// benchmark's t = 16 and batch sizes around the block size, on a
/// dataset whose cells lie on both sides of the leaf size.
#[test]
fn sample_batch_is_uniform_over_the_materialised_join() {
    let (r, s, l) = test_sets();
    let join = join_of(&r, &s, l);
    assert!(join.len() > 500, "test join too small to be meaningful");
    let support: HashSet<JoinPair> = join.iter().copied().collect();
    let df = (join.len() - 1) as f64;
    let threshold = df + 6.0 * (2.0 * df).sqrt();

    let index = Arc::new(KdsIndex::build(&r, &s, &SampleConfig::new(l)));
    assert_eq!(index.join_size(), join.len() as u64);
    let cells = index.s_cells();
    let sizes: Vec<usize> = cells.grid().cells().iter().map(|c| c.len()).collect();
    assert!(
        sizes.iter().any(|&n| n > DEFAULT_LEAF_SIZE),
        "no kd-tree cell"
    );
    assert!(
        sizes.iter().any(|&n| n <= DEFAULT_LEAF_SIZE),
        "no scanned cell"
    );

    for t in [1usize, 16, 63, 64, 65] {
        let mut cursor = KdsCursor::new(Arc::clone(&index));
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ t as u64);
        let mut out = Vec::new();
        while out.len() < 200_000 {
            let before = out.len();
            cursor.sample_batch(t, &mut rng, &mut out).unwrap();
            assert_eq!(out.len(), before + t, "a batch is exactly t pairs");
        }
        let mut freq: HashMap<JoinPair, u64> = HashMap::new();
        for p in &out {
            assert!(support.contains(p), "t={t}: non-join pair {p:?}");
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
    }
}

/// Test (d), the cell-level half: ranks `0..count_in_cell` enumerate the
/// cell's members inside the rectangle exactly once each — for a scanned
/// cell and a kd-tree cell, on bounded windows and on the open quadrants
/// a corner draw poses.
#[test]
fn nth_in_cell_enumerates_the_cell_once() {
    const INF: f64 = f64::INFINITY;
    // One cell of 16 (scanned) and one of 17 (a tree), duplicates included.
    let mut s = clump(15, 7, 0.0, 0.0);
    s.push(s[3]);
    s.extend(clump(16, 8, 1.0, 0.0));
    s.push(s[20]);
    let store = KdCellStore::build(&s, 1.0, 1);
    let grid = store.grid();
    for (coord, len) in [((0, 0), 16), ((1, 0), 17)] {
        let slot = grid.cell_slot_at(coord).unwrap();
        assert_eq!(grid.cell(slot).len(), len);
        assert_eq!(store.store().unit(slot).is_some(), len > DEFAULT_LEAF_SIZE);
        let x = coord.0 as f64;
        for w in [
            Rect::new(x + 0.2, 0.1, x + 0.7, 0.8),
            Rect::new(x - 5.0, -5.0, x + 5.0, 5.0),
            Rect::new(x + 2.0, 0.0, x + 3.0, 1.0),
            Rect::new(x + 0.4, 0.5, INF, INF),
            Rect::new(-INF, 0.5, x + 0.4, INF),
            Rect::new(x + 0.4, -INF, INF, 0.5),
            Rect::new(-INF, -INF, x + 0.4, 0.5),
        ] {
            let inside = |id: &PointId| w.contains(s[*id as usize]);
            let mut brute: Vec<PointId> = grid
                .cell(slot)
                .by_x(grid.points())
                .iter()
                .copied()
                .filter(inside)
                .collect();
            let count = store.count_in_cell(slot, &w);
            assert_eq!(count, brute.len(), "cell {coord:?} {w:?}");
            let mut ids: Vec<PointId> = (0..count)
                .map(|rank| {
                    store
                        .nth_in_cell(slot, &w, rank)
                        .expect("rank below the count")
                })
                .collect();
            ids.sort_unstable();
            brute.sort_unstable();
            assert_eq!(ids, brute, "cell {coord:?} {w:?}");
            assert_eq!(store.nth_in_cell(slot, &w, count), None);
        }
    }
}

/// Test (e): one patch takes a cell from 16 to 17 members by insert (it
/// gains a tree) and another from 17 to 16 by delete (it loses one).
/// Counts, the rows of an index over the patched store and its draws
/// stay exact; clean cells keep their unit, dirty cells get a new one;
/// and the patched store's window draws never serve the deleted id.
#[test]
fn a_patch_across_the_leaf_size_stays_exact() {
    let mut s = clump(16, 21, 0.0, 0.0); // ids 0..16, cell (0, 0)
    s.extend(clump(17, 22, 1.0, 0.0)); // ids 16..33, cell (1, 0)
    s.extend(clump(5, 23, 0.0, 1.0));
    s.extend(clump(30, 24, 1.0, 1.0));
    s.extend(clump(9, 25, 4.0, 4.0));
    let l = 1.0;
    let store = KdCellStore::build(&s, l, 1);
    let slot_of = |store: &KdCellStore, coord| store.grid().cell_slot_at(coord).unwrap();
    let has_tree = |store: &KdCellStore, coord| store.store().unit(slot_of(store, coord)).is_some();
    assert!(!has_tree(&store, (0, 0)) && has_tree(&store, (1, 0)));

    let inserted = [Point::new(0.5, 0.5)];
    let victim: PointId = 20;
    let deleted: HashSet<PointId> = [victim].into_iter().collect();
    let set = Arc::new(store.grid().point_set().extended(&inserted));
    let (patched, report) = store.patch_onto(set, &deleted);
    assert_eq!((report.cells_rebuilt, report.cells_shared), (2, 3));
    assert!(has_tree(&patched, (0, 0)) && !has_tree(&patched, (1, 0)));
    assert_eq!(patched.grid().cell(slot_of(&patched, (0, 0))).len(), 17);
    assert_eq!(patched.grid().cell(slot_of(&patched, (1, 0))).len(), 16);
    for coord in [(0, 1), (1, 1), (4, 4)] {
        assert!(
            Arc::ptr_eq(
                store.store().unit_arc(slot_of(&store, coord)),
                patched.store().unit_arc(slot_of(&patched, coord)),
            ),
            "clean cell {coord:?} was rebuilt"
        );
    }
    for coord in [(0, 0), (1, 0)] {
        assert!(
            !Arc::ptr_eq(
                store.store().unit_arc(slot_of(&store, coord)),
                patched.store().unit_arc(slot_of(&patched, coord)),
            ),
            "dirty cell {coord:?} kept its unit"
        );
    }

    // Counts against the live set: stable ids, the dead one invisible.
    let live: Vec<(PointId, Point)> = (0..s.len() as PointId)
        .filter(|id| *id != victim)
        .map(|id| (id, s[id as usize]))
        .chain([(s.len() as PointId, inserted[0])])
        .collect();
    let r = pseudo_points(60, 26, 2.5);
    for &rp in &r {
        let w = Rect::window(rp, l);
        let brute = live.iter().filter(|(_, p)| w.contains(*p)).count();
        assert_eq!(patched.count_window(&w), brute, "window of {rp:?}");
    }

    // An index over the patched store: rows, |J| and draws.
    let patched = Arc::new(patched);
    let index = Arc::new(KdsIndex::build_shared(
        &r,
        Arc::clone(&patched),
        &SampleConfig::new(l),
    ));
    assert_rows_are_brute_force(&index, &r, l);
    let join: HashSet<(u32, PointId)> = r
        .iter()
        .enumerate()
        .flat_map(|(ridx, &rp)| {
            let w = Rect::window(rp, l);
            live.iter()
                .filter(move |(_, p)| w.contains(*p))
                .map(move |(id, _)| (ridx as u32, *id))
        })
        .collect();
    assert_eq!(index.join_size(), join.len() as u64);
    let mut cursor = Cursor::new(index);
    let mut rng = SmallRng::seed_from_u64(27);
    let mut out = Vec::new();
    cursor.sample_batch(2_000, &mut rng, &mut out).unwrap();
    assert!(out.iter().all(|p| join.contains(&(p.r, p.s))));

    // A window covering the cell the victim left: the pre-patch store
    // still draws it, the patched one never does.
    let covering = Rect::window(Point::new(1.5, 0.5), l);
    let mut scratch = CanonicalScratch::new();
    let mut draw = |store: &KdCellStore| {
        store
            .sample_in_window(&covering, &mut rng, &mut scratch)
            .unwrap()
            .0
    };
    assert!((0..4_000).any(|_| draw(&store) == victim));
    for _ in 0..4_000 {
        assert_ne!(draw(&patched), victim, "a deleted id was served");
    }
}

/// Test (f): the pairs are a function of the seed and the batch sizes —
/// the same across cursors of one index and across build thread counts.
#[test]
fn same_seed_and_batches_give_the_same_pairs() {
    let (r, s, l) = test_sets();
    let batches = [1usize, 16, 64, 65, 300];
    let draw = |index: &Arc<KdsIndex>| {
        let mut cursor = KdsCursor::new(Arc::clone(index));
        let mut rng = SmallRng::seed_from_u64(1234);
        let mut out = Vec::new();
        for t in batches {
            cursor.sample_batch(t, &mut rng, &mut out).unwrap();
        }
        out
    };
    let serial = Arc::new(KdsIndex::build(&r, &s, &SampleConfig::new(l)));
    let reference = draw(&serial);
    assert_eq!(reference.len(), batches.iter().sum::<usize>());
    assert_eq!(draw(&serial), reference, "a second cursor");
    for threads in 1..=8 {
        let cfg = SampleConfig::new(l).with_build_threads(threads);
        let index = Arc::new(KdsIndex::build(&r, &s, &cfg));
        assert_eq!(index.join_size(), serial.join_size());
        assert_eq!(draw(&index), reference, "threads = {threads}");
    }
}
