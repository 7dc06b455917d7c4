//! `GroupIndex` seen from outside: its rows are the nine cell
//! populations of each group's block and the nine cells' slots (every
//! member's block, not only the probed one's), every pair of the join is
//! exactly one `(r, position)` of them — on a grid of side `l` and on
//! any wider one — and the draw — through
//! `Cursor::sample_batch` and the staged block kernel — is uniform over
//! the materialised join on clustered and on locally uniform data,
//! spends three words an iteration, is the sequential draw on the same
//! words, and is reproducible from a seed. The rows' one admission
//! threshold (`GroupCore::serves`) gives every window the verdict, and
//! the accepted count, of the probe that used to run per window.
//!
//! Deterministic: fixed seeds, chi-squared threshold `df + 6·√(2·df)`
//! (the margin `block_kernel.rs` states), so a failure is a bias, not
//! luck.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use srj_core::{
    GroupCore, GroupCursor, GroupIndex, JoinPair, PhaseReport, SampleConfig, SampleError,
    SamplerIndex, NO_CELL,
};
use srj_geom::{Point, Rect};
use srj_grid::Grid;

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

/// ~60 R × 90 S over a 60×60 domain with `l` = 6 (`block_kernel.rs`'s
/// sets): a few hundred pairs, every block mostly outside its window.
fn uniform_sets() -> (Vec<Point>, Vec<Point>, f64) {
    (
        pseudo_points(60, 101, 60.0),
        pseudo_points(90, 102, 60.0),
        6.0,
    )
}

/// The same counts in six clumps two units wide, `l` = 6: a window holds
/// its whole clump, so the block bound is nearly exact — nine hundred
/// pairs at close to one iteration a sample.
fn clustered_sets() -> (Vec<Point>, Vec<Point>, f64) {
    let centres = pseudo_points(6, 7, 50.0);
    let around = |seed, n| -> Vec<Point> {
        pseudo_points(n, seed, 2.0)
            .into_iter()
            .zip(centres.iter().cycle())
            .map(|(p, c)| Point::new(c.x + 4.0 + p.x, c.y + 4.0 + p.y))
            .collect()
    };
    (around(103, 60), around(104, 90), 6.0)
}

fn join_of(r: &[Point], s: &[Point], l: f64) -> Vec<JoinPair> {
    srj_join::nested_loop_join(r, s, l)
        .into_iter()
        .map(|(a, b)| JoinPair::new(a, b))
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

/// A generator that replays a script of words, in order.
struct ScriptedRng(std::vec::IntoIter<u64>);

impl RngCore for ScriptedRng {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next().expect("the script ran out of words")
    }
    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        unreachable!("the draw asks for whole words");
    }
}

/// Half-unit lattice points, both coordinates in `span` half-units:
/// duplicates, points on window edges and on cell boundaries.
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

/// Batches of `t` pairs, repeated past 200 000 samples, are uniform over
/// the materialised join, reach all of it and contain nothing else — on
/// both kinds of data, for batch sizes below, at, just above and far
/// above the block size.
#[test]
fn sample_batch_is_uniform_over_the_materialised_join_on_both_kinds_of_data() {
    for (name, (r, s, l), loosest) in [
        ("uniform", uniform_sets(), 9.0),
        ("clustered", clustered_sets(), 1.5),
    ] {
        let join = join_of(&r, &s, l);
        assert!(join.len() > 100, "{name}: test join too small");
        let support: HashSet<JoinPair> = join.iter().copied().collect();
        let df = (join.len() - 1) as f64;
        let threshold = df + 6.0 * (2.0 * df).sqrt();
        let index = Arc::new(GroupIndex::build(&r, &s, &SampleConfig::new(l)));
        let overhead = index.mu_total() / join.len() as f64;
        assert!(
            (1.0..loosest).contains(&overhead),
            "{name}: W/|J| {overhead}"
        );

        for t in [1usize, 63, 64, 65, 517] {
            let mut cursor = GroupCursor::new(Arc::clone(&index));
            let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ t as u64);
            let mut out = Vec::new();
            while out.len() < 200_000 {
                let before = out.len();
                cursor.sample_batch(t, &mut rng, &mut out).unwrap();
                assert_eq!(out.len(), before + t, "a batch is exactly t pairs");
            }
            let mut freq: HashMap<JoinPair, u64> = HashMap::new();
            for p in &out {
                assert!(support.contains(p), "{name} t={t}: non-join pair {p:?}");
                *freq.entry(*p).or_default() += 1;
            }
            assert_eq!(freq.len(), join.len(), "{name} t={t}: a pair never drawn");
            let expected = out.len() as f64 / join.len() as f64;
            let chi2: f64 = freq
                .values()
                .map(|&obs| (obs as f64 - expected).powi(2) / expected)
                .sum();
            assert!(
                chi2 < threshold,
                "{name} t={t}: χ² = {chi2:.1} exceeds {threshold:.1}"
            );
            // Iterations a sample is W / |J|.
            let stats = cursor.sampling_stats();
            let observed = stats.iterations as f64 / stats.samples as f64;
            assert!(
                (observed / overhead - 1.0).abs() < 0.02,
                "{name} t={t}: {observed:.3} iterations a sample, W/|J| = {overhead:.3}"
            );
        }
    }
}

/// Per-iteration accounting through the block kernel is the accept
/// loop's, and an iteration spends three random words.
#[test]
fn sample_batch_accounting_matches_the_accept_loop() {
    let (r, s, l) = uniform_sets();
    let index = Arc::new(GroupIndex::build(&r, &s, &SampleConfig::new(l)));
    let mut cursor = GroupCursor::new(index);
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
        assert_eq!(rng.words, 3 * stats.iterations, "three words an iteration");
    }
    let stats = cursor.sampling_stats();
    assert!(stats.iterations > 2 * stats.samples, "uniform data rejects");
}

/// `block_kernel.rs`'s refusing case on this index: two points in the
/// block of `r`, neither in its window — `W = 2`, `|J| = 0`, every
/// iteration rejects. The consecutive-rejection count must run across
/// block boundaries and trip on iteration 150 exactly.
#[test]
fn rejection_valve_counts_across_block_boundaries() {
    let r = vec![Point::new(10.0, 10.0)]; // w(r) = [8, 12]², cell side 2
    let s = vec![Point::new(12.0, 13.0), Point::new(13.0, 12.0)];
    let cfg = SampleConfig::new(2.0).with_rejection_limit(150);
    let index = Arc::new(GroupIndex::build(&r, &s, &cfg));
    assert_eq!((index.group_count(), index.mu_total()), (1, 2.0));
    assert!(join_of(&r, &s, 2.0).is_empty());

    for t in [1usize, 64, 100, 1000] {
        let mut cursor = GroupCursor::new(Arc::clone(&index));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        assert_eq!(
            cursor.sample_batch(t, &mut rng, &mut out),
            Err(SampleError::RejectionLimit),
            "t = {t}"
        );
        assert!(out.is_empty());
        let stats = *cursor.sampling_stats();
        assert_eq!((stats.iterations, stats.samples), (150, 0), "t = {t}");
    }
}

/// No `r` has a point in its block: no group is kept, and the empty join
/// is reported before any iteration — unless none was asked for.
#[test]
fn an_all_empty_block_set_is_an_empty_join() {
    let r = [Point::new(0.0, 0.0), Point::new(40.0, 3.0)];
    let s = [Point::new(500.0, 500.0)];
    for (r, s) in [(&r[..], &s[..]), (&[][..], &s[..]), (&r[..], &[][..])] {
        let index = Arc::new(GroupIndex::build(r, s, &SampleConfig::new(1.0)));
        assert_eq!((index.group_count(), index.mu_total()), (0, 0.0));
        let mut cursor = GroupCursor::new(index);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = Vec::new();
        assert_eq!(
            cursor.sample_batch(100, &mut rng, &mut out),
            Err(SampleError::EmptyJoin)
        );
        assert_eq!(cursor.sampling_stats().iterations, 0);
        assert_eq!(cursor.sample_batch(0, &mut rng, &mut out), Ok(()));
        assert!(out.is_empty());
    }
}

/// The group pass takes the §III-B bound once per group of `R`, as
/// `Σ |R_g| · pop(block_g)`: integers, so exactly the `f64` of the per-`r`
/// sum `Σ_r µ(r)` over a grid of `S` built on its own. Clumps and strays,
/// some `r` beyond every cell of `S`.
#[test]
fn group_wise_bound_is_the_per_r_sum() {
    let at = |i: usize| Point::new((i * i % 257) as f64 * 0.37, (i * 7 % 101) as f64 * 0.91);
    let r: Vec<Point> = (0..3_000).map(|i| at(i + 11)).collect();
    let s: Vec<Point> = (0..9_000).map(at).collect();
    for l in [0.5, 2.0, 7.5] {
        let index = GroupIndex::build(&r, &s, &SampleConfig::new(l));
        let grid = srj_grid::Grid::build(&s, l);
        let per_r: f64 = r
            .iter()
            .map(|&rp| grid.neighborhood_population(rp) as f64)
            .sum();
        assert_eq!(index.mu_total(), per_r, "l = {l}");
    }
}

/// The pairs are a function of the seed and the batch-size sequence, and
/// of nothing less: a block takes its alias words first.
#[test]
fn same_seed_and_batch_sizes_give_identical_pairs() {
    let (r, s, l) = clustered_sets();
    let index = Arc::new(GroupIndex::build(&r, &s, &SampleConfig::new(l)));
    let sizes = [517usize, 1, 64, 63, 65, 2048, 7];
    let run = |sizes: &[usize]| {
        let mut cursor = GroupCursor::new(Arc::clone(&index));
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

/// The admission probe as it ran once per window before the rows held
/// their verdict: 4096 iterations of the index's own block kernel at
/// the window, from a fixed seed. The accepted count, and whether it is
/// at least half.
fn probe_at(core: &Arc<GroupCore>, l: f64) -> (usize, bool) {
    let index = GroupIndex::on_core(Arc::clone(core), &SampleConfig::new(l));
    let mut rng = SmallRng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
    let (mut stats, mut out) = (PhaseReport::default(), Vec::new());
    let accepted = match index.try_many(4096, &mut rng, &mut (), &mut stats, &mut out) {
        Ok(()) => stats.samples as usize,
        Err(_) => 0,
    };
    (accepted, accepted as f64 / 4096.0 >= 0.5)
}

/// On uniform, clustered (near and far from the origin) and lattice
/// data and on an empty join, at a
/// sweep of windows up to the cell side and at every candidate's least
/// window and its ulp neighbours: the candidates whose least window is
/// reached are as many as the per-window probe accepts, and the core's
/// one threshold gives the probe's verdict. On the 0.1 lattice the
/// narrowest window served is an ulp-level 0.09999999999999994, so the
/// least windows must be exact as the window test rounds.
#[test]
fn one_threshold_per_core_gives_every_windows_probe_verdict() {
    let lattice = |n, seed| -> Vec<Point> {
        pseudo_points(n, seed, 30.0)
            .into_iter()
            .map(|p| Point::new(p.x.floor() * 0.1, p.y.floor() * 0.1))
            .collect()
    };
    let (uniform_r, uniform_s, l) = uniform_sets();
    let (clustered_r, clustered_s, _) = clustered_sets();
    // The clustered sets where an ulp of a coordinate is 2¹³ ulps of
    // the window: the rounding of `r ± l` moves a least window far from
    // the distance.
    let shifted = |points: &[Point]| -> Vec<Point> {
        let by = |x: f64| x + 65_536.3;
        points
            .iter()
            .map(|p| Point::new(by(p.x), by(p.y)))
            .collect()
    };
    let (far_r, far_s) = (shifted(&clustered_r), shifted(&clustered_s));
    let (lattice_r, lattice_s) = (lattice(200, 105), lattice(300, 106));
    let empty = vec![Point::new(500.0, 500.0)];
    // Each with its cell side and whether its verdict flips inside the
    // sweep; the uniform rows need about 2.2 iterations a sample even
    // at their side.
    let cases = [
        ("uniform", uniform_r, uniform_s, l, false),
        (
            "clustered, a side above l",
            clustered_r,
            clustered_s,
            8.0,
            true,
        ),
        ("clustered, far from the origin", far_r, far_s, 8.0, true),
        ("0.1 lattice", lattice_r, lattice_s, 0.1, true),
        ("empty join", uniform_sets().0, empty, l, false),
    ];
    for (name, r, s, side, flips) in cases {
        let core = Arc::new(GroupCore::build(&r, Arc::new(Grid::build(&s, side))));
        let least = core.probe_windows();
        assert_eq!(least.len(), 4096, "{name}");
        let mut windows: Vec<f64> = (1..=64).map(|k| side * f64::from(k) / 64.0).collect();
        for &t in least.iter().filter(|t| t.is_finite()) {
            windows.extend([t.next_down(), t, t.next_up()]);
        }
        windows.retain(|&l| l > 0.0 && l <= side);
        windows.sort_by(f64::total_cmp);
        windows.dedup();
        let mut served = 0;
        for &l in &windows {
            let (accepted, serves) = probe_at(&core, l);
            let reached = least.iter().filter(|&&t| t <= l).count();
            assert_eq!(reached, accepted, "{name}: l = {l}");
            assert_eq!(core.serves(l), serves, "{name}: l = {l}");
            assert_eq!(core.verdict(l), Some(serves), "{name}: l = {l}");
            served += usize::from(serves);
        }
        if flips {
            assert!(0 < served && served < windows.len(), "{name}: no flip");
        } else {
            assert_eq!(served, 0, "{name}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// What the build keeps: every row is its group's nine block
    /// populations, every `r` with a point in its block is in exactly
    /// one group, `W = Σ |R_g| · pop`, and the positions of the rows —
    /// `(r, cell of the block, rank in that cell)` — that pass the
    /// window test are the join, each pair once.
    #[test]
    fn rows_are_block_populations_and_positions_cover_the_join(
        s in lattice_points(-24..24, 0..200),
        r in lattice_points(-40..40, 0..160),
        l_steps in 1u32..9,
    ) {
        let l = l_steps as f64 * 0.5;
        let index = GroupIndex::build(&r, &s, &SampleConfig::new(l));
        let grid = index.grid();
        // The members are read through the set the index stands on: `R`
        // in input order, not a copy in group order.
        let set = index.r_set();
        prop_assert_eq!(set.points(), &r[..]);
        let mut weight = 0u64;
        let mut seen = vec![false; r.len()];
        let mut reached = Vec::new();
        for (g, row) in index.rows().iter().enumerate() {
            let ids = index.group_members(g);
            prop_assert!(!ids.is_empty() && row.total() > 0);
            prop_assert_eq!(row.weight(srj_alias::BlockRow::EXTRA), 0);
            weight += ids.len() as u64 * u64::from(row.total());
            for &ridx in ids {
                let rp = set[ridx as usize];
                prop_assert!(!std::mem::replace(&mut seen[ridx as usize], true));
                let w = Rect::window(rp, l);
                for (i, slot) in grid.neighborhood_slots(rp).into_iter().enumerate() {
                    let cell = slot.map_or(&[][..], |slot| grid.cell(slot).members());
                    prop_assert_eq!(row.weight(i) as usize, cell.len(), "r {:?} part {}", rp, i);
                    let inside = cell.iter().filter(|&&sid| w.contains(grid.point(sid)));
                    reached.extend(inside.map(|&sid| JoinPair::new(ridx, sid)));
                }
            }
        }
        prop_assert_eq!(index.mu_total(), weight as f64);
        for (ridx, &rp) in r.iter().enumerate() {
            let populated = grid.neighborhood_population(rp) > 0;
            prop_assert_eq!(seen[ridx], populated, "r{} = {:?}", ridx, rp);
        }
        let mut join = join_of(&r, &s, l);
        join.sort_unstable_by_key(|p| (p.r, p.s));
        reached.sort_unstable_by_key(|p| (p.r, p.s));
        prop_assert_eq!(reached, join);
    }

    /// Rows do not depend on the window: one core whose cell side is at
    /// least `l` serves `l` exactly — for every window up to the side,
    /// the positions that pass the window test are the join, each pair
    /// once — and a window wider than the side is refused.
    #[test]
    fn one_core_serves_every_window_up_to_its_side(
        s in lattice_points(-24..24, 0..200),
        r in lattice_points(-40..40, 0..160),
        side_steps in 1u32..9,
    ) {
        let side = side_steps as f64 * 0.5;
        let core = Arc::new(GroupCore::build(&r, Arc::new(Grid::build(&s, side))));
        for l in (1..=side_steps).map(|steps| steps as f64 * 0.5) {
            let index = GroupIndex::on_core(Arc::clone(&core), &SampleConfig::new(l));
            let grid = index.grid();
            let mut reached = Vec::new();
            for g in 0..index.group_count() {
                for &ridx in index.group_members(g) {
                    let w = Rect::window(r[ridx as usize], l);
                    let block = grid.neighborhood_slots(r[ridx as usize]);
                    for cell in block.into_iter().flatten().map(|slot| grid.cell(slot)) {
                        let inside = cell.members().iter().filter(|&&sid| w.contains(grid.point(sid)));
                        reached.extend(inside.map(|&sid| JoinPair::new(ridx, sid)));
                    }
                }
            }
            let mut join = join_of(&r, &s, l);
            join.sort_unstable_by_key(|p| (p.r, p.s));
            reached.sort_unstable_by_key(|p| (p.r, p.s));
            prop_assert_eq!(reached, join, "l = {} on side {}", l, side);
        }
        let wider = SampleConfig::new(side + 0.5);
        let refused = std::panic::catch_unwind(|| GroupIndex::on_core(Arc::clone(&core), &wider));
        prop_assert!(refused.is_err(), "a window wider than the cell side");
    }

    /// What the draw relies on instead of a grid probe: every member of a
    /// group — not only the one the group pass probed — has the stored
    /// slots as its block, and [`NO_CELL`] stands exactly where the row's
    /// part is 0. Negative coordinates and points on cell boundaries
    /// included (the half-unit lattice with half-unit steps of `l`).
    #[test]
    fn stored_slots_are_every_members_block(
        s in lattice_points(-30..30, 0..200),
        r in lattice_points(-40..40, 0..160),
        l_steps in 1u32..9,
    ) {
        let index = GroupIndex::build(&r, &s, &SampleConfig::new(l_steps as f64 * 0.5));
        let grid = index.grid();
        prop_assert_eq!(index.blocks().len(), index.group_count());
        for (g, (row, slots)) in index.rows().iter().zip(index.blocks()).enumerate() {
            for (part, &slot) in slots.iter().enumerate() {
                prop_assert_eq!(slot == NO_CELL, row.weight(part) == 0, "group {} part {}", g, part);
            }
            for &ridx in index.group_members(g) {
                let rp = index.r_set()[ridx as usize];
                let block = grid.neighborhood_slots(rp).map(|slot| slot.unwrap_or(NO_CELL));
                prop_assert_eq!(&block, slots, "group {} member {:?}", g, rp);
            }
        }
    }

    /// The staged kernel is the sequential draw: iteration `i` of a
    /// block of `b` takes words `i`, `b + i` and `2b + i` of the block's
    /// `3b`, and `try_many(n)` on a script yields exactly what `n`
    /// `try_draw`s yield on those words, outcome for outcome, with the
    /// same accounting.
    #[test]
    fn try_many_is_sequential_try_draws_on_the_same_words(
        s in lattice_points(0..40, 1..200),
        r in lattice_points(0..40, 1..80),
        l_steps in 1u32..9,
        n in 0usize..200,
        seed in any::<u64>(),
    ) {
        let l = l_steps as f64 * 0.5;
        // One `r` on a point of `S`: the join is never empty.
        let r = [&r[..], &s[..1]].concat();
        let index = GroupIndex::build(&r, &s, &SampleConfig::new(l));
        let mut words = SmallRng::seed_from_u64(seed);
        let script: Vec<u64> = (0..3 * n).map(|_| words.next_u64()).collect();
        let mut interleaved = Vec::with_capacity(script.len());
        for block in script.chunks(3 * 64) {
            let b = block.len() / 3;
            interleaved.extend((0..b).flat_map(|i| [block[i], block[b + i], block[2 * b + i]]));
        }

        let (mut staged, mut staged_stats) = (Vec::new(), PhaseReport::default());
        let mut rng = ScriptedRng(script.into_iter());
        index.try_many(n, &mut rng, &mut (), &mut staged_stats, &mut staged).unwrap();
        prop_assert!(rng.0.next().is_none(), "three words an iteration");

        let mut stats = PhaseReport::default();
        let mut rng = ScriptedRng(interleaved.into_iter());
        let sequential: Vec<Option<JoinPair>> = (0..n)
            .map(|_| index.try_draw(&mut rng, &mut (), &mut stats).unwrap())
            .collect();
        prop_assert_eq!(staged, sequential);
        prop_assert_eq!(
            (staged_stats.iterations, staged_stats.samples),
            (stats.iterations, stats.samples)
        );
        prop_assert_eq!(stats.iterations, n as u64);
    }
}
