//! The BBST block draw kernel (`SamplerIndex::draw_many` on
//! `BbstIndex`) seen from outside, through `Cursor::sample_batch`:
//! uniform over the materialised join at every block shape, the same
//! per-iteration accounting as the accept loop, reproducible from a
//! seed and a batch-size sequence.
//!
//! Deterministic: fixed seeds, chi-squared threshold `df + 6·√(2·df)`
//! (the repository's usual margin), so a failure is a bias, not luck.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use srj_core::{BbstCursor, BbstIndex, JoinPair, MassMode, SampleConfig, SampleError};
use srj_geom::Point;

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

/// ~60 R × 90 S over a 60×60 domain with `l` = 6: a few hundred join
/// pairs spanning all three cell cases.
fn test_sets() -> (Vec<Point>, Vec<Point>, f64) {
    (
        pseudo_points(60, 101, 60.0),
        pseudo_points(90, 102, 60.0),
        6.0,
    )
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

/// Test (b): batches of `t` pairs, repeated past 200 000 samples, are
/// uniform over the materialised join and contain nothing else — for
/// batch sizes below, at, just above and far above the block size, in
/// both mass modes.
#[test]
fn sample_batch_is_uniform_over_the_materialised_join_at_every_block_shape() {
    let (r, s, l) = test_sets();
    let join: Vec<JoinPair> = srj_join::nested_loop_join(&r, &s, l)
        .into_iter()
        .map(|(a, b)| JoinPair::new(a, b))
        .collect();
    assert!(join.len() > 100, "test join too small to be meaningful");
    let support: HashSet<JoinPair> = join.iter().copied().collect();
    let df = (join.len() - 1) as f64;
    let threshold = df + 6.0 * (2.0 * df).sqrt();

    for mode in [MassMode::Virtual, MassMode::Exact] {
        let cfg = SampleConfig::new(l).with_mass_mode(mode);
        let index = Arc::new(BbstIndex::build(&r, &s, &cfg));
        for t in [1usize, 63, 64, 65, 517] {
            let mut cursor = BbstCursor::new(Arc::clone(&index));
            let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ t as u64);
            let mut out = Vec::new();
            while out.len() < 200_000 {
                let before = out.len();
                cursor.sample_batch(t, &mut rng, &mut out).unwrap();
                assert_eq!(out.len(), before + t, "a batch is exactly t pairs");
            }
            let mut freq: HashMap<JoinPair, u64> = HashMap::new();
            for p in &out {
                assert!(support.contains(p), "{mode:?} t={t}: non-join pair {p:?}");
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
                "{mode:?} t={t}: χ² = {chi2:.1} exceeds {threshold:.1}"
            );
        }
    }
}

/// Test (d), the accepting side: per-iteration accounting through the
/// block kernel is the accept loop's, and an iteration spends two random
/// words.
#[test]
fn sample_batch_accounting_matches_the_accept_loop() {
    let (r, s, l) = test_sets();
    let index = Arc::new(BbstIndex::build(&r, &s, &SampleConfig::new(l)));
    let mut cursor = BbstCursor::new(index);
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
        assert_eq!(rng.words, 2 * stats.iterations, "two words an iteration");
    }
    let stats = cursor.sampling_stats();
    assert!(
        stats.iterations > stats.samples,
        "the virtual mass must reject sometimes, or this test checks nothing"
    );
}

/// Test (d), the refusing side. A corner bucket whose bounding box
/// reaches the window while neither of its points does: `µ > 0`,
/// `|J| = 0`, every iteration rejects. The consecutive-rejection count
/// must run across block boundaries — 150 is neither a multiple of the
/// block size nor within the first block — and trip on iteration 150
/// exactly.
#[test]
fn rejection_valve_counts_across_block_boundaries() {
    let r = vec![Point::new(10.0, 10.0)]; // w(r) = [8, 12]², cell side 2
    let mut s = vec![Point::new(12.0, 13.0), Point::new(13.0, 12.0)]; // cell c↗, one bucket
    s.extend((0..6).map(|i| Point::new(500.0 + i as f64, 500.0))); // m = 8 ⇒ bucket capacity 3
    let cfg = SampleConfig::new(2.0).with_rejection_limit(150);
    let index = Arc::new(BbstIndex::build(&r, &s, &cfg));
    assert!(
        index.mu_total() > 0.0,
        "the near-miss bucket must be matched"
    );
    assert!(srj_join::nested_loop_join(&r, &s, 2.0).is_empty());

    for t in [1usize, 64, 100, 1000] {
        let mut cursor = BbstCursor::new(Arc::clone(&index));
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

#[test]
fn empty_join_is_reported_before_any_iteration() {
    let r = vec![Point::new(0.0, 0.0)];
    let s = vec![Point::new(500.0, 500.0)];
    let index = Arc::new(BbstIndex::build(&r, &s, &SampleConfig::new(1.0)));
    let mut cursor = BbstCursor::new(index);
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

/// Test (e): the pairs are a function of the seed and the batch-size
/// sequence — the same two give the same bytes — and of nothing less: a block takes its `r` words before its
/// pick words, so the same seed cut into different batches is another
/// (equally uniform) stream.
#[test]
fn same_seed_and_batch_sizes_give_identical_pairs() {
    let (r, s, l) = test_sets();
    let index = Arc::new(BbstIndex::build(&r, &s, &SampleConfig::new(l)));
    let sizes = [517usize, 1, 64, 63, 65, 2048, 7];
    let run = |sizes: &[usize]| {
        let mut cursor = BbstCursor::new(Arc::clone(&index));
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
