//! Helpers shared by the update test binaries: point generation, the
//! brute-force live join of a store snapshot, and the chi-squared check
//! of an epoch engine's draws against it.

use std::collections::{HashMap, HashSet};

use srj::{DatasetSnapshot, EpochEngine, JoinPair, Point, Rect};

/// `n` xorshift points in `[0, extent)²`, a pure function of `seed`.
pub fn pseudo_points(n: usize, seed: u64, extent: f64) -> Vec<Point> {
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
pub fn live_join(snap: &DatasetSnapshot, l: f64) -> Vec<JoinPair> {
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
pub fn assert_uniform(counts: &HashMap<JoinPair, u64>, join: &[JoinPair], draws: u64, what: &str) {
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

/// The live join of the store as it stands, with enough of it for the
/// chi-squared to have power, and the number of draws to spend on it.
fn live_join_and_draws(engine: &EpochEngine, l: f64, what: &str) -> (Vec<JoinPair>, u64) {
    let join = live_join(&engine.store().snapshot(), l);
    assert!(
        join.len() > 30,
        "{what}: workload too sparse ({})",
        join.len()
    );
    let draws = (join.len() as u64 * 60).max(20_000);
    (join, draws)
}

/// One draw at a time through [`srj::SamplerHandle::sample_one`] of the
/// window `l` (`engine`'s own or a narrower one on its step): every
/// pair is in the current live join, and the draws are uniform over it.
pub fn draw_and_check(engine: &EpochEngine, l: f64, seed: u64, what: &str) {
    let (join, draws) = live_join_and_draws(engine, l, what);
    let join_set: HashSet<JoinPair> = join.iter().copied().collect();
    let mut h = engine
        .handle_at(l, Some(seed))
        .expect("the engine serves l");
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

/// Like [`draw_and_check`] but through the served batch path
/// ([`srj::SamplerHandle::sample_batch`]): draws in uneven batches so
/// block boundaries and partial batches are both crossed, and every
/// emitted pair is validated against the **current** live join — a
/// stale id would fail the membership check before it could skew the
/// chi-squared.
pub fn draw_batches_and_check(engine: &EpochEngine, l: f64, seed: u64, what: &str) {
    let (join, draws) = live_join_and_draws(engine, l, what);
    let join_set: HashSet<JoinPair> = join.iter().copied().collect();
    let mut h = engine
        .handle_at(l, Some(seed))
        .expect("the engine serves l");
    let mut counts: HashMap<JoinPair, u64> = HashMap::new();
    let mut remaining = draws as usize;
    // 517 is deliberately coprime to the 64-iteration block, so batch
    // ends and block boundaries drift against each other.
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
