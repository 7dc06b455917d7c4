//! The Fig. 9 ablation — Algorithm 1's pipeline with **a per-cell kd-tree
//! instead of the two BBSTs** for the case-3 corner cells ("this variant
//! used KDS" for corner sampling) — under its paper name.
//!
//! It is [`KdsIndex`]: exact rows from the shared cell-major sweep with a
//! kd corner count, pick + stored run for the centre and side cells, one
//! ranked kd query for a corner. Each corner count and corner draw costs
//! `O(√N)` instead of `Õ(1)`, which is the gap the figure measures (BBST
//! is "up to 12 times faster"); `mu_total()` is exact, so it equals `|J|`.
//! The aliases keep `experiments fig9`, the `bbst_vs_kd_cell` bench and
//! the sampler-enumerating tests on the paper's name while timing the
//! code the engine serves.

use crate::kds::{KdsCursor, KdsIndex, KdsSampler};

/// The Fig. 9 variant's index (see the module docs).
pub type BbstKdVariantIndex = KdsIndex;

/// Per-thread cursor over a shared [`BbstKdVariantIndex`].
pub type BbstKdVariantCursor = KdsCursor;

/// The Fig. 9 variant as a self-contained single-threaded sampler.
pub type BbstKdVariantSampler = KdsSampler;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JoinSampler, SampleConfig, SampleError};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use srj_geom::{Point, Rect};

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

    #[test]
    fn samples_are_genuine_and_never_rejected() {
        let r = pseudo_points(70, 81, 60.0);
        let s = pseudo_points(200, 82, 60.0);
        let cfg = SampleConfig::new(5.0);
        let mut sampler = BbstKdVariantSampler::build(&r, &s, &cfg);
        let mut rng = SmallRng::seed_from_u64(83);
        let samples = sampler.sample(400, &mut rng).unwrap();
        for p in samples {
            let w = Rect::window(r[p.r as usize], 5.0);
            assert!(w.contains(s[p.s as usize]));
        }
        // exact per-cell counts ⇒ zero rejections
        let rep = sampler.report();
        assert_eq!(rep.iterations, rep.samples);
    }

    #[test]
    fn mu_total_equals_join_size() {
        // 300 r over 100 cells, so the cell-major pass sees real groups.
        let r = pseudo_points(300, 91, 40.0);
        let s = pseudo_points(90, 92, 40.0);
        let sampler = BbstKdVariantSampler::build(&r, &s, &SampleConfig::new(4.0));
        let brute = srj_join::nested_loop_join(&r, &s, 4.0).len() as f64;
        assert_eq!(sampler.index().mu_total(), brute);
        // Exact per r too: every row sums to its window's population.
        for (&rp, row) in r.iter().zip(sampler.index().rows()) {
            let w = Rect::window(rp, 4.0);
            let exact = s.iter().filter(|p| w.contains(**p)).count() as u64;
            assert_eq!(u64::from(row.total()), exact, "r {rp:?}");
        }
        assert!(sampler.index().stray().is_empty());
    }

    #[test]
    fn empty_join() {
        let r = vec![Point::new(0.0, 0.0)];
        let s = vec![Point::new(900.0, 900.0)];
        let mut sampler = BbstKdVariantSampler::build(&r, &s, &SampleConfig::new(1.0));
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(sampler.sample_one(&mut rng), Err(SampleError::EmptyJoin));
    }
}
