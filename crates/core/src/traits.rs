use rand::RngCore;

use crate::config::{JoinPair, PhaseReport, SampleError};

/// Common interface of all join samplers.
///
/// Object-safe (the experiment harness iterates over
/// `Box<dyn JoinSampler>`), so the RNG is taken as `&mut dyn RngCore`.
///
/// All samplers draw **with replacement**; every accepted pair is a
/// uniform, independent draw from `J` (Theorem 3 for BBST, the
/// correctness arguments of §III for the baselines).
pub trait JoinSampler {
    /// Human-readable algorithm name (as used in the paper's tables).
    fn name(&self) -> &'static str;

    /// Draws one uniform join sample.
    fn sample_one(&mut self, rng: &mut dyn RngCore) -> Result<JoinPair, SampleError>;

    /// Draws `t` uniform join samples with replacement (Definition 2).
    ///
    /// The default implementation loops [`JoinSampler::sample_one`];
    /// implementations may override for batching.
    fn sample(&mut self, t: usize, rng: &mut dyn RngCore) -> Result<Vec<JoinPair>, SampleError> {
        let mut out = Vec::with_capacity(t);
        for _ in 0..t {
            out.push(self.sample_one(rng)?);
        }
        Ok(out)
    }

    /// Draws `t` **distinct** join samples (sampling without
    /// replacement), by the paper's suggested extension: "just rejecting
    /// a given sample if it has already been obtained" (§II).
    ///
    /// Needs `t ≤ |J|`; if `t` exceeds the join size the duplicate
    /// bail-out below reports [`SampleError::RejectionLimit`].
    fn sample_without_replacement(
        &mut self,
        t: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<JoinPair>, SampleError> {
        // Bound the pre-allocation: `t` is caller-controlled and the
        // old `t * 2` both overflowed near `usize::MAX` and committed
        // gigabytes up front for huge requests. The set still grows on
        // demand past the cap.
        const MAX_PREALLOC_PAIRS: usize = 1 << 16;
        let mut seen =
            std::collections::HashSet::with_capacity(t.saturating_mul(2).min(MAX_PREALLOC_PAIRS));
        let mut out = Vec::with_capacity(t.min(MAX_PREALLOC_PAIRS));
        let mut consecutive_duplicates = 0u64;
        while out.len() < t {
            let pair = self.sample_one(rng)?;
            if seen.insert(pair) {
                out.push(pair);
                consecutive_duplicates = 0;
            } else {
                consecutive_duplicates += 1;
                // Adaptive bail-out, scaled to the observed distinct
                // count k instead of a fixed 10M draws (which stalled
                // for minutes on tiny exhausted joins): if any unseen
                // pair remained, a draw would miss it with probability
                // ≤ k/(k+1), so c consecutive duplicates occur with
                // probability ≤ (k/(k+1))^c ≈ e^(−c/(k+1)). At
                // c = 64·(k+1) a false bail-out has probability
                // < e⁻⁶⁴; the 4096 floor keeps tiny k comfortably
                // conservative.
                let limit = 64 * (seen.len() as u64 + 1);
                if consecutive_duplicates > limit.max(4_096) {
                    return Err(SampleError::RejectionLimit);
                }
            }
        }
        Ok(out)
    }

    /// Phase timing / iteration report (Tables II–IV).
    fn report(&self) -> PhaseReport;

    /// Approximate heap footprint of all retained structures, in bytes
    /// (Fig. 4).
    fn memory_bytes(&self) -> usize;

    /// Progressive sampling: an iterator of uniform, independent join
    /// samples that can be stopped at any point.
    ///
    /// The paper notes that `t` "can be ∞. Because all algorithms ...
    /// pick join samples progressively, they can stop sampling whenever
    /// sufficient join samples are obtained" (§II). The iterator ends
    /// (returns `None`) on the first [`SampleError`], which it exposes
    /// through [`SampleIter::error`].
    fn sample_iter<'a>(&'a mut self, rng: &'a mut dyn RngCore) -> SampleIter<'a>
    where
        Self: Sized,
    {
        SampleIter {
            sampler: self,
            rng,
            error: None,
        }
    }
}

/// Progressive sampling iterator; see [`JoinSampler::sample_iter`].
pub struct SampleIter<'a> {
    sampler: &'a mut dyn JoinSampler,
    rng: &'a mut dyn RngCore,
    error: Option<SampleError>,
}

impl SampleIter<'_> {
    /// The error that terminated the stream, if any.
    pub fn error(&self) -> Option<SampleError> {
        self.error
    }
}

impl Iterator for SampleIter<'_> {
    type Item = JoinPair;

    fn next(&mut self) -> Option<JoinPair> {
        if self.error.is_some() {
            return None;
        }
        match self.sampler.sample_one(self.rng) {
            Ok(p) => Some(p),
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A toy sampler over a fixed pair universe, to exercise the default
    /// trait methods in isolation.
    struct Toy {
        universe: Vec<JoinPair>,
        report: PhaseReport,
    }

    impl JoinSampler for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn sample_one(&mut self, rng: &mut dyn RngCore) -> Result<JoinPair, SampleError> {
            if self.universe.is_empty() {
                return Err(SampleError::EmptyJoin);
            }
            self.report.iterations += 1;
            self.report.samples += 1;
            let i = (rng.next_u64() % self.universe.len() as u64) as usize;
            Ok(self.universe[i])
        }
        fn report(&self) -> PhaseReport {
            self.report
        }
        fn memory_bytes(&self) -> usize {
            self.universe.len() * std::mem::size_of::<JoinPair>()
        }
    }

    fn toy(n: u32) -> Toy {
        Toy {
            universe: (0..n).map(|i| JoinPair::new(i, i * 2)).collect(),
            report: PhaseReport::default(),
        }
    }

    #[test]
    fn default_sample_collects_t() {
        let mut t = toy(10);
        let mut rng = SmallRng::seed_from_u64(0);
        let v = t.sample(25, &mut rng).unwrap();
        assert_eq!(v.len(), 25);
        assert_eq!(t.report().samples, 25);
    }

    #[test]
    fn empty_join_propagates() {
        let mut t = toy(0);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(t.sample(5, &mut rng), Err(SampleError::EmptyJoin));
    }

    #[test]
    fn without_replacement_is_distinct_and_complete() {
        let mut t = toy(20);
        let mut rng = SmallRng::seed_from_u64(1);
        let v = t.sample_without_replacement(20, &mut rng).unwrap();
        assert_eq!(v.len(), 20);
        let set: std::collections::HashSet<_> = v.iter().collect();
        assert_eq!(set.len(), 20, "duplicates returned");
    }

    #[test]
    fn without_replacement_bails_out_fast_when_t_exceeds_join() {
        // |J| = 5 but 10 distinct pairs requested: the adaptive
        // bail-out must fire after ~thousands of draws, not the old
        // fixed 10M.
        let mut t = toy(5);
        let mut rng = SmallRng::seed_from_u64(8);
        assert_eq!(
            t.sample_without_replacement(10, &mut rng),
            Err(SampleError::RejectionLimit)
        );
        // 5 distinct + adaptive duplicate budget: orders of magnitude
        // below the old 10M-draw stall.
        assert!(
            t.report().iterations < 100_000,
            "bail-out too slow: {} draws",
            t.report().iterations
        );
    }

    #[test]
    fn without_replacement_survives_skewed_near_complete_collection() {
        // Collecting all 40 of 40 pairs forces long duplicate streaks
        // near the end; the adaptive limit must NOT fire spuriously.
        let mut t = toy(40);
        let mut rng = SmallRng::seed_from_u64(12);
        let v = t.sample_without_replacement(40, &mut rng).unwrap();
        assert_eq!(v.len(), 40);
    }

    #[test]
    fn without_replacement_huge_t_does_not_overallocate() {
        // A request near usize::MAX previously computed `t * 2` with
        // overflow (debug: panic) and tried to reserve the result.
        // Now it starts bounded and fails via the bail-out.
        let mut t = toy(3);
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(
            t.sample_without_replacement(usize::MAX, &mut rng),
            Err(SampleError::RejectionLimit)
        );
    }

    #[test]
    fn sample_iter_streams_and_stops_on_error() {
        let mut t = toy(5);
        let mut rng = SmallRng::seed_from_u64(3);
        let collected: Vec<_> = t.sample_iter(&mut rng).take(100).collect();
        assert_eq!(collected.len(), 100);

        let mut empty = toy(0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut iter = empty.sample_iter(&mut rng);
        assert!(iter.next().is_none());
        assert_eq!(iter.error(), Some(SampleError::EmptyJoin));
    }

    #[test]
    fn object_safety() {
        let mut boxed: Box<dyn JoinSampler> = Box::new(toy(3));
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(boxed.sample_one(&mut rng).is_ok());
        // the dyn-compatible RNG plumbing still yields usable randomness
        let mut any = false;
        for _ in 0..50 {
            any |= boxed.sample_one(&mut rng).unwrap().r != 0;
        }
        assert!(any);
        let _ = rng.gen::<f64>();
    }
}
