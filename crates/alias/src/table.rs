use rand::Rng;

/// Walker's alias table: `O(1)` weighted sampling over a fixed set of
/// weights.
///
/// Built in `O(k)` time from `k` non-negative weights; each draw spends
/// **one** uniform `u64`: the high bits of a widening multiply choose the
/// column, the low bits flip the biased coin. Entries with zero weight
/// are never returned.
///
/// The table keeps one representation — the packed columns the draw
/// walks. The `f64` keep-probabilities and the donor indices of the
/// construction are scratch and are dropped before `new` returns.
///
/// This is the `alias` structure of the paper's Algorithm 1 (`A`) and of
/// both baselines (Section III), crediting \[59\] A. J. Walker, "New fast
/// method for generating discrete random numbers with arbitrary frequency
/// distributions", Electronics Letters 1974.
///
/// ```
/// use srj_alias::AliasTable;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let table = AliasTable::new(&[1.0, 0.0, 3.0]).unwrap();
/// let mut rng = SmallRng::seed_from_u64(1);
/// let i = table.sample(&mut rng);
/// assert!(i == 0 || i == 2); // index 1 has zero weight
/// assert_eq!(table.total_weight(), 4.0);
/// ```
#[derive(Clone, Debug)]
pub struct AliasTable {
    /// One packed column per weight: the keep probability pre-scaled to
    /// a `u64` fixed-point threshold, and the donor index used when the
    /// coin flip rejects the column.
    cols: Vec<AliasCol>,
    /// Sum of the input weights.
    total: f64,
}

/// One packed column of the branchless walk: 12 bytes of payload padded
/// to 16 by the threshold's alignment, so one cache line holds four
/// columns.
#[derive(Clone, Copy, Debug)]
struct AliasCol {
    /// Keep threshold: `prob · 2⁶⁴`, saturating — a full column
    /// (`prob == 1.0`) saturates to `u64::MAX` and its alias is the
    /// identity (the construction only assigns an alias to columns it
    /// pops from the small stack), so the 2⁻⁶⁴ miss is harmless.
    thresh: u64,
    alias: u32,
}

// `memory_bytes()` counts columns at this size.
const _: () = assert!(std::mem::size_of::<AliasCol>() == 16);

impl AliasTable {
    /// Builds an alias table from `weights`.
    ///
    /// Returns `None` if `weights` is empty, if any weight is negative or
    /// non-finite, or if all weights are zero (no valid draw exists).
    pub fn new(weights: &[f64]) -> Option<Self> {
        let k = weights.len();
        if k == 0 || k > u32::MAX as usize {
            return None;
        }
        let mut total = 0.0;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return None;
            }
            total += w;
        }
        if total <= 0.0 {
            return None;
        }

        // Scale each weight so the average column height is exactly 1.
        let scale = k as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias: Vec<u32> = (0..k as u32).collect();

        // Two-stack construction: repeatedly top up a "small" column
        // (height < 1) from a "large" one (height ≥ 1).
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            // Donate (1 - prob[s]) of column l's mass to column s.
            let new_l = (prob[l as usize] + prob[s as usize]) - 1.0;
            prob[l as usize] = new_l;
            if new_l < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Numerical leftovers: all remaining columns are (within rounding)
        // exactly full.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }

        // 2⁶⁴ as f64; `prob == 1.0` saturates to u64::MAX on the cast.
        const SCALE_64: f64 = 18_446_744_073_709_551_616.0;
        let cols = prob
            .iter()
            .zip(alias.iter())
            .map(|(&p, &a)| AliasCol {
                thresh: (p * SCALE_64) as u64,
                alias: a,
            })
            .collect();

        Some(AliasTable { cols, total })
    }

    /// Branchless single-word draw: one uniform `u64` supplies both the
    /// column index (high bits of the widening multiply — provably
    /// `< len`, so the indexing bound check vanishes) and the coin flip
    /// (low product bits against the fixed-point keep threshold).
    ///
    /// Exact up to a `len/2⁶⁴` rounding bias — unobservable at any
    /// feasible draw count.
    #[inline]
    pub fn sample_word(&self, word: u64) -> usize {
        let wide = (word as u128) * (self.cols.len() as u128);
        let i = (wide >> 64) as usize;
        let coin = wide as u64;
        let col = self.cols[i];
        if coin < col.thresh {
            i
        } else {
            col.alias as usize
        }
    }

    /// Batched draws through the branchless walk: fills `out` with one
    /// index per slot, one `next_u64` each, inner loop unrolled four
    /// wide so the widening multiplies pipeline.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [usize]) {
        let mut chunks = out.chunks_exact_mut(4);
        for chunk in &mut chunks {
            let (w0, w1, w2, w3) = (
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            );
            chunk[0] = self.sample_word(w0);
            chunk[1] = self.sample_word(w1);
            chunk[2] = self.sample_word(w2);
            chunk[3] = self.sample_word(w3);
        }
        for slot in chunks.into_remainder() {
            *slot = self.sample_word(rng.next_u64());
        }
    }

    /// Draws an index with probability proportional to its weight:
    /// [`AliasTable::sample_word`] on the generator's next word.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sample_word(rng.next_u64())
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// `true` iff the table has no entries (never true for a constructed
    /// table, provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Sum of the input weights (`Σ_r µ(r)` in the paper's analysis).
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Approximate heap footprint in bytes (for the Fig. 4 memory
    /// experiment).
    pub fn memory_bytes(&self) -> usize {
        self.cols.capacity() * std::mem::size_of::<AliasCol>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn rejects_degenerate_input() {
        assert!(AliasTable::new(&[]).is_none());
        assert!(AliasTable::new(&[0.0, 0.0]).is_none());
        assert!(AliasTable::new(&[1.0, -0.5]).is_none());
        assert!(AliasTable::new(&[f64::NAN]).is_none());
        assert!(AliasTable::new(&[f64::INFINITY, 1.0]).is_none());
    }

    #[test]
    fn single_entry_always_returned() {
        let t = AliasTable::new(&[42.0]).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
        assert_eq!(t.total_weight(), 42.0);
    }

    #[test]
    fn zero_weight_entries_never_sampled() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 3.0, 0.0]).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let i = t.sample(&mut rng);
            assert!(i == 1 || i == 3, "sampled zero-weight index {i}");
        }
    }

    #[test]
    fn frequencies_track_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = SmallRng::seed_from_u64(42);
        let draws = 400_000usize;
        let mut counts = [0usize; 4];
        for _ in 0..draws {
            counts[t.sample(&mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expected = draws as f64 * w / 10.0;
            let got = counts[i] as f64;
            let rel = (got - expected).abs() / expected;
            assert!(rel < 0.02, "index {i}: expected {expected}, got {got}");
        }
    }

    #[test]
    fn uniform_weights_are_uniform() {
        let t = AliasTable::new(&[5.0; 10]).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[t.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let rel = (c as f64 - 10_000.0).abs() / 10_000.0;
            assert!(rel < 0.05);
        }
    }

    #[test]
    fn heavily_skewed_weights() {
        // one giant weight among many tiny ones
        let mut weights = vec![1e-6; 1000];
        weights[500] = 1e6;
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| t.sample(&mut rng) == 500).count();
        assert!(hits > 9_900, "expected ~all draws at index 500, got {hits}");
    }

    #[test]
    fn sample_word_tracks_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = SmallRng::seed_from_u64(42);
        let draws = 400_000usize;
        let mut counts = [0usize; 4];
        for _ in 0..draws {
            counts[t.sample_word(rng.next_u64())] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expected = draws as f64 * w / 10.0;
            let got = counts[i] as f64;
            let rel = (got - expected).abs() / expected;
            assert!(rel < 0.02, "index {i}: expected {expected}, got {got}");
        }
    }

    #[test]
    fn sample_word_never_hits_zero_weight() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 3.0, 0.0]).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100_000 {
            let i = t.sample_word(rng.next_u64());
            assert!(i == 1 || i == 3, "sampled zero-weight index {i}");
        }
        // Edge words: index stays in range and lands on a live column.
        for w in [0u64, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            let i = t.sample_word(w);
            assert!(i == 1 || i == 3, "edge word {w} gave {i}");
        }
    }

    #[test]
    fn sample_many_matches_sample_word_stream() {
        let t = AliasTable::new(&[2.0, 5.0, 1.0]).unwrap();
        let mut a = SmallRng::seed_from_u64(11);
        let mut b = SmallRng::seed_from_u64(11);
        let mut batched = [0usize; 23];
        t.sample_many(&mut a, &mut batched);
        for (k, &got) in batched.iter().enumerate() {
            assert_eq!(got, t.sample_word(b.next_u64()), "draw {k} diverged");
        }
    }

    #[test]
    fn single_entry_sample_word_always_returned() {
        let t = AliasTable::new(&[42.0]).unwrap();
        for w in [0u64, u64::MAX, 0x1234_5678_9abc_def0] {
            assert_eq!(t.sample_word(w), 0);
        }
    }

    #[test]
    fn memory_accounting_nonzero() {
        let t = AliasTable::new(&[1.0, 2.0]).unwrap();
        assert!(t.memory_bytes() >= 2 * (8 + 4));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
