/// Number of grid cells a query window can overlap: the window side is
/// twice the cell side, so `w(r)` fits inside the 3×3 block of cells
/// around the cell containing `r` (paper Fig. 1).
pub const NUM_CELLS: usize = 9;

/// Inline cumulative-count row over the 9 cells overlapping one window.
///
/// This plays the role of the per-point alias `A_r` in Algorithm 1: after
/// the approximate-range-counting phase computed `µ(r, c)` for each of the
/// nine cells, the sampling phase repeatedly picks a cell with probability
/// `µ(r, c) / µ(r)`. Storing a full Walker alias per point would allocate
/// two heap vectors for every `r ∈ R`; the cumulative row is a `Copy`
/// 72-byte struct held in one flat `Vec<CumulativeRow9>`, sampled by a
/// 9-entry branch-free scan — `O(1)` per draw, exactly `O(n)` space overall.
///
/// Every `µ(r, c)` is a **count of candidate positions** — members of an
/// exact run, or bucket slots of a quadrant bound — so the row stores
/// integers, and a draw ([`CumulativeRow9::pick_word`]) is a uniform
/// position in `[0, µ(r))`: which cell it falls into *and* its rank inside
/// that cell's `µ(r, c)` positions come out of the same random word.
#[derive(Clone, Copy, Debug, Default)]
pub struct CumulativeRow9 {
    /// `cum[i]` = `µ(r, c_0) + … + µ(r, c_i)`.
    cum: [u64; NUM_CELLS],
}

/// One draw from a [`CumulativeRow9`]: a uniform position in `[0, µ(r))`,
/// split into the cell it falls into and its offset inside that cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowPick {
    /// Cell index in `0..9`; its weight is never zero.
    pub cell: usize,
    /// Position inside the chosen cell: uniform in `[0, weight)`.
    pub rank: u64,
    /// `µ(r, c)` of the chosen cell — what the upper-bounding phase
    /// stored, handed back so the draw need not recount it.
    pub weight: u64,
}

impl CumulativeRow9 {
    /// Builds the cumulative row from nine per-cell counts.
    ///
    /// # Panics
    /// Panics if the counts sum past `u64::MAX`.
    #[inline]
    pub fn new(weights: [u64; NUM_CELLS]) -> Self {
        let mut cum = [0; NUM_CELLS];
        let mut acc = 0u64;
        for (slot, &w) in cum.iter_mut().zip(weights.iter()) {
            acc = acc.checked_add(w).expect("row weight overflows u64");
            *slot = acc;
        }
        CumulativeRow9 { cum }
    }

    /// Total weight `µ(r)` of the row.
    #[inline]
    pub fn total(&self) -> u64 {
        self.cum[NUM_CELLS - 1]
    }

    /// Weight of cell `i` (recovered from the cumulative form).
    #[inline]
    pub fn weight(&self, i: usize) -> u64 {
        if i == 0 {
            self.cum[0]
        } else {
            self.cum[i] - self.cum[i - 1]
        }
    }

    /// One-word draw: `word` is scaled to a uniform position
    /// `pos ∈ [0, µ(r))` by a single widening multiply (bias ≤
    /// `µ(r)/2⁶⁴`), and the cell is the number of cumulative entries
    /// `≤ pos` — a zero-weight cell repeats its predecessor's entry and
    /// can never be the first one above `pos`. `None` iff the row is
    /// all-zero.
    #[inline]
    pub fn pick_word(&self, word: u64) -> Option<RowPick> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let pos = ((word as u128 * total as u128) >> 64) as u64;
        // `cum[8] = total > pos`, so at most eight entries count.
        let cell = self
            .cum
            .iter()
            .map(|&c| usize::from(c <= pos))
            .sum::<usize>();
        let below = if cell == 0 { 0 } else { self.cum[cell - 1] };
        Some(RowPick {
            cell,
            rank: pos - below,
            weight: self.cum[cell] - below,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    fn sample(row: &CumulativeRow9, rng: &mut SmallRng) -> Option<usize> {
        row.pick_word(rng.next_u64()).map(|p| p.cell)
    }

    #[test]
    fn total_and_weights_roundtrip() {
        let w = [1, 0, 2, 0, 3, 0, 4, 0, 5];
        let row = CumulativeRow9::new(w);
        assert_eq!(row.total(), 15);
        for (i, &wi) in w.iter().enumerate() {
            assert_eq!(row.weight(i), wi);
        }
    }

    #[test]
    fn zero_row_returns_none() {
        let row = CumulativeRow9::new([0; 9]);
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(sample(&row, &mut rng), None);
    }

    #[test]
    fn never_samples_zero_weight_cell() {
        let w = [0, 5, 0, 0, 1, 0, 0, 0, 2];
        let row = CumulativeRow9::new(w);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..20_000 {
            let i = sample(&row, &mut rng).unwrap();
            assert!(w[i] > 0, "sampled zero-weight cell {i}");
        }
    }

    #[test]
    fn frequencies_track_weights() {
        let w = [1, 2, 0, 4, 0, 0, 8, 0, 1];
        let row = CumulativeRow9::new(w);
        let mut rng = SmallRng::seed_from_u64(77);
        let draws = 320_000usize;
        let mut counts = [0usize; 9];
        for _ in 0..draws {
            counts[sample(&row, &mut rng).unwrap()] += 1;
        }
        let total = w.iter().sum::<u64>() as f64;
        for i in 0..9 {
            if w[i] == 0 {
                assert_eq!(counts[i], 0);
            } else {
                let expected = draws as f64 * w[i] as f64 / total;
                let rel = (counts[i] as f64 - expected).abs() / expected;
                assert!(
                    rel < 0.05,
                    "cell {i}: expected {expected}, got {}",
                    counts[i]
                );
            }
        }
    }

    #[test]
    fn single_nonzero_cell_always_chosen() {
        for hot in 0..9 {
            let mut w = [0; 9];
            w[hot] = 3;
            let row = CumulativeRow9::new(w);
            let mut rng = SmallRng::seed_from_u64(hot as u64);
            for _ in 0..100 {
                assert_eq!(sample(&row, &mut rng), Some(hot));
            }
        }
    }

    #[test]
    fn rank_is_uniform_within_the_cell() {
        // One random word decides cell *and* rank: every one of the
        // µ(r) positions must come up equally often.
        let w = [3, 0, 5, 0, 0, 2, 0, 0, 6];
        let row = CumulativeRow9::new(w);
        let mut rng = SmallRng::seed_from_u64(19);
        let draws = 320_000usize;
        let mut counts = [[0usize; 6]; 9];
        for _ in 0..draws {
            let p = row.pick_word(rng.next_u64()).unwrap();
            assert_eq!(p.weight, w[p.cell]);
            counts[p.cell][p.rank as usize] += 1;
        }
        let expected = draws as f64 / 16.0;
        for (cell, &wc) in w.iter().enumerate() {
            for (rank, &got) in counts[cell].iter().enumerate() {
                if (rank as u64) < wc {
                    let rel = (got as f64 - expected).abs() / expected;
                    assert!(rel < 0.05, "cell {cell} rank {rank}: {got} vs {expected}");
                } else {
                    assert_eq!(got, 0, "cell {cell} rank {rank} is out of range");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-word pick lands on a positive-weight cell with
        /// `rank < weight == the stored weight`, for any integer row —
        /// sparse rows and huge counts included — and any word,
        /// including the two extremes.
        #[test]
        fn pick_never_returns_a_zero_weight_cell(
            weights in prop::collection::vec((0u64..4, 0u64..(1 << 40)), 9..10),
            words in prop::collection::vec(0u64..u64::MAX, 1..64),
        ) {
            // Three cells in four are empty.
            let mut w = [0u64; 9];
            for (slot, &(keep, count)) in w.iter_mut().zip(&weights) {
                *slot = if keep == 0 { count } else { 0 };
            }
            let row = CumulativeRow9::new(w);
            for word in words.into_iter().chain([0, u64::MAX]) {
                match row.pick_word(word) {
                    None => prop_assert_eq!(row.total(), 0),
                    Some(p) => {
                        prop_assert!(w[p.cell] > 0, "zero-weight cell {}", p.cell);
                        prop_assert_eq!(p.weight, w[p.cell]);
                        prop_assert!(p.rank < p.weight);
                    }
                }
            }
        }

        /// All mass in one cell — the last one included, where the
        /// scan must run off the end of eight zero entries.
        #[test]
        fn pick_with_all_mass_in_one_cell(
            hot in 0usize..9,
            count in 1u64..(1 << 50),
            word in 0u64..u64::MAX,
        ) {
            let mut w = [0u64; 9];
            w[hot] = count;
            let row = CumulativeRow9::new(w);
            for word in [word, 0, u64::MAX] {
                let p = row.pick_word(word).unwrap();
                prop_assert_eq!((p.cell, p.weight), (hot, count));
                prop_assert!(p.rank < count);
            }
        }
    }
}
