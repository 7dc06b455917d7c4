/// Number of grid cells a query window can overlap: the window side is
/// twice the cell side, so `w(r)` fits inside the 3×3 block of cells
/// around the cell containing `r` (paper Fig. 1).
pub const NUM_CELLS: usize = 9;

/// Inline cumulative-count row over the 3×3 block of one point: the one
/// row type of every index and of the delta overlay.
///
/// This plays the role of the per-point alias `A_r` in Algorithm 1: after
/// the approximate-range-counting phase computed `µ(r, c)` for each of the
/// nine cells, the sampling phase repeatedly picks a cell with probability
/// `µ(r, c) / µ(r)`. Storing a full Walker alias per point would allocate
/// two heap vectors for every `r ∈ R`; the cumulative row is a `Copy`
/// 40-byte struct held in one flat `Vec<BlockRow>`, sampled by a
/// ten-entry branch-free scan — `O(1)` per draw, exactly `O(n)` space
/// overall.
///
/// Parts `0..9` are the cells of the block in `NEIGHBOR_OFFSETS` order.
/// Part [`BlockRow::EXTRA`] holds candidates that belong to the block but
/// to none of its cells' own arrays: for an overlay chunk, the opposite
/// side's inserts the chunk saw in the block (its *cross* part); for a
/// base row it is empty, so a base pick never lands there.
///
/// Every part is a **count of candidate positions** — members of an
/// exact run, bucket slots of a quadrant bound, a cell's population — so
/// the row stores integers, and a draw ([`BlockRow::pick_word`]) is a
/// uniform position in `[0, µ(r))`: which part it falls into *and* its
/// rank inside that part's positions come out of the same random word.
/// A block's positions are bounded by point ids, which are `u32` (a BBST
/// bound adds at most one bucket capacity per cell), so the running total
/// is kept in `u32` and [`BlockRow::new`] refuses a row that does not fit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockRow {
    /// `cum[i]` = the positions of parts `0..=i`.
    cum: [u32; NUM_CELLS + 1],
}

// `memory_bytes()` arithmetic and the prose above both say forty.
const _: () = assert!(std::mem::size_of::<BlockRow>() == 40);

/// One draw from a [`BlockRow`]: a uniform position in `[0, µ(r))`,
/// split into the part it falls into and its offset inside that part.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowPick {
    /// Part index in `0..=9`; its weight is never zero.
    pub part: usize,
    /// Position inside the chosen part: uniform in `[0, weight)`.
    pub rank: u32,
    /// How many positions the chosen part holds — what the
    /// upper-bounding phase stored, handed back so the draw need not
    /// recount it.
    pub weight: u32,
}

impl BlockRow {
    /// Index of the tenth part.
    pub const EXTRA: usize = NUM_CELLS;

    /// Builds the cumulative row from nine per-cell counts and the
    /// extra part's.
    ///
    /// # Panics
    /// Panics if the counts sum past `u32::MAX`.
    #[inline]
    pub fn new(cells: [u64; NUM_CELLS], extra: u64) -> Self {
        let mut cum = [0u32; NUM_CELLS + 1];
        let mut acc = 0u64;
        for (slot, w) in cum.iter_mut().zip(cells.into_iter().chain([extra])) {
            acc = acc.saturating_add(w);
            *slot = u32::try_from(acc).expect("block population overflows u32");
        }
        BlockRow { cum }
    }

    /// Grows the extra part by `extra` positions, in place: the row
    /// [`BlockRow::new`] would have built with that much more there.
    ///
    /// # Panics
    /// Panics if the total passes `u32::MAX`.
    #[inline]
    pub fn add_extra(&mut self, extra: u64) {
        let total = u64::from(self.total()).saturating_add(extra);
        self.cum[Self::EXTRA] = u32::try_from(total).expect("block population overflows u32");
    }

    /// Total weight `µ(r)` of the row.
    #[inline]
    pub fn total(&self) -> u32 {
        self.cum[Self::EXTRA]
    }

    /// Weight of part `i` (recovered from the cumulative form).
    #[inline]
    pub fn weight(&self, i: usize) -> u32 {
        if i == 0 {
            self.cum[0]
        } else {
            self.cum[i] - self.cum[i - 1]
        }
    }

    /// One-word draw: `word` is scaled to a uniform position
    /// `pos ∈ [0, µ(r))` by a single widening multiply (bias ≤
    /// `µ(r)/2⁶⁴`), and the part is the number of cumulative entries
    /// `≤ pos` — an empty part repeats its predecessor's entry and can
    /// never be the first one above `pos`. `None` iff the row is
    /// all-zero.
    #[inline]
    pub fn pick_word(&self, word: u64) -> Option<RowPick> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let pos = ((word as u128 * total as u128) >> 64) as u32;
        // `cum[9] = total > pos`, so at most nine entries count.
        let part = self
            .cum
            .iter()
            .map(|&c| usize::from(c <= pos))
            .sum::<usize>();
        let below = if part == 0 { 0 } else { self.cum[part - 1] };
        Some(RowPick {
            part,
            rank: pos - below,
            weight: self.cum[part] - below,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    /// The pick as the row did it while it kept `u64` counts: cumulative
    /// sums in `u64`, the same widening multiply on the total, the part
    /// by the same scan. `(part, rank, weight)`.
    fn reference_pick(parts: &[u64; 10], word: u64) -> Option<(usize, u64, u64)> {
        let mut cum = [0u64; 10];
        let mut acc = 0u64;
        for (slot, &w) in cum.iter_mut().zip(parts) {
            acc = acc.checked_add(w).expect("row weight overflows u64");
            *slot = acc;
        }
        let total = cum[9];
        if total == 0 {
            return None;
        }
        let pos = ((word as u128 * total as u128) >> 64) as u64;
        let part = cum.iter().filter(|&&c| c <= pos).count();
        let below = if part == 0 { 0 } else { cum[part - 1] };
        Some((part, pos - below, cum[part] - below))
    }

    fn cells_of(parts: &[u64; 10]) -> [u64; 9] {
        std::array::from_fn(|i| parts[i])
    }

    fn sample(row: &BlockRow, rng: &mut SmallRng) -> Option<usize> {
        row.pick_word(rng.next_u64()).map(|p| p.part)
    }

    #[test]
    fn total_and_weights_roundtrip() {
        let w = [1, 0, 2, 0, 3, 0, 4, 0, 5];
        let mut row = BlockRow::new(w, 0);
        assert_eq!(row.total(), 15);
        for (i, &wi) in w.iter().enumerate() {
            assert_eq!(u64::from(row.weight(i)), wi);
        }
        assert_eq!(row.weight(BlockRow::EXTRA), 0);
        // Growing the extra part in place is building with it.
        row.add_extra(4);
        row.add_extra(3);
        assert_eq!(row, BlockRow::new(w, 7));
        assert_eq!((row.total(), row.weight(BlockRow::EXTRA)), (22, 7));
    }

    #[test]
    fn zero_row_returns_none() {
        let row = BlockRow::new([0; 9], 0);
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(sample(&row, &mut rng), None);
        assert_eq!(row, BlockRow::default());
    }

    #[test]
    fn a_full_u32_row_is_accepted() {
        let mut w = [0u64; 9];
        w[3] = u64::from(u32::MAX) - 1;
        let row = BlockRow::new(w, 1);
        assert_eq!(row.total(), u32::MAX);
        let last = row.pick_word(u64::MAX).unwrap();
        assert_eq!((last.part, last.rank, last.weight), (BlockRow::EXTRA, 0, 1));
    }

    #[test]
    #[should_panic(expected = "block population overflows u32")]
    fn cells_past_u32_are_refused() {
        let mut w = [0u64; 9];
        w[0] = 1 << 31;
        w[8] = 1 << 31;
        BlockRow::new(w, 0);
    }

    #[test]
    #[should_panic(expected = "block population overflows u32")]
    fn cells_and_extra_past_u32_are_refused() {
        let mut w = [0u64; 9];
        w[4] = u64::from(u32::MAX);
        BlockRow::new(w, 1);
    }

    #[test]
    #[should_panic(expected = "block population overflows u32")]
    fn an_extra_grown_past_u32_is_refused() {
        let mut w = [0u64; 9];
        w[4] = u64::from(u32::MAX);
        BlockRow::new(w, 0).add_extra(1);
    }

    #[test]
    fn never_samples_zero_weight_cell() {
        let w = [0, 5, 0, 0, 1, 0, 0, 0, 2];
        let row = BlockRow::new(w, 0);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..20_000 {
            let i = sample(&row, &mut rng).unwrap();
            assert!(w[i] > 0, "sampled zero-weight cell {i}");
        }
    }

    #[test]
    fn frequencies_track_weights() {
        let w = [1, 2, 0, 4, 0, 0, 8, 0, 1];
        let row = BlockRow::new(w, 0);
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
        for hot in 0..10 {
            let mut w = [0; 10];
            w[hot] = 3;
            let row = BlockRow::new(cells_of(&w), w[9]);
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
        let row = BlockRow::new(w, 0);
        let mut rng = SmallRng::seed_from_u64(19);
        let draws = 320_000usize;
        let mut counts = [[0usize; 6]; 9];
        for _ in 0..draws {
            let p = row.pick_word(rng.next_u64()).unwrap();
            assert_eq!(u64::from(p.weight), w[p.part]);
            counts[p.part][p.rank as usize] += 1;
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

        /// The one-word pick lands on a positive-weight part with
        /// `rank < weight == the stored weight`, for any integer row —
        /// sparse rows and counts that fill `u32` included — and any
        /// word, including the two extremes.
        #[test]
        fn pick_never_returns_a_zero_weight_cell(
            // Ten parts below 2²⁸ each: the total fits `u32`.
            weights in prop::collection::vec((0u64..4, 0u64..(1 << 28)), 10..11),
            words in prop::collection::vec(0u64..u64::MAX, 1..64),
        ) {
            // Three parts in four are empty.
            let mut w = [0u64; 10];
            for (slot, &(keep, count)) in w.iter_mut().zip(&weights) {
                *slot = if keep == 0 { count } else { 0 };
            }
            let row = BlockRow::new(cells_of(&w), w[9]);
            for word in words.into_iter().chain([0, u64::MAX]) {
                match row.pick_word(word) {
                    None => prop_assert_eq!(row.total(), 0),
                    Some(p) => {
                        prop_assert!(w[p.part] > 0, "zero-weight part {}", p.part);
                        prop_assert_eq!(u64::from(p.weight), w[p.part]);
                        prop_assert!(p.rank < p.weight);
                    }
                }
            }
        }

        /// All mass in one part — the ninth cell and the extra part
        /// included, where the scan must run off the end of the zero
        /// entries before it — up to the whole of `u32`.
        #[test]
        fn pick_with_all_mass_in_one_cell(
            hot in 0usize..10,
            count in 1u64..(1 << 32),
            word in 0u64..u64::MAX,
        ) {
            let mut w = [0u64; 10];
            w[hot] = count;
            let row = BlockRow::new(cells_of(&w), w[9]);
            for word in [word, 0, u64::MAX] {
                let p = row.pick_word(word).unwrap();
                prop_assert_eq!((p.part, u64::from(p.weight)), (hot, count));
                prop_assert!(u64::from(p.rank) < count);
            }
        }

        /// The forty-byte row picks what the `u64` row picked: the same
        /// `(part, rank, weight)` for any ten counts whose total fits
        /// `u32` — sparse, all in one part, extra only, dense — and any
        /// word. The multiply is on the total, which is the same
        /// integer in both, so no fixed-seed stream moved with the type.
        #[test]
        fn pick_is_the_u64_reference(
            shape in 0u32..4,
            hot in 0usize..10,
            weights in prop::collection::vec((0u64..4, 0u64..(1 << 28)), 10..11),
            words in prop::collection::vec(0u64..u64::MAX, 1..64),
        ) {
            let mut w = [0u64; 10];
            for (i, (slot, &(keep, count))) in w.iter_mut().zip(&weights).enumerate() {
                *slot = match shape {
                    0 if keep == 0 => count, // three parts in four empty
                    1 if i == hot => count + 1, // all mass in one part
                    2 if i == BlockRow::EXTRA => count + 1, // extra only
                    3 => count,
                    _ => 0,
                };
            }
            let row = BlockRow::new(cells_of(&w), w[9]);
            prop_assert_eq!(u64::from(row.total()), w.iter().sum::<u64>());
            for word in words.into_iter().chain([0, u64::MAX]) {
                let picked = row
                    .pick_word(word)
                    .map(|p| (p.part, u64::from(p.rank), u64::from(p.weight)));
                prop_assert_eq!(picked, reference_pick(&w, word));
            }
        }
    }
}
