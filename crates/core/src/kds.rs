use std::sync::Arc;
use std::time::Instant;

use rand::Rng;
use srj_alias::{AliasTable, BlockRow, NUM_CELLS};
use srj_geom::{Point, Rect};
use srj_grid::{case_of, CellCase, IntoPointSet, PointSet};
use srj_kdtree::CanonicalScratch;

use crate::cellstore::KdCellStore;
use crate::config::{JoinPair, PhaseReport, SampleConfig, SampleError};
use crate::cursor::{Cursor, IndexBytes, SamplerIndex};
use crate::decompose::{case12_draw, open_quadrant, quadrant_query, upper_bounding};

/// Immutable build product of Baseline 1 — **KDS** (paper Section III-A)
/// — and of the Fig. 9 ablation, which is the same algorithm (see
/// [`crate::BbstKdVariantIndex`]).
///
/// **Build.**
/// 1. The `S`-side structure: per-cell kd-trees behind a cell-granular
///    [`KdCellStore`] (cell side = `l`, so a window overlaps ≤ 9 cells —
///    the `O(√m)` query bound of the monolithic kd-tree is preserved,
///    and the structure becomes patchable cell by cell).
/// 2. An exact range count `|S(w(r))|` for every `r ∈ R` (`O(n√m)` —
///    the baseline's bottleneck), taken by the cell-major sweep the BBST
///    algorithm uses ([`crate::BbstIndex`] describes group → sweep →
///    scatter): the centre and side cells of `r`'s 3×3 block by position
///    in the cell's sorted arrays, each corner cell by that cell's exact
///    kd count of the window's 2-sided quadrant. The nine counts are
///    **kept** as the row of `r`, not summed away.
/// 3. A Walker alias over the row totals; it picks `r` with probability
///    `|S(w(r))| / |J|`.
///
/// **Draw.** One iteration is two random words: `r` from the alias; from
/// the row of `r`, a uniform position in `[0, |S(w(r))|)`, which is a
/// cell of the block *and* a rank among that cell's members in the
/// window. Then one grid probe, and the member at that rank: for a
/// centre or side cell the count locates a prefix or suffix of a sorted
/// member array and the rank indexes it (`O(1)`; ¾ of a uniform window's
/// mass), for a corner cell one ranked kd query on that cell alone
/// ([`KdCellStore::nth_in_cell`], `O(√|c|)`). Nothing is counted at draw
/// time. The counts are exact, so every pair of `J` is emitted with
/// probability exactly `1/|J|` and no iteration rejects
/// (`iterations == samples`).
///
/// The 3×3 block is where `w(r)` lies up to rounding: `⌊x / l⌋` and
/// `r.x ± l` can disagree within an ulp of a cell boundary, so that a
/// window reaches a fourth column or row. The build checks every `r`
/// whose window corners leave its block against
/// [`KdCellStore::count_window`] (which walks cells by the window's own
/// corners); one whose count differs goes on a sorted stray list, gets
/// its exact count as alias weight, and draws through
/// [`KdCellStore::sample_in_window`]. The list is empty unless
/// coordinates sit on multiples of `l`.
///
/// The index is `Send + Sync` and never mutated after
/// [`KdsIndex::build`]; wrap it in an [`Arc`] and hand every serving
/// thread its own [`KdsCursor`].
///
/// Total: `O(n√m)` build, `O(1)` expected + `O(√|c|)` in a quarter of
/// the draws, `O(n + m)` space.
pub struct KdsIndex {
    /// `R`, shared with every other index built on the same set.
    r: Arc<PointSet>,
    /// `Arc`-held so that rebuilds over a new `R` stand on one copy of
    /// the `S`-side (see [`KdsIndex::build_shared`]), and an epoch
    /// engine can patch it cell by cell.
    s_cells: Arc<KdCellStore>,
    /// Per `r`, the exact count of `w(r)` in each cell of its block.
    rows: Vec<BlockRow>,
    /// Sorted positions in `R` whose window leaves its block and holds
    /// points there: their rows undercount, their draws bypass them.
    stray: Vec<u32>,
    alias: Option<AliasTable>,
    config: SampleConfig,
    build_report: PhaseReport,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KdsIndex>();
};

impl KdsIndex {
    /// Runs the build phases: kd-trees (pre-processing) + exact counts
    /// and alias (upper-bounding phase, in the paper's table terminology
    /// — for KDS the "bounds" are exact).
    ///
    /// The counting pass — the baseline's `O(n√m)` bottleneck — runs on
    /// [`SampleConfig::build_threads`] threads; results are
    /// bit-identical at any thread count (see [`crate::parallel`]).
    pub fn build(r: impl IntoPointSet, s: impl IntoPointSet, config: &SampleConfig) -> Self {
        let (s_cells, preprocessing) = Self::build_s_structure(s, config);
        Self::build_inner(r.into_point_set(), s_cells, config, preprocessing)
    }

    /// Builds only the `S`-side structure (the per-cell kd-trees) and
    /// reports how long it took. Hand `Arc` clones of it to
    /// [`KdsIndex::build_shared`] to build indexes over several `R`s
    /// that hold one copy of the structure.
    /// `s` is a slice, copied, or an `Arc<PointSet>`, shared; the time
    /// includes the sorts of `S` only when this build ran them.
    pub fn build_s_structure(
        s: impl IntoPointSet,
        config: &SampleConfig,
    ) -> (Arc<KdCellStore>, std::time::Duration) {
        let t0 = Instant::now();
        let s_cells = Arc::new(KdCellStore::build(
            s,
            config.half_extent,
            config.build_threads,
        ));
        (s_cells, t0.elapsed())
    }

    /// Like [`KdsIndex::build`], but over an already-built `S`-side
    /// (from [`KdsIndex::build_s_structure`], or a
    /// [`KdCellStore::patch_onto`] of one). Its build time is charged to
    /// whoever built it, so this index's report records zero
    /// preprocessing. `r`, like `s` in [`KdsIndex::build`], is a slice,
    /// copied, or an `Arc<PointSet>`, which the index shares.
    pub fn build_shared(
        r: impl IntoPointSet,
        s_cells: Arc<KdCellStore>,
        config: &SampleConfig,
    ) -> Self {
        Self::build_inner(
            r.into_point_set(),
            s_cells,
            config,
            std::time::Duration::ZERO,
        )
    }

    fn build_inner(
        r: Arc<PointSet>,
        s_cells: Arc<KdCellStore>,
        config: &SampleConfig,
        preprocessing: std::time::Duration,
    ) -> Self {
        let l = config.half_extent;
        let grid = s_cells.grid();
        assert!(
            grid.cell_side().to_bits() == l.to_bits(),
            "S-side cell side ({}) must equal the window half-extent ({l})",
            grid.cell_side(),
        );
        let t1 = Instant::now();
        let mut ub = upper_bounding(grid, &r, l, config.build_threads, |slot, q| {
            s_cells.count_in_cell(slot, &open_quadrant(q)) as u64
        });
        // The rows assume `w(r)` lies in the block of `r`; an `r` whose
        // window corners say otherwise is counted the window's way.
        let outside =
            |lo: i32, hi: i32, c: i32| lo < c.saturating_sub(1) || hi > c.saturating_add(1);
        let exact = |i: u32| s_cells.count_window(&Rect::window(r[i as usize], l)) as u64;
        let stray: Vec<u32> = (0u32..)
            .zip(r.iter().zip(&ub.rows))
            .filter(|&(i, (&rp, row))| {
                let w = Rect::window(rp, l);
                let (cx, cy) = grid.coord_of(rp);
                let lo = grid.coord_of(Point::new(w.min_x, w.min_y));
                let hi = grid.coord_of(Point::new(w.max_x, w.max_y));
                (outside(lo.0, hi.0, cx) || outside(lo.1, hi.1, cy))
                    && exact(i) != u64::from(row.total())
            })
            .map(|(i, _)| i)
            .collect();
        if !stray.is_empty() {
            let mut weights: Vec<f64> = ub.rows.iter().map(|row| row.total() as f64).collect();
            for &i in &stray {
                weights[i as usize] = exact(i) as f64;
            }
            ub.alias = AliasTable::new(&weights);
        }
        let upper_bounding = t1.elapsed();

        KdsIndex {
            r,
            rows: ub.rows,
            stray,
            alias: ub.alias,
            config: *config,
            build_report: PhaseReport {
                preprocessing,
                upper_bounding,
                // The stray check is serial; charge it to CPU too so
                // that cpu/wall stays the honest speedup ratio.
                upper_bounding_cpu: ub.cpu + upper_bounding.saturating_sub(ub.wall),
                ..PhaseReport::default()
            },
            s_cells,
        }
    }

    /// The `Arc`-shared `S`-side over `S`, for rebuilding an index over
    /// a mutated `R` without re-paying the `S`-side build, or for
    /// patching cell by cell when `S` mutated (epoch-based rebuilds
    /// hand this — or its [`KdCellStore::patch_onto`] — straight back to
    /// [`KdsIndex::build_shared`]).
    pub fn s_cells(&self) -> Arc<KdCellStore> {
        Arc::clone(&self.s_cells)
    }

    /// The `R` the index draws from: the set it was built on, shared.
    pub fn r_set(&self) -> &Arc<PointSet> {
        &self.r
    }

    /// Exact join cardinality `|J| = Σ_r |S(w(r))|` (free by-product of
    /// the counting step — one of KDS's few advantages).
    pub fn join_size(&self) -> u64 {
        self.mu_total() as u64
    }

    /// [`KdsIndex::join_size`] as the alias's total weight — what the
    /// BBST family calls `Σµ`; here the bounds are exact.
    pub fn mu_total(&self) -> f64 {
        self.alias.as_ref().map_or(0.0, AliasTable::total_weight)
    }

    /// The per-`r` rows: entry `i` of row `j` is the exact count of
    /// `w(r_j)` in neighbour `i` of `r_j`'s 3×3 block.
    pub fn rows(&self) -> &[BlockRow] {
        &self.rows
    }

    /// Positions in `R` whose draws bypass their row (see the type
    /// docs), ascending. Empty unless rounding pushed a window out of
    /// its block onto points.
    pub fn stray(&self) -> &[u32] {
        &self.stray
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &SampleConfig {
        &self.config
    }

    /// Build-phase timing (preprocessing + upper bounding).
    pub fn build_report(&self) -> PhaseReport {
        self.build_report
    }

    /// Approximate heap footprint of the retained structures.
    pub fn memory_bytes(&self) -> usize {
        self.index_bytes().total()
    }
}

impl SamplerIndex for KdsIndex {
    type Scratch = ();

    fn algorithm_name(&self) -> &'static str {
        "KDS"
    }

    /// One iteration: `r` from the alias word, cell and in-cell rank
    /// from the row word, the member at that rank. KDS counts exactly,
    /// so every iteration accepts: `try_draw` never returns `Ok(None)`.
    fn try_draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        _scratch: &mut (),
        stats: &mut PhaseReport,
    ) -> Result<Option<JoinPair>, SampleError> {
        let alias = self.alias.as_ref().ok_or(SampleError::EmptyJoin)?;
        stats.iterations += 1;
        let ridx = alias.sample_word(rng.next_u64());
        let rp = self.r[ridx];
        let w = Rect::window(rp, self.config.half_extent);
        // The alias only returns r with a positive count, so neither
        // arm can come up empty.
        let sid = if self.stray.binary_search(&(ridx as u32)).is_ok() {
            self.s_cells
                .sample_in_window(&w, rng, &mut CanonicalScratch)
                .expect("alias returned a stray r with zero range count")
                .0
        } else {
            let pick = self.rows[ridx]
                .pick_word(rng.next_u64())
                .expect("alias returned an r with zero range count");
            debug_assert!(pick.part < NUM_CELLS, "a base row has no extra part");
            let slot = self
                .s_cells
                .grid()
                .neighbor_slot(rp, pick.part)
                .expect("positive cell weight for an empty cell");
            match case_of(pick.part) {
                CellCase::Quadrant { x_is_min, y_is_min } => {
                    let q = open_quadrant(&quadrant_query(x_is_min, y_is_min, &w));
                    self.s_cells
                        .nth_in_cell(slot, &q, pick.rank as usize)
                        .expect("rank below the stored corner count")
                }
                case => case12_draw(self.s_cells.store(), slot, case, &pick, &w),
            }
        };
        debug_assert!(
            w.contains(self.s_cells.grid().point(sid)),
            "KDS sample escaped the window"
        );
        stats.samples += 1;
        Ok(Some(JoinPair::new(ridx as u32, sid)))
    }

    fn total_weight(&self) -> f64 {
        self.mu_total()
    }

    fn index_build_report(&self) -> PhaseReport {
        self.build_report
    }

    fn index_bytes(&self) -> IndexBytes {
        IndexBytes {
            r_points: self.r.memory_bytes(),
            // The stray list stands in for rows it overrides.
            rows: self.rows.capacity() * std::mem::size_of::<BlockRow>()
                + self.stray.capacity() * std::mem::size_of::<u32>(),
            alias: self.alias.as_ref().map_or(0, AliasTable::memory_bytes),
            ..self.s_cells.store().index_bytes()
        }
    }
}

/// Cheap per-thread query state over a shared [`KdsIndex`]: its
/// sampling-phase statistics (see [`Cursor`]).
pub type KdsCursor = Cursor<KdsIndex>;

/// Baseline 1 — **KDS** — as a self-contained single-threaded sampler:
/// a [`KdsCursor`] over an index nobody else holds
/// ([`Cursor::index`] hands it to further cursors).
pub type KdsSampler = Cursor<KdsIndex>;

impl Cursor<KdsIndex> {
    /// Builds the index and a cursor over it.
    pub fn build(r: &[Point], s: &[Point], config: &SampleConfig) -> Self {
        Cursor::new(Arc::new(KdsIndex::build(r, s, config)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JoinSampler;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
    fn samples_are_genuine_join_pairs() {
        let r = pseudo_points(80, 1, 50.0);
        let s = pseudo_points(120, 2, 50.0);
        let cfg = SampleConfig::new(6.0);
        let mut sampler = KdsSampler::build(&r, &s, &cfg);
        let mut rng = SmallRng::seed_from_u64(3);
        let samples = sampler.sample(500, &mut rng).unwrap();
        assert_eq!(samples.len(), 500);
        for p in samples {
            let w = Rect::window(r[p.r as usize], 6.0);
            assert!(w.contains(s[p.s as usize]));
        }
        // KDS never rejects
        assert_eq!(sampler.report().iterations, sampler.report().samples);
    }

    #[test]
    fn join_size_matches_brute_force() {
        let r = pseudo_points(40, 5, 30.0);
        let s = pseudo_points(60, 6, 30.0);
        let cfg = SampleConfig::new(4.0);
        let sampler = KdsSampler::build(&r, &s, &cfg);
        let brute = srj_join::nested_loop_join(&r, &s, 4.0).len() as u64;
        assert_eq!(sampler.index().join_size(), brute);
    }

    #[test]
    fn empty_join_is_reported() {
        let r = vec![Point::new(0.0, 0.0)];
        let s = vec![Point::new(1000.0, 1000.0)];
        let cfg = SampleConfig::new(1.0);
        let mut sampler = KdsSampler::build(&r, &s, &cfg);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(sampler.sample_one(&mut rng), Err(SampleError::EmptyJoin));
        assert_eq!(sampler.index().join_size(), 0);
    }

    #[test]
    fn empty_inputs() {
        let cfg = SampleConfig::new(1.0);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut a = KdsSampler::build(&[], &pseudo_points(10, 1, 10.0), &cfg);
        assert_eq!(a.sample_one(&mut rng), Err(SampleError::EmptyJoin));
        let mut b = KdsSampler::build(&pseudo_points(10, 1, 10.0), &[], &cfg);
        assert_eq!(b.sample_one(&mut rng), Err(SampleError::EmptyJoin));
    }

    #[test]
    fn phase_report_populated() {
        let r = pseudo_points(50, 9, 20.0);
        let s = pseudo_points(50, 10, 20.0);
        let cfg = SampleConfig::new(3.0);
        let mut sampler = KdsSampler::build(&r, &s, &cfg);
        let mut rng = SmallRng::seed_from_u64(4);
        let _ = sampler.sample(100, &mut rng).unwrap();
        let rep = sampler.report();
        assert_eq!(rep.samples, 100);
        assert_eq!(rep.grid_mapping, std::time::Duration::ZERO); // KDS has no GM
        assert!(rep.total() >= rep.sampling);
        assert!(sampler.memory_bytes() > 0);
    }

    #[test]
    fn two_cursors_share_one_index() {
        let r = pseudo_points(60, 21, 40.0);
        let s = pseudo_points(90, 22, 40.0);
        let index = Arc::new(KdsIndex::build(&r, &s, &SampleConfig::new(5.0)));
        let mut a = KdsCursor::new(Arc::clone(&index));
        let mut b = KdsCursor::new(Arc::clone(&index));
        let mut rng_a = SmallRng::seed_from_u64(7);
        let mut rng_b = SmallRng::seed_from_u64(7);
        // identical seeds over the same index ⇒ identical streams
        let pa = a.sample(50, &mut rng_a).unwrap();
        let pb = b.sample(50, &mut rng_b).unwrap();
        assert_eq!(pa, pb);
        // per-cursor stats are independent
        assert_eq!(a.report().samples, 50);
        assert_eq!(b.report().samples, 50);
        // both cursors carry the index's build phases
        assert_eq!(a.report().preprocessing, index.build_report().preprocessing);
    }
}
