use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, RngCore};
use srj_alias::{AliasTable, CumulativeRow9};
use srj_geom::{Point, PointId, Rect};
use srj_grid::{case_of, CellCase, Grid};
use srj_kdtree::{CanonicalScratch, KdTree};

use crate::config::{JoinPair, PhaseReport, SampleConfig, SampleError};
use crate::cursor::{Cursor, SamplerIndex};
use crate::decompose::{case12_stored_run, quadrant_query, quadrant_rect, upper_bounding};
use crate::traits::JoinSampler;

/// Immutable build product of the Fig. 9 ablation: Algorithm 1's
/// pipeline with **a per-cell kd-tree instead of the two BBSTs** for the
/// case-3 corner cells ("this variant used KDS" for corner sampling).
///
/// Case-3 counts become exact (kd-tree range counting of the clipped
/// quadrant rectangle) and corner draws never produce dud slots, but
/// each corner count costs `O(√N)` instead of `Õ(1)` and each corner
/// draw costs `O(√N)` — which is precisely the gap the paper's Fig. 9
/// measures (BBST is "up to 12 times faster").
///
/// `Send + Sync`; share via [`Arc`] with one
/// [`BbstKdVariantCursor`] per thread.
pub struct BbstKdVariantIndex {
    r_points: Vec<Point>,
    grid: Grid,
    /// Per-cell kd-trees, parallel to `grid.cells()`; point ids are
    /// positions in the cell's `by_x` array.
    cell_trees: Vec<KdTree>,
    rows: Vec<CumulativeRow9>,
    alias: Option<AliasTable>,
    config: SampleConfig,
    build_report: PhaseReport,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BbstKdVariantIndex>();
};

impl BbstKdVariantIndex {
    /// Builds the variant (same phase structure as
    /// [`crate::BbstIndex::build`]).
    pub fn build(r: &[Point], s: &[Point], config: &SampleConfig) -> Self {
        let t0 = Instant::now();
        let mut x_order: Vec<PointId> = (0..s.len() as u32).collect();
        x_order.sort_unstable_by(|&a, &b| s[a as usize].x.total_cmp(&s[b as usize].x));
        let preprocessing = t0.elapsed();

        let t1 = Instant::now();
        let grid = Grid::build_from_sorted(s, &x_order, config.half_extent);
        drop(x_order);
        let cell_trees: Vec<KdTree> = grid
            .cells()
            .iter()
            .map(|c| {
                let pts: Vec<Point> = c.by_x.iter().map(|&id| grid.point(id)).collect();
                KdTree::build(&pts)
            })
            .collect();
        let grid_mapping = t1.elapsed();

        // Phase 2 is the BBST algorithm's cell-major pass, with the
        // corner count answered exactly by the cell's kd-tree.
        let ub = upper_bounding(
            &grid,
            r,
            config.half_extent,
            config.build_threads,
            None,
            |slot, q| {
                let rect = quadrant_rect(q, &grid.cell(slot).rect);
                cell_trees[slot as usize].range_count(&rect) as u64
            },
        );
        BbstKdVariantIndex {
            r_points: r.to_vec(),
            grid,
            cell_trees,
            rows: ub.rows,
            alias: ub.alias,
            config: *config,
            build_report: PhaseReport {
                preprocessing,
                grid_mapping,
                upper_bounding: ub.wall,
                upper_bounding_cpu: ub.cpu,
                ..PhaseReport::default()
            },
        }
    }

    /// Sum of the per-`r` bounds — exact here, so `mu_total == |J|`.
    pub fn mu_total(&self) -> f64 {
        self.alias.as_ref().map_or(0.0, AliasTable::total_weight)
    }

    /// Build-phase timing (preprocessing + GM + UB).
    pub fn build_report(&self) -> PhaseReport {
        self.build_report
    }

    /// Approximate heap footprint of the retained structures.
    pub fn memory_bytes(&self) -> usize {
        self.r_points.capacity() * std::mem::size_of::<Point>()
            + self.grid.memory_bytes()
            + self
                .cell_trees
                .iter()
                .map(KdTree::memory_bytes)
                .sum::<usize>()
            + self.rows.capacity() * std::mem::size_of::<CumulativeRow9>()
            + self.alias.as_ref().map_or(0, AliasTable::memory_bytes)
    }

    /// One uniform draw against the immutable index (`&self`; safe from
    /// many threads). The variant's bounds are exact, so a draw never
    /// rejects.
    fn draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut CanonicalScratch,
        stats: &mut PhaseReport,
    ) -> Result<JoinPair, SampleError> {
        let alias = self.alias.as_ref().ok_or(SampleError::EmptyJoin)?;
        stats.iterations += 1;
        let ridx = alias.sample(rng);
        let rp = self.r_points[ridx];
        let w = Rect::window(rp, self.config.half_extent);
        let picked = self.rows[ridx]
            .pick_word(rng.next_u64())
            .expect("alias returned r with zero µ(r)");
        let slot = self
            .grid
            .neighbor_slot(rp, picked.cell)
            .expect("positive cell weight for an empty cell");
        let cell = self.grid.cell(slot);
        let sid = match case_of(picked.cell) {
            CellCase::Quadrant { x_is_min, y_is_min } => {
                let q = quadrant_query(x_is_min, y_is_min, &w);
                let rect = quadrant_rect(&q, &cell.rect);
                let (pos, _count) = self.cell_trees[slot as usize]
                    .sample_in_range(&rect, rng, scratch)
                    .expect("positive exact count for an empty quadrant");
                cell.by_x[pos as usize]
            }
            // The stored row weight is the exact run's length, and the
            // pick already ranked into it.
            case => case12_stored_run(cell, case, picked.weight as usize)
                .expect("non-corner case must yield a run")[picked.rank as usize],
        };
        debug_assert!(
            w.contains(self.grid.point(sid)),
            "variant sample escaped the window"
        );
        stats.samples += 1;
        Ok(JoinPair::new(ridx as u32, sid))
    }
}

impl SamplerIndex for BbstKdVariantIndex {
    type Scratch = CanonicalScratch;

    fn algorithm_name(&self) -> &'static str {
        "BBST-kd-variant"
    }

    fn try_draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut CanonicalScratch,
        stats: &mut PhaseReport,
    ) -> Result<Option<JoinPair>, SampleError> {
        self.draw(rng, scratch, stats).map(Some)
    }

    fn total_weight(&self) -> f64 {
        self.mu_total()
    }

    fn index_build_report(&self) -> PhaseReport {
        self.build_report
    }

    fn index_memory_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

/// Cheap per-thread query state over a shared [`BbstKdVariantIndex`]
/// (see [`Cursor`]).
pub type BbstKdVariantCursor = Cursor<BbstKdVariantIndex>;

/// The Fig. 9 ablation as a self-contained single-threaded sampler
/// (owned index + one cursor), preserving the pre-split API.
pub struct BbstKdVariantSampler {
    cursor: BbstKdVariantCursor,
}

impl BbstKdVariantSampler {
    /// Builds the index and attaches a private cursor.
    pub fn build(r: &[Point], s: &[Point], config: &SampleConfig) -> Self {
        BbstKdVariantSampler {
            cursor: BbstKdVariantCursor::new(Arc::new(BbstKdVariantIndex::build(r, s, config))),
        }
    }

    /// Sum of the per-`r` bounds — exact here, so `mu_total == |J|`.
    pub fn mu_total(&self) -> f64 {
        self.cursor.index().mu_total()
    }

    /// The shared index, for handing to additional cursors.
    pub fn index(&self) -> &Arc<BbstKdVariantIndex> {
        self.cursor.index()
    }
}

impl JoinSampler for BbstKdVariantSampler {
    fn name(&self) -> &'static str {
        self.cursor.name()
    }

    fn sample_one(&mut self, rng: &mut dyn RngCore) -> Result<JoinPair, SampleError> {
        self.cursor.sample_one(rng)
    }

    fn sample(&mut self, t: usize, rng: &mut dyn RngCore) -> Result<Vec<JoinPair>, SampleError> {
        self.cursor.sample(t, rng)
    }

    fn report(&self) -> PhaseReport {
        self.cursor.report()
    }

    fn memory_bytes(&self) -> usize {
        self.cursor.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(sampler.mu_total(), brute);
        // Exact per r too: every row sums to its window's population.
        for (&rp, row) in r.iter().zip(&sampler.index().rows) {
            let w = Rect::window(rp, 4.0);
            let exact = s.iter().filter(|p| w.contains(**p)).count() as u64;
            assert_eq!(row.total(), exact, "r {rp:?}");
        }
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
