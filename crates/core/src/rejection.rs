use std::sync::Arc;
use std::time::Instant;

use crate::cellstore::KdCellStore;
use crate::config::{JoinPair, PhaseReport, SampleConfig, SampleError};
use crate::cursor::{Cursor, IndexBytes, SamplerIndex};
use crate::parallel::par_chunks;
use rand::Rng;
use srj_alias::AliasTable;
use srj_geom::{Point, Rect};
use srj_grid::{Grid, IntoPointSet, PointSet};
use srj_kdtree::CanonicalScratch;

/// Immutable build product of Baseline 2 — **KDS-rejection** (paper
/// Section III-B).
///
/// Replaces KDS's `O(n√m)` exact counting with `O(1)`-per-point upper
/// bounds from a grid: `µ(r)` = total population of the ≤ 9 cells
/// overlapping `w(r)`. The alias then over-weights each `r` by
/// `µ(r)/|S(w(r))|`, which rejection sampling corrects: a drawn pair is
/// accepted with probability `|S(w(r))| / µ(r)`.
///
/// The bound has **no approximation guarantee** (all nine cells may be
/// almost entirely outside the window), so the expected iteration count
/// `Σµ/|J|` can be large — the drawback the proposed algorithm fixes.
///
/// `Send + Sync`, never mutated after build; share it via [`Arc`] and
/// give each thread its own [`KdsRejectionCursor`].
///
/// Expected `O(n + m + n·m^1.5·t/|J|)` time, `O(n + m)` space.
pub struct KdsRejectionIndex {
    /// `R`, shared with every other index built on the same set.
    r: Arc<PointSet>,
    /// The `S`-side — the grid (for the 9-cell bounds) plus per-cell
    /// kd-trees (for the in-window draws) behind one cell-granular
    /// [`KdCellStore`] — `Arc`-held so that rebuilds over a new `R`
    /// stand on one copy (see [`KdsRejectionIndex::build_shared`]), and
    /// an epoch engine can patch it cell by cell.
    s_cells: Arc<KdCellStore>,
    /// Per-`r` upper bounds `µ(r)` (the alias weights).
    mu: Vec<f64>,
    alias: Option<AliasTable>,
    config: SampleConfig,
    build_report: PhaseReport,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KdsRejectionIndex>();
};

impl KdsRejectionIndex {
    /// Runs the build phases: the sorts of `S` when this build ran them
    /// and the per-cell kd-trees (pre-processing), the grid (GM), the
    /// bounds and the alias (UB). `s` is a slice, copied, or an
    /// `Arc<PointSet>`, shared; so is `r`.
    pub fn build(r: impl IntoPointSet, s: impl IntoPointSet, config: &SampleConfig) -> Self {
        let s = s.into_point_set();
        let sorts = s.ensure_orders();
        let t1 = Instant::now();
        let grid = Arc::new(Grid::build(s, config.half_extent));
        let grid_mapping = t1.elapsed();
        let t0 = Instant::now();
        let s_cells = Arc::new(KdCellStore::from_grid(grid, config.build_threads));
        let preprocessing = sorts + t0.elapsed();
        Self::build_inner(
            r.into_point_set(),
            s_cells,
            config,
            preprocessing,
            grid_mapping,
        )
    }

    /// Like [`KdsRejectionIndex::build`], but over an already-built
    /// `S`-side (e.g. [`KdCellStore::from_grid`], or a
    /// [`KdCellStore::patch`] of one) that several indexes may share.
    /// Its build time is charged to whoever built it, so this index's
    /// report records zero preprocessing / grid-mapping.
    ///
    /// # Panics
    /// Panics if the store's cell side differs from
    /// `config.half_extent`.
    pub fn build_shared(
        r: impl IntoPointSet,
        s_cells: Arc<KdCellStore>,
        config: &SampleConfig,
    ) -> Self {
        let zero = std::time::Duration::ZERO;
        Self::build_inner(r.into_point_set(), s_cells, config, zero, zero)
    }

    fn build_inner(
        r: Arc<PointSet>,
        s_cells: Arc<KdCellStore>,
        config: &SampleConfig,
        preprocessing: std::time::Duration,
        grid_mapping: std::time::Duration,
    ) -> Self {
        assert!(
            s_cells.grid().cell_side().to_bits() == config.half_extent.to_bits(),
            "grid cell side ({}) must equal the window half-extent ({})",
            s_cells.grid().cell_side(),
            config.half_extent
        );

        let t2 = Instant::now();
        let grid = s_cells.grid();
        // µ(r) is a property of r's cell: one block population per
        // group of R, handed to every member.
        let (mu, par) = par_chunks(&r, config.build_threads, |_, chunk| {
            let mut mu = vec![0.0; chunk.len()];
            for members in grid.group_by_cell(chunk).iter() {
                let population = grid.neighborhood_population(chunk[members[0] as usize]) as f64;
                for &m in members {
                    mu[m as usize] = population;
                }
            }
            mu
        });
        let alias = AliasTable::new(&mu);
        let upper_bounding = t2.elapsed();
        let upper_bounding_cpu = par.cpu + upper_bounding.saturating_sub(par.wall);

        KdsRejectionIndex {
            r,
            s_cells,
            mu,
            alias,
            config: *config,
            build_report: PhaseReport {
                preprocessing,
                grid_mapping,
                upper_bounding,
                upper_bounding_cpu,
                ..PhaseReport::default()
            },
        }
    }

    /// The `R` the index draws from: the set it was built on, shared.
    pub fn r_set(&self) -> &Arc<PointSet> {
        &self.r
    }

    /// The `Arc`-shared `S`-side (grid + per-cell kd-trees), for
    /// rebuilding an index over a mutated `R` without re-paying the
    /// `S`-side build, or for patching cell by cell when `S` mutated
    /// (epoch-based rebuilds hand this — or its [`KdCellStore::patch`]
    /// — straight back to [`KdsRejectionIndex::build_shared`]).
    pub fn s_structures(&self) -> Arc<KdCellStore> {
        Arc::clone(&self.s_cells)
    }

    /// Sum of the upper bounds `Σ_r µ(r)` (the rejection-rate
    /// denominator: expected iterations per sample is `Σµ / |J|`).
    pub fn mu_total(&self) -> f64 {
        self.alias.as_ref().map_or(0.0, AliasTable::total_weight)
    }

    /// Upper bound `µ(r)` for one query point.
    pub fn mu_of(&self, ridx: usize) -> f64 {
        self.mu[ridx]
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &SampleConfig {
        &self.config
    }

    /// Build-phase timing (preprocessing + GM + UB).
    pub fn build_report(&self) -> PhaseReport {
        self.build_report
    }

    /// Approximate heap footprint of the retained structures.
    pub fn memory_bytes(&self) -> usize {
        self.index_bytes().total()
    }
}

impl SamplerIndex for KdsRejectionIndex {
    type Scratch = ();

    fn algorithm_name(&self) -> &'static str {
        "KDS-rejection"
    }

    /// One rejection-sampling iteration: draw `r ∝ µ(r)`, draw a point
    /// of `S ∩ w(r)`, accept with probability `|S(w(r))| / µ(r)`.
    fn try_draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        _scratch: &mut (),
        stats: &mut PhaseReport,
    ) -> Result<Option<JoinPair>, SampleError> {
        let alias = self.alias.as_ref().ok_or(SampleError::EmptyJoin)?;
        stats.iterations += 1;
        let ridx = alias.sample(rng);
        let w = Rect::window(self.r[ridx], self.config.half_extent);
        // µ(r) > 0 does not imply the window is non-empty: the nine
        // cells may hold points only outside w(r).
        let drawn = self
            .s_cells
            .sample_in_window(&w, rng, &mut CanonicalScratch);
        if let Some((sid, count)) = drawn {
            // Accept with probability |S(w(r))| / µ(r).
            if rng.gen::<f64>() * self.mu[ridx] < count as f64 {
                stats.samples += 1;
                return Ok(Some(JoinPair::new(ridx as u32, sid)));
            }
        }
        Ok(None)
    }

    fn rejection_limit(&self) -> u64 {
        self.config.max_consecutive_rejections
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
            rows: self.mu.capacity() * std::mem::size_of::<f64>(),
            alias: self.alias.as_ref().map_or(0, AliasTable::memory_bytes),
            ..self.s_cells.store().index_bytes()
        }
    }
}

/// Cheap per-thread query state over a shared [`KdsRejectionIndex`]
/// (see [`Cursor`]).
pub type KdsRejectionCursor = Cursor<KdsRejectionIndex>;

/// Baseline 2 — **KDS-rejection** — as a self-contained single-threaded
/// sampler: a [`KdsRejectionCursor`] over an index nobody else holds.
pub type KdsRejectionSampler = Cursor<KdsRejectionIndex>;

impl Cursor<KdsRejectionIndex> {
    /// Builds the index and a cursor over it.
    pub fn build(r: &[Point], s: &[Point], config: &SampleConfig) -> Self {
        Cursor::new(Arc::new(KdsRejectionIndex::build(r, s, config)))
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
    fn samples_are_genuine_join_pairs_and_rejections_happen() {
        let r = pseudo_points(70, 11, 60.0);
        let s = pseudo_points(130, 12, 60.0);
        let cfg = SampleConfig::new(5.0);
        let mut sampler = KdsRejectionSampler::build(&r, &s, &cfg);
        let mut rng = SmallRng::seed_from_u64(13);
        let samples = sampler.sample(400, &mut rng).unwrap();
        for p in &samples {
            let w = Rect::window(r[p.r as usize], 5.0);
            assert!(w.contains(s[p.s as usize]));
        }
        let rep = sampler.report();
        assert_eq!(rep.samples, 400);
        // the 9-cell bound is loose: rejections are all but certain here
        assert!(
            rep.iterations > rep.samples,
            "expected at least one rejection"
        );
    }

    #[test]
    fn mu_dominates_exact_count() {
        // 300 r over 100 cells: most groups of R have several members,
        // and some cells of R hold no s.
        let r = pseudo_points(300, 21, 40.0);
        let s = pseudo_points(80, 22, 40.0);
        let cfg = SampleConfig::new(4.0);
        let sampler = KdsRejectionSampler::build(&r, &s, &cfg);
        let index = sampler.index();
        let grid = index.s_cells.grid();
        for (i, &rp) in r.iter().enumerate() {
            // The per-group bound is the per-r bound.
            assert_eq!(index.mu_of(i), grid.neighborhood_population(rp) as f64);
            let w = Rect::window(rp, 4.0);
            let exact = s.iter().filter(|p| w.contains(**p)).count() as f64;
            assert!(
                index.mu_of(i) >= exact,
                "r{i}: µ {} < exact {exact}",
                index.mu_of(i)
            );
        }
        let brute = srj_join::nested_loop_join(&r, &s, 4.0).len() as f64;
        assert!(sampler.index().mu_total() >= brute);
    }

    #[test]
    fn empty_join_with_nearby_points_trips_safety_valve() {
        // S point in a neighbouring cell but outside every window:
        // µ > 0 yet |J| = 0 ⇒ the safety valve must fire.
        let r = vec![Point::new(10.0, 10.0)];
        let s = vec![Point::new(13.5, 13.5)]; // within the 3×3 block for l = 2
        let cfg = SampleConfig::new(2.0).with_rejection_limit(5_000);
        let mut sampler = KdsRejectionSampler::build(&r, &s, &cfg);
        assert!(sampler.index().mu_total() > 0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            sampler.sample_one(&mut rng),
            Err(SampleError::RejectionLimit)
        );
    }

    #[test]
    fn truly_empty_join() {
        let r = vec![Point::new(0.0, 0.0)];
        let s = vec![Point::new(500.0, 500.0)];
        let cfg = SampleConfig::new(1.0);
        let mut sampler = KdsRejectionSampler::build(&r, &s, &cfg);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(sampler.sample_one(&mut rng), Err(SampleError::EmptyJoin));
    }

    #[test]
    fn cursors_over_shared_index_are_reproducible() {
        let r = pseudo_points(40, 31, 30.0);
        let s = pseudo_points(70, 32, 30.0);
        let index = Arc::new(KdsRejectionIndex::build(&r, &s, &SampleConfig::new(4.0)));
        let mut a = KdsRejectionCursor::new(Arc::clone(&index));
        let mut b = KdsRejectionCursor::new(Arc::clone(&index));
        let mut rng_a = SmallRng::seed_from_u64(99);
        let mut rng_b = SmallRng::seed_from_u64(99);
        assert_eq!(
            a.sample(30, &mut rng_a).unwrap(),
            b.sample(30, &mut rng_b).unwrap()
        );
    }
}
