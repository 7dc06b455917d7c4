//! `R`-sharded indexes: partition `R`, build per-shard indexes in
//! parallel, serve through a top-level alias over per-shard `Σµ`.
//!
//! Weights are per-`r` in every algorithm (`µ(r)` depends only on `r`
//! and the immutable `S`-side structures), so partitioning `R` into `k`
//! contiguous shards decomposes the total weight exactly:
//! `Σµ = Σ_i Σµ_i`. A [`ShardedIndex`] exploits that twice:
//!
//! * **Build**: the `k` shard indexes are independent, so they build
//!   concurrently on [`srj_core::SampleConfig::build_threads`] threads
//!   (each shard's own inner build loop stays serial to avoid
//!   oversubscription).
//! * **Serve**: a draw picks a shard `∝ Σµ_i` from a top-level
//!   [`AliasTable`], then runs **one** iteration of that shard's
//!   sampler. Per iteration the candidate pair is `(r, s)` with
//!   probability `(Σµ_i/Σµ) · (µ(r)/Σµ_i) · …  = µ(r)/Σµ` — exactly the
//!   unsharded per-iteration distribution, so accepted samples stay
//!   uniform over `J` (Theorem 3's argument is shard-oblivious).
//!
//! The one subtlety is rejection: the shard must be **re-picked on
//! every iteration** (this is why [`SamplerIndex::try_draw`] exists).
//! Looping to acceptance inside one shard would instead emit pairs with
//! probability `(Σµ_i/Σµ) · (1/|J_i|)`, biasing toward shards with
//! looser bounds.
//!
//! A `ShardedIndex<I>` implements [`SamplerIndex`] itself, so the
//! ordinary [`srj_core::Cursor`] drives it: any number of threads get
//! their own cursor over one shared sharded index with zero
//! synchronisation — `k` serving threads over `k` shards contend on
//! nothing.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rand::Rng;
use srj_alias::AliasTable;
use srj_core::parallel::par_map;
use srj_core::{
    BufferStats, IndexBytes, JoinPair, PhaseReport, SampleConfig, SampleError, SamplerIndex,
};
use srj_geom::Point;

/// Balanced contiguous partition of `R` into `k` shards — the same
/// chunking rule the parallel build uses
/// ([`srj_core::parallel::chunk_bounds`]), so shard layout and build
/// chunking can never drift apart.
pub fn shard_bounds(n: usize, k: usize) -> Vec<(usize, usize)> {
    srj_core::parallel::chunk_bounds(n, k)
}

/// An `R`-sharded wrapper around any [`SamplerIndex`]: `k ≥ 1` per-shard
/// indexes plus, for `k > 1`, a top-level alias over per-shard total
/// weights. See the module docs for the sampling argument.
///
/// With one shard the wrapper is observationally that shard: no word is
/// spent on a pick, blocks go to the shard's own
/// [`SamplerIndex::try_many`], and the build report keeps the shard's
/// phases — so the engine holds every index in this one shape.
pub struct ShardedIndex<I: SamplerIndex> {
    shards: Vec<Arc<I>>,
    /// Global `R` offset of each shard (shard-local `r` ids are
    /// re-based by this on every accepted draw).
    offsets: Vec<u32>,
    /// Top-level alias over `Σµ_i`; `None` for a lone shard and when
    /// every shard is empty (shard 0 then answers `EmptyJoin`).
    alias: Option<AliasTable>,
    build_report: PhaseReport,
    /// [`SamplerIndex::index_bytes`], computed on first use.
    bytes: OnceLock<IndexBytes>,
}

impl<I: SamplerIndex> ShardedIndex<I> {
    /// Partitions `r` into (up to) `num_shards` contiguous shards and
    /// builds every shard index with `build_shard`, running the shard
    /// builds on [`SampleConfig::build_threads`] threads.
    ///
    /// `build_shard` receives one shard's slice of `R` and must build
    /// an index over it against the full `S`, with `build_threads = 1`
    /// when there are several (the parallelism budget is spent across
    /// shards here; a nested parallel build would oversubscribe the
    /// cores).
    ///
    /// The aggregated [`PhaseReport`] of several shards collapses the
    /// per-shard phase decomposition: `upper_bounding` holds the
    /// **wall-clock** of the whole parallel shard-build and
    /// `upper_bounding_cpu` the summed per-shard build totals, so
    /// `cpu / wall` is the achieved build speedup.
    pub fn build<F>(r: &[Point], config: &SampleConfig, num_shards: usize, build_shard: F) -> Self
    where
        F: Fn(&[Point]) -> I + Sync,
    {
        Self::build_with_base(r, config, num_shards, PhaseReport::default(), build_shard)
    }

    /// Like [`ShardedIndex::build`], but folds `base` — the phase
    /// report of work the caller did up front, e.g. building the
    /// `Arc`-shared `S`-side structures every shard reuses — into the
    /// aggregated report, so the build accounting still covers the
    /// whole build even though the shared part happened outside this
    /// call.
    pub fn build_with_base<F>(
        r: &[Point],
        config: &SampleConfig,
        num_shards: usize,
        base: PhaseReport,
        build_shard: F,
    ) -> Self
    where
        F: Fn(&[Point]) -> I + Sync,
    {
        let bounds = shard_bounds(r.len(), num_shards);
        let t0 = Instant::now();
        let (shards, par) = par_map(&bounds, config.build_threads, |_, &(lo, hi)| {
            Arc::new(build_shard(&r[lo..hi]))
        });
        let wall = t0.elapsed();

        let own = match shards.as_slice() {
            [only] => only.index_build_report(),
            _ => {
                let cpu: std::time::Duration = shards
                    .iter()
                    .map(|s| {
                        let rep = s.index_build_report();
                        rep.preprocessing + rep.grid_mapping + rep.upper_bounding_cpu
                    })
                    .sum();
                // `par.cpu` only counts time inside the map; per-shard
                // reports are finer-grained, so prefer them but never
                // report less CPU than the map actually measured.
                PhaseReport {
                    upper_bounding: wall,
                    upper_bounding_cpu: cpu.max(par.cpu),
                    ..PhaseReport::default()
                }
            }
        };
        let build_report = PhaseReport {
            preprocessing: base.preprocessing + own.preprocessing,
            grid_mapping: base.grid_mapping + own.grid_mapping,
            upper_bounding: base.upper_bounding + own.upper_bounding,
            upper_bounding_cpu: base.upper_bounding_cpu + own.upper_bounding_cpu,
            ..PhaseReport::default()
        };
        let alias = match shards.as_slice() {
            [_] => None,
            _ => {
                let weights: Vec<f64> = shards.iter().map(|s| s.total_weight()).collect();
                AliasTable::new(&weights)
            }
        };
        ShardedIndex {
            shards,
            offsets: bounds.iter().map(|&(lo, _)| lo as u32).collect(),
            alias,
            build_report,
            bytes: OnceLock::new(),
        }
    }

    /// Number of shards (≥ 1; a build over empty `R` keeps one empty
    /// shard so the index still answers `EmptyJoin`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's index (for per-shard inspection or pinned serving).
    pub fn shard(&self, i: usize) -> &Arc<I> {
        &self.shards[i]
    }

    /// Global `R` offset of shard `i`.
    pub fn shard_offset(&self, i: usize) -> u32 {
        self.offsets[i]
    }

    /// Sum of the upper bounds `Σµ = Σ_i Σµ_i` across all shards.
    pub fn mu_total(&self) -> f64 {
        // Without an alias shard 0 holds all the weight there is.
        self.alias
            .as_ref()
            .map_or_else(|| self.shards[0].total_weight(), AliasTable::total_weight)
    }
}

impl<I: SamplerIndex> SamplerIndex for ShardedIndex<I> {
    type Scratch = I::Scratch;

    fn algorithm_name(&self) -> &'static str {
        // All shards run the same algorithm; shards is never empty.
        self.shards[0].algorithm_name()
    }

    /// One iteration: shard `∝ Σµ_i`, then one iteration of that
    /// shard's sampler, with the accepted `r` re-based to its global
    /// index.
    fn try_draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut Self::Scratch,
        stats: &mut PhaseReport,
    ) -> Result<Option<JoinPair>, SampleError> {
        let si = self.alias.as_ref().map_or(0, |alias| alias.sample(rng));
        // The shard's own try_draw does the iteration/sample accounting
        // and reports an empty join.
        Ok(self.shards[si]
            .try_draw(rng, scratch, stats)?
            .map(|p| JoinPair::new(p.r + self.offsets[si], p.s)))
    }

    /// A lone shard runs the block its own way (BBST's staged kernel);
    /// several shards re-pick per iteration.
    fn try_many<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
        scratch: &mut Self::Scratch,
        stats: &mut PhaseReport,
        out: &mut Vec<Option<JoinPair>>,
    ) -> Result<(), SampleError> {
        if let [only] = self.shards.as_slice() {
            return only.try_many(n, rng, scratch, stats, out);
        }
        for _ in 0..n {
            out.push(self.try_draw(rng, scratch, stats)?);
        }
        Ok(())
    }

    fn rejection_limit(&self) -> u64 {
        // One build config for every shard.
        self.shards[0].rejection_limit()
    }

    fn total_weight(&self) -> f64 {
        self.mu_total()
    }

    fn set_buffers(scratch: &mut Self::Scratch, enabled: bool) {
        // One shared scratch serves every shard, and all shards draw
        // from the one shared S-side, so the buffers are shard-blind.
        I::set_buffers(scratch, enabled);
    }

    fn seed_buffers(scratch: &mut Self::Scratch, seed: u64) {
        I::seed_buffers(scratch, seed);
    }

    fn drain_buffer_stats(scratch: &mut Self::Scratch) -> BufferStats {
        I::drain_buffer_stats(scratch)
    }

    fn index_build_report(&self) -> PhaseReport {
        self.build_report
    }

    /// Walks every shard once and keeps the answer: the index never
    /// changes, and the server asks at every metrics scrape.
    fn index_bytes(&self) -> IndexBytes {
        *self.bytes.get_or_init(|| {
            // Shards built over Arc-shared S-side structures (one
            // kd-tree / grid / BBST set for all of them) report the same
            // non-zero shared-memory token; count that allocation once,
            // not per shard.
            let mut seen_tokens: Vec<usize> = Vec::new();
            self.shards.iter().fold(IndexBytes::default(), |sum, s| {
                let token = s.shared_memory_token();
                if token != 0 && seen_tokens.contains(&token) {
                    sum + s.index_bytes().without_s_side()
                } else {
                    if token != 0 {
                        seen_tokens.push(token);
                    }
                    sum + s.index_bytes()
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use srj_core::{BbstIndex, Cursor, JoinSampler, KdsIndex, KdsRejectionIndex};
    use srj_geom::Rect;

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
    fn bounds_are_balanced_and_exhaustive() {
        for (n, k) in [(10, 3), (9, 3), (1, 4), (0, 2), (100, 1), (7, 7)] {
            let b = shard_bounds(n, k);
            assert_eq!(b.first().unwrap().0, 0);
            assert_eq!(b.last().unwrap().1, n);
            for w in b.windows(2) {
                assert_eq!(w[0].1, w[1].0, "gap in bounds for n={n} k={k}");
            }
            let sizes: Vec<usize> = b.iter().map(|(lo, hi)| hi - lo).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced: {sizes:?}");
        }
    }

    #[test]
    fn sharded_total_weight_decomposes_exactly() {
        let r = pseudo_points(200, 1, 60.0);
        let s = pseudo_points(300, 2, 60.0);
        let cfg = SampleConfig::new(5.0);
        let whole = BbstIndex::build(&r, &s, &cfg);
        for k in [1, 2, 3, 5] {
            let sharded =
                ShardedIndex::build(&r, &cfg, k, |chunk| BbstIndex::build(chunk, &s, &cfg));
            assert_eq!(sharded.shard_count(), k);
            // Σµ is a per-r sum, so sharding must preserve it exactly up
            // to f64 summation order.
            let rel = (sharded.mu_total() - whole.mu_total()).abs() / whole.mu_total();
            assert!(
                rel < 1e-9,
                "k={k}: Σµ {} vs {}",
                sharded.mu_total(),
                whole.mu_total()
            );
        }
    }

    #[test]
    fn sharded_draws_are_genuine_and_globally_indexed() {
        let r = pseudo_points(150, 11, 50.0);
        let s = pseudo_points(250, 12, 50.0);
        let l = 5.0;
        let cfg = SampleConfig::new(l);
        let sharded = Arc::new(ShardedIndex::build(&r, &cfg, 4, |chunk| {
            KdsRejectionIndex::build(chunk, &s, &cfg)
        }));
        let mut cursor = Cursor::new(Arc::clone(&sharded));
        let mut rng = SmallRng::seed_from_u64(13);
        let pairs = cursor.sample(500, &mut rng).unwrap();
        for p in pairs {
            let w = Rect::window(r[p.r as usize], l);
            assert!(w.contains(s[p.s as usize]), "bad global remap: {p:?}");
        }
    }

    #[test]
    fn kds_shards_never_reject() {
        let r = pseudo_points(100, 21, 40.0);
        let s = pseudo_points(150, 22, 40.0);
        let cfg = SampleConfig::new(5.0);
        let sharded = Arc::new(ShardedIndex::build(&r, &cfg, 3, |chunk| {
            KdsIndex::build(chunk, &s, &cfg)
        }));
        let mut cursor = Cursor::new(sharded);
        let mut rng = SmallRng::seed_from_u64(3);
        cursor.sample(400, &mut rng).unwrap();
        let rep = cursor.report();
        assert_eq!(rep.iterations, rep.samples);
    }

    #[test]
    fn empty_r_yields_empty_join() {
        let s = pseudo_points(50, 31, 30.0);
        let cfg = SampleConfig::new(4.0);
        let sharded = Arc::new(ShardedIndex::build(&[], &cfg, 4, |chunk| {
            BbstIndex::build(chunk, &s, &cfg)
        }));
        assert_eq!(sharded.shard_count(), 1);
        let mut cursor = Cursor::new(sharded);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(cursor.sample_one(&mut rng), Err(SampleError::EmptyJoin));
    }

    #[test]
    fn more_shards_than_points_is_clamped() {
        let r = pseudo_points(3, 41, 20.0);
        let s = pseudo_points(40, 42, 20.0);
        let cfg = SampleConfig::new(8.0);
        let sharded = ShardedIndex::build(&r, &cfg, 16, |chunk| BbstIndex::build(chunk, &s, &cfg));
        assert_eq!(sharded.shard_count(), 3);
    }

    #[test]
    fn shared_s_side_is_counted_once_in_memory() {
        let r = pseudo_points(300, 61, 60.0);
        let s = pseudo_points(2_000, 62, 60.0);
        let cfg = SampleConfig::new(5.0);
        let k = 4;

        // Baseline: every shard builds (and is charged for) its own
        // S-side structures.
        let duplicated =
            ShardedIndex::build(&r, &cfg, k, |chunk| BbstIndex::build(chunk, &s, &cfg));

        // Shared: one S-side, Arc-cloned into every shard.
        let s_side = srj_core::BbstIndex::build_s_structures(&s, &cfg);
        let shared = ShardedIndex::build(&r, &cfg, k, |chunk| {
            BbstIndex::build_shared(chunk, &cfg, &s_side)
        });

        // Identical serving behaviour...
        assert_eq!(shared.mu_total(), duplicated.mu_total());
        let mut a = Cursor::new(Arc::new(shared));
        let mut b = Cursor::new(Arc::new(duplicated));
        let mut rng_a = SmallRng::seed_from_u64(7);
        let mut rng_b = SmallRng::seed_from_u64(7);
        assert_eq!(
            a.sample(200, &mut rng_a).unwrap(),
            b.sample(200, &mut rng_b).unwrap()
        );

        // ...but the shared build stops paying k× for the S-side: its
        // footprint must drop by at least (k−1)/k of one S-side copy
        // (the per-shard R-side remains).
        let shared_bytes = a.index().index_memory_bytes();
        let duplicated_bytes = b.index().index_memory_bytes();
        let one_s_side = s_side.memory_bytes();
        assert!(
            shared_bytes + (k - 1) * one_s_side <= duplicated_bytes,
            "shared {shared_bytes} vs duplicated {duplicated_bytes} (S-side {one_s_side}, k {k})"
        );
    }

    #[test]
    fn build_report_has_wall_and_cpu() {
        let r = pseudo_points(200, 51, 40.0);
        let s = pseudo_points(200, 52, 40.0);
        let cfg = SampleConfig::new(5.0);
        let sharded = ShardedIndex::build(&r, &cfg, 2, |chunk| BbstIndex::build(chunk, &s, &cfg));
        let rep = sharded.index_build_report();
        assert!(rep.upper_bounding > std::time::Duration::ZERO);
        assert!(rep.upper_bounding_cpu > std::time::Duration::ZERO);
    }
}
