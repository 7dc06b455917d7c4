//! The generic per-thread query cursor shared by every sampler.
//!
//! Each algorithm's immutable index implements [`SamplerIndex`]; the
//! one [`Cursor`] type supplies the timing-wrapped [`JoinSampler`]
//! implementation (single draws, batched draws, report assembly) so the
//! accounting logic exists exactly once instead of per algorithm.

use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, RngCore};
use srj_grid::Grid;

use crate::config::{JoinPair, PhaseReport, SampleError};
use crate::traits::JoinSampler;

/// Pre-allocation cap for batched draws: `t` is caller-controlled (and
/// remote-controlled through the network front-end); vectors still grow
/// on demand past the cap.
const MAX_PREALLOC_PAIRS: usize = 1 << 20;

/// Iterations [`SamplerIndex::draw_many`] hands to
/// [`SamplerIndex::try_many`] at once: enough independent loads per
/// stage of a staged kernel to fill the core's miss queue several times
/// over, few enough that a block's state (≈ 7 KiB of stack arrays in
/// the BBST kernel) stays in L1.
pub(crate) const BLOCK: usize = 64;

/// Contract an immutable, shareable sampler index exposes to its
/// cursors: a thread-safe draw against caller-owned mutable state.
pub trait SamplerIndex: Send + Sync {
    /// Per-cursor scratch state the draw needs (an overlay's buffer of
    /// its base's block outcomes); `()` when the draw needs none.
    type Scratch: Default + Send;

    /// Algorithm name as used in the paper's tables.
    fn algorithm_name(&self) -> &'static str;

    /// **One** sampling-loop iteration against `&self` (many threads
    /// may call this concurrently, each with its own scratch and
    /// stats): `Ok(Some(pair))` on acceptance, `Ok(None)` on a rejected
    /// candidate, `Err(EmptyJoin)` when the total weight is zero.
    ///
    /// Implementations must increment `stats.iterations` once per call
    /// and `stats.samples` on acceptance, so that per-iteration
    /// accounting (Table IV, the engine's observed rejection rate)
    /// holds however the iterations are driven.
    ///
    /// Exposing the single iteration — rather than only the
    /// accept-loops in [`SamplerIndex::draw_with`] and
    /// [`SamplerIndex::draw_many`] — is what makes composition correct:
    /// a wrapper over several sources ([`crate::OverlayIndex`]) must
    /// re-pick the source on **every** iteration (each iteration emits
    /// any pair of `J` with probability exactly `1/Σµ`), not merely loop
    /// inside one source, which would bias samples toward sources with
    /// looser bounds.
    ///
    /// Generic over the RNG so the serving engine can monomorphise the
    /// whole draw path over its concrete `SmallRng` (no virtual call
    /// per random word); the object-safe [`crate::JoinSampler`] path
    /// instantiates it at `R = dyn RngCore` and behaves exactly as
    /// before.
    fn try_draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut Self::Scratch,
        stats: &mut PhaseReport,
    ) -> Result<Option<JoinPair>, SampleError>;

    /// Consecutive-rejection safety valve for the
    /// [`SamplerIndex::draw_with`] accept-loop
    /// ([`crate::SampleConfig::max_consecutive_rejections`] for
    /// rejecting samplers; the default `u64::MAX` suits samplers that
    /// never reject).
    fn rejection_limit(&self) -> u64 {
        u64::MAX
    }

    /// Total sampling weight `Σ_r µ(r)` this index draws against
    /// (`= |J|` for exact-counting indexes, `0.0` for an empty join).
    /// Per iteration, each pair of `J` is emitted with probability
    /// exactly `1 / total_weight` — the invariant an overlay's
    /// top-level alias relies on.
    fn total_weight(&self) -> f64;

    /// One uniform draw: loops [`SamplerIndex::try_draw`] until a
    /// candidate is accepted or [`SamplerIndex::rejection_limit`]
    /// consecutive rejections trip the safety valve.
    fn draw_with<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut Self::Scratch,
        stats: &mut PhaseReport,
    ) -> Result<JoinPair, SampleError> {
        let mut consecutive = 0u64;
        loop {
            match self.try_draw(rng, scratch, stats)? {
                Some(pair) => return Ok(pair),
                None => {
                    consecutive += 1;
                    if consecutive >= self.rejection_limit() {
                        return Err(SampleError::RejectionLimit);
                    }
                }
            }
        }
    }

    /// `n` iterations, outcomes appended to `out` in iteration order:
    /// the per-block primitive under [`SamplerIndex::draw_many`]. The
    /// provided body is `n` sequential [`SamplerIndex::try_draw`]s. An
    /// index may override it to run the block stage by stage (see
    /// [`crate::BbstIndex`]) or source by source (see
    /// [`crate::OverlayIndex`]), under one condition: the `n` outcomes
    /// must be those of `n` independent `try_draw`-distributed
    /// iterations, with `try_draw`'s accounting (`iterations`,
    /// `samples`) for every one of them. How the generator's words are
    /// spent on the block is the override's business.
    ///
    /// `n = 0` is `Ok` and touches nothing, even on an empty join.
    fn try_many<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
        scratch: &mut Self::Scratch,
        stats: &mut PhaseReport,
        out: &mut Vec<Option<JoinPair>>,
    ) -> Result<(), SampleError> {
        for _ in 0..n {
            out.push(self.try_draw(rng, scratch, stats)?);
        }
        Ok(())
    }

    /// `t` uniform draws appended to `out`, in acceptance order — the
    /// one accept loop behind [`Cursor::sample`] and
    /// [`Cursor::sample_batch`], over blocks of
    /// [`SamplerIndex::try_many`].
    ///
    /// Exactness: a block holds at most as many iterations as samples
    /// are still owed, so even if every one accepts, the block ends
    /// exactly on the `t`-th acceptance and no iteration runs after it;
    /// iterations are independent and their outcomes are consumed in
    /// iteration order. `out` is therefore the first `t` acceptances of
    /// an iid iteration stream, and every pair keeps per-iteration
    /// probability `1 / total_weight`. A block is also no longer than
    /// the rejections the safety valve still tolerates, so the valve —
    /// which counts consecutive rejections across block boundaries and
    /// resets only on an acceptance — trips on exactly the configured
    /// iteration and nothing runs after it.
    ///
    /// For an index that keeps the provided `try_many`, the generator's
    /// words are spent exactly as by `t` accept loops, so the pairs are
    /// a function of the seed alone. Where `try_many` is overridden the
    /// block shape decides which word an iteration sees: the pairs are
    /// then a function of the seed **and** of the sequence of `t`s a
    /// caller passes.
    fn draw_many<R: Rng + ?Sized>(
        &self,
        t: usize,
        rng: &mut R,
        scratch: &mut Self::Scratch,
        stats: &mut PhaseReport,
        out: &mut Vec<JoinPair>,
    ) -> Result<(), SampleError> {
        let limit = self.rejection_limit();
        let mut outcomes = Vec::with_capacity(t.min(BLOCK));
        let mut owed = t;
        let mut consecutive = 0u64;
        while owed > 0 {
            let tolerated = usize::try_from(limit - consecutive).unwrap_or(usize::MAX);
            let block = owed.min(BLOCK).min(tolerated.max(1));
            self.try_many(block, rng, scratch, stats, &mut outcomes)?;
            for outcome in outcomes.drain(..) {
                match outcome {
                    Some(pair) => {
                        out.push(pair);
                        owed -= 1;
                        consecutive = 0;
                    }
                    None => {
                        consecutive += 1;
                        if consecutive >= limit {
                            return Err(SampleError::RejectionLimit);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Build-phase timing recorded when the index was constructed.
    fn index_build_report(&self) -> PhaseReport;

    /// Approximate heap footprint of the retained structures, by
    /// structure. The `S`-side entries (`grid`, `units`, `point_set`)
    /// are what the index holds through an `Arc` and may share with
    /// sibling indexes.
    fn index_bytes(&self) -> IndexBytes;

    /// [`SamplerIndex::index_bytes`] summed: the whole footprint.
    fn index_memory_bytes(&self) -> usize {
        self.index_bytes().total()
    }
}

/// An index's heap bytes by structure — the per-structure `size()` of
/// the `O(n + m)` space bound. [`IndexBytes::total`] **is** the index's
/// `memory_bytes()`: every implementation sums this struct and nothing
/// else.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexBytes {
    /// The `R` set the index stands on — shared by every index built on
    /// it, so whoever sums indexes over one set counts it once — with
    /// its two orders once a grid of it was built, plus a group index's
    /// members in group order (4 B per `r`) and their group bounds.
    pub r_points: usize,
    /// The per-`r` rows (`40 × |R|` for the families that keep
    /// [`srj_alias::BlockRow`]s, the `f64` bounds of KDS-rejection), a
    /// group index's rows with their nine cell slots (76 B a group), and
    /// an overlay's chunk rows.
    pub rows: usize,
    /// Every alias table: over `µ(r)` (or a group index's rows), over
    /// an overlay's sources and chunk members.
    pub alias: usize,
    /// Grid cells and their lookup, without the point set under them;
    /// an overlay's two support grids and insert grids too.
    pub grid: usize,
    /// The per-cell structures (BBST pairs, kd-trees).
    pub units: usize,
    /// `S` itself with its two sorted orders (for an overlay also the
    /// support grids' copies of the base sets).
    pub point_set: usize,
    /// An overlay's pending mutations: insert buffers, tombstone sets
    /// and chunk bookkeeping. Zero for a clean index.
    pub delta: usize,
}

impl IndexBytes {
    /// `(structure, bytes)` for every field, in declaration order — the
    /// `structure` label values of the server's `srj_index_bytes` gauge.
    pub fn parts(&self) -> [(&'static str, usize); 7] {
        [
            ("r_points", self.r_points),
            ("rows", self.rows),
            ("alias", self.alias),
            ("grid", self.grid),
            ("units", self.units),
            ("point_set", self.point_set),
            ("delta", self.delta),
        ]
    }

    /// A grid's bytes: the point set it stands on, and the cells and
    /// their lookup over it.
    pub(crate) fn of_grid(grid: &Grid) -> Self {
        let point_set = grid.point_set().memory_bytes();
        IndexBytes {
            point_set,
            grid: grid.memory_bytes() - point_set,
            ..IndexBytes::default()
        }
    }

    /// The whole footprint.
    pub fn total(&self) -> usize {
        self.parts().iter().map(|&(_, bytes)| bytes).sum()
    }
}

impl std::ops::Add for IndexBytes {
    type Output = IndexBytes;

    fn add(self, other: IndexBytes) -> IndexBytes {
        IndexBytes {
            r_points: self.r_points + other.r_points,
            rows: self.rows + other.rows,
            alias: self.alias + other.alias,
            grid: self.grid + other.grid,
            units: self.units + other.units,
            point_set: self.point_set + other.point_set,
            delta: self.delta + other.delta,
        }
    }
}

impl std::ops::Sub for IndexBytes {
    type Output = IndexBytes;

    /// Field by field; `other` must be a part of `self`.
    fn sub(self, other: IndexBytes) -> IndexBytes {
        IndexBytes {
            r_points: self.r_points - other.r_points,
            rows: self.rows - other.rows,
            alias: self.alias - other.alias,
            grid: self.grid - other.grid,
            units: self.units - other.units,
            point_set: self.point_set - other.point_set,
            delta: self.delta - other.delta,
        }
    }
}

/// What [`Cursor::drain_buffer_stats`] returns: `hits` is always 0.
/// Reserved for `benchmark/src/layers.rs`; ROADMAP 2(d) deletes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Always 0.
    pub hits: u64,
}

/// Cheap per-thread query state over a shared index: its scratch
/// plus this cursor's own sampling-phase statistics. Construction is
/// O(1); clone the `Arc` and make one cursor per serving thread.
pub struct Cursor<I: SamplerIndex> {
    index: Arc<I>,
    scratch: I::Scratch,
    stats: PhaseReport,
}

impl<I: SamplerIndex> Cursor<I> {
    /// A fresh cursor over `index` with zeroed sampling statistics.
    pub fn new(index: Arc<I>) -> Self {
        Cursor {
            index,
            scratch: I::Scratch::default(),
            stats: PhaseReport::default(),
        }
    }

    /// The shared index this cursor samples from.
    pub fn index(&self) -> &Arc<I> {
        &self.index
    }

    /// This cursor's own sampling-phase statistics (no build phases).
    pub fn sampling_stats(&self) -> &PhaseReport {
        &self.stats
    }

    /// Does nothing: there is no buffered draw. Reserved for
    /// `benchmark/src/layers.rs`; ROADMAP 2(d) deletes it.
    pub fn set_buffers(&mut self, _enabled: bool) {}

    /// Does nothing: there is no buffered draw. Reserved for
    /// `benchmark/src/layers.rs`; ROADMAP 2(d) deletes it.
    pub fn seed_buffers(&mut self, _seed: u64) {}

    /// Always [`BufferStats`] with no hits: there is no buffered draw.
    /// Reserved for `benchmark/src/layers.rs`; ROADMAP 2(d) deletes it.
    pub fn drain_buffer_stats(&mut self) -> BufferStats {
        BufferStats::default()
    }

    /// Monomorphised batch draw: [`SamplerIndex::draw_many`] against a
    /// concrete RNG under a single timing bracket, appending to `out`.
    /// This is the engine's hot serving path — the compiler sees the
    /// whole index/RNG pair, so there is no virtual call per random
    /// word and no `Instant::now()` per pair. On an error `out` keeps
    /// the pairs accepted before it.
    pub fn sample_batch<R: Rng + ?Sized>(
        &mut self,
        t: usize,
        rng: &mut R,
        out: &mut Vec<JoinPair>,
    ) -> Result<(), SampleError> {
        let start = Instant::now();
        out.reserve(t.min(MAX_PREALLOC_PAIRS));
        let res = self
            .index
            .draw_many(t, rng, &mut self.scratch, &mut self.stats, out);
        self.stats.sampling += start.elapsed();
        res
    }
}

impl<I: SamplerIndex> JoinSampler for Cursor<I> {
    fn name(&self) -> &'static str {
        self.index.algorithm_name()
    }

    fn sample_one(&mut self, rng: &mut dyn RngCore) -> Result<JoinPair, SampleError> {
        let t = Instant::now();
        let out = self
            .index
            .draw_with(rng, &mut self.scratch, &mut self.stats);
        self.stats.sampling += t.elapsed();
        out
    }

    fn sample(&mut self, t: usize, rng: &mut dyn RngCore) -> Result<Vec<JoinPair>, SampleError> {
        let mut out = Vec::new();
        self.sample_batch(t, rng, &mut out)?;
        Ok(out)
    }

    fn report(&self) -> PhaseReport {
        self.index
            .index_build_report()
            .with_sampling_from(&self.stats)
    }

    fn memory_bytes(&self) -> usize {
        self.index.index_memory_bytes()
    }
}
