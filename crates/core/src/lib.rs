//! Uniform, independent random sampling over spatial range joins.
//!
//! The paper's problem (Definition 2): given point sets `R` (size `n`)
//! and `S` (size `m`), a window half-extent `l`, and a sample count `t`,
//! return `t` pairs of `J = {(r, s) | s ∈ w(r)}`, each drawn uniformly at
//! random with replacement and independently — **without running the
//! join**.
//!
//! Three samplers implement the common [`JoinSampler`] trait:
//!
//! | Sampler | Paper | Time | Space |
//! |---|---|---|---|
//! | [`KdsSampler`] | §III-A | `O((n + t)√m)` | `O(n + m)` |
//! | [`KdsRejectionSampler`] | §III-B | `O(n + m + n·m^1.5·t/\|J\|)` exp. | `O(n + m)` |
//! | [`BbstSampler`] | §IV | `Õ(n + m + t)` exp. | `O(n + m)` |
//!
//! ([`BbstKdVariantSampler`], the Fig. 9 ablation — grid pipeline,
//! kd-tree corner cells — is [`KdsSampler`] under its paper name;
//! [`GroupIndex`] keeps one row per cell of `R` instead of one per `r`,
//! the §III-B bound without a kd-tree, for data on which that bound is
//! already tight) plus [`JoinThenSample`], the `Ω(|J|)` strawman (materialise, then
//! sample) that the introduction rules out and the experiments use as a
//! sanity lower bound.
//!
//! All samplers record a [`PhaseReport`] with the paper's phase
//! decomposition (pre-processing, GM, UB, sampling; Tables II–IV) and
//! expose `memory_bytes()` for the Fig. 4 experiment.
//!
//! ## Build once, sample from many threads
//!
//! The paper separates one-time preprocessing from per-sample work; this
//! crate makes that split structural. Every sampler is divided into an
//! immutable, `Send + Sync` **index** ([`KdsIndex`],
//! [`KdsRejectionIndex`], [`BbstIndex`]) that runs the build phases
//! exactly once, and a cheap mutable **cursor** ([`KdsCursor`],
//! [`KdsRejectionCursor`], [`BbstCursor`]) holding only per-thread state
//! (sampling statistics, and an overlay's scratch). Wrap an index in an
//! `Arc`, hand each thread its own cursor, and all threads draw
//! concurrently from the same structures. A `*Sampler` is a cursor over
//! an index of its own (`::build`); the `srj-engine` crate builds a full
//! concurrent serving engine — epoch swaps, latency statistics
//! — on top of this split.
//!
//! ## Dynamic datasets
//!
//! Mutations never touch a built index: pending inserts/deletes live
//! in a [`DeltaSet`] and an [`OverlayIndex`] composes any base index
//! with them — three disjoint pair sources behind one per-iteration
//! alias — so samples stay exactly uniform over the *current* join
//! between full rebuilds (see [`overlay`](OverlayIndex)). The
//! `srj-engine` crate drives this through its epoch-swap cell.
//!
//! ## Parallel builds
//!
//! The dominant build cost everywhere is the per-`r` upper-bounding
//! loop; [`SampleConfig::build_threads`] runs it on a chunked
//! [`std::thread::scope`] map ([`parallel`]) with **bit-identical**
//! results at any thread count. [`PhaseReport`] records the phase's
//! wall time and the summed worker CPU time separately, so the
//! achieved speedup is always visible.

mod bbst_alg;
pub mod cellstore;
mod config;
mod cursor;
mod decompose;
mod group;
mod kds;
mod materialize;
mod overlay;
pub mod parallel;
mod rangetree_sampler;
mod rejection;
mod traits;
mod variant;

pub use bbst_alg::{BbstCursor, BbstIndex, BbstSStructures, BbstSampler};
pub use cellstore::{
    BbstCellCtx, CellStore, CellUnit, KdCellStore, KdCellUnit, PatchReport as CellPatchReport,
};
pub use config::{JoinPair, PhaseReport, SampleConfig, SampleError};
pub use cursor::{BufferStats, Cursor, IndexBytes, SamplerIndex};
pub use group::{GroupCore, GroupCursor, GroupIndex, NO_CELL};
pub use kds::{KdsCursor, KdsIndex, KdsSampler};
pub use materialize::JoinThenSample;
pub use overlay::{DeltaSet, OverlayIndex, OverlaySupport};
pub use parallel::{chunk_bounds, effective_threads, par_map, ParMapReport};
pub use rangetree_sampler::RangeTreeSampler;
pub use rejection::{KdsRejectionCursor, KdsRejectionIndex, KdsRejectionSampler};
pub use traits::{JoinSampler, SampleIter};
pub use variant::{BbstKdVariantCursor, BbstKdVariantIndex, BbstKdVariantSampler};

// Re-export the mass mode so downstream users configure the BBST bound
// without depending on srj-bbst directly.
pub use srj_bbst::MassMode;
