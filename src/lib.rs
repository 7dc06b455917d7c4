//! # `srj` — Random Sampling over Spatial Range Joins
//!
//! A from-scratch Rust implementation of
//!
//! > Daichi Amagata. *Random Sampling over Spatial Range Joins.*
//! > ICDE 2025 (arXiv:2508.15070).
//!
//! Given two 2-D point sets `R` and `S` and a window half-extent `l`, the
//! spatial range join is `J = {(r, s) | r ∈ R, s ∈ S, s ∈ w(r)}` with
//! `w(r) = [r.x−l, r.x+l] × [r.y−l, r.y+l]`. This crate returns `t`
//! **uniform, independent** samples of `J` *without* computing `J`:
//!
//! * [`BbstSampler`] — the paper's proposed algorithm:
//!   `Õ(n + m + t)` expected time, `O(n + m)` space, built on the
//!   Bucket-based Binary Search Tree ([`srj_bbst`]).
//! * [`KdsSampler`] — baseline: exact kd-tree range counting + spatial
//!   independent range sampling, `O((n + t)·√m)`.
//! * [`KdsRejectionSampler`] — baseline: grid upper bounds + rejection
//!   sampling, `O(n + m + n·m^1.5·t / |J|)` expected.
//!
//! ## Quickstart
//!
//! ```
//! use srj::{BbstSampler, JoinSampler, Point, SampleConfig};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! // two tiny point sets
//! let r: Vec<Point> = (0..50).map(|i| Point::new(i as f64, i as f64)).collect();
//! let s: Vec<Point> = (0..50).map(|i| Point::new(i as f64, (i % 7) as f64)).collect();
//!
//! let config = SampleConfig::new(5.0); // half-extent l = 5
//! let mut sampler = BbstSampler::build(&r, &s, &config);
//! let mut rng = SmallRng::seed_from_u64(7);
//! let samples = sampler.sample(100, &mut rng).unwrap();
//! assert_eq!(samples.len(), 100);
//! for pair in &samples {
//!     // every sample is a genuine join result
//!     let w = srj::Rect::window(r[pair.r as usize], 5.0);
//!     assert!(w.contains(s[pair.s as usize]));
//! }
//! ```
//!
//! ## Serving at scale
//!
//! For concurrent serving, every sampler is split into an immutable
//! `Send + Sync` index plus cheap per-thread cursors, and the
//! [`engine`] crate wraps the split into a query service: build once
//! with [`Engine::build`] (or let the data pick the algorithm with
//! [`Engine::auto`]), then hand each thread a [`SamplerHandle`] with
//! its own RNG and statistics. See `examples/concurrent_serving.rs`.
//!
//! For serving over the network, the [`server`] crate wraps the engine
//! in a TCP front-end with request batching and per-connection
//! backpressure (binaries `srj-serve` / `srj-top`; see
//! `examples/network_serving.rs`).
//!
//! ## Observability
//!
//! The [`obs`] crate threads a metrics registry, sampled span tracing,
//! and a lifecycle event journal through every layer: the server
//! exposes Prometheus text over the `METRICS` frame (live dashboard:
//! `srj-top`), traced `SAMPLE` requests return their spans via the
//! `TRACE` frame, and every epoch swap / cell patch / compaction /
//! backpressure park lands in the journal
//! (`srj-serve --log-json`). See the README's "Observability" section.
//!
//! The workspace crates are re-exported under their own names
//! ([`geom`], [`alias`], [`kdtree`], [`grid`], [`bbst`], [`join`],
//! [`datagen`], [`core`], [`engine`], [`server`], [`obs`]) and the
//! most common types at the crate root.

pub use srj_alias as alias;
pub use srj_bbst as bbst;
pub use srj_core as core;
pub use srj_datagen as datagen;
pub use srj_engine as engine;
pub use srj_geom as geom;
pub use srj_grid as grid;
pub use srj_join as join;
pub use srj_kdtree as kdtree;
pub use srj_obs as obs;
pub use srj_rangetree as rangetree;
pub use srj_rtree as rtree;
pub use srj_server as server;

pub use srj_core::{
    BbstCellCtx, BbstCursor, BbstIndex, BbstKdVariantCursor, BbstKdVariantIndex,
    BbstKdVariantSampler, BbstSampler, CellPatchReport, CellStore, CellUnit, Cursor, DeltaSet,
    GroupCore, GroupCursor, GroupIndex, IndexBytes, JoinPair, JoinSampler, JoinThenSample,
    KdCellStore, KdsCursor, KdsIndex, KdsRejectionCursor, KdsRejectionIndex, KdsRejectionSampler,
    KdsSampler, MassMode, OverlayIndex, OverlaySupport, PhaseReport, RangeTreeSampler,
    SampleConfig, SampleError, SampleIter, SamplerIndex,
};
pub use srj_datagen::{generate, split_rs, DatasetKind, DatasetSpec};
pub use srj_engine::{
    Algorithm, DatasetSnapshot, DatasetStore, Engine, EpochConfig, EpochEngine, RowGranularity,
    SPatchDelta, SamplerHandle, StatsSnapshot,
};
pub use srj_geom::{Point, PointId, Rect};
pub use srj_obs::{EventKind, LifecycleEvent, Registry};
pub use srj_server::{
    Client, DatasetRegistry, RequestStatus, SampleOutcome, SampleRequest, Server, ServerConfig,
    Side, TraceSpan, UpdateOutcome,
};
