//! **BBST — Bucket-based Binary Search Tree** (paper Section IV-B).
//!
//! The proposed data structure of *Random Sampling over Spatial Range
//! Joins* (ICDE 2025). For one grid cell holding `N` points out of a set
//! of `m`, a pair of BBSTs answers **2-sided (quadrant) queries** — the
//! "case 3" corner cells of the window decomposition — with:
//!
//! * `O(N)` space (Lemma 2),
//! * `O(N)` construction given x-sorted points (Lemma 1),
//! * `Õ(1)`-approximate range counting in `O(log² N)` time (Lemma 4),
//! * one uniform candidate draw in `O(log² N)` time (Lemma 6).
//!
//! ## How it works
//!
//! The cell's x-sorted points are chopped into consecutive **buckets** of
//! `⌈log₂ m⌉` points ([`Bucket`], Definition 3). A balanced binary search
//! tree is built over the buckets' x-keys; each node stores the buckets
//! of its subtree **twice more**, sorted by bucket min-y and max-y (the
//! `A` arrays), plus the equal-key buckets (`B` lists). A 2-sided query
//! `[x₀, ∞) × [y₀, ∞)` walks the x-dimension like an ordinary BST —
//! collecting `O(log N)` canonical nodes — and resolves the y-dimension
//! with one binary search per canonical node.
//!
//! Because the x-key of a bucket can be its minimum **or** its maximum x
//! coordinate depending on which window side bounds the cell, each cell
//! carries two trees: `T_min` (keyed by bucket min-x, for `xmax`-bounded
//! quadrants `c↘`, `c↗`) and `T_max` (keyed by bucket max-x, for
//! `xmin`-bounded quadrants `c↙`, `c↖`). See [`CellBbsts`].
//!
//! ## Counting modes
//!
//! The paper counts `log m ×` (number of matched buckets)
//! ([`MassMode::Virtual`]). A matched bucket with fewer than `log m`
//! points would break per-point uniformity when sampling, so the sampler
//! draws a *virtual slot* and treats out-of-range slots as rejections —
//! per-point probability stays exactly `1/µ` (the paper's §IV). As an
//! extension this crate also offers [`MassMode::Exact`], which stores
//! per-node prefix sums of true bucket sizes for a strictly tighter upper
//! bound at identical asymptotic cost (benchmarked as an ablation).

mod bucket;
mod cell;
mod tree;

pub use bucket::{bucket_capacity, partition_into_buckets, Bucket};
pub use cell::{CellBbsts, MassMode, QuadrantQuery};
pub use tree::Bbst;
