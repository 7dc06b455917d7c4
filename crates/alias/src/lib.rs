//! Weighted random sampling structures.
//!
//! All three algorithms in the paper pick a query point `r ∈ R` with
//! probability proportional to a (possibly approximate) range count, using
//! **Walker's alias method** \[Walker 1974\]: `O(k)` construction over `k`
//! weights, `O(1)` per draw, `O(k)` space. [`AliasTable`] implements it
//! with the classic two-stack (small/large) construction.
//!
//! The proposed algorithm additionally needs, for every `r`, a weighted
//! choice among the ≤ 9 grid cells overlapping `w(r)` (the alias `A_r` in
//! Algorithm 1). Building a heap-allocated alias per point would cost two
//! `Vec`s per element of `R`; [`BlockRow`] instead stores an inline
//! forty-byte cumulative-count row and draws cell and in-cell rank from
//! one random word ([`RowPick`]) by scanning ten entries — still `O(1)`
//! per draw with far better constants and exactly `O(n)` total space.
//! The delta overlay's chunks keep the same row, with the tenth entry
//! for their cross part.

mod row9;
mod table;

pub use row9::{BlockRow, RowPick, NUM_CELLS};
pub use table::AliasTable;
