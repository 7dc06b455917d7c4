//! A static, array-backed 2-D kd-tree \[Bentley 1975\] with orthogonal
//! range counting, range reporting, and **independent range sampling**.
//!
//! This is the substrate of both baseline algorithms in the paper
//! (Section III): `KDS` \[Xie, Phillips, Matheny, Li. "Spatial independent
//! range sampling", SIGMOD 2021\] answers "return one point drawn
//! uniformly at random from `S ∩ w`" in `O(√m)` time on a balanced
//! kd-tree, by decomposing the window into canonical subtrees (fully
//! covered nodes) plus boundary points and then drawing a uniform rank.
//!
//! Layout: points are reordered during construction so every subtree owns
//! a contiguous slice of the point array. A canonical subtree therefore
//! supports *O(1)* uniform sampling (uniform index into its slice), which
//! is exactly what makes the KDS draw `O(√m)` instead of `O(√m log m)`.
//!
//! The tree is built with alternating split axes and median splits, giving
//! the textbook `O(√m + k)` range-query bound \[de Berg et al.,
//! Computational Geometry, 2000\].

mod sample;
mod tree;

pub use sample::CanonicalScratch;
pub use tree::{KdTree, DEFAULT_LEAF_SIZE};
