//! Non-empty hash grid over a static 2-D point set.
//!
//! Both `KDS-rejection` (Section III-B) and the proposed `BBST` algorithm
//! (Section IV) map the inner point set `S` onto a grid whose cell side
//! equals **half** the query-window side. The window of any `r` then
//! overlaps at most the 3×3 block of cells around the cell containing `r`
//! (paper Fig. 1), and each overlapped cell falls into one of three cases:
//!
//! * **case 1** (centre): fully covered, 0-sided — exact count is `|S(c)|`;
//! * **case 2** (edges): covered along one axis, 1-sided — exact count by
//!   a single binary search on a coordinate-sorted array;
//! * **case 3** (corners): 2-sided — handled by the BBST structure
//!   (crate `srj-bbst`).
//!
//! Only non-empty cells are materialised (`GRID-MAPPING(S, l)` in
//! Algorithm 1, `O(m)` time and space). Every cell keeps its member point
//! ids sorted by x (`S(c)`) and by y (`S_y(c)`), which is precisely the
//! state Algorithm 1 lines 2–4 build.
//!
//! The paper pre-sorts `S` offline, before `l` is known. [`PointSet`] is
//! that step: the point array with its ids in x and in y order, computed
//! once and shared by every grid built on it, whatever its cell side.
//!
//! The outer set `R` is not indexed, but every `r` of one cell sees the
//! same 3×3 block: [`Grid::group_by_cell`] counting-sorts a point set by
//! cell coordinate so a builder can resolve each block once.
//!
//! A window fits its 3×3 block for any cell side `≥ l`, so windows of
//! nearby sizes can stand on one grid: [`ladder_side`] maps `l` to the
//! least step `≥ l` of the R10 series, the side such a shared grid has.
//!
//! The hash map uses a from-scratch Fx-style hasher ([`fx`]) because cell
//! coordinates are short integer keys for which SipHash is needlessly
//! slow (Rust Performance Book, "Hashing").

mod cell;
pub mod fx;
mod grid_map;
mod groups;
mod ladder;
mod offsets;
mod point_set;

pub use cell::Cell;
pub use grid_map::{Grid, GridPatch};
pub use groups::CellGroups;
pub use ladder::ladder_side;
pub use offsets::{case_of, CellCase, NeighborOffset, CENTER_IDX, NEIGHBOR_OFFSETS};
pub use point_set::{IntoPointSet, PointSet};
