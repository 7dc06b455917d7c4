//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section V) at laptop scale.
//!
//! The binary `experiments` prints the same rows/series the paper
//! reports, and is the one way to reproduce them; the paper's claims
//! that are counts are asserted by this crate's tests, its clock claims
//! only printed.
//!
//! Scaling: the paper's datasets range up to 324 M points and its default
//! `t` is 10⁶. The harness keeps the paper's *relative* dataset sizes and
//! parameters but divides absolute sizes by a configurable scale so the
//! full suite completes in minutes. All algorithms are `O(n + m)` space
//! and near-linear time, so the comparison shape survives scaling (the
//! baselines' `√m` terms shrink *in their favour* — measured gaps are
//! conservative).

pub mod datasets;
pub mod experiments;
pub mod runner;

pub use datasets::{scaled_spec, ScaledDataset, DEFAULT_T};
pub use runner::{build_bbst, build_kds, build_rejection, build_variant, run_sampler, RunOutcome};
