//! `srj-benchmark` — the repository's one benchmark.
//!
//! It drives the real system from outside — `DatasetRegistry`,
//! `Server::start("127.0.0.1:0")` and the blocking `Client` in one
//! process — on four canonical workloads, and prices each layer by
//! timing calls into its public functions. See `README.md` beside this
//! crate for the metric glossary and how to run a paired A/B.

pub mod bench;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod round;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workload;
