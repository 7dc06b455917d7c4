//! Synthetic spatial dataset generators.
//!
//! The paper evaluates on four real datasets (CaStreet, Foursquare, IMIS,
//! NYC) that cannot be redistributed here. Each generator below is a
//! documented stand-in that preserves the spatial character the
//! algorithms are sensitive to — grid-cell occupancy skew, cluster
//! structure, and local density — on the same normalised
//! `[0, 10000]²` domain (§V-A). The table gives the substitution
//! rationale per dataset.
//!
//! | Paper dataset | Stand-in | Character preserved |
//! |---|---|---|
//! | CaStreet (road MBRs) | [`DatasetKind::RoadLike`] | 1-D filaments in 2-D: sparse cells along polylines |
//! | Foursquare (POIs) | [`DatasetKind::PoiClusters`] | Gaussian urban clusters, heavy-tailed cell occupancy |
//! | IMIS (ship AIS) | [`DatasetKind::TrajectoryLike`] | dense correlated-walk streaks, huge empty regions |
//! | NYC (taxi GPS) | [`DatasetKind::TaxiHotspots`] | few ultra-dense hotspots over a weak background |
//!
//! All generators are deterministic given a seed. [`split_rs`] performs
//! the paper's random assignment of each point to `R` or `S`.

pub mod io;
mod kinds;
mod split;

pub use io::{read_points, read_points_file, write_points, write_points_file, IoError};
pub use kinds::{generate, DatasetKind, DatasetSpec};
pub use split::split_rs;
