//! Scaled stand-ins for the paper's evaluation datasets.

use srj_datagen::{generate, split_rs, DatasetKind, DatasetSpec};
use srj_geom::Point;

/// Default number of samples `t` at scale 1.0 (the paper's default is
/// 10⁶ at 2.2M–324M points; the harness default keeps the same order of
/// magnitude relative to the scaled dataset sizes).
pub const DEFAULT_T: usize = 1_000_000;

/// Base cardinalities at scale 1.0, preserving the paper's ordering
/// CaStreet < Foursquare < IMIS < NYC (2.2M / 11.2M / 168M / 324M in the
/// paper; here 250k / 400k / 700k / 1M).
pub fn base_size(kind: DatasetKind) -> usize {
    match kind {
        DatasetKind::Uniform => 300_000,
        DatasetKind::RoadLike => 250_000,
        DatasetKind::PoiClusters => 400_000,
        DatasetKind::TrajectoryLike => 700_000,
        DatasetKind::TaxiHotspots => 1_000_000,
    }
}

/// A generated-and-split dataset ready for the samplers.
pub struct ScaledDataset {
    /// Which paper dataset this stands in for.
    pub kind: DatasetKind,
    /// The outer set `R`.
    pub r: Vec<Point>,
    /// The inner set `S`.
    pub s: Vec<Point>,
}

impl ScaledDataset {
    /// Total cardinality `n + m`.
    pub fn total(&self) -> usize {
        self.r.len() + self.s.len()
    }
}

/// Generates `kind` at `scale × base_size(kind)` points and splits with
/// `r_fraction` (paper default 0.5). The generated points are handed to
/// the split, which deals `R` into their buffer ([`split_rs`]): the
/// peak is the points and `S`, 24 B a point at `r_fraction` 0.5.
pub fn scaled_spec(kind: DatasetKind, scale: f64, r_fraction: f64, seed: u64) -> ScaledDataset {
    assert!(scale > 0.0, "scale must be positive");
    let n = ((base_size(kind) as f64 * scale) as usize).max(16);
    let points = generate(&DatasetSpec::new(kind, n, seed));
    let (r, s) = split_rs(points, r_fraction, seed ^ 0xDEAD_BEEF);
    ScaledDataset { kind, r, s }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_preserve_paper_ordering() {
        let order = DatasetKind::PAPER_ORDER;
        for w in order.windows(2) {
            assert!(base_size(w[0]) < base_size(w[1]));
        }
    }

    #[test]
    fn scaling_and_split() {
        let d = scaled_spec(DatasetKind::RoadLike, 0.01, 0.5, 1);
        assert_eq!(d.total(), 2_500);
        let ratio = d.r.len() as f64 / d.total() as f64;
        assert!((ratio - 0.5).abs() < 0.1);
        let d = scaled_spec(DatasetKind::RoadLike, 0.01, 0.2, 1);
        let ratio = d.r.len() as f64 / d.total() as f64;
        assert!((ratio - 0.2).abs() < 0.1);
    }
}
