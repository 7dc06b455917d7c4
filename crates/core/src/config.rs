use std::fmt;
use std::time::Duration;

use srj_bbst::MassMode;
use srj_geom::PointId;

/// One sampled join result: ids into the `R` and `S` slices the sampler
/// was built from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub struct JoinPair {
    /// Index into `R`.
    pub r: PointId,
    /// Index into `S`.
    pub s: PointId,
}

impl JoinPair {
    /// Creates a pair.
    #[inline]
    pub const fn new(r: PointId, s: PointId) -> Self {
        JoinPair { r, s }
    }
}

/// Configuration shared by every sampler.
#[derive(Clone, Copy, Debug)]
pub struct SampleConfig {
    /// Window half-extent `l`: `w(r) = [r.x−l, r.x+l] × [r.y−l, r.y+l]`
    /// (paper §V-A; default there is 100 on a 10000² domain).
    pub half_extent: f64,
    /// How the BBST computes the case-3 upper bound (paper-faithful
    /// [`MassMode::Virtual`] by default; see `srj-bbst`).
    pub mass_mode: MassMode,
    /// Enable fractional cascading in the per-cell BBSTs (the optional
    /// `O(log m)` refinement of Lemma 4; off by default to match the
    /// paper's analysed configuration).
    pub use_cascading: bool,
    /// Safety valve: abort sampling after this many consecutive rejected
    /// iterations. The paper assumes `|J| ≥ 1`; with `|J| = 0` but
    /// positive upper bounds, rejection sampling would never terminate.
    /// The default (10 million) is far beyond any realistic expected
    /// iteration count (`Σµ/|J| ≲ log m`) and exists only to convert a
    /// pathological hang into [`SampleError::RejectionLimit`].
    pub max_consecutive_rejections: u64,
    /// Threads for the per-`r` upper-bounding loop of the index builds
    /// (the dominant build cost — `O(n√m)` for KDS, `O(n log m)` for
    /// BBST). `1` (the default) keeps the historical serial build; `0`
    /// means one thread per available core. The parallel build is
    /// bit-identical to the serial one (see [`crate::parallel`]), so
    /// this knob changes wall-clock only, never results.
    pub build_threads: usize,
}

impl SampleConfig {
    /// Default configuration for half-extent `l`.
    pub fn new(half_extent: f64) -> Self {
        assert!(
            half_extent.is_finite() && half_extent > 0.0,
            "half_extent must be positive and finite, got {half_extent}"
        );
        SampleConfig {
            half_extent,
            mass_mode: MassMode::Virtual,
            use_cascading: false,
            max_consecutive_rejections: 10_000_000,
            build_threads: 1,
        }
    }

    /// Overrides the BBST mass mode.
    pub fn with_mass_mode(mut self, mode: MassMode) -> Self {
        self.mass_mode = mode;
        self
    }

    /// Enables fractional cascading in the BBSTs.
    pub fn with_cascading(mut self) -> Self {
        self.use_cascading = true;
        self
    }

    /// Overrides the rejection safety valve.
    pub fn with_rejection_limit(mut self, limit: u64) -> Self {
        assert!(limit > 0, "rejection limit must be positive");
        self.max_consecutive_rejections = limit;
        self
    }

    /// Sets the build-phase thread count (`0` = all available cores;
    /// see [`SampleConfig::build_threads`]).
    pub fn with_build_threads(mut self, threads: usize) -> Self {
        self.build_threads = threads;
        self
    }
}

/// Why a sampler could not produce the requested samples.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SampleError {
    /// The join result is provably empty (total sampling weight is zero):
    /// no pair exists to sample. Definition 2 assumes `|J| ≥ 1`.
    EmptyJoin,
    /// The rejection safety valve tripped
    /// ([`SampleConfig::max_consecutive_rejections`] consecutive
    /// failures). Either `|J| = 0` with non-zero upper bounds, or the
    /// limit was configured too low for the bound looseness.
    RejectionLimit,
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleError::EmptyJoin => write!(f, "the spatial range join is empty"),
            SampleError::RejectionLimit => {
                write!(
                    f,
                    "rejection sampling exceeded the configured iteration limit"
                )
            }
        }
    }
}

impl std::error::Error for SampleError {}

/// Wall-clock decomposition of a sampler's work, following the paper's
/// reporting (Tables II–IV):
///
/// * `preprocessing` — offline work (Table II): the per-cell sorts of
///   `S` a build forces ([`srj_grid::Grid::sort_views`]) — every cell
///   for per-`r` BBST rows, KDS and KDS-rejection, none for group rows,
///   which read no sorted run — and the kd-trees of the KDS family,
/// * `grid_mapping` — "GM": grid construction, for BBST including the
///   per-cell structures (online data-structure building phase),
/// * `upper_bounding` — "UB": per-`r` range counts / upper bounds plus
///   alias construction (approximate range counting phase),
/// * `sampling` — cumulative time spent inside `sample*` calls,
/// * `iterations` — sampling-loop iterations (Table IV; rejections make
///   `iterations > samples`),
/// * `samples` — accepted samples produced so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseReport {
    /// Offline pre-processing time (Table II).
    pub preprocessing: Duration,
    /// Grid-mapping / structure-building time ("GM", Table III).
    pub grid_mapping: Duration,
    /// Upper-bounding / range-counting time ("UB", Table III). This is
    /// **wall-clock**: with `build_threads > 1` it shrinks with the
    /// achieved parallel speedup.
    pub upper_bounding: Duration,
    /// Aggregate **CPU** time of the upper-bounding phase, summed over
    /// the build worker threads. Equals [`PhaseReport::upper_bounding`]
    /// for serial builds; `upper_bounding_cpu / upper_bounding` is the
    /// achieved build speedup.
    pub upper_bounding_cpu: Duration,
    /// Cumulative sampling time (Table IV).
    pub sampling: Duration,
    /// Sampling-loop iterations including rejections (Table IV).
    pub iterations: u64,
    /// Accepted samples.
    pub samples: u64,
}

impl PhaseReport {
    /// Build-side total (everything except sampling): what the paper
    /// calls the algorithm's cost before the sampling phase.
    pub fn build_total(&self) -> Duration {
        self.preprocessing + self.grid_mapping + self.upper_bounding
    }

    /// Grand total including sampling.
    pub fn total(&self) -> Duration {
        self.build_total() + self.sampling
    }

    /// Combines an index's build-phase report with a cursor's
    /// sampling-phase report into the classic single-sampler view.
    ///
    /// The index/cursor split (build once, sample from many cursors)
    /// stores the build phases on the shared immutable index and the
    /// sampling phases on each cursor; this reassembles the report shape
    /// the paper's tables — and the pre-split `JoinSampler::report()`
    /// contract — expect.
    pub fn with_sampling_from(&self, sampling: &PhaseReport) -> PhaseReport {
        PhaseReport {
            preprocessing: self.preprocessing,
            grid_mapping: self.grid_mapping,
            upper_bounding: self.upper_bounding,
            upper_bounding_cpu: self.upper_bounding_cpu,
            sampling: sampling.sampling,
            iterations: sampling.iterations,
            samples: sampling.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults() {
        let c = SampleConfig::new(100.0);
        assert_eq!(c.half_extent, 100.0);
        assert_eq!(c.mass_mode, MassMode::Virtual);
        assert!(c.max_consecutive_rejections > 0);
    }

    #[test]
    #[should_panic(expected = "half_extent must be positive")]
    fn zero_half_extent_rejected() {
        SampleConfig::new(0.0);
    }

    #[test]
    #[should_panic(expected = "half_extent must be positive")]
    fn nan_half_extent_rejected() {
        SampleConfig::new(f64::NAN);
    }

    #[test]
    fn builder_overrides() {
        let c = SampleConfig::new(5.0)
            .with_mass_mode(MassMode::Exact)
            .with_cascading()
            .with_rejection_limit(42)
            .with_build_threads(4);
        assert_eq!(c.mass_mode, MassMode::Exact);
        assert!(c.use_cascading);
        assert_eq!(c.max_consecutive_rejections, 42);
        assert_eq!(c.build_threads, 4);
    }

    #[test]
    fn report_totals() {
        let r = PhaseReport {
            preprocessing: Duration::from_millis(1),
            grid_mapping: Duration::from_millis(2),
            upper_bounding: Duration::from_millis(3),
            upper_bounding_cpu: Duration::from_millis(3),
            sampling: Duration::from_millis(4),
            iterations: 10,
            samples: 8,
        };
        assert_eq!(r.build_total(), Duration::from_millis(6));
        assert_eq!(r.total(), Duration::from_millis(10));
    }

    #[test]
    fn error_display() {
        assert!(SampleError::EmptyJoin.to_string().contains("empty"));
        assert!(SampleError::RejectionLimit.to_string().contains("limit"));
    }
}
