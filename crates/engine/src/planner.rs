//! The adaptive planner behind [`crate::Engine::auto`]: pick the
//! cheapest sampler for a workload from an `O(n + m)` estimate.
//!
//! The paper's three algorithms trade build cost against per-sample
//! cost:
//!
//! * **KDS** — expensive exact counting (`O(n√m)`, one kd count per
//!   corner cell of every `r`) but zero rejections and an exact `|J|`;
//!   its draw reads the stored counts — `O(1)` for three picks in four, a
//!   ranked kd query on one corner cell for the fourth — so per sample it
//!   costs what BBST does. Unbeatable when `n·√m` is small.
//! * **KDS-rejection** — near-free bounds (`O(n + m)`), but every
//!   sample pays the bound looseness `Σµ/|J|` in expected rejections;
//!   best when the grid bounds are tight (high-selectivity workloads
//!   whose windows are densely populated).
//! * **BBST** — moderate build (`Õ(n + m)`), guaranteed `Õ(1)`
//!   per-sample cost regardless of bound looseness; the safe default
//!   for low-selectivity workloads where the 9-cell bound is loose.
//!
//! The planner measures exactly the quantity that separates the last
//! two: the §III-B grid upper bound `Σµ` (computed in full, `O(n)`) and
//! a sampled exact-count estimate of `|J|` (`O(√n · cell)`), giving the
//! expected rejection overhead `Σµ/|J|` before committing to a build.

use std::sync::Arc;

use srj_geom::{Point, Rect};
use srj_grid::{Grid, PointSet};

use crate::Algorithm;
use srj_core::SampleConfig;

/// Below this `n·√m` product, KDS's exact counting is too cheap to
/// bother estimating anything else.
pub const KDS_COST_BUDGET: f64 = 2.0e5;

/// Maximum acceptable expected rejection overhead `Σµ/|J|` for
/// KDS-rejection; looser bounds fall through to BBST, whose per-sample
/// cost is insensitive to the overhead (Lemma 6).
pub const MAX_REJECTION_OVERHEAD: f64 = 4.0;

/// How many query points the join-size probe exact-counts.
const PROBE_POINTS: usize = 512;

/// What [`crate::Engine::auto`] decided, and the estimates that drove
/// the decision.
///
/// The estimate fields are `None` when the small-input fast path
/// (rule 1) fired: the planner never built the grid, so no `Σµ` or
/// `|Ĵ|` exists — `0.0` sentinels would read as "empty join".
#[derive(Clone, Copy, Debug)]
pub struct PlanReport {
    /// `|R|`.
    pub n: usize,
    /// `|S|`.
    pub m: usize,
    /// The §III-B grid upper bound `Σ_r µ(r)` (9-cell populations).
    pub mu_grid_total: Option<f64>,
    /// Estimated join cardinality `|Ĵ|` from the sampled exact-count
    /// probe.
    pub est_join_size: Option<f64>,
    /// Estimated rejection overhead `Σµ / |Ĵ|` (`f64::INFINITY` when
    /// the probe found an empty join).
    pub est_overhead: Option<f64>,
    /// The chosen algorithm.
    pub algorithm: Algorithm,
    /// How many `R` shards the build was planned for (`1` =
    /// unsharded). Sharding never changes the algorithm choice — the
    /// per-iteration distribution is shard-oblivious — but it is
    /// recorded here because the shard count is part of the build's
    /// identity (the [`crate::EngineCache`] keys on it).
    pub num_shards: usize,
    /// Whether the engine serving this plan has the buffered draw fast
    /// path active. The planner itself always stamps `false` — buffer
    /// state is a serving-time property, not a build-time decision —
    /// and [`crate::Engine::plan`] overwrites it with the live flag.
    pub buffers: bool,
    /// Human-readable decision rationale.
    pub reason: &'static str,
}

/// The grid [`plan`] built for its estimate, with what it cost: the
/// sorts of `S` (zero unless this was the first grid on the set) and
/// the grid build proper.
pub(crate) struct DonatedGrid {
    pub(crate) grid: Grid,
    pub(crate) sort_time: std::time::Duration,
    pub(crate) build_time: std::time::Duration,
}

/// Runs the `O(n + m)` estimate and picks an algorithm.
///
/// Also returns the grid built for the estimate so
/// [`crate::Engine::auto`] can donate it to the chosen index build
/// instead of paying the grid-mapping phase twice; `None` on the
/// small-input fast path, which never builds a grid. The grid shares
/// `s` with the caller, so the set keeps its sorted orders.
pub(crate) fn plan(
    r: &[Point],
    s: &Arc<PointSet>,
    config: &SampleConfig,
    shards: usize,
) -> (PlanReport, Option<DonatedGrid>) {
    let n = r.len();
    let m = s.len();
    // One shard per R point is the most that can ever help.
    let num_shards = shards.clamp(1, n.max(1));

    // Rule 1: tiny problems — exact counting is cheaper than estimating.
    if (n as f64) * (m as f64).sqrt() <= KDS_COST_BUDGET {
        let report = PlanReport {
            n,
            m,
            mu_grid_total: None,
            est_join_size: None,
            est_overhead: None,
            algorithm: Algorithm::Kds,
            num_shards,
            buffers: false,
            reason: "n·√m below the exact-counting budget: KDS's zero-rejection \
                     sampling wins and its O(n√m) build is negligible",
        };
        return (report, None);
    }

    // The same grid KDS-rejection would build (O(m)), reused here for
    // both the full Σµ and the probe's exact window counts, then
    // donated to the chosen index build.
    let sort_time = s.ensure_orders();
    let t_grid = std::time::Instant::now();
    let grid = Grid::build(s, config.half_extent);
    let build_time = t_grid.elapsed();

    // Full §III-B upper bound: Σ over all r of the 9-cell population.
    let mu_grid_total: f64 = r
        .iter()
        .map(|&rp| grid.neighborhood_population(rp) as f64)
        .sum();

    // Sampled |J| estimate: exact-count an evenly-spaced subset of R
    // and scale. Evenly spaced (not random) keeps the planner
    // deterministic for a given input.
    let probes = PROBE_POINTS.min(n);
    let stride = (n / probes).max(1);
    let mut probed = 0usize;
    let mut probe_sum = 0usize;
    for i in (0..n).step_by(stride) {
        probe_sum += grid.exact_window_count(&Rect::window(r[i], config.half_extent));
        probed += 1;
    }
    let est_join_size = probe_sum as f64 * (n as f64 / probed.max(1) as f64);

    let est_overhead = if est_join_size > 0.0 {
        mu_grid_total / est_join_size
    } else {
        f64::INFINITY
    };

    // Rule 2: tight bounds — rejection sampling's expected iterations
    // per sample (= the overhead) are acceptable and its build is the
    // cheapest of the three.
    let (algorithm, reason) = if est_overhead <= MAX_REJECTION_OVERHEAD {
        (
            Algorithm::KdsRejection,
            "grid bounds are tight (estimated Σµ/|J| within budget): rejection \
             sampling's cheap build wins and rejections stay rare",
        )
    } else {
        // Rule 3: loose bounds — BBST's Õ(1)-per-sample guarantee is
        // immune to the overhead.
        (
            Algorithm::Bbst,
            "grid bounds are loose (estimated Σµ/|J| over budget): BBST's \
             bounded per-sample cost beats rejection's unbounded retries",
        )
    };

    let report = PlanReport {
        n,
        m,
        mu_grid_total: Some(mu_grid_total),
        est_join_size: Some(est_join_size),
        est_overhead: Some(est_overhead),
        algorithm,
        num_shards,
        buffers: false,
        reason,
    };
    let donated = DonatedGrid {
        grid,
        sort_time,
        build_time,
    };
    (report, Some(donated))
}

/// Re-plans from a **serving-time** observation instead of a build-time
/// estimate: the feedback half of the adaptive planner.
///
/// `observed_overhead` is the measured `iterations / samples` of the
/// running engine (`SamplerHandle::rejection_rate` /
/// `StatsSnapshot::rejection_rate`) — the ground truth the build-time
/// `Σµ/|Ĵ|` estimate tried to predict. The decision rules are the same
/// as `plan`'s, with the observation replacing the estimate:
///
/// 1. `n·√m ≤` [`KDS_COST_BUDGET`] → **KDS**;
/// 2. observed overhead within [`MAX_REJECTION_OVERHEAD`] →
///    **KDS-rejection**;
/// 3. otherwise → **BBST** (per-sample cost insensitive to the
///    overhead).
///
/// `EpochEngine` calls this when the observation diverges from
/// `PlanReport::est_overhead` and hot-swaps the algorithm through its
/// epoch mechanism if the answer differs from the running one.
pub fn replan_for_observed(
    n: usize,
    m: usize,
    observed_overhead: f64,
) -> (Algorithm, &'static str) {
    if (n as f64) * (m as f64).sqrt() <= KDS_COST_BUDGET {
        (
            Algorithm::Kds,
            "n·√m below the exact-counting budget: KDS's zero-rejection \
             sampling wins regardless of the observed overhead",
        )
    } else if observed_overhead <= MAX_REJECTION_OVERHEAD {
        (
            Algorithm::KdsRejection,
            "observed rejection overhead within budget: rejection \
             sampling's cheap build wins",
        )
    } else {
        (
            Algorithm::Bbst,
            "observed rejection overhead over budget: BBST's bounded \
             per-sample cost beats rejection's measured retries",
        )
    }
}

/// How many loose cells one repair pass will re-tighten at most — a
/// repair pays one UB pass regardless, so repairing a handful of the
/// worst offenders per pass keeps each decision measurable.
pub const MAX_REPAIR_CELLS: usize = 32;

/// Picks the cells a targeted repair should re-tighten from the
/// measured per-cell rejection counters: every slot with at least
/// `min_rejections` attributed rejections, worst first, capped at
/// [`MAX_REPAIR_CELLS`]. Empty when no cell clears the floor — the
/// caller escalates to [`replan_for_observed`] then.
pub fn repair_candidates(cell_rejections: &[u64], min_rejections: u64) -> Vec<u32> {
    let mut slots: Vec<u32> = cell_rejections
        .iter()
        .enumerate()
        .filter(|(_, &c)| c >= min_rejections.max(1))
        .map(|(i, _)| i as u32)
        .collect();
    slots.sort_unstable_by_key(|&i| std::cmp::Reverse(cell_rejections[i as usize]));
    slots.truncate(MAX_REPAIR_CELLS);
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_candidates_are_floored_ranked_and_capped() {
        let mut rejections = vec![0u64; 100];
        rejections[7] = 500;
        rejections[3] = 900;
        rejections[42] = 10;
        assert_eq!(repair_candidates(&rejections, 64), vec![3, 7]);
        assert_eq!(repair_candidates(&rejections, 5), vec![3, 7, 42]);
        assert!(repair_candidates(&rejections, 1_000).is_empty());
        // a zero floor still requires at least one rejection
        assert_eq!(repair_candidates(&rejections, 0).len(), 3);
        // cap
        let many = vec![100u64; 200];
        assert_eq!(repair_candidates(&many, 1).len(), MAX_REPAIR_CELLS);
    }

    #[test]
    fn replan_follows_the_observed_overhead() {
        // big enough to clear the KDS budget
        let (n, m) = (100_000, 100_000);
        assert_eq!(replan_for_observed(n, m, 1.5).0, Algorithm::KdsRejection);
        assert_eq!(replan_for_observed(n, m, 40.0).0, Algorithm::Bbst);
        // tiny input: KDS regardless of the observation
        assert_eq!(replan_for_observed(50, 50, 40.0).0, Algorithm::Kds);
    }

    #[test]
    fn tiny_input_picks_kds() {
        let r: Vec<Point> = (0..50).map(|i| Point::new(i as f64, i as f64)).collect();
        let s = Arc::new(PointSet::new(r.clone()));
        let (p, grid) = plan(&r, &s, &SampleConfig::new(2.0), 1);
        assert_eq!(p.algorithm, Algorithm::Kds);
        assert_eq!(p.num_shards, 1);
        assert!(
            p.est_overhead.is_none(),
            "fast path must not fake estimates"
        );
        assert!(grid.is_none());
    }

    #[test]
    fn shard_count_is_recorded_and_clamped() {
        let r: Vec<Point> = (0..50).map(|i| Point::new(i as f64, i as f64)).collect();
        let s = Arc::new(PointSet::new(r.clone()));
        let (p, _) = plan(&r, &s, &SampleConfig::new(2.0), 8);
        assert_eq!(p.num_shards, 8);
        // more shards than R points is pointless
        let (p, _) = plan(&r, &s, &SampleConfig::new(2.0), 1_000);
        assert_eq!(p.num_shards, 50);
        // zero normalises to unsharded
        let (p, _) = plan(&r, &s, &SampleConfig::new(2.0), 0);
        assert_eq!(p.num_shards, 1);
    }

    #[test]
    fn probe_scales_to_full_population() {
        // uniform grid of points: the probe's scaled estimate must land
        // near the true join size
        let r: Vec<Point> = (0..4_000)
            .map(|i| Point::new((i % 64) as f64, (i / 64) as f64))
            .collect();
        let s = Arc::new(PointSet::new(r.clone()));
        let cfg = SampleConfig::new(3.0);
        let (p, grid) = plan(&r, &s, &cfg, 1);
        assert!(grid.is_some(), "estimation grid must be donated");
        let est = p.est_join_size.unwrap();
        let true_join = srj_join::grid_join(&r, &s, 3.0).len() as f64;
        let rel = (est - true_join).abs() / true_join;
        assert!(rel < 0.2, "estimate {est} vs true {true_join}");
        assert!(p.mu_grid_total.unwrap() >= true_join);
    }
}
