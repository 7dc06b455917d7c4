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
//! two: the §III-B grid upper bound `Σµ` (computed in full, one block
//! per group of `R`: [`srj_core::block_rows`]) and a sampled exact-count
//! estimate of `|J|` (`O(√n · cell)`), giving the expected rejection
//! overhead `Σµ/|J|` before committing to a build. Both are read off the
//! engine's one grid of `S`, which the build maps first and every family
//! then stands on: planning builds no grid of its own.
//!
//! Rule 2 is older than BBST's group rows ([`srj_core::GroupIndex`]),
//! which draw against the same `Σµ` from the same grid with no kd-tree
//! built and none queried, so wherever rule 2 picks KDS-rejection they
//! would serve the same iterations cheaper. The planner does not pick
//! them (under [`Algorithm::Bbst`] the build does, from a tighter test);
//! whether KDS-rejection keeps its rule is the rejection experiment's
//! decision (ROADMAP), not made here.

use srj_geom::{Point, Rect};
use srj_grid::Grid;

use crate::Algorithm;
use srj_core::{block_rows, SampleConfig};

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
/// (rule 1) fired: the planner estimated nothing, so no `Σµ` or `|Ĵ|`
/// exists — `0.0` sentinels would read as "empty join".
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
    /// Human-readable decision rationale.
    pub reason: &'static str,
}

/// Runs the `O(n + m)` estimate over `grid` — the engine's grid of
/// `S`, which the chosen family then stands on — and picks an
/// algorithm.
pub(crate) fn plan(r: &[Point], grid: &Grid, config: &SampleConfig) -> PlanReport {
    let n = r.len();
    let m = grid.num_points();

    // Rule 1: tiny problems — exact counting is cheaper than estimating.
    if (n as f64) * (m as f64).sqrt() <= KDS_COST_BUDGET {
        return PlanReport {
            n,
            m,
            mu_grid_total: None,
            est_join_size: None,
            est_overhead: None,
            algorithm: Algorithm::Kds,
            reason: "n·√m below the exact-counting budget: KDS's zero-rejection \
                     sampling wins and its O(n√m) build is negligible",
        };
    }

    // Full §III-B upper bound, Σ over all r of the 9-cell population,
    // taken a group of R at a time: Σ |R_g| · pop(block_g). Integers, so
    // the same f64 as the per-r sum.
    let groups = grid.group_by_cell(r);
    let mu_grid_total: f64 = block_rows(grid, r, &groups)
        .map(|(members, row, _)| members.len() as f64 * f64::from(row.total()))
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

    PlanReport {
        n,
        m,
        mu_grid_total: Some(mu_grid_total),
        est_join_size: Some(est_join_size),
        est_overhead: Some(est_overhead),
        algorithm,
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_input_picks_kds() {
        let r: Vec<Point> = (0..50).map(|i| Point::new(i as f64, i as f64)).collect();
        let grid = Grid::build(&r, 2.0);
        let p = plan(&r, &grid, &SampleConfig::new(2.0));
        assert_eq!(p.algorithm, Algorithm::Kds);
        assert!(
            p.est_overhead.is_none(),
            "fast path must not fake estimates"
        );
    }

    #[test]
    fn probe_scales_to_full_population() {
        // uniform grid of points: the probe's scaled estimate must land
        // near the true join size
        let r: Vec<Point> = (0..4_000)
            .map(|i| Point::new((i % 64) as f64, (i / 64) as f64))
            .collect();
        let cfg = SampleConfig::new(3.0);
        let p = plan(&r, &Grid::build(&r, 3.0), &cfg);
        let est = p.est_join_size.unwrap();
        let true_join = srj_join::grid_join(&r, &r, 3.0).len() as f64;
        let rel = (est - true_join).abs() / true_join;
        assert!(rel < 0.2, "estimate {est} vs true {true_join}");
        assert!(p.mu_grid_total.unwrap() >= true_join);
    }

    #[test]
    fn group_wise_bound_is_the_per_r_sum() {
        // Clumps and strays, some `r` beyond every cell of `S`.
        let at = |i: usize| Point::new((i * i % 257) as f64 * 0.37, (i * 7 % 101) as f64 * 0.91);
        let r: Vec<Point> = (0..3_000).map(|i| at(i + 11)).collect();
        let s: Vec<Point> = (0..9_000).map(at).collect();
        for l in [0.5, 2.0, 7.5] {
            let grid = Grid::build(&s, l);
            let p = plan(&r, &grid, &SampleConfig::new(l));
            let per_r: f64 = r
                .iter()
                .map(|&rp| grid.neighborhood_population(rp) as f64)
                .sum();
            assert_eq!(p.mu_grid_total, Some(per_r), "l = {l}");
        }
    }
}
