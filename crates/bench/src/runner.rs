//! Build-and-run helpers shared by the experiments of
//! [`crate::experiments`].

use rand::rngs::SmallRng;
use rand::SeedableRng;
use srj_core::{
    BbstKdVariantSampler, BbstSampler, JoinSampler, KdsRejectionSampler, KdsSampler, PhaseReport,
    SampleConfig, SampleError,
};
use srj_geom::Point;

/// Builds the KDS baseline (single-threaded build; `KdsSampler::build`
/// takes a full config).
pub fn build_kds(r: &[Point], s: &[Point], l: f64) -> KdsSampler {
    KdsSampler::build(r, s, &SampleConfig::new(l))
}

/// Builds the KDS-rejection baseline (single-threaded build).
pub fn build_rejection(r: &[Point], s: &[Point], l: f64) -> KdsRejectionSampler {
    KdsRejectionSampler::build(r, s, &SampleConfig::new(l))
}

/// Builds the proposed BBST sampler (single-threaded build).
pub fn build_bbst(r: &[Point], s: &[Point], l: f64) -> BbstSampler {
    BbstSampler::build(r, s, &SampleConfig::new(l))
}

/// Builds the Fig. 9 per-cell kd-tree variant.
pub fn build_variant(r: &[Point], s: &[Point], l: f64) -> BbstKdVariantSampler {
    BbstKdVariantSampler::build(r, s, &SampleConfig::new(l))
}

/// Everything one experiment row needs about one algorithm run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Algorithm name as reported in the paper's tables.
    pub name: &'static str,
    /// Phase decomposition after `t` samples.
    pub report: PhaseReport,
    /// Retained-structure footprint.
    pub memory_bytes: usize,
}

impl RunOutcome {
    /// `seconds` helper for table formatting.
    pub fn total_secs(&self) -> f64 {
        self.report.total().as_secs_f64()
    }
}

/// Draws `t` samples with a deterministic RNG and returns the combined
/// outcome, or `None` when the join is empty — as it may be at a small
/// `--scale`. Panics on any other sampling error.
pub fn run_sampler(sampler: &mut dyn JoinSampler, t: usize, seed: u64) -> Option<RunOutcome> {
    let mut rng = SmallRng::seed_from_u64(seed);
    match sampler.sample(t, &mut rng) {
        Ok(_) => {}
        Err(SampleError::EmptyJoin) => return None,
        Err(e) => panic!("{} failed: {e}", sampler.name()),
    }
    Some(RunOutcome {
        name: sampler.name(),
        report: sampler.report(),
        memory_bytes: sampler.memory_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::scaled_spec;
    use srj_datagen::DatasetKind;

    #[test]
    fn run_all_algorithms_smoke() {
        let d = scaled_spec(DatasetKind::Uniform, 0.02, 0.5, 3);
        let l = 100.0;
        let t = 2_000;
        let mut outcomes = Vec::new();
        let mut kds = build_kds(&d.r, &d.s, l);
        outcomes.push(run_sampler(&mut kds, t, 1));
        let mut rej = build_rejection(&d.r, &d.s, l);
        outcomes.push(run_sampler(&mut rej, t, 1));
        let mut bbst = build_bbst(&d.r, &d.s, l);
        outcomes.push(run_sampler(&mut bbst, t, 1));
        let mut var = build_variant(&d.r, &d.s, l);
        outcomes.push(run_sampler(&mut var, t, 1));
        for o in outcomes.into_iter().map(|o| o.expect("a non-empty join")) {
            assert_eq!(o.report.samples, t as u64, "{}", o.name);
            assert!(o.memory_bytes > 0);
            assert!(o.total_secs() > 0.0);
        }
    }
}
