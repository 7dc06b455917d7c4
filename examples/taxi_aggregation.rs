//! Approximate spatial aggregation over an NYC-taxi-like join
//! (introduction application: "spatial aggregation ... random samples
//! are sufficient").
//!
//! The analytical question: *for each borough-like zone, how many
//! (pick-up, drop-off) pairs fall within l of each other?* — i.e. the
//! per-zone share of the spatial range join. Exact answering costs
//! `Ω(|J|)`; with `t` uniform samples, `share ≈ hits/t` with standard
//! Monte-Carlo error, and the absolute count is `share × |J|`.
//!
//! ```sh
//! cargo run --release --example taxi_aggregation
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use srj::{generate, split_rs, BbstSampler, DatasetKind, DatasetSpec, JoinSampler, SampleConfig};
use srj_geom::DEFAULT_DOMAIN;

const ZONES: usize = 4; // 4×4 zones

fn zone_of(x: f64, y: f64) -> usize {
    let cell = DEFAULT_DOMAIN / ZONES as f64;
    let i = ((x / cell) as usize).min(ZONES - 1);
    let j = ((y / cell) as usize).min(ZONES - 1);
    j * ZONES + i
}

fn main() {
    // pick-ups = R, drop-offs = S
    let points = generate(&DatasetSpec::new(DatasetKind::TaxiHotspots, 60_000, 9));
    let (pickups, dropoffs) = split_rs(&points, 0.5, 13);
    let config = SampleConfig::new(40.0);

    // Ground truth per zone (feasible only at this demo scale).
    let join = srj::join::grid_join(&pickups, &dropoffs, config.half_extent);
    let join_size = join.len() as f64;
    let mut exact = [0f64; ZONES * ZONES];
    for &(ri, _) in &join {
        let p = pickups[ri as usize];
        exact[zone_of(p.x, p.y)] += 1.0;
    }

    // Estimate from samples. |J| itself is estimated from the sampler's
    // acceptance statistics: |J| ≈ Σµ × accept-rate (unbiased because a
    // sampling iteration accepts with probability |J| / Σµ).
    let mut sampler = BbstSampler::build(&pickups, &dropoffs, &config);
    let mut rng = SmallRng::seed_from_u64(17);
    let t = 40_000;
    let samples = sampler.sample(t, &mut rng).expect("non-empty join");
    let estimated_join_size = sampler.estimate_join_size().expect("sampled at least once");

    let mut est = [0f64; ZONES * ZONES];
    for p in &samples {
        let rp = pickups[p.r as usize];
        est[zone_of(rp.x, rp.y)] += 1.0;
    }

    println!("|J| exact = {join_size:.0}, estimated = {estimated_join_size:.0}");
    println!("zone  exact-count  est-count  rel-err");
    let mut max_rel = 0f64;
    for z in 0..ZONES * ZONES {
        let exact_cnt = exact[z];
        let est_cnt = est[z] / t as f64 * estimated_join_size;
        let rel = if exact_cnt > 0.0 {
            (est_cnt - exact_cnt).abs() / exact_cnt
        } else {
            0.0
        };
        // only report zones carrying ≥ 1% of the join
        if exact_cnt >= join_size * 0.01 {
            println!(
                "{z:>4}  {exact_cnt:>11.0}  {est_cnt:>9.0}  {:>6.2}%",
                rel * 100.0
            );
            max_rel = max_rel.max(rel);
        }
    }
    println!(
        "max relative error over major zones: {:.2}%",
        max_rel * 100.0
    );
    assert!(
        (estimated_join_size - join_size).abs() / join_size < 0.05,
        "join size estimate off by more than 5%"
    );
    assert!(
        max_rel < 0.2,
        "zone aggregate estimate off by more than 20%"
    );
}
