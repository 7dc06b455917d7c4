//! The correctness gate, run first and untimed: the paper's contract is
//! exact uniformity over the current join, so every algorithm family is
//! checked against the materialised join — over loopback, and in-process
//! through an `EpochEngine` with inserts and deletes pending.
//!
//! False-positive budget: each check is one chi-squared test at
//! significance 1e-6; with six checks (Bonferroni) a correct sampler
//! fails `verify` with probability at most 6e-6. Seeds are fixed, so a
//! given build either passes every time or fails every time.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srj_core::{JoinPair, SampleConfig};
use srj_datagen::{generate, split_rs, DatasetKind, DatasetSpec};
use srj_engine::{Algorithm, EpochConfig, EpochEngine};
use srj_geom::{Point, PointId};
use srj_join::grid_join;
use srj_server::{Client, DatasetRegistry, RequestStatus, SampleRequest, Server};

use crate::json::Json;
use crate::round::{client_config, server_config};
use crate::workload::DATASET_ID;

pub const FAMILIES: [Algorithm; 3] = [Algorithm::Kds, Algorithm::KdsRejection, Algorithm::Bbst];

const POINTS: usize = 4_000;
const SAMPLES: u64 = 200_000;
const HALF_EXTENT: f64 = 150.0;
const DATA_SEED: u64 = 0x5EED_0001;
const DRAW_SEED: u64 = 0x5EED_0002;
/// Standard normal quantile of 1 − 1e-6.
const Z_ONE_IN_A_MILLION: f64 = 4.753_424;

#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    /// Pairs of the materialised join: the chi-squared cells.
    pub join_pairs: usize,
    pub samples: usize,
    /// Samples that are not pairs of the join at all.
    pub foreign: usize,
    pub chi2: f64,
    pub critical: f64,
}

impl Check {
    pub fn passed(&self) -> bool {
        self.foreign == 0 && self.samples as u64 == SAMPLES && self.chi2 <= self.critical
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name.clone())),
            ("join_pairs", Json::Num(self.join_pairs as f64)),
            ("samples", Json::Num(self.samples as f64)),
            ("foreign", Json::Num(self.foreign as f64)),
            ("chi2", Json::Num(self.chi2)),
            ("critical", Json::Num(self.critical)),
            ("passed", Json::Bool(self.passed())),
        ])
    }
}

/// Upper critical value of chi-squared with `df` degrees of freedom at
/// significance 1e-6 (Wilson–Hilferty; accurate to a fraction of a
/// percent for the thousands of degrees of freedom used here).
fn chi2_critical(df: f64) -> f64 {
    let a = 2.0 / (9.0 * df);
    df * (1.0 - a + Z_ONE_IN_A_MILLION * a.sqrt()).powi(3)
}

fn check(name: String, join: &[(PointId, PointId)], samples: &[JoinPair]) -> Check {
    let mut observed: HashMap<(PointId, PointId), u64> = join.iter().map(|&p| (p, 0)).collect();
    let mut foreign = 0usize;
    for p in samples {
        match observed.get_mut(&(p.r, p.s)) {
            Some(n) => *n += 1,
            None => foreign += 1,
        }
    }
    let expected = samples.len() as f64 / join.len().max(1) as f64;
    let chi2 = observed
        .values()
        .map(|&n| (n as f64 - expected).powi(2) / expected)
        .sum();
    Check {
        name,
        join_pairs: join.len(),
        samples: samples.len(),
        foreign,
        chi2,
        critical: chi2_critical((join.len().max(2) - 1) as f64),
    }
}

fn dataset() -> (Vec<Point>, Vec<Point>) {
    let points = generate(&DatasetSpec::new(DatasetKind::Uniform, POINTS, DATA_SEED));
    split_rs(&points, 0.5, DATA_SEED ^ 1)
}

fn over_loopback(family: Algorithm, r: &[Point], s: &[Point]) -> Result<Check, String> {
    let mut registry = DatasetRegistry::new();
    registry.register(DATASET_ID, r.to_vec(), s.to_vec());
    let mut server = Server::start("127.0.0.1:0", registry, server_config())
        .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect_with(server.local_addr(), client_config())
        .map_err(|e| format!("connect: {e}"))?;
    let answer = client
        .sample(SampleRequest {
            req_id: 0,
            dataset: DATASET_ID,
            l: HALF_EXTENT,
            algorithm: Some(family),
            shards: 1,
            t: SAMPLES,
            seed: DRAW_SEED,
        })
        .map_err(|e| format!("sample: {e}"))?;
    drop(client);
    server.shutdown();
    if answer.status != RequestStatus::Ok {
        return Err(format!("{family} over loopback ended {}", answer.status));
    }
    let join = grid_join(r, s, HALF_EXTENT);
    Ok(check(format!("{family}/loopback"), &join, &answer.pairs))
}

/// Inserts and deletes on both sides, few enough to stay pending (an
/// overlay, not a rebuild), then draws through the engine and compares
/// with the join of the store's own live view.
fn with_pending_updates(family: Algorithm, r: &[Point], s: &[Point]) -> Result<Check, String> {
    let config = SampleConfig::new(HALF_EXTENT);
    let engine = EpochEngine::new(
        r.to_vec(),
        s.to_vec(),
        &config,
        EpochConfig::default().with_algorithm(family),
    );
    let mut rng = SmallRng::seed_from_u64(DATA_SEED ^ 2);
    let store = engine.store();
    let mut nearby = |base: &[Point]| -> Vec<Point> {
        (0..100)
            .map(|_| {
                let p = base[rng.gen_range(0..base.len())];
                Point::new(
                    p.x + rng.gen_range(-50.0..50.0),
                    p.y + rng.gen_range(-50.0..50.0),
                )
            })
            .collect()
    };
    store.insert_r_batch(&nearby(s));
    store.insert_s_batch(&nearby(r));
    let ids = |n: usize| -> Vec<PointId> { (0..50).map(|i| (i * n / 50) as PointId).collect() };
    store.delete_r_batch(&ids(r.len()));
    store.delete_s_batch(&ids(s.len()));

    let samples = engine
        .handle_seeded(DRAW_SEED)
        .sample_batch(SAMPLES as usize)
        .map_err(|e| format!("{family} with pending updates: {e}"))?;
    if engine.major_swaps() != 0 || engine.minor_swaps() == 0 {
        return Err(format!(
            "{family}: the updates were meant to stay pending behind an overlay"
        ));
    }
    let snapshot = store.snapshot();
    let (live_r, live_s) = (snapshot.live_r(), snapshot.live_s());
    let points = |live: &[(PointId, Point)]| live.iter().map(|&(_, p)| p).collect::<Vec<_>>();
    let join: Vec<(PointId, PointId)> = grid_join(&points(&live_r), &points(&live_s), HALF_EXTENT)
        .into_iter()
        .map(|(i, j)| (live_r[i as usize].0, live_s[j as usize].0))
        .collect();
    Ok(check(format!("{family}/pending-updates"), &join, &samples))
}

/// Both checks for each of `families`.
pub fn verify(families: &[Algorithm]) -> Result<Vec<Check>, String> {
    let (r, s) = dataset();
    let mut checks = Vec::new();
    for &family in families {
        checks.push(over_loopback(family, &r, &s)?);
        checks.push(with_pending_updates(family, &r, &s)?);
    }
    Ok(checks)
}
