//! Fixed-seed streams of base engines, pinned byte for byte.
//!
//! `tests/fixtures/golden_streams.txt` was recorded at the commit before
//! the engine's index became one shape (`ShardedIndex` of one or more
//! shards): a one-shard index must draw what the plain index drew, and a
//! three-shard one what the sharded index drew, through both
//! `sample_batch` (the serving path, buffers armed) and `sample`.

use srj::{Algorithm, Engine, JoinPair, Point, SampleConfig};

fn pseudo_points(n: usize, seed: u64, extent: f64) -> Vec<Point> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| Point::new(next() * extent, next() * extent))
        .collect()
}

fn line(algorithm: Algorithm, shards: usize, entry: &str, pairs: &[JoinPair]) -> String {
    let pairs: Vec<String> = pairs[..32]
        .iter()
        .map(|p| format!("{}:{}", p.r, p.s))
        .collect();
    format!("{algorithm} {shards} {entry} {}\n", pairs.join(" "))
}

#[test]
fn base_engine_streams_match_the_recorded_fixture() {
    let r = pseudo_points(400, 71, 60.0);
    let s = pseudo_points(600, 72, 60.0);
    let cfg = SampleConfig::new(4.0);
    let mut actual = String::new();
    for algorithm in [Algorithm::Kds, Algorithm::KdsRejection, Algorithm::Bbst] {
        for shards in [1, 3] {
            let engine = Engine::build_sharded(&r, &s, &cfg, algorithm, shards);
            let batch = engine.handle_seeded(7).sample_batch(200).unwrap();
            actual += &line(algorithm, shards, "sample_batch", &batch);
            let plain = engine.handle_seeded(7).sample(200).unwrap();
            actual += &line(algorithm, shards, "sample", &plain);
        }
    }
    let golden = include_str!("fixtures/golden_streams.txt");
    assert!(
        actual == golden,
        "streams moved; drawn now:\n{actual}\nrecorded:\n{golden}"
    );
}
