//! Fixed-seed streams, pinned byte for byte.
//!
//! The base lines of `tests/fixtures/golden_streams.txt` were recorded at
//! the commit before the engine's index became one shape (`ShardedIndex`
//! of one or more shards): a one-shard index must draw what the plain
//! index drew, and a three-shard one what the sharded index drew, through
//! both `sample_batch` (the serving path, buffers armed) and `sample`.
//!
//! The `overlay` lines were recorded at the commit before base rows and
//! overlay rows became one type: an epoch engine with pending `R` and `S`
//! inserts over three minor swaps and a tombstone on each side must draw
//! what the overlay's own row and pick drew.

use srj::{Algorithm, Engine, EpochConfig, EpochEngine, JoinPair, Point, SampleConfig};

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

fn line(prefix: &str, shards: usize, entry: &str, pairs: &[JoinPair]) -> String {
    let pairs: Vec<String> = pairs.iter().map(|p| format!("{}:{}", p.r, p.s)).collect();
    format!("{prefix} {shards} {entry} {}\n", pairs.join(" "))
}

/// The fixture's lines that are (`true`) or are not overlay lines.
fn golden(overlay: bool) -> String {
    include_str!("fixtures/golden_streams.txt")
        .split_inclusive('\n')
        .filter(|l| l.starts_with("overlay ") == overlay)
        .collect()
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
            actual += &line(&algorithm.to_string(), shards, "sample_batch", &batch[..32]);
            let plain = engine.handle_seeded(7).sample(200).unwrap();
            actual += &line(&algorithm.to_string(), shards, "sample", &plain[..32]);
        }
    }
    let golden = golden(false);
    assert!(
        actual == golden,
        "streams moved; drawn now:\n{actual}\nrecorded:\n{golden}"
    );
}

#[test]
fn overlay_engine_streams_match_the_recorded_fixture() {
    let (r, s) = (pseudo_points(400, 71, 60.0), pseudo_points(600, 72, 60.0));
    let (more_r, more_s) = (pseudo_points(150, 73, 60.0), pseudo_points(200, 74, 60.0));
    let cfg = SampleConfig::new(4.0);
    let mut actual = String::new();
    for algorithm in [Algorithm::Kds, Algorithm::Bbst] {
        for shards in [1, 3] {
            let epoch_cfg = EpochConfig::default()
                .with_rebuild_fraction(1.0)
                .with_algorithm(algorithm)
                .with_shards(shards);
            let engine = EpochEngine::new(r.clone(), s.clone(), &cfg, epoch_cfg);
            // Three minor swaps: the second's `S` chunk sees the first's
            // `R` inserts and the third's `R` chunk every `S` insert, so
            // both sides' cross parts are live. Then one tombstone each
            // of a base and an inserted point.
            for (r_tail, s_tail) in [(0..50, 0..0), (50..50, 0..120), (50..150, 120..200)] {
                for &p in &more_r[r_tail] {
                    engine.insert_r(p);
                }
                for &p in &more_s[s_tail] {
                    engine.insert_s(p);
                }
                engine.refresh();
            }
            assert!(engine.delete_s(5) && engine.delete_r(400 + 7));
            engine.refresh();
            assert_eq!((engine.minor_swaps(), engine.major_swaps()), (4, 0));

            let prefix = format!("overlay {algorithm}");
            let batch = engine.handle_seeded(7).sample_batch(200).unwrap();
            let plain = engine.handle_seeded(7).sample(200).unwrap();
            for pairs in [&batch, &plain] {
                assert!(
                    pairs[..96].iter().any(|p| p.r >= 400 && p.s >= 600),
                    "no cross-part pair among the pinned ones"
                );
            }
            actual += &line(&prefix, shards, "sample_batch", &batch[..96]);
            actual += &line(&prefix, shards, "sample", &plain[..96]);
        }
    }
    let golden = golden(true);
    assert!(
        actual == golden,
        "overlay streams moved; drawn now:\n{actual}\nrecorded:\n{golden}"
    );
}
