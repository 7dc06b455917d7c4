//! Fixed-seed streams, pinned byte for byte.
//!
//! The base lines of `tests/fixtures/golden_streams.txt` were recorded at
//! the commit before the engine's index became one shape: the engine must
//! draw what the plain index drew. Each line is the stream of a seeded
//! handle's `sample_batch`, the one draw the server serves; its entry
//! still reads `sample`, the name of the handle's unbuffered draw when it
//! was recorded, so that the lines stay byte-identical.
//!
//! Every line carries a `1` after its prefix: the shard count of the
//! engine that recorded it, of which only one-shard lines remain. The
//! `1` stays so that the recorded lines stay byte-identical.
//!
//! The `overlay` lines were recorded at the commit before base rows and
//! overlay rows became one type: an epoch engine with pending `R` and `S`
//! inserts over three minor swaps and a tombstone on each side must draw
//! what the overlay's own row and pick drew.
//!
//! The `clustered` lines pin a BBST engine over clustered data, which
//! serves group rows (`srj_core::GroupIndex`), base and under an
//! overlay. They were re-recorded when a group row's draw began to rank
//! a cell's members in id order (`Cell::members`) instead of `(x, id)`
//! order: the same alias and row picks, another member at the rank.

use srj::{
    Algorithm, Engine, EpochConfig, EpochEngine, JoinPair, Point, PointId, RowGranularity,
    SampleConfig,
};

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

/// Tight clusters, far narrower than the window: the grid's block bound
/// is nearly exact and a BBST engine serves group rows
/// (`engine_serving.rs`'s data).
fn clustered_points(n: usize, seed: u64, extent: f64) -> Vec<Point> {
    let centres = pseudo_points(12, 77, extent - 2.0);
    pseudo_points(n, seed, 0.8)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let c = centres[i % centres.len()];
            Point::new(c.x + p.x, c.y + p.y)
        })
        .collect()
}

fn line(prefix: &str, entry: &str, pairs: &[JoinPair]) -> String {
    let pairs: Vec<String> = pairs.iter().map(|p| format!("{}:{}", p.r, p.s)).collect();
    format!("{prefix} 1 {entry} {}\n", pairs.join(" "))
}

/// The fixture's sections after the base one, by the first word of
/// their lines.
const SECTIONS: [&str; 2] = ["overlay ", "clustered "];

/// The fixture's lines of one section (`None`: the base lines).
fn golden(section: Option<&str>) -> String {
    include_str!("fixtures/golden_streams.txt")
        .split_inclusive('\n')
        .filter(|l| match section {
            Some(prefix) => l.starts_with(prefix),
            None => !SECTIONS.iter().any(|prefix| l.starts_with(prefix)),
        })
        .collect()
}

/// An epoch engine over `r` and `s` with pending `R` and `S` inserts
/// over three minor swaps — the second's `S` chunk sees the first's `R`
/// inserts and the third's `R` chunk every `S` insert, so both sides'
/// cross parts are live — then one tombstone each of a base and an
/// inserted point.
fn overlay_engine(
    (r, s): (&[Point], &[Point]),
    (more_r, more_s): (&[Point], &[Point]),
    algorithm: Algorithm,
) -> EpochEngine {
    let epoch_cfg = EpochConfig::default()
        .with_rebuild_fraction(1.0)
        .with_algorithm(algorithm);
    let engine = EpochEngine::new(r.to_vec(), s.to_vec(), &SampleConfig::new(4.0), epoch_cfg);
    for (r_tail, s_tail) in [(0..50, 0..0), (50..50, 0..120), (50..150, 120..200)] {
        for &p in &more_r[r_tail] {
            engine.insert_r(p);
        }
        for &p in &more_s[s_tail] {
            engine.insert_s(p);
        }
        engine.refresh();
    }
    assert!(engine.delete_s(5) && engine.delete_r(r.len() as PointId + 7));
    engine.refresh();
    assert_eq!((engine.minor_swaps(), engine.major_swaps()), (4, 0));
    engine
}

/// The first 96 pairs of a seeded `sample_batch` of an overlay engine
/// as a fixture line; they must hold a cross-part pair.
fn overlay_line(engine: &EpochEngine, (n, m): (usize, usize), prefix: &str) -> String {
    let pairs = engine.handle_seeded(7).sample_batch(200).unwrap();
    assert!(
        pairs[..96]
            .iter()
            .any(|p| p.r as usize >= n && p.s as usize >= m),
        "no cross-part pair among the pinned ones"
    );
    line(prefix, "sample", &pairs[..96])
}

#[test]
fn base_engine_streams_match_the_recorded_fixture() {
    let r = pseudo_points(400, 71, 60.0);
    let s = pseudo_points(600, 72, 60.0);
    let cfg = SampleConfig::new(4.0);
    let mut actual = String::new();
    for algorithm in [Algorithm::Kds, Algorithm::KdsRejection, Algorithm::Bbst] {
        let engine = Engine::build(&r, &s, &cfg, algorithm);
        let pairs = engine.handle_seeded(7).sample_batch(200).unwrap();
        actual += &line(&algorithm.to_string(), "sample", &pairs[..32]);
    }
    let golden = golden(None);
    assert!(
        actual == golden,
        "streams moved; drawn now:\n{actual}\nrecorded:\n{golden}"
    );
}

#[test]
fn overlay_engine_streams_match_the_recorded_fixture() {
    let (r, s) = (pseudo_points(400, 71, 60.0), pseudo_points(600, 72, 60.0));
    let (more_r, more_s) = (pseudo_points(150, 73, 60.0), pseudo_points(200, 74, 60.0));
    let mut actual = String::new();
    for algorithm in [Algorithm::Kds, Algorithm::Bbst] {
        let engine = overlay_engine((&r, &s), (&more_r, &more_s), algorithm);
        let prefix = format!("overlay {algorithm}");
        actual += &overlay_line(&engine, (r.len(), s.len()), &prefix);
    }
    let golden = golden(Some("overlay "));
    assert!(
        actual == golden,
        "overlay streams moved; drawn now:\n{actual}\nrecorded:\n{golden}"
    );
}

/// Group rows, base and under an overlay: the engines must serve group
/// rows, or these lines would silently pin per-`r` rows instead.
#[test]
fn group_row_streams_match_the_recorded_fixture() {
    let [r, s, more_r, more_s] = [(400, 81), (600, 82), (150, 83), (200, 84)]
        .map(|(n, seed)| clustered_points(n, seed, 60.0));
    let cfg = SampleConfig::new(4.0);
    let mut actual = String::new();
    let engine = Engine::build(&r, &s, &cfg, Algorithm::Bbst);
    assert_eq!(engine.row_granularity(), RowGranularity::Group);
    let pairs = engine.handle_seeded(7).sample_batch(200).unwrap();
    actual += &line("clustered BBST", "sample", &pairs[..32]);

    let engine = overlay_engine((&r, &s), (&more_r, &more_s), Algorithm::Bbst);
    assert_eq!(engine.engine().row_granularity(), RowGranularity::Group);
    let prefix = "clustered overlay BBST";
    actual += &overlay_line(&engine, (r.len(), s.len()), prefix);
    let golden = golden(Some("clustered "));
    assert!(
        actual == golden,
        "group-row streams moved; drawn now:\n{actual}\nrecorded:\n{golden}"
    );
}
