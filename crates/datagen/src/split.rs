use std::borrow::Cow;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srj_geom::Point;

/// Randomly assigns each point to `R` (with probability `r_fraction`) or
/// `S`, mirroring the paper's setup: "For each dataset, we randomly
/// assigned each point to R or S. By default, |R| ≈ |S|" (§V-A), and the
/// Fig. 8 sweep over `n / (n + m)`.
///
/// Deterministic for a given seed, and the same split whether `points`
/// is borrowed or handed over. The seeded coins are tossed once to count
/// `R` and once more to deal, and both sides come out at exactly their
/// length — a served base set keeps the `Vec` it is given. `R` is dealt
/// forward into the points' own buffer (a copy of them when borrowed):
/// the write position never passes the read one, so the order is kept,
/// and the buffer is then truncated and shrunk. Only `S` is allocated
/// beside it, so a handed-over split holds `n + |S|` points at its peak
/// instead of `2n`.
pub fn split_rs<'a>(
    points: impl Into<Cow<'a, [Point]>>,
    r_fraction: f64,
    seed: u64,
) -> (Vec<Point>, Vec<Point>) {
    assert!(
        (0.0..=1.0).contains(&r_fraction),
        "r_fraction must be within [0, 1], got {r_fraction}"
    );
    let mut r = points.into().into_owned();
    let n = r.len();
    let coins = || {
        let mut rng = SmallRng::seed_from_u64(seed);
        move || rng.gen::<f64>() < r_fraction
    };
    let mut to_r = coins();
    let r_len = (0..n).filter(|_| to_r()).count();
    let mut s = Vec::with_capacity(n - r_len);
    let mut to_r = coins();
    let mut dealt = 0;
    for i in 0..n {
        let p = r[i];
        if to_r() {
            r[dealt] = p;
            dealt += 1;
        } else {
            s.push(p);
        }
    }
    r.truncate(r_len);
    r.shrink_to_fit();
    (r, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i as f64, (i * 3) as f64))
            .collect()
    }

    #[test]
    fn partition_is_exact() {
        let points = pts(10_000);
        let (r, s) = split_rs(&points, 0.5, 9);
        assert_eq!(r.len() + s.len(), points.len());
        // every point lands on exactly one side, in order
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for p in r.iter().chain(s.iter()) {
            merged.push((p.x.to_bits(), p.y.to_bits()));
        }
        merged.sort_unstable();
        let mut orig: Vec<(u64, u64)> = points
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect();
        orig.sort_unstable();
        assert_eq!(merged, orig);
    }

    #[test]
    fn fraction_is_respected() {
        let points = pts(50_000);
        for frac in [0.1, 0.3, 0.5] {
            let (r, _) = split_rs(&points, frac, 4);
            let got = r.len() as f64 / points.len() as f64;
            assert!((got - frac).abs() < 0.02, "frac {frac}: got {got}");
        }
    }

    /// Both sides are allocated at their length, for fractions that put
    /// one point more or fewer on a side than expected, and the deal is
    /// the one a single pass of the same coins makes.
    #[test]
    fn sides_are_allocated_exactly() {
        let points = pts(5_001);
        for seed in [1, 2, 3, 0xDEAD_BEEF] {
            for frac in [0.0, 0.1, 0.37, 0.5, 0.9, 1.0] {
                let (r, s) = split_rs(&points, frac, seed);
                assert_eq!(r.capacity(), r.len(), "seed {seed}, frac {frac}");
                assert_eq!(s.capacity(), s.len(), "seed {seed}, frac {frac}");
                let mut rng = SmallRng::seed_from_u64(seed);
                let to_r: Vec<bool> = points.iter().map(|_| rng.gen::<f64>() < frac).collect();
                let dealt = |side: bool| -> Vec<Point> {
                    points
                        .iter()
                        .zip(&to_r)
                        .filter_map(|(&p, &r)| (r == side).then_some(p))
                        .collect()
                };
                assert_eq!((r, s), (dealt(true), dealt(false)));
            }
        }
    }

    /// Handing the points over deals the same two sides as lending
    /// them, byte for byte and at exact capacity, on every generator
    /// and at fractions that leave either side empty.
    #[test]
    fn owned_and_borrowed_split_alike() {
        use crate::{generate, DatasetKind, DatasetSpec};
        let bits = |side: &[Point]| -> Vec<(u64, u64)> {
            side.iter()
                .map(|p| (p.x.to_bits(), p.y.to_bits()))
                .collect()
        };
        let kinds = [DatasetKind::Uniform]
            .into_iter()
            .chain(DatasetKind::PAPER_ORDER);
        for kind in kinds {
            let points = generate(&DatasetSpec::new(kind, 3_001, 5));
            for frac in [0.0, 0.3, 0.5, 1.0] {
                let lent = split_rs(&points, frac, 17);
                // With growth slack, as a parsed file comes.
                let mut given = Vec::with_capacity(2 * points.len());
                given.extend_from_slice(&points);
                let handed = split_rs(given, frac, 17);
                for (side, lent, handed) in [("r", &lent.0, &handed.0), ("s", &lent.1, &handed.1)] {
                    assert_eq!(bits(lent), bits(handed), "{kind:?}, {frac}, {side}");
                    assert_eq!(lent.capacity(), lent.len(), "{kind:?}, {frac}, {side}");
                    assert_eq!(handed.capacity(), handed.len(), "{kind:?}, {frac}, {side}");
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let points = pts(1000);
        assert_eq!(split_rs(&points, 0.4, 8), split_rs(&points, 0.4, 8));
    }

    #[test]
    fn extreme_fractions() {
        let points = pts(100);
        let (r, s) = split_rs(&points, 0.0, 1);
        assert!(r.is_empty());
        assert_eq!(s.len(), 100);
        let (r, s) = split_rs(&points, 1.0, 1);
        assert_eq!(r.len(), 100);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "r_fraction must be within")]
    fn bad_fraction_panics() {
        split_rs(&[], 1.5, 0);
    }
}
