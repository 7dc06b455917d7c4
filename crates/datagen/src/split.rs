use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srj_geom::Point;

/// Randomly assigns each point to `R` (with probability `r_fraction`) or
/// `S`, mirroring the paper's setup: "For each dataset, we randomly
/// assigned each point to R or S. By default, |R| ≈ |S|" (§V-A), and the
/// Fig. 8 sweep over `n / (n + m)`.
///
/// Deterministic for a given seed. Each side is allocated at exactly its
/// length — a served base set keeps the `Vec` it is given — by tossing
/// the seeded coins once to count and once more to deal.
pub fn split_rs(points: &[Point], r_fraction: f64, seed: u64) -> (Vec<Point>, Vec<Point>) {
    assert!(
        (0.0..=1.0).contains(&r_fraction),
        "r_fraction must be within [0, 1], got {r_fraction}"
    );
    let coins = || {
        let mut rng = SmallRng::seed_from_u64(seed);
        points
            .iter()
            .map(move |&p| (rng.gen::<f64>() < r_fraction, p))
    };
    let r_len = coins().filter(|&(to_r, _)| to_r).count();
    let mut r = Vec::with_capacity(r_len);
    let mut s = Vec::with_capacity(points.len() - r_len);
    for (to_r, p) in coins() {
        if to_r {
            r.push(p);
        } else {
            s.push(p);
        }
    }
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
