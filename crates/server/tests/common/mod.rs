//! Helpers shared by the loopback test binaries of this crate.
#![allow(dead_code)] // each test binary uses its own subset

use srj_geom::Point;

/// `n` xorshift points in `[0, extent)²`, a pure function of `seed`.
pub fn pseudo_points(n: usize, seed: u64, extent: f64) -> Vec<Point> {
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

/// The value of an unlabeled `name value` series in a Prometheus text
/// exposition (0 when absent).
pub fn metric_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(name)?;
            rest.strip_prefix(' ')?.trim().parse::<f64>().ok()
        })
        .unwrap_or(0.0)
}
