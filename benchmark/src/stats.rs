//! Estimators. Every reported value is a median of per-round values,
//! published with its quartiles; a percentile is only reported when
//! enough samples lie beyond it to pin it down.

/// Samples that must lie strictly beyond a percentile before it is
/// reported (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), which is what the driver computes spreads with. Needs two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Nearest-rank percentile `p` in `(0, 1)`. `None` — refusing to
/// report — unless at least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile must be inside (0, 1)");
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

/// A per-round series reduced for publication.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub rounds: usize,
}

/// Median and quartiles of per-round values; one round publishes its
/// value as all three.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let med = median(values)?;
    let (q1, _, q3) = quartiles(values).unwrap_or((med, med, med));
    Some(Summary {
        median: med,
        q1,
        q3,
        rounds: sorted(values).len(),
    })
}
