//! The R10 ladder of cell sides.
//!
//! A window of half-extent `l` stays inside the 3×3 block around its
//! centre's cell for **any** cell side `g ≥ l`, not only for `g = l`, so
//! a grid of side `g` — and whatever is a function of its blocks alone —
//! serves every window up to `g`. [`ladder_side`] maps `l` to a fixed
//! side of that kind: the least value of the R10 preferred-number series
//! `{100, 125, 160, 200, 250, 315, 400, 500, 630, 800} · 10^(k−2)` that
//! is `≥ l`. Windows whose side rounds up to one step can then stand on
//! one grid.
//!
//! Every step is one correctly rounded product or quotient of an integer
//! mantissa and an exact power of ten, so it is the `f64` its decimal
//! literal parses to (`1.6`, `315.0`, `6.3e-5`), and every step maps to
//! itself.

/// One decade of the ladder, as integer mantissas of `10^(k−2)`.
const MANTISSAS: [u32; 10] = [100, 125, 160, 200, 250, 315, 400, 500, 630, 800];

/// The powers of ten an `f64` holds exactly: `10^0 ..= 10^22`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The lowest and highest steps: `100 · 10^−22` and `800 · 10^22`.
/// Beyond them a step would need a power of ten that is not exact.
const LOWEST: f64 = 1e-20;
const HIGHEST: f64 = 8e24;

/// `mantissa · 10^e`, rounded once; `None` where `10^|e|` is not exact.
fn step(mantissa: u32, e: i32) -> Option<f64> {
    let power = *POW10.get(e.unsigned_abs() as usize)?;
    let m = f64::from(mantissa);
    Some(if e >= 0 { m * power } else { m / power })
}

/// The cell side a window of half-extent `l` stands on: the least R10
/// step `≥ l` (see the module docs), at most `160 / 125 = 1.28` times
/// `l`. A pure function of `l`.
///
/// `l` outside `[1e-20, 8e24]` — and a non-finite or non-positive `l` —
/// maps to itself: a step there would need an inexact power of ten.
pub fn ladder_side(l: f64) -> f64 {
    if !(LOWEST..=HIGHEST).contains(&l) {
        return l;
    }
    // The answer's exponent is the decade's less one or two; `log10`
    // may misplace the decade by one at its edges, and the scan runs
    // upwards from a step below `l`, so the first step `≥ l` is the
    // least.
    let decade = l.log10().floor() as i32;
    (decade - 4..=decade + 1)
        .flat_map(|e| MANTISSAS.iter().filter_map(move |&m| step(m, e)))
        .find(|&side| side >= l)
        .unwrap_or(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every step, from its literal, with the exponent it is written in.
    fn literals() -> impl Iterator<Item = String> {
        (-22..=22).flat_map(|e| MANTISSAS.iter().map(move |m| format!("{m}e{e}")))
    }

    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn next_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    /// Computed values, parsed decimals over `10⁻⁶ … 10⁶` and both
    /// sides of every power of ten.
    fn probes() -> Vec<f64> {
        let mut out: Vec<f64> = (1..=20_000)
            .flat_map(|k| [k as f64 * 0.1, k as f64 * 0.3])
            .collect();
        for e in -9..=3 {
            out.extend((1..=999).map(|m| format!("{m}e{e}").parse::<f64>().unwrap()));
        }
        for k in -19..=24 {
            let p: f64 = format!("1e{k}").parse().unwrap();
            out.extend([next_down(p), p, next_up(p)]);
        }
        out
    }

    #[test]
    fn a_side_is_never_below_its_window() {
        for l in probes() {
            assert!(ladder_side(l) >= l, "l = {l:e}: side {:e}", ladder_side(l));
        }
    }

    #[test]
    fn every_step_maps_to_itself() {
        for literal in literals() {
            let value: f64 = literal.parse().unwrap();
            assert_eq!(ladder_side(value).to_bits(), value.to_bits(), "{literal}");
            // The least step `≥ l`: one ulp above a step is the next one.
            assert!(ladder_side(next_up(value)) > value, "{literal}");
        }
        for l in [4.0, 50.0, 100.0, 1.0, 1.6, 0.8, 3.15, 6.3e-5] {
            assert_eq!(ladder_side(l), l);
        }
        assert_eq!(ladder_side(0.9), 1.0);
        assert_eq!(ladder_side(1.1), 1.25);
        assert_eq!(ladder_side(1.5), 1.6);
        assert_eq!(ladder_side(3.0), 3.15);
        assert_eq!(ladder_side(60.0), 63.0);
        assert_eq!(ladder_side(260.0), 315.0);
    }

    /// The widest step of R10 is `125 → 160`: a side is at most 1.28
    /// times its window, far below the 2 that keeps a window within one
    /// column of its centre's cell.
    #[test]
    fn a_side_is_within_one_step_of_its_window() {
        let worst = probes()
            .into_iter()
            .map(|l| ladder_side(l) / l)
            .fold(1.0, f64::max);
        assert!(worst <= 1.28, "{worst}");
        assert!(worst > 1.26, "the probes reach the widest step: {worst}");
    }

    #[test]
    fn the_map_is_monotone() {
        let mut ls = probes();
        ls.sort_by(f64::total_cmp);
        for pair in ls.windows(2) {
            assert!(
                ladder_side(pair[0]) <= ladder_side(pair[1]),
                "{:e} → {:e}, {:e} → {:e}",
                pair[0],
                ladder_side(pair[0]),
                pair[1],
                ladder_side(pair[1])
            );
        }
    }

    #[test]
    fn out_of_range_maps_to_itself() {
        for l in [
            next_down(LOWEST),
            1e-300,
            f64::MIN_POSITIVE,
            next_up(HIGHEST),
            1e25,
            f64::MAX,
            0.0,
            -1.0,
            f64::INFINITY,
        ] {
            assert_eq!(ladder_side(l).to_bits(), l.to_bits(), "{l:e}");
        }
        assert!(ladder_side(f64::NAN).is_nan());
        // The ends of the ladder are steps.
        assert_eq!(ladder_side(LOWEST), LOWEST);
        assert_eq!(ladder_side(HIGHEST), HIGHEST);
    }
}
