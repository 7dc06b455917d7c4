//! The estimators every published number goes through, and the verdicts
//! `compare` derives from them.

use srj_benchmark::metrics::Better;
use srj_benchmark::report::{judge, Verdict};
use srj_benchmark::stats::{median, percentile, quartiles, summarize};

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
    // A value an estimator refused (NaN) is skipped, not propagated.
    assert_eq!(median(&[f64::NAN, 5.0]), Some(5.0));
}

/// Reference values are `statistics.quantiles(values, n=4)` from
/// Python 3, the function the driver computes spreads with.
#[test]
fn quartiles_match_python_statistics() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
    assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 15.0, 22.5)));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn percentile_refuses_without_ten_samples_beyond_it() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&hundred, 0.9), Some(90.0));
    assert_eq!(percentile(&hundred[..99], 0.9), None, "only 9 beyond");
    assert_eq!(percentile(&hundred, 0.99), None, "no sample beyond");
    let thousand: Vec<f64> = (1..=1100).map(f64::from).collect();
    assert_eq!(percentile(&thousand, 0.99), Some(1089.0));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn summary_of_one_round_is_that_round() {
    let s = summarize(&[7.0]).unwrap();
    assert_eq!((s.median, s.q1, s.q3, s.rounds), (7.0, 7.0, 7.0, 1));
    let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
    assert_eq!((s.median, s.q1, s.q3, s.rounds), (3.0, 1.5, 4.5, 5));
    assert!(summarize(&[f64::NAN]).is_none());
}

#[test]
fn verdicts_follow_the_bound_and_the_spread() {
    let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
    let same = [100.2, 100.9, 99.4, 100.1, 99.8];
    let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
    let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
    let noisy = [100.0, 140.0, 70.0, 125.0, 80.0];
    let lower = |a: &[f64], b: &[f64]| judge(a, b, Better::Lower, 0.1).unwrap();
    assert_eq!(lower(&parent, &same), Verdict::WithinBound);
    assert_eq!(lower(&parent, &slower), Verdict::Worse);
    assert_eq!(lower(&parent, &faster), Verdict::Better);
    assert_eq!(lower(&parent, &noisy), Verdict::Unresolved);
    // The same numbers read the other way for a throughput.
    let higher = |a: &[f64], b: &[f64]| judge(a, b, Better::Higher, 0.1).unwrap();
    assert_eq!(higher(&parent, &slower), Verdict::Better);
    assert_eq!(higher(&parent, &faster), Verdict::Worse);
    // A spread wider than the bound still resolves when every run of
    // the change beats every run of the parent.
    assert_eq!(lower(&noisy, &[10.0, 12.0, 11.0]), Verdict::Better);
    // failed_share: bound 0, parent at 0 — any increase is worse.
    let zero = [0.0, 0.0, 0.0];
    assert_eq!(
        judge(&zero, &zero, Better::Lower, 0.0),
        Some(Verdict::WithinBound)
    );
    assert_eq!(
        judge(&zero, &[0.0, 0.01, 0.01], Better::Lower, 0.0),
        Some(Verdict::Worse)
    );
    assert_eq!(judge(&[], &zero, Better::Lower, 0.0), None);
}
