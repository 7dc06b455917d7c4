//! One function per table/figure of the paper's evaluation (Section V).
//!
//! Every function returns the formatted rows it printed, so tests can
//! assert on structure.

use std::fmt::Write as _;

use srj_core::{BbstSampler, JoinSampler, KdsRejectionSampler, KdsSampler};
use srj_datagen::DatasetKind;

use crate::datasets::{scaled_spec, ScaledDataset, DEFAULT_T};
use crate::runner::{
    build_bbst, build_kds, build_rejection, build_variant, run_sampler, RunOutcome,
};

/// Experiment-wide knobs (defaults mirror the paper's §V-A).
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Dataset scale multiplier (1.0 = the harness base sizes).
    pub scale: f64,
    /// Number of samples `t` (paper default 10⁶).
    pub t: usize,
    /// Window half-extent `l` (paper default 100).
    pub l: f64,
    /// Master seed.
    pub seed: u64,
    /// Index-build threads (`SampleConfig::build_threads`; `0` = all
    /// cores, `1` = the paper's serial build).
    pub threads: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 1.0,
            t: DEFAULT_T,
            l: 100.0,
            seed: 42,
            threads: 1,
        }
    }
}

impl ExpConfig {
    /// The sampler config these knobs describe.
    pub fn sample_config(&self) -> srj_core::SampleConfig {
        srj_core::SampleConfig::new(self.l).with_build_threads(self.threads)
    }
}

fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}

/// The three-algorithm run on one dataset that Tables II–IV and the
/// accuracy metric all read from.
pub struct DatasetRun {
    /// Which dataset.
    pub kind: DatasetKind,
    /// Outcomes in order KDS, KDS-rejection, BBST.
    pub outcomes: Vec<RunOutcome>,
    /// `Σ_r µ(r)` of the BBST run.
    pub mu_total: f64,
    /// Exact `|J|`.
    pub join_size: u64,
}

/// Runs KDS, KDS-rejection and BBST with the default setting on every
/// paper dataset.
pub fn default_runs(cfg: &ExpConfig) -> Vec<DatasetRun> {
    let sc = cfg.sample_config();
    DatasetKind::PAPER_ORDER
        .iter()
        .map(|&kind| {
            let d = scaled_spec(kind, cfg.scale, 0.5, cfg.seed);
            let mut outcomes = Vec::with_capacity(3);
            let mut kds = KdsSampler::build(&d.r, &d.s, &sc);
            let join_size = kds.index().join_size();
            outcomes.push(run_sampler(&mut kds, cfg.t, cfg.seed));
            drop(kds);
            let mut rej = KdsRejectionSampler::build(&d.r, &d.s, &sc);
            outcomes.push(run_sampler(&mut rej, cfg.t, cfg.seed));
            drop(rej);
            let mut bbst = BbstSampler::build(&d.r, &d.s, &sc);
            let mu_total = bbst.index().mu_total();
            outcomes.push(run_sampler(&mut bbst, cfg.t, cfg.seed));
            DatasetRun {
                kind,
                outcomes,
                mu_total,
                join_size,
            }
        })
        .collect()
}

/// Table II — pre-processing time per algorithm and dataset.
///
/// Paper: KDS builds a kd-tree, BBST only sorts; BBST is ~2× faster.
pub fn table2(runs: &[DatasetRun]) -> String {
    let mut out = String::new();
    writeln!(out, "## Table II: pre-processing time [sec]").unwrap();
    write!(out, "{:<14}", "Algorithm").unwrap();
    for run in runs {
        write!(out, "{:>26}", run.kind.label()).unwrap();
    }
    writeln!(out).unwrap();
    for (row, name) in [(0usize, "KDS"), (2usize, "BBST")] {
        write!(out, "{name:<14}").unwrap();
        for run in runs {
            write!(
                out,
                "{:>26.4}",
                secs(run.outcomes[row].report.preprocessing)
            )
            .unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Table III — total and decomposed times (GM = grid mapping /
/// structure building, UB = upper bounding / range counting).
pub fn table3(runs: &[DatasetRun]) -> String {
    let mut out = String::new();
    writeln!(out, "## Table III: total and decomposed times [sec]").unwrap();
    for run in runs {
        writeln!(
            out,
            "dataset: {}  (|J| = {})",
            run.kind.label(),
            run.join_size
        )
        .unwrap();
        writeln!(
            out,
            "  {:<16}{:>10}{:>10}{:>10}",
            "Algorithm", "Total", "GM", "UB"
        )
        .unwrap();
        for o in &run.outcomes {
            writeln!(
                out,
                "  {:<16}{:>10.3}{:>10.3}{:>10.3}",
                o.name,
                o.total_secs(),
                secs(o.report.grid_mapping),
                secs(o.report.upper_bounding),
            )
            .unwrap();
        }
    }
    out
}

/// Table IV — sampling time and number of sampling iterations.
pub fn table4(runs: &[DatasetRun], t: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "## Table IV: sampling time [sec] and #iterations (t = {t})"
    )
    .unwrap();
    for run in runs {
        writeln!(out, "dataset: {}", run.kind.label()).unwrap();
        writeln!(
            out,
            "  {:<16}{:>12}{:>14}",
            "Algorithm", "Sampling", "#iterations"
        )
        .unwrap();
        for o in &run.outcomes {
            writeln!(
                out,
                "  {:<16}{:>12.3}{:>14}",
                o.name,
                secs(o.report.sampling),
                o.report.iterations,
            )
            .unwrap();
        }
    }
    out
}

/// §V-B accuracy of approximate range counting: `Σµ / |J|`.
///
/// Paper reports 1.19 / 1.04 / 1.07 / 1.17 on CaStreet / Foursquare /
/// IMIS / NYC.
pub fn accuracy(runs: &[DatasetRun]) -> String {
    let mut out = String::new();
    writeln!(out, "## Accuracy of approximate range counting (Σµ / |J|)").unwrap();
    for run in runs {
        writeln!(
            out,
            "  {:<26}{:.4}",
            run.kind.label(),
            run.mu_total / run.join_size as f64
        )
        .unwrap();
    }
    out
}

/// Fig. 4 — memory usage vs dataset size (fractions 0.2 … 1.0).
pub fn fig4(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    writeln!(out, "## Fig. 4: memory usage [MiB] vs dataset fraction").unwrap();
    for &kind in &DatasetKind::PAPER_ORDER {
        writeln!(out, "dataset: {}", kind.label()).unwrap();
        writeln!(
            out,
            "  {:<10}{:>12}{:>16}{:>12}",
            "fraction", "KDS", "KDS-rejection", "BBST"
        )
        .unwrap();
        for frac in [0.2, 0.4, 0.6, 0.8, 1.0] {
            let d = scaled_spec(kind, cfg.scale * frac, 0.5, cfg.seed);
            let mib = |b: usize| b as f64 / (1 << 20) as f64;
            let kds = build_kds(&d.r, &d.s, cfg.l);
            let rej = build_rejection(&d.r, &d.s, cfg.l);
            let bbst = build_bbst(&d.r, &d.s, cfg.l);
            writeln!(
                out,
                "  {:<10}{:>12.2}{:>16.2}{:>12.2}",
                frac,
                mib(kds.memory_bytes()),
                mib(rej.memory_bytes()),
                mib(bbst.memory_bytes()),
            )
            .unwrap();
        }
    }
    out
}

/// Fig. 5 — running time vs range (window half-extent) `l ∈ [1, 500]`.
pub fn fig5(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "## Fig. 5: running time [sec] vs range l (t = {})",
        cfg.t
    )
    .unwrap();
    for &kind in &DatasetKind::PAPER_ORDER {
        let d = scaled_spec(kind, cfg.scale, 0.5, cfg.seed);
        writeln!(out, "dataset: {}", kind.label()).unwrap();
        writeln!(
            out,
            "  {:<8}{:>12}{:>16}{:>12}",
            "l", "KDS", "KDS-rejection", "BBST"
        )
        .unwrap();
        for l in [1.0, 10.0, 50.0, 100.0, 250.0, 500.0] {
            let times = run_trio(&d, l, cfg.t, cfg.seed);
            writeln!(
                out,
                "  {:<8}{:>12.3}{:>16.3}{:>12.3}",
                l, times[0], times[1], times[2]
            )
            .unwrap();
        }
    }
    out
}

/// Runs the three algorithms on one dataset and returns total seconds.
/// Skips a run (reported as NaN) only if the join is empty.
fn run_trio(d: &ScaledDataset, l: f64, t: usize, seed: u64) -> [f64; 3] {
    let mut kds = build_kds(&d.r, &d.s, l);
    let a = run_sampler(&mut kds, t, seed).total_secs();
    drop(kds);
    let mut rej = build_rejection(&d.r, &d.s, l);
    let b = run_sampler(&mut rej, t, seed).total_secs();
    drop(rej);
    let mut bbst = build_bbst(&d.r, &d.s, l);
    let c = run_sampler(&mut bbst, t, seed).total_secs();
    [a, b, c]
}

/// Fig. 6 — running time vs number of samples `t`.
///
/// The paper sweeps `t` to 10⁹ and aborts the baselines after two weeks;
/// the harness sweeps `t/100 … t×10` and, mirroring that abort, skips
/// the baselines above `t` (printed as `-`). BBST's flat build cost and
/// tiny per-sample cost reproduce the paper's "gradually increasing"
/// curve against the baselines' linear growth.
pub fn fig6(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    writeln!(out, "## Fig. 6: running time [sec] vs #samples t").unwrap();
    let sweep = [cfg.t / 100, cfg.t / 10, cfg.t, cfg.t * 10];
    for &kind in &DatasetKind::PAPER_ORDER {
        let d = scaled_spec(kind, cfg.scale, 0.5, cfg.seed);
        writeln!(out, "dataset: {}", kind.label()).unwrap();
        writeln!(
            out,
            "  {:<10}{:>12}{:>16}{:>12}",
            "t", "KDS", "KDS-rejection", "BBST"
        )
        .unwrap();
        for &t in &sweep {
            let t = t.max(1);
            let (a, b) = if t <= cfg.t {
                let mut kds = build_kds(&d.r, &d.s, cfg.l);
                let a = run_sampler(&mut kds, t, cfg.seed).total_secs();
                drop(kds);
                let mut rej = build_rejection(&d.r, &d.s, cfg.l);
                let b = run_sampler(&mut rej, t, cfg.seed).total_secs();
                (format!("{a:>12.3}"), format!("{b:>16.3}"))
            } else {
                (format!("{:>12}", "-"), format!("{:>16}", "-"))
            };
            let mut bbst = build_bbst(&d.r, &d.s, cfg.l);
            let c = run_sampler(&mut bbst, t, cfg.seed).total_secs();
            writeln!(out, "  {t:<10}{a}{b}{c:>12.3}").unwrap();
        }
    }
    out
}

/// Fig. 7 — running time vs dataset size (fractions 0.2 … 1.0).
pub fn fig7(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "## Fig. 7: running time [sec] vs dataset fraction (t = {})",
        cfg.t
    )
    .unwrap();
    for &kind in &DatasetKind::PAPER_ORDER {
        writeln!(out, "dataset: {}", kind.label()).unwrap();
        writeln!(
            out,
            "  {:<10}{:>12}{:>16}{:>12}",
            "fraction", "KDS", "KDS-rejection", "BBST"
        )
        .unwrap();
        for frac in [0.2, 0.4, 0.6, 0.8, 1.0] {
            let d = scaled_spec(kind, cfg.scale * frac, 0.5, cfg.seed);
            let times = run_trio(&d, cfg.l, cfg.t, cfg.seed);
            writeln!(
                out,
                "  {:<10}{:>12.3}{:>16.3}{:>12.3}",
                frac, times[0], times[1], times[2]
            )
            .unwrap();
        }
    }
    out
}

/// Fig. 8 — BBST running time vs `n / (n + m)` (0.1 … 0.5).
pub fn fig8(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "## Fig. 8: BBST running time [sec] vs n/(n+m) (t = {})",
        cfg.t
    )
    .unwrap();
    write!(out, "{:<10}", "ratio").unwrap();
    for &kind in &DatasetKind::PAPER_ORDER {
        write!(out, "{:>26}", kind.label()).unwrap();
    }
    writeln!(out).unwrap();
    for ratio in [0.1, 0.2, 0.3, 0.4, 0.5] {
        write!(out, "{ratio:<10}").unwrap();
        for &kind in &DatasetKind::PAPER_ORDER {
            let d = scaled_spec(kind, cfg.scale, ratio, cfg.seed);
            let mut bbst = build_bbst(&d.r, &d.s, cfg.l);
            let t = run_sampler(&mut bbst, cfg.t, cfg.seed).total_secs();
            write!(out, "{t:>26.3}").unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Fig. 9 — BBST vs the per-cell kd-tree variant.
pub fn fig9(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "## Fig. 9: BBST vs kd-tree-per-cell variant [sec] (t = {})",
        cfg.t
    )
    .unwrap();
    writeln!(
        out,
        "{:<26}{:>10}{:>10}{:>10}",
        "dataset", "BBST", "Variant", "speedup"
    )
    .unwrap();
    for &kind in &DatasetKind::PAPER_ORDER {
        let d = scaled_spec(kind, cfg.scale, 0.5, cfg.seed);
        let mut bbst = build_bbst(&d.r, &d.s, cfg.l);
        let a = run_sampler(&mut bbst, cfg.t, cfg.seed).total_secs();
        drop(bbst);
        let mut var = build_variant(&d.r, &d.s, cfg.l);
        let b = run_sampler(&mut var, cfg.t, cfg.seed).total_secs();
        writeln!(out, "{:<26}{a:>10.3}{b:>10.3}{:>9.2}x", kind.label(), b / a).unwrap();
    }
    out
}

/// Extension ablation — fractional cascading on/off: build (UB-heavy)
/// and total times plus memory, on every dataset.
pub fn ablation_cascading(cfg: &ExpConfig) -> String {
    use srj_core::SampleConfig;
    let mut out = String::new();
    writeln!(out, "## Ablation: fractional cascading (t = {})", cfg.t).unwrap();
    writeln!(
        out,
        "{:<26}{:>12}{:>12}{:>14}{:>14}",
        "dataset", "plain [s]", "casc [s]", "plain MiB", "casc MiB"
    )
    .unwrap();
    for &kind in &DatasetKind::PAPER_ORDER {
        let d = scaled_spec(kind, cfg.scale, 0.5, cfg.seed);
        let mut row = [0f64; 4];
        for (i, casc) in [false, true].into_iter().enumerate() {
            let mut sc = SampleConfig::new(cfg.l);
            if casc {
                sc = sc.with_cascading();
            }
            let mut sampler = BbstSampler::build(&d.r, &d.s, &sc);
            let outcome = run_sampler(&mut sampler, cfg.t, cfg.seed);
            row[i] = outcome.total_secs();
            row[2 + i] = outcome.memory_bytes as f64 / (1 << 20) as f64;
        }
        writeln!(
            out,
            "{:<26}{:>12.3}{:>12.3}{:>14.2}{:>14.2}",
            kind.label(),
            row[0],
            row[1],
            row[2],
            row[3]
        )
        .unwrap();
    }
    out
}

/// Extension ablation — virtual (paper) vs exact (tighter) bucket mass:
/// accuracy ratio and total time on every dataset.
pub fn ablation_mass(cfg: &ExpConfig) -> String {
    use srj_core::{MassMode, SampleConfig};
    let mut out = String::new();
    writeln!(out, "## Ablation: case-3 mass mode (t = {})", cfg.t).unwrap();
    writeln!(
        out,
        "{:<26}{:>14}{:>14}{:>12}{:>12}",
        "dataset", "Σµ/|J| virt", "Σµ/|J| exact", "virt [s]", "exact [s]"
    )
    .unwrap();
    for &kind in &DatasetKind::PAPER_ORDER {
        let d = scaled_spec(kind, cfg.scale, 0.5, cfg.seed);
        let join = srj_join::join_count(&d.r, &d.s, cfg.l) as f64;
        let mut row = [0f64; 4];
        for (i, mode) in [MassMode::Virtual, MassMode::Exact].into_iter().enumerate() {
            let sc = SampleConfig::new(cfg.l).with_mass_mode(mode);
            let mut sampler = BbstSampler::build(&d.r, &d.s, &sc);
            row[i] = sampler.index().mu_total() / join;
            row[2 + i] = run_sampler(&mut sampler, cfg.t, cfg.seed).total_secs();
        }
        writeln!(
            out,
            "{:<26}{:>14.4}{:>14.4}{:>12.3}{:>12.3}",
            kind.label(),
            row[0],
            row[1],
            row[2],
            row[3]
        )
        .unwrap();
    }
    out
}

/// Footnote-4 reproduction — the range-tree comparator: faster queries
/// than the kd-tree but `Θ(m log m)` memory. The paper reports it "ran
/// out of memory before completing the index building" at 168M–324M
/// points; at laptop scale we measure the same trend: memory per point
/// grows with `log m` while every other structure stays flat.
pub fn footnote4(cfg: &ExpConfig) -> String {
    use srj_core::{RangeTreeSampler, SampleConfig};
    let mut out = String::new();
    writeln!(out, "## Footnote 4: range-tree comparator (t = {})", cfg.t).unwrap();
    writeln!(
        out,
        "{:<10}{:>14}{:>14}{:>14}{:>12}{:>12}",
        "fraction", "RT mem MiB", "KDS mem MiB", "BBST mem MiB", "RT [s]", "BBST [s]"
    )
    .unwrap();
    let kind = DatasetKind::TaxiHotspots;
    for frac in [0.25, 0.5, 1.0] {
        let d = scaled_spec(kind, cfg.scale * frac, 0.5, cfg.seed);
        let mib = |b: usize| b as f64 / (1 << 20) as f64;
        let mut rt = RangeTreeSampler::build(&d.r, &d.s, &SampleConfig::new(cfg.l));
        let rt_mem = mib(rt.memory_bytes());
        let rt_time = run_sampler(&mut rt, cfg.t, cfg.seed).total_secs();
        drop(rt);
        let kds = build_kds(&d.r, &d.s, cfg.l);
        let kds_mem = mib(kds.memory_bytes());
        drop(kds);
        let mut bbst = build_bbst(&d.r, &d.s, cfg.l);
        let bbst_mem = mib(bbst.memory_bytes());
        let bbst_time = run_sampler(&mut bbst, cfg.t, cfg.seed).total_secs();
        writeln!(
            out,
            "{frac:<10}{rt_mem:>14.2}{kds_mem:>14.2}{bbst_mem:>14.2}{rt_time:>12.3}{bbst_time:>12.3}"
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 0.004,
            t: 500,
            l: 100.0,
            seed: 7,
            threads: 1,
        }
    }

    #[test]
    fn threaded_default_runs_match_serial_join_sizes() {
        // --threads must never change results, only wall-clock.
        let serial = tiny();
        let threaded = ExpConfig {
            threads: 4,
            ..tiny()
        };
        let a = default_runs(&serial);
        let b = default_runs(&threaded);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.join_size, y.join_size, "{:?}", x.kind);
            assert_eq!(x.mu_total, y.mu_total, "{:?}", x.kind);
        }
    }

    #[test]
    fn tables_have_expected_structure() {
        let cfg = tiny();
        let runs = default_runs(&cfg);
        assert_eq!(runs.len(), 4);
        let t2 = table2(&runs);
        assert!(t2.contains("KDS") && t2.contains("BBST"));
        let t3 = table3(&runs);
        assert!(t3.contains("KDS-rejection") && t3.contains("GM"));
        let t4 = table4(&runs, cfg.t);
        assert!(t4.contains("#iterations"));
        let acc = accuracy(&runs);
        assert!(acc.contains("CaStreet"));
        // accuracy ratios are ≥ 1 by Lemma 5
        for run in &runs {
            assert!(run.mu_total >= run.join_size as f64, "{:?}", run.kind);
        }
    }

    #[test]
    fn figures_render() {
        let cfg = tiny();
        for s in [fig4(&cfg), fig8(&cfg), fig9(&cfg)] {
            assert!(s.contains("NYC"), "{s}");
        }
    }
}
