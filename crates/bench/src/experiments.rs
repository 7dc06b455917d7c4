//! One function per table/figure of the paper's evaluation (Section V),
//! plus [`row_granularity`], the comparison the engine's choice of row
//! granularity rests on.
//!
//! Every function returns the formatted rows it printed, so tests can
//! assert on structure.

use std::fmt::Write as _;

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use srj_core::{
    BbstIndex, BbstSampler, Cursor, GroupIndex, JoinSampler, KdsIndex, KdsRejectionIndex,
    SampleConfig, SamplerIndex,
};
use srj_datagen::DatasetKind;
use srj_engine::DatasetStore;

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
    pub fn sample_config(&self) -> SampleConfig {
        SampleConfig::new(self.l).with_build_threads(self.threads)
    }
}

fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}

/// A table cell of seconds, or "empty join" where the run had no pair to
/// draw ([`run_sampler`] gave `None`). Takes the cell's width and
/// precision either way, right-aligned.
struct Secs(Option<f64>);

impl Secs {
    fn of(outcome: Option<RunOutcome>) -> Secs {
        Secs(outcome.map(|o| o.total_secs()))
    }
}

impl std::fmt::Display for Secs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Some(secs) => std::fmt::Display::fmt(&secs, f),
            None => write!(f, "{:>1$}", "empty join", f.width().unwrap_or(0)),
        }
    }
}

/// Position of each algorithm in [`DatasetRun::outcomes`].
pub const KDS: usize = 0;
/// See [`KDS`].
pub const KDS_REJECTION: usize = 1;
/// See [`KDS`].
pub const BBST: usize = 2;
/// The served structure — BBST's group rows ([`GroupIndex`]) at side
/// `l` — measured beside the paper's three. See [`KDS`].
pub const GROUP_ROWS: usize = 3;

/// The four-algorithm run on one dataset that Tables II–IV and the
/// accuracy metric all read from.
pub struct DatasetRun {
    /// Which dataset.
    pub kind: DatasetKind,
    /// Its cardinality `n + m`.
    pub points: usize,
    /// Outcomes, indexed by [`KDS`], [`KDS_REJECTION`], [`BBST`] and
    /// [`GROUP_ROWS`]; none when the join is empty.
    pub outcomes: Vec<RunOutcome>,
    /// `Σ_r µ(r)` of each outcome's index, in the same order.
    pub mu_totals: Vec<f64>,
    /// Exact `|J|`.
    pub join_size: u64,
}

/// Draws `t` samples through a fresh cursor over `index`; returns the
/// outcome and the index's `Σµ`.
fn run_index<I: SamplerIndex>(index: I, t: usize, seed: u64) -> (RunOutcome, f64) {
    let mut cursor = Cursor::new(Arc::new(index));
    let mu_total = cursor.index().total_weight();
    let outcome = run_sampler(&mut cursor, t, seed).expect("a non-empty join");
    (outcome, mu_total)
}

/// Runs KDS, KDS-rejection, BBST and BBST's group rows with the default
/// setting on every paper dataset; none on a dataset whose join is
/// empty, where the rejecting samplers would only spin.
pub fn default_runs(cfg: &ExpConfig) -> Vec<DatasetRun> {
    let sc = cfg.sample_config();
    DatasetKind::PAPER_ORDER
        .iter()
        .map(|&kind| {
            let d = scaled_spec(kind, cfg.scale, 0.5, cfg.seed);
            let points = d.total();
            let kds = KdsIndex::build(&d.r, &d.s, &sc);
            let join_size = kds.join_size();
            if join_size == 0 {
                let (outcomes, mu_totals) = (Vec::new(), Vec::new());
                return DatasetRun {
                    kind,
                    points,
                    outcomes,
                    mu_totals,
                    join_size,
                };
            }
            let (outcomes, mu_totals) = [
                run_index(kds, cfg.t, cfg.seed),
                run_index(KdsRejectionIndex::build(&d.r, &d.s, &sc), cfg.t, cfg.seed),
                run_index(BbstIndex::build(&d.r, &d.s, &sc), cfg.t, cfg.seed),
                run_index(GroupIndex::build(&d.r, &d.s, &sc), cfg.t, cfg.seed),
            ]
            .into_iter()
            .unzip();
            DatasetRun {
                kind,
                points,
                outcomes,
                mu_totals,
                join_size,
            }
        })
        .collect()
}

/// Table II — pre-processing time per algorithm and dataset, then one
/// `# peak: X bytes/point (VmHWM)` line: the process's peak resident
/// bytes so far over the points of the largest dataset, `n/a` where the
/// kernel reports no `VmHWM`.
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
    for (row, name) in [(KDS, "KDS"), (BBST, "BBST")] {
        write!(out, "{name:<14}").unwrap();
        for run in runs {
            let outcome = run.outcomes.get(row);
            let cell = Secs(outcome.map(|o| secs(o.report.preprocessing)));
            write!(out, "{cell:>26.4}").unwrap();
        }
        writeln!(out).unwrap();
    }
    out.push_str(&peak_line(runs.iter().map(|run| run.points).max()));
    out
}

/// The process's peak resident bytes so far (`VmHWM` of
/// `/proc/self/status`) over the points of the largest dataset it held,
/// as one `# peak: X bytes/point (VmHWM)` line — `n/a` where the kernel
/// reports no `VmHWM`. Beside the index bytes a point of
/// [`row_granularity`], it shows what a build holds beyond the index.
fn peak_line(points: Option<usize>) -> String {
    let hwm_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
        });
    match (hwm_kib, points) {
        (Some(kib), Some(points)) if points > 0 => format!(
            "# peak: {:.1} bytes/point (VmHWM)\n",
            (kib * 1024) as f64 / points as f64
        ),
        _ => "# peak: n/a bytes/point (VmHWM)\n".to_string(),
    }
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
        if run.outcomes.is_empty() {
            writeln!(out, "  empty join").unwrap();
            continue;
        }
        writeln!(
            out,
            "  {:<18}{:>10}{:>10}{:>10}",
            "Algorithm", "Total", "GM", "UB"
        )
        .unwrap();
        for o in &run.outcomes {
            writeln!(
                out,
                "  {:<18}{:>10.3}{:>10.3}{:>10.3}",
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
        if run.outcomes.is_empty() {
            writeln!(out, "  empty join").unwrap();
            continue;
        }
        writeln!(
            out,
            "  {:<18}{:>12}{:>14}",
            "Algorithm", "Sampling", "#iterations"
        )
        .unwrap();
        for o in &run.outcomes {
            writeln!(
                out,
                "  {:<18}{:>12.3}{:>14}",
                o.name,
                secs(o.report.sampling),
                o.report.iterations,
            )
            .unwrap();
        }
    }
    out
}

/// §V-B accuracy of approximate range counting: `Σµ / |J|` of every
/// algorithm (KDS counts exactly, so its column reads 1).
///
/// Paper reports 1.19 / 1.04 / 1.07 / 1.17 for BBST on CaStreet /
/// Foursquare / IMIS / NYC.
pub fn accuracy(runs: &[DatasetRun]) -> String {
    let mut out = String::new();
    writeln!(out, "## Accuracy of approximate range counting (Σµ / |J|)").unwrap();
    write!(out, "  {:<26}", "dataset").unwrap();
    let ran = runs.iter().find(|run| !run.outcomes.is_empty());
    for o in ran.map_or(&[][..], |run| &run.outcomes) {
        write!(out, "{:>20}", o.name).unwrap();
    }
    writeln!(out).unwrap();
    for run in runs {
        write!(out, "  {:<26}", run.kind.label()).unwrap();
        if run.mu_totals.is_empty() {
            write!(out, "{:>20}", "empty join").unwrap();
        }
        for mu in &run.mu_totals {
            write!(out, "{:>20.4}", mu / run.join_size as f64).unwrap();
        }
        writeln!(out).unwrap();
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

/// Runs the three algorithms on one dataset and returns total seconds,
/// every cell "empty join" when KDS — which counts exactly — finds the
/// join empty: the rejecting samplers would only spin.
fn run_trio(d: &ScaledDataset, l: f64, t: usize, seed: u64) -> [Secs; 3] {
    let mut kds = build_kds(&d.r, &d.s, l);
    let Some(a) = run_sampler(&mut kds, t, seed) else {
        return [Secs(None), Secs(None), Secs(None)];
    };
    drop(kds);
    let mut rej = build_rejection(&d.r, &d.s, l);
    let b = run_sampler(&mut rej, t, seed);
    drop(rej);
    let mut bbst = build_bbst(&d.r, &d.s, l);
    let c = run_sampler(&mut bbst, t, seed);
    [Secs(Some(a.total_secs())), Secs::of(b), Secs::of(c)]
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
                let a = Secs::of(run_sampler(&mut kds, t, cfg.seed));
                drop(kds);
                let mut rej = build_rejection(&d.r, &d.s, cfg.l);
                let b = Secs::of(run_sampler(&mut rej, t, cfg.seed));
                (format!("{a:>12.3}"), format!("{b:>16.3}"))
            } else {
                (format!("{:>12}", "-"), format!("{:>16}", "-"))
            };
            let mut bbst = build_bbst(&d.r, &d.s, cfg.l);
            let c = Secs::of(run_sampler(&mut bbst, t, cfg.seed));
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
            let t = Secs::of(run_sampler(&mut bbst, cfg.t, cfg.seed));
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
        let a = Secs::of(run_sampler(&mut bbst, cfg.t, cfg.seed));
        drop(bbst);
        let mut var = build_variant(&d.r, &d.s, cfg.l);
        let b = Secs::of(run_sampler(&mut var, cfg.t, cfg.seed));
        let speedup = Secs(a.0.zip(b.0).map(|(a, b)| b / a));
        writeln!(out, "{:<26}{a:>10.3}{b:>10.3}{speedup:>9.2}x", kind.label()).unwrap();
    }
    out
}

/// Extension ablation — fractional cascading on/off: build (UB-heavy)
/// and total times plus memory, on every dataset.
pub fn ablation_cascading(cfg: &ExpConfig) -> String {
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
            let Some(outcome) = run_sampler(&mut sampler, cfg.t, cfg.seed) else {
                row = [f64::NAN; 4];
                break;
            };
            row[i] = outcome.total_secs();
            row[2 + i] = outcome.memory_bytes as f64 / (1 << 20) as f64;
        }
        if row[0].is_nan() {
            writeln!(out, "{:<26}{:>12}", kind.label(), "empty join").unwrap();
            continue;
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
    use srj_core::MassMode;
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
            let Some(outcome) = run_sampler(&mut sampler, cfg.t, cfg.seed) else {
                row = [f64::NAN; 4];
                break;
            };
            row[2 + i] = outcome.total_secs();
        }
        if row[2].is_nan() {
            writeln!(out, "{:<26}{:>14}", kind.label(), "empty join").unwrap();
            continue;
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
    use srj_core::RangeTreeSampler;
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
        let rt_time = Secs::of(run_sampler(&mut rt, cfg.t, cfg.seed));
        drop(rt);
        let kds = build_kds(&d.r, &d.s, cfg.l);
        let kds_mem = mib(kds.memory_bytes());
        drop(kds);
        let mut bbst = build_bbst(&d.r, &d.s, cfg.l);
        let bbst_mem = mib(bbst.memory_bytes());
        let bbst_time = Secs::of(run_sampler(&mut bbst, cfg.t, cfg.seed));
        writeln!(
            out,
            "{frac:<10}{rt_mem:>14.2}{kds_mem:>14.2}{bbst_mem:>14.2}{rt_time:>12.3}{bbst_time:>12.3}"
        )
        .unwrap();
    }
    out
}

/// Pairs in each draw batch of [`row_granularity`].
const ROW_BATCH: usize = 16_384;

/// Warm-base builds per index whose median [`row_granularity`] prints.
const ROW_BUILDS: usize = 5;

/// The benchmark's datasets (`benchmark/src/workload.rs`) as
/// `(workload, kind, scale, l)`, all at data seed 1; `cold_windows` at
/// the two ends and the middle of its 24 window sizes.
const ROW_DATASETS: [(&str, DatasetKind, f64, f64); 6] = [
    ("bulk_draw", DatasetKind::TaxiHotspots, 1.0, 100.0),
    ("small_requests", DatasetKind::Uniform, 0.2, 100.0),
    ("mixed_updates", DatasetKind::PoiClusters, 0.1, 100.0),
    ("cold_windows_50", DatasetKind::PoiClusters, 0.2, 50.0),
    ("cold_windows_160", DatasetKind::PoiClusters, 0.2, 160.0),
    ("cold_windows_280", DatasetKind::PoiClusters, 0.2, 280.0),
];

/// The BBST family's two row granularities on the benchmark's datasets
/// (their sizes × `cfg.scale`): per-`r` rows (`BbstIndex`, Algorithm 1)
/// against one row per cell of `R` (`GroupIndex`, the §III-B bound
/// alone), both over the point sets of a `DatasetStore` — a cold build,
/// what a serving cache miss pays: per-`r` rows sort every cell of
/// their grid, group rows none.
///
/// One `#` line per index (median build ms, iterations per sample, ns
/// per iteration, index bytes per point) and per dataset the group /
/// per-`r` ratio of ns per iteration, which the row-granularity
/// threshold (`srj-core`'s `group::MIN_PROBE_ACCEPTED`) rests on; last,
/// one `# peak: X bytes/point (VmHWM)` line, the process's peak resident
/// bytes over the points of the largest dataset (as [`table2`]'s).
/// At scale 1 (up to 500 k × 500 k points) a run takes a few seconds.
pub fn row_granularity(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "## Row granularity: per-r rows vs group rows (scale {}, {ROW_BATCH}-pair batches)",
        cfg.scale
    )
    .unwrap();
    let mut largest = None;
    for (name, kind, scale, l) in ROW_DATASETS {
        let d = scaled_spec(kind, scale * cfg.scale, 0.5, 1);
        let points = d.total();
        largest = largest.max(Some(points));
        let base = DatasetStore::new(d.r, d.s).snapshot();
        let sc = SampleConfig::new(l);
        let (r, s) = (&base.base_r, &base.base_s);
        let per_r = granularity_line(&mut out, name, "per_r", points, || {
            BbstIndex::build(r, s, &sc)
        });
        let group = granularity_line(&mut out, name, "group", points, || {
            GroupIndex::build(r, s, &sc)
        });
        if let (Some(per_r), Some(group)) = (per_r, group) {
            writeln!(
                out,
                "# {name}: a group iteration costs {:.2} of a per_r one",
                group / per_r
            )
            .unwrap();
        }
    }
    out.push_str(&peak_line(largest));
    out
}

/// Builds an index [`ROW_BUILDS`] times, draws one warm-up batch and one
/// timed batch from the last build, writes its `#` line and returns its
/// ns per iteration (`None` on an empty join).
fn granularity_line<I: SamplerIndex>(
    out: &mut String,
    name: &str,
    rows: &str,
    points: usize,
    build: impl Fn() -> I,
) -> Option<f64> {
    let mut build_ms = Vec::with_capacity(ROW_BUILDS);
    let mut index = None;
    for _ in 0..ROW_BUILDS {
        // One index held at a time, so the `# peak:` line reads one
        // build's bytes, not two (each timed build after the first may
        // reuse the pages the previous one freed).
        drop(index.take());
        let t0 = Instant::now();
        let built = build();
        build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        index = Some(built);
    }
    build_ms.sort_by(f64::total_cmp);
    let mut cursor = Cursor::new(Arc::new(index.expect("ROW_BUILDS > 0")));
    let mut rng = SmallRng::seed_from_u64(7);
    let mut pairs = Vec::with_capacity(ROW_BATCH);
    if cursor
        .sample_batch(ROW_BATCH, &mut rng, &mut pairs)
        .is_err()
    {
        writeln!(out, "# {name} {rows}: empty join at this scale").unwrap();
        return None;
    }
    let before = cursor.sampling_stats().iterations;
    pairs.clear();
    let t0 = Instant::now();
    cursor
        .sample_batch(ROW_BATCH, &mut rng, &mut pairs)
        .expect("the warm-up batch drew from the same index");
    let elapsed = t0.elapsed();
    let stats = cursor.sampling_stats();
    let ns_per_iteration = elapsed.as_nanos() as f64 / (stats.iterations - before) as f64;
    writeln!(
        out,
        "# {name} {rows}: {:.2} ms build, {:.4} iterations/sample, {ns_per_iteration:.1} ns/iteration, {:.2} index bytes/point",
        build_ms[ROW_BUILDS / 2],
        stats.iterations as f64 / stats.samples as f64,
        cursor.index().index_memory_bytes() as f64 / points as f64,
    )
    .unwrap();
    Some(ns_per_iteration)
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
            assert_eq!(x.mu_totals, y.mu_totals, "{:?}", x.kind);
        }
    }

    #[test]
    fn tables_have_expected_structure() {
        let cfg = tiny();
        let runs = default_runs(&cfg);
        assert_eq!(runs.len(), 4);
        let t2 = table2(&runs);
        assert!(t2.contains("KDS") && t2.contains("BBST"));
        assert_peak_line(&t2);
        let t3 = table3(&runs);
        assert!(t3.contains("KDS-rejection") && t3.contains("GM"));
        let t4 = table4(&runs, cfg.t);
        assert!(t4.contains("#iterations"));
        let acc = accuracy(&runs);
        assert!(acc.contains("CaStreet"));
        assert!(t4.contains("BBST (group rows)"));
    }

    /// The paper's claims that are counts, on every paper dataset. Clock
    /// claims are printed, never asserted.
    #[test]
    fn paper_count_claims_hold_on_every_dataset() {
        let cfg = tiny();
        let t = cfg.t as f64;
        for run in default_runs(&cfg) {
            let kind = run.kind;
            let d = scaled_spec(kind, cfg.scale, 0.5, cfg.seed);
            let join = srj_join::join_count(&d.r, &d.s, cfg.l);
            let mu = &run.mu_totals;
            // KDS counts exactly, so it never rejects.
            assert_eq!(run.join_size, join, "{kind:?}");
            assert_eq!(mu[KDS], join as f64, "{kind:?}");
            assert_eq!(run.outcomes[KDS].report.iterations, cfg.t as u64);
            // Lemma 5: BBST's bound holds, and is no looser than the 3×3
            // block that KDS-rejection and group rows charge each `r`.
            assert!(
                join as f64 <= mu[BBST] && mu[BBST] <= mu[KDS_REJECTION],
                "{kind:?}: |J| = {join}, Σµ = {mu:?}"
            );
            assert_eq!(mu[GROUP_ROWS], mu[KDS_REJECTION], "{kind:?}");
            // An iteration accepts with probability p = |J| / Σµ, so the
            // iterations for `t` samples are negative-binomial: mean t/p,
            // variance t(1 − p)/p².
            for algo in [KDS_REJECTION, BBST, GROUP_ROWS] {
                let p = join as f64 / mu[algo];
                let mean = t / p;
                let sigma = (t * (1.0 - p)).sqrt() / p;
                let iterations = run.outcomes[algo].report.iterations as f64;
                assert!(
                    (iterations - mean).abs() <= 6.0 * sigma,
                    "{kind:?} {}: {iterations} iterations, mean {mean:.1}, σ {sigma:.1}",
                    run.outcomes[algo].name
                );
            }
        }
    }

    #[test]
    fn row_granularity_prints_both_granularities_on_every_dataset() {
        let s = row_granularity(&tiny());
        for (name, ..) in ROW_DATASETS {
            for rows in ["per_r", "group"] {
                assert!(s.contains(&format!("# {name} {rows}: ")), "{s}");
            }
            assert!(
                s.contains(&format!("# {name}: a group iteration costs")),
                "{s}"
            );
        }
        assert_peak_line(&s);
    }

    /// One `# peak:` line, a number where the kernel reports `VmHWM`.
    fn assert_peak_line(s: &str) {
        let peaks: Vec<&str> = s.lines().filter(|l| l.starts_with("# peak: ")).collect();
        assert_eq!(peaks.len(), 1, "{s}");
        let value = peaks[0]
            .strip_prefix("# peak: ")
            .and_then(|l| l.strip_suffix(" bytes/point (VmHWM)"))
            .unwrap_or_else(|| panic!("{s}"));
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        if status.contains("VmHWM:") {
            assert!(value.parse::<f64>().is_ok_and(|b| b > 0.0), "{s}");
        } else {
            assert_eq!(value, "n/a", "{s}");
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
