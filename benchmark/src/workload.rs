//! The four canonical workloads and the operation sequence each one
//! sends. Everything here is a pure function of `(seed, workload)`: the
//! program under test receives only these generated inputs.
//!
//! The data belongs to the *workload*: the dataset, and the points the
//! mutations insert, come from the fixed [`DATA_SEED`]. `--seed` drives
//! what the sampler is asked for — the seed of every request, hence
//! every draw (and, through the answers, which ids a DELETE without
//! banked ids names). With the dataset drawn from `--seed` too,
//! `bulk_draw`'s request cost moved 2x from one seed to the next (the
//! hotspot mixture lands differently); with only the mutation points
//! drawn from it, `mixed_updates` still moved by a quarter while the
//! host was quiet. Two runs with different seeds then compare datasets,
//! not programs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srj_bench::{scaled_spec, ScaledDataset};
use srj_datagen::DatasetKind;
use srj_geom::Point;
use srj_server::{Algorithm, Side};

/// Generator seed of every workload's dataset, anchors and mutation
/// points.
pub const DATA_SEED: u64 = 1;
/// The id every workload registers its dataset under.
pub const DATASET_ID: u64 = 1;
/// The generators' domain is `[0, DOMAIN]²`.
pub const DOMAIN: f64 = 10_000.0;
/// Points per INSERT / ids per DELETE.
pub const MUTATION_POINTS: usize = 256;
/// Mutations are jittered this far around an anchor, so consecutive
/// epochs dirty few cells and the cell-patch rung fires under the
/// default `EpochConfig`.
const MUTATION_JITTER: f64 = 300.0;
const ANCHORS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Every workload at about 1/20 size: checks the schema, measures
    /// nothing worth comparing.
    Smoke,
}

impl Scale {
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: DatasetKind,
    /// `srj_bench::scaled_spec` scale.
    pub data_scale: f64,
    /// Forced, so a planner change cannot silently move a workload to
    /// another family.
    pub algorithm: Algorithm,
    /// Window half-extents, cycled per SAMPLE.
    pub windows: Vec<f64>,
    /// Samples per SAMPLE request.
    pub t: u64,
    pub warm_ops: usize,
    pub timed_ops: usize,
    /// The timed phase is cut into segments of this many operations — a
    /// whole number of [`Workload::pattern_ops`] — and a round's rates
    /// are medians over its segments, so a burst of neighbour noise
    /// inside a round moves them no more than it moves a latency median.
    pub segment_ops: usize,
    /// Every `n`-th operation is a mutation; 0 for a read-only workload.
    pub mutate_every: usize,
}

/// The workloads, in the order rounds interleave them.
pub fn workloads(scale: Scale) -> Vec<Workload> {
    let mut all = vec![
        Workload {
            name: "bulk_draw",
            why: "The paper's workload: large t on a dataset larger than cache, so the draw path (alias, cell store, cursor, handle) is >85% of a request and serving cost is amortised away.",
            kind: DatasetKind::TaxiHotspots,
            data_scale: 1.0,
            algorithm: Algorithm::Bbst,
            windows: vec![100.0],
            t: 16_384,
            warm_ops: 50,
            timed_ops: 300,
            segment_ops: 30,
            mutate_every: 0,
        },
        Workload {
            name: "small_requests",
            why: "Inverse of bulk_draw: t=16 on a cache-resident dataset, so frame codec, worker hand-off, handle acquire, wake-ups and syscalls are 75-90% of a request; the only workload on the kd-tree family.",
            kind: DatasetKind::Uniform,
            data_scale: 0.2,
            algorithm: Algorithm::Kds,
            windows: vec![100.0],
            t: 16,
            warm_ops: 2_000,
            timed_ops: 25_000,
            segment_ops: 2_500,
            mutate_every: 0,
        },
        Workload {
            name: "mixed_updates",
            why: "Writes beside reads: 4 SAMPLEs then one 256-point spatially local mutation, so overlay draws, minor swaps and cell-patch swaps all run; a draw-path gain that costs the swap path shows here.",
            kind: DatasetKind::PoiClusters,
            data_scale: 0.1,
            algorithm: Algorithm::Bbst,
            windows: vec![100.0],
            t: 2_048,
            warm_ops: 50,
            timed_ops: 3_000,
            segment_ops: 300,
            mutate_every: 5,
        },
        Workload {
            name: "cold_windows",
            why: "24 window sizes cycled against an engine cache of 16: every request is a cache miss, so request latency is index build (grid, per-cell BBSTs, upper bounds, alias) sampled 120 times a round.",
            kind: DatasetKind::PoiClusters,
            data_scale: 0.2,
            algorithm: Algorithm::Bbst,
            windows: (0..24).map(|i| 50.0 + 10.0 * i as f64).collect(),
            t: 4_096,
            warm_ops: 24,
            timed_ops: 120,
            segment_ops: 24,
            mutate_every: 0,
        },
    ];
    if scale == Scale::Smoke {
        for w in &mut all {
            w.data_scale /= 20.0;
            w.warm_ops = (w.warm_ops / 20).max(w.mutate_every.max(2));
            // One segment of whole patterns.
            let pattern = w.pattern_ops();
            w.timed_ops = (w.timed_ops / 20 / pattern).max(1) * pattern;
            w.segment_ops = w.timed_ops;
        }
    }
    all
}

pub fn find(name: &str, scale: Scale) -> Option<Workload> {
    workloads(scale).into_iter().find(|w| w.name == name)
}

#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Sample {
        l: f64,
        t: u64,
        seed: u64,
    },
    Insert {
        side: Side,
        points: Vec<Point>,
    },
    /// Tombstones `count` S points. The ids exist only at run time:
    /// they come from the INSERT answers of the dataset's current epoch.
    DeleteS {
        count: usize,
    },
}

/// SplitMix64 finaliser over `(seed, stream, index)`.
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

impl Workload {
    /// The dataset this workload serves.
    pub fn dataset(&self) -> ScaledDataset {
        scaled_spec(self.kind, self.data_scale, 0.5, DATA_SEED)
    }

    pub fn total_ops(&self) -> usize {
        self.warm_ops + self.timed_ops
    }

    /// Operations after which the sequence repeats in kind: a full
    /// cycle of windows, and of the four mutation kinds.
    pub fn pattern_ops(&self) -> usize {
        let mutations = if self.mutate_every > 0 {
            4 * self.mutate_every
        } else {
            1
        };
        let (mut a, mut b) = (self.windows.len(), mutations);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        self.windows.len() / a * mutations
    }

    fn stream(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.name.as_bytes())
    }

    /// The request seed of operation `index`: never 0, which the server
    /// reads as "unseeded".
    pub fn request_seed(&self, seed: u64, index: usize) -> u64 {
        mix(seed, self.stream(), index as u64) | 1
    }

    /// The points mutations cluster around: picked among the generated
    /// outer set, so writes land where the data is.
    pub fn anchors(&self, r: &[Point]) -> Vec<Point> {
        let mut rng = SmallRng::seed_from_u64(mix(DATA_SEED, self.stream(), u64::MAX));
        (0..ANCHORS).map(|_| r[rng.gen_range(0..r.len())]).collect()
    }

    /// Warm-up operations followed by the timed ones; `r` is the
    /// generated outer set (see [`Workload::anchors`]).
    pub fn ops(&self, seed: u64, r: &[Point]) -> Vec<Op> {
        let anchors = self.anchors(r);
        let mut rng = SmallRng::seed_from_u64(mix(DATA_SEED, self.stream(), u64::MAX - 1));
        let mut samples = 0usize;
        let mut mutations = 0usize;
        (0..self.total_ops())
            .map(|i| {
                if self.mutate_every > 0 && i % self.mutate_every == self.mutate_every - 1 {
                    let k = mutations;
                    mutations += 1;
                    let anchor = anchors[k % ANCHORS];
                    match k % 4 {
                        0 | 2 => Op::Insert {
                            side: Side::S,
                            points: mutation_points(anchor, &mut rng),
                        },
                        1 => Op::Insert {
                            side: Side::R,
                            points: mutation_points(anchor, &mut rng),
                        },
                        _ => Op::DeleteS {
                            count: MUTATION_POINTS,
                        },
                    }
                } else {
                    let l = self.windows[samples % self.windows.len()];
                    samples += 1;
                    Op::Sample {
                        l,
                        t: self.t,
                        seed: self.request_seed(seed, i),
                    }
                }
            })
            .collect()
    }
}

/// One mutation's worth of points, jittered around `anchor` and kept
/// inside the domain.
pub fn mutation_points(anchor: Point, rng: &mut SmallRng) -> Vec<Point> {
    (0..MUTATION_POINTS)
        .map(|_| {
            let dx = rng.gen_range(-MUTATION_JITTER..MUTATION_JITTER);
            let dy = rng.gen_range(-MUTATION_JITTER..MUTATION_JITTER);
            Point::new(
                (anchor.x + dx).clamp(0.0, DOMAIN),
                (anchor.y + dy).clamp(0.0, DOMAIN),
            )
        })
        .collect()
}

/// A digest of an operation sequence: same seed, same digest.
pub fn op_hash(ops: &[Op]) -> u64 {
    ops.iter().fold(FNV_OFFSET, |h, op| match op {
        Op::Sample { l, t, seed } => {
            let h = fnv1a(h, b"S");
            let h = fnv1a(h, &l.to_bits().to_le_bytes());
            let h = fnv1a(h, &t.to_le_bytes());
            fnv1a(h, &seed.to_le_bytes())
        }
        Op::Insert { side, points } => {
            let h = fnv1a(h, if *side == Side::R { b"IR" } else { b"IS" });
            points.iter().fold(h, |h, p| {
                let h = fnv1a(h, &p.x.to_bits().to_le_bytes());
                fnv1a(h, &p.y.to_bits().to_le_bytes())
            })
        }
        Op::DeleteS { count } => fnv1a(fnv1a(h, b"DS"), &(*count as u64).to_le_bytes()),
    })
}
