use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srj_geom::{normalize_to_domain, Point, DEFAULT_DOMAIN};

/// Which synthetic dataset family to generate (stand-ins for the paper's
/// four real datasets of the paper's §V-A; see the crate docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DatasetKind {
    /// Uniform noise over the domain (not in the paper; useful baseline
    /// for tests and ablations).
    Uniform,
    /// CaStreet stand-in: points along a random planar polyline network.
    RoadLike,
    /// Foursquare stand-in: Gaussian mixture with log-normal cluster
    /// sizes (city-like POI clusters).
    PoiClusters,
    /// IMIS stand-in: correlated random-walk trajectories (ship tracks).
    TrajectoryLike,
    /// NYC stand-in: power-law hotspot mixture plus uniform background
    /// (taxi pick-up/drop-off concentration).
    TaxiHotspots,
}

impl DatasetKind {
    /// All kinds that stand in for a paper dataset, in the paper's
    /// presentation order (CaStreet, Foursquare, IMIS, NYC).
    pub const PAPER_ORDER: [DatasetKind; 4] = [
        DatasetKind::RoadLike,
        DatasetKind::PoiClusters,
        DatasetKind::TrajectoryLike,
        DatasetKind::TaxiHotspots,
    ];

    /// The paper dataset this kind substitutes for (`None` for
    /// [`DatasetKind::Uniform`]).
    pub fn paper_name(&self) -> Option<&'static str> {
        match self {
            DatasetKind::Uniform => None,
            DatasetKind::RoadLike => Some("CaStreet"),
            DatasetKind::PoiClusters => Some("Foursquare"),
            DatasetKind::TrajectoryLike => Some("IMIS"),
            DatasetKind::TaxiHotspots => Some("NYC"),
        }
    }

    /// Short label used by the experiment harness.
    pub fn label(&self) -> &'static str {
        match self {
            DatasetKind::Uniform => "Uniform",
            DatasetKind::RoadLike => "RoadLike(CaStreet)",
            DatasetKind::PoiClusters => "PoiClusters(Foursquare)",
            DatasetKind::TrajectoryLike => "TrajectoryLike(IMIS)",
            DatasetKind::TaxiHotspots => "TaxiHotspots(NYC)",
        }
    }
}

/// A fully-specified synthetic dataset: kind, cardinality, seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DatasetSpec {
    /// Dataset family.
    pub kind: DatasetKind,
    /// Number of points to generate.
    pub n: usize,
    /// RNG seed; equal specs generate identical datasets.
    pub seed: u64,
}

impl DatasetSpec {
    /// Creates a spec.
    pub fn new(kind: DatasetKind, n: usize, seed: u64) -> Self {
        DatasetSpec { kind, n, seed }
    }
}

/// Generates the dataset described by `spec`, normalised to the paper's
/// `[0, 10000]²` domain.
pub fn generate(spec: &DatasetSpec) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ (spec.kind as u64) << 32);
    let mut pts = match spec.kind {
        DatasetKind::Uniform => uniform(spec.n, &mut rng),
        DatasetKind::RoadLike => road_like(spec.n, &mut rng),
        DatasetKind::PoiClusters => poi_clusters(spec.n, &mut rng),
        DatasetKind::TrajectoryLike => trajectory_like(spec.n, &mut rng),
        DatasetKind::TaxiHotspots => taxi_hotspots(spec.n, &mut rng),
    };
    normalize_to_domain(&mut pts, DEFAULT_DOMAIN);
    pts
}

/// Standard normal via Box–Muller (keeps us off `rand_distr`).
fn gaussian(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn uniform(n: usize, rng: &mut SmallRng) -> Vec<Point> {
    (0..n)
        .map(|_| {
            Point::new(
                rng.gen::<f64>() * DEFAULT_DOMAIN,
                rng.gen::<f64>() * DEFAULT_DOMAIN,
            )
        })
        .collect()
}

/// Points sampled along a network of random polylines ("roads"): each
/// polyline starts uniformly, walks with a slowly-drifting heading, and
/// sheds points with small lateral jitter. Produces the 1-D-filament
/// structure of road data: most grid cells empty, populated cells thin
/// and elongated.
fn road_like(n: usize, rng: &mut SmallRng) -> Vec<Point> {
    let mut pts = Vec::with_capacity(n);
    // ~1000 points per road, ≥ 8 roads
    let roads = (n / 1000).max(8);
    let per_road = n.div_ceil(roads);
    while pts.len() < n {
        let mut x = rng.gen::<f64>() * DEFAULT_DOMAIN;
        let mut y = rng.gen::<f64>() * DEFAULT_DOMAIN;
        let mut heading = rng.gen::<f64>() * std::f64::consts::TAU;
        let step = 4.0;
        for _ in 0..per_road {
            if pts.len() >= n {
                break;
            }
            heading += gaussian(rng) * 0.08; // gentle curvature
            x += heading.cos() * step;
            y += heading.sin() * step;
            // reflect at the domain boundary so roads stay inside
            if !(0.0..=DEFAULT_DOMAIN).contains(&x) {
                heading = std::f64::consts::PI - heading;
                x = x.clamp(0.0, DEFAULT_DOMAIN);
            }
            if !(0.0..=DEFAULT_DOMAIN).contains(&y) {
                heading = -heading;
                y = y.clamp(0.0, DEFAULT_DOMAIN);
            }
            pts.push(Point::new(x + gaussian(rng) * 1.5, y + gaussian(rng) * 1.5));
        }
    }
    pts
}

/// Gaussian mixture with log-normal cluster weights: POI check-ins pile
/// up around a heavy-tailed set of urban cores.
fn poi_clusters(n: usize, rng: &mut SmallRng) -> Vec<Point> {
    let k = ((n as f64).sqrt() as usize / 4).clamp(16, 400);
    let centers: Vec<(f64, f64, f64, f64)> = (0..k)
        .map(|_| {
            let cx = rng.gen::<f64>() * DEFAULT_DOMAIN;
            let cy = rng.gen::<f64>() * DEFAULT_DOMAIN;
            let sigma = 20.0 * (1.0 + gaussian(rng).abs() * 3.0);
            let weight = (gaussian(rng) * 1.2).exp(); // log-normal
            (cx, cy, sigma, weight)
        })
        .collect();
    let total_w: f64 = centers.iter().map(|c| c.3).sum();
    // cumulative weights for cluster choice
    let mut cum = Vec::with_capacity(k);
    let mut acc = 0.0;
    for c in &centers {
        acc += c.3 / total_w;
        cum.push(acc);
    }
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            let idx = cum.partition_point(|&c| c < u).min(k - 1);
            let (cx, cy, sigma, _) = centers[idx];
            Point::new(cx + gaussian(rng) * sigma, cy + gaussian(rng) * sigma)
        })
        .collect()
}

/// Correlated random-walk trajectories: many "vessels" each contributing
/// a long dense streak, leaving most of the domain empty — the defining
/// property of AIS data.
fn trajectory_like(n: usize, rng: &mut SmallRng) -> Vec<Point> {
    let walkers = (n / 5000).clamp(4, 200);
    let per_walker = n.div_ceil(walkers);
    let mut pts = Vec::with_capacity(n);
    while pts.len() < n {
        let mut x = rng.gen::<f64>() * DEFAULT_DOMAIN;
        let mut y = rng.gen::<f64>() * DEFAULT_DOMAIN;
        let mut vx = gaussian(rng) * 1.5;
        let mut vy = gaussian(rng) * 1.5;
        for _ in 0..per_walker {
            if pts.len() >= n {
                break;
            }
            vx = 0.98 * vx + gaussian(rng) * 0.2;
            vy = 0.98 * vy + gaussian(rng) * 0.2;
            x += vx;
            y += vy;
            if !(0.0..=DEFAULT_DOMAIN).contains(&x) {
                vx = -vx;
                x = x.clamp(0.0, DEFAULT_DOMAIN);
            }
            if !(0.0..=DEFAULT_DOMAIN).contains(&y) {
                vy = -vy;
                y = y.clamp(0.0, DEFAULT_DOMAIN);
            }
            pts.push(Point::new(x, y));
        }
    }
    pts
}

/// Power-law hotspots plus uniform background: a handful of "taxi stand"
/// hotspots receive most of the mass (hotspot `i` has weight
/// `∝ 1/(i+1)^1.2`), the rest of the city a thin uniform drizzle.
fn taxi_hotspots(n: usize, rng: &mut SmallRng) -> Vec<Point> {
    let hotspots = 64usize;
    let centers: Vec<(f64, f64, f64)> = (0..hotspots)
        .map(|_| {
            (
                rng.gen::<f64>() * DEFAULT_DOMAIN,
                rng.gen::<f64>() * DEFAULT_DOMAIN,
                5.0 + rng.gen::<f64>() * 60.0,
            )
        })
        .collect();
    let weights: Vec<f64> = (0..hotspots)
        .map(|i| 1.0 / ((i + 1) as f64).powf(1.2))
        .collect();
    let total_w: f64 = weights.iter().sum();
    let mut cum = Vec::with_capacity(hotspots);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total_w;
        cum.push(acc);
    }
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < 0.1 {
                // background traffic
                Point::new(
                    rng.gen::<f64>() * DEFAULT_DOMAIN,
                    rng.gen::<f64>() * DEFAULT_DOMAIN,
                )
            } else {
                let u: f64 = rng.gen();
                let idx = cum.partition_point(|&c| c < u).min(hotspots - 1);
                let (cx, cy, sigma) = centers[idx];
                Point::new(cx + gaussian(rng) * sigma, cy + gaussian(rng) * sigma)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use srj_geom::bounding_rect;

    fn all_kinds() -> [DatasetKind; 5] {
        [
            DatasetKind::Uniform,
            DatasetKind::RoadLike,
            DatasetKind::PoiClusters,
            DatasetKind::TrajectoryLike,
            DatasetKind::TaxiHotspots,
        ]
    }

    #[test]
    fn right_cardinality_and_domain() {
        for kind in all_kinds() {
            let pts = generate(&DatasetSpec::new(kind, 5000, 7));
            assert_eq!(pts.len(), 5000, "{kind:?}");
            let bb = bounding_rect(&pts).unwrap();
            assert!(bb.min_x >= 0.0 && bb.min_y >= 0.0, "{kind:?}");
            assert!(
                bb.max_x <= DEFAULT_DOMAIN + 1e-6 && bb.max_y <= DEFAULT_DOMAIN + 1e-6,
                "{kind:?}"
            );
            // normalization stretches to the full domain
            assert!(bb.max_x - bb.min_x > DEFAULT_DOMAIN * 0.99, "{kind:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        for kind in all_kinds() {
            let a = generate(&DatasetSpec::new(kind, 1000, 42));
            let b = generate(&DatasetSpec::new(kind, 1000, 42));
            assert_eq!(a, b, "{kind:?}");
            let c = generate(&DatasetSpec::new(kind, 1000, 43));
            assert_ne!(a, c, "{kind:?} should differ across seeds");
        }
    }

    /// Cell-occupancy skew: the skewed families must concentrate points
    /// in far fewer cells than the uniform baseline does.
    #[test]
    fn skewed_kinds_have_fewer_occupied_cells_than_uniform() {
        let n = 20_000;
        let occupied = |kind: DatasetKind| {
            let pts = generate(&DatasetSpec::new(kind, n, 5));
            let mut cells = std::collections::HashSet::new();
            for p in pts {
                cells.insert(((p.x / 100.0) as i64, (p.y / 100.0) as i64));
            }
            cells.len()
        };
        let uni = occupied(DatasetKind::Uniform);
        for kind in [
            DatasetKind::RoadLike,
            DatasetKind::PoiClusters,
            DatasetKind::TrajectoryLike,
            DatasetKind::TaxiHotspots,
        ] {
            let occ = occupied(kind);
            assert!(
                occ < uni,
                "{kind:?}: occupied {occ} should be below uniform {uni}"
            );
        }
    }

    #[test]
    fn hotspots_are_heavier_than_clusters() {
        // NYC-like data concentrates harder than POI data: compare the
        // max single-cell population.
        let n = 30_000;
        let max_cell = |kind: DatasetKind| {
            let pts = generate(&DatasetSpec::new(kind, n, 11));
            let mut cells: std::collections::HashMap<(i64, i64), usize> =
                std::collections::HashMap::new();
            for p in pts {
                *cells
                    .entry(((p.x / 100.0) as i64, (p.y / 100.0) as i64))
                    .or_default() += 1;
            }
            *cells.values().max().unwrap()
        };
        assert!(max_cell(DatasetKind::TaxiHotspots) > max_cell(DatasetKind::Uniform) * 5);
    }

    #[test]
    fn paper_order_and_names() {
        let names: Vec<_> = DatasetKind::PAPER_ORDER
            .iter()
            .map(|k| k.paper_name().unwrap())
            .collect();
        assert_eq!(names, ["CaStreet", "Foursquare", "IMIS", "NYC"]);
        assert!(DatasetKind::Uniform.paper_name().is_none());
    }

    #[test]
    fn tiny_datasets() {
        for kind in all_kinds() {
            assert_eq!(generate(&DatasetSpec::new(kind, 0, 1)).len(), 0);
            assert_eq!(generate(&DatasetSpec::new(kind, 1, 1)).len(), 1);
            assert_eq!(generate(&DatasetSpec::new(kind, 17, 1)).len(), 17);
        }
    }
}
