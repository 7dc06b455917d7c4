//! `srj-engine` — a concurrent query-serving subsystem over the
//! paper's join samplers.
//!
//! The paper's algorithms all separate one-time preprocessing from
//! per-sample work ("all algorithms pick join samples progressively",
//! §II; Tables II–IV time the phases separately). `srj-core` makes that
//! seam structural (immutable `*Index` + cheap `*Cursor`); this crate
//! turns it into a service, holding every algorithm's index in one
//! shape — one index over all of `R` on its family's `S`-side,
//! optionally under a delta overlay:
//!
//! ```text
//!                 ┌────────────────────────────────────────────┐
//!                 │                Engine (Arc)                │
//!   R, S, l ───►  │  build ONCE: one index of family F         │
//!                 │   F = KDS | KDS-rejection | BBST           │
//!                 │  EngineStats (relaxed atomics)             │
//!                 └───────┬──────────────┬─────────────┬───────┘
//!                         │              │             │
//!                  handle()        handle()      handle()   … O(1) each
//!                         │              │             │
//!                 ┌───────▼──────┐ ┌─────▼────────┐ ┌──▼───────────┐
//!                 │SamplerHandle │ │SamplerHandle │ │SamplerHandle │
//!                 │ own SmallRng │ │ own SmallRng │ │ own SmallRng │
//!                 │ own cursor / │ │ own cursor / │ │ own cursor / │
//!                 │  PhaseReport │ │  PhaseReport │ │  PhaseReport │
//!                 └───────┬──────┘ └─────┬────────┘ └──┬───────────┘
//!                 thread 1 │       thread 2 │    thread N │
//!                          ▼                ▼             ▼
//!             sample_batch(t) / sample_one() / stream() — concurrent,
//!                  lock-free against the shared immutable index
//! ```
//!
//! ## Unforced builds ([`Engine::auto`])
//!
//! With no algorithm forced, `|R|` and `|S|` pick it: **KDS** when
//! `n·√m ≤ 2·10⁵` (exact counting is trivially affordable; zero
//! rejections at serve time), **BBST** otherwise (the paper's
//! algorithm: per-sample cost is `Õ(1)` regardless of bound looseness,
//! Lemma 6). BBST's build probes the §III-B grid bound itself and
//! serves one row per cell of `R` where that bound is tight
//! ([`Engine::row_granularity`]), so KDS-rejection — the paper's
//! baseline — serves only when forced. An unforced build is exactly
//! the forced build of the algorithm it picks.
//!
//! ## Dynamic datasets ([`EpochEngine`], [`DatasetStore`])
//!
//! The dataset is mutable even though every index is immutable: a
//! [`DatasetStore`] buffers inserts/deletes as deltas with
//! version/epoch counters, and an [`EpochEngine`] serves it through an
//! atomic-swap cell — overlay snapshots ([`srj_core::OverlayIndex`],
//! uniformity-preserving; each one extends the last by its own batch
//! of inserts and shares the rest) between rebuilds, epoch swaps
//! (reusing the `Arc`-shared `S`-side when only `R` changed) once the
//! pending delta crosses a threshold. In-flight handles pin their epoch.
//!
//! ## Statistics ([`Engine::stats`])
//!
//! Queries served, samples drawn, sampling iterations (rejections
//! included — `StatsSnapshot::rejection_rate` is the serving-time
//! measurement of `W/|J|`, `W` the index's total weight), errors, and
//! mean/p50/p99 per-query latency from a log₂-bucketed histogram — all
//! relaxed atomics, no locks on the serving path.

mod dataset;
mod engine;
mod epoch;
mod family;
mod stats;

pub use dataset::{BatchApplied, DatasetSnapshot, DatasetStore, SPatchDelta};
pub use engine::{Algorithm, Engine, HandleStream, SamplerHandle};
pub use epoch::{EpochConfig, EpochEngine};
pub use family::RowGranularity;
/// The ladder step a window stands on: what keys a step's engine.
pub use srj_grid::ladder_side;
pub use stats::{EngineStats, MaintenanceCounters, StatsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use srj_core::{SampleConfig, SampleError};
    use srj_geom::{Point, Rect};

    fn pseudo_points(n: usize, seed: u64, extent: f64) -> Vec<Point> {
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

    #[test]
    fn every_algorithm_serves_valid_pairs() {
        let r = pseudo_points(80, 1, 50.0);
        let s = pseudo_points(120, 2, 50.0);
        let cfg = SampleConfig::new(6.0);
        for algo in [Algorithm::Kds, Algorithm::KdsRejection, Algorithm::Bbst] {
            let engine = Engine::build(&r, &s, &cfg, algo);
            assert_eq!(engine.algorithm(), algo);
            let mut h = engine.handle_seeded(3);
            let pairs = h.sample_batch(300).unwrap();
            assert_eq!(pairs.len(), 300);
            for p in pairs {
                let w = Rect::window(r[p.r as usize], 6.0);
                assert!(w.contains(s[p.s as usize]), "{algo}");
            }
        }
    }

    #[test]
    fn same_seed_same_stream_distinct_seeds_distinct_streams() {
        let r = pseudo_points(60, 11, 40.0);
        let s = pseudo_points(90, 12, 40.0);
        let engine = Engine::build(&r, &s, &SampleConfig::new(5.0), Algorithm::Bbst);
        let a = engine.handle_seeded(42).sample_batch(200).unwrap();
        let b = engine.handle_seeded(42).sample_batch(200).unwrap();
        let c = engine.handle_seeded(43).sample_batch(200).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn auto_handles_are_unique_but_deterministic_per_engine() {
        let r = pseudo_points(50, 21, 30.0);
        let s = pseudo_points(70, 22, 30.0);
        let cfg = SampleConfig::new(4.0);
        let e1 = Engine::build(&r, &s, &cfg, Algorithm::Kds);
        let e2 = Engine::build(&r, &s, &cfg, Algorithm::Kds);
        // k-th auto handle draws the same stream on equal engines...
        let s1 = e1.handle().sample_batch(50).unwrap();
        let s2 = e2.handle().sample_batch(50).unwrap();
        assert_eq!(s1, s2);
        // ...but successive handles of one engine differ.
        let s3 = e1.handle().sample_batch(50).unwrap();
        assert_ne!(s1, s3);
    }

    #[test]
    fn stats_aggregate_across_handles() {
        let r = pseudo_points(60, 31, 40.0);
        let s = pseudo_points(80, 32, 40.0);
        let engine = Engine::build(&r, &s, &SampleConfig::new(5.0), Algorithm::KdsRejection);
        let mut h1 = engine.handle_seeded(1);
        let mut h2 = engine.handle_seeded(2);
        h1.sample_batch(100).unwrap();
        h2.sample_batch(50).unwrap();
        h2.sample_one().unwrap();
        let snap = engine.stats();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.samples, 151);
        assert_eq!(snap.errors, 0);
        assert!(snap.p99_latency >= snap.p50_latency);
        assert!(snap.mean_latency > std::time::Duration::ZERO);
        // per-handle reports stay separate
        assert_eq!(h1.report().samples, 100);
        assert_eq!(h2.report().samples, 51);
    }

    #[test]
    fn errors_are_counted() {
        let r = vec![Point::new(0.0, 0.0)];
        let s = vec![Point::new(900.0, 900.0)];
        let engine = Engine::build(&r, &s, &SampleConfig::new(1.0), Algorithm::Kds);
        let mut h = engine.handle_seeded(0);
        assert_eq!(h.sample_one(), Err(SampleError::EmptyJoin));
        assert_eq!(engine.stats().errors, 1);
    }

    #[test]
    fn stream_is_progressive_and_stops_on_error() {
        let r = pseudo_points(40, 41, 30.0);
        let s = pseudo_points(60, 42, 30.0);
        let engine = Engine::build(&r, &s, &SampleConfig::new(4.0), Algorithm::Bbst);
        let mut h = engine.handle_seeded(5);
        let collected: Vec<_> = h.stream().take(75).collect();
        assert_eq!(collected.len(), 75);
        for p in collected {
            let w = Rect::window(r[p.r as usize], 4.0);
            assert!(w.contains(s[p.s as usize]));
        }

        let empty = Engine::build(
            &[Point::new(0.0, 0.0)],
            &[Point::new(500.0, 500.0)],
            &SampleConfig::new(1.0),
            Algorithm::Bbst,
        );
        let mut h = empty.handle_seeded(0);
        let mut stream = h.stream();
        assert!(stream.next().is_none());
        assert_eq!(stream.error(), Some(SampleError::EmptyJoin));
    }

    /// [`Engine::auto`], checked to be the forced build of `algorithm`:
    /// the same index, the same seeded draws.
    fn auto_as_forced(r: &[Point], s: &[Point], cfg: &SampleConfig, algorithm: Algorithm) {
        let engine = Engine::auto(r, s, cfg);
        let forced = Engine::build(r, s, cfg, algorithm);
        assert_eq!(engine.algorithm(), algorithm);
        assert_eq!(engine.total_weight(), forced.total_weight());
        assert_eq!(engine.row_granularity(), forced.row_granularity());
        assert_eq!(engine.row_count(), forced.row_count());
        let draws = |e: &Engine| e.handle_seeded(7).sample_batch(200).unwrap();
        assert_eq!(draws(&engine), draws(&forced), "{algorithm}");
    }

    #[test]
    fn auto_picks_kds_for_tiny_inputs() {
        let r = pseudo_points(100, 51, 40.0);
        let s = pseudo_points(100, 52, 40.0);
        auto_as_forced(&r, &s, &SampleConfig::new(5.0), Algorithm::Kds);
    }

    #[test]
    fn auto_picks_bbst_for_high_selectivity_workloads() {
        // Dense uniform data with windows that cover a large fraction
        // of their 3×3 cell block: the 9-cell bound is tight (≈ (3l/2l)²
        // = 2.25 iterations a sample), yet the baseline that draws
        // against it, KDS-rejection, is never an unforced choice.
        let r = pseudo_points(4_000, 61, 100.0);
        let s = pseudo_points(4_000, 62, 100.0);
        auto_as_forced(&r, &s, &SampleConfig::new(10.0), Algorithm::Bbst);
    }

    #[test]
    fn auto_picks_bbst_for_low_selectivity_workloads() {
        // Near-miss workload: every S point sits in a neighbouring grid
        // cell of some R point (so the 9-cell bound counts it) but
        // outside almost every window. A sparse set of true matches
        // keeps |J| > 0.
        let l = 5.0;
        let mut r = Vec::new();
        let mut s = Vec::new();
        for i in 0..4_000 {
            let x = (i % 64) as f64 * 3.0 * l;
            let y = (i / 64) as f64 * 3.0 * l;
            r.push(Point::new(x, y));
            // diagonal neighbour: inside the 3×3 block, outside w(r)
            s.push(Point::new(x + 1.9 * l, y + 1.9 * l));
            if i % 97 == 0 {
                s.push(Point::new(x + 0.5 * l, y + 0.5 * l)); // true match
            }
        }
        auto_as_forced(&r, &s, &SampleConfig::new(l), Algorithm::Bbst);
    }

    #[test]
    fn rejection_rate_flows_from_handles_to_engine_stats() {
        // Near-miss workload (see auto_picks_bbst...): rejections are
        // guaranteed, so iterations must exceed samples.
        let l = 5.0;
        let mut r = Vec::new();
        let mut s = Vec::new();
        for i in 0..500 {
            let x = (i % 32) as f64 * 3.0 * l;
            let y = (i / 32) as f64 * 3.0 * l;
            r.push(Point::new(x, y));
            s.push(Point::new(x + 1.9 * l, y + 1.9 * l));
            if i % 7 == 0 {
                s.push(Point::new(x + 0.5 * l, y + 0.5 * l));
            }
        }
        let engine = Engine::build(&r, &s, &SampleConfig::new(l), Algorithm::KdsRejection);
        let mut h = engine.handle_seeded(3);
        h.sample_batch(300).unwrap();

        // per-handle rate: iterations / samples, straight off the report
        let rep = h.report();
        let rate = h.rejection_rate().expect("samples were drawn");
        assert!((rate - rep.iterations as f64 / rep.samples as f64).abs() < 1e-12);
        assert!(rate > 1.0, "near-miss workload must reject: rate = {rate}");

        // aggregate rate: engine stats saw the same iterations
        let snap = engine.stats();
        assert_eq!(snap.samples, 300);
        assert_eq!(snap.iterations, rep.iterations);
        let agg = snap.rejection_rate();
        assert!((agg - rate).abs() < 1e-12);

        // a second handle's iterations add on top
        let mut h2 = engine.handle_seeded(4);
        h2.sample_batch(100).unwrap();
        let snap = engine.stats();
        assert_eq!(snap.samples, 400);
        assert_eq!(snap.iterations, rep.iterations + h2.report().iterations);

        // KDS never rejects: rate is exactly 1
        let kds = Engine::build(&r, &s, &SampleConfig::new(l), Algorithm::Kds);
        let mut hk = kds.handle_seeded(5);
        hk.sample_batch(200).unwrap();
        assert_eq!(hk.rejection_rate(), Some(1.0));
        assert_eq!(kds.stats().rejection_rate(), 1.0);
    }

    #[test]
    fn build_report_and_memory_are_exposed() {
        let r = pseudo_points(60, 71, 40.0);
        let s = pseudo_points(90, 72, 40.0);
        let cfg = SampleConfig::new(5.0);
        let phases = |rep: srj_core::PhaseReport| {
            let srj_core::PhaseReport {
                preprocessing,
                grid_mapping,
                upper_bounding,
                upper_bounding_cpu,
                ..
            } = rep;
            (
                preprocessing,
                grid_mapping,
                upper_bounding,
                upper_bounding_cpu,
            )
        };
        // Every family stands on a grid of S, and the grid is GM's.
        for algo in [Algorithm::Kds, Algorithm::KdsRejection, Algorithm::Bbst] {
            let engine = Engine::build(&r, &s, &cfg, algo);
            let report = engine.build_report();
            assert!(report.grid_mapping > std::time::Duration::ZERO, "{algo}");
            assert!(engine.memory_bytes() > 0, "{algo}");

            // The phases spent before the per-r pass stay folded in: an
            // overlay reports its base's, and so does a handle.
            let support = srj_core::OverlaySupport::build(&r, &s, cfg.half_extent);
            let mut delta = srj_core::DeltaSet::for_base(r.len(), s.len());
            delta.r_inserted.push(s[0]);
            let overlay = engine.with_overlay(delta, &support, &cfg);
            assert_eq!(phases(overlay.build_report()), phases(report), "{algo}");
            let mut h = engine.handle_seeded(1);
            h.sample_batch(10).unwrap();
            assert_eq!(phases(h.report()), phases(report), "{algo}");
            assert_eq!(h.report().samples, 10, "{algo}");
        }
    }

    #[test]
    fn empty_r_yields_empty_join() {
        let s = pseudo_points(50, 31, 30.0);
        let cfg = SampleConfig::new(4.0);
        for algo in [Algorithm::Kds, Algorithm::KdsRejection, Algorithm::Bbst] {
            let engine = Engine::build(&[], &s, &cfg, algo);
            let mut h = engine.handle_seeded(0);
            assert_eq!(h.sample_one(), Err(SampleError::EmptyJoin), "{algo}");
            assert_eq!(h.sample_batch(5), Err(SampleError::EmptyJoin), "{algo}");
        }
    }
}
