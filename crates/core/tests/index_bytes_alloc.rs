//! [`IndexBytes`] against the allocator. A counting global allocator
//! over `System` keeps the live heap bytes; what building an index
//! leaves allocated must be its [`IndexBytes::total`] within ±2 %. The
//! cases are group rows on a grid without sorted views and on one with
//! them, per-`r` rows and KDS, each a full build and an overlay over it,
//! on clustered and on uniform points.
//!
//! The allocator counts every thread's bytes, so this binary holds one
//! test, and the builds run on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use srj_core::{
    BbstIndex, DeltaSet, GroupIndex, IndexBytes, KdsIndex, OverlayIndex, OverlaySupport,
    SampleConfig, SamplerIndex,
};
use srj_geom::Point;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` returns, and the bytes it left allocated.
fn live_after<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let out = f();
    (out, LIVE.load(Ordering::Relaxed) - before)
}

fn assert_close(what: &str, bytes: IndexBytes, live: usize) {
    let counted = bytes.total();
    let off = (counted as f64 - live as f64) / live as f64;
    assert!(
        off.abs() <= 0.02,
        "{what}: IndexBytes {counted} B, allocator {live} B ({:+.2} %): {bytes:?}",
        100.0 * off
    );
}

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

/// Points in 40 tight clumps.
fn clustered(n: usize, seed: u64) -> Vec<Point> {
    let centres = pseudo_points(40, 7, 400.0);
    pseudo_points(n, seed, 3.0)
        .into_iter()
        .zip(centres.iter().cycle())
        .map(|(p, c)| Point::new(c.x + p.x, c.y + p.y))
        .collect()
}

/// A full build of `build`, then an overlay over it with inserts on
/// both sides and deletes of both, each checked against the allocator.
fn check<I: SamplerIndex>(
    what: &str,
    (r, s): (&[Point], &[Point]),
    config: &SampleConfig,
    build: impl FnOnce() -> I,
) {
    let (index, live) = live_after(build);
    assert_close(&format!("{what}, full build"), index.index_bytes(), live);
    let base = Arc::new(index);
    let (overlay, live) = live_after(|| {
        let l = config.half_extent;
        let mut delta = DeltaSet::for_base(r.len(), s.len());
        delta.r_inserted = pseudo_points(r.len() / 20, 11, 400.0);
        delta.s_inserted = pseudo_points(s.len() / 20, 12, 400.0);
        delta.r_deleted.extend((0..r.len() as u32).step_by(50));
        delta.s_deleted.extend((0..s.len() as u32).step_by(50));
        let support = OverlaySupport::build(r, s, l);
        OverlayIndex::new(Arc::clone(&base), delta, &support, config)
    });
    assert_close(&format!("{what}, overlay"), overlay.own_bytes(), live);
}

#[test]
fn index_bytes_are_the_allocators_live_bytes() {
    let n = 10_000;
    let config = SampleConfig::new(4.0).with_build_threads(1);
    let datasets = [
        ("clustered", clustered(n, 1), clustered(n, 2)),
        (
            "uniform",
            pseudo_points(n, 3, 400.0),
            pseudo_points(n, 4, 400.0),
        ),
    ];
    for (data, r, s) in &datasets {
        let sets = (&r[..], &s[..]);
        check(&format!("group rows, {data}"), sets, &config, || {
            GroupIndex::build(&r[..], &s[..], &config)
        });
        check(
            &format!("group rows, sorted views, {data}"),
            sets,
            &config,
            || {
                let index = GroupIndex::build(&r[..], &s[..], &config);
                index.grid().sort_views(1);
                index
            },
        );
        check(&format!("per-r rows, {data}"), sets, &config, || {
            BbstIndex::build(&r[..], &s[..], &config)
        });
        check(&format!("KDS, {data}"), sets, &config, || {
            KdsIndex::build(&r[..], &s[..], &config)
        });
    }
}
