//! Peak heap bytes on the way to served group rows, against the
//! allocator. A counting global allocator over `System` keeps the live
//! heap bytes and their high-water mark; the two largest transient
//! copies of the path must stay gone:
//!
//! * generating and splitting a dataset ([`scaled_spec`]) hands the
//!   generated points to the split, which deals `R` into their buffer:
//!   the points and `S`, 24 B a point at `r_fraction` 0.5 (32 when the
//!   split copied both sides);
//! * the group pass ([`GroupCore::build`]) keeps the grouping of `R` as
//!   its member ids: it peaks at the grouping's 4 B a point over what it
//!   keeps (8 when it copied the ids out).
//!
//! The allocator counts every thread's bytes, so this binary holds one
//! test, and the builds run on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use srj_bench::scaled_spec;
use srj_core::{GroupCore, GroupIndex, SampleConfig};
use srj_datagen::DatasetKind;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn grew(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    /// A block that moved held the new block beside the old one; one
    /// resized in place (a shrink, as a rule) only the larger of the two.
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            if q == p {
                Self::grew(new_size.saturating_sub(layout.size()));
                LIVE.fetch_sub(layout.size().saturating_sub(new_size), Ordering::Relaxed);
            } else {
                Self::grew(new_size);
                LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` returns, the bytes it left allocated and the most it held
/// at once, both over what was live before.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    let retained = LIVE.load(Ordering::Relaxed) - before;
    (out, retained, PEAK.load(Ordering::Relaxed) - before)
}

#[test]
fn generating_splitting_and_grouping_copy_nothing_twice() {
    let (d, _, peak) = peak_of(|| scaled_spec(DatasetKind::TaxiHotspots, 0.05, 0.5, 1));
    let points = d.total();
    let per_point = peak as f64 / points as f64;
    assert!(
        per_point <= 25.0,
        "scaled_spec peaked at {peak} B for {points} points: {per_point:.2} B a point"
    );

    // The grid and both point sets are ready, as a serving engine's
    // group pass finds them.
    let config = SampleConfig::new(100.0).with_build_threads(1);
    let index = GroupIndex::build(&d.r[..], &d.s[..], &config);
    let (r, grid) = (Arc::clone(index.r_set()), Arc::clone(index.grid()));
    drop(index);
    let (core, retained, peak) = peak_of(|| GroupCore::build(r, grid));
    assert!(core.group_count() > 0);
    let bound = (retained + 4 * d.r.len()) as f64 * 1.01;
    assert!(
        peak as f64 <= bound,
        "the group pass over {} points of R peaked at {peak} B, keeping {retained} B: \
         {:.2} B a point of R over what it keeps (bound {bound:.0} B)",
        d.r.len(),
        (peak - retained) as f64 / d.r.len() as f64
    );
}
