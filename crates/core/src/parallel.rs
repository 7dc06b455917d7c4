//! Dependency-free chunked parallel map for the build phases.
//!
//! The per-`r` upper-bounding loops of every index builder are
//! embarrassingly data-parallel: each element's output depends only on
//! that element and on immutable shared structures (a kd-tree, a grid,
//! per-cell BBSTs). This module supplies the one splitting primitive
//! they all use — a contiguous-chunk map over [`std::thread::scope`] —
//! so the workspace needs no external thread-pool crate (the build
//! environment is offline; see `vendor/`). [`par_map`] is its
//! per-element form, `par_chunks` hands a worker its whole chunk.
//!
//! **Determinism:** the input is split into contiguous chunks and the
//! per-chunk outputs are re-concatenated in order, so for any pure
//! per-element function the result is bit-identical to the serial map
//! regardless of the thread count. Index builds therefore produce the
//! same weights, the same alias tables, and the same sample streams at
//! every `build_threads` setting (covered by `tests/parallel_build.rs`).

use std::time::{Duration, Instant};

/// Hard ceiling on spawned worker threads, regardless of the requested
/// count: a caller-controlled `--threads 200000` must degrade to a
/// bounded spawn, not abort the process when OS thread creation fails.
/// Far above any sane core count, far below any spawn limit.
pub const MAX_THREADS: usize = 256;

/// Resolves a requested thread count: `0` means "use every available
/// core" ([`std::thread::available_parallelism`]); anything else is
/// taken literally up to [`MAX_THREADS`].
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested.min(MAX_THREADS)
    }
}

/// Balanced contiguous partition of `n` items into `k` parts: the
/// `(start, end)` bounds of each part, in order, first `n % k` parts
/// one longer. `k` is clamped to `[1, max(n, 1)]`, so no part is empty
/// unless `n == 0` (which yields the single part `(0, 0)`).
///
/// This is [`par_map`]'s chunking rule, so the partition contract
/// (balance, exhaustiveness, order) lives in exactly one place.
pub fn chunk_bounds(n: usize, k: usize) -> Vec<(usize, usize)> {
    let k = k.clamp(1, n.max(1));
    let base = n / k;
    let rem = n % k;
    let mut bounds = Vec::with_capacity(k);
    let mut start = 0usize;
    for i in 0..k {
        let len = base + usize::from(i < rem);
        bounds.push((start, start + len));
        start += len;
    }
    bounds
}

/// Timing of one [`par_map`] call: wall-clock of the whole map, the
/// aggregate CPU time summed over worker threads, and how many threads
/// actually ran. `cpu / wall` is the achieved speedup; `cpu == wall`
/// for serial runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParMapReport {
    /// Elapsed wall-clock time of the whole map.
    pub wall: Duration,
    /// Sum of per-chunk busy times across worker threads.
    pub cpu: Duration,
    /// Number of chunks/threads the input was split into.
    pub threads: usize,
}

/// Maps `f(index, &item)` over `items` on up to `threads` scoped
/// threads (`0` = all cores), preserving input order.
///
/// Each worker gets one contiguous chunk; outputs are concatenated in
/// chunk order, so the result equals the serial
/// `items.iter().enumerate().map(..).collect()` for any pure `f`.
/// Falls back to a plain serial loop when one thread (or fewer than two
/// items) is requested, so callers never pay thread spawn overhead for
/// trivial inputs. Panics in `f` are propagated to the caller.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> (Vec<U>, ParMapReport)
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_chunks(items, threads, |offset, chunk| {
        chunk
            .iter()
            .enumerate()
            .map(|(i, t)| f(offset + i, t))
            .collect()
    })
}

/// The chunk-level form of [`par_map`]: `f(offset, chunk)` produces the
/// whole output of one contiguous chunk `items[offset..][..chunk.len()]`
/// (on up to `threads` scoped threads, `0` = all cores), and the
/// per-chunk outputs are concatenated in chunk order. For builders whose
/// work is cheaper per chunk than per element — the cell-major
/// upper-bounding pass groups a chunk of `R` by cell before sweeping it.
///
/// The result is bit-identical at every thread count whenever the
/// output of a chunk is the concatenation of the outputs of its parts,
/// which holds for any `f` that emits one value per element depending
/// on that element (and immutable shared state) alone. With one thread
/// the single chunk's output is returned as is, uncopied.
pub(crate) fn par_chunks<T, U, F>(items: &[T], threads: usize, f: F) -> (Vec<U>, ParMapReport)
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T]) -> Vec<U> + Sync,
{
    let n = items.len();
    let threads = effective_threads(threads).min(n).max(1);
    let start = Instant::now();
    if threads == 1 {
        let out = f(0, items);
        let wall = start.elapsed();
        return (
            out,
            ParMapReport {
                wall,
                cpu: wall,
                threads: 1,
            },
        );
    }

    let bounds = chunk_bounds(n, threads);
    let mut chunks: Vec<(Vec<U>, Duration)> = Vec::with_capacity(bounds.len());
    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::with_capacity(bounds.len());
        for &(lo, hi) in &bounds {
            let chunk = &items[lo..hi];
            handles.push(scope.spawn(move || {
                let t0 = Instant::now();
                let out = f(lo, chunk);
                (out, t0.elapsed())
            }));
        }
        for h in handles {
            match h.join() {
                Ok(r) => chunks.push(r),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    let cpu = chunks.iter().map(|(_, d)| *d).sum();
    let mut out = Vec::with_capacity(chunks.iter().map(|(c, _)| c.len()).sum());
    for (chunk, _) in chunks {
        out.extend(chunk);
    }
    (
        out,
        ParMapReport {
            wall: start.elapsed(),
            cpu,
            threads: bounds.len(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_exactly() {
        let items: Vec<u64> = (0..10_001).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x.wrapping_mul(31).wrapping_add(i as u64))
            .collect();
        for threads in [1, 2, 3, 4, 7, 16] {
            let (par, rep) = par_map(&items, threads, |i, &x| {
                x.wrapping_mul(31).wrapping_add(i as u64)
            });
            assert_eq!(par, serial, "threads = {threads}");
            assert!(rep.threads >= 1 && rep.threads <= threads.max(1));
        }
    }

    #[test]
    fn chunk_outputs_concatenate_in_order() {
        let items: Vec<u32> = (0..1000).collect();
        for threads in [1, 2, 3, 4, 7] {
            // A flat map: odd elements emit nothing, so chunk outputs
            // differ in length.
            let (out, rep) = par_chunks(&items, threads, |offset, chunk| {
                assert_eq!(chunk[0] as usize, offset);
                chunk.iter().copied().filter(|x| x % 2 == 0).collect()
            });
            assert_eq!(out, (0..1000).step_by(2).collect::<Vec<u32>>());
            assert_eq!(rep.threads, threads);
        }
    }

    #[test]
    fn indices_are_global_not_per_chunk() {
        let items = vec![(); 1000];
        let (out, _) = par_map(&items, 4, |i, ()| i);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let (out, rep) = par_map::<u8, u8, _>(&[], 8, |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(rep.threads, 1);
        let (out, _) = par_map(&[5u8], 8, |_, &x| x * 2);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn zero_means_all_cores() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
        // zero threads on a real input must still compute everything
        let items: Vec<u32> = (0..100).collect();
        let (out, rep) = par_map(&items, 0, |_, &x| x + 1);
        assert_eq!(out, (1..101).collect::<Vec<_>>());
        assert!(rep.cpu >= Duration::ZERO);
    }

    #[test]
    fn more_threads_than_items_is_clamped() {
        let items: Vec<u32> = (0..3).collect();
        let (out, rep) = par_map(&items, 64, |_, &x| x);
        assert_eq!(out, items);
        assert!(rep.threads <= 3);
    }

    #[test]
    fn absurd_thread_requests_are_capped() {
        assert_eq!(effective_threads(usize::MAX), MAX_THREADS);
        // a huge request over a huge input must not try to spawn
        // hundreds of thousands of OS threads
        let items = vec![1u8; 100_000];
        let (out, rep) = par_map(&items, 200_000, |_, &x| x);
        assert_eq!(out.len(), items.len());
        assert!(rep.threads <= MAX_THREADS);
    }

    #[test]
    fn chunk_bounds_balance_and_exhaustiveness() {
        for (n, k) in [(10, 3), (9, 3), (1, 4), (0, 2), (100, 1), (7, 7)] {
            let b = chunk_bounds(n, k);
            assert_eq!(b.first().unwrap().0, 0);
            assert_eq!(b.last().unwrap().1, n);
            for w in b.windows(2) {
                assert_eq!(w[0].1, w[1].0, "gap for n={n} k={k}");
            }
            let sizes: Vec<usize> = b.iter().map(|(lo, hi)| hi - lo).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced: {sizes:?}");
        }
    }
}
