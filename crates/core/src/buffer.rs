//! Per-cell sample buffers: the O(1) buffered-draw fast path.
//!
//! The SIRS trick this reproduces: a draw that lands in a grid cell
//! **fully covered** by the query window is a uniform choice among the
//! cell's members — window-independent — so hot cells can carry a
//! fixed-capacity buffer of pre-drawn member ids, refilled in bulk
//! under the buffer's own RNG stream. The common draw then pops the
//! next pre-drawn id (a sequential read) instead of paying a kd-tree /
//! BBST descent plus a cold random access into the member list.
//!
//! Buffers live in the per-cursor scratch, so they are **pinned to the
//! index the cursor samples** (indexes are immutable; a maintenance
//! swap produces a new index, new cursors, and therefore fresh
//! buffers). Each buffer additionally records the identity of the
//! member list it was drawn from and refuses to serve a mismatched
//! list — a stale buffer would be a uniformity bug, not just a perf
//! bug. The path is off by default (`Default` scratch ⇒ disabled), so
//! the legacy draw entry points keep their byte-identical RNG streams;
//! the serving engine's batch path switches it on.
//!
//! Uniformity: conditioned on the rank draw selecting a fully-covered
//! cell, every member is equally likely — whether served as
//! `members[rank_in_cell]` (the unpromoted O(1) path, reusing the rank
//! the cell selection already consumed) or as the next pre-drawn
//! buffer id (each refill entry is an independent uniform draw over
//! the same member list). The cell-selection probabilities themselves
//! are untouched, so the draw distribution over the window is exactly
//! the descent path's.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use srj_geom::PointId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-cursor scratch of the KDS family: the buffered-draw fast path
/// state (off by default, so `Default` cursors keep the unbuffered RNG
/// stream byte-for-byte). The kd draws themselves need no buffer.
#[derive(Default)]
pub struct KdsScratch {
    /// Buffered fully-covered-cell draw state.
    pub buffers: DrawBuffers,
}

/// Pre-drawn ids per buffer: large enough to amortise the refill's
/// random member-list accesses, small enough that a cursor's working
/// set of buffers stays cache-resident.
pub const BUFFER_CAP: usize = 256;

/// Fully-covered draws a slot must serve before it earns a buffer —
/// cold cells keep the direct path and never pay a refill.
pub const PROMOTE_HITS: u32 = 8;

/// Buffers one cursor holds at most (the hottest slots win).
pub const MAX_BUFFERS: usize = 32;

/// Promotion-ladder entries tracked per cursor.
const MAX_HEAT: usize = 64;

/// Hit/refill/invalidation counts accumulated by one cursor's buffers,
/// drained by the serving engine into its shared counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Draws served by a buffer pop.
    pub hits: u64,
    /// Bulk refills performed.
    pub refills: u64,
    /// Buffers dropped because their member-list identity changed.
    pub invalidations: u64,
}

impl BufferStats {
    /// Field-wise sum.
    pub fn merge(&mut self, other: BufferStats) {
        self.hits += other.hits;
        self.refills += other.refills;
        self.invalidations += other.invalidations;
    }
}

/// One hot cell's pre-drawn ids.
struct SampleBuffer {
    slot: u32,
    /// Identity of the member list the ids were drawn from (the unit
    /// `Arc` pointer); `0` = not yet filled.
    token: usize,
    ids: Vec<PointId>,
    /// Next unserved id; `== ids.len()` means empty.
    pos: usize,
}

/// Process-wide seed sequence for buffer RNG streams: every buffer set
/// gets its own deterministic-per-process stream, decorrelated from
/// the request-seeded draw RNGs.
static BUFFER_SEED_SEQ: AtomicU64 = AtomicU64::new(0x5EED_B0FF_u64);

/// The per-cursor buffer set; lives inside an index's scratch state.
/// `Default` is all-off: the legacy draw entry points see a disabled,
/// empty set and never consult it.
#[derive(Default)]
pub struct DrawBuffers {
    enabled: bool,
    /// The buffer set's own RNG stream, created on first use.
    rng: Option<SmallRng>,
    bufs: Vec<SampleBuffer>,
    /// Promotion ladder: (slot, fully-covered draws served so far).
    heat: Vec<(u32, u32)>,
    stats: BufferStats,
}

impl DrawBuffers {
    /// Whether the buffered path is active for this cursor.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches the buffered path on or off. Turning it off keeps the
    /// buffers (re-enabling resumes them); the legacy entry points
    /// never consult them anyway.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Pins the buffer RNG to a caller-chosen stream. Seeded handles
    /// call this at arm time so a request's buffered draw sequence is
    /// a pure function of its seed — without it the stream comes from
    /// the process-wide `BUFFER_SEED_SEQ` and two same-seed requests
    /// would serve different (still uniform) pairs.
    pub fn seed_rng(&mut self, seed: u64) {
        self.rng = Some(SmallRng::seed_from_u64(seed));
    }

    /// Pre-promotes `slots`: each gets an empty buffer that fills on
    /// its first draw, skipping the promotion ladder. Callers wanting
    /// reproducible streams must warm from per-request-deterministic
    /// state only (the serving engine deliberately does not warm at
    /// all — see `Engine::arm_buffers`).
    pub fn warm(&mut self, slots: &[u32]) {
        for &slot in slots {
            if self.bufs.len() >= MAX_BUFFERS {
                break;
            }
            if self.bufs.iter().any(|b| b.slot == slot) {
                continue;
            }
            self.bufs.push(SampleBuffer {
                slot,
                token: 0,
                ids: Vec::new(),
                pos: 0,
            });
        }
    }

    /// Drains the accumulated hit/refill/invalidation counts.
    pub fn drain_stats(&mut self) -> BufferStats {
        std::mem::take(&mut self.stats)
    }

    /// One uniform draw over `members` (a fully-covered cell's member
    /// list, identified by `token`): a buffer pop when `slot` is hot,
    /// otherwise `members[rank()]` — `rank` is lazy because callers on
    /// the rank-walk path already hold a uniform in-cell rank, while
    /// others would pay an RNG draw for nothing.
    ///
    /// Callers must ensure `members` is non-empty and every member
    /// qualifies (the cell is fully covered by the query window).
    #[inline]
    pub fn draw_covered(
        &mut self,
        slot: u32,
        token: usize,
        members: &[PointId],
        rank: impl FnOnce() -> usize,
    ) -> PointId {
        debug_assert!(!members.is_empty());
        if let Some(i) = self.bufs.iter().position(|b| b.slot == slot) {
            return self.pop(i, token, members);
        }
        self.bump_heat(slot);
        members[rank()]
    }

    /// Serves one id from buffer `i`, refilling (and dropping stale
    /// contents) as needed.
    fn pop(&mut self, i: usize, token: usize, members: &[PointId]) -> PointId {
        let buf = &mut self.bufs[i];
        if buf.token != token {
            // The member list this buffer was drawn from is gone (only
            // possible if a cursor outlived its index's cell — the
            // scratch pinning makes this unreachable today, but a
            // stale serve would silently break uniformity, so the
            // check stays).
            if buf.token != 0 {
                self.stats.invalidations += 1;
            }
            buf.token = token;
            buf.pos = buf.ids.len(); // force refill
        }
        if buf.pos == buf.ids.len() {
            let rng = self.rng.get_or_insert_with(|| {
                SmallRng::seed_from_u64(
                    BUFFER_SEED_SEQ.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed),
                )
            });
            let buf = &mut self.bufs[i];
            buf.ids.clear();
            buf.ids.reserve(BUFFER_CAP);
            let len = members.len() as u128;
            for _ in 0..BUFFER_CAP {
                // Widening-multiply uniform index (bias ≤ len/2⁶⁴).
                let k = ((rng.next_u64() as u128 * len) >> 64) as usize;
                buf.ids.push(members[k]);
            }
            buf.pos = 0;
            self.stats.refills += 1;
        }
        let buf = &mut self.bufs[i];
        let id = buf.ids[buf.pos];
        buf.pos += 1;
        self.stats.hits += 1;
        id
    }

    /// Counts a fully-covered draw toward `slot`'s promotion.
    fn bump_heat(&mut self, slot: u32) {
        if self.bufs.len() >= MAX_BUFFERS {
            return;
        }
        if let Some(entry) = self.heat.iter_mut().find(|(s, _)| *s == slot) {
            entry.1 += 1;
            if entry.1 >= PROMOTE_HITS {
                self.warm(&[slot]);
            }
        } else if self.heat.len() < MAX_HEAT {
            self.heat.push((slot, 1));
        }
    }

    /// Number of promoted slots (tests / diagnostics).
    pub fn promoted(&self) -> usize {
        self.bufs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn unpromoted_draws_use_the_given_rank() {
        let mut b = DrawBuffers::default();
        b.set_enabled(true);
        let members = [10u32, 20, 30];
        assert_eq!(b.draw_covered(5, 1, &members, || 2), 30);
        assert_eq!(b.drain_stats(), BufferStats::default());
    }

    #[test]
    fn promotion_after_enough_hits_then_buffered() {
        let mut b = DrawBuffers::default();
        b.set_enabled(true);
        let members: Vec<u32> = (0..50).collect();
        for _ in 0..PROMOTE_HITS {
            b.draw_covered(3, 7, &members, || 0);
        }
        assert_eq!(b.promoted(), 1);
        let id = b.draw_covered(3, 7, &members, || unreachable!("buffered"));
        assert!(members.contains(&id));
        let s = b.drain_stats();
        assert_eq!((s.hits, s.refills), (1, 1));
    }

    #[test]
    fn warm_start_skips_the_ladder_and_draws_are_uniform() {
        let mut b = DrawBuffers::default();
        b.set_enabled(true);
        b.warm(&[9]);
        let members: Vec<u32> = (0..10).collect();
        let draws = 40_000u64;
        let mut freq: HashMap<u32, u64> = HashMap::new();
        for _ in 0..draws {
            *freq
                .entry(b.draw_covered(9, 42, &members, || unreachable!()))
                .or_default() += 1;
        }
        let expected = draws as f64 / members.len() as f64;
        for (&id, &c) in &freq {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.1, "member {id}: {c} vs {expected}");
        }
        let s = b.drain_stats();
        assert_eq!(s.hits, draws);
        assert_eq!(s.refills, draws.div_ceil(BUFFER_CAP as u64));
        assert_eq!(s.invalidations, 0);
    }

    #[test]
    fn token_change_invalidates_and_refills() {
        let mut b = DrawBuffers::default();
        b.set_enabled(true);
        b.warm(&[1]);
        let old: Vec<u32> = (0..8).collect();
        let new: Vec<u32> = (100..108).collect();
        b.draw_covered(1, 11, &old, || unreachable!());
        let id = b.draw_covered(1, 22, &new, || unreachable!());
        assert!(new.contains(&id), "stale id {id} served after token change");
        let s = b.drain_stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.refills, 2);
    }

    #[test]
    fn buffer_cap_bounds_the_set() {
        let mut b = DrawBuffers::default();
        b.set_enabled(true);
        let slots: Vec<u32> = (0..2 * MAX_BUFFERS as u32).collect();
        b.warm(&slots);
        assert_eq!(b.promoted(), MAX_BUFFERS);
    }
}
