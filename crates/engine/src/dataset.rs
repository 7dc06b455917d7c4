//! A versioned, mutable `(R, S)` point store — the source of truth the
//! epoch-swap machinery serves from.
//!
//! The paper's structures are static; the serving system makes the
//! *dataset* dynamic instead of the structures. A [`DatasetStore`]
//! holds an immutable **base snapshot** (`Arc`-shared with every index
//! built over it) plus a [`DeltaSet`] of pending mutations, and two
//! counters:
//!
//! * **version** — bumped on every mutation. Engines compare it to
//!   decide when to refresh their overlay snapshot.
//! * **epoch** — bumped on every [`DatasetStore::compact`] (full
//!   rebuild): the pending deltas are folded into a fresh base snapshot
//!   and **point ids are renumbered** (live base points first, in id
//!   order, then live inserted points, in insertion order). Sample
//!   pairs are therefore only meaningful relative to the epoch they
//!   were drawn in; [`DatasetSnapshot`] pins one epoch's view.
//!
//! Id assignment within an epoch is stable: base points keep
//! `0..base_len`, the `i`-th insert since the last compaction gets
//! `base_len + i`, and deletes tombstone ids without reuse.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use srj_core::{DeltaSet, IndexBytes};
use srj_geom::{Point, PointId};
use srj_grid::PointSet;
use srj_obs::journal::{event, EventKind};

/// One epoch's consistent view of a [`DatasetStore`]: the base arrays
/// (`Arc`-shared, never copied) plus a clone of the pending delta.
#[derive(Clone)]
pub struct DatasetSnapshot {
    /// Base `R` points of the epoch (ids `0..base_r_len`), as the
    /// [`PointSet`] every index of the epoch — whatever its window size —
    /// stands on, and the overlay's grid of `R` with it: none copies it.
    /// A compaction that changes `R` makes a new set.
    pub base_r: Arc<PointSet>,
    /// Base `S` points of the epoch, as the [`PointSet`] every index of
    /// the epoch — whatever its window size — is built on: they share
    /// the array and its sorted orders, which the first build computes.
    /// A compaction that changes `S` makes a new set.
    pub base_s: Arc<PointSet>,
    /// **Dead** base `S` ids: tombstones folded by an incremental
    /// (cell-patch) compaction without renumbering. Dead points stay
    /// resolvable in `base_s` but are indexed by no structure and must
    /// never be sampled; a full [`DatasetStore::compact`] purges them.
    /// Empty unless incremental compactions ran this epoch chain.
    pub s_dead: Arc<HashSet<PointId>>,
    /// Mutations pending against the base at snapshot time.
    pub delta: DeltaSet,
    /// The epoch this snapshot belongs to.
    pub epoch: u64,
    /// The mutation version this snapshot reflects.
    pub version: u64,
}

/// The `S`-side of one incremental compaction
/// ([`DatasetStore::compact_incremental`]): exactly the arguments a
/// cell-granular `patch` needs, plus the identity of the base `S` the
/// delta was relative to (so an engine can verify its own `S`-side is
/// the patch's valid starting point — a sibling engine sharing the
/// store may have compacted in between).
pub struct SPatchDelta {
    /// The base `S` allocation the folded delta was relative to.
    pub prev_base_s: Arc<PointSet>,
    /// That base's dead ids before the fold. A sibling's delete-only
    /// patch keeps the allocation and grows this set, so the two
    /// together are the identity a patch must start from.
    pub prev_s_dead: Arc<HashSet<PointId>>,
    /// `S` points appended by the compaction (ids continue from
    /// `prev_base_s.len()`, matching the delta's insert numbering).
    pub inserted: Vec<Point>,
    /// `S` ids tombstoned by the compaction (now dead in the base).
    pub deleted: HashSet<PointId>,
}

impl SPatchDelta {
    /// `true` iff the compaction changed `S` at all.
    pub fn s_changed(&self) -> bool {
        !self.inserted.is_empty() || !self.deleted.is_empty()
    }
}

impl DatasetSnapshot {
    /// Resolves `R` id `id` (base or inserted; live or tombstoned).
    pub fn r_point(&self, id: PointId) -> Option<Point> {
        self.delta.r_point(&self.base_r, id)
    }

    /// Resolves `S` id `id`.
    pub fn s_point(&self, id: PointId) -> Option<Point> {
        self.delta.s_point(&self.base_s, id)
    }

    /// Live `(id, point)` pairs of `R'` at this snapshot.
    pub fn live_r(&self) -> Vec<(PointId, Point)> {
        let mut out = Vec::with_capacity(self.delta.live_r_len());
        for (i, &p) in self.base_r.iter().enumerate() {
            let id = i as PointId;
            if !self.delta.r_deleted.contains(&id) {
                out.push((id, p));
            }
        }
        for (i, &p) in self.delta.r_inserted.iter().enumerate() {
            let id = (self.delta.base_r_len + i) as PointId;
            if !self.delta.r_deleted.contains(&id) {
                out.push((id, p));
            }
        }
        out
    }

    /// Live `(id, point)` pairs of `S'` at this snapshot (dead base ids
    /// excluded).
    pub fn live_s(&self) -> Vec<(PointId, Point)> {
        let mut out = Vec::with_capacity(self.delta.live_s_len());
        for (j, &p) in self.base_s.iter().enumerate() {
            let id = j as PointId;
            if !self.delta.s_deleted.contains(&id) && !self.s_dead.contains(&id) {
                out.push((id, p));
            }
        }
        for (j, &p) in self.delta.s_inserted.iter().enumerate() {
            let id = (self.delta.base_s_len + j) as PointId;
            if !self.delta.s_deleted.contains(&id) {
                out.push((id, p));
            }
        }
        out
    }
}

/// Outcome of a batch mutation, read atomically with the mutation
/// itself (one write lock covers the whole batch and the counters).
#[derive(Clone, Copy, Debug)]
pub struct BatchApplied {
    /// First id of the contiguous range assigned to an insert batch
    /// (`0` for deletes; the would-be next id for an empty insert).
    pub first_id: PointId,
    /// Operations that took effect.
    pub applied: u32,
    /// Epoch the batch landed in.
    pub epoch: u64,
    /// Version after the batch.
    pub version: u64,
}

struct StoreInner {
    base_r: Arc<PointSet>,
    base_s: Arc<PointSet>,
    /// Dead base `S` ids accumulated by incremental compactions (see
    /// [`DatasetSnapshot::s_dead`]); purged by a full compaction.
    s_dead: Arc<HashSet<PointId>>,
    delta: DeltaSet,
    epoch: u64,
    version: u64,
}

impl StoreInner {
    fn snapshot(&self) -> DatasetSnapshot {
        DatasetSnapshot {
            base_r: Arc::clone(&self.base_r),
            base_s: Arc::clone(&self.base_s),
            s_dead: Arc::clone(&self.s_dead),
            delta: self.delta.clone(),
            epoch: self.epoch,
            version: self.version,
        }
    }
}

/// A thread-safe, mutable `(R, S)` dataset with epoch-based
/// compaction. Mutations are O(1) buffer appends / tombstones under a
/// short write lock; readers take consistent [`DatasetSnapshot`]s.
/// `EpochEngine` layers the serving side (overlay snapshots, rebuild
/// thresholds) on top.
pub struct DatasetStore {
    inner: RwLock<StoreInner>,
    /// Observability label: the registered dataset id this store
    /// serves, carried on every lifecycle event it (and the engines
    /// over it) emits. `u64::MAX` = unlabelled.
    obs_label: AtomicU64,
}

/// Sentinel for "no observability label set".
const NO_LABEL: u64 = u64::MAX;

/// The store's drift counters at one instant.
#[derive(Clone, Copy)]
pub(crate) struct StoreCounters {
    pub(crate) epoch: u64,
    pub(crate) version: u64,
}

impl StoreCounters {
    fn of(inner: &StoreInner) -> StoreCounters {
        StoreCounters {
            epoch: inner.epoch,
            version: inner.version,
        }
    }
}

impl DatasetStore {
    /// A store whose first epoch's base snapshot is `(r, s)`.
    ///
    /// # Panics
    /// Panics if `r` or `s` is not a valid [`PointSet`] (a non-finite
    /// coordinate, more than `u32::MAX` points).
    pub fn new(r: Vec<Point>, s: Vec<Point>) -> Self {
        let delta = DeltaSet::for_base(r.len(), s.len());
        DatasetStore {
            inner: RwLock::new(StoreInner {
                base_r: Arc::new(PointSet::new(r)),
                base_s: Arc::new(PointSet::new(s)),
                s_dead: Arc::new(HashSet::new()),
                delta,
                epoch: 0,
                version: 0,
            }),
            obs_label: AtomicU64::new(NO_LABEL),
        }
    }

    /// Labels this store with the dataset id it serves; lifecycle
    /// events emitted for the store (compactions, epoch swaps of
    /// engines over it) carry the label so the journal can be
    /// filtered per dataset. `u64::MAX` is reserved as "unlabelled".
    pub fn set_obs_label(&self, dataset: u64) {
        self.obs_label.store(dataset, Ordering::Relaxed);
    }

    /// The observability label, if one was set.
    pub fn obs_label(&self) -> Option<u64> {
        match self.obs_label.load(Ordering::Relaxed) {
            NO_LABEL => None,
            d => Some(d),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, StoreInner> {
        self.inner.read().expect("dataset store poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, StoreInner> {
        self.inner.write().expect("dataset store poisoned")
    }

    /// Everything an engine's maintenance check reads off the store,
    /// under one lock acquisition.
    pub(crate) fn counters(&self) -> StoreCounters {
        StoreCounters::of(&self.read())
    }

    /// [`DatasetStore::counters`] without waiting: `None` while a
    /// writer (a mutation batch, a compaction) holds the store.
    pub(crate) fn try_counters(&self) -> Option<StoreCounters> {
        Some(StoreCounters::of(&*self.inner.try_read().ok()?))
    }

    /// Current epoch (bumped by [`DatasetStore::compact`]).
    pub fn epoch(&self) -> u64 {
        self.read().epoch
    }

    /// Current mutation version (bumped by every insert/delete and by
    /// compaction).
    pub fn version(&self) -> u64 {
        self.read().version
    }

    /// Live `|R'|`.
    pub fn live_r_len(&self) -> usize {
        self.read().delta.live_r_len()
    }

    /// Live `|S'|` (dead base ids excluded).
    pub fn live_s_len(&self) -> usize {
        let inner = self.read();
        inner.delta.live_s_len() - inner.s_dead.len()
    }

    /// Dead base `S` ids (folded tombstones awaiting a full
    /// compaction; see [`DatasetSnapshot::s_dead`]).
    pub fn s_dead_len(&self) -> usize {
        self.read().s_dead.len()
    }

    /// Pending mutation count (inserts + tombstones since the last
    /// compaction).
    pub fn pending_ops(&self) -> usize {
        self.read().delta.pending_ops()
    }

    /// Pending mutations as a fraction of the base snapshot size — the
    /// quantity `EpochEngine` compares against its rebuild threshold.
    pub fn delta_fraction(&self) -> f64 {
        let inner = self.read();
        let base = (inner.delta.base_r_len + inner.delta.base_s_len).max(1);
        inner.delta.pending_ops() as f64 / base as f64
    }

    /// Pending **tombstones** (deletes only) as a fraction of the base
    /// snapshot size. Tracked separately from [`delta_fraction`] so a
    /// tombstone-heavy delta can force a (now-cheap, cell-granular)
    /// rebuild that actually shrinks `Σµ` even while the total pending
    /// fraction is still below the general rebuild threshold.
    ///
    /// [`delta_fraction`]: DatasetStore::delta_fraction
    pub fn tombstone_fraction(&self) -> f64 {
        let inner = self.read();
        let base = (inner.delta.base_r_len + inner.delta.base_s_len).max(1);
        inner.delta.tombstone_ops() as f64 / base as f64
    }

    /// Heap bytes of the two base sets, `R`'s as `r_points` and `S`'s as
    /// `point_set`, which no engine over the store counts as its own.
    pub fn set_bytes(&self) -> IndexBytes {
        let inner = self.read();
        IndexBytes {
            r_points: inner.base_r.memory_bytes(),
            point_set: inner.base_s.memory_bytes(),
            ..IndexBytes::default()
        }
    }

    /// A consistent view of the current epoch (base arrays `Arc`-shared,
    /// delta cloned).
    pub fn snapshot(&self) -> DatasetSnapshot {
        self.read().snapshot()
    }

    /// Inserts an `R` point, returning its id (stable until the next
    /// compaction renumbers ids).
    pub fn insert_r(&self, p: Point) -> PointId {
        let mut inner = self.write();
        let id = (inner.delta.base_r_len + inner.delta.r_inserted.len()) as PointId;
        inner.delta.r_inserted.push(p);
        inner.version += 1;
        id
    }

    /// Inserts an `S` point, returning its id.
    pub fn insert_s(&self, p: Point) -> PointId {
        let mut inner = self.write();
        let id = (inner.delta.base_s_len + inner.delta.s_inserted.len()) as PointId;
        inner.delta.s_inserted.push(p);
        inner.version += 1;
        id
    }

    /// Tombstones `R` id `id`; `false` if the id is unknown or already
    /// deleted (no version bump then).
    pub fn delete_r(&self, id: PointId) -> bool {
        let mut inner = self.write();
        if (id as usize) >= inner.delta.base_r_len + inner.delta.r_inserted.len()
            || !inner.delta.r_deleted.insert(id)
        {
            return false;
        }
        inner.version += 1;
        true
    }

    /// Tombstones `S` id `id`; `false` if unknown, already deleted, or
    /// dead from an earlier incremental compaction.
    pub fn delete_s(&self, id: PointId) -> bool {
        let mut inner = self.write();
        if (id as usize) >= inner.delta.base_s_len + inner.delta.s_inserted.len()
            || inner.s_dead.contains(&id)
            || !inner.delta.s_deleted.insert(id)
        {
            return false;
        }
        inner.version += 1;
        true
    }

    /// Inserts a whole batch of `R` points under **one** write lock,
    /// returning the contiguous id range start and the epoch/version
    /// the batch landed in. Per-point [`DatasetStore::insert_r`] calls
    /// cannot promise contiguity under concurrency (another writer —
    /// or a compaction — may interleave), and the network `UPDATE`
    /// frame's `first_id + k` contract depends on it.
    ///
    /// An empty batch reports the would-be next id and the current
    /// counters without bumping anything.
    pub fn insert_r_batch(&self, points: &[Point]) -> BatchApplied {
        let mut inner = self.write();
        let first_id = (inner.delta.base_r_len + inner.delta.r_inserted.len()) as PointId;
        inner.delta.r_inserted.extend_from_slice(points);
        if !points.is_empty() {
            inner.version += 1;
        }
        BatchApplied {
            first_id,
            applied: points.len() as u32,
            epoch: inner.epoch,
            version: inner.version,
        }
    }

    /// Batch [`DatasetStore::insert_s`]; see
    /// [`DatasetStore::insert_r_batch`] for the atomicity contract.
    pub fn insert_s_batch(&self, points: &[Point]) -> BatchApplied {
        let mut inner = self.write();
        let first_id = (inner.delta.base_s_len + inner.delta.s_inserted.len()) as PointId;
        inner.delta.s_inserted.extend_from_slice(points);
        if !points.is_empty() {
            inner.version += 1;
        }
        BatchApplied {
            first_id,
            applied: points.len() as u32,
            epoch: inner.epoch,
            version: inner.version,
        }
    }

    /// Tombstones a batch of `R` ids under one write lock (unknown and
    /// already-deleted ids are skipped — `applied` counts the ones
    /// that took effect), with the epoch/version read atomically with
    /// the mutation.
    pub fn delete_r_batch(&self, ids: &[PointId]) -> BatchApplied {
        let mut inner = self.write();
        let known = inner.delta.base_r_len + inner.delta.r_inserted.len();
        let mut applied = 0u32;
        for &id in ids {
            if (id as usize) < known && inner.delta.r_deleted.insert(id) {
                applied += 1;
            }
        }
        if applied > 0 {
            inner.version += 1;
        }
        BatchApplied {
            first_id: 0,
            applied,
            epoch: inner.epoch,
            version: inner.version,
        }
    }

    /// Batch [`DatasetStore::delete_s`]; see
    /// [`DatasetStore::delete_r_batch`].
    pub fn delete_s_batch(&self, ids: &[PointId]) -> BatchApplied {
        let mut inner = self.write();
        let known = inner.delta.base_s_len + inner.delta.s_inserted.len();
        let mut applied = 0u32;
        for &id in ids {
            if (id as usize) < known
                && !inner.s_dead.contains(&id)
                && inner.delta.s_deleted.insert(id)
            {
                applied += 1;
            }
        }
        if applied > 0 {
            inner.version += 1;
        }
        BatchApplied {
            first_id: 0,
            applied,
            epoch: inner.epoch,
            version: inner.version,
        }
    }

    /// Folds the pending delta into a fresh base snapshot, bumping the
    /// epoch and **renumbering ids** (live base points first, then live
    /// inserts); dead ids left behind by incremental compactions are
    /// purged too. No-op — and no epoch bump — when nothing is pending
    /// and nothing is dead. Returns the snapshot engines should rebuild
    /// from, and whether `S` changed (an unchanged `S` lets the rebuild
    /// reuse the previous epoch's `Arc`-shared `S`-side structures).
    pub fn compact(&self) -> (DatasetSnapshot, bool) {
        let t0 = Instant::now();
        let mut inner = self.write();
        if inner.delta.is_empty() && inner.s_dead.is_empty() {
            return (inner.snapshot(), false);
        }
        let s_changed = !inner.delta.s_inserted.is_empty()
            || !inner.delta.s_deleted.is_empty()
            || !inner.s_dead.is_empty();
        let new_r = Self::fold_r(&inner);
        let new_s: Arc<PointSet> = if s_changed {
            let mut v = Vec::with_capacity(inner.delta.live_s_len() - inner.s_dead.len());
            for (j, &p) in inner.base_s.iter().enumerate() {
                let id = j as PointId;
                if !inner.delta.s_deleted.contains(&id) && !inner.s_dead.contains(&id) {
                    v.push(p);
                }
            }
            for (j, &p) in inner.delta.s_inserted.iter().enumerate() {
                if !inner
                    .delta
                    .s_deleted
                    .contains(&((inner.delta.base_s_len + j) as PointId))
                {
                    v.push(p);
                }
            }
            Arc::new(PointSet::new(v))
        } else {
            // S untouched: the new epoch shares the very same allocation.
            Arc::clone(&inner.base_s)
        };
        inner.base_r = new_r;
        inner.base_s = new_s;
        inner.s_dead = Arc::new(HashSet::new());
        inner.delta = DeltaSet::for_base(inner.base_r.len(), inner.base_s.len());
        inner.epoch += 1;
        inner.version += 1;
        let result = (inner.snapshot(), s_changed);
        let epoch = inner.epoch;
        drop(inner);
        event(EventKind::Compaction)
            .dataset(self.obs_label())
            .epoch(epoch)
            .duration_ns(t0.elapsed().as_nanos() as u64)
            .emit();
        result
    }

    /// Folds the pending delta **without renumbering `S`**: the
    /// cell-patch compaction. `R` is folded and renumbered as usual
    /// (the `R`-side index is rebuilt wholesale on every major swap
    /// anyway), but `S` keeps stable ids — pending inserts are appended
    /// (their delta ids carry over exactly) and pending deletes become
    /// *dead* base ids ([`DatasetSnapshot::s_dead`]). The returned
    /// [`SPatchDelta`] is precisely what a cell-granular `patch` of the
    /// previous epoch's `S`-side structures needs; its `prev_base_s`
    /// lets the engine verify the patch applies to the `S` allocation
    /// it actually built over.
    ///
    /// Bumps the epoch (ids of `R` renumber; `S` ids survive). No-op
    /// when nothing is pending.
    pub fn compact_incremental(&self) -> (DatasetSnapshot, SPatchDelta) {
        let t0 = Instant::now();
        let mut inner = self.write();
        let prev_base_s = Arc::clone(&inner.base_s);
        let prev_s_dead = Arc::clone(&inner.s_dead);
        if inner.delta.is_empty() {
            let patch = SPatchDelta {
                prev_base_s,
                prev_s_dead,
                inserted: Vec::new(),
                deleted: HashSet::new(),
            };
            return (inner.snapshot(), patch);
        }
        let new_r = Self::fold_r(&inner);
        let s_inserted = std::mem::take(&mut inner.delta.s_inserted);
        let s_deleted = std::mem::take(&mut inner.delta.s_deleted);
        let new_s: Arc<PointSet> = if s_inserted.is_empty() {
            Arc::clone(&inner.base_s)
        } else {
            Arc::new(inner.base_s.extended(&s_inserted))
        };
        if !s_deleted.is_empty() {
            let mut dead = (*inner.s_dead).clone();
            dead.extend(s_deleted.iter().copied());
            inner.s_dead = Arc::new(dead);
        }
        inner.base_r = new_r;
        inner.base_s = new_s;
        inner.delta = DeltaSet::for_base(inner.base_r.len(), inner.base_s.len());
        inner.epoch += 1;
        inner.version += 1;
        let patch = SPatchDelta {
            prev_base_s,
            prev_s_dead,
            inserted: s_inserted,
            // The cell patch takes std's default-hashed set.
            deleted: s_deleted.into_iter().collect(),
        };
        let result = (inner.snapshot(), patch);
        let epoch = inner.epoch;
        drop(inner);
        event(EventKind::Compaction)
            .dataset(self.obs_label())
            .epoch(epoch)
            .duration_ns(t0.elapsed().as_nanos() as u64)
            .emit();
        result
    }

    /// Live `R` fold: base survivors in id order, then live inserts —
    /// the very same set when nothing of `R` is pending.
    fn fold_r(inner: &StoreInner) -> Arc<PointSet> {
        if inner.delta.r_inserted.is_empty() && inner.delta.r_deleted.is_empty() {
            return Arc::clone(&inner.base_r);
        }
        let mut v = Vec::with_capacity(inner.delta.live_r_len());
        for (i, &p) in inner.base_r.iter().enumerate() {
            if !inner.delta.r_deleted.contains(&(i as PointId)) {
                v.push(p);
            }
        }
        for (i, &p) in inner.delta.r_inserted.iter().enumerate() {
            if !inner
                .delta
                .r_deleted
                .contains(&((inner.delta.base_r_len + i) as PointId))
            {
                v.push(p);
            }
        }
        Arc::new(PointSet::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn ids_are_stable_within_an_epoch() {
        let store = DatasetStore::new(vec![p(0.0, 0.0), p(1.0, 1.0)], vec![p(5.0, 5.0)]);
        assert_eq!(store.insert_r(p(2.0, 2.0)), 2);
        assert_eq!(store.insert_r(p(3.0, 3.0)), 3);
        assert_eq!(store.insert_s(p(6.0, 6.0)), 1);
        assert!(store.delete_r(0));
        assert!(!store.delete_r(0), "double delete refused");
        assert!(!store.delete_r(99), "unknown id refused");
        assert_eq!(store.version(), 4);
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.live_r_len(), 3);
        let snap = store.snapshot();
        assert_eq!(snap.r_point(3), Some(p(3.0, 3.0)));
        assert_eq!(snap.r_point(0), Some(p(0.0, 0.0)), "tombstoned resolves");
        assert!(!snap.delta.is_r_live(0));
        assert_eq!(snap.live_r().len(), 3);
    }

    #[test]
    fn compact_folds_deltas_and_renumbers() {
        let store = DatasetStore::new(vec![p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)], vec![]);
        store.insert_r(p(3.0, 3.0));
        store.delete_r(1);
        let (snap, s_changed) = store.compact();
        assert!(!s_changed, "S never mutated");
        assert_eq!(snap.epoch, 1);
        assert_eq!(store.epoch(), 1);
        assert_eq!(
            snap.base_r.points(),
            &[p(0.0, 0.0), p(2.0, 2.0), p(3.0, 3.0)]
        );
        assert!(snap.delta.is_empty());
        // next insert continues from the compacted length
        assert_eq!(store.insert_r(p(9.0, 9.0)), 3);
    }

    #[test]
    fn compact_is_a_noop_when_clean() {
        let store = DatasetStore::new(vec![p(0.0, 0.0)], vec![p(1.0, 1.0)]);
        let (snap, s_changed) = store.compact();
        assert_eq!(snap.epoch, 0);
        assert_eq!(store.epoch(), 0);
        assert!(!s_changed);
    }

    #[test]
    fn unchanged_s_shares_the_allocation_across_epochs() {
        let store = DatasetStore::new(vec![p(0.0, 0.0)], vec![p(1.0, 1.0)]);
        let before = store.snapshot();
        store.insert_r(p(2.0, 2.0));
        let (after, s_changed) = store.compact();
        assert!(!s_changed);
        assert!(Arc::ptr_eq(&before.base_s, &after.base_s));
        assert!(!Arc::ptr_eq(&before.base_r, &after.base_r));
    }

    #[test]
    fn unchanged_r_shares_the_set_across_epochs() {
        let store = DatasetStore::new(vec![p(0.0, 0.0)], vec![p(1.0, 1.0)]);
        let before = store.snapshot();
        store.insert_s(p(2.0, 2.0));
        let (after, s_changed) = store.compact();
        assert!(s_changed);
        assert!(Arc::ptr_eq(&before.base_r, &after.base_r));
        store.delete_s(0);
        let (after, _) = store.compact_incremental();
        assert!(Arc::ptr_eq(&before.base_r, &after.base_r));
    }

    #[test]
    #[should_panic(expected = "finite coordinates")]
    fn a_non_finite_r_is_refused() {
        DatasetStore::new(vec![p(f64::NAN, 0.0)], vec![]);
    }

    #[test]
    fn batch_mutations_are_atomic_and_contiguous() {
        // Interleaved writers: every batch must still get a contiguous
        // id range, disjoint from every other batch (the wire UPDATE
        // frame's first_id + k contract).
        let store = Arc::new(DatasetStore::new(Vec::new(), Vec::new()));
        let ranges: Vec<(u32, u32)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let store = Arc::clone(&store);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for b in 0..50 {
                            let pts = vec![p(w as f64, b as f64); 16];
                            let applied = store.insert_r_batch(&pts);
                            assert_eq!(applied.applied, 16);
                            out.push((applied.first_id, applied.applied));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut covered = vec![false; 4 * 50 * 16];
        for (first, applied) in ranges {
            for id in first..first + applied {
                assert!(!covered[id as usize], "id {id} claimed twice");
                covered[id as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "id space has holes");
        // one version bump per batch, not per point
        assert_eq!(store.version(), 4 * 50);
        // empty batches bump nothing and report the next id
        let v = store.version();
        let applied = store.insert_s_batch(&[]);
        assert_eq!((applied.first_id, applied.applied), (0, 0));
        assert_eq!(store.version(), v);
        // batch deletes: applied counts only effective tombstones
        let applied = store.delete_r_batch(&[0, 1, 0, 999_999]);
        assert_eq!(applied.applied, 2);
        assert_eq!(store.live_r_len(), 4 * 50 * 16 - 2);
    }

    #[test]
    fn incremental_compaction_keeps_s_ids_stable() {
        let store = DatasetStore::new(
            vec![p(0.0, 0.0), p(1.0, 1.0)],
            vec![p(10.0, 10.0), p(11.0, 11.0), p(12.0, 12.0)],
        );
        let sid = store.insert_s(p(13.0, 13.0));
        assert_eq!(sid, 3);
        assert!(store.delete_s(1));
        store.insert_r(p(2.0, 2.0));
        assert!(store.delete_r(0));

        let before = store.snapshot();
        let (snap, patch) = store.compact_incremental();
        assert_eq!(snap.epoch, 1);
        assert!(patch.s_changed());
        assert!(Arc::ptr_eq(&patch.prev_base_s, &before.base_s));
        assert_eq!(patch.inserted, vec![p(13.0, 13.0)]);
        assert!(patch.deleted.contains(&1));

        // R renumbered (live base then live inserts)…
        assert_eq!(snap.base_r.points(), &[p(1.0, 1.0), p(2.0, 2.0)]);
        // …but S appended with stable ids: id 3 still resolves to the
        // inserted point, id 1 is dead but still resolvable.
        assert_eq!(snap.base_s[3], p(13.0, 13.0));
        assert_eq!(snap.base_s[1], p(11.0, 11.0));
        assert!(snap.s_dead.contains(&1));
        assert_eq!(store.live_s_len(), 3);
        assert_eq!(store.s_dead_len(), 1);
        assert_eq!(snap.live_s().len(), 3);
        assert!(snap.live_s().iter().all(|&(id, _)| id != 1));

        // A dead id can never be deleted again.
        assert!(!store.delete_s(1));
        let applied = store.delete_s_batch(&[1, 2]);
        assert_eq!(applied.applied, 1);

        // A later *full* compaction purges the dead ids and renumbers.
        let (snap2, s_changed) = store.compact();
        assert!(s_changed);
        assert_eq!(snap2.base_s.len(), 2); // ids {0,1,2,3} − dead 1 − deleted 2
        assert!(snap2.s_dead.is_empty());
        assert_eq!(store.s_dead_len(), 0);
    }

    #[test]
    fn incremental_compaction_with_r_only_delta_shares_s() {
        let store = DatasetStore::new(vec![p(0.0, 0.0)], vec![p(1.0, 1.0)]);
        store.insert_r(p(2.0, 2.0));
        let before = store.snapshot();
        let (snap, patch) = store.compact_incremental();
        assert!(!patch.s_changed());
        assert!(Arc::ptr_eq(&before.base_s, &snap.base_s));
        assert_eq!(snap.epoch, 1);
        assert_eq!(store.live_r_len(), 2);
    }

    #[test]
    fn full_compaction_purges_dead_even_with_empty_delta() {
        let store = DatasetStore::new(Vec::new(), vec![p(0.0, 0.0), p(1.0, 1.0)]);
        store.delete_s(0);
        store.compact_incremental();
        assert_eq!(store.s_dead_len(), 1);
        assert_eq!(store.pending_ops(), 0);
        // Delta is empty, but the dead id still forces a purge.
        let (snap, s_changed) = store.compact();
        assert!(s_changed);
        assert_eq!(snap.base_s.points(), &[p(1.0, 1.0)]);
        assert_eq!(snap.epoch, 2);
    }

    #[test]
    fn tombstone_fraction_counts_deletes_only() {
        let store = DatasetStore::new(vec![p(0.0, 0.0); 10], vec![p(0.0, 0.0); 10]);
        store.insert_r(p(1.0, 1.0));
        store.insert_s(p(2.0, 2.0));
        assert_eq!(store.tombstone_fraction(), 0.0);
        store.delete_r(0);
        store.delete_s(0);
        assert!((store.tombstone_fraction() - 0.1).abs() < 1e-12);
        assert!((store.delta_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn delta_fraction_tracks_pending_ops() {
        let store = DatasetStore::new(vec![p(0.0, 0.0); 10], vec![p(0.0, 0.0); 10]);
        assert_eq!(store.delta_fraction(), 0.0);
        store.insert_s(p(1.0, 1.0));
        store.delete_s(0);
        assert!((store.delta_fraction() - 0.1).abs() < 1e-12);
        store.compact();
        assert_eq!(store.delta_fraction(), 0.0);
    }
}
