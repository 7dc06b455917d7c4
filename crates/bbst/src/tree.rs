use std::ops::Range;

use crate::bucket::Bucket;

/// Sentinel node index.
pub(crate) const NONE: u32 = u32::MAX;

/// Which extremum of a bucket serves as its x-key.
///
/// `T_min` (keyed by `min_x`) serves quadrants bounded by `w(r).xmax`
/// (`c↘`, `c↗`); `T_max` (keyed by `max_x`) serves quadrants bounded by
/// `w(r).xmin` (`c↙`, `c↖`). See paper Section IV-D.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KeyKind {
    /// Key = `min_{s ∈ B} s.x`.
    MinX,
    /// Key = `max_{s ∈ B} s.x`.
    MaxX,
}

/// Y-dimension ordering / predicate used by a quadrant query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum YPred {
    /// Match buckets with `max_y ≥ y0` (query bounded by `w(r).ymin`);
    /// resolved on the max-y-sorted arrays (`A_max`, `B_max`).
    MaxAtLeast,
    /// Match buckets with `min_y ≤ y0` (query bounded by `w(r).ymax`);
    /// resolved on the min-y-sorted arrays (`A_min`, `B_min`).
    MinAtMost,
}

/// Arena segment `[start, end)` of bucket indices.
type Seg = (u32, u32);

/// One BBST node (paper Section IV-B):
///
/// * `key` — the median x-key this node splits on,
/// * `b_min` / `b_max` — the buckets whose key **equals** `key`, sorted
///   by min-y / max-y (the `B^min_i` / `B^max_i` lists; they keep the
///   tree balanced under duplicate keys),
/// * `a_min` / `a_max` — **all** buckets of the subtree rooted here,
///   sorted by min-y / max-y (the `A^min_i` / `A^max_i` arrays; they
///   answer the y-dimension for canonical nodes).
#[derive(Clone, Debug, PartialEq)]
struct Node {
    key: f64,
    left: u32,
    right: u32,
    b_min: Seg,
    b_max: Seg,
    a_min: Seg,
    a_max: Seg,
}

/// A bucket-based binary search tree over one cell's buckets.
///
/// Space: the tree has `O(b)` nodes over `b` buckets and each bucket
/// appears in the `A` arrays of its `O(log b)` ancestors, so the arena
/// holds `O(b log b)` entries — `O(N)` for `b = N / log m` (Lemma 2).
/// Which partition a cascading rank refers to (equal-key `B` list, left
/// child, right child).
#[derive(Clone, Copy)]
enum RankOf {
    Eq = 0,
    Left = 1,
    Right = 2,
}

#[derive(Clone, Debug)]
pub struct Bbst {
    key_kind: KeyKind,
    nodes: Vec<Node>,
    /// Bucket indices, segmented per node array/list.
    arena: Vec<u32>,
    /// `mass[k]` = cumulative true point count within `k`'s segment up to
    /// and including position `k`. Powers [`crate::MassMode::Exact`].
    mass: Vec<u32>,
    /// Fractional-cascading bridges (Chazelle & Guibas \[62\], as the
    /// paper suggests for Lemma 4): for each position `k` of an `A`
    /// segment, the number of entries among the first `k+1` that belong
    /// to the node's equal-key `B` list / left child / right child.
    /// Because a child's `A` array is an order-preserving subsequence of
    /// the parent's, one binary search at the root plus these `O(1)`
    /// rank lookups replace the per-node binary searches — `O(log m)`
    /// case-3 queries instead of `O(log² m)`. Empty when cascading is
    /// disabled.
    ranks: Vec<[u32; 3]>,
    cascading: bool,
    root: u32,
}

impl Bbst {
    /// Builds a BBST over `buckets` keyed by `key_kind`
    /// (`BBST-BUILDING`, Algorithm 2), without fractional cascading —
    /// the paper's default analysis path.
    ///
    /// `buckets` must come from [`crate::partition_into_buckets`] — i.e.
    /// consecutive runs of an x-sorted array, so both `min_x` and `max_x`
    /// are non-decreasing across the slice.
    pub fn build(buckets: &[Bucket], key_kind: KeyKind) -> Self {
        Self::build_inner(buckets, key_kind, false)
    }

    /// Builds with fractional cascading enabled (the optional
    /// optimization of Lemma 4; ~3× extra arena memory for the rank
    /// triples, one binary search per quadrant query instead of one per
    /// visited node).
    pub fn build_cascading(buckets: &[Bucket], key_kind: KeyKind) -> Self {
        Self::build_inner(buckets, key_kind, true)
    }

    fn build_inner(buckets: &[Bucket], key_kind: KeyKind, cascading: bool) -> Self {
        let b = buckets.len();
        debug_assert!(
            buckets
                .windows(2)
                .all(|w| key_of(&w[0], key_kind) <= key_of(&w[1], key_kind)),
            "bucket keys must be non-decreasing"
        );
        // The keys alone fix the tree's shape, so every array is
        // allocated once, at its final size.
        let (nodes, entries) = shape(buckets, key_kind, 0..b);
        let mut t = Bbst {
            key_kind,
            nodes: Vec::with_capacity(nodes),
            arena: Vec::with_capacity(entries),
            mass: Vec::with_capacity(entries),
            ranks: Vec::with_capacity(if cascading { entries } else { 0 }),
            cascading,
            root: NONE,
        };
        // B is the bucket slice itself: sorted by key by construction.
        // Bcp1 / Bcp2: its indices sorted by min-y / max-y (Algorithm 2
        // line 3), ties in index order.
        let mut by_min = indices_sorted_by(buckets, |b| b.min_y);
        let mut by_max = indices_sorted_by(buckets, |b| b.max_y);
        let mut spare = vec![0u32; b];
        t.root = t.make_node(buckets, 0..b, &mut by_min, &mut by_max, &mut spare);
        debug_assert_eq!((t.nodes.len(), t.arena.len()), (nodes, entries));
        t
    }

    /// Recursive `MAKE-NODE` (Algorithm 2 lines 6–24) over the buckets
    /// `keys` (a range of the key-sorted bucket slice), whose indices
    /// `by_min` / `by_max` hold in min-y / max-y order.
    ///
    /// Nothing is allocated per node: the two index arrays are
    /// partitioned in place (below the median key | equal | above,
    /// order-preserving, through `spare`) and the children recurse on
    /// the outer parts. `spare` is as long as the whole tree's arrays.
    fn make_node(
        &mut self,
        buckets: &[Bucket],
        keys: Range<usize>,
        by_min: &mut [u32],
        by_max: &mut [u32],
        spare: &mut [u32],
    ) -> u32 {
        if keys.is_empty() {
            return NONE;
        }
        let kk = self.key_kind;
        let median = key_of(&buckets[keys.start + keys.len() / 2], kk);

        // A arrays: every bucket of this subtree, in both y orders —
        // with fractional-cascading rank triples when enabled (the rank
        // of each prefix within the equal/left/right partitions, which
        // lets a child's partition point be derived from the parent's
        // in O(1) instead of a fresh binary search).
        let a_min = self.push_a_segment(buckets, by_min, median);
        let a_max = self.push_a_segment(buckets, by_max, median);

        // B lists: equal-key buckets, in both y orders; the remainders
        // are the children's arrays.
        let (below, equal) = partition_by_key(buckets, kk, median, by_min, spare);
        let same = partition_by_key(buckets, kk, median, by_max, spare);
        debug_assert_eq!(same, (below, equal));
        let above = below + equal;
        let b_min = self.push_segment(buckets, &by_min[below..above]);
        let b_max = self.push_segment(buckets, &by_max[below..above]);

        let me = self.nodes.len() as u32;
        self.nodes.push(Node {
            key: median,
            left: NONE,
            right: NONE,
            b_min,
            b_max,
            a_min,
            a_max,
        });

        // The bucket slice is sorted by key, so the children's key
        // ranges are the prefix strictly below and the suffix strictly
        // above; a single bucket leaves both empty (Algorithm 2
        // line 22's leaf cut-off).
        let left = self.make_node(
            buckets,
            keys.start..keys.start + below,
            &mut by_min[..below],
            &mut by_max[..below],
            spare,
        );
        let right = self.make_node(
            buckets,
            keys.start + above..keys.end,
            &mut by_min[above..],
            &mut by_max[above..],
            spare,
        );
        self.nodes[me as usize].left = left;
        self.nodes[me as usize].right = right;
        me
    }

    /// Copies `ids` into the arena along with its running point-count
    /// prefix; returns the segment.
    fn push_segment(&mut self, buckets: &[Bucket], ids: &[u32]) -> Seg {
        let start = self.arena.len() as u32;
        let mut acc = 0u32;
        for &i in ids {
            self.arena.push(i);
            acc += buckets[i as usize].len();
            self.mass.push(acc);
            if self.cascading {
                // keep `ranks` aligned with `arena`; B-list entries are
                // never rank-queried
                self.ranks.push([0; 3]);
            }
        }
        (start, self.arena.len() as u32)
    }

    /// Like [`Bbst::push_segment`], but for the node's `A` arrays: also
    /// records the cascading rank triples against the split `median`.
    fn push_a_segment(&mut self, buckets: &[Bucket], ids: &[u32], median: f64) -> Seg {
        if !self.cascading {
            return self.push_segment(buckets, ids);
        }
        let start = self.arena.len() as u32;
        let mut acc = 0u32;
        let mut counts = [0u32; 3];
        let kk = self.key_kind;
        for &i in ids {
            self.arena.push(i);
            acc += buckets[i as usize].len();
            self.mass.push(acc);
            let k = key_of(&buckets[i as usize], kk);
            let class = if k == median {
                RankOf::Eq
            } else if k < median {
                RankOf::Left
            } else {
                RankOf::Right
            };
            counts[class as usize] += 1;
            self.ranks.push(counts);
        }
        (start, self.arena.len() as u32)
    }

    /// Rank of the first `pos` entries of `seg` within partition `of`
    /// (cascading only).
    #[inline]
    fn rank(&self, seg: Seg, pos: u32, of: RankOf) -> u32 {
        if pos == 0 {
            0
        } else {
            self.ranks[(seg.0 + pos - 1) as usize][of as usize]
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Key kind the tree was built with.
    #[inline]
    pub fn key_kind(&self) -> KeyKind {
        self.key_kind
    }

    /// `true` iff the tree carries fractional-cascading bridges.
    #[inline]
    pub fn is_cascading(&self) -> bool {
        self.cascading
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.arena.capacity() * std::mem::size_of::<u32>()
            + self.mass.capacity() * std::mem::size_of::<u32>()
            + self.ranks.capacity() * std::mem::size_of::<[u32; 3]>()
    }

    /// Enumerates every matched `(segment, run_lo, run_hi)` of the
    /// quadrant query — the unified entry point for counting and
    /// sampling. Picks the cascaded walk when bridges are available,
    /// otherwise binary-searches each visited segment.
    pub(crate) fn for_each_matched_run(
        &self,
        x0: f64,
        y_pred: YPred,
        y0: f64,
        buckets: &[Bucket],
        mut visit: impl FnMut(Seg, u32, u32),
    ) {
        if self.cascading {
            self.cascaded_matched_runs(x0, y_pred, y0, buckets, visit);
        } else {
            self.for_each_matched_segment(x0, y_pred, |seg| {
                let (lo, hi) = self.matched_run(seg, y_pred, y0, buckets);
                visit(seg, lo, hi);
            });
        }
    }

    /// Converts a partition point `pos` (relative to `seg`) into the
    /// matched run: the suffix for `MaxAtLeast`, the prefix for
    /// `MinAtMost`.
    #[inline]
    fn run_from_pos(seg: Seg, pos: u32, y_pred: YPred) -> (u32, u32) {
        match y_pred {
            YPred::MaxAtLeast => (seg.0 + pos, seg.1),
            YPred::MinAtMost => (seg.0, seg.0 + pos),
        }
    }

    /// Relative partition point of `seg` for the y predicate (the count
    /// of entries *excluded* by `MaxAtLeast`, or *included* by
    /// `MinAtMost` — in both cases the boundary index).
    #[inline]
    fn partition_pos(&self, seg: Seg, y_pred: YPred, y0: f64, buckets: &[Bucket]) -> u32 {
        let slice = &self.arena[seg.0 as usize..seg.1 as usize];
        (match y_pred {
            YPred::MaxAtLeast => slice.partition_point(|&i| buckets[i as usize].max_y < y0),
            YPred::MinAtMost => slice.partition_point(|&i| buckets[i as usize].min_y <= y0),
        }) as u32
    }

    /// The fractional-cascading walk: one binary search at the root,
    /// then `O(1)` rank lookups per visited node. `O(log b)` total.
    fn cascaded_matched_runs(
        &self,
        x0: f64,
        y_pred: YPred,
        y0: f64,
        buckets: &[Bucket],
        mut visit: impl FnMut(Seg, u32, u32),
    ) {
        if self.root == NONE {
            return;
        }
        let ge = matches!(self.key_kind, KeyKind::MaxX);
        let a_of = |n: &Node| match y_pred {
            YPred::MaxAtLeast => n.a_max,
            YPred::MinAtMost => n.a_min,
        };
        let b_of = |n: &Node| match y_pred {
            YPred::MaxAtLeast => n.b_max,
            YPred::MinAtMost => n.b_min,
        };
        let mut cur = self.root;
        // the single binary search of the cascade
        let mut pos = self.partition_pos(a_of(&self.nodes[cur as usize]), y_pred, y0, buckets);
        loop {
            let node = &self.nodes[cur as usize];
            let a_seg = a_of(node);
            let excluded = if ge { node.key < x0 } else { node.key > x0 };
            if excluded {
                let child = if ge { node.right } else { node.left };
                if child == NONE {
                    return;
                }
                pos = self.rank(a_seg, pos, if ge { RankOf::Right } else { RankOf::Left });
                cur = child;
                continue;
            }
            // on-path node: its equal-key B list matches entirely in x
            let b_seg = b_of(node);
            let b_pos = self.rank(a_seg, pos, RankOf::Eq);
            let (lo, hi) = Self::run_from_pos(b_seg, b_pos, y_pred);
            visit(b_seg, lo, hi);
            // canonical far child
            let canonical = if ge { node.right } else { node.left };
            if canonical != NONE {
                let c_seg = a_of(&self.nodes[canonical as usize]);
                let c_pos = self.rank(a_seg, pos, if ge { RankOf::Right } else { RankOf::Left });
                let (lo, hi) = Self::run_from_pos(c_seg, c_pos, y_pred);
                visit(c_seg, lo, hi);
            }
            if node.key == x0 {
                return;
            }
            let next = if ge { node.left } else { node.right };
            if next == NONE {
                return;
            }
            pos = self.rank(a_seg, pos, if ge { RankOf::Left } else { RankOf::Right });
            cur = next;
        }
    }

    /// Walks the x-dimension of the tree for the 1-sided key predicate
    /// (`key ≥ x0` on a `MaxX` tree, `key ≤ x0` on a `MinX` tree) and
    /// invokes `visit` on each matched segment: the on-path node's `B`
    /// list and each canonical child's `A` array, both in the y-order
    /// selected by `y_pred`. `O(log b)` visits.
    pub(crate) fn for_each_matched_segment(
        &self,
        x0: f64,
        y_pred: YPred,
        mut visit: impl FnMut(Seg),
    ) {
        let ge = match self.key_kind {
            // `T_max` answers [x0, ∞): keep subtrees with key ≥ x0.
            KeyKind::MaxX => true,
            // `T_min` answers (−∞, x0]: keep subtrees with key ≤ x0.
            KeyKind::MinX => false,
        };
        let mut cur = self.root;
        while cur != NONE {
            let node = &self.nodes[cur as usize];
            let excluded = if ge { node.key < x0 } else { node.key > x0 };
            if excluded {
                // This node and its near subtree fail the predicate; only
                // the far side can still match.
                cur = if ge { node.right } else { node.left };
                continue;
            }
            // Node's own buckets all have key == node.key, which matches.
            visit(match y_pred {
                YPred::MaxAtLeast => node.b_max,
                YPred::MinAtMost => node.b_min,
            });
            // The far child is canonical: every key in it matches.
            let canonical = if ge { node.right } else { node.left };
            if canonical != NONE {
                let c = &self.nodes[canonical as usize];
                visit(match y_pred {
                    YPred::MaxAtLeast => c.a_max,
                    YPred::MinAtMost => c.a_min,
                });
            }
            if node.key == x0 {
                // Everything on the near side is strictly past x0.
                break;
            }
            cur = if ge { node.left } else { node.right };
        }
    }

    /// Within segment `seg` (sorted ascending by the `y_pred` ordinate),
    /// the contiguous run of buckets matching the y predicate against
    /// `y0`, as `(first, last_exclusive)` arena positions. One binary
    /// search.
    #[inline]
    pub(crate) fn matched_run(
        &self,
        seg: Seg,
        y_pred: YPred,
        y0: f64,
        buckets: &[Bucket],
    ) -> (u32, u32) {
        let slice = &self.arena[seg.0 as usize..seg.1 as usize];
        match y_pred {
            YPred::MaxAtLeast => {
                let lb = slice.partition_point(|&i| buckets[i as usize].max_y < y0);
                (seg.0 + lb as u32, seg.1)
            }
            YPred::MinAtMost => {
                let ub = slice.partition_point(|&i| buckets[i as usize].min_y <= y0);
                (seg.0, seg.0 + ub as u32)
            }
        }
    }

    /// Bucket index stored at arena position `pos`.
    #[inline]
    pub(crate) fn bucket_at(&self, pos: u32) -> u32 {
        self.arena[pos as usize]
    }

    /// True point count of the arena run `[first, last)` within the
    /// segment `seg` (uses the per-segment mass prefix).
    #[inline]
    pub(crate) fn run_mass(&self, seg: Seg, first: u32, last: u32) -> u64 {
        if first >= last {
            return 0;
        }
        let upto = |pos_exclusive: u32| -> u64 {
            if pos_exclusive == seg.0 {
                0
            } else {
                self.mass[(pos_exclusive - 1) as usize] as u64
            }
        };
        upto(last) - upto(first)
    }
}

#[inline]
pub(crate) fn key_of(b: &Bucket, kk: KeyKind) -> f64 {
    match kk {
        KeyKind::MinX => b.min_x,
        KeyKind::MaxX => b.max_x,
    }
}

/// The bucket indices in ascending order of `y`, ties in index order.
fn indices_sorted_by(buckets: &[Bucket], y: impl Fn(&Bucket) -> f64) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..buckets.len() as u32).collect();
    let y = |i: u32| y(&buckets[i as usize]);
    ids.sort_unstable_by(|&i, &j| y(i).total_cmp(&y(j)).then(i.cmp(&j)));
    ids
}

/// Node count and arena length of the tree over the buckets `keys`,
/// from the keys alone: each node stores its subtree twice (the `A`
/// arrays) and its equal-key buckets twice (the `B` lists).
fn shape(buckets: &[Bucket], kk: KeyKind, keys: Range<usize>) -> (usize, usize) {
    if keys.is_empty() {
        return (0, 0);
    }
    let median = key_of(&buckets[keys.start + keys.len() / 2], kk);
    let own = &buckets[keys.clone()];
    let below = keys.start + own.partition_point(|b| key_of(b, kk) < median);
    let above = keys.start + own.partition_point(|b| key_of(b, kk) <= median);
    let left = shape(buckets, kk, keys.start..below);
    let right = shape(buckets, kk, above..keys.end);
    (
        1 + left.0 + right.0,
        2 * keys.len() + 2 * (above - below) + left.1 + right.1,
    )
}

/// Stable three-way partition of `ids` in place by bucket key — below
/// `median`, equal to it, above it — returning the lengths of the first
/// two parts. `spare` must be at least as long as `ids`.
fn partition_by_key(
    buckets: &[Bucket],
    kk: KeyKind,
    median: f64,
    ids: &mut [u32],
    spare: &mut [u32],
) -> (usize, usize) {
    let n = ids.len();
    // Below compacts towards the front of `ids` (never past the read
    // position); equal fills `spare` from the front and above from the
    // back, which cannot meet.
    let (mut below, mut equal, mut above) = (0, 0, n);
    for at in 0..n {
        let i = ids[at];
        let key = key_of(&buckets[i as usize], kk);
        if key == median {
            spare[equal] = i;
            equal += 1;
        } else if key < median {
            ids[below] = i;
            below += 1;
        } else {
            above -= 1;
            spare[above] = i;
        }
    }
    ids[below..below + equal].copy_from_slice(&spare[..equal]);
    for (slot, &i) in ids[below + equal..]
        .iter_mut()
        .zip(spare[above..n].iter().rev())
    {
        *slot = i;
    }
    (below, equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::partition_into_buckets;
    use proptest::prelude::*;
    use srj_geom::{Point, PointId};

    fn make(points: &[Point], cap: u32) -> (Vec<PointId>, Vec<Bucket>) {
        let mut by_x: Vec<PointId> = (0..points.len() as u32).collect();
        by_x.sort_by(|&a, &b| points[a as usize].x.total_cmp(&points[b as usize].x));
        let buckets = partition_into_buckets(points, &by_x, cap);
        (by_x, buckets)
    }

    /// Collect matched bucket indices via the tree, for cross-checking.
    fn matched_buckets(t: &Bbst, buckets: &[Bucket], x0: f64, y_pred: YPred, y0: f64) -> Vec<u32> {
        let mut out = Vec::new();
        t.for_each_matched_segment(x0, y_pred, |seg| {
            let (lo, hi) = t.matched_run(seg, y_pred, y0, buckets);
            for pos in lo..hi {
                out.push(t.bucket_at(pos));
            }
        });
        out.sort_unstable();
        out
    }

    fn brute_matched(buckets: &[Bucket], kk: KeyKind, x0: f64, y_pred: YPred, y0: f64) -> Vec<u32> {
        (0..buckets.len() as u32)
            .filter(|&i| {
                let b = &buckets[i as usize];
                let xk = key_of(b, kk);
                let x_ok = match kk {
                    KeyKind::MaxX => xk >= x0,
                    KeyKind::MinX => xk <= x0,
                };
                let y_ok = match y_pred {
                    YPred::MaxAtLeast => b.max_y >= y0,
                    YPred::MinAtMost => b.min_y <= y0,
                };
                x_ok && y_ok
            })
            .collect()
    }

    fn spread_points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i % 37) as f64, ((i * 13) % 29) as f64))
            .collect()
    }

    /// `MAKE-NODE` as Algorithm 2 writes it, a fresh list per partition
    /// per node: the reference the in-place builder is tested against.
    fn reference_build(buckets: &[Bucket], key_kind: KeyKind, cascading: bool) -> Bbst {
        let mut t = Bbst {
            key_kind,
            nodes: Vec::new(),
            arena: Vec::new(),
            mass: Vec::new(),
            ranks: Vec::new(),
            cascading,
            root: NONE,
        };
        let keys: Vec<u32> = (0..buckets.len() as u32).collect();
        let mut by_min = keys.clone();
        by_min.sort_by(|&i, &j| {
            buckets[i as usize]
                .min_y
                .total_cmp(&buckets[j as usize].min_y)
        });
        let mut by_max = keys.clone();
        by_max.sort_by(|&i, &j| {
            buckets[i as usize]
                .max_y
                .total_cmp(&buckets[j as usize].max_y)
        });
        t.root = reference_make_node(&mut t, buckets, &keys, &by_min, &by_max);
        t
    }

    fn reference_make_node(
        t: &mut Bbst,
        buckets: &[Bucket],
        keys: &[u32],
        by_min: &[u32],
        by_max: &[u32],
    ) -> u32 {
        if keys.is_empty() {
            return NONE;
        }
        let kk = t.key_kind;
        let median = key_of(&buckets[keys[keys.len() / 2] as usize], kk);
        let a_min = t.push_a_segment(buckets, by_min, median);
        let a_max = t.push_a_segment(buckets, by_max, median);
        let split = |ids: &[u32]| {
            let (mut equal, mut left, mut right) = (Vec::new(), Vec::new(), Vec::new());
            for &i in ids {
                let k = key_of(&buckets[i as usize], kk);
                if k == median {
                    equal.push(i);
                } else if k < median {
                    left.push(i);
                } else {
                    right.push(i);
                }
            }
            (equal, left, right)
        };
        let (b_min_ids, min_l, min_r) = split(by_min);
        let (b_max_ids, max_l, max_r) = split(by_max);
        let b_min = t.push_segment(buckets, &b_min_ids);
        let b_max = t.push_segment(buckets, &b_max_ids);
        let me = t.nodes.len() as u32;
        t.nodes.push(Node {
            key: median,
            left: NONE,
            right: NONE,
            b_min,
            b_max,
            a_min,
            a_max,
        });
        if keys.len() > 1 {
            let lo = keys.partition_point(|&i| key_of(&buckets[i as usize], kk) < median);
            let hi = keys.partition_point(|&i| key_of(&buckets[i as usize], kk) <= median);
            let left = reference_make_node(t, buckets, &keys[..lo], &min_l, &max_l);
            let right = reference_make_node(t, buckets, &keys[hi..], &min_r, &max_r);
            t.nodes[me as usize].left = left;
            t.nodes[me as usize].right = right;
        }
        me
    }

    fn assert_builds_the_reference(points: &[Point], cap: u32) {
        let (_, buckets) = make(points, cap);
        for kk in [KeyKind::MinX, KeyKind::MaxX] {
            for cascading in [false, true] {
                let got = Bbst::build_inner(&buckets, kk, cascading);
                let want = reference_build(&buckets, kk, cascading);
                let what = format!("{} buckets, {kk:?}, cascading {cascading}", buckets.len());
                assert_eq!(got.root, want.root, "{what}");
                assert_eq!(got.nodes, want.nodes, "{what}");
                assert_eq!(got.arena, want.arena, "{what}");
                assert_eq!(got.mass, want.mass, "{what}");
                assert_eq!(got.ranks, want.ranks, "{what}");
                // Reserved once, to the entry.
                assert_eq!(got.nodes.capacity(), got.nodes.len(), "{what}");
                assert_eq!(got.arena.capacity(), got.arena.len(), "{what}");
                assert_eq!(got.mass.capacity(), got.mass.len(), "{what}");
                assert_eq!(got.ranks.capacity(), got.ranks.len(), "{what}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Points on a coarse lattice: few columns give runs of buckets
        /// with equal keys, few rows give ties in both y orders.
        #[test]
        fn in_place_builder_equals_the_reference(
            lattice in prop::collection::vec((0u32..12, 0u32..9), 0..400),
            columns in 1u32..12,
            cap in 1u32..5,
        ) {
            let points: Vec<Point> = lattice
                .iter()
                .map(|&(x, y)| Point::new((x % columns) as f64, y as f64 * 0.5))
                .collect();
            assert_builds_the_reference(&points, cap);
        }
    }

    #[test]
    fn in_place_builder_equals_the_reference_at_small_and_large_bucket_counts() {
        // 0, 1, 2, 3 buckets, then 64 and more; with distinct keys, with
        // every key equal, and with runs of equal keys.
        for buckets in [0usize, 1, 2, 3, 64, 65, 200] {
            let distinct: Vec<Point> = (0..buckets * 2)
                .map(|i| Point::new(i as f64, ((i * 13) % 29) as f64))
                .collect();
            assert_builds_the_reference(&distinct, 2);
            let one_key: Vec<Point> = (0..buckets * 2)
                .map(|i| Point::new(7.0, ((i * 5) % 11) as f64))
                .collect();
            assert_builds_the_reference(&one_key, 2);
            let runs: Vec<Point> = (0..buckets * 2)
                .map(|i| Point::new((i / 10) as f64, ((i * 7) % 13) as f64))
                .collect();
            assert_builds_the_reference(&runs, 2);
        }
    }

    #[test]
    fn empty_tree() {
        let t = Bbst::build(&[], KeyKind::MaxX);
        assert_eq!(t.num_nodes(), 0);
        let mut visited = 0;
        t.for_each_matched_segment(0.0, YPred::MaxAtLeast, |_| visited += 1);
        assert_eq!(visited, 0);
    }

    #[test]
    fn single_bucket() {
        let pts = vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)];
        let (_, buckets) = make(&pts, 8);
        assert_eq!(buckets.len(), 1);
        let t = Bbst::build(&buckets, KeyKind::MaxX);
        assert_eq!(t.num_nodes(), 1);
        // key = max_x = 3.0; query x0 = 2.0 matches
        assert_eq!(
            matched_buckets(&t, &buckets, 2.0, YPred::MaxAtLeast, 0.0),
            vec![0]
        );
        // x0 past the key: no match
        assert!(matched_buckets(&t, &buckets, 3.5, YPred::MaxAtLeast, 0.0).is_empty());
        // y filter can reject
        assert!(matched_buckets(&t, &buckets, 2.0, YPred::MaxAtLeast, 5.0).is_empty());
    }

    #[test]
    fn tree_matches_brute_force_all_quadrant_shapes() {
        let pts = spread_points(200);
        for cap in [1u32, 3, 8] {
            let (_, buckets) = make(&pts, cap);
            let t_max = Bbst::build(&buckets, KeyKind::MaxX);
            let t_min = Bbst::build(&buckets, KeyKind::MinX);
            for x0 in [-1.0, 0.0, 5.5, 18.0, 36.0, 40.0] {
                for y0 in [-1.0, 0.0, 7.3, 14.0, 28.0, 31.0] {
                    for y_pred in [YPred::MaxAtLeast, YPred::MinAtMost] {
                        assert_eq!(
                            matched_buckets(&t_max, &buckets, x0, y_pred, y0),
                            brute_matched(&buckets, KeyKind::MaxX, x0, y_pred, y0),
                            "T_max cap={cap} x0={x0} y0={y0} {y_pred:?}"
                        );
                        assert_eq!(
                            matched_buckets(&t_min, &buckets, x0, y_pred, y0),
                            brute_matched(&buckets, KeyKind::MinX, x0, y_pred, y0),
                            "T_min cap={cap} x0={x0} y0={y0} {y_pred:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn duplicate_keys_stay_balanced() {
        // Many points share x — all buckets share the same key; the B
        // lists must absorb them without degenerating the tree.
        let pts: Vec<Point> = (0..64).map(|i| Point::new(7.0, i as f64)).collect();
        let (_, buckets) = make(&pts, 4);
        assert_eq!(buckets.len(), 16);
        let t = Bbst::build(&buckets, KeyKind::MaxX);
        // All keys equal ⇒ a single node holds every bucket in its B lists.
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(
            matched_buckets(&t, &buckets, 7.0, YPred::MaxAtLeast, 0.0).len(),
            16
        );
        assert!(matched_buckets(&t, &buckets, 7.1, YPred::MaxAtLeast, 0.0).is_empty());
    }

    #[test]
    fn visits_are_logarithmic() {
        let pts: Vec<Point> = (0..4096)
            .map(|i| Point::new(i as f64, (i % 64) as f64))
            .collect();
        let (_, buckets) = make(&pts, 8); // 512 buckets
        let t = Bbst::build(&buckets, KeyKind::MaxX);
        let mut visits = 0usize;
        t.for_each_matched_segment(2048.0, YPred::MaxAtLeast, |_| visits += 1);
        // ≤ 2 segments per level of a balanced tree over 512 buckets
        assert!(visits <= 2 * 11, "visits = {visits}");
    }

    #[test]
    fn run_mass_counts_true_points() {
        let pts = spread_points(50);
        let (_, buckets) = make(&pts, 7); // last bucket has 1 point
        let t = Bbst::build(&buckets, KeyKind::MaxX);
        // whole-root A segment: total mass = all points
        let mut total = 0u64;
        t.for_each_matched_segment(f64::NEG_INFINITY, YPred::MaxAtLeast, |seg| {
            let (lo, hi) = t.matched_run(seg, YPred::MaxAtLeast, f64::NEG_INFINITY, &buckets);
            total += t.run_mass(seg, lo, hi);
        });
        assert_eq!(total, 50);
    }

    #[test]
    fn memory_is_linear_ish() {
        // Lemma 2: arena entries ≤ O(N); with cap = log2(N) the ratio
        // stays bounded.
        let pts = spread_points(4096);
        let (_, buckets) = make(&pts, 12);
        let t = Bbst::build(&buckets, KeyKind::MaxX);
        // arena = 2 copies per ancestor + B lists ⇒ ≤ ~2·b·log2(b) + 2b
        let b = buckets.len() as f64;
        let max_entries = 2.0 * b * b.log2().ceil() + 2.0 * b;
        assert!((t.arena.len() as f64) <= max_entries + 1.0);
    }
}
