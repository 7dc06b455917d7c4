use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use srj_geom::{Point, PointId};

/// A point set as the builders see it: the point array, indexable by
/// [`PointId`], plus what can be known about it before any window size
/// is — the ids in ascending `(x, id)` and in ascending `(y, id)` order.
///
/// The paper treats the sort of `S` as offline work done once per
/// dataset (Algorithm 1 / Lemma 1: "points in S are pre-sorted based on
/// the x-dimension"), while `l` arrives with the query. The two orders
/// are therefore computed on first use, once, and kept: every
/// [`crate::Grid`] built on the same `Arc<PointSet>` — one per window
/// size — scatters them into its cells instead of sorting, and none
/// copies the array. Two threads that ask at once compute them once
/// (the second waits for the first).
///
/// A set is immutable. Whoever changes the points makes a new set
/// ([`PointSet::extended`], a dataset compaction), so a stale order
/// cannot be observed and there is nothing to invalidate.
///
/// Coordinates are compared with [`f64::total_cmp`]; every coordinate
/// is finite, so that is the numeric order with `-0.0` before `0.0`.
#[derive(Debug)]
pub struct PointSet {
    points: Vec<Point>,
    orders: OnceLock<Orders>,
}

#[derive(Debug)]
struct Orders {
    by_x: Vec<PointId>,
    by_y: Vec<PointId>,
}

impl PointSet {
    /// Takes ownership of `points`. This is the one place the builders'
    /// preconditions on a point array are checked.
    ///
    /// # Panics
    /// Panics if a coordinate is not finite, or if there are more than
    /// `u32::MAX` points.
    pub fn new(points: Vec<Point>) -> Self {
        assert!(points.len() <= u32::MAX as usize, "too many points");
        assert_finite(&points);
        PointSet {
            points,
            orders: OnceLock::new(),
        }
    }

    /// A new set holding this one's points followed by `inserted`: ids
    /// of this set keep their meaning in it. The orders are not carried
    /// over.
    ///
    /// # Panics
    /// As [`PointSet::new`], for `inserted` and the combined length.
    pub fn extended(&self, inserted: &[Point]) -> PointSet {
        let len = self.points.len() + inserted.len();
        assert!(len <= u32::MAX as usize, "too many points");
        assert_finite(inserted);
        let mut points = Vec::with_capacity(len);
        points.extend_from_slice(&self.points);
        points.extend_from_slice(inserted);
        PointSet {
            points,
            orders: OnceLock::new(),
        }
    }

    /// The points, indexable by [`PointId`].
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Every id in ascending `(x, id)` order, computed on first use.
    pub fn x_order(&self) -> &[PointId] {
        &self.orders().0.by_x
    }

    /// Every id in ascending `(y, id)` order, computed on first use.
    pub fn y_order(&self) -> &[PointId] {
        &self.orders().0.by_y
    }

    /// Makes sure both orders exist and returns what **this call** spent
    /// computing them: zero when they were already there, and zero for a
    /// caller that waited while another thread computed them. A builder
    /// reports it as its pre-processing phase, which is therefore
    /// charged to the one build per set that ran the sorts.
    pub fn ensure_orders(&self) -> Duration {
        self.orders().1
    }

    fn orders(&self) -> (&Orders, Duration) {
        let mut spent = Duration::ZERO;
        let orders = self.orders.get_or_init(|| {
            let t0 = Instant::now();
            // One key buffer for both sorts: carrying the key beside the
            // id keeps every comparison inside the buffer.
            let mut keyed = Vec::with_capacity(self.points.len());
            let orders = Orders {
                by_x: sorted_ids(&self.points, &mut keyed, |p| p.x),
                by_y: sorted_ids(&self.points, &mut keyed, |p| p.y),
            };
            spent = t0.elapsed();
            orders
        });
        (orders, spent)
    }

    /// Forgets the orders (a later use computes them again). For an
    /// owner that knows nobody else will ask: `&mut` proves it is alone.
    pub(crate) fn forget_orders(&mut self) {
        self.orders = OnceLock::new();
    }

    /// Approximate heap footprint in bytes: the array, and the orders
    /// once they exist.
    pub fn memory_bytes(&self) -> usize {
        self.points.capacity() * std::mem::size_of::<Point>()
            + self.orders.get().map_or(0, |o| {
                (o.by_x.capacity() + o.by_y.capacity()) * std::mem::size_of::<PointId>()
            })
    }
}

impl Deref for PointSet {
    type Target = [Point];

    #[inline]
    fn deref(&self) -> &[Point] {
        &self.points
    }
}

fn assert_finite(points: &[Point]) {
    assert!(
        points.iter().all(|p| p.x.is_finite() && p.y.is_finite()),
        "points must have finite coordinates"
    );
}

/// The ids of `points` in ascending `(coord, id)` order.
fn sorted_ids(
    points: &[Point],
    keyed: &mut Vec<(i64, PointId)>,
    coord: impl Fn(&Point) -> f64,
) -> Vec<PointId> {
    keyed.clear();
    keyed.extend(
        points
            .iter()
            .zip(0..)
            .map(|(p, id)| (sort_key(coord(p)), id)),
    );
    keyed.sort_unstable();
    keyed.iter().map(|&(_, id)| id).collect()
}

/// An integer that orders as [`f64::total_cmp`] orders `x` (the same
/// transformation: flip the magnitude bits of negative values).
#[inline]
fn sort_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// What a build entry point accepts as the point set to index: a slice,
/// which is copied into a fresh [`PointSet`] whose orders are computed on
/// the spot, or an `Arc<PointSet>`, which is shared — array, orders and
/// all — with every other structure built on it.
pub trait IntoPointSet {
    /// The set to build on.
    fn into_point_set(self) -> Arc<PointSet>;
}

impl IntoPointSet for Arc<PointSet> {
    fn into_point_set(self) -> Arc<PointSet> {
        self
    }
}

impl IntoPointSet for &Arc<PointSet> {
    fn into_point_set(self) -> Arc<PointSet> {
        Arc::clone(self)
    }
}

impl IntoPointSet for &[Point] {
    fn into_point_set(self) -> Arc<PointSet> {
        Arc::new(PointSet::new(self.to_vec()))
    }
}

impl IntoPointSet for &Vec<Point> {
    fn into_point_set(self) -> Arc<PointSet> {
        self.as_slice().into_point_set()
    }
}

impl<const N: usize> IntoPointSet for &[Point; N] {
    fn into_point_set(self) -> Arc<PointSet> {
        self.as_slice().into_point_set()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn orders_break_ties_by_id() {
        let set = PointSet::new(pts(&[
            (2.0, 1.0),
            (-1.0, 1.0),
            (2.0, -3.0),
            (0.0, 1.0),
            (-1.0, 7.5),
        ]));
        assert_eq!(set.x_order(), [1, 4, 3, 0, 2]);
        assert_eq!(set.y_order(), [2, 0, 1, 3, 4]);
    }

    #[test]
    fn sort_key_orders_as_total_cmp() {
        let values = [
            f64::MIN,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1e300,
            f64::MAX,
        ];
        for a in values {
            for b in values {
                assert_eq!(sort_key(a).cmp(&sort_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn orders_are_computed_once_and_charged_once() {
        let set = PointSet::new(pts(&[(3.0, 0.0), (1.0, 2.0), (2.0, 1.0)]));
        assert_eq!(set.memory_bytes(), 3 * 16);
        let x = set.x_order().as_ptr();
        assert_eq!(set.ensure_orders(), Duration::ZERO);
        assert_eq!(set.x_order().as_ptr(), x);
        assert_eq!(set.memory_bytes(), 3 * (16 + 8));
    }

    #[test]
    fn extended_keeps_ids_and_drops_orders() {
        let set = PointSet::new(pts(&[(3.0, 0.0), (1.0, 2.0)]));
        set.ensure_orders();
        let more = set.extended(&pts(&[(0.0, 9.0)]));
        assert_eq!(&more[..2], set.points());
        assert_eq!(more.len(), 3);
        assert_eq!(more.memory_bytes(), 3 * 16);
        assert_eq!(more.x_order(), [2, 1, 0]);
    }

    #[test]
    fn empty_set() {
        let set = PointSet::new(Vec::new());
        assert!(set.x_order().is_empty() && set.y_order().is_empty());
    }

    #[test]
    #[should_panic(expected = "finite coordinates")]
    fn non_finite_points_are_refused() {
        PointSet::new(pts(&[(0.0, f64::NAN)]));
    }

    #[test]
    #[should_panic(expected = "finite coordinates")]
    fn non_finite_inserts_are_refused() {
        PointSet::new(Vec::new()).extended(&pts(&[(f64::INFINITY, 0.0)]));
    }
}
