use std::ops::Deref;
use std::sync::Arc;

use srj_geom::Point;

/// A point set as the builders see it: the point array, indexable by
/// [`srj_geom::PointId`], checked once and shared — every
/// [`crate::Grid`] built on the same `Arc<PointSet>`, one per window
/// size, stands on it, and none copies the array. Nothing is sorted
/// here: a grid cell sorts its own members, when a run of them is first
/// read ([`crate::Cell`]).
///
/// A set is immutable. Whoever changes the points makes a new set
/// ([`PointSet::extended`], a dataset compaction).
#[derive(Debug)]
pub struct PointSet {
    points: Vec<Point>,
}

impl PointSet {
    /// Takes ownership of `points`, shrunk to their length: a `Vec`
    /// grown by pushes (a parsed file) keeps no slack in a served set,
    /// and [`PointSet::memory_bytes`] counts the points. This is the one
    /// place the builders' preconditions on a point array are checked.
    ///
    /// # Panics
    /// Panics if a coordinate is not finite, or if there are more than
    /// `u32::MAX` points.
    pub fn new(mut points: Vec<Point>) -> Self {
        assert!(points.len() <= u32::MAX as usize, "too many points");
        assert_finite(&points);
        points.shrink_to_fit();
        PointSet { points }
    }

    /// A new set holding this one's points followed by `inserted`: ids
    /// of this set keep their meaning in it.
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
        PointSet { points }
    }

    /// The points, indexable by [`srj_geom::PointId`].
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Approximate heap footprint in bytes: the array.
    pub fn memory_bytes(&self) -> usize {
        self.points.capacity() * std::mem::size_of::<Point>()
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

/// What a build entry point accepts as the point set to index: a slice,
/// which is copied into a fresh [`PointSet`], or an `Arc<PointSet>`,
/// which is shared with every other structure built on it.
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
    fn extended_keeps_ids() {
        let set = PointSet::new(pts(&[(3.0, 0.0), (1.0, 2.0)]));
        let more = set.extended(&pts(&[(0.0, 9.0)]));
        assert_eq!(&more[..2], set.points());
        assert_eq!(more.len(), 3);
        assert_eq!(more.memory_bytes(), 3 * 16);
    }

    /// Pushed one by one, 600 points sit in a 1024-point buffer; the
    /// set keeps 600.
    #[test]
    fn a_set_keeps_no_growth_slack() {
        let mut points = Vec::new();
        for i in 0..600 {
            points.push(Point::new(f64::from(i), 0.0));
        }
        assert!(points.capacity() > 600);
        let set = PointSet::new(points);
        assert_eq!(set.memory_bytes(), 600 * 16);
    }

    #[test]
    fn empty_set() {
        let set = PointSet::new(Vec::new());
        assert!(set.is_empty());
        assert_eq!(set.memory_bytes(), 0);
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
