use srj_geom::Point;

use crate::fx::FxHashMap;
use crate::grid_map::Grid;

/// A point set grouped by grid cell: the indices of the points of each
/// occupied cell coordinate, contiguous, as one counting sort leaves
/// them ([`Grid::group_by_cell`]).
///
/// Groups are keyed by **coordinate**, not by cell slot: the grouped
/// points need not be the grid's own (the join's `R` is grouped over the
/// grid of `S`), so a group's cell may hold no indexed point at all.
/// Every point of a group shares its 3×3 block, so a caller resolves
/// [`Grid::neighborhood_slots`] once per group, with any member.
///
/// Groups come in order of first appearance and members in input order;
/// both are functions of the input alone.
#[derive(Clone, Debug)]
pub struct CellGroups {
    /// `order[starts[g]..starts[g + 1]]` are the members of group `g`.
    starts: Vec<u32>,
    /// Indices into the grouped point slice, group by group.
    order: Vec<u32>,
}

impl CellGroups {
    /// The groups: each a non-empty slice of indices into the grouped
    /// points, all in one cell.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.starts
            .windows(2)
            .map(|w| &self.order[w[0] as usize..w[1] as usize])
    }
}

impl Grid {
    /// Groups `points` by the cell coordinate that contains them
    /// ([`Grid::coord_of`]): one hash probe per point for a dense group
    /// number, then a counting sort on that number. `O(n)` time; 8 bytes
    /// of scratch per point, 4 of which (the group numbers) are gone
    /// when this returns.
    ///
    /// # Panics
    /// Panics if `points` has more than `u32::MAX` entries.
    pub fn group_by_cell(&self, points: &[Point]) -> CellGroups {
        assert!(points.len() <= u32::MAX as usize, "too many points");
        let mut numbers: FxHashMap<(i32, i32), u32> = FxHashMap::default();
        // `starts[g + 1]` counts group g's members until the prefix sum
        // turns it into group g's end.
        let mut starts: Vec<u32> = vec![0];
        let group_of: Vec<u32> = points
            .iter()
            .map(|&p| {
                let fresh = numbers.len() as u32;
                let g = *numbers.entry(self.coord_of(p)).or_insert(fresh);
                if g == fresh {
                    starts.push(0);
                }
                starts[g as usize + 1] += 1;
                g
            })
            .collect();
        drop(numbers);
        for g in 1..starts.len() {
            starts[g] += starts[g - 1];
        }
        let mut next: Vec<u32> = starts[..starts.len() - 1].to_vec();
        let mut order = vec![0u32; points.len()];
        for (i, &g) in group_of.iter().enumerate() {
            let at = &mut next[g as usize];
            order[*at as usize] = i as u32;
            *at += 1;
        }
        CellGroups { starts, order }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) % 41
        };
        // Half-unit lattice around the origin: duplicates, negative
        // coordinates and points exactly on cell boundaries.
        (0..n)
            .map(|_| Point::new(next() as f64 * 0.5 - 10.0, next() as f64 * 0.5 - 10.0))
            .collect()
    }

    #[test]
    fn groups_partition_the_input_by_coordinate() {
        let grid = Grid::build(&lattice(50, 1), 2.0);
        let probes = lattice(700, 2);
        let groups = grid.group_by_cell(&probes);
        let mut seen = vec![false; probes.len()];
        let mut coords = std::collections::HashSet::new();
        for members in groups.iter() {
            assert!(!members.is_empty());
            let coord = grid.coord_of(probes[members[0] as usize]);
            assert!(coords.insert(coord), "coordinate {coord:?} in two groups");
            // Input order inside a group.
            assert!(members.windows(2).all(|w| w[0] < w[1]));
            for &i in members {
                assert_eq!(grid.coord_of(probes[i as usize]), coord);
                assert!(!std::mem::replace(&mut seen[i as usize], true));
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(groups.iter().count(), coords.len());
        // Order of first appearance.
        let firsts: Vec<u32> = groups.iter().map(|m| m[0]).collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn a_group_may_sit_on_a_cell_the_grid_does_not_have() {
        let grid = Grid::build(&[Point::new(0.5, 0.5)], 1.0);
        let probes = [
            Point::new(90.5, -40.5),
            Point::new(0.25, 0.75),
            Point::new(90.75, -40.25),
        ];
        let groups = grid.group_by_cell(&probes);
        let got: Vec<&[u32]> = groups.iter().collect();
        assert_eq!(got, [&[0u32, 2][..], &[1][..]]);
        assert!(grid.cell_at(grid.coord_of(probes[0])).is_none());
    }

    #[test]
    fn empty_input_has_no_groups() {
        let groups = Grid::build(&lattice(10, 3), 1.0).group_by_cell(&[]);
        assert_eq!(groups.iter().count(), 0);
    }
}
