//! Dense 2-D rasters.

use crate::coord::{CellCoord, GridDims};

/// A dense, row-major 2-D raster of cell payloads.
///
/// Used for DSM elevations, per-cell irradiance statistics, suitability
/// scores, and rendering buffers.
///
/// ```
/// use pv_geom::{CellCoord, Grid, GridDims};
/// let dims = GridDims::new(4, 3);
/// let grid = Grid::from_fn(dims, |c| (c.x + c.y) as f64);
/// assert_eq!(grid[CellCoord::new(3, 2)], 5.0);
/// assert_eq!(grid.iter().count(), 12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Grid<T> {
    dims: GridDims,
    data: Vec<T>,
}

impl<T: Clone> Grid<T> {
    /// Creates a grid with every cell set to `fill`.
    #[must_use]
    pub fn filled(dims: GridDims, fill: T) -> Self {
        Self {
            dims,
            data: vec![fill; dims.num_cells()],
        }
    }
}

impl<T> Grid<T> {
    /// Creates a grid by evaluating `f` at every cell (row-major order).
    #[must_use]
    pub fn from_fn(dims: GridDims, mut f: impl FnMut(CellCoord) -> T) -> Self {
        let mut data = Vec::with_capacity(dims.num_cells());
        for coord in dims.iter() {
            data.push(f(coord));
        }
        Self { dims, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != dims.num_cells()`.
    #[must_use]
    pub fn from_vec(dims: GridDims, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            dims.num_cells(),
            "buffer length must match grid dimensions"
        );
        Self { dims, data }
    }

    /// Grid dimensions.
    #[inline]
    #[must_use]
    pub const fn dims(&self) -> GridDims {
        self.dims
    }

    /// Borrow of the cell at `coord`, or `None` if out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, coord: CellCoord) -> Option<&T> {
        if self.dims.contains(coord) {
            Some(&self.data[self.dims.linear_index(coord)])
        } else {
            None
        }
    }

    /// Mutable borrow of the cell at `coord`, or `None` if out of bounds.
    #[inline]
    #[must_use]
    pub fn get_mut(&mut self, coord: CellCoord) -> Option<&mut T> {
        if self.dims.contains(coord) {
            let idx = self.dims.linear_index(coord);
            Some(&mut self.data[idx])
        } else {
            None
        }
    }

    /// Iterates cell payloads in row-major order.
    pub fn iter(&self) -> core::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Iterates `(coord, &payload)` pairs in row-major order.
    pub fn enumerate(&self) -> impl Iterator<Item = (CellCoord, &T)> {
        self.dims.iter().zip(self.data.iter())
    }

    /// Raw row-major buffer.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw row-major buffer.
    #[inline]
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the grid, returning its buffer.
    #[inline]
    #[must_use]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Maps every cell through `f`, preserving dimensions.
    #[must_use]
    pub fn map<U>(&self, mut f: impl FnMut(&T) -> U) -> Grid<U> {
        Grid {
            dims: self.dims,
            data: self.data.iter().map(&mut f).collect(),
        }
    }

    /// One row of the raster as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[must_use]
    pub fn row(&self, y: usize) -> &[T] {
        assert!(y < self.dims.height(), "row out of range");
        let w = self.dims.width();
        &self.data[y * w..(y + 1) * w]
    }
}

impl<T> core::ops::Index<CellCoord> for Grid<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics if `coord` is out of bounds.
    #[inline]
    fn index(&self, coord: CellCoord) -> &T {
        &self.data[self.dims.linear_index(coord)]
    }
}

impl<T> core::ops::IndexMut<CellCoord> for Grid<T> {
    #[inline]
    fn index_mut(&mut self, coord: CellCoord) -> &mut T {
        let idx = self.dims.linear_index(coord);
        &mut self.data[idx]
    }
}

impl Grid<f64> {
    /// Minimum and maximum over all cells, ignoring NaNs.
    ///
    /// Returns `None` when every cell is NaN (or the grid is empty).
    #[must_use]
    pub fn finite_range(&self) -> Option<(f64, f64)> {
        let mut range: Option<(f64, f64)> = None;
        for &v in &self.data {
            if v.is_nan() {
                continue;
            }
            range = Some(match range {
                None => (v, v),
                Some((lo, hi)) => (lo.min(v), hi.max(v)),
            });
        }
        range
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_row_major() {
        let g = Grid::from_fn(GridDims::new(3, 2), |c| c.y * 10 + c.x);
        assert_eq!(g.as_slice(), &[0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn get_out_of_bounds_is_none() {
        let g = Grid::filled(GridDims::new(2, 2), 0u8);
        assert!(g.get(CellCoord::new(2, 0)).is_none());
        assert!(g.get(CellCoord::new(1, 1)).is_some());
    }

    #[test]
    fn index_mut_writes() {
        let mut g = Grid::filled(GridDims::new(2, 2), 0u8);
        g[CellCoord::new(1, 0)] = 9;
        assert_eq!(g[CellCoord::new(1, 0)], 9);
    }

    #[test]
    fn map_preserves_dims() {
        let g = Grid::from_fn(GridDims::new(4, 4), |c| c.x as f64);
        let doubled = g.map(|v| v * 2.0);
        assert_eq!(doubled.dims(), g.dims());
        assert_eq!(doubled[CellCoord::new(3, 0)], 6.0);
    }

    #[test]
    fn finite_range_skips_nan() {
        let mut g = Grid::filled(GridDims::new(2, 1), f64::NAN);
        assert_eq!(g.finite_range(), None);
        g[CellCoord::new(1, 0)] = 4.0;
        assert_eq!(g.finite_range(), Some((4.0, 4.0)));
    }

    #[test]
    fn row_slices() {
        let g = Grid::from_fn(GridDims::new(3, 2), |c| c.y);
        assert_eq!(g.row(1), &[1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "match grid dimensions")]
    fn from_vec_length_mismatch() {
        let _ = Grid::from_vec(GridDims::new(2, 2), vec![1, 2, 3]);
    }
}
