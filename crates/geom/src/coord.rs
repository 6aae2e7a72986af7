//! Cell addressing: coordinates and grid dimensions.

/// Dimensions of a virtual grid, in cells.
///
/// `width` runs along the roof's horizontal axis (the paper's `W`),
/// `height` along the slope axis (`H`).
///
/// ```
/// use pv_geom::GridDims;
/// // Paper Roof 1: 287 x 51 cells at 20 cm pitch.
/// let dims = GridDims::new(287, 51);
/// assert_eq!(dims.num_cells(), 14_637);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridDims {
    width: usize,
    height: usize,
}

impl GridDims {
    /// Creates grid dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        Self { width, height }
    }

    /// Number of columns.
    #[inline]
    #[must_use]
    pub const fn width(self) -> usize {
        self.width
    }

    /// Number of rows.
    #[inline]
    #[must_use]
    pub const fn height(self) -> usize {
        self.height
    }

    /// Total number of grid cells (`width * height`).
    #[inline]
    #[must_use]
    pub const fn num_cells(self) -> usize {
        self.width * self.height
    }

    /// Whether `coord` lies inside the grid.
    #[inline]
    #[must_use]
    pub const fn contains(self, coord: CellCoord) -> bool {
        coord.x < self.width && coord.y < self.height
    }

    /// Row-major linear index of `coord`.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the grid.
    #[inline]
    #[must_use]
    pub fn linear_index(self, coord: CellCoord) -> usize {
        assert!(self.contains(coord), "cell {coord:?} outside {self:?}");
        coord.y * self.width + coord.x
    }

    /// Inverse of [`linear_index`](Self::linear_index).
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_cells()`.
    #[inline]
    #[must_use]
    pub fn coord_of(self, index: usize) -> CellCoord {
        assert!(index < self.num_cells(), "linear index out of range");
        CellCoord::new(index % self.width, index / self.width)
    }

    /// Iterates all coordinates in row-major order.
    pub fn iter(self) -> impl Iterator<Item = CellCoord> {
        (0..self.height).flat_map(move |y| (0..self.width).map(move |x| CellCoord::new(x, y)))
    }
}

/// A cell coordinate: column `x` (0 = west/left), row `y` (0 = top / ridge).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CellCoord {
    /// Column index.
    pub x: usize,
    /// Row index.
    pub y: usize,
}

impl CellCoord {
    /// Creates a coordinate.
    #[inline]
    #[must_use]
    pub const fn new(x: usize, y: usize) -> Self {
        Self { x, y }
    }

    /// Offsets by a (possibly negative) delta, saturating at zero.
    #[inline]
    #[must_use]
    pub fn saturating_offset(self, dx: isize, dy: isize) -> Self {
        Self {
            x: self.x.saturating_add_signed(dx),
            y: self.y.saturating_add_signed(dy),
        }
    }

    /// Offsets by a delta, returning `None` on underflow.
    #[inline]
    #[must_use]
    pub fn checked_offset(self, dx: isize, dy: isize) -> Option<Self> {
        Some(Self {
            x: self.x.checked_add_signed(dx)?,
            y: self.y.checked_add_signed(dy)?,
        })
    }
}

impl core::fmt::Display for CellCoord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(usize, usize)> for CellCoord {
    fn from((x, y): (usize, usize)) -> Self {
        Self { x, y }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_index_round_trips() {
        let dims = GridDims::new(7, 5);
        for coord in dims.iter() {
            let idx = dims.linear_index(coord);
            assert_eq!(dims.coord_of(idx), coord);
        }
    }

    #[test]
    fn iter_is_row_major_and_complete() {
        let dims = GridDims::new(3, 2);
        let all: Vec<CellCoord> = dims.iter().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], CellCoord::new(0, 0));
        assert_eq!(all[1], CellCoord::new(1, 0));
        assert_eq!(all[3], CellCoord::new(0, 1));
    }

    #[test]
    fn contains_edges() {
        let dims = GridDims::new(4, 4);
        assert!(dims.contains(CellCoord::new(3, 3)));
        assert!(!dims.contains(CellCoord::new(4, 3)));
        assert!(!dims.contains(CellCoord::new(3, 4)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_rejected() {
        let _ = GridDims::new(0, 3);
    }

    #[test]
    fn checked_offset_underflow() {
        assert_eq!(CellCoord::new(0, 1).checked_offset(-1, 0), None);
        assert_eq!(
            CellCoord::new(2, 2).checked_offset(-1, -2),
            Some(CellCoord::new(1, 0))
        );
    }
}
