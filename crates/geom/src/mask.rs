//! Bit-packed sets of valid grid cells.

use crate::coord::{CellCoord, GridDims};

/// A bit-packed subset of a grid's cells.
///
/// The paper's `Ng` — the number of *valid* grid elements after discarding
/// cells outside the roof outline or occupied by encumbrances — is exactly
/// [`CellMask::count`] of the suitable-area mask.
///
/// ```
/// use pv_geom::{CellCoord, CellMask, GridDims};
/// let mut mask = CellMask::empty(GridDims::new(8, 8));
/// mask.set(CellCoord::new(3, 3), true);
/// assert_eq!(mask.count(), 1);
/// assert!(mask.is_set(CellCoord::new(3, 3)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellMask {
    dims: GridDims,
    words: Vec<u64>,
    count: usize,
}

impl CellMask {
    /// A mask with no cell set.
    #[must_use]
    pub fn empty(dims: GridDims) -> Self {
        Self {
            dims,
            words: vec![0; dims.num_cells().div_ceil(64)],
            count: 0,
        }
    }

    /// A mask with every cell set.
    #[must_use]
    pub fn full(dims: GridDims) -> Self {
        let mut mask = Self::empty(dims);
        for i in 0..dims.num_cells() {
            mask.words[i / 64] |= 1 << (i % 64);
        }
        mask.count = dims.num_cells();
        mask
    }

    /// Builds a mask from a predicate over coordinates.
    #[must_use]
    pub fn from_fn(dims: GridDims, mut f: impl FnMut(CellCoord) -> bool) -> Self {
        let mut mask = Self::empty(dims);
        for coord in dims.iter() {
            if f(coord) {
                mask.set(coord, true);
            }
        }
        mask
    }

    /// Grid dimensions this mask refers to.
    #[inline]
    #[must_use]
    pub const fn dims(&self) -> GridDims {
        self.dims
    }

    /// Number of set (valid) cells — the paper's `Ng`.
    #[inline]
    #[must_use]
    pub const fn count(&self) -> usize {
        self.count
    }

    /// Whether `coord` is set. Out-of-bounds coordinates read as unset.
    #[inline]
    #[must_use]
    pub fn is_set(&self, coord: CellCoord) -> bool {
        if !self.dims.contains(coord) {
            return false;
        }
        let i = self.dims.linear_index(coord);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Sets or clears a cell, updating the running count.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is out of bounds.
    pub fn set(&mut self, coord: CellCoord, value: bool) {
        let i = self.dims.linear_index(coord);
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let was_set = *word & bit != 0;
        if value && !was_set {
            *word |= bit;
            self.count += 1;
        } else if !value && was_set {
            *word &= !bit;
            self.count -= 1;
        }
    }

    /// Iterates over set coordinates in row-major order.
    pub fn iter_set(&self) -> impl Iterator<Item = CellCoord> + '_ {
        let dims = self.dims;
        self.words.iter().enumerate().flat_map(move |(w, &bits)| {
            let mut bits = bits;
            core::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let linear = w * 64 + tz;
                Some(linear)
            })
            .filter(move |&linear| linear < dims.num_cells())
            .map(move |linear| dims.coord_of(linear))
        })
    }

    /// Intersection with another mask.
    ///
    /// # Panics
    ///
    /// Panics if the masks have different dimensions.
    #[must_use]
    pub fn and(&self, other: &Self) -> Self {
        assert_eq!(self.dims, other.dims, "mask dimensions must match");
        let words: Vec<u64> = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        Self {
            dims: self.dims,
            words,
            count,
        }
    }

    /// Cells set in `self` but not in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the masks have different dimensions.
    #[must_use]
    pub fn and_not(&self, other: &Self) -> Self {
        assert_eq!(self.dims, other.dims, "mask dimensions must match");
        let words: Vec<u64> = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & !b)
            .collect();
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        Self {
            dims: self.dims,
            words,
            count,
        }
    }

    /// Whether an axis-aligned `w × h` cell rectangle anchored (top-left) at
    /// `anchor` lies entirely within set cells.
    #[must_use]
    pub fn rect_is_set(&self, anchor: CellCoord, w: usize, h: usize) -> bool {
        if anchor.x + w > self.dims.width() || anchor.y + h > self.dims.height() {
            return false;
        }
        for dy in 0..h {
            for dx in 0..w {
                if !self.is_set(CellCoord::new(anchor.x + dx, anchor.y + dy)) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full_counts() {
        let dims = GridDims::new(13, 7); // 91 cells, not a multiple of 64
        assert_eq!(CellMask::empty(dims).count(), 0);
        assert_eq!(CellMask::full(dims).count(), 91);
    }

    #[test]
    fn set_clear_updates_count() {
        let mut m = CellMask::empty(GridDims::new(4, 4));
        let c = CellCoord::new(2, 1);
        m.set(c, true);
        m.set(c, true); // idempotent
        assert_eq!(m.count(), 1);
        m.set(c, false);
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn iter_set_matches_membership() {
        let dims = GridDims::new(70, 3); // spans multiple words
        let m = CellMask::from_fn(dims, |c| (c.x + c.y) % 5 == 0);
        let from_iter: Vec<CellCoord> = m.iter_set().collect();
        let expected: Vec<CellCoord> = dims.iter().filter(|&c| m.is_set(c)).collect();
        assert_eq!(from_iter, expected);
        assert_eq!(from_iter.len(), m.count());
    }

    #[test]
    fn out_of_bounds_reads_unset() {
        let m = CellMask::full(GridDims::new(3, 3));
        assert!(!m.is_set(CellCoord::new(3, 0)));
    }

    #[test]
    fn boolean_algebra() {
        let dims = GridDims::new(10, 10);
        let evens = CellMask::from_fn(dims, |c| c.x % 2 == 0);
        let top = CellMask::from_fn(dims, |c| c.y < 5);
        let both = evens.and(&top);
        assert_eq!(both.count(), 25);
        let only_even_bottom = evens.and_not(&top);
        assert_eq!(only_even_bottom.count(), 25);
    }

    #[test]
    fn rect_queries() {
        let dims = GridDims::new(10, 10);
        let mut m = CellMask::full(dims);
        assert!(m.rect_is_set(CellCoord::new(2, 2), 8, 4));
        assert!(!m.rect_is_set(CellCoord::new(3, 2), 8, 4)); // exits right edge
        m.set(CellCoord::new(5, 3), false);
        assert!(!m.rect_is_set(CellCoord::new(2, 2), 8, 4));
    }
}
