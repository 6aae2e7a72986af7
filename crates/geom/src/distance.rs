//! Distance metrics in the roof plane.

use pv_units::Meters;

/// A point in metric roof-plane coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in metres.
    pub x: f64,
    /// Vertical (along-slope) coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point from metric coordinates.
    #[inline]
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }
}

/// Manhattan (L1) distance — the paper's wiring-overhead metric: extra wire
/// between two modules is the sum of their vertical and horizontal
/// displacements (`d_v + d_h`, Fig. 4).
///
/// ```
/// use pv_geom::{manhattan, Point};
/// let d = manhattan(Point::new(0.0, 0.0), Point::new(3.0, 4.0));
/// assert_eq!(d.as_meters(), 7.0);
/// ```
#[inline]
#[must_use]
pub fn manhattan(a: Point, b: Point) -> Meters {
    Meters::new((a.x - b.x).abs() + (a.y - b.y).abs())
}

/// Euclidean (L2) distance, used for the greedy algorithm's distance
/// threshold ("twice the average distance of the already placed modules").
///
/// ```
/// use pv_geom::{euclidean, Point};
/// let d = euclidean(Point::new(0.0, 0.0), Point::new(3.0, 4.0));
/// assert_eq!(d.as_meters(), 5.0);
/// ```
#[inline]
#[must_use]
pub fn euclidean(a: Point, b: Point) -> Meters {
    Meters::new(((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt())
}

/// Chebyshev (L∞) distance in whole cells, useful for neighbourhood tests.
#[inline]
#[must_use]
pub fn chebyshev_cells(a: (usize, usize), b: (usize, usize)) -> usize {
    a.0.abs_diff(b.0).max(a.1.abs_diff(b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_agree_on_axis() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(5.0, 1.0);
        assert_eq!(manhattan(a, b).as_meters(), 4.0);
        assert_eq!(euclidean(a, b).as_meters(), 4.0);
    }

    #[test]
    fn manhattan_dominates_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 3.0);
        assert!(manhattan(a, b).as_meters() >= euclidean(a, b).as_meters());
    }

    #[test]
    fn chebyshev() {
        assert_eq!(chebyshev_cells((2, 3), (7, 5)), 5);
        assert_eq!(chebyshev_cells((7, 5), (2, 3)), 5);
    }
}
