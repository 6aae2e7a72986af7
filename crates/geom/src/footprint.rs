//! Module footprints on the virtual grid.

use crate::error::GeomError;
use pv_units::Meters;

/// Orientation of a module on the roof plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Orientation {
    /// Long side horizontal (the paper's default: 160 cm wide × 80 cm tall).
    #[default]
    Landscape,
    /// Long side vertical.
    Portrait,
}

/// The axis-aligned rectangle of grid cells one PV module occupies.
///
/// The paper requires module sides to be integer multiples of the grid pitch
/// `s`: `w = k1·s`, `h = k2·s` (Sec. III-A). For the PV-MF165EB3 at
/// `s = 20 cm` this is 8 × 4 cells.
///
/// ```
/// use pv_geom::{Footprint, Orientation};
/// use pv_units::Meters;
/// let fp = Footprint::from_module_size(
///     Meters::new(1.6), Meters::new(0.8), Meters::new(0.2))?;
/// assert_eq!((fp.width_cells(), fp.height_cells()), (8, 4));
/// assert_eq!(fp.rotated().orientation(), Orientation::Portrait);
/// assert_eq!(fp.rotated().width_cells(), 4);
/// # Ok::<(), pv_geom::GeomError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Footprint {
    k1: usize,
    k2: usize,
    pitch_cm: u32,
    orientation: Orientation,
}

impl Footprint {
    /// Builds a footprint directly from cell counts (`k1` wide, `k2` tall).
    ///
    /// # Panics
    ///
    /// Panics if either count is zero or the pitch is zero.
    #[must_use]
    pub fn from_cells(k1: usize, k2: usize, pitch: Meters) -> Self {
        assert!(k1 > 0 && k2 > 0, "footprint must cover at least one cell");
        let pitch_cm = pitch.as_cm().round() as u32;
        assert!(pitch_cm > 0, "pitch must be positive");
        Self {
            k1,
            k2,
            pitch_cm,
            orientation: Orientation::Landscape,
        }
    }

    /// Derives the footprint of a `w × h` module on a grid of the given
    /// pitch, in landscape orientation.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::NotGridAligned`] when a side is not an integer
    /// multiple of the pitch (within 1 mm tolerance).
    pub fn from_module_size(w: Meters, h: Meters, pitch: Meters) -> Result<Self, GeomError> {
        let cells = |dim: Meters| -> Result<usize, GeomError> {
            let ratio = dim / pitch;
            let rounded = ratio.round();
            if (ratio - rounded).abs() * pitch.value() > 1e-3 || rounded < 1.0 {
                Err(GeomError::NotGridAligned {
                    dimension_m: dim.value(),
                    pitch_m: pitch.value(),
                })
            } else {
                Ok(rounded as usize)
            }
        };
        Ok(Self::from_cells(cells(w)?, cells(h)?, pitch))
    }

    /// Cells along the grid x-axis in the current orientation.
    #[inline]
    #[must_use]
    pub const fn width_cells(&self) -> usize {
        match self.orientation {
            Orientation::Landscape => self.k1,
            Orientation::Portrait => self.k2,
        }
    }

    /// Cells along the grid y-axis in the current orientation.
    #[inline]
    #[must_use]
    pub const fn height_cells(&self) -> usize {
        match self.orientation {
            Orientation::Landscape => self.k2,
            Orientation::Portrait => self.k1,
        }
    }

    /// Total cells covered (`k1 · k2`, orientation-independent).
    #[inline]
    #[must_use]
    pub const fn num_cells(&self) -> usize {
        self.k1 * self.k2
    }

    /// Grid pitch.
    #[inline]
    #[must_use]
    pub fn pitch(&self) -> Meters {
        Meters::from_cm(f64::from(self.pitch_cm))
    }

    /// Physical width in the current orientation.
    #[inline]
    #[must_use]
    pub fn width(&self) -> Meters {
        self.pitch() * self.width_cells() as f64
    }

    /// Physical height in the current orientation.
    #[inline]
    #[must_use]
    pub fn height(&self) -> Meters {
        self.pitch() * self.height_cells() as f64
    }

    /// Current orientation.
    #[inline]
    #[must_use]
    pub const fn orientation(&self) -> Orientation {
        self.orientation
    }

    /// The same footprint rotated by 90°.
    #[inline]
    #[must_use]
    pub const fn rotated(self) -> Self {
        Self {
            orientation: match self.orientation {
                Orientation::Landscape => Orientation::Portrait,
                Orientation::Portrait => Orientation::Landscape,
            },
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_module_is_8x4_cells() {
        let fp = Footprint::from_module_size(Meters::new(1.6), Meters::new(0.8), Meters::new(0.2))
            .unwrap();
        assert_eq!(fp.width_cells(), 8);
        assert_eq!(fp.height_cells(), 4);
        assert_eq!(fp.num_cells(), 32);
        assert_eq!(fp.width().as_meters(), 1.6);
    }

    #[test]
    fn rotation_swaps_axes_and_round_trips() {
        let fp = Footprint::from_cells(8, 4, Meters::new(0.2));
        let rot = fp.rotated();
        assert_eq!(rot.width_cells(), 4);
        assert_eq!(rot.height_cells(), 8);
        assert_eq!(rot.num_cells(), fp.num_cells());
        assert_eq!(rot.rotated(), fp);
    }

    #[test]
    fn misaligned_module_rejected() {
        let err =
            Footprint::from_module_size(Meters::new(1.65), Meters::new(0.8), Meters::new(0.2))
                .unwrap_err();
        assert!(matches!(err, GeomError::NotGridAligned { .. }));
    }

    #[test]
    fn near_aligned_within_tolerance_accepted() {
        // 1.6004 m on a 20 cm grid: off by 0.4 mm, accepted as 8 cells.
        let fp =
            Footprint::from_module_size(Meters::new(1.6004), Meters::new(0.8), Meters::new(0.2))
                .unwrap();
        assert_eq!(fp.width_cells(), 8);
    }
}
