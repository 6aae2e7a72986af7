//! Per-cell horizon maps for O(1) shadow tests.
//!
//! For every grid cell we precompute, in `n` azimuth sectors, the maximum
//! elevation angle (above the roof plane) subtended by surrounding DSM
//! obstacles. A time-step shadow test then reduces to comparing the sun's
//! plane-local elevation with the interpolated horizon at the sun's
//! plane-local azimuth — the classic r.sun-style approach, which is what
//! makes a year at 15-minute resolution over ~12,000 cells tractable.

use crate::dsm::Dsm;
use pv_geom::{CellCoord, GridDims};
use pv_units::Radians;

/// Precomputed horizon elevation angles for every cell and azimuth sector.
///
/// ```
/// use pv_gis::{HorizonMap, Obstacle, RoofBuilder};
/// use pv_geom::CellCoord;
/// use pv_units::{Meters, Radians};
///
/// let roof = RoofBuilder::new(Meters::new(6.0), Meters::new(3.0))
///     .obstacle(Obstacle::chimney(Meters::new(4.0), Meters::new(1.0),
///                                 Meters::new(0.6), Meters::new(0.6),
///                                 Meters::new(2.0)))
///     .build();
/// let horizon = HorizonMap::compute(&roof, 32);
/// // A cell just west of the chimney sees a high horizon towards +x.
/// let west_of_chimney = CellCoord::new(16, 6);
/// let towards_chimney = horizon.horizon_at(west_of_chimney, Radians::new(0.0));
/// assert!(towards_chimney.value() > 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct HorizonMap {
    dims: GridDims,
    num_sectors: usize,
    /// Row-major per cell, then per sector: horizon elevation in radians.
    angles: Vec<f32>,
    /// Per-cell sky-view factor relative to the unobstructed plane.
    svf: Vec<f32>,
}

impl HorizonMap {
    /// Computes the horizon map of a DSM with `num_sectors` azimuth sectors.
    ///
    /// Sector `k` covers plane angle `2πk / num_sectors` measured from the
    /// grid +x axis towards +y (matching
    /// [`LocalSun::plane_angle`](crate::LocalSun)).
    ///
    /// # Panics
    ///
    /// Panics if `num_sectors < 4`.
    #[must_use]
    pub fn compute(dsm: &Dsm, num_sectors: usize) -> Self {
        assert!(num_sectors >= 4, "need at least 4 azimuth sectors");
        let dims = dsm.dims();
        let pitch = dsm.geometry().pitch().value();
        let heights = dsm.heights();
        let global_max = heights.iter().copied().fold(0.0, f64::max);

        let mut angles = vec![0.0f32; dims.num_cells() * num_sectors];
        let mut svf = vec![1.0f32; dims.num_cells()];

        // A perfectly flat roof: every horizon is zero, SVF is one.
        if global_max <= 0.0 {
            return Self {
                dims,
                num_sectors,
                angles,
                svf,
            };
        }

        let max_extent =
            ((dims.width() * dims.width() + dims.height() * dims.height()) as f64).sqrt();
        for cell in dims.iter() {
            let cell_idx = dims.linear_index(cell);
            let h0 = heights[cell];
            let mut svf_acc = 0.0f64;
            for k in 0..num_sectors {
                let psi = core::f64::consts::TAU * k as f64 / num_sectors as f64;
                let (dx, dy) = (psi.cos(), psi.sin());
                let mut best_tan = 0.0f64;
                // March in one-cell steps along the sector direction.
                let mut t = 1.0f64;
                while t <= max_extent {
                    let px = cell.x as f64 + 0.5 + dx * t;
                    let py = cell.y as f64 + 0.5 + dy * t;
                    if px < 0.0
                        || py < 0.0
                        || px >= dims.width() as f64
                        || py >= dims.height() as f64
                    {
                        break;
                    }
                    let sample = CellCoord::new(px as usize, py as usize);
                    let dh = heights[sample] - h0;
                    let dist = t * pitch;
                    if dh > 0.0 {
                        let tan = dh / dist;
                        if tan > best_tan {
                            best_tan = tan;
                        }
                    }
                    // Early exit: no remaining sample can beat best_tan.
                    if (global_max - h0) / dist <= best_tan {
                        break;
                    }
                    t += 1.0;
                }
                let angle = best_tan.atan();
                angles[cell_idx * num_sectors + k] = angle as f32;
                svf_acc += angle.cos() * angle.cos();
            }
            svf[cell_idx] = (svf_acc / num_sectors as f64) as f32;
        }

        Self {
            dims,
            num_sectors,
            angles,
            svf,
        }
    }

    /// Grid dimensions.
    #[inline]
    #[must_use]
    pub const fn dims(&self) -> GridDims {
        self.dims
    }

    /// Number of azimuth sectors.
    #[inline]
    #[must_use]
    pub const fn num_sectors(&self) -> usize {
        self.num_sectors
    }

    /// Interpolated horizon elevation (above the roof plane) at `cell` in
    /// the plane direction `plane_angle` (radians from grid +x towards +y).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[must_use]
    pub fn horizon_at(&self, cell: CellCoord, plane_angle: Radians) -> Radians {
        let idx = self.dims.linear_index(cell);
        let n = self.num_sectors as f64;
        let frac = (plane_angle.value() / core::f64::consts::TAU).rem_euclid(1.0) * n;
        let k0 = frac as usize % self.num_sectors;
        let k1 = (k0 + 1) % self.num_sectors;
        let w = frac - frac.floor();
        let a0 = f64::from(self.angles[idx * self.num_sectors + k0]);
        let a1 = f64::from(self.angles[idx * self.num_sectors + k1]);
        Radians::new(a0 * (1.0 - w) + a1 * w)
    }

    /// Whether the sun at plane-local `(elevation, plane_angle)` is blocked
    /// by the horizon at `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[inline]
    #[must_use]
    pub fn is_shadowed(&self, cell: CellCoord, elevation: Radians, plane_angle: Radians) -> bool {
        elevation.value() <= self.horizon_at(cell, plane_angle).value()
    }

    /// Sky-view factor of `cell`: fraction of the plane-relative sky dome
    /// left unobstructed by DSM obstacles (1.0 on a clean roof).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[inline]
    #[must_use]
    pub fn sky_view_factor(&self, cell: CellCoord) -> f64 {
        f64::from(self.svf[self.dims.linear_index(cell)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsm::RoofBuilder;
    use crate::obstacle::Obstacle;
    use pv_units::Meters;

    fn roof_with_wall() -> Dsm {
        // 10 x 4 m roof with a 2 m tall, full-depth wall at x in [8, 8.4].
        RoofBuilder::new(Meters::new(10.0), Meters::new(4.0))
            .obstacle(Obstacle::new(
                crate::ObstacleKind::OffRoofBlock,
                Meters::new(8.0),
                Meters::ZERO,
                Meters::new(0.4),
                Meters::new(4.0),
                Meters::new(2.0),
                Meters::ZERO,
            ))
            .build()
    }

    #[test]
    fn flat_roof_has_zero_horizon_and_unit_svf() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let h = HorizonMap::compute(&roof, 16);
        let c = CellCoord::new(10, 5);
        for k in 0..16 {
            let psi = Radians::new(core::f64::consts::TAU * k as f64 / 16.0);
            assert_eq!(h.horizon_at(c, psi).value(), 0.0);
        }
        assert_eq!(h.sky_view_factor(c), 1.0);
    }

    #[test]
    fn wall_raises_horizon_towards_it_only() {
        let roof = roof_with_wall();
        let h = HorizonMap::compute(&roof, 64);
        let cell = CellCoord::new(30, 10); // 2 m west of the wall at x=8 m
        let towards = h.horizon_at(cell, Radians::new(0.0)); // +x direction
        let away = h.horizon_at(cell, Radians::new(core::f64::consts::PI));
        // 2 m tall wall at ~1.9 m distance: atan(2/1.9) ~ 0.81 rad.
        assert!(towards.value() > 0.6, "towards {}", towards.value());
        assert_eq!(away.value(), 0.0);
    }

    #[test]
    fn horizon_decays_with_distance() {
        let roof = roof_with_wall();
        let h = HorizonMap::compute(&roof, 64);
        let near = h.horizon_at(CellCoord::new(35, 10), Radians::new(0.0));
        let far = h.horizon_at(CellCoord::new(5, 10), Radians::new(0.0));
        assert!(near.value() > far.value());
        assert!(far.value() > 0.0);
    }

    #[test]
    fn svf_lower_near_wall() {
        let roof = roof_with_wall();
        let h = HorizonMap::compute(&roof, 32);
        let near = h.sky_view_factor(CellCoord::new(38, 10));
        let far = h.sky_view_factor(CellCoord::new(2, 10));
        assert!(near < far, "near {near} far {far}");
        assert!(near > 0.5, "wall blocks less than half the dome");
        assert!(far <= 1.0);
    }

    #[test]
    fn shadow_test_blocks_low_sun_behind_wall() {
        let roof = roof_with_wall();
        let h = HorizonMap::compute(&roof, 64);
        // Cell 1.9 m west of the 2 m wall: horizon ~atan(2/1.9) ~ 0.81 rad.
        let cell = CellCoord::new(30, 10);
        // Sun in the +x direction at 10 degrees: blocked.
        assert!(h.is_shadowed(cell, Radians::new(0.17), Radians::new(0.0)));
        // Sun overhead-ish at 60 degrees: clear.
        assert!(!h.is_shadowed(cell, Radians::new(1.05), Radians::new(0.0)));
        // Sun in the -x direction at 10 degrees: clear.
        assert!(!h.is_shadowed(
            cell,
            Radians::new(0.17),
            Radians::new(core::f64::consts::PI)
        ));
    }

    #[test]
    fn on_obstacle_cells_see_over_their_own_height() {
        let roof = roof_with_wall();
        let h = HorizonMap::compute(&roof, 16);
        // A cell on top of the wall has h0 = 2 m, so the wall itself does
        // not shadow it.
        let on_wall = CellCoord::new(41, 10);
        assert_eq!(h.horizon_at(on_wall, Radians::new(0.0)).value(), 0.0);
    }

    #[test]
    fn interpolation_is_continuous_across_wraparound() {
        let roof = roof_with_wall();
        let h = HorizonMap::compute(&roof, 32);
        let cell = CellCoord::new(30, 10);
        let just_below = h.horizon_at(cell, Radians::new(core::f64::consts::TAU - 1e-9));
        let at_zero = h.horizon_at(cell, Radians::new(0.0));
        assert!((just_below.value() - at_zero.value()).abs() < 1e-6);
    }
}
