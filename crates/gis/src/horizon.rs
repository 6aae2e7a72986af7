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
use pv_runtime::Runtime;
use pv_units::Radians;

/// Cells per parallel work unit of the horizon scan.
///
/// Fixed (never derived from the thread count) so the map is filled in
/// identical segments on any [`Runtime`] configuration.
const HORIZON_CHUNK_CELLS: usize = 64;

/// Precomputed horizon elevation angles for every cell and azimuth sector.
///
/// ```
/// use pv_gis::{HorizonMap, Obstacle, RoofBuilder};
/// use pv_geom::CellCoord;
/// use pv_runtime::Runtime;
/// use pv_units::{Meters, Radians};
///
/// let roof = RoofBuilder::new(Meters::new(6.0), Meters::new(3.0))
///     .obstacle(Obstacle::chimney(Meters::new(4.0), Meters::new(1.0),
///                                 Meters::new(0.6), Meters::new(0.6),
///                                 Meters::new(2.0)))
///     .build();
/// let horizon = HorizonMap::compute(&roof, 32, Runtime::sequential());
/// // A cell just west of the chimney sees a high horizon towards +x.
/// let west_of_chimney = CellCoord::new(16, 6);
/// let towards_chimney = horizon.horizon_at(west_of_chimney, Radians::new(0.0));
/// assert!(towards_chimney.value() > 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct HorizonMap {
    dims: GridDims,
    num_sectors: usize,
    /// Row-major per cell: one record of `num_sectors` horizon elevations
    /// (radians) followed by the cell's sky-view factor relative to the
    /// unobstructed plane. Both come out of the same pass over the cell.
    records: Vec<f32>,
}

impl HorizonMap {
    /// Computes the horizon map of a DSM with `num_sectors` azimuth sectors,
    /// scanning cells in fixed chunks on `runtime`.
    ///
    /// Sector `k` covers plane angle `2πk / num_sectors` measured from the
    /// grid +x axis towards +y (matching
    /// [`LocalSun::plane_angle`](crate::LocalSun)). Every cell is computed
    /// exactly as a sequential scan computes it, so the map is
    /// bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `num_sectors < 4`.
    #[must_use]
    pub fn compute(dsm: &Dsm, num_sectors: usize, runtime: Runtime) -> Self {
        assert!(num_sectors >= 4, "need at least 4 azimuth sectors");
        let dims = dsm.dims();
        let stride = num_sectors + 1;
        let heights = dsm.heights().as_slice();
        let global_max = heights.iter().copied().fold(0.0, f64::max);
        let mut records = vec![0.0f32; dims.num_cells() * stride];

        // A perfectly flat roof: every horizon is zero, SVF is one.
        if global_max <= 0.0 {
            for record in records.chunks_exact_mut(stride) {
                record[num_sectors] = 1.0;
            }
            return Self {
                dims,
                num_sectors,
                records,
            };
        }

        let scan = SectorScan {
            width: dims.width(),
            height: dims.height(),
            pitch: dsm.geometry().pitch().value(),
            heights,
            global_max,
            max_extent: ((dims.width() * dims.width() + dims.height() * dims.height()) as f64)
                .sqrt(),
            directions: (0..num_sectors)
                .map(|k| {
                    let psi = core::f64::consts::TAU * k as f64 / num_sectors as f64;
                    (psi.cos(), psi.sin())
                })
                .collect(),
        };
        runtime.for_each_chunk_mut(
            &mut records,
            HORIZON_CHUNK_CELLS * stride,
            |chunk, block| {
                let first = chunk * HORIZON_CHUNK_CELLS;
                for (offset, record) in block.chunks_exact_mut(stride).enumerate() {
                    scan.fill_record(first + offset, record);
                }
            },
        );

        Self {
            dims,
            num_sectors,
            records,
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

    /// The two sectors bracketing `plane_angle` and the interpolation
    /// weight of the second one.
    #[inline]
    fn sector_pair(&self, plane_angle: Radians) -> (usize, usize, f64) {
        let n = self.num_sectors as f64;
        let frac = (plane_angle.value() / core::f64::consts::TAU).rem_euclid(1.0) * n;
        let k0 = frac as usize % self.num_sectors;
        let k1 = (k0 + 1) % self.num_sectors;
        (k0, k1, frac - frac.floor())
    }

    /// The cell record at linear index `idx`.
    #[inline]
    fn record(&self, idx: usize) -> &[f32] {
        let stride = self.num_sectors + 1;
        &self.records[idx * stride..(idx + 1) * stride]
    }

    /// Interpolated horizon elevation (above the roof plane) at `cell` in
    /// the plane direction `plane_angle` (radians from grid +x towards +y).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[must_use]
    pub fn horizon_at(&self, cell: CellCoord, plane_angle: Radians) -> Radians {
        let (k0, k1, w) = self.sector_pair(plane_angle);
        let record = self.record(self.dims.linear_index(cell));
        Radians::new(interpolate(record, k0, k1, w))
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

    /// Casts one sun position's shadow row: bit `i` of `row` (word `i / 64`,
    /// bit `i % 64`) is set exactly when
    /// [`is_shadowed`](Self::is_shadowed) holds for the cell at linear index
    /// `i`. The bracketing sectors and their weight are found once for the
    /// whole row; every word of `row` is overwritten, padding bits cleared.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `dims().num_cells().div_ceil(64)` words long.
    pub(crate) fn shadow_row_into(
        &self,
        elevation: Radians,
        plane_angle: Radians,
        row: &mut [u64],
    ) {
        let num_cells = self.dims.num_cells();
        assert_eq!(row.len(), num_cells.div_ceil(64), "shadow row length");
        let (k0, k1, w) = self.sector_pair(plane_angle);
        let elevation = elevation.value();
        let stride = self.num_sectors + 1;
        for (word_idx, word) in row.iter_mut().enumerate() {
            let cells = word_idx * 64..(word_idx * 64 + 64).min(num_cells);
            let block = &self.records[cells.start * stride..cells.end * stride];
            let mut bits = 0u64;
            for (bit, record) in block.chunks_exact(stride).enumerate() {
                if elevation <= interpolate(record, k0, k1, w) {
                    bits |= 1 << bit;
                }
            }
            *word = bits;
        }
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
        f64::from(self.record(self.dims.linear_index(cell))[self.num_sectors])
    }
}

/// Horizon elevation between sectors `k0` and `k1` of one cell record.
#[inline]
fn interpolate(record: &[f32], k0: usize, k1: usize, w: f64) -> f64 {
    f64::from(record[k0]) * (1.0 - w) + f64::from(record[k1]) * w
}

/// The per-map constants of the horizon scan, shared by every chunk.
struct SectorScan<'a> {
    width: usize,
    height: usize,
    pitch: f64,
    heights: &'a [f64],
    global_max: f64,
    max_extent: f64,
    /// `(cos ψ, sin ψ)` of every sector, computed once per map.
    directions: Vec<(f64, f64)>,
}

impl SectorScan<'_> {
    /// Fills the record of the cell at linear index `idx`: the horizon
    /// elevation of every sector, then the sky-view factor.
    fn fill_record(&self, idx: usize, record: &mut [f32]) {
        let (x0, y0) = (
            (idx % self.width) as f64 + 0.5,
            (idx / self.width) as f64 + 0.5,
        );
        let (width, height) = (self.width as f64, self.height as f64);
        let h0 = self.heights[idx];
        let mut svf_acc = 0.0f64;
        for (k, &(dx, dy)) in self.directions.iter().enumerate() {
            let mut best_tan = 0.0f64;
            // March in one-cell steps along the sector direction.
            let mut t = 1.0f64;
            while t <= self.max_extent {
                let px = x0 + dx * t;
                let py = y0 + dy * t;
                if px < 0.0 || py < 0.0 || px >= width || py >= height {
                    break;
                }
                let dh = self.heights[py as usize * self.width + px as usize] - h0;
                let dist = t * self.pitch;
                if dh > 0.0 {
                    let tan = dh / dist;
                    if tan > best_tan {
                        best_tan = tan;
                    }
                }
                // Early exit: no remaining sample can beat best_tan.
                if (self.global_max - h0) / dist <= best_tan {
                    break;
                }
                t += 1.0;
            }
            let angle = best_tan.atan();
            record[k] = angle as f32;
            svf_acc += angle.cos() * angle.cos();
        }
        record[self.directions.len()] = (svf_acc / self.directions.len() as f64) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsm::RoofBuilder;
    use crate::obstacle::Obstacle;
    use core::f64::consts::{PI, TAU};
    use pv_units::{Degrees, Meters};

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

    /// An undulating 8 x 4 m roof (800 cells, 12.5 shadow words) with a
    /// chimney and a vent: horizons vary on every cell.
    fn undulating_roof() -> Dsm {
        RoofBuilder::new(Meters::new(8.0), Meters::new(4.0))
            .undulation(Degrees::new(5.0), Meters::new(3.0), 17)
            .obstacle(Obstacle::chimney(
                Meters::new(5.0),
                Meters::new(1.6),
                Meters::new(0.8),
                Meters::new(0.8),
                Meters::new(2.0),
            ))
            .obstacle(Obstacle::chimney(
                Meters::new(1.2),
                Meters::new(2.6),
                Meters::new(0.4),
                Meters::new(0.4),
                Meters::new(0.7),
            ))
            .build()
    }

    /// The reference: the scan as one sequential per-cell loop, with each
    /// sector's `(cos, sin)` recomputed for every cell. Returns the map's
    /// records (angles, then SVF, per cell).
    fn reference_records(dsm: &Dsm, num_sectors: usize) -> Vec<f32> {
        let dims = dsm.dims();
        let pitch = dsm.geometry().pitch().value();
        let heights = dsm.heights();
        let global_max = heights.iter().copied().fold(0.0, f64::max);
        let (w, h) = (dims.width() as f64, dims.height() as f64);
        let max_extent = (w * w + h * h).sqrt();
        let mut records = Vec::new();
        for cell in dims.iter() {
            let h0 = heights[cell];
            let mut svf_acc = 0.0f64;
            for k in 0..num_sectors {
                let psi = TAU * k as f64 / num_sectors as f64;
                let (dx, dy) = (psi.cos(), psi.sin());
                let mut best_tan = 0.0f64;
                let mut t = 1.0f64;
                while t <= max_extent {
                    let px = cell.x as f64 + 0.5 + dx * t;
                    let py = cell.y as f64 + 0.5 + dy * t;
                    if px < 0.0 || py < 0.0 || px >= w || py >= h {
                        break;
                    }
                    let dh = heights[CellCoord::new(px as usize, py as usize)] - h0;
                    let dist = t * pitch;
                    if dh > 0.0 && dh / dist > best_tan {
                        best_tan = dh / dist;
                    }
                    if (global_max - h0) / dist <= best_tan {
                        break;
                    }
                    t += 1.0;
                }
                let angle = best_tan.atan();
                records.push(angle as f32);
                svf_acc += angle.cos() * angle.cos();
            }
            records.push((svf_acc / num_sectors as f64) as f32);
        }
        records
    }

    #[test]
    fn chunked_scan_matches_the_per_cell_reference_bit_for_bit() {
        for roof in [roof_with_wall(), undulating_roof()] {
            for sectors in [7, 32] {
                let map = HorizonMap::compute(&roof, sectors, Runtime::with_threads(2));
                let expected = reference_records(&roof, sectors);
                let bits = |v: &[f32]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&map.records), bits(&expected), "{sectors} sectors");
            }
        }
    }

    #[test]
    fn horizon_map_is_bit_identical_across_thread_counts() {
        for roof in [roof_with_wall(), undulating_roof()] {
            let seq = HorizonMap::compute(&roof, 32, Runtime::sequential());
            for threads in [2usize, 5] {
                let par = HorizonMap::compute(&roof, 32, Runtime::with_threads(threads));
                for cell in roof.dims().iter() {
                    for k in 0..32 {
                        let psi = Radians::new(TAU * k as f64 / 32.0);
                        assert_eq!(
                            seq.horizon_at(cell, psi).value().to_bits(),
                            par.horizon_at(cell, psi).value().to_bits(),
                            "cell {cell:?} sector {k} with {threads} threads"
                        );
                    }
                    assert_eq!(
                        seq.sky_view_factor(cell).to_bits(),
                        par.sky_view_factor(cell).to_bits(),
                        "cell {cell:?} with {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn shadow_row_matches_per_cell_shadow_test() {
        let below_tau = f64::from_bits(TAU.to_bits() - 1);
        let mut plane_angles = vec![0.0, below_tau, PI, -0.3, 7.0];
        // Off-sector angles, so the interpolation weight is non-trivial.
        plane_angles.extend((0..97).map(|i| TAU * f64::from(i) / 97.0));
        for roof in [roof_with_wall(), undulating_roof()] {
            let h = HorizonMap::compute(&roof, 32, Runtime::sequential());
            let dims = h.dims();
            let probe = dims.coord_of(dims.num_cells() / 2);
            let mut row = vec![u64::MAX; dims.num_cells().div_ceil(64)];
            for &psi in &plane_angles {
                let psi = Radians::new(psi);
                // Include a sun exactly on one cell's horizon (`<=` edge).
                let on_horizon = h.horizon_at(probe, psi).value();
                for elevation in [-0.1, 0.0, 0.05, 0.2, 0.5, 0.9, 1.4, on_horizon] {
                    let elevation = Radians::new(elevation);
                    h.shadow_row_into(elevation, psi, &mut row);
                    for cell in dims.iter() {
                        let bit = dims.linear_index(cell);
                        assert_eq!(
                            (row[bit / 64] >> (bit % 64)) & 1 == 1,
                            h.is_shadowed(cell, elevation, psi),
                            "cell {cell:?} at ({elevation:?}, {psi:?})"
                        );
                    }
                    let used = dims.num_cells() % 64;
                    assert!(used > 0, "the test roofs leave padding bits");
                    assert_eq!(row[row.len() - 1] >> used, 0, "padding bits clear");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "shadow row length")]
    fn shadow_row_rejects_wrong_length() {
        let h = HorizonMap::compute(&roof_with_wall(), 16, Runtime::sequential());
        h.shadow_row_into(Radians::new(0.3), Radians::new(0.0), &mut [0u64; 3]);
    }

    #[test]
    fn flat_roof_has_zero_horizon_and_unit_svf() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let h = HorizonMap::compute(&roof, 16, Runtime::sequential());
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
        let h = HorizonMap::compute(&roof, 64, Runtime::sequential());
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
        let h = HorizonMap::compute(&roof, 64, Runtime::sequential());
        let near = h.horizon_at(CellCoord::new(35, 10), Radians::new(0.0));
        let far = h.horizon_at(CellCoord::new(5, 10), Radians::new(0.0));
        assert!(near.value() > far.value());
        assert!(far.value() > 0.0);
    }

    #[test]
    fn svf_lower_near_wall() {
        let roof = roof_with_wall();
        let h = HorizonMap::compute(&roof, 32, Runtime::sequential());
        let near = h.sky_view_factor(CellCoord::new(38, 10));
        let far = h.sky_view_factor(CellCoord::new(2, 10));
        assert!(near < far, "near {near} far {far}");
        assert!(near > 0.5, "wall blocks less than half the dome");
        assert!(far <= 1.0);
    }

    #[test]
    fn shadow_test_blocks_low_sun_behind_wall() {
        let roof = roof_with_wall();
        let h = HorizonMap::compute(&roof, 64, Runtime::sequential());
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
        let h = HorizonMap::compute(&roof, 16, Runtime::sequential());
        // A cell on top of the wall has h0 = 2 m, so the wall itself does
        // not shadow it.
        let on_wall = CellCoord::new(41, 10);
        assert_eq!(h.horizon_at(on_wall, Radians::new(0.0)).value(), 0.0);
    }

    #[test]
    fn interpolation_is_continuous_across_wraparound() {
        let roof = roof_with_wall();
        let h = HorizonMap::compute(&roof, 32, Runtime::sequential());
        let cell = CellCoord::new(30, 10);
        let just_below = h.horizon_at(cell, Radians::new(core::f64::consts::TAU - 1e-9));
        let at_zero = h.horizon_at(cell, Radians::new(0.0));
        assert!((just_below.value() - at_zero.value()).abs() < 1e-6);
    }
}
