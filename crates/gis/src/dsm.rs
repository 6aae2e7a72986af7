//! Synthetic Digital Surface Models of roofs.
//!
//! The paper starts from a LiDAR-derived DSM; we synthesize an equivalent
//! height field from a parametric roof description. Heights are stored
//! *normal to the roof plane* (the plane's own slope is handled analytically
//! by the transposition model), which keeps shadow casting a pure 2-D
//! heightfield problem on the developed roof surface.

use crate::obstacle::Obstacle;
use pv_geom::{CellMask, Grid, GridDims, Polygon};
use pv_units::{Degrees, Meters};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Immutable geometric description of a roof plane.
#[derive(Clone, Debug, PartialEq)]
pub struct RoofGeometry {
    width: Meters,
    depth: Meters,
    pitch: Meters,
    tilt: Degrees,
    azimuth: Degrees,
}

impl RoofGeometry {
    /// Roof width (cross-slope extent), in metres.
    #[inline]
    #[must_use]
    pub const fn width(&self) -> Meters {
        self.width
    }

    /// Roof depth along the slope, in metres.
    #[inline]
    #[must_use]
    pub const fn depth(&self) -> Meters {
        self.depth
    }

    /// Virtual-grid pitch (the paper's `s`).
    #[inline]
    #[must_use]
    pub const fn pitch(&self) -> Meters {
        self.pitch
    }

    /// Roof tilt above horizontal.
    #[inline]
    #[must_use]
    pub const fn tilt(&self) -> Degrees {
        self.tilt
    }

    /// Azimuth the roof faces (down-slope direction, clockwise from north).
    #[inline]
    #[must_use]
    pub const fn azimuth(&self) -> Degrees {
        self.azimuth
    }

    /// Grid dimensions implied by extent and pitch.
    #[must_use]
    pub fn grid_dims(&self) -> GridDims {
        let s = self.pitch.value();
        GridDims::new(
            (self.width.value() / s).round() as usize,
            (self.depth.value() / s).round() as usize,
        )
    }
}

/// A synthetic DSM: per-cell obstacle height above the roof plane plus the
/// mask of cells usable for module placement.
///
/// Built via [`RoofBuilder`]. The *valid* mask is the paper's "suitable
/// area": cells inside the roof outline, not covered by an obstacle and not
/// within an obstacle's clearance margin.
#[derive(Clone, Debug)]
pub struct Dsm {
    geometry: RoofGeometry,
    heights: Grid<f64>,
    valid: CellMask,
    obstacles: Vec<Obstacle>,
    /// Per-cell world-frame unit normals when the surface undulates;
    /// `None` for a perfectly planar roof (all cells share the base
    /// plane's normal).
    cell_normals: Option<Vec<[f32; 3]>>,
}

impl Dsm {
    /// Roof geometry.
    #[inline]
    #[must_use]
    pub const fn geometry(&self) -> &RoofGeometry {
        &self.geometry
    }

    /// Obstacle height above the roof plane per cell, metres.
    #[inline]
    #[must_use]
    pub const fn heights(&self) -> &Grid<f64> {
        &self.heights
    }

    /// The placeable cells (the paper's `Ng = valid().count()`).
    #[inline]
    #[must_use]
    pub const fn valid(&self) -> &CellMask {
        &self.valid
    }

    /// Grid dimensions.
    #[inline]
    #[must_use]
    pub fn dims(&self) -> GridDims {
        self.heights.dims()
    }

    /// The obstacles placed on this roof.
    #[inline]
    #[must_use]
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// World-frame unit normal of the base roof plane.
    #[must_use]
    pub fn base_normal(&self) -> [f64; 3] {
        let (sb, cb) = (self.geometry.tilt.sin(), self.geometry.tilt.cos());
        let (sa, ca) = (self.geometry.azimuth.sin(), self.geometry.azimuth.cos());
        [sb * sa, sb * ca, cb]
    }

    /// World-frame unit normal of one cell's surface patch.
    ///
    /// Equals [`base_normal`](Self::base_normal) on a planar roof; with
    /// [`RoofBuilder::undulation`] it varies smoothly cell to cell — the
    /// fine texture a LiDAR DSM resolves on a real roof.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[must_use]
    pub fn cell_normal(&self, cell: pv_geom::CellCoord) -> [f64; 3] {
        match &self.cell_normals {
            None => self.base_normal(),
            Some(normals) => {
                let n = normals[self.dims().linear_index(cell)];
                [f64::from(n[0]), f64::from(n[1]), f64::from(n[2])]
            }
        }
    }

    /// Whether this DSM carries per-cell surface normals.
    #[inline]
    #[must_use]
    pub const fn has_undulation(&self) -> bool {
        self.cell_normals.is_some()
    }
}

/// Smooth random field used for surface undulation: a sum of
/// random-direction, random-phase sinusoids around a base wavelength —
/// cheap, seeded, and spatially smooth.
#[derive(Clone, Debug)]
struct WaveField {
    waves: Vec<(f64, f64, f64, f64)>, // (kx, ky, phase, weight)
    norm: f64,
}

impl WaveField {
    fn new(rng: &mut StdRng, wavelength_m: f64, num_waves: usize) -> Self {
        let mut waves = Vec::with_capacity(num_waves);
        let mut norm = 0.0;
        for _ in 0..num_waves {
            let angle = rng.gen::<f64>() * core::f64::consts::TAU;
            // Wavelengths spread over [0.6, 1.8]x the base wavelength.
            let lambda = wavelength_m * (0.6 + 1.2 * rng.gen::<f64>());
            let k = core::f64::consts::TAU / lambda;
            let phase = rng.gen::<f64>() * core::f64::consts::TAU;
            let weight = 0.5 + rng.gen::<f64>();
            waves.push((k * angle.cos(), k * angle.sin(), phase, weight));
            norm += weight;
        }
        Self { waves, norm }
    }

    /// Field value in [-1, 1] at metric position `(x, y)`.
    fn at(&self, x: f64, y: f64) -> f64 {
        let s: f64 = self
            .waves
            .iter()
            .map(|&(kx, ky, phase, w)| w * (kx * x + ky * y + phase).sin())
            .sum();
        s / self.norm
    }
}

/// Builder for synthetic roof DSMs.
///
/// ```
/// use pv_gis::{Obstacle, RoofBuilder};
/// use pv_units::{Degrees, Meters};
/// let roof = RoofBuilder::new(Meters::new(10.0), Meters::new(5.0))
///     .pitch(Meters::new(0.2))
///     .tilt(Degrees::new(26.0))
///     .azimuth(Degrees::new(180.0))
///     .obstacle(Obstacle::chimney(Meters::new(4.0), Meters::new(1.0),
///                                 Meters::new(0.6), Meters::new(0.6),
///                                 Meters::new(1.2)))
///     .build();
/// assert_eq!(roof.dims().width(), 50);
/// assert!(roof.valid().count() < 50 * 25); // chimney + clearance removed
/// ```
#[derive(Clone, Debug)]
pub struct RoofBuilder {
    width: Meters,
    depth: Meters,
    pitch: Meters,
    tilt: Degrees,
    azimuth: Degrees,
    outline: Option<Polygon>,
    obstacles: Vec<Obstacle>,
    undulation: Option<(Degrees, Meters, u64)>,
    twist: Degrees,
}

impl RoofBuilder {
    /// Starts a rectangular roof of `width × depth` metres.
    ///
    /// Defaults: 20 cm grid pitch, 26° tilt, south-facing (180°), no
    /// obstacles — the paper's experimental setting.
    ///
    /// # Panics
    ///
    /// Panics if either extent is not positive.
    #[must_use]
    pub fn new(width: Meters, depth: Meters) -> Self {
        assert!(
            width.value() > 0.0 && depth.value() > 0.0,
            "roof extent must be positive"
        );
        Self {
            width,
            depth,
            pitch: Meters::new(0.2),
            tilt: Degrees::new(26.0),
            azimuth: Degrees::new(180.0),
            outline: None,
            obstacles: Vec::new(),
            undulation: None,
            twist: Degrees::ZERO,
        }
    }

    /// Adds a structural *twist*: the surface tilt trends linearly from
    /// `base + delta` at the left edge to `base − delta` at the right edge.
    ///
    /// Long-span industrial roofs are rarely true planes — differential
    /// settling and purlin sag twist them by a few degrees end to end,
    /// which is what produces the broad left-to-right irradiance gradient
    /// visible in the paper's Fig. 6-(b) maps ("the least irradiated grid
    /// elements on their right-hand side").
    ///
    /// # Panics
    ///
    /// Panics if `|delta|` is 15° or more.
    #[must_use]
    pub fn twist(mut self, delta: Degrees) -> Self {
        assert!(delta.value().abs() < 15.0, "twist must be under 15 degrees");
        self.twist = delta;
        self
    }

    /// Adds smooth surface undulation: per-cell tilt/aspect deviations of
    /// up to `amplitude` degrees, varying over a spatial scale of
    /// `wavelength` metres, deterministically generated from `seed`.
    ///
    /// Real roofs are not geometric planes — tiling, sheet-metal seams,
    /// structural sag and LiDAR measurement noise give every DSM cell a
    /// slightly different surface normal, which is exactly the fine-grained
    /// irradiance texture visible in the paper's Fig. 6-(b). A few degrees
    /// of deviation over a few metres is typical of industrial sheet roofs.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is negative or ≥ 45°, or `wavelength` is not
    /// positive.
    #[must_use]
    pub fn undulation(mut self, amplitude: Degrees, wavelength: Meters, seed: u64) -> Self {
        assert!(
            (0.0..45.0).contains(&amplitude.value()),
            "undulation amplitude must be in [0, 45) degrees"
        );
        assert!(wavelength.value() > 0.0, "wavelength must be positive");
        self.undulation = Some((amplitude, wavelength, seed));
        self
    }

    /// Sets the virtual-grid pitch (the paper's `s`, default 20 cm).
    ///
    /// # Panics
    ///
    /// Panics if the pitch is not positive.
    #[must_use]
    pub fn pitch(mut self, pitch: Meters) -> Self {
        assert!(pitch.value() > 0.0, "pitch must be positive");
        self.pitch = pitch;
        self
    }

    /// Sets the roof tilt above horizontal (default 26°).
    ///
    /// # Panics
    ///
    /// Panics if the tilt is outside `[0°, 90°)`.
    #[must_use]
    pub fn tilt(mut self, tilt: Degrees) -> Self {
        assert!(
            (0.0..90.0).contains(&tilt.value()),
            "tilt must be in [0, 90) degrees"
        );
        self.tilt = tilt;
        self
    }

    /// Sets the azimuth the roof faces (default 180° = south).
    #[must_use]
    pub fn azimuth(mut self, azimuth: Degrees) -> Self {
        self.azimuth = azimuth.normalized();
        self
    }

    /// Restricts the usable outline to a polygon (metres in roof plane);
    /// by default the full rectangle is usable.
    #[must_use]
    pub fn outline(mut self, outline: Polygon) -> Self {
        self.outline = Some(outline);
        self
    }

    /// Adds an obstacle.
    #[must_use]
    pub fn obstacle(mut self, obstacle: Obstacle) -> Self {
        self.obstacles.push(obstacle);
        self
    }

    /// Adds many obstacles.
    #[must_use]
    pub fn obstacles(mut self, obstacles: impl IntoIterator<Item = Obstacle>) -> Self {
        self.obstacles.extend(obstacles);
        self
    }

    /// Rasterizes the roof into a [`Dsm`].
    #[must_use]
    pub fn build(self) -> Dsm {
        let geometry = RoofGeometry {
            width: self.width,
            depth: self.depth,
            pitch: self.pitch,
            tilt: self.tilt,
            azimuth: self.azimuth,
        };
        let dims = geometry.grid_dims();
        let s = self.pitch.value();

        let heights = Grid::from_fn(dims, |c| {
            let (px, py) = ((c.x as f64 + 0.5) * s, (c.y as f64 + 0.5) * s);
            self.obstacles
                .iter()
                .filter(|o| o.covers(px, py))
                .map(|o| o.height().value())
                .fold(0.0, f64::max)
        });

        let outline_mask = match &self.outline {
            Some(poly) => poly.rasterize(dims, self.pitch),
            None => CellMask::full(dims),
        };
        let valid = CellMask::from_fn(dims, |c| {
            if !outline_mask.is_set(c) {
                return false;
            }
            let (px, py) = ((c.x as f64 + 0.5) * s, (c.y as f64 + 0.5) * s);
            !self.obstacles.iter().any(|o| o.excludes(px, py))
        });

        let cell_normals = if self.undulation.is_some() || self.twist.value() != 0.0 {
            let (amplitude, wavelength, seed) =
                self.undulation
                    .unwrap_or((Degrees::ZERO, Meters::new(1.0), 0));
            let mut rng = StdRng::seed_from_u64(seed);
            let tilt_field = WaveField::new(&mut rng, wavelength.value(), 5);
            let azim_field = WaveField::new(&mut rng, wavelength.value(), 5);
            let width_m = self.width.value();
            Some(
                dims.iter()
                    .map(|c| {
                        let (px, py) = ((c.x as f64 + 0.5) * s, (c.y as f64 + 0.5) * s);
                        // Structural twist: linear tilt trend across the width.
                        let trend = self.twist.value() * (1.0 - 2.0 * px / width_m);
                        // Tilt deviation dominates the texture: it modulates
                        // beam *magnitude* roughly synchronously across the
                        // roof. Azimuth deviation (kept small) would shift
                        // cells' good hours in time instead, which is not
                        // what roof texture does.
                        let tilt = Degrees::new(
                            self.tilt.value() + trend + amplitude.value() * tilt_field.at(px, py),
                        );
                        let azim = Degrees::new(
                            self.azimuth.value() + 0.3 * amplitude.value() * azim_field.at(px, py),
                        );
                        let (sb, cb) = (tilt.sin(), tilt.cos());
                        let (sa, ca) = (azim.sin(), azim.cos());
                        [(sb * sa) as f32, (sb * ca) as f32, cb as f32]
                    })
                    .collect(),
            )
        } else {
            None
        };

        Dsm {
            geometry,
            heights,
            valid,
            obstacles: self.obstacles,
            cell_normals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_geom::CellCoord;

    #[test]
    fn clean_roof_is_fully_valid_and_flat() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        assert_eq!(roof.dims(), GridDims::new(20, 10));
        assert_eq!(roof.valid().count(), 200);
        assert!(roof.heights().iter().all(|&h| h == 0.0));
    }

    #[test]
    fn obstacle_raises_heights_and_invalidates_cells() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(4.0))
            .obstacle(Obstacle::chimney(
                Meters::new(1.0),
                Meters::new(1.0),
                Meters::new(1.0),
                Meters::new(1.0),
                Meters::new(2.0),
            ))
            .build();
        // Footprint cells have height 2 m.
        assert_eq!(roof.heights()[CellCoord::new(7, 7)], 2.0);
        assert_eq!(roof.heights()[CellCoord::new(2, 2)], 0.0);
        // Footprint (25 cells) + 20 cm clearance ring removed from valid.
        assert!(!roof.valid().is_set(CellCoord::new(7, 7)));
        assert!(!roof.valid().is_set(CellCoord::new(4, 7))); // clearance
        assert!(roof.valid().is_set(CellCoord::new(2, 7)));
        let removed = 400 - roof.valid().count();
        assert_eq!(removed, 49, "footprint 25 + ring = 7x7 block");
    }

    #[test]
    fn overlapping_obstacles_take_max_height() {
        let roof = RoofBuilder::new(Meters::new(2.0), Meters::new(2.0))
            .obstacle(Obstacle::dormer(
                Meters::ZERO,
                Meters::ZERO,
                Meters::new(2.0),
                Meters::new(2.0),
                Meters::new(1.0),
            ))
            .obstacle(Obstacle::chimney(
                Meters::new(0.5),
                Meters::new(0.5),
                Meters::new(0.5),
                Meters::new(0.5),
                Meters::new(3.0),
            ))
            .build();
        assert_eq!(roof.heights()[CellCoord::new(3, 3)], 3.0);
        assert_eq!(roof.heights()[CellCoord::new(9, 9)], 1.0);
        assert_eq!(roof.valid().count(), 0);
    }

    #[test]
    fn polygon_outline_restricts_validity() {
        let tri = Polygon::new(vec![(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]).unwrap();
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(4.0))
            .outline(tri)
            .build();
        assert!(roof.valid().count() < 400 / 2 + 30);
        assert!(roof.valid().is_set(CellCoord::new(1, 1)));
        assert!(!roof.valid().is_set(CellCoord::new(18, 18)));
    }

    #[test]
    fn undulation_perturbs_normals_smoothly() {
        let roof = RoofBuilder::new(Meters::new(10.0), Meters::new(5.0))
            .tilt(Degrees::new(26.0))
            .undulation(Degrees::new(5.0), Meters::new(3.0), 7)
            .build();
        assert!(roof.has_undulation());
        let base = roof.base_normal();
        let dot = |a: [f64; 3], b: [f64; 3]| a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
        let mut max_dev: f64 = 0.0;
        let mut any_dev = false;
        for c in roof.dims().iter() {
            let n = roof.cell_normal(c);
            // Unit length.
            assert!((dot(n, n) - 1.0).abs() < 1e-6);
            let dev = dot(n, base).clamp(-1.0, 1.0).acos().to_degrees();
            max_dev = max_dev.max(dev);
            any_dev |= dev > 0.5;
        }
        assert!(any_dev, "undulation must actually deviate normals");
        // Tilt and azimuth deviations of up to 5 degrees each compose to a
        // bounded total angular deviation.
        assert!(max_dev < 12.0, "max deviation {max_dev}");
        // Smoothness: neighbours deviate little from each other.
        let a = roof.cell_normal(CellCoord::new(10, 10));
        let b = roof.cell_normal(CellCoord::new(11, 10));
        assert!(dot(a, b) > 0.999);
        // Deterministic per seed.
        let again = RoofBuilder::new(Meters::new(10.0), Meters::new(5.0))
            .tilt(Degrees::new(26.0))
            .undulation(Degrees::new(5.0), Meters::new(3.0), 7)
            .build();
        assert_eq!(
            roof.cell_normal(CellCoord::new(3, 3)),
            again.cell_normal(CellCoord::new(3, 3))
        );
    }

    #[test]
    fn planar_roof_has_base_normal_everywhere() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        assert!(!roof.has_undulation());
        assert_eq!(roof.cell_normal(CellCoord::new(3, 3)), roof.base_normal());
    }

    #[test]
    fn table1_roof_dimensions() {
        // Paper: roofs of ~49 x 12 m -> 287x51 / 298x51 / 298x52 cells.
        let roof = RoofBuilder::new(Meters::new(57.4), Meters::new(10.2)).build();
        assert_eq!(roof.dims(), GridDims::new(287, 51));
    }
}
