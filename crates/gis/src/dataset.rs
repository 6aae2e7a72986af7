//! The assembled per-cell, per-step solar dataset.
//!
//! Memory layout rationale: a dense per-cell trace store for the paper's
//! setup (≈12,000 cells × 35,040 steps) would take gigabytes. Instead we
//! exploit the structure of the physics — on a planar roof the *only*
//! per-cell, per-step quantity is the binary beam-shadow state; everything
//! else factors into per-step plane-of-array components shared by all cells
//! plus one static sky-view factor per cell. The dataset therefore stores
//! per-step [`StepConditions`], one shadow *bit* per (beam step × cell), and
//! one `f32` SVF per cell — ~25 MB for the full paper configuration.

use pv_geom::{CellCoord, CellMask, GridDims};
use pv_units::{Celsius, Irradiance, Minutes, SimulationClock};

/// Shared (cell-independent) conditions of one time step.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct StepConditions {
    /// Weather-attenuated beam (direct) normal irradiance.
    pub beam_normal: Irradiance,
    /// Isotropic sky-diffuse irradiance on the base roof plane, *before*
    /// the per-cell sky-view factor.
    pub diffuse_poa: Irradiance,
    /// Ground-reflected irradiance on the base roof plane.
    pub ground_poa: Irradiance,
    /// Unit vector toward the sun in the world frame (x = east, y = north,
    /// z = up); zeroed when the sun is down.
    pub sun_direction: [f64; 3],
    /// Ambient air temperature.
    pub ambient: Celsius,
    /// Whether the sun is above the astronomical horizon.
    pub sun_up: bool,
}

/// Per-cell irradiance and temperature traces, stored compactly.
///
/// Constructed by [`SolarExtractor`](crate::SolarExtractor); queried by the
/// floorplanner via [`irradiance`](Self::irradiance) /
/// [`temperature`](Self::temperature) or the streaming
/// [`cell_view`](Self::cell_view).
///
/// ```
/// use pv_geom::CellCoord;
/// use pv_gis::{RoofBuilder, SolarExtractor, Site};
/// use pv_units::{Meters, SimulationClock};
///
/// let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
/// let clock = SimulationClock::days_at_minutes(2, 120);
/// let data = SolarExtractor::new(Site::turin(), clock).seed(7).extract(&roof);
/// assert_eq!(data.num_steps(), 24);
/// assert_eq!(data.valid().count(), 20 * 10);
///
/// // Point queries and the streaming per-cell view agree.
/// let cell = CellCoord::new(3, 3);
/// let lit = (0..data.num_steps())
///     .find(|&i| data.conditions(i).sun_up)
///     .expect("the sun rises within two days");
/// let (g, t) = data.cell_view(cell).nth(lit as usize).unwrap();
/// assert_eq!(g, data.irradiance(cell, lit));
/// assert_eq!(t, data.temperature(cell, lit));
/// assert!(g.as_w_per_m2() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct SolarDataset {
    clock: SimulationClock,
    dims: GridDims,
    valid: CellMask,
    steps: Vec<StepConditions>,
    /// Per-cell sky-view factor (obstacle-relative).
    svf: Vec<f32>,
    /// Row index into `shadow_rows` for steps with a beam component;
    /// `u32::MAX` for beamless steps.
    beam_row_of_step: Vec<u32>,
    /// Bit-packed shadow table: row-major `[beam_step][cell]`.
    shadow_rows: Vec<u64>,
    row_words: usize,
    /// World-frame unit normal of the base roof plane.
    base_normal: [f64; 3],
    /// Per-cell unit normals when the surface undulates (`None` = planar).
    cell_normals: Option<Vec<[f32; 3]>>,
}

impl SolarDataset {
    /// Assembles a dataset from its parts. Intended for use by
    /// [`SolarExtractor`](crate::SolarExtractor); exposed for tests and
    /// custom pipelines.
    ///
    /// `shadow_rows` must contain one bit-packed row of `dims.num_cells()`
    /// bits (padded to whole `u64`s) per *beam step*, in ascending step
    /// order; `beam_row_of_step[i]` maps step `i` to its row or `u32::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if array lengths are inconsistent with `clock`/`dims`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        clock: SimulationClock,
        dims: GridDims,
        valid: CellMask,
        steps: Vec<StepConditions>,
        svf: Vec<f32>,
        beam_row_of_step: Vec<u32>,
        shadow_rows: Vec<u64>,
        base_normal: [f64; 3],
        cell_normals: Option<Vec<[f32; 3]>>,
    ) -> Self {
        assert_eq!(steps.len(), clock.num_steps() as usize, "steps length");
        assert_eq!(svf.len(), dims.num_cells(), "svf length");
        assert_eq!(
            beam_row_of_step.len(),
            clock.num_steps() as usize,
            "row map length"
        );
        let row_words = dims.num_cells().div_ceil(64);
        assert_eq!(shadow_rows.len() % row_words.max(1), 0, "shadow rows");
        assert_eq!(valid.dims(), dims, "valid mask dims");
        if let Some(normals) = &cell_normals {
            assert_eq!(normals.len(), dims.num_cells(), "cell normals length");
        }
        Self {
            clock,
            dims,
            valid,
            steps,
            svf,
            beam_row_of_step,
            shadow_rows,
            row_words,
            base_normal,
            cell_normals,
        }
    }

    /// Non-panicking [`from_parts`](Self::from_parts) for decoders of
    /// untrusted bytes (`pv_store`): returns a description of the first
    /// inconsistency instead of panicking, and additionally validates that
    /// every beam-row index points inside `shadow_rows`, so all shadow
    /// queries on the result are in-bounds by construction.
    ///
    /// # Errors
    ///
    /// Returns the name of the first inconsistent part.
    #[allow(clippy::too_many_arguments)]
    pub fn try_from_parts(
        clock: SimulationClock,
        dims: GridDims,
        valid: CellMask,
        steps: Vec<StepConditions>,
        svf: Vec<f32>,
        beam_row_of_step: Vec<u32>,
        shadow_rows: Vec<u64>,
        base_normal: [f64; 3],
        cell_normals: Option<Vec<[f32; 3]>>,
    ) -> Result<Self, String> {
        if steps.len() != clock.num_steps() as usize {
            return Err("steps length".into());
        }
        if svf.len() != dims.num_cells() {
            return Err("svf length".into());
        }
        if beam_row_of_step.len() != clock.num_steps() as usize {
            return Err("row map length".into());
        }
        let row_words = dims.num_cells().div_ceil(64);
        if !shadow_rows.len().is_multiple_of(row_words.max(1)) {
            return Err("shadow rows".into());
        }
        let num_rows = shadow_rows.len() / row_words.max(1);
        if beam_row_of_step
            .iter()
            .any(|&row| row != u32::MAX && row as usize >= num_rows)
        {
            return Err("beam row index out of range".into());
        }
        if valid.dims() != dims {
            return Err("valid mask dims".into());
        }
        if let Some(normals) = &cell_normals {
            if normals.len() != dims.num_cells() {
                return Err("cell normals length".into());
            }
        }
        Ok(Self {
            clock,
            dims,
            valid,
            steps,
            svf,
            beam_row_of_step,
            shadow_rows,
            row_words,
            base_normal,
            cell_normals,
        })
    }

    /// The simulation clock.
    #[inline]
    #[must_use]
    pub const fn clock(&self) -> SimulationClock {
        self.clock
    }

    /// The per-step shared conditions, in step order (a
    /// [`from_parts`](Self::from_parts) part, exposed for serializers).
    #[inline]
    #[must_use]
    pub fn step_conditions(&self) -> &[StepConditions] {
        &self.steps
    }

    /// The per-cell sky-view factors in linear cell order (a
    /// [`from_parts`](Self::from_parts) part, exposed for serializers).
    #[inline]
    #[must_use]
    pub fn sky_view_factors(&self) -> &[f32] {
        &self.svf
    }

    /// The step → beam-row map (`u32::MAX` for beamless steps; a
    /// [`from_parts`](Self::from_parts) part, exposed for serializers).
    #[inline]
    #[must_use]
    pub fn beam_row_map(&self) -> &[u32] {
        &self.beam_row_of_step
    }

    /// The bit-packed shadow table, row-major `[beam_step][cell]` (a
    /// [`from_parts`](Self::from_parts) part, exposed for serializers).
    #[inline]
    #[must_use]
    pub fn shadow_row_data(&self) -> &[u64] {
        &self.shadow_rows
    }

    /// World-frame unit normal of the base roof plane (a
    /// [`from_parts`](Self::from_parts) part, exposed for serializers).
    #[inline]
    #[must_use]
    pub const fn base_normal(&self) -> [f64; 3] {
        self.base_normal
    }

    /// The per-cell unit normals, or `None` on planar roofs (a
    /// [`from_parts`](Self::from_parts) part, exposed for serializers).
    #[inline]
    #[must_use]
    pub fn cell_normal_data(&self) -> Option<&[[f32; 3]]> {
        self.cell_normals.as_deref()
    }

    /// Number of time steps (the paper's `NT`).
    #[inline]
    #[must_use]
    pub fn num_steps(&self) -> u32 {
        self.clock.num_steps()
    }

    /// Grid dimensions.
    #[inline]
    #[must_use]
    pub const fn dims(&self) -> GridDims {
        self.dims
    }

    /// The placeable-cell mask (the paper's suitable area).
    #[inline]
    #[must_use]
    pub const fn valid(&self) -> &CellMask {
        &self.valid
    }

    /// Step duration.
    #[inline]
    #[must_use]
    pub fn step_duration(&self) -> Minutes {
        self.clock.step()
    }

    /// Shared conditions of step `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    #[must_use]
    pub fn conditions(&self, i: u32) -> &StepConditions {
        &self.steps[i as usize]
    }

    /// Sky-view factor of a cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[inline]
    #[must_use]
    pub fn sky_view_factor(&self, cell: CellCoord) -> f64 {
        f64::from(self.svf[self.dims.linear_index(cell)])
    }

    /// Whether `cell` is beam-shadowed at step `i`.
    ///
    /// Steps without a beam component report `false` (there is no beam to
    /// lose).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid or `i` out of range.
    #[inline]
    #[must_use]
    pub fn is_shadowed(&self, cell: CellCoord, i: u32) -> bool {
        let row = self.beam_row_of_step[i as usize];
        if row == u32::MAX {
            return false;
        }
        let bit = self.dims.linear_index(cell);
        let word = self.shadow_rows[row as usize * self.row_words + bit / 64];
        word & (1 << (bit % 64)) != 0
    }

    /// The bit-packed shadow words of step `i`'s row, or `None` for steps
    /// without a beam component. Internal fast path for the batched kernel.
    #[inline]
    pub(crate) fn shadow_row_words(&self, i: u32) -> Option<&[u64]> {
        let row = self.beam_row_of_step[i as usize];
        if row == u32::MAX {
            return None;
        }
        let base = row as usize * self.row_words;
        Some(&self.shadow_rows[base..base + self.row_words])
    }

    /// Whether every cell shares the base roof normal.
    #[inline]
    pub(crate) const fn is_planar(&self) -> bool {
        self.cell_normals.is_none()
    }

    /// World-frame unit normal of the base roof plane.
    #[inline]
    pub(crate) const fn plane_normal(&self) -> [f64; 3] {
        self.base_normal
    }

    /// [`cell_normal`](Self::cell_normal) by linear cell index.
    #[inline]
    pub(crate) fn cell_normal_linear(&self, index: usize) -> [f64; 3] {
        match &self.cell_normals {
            None => self.base_normal,
            Some(normals) => {
                let n = normals[index];
                [f64::from(n[0]), f64::from(n[1]), f64::from(n[2])]
            }
        }
    }

    /// World-frame unit normal of `cell`'s surface patch.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[inline]
    #[must_use]
    pub fn cell_normal(&self, cell: CellCoord) -> [f64; 3] {
        match &self.cell_normals {
            None => self.base_normal,
            Some(normals) => {
                let n = normals[self.dims.linear_index(cell)];
                [f64::from(n[0]), f64::from(n[1]), f64::from(n[2])]
            }
        }
    }

    /// Irradiance `G(cell, t)` — the paper's `G[i,j,t]` input.
    ///
    /// The beam component uses the *cell's own* surface normal (constant on
    /// planar roofs, varying under DSM undulation) and is removed entirely
    /// when the cell is beam-shadowed; the diffuse component is scaled by
    /// the cell's sky-view factor; the ground-reflected component is shared.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid or `i` out of range.
    #[inline]
    #[must_use]
    pub fn irradiance(&self, cell: CellCoord, i: u32) -> Irradiance {
        let cond = &self.steps[i as usize];
        if !cond.sun_up {
            return Irradiance::ZERO;
        }
        let beam = if self.is_shadowed(cell, i) {
            Irradiance::ZERO
        } else {
            let n = self.cell_normal(cell);
            let s = cond.sun_direction;
            let cos_i = (s[0] * n[0] + s[1] * n[1] + s[2] * n[2]).max(0.0);
            cond.beam_normal * cos_i
        };
        beam + cond.diffuse_poa * self.sky_view_factor(cell) + cond.ground_poa
    }

    /// Ambient temperature `T(cell, t)` — the paper's `T[i,j,t]` input.
    ///
    /// The synthetic weather model has no microclimate gradient across a
    /// single roof, so this is uniform per step; the *module* temperature
    /// seen by the power model still varies per cell through `Tact = T + k·G`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    #[must_use]
    pub fn temperature(&self, _cell: CellCoord, i: u32) -> Celsius {
        self.steps[i as usize].ambient
    }

    /// Streaming view over one cell's `(G, T)` trace.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[must_use]
    pub fn cell_view(&self, cell: CellCoord) -> CellWeatherView<'_> {
        assert!(self.dims.contains(cell), "cell outside grid");
        CellWeatherView {
            dataset: self,
            cell,
            next: 0,
        }
    }

    /// Fraction of beam steps during which `cell` is shadowed — a useful
    /// diagnostic for scenario design.
    ///
    /// Returns 0 when the period contains no beam steps.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[must_use]
    pub fn shadow_fraction(&self, cell: CellCoord) -> f64 {
        let mut beam_steps = 0u32;
        let mut shadowed = 0u32;
        for i in 0..self.num_steps() {
            if self.beam_row_of_step[i as usize] != u32::MAX {
                beam_steps += 1;
                if self.is_shadowed(cell, i) {
                    shadowed += 1;
                }
            }
        }
        if beam_steps == 0 {
            0.0
        } else {
            f64::from(shadowed) / f64::from(beam_steps)
        }
    }

    /// Yearly plane-of-array insolation of a cell in Wh/m² (sum of
    /// `G · Δt`), a convenient scalar for maps and sanity checks.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[must_use]
    pub fn insolation(&self, cell: CellCoord) -> f64 {
        let dt_h = self.step_duration().as_hours();
        (0..self.num_steps())
            .map(|i| self.irradiance(cell, i).as_w_per_m2() * dt_h)
            .sum()
    }
}

/// Iterator over one cell's per-step `(irradiance, temperature)` samples.
///
/// Produced by [`SolarDataset::cell_view`].
#[derive(Clone, Debug)]
pub struct CellWeatherView<'a> {
    dataset: &'a SolarDataset,
    cell: CellCoord,
    next: u32,
}

impl Iterator for CellWeatherView<'_> {
    type Item = (Irradiance, Celsius);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.dataset.num_steps() {
            return None;
        }
        let i = self.next;
        self.next += 1;
        Some((
            self.dataset.irradiance(self.cell, i),
            self.dataset.temperature(self.cell, i),
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.dataset.num_steps() - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for CellWeatherView<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_units::Irradiance;

    /// Builds a tiny 2-step, 2x2-cell dataset by hand: a horizontal plane
    /// with the sun at zenith, so beam POA equals the 500 W/m² DNI.
    fn tiny() -> SolarDataset {
        let clock = SimulationClock::days_at_minutes(1, 720); // 2 steps
        let dims = GridDims::new(2, 2);
        let up = [0.0, 0.0, 1.0];
        let steps = vec![
            StepConditions {
                beam_normal: Irradiance::from_w_per_m2(500.0),
                diffuse_poa: Irradiance::from_w_per_m2(100.0),
                ground_poa: Irradiance::from_w_per_m2(10.0),
                sun_direction: up,
                ambient: Celsius::new(20.0),
                sun_up: true,
            },
            StepConditions {
                ambient: Celsius::new(10.0),
                ..StepConditions::default()
            },
        ];
        // Cell (0,0) (bit 0) shadowed during the single beam step.
        let shadow_rows = vec![0b0001u64];
        let beam_row_of_step = vec![0, u32::MAX];
        SolarDataset::from_parts(
            clock,
            dims,
            CellMask::full(dims),
            steps,
            vec![1.0, 0.5, 1.0, 1.0],
            beam_row_of_step,
            shadow_rows,
            up,
            None,
        )
    }

    #[test]
    fn irradiance_composition() {
        let d = tiny();
        // Shadowed cell (0,0): diffuse + ground only.
        assert_eq!(d.irradiance(CellCoord::new(0, 0), 0).as_w_per_m2(), 110.0);
        // Cell (1,0): full beam but svf 0.5 halves diffuse.
        assert_eq!(
            d.irradiance(CellCoord::new(1, 0), 0).as_w_per_m2(),
            500.0 + 50.0 + 10.0
        );
        // Night step: zero everywhere.
        assert_eq!(d.irradiance(CellCoord::new(1, 0), 1), Irradiance::ZERO);
    }

    #[test]
    fn shadow_queries() {
        let d = tiny();
        assert!(d.is_shadowed(CellCoord::new(0, 0), 0));
        assert!(!d.is_shadowed(CellCoord::new(1, 0), 0));
        // Beamless step is never "shadowed".
        assert!(!d.is_shadowed(CellCoord::new(0, 0), 1));
        assert_eq!(d.shadow_fraction(CellCoord::new(0, 0)), 1.0);
        assert_eq!(d.shadow_fraction(CellCoord::new(1, 1)), 0.0);
    }

    #[test]
    fn cell_view_streams_all_steps() {
        let d = tiny();
        let v: Vec<_> = d.cell_view(CellCoord::new(1, 0)).collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].1, Celsius::new(20.0));
        assert_eq!(v[1].0, Irradiance::ZERO);
    }

    #[test]
    fn insolation_integrates_g_dt() {
        let d = tiny();
        // 560 W/m^2 for 12 h = 6720 Wh/m^2.
        let wh = d.insolation(CellCoord::new(1, 0));
        assert!((wh - 560.0 * 12.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "svf length")]
    fn inconsistent_parts_rejected() {
        let clock = SimulationClock::days_at_minutes(1, 720);
        let dims = GridDims::new(2, 2);
        let _ = SolarDataset::from_parts(
            clock,
            dims,
            CellMask::full(dims),
            vec![StepConditions::default(); 2],
            vec![1.0; 3], // wrong
            vec![u32::MAX; 2],
            vec![],
            [0.0, 0.0, 1.0],
            None,
        );
    }

    #[test]
    #[should_panic(expected = "steps length")]
    fn wrong_steps_length_rejected() {
        let clock = SimulationClock::days_at_minutes(1, 720); // 2 steps
        let dims = GridDims::new(2, 2);
        let _ = SolarDataset::from_parts(
            clock,
            dims,
            CellMask::full(dims),
            vec![StepConditions::default(); 3], // wrong
            vec![1.0; 4],
            vec![u32::MAX; 2],
            vec![],
            [0.0, 0.0, 1.0],
            None,
        );
    }

    #[test]
    #[should_panic(expected = "row map length")]
    fn wrong_beam_row_map_length_rejected() {
        let clock = SimulationClock::days_at_minutes(1, 720);
        let dims = GridDims::new(2, 2);
        let _ = SolarDataset::from_parts(
            clock,
            dims,
            CellMask::full(dims),
            vec![StepConditions::default(); 2],
            vec![1.0; 4],
            vec![u32::MAX; 5], // wrong
            vec![],
            [0.0, 0.0, 1.0],
            None,
        );
    }

    #[test]
    #[should_panic(expected = "shadow rows")]
    fn ragged_shadow_rows_rejected() {
        // 70 cells -> 2 words per row; 3 words is not a whole row count.
        let clock = SimulationClock::days_at_minutes(1, 720);
        let dims = GridDims::new(10, 7);
        let _ = SolarDataset::from_parts(
            clock,
            dims,
            CellMask::full(dims),
            vec![StepConditions::default(); 2],
            vec![1.0; 70],
            vec![0, u32::MAX],
            vec![0u64; 3], // wrong: not a multiple of row_words = 2
            [0.0, 0.0, 1.0],
            None,
        );
    }

    #[test]
    #[should_panic(expected = "valid mask dims")]
    fn wrong_valid_mask_dims_rejected() {
        let clock = SimulationClock::days_at_minutes(1, 720);
        let dims = GridDims::new(2, 2);
        let _ = SolarDataset::from_parts(
            clock,
            dims,
            CellMask::full(GridDims::new(3, 2)), // wrong
            vec![StepConditions::default(); 2],
            vec![1.0; 4],
            vec![u32::MAX; 2],
            vec![],
            [0.0, 0.0, 1.0],
            None,
        );
    }

    #[test]
    #[should_panic(expected = "cell normals length")]
    fn wrong_cell_normals_length_rejected() {
        let clock = SimulationClock::days_at_minutes(1, 720);
        let dims = GridDims::new(2, 2);
        let _ = SolarDataset::from_parts(
            clock,
            dims,
            CellMask::full(dims),
            vec![StepConditions::default(); 2],
            vec![1.0; 4],
            vec![u32::MAX; 2],
            vec![],
            [0.0, 0.0, 1.0],
            Some(vec![[0.0, 0.0, 1.0]; 3]), // wrong
        );
    }

    #[test]
    fn cell_view_is_consistent_with_scalar_queries() {
        let d = tiny();
        for cell in [
            CellCoord::new(0, 0),
            CellCoord::new(1, 0),
            CellCoord::new(1, 1),
        ] {
            let streamed: Vec<_> = d.cell_view(cell).collect();
            assert_eq!(streamed.len(), d.num_steps() as usize);
            for (i, &(g, t)) in streamed.iter().enumerate() {
                assert_eq!(g, d.irradiance(cell, i as u32), "cell {cell:?} step {i}");
                assert_eq!(t, d.temperature(cell, i as u32), "cell {cell:?} step {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cell outside grid")]
    fn cell_view_rejects_out_of_grid_cell() {
        let _ = tiny().cell_view(CellCoord::new(2, 0));
    }

    #[test]
    fn try_from_parts_mirrors_from_parts_and_checks_rows() {
        let clock = SimulationClock::days_at_minutes(1, 720);
        let dims = GridDims::new(2, 2);
        let up = [0.0, 0.0, 1.0];
        let ok = SolarDataset::try_from_parts(
            clock,
            dims,
            CellMask::full(dims),
            vec![StepConditions::default(); 2],
            vec![1.0; 4],
            vec![0, u32::MAX],
            vec![0b0001u64],
            up,
            None,
        )
        .expect("consistent parts decode");
        assert_eq!(ok.num_steps(), 2);

        // Same length error as the panicking constructor.
        let err = SolarDataset::try_from_parts(
            clock,
            dims,
            CellMask::full(dims),
            vec![StepConditions::default(); 2],
            vec![1.0; 3], // wrong
            vec![u32::MAX; 2],
            vec![],
            up,
            None,
        )
        .unwrap_err();
        assert_eq!(err, "svf length");

        // Extra check from_parts does not make: a beam-row index pointing
        // past the shadow table is rejected instead of panicking later in
        // `is_shadowed`.
        let err = SolarDataset::try_from_parts(
            clock,
            dims,
            CellMask::full(dims),
            vec![StepConditions::default(); 2],
            vec![1.0; 4],
            vec![1, u32::MAX], // row 1 of a 1-row table
            vec![0u64],
            up,
            None,
        )
        .unwrap_err();
        assert!(err.contains("beam row"), "{err}");
    }

    #[test]
    fn part_accessors_round_trip_through_try_from_parts() {
        let d = tiny();
        let rebuilt = SolarDataset::try_from_parts(
            d.clock(),
            d.dims(),
            d.valid().clone(),
            d.step_conditions().to_vec(),
            d.sky_view_factors().to_vec(),
            d.beam_row_map().to_vec(),
            d.shadow_row_data().to_vec(),
            d.base_normal(),
            d.cell_normal_data().map(<[_]>::to_vec),
        )
        .expect("parts from a real dataset are consistent");
        for cell in [CellCoord::new(0, 0), CellCoord::new(1, 0)] {
            for i in 0..d.num_steps() {
                assert_eq!(rebuilt.irradiance(cell, i), d.irradiance(cell, i));
                assert_eq!(rebuilt.temperature(cell, i), d.temperature(cell, i));
            }
        }
    }

    #[test]
    fn tilted_cell_normal_scales_beam() {
        let clock = SimulationClock::days_at_minutes(1, 720);
        let dims = GridDims::new(2, 1);
        let up = [0.0, 0.0, 1.0];
        // Cell 0 flat, cell 1 tilted 60 degrees away: cos = 0.5.
        let tilted = [(60f32).to_radians().sin(), 0.0, (60f32).to_radians().cos()];
        let steps = vec![
            StepConditions {
                beam_normal: Irradiance::from_w_per_m2(800.0),
                sun_direction: up,
                sun_up: true,
                ..StepConditions::default()
            },
            StepConditions::default(),
        ];
        let d = SolarDataset::from_parts(
            clock,
            dims,
            CellMask::full(dims),
            steps,
            vec![1.0; 2],
            vec![0, u32::MAX],
            vec![0u64],
            up,
            Some(vec![[0.0, 0.0, 1.0], tilted]),
        );
        let flat = d.irradiance(CellCoord::new(0, 0), 0).as_w_per_m2();
        let slanted = d.irradiance(CellCoord::new(1, 0), 0).as_w_per_m2();
        assert!((flat - 800.0).abs() < 1e-9);
        assert!((slanted - 400.0).abs() < 0.5);
    }
}
