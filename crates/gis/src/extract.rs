//! The end-to-end solar-data extraction pipeline (paper Sec. IV).

use crate::clearsky::ClearSky;
use crate::dataset::{SolarDataset, StepConditions};
use crate::decomposition::decompose_ghi;
use crate::dsm::Dsm;
use crate::horizon::HorizonMap;
use crate::site::Site;
use crate::sunpos::{solar_position, LocalSun};
use crate::transposition::transpose;
use crate::weather::WeatherGenerator;
use pv_runtime::Runtime;
use pv_units::SimulationClock;

/// Beam-step rows per parallel work unit of the shadow-casting loop.
///
/// Fixed (never derived from the thread count) so the shadow table is
/// filled in identical segments on any [`Runtime`] configuration.
const SHADOW_CHUNK_ROWS: usize = 16;

/// Builder/driver for turning a [`Dsm`] into a [`SolarDataset`].
///
/// Mirrors the paper's enabling infrastructure (its ref \[15\]): DSM →
/// shadows; weather → decomposed irradiance; both → per-cell `G(t)`, `T(t)`.
///
/// ```
/// use pv_gis::{RoofBuilder, SolarExtractor, Site};
/// use pv_units::{Meters, SimulationClock};
/// let roof = RoofBuilder::new(Meters::new(8.0), Meters::new(4.0)).build();
/// let clock = SimulationClock::days_at_minutes(2, 120);
/// let data = SolarExtractor::new(Site::turin(), clock).seed(1).extract(&roof);
/// assert_eq!(data.num_steps(), 24);
/// ```
#[derive(Clone, Debug)]
pub struct SolarExtractor {
    site: Site,
    clock: SimulationClock,
    seed: u64,
    num_sectors: usize,
    weather: Option<WeatherGenerator>,
    runtime: Runtime,
}

impl SolarExtractor {
    /// Creates an extractor for a site and simulation period.
    ///
    /// The two parallel stages, the horizon scan and shadow casting, run
    /// on [`Runtime::from_env`] workers (`PV_THREADS` or the machine's
    /// parallelism); override with [`runtime`](Self::runtime). Results are
    /// bit-identical for every thread count.
    #[must_use]
    pub fn new(site: Site, clock: SimulationClock) -> Self {
        Self {
            site,
            clock,
            seed: 0,
            num_sectors: 64,
            weather: None,
            runtime: Runtime::from_env(),
        }
    }

    /// Sets the parallel runtime used by the horizon scan and the
    /// shadow-casting stage.
    #[must_use]
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Sets the weather seed (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of horizon azimuth sectors (default 64).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 4.
    #[must_use]
    pub fn horizon_sectors(mut self, num_sectors: usize) -> Self {
        assert!(num_sectors >= 4, "need at least 4 azimuth sectors");
        self.num_sectors = num_sectors;
        self
    }

    /// Supplies a custom weather generator (overrides [`seed`](Self::seed)).
    #[must_use]
    pub fn weather(mut self, generator: WeatherGenerator) -> Self {
        self.weather = Some(generator);
        self
    }

    /// Runs the pipeline.
    #[must_use]
    pub fn extract(&self, dsm: &Dsm) -> SolarDataset {
        let geom = dsm.geometry();
        let dims = dsm.dims();
        let tilt = geom.tilt();
        let roof_az = geom.azimuth();
        let latitude = self.site.latitude();

        let horizon = HorizonMap::compute(dsm, self.num_sectors, self.runtime);
        let weather = self
            .weather
            .clone()
            .unwrap_or_else(|| WeatherGenerator::new(self.seed))
            .generate(self.clock);

        let num_steps = self.clock.num_steps() as usize;
        let mut steps = Vec::with_capacity(num_steps);
        let mut beam_row_of_step = vec![u32::MAX; num_steps];
        let mut beam_steps: Vec<LocalSun> = Vec::new();

        let mut clear_sky_day = u32::MAX;
        let mut clear_sky = ClearSky::new(0, self.site.linke_turbidity(0));

        for (i, step) in self.clock.steps().enumerate() {
            let day = step.day_of_year();
            if day != clear_sky_day {
                clear_sky_day = day;
                clear_sky = ClearSky::new(day, self.site.linke_turbidity(day));
            }
            let sun = solar_position(latitude, day, step.hour_of_day());
            let sample = &weather[i];

            if !sun.is_up() {
                steps.push(StepConditions {
                    ambient: sample.ambient,
                    ..StepConditions::default()
                });
                continue;
            }

            // Weather-modulated global horizontal, then Erbs decomposition
            // capped by the clear-sky beam.
            let ghi = clear_sky.extraterrestrial_horizontal(sun.elevation) * sample.clearness;
            let split = decompose_ghi(
                ghi,
                sample.clearness,
                sun.elevation,
                clear_sky.beam_normal(sun.elevation),
            );
            let local = LocalSun::from_sky(&sun, tilt, roof_az);
            let poa = transpose(
                &local,
                tilt,
                split.beam_normal,
                split.diffuse_horizontal,
                ghi,
                self.site.albedo(),
            );

            if poa.beam.as_w_per_m2() > 0.0 {
                beam_row_of_step[i] = beam_steps.len() as u32;
                beam_steps.push(local);
            }
            steps.push(StepConditions {
                beam_normal: split.beam_normal,
                diffuse_poa: poa.diffuse,
                ground_poa: poa.ground,
                sun_direction: sun.direction(),
                ambient: sample.ambient,
                sun_up: true,
            });
        }

        // Shadow table: one bit-packed row per beam step. This is the
        // extraction hot loop (beam steps × cells horizon tests); rows are
        // independent, so chunks of rows are cast in parallel straight into
        // the table — bit-identical to the sequential scan for any thread
        // count.
        let row_words = dims.num_cells().div_ceil(64);
        let mut shadow_rows = vec![0u64; beam_steps.len() * row_words];
        let flat_roof = dsm.heights().iter().all(|&h| h <= 0.0);
        if !flat_roof {
            self.runtime.for_each_chunk_mut(
                &mut shadow_rows,
                SHADOW_CHUNK_ROWS * row_words,
                |chunk, block| {
                    let first = chunk * SHADOW_CHUNK_ROWS;
                    for (offset, row) in block.chunks_exact_mut(row_words).enumerate() {
                        let sun = &beam_steps[first + offset];
                        horizon.shadow_row_into(sun.elevation, sun.plane_angle, row);
                    }
                },
            );
        }
        let svf: Vec<f32> = dims
            .iter()
            .map(|c| horizon.sky_view_factor(c) as f32)
            .collect();
        // Free the horizon map before the dataset is assembled: it is the
        // largest buffer besides the shadow table, so this lowers peak memory.
        drop(horizon);

        let cell_normals = if dsm.has_undulation() {
            Some(
                dims.iter()
                    .map(|c| {
                        let n = dsm.cell_normal(c);
                        [n[0] as f32, n[1] as f32, n[2] as f32]
                    })
                    .collect(),
            )
        } else {
            None
        };

        SolarDataset::from_parts(
            self.clock,
            dims,
            dsm.valid().clone(),
            steps,
            svf,
            beam_row_of_step,
            shadow_rows,
            dsm.base_normal(),
            cell_normals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsm::RoofBuilder;
    use crate::obstacle::Obstacle;
    use pv_geom::CellCoord;
    use pv_units::{Degrees, Meters};

    fn small_clock() -> SimulationClock {
        SimulationClock::days_at_minutes(4, 60)
    }

    #[test]
    fn clean_roof_has_uniform_irradiance() {
        let roof = RoofBuilder::new(Meters::new(6.0), Meters::new(3.0)).build();
        let data = SolarExtractor::new(Site::turin(), small_clock())
            .seed(3)
            .extract(&roof);
        let a = data.insolation(CellCoord::new(1, 1));
        let b = data.insolation(CellCoord::new(25, 10));
        assert!(a > 0.0);
        assert!((a - b).abs() < 1e-9, "uniform roof must be uniform");
    }

    #[test]
    fn chimney_shades_its_ridge_side_at_noon() {
        // Chimney on a south-facing roof in January: the low noon sun comes
        // from down-slope, so the shadow falls towards the ridge (-y).
        let roof = RoofBuilder::new(Meters::new(8.0), Meters::new(4.0))
            .obstacle(Obstacle::chimney(
                Meters::new(5.0),
                Meters::new(1.6),
                Meters::new(0.8),
                Meters::new(0.8),
                Meters::new(2.0),
            ))
            .build();
        let data = SolarExtractor::new(Site::turin(), small_clock())
            .seed(3)
            .extract(&roof);
        // 0.8 m ridge-ward of the chimney's north edge vs a far corner.
        let near_ridge = CellCoord::new(27, 4);
        let far_corner = CellCoord::new(2, 16);
        assert!(
            data.shadow_fraction(near_ridge) > data.shadow_fraction(far_corner),
            "near {} far {}",
            data.shadow_fraction(near_ridge),
            data.shadow_fraction(far_corner)
        );
        assert!(data.insolation(near_ridge) < data.insolation(far_corner));
    }

    #[test]
    fn night_steps_are_dark() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let data = SolarExtractor::new(Site::turin(), small_clock())
            .seed(1)
            .extract(&roof);
        // Midnight of day 0 (step 0 at 00:00).
        assert!(!data.conditions(0).sun_up);
        assert_eq!(data.irradiance(CellCoord::new(0, 0), 0).as_w_per_m2(), 0.0);
    }

    #[test]
    fn noon_is_brighter_than_morning_on_average() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let clock = SimulationClock::days_at_minutes(20, 60);
        let data = SolarExtractor::new(Site::turin(), clock)
            .seed(5)
            .extract(&roof);
        let cell = CellCoord::new(5, 5);
        let mean_at = |h: u32| {
            let vals: Vec<f64> = (0..20)
                .map(|d| data.irradiance(cell, d * 24 + h).as_w_per_m2())
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(mean_at(12) > mean_at(7));
    }

    #[test]
    fn extraction_is_thread_count_invariant() {
        let roof = RoofBuilder::new(Meters::new(8.0), Meters::new(4.0))
            .obstacle(Obstacle::chimney(
                Meters::new(5.0),
                Meters::new(1.6),
                Meters::new(0.8),
                Meters::new(0.8),
                Meters::new(2.0),
            ))
            .build();
        let base = SolarExtractor::new(Site::turin(), small_clock()).seed(9);
        let seq = base.clone().runtime(Runtime::sequential()).extract(&roof);
        for threads in [2usize, 5] {
            let par = base
                .clone()
                .runtime(Runtime::with_threads(threads))
                .extract(&roof);
            for cell in seq.dims().iter() {
                assert_eq!(
                    seq.insolation(cell).to_bits(),
                    par.insolation(cell).to_bits(),
                    "cell {cell:?} with {threads} threads"
                );
                assert_eq!(seq.shadow_fraction(cell), par.shadow_fraction(cell));
            }
        }
    }

    #[test]
    fn seed_changes_dataset() {
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let a = SolarExtractor::new(Site::turin(), small_clock())
            .seed(1)
            .extract(&roof);
        let b = SolarExtractor::new(Site::turin(), small_clock())
            .seed(2)
            .extract(&roof);
        let cell = CellCoord::new(3, 3);
        assert_ne!(a.insolation(cell), b.insolation(cell));
    }

    #[test]
    fn south_facing_tilt_collects_more_than_north_facing() {
        let south = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0))
            .azimuth(Degrees::new(180.0))
            .build();
        let north = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0))
            .azimuth(Degrees::new(0.0))
            .build();
        let clock = SimulationClock::days_at_minutes(10, 60);
        let cell = CellCoord::new(5, 5);
        let s = SolarExtractor::new(Site::turin(), clock)
            .seed(4)
            .extract(&south);
        let n = SolarExtractor::new(Site::turin(), clock)
            .seed(4)
            .extract(&north);
        assert!(s.insolation(cell) > n.insolation(cell) * 1.2);
    }
}
