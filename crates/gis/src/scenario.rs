//! The paper's three experimental roofs, reconstructed synthetically.
//!
//! The originals are LiDAR DSMs of industrial buildings near Turin
//! (lean-to roofs of ≈49 × 12 m, facing S/S-W, 26° tilt). We rebuild them
//! parametrically with the *published* grid dimensions of Table I and
//! obstacle layouts tuned so the valid-cell counts `Ng` match the published
//! ones: pipe runs dominating Roof 1 ("pipes occupy a large space"),
//! dormers/chimneys on Roofs 2–3, and off-roof blockers producing the
//! lower-irradiance right-hand band visible in Fig. 6-(b).

use crate::dsm::{Dsm, RoofBuilder};
use crate::obstacle::Obstacle;
use pv_geom::GridDims;
use pv_units::{Degrees, Meters, WattHours};

/// Identifier of one of the paper's three experimental roofs.
///
/// ```
/// use pv_gis::{PaperRoof, RoofScenario};
/// // Table I's published figures are queryable per roof and module count…
/// let gain = PaperRoof::Roof2.published_gain_percent(32).unwrap();
/// assert!((gain - 23.63).abs() < 1e-9);
/// // …and the synthetic reconstruction matches the published grid.
/// let scenario = RoofScenario::build(PaperRoof::Roof2);
/// assert_eq!(scenario.dsm.dims(), PaperRoof::Roof2.published_dims());
/// assert!(scenario.ng_deviation() < 0.03);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PaperRoof {
    /// Roof 1: 287×51 cells, Ng = 9,416 — heavily encumbered by pipes.
    Roof1,
    /// Roof 2: 298×51 cells, Ng = 11,892.
    Roof2,
    /// Roof 3: 298×52 cells, Ng = 11,672.
    Roof3,
}

impl PaperRoof {
    /// All three roofs in Table I order.
    #[must_use]
    pub const fn all() -> [Self; 3] {
        [Self::Roof1, Self::Roof2, Self::Roof3]
    }

    /// 1-based roof number as printed in the paper.
    #[must_use]
    pub const fn number(self) -> usize {
        match self {
            Self::Roof1 => 1,
            Self::Roof2 => 2,
            Self::Roof3 => 3,
        }
    }

    /// Published grid dimensions (Table I "WxL").
    #[must_use]
    pub fn published_dims(self) -> GridDims {
        match self {
            Self::Roof1 => GridDims::new(287, 51),
            Self::Roof2 => GridDims::new(298, 51),
            Self::Roof3 => GridDims::new(298, 52),
        }
    }

    /// Published number of valid grid elements (Table I "Ng").
    #[must_use]
    pub const fn published_ng(self) -> usize {
        match self {
            Self::Roof1 => 9_416,
            Self::Roof2 => 11_892,
            Self::Roof3 => 11_672,
        }
    }

    /// Published yearly production of the *traditional* placement for
    /// `n` modules (Table I), if tabulated.
    #[must_use]
    pub fn published_traditional(self, n: usize) -> Option<WattHours> {
        let mwh = match (self, n) {
            (Self::Roof1, 16) => 3.430,
            (Self::Roof1, 32) => 6.729,
            (Self::Roof2, 16) => 2.971,
            (Self::Roof2, 32) => 5.941,
            (Self::Roof3, 16) => 2.957,
            (Self::Roof3, 32) => 5.746,
            _ => return None,
        };
        Some(WattHours::from_mwh(mwh))
    }

    /// Published yearly production of the *proposed* placement for `n`
    /// modules (Table I), if tabulated.
    #[must_use]
    pub fn published_proposed(self, n: usize) -> Option<WattHours> {
        let mwh = match (self, n) {
            (Self::Roof1, 16) => 4.094,
            (Self::Roof1, 32) => 7.499,
            (Self::Roof2, 16) => 3.619,
            (Self::Roof2, 32) => 7.404,
            (Self::Roof3, 16) => 3.642,
            (Self::Roof3, 32) => 7.405,
            _ => return None,
        };
        Some(WattHours::from_mwh(mwh))
    }

    /// Published improvement percentage (Table I "%"), if tabulated.
    #[must_use]
    pub fn published_gain_percent(self, n: usize) -> Option<f64> {
        Some(match (self, n) {
            (Self::Roof1, 16) => 19.37,
            (Self::Roof1, 32) => 11.44,
            (Self::Roof2, 16) => 21.85,
            (Self::Roof2, 32) => 23.63,
            (Self::Roof3, 16) => 23.16,
            (Self::Roof3, 32) => 28.86,
            _ => return None,
        })
    }
}

impl core::fmt::Display for PaperRoof {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Roof {}", self.number())
    }
}

/// A reconstructed experimental roof: identity plus synthetic DSM.
#[derive(Clone, Debug)]
pub struct RoofScenario {
    /// Which of the paper's roofs this reconstructs.
    pub roof: PaperRoof,
    /// The synthetic DSM (heights, valid mask, geometry).
    pub dsm: Dsm,
}

impl RoofScenario {
    /// Builds the synthetic reconstruction of `roof`.
    #[must_use]
    pub fn build(roof: PaperRoof) -> Self {
        let dsm = match roof {
            PaperRoof::Roof1 => roof1(),
            PaperRoof::Roof2 => roof2(),
            PaperRoof::Roof3 => roof3(),
        };
        Self { roof, dsm }
    }

    /// The roof's display name ("Roof 1" …).
    #[must_use]
    pub fn name(&self) -> String {
        self.roof.to_string()
    }

    /// Relative deviation of this reconstruction's `Ng` from the published
    /// value (0.0 = exact).
    #[must_use]
    pub fn ng_deviation(&self) -> f64 {
        let ours = self.dsm.valid().count() as f64;
        let published = self.roof.published_ng() as f64;
        (ours - published).abs() / published
    }
}

/// Builds all three roofs in Table I order.
#[must_use]
pub fn paper_roofs() -> Vec<RoofScenario> {
    PaperRoof::all().map(RoofScenario::build).to_vec()
}

fn m(v: f64) -> Meters {
    Meters::new(v)
}

/// Up-slope drain/conduit runs crossing the bright mid-band: narrow
/// (0.4 m) pipes with a 30 cm working clearance that fragment the band
/// into rooms narrower than an 8-module row. This is the "pipes occupy a
/// large space" fragmentation of the paper's roofs: the bright area is
/// plentiful but no conventional block fits it, while individual modules
/// slot into the rooms — the exact asymmetry the greedy exploits.
fn band_conduits(mut builder: RoofBuilder, xs: &[f64], y0: f64, y1: f64) -> RoofBuilder {
    for &x in xs {
        builder = builder.obstacle(Obstacle::new(
            crate::ObstacleKind::PipeRun,
            m(x),
            m(y0),
            m(0.4),
            m(y1 - y0),
            m(0.35),
            m(0.3),
        ));
    }
    builder
}

/// The building wall the lean-to roof leans against, rising above the
/// ridge (north) edge. It casts few beam shadows (the sun rarely comes
/// from the north) but towers over the ridge strip and slashes its
/// sky-view factor — the diffuse share of ridge-side cells drops by
/// 10-25%, which is why the paper's best areas sit mid-roof.
fn ridge_wall(builder: RoofBuilder, width_m: f64, height_m: f64) -> RoofBuilder {
    builder.obstacle(Obstacle::off_roof_block(
        m(0.0),
        m(0.0),
        m(width_m),
        m(0.2),
        m(height_m),
    ))
}

/// An adjacent structure rising beside the eave (south) edge: a wall whose
/// height varies along x in segments. The paper's DSMs cover "the earth's
/// surface and all objects and buildings on it"; for these industrial
/// roofs the neighbouring taller wings and tree rows south of the eave are
/// what produce the deep, irregular shading coastline of Fig. 6-(b) —
/// winter/shoulder-season shadows reach many metres up-slope, with a reach
/// that varies along the roof.
fn south_wall(mut builder: RoofBuilder, depth_m: f64, segments: &[(f64, f64, f64)]) -> RoofBuilder {
    for &(x0, x1, h) in segments {
        builder = builder.obstacle(Obstacle::off_roof_block(
            m(x0),
            m(depth_m - 0.2),
            m(x1 - x0),
            m(0.2),
            m(h),
        ));
    }
    builder
}

/// A row of alternating HVAC cabinets and vents at fixed `y`, spread over
/// the given x positions. Units standing on the eave side of the roof cast
/// their shadows *up-slope* (towards the ridge), carving irradiance pockets
/// into the otherwise-placeable mid-roof band — the pervasive mottling of
/// the paper's Fig. 6-(b) — without consuming the band's valid cells.
fn furniture_row(mut builder: RoofBuilder, xs: &[f64], y: f64, height_m: f64) -> RoofBuilder {
    for (k, &x) in xs.iter().enumerate() {
        // Deterministic height variation: +/-20% in a fixed pattern.
        let height = height_m * (0.8 + 0.1 * ((k * 7 + 3) % 5) as f64);
        builder = if k % 2 == 0 {
            builder.obstacle(Obstacle::hvac_unit(m(x), m(y), m(height)))
        } else {
            builder.obstacle(Obstacle::vent(m(x), m(y + 0.3), m(height * 0.85)))
        };
    }
    builder
}

/// Roof 1: 287x51 = 14,637 cells, published Ng = 9,416 (64% usable) —
/// long service-pipe runs eat the ridge and eave strips; the mid band
/// stays placeable but shadow-pocketed.
fn roof1() -> Dsm {
    let builder = ridge_wall(RoofBuilder::new(m(57.4), m(10.2)), 57.4, 4.5)
        .pitch(m(0.2))
        .tilt(Degrees::new(26.0))
        .azimuth(Degrees::new(195.0))
        // LiDAR-scale surface texture (sheet-metal undulation): Roof 1 is
        // the flattest of the three.
        .undulation(Degrees::new(4.0), m(4.0), 101)
        .twist(Degrees::new(3.0))
        // Pipe runs along the eave and ridge strips (1 m clearance).
        .obstacle(Obstacle::pipe_run(m(4.0), m(8.6), m(11.0), m(0.6), m(0.5)))
        .obstacle(Obstacle::pipe_run(m(40.0), m(8.8), m(13.0), m(0.6), m(0.5)))
        .obstacle(Obstacle::pipe_run(m(8.0), m(0.4), m(38.0), m(0.6), m(0.5)))
        // Masonry chimneys and a dormer near the ridge.
        .obstacle(Obstacle::chimney(m(30.0), m(0.6), m(0.8), m(0.8), m(1.8)))
        .obstacle(Obstacle::chimney(m(47.0), m(1.0), m(0.8), m(0.8), m(1.8)))
        .obstacle(Obstacle::dormer(m(34.0), m(0.2), m(2.0), m(1.4), m(1.2)))
        // Adjacent taller building section off the right (east) edge:
        // shades the right-hand band (Fig. 6-(b)).
        .obstacle(Obstacle::off_roof_block(
            m(56.8),
            m(0.0),
            m(0.6),
            m(10.2),
            m(2.5),
        ));
    // Eave furniture row: shadows reach 2-4 m into the mid band.
    let builder = furniture_row(builder, &[2.0, 8.0, 14.0, 36.0, 42.0, 48.0], 7.0, 2.4);
    let builder = band_conduits(builder, &[7.5, 15.5, 23.5, 31.5, 39.5, 47.5], 1.4, 6.2);
    south_wall(
        builder,
        10.2,
        &[
            (0.0, 9.0, 5.0),
            (9.0, 17.0, 6.5),
            (17.0, 32.0, 3.1),
            (32.0, 44.0, 5.5),
            (44.0, 57.4, 7.5),
        ],
    )
    .build()
}

/// Roof 2: 298x51 = 15,198 cells, published Ng = 11,892 (78% usable).
fn roof2() -> Dsm {
    let builder = ridge_wall(RoofBuilder::new(m(59.6), m(10.2)), 59.6, 5.0)
        .pitch(m(0.2))
        .tilt(Degrees::new(26.0))
        .azimuth(Degrees::new(200.0))
        .undulation(Degrees::new(6.0), m(4.0), 202)
        .twist(Degrees::new(4.0))
        // Dormers at the ridge, smaller ones near the eave.
        .obstacle(Obstacle::dormer(m(36.0), m(0.4), m(3.0), m(2.0), m(1.5)))
        .obstacle(Obstacle::dormer(m(46.0), m(0.4), m(3.0), m(2.0), m(1.5)))
        .obstacle(Obstacle::dormer(m(12.0), m(8.2), m(2.0), m(1.6), m(1.2)))
        .obstacle(Obstacle::dormer(m(48.0), m(8.2), m(2.0), m(1.6), m(1.2)))
        .obstacle(Obstacle::chimney(m(2.0), m(0.6), m(0.8), m(0.8), m(1.8)))
        .obstacle(Obstacle::chimney(m(16.0), m(8.6), m(0.8), m(0.8), m(1.8)))
        .obstacle(Obstacle::chimney(m(55.0), m(8.4), m(0.8), m(0.8), m(1.8)))
        .obstacle(Obstacle::chimney(m(52.0), m(0.8), m(0.8), m(0.8), m(1.8)))
        .obstacle(Obstacle::chimney(m(9.0), m(0.6), m(0.8), m(0.8), m(1.8)))
        .obstacle(Obstacle::pipe_run(m(28.0), m(0.2), m(3.0), m(0.5), m(0.5)))
        // Tree row off the right edge and a parapet off the left edge.
        .obstacle(Obstacle::off_roof_block(
            m(58.6),
            m(0.0),
            m(1.0),
            m(10.2),
            m(3.0),
        ))
        .obstacle(Obstacle::off_roof_block(
            m(0.0),
            m(0.0),
            m(0.8),
            m(10.2),
            m(1.5),
        ));
    let builder = furniture_row(builder, &[3.5, 12.5, 21.5, 27.0, 49.0, 55.5], 7.0, 2.6);
    let builder = band_conduits(builder, &[8.0, 16.5, 25.0, 33.5, 42.0, 50.5], 1.4, 6.2);
    south_wall(
        builder,
        10.2,
        &[
            (0.0, 7.0, 5.5),
            (7.0, 15.0, 7.0),
            (15.0, 24.0, 3.5),
            (24.0, 30.0, 6.0),
            (30.0, 44.0, 2.7),
            (44.0, 50.0, 6.5),
            (50.0, 59.6, 8.0),
        ],
    )
    .build()
}

/// Roof 3: 298x52 = 15,496 cells, published Ng = 11,672 (75% usable).
fn roof3() -> Dsm {
    let builder = ridge_wall(RoofBuilder::new(m(59.6), m(10.4)), 59.6, 5.5)
        .pitch(m(0.2))
        .tilt(Degrees::new(26.0))
        .azimuth(Degrees::new(205.0))
        .undulation(Degrees::new(6.5), m(3.5), 303)
        .twist(Degrees::new(5.0))
        .obstacle(Obstacle::pipe_run(m(10.0), m(9.0), m(6.0), m(0.5), m(0.5)))
        .obstacle(Obstacle::dormer(m(4.0), m(0.4), m(3.0), m(2.0), m(1.5)))
        .obstacle(Obstacle::dormer(m(34.0), m(0.4), m(3.0), m(2.0), m(1.5)))
        .obstacle(Obstacle::dormer(m(50.0), m(0.4), m(3.0), m(2.0), m(1.5)))
        .obstacle(Obstacle::dormer(m(46.0), m(8.4), m(2.4), m(1.8), m(1.2)))
        .obstacle(Obstacle::chimney(m(28.0), m(0.8), m(0.8), m(0.8), m(1.8)))
        .obstacle(Obstacle::chimney(m(42.0), m(8.6), m(0.8), m(0.8), m(1.8)))
        .obstacle(Obstacle::chimney(m(14.0), m(0.6), m(0.8), m(0.8), m(1.8)))
        .obstacle(Obstacle::chimney(m(57.0), m(2.0), m(0.8), m(0.8), m(1.8)))
        .obstacle(Obstacle::pipe_run(m(24.0), m(0.2), m(3.0), m(0.5), m(0.5)))
        // Tree row off the right edge.
        .obstacle(Obstacle::off_roof_block(
            m(58.4),
            m(0.0),
            m(1.2),
            m(10.4),
            m(3.0),
        ));
    let builder = furniture_row(builder, &[2.0, 9.0, 15.5, 36.0, 43.0, 50.0, 55.5], 7.2, 2.8);
    let builder = band_conduits(
        builder,
        &[7.0, 15.0, 23.0, 31.0, 39.0, 47.0, 54.0],
        1.4,
        6.4,
    );
    south_wall(
        builder,
        10.4,
        &[
            (0.0, 8.0, 7.5),
            (8.0, 17.0, 3.5),
            (17.0, 33.0, 3.2),
            (31.5, 40.0, 6.5),
            (40.0, 48.0, 7.0),
            (48.0, 59.6, 8.5),
        ],
    )
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_match_table1() {
        for scenario in paper_roofs() {
            assert_eq!(
                scenario.dsm.dims(),
                scenario.roof.published_dims(),
                "{}",
                scenario.name()
            );
        }
    }

    #[test]
    fn ng_matches_table1_within_tolerance() {
        for scenario in paper_roofs() {
            let dev = scenario.ng_deviation();
            assert!(
                dev < 0.03,
                "{}: Ng {} vs published {} ({:.1}% off)",
                scenario.name(),
                scenario.dsm.valid().count(),
                scenario.roof.published_ng(),
                dev * 100.0
            );
        }
    }

    #[test]
    fn roof1_is_most_encumbered() {
        let roofs = paper_roofs();
        let usable: Vec<f64> = roofs
            .iter()
            .map(|s| s.dsm.valid().count() as f64 / s.dsm.dims().num_cells() as f64)
            .collect();
        assert!(usable[0] < usable[1]);
        assert!(usable[0] < usable[2]);
    }

    #[test]
    fn published_table1_is_complete_for_16_and_32() {
        for roof in PaperRoof::all() {
            for n in [16, 32] {
                assert!(roof.published_traditional(n).is_some());
                assert!(roof.published_proposed(n).is_some());
                assert!(roof.published_gain_percent(n).is_some());
            }
            assert!(roof.published_traditional(8).is_none());
        }
    }

    #[test]
    fn gain_percentages_consistent_with_mwh() {
        for roof in PaperRoof::all() {
            for n in [16, 32] {
                let t = roof.published_traditional(n).unwrap();
                let p = roof.published_proposed(n).unwrap();
                let printed = roof.published_gain_percent(n).unwrap();
                // The paper's Roof 2 / N=32 row is internally inconsistent:
                // 5.941 -> 7.404 MWh is +24.6%, but the printed column says
                // +23.63%. Tolerate that one-point discrepancy.
                assert!(
                    (p.percent_gain_over(t) - printed).abs() < 1.1,
                    "{roof} N={n}"
                );
            }
        }
    }
}
