//! Decomposition of global horizontal irradiance into beam and diffuse.
//!
//! When a weather station only reports global horizontal irradiance, the
//! paper's flow "derives incident radiation through state-of-the-art
//! decomposition models" (its ref \[18\]). We implement the Erbs correlation:
//! the diffuse fraction as a piecewise function of the clearness index
//! `kt`, which captures the first-order physics (clear skies → mostly beam,
//! overcast skies → all diffuse) and is the standard baseline the
//! minute-resolution models are compared against.

use pv_units::{Degrees, Irradiance};

/// Result of splitting global horizontal irradiance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BeamDiffuseSplit {
    /// Beam (direct) normal irradiance.
    pub beam_normal: Irradiance,
    /// Diffuse irradiance on the horizontal plane.
    pub diffuse_horizontal: Irradiance,
}

/// Erbs diffuse fraction `DHI / GHI` as a function of the clearness index.
///
/// ```
/// use pv_gis::decomposition::erbs_diffuse_fraction;
/// assert!(erbs_diffuse_fraction(0.1) > 0.95);  // overcast: all diffuse
/// assert!(erbs_diffuse_fraction(0.75) < 0.30); // clear: mostly beam
/// ```
#[must_use]
pub fn erbs_diffuse_fraction(kt: f64) -> f64 {
    let kt = kt.clamp(0.0, 1.0);
    if kt <= 0.22 {
        1.0 - 0.09 * kt
    } else if kt <= 0.80 {
        0.9511 - 0.1604 * kt + 4.388 * kt.powi(2) - 16.638 * kt.powi(3) + 12.336 * kt.powi(4)
    } else {
        0.165
    }
}

/// Splits global horizontal irradiance into beam-normal and
/// diffuse-horizontal components using the Erbs correlation.
///
/// `beam_normal_cap` bounds the recovered DNI (typically the clear-sky DNI)
/// to avoid the well-known low-sun blow-up of `(GHI − DHI)/sin(e)`; the
/// excess is reassigned to diffuse so the horizontal closure
/// `GHI = DNI·sin(e) + DHI` still holds.
///
/// ```
/// use pv_gis::decomposition::decompose_ghi;
/// use pv_units::{Degrees, Irradiance};
/// let split = decompose_ghi(
///     Irradiance::from_w_per_m2(600.0),
///     0.65,
///     Degrees::new(40.0),
///     Irradiance::from_w_per_m2(900.0),
/// );
/// let closure = split.beam_normal.as_w_per_m2() * Degrees::new(40.0).sin()
///     + split.diffuse_horizontal.as_w_per_m2();
/// assert!((closure - 600.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn decompose_ghi(
    ghi: Irradiance,
    kt: f64,
    elevation: Degrees,
    beam_normal_cap: Irradiance,
) -> BeamDiffuseSplit {
    let sin_e = elevation.sin();
    if sin_e <= 0.0 || ghi.as_w_per_m2() <= 0.0 {
        return BeamDiffuseSplit {
            beam_normal: Irradiance::ZERO,
            diffuse_horizontal: Irradiance::ZERO,
        };
    }
    let fd = erbs_diffuse_fraction(kt);
    let mut dhi = ghi * fd;
    let mut dni = (ghi - dhi) * (1.0 / sin_e);
    if dni.as_w_per_m2() > beam_normal_cap.as_w_per_m2() {
        dni = beam_normal_cap;
        dhi = ghi - dni * sin_e;
    }
    BeamDiffuseSplit {
        beam_normal: dni.max(Irradiance::ZERO),
        diffuse_horizontal: dhi.max(Irradiance::ZERO),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diffuse_fraction_is_monotone_decreasing_through_midrange() {
        // The Erbs quartic has a small uptick just below kt = 0.8; monotone
        // decrease holds through the physically dominant 0.22..0.72 band.
        let mut prev = erbs_diffuse_fraction(0.22);
        for i in 1..=50 {
            let kt = 0.22 + 0.01 * f64::from(i);
            let fd = erbs_diffuse_fraction(kt);
            assert!(fd <= prev + 1e-9, "fd not decreasing at kt={kt}");
            prev = fd;
        }
    }

    #[test]
    fn diffuse_fraction_bounds() {
        for i in 0..=100 {
            let fd = erbs_diffuse_fraction(f64::from(i) / 100.0);
            assert!((0.0..=1.0).contains(&fd));
        }
    }

    #[test]
    fn horizontal_closure_holds() {
        for &(ghi, kt, e) in &[(700.0, 0.7, 55.0), (150.0, 0.25, 20.0), (50.0, 0.1, 8.0)] {
            let elev = Degrees::new(e);
            let split = decompose_ghi(
                Irradiance::from_w_per_m2(ghi),
                kt,
                elev,
                Irradiance::from_w_per_m2(1000.0),
            );
            let closure = split.beam_normal.as_w_per_m2() * elev.sin()
                + split.diffuse_horizontal.as_w_per_m2();
            assert!((closure - ghi).abs() < 1e-9, "closure {closure} vs {ghi}");
        }
    }

    #[test]
    fn cap_prevents_low_sun_blowup() {
        // Strong GHI at very low sun would give absurd DNI without the cap.
        let split = decompose_ghi(
            Irradiance::from_w_per_m2(300.0),
            0.9,
            Degrees::new(3.0),
            Irradiance::from_w_per_m2(800.0),
        );
        assert!(split.beam_normal.as_w_per_m2() <= 800.0);
        assert!(split.diffuse_horizontal.as_w_per_m2() >= 0.0);
    }

    #[test]
    fn below_horizon_is_dark() {
        let split = decompose_ghi(
            Irradiance::from_w_per_m2(100.0),
            0.5,
            Degrees::new(-2.0),
            Irradiance::from_w_per_m2(900.0),
        );
        assert_eq!(split.beam_normal, Irradiance::ZERO);
        assert_eq!(split.diffuse_horizontal, Irradiance::ZERO);
    }

    #[test]
    fn overcast_sky_is_all_diffuse() {
        let split = decompose_ghi(
            Irradiance::from_w_per_m2(120.0),
            0.15,
            Degrees::new(35.0),
            Irradiance::from_w_per_m2(900.0),
        );
        let fd = split.diffuse_horizontal.as_w_per_m2() / 120.0;
        assert!(fd > 0.95, "fd {fd}");
    }
}
