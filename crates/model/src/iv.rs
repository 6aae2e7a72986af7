//! Physical single-diode I-V model (paper Fig. 2-(a)).
//!
//! The empirical model of [`EmpiricalModule`](crate::EmpiricalModule) is
//! what the paper's evaluation uses; this module provides the underlying
//! physics — a five-parameter single-diode model — to regenerate the I-V
//! characteristic curves of Fig. 2-(a) and to serve as an alternative,
//! finer-grained [`ModuleModel`] for validation.

use crate::module::{ModuleModel, OperatingPoint};
use pv_units::{Amperes, Celsius, Irradiance, Volts, Watts};

/// Boltzmann constant over elementary charge, V/K.
const K_OVER_Q: f64 = 8.617_333_262e-5;

/// A sampled point of an I-V characteristic.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct IvPoint {
    /// Terminal voltage.
    pub voltage: Volts,
    /// Terminal current.
    pub current: Amperes,
}

impl IvPoint {
    /// Power at this point.
    #[inline]
    #[must_use]
    pub fn power(&self) -> Watts {
        self.voltage * self.current
    }
}

/// A sampled I-V characteristic at fixed `(G, T)`.
#[derive(Clone, Debug, PartialEq)]
pub struct IvCurve {
    points: Vec<IvPoint>,
}

impl IvCurve {
    /// The sampled points, in increasing voltage order.
    #[must_use]
    pub fn points(&self) -> &[IvPoint] {
        &self.points
    }

    /// Short-circuit current (first point).
    #[must_use]
    pub fn isc(&self) -> Amperes {
        self.points.first().map_or(Amperes::ZERO, |p| p.current)
    }

    /// Open-circuit voltage (last point).
    #[must_use]
    pub fn voc(&self) -> Volts {
        self.points.last().map_or(Volts::ZERO, |p| p.voltage)
    }

    /// The maximum-power point of the sampled curve.
    #[must_use]
    pub fn mpp(&self) -> IvPoint {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| {
                a.power()
                    .as_watts()
                    .partial_cmp(&b.power().as_watts())
                    .expect("finite powers")
            })
            .unwrap_or_default()
    }

    /// Current at an arbitrary voltage, linearly interpolated;
    /// zero beyond Voc.
    #[must_use]
    pub fn current_at(&self, voltage: Volts) -> Amperes {
        let v = voltage.value();
        if self.points.is_empty() || v < 0.0 {
            return Amperes::ZERO;
        }
        for w in self.points.windows(2) {
            let (a, b) = (w[0], w[1]);
            if v >= a.voltage.value() && v <= b.voltage.value() {
                let span = b.voltage.value() - a.voltage.value();
                let t = if span <= 0.0 {
                    0.0
                } else {
                    (v - a.voltage.value()) / span
                };
                return Amperes::new(
                    a.current.value() + t * (b.current.value() - a.current.value()),
                );
            }
        }
        Amperes::ZERO
    }
}

/// Five-parameter single-diode module model.
///
/// `I = Iph − I0·(exp((V + I·Rs)/(n·Ns·Vt)) − 1) − (V + I·Rs)/Rsh`, with
/// photo-current proportional to irradiance and diode saturation current
/// calibrated so that Voc/Isc track the datasheet's temperature
/// coefficients.
///
/// ```
/// use pv_model::SingleDiodeModule;
/// use pv_units::{Celsius, Irradiance};
/// // thermal_k(0) pins the cell at the ambient 25 °C (true STC).
/// let m = SingleDiodeModule::pv_mf165eb3().thermal_k(0.0);
/// let curve = m.iv_curve(Irradiance::STC, Celsius::new(25.0), 200);
/// // Datasheet: 165 W, Voc 30.4 V, Isc 7.36 A at STC.
/// assert!((curve.mpp().power().as_watts() - 165.0).abs() < 8.0);
/// assert!((curve.voc().value() - 30.4).abs() < 0.5);
/// assert!((curve.isc().value() - 7.36).abs() < 0.1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SingleDiodeModule {
    /// Cells in series.
    ns: f64,
    /// Diode ideality factor.
    ideality: f64,
    /// Series resistance, Ω.
    rs: f64,
    /// Shunt resistance, Ω.
    rsh: f64,
    /// Reference short-circuit current at STC, A.
    isc_ref: f64,
    /// Reference open-circuit voltage at STC, V.
    voc_ref: f64,
    /// Isc temperature coefficient, 1/°C.
    alpha_i: f64,
    /// Voc temperature coefficient, 1/°C (negative).
    beta_v: f64,
    /// Roof-heating coefficient, K·m²/W.
    thermal_k: f64,
}

impl SingleDiodeModule {
    /// Parameters fitted to the PV-MF165EB3 datasheet (48 series cells,
    /// Isc 7.36 A, Voc 30.4 V, 165 W at STC).
    #[must_use]
    pub fn pv_mf165eb3() -> Self {
        Self {
            ns: 48.0,
            ideality: 1.30,
            rs: 0.25,
            rsh: 220.0,
            isc_ref: 7.36,
            voc_ref: 30.4,
            alpha_i: 0.00057,
            beta_v: -0.0034,
            thermal_k: 0.035,
        }
    }

    /// Overrides the roof-heating coefficient `k` (K·m²/W).
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative.
    #[must_use]
    pub fn thermal_k(mut self, k: f64) -> Self {
        assert!(k >= 0.0, "thermal coefficient must be non-negative");
        self.thermal_k = k;
        self
    }

    /// Cell temperature including roof heating.
    #[must_use]
    pub fn cell_temperature(&self, irradiance: Irradiance, ambient: Celsius) -> Celsius {
        Celsius::new(ambient.as_celsius() + self.thermal_k * irradiance.as_w_per_m2())
    }

    /// Thermal voltage of the whole series stack, V.
    fn stack_vt(&self, cell_temp: Celsius) -> f64 {
        self.ideality * self.ns * K_OVER_Q * cell_temp.as_kelvin()
    }

    /// Condition-adjusted `(Iph, I0, Voc)` for given `(G, T)`.
    fn parameters(&self, irradiance: Irradiance, ambient: Celsius) -> (f64, f64, f64) {
        let tc = self.cell_temperature(irradiance, ambient);
        let g = irradiance.stc_fraction();
        let isc = self.isc_ref * g * (1.0 + self.alpha_i * (tc.as_celsius() - 25.0));
        // Voc shifts with temperature and logarithmically with irradiance.
        let voc = if g > 0.0 {
            let vt = self.stack_vt(tc);
            (self.voc_ref * (1.0 + self.beta_v * (tc.as_celsius() - 25.0)) + vt * g.ln()).max(0.0)
        } else {
            0.0
        };
        if isc <= 0.0 || voc <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let vt = self.stack_vt(tc);
        let iph = isc * (1.0 + self.rs / self.rsh);
        let i0 = (iph - voc / self.rsh) / ((voc / vt).exp_m1()).max(1e-30);
        (iph, i0.max(1e-30), voc)
    }

    /// Terminal current at a given voltage, solved by Newton iteration.
    #[must_use]
    pub fn current_at(&self, voltage: Volts, irradiance: Irradiance, ambient: Celsius) -> Amperes {
        let (iph, i0, voc) = self.parameters(irradiance, ambient);
        if iph <= 0.0 {
            return Amperes::ZERO;
        }
        let v = voltage.value();
        if v >= voc {
            return Amperes::ZERO;
        }
        let vt = self.stack_vt(self.cell_temperature(irradiance, ambient));
        // Newton on f(I) = Iph - I0*(exp((V+I*Rs)/vt)-1) - (V+I*Rs)/Rsh - I.
        let mut i = (iph * (1.0 - v / voc)).max(0.0);
        for _ in 0..60 {
            let x = (v + i * self.rs) / vt;
            let e = x.min(300.0).exp();
            let f = iph - i0 * (e - 1.0) - (v + i * self.rs) / self.rsh - i;
            let df = -i0 * e * self.rs / vt - self.rs / self.rsh - 1.0;
            let step = f / df;
            i -= step;
            if step.abs() < 1e-12 {
                break;
            }
        }
        Amperes::new(i.max(0.0))
    }

    /// Samples the full I-V curve from short circuit to open circuit.
    ///
    /// # Panics
    ///
    /// Panics if `samples < 2`.
    #[must_use]
    pub fn iv_curve(&self, irradiance: Irradiance, ambient: Celsius, samples: usize) -> IvCurve {
        assert!(samples >= 2, "need at least two samples");
        let (_, _, voc) = self.parameters(irradiance, ambient);
        let points = (0..samples)
            .map(|k| {
                let v = voc * k as f64 / (samples - 1) as f64;
                IvPoint {
                    voltage: Volts::new(v),
                    current: self.current_at(Volts::new(v), irradiance, ambient),
                }
            })
            .collect();
        IvCurve { points }
    }

    /// Locates the maximum-power point by golden-section search on `V`.
    #[must_use]
    pub fn mpp(&self, irradiance: Irradiance, ambient: Celsius) -> OperatingPoint {
        let (_, _, voc) = self.parameters(irradiance, ambient);
        if voc <= 0.0 {
            return OperatingPoint::default();
        }
        let power = |v: f64| v * self.current_at(Volts::new(v), irradiance, ambient).value();
        let phi = (5f64.sqrt() - 1.0) / 2.0;
        let (mut lo, mut hi) = (0.0, voc);
        let (mut c, mut d) = (hi - phi * (hi - lo), lo + phi * (hi - lo));
        let (mut pc, mut pd) = (power(c), power(d));
        for _ in 0..80 {
            if pc >= pd {
                hi = d;
                d = c;
                pd = pc;
                c = hi - phi * (hi - lo);
                pc = power(c);
            } else {
                lo = c;
                c = d;
                pc = pd;
                d = lo + phi * (hi - lo);
                pd = power(d);
            }
        }
        let v = (lo + hi) / 2.0;
        OperatingPoint {
            voltage: Volts::new(v),
            current: self.current_at(Volts::new(v), irradiance, ambient),
        }
    }
}

impl ModuleModel for SingleDiodeModule {
    fn voltage(&self, irradiance: Irradiance, ambient: Celsius) -> Volts {
        self.mpp(irradiance, ambient).voltage
    }

    fn current(&self, irradiance: Irradiance, ambient: Celsius) -> Amperes {
        self.mpp(irradiance, ambient).current
    }
}

/// Scalar reference for the per-step operating-point sweep: one
/// [`ModuleModel::operating_point`] call per step, raw `f64` lanes in
/// and out (`means` in W/m², `ambient` in °C).
///
/// The evaluator's hot path uses the fused SoA kernel in
/// `pv_gis::lanes::operating_points` instead; that kernel must be — and
/// is proptested to be — bit-identical to this sweep for the
/// [`EmpiricalModule`](crate::EmpiricalModule). This function is the
/// oracle, kept branchy and step-at-a-time on purpose.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn operating_point_sweep<M: ModuleModel>(
    module: &M,
    means: &[f64],
    ambient: &[f64],
    volts: &mut [f64],
    amps: &mut [f64],
) {
    let n = means.len();
    assert!(
        ambient.len() == n && volts.len() == n && amps.len() == n,
        "operating-point sweep: length mismatch"
    );
    for (((&g, &t), v), a) in means
        .iter()
        .zip(ambient)
        .zip(volts.iter_mut())
        .zip(amps.iter_mut())
    {
        let op = module.operating_point(Irradiance::from_w_per_m2(g), Celsius::new(t));
        *v = op.voltage.value();
        *a = op.current.value();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stc_ambient(m: &SingleDiodeModule) -> Celsius {
        Celsius::new(25.0 - m.thermal_k * 1000.0)
    }

    #[test]
    fn stc_point_matches_datasheet() {
        let m = SingleDiodeModule::pv_mf165eb3();
        let amb = stc_ambient(&m);
        let curve = m.iv_curve(Irradiance::STC, amb, 400);
        assert!(
            (curve.isc().value() - 7.36).abs() < 0.05,
            "Isc {}",
            curve.isc()
        );
        assert!(
            (curve.voc().value() - 30.4).abs() < 0.2,
            "Voc {}",
            curve.voc()
        );
        let mpp = curve.mpp();
        assert!(
            (mpp.power().as_watts() - 165.0).abs() < 8.0,
            "Pmax {}",
            mpp.power()
        );
    }

    #[test]
    fn isc_scales_with_irradiance_voc_logarithmically() {
        // Paper Fig. 2-(a): "When G increases, Voc increases
        // logarithmically and Isc increases proportionally."
        let m = SingleDiodeModule::pv_mf165eb3().thermal_k(0.0);
        let t = Celsius::new(25.0);
        let full = m.iv_curve(Irradiance::STC, t, 200);
        let half = m.iv_curve(Irradiance::from_w_per_m2(500.0), t, 200);
        let isc_ratio = half.isc().value() / full.isc().value();
        assert!((isc_ratio - 0.5).abs() < 0.02, "Isc ratio {isc_ratio}");
        let voc_drop = full.voc().value() - half.voc().value();
        assert!(voc_drop > 0.3 && voc_drop < 3.0, "Voc drop {voc_drop}");
    }

    #[test]
    fn temperature_lowers_voc_slightly_raises_isc() {
        // Paper Fig. 2-(a), solid line behaviour.
        let m = SingleDiodeModule::pv_mf165eb3().thermal_k(0.0);
        let cold = m.iv_curve(Irradiance::STC, Celsius::new(10.0), 200);
        let hot = m.iv_curve(Irradiance::STC, Celsius::new(60.0), 200);
        assert!(hot.voc().value() < cold.voc().value());
        assert!(hot.isc().value() >= cold.isc().value());
    }

    #[test]
    fn current_is_monotone_decreasing_in_voltage() {
        let m = SingleDiodeModule::pv_mf165eb3();
        let curve = m.iv_curve(Irradiance::from_w_per_m2(700.0), Celsius::new(15.0), 100);
        for w in curve.points().windows(2) {
            assert!(w[1].current.value() <= w[0].current.value() + 1e-9);
        }
    }

    #[test]
    fn mpp_agrees_with_sampled_curve() {
        let m = SingleDiodeModule::pv_mf165eb3();
        let g = Irradiance::from_w_per_m2(600.0);
        let t = Celsius::new(20.0);
        let analytic = m.mpp(g, t);
        let sampled = m.iv_curve(g, t, 2000).mpp();
        assert!(
            (analytic.power().as_watts() - sampled.power().as_watts()).abs() < 0.5,
            "analytic {} sampled {}",
            analytic.power(),
            sampled.power()
        );
    }

    #[test]
    fn dark_module_produces_nothing() {
        let m = SingleDiodeModule::pv_mf165eb3();
        let mpp = m.mpp(Irradiance::ZERO, Celsius::new(20.0));
        assert_eq!(mpp.power(), Watts::ZERO);
    }

    #[test]
    fn curve_interpolation_brackets() {
        let m = SingleDiodeModule::pv_mf165eb3();
        let curve = m.iv_curve(Irradiance::STC, Celsius::new(25.0), 50);
        let isc = curve.isc();
        assert!((curve.current_at(Volts::ZERO).value() - isc.value()).abs() < 1e-9);
        assert_eq!(curve.current_at(Volts::new(100.0)), Amperes::ZERO);
        assert_eq!(curve.current_at(Volts::new(-1.0)), Amperes::ZERO);
    }

    #[test]
    fn empirical_and_physical_models_roughly_agree() {
        // The two models should land within ~12% of each other across the
        // operating envelope — they were fitted to the same datasheet.
        use crate::module::EmpiricalModule;
        let phys = SingleDiodeModule::pv_mf165eb3();
        let emp = EmpiricalModule::pv_mf165eb3();
        for &g in &[300.0, 600.0, 900.0] {
            for &t in &[5.0, 20.0, 30.0] {
                let g = Irradiance::from_w_per_m2(g);
                let t = Celsius::new(t);
                let pp = phys.mpp(g, t).power().as_watts();
                let pe = emp.power(g, t).as_watts();
                let rel = (pp - pe).abs() / pe.max(1.0);
                assert!(rel < 0.12, "G={g:?} T={t:?}: phys {pp} emp {pe}");
            }
        }
    }
}
