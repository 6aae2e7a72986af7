//! Wiring-overhead characterization (paper Fig. 4 and Sec. V-C).
//!
//! A sparse placement needs extra cable between consecutive series-connected
//! modules. For modules `i` and `i+1` displaced by `(d_h, d_v)` the extra
//! length is `d_h + d_v − L` (Manhattan routing minus the default connector
//! length `L`); parallel strings are combined in a combiner box and add no
//! overhead. Knowing the cable's unit resistance and the string current, the
//! power drop is `R·I²`.

use pv_geom::{manhattan, Point};
use pv_units::{Amperes, Meters, OhmsPerMeter, Watts};

/// Cable/installation parameters for overhead assessment.
///
/// Defaults to the paper's Sec. V-C assumptions: AWG 10 cable at ≈7 mΩ/m,
/// 1 $/m, and a default inter-module connector of 1.6 m — the pitch of two
/// abutting landscape modules, so that a traditional compact row has zero
/// overhead exactly as in the paper's Fig. 4-(a).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WiringSpec {
    resistance: OhmsPerMeter,
    connector_length: Meters,
    cost_per_meter: f64,
}

impl WiringSpec {
    /// The paper's AWG 10 assumptions.
    #[must_use]
    pub fn awg10() -> Self {
        Self {
            resistance: OhmsPerMeter::new(0.007),
            connector_length: Meters::new(1.6),
            cost_per_meter: 1.0,
        }
    }

    /// Creates a custom wiring spec.
    ///
    /// # Panics
    ///
    /// Panics if resistance or connector length is negative.
    #[must_use]
    pub fn new(resistance: OhmsPerMeter, connector_length: Meters, cost_per_meter: f64) -> Self {
        assert!(resistance.value() >= 0.0, "resistance must be non-negative");
        assert!(
            connector_length.value() >= 0.0,
            "connector length must be non-negative"
        );
        assert!(cost_per_meter >= 0.0, "cost must be non-negative");
        Self {
            resistance,
            connector_length,
            cost_per_meter,
        }
    }

    /// Cable resistance per metre.
    #[inline]
    #[must_use]
    pub const fn resistance(&self) -> OhmsPerMeter {
        self.resistance
    }

    /// Length of the default module-to-module connector (`L` in Fig. 4).
    #[inline]
    #[must_use]
    pub const fn connector_length(&self) -> Meters {
        self.connector_length
    }

    /// Cable cost per metre, $.
    #[inline]
    #[must_use]
    pub const fn cost_per_meter(&self) -> f64 {
        self.cost_per_meter
    }

    /// Instantaneous dissipation of `extra_length` of cable carrying
    /// `current`: `R·I²`.
    #[must_use]
    pub fn power_loss(&self, extra_length: Meters, current: Amperes) -> Watts {
        current.dissipation(self.resistance * extra_length)
    }

    /// Cable cost of `extra_length`, $.
    #[must_use]
    pub fn cost(&self, extra_length: Meters) -> f64 {
        self.cost_per_meter * extra_length.value()
    }
}

impl Default for WiringSpec {
    /// Defaults to [`WiringSpec::awg10`].
    fn default() -> Self {
        Self::awg10()
    }
}

/// Extra wiring of one series string.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct WiringOverhead {
    /// Total extra cable length beyond the default connectors.
    pub extra_length: Meters,
}

/// Computes the extra wiring of a series string whose module centres are
/// visited in connection order (paper: `Lovh = Σ (d_v + d_h)` minus the
/// default connector per hop, floored at zero per hop).
///
/// ```
/// use pv_model::{string_wiring_overhead, WiringSpec};
/// use pv_geom::Point;
/// let centers = [Point::new(0.0, 0.0), Point::new(2.0, 1.0), Point::new(2.0, 2.0)];
/// let ovh = string_wiring_overhead(&centers, &WiringSpec::awg10());
/// // Hops: 3.0 m and 1.0 m Manhattan, minus the 1.6 m default connector
/// // each (floored at zero): 1.4 m + 0 m.
/// assert!((ovh.extra_length.as_meters() - 1.4).abs() < 1e-12);
/// ```
#[must_use]
pub fn string_wiring_overhead(centers: &[Point], spec: &WiringSpec) -> WiringOverhead {
    let mut extra = 0.0;
    for pair in centers.windows(2) {
        let hop = manhattan(pair[0], pair[1]).as_meters() - spec.connector_length().as_meters();
        extra += hop.max(0.0);
    }
    WiringOverhead {
        extra_length: Meters::new(extra),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_string_has_no_overhead() {
        // Landscape modules abutting horizontally sit at 1.6 m centres —
        // exactly the default connector length, so a compact row has zero
        // overhead (the paper's Fig. 4-(a)).
        let centers: Vec<Point> = (0..8).map(|i| Point::new(1.6 * i as f64, 0.0)).collect();
        let ovh = string_wiring_overhead(&centers, &WiringSpec::awg10());
        assert!(ovh.extra_length.as_meters() < 1e-12);
    }

    #[test]
    fn paper_loss_figures() {
        // Sec. V-C: 4 A through AWG10 ~ 0.11 W per metre of extra cable.
        let spec = WiringSpec::awg10();
        let loss = spec.power_loss(Meters::new(1.0), Amperes::new(4.0));
        assert!((loss.as_watts() - 0.112).abs() < 0.01, "{loss}");
        // 20 m worst case at 1 $/m.
        assert_eq!(spec.cost(Meters::new(20.0)), 20.0);
    }

    #[test]
    fn overhead_is_order_dependent() {
        let spec = WiringSpec::new(OhmsPerMeter::new(0.007), Meters::ZERO, 1.0);
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let c = Point::new(1.0, 0.0);
        let good = string_wiring_overhead(&[a, c, b], &spec);
        let bad = string_wiring_overhead(&[a, b, c], &spec);
        assert!(bad.extra_length.as_meters() > good.extra_length.as_meters());
    }

    #[test]
    fn single_module_string_has_no_overhead() {
        let ovh = string_wiring_overhead(&[Point::new(3.0, 3.0)], &WiringSpec::awg10());
        assert_eq!(ovh.extra_length, Meters::ZERO);
    }

    #[test]
    fn hops_shorter_than_connector_do_not_go_negative() {
        let spec = WiringSpec::awg10(); // 1.6 m connector
        let centers = [
            Point::new(0.0, 0.0),
            Point::new(0.1, 0.0),
            Point::new(5.0, 0.0),
        ];
        let ovh = string_wiring_overhead(&centers, &spec);
        // First hop clamps to 0, second is 4.9 - 1.6 = 3.3.
        assert!((ovh.extra_length.as_meters() - 3.3).abs() < 1e-12);
    }

    #[test]
    fn yearly_energy_loss_scale_matches_paper() {
        // Paper: "~0.5 kWh/m of energy in one year (assuming 50% of the
        // time at zero current)". 0.112 W * 8760 h * 0.5 = 0.49 kWh.
        let spec = WiringSpec::awg10();
        let p = spec.power_loss(Meters::new(1.0), Amperes::new(4.0));
        let yearly_kwh = p.as_watts() * 8760.0 * 0.5 / 1000.0;
        assert!((yearly_kwh - 0.49).abs() < 0.05, "{yearly_kwh}");
    }
}
