//! Series/parallel panel aggregation (paper Sec. III-B1).
//!
//! The total power of an `m × n` panel is *not* the sum of its modules'
//! powers: all strings share the panel voltage (the weakest string's sum),
//! and within a string all modules carry the string current (the weakest
//! module's current):
//!
//! ```text
//! Vpanel = min_j  Σ_i V(i,j)
//! Ipanel = Σ_j  min_i I(i,j)
//! Ppanel = Vpanel · Ipanel
//! ```
//!
//! This bottleneck effect is exactly why the paper's placement enumerates
//! modules in *series-first* order: one weak (shaded) module throttles its
//! whole string.

use crate::error::ModelError;
use crate::module::OperatingPoint;
use pv_units::{Amperes, Volts, Watts};

/// An `m × n` series/parallel panel topology: `strings` parallel strings,
/// each of `series` modules in series (the paper's `m` and `n`,
/// `N = m·n`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Topology {
    series: usize,
    strings: usize,
}

impl Topology {
    /// Creates a topology of `strings` parallel strings of `series`
    /// series-connected modules.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyTopology`] if either dimension is zero.
    pub fn new(series: usize, strings: usize) -> Result<Self, ModelError> {
        if series == 0 || strings == 0 {
            return Err(ModelError::EmptyTopology);
        }
        Ok(Self { series, strings })
    }

    /// Modules per string (the paper's `m`).
    #[inline]
    #[must_use]
    pub const fn series(self) -> usize {
        self.series
    }

    /// Number of parallel strings (the paper's `n`).
    #[inline]
    #[must_use]
    pub const fn strings(self) -> usize {
        self.strings
    }

    /// Total module count `N = m·n`.
    #[inline]
    #[must_use]
    pub const fn num_modules(self) -> usize {
        self.series * self.strings
    }

    /// String index of the `k`-th module in series-first order
    /// (modules `0..m` form string 0, `m..2m` string 1, …).
    #[inline]
    #[must_use]
    pub const fn string_of(self, module_index: usize) -> usize {
        module_index / self.series
    }

    /// Position of the `k`-th module within its string.
    #[inline]
    #[must_use]
    pub const fn position_in_string(self, module_index: usize) -> usize {
        module_index % self.series
    }
}

impl core::fmt::Display for Topology {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}s x {}p", self.series, self.strings)
    }
}

/// Aggregated electrical output of a panel.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct PanelOutput {
    /// Panel voltage (weakest string's series sum).
    pub voltage: Volts,
    /// Panel current (sum of per-string bottleneck currents).
    pub current: Amperes,
    /// Panel power `V · I`.
    pub power: Watts,
    /// Σ of individual module powers — the unreachable upper bound, useful
    /// for quantifying the mismatch (bottleneck) loss.
    pub sum_of_module_powers: Watts,
}

impl PanelOutput {
    /// Mismatch loss `1 − P/ΣP` caused by the series/parallel bottleneck,
    /// in `[0, 1]`. Zero when all modules are identical.
    #[must_use]
    pub fn mismatch_loss(&self) -> f64 {
        let sum = self.sum_of_module_powers.as_watts();
        if sum <= 0.0 {
            0.0
        } else {
            (1.0 - self.power.as_watts() / sum).max(0.0)
        }
    }
}

/// Aggregates per-module operating points into the panel output.
///
/// `modules` must be in *series-first* order: the first `m` entries form
/// string 0, the next `m` string 1, and so on — the same order the
/// floorplanner enumerates modules (paper Sec. III-C).
///
/// # Errors
///
/// Returns [`ModelError::TopologySizeMismatch`] if `modules.len()` differs
/// from `topology.num_modules()`.
///
/// ```
/// use pv_model::{panel_output, Topology};
/// use pv_model::OperatingPoint;
/// use pv_units::{Amperes, Volts};
/// let t = Topology::new(2, 1)?;
/// let strong = OperatingPoint { voltage: Volts::new(24.0), current: Amperes::new(6.0) };
/// let weak = OperatingPoint { voltage: Volts::new(23.0), current: Amperes::new(2.0) };
/// let out = panel_output(&[strong, weak], t)?;
/// // The string carries the weak module's 2 A at the summed voltage.
/// assert_eq!(out.voltage.value(), 47.0);
/// assert_eq!(out.current.value(), 2.0);
/// assert!(out.mismatch_loss() > 0.3);
/// # Ok::<(), pv_model::ModelError>(())
/// ```
pub fn panel_output(
    modules: &[OperatingPoint],
    topology: Topology,
) -> Result<PanelOutput, ModelError> {
    if modules.len() != topology.num_modules() {
        return Err(ModelError::TopologySizeMismatch {
            expected: topology.num_modules(),
            actual: modules.len(),
        });
    }
    let m = topology.series();
    let mut min_string_voltage = f64::INFINITY;
    let mut total_current = 0.0;
    let mut sum_power = 0.0;
    for j in 0..topology.strings() {
        let string = &modules[j * m..(j + 1) * m];
        let v: f64 = string.iter().map(|p| p.voltage.value()).sum();
        let i: f64 = string
            .iter()
            .map(|p| p.current.value())
            .fold(f64::INFINITY, f64::min);
        min_string_voltage = min_string_voltage.min(v);
        total_current += i;
        sum_power += string.iter().map(|p| p.power().as_watts()).sum::<f64>();
    }
    let voltage = Volts::new(min_string_voltage);
    let current = Amperes::new(total_current);
    Ok(PanelOutput {
        voltage,
        current,
        power: voltage * current,
        sum_of_module_powers: Watts::new(sum_power),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(v: f64, i: f64) -> OperatingPoint {
        OperatingPoint {
            voltage: Volts::new(v),
            current: Amperes::new(i),
        }
    }

    #[test]
    fn uniform_modules_have_no_mismatch() {
        let t = Topology::new(8, 2).unwrap();
        let modules = vec![op(24.0, 5.0); 16];
        let out = panel_output(&modules, t).unwrap();
        assert_eq!(out.voltage.value(), 8.0 * 24.0);
        assert_eq!(out.current.value(), 10.0);
        assert!((out.power.as_watts() - 1920.0).abs() < 1e-9);
        assert!(out.mismatch_loss() < 1e-12);
    }

    #[test]
    fn weak_module_throttles_only_its_string() {
        let t = Topology::new(4, 2).unwrap();
        let mut modules = vec![op(24.0, 5.0); 8];
        modules[1] = op(24.0, 1.0); // weak module in string 0
        let out = panel_output(&modules, t).unwrap();
        // String 0 contributes 1 A, string 1 its full 5 A.
        assert_eq!(out.current.value(), 6.0);
        assert!(out.mismatch_loss() > 0.0);
    }

    #[test]
    fn weak_string_voltage_caps_the_panel() {
        let t = Topology::new(2, 2).unwrap();
        // String 0 has low-voltage modules.
        let modules = vec![op(20.0, 5.0), op(20.0, 5.0), op(24.0, 5.0), op(24.0, 5.0)];
        let out = panel_output(&modules, t).unwrap();
        assert_eq!(out.voltage.value(), 40.0);
        assert_eq!(out.current.value(), 10.0);
    }

    #[test]
    fn panel_power_never_exceeds_sum_of_modules() {
        let t = Topology::new(3, 3).unwrap();
        let modules: Vec<OperatingPoint> = (0..9)
            .map(|k| op(20.0 + k as f64, 3.0 + (k % 4) as f64))
            .collect();
        let out = panel_output(&modules, t).unwrap();
        assert!(out.power.as_watts() <= out.sum_of_module_powers.as_watts() + 1e-9);
    }

    #[test]
    fn series_first_indexing() {
        let t = Topology::new(8, 4).unwrap();
        assert_eq!(t.string_of(0), 0);
        assert_eq!(t.string_of(7), 0);
        assert_eq!(t.string_of(8), 1);
        assert_eq!(t.position_in_string(8), 0);
        assert_eq!(t.string_of(31), 3);
        assert_eq!(t.num_modules(), 32);
    }

    #[test]
    fn size_mismatch_rejected() {
        let t = Topology::new(8, 2).unwrap();
        let out = panel_output(&vec![op(24.0, 5.0); 15], t);
        assert_eq!(
            out.unwrap_err(),
            ModelError::TopologySizeMismatch {
                expected: 16,
                actual: 15
            }
        );
    }

    #[test]
    fn empty_topology_rejected() {
        assert_eq!(Topology::new(0, 2).unwrap_err(), ModelError::EmptyTopology);
        assert_eq!(Topology::new(8, 0).unwrap_err(), ModelError::EmptyTopology);
    }

    #[test]
    fn display_format() {
        assert_eq!(Topology::new(8, 4).unwrap().to_string(), "8s x 4p");
    }

    #[test]
    fn dark_panel_is_zero_with_zero_mismatch() {
        let t = Topology::new(2, 2).unwrap();
        let out = panel_output(&[op(0.0, 0.0); 4], t).unwrap();
        assert_eq!(out.power, Watts::ZERO);
        assert_eq!(out.mismatch_loss(), 0.0);
    }
}
