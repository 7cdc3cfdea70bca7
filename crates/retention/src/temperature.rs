//! Temperature derating of retention times.
//!
//! DRAM charge leakage is thermally activated: retention roughly halves
//! for every ~10 °C of temperature increase (the reason JEDEC doubles the
//! refresh rate above 85 °C). Profiles are measured at a reference
//! temperature; deploying a refresh plan at a higher operating point
//! requires derating every retention time — or, equivalently, scaling the
//! refresh periods.

use serde::{Deserialize, Serialize};

use crate::profile::BankProfile;

/// Exponential temperature model: retention halves every
/// `halving_celsius` degrees above `reference_celsius`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TemperatureModel {
    /// Temperature at which the profile was measured (°C).
    pub reference_celsius: f64,
    /// Degrees per retention halving (typically ~10 °C).
    pub halving_celsius: f64,
}

impl TemperatureModel {
    /// The common characterization point: profiles at 45 °C, halving
    /// every 10 °C.
    pub fn standard() -> Self {
        TemperatureModel {
            reference_celsius: 45.0,
            halving_celsius: 10.0,
        }
    }

    /// The retention scale factor at an operating temperature.
    ///
    /// Below the reference the factor exceeds 1 (cells retain longer when
    /// cool); above it the factor shrinks toward 0.
    ///
    /// # Panics
    ///
    /// Panics if `halving_celsius` is not positive.
    pub fn retention_factor(&self, operating_celsius: f64) -> f64 {
        assert!(
            self.halving_celsius > 0.0,
            "halving interval must be positive"
        );
        2f64.powf(-(operating_celsius - self.reference_celsius) / self.halving_celsius)
    }

    /// Derates a retention time (ms) measured at the reference to an
    /// operating temperature.
    pub fn derate_ms(&self, retention_ms: f64, operating_celsius: f64) -> f64 {
        retention_ms * self.retention_factor(operating_celsius)
    }

    /// Derates a whole bank profile to an operating temperature.
    pub fn derate_profile(&self, profile: &BankProfile, operating_celsius: f64) -> BankProfile {
        let factor = self.retention_factor(operating_celsius);
        BankProfile::from_rows(
            profile.iter().map(|r| r.weakest_ms * factor),
            profile.cells_per_row(),
        )
    }
}

impl Default for TemperatureModel {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_temperature_is_identity() {
        let t = TemperatureModel::standard();
        assert!((t.retention_factor(45.0) - 1.0).abs() < 1e-12);
        assert_eq!(t.derate_ms(256.0, 45.0), 256.0);
    }

    #[test]
    fn ten_degrees_halves_retention() {
        let t = TemperatureModel::standard();
        assert!((t.derate_ms(256.0, 55.0) - 128.0).abs() < 1e-9);
        assert!((t.derate_ms(256.0, 65.0) - 64.0).abs() < 1e-9);
    }

    #[test]
    fn cooling_extends_retention() {
        let t = TemperatureModel::standard();
        assert!((t.derate_ms(256.0, 35.0) - 512.0).abs() < 1e-9);
    }

    #[test]
    fn profile_derating_is_uniform() {
        let t = TemperatureModel::standard();
        let p = BankProfile::from_rows(vec![100.0, 1000.0], 32);
        let hot = t.derate_profile(&p, 55.0);
        assert!((hot.row(0).weakest_ms - 50.0).abs() < 1e-9);
        assert!((hot.row(1).weakest_ms - 500.0).abs() < 1e-9);
    }
}
