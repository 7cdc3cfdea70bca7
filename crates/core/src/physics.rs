//! Adapter: the analytical circuit model as the simulator's charge
//! physics, so the integrity checker can verify plans end-to-end.

use std::sync::OnceLock;

use vrl_circuit::model::AnalyticalModel;
use vrl_circuit::tech::Technology;
use vrl_circuit::trfc::RefreshKind;
use vrl_dram_sim::integrity::ChargePhysics;
use vrl_dram_sim::timing::RefreshLatency;

/// Charge physics backed by the analytical model (transfer functions
/// pre-sampled for speed).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPhysics {
    full_level: f64,
    threshold: f64,
    partial_lut: Vec<f64>,
    full_lut: Vec<f64>,
    lo: f64,
}

const LUT_POINTS: usize = 512;

impl ModelPhysics {
    /// Samples the model's refresh transfer functions.
    pub fn new(model: &AnalyticalModel) -> Self {
        let threshold = model.sense_threshold();
        let lo = threshold * 0.5;
        let sample = |kind: RefreshKind| -> Vec<f64> {
            (0..LUT_POINTS)
                .map(|i| {
                    let q = lo + (1.0 - lo) * i as f64 / (LUT_POINTS - 1) as f64;
                    model.fraction_after_refresh(kind, q)
                })
                .collect()
        };
        ModelPhysics {
            full_level: model.full_charge_fraction(),
            threshold,
            partial_lut: sample(RefreshKind::Partial),
            full_lut: sample(RefreshKind::Full),
            lo,
        }
    }

    /// The physics of [`Technology::n90`], the technology every
    /// [`Experiment`](crate::experiment::Experiment) models. Sampled on
    /// first use, at most once per process; each call returns a clone
    /// (two 512-point tables, about 8 KB), equal to
    /// `ModelPhysics::new(&AnalyticalModel::new(Technology::n90()))`.
    pub fn n90() -> Self {
        static N90: OnceLock<ModelPhysics> = OnceLock::new();
        N90.get_or_init(|| ModelPhysics::new(&AnalyticalModel::new(Technology::n90())))
            .clone()
    }

    fn interp(&self, lut: &[f64], start: f64) -> f64 {
        let x = (start.clamp(self.lo, 1.0) - self.lo) / (1.0 - self.lo) * (LUT_POINTS - 1) as f64;
        let i = (x as usize).min(LUT_POINTS - 2);
        let frac = x - i as f64;
        lut[i] * (1.0 - frac) + lut[i + 1] * frac
    }
}

impl ChargePhysics for ModelPhysics {
    fn after_refresh(&self, kind: RefreshLatency, start: f64) -> f64 {
        match kind {
            RefreshLatency::Full => self.interp(&self.full_lut, start),
            RefreshLatency::Partial => self.interp(&self.partial_lut, start),
        }
    }

    fn full_level(&self) -> f64 {
        self.full_level
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn physics() -> ModelPhysics {
        ModelPhysics::new(&AnalyticalModel::new(Technology::n90()))
    }

    #[test]
    fn shared_n90_physics_equals_a_fresh_sample() {
        // Equality covers both LUTs, sample by sample.
        let fresh = physics();
        assert_eq!(ModelPhysics::n90(), fresh);
        // Later calls clone the one memoized sample.
        assert_eq!(ModelPhysics::n90(), fresh);
    }

    #[test]
    fn full_refresh_restores_to_full_level() {
        let p = physics();
        let after = p.after_refresh(RefreshLatency::Full, p.threshold());
        assert!((after - p.full_level()).abs() < 0.02, "{after}");
    }

    #[test]
    fn partial_adds_less_than_full() {
        let p = physics();
        let start = 0.7;
        let full = p.after_refresh(RefreshLatency::Full, start);
        let partial = p.after_refresh(RefreshLatency::Partial, start);
        assert!(partial < full);
        assert!(partial > start);
    }

    #[test]
    fn threshold_sits_above_half() {
        let p = physics();
        assert!(p.threshold() > 0.5 && p.threshold() < 0.8);
    }
}
