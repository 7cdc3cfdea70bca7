//! Post-sensing charge restoration (paper Section 2.3 Phase 4,
//! Equation 12) with an access-transistor-limited refinement.
//!
//! Equation 12 models the restore as a single exponential with
//! `τ = Rpost·Cpost`. Physically, the dominant effect on the *tail* of the
//! restoration is that the access transistor's gate overdrive collapses as
//! the cell voltage rises toward `Vdd` (`vov = Vpp − Vs − Vth`), so the
//! charging current shrinks *quadratically* with the remaining deficit.
//! This is exactly the behaviour behind the paper's Observation 1 — more
//! than half of the refresh time is spent injecting the last 5 % of the
//! charge — so the model here integrates the nonlinear device equation
//! directly:
//!
//! ```text
//! Cs·dVs/dt = Ids(vgs = Vpp − Vs, vds = Vbl − Vs)
//! ```
//!
//! with the restored bitline held at `Vdd` by the sense amplifier. The
//! single-exponential form of Equation 12 is available as
//! [`RestoreModel::voltage_after_exponential`] for comparison.

use crate::tech::Technology;

/// Integration step for the nonlinear restore ODE (seconds). The restore
/// windows of interest are 1–20 ns, so 5 ps keeps the error negligible.
const DT: f64 = 5e-12;

/// Charge-restoration model (nonlinear, access-transistor limited).
#[derive(Debug, Clone, PartialEq)]
pub struct RestoreModel {
    vdd: f64,
    vpp: f64,
    vth: f64,
    beta: f64,
    cs: f64,
    /// Equivalent RC for the paper's Equation 12 exponential form.
    tau_exp: f64,
}

impl RestoreModel {
    /// Builds the model from a technology; `r_post` (from the sense-amp
    /// model) parameterizes the Equation 12 exponential comparison form.
    pub fn new(tech: &Technology, r_post: f64) -> Self {
        let c_post = tech.c_post(crate::tech::BankGeometry::operational_segment());
        RestoreModel {
            vdd: tech.vdd,
            vpp: tech.vpp,
            vth: tech.vth_access,
            beta: tech.beta_access,
            cs: tech.cs,
            tau_exp: r_post * c_post,
        }
    }

    /// Access-transistor current into the cell at cell voltage `vs`, with
    /// the bitline held at `Vdd` (level-1 square law).
    fn charging_current(&self, vs: f64) -> f64 {
        let vov = self.vpp - vs - self.vth;
        if vov <= 0.0 {
            return 0.0;
        }
        let vds = self.vdd - vs;
        if vds <= 0.0 {
            return 0.0;
        }
        if vds < vov {
            self.beta * (vov * vds - 0.5 * vds * vds)
        } else {
            0.5 * self.beta * vov * vov
        }
    }

    /// Cell voltage after restoring for `window` seconds from `v_start`
    /// volts (nonlinear integration).
    pub fn voltage_after(&self, v_start: f64, window: f64) -> f64 {
        let mut v = v_start;
        let mut t = 0.0;
        while t < window {
            let h = DT.min(window - t);
            // Midpoint (RK2) step.
            let k1 = self.charging_current(v) / self.cs;
            let k2 = self.charging_current(v + 0.5 * h * k1) / self.cs;
            v += h * k2;
            t += h;
            if self.vdd - v < 1e-9 {
                return self.vdd - 1e-9;
            }
        }
        v
    }

    /// The paper's Equation 12 single-exponential form, for comparison.
    pub fn voltage_after_exponential(&self, v_start: f64, window: f64) -> f64 {
        if window <= 0.0 {
            return v_start;
        }
        self.vdd - (self.vdd - v_start) * (-window / self.tau_exp).exp()
    }

    /// Time (seconds) for the cell to charge from `v_start` to `v_target`
    /// volts, or `None` if it cannot get there within `limit` seconds.
    pub fn time_to_voltage(&self, v_start: f64, v_target: f64, limit: f64) -> Option<f64> {
        if v_target <= v_start {
            return Some(0.0);
        }
        let mut v = v_start;
        let mut t = 0.0;
        while t < limit {
            let k1 = self.charging_current(v) / self.cs;
            if k1 <= 0.0 {
                return None;
            }
            let k2 = self.charging_current(v + 0.5 * DT * k1) / self.cs;
            let v_next = v + DT * k2;
            if v_next >= v_target {
                // Linear interpolation inside the step.
                let frac = (v_target - v) / (v_next - v);
                return Some(t + DT * frac);
            }
            v = v_next;
            t += DT;
        }
        None
    }

    /// The full charge level: the voltage reached by a full-refresh restore
    /// window of `window` seconds starting from the sensing threshold
    /// (`Vdd/2`). This is what "100 % charge" means operationally.
    pub fn full_level(&self, window: f64) -> f64 {
        self.voltage_after(self.vdd / 2.0, window)
    }

    /// Equivalent-exponential time constant used by Equation 12 (seconds).
    pub fn tau_exponential(&self) -> f64 {
        self.tau_exp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sense_amp::SenseAmpModel;
    use crate::tech::BankGeometry;

    fn model() -> RestoreModel {
        let tech = Technology::n90();
        let sa = SenseAmpModel::new(&tech, BankGeometry::operational_segment());
        RestoreModel::new(&tech, sa.r_post())
    }

    #[test]
    fn restore_is_monotone_increasing() {
        let m = model();
        let mut prev = 0.6;
        for i in 1..=20 {
            let v = m.voltage_after(0.6, i as f64 * 1e-9);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn restore_never_exceeds_vdd() {
        let m = model();
        assert!(m.voltage_after(0.6, 1e-3) <= 1.2);
    }

    #[test]
    fn zero_window_is_identity() {
        let m = model();
        assert_eq!(m.voltage_after(0.77, 0.0), 0.77);
    }

    #[test]
    fn tail_slows_down() {
        // Observation 1: charging the last few percent takes much longer
        // per unit charge than the start.
        let m = model();
        let t_to_80 = m
            .time_to_voltage(0.6, 0.80 * 1.2, 1e-6)
            .expect("reaches 80%");
        let t_to_95 = m
            .time_to_voltage(0.6, 0.95 * 1.2, 1e-6)
            .expect("reaches 95%");
        // 15 percentage points from 80→95 take longer than the 30 points
        // from 50→80.
        assert!(
            t_to_95 - t_to_80 > t_to_80,
            "t80={t_to_80:e}, t95={t_to_95:e}"
        );
    }

    #[test]
    fn full_window_restores_most_charge() {
        let m = model();
        // 10 ns restore window (τ_full's restore share at 1 ns cycles).
        let v = m.full_level(10e-9);
        assert!(v > 0.9 * 1.2, "full refresh should restore > 90%, got {v}");
    }

    #[test]
    fn partial_window_restores_less() {
        let m = model();
        let partial = m.voltage_after(0.6, 2e-9);
        let full = m.voltage_after(0.6, 10e-9);
        assert!(partial < full);
        assert!(partial > 0.6, "partial must still add charge");
    }

    #[test]
    fn time_to_voltage_is_consistent_with_voltage_after() {
        let m = model();
        let t = m.time_to_voltage(0.6, 1.0, 1e-6).expect("reaches 1.0 V");
        let v = m.voltage_after(0.6, t);
        assert!((v - 1.0).abs() < 2e-3, "got {v}");
    }

    #[test]
    fn unreachable_target_returns_none() {
        let m = model();
        assert!(m.time_to_voltage(0.6, 1.25, 1e-7).is_none());
    }

    #[test]
    fn exponential_form_converges_too() {
        let m = model();
        let v = m.voltage_after_exponential(0.6, 100.0 * m.tau_exponential());
        assert!((v - 1.2).abs() < 1e-9);
    }

    #[test]
    fn nonlinear_tail_is_slower_than_exponential() {
        // The refinement: near full charge the nonlinear model charges
        // slower than any single exponential fitted to the early curve.
        let m = model();
        let t95_nl = m.time_to_voltage(0.6, 1.14, 1e-6).expect("nl");
        // Exponential with the same 63% point.
        let v63 = 0.6 + 0.63 * 0.6;
        let t63_nl = m.time_to_voltage(0.6, v63, 1e-6).expect("nl 63");
        let exp_t95 = t63_nl * ((1.2_f64 - 0.6) / (1.2 - 1.14)).ln();
        assert!(
            t95_nl > exp_t95,
            "nonlinear {t95_nl:e} vs exponential {exp_t95:e}"
        );
    }
}
