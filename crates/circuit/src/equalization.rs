//! Two-phase equalization-delay model (paper Section 2.1, Equations 1–2).
//!
//! Before a row can be activated, the bitline pair must be driven to
//! `Veq = Vdd/2`. The paper models this in two phases:
//!
//! * **Phase 1** — the equalizer devices `M2`/`M3` are in saturation and
//!   move the bitline by `Vtn2` at constant current `Idsat2`
//!   (Equation 1: `t_o = Cbl·Vtn2 / Idsat2`).
//! * **Phase 2** — the devices enter the linear region with ON resistance
//!   `r_on2`, and the bitline converges exponentially to `Veq` with time
//!   constant `Req·Cbl`, `Req = Rbl + r_on2` (Equation 2).

use crate::tech::{BankGeometry, Technology};

/// The two-phase equalization model for one bitline pair.
#[derive(Debug, Clone, PartialEq)]
pub struct EqualizationModel {
    vdd: f64,
    veq: f64,
    vtn2: f64,
    cbl: f64,
    idsat2: f64,
    req: f64,
}

impl EqualizationModel {
    /// Builds the model for a technology and bank geometry.
    pub fn new(tech: &Technology, geometry: BankGeometry) -> Self {
        let veq = tech.veq();
        let vov = tech.vdd - veq - tech.vth_n;
        assert!(vov > 0.0, "equalizer gate overdrive must be positive");
        // Equation 1: Idsat2 = βn2/2 · (Vg − Veq − Vtn2)².
        let idsat2 = 0.5 * tech.beta_eq * vov * vov;
        EqualizationModel {
            vdd: tech.vdd,
            veq,
            vtn2: tech.vth_n,
            cbl: tech.cbl(geometry),
            idsat2,
            req: tech.rbl(geometry) + tech.ron_eq(),
        }
    }

    /// Phase-1 duration `t_o = Cbl·Vtn2 / Idsat2` (Equation 1), seconds.
    pub fn t_o(&self) -> f64 {
        self.cbl * self.vtn2 / self.idsat2
    }

    /// Voltage of the high bitline `Bi` (initially `Vdd`) at time `t`.
    ///
    /// Linear discharge during phase 1, then Equation 2's exponential.
    pub fn bl_voltage(&self, t: f64) -> f64 {
        let t_o = self.t_o();
        if t <= 0.0 {
            return self.vdd;
        }
        if t < t_o {
            // Constant-current discharge: slope Idsat2/Cbl.
            return self.vdd - self.idsat2 / self.cbl * t;
        }
        let v_to = self.vdd - self.vtn2;
        self.veq + (v_to - self.veq) * (-(t - t_o) / (self.req * self.cbl)).exp()
    }

    /// Voltage of the complementary bitline `B̄i` (initially 0 V) at `t`.
    pub fn blb_voltage(&self, t: f64) -> f64 {
        // Mirror of the high rail around Veq.
        2.0 * self.veq - self.bl_voltage(t)
    }

    /// Equalization delay `τ_eq`: the time until both rails are within
    /// `tolerance` volts of `Veq`.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive.
    pub fn tau_eq(&self, tolerance: f64) -> f64 {
        assert!(tolerance > 0.0, "tolerance must be positive");
        let t_o = self.t_o();
        let v_to = self.vdd - self.vtn2;
        let excess = v_to - self.veq;
        if excess <= tolerance {
            return t_o;
        }
        t_o + self.req * self.cbl * (excess / tolerance).ln()
    }

    /// Saturation current of the equalizer, `Idsat2` (amperes).
    pub fn idsat2(&self) -> f64 {
        self.idsat2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EqualizationModel {
        EqualizationModel::new(&Technology::n90(), BankGeometry::paper_default())
    }

    #[test]
    fn starts_at_rails() {
        let m = model();
        assert_eq!(m.bl_voltage(0.0), 1.2);
        assert!((m.blb_voltage(0.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn converges_to_veq() {
        let m = model();
        let t = m.tau_eq(1e-3);
        assert!((m.bl_voltage(t) - 0.6).abs() < 2e-3);
        assert!((m.blb_voltage(t) - 0.6).abs() < 2e-3);
    }

    #[test]
    fn phase1_is_linear_with_slope_idsat_over_cbl() {
        let m = model();
        let t_half = m.t_o() / 2.0;
        let expected =
            1.2 - m.idsat2() / (Technology::n90().cbl(BankGeometry::paper_default())) * t_half;
        assert!((m.bl_voltage(t_half) - expected).abs() < 1e-12);
    }

    #[test]
    fn phase_boundary_is_continuous() {
        let m = model();
        let t_o = m.t_o();
        let before = m.bl_voltage(t_o * (1.0 - 1e-9));
        let after = m.bl_voltage(t_o * (1.0 + 1e-9));
        assert!((before - after).abs() < 1e-6);
        // At the boundary the bitline has dropped exactly Vtn2.
        assert!((before - (1.2 - 0.4)).abs() < 1e-6);
    }

    #[test]
    fn waveform_is_monotone_decreasing() {
        let m = model();
        let mut prev = f64::INFINITY;
        for i in 0..200 {
            let v = m.bl_voltage(i as f64 * 20e-12);
            assert!(v <= prev + 1e-12);
            prev = v;
        }
    }

    #[test]
    fn complementary_rail_mirrors() {
        let m = model();
        for i in 0..50 {
            let t = i as f64 * 40e-12;
            let sum = m.bl_voltage(t) + m.blb_voltage(t);
            assert!((sum - 1.2).abs() < 1e-12, "rails mirror around Veq");
        }
    }

    #[test]
    fn tau_eq_shrinks_with_looser_tolerance() {
        let m = model();
        assert!(m.tau_eq(0.05) < m.tau_eq(0.001));
    }

    #[test]
    fn larger_bank_equalizes_slower() {
        let t = Technology::n90();
        let small = EqualizationModel::new(&t, BankGeometry::new(2048, 32));
        let large = EqualizationModel::new(&t, BankGeometry::new(16384, 32));
        assert!(large.tau_eq(1e-3) > small.tau_eq(1e-3));
    }
}
