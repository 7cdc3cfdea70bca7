//! The single-cell capacitor model of Li et al. \[26\] — the accuracy
//! baseline of Figure 5 and Table 1.
//!
//! This model treats the bitline as one lumped capacitor of fixed,
//! datasheet-nominal value, and the equalizer/access devices as simple ON
//! resistances. It ignores:
//!
//! * the saturation phase of the equalizer (it starts exponential at
//!   `t = 0`),
//! * the geometry scaling of the bitline (`Cbl`, `Rbl` fixed at the
//!   nominal 512-cell segment),
//! * all parasitic coupling (`Cbb`, `Cbw`) and the wordline rise time.
//!
//! As a result it predicts the *same* pre-sensing delay for every bank
//! size — the behaviour Table 1 reports (a constant 6 cycles).

use crate::tech::Technology;

/// Nominal cells-per-bitline of the datasheet segment the single-cell
/// model assumes.
pub const NOMINAL_SEGMENT_CELLS: usize = 512;

/// The Li et al. single-cell capacitor model.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleCellModel {
    vdd: f64,
    veq: f64,
    cs: f64,
    cbl0: f64,
    req: f64,
    r_pre: f64,
}

impl SingleCellModel {
    /// Builds the baseline model from a technology (geometry-independent
    /// by construction).
    pub fn new(tech: &Technology) -> Self {
        let cbl0 = tech.cbl_fixed + tech.cbl_per_cell * NOMINAL_SEGMENT_CELLS as f64;
        let rbl0 = tech.rbl_fixed + tech.rbl_per_cell * NOMINAL_SEGMENT_CELLS as f64;
        SingleCellModel {
            vdd: tech.vdd,
            veq: tech.veq(),
            cs: tech.cs,
            cbl0,
            req: rbl0 + tech.ron_eq(),
            r_pre: rbl0 + tech.ron_access(tech.veq()),
        }
    }

    /// Equalization: single exponential from `t = 0` (no saturation
    /// phase). `v0` is the bitline's initial voltage.
    pub fn equalization_voltage(&self, v0: f64, t: f64) -> f64 {
        if t <= 0.0 {
            return v0;
        }
        self.veq + (v0 - self.veq) * (-t / (self.req * self.cbl0)).exp()
    }

    /// Pre-sensing settling function: a single-pole RC with
    /// `τ = Rpre·(Cs‖Cbl)` — no distributed-line mode, no wordline rise,
    /// no geometry dependence.
    pub fn u(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 1.0;
        }
        let ceff = self.cs * self.cbl0 / (self.cs + self.cbl0);
        (-t / (self.r_pre * ceff)).exp()
    }

    /// Time to reach `fraction` of the final bitline swing (bisection on
    /// the monotone `u`).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1)`.
    pub fn settling_time(&self, fraction: f64) -> f64 {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "fraction must be in (0,1)"
        );
        let target = 1.0 - fraction;
        let mut hi = self.r_pre * (self.cs + self.cbl0);
        while self.u(hi) > target {
            hi *= 2.0;
        }
        let mut lo = 0.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.u(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Pre-sensing delay in array-clock cycles (Table 1's single-cell
    /// column) — identical for every geometry by construction.
    pub fn presensing_cycles(&self, tech: &Technology) -> usize {
        (self.settling_time(0.95) / tech.tck_presense).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charge_sharing::ChargeSharingModel;
    use crate::tech::BankGeometry;

    fn model() -> SingleCellModel {
        SingleCellModel::new(&Technology::n90())
    }

    #[test]
    fn equalization_starts_exponential_immediately() {
        let m = model();
        // No phase-1 plateau: a tiny time already moves the bitline.
        let v0 = 1.2;
        let v_early = m.equalization_voltage(v0, 1e-12);
        assert!(v_early < v0);
    }

    #[test]
    fn equalization_converges_to_veq() {
        let m = model();
        let v = m.equalization_voltage(1.2, 1e-6);
        assert!((v - 0.6).abs() < 1e-9);
    }

    #[test]
    fn geometry_independent_by_construction() {
        // The model has no geometry input at all; two technologies that
        // differ only in geometry-derived values produce the same model.
        let m = model();
        let cycles = m.presensing_cycles(&Technology::n90());
        assert!(cycles > 0);
    }

    #[test]
    fn u_decays_monotonically() {
        let m = model();
        let mut prev = f64::INFINITY;
        for i in 0..100 {
            let u = m.u(i as f64 * 20e-12);
            assert!(u <= prev + 1e-15);
            prev = u;
        }
    }

    #[test]
    fn underestimates_large_array_settling() {
        // The whole point of the baseline: on a big array it is optimistic
        // versus the full model.
        let tech = Technology::n90();
        let full = ChargeSharingModel::new(&tech, BankGeometry::new(16384, 128));
        let single = model();
        assert!(single.settling_time(0.95) < full.settling_time(0.95));
    }
}
