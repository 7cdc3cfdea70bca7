//! Validation of the analytical model against the transient reference.
//!
//! These helpers build the [`vrl_spice`] netlists from the *same*
//! [`Technology`] parameters and compare waveforms/settling times — the
//! machinery behind Figure 5 and Table 1.

use std::time::Instant;

use crate::charge_sharing::ChargeSharingModel;
use crate::equalization::EqualizationModel;
use crate::single_cell::SingleCellModel;
use crate::tech::{BankGeometry, Technology};
use vrl_spice::circuits::{charge_sharing_array, equalization_circuit};
use vrl_spice::waveform::Waveform;
use vrl_spice::{SpiceError, TransientSpec};

/// The three waveforms of Figure 5 for the high bitline `Bi` during
/// equalization, sampled at `points` instants over `duration` seconds.
#[derive(Debug, Clone)]
pub struct EqualizationComparison {
    /// Sample times (s).
    pub times: Vec<f64>,
    /// Transient-simulator reference for `Bi`.
    pub spice_bl: Vec<f64>,
    /// Our two-phase model (Equations 1–2) for `Bi`.
    pub two_phase_bl: Vec<f64>,
    /// Single-cell capacitor model of Li et al. for `Bi`.
    pub single_cell_bl: Vec<f64>,
    /// Transient reference for the complementary bitline.
    pub spice_blb: Vec<f64>,
    /// Two-phase model for the complementary bitline.
    pub two_phase_blb: Vec<f64>,
}

impl EqualizationComparison {
    /// RMS error of the two-phase model against the reference (volts).
    pub fn two_phase_rms(&self) -> f64 {
        rms(&self.two_phase_bl, &self.spice_bl)
    }

    /// RMS error of the single-cell model against the reference (volts).
    pub fn single_cell_rms(&self) -> f64 {
        rms(&self.single_cell_bl, &self.spice_bl)
    }
}

fn rms(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let sum: f64 = a
        .iter()
        .zip(b)
        .take(n)
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    (sum / n as f64).sqrt()
}

/// Runs the Figure 5 experiment: equalization of the operational bitline
/// pair simulated three ways.
///
/// # Errors
///
/// Propagates transient-simulation failures.
pub fn compare_equalization(
    tech: &Technology,
    duration: f64,
    points: usize,
) -> Result<EqualizationComparison, SpiceError> {
    let seg = BankGeometry::operational_segment();
    let params = tech.to_spice_params(seg);
    let (ckt, nodes) = equalization_circuit(&params, 1e-12);
    let result = ckt.run_transient(TransientSpec::new(duration / 2000.0, duration))?;
    let bl_wf: Waveform = result.waveform(nodes.bl);
    let blb_wf: Waveform = result.waveform(nodes.blb);

    let two_phase = EqualizationModel::new(tech, seg);
    let single = SingleCellModel::new(tech);

    let times: Vec<f64> = (0..=points)
        .map(|i| duration * i as f64 / points as f64)
        .collect();
    Ok(EqualizationComparison {
        spice_bl: times.iter().map(|&t| bl_wf.sample(t)).collect(),
        two_phase_bl: times.iter().map(|&t| two_phase.bl_voltage(t)).collect(),
        single_cell_bl: times
            .iter()
            .map(|&t| single.equalization_voltage(tech.vdd, t))
            .collect(),
        spice_blb: times.iter().map(|&t| blb_wf.sample(t)).collect(),
        two_phase_blb: times.iter().map(|&t| two_phase.blb_voltage(t)).collect(),
        times,
    })
}

/// One Table 1 row: pre-sensing delay (array-clock cycles) and wall-clock
/// evaluation time, for the three approaches.
#[derive(Debug, Clone, PartialEq)]
pub struct PresensingRow {
    /// Bank geometry of this configuration.
    pub geometry: BankGeometry,
    /// Transient-simulator reference (cycles).
    pub spice_cycles: usize,
    /// Single-cell model (cycles).
    pub single_cell_cycles: usize,
    /// Our analytical model (cycles).
    pub our_cycles: usize,
    /// Transient simulation wall time (seconds).
    pub spice_seconds: f64,
    /// Single-cell model wall time (seconds).
    pub single_cell_seconds: f64,
    /// Our model wall time (seconds).
    pub our_seconds: f64,
}

/// Measures one Table 1 configuration.
///
/// `spice_columns` bounds the number of bitlines actually instantiated in
/// the transient netlist (the victim sits in the middle); coupling beyond
/// a few neighbors is negligible, and the bound keeps the dense solver
/// tractable. Pass `geometry.cols` to simulate the full wordline.
///
/// # Errors
///
/// Propagates transient-simulation failures.
pub fn measure_presensing(
    tech: &Technology,
    geometry: BankGeometry,
    spice_columns: usize,
) -> Result<PresensingRow, SpiceError> {
    // --- transient reference ---
    let spice_start = Instant::now();
    let params = tech.to_spice_params(geometry);
    let n = spice_columns.min(geometry.cols).max(1);
    // Alternating worst-case pattern, victim in the middle storing 1.
    let pattern: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let victim = victim_column(n);
    let (ckt, nodes) = charge_sharing_array(&params, &pattern, 1e-12);
    // Simulate long enough to see the full settling.
    let model = ChargeSharingModel::new(tech, geometry);
    let horizon = (model.settling_time(0.995) * 2.0).max(2e-9);
    let result = ckt.run_transient(TransientSpec::new(horizon / 4000.0, horizon))?;
    let wf = result.waveform(nodes.bitlines[victim]);
    let v_eq = tech.veq();
    let v_final = wf.last_value();
    let target = v_eq + 0.95 * (v_final - v_eq);
    let t95 = wf
        .first_crossing(target, vrl_spice::waveform::CrossingDirection::Rising)
        .unwrap_or(horizon);
    let spice_cycles = (t95 / tech.tck_presense).ceil() as usize;
    let spice_seconds = spice_start.elapsed().as_secs_f64();

    // --- single-cell model ---
    let sc_start = Instant::now();
    let single = SingleCellModel::new(tech);
    let single_cell_cycles = single.presensing_cycles(tech);
    let single_cell_seconds = sc_start.elapsed().as_secs_f64();

    // --- our analytical model ---
    let our_start = Instant::now();
    let our_cycles = model.presensing_cycles(tech);
    let our_seconds = our_start.elapsed().as_secs_f64();

    Ok(PresensingRow {
        geometry,
        spice_cycles,
        single_cell_cycles,
        our_cycles,
        spice_seconds,
        single_cell_seconds,
        our_seconds,
    })
}

/// The stored-1 (even) column nearest the middle of an `n`-column
/// window: the first even index at or past `n / 2`, or the last even
/// index when that falls off the end (`n` ≤ 2).
fn victim_column(n: usize) -> usize {
    let middle = n / 2 + (n / 2) % 2;
    if middle < n {
        middle
    } else {
        middle - 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_phase_tracks_spice_better_than_single_cell() {
        let tech = Technology::n90();
        let cmp = compare_equalization(&tech, 2e-9, 100).expect("simulates");
        assert!(
            cmp.two_phase_rms() < cmp.single_cell_rms(),
            "two-phase RMS {} should beat single-cell RMS {}",
            cmp.two_phase_rms(),
            cmp.single_cell_rms()
        );
    }

    #[test]
    fn two_phase_rms_is_small() {
        let tech = Technology::n90();
        let cmp = compare_equalization(&tech, 2e-9, 100).expect("simulates");
        // Within 60 mV RMS of the transient reference on a 1.2 V swing.
        assert!(cmp.two_phase_rms() < 0.06, "rms = {}", cmp.two_phase_rms());
    }

    #[test]
    fn presensing_row_is_ordered_sanely() {
        let tech = Technology::n90();
        let row = measure_presensing(&tech, BankGeometry::new(2048, 32), 5).expect("simulates");
        assert!(row.spice_cycles > 0);
        assert!(row.our_cycles > 0);
        assert!(row.single_cell_cycles > 0);
        // The analytical model must be much faster than the transient sim.
        assert!(row.our_seconds < row.spice_seconds);
    }

    #[test]
    fn victim_is_a_stored_one_column_inside_every_window() {
        // The product windows (Table 1 and the benchmark) must keep
        // their victims.
        assert_eq!(victim_column(9), 4);
        assert_eq!(victim_column(17), 8);
        for n in 1..=32 {
            let v = victim_column(n);
            assert!(v < n && v.is_multiple_of(2), "window {n} picked column {v}");
        }
        let tech = Technology::n90();
        for n in 1..=3 {
            let row = measure_presensing(&tech, BankGeometry::new(2048, 32), n)
                .unwrap_or_else(|e| panic!("{n}-column window: {e}"));
            assert!(row.spice_cycles > 0);
        }
    }
}
