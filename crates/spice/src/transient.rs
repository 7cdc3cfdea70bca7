//! Backward-Euler transient analysis with Newton–Raphson iteration.

use crate::error::SpiceError;
use crate::mna;
use crate::netlist::{Circuit, Node};
use crate::newton::{self, Damping};
use crate::sparse::SparseSystem;
use crate::waveform::Waveform;

/// Newton budget and per-iteration voltage update clamp (volts) per time
/// step; the clamp damps regenerative circuits such as the latch sense
/// amplifier.
const DAMPING: Damping = Damping {
    max_iterations: 100,
    vstep_limit: 0.3,
};

/// Transient analysis specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSpec {
    /// Fixed time step in seconds.
    pub step: f64,
    /// Stop time in seconds.
    pub stop: f64,
}

impl TransientSpec {
    /// Creates a spec with a fixed `step` and `stop` time (both seconds).
    pub fn new(step: f64, stop: f64) -> Self {
        TransientSpec { step, stop }
    }

    fn validate(&self) -> Result<(), SpiceError> {
        let valid = self.step > 0.0
            && self.stop > 0.0
            && self.step <= self.stop
            && self.step.is_finite()
            && self.stop.is_finite();
        if !valid {
            return Err(SpiceError::InvalidTransientSpec {
                step: self.step,
                stop: self.stop,
            });
        }
        Ok(())
    }
}

/// The result of a transient run: one waveform per node.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `voltages[node_index - 1]` = samples for that node.
    voltages: Vec<Vec<f64>>,
    /// Newton iterations summed over all time steps (a work measure).
    pub total_newton_iterations: usize,
}

impl TransientResult {
    /// The sampled time points (seconds), including `t = 0`.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Returns the waveform of a node (ground yields an all-zero waveform).
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated circuit.
    pub fn waveform(&self, node: Node) -> Waveform {
        if node.is_ground() {
            return Waveform::new(self.times.clone(), vec![0.0; self.times.len()]);
        }
        let v = self.voltages[node.index() - 1].clone();
        Waveform::new(self.times.clone(), v)
    }

    /// Voltage of `node` at the final time point.
    pub fn final_voltage(&self, node: Node) -> f64 {
        self.waveform(node).last_value()
    }
}

/// Runs the analysis (used via [`Circuit::run_transient`]).
pub(crate) fn run(circuit: &Circuit, spec: TransientSpec) -> Result<TransientResult, SpiceError> {
    spec.validate()?;
    let invalid = || SpiceError::InvalidTransientSpec {
        step: spec.step,
        stop: spec.stop,
    };
    let n_nodes = circuit.node_count() - 1;
    let n = mna::unknowns(circuit);

    // Reserve every sample up front, failing cleanly when the spec asks
    // for more than the address space or the allocator can give. The
    // float-to-integer cast saturates, so the additions must be checked.
    let steps = (spec.stop / spec.step).round() as usize;
    let samples = steps.checked_add(1).ok_or_else(invalid)?;
    let reserve = || -> Result<Vec<f64>, SpiceError> {
        let mut column = Vec::new();
        column.try_reserve_exact(samples).map_err(|_| invalid())?;
        Ok(column)
    };
    let mut times = reserve()?;
    let mut voltages = (0..n_nodes)
        .map(|_| reserve())
        .collect::<Result<Vec<_>, _>>()?;

    // Initial state from the user-provided initial conditions.
    let mut x = vec![0.0; n];
    for (i, xi) in x[..n_nodes].iter_mut().enumerate() {
        *xi = circuit.initial_voltage(Node(i + 1));
    }
    times.push(0.0);
    for (column, &v) in voltages.iter_mut().zip(&x) {
        column.push(v);
    }

    let mut total_newton = 0usize;
    let mut v_prev: Vec<f64> = x[..n_nodes].to_vec();
    let mut sys = SparseSystem::new(n);

    for step_idx in 1..=steps {
        let t = step_idx as f64 * spec.step;
        // Newton iteration at this time point, warm-started from x.
        total_newton += newton::solve(circuit, &mut sys, &mut x, &v_prev, t, spec.step, DAMPING)?;
        v_prev.copy_from_slice(&x[..n_nodes]);
        times.push(t);
        for (column, &v) in voltages.iter_mut().zip(&x) {
            column.push(v);
        }
    }

    Ok(TransientResult {
        times,
        voltages,
        total_newton_iterations: total_newton,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::SourceWave;
    use crate::mosfet::MosParams;

    #[test]
    fn rc_discharge_matches_analytic() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.add_resistor(n, Circuit::GROUND, 1e3);
        c.add_capacitor(n, Circuit::GROUND, 1e-9); // tau = 1 µs
        c.set_initial_voltage(n, 1.0);
        let res = c
            .run_transient(TransientSpec::new(1e-8, 3e-6))
            .expect("runs");
        let wf = res.waveform(n);
        for &t in &[0.5e-6, 1.0e-6, 2.0e-6] {
            let expected = (-t / 1e-6_f64).exp();
            let got = wf.sample(t);
            assert!((got - expected).abs() < 6e-3, "t={t}: {got} vs {expected}");
        }
    }

    #[test]
    fn rc_charge_toward_source() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let n = c.node("n");
        c.add_dc_voltage(vdd, 1.2);
        c.add_resistor(vdd, n, 1e3);
        c.add_capacitor(n, Circuit::GROUND, 1e-9);
        let res = c
            .run_transient(TransientSpec::new(1e-8, 10e-6))
            .expect("runs");
        assert!((res.final_voltage(n) - 1.2).abs() < 1e-3);
    }

    #[test]
    fn step_source_propagates() {
        let mut c = Circuit::new();
        let src = c.node("src");
        let out = c.node("out");
        c.add_voltage_source(
            src,
            Circuit::GROUND,
            SourceWave::Step {
                from: 0.0,
                to: 1.0,
                at: 1e-6,
                rise: 1e-8,
            },
        );
        c.add_resistor(src, out, 1.0);
        c.add_capacitor(out, Circuit::GROUND, 1e-12);
        let res = c
            .run_transient(TransientSpec::new(1e-8, 2e-6))
            .expect("runs");
        let wf = res.waveform(out);
        assert!(wf.sample(0.5e-6).abs() < 1e-6);
        assert!((wf.sample(1.9e-6) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.add_resistor(n, Circuit::GROUND, 1e3);
        let err = c.run_transient(TransientSpec::new(-1.0, 1.0)).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidTransientSpec { .. }));
        let err = c.run_transient(TransientSpec::new(2.0, 1.0)).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidTransientSpec { .. }));
    }

    #[test]
    fn unaffordable_sample_count_is_an_error() {
        // 1e10 samples for each of 4096 nodes: the reservations together
        // exceed any address space, whatever the host's overcommit policy,
        // so the run must fail before it starts.
        let mut c = Circuit::new();
        for i in 0..4096 {
            let n = c.node(&format!("n{i}"));
            c.add_resistor(n, Circuit::GROUND, 1e3);
        }
        let err = c.run_transient(TransientSpec::new(1e-10, 1.0)).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidTransientSpec { .. }));
    }

    #[test]
    fn step_count_overflow_is_an_error() {
        // 1e20 steps saturate the cast, and the sample count overflows.
        let mut c = Circuit::new();
        let n = c.node("n");
        c.add_resistor(n, Circuit::GROUND, 1e3);
        let err = c.run_transient(TransientSpec::new(1e-20, 1.0)).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidTransientSpec { .. }));
    }

    #[test]
    fn inverter_switches() {
        // CMOS inverter: PMOS pull-up, NMOS pull-down, input steps 0 → Vdd.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.add_dc_voltage(vdd, 1.2);
        c.add_voltage_source(
            vin,
            Circuit::GROUND,
            SourceWave::Step {
                from: 0.0,
                to: 1.2,
                at: 1e-9,
                rise: 0.05e-9,
            },
        );
        c.add_mosfet(out, vin, Circuit::GROUND, MosParams::nmos(0.4, 400e-6));
        c.add_mosfet(out, vin, vdd, MosParams::pmos(0.4, 200e-6));
        c.add_capacitor(out, Circuit::GROUND, 10e-15);
        c.set_initial_voltage(out, 1.2);
        let res = c
            .run_transient(TransientSpec::new(1e-12, 4e-9))
            .expect("runs");
        let wf = res.waveform(out);
        assert!(wf.sample(0.9e-9) > 1.1, "output high before the input step");
        assert!(wf.sample(3.9e-9) < 0.1, "output low after the input step");
    }

    #[test]
    fn ground_waveform_is_zero() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.add_resistor(n, Circuit::GROUND, 1e3);
        c.add_capacitor(n, Circuit::GROUND, 1e-12);
        let res = c
            .run_transient(TransientSpec::new(1e-9, 1e-8))
            .expect("runs");
        let g = res.waveform(Circuit::GROUND);
        assert!(g.samples().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn work_measure_accumulates() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.add_resistor(n, Circuit::GROUND, 1e3);
        c.add_capacitor(n, Circuit::GROUND, 1e-12);
        let res = c
            .run_transient(TransientSpec::new(1e-9, 1e-7))
            .expect("runs");
        assert!(res.total_newton_iterations >= 100);
    }
}
