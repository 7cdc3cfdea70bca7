//! DC operating-point analysis.
//!
//! Solves the static circuit (capacitors open, sources at their `t = 0`
//! values) by Newton–Raphson iteration — the `.OP` of a classic SPICE.

use crate::error::SpiceError;
use crate::mna;
use crate::netlist::{Circuit, Node};
use crate::newton::{self, Damping};
use crate::sparse::SparseSystem;

/// Newton budget and per-iteration update clamp (volts) for the operating
/// point.
const DAMPING: Damping = Damping {
    max_iterations: 200,
    vstep_limit: 0.5,
};

/// A solved DC operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    node_count: usize,
    x: Vec<f64>,
}

impl DcSolution {
    /// Voltage of a node (0 for ground).
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the solved circuit.
    pub fn voltage(&self, node: Node) -> f64 {
        let i = node.index();
        if i == 0 {
            0.0
        } else {
            assert!(i <= self.node_count, "unknown node");
            self.x[i - 1]
        }
    }

    /// Branch current of the `k`-th voltage source (amperes, flowing
    /// from the positive terminal through the source).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn source_current(&self, k: usize) -> f64 {
        self.x[self.node_count + k]
    }
}

/// Computes the DC operating point of a circuit.
///
/// Sources are evaluated at `t = 0`; capacitors are open circuits;
/// initial node voltages (set via [`Circuit::set_initial_voltage`]) seed
/// the Newton iteration, which helps bistable circuits settle on the
/// intended state.
///
/// # Errors
///
/// [`SpiceError::SingularMatrix`] if a node floats,
/// [`SpiceError::NoConvergence`] if Newton iteration fails.
pub fn operating_point(circuit: &Circuit) -> Result<DcSolution, SpiceError> {
    let n_nodes = circuit.node_count() - 1;
    let n = mna::unknowns(circuit);
    let mut x = vec![0.0; n];
    for (i, xi) in x[..n_nodes].iter_mut().enumerate() {
        *xi = circuit.initial_voltage(Node(i + 1));
    }
    // Open capacitors: huge dt makes their companion conductance vanish.
    let dt = 1e12;
    let v_prev: Vec<f64> = x[..n_nodes].to_vec();
    let mut sys = SparseSystem::new(n);
    newton::solve(circuit, &mut sys, &mut x, &v_prev, 0.0, dt, DAMPING)?;
    Ok(DcSolution {
        node_count: n_nodes,
        x,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::MosParams;

    #[test]
    fn divider_operating_point() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_dc_voltage(vin, 3.0);
        c.add_resistor(vin, out, 2e3);
        c.add_resistor(out, Circuit::GROUND, 1e3);
        let op = operating_point(&c).expect("solves");
        assert!((op.voltage(out) - 1.0).abs() < 1e-6);
        assert!((op.voltage(vin) - 3.0).abs() < 1e-9);
        // Source current: 3 V across 3 kΩ = 1 mA (flowing out of +).
        assert!((op.source_current(0).abs() - 1e-3).abs() < 1e-6);
    }

    #[test]
    fn ground_is_zero() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor(a, Circuit::GROUND, 1e3);
        let op = operating_point(&c).expect("solves");
        assert_eq!(op.voltage(Circuit::GROUND), 0.0);
    }

    #[test]
    fn capacitors_are_open_at_dc() {
        // A capacitor to a source must not affect the DC solution.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_dc_voltage(vin, 1.0);
        c.add_resistor(vin, out, 1e3);
        c.add_resistor(out, Circuit::GROUND, 1e3);
        c.add_capacitor(out, vin, 1e-9);
        let op = operating_point(&c).expect("solves");
        assert!((op.voltage(out) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn nmos_diode_connected() {
        // Diode-connected NMOS fed by a current source settles at
        // vgs = vth + sqrt(2I/β).
        let mut c = Circuit::new();
        let d = c.node("d");
        c.add_current_source(d, Circuit::GROUND, crate::elements::SourceWave::Dc(50e-6));
        c.add_mosfet(d, d, Circuit::GROUND, MosParams::nmos(0.4, 400e-6));
        c.set_initial_voltage(d, 0.8);
        let op = operating_point(&c).expect("solves");
        let expected = 0.4 + (2.0 * 50e-6 / 400e-6_f64).sqrt();
        assert!((op.voltage(d) - expected).abs() < 1e-3, "{}", op.voltage(d));
    }

    #[test]
    fn floating_node_is_still_solvable_via_gmin() {
        // A node connected only through a capacitor has no DC path; GMIN
        // keeps the matrix nonsingular and parks it at 0 V.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_dc_voltage(a, 1.0);
        c.add_capacitor(a, b, 1e-12);
        let op = operating_point(&c).expect("solves");
        assert!(op.voltage(b).abs() < 1e-6);
    }

    #[test]
    fn initial_conditions_select_latch_state() {
        // Cross-coupled inverters: the seeded state must win.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let q = c.node("q");
        let qb = c.node("qb");
        c.add_dc_voltage(vdd, 1.2);
        for (o, i) in [(q, qb), (qb, q)] {
            c.add_mosfet(o, i, Circuit::GROUND, MosParams::nmos(0.4, 400e-6));
            c.add_mosfet(o, i, vdd, MosParams::pmos(0.4, 200e-6));
        }
        c.set_initial_voltage(q, 1.1);
        c.set_initial_voltage(qb, 0.1);
        let op = operating_point(&c).expect("solves");
        assert!(op.voltage(q) > 1.0, "q = {}", op.voltage(q));
        assert!(op.voltage(qb) < 0.2, "qb = {}", op.voltage(qb));
    }
}
