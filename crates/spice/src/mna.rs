//! Modified nodal analysis: stamping the linearized system.
//!
//! Unknown vector layout: `[v_1 .. v_{N-1}, i_src_0 .. i_src_{M-1}]` where
//! node 0 (ground) is eliminated. Nonlinear devices (MOSFETs) are stamped as
//! their Newton companion model: a conductance + transconductance + residual
//! current source evaluated at the previous Newton iterate.

use crate::elements::Element;
use crate::netlist::{Circuit, Node};
use crate::sparse::SparseSystem;

/// Minimum conductance from every node to ground, for convergence and to
/// keep otherwise-floating nodes (e.g. a cut-off MOSFET drain) solvable.
pub const GMIN: f64 = 1e-12;

/// Returns the unknown-vector index for a node, or `None` for ground.
#[inline]
fn unk(node: Node) -> Option<usize> {
    let i = node.index();
    if i == 0 {
        None
    } else {
        Some(i - 1)
    }
}

/// Reads a node voltage from the current iterate `x` (ground = 0).
#[inline]
pub fn node_voltage(x: &[f64], node: Node) -> f64 {
    match unk(node) {
        None => 0.0,
        Some(i) => x[i],
    }
}

/// Stamps a conductance `g` between nodes `a` and `b`.
fn stamp_conductance(m: &mut SparseSystem, a: Node, b: Node, g: f64) {
    if let Some(i) = unk(a) {
        m.add(i, i, g);
        if let Some(j) = unk(b) {
            m.add(i, j, -g);
        }
    }
    if let Some(j) = unk(b) {
        m.add(j, j, g);
        if let Some(i) = unk(a) {
            m.add(j, i, -g);
        }
    }
}

/// Stamps a current `i_amps` flowing *into* node `into` and out of
/// `out_of`.
fn stamp_current(m: &mut SparseSystem, into: Node, out_of: Node, i_amps: f64) {
    if let Some(i) = unk(into) {
        m.rhs_mut()[i] += i_amps;
    }
    if let Some(j) = unk(out_of) {
        m.rhs_mut()[j] -= i_amps;
    }
}

/// Number of unknowns of a circuit's MNA system: node voltages (ground
/// excluded) then voltage-source branch currents.
pub fn unknowns(circuit: &Circuit) -> usize {
    circuit.node_count() - 1 + circuit.voltage_source_count()
}

/// Stamps the MNA system for one Newton iteration into `m`, which is
/// cleared first.
///
/// * `x` — current Newton iterate (node voltages then source currents).
/// * `v_prev` — node voltages at the previous accepted *time point* (for
///   capacitor companion models).
/// * `time` — the time point being solved (sources are evaluated here).
/// * `dt` — the backward-Euler step size.
///
/// # Panics
///
/// Panics if `m` does not have [`unknowns`]`(circuit)` rows.
pub fn assemble(
    circuit: &Circuit,
    x: &[f64],
    v_prev: &[f64],
    time: f64,
    dt: f64,
    m: &mut SparseSystem,
) {
    let n_nodes = circuit.node_count() - 1;
    assert_eq!(m.dim(), unknowns(circuit), "system size mismatch");
    m.clear();

    // GMIN from every node to ground.
    for i in 0..n_nodes {
        m.add(i, i, GMIN);
    }

    for element in circuit.elements() {
        match element {
            Element::Resistor { a, b, ohms } => {
                stamp_conductance(m, *a, *b, 1.0 / ohms);
            }
            Element::Capacitor { a, b, farads } => {
                // Backward Euler companion: geq = C/dt, ieq = geq * v_prev.
                let geq = farads / dt;
                let vprev = node_voltage(v_prev, *a) - node_voltage(v_prev, *b);
                stamp_conductance(m, *a, *b, geq);
                stamp_current(m, *a, *b, geq * vprev);
            }
            Element::VoltageSource {
                pos,
                neg,
                wave,
                branch,
            } => {
                let row = n_nodes + branch;
                if let Some(i) = unk(*pos) {
                    m.add(i, row, 1.0);
                    m.add(row, i, 1.0);
                }
                if let Some(j) = unk(*neg) {
                    m.add(j, row, -1.0);
                    m.add(row, j, -1.0);
                }
                m.rhs_mut()[row] += wave.value_at(time);
            }
            Element::CurrentSource { into, out_of, wave } => {
                stamp_current(m, *into, *out_of, wave.value_at(time));
            }
            Element::Mosfet {
                drain,
                gate,
                source,
                params,
            } => {
                stamp_mosfet(m, x, *drain, *gate, *source, params);
            }
        }
    }
}

/// Stamps a MOSFET's Newton companion model at iterate `x`.
///
/// The level-1 device is symmetric; we orient it so the effective drain is
/// the higher-potential terminal for NMOS (lower for PMOS), evaluate
/// `(ids, gm, gds)` in that orientation, and stamp:
///
/// * conductance `gds` between effective drain and source,
/// * VCCS `gm` from (gate − source) into the drain,
/// * residual current `ids − gm·vgs − gds·vds` into the drain.
fn stamp_mosfet(
    m: &mut SparseSystem,
    x: &[f64],
    drain: Node,
    gate: Node,
    source: Node,
    params: &crate::mosfet::MosParams,
) {
    use crate::mosfet::MosType;

    let vd = node_voltage(x, drain);
    let vs = node_voltage(x, source);
    // Effective orientation: NMOS conducts from the higher terminal (drain)
    // to the lower (source); PMOS the opposite.
    let swapped = match params.mos_type {
        MosType::Nmos => vd < vs,
        MosType::Pmos => vd > vs,
    };
    let (d, s) = if swapped {
        (source, drain)
    } else {
        (drain, source)
    };
    let vds = node_voltage(x, d) - node_voltage(x, s);
    let vgs = node_voltage(x, gate) - node_voltage(x, s);

    let ids = params.ids(vgs, vds);
    let gm = params.gm(vgs, vds);
    let gds = params.gds(vgs, vds);
    // For PMOS the normalized (NMOS-quadrant) current flows source→drain in
    // real polarity; sign bookkeeping: in the normalized quadrant, current
    // enters the effective drain. Convert back: for NMOS positive ids flows
    // d → s; for PMOS the normalized ids corresponds to s → d in real
    // voltages, which is again "into d, out of s" after our terminal swap
    // convention — but with negated voltage sense. Handle via sign.
    let sign = match params.mos_type {
        MosType::Nmos => 1.0,
        MosType::Pmos => -1.0,
    };
    // Derivatives w.r.t. real node voltages: for PMOS, normalized
    // vgs_n = -vgs, vds_n = -vds, ids_real = -ids_n ⇒ d ids_real/d vgs =
    // (-1)·gm·(-1) = gm. So the small-signal conductances stamp with the
    // same sign for both polarities; only the residual current needs `sign`.
    let i_resid = sign * ids - gm * vgs - gds * vds;

    // gds between d and s.
    stamp_conductance(m, d, s, gds.max(0.0));
    // VCCS: current gm*(vg - vs) into d, out of s.
    if let Some(di) = unk(d) {
        if let Some(g) = unk(gate) {
            m.add(di, g, gm);
        }
        if let Some(si) = unk(s) {
            m.add(di, si, -gm);
        }
    }
    if let Some(si) = unk(s) {
        if let Some(g) = unk(gate) {
            m.add(si, g, -gm);
        }
        m.add(si, si, gm);
    }
    // Residual current flows d → s inside the device, i.e. it *leaves* node
    // d and *enters* node s from the external circuit's point of view.
    stamp_current(m, s, d, i_resid);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::SourceWave;
    use crate::mosfet::MosParams;

    /// Solve one static system (dt huge so capacitors vanish).
    fn solve_static(circuit: &Circuit) -> Vec<f64> {
        let n = unknowns(circuit);
        let mut x = vec![0.0; n];
        let mut sys = SparseSystem::new(n);
        // A few Newton iterations for nonlinear content.
        for _ in 0..50 {
            assemble(circuit, &x, &x, 0.0, 1e9, &mut sys);
            let b = sys.solve().expect("nonsingular").to_vec();
            let delta: f64 = x
                .iter()
                .zip(&b)
                .map(|(a, c)| (a - c).abs())
                .fold(0.0, f64::max);
            x = b;
            if delta < 1e-12 {
                break;
            }
        }
        x
    }

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_dc_voltage(vin, 2.0);
        c.add_resistor(vin, out, 1e3);
        c.add_resistor(out, Circuit::GROUND, 1e3);
        let x = solve_static(&c);
        assert!((node_voltage(&x, out) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn floating_voltage_source_between_nodes() {
        // A source between two non-ground nodes: out = mid + 0.5 V.
        let mut c = Circuit::new();
        let mid = c.node("mid");
        let out = c.node("out");
        c.add_dc_voltage(mid, 1.0);
        c.add_voltage_source(out, mid, SourceWave::Dc(0.5));
        c.add_resistor(out, Circuit::GROUND, 1e3);
        let x = solve_static(&c);
        assert!((node_voltage(&x, out) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.add_current_source(n, Circuit::GROUND, SourceWave::Dc(1e-3));
        c.add_resistor(n, Circuit::GROUND, 1e3);
        let x = solve_static(&c);
        assert!((node_voltage(&x, n) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn nmos_saturation_pulls_current() {
        // Vdd -- R -- drain, gate at 1.2 V, source grounded. Expect the
        // device to sink Idsat and the drain to drop accordingly.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        let g = c.node("g");
        c.add_dc_voltage(vdd, 1.2);
        c.add_dc_voltage(g, 0.9);
        c.add_resistor(vdd, d, 1e3);
        let params = MosParams::nmos(0.4, 400e-6);
        c.add_mosfet(d, g, Circuit::GROUND, params);
        let x = solve_static(&c);
        let vd = node_voltage(&x, d);
        // Device in saturation if vd > vov = 0.5: ids = 0.5*400u*0.25 = 50 µA
        // ⇒ drop = 50 mV ⇒ vd = 1.15 > 0.5 ✓.
        assert!((vd - 1.15).abs() < 1e-3, "vd = {vd}");
    }

    #[test]
    fn pmos_pulls_up() {
        // Vdd at source, gate at 0 ⇒ PMOS on, pulls output to near Vdd
        // through its channel against a load resistor to ground.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        c.add_dc_voltage(vdd, 1.2);
        c.add_resistor(out, Circuit::GROUND, 100e3);
        let params = MosParams::pmos(0.4, 400e-6);
        // drain = out, gate = ground, source = vdd.
        c.add_mosfet(out, Circuit::GROUND, vdd, params);
        let x = solve_static(&c);
        let vo = node_voltage(&x, out);
        assert!(vo > 1.1, "pmos should pull up, got {vo}");
    }

    #[test]
    fn cutoff_mosfet_leaves_node_at_gmin() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_dc_voltage(vdd, 1.2);
        c.add_resistor(vdd, d, 1e3);
        // Gate grounded ⇒ cutoff ⇒ d floats up to vdd through R.
        c.add_mosfet(
            d,
            Circuit::GROUND,
            Circuit::GROUND,
            MosParams::nmos(0.4, 400e-6),
        );
        let x = solve_static(&c);
        assert!((node_voltage(&x, d) - 1.2).abs() < 1e-3);
    }

    #[test]
    fn mosfet_terminal_symmetry() {
        // Swapping drain/source must give the same solution (the level-1
        // device is symmetric); wire the same pull-down both ways.
        let solve = |reversed: bool| {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let n1 = c.node("n1");
            let g = c.node("g");
            c.add_dc_voltage(vdd, 1.2);
            c.add_dc_voltage(g, 1.2);
            c.add_resistor(vdd, n1, 100e3);
            let p = MosParams::nmos(0.4, 400e-6);
            if reversed {
                c.add_mosfet(Circuit::GROUND, g, n1, p);
            } else {
                c.add_mosfet(n1, g, Circuit::GROUND, p);
            }
            let x = solve_static(&c);
            node_voltage(&x, n1)
        };
        let forward = solve(false);
        let reversed = solve(true);
        assert!((forward - reversed).abs() < 1e-9, "{forward} vs {reversed}");
        // With a 100 kΩ pull-up the ON device wins: node sits low.
        assert!(forward < 0.1, "expected pulled-down node, got {forward}");
    }
}
