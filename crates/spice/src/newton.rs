//! Damped Newton–Raphson iteration, shared by the DC and transient
//! analyses.

use crate::error::SpiceError;
use crate::mna;
use crate::netlist::Circuit;
use crate::sparse::SparseSystem;

/// Convergence tolerance on node-voltage updates (volts).
const VTOL: f64 = 1e-9;

/// Iteration budget and update clamp of one Newton solve.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Damping {
    /// Iterations before giving up.
    pub max_iterations: usize,
    /// Per-iteration clamp on each node-voltage update (volts).
    pub vstep_limit: f64,
}

/// Solves `circuit` at `time` by damped Newton iteration, warm-started
/// from `x` and leaving the converged iterate there. `v_prev` holds the
/// node voltages of the previous time point and `dt` the step, for the
/// capacitor companion models. Returns the iterations taken.
///
/// # Errors
///
/// [`SpiceError::SingularMatrix`] if a linearized system is singular,
/// [`SpiceError::NoConvergence`] if the budget runs out.
pub(crate) fn solve(
    circuit: &Circuit,
    sys: &mut SparseSystem,
    x: &mut [f64],
    v_prev: &[f64],
    time: f64,
    dt: f64,
    damping: Damping,
) -> Result<usize, SpiceError> {
    let n_nodes = circuit.node_count() - 1;
    let limit = damping.vstep_limit;
    let mut residual = f64::INFINITY;
    for iteration in 1..=damping.max_iterations {
        mna::assemble(circuit, x, v_prev, time, dt, sys);
        let x_new = sys
            .solve()
            .map_err(|_| SpiceError::SingularMatrix { time })?;
        // Damped update on node voltages; source currents move freely.
        let mut max_delta: f64 = 0.0;
        for (i, (xi, &new)) in x.iter_mut().zip(x_new).enumerate() {
            let mut delta = new - *xi;
            if i < n_nodes {
                delta = delta.clamp(-limit, limit);
                max_delta = max_delta.max(delta.abs());
            }
            *xi += delta;
        }
        residual = max_delta;
        if max_delta < VTOL {
            return Ok(iteration);
        }
    }
    Err(SpiceError::NoConvergence {
        time,
        iterations: damping.max_iterations,
        residual,
    })
}
