//! # vrl-spice — a minimal transient circuit simulator
//!
//! This crate is the "SPICE" substrate of the VRL-DRAM reproduction. The
//! paper validates its analytical refresh model against detailed SPICE
//! simulations (Figure 1a, Figure 5, Table 1); since no commercial SPICE is
//! available here, this crate provides a small but real transient simulator:
//!
//! * modified nodal analysis ([`mna`]) over resistors, capacitors, voltage
//!   and current sources, and level-1 (Shichman–Hodges) MOSFETs,
//! * Newton–Raphson iteration with backward-Euler integration
//!   ([`transient`]),
//! * an exact sparse LU ([`sparse`]) that replays a compiled elimination
//!   plan and matches the dense partial-pivoting LU of [`linalg`] bit for
//!   bit,
//! * waveform capture and measurement helpers ([`waveform`]),
//! * prebuilt netlists for the DRAM circuits of the paper's Figure 2
//!   ([`circuits`]).
//!
//! The simulator is intentionally scoped to the handful of circuit structures
//! that the paper simulates (bitline equalization, cell-to-bitline charge
//! sharing, the latch-based voltage sense amplifier). It reproduces the
//! *qualitative* waveforms and the accuracy/runtime trade-off between a
//! numerical transient solver and the paper's closed-form model; it does not
//! aim for BSIM-level device accuracy.
//!
//! # Example
//!
//! Simulate an RC discharge and check the 1-τ point:
//!
//! ```
//! use vrl_spice::{Circuit, TransientSpec};
//!
//! # fn main() -> Result<(), vrl_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let n = ckt.node("out");
//! ckt.add_resistor(n, Circuit::GROUND, 1e3);      // 1 kΩ to ground
//! ckt.add_capacitor(n, Circuit::GROUND, 1e-9);    // 1 nF
//! ckt.set_initial_voltage(n, 1.0);                // precharged to 1 V
//! let result = ckt.run_transient(TransientSpec::new(1e-8, 5e-6))?;
//! let v_tau = result.waveform(n).sample(1e-6);    // t = RC
//! assert!((v_tau - 1.0 / std::f64::consts::E).abs() < 1e-2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod circuits;
pub mod dc;
pub mod elements;
pub mod error;
pub mod linalg;
pub mod mna;
pub mod mosfet;
pub mod netlist;
pub mod netlist_io;
mod newton;
pub mod sparse;
pub mod transient;
pub mod waveform;

pub use dc::{operating_point, DcSolution};
pub use error::SpiceError;
pub use mosfet::{MosParams, MosType};
pub use netlist::{Circuit, Node};
pub use transient::{TransientResult, TransientSpec};
pub use waveform::Waveform;
