//! Table 1: accuracy/runtime trade-offs of the analytical model.
//!
//! For six bank geometries, the pre-sensing delay (to 95 % of the final
//! bitline swing, in array-clock cycles) measured three ways: transient
//! ("SPICE") simulation, the single-cell model of Li et al., and our
//! analytical model — plus the wall-clock time of each.
//!
//! Paper values (cycles): SPICE 7/8/9/11/14/16, single-cell 6 for every
//! geometry, ours 7/8/9/10/12/14. Absolute runtimes differ from the
//! paper's commercial-SPICE hours, but the ordering (transient ≫ ours >
//! single-cell) and the growth of transient time with bank size hold.
//!
//! The transient netlist instantiates a victim-centred window of
//! bitlines (9 for 32-column, 17 for 128-column geometries); coupling
//! beyond a few neighbors is negligible.

use serde::Serialize;

use vrl_circuit::tech::{BankGeometry, Technology};
use vrl_circuit::validation::measure_presensing;

#[derive(Serialize)]
struct Table1Row {
    geometry: String,
    spice_cycles: usize,
    single_cell_cycles: usize,
    our_cycles: usize,
    spice_seconds: f64,
    single_cell_seconds: f64,
    our_seconds: f64,
}

fn main() {
    vrl_bench::section("Table 1 — pre-sensing delay: accuracy and runtime");
    let tech = Technology::n90();

    println!(
        "{:>12} | {:>6} {:>8} {:>6} | {:>10} {:>12} {:>10}",
        "bank", "SPICE", "single", "ours", "SPICE (s)", "single (s)", "ours (s)"
    );
    let mut rows = Vec::new();
    for geometry in BankGeometry::table1_configs() {
        let window = if geometry.cols >= 128 { 17 } else { 9 };
        let row = measure_presensing(&tech, geometry, window).expect("transient simulation");
        println!(
            "{:>12} | {:>6} {:>8} {:>6} | {:>10.3} {:>12.2e} {:>10.2e}",
            geometry.to_string(),
            row.spice_cycles,
            row.single_cell_cycles,
            row.our_cycles,
            row.spice_seconds,
            row.single_cell_seconds,
            row.our_seconds,
        );
        rows.push(Table1Row {
            geometry: geometry.to_string(),
            spice_cycles: row.spice_cycles,
            single_cell_cycles: row.single_cell_cycles,
            our_cycles: row.our_cycles,
            spice_seconds: row.spice_seconds,
            single_cell_seconds: row.single_cell_seconds,
            our_seconds: row.our_seconds,
        });
    }

    let max_err = rows
        .iter()
        .map(|r| (r.our_cycles as f64 - r.spice_cycles as f64).abs() / r.spice_cycles as f64)
        .fold(0.0, f64::max);
    println!(
        "\nour model vs transient reference: max error {:.1}%  (paper: 0–12.5%)",
        max_err * 100.0
    );
    println!("single-cell model is geometry-blind: constant cycles everywhere (paper: 6)");

    vrl_bench::write_json("table1", &rows);
}
