//! Bit-identity guard for the transient circuit solver.
//!
//! Table 1 and Figure 5 compare the analytical model against
//! `vrl-spice`'s transient waveforms, so every sample those waveforms
//! hold is part of the reproduction's contract. The constants below are
//! FNV-1a 64 hashes over the bits of every bitline, cell and wordline
//! sample of each circuit, followed by its Newton iteration count. They
//! were recorded with the dense LU solver. A change to the solver must
//! leave them passing unedited; a change meant to alter waveforms
//! re-records them and says so.

use vrl::circuit::charge_sharing::ChargeSharingModel;
use vrl::circuit::tech::{BankGeometry, Technology};
use vrl::spice::circuits::{
    charge_sharing_array, equalization_circuit, sense_restore_circuit, DramCircuitParams,
    SenseTiming,
};
use vrl::spice::{operating_point, Node, TransientResult, TransientSpec};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Coupling windows covered in the default (debug-affordable) run.
const WINDOWS: [usize; 4] = [1, 2, 3, 5];

/// Table 1's product windows, covered by the ignored test.
const PRODUCT_WINDOWS: [usize; 2] = [9, 17];

/// `(geometry, window, newton_iterations, fnv1a64)` for the Table 1
/// pre-sensing circuits.
const TABLE1_EXPECTED: &[(&str, usize, usize, u64)] = &[
    ("2048x32", 1, 8084, 0x6a6a13c914f49e38),
    ("2048x32", 2, 8236, 0x76e573488bcbc1ff),
    ("2048x32", 3, 8238, 0xee7a25d2ac49b6fe),
    ("2048x32", 5, 8238, 0xe9ec066185106b31),
    ("2048x128", 1, 8153, 0xe0d82413055dc741),
    ("2048x128", 2, 8290, 0xbd2f04ca42dc93a4),
    ("2048x128", 3, 8292, 0x284d85222eac3e37),
    ("2048x128", 5, 8292, 0xf5374d1dee93aeda),
    ("8192x32", 1, 8223, 0xf09080e3629b4f8f),
    ("8192x32", 2, 8268, 0xbe46d9e9ab321176),
    ("8192x32", 3, 8268, 0x0b8ffc4ff7110cf9),
    ("8192x32", 5, 8268, 0x690cd127d41f597f),
    ("8192x128", 1, 8272, 0x0d54697ae719b33f),
    ("8192x128", 2, 8322, 0xcba5d71ba1df7306),
    ("8192x128", 3, 8322, 0xa6cfe61680669fbf),
    ("8192x128", 5, 8323, 0x3f22e865a659d9bd),
    ("16384x32", 1, 7471, 0x4d76575f1f7080aa),
    ("16384x32", 2, 7524, 0x1f910ce1e66a6bbf),
    ("16384x32", 3, 7527, 0x9c2ca4f355ae8467),
    ("16384x32", 5, 7569, 0x12a76dd09ad9ce08),
    ("16384x128", 1, 7456, 0x13fb56caf630a45d),
    ("16384x128", 2, 7518, 0x41824c955f517553),
    ("16384x128", 3, 7522, 0x9c2331793bc265bc),
    ("16384x128", 5, 7563, 0xb9fe7e72c641028b),
];

/// The same, at the product windows.
const PRODUCT_EXPECTED: &[(&str, usize, usize, u64)] = &[
    ("2048x32", 9, 8238, 0x6910a4406d20489e),
    ("2048x32", 17, 8238, 0x81ba141ff6250b2b),
    ("2048x128", 9, 8292, 0xfbdca0045ff2b842),
    ("2048x128", 17, 8292, 0x2dec2ef93b4485e0),
    ("8192x32", 9, 8268, 0x0dabaf3e2c779c25),
    ("8192x32", 17, 8268, 0x9e29cb0171f73e00),
    ("8192x128", 9, 8323, 0x9c8af0fc9c85534a),
    ("8192x128", 17, 8323, 0x9b9fe1f22c2baf43),
    ("16384x32", 9, 7570, 0xa9c395ab76e42795),
    ("16384x32", 17, 7570, 0xcb588a2441624be3),
    ("16384x128", 9, 7563, 0x04e9676e63a01b6a),
    ("16384x128", 17, 7563, 0xd7c6dc043595cd1f),
];

/// `(circuit, newton_iterations, fnv1a64)` for the Figure 5 equalization
/// and the Figure 2d sense-and-restore circuits.
const OTHER_EXPECTED: &[(&str, usize, u64)] = &[
    ("equalization", 5044, 0x629d3a50372826dc),
    ("sense-restore 0.3", 5493, 0xc1a3b67be81387cf),
    ("sense-restore 0.55", 5387, 0xcf1586ec80f9e236),
    ("sense-restore 0.8", 5532, 0x2fc9c5bfcd2c1393),
];

fn fold_bytes(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Hashes every sample of `nodes` (node by node, in time order) and then
/// the run's Newton iteration count.
fn digest(result: &TransientResult, nodes: &[Node]) -> (usize, u64) {
    let mut h = FNV_OFFSET;
    for &node in nodes {
        for &v in result.waveform(node).samples() {
            h = fold_bytes(h, v.to_bits().to_le_bytes());
        }
    }
    let iterations = result.total_newton_iterations;
    (iterations, fold_bytes(h, (iterations as u64).to_le_bytes()))
}

/// The pre-sensing circuit `measure_presensing` solves for one Table 1
/// geometry and window, hashed over its bitlines, cells and wordline.
fn presensing(tech: &Technology, geometry: BankGeometry, window: usize) -> (usize, u64) {
    let params = tech.to_spice_params(geometry);
    let pattern: Vec<bool> = (0..window).map(|i| i % 2 == 0).collect();
    let (ckt, nodes) = charge_sharing_array(&params, &pattern, 1e-12);
    let model = ChargeSharingModel::new(tech, geometry);
    let horizon = (model.settling_time(0.995) * 2.0).max(2e-9);
    let result = ckt
        .run_transient(TransientSpec::new(horizon / 4000.0, horizon))
        .expect("pre-sensing circuit solves");
    let mut all = nodes.bitlines.clone();
    all.extend(&nodes.cells);
    all.push(nodes.wordline);
    digest(&result, &all)
}

fn table1(windows: &[usize]) -> Vec<(String, usize, usize, u64)> {
    let tech = Technology::n90();
    let mut actual = Vec::new();
    for geometry in BankGeometry::table1_configs() {
        for &window in windows {
            let (iterations, h) = presensing(&tech, geometry, window);
            actual.push((geometry.to_string(), window, iterations, h));
        }
    }
    actual
}

fn check_table1(actual: &[(String, usize, usize, u64)], expected: &[(&str, usize, usize, u64)]) {
    let listing: String = actual
        .iter()
        .map(|(g, w, it, h)| format!("    ({g:?}, {w}, {it}, {h:#018x}),\n"))
        .collect();
    let actual: Vec<(&str, usize, usize, u64)> = actual
        .iter()
        .map(|(g, w, it, h)| (g.as_str(), *w, *it, *h))
        .collect();
    assert_eq!(
        actual.as_slice(),
        expected,
        "transient waveforms changed; actual table:\n{listing}"
    );
}

#[test]
fn table1_presensing_waveforms_match_recorded_hashes() {
    check_table1(&table1(&WINDOWS), TABLE1_EXPECTED);
}

#[test]
#[ignore = "product windows take several seconds in a release build"]
fn table1_product_window_waveforms_match_recorded_hashes() {
    check_table1(&table1(&PRODUCT_WINDOWS), PRODUCT_EXPECTED);
}

#[test]
fn equalization_and_sense_restore_waveforms_match_recorded_hashes() {
    let tech = Technology::n90();
    let mut actual = Vec::new();

    // Figure 5: `compare_equalization` over 2 ns in 2000 steps.
    let params = tech.to_spice_params(BankGeometry::operational_segment());
    let (ckt, nodes) = equalization_circuit(&params, 1e-12);
    let result = ckt
        .run_transient(TransientSpec::new(2e-9 / 2000.0, 2e-9))
        .expect("equalization solves");
    let (iterations, h) = digest(&result, &[nodes.bl, nodes.blb]);
    actual.push(("equalization".to_string(), iterations, h));

    // Figure 2d: sense and restore from a few stored charges, through the
    // sense-amplifier enable at 1.2 ns.
    let params = DramCircuitParams::n90();
    for fraction in [0.3, 0.55, 0.8] {
        let (ckt, nodes) = sense_restore_circuit(&params, fraction, SenseTiming::default());
        let result = ckt
            .run_transient(TransientSpec::new(2e-12, 4e-9))
            .expect("sense-restore solves");
        let (iterations, h) = digest(&result, &[nodes.bl, nodes.blb, nodes.cell]);
        actual.push((format!("sense-restore {fraction}"), iterations, h));
    }

    let listing: String = actual
        .iter()
        .map(|(name, it, h)| format!("    ({name:?}, {it}, {h:#018x}),\n"))
        .collect();
    let actual: Vec<(&str, usize, u64)> = actual
        .iter()
        .map(|(name, it, h)| (name.as_str(), *it, *h))
        .collect();
    assert_eq!(
        actual.as_slice(),
        OTHER_EXPECTED,
        "transient waveforms changed; actual table:\n{listing}"
    );
}

/// FNV-1a 64 over the operating point of the sense-and-restore circuit:
/// the bitline, complementary bitline and cell voltages, then the branch
/// current of each of its four voltage sources.
const OPERATING_POINT_EXPECTED: u64 = 0x987e4d2d92923a4b;

#[test]
fn operating_point_matches_recorded_hash() {
    let params = DramCircuitParams::n90();
    let (ckt, nodes) = sense_restore_circuit(&params, 0.55, SenseTiming::default());
    let op = operating_point(&ckt).expect("operating point converges");
    let values = [nodes.bl, nodes.blb, nodes.cell]
        .map(|n| op.voltage(n))
        .into_iter()
        .chain((0..ckt.voltage_source_count()).map(|k| op.source_current(k)));
    let h = values.fold(FNV_OFFSET, |h, v| fold_bytes(h, v.to_bits().to_le_bytes()));
    assert_eq!(
        h, OPERATING_POINT_EXPECTED,
        "operating point changed: {h:#018x}"
    );
}
