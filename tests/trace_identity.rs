//! Bit-identity guard for the synthetic trace generator.
//!
//! Every experiment, served result, golden file and checkpoint in this
//! repository regenerates its trace through `vrl_trace::gen::Records`,
//! so the generator's output is part of the reproduction's contract. The
//! constants below are FNV-1a 64 hashes over `(cycle, op, row)` of every
//! record of every preset, recorded from the generator before its
//! samplers were table-driven. A change to the generator must leave them
//! passing unedited; a change meant to alter traces re-records them and
//! says so.

use vrl::trace::gen::{Workload, WorkloadSpec};
use vrl::trace::{Op, TraceRecord};

/// Simulated milliseconds per stream: long enough for every preset to
/// produce thousands of records, short enough for a debug build.
const DURATION_MS: f64 = 8.0;

/// Experiment seeds covered.
const SEEDS: [u64; 2] = [42, 90210];

/// Bank geometries covered: the paper's bank, a small power of two, and
/// a non-power-of-two (exercises the modulo row spread).
const ROWS: [u32; 3] = [8192, 512, 1000];

/// `(benchmark, seed, rows, records, fnv1a64)`.
const EXPECTED: &[(&str, u64, u32, usize, u64)] = &[
    ("blackscholes", 42, 8192, 8028, 0x228e948b4983f9fd),
    ("bodytrack", 42, 8192, 15946, 0x3c83ed83e8aefbed),
    ("canneal", 42, 8192, 47639, 0x5bb4660cde2c8531),
    ("dedup", 42, 8192, 39846, 0xd89608eeba16c9da),
    ("facesim", 42, 8192, 23921, 0x1b7debdf8845057f),
    ("ferret", 42, 8192, 31801, 0xe3a32beb7baab473),
    ("fluidanimate", 42, 8192, 19965, 0xe4ab0e1df453e45a),
    ("freqmine", 42, 8192, 23921, 0x2bfe845c66f3594c),
    ("raytrace", 42, 8192, 11947, 0x08c0865bdb01df1e),
    ("streamcluster", 42, 8192, 55602, 0x6b4c7f86425a6578),
    ("swaptions", 42, 8192, 6386, 0x7238838dd74e41db),
    ("vips", 42, 8192, 35802, 0x588cfbff0255c0f3),
    ("x264", 42, 8192, 43747, 0xd4801d1da8d3c565),
    ("bgsave", 42, 8192, 63421, 0x7ed176d819961ad5),
    ("blackscholes", 42, 512, 8028, 0x47c610d80b17c0a3),
    ("bodytrack", 42, 512, 15946, 0x6f08c652ca94d6ad),
    ("canneal", 42, 512, 47639, 0xcb3a1992644e3b81),
    ("dedup", 42, 512, 39846, 0xd9104217f4084b3f),
    ("facesim", 42, 512, 23921, 0x509937b558d18606),
    ("ferret", 42, 512, 31801, 0xa343a3d18df5bb30),
    ("fluidanimate", 42, 512, 19965, 0x7ffe326c395e7ffd),
    ("freqmine", 42, 512, 23921, 0x487a9aaaee3d5e45),
    ("raytrace", 42, 512, 11947, 0x2ca0444419d3c5f0),
    ("streamcluster", 42, 512, 55602, 0xb7510c87e75b5d8c),
    ("swaptions", 42, 512, 6386, 0x6f937ca7e3d2115a),
    ("vips", 42, 512, 35802, 0x8acd34ab8d0cdcd1),
    ("x264", 42, 512, 43747, 0xc581d11fbb67d51f),
    ("bgsave", 42, 512, 63421, 0x47700ab037c4a5b5),
    ("blackscholes", 42, 1000, 8028, 0xf9e73afe0530a49c),
    ("bodytrack", 42, 1000, 15946, 0x93b470ffa0842c39),
    ("canneal", 42, 1000, 47639, 0xca74643854abc5a7),
    ("dedup", 42, 1000, 39846, 0x5af49a1f79fbbac0),
    ("facesim", 42, 1000, 23921, 0xef6a59610796a3e8),
    ("ferret", 42, 1000, 31801, 0x8a4adb647ea87c25),
    ("fluidanimate", 42, 1000, 19965, 0x3853cd82b3863db8),
    ("freqmine", 42, 1000, 23921, 0xb67f4720dc1013b0),
    ("raytrace", 42, 1000, 11947, 0xf215c89ace6e0905),
    ("streamcluster", 42, 1000, 55602, 0xdc6002f827139688),
    ("swaptions", 42, 1000, 6386, 0x44e007fea0ba6280),
    ("vips", 42, 1000, 35802, 0xd13bb643fb9b2723),
    ("x264", 42, 1000, 43747, 0xea32c58154453c2c),
    ("bgsave", 42, 1000, 63421, 0x831b48656b270244),
    ("blackscholes", 90210, 8192, 8041, 0x9292459f9cd852ea),
    ("bodytrack", 90210, 8192, 16076, 0x0ea40d240bdf9ba9),
    ("canneal", 90210, 8192, 47908, 0x295dcadea0652a37),
    ("dedup", 90210, 8192, 39868, 0x92ba801a460a41c5),
    ("facesim", 90210, 8192, 24022, 0x8a48d4f1b2a01d11),
    ("ferret", 90210, 8192, 31916, 0x547fb50fd52147d5),
    ("fluidanimate", 90210, 8192, 20035, 0xe9c810a2b6ea3363),
    ("freqmine", 90210, 8192, 24022, 0x95278e94264b3eb6),
    ("raytrace", 90210, 8192, 12005, 0x3a881859b782a882),
    ("streamcluster", 90210, 8192, 55676, 0xa43ed3bd6da78572),
    ("swaptions", 90210, 8192, 6479, 0xe4d9fcc6411c9380),
    ("vips", 90210, 8192, 35897, 0xb78d8299fe629a2a),
    ("x264", 90210, 8192, 43843, 0xc8d383b24bc6f84c),
    ("bgsave", 90210, 8192, 63593, 0x6ea0801916effdb1),
    ("blackscholes", 90210, 512, 8041, 0xef375f28e0b4aef3),
    ("bodytrack", 90210, 512, 16076, 0xbc3f6e9f8e8ba1b8),
    ("canneal", 90210, 512, 47908, 0x9fcc49f8d7c32d37),
    ("dedup", 90210, 512, 39868, 0x2ff6082e589b058e),
    ("facesim", 90210, 512, 24022, 0x546fef416cd7d5fb),
    ("ferret", 90210, 512, 31916, 0x9e8b00f536962883),
    ("fluidanimate", 90210, 512, 20035, 0x8783407f4fe6aba6),
    ("freqmine", 90210, 512, 24022, 0x11e66696e46aeb0a),
    ("raytrace", 90210, 512, 12005, 0x29e63283309d92fb),
    ("streamcluster", 90210, 512, 55676, 0xd91055877030aeaf),
    ("swaptions", 90210, 512, 6479, 0x257ab4fa817d7416),
    ("vips", 90210, 512, 35897, 0x9772105d35e114b2),
    ("x264", 90210, 512, 43843, 0xbe58fab064c418e2),
    ("bgsave", 90210, 512, 63593, 0xabaf21e325936741),
    ("blackscholes", 90210, 1000, 8041, 0x007d9b42e473d372),
    ("bodytrack", 90210, 1000, 16076, 0xe9bf1d6bbdfca9dc),
    ("canneal", 90210, 1000, 47908, 0x881453b3151c7b13),
    ("dedup", 90210, 1000, 39868, 0xfab50aa2b6ab1d6e),
    ("facesim", 90210, 1000, 24022, 0x27d1e904e21905ba),
    ("ferret", 90210, 1000, 31916, 0x47d2616328b7b602),
    ("fluidanimate", 90210, 1000, 20035, 0x662284cc4d3b631a),
    ("freqmine", 90210, 1000, 24022, 0xec295e7dcfeb5844),
    ("raytrace", 90210, 1000, 12005, 0x75c0159fec81b849),
    ("streamcluster", 90210, 1000, 55676, 0x419cf49c3826a8e0),
    ("swaptions", 90210, 1000, 6479, 0xc93efda5d9c05b51),
    ("vips", 90210, 1000, 35897, 0x35e0142aa8f4449c),
    ("x264", 90210, 1000, 43843, 0xe12834e86991fd8f),
    ("bgsave", 90210, 1000, 63593, 0xee029e7dbb0f5690),
];

/// Folds one record into an FNV-1a 64 state: cycle (8 bytes LE), op
/// (0 = read, 1 = write), row (4 bytes LE).
fn fold(mut h: u64, r: &TraceRecord) -> u64 {
    let op = match r.op {
        Op::Read => 0u8,
        Op::Write => 1u8,
    };
    let bytes = r
        .cycle
        .to_le_bytes()
        .into_iter()
        .chain([op])
        .chain(r.row.to_le_bytes());
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn digest(name: &str, seed: u64, rows: u32) -> (usize, u64) {
    let spec = WorkloadSpec::parsec(name).expect("preset exists");
    Workload::new(spec, rows, seed)
        .records(DURATION_MS)
        .fold((0, 0xcbf2_9ce4_8422_2325), |(n, h), r| (n + 1, fold(h, &r)))
}

#[test]
fn generated_traces_match_recorded_hashes() {
    let mut actual = Vec::new();
    for &seed in &SEEDS {
        for &rows in &ROWS {
            for name in WorkloadSpec::BENCHMARKS {
                let (n, h) = digest(name, seed, rows);
                actual.push((name, seed, rows, n, h));
            }
        }
    }
    let listing: String = actual
        .iter()
        .map(|(name, seed, rows, n, h)| {
            format!("    ({name:?}, {seed}, {rows}, {n}, {h:#018x}),\n")
        })
        .collect();
    assert_eq!(
        actual.as_slice(),
        EXPECTED,
        "generated traces changed; actual table:\n{listing}"
    );
}
