//! Synthetic workload generation.
//!
//! Each PARSEC benchmark (plus the `bgsave` server workload) is emulated
//! by a parameterized generator capturing the characteristics that matter
//! to refresh scheduling: *footprint* (how many distinct rows the
//! workload touches), *locality* (how skewed the row popularity is),
//! *read/write mix*, and *intensity* (accesses per microsecond). The
//! presets follow the published PARSEC characterization \[2\]: e.g.
//! `canneal` has a large, poorly-localized footprint; `swaptions` is tiny
//! and compute-bound; `streamcluster` streams; `bgsave` sequentially
//! sweeps all of memory doing writes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::record::{Op, TraceRecord};
use crate::sample::{GapSampler, ZipfSampler};

/// How the generator picks rows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Zipf-distributed row popularity with the given exponent over the
    /// footprint (0 = uniform, larger = more skewed).
    Zipf(f64),
    /// Sequential sweep over the footprint, wrapping around.
    Sequential,
}

/// A workload specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Benchmark name.
    pub name: String,
    /// Fraction of the bank's rows the workload touches, in `(0, 1]`.
    pub footprint: f64,
    /// Row-selection pattern.
    pub pattern: AccessPattern,
    /// Fraction of accesses that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Accesses per microsecond reaching this bank.
    pub accesses_per_us: f64,
}

impl WorkloadSpec {
    /// The PARSEC-3.0 benchmarks plus `bgsave`, in the paper's Figure 4
    /// order.
    pub const BENCHMARKS: [&'static str; 14] = [
        "blackscholes",
        "bodytrack",
        "canneal",
        "dedup",
        "facesim",
        "ferret",
        "fluidanimate",
        "freqmine",
        "raytrace",
        "streamcluster",
        "swaptions",
        "vips",
        "x264",
        "bgsave",
    ];

    /// Returns the preset for a benchmark name, or `None` if unknown.
    pub fn parsec(name: &str) -> Option<WorkloadSpec> {
        let (footprint, pattern, read_fraction, accesses_per_us) = match name {
            "blackscholes" => (0.15, AccessPattern::Zipf(1.1), 0.85, 1.0),
            "bodytrack" => (0.25, AccessPattern::Zipf(0.9), 0.80, 2.0),
            "canneal" => (0.95, AccessPattern::Zipf(0.3), 0.75, 6.0),
            "dedup" => (0.70, AccessPattern::Zipf(0.6), 0.60, 5.0),
            "facesim" => (0.50, AccessPattern::Zipf(0.7), 0.70, 3.0),
            "ferret" => (0.60, AccessPattern::Zipf(0.8), 0.75, 4.0),
            "fluidanimate" => (0.45, AccessPattern::Zipf(0.8), 0.65, 2.5),
            "freqmine" => (0.55, AccessPattern::Zipf(0.9), 0.85, 3.0),
            "raytrace" => (0.35, AccessPattern::Zipf(1.0), 0.90, 1.5),
            "streamcluster" => (0.80, AccessPattern::Sequential, 0.90, 7.0),
            "swaptions" => (0.10, AccessPattern::Zipf(1.2), 0.80, 0.8),
            "vips" => (0.65, AccessPattern::Zipf(0.6), 0.70, 4.5),
            "x264" => (0.75, AccessPattern::Zipf(0.5), 0.65, 5.5),
            "bgsave" => (1.00, AccessPattern::Sequential, 0.10, 8.0),
            _ => return None,
        };
        Some(WorkloadSpec {
            name: name.to_owned(),
            footprint,
            pattern,
            read_fraction,
            accesses_per_us,
        })
    }

    /// All presets, in Figure 4 order.
    pub fn all_parsec() -> Vec<WorkloadSpec> {
        Self::BENCHMARKS
            .iter()
            .map(|n| Self::parsec(n).expect("preset exists"))
            .collect()
    }

    /// Validates the specification.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or non-finite parameters.
    pub fn validate(&self) {
        assert!(
            self.footprint > 0.0 && self.footprint <= 1.0,
            "footprint in (0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.read_fraction),
            "read fraction in [0,1]"
        );
        assert!(
            self.accesses_per_us > 0.0 && self.accesses_per_us.is_finite(),
            "intensity must be positive and finite"
        );
        if let AccessPattern::Zipf(s) = self.pattern {
            assert!(
                s >= 0.0 && s.is_finite(),
                "zipf exponent must be non-negative and finite"
            );
        }
    }
}

/// A workload generator bound to a bank size and seed.
///
/// # Example
///
/// ```
/// use vrl_trace::gen::{Workload, WorkloadSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = WorkloadSpec::parsec("canneal").ok_or("unknown benchmark")?;
/// let workload = Workload::new(spec, 8192, 42);
/// let records: Vec<_> = workload.records(1.0 /* ms */).collect();
/// assert!(!records.is_empty());
/// assert!(records.windows(2).all(|w| w[0].cycle <= w[1].cycle));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    spec: WorkloadSpec,
    bank_rows: u32,
    seed: u64,
}

/// Memory-controller clock used to convert intensity to cycles (1 GHz:
/// matches the circuit model's 1 ns cycle).
pub const CYCLES_PER_US: f64 = 1000.0;

impl Workload {
    /// Binds a spec to a bank of `bank_rows` rows with a deterministic
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or the bank is empty.
    pub fn new(spec: WorkloadSpec, bank_rows: u32, seed: u64) -> Self {
        spec.validate();
        assert!(bank_rows > 0, "bank must have rows");
        Workload {
            spec,
            bank_rows,
            seed,
        }
    }

    /// The bound specification.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Number of distinct rows in the footprint.
    pub fn footprint_rows(&self) -> u32 {
        ((self.bank_rows as f64 * self.spec.footprint).round() as u32).max(1)
    }

    /// Streams `duration_ms` of trace records, sorted by cycle.
    pub fn records(&self, duration_ms: f64) -> Records {
        let end_cycle = (duration_ms * 1000.0 * CYCLES_PER_US) as u64;
        let mean_gap = CYCLES_PER_US / self.spec.accesses_per_us;
        let footprint = self.footprint_rows();
        let rows = match self.spec.pattern {
            AccessPattern::Zipf(0.0) => RowSampler::Uniform { footprint },
            AccessPattern::Zipf(s) => RowSampler::Zipf(ZipfSampler::new(footprint, s)),
            AccessPattern::Sequential => RowSampler::Sequential {
                footprint,
                position: 0,
            },
        };
        Records {
            rng: StdRng::seed_from_u64(self.seed),
            gap: GapSampler::new(mean_gap),
            rows,
            read_fraction: self.spec.read_fraction,
            bank_rows: self.bank_rows,
            cycle: 0,
            end_cycle,
            block: Box::new(Block {
                records: [TraceRecord::new(0, Op::Read, 0); BLOCK],
                gap_draws: [0.0; BLOCK],
                row_draws: [0.0; BLOCK],
            }),
            next: 0,
            len: 0,
            ended: false,
        }
    }
}

/// Records generated per refill of a [`Records`] block.
const BLOCK: usize = 512;

/// Iterator over generated trace records (see [`Workload::records`]).
///
/// Every per-stream quantity (samplers, footprint, pattern) is resolved
/// once in [`Workload::records`]. Records are generated 512 at a time
/// into a buffer the iterator owns and reuses, and `next` is an
/// index into it. A refill makes the RNG draws of the block's records in
/// exactly the order a record-at-a-time generator makes them (gap, row,
/// op; gap, op for a sequential sweep), then sums the gaps into arrival
/// cycles up to the end of the stream, then maps rows with the pattern
/// and the bank's row spread resolved once per block. The stream is
/// therefore identical to drawing one record at a time. The last block
/// draws the uniforms of records past the end of the stream too; no
/// record, and nothing else outside the iterator, ever sees them. Once
/// the stream has ended, `next` returns `None` without drawing.
#[derive(Debug, Clone)]
pub struct Records {
    rng: StdRng,
    gap: GapSampler,
    rows: RowSampler,
    read_fraction: f64,
    bank_rows: u32,
    /// Sum of the gaps drawn so far: the last record's arrival cycle,
    /// or past `end_cycle` once the stream has ended.
    cycle: u64,
    end_cycle: u64,
    block: Box<Block>,
    /// Index in the block of the record `next` returns.
    next: usize,
    /// Records in the block.
    len: usize,
    /// Whether the stream ended inside the block: no refill follows.
    ended: bool,
}

/// One block of records and the uniform draws that produce it.
#[derive(Clone)]
struct Block {
    records: [TraceRecord; BLOCK],
    /// Inter-arrival draws, one per record.
    gap_draws: [f64; BLOCK],
    /// Zipf rank draws, one per record (Zipf patterns only).
    row_draws: [f64; BLOCK],
}

/// The block size instead of its records.
impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Block").field("len", &BLOCK).finish()
    }
}

/// Footprint-local row selection, resolved from [`AccessPattern`].
#[derive(Debug, Clone)]
enum RowSampler {
    /// `Zipf(0)`: uniform over the footprint.
    Uniform { footprint: u32 },
    /// `Zipf(s)`, `s > 0`.
    Zipf(ZipfSampler),
    /// Sweep position, wrapping at the footprint.
    Sequential { footprint: u32, position: u32 },
}

impl Records {
    /// Generates the stream's next block; `false` once the stream has
    /// ended. Draws nothing after the end.
    #[inline(never)]
    fn refill(&mut self) -> bool {
        if self.ended {
            return false;
        }
        let Block {
            records,
            gap_draws,
            row_draws,
        } = &mut *self.block;
        let (rng, read_fraction) = (&mut self.rng, self.read_fraction);
        // Phase 1: every draw of the block, in per-record order. A
        // uniform row is the footprint-local row itself; a Zipf draw is
        // mapped to its rank in phase 3.
        match &self.rows {
            RowSampler::Uniform { footprint } => {
                for (record, gap) in records.iter_mut().zip(gap_draws.iter_mut()) {
                    *gap = rng.gen_range(1e-12..1.0);
                    record.row = rng.gen_range(0..*footprint);
                    record.op = draw_op(rng, read_fraction);
                }
            }
            RowSampler::Zipf(_) => {
                let draws = gap_draws.iter_mut().zip(row_draws.iter_mut());
                for (record, (gap, row)) in records.iter_mut().zip(draws) {
                    *gap = rng.gen_range(1e-12..1.0);
                    *row = rng.gen();
                    record.op = draw_op(rng, read_fraction);
                }
            }
            RowSampler::Sequential { .. } => {
                for (record, gap) in records.iter_mut().zip(gap_draws.iter_mut()) {
                    *gap = rng.gen_range(1e-12..1.0);
                    record.op = draw_op(rng, read_fraction);
                }
            }
        }
        // Phase 2: exponential inter-arrival gaps (Poisson arrivals,
        // minimum 1 cycle) summed into arrival cycles, up to the end.
        let mut len = BLOCK;
        let mut cycle = self.cycle;
        for (i, (record, &u)) in records.iter_mut().zip(gap_draws.iter()).enumerate() {
            cycle = cycle.saturating_add(self.gap.sample(u));
            if cycle >= self.end_cycle {
                len = i;
                self.ended = true;
                break;
            }
            record.cycle = cycle;
        }
        self.cycle = cycle;
        // Phase 3: footprint-local rows, spread across the bank so that
        // different footprints do not all collide on rows 0..N.
        let (records, bank_rows) = (&mut records[..len], self.bank_rows);
        match &mut self.rows {
            RowSampler::Uniform { .. } => spread_rows(records, bank_rows, |_, row| row),
            RowSampler::Zipf(zipf) => {
                spread_rows(records, bank_rows, |i, _| zipf.sample(row_draws[i]) - 1)
            }
            RowSampler::Sequential {
                footprint,
                position,
            } => {
                let footprint = *footprint;
                spread_rows(records, bank_rows, |_, _| {
                    let row = *position;
                    *position = if row + 1 == footprint { 0 } else { row + 1 };
                    row
                })
            }
        }
        self.next = 0;
        self.len = len;
        len > 0
    }
}

impl Iterator for Records {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        if self.next == self.len && !self.refill() {
            return None;
        }
        let record = self.block.records[self.next];
        self.next += 1;
        Some(record)
    }
}

impl std::iter::FusedIterator for Records {}

/// A read with probability `read_fraction`, from one draw.
#[inline(always)]
fn draw_op(rng: &mut StdRng, read_fraction: f64) -> Op {
    if rng.gen_bool(read_fraction) {
        Op::Read
    } else {
        Op::Write
    }
}

/// Multiplier of the row spread: odd, so bijective modulo a power of two.
const SPREAD: u32 = 2654435761;

/// Sets each record's row to `local(index, row)` spread over the bank
/// through [`SPREAD`] (bijective modulo a power of two, decorrelates
/// footprints from physical row order), with the bank's power-of-two
/// test made once.
#[inline(always)]
fn spread_rows(
    records: &mut [TraceRecord],
    bank_rows: u32,
    mut local: impl FnMut(usize, u32) -> u32,
) {
    if bank_rows.is_power_of_two() {
        let mask = bank_rows - 1;
        for (i, record) in records.iter_mut().enumerate() {
            record.row = local(i, record.row).wrapping_mul(SPREAD) & mask;
        }
    } else {
        let rows = u64::from(bank_rows);
        for (i, record) in records.iter_mut().enumerate() {
            record.row = ((u64::from(local(i, record.row)) * u64::from(SPREAD)) % rows) as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use std::collections::HashSet;

    fn gen(name: &str) -> Vec<TraceRecord> {
        let spec = WorkloadSpec::parsec(name).expect("known");
        Workload::new(spec, 8192, 42).records(2.0).collect()
    }

    #[test]
    fn all_presets_generate() {
        for name in WorkloadSpec::BENCHMARKS {
            let t = gen(name);
            assert!(!t.is_empty(), "{name} generated nothing");
        }
    }

    #[test]
    fn records_are_sorted_and_in_range() {
        let t = gen("canneal");
        let mut prev = 0;
        for r in &t {
            assert!(r.cycle >= prev);
            prev = r.cycle;
            assert!(r.row < 8192);
        }
    }

    #[test]
    fn intensity_controls_record_count() {
        let lo = gen("swaptions").len() as f64; // 0.8 /µs
        let hi = gen("bgsave").len() as f64; // 8 /µs
        assert!(hi > 5.0 * lo, "bgsave {hi} vs swaptions {lo}");
    }

    #[test]
    fn footprint_bounds_distinct_rows() {
        let t = gen("swaptions"); // 10% of 8192 = 819 rows
        let distinct: HashSet<u32> = t.iter().map(|r| r.row).collect();
        assert!(distinct.len() <= 820);
    }

    #[test]
    fn sequential_covers_footprint_evenly() {
        let spec = WorkloadSpec::parsec("bgsave").expect("known");
        let t: Vec<TraceRecord> = Workload::new(spec, 1024, 1).records(5.0).collect();
        let distinct: HashSet<u32> = t.iter().map(|r| r.row).collect();
        // 5 ms × 8/µs = 40k accesses over 1024 rows: full coverage.
        assert_eq!(distinct.len(), 1024);
    }

    #[test]
    fn write_heavy_bgsave() {
        let t = gen("bgsave");
        let writes = t.iter().filter(|r| r.op == Op::Write).count();
        assert!(writes as f64 > 0.8 * t.len() as f64);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(gen("ferret"), gen("ferret"));
    }

    #[test]
    fn unknown_benchmark_is_none() {
        assert!(WorkloadSpec::parsec("doom").is_none());
    }

    #[test]
    fn zipf_zero_is_uniform() {
        let spec = WorkloadSpec {
            name: "uniform".into(),
            footprint: 1.0,
            pattern: AccessPattern::Zipf(0.0),
            read_fraction: 0.5,
            accesses_per_us: 8.0,
        };
        let trace: Vec<TraceRecord> = Workload::new(spec, 64, 3).records(5.0).collect();
        let mut counts = vec![0usize; 64];
        for r in &trace {
            counts[r.row as usize] += 1;
        }
        let mean = trace.len() as f64 / 64.0;
        let max = *counts.iter().max().expect("non-empty") as f64;
        let min = *counts.iter().min().expect("non-empty") as f64;
        assert!(
            max < 1.5 * mean && min > 0.5 * mean,
            "not uniform: {min}..{max} vs {mean}"
        );
    }

    #[test]
    fn spread_is_bijective_on_power_of_two() {
        let rows = 1024;
        let mut records = vec![TraceRecord::new(0, Op::Read, 0); rows as usize];
        spread_rows(&mut records, rows, |i, _| i as u32);
        let distinct: HashSet<u32> = records.iter().map(|r| r.row).collect();
        assert_eq!(distinct.len(), rows as usize);
    }

    fn spec(footprint: f64, pattern: AccessPattern, accesses_per_us: f64) -> WorkloadSpec {
        WorkloadSpec {
            name: "custom".into(),
            footprint,
            pattern,
            read_fraction: 0.5,
            accesses_per_us,
        }
    }

    #[test]
    #[should_panic(expected = "zipf exponent must be non-negative and finite")]
    fn infinite_zipf_exponent_is_rejected() {
        spec(0.5, AccessPattern::Zipf(f64::INFINITY), 1.0).validate();
    }

    #[test]
    #[should_panic(expected = "intensity must be positive and finite")]
    fn infinite_intensity_is_rejected() {
        spec(0.5, AccessPattern::Sequential, f64::INFINITY).validate();
    }

    /// The row spread as the reference generator computes it.
    fn spread_row(index: u32, bank_rows: u32) -> u32 {
        if bank_rows.is_power_of_two() {
            index.wrapping_mul(2654435761) & (bank_rows - 1)
        } else {
            ((index as u64 * 2654435761) % bank_rows as u64) as u32
        }
    }

    /// The generator as it was before its samplers were table-driven and
    /// before it filled blocks, expression for expression: one record
    /// per step, one `ln` per gap and, for Zipf patterns, the continuous
    /// inverse CDF evaluated per record.
    fn reference(
        spec: &WorkloadSpec,
        bank_rows: u32,
        seed: u64,
        duration_ms: f64,
    ) -> Vec<TraceRecord> {
        let end_cycle = (duration_ms * 1000.0 * CYCLES_PER_US) as u64;
        reference_until(spec, bank_rows, seed, end_cycle)
    }

    /// [`reference`] up to an end cycle.
    fn reference_until(
        spec: &WorkloadSpec,
        bank_rows: u32,
        seed: u64,
        end_cycle: u64,
    ) -> Vec<TraceRecord> {
        let workload = Workload::new(spec.clone(), bank_rows, seed);
        let footprint = workload.footprint_rows();
        let mean_gap = CYCLES_PER_US / spec.accesses_per_us;
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut cycle, mut seq_position) = (0u64, 0u64);
        let mut out = Vec::new();
        loop {
            let u: f64 = rng.gen_range(1e-12..1.0);
            let gap = (-u.ln() * mean_gap).ceil().max(1.0) as u64;
            cycle = cycle.saturating_add(gap);
            if cycle >= end_cycle {
                return out;
            }
            let row_in_footprint = match spec.pattern {
                AccessPattern::Zipf(s) => {
                    if s == 0.0 {
                        rng.gen_range(0..footprint)
                    } else {
                        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                        let n = footprint as f64;
                        let hi = n + 1.0;
                        let x = if (s - 1.0).abs() < 1e-9 {
                            hi.powf(u)
                        } else {
                            let e = 1.0 - s;
                            (1.0 + u * (hi.powf(e) - 1.0)).powf(1.0 / e)
                        };
                        (x.floor().clamp(1.0, n) as u64 - 1) as u32
                    }
                }
                AccessPattern::Sequential => {
                    let r = (seq_position % footprint as u64) as u32;
                    seq_position += 1;
                    r
                }
            };
            let row = spread_row(row_in_footprint, bank_rows);
            let op = if rng.gen_bool(spec.read_fraction) {
                Op::Read
            } else {
                Op::Write
            };
            out.push(TraceRecord::new(cycle, op, row));
        }
    }

    fn assert_matches_reference(
        spec: &WorkloadSpec,
        bank_rows: u32,
        seed: u64,
        duration_ms: f64,
    ) -> usize {
        let expected = reference(spec, bank_rows, seed, duration_ms);
        let actual: Vec<TraceRecord> = Workload::new(spec.clone(), bank_rows, seed)
            .records(duration_ms)
            .collect();
        if let Some(i) = (0..expected.len().min(actual.len())).find(|&i| expected[i] != actual[i]) {
            panic!(
                "{} rows={bank_rows} seed={seed}: record {i} is {:?}, reference {:?}",
                spec.name, actual[i], expected[i]
            );
        }
        assert_eq!(
            actual.len(),
            expected.len(),
            "{} rows={bank_rows} seed={seed}",
            spec.name
        );
        actual.len()
    }

    #[test]
    fn custom_specs_match_the_reference_generator() {
        let patterns = [
            AccessPattern::Zipf(0.0),
            AccessPattern::Zipf(0.3),
            AccessPattern::Zipf(1.0),
            AccessPattern::Zipf(1.0 + 1e-9),
            AccessPattern::Zipf(1.0 - 1e-6),
            AccessPattern::Zipf(1.2),
            AccessPattern::Zipf(2.5),
            AccessPattern::Sequential,
        ];
        for pattern in patterns {
            for (footprint, rows) in [
                (1.0, 1),
                (0.001, 1000),
                (0.5, 512),
                (1.0, 8192),
                (1.0, 9000),
            ] {
                for accesses_per_us in [0.05, 3.0, 5000.0] {
                    let spec = spec(footprint, pattern, accesses_per_us);
                    assert_matches_reference(&spec, rows, 11, 0.5);
                }
            }
        }
    }

    /// One spec per row sampler: uniform, a tabled Zipf exponent, one
    /// sampled through the closed form, and the sequential sweep.
    fn sampler_specs() -> Vec<WorkloadSpec> {
        [
            AccessPattern::Zipf(0.0),
            AccessPattern::Zipf(0.8),
            AccessPattern::Zipf(1.0 - 1e-6),
            AccessPattern::Sequential,
        ]
        .into_iter()
        .map(|pattern| spec(0.3, pattern, 5.0))
        .collect()
    }

    /// The generator's stream of `spec`, ended at `end_cycle`.
    fn records_until(spec: &WorkloadSpec, bank_rows: u32, seed: u64, end_cycle: u64) -> Records {
        let mut records = Workload::new(spec.clone(), bank_rows, seed).records(0.0);
        records.end_cycle = end_cycle;
        records
    }

    #[test]
    fn streams_ending_at_block_boundaries_match_the_reference() {
        for spec in sampler_specs() {
            for rows in [512, 1000] {
                let long = reference(&spec, rows, 5, 10.0);
                for n in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK] {
                    // Arrival cycles strictly increase, so ending the
                    // stream at record n's cycle leaves exactly n records.
                    let end_cycle = long[n].cycle;
                    assert_eq!(reference_until(&spec, rows, 5, end_cycle), long[..n]);
                    let actual: Vec<TraceRecord> =
                        records_until(&spec, rows, 5, end_cycle).collect();
                    assert!(
                        actual == long[..n],
                        "{:?} rows={rows}: {} records where the reference has {n}",
                        spec.pattern,
                        actual.len()
                    );
                }
            }
        }
    }

    #[test]
    fn skip_across_block_boundaries_matches_the_reference() {
        for spec in sampler_specs() {
            let expected = reference(&spec, 1000, 9, 2.0);
            assert!(expected.len() > 3 * BLOCK, "{}", expected.len());
            let ks = [
                0,
                1,
                BLOCK - 1,
                BLOCK,
                BLOCK + 1,
                2 * BLOCK + 7,
                expected.len(),
                expected.len() + 1,
            ];
            for k in ks {
                let records = Workload::new(spec.clone(), 1000, 9).records(2.0);
                let tail: Vec<TraceRecord> = records.skip(k).collect();
                let from = k.min(expected.len());
                assert!(tail == expected[from..], "{:?} skip({k})", spec.pattern);
            }
            // A resumed run skips what it consumed before the pause.
            let mut records = Workload::new(spec.clone(), 1000, 9).records(2.0);
            let head = records.by_ref().take(100).count();
            let tail: Vec<TraceRecord> = records.skip(BLOCK).collect();
            assert!(tail == expected[head + BLOCK..], "{:?}", spec.pattern);
        }
    }

    #[test]
    fn a_clone_taken_mid_block_continues_the_stream() {
        for spec in sampler_specs() {
            let expected = reference(&spec, 512, 3, 2.0);
            let mut records = Workload::new(spec.clone(), 512, 3).records(2.0);
            let head: Vec<TraceRecord> = records.by_ref().take(BLOCK + 100).collect();
            let clone = records.clone();
            let rest: Vec<TraceRecord> = records.collect();
            assert!(head == expected[..BLOCK + 100], "{:?}", spec.pattern);
            assert!(rest == expected[BLOCK + 100..], "{:?}", spec.pattern);
            assert!(clone.eq(rest), "{:?}: the clone diverged", spec.pattern);
        }
    }

    #[test]
    fn an_exhausted_stream_draws_nothing() {
        fn fused(_: &impl std::iter::FusedIterator) {}
        for spec in sampler_specs() {
            for duration_ms in [0.0, 0.3] {
                let mut records = Workload::new(spec.clone(), 512, 4).records(duration_ms);
                fused(&records);
                records.by_ref().for_each(drop);
                let state = records.rng.state();
                for _ in 0..3 {
                    assert_eq!(records.next(), None);
                }
                assert_eq!(records.rng.state(), state, "{:?}", spec.pattern);
            }
        }
    }

    #[test]
    fn the_block_stays_small() {
        assert!(std::mem::size_of::<Block>() <= 32 * 1024);
    }

    /// Every preset × 8 seeds × 4 geometries, over 1e8 records, against
    /// the reference generator. Run with
    /// `cargo test --release -p vrl-trace -- --ignored`.
    #[test]
    #[ignore = "exhaustive: about 1e8 records, run in release"]
    fn exhaustive_identity_with_the_reference_generator() {
        let seeds = [1, 7, 42, 1234, 2024, 31337, 90210, 0xDEAD_BEEF];
        let mut records = 0;
        for seed in seeds {
            for rows in [8192, 512, 256, 1000] {
                for spec in WorkloadSpec::all_parsec() {
                    records += assert_matches_reference(&spec, rows, seed, 64.0);
                }
            }
        }
        assert!(records >= 100_000_000, "only {records} records compared");
    }
}
