//! Golden outputs each workload checks its results against.
//!
//! The files are recorded from the program itself with
//! `--record-golden <workload>` (see README.md) and compiled into the
//! binary, so a run reads nothing at start-up. Every line is
//! whitespace-separated fields; `#` starts a comment line.

use std::collections::BTreeMap;

pub const FIG4: &str = include_str!("../golden/fig4-stream.golden");
pub const SERVE_COLD: &str = include_str!("../golden/serve-cold.golden");
pub const SERVE_WARM: &str = include_str!("../golden/serve-warm.golden");
pub const CIRCUIT: &str = include_str!("../golden/circuit-validate.golden");

fn records(text: &str, fields: usize) -> Result<Vec<Vec<&str>>, String> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() == fields {
                Ok(parts)
            } else {
                Err(format!("golden line {line:?}: expected {fields} fields"))
            }
        })
        .collect()
}

fn num<T: std::str::FromStr>(field: &str) -> Result<T, String> {
    field
        .parse()
        .map_err(|_| format!("golden field {field:?} is not a number"))
}

fn hex(field: &str) -> Result<u64, String> {
    u64::from_str_radix(field, 16).map_err(|_| format!("golden field {field:?} is not hex"))
}

/// `(seed, benchmark, policy) → refresh-busy cycles` of one Figure-4 cell.
pub type Fig4Golden = BTreeMap<(u64, String, String), u64>;

pub fn fig4(text: &str) -> Result<Fig4Golden, String> {
    records(text, 4)?
        .into_iter()
        .map(|f| Ok(((num(f[0])?, f[1].to_owned(), f[2].to_owned()), num(f[3])?)))
        .collect()
}

/// `spec canonical hash → FNV-1a 64 of the result frame`.
pub type FrameGolden = BTreeMap<u64, u64>;

pub fn frames(text: &str) -> Result<FrameGolden, String> {
    records(text, 2)?
        .into_iter()
        .map(|f| Ok((hex(f[0])?, hex(f[1])?)))
        .collect()
}

/// One pre-sensing solve's expected outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Solve {
    pub spice_cycles: usize,
    pub our_cycles: usize,
    pub steps: usize,
    pub nodes: usize,
}

/// `(rows, cols, window) → expected solve`.
pub type CircuitGolden = BTreeMap<(usize, usize, usize), Solve>;

pub fn circuit(text: &str) -> Result<CircuitGolden, String> {
    records(text, 7)?
        .into_iter()
        .map(|f| {
            let solve = Solve {
                spice_cycles: num(f[3])?,
                our_cycles: num(f[4])?,
                steps: num(f[5])?,
                nodes: num(f[6])?,
            };
            Ok(((num(f[0])?, num(f[1])?, num(f[2])?), solve))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_golden_parses_and_covers_every_pool_seed() {
        let golden = fig4(FIG4).expect("fig4 golden parses");
        let cells = vrl_trace::WorkloadSpec::BENCHMARKS.len() * crate::fig4::POLICIES.len();
        assert_eq!(golden.len(), crate::SEED_POOL.len() * cells);
    }

    fn covers(golden: &FrameGolden, grid: fn(u64) -> Vec<crate::serve::Req>) {
        let mut specs = std::collections::BTreeSet::new();
        for seed in crate::SEED_POOL {
            specs.extend(grid(seed).iter().map(|r| r.spec.canonical_hash()));
        }
        assert!(
            specs.iter().eq(golden.keys()),
            "golden specs differ from the grids"
        );
    }

    #[test]
    fn serve_goldens_parse_and_cover_every_pool_seed() {
        covers(
            &frames(SERVE_COLD).expect("serve-cold golden parses"),
            crate::serve::cold_grid,
        );
        covers(
            &frames(SERVE_WARM).expect("serve-warm golden parses"),
            crate::serve::warm_grid,
        );
    }

    #[test]
    fn circuit_golden_parses_and_agrees_with_table1() {
        let golden = circuit(CIRCUIT).expect("circuit golden parses");
        assert_eq!(golden.len(), crate::circuit::solve_pool().len());
        for (rows, cols, spice, ours) in crate::circuit::TABLE1 {
            let window = crate::circuit::product_window(cols);
            let solve = golden[&(rows, cols, window)];
            assert_eq!((solve.spice_cycles, solve.our_cycles), (spice, ours));
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(frames("00ff\n").is_err());
        assert!(frames("zz 01\n").is_err());
        assert!(fig4("1 canneal raidr x\n").is_err());
        assert_eq!(frames("# comment\n\n").map(|g| g.len()), Ok(0));
    }
}
