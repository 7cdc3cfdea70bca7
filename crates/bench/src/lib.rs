//! # vrl-bench — the benchmark harness
//!
//! One binary per figure and table of the paper's evaluation, plus
//! ablation studies. Every binary prints the paper's rows/series to
//! stdout and writes a JSON artifact under `target/experiments/`.
//!
//! | target | reproduces |
//! |--------|------------|
//! | `fig1a` | Figure 1a — charge restoration vs fraction of tRFC |
//! | `fig1b` | Figure 1b — full vs partial refresh trajectories |
//! | `fig3a` | Figure 3a — retention-time histogram |
//! | `fig3b` | Figure 3b — refresh-period binning counts |
//! | `fig4`  | Figure 4 — normalized refresh overhead per benchmark |
//! | `fig5`  | Figure 5 — equalization voltage: model vs SPICE vs Li et al. |
//! | `table1`| Table 1 — pre-sensing delay accuracy/runtime trade-off |
//! | `table2`| Table 2 — VRL logic area at 90 nm |
//! | `tau_select` | Section 3.1 — τ_partial selection sweep |
//! | `power` | Section 4.1 — refresh power vs RAIDR |
//! | `ablation_margin` | guard-band ablation |
//! | `ablation_nbits`  | counter-width ablation |
//! | `ablation_locality` | trace-locality sensitivity of VRL-Access |
//! | `ablation_faults` | fault rate × runtime guard: overhead vs data loss |
//! | `ablation_ecc` | SECDED ECC as a retention booster |
//! | `ablation_frontend` | in-order service vs the FR-FCFS front end |
//! | `ablation_postpone` | demand-first refresh postponement |
//! | `ablation_temperature` | operating temperature vs the VRL benefit |
//! | `node_scaling` | the VRL benefit across technology nodes |
//! | `bench_sched` | refresh-busy time and read latency per policy × front end |
//! | `bench_throughput` | serial vs worker-pool matrix execution |
//!
//! Engine speed is metered by the `vrl-sched` crate's `hotloop` example
//! and by the `perfbench` package, not by this crate.

#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// Version stamp written into every `BENCH_*.json` artifact so
/// downstream tooling can detect layout changes. Bumped to 2 when the
/// bench binaries started routing their counters through the `vrl-obs`
/// metrics registry and emitting companion `*_metrics.json` snapshots.
pub const SCHEMA_VERSION: u32 = 2;

/// Directory where experiment artifacts are written
/// (`target/experiments/`), created on demand.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Writes a JSON artifact and reports the path.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = experiments_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serializable");
    fs::write(&path, json).expect("write artifact");
    println!("\n[artifact] {}", path.display());
}

/// Writes an already-serialised JSON document (e.g. a `vrl-obs` metrics
/// snapshot, which carries its own `to_json`) as an artifact and reports
/// the path.
pub fn write_json_raw(name: &str, json: &str) {
    let path = experiments_dir().join(format!("{name}.json"));
    fs::write(&path, json).expect("write artifact");
    println!("[artifact] {}", path.display());
}

/// Wraps a report so its JSON object leads with
/// `"schema_version": SCHEMA_VERSION` — report structs no longer carry
/// (and can no longer forget or typo) the stamp themselves.
#[derive(Debug)]
pub struct Stamped<'a, T>(pub &'a T);

impl<T: Serialize> Serialize for Stamped<'_, T> {
    fn serialize_json(&self, out: &mut String) {
        let mut body = String::new();
        self.0.serialize_json(&mut body);
        let inner = body
            .strip_prefix('{')
            .and_then(|b| b.strip_suffix('}'))
            .expect("a bench report serializes as a JSON object");
        out.push_str(&format!("{{\"schema_version\":{SCHEMA_VERSION}"));
        if !inner.is_empty() {
            out.push(',');
            out.push_str(inner);
        }
        out.push('}');
    }
}

/// Writes the canonical artifact pair of one bench binary: the metrics
/// snapshot as `BENCH_{name}_metrics.json`, then the schema-stamped
/// report as `BENCH_{name}.json`.
pub fn write_bench_report<T: Serialize>(name: &str, report: &T, metrics_json: &str) {
    write_json_raw(&format!("BENCH_{name}_metrics"), metrics_json);
    write_json(&format!("BENCH_{name}"), &Stamped(report));
}

/// Reports `err` on stderr and exits with status 1.
pub fn fail(err: &dyn std::fmt::Display) -> ! {
    eprintln!("error: {err}");
    std::process::exit(1);
}

/// Prints a separator-framed section header.
pub fn section(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// The value given for `flag` in `args` (`args[0]` being the program
/// name): `Ok(None)` when the flag is absent, an error naming the flag
/// when it is present without a value (end of `args`, or another
/// `--flag` next) or with one that does not parse as `T`.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().skip(1).position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 2) {
        Some(value) if !value.starts_with("--") => value
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag}: cannot parse {value:?}")),
        _ => Err(format!("{flag}: missing value")),
    }
}

/// Parses `flag`'s value from `std::env::args` as a `T` (`f64` for
/// `--duration-ms`, `NonZeroU32` for `--rows`, `String` for
/// `--benchmark`), falling back to `default` when the flag is absent. A
/// present flag whose value is missing or does not parse as `T` exits
/// with status 2, so a negative, fractional or zero `--rows` is a usage
/// error, not a cast or a panic.
pub fn arg_or<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    match flag_value(&args, flag) {
        Ok(value) => value.unwrap_or(default),
        Err(err) => {
            eprintln!("usage error: {err}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_dir_is_creatable() {
        let d = experiments_dir();
        assert!(d.exists());
    }

    #[test]
    fn absent_flags_fall_back() {
        assert_eq!(arg_or("--nonexistent-flag", 7.5), 7.5);
    }

    #[test]
    fn flag_values_are_parsed_or_rejected_by_name() {
        let args = |list: &[&str]| -> Vec<String> {
            std::iter::once("bench")
                .chain(list.iter().copied())
                .map(str::to_owned)
                .collect()
        };
        let rows = |list: &[&str]| flag_value::<f64>(&args(list), "--rows");
        assert_eq!(rows(&["--rows", "1024"]), Ok(Some(1024.0)));
        assert_eq!(rows(&["--rows", "-3"]), Ok(Some(-3.0)));
        // Absent: the caller falls back to its default.
        assert_eq!(rows(&["--duration-ms", "64"]), Ok(None));
        // Present without a value, at the end or before another flag.
        assert_eq!(rows(&["--rows"]), Err("--rows: missing value".to_owned()));
        assert_eq!(
            rows(&["--rows", "--duration-ms", "64"]),
            Err("--rows: missing value".to_owned())
        );
        // Present with a value that does not parse.
        assert_eq!(
            rows(&["--rows", "1O24"]),
            Err("--rows: cannot parse \"1O24\"".to_owned())
        );
        // Integer flags reject what an `f64` parse and an `as` cast
        // would have let through.
        assert_eq!(
            flag_value::<u32>(&args(&["--rows", "-5"]), "--rows"),
            Err("--rows: cannot parse \"-5\"".to_owned())
        );
        // A bank needs a row: `--rows 0` is rejected, not passed on.
        assert_eq!(
            flag_value::<std::num::NonZeroU32>(&args(&["--rows", "0"]), "--rows"),
            Err("--rows: cannot parse \"0\"".to_owned())
        );
        assert_eq!(
            flag_value::<usize>(&args(&["--workers", "2.7"]), "--workers"),
            Err("--workers: cannot parse \"2.7\"".to_owned())
        );
        assert_eq!(
            flag_value::<u32>(&args(&["--banks", "8"]), "--banks"),
            Ok(Some(8))
        );
        let benchmark = flag_value::<String>(&args(&["--benchmark", "ferret"]), "--benchmark");
        assert_eq!(benchmark, Ok(Some("ferret".to_owned())));
    }

    #[test]
    fn stamped_reports_lead_with_the_schema_version() {
        #[derive(Serialize)]
        struct Report {
            rows: u32,
            ok: bool,
        }
        // Byte-identical to a report that declared
        // `schema_version: SCHEMA_VERSION` as its own first field.
        let mut stamped = String::new();
        Stamped(&Report { rows: 8, ok: true }).serialize_json(&mut stamped);
        assert_eq!(
            stamped,
            format!("{{\"schema_version\":{SCHEMA_VERSION},\"rows\":8,\"ok\":true}}")
        );

        #[derive(Serialize)]
        struct Empty {}
        let mut empty = String::new();
        Stamped(&Empty {}).serialize_json(&mut empty);
        assert_eq!(empty, format!("{{\"schema_version\":{SCHEMA_VERSION}}}"));
    }
}
