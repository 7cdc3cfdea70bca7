//! The repository benchmark: one workload per run, end-to-end metrics by
//! default, per-layer metrics with `--trace 1`. See README.md.
//!
//! ```text
//! vrl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! vrl-perfbench --record-golden <name>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod circuit;
mod fig4;
mod golden;
mod host;
mod layers;
mod record;
mod serve;
mod spans;
mod stats;

use std::process::ExitCode;

use host::HostProbe;
use layers::LayerReport;

/// The paper's VRL-Access refresh-busy reduction over RAIDR (Figure 4).
pub const PAPER_VRL_ACCESS_REDUCTION_PCT: f64 = 34.0;
/// Experiment seeds the golden files cover. `--seed` draws from them.
pub const SEED_POOL: [u64; 8] = [
    REFERENCE_SEED,
    7,
    1001,
    2024,
    31337,
    65537,
    271_828,
    314_159,
];
/// EXPERIMENTS.md's seed. Every run includes it, and `ref_error_pct` is
/// computed on it alone, so that metric is the same on every run.
pub const REFERENCE_SEED: u64 = 42;

/// `n` seeds for one run: [`REFERENCE_SEED`] first, then seeds drawn
/// from the rest of [`SEED_POOL`].
pub fn run_seeds(rng: &mut SeedRng, n: usize) -> Vec<u64> {
    let mut rest = SEED_POOL[1..].to_vec();
    rng.shuffle(&mut rest);
    std::iter::once(REFERENCE_SEED)
        .chain(rest)
        .take(n)
        .collect()
}

/// A `--seed` never run while the benchmark was written. A claimed gain
/// must also hold on it.
pub const HELD_OUT_SEED: u64 = 90_210;

pub const WORKLOADS: [&str; 4] = [
    "fig4-stream",
    "serve-cold",
    "serve-warm",
    "circuit-validate",
];

/// What one workload run measured.
pub struct Run {
    /// Every set-up sample, in seconds.
    pub setup_s: Vec<f64>,
    /// Timed-phase host time, host-probe time excluded.
    pub wall_s: f64,
    /// Host time of every timed job, in ms.
    pub job_ms: Vec<f64>,
    /// Simulated events (engines) or solved timesteps (circuits) of the
    /// timed phase.
    pub events: f64,
    pub ref_error_pct: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The host's speed over the run, which the reported times are
    /// rescaled by.
    pub probe: HostProbe,
    /// Per-layer metrics, on a traced run.
    pub layers: Option<LayerReport>,
}

/// splitmix64: the one source of every seeded choice the benchmark makes.
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> SeedRng {
        SeedRng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant at the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// How many fixed-size passes fit in `seconds` when one pass took
/// `reference_pass_s` on the reference host (2 cores, at the commit that
/// introduced the benchmark). The work done is a function of `--seconds`
/// alone, never of how fast it runs, so `wall_s` compares like with like.
pub fn passes(seconds: f64, reference_pass_s: f64, min: usize) -> usize {
    ((seconds / reference_pass_s) as usize).max(min)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn run_workload(args: &Args) -> Result<Run, String> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "fig4-stream" => fig4::run(seed, seconds, trace),
        "serve-cold" => serve::run_cold(seed, seconds, trace),
        "serve-warm" => serve::run_warm(seed, seconds, trace),
        "circuit-validate" => circuit::run(seed, seconds, trace),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Times and rates
/// are expressed at the reference host's speed (see [`HostProbe`]); the
/// report's comment lines give them as measured.
fn end_to_end(run: &Run) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let jobs = run.job_ms.len();
    let tail = |q| {
        stats::nearest_rank(&run.job_ms, q).ok_or_else(|| {
            format!(
                "{jobs} jobs leave fewer than 10 samples beyond p{}",
                q * 100.0
            )
        })
    };
    let setup_s = stats::median(&run.setup_s).ok_or("no set-up sample")?;
    let (p50, p90) = (tail(0.5)?, tail(0.9)?);
    let scale = run.probe.factor();
    println!(
        "# as measured: setup_s {setup_s} wall_s {} job_p50_ms {p50} job_p90_ms {p90}",
        run.wall_s
    );
    println!(
        "# host probe {:.4} ms over {} samples (reference {} ms): times scaled by {scale:.4}",
        run.probe.mean_ms(),
        run.probe.samples(),
        HostProbe::REFERENCE_MS,
    );
    let wall_s = run.wall_s * scale;
    Ok(vec![
        ("setup_s", setup_s * scale, "s"),
        ("wall_s", wall_s, "s"),
        ("jobs_per_s", jobs as f64 / wall_s, "1/s"),
        ("job_p50_ms", p50 * scale, "ms"),
        ("job_p90_ms", p90 * scale, "ms"),
        ("events_per_s", run.events / wall_s, "1/s"),
        ("peak_rss_mb", host::peak_rss_mb()?, "MB"),
        (
            "success_rate",
            (run.attempted - run.failed) as f64 / run.attempted.max(1) as f64,
            "ratio",
        ),
        ("ref_error_pct", run.ref_error_pct, "pct"),
    ])
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

fn report(args: &Args, run: &Run) -> Result<String, String> {
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# host nproc {} calibration_ms {:.1} commit {} held-out seed {}",
        host::nproc(),
        host::calibration_ms(),
        host::commit(),
        HELD_OUT_SEED
    );
    println!(
        "# jobs {} attempted {} failed {} set-up samples {}",
        run.job_ms.len(),
        run.attempted,
        run.failed,
        run.setup_s.len()
    );
    let metrics = match (&run.layers, args.trace) {
        (Some(layers), true) => {
            for (layer, ms, share) in layers.shares() {
                println!("# layer {layer:<24} self {ms:>12.3} ms  {share:>6.2} % of traced wall");
            }
            layers.metrics()
        }
        (None, false) => end_to_end(run)?,
        _ => return Err("traced run produced no layer report".into()),
    };
    let mut body = Vec::new();
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        body.join(", ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("--record-golden") {
        match args.get(1) {
            Some(workload) => record::golden(workload),
            None => Err("--record-golden needs a workload".to_owned()),
        }
    } else {
        parse_args(&args)
            .and_then(|args| run_workload(&args).and_then(|run| report(&args, &run)))
            .map(|line| println!("{line}"))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vrl-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_choices_repeat() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SeedRng::new(9).shuffle(&mut a);
        SeedRng::new(9).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        SeedRng::new(10).shuffle(&mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload serve-warm --seed 3 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload serve-warm --seconds 1",
            "--workload serve-warm --seed 1 --seconds 0",
            "--workload serve-warm --seed 1 --seconds 1 --trace 2",
            "--workload serve-warm --seed 1 --seconds 1 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} was accepted");
        }
    }
}
