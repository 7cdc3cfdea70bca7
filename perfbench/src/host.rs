//! What a report records about the machine and build it ran on.

use std::hint::black_box;
use std::process::Command;
use std::time::{Duration, Instant};

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Time of a fixed single-thread integer loop (2^26 xorshift steps), in
/// ms. Comparing it across reports separates a slower host from a slower
/// program.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..(1u32 << 26) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Tracks how fast the host is running during a timed phase.
///
/// The host's vCPUs share physical cores with other tenants, and a fixed
/// workload's time swings by more than 50 % between runs minutes apart while
/// a pure integer loop barely moves: the contention is on the
/// floating-point and memory side. Between jobs, at most once per
/// [`HostProbe::PERIOD`], [`HostProbe::tick`] times a fixed dense
/// floating-point kernel (four 32×32 matrix products, which live in L1).
/// [`HostProbe::factor`] then rescales the run's times to the reference
/// host's uncontended speed. The kernel is part of the benchmark, so a
/// change to the program cannot move it.
#[derive(Debug)]
pub struct HostProbe {
    last: Instant,
    total_ms: f64,
    samples: u32,
}

impl HostProbe {
    /// The kernel's time on the reference host when uncontended.
    pub const REFERENCE_MS: f64 = 0.15;
    const PERIOD: Duration = Duration::from_millis(50);
    const N: usize = 32;

    pub fn new() -> HostProbe {
        HostProbe {
            last: Instant::now(),
            total_ms: 0.0,
            samples: 0,
        }
    }

    /// Runs the kernel if a period has passed since the last sample.
    /// Returns the ms it took, for the caller to leave out of its timings.
    pub fn tick(&mut self) -> f64 {
        if self.last.elapsed() < Self::PERIOD {
            return 0.0;
        }
        let n = Self::N;
        let a: Vec<f64> = (0..n * n).map(|i| 1.0 + (i % 7) as f64 * 1e-3).collect();
        let b: Vec<f64> = (0..n * n).map(|i| 0.5 + (i % 5) as f64 * 1e-3).collect();
        let (a, b) = (black_box(a), black_box(b));
        let mut c = vec![0.0; n * n];
        let start = Instant::now();
        for _ in 0..4 {
            for i in 0..n {
                for k in 0..n {
                    let aik = a[i * n + k];
                    for j in 0..n {
                        c[i * n + j] += aik * b[k * n + j];
                    }
                }
            }
            black_box(&mut c);
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.total_ms += ms;
        self.samples += 1;
        self.last = Instant::now();
        ms
    }

    /// Mean kernel time over the run, in ms.
    pub fn mean_ms(&self) -> f64 {
        self.total_ms / f64::from(self.samples.max(1))
    }

    pub fn samples(&self) -> u32 {
        self.samples
    }

    /// Reference kernel time ÷ this run's mean: multiply a time (divide a
    /// rate) by it to express it at the reference host's speed. 1 when
    /// the run took no sample.
    pub fn factor(&self) -> f64 {
        if self.samples == 0 {
            1.0
        } else {
            Self::REFERENCE_MS / self.mean_ms()
        }
    }
}

/// The commit being measured, or `unknown` outside a git checkout.
pub fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
