//! Fault injection for robustness experiments.
//!
//! A [`FaultInjector`] plugs into the [`Simulator`](crate::sim::Simulator)
//! and perturbs the *ground truth* the simulation is checked against,
//! without the refresh policy's knowledge — exactly the situation a real
//! VRL/RAIDR controller faces when its offline retention profile goes
//! stale. Four fault classes are modelled:
//!
//! * **VRT toggles** — rows flip between a strong and a weak retention
//!   state at runtime (reusing
//!   [`VrtProcess`]).
//! * **Profiler optimism** — a fraction of rows whose true retention is
//!   a constant factor worse than the profiled value the refresh plan
//!   was built from.
//! * **Temperature drift** — a global, gradual retention derating of
//!   every row (retention roughly halves per ~10 °C).
//! * **Refresh-postponement overflow** — under queue pressure the
//!   controller occasionally issues a refresh late or drops it outright.
//!
//! Retention changes are reported to the run's
//! [`SimObserver`](crate::sim::SimObserver) via `on_retention_change`, so
//! both the ground-truth integrity checker and the runtime
//! [`Guard`](crate::guard::Guard) track the same perturbed reality.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vrl_retention::vrt::VrtProcess;

use crate::timing::TimingParams;

/// Runtime VRT fault class: rows that toggle to a weaker retention state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VrtFault {
    /// Fraction of rows carrying a VRT process.
    pub fraction: f64,
    /// Weak-state retention as a fraction of the row's true strong
    /// retention (in `(0, 1)`).
    pub weak_factor: f64,
    /// Per-step probability of toggling state.
    pub toggle_probability: f64,
    /// Observation-window length between toggle opportunities (ms).
    pub step_ms: f64,
}

impl Default for VrtFault {
    fn default() -> Self {
        VrtFault {
            fraction: 0.02,
            weak_factor: 0.85,
            toggle_probability: 0.05,
            step_ms: 64.0,
        }
    }
}

/// Profiler-optimism fault class: the offline profile overstated some
/// rows' retention by `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimismFault {
    /// Fraction of rows affected.
    pub fraction: f64,
    /// How much worse true retention is than profiled (`true = profiled
    /// / factor`, `factor > 1`).
    pub factor: f64,
}

impl Default for OptimismFault {
    fn default() -> Self {
        OptimismFault {
            fraction: 0.05,
            factor: 1.25,
        }
    }
}

/// Temperature-drift fault class: a global retention derating ramping in
/// over time (all rows, multiplicative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperatureFault {
    /// When the drift starts (ms).
    pub onset_ms: f64,
    /// Ramp length from no derating to full derating (ms).
    pub ramp_ms: f64,
    /// Final retention multiplier (in `(0, 1]`; e.g. 0.8 ≈ a few °C of
    /// heating).
    pub retention_factor: f64,
}

impl Default for TemperatureFault {
    fn default() -> Self {
        TemperatureFault {
            onset_ms: 256.0,
            ramp_ms: 512.0,
            retention_factor: 0.85,
        }
    }
}

/// Refresh-overflow fault class: late or dropped refresh commands under
/// controller queue pressure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverflowFault {
    /// Probability that a due refresh is dropped entirely (the row waits
    /// a whole extra period).
    pub drop_probability: f64,
    /// Probability that a due refresh is issued late.
    pub delay_probability: f64,
    /// Lateness of a delayed refresh, in cycles.
    pub delay_cycles: u64,
}

impl Default for OverflowFault {
    fn default() -> Self {
        OverflowFault {
            drop_probability: 0.005,
            delay_probability: 0.05,
            delay_cycles: 100_000,
        }
    }
}

/// Which fault classes are active, and the injection seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultConfig {
    /// Seed for all stochastic fault decisions.
    pub seed: u64,
    /// Profiler-optimism faults, if enabled.
    pub optimism: Option<OptimismFault>,
    /// VRT faults, if enabled.
    pub vrt: Option<VrtFault>,
    /// Temperature drift, if enabled.
    pub temperature: Option<TemperatureFault>,
    /// Refresh overflow, if enabled.
    pub overflow: Option<OverflowFault>,
}

impl FaultConfig {
    /// The default evaluation scenario: profiler optimism plus VRT
    /// toggles (the two silent profile-staleness hazards), no
    /// temperature drift or command overflow.
    pub fn default_scenario(seed: u64) -> Self {
        FaultConfig {
            seed,
            optimism: Some(OptimismFault::default()),
            vrt: Some(VrtFault::default()),
            temperature: None,
            overflow: None,
        }
    }
}

/// What the injector decided about one due refresh command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshDisposition {
    /// Issue normally.
    Execute,
    /// Issue late by the given number of cycles.
    Delay(u64),
    /// Drop the command; the row's next refresh is a full period away.
    Drop,
}

/// Counters describing what the injector actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultStats {
    /// Rows whose true retention was degraded by profiler optimism.
    pub optimistic_rows: u64,
    /// Rows carrying a VRT process.
    pub vrt_rows: u64,
    /// VRT state toggles that occurred during the run.
    pub vrt_toggles: u64,
    /// Temperature-factor updates applied (0 when drift is disabled).
    pub temperature_steps: u64,
}

/// Injects ground-truth faults into a simulation.
///
/// Built from the *profiled* per-row retention (what the refresh plan
/// believed); the injector owns the perturbed truth and streams
/// retention changes plus per-refresh dispositions to the simulator.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    timing: TimingParams,
    rng: StdRng,
    /// Per-row true retention before the global temperature factor:
    /// profiled, degraded by optimism, and overridden by the VRT state
    /// for VRT rows.
    base_retention: Vec<f64>,
    optimistic: Vec<bool>,
    vrt: Vec<Option<VrtProcess>>,
    temp_factor: f64,
    step_cycles: u64,
    next_step: u64,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector over a bank whose refresh plan was built from
    /// `profiled_retention_ms`.
    ///
    /// Optimism and VRT faults pick disjoint row sets, so every faulty
    /// row has one well-defined cause.
    ///
    /// # Panics
    ///
    /// Panics if `profiled_retention_ms` is empty or contains a
    /// non-positive value, or if a fault parameter is out of range
    /// (fractions and probabilities outside `[0, 1]`, optimism factor
    /// below 1, VRT `weak_factor` or temperature `retention_factor`
    /// outside `(0, 1]`).
    pub fn new(config: FaultConfig, profiled_retention_ms: &[f64], timing: TimingParams) -> Self {
        assert!(!profiled_retention_ms.is_empty(), "need at least one row");
        assert!(
            profiled_retention_ms.iter().all(|&t| t > 0.0),
            "retention must be positive"
        );
        if let Some(o) = config.optimism {
            assert!(
                (0.0..=1.0).contains(&o.fraction),
                "optimism fraction in [0,1]"
            );
            assert!(o.factor >= 1.0, "optimism factor must be >= 1");
        }
        if let Some(v) = config.vrt {
            assert!((0.0..=1.0).contains(&v.fraction), "VRT fraction in [0,1]");
            assert!(
                v.weak_factor > 0.0 && v.weak_factor < 1.0,
                "weak_factor in (0,1)"
            );
            assert!(
                (0.0..=1.0).contains(&v.toggle_probability),
                "toggle prob in [0,1]"
            );
            assert!(v.step_ms > 0.0, "VRT step must be positive");
        }
        if let Some(t) = config.temperature {
            assert!(t.ramp_ms > 0.0, "ramp must be positive");
            assert!(
                t.retention_factor > 0.0 && t.retention_factor <= 1.0,
                "retention_factor in (0,1]"
            );
        }
        if let Some(o) = config.overflow {
            assert!(
                (0.0..=1.0).contains(&o.drop_probability),
                "drop prob in [0,1]"
            );
            assert!(
                (0.0..=1.0).contains(&o.delay_probability),
                "delay prob in [0,1]"
            );
        }

        let rows = profiled_retention_ms.len();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xFA17_1A7E);
        let mut base: Vec<f64> = profiled_retention_ms.to_vec();
        let mut stats = FaultStats::default();

        let mut optimistic = vec![false; rows];
        if let Some(opt) = config.optimism {
            for row in 0..rows {
                if rng.gen_bool(opt.fraction) {
                    base[row] /= opt.factor;
                    optimistic[row] = true;
                    stats.optimistic_rows += 1;
                }
            }
        }

        let mut vrt: Vec<Option<VrtProcess>> = (0..rows).map(|_| None).collect();
        if let Some(v) = config.vrt {
            for row in 0..rows {
                if optimistic[row] || !rng.gen_bool(v.fraction) {
                    continue;
                }
                let strong = base[row];
                let weak = strong * v.weak_factor;
                vrt[row] = Some(VrtProcess::new(
                    strong,
                    weak,
                    v.toggle_probability,
                    config.seed ^ (row as u64).wrapping_mul(0x9E37_79B9),
                ));
                stats.vrt_rows += 1;
            }
        }

        // One shared step clock drives both stochastic processes; the
        // temperature ramp is sampled on the same grid.
        let step_ms = config.vrt.map(|v| v.step_ms).unwrap_or(64.0);
        let step_cycles = timing.ms_to_cycles(step_ms).max(1);
        FaultInjector {
            config,
            timing,
            rng,
            base_retention: base,
            optimistic,
            vrt,
            temp_factor: 1.0,
            step_cycles,
            next_step: step_cycles,
            stats,
        }
    }

    /// The injector's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Injection counters.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Current true retention of `row`, in ms.
    pub fn true_retention_ms(&self, row: u32) -> f64 {
        let base = match &self.vrt[row as usize] {
            Some(p) => p.retention_ms(),
            None => self.base_retention[row as usize],
        };
        base * self.temp_factor
    }

    /// Current true retention of every row, in ms.
    pub fn true_retention(&self) -> Vec<f64> {
        (0..self.base_retention.len() as u32)
            .map(|r| self.true_retention_ms(r))
            .collect()
    }

    /// Rows carrying a VRT process.
    pub fn vrt_rows(&self) -> Vec<u32> {
        self.vrt
            .iter()
            .enumerate()
            .filter_map(|(row, p)| p.as_ref().map(|_| row as u32))
            .collect()
    }

    /// Rows degraded by profiler optimism.
    pub fn optimistic_rows(&self) -> Vec<u32> {
        self.optimistic
            .iter()
            .enumerate()
            .filter_map(|(row, &is_opt)| is_opt.then_some(row as u32))
            .collect()
    }

    /// The cycle of the stochastic processes' next step: polling at an
    /// earlier cycle changes nothing and returns no change.
    #[inline(always)]
    pub fn next_poll_cycle(&self) -> u64 {
        self.next_step
    }

    /// Advances the stochastic fault processes up to `cycle`, returning
    /// every retention change as `(row, new_retention_ms, at_cycle)` in
    /// time order.
    pub fn poll(&mut self, cycle: u64) -> Vec<(u32, f64, u64)> {
        let mut changes = Vec::new();
        // With no time-driven fault source the step loop is a pure
        // clock advance; do it in closed form instead of iterating
        // (a far horizon would otherwise walk billions of empty steps).
        if self.config.temperature.is_none() && self.stats.vrt_rows == 0 && self.next_step <= cycle
        {
            let steps = (cycle - self.next_step) / self.step_cycles + 1;
            self.next_step = self
                .next_step
                .saturating_add(steps.saturating_mul(self.step_cycles));
            return changes;
        }
        while self.next_step <= cycle {
            let at = self.next_step;
            let t_ms = self.timing.cycles_to_ms(at);

            let mut global_change = false;
            if let Some(temp) = self.config.temperature {
                let factor = if t_ms <= temp.onset_ms {
                    1.0
                } else {
                    let progress = ((t_ms - temp.onset_ms) / temp.ramp_ms).min(1.0);
                    1.0 + progress * (temp.retention_factor - 1.0)
                };
                if (factor - self.temp_factor).abs() > 1e-12 {
                    self.temp_factor = factor;
                    self.stats.temperature_steps += 1;
                    global_change = true;
                }
            }

            for row in 0..self.vrt.len() {
                let Some(p) = self.vrt[row].as_mut() else {
                    continue;
                };
                let before = p.is_weak();
                p.step();
                if p.is_weak() != before {
                    self.stats.vrt_toggles += 1;
                    if !global_change {
                        changes.push((row as u32, self.true_retention_ms(row as u32), at));
                    }
                }
            }

            if global_change {
                for row in 0..self.base_retention.len() as u32 {
                    changes.push((row, self.true_retention_ms(row), at));
                }
            }

            self.next_step += self.step_cycles;
        }
        changes
    }

    /// Appends the injector's mutable run-state to `enc`: the RNG
    /// stream position, the shared step clock, the temperature factor,
    /// every VRT process's state, and the fault counters. The static
    /// setup (which rows are optimistic/VRT, base retention) is
    /// reconstructed deterministically by [`FaultInjector::new`] from the
    /// same config and profile, so it is not serialized.
    pub fn save_state(&self, enc: &mut vrl_snap::Encoder) {
        use vrl_snap::Snapshot as _;
        enc.put_u64(self.rng.state());
        enc.put_u64(self.next_step);
        enc.put_f64(self.temp_factor);
        let vrt_states: Vec<Option<(bool, u64)>> = self
            .vrt
            .iter()
            .map(|p| p.as_ref().map(|p| p.run_state()))
            .collect();
        vrt_states.save(enc);
        enc.put_u64(self.stats.optimistic_rows);
        enc.put_u64(self.stats.vrt_rows);
        enc.put_u64(self.stats.vrt_toggles);
        enc.put_u64(self.stats.temperature_steps);
    }

    /// Restores run-state captured by [`FaultInjector::save_state`] into
    /// an injector freshly built with the same config and profile.
    ///
    /// # Errors
    ///
    /// Returns [`vrl_snap::SnapError`] on truncated input or a snapshot
    /// whose VRT row pattern does not match this injector's.
    pub fn restore_state(
        &mut self,
        dec: &mut vrl_snap::Decoder<'_>,
    ) -> Result<(), vrl_snap::SnapError> {
        use rand::SeedableRng;
        use vrl_snap::Snapshot as _;
        let rng_state = dec.take_u64()?;
        let next_step = dec.take_u64()?;
        let temp_factor = dec.take_f64()?;
        let vrt_states = Vec::<Option<(bool, u64)>>::load(dec)?;
        if vrt_states.len() != self.vrt.len() {
            return Err(vrl_snap::SnapError::Malformed {
                what: format!(
                    "injector has {} rows, snapshot has {}",
                    self.vrt.len(),
                    vrt_states.len()
                ),
            });
        }
        for (row, (slot, saved)) in self.vrt.iter_mut().zip(&vrt_states).enumerate() {
            match (slot, saved) {
                (Some(p), Some((weak, rng))) => p.restore_run_state(*weak, *rng),
                (None, None) => {}
                _ => {
                    return Err(vrl_snap::SnapError::Malformed {
                        what: format!("VRT presence mismatch at row {row}"),
                    })
                }
            }
        }
        self.rng = StdRng::seed_from_u64(rng_state);
        self.next_step = next_step;
        self.temp_factor = temp_factor;
        self.stats = FaultStats {
            optimistic_rows: dec.take_u64()?,
            vrt_rows: dec.take_u64()?,
            vrt_toggles: dec.take_u64()?,
            temperature_steps: dec.take_u64()?,
        };
        Ok(())
    }

    /// Decides the fate of one due refresh command (overflow faults).
    pub fn refresh_disposition(&mut self, _row: u32, _due: u64) -> RefreshDisposition {
        let Some(o) = self.config.overflow else {
            return RefreshDisposition::Execute;
        };
        if o.drop_probability > 0.0 && self.rng.gen_bool(o.drop_probability) {
            return RefreshDisposition::Drop;
        }
        if o.delay_probability > 0.0 && self.rng.gen_bool(o.delay_probability) {
            return RefreshDisposition::Delay(o.delay_cycles.max(1));
        }
        RefreshDisposition::Execute
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> TimingParams {
        TimingParams::paper_default()
    }

    #[test]
    fn no_faults_means_identity() {
        let profile = vec![100.0, 200.0, 300.0];
        let mut inj = FaultInjector::new(FaultConfig::default(), &profile, timing());
        assert_eq!(inj.true_retention(), profile);
        assert!(inj.poll(u64::MAX / 2).is_empty());
        assert_eq!(inj.refresh_disposition(0, 0), RefreshDisposition::Execute);
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn optimism_degrades_a_fraction_of_rows() {
        let profile = vec![200.0; 1000];
        let cfg = FaultConfig {
            seed: 1,
            optimism: Some(OptimismFault {
                fraction: 0.1,
                factor: 2.0,
            }),
            ..FaultConfig::default()
        };
        let inj = FaultInjector::new(cfg, &profile, timing());
        let degraded = inj
            .true_retention()
            .iter()
            .filter(|&&t| (t - 100.0).abs() < 1e-9)
            .count();
        assert_eq!(degraded as u64, inj.stats().optimistic_rows);
        assert!((50..200).contains(&degraded), "~10% of 1000: {degraded}");
    }

    #[test]
    fn vrt_and_optimism_pick_disjoint_rows() {
        let profile = vec![200.0; 2000];
        let cfg = FaultConfig {
            seed: 7,
            optimism: Some(OptimismFault {
                fraction: 0.2,
                factor: 1.5,
            }),
            vrt: Some(VrtFault {
                fraction: 0.2,
                ..VrtFault::default()
            }),
            ..FaultConfig::default()
        };
        let inj = FaultInjector::new(cfg, &profile, timing());
        let optimistic = inj.optimistic_rows();
        let vrt = inj.vrt_rows();
        assert!(!optimistic.is_empty() && !vrt.is_empty());
        assert!(
            vrt.iter().all(|r| !optimistic.contains(r)),
            "classes must be disjoint"
        );
    }

    #[test]
    fn vrt_toggles_surface_as_retention_changes() {
        let profile = vec![200.0; 64];
        let cfg = FaultConfig {
            seed: 3,
            vrt: Some(VrtFault {
                fraction: 1.0,
                weak_factor: 0.5,
                toggle_probability: 0.5,
                step_ms: 1.0,
            }),
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg, &profile, timing());
        let horizon = timing().ms_to_cycles(32.0);
        let changes = inj.poll(horizon);
        assert!(!changes.is_empty());
        assert_eq!(changes.len() as u64, inj.stats().vrt_toggles);
        for &(row, ret, at) in &changes {
            assert!(ret == 100.0 || ret == 200.0, "row {row} at {at}: {ret}");
            assert!(at <= horizon);
        }
        // Polling is incremental: a second poll at the same horizon is
        // silent.
        assert!(inj.poll(horizon).is_empty());
    }

    #[test]
    fn temperature_ramp_derates_every_row() {
        let profile = vec![100.0, 300.0];
        let cfg = FaultConfig {
            seed: 0,
            temperature: Some(TemperatureFault {
                onset_ms: 0.0,
                ramp_ms: 128.0,
                retention_factor: 0.5,
            }),
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg, &profile, timing());
        let changes = inj.poll(timing().ms_to_cycles(1024.0));
        assert!(!changes.is_empty());
        assert!((inj.true_retention_ms(0) - 50.0).abs() < 1e-9);
        assert!((inj.true_retention_ms(1) - 150.0).abs() < 1e-9);
        assert!(inj.stats().temperature_steps > 0);
    }

    #[test]
    fn overflow_drops_and_delays_some_refreshes() {
        let cfg = FaultConfig {
            seed: 11,
            overflow: Some(OverflowFault {
                drop_probability: 0.2,
                delay_probability: 0.2,
                delay_cycles: 500,
            }),
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg, &[100.0], timing());
        let mut drops = 0;
        let mut delays = 0;
        for i in 0..1000 {
            match inj.refresh_disposition(0, i) {
                RefreshDisposition::Drop => drops += 1,
                RefreshDisposition::Delay(d) => {
                    assert_eq!(d, 500);
                    delays += 1;
                }
                RefreshDisposition::Execute => {}
            }
        }
        assert!((100..320).contains(&drops), "~20%: {drops}");
        assert!((80..320).contains(&delays), "~20% of the rest: {delays}");
    }

    #[test]
    fn injector_state_round_trips_mid_run() {
        let profile: Vec<f64> = (0..256).map(|i| 64.0 + i as f64).collect();
        let cfg = FaultConfig {
            overflow: Some(OverflowFault::default()),
            temperature: Some(TemperatureFault::default()),
            ..FaultConfig::default_scenario(42)
        };
        let mut live = FaultInjector::new(cfg, &profile, timing());
        let half = timing().ms_to_cycles(256.0);
        live.poll(half);
        for i in 0..100 {
            live.refresh_disposition(i % 256, u64::from(i));
        }

        let mut enc = vrl_snap::Encoder::new();
        live.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut resumed = FaultInjector::new(cfg, &profile, timing());
        let mut dec = vrl_snap::Decoder::new(&bytes);
        resumed.restore_state(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(resumed.stats(), live.stats());
        assert_eq!(resumed.true_retention(), live.true_retention());
        // Both continue bit-identically from the checkpoint.
        let full = timing().ms_to_cycles(512.0);
        assert_eq!(resumed.poll(full), live.poll(full));
        for i in 0..100 {
            assert_eq!(
                resumed.refresh_disposition(i % 256, u64::from(i)),
                live.refresh_disposition(i % 256, u64::from(i))
            );
        }
    }

    #[test]
    fn injector_restore_rejects_mismatched_shape() {
        let profile = vec![100.0; 64];
        let cfg = FaultConfig::default_scenario(42);
        let mut enc = vrl_snap::Encoder::new();
        FaultInjector::new(cfg, &profile, timing()).save_state(&mut enc);
        let bytes = enc.into_bytes();
        // Different seed → different VRT row pattern (or different count).
        let mut other = FaultInjector::new(FaultConfig::default(), &[100.0; 32], timing());
        let err = other
            .restore_state(&mut vrl_snap::Decoder::new(&bytes))
            .unwrap_err();
        assert!(
            matches!(err, vrl_snap::SnapError::Malformed { .. }),
            "{err}"
        );
    }

    #[test]
    fn default_scenario_is_reproducible() {
        let profile: Vec<f64> = (0..256).map(|i| 64.0 + i as f64).collect();
        let mk = || {
            let mut inj = FaultInjector::new(FaultConfig::default_scenario(42), &profile, timing());
            inj.poll(timing().ms_to_cycles(512.0));
            inj.true_retention()
        };
        assert_eq!(mk(), mk());
    }
}
