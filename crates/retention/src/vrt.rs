//! Variable retention time (VRT) extension.
//!
//! Real DRAM cells occasionally flip between two retention states
//! (AVATAR \[33\] mitigates exactly this). VRL-DRAM, like RAIDR, assumes a
//! static profile; this module models the VRT hazard. The simulator's
//! fault injector gives a fraction of rows one process each and reports
//! every toggle to the integrity checker and the runtime guard.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A two-state VRT process for one cell/row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VrtProcess {
    /// Retention in the strong state (ms).
    pub strong_ms: f64,
    /// Retention in the weak state (ms); `weak_ms < strong_ms`.
    pub weak_ms: f64,
    /// Probability per observation window of toggling state.
    pub toggle_probability: f64,
    state_weak: bool,
    rng_state: u64,
}

impl VrtProcess {
    /// Creates a process starting in the strong state.
    ///
    /// # Panics
    ///
    /// Panics if `weak_ms >= strong_ms`, either is non-positive, or the
    /// probability is outside `[0, 1]`.
    pub fn new(strong_ms: f64, weak_ms: f64, toggle_probability: f64, seed: u64) -> Self {
        assert!(
            weak_ms > 0.0 && strong_ms > weak_ms,
            "need 0 < weak < strong"
        );
        assert!(
            (0.0..=1.0).contains(&toggle_probability),
            "probability in [0,1]"
        );
        VrtProcess {
            strong_ms,
            weak_ms,
            toggle_probability,
            state_weak: false,
            rng_state: seed,
        }
    }

    /// Current retention (ms).
    pub fn retention_ms(&self) -> f64 {
        if self.state_weak {
            self.weak_ms
        } else {
            self.strong_ms
        }
    }

    /// Whether the process currently sits in the weak state.
    pub fn is_weak(&self) -> bool {
        self.state_weak
    }

    /// Advances one observation window; the state may toggle.
    pub fn step(&mut self) {
        // Derive a per-step RNG from the stored state so the process is a
        // deterministic value type (`Clone + PartialEq`).
        let mut rng = StdRng::seed_from_u64(self.rng_state);
        self.rng_state = rng.gen();
        if rng.gen_bool(self.toggle_probability) {
            self.state_weak = !self.state_weak;
        }
    }

    /// The mutable run-state `(is_weak, rng_state)` — everything
    /// [`VrtProcess::step`] changes. Used by checkpointing to capture a
    /// process mid-run.
    pub fn run_state(&self) -> (bool, u64) {
        (self.state_weak, self.rng_state)
    }

    /// Restores run-state captured by [`VrtProcess::run_state`].
    pub fn restore_run_state(&mut self, is_weak: bool, rng_state: u64) {
        self.state_weak = is_weak;
        self.rng_state = rng_state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_strong() {
        let p = VrtProcess::new(1000.0, 200.0, 0.1, 7);
        assert!(!p.is_weak());
        assert_eq!(p.retention_ms(), 1000.0);
    }

    #[test]
    fn never_toggles_with_zero_probability() {
        let mut p = VrtProcess::new(1000.0, 200.0, 0.0, 7);
        for _ in 0..100 {
            p.step();
        }
        assert!(!p.is_weak());
    }

    #[test]
    fn always_toggles_with_unit_probability() {
        let mut p = VrtProcess::new(1000.0, 200.0, 1.0, 7);
        p.step();
        assert!(p.is_weak());
        p.step();
        assert!(!p.is_weak());
    }

    #[test]
    fn eventually_visits_weak_state() {
        let mut p = VrtProcess::new(1000.0, 200.0, 0.2, 3);
        let mut saw_weak = false;
        for _ in 0..200 {
            p.step();
            saw_weak |= p.is_weak();
        }
        assert!(saw_weak);
    }

    #[test]
    fn stepping_is_deterministic() {
        let run = || {
            let mut p = VrtProcess::new(1000.0, 200.0, 0.3, 99);
            (0..50)
                .map(|_| {
                    p.step();
                    p.is_weak()
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "need 0 < weak < strong")]
    fn inverted_states_panic() {
        let _ = VrtProcess::new(200.0, 1000.0, 0.1, 7);
    }

    #[test]
    fn run_state_round_trips_mid_stream() {
        let mut p = VrtProcess::new(1000.0, 200.0, 0.3, 99);
        for _ in 0..17 {
            p.step();
        }
        let (weak, rng) = p.run_state();
        let mut q = VrtProcess::new(1000.0, 200.0, 0.3, 0);
        q.restore_run_state(weak, rng);
        for _ in 0..50 {
            p.step();
            q.step();
            assert_eq!(p.is_weak(), q.is_weak());
        }
    }
}
