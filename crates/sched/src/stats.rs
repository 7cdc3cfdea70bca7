//! Scheduler statistics: the base simulator counters plus queueing,
//! bus, and refresh-parallelization metrics.

use serde::{Deserialize, Serialize};

use vrl_dram_sim::stats::SimStats;

/// A log2-bucketed latency histogram.
///
/// Bucket `i` counts samples with `floor(log2(latency)) == i - 1`
/// (bucket 0 holds zero-latency samples), so the whole `u64` range fits
/// in 65 buckets while the short-latency end keeps cycle-level
/// resolution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    total: u64,
    max: u64,
}

impl LatencyHistogram {
    const BUCKETS: usize = 65;

    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
            total: 0,
            max: 0,
        }
    }

    /// Records one latency sample (cycles).
    pub fn record(&mut self, latency: u64) {
        let bucket = (64 - latency.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total = self.total.saturating_add(latency);
        self.max = self.max.max(latency);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency over all samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), or 0 for an empty histogram. Bucketed, so the
    /// answer is exact only up to the bucket's power-of-two width.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_bound(i);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs, for
    /// serialization-friendly reporting.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_bound(i), n))
            .collect()
    }

    /// Exclusive upper bound of bucket `i`: bucket `i ≥ 1` holds
    /// `[2^(i−1), 2^i)`, so this is `2^i` (saturating at the top); bucket
    /// 0 holds only zero and reports 0.
    fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << (i - 1)).saturating_mul(2)
        }
    }

    /// Folds another histogram's samples into this one. Bucketed
    /// histograms merge exactly: the result equals recording both
    /// sample sets into one histogram, in any order.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total = self.total.saturating_add(other.total);
        self.max = self.max.max(other.max);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl vrl_snap::Snapshot for LatencyHistogram {
    fn save(&self, enc: &mut vrl_snap::Encoder) {
        self.buckets.save(enc);
        enc.put_u64(self.count);
        enc.put_u64(self.total);
        enc.put_u64(self.max);
    }

    fn load(dec: &mut vrl_snap::Decoder<'_>) -> Result<Self, vrl_snap::SnapError> {
        let buckets = Vec::<u64>::load(dec)?;
        if buckets.len() != Self::BUCKETS {
            return Err(vrl_snap::SnapError::Malformed {
                what: format!(
                    "histogram needs {} buckets, got {}",
                    Self::BUCKETS,
                    buckets.len()
                ),
            });
        }
        Ok(LatencyHistogram {
            buckets,
            count: dec.take_u64()?,
            total: dec.take_u64()?,
            max: dec.take_u64()?,
        })
    }
}

/// Statistics of one scheduler run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedStats {
    /// The base simulator counters, aggregated across all banks. Feeds
    /// the same throughput meter ([`SimStats::events`],
    /// [`SimStats::throughput`]) as the single-bank engines.
    pub sim: SimStats,
    /// Requests serviced ahead of an older queued request.
    pub reordered: u64,
    /// Maximum request-queue occupancy observed.
    pub max_queue_depth: usize,
    /// Refresh cycles executed on a bank that had demand requests
    /// queued against it at issue time — the demand-visible slice of
    /// `sim.refresh_busy_cycles`. Refresh-access parallelization exists
    /// to drive this toward zero.
    pub refresh_blocked_cycles: u64,
    /// Refreshes executed ahead of their deadline on an idle bank.
    pub pulled_in_refreshes: u64,
    /// Cycles at which the full request queue held back a pending
    /// arrival (each stalled cycle counted once).
    pub queue_stalls: u64,
    /// Queue-to-completion latency of every read request.
    pub read_latency: LatencyHistogram,
    /// Refreshes executed per bank.
    pub per_bank_refreshes: Vec<u64>,
    /// Accesses serviced per bank.
    pub per_bank_accesses: Vec<u64>,
}

impl SchedStats {
    /// Combines the statistics of channel shards that simulated the
    /// same wall of cycles concurrently (see
    /// [`Scheduler::for_channel`](crate::sched::Scheduler::for_channel),
    /// which names the shards' remaining callers).
    ///
    /// Every event counter sums; the per-bank vectors (full-DIMM sized
    /// in every shard, indexed by global bank) add elementwise; the
    /// occupancy high-water mark takes the max. `total_cycles` also
    /// takes the **max** — shards cover the same simulated interval,
    /// so summing (what [`SimStats::accumulate`] does for sequential
    /// runs) would double-count time.
    #[must_use]
    pub fn merge(mut self, other: &SchedStats) -> SchedStats {
        let total_cycles = self.sim.total_cycles.max(other.sim.total_cycles);
        self.sim.accumulate(&other.sim);
        self.sim.total_cycles = total_cycles;
        self.reordered += other.reordered;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.refresh_blocked_cycles += other.refresh_blocked_cycles;
        self.pulled_in_refreshes += other.pulled_in_refreshes;
        self.queue_stalls += other.queue_stalls;
        self.read_latency.merge(&other.read_latency);
        for (vec, theirs) in [
            (&mut self.per_bank_refreshes, &other.per_bank_refreshes),
            (&mut self.per_bank_accesses, &other.per_bank_accesses),
        ] {
            if vec.len() < theirs.len() {
                vec.resize(theirs.len(), 0);
            }
            for (mine, n) in vec.iter_mut().zip(theirs) {
                *mine += n;
            }
        }
        self
    }
}

impl vrl_snap::Snapshot for SchedStats {
    fn save(&self, enc: &mut vrl_snap::Encoder) {
        self.sim.save(enc);
        enc.put_u64(self.reordered);
        enc.put_usize(self.max_queue_depth);
        enc.put_u64(self.refresh_blocked_cycles);
        enc.put_u64(self.pulled_in_refreshes);
        enc.put_u64(self.queue_stalls);
        self.read_latency.save(enc);
        self.per_bank_refreshes.save(enc);
        self.per_bank_accesses.save(enc);
    }

    fn load(dec: &mut vrl_snap::Decoder<'_>) -> Result<Self, vrl_snap::SnapError> {
        Ok(SchedStats {
            sim: SimStats::load(dec)?,
            reordered: dec.take_u64()?,
            max_queue_depth: dec.take_usize()?,
            refresh_blocked_cycles: dec.take_u64()?,
            pulled_in_refreshes: dec.take_u64()?,
            queue_stalls: dec.take_u64()?,
            read_latency: LatencyHistogram::load(dec)?,
            per_bank_refreshes: Vec::<u64>::load(dec)?,
            per_bank_accesses: Vec::<u64>::load(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = LatencyHistogram::new();
        for lat in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(lat);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), u64::MAX);
        let buckets = h.nonzero_buckets();
        // 0 → bucket 0; 1 → (0,1]; 2,3 → (1,2]... bound 4; etc.
        assert_eq!(buckets[0], (0, 1));
        assert_eq!(buckets[1], (2, 1));
        assert_eq!(buckets[2], (4, 2));
        assert_eq!(buckets[3], (8, 1));
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(5); // bucket bound 8
        }
        h.record(1_000_000);
        assert_eq!(h.quantile(0.5), 8);
        assert!(h.quantile(0.999) > 8);
        assert_eq!(LatencyHistogram::new().quantile(0.5), 0);
    }

    #[test]
    fn mean_tracks_the_total() {
        let mut h = LatencyHistogram::new();
        h.record(10);
        h.record(30);
        assert!((h.mean() - 20.0).abs() < 1e-12);
    }
}
