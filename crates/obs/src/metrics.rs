//! The metrics registry: named monotonic counters, gauges, and
//! fixed-bucket histograms with cheap snapshots and a deterministic
//! cross-worker merge.
//!
//! Handles ([`CounterId`] et al.) are resolved once at registration so
//! the hot path is a single indexed add — no string hashing per update.
//! Snapshots carry the values keyed by name in [`BTreeMap`]s, so merging
//! and serialising are deterministic regardless of registration order.

use std::collections::BTreeMap;
use std::fmt;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Clone)]
struct Histogram {
    /// Upper bounds (inclusive) of each finite bucket; a final overflow
    /// bucket catches everything above the last bound.
    bounds: Vec<u64>,
    counts: Vec<u64>,
}

/// Registry of named metrics owned by one worker (or the main thread).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counter_names: Vec<String>,
    counters: Vec<u64>,
    gauge_names: Vec<String>,
    gauges: Vec<u64>,
    histogram_names: Vec<String>,
    histograms: Vec<Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Register (or look up) a monotonic counter.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|n| n == name) {
            return CounterId(i);
        }
        self.counter_names.push(name.to_string());
        self.counters.push(0);
        CounterId(self.counters.len() - 1)
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauge_names.iter().position(|n| n == name) {
            return GaugeId(i);
        }
        self.gauge_names.push(name.to_string());
        self.gauges.push(0);
        GaugeId(self.gauges.len() - 1)
    }

    /// Register (or look up) a histogram with the given inclusive bucket
    /// upper bounds. Bounds must be strictly increasing; an overflow
    /// bucket is appended implicitly. Re-registering an existing name
    /// with different bounds returns an error.
    pub fn histogram(&mut self, name: &str, bounds: &[u64]) -> Result<HistogramId, MetricsError> {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        if let Some(i) = self.histogram_names.iter().position(|n| n == name) {
            if self.histograms[i].bounds != bounds {
                return Err(MetricsError::BoundsMismatch {
                    name: name.to_string(),
                });
            }
            return Ok(HistogramId(i));
        }
        self.histogram_names.push(name.to_string());
        self.histograms.push(Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
        });
        Ok(HistogramId(self.histograms.len() - 1))
    }

    /// Add `delta` to a counter.
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0] += delta;
    }

    /// Increment a counter by one.
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Set a gauge to `value`.
    pub fn set(&mut self, id: GaugeId, value: u64) {
        self.gauges[id.0] = value;
    }

    /// Raise a gauge to `value` if it is higher than the current value.
    pub fn set_max(&mut self, id: GaugeId, value: u64) {
        if value > self.gauges[id.0] {
            self.gauges[id.0] = value;
        }
    }

    /// Record one observation into a histogram.
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        let h = &mut self.histograms[id.0];
        let bucket = h
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(h.bounds.len());
        h.counts[bucket] += 1;
    }

    /// Snapshot every metric by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counter_names
                .iter()
                .cloned()
                .zip(self.counters.iter().copied())
                .collect(),
            gauges: self
                .gauge_names
                .iter()
                .cloned()
                .zip(self.gauges.iter().copied())
                .collect(),
            histograms: self
                .histogram_names
                .iter()
                .cloned()
                .zip(self.histograms.iter().cloned().map(|h| HistogramSnapshot {
                    bounds: h.bounds,
                    counts: h.counts,
                }))
                .collect(),
        }
    }
}

/// A frozen histogram: bucket bounds plus counts (one extra overflow
/// bucket).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the finite buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`): the inclusive upper
    /// bound of the bucket holding the rank-`⌈q·total⌉` observation, or
    /// 0 for an empty histogram. Like
    /// `vrl_sched::LatencyHistogram::quantile`, the answer is exact
    /// only up to the bucket width; samples landing in the overflow
    /// bucket report the last finite bound (the tightest lower bound
    /// the snapshot can justify).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return match self.bounds.get(i) {
                    Some(&bound) => bound,
                    None => self.bounds.last().copied().unwrap_or(0),
                };
            }
        }
        self.bounds.last().copied().unwrap_or(0)
    }
}

/// A point-in-time copy of every metric, keyed by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Gauges (merge takes the max).
    pub gauges: BTreeMap<String, u64>,
    /// Histograms (merge sums bucket-wise).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Merge failures — currently only incompatible histogram shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsError {
    /// Two snapshots (or registrations) disagree on a histogram's bucket
    /// bounds.
    BoundsMismatch {
        /// The offending histogram's name.
        name: String,
    },
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::BoundsMismatch { name } => {
                write!(
                    f,
                    "histogram `{name}` registered with conflicting bucket bounds"
                )
            }
        }
    }
}

impl std::error::Error for MetricsError {}

impl MetricsSnapshot {
    /// Fold `other` into `self`: counters sum, gauges take the max,
    /// histograms sum bucket-wise. Metric sets are unioned, so merging
    /// snapshots from heterogeneous workers is fine; the result depends
    /// only on the multiset of inputs (names are sorted, all merge ops
    /// are commutative and associative).
    pub fn merge(&mut self, other: &MetricsSnapshot) -> Result<(), MetricsError> {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            if *v > *slot {
                *slot = *v;
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
                Some(mine) => {
                    if mine.bounds != h.bounds {
                        return Err(MetricsError::BoundsMismatch { name: name.clone() });
                    }
                    for (a, b) in mine.counts.iter_mut().zip(&h.counts) {
                        *a += b;
                    }
                }
            }
        }
        Ok(())
    }

    /// Merge an iterator of snapshots into one.
    pub fn merged<'a, I>(snapshots: I) -> Result<MetricsSnapshot, MetricsError>
    where
        I: IntoIterator<Item = &'a MetricsSnapshot>,
    {
        let mut out = MetricsSnapshot::default();
        for s in snapshots {
            out.merge(s)?;
        }
        Ok(out)
    }

    /// A counter's value, or 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value, or 0 if absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Serialise to a flat JSON object (the vendored serde has no map
    /// support, so this is written by hand; keys are escaped).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"vrl-metrics-v1\",\"counters\":{");
        push_entries(
            &mut out,
            self.counters.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\"gauges\":{");
        push_entries(
            &mut out,
            self.gauges.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\"histograms\":{");
        let hists = self.histograms.iter().map(|(k, h)| {
            let bounds: Vec<String> = h.bounds.iter().map(u64::to_string).collect();
            let counts: Vec<String> = h.counts.iter().map(u64::to_string).collect();
            (
                k,
                format!(
                    "{{\"bounds\":[{}],\"counts\":[{}]}}",
                    bounds.join(","),
                    counts.join(",")
                ),
            )
        });
        push_entries(&mut out, hists);
        out.push_str("}}");
        out
    }
}

fn push_entries<'a, V, I>(out: &mut String, entries: I)
where
    V: AsRef<str>,
    I: Iterator<Item = (&'a String, V)>,
{
    let mut first = true;
    for (key, value) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        serde::write_json_string(key, out);
        out.push(':');
        out.push_str(value.as_ref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("sim.refreshes");
        let g = reg.gauge("queue.max_depth");
        reg.add(c, 5);
        reg.inc(c);
        reg.set_max(g, 7);
        reg.set_max(g, 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim.refreshes"), 6);
        assert_eq!(snap.gauge("queue.max_depth"), 7);
        // Re-registering returns the same handle.
        assert_eq!(reg.counter("sim.refreshes"), c);
    }

    #[test]
    fn histograms_bucket_inclusively_with_overflow() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[10, 100]).unwrap();
        reg.observe(h, 10);
        reg.observe(h, 11);
        reg.observe(h, 1_000);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["lat"].counts, vec![1, 1, 1]);
        assert_eq!(snap.histograms["lat"].total(), 3);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = MetricsRegistry::new();
        let ca = a.counter("x");
        let ga = a.gauge("g");
        let ha = a.histogram("h", &[8]).unwrap();
        a.add(ca, 3);
        a.set_max(ga, 2);
        a.observe(ha, 4);

        let mut b = MetricsRegistry::new();
        let cb = b.counter("x");
        let gb = b.gauge("g");
        let hb = b.histogram("h", &[8]).unwrap();
        b.add(cb, 4);
        b.set_max(gb, 9);
        b.observe(hb, 99);

        let (sa, sb) = (a.snapshot(), b.snapshot());
        let ab = MetricsSnapshot::merged([&sa, &sb]).unwrap();
        let ba = MetricsSnapshot::merged([&sb, &sa]).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("x"), 7);
        assert_eq!(ab.gauge("g"), 9);
        assert_eq!(ab.histograms["h"].counts, vec![1, 1]);
    }

    #[test]
    fn merge_rejects_mismatched_bounds() {
        let mut a = MetricsRegistry::new();
        a.histogram("h", &[1]).unwrap();
        let mut b = MetricsRegistry::new();
        b.histogram("h", &[2]).unwrap();
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert!(MetricsSnapshot::merged([&sa, &sb]).is_err());
        assert!(a.histogram("h", &[9]).is_err());
    }

    #[test]
    fn json_export_escapes_keys() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("weird \"name\"");
        reg.inc(c);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"weird \\\"name\\\"\":1"), "{json}");
        assert!(json.starts_with("{\"schema\":\"vrl-metrics-v1\""));
    }
}
