//! Content-addressed artifact cache with bounded, cost-aware shards.
//!
//! Four shards, one per artifact kind, each keyed by the canonical
//! FNV-1a hash of the *generating* configuration (never of the artifact
//! itself — artifacts are derived deterministically, so the generating
//! key is the identity):
//!
//! | shard      | key                                          | artifact                         |
//! |------------|----------------------------------------------|----------------------------------|
//! | `profiles` | rows, cells_per_row, seed                    | generated [`BankProfile`]        |
//! | `plans`    | profile key + nbits + guard_band             | [`RefreshPlan`] (MPRSF memo)     |
//! | `traces`   | benchmark, rows, seed, duration_ms           | materialized [`TraceRecord`] vec |
//! | `results`  | full [`JobSpec`](crate::spec::JobSpec) hash  | finished result frame            |
//!
//! Each entry is built **exactly once** per resident generation, even
//! under concurrent requests: a per-key build gate serializes same-key
//! builders while leaving different keys fully parallel. Every shard
//! has a byte capacity ([`CacheLimits`]); inserts that push occupancy
//! over the bound evict least-recently-used entries (cost-aware — a
//! 4 MiB trace pays for itself, a 200-byte result frame barely counts)
//! until occupancy fits again, so a sweep larger than capacity runs in
//! bounded memory and merely rebuilds evicted artifacts
//! deterministically on the next request. Hit/miss/eviction counters
//! and occupancy gauges feed the `serve.cache.*` metrics.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use vrl_dram::experiment::{Experiment, ExperimentConfig};
use vrl_dram::plan::RefreshPlan;
use vrl_retention::profile::BankProfile;
use vrl_snap::Encoder;
use vrl_trace::TraceRecord;

/// Approximate resident size of a cached artifact, in bytes. Drives
/// cost-aware eviction: shard capacity is a byte budget, not an entry
/// count, so one huge trace cannot hide behind a count-based limit.
pub trait CacheCost {
    /// Estimated bytes this value keeps alive while cached.
    fn cost_bytes(&self) -> u64;
}

impl CacheCost for Arc<String> {
    fn cost_bytes(&self) -> u64 {
        self.len() as u64
    }
}

impl CacheCost for Arc<Vec<TraceRecord>> {
    fn cost_bytes(&self) -> u64 {
        (self.len() * std::mem::size_of::<TraceRecord>()) as u64
    }
}

impl CacheCost for Arc<BankProfile> {
    fn cost_bytes(&self) -> u64 {
        // Each row keeps a weakest-cell summary; ~32 bytes is the
        // right order of magnitude for eviction purposes.
        (self.row_count() as u64) * 32
    }
}

impl CacheCost for Arc<RefreshPlan> {
    fn cost_bytes(&self) -> u64 {
        // One MPRSF byte per row plus the binning table.
        self.mprsf().len() as u64 + 256
    }
}

/// A resident cache entry with its LRU bookkeeping.
#[derive(Debug)]
struct Entry<T> {
    value: T,
    cost: u64,
    last_use: u64,
}

/// The lock-protected interior of a shard.
#[derive(Debug)]
struct ShardInner<T> {
    ready: HashMap<u64, Entry<T>>,
    /// Per-key build gates: same-key builders serialize here while the
    /// shard lock stays free for other keys.
    building: HashMap<u64, Arc<Mutex<()>>>,
    /// Monotone access clock — strictly increasing per shard touch, so
    /// LRU victims are unique and eviction order is deterministic for a
    /// deterministic operation order.
    tick: u64,
    /// Total cost of all resident entries.
    occupied: u64,
}

/// One cache shard: build-once storage, a byte capacity with LRU
/// eviction, and hit/miss/eviction counters.
#[derive(Debug)]
pub struct Shard<T> {
    inner: Mutex<ShardInner<T>>,
    capacity: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

// Manual impl: the derive would demand `T: Default`, but an empty shard
// needs no values of `T` at all.
impl<T> Default for Shard<T> {
    fn default() -> Shard<T> {
        Shard::bounded(u64::MAX)
    }
}

impl<T> Shard<T> {
    /// An empty shard holding at most `capacity` cost-bytes of resident
    /// entries (`u64::MAX` = unbounded).
    pub fn bounded(capacity: u64) -> Shard<T> {
        Shard {
            inner: Mutex::new(ShardInner {
                ready: HashMap::new(),
                building: HashMap::new(),
                tick: 0,
                occupied: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A poisoned shard lock is recovered, not propagated: the interior
    /// is a plain map plus counters, consistent after any panic point,
    /// and one panicked builder must not wedge every later request.
    fn lock(&self) -> MutexGuard<'_, ShardInner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that built the artifact.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay under the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total cost-bytes of resident entries. Always ≤
    /// [`Shard::capacity_bytes`] except while a single entry larger
    /// than the whole capacity is resident (an oversize artifact is
    /// served, evicting everything else, rather than refused).
    pub fn occupied_bytes(&self) -> u64 {
        self.lock().occupied
    }

    /// The configured capacity in cost-bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.lock().ready.len()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Clone + CacheCost> Shard<T> {
    /// The value for `key`, if resident: counted as a hit and as a use
    /// for LRU purposes, exactly as a resident key in
    /// [`Shard::try_get_or_build`] is. A miss counts nothing and builds
    /// nothing.
    pub fn get(&self, key: u64) -> Option<T> {
        self.hit(&mut self.lock(), key)
    }

    /// Advances the access clock and, when `key` is resident, stamps
    /// its use and counts the hit.
    fn hit(&self, inner: &mut ShardInner<T>, key: u64) -> Option<T> {
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.ready.get_mut(&key)?;
        entry.last_use = tick;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(entry.value.clone())
    }

    /// Returns the cached value for `key`, building (and caching) it
    /// with `build` on first use. Concurrent callers with the same key
    /// serialize on the key's build gate, so `build` runs exactly once
    /// per resident generation; a failed build caches nothing and the
    /// next caller retries. Inserting over capacity evicts
    /// least-recently-used entries until occupancy fits (the newest
    /// entry itself is never the victim).
    ///
    /// # Errors
    ///
    /// Propagates the error from `build` without caching anything.
    pub fn try_get_or_build<E>(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        // Fast path: resident entry.
        let gate = {
            let mut inner = self.lock();
            if let Some(value) = self.hit(&mut inner, key) {
                return Ok(value);
            }
            Arc::clone(inner.building.entry(key).or_default())
        };

        // Same-key builders serialize here; a panicked builder's poison
        // is recovered — the gate guards no data.
        let _build_turn = gate.lock().unwrap_or_else(PoisonError::into_inner);

        // A builder ahead of us may have filled the slot while we
        // waited on the gate.
        if let Some(value) = self.get(key) {
            return Ok(value);
        }

        let value = match build() {
            Ok(value) => value,
            Err(e) => {
                // Nothing cached; drop the gate entry so failing keys
                // do not accumulate. (Racing builders may then rebuild
                // concurrently — duplicated work after a failure, never
                // a wrong result.)
                self.lock().building.remove(&key);
                return Err(e);
            }
        };
        self.misses.fetch_add(1, Ordering::Relaxed);

        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.ready.contains_key(&key) {
            let cost = value.cost_bytes();
            inner.occupied += cost;
            inner.ready.insert(
                key,
                Entry {
                    value: value.clone(),
                    cost,
                    last_use: tick,
                },
            );
            self.evict_over_capacity(&mut inner, key);
        }
        inner.building.remove(&key);
        Ok(value)
    }

    /// Evicts least-recently-used entries until occupancy fits the
    /// capacity, never evicting `just_inserted` (an oversize entry
    /// empties the rest of the shard and stays — refusing to serve it
    /// would turn a tuning mistake into an outage).
    fn evict_over_capacity(&self, inner: &mut ShardInner<T>, just_inserted: u64) {
        while inner.occupied > self.capacity && inner.ready.len() > 1 {
            let victim = inner
                .ready
                .iter()
                .filter(|(k, _)| **k != just_inserted)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(evicted) = inner.ready.remove(&victim) {
                inner.occupied -= evicted.cost;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Infallible [`Shard::try_get_or_build`].
    pub fn get_or_build(&self, key: u64, build: impl FnOnce() -> T) -> T {
        self.try_get_or_build::<Infallible>(key, || Ok(build()))
            .unwrap_or_else(|e| match e {})
    }

    /// The value for `key`, if resident. Does not count as a use for
    /// LRU purposes.
    pub fn peek(&self, key: u64) -> Option<T> {
        self.lock().ready.get(&key).map(|e| e.value.clone())
    }
}

/// Byte budgets for the four shards. Defaults are sized for a daemon
/// serving design-space sweeps: traces dominate (each materialized
/// trace is hundreds of KiB), result frames are small but numerous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLimits {
    /// Budget for generated retention profiles.
    pub profile_bytes: u64,
    /// Budget for refresh plans (MPRSF memo tables).
    pub plan_bytes: u64,
    /// Budget for materialized benchmark traces.
    pub trace_bytes: u64,
    /// Budget for finished result frames.
    pub result_bytes: u64,
}

impl Default for CacheLimits {
    fn default() -> Self {
        CacheLimits {
            profile_bytes: 64 << 20,
            plan_bytes: 16 << 20,
            trace_bytes: 256 << 20,
            result_bytes: 64 << 20,
        }
    }
}

/// The daemon-wide artifact cache. See the module docs for the shard
/// layout, keying scheme, and eviction discipline.
#[derive(Debug)]
pub struct ArtifactCache {
    /// Generated retention profiles.
    pub profiles: Shard<Arc<BankProfile>>,
    /// Refresh plans (binning + MPRSF memo tables).
    pub plans: Shard<Arc<RefreshPlan>>,
    /// Materialized benchmark traces.
    pub traces: Shard<Arc<Vec<TraceRecord>>>,
    /// Finished result frames, keyed by full spec hash.
    pub results: Shard<Arc<String>>,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::with_limits(CacheLimits::default())
    }
}

/// Canonical key of the retention profile a config generates.
pub fn profile_key(config: &ExperimentConfig) -> u64 {
    let mut enc = Encoder::new();
    enc.put_u32(config.rows);
    enc.put_u32(config.cells_per_row);
    enc.put_u64(config.seed);
    vrl_snap::fnv1a64(&enc.into_bytes())
}

/// Canonical key of the refresh plan a config builds on its profile.
pub fn plan_key(config: &ExperimentConfig) -> u64 {
    let mut enc = Encoder::new();
    enc.put_u64(profile_key(config));
    enc.put_u32(config.nbits);
    enc.put_f64(config.guard_band);
    vrl_snap::fnv1a64(&enc.into_bytes())
}

/// Canonical key of one benchmark's materialized trace under a config.
pub fn trace_key(config: &ExperimentConfig, benchmark: &str) -> u64 {
    let mut enc = Encoder::new();
    enc.put_str(benchmark);
    enc.put_u32(config.rows);
    enc.put_u64(config.seed);
    enc.put_f64(config.duration_ms);
    vrl_snap::fnv1a64(&enc.into_bytes())
}

impl ArtifactCache {
    /// An empty cache with the default [`CacheLimits`].
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// An empty cache with per-shard byte budgets.
    pub fn with_limits(limits: CacheLimits) -> ArtifactCache {
        ArtifactCache {
            profiles: Shard::bounded(limits.profile_bytes),
            plans: Shard::bounded(limits.plan_bytes),
            traces: Shard::bounded(limits.trace_bytes),
            results: Shard::bounded(limits.result_bytes),
        }
    }

    /// An [`Experiment`] for `config` whose profile and plan come from
    /// (or populate) the cache. The result is bit-identical to
    /// [`Experiment::new`] — same generators, shared storage.
    pub fn experiment(&self, config: ExperimentConfig) -> Experiment {
        let profile = self
            .profiles
            .get_or_build(profile_key(&config), || Arc::new(config.build_profile()));
        let plan = self
            .plans
            .get_or_build(plan_key(&config), || Arc::new(config.build_plan(&profile)));
        Experiment::from_artifacts(config, profile, plan)
    }

    /// One benchmark's materialized trace under `experiment`'s config,
    /// from (or into) the cache.
    ///
    /// # Errors
    ///
    /// Returns [`vrl_dram::Error::UnknownWorkload`] for a benchmark
    /// name the workload generator does not know (spec validation
    /// normally rejects these before they get here).
    pub fn trace(
        &self,
        experiment: &Experiment,
        benchmark: &str,
    ) -> Result<Arc<Vec<TraceRecord>>, vrl_dram::Error> {
        self.traces
            .try_get_or_build(trace_key(experiment.config(), benchmark), || {
                experiment.materialize_trace(benchmark).map(Arc::new)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(rows: u32) -> ExperimentConfig {
        ExperimentConfig {
            rows,
            duration_ms: 64.0,
            ..Default::default()
        }
    }

    #[test]
    fn same_config_shares_artifacts_and_counts_hits() {
        let cache = ArtifactCache::new();
        let a = cache.experiment(config(128));
        let b = cache.experiment(config(128));
        assert!(Arc::ptr_eq(&a.profile_shared(), &b.profile_shared()));
        assert!(Arc::ptr_eq(&a.plan_shared(), &b.plan_shared()));
        assert_eq!(cache.profiles.misses(), 1);
        assert_eq!(cache.profiles.hits(), 1);
        assert_eq!(cache.plans.misses(), 1);
        assert_eq!(cache.plans.hits(), 1);

        let t1 = cache.trace(&a, "swaptions").unwrap();
        let t2 = cache.trace(&b, "swaptions").unwrap();
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(cache.traces.misses(), 1);
        assert_eq!(cache.traces.hits(), 1);
    }

    #[test]
    fn distinct_keys_build_distinct_artifacts() {
        let cache = ArtifactCache::new();
        let a = cache.experiment(config(128));
        let b = cache.experiment(config(256));
        assert!(!Arc::ptr_eq(&a.profile_shared(), &b.profile_shared()));
        assert_eq!(cache.profiles.misses(), 2);
        assert_eq!(cache.profiles.hits(), 0);
        // nbits changes the plan but not the profile.
        let c = cache.experiment(ExperimentConfig {
            nbits: 3,
            ..config(128)
        });
        assert!(Arc::ptr_eq(&a.profile_shared(), &c.profile_shared()));
        assert!(!Arc::ptr_eq(&a.plan_shared(), &c.plan_shared()));
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let cache = ArtifactCache::new();
        let e = cache.experiment(config(128));
        assert!(cache.trace(&e, "not-a-benchmark").is_err());
        assert_eq!(cache.traces.misses(), 0);
        assert!(cache
            .traces
            .peek(trace_key(e.config(), "not-a-benchmark"))
            .is_none());
    }

    #[test]
    fn concurrent_same_key_builds_exactly_once() {
        let cache = Arc::new(ArtifactCache::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || cache.experiment(config(128)));
            }
        });
        assert_eq!(cache.profiles.misses(), 1);
        assert_eq!(cache.profiles.hits(), 7);
        assert_eq!(cache.plans.misses(), 1);
    }

    #[test]
    fn lru_eviction_keeps_occupancy_under_the_bound() {
        // Each entry costs its string length; capacity fits two of the
        // three 40-byte entries.
        let shard: Shard<Arc<String>> = Shard::bounded(100);
        let value = |tag: u8| Arc::new(String::from_utf8(vec![tag; 40]).unwrap());
        shard.get_or_build(1, || value(b'a'));
        shard.get_or_build(2, || value(b'b'));
        assert_eq!(shard.occupied_bytes(), 80);
        assert_eq!(shard.evictions(), 0);

        // Touch key 1 so key 2 is the LRU victim.
        shard.get_or_build(1, || unreachable!("resident"));
        shard.get_or_build(3, || value(b'c'));
        assert_eq!(shard.evictions(), 1);
        assert!(shard.occupied_bytes() <= 100);
        assert!(shard.peek(1).is_some(), "recently used entry survives");
        assert!(shard.peek(2).is_none(), "LRU entry was evicted");
        assert!(shard.peek(3).is_some(), "new entry is resident");

        // An evicted key rebuilds on the next request (a miss, not an
        // error) and evicts the new LRU victim in turn.
        let mut rebuilt = false;
        shard.get_or_build(2, || {
            rebuilt = true;
            value(b'b')
        });
        assert!(rebuilt);
        assert_eq!(shard.misses(), 4);
        assert!(shard.occupied_bytes() <= 100);
    }

    #[test]
    fn get_counts_a_hit_and_a_use_like_the_build_path() {
        let shard: Shard<Arc<String>> = Shard::bounded(100);
        let value = |tag: u8| Arc::new(String::from_utf8(vec![tag; 40]).unwrap());
        assert!(shard.get(1).is_none(), "nothing resident yet");
        assert_eq!((shard.hits(), shard.misses()), (0, 0));
        shard.get_or_build(1, || value(b'a'));
        shard.get_or_build(2, || value(b'b'));

        // `get` touches key 1, so key 2 is the LRU victim.
        assert_eq!(shard.get(1).as_deref().map(String::len), Some(40));
        assert_eq!(shard.hits(), 1);
        shard.get_or_build(3, || value(b'c'));
        assert!(shard.peek(1).is_some(), "the entry `get` touched survives");
        assert!(shard.peek(2).is_none(), "LRU entry was evicted");
    }

    #[test]
    fn oversize_entries_are_served_not_refused() {
        let shard: Shard<Arc<String>> = Shard::bounded(10);
        let big = shard.get_or_build(1, || Arc::new("x".repeat(100)));
        assert_eq!(big.len(), 100);
        assert_eq!(shard.len(), 1, "the oversize entry stays resident");
        // A later insert evicts it.
        shard.get_or_build(2, || Arc::new("y".repeat(4)));
        assert!(shard.peek(1).is_none());
        assert_eq!(shard.occupied_bytes(), 4);
    }

    #[test]
    fn bounded_sweep_stays_under_capacity_with_byte_identical_rebuilds() {
        let shard: Shard<Arc<String>> = Shard::bounded(64);
        let render = |key: u64| Arc::new(format!("{key:032x}"));
        let mut first_pass = Vec::new();
        for key in 0..8u64 {
            first_pass.push(shard.get_or_build(key, || render(key)));
            assert!(shard.occupied_bytes() <= 64, "occupancy must stay bounded");
        }
        assert!(shard.evictions() > 0, "a sweep over capacity must evict");
        // Second pass: some keys rebuild, all values byte-identical.
        for key in 0..8u64 {
            let again = shard.get_or_build(key, || render(key));
            assert_eq!(again, first_pass[key as usize]);
        }
    }
}
