//! The process-wide metrics registry: relaxed atomic counters and
//! log2-bucket histograms, cheap enough to stay on unconditionally.
//!
//! Producers increment per *operation* (a cache probe, a replica insert, a
//! worker's whole run), never per tuple, so the registry costs nothing
//! measurable on the hot path. Consumers take a [`MetricsSnapshot`] — a
//! plain-value copy that can be diffed across a workload and serialized as
//! JSON through [`crate::json`].

use crate::json::{self, JsonWriter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A relaxed atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `b` counts values whose bit length
/// is `b`, i.e. bucket 0 holds zeros and bucket `b ≥ 1` holds values in
/// `[2^(b-1), 2^b)`. 64-bit values need bit lengths 0..=64.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucket histogram with a running sum, all relaxed atomics.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: its bit length.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Plain-value copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum(),
        }
    }
}

/// Plain-value histogram state, diffable and serializable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    pub sum: u64,
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Bucketwise difference against an earlier snapshot.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }
}

/// Engine-wide metrics. One global instance lives behind
/// [`global_metrics`]; tests may construct private registries.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Cache probes answered from a replica (`CacheManager::get`/`get_any`).
    pub cache_hits: Counter,
    /// Cache probes that missed.
    pub cache_misses: Counter,
    /// Replicas inserted into a cache.
    pub cache_insertions: Counter,
    /// Replicas evicted to make room.
    pub cache_evictions: Counter,
    /// Replicas dropped because their source changed underneath them.
    pub cache_invalidations: Counter,
    /// Size distribution of inserted replicas, bytes.
    pub cache_replica_bytes: Histogram,
    /// Nanoseconds pool workers spent inside morsel work closures.
    pub worker_busy_ns: Counter,
    /// Nanoseconds pool workers spent claiming/waiting between morsels.
    pub worker_idle_ns: Counter,
    /// Threaded pool runs completed.
    pub pool_runs: Counter,
    /// OS threads spawned for pool work. Per-run scoped spawns count every
    /// worker of every run; a resident pool counts its workers once, at
    /// construction — so a zero delta across a query proves the resident
    /// path spawned nothing.
    pub pool_thread_spawns: Counter,
    /// Morsel runs attached to (and detached from) a resident pool.
    pub pool_attached_runs: Counter,
    /// Morsel claims taken while ≥2 runs were in flight on one resident
    /// pool — the time-slicing signal: nonzero means concurrent queries
    /// actually interleaved at morsel granularity.
    pub pool_multiplexed_claims: Counter,
    /// Morsels claimed by one worker in one run (per-worker distribution;
    /// a wide spread between buckets means claim imbalance).
    pub worker_morsel_claims: Histogram,
    /// Per-run spread `max − min` of morsel claims across workers — the
    /// steal-imbalance signal.
    pub morsel_claim_spread: Histogram,
    /// Total compiled-kernel invocations recorded by traced queries.
    pub kernel_invocations: Counter,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Plain-value copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            cache_insertions: self.cache_insertions.get(),
            cache_evictions: self.cache_evictions.get(),
            cache_invalidations: self.cache_invalidations.get(),
            cache_replica_bytes: self.cache_replica_bytes.snapshot(),
            worker_busy_ns: self.worker_busy_ns.get(),
            worker_idle_ns: self.worker_idle_ns.get(),
            pool_runs: self.pool_runs.get(),
            pool_thread_spawns: self.pool_thread_spawns.get(),
            pool_attached_runs: self.pool_attached_runs.get(),
            pool_multiplexed_claims: self.pool_multiplexed_claims.get(),
            worker_morsel_claims: self.worker_morsel_claims.snapshot(),
            morsel_claim_spread: self.morsel_claim_spread.snapshot(),
            kernel_invocations: self.kernel_invocations.get(),
        }
    }
}

/// Plain-value copy of the registry at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_insertions: u64,
    pub cache_evictions: u64,
    pub cache_invalidations: u64,
    pub cache_replica_bytes: HistogramSnapshot,
    pub worker_busy_ns: u64,
    pub worker_idle_ns: u64,
    pub pool_runs: u64,
    pub pool_thread_spawns: u64,
    pub pool_attached_runs: u64,
    pub pool_multiplexed_claims: u64,
    pub worker_morsel_claims: HistogramSnapshot,
    pub morsel_claim_spread: HistogramSnapshot,
    pub kernel_invocations: u64,
}

impl MetricsSnapshot {
    /// Fieldwise difference against an earlier snapshot — the way to scope
    /// the global registry to one workload.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_insertions: self
                .cache_insertions
                .saturating_sub(earlier.cache_insertions),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            cache_invalidations: self
                .cache_invalidations
                .saturating_sub(earlier.cache_invalidations),
            cache_replica_bytes: self.cache_replica_bytes.since(&earlier.cache_replica_bytes),
            worker_busy_ns: self.worker_busy_ns.saturating_sub(earlier.worker_busy_ns),
            worker_idle_ns: self.worker_idle_ns.saturating_sub(earlier.worker_idle_ns),
            pool_runs: self.pool_runs.saturating_sub(earlier.pool_runs),
            pool_thread_spawns: self
                .pool_thread_spawns
                .saturating_sub(earlier.pool_thread_spawns),
            pool_attached_runs: self
                .pool_attached_runs
                .saturating_sub(earlier.pool_attached_runs),
            pool_multiplexed_claims: self
                .pool_multiplexed_claims
                .saturating_sub(earlier.pool_multiplexed_claims),
            worker_morsel_claims: self
                .worker_morsel_claims
                .since(&earlier.worker_morsel_claims),
            morsel_claim_spread: self.morsel_claim_spread.since(&earlier.morsel_claim_spread),
            kernel_invocations: self
                .kernel_invocations
                .saturating_sub(earlier.kernel_invocations),
        }
    }

    /// Serialize as a JSON object. Each histogram is its total count, sum,
    /// and the non-empty buckets as `[bit_length, count]` pairs.
    pub fn to_json(&self) -> String {
        let histogram = |w: &mut JsonWriter, h: &HistogramSnapshot| {
            w.object(|w| {
                w.key("count").int(h.count());
                w.key("sum").int(h.sum);
                w.key("buckets").array(|w| {
                    for (b, &n) in h.buckets.iter().enumerate().filter(|(_, &n)| n > 0) {
                        w.array(|w| {
                            w.int(b);
                            w.int(n);
                        });
                    }
                });
            })
        };
        json::object(|w| {
            w.key("cache_hits").int(self.cache_hits);
            w.key("cache_misses").int(self.cache_misses);
            w.key("cache_insertions").int(self.cache_insertions);
            w.key("cache_evictions").int(self.cache_evictions);
            w.key("cache_invalidations").int(self.cache_invalidations);
            histogram(w.key("cache_replica_bytes"), &self.cache_replica_bytes);
            w.key("worker_busy_ns").int(self.worker_busy_ns);
            w.key("worker_idle_ns").int(self.worker_idle_ns);
            w.key("pool_runs").int(self.pool_runs);
            w.key("pool_thread_spawns").int(self.pool_thread_spawns);
            w.key("pool_attached_runs").int(self.pool_attached_runs);
            w.key("pool_multiplexed_claims")
                .int(self.pool_multiplexed_claims);
            histogram(w.key("worker_morsel_claims"), &self.worker_morsel_claims);
            histogram(w.key("morsel_claim_spread"), &self.morsel_claim_spread);
            w.key("kernel_invocations").int(self.kernel_invocations);
        })
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The engine-wide registry. Counters only ever grow; scope readings to a
/// window by diffing snapshots with [`MetricsSnapshot::since`].
pub fn global_metrics() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_follow_bit_length() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_counts_and_sums() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 2);
        assert_eq!(snap.buckets[11], 1);
    }

    #[test]
    fn snapshot_diffs_scope_a_window() {
        let reg = MetricsRegistry::new();
        reg.cache_hits.add(5);
        let before = reg.snapshot();
        reg.cache_hits.add(3);
        reg.cache_replica_bytes.record(100);
        let delta = reg.snapshot().since(&before);
        assert_eq!(delta.cache_hits, 3);
        assert_eq!(delta.cache_replica_bytes.count(), 1);
        assert_eq!(delta.cache_replica_bytes.sum, 100);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let reg = MetricsRegistry::new();
        reg.cache_hits.add(7);
        reg.worker_morsel_claims.record(3);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cache_hits\":7"));
        assert!(json.contains("\"buckets\":[[2,1]]"));
        // Balanced braces/brackets (the real parse round-trip lives in
        // vida-exec's integration tests, next to the JSON reader).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn global_registry_is_shared_and_monotonic() {
        let a = global_metrics().snapshot();
        global_metrics().pool_runs.inc();
        let b = global_metrics().snapshot();
        assert!(b.pool_runs > a.pool_runs);
    }

    #[test]
    fn snapshot_json_golden() {
        let reg = MetricsRegistry::new();
        let counters = [
            &reg.cache_hits,
            &reg.cache_misses,
            &reg.cache_insertions,
            &reg.cache_evictions,
            &reg.cache_invalidations,
            &reg.worker_busy_ns,
            &reg.worker_idle_ns,
            &reg.pool_runs,
            &reg.pool_thread_spawns,
            &reg.pool_attached_runs,
            &reg.pool_multiplexed_claims,
            &reg.kernel_invocations,
        ];
        for (i, c) in counters.into_iter().enumerate() {
            c.add(i as u64 + 1);
        }
        for v in [0, 100, 4096] {
            reg.cache_replica_bytes.record(v);
        }
        reg.worker_morsel_claims.record(3);
        reg.worker_morsel_claims.record(3);
        let golden = concat!(
            r#"{"cache_hits":1,"cache_misses":2,"cache_insertions":3,"cache_evictions":4,"#,
            r#""cache_invalidations":5,"#,
            r#""cache_replica_bytes":{"count":3,"sum":4196,"buckets":[[0,1],[7,1],[13,1]]},"#,
            r#""worker_busy_ns":6,"worker_idle_ns":7,"pool_runs":8,"pool_thread_spawns":9,"#,
            r#""pool_attached_runs":10,"pool_multiplexed_claims":11,"#,
            r#""worker_morsel_claims":{"count":2,"sum":6,"buckets":[[2,2]]},"#,
            r#""morsel_claim_spread":{"count":0,"sum":0,"buckets":[]},"#,
            r#""kernel_invocations":12}"#,
        );
        assert_eq!(reg.snapshot().to_json(), golden);
    }
}
