//! Fixed-bucket latency histograms with a percentile query.
//!
//! ## Design
//!
//! A [`Histogram`] exposes a fixed set of log2 buckets: bucket `i` counts
//! observations `≤ 2^(8+i)` nanoseconds, for `i` in `0..31` (256 ns up to
//! ~275 s), plus an implicit `+Inf` bucket.  Behind each of those octaves it
//! records four linear sub-buckets: octave `(2^(7+i), 2^(8+i)]` splits at
//! 1.25, 1.5 and 1.75 × `2^(7+i)`, and everything up to 160 ns shares the
//! first one.  The exposition ([`HistogramSnapshot`], `/metrics`) sums the
//! sub-buckets back into the 31 octaves, and
//! [`percentile_ns`](Histogram::percentile_ns) reads them directly, so a
//! percentile above 160 ns is at most 1.25× the true value.  Picking a
//! sub-bucket is a `leading_zeros` and a shift — no search, no float math on
//! the record path.
//!
//! Recording is lock-free and contention-cheap: each histogram owns
//! `SHARDS` cache-line-aligned shards, every thread is assigned a stable
//! shard index on first use (a per-thread counter, so up to `SHARDS`
//! threads never share a cache line), and one observation is two `Relaxed`
//! atomic adds into that shard.  Shards are merged only when a scrape calls
//! [`Histogram::snapshot`], so the hot path never synchronises with
//! `/metrics`.
//!
//! Snapshots are internally consistent by construction: the total `count` is
//! derived from the merged bucket counters (not a separate atomic), so the
//! rendered Prometheus `_count` always equals the `+Inf` cumulative bucket.
//!
//! Regions are timed into a histogram with a [`Phase`](crate::Phase).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Number of finite log2 buckets (`≤ 2^(8+i)` ns for `i in 0..BUCKETS`).
pub const BUCKETS: usize = 31;

/// Linear sub-buckets recorded per exposed log2 bucket.
const SUB_BUCKETS: usize = 4;

/// Number of recorded finite sub-buckets.
const FINE_BUCKETS: usize = BUCKETS * SUB_BUCKETS;

/// Number of shards; threads are striped across them by a per-thread index.
const SHARDS: usize = 16;

/// One shard of sub-bucket counters, aligned so shards never share a cache
/// line.
#[repr(align(128))]
#[derive(Debug)]
struct Shard {
    buckets: [AtomicU64; FINE_BUCKETS],
    overflow: AtomicU64,
    sum_ns: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

/// Stable per-thread shard index: the first [`SHARDS`] threads each get a
/// private shard; later threads wrap around and share.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    INDEX.with(|cell| {
        let mut index = cell.get();
        if index == usize::MAX {
            index = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            cell.set(index);
        }
        index
    })
}

/// The inclusive upper bound of finite sub-bucket `i`, in nanoseconds:
/// `(5 + i % 4) · 2^(5 + i / 4)`, so every fourth bound is a power of two.
fn fine_bound_ns(i: usize) -> u64 {
    (5 + (i % SUB_BUCKETS) as u64) << (5 + i / SUB_BUCKETS)
}

/// Index of the finite sub-bucket for `value_ns`, or `None` for the `+Inf`
/// overflow bucket.
fn fine_index(value_ns: u64) -> Option<usize> {
    // For v > 128, v - 1 has its highest set bit at `msb` exactly when v
    // lies in the octave (2^msb, 2^(msb+1)]; the next two bits pick the
    // quarter.  Values up to 128 join the first quarter of (128, 256].
    let v = value_ns.max(129) - 1;
    let msb = 63 - v.leading_zeros();
    let octave = (msb - 7) as usize;
    if octave >= BUCKETS {
        return None;
    }
    let quarter = ((v >> (msb - 2)) & 3) as usize;
    Some(octave * SUB_BUCKETS + quarter)
}

/// A fixed log2-bucket latency histogram; see the [module docs](self).
///
/// Histograms are usually obtained from the process-global registry via
/// [`crate::histogram`]/[`crate::histogram_with`], which deduplicates by
/// `(name, labels)` and makes them visible to `/metrics` and snapshots.
#[derive(Debug)]
pub struct Histogram {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    shards: Vec<Shard>,
}

impl Histogram {
    /// Create an unregistered histogram (tests and tools such as `gesmc
    /// loadgen`; service code should use the registry constructors so
    /// scrapes can see it).
    pub fn new(name: &str, help: &str, labels: &[(&str, &str)]) -> Self {
        Self {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
        }
    }

    /// Metric family name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Help text (first registration wins).
    pub fn help(&self) -> &str {
        &self.help
    }

    /// Label pairs of this series (empty for an unlabeled family).
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// Record one observation of `value_ns` nanoseconds.
    pub fn record_ns(&self, value_ns: u64) {
        let shard = &self.shards[shard_index()];
        match fine_index(value_ns) {
            Some(i) => shard.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => shard.overflow.fetch_add(1, Ordering::Relaxed),
        };
        shard.sum_ns.fetch_add(value_ns, Ordering::Relaxed);
    }

    /// Record one observation of a [`Duration`].
    pub fn observe(&self, duration: Duration) {
        self.record_ns(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Sum the shards: per-sub-bucket counts, the overflow count and the
    /// (saturating) sum.
    fn merge(&self) -> ([u64; FINE_BUCKETS], u64, u64) {
        let mut per_bucket = [0u64; FINE_BUCKETS];
        let mut overflow = 0u64;
        let mut sum_ns = 0u64;
        for shard in &self.shards {
            for (total, bucket) in per_bucket.iter_mut().zip(&shard.buckets) {
                *total += bucket.load(Ordering::Relaxed);
            }
            overflow += shard.overflow.load(Ordering::Relaxed);
            sum_ns = sum_ns.saturating_add(shard.sum_ns.load(Ordering::Relaxed));
        }
        (per_bucket, overflow, sum_ns)
    }

    /// Merge all shards into a consistent snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let (per_bucket, overflow, sum_ns) = self.merge();
        let mut cumulative = 0u64;
        let buckets = per_bucket
            .chunks(SUB_BUCKETS)
            .enumerate()
            .map(|(i, quarters)| {
                cumulative += quarters.iter().sum::<u64>();
                BucketCount {
                    le_ns: fine_bound_ns(i * SUB_BUCKETS + SUB_BUCKETS - 1),
                    count: cumulative,
                }
            })
            .collect();
        HistogramSnapshot {
            name: self.name.clone(),
            help: self.help.clone(),
            labels: self.labels.clone(),
            buckets,
            count: cumulative + overflow,
            sum_ns,
        }
    }

    /// The `q`-quantile (`q` in 0..=1) of everything recorded so far, in
    /// nanoseconds: the upper bound of the sub-bucket holding rank
    /// `⌈q · count⌉`.  Above 160 ns that is at most 1.25× the true value.
    /// Returns 0 for an empty histogram and `u64::MAX` when the rank falls
    /// in the `+Inf` bucket (beyond ~275 s).
    pub fn percentile_ns(&self, q: f64) -> u64 {
        let (per_bucket, overflow, _) = self.merge();
        let count = per_bucket.iter().sum::<u64>() + overflow;
        if count == 0 {
            return 0;
        }
        let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (i, n) in per_bucket.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return fine_bound_ns(i);
            }
        }
        u64::MAX
    }
}

/// One cumulative bucket of a [`HistogramSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive upper bound in nanoseconds.
    pub le_ns: u64,
    /// Cumulative count of observations `≤ le_ns`.
    pub count: u64,
}

/// A point-in-time merged view of one histogram series.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Metric family name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Label pairs of this series.
    pub labels: Vec<(String, String)>,
    /// Cumulative finite buckets, ascending by bound.
    pub buckets: Vec<BucketCount>,
    /// Total observations (the `+Inf` cumulative bucket).
    pub count: u64,
    /// Sum of all observed values, in nanoseconds (saturating).
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Sum of all observed values in seconds (Prometheus `_sum`).
    pub fn sum_seconds(&self) -> f64 {
        self.sum_ns as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_bucket_boundary_goldens() {
        // The first sub-bucket is ≤ 160 ns and also absorbs 0.
        assert_eq!(fine_index(0), Some(0));
        assert_eq!(fine_index(160), Some(0));
        assert_eq!(fine_index(161), Some(1));
        assert_eq!(fine_index(256), Some(3));
        // One past a power of two opens the next octave's first quarter.
        assert_eq!(fine_index(257), Some(4));
        assert_eq!(fine_index(320), Some(4));
        assert_eq!(fine_index(321), Some(5));
        assert_eq!(fine_index(512), Some(7));
        // 1 ms lies in octave 12's last quarter, (1.75 · 2^19, 2^20].
        assert_eq!(fine_index(1_000_000), Some(12 * 4 + 3));
        // Last finite sub-bucket is ≤ 2^38 ns (~274.9 s).
        assert_eq!(fine_index(1 << 38), Some(FINE_BUCKETS - 1));
        assert_eq!(fine_index((1 << 38) + 1), None);
        assert_eq!(fine_index(u64::MAX), None);
        // Every fourth bound is an exposed log2 bound.
        for i in 0..BUCKETS {
            assert_eq!(fine_bound_ns(i * SUB_BUCKETS + SUB_BUCKETS - 1), 1 << (8 + i));
        }
        // Above 160 ns a value's sub-bucket bound is at most 1.25× the value.
        let mut value = 161u64;
        while value <= 1 << 38 {
            for v in [value - 1, value, value + 1] {
                let i = fine_index(v).unwrap();
                assert!(i == 0 || fine_bound_ns(i - 1) < v, "{v} belongs below {i}");
                assert!(v <= fine_bound_ns(i) && fine_bound_ns(i) as f64 <= 1.25 * v as f64);
            }
            value = value * 9 / 8 + 1;
        }
    }

    #[test]
    fn snapshot_is_cumulative_and_counts_overflow() {
        let h = Histogram::new("t", "test", &[]);
        h.record_ns(1); // bucket 0
        h.record_ns(300); // bucket 1
        h.record_ns(300); // bucket 1
        h.record_ns(u64::MAX); // +Inf
        let s = h.snapshot();
        assert_eq!(s.buckets.len(), BUCKETS);
        assert_eq!(s.buckets[0].count, 1);
        assert_eq!(s.buckets[1].count, 3);
        assert_eq!(s.buckets.last().unwrap().count, 3);
        assert_eq!(s.count, 4);
        // The shard's atomic sum wraps on the u64::MAX add: 601 + MAX ≡ 600.
        assert_eq!(s.sum_ns, 600);
    }

    #[test]
    fn sum_saturates_instead_of_wrapping_across_shards() {
        let h = Histogram::new("t", "test", &[]);
        h.record_ns(u64::MAX);
        h.record_ns(u64::MAX);
        // Per-shard atomics wrap, but a single thread lands in one shard, so
        // the merged sum reflects that shard's (wrapped) value; the merge
        // itself must still saturate rather than panic in debug builds.
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        let _ = s.sum_seconds();
    }

    #[test]
    fn percentiles_of_a_mixture_fall_within_one_sub_bucket() {
        // 90 fast, 10 slow: p50 lands on the fast value, p99 on the slow
        // one, each at most one sub-bucket (1.25×) above it.
        let h = Histogram::new("t", "test", &[]);
        for _ in 0..90 {
            h.record_ns(500_000);
        }
        for _ in 0..10 {
            h.record_ns(20_000_000);
        }
        let p50 = h.percentile_ns(0.50);
        assert!((500_000..=625_000).contains(&p50), "p50 {p50}");
        let p90 = h.percentile_ns(0.90);
        assert_eq!(p90, p50, "rank 90 is the last fast observation");
        let p99 = h.percentile_ns(0.99);
        assert!((20_000_000..=25_000_000).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn several_threads_recording_into_one_histogram_equal_one_thread_recording_everything() {
        // 8 threads, so each records into a shard of its own.
        let values: Vec<u64> =
            (0..8_000u64).map(|i| 90 + (i * 7_919 % 1_000) * (1 + i % 5) * 999).collect();
        let shared = Histogram::new("t", "test", &[]);
        std::thread::scope(|scope| {
            for part in values.chunks(1_000) {
                let shared = &shared;
                scope.spawn(move || part.iter().for_each(|&v| shared.record_ns(v)));
            }
        });
        let single = Histogram::new("t", "test", &[]);
        values.iter().for_each(|&v| single.record_ns(v));
        let (a, b) = (shared.snapshot(), single.snapshot());
        assert_eq!(a.count, values.len() as u64);
        assert_eq!((a.count, a.sum_ns, &a.buckets), (b.count, b.sum_ns, &b.buckets));
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(shared.percentile_ns(q), single.percentile_ns(q), "q = {q}");
        }
    }

    #[test]
    fn overflow_lands_in_inf() {
        let h = Histogram::new("t", "test", &[]);
        assert_eq!(h.percentile_ns(0.5), 0, "an empty histogram reports 0");
        h.record_ns(u64::MAX);
        h.record_ns(3);
        let s = h.snapshot();
        assert_eq!(s.buckets.last().unwrap().count, 1, "only the 3 ns value is finite");
        assert_eq!(s.count, 2, "the +Inf bucket holds both");
        assert_eq!(h.percentile_ns(1.0), u64::MAX);
        assert_eq!(h.percentile_ns(0.25), 160);
    }
}
