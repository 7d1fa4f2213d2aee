//! Streaming metrics primitives: counters, gauges, log-bucketed histograms,
//! and P²-quantile summaries.
//!
//! Everything here is either lock-free (atomics, shareable by `&self` across
//! the harness's worker threads) or explicitly thread-local with a merge
//! operation. The recording granularity in the pipeline is **per batch**
//! (4096 frames) or **per replication**, never per frame, so even the CAS
//! loops are contention-noise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use vbr_stats::p2::P2Quantile;

/// Monotone event counter (thread-safe).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Monotone `f64` accumulator (thread-safe via CAS on the bit pattern) —
/// for quantities that are naturally fractional, like fluid cells.
#[derive(Debug, Default)]
pub struct FloatCounter(AtomicU64);

impl FloatCounter {
    /// Adds `x` to the accumulator.
    pub fn add(&self, x: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + x).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Last-write-wins `f64` gauge (thread-safe).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, x: f64) {
        self.0.store(x.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: one zero/negative bucket, 63 power-of-two
/// buckets with upper bounds `2^0 .. 2^62`, one overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Log-bucketed streaming histogram for non-negative values spanning many
/// orders of magnitude (queue occupancy in cells, batch latency in ns).
///
/// Bucket `0` holds values `<= 0`; bucket `1` holds `(0, 1]`; bucket `i`
/// (2 ≤ i ≤ 63) holds `(2^(i-2), 2^(i-1)]` (upper bound `2^(i-1)`); the
/// last bucket is overflow. Recording is one `log2`, one clamp and one
/// atomic increment — no allocation, shareable across threads by `&self`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: FloatCounter,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: FloatCounter::default(),
        }
    }

    /// Bucket index for a value (see the type docs for the binning).
    pub fn bucket_index(value: f64) -> usize {
        // NaN intentionally lands here too (`partial_cmp` is None).
        if value.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return 0;
        }
        // Smallest i >= 0 with 2^i >= value, shifted past the zero bucket.
        let exp = value.log2().ceil().max(0.0);
        if exp >= 63.0 {
            HISTOGRAM_BUCKETS - 1
        } else {
            exp as usize + 1
        }
    }

    /// Upper bound of bucket `i` (`0` for the zero bucket, `+inf` for
    /// overflow).
    pub fn bucket_upper(i: usize) -> f64 {
        match i {
            0 => 0.0,
            _ if i >= HISTOGRAM_BUCKETS - 1 => f64::INFINITY,
            _ => ((i - 1) as f64).exp2(),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: f64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.add(value);
    }

    /// Records a batch of observations: bins them locally, then makes one
    /// atomic add per touched bucket, one for the count and one for the
    /// sum. Bucket counts and the count are those of [`record`](Self::record)
    /// on each value; the sum adds the batch's partial sum, so it can differ
    /// from per-value recording by reassociation.
    pub fn record_all(&self, values: &[f64]) {
        let mut local = [0u64; HISTOGRAM_BUCKETS];
        let mut sum = 0.0;
        for &v in values {
            local[Self::bucket_index(v)] += 1;
            sum += v;
        }
        for (bucket, &n) in self.buckets.iter().zip(&local) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(values.len() as u64, Ordering::Relaxed);
        self.sum.add(sum);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum.get()
    }

    /// Immutable snapshot of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count(),
            sum: self.sum(),
        }
    }

    /// Merges another histogram's counts into this one.
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(&other.buckets) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.add(other.sum.get());
    }
}

/// Plain-data snapshot of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`Histogram`] for the binning convention).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Adds another snapshot's counts into this one (same binning for every
    /// histogram, so bucketwise addition is exact).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// `(upper_bound, cumulative_count)` pairs over the non-trivial prefix
    /// of the bucket range, ending with `(+inf, count)` — the shape the
    /// Prometheus text exposition needs.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let last_used = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(0)
            .min(HISTOGRAM_BUCKETS - 2);
        let mut acc = 0;
        let mut out = Vec::with_capacity(last_used + 2);
        for i in 0..=last_used {
            acc += self.buckets[i];
            out.push((Histogram::bucket_upper(i), acc));
        }
        out.push((f64::INFINITY, self.count));
        out
    }
}

/// Default quantile levels for [`P2Summary`]: median, p90, p99.
pub const DEFAULT_QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// Multi-quantile streaming summary built on the P² estimators of
/// `vbr_stats::p2`, with exact count/sum/min/max.
///
/// Not internally synchronized (P² adjusts markers in place); share behind a
/// `Mutex` or keep one per thread and [`merge`](P2Snapshot::merge) the
/// snapshots.
#[derive(Debug, Clone)]
pub struct P2Summary {
    quantiles: Vec<P2Quantile>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for P2Summary {
    fn default() -> Self {
        Self::new(&DEFAULT_QUANTILES)
    }
}

impl P2Summary {
    /// Creates a summary tracking the given quantile levels.
    ///
    /// # Panics
    /// Panics if any level is outside `(0, 1)` (from [`P2Quantile::new`]).
    pub fn new(levels: &[f64]) -> Self {
        Self {
            quantiles: levels.iter().map(|&q| P2Quantile::new(q)).collect(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        for q in &mut self.quantiles {
            q.observe(x);
        }
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Observations seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Plain-data snapshot (levels, estimates, count/sum/min/max).
    pub fn snapshot(&self) -> P2Snapshot {
        P2Snapshot {
            levels: self.quantiles.iter().map(|q| q.q()).collect(),
            estimates: self
                .quantiles
                .iter()
                .map(|q| if self.count > 0 { q.estimate() } else { f64::NAN })
                .collect(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }
}

/// Plain-data snapshot of a [`P2Summary`], mergeable across threads.
#[derive(Debug, Clone, PartialEq)]
pub struct P2Snapshot {
    /// Quantile levels tracked.
    pub levels: Vec<f64>,
    /// Estimate per level (NaN if no observations).
    pub estimates: Vec<f64>,
    /// Observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Minimum observation (`+inf` if none).
    pub min: f64,
    /// Maximum observation (`-inf` if none).
    pub max: f64,
}

impl P2Snapshot {
    /// Merges another snapshot over the same levels: count/sum/min/max are
    /// exact; quantile estimates combine by count-weighted averaging — the
    /// standard approximation for post-hoc P² combination (each thread's
    /// marker state summarizes its own substream; the weighted average is
    /// within the estimators' own error for substreams of the same
    /// distribution, which is exactly the harness's case — every thread runs
    /// interchangeable replications).
    ///
    /// # Panics
    /// Panics if the level sets differ.
    pub fn merge(&mut self, other: &P2Snapshot) {
        assert_eq!(self.levels, other.levels, "quantile levels must match");
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let (wa, wb) = (self.count as f64, other.count as f64);
        for (a, &b) in self.estimates.iter_mut().zip(&other.estimates) {
            *a = (*a * wa + b * wb) / (wa + wb);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimate for one level, if tracked and fed.
    pub fn estimate(&self, level: f64) -> Option<f64> {
        self.levels
            .iter()
            .position(|&l| l == level)
            .map(|i| self.estimates[i])
            .filter(|e| !e.is_nan())
    }

    /// Mean of the observations.
    pub fn mean(&self) -> f64 {
        if self.count > 0 {
            self.sum / self.count as f64
        } else {
            f64::NAN
        }
    }
}

/// Guard-trip counters by fault kind — shared with the simulator's numeric
/// guard so every constructed fault is counted at its pipeline site.
#[derive(Debug, Default)]
pub struct GuardTripCounters {
    /// Faults in a single source's output.
    pub source: Counter,
    /// Faults in the aggregate arrival stream.
    pub aggregate: Counter,
    /// Faults in queue state.
    pub queue: Counter,
}

impl GuardTripCounters {
    /// Total trips across all kinds.
    pub fn total(&self) -> u64 {
        self.source.get() + self.aggregate.get() + self.queue.get()
    }
}

/// The replication pipeline's instrument set: everything the runner samples,
/// ready for a Prometheus export or a run summary.
#[derive(Debug, Default)]
pub struct PipelineMetrics {
    /// Frames simulated (warmup included), across all replications.
    pub frames: Counter,
    /// Batches swept through the queue grid.
    pub batches: Counter,
    /// Cells offered to the queues (buffer-grid index 0; all queues in a
    /// sweep see the same arrivals).
    pub cells_offered: FloatCounter,
    /// Cells lost at the *smallest* configured buffer (grid index 0) — the
    /// most loss-sensitive point of the sweep.
    pub cells_lost_b0: FloatCounter,
    /// Replications whose results entered the estimates.
    pub replications_completed: Counter,
    /// Replications abandoned by the per-replication deadline.
    pub replications_timed_out: Counter,
    /// Checkpoint files written.
    pub checkpoint_saves: Counter,
    /// Queue occupancy (cells), sampled once per queue per batch.
    pub queue_depth: Histogram,
    /// Wall time per batch (generate + sweep), ns.
    pub batch_ns: Histogram,
    /// Per-replication wall time (seconds): P² p50/p90/p99.
    pub rep_duration_s: Mutex<P2Summary>,
    /// End-of-run throughput, cells/second of wall time.
    pub cells_per_sec: Gauge,
    /// Numeric guard trips by pipeline site.
    pub guard_trips: std::sync::Arc<GuardTripCounters>,
}

impl PipelineMetrics {
    /// Records one completed replication's duration.
    pub fn observe_replication_seconds(&self, secs: f64) {
        self.rep_duration_s
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .observe(secs);
    }

    /// Plain-data snapshot of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            frames: self.frames.get(),
            batches: self.batches.get(),
            cells_offered: self.cells_offered.get(),
            cells_lost_b0: self.cells_lost_b0.get(),
            replications_completed: self.replications_completed.get(),
            replications_timed_out: self.replications_timed_out.get(),
            checkpoint_saves: self.checkpoint_saves.get(),
            queue_depth: self.queue_depth.snapshot(),
            batch_ns: self.batch_ns.snapshot(),
            rep_duration_s: self
                .rep_duration_s
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .snapshot(),
            cells_per_sec: self.cells_per_sec.get(),
            guard_trips_source: self.guard_trips.source.get(),
            guard_trips_aggregate: self.guard_trips.aggregate.get(),
            guard_trips_queue: self.guard_trips.queue.get(),
        }
    }
}

/// Plain-data snapshot of [`PipelineMetrics`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Frames simulated.
    pub frames: u64,
    /// Batches swept.
    pub batches: u64,
    /// Cells offered.
    pub cells_offered: f64,
    /// Cells lost at the smallest buffer.
    pub cells_lost_b0: f64,
    /// Replications completed.
    pub replications_completed: u64,
    /// Replications timed out.
    pub replications_timed_out: u64,
    /// Checkpoint saves.
    pub checkpoint_saves: u64,
    /// Queue occupancy histogram.
    pub queue_depth: HistogramSnapshot,
    /// Batch latency histogram (ns).
    pub batch_ns: HistogramSnapshot,
    /// Replication duration summary (seconds).
    pub rep_duration_s: P2Snapshot,
    /// Cells per wall-clock second.
    pub cells_per_sec: f64,
    /// Guard trips at source outputs.
    pub guard_trips_source: u64,
    /// Guard trips at the aggregate stream.
    pub guard_trips_aggregate: u64,
    /// Guard trips in queue state.
    pub guard_trips_queue: u64,
}

impl MetricsSnapshot {
    /// Merges another run's snapshot into this one (campaign aggregation
    /// across worker processes): counters and histograms add exactly, the
    /// replication-duration P² summary merges count-weighted
    /// ([`P2Snapshot::merge`]), and throughput gauges add (workers run
    /// concurrently, so aggregate cells/sec is the sum).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.frames += other.frames;
        self.batches += other.batches;
        self.cells_offered += other.cells_offered;
        self.cells_lost_b0 += other.cells_lost_b0;
        self.replications_completed += other.replications_completed;
        self.replications_timed_out += other.replications_timed_out;
        self.checkpoint_saves += other.checkpoint_saves;
        self.queue_depth.merge(&other.queue_depth);
        self.batch_ns.merge(&other.batch_ns);
        self.rep_duration_s.merge(&other.rep_duration_s);
        self.cells_per_sec += other.cells_per_sec;
        self.guard_trips_source += other.guard_trips_source;
        self.guard_trips_aggregate += other.guard_trips_aggregate;
        self.guard_trips_queue += other.guard_trips_queue;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_stats::rng::Xoshiro256PlusPlus;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::default();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
        let f = FloatCounter::default();
        f.add(1.5);
        f.add(2.25);
        assert!((f.get() - 3.75).abs() < 1e-12);
        let g = Gauge::default();
        g.set(42.5);
        assert_eq!(g.get(), 42.5);
    }

    #[test]
    fn record_all_matches_per_value_record() {
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(20);
        let values: Vec<f64> = (0..500)
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => -1.0,
                2 => rng.next_f64(),
                3 => rng.next_f64() * 1e6,
                _ => f64::from(i as u32).exp2(),
            })
            .collect();
        let one = Histogram::new();
        let all = Histogram::new();
        for chunk in values.chunks(32) {
            for &v in chunk {
                one.record(v);
            }
            all.record_all(chunk);
        }
        all.record_all(&[]);
        let (a, b) = (one.snapshot(), all.snapshot());
        assert_eq!(a.buckets, b.buckets);
        assert_eq!(a.count, b.count);
        assert!((a.sum - b.sum).abs() <= 1e-12 * a.sum.abs(), "{} vs {}", a.sum, b.sum);
    }

    #[test]
    fn histogram_bucket_edges() {
        // Zero/negative/NaN land in the zero bucket.
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-3.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        // Powers of two land in their own bucket (upper bound inclusive).
        assert_eq!(Histogram::bucket_index(1.0), 1);
        assert_eq!(Histogram::bucket_index(2.0), 2);
        assert_eq!(Histogram::bucket_index(1024.0), 11);
        // Just above a power of two spills into the next bucket.
        assert_eq!(Histogram::bucket_index(2.0001), 3);
        // Values below 1 all share the (0, 1] bucket.
        assert_eq!(Histogram::bucket_index(0.3), 1);
        // Enormous values hit the overflow bucket.
        assert_eq!(Histogram::bucket_index(1e300), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(f64::INFINITY), HISTOGRAM_BUCKETS - 1);
        // Upper bounds are consistent with the index map.
        assert_eq!(Histogram::bucket_upper(0), 0.0);
        assert_eq!(Histogram::bucket_upper(1), 1.0);
        assert_eq!(Histogram::bucket_upper(11), 1024.0);
        assert!(Histogram::bucket_upper(HISTOGRAM_BUCKETS - 1).is_infinite());
        // Every finite positive value is <= its bucket's upper bound and
        // > the previous bucket's.
        for v in [0.01, 0.99, 1.0, 1.5, 3.0, 700.0, 1e6, 1e15] {
            let i = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_upper(i), "{v} in bucket {i}");
            assert!(v > Histogram::bucket_upper(i - 1), "{v} in bucket {i}");
        }
    }

    #[test]
    fn histogram_cumulative_is_monotone_and_complete() {
        let h = Histogram::new();
        for v in [0.0, 0.5, 3.0, 3.0, 900.0, 1e7] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert!((snap.sum - (0.5 + 6.0 + 900.0 + 1e7)).abs() < 1e-6);
        let cum = snap.cumulative();
        assert!(cum.windows(2).all(|w| w[0].1 <= w[1].1), "monotone: {cum:?}");
        assert!(cum.windows(2).all(|w| w[0].0 < w[1].0), "bounds sorted");
        let (last_bound, last_count) = *cum.last().unwrap();
        assert!(last_bound.is_infinite());
        assert_eq!(last_count, 6);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(1.0);
        b.record(1.0);
        b.record(100.0);
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.buckets[Histogram::bucket_index(1.0)], 2);
        assert_eq!(snap.buckets[Histogram::bucket_index(100.0)], 1);
    }

    #[test]
    fn p2_summary_tracks_quantiles() {
        let mut s = P2Summary::default();
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(77);
        for _ in 0..100_000 {
            s.observe(rng.next_f64());
        }
        let snap = s.snapshot();
        assert_eq!(snap.count, 100_000);
        assert!((snap.estimate(0.5).unwrap() - 0.5).abs() < 0.02);
        assert!((snap.estimate(0.9).unwrap() - 0.9).abs() < 0.02);
        assert!((snap.mean() - 0.5).abs() < 0.01);
        assert!(snap.min >= 0.0 && snap.max <= 1.0);
    }

    /// The satellite contract: P² summaries built independently on worker
    /// threads merge into a snapshot close to the single-stream estimate.
    #[test]
    fn p2_snapshot_merges_across_threads() {
        let per_thread = 50_000;
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut s = P2Summary::default();
                    let mut rng = Xoshiro256PlusPlus::from_seed_u64(1000 + t);
                    for _ in 0..per_thread {
                        s.observe(rng.next_f64());
                    }
                    s.snapshot()
                })
            })
            .collect();
        let mut merged: Option<P2Snapshot> = None;
        for h in handles {
            let snap = h.join().expect("worker");
            match merged.as_mut() {
                Some(m) => m.merge(&snap),
                None => merged = Some(snap),
            }
        }
        let merged = merged.unwrap();
        assert_eq!(merged.count, 4 * per_thread);
        assert!((merged.estimate(0.5).unwrap() - 0.5).abs() < 0.02);
        assert!((merged.estimate(0.9).unwrap() - 0.9).abs() < 0.02);
        assert!((merged.estimate(0.99).unwrap() - 0.99).abs() < 0.02);
        assert!((merged.mean() - 0.5).abs() < 0.01);
    }

    #[test]
    fn p2_snapshot_merge_handles_empty_sides() {
        let empty = P2Summary::default().snapshot();
        let mut fed = P2Summary::default();
        for i in 0..100 {
            fed.observe(i as f64);
        }
        let fed = fed.snapshot();

        let mut a = fed.clone();
        a.merge(&empty);
        assert_eq!(a.count, 100);
        assert_eq!(a.estimates, fed.estimates);

        let mut b = empty.clone();
        b.merge(&fed);
        assert_eq!(b.count, 100);
        assert_eq!(b.estimates, fed.estimates);
    }

    #[test]
    fn guard_trip_counters_total() {
        let g = GuardTripCounters::default();
        g.source.add(2);
        g.queue.add(1);
        assert_eq!(g.total(), 3);
    }

    #[test]
    fn pipeline_metrics_snapshot_roundtrip() {
        let m = PipelineMetrics::default();
        m.frames.add(4096);
        m.batches.add(1);
        m.cells_offered.add(1e6);
        m.queue_depth.record(300.0);
        m.observe_replication_seconds(1.5);
        m.guard_trips.aggregate.add(1);
        let s = m.snapshot();
        assert_eq!(s.frames, 4096);
        assert_eq!(s.batches, 1);
        assert_eq!(s.queue_depth.count, 1);
        assert_eq!(s.rep_duration_s.count, 1);
        assert_eq!(s.guard_trips_aggregate, 1);
    }
}
