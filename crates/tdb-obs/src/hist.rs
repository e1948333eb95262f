//! Log-bucketed (HDR-style, power-of-two) latency histogram.
//!
//! Values are nanoseconds by convention. Recording is lock-free: one relaxed
//! atomic increment on the bucket, one on the running sum, plus monotonic
//! min/max maintenance. Bucket `0` holds `[0, 1)`, bucket `i` holds
//! `[2^(i-1), 2^i)`, and the last bucket is an open-ended overflow bucket.
//! With 48 buckets the overflow threshold is 2^46 ns ≈ 19.5 hours, far beyond
//! any span this workspace times.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of power-of-two buckets (last one is the overflow bucket).
pub const BUCKETS: usize = 48;

/// Bucket index for a recorded value.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Half-open `[lo, hi)` range a bucket covers. The overflow bucket reports
/// `[2^(BUCKETS-2), 2^(BUCKETS-1))` for interpolation purposes even though it
/// actually absorbs everything above its lower bound.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index == 0 {
        (0, 1)
    } else {
        (1u64 << (index - 1), 1u64 << index)
    }
}

struct HistInner {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    /// Raw min; `u64::MAX` sentinel while empty.
    min: AtomicU64,
    max: AtomicU64,
}

/// A shareable histogram handle. Cloning is cheap (`Arc`); all clones record
/// into the same buckets, so a handle can outlive the [`Registry`] it was
/// created from.
///
/// [`Registry`]: crate::Registry
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create a detached histogram (not owned by any registry).
    pub fn new() -> Self {
        Histogram(Arc::new(HistInner {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }

    /// Record one sample (nanoseconds by convention).
    pub fn record(&self, value: u64) {
        let inner = &self.0;
        inner.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.min.fetch_min(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Time a closure and record its wall-clock duration, honouring the
    /// global enable flag (no clock read when disabled).
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        if !crate::enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed().as_nanos() as u64);
        out
    }

    /// RAII guard that records the elapsed time into this histogram on drop.
    pub fn span(&self) -> SpanGuard {
        SpanGuard {
            hist: self.clone(),
            start: if crate::enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistSnapshot {
        let inner = &self.0;
        let counts = std::array::from_fn(|i| inner.counts[i].load(Ordering::Relaxed));
        let mut snap = HistSnapshot {
            counts,
            sum: inner.sum.load(Ordering::Relaxed),
            min: inner.min.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
        };
        if snap.count() == 0 {
            snap.min = 0;
        }
        snap
    }
}

/// RAII span timer; records into its histogram when dropped.
pub struct SpanGuard {
    hist: Histogram,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Immutable histogram state with delta/merge and percentile extraction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts.
    pub counts: [u64; BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            counts: [0; BUCKETS],
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Estimate the `q`-quantile (`q` in `0.0..=1.0`) by linear interpolation
    /// within the containing bucket, clamped to the observed `[min, max]`.
    /// Exact for single-sample histograms; within one bucket width otherwise.
    pub fn percentile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                if i == BUCKETS - 1 {
                    // Overflow bucket: its nominal upper bound says nothing
                    // about the samples in it; the observed max does.
                    return self.max as f64;
                }
                let (lo, hi) = bucket_bounds(i);
                let frac = (rank - cum) as f64 / c as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return est.clamp(self.min as f64, self.max as f64);
            }
            cum += c;
        }
        self.max as f64
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 90th percentile estimate.
    pub fn p90(&self) -> f64 {
        self.percentile(0.90)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// Samples recorded since `earlier` (counts and sum are subtracted;
    /// `min`/`max` are carried from `self`, i.e. they describe the full
    /// history rather than the interval).
    pub fn since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let counts = std::array::from_fn(|i| self.counts[i].saturating_sub(earlier.counts[i]));
        let mut snap = HistSnapshot {
            counts,
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
        };
        if snap.count() == 0 {
            snap.min = 0;
            snap.max = 0;
        }
        snap
    }

    /// Fold another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum += other.sum;
        if other.count() > 0 {
            if self.count() == other.count() {
                // self was empty before the merge; adopt other's extrema.
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
    }
}
