//! `tdb-obs` — zero-dependency observability for the TDB workspace.
//!
//! The container building this workspace is fully offline, so no external
//! `tracing`/`metrics` crates are available; this crate implements the small
//! subset TDB needs:
//!
//! * a [`Registry`] of named [`Counter`]s, [`Gauge`]s, and log-bucketed
//!   [`Histogram`]s with snapshot / delta / merge and percentile extraction,
//! * span timers ([`timed`], [`Histogram::span`], [`Stopwatch`]) cheap enough
//!   for hot paths — one relaxed atomic add plus a monotonic clock read, no
//!   allocation on the fast path,
//! * exporters to human-readable text and stable JSON (see [`Json`]).
//!
//! Handles are `Arc`-backed: layers resolve them once (at store open) and
//! record through the clone, so the hot path never touches the registry's
//! name map. Timing can be disabled at runtime ([`set_enabled`], or the
//! `TDB_OBS=off` environment variable) or compiled out entirely with the
//! `compile-out` cargo feature. Counters and gauges stay live in both cases
//! because the registry is the workspace's only counter API (read through
//! [`RegistrySnapshot::counter`]); only clock reads and histogram recording
//! are elided.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
mod hist;
mod json;
pub mod trace;
pub mod watchdog;

pub use hist::{bucket_bounds, bucket_index, HistSnapshot, Histogram, SpanGuard, BUCKETS};
pub use json::Json;
pub use trace::{
    emit, set_trace_enabled, trace_enabled, trace_tid, TraceEvent, TraceKind, TraceLayer,
    TraceRecorder, TraceSnapshot,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enable flag
// ---------------------------------------------------------------------------

/// Tri-state: 0 = uninitialised, 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether span timing is currently enabled. Initialised lazily from the
/// `TDB_OBS` environment variable (`off` or `0` disables); constant-false
/// when the `compile-out` feature is active.
pub fn enabled() -> bool {
    if cfg!(feature = "compile-out") {
        return false;
    }
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = !matches!(
                std::env::var("TDB_OBS").as_deref(),
                Ok("off") | Ok("0") | Ok("false")
            );
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Turn span timing on or off at runtime (process-wide). Has no effect under
/// the `compile-out` feature.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Hot-path phase-sampling period: 0 = uninitialised.
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(0);

const DEFAULT_SAMPLE_EVERY: u64 = 16;

/// How often hot-path phase attribution runs: every Nth commit is timed
/// phase-by-phase (the detailed laps cost several clock reads per record, too
/// much for every commit). Initialised lazily from `TDB_OBS_SAMPLE`; defaults
/// to 16. A period of 1 times every commit.
pub fn phase_sample_every() -> u64 {
    match SAMPLE_EVERY.load(Ordering::Relaxed) {
        0 => {
            let n = std::env::var("TDB_OBS_SAMPLE")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(DEFAULT_SAMPLE_EVERY);
            SAMPLE_EVERY.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Override the phase-sampling period at runtime (process-wide; clamped to
/// ≥ 1). Tests that reconcile phase sums against totals set this to 1.
pub fn set_phase_sample_every(n: u64) {
    SAMPLE_EVERY.store(n.max(1), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Counter / Gauge handles
// ---------------------------------------------------------------------------

/// Monotonic counter handle. Clones share the same cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Create a detached counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Point-in-time gauge handle (signed; e.g. bytes currently cached).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Create a detached gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Set the current value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the current value by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Stopwatch
// ---------------------------------------------------------------------------

/// Multi-lap phase timer for instrumenting a sequence of phases inline.
///
/// When timing is disabled the stopwatch never reads the clock and every lap
/// returns 0; callers should gate their `record` calls on [`Stopwatch::running`]
/// so disabled runs do not pollute histograms with zero samples.
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Start a stopwatch (inert when timing is disabled).
    pub fn start() -> Self {
        if enabled() {
            Stopwatch(Some(Instant::now()))
        } else {
            Stopwatch(None)
        }
    }

    /// A stopwatch that never ran — all laps return 0 and record nothing.
    /// For call sites that decide per-operation (e.g. phase sampling)
    /// whether to pay for clock reads.
    pub fn inert() -> Self {
        Stopwatch(None)
    }

    /// Whether this stopwatch is live (timing was enabled at start).
    pub fn running(&self) -> bool {
        self.0.is_some()
    }

    /// Nanoseconds since start (or the previous lap), resetting the lap base.
    pub fn lap(&mut self) -> u64 {
        match &mut self.0 {
            Some(base) => {
                let now = Instant::now();
                let ns = now.duration_since(*base).as_nanos() as u64;
                *base = now;
                ns
            }
            None => 0,
        }
    }

    /// Record the current lap into `hist` (no-op when inert).
    pub fn lap_into(&mut self, hist: &Histogram) {
        if self.running() {
            let ns = self.lap();
            hist.record(ns);
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Maps {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A registry of named instruments. Stores own one registry each (created by
/// the chunk store and shared downward through the layers), so concurrent
/// stores in one process never contaminate each other's telemetry.
#[derive(Default)]
pub struct Registry {
    maps: RwLock<Maps>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.maps.read().unwrap().counters.get(name) {
            return c.clone();
        }
        self.maps
            .write()
            .unwrap()
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.maps.read().unwrap().gauges.get(name) {
            return g.clone();
        }
        self.maps
            .write()
            .unwrap()
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or register the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.maps.read().unwrap().histograms.get(name) {
            return h.clone();
        }
        self.maps
            .write()
            .unwrap()
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Time `f` into the histogram `name`. Convenience for cold paths; hot
    /// paths should resolve the [`Histogram`] handle once and reuse it.
    pub fn timed<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        self.histogram(name).time(f)
    }

    /// RAII span recording into the histogram `name` on drop.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.histogram(name).span()
    }

    /// Register an *existing* counter handle under `name` (shared cell, not
    /// a copy). This is how a merged view adopts another registry's
    /// instruments — e.g. a sharded store re-exporting each shard's
    /// `chunk.*` counters as `shard{k}.chunk.*`. Replaces any instrument
    /// previously at `name`.
    pub fn adopt_counter(&self, name: &str, c: &Counter) {
        self.maps
            .write()
            .unwrap()
            .counters
            .insert(name.to_string(), c.clone());
    }

    /// Register an existing gauge handle under `name`. See [`Registry::adopt_counter`].
    pub fn adopt_gauge(&self, name: &str, g: &Gauge) {
        self.maps
            .write()
            .unwrap()
            .gauges
            .insert(name.to_string(), g.clone());
    }

    /// Register an existing histogram handle under `name`. See [`Registry::adopt_counter`].
    pub fn adopt_histogram(&self, name: &str, h: &Histogram) {
        self.maps
            .write()
            .unwrap()
            .histograms
            .insert(name.to_string(), h.clone());
    }

    /// Adopt every instrument of `other` under `prefix` + its name.
    /// Handles are shared, so the adopted names read the same atomics as
    /// the originals — snapshots through either registry reconcile.
    pub fn adopt_all_prefixed(&self, other: &Registry, prefix: &str) {
        let theirs = other.maps.read().unwrap();
        let mut ours = self.maps.write().unwrap();
        for (k, c) in &theirs.counters {
            ours.counters.insert(format!("{prefix}{k}"), c.clone());
        }
        for (k, g) in &theirs.gauges {
            ours.gauges.insert(format!("{prefix}{k}"), g.clone());
        }
        for (k, h) in &theirs.histograms {
            ours.histograms.insert(format!("{prefix}{k}"), h.clone());
        }
    }

    /// Point-in-time snapshot of every registered instrument.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let maps = self.maps.read().unwrap();
        RegistrySnapshot {
            counters: maps
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: maps
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: maps
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// The process-global registry. Library layers deliberately do not use this
/// (each store owns its own registry); it exists for ad-hoc instrumentation
/// in binaries and tests via [`timed`] / [`span`].
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Time `f` into the global registry's histogram `name`.
pub fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    global().timed(name, f)
}

/// RAII span against the global registry.
pub fn span(name: &str) -> SpanGuard {
    global().span(name)
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Immutable snapshot of a registry with delta/merge and exporters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl RegistrySnapshot {
    /// The counter `name`.
    ///
    /// # Panics
    ///
    /// If no counter `name` is registered: a misspelt name, or a `chunk.*`
    /// name read from the unfolded [`Registry::snapshot`] of a multi-shard
    /// store (which only has `shard{k}.chunk.*`), would otherwise read 0.
    pub fn counter(&self, name: &str) -> u64 {
        match self.counters.get(name) {
            Some(v) => *v,
            None => panic!("no counter named {name:?} in this registry snapshot"),
        }
    }

    /// Delta since `earlier`: counters and histogram counts are subtracted,
    /// gauges keep their current (point-in-time) values. Instruments absent
    /// from `earlier` are treated as zero.
    pub fn since(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    let base = earlier.counters.get(k).copied().unwrap_or(0);
                    (k.clone(), v.saturating_sub(base))
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| match earlier.histograms.get(k) {
                    Some(base) => (k.clone(), h.since(base)),
                    None => (k.clone(), h.clone()),
                })
                .collect(),
        }
    }

    /// Fold `other` into this snapshot: counters and histograms add, gauges
    /// take `other`'s value (last-writer-wins).
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Render a human-readable report.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<36} {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<36} {v}");
            }
        }
        let timed: Vec<_> = self
            .histograms
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .collect();
        if !timed.is_empty() {
            out.push_str("histograms (ns):\n");
            for (k, h) in timed {
                let _ = writeln!(
                    out,
                    "  {k:<28} count {:>8}  mean {:>12.0}  p50 {:>12.0}  p95 {:>12.0}  p99 {:>12.0}  max {:>12}",
                    h.count(),
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.max
                );
            }
        }
        out
    }

    /// Export as a stable JSON value: `{"counters": {...}, "gauges": {...},
    /// "histograms": {name: {count, sum, min, max, mean, p50, p90, p95,
    /// p99}}}`. Empty histograms are omitted.
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .filter(|(_, h)| h.count() > 0)
                        .map(|(k, h)| (k.clone(), hist_json(h)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// JSON rendering for one histogram snapshot (shared by the exporters and
/// the bench binaries).
pub fn hist_json(h: &HistSnapshot) -> Json {
    Json::object([
        ("count", Json::from(h.count())),
        ("sum", Json::from(h.sum)),
        ("min", Json::from(h.min)),
        ("max", Json::from(h.max)),
        ("mean", Json::from(h.mean())),
        ("p50", Json::from(h.p50())),
        ("p90", Json::from(h.p90())),
        ("p95", Json::from(h.p95())),
        ("p99", Json::from(h.p99())),
    ])
}
