//! tdb-obs unit and property tests: histogram bucket boundaries and
//! percentiles (empty / one-sample / overflow), registry snapshot/delta
//! semantics, and JSON writer↔parser roundtrips.

use proptest::prelude::*;
use tdb_obs::{bucket_bounds, bucket_index, HistSnapshot, Histogram, Json, Registry, BUCKETS};

// ---------------------------------------------------------------- buckets

#[test]
fn bucket_boundaries_are_powers_of_two() {
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    assert_eq!(bucket_index(2), 2);
    assert_eq!(bucket_index(3), 2);
    assert_eq!(bucket_index(4), 3);
    for i in 1..BUCKETS - 1 {
        let (lo, hi) = bucket_bounds(i);
        // Each boundary value lands in its own bucket; one less stays below.
        assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
        assert_eq!(bucket_index(hi - 1), i, "upper bound of bucket {i}");
        assert_eq!(bucket_index(hi), (i + 1).min(BUCKETS - 1));
    }
    // Everything past the last bucket's lower bound is absorbed by it.
    assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    assert_eq!(bucket_index(1u64 << 60), BUCKETS - 1);
}

#[test]
fn empty_histogram_percentiles_are_zero() {
    let snap = Histogram::new().snapshot();
    assert_eq!(snap.count(), 0);
    assert_eq!(snap.mean(), 0.0);
    assert_eq!(snap.p50(), 0.0);
    assert_eq!(snap.p99(), 0.0);
    assert_eq!(snap.min, 0);
    assert_eq!(snap.max, 0);
}

#[test]
fn one_sample_percentiles_are_exact() {
    let h = Histogram::new();
    h.record(12_345);
    let snap = h.snapshot();
    assert_eq!(snap.count(), 1);
    assert_eq!(snap.min, 12_345);
    assert_eq!(snap.max, 12_345);
    // Clamping to [min, max] makes every percentile exact for one sample.
    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(snap.percentile(q), 12_345.0, "q={q}");
    }
    assert_eq!(snap.mean(), 12_345.0);
}

#[test]
fn overflow_bucket_absorbs_and_clamps() {
    let h = Histogram::new();
    let huge = u64::MAX / 2;
    h.record(huge);
    h.record(100);
    let snap = h.snapshot();
    assert_eq!(snap.counts[BUCKETS - 1], 1);
    assert_eq!(snap.max, huge);
    // p99 falls in the overflow bucket; the estimate must clamp to max
    // rather than report the bucket's nominal (way-too-small) bound.
    assert_eq!(snap.p99(), huge as f64);
    // p50 lands in 100's bucket [64, 128): accurate to one bucket width.
    assert!(
        snap.p50() >= 100.0 && snap.p50() <= 128.0,
        "p50 = {}",
        snap.p50()
    );
}

#[test]
fn percentiles_are_monotone_and_bounded() {
    let h = Histogram::new();
    for v in [3u64, 17, 900, 900, 4096, 70_000, 70_001, 1_000_000] {
        h.record(v);
    }
    let snap = h.snapshot();
    let mut last = 0.0f64;
    for i in 0..=100 {
        let p = snap.percentile(i as f64 / 100.0);
        assert!(p >= last, "percentile must be monotone at q={i}");
        assert!(p >= snap.min as f64 && p <= snap.max as f64);
        last = p;
    }
}

#[test]
fn snapshot_since_and_merge_roundtrip() {
    let h = Histogram::new();
    h.record(10);
    h.record(2000);
    let early = h.snapshot();
    h.record(500_000);
    let late = h.snapshot();
    let delta = late.since(&early);
    assert_eq!(delta.count(), 1);
    assert_eq!(delta.sum, 500_000);

    // merge(early, delta) restores the late counts and sum.
    let mut rebuilt = early.clone();
    rebuilt.merge(&delta);
    assert_eq!(rebuilt.counts, late.counts);
    assert_eq!(rebuilt.sum, late.sum);

    // Merging into an empty snapshot adopts the other's extrema.
    let mut empty = HistSnapshot::default();
    empty.merge(&late);
    assert_eq!(empty.min, late.min);
    assert_eq!(empty.max, late.max);
}

// --------------------------------------------------------------- registry

#[test]
fn registry_handles_are_get_or_register() {
    let reg = Registry::new();
    reg.counter("a").add(2);
    reg.counter("a").add(3); // same underlying atomic
    assert_eq!(reg.counter("a").get(), 5);
    reg.gauge("g").set(-7);
    assert_eq!(reg.gauge("g").get(), -7);
    reg.histogram("h").record(42);
    assert_eq!(reg.histogram("h").snapshot().count(), 1);

    let snap = reg.snapshot();
    assert_eq!(snap.counters["a"], 5);
    assert_eq!(snap.gauges["g"], -7);
    assert_eq!(snap.histograms["h"].count(), 1);
}

proptest! {
    /// Delta semantics: for any interleaving of counter adds and histogram
    /// records split into two rounds, `snapshot_after.since(&snapshot_mid)`
    /// reports exactly the second round.
    #[test]
    fn registry_delta_reports_second_round(
        round1 in proptest::collection::vec((0usize..4, 1u64..10_000), 0..24),
        round2 in proptest::collection::vec((0usize..4, 1u64..10_000), 0..24),
    ) {
        let names = ["w", "x", "y", "z"];
        let reg = Registry::new();
        let apply = |ops: &[(usize, u64)]| {
            for (which, v) in ops {
                reg.counter(names[*which]).add(*v);
                reg.histogram(names[*which]).record(*v);
            }
        };
        apply(&round1);
        let mid = reg.snapshot();
        apply(&round2);
        let delta = reg.snapshot().since(&mid);

        for (i, name) in names.iter().enumerate() {
            let expect_sum: u64 = round2.iter().filter(|(w, _)| *w == i).map(|(_, v)| v).sum();
            let expect_n = round2.iter().filter(|(w, _)| *w == i).count() as u64;
            let got = delta.counters.get(*name).copied().unwrap_or(0);
            prop_assert_eq!(got, expect_sum, "counter {}", name);
            let hist = delta.histograms.get(*name).cloned().unwrap_or_default();
            prop_assert_eq!(hist.count(), expect_n, "hist count {}", name);
            prop_assert_eq!(hist.sum, expect_sum, "hist sum {}", name);
        }
    }

    /// Merging the two rounds' deltas equals the full-history snapshot.
    #[test]
    fn delta_merge_equals_total(
        values in proptest::collection::vec(1u64..1_000_000, 1..40),
        split in any::<usize>(),
    ) {
        let reg = Registry::new();
        let cut = split % values.len();
        for v in &values[..cut] {
            reg.histogram("h").record(*v);
        }
        let mid = reg.snapshot();
        for v in &values[cut..] {
            reg.histogram("h").record(*v);
        }
        let total = reg.snapshot();

        let first = mid.histograms.get("h").cloned().unwrap_or_default();
        let second = total
            .since(&mid)
            .histograms
            .get("h")
            .cloned()
            .unwrap_or_default();
        let mut rebuilt = first;
        rebuilt.merge(&second);
        let full = total.histograms.get("h").cloned().unwrap();
        prop_assert_eq!(rebuilt.counts, full.counts);
        prop_assert_eq!(rebuilt.sum, full.sum);
        prop_assert_eq!(rebuilt.count(), values.len() as u64);
    }
}

// ------------------------------------------------------------------- json

#[test]
fn json_roundtrips_structures() {
    let mut doc = Json::obj();
    doc.push("int", 42u64);
    doc.push("neg", -3i64);
    doc.push("float", 1.5);
    doc.push(
        "string",
        "with \"quotes\" and \\ and \n control \u{1} chars",
    );
    doc.push("multibyte", "h\u{e9}llo \u{20ac} \u{1d11e}");
    doc.push("bool", true);
    doc.push("null", Json::Null);
    doc.push("arr", Json::array([Json::from(1u64), Json::from("two")]));
    let mut nested = Json::obj();
    nested.push("k", "v");
    doc.push("obj", nested);

    for text in [doc.render(), doc.pretty()] {
        let parsed = Json::parse(&text).expect("parse own output");
        assert_eq!(parsed, doc, "roundtrip through {text:?}");
    }
}

#[test]
fn json_parser_rejects_garbage() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\":}",
        "tru",
        "1 2",
        "{\"a\":1,}",
        "\"\\q\"",
    ] {
        assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn json_parser_caps_nesting_depth() {
    // Without the cap a million brackets overflow the parser's stack and
    // abort the process; with it they are an ordinary error.
    for open in ["[", "{\"k\":"] {
        let deep = open.repeat(1_000_000);
        assert!(Json::parse(&deep).is_err(), "accepted deep {open:?}");
    }
    // Nesting well past anything the workspace writes still parses.
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        let nested = format!("{}1{}", open.repeat(100), close.repeat(100));
        assert!(Json::parse(&nested).is_ok());
    }
}

#[test]
fn snapshot_counter_reads_registered_names_only() {
    let reg = Registry::new();
    reg.counter("chunk.commits").add(3);
    let snap = reg.snapshot();
    assert_eq!(snap.counter("chunk.commits"), 3);
    let typo = std::panic::catch_unwind(|| snap.counter("chunk.comits"));
    assert!(typo.is_err(), "an unknown name must panic, not read 0");
}

#[test]
fn registry_snapshot_to_json_is_stable_and_parseable() {
    let reg = Registry::new();
    reg.counter("chunk.commits").add(3);
    reg.gauge("cache.bytes").set(4096);
    reg.histogram("commit.total").record(1_000);
    let a = reg.snapshot().to_json().render();
    let b = reg.snapshot().to_json().render();
    assert_eq!(a, b, "rendering must be deterministic");
    Json::parse(&a).expect("snapshot JSON parses");
}

// ---------------------------------------------------------------- trace ring

mod trace_ring {
    use super::*;
    use std::sync::Arc;
    use tdb_obs::trace::TraceRecorder;
    use tdb_obs::{TraceKind, TraceLayer};

    // Single-writer wraparound is deterministic: after `n` records into a
    // ring of `cap` slots, the snapshot holds exactly the last
    // `min(n, cap)` events, in order, payloads intact.
    proptest! {
        #[test]
        fn wraparound_keeps_exactly_the_last_capacity_events(
            cap_pow in 6u32..9,
            n in 0u64..1500,
        ) {
            let cap = 1u64 << cap_pow;
            let rec = TraceRecorder::with_capacity(cap as usize);
            prop_assert_eq!(rec.capacity() as u64, cap);
            for i in 0..n {
                rec.record(TraceLayer::App, TraceKind::Mark, i, i.wrapping_mul(3), i ^ 0x5A);
            }
            prop_assert_eq!(rec.recorded(), n);
            let snap = rec.snapshot();
            prop_assert_eq!(snap.events.len() as u64, n.min(cap));
            let first = n.saturating_sub(cap);
            for (ev, i) in snap.events.iter().zip(first..n) {
                prop_assert_eq!(ev.seq, i);
                prop_assert_eq!(ev.xid, i);
                prop_assert_eq!(ev.a, i.wrapping_mul(3));
                prop_assert_eq!(ev.b, i ^ 0x5A);
                prop_assert_eq!(ev.kind, TraceKind::Mark);
                prop_assert_eq!(ev.layer, TraceLayer::App);
            }
        }
    }

    /// Concurrent writers lapping a tiny ring many times over: nothing
    /// decoded may be torn. Every surviving event must carry exactly the
    /// payload some writer published (`b == xid * 1000 + a`), sequence
    /// numbers must be unique, and the total recorded count must be exact.
    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        const THREADS: u64 = 4;
        const PER: u64 = 4_000;
        let rec = Arc::new(TraceRecorder::with_capacity(64));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let rec = rec.clone();
                s.spawn(move || {
                    for i in 0..PER {
                        rec.record(TraceLayer::App, TraceKind::Mark, t, i, t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(rec.recorded(), THREADS * PER);
        let snap = rec.snapshot();
        assert!(!snap.events.is_empty());
        assert!(snap.events.len() <= rec.capacity());
        let mut seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(
            seqs.len(),
            snap.events.len(),
            "duplicate ring slots decoded"
        );
        for ev in &snap.events {
            assert!(
                ev.xid < THREADS && ev.a < PER,
                "payload from nowhere: {ev:?}"
            );
            assert_eq!(ev.b, ev.xid * 1000 + ev.a, "torn payload survived: {ev:?}");
        }
    }

    /// Snapshots taken *while* writers are lapping the ring must each be
    /// internally consistent: only fully-published events decode, and a
    /// thread's own events appear in program order in its timeline.
    #[test]
    fn snapshot_while_recording_is_consistent() {
        const PER: u64 = 20_000;
        let rec = Arc::new(TraceRecorder::with_capacity(128));
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let rec = rec.clone();
                s.spawn(move || {
                    for i in 0..PER {
                        rec.record(TraceLayer::App, TraceKind::Mark, t, i, t * 1_000_000 + i);
                    }
                });
            }
            // Snapshot continuously until both writers have finished, so
            // some snapshots race live wraparound no matter how the
            // scheduler interleaves us (this box may have one CPU).
            while rec.recorded() < 2 * PER {
                let snap = rec.snapshot();
                for ev in &snap.events {
                    assert_eq!(ev.b, ev.xid * 1_000_000 + ev.a, "torn event: {ev:?}");
                }
                for (_tid, evs) in snap.per_thread() {
                    for w in evs.windows(2) {
                        if w[0].xid == w[1].xid {
                            assert!(
                                w[0].a < w[1].a,
                                "thread timeline out of order: {:?} then {:?}",
                                w[0],
                                w[1]
                            );
                        }
                    }
                }
            }
        });
        let total = rec.recorded();
        assert!(total > 128, "writers should have lapped the ring ({total})");
    }

    /// `snapshot_since(cursor)` returns only events recorded after the
    /// cursor was taken.
    #[test]
    fn snapshot_since_skips_earlier_events() {
        let rec = TraceRecorder::with_capacity(256);
        for i in 0..10 {
            rec.record(TraceLayer::App, TraceKind::Mark, 1, i, 0);
        }
        let cursor = rec.cursor();
        for i in 0..5 {
            rec.record(TraceLayer::App, TraceKind::Mark, 2, i, 0);
        }
        let snap = rec.snapshot_since(cursor);
        assert_eq!(snap.events.len(), 5);
        assert!(snap.events.iter().all(|e| e.xid == 2));
    }
}
