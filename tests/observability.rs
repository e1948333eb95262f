//! Observability integration tests: commit-path phase spans must account
//! for the measured end-to-end durable-commit time, registry counter deltas
//! must count exactly the operations a test performed, recovery phases are
//! timed on every open, and (as `--ignored` benchmark guards) full
//! instrumentation and the flight recorder must each cost < 2% of TPC-B
//! throughput.

use std::sync::Arc;
use tdb::obs;
use tdb::platform::{MemSecretStore, MemStore, VolatileCounter};
use tdb::Durability;
use tdb::{ChunkStore, ChunkStoreConfig, SecurityMode};

fn store(cfg: ChunkStoreConfig) -> ChunkStore {
    ChunkStore::create(
        Arc::new(MemStore::new()),
        &MemSecretStore::from_label("obs-test"),
        Arc::new(VolatileCounter::new()),
        cfg,
    )
    .unwrap()
}

/// The eight instrumented commit phases (serialize, seal, append, map,
/// sync, rehash, anchor, counter) must sum to within ε of `commit.total` —
/// everything the durable commit path does is attributed.
///
/// The store runs in Full security with payloads large enough that crypto
/// and log writes dominate, and a checkpoint threshold high enough that no
/// checkpoint (whose map-page sealing is deliberately unattributed) can
/// fire mid-measurement.
#[test]
fn commit_phase_spans_sum_close_to_total() {
    // Phase attribution samples every Nth commit by default; this test
    // reconciles phase sums against totals, so time every commit.
    obs::set_phase_sample_every(1);
    let st = store(ChunkStoreConfig {
        security: SecurityMode::Full,
        checkpoint_threshold: u64::MAX / 2,
        ..Default::default()
    });
    let base = st.obs().snapshot();
    let payload = vec![0xC5u8; 8192];
    for _ in 0..40 {
        let mut batch = st.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, &payload).unwrap();
        st.commit_batch(batch, Durability::Durable).unwrap();
    }
    let snap = st.obs().snapshot().since(&base);

    let phase_sum: u64 = [
        "commit.serialize",
        "commit.seal",
        "commit.append",
        "commit.map",
        "commit.sync",
        "commit.rehash",
        "commit.anchor",
        "commit.counter",
    ]
    .iter()
    .map(|name| snap.histograms.get(*name).map(|h| h.sum).unwrap_or(0))
    .sum();
    let total = snap.histograms.get("commit.total").expect("total recorded");
    assert_eq!(total.count(), 40, "one total sample per durable commit");
    assert!(
        phase_sum <= total.sum,
        "phases ({phase_sum} ns) cannot exceed the enclosing total ({} ns)",
        total.sum
    );
    // Generous ε: at least half the measured commit time must be attributed
    // to a phase (in practice it is well above 80%; the slack absorbs debug
    // builds and noisy CI machines).
    assert!(
        phase_sum * 2 >= total.sum,
        "phases ({phase_sum} ns) explain under half of commit.total ({} ns)",
        total.sum
    );
}

/// Regression test for the phase-lap attribution drift: checkpoint and
/// cleaner anchor rounds used to record their sync/anchor/counter laps
/// into the `commit.*` histograms, so a bench run showed more
/// `commit.anchor` laps than `commit.serialize` laps (380 vs 375 in the
/// checked-in fig10 JSON). With maintenance rounds attributed to the
/// `maint.*` lanes, every commit-phase histogram must carry exactly one
/// lap per durable commit, no matter how many checkpoints interleave.
#[test]
fn commit_phase_lap_counts_match_across_interleaved_checkpoints() {
    obs::set_enabled(true);
    obs::set_phase_sample_every(1);
    // No maintenance thread: the leader then runs the batched Merkle pass
    // inline in its anchor round, so `commit.rehash` laps are exactly one
    // per durable commit (with the thread, the pass is deferred there and
    // consecutive rounds coalesce — counted under `maint.rehash` instead).
    let st = store(ChunkStoreConfig {
        security: SecurityMode::Full,
        checkpoint_threshold: u64::MAX / 2,
        background_maintenance: false,
        ..Default::default()
    });
    let base = st.obs().snapshot();
    let mut commits = 0u64;
    let mut checkpoints = 0u64;
    for round in 0..12u8 {
        let mut batch = st.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, &vec![round; 1024]).unwrap();
        st.commit_batch(batch, Durability::Durable).unwrap();
        commits += 1;
        if round % 3 == 2 {
            st.checkpoint().unwrap();
            checkpoints += 1;
        }
    }
    let snap = st.obs().snapshot().since(&base);
    let count = |name: &str| snap.histograms.get(name).map(|h| h.count()).unwrap_or(0);
    for phase in [
        "commit.serialize",
        "commit.seal",
        "commit.append",
        "commit.map",
        "commit.sync",
        "commit.rehash",
        "commit.anchor",
        "commit.counter",
    ] {
        assert_eq!(
            count(phase),
            commits,
            "{phase} laps must match the {commits} durable commits"
        );
    }
    assert_eq!(
        count("maint.anchor"),
        checkpoints,
        "each checkpoint's anchor round lands in maint.anchor"
    );
    assert_eq!(count("maint.counter"), checkpoints);
    assert!(count("maint.sync") >= checkpoints);
    // Group stats stay per-user-commit exact: checkpoints neither lead
    // nor join a commit group, and each single-threaded durable commit is
    // its own group of one.
    assert_eq!(count("commit.group_wait"), commits);
    assert_eq!(count("commit.group_size"), commits);
    let group_sum = snap
        .histograms
        .get("commit.group_size")
        .map(|h| h.sum)
        .unwrap_or(0);
    assert_eq!(group_sum, commits, "groups must cover each commit once");
}

/// Registry counter deltas count exactly the operations run between the
/// two snapshots: 7 commits, 4 of them durable, and 1 checkpoint, on top of
/// warm-up traffic that makes every base nonzero.
#[test]
fn registry_counter_deltas_match_known_counts() {
    let st = store(ChunkStoreConfig::default());
    let mut batch = st.begin_batch();
    let id0 = batch.allocate_chunk_id().unwrap();
    batch.write(id0, b"warmup").unwrap();
    st.commit_batch(batch, Durability::Durable).unwrap();

    let base = st.obs_snapshot();
    assert!(base.counter("chunk.commits") > 0 && base.counter("chunk.bytes_appended") > 0);
    for i in 0..7 {
        let mut batch = st.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, &vec![i as u8; 512]).unwrap();
        st.commit_batch(batch, Durability::from(i % 2 == 0))
            .unwrap();
    }
    st.checkpoint().unwrap();
    let delta = st.obs_snapshot().since(&base);
    let c = |name: &str| delta.counter(&format!("chunk.{name}"));

    assert_eq!(c("commits"), 7);
    assert_eq!(c("durable_commits"), 4);
    assert_eq!(c("checkpoints"), 1);
    // Seven 512-byte payloads went into chunk records, commit records were
    // written, and every record kind is part of the total.
    assert!(c("chunk_bytes_appended") >= 7 * 512 && c("commit_bytes_appended") > 0);
    let records = c("chunk_bytes_appended") + c("commit_bytes_appended") + c("map_bytes_appended");
    assert!(c("bytes_appended") >= records);
    // One anchor per durable commit and one for the checkpoint; each anchor
    // syncs and bumps the one-way counter exactly once.
    assert_eq!(c("anchor_writes"), c("durable_commits") + c("checkpoints"));
    assert_eq!(c("counter_increments"), c("anchor_writes"));
    assert!(c("syncs") >= c("anchor_writes"));
}

/// Recovery phases are timed on every open.
#[test]
fn recovery_phases_recorded_on_open() {
    let mem = Arc::new(MemStore::new());
    let secret = MemSecretStore::from_label("obs-recovery");
    let counter = Arc::new(VolatileCounter::new());
    {
        let st = ChunkStore::create(
            mem.clone(),
            &secret,
            counter.clone(),
            ChunkStoreConfig::default(),
        )
        .unwrap();
        let mut batch = st.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, b"persisted").unwrap();
        st.commit_batch(batch, Durability::Durable).unwrap();
    }
    let st = ChunkStore::open(mem, &secret, counter, ChunkStoreConfig::default()).unwrap();
    let snap = st.obs().snapshot();
    for phase in [
        "recovery.anchor",
        "recovery.map_load",
        "recovery.replay",
        "recovery.total",
    ] {
        let h = snap.histograms.get(phase).unwrap_or_else(|| {
            panic!(
                "{phase} missing from registry: {:?}",
                snap.histograms.keys()
            )
        });
        assert_eq!(h.count(), 1, "{phase} must have one sample per open");
    }
    let total = &snap.histograms["recovery.total"];
    let parts: u64 = ["recovery.anchor", "recovery.map_load", "recovery.replay"]
        .iter()
        .map(|p| snap.histograms[*p].sum)
        .sum();
    assert!(
        parts <= total.sum,
        "recovery phases ({parts} ns) exceed recovery.total ({} ns)",
        total.sum
    );
}

/// Benchmark-backed hot-path guard (documented in EXPERIMENTS.md): full
/// instrumentation must cost < 2% of TPC-B throughput versus no-op mode.
/// `#[ignore]`d because it needs a quiet machine and a release build:
///
/// ```text
/// cargo test --release --test observability -- --ignored overhead_guard
/// ```
#[test]
#[ignore = "benchmark: run --release on a quiet machine"]
fn overhead_guard_instrumentation_under_two_percent() {
    use tpcb::{run_benchmark, TdbDriver, TpcbConfig};

    let cfg = TpcbConfig {
        scale: 0.02,
        transactions: 6_000,
        seed: 0x0B5,
        threads: 1,
    };
    let run = |enabled: bool| {
        obs::set_enabled(enabled);
        let mut driver = TdbDriver::new(
            Arc::new(MemStore::new()),
            tdb::DatabaseConfig::without_security(),
        );
        // Warm-up run then measured run, interleaved per mode to share any
        // machine-wide drift.
        let report = run_benchmark(&mut driver, &cfg);
        report.transactions as f64 / report.run_seconds
    };
    // Interleave A/B/A/B and keep the best of each to shed scheduler noise:
    // noise only ever slows a run down, so each mode's best run is its
    // closest approach to true throughput. Five rounds give each mode a
    // good chance at one quiet slot even on a loaded machine.
    let mut best_on = 0.0f64;
    let mut best_off = 0.0f64;
    for _ in 0..5 {
        best_on = best_on.max(run(true));
        best_off = best_off.max(run(false));
    }
    obs::set_enabled(true);
    let overhead = (best_off - best_on) / best_off;
    eprintln!(
        "throughput: instrumented {best_on:.0} txn/s, no-op {best_off:.0} txn/s, \
         overhead {:.2}%",
        overhead * 100.0
    );
    assert!(
        overhead < 0.02,
        "instrumentation overhead {:.2}% exceeds the 2% budget",
        overhead * 100.0
    );
}

/// Same guard for the flight recorder: with the trace ring enabled (as
/// `TDB_TRACE=on` would), tracing must cost < 2% of TPC-B throughput. The
/// recorder's design brief is "cheap enough to leave on in production
/// stress runs" — a fetch_add plus eight single-cache-line stores per
/// event — so a regression here means an instrumentation site started
/// doing real work (formatting, locking, allocation) on the hot path.
///
/// Unlike the guard above this one does *not* A/B end-to-end throughput:
/// the effect is well under 1%, and virtualized runners swing several
/// percent run-to-run, so an A/B comparison flakes in both directions
/// (measured spread across repeated A/B attempts: −27% to +18%). Instead
/// it measures the factors directly — cost of one `record` (tight loop,
/// low variance), events emitted per transaction (deterministic), and
/// time per transaction (one run) — and bounds their product. A heavy
/// emit path blows up the first factor; event spam on the commit path
/// blows up the second; either fails the guard deterministically.
/// `#[ignore]`d for the same reason as the guard above:
///
/// ```text
/// cargo test --release --test observability -- --ignored tracing_overhead
/// ```
#[test]
#[ignore = "benchmark: run --release on a quiet machine"]
fn tracing_overhead_guard_under_two_percent() {
    use std::time::Instant;
    use tpcb::{run_benchmark, TdbDriver, TpcbConfig};

    // Factor 1: nanoseconds per recorded event, into the process-global
    // ring the real instrumentation uses (includes the enabled-check and
    // recorder lookup via the public emit path).
    obs::set_enabled(true);
    obs::trace::set_trace_enabled(true);
    let rec = obs::trace::recorder();
    let spam = 1_000_000u64;
    let t0 = Instant::now();
    for i in 0..spam {
        obs::trace::emit(obs::TraceLayer::Chunk, obs::TraceKind::Mark, i, i, i);
    }
    let ns_per_event = t0.elapsed().as_nanos() as f64 / spam as f64;

    // Factors 2 and 3: events per transaction and time per transaction,
    // from one traced TPC-B run.
    let cfg = TpcbConfig {
        scale: 0.02,
        transactions: 10_000,
        seed: 0x0B5,
        threads: 1,
    };
    let before = rec.recorded();
    let mut driver = TdbDriver::new(
        Arc::new(MemStore::new()),
        tdb::DatabaseConfig::without_security(),
    );
    let report = run_benchmark(&mut driver, &cfg);
    let events_per_txn = (rec.recorded() - before) as f64 / report.transactions as f64;
    let ns_per_txn = report.run_seconds * 1e9 / report.transactions as f64;
    obs::trace::set_trace_enabled(false);

    let overhead = events_per_txn * ns_per_event / ns_per_txn;
    eprintln!(
        "tracing cost: {ns_per_event:.0} ns/event x {events_per_txn:.1} events/txn \
         over {ns_per_txn:.0} ns/txn = {:.2}% overhead",
        overhead * 100.0
    );
    assert!(
        overhead < 0.02,
        "flight-recorder overhead {:.2}% exceeds the 2% budget \
         ({ns_per_event:.0} ns/event, {events_per_txn:.1} events/txn)",
        overhead * 100.0
    );
}
