//! Background maintenance and incremental-cleaner tests: watermark-driven
//! checkpointing off the commit path, mid-pass snapshot pinning (TOCTOU),
//! error-path accounting of a failed closing checkpoint, and the
//! commit-latency bugfixes (phase-lap pollution, anchor/counter rollback,
//! gave-up-vs-clean maintenance outcomes), and the single anchor round and
//! single maintenance round behind both of their callers.

use chunk_store::Durability;
use chunk_store::{ChunkId, ChunkStore, ChunkStoreConfig, SecurityMode};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdb_platform::{
    CrashSchedule, FaultPlan, FaultStore, MemSecretStore, MemStore, OneWayCounter, PlatformError,
    RandomAccessFile, UntrustedStore, VolatileCounter,
};

fn secret() -> MemSecretStore {
    MemSecretStore::from_label("maintenance")
}

fn create_on(
    untrusted: Arc<dyn UntrustedStore>,
    c: &VolatileCounter,
    cfg: &ChunkStoreConfig,
) -> ChunkStore {
    ChunkStore::create(untrusted, &secret(), Arc::new(c.clone()), cfg.clone()).unwrap()
}

fn open_on(
    untrusted: Arc<dyn UntrustedStore>,
    c: &VolatileCounter,
    cfg: &ChunkStoreConfig,
) -> ChunkStore {
    ChunkStore::open(untrusted, &secret(), Arc::new(c.clone()), cfg.clone()).unwrap()
}

/// The store's `chunk.<name>` counter, read from its registry.
fn chunk_counter(store: &ChunkStore, name: &str) -> u64 {
    store.obs_snapshot().counter(&format!("chunk.{name}"))
}

fn hist_count(snap: &tdb_obs::RegistrySnapshot, name: &str) -> u64 {
    snap.histograms.get(name).map(|h| h.count()).unwrap_or(0)
}

/// In `Off` security the anchor round never touches the one-way counter,
/// so the counter histograms must record nothing — a lap of ~0ns per
/// anchor would drag the percentiles toward zero and misattribute anchor
/// time. In `Full` mode every successful round records exactly one
/// counter lap alongside its anchor lap. A checkpoint's round lands in
/// the `maint.*` lanes and must leave the `commit.*` rows untouched.
#[test]
fn counter_laps_follow_real_counter_work_only() {
    tdb_obs::set_enabled(true);

    for (security, expect_counter) in [(SecurityMode::Off, false), (SecurityMode::Full, true)] {
        let cfg = ChunkStoreConfig {
            security,
            ..ChunkStoreConfig::small_for_tests()
        };
        let counter = VolatileCounter::new();
        let store = create_on(Arc::new(MemStore::new()), &counter, &cfg);
        let mut batch = store.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, b"anchor fodder").unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();

        let base = store.obs().snapshot();
        store.checkpoint().unwrap();
        let delta = store.obs().snapshot().since(&base);

        let anchors = hist_count(&delta, "maint.anchor");
        let counters = hist_count(&delta, "maint.counter");
        assert!(anchors >= 1, "checkpoint must record a maint anchor lap");
        assert_eq!(
            hist_count(&delta, "commit.anchor"),
            0,
            "checkpoint rounds must not leak into commit.anchor"
        );
        assert_eq!(hist_count(&delta, "commit.sync"), 0);
        if expect_counter {
            assert_eq!(
                counters, anchors,
                "Full mode: one counter lap per successful anchor round"
            );
        } else {
            assert_eq!(
                counters, 0,
                "Off mode: no counter work, so no counter laps (got {counters})"
            );
        }
    }
}

/// An anchor round that dies before its I/O completes must record neither
/// an anchor nor a counter lap — error samples would pollute the phase
/// histograms with near-zero laps for work that never happened.
#[test]
fn failed_anchor_rounds_record_no_phase_laps() {
    tdb_obs::set_enabled(true);
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Full,
        ..ChunkStoreConfig::small_for_tests()
    };
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let plan = FaultPlan::unlimited();
    let store = create_on(
        Arc::new(FaultStore::new(mem.clone(), plan.clone())),
        &counter,
        &cfg,
    );
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"soon to fail").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();

    // Kill the next sync: the round dies in `sync_touched`, before the
    // anchor write or counter increment.
    let mut batch = store.begin_batch();
    batch.write(id, b"fresh garbage to flush").unwrap();
    store.commit_batch(batch, Durability::Lazy).unwrap();
    let base = store.obs().snapshot();
    plan.rearm_with(CrashSchedule::OnSync { index: 0 });
    store.checkpoint().unwrap_err();
    let delta = store.obs().snapshot().since(&base);
    assert_eq!(hist_count(&delta, "commit.anchor"), 0);
    assert_eq!(hist_count(&delta, "commit.counter"), 0);

    // The store stays usable once the device recovers.
    plan.rearm_with(CrashSchedule::Never);
    store.checkpoint().unwrap();
    assert_eq!(store.read(id).unwrap(), b"fresh garbage to flush");
}

/// Repeated anchor-round failures must not let the in-memory counter
/// expectation drift past the hardware counter. Recovery only repairs a
/// `+1` gap (the benign crash window); without rollback, three failed
/// rounds would open a `+3` gap and the reopen would report a replay
/// attack against our own database.
#[test]
fn failed_anchor_rounds_do_not_drift_replay_detection() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Full,
        ..ChunkStoreConfig::small_for_tests()
    };
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let plan = FaultPlan::unlimited();
    let store = create_on(
        Arc::new(FaultStore::new(mem.clone(), plan.clone())),
        &counter,
        &cfg,
    );
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"v0").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();

    for round in 0..3u32 {
        let mut batch = store.begin_batch();
        batch
            .write(id, format!("doomed {round}").as_bytes())
            .unwrap();
        plan.rearm_with(CrashSchedule::OnSync { index: 0 });
        store.commit_batch(batch, Durability::Durable).unwrap_err();
        plan.rearm_with(CrashSchedule::Never);
        // The device is healthy again; the retried round must succeed and
        // land exactly one counter increment.
        let mut batch = store.begin_batch();
        batch
            .write(id, format!("landed {round}").as_bytes())
            .unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
    }

    drop(store);
    // A drifted counter surfaces here as ReplayDetected.
    let store = open_on(Arc::new(mem), &counter, &cfg);
    assert_eq!(store.read(id).unwrap(), b"landed 2");
}

/// Fill the store, free almost everything, then hammer overwrites with
/// growth disabled: every commit must succeed because maintenance can
/// always reclaim the freed space. The old `maintain()` could report
/// success with zero free segments (its own checkpoint traffic consumed
/// what a pass freed), surfacing later as a spurious out-of-space error.
#[test]
fn mass_free_then_overwrites_never_spuriously_out_of_space() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        allow_growth: false,
        initial_segments: 6,
        ..ChunkStoreConfig::small_for_tests()
    };
    let counter = VolatileCounter::new();
    let store = create_on(Arc::new(MemStore::new()), &counter, &cfg);

    // Map-heavy fill: many small chunks spread across leaf pages.
    let mut ids = Vec::new();
    let mut batch = store.begin_batch();
    for i in 0..30u32 {
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, &i.to_le_bytes().repeat(64)).unwrap();
        ids.push(id);
        if i % 5 == 4 {
            store.commit_batch(batch, Durability::Durable).unwrap();
            batch = store.begin_batch();
        }
    }
    store.commit_batch(batch, Durability::Durable).unwrap();

    // Free all but two chunks.
    let survivors = [ids[0], ids[1]];
    let mut batch = store.begin_batch();
    for id in &ids[2..] {
        batch.deallocate(*id).unwrap();
    }
    store.commit_batch(batch, Durability::Durable).unwrap();

    // Overwrite the survivors repeatedly: continuous garbage generation
    // that is only sustainable if reclamation actually frees segments.
    for round in 0..200u32 {
        let mut batch = store.begin_batch();
        for (k, id) in survivors.iter().enumerate() {
            let payload = (round * 2 + k as u32).to_le_bytes().repeat(64);
            batch.write(*id, &payload).unwrap();
        }
        store
            .commit_batch(batch, Durability::from(round % 4 == 0))
            .unwrap_or_else(|e| panic!("commit {round} failed: {e}"));
    }
    assert!(
        chunk_counter(&store, "cleaner_passes") > 0,
        "cleaning must have run"
    );
    assert_eq!(
        store.read(survivors[0]).unwrap(),
        398u32.to_le_bytes().repeat(64)
    );
    assert_eq!(
        store.read(survivors[1]).unwrap(),
        399u32.to_le_bytes().repeat(64)
    );
}

/// Sweep a torn write across an entire cleaning pass — victim selection's
/// settling anchor, every relocation slice, the closing checkpoint, and
/// the frees. After each failure the *same* store handle must recover by
/// an ordinary checkpoint + clean (accounting settles exactly), and a
/// crash-style reopen from the underlying bytes must also see every chunk.
#[test]
fn failed_cleaning_pass_is_retryable_at_every_write() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        maintenance_slice_chunks: 2,
        ..ChunkStoreConfig::small_for_tests()
    };

    let mut k = 0u64;
    loop {
        assert!(k < 300, "sweep never reached the end of the pass");
        let mem = MemStore::new();
        let counter = VolatileCounter::new();
        let plan = FaultPlan::unlimited();
        let store = create_on(
            Arc::new(FaultStore::new(mem.clone(), plan.clone())),
            &counter,
            &cfg,
        );

        // Deterministic garbage-heavy workload: two segments' worth of
        // chunks, half overwritten, a few deallocated.
        let mut expected: BTreeMap<ChunkId, Vec<u8>> = BTreeMap::new();
        let mut ids = Vec::new();
        let mut batch = store.begin_batch();
        for i in 0..24u32 {
            let id = batch.allocate_chunk_id().unwrap();
            let v = i.to_le_bytes().repeat(75);
            batch.write(id, &v).unwrap();
            expected.insert(id, v);
            ids.push(id);
        }
        store.commit_batch(batch, Durability::Durable).unwrap();
        store.checkpoint().unwrap();
        let mut batch = store.begin_batch();
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                let v = (i as u32 + 1000).to_le_bytes().repeat(60);
                batch.write(*id, &v).unwrap();
                expected.insert(*id, v);
            }
        }
        for id in &ids[20..] {
            batch.deallocate(*id).unwrap();
            expected.remove(id);
        }
        store.commit_batch(batch, Durability::Durable).unwrap();

        plan.rearm_with(CrashSchedule::OnWrite {
            index: k,
            cut_num: 1,
            cut_den: 2,
        });
        let res = store.clean();
        if !plan.has_crashed() {
            // The pass finished before write k: the whole pass has been
            // swept. Sanity-check the clean result and stop.
            res.unwrap();
            break;
        }
        assert!(
            res.is_err(),
            "a torn write mid-pass must surface as an error"
        );

        // In-process retry on the same handle: checkpoint settles the
        // accounting the failed pass left behind, then a clean completes.
        plan.rearm_with(CrashSchedule::Never);
        store.checkpoint().unwrap();
        store.clean().unwrap();
        for (id, v) in &expected {
            assert_eq!(&store.read(*id).unwrap(), v, "write-crash at {k}");
        }
        let (accounted, walked, _, _, pending) = store.debug_accounting();
        assert_eq!(accounted, walked, "live accounting drifted (crash at {k})");
        assert_eq!(pending, 0, "pending decrements not settled (crash at {k})");

        // Crash-style reopen from the raw bytes must agree.
        drop(store);
        let store = open_on(Arc::new(mem), &counter, &cfg);
        for (id, v) in &expected {
            assert_eq!(&store.read(*id).unwrap(), v, "reopen after crash at {k}");
        }
        k += 1;
    }
}

/// TOCTOU: a snapshot opened *between* relocation slices pins the
/// remaining victims. Every chunk the snapshot covers must stay readable
/// after the pass — a freed victim segment would surface as a read error
/// or tamper report.
#[test]
fn snapshot_between_slices_pins_remaining_victims() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        maintenance_slice_chunks: 1,
        ..ChunkStoreConfig::small_for_tests()
    };
    let counter = VolatileCounter::new();
    let store = create_on(Arc::new(MemStore::new()), &counter, &cfg);

    let mut ids = Vec::new();
    let mut batch = store.begin_batch();
    for i in 0..30u32 {
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, &i.to_le_bytes().repeat(75)).unwrap();
        ids.push(id);
    }
    store.commit_batch(batch, Durability::Durable).unwrap();
    store.checkpoint().unwrap();
    // Overwrite half: the old versions become garbage spread across the
    // early segments, leaving live chunks in partial victims to relocate.
    let mut batch = store.begin_batch();
    for (i, id) in ids.iter().enumerate() {
        if i % 2 == 0 {
            batch
                .write(*id, &(i as u32 + 500).to_le_bytes().repeat(60))
                .unwrap();
        }
    }
    store.commit_batch(batch, Durability::Durable).unwrap();

    let mut snap = None;
    let store_ref = &store;
    store_ref
        .clean_incremental_with(&mut |_slice| {
            if snap.is_none() {
                snap = Some(store_ref.snapshot());
            }
        })
        .unwrap();
    let snap = snap.expect("pass must take more than one slice");

    for (i, id) in ids.iter().enumerate() {
        let want = if i % 2 == 0 {
            (i as u32 + 500).to_le_bytes().repeat(60)
        } else {
            (i as u32).to_le_bytes().repeat(75)
        };
        assert_eq!(
            store.read_at_snapshot(&snap, *id).unwrap(),
            want,
            "snapshot read of chunk {i} after mid-pass cleaning"
        );
        assert_eq!(store.read(*id).unwrap(), want);
    }

    // With the snapshot dropped the pinned garbage becomes reclaimable.
    drop(snap);
    store.clean().unwrap();
    for (i, id) in ids.iter().enumerate() {
        let want = if i % 2 == 0 {
            (i as u32 + 500).to_le_bytes().repeat(60)
        } else {
            (i as u32).to_le_bytes().repeat(75)
        };
        assert_eq!(store.read(*id).unwrap(), want);
    }
}

/// Commits landing between relocation slices must never be clobbered by
/// the pass: each slice re-fetches chunk locations, so a chunk rewritten
/// mid-pass keeps its new version.
#[test]
fn commits_between_slices_survive_the_pass() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        maintenance_slice_chunks: 1,
        ..ChunkStoreConfig::small_for_tests()
    };
    let counter = VolatileCounter::new();
    let mem = MemStore::new();
    let store = create_on(Arc::new(mem.clone()), &counter, &cfg);

    let mut ids = Vec::new();
    let mut batch = store.begin_batch();
    for i in 0..24u32 {
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, &i.to_le_bytes().repeat(75)).unwrap();
        ids.push(id);
    }
    store.commit_batch(batch, Durability::Durable).unwrap();
    store.checkpoint().unwrap();
    let mut batch = store.begin_batch();
    for (i, id) in ids.iter().enumerate() {
        if i % 2 == 0 {
            batch
                .write(*id, &(i as u32).to_le_bytes().repeat(50))
                .unwrap();
        }
    }
    store.commit_batch(batch, Durability::Durable).unwrap();

    // Every slice boundary overwrites one chunk the pass may be about to
    // relocate.
    let store_ref = &store;
    let ids_ref = &ids;
    let mut turn = 0usize;
    store_ref
        .clean_incremental_with(&mut |_slice| {
            let id = ids_ref[turn % ids_ref.len()];
            let mut batch = store_ref.begin_batch();
            batch
                .write(id, format!("mid-pass {turn}").as_bytes())
                .unwrap();
            store_ref.commit_batch(batch, Durability::Lazy).unwrap();
            turn += 1;
        })
        .unwrap();
    assert!(turn > 0, "pass must have had slice boundaries");
    store
        .commit_batch(store.begin_batch(), Durability::Durable)
        .unwrap();

    let mut expected: BTreeMap<ChunkId, Vec<u8>> = BTreeMap::new();
    for (i, id) in ids.iter().enumerate() {
        expected.insert(
            *id,
            if i % 2 == 0 {
                (i as u32).to_le_bytes().repeat(50)
            } else {
                (i as u32).to_le_bytes().repeat(75)
            },
        );
    }
    for t in 0..turn {
        expected.insert(ids[t % ids.len()], format!("mid-pass {t}").into_bytes());
    }
    for (id, v) in &expected {
        assert_eq!(&store.read(*id).unwrap(), v);
    }
    drop(store);
    let store = open_on(Arc::new(mem), &counter, &cfg);
    for (id, v) in &expected {
        assert_eq!(&store.read(*id).unwrap(), v);
    }
}

/// With `background_maintenance` on, the commit path only kicks the
/// thread; the thread takes the watermark checkpoint. `close()` quiesces
/// it, after which the store still works (committers drive maintenance)
/// and closing again is a no-op.
#[test]
fn background_thread_checkpoints_by_watermark_and_close_quiesces() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        background_maintenance: true,
        checkpoint_threshold: 8 * 1024,
        ..ChunkStoreConfig::small_for_tests()
    };
    let counter = VolatileCounter::new();
    let store = create_on(Arc::new(MemStore::new()), &counter, &cfg);
    let base = store.obs_snapshot();

    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    for i in 0..60u32 {
        batch.write(id, &i.to_le_bytes().repeat(100)).unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
        batch = store.begin_batch();
    }

    // The checkpoint happens asynchronously; wait for it.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let now = store.obs_snapshot().since(&base);
        if now.counter("chunk.checkpoints") > 0 {
            assert!(
                now.counter("chunk.maintenance_wakeups") > 0,
                "commit path must kick the thread"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "background thread never checkpointed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    store.close();
    // Still fully usable; the committer maintains now.
    batch.write(id, b"after close").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    assert_eq!(store.read(id).unwrap(), b"after close");
    store.close();
}

/// Space pressure with the thread on: growth disabled, two hot chunks
/// overwritten far past the log's capacity. Committers stall on the
/// backpressure path instead of failing; everything lands, and a reopen
/// (after drop joins the thread) recovers the final state.
#[test]
fn backpressure_under_background_cleaning() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        background_maintenance: true,
        allow_growth: false,
        initial_segments: 6,
        ..ChunkStoreConfig::small_for_tests()
    };
    let counter = VolatileCounter::new();
    let mem = MemStore::new();
    let store = create_on(Arc::new(mem.clone()), &counter, &cfg);

    let mut batch = store.begin_batch();
    let a = batch.allocate_chunk_id().unwrap();
    let b = batch.allocate_chunk_id().unwrap();
    for round in 0..300u32 {
        batch
            .write(a, &(round * 2).to_le_bytes().repeat(64))
            .unwrap();
        batch
            .write(b, &(round * 2 + 1).to_le_bytes().repeat(64))
            .unwrap();
        store
            .commit_batch(batch, Durability::from(round % 8 == 0))
            .unwrap_or_else(|e| panic!("commit {round} failed under backpressure: {e}"));
        batch = store.begin_batch();
    }
    store.commit_batch(batch, Durability::Durable).unwrap();
    assert!(
        chunk_counter(&store, "cleaner_passes") > 0,
        "cleaning must have run"
    );
    assert_eq!(store.read(a).unwrap(), 598u32.to_le_bytes().repeat(64));
    assert_eq!(store.read(b).unwrap(), 599u32.to_le_bytes().repeat(64));

    drop(store); // joins the maintenance thread
    let store = open_on(Arc::new(mem), &counter, &cfg);
    assert_eq!(store.read(a).unwrap(), 598u32.to_le_bytes().repeat(64));
    assert_eq!(store.read(b).unwrap(), 599u32.to_le_bytes().repeat(64));
}

// ---------------------------------------------------------------------------
// One anchor round, one maintenance round
// ---------------------------------------------------------------------------

/// A store that refuses writes to the anchor slots while `fail` is set.
struct AnchorFaultStore {
    inner: MemStore,
    fail: Arc<AtomicBool>,
}

struct AnchorFaultFile {
    inner: Box<dyn RandomAccessFile>,
    fail: Arc<AtomicBool>,
}

fn injected() -> PlatformError {
    PlatformError::Io(std::io::Error::other("injected fault"))
}

impl UntrustedStore for AnchorFaultStore {
    fn open(&self, name: &str, create: bool) -> tdb_platform::Result<Box<dyn RandomAccessFile>> {
        let inner = self.inner.open(name, create)?;
        if !name.starts_with("anchor.") {
            return Ok(inner);
        }
        Ok(Box::new(AnchorFaultFile {
            inner,
            fail: self.fail.clone(),
        }))
    }
    fn exists(&self, name: &str) -> tdb_platform::Result<bool> {
        self.inner.exists(name)
    }
    fn remove(&self, name: &str) -> tdb_platform::Result<()> {
        self.inner.remove(name)
    }
    fn list(&self) -> tdb_platform::Result<Vec<String>> {
        self.inner.list()
    }
}

impl RandomAccessFile for AnchorFaultFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> tdb_platform::Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> tdb_platform::Result<()> {
        if self.fail.load(Ordering::SeqCst) {
            return Err(injected());
        }
        self.inner.write_at(offset, data)
    }
    fn len(&self) -> tdb_platform::Result<u64> {
        self.inner.len()
    }
    fn set_len(&self, len: u64) -> tdb_platform::Result<()> {
        self.inner.set_len(len)
    }
    fn sync(&self) -> tdb_platform::Result<()> {
        self.inner.sync()
    }
}

/// A one-way counter whose increments fail while `fail` is set.
struct FlakyCounter {
    inner: VolatileCounter,
    fail: Arc<AtomicBool>,
}

impl OneWayCounter for FlakyCounter {
    fn read(&self) -> tdb_platform::Result<u64> {
        self.inner.read()
    }
    fn increment(&self) -> tdb_platform::Result<u64> {
        if self.fail.load(Ordering::SeqCst) {
            return Err(injected());
        }
        self.inner.increment()
    }
}

fn diag_u64(store: &ChunkStore, key: &str) -> u64 {
    store.diag_state().as_arr().unwrap()[0]
        .get(key)
        .and_then(|v| v.as_u64())
        .unwrap()
}

/// The in-lock round (here: a checkpoint) and the group-commit leader's
/// round (here: a durable commit) settle through the same code, so a
/// failed anchor write and a failed counter increment must each leave
/// both of them where they started: `anchor_seq` as before the round, the
/// in-memory counter expectation equal to the hardware counter. Repeated
/// failures therefore never add up to a gap recovery would read as a
/// replay — reopening right after a failure, without any successful
/// retry, included.
#[test]
fn failed_anchor_write_or_counter_bump_rolls_back_on_both_rounds() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Full,
        ..ChunkStoreConfig::small_for_tests()
    };
    for fail_counter in [false, true] {
        for leader_round in [false, true] {
            let what = format!("fail_counter={fail_counter} leader_round={leader_round}");
            let mem = MemStore::new();
            let counter = VolatileCounter::new();
            let fail_anchor_write = Arc::new(AtomicBool::new(false));
            let fail_counter_bump = Arc::new(AtomicBool::new(false));
            let fault = if fail_counter {
                &fail_counter_bump
            } else {
                &fail_anchor_write
            };
            let store = ChunkStore::create(
                Arc::new(AnchorFaultStore {
                    inner: mem.clone(),
                    fail: fail_anchor_write.clone(),
                }),
                &secret(),
                Arc::new(FlakyCounter {
                    inner: counter.clone(),
                    fail: fail_counter_bump.clone(),
                }),
                cfg.clone(),
            )
            .unwrap();
            let mut batch = store.begin_batch();
            let id = batch.allocate_chunk_id().unwrap();
            batch.write(id, b"landed 0").unwrap();
            store.commit_batch(batch, Durability::Durable).unwrap();

            let attempt = |payload: &[u8]| {
                let mut batch = store.begin_batch();
                batch.write(id, payload).unwrap();
                if leader_round {
                    store.commit_batch(batch, Durability::Durable)
                } else {
                    store
                        .commit_batch(batch, Durability::Lazy)
                        .and_then(|()| store.checkpoint())
                }
            };
            for round in 1..=3u32 {
                let anchor_seq = diag_u64(&store, "anchor_seq");
                fault.store(true, Ordering::SeqCst);
                attempt(format!("doomed {round}").as_bytes()).unwrap_err();
                fault.store(false, Ordering::SeqCst);
                assert_eq!(diag_u64(&store, "anchor_seq"), anchor_seq, "{what}");
                assert_eq!(
                    diag_u64(&store, "counter_value"),
                    counter.read().unwrap(),
                    "{what}: counter drift after a failed round"
                );
                attempt(format!("landed {round}").as_bytes()).unwrap();
                assert_eq!(diag_u64(&store, "anchor_seq"), anchor_seq + 1, "{what}");
                assert_eq!(
                    diag_u64(&store, "counter_value"),
                    counter.read().unwrap(),
                    "{what}"
                );
            }
            // One last failure and straight into recovery. A drifted
            // counter surfaces here as ReplayDetected.
            fault.store(true, Ordering::SeqCst);
            attempt(b"doomed 4").unwrap_err();
            drop(store);
            let store = open_on(Arc::new(mem), &counter, &cfg);
            let got = store.read(id).unwrap();
            if fail_counter {
                // The anchor landed before the increment failed, so the
                // refused commit may legitimately have survived.
                assert!(got == b"landed 3" || got == b"doomed 4", "{what}");
            } else {
                assert_eq!(got, b"landed 3", "{what}");
            }
        }
    }
}

/// A maintenance-thread round that fails is not fatal to the thread, but
/// it is visible: `chunk.maintenance_errors` counts it and the shard's
/// `diag_state` (what a diagnostic dump carries) keeps its round and error.
#[test]
fn failed_thread_round_is_counted_and_kept_for_dumps() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Full,
        background_maintenance: true,
        allow_growth: false,
        initial_segments: 6,
        ..ChunkStoreConfig::small_for_tests()
    };
    let fail = Arc::new(AtomicBool::new(false));
    let store = ChunkStore::create(
        Arc::new(AnchorFaultStore {
            inner: MemStore::new(),
            fail: fail.clone(),
        }),
        &secret(),
        Arc::new(VolatileCounter::new()),
        cfg,
    )
    .unwrap();
    // Lazy commits never anchor, so the only anchor write is the one the
    // thread's round makes once the fixed-size log fills and a stalled
    // committer kicks it. The committer then gives up with out-of-space.
    fail.store(true, Ordering::SeqCst);
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut i = 0u32;
    while chunk_counter(&store, "maintenance_errors") == 0 {
        assert!(Instant::now() < deadline, "no maintenance round failed");
        batch.write(id, &i.to_le_bytes().repeat(100)).unwrap();
        let _ = store.commit_batch(batch, Durability::Lazy);
        batch = store.begin_batch();
        i += 1;
    }

    // The thread survived: with the fault gone, its rounds make room and
    // the store commits durably again.
    fail.store(false, Ordering::SeqCst);
    batch.write(id, b"after the fault").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    assert_eq!(store.read(id).unwrap(), b"after the fault");

    // The dump reads the maintenance state with `try_lock` and reports
    // `{"locked": true}` while the thread holds it, so read it once the
    // thread is joined.
    store.close();
    let maint = store.diag_state().as_arr().unwrap()[0]
        .get("maintenance")
        .cloned();
    let err = maint.and_then(|m| m.get("last_error").cloned()).unwrap();
    assert!(
        err.get("round").and_then(|r| r.as_u64()).is_some(),
        "{err:?}"
    );
    let text = err.get("error").and_then(|e| e.as_str()).unwrap();
    assert!(text.contains("injected fault"), "{text}");
}

/// Overwrite churn from a seed: eight chunks, two rewritten per commit,
/// every eighth commit durable. Returns what the store must now hold.
fn seeded_churn(store: &ChunkStore, seed: u64, rounds: u32) -> BTreeMap<ChunkId, Vec<u8>> {
    let mut state = seed;
    let mut next = || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut expected = BTreeMap::new();
    let mut batch = store.begin_batch();
    let ids: Vec<ChunkId> = (0..8).map(|_| batch.allocate_chunk_id().unwrap()).collect();
    for id in &ids {
        batch.write(*id, &[0u8; 200]).unwrap();
        expected.insert(*id, vec![0u8; 200]);
    }
    store.commit_batch(batch, Durability::Durable).unwrap();
    for round in 0..rounds {
        let mut batch = store.begin_batch();
        for _ in 0..2 {
            let id = ids[(next() % 8) as usize];
            let payload = next().to_le_bytes().repeat(16 + (next() % 16) as usize);
            batch.write(id, &payload).unwrap();
            expected.insert(id, payload);
        }
        store
            .commit_batch(batch, Durability::from(round % 8 == 0))
            .unwrap_or_else(|e| panic!("commit {round} failed: {e}"));
    }
    store
        .commit_batch(store.begin_batch(), Durability::Durable)
        .unwrap();
    expected
}

/// `close()` stops the thread, not the maintenance: from then on the
/// committers run the very same round themselves. On a fixed-size log
/// that is the difference between committing forever and running out of
/// space after one lap of the log.
#[test]
fn closed_store_keeps_cleaning_on_a_fixed_size_log() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        background_maintenance: true,
        allow_growth: false,
        initial_segments: 6,
        ..ChunkStoreConfig::small_for_tests()
    };
    let counter = VolatileCounter::new();
    let mem = MemStore::new();
    let store = create_on(Arc::new(mem.clone()), &counter, &cfg);
    store.close();
    let base = store.obs_snapshot();

    // ~300 KiB through a 24 KiB log.
    let expected = seeded_churn(&store, 7, 400);
    let delta = store.obs_snapshot().since(&base);
    assert!(delta.counter("chunk.cleaner_segments_freed") > 0);
    assert_eq!(
        delta.counter("chunk.maintenance_wakeups"),
        0,
        "the thread is gone"
    );
    for (id, bytes) in &expected {
        assert_eq!(&store.read(*id).unwrap(), bytes);
    }
    drop(store);
    let store = open_on(Arc::new(mem), &counter, &cfg);
    for (id, bytes) in &expected {
        assert_eq!(&store.read(*id).unwrap(), bytes);
    }
}

/// The two drivers run one policy: the same seeded churn, maintained by
/// the committer or by the thread, ends with the same contents, a log
/// that stayed bounded, and utilization within the configured maximum.
#[test]
fn committer_and_thread_drivers_agree() {
    for background_maintenance in [false, true] {
        let cfg = ChunkStoreConfig {
            security: SecurityMode::Off,
            background_maintenance,
            ..ChunkStoreConfig::small_for_tests()
        };
        let counter = VolatileCounter::new();
        let mem = MemStore::new();
        let store = create_on(Arc::new(mem.clone()), &counter, &cfg);
        let expected = seeded_churn(&store, 11, 400);
        let what = format!("background_maintenance={background_maintenance}");
        // The last commit may have kicked a round the thread is still
        // running: assert on what maintenance left, not on a pass midway.
        store.wait_maintenance_idle();

        assert!(
            chunk_counter(&store, "cleaner_segments_freed") > 0,
            "{what}"
        );
        assert!(
            store.utilization() <= cfg.max_utilization,
            "{what}: utilization {}",
            store.utilization()
        );
        // ~300 KiB written, ~2 KiB live: cleaning kept the log to a
        // handful of 4 KiB segments.
        assert!(
            store.disk_size() <= 16 * 4096,
            "{what}: {} bytes on disk",
            store.disk_size()
        );
        let got: BTreeMap<ChunkId, Vec<u8>> = expected
            .keys()
            .map(|id| (*id, store.read(*id).unwrap()))
            .collect();
        assert_eq!(got, expected, "{what}");
        assert_eq!(store.live_chunks(), 8, "{what}");

        drop(store);
        let store = open_on(Arc::new(mem), &counter, &cfg);
        for (id, bytes) in &expected {
            assert_eq!(&store.read(*id).unwrap(), bytes, "{what} after reopen");
        }
    }
}

/// Lazy commits append to the log like durable ones, so they check the
/// maintenance watermarks too: a lazy-only churn with the thread on wakes
/// it, checkpoints, and keeps the log to a handful of segments instead of
/// growing it by one segment per ~16 commits.
#[test]
fn lazy_only_commits_kick_maintenance() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        background_maintenance: true,
        checkpoint_threshold: 8 * 1024,
        ..ChunkStoreConfig::small_for_tests()
    };
    let counter = VolatileCounter::new();
    let store = create_on(Arc::new(MemStore::new()), &counter, &cfg);
    let base = store.obs_snapshot();

    // ~500 KiB of lazy commits over one live chunk.
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    for i in 0..2_000u32 {
        batch.write(id, &i.to_le_bytes().repeat(64)).unwrap();
        store.commit_batch(batch, Durability::Lazy).unwrap();
        batch = store.begin_batch();
    }
    store.wait_maintenance_idle();

    let delta = store.obs_snapshot().since(&base);
    assert!(delta.counter("chunk.maintenance_wakeups") > 0);
    assert!(delta.counter("chunk.checkpoints") > 0);
    assert!(
        store.disk_size() <= 16 * 4096,
        "{} bytes on disk",
        store.disk_size()
    );
    assert_eq!(store.read(id).unwrap(), 1_999u32.to_le_bytes().repeat(64));
}
