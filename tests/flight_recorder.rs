//! Flight-recorder / watchdog / diagnostics integration tests:
//!
//! * an injected commit stall must make the watchdog (polled by the
//!   background maintenance thread) write a diagnostic dump that names the
//!   stalled thread, carries its trace timeline, and shows the maintenance
//!   thread's own last event;
//! * `Db::diagnostics` must capture registered store state on demand
//!   and `diagnostics_to_dir` must persist a parseable dump;
//! * a looped stall storm on a fixed-size log (growth disabled, watermarks
//!   tight) must always make progress — the regression test for the lost
//!   stall wakeup that could hang `transfers_survive_forced_background_
//!   cleaning` on single-CPU machines.
//!
//! The watchdog, trace gate, and diag dir are process globals, so the tests
//! that touch them serialize on one mutex.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use tdb::obs;
use tdb::platform::{MemSecretStore, MemStore, VolatileCounter};
use tdb::{ChunkStore, ChunkStoreConfig, Durability, SecurityMode};

/// Serializes tests that mutate process-global observability state
/// (trace gate, watchdog threshold, diag dir, dump limiter).
fn global_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn mem_store(cfg: ChunkStoreConfig) -> ChunkStore {
    ChunkStore::create(
        Arc::new(MemStore::new()),
        &MemSecretStore::from_label("flight-recorder"),
        Arc::new(VolatileCounter::new()),
        cfg,
    )
    .unwrap()
}

fn u64_of(v: &obs::Json, key: &str) -> u64 {
    v.get(key).and_then(|j| j.as_u64()).unwrap_or(0)
}

fn str_of<'a>(v: &'a obs::Json, key: &str) -> &'a str {
    v.get(key).and_then(|j| j.as_str()).unwrap_or("")
}

/// All dumps currently in `dir`, parsed.
fn read_dumps(dir: &std::path::Path) -> Vec<obs::Json> {
    let mut out = Vec::new();
    if let Ok(rd) = std::fs::read_dir(dir) {
        let mut paths: Vec<_> = rd.flatten().map(|e| e.path()).collect();
        paths.sort();
        for p in paths {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("tdb-diag-") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&p).unwrap();
            out.push(obs::Json::parse(&text).expect("dump must be valid JSON"));
        }
    }
    out
}

/// Hold an in-flight commit op past the watchdog threshold while a store's
/// maintenance thread is polling: a dump must appear in `TDB_DIAG_DIR`
/// containing the stalled thread's timeline and the maintenance thread's
/// last event (the `watchdog.dump` it emits while collecting).
#[test]
fn injected_commit_stall_produces_diagnostic_dump() {
    let _g = global_lock();
    const STALLED_XID: u64 = 0xFEED_4242;

    let dir = tempfile::tempdir().unwrap();
    obs::trace::set_trace_enabled(true);
    obs::diag::set_diag_dir(Some(dir.path().to_path_buf()));
    obs::watchdog::set_threshold_ms(200);
    obs::watchdog::reset_dump_limiter();

    // Background maintenance on: its thread is the watchdog poller.
    let st = mem_store(ChunkStoreConfig {
        security: SecurityMode::Off,
        background_maintenance: true,
        ..ChunkStoreConfig::default()
    });

    // A little real traffic so the ring holds commit events too.
    for _ in 0..4 {
        let mut batch = st.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, &[0xAB; 256]).unwrap();
        st.commit_batch(batch, Durability::Durable).unwrap();
    }

    let my_tid = obs::trace::trace_tid() as u64;
    {
        // The injected stall: a commit op that stays in flight well past
        // the 200 ms threshold. The guard keeps it registered; the mark
        // gives this thread a recognizable last trace event.
        let _op = obs::watchdog::op_begin(obs::watchdog::OpKind::Commit, STALLED_XID);
        obs::trace::emit(
            obs::TraceLayer::App,
            obs::TraceKind::Mark,
            STALLED_XID,
            7,
            7,
        );

        // Wait (well past threshold + poll interval) for a dump that
        // records our injected op.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let found = read_dumps(dir.path()).into_iter().any(|d| {
                d.get("stalled_ops")
                    .and_then(|j| j.as_arr())
                    .unwrap_or(&[])
                    .iter()
                    .any(|op| u64_of(op, "xid") == STALLED_XID)
            });
            if found {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "watchdog never dumped the injected stall"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    let dump = read_dumps(dir.path())
        .into_iter()
        .find(|d| {
            d.get("stalled_ops")
                .and_then(|j| j.as_arr())
                .unwrap_or(&[])
                .iter()
                .any(|op| u64_of(op, "xid") == STALLED_XID)
        })
        .unwrap();

    // Document shape.
    assert_eq!(str_of(&dump, "schema"), obs::diag::DIAG_SCHEMA);
    assert!(str_of(&dump, "reason").contains("watchdog"), "{dump:?}");
    let stalled = dump.get("stalled_ops").and_then(|j| j.as_arr()).unwrap();
    let op = stalled
        .iter()
        .find(|op| u64_of(op, "xid") == STALLED_XID)
        .unwrap();
    assert_eq!(str_of(op, "kind"), "commit");
    assert_eq!(
        u64_of(op, "tid"),
        my_tid,
        "stall attributed to wrong thread"
    );
    let age_ms = op.get("age_ms").and_then(|j| j.as_f64()).unwrap_or(0.0);
    assert!(age_ms >= 200.0, "{op:?}");

    // Registered store state made it into the dump.
    let provs = dump.get("providers").and_then(|j| j.as_obj()).unwrap();
    assert!(
        provs.iter().any(
            |(_, state)| state.get("commit_seq").is_some() || state.get("store_lock").is_some()
        ),
        "no chunk-store provider state in dump"
    );

    // The trace section holds the stalled thread's timeline (our mark) and
    // the maintenance thread's last event (the watchdog.dump it emitted on
    // a different thread while collecting this very dump).
    let trace = dump.get("trace").expect("dump carries a trace section");
    let events = trace.get("events").and_then(|j| j.as_arr()).unwrap();
    let mine: Vec<_> = events
        .iter()
        .filter(|e| u64_of(e, "tid") == my_tid)
        .collect();
    assert!(
        mine.iter()
            .any(|e| str_of(e, "kind") == "mark" && u64_of(e, "xid") == STALLED_XID),
        "stalled thread's timeline missing from dump"
    );
    let wd: Vec<_> = events
        .iter()
        .filter(|e| str_of(e, "kind") == "watchdog.dump")
        .collect();
    assert!(
        !wd.is_empty(),
        "maintenance thread's watchdog.dump event missing"
    );
    assert!(
        wd.iter().all(|e| u64_of(e, "tid") != my_tid),
        "watchdog.dump must come from the maintenance thread, not the stalled one"
    );

    // Guard dropped above: the op must clear and the watchdog go quiet.
    assert!(obs::watchdog::stalled_ops(1)
        .iter()
        .all(|s| s.xid != STALLED_XID));

    st.close();
    obs::diag::set_diag_dir(None);
    obs::watchdog::set_threshold_ms(60_000);
    obs::trace::set_trace_enabled(false);
}

/// `Db::diagnostics` captures provider state on demand;
/// `diagnostics_to_dir` writes a dump that parses and carries the same
/// schema the watchdog uses (so `tdb-doctor` reads both).
#[test]
fn manual_diagnostics_capture_store_state() {
    let _g = global_lock();

    let dir = tempfile::tempdir().unwrap();
    obs::diag::set_diag_dir(Some(dir.path().to_path_buf()));

    let db = tdb::Db::open(
        tdb::Options::in_memory()
            .secret_label("diag-test")
            .security(SecurityMode::Off),
    )
    .unwrap();

    let dump = db.diagnostics("unit-test");
    assert_eq!(str_of(&dump, "schema"), obs::diag::DIAG_SCHEMA);
    assert_eq!(str_of(&dump, "reason"), "unit-test");
    let provs = dump.get("providers").and_then(|j| j.as_obj()).unwrap();
    assert!(!provs.is_empty(), "database registered no diag providers");
    let (_, state) = provs
        .iter()
        .find(|(_, s)| s.get("commit_seq").is_some())
        .expect("no provider reported store state");
    // The store is idle, so the try_locks inside the provider must have
    // succeeded and reported real sequence numbers.
    assert!(state.get("durable_seq").is_some());
    assert!(state.get("maintenance").is_some());

    let path = db.diagnostics_to_dir("unit-test").unwrap().unwrap();
    let reread = obs::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(str_of(&reread, "schema"), obs::diag::DIAG_SCHEMA);
    assert!(path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap()
        .contains("manual"));

    obs::diag::set_diag_dir(None);
}

/// Deleting a free segment's file is file-system work on the durable path
/// (the store lock is held), so a dump must show it: every drop emits a
/// `seg.drop` event naming the segment and the free count it left.
#[test]
fn segment_drops_appear_in_a_dump() {
    let _g = global_lock();
    obs::trace::set_trace_enabled(true);

    let st = mem_store(ChunkStoreConfig {
        security: SecurityMode::Off,
        ..ChunkStoreConfig::small_for_tests()
    });
    // ~43 KB of chunks over 4 KiB segments, then all of it deallocated:
    // the next passes free more segments than the reserve keeps.
    let mut batch = st.begin_batch();
    let ids: Vec<_> = (0..48)
        .map(|_| batch.allocate_chunk_id().unwrap())
        .collect();
    st.commit_batch(batch, Durability::Durable).unwrap();
    for id in &ids {
        let mut batch = st.begin_batch();
        batch.write(*id, &[0xCD; 900]).unwrap();
        st.commit_batch(batch, Durability::Durable).unwrap();
    }
    let mut batch = st.begin_batch();
    ids.iter().for_each(|id| batch.deallocate(*id).unwrap());
    st.commit_batch(batch, Durability::Durable).unwrap();
    // Churn until maintenance drops a free segment beyond the reserve,
    // then dump at once, while the event is still in the ring.
    let mut batch = st.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    st.commit_batch(batch, Durability::Durable).unwrap();
    let mut round = 0usize;
    while st.obs_snapshot().counter("chunk.segments_dropped") == 0 {
        assert!(round < 1_000, "churn never dropped a segment");
        let mut batch = st.begin_batch();
        batch.write(id, &[round as u8; 600]).unwrap();
        st.commit_batch(batch, Durability::Durable).unwrap();
        round += 1;
    }
    let dump = obs::diag::collect("segment-drop");
    obs::trace::set_trace_enabled(false);

    let events = dump
        .get("trace")
        .and_then(|t| t.get("events"))
        .and_then(|j| j.as_arr())
        .unwrap();
    let drops: Vec<_> = events
        .iter()
        .filter(|e| str_of(e, "kind") == "seg.drop")
        .collect();
    assert!(!drops.is_empty(), "no seg.drop event in the dump");
    assert!(
        drops.iter().all(|e| str_of(e, "layer") == "maint"),
        "{drops:?}"
    );
}

/// A dump appears under its final `tdb-diag-*.json` name only once it is
/// complete: a reader polling the directory while dumps are written never
/// sees a file that fails to parse (the cause of the old flake in
/// `injected_commit_stall_produces_diagnostic_dump`, which polls the same
/// way).
#[test]
fn polling_readers_only_ever_see_complete_dumps() {
    let _g = global_lock();
    let dir = tempfile::tempdir().unwrap();
    obs::diag::set_diag_dir(Some(dir.path().to_path_buf()));
    // Large enough that writing one takes many syscalls.
    let dump = obs::Json::array((0..20_000u64).map(obs::Json::from));
    let stop = std::sync::atomic::AtomicBool::new(false);
    let seen = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            // `read_dumps` parses every `tdb-diag-*.json` it lists.
            let mut seen = 0;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                for d in read_dumps(dir.path()) {
                    assert_eq!(d.as_arr().map(<[obs::Json]>::len), Some(20_000));
                    seen += 1;
                }
            }
            seen
        });
        for _ in 0..16 {
            obs::diag::write_dump(&dump, "torn-read").unwrap().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        reader.join().unwrap()
    });
    assert!(seen > 0, "the reader never saw a dump");
    let names: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names.len(),
        16,
        "no temporary file is left behind: {names:?}"
    );
    assert!(names.iter().all(|n| n.starts_with("tdb-diag-")));
    obs::diag::set_diag_dir(None);
}

/// Regression for the lost stall wakeup: committers on a fixed-size log
/// (growth disabled) that constantly overrun the free watermarks must make
/// progress round after round. Before the epoch-based stall protocol, a
/// committer could check the free count, miss the cleaner's notification
/// in the gap, and sleep through every segment free — serializing the
/// whole test behind multi-second condvar timeouts on single-CPU machines
/// (and, at worst, giving up with a spurious out-of-space).
#[test]
fn stall_storm_forced_cleaning_makes_progress() {
    const THREADS: usize = 3;
    const IDS_PER_THREAD: usize = 3;
    const COMMITS: usize = 30;
    const ROUNDS: usize = 3;

    for round in 0..ROUNDS {
        let st = mem_store(ChunkStoreConfig {
            security: SecurityMode::Off,
            segment_size: 8 * 1024,
            map_fanout: 8,
            checkpoint_threshold: 16 * 1024,
            cleaner_batch: 4,
            initial_segments: 16,
            allow_growth: false,
            background_maintenance: true,
            clean_low_free: 2,
            clean_high_free: 4,
            maintenance_slice_chunks: 4,
            ..ChunkStoreConfig::default()
        });

        let mut batch = st.begin_batch();
        let ids: Vec<_> = (0..THREADS * IDS_PER_THREAD)
            .map(|_| batch.allocate_chunk_id().unwrap())
            .collect();
        for &id in &ids {
            batch.write(id, &[0u8; 64]).unwrap();
        }
        st.commit_batch(batch, Durability::Durable).unwrap();

        std::thread::scope(|s| {
            for t in 0..THREADS {
                let st = &st;
                let mine = &ids[t * IDS_PER_THREAD..(t + 1) * IDS_PER_THREAD];
                s.spawn(move || {
                    let payload = vec![t as u8; 700];
                    for i in 0..COMMITS {
                        // Overwrite all of this thread's chunks in one
                        // durable batch; retry on transient out-of-space
                        // (the stall path gave up), rebuilding the batch.
                        let mut attempts = 0;
                        loop {
                            let mut b = st.begin_batch();
                            let staged = mine.iter().try_for_each(|&id| b.write(id, &payload));
                            let r = staged.and_then(|()| st.commit_batch(b, Durability::Durable));
                            match r {
                                Ok(()) => break,
                                Err(e) if e.kind() == tdb::ErrorKind::OutOfSpace => {
                                    attempts += 1;
                                    assert!(
                                        attempts < 300,
                                        "thread {t} commit {i} stuck after {attempts} retries: {e}"
                                    );
                                    std::thread::sleep(Duration::from_millis(2));
                                }
                                Err(e) => panic!("thread {t} commit {i}: {e}"),
                            }
                        }
                    }
                });
            }
        });

        let stats = st.obs_snapshot();
        assert!(
            stats.counter("chunk.cleaner_passes") > 0,
            "round {round}: log never cleaned — storm config too loose \
             (stalls {})",
            stats.counter("chunk.maintenance_stalls"),
        );
        // Every chunk readable with its final contents.
        for (k, &id) in ids.iter().enumerate() {
            let data = st.read(id).unwrap();
            assert_eq!(data.len(), 700, "round {round}: chunk {k} lost");
            assert_eq!(data[0], (k / IDS_PER_THREAD) as u8);
        }
        st.close();
    }
}
