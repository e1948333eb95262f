//! The segment reuse contract: the cleaner frees a segment by zeroing its
//! header, never by truncating the file, and the tail later reuses the
//! file in place, writing over the stale records of its previous life.
//! Recovery must end its scan at those stale records exactly as it ends at
//! crash garbage. Crashes are injected at write boundaries found by a
//! traced dry run of the same churn, so every test is deterministic.

use chunk_store::layout::{SEGMENT_HEADER_LEN, SEGMENT_MAGIC};
use chunk_store::{ChunkId, ChunkStore, ChunkStoreConfig, Durability};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tdb_platform::{
    CrashSchedule, FaultEvent, FaultPlan, FaultStore, MemSecretStore, MemStore, RandomAccessFile,
    UntrustedStore, VolatileCounter, WriteEvent,
};

fn cfg() -> ChunkStoreConfig {
    ChunkStoreConfig::small_for_tests()
}

fn secret() -> MemSecretStore {
    MemSecretStore::from_label("segment-reuse")
}

fn create(untrusted: Arc<dyn UntrustedStore>, counter: &VolatileCounter) -> ChunkStore {
    ChunkStore::create(untrusted, &secret(), Arc::new(counter.clone()), cfg()).unwrap()
}

fn open(untrusted: Arc<dyn UntrustedStore>, counter: &VolatileCounter) -> ChunkStore {
    ChunkStore::open(untrusted, &secret(), Arc::new(counter.clone()), cfg()).unwrap()
}

fn value(id: ChunkId, round: usize) -> Vec<u8> {
    let mut v = format!("chunk {} round {round} ", id.0).into_bytes();
    v.resize(500 + (round * 37 + id.0 as usize * 11) % 200, b'.');
    v
}

/// What a churn left behind: every acknowledged write, plus the write of
/// the commit that failed (if one did), which may or may not have landed.
#[derive(Default)]
struct Model {
    acked: BTreeMap<ChunkId, Vec<u8>>,
    in_doubt: Option<(ChunkId, Vec<u8>)>,
}

/// Eight chunks rewritten one per durable commit, round after round: ~600 B
/// per commit through 4 KiB segments, with ~5 KB live, so the committer's
/// maintenance frees and reuses segments all the time. Stops at the first
/// failed commit (the simulated crash).
fn churn(store: &ChunkStore, rounds: usize) -> Model {
    let mut model = Model::default();
    let mut batch = store.begin_batch();
    let ids: Vec<ChunkId> = (0..8).map(|_| batch.allocate_chunk_id().unwrap()).collect();
    for id in &ids {
        batch.write(*id, &value(*id, 0)).unwrap();
    }
    if store.commit_batch(batch, Durability::Durable).is_err() {
        return model;
    }
    for id in &ids {
        model.acked.insert(*id, value(*id, 0));
    }
    for round in 1..=rounds {
        let id = ids[round % ids.len()];
        let mut batch = store.begin_batch();
        batch.write(id, &value(id, round)).unwrap();
        match store.commit_batch(batch, Durability::Durable) {
            Ok(_) => {
                model.acked.insert(id, value(id, round));
            }
            Err(_) => {
                model.in_doubt = Some((id, value(id, round)));
                return model;
            }
        }
    }
    model
}

/// Counts what the store asks of the file system: `set_len` calls on
/// segment files (the anchor slots resize theirs on every write, which is
/// not this contract), `remove` calls, and segment files the tail
/// re-entered after the cleaner zeroed their header.
#[derive(Clone, Default)]
struct Counts {
    set_len: Arc<AtomicU64>,
    removes: Arc<AtomicU64>,
    reused: Arc<AtomicU64>,
    zeroed: Arc<Mutex<HashSet<String>>>,
}

struct CountingStore {
    inner: MemStore,
    counts: Counts,
}

struct CountingFile {
    name: String,
    inner: Box<dyn RandomAccessFile>,
    counts: Counts,
}

impl RandomAccessFile for CountingFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> tdb_platform::Result<()> {
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> tdb_platform::Result<()> {
        let header = SEGMENT_HEADER_LEN as usize;
        if offset == 0 && self.name.starts_with("seg.") && data.len() >= header {
            let mut zeroed = self.counts.zeroed.lock().unwrap();
            if data[..header].iter().all(|b| *b == 0) {
                zeroed.insert(self.name.clone());
            } else if data.starts_with(&SEGMENT_MAGIC) && zeroed.remove(&self.name) {
                self.counts.reused.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inner.write_at(offset, data)
    }

    fn len(&self) -> tdb_platform::Result<u64> {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> tdb_platform::Result<()> {
        if self.name.starts_with("seg.") {
            self.counts.set_len.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.set_len(len)
    }

    fn sync(&self) -> tdb_platform::Result<()> {
        self.inner.sync()
    }
}

impl UntrustedStore for CountingStore {
    fn open(&self, name: &str, create: bool) -> tdb_platform::Result<Box<dyn RandomAccessFile>> {
        Ok(Box::new(CountingFile {
            name: name.to_string(),
            inner: self.inner.open(name, create)?,
            counts: self.counts.clone(),
        }))
    }

    fn exists(&self, name: &str) -> tdb_platform::Result<bool> {
        self.inner.exists(name)
    }

    fn remove(&self, name: &str) -> tdb_platform::Result<()> {
        self.counts.removes.fetch_add(1, Ordering::Relaxed);
        self.counts.zeroed.lock().unwrap().remove(name);
        self.inner.remove(name)
    }

    fn list(&self) -> tdb_platform::Result<Vec<String>> {
        self.inner.list()
    }
}

/// Freeing never truncates: across a churn that frees and reuses many
/// segments the store makes no `set_len` call, and the only files it
/// deletes are the free segments it drops beyond the reserve.
#[test]
fn freeing_reuses_segments_without_truncating() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let counts = Counts::default();
    let store = create(
        Arc::new(CountingStore {
            inner: mem.clone(),
            counts: counts.clone(),
        }),
        &counter,
    );
    let model = churn(&store, 400);
    assert!(model.in_doubt.is_none());
    // A burst of ~43 KB, then all of it deallocated: the passes that
    // follow free more segments than the reserve keeps, so some drop.
    let mut batch = store.begin_batch();
    let burst: Vec<ChunkId> = (0..48)
        .map(|_| batch.allocate_chunk_id().unwrap())
        .collect();
    store.commit_batch(batch, Durability::Durable).unwrap();
    for id in &burst {
        let mut batch = store.begin_batch();
        batch.write(*id, &value(*id, 1)).unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
    }
    let mut batch = store.begin_batch();
    burst.iter().for_each(|id| batch.deallocate(*id).unwrap());
    store.commit_batch(batch, Durability::Durable).unwrap();
    let model2 = churn(&store, 100);
    assert!(model2.in_doubt.is_none());

    let stats = store.stats();
    let reused = counts.reused.load(Ordering::Relaxed);
    assert!(stats.cleaner_segments_freed >= 8, "{stats:?}");
    assert!(stats.segments_dropped > 0, "{stats:?}");
    assert!(reused >= 8, "only {reused} segments reused in place");
    assert_eq!(counts.set_len.load(Ordering::Relaxed), 0);
    assert_eq!(
        counts.removes.load(Ordering::Relaxed),
        stats.segments_dropped
    );
    drop(store);

    let store = open(Arc::new(mem), &counter);
    for (id, bytes) in model.acked.iter().chain(&model2.acked) {
        assert_eq!(&store.read(*id).unwrap(), bytes);
    }
}

/// A traced write that makes a freed segment the tail again: the header
/// lands at offset 0 over a zeroed one, and the file already holds stale
/// records beyond what the write covers.
fn enters_reused_segment(w: &WriteEvent) -> bool {
    let header = SEGMENT_HEADER_LEN as usize;
    w.file.starts_with("seg.")
        && w.offset == 0
        && w.pre_image.len() >= header
        && w.pre_image[..header].iter().all(|b| *b == 0)
        && w.old_len > w.len
}

/// Crash as a reused segment becomes the tail — in the write that enters
/// it (nothing, half or all of it landing) and in the write after — then
/// reopen: every acknowledged commit survives, the failed one is either
/// there or not, and recovery counts at most that one commit as a
/// nondurable leftover, never the stale commit records past the tail.
#[test]
fn crash_entering_a_reused_segment_recovers_the_durable_frontier() {
    const ROUNDS: usize = 400;
    let plan = FaultPlan::unlimited();
    plan.set_tracing(true);
    let counter = VolatileCounter::new();
    let store = create(
        Arc::new(FaultStore::new(MemStore::new(), plan.clone())),
        &counter,
    );
    churn(&store, ROUNDS);
    drop(store);
    let writes: Vec<WriteEvent> = plan
        .take_trace()
        .into_iter()
        .filter_map(|e| match e {
            FaultEvent::Write(w) => Some(w),
            _ => None,
        })
        .collect();
    let entering: Vec<u64> = (0..writes.len())
        .filter(|i| enters_reused_segment(&writes[*i]))
        .map(|i| i as u64)
        .collect();
    assert!(entering.len() >= 8, "churn reused only {entering:?}");

    let mut crashes = 0;
    for &at in entering.iter().take(4) {
        for (index, cut_num, cut_den) in [(at, 0, 1), (at, 1, 2), (at, 1, 1), (at + 1, 1, 2)] {
            let what = format!("crash in write {index} ({cut_num}/{cut_den} landed)");
            let mem = MemStore::new();
            let counter = VolatileCounter::new();
            let plan = FaultPlan::with_schedule(CrashSchedule::OnWrite {
                index,
                cut_num,
                cut_den,
            });
            let store = create(
                Arc::new(FaultStore::new(mem.clone(), plan.clone())),
                &counter,
            );
            let model = churn(&store, ROUNDS);
            drop(store);
            assert!(plan.has_crashed(), "{what}: the schedule never fired");
            crashes += 1;

            let store = open(Arc::new(mem.clone()), &counter);
            let report = store.recovery_reports()[0].clone().unwrap();
            assert!(
                report.nondurable_discarded <= 1,
                "{what}: {} nondurable leftovers",
                report.nondurable_discarded
            );
            for (id, bytes) in &model.acked {
                let got = store.read(*id).unwrap();
                match &model.in_doubt {
                    Some((d, new)) if d == id => {
                        assert!(got == *bytes || got == *new, "{what}: chunk {id:?}")
                    }
                    _ => assert_eq!(&got, bytes, "{what}: chunk {id:?}"),
                }
            }
            // The log continues over the stale records and reopens again.
            let after = churn(&store, 40);
            assert!(after.in_doubt.is_none(), "{what}: commits after reopen");
            drop(store);
            let store = open(Arc::new(mem), &counter);
            for (id, bytes) in &after.acked {
                assert_eq!(&store.read(*id).unwrap(), bytes, "{what}: second reopen");
            }
        }
    }
    assert_eq!(crashes, 16);
}
