//! The cross-shard witness contract at two shards: a participant's
//! witness rides in its own data append, sealed last, and recovery redoes
//! exactly the registered transactions a participant does not witness.
//! Crashes are injected at write boundaries found by a traced dry run of
//! the same commit, so every test is deterministic.

use chunk_store::{ChunkId, ChunkStore, ChunkStoreConfig, Durability, WriteBatch};
use std::sync::Arc;
use tdb_platform::{
    CrashSchedule, FaultEvent, FaultPlan, FaultStore, MemSecretStore, MemStore, VolatileCounter,
};

fn cfg() -> ChunkStoreConfig {
    ChunkStoreConfig {
        shards: 2,
        ..ChunkStoreConfig::small_for_tests()
    }
}

fn secret() -> MemSecretStore {
    MemSecretStore::from_label("witness")
}

fn value(id: ChunkId, tag: &str) -> Vec<u8> {
    let mut v = format!("{tag}-{}-", id.0).into_bytes();
    v.resize(120, b'.');
    v
}

/// A two-shard store over `mem` behind `plan`, holding `ids`: one chunk on
/// shard 0 and `participant` chunks on shard 1, all written "before".
struct Rig {
    mem: MemStore,
    counter: VolatileCounter,
    plan: FaultPlan,
    store: ChunkStore,
    ids: Vec<ChunkId>,
}

impl Rig {
    fn new(participant: usize) -> Rig {
        let (mem, counter, plan) = (
            MemStore::new(),
            VolatileCounter::new(),
            FaultPlan::unlimited(),
        );
        let store = ChunkStore::create(
            Arc::new(FaultStore::new(mem.clone(), plan.clone())),
            &secret(),
            Arc::new(counter.clone()),
            cfg(),
        )
        .unwrap();
        let mut b = store.begin_batch();
        // Fresh ids alternate shards: even ids on shard 0, odd on shard 1.
        let all: Vec<ChunkId> = (0..2 * participant)
            .map(|_| b.allocate_chunk_id().unwrap())
            .collect();
        let ids: Vec<ChunkId> = std::iter::once(all[0])
            .chain(all.iter().copied().filter(|id| id.0 % 2 == 1))
            .collect();
        for id in &all {
            b.write(*id, &value(*id, "before")).unwrap();
        }
        store.commit_batch(b, Durability::Durable).unwrap();
        Rig {
            mem,
            counter,
            plan,
            store,
            ids,
        }
    }

    /// Every chunk of the rig rewritten `tag`: one batch across both shards.
    fn batch(&self, tag: &str) -> WriteBatch {
        let mut b = self.store.begin_batch();
        for id in &self.ids {
            b.write(*id, &value(*id, tag)).unwrap();
        }
        b
    }

    /// Transaction X: every chunk rewritten "after".
    fn commit_x(&self) -> chunk_store::Result<()> {
        self.store
            .commit_batch(self.batch("after"), Durability::Durable)
    }

    /// Drop the store as a crash would, and reopen the bytes that reached
    /// the device.
    fn reopen(self) -> (ChunkStore, Vec<ChunkId>) {
        drop(self.store);
        let store = ChunkStore::open(
            Arc::new(self.mem.clone()),
            &secret(),
            Arc::new(self.counter.clone()),
            cfg(),
        )
        .unwrap();
        (store, self.ids)
    }
}

fn redos(store: &ChunkStore) -> u64 {
    store.obs_snapshot().counters["xshard.redos"]
}

fn assert_all(store: &ChunkStore, ids: &[ChunkId], tag: &str) {
    for id in ids {
        assert_eq!(store.read(*id).unwrap(), value(*id, tag), "chunk {id:?}");
    }
}

/// The write boundaries of X, from a traced dry run on a fresh rig: for
/// every write, the file it went to.
fn traced_writes(participant: usize) -> Vec<String> {
    let rig = Rig::new(participant);
    rig.plan.set_tracing(true);
    rig.commit_x().unwrap();
    rig.plan
        .take_trace()
        .into_iter()
        .filter_map(|e| match e {
            FaultEvent::Write(w) => Some(w.file),
            _ => None,
        })
        .collect()
}

/// Run X on a fresh rig with the device dying at X's `index`-th write (no
/// byte of it lands); X must fail and the reopened store must hold X on
/// every shard.
fn crash_x_at_write(participant: usize, index: usize) -> ChunkStore {
    let rig = Rig::new(participant);
    rig.plan.rearm_with(CrashSchedule::OnWrite {
        index: index as u64,
        cut_num: 0,
        cut_den: 1,
    });
    assert!(rig.commit_x().is_err(), "the crash must fail X's commit");
    let (store, ids) = rig.reopen();
    assert_all(&store, &ids, "after");
    store
}

/// (a) A witness keeps every transaction the directory still registers,
/// so redo never re-applies an old post-image: X writes `a` on shard 1 and
/// stays in flight while X2 commits across the same shards (so X2's
/// witness must keep X), a later one-shard commit overwrites `a`, and the
/// store is dropped while both are still in the directory (pruning waits
/// for the next cross commit).
#[test]
fn a_later_commit_survives_reopen_while_x_is_still_registered() {
    let rig = Rig::new(1);
    let x = rig
        .store
        .append_batch(rig.batch("after"), Durability::Durable)
        .unwrap();
    rig.store
        .commit_batch(rig.batch("again"), Durability::Durable)
        .unwrap();
    rig.store.wait_durable(x).unwrap();
    let a = rig.ids[1];
    let mut b = rig.store.begin_batch();
    b.write(a, &value(a, "later")).unwrap();
    rig.store.commit_batch(b, Durability::Durable).unwrap();
    let (store, ids) = rig.reopen();
    assert_eq!(store.read(a).unwrap(), value(a, "later"));
    assert_eq!(store.read(ids[0]).unwrap(), value(ids[0], "again"));
    assert_eq!(redos(&store), 0, "X and X2 are witnessed: nothing to redo");
}

/// (b) A crash after phase A is durable and before any byte of the
/// participant's append reaches shard 1: redo applies X there on reopen.
#[test]
fn a_crash_between_phase_a_and_the_participant_append_is_redone() {
    let writes = traced_writes(1);
    let first_participant_write = writes
        .iter()
        .position(|f| f.starts_with("shard1--"))
        .expect("X writes to shard 1");
    let store = crash_x_at_write(1, first_participant_write);
    assert_eq!(redos(&store), 1);
}

/// (c) A participant batch of more record groups than one commit record
/// holds fails after its first group committed, and a later anchor makes
/// that group durable on its own. The witness, sealed last, is not in it,
/// so redo completes X; a witness in the first group would leave the rest
/// of X's data on shard 1 lost for good.
#[test]
fn a_participant_append_cut_after_its_first_record_group_is_redone() {
    // 60 participant chunks: more than the 39 ops one commit record of
    // the 4 KiB test segments holds.
    let writes = traced_writes(60);
    let anchor = writes
        .iter()
        .position(|f| f.starts_with("shard1--") && !f.starts_with("shard1--seg."))
        .expect("X anchors shard 1");
    let segment_writes: Vec<usize> = (0..anchor)
        .filter(|&i| writes[i].starts_with("shard1--seg."))
        .collect();
    assert!(
        segment_writes.len() >= 3,
        "the participant append must roll segments: {writes:?}"
    );
    // The last segment write before shard 1's anchor is the durable
    // wait's tail flush; the one before it rolls a segment inside the
    // append's second record group.
    let rig = Rig::new(60);
    rig.plan.rearm_with(CrashSchedule::OnWrite {
        index: segment_writes[segment_writes.len() - 2] as u64,
        cut_num: 0,
        cut_den: 1,
    });
    assert!(rig.commit_x().is_err(), "the fault must fail X's commit");
    // The device comes back: the first record group is committed, the last
    // is not, and a checkpoint anchors what committed.
    rig.plan.rearm_with(CrashSchedule::Never);
    let (first, last) = (rig.ids[1], *rig.ids.last().unwrap());
    assert_eq!(rig.store.read(first).unwrap(), value(first, "after"));
    assert_eq!(rig.store.read(last).unwrap(), value(last, "before"));
    rig.store.checkpoint().unwrap();
    let (store, ids) = rig.reopen();
    assert_all(&store, &ids, "after");
    assert_eq!(redos(&store), 1);
}
