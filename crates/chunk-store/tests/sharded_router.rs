//! Tests of the chunk store's shard routing: stable routing across reopen,
//! one seeded sequence of batches giving the same reads at 1, 2 and 4
//! shards (with the single-log file layout at 1), and rejection of
//! shard-count changes on an existing database.

use chunk_store::{ChunkId, ChunkStore, ChunkStoreConfig, ChunkStoreError, Durability, Snapshot};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use tdb_core::ErrorKind;
use tdb_platform::{MemSecretStore, MemStore, UntrustedStore, VolatileCounter};

#[derive(Debug, Clone)]
enum Op {
    /// Allocate a chunk and commit `len` bytes of deterministic content.
    Insert { len: usize },
    /// Overwrite the i-th live chunk (mod live count).
    Update { pick: usize, len: usize },
    /// Deallocate the i-th live chunk.
    Remove { pick: usize },
    /// Close and reopen (recovery; durable state must round-trip).
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (1usize..200).prop_map(|len| Op::Insert { len }),
        4 => (any::<usize>(), 1usize..200).prop_map(|(pick, len)| Op::Update { pick, len }),
        2 => any::<usize>().prop_map(|pick| Op::Remove { pick }),
        1 => Just(Op::Reopen),
    ]
}

fn content(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seed as u8).wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

fn cfg(shards: usize) -> ChunkStoreConfig {
    let mut cfg = ChunkStoreConfig::small_for_tests();
    cfg.shards = shards;
    cfg
}

fn pick_id(model: &HashMap<u64, Vec<u8>>, pick: usize) -> Option<ChunkId> {
    if model.is_empty() {
        return None;
    }
    let mut ids: Vec<u64> = model.keys().copied().collect();
    ids.sort_unstable();
    Some(ChunkId(ids[pick % ids.len()]))
}

/// Apply one op as its own durable batch commit.
fn apply(store: &ChunkStore, model: &mut HashMap<u64, Vec<u8>>, op: &Op, seed: u64) {
    let mut batch = store.begin_batch();
    match op {
        Op::Insert { len } => {
            let id = batch.allocate_chunk_id().unwrap();
            let data = content(seed, *len);
            batch.write(id, &data).unwrap();
            model.insert(id.0, data);
        }
        Op::Update { pick, len } => {
            let Some(id) = pick_id(model, *pick) else {
                batch.discard();
                return;
            };
            let data = content(seed ^ 0xA5, *len);
            batch.write(id, &data).unwrap();
            model.insert(id.0, data);
        }
        Op::Remove { pick } => {
            let Some(id) = pick_id(model, *pick) else {
                batch.discard();
                return;
            };
            batch.deallocate(id).unwrap();
            model.remove(&id.0);
        }
        Op::Reopen => unreachable!("handled by the caller"),
    }
    let ticket = store.append_batch(batch, Durability::Durable).unwrap();
    store.wait_durable(ticket).unwrap();
}

fn check(store: &ChunkStore, model: &HashMap<u64, Vec<u8>>, reserved: u64, ctx: &str) {
    for (id, data) in model {
        let got = store
            .read(ChunkId(*id))
            .unwrap_or_else(|e| panic!("{ctx}: chunk {id} unreadable: {e}"));
        assert_eq!(&got, data, "{ctx}: chunk {id} content mismatch");
    }
    assert_eq!(
        store.live_chunks(),
        model.len() as u64 + reserved,
        "{ctx}: live chunk count"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random ops against a 3-shard store: every committed chunk must read
    /// back across arbitrarily many reopens, i.e. the global-id routing
    /// must be a pure function of id and shard count, never of history.
    #[test]
    fn routing_is_stable_under_reopen(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let mem = MemStore::new();
        let counter = VolatileCounter::new();
        let secret = MemSecretStore::from_label("router-reopen");
        let mut store = ChunkStore::create(
            Arc::new(mem.clone()),
            &secret,
            Arc::new(counter.clone()),
            cfg(3),
        )
        .unwrap();
        // 3 shards reserve one local chunk each (coordination directory +
        // witness rings).
        let reserved = 3;
        let mut model = HashMap::new();
        for (step, op) in ops.iter().enumerate() {
            let ctx = format!("step {step} ({op:?})");
            if matches!(op, Op::Reopen) {
                store.close();
                drop(store);
                store = ChunkStore::open(
                    Arc::new(mem.clone()),
                    &secret,
                    Arc::new(counter.clone()),
                    cfg(3),
                )
                .unwrap();
            } else {
                apply(&store, &mut model, op, step as u64);
            }
            check(&store, &model, reserved, &ctx);
        }
        store.close();
        drop(store);
        let store = ChunkStore::open(Arc::new(mem), &secret, Arc::new(counter), cfg(3))
            .unwrap();
        check(&store, &model, reserved, "final reopen");
    }
}

/// Changing the shard count of an existing database must be rejected as a
/// usage error at open, for every direction of the change.
#[test]
fn shard_count_changes_are_rejected_at_open() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let secret = MemSecretStore::from_label("router-mismatch");
    let store = ChunkStore::create(
        Arc::new(mem.clone()),
        &secret,
        Arc::new(counter.clone()),
        cfg(2),
    )
    .unwrap();
    store.close();
    drop(store);
    for wrong in [1usize, 3, 4] {
        let err = match ChunkStore::open(
            Arc::new(mem.clone()),
            &secret,
            Arc::new(counter.clone()),
            cfg(wrong),
        ) {
            Ok(_) => panic!("open with a different shard count must fail"),
            Err(e) => e,
        };
        assert!(
            matches!(err, ChunkStoreError::ConfigMismatch(_)),
            "open with {wrong} shards surfaced {err:?}"
        );
        assert_eq!(err.kind(), ErrorKind::Usage);
    }
    // The right count still opens.
    ChunkStore::open(Arc::new(mem), &secret, Arc::new(counter), cfg(2)).unwrap();
}

/// An unsharded database reopened with `shards > 1` (and vice versa) is a
/// configuration error, not data loss or a fresh create.
#[test]
fn sharding_an_existing_unsharded_database_is_rejected() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let secret = MemSecretStore::from_label("router-upgrade");
    let store = ChunkStore::create(
        Arc::new(mem.clone()),
        &secret,
        Arc::new(counter.clone()),
        cfg(1),
    )
    .unwrap();
    store.close();
    drop(store);
    let err = match ChunkStore::open(
        Arc::new(mem.clone()),
        &secret,
        Arc::new(counter.clone()),
        cfg(2),
    ) {
        Ok(_) => panic!("sharding an unsharded database must fail"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), ErrorKind::Usage, "surfaced {err:?}");
    // And creating over it is equally rejected.
    let err = match ChunkStore::create(Arc::new(mem), &secret, Arc::new(counter), cfg(2)) {
        Ok(_) => panic!("creating over an existing database must fail"),
        Err(e) => e,
    };
    assert!(!matches!(err.kind(), ErrorKind::Tamper | ErrorKind::Replay));
}

// ---------------------------------------------------------------------------
// Differential test of the degenerate case
// ---------------------------------------------------------------------------

/// xorshift64: the seeded step generator shared by every replica.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One step of the sequence, in logical keys (each store maps keys to its
/// own chunk ids: after frees, allocation order differs between shard
/// counts).
enum Step {
    Batch {
        removes: Vec<u64>,
        writes: Vec<(u64, Vec<u8>)>,
        inserts: Vec<(u64, Vec<u8>)>,
        durable: bool,
    },
    Snapshot,
    ReleaseSnapshot,
    Checkpoint,
    Clean,
    Reopen,
}

/// One store of the differential run and its key → id map.
struct Replica {
    mem: MemStore,
    counter: VolatileCounter,
    shards: usize,
    store: ChunkStore,
    ids: HashMap<u64, ChunkId>,
    /// Live snapshots with the key → id map they were taken under.
    snaps: Vec<(Snapshot, HashMap<u64, ChunkId>)>,
}

impl Replica {
    fn new(shards: usize) -> Replica {
        let (mem, counter) = (MemStore::new(), VolatileCounter::new());
        let store = ChunkStore::create(
            Arc::new(mem.clone()),
            &MemSecretStore::from_label("differential"),
            Arc::new(counter.clone()),
            cfg(shards),
        )
        .unwrap();
        Replica {
            mem,
            counter,
            shards,
            store,
            ids: HashMap::new(),
            snaps: Vec::new(),
        }
    }

    fn step(&mut self, step: &Step) {
        match step {
            Step::Batch {
                removes,
                writes,
                inserts,
                durable,
            } => {
                let mut b = self.store.begin_batch();
                for k in removes {
                    b.deallocate(self.ids.remove(k).unwrap()).unwrap();
                }
                for (k, bytes) in writes {
                    b.write(self.ids[k], bytes).unwrap();
                }
                for (k, bytes) in inserts {
                    let id = b.allocate_chunk_id().unwrap();
                    b.write(id, bytes).unwrap();
                    assert_eq!(&b.read(id).unwrap(), bytes, "read-your-writes");
                    self.ids.insert(*k, id);
                }
                let durability = if *durable {
                    Durability::Durable
                } else {
                    Durability::Lazy
                };
                self.store.commit_batch(b, durability).unwrap();
            }
            Step::Snapshot => {
                let snap = self.store.snapshot();
                if let Some((prev, prev_ids)) = self.snaps.last() {
                    let diff = self.store.diff_snapshots(prev, &snap);
                    let live: Vec<ChunkId> = self.ids.values().copied().collect();
                    // Freed ids may be handed out again: only ids no key
                    // holds any more are removals.
                    let mut gone: Vec<ChunkId> = prev_ids
                        .values()
                        .filter(|id| !live.contains(id))
                        .copied()
                        .collect();
                    let mut removed = diff.removed.clone();
                    removed.sort();
                    gone.sort();
                    assert_eq!(removed, gone, "N={}: diff removals", self.shards);
                    for (k, id) in &self.ids {
                        assert!(
                            prev_ids.contains_key(k) || diff.changed.iter().any(|(c, _)| c == id),
                            "N={}: diff misses new key {k}",
                            self.shards
                        );
                    }
                    assert!(diff.changed.iter().all(|(c, _)| live.contains(c)));
                }
                self.snaps.push((snap, self.ids.clone()));
            }
            Step::ReleaseSnapshot => {
                self.snaps.remove(0);
            }
            Step::Checkpoint => self.store.checkpoint().unwrap(),
            Step::Clean => {
                self.store.clean().unwrap();
            }
            Step::Reopen => {
                // A durable barrier first: lazy commits are only promised
                // to survive once a later durable commit covers them.
                self.store
                    .commit_batch(self.store.begin_batch(), Durability::Durable)
                    .unwrap();
                self.snaps.clear();
                self.store.close();
                self.store = ChunkStore::open(
                    Arc::new(self.mem.clone()),
                    &MemSecretStore::from_label("differential"),
                    Arc::new(self.counter.clone()),
                    cfg(self.shards),
                )
                .unwrap();
            }
        }
    }

    /// Every read and snapshot read of this replica, by logical key.
    fn observe(&self, snap_models: &[BTreeMap<u64, Vec<u8>>]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut keys: Vec<&u64> = self.ids.keys().collect();
        keys.sort();
        for k in keys {
            out.push(self.store.read(self.ids[k]).unwrap());
        }
        for ((snap, ids), model) in self.snaps.iter().zip(snap_models) {
            let mut expect: Vec<ChunkId> = ids.values().copied().collect();
            let mut listed = snap.chunk_ids();
            expect.sort();
            listed.sort();
            assert_eq!(listed, expect, "N={}: snapshot ids", self.shards);
            for k in model.keys() {
                out.push(self.store.read_at_snapshot(snap, ids[k]).unwrap());
            }
        }
        out
    }
}

/// One seeded sequence of batches — allocate, write, deallocate, lazy and
/// durable commits, snapshots, checkpoint/clean and reopens — at 1, 2 and
/// 4 shards: every read and every snapshot read agrees across shard counts
/// and with the model. At one shard the store also keeps the single-log
/// layout: no root-of-roots, no shard prefix, fresh ids from 0.
#[test]
fn one_sequence_reads_the_same_at_every_shard_count() {
    for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
        let mut rng = Rng(seed);
        let mut replicas: Vec<Replica> = [1, 2, 4].into_iter().map(Replica::new).collect();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut snap_models: Vec<BTreeMap<u64, Vec<u8>>> = Vec::new();
        let mut next_key = 0u64;
        for i in 0..80 {
            let step = match rng.below(12) {
                0 => Step::Snapshot,
                1 if !snap_models.is_empty() => Step::ReleaseSnapshot,
                2 => Step::Checkpoint,
                3 => Step::Clean,
                4 if i % 3 == 0 => Step::Reopen,
                _ => {
                    let keys: Vec<u64> = model.keys().copied().collect();
                    let mut touched = Vec::new();
                    let mut pick = |rng: &mut Rng| {
                        let k = keys[rng.below(keys.len())];
                        (!touched.contains(&k)).then(|| {
                            touched.push(k);
                            k
                        })
                    };
                    let (mut removes, mut writes) = (Vec::new(), Vec::new());
                    if !keys.is_empty() {
                        for _ in 0..rng.below(3) {
                            removes.extend(pick(&mut rng));
                        }
                        for _ in 0..rng.below(4) {
                            if let Some(k) = pick(&mut rng) {
                                writes.push((k, content(rng.next(), 1 + rng.below(300))));
                            }
                        }
                    }
                    let inserts: Vec<(u64, Vec<u8>)> = (0..rng.below(5))
                        .map(|_| {
                            next_key += 1;
                            (next_key, content(rng.next(), 1 + rng.below(300)))
                        })
                        .collect();
                    Step::Batch {
                        removes,
                        writes,
                        inserts,
                        durable: rng.below(2) == 0,
                    }
                }
            };
            match &step {
                Step::Batch {
                    removes,
                    writes,
                    inserts,
                    ..
                } => {
                    for k in removes {
                        model.remove(k);
                    }
                    model.extend(writes.iter().chain(inserts).cloned());
                }
                Step::Snapshot => snap_models.push(model.clone()),
                Step::ReleaseSnapshot => drop(snap_models.remove(0)),
                Step::Reopen => snap_models.clear(),
                Step::Checkpoint | Step::Clean => {}
            }
            for r in &mut replicas {
                r.step(&step);
            }
            let expected: Vec<Vec<u8>> = model
                .values()
                .chain(snap_models.iter().flat_map(|m| m.values()))
                .cloned()
                .collect();
            for r in &replicas {
                assert_eq!(
                    r.observe(&snap_models),
                    expected,
                    "seed {seed:#x} step {i}: N={} disagrees",
                    r.shards
                );
            }
        }
        let one = &replicas[0];
        let names = one.mem.list().unwrap();
        assert!(
            names
                .iter()
                .all(|n| !n.starts_with("rr.") && !n.contains("--")),
            "one shard must keep the single-log layout: {names:?}"
        );
        // Fresh stores hand out the same ids 0, 1, 2, … at every count.
        for r in &mut replicas {
            r.store = ChunkStore::create(
                Arc::new(MemStore::new()),
                &MemSecretStore::from_label("differential"),
                Arc::new(VolatileCounter::new()),
                cfg(r.shards),
            )
            .unwrap();
            let mut b = r.store.begin_batch();
            let ids: Vec<u64> = (0..6).map(|_| b.allocate_chunk_id().unwrap().0).collect();
            assert_eq!(ids, (0..6).collect::<Vec<_>>(), "N={}", r.shards);
        }
    }
}
