//! Property-based model checking of the chunk store.
//!
//! A random sequence of operations runs against both the real store and a
//! trivial in-memory model (`HashMap<u64, Vec<u8>>` + allocation set). After
//! every step the observable state must match; `Reopen` steps additionally
//! exercise recovery, and `CrashReopen` steps drop everything since the last
//! durable commit before checking the model agreement.

use chunk_store::Durability;
use chunk_store::{ChunkId, ChunkStore, ChunkStoreConfig, SecurityMode, WriteBatch};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use tdb_platform::{MemSecretStore, MemStore, VolatileCounter};

#[derive(Debug, Clone)]
enum Op {
    /// Allocate a chunk and write `len` bytes of deterministic content.
    Insert { len: usize },
    /// Overwrite the i-th live chunk (mod live count).
    Update { pick: usize, len: usize },
    /// Deallocate the i-th live chunk.
    Remove { pick: usize },
    /// Commit staged operations.
    Commit { durable: bool },
    /// Drop staged operations.
    Discard,
    /// Take a checkpoint.
    Checkpoint,
    /// Close and reopen the store (recovery of a cleanly committed state).
    Reopen,
    /// Simulate a crash: discard the batch, reopen — everything since the
    /// last durable commit must be gone.
    CrashReopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1usize..300).prop_map(|len| Op::Insert { len }),
        4 => (any::<usize>(), 1usize..300).prop_map(|(pick, len)| Op::Update { pick, len }),
        2 => any::<usize>().prop_map(|pick| Op::Remove { pick }),
        4 => any::<bool>().prop_map(|durable| Op::Commit { durable }),
        1 => Just(Op::Discard),
        1 => Just(Op::Checkpoint),
        1 => Just(Op::Reopen),
        1 => Just(Op::CrashReopen),
    ]
}

fn content(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seed as u8).wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

#[derive(Default, Clone)]
struct Model {
    /// Committed state.
    committed: HashMap<u64, Vec<u8>>,
    /// State as of the last *durable* commit.
    durable: HashMap<u64, Vec<u8>>,
    /// Staged batch (None = dealloc).
    staged: HashMap<u64, Option<Vec<u8>>>,
}

impl Model {
    fn visible(&self) -> HashMap<u64, Vec<u8>> {
        let mut v = self.committed.clone();
        for (id, op) in &self.staged {
            match op {
                Some(data) => {
                    v.insert(*id, data.clone());
                }
                None => {
                    v.remove(id);
                }
            }
        }
        v
    }

    fn commit_staged(&mut self) {
        for (id, op) in self.staged.drain() {
            match op {
                Some(data) => {
                    self.committed.insert(id, data);
                }
                None => {
                    self.committed.remove(&id);
                }
            }
        }
    }
}

fn check_agreement(store: &ChunkStore, batch: &WriteBatch, model: &Model, ctx: &str) {
    for (id, data) in model.visible() {
        // Through the batch: staged operations win over committed state.
        let got = batch
            .read(ChunkId(id))
            .unwrap_or_else(|e| panic!("{ctx}: chunk {id} unreadable: {e}"));
        assert_eq!(got, data, "{ctx}: chunk {id} content mismatch");
    }
    // `live_chunks` counts committed map entries, so only compare when no
    // operations are staged.
    if model.staged.is_empty() {
        assert_eq!(
            store.live_chunks() as usize,
            model.committed.len(),
            "{ctx}: live count"
        );
    }
}

fn run_scenario(ops: Vec<Op>, security: SecurityMode) {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let secret = MemSecretStore::from_label("prop-model");
    let mut cfg = ChunkStoreConfig::small_for_tests();
    cfg.security = security;

    let mut store = ChunkStore::create(
        Arc::new(mem.clone()),
        &secret,
        Arc::new(counter.clone()),
        cfg.clone(),
    )
    .unwrap();
    let mut batch = store.begin_batch();
    let mut model = Model::default();
    let mut seed = 0u64;

    for (step, op) in ops.into_iter().enumerate() {
        seed += 1;
        let ctx = format!("step {step} ({op:?})");
        match op {
            Op::Insert { len } => {
                let id = batch.allocate_chunk_id().unwrap();
                let data = content(seed, len);
                batch.write(id, &data).unwrap();
                model.staged.insert(id.as_u64(), Some(data));
            }
            Op::Update { pick, len } => {
                let visible = model.visible();
                if visible.is_empty() {
                    continue;
                }
                let mut keys: Vec<u64> = visible.keys().copied().collect();
                keys.sort_unstable();
                let id = keys[pick % keys.len()];
                let data = content(seed, len);
                batch.write(ChunkId(id), &data).unwrap();
                model.staged.insert(id, Some(data));
            }
            Op::Remove { pick } => {
                let visible = model.visible();
                if visible.is_empty() {
                    continue;
                }
                let mut keys: Vec<u64> = visible.keys().copied().collect();
                keys.sort_unstable();
                let id = keys[pick % keys.len()];
                batch.deallocate(ChunkId(id)).unwrap();
                model.staged.insert(id, None);
            }
            Op::Commit { durable } => {
                let staged = std::mem::replace(&mut batch, store.begin_batch());
                store
                    .commit_batch(staged, Durability::from(durable))
                    .unwrap();
                model.commit_staged();
                if durable {
                    model.durable = model.committed.clone();
                }
            }
            Op::Discard => {
                std::mem::replace(&mut batch, store.begin_batch()).discard();
                model.staged.clear();
            }
            Op::Checkpoint => {
                // checkpoint() anchors everything committed so far (making
                // it durable); staged operations stay staged.
                store.checkpoint().unwrap();
                model.durable = model.committed.clone();
            }
            Op::Reopen => {
                // Make the state durable first so reopen is lossless.
                store.commit_batch(batch, Durability::Durable).unwrap();
                model.commit_staged();
                model.durable = model.committed.clone();
                drop(store);
                store = ChunkStore::open(
                    Arc::new(mem.clone()),
                    &secret,
                    Arc::new(counter.clone()),
                    cfg.clone(),
                )
                .unwrap();
                batch = store.begin_batch();
            }
            Op::CrashReopen => {
                // No graceful shutdown: staged batch and all commits since
                // the last durable one must vanish.
                drop(batch);
                drop(store);
                store = ChunkStore::open(
                    Arc::new(mem.clone()),
                    &secret,
                    Arc::new(counter.clone()),
                    cfg.clone(),
                )
                .unwrap();
                batch = store.begin_batch();
                model.staged.clear();
                model.committed = model.durable.clone();
            }
        }
        check_agreement(&store, &batch, &model, &ctx);
    }

    // Final durable shutdown must round-trip everything.
    store.commit_batch(batch, Durability::Durable).unwrap();
    model.commit_staged();
    drop(store);
    let store = ChunkStore::open(Arc::new(mem), &secret, Arc::new(counter), cfg).unwrap();
    check_agreement(&store, &store.begin_batch(), &model, "final reopen");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_ops_match_model_full_security(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        run_scenario(ops, SecurityMode::Full);
    }

    #[test]
    fn random_ops_match_model_no_security(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        run_scenario(ops, SecurityMode::Off);
    }
}
