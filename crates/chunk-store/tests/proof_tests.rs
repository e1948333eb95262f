//! Proof-carrying reads at the chunk-store level: every committed read can
//! produce an inclusion proof, every miss a non-membership proof, and a
//! standalone [`tdb_proof::Verifier`] holding only the trust anchor accepts
//! exactly the honest ones — even when the cleaner has relocated the
//! records since the snapshot was pinned.

use chunk_store::{
    ChunkId, ChunkStore, ChunkStoreConfig, ChunkStoreError, Durability, SecurityMode,
};
use std::sync::Arc;
use tdb_platform::{MemSecretStore, MemStore, VolatileCounter};
use tdb_proof::{ProofError, Verifier};

fn cfg() -> ChunkStoreConfig {
    ChunkStoreConfig::small_for_tests()
}

fn create(mem: &MemStore, counter: &VolatileCounter) -> ChunkStore {
    ChunkStore::create(
        Arc::new(mem.clone()),
        &MemSecretStore::from_label("proof-tests"),
        Arc::new(counter.clone()),
        cfg(),
    )
    .unwrap()
}

#[test]
fn proven_reads_verify_inclusion_and_absence() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let store = create(&mem, &counter);
    let verifier = Verifier::new(store.trust_anchor().unwrap());

    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"license: 3 plays left").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();

    // Inclusion: value comes back with a proof the verifier accepts.
    let proven = store.read_proven(id).unwrap();
    assert_eq!(
        proven.value.as_deref(),
        Some(b"license: 3 plays left".as_slice())
    );
    let proof = proven.prove().unwrap();
    verifier
        .verify_chunk(&proof, proven.value.as_deref())
        .unwrap();

    // The wire form round-trips and still verifies.
    let wire = tdb_proof::wire::encode_chunk_proof(&proof);
    let decoded = tdb_proof::wire::decode_chunk_proof(&wire).unwrap();
    verifier
        .verify_chunk(&decoded, proven.value.as_deref())
        .unwrap();

    // Non-membership: an unallocated id in range, and one beyond any
    // plausible capacity, both prove absence.
    for miss in [ChunkId(57), ChunkId(u64::MAX / 2)] {
        let proven = store.read_proven(miss).unwrap();
        assert!(proven.value.is_none());
        let proof = proven.prove().unwrap();
        verifier.verify_chunk(&proof, None).unwrap();
    }

    // Counters moved.
    let obs = store.obs().snapshot();
    assert!(obs.counter("proof.proven_reads") >= 3);
    assert!(obs.counter("proof.minted") >= 3);
}

#[test]
fn proofs_stay_valid_under_overwrites_and_cleaning() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let store = create(&mem, &counter);
    let verifier = Verifier::new(store.trust_anchor().unwrap());

    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"pinned value").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();

    // Pin the read, then churn the store hard enough to force cleaning
    // passes that relocate live records (and the map pages above them).
    let proven = store.read_proven(id).unwrap();
    let mut batch = store.begin_batch();
    let churn = batch.allocate_chunk_id().unwrap();
    for round in 0..40 {
        batch.write(churn, &vec![round as u8; 900]).unwrap();
        store.commit_batch(batch, Durability::Lazy).unwrap();
        batch = store.begin_batch();
    }
    store.checkpoint().unwrap();
    store.clean().unwrap();
    batch.write(id, b"a newer value").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();

    // The deferred proof still speaks about the pinned snapshot.
    let proof = proven.prove().unwrap();
    assert_eq!(proven.value.as_deref(), Some(b"pinned value".as_slice()));
    verifier
        .verify_chunk(&proof, proven.value.as_deref())
        .unwrap();

    // A fresh proven read sees (and proves) the new value.
    let now = store.read_proven(id).unwrap();
    assert_eq!(now.value.as_deref(), Some(b"a newer value".as_slice()));
    verifier
        .verify_chunk(&now.prove().unwrap(), now.value.as_deref())
        .unwrap();
    assert!(now.commit_seq() > proven.commit_seq());
}

#[test]
fn tampered_and_replayed_proofs_are_rejected() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let store = create(&mem, &counter);
    let anchor = store.trust_anchor().unwrap();

    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"tamper target").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();

    let proven = store.read_proven(id).unwrap();
    let proof = proven.prove().unwrap();
    let value = proven.value.as_deref();
    let verifier = Verifier::new(anchor.clone());
    verifier.verify_chunk(&proof, value).unwrap();

    // A forged value is rejected.
    assert!(matches!(
        verifier.verify_chunk(&proof, Some(b"forged")),
        Err(ProofError::Tamper(_))
    ));

    // Any flipped bit anywhere in the encoded proof is rejected.
    let wire = tdb_proof::wire::encode_chunk_proof(&proof);
    let mut accepted = 0;
    for i in 0..wire.len() {
        let mut bad = wire.clone();
        bad[i] ^= 0x01;
        if let Ok(p) = tdb_proof::wire::decode_chunk_proof(&bad) {
            if verifier.verify_chunk(&p, value).is_ok() {
                accepted += 1;
            }
        }
    }
    assert_eq!(accepted, 0, "a mutated proof byte was accepted");

    // A client that has already seen a fresher counter value treats this
    // proof as a replay.
    let mut future = anchor;
    future.counter_value = proof.attestation.counter_value + 1;
    assert!(matches!(
        Verifier::new(future).verify_chunk(&proof, value),
        Err(ProofError::Replay { .. })
    ));
}

#[test]
fn security_off_refuses_proofs_with_a_usage_error() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let mut c = cfg();
    c.security = SecurityMode::Off;
    let store = ChunkStore::create(
        Arc::new(mem.clone()),
        &MemSecretStore::from_label("proof-tests"),
        Arc::new(counter.clone()),
        c,
    )
    .unwrap();
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"plain").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();

    assert!(matches!(
        store.read_proven(id),
        Err(ChunkStoreError::ConfigMismatch(_))
    ));
    assert!(matches!(
        store.trust_anchor(),
        Err(ChunkStoreError::ConfigMismatch(_))
    ));
}

fn create_sharded(mem: &MemStore, counter: &VolatileCounter, shards: usize) -> ChunkStore {
    let mut c = cfg();
    c.shards = shards;
    ChunkStore::create(
        Arc::new(mem.clone()),
        &MemSecretStore::from_label("proof-tests"),
        Arc::new(counter.clone()),
        c,
    )
    .unwrap()
}

#[test]
fn sharded_proofs_splice_into_the_epoch_record() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let store = create_sharded(&mem, &counter, 3);
    let verifier = Verifier::new(store.trust_anchor().unwrap());

    // Write chunks landing on all three shards.
    let mut b = store.begin_batch();
    let mut ids = Vec::new();
    for i in 0..6u8 {
        let id = b.allocate_chunk_id().unwrap();
        b.write(id, &[b'v', i]).unwrap();
        ids.push(id);
    }
    store.commit_batch(b, Durability::Durable).unwrap();

    // Every chunk proves inclusion through its shard's root and the
    // root-of-roots epoch record; a miss proves absence the same way.
    for (i, id) in ids.iter().enumerate() {
        let proven = store.read_proven(*id).unwrap();
        assert_eq!(proven.value.as_deref(), Some([b'v', i as u8].as_slice()));
        let proof = proven.prove().unwrap();
        assert!(proof.shard.is_some(), "sharded proof must carry a binding");
        verifier
            .verify_chunk(&proof, proven.value.as_deref())
            .unwrap();
    }
    let miss = store.read_proven(ChunkId(500)).unwrap();
    assert!(miss.value.is_none());
    verifier.verify_chunk(&miss.prove().unwrap(), None).unwrap();

    // A proof pinned before churn still verifies after later commits
    // advanced the shard's virtual counter (deferred prove, fresh epoch).
    let pinned = store.read_proven(ids[0]).unwrap();
    let mut b = store.begin_batch();
    b.write(ids[0], b"newer").unwrap();
    store.commit_batch(b, Durability::Durable).unwrap();
    verifier
        .verify_chunk(&pinned.prove().unwrap(), pinned.value.as_deref())
        .unwrap();
}

#[test]
fn sharded_tamper_variants_are_rejected() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let store = create_sharded(&mem, &counter, 2);
    let anchor = store.trust_anchor().unwrap();
    let verifier = Verifier::new(anchor);

    let mut b = store.begin_batch();
    let a = b.allocate_chunk_id().unwrap(); // shard 0
    let c = b.allocate_chunk_id().unwrap(); // shard 1
    b.write(a, b"alpha").unwrap();
    b.write(c, b"charlie").unwrap();
    store.commit_batch(b, Durability::Durable).unwrap();

    let pa = store.read_proven(a).unwrap();
    let pc = store.read_proven(c).unwrap();
    let proof_a = pa.prove().unwrap();
    let proof_c = pc.prove().unwrap();
    verifier
        .verify_chunk(&proof_a, pa.value.as_deref())
        .unwrap();
    verifier
        .verify_chunk(&proof_c, pc.value.as_deref())
        .unwrap();

    // Swapped shard root: splice shard 1's path (and root) under shard
    // 0's chunk id. The attestation key and root no longer match.
    let mut swapped = proof_a.clone();
    swapped.path = proof_c.path.clone();
    assert!(matches!(
        verifier.verify_chunk(&swapped, pa.value.as_deref()),
        Err(ProofError::Tamper(_))
    ));

    // A binding claiming the wrong shard contradicts the routing function.
    let mut misrouted = proof_a.clone();
    misrouted.shard.as_mut().unwrap().shard = 1;
    assert!(matches!(
        verifier.verify_chunk(&misrouted, pa.value.as_deref()),
        Err(ProofError::Tamper(_))
    ));

    // A forged epoch counter vector fails the root-of-roots MAC.
    let mut inflated = proof_a.clone();
    inflated.shard.as_mut().unwrap().epoch.counters[0] += 1;
    assert!(matches!(
        verifier.verify_chunk(&inflated, pa.value.as_deref()),
        Err(ProofError::Tamper(_))
    ));

    // Stale epoch: after more durable commits advance the hardware
    // counter, a *fresh* trust anchor rejects the old epoch record.
    for _ in 0..3 {
        let mut b = store.begin_batch();
        b.write(a, b"bump").unwrap();
        store.commit_batch(b, Durability::Durable).unwrap();
    }
    let fresh = Verifier::new(store.trust_anchor().unwrap());
    assert!(matches!(
        fresh.verify_chunk(&proof_a, pa.value.as_deref()),
        Err(ProofError::Replay { .. })
    ));
    // Re-proving from the same pinned read mints a fresh epoch record,
    // which the fresh anchor accepts.
    fresh
        .verify_chunk(&pa.prove().unwrap(), pa.value.as_deref())
        .unwrap();
}

#[test]
fn restore_refusals_name_operation_shards_and_docs() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let store = create_sharded(&mem, &counter, 2);

    let msg = store.restore_image(Vec::new()).unwrap_err().to_string();
    assert!(msg.contains("restore_image"), "names the operation: {msg}");
    assert!(msg.contains("2 shards"), "names the shard count: {msg}");
    assert!(msg.contains("DESIGN.md"), "points at the docs: {msg}");
    let msg = store
        .apply_restore_delta(Vec::new(), Vec::new())
        .unwrap_err()
        .to_string();
    assert!(msg.contains("apply_restore_delta") && msg.contains("DESIGN.md"));
}

#[test]
fn keyed_attestations_bind_snapshot_counter_and_scope() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let store = create(&mem, &counter);
    let verifier = Verifier::new(store.trust_anchor().unwrap());

    let tree = tdb_proof::KeyedTree::build(
        ["alpha", "beta", "gamma"]
            .iter()
            .enumerate()
            .map(|(i, k)| tdb_proof::KeyedEntry {
                key: k.as_bytes().to_vec(),
                id: i as u64,
            })
            .collect(),
    );
    let snap = store.snapshot();
    let mut proof = tree.prove_range("col/ix", b"beta", Some(&tdb_proof::key_successor(b"beta")));
    proof.attestation = store
        .keyed_attest_at(&snap, &proof.scope, proof.total, &proof.root)
        .unwrap();
    assert_eq!(verifier.verify_keyed(&proof).unwrap(), vec![1]);

    // An attestation for one scope cannot be replayed onto another.
    let mut other = tree.prove_range(
        "col/other",
        b"beta",
        Some(&tdb_proof::key_successor(b"beta")),
    );
    other.attestation = proof.attestation.clone();
    assert!(matches!(
        verifier.verify_keyed(&other),
        Err(ProofError::Tamper(_))
    ));
}
