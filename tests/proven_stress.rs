//! Stress: proof-carrying readers racing writers and forced log cleaning.
//!
//! Readers continuously extract and verify inclusion proofs (and keyed
//! index proofs) while two writers commit transfers and a maintenance
//! thread forces checkpoint + cleaning passes, so segments relocate under
//! the open snapshots the whole time. Every proof must verify against an
//! anchor captured before the snapshot pin — relocation must never change
//! what a proof says — and a flipped byte anywhere in an encoded proof
//! must surface as a security error (`Tamper`/`Replay`), never as
//! acceptance. Run with `--release` in CI.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use tdb::proof::{wire, Verifier};
use tdb::{
    impl_persistent_boilerplate, ChunkStoreError, Db, Durability, ErrorKind, IndexKind, IndexSpec,
    Key, Options, Persistent, PickleError, Pickler, Unpickler,
};

const CLASS_ACCOUNT: u32 = 0xACC7_0003;
const ACCOUNTS: i64 = 8;
const INITIAL: i64 = 1_000;

struct Account {
    id: i64,
    balance: i64,
}

impl Persistent for Account {
    impl_persistent_boilerplate!(CLASS_ACCOUNT);
    fn pickle(&self, w: &mut Pickler) {
        w.i64(self.id);
        w.i64(self.balance);
    }
}

fn unpickle_account(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
    Ok(Box::new(Account {
        id: r.i64()?,
        balance: r.i64()?,
    }))
}

fn open_db() -> Db {
    // Tiny segments force the cleaner to actually relocate live chunks
    // under the open snapshots.
    Db::open(
        Options::in_memory()
            .secret_label("proven-stress")
            .chunk_config(tdb::ChunkStoreConfig::small_for_tests())
            .register_class(CLASS_ACCOUNT, "Account", unpickle_account)
            .register_extractor("acct.id", |o| {
                tdb::extractor_typed::<Account>(o, |a| Key::I64(a.id))
            }),
    )
    .unwrap()
}

#[test]
fn proofs_hold_under_writers_and_forced_cleaning() {
    let db = open_db();
    let accounts = db.collection::<i64, Account>("accounts");

    let t = db.begin();
    accounts
        .ensure(
            &t,
            &[IndexSpec::new("by-id", "acct.id", true, IndexKind::BTree)],
        )
        .unwrap();
    for id in 0..ACCOUNTS {
        accounts
            .insert(
                &t,
                Account {
                    id,
                    balance: INITIAL,
                },
            )
            .unwrap();
    }
    t.commit(Durability::Durable).unwrap();

    let writers = 2;
    let readers = 3;
    let transfers_per_writer: u64 = if cfg!(debug_assertions) { 100 } else { 400 };

    let stop = Arc::new(AtomicBool::new(false));
    let proofs_verified = Arc::new(AtomicU64::new(0));
    let start = Arc::new(Barrier::new(writers + readers + 2));
    let mut handles = Vec::new();

    // Writers: transfers between accounts; the exact values do not matter
    // here, only that chunks keep getting rewritten and counters advance.
    for w in 0..writers {
        let db = db.clone();
        let accounts = accounts.clone();
        let start = start.clone();
        handles.push(std::thread::spawn(move || {
            start.wait();
            let mut state = 0xB5AD_4ECEu64.wrapping_add(w as u64);
            let mut rand = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut done: u64 = 0;
            while done < transfers_per_writer {
                let from = (rand() % ACCOUNTS as u64) as i64;
                let to = (rand() % ACCOUNTS as u64) as i64;
                if from == to {
                    continue;
                }
                let amount = (rand() % 50) as i64 + 1;
                let t = db.begin();
                let moved = (|| -> Result<bool, tdb::TdbError> {
                    let a = accounts.update(&t, "by-id", from, |acc| acc.balance -= amount)?;
                    let b = accounts.update(&t, "by-id", to, |acc| acc.balance += amount)?;
                    Ok(a == 1 && b == 1)
                })();
                match moved {
                    Ok(true) => {
                        let durability = Durability::from(done.is_multiple_of(2));
                        if t.commit(durability).is_ok() {
                            done += 1;
                        }
                    }
                    Ok(false) => t.abort(),
                    Err(e) if e.is_retryable() => t.abort(),
                    Err(e) => panic!("writer failed: {e}"),
                }
            }
        }));
    }

    // Readers: the full client flow each iteration — capture an anchor,
    // pin a snapshot, read with a proof, verify; then bend one byte and
    // demand a security rejection.
    for reader in 0..readers {
        let db = db.clone();
        let stop = stop.clone();
        let start = start.clone();
        let verified = proofs_verified.clone();
        handles.push(std::thread::spawn(move || {
            start.wait();
            let mut iter: u64 = 0;
            while !stop.load(Ordering::Relaxed) {
                // Anchor first: its counter value can only be <= the
                // snapshot's, so freshness never falsely trips.
                let verifier = Verifier::new(db.trust_anchor().unwrap());
                let r = db.begin_read_proven().unwrap();
                let coll = r.read_collection("accounts").unwrap();

                // Inclusion proof for one account's chunk.
                let probe = ((iter + reader as u64) % ACCOUNTS as u64) as i64;
                let hit = coll.exact_proven("by-id", &Key::I64(probe)).unwrap();
                assert_eq!(hit.entries.len(), 1, "account {probe} must exist");
                let ids = verifier.verify_keyed(&hit.proof).unwrap();
                assert_eq!(ids, vec![hit.entries[0].1 .0]);

                let oid = hit.entries[0].1;
                let proven = r.object_reader().read_proven_bytes(oid).unwrap();
                let bytes = proven.value.clone().expect("member chunk present");
                let proof = proven.prove().unwrap();
                verifier.verify_chunk(&proof, Some(&bytes)).unwrap();

                // Flip one byte of the encoded proof (position varies per
                // iteration): decode failure or a security rejection.
                let encoded = wire::encode_chunk_proof(&proof);
                let pos = (iter as usize * 7 + reader) % encoded.len();
                let mut bent = encoded.clone();
                bent[pos] ^= 0x01;
                if let Ok(decoded) = wire::decode_chunk_proof(&bent) {
                    let err = verifier
                        .verify_chunk(&decoded, Some(&bytes))
                        .expect_err("flipped proof byte must not verify");
                    let kind = ChunkStoreError::from(err).kind();
                    assert!(
                        matches!(kind, ErrorKind::Tamper | ErrorKind::Replay),
                        "flipped byte at {pos} must be a security error, got {kind:?}"
                    );
                }

                // Flipping the value instead must also be caught.
                let mut forged = bytes.clone();
                let vpos = iter as usize % forged.len();
                forged[vpos] ^= 0x01;
                let err = verifier
                    .verify_chunk(&proof, Some(&forged))
                    .expect_err("substituted value must not verify");
                assert_eq!(ChunkStoreError::from(err).kind(), ErrorKind::Tamper);

                r.finish();
                verified.fetch_add(1, Ordering::Relaxed);
                iter += 1;
            }
        }));
    }

    // Maintenance: force checkpoint + cleaning passes the whole time.
    {
        let db = db.clone();
        let stop = stop.clone();
        let start = start.clone();
        handles.push(std::thread::spawn(move || {
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                let _ = db.checkpoint();
                let _ = db.clean();
                std::thread::yield_now();
            }
        }));
    }

    start.wait();
    let mut handles = handles.into_iter();
    for _ in 0..writers {
        handles.next().unwrap().join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    assert!(
        proofs_verified.load(Ordering::Relaxed) > 0,
        "readers never completed a proof check"
    );

    // The proof machinery observed the traffic.
    let obs = db.obs().snapshot();
    assert!(obs.counter("proof.proven_reads") > 0);
    assert!(obs.counter("proof.minted") > 0);
    assert!(obs.counter("proof.keyed_minted") > 0);
}
