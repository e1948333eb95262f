//! `tdb-doctor verify-proof` end to end: a proof minted by a file-backed
//! store, written with `proof_dump::dump_json`, is checked offline by the
//! built binary — accepted as is, rejected with one proof byte flipped, and
//! refused as a usage error when the dump is malformed.

use std::path::Path;
use std::process::Command;
use std::sync::Arc;

use chunk_store::{ChunkStore, ChunkStoreConfig, Durability};
use tdb::proof::wire::{encode_chunk_proof, to_hex};
use tdb_bench::proof_dump::dump_json;
use tdb_platform::{DirStore, FileCounter, MemSecretStore};

/// Run `tdb-doctor verify-proof` on `dump`; returns (exit code, stdout).
fn verify(dir: &Path, name: &str, dump: &str) -> (i32, String) {
    let path = dir.join(name);
    std::fs::write(&path, dump).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tdb_doctor"))
        .arg("verify-proof")
        .arg(&path)
        .output()
        .unwrap();
    (
        out.status.code().expect("tdb-doctor exited by signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn tdb_doctor_verifies_rejects_and_refuses_proof_dumps() {
    let db_dir = tempfile::tempdir().unwrap();
    let store = ChunkStore::create(
        Arc::new(DirStore::new(db_dir.path().join("log")).unwrap()),
        &MemSecretStore::from_label("verify-proof-cli"),
        Arc::new(FileCounter::open(db_dir.path().join("counter")).unwrap()),
        ChunkStoreConfig::small_for_tests(),
    )
    .unwrap();
    let mut batch = store.begin_batch();
    let id = batch.allocate_chunk_id().unwrap();
    batch.write(id, b"metered content key").unwrap();
    store.commit_batch(batch, Durability::Durable).unwrap();
    let proven = store.read_proven(id).unwrap();
    let (proof, anchor) = (proven.prove().unwrap(), store.trust_anchor().unwrap());
    let good = dump_json(&proof, &anchor, proven.value.as_deref());

    let out_dir = tempfile::tempdir().unwrap();
    let (code, stdout) = verify(out_dir.path(), "good.json", &good);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("VERIFIED"), "{stdout}");

    // Byte 10 is the first of the included chunk's sealed hash (after the
    // tag, the 8-byte chunk id and the outcome byte): flipped, the proof
    // still decodes, so it reaches the verifier and is rejected there.
    let mut flipped = encode_chunk_proof(&proof);
    flipped[10] ^= 0x01;
    let tampered = good.replace(&to_hex(&encode_chunk_proof(&proof)), &to_hex(&flipped));
    assert_ne!(tampered, good);
    let (code, stdout) = verify(out_dir.path(), "tampered.json", &tampered);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("REJECTED"), "{stdout}");

    let (code, _) = verify(out_dir.path(), "malformed.json", &good[..good.len() / 2]);
    assert_eq!(code, 2, "a truncated dump is a usage/parse error");
}
