//! Hostile bytes against the proof codecs: `decode_chunk_proof`,
//! `decode_keyed_proof`, `decode_trust_anchor` and
//! `proof_dump::parse_dump_json` get random inputs and every single-byte
//! flip (under three masks) of valid encodings. Each call must return `Ok`
//! or `Err`; a panic fails the test and an abort kills it.

use chunk_store::{ChunkId, ChunkStoreConfig, Durability, SecurityMode};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use tdb::proof::keyed::{KeyedEntry, KeyedTree};
use tdb::proof::wire::*;
use tdb::proof::{ChunkProof, TrustAnchor};
use tdb_bench::proof_dump::{dump_json, parse_dump_json};

/// A proof and the value it covers (`None` for an absence proof).
type ProvenValue = (ChunkProof, Option<Vec<u8>>);

/// Inclusion and absence proofs plus the anchor of a store of `shards`
/// shards; only sharded proofs carry a shard binding.
fn minted(shards: usize) -> (Vec<ProvenValue>, TrustAnchor) {
    let store = tdb_bench::bench_chunk_store(ChunkStoreConfig {
        security: SecurityMode::Full,
        shards,
        ..ChunkStoreConfig::small_for_tests()
    });
    let mut batch = store.begin_batch();
    let ids: Vec<_> = (0..6).map(|_| batch.allocate_chunk_id().unwrap()).collect();
    for (i, id) in ids.iter().enumerate() {
        batch.write(*id, &[i as u8; 40]).unwrap();
    }
    store.commit_batch(batch, Durability::Durable).unwrap();
    let proofs = [ids[3], ChunkId(9_999)]
        .into_iter()
        .map(|id| {
            let p = store.read_proven(id).unwrap();
            (p.prove().unwrap(), p.value)
        })
        .collect();
    (proofs, store.trust_anchor().unwrap())
}

/// Feed `decode` every single-byte flip of `valid` under each of three
/// masks, then random inputs — half of them behind `valid`'s leading tag
/// byte, so they get past the first check.
fn hostile(valid: &[u8], seed: u64, decode: &dyn Fn(&[u8])) {
    let mut bytes = valid.to_vec();
    for i in 0..bytes.len() {
        for mask in [0x01, 0x80, 0xFF] {
            bytes[i] ^= mask;
            decode(&bytes);
            bytes[i] ^= mask;
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..2_000 {
        let mut bytes: Vec<u8> = (0..rng.gen_range(0..600usize))
            .map(|_| rng.next_u64() as u8)
            .collect();
        if round % 2 == 0 && !bytes.is_empty() {
            bytes[0] = valid[0];
        }
        decode(&bytes);
    }
}

#[test]
fn binary_proof_codecs_never_panic_on_hostile_bytes() {
    for shards in [1, 3] {
        let (proofs, anchor) = minted(shards);
        for (p, _) in &proofs {
            hostile(&encode_chunk_proof(p), 1, &|b| drop(decode_chunk_proof(b)));
        }
        hostile(&encode_trust_anchor(&anchor), 2, &|b| {
            drop(decode_trust_anchor(b))
        });
    }
    let entries = (0..9).map(|i| KeyedEntry {
        key: format!("k{i}").into_bytes(),
        id: i,
    });
    let tree = KeyedTree::build(entries.collect());
    for (lo, hi) in [
        (&b"k3"[..], Some(&b"k5"[..])),
        (b"k4", None),
        (b"a", Some(b"ab")),
    ] {
        let enc = encode_keyed_proof(&tree.prove_range("meters/by-id", lo, hi));
        hostile(&enc, 3, &|b| drop(decode_keyed_proof(b)));
    }
}

#[test]
fn proof_dump_parser_never_panics_on_hostile_text() {
    // Flips often leave invalid UTF-8, which the lossy conversion turns
    // into U+FFFD: the parser also meets multi-byte characters in hex.
    let parse = |b: &[u8]| drop(parse_dump_json(&String::from_utf8_lossy(b)));
    for shards in [1, 3] {
        let (proofs, anchor) = minted(shards);
        for (proof, value) in &proofs {
            let dump = dump_json(proof, &anchor, value.as_deref());
            assert!(parse_dump_json(&dump).is_ok());
            hostile(dump.as_bytes(), 4, &parse);
        }
    }
    // Well-formed dumps around random hex reach the binary decoders.
    let mut rng = StdRng::seed_from_u64(5);
    let mut hex = |max: usize| {
        to_hex(
            &(0..rng.gen_range(0..max))
                .map(|_| rng.next_u64() as u8)
                .collect::<Vec<u8>>(),
        )
    };
    for _ in 0..2_000 {
        let text = format!(
            r#"{{"v": 1, "proof": "01{}", "anchor": "02{}", "value": "{}"}}"#,
            hex(400),
            hex(120),
            hex(40)
        );
        drop(parse_dump_json(&text));
    }
}
