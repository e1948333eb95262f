//! Adversarial integration tests: the attacker owns the storage (paper
//! §2). Every stored byte is flipped in turn; the database must either
//! behave identically or refuse with tamper/replay detection — never
//! silently serve corrupted state.

use chunk_store::layout::{
    decode_record_header, RecordKind, RECORD_HEADER_LEN, SEGMENT_HEADER_LEN,
};
use std::sync::Arc;
use tdb::platform::{MemSecretStore, MemStore, OneWayCounter, UntrustedStore, VolatileCounter};
use tdb::Durability;
use tdb::{
    impl_persistent_boilerplate, ChunkStoreConfig, ChunkStoreError, ClassRegistry, CollectionError,
    Db, ErrorKind, ExtractorRegistry, IndexKind, IndexSpec, Key, ObjectStoreError, Options,
    Persistent, PickleError, Pickler, SecurityMode, TdbError, Unpickler,
};

const CLASS_SECRETVAL: u32 = 0x5EC0_0001;

struct SecretVal {
    id: u64,
    payload: Vec<u8>,
}

impl Persistent for SecretVal {
    impl_persistent_boilerplate!(CLASS_SECRETVAL);
    fn pickle(&self, w: &mut Pickler) {
        w.u64(self.id);
        w.bytes(&self.payload);
    }
}

fn unpickle(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
    Ok(Box::new(SecretVal {
        id: r.u64()?,
        payload: r.bytes()?.to_vec(),
    }))
}

fn registries() -> (ClassRegistry, ExtractorRegistry) {
    let mut classes = ClassRegistry::new();
    classes.register(CLASS_SECRETVAL, "SecretVal", unpickle);
    let mut extractors = ExtractorRegistry::new();
    extractors.register("sv.id", |o| {
        tdb::extractor_typed::<SecretVal>(o, |s| Key::U64(s.id))
    });
    (classes, extractors)
}

/// The vault schema over `mem` and `counter`, under the device secret.
fn options(mem: &MemStore, counter: &VolatileCounter) -> Options {
    let (classes, extractors) = registries();
    Options::in_memory()
        .with_substrates(
            Arc::new(mem.clone()),
            MemSecretStore::from_label("adversarial"),
            Arc::new(counter.clone()),
        )
        .classes(classes)
        .extractors(extractors)
}

fn build_database(mem: &MemStore, counter: &VolatileCounter) -> Vec<Vec<u8>> {
    fill_vault(&Db::open(options(mem, counter)).unwrap())
}

/// Create the vault in `db` with 80 secret payloads, committed durably.
fn fill_vault(db: &Db) -> Vec<Vec<u8>> {
    let t = db.begin();
    let c = t
        .create_collection(
            "vault",
            &[IndexSpec::new("by-id", "sv.id", true, IndexKind::Hash)],
        )
        .unwrap();
    let mut payloads = Vec::new();
    for id in 0..80u64 {
        let payload = format!("content-key-{id:04}-SECRET").into_bytes();
        c.insert(Box::new(SecretVal {
            id,
            payload: payload.clone(),
        }))
        .unwrap();
        payloads.push(payload);
    }
    drop(c);
    t.commit(Durability::Durable).unwrap();
    payloads
}

/// Open the database and read everything back; `Ok` only if every payload
/// matches exactly.
fn read_all(mem: &MemStore, counter: &VolatileCounter, expect: &[Vec<u8>]) -> Result<(), String> {
    read_vault(options(mem, counter), expect)
}

/// [`read_all`] for the database `options` opens.
fn read_vault(options: Options, expect: &[Vec<u8>]) -> Result<(), String> {
    let db = Db::open(options).map_err(|e| e.to_string())?;
    let t = db.begin();
    let c = t.read_collection("vault").map_err(|e| e.to_string())?;
    for (id, payload) in expect.iter().enumerate() {
        let it = c
            .exact("by-id", &Key::U64(id as u64))
            .map_err(|e| e.to_string())?;
        let sv = it.read::<SecretVal>().map_err(|e| e.to_string())?;
        if &sv.get().payload != payload {
            return Err(format!("SILENT CORRUPTION of value {id}"));
        }
        drop(sv);
        it.close().map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[test]
fn exhaustive_bit_flip_sweep_never_corrupts_silently() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let payloads = build_database(&mem, &counter);
    // Baseline sanity.
    read_all(&mem, &counter, &payloads).expect("clean database must read");

    let mut flips = 0;
    let mut detected = 0;
    for name in mem.list().unwrap() {
        let len = mem.raw(&name).unwrap().len();
        // Sweep with a stride to keep runtime bounded; prime stride avoids
        // aliasing with record layouts.
        for off in (0..len).step_by(37) {
            mem.corrupt(&name, off as u64, 1).unwrap();
            flips += 1;
            match read_all(&mem, &counter, &payloads) {
                Ok(()) => {} // flip landed in dead bytes — fine
                Err(e) if e.contains("SILENT CORRUPTION") => {
                    panic!("flip at {name}:{off} caused silent corruption")
                }
                Err(_) => detected += 1,
            }
            mem.corrupt(&name, off as u64, 1).unwrap(); // restore
        }
    }
    assert!(flips > 150, "sweep too small: {flips}");
    assert!(
        detected > flips / 4,
        "only {detected}/{flips} flips detected — most of the file should be live"
    );
    // And the restored database still reads cleanly.
    read_all(&mem, &counter, &payloads).expect("database damaged by the sweep itself");
}

#[test]
fn truncation_never_corrupts_silently() {
    // Truncating a file may be harmless (the cut bytes were dead) or must
    // be *detected* — it may never yield wrong data. Cutting the first
    // segment to a sliver always removes live state and must error.
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let payloads = build_database(&mem, &counter);
    for name in mem.list().unwrap() {
        let copy = mem.deep_clone();
        let len = copy.raw(&name).unwrap().len();
        if len == 0 {
            continue;
        }
        copy.open(&name, false)
            .unwrap()
            .set_len(len as u64 / 2)
            .unwrap();
        match read_all(&copy, &counter, &payloads) {
            Ok(()) => {} // cut bytes were dead space
            Err(e) => assert!(!e.contains("SILENT"), "truncating {name}: {e}"),
        }
    }
    let copy = mem.deep_clone();
    let len = copy.raw("seg.000000").unwrap().len();
    copy.open("seg.000000", false)
        .unwrap()
        .set_len(len as u64 / 10)
        .unwrap();
    assert!(read_all(&copy, &counter, &payloads).is_err());
}

#[test]
fn deleting_segments_is_detected() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let payloads = build_database(&mem, &counter);
    for name in mem.list().unwrap() {
        if !name.starts_with("seg.") {
            continue;
        }
        if is_free_segment(&mem.raw(&name).unwrap()) {
            continue; // free segments hold nothing
        }
        let copy = mem.deep_clone();
        copy.remove(&name).unwrap();
        assert!(
            read_all(&copy, &counter, &payloads).is_err(),
            "deleting {name} went unnoticed"
        );
    }
}

/// A free segment file, as the chunk store classifies it on open: empty,
/// or its header zeroed by the cleaner (stale records may follow).
fn is_free_segment(raw: &[u8]) -> bool {
    raw.iter()
        .take(SEGMENT_HEADER_LEN as usize)
        .all(|b| *b == 0)
}

/// 16 KiB segments and committer-driven maintenance, so the vault spans
/// several segments at deterministic places.
fn open_spanning(mem: &MemStore, counter: &VolatileCounter) -> Result<Db, TdbError> {
    Db::open(options(mem, counter).chunk_config(ChunkStoreConfig {
        segment_size: 16 * 1024,
        background_maintenance: false,
        ..ChunkStoreConfig::default()
    }))
}

/// The record kinds in a segment file, in log order, up to the first bytes
/// that do not frame a record.
fn record_kinds(raw: &[u8]) -> Vec<RecordKind> {
    let mut kinds = Vec::new();
    let mut off = SEGMENT_HEADER_LEN as usize;
    while let Some(Ok((kind, len))) = raw.get(off..).map(decode_record_header) {
        kinds.push(kind);
        off += (RECORD_HEADER_LEN + len) as usize;
    }
    kinds
}

/// Zeroing a segment's header is how the cleaner frees it, so an attacker
/// who zeroes a live segment's header must not get it silently freed (and
/// later overwritten): open refuses with tamper detection, both for a
/// segment holding only live chunk data and for the residual-log segment.
#[test]
fn zeroing_a_live_segment_header_is_detected() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let db = open_spanning(&mem, &counter).unwrap();
    // One ~100 KB transaction: its chunk records fill several segments
    // before its commit record, then the checkpoint starts the residual
    // log in the tail segment.
    let t = db.begin();
    let c = t
        .create_collection(
            "vault",
            &[IndexSpec::new("by-id", "sv.id", true, IndexKind::Hash)],
        )
        .unwrap();
    for id in 0..100u64 {
        let payload = format!("content-key-{id:04}-").repeat(60).into_bytes();
        c.insert(Box::new(SecretVal { id, payload })).unwrap();
    }
    drop(c);
    t.commit(Durability::Durable).unwrap();
    db.checkpoint().unwrap();
    drop(db);
    open_spanning(&mem, &counter).expect("clean database must open");

    let segments: Vec<(String, Vec<RecordKind>)> = mem
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("seg.") && !is_free_segment(&mem.raw(n).unwrap()))
        .map(|n| (n.clone(), record_kinds(&mem.raw(&n).unwrap())))
        .collect();
    assert!(
        segments.len() >= 4,
        "vault spans too few segments: {segments:?}"
    );
    let chunk_only = segments
        .iter()
        .find(|(_, kinds)| {
            kinds.contains(&RecordKind::ChunkData)
                && kinds
                    .iter()
                    .all(|k| matches!(k, RecordKind::ChunkData | RecordKind::NextSegment))
        })
        .map(|(n, _)| n.clone())
        .expect("a segment holding only chunk data");
    // The tail, where the checkpoint started the residual log, is the one
    // segment the log has not left yet.
    let residual = segments
        .iter()
        .filter(|(_, kinds)| !kinds.contains(&RecordKind::NextSegment))
        .map(|(n, _)| n.clone())
        .collect::<Vec<_>>();
    assert_eq!(residual.len(), 1, "{segments:?}");

    for name in [&chunk_only, &residual[0]] {
        let victim = mem.deep_clone();
        victim
            .open(name, false)
            .unwrap()
            .write_at(0, &[0u8; SEGMENT_HEADER_LEN as usize])
            .unwrap();
        match open_spanning(&victim, &counter) {
            Err(TdbError::Chunk(ChunkStoreError::TamperDetected(_))) => {}
            Err(e) => panic!("zeroing {name}'s header: expected TamperDetected, got {e}"),
            Ok(_) => panic!("zeroing {name}'s header went unnoticed"),
        }
    }
}

#[test]
fn cross_database_splicing_is_detected() {
    // Two databases under the same secret: splice a segment file from one
    // into the other. Hash/chain validation must catch it.
    let mem_a = MemStore::new();
    let counter_a = VolatileCounter::new();
    let payloads_a = build_database(&mem_a, &counter_a);
    let mem_b = MemStore::new();
    let counter_b = VolatileCounter::new();
    let _payloads_b = build_database(&mem_b, &counter_b);

    let victim = mem_a.deep_clone();
    let donor_seg = mem_b.raw("seg.000000").unwrap();
    victim
        .open("seg.000000", false)
        .unwrap()
        .set_len(0)
        .unwrap();
    victim
        .open("seg.000000", false)
        .unwrap()
        .write_at(0, &donor_seg)
        .unwrap();
    assert!(read_all(&victim, &counter_a, &payloads_a).is_err());
}

#[test]
fn error_types_are_distinguishable() {
    // The facade surfaces the paper's two distinct failure classes.
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let payloads = build_database(&mem, &counter);

    // Tamper: corrupt the log heavily.
    let copy = mem.deep_clone();
    for off in (0..copy.raw("seg.000000").unwrap().len()).step_by(11) {
        copy.corrupt("seg.000000", off as u64, 1).unwrap();
    }
    match Db::open(options(&copy, &counter)) {
        Err(TdbError::Chunk(ChunkStoreError::TamperDetected(_))) => {}
        other => panic!(
            "expected TamperDetected, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }

    // Replay: old image, advanced counter.
    let old = mem.deep_clone();
    counter.increment().unwrap();
    counter.increment().unwrap();
    match Db::open(options(&old, &counter)) {
        Err(TdbError::Chunk(ChunkStoreError::ReplayDetected { .. })) => {}
        other => panic!(
            "expected ReplayDetected, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }

    // Keep the variants nameable from the facade (compile-time check).
    let _ = |e: TdbError| match e {
        TdbError::Object(ObjectStoreError::LockTimeout(_)) => (),
        TdbError::Collection(CollectionError::IteratorConflict) => (),
        _ => (),
    };
    let _ = &payloads;
}

#[test]
fn ciphertext_leaks_nothing_across_whole_stack() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let payloads = build_database(&mem, &counter);
    for name in mem.list().unwrap() {
        let raw = mem.raw(&name).unwrap();
        for payload in &payloads {
            assert!(
                !raw.windows(12).any(|w| w == &payload[..12]),
                "payload fragment visible in {name}"
            );
        }
        // Even the collection/index names stay secret.
        assert!(
            !raw.windows(5).any(|w| w == b"vault"),
            "schema name visible in {name}"
        );
    }
}

/// The §3 replay attack, at both granularities the paper distinguishes.
/// Rolling the *whole store* back to a stale-but-internally-consistent
/// image is exactly what the one-way counter exists to defeat, and must be
/// reported as [`ChunkStoreError::ReplayDetected`] carrying both counter
/// values. Splicing a *single* stale segment back into an otherwise
/// current store breaks the Merkle/chain structure instead, and must
/// surface as generic tamper detection — never as a whole-database replay,
/// and never silently.
#[test]
fn stale_segment_replay_is_detected_and_distinguishable() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let mut payloads = build_database(&mem, &counter);

    // The attacker snapshots everything at time T0.
    let whole_t0 = mem.deep_clone();
    let files_t0: Vec<(String, Vec<u8>)> = mem
        .list()
        .unwrap()
        .into_iter()
        .map(|n| (n.clone(), mem.raw(&n).unwrap()))
        .collect();

    // The device moves on: durable updates advance the state and the
    // one-way counter.
    {
        let db = Db::open(options(&mem, &counter)).unwrap();
        for round in 0..4u64 {
            let t = db.begin();
            let c = t.write_collection("vault").unwrap();
            for id in 0..8u64 {
                let mut it = c.exact("by-id", &Key::U64(id)).unwrap();
                {
                    let sv = it.write::<SecretVal>().unwrap();
                    sv.get_mut().payload = format!("rotated-{round}-{id:04}").into_bytes();
                }
                it.close().unwrap();
            }
            drop(c);
            t.commit(Durability::Durable).unwrap();
        }
        db.checkpoint().unwrap();
    }
    for (id, payload) in payloads.iter_mut().enumerate().take(8) {
        *payload = format!("rotated-3-{id:04}").into_bytes();
    }
    read_all(&mem, &counter, &payloads).expect("advanced database must read");

    // Attack 1: restore the whole T0 image. Internally consistent, so only
    // the counter can give it away — as a replay, with both values named.
    match Db::open(options(&whole_t0, &counter)) {
        Err(TdbError::Chunk(ChunkStoreError::ReplayDetected {
            anchor_counter,
            hardware_counter,
        })) => {
            assert!(
                anchor_counter < hardware_counter,
                "stale anchor ({anchor_counter}) must trail the hardware \
                 counter ({hardware_counter})"
            );
        }
        other => panic!(
            "whole-store rollback: expected ReplayDetected, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }

    // Attack 2: restore just the segments that changed since T0, one at a
    // time. Each splice must be caught — but as tampering, not replay (the
    // anchor itself is current).
    let mut spliced = 0;
    for (name, old_bytes) in &files_t0 {
        if !name.starts_with("seg.") || mem.raw(name).unwrap() == *old_bytes {
            continue;
        }
        spliced += 1;
        let victim = mem.deep_clone();
        let f = victim.open(name, false).unwrap();
        f.set_len(0).unwrap();
        f.write_at(0, old_bytes).unwrap();

        match Db::open(options(&victim, &counter)) {
            Err(TdbError::Chunk(ChunkStoreError::ReplayDetected { .. })) => {
                panic!("splicing {name}: single-segment rollback misreported as replay")
            }
            Err(_) => {} // caught at open: generic tamper detection
            Ok(_) => {
                // Structure happened to validate; reading the data must
                // still catch the stale bytes.
                let e = read_all(&victim, &counter, &payloads)
                    .expect_err(&format!("splicing {name} went unnoticed"));
                assert!(!e.contains("SILENT"), "splicing {name}: {e}");
            }
        }
    }
    assert!(
        spliced > 0,
        "advancing the database must have rewritten some segment"
    );
}

/// Delete every anchor and root-of-roots slot from `mem`: what remains is
/// the log of a database whose trust anchor is gone.
fn wipe_anchors(mem: &MemStore) {
    let mut wiped = 0;
    for name in mem.list().unwrap() {
        // Shard files carry a `shard{k}--` prefix.
        let base = name.rsplit("--").next().unwrap();
        if base.starts_with("anchor.") || base.starts_with("rr.") {
            mem.remove(&name).unwrap();
            wiped += 1;
        }
    }
    assert!(wiped >= 2, "no anchor slots found to wipe");
}

/// Deleting the anchor of a durable database (the whole-database rollback
/// to "before creation") is refused as a replay at open — at one shard and
/// at two — instead of reopening as an empty database: the one-way counter
/// has advanced, so a database existed here.
#[test]
fn wiping_the_anchor_is_detected_as_replay() {
    for shards in [1, 2] {
        let mem = MemStore::new();
        let counter = VolatileCounter::new();
        let db = Db::open(options(&mem, &counter).shards(shards)).unwrap();
        let payloads = fill_vault(&db);
        drop(db);
        read_vault(options(&mem, &counter).shards(shards), &payloads)
            .expect("clean database must read");

        wipe_anchors(&mem);
        assert!(counter.read().unwrap() > 0);
        match Db::open(options(&mem, &counter).shards(shards)) {
            Err(e) => assert_eq!(e.kind(), ErrorKind::Replay, "{shards} shards: {e}"),
            Ok(_) => panic!("{shards} shards: a wiped anchor reopened as an empty database"),
        }
    }
}

/// The refusal keys on the counter, not on the missing anchor: an empty
/// store with a counter still at zero is a fresh device and creates.
#[test]
fn a_fresh_counter_still_creates() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    build_database(&mem, &counter);
    wipe_anchors(&mem);
    let fresh = VolatileCounter::new();
    let db = Db::open(options(&mem, &fresh)).expect("zero counter: create");
    let r = db.begin_read();
    assert!(matches!(
        r.read_collection("vault"),
        Err(CollectionError::NoSuchCollection(_))
    ));
    assert!(fresh.read().unwrap() > 0, "creation binds the new anchor");
}

/// Without security there is no counter binding to check: a wiped store
/// opens as a new, empty database, as it always has.
#[test]
fn security_off_wipe_still_opens_empty() {
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let off = || options(&mem, &counter).security(SecurityMode::Off);
    fill_vault(&Db::open(off()).unwrap());
    wipe_anchors(&mem);
    counter.increment().unwrap();
    let db = Db::open(off()).expect("SecurityMode::Off: create");
    let r = db.begin_read();
    assert!(matches!(
        r.read_collection("vault"),
        Err(CollectionError::NoSuchCollection(_))
    ));
}
