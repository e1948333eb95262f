//! The layer ladder: one seeded transfer stream replayed at each lower
//! public API on the run's own data.
//!
//! ```text
//! remote      RemoteDb over loopback            (transfer_remote only)
//! session     EmbeddedSession (dyn Session)
//! collection  CTransaction / Collection
//! object      object-store Transaction, by object id
//! chunk       ShardedChunkStore write batch, same chunk count and sizes
//! platform    write_at / sync / increment, same calls and bytes
//! ```
//!
//! Each rung does the work the rung above hands down: the object rung
//! updates the three records and inserts the history object the transfer
//! names, the chunk rung writes the four chunks that commit produces, the
//! platform rung replays the exact call sequence the chunk rung issued. A
//! layer's self time is its rung minus the rung below (see
//! [`crate::spans::ladder_self_times`]); what a layer *induces* further
//! down — index nodes the collection store touches, map pages the chunk
//! store appends — is therefore part of that layer's self time. tdb-crypto
//! and tdb-wire are timed on the same byte counts and frames.
//!
//! Rungs run single-threaded after the window, so they price service time,
//! not queueing.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use tdb::session::{modify_bytes, to_bytes};
use tdb::{ChunkId, Durability, Error, ErrorKind, Key, ObjectId, Session, TdbError};
use tdb_client::RemoteDb;
use tdb_wire::{Request, Response};

use crate::counting::{Counts, Event};
use crate::driver::Client;
use crate::gen::{self, Mix, Op, Transfer};
use crate::schema::{self, History, Record, ACCOUNT, BRANCH, HISTORY, INDEX, TELLER};
use crate::spans::Rung;
use crate::stats::median;
use crate::workload::Env;

/// What the ladder measured.
pub struct Ladder {
    /// Top to bottom.
    pub rungs: Vec<Rung>,
    /// CBC + SHA-256 + HMAC over one transfer's chunk bytes.
    pub crypto_seal_us: f64,
    /// Encode + decode of one transfer's request and response frames.
    pub wire_codec_us: f64,
    pub aes_mb_per_s: f64,
    pub sha256_mb_per_s: f64,
    /// The transfers every rung replayed, and how many rungs committed
    /// them through the collections (balances *and* history); the object
    /// rung moved the balances once more without a history entry. The
    /// oracle's model needs both to stay in step with the database.
    pub replayed: Vec<Transfer>,
    pub history_rungs: usize,
}

impl Ladder {
    pub fn rung(&self, layer: &str) -> f64 {
        self.rungs
            .iter()
            .find(|r| r.layer == layer)
            .map_or(0.0, |r| r.us_per_op)
    }
}

fn terr(e: impl Into<TdbError>) -> Error {
    Error::from(e.into())
}

fn key(id: u32) -> Key {
    Key::U64(u64::from(id))
}

fn median_us(durations_ns: &[u64]) -> f64 {
    let us: Vec<f64> = durations_ns.iter().map(|&d| d as f64 / 1e3).collect();
    median(&us)
}

fn timed(f: impl FnOnce() -> Result<(), Error>) -> Result<u64, Error> {
    let began = Instant::now();
    f()?;
    Ok(began.elapsed().as_nanos() as u64)
}

/// A transfer through a `Session`, with the production driver.
struct SessionRung {
    layer: &'static str,
    client: Client,
    durations: Vec<u64>,
}

impl SessionRung {
    /// `lane` keeps the rung's history ids clear of the clients'.
    fn new(
        layer: &'static str,
        session: Box<dyn Session>,
        transfers: &[Transfer],
        lane: u32,
        accounts: u32,
    ) -> SessionRung {
        let ops = transfers.iter().map(|t| Op::Transfer(*t)).collect();
        SessionRung {
            layer,
            client: Client::new(session, ops, lane, accounts),
            durations: Vec::with_capacity(transfers.len()),
        }
    }

    fn step(&mut self) -> Result<(), Error> {
        let client = &mut self.client;
        let ns = timed(|| {
            client.run_ops(1);
            match client.log.errors.first() {
                Some(e) => Err(Error::new(
                    ErrorKind::Other,
                    format!("ladder transfer: {e}"),
                )),
                None => Ok(()),
            }
        })?;
        self.durations.push(ns);
        Ok(())
    }

    fn rung(&self) -> Rung {
        Rung {
            layer: self.layer,
            us_per_op: median_us(&self.durations),
        }
    }
}

/// Replays platform calls — the same files, offsets, sizes and order — on
/// fresh substrates of the same kind as the run's.
struct PlatformReplay {
    store: Arc<dyn tdb::platform::UntrustedStore>,
    counter: Arc<dyn tdb::platform::OneWayCounter>,
    /// Scratch files by the event's file index, opened on first use.
    files: Vec<Option<Box<dyn tdb::platform::RandomAccessFile>>>,
    buf: Vec<u8>,
}

impl PlatformReplay {
    fn new(env: &Env) -> Result<PlatformReplay, Error> {
        let (store, counter) = env.backing.scratch_substrates()?;
        Ok(PlatformReplay {
            store,
            counter,
            files: Vec::new(),
            buf: Vec::new(),
        })
    }

    /// Open every file the events name (outside the timed replay).
    fn prepare(&mut self, events: &[Event], counts: &Counts) -> Result<(), Error> {
        for e in events {
            let (Event::Write { file, .. } | Event::SetLen { file, .. } | Event::Sync { file }) =
                *e
            else {
                continue;
            };
            let file = file as usize;
            if self.files.len() <= file {
                self.files.resize_with(file + 1, || None);
            }
            if self.files[file].is_none() {
                let name = counts.file_name(file as u32);
                self.files[file] = Some(self.store.open(&name, true).map_err(perr)?);
            }
            if let Event::Write { len, .. } = *e {
                if self.buf.len() < len as usize {
                    self.buf.resize(len as usize, 0xA5);
                }
            }
        }
        Ok(())
    }

    fn replay(&mut self, events: &[Event]) -> Result<(), Error> {
        let file = |i: u32| self.files[i as usize].as_ref().expect("prepared");
        for e in events {
            match *e {
                Event::Write {
                    file: f,
                    offset,
                    len,
                } => file(f)
                    .write_at(offset, &self.buf[..len as usize])
                    .map_err(perr)?,
                Event::SetLen { file: f, len } => file(f).set_len(len).map_err(perr)?,
                Event::Sync { file: f } => file(f).sync().map_err(perr)?,
                Event::Increment => {
                    self.counter.increment().map_err(perr)?;
                }
            }
        }
        Ok(())
    }
}

fn perr(e: tdb::platform::PlatformError) -> Error {
    Error::new(ErrorKind::Io, e.to_string())
}

pub fn run(env: &Env, seed: u64) -> Result<Ladder, Error> {
    let spec = &env.spec;
    let n = spec.ladder_ops;
    let transfers: Vec<Transfer> = gen::stream(Mix::Transfer, spec.sizes, seed, 1_000, n)
        .into_iter()
        .map(|op| match op {
            Op::Transfer(t) => t,
            _ => unreachable!("the transfer mix generates only transfers"),
        })
        .collect();
    let layers = env.db.layers();
    let classes = layers.object_store().classes();
    let record = to_bytes(&Record::new(0));
    let history = |lane: u32, i: usize, t: &Transfer| {
        to_bytes(&History::new(
            (lane << 28) + i as u32,
            t.account,
            t.teller,
            t.branch,
            t.delta,
        ))
    };

    let mut remote = match &env.server {
        Some(server) => {
            let addr = server.local_addr().to_string();
            let session = RemoteDb::connect(&addr, "ladder", schema::classes())?;
            Some(SessionRung::new(
                "remote",
                Box::new(session),
                &transfers,
                15,
                spec.sizes.accounts,
            ))
        }
        None => None,
    };
    let mut session = SessionRung::new(
        "session",
        Box::new(env.db.session()),
        &transfers,
        14,
        spec.sizes.accounts,
    );

    // collection rung: the calls EmbeddedSession makes, made directly — a
    // fresh write_collection handle per call, bytes in and out.
    let collection_op = |i: usize, t: &Transfer| -> Result<(), Error> {
        let ct = layers.begin();
        for (table, id) in [(ACCOUNT, t.account), (TELLER, t.teller), (BRANCH, t.branch)] {
            let ids = ct
                .write_collection(table)
                .map_err(terr)?
                .lookup_ids(INDEX, &key(id))
                .map_err(terr)?;
            let oid = ids[0];
            let bytes = ct
                .write_collection(table)
                .map_err(terr)?
                .get_for_update(oid)
                .map_err(terr)?;
            let updated = modify_bytes::<Record>(classes, &bytes, |r| r.balance += t.delta)?;
            ct.write_collection(table)
                .map_err(terr)?
                .update_object_bytes(oid, &updated)
                .map_err(terr)?;
        }
        ct.write_collection(HISTORY)
            .map_err(terr)?
            .insert_bytes(&history(13, i, t))
            .map_err(terr)?;
        ct.commit(Durability::Durable).map_err(terr)
    };

    // object rung: the three records by object id (resolved up front) and
    // the history object, below the collections.
    let oids: Vec<[ObjectId; 3]> = {
        let reader = env.db.session();
        let r = reader.begin_read()?;
        let mut oids = Vec::with_capacity(n);
        for t in &transfers {
            let mut triple = [ChunkId(0); 3];
            for (slot, (table, id)) in triple.iter_mut().zip([
                (ACCOUNT, t.account),
                (TELLER, t.teller),
                (BRANCH, t.branch),
            ]) {
                *slot = r.exact(table, INDEX, &key(id))?[0];
            }
            oids.push(triple);
        }
        r.finish()?;
        oids
    };
    let objects = layers.object_store();
    let object_op = |i: usize, t: &Transfer| -> Result<(), Error> {
        let tx = objects.begin();
        for oid in oids[i] {
            let bytes = tx.open_writable_bytes(oid).map_err(terr)?;
            let updated = modify_bytes::<Record>(classes, &bytes, |r| r.balance += t.delta)?;
            tx.replace_bytes(oid, &updated).map_err(terr)?;
        }
        let obj = tx.unpickle(&history(12, i, t)).map_err(terr)?;
        tx.insert(obj).map_err(terr)?;
        tx.commit(Durability::Durable).map_err(terr)
    };

    // chunk rung: three overwrites and one new chunk per op, the sizes the
    // object rung pickles. A pool of the benchmark's own chunks stands in
    // for the records (their ids spread over the shards as record ids do).
    const POOL: usize = 64;
    let chunks = layers.chunk_store();
    let pool: Vec<ChunkId> = {
        let mut batch = chunks.begin_batch();
        let mut pool = Vec::with_capacity(POOL);
        for _ in 0..POOL {
            let cid = batch.allocate_chunk_id().map_err(terr)?;
            batch.write(cid, &record).map_err(terr)?;
            pool.push(cid);
        }
        chunks
            .commit_batch(batch, Durability::Durable)
            .map_err(terr)?;
        pool
    };
    let chunk_op = |i: usize, t: &Transfer| -> Result<(), Error> {
        let mut batch = chunks.begin_batch();
        let a = t.account as usize % POOL;
        let picks = [
            a,
            (a + 1 + t.teller as usize % 20) % POOL,
            (a + 21 + t.branch as usize % 20) % POOL,
        ];
        for p in picks {
            batch.write(pool[p], &record).map_err(terr)?;
        }
        let cid = batch.allocate_chunk_id().map_err(terr)?;
        batch.write(cid, &history(11, i, t)).map_err(terr)?;
        chunks
            .commit_batch(batch, Durability::Durable)
            .map_err(terr)
    };

    // platform rung: whatever the chunk rung's op made the substrates do
    // (maintenance traffic that fell into it included), replayed at once.
    let mut platform = PlatformReplay::new(env)?;
    let counts = env.counts.as_ref();

    // One transfer goes down every rung before the next one starts, so all
    // rungs see the same machine: the same cleaner phase, the same noisy
    // neighbour. Rung-by-rung, drift between rungs would swamp the
    // differences the ladder exists to show.
    let [mut collection_ns, mut object_ns, mut chunk_ns, mut platform_ns] =
        [(); 4].map(|_| Vec::with_capacity(n));
    for (i, t) in transfers.iter().enumerate() {
        if let Some(remote) = &mut remote {
            remote.step()?;
        }
        session.step()?;
        collection_ns.push(timed(|| collection_op(i, t))?);
        object_ns.push(timed(|| object_op(i, t))?);
        if let Some(c) = counts {
            c.start_log();
        }
        chunk_ns.push(timed(|| chunk_op(i, t))?);
        let events = counts.map(|c| c.take_log()).unwrap_or_default();
        if let Some(c) = counts {
            platform.prepare(&events, c)?;
        }
        platform_ns.push(timed(|| platform.replay(&events))?);
    }

    let mut rungs: Vec<Rung> = remote.iter().map(SessionRung::rung).collect();
    rungs.push(session.rung());
    for (layer, ns) in [
        ("collection", &collection_ns),
        ("object", &object_ns),
        ("chunk", &chunk_ns),
        ("platform", &platform_ns),
    ] {
        rungs.push(Rung {
            layer,
            us_per_op: median_us(ns),
        });
    }

    // One transfer's chunk payloads through the primitives the seal uses.
    let sample_history = history(11, 0, &transfers[0]);
    let payloads = [&record[..], &record[..], &record[..], &sample_history[..]];
    let aes = tdb_crypto::Aes128::new(&[7u8; 16]);
    let iv = [3u8; 16];
    let mac_key = [9u8; 32];
    let began = Instant::now();
    for _ in 0..n {
        let mut digests = Vec::with_capacity(payloads.len() * 32);
        for p in payloads {
            let sealed = tdb_crypto::cbc_encrypt(&aes, &iv, black_box(p));
            digests.extend_from_slice(&tdb_crypto::sha256(&sealed));
        }
        black_box(tdb_crypto::hmac_sha256(&mac_key, &digests));
    }
    let crypto_seal_us = began.elapsed().as_secs_f64() * 1e6 / n as f64;

    let bulk = vec![0x5Au8; 1 << 20];
    let began = Instant::now();
    black_box(tdb_crypto::cbc_encrypt(&aes, &iv, black_box(&bulk)));
    let aes_mb_per_s = 1.0 / began.elapsed().as_secs_f64();
    let began = Instant::now();
    black_box(tdb_crypto::sha256(black_box(&bulk)));
    let sha256_mb_per_s = 1.0 / began.elapsed().as_secs_f64();

    let history_rungs = rungs
        .iter()
        .filter(|r| matches!(r.layer, "remote" | "session" | "collection"))
        .count();
    Ok(Ladder {
        history_rungs,
        rungs,
        crypto_seal_us,
        wire_codec_us: wire_codec_us(&record, &sample_history, n),
        aes_mb_per_s,
        sha256_mb_per_s,
        replayed: transfers,
    })
}

/// The twelve request and twelve response frames of one remote transfer,
/// encoded and decoded once each (what client and server do between them).
fn wire_codec_us(record: &[u8], history: &[u8], iterations: usize) -> f64 {
    let oid = ChunkId(12_345);
    let mut requests = vec![Request::Begin];
    let mut responses = vec![Response::Ok];
    for table in [ACCOUNT, TELLER, BRANCH] {
        requests.push(Request::LookupIds {
            coll: table.to_string(),
            index: INDEX.to_string(),
            key: key(12_345),
        });
        responses.push(Response::Ids(vec![oid]));
        requests.push(Request::GetForUpdate {
            coll: table.to_string(),
            oid,
        });
        responses.push(Response::Bytes(record.to_vec()));
        requests.push(Request::WriteBack {
            coll: table.to_string(),
            oid,
            bytes: record.to_vec(),
        });
        responses.push(Response::Ok);
    }
    requests.push(Request::Insert {
        coll: HISTORY.to_string(),
        bytes: history.to_vec(),
    });
    responses.push(Response::Id(oid));
    requests.push(Request::Commit(Durability::Durable));
    responses.push(Response::Ok);

    let began = Instant::now();
    for _ in 0..iterations {
        for r in &requests {
            black_box(Request::decode(&black_box(r).encode()).expect("request round-trips"));
        }
        for r in &responses {
            black_box(Response::decode(&black_box(r).encode()).expect("response round-trips"));
        }
    }
    began.elapsed().as_secs_f64() * 1e6 / iterations.max(1) as f64
}
