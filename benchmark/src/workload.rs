//! The five workloads and their set-up: open, load, checkpoint, start the
//! server and connect, warm up.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tdb::platform::{
    DirStore, FileCounter, MemSecretStore, MemStore, OneWayCounter, UntrustedStore, VolatileCounter,
};
use tdb::session::to_bytes;
use tdb::{Db, Durability, Error, ErrorKind, IndexKind, Options, Session, StoreOptions};
use tdb_client::RemoteDb;
use tdb_server::{Server, ServerConfig};

use crate::counting::{CountingCounter, CountingStore, Counts};
use crate::driver::Client;
use crate::gen::{self, Mix, Sizes};
use crate::oracle::Model;
use crate::schema::{self, History, Record, ACCOUNT, BRANCH, HISTORY, TELLER};

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (one line; also in BENCHMARK.json).
    pub why: &'static str,
    /// Closed-loop clients, before the `min(.., nproc)` cap.
    pub clients: usize,
    pub sizes: Sizes,
    /// Index kind of the account table (teller and branch are hash).
    pub account_index: IndexKind,
    pub mix: Mix,
    /// `DirStore` + `FileCounter` in a temporary directory instead of
    /// `MemStore` + `VolatileCounter`.
    pub on_disk: bool,
    pub shards: usize,
    /// Clients are `RemoteDb` connections to an in-process `tdb-server`.
    pub remote: bool,
    /// Object cache budget in bytes.
    pub cache_bytes: usize,
    /// Operations run (across all clients) before the window opens.
    pub warmup_ops: usize,
    /// Length of each client's generated stream; a client that outruns it
    /// wraps around.
    pub stream_len: usize,
    /// Transfers replayed per ladder rung.
    pub ladder_ops: usize,
}

pub const NAMES: [&str; 5] = [
    "transfer_mem",
    "transfer_durable",
    "transfer_remote",
    "read_cold",
    "proof_lookup",
];

const TRANSFER_SIZES: Sizes = Sizes {
    accounts: 20_000,
    tellers: 200,
    branches: 20,
};

/// `read_cold`'s object cache is the account table's pickled bytes divided
/// by this. Snapshot readers probe the cache but never fill it, so record
/// reads miss at any size; what the size decides is how much of the B-tree
/// stays resident. At 1/8 every index node does and `cache.hit_ratio` is
/// 0.89; at 1/64 the leaves miss too and it is 0.75, inside the [0.3, 0.8]
/// the workload is meant to sit in.
const READ_COLD_CACHE_DIVISOR: usize = 64;

/// Pickled size of one account/teller/branch record.
pub fn record_bytes() -> usize {
    to_bytes(&Record::new(0)).len()
}

/// Pickled size of one history record.
pub fn history_bytes() -> usize {
    to_bytes(&History::new(0, 0, 0, 0, 0)).len()
}

/// The workload named `name`; `quick` shrinks tables and streams so the
/// package's own tests can run every workload in seconds.
pub fn spec(name: &str, quick: bool) -> Option<Spec> {
    let mut spec = match name {
        "transfer_mem" => Spec {
            name: "transfer_mem",
            why: "1 embedded client, in-memory store, data fits the cache: collection/object/chunk CPU and crypto do the work, platform and network none",
            clients: 1,
            sizes: TRANSFER_SIZES,
            account_index: IndexKind::Hash,
            mix: Mix::Transfer,
            on_disk: false,
            shards: 1,
            remote: false,
            cache_bytes: 16 << 20,
            warmup_ops: 2_000,
            stream_len: 600_000,
            ladder_ops: 2_000,
        },
        "transfer_durable" => Spec {
            name: "transfer_durable",
            why: "2 embedded clients, directory store + file counter, 2 shards: fsync, group commit, 2PL waits and cross-shard commits dominate; crypto is a small share",
            clients: 2,
            sizes: TRANSFER_SIZES,
            account_index: IndexKind::Hash,
            mix: Mix::Transfer,
            on_disk: true,
            shards: 2,
            remote: false,
            cache_bytes: 16 << 20,
            warmup_ops: 200,
            stream_len: 60_000,
            ladder_ops: 300,
        },
        "transfer_remote" => Spec {
            name: "transfer_remote",
            why: "2 RemoteDb connections over loopback to an in-process server on the transfer_mem store: ~12 round trips per transfer make client/wire/server the cost",
            clients: 2,
            sizes: TRANSFER_SIZES,
            account_index: IndexKind::Hash,
            mix: Mix::Transfer,
            on_disk: false,
            shards: 1,
            remote: true,
            cache_bytes: 16 << 20,
            warmup_ops: 500,
            stream_len: 150_000,
            ladder_ops: 500,
        },
        "read_cold" => {
            let accounts = 100_000;
            Spec {
                name: "read_cold",
                why: "1 embedded client, 100k accounts under a B-tree, cache = 1/64 of the table, Zipf(0.9): 90% snapshot reads + 10% transfers exercise misses, chunk reads, decrypt and validation",
                clients: 1,
                sizes: Sizes {
                    accounts,
                    tellers: 200,
                    branches: 20,
                },
                account_index: IndexKind::BTree,
                mix: Mix::ReadMostly,
                on_disk: false,
                shards: 1,
                remote: false,
                cache_bytes: accounts as usize * record_bytes() / READ_COLD_CACHE_DIVISOR,
                warmup_ops: 5_000,
                stream_len: 600_000,
                ladder_ops: 1_000,
            }
        }
        "proof_lookup" => Spec {
            name: "proof_lookup",
            why: "1 embedded client, 10k-entry unique B-tree: verified lookups (keyed proof + chunk proof, 20% absent) with a commit every 20, so tdb-proof and the keyed-index path do the work",
            clients: 1,
            sizes: Sizes {
                accounts: 10_000,
                tellers: 200,
                branches: 20,
            },
            account_index: IndexKind::BTree,
            mix: Mix::ProofLookup,
            on_disk: false,
            shards: 1,
            remote: false,
            cache_bytes: 16 << 20,
            warmup_ops: 42,
            stream_len: 21_000,
            ladder_ops: 1_000,
        },
        _ => return None,
    };
    if quick {
        spec.sizes.accounts = (spec.sizes.accounts / 20).max(gen::RANGE_LEN * 2);
        spec.sizes.tellers = 20;
        spec.sizes.branches = 4;
        if spec.name == "read_cold" {
            spec.cache_bytes =
                spec.sizes.accounts as usize * record_bytes() / READ_COLD_CACHE_DIVISOR;
        }
        spec.warmup_ops = spec.warmup_ops.min(100);
        spec.stream_len /= 10;
        spec.ladder_ops = spec.ladder_ops.min(100);
    }
    Some(spec)
}

impl Spec {
    /// Client threads/connections: never more than the box has CPUs.
    pub fn client_count(&self) -> usize {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.clients.min(nproc).max(1)
    }

    /// Pickled user bytes the loaded tables hold (no history yet).
    pub fn loaded_user_bytes(&self) -> u64 {
        let records = u64::from(self.sizes.accounts + self.sizes.tellers + self.sizes.branches);
        records * record_bytes() as u64
    }
}

/// The two platform substrates the benchmark chooses (the secret store is
/// the same in-memory label everywhere).
type Substrates = (Arc<dyn UntrustedStore>, Arc<dyn OneWayCounter>);

/// Where the untrusted store lives, kept so the run can reopen it.
pub enum Backing {
    Mem {
        store: MemStore,
        counter: VolatileCounter,
    },
    Dir {
        dir: PathBuf,
    },
}

impl Backing {
    pub fn fresh(spec: &Spec, scratch: &Path) -> std::io::Result<Backing> {
        if spec.on_disk {
            std::fs::create_dir_all(scratch)?;
            Ok(Backing::Dir {
                dir: scratch.to_path_buf(),
            })
        } else {
            Ok(Backing::Mem {
                store: MemStore::new(),
                counter: VolatileCounter::new(),
            })
        }
    }

    fn substrates(&self) -> Result<Substrates, Error> {
        let io = |e: tdb::platform::PlatformError| Error::new(ErrorKind::Io, e.to_string());
        Ok(match self {
            Backing::Mem { store, counter } => (Arc::new(store.clone()), Arc::new(counter.clone())),
            Backing::Dir { dir } => (
                Arc::new(DirStore::new(dir.join("store")).map_err(io)?),
                Arc::new(FileCounter::open(dir.join("counter")).map_err(io)?),
            ),
        })
    }

    /// Fresh substrates of the same kind, for the ladder's platform rung.
    pub fn scratch_substrates(&self) -> Result<Substrates, Error> {
        match self {
            Backing::Mem { .. } => Backing::Mem {
                store: MemStore::new(),
                counter: VolatileCounter::new(),
            }
            .substrates(),
            Backing::Dir { dir } => {
                let scratch = dir.join("ladder");
                std::fs::create_dir_all(&scratch)
                    .map_err(|e| Error::new(ErrorKind::Io, e.to_string()))?;
                Backing::Dir { dir: scratch }.substrates()
            }
        }
    }

    /// Open (or create) the database on this backing. With `counts`, the
    /// substrates are wrapped in the counting decorators (traced run).
    pub fn open(&self, spec: &Spec, counts: Option<&Arc<Counts>>) -> Result<Db, Error> {
        let (mut store, mut counter) = self.substrates()?;
        if let Some(counts) = counts {
            store = Arc::new(CountingStore::new(store, counts.clone()));
            counter = Arc::new(CountingCounter::new(counter, counts.clone()));
        }
        // SecurityMode::Full, max_utilization 0.60 and background
        // maintenance are the chunk store's defaults; the benchmark states
        // them by not overriding them.
        let options = Options::in_memory()
            .with_substrates(store, MemSecretStore::from_label("tdb-benchmark"), counter)
            .classes(schema::classes())
            .extractors(schema::extractors())
            .shards(spec.shards)
            .store_options(StoreOptions::new().cache_bytes(spec.cache_bytes));
        Db::open(options).map_err(Error::from)
    }
}

/// A set-up system ready for its window.
pub struct Env {
    pub spec: Spec,
    pub backing: Backing,
    pub db: Db,
    pub server: Option<Server>,
    pub clients: Vec<Client>,
    pub counts: Option<Arc<Counts>>,
    /// Expected balances and history count, warm-up included.
    pub model: Model,
    pub setup_s: f64,
}

/// Bulk-load the four tables through an embedded session.
fn load(session: &dyn Session, spec: &Spec) -> Result<(), Error> {
    let tables = [
        (
            ACCOUNT,
            spec.sizes.accounts,
            schema::record_index(spec.account_index),
        ),
        (
            TELLER,
            spec.sizes.tellers,
            schema::record_index(IndexKind::Hash),
        ),
        (
            BRANCH,
            spec.sizes.branches,
            schema::record_index(IndexKind::Hash),
        ),
        (HISTORY, 0, schema::history_index()),
    ];
    for (table, size, index) in tables {
        let t = session.begin()?;
        t.ensure_collection(table, &[index])?;
        t.commit(Durability::Durable)?;
        let mut id = 0;
        while id < size {
            let t = session.begin()?;
            let end = (id + 2_000).min(size);
            while id < end {
                t.insert(table, &to_bytes(&Record::new(id)))?;
                id += 1;
            }
            t.commit(Durability::Durable)?;
        }
    }
    Ok(())
}

impl Env {
    /// Open + load + checkpoint + server start/connect + warm-up, timed as
    /// `setup_s`. `scratch` is a directory of the run's own (used only by
    /// on-disk workloads).
    pub fn set_up(spec: Spec, seed: u64, scratch: &Path, traced: bool) -> Result<Env, Error> {
        let began = Instant::now();
        let io = |e: std::io::Error| Error::new(ErrorKind::Io, e.to_string());
        let backing = Backing::fresh(&spec, scratch).map_err(io)?;
        let counts = traced.then(|| Arc::new(Counts::default()));
        let db = backing.open(&spec, counts.as_ref())?;
        load(&db.session(), &spec)?;
        db.checkpoint().map_err(Error::from)?;

        let n = spec.client_count();
        let server = if spec.remote {
            Some(Server::start(db.session(), ServerConfig::default()).map_err(io)?)
        } else {
            None
        };
        let mut clients = Vec::with_capacity(n);
        for lane in 0..n {
            let session: Box<dyn Session> = match &server {
                Some(server) => Box::new(RemoteDb::connect(
                    &server.local_addr().to_string(),
                    "benchmark",
                    schema::classes(),
                )?),
                None => Box::new(db.session()),
            };
            let ops = gen::stream(spec.mix, spec.sizes, seed, lane as u64, spec.stream_len);
            let mut client = Client::new(session, ops, lane as u32, spec.sizes.accounts);
            if spec.mix == Mix::ProofLookup {
                client.refresh_verifier()?;
            }
            clients.push(client);
        }

        let mut model = Model::new(spec.sizes);
        for client in &mut clients {
            client.run_ops(spec.warmup_ops / n);
            if client.log.failed > 0 {
                return Err(Error::new(
                    ErrorKind::Other,
                    format!("warm-up failed: {}", client.log.errors.join("; ")),
                ));
            }
            model.apply(&client.log.committed);
        }
        Ok(Env {
            spec,
            backing,
            db,
            server,
            clients,
            counts,
            model,
            setup_s: began.elapsed().as_secs_f64(),
        })
    }

    /// Stop the server (if any), drop every handle on the database, and
    /// return what is needed to reopen it.
    pub fn tear_down(self) -> (Spec, Backing, Option<Arc<Counts>>, Model) {
        let Env {
            spec,
            backing,
            db,
            server,
            clients,
            counts,
            model,
            ..
        } = self;
        drop(clients);
        if let Some(server) = server {
            server.shutdown();
        }
        drop(db);
        (spec, backing, counts, model)
    }
}
