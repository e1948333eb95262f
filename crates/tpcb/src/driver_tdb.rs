//! TPC-B driver for TDB, written against the transport-agnostic
//! [`Session`] API.
//!
//! Account/Teller/Branch get a unique **dynamic hash** index on id (keyed
//! access, paper Fig. 7 style); History gets a **list** index (append-only
//! audit records, enumerated by scan) — the same access-method choices the
//! paper's driver inherits from Berkeley DB's TPC-B implementation.
//!
//! The driver does not care which backend is underneath: built with
//! [`TdbDriver::new`] it runs embedded
//! (every call a plain function call); built with
//! [`TdbDriver::over_session`] it runs against whatever [`Session`] you
//! hand it — e.g. a `tdb_client::RemoteDb` talking to a `tdb-server`.
//! Transfers are read-modify-writes through the byte-level session
//! boundary: `lookup_ids` → `get_for_update` (exclusive lock + pickled
//! bytes) → [`modify_bytes`] → `write_back`.

use crate::runner::{ParallelTpcbSystem, TpcbSystem, TpcbWorker};
use crate::schema::{register_tpcb_classes, register_tpcb_extractors, HistoryRecord, TpcbRecord};
use tdb::session::{modify_bytes, to_bytes, with_bytes};
use tdb::{
    ClassRegistry, Db, Durability, Error, ExtractorRegistry, IndexKind, IndexSpec, Key, Options,
    Session,
};
use tdb_obs::RegistrySnapshot;

/// TDB under the TPC-B workload, over any [`Session`] backend.
pub struct TdbDriver {
    session: Box<dyn Session>,
    /// Retained only by the embedded constructors, for telemetry access
    /// the session API deliberately does not expose
    /// ([`TdbDriver::database`], [`TdbDriver::measured_obs`]).
    db: Option<Db>,
    /// Commit durability (the paper's runs are durable).
    pub durable: bool,
    /// Observability snapshot taken when [`TpcbSystem::load`] finished —
    /// the zero point of the measured run. Loading issues its own durable
    /// commits (schema creation, bulk-load batches, the closing
    /// checkpoint); without subtracting them, per-commit telemetry such as
    /// `commit.group_size` reports more laps than the benchmark ran
    /// transactions.
    load_baseline: Option<RegistrySnapshot>,
}

impl TdbDriver {
    /// Open the database `options` describes, with the TPC-B classes and
    /// extractors registered in place of any it carries (embedded backend).
    pub fn new(options: Options) -> Self {
        let mut classes = ClassRegistry::new();
        register_tpcb_classes(&mut classes);
        let mut extractors = ExtractorRegistry::new();
        register_tpcb_extractors(&mut extractors);
        let db = Db::open(options.classes(classes).extractors(extractors)).unwrap();
        TdbDriver {
            session: Box::new(db.session()),
            db: Some(db),
            durable: true,
            load_baseline: None,
        }
    }

    /// Build over an already-connected [`Session`] backend (e.g. a
    /// `tdb_client::RemoteDb`). The session's class registry must include
    /// the TPC-B classes.
    pub fn over_session(session: Box<dyn Session>) -> Self {
        TdbDriver {
            session,
            db: None,
            durable: true,
            load_baseline: None,
        }
    }

    /// The session backend the driver runs over.
    pub fn session(&self) -> &dyn Session {
        &*self.session
    }

    /// The database (post-run inspection). Only available on the embedded
    /// backend — a remote driver has no in-process database handle.
    pub fn database(&self) -> &Db {
        self.db
            .as_ref()
            .expect("driver runs over a remote session; no embedded database handle")
    }

    /// The measured run's observability snapshot: everything recorded
    /// since [`TpcbSystem::load`] returned (the snapshot includes both the
    /// aggregate and, on a sharded store, the `shard{k}.`-prefixed
    /// instruments). Before `load` completes this is the whole-lifetime
    /// snapshot. Embedded backend only.
    pub fn measured_obs(&self) -> RegistrySnapshot {
        let now = self.database().chunk_store().obs_snapshot();
        match &self.load_baseline {
            Some(base) => now.since(base),
            None => now,
        }
    }
}

/// One fallible transfer attempt; aborts the transaction on any error so
/// the caller can retry (lock-contention timeouts) or fail.
fn try_transfer(
    session: &dyn Session,
    durable: bool,
    account: u32,
    teller: u32,
    branch: u32,
    delta: i64,
    hist_id: u32,
) -> Result<(), Error> {
    let classes = session.classes();
    let t = session.begin()?;
    let staged = (|| -> Result<(), Error> {
        for (table, id) in [("account", account), ("teller", teller), ("branch", branch)] {
            let ids = t.lookup_ids(table, "by-id", &Key::U64(id as u64))?;
            let oid = *ids.first().unwrap_or_else(|| {
                panic!("{table} record {id} missing");
            });
            let bytes = t.get_for_update(table, oid)?;
            let updated = modify_bytes::<TpcbRecord>(classes, &bytes, |rec| {
                rec.balance += delta;
            })?;
            t.write_back(table, oid, &updated)?;
        }
        let history = HistoryRecord::new(hist_id, account, teller, branch, delta);
        t.insert("history", &to_bytes(&history))?;
        Ok(())
    })();
    match staged {
        Ok(()) => t.commit(Durability::from(durable)),
        Err(e) => {
            let _ = t.abort();
            Err(e)
        }
    }
}

/// A transfer with the contention-retry loop both the serial and the
/// threaded paths share. Public so external harnesses (the server bench)
/// can drive the exact production transfer against any backend.
///
/// Transfers acquire locks in a globally consistent class order
/// (account → teller → branch → history), so concurrent workers can
/// contend but never deadlock; retryable errors ([`Error::is_retryable`]:
/// lock timeouts, deadlock victims) are pure contention and safe to
/// retry. Any other error is a real failure.
pub fn transfer_with_retry(
    session: &dyn Session,
    durable: bool,
    account: u32,
    teller: u32,
    branch: u32,
    delta: i64,
    hist_id: u32,
) {
    let mut attempt = 0u32;
    loop {
        match try_transfer(session, durable, account, teller, branch, delta, hist_id) {
            Ok(()) => return,
            Err(e) if e.is_retryable() => {
                // Jittered backoff before retrying: contending workers
                // that timed out together would otherwise retry in
                // lockstep and recreate the same conflict. The jitter
                // is a hash of (transfer, attempt) so each worker's
                // delay differs deterministically.
                attempt += 1;
                let h = (u64::from(hist_id) << 32 | u64::from(attempt))
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let cap = 1u64 << attempt.min(6); // 2..64 "slots"
                std::thread::sleep(std::time::Duration::from_micros((h >> 32) % (cap * 50) + 1));
            }
            Err(e) => panic!("TPC-B transfer failed: {e}"),
        }
    }
}

/// A concurrent benchmark worker over its own forked session.
pub struct TdbWorker {
    session: Box<dyn Session>,
    durable: bool,
}

impl TpcbWorker for TdbWorker {
    fn transaction(&mut self, account: u32, teller: u32, branch: u32, delta: i64, hist_id: u32) {
        transfer_with_retry(
            &*self.session,
            self.durable,
            account,
            teller,
            branch,
            delta,
            hist_id,
        );
    }
}

impl ParallelTpcbSystem for TdbDriver {
    fn worker(&self) -> Box<dyn TpcbWorker> {
        Box::new(TdbWorker {
            session: self.session.fork().expect("fork benchmark session"),
            durable: self.durable,
        })
    }
}

impl TpcbSystem for TdbDriver {
    fn load(&mut self, accounts: u32, tellers: u32, branches: u32, history: u32) {
        let tables: [(&str, u32, IndexKind); 4] = [
            ("account", accounts, IndexKind::Hash),
            ("teller", tellers, IndexKind::Hash),
            ("branch", branches, IndexKind::Hash),
            ("history", history, IndexKind::List),
        ];
        for (name, size, kind) in tables {
            let extractor = if name == "history" {
                "tpcb.history.id"
            } else {
                "tpcb.id"
            };
            // History is an append-only audit trail: ids are generated
            // unique by the driver, so paying a uniqueness check (a linear
            // probe on a list index) per insert would be pure waste.
            let unique = name != "history";
            // TPC-B record ids never change: declare the key immutable so
            // iterator snapshots skip it (the paper's §5.2.3 optimization).
            let spec = IndexSpec::new("by-id", extractor, unique, kind).immutable();
            let t = self.session.begin().unwrap();
            t.ensure_collection(name, &[spec]).unwrap();
            t.commit(Durability::Durable).unwrap();
            // Bulk load in batches to keep individual commits reasonable.
            let mut id = 0u32;
            while id < size {
                let t = self.session.begin().unwrap();
                let end = (id + 2000).min(size);
                while id < end {
                    let bytes = if name == "history" {
                        to_bytes(&HistoryRecord::new(id, 0, 0, 0, 0))
                    } else {
                        to_bytes(&TpcbRecord::new(id))
                    };
                    t.insert(name, &bytes).unwrap();
                    id += 1;
                }
                t.commit(Durability::Durable).unwrap();
            }
        }
        // Loading is not part of the measurement: checkpoint so the
        // steady-state run starts from a compact, clean log, and zero the
        // telemetry so per-commit histograms count measured transactions
        // only (see [`Self::measured_obs`]).
        self.session.checkpoint().unwrap();
        self.load_baseline = self.db.as_ref().map(|db| db.chunk_store().obs_snapshot());
    }

    fn transaction(&mut self, account: u32, teller: u32, branch: u32, delta: i64, hist_id: u32) {
        transfer_with_retry(
            &*self.session,
            self.durable,
            account,
            teller,
            branch,
            delta,
            hist_id,
        );
    }

    fn disk_size(&self) -> u64 {
        self.session.stats().expect("session stats").disk_size
    }

    fn bytes_written(&self) -> u64 {
        self.session.stats().expect("session stats").bytes_appended
    }

    fn account_balance(&self, id: u32) -> i64 {
        self.balance_of("account", id)
    }

    fn branch_balance(&self, id: u32) -> i64 {
        self.balance_of("branch", id)
    }
}

impl TdbDriver {
    fn balance_of(&self, table: &str, id: u32) -> i64 {
        let rt = self.session.begin_read().unwrap();
        let ids = rt.exact(table, "by-id", &Key::U64(id as u64)).unwrap();
        let oid = *ids.first().unwrap_or_else(|| {
            panic!("{table} record {id} missing");
        });
        let bytes = rt.read(oid).unwrap();
        let balance =
            with_bytes::<TpcbRecord, i64>(self.session.classes(), &bytes, |rec| rec.balance)
                .unwrap();
        rt.finish().unwrap();
        balance
    }
}
