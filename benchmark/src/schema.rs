//! The benchmark's own TPC-B records (paper §7.1: four collections of
//! ~100-byte objects with 4-byte ids). Kept here rather than borrowed from
//! `crates/tpcb` so the benchmark's inputs stay fixed while the repository
//! changes around it.

use tdb::{
    impl_persistent_boilerplate, ClassRegistry, ExtractorRegistry, IndexKind, IndexSpec, Key,
    Persistent, PickleError, Pickler, Unpickler,
};

pub const CLASS_RECORD: u32 = 0xBE7C_0001;
pub const CLASS_HISTORY: u32 = 0xBE7C_0002;

/// Index every table is queried through.
pub const INDEX: &str = "by-id";
pub const ACCOUNT: &str = "account";
pub const TELLER: &str = "teller";
pub const BRANCH: &str = "branch";
pub const HISTORY: &str = "history";

const FILLER_LEN: usize = 80;

/// An account, teller or branch: id, balance, padding to ~100 bytes.
pub struct Record {
    pub id: u32,
    pub balance: i64,
    pub filler: Vec<u8>,
}

impl Record {
    pub fn new(id: u32) -> Record {
        Record {
            id,
            balance: 0,
            filler: vec![0x20; FILLER_LEN],
        }
    }
}

impl Persistent for Record {
    impl_persistent_boilerplate!(CLASS_RECORD);
    fn pickle(&self, w: &mut Pickler) {
        w.u32(self.id);
        w.i64(self.balance);
        w.bytes(&self.filler);
    }
}

fn unpickle_record(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
    Ok(Box::new(Record {
        id: r.u32()?,
        balance: r.i64()?,
        filler: r.bytes()?.to_vec(),
    }))
}

/// One audit entry per committed transfer.
pub struct History {
    pub id: u32,
    pub account: u32,
    pub teller: u32,
    pub branch: u32,
    pub delta: i64,
    pub filler: Vec<u8>,
}

impl History {
    pub fn new(id: u32, account: u32, teller: u32, branch: u32, delta: i64) -> History {
        History {
            id,
            account,
            teller,
            branch,
            delta,
            filler: vec![0x20; FILLER_LEN - 12],
        }
    }
}

impl Persistent for History {
    impl_persistent_boilerplate!(CLASS_HISTORY);
    fn pickle(&self, w: &mut Pickler) {
        w.u32(self.id);
        w.u32(self.account);
        w.u32(self.teller);
        w.u32(self.branch);
        w.i64(self.delta);
        w.bytes(&self.filler);
    }
}

fn unpickle_history(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
    Ok(Box::new(History {
        id: r.u32()?,
        account: r.u32()?,
        teller: r.u32()?,
        branch: r.u32()?,
        delta: r.i64()?,
        filler: r.bytes()?.to_vec(),
    }))
}

pub fn classes() -> ClassRegistry {
    let mut reg = ClassRegistry::new();
    reg.register(CLASS_RECORD, "BenchRecord", unpickle_record);
    reg.register(CLASS_HISTORY, "BenchHistory", unpickle_history);
    reg
}

pub fn extractors() -> ExtractorRegistry {
    let mut reg = ExtractorRegistry::new();
    reg.register("bench.id", |obj| {
        tdb::extractor_typed::<Record>(obj, |r| Key::U64(u64::from(r.id)))
    });
    reg.register("bench.history.id", |obj| {
        tdb::extractor_typed::<History>(obj, |h| Key::U64(u64::from(h.id)))
    });
    reg
}

/// Unique immutable id index of the given kind over account/teller/branch.
pub fn record_index(kind: IndexKind) -> IndexSpec {
    IndexSpec::new(INDEX, "bench.id", true, kind).immutable()
}

/// History is an append-only audit trail enumerated by scan: a list index,
/// not unique (ids are generated unique; a uniqueness probe per insert
/// would be a linear scan).
pub fn history_index() -> IndexSpec {
    IndexSpec::new(INDEX, "bench.history.id", false, IndexKind::List).immutable()
}
