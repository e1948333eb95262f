//! The public chunk store: one [`ChunkStore`] over `N ≥ 1` shards.
//!
//! The object space is partitioned across `N` fully independent shards —
//! each a complete single-log engine with its own log segments, location
//! map, group-commit coordinator and maintenance thread — behind one store
//! API. The default configuration is `N = 1`: a store with one shard, and
//! nothing else. What differs between one shard and several is decided
//! once, at construction, and nowhere else:
//!
//! | decision | `N = 1` | `N > 1` |
//! |---|---|---|
//! | counter | the hardware one-way counter | a virtual per-shard counter through the root-of-roots combiner |
//! | files and keys | unprefixed, the platform secret | prefix `shard{k}--`, a secret derived under `tdb.shard{k}` |
//! | local id 0 | an ordinary chunk: routing is the identity | reserved for cross-shard bookkeeping |
//! | trust anchor | [`TrustKeys::Single`](tdb_proof::TrustKeys::Single) | [`TrustKeys::Sharded`](tdb_proof::TrustKeys::Sharded) |
//!
//! With one shard there is no prefix, no derived key and no root-of-roots
//! file: file names, anchor slots and chunk ids are byte-for-byte those of
//! a single log, and a one-shard commit makes exactly the calls of a
//! single log's commit.
//!
//! # One trust anchor
//!
//! The paper's trust argument (§3) rests on *one* one-way counter
//! authenticating *one* anchor; sharding must not multiply trust roots. So
//! with several shards the shards' counters are virtual: every shard
//! counter increment funnels through a **root-of-roots** record (`rr.a` /
//! `rr.b`, double-buffered like the anchor) that binds the vector of
//! per-shard counter values to the single hardware counter. Rolling back
//! any shard — or the whole database — past a committed state makes some
//! shard anchor or the root-of-roots disagree with the hardware counter and
//! surfaces as [`ReplayDetected`](ChunkStoreError::ReplayDetected); forging
//! either record fails its MAC and surfaces as
//! [`TamperDetected`](ChunkStoreError::TamperDetected).
//!
//! # Layout
//!
//! Shard `k` of `N > 1` lives under the flat file-name prefix `shard{k}--`
//! (via [`PrefixedStore`]) and seals with keys derived from the platform
//! secret under the domain `tdb.shard{k}`, so segments physically swapped
//! between shards fail authentication instead of decoding in the wrong
//! namespace. Global chunk id `g` routes to shard `g % N`, local id
//! `g / N + 1`; local id 0 of every shard is reserved (shard 0: the
//! cross-shard coordination directory; shards ≥ 1: the *witness*, the
//! ids of the registered cross-shard transactions the shard has applied,
//! which makes recovery redo idempotent). With `N = 1` the same formula
//! without the `+ 1` is the identity.
//!
//! # Cross-shard commits
//!
//! A batch touching one shard commits on that shard's fast path,
//! unchanged. A batch touching several commits with an ordered two-phase
//! append: **(A)** a coordination record holding every other shard's
//! writes is committed durably on shard 0 — atomically with shard 0's own
//! data and with a directory entry registering the record — and this
//! commit is the transaction's commit point; **(B)** each participant
//! shard appends its writes with its new witness in the same batch, the
//! witness sealed last so it lands in the final record group. Recovery
//! reads the directory and *re-applies* any registered transaction to
//! participants that do not witness it, so a crash between (A) and (B)
//! converges to all; a crash before (A) leaves no trace. Cross-shard
//! transactions are always durable — a lazy cross-shard commit could be
//! half-lost and is silently upgraded.
//!
//! Once every participant of a transaction is durable it is *completed*
//! (noted in memory); the next phase (A) drops completed transactions from
//! the directory and frees their records inside the batch it writes
//! anyway. A witness therefore keeps only its own transaction and those
//! the directory still registers — a handful of ids, never a history.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use tdb_core::Durability;
use tdb_crypto::Digest;
use tdb_platform::secret::SECRET_LEN;
use tdb_platform::{OneWayCounter, PlatformError, PrefixedStore, SecretStore, UntrustedStore};

use crate::anchor::AnchorStore;
use crate::config::{ChunkStoreConfig, SecurityMode};
use crate::crypto_ctx::CryptoCtx;
use crate::error::{ChunkStoreError, Result};
use crate::ids::ChunkId;
use crate::layout::{Cursor, Malformed};
use crate::proof::{self, Proven, ShardHook};
use crate::recovery::RecoveryReport;
use crate::shard::{iv_salt, Shard, ShardBatch, ShardTicket};
use crate::snapshot::{Snapshot, SnapshotDiff};
use tdb_obs::{trace, watchdog, TraceKind, TraceLayer};

/// Magic prefix of a root-of-roots slot.
const RR_MAGIC: [u8; 8] = *b"TDBRR001";
/// Double-buffered root-of-roots slot names (alternation by `rr_seq`
/// parity, as for the anchor slots).
const RR_SLOTS: [&str; 2] = ["rr.a", "rr.b"];
/// Key-derivation domain of the root-of-roots crypto context.
const RR_DOMAIN: &str = "tdb.rootofroots";
/// Attempts to complete a participant's phase (B) through the redo path
/// after its append failed, before giving up until the next open.
const PHASE_B_RETRIES: usize = 100;
/// Pause between those attempts, long enough for snapshot pins to drain
/// and maintenance to reclaim segments.
const PHASE_B_BACKOFF: std::time::Duration = std::time::Duration::from_millis(10);
/// Reserved local chunk id (directory on shard 0, witness elsewhere).
const RESERVED: ChunkId = ChunkId(0);

// ---------------------------------------------------------------------
// Per-shard key material
// ---------------------------------------------------------------------

/// Secret store handing each shard an independent sub-secret, so chunks
/// (and anchors) sealed by one shard never authenticate in another.
struct DerivedSecret {
    secret: [u8; SECRET_LEN],
}

impl DerivedSecret {
    fn for_shard(master: &dyn SecretStore, shard: usize) -> tdb_platform::Result<DerivedSecret> {
        let master = master.master_secret()?;
        Ok(DerivedSecret {
            secret: tdb_crypto::derive_secret(&master, &format!("tdb.shard{shard}")),
        })
    }
}

impl SecretStore for DerivedSecret {
    fn master_secret(&self) -> tdb_platform::Result<[u8; SECRET_LEN]> {
        Ok(self.secret)
    }
}

// ---------------------------------------------------------------------
// Root-of-roots record
// ---------------------------------------------------------------------

/// The persisted combiner state: the vector of virtual per-shard counter
/// values, bound to the hardware counter.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RrState {
    /// Monotone write sequence; selects the slot and arbitrates between
    /// the two buffered copies.
    rr_seq: u64,
    /// Shard count the database was created with.
    shards: u32,
    /// Open generation; the high half of cross-shard transaction ids, so
    /// ids never repeat across reopens.
    epoch: u32,
    /// Hardware counter value this record expects (the value *after* the
    /// increment paired with this write completes).
    expected_hw: u64,
    /// Virtual counter value per shard.
    counters: Vec<u64>,
}

impl RrState {
    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 4 + 4 + 8 + 8 * self.counters.len());
        out.extend_from_slice(&self.rr_seq.to_le_bytes());
        out.extend_from_slice(&self.shards.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.expected_hw.to_le_bytes());
        for c in &self.counters {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    fn decode_body(body: &[u8]) -> Result<RrState> {
        decode("root-of-roots", body, |c| {
            let rr_seq = c.u64()?;
            let shards = c.u32()?;
            let epoch = c.u32()?;
            let expected_hw = c.u64()?;
            if !(1..=64).contains(&(shards as usize)) {
                return Err(Malformed("implausible shard count".into()));
            }
            let mut counters = Vec::with_capacity(shards as usize);
            for _ in 0..shards {
                counters.push(c.u64()?);
            }
            Ok(RrState {
                rr_seq,
                shards,
                epoch,
                expected_hw,
                counters,
            })
        })
    }

    /// Serialize to the slot format — the same trust-layer framing
    /// ([`tdb_proof::encode_slot`]) as the anchor, under the root-of-roots
    /// key domain. Byte-compatible with earlier releases (see the golden
    /// test below). The live write path goes through [`rr_write`]; this
    /// whole-slot form documents the codec and anchors the golden test.
    #[cfg(test)]
    fn encode(&self, ctx: &CryptoCtx) -> Vec<u8> {
        tdb_proof::encode_slot(ctx, &RR_MAGIC, self.rr_seq, &self.encode_body())
    }

    /// Parse and authenticate a slot (`Ok(None)` = never written).
    /// Framing, claimed-mode-first authentication, and the tamper vs.
    /// config-mismatch distinction live in [`tdb_proof::decode_slot`].
    #[cfg(test)]
    fn decode(ctx: &CryptoCtx, bytes: &[u8]) -> Result<Option<RrState>> {
        let (seq, body) = match tdb_proof::decode_slot(ctx, &RR_MAGIC, "root-of-roots", bytes)? {
            Some(found) => found,
            None => return Ok(None),
        };
        let state = RrState::decode_body(&body)?;
        if state.rr_seq != seq {
            return Err(tamper("root-of-roots: sequence number mismatch"));
        }
        Ok(Some(state))
    }
}

fn tamper(what: &str) -> ChunkStoreError {
    ChunkStoreError::TamperDetected(what.into())
}

fn rr_slots(store: &dyn UntrustedStore) -> tdb_proof::SlotPair<'_> {
    tdb_proof::SlotPair::new(store, RR_MAGIC, RR_SLOTS, "root-of-roots")
}

fn rr_exists(store: &dyn UntrustedStore) -> Result<bool> {
    Ok(rr_slots(store).exists()?)
}

/// Read both slots, return the valid state with the highest `rr_seq`. An
/// invalid slot is tolerated only as the *older* write (torn update); if
/// nothing decodes but slots exist, that is tampering.
fn rr_read_best(store: &dyn UntrustedStore, ctx: &CryptoCtx) -> Result<RrState> {
    let (seq, body) = rr_slots(store).read_best(ctx)?;
    let state = RrState::decode_body(&body)?;
    if state.rr_seq != seq {
        return Err(tamper("root-of-roots: sequence number mismatch"));
    }
    Ok(state)
}

fn rr_write(store: &dyn UntrustedStore, ctx: &CryptoCtx, state: &RrState) -> Result<()> {
    Ok(rr_slots(store).write(ctx, state.rr_seq, &state.encode_body())?)
}

// ---------------------------------------------------------------------
// Combiner: virtual per-shard counters over the one hardware counter
// ---------------------------------------------------------------------

/// Owns the root-of-roots record and the single hardware counter. Every
/// virtual-counter increment persists the new counter vector *before*
/// bumping the hardware counter, so a crash between the two reads as the
/// same benign `+1` window the single-log anchor protocol repairs.
struct Combiner {
    mode: SecurityMode,
    ctx: CryptoCtx,
    untrusted: Arc<dyn UntrustedStore>,
    hw: Arc<dyn OneWayCounter>,
    state: Mutex<RrState>,
    /// This open generation; the high half of cross-shard transaction ids.
    epoch: u32,
    next_xid: AtomicU64,
}

impl Combiner {
    fn new_ctx(
        cfg: &ChunkStoreConfig,
        secret: &dyn SecretStore,
        hw: &dyn OneWayCounter,
    ) -> Result<CryptoCtx> {
        CryptoCtx::with_domain(cfg.security, secret, iv_salt(hw), RR_DOMAIN)
    }

    /// The first root-of-roots of a fresh database.
    fn create(
        untrusted: &Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        hw: &Arc<dyn OneWayCounter>,
        cfg: &ChunkStoreConfig,
    ) -> Result<Arc<Combiner>> {
        let state = RrState {
            rr_seq: 0,
            shards: cfg.shards as u32,
            epoch: 0,
            expected_hw: 0,
            counters: vec![0; cfg.shards],
        };
        Self::start(
            Self::new_ctx(cfg, secret, &**hw)?,
            untrusted,
            hw,
            cfg.security,
            state,
        )
    }

    /// Read the root-of-roots and validate it against the hardware counter
    /// and the configured shard count.
    fn open(
        untrusted: &Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        hw: &Arc<dyn OneWayCounter>,
        cfg: &ChunkStoreConfig,
    ) -> Result<Arc<Combiner>> {
        let ctx = Self::new_ctx(cfg, secret, &**hw)?;
        let state = match rr_read_best(&**untrusted, &ctx) {
            Ok(state) => state,
            Err(ChunkStoreError::NoDatabase)
                if AnchorStore::new(&**untrusted).database_exists()? =>
            {
                return Err(ChunkStoreError::ConfigMismatch(
                    "database was created unsharded; open it with shards = 1".into(),
                ));
            }
            Err(e) => return Err(e),
        };
        if state.shards as usize != cfg.shards {
            return Err(ChunkStoreError::ConfigMismatch(format!(
                "database was created with {} shards, opened with {}",
                state.shards, cfg.shards
            )));
        }
        if cfg.security == SecurityMode::Full {
            // Same decision rule as the anchor/counter pair: a one-ahead
            // record is the benign crash window between the root-of-roots
            // write and its hardware increment; anything else is replay.
            let hw_now = hw.read()?;
            if state.expected_hw == hw_now + 1 {
                hw.increment()?;
            } else if state.expected_hw != hw_now {
                return Err(ChunkStoreError::ReplayDetected {
                    anchor_counter: state.expected_hw,
                    hardware_counter: hw_now,
                });
            }
        }
        Self::start(ctx, untrusted, hw, cfg.security, state)
    }

    /// Begin a new open generation — cross-shard transaction ids must
    /// never repeat across reopens, because witnesses persist: persist
    /// the next record, then bump the hardware counter.
    fn start(
        ctx: CryptoCtx,
        untrusted: &Arc<dyn UntrustedStore>,
        hw: &Arc<dyn OneWayCounter>,
        mode: SecurityMode,
        mut state: RrState,
    ) -> Result<Arc<Combiner>> {
        state.epoch += 1;
        state.rr_seq += 1;
        state.expected_hw = match mode {
            SecurityMode::Full => hw.read()? + 1,
            SecurityMode::Off => 0,
        };
        rr_write(&**untrusted, &ctx, &state)?;
        if mode == SecurityMode::Full {
            hw.increment()?;
        }
        Ok(Arc::new(Combiner {
            mode,
            ctx,
            untrusted: untrusted.clone(),
            hw: hw.clone(),
            epoch: state.epoch,
            next_xid: AtomicU64::new(0),
            state: Mutex::new(state),
        }))
    }

    fn new_xid(&self) -> u64 {
        ((self.epoch as u64) << 32) | (self.next_xid.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Increment shard `idx`'s virtual counter: persist the updated
    /// root-of-roots, then increment the hardware counter. Returns the new
    /// virtual value.
    fn bump(&self, idx: usize) -> tdb_platform::Result<u64> {
        let mut st = self.state.lock();
        st.counters[idx] += 1;
        st.rr_seq += 1;
        if self.mode == SecurityMode::Full {
            st.expected_hw = self.hw.read()? + 1;
        }
        if let Err(e) = rr_write(&*self.untrusted, &self.ctx, &st) {
            // Undo the in-memory bump so a retried commit re-derives the
            // same persisted state instead of skipping values.
            st.counters[idx] -= 1;
            st.rr_seq -= 1;
            return Err(plat_err(e));
        }
        if self.mode == SecurityMode::Full {
            self.hw.increment()?;
        }
        Ok(st.counters[idx])
    }

    /// The proof hook of shard `s`: at `prove()` time it mints the
    /// root-of-roots epoch record under the combiner's state at that
    /// moment, spliced into the shard's proof.
    fn binding(self: &Arc<Self>, s: usize) -> ShardHook {
        let combiner = self.clone();
        Arc::new(move || {
            let st = combiner.state.lock();
            Ok(tdb_proof::ShardBinding {
                shard: s as u32,
                shards: st.shards,
                epoch: tdb_proof::EpochRecord {
                    hw_counter: st.expected_hw,
                    epoch: st.epoch,
                    counters: st.counters.clone(),
                    tag: tdb_proof::tree::epoch_tag(
                        combiner.ctx.proof_mac_key(),
                        st.expected_hw,
                        st.epoch,
                        &st.counters,
                    ),
                },
            })
        })
    }
}

fn plat_err(e: ChunkStoreError) -> PlatformError {
    match e {
        ChunkStoreError::Platform(p) => p,
        other => PlatformError::CorruptSubstrate(format!("root-of-roots: {other}")),
    }
}

/// The virtual one-way counter a single shard sees.
struct ShardCounter {
    combiner: Arc<Combiner>,
    idx: usize,
}

impl OneWayCounter for ShardCounter {
    fn read(&self) -> tdb_platform::Result<u64> {
        Ok(self.combiner.state.lock().counters[self.idx])
    }

    fn increment(&self) -> tdb_platform::Result<u64> {
        self.combiner.bump(self.idx)
    }
}

// ---------------------------------------------------------------------
// Serialization of the reserved chunks + coordination record
// ---------------------------------------------------------------------

/// Run a decoder over all of `bytes`. Malformed trusted-path structures
/// are tamper evidence (they sit behind chunk hashes, so random corruption
/// is caught earlier).
fn decode<'a, T>(
    what: &str,
    bytes: &'a [u8],
    body: impl FnOnce(&mut Cursor<'a>) -> std::result::Result<T, Malformed>,
) -> Result<T> {
    let mut c = Cursor::new(bytes);
    body(&mut c)
        .and_then(|out| c.finish().map(|()| out))
        .map_err(|m| tamper(&format!("{what}: {}", m.0)))
}

/// A participant's witness once it has applied `xid`: `xid` plus the ids
/// of its `current` witness that the directory still registers (`live`,
/// the directory phase (A) has made durable). Ids the directory dropped
/// are never redone again, so they need no witness; any id it still
/// holds is kept, so redo never re-applies an older post-image over a
/// later commit. Idempotent, so retries and redo can re-run it.
fn next_witness(current: &[u8], xid: u64, live: &[u64]) -> Result<Vec<u64>> {
    let mut witness: Vec<u64> = dec_ring(current)?
        .into_iter()
        .filter(|x| *x != xid && live.contains(x))
        .collect();
    witness.push(xid);
    Ok(witness)
}

fn enc_ring(xids: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 * xids.len());
    out.extend_from_slice(&(xids.len() as u32).to_le_bytes());
    for x in xids {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// A `Vec` for `n` decoded entries of at least `min_entry` bytes each,
/// its capacity capped by the bytes left: a forged count cannot make the
/// decoder allocate more than the input could ever fill.
fn vec_for<T>(c: &Cursor<'_>, n: usize, min_entry: usize) -> Vec<T> {
    Vec::with_capacity(n.min(c.remaining() / min_entry))
}

fn dec_ring(bytes: &[u8]) -> Result<Vec<u64>> {
    decode("witness", bytes, |c| {
        let n = c.u32()? as usize;
        let mut out = vec_for(c, n, 8);
        for _ in 0..n {
            out.push(c.u64()?);
        }
        Ok(out)
    })
}

fn enc_dir(entries: &[(u64, Vec<u64>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (xid, coord) in entries {
        out.extend_from_slice(&xid.to_le_bytes());
        out.extend_from_slice(&(coord.len() as u32).to_le_bytes());
        for id in coord {
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
    out
}

fn dec_dir(bytes: &[u8]) -> Result<Vec<(u64, Vec<u64>)>> {
    decode("coordination directory", bytes, |c| {
        let n = c.u32()? as usize;
        let mut out = vec_for(c, n, 12);
        for _ in 0..n {
            let xid = c.u64()?;
            let k = c.u32()? as usize;
            let mut coord = vec_for(c, k, 8);
            for _ in 0..k {
                coord.push(c.u64()?);
            }
            out.push((xid, coord));
        }
        Ok(out)
    })
}

/// One participant's portion of a cross-shard transaction, in shard-local
/// chunk ids: full post-image bytes for writes (redo needs no prior
/// state), plus deallocations.
struct CoordSection {
    shard: u32,
    writes: Vec<(u64, Vec<u8>)>,
    removes: Vec<u64>,
}

impl CoordSection {
    /// Shard `s`'s portion, read off its part of the batch: the staged
    /// operations map holds one entry per id, the last write winning.
    fn of(s: usize, part: &ShardBatch) -> CoordSection {
        let mut sec = CoordSection {
            shard: s as u32,
            writes: Vec::new(),
            removes: Vec::new(),
        };
        for (id, op) in &part.staged.ops {
            match op {
                Some(bytes) => sec.writes.push((*id, bytes.clone())),
                None => sec.removes.push(*id),
            }
        }
        sec
    }
}

fn enc_coord(xid: u64, sections: &[CoordSection]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&xid.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for s in sections {
        out.extend_from_slice(&s.shard.to_le_bytes());
        out.extend_from_slice(&(s.writes.len() as u32).to_le_bytes());
        for (id, bytes) in &s.writes {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        out.extend_from_slice(&(s.removes.len() as u32).to_le_bytes());
        for id in &s.removes {
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
    out
}

fn dec_coord(bytes: &[u8]) -> Result<(u64, Vec<CoordSection>)> {
    decode("coordination record", bytes, |c| {
        let xid = c.u64()?;
        let nsec = c.u32()? as usize;
        let mut sections = vec_for(c, nsec, 12);
        for _ in 0..nsec {
            let shard = c.u32()?;
            let nw = c.u32()? as usize;
            let mut writes = vec_for(c, nw, 12);
            for _ in 0..nw {
                let id = c.u64()?;
                let len = c.u32()? as usize;
                writes.push((id, c.bytes(len)?.to_vec()));
            }
            let nr = c.u32()? as usize;
            let mut removes = vec_for(c, nr, 8);
            for _ in 0..nr {
                removes.push(c.u64()?);
            }
            sections.push(CoordSection {
                shard,
                writes,
                removes,
            });
        }
        Ok((xid, sections))
    })
}

// ---------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------

/// Where global chunk ids live: shard `g % n`, local id `g / n + reserved`.
/// `reserved` is 1 when local id 0 of every shard holds cross-shard
/// bookkeeping (`n > 1`) and 0 otherwise, so with one shard routing is the
/// identity.
#[derive(Clone, Copy)]
pub(crate) struct Layout {
    n: u64,
    reserved: u64,
}

impl Layout {
    fn for_shards(n: usize) -> Layout {
        Layout {
            n: n as u64,
            reserved: u64::from(n > 1),
        }
    }

    pub(crate) fn shard_of(self, cid: ChunkId) -> usize {
        (cid.0 % self.n) as usize
    }

    fn route(self, cid: ChunkId) -> (usize, ChunkId) {
        (self.shard_of(cid), ChunkId(cid.0 / self.n + self.reserved))
    }

    /// The global id of shard `s`'s local id, or `None` for the shard's
    /// reserved bookkeeping chunk.
    pub(crate) fn unroute(self, s: usize, local: ChunkId) -> Option<ChunkId> {
        let slot = local.0.checked_sub(self.reserved)?;
        Some(ChunkId(slot * self.n + s as u64))
    }

    /// The shard the next fresh id comes from: round-robin over the
    /// store-wide cursor, so a fresh store hands out 0, 1, 2, … at any
    /// shard count.
    fn next_shard(self, cursor: &AtomicUsize) -> usize {
        if self.n == 1 {
            0
        } else {
            cursor.fetch_add(1, Ordering::Relaxed) % self.n as usize
        }
    }
}

/// Fold `shard{k}.X` instruments into aggregate `X` entries (in addition
/// to, not instead of, the per-shard names). See
/// [`ChunkStore::obs_snapshot`].
fn fold_shard_metrics(mut snap: tdb_obs::RegistrySnapshot, n: usize) -> tdb_obs::RegistrySnapshot {
    let prefixes: Vec<String> = (0..n).map(|k| format!("shard{k}.")).collect();
    let strip = |key: &str| -> Option<String> {
        prefixes
            .iter()
            .find_map(|p| key.strip_prefix(p.as_str()))
            .map(String::from)
    };
    let folded_counters: Vec<(String, u64)> = snap
        .counters
        .iter()
        .filter_map(|(k, v)| strip(k).map(|agg| (agg, *v)))
        .collect();
    for (agg, v) in folded_counters {
        *snap.counters.entry(agg).or_insert(0) += v;
    }
    let folded_gauges: Vec<(String, i64)> = snap
        .gauges
        .iter()
        .filter_map(|(k, v)| strip(k).map(|agg| (agg, *v)))
        .collect();
    for (agg, v) in folded_gauges {
        *snap.gauges.entry(agg).or_insert(0) += v;
    }
    let folded_hists: Vec<(String, tdb_obs::HistSnapshot)> = snap
        .histograms
        .iter()
        .filter_map(|(k, h)| strip(k).map(|agg| (agg, h.clone())))
        .collect();
    for (agg, h) in folded_hists {
        snap.histograms.entry(agg).or_default().merge(&h);
    }
    snap
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// The trusted chunk store (paper §3): `N ≥ 1` shards under one trust
/// anchor. See the [module docs](self) for what differs between one shard
/// and several, and the crate docs for an example.
///
/// Concurrency: any number of [`WriteBatch`] handles may stage
/// independently; commits serialize only on the short log-tail append of
/// the shards they touch, and concurrent durable commits share
/// sync/anchor/counter rounds via each shard's group-commit coordinator.
pub struct ChunkStore {
    shards: Vec<Shard>,
    layout: Layout,
    /// Owner of the root-of-roots record and the hardware counter when
    /// there are several shards (each shard then counts on a virtual
    /// counter through it); `None` with one shard, whose anchor binds the
    /// hardware counter directly.
    combiner: Option<Arc<Combiner>>,
    /// Cross-shard commit lock. Writers hold it exclusively across phases
    /// (A)+(B); snapshots hold it shared, so no snapshot observes a
    /// cross-shard transaction half-applied. It guards the global ids of
    /// the coordination-record chunks the directory registers — store
    /// bookkeeping that snapshots do not list.
    xlock: RwLock<Vec<ChunkId>>,
    /// Cross-shard transactions whose participants are all durable; the
    /// next phase (A) drops them from the directory.
    completed: Mutex<Vec<u64>>,
    /// `xshard.commits` and `xshard.redos` (participants completed through
    /// redo) in the merged registry; detached with one shard.
    xcommits: tdb_obs::Counter,
    xredos: tdb_obs::Counter,
    /// Round-robin allocation cursor (see [`Layout::next_shard`]).
    cursor: Arc<AtomicUsize>,
    /// What [`obs`](Self::obs) returns: the one shard's own registry, or a
    /// merged one adopting every shard's instruments under `shard{k}.`.
    obs: Arc<tdb_obs::Registry>,
}

/// A per-transaction staging area, and the home of the paper's Fig. 2
/// chunk-store operations: `allocateChunkId`, `write`, `read` and
/// `deallocate` are the methods below, `commit(durable)` is
/// [`ChunkStore::commit_batch`], and dropping the batch is the abort.
/// Writes and deallocations stage here without touching other batches;
/// the commit applies them atomically. Dropping an uncommitted batch
/// discards its staged operations and returns its allocated ids to the
/// free pool.
pub struct WriteBatch {
    layout: Layout,
    cursor: Arc<AtomicUsize>,
    /// One staging area per shard, in shard-local ids.
    parts: Vec<ShardBatch>,
}

impl WriteBatch {
    /// Allocate an unused chunk id (paper Fig. 2: `allocateChunkId`). The
    /// id is reserved store-wide immediately; it returns to the free pool
    /// if the batch is dropped without committing.
    pub fn allocate_chunk_id(&mut self) -> Result<ChunkId> {
        let s = self.layout.next_shard(&self.cursor);
        let local = self.parts[s].allocate_chunk_id()?;
        Ok(self
            .layout
            .unroute(s, local)
            .expect("reserved bookkeeping ids are never handed out"))
    }

    /// Stage a write of `cid`'s state (paper Fig. 2: `write`). Takes
    /// effect when the batch commits. Signals if `cid` is not allocated.
    pub fn write(&mut self, cid: ChunkId, bytes: &[u8]) -> Result<()> {
        let (s, local) = self.layout.route(cid);
        self.parts[s].write(local, bytes)
    }

    /// Stage a deallocation of `cid` (paper Fig. 2: `deallocate`). Takes
    /// effect when the batch commits.
    pub fn deallocate(&mut self, cid: ChunkId) -> Result<()> {
        let (s, local) = self.layout.route(cid);
        self.parts[s].deallocate(local)
    }

    /// Return the last written state of `cid` (paper Fig. 2: `read`):
    /// this batch's staged writes win over committed state. Signals if the
    /// chunk is unallocated, unwritten, or tampered with.
    pub fn read(&self, cid: ChunkId) -> Result<Vec<u8>> {
        let (s, local) = self.layout.route(cid);
        self.parts[s].read(local)
    }

    /// Explicitly discard this batch (equivalent to dropping it): staged
    /// operations vanish, allocated ids return to the free pool. Only this
    /// batch is affected — other batches' staged writes are untouched.
    pub fn discard(self) {}
}

/// A claim ticket from [`ChunkStore::append_batch`]: the batch's commit
/// record(s) are in the log; redeem with [`ChunkStore::wait_durable`] to
/// block until the anchors cover them.
#[must_use = "a durable commit is not durable until wait_durable returns"]
pub struct CommitTicket {
    layout: Layout,
    durable: bool,
    /// The touched shards' tickets in commit order (for a cross-shard
    /// commit: the already durable commit point on shard 0 first, then
    /// each participant's commit).
    tickets: Vec<(usize, ShardTicket)>,
    /// A cross-shard commit's transaction id, completed once it is durable.
    cross: Option<u64>,
}

impl CommitTicket {
    /// Commit sequence assigned on the shard that stores `cid` — the
    /// version stamp of `cid` (see [`ChunkStore::read_versioned`]).
    /// Sequences of different shards are not comparable. `u64::MAX` (no
    /// snapshot sees that version) if this commit assigned none there.
    pub fn seq_for(&self, cid: ChunkId) -> u64 {
        let shard = self.layout.shard_of(cid);
        self.tickets
            .iter()
            .find(|(s, _)| *s == shard)
            .map_or(u64::MAX, |(_, t)| t.seq())
    }

    /// Highest commit sequence this batch was assigned on any shard (with
    /// one shard, the sequence of the batch's last commit record).
    pub fn seq(&self) -> u64 {
        self.tickets.iter().map(|(_, t)| t.seq()).max().unwrap_or(0)
    }
}

impl ChunkStore {
    // ---- construction -----------------------------------------------

    /// Create a fresh database partitioned across `cfg.shards` shards.
    /// Fails if a database (of any shard count) already exists in
    /// `untrusted`.
    pub fn create(
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        cfg: ChunkStoreConfig,
    ) -> Result<ChunkStore> {
        cfg.validate().map_err(ChunkStoreError::ConfigMismatch)?;
        if Self::database_exists(&*untrusted)? {
            return Err(ChunkStoreError::ConfigMismatch(
                "a database already exists in this untrusted store".into(),
            ));
        }
        let combiner = (cfg.shards > 1)
            .then(|| Combiner::create(&untrusted, secret, &counter, &cfg))
            .transpose()?;
        let store = Self::assemble(untrusted, secret, counter, cfg, combiner, Shard::create)?;
        if store.shards.len() > 1 {
            // Reserve local chunk 0 on every shard: the coordination
            // directory on shard 0, the cross-shard witness elsewhere.
            for (k, shard) in store.shards.iter().enumerate() {
                let mut b = shard.begin_batch();
                let id = b.allocate_chunk_id()?;
                assert_eq!(id, RESERVED, "fresh shard must hand out local id 0 first");
                let body = if k == 0 { enc_dir(&[]) } else { enc_ring(&[]) };
                b.write(id, &body)?;
                shard.commit_batch(b, Durability::Durable)?;
            }
        }
        Ok(store)
    }

    /// Open an existing database: with several shards, validate the
    /// root-of-roots against the hardware counter first; recover every
    /// shard; then redo any cross-shard transaction a crash left
    /// registered but not applied everywhere.
    pub fn open(
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        cfg: ChunkStoreConfig,
    ) -> Result<ChunkStore> {
        cfg.validate().map_err(ChunkStoreError::ConfigMismatch)?;
        let combiner = if cfg.shards > 1 {
            Some(Combiner::open(&untrusted, secret, &counter, &cfg)?)
        } else if rr_exists(&*untrusted)? {
            return Err(ChunkStoreError::ConfigMismatch(
                "database was created sharded; open it with the same shard count".into(),
            ));
        } else {
            None
        };
        let store = Self::assemble(untrusted, secret, counter, cfg, combiner, Shard::open)?;
        if store.shards.len() > 1 {
            store.redo_cross_shard()?;
        }
        Ok(store)
    }

    /// Open if a database exists (of any shard count), otherwise create one.
    pub fn open_or_create(
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        cfg: ChunkStoreConfig,
    ) -> Result<ChunkStore> {
        if Self::database_exists(&*untrusted)? {
            Self::open(untrusted, secret, counter, cfg)
        } else {
            Self::create(untrusted, secret, counter, cfg)
        }
    }

    /// Whether any database — of any shard count — exists in `untrusted`.
    pub fn database_exists(untrusted: &dyn UntrustedStore) -> Result<bool> {
        Ok(AnchorStore::new(untrusted).database_exists()? || rr_exists(untrusted)?)
    }

    /// Create or open (`build`) the shards — with several, each under its
    /// own file prefix, derived secret and virtual counter — and the
    /// registry view over them. Generic over `build` so a binary that only
    /// creates stores does not link recovery.
    fn assemble(
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        cfg: ChunkStoreConfig,
        combiner: Option<Arc<Combiner>>,
        build: impl Fn(
            Arc<dyn UntrustedStore>,
            &dyn SecretStore,
            Arc<dyn OneWayCounter>,
            ChunkStoreConfig,
        ) -> Result<Shard>,
    ) -> Result<ChunkStore> {
        let n = cfg.shards;
        let mut shards = Vec::with_capacity(n);
        for k in 0..n {
            shards.push(match &combiner {
                None => build(untrusted.clone(), secret, counter.clone(), cfg.clone())?,
                Some(combiner) => build(
                    Arc::new(PrefixedStore::new(untrusted.clone(), format!("shard{k}--"))),
                    &DerivedSecret::for_shard(secret, k).map_err(ChunkStoreError::Platform)?,
                    Arc::new(ShardCounter {
                        combiner: combiner.clone(),
                        idx: k,
                    }),
                    cfg.clone(),
                )?,
            });
        }
        let (obs, xcommits, xredos) = if n == 1 {
            (
                shards[0].obs(),
                tdb_obs::Counter::new(),
                tdb_obs::Counter::new(),
            )
        } else {
            let merged = Arc::new(tdb_obs::Registry::new());
            for (k, s) in shards.iter().enumerate() {
                s.set_diag_label(format!("shard{k}"));
                merged.adopt_all_prefixed(&s.obs(), &format!("shard{k}."));
            }
            let xcommits = merged.counter("xshard.commits");
            let xredos = merged.counter("xshard.redos");
            (merged, xcommits, xredos)
        };
        Ok(ChunkStore {
            shards,
            layout: Layout::for_shards(n),
            combiner,
            xlock: RwLock::new(Vec::new()),
            completed: Mutex::new(Vec::new()),
            xcommits,
            xredos,
            cursor: Arc::new(AtomicUsize::new(0)),
            obs,
        })
    }

    /// Complete cross-shard transactions the directory registers but some
    /// participant does not witness. Redo applies full post-images, so it
    /// is idempotent and insensitive to how far phase (B) got before the
    /// crash.
    fn redo_cross_shard(&self) -> Result<()> {
        let coordinator = &self.shards[0];
        let dir = dec_dir(&coordinator.read(RESERVED)?)?;
        if dir.is_empty() {
            return Ok(());
        }
        let live: Vec<u64> = dir.iter().map(|(xid, _)| *xid).collect();
        for (xid, coord_ids) in &dir {
            let mut record = Vec::new();
            for id in coord_ids {
                record.extend_from_slice(&coordinator.read(ChunkId(*id))?);
            }
            let (rec_xid, sections) = dec_coord(&record)?;
            if rec_xid != *xid {
                return Err(tamper("coordination record: directory id mismatch"));
            }
            for sec in &sections {
                let s = sec.shard as usize;
                if s == 0 || s >= self.shards.len() {
                    return Err(tamper("coordination record: shard out of range"));
                }
                let shard = &self.shards[s];
                if dec_ring(&shard.read(RESERVED)?)?.contains(xid) {
                    continue;
                }
                trace::emit(TraceLayer::Shard, TraceKind::XRedo, *xid, s as u64, 0);
                apply_participant_redo(shard, *xid, sec, &live)?;
                self.xredos.inc();
            }
        }
        // All transactions are applied everywhere: prune the directory and
        // free the records in one lazy commit (re-done next open if lost).
        let mut b = coordinator.begin_batch();
        b.write(RESERVED, &enc_dir(&[]))?;
        for (_, coord_ids) in &dir {
            for id in coord_ids {
                b.deallocate(ChunkId(*id))?;
            }
        }
        coordinator.commit_batch(b, Durability::Lazy)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    // ---- batches & commit -------------------------------------------

    /// Start an independent staging area. Concurrent batches stage without
    /// contending; see [`WriteBatch`].
    pub fn begin_batch(&self) -> WriteBatch {
        WriteBatch {
            layout: self.layout,
            cursor: self.cursor.clone(),
            parts: self.shards.iter().map(Shard::begin_batch).collect(),
        }
    }

    /// Atomically apply a batch's staged operations. [`Durability::Durable`]
    /// commits return once an anchor covers them (one sync/anchor/counter
    /// round may cover many concurrent committers); [`Durability::Lazy`]
    /// commits return after the flush. A failed commit affects only this
    /// batch.
    pub fn commit_batch(&self, batch: WriteBatch, durability: Durability) -> Result<()> {
        let ticket = self.append_batch(batch, durability)?;
        self.wait_durable(ticket)
    }

    /// First half of [`commit_batch`](Self::commit_batch): append the
    /// batch's commit record(s) to the log — the commit point — and return
    /// a ticket. Callers that must order other work (e.g. 2PL lock
    /// release) against the commit point but not against durability can do
    /// it between `append_batch` and [`wait_durable`](Self::wait_durable).
    /// A batch touching one shard takes that shard's fast path; a batch
    /// touching several commits with the two-phase protocol in the
    /// [module docs](self) (and is implicitly durable).
    pub fn append_batch(&self, batch: WriteBatch, durability: Durability) -> Result<CommitTicket> {
        let mut parts = batch.parts;
        let (first, crosses) = {
            let mut touched = (0..parts.len()).filter(|&s| !parts[s].is_empty());
            (touched.next(), touched.next().is_some())
        };
        if crosses {
            return self.append_cross(parts);
        }
        // One shard (or none: an empty barrier on shard 0, which a durable
        // wait turns into an anchor round on every shard).
        let s = first.unwrap_or(0);
        let ticket = self.shards[s].append_batch(parts.swap_remove(s), durability)?;
        Ok(CommitTicket {
            layout: self.layout,
            durable: durability.is_durable(),
            tickets: vec![(s, ticket)],
            cross: None,
        })
    }

    /// The ordered two-phase cross-shard append. Holds the exclusive
    /// cross-shard lock across both phases so concurrent cross commits and
    /// snapshots serialize against it.
    fn append_cross(&self, parts: Vec<ShardBatch>) -> Result<CommitTicket> {
        let combiner = self
            .combiner
            .as_ref()
            .expect("only a store with several shards commits across shards");
        let xid = combiner.new_xid();
        let touched = parts.iter().filter(|part| !part.is_empty()).count();
        let sections: Vec<CoordSection> = parts
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, part)| !part.is_empty())
            .map(|(s, part)| CoordSection::of(s, part))
            .collect();
        let record = enc_coord(xid, &sections);

        let _op = watchdog::op_begin(watchdog::OpKind::CrossShardCommit, xid);
        let mut records = self.xlock.write();
        // Phase A: commit the coordination record + directory entry +
        // shard 0's own data in one durable commit — the commit point. The
        // same batch drops completed transactions from the directory and
        // frees their records.
        let coordinator = &self.shards[0];
        let mut parts = parts.into_iter();
        let mut b0 = parts.next().expect("every shard has a part");
        let mut coord_ids = Vec::new();
        for piece in record.chunks(coordinator.max_chunk_size().max(1)) {
            let id = b0.allocate_chunk_id()?;
            b0.write(id, piece)?;
            coord_ids.push(id.0);
        }
        // A completed transaction this batch fails to prune stays in the
        // directory, witnessed everywhere, until the next open prunes it.
        let completed = std::mem::take(&mut *self.completed.lock());
        let (pruned, mut dir): (Vec<_>, Vec<_>) = dec_dir(&b0.read(RESERVED)?)?
            .into_iter()
            .partition(|(x, _)| completed.contains(x));
        for id in pruned.iter().flat_map(|(_, ids)| ids) {
            b0.deallocate(ChunkId(*id))?;
        }
        dir.push((xid, coord_ids));
        b0.write(RESERVED, &enc_dir(&dir))?;
        let t0 = coordinator.append_batch(b0, Durability::Durable)?;
        *records = dir
            .iter()
            .flat_map(|(_, ids)| ids)
            .filter_map(|id| self.layout.unroute(0, ChunkId(*id)))
            .collect();
        let seq0 = t0.seq();
        coordinator.wait_durable(t0)?;
        trace::emit(
            TraceLayer::Shard,
            TraceKind::XPhaseA,
            xid,
            seq0,
            touched as u64,
        );

        // Phase B: append each participant's data with its new witness in
        // one batch. The witness says "this shard's data is fully applied",
        // so it is sealed last: a failed multi-group append can leave its
        // earlier record groups committed, never the witness without them.
        // A participant whose append fails is completed in-process through
        // the (idempotent) redo path; only if that keeps failing does the
        // error escape, and then the next open's redo finishes the job.
        let live: Vec<u64> = dir.iter().map(|(x, _)| *x).collect();
        let mut tickets = vec![(0, ShardTicket::redeemed(seq0))];
        let mut sections = sections.iter();
        for (s, mut part) in (1..).zip(parts) {
            if part.is_empty() {
                continue;
            }
            let sec = sections.next().expect("one section per participant");
            let shard = &self.shards[s];
            let witness = next_witness(&part.read(RESERVED)?, xid, &live)?;
            trace::emit(
                TraceLayer::Shard,
                TraceKind::XWitness,
                xid,
                witness.len() as u64,
                0,
            );
            let appended = part
                .write_last(RESERVED, &enc_ring(&witness))
                .and_then(|()| shard.append_batch(part, Durability::Durable));
            match appended {
                Ok(ts) => tickets.push((s, ts)),
                Err(e) => retry_phase_b(e, || {
                    apply_participant_redo(shard, xid, sec, &live)?;
                    self.xredos.inc();
                    Ok(())
                })?,
            }
            trace::emit(TraceLayer::Shard, TraceKind::XPhaseB, xid, s as u64, 0);
        }
        drop(records);
        self.xcommits.inc();
        Ok(CommitTicket {
            layout: self.layout,
            durable: true,
            tickets,
            cross: Some(xid),
        })
    }

    /// Second half of [`commit_batch`](Self::commit_batch): block until the
    /// ticket's commit records are durable (joining or leading a group
    /// anchor round). No-op for nondurable tickets. With several shards a
    /// durable wait also anchors every sibling shard with uncovered
    /// commits, so the acked durable frontier is global exactly as in one
    /// shared log.
    pub fn wait_durable(&self, ticket: CommitTicket) -> Result<()> {
        let CommitTicket {
            durable,
            tickets,
            cross,
            ..
        } = ticket;
        // A one-shard commit's own shard is covered by its ticket.
        let own = tickets.first().map(|(s, _)| *s).filter(|_| cross.is_none());
        for (s, t) in tickets {
            self.shards[s].wait_durable(t)?;
        }
        if let Some(xid) = cross {
            // Every participant is durable: the next phase (A) may drop
            // the transaction from the directory.
            self.completed.lock().push(xid);
        }
        if durable {
            self.harden_others(own)?;
        }
        Ok(())
    }

    /// Give every shard but `except` with commits past its last anchor one
    /// anchor round, so earlier lazy commits on sibling shards are covered
    /// exactly as they would be by a later durable commit in one log.
    fn harden_others(&self, except: Option<usize>) -> Result<()> {
        for (i, s) in self.shards.iter().enumerate() {
            if Some(i) != except && s.needs_anchor() {
                s.harden()?;
            }
        }
        Ok(())
    }

    // ---- reads & snapshots ------------------------------------------

    /// Return the last *committed* state of `cid` (operations staged in a
    /// [`WriteBatch`] are visible only through [`WriteBatch::read`]).
    /// Signals if the chunk is unallocated, unwritten, or tampered with.
    pub fn read(&self, cid: ChunkId) -> Result<Vec<u8>> {
        let (s, local) = self.layout.route(cid);
        self.shards[s].read(local)
    }

    /// Read a chunk's last committed state plus its shard's commit
    /// sequence at the time of the read. The sequence is an upper bound on
    /// the commit that produced the returned bytes — the contract snapshot
    /// readers use to decide whether a cached object version is visible at
    /// their snapshot: a version stamped `v` is visible at any snapshot
    /// with [`Snapshot::seq_for`] `>= v`.
    pub fn read_versioned(&self, cid: ChunkId) -> Result<(Vec<u8>, u64)> {
        let (s, local) = self.layout.route(cid);
        self.shards[s].read_versioned(local)
    }

    /// Whether `cid` is currently allocated (committed, or handed out to
    /// a live [`WriteBatch`]).
    pub fn is_allocated(&self, cid: ChunkId) -> bool {
        let (s, local) = self.layout.route(cid);
        self.shards[s].is_allocated(local)
    }

    /// Take a copy-on-write snapshot of the committed database state on
    /// every shard (under the shared cross-shard lock: no half-applied
    /// cross-shard transaction is observable). Staged operations are not
    /// included.
    pub fn snapshot(&self) -> Snapshot {
        let records = self.xlock.read();
        Snapshot {
            layout: self.layout,
            parts: self.shards.iter().map(Shard::snapshot).collect(),
            bookkeeping: records.clone(),
        }
    }

    /// Read a chunk's state as of `snap`. Lock-light: the frozen snapshot
    /// resolves the location, and the I/O, hash check and decryption run
    /// outside the store lock.
    pub fn read_at_snapshot(&self, snap: &Snapshot, cid: ChunkId) -> Result<Vec<u8>> {
        let (s, local) = self.layout.route(cid);
        self.shards[s].read_at_snapshot(&snap.parts[s], local)
    }

    /// Compare two snapshots (the engine of incremental backups): chunks
    /// added or updated in `new`, and chunks removed since `old`, each
    /// ascending per shard, shard by shard.
    pub fn diff_snapshots(&self, old: &Snapshot, new: &Snapshot) -> SnapshotDiff {
        let mut diff = SnapshotDiff::default();
        for (s, shard) in self.shards.iter().enumerate() {
            let part = shard.diff_snapshots(&old.parts[s], &new.parts[s]);
            let mut removed: Vec<ChunkId> = part
                .removed
                .into_iter()
                .filter_map(|local| self.layout.unroute(s, local))
                .filter(|id| !old.bookkeeping.contains(id))
                .collect();
            for (local, loc) in part.changed {
                let Some(id) = self.layout.unroute(s, local) else {
                    continue;
                };
                if !new.bookkeeping.contains(&id) {
                    diff.changed.push((id, loc));
                } else if !old.bookkeeping.contains(&id)
                    && old.parts[s].location_of(local).is_some()
                {
                    // A chunk freed since `old` now holds a coordination
                    // record: for the caller it is gone.
                    removed.push(id);
                }
            }
            removed.sort();
            diff.removed.extend(removed);
        }
        diff
    }

    // ---- proof-carrying reads ---------------------------------------

    /// Read a chunk as of `snap`, returning a [`Proven`] value: the bytes
    /// (or `None` for provable absence) plus a bookmark from which
    /// [`Proven::prove`] can later build a [`tdb_proof::ChunkProof`]
    /// checkable by a standalone [`tdb_proof::Verifier`]. The read itself
    /// pays only the bookmark (an `Arc` clone plus one value hash); proof
    /// construction is deferred until `prove()` and runs lock-free against
    /// the frozen snapshot root, so it is stable under concurrent commits
    /// and cleaner relocation. With several shards the proof additionally
    /// splices the shard-local path into a root-of-roots epoch record
    /// minted at `prove()` time: the shard attestation carries the virtual
    /// counter pinned with the snapshot, and the epoch record proves the
    /// root-of-roots issued (at least) that virtual counter under a fresh
    /// hardware counter. Requires [`SecurityMode::Full`].
    pub fn proven_at_snapshot(
        &self,
        snap: &Snapshot,
        cid: ChunkId,
    ) -> Result<Proven<Option<Vec<u8>>>> {
        let (s, local) = self.layout.route(cid);
        let mut proven = self.shards[s].proven_at_snapshot(&snap.parts[s], local)?;
        proven.bookmark.proof_id = cid.0;
        proven.bookmark.shard = self.combiner.as_ref().map(|c| c.binding(s));
        Ok(proven)
    }

    /// Proven read of the last *committed* state (staged operations are
    /// ignored — proofs speak about committed snapshots only). Takes a
    /// fresh snapshot internally; see
    /// [`proven_at_snapshot`](Self::proven_at_snapshot).
    pub fn read_proven(&self, cid: ChunkId) -> Result<Proven<Option<Vec<u8>>>> {
        let snap = self.snapshot();
        self.proven_at_snapshot(&snap, cid)
    }

    /// The trust anchor a client verifies this store's proofs against:
    /// the current hardware-counter binding and the MAC keys — the one
    /// shard's root key ([`tdb_proof::TrustKeys::Single`]), or the
    /// root-of-roots key plus one attestation key per shard
    /// ([`tdb_proof::TrustKeys::Sharded`]). Ship it to the client over a
    /// trusted channel (provisioning); any proof attesting an older counter
    /// value is then rejected as a replay.
    pub fn trust_anchor(&self) -> Result<tdb_proof::TrustAnchor> {
        proof::require_full_security(self.security())?;
        Ok(match &self.combiner {
            None => tdb_proof::TrustAnchor {
                counter_value: self.shards[0].counter_value(),
                keys: tdb_proof::TrustKeys::Single {
                    root_mac_key: self.shards[0].proof_mac_key(),
                },
            },
            Some(combiner) => tdb_proof::TrustAnchor {
                counter_value: combiner.state.lock().expected_hw,
                keys: tdb_proof::TrustKeys::Sharded {
                    rr_mac_key: *combiner.ctx.proof_mac_key(),
                    shard_mac_keys: self.shards.iter().map(Shard::proof_mac_key).collect(),
                },
            },
        })
    }

    /// Mint a keyed (index-level) attestation over `snap`. The collection
    /// layer rebuilds the keyed tree over an index's sorted keys at the
    /// snapshot and calls this to bind its root; the verifier side is
    /// [`tdb_proof::Verifier::verify_keyed`]. One shard binds the counter
    /// pinned with the snapshot under its root key; several shards bind
    /// the current hardware counter under the root-of-roots key (the keyed
    /// tree spans objects from every shard, so no one shard's virtual
    /// counter covers it).
    pub fn keyed_attest_at(
        &self,
        snap: &Snapshot,
        scope: &str,
        total: u64,
        root: &Digest,
    ) -> Result<tdb_proof::KeyedAttestation> {
        proof::require_full_security(self.security())?;
        let (mac_key, counter_value) = match &self.combiner {
            None => (
                self.shards[0].proof_mac_key(),
                snap.parts[0].core.counter_value,
            ),
            Some(combiner) => (
                *combiner.ctx.proof_mac_key(),
                combiner.state.lock().expected_hw,
            ),
        };
        let commit_seq = snap.commit_seq();
        self.shards[0].proof_counters().keyed_minted.add(1);
        Ok(tdb_proof::KeyedAttestation {
            counter_value,
            commit_seq,
            tag: tdb_proof::keyed::keyed_tag(
                &mac_key,
                counter_value,
                commit_seq,
                scope,
                total,
                root,
            ),
        })
    }

    // ---- maintenance & lifecycle ------------------------------------

    /// Force a checkpoint of every shard's location map (normally
    /// automatic; exposed for idle-time maintenance as the paper suggests
    /// deferring reorganization to idle periods).
    pub fn checkpoint(&self) -> Result<()> {
        self.shards.iter().try_for_each(Shard::checkpoint)
    }

    /// Run one cleaner pass on every shard (normally automatic). Returns
    /// segments freed. Runs the same incremental slice protocol as the
    /// maintenance rounds; a shard whose pass is already in flight
    /// contributes 0 rather than racing it for the victims.
    pub fn clean(&self) -> Result<usize> {
        self.clean_incremental_with(&mut |_| ())
    }

    /// [`clean`](Self::clean), calling `between` with the store *unlocked*
    /// before every relocation slice after a pass's first — a test hook for
    /// the mid-pass snapshot/commit interleavings the background thread
    /// produces nondeterministically.
    #[doc(hidden)]
    pub fn clean_incremental_with(&self, between: &mut dyn FnMut(usize)) -> Result<usize> {
        let mut freed = 0;
        for s in &self.shards {
            freed += s.clean(between)?;
        }
        Ok(freed)
    }

    /// Block until no shard's maintenance thread has a round running or
    /// requested — a test hook: what maintenance leaves behind (freed
    /// segments, disk size) is only deterministic once it is idle. Rounds
    /// kicked by later commits are not waited for.
    #[doc(hidden)]
    pub fn wait_maintenance_idle(&self) {
        self.shards.iter().for_each(Shard::wait_maintenance_idle);
    }

    /// Quiesce and join every shard's background maintenance thread: an
    /// in-flight cleaning pass is abandoned at the next slice boundary
    /// (safe — only the closing checkpoint anchors a pass). The store
    /// remains usable; committers drive the maintenance rounds from then
    /// on. Called automatically when the store is dropped.
    pub fn close(&self) {
        self.shards.iter().for_each(Shard::close);
    }

    /// Return ids that were allocated but never written to the free pools
    /// of their shards (used by the object store when a transaction that
    /// inserted objects aborts). Ids with committed state are ignored.
    pub fn release_unwritten_ids(&self, ids: &[ChunkId]) {
        let mut per_shard = vec![Vec::new(); self.shards.len()];
        for id in ids {
            let (s, local) = self.layout.route(*id);
            per_shard[s].push(local);
        }
        for (shard, locals) in self.shards.iter().zip(&per_shard) {
            if !locals.is_empty() {
                shard.release_unwritten_ids(locals);
            }
        }
    }

    // ---- introspection ----------------------------------------------

    /// The store's observability registry: the `chunk.*` operation
    /// counters plus commit/checkpoint/cleaner/recovery phase histograms.
    /// Higher layers (object/collection/backup stores) register their
    /// instruments here too, so one registry describes a whole stack.
    /// With several shards every shard's instruments appear under a
    /// `shard{k}.` prefix (`shard0.chunk.commits`, …) — the merged
    /// view adopts the shards' *handles*, not copies, so per-shard deltas
    /// taken through either view reconcile by construction. Use
    /// [`obs_snapshot`](Self::obs_snapshot) for a view that also folds the
    /// shard metrics into aggregate names.
    pub fn obs(&self) -> Arc<tdb_obs::Registry> {
        self.obs.clone()
    }

    /// Snapshot of [`obs`](Self::obs) with every `shard{k}.X` instrument
    /// additionally folded into an aggregate `X` (counters and gauges sum,
    /// histograms merge). Both the per-shard and the aggregate names
    /// coexist in the returned snapshot, so a consumer reading
    /// `chunk.commits` and one reading `shard1.chunk.commits` see
    /// consistent numbers from one snapshot.
    pub fn obs_snapshot(&self) -> tdb_obs::RegistrySnapshot {
        fold_shard_metrics(self.obs.snapshot(), self.shards.len())
    }

    /// What crash recovery found and did, per shard in shard order (`None`
    /// for a shard this handle created rather than opened).
    pub fn recovery_reports(&self) -> Vec<Option<RecoveryReport>> {
        self.shards.iter().map(Shard::recovery_report).collect()
    }

    /// Non-blocking health summary, one object per shard (the objects the
    /// shards contribute to watchdog diagnostic dumps).
    pub fn diag_state(&self) -> tdb_obs::Json {
        tdb_obs::Json::array(self.shards.iter().map(Shard::diag_state))
    }

    /// The security mode the store runs in (identical across shards).
    pub fn security(&self) -> SecurityMode {
        self.shards[0].security()
    }

    /// Mean live-data utilization across shards (live bytes / in-use
    /// capacity).
    pub fn utilization(&self) -> f64 {
        self.shards.iter().map(Shard::utilization).sum::<f64>() / self.shards.len() as f64
    }

    /// On-disk footprint of the log(s) in bytes.
    pub fn disk_size(&self) -> u64 {
        self.shards.iter().map(Shard::disk_size).sum()
    }

    /// Live chunks across shards. With several shards this includes the
    /// bookkeeping chunks: the reserved one of each shard (directory +
    /// witnesses) and the coordination records the directory registers.
    pub fn live_chunks(&self) -> u64 {
        self.shards.iter().map(Shard::live_chunks).sum()
    }

    /// Largest chunk this configuration accepts.
    pub fn max_chunk_size(&self) -> usize {
        self.shards[0].max_chunk_size()
    }

    /// Accounting audit (diagnostics), summed across shards:
    /// `(accounted_live, walked_live, in_use_segments, free_segments,
    /// pending_decrements)`. `accounted_live` is the segment managers'
    /// running per-segment sum; `walked_live` recomputes it from the
    /// in-memory maps (entries plus clean pages). At a quiescent point
    /// (right after a checkpoint, no batch staged) the two must agree
    /// exactly.
    #[doc(hidden)]
    pub fn debug_accounting(&self) -> (u64, u64, usize, usize, usize) {
        self.shards
            .iter()
            .map(Shard::debug_accounting)
            .fold((0, 0, 0, 0, 0), |a, b| {
                (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3, a.4 + b.4)
            })
    }

    // ---- restore ------------------------------------------------------

    /// Install a full database image at exact chunk ids — the backup
    /// store's validated-restore primitive. The store must be empty (fresh
    /// `create`) and have one shard. Ids below the restored high-water
    /// mark that are absent from the image become free.
    pub fn restore_image(&self, chunks: Vec<(ChunkId, Vec<u8>)>) -> Result<()> {
        self.sole_shard("restore_image")?.restore_image(chunks)
    }

    /// Apply an incremental restore delta at exact chunk ids (one shard
    /// only). Ids newly above the high-water mark extend it; removed ids
    /// become free.
    pub fn apply_restore_delta(
        &self,
        writes: Vec<(ChunkId, Vec<u8>)>,
        removes: Vec<ChunkId>,
    ) -> Result<()> {
        self.sole_shard("apply_restore_delta")?
            .apply_restore_delta(writes, removes)
    }

    /// The only shard. Restores install chunks at the exact ids of one
    /// log, so a store with several shards refuses here, naming the
    /// operation and the shard count.
    fn sole_shard(&self, operation: &str) -> Result<&Shard> {
        match self.shards.as_slice() {
            [only] => Ok(only),
            shards => Err(ChunkStoreError::ConfigMismatch(format!(
                "{operation} requires an unsharded store, but this database has {} shards; \
                 restore into a store opened with shards = 1 — see DESIGN.md \
                 \"Sharding & the root-of-roots\"",
                shards.len()
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// Participant steps of a cross-shard commit
// ---------------------------------------------------------------------

/// Complete a participant step of phase (B) after its append failed with
/// `first`. The transaction is already durably committed on shard 0, so
/// the only acceptable outcomes are "done" (possibly after waiting out
/// transient space pressure) or surfacing the original error once the
/// retries are exhausted — the next open's redo then completes it.
fn retry_phase_b(first: ChunkStoreError, mut step: impl FnMut() -> Result<()>) -> Result<()> {
    for _ in 0..PHASE_B_RETRIES {
        std::thread::sleep(PHASE_B_BACKOFF);
        if step().is_ok() {
            return Ok(());
        }
    }
    Err(first)
}

/// Apply one coordination section's full post-images through the restore
/// path. Idempotent: re-running it writes the same bytes.
fn apply_section_data(shard: &Shard, sec: &CoordSection) -> Result<()> {
    let writes: Vec<(ChunkId, Vec<u8>)> = sec
        .writes
        .iter()
        .map(|(id, bytes)| (ChunkId(*id), bytes.clone()))
        .collect();
    let removes: Vec<ChunkId> = sec
        .removes
        .iter()
        .map(|id| ChunkId(*id))
        // A remove of an id a partial append (or crash) already freed
        // must not re-enter the free pool twice.
        .filter(|id| shard.is_allocated(*id))
        .collect();
    shard.apply_restore_delta(writes, removes)
}

/// Complete one participant through redo: data first, then the witness
/// in its own commit, so a witness always means "this shard's data is
/// fully applied". `live` are the xids the directory registers.
fn apply_participant_redo(shard: &Shard, xid: u64, sec: &CoordSection, live: &[u64]) -> Result<()> {
    apply_section_data(shard, sec)?;
    let witness = next_witness(&shard.read(RESERVED)?, xid, live)?;
    shard.apply_restore_delta(vec![(RESERVED, enc_ring(&witness))], Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_platform::{MemSecretStore, MemStore, TamperableCounter, VolatileCounter};

    fn cfg(shards: usize) -> ChunkStoreConfig {
        ChunkStoreConfig {
            shards,
            ..ChunkStoreConfig::small_for_tests()
        }
    }

    fn secret() -> MemSecretStore {
        MemSecretStore::from_label("sharded-test")
    }

    #[test]
    fn routing_roundtrips_and_reserves_local_zero() {
        for n in [2usize, 3, 5, 64] {
            let layout = Layout::for_shards(n);
            for g in 0..500u64 {
                let (s, local) = layout.route(ChunkId(g));
                assert!(s < n);
                assert!(local.0 >= 1, "local 0 must stay reserved");
                assert_eq!(layout.unroute(s, local), Some(ChunkId(g)));
            }
            assert_eq!(layout.unroute(1, RESERVED), None);
        }
        // One shard: routing is the identity and nothing is reserved.
        let one = Layout::for_shards(1);
        for g in 0..500u64 {
            assert_eq!(one.route(ChunkId(g)), (0, ChunkId(g)));
            assert_eq!(one.unroute(0, ChunkId(g)), Some(ChunkId(g)));
        }
    }

    /// Byte-identical golden vectors captured from the pre-`tdb-proof`
    /// root-of-roots encoder (fresh context per encode ⇒ deterministic
    /// first IV). A failure here means existing sharded databases no
    /// longer reopen — a compatibility break, not a vector to refresh.
    #[test]
    fn golden_rr_slot_encoding_is_stable() {
        const GOLDEN_FULL: &str = "544442525230303109000000000000000150000000711d78eba76bea3703f2352e6d79db51526df6364e7c7b48f8b91deb7f1e836827cd080e370c5ceea68bab2482226c7ff73e7ececb2639fa8bda510023c9987287eaff864db791470eede8b556e4584b01271089a23e5e9e25b48846a248ff88511389ec2a5d80e174676e15e52273ad";
        const GOLDEN_OFF: &str = "544442525230303109000000000000000030000000090000000000000003000000020000002900000000000000050000000000000000000000000000002400000000000000486b30aec53ca8fd6f5eaf203d5ee8d1840252a85fad89de8fe08e42f0e0c8eb";
        let st = RrState {
            rr_seq: 9,
            shards: 3,
            epoch: 2,
            expected_hw: 41,
            counters: vec![5, 0, 36],
        };
        for (mode, golden) in [
            (SecurityMode::Full, GOLDEN_FULL),
            (SecurityMode::Off, GOLDEN_OFF),
        ] {
            let ctx = CryptoCtx::with_domain(mode, &secret(), 7, RR_DOMAIN).unwrap();
            let bytes = st.encode(&ctx);
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, golden, "{mode:?} root-of-roots slot bytes drifted");
            let golden_bytes: Vec<u8> = (0..golden.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&golden[i..i + 2], 16).unwrap())
                .collect();
            let fresh = CryptoCtx::with_domain(mode, &secret(), 7, RR_DOMAIN).unwrap();
            assert_eq!(RrState::decode(&fresh, &golden_bytes).unwrap().unwrap(), st);
        }
    }

    #[test]
    fn rr_state_roundtrips_and_detects_tamper() {
        for mode in [SecurityMode::Full, SecurityMode::Off] {
            let ctx = CryptoCtx::with_domain(mode, &secret(), 7, RR_DOMAIN).unwrap();
            let st = RrState {
                rr_seq: 9,
                shards: 3,
                epoch: 2,
                expected_hw: 41,
                counters: vec![5, 0, 36],
            };
            let bytes = st.encode(&ctx);
            assert_eq!(RrState::decode(&ctx, &bytes).unwrap().unwrap(), st);
            // Any single-byte flip must fail authentication.
            for pos in [0, 9, 16, 25, bytes.len() - 1] {
                let mut bad = bytes.clone();
                bad[pos] ^= 0x40;
                match RrState::decode(&ctx, &bad) {
                    Err(ChunkStoreError::TamperDetected(_)) => {}
                    other => panic!("flip at {pos} in {mode:?} gave {other:?}"),
                }
            }
            // An authentic record written under the other mode is a
            // configuration mismatch, not tampering.
            let other_mode = match mode {
                SecurityMode::Full => SecurityMode::Off,
                SecurityMode::Off => SecurityMode::Full,
            };
            let other_ctx = CryptoCtx::with_domain(other_mode, &secret(), 7, RR_DOMAIN).unwrap();
            match RrState::decode(&other_ctx, &bytes) {
                Err(ChunkStoreError::ConfigMismatch(_)) => {}
                other => panic!("cross-mode decode gave {other:?}"),
            }
        }
    }

    #[test]
    fn sharded_store_basic_cycle() {
        let mem = Arc::new(MemStore::new());
        let counter = Arc::new(VolatileCounter::new());
        let store = ChunkStore::create(mem.clone(), &secret(), counter.clone(), cfg(2)).unwrap();
        assert_eq!(store.shards(), 2);

        // Fresh allocations are the sequential global ids 0, 1, 2, …
        let mut b = store.begin_batch();
        let ids: Vec<ChunkId> = (0..6).map(|_| b.allocate_chunk_id().unwrap()).collect();
        assert_eq!(ids, (0..6).map(ChunkId).collect::<Vec<_>>());
        for id in &ids {
            b.write(*id, format!("chunk-{}", id.0).as_bytes()).unwrap();
        }
        // Touches both shards: exercises the cross-shard protocol.
        store.commit_batch(b, Durability::Durable).unwrap();
        for id in &ids {
            assert_eq!(
                store.read(*id).unwrap(),
                format!("chunk-{}", id.0).as_bytes()
            );
        }
        // Per-shard files carry the shard prefix; the root-of-roots sits
        // unprefixed beside them.
        let names = mem.list().unwrap();
        assert!(names.iter().any(|f| f.starts_with("shard0--")));
        assert!(names.iter().any(|f| f.starts_with("shard1--")));
        assert!(names.contains(&"rr.a".to_string()) || names.contains(&"rr.b".to_string()));
        store.close();
        drop(store);

        let store = ChunkStore::open(mem, &secret(), counter, cfg(2)).unwrap();
        for id in &ids {
            assert_eq!(
                store.read(*id).unwrap(),
                format!("chunk-{}", id.0).as_bytes()
            );
        }
        // Snapshot view agrees.
        let snap = store.snapshot();
        for id in &ids {
            assert_eq!(
                store.read_at_snapshot(&snap, *id).unwrap(),
                format!("chunk-{}", id.0).as_bytes()
            );
        }
    }

    /// One shard is a plain log: global ids are the shard's own ids (so
    /// the object layer's roots chunk is id 0 of the log), and there is no
    /// root-of-roots and no shard prefix.
    #[test]
    fn one_shard_routes_by_identity() {
        let mem = Arc::new(MemStore::new());
        let counter = Arc::new(VolatileCounter::new());
        let store = ChunkStore::create(mem.clone(), &secret(), counter, cfg(1)).unwrap();
        let mut b = store.begin_batch();
        let ids: Vec<ChunkId> = (0..5).map(|_| b.allocate_chunk_id().unwrap()).collect();
        assert_eq!(ids, (0..5).map(ChunkId).collect::<Vec<_>>());
        for id in &ids {
            b.write(*id, &id.0.to_le_bytes()).unwrap();
        }
        store.commit_batch(b, Durability::Durable).unwrap();
        for id in &ids {
            assert_eq!(store.shards[0].read(*id).unwrap(), id.0.to_le_bytes());
        }
        assert!(store.combiner.is_none());
        let names = mem.list().unwrap();
        assert!(
            names
                .iter()
                .all(|n| !n.starts_with("rr.") && !n.contains("--")),
            "{names:?}"
        );
    }

    #[test]
    fn single_shard_batches_stay_on_their_shard() {
        let mem = Arc::new(MemStore::new());
        let store =
            ChunkStore::create(mem, &secret(), Arc::new(VolatileCounter::new()), cfg(2)).unwrap();
        // Write only to the shard of global id 0 (shard 0).
        let mut b = store.begin_batch();
        let id = b.allocate_chunk_id().unwrap();
        b.write(id, b"solo").unwrap();
        let ticket = store.append_batch(b, Durability::Durable).unwrap();
        assert!(ticket.cross.is_none() && ticket.tickets.len() == 1);
        store.wait_durable(ticket).unwrap();
        assert_eq!(store.read(id).unwrap(), b"solo");
    }

    #[test]
    fn shard_count_changes_are_rejected() {
        let mem = Arc::new(MemStore::new());
        let counter = Arc::new(VolatileCounter::new());
        let store = ChunkStore::create(mem.clone(), &secret(), counter.clone(), cfg(2)).unwrap();
        store.close();
        drop(store);
        for wrong in [1usize, 3] {
            match ChunkStore::open(mem.clone(), &secret(), counter.clone(), cfg(wrong)) {
                Err(ChunkStoreError::ConfigMismatch(_)) => {}
                other => panic!("open with shards={wrong} gave {:?}", other.map(|_| ())),
            }
        }
        // And a legacy unsharded database refuses a sharded open.
        let mem1 = Arc::new(MemStore::new());
        let c1 = Arc::new(VolatileCounter::new());
        let s1 = ChunkStore::create(mem1.clone(), &secret(), c1.clone(), cfg(1)).unwrap();
        s1.close();
        drop(s1);
        match ChunkStore::open(mem1, &secret(), c1, cfg(2)) {
            Err(ChunkStoreError::ConfigMismatch(_)) => {}
            other => panic!("sharded open of unsharded db gave {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn whole_database_rollback_is_replay_detected() {
        let mem = Arc::new(MemStore::new());
        let counter = Arc::new(TamperableCounter::new());
        let store = ChunkStore::create(mem.clone(), &secret(), counter.clone(), cfg(2)).unwrap();
        let mut b = store.begin_batch();
        let a = b.allocate_chunk_id().unwrap();
        let c = b.allocate_chunk_id().unwrap();
        b.write(a, b"alpha").unwrap();
        b.write(c, b"beta").unwrap();
        store.commit_batch(b, Durability::Durable).unwrap();
        store.close();
        drop(store);
        // Roll the hardware counter back below what the root-of-roots
        // expects — the signature of a replayed database copy.
        let now = counter.read().unwrap();
        counter.set(now - 2);
        match ChunkStore::open(mem, &secret(), counter, cfg(2)) {
            Err(ChunkStoreError::ReplayDetected { .. }) => {}
            other => panic!("rolled-back counter gave {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn lazy_cross_shard_commits_are_upgraded_to_durable() {
        let mem = Arc::new(MemStore::new());
        let counter = Arc::new(VolatileCounter::new());
        let store = ChunkStore::create(mem.clone(), &secret(), counter.clone(), cfg(2)).unwrap();
        let mut b = store.begin_batch();
        let x = b.allocate_chunk_id().unwrap();
        let y = b.allocate_chunk_id().unwrap();
        b.write(x, b"left").unwrap();
        b.write(y, b"right").unwrap();
        // Request Lazy; the cross-shard path must still be fully durable.
        store.commit_batch(b, Durability::Lazy).unwrap();
        store.close();
        drop(store);
        let store = ChunkStore::open(mem, &secret(), counter, cfg(2)).unwrap();
        assert_eq!(store.read(x).unwrap(), b"left");
        assert_eq!(store.read(y).unwrap(), b"right");
    }

    /// (d) A witness holds its own transaction plus the in-flight ones,
    /// never a history: at N=4 a shard that sits out most cross commits —
    /// starting from a full 1 024-entry ring as earlier releases wrote it —
    /// never holds more than in-flight + 1 entries once it has taken part.
    #[test]
    fn witnesses_hold_at_most_in_flight_plus_one_entries() {
        let cfg = ChunkStoreConfig {
            shards: 4,
            segment_size: 64 * 1024,
            ..ChunkStoreConfig::small_for_tests()
        };
        let store = ChunkStore::create(
            Arc::new(MemStore::new()),
            &secret(),
            Arc::new(VolatileCounter::new()),
            cfg,
        )
        .unwrap();
        let legacy: Vec<u64> = (1..=1024).collect();
        store.shards[3]
            .apply_restore_delta(vec![(RESERVED, enc_ring(&legacy))], Vec::new())
            .unwrap();
        let witness = |s: usize| dec_ring(&store.shards[s].read(RESERVED).unwrap()).unwrap();
        let mut b = store.begin_batch();
        let ids: Vec<ChunkId> = (0..4).map(|_| b.allocate_chunk_id().unwrap()).collect();
        for id in &ids {
            b.write(*id, b"init").unwrap();
        }
        store.commit_batch(b, Durability::Durable).unwrap();
        assert_eq!(witness(3).len(), 1, "the legacy ring shrinks at once");

        let mut in_flight = Vec::new();
        for round in 0..12u8 {
            // Shard 3 takes part in every fourth transaction only.
            let touched = if round % 4 == 3 { &ids[..] } else { &ids[..3] };
            let mut b = store.begin_batch();
            for id in touched {
                b.write(*id, &[round]).unwrap();
            }
            let ticket = store.append_batch(b, Durability::Durable).unwrap();
            if round % 5 == 1 {
                in_flight.push(ticket);
            } else {
                store.wait_durable(ticket).unwrap();
            }
            for s in 1..4 {
                let w = witness(s);
                assert!(
                    w.len() <= in_flight.len() + 1,
                    "round {round}: shard {s} witnesses {w:?} with {} in flight",
                    in_flight.len()
                );
            }
        }
        for ticket in in_flight {
            store.wait_durable(ticket).unwrap();
        }
    }

    /// Every decoder of the cross-shard bookkeeping survives hostile bytes:
    /// random inputs, every single-byte flip of a valid encoding, and
    /// counts claiming billions of entries must come back as `Ok` or
    /// `TamperDetected` — never a panic or an allocation abort.
    #[test]
    fn bookkeeping_decoders_never_panic_on_hostile_bytes() {
        type Decoder = fn(&[u8]) -> Result<()>;
        let decoders: [(&str, Decoder, Vec<u8>); 4] = [
            ("ring", |b| dec_ring(b).map(drop), enc_ring(&[7, 8, 9])),
            (
                "directory",
                |b| dec_dir(b).map(drop),
                enc_dir(&[(1, vec![4, 5]), (2, vec![])]),
            ),
            (
                "coordination",
                |b| dec_coord(b).map(drop),
                enc_coord(
                    9,
                    &[CoordSection {
                        shard: 1,
                        writes: vec![(3, b"post-image".to_vec())],
                        removes: vec![6],
                    }],
                ),
            ),
            (
                "root-of-roots",
                |b| RrState::decode_body(b).map(drop),
                RrState {
                    rr_seq: 9,
                    shards: 3,
                    epoch: 2,
                    expected_hw: 41,
                    counters: vec![5, 0, 36],
                }
                .encode_body(),
            ),
        ];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (what, decode, valid) in &decoders {
            decode(valid).unwrap_or_else(|e| panic!("{what}: valid encoding rejected: {e}"));
            let mut inputs = vec![
                vec![0xFF; 4],
                vec![0xFF; 64],
                [&[0xFF; 4][..], &[0; 12]].concat(),
            ];
            for pos in 0..valid.len() {
                for flip in [0x01, 0x80, 0xFF] {
                    let mut bad = valid.clone();
                    bad[pos] ^= flip;
                    inputs.push(bad);
                }
            }
            for _ in 0..2000 {
                let len = (next() % 96) as usize;
                inputs.push((0..len).map(|_| next() as u8).collect());
            }
            for input in &inputs {
                match decode(input) {
                    Ok(()) | Err(ChunkStoreError::TamperDetected(_)) => {}
                    Err(other) => panic!("{what}: {input:02x?} gave {other:?}"),
                }
            }
        }
    }
}
