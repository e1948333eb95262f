//! Sharded chunk store: N independent logs under one trust anchor.
//!
//! The object space is partitioned across `N` fully independent
//! [`ChunkStore`] shards — each with its own log segments, location map,
//! group-commit coordinator, and maintenance thread — behind a router that
//! preserves the single-store API. The paper's trust argument (§3) rests on
//! *one* one-way counter authenticating *one* anchor; sharding must not
//! multiply trust roots. So the shards' counters are virtual: every shard
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
//! Shard `k` lives under the flat file-name prefix `shard{k}--` (via
//! [`PrefixedStore`]) and seals with keys derived from the platform secret
//! under the domain `tdb.shard{k}`, so segments physically swapped between
//! shards fail authentication instead of decoding in the wrong namespace.
//! Global chunk id `g` routes to shard `g % N`, local id `g / N + 1`;
//! local id 0 of every shard is reserved (shard 0: the cross-shard
//! coordination directory; shards ≥ 1: a ring of recently applied
//! cross-shard transaction ids used to make recovery redo idempotent).
//!
//! # Cross-shard commits
//!
//! A batch touching one shard commits on that shard's fast path,
//! unchanged. A batch touching several commits with an ordered two-phase
//! append: **(A)** a coordination record holding every other shard's
//! writes is committed durably on shard 0 — atomically with shard 0's own
//! data and with a directory entry registering the record — and this
//! commit is the transaction's commit point; **(B)** each participant
//! shard's writes are appended together with its witness-ring update.
//! Recovery reads the directory and *re-applies* any registered
//! transaction to participants whose ring does not yet witness it, so a
//! crash between (A) and (B) converges to all; a crash before (A) leaves
//! no trace. Cross-shard transactions are always durable — a lazy
//! cross-shard commit could be half-lost and is silently upgraded.
//!
//! With `N = 1` (the default configuration) every call delegates directly
//! to the inner [`ChunkStore`]: no prefixing, no derived keys, no
//! root-of-roots file — bit-for-bit today's unsharded layout.

use std::collections::BTreeMap;
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
use crate::proof::Proven;
use crate::recovery::RecoveryReport;
use crate::snapshot::Snapshot;
use crate::stats::StatsSnapshot;
use crate::store::{iv_salt, ChunkStore, CommitTicket, WriteBatch};
use tdb_obs::{trace, watchdog, TraceKind, TraceLayer};

/// Magic prefix of a root-of-roots slot.
const RR_MAGIC: [u8; 8] = *b"TDBRR001";
/// Double-buffered root-of-roots slot names (alternation by `rr_seq`
/// parity, mirroring the anchor slots).
const RR_SLOTS: [&str; 2] = ["rr.a", "rr.b"];
/// Key-derivation domain of the root-of-roots crypto context.
const RR_DOMAIN: &str = "tdb.rootofroots";
/// Upper bound on entries kept in a participant shard's
/// applied-transaction witness ring; [`ring_cap_for`] may shrink it so
/// the encoded ring always fits in one chunk of the shard's configuration.
const RING_CAP: usize = 1024;
/// Attempts to complete a participant's phase (B) through the redo path
/// after its append failed, before giving up until the next open.
const PHASE_B_RETRIES: usize = 100;
/// Pause between those attempts, long enough for snapshot pins to drain
/// and maintenance to reclaim segments.
const PHASE_B_BACKOFF: std::time::Duration = std::time::Duration::from_millis(10);
/// Reserved local chunk id (directory on shard 0, witness ring elsewhere).
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
/// same benign `+1` window the unsharded anchor protocol repairs.
struct Combiner {
    mode: SecurityMode,
    ctx: CryptoCtx,
    untrusted: Arc<dyn UntrustedStore>,
    hw: Arc<dyn OneWayCounter>,
    state: Mutex<RrState>,
}

impl Combiner {
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

/// Largest witness-ring length whose [`enc_ring`] encoding still fits in
/// one chunk of `max_chunk` bytes, capped at [`RING_CAP`]. The ring only
/// shields *recent* transactions from being re-applied by redo, so a
/// smaller window on small-segment configurations is a pure narrowing:
/// directory entries outlive their ring entries only across a crash
/// window of in-flight transactions, which is far shorter than any cap.
fn ring_cap_for(max_chunk: usize) -> usize {
    (max_chunk.saturating_sub(4) / 8).clamp(1, RING_CAP)
}

/// Add `xid` to the ring if absent and evict the oldest entries beyond
/// `cap`. Idempotent so retries and redo can re-run it safely.
fn ring_push(ring: &mut Vec<u64>, xid: u64, cap: usize) {
    if !ring.contains(&xid) {
        ring.push(xid);
    }
    if ring.len() > cap {
        let drop_n = ring.len() - cap;
        ring.drain(..drop_n);
    }
}

fn enc_ring(xids: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 * xids.len());
    out.extend_from_slice(&(xids.len() as u32).to_le_bytes());
    for x in xids {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn dec_ring(bytes: &[u8]) -> Result<Vec<u64>> {
    decode("witness ring", bytes, |c| {
        let n = c.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(RING_CAP * 2));
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
        let mut out = Vec::new();
        for _ in 0..n {
            let xid = c.u64()?;
            let k = c.u32()? as usize;
            let mut coord = Vec::with_capacity(k);
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
        let mut sections = Vec::with_capacity(nsec);
        for _ in 0..nsec {
            let shard = c.u32()?;
            let nw = c.u32()? as usize;
            let mut writes = Vec::with_capacity(nw);
            for _ in 0..nw {
                let id = c.u64()?;
                let len = c.u32()? as usize;
                writes.push((id, c.bytes(len)?.to_vec()));
            }
            let nr = c.u32()? as usize;
            let mut removes = Vec::with_capacity(nr);
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

fn route(n: usize, cid: ChunkId) -> (usize, ChunkId) {
    ((cid.0 % n as u64) as usize, ChunkId(cid.0 / n as u64 + 1))
}

fn unroute(n: usize, shard: usize, local: ChunkId) -> ChunkId {
    ChunkId((local.0 - 1) * n as u64 + shard as u64)
}

// ---------------------------------------------------------------------
// Multi-shard core
// ---------------------------------------------------------------------

struct MultiCore {
    shards: Vec<Arc<ChunkStore>>,
    /// Root-of-roots owner; proof epoch records are minted under its key
    /// and current counter vector (see `proven_at_snapshot`).
    combiner: Arc<Combiner>,
    /// Cross-shard commit lock. Writers hold it exclusively across phases
    /// (A)+(B) and the directory-pruning cleanup; snapshots hold it shared,
    /// so no snapshot observes a cross-shard transaction half-applied.
    xlock: RwLock<()>,
    /// Round-robin allocation cursor, so fresh-store allocations yield the
    /// global id sequence 0, 1, 2, … exactly like the unsharded store.
    cursor: AtomicUsize,
    next_xid: AtomicU64,
    epoch: u32,
    /// Merged observability registry: every shard's instruments adopted
    /// under a `shard{k}.` prefix (shared handles, so deltas through
    /// either view reconcile), plus anything upper layers register here
    /// directly. See [`ShardedChunkStore::obs`].
    merged_obs: Arc<tdb_obs::Registry>,
}

impl MultiCore {
    fn assemble(shards: Vec<Arc<ChunkStore>>, combiner: Arc<Combiner>, epoch: u32) -> MultiCore {
        let merged_obs = Arc::new(tdb_obs::Registry::new());
        for (k, s) in shards.iter().enumerate() {
            s.set_diag_label(format!("shard{k}"));
            merged_obs.adopt_all_prefixed(&s.obs(), &format!("shard{k}."));
        }
        MultiCore {
            shards,
            combiner,
            xlock: RwLock::new(()),
            cursor: AtomicUsize::new(0),
            next_xid: AtomicU64::new(0),
            epoch,
            merged_obs,
        }
    }

    fn n(&self) -> usize {
        self.shards.len()
    }

    fn new_xid(&self) -> u64 {
        ((self.epoch as u64) << 32) | (self.next_xid.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Make the durable frontier global: after any durable ack, every
    /// shard with commits past its last anchor gets one anchor round, so
    /// earlier lazy commits on sibling shards are covered exactly as they
    /// would be by a later durable commit in one shared log.
    fn harden_others(&self, except: Option<usize>) -> Result<()> {
        for (i, s) in self.shards.iter().enumerate() {
            if Some(i) != except && s.needs_anchor() {
                s.harden()?;
            }
        }
        Ok(())
    }

    /// Prune a completed transaction from the coordination directory and
    /// free its record chunks. Runs under the exclusive cross-shard lock;
    /// losing this lazy commit to a crash only means recovery sees the
    /// entry again, finds it witnessed everywhere, and re-prunes.
    fn cleanup(&self, xid: u64, coord_ids: &[u64]) -> Result<()> {
        let _guard = self.xlock.write();
        let mut b = self.shards[0].begin_batch();
        let dir = dec_dir(&b.read(RESERVED)?)?;
        let dir: Vec<(u64, Vec<u64>)> = dir.into_iter().filter(|(x, _)| *x != xid).collect();
        b.write(RESERVED, &enc_dir(&dir))?;
        for id in coord_ids {
            b.deallocate(ChunkId(*id))?;
        }
        self.shards[0].commit_batch(b, Durability::Lazy)
    }
}

/// Fold `shard{k}.X` instruments into aggregate `X` entries (in addition
/// to, not instead of, the per-shard names). See
/// [`ShardedChunkStore::obs_snapshot`].
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
// Public façade
// ---------------------------------------------------------------------

#[derive(Clone)]
enum Repr {
    Single(Arc<ChunkStore>),
    Multi(Arc<MultiCore>),
}

/// A chunk store partitioned across N independent shards under one trust
/// anchor. See the [module docs](self) for the protocol; with the default
/// `shards = 1` every operation delegates to the wrapped [`ChunkStore`]
/// unchanged.
#[derive(Clone)]
pub struct ShardedChunkStore {
    repr: Repr,
}

/// Staged operations against a [`ShardedChunkStore`]; the sharded
/// counterpart of [`WriteBatch`]. Dropping it releases allocated ids.
pub struct ShardedWriteBatch {
    repr: BatchRepr,
}

enum BatchRepr {
    Single(WriteBatch),
    Multi(MultiBatch),
}

struct MultiBatch {
    core: Arc<MultiCore>,
    batches: Vec<Option<WriteBatch>>,
    /// Shadow of every staged op in shard-local ids, kept so a cross-shard
    /// commit can serialize participants' post-images into the
    /// coordination record.
    mirror: Vec<BTreeMap<u64, Option<Vec<u8>>>>,
}

impl MultiBatch {
    fn ensure(&mut self, s: usize) -> &mut WriteBatch {
        if self.batches[s].is_none() {
            self.batches[s] = Some(self.core.shards[s].begin_batch());
        }
        self.batches[s].as_mut().expect("just ensured")
    }
}

/// Claim ticket from [`ShardedChunkStore::append_batch`]; the sharded
/// counterpart of [`CommitTicket`].
#[must_use = "pass the ticket to wait_durable (or drop it for lazy commits)"]
pub struct ShardedCommitTicket {
    repr: TicketRepr,
}

enum TicketRepr {
    Single {
        shard: usize,
        durable: bool,
        ticket: CommitTicket,
    },
    Cross {
        n: usize,
        /// (shard, commit_seq) for every touched shard, coordinator first.
        seqs: Vec<(usize, u64)>,
        /// Participant tickets still to be waited (the coordinator's
        /// commit was waited durably inside `append_batch` — it is the
        /// commit point).
        tickets: Vec<(usize, CommitTicket)>,
        xid: u64,
        coord_ids: Vec<u64>,
    },
}

impl ShardedCommitTicket {
    /// Commit sequence assigned on the shard that stores `cid`. Chunk
    /// versions must be stamped per shard — sequences from different
    /// shards are not comparable.
    pub fn seq_for(&self, cid: ChunkId) -> u64 {
        match &self.repr {
            TicketRepr::Single { ticket, .. } => ticket.seq(),
            TicketRepr::Cross { n, seqs, .. } => {
                let (shard, _) = route(*n, cid);
                seqs.iter()
                    .find(|(s, _)| *s == shard)
                    .map(|(_, seq)| *seq)
                    .unwrap_or_else(|| self.seq())
            }
        }
    }

    /// Highest commit sequence this transaction was assigned on any shard.
    /// Only meaningful as a coarse progress indicator; prefer
    /// [`seq_for`](Self::seq_for).
    pub fn seq(&self) -> u64 {
        match &self.repr {
            TicketRepr::Single { ticket, .. } => ticket.seq(),
            TicketRepr::Cross { seqs, .. } => seqs.iter().map(|(_, seq)| *seq).max().unwrap_or(0),
        }
    }
}

/// Consistent point-in-time view across every shard; the sharded
/// counterpart of [`Snapshot`]. Taken under the cross-shard commit lock,
/// so it never observes a cross-shard transaction half-applied.
pub struct ShardedSnapshot {
    repr: SnapRepr,
}

enum SnapRepr {
    Single(Snapshot),
    Multi(Vec<Snapshot>),
}

impl ShardedSnapshot {
    /// Commit sequence this snapshot captured on the shard storing `cid`.
    pub fn seq_for(&self, cid: ChunkId) -> u64 {
        match &self.repr {
            SnapRepr::Single(s) => s.commit_seq(),
            SnapRepr::Multi(snaps) => {
                let (shard, _) = route(snaps.len(), cid);
                snaps[shard].commit_seq()
            }
        }
    }

    /// Highest captured commit sequence across shards (a coarse global
    /// version; per-chunk comparisons must use [`seq_for`](Self::seq_for)).
    pub fn commit_seq(&self) -> u64 {
        match &self.repr {
            SnapRepr::Single(s) => s.commit_seq(),
            SnapRepr::Multi(snaps) => snaps.iter().map(|s| s.commit_seq()).max().unwrap_or(0),
        }
    }
}

impl ShardedChunkStore {
    // ---- constructors -----------------------------------------------

    /// Wrap an already-constructed unsharded store (shard count 1). The
    /// result behaves identically to the wrapped store.
    pub fn from_single(store: Arc<ChunkStore>) -> ShardedChunkStore {
        ShardedChunkStore {
            repr: Repr::Single(store),
        }
    }

    /// Create a fresh database partitioned across `cfg.shards` shards.
    /// Fails if any database (sharded or not) already exists in
    /// `untrusted`.
    pub fn create(
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        cfg: ChunkStoreConfig,
    ) -> Result<ShardedChunkStore> {
        cfg.validate().map_err(ChunkStoreError::ConfigMismatch)?;
        if rr_exists(&*untrusted)? {
            return Err(ChunkStoreError::ConfigMismatch(
                "a sharded database already exists in this untrusted store".into(),
            ));
        }
        if cfg.shards == 1 {
            let inner = ChunkStore::create(untrusted, secret, counter, cfg)?;
            return Ok(Self::from_single(Arc::new(inner)));
        }
        if AnchorStore::new(&*untrusted).database_exists()? {
            return Err(ChunkStoreError::ConfigMismatch(
                "an unsharded database already exists in this untrusted store".into(),
            ));
        }
        let n = cfg.shards;
        let ctx = CryptoCtx::with_domain(cfg.security, secret, iv_salt(&*counter), RR_DOMAIN)?;
        let mode = cfg.security;
        let hw_now = match mode {
            SecurityMode::Full => counter.read()?,
            SecurityMode::Off => 0,
        };
        let state = RrState {
            rr_seq: 1,
            shards: n as u32,
            epoch: 1,
            expected_hw: match mode {
                SecurityMode::Full => hw_now + 1,
                SecurityMode::Off => 0,
            },
            counters: vec![0; n],
        };
        rr_write(&*untrusted, &ctx, &state)?;
        if mode == SecurityMode::Full {
            counter.increment()?;
        }
        let combiner = Arc::new(Combiner {
            mode,
            ctx,
            untrusted: untrusted.clone(),
            hw: counter,
            state: Mutex::new(state),
        });
        let mut shards = Vec::with_capacity(n);
        for k in 0..n {
            shards.push(Arc::new(Self::build_shard(
                &untrusted, secret, &combiner, k, &cfg, true,
            )?));
        }
        // Reserve local chunk 0 on every shard: the coordination directory
        // on shard 0, the cross-shard witness ring elsewhere.
        for (k, shard) in shards.iter().enumerate() {
            let mut b = shard.begin_batch();
            let id = b.allocate_chunk_id()?;
            assert_eq!(id, RESERVED, "fresh shard must hand out local id 0 first");
            let body = if k == 0 { enc_dir(&[]) } else { enc_ring(&[]) };
            b.write(id, &body)?;
            shard.commit_batch(b, Durability::Durable)?;
        }
        Ok(ShardedChunkStore {
            repr: Repr::Multi(Arc::new(MultiCore::assemble(shards, combiner, 1))),
        })
    }

    fn build_shard(
        untrusted: &Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        combiner: &Arc<Combiner>,
        k: usize,
        cfg: &ChunkStoreConfig,
        create: bool,
    ) -> Result<ChunkStore> {
        let prefixed: Arc<dyn UntrustedStore> =
            Arc::new(PrefixedStore::new(untrusted.clone(), format!("shard{k}--")));
        let derived = DerivedSecret::for_shard(secret, k).map_err(ChunkStoreError::Platform)?;
        let vcounter: Arc<dyn OneWayCounter> = Arc::new(ShardCounter {
            combiner: combiner.clone(),
            idx: k,
        });
        let shard_cfg = ChunkStoreConfig {
            shards: 1,
            ..cfg.clone()
        };
        if create {
            ChunkStore::create(prefixed, &derived, vcounter, shard_cfg)
        } else {
            ChunkStore::open(prefixed, &derived, vcounter, shard_cfg)
        }
    }

    /// Open an existing database: validate the root-of-roots against the
    /// hardware counter, recover every shard, then redo any cross-shard
    /// transaction a crash left registered but not applied everywhere.
    pub fn open(
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        cfg: ChunkStoreConfig,
    ) -> Result<ShardedChunkStore> {
        cfg.validate().map_err(ChunkStoreError::ConfigMismatch)?;
        if cfg.shards == 1 {
            if rr_exists(&*untrusted)? {
                return Err(ChunkStoreError::ConfigMismatch(
                    "database was created sharded; open it with the same shard count".into(),
                ));
            }
            let inner = ChunkStore::open(untrusted, secret, counter, cfg)?;
            return Ok(Self::from_single(Arc::new(inner)));
        }
        let n = cfg.shards;
        let ctx = CryptoCtx::with_domain(cfg.security, secret, iv_salt(&*counter), RR_DOMAIN)?;
        let mode = cfg.security;
        let mut state = match rr_read_best(&*untrusted, &ctx) {
            Ok(state) => state,
            Err(ChunkStoreError::NoDatabase) => {
                if AnchorStore::new(&*untrusted).database_exists()? {
                    return Err(ChunkStoreError::ConfigMismatch(
                        "database was created unsharded; open it with shards = 1".into(),
                    ));
                }
                return Err(ChunkStoreError::NoDatabase);
            }
            Err(e) => return Err(e),
        };
        if state.shards as usize != n {
            return Err(ChunkStoreError::ConfigMismatch(format!(
                "database was created with {} shards, opened with {n}",
                state.shards
            )));
        }
        if mode == SecurityMode::Full {
            // Same decision rule as the anchor/counter pair: a one-ahead
            // record is the benign crash window between the root-of-roots
            // write and its hardware increment; anything else is replay.
            let hw_now = counter.read()?;
            if state.expected_hw == hw_now + 1 {
                counter.increment()?;
            } else if state.expected_hw != hw_now {
                return Err(ChunkStoreError::ReplayDetected {
                    anchor_counter: state.expected_hw,
                    hardware_counter: hw_now,
                });
            }
        }
        // New open generation: cross-shard transaction ids must never
        // repeat across reopens (witness rings persist).
        state.epoch += 1;
        state.rr_seq += 1;
        let hw_now = match mode {
            SecurityMode::Full => counter.read()?,
            SecurityMode::Off => 0,
        };
        state.expected_hw = match mode {
            SecurityMode::Full => hw_now + 1,
            SecurityMode::Off => 0,
        };
        rr_write(&*untrusted, &ctx, &state)?;
        if mode == SecurityMode::Full {
            counter.increment()?;
        }
        let epoch = state.epoch;
        let combiner = Arc::new(Combiner {
            mode,
            ctx,
            untrusted: untrusted.clone(),
            hw: counter,
            state: Mutex::new(state),
        });
        let mut shards = Vec::with_capacity(n);
        for k in 0..n {
            shards.push(Arc::new(Self::build_shard(
                &untrusted, secret, &combiner, k, &cfg, false,
            )?));
        }
        let core = MultiCore::assemble(shards, combiner, epoch);
        Self::redo_cross_shard(&core)?;
        Ok(ShardedChunkStore {
            repr: Repr::Multi(Arc::new(core)),
        })
    }

    /// Open if a database exists (sharded or not), otherwise create one.
    pub fn open_or_create(
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        cfg: ChunkStoreConfig,
    ) -> Result<ShardedChunkStore> {
        if Self::database_exists(&*untrusted)? {
            Self::open(untrusted, secret, counter, cfg)
        } else {
            Self::create(untrusted, secret, counter, cfg)
        }
    }

    /// Whether any database — sharded or unsharded — exists in `untrusted`.
    pub fn database_exists(untrusted: &dyn UntrustedStore) -> Result<bool> {
        Ok(AnchorStore::new(untrusted).database_exists()? || rr_exists(untrusted)?)
    }

    /// Complete cross-shard transactions the directory registers but some
    /// participant's witness ring does not yet contain. Redo applies full
    /// post-images, so it is idempotent and insensitive to how far phase
    /// (B) got before the crash.
    fn redo_cross_shard(core: &MultiCore) -> Result<()> {
        let dir = dec_dir(&core.shards[0].read(RESERVED)?)?;
        if dir.is_empty() {
            return Ok(());
        }
        for (xid, coord_ids) in &dir {
            let mut record = Vec::new();
            for id in coord_ids {
                record.extend_from_slice(&core.shards[0].read(ChunkId(*id))?);
            }
            let (rec_xid, sections) = dec_coord(&record)?;
            if rec_xid != *xid {
                return Err(tamper("coordination record: directory id mismatch"));
            }
            for sec in &sections {
                let s = sec.shard as usize;
                if s == 0 || s >= core.n() {
                    return Err(tamper("coordination record: shard out of range"));
                }
                let shard = &core.shards[s];
                if dec_ring(&shard.read(RESERVED)?)?.contains(xid) {
                    continue;
                }
                trace::emit(TraceLayer::Shard, TraceKind::XRedo, *xid, s as u64, 0);
                Self::apply_participant_redo(shard, *xid, sec)?;
            }
        }
        // All transactions are applied everywhere: prune the directory and
        // free the records in one lazy commit (re-done next open if lost).
        let mut b = core.shards[0].begin_batch();
        b.write(RESERVED, &enc_dir(&[]))?;
        for (_, coord_ids) in &dir {
            for id in coord_ids {
                b.deallocate(ChunkId(*id))?;
            }
        }
        core.shards[0].commit_batch(b, Durability::Lazy)
    }

    // ---- shape ------------------------------------------------------

    /// Number of shards.
    pub fn shards(&self) -> usize {
        match &self.repr {
            Repr::Single(_) => 1,
            Repr::Multi(core) => core.n(),
        }
    }

    /// The single underlying [`ChunkStore`] when the store is unsharded.
    ///
    /// Bridges APIs that operate on a plain chunk store (backup, restore)
    /// and are not shard-aware. `operation` names the caller's operation
    /// for the error message. Fails with
    /// [`ChunkStoreError::ConfigMismatch`] when more than one shard
    /// exists, naming the operation and the shard count.
    pub fn unsharded(&self, operation: &str) -> Result<&Arc<ChunkStore>> {
        match &self.repr {
            Repr::Single(store) => Ok(store),
            Repr::Multi(core) => Err(ChunkStoreError::ConfigMismatch(format!(
                "{operation} requires an unsharded store, but this database has {} shards; \
                 per-shard backup/restore is not supported yet — see DESIGN.md \
                 \"Sharding & the root-of-roots\"",
                core.n()
            ))),
        }
    }

    /// Direct handle to shard `i`, for per-shard observability and
    /// maintenance (stats, forced checkpoint/clean). Routing invariants
    /// are the caller's responsibility when using it to read or write.
    pub fn shard(&self, i: usize) -> &ChunkStore {
        match &self.repr {
            Repr::Single(store) => {
                assert_eq!(i, 0, "unsharded store has only shard 0");
                store
            }
            Repr::Multi(core) => &core.shards[i],
        }
    }

    // ---- batches & commit -------------------------------------------

    /// Start an independent staging area (see [`ShardedWriteBatch`]).
    pub fn begin_batch(&self) -> ShardedWriteBatch {
        match &self.repr {
            Repr::Single(store) => ShardedWriteBatch {
                repr: BatchRepr::Single(store.begin_batch()),
            },
            Repr::Multi(core) => ShardedWriteBatch {
                repr: BatchRepr::Multi(MultiBatch {
                    core: core.clone(),
                    batches: (0..core.n()).map(|_| None).collect(),
                    mirror: (0..core.n()).map(|_| BTreeMap::new()).collect(),
                }),
            },
        }
    }

    /// Append a batch's staged operations — the commit point — and return
    /// a ticket. Batches touching a single shard take that shard's fast
    /// path; batches touching several commit with the two-phase protocol
    /// in the [module docs](self) (and are implicitly durable).
    pub fn append_batch(
        &self,
        batch: ShardedWriteBatch,
        durability: Durability,
    ) -> Result<ShardedCommitTicket> {
        match (&self.repr, batch.repr) {
            (Repr::Single(store), BatchRepr::Single(b)) => {
                let ticket = store.append_batch(b, durability)?;
                Ok(ShardedCommitTicket {
                    repr: TicketRepr::Single {
                        shard: 0,
                        durable: durability.is_durable(),
                        ticket,
                    },
                })
            }
            (Repr::Multi(core), BatchRepr::Multi(mb)) => Self::append_multi(core, mb, durability),
            _ => Err(ChunkStoreError::ConfigMismatch(
                "batch belongs to a store with a different shard layout".into(),
            )),
        }
    }

    fn append_multi(
        core: &Arc<MultiCore>,
        mut mb: MultiBatch,
        durability: Durability,
    ) -> Result<ShardedCommitTicket> {
        let n = core.n();
        let touched: Vec<usize> = (0..n)
            .filter(|&s| mb.batches[s].as_ref().is_some_and(|b| !b.is_empty()))
            .collect();
        match touched.len() {
            0 => {
                // Empty barrier: an empty commit on shard 0; a durable
                // wait on its ticket hardens every shard (below).
                let ticket =
                    core.shards[0].append_batch(core.shards[0].begin_batch(), durability)?;
                Ok(ShardedCommitTicket {
                    repr: TicketRepr::Single {
                        shard: 0,
                        durable: durability.is_durable(),
                        ticket,
                    },
                })
            }
            1 => {
                let s = touched[0];
                let b = mb.batches[s].take().expect("touched shard has a batch");
                let ticket = core.shards[s].append_batch(b, durability)?;
                Ok(ShardedCommitTicket {
                    repr: TicketRepr::Single {
                        shard: s,
                        durable: durability.is_durable(),
                        ticket,
                    },
                })
            }
            _ => Self::append_cross(core, &mut mb, &touched),
        }
    }

    /// The ordered two-phase cross-shard append. Holds the exclusive
    /// cross-shard lock across both phases so concurrent cross commits,
    /// snapshots, and directory cleanups serialize against it.
    fn append_cross(
        core: &Arc<MultiCore>,
        mb: &mut MultiBatch,
        touched: &[usize],
    ) -> Result<ShardedCommitTicket> {
        let n = core.n();
        let xid = core.new_xid();
        let sections: Vec<CoordSection> = touched
            .iter()
            .filter(|&&s| s != 0)
            .map(|&s| {
                let mut writes = Vec::new();
                let mut removes = Vec::new();
                for (id, op) in &mb.mirror[s] {
                    match op {
                        Some(bytes) => writes.push((*id, bytes.clone())),
                        None => removes.push(*id),
                    }
                }
                CoordSection {
                    shard: s as u32,
                    writes,
                    removes,
                }
            })
            .collect();
        let record = enc_coord(xid, &sections);

        let _op = watchdog::op_begin(watchdog::OpKind::CrossShardCommit, xid);
        let guard = core.xlock.write();
        // Phase A: commit the coordination record + directory entry +
        // shard 0's own data in one durable commit — the commit point.
        let mut b0 = mb.batches[0]
            .take()
            .unwrap_or_else(|| core.shards[0].begin_batch());
        let max_part = core.shards[0].max_chunk_size();
        let mut coord_ids = Vec::new();
        for part in record.chunks(max_part.max(1)) {
            let id = b0.allocate_chunk_id()?;
            b0.write(id, part)?;
            coord_ids.push(id.0);
        }
        let mut dir = dec_dir(&b0.read(RESERVED)?)?;
        dir.push((xid, coord_ids.clone()));
        b0.write(RESERVED, &enc_dir(&dir))?;
        let t0 = core.shards[0].append_batch(b0, Durability::Durable)?;
        let seq0 = t0.seq();
        core.shards[0].wait_durable(t0)?;
        trace::emit(
            TraceLayer::Shard,
            TraceKind::XPhaseA,
            xid,
            seq0,
            touched.len() as u64,
        );

        // Phase B: append each participant's data, then its witness-ring
        // entry in a second commit. The ring entry is the participant's
        // *completion witness*, so it must never land before the data: a
        // failed multi-group append can leave its earlier record groups
        // committed, and RESERVED (id 0) sorts first in a batch. Nothing
        // interleaves between the two appends — the committer still holds
        // its object-layer locks until this call returns. A participant
        // whose append fails is completed in-process through the
        // (idempotent) redo path; only if that keeps failing does the
        // error escape, and then the next open's redo finishes the job.
        let mut seqs = vec![(0usize, seq0)];
        let mut tickets = Vec::new();
        for &s in touched.iter().filter(|&&s| s != 0) {
            let shard = &core.shards[s];
            let bs = mb.batches[s].take().expect("touched shard has a batch");
            match shard.append_batch(bs, Durability::Durable) {
                Ok(ts) => {
                    seqs.push((s, ts.seq()));
                    tickets.push((s, ts));
                }
                Err(e) => {
                    let sec = sections
                        .iter()
                        .find(|c| c.shard as usize == s)
                        .expect("participant has a coordination section");
                    Self::force_participant_data(shard, sec, e)?;
                }
            }
            match Self::append_ring_entry(shard, xid) {
                Ok(tr) => tickets.push((s, tr)),
                Err(e) => Self::force_ring_entry(shard, xid, e)?,
            }
            trace::emit(TraceLayer::Shard, TraceKind::XPhaseB, xid, s as u64, 0);
        }
        drop(guard);
        Ok(ShardedCommitTicket {
            repr: TicketRepr::Cross {
                n,
                seqs,
                tickets,
                xid,
                coord_ids,
            },
        })
    }

    /// Commit `xid` into `shard`'s witness ring as its own durable
    /// append, strictly after the participant's data commit.
    fn append_ring_entry(shard: &ChunkStore, xid: u64) -> Result<CommitTicket> {
        let mut bs = shard.begin_batch();
        let mut ring = dec_ring(&bs.read(RESERVED)?)?;
        ring_push(&mut ring, xid, ring_cap_for(shard.max_chunk_size()));
        bs.write(RESERVED, &enc_ring(&ring))?;
        trace::emit(
            TraceLayer::Shard,
            TraceKind::XWitness,
            xid,
            ring.len() as u64,
            0,
        );
        shard.append_batch(bs, Durability::Durable)
    }

    /// Re-apply a participant's data after its phase (B) append failed.
    /// The transaction is already durably committed on shard 0, so the
    /// only acceptable outcomes are "applied" (possibly after waiting out
    /// transient space pressure) or surfacing the original error once the
    /// retries are exhausted — the next open's redo then completes it.
    fn force_participant_data(
        shard: &ChunkStore,
        sec: &CoordSection,
        first: ChunkStoreError,
    ) -> Result<()> {
        for _ in 0..PHASE_B_RETRIES {
            std::thread::sleep(PHASE_B_BACKOFF);
            if Self::apply_section_data(shard, sec).is_ok() {
                return Ok(());
            }
        }
        Err(first)
    }

    /// Same recovery posture as [`force_participant_data`], for the
    /// witness-ring entry.
    fn force_ring_entry(shard: &ChunkStore, xid: u64, first: ChunkStoreError) -> Result<()> {
        for _ in 0..PHASE_B_RETRIES {
            std::thread::sleep(PHASE_B_BACKOFF);
            if Self::append_ring_entry(shard, xid).is_ok() {
                return Ok(());
            }
        }
        Err(first)
    }

    /// Apply one coordination section's full post-images through the
    /// restore path. Idempotent: re-running it writes the same bytes.
    fn apply_section_data(shard: &ChunkStore, sec: &CoordSection) -> Result<()> {
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

    /// Complete one participant: data first, then the witness-ring entry
    /// in its own commit, mirroring phase (B)'s ordering so a ring entry
    /// always means "this shard's data is fully applied".
    fn apply_participant_redo(shard: &ChunkStore, xid: u64, sec: &CoordSection) -> Result<()> {
        Self::apply_section_data(shard, sec)?;
        let mut ring = dec_ring(&shard.read(RESERVED)?)?;
        ring_push(&mut ring, xid, ring_cap_for(shard.max_chunk_size()));
        shard.apply_restore_delta(vec![(RESERVED, enc_ring(&ring))], Vec::new())
    }

    /// Block until the ticket's commits are durable. At N > 1 a durable
    /// wait also anchors every sibling shard with uncovered commits, so
    /// the acked durable frontier is global exactly as in one shared log.
    pub fn wait_durable(&self, ticket: ShardedCommitTicket) -> Result<()> {
        match (&self.repr, ticket.repr) {
            (Repr::Single(store), TicketRepr::Single { ticket, .. }) => store.wait_durable(ticket),
            (
                Repr::Multi(core),
                TicketRepr::Single {
                    shard,
                    durable,
                    ticket,
                    ..
                },
            ) => {
                core.shards[shard].wait_durable(ticket)?;
                if durable {
                    core.harden_others(Some(shard))?;
                }
                Ok(())
            }
            (
                Repr::Multi(core),
                TicketRepr::Cross {
                    tickets,
                    xid,
                    coord_ids,
                    ..
                },
            ) => {
                for (s, t) in tickets {
                    core.shards[s].wait_durable(t)?;
                }
                core.harden_others(None)?;
                core.cleanup(xid, &coord_ids)
            }
            _ => Err(ChunkStoreError::ConfigMismatch(
                "ticket belongs to a store with a different shard layout".into(),
            )),
        }
    }

    /// [`append_batch`](Self::append_batch) + [`wait_durable`](Self::wait_durable).
    pub fn commit_batch(&self, batch: ShardedWriteBatch, durability: Durability) -> Result<()> {
        let ticket = self.append_batch(batch, durability)?;
        self.wait_durable(ticket)
    }

    // ---- reads & snapshots ------------------------------------------

    /// Read a chunk's committed bytes.
    pub fn read(&self, cid: ChunkId) -> Result<Vec<u8>> {
        match &self.repr {
            Repr::Single(store) => store.read(cid),
            Repr::Multi(core) => {
                let (s, local) = route(core.n(), cid);
                core.shards[s].read(local)
            }
        }
    }

    /// Read a chunk plus the commit sequence (on its shard) that last
    /// wrote it.
    pub fn read_versioned(&self, cid: ChunkId) -> Result<(Vec<u8>, u64)> {
        match &self.repr {
            Repr::Single(store) => store.read_versioned(cid),
            Repr::Multi(core) => {
                let (s, local) = route(core.n(), cid);
                core.shards[s].read_versioned(local)
            }
        }
    }

    /// Whether `cid` is currently allocated.
    pub fn is_allocated(&self, cid: ChunkId) -> bool {
        match &self.repr {
            Repr::Single(store) => store.is_allocated(cid),
            Repr::Multi(core) => {
                let (s, local) = route(core.n(), cid);
                core.shards[s].is_allocated(local)
            }
        }
    }

    /// Take a consistent snapshot across every shard (shared cross-shard
    /// lock: no half-applied cross-shard transaction is observable).
    pub fn snapshot(&self) -> ShardedSnapshot {
        match &self.repr {
            Repr::Single(store) => ShardedSnapshot {
                repr: SnapRepr::Single(store.snapshot()),
            },
            Repr::Multi(core) => {
                let _guard = core.xlock.read();
                ShardedSnapshot {
                    repr: SnapRepr::Multi(core.shards.iter().map(|s| s.snapshot()).collect()),
                }
            }
        }
    }

    /// Read `cid` as of `snap`.
    pub fn read_at_snapshot(&self, snap: &ShardedSnapshot, cid: ChunkId) -> Result<Vec<u8>> {
        match (&self.repr, &snap.repr) {
            (Repr::Single(store), SnapRepr::Single(s)) => store.read_at_snapshot(s, cid),
            (Repr::Multi(core), SnapRepr::Multi(snaps)) if snaps.len() == core.n() => {
                let (s, local) = route(core.n(), cid);
                core.shards[s].read_at_snapshot(&snaps[s], local)
            }
            _ => Err(ChunkStoreError::ConfigMismatch(
                "snapshot belongs to a store with a different shard layout".into(),
            )),
        }
    }

    // ---- proof-carrying reads ---------------------------------------

    /// Read `cid` as of `snap` with a deferred proof (see
    /// [`ChunkStore::proven_at_snapshot`]). On a sharded store the chunk
    /// routes to its shard, and the bookmark's later
    /// [`Proven::prove`](crate::proof::Proven::prove) splices the
    /// shard-local path into a root-of-roots epoch record minted under
    /// the combiner's state at that moment: the shard attestation carries
    /// the virtual counter pinned with the snapshot, and the epoch record
    /// proves the root-of-roots issued (at least) that virtual counter
    /// under a fresh hardware counter.
    pub fn proven_at_snapshot(
        &self,
        snap: &ShardedSnapshot,
        cid: ChunkId,
    ) -> Result<Proven<Option<Vec<u8>>>> {
        match (&self.repr, &snap.repr) {
            (Repr::Single(store), SnapRepr::Single(s)) => store.proven_at_snapshot(s, cid),
            (Repr::Multi(core), SnapRepr::Multi(snaps)) if snaps.len() == core.n() => {
                let n = core.n();
                let (s, local) = route(n, cid);
                let mut proven = core.shards[s].proven_at_snapshot(&snaps[s], local)?;
                proven.bookmark.proof_id = cid.0;
                let combiner = core.combiner.clone();
                proven.bookmark.shard = Some(Arc::new(move || {
                    let st = combiner.state.lock();
                    Ok(tdb_proof::ShardBinding {
                        shard: s as u32,
                        shards: n as u32,
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
                }));
                Ok(proven)
            }
            _ => Err(ChunkStoreError::ConfigMismatch(
                "snapshot belongs to a store with a different shard layout".into(),
            )),
        }
    }

    /// Proven read of the last committed state of `cid`; takes a fresh
    /// consistent snapshot internally. See
    /// [`proven_at_snapshot`](Self::proven_at_snapshot).
    pub fn read_proven(&self, cid: ChunkId) -> Result<Proven<Option<Vec<u8>>>> {
        let snap = self.snapshot();
        self.proven_at_snapshot(&snap, cid)
    }

    /// The trust anchor a client verifies this store's proofs against:
    /// the current hardware-counter binding, the root-of-roots key, and
    /// one attestation key per shard ([`tdb_proof::TrustKeys::Sharded`]).
    /// At shard count 1 this is the wrapped store's
    /// [`ChunkStore::trust_anchor`] unchanged.
    pub fn trust_anchor(&self) -> Result<tdb_proof::TrustAnchor> {
        match &self.repr {
            Repr::Single(store) => store.trust_anchor(),
            Repr::Multi(core) => {
                if core.combiner.mode != SecurityMode::Full {
                    return Err(ChunkStoreError::ConfigMismatch(
                        "proof-carrying reads require SecurityMode::Full \
                         (a store created with SecurityMode::Off has no MAC keys to attest under)"
                            .into(),
                    ));
                }
                let counter_value = core.combiner.state.lock().expected_hw;
                Ok(tdb_proof::TrustAnchor {
                    counter_value,
                    keys: tdb_proof::TrustKeys::Sharded {
                        rr_mac_key: *core.combiner.ctx.proof_mac_key(),
                        shard_mac_keys: core.shards.iter().map(|s| s.proof_mac_key()).collect(),
                    },
                })
            }
        }
    }

    /// Mint a keyed (index-level) attestation. Sharded stores attest
    /// keyed roots under the root-of-roots key with the current hardware
    /// counter binding (the keyed tree spans objects from every shard, so
    /// no single shard's virtual counter covers it); unsharded stores
    /// bind the snapshot-pinned counter. See
    /// [`ChunkStore::keyed_attest_at`].
    pub fn keyed_attest_at(
        &self,
        snap: &ShardedSnapshot,
        scope: &str,
        total: u64,
        root: &Digest,
    ) -> Result<tdb_proof::KeyedAttestation> {
        match (&self.repr, &snap.repr) {
            (Repr::Single(store), SnapRepr::Single(s)) => {
                store.keyed_attest_at(s, scope, total, root)
            }
            (Repr::Multi(core), SnapRepr::Multi(_)) => {
                if core.combiner.mode != SecurityMode::Full {
                    return Err(ChunkStoreError::ConfigMismatch(
                        "proof-carrying reads require SecurityMode::Full \
                         (a store created with SecurityMode::Off has no MAC keys to attest under)"
                            .into(),
                    ));
                }
                let counter_value = core.combiner.state.lock().expected_hw;
                let commit_seq = snap.commit_seq();
                Ok(tdb_proof::KeyedAttestation {
                    counter_value,
                    commit_seq,
                    tag: tdb_proof::keyed::keyed_tag(
                        core.combiner.ctx.proof_mac_key(),
                        counter_value,
                        commit_seq,
                        scope,
                        total,
                        root,
                    ),
                })
            }
            _ => Err(ChunkStoreError::ConfigMismatch(
                "snapshot belongs to a store with a different shard layout".into(),
            )),
        }
    }

    // ---- maintenance & lifecycle ------------------------------------

    /// Checkpoint every shard's location map.
    pub fn checkpoint(&self) -> Result<()> {
        match &self.repr {
            Repr::Single(store) => store.checkpoint(),
            Repr::Multi(core) => {
                for s in &core.shards {
                    s.checkpoint()?;
                }
                Ok(())
            }
        }
    }

    /// Run one cleaning pass on every shard; returns segments freed.
    pub fn clean(&self) -> Result<usize> {
        match &self.repr {
            Repr::Single(store) => store.clean(),
            Repr::Multi(core) => {
                let mut freed = 0;
                for s in &core.shards {
                    freed += s.clean()?;
                }
                Ok(freed)
            }
        }
    }

    /// Shut down maintenance threads and flush; further use is an error.
    pub fn close(&self) {
        match &self.repr {
            Repr::Single(store) => store.close(),
            Repr::Multi(core) => {
                for s in &core.shards {
                    s.close();
                }
            }
        }
    }

    /// Return globally-routed ids that were allocated but never written to
    /// the free pools of their shards.
    pub fn release_unwritten_ids(&self, ids: &[ChunkId]) {
        match &self.repr {
            Repr::Single(store) => store.release_unwritten_ids(ids),
            Repr::Multi(core) => {
                let n = core.n();
                let mut per_shard: Vec<Vec<ChunkId>> = vec![Vec::new(); n];
                for id in ids {
                    let (s, local) = route(n, *id);
                    per_shard[s].push(local);
                }
                for (s, locals) in per_shard.iter().enumerate() {
                    if !locals.is_empty() {
                        core.shards[s].release_unwritten_ids(locals);
                    }
                }
            }
        }
    }

    // ---- introspection ----------------------------------------------

    /// Counters summed across shards.
    pub fn stats(&self) -> StatsSnapshot {
        match &self.repr {
            Repr::Single(store) => store.stats(),
            Repr::Multi(core) => core
                .shards
                .iter()
                .fold(StatsSnapshot::default(), |acc, s| acc.merge(&s.stats())),
        }
    }

    /// The store's observability registry.
    ///
    /// Unsharded: the wrapped store's own registry, unchanged. Sharded:
    /// a merged registry in which every shard's instruments appear under
    /// a `shard{k}.` prefix (`shard0.chunk.commits`, …). The merged view
    /// adopts the shards' *handles*, not copies, so per-shard deltas
    /// taken through either view reconcile by construction. Upper layers
    /// (object/collection/backup stores) register their instruments here
    /// too, un-prefixed. Use [`obs_snapshot`](Self::obs_snapshot) for a
    /// view that also folds the shard metrics into aggregate names.
    pub fn obs(&self) -> Arc<tdb_obs::Registry> {
        match &self.repr {
            Repr::Single(store) => store.obs(),
            Repr::Multi(core) => core.merged_obs.clone(),
        }
    }

    /// Snapshot of [`obs`](Self::obs) with every `shard{k}.X` instrument
    /// additionally folded into an aggregate `X` (counters and gauges
    /// sum, histograms merge). Both the per-shard and the aggregate names
    /// coexist in the returned snapshot, so an unsharded consumer reading
    /// `chunk.commits` and a per-shard consumer reading
    /// `shard1.chunk.commits` see consistent numbers from one snapshot.
    pub fn obs_snapshot(&self) -> tdb_obs::RegistrySnapshot {
        let snap = self.obs().snapshot();
        match &self.repr {
            Repr::Single(_) => snap,
            Repr::Multi(core) => fold_shard_metrics(snap, core.n()),
        }
    }

    /// Shard 0's recovery report (per-shard reports via
    /// [`recovery_reports`](Self::recovery_reports)).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.shard(0).recovery_report()
    }

    /// Recovery report of every shard, in shard order.
    pub fn recovery_reports(&self) -> Vec<Option<RecoveryReport>> {
        (0..self.shards())
            .map(|i| self.shard(i).recovery_report())
            .collect()
    }

    /// Security mode (identical across shards).
    pub fn security(&self) -> SecurityMode {
        self.shard(0).security()
    }

    /// Mean live-data utilization across shards.
    pub fn utilization(&self) -> f64 {
        match &self.repr {
            Repr::Single(store) => store.utilization(),
            Repr::Multi(core) => {
                core.shards.iter().map(|s| s.utilization()).sum::<f64>() / core.n() as f64
            }
        }
    }

    /// Total bytes of segment files across shards.
    pub fn disk_size(&self) -> u64 {
        match &self.repr {
            Repr::Single(store) => store.disk_size(),
            Repr::Multi(core) => core.shards.iter().map(|s| s.disk_size()).sum(),
        }
    }

    /// Live chunks across shards. At N > 1 this includes the N reserved
    /// bookkeeping chunks (directory + witness rings).
    pub fn live_chunks(&self) -> u64 {
        match &self.repr {
            Repr::Single(store) => store.live_chunks(),
            Repr::Multi(core) => core.shards.iter().map(|s| s.live_chunks()).sum(),
        }
    }

    /// Largest storable chunk (identical across shards).
    pub fn max_chunk_size(&self) -> usize {
        self.shard(0).max_chunk_size()
    }

    // ---- restore bridge (unsharded only) ----------------------------

    /// Install a full database image at exact chunk ids (backup restore).
    /// Only supported at shard count 1, where ids map through unchanged.
    pub fn restore_image(&self, chunks: Vec<(ChunkId, Vec<u8>)>) -> Result<()> {
        match &self.repr {
            Repr::Single(store) => store.restore_image(chunks),
            Repr::Multi(core) => Err(ChunkStoreError::ConfigMismatch(format!(
                "restore_image requires an unsharded store, but this database has {} shards; \
                 restore into a store opened with shards = 1 — see DESIGN.md \
                 \"Sharding & the root-of-roots\"",
                core.n()
            ))),
        }
    }

    /// Apply an incremental restore delta at exact chunk ids. Only
    /// supported at shard count 1.
    pub fn apply_restore_delta(
        &self,
        writes: Vec<(ChunkId, Vec<u8>)>,
        removes: Vec<ChunkId>,
    ) -> Result<()> {
        match &self.repr {
            Repr::Single(store) => store.apply_restore_delta(writes, removes),
            Repr::Multi(core) => Err(ChunkStoreError::ConfigMismatch(format!(
                "apply_restore_delta requires an unsharded store, but this database has {} \
                 shards; restore into a store opened with shards = 1 — see DESIGN.md \
                 \"Sharding & the root-of-roots\"",
                core.n()
            ))),
        }
    }
}

impl ShardedWriteBatch {
    /// Allocate an unused global chunk id. Shards are filled round-robin,
    /// so a fresh store hands out 0, 1, 2, … exactly like the unsharded
    /// store.
    pub fn allocate_chunk_id(&mut self) -> Result<ChunkId> {
        match &mut self.repr {
            BatchRepr::Single(b) => b.allocate_chunk_id(),
            BatchRepr::Multi(mb) => {
                let n = mb.core.n();
                let s = mb.core.cursor.fetch_add(1, Ordering::Relaxed) % n;
                let local = mb.ensure(s).allocate_chunk_id()?;
                Ok(unroute(n, s, local))
            }
        }
    }

    /// Stage a write of `cid`.
    pub fn write(&mut self, cid: ChunkId, bytes: &[u8]) -> Result<()> {
        match &mut self.repr {
            BatchRepr::Single(b) => b.write(cid, bytes),
            BatchRepr::Multi(mb) => {
                let (s, local) = route(mb.core.n(), cid);
                mb.ensure(s).write(local, bytes)?;
                mb.mirror[s].insert(local.0, Some(bytes.to_vec()));
                Ok(())
            }
        }
    }

    /// Stage a deallocation of `cid`.
    pub fn deallocate(&mut self, cid: ChunkId) -> Result<()> {
        match &mut self.repr {
            BatchRepr::Single(b) => b.deallocate(cid),
            BatchRepr::Multi(mb) => {
                let (s, local) = route(mb.core.n(), cid);
                mb.ensure(s).deallocate(local)?;
                mb.mirror[s].insert(local.0, None);
                Ok(())
            }
        }
    }

    /// Read through the batch: staged bytes if `cid` is staged here,
    /// otherwise the committed state.
    pub fn read(&self, cid: ChunkId) -> Result<Vec<u8>> {
        match &self.repr {
            BatchRepr::Single(b) => b.read(cid),
            BatchRepr::Multi(mb) => {
                let (s, local) = route(mb.core.n(), cid);
                match &mb.batches[s] {
                    Some(b) => b.read(local),
                    None => mb.core.shards[s].read(local),
                }
            }
        }
    }

    /// Whether no operations are staged.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            BatchRepr::Single(b) => b.is_empty(),
            BatchRepr::Multi(mb) => mb
                .batches
                .iter()
                .all(|b| b.as_ref().is_none_or(|b| b.is_empty())),
        }
    }

    /// Staged operations (writes + deallocations) across shards.
    pub fn staged_ops(&self) -> usize {
        match &self.repr {
            BatchRepr::Single(b) => b.staged_ops(),
            BatchRepr::Multi(mb) => mb
                .batches
                .iter()
                .map(|b| b.as_ref().map_or(0, |b| b.staged_ops()))
                .sum(),
        }
    }

    /// Explicitly discard the batch (equivalent to dropping it).
    pub fn discard(self) {}
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
            for g in 0..500u64 {
                let (s, local) = route(n, ChunkId(g));
                assert!(s < n);
                assert!(local.0 >= 1, "local 0 must stay reserved");
                assert_eq!(unroute(n, s, local), ChunkId(g));
            }
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
        let store =
            ShardedChunkStore::create(mem.clone(), &secret(), counter.clone(), cfg(2)).unwrap();
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

        let store = ShardedChunkStore::open(mem, &secret(), counter, cfg(2)).unwrap();
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

    #[test]
    fn single_shard_batches_stay_on_their_shard() {
        let mem = Arc::new(MemStore::new());
        let store =
            ShardedChunkStore::create(mem, &secret(), Arc::new(VolatileCounter::new()), cfg(2))
                .unwrap();
        // Write only to the shard of global id 0 (shard 0).
        let mut b = store.begin_batch();
        let id = b.allocate_chunk_id().unwrap();
        b.write(id, b"solo").unwrap();
        let ticket = store.append_batch(b, Durability::Durable).unwrap();
        assert!(matches!(ticket.repr, TicketRepr::Single { .. }));
        store.wait_durable(ticket).unwrap();
        assert_eq!(store.read(id).unwrap(), b"solo");
    }

    #[test]
    fn shard_count_changes_are_rejected() {
        let mem = Arc::new(MemStore::new());
        let counter = Arc::new(VolatileCounter::new());
        let store =
            ShardedChunkStore::create(mem.clone(), &secret(), counter.clone(), cfg(2)).unwrap();
        store.close();
        drop(store);
        for wrong in [1usize, 3] {
            match ShardedChunkStore::open(mem.clone(), &secret(), counter.clone(), cfg(wrong)) {
                Err(ChunkStoreError::ConfigMismatch(_)) => {}
                other => panic!("open with shards={wrong} gave {:?}", other.map(|_| ())),
            }
        }
        // And a legacy unsharded database refuses a sharded open.
        let mem1 = Arc::new(MemStore::new());
        let c1 = Arc::new(VolatileCounter::new());
        let s1 = ShardedChunkStore::create(mem1.clone(), &secret(), c1.clone(), cfg(1)).unwrap();
        s1.close();
        drop(s1);
        match ShardedChunkStore::open(mem1, &secret(), c1, cfg(2)) {
            Err(ChunkStoreError::ConfigMismatch(_)) => {}
            other => panic!("sharded open of unsharded db gave {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn whole_database_rollback_is_replay_detected() {
        let mem = Arc::new(MemStore::new());
        let counter = Arc::new(TamperableCounter::new());
        let store =
            ShardedChunkStore::create(mem.clone(), &secret(), counter.clone(), cfg(2)).unwrap();
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
        match ShardedChunkStore::open(mem, &secret(), counter, cfg(2)) {
            Err(ChunkStoreError::ReplayDetected { .. }) => {}
            other => panic!("rolled-back counter gave {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn from_single_delegates() {
        let mem = Arc::new(MemStore::new());
        let inner = Arc::new(
            ChunkStore::create(
                mem,
                &secret(),
                Arc::new(VolatileCounter::new()),
                ChunkStoreConfig::small_for_tests(),
            )
            .unwrap(),
        );
        let store = ShardedChunkStore::from_single(inner.clone());
        assert_eq!(store.shards(), 1);
        let mut b = store.begin_batch();
        let id = b.allocate_chunk_id().unwrap();
        b.write(id, b"delegated").unwrap();
        store.commit_batch(b, Durability::Durable).unwrap();
        // Visible through the wrapped store directly: pure delegation.
        assert_eq!(inner.read(id).unwrap(), b"delegated");
        assert_eq!(store.stats().commits, inner.stats().commits);
    }

    #[test]
    fn lazy_cross_shard_commits_are_upgraded_to_durable() {
        let mem = Arc::new(MemStore::new());
        let counter = Arc::new(VolatileCounter::new());
        let store =
            ShardedChunkStore::create(mem.clone(), &secret(), counter.clone(), cfg(2)).unwrap();
        let mut b = store.begin_batch();
        let x = b.allocate_chunk_id().unwrap();
        let y = b.allocate_chunk_id().unwrap();
        b.write(x, b"left").unwrap();
        b.write(y, b"right").unwrap();
        // Request Lazy; the cross-shard path must still be fully durable.
        store.commit_batch(b, Durability::Lazy).unwrap();
        store.close();
        drop(store);
        let store = ShardedChunkStore::open(mem, &secret(), counter, cfg(2)).unwrap();
        assert_eq!(store.read(x).unwrap(), b"left");
        assert_eq!(store.read(y).unwrap(), b"right");
    }
}
