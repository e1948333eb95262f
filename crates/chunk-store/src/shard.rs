//! One shard: the single-log engine behind [`ChunkStore`](crate::ChunkStore)
//! — per-batch staging, group commits, checkpoints, snapshots. A store
//! holds one of these per shard (one at the default `shards = 1`); the
//! type is not visible outside the crate.
//!
//! See the crate docs for the big picture. This module owns the write path:
//!
//! * operations (`write`, `deallocate`) stage into a [`ShardBatch`] — each
//!   transaction gets its own, so staging takes no shared lock;
//! * `commit_batch` seals the batch's chunk records *outside* the store
//!   lock, then appends them plus a chain-authenticated commit record to the
//!   log under a short append lock (splitting very large batches into
//!   several chained commit records that still become durable atomically,
//!   because recovery only applies commits the anchor's `last_seq` covers);
//! * a *durable* commit then enters the group-commit coordinator: one
//!   leader syncs the log, advances the trusted anchor, and bumps the
//!   one-way counter for every commit record appended so far, waking the
//!   followers its anchor covered. Recovery is unchanged by grouping — a
//!   group is just consecutive chained commit records under one anchor;
//! * a *nondurable* commit only flushes and is discarded by recovery until
//!   a later durable commit covers it;
//! * the residual log is checkpointed when it exceeds the configured
//!   threshold, and the cleaner runs when free segments fall below the low
//!   watermark while utilization is below the configured maximum (§3.2.1) —
//!   one policy (`maintenance::one_round`), driven by the maintenance
//!   thread or, when there is none, by the committer.

use crate::anchor::{AnchorState, AnchorStore};
use crate::config::{ChunkStoreConfig, SecurityMode};
use crate::crypto_ctx::CryptoCtx;
use crate::error::{ChunkStoreError, Result};
use crate::ids::{ChunkId, SegmentId};
use crate::layout::{
    decode_chunk_payload, encode_chunk_payload, CommitPayload, RecordKind, LOCATION_LEN,
};
use crate::maintenance::{self, MaintShared, PassResult};
use crate::map::{diff_roots, Location, LocationMap};
use crate::proof::{self, BookmarkOutcome, ProofBookmark, Proven};
use crate::recovery;
use crate::segment::{self, SegmentManager};
use crate::snapshot::{ShardSnapshot, SnapCore, SnapshotDiff};
use crate::stats::{add, SharedStats, Stats};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use tdb_core::Durability;
use tdb_crypto::Digest;
use tdb_obs::{trace, watchdog, Histogram, Stopwatch, TraceKind, TraceLayer};
use tdb_platform::{OneWayCounter, SecretStore, UntrustedStore};

/// Staged, uncommitted operations. `Some(bytes)` is a write, `None` a
/// deallocation; last operation per id wins.
#[derive(Default)]
pub(crate) struct Batch {
    pub(crate) ops: BTreeMap<u64, Option<Vec<u8>>>,
    pub(crate) allocated: Vec<u64>,
    /// A write sealed after every op in `ops`, so it lands in the batch's
    /// final record group (see [`ShardBatch::write_last`]).
    last: Option<(u64, Vec<u8>)>,
}

/// A chunk record sealed ahead of the log append — encoding, encryption,
/// and hashing all happen outside the store lock ([`CryptoCtx`] is
/// internally synchronized), so concurrent committers only serialize on
/// the short append itself. Writes reference ranges of the batch's seal
/// arena (one shared buffer per commit) instead of owning a vector each.
enum SealedOp {
    Write {
        id: ChunkId,
        range: std::ops::Range<usize>,
        hash: Digest,
    },
    Dealloc(ChunkId),
}

/// A running stopwatch for a phase-sampled operation, an inert one (laps
/// read 0 and record nothing) otherwise.
fn sampled_stopwatch(sampled: bool) -> Stopwatch {
    if sampled {
        Stopwatch::start()
    } else {
        Stopwatch::inert()
    }
}

/// Accumulated phase laps for one (sampled) commit.
struct CommitLap {
    sw: Stopwatch,
    ser_ns: u64,
    seal_ns: u64,
    append_ns: u64,
    map_ns: u64,
}

impl CommitLap {
    fn new(sampled: bool) -> CommitLap {
        CommitLap {
            sw: sampled_stopwatch(sampled),
            ser_ns: 0,
            seal_ns: 0,
            append_ns: 0,
            map_ns: 0,
        }
    }
}

/// Which phase lane an anchor round's sync/anchor/counter laps land in.
/// Rounds that complete a user commit (group leaders, empty-durable
/// barriers) are commit phases; rounds run by checkpoints and cleaner
/// passes are maintenance work and must not pollute the commit
/// histograms (they used to — see `maint.*` in [`crate::stats::Phases`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum AnchorLane {
    Commit,
    Maintenance,
}

impl AnchorLane {
    /// The lane's (sync, anchor, counter) phase histograms.
    fn hists(self, stats: &Stats) -> (&Histogram, &Histogram, &Histogram) {
        let p = &stats.phases;
        match self {
            AnchorLane::Commit => (&p.sync, &p.anchor, &p.counter),
            AnchorLane::Maintenance => (&p.maint_sync, &p.maint_anchor, &p.maint_counter),
        }
    }
}

/// Maximum number of free chunk ids remembered across restarts in the
/// anchor; ids beyond this leak (they are never handed out again), which
/// only wastes map slots.
const FREE_LIST_CAP: usize = 4096;

/// Free segments kept for reuse after a checkpoint or cleaning pass
/// before the rest are deleted; bounds on-disk size after bursts
/// (Figure 11's "resulting database size").
pub(crate) const FREE_SEGMENT_RESERVE: usize = 4;

/// Everything behind the store's state mutex.
pub(crate) struct Inner {
    pub(crate) cfg: ChunkStoreConfig,
    pub(crate) ctx: Arc<CryptoCtx>,
    pub(crate) counter: Arc<dyn OneWayCounter>,
    pub(crate) untrusted: Arc<dyn UntrustedStore>,
    pub(crate) segs: SegmentManager,
    pub(crate) map: LocationMap,
    pub(crate) next_id: u64,
    pub(crate) free_ids: BTreeSet<u64>,
    /// Sequence of the last appended commit.
    pub(crate) commit_seq: u64,
    /// Chain value of the last appended commit.
    pub(crate) chain: Digest,
    /// Commit sequence at the residual-log start.
    pub(crate) base_seq: u64,
    /// Chain value at the residual-log start.
    pub(crate) chain_base: Digest,
    pub(crate) residual_start: (SegmentId, u32),
    pub(crate) residual_segments: HashSet<SegmentId>,
    pub(crate) residual_bytes: u64,
    pub(crate) anchor_seq: u64,
    pub(crate) counter_value: u64,
    /// Map root as of the last checkpoint — what anchors reference.
    pub(crate) checkpointed_root: (Location, u32),
    /// Data extents that become dead at the next anchor write (the §3.2.2
    /// deferred-reclamation rule for nondurable commits falls out of this:
    /// decrements wait for the anchor that makes their supersession
    /// recoverable).
    pub(crate) pending_dec: Vec<Location>,
    pub(crate) snapshots: Vec<Weak<SnapCore>>,
    pub(crate) stats: SharedStats,
    /// `Some` when this handle came from `open` (crash recovery ran).
    pub(crate) recovery: Option<recovery::RecoveryReport>,
    /// Segments handed to a group leader's out-of-lock sync that has not
    /// completed yet. An anchor round running under the store lock must
    /// sync these too — it cannot assume the in-flight sync finished.
    pub(crate) sync_inflight: BTreeSet<u32>,
    /// Serializes the anchor-write + counter-bump pair across the in-lock
    /// and out-of-lock anchor paths (leaf lock: taken with the store lock
    /// held, never the reverse).
    pub(crate) anchor_io: Arc<Mutex<()>>,
    /// An incremental cleaning pass is in flight (its driver holds a
    /// `CleanPlan` and will re-take this lock for the next slice).
    /// Serializes passes so two never free each other's victims.
    pub(crate) pass_active: bool,
}

impl Inner {
    pub(crate) fn max_chunk_size(&self) -> usize {
        (self.cfg.segment_size / 4) as usize
    }

    fn max_ops_per_commit(&self) -> usize {
        // A commit record must fit comfortably in one segment.
        let budget = (self.cfg.segment_size / 2) as usize;
        (budget / (8 + LOCATION_LEN)).max(8)
    }

    /// Allocation check against committed state overlaid with `staged`
    /// operations. Ids handed out by `allocate_into` are globally visible
    /// (they left the free pool), so every batch agrees on them.
    fn is_allocated_with(&self, staged: &Batch, id: ChunkId) -> bool {
        match staged.ops.get(&id.0) {
            Some(Some(_)) => return true,
            Some(None) => return false,
            None => {}
        }
        id.0 < self.next_id && !self.free_ids.contains(&id.0)
    }

    pub(crate) fn allocate_into(&mut self, staged: &mut Batch) -> ChunkId {
        let id = match self.free_ids.pop_first() {
            Some(id) => id,
            None => {
                let id = self.next_id;
                self.next_id += 1;
                id
            }
        };
        staged.allocated.push(id);
        ChunkId(id)
    }

    pub(crate) fn stage_write(
        &mut self,
        staged: &mut Batch,
        id: ChunkId,
        data: &[u8],
    ) -> Result<()> {
        if !self.is_allocated_with(staged, id) {
            return Err(ChunkStoreError::NotAllocated(id));
        }
        if data.len() > self.max_chunk_size() {
            return Err(ChunkStoreError::ChunkTooLarge {
                size: data.len(),
                max: self.max_chunk_size(),
            });
        }
        staged.ops.insert(id.0, Some(data.to_vec()));
        Ok(())
    }

    pub(crate) fn stage_dealloc(&mut self, staged: &mut Batch, id: ChunkId) -> Result<()> {
        if !self.is_allocated_with(staged, id) {
            return Err(ChunkStoreError::NotAllocated(id));
        }
        staged.ops.insert(id.0, None);
        Ok(())
    }

    pub(crate) fn read_with(&mut self, staged: &Batch, id: ChunkId) -> Result<Vec<u8>> {
        match staged.ops.get(&id.0) {
            Some(Some(data)) => return Ok(data.clone()),
            Some(None) => return Err(ChunkStoreError::NotAllocated(id)),
            None => {}
        }
        let Some(loc) = self.map.get(id) else {
            return if self.is_allocated_with(staged, id) {
                Err(ChunkStoreError::NotWritten(id))
            } else {
                Err(ChunkStoreError::NotAllocated(id))
            };
        };
        add(&self.stats.chunk_reads, 1);
        let plain = self.read_verified(&loc, RecordKind::ChunkData)?;
        let (stored_id, data) = decode_chunk_payload(&plain)
            .map_err(|m| ChunkStoreError::TamperDetected(format!("chunk {id:?}: {}", m.0)))?;
        if stored_id != id {
            return Err(ChunkStoreError::TamperDetected(format!(
                "chunk {id:?}: record claims to be {stored_id:?}"
            )));
        }
        Ok(data.to_vec())
    }

    /// Read a record's payload, verify its hash against `loc`, decrypt.
    pub(crate) fn read_verified(&self, loc: &Location, expect: RecordKind) -> Result<Vec<u8>> {
        let stored = self.segs.read_record(loc, expect)?;
        if self.ctx.verifies_hashes() && !CryptoCtx::tags_equal(&self.ctx.hash(&stored), &loc.hash)
        {
            return Err(ChunkStoreError::TamperDetected(format!(
                "hash mismatch for record at {loc:?}"
            )));
        }
        self.ctx.open(&stored)
    }

    /// Drop a batch's staged operations and return its allocated ids to
    /// the free pool (they were never committed, or `allocated` would have
    /// been cleared).
    fn free_batch(&mut self, staged: &mut Batch) {
        staged.ops.clear();
        for id in std::mem::take(&mut staged.allocated) {
            self.free_ids.insert(id);
        }
    }

    /// Append pre-sealed chunk records plus chained commit record(s) to the
    /// log tail. The in-memory map and free list are updated only *after*
    /// each group's commit record lands, so a failed append leaves the
    /// committed state untouched (the orphaned chunk records are dead bytes
    /// for the cleaner). `consumed` counts fully committed ops: on error
    /// the caller may retry with the same arguments (after freeing space)
    /// and the append resumes at the first uncommitted group. Returns the
    /// sequence of the last commit record — the caller's ticket into the
    /// group-commit coordinator.
    fn append_sealed(
        &mut self,
        sealed_ops: &[SealedOp],
        arena: &[u8],
        durable: bool,
        lap: &mut CommitLap,
        consumed: &mut usize,
    ) -> Result<u64> {
        // Rollback for a failed half-appended group: the appended chunk
        // records were counted live but no commit record covers them.
        fn unwind(inner: &mut Inner, appended: &[(ChunkId, Location)]) {
            for (_, loc) in appended {
                inner.segs.sub_live(loc.seg, loc.len as u64);
            }
            for s in inner.segs.drain_entered() {
                inner.residual_segments.insert(s);
            }
        }

        let max_ops = self.max_ops_per_commit();
        while *consumed < sealed_ops.len() {
            let group = &sealed_ops[*consumed..(*consumed + max_ops).min(sealed_ops.len())];
            let mut writes: Vec<(ChunkId, Location)> = Vec::new();
            let mut deallocs: Vec<ChunkId> = Vec::new();
            for op in group {
                match op {
                    SealedOp::Write { id, range, hash } => {
                        lap.sw.lap();
                        let res = self
                            .segs
                            .append_record(RecordKind::ChunkData, &arena[range.clone()]);
                        lap.append_ns += lap.sw.lap();
                        let (seg, off, len) = match res {
                            Ok(v) => v,
                            Err(e) => {
                                unwind(self, &writes);
                                return Err(e);
                            }
                        };
                        writes.push((
                            *id,
                            Location {
                                seg,
                                off,
                                len,
                                hash: *hash,
                            },
                        ));
                    }
                    SealedOp::Dealloc(id) => deallocs.push(*id),
                }
            }
            lap.sw.lap();
            let payload = CommitPayload {
                seq: self.commit_seq + 1,
                durable,
                next_id: self.next_id,
                writes: writes.clone(),
                deallocs: deallocs.clone(),
            }
            .encode(self.ctx.verifies_hashes());
            lap.ser_ns += lap.sw.lap();
            let sealed = self.ctx.seal(&payload);
            let chain = self.ctx.chain(&self.chain, &sealed);
            lap.seal_ns += lap.sw.lap();
            // `payload || chain` framed straight into the tail buffer — no
            // intermediate concatenation vector.
            let res = self
                .segs
                .append_record_parts(RecordKind::Commit, &[&sealed, &chain]);
            lap.append_ns += lap.sw.lap();
            let (_, _, commit_len) = match res {
                Ok(v) => v,
                Err(e) => {
                    unwind(self, &writes);
                    return Err(e);
                }
            };
            // The group's commit record is in the log: apply its effects.
            // One batched descent updates the map — nodes shared by the
            // group's root-to-leaf paths are cloned and dirtied once.
            self.commit_seq += 1;
            self.chain = chain;
            lap.sw.lap();
            let mut map_ops: Vec<(ChunkId, Option<Location>)> =
                Vec::with_capacity(writes.len() + deallocs.len());
            for (id, loc) in &writes {
                map_ops.push((*id, Some(*loc)));
            }
            for id in &deallocs {
                map_ops.push((*id, None));
            }
            for prev in self.map.apply_batch(&map_ops).into_iter().flatten() {
                self.pending_dec.push(prev);
            }
            lap.map_ns += lap.sw.lap();
            for (_, loc) in &writes {
                self.residual_bytes += loc.len as u64;
            }
            for id in deallocs {
                self.free_ids.insert(id.0);
            }
            self.residual_bytes += commit_len as u64;
            *consumed += group.len();
        }
        for s in self.segs.drain_entered() {
            self.residual_segments.insert(s);
        }
        Ok(self.commit_seq)
    }

    /// The in-lock anchor round: sync the log under the store lock, then
    /// advance → write → settle. Everything appended so far becomes durable
    /// and recoverable. Run by checkpoints, the cleaner's settle step, and
    /// the empty durable barrier; the group-commit leader runs the same
    /// three steps around an out-of-lock sync
    /// ([`StoreCore::leader_anchor_round`]). `sampled` controls phase
    /// timing (see [`StoreCore::sample_phases`]).
    pub(crate) fn durable_anchor(&mut self, sampled: bool, lane: AnchorLane) -> Result<()> {
        let mut sw = sampled_stopwatch(sampled);
        self.segs.sync_touched()?;
        // Cover a group leader's in-flight out-of-lock sync: this anchor's
        // `last_seq` spans those records too, so their segments must be on
        // disk before it is written (double-syncing is harmless).
        self.segs.sync_ids(&self.sync_inflight)?;
        sw.lap_into(lane.hists(&self.stats).0);
        let round = self.advance_anchor();
        let written = round.write(&mut sw, lane);
        self.settle_anchor(round, written).map(|_| ())
    }

    /// Step 1 of an anchor round, under the store lock: speculatively bump
    /// `anchor_seq` (and `counter_value`) and capture the anchor state, so
    /// its fields are mutually consistent. The extents superseded so far
    /// travel with the round — they die only if its anchor gets written.
    fn advance_anchor(&mut self) -> AnchorRound {
        let bump_counter = self.ctx.mode() == SecurityMode::Full;
        self.anchor_seq += 1;
        if bump_counter {
            self.counter_value += 1;
        }
        let state = AnchorState {
            anchor_seq: self.anchor_seq,
            segment_size: self.cfg.segment_size,
            map_fanout: self.cfg.map_fanout as u32,
            map_root: self.checkpointed_root.0,
            map_depth: self.checkpointed_root.1,
            next_id: self.next_id,
            free_ids: self.free_ids.iter().take(FREE_LIST_CAP).copied().collect(),
            residual_seg: self.residual_start.0,
            residual_off: self.residual_start.1,
            base_seq: self.base_seq,
            chain_base: self.chain_base,
            last_seq: self.commit_seq,
            last_chain: self.chain,
            counter_value: self.counter_value,
        };
        AnchorRound {
            state,
            bump_counter,
            pending_dec: std::mem::take(&mut self.pending_dec),
            ctx: self.ctx.clone(),
            untrusted: self.untrusted.clone(),
            counter: self.counter.clone(),
            anchor_io: self.anchor_io.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Step 3 of an anchor round, under the store lock. `written` is the
    /// outcome of everything between the advance and here (data sync and
    /// [`AnchorRound::write`]). On success the extents superseded before
    /// the round are truly dead and the covered commit sequence is
    /// returned. On failure the speculative advance is rolled back, so a
    /// retried anchor cannot drift past the hardware counter (recovery
    /// only repairs a `+1` gap; repeated failed rounds would otherwise
    /// read as a replay attack). `anchor_seq` only rolls back if no other
    /// round advanced it meanwhile — a skipped sequence is harmless, a
    /// reused one is not.
    fn settle_anchor(&mut self, round: AnchorRound, written: Result<()>) -> Result<u64> {
        if let Err(e) = written {
            self.pending_dec.extend(round.pending_dec);
            if self.anchor_seq == round.state.anchor_seq {
                self.anchor_seq -= 1;
            }
            if round.bump_counter {
                self.counter_value -= 1;
            }
            return Err(e);
        }
        trace::emit(
            TraceLayer::Chunk,
            TraceKind::AnchorRound,
            0,
            round.state.anchor_seq,
            round.state.last_seq,
        );
        if round.bump_counter {
            trace::emit(
                TraceLayer::Chunk,
                TraceKind::CounterInc,
                0,
                round.state.counter_value,
                0,
            );
        }
        for loc in round.pending_dec {
            self.segs.sub_live(loc.seg, loc.len as u64);
        }
        Ok(round.state.last_seq)
    }

    /// Write the dirty location-map pages, advance the anchor to the new
    /// root, and reset the residual log.
    pub(crate) fn do_checkpoint(&mut self) -> Result<()> {
        let prev_mode = self.segs.set_maintenance(true);
        let r = self.do_checkpoint_inner();
        self.segs.set_maintenance(prev_mode);
        r
    }

    fn do_checkpoint_inner(&mut self) -> Result<()> {
        let mut sw = Stopwatch::start();
        trace::emit(
            TraceLayer::Maint,
            TraceKind::CheckpointBegin,
            0,
            self.residual_bytes,
            0,
        );
        let Inner {
            ref mut map,
            ref mut segs,
            ref ctx,
            ..
        } = *self;
        let root_loc = map.checkpoint(&mut |bytes| {
            let sealed = ctx.seal(bytes);
            let (seg, off, len) = segs.append_record(RecordKind::MapPage, &sealed)?;
            Ok(Location {
                seg,
                off,
                len,
                hash: ctx.hash(&sealed),
            })
        })?;
        self.checkpointed_root = (root_loc, self.map.depth());
        self.pending_dec.extend(self.map.drain_superseded());
        for s in self.segs.drain_entered() {
            self.residual_segments.insert(s);
        }
        self.segs.flush()?;
        self.residual_start = self.segs.tail_pos();
        self.chain_base = self.chain;
        self.base_seq = self.commit_seq;
        self.durable_anchor(true, AnchorLane::Maintenance)?;
        self.residual_segments.clear();
        self.residual_segments.insert(self.segs.tail_pos().0);
        self.residual_bytes = 0;
        add(&self.stats.checkpoints, 1);
        self.segs.drop_excess_free(FREE_SEGMENT_RESERVE)?;
        trace::emit(
            TraceLayer::Maint,
            TraceKind::CheckpointEnd,
            0,
            self.commit_seq,
            self.segs.free_count() as u64,
        );
        if sw.running() {
            self.stats.phases.checkpoint.record(sw.lap());
        }
        Ok(())
    }

    pub(crate) fn prune_snapshots(&mut self) {
        self.snapshots.retain(|w| w.strong_count() > 0);
    }

    fn take_snapshot(&mut self) -> ShardSnapshot {
        self.prune_snapshots();
        let (root, depth) = self.map.freeze();
        let core = Arc::new(SnapCore {
            root,
            depth,
            fanout: self.cfg.map_fanout,
            seq: self.commit_seq,
            counter_value: self.counter_value,
        });
        self.snapshots.push(Arc::downgrade(&core));
        ShardSnapshot { core }
    }
}

/// Entropy for the IV stream: wall-clock nanoseconds. Combined with the
/// one-way counter so even clock rollback cannot reproduce an IV stream
/// that encrypts *different* data (the DRBG mixes the key as well).
pub(crate) fn iv_salt(counter: &dyn OneWayCounter) -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    nanos ^ counter.read().unwrap_or(0).rotate_left(32)
}

/// One anchor round between [`Inner::advance_anchor`] and
/// [`Inner::settle_anchor`]. It owns everything the write needs, so the
/// group-commit leader can run it without the store lock.
struct AnchorRound {
    state: AnchorState,
    bump_counter: bool,
    pending_dec: Vec<Location>,
    ctx: Arc<CryptoCtx>,
    untrusted: Arc<dyn UntrustedStore>,
    counter: Arc<dyn OneWayCounter>,
    anchor_io: Arc<Mutex<()>>,
    stats: SharedStats,
}

impl AnchorRound {
    /// Step 2 of an anchor round: write the anchor, then bump the one-way
    /// counter, as one pair under the `anchor_io` leaf lock.
    fn write(&self, sw: &mut Stopwatch, lane: AnchorLane) -> Result<()> {
        let (_, anchor_h, counter_h) = lane.hists(&self.stats);
        let _io = self.anchor_io.lock();
        AnchorStore::new(&*self.untrusted).write(&self.ctx, &self.state)?;
        add(&self.stats.anchor_writes, 1);
        sw.lap_into(anchor_h);
        if self.bump_counter {
            // Anchor first, then counter: a crash between the two leaves
            // `anchor == hw + 1`, which `open` repairs by bumping the
            // counter. The reverse order would make a crash window look
            // like a replay attack.
            self.counter.increment()?;
            add(&self.stats.counter_increments, 1);
            // Recorded only on the success path of an actual increment —
            // an error (or a round that never bumps) must not pollute the
            // histogram with ~0 samples.
            sw.lap_into(counter_h);
        }
        Ok(())
    }
}

/// Group-commit coordinator state (guarded by [`StoreCore::group`]).
///
/// Durable committers register their commit sequence and wait until
/// `durable_seq` covers it. Whoever finds no leader active becomes the
/// leader: it drops this lock, takes the store lock, and runs one
/// sync/anchor/counter round, which makes *every* commit record appended
/// so far durable (durability is by anchor coverage, `last_seq`). It then
/// publishes the covered sequence and wakes the followers. Lock ordering:
/// the group lock and the store lock are never held together.
#[derive(Default)]
struct GroupState {
    /// A leader is between "decided to anchor" and "published its result".
    leader_active: bool,
    /// Commit sequences of committers currently waiting for durability.
    waiters: Vec<u64>,
}

/// State shared by the store handle, every outstanding [`ShardBatch`],
/// and the background maintenance thread.
pub(crate) struct StoreCore {
    pub(crate) inner: Mutex<Inner>,
    ctx: Arc<CryptoCtx>,
    pub(crate) stats: SharedStats,
    /// Commits until the next phase-attributed (fully timed) commit; see
    /// [`tdb_obs::phase_sample_every`].
    phase_tick: AtomicU64,
    /// Highest commit sequence covered by a written anchor. Outside the
    /// group mutex so committers can check coverage (and spin briefly on
    /// an in-flight anchor round) without any lock traffic.
    durable_seq: AtomicU64,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    /// Handshake with the background maintenance thread (kick, stall,
    /// shutdown). Present even with `background_maintenance` off — the
    /// thread is simply never spawned and committers drive the rounds.
    pub(crate) maint: MaintShared,
    /// Frozen map root awaiting a Merkle memo pass, handed to the
    /// maintenance thread by the group-commit leader. Only the latest
    /// root matters — its memo pass covers every earlier round's dirty
    /// paths too (shared nodes), so consecutive rounds coalesce and hot
    /// leaves are hashed once per batch instead of once per commit.
    pub(crate) rehash_pending: Mutex<Option<Arc<crate::map::Node>>>,
    /// Name under which this store reports in diagnostic dumps
    /// (`chunk{N}` by default; shards get `shard{k}` labels).
    diag_label: Mutex<String>,
    /// Strong reference keeping the dump provider registered for the
    /// store's lifetime; the diag registry only holds a `Weak`.
    diag_keeper: Mutex<Option<Arc<tdb_obs::diag::DiagFn>>>,
}

impl StoreCore {
    /// Whether this commit gets full phase attribution. The detailed laps
    /// cost several clock reads per record — too much for every commit — so
    /// only every [`tdb_obs::phase_sample_every`]-th commit is timed.
    /// Everything a sampled commit records (including `commit.total` and the
    /// `durable_anchor` phases when it leads its own group) comes from the
    /// same commit, so per-commit phase samples still sum to their
    /// `commit.total` sample in single-threaded runs.
    fn sample_phases(&self) -> bool {
        if !tdb_obs::enabled() {
            return false;
        }
        let tick = self.phase_tick.fetch_add(1, Ordering::Relaxed) + 1;
        tick.is_multiple_of(tdb_obs::phase_sample_every())
    }

    /// Seal a batch's staged operations outside any store lock. Every
    /// write seals straight into one shared arena (no per-chunk ciphertext
    /// vector) and is hashed as soon as it is sealed, while its bytes are
    /// still in cache.
    fn seal_ops(
        &self,
        ops: BTreeMap<u64, Option<Vec<u8>>>,
        last: Option<(u64, Vec<u8>)>,
        lap: &mut CommitLap,
    ) -> (Vec<SealedOp>, Vec<u8>) {
        let mut arena: Vec<u8> = Vec::new();
        let mut sealed_ops = Vec::with_capacity(ops.len() + 1);
        let last = last.map(|(id, data)| (id, Some(data)));
        for (raw_id, op) in ops.into_iter().chain(last) {
            let id = ChunkId(raw_id);
            match op {
                Some(data) => {
                    lap.sw.lap();
                    let payload = encode_chunk_payload(id, &data);
                    lap.ser_ns += lap.sw.lap();
                    let start = arena.len();
                    let n = self.ctx.seal_into(&payload, &mut arena);
                    let range = start..start + n;
                    let hash = self.ctx.hash(&arena[range.clone()]);
                    lap.seal_ns += lap.sw.lap();
                    sealed_ops.push(SealedOp::Write { id, range, hash });
                }
                None => sealed_ops.push(SealedOp::Dealloc(id)),
            }
        }
        (sealed_ops, arena)
    }

    /// Seal and append `ops`, then `last`, as one atomic commit; returns
    /// the ticket for [`StoreCore::wait_ticket`]. For nondurable commits
    /// the log is flushed (not synced) before returning, matching §3.2.2.
    fn append_ops(
        &self,
        ops: BTreeMap<u64, Option<Vec<u8>>>,
        last: Option<(u64, Vec<u8>)>,
        durable: bool,
    ) -> Result<ShardTicket> {
        let sampled = self.sample_phases();
        let total = sampled_stopwatch(sampled);
        let n_ops = ops.len() + usize::from(last.is_some());
        if n_ops == 0 {
            return Ok(ShardTicket {
                seq: 0,
                empty: true,
                durable,
                sampled,
                total,
            });
        }
        add(&self.stats.commits, 1);
        if durable {
            add(&self.stats.durable_commits, 1);
        }
        trace::emit(
            TraceLayer::Chunk,
            TraceKind::CommitBegin,
            0,
            n_ops as u64,
            durable as u64,
        );
        let mut lap = CommitLap::new(sampled);
        let (sealed_ops, arena) = self.seal_ops(ops, last, &mut lap);
        let mut consumed = 0usize;
        let seq = loop {
            let res = {
                let mut inner = self.inner.lock();
                inner
                    .append_sealed(&sealed_ops, &arena, durable, &mut lap, &mut consumed)
                    .and_then(|seq| {
                        if !durable {
                            inner.segs.flush()?;
                        }
                        Ok(seq)
                    })
            };
            match res {
                Ok(seq) => break seq,
                // Out of segments: block until maintenance frees one, then
                // resume the append at the first uncommitted group. Only a
                // round that says "nothing reclaimable" lets the error out.
                Err(e @ ChunkStoreError::OutOfSpace { .. }) => {
                    if !self.stall_for_space()? {
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
        };
        trace::emit(
            TraceLayer::Chunk,
            TraceKind::CommitEnd,
            seq,
            seq,
            durable as u64,
        );
        if lap.sw.running() {
            self.stats.phases.serialize.record(lap.ser_ns);
            self.stats.phases.seal.record(lap.seal_ns);
            self.stats.phases.append.record(lap.append_ns);
            self.stats.phases.map.record(lap.map_ns);
        }
        Ok(ShardTicket {
            seq,
            empty: false,
            durable,
            sampled,
            total,
        })
    }

    /// Complete a commit: group-commit wait (leading an anchor round if
    /// nobody else is) for durable tickets. A nondurable one only checks
    /// the maintenance watermarks and kicks the thread if a round is due:
    /// its records grow the log like any other, so a run of lazy commits
    /// must still get checkpoints and cleaning. With no thread the round
    /// waits for the next durable commit — run here, its checkpoint would
    /// harden this and earlier lazy commits before anything durable asked.
    fn wait_ticket(&self, ticket: ShardTicket) -> Result<()> {
        let ShardTicket {
            seq,
            empty,
            durable,
            sampled,
            mut total,
        } = ticket;
        if !durable {
            if !empty && self.maintenance_due() {
                self.maint.observe_and_kick();
            }
            return Ok(());
        }
        if empty {
            // An empty durable commit still forces a sync/anchor/counter
            // round: callers use it as a barrier.
            let covered = {
                let mut inner = self.inner.lock();
                inner.durable_anchor(sampled, AnchorLane::Commit)?;
                inner.commit_seq
            };
            self.publish_durable(covered);
            self.after_commit_maintenance()?;
        } else {
            self.wait_durable_seq(seq, sampled)?;
        }
        total.lap_into(&self.stats.phases.commit_total);
        Ok(())
    }

    /// Block until an anchor covers `my_seq`, leading the anchor round if
    /// no leader is active. See [`GroupState`] for the protocol.
    fn wait_durable_seq(&self, my_seq: u64, sampled: bool) -> Result<()> {
        let mut wait_sw = Stopwatch::start();
        // Lock-free fast path: a concurrent leader that locked the store
        // after our append has already anchored past us.
        if self.durable_seq.load(Ordering::Acquire) >= my_seq {
            self.covered_by_other_round(&mut wait_sw, sampled);
            return Ok(());
        }
        // Brief spin before any blocking: on a fast store (memory, warm
        // page cache) an in-flight anchor round completes in well under the
        // cost of a condvar sleep/wake, so parking immediately would turn
        // group commit into a context-switch tax. The budget is small
        // enough that a real disk sync falls through to the sleep path.
        for _ in 0..500 {
            std::hint::spin_loop();
            if self.durable_seq.load(Ordering::Acquire) >= my_seq {
                self.covered_by_other_round(&mut wait_sw, sampled);
                return Ok(());
            }
        }
        fn unregister(waiters: &mut Vec<u64>, seq: u64) {
            if let Some(at) = waiters.iter().position(|s| *s == seq) {
                waiters.swap_remove(at);
            }
        }
        // Slow path: this commit will park on the group condvar (or lead an
        // anchor round itself) — exactly the window where a lost wakeup or a
        // wedged sync manifests as a hang, so it is watchdog-registered.
        let _op = watchdog::op_begin(watchdog::OpKind::Commit, my_seq);
        let mut announced_follower = false;
        let mut g = self.group.lock();
        g.waiters.push(my_seq);
        loop {
            let durable = self.durable_seq.load(Ordering::Acquire);
            if durable >= my_seq {
                // A leader's anchor covered us (group follower).
                unregister(&mut g.waiters, my_seq);
                drop(g);
                trace::emit(TraceLayer::Chunk, TraceKind::GroupWake, my_seq, durable, 0);
                self.covered_by_other_round(&mut wait_sw, sampled);
                return Ok(());
            }
            if !g.leader_active {
                // Become the leader: anchor once for everyone appended so
                // far. The group lock is dropped across the anchor round so
                // new committers can append and enqueue meanwhile.
                g.leader_active = true;
                drop(g);
                trace::emit(TraceLayer::Chunk, TraceKind::GroupLeader, my_seq, my_seq, 0);
                let anchored: Result<u64> = self.leader_anchor_round(sampled);
                let mut g = self.group.lock();
                g.leader_active = false;
                let covered = match anchored {
                    Ok(covered) => covered,
                    Err(e) => {
                        // Our round failed; let a follower try to lead.
                        unregister(&mut g.waiters, my_seq);
                        self.group_cv.notify_all();
                        return Err(e);
                    }
                };
                // Group size = commit records this anchor newly covered
                // (commit_seq advances by one per commit), which counts
                // spin-path committers that never registered as waiters.
                let prev = self.durable_seq.fetch_max(covered, Ordering::AcqRel);
                let group_size = covered.saturating_sub(prev);
                unregister(&mut g.waiters, my_seq);
                self.group_cv.notify_all();
                drop(g);
                trace::emit(
                    TraceLayer::Chunk,
                    TraceKind::GroupPublish,
                    my_seq,
                    covered,
                    group_size,
                );
                if wait_sw.running() {
                    self.stats.phases.group_size.record(group_size.max(1));
                    self.stats.phases.group_wait.record(wait_sw.lap());
                }
                // Housekeeping (checkpoint / cleaner) runs outside the
                // group window so followers wake at durability, not after
                // maintenance, and new appends overlap with it. With the
                // maintenance thread running this is only a watermark
                // check and a kick.
                return self.after_commit_maintenance();
            }
            // Only a commit that actually parks behind another leader is a
            // follower worth tracing — the common uncontended commit goes
            // straight to leading and stays two events (leader, publish).
            if !announced_follower {
                announced_follower = true;
                trace::emit(
                    TraceLayer::Chunk,
                    TraceKind::GroupFollower,
                    my_seq,
                    my_seq,
                    0,
                );
            }
            self.group_cv.wait(&mut g);
        }
    }

    /// Close the wait of a commit that another anchor round made durable
    /// (a concurrent leader's, or a maintenance checkpoint's
    /// [`publish_durable`](Self::publish_durable)): its group-wait lap and,
    /// if it was phase-sampled, one `chunk.sampled_commits_covered` — it
    /// records no `commit.anchor` lap of its own, so `commit.anchor` laps
    /// plus this counter equal the sampled durable commits.
    fn covered_by_other_round(&self, wait_sw: &mut Stopwatch, sampled: bool) {
        if wait_sw.running() {
            self.stats.phases.group_wait.record(wait_sw.lap());
        }
        if sampled {
            add(&self.stats.sampled_commits_covered, 1);
        }
    }

    /// One overlapped anchor round: advance under the store lock, then
    /// sync the data segments and write the anchor *outside* it, so
    /// concurrent committers keep appending — and pile into the next
    /// group — while this round's sync is in flight; their records land
    /// after the round's `last_seq` and are simply not covered by it.
    /// Rounds are serialized by `leader_active`; the in-lock rounds
    /// ([`Inner::durable_anchor`]) coexist via `Inner::sync_inflight` and
    /// the `anchor_io` leaf lock.
    fn leader_anchor_round(&self, sampled: bool) -> Result<u64> {
        let mut sw = sampled_stopwatch(sampled);
        let (round, files, tail, frozen_root) = {
            let mut inner = self.inner.lock();
            // The tail buffer is handed over unwritten: the leader writes
            // and syncs it outside the lock while appenders fill a fresh
            // buffer — seal/append of commit n+1 overlaps the sync of
            // commit n.
            let (files, tail) = inner.segs.take_touched_deferred()?;
            inner.sync_inflight.extend(files.iter().map(|(s, _)| *s));
            // Freeze the map root so the dirty Merkle paths can be
            // rehashed in one memoizing pass outside the lock. The
            // memos install into the shared nodes, so later proof minting
            // (and the next freeze) finds them ready-made.
            let frozen_root = self.ctx.verifies_hashes().then(|| inner.map.freeze().0);
            (inner.advance_anchor(), files, tail, frozen_root)
        };
        // Deferred tail write, then sync — both outside the store lock. If
        // an in-lock flush got there first it wrote the identical bytes at
        // the same offset; repeating the write is harmless.
        let synced: Result<()> = (|| {
            if let Some(tf) = &tail {
                tf.file.write_at(tf.start as u64, &tf.bytes)?;
            }
            files.iter().try_for_each(|(_, f)| {
                f.sync()?;
                add(&self.stats.syncs, 1);
                Ok(())
            })
        })();
        sw.lap_into(&self.stats.phases.sync);
        let sync_ok = synced.is_ok();
        // Batched Merkle recomputation for the whole group: one bottom-up
        // pass over the dirty root-to-leaf paths (shared upper nodes are
        // hashed once), multi-lane SHA-256 within each level. With the
        // maintenance thread running, the pass is deferred there —
        // consecutive rounds coalesce onto the latest root, so hot leaves
        // are hashed once per batch and the leader publishes durability
        // without paying the hash pass. That only pays when another CPU
        // can actually run the pass concurrently; on a single-CPU host the
        // "background" pass can only preempt the commit path, so the
        // warm-up is skipped outright and proof minting hashes lazily
        // (the memo pass is cache-warming — correctness never depends on
        // it). Inline (against the frozen root, while followers keep
        // appending) only when there is no thread.
        if let Some(root) = frozen_root.filter(|_| sync_ok) {
            if self.maint.thread_running() {
                if maintenance::rehash_overlap_pays() {
                    let was_empty = self.rehash_pending.lock().replace(root).is_none();
                    if was_empty {
                        self.maint.kick_rehash();
                    }
                }
            } else {
                root.proof_hash();
                sw.lap_into(&self.stats.phases.rehash);
            }
        }
        let written = synced.and_then(|()| round.write(&mut sw, AnchorLane::Commit));
        let mut inner = self.inner.lock();
        for (s, _) in &files {
            inner.sync_inflight.remove(s);
        }
        if !sync_ok {
            // The manager still holds the in-flight tail copy; the next
            // in-lock flush rewrites it, so the bytes cannot be lost.
            inner.segs.restore_touched(files.iter().map(|(s, _)| *s));
        } else if let Some(tf) = &tail {
            // The tail bytes are written and synced regardless of how the
            // anchor io went: the manager's in-flight copy can be dropped.
            inner.segs.finish_tail_flush(tf);
        }
        inner.settle_anchor(round, written)
    }

    /// Point-in-time health summary for diagnostic dumps. Never blocks:
    /// every lock is `try_lock`, and a held lock is reported as such —
    /// in a stall dump, *which* lock is held is itself the signal.
    pub(crate) fn diag_state(&self) -> tdb_obs::Json {
        use tdb_obs::Json;
        let mut out = Json::obj();
        out.push("label", self.diag_label.lock().clone());
        out.push("durable_seq", self.durable_seq.load(Ordering::Acquire));
        match self.inner.try_lock() {
            Some(inner) => {
                out.push("commit_seq", inner.commit_seq);
                out.push("anchor_seq", inner.anchor_seq);
                out.push("counter_value", inner.counter_value);
                out.push("free_segments", inner.segs.free_count());
                out.push("in_use_segments", inner.segs.in_use_segments().len());
                out.push("utilization", inner.segs.utilization());
                out.push("residual_bytes", inner.residual_bytes);
                out.push("residual_segments", inner.residual_segments.len());
                out.push("pending_dec", inner.pending_dec.len());
                out.push(
                    "live_snapshots",
                    inner
                        .snapshots
                        .iter()
                        .filter(|w| w.strong_count() > 0)
                        .count(),
                );
                out.push("cleaner_pass_active", inner.pass_active);
            }
            None => out.push("store_lock", "held"),
        }
        match self.group.try_lock() {
            Some(g) => {
                out.push("group_leader_active", g.leader_active);
                out.push("group_waiters", g.waiters.len());
            }
            None => out.push("group_lock", "held"),
        }
        out.push("maintenance", self.maint.diag_json());
        out
    }

    /// Whether a watermark says a maintenance round is due: the residual
    /// log reached the checkpoint threshold, or free segments ran low while
    /// utilization still leaves something to reclaim.
    fn maintenance_due(&self) -> bool {
        let inner = self.inner.lock();
        inner.residual_bytes >= inner.cfg.checkpoint_threshold
            || (inner.segs.free_count() < inner.cfg.effective_low_free()
                && inner.segs.utilization() <= inner.cfg.max_utilization)
    }

    /// Post-commit housekeeping: a watermark check, then one maintenance
    /// round if it says so — kicked to the maintenance thread when there is
    /// one (the checkpoint and cleaning happen off the commit path), run by
    /// this committer otherwise.
    fn after_commit_maintenance(&self) -> Result<()> {
        if !self.maintenance_due() || self.maint.observe_and_kick().thread_running {
            return Ok(());
        }
        maintenance::one_round(self, &|| true).map(|_| ())
    }

    /// Commit-path backpressure: the append ran out of segments. Kick the
    /// maintenance thread and block for its progress — or, with no thread,
    /// run the round here — and say whether the caller should retry. `false`
    /// means maintenance completed without yielding a free segment: a true
    /// out-of-space condition, not a pacing artifact.
    ///
    /// The wait is epoch-based to rule out lost wakeups (the ROADMAP's
    /// 1-CPU release hang): the progress epochs are snapshotted *before*
    /// the free-count check, and every notification advances an epoch
    /// under the same lock the snapshot and the sleep use
    /// ([`MaintShared::note_freed`] fires on every segment free, not just
    /// at round end). Progress landing between the check and the sleep
    /// therefore makes the wait return immediately. The give-up condition
    /// is structural rather than a timeout: two consecutive completed
    /// rounds that freed nothing while the store stayed out of segments.
    fn stall_for_space(&self) -> Result<bool> {
        add(&self.stats.maintenance_stalls, 1);
        let _op = tdb_obs::watchdog::op_begin(tdb_obs::watchdog::OpKind::Stall, 0);
        let mut sw = Stopwatch::start();
        trace::emit(
            TraceLayer::Chunk,
            TraceKind::StallEnter,
            0,
            self.inner.lock().segs.free_count() as u64,
            0,
        );
        trace::emit(TraceLayer::Maint, TraceKind::MaintKick, 0, 0, 0);
        let mut seen = self.maint.observe_and_kick();
        let mut waits = 0u64;
        let mut fruitless_rounds = 0u32;
        let mut idle_waits = 0u32;
        let retry = loop {
            if !seen.thread_running {
                // No thread: this committer drives the round.
                let freed = maintenance::one_round(self, &|| true)?;
                let inner = self.inner.lock();
                break freed > 0 || inner.segs.free_count() > inner.cfg.maintenance_reserve();
            }
            // Check for space strictly *after* the epoch snapshot above:
            // any free or round completion since then advances an epoch,
            // so the wait below cannot sleep through it.
            // `free > reserve`: on a fixed-size log the last free segment
            // is the maintenance reserve and a retried append still could
            // not take it.
            let (free, reserve) = {
                let inner = self.inner.lock();
                (inner.segs.free_count(), inner.cfg.maintenance_reserve())
            };
            if free > reserve {
                trace::emit(
                    TraceLayer::Chunk,
                    TraceKind::StallWake,
                    0,
                    seen.free_epoch,
                    free as u64,
                );
                break true;
            }
            if fruitless_rounds >= 2 || waits >= 256 {
                // Two whole rounds reclaimed nothing and the store is
                // still out of segments (or we have waited absurdly long):
                // surface OutOfSpace instead of wedging the committer.
                trace::emit(TraceLayer::Chunk, TraceKind::StallGiveUp, 0, waits, 0);
                break false;
            }
            let next = self
                .maint
                .wait_progress(seen, std::time::Duration::from_millis(500));
            waits += 1;
            let advanced = next.rounds != seen.rounds || next.free_epoch != seen.free_epoch;
            if advanced {
                idle_waits = 0;
                if next.rounds != seen.rounds && next.free_epoch == seen.free_epoch {
                    // A round completed without freeing anything.
                    fruitless_rounds += 1;
                } else {
                    fruitless_rounds = 0;
                }
                trace::emit(
                    TraceLayer::Chunk,
                    TraceKind::StallRetry,
                    0,
                    waits,
                    next.rounds.wrapping_sub(seen.rounds),
                );
            } else {
                // Timed out with no progress at all. Tolerate a few (the
                // round may genuinely be slow), then treat it as wedged
                // maintenance and give up rather than block forever.
                idle_waits += 1;
                if idle_waits >= 8 {
                    trace::emit(TraceLayer::Chunk, TraceKind::StallGiveUp, 0, waits, 1);
                    break false;
                }
            }
            // Re-observe and re-kick: a completed round consumed the kick
            // flag, but our out-of-space condition persists.
            seen = self.maint.observe_and_kick();
        };
        if sw.running() {
            self.stats.phases.stall.record(sw.lap());
        }
        Ok(retry)
    }

    /// Record that an anchor has covered `covered` (used by paths that
    /// anchor outside the coordinator: checkpoints, empty durable commits).
    /// The notify is taken under the group lock so it cannot slip between a
    /// waiter's coverage check and its sleep.
    pub(crate) fn publish_durable(&self, covered: u64) {
        if self.durable_seq.fetch_max(covered, Ordering::AcqRel) < covered {
            let _g = self.group.lock();
            self.group_cv.notify_all();
        }
    }
}

/// One shard's part of a [`WriteBatch`](crate::WriteBatch), in shard-local
/// chunk ids. Staging takes only the short store lock; the commit applies
/// the staged operations atomically. Dropping an uncommitted batch
/// discards its staged operations and returns its allocated ids to the
/// free pool.
pub(crate) struct ShardBatch {
    core: Arc<StoreCore>,
    pub(crate) staged: Batch,
}

impl ShardBatch {
    pub(crate) fn allocate_chunk_id(&mut self) -> Result<ChunkId> {
        Ok(self.core.inner.lock().allocate_into(&mut self.staged))
    }

    pub(crate) fn write(&mut self, cid: ChunkId, bytes: &[u8]) -> Result<()> {
        self.core
            .inner
            .lock()
            .stage_write(&mut self.staged, cid, bytes)
    }

    pub(crate) fn deallocate(&mut self, cid: ChunkId) -> Result<()> {
        self.core.inner.lock().stage_dealloc(&mut self.staged, cid)
    }

    /// Staged bytes if `cid` is staged here, otherwise the committed state.
    pub(crate) fn read(&self, cid: ChunkId) -> Result<Vec<u8>> {
        self.core.inner.lock().read_with(&self.staged, cid)
    }

    /// Stage a write of `cid` sealed after every other staged operation,
    /// so it lands in the batch's final record group: an append that fails
    /// part-way can leave its earlier groups committed, never this write
    /// without them.
    pub(crate) fn write_last(&mut self, cid: ChunkId, bytes: &[u8]) -> Result<()> {
        self.write(cid, bytes)?;
        let staged = self.staged.ops.remove(&cid.0).flatten();
        self.staged.last = staged.map(|bytes| (cid.0, bytes));
        Ok(())
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.staged.ops.is_empty()
    }
}

impl Drop for ShardBatch {
    fn drop(&mut self) {
        if !self.staged.ops.is_empty() || !self.staged.allocated.is_empty() {
            self.core.inner.lock().free_batch(&mut self.staged);
        }
    }
}

/// A claim ticket from [`Shard::append_batch`]: the batch's commit
/// record(s) are in the log; redeem with [`Shard::wait_durable`] to block
/// until a group anchor covers them.
#[must_use = "a durable commit is not durable until wait_durable returns"]
pub(crate) struct ShardTicket {
    seq: u64,
    empty: bool,
    durable: bool,
    sampled: bool,
    total: Stopwatch,
}

impl ShardTicket {
    /// A ticket for commit `seq` that is already durable: redeeming it is
    /// a no-op, its sequence still stamps versions.
    pub(crate) fn redeemed(seq: u64) -> ShardTicket {
        ShardTicket {
            seq,
            empty: true,
            durable: false,
            sampled: false,
            total: Stopwatch::inert(),
        }
    }

    /// Sequence of the batch's last commit record — the version stamp of
    /// every chunk the batch wrote (see [`Shard::read_versioned`]).
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }
}

/// One shard: a complete trusted log (paper §3) with its own location map,
/// anchor, group-commit coordinator and maintenance thread.
///
/// Concurrency: any number of [`ShardBatch`] handles may stage
/// independently; commits serialize only on the short log-tail append,
/// and concurrent durable commits share sync/anchor/counter rounds via
/// the group-commit coordinator.
pub(crate) struct Shard {
    core: Arc<StoreCore>,
    /// The background maintenance thread, when `background_maintenance`
    /// is configured. Joined by [`Shard::close`] (and drop).
    maint_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Shard {
    fn from_inner(inner: Inner) -> Shard {
        static DIAG_ID: AtomicU64 = AtomicU64::new(0);
        let background = inner.cfg.background_maintenance;
        let label = format!("chunk{}", DIAG_ID.fetch_add(1, Ordering::Relaxed));
        let core = Arc::new(StoreCore {
            ctx: inner.ctx.clone(),
            stats: inner.stats.clone(),
            phase_tick: AtomicU64::new(0),
            durable_seq: AtomicU64::new(inner.commit_seq),
            group: Mutex::new(GroupState::default()),
            group_cv: Condvar::new(),
            maint: MaintShared::new(),
            rehash_pending: Mutex::new(None),
            diag_label: Mutex::new(label.clone()),
            diag_keeper: Mutex::new(None),
            inner: Mutex::new(inner),
        });
        // Register this store with the diagnostic registry. The registry
        // holds a `Weak`, so a dropped store silently disappears from
        // future dumps; the keeper Arc pins the provider to our lifetime.
        {
            let weak = Arc::downgrade(&core);
            let provider: Arc<tdb_obs::diag::DiagFn> = Arc::new(move || match weak.upgrade() {
                Some(core) => core.diag_state(),
                None => tdb_obs::Json::obj(),
            });
            tdb_obs::diag::register_provider(&label, &provider);
            *core.diag_keeper.lock() = Some(provider);
        }
        let maint_thread = if background {
            // Marked running before the spawn so a commit racing store
            // construction kicks the thread instead of driving a round.
            core.maint.set_thread_running();
            let thread_core = core.clone();
            Some(
                std::thread::Builder::new()
                    .name("tdb-maintenance".into())
                    .spawn(move || maintenance::run(thread_core))
                    .expect("spawn maintenance thread"),
            )
        } else {
            None
        };
        Shard {
            core,
            maint_thread: Mutex::new(maint_thread),
        }
    }

    /// Create a fresh log (the caller checked that none exists).
    pub(crate) fn create(
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        cfg: ChunkStoreConfig,
    ) -> Result<Self> {
        let ctx = Arc::new(CryptoCtx::new(cfg.security, secret, iv_salt(&*counter))?);
        let stats: SharedStats = Arc::new(Stats::default());
        let segs = SegmentManager::create(
            untrusted.clone(),
            cfg.segment_size,
            cfg.initial_segments,
            cfg.allow_growth,
            stats.clone(),
        )?;
        let counter_value = match cfg.security {
            SecurityMode::Full => counter.read()?,
            SecurityMode::Off => 0,
        };
        let map = LocationMap::new(cfg.map_fanout, cfg.security == SecurityMode::Full);
        let mut inner = Inner {
            cfg,
            ctx,
            counter,
            untrusted,
            segs,
            map,
            next_id: 0,
            free_ids: BTreeSet::new(),
            commit_seq: 0,
            chain: [0u8; 32],
            base_seq: 0,
            chain_base: [0u8; 32],
            residual_start: (SegmentId(0), crate::layout::SEGMENT_HEADER_LEN),
            residual_segments: std::iter::once(SegmentId(0)).collect(),
            residual_bytes: 0,
            anchor_seq: 0,
            counter_value,
            // Placeholder; the initial checkpoint below sets the real root.
            checkpointed_root: (
                Location {
                    seg: SegmentId(0),
                    off: 0,
                    len: 0,
                    hash: [0; 32],
                },
                1,
            ),
            pending_dec: Vec::new(),
            snapshots: Vec::new(),
            sync_inflight: BTreeSet::new(),
            anchor_io: Arc::new(Mutex::new(())),
            pass_active: false,
            stats,
            recovery: None,
        };
        inner.do_checkpoint()?;
        Ok(Shard::from_inner(inner))
    }

    /// Open an existing log, running crash recovery, tamper validation,
    /// and replay detection.
    pub(crate) fn open(
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        cfg: ChunkStoreConfig,
    ) -> Result<Self> {
        let inner = recovery::open_impl(untrusted, secret, counter, cfg)?;
        Ok(Shard::from_inner(inner))
    }

    // ---- per-transaction batches ------------------------------------

    pub(crate) fn begin_batch(&self) -> ShardBatch {
        ShardBatch {
            core: self.core.clone(),
            staged: Batch::default(),
        }
    }

    /// [`append_batch`](Self::append_batch) + [`wait_durable`](Self::wait_durable).
    pub(crate) fn commit_batch(&self, batch: ShardBatch, durability: Durability) -> Result<()> {
        let ticket = self.append_batch(batch, durability)?;
        self.wait_durable(ticket)
    }

    /// Seal and append the batch's commit record(s) to the log — the
    /// commit point — and return a ticket.
    pub(crate) fn append_batch(
        &self,
        mut batch: ShardBatch,
        durability: Durability,
    ) -> Result<ShardTicket> {
        let ops = std::mem::take(&mut batch.staged.ops);
        let last = batch.staged.last.take();
        // Allocations become permanent at commit (even a failed append may
        // have committed earlier record groups, so ids never return to the
        // free pool here).
        batch.staged.allocated.clear();
        self.core.append_ops(ops, last, durability.is_durable())
    }

    /// Block until the ticket's commit records are durable (joining or
    /// leading a group anchor round). No-op for nondurable tickets.
    pub(crate) fn wait_durable(&self, ticket: ShardTicket) -> Result<()> {
        self.core.wait_ticket(ticket)
    }

    pub(crate) fn read(&self, cid: ChunkId) -> Result<Vec<u8>> {
        self.core.inner.lock().read_with(&Batch::default(), cid)
    }

    pub(crate) fn checkpoint(&self) -> Result<()> {
        let covered = {
            let mut inner = self.core.inner.lock();
            inner.do_checkpoint()?;
            inner.commit_seq
        };
        self.core.publish_durable(covered);
        Ok(())
    }

    /// One cleaner pass through the maintenance rounds' incremental slice
    /// protocol, calling `between` with the store *unlocked* before every
    /// relocation slice after the first. Returns segments freed (0 if
    /// another pass is already in flight).
    pub(crate) fn clean(&self, between: &mut dyn FnMut(usize)) -> Result<usize> {
        let mut hook = |slice: usize| {
            if slice > 0 {
                between(slice);
            }
            true
        };
        match maintenance::incremental_pass(&self.core, &mut hook)? {
            PassResult::Freed(n) => Ok(n),
            PassResult::NoGarbage | PassResult::Abandoned => Ok(0),
        }
    }

    /// Block until the maintenance thread has no round running or
    /// requested (see `ChunkStore::wait_maintenance_idle`).
    pub(crate) fn wait_maintenance_idle(&self) {
        self.core.maint.wait_idle();
    }

    /// Quiesce and join the background maintenance thread, if one is
    /// running: an in-flight cleaning pass is abandoned at the next slice
    /// boundary (safe — only the closing checkpoint anchors a pass, so an
    /// abandoned slice is dead log tail for recovery and for the next
    /// pass). The shard remains usable; committers drive the maintenance
    /// rounds from then on. Called automatically when the shard is dropped.
    pub(crate) fn close(&self) {
        self.core.maint.request_shutdown();
        if let Some(handle) = self.maint_thread.lock().take() {
            let _ = handle.join();
        }
    }

    pub(crate) fn snapshot(&self) -> ShardSnapshot {
        self.core.inner.lock().take_snapshot()
    }

    /// Read a chunk's state as of `snap`.
    ///
    /// The read path is built for concurrent snapshot readers: the frozen
    /// snapshot resolves the location without any lock, the store lock is
    /// held only long enough to resolve the location to a file handle (or
    /// copy unflushed tail bytes), and the I/O, hash verification, and
    /// decryption all run outside it. The snapshot's segment pins keep the
    /// cleaner from freeing (and the tail from reusing) the segment meanwhile.
    pub(crate) fn read_at_snapshot(&self, snap: &ShardSnapshot, cid: ChunkId) -> Result<Vec<u8>> {
        let loc = snap
            .location_of(cid)
            .ok_or(ChunkStoreError::NotAllocated(cid))?;
        let src = {
            let inner = self.core.inner.lock();
            add(&inner.stats.chunk_reads, 1);
            inner.segs.prepare_read(&loc)?
        };
        let stored = segment::complete_read(src, &loc, RecordKind::ChunkData)?;
        let ctx = &self.core.ctx;
        if ctx.verifies_hashes() && !CryptoCtx::tags_equal(&ctx.hash(&stored), &loc.hash) {
            return Err(ChunkStoreError::TamperDetected(format!(
                "hash mismatch for snapshot record at {loc:?}"
            )));
        }
        let plain = ctx.open(&stored)?;
        let (stored_id, data) =
            decode_chunk_payload(&plain).map_err(|m| ChunkStoreError::TamperDetected(m.0))?;
        if stored_id != cid {
            return Err(ChunkStoreError::TamperDetected(format!(
                "snapshot chunk {cid:?} record claims {stored_id:?}"
            )));
        }
        Ok(data.to_vec())
    }

    /// The committed state of `cid` plus this shard's commit sequence at
    /// the time of the read (an upper bound on the commit that wrote it).
    pub(crate) fn read_versioned(&self, cid: ChunkId) -> Result<(Vec<u8>, u64)> {
        let mut inner = self.core.inner.lock();
        let seq = inner.commit_seq;
        let bytes = inner.read_with(&Batch::default(), cid)?;
        Ok((bytes, seq))
    }

    // ---- proof-carrying reads ----------------------------------------

    /// The MAC key this shard's proofs attest under.
    pub(crate) fn proof_mac_key(&self) -> [u8; 32] {
        *self.core.ctx.proof_mac_key()
    }

    /// [`proof_mac_key`](Self::proof_mac_key) as a keyed HMAC template.
    pub(crate) fn proof_mac(&self) -> &tdb_crypto::HmacSha256 {
        self.core.ctx.proof_mac()
    }

    /// The one-way counter value the last anchor round bound.
    pub(crate) fn counter_value(&self) -> u64 {
        self.core.inner.lock().counter_value
    }

    pub(crate) fn proof_counters(&self) -> &crate::stats::ProofCounters {
        &self.core.stats.proofs
    }

    /// Read a chunk as of `snap` with a deferred proof: the read pays only
    /// the bookmark (an `Arc` clone plus one value hash); the path is
    /// extracted later, lock-free, from the frozen snapshot root.
    pub(crate) fn proven_at_snapshot(
        &self,
        snap: &ShardSnapshot,
        cid: ChunkId,
    ) -> Result<Proven<Option<Vec<u8>>>> {
        proof::require_full_security(self.core.ctx.mode())?;
        let (value, outcome) = match snap.location_of(cid) {
            Some(loc) => {
                let data = self.read_at_snapshot(snap, cid)?;
                let plain_hash = proof::plain_digest(&data);
                (
                    Some(data),
                    BookmarkOutcome::Included {
                        sealed_hash: loc.hash,
                        plain_hash,
                    },
                )
            }
            None => (None, BookmarkOutcome::Absent),
        };
        self.core.stats.proofs.proven_reads.add(1);
        Ok(Proven {
            value,
            bookmark: ProofBookmark {
                ctx: self.core.ctx.clone(),
                core: snap.core.clone(),
                cid,
                proof_id: cid.0,
                outcome,
                shard: None,
                stats: self.core.stats.clone(),
            },
        })
    }

    pub(crate) fn diff_snapshots(&self, old: &ShardSnapshot, new: &ShardSnapshot) -> SnapshotDiff {
        diff_roots(
            &old.core.root,
            old.core.depth,
            &new.core.root,
            new.core.depth,
            old.core.fanout,
        )
    }

    pub(crate) fn recovery_report(&self) -> Option<recovery::RecoveryReport> {
        self.core.inner.lock().recovery.clone()
    }

    pub(crate) fn obs(&self) -> Arc<tdb_obs::Registry> {
        self.core.stats.registry().clone()
    }

    pub(crate) fn diag_state(&self) -> tdb_obs::Json {
        self.core.diag_state()
    }

    /// Rename this shard in diagnostic dumps (e.g. `shard3` instead of
    /// the default `chunk{N}`).
    pub(crate) fn set_diag_label(&self, label: impl Into<String>) {
        *self.core.diag_label.lock() = label.into();
    }

    pub(crate) fn utilization(&self) -> f64 {
        self.core.inner.lock().segs.utilization()
    }

    pub(crate) fn disk_size(&self) -> u64 {
        self.core.inner.lock().segs.disk_size()
    }

    pub(crate) fn live_chunks(&self) -> u64 {
        self.core.inner.lock().map.live_count()
    }

    pub(crate) fn security(&self) -> SecurityMode {
        self.core.ctx.mode()
    }

    /// Whether `cid` is committed or handed out to a live batch.
    pub(crate) fn is_allocated(&self, cid: ChunkId) -> bool {
        self.core
            .inner
            .lock()
            .is_allocated_with(&Batch::default(), cid)
    }

    pub(crate) fn max_chunk_size(&self) -> usize {
        self.core.inner.lock().max_chunk_size()
    }

    /// `(accounted_live, walked_live, in_use_segments, free_segments,
    /// pending_decrements)`; see [`ChunkStore::debug_accounting`](crate::ChunkStore::debug_accounting).
    pub(crate) fn debug_accounting(&self) -> (u64, u64, usize, usize, usize) {
        let inner = self.core.inner.lock();
        let mut walked = 0u64;
        inner
            .map
            .for_each_entry(&mut |_, loc| walked += loc.len as u64);
        inner.map.for_each_page(&mut |loc| walked += loc.len as u64);
        (
            inner.segs.total_live(),
            walked,
            inner.segs.in_use_segments().len(),
            inner.segs.free_count(),
            inner.pending_dec.len(),
        )
    }

    /// Return allocated-but-never-written ids to the free pool; ids with
    /// committed state are ignored.
    pub(crate) fn release_unwritten_ids(&self, ids: &[ChunkId]) {
        let mut inner = self.core.inner.lock();
        for id in ids {
            if id.0 < inner.next_id && inner.map.get(*id).is_none() {
                inner.free_ids.insert(id.0);
            }
        }
    }

    /// Install a full database image at exact chunk ids into this empty
    /// log. Ids below the restored high-water mark that are absent from
    /// the image become free.
    pub(crate) fn restore_image(&self, chunks: Vec<(ChunkId, Vec<u8>)>) -> Result<()> {
        {
            let mut inner = self.core.inner.lock();
            if inner.map.live_count() != 0 {
                return Err(ChunkStoreError::ConfigMismatch(
                    "restore_image requires an empty store".into(),
                ));
            }
            let max_id = chunks.iter().map(|(id, _)| id.0).max();
            if let Some(max_id) = max_id {
                let present: HashSet<u64> = chunks.iter().map(|(id, _)| id.0).collect();
                inner.next_id = max_id + 1;
                inner.free_ids = (0..=max_id).filter(|i| !present.contains(i)).collect();
            }
        }
        self.commit_exact(chunks, Vec::new())
    }

    /// Apply a delta at exact chunk ids (backup restore, cross-shard
    /// redo). Ids newly above the high-water mark extend it; removed ids
    /// become free.
    pub(crate) fn apply_restore_delta(
        &self,
        writes: Vec<(ChunkId, Vec<u8>)>,
        removes: Vec<ChunkId>,
    ) -> Result<()> {
        {
            let mut inner = self.core.inner.lock();
            for (id, _) in &writes {
                if id.0 >= inner.next_id {
                    for gap in inner.next_id..id.0 {
                        inner.free_ids.insert(gap);
                    }
                    inner.next_id = id.0 + 1;
                }
                inner.free_ids.remove(&id.0);
            }
        }
        self.commit_exact(writes, removes)
    }

    /// One durable commit of writes and deallocations at exact ids.
    fn commit_exact(&self, writes: Vec<(ChunkId, Vec<u8>)>, removes: Vec<ChunkId>) -> Result<()> {
        let mut ops: BTreeMap<u64, Option<Vec<u8>>> = BTreeMap::new();
        for (id, data) in writes {
            ops.insert(id.0, Some(data));
        }
        for id in removes {
            ops.insert(id.0, None);
        }
        let ticket = self.core.append_ops(ops, None, true)?;
        self.core.wait_ticket(ticket)
    }

    /// Whether commit records exist past the last written anchor. Cheap
    /// (one lock, one atomic load); the store uses it to decide which
    /// sibling shards a durable commit must harden.
    pub(crate) fn needs_anchor(&self) -> bool {
        let commit_seq = self.core.inner.lock().commit_seq;
        commit_seq > self.core.durable_seq.load(Ordering::Acquire)
    }

    /// Force one sync/anchor/counter round covering everything appended so
    /// far — the empty-durable-commit barrier, callable without a batch.
    pub(crate) fn harden(&self) -> Result<()> {
        self.core.wait_ticket(ShardTicket {
            seq: 0,
            empty: true,
            durable: true,
            sampled: false,
            total: Stopwatch::inert(),
        })
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.close();
    }
}
