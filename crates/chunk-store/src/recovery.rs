//! Opening an existing database: anchor validation, replay detection, map
//! loading, and residual-log replay.
//!
//! "Upon recovery, the portion of the log written since the last checkpoint
//! (which we call the residual log) is read to restore the latest committed
//! state of the database." (paper §3.2.1)
//!
//! The replay trusts nothing: every map page is validated against its
//! parent's hash on the way down (the Merkle path), and every commit record
//! must extend the keyed commit chain whose endpoint is stored in the
//! authenticated anchor. Commits beyond the anchor's `last_seq` are
//! *nondurable leftovers* and are discarded — exactly the §3.2.2 semantics
//! that a nondurable commit does not survive a crash. Failing to reach
//! `last_seq` means durable history is missing and is reported as
//! tampering.

use crate::anchor::AnchorStore;
use crate::config::{ChunkStoreConfig, SecurityMode};
use crate::crypto_ctx::CryptoCtx;
use crate::error::{ChunkStoreError, Result};
use crate::ids::SegmentId;
use crate::layout::{
    decode_next_segment, CommitPayload, RecordKind, RECORD_HEADER_LEN, SEGMENT_HEADER_LEN,
};
use crate::map::{Location, LocationMap};
use crate::segment::SegmentManager;
use crate::shard::{iv_salt, Inner};
use crate::stats::{SharedStats, Stats};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use tdb_crypto::DIGEST_LEN;
use tdb_platform::{OneWayCounter, SecretStore, UntrustedStore};

/// What crash recovery found and did, for post-mortem assertions by crash
/// tests (and diagnostics). Produced for every shard by a successful
/// `ChunkStore::open` (see `ChunkStore::recovery_reports`).
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Anchor generation that recovery started from.
    pub anchor_seq: u64,
    /// Commit sequence at the residual-log start (last checkpoint).
    pub base_seq: u64,
    /// Last durable commit the anchor covers.
    pub last_seq: u64,
    /// Durable commits replayed from the residual log
    /// (`last_seq - base_seq`).
    pub commits_replayed: u64,
    /// Well-formed, chain-authenticated commits found *past* `last_seq` and
    /// discarded — nondurable leftovers that §3.2.2 guarantees do not
    /// survive a crash.
    pub nondurable_discarded: u64,
    /// Residual-log bytes re-applied.
    pub residual_bytes: u64,
    /// One-way counter value the anchor was authenticated against.
    pub counter_value: u64,
    /// Whether recovery completed a counter increment that a crash
    /// interrupted between the anchor write and the increment.
    pub counter_repaired: bool,
}

pub(crate) fn open_impl(
    untrusted: Arc<dyn UntrustedStore>,
    secret: &dyn SecretStore,
    counter: Arc<dyn OneWayCounter>,
    cfg: ChunkStoreConfig,
) -> Result<Inner> {
    cfg.validate().map_err(ChunkStoreError::ConfigMismatch)?;
    let stats: SharedStats = Arc::new(Stats::default());
    let mut sw = tdb_obs::Stopwatch::start();
    let mut total_ns = 0u64;
    let ctx = CryptoCtx::new(cfg.security, secret, iv_salt(&*counter))?;
    let anchor = AnchorStore::new(&*untrusted).read_best(&ctx)?;

    if anchor.segment_size != cfg.segment_size {
        return Err(ChunkStoreError::ConfigMismatch(format!(
            "segment size: store {} vs config {}",
            anchor.segment_size, cfg.segment_size
        )));
    }
    if anchor.map_fanout != cfg.map_fanout as u32 {
        return Err(ChunkStoreError::ConfigMismatch(format!(
            "map fanout: store {} vs config {}",
            anchor.map_fanout, cfg.map_fanout
        )));
    }

    // Replay detection against the one-way counter (§3). `anchor == hw + 1`
    // is the benign crash window between anchor write and counter
    // increment; it is repaired by completing the increment.
    let mut counter_repaired = false;
    if cfg.security == SecurityMode::Full {
        let hw = counter.read()?;
        if anchor.counter_value == hw + 1 {
            counter.increment()?;
            counter_repaired = true;
        } else if anchor.counter_value != hw {
            return Err(ChunkStoreError::ReplayDetected {
                anchor_counter: anchor.counter_value,
                hardware_counter: hw,
            });
        }
    }

    if sw.running() {
        let ns = sw.lap();
        total_ns += ns;
        stats.phases.recovery_anchor.record(ns);
    }
    let mut segs = SegmentManager::open_existing(
        untrusted.clone(),
        cfg.segment_size,
        cfg.allow_growth,
        stats.clone(),
    )?;

    // Load the whole location map, validating every page hash against its
    // parent (root hash comes from the authenticated anchor).
    let mut map = {
        let segs_ref = &segs;
        let ctx_ref = &ctx;
        let reader = |loc: &Location| -> Result<Vec<u8>> {
            let stored = segs_ref.read_record(loc, RecordKind::MapPage)?;
            if ctx_ref.verifies_hashes()
                && !CryptoCtx::tags_equal(&ctx_ref.hash(&stored), &loc.hash)
            {
                return Err(ChunkStoreError::TamperDetected(format!(
                    "map page at {loc:?} hash mismatch"
                )));
            }
            ctx_ref.open(stored.as_slice())
        };
        LocationMap::load(
            anchor.map_root,
            anchor.map_depth,
            cfg.map_fanout,
            cfg.security == SecurityMode::Full,
            &reader,
        )?
    };
    if sw.running() {
        let ns = sw.lap();
        total_ns += ns;
        stats.phases.recovery_map_load.record(ns);
    }

    // ---- residual-log replay ------------------------------------------
    let mut free_ids: BTreeSet<u64> = anchor.free_ids.iter().copied().collect();
    let mut next_id = anchor.next_id;
    let mut seg = anchor.residual_seg;
    let mut off = anchor.residual_off;
    let mut chain = anchor.chain_base;
    let mut seq = anchor.base_seq;
    let mut visited: HashSet<SegmentId> = std::iter::once(seg).collect();
    let mut residual_segments = visited.clone();
    let (mut tail_seg, mut tail_off) = (seg, off);
    let mut scanned_bytes = 0u64;
    let mut residual_bytes = 0u64;
    // Applied (durable) cursor vs the scanning cursor: past `last_seq` the
    // scan keeps following the chain as a *phantom* — counting nondurable
    // leftovers for the recovery report without applying them.
    let mut applied_seq = seq;
    let mut applied_chain = chain;
    let mut commits_replayed = 0u64;
    let mut nondurable_discarded = 0u64;

    if !segs.check_segment_header(seg)? {
        return Err(ChunkStoreError::TamperDetected(format!(
            "residual segment {seg:?} has an invalid header"
        )));
    }

    #[allow(clippy::while_let_loop)] // `continue` re-reads at a jumped position
    loop {
        let Some((kind, payload)) = segs.read_record_at(seg, off)? else {
            break;
        };
        let total = RECORD_HEADER_LEN + payload.len() as u32;
        match kind {
            RecordKind::NextSegment => {
                let Ok(next) = decode_next_segment(&payload) else {
                    break;
                };
                if visited.contains(&next)
                    || !segs.is_valid_segment(next)
                    || !segs.check_segment_header(next)?
                {
                    break;
                }
                visited.insert(next);
                seg = next;
                off = SEGMENT_HEADER_LEN;
                continue;
            }
            RecordKind::Commit => {
                if payload.len() < DIGEST_LEN {
                    break;
                }
                let (sealed, stored_chain) = payload.split_at(payload.len() - DIGEST_LEN);
                let computed = ctx.chain(&chain, sealed);
                let stored: [u8; DIGEST_LEN] = stored_chain.try_into().expect("exactly 32 bytes");
                if !CryptoCtx::tags_equal(&computed, &stored) {
                    // Either the benign end of the log (crash garbage /
                    // tampered nondurable tail) or missing durable history;
                    // the post-loop check distinguishes them.
                    break;
                }
                if seq + 1 > anchor.last_seq {
                    // Nondurable leftovers: guaranteed not to survive, but
                    // the report counts them. Any decode anomaly in this
                    // discarded tail is benign — it just ends the scan.
                    let Ok(plain) = ctx.open(sealed) else { break };
                    let Ok(cp) = CommitPayload::decode(&plain, ctx.verifies_hashes()) else {
                        break;
                    };
                    if cp.seq != seq + 1 {
                        break;
                    }
                    nondurable_discarded += 1;
                    seq = cp.seq;
                    chain = computed;
                } else {
                    let plain = ctx.open(sealed)?;
                    let cp = CommitPayload::decode(&plain, ctx.verifies_hashes()).map_err(|m| {
                        ChunkStoreError::TamperDetected(format!("commit record: {}", m.0))
                    })?;
                    if cp.seq != seq + 1 {
                        return Err(ChunkStoreError::TamperDetected(format!(
                            "commit sequence gap: expected {}, found {}",
                            seq + 1,
                            cp.seq
                        )));
                    }
                    for (id, loc) in &cp.writes {
                        map.set(*id, *loc);
                        free_ids.remove(&id.0);
                    }
                    for id in &cp.deallocs {
                        map.remove(*id);
                        free_ids.insert(id.0);
                    }
                    // The anchor may carry a higher high-water mark than an
                    // older replayed commit (ids allocated but only anchored
                    // later); never move backwards.
                    next_id = next_id.max(cp.next_id);
                    seq = cp.seq;
                    chain = computed;
                    applied_seq = seq;
                    applied_chain = chain;
                    commits_replayed += 1;
                    tail_seg = seg;
                    tail_off = off + total;
                    residual_segments = visited.clone();
                    residual_bytes = scanned_bytes + total as u64;
                }
            }
            RecordKind::ChunkData | RecordKind::MapPage => {}
        }
        off += total;
        scanned_bytes += total as u64;
    }

    if applied_seq != anchor.last_seq {
        return Err(ChunkStoreError::TamperDetected(format!(
            "residual log ends at commit {applied_seq}, but the anchor covers commit {}",
            anchor.last_seq
        )));
    }
    if applied_seq != anchor.base_seq && !CryptoCtx::tags_equal(&applied_chain, &anchor.last_chain)
    {
        return Err(ChunkStoreError::TamperDetected(
            "commit chain endpoint does not match the anchor".into(),
        ));
    }

    // Replay dirtied map pages; their superseded extents are the *current*
    // anchor's pages, which were never counted live below — discard.
    let _ = map.drain_superseded();

    // Rebuild per-segment live accounting from the recovered map. A free
    // segment (empty, or header zeroed) holds nothing a valid anchor
    // references: live state or residual log in one means its header was
    // zeroed behind our back, and reusing it would overwrite that state.
    let mut stray = None;
    let mut credit = |loc: &Location| {
        if !segs.add_live(loc.seg, loc.len as u64) {
            stray.get_or_insert(loc.seg);
        }
    };
    map.for_each_entry(&mut |_, loc| credit(loc));
    map.for_each_page(&mut |loc| credit(loc));
    if let Some(seg) = stray.or_else(|| {
        residual_segments
            .iter()
            .copied()
            .find(|s| !segs.is_in_use(*s))
    }) {
        return Err(ChunkStoreError::TamperDetected(format!(
            "segment {seg:?} is not in use but holds live state"
        )));
    }

    segs.set_tail(tail_seg, tail_off);
    if sw.running() {
        let ns = sw.lap();
        total_ns += ns;
        stats.phases.recovery_replay.record(ns);
        stats.phases.recovery_total.record(total_ns);
    }

    let report = RecoveryReport {
        anchor_seq: anchor.anchor_seq,
        base_seq: anchor.base_seq,
        last_seq: anchor.last_seq,
        commits_replayed,
        nondurable_discarded,
        residual_bytes,
        counter_value: anchor.counter_value,
        counter_repaired,
    };

    Ok(Inner {
        cfg,
        ctx: Arc::new(ctx),
        counter,
        untrusted,
        segs,
        map,
        next_id,
        free_ids,
        commit_seq: applied_seq,
        chain: applied_chain,
        base_seq: anchor.base_seq,
        chain_base: anchor.chain_base,
        residual_start: (anchor.residual_seg, anchor.residual_off),
        residual_segments,
        residual_bytes,
        anchor_seq: anchor.anchor_seq,
        counter_value: anchor.counter_value,
        checkpointed_root: (anchor.map_root, anchor.map_depth),
        pending_dec: Vec::new(),
        snapshots: Vec::new(),
        sync_inflight: std::collections::BTreeSet::new(),
        anchor_io: std::sync::Arc::new(parking_lot::Mutex::new(())),
        pass_active: false,
        stats,
        recovery: Some(report),
    })
}
