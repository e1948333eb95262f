//! The log cleaner: reclaiming obsolete chunk versions.
//!
//! "When a chunk is updated or deallocated, its previous version becomes
//! obsolete. Periodically, obsolete chunk versions must be reclaimed by a
//! log cleaner." (paper §3.2.1)
//!
//! A pass is three phases, so `maintenance::incremental_pass` can run it
//! incrementally, releasing the store lock between relocation slices:
//!
//! 1. `select_victims` settles accounting with a durable anchor
//!    (pending-dead extents are subtracted; nothing nondurable remains
//!    reclaim-blocked — the §3.2.2 rule), then picks victims: **all**
//!    fully dead segments (freed without copying), plus the lowest-live
//!    partial segments capped at `cleaner_batch` (excluding the tail,
//!    residual-log segments, and segments pinned by live snapshots) — the
//!    cap bounds per-pass cleaning cost (§3.2.1);
//! 2. `relocate_slice` relocates up to a bounded number of live chunk
//!    records verbatim (same sealed bytes, same hash — only the location
//!    changes). Each slice re-checks snapshot pins — a snapshot opened
//!    between slices still references old locations, so its victims are
//!    dropped from the plan — and re-fetches every chunk's current
//!    location, skipping chunks rewritten or deallocated since selection;
//! 3. `finish_pass` dirties the victims' live map pages and checkpoints —
//!    the new anchor references only the new locations, so a crash at any
//!    point leaves a recoverable database (an abandoned pass is just dead
//!    log tail) — then frees the still-dead, still-unpinned victims by
//!    zeroing their headers, so the tail reuses them in place (see
//!    `segment`; no truncate, which on a discard-mounted file system
//!    stalls every concurrent `fdatasync`).
//!
//! Fully dead segments are freed without any copying, which is why low
//! database utilization makes cleaning nearly free (the Figure 11 effect:
//! at 50 % utilization "the cleaner does not run", i.e. never copies).

use crate::error::Result;
use crate::ids::SegmentId;
use crate::layout::RecordKind;
use crate::map::Location;
use crate::shard::{AnchorLane, Inner, FREE_SEGMENT_RESERVE};
use crate::stats::add;
use crate::ChunkId;
use std::collections::HashSet;

/// The persistent state of one in-flight cleaning pass: victims chosen by
/// [`select_victims`], chunk ids still to relocate. Locations are *not*
/// cached — each slice re-fetches them from the live map, so the plan
/// survives interleaved commits that rewrite or deallocate its chunks.
pub(crate) struct CleanPlan {
    victims: Vec<SegmentId>,
    victim_set: HashSet<SegmentId>,
    moves: Vec<ChunkId>,
    /// Cursor into `moves`: everything before it has been handled.
    next: usize,
}

/// Segments a live snapshot (or backup walking one) still references.
fn pinned_segments(inner: &mut Inner) -> HashSet<SegmentId> {
    inner.prune_snapshots();
    let mut pinned = HashSet::new();
    for weak in &inner.snapshots {
        if let Some(core) = weak.upgrade() {
            pinned.extend(core.referenced_segments());
        }
    }
    pinned
}

/// Phase 1: settle accounting and choose victims. Returns `None` when
/// there is nothing worth cleaning.
pub(crate) fn select_victims(inner: &mut Inner) -> Result<Option<CleanPlan>> {
    add(&inner.stats.cleaner_passes, 1);
    // Settle accounting: apply pending decrements under a durable anchor.
    // (A full checkpoint here would rewrite the whole dirty map a second
    // time per pass; the closing checkpoint is the one that matters for
    // correctness.)
    inner.segs.flush()?;
    inner.durable_anchor(true, AnchorLane::Maintenance)?;

    let seg_size = inner.segs.segment_size() as u64;
    let tail = inner.segs.tail_pos().0;
    let pinned = pinned_segments(inner);

    let candidates: Vec<SegmentId> = inner
        .segs
        .in_use_segments()
        .into_iter()
        .filter(|s| {
            *s != tail
                && !inner.residual_segments.contains(s)
                && !pinned.contains(s)
                // Copying a nearly full segment frees almost nothing.
                && (inner.segs.live_of(*s) as f64) < seg_size as f64 * 0.95
        })
        .collect();
    // Fully dead segments are freed without copying and cost (almost)
    // nothing — take them all, every pass. Only *copy-requiring* victims
    // are capped by `cleaner_batch` (the §3.2.1 bound on per-pass
    // cleaning work). Capping dead segments too would let the pass's own
    // checkpoint traffic consume more segments than it frees, growing the
    // database without bound under map-heavy workloads.
    let (dead, mut partial): (Vec<SegmentId>, Vec<SegmentId>) = candidates
        .into_iter()
        .partition(|s| inner.segs.live_of(*s) == 0);
    partial.sort_by_key(|s| inner.segs.live_of(*s));
    partial.truncate(inner.cfg.cleaner_batch);
    let victims: Vec<SegmentId> = dead.into_iter().chain(partial).collect();
    if victims.is_empty() {
        return Ok(None);
    }
    let victim_set: HashSet<SegmentId> = victims.iter().copied().collect();

    let mut moves: Vec<ChunkId> = Vec::new();
    inner.map.for_each_entry(&mut |id, loc| {
        if victim_set.contains(&loc.seg) {
            moves.push(id);
        }
    });
    Ok(Some(CleanPlan {
        victims,
        victim_set,
        moves,
        next: 0,
    }))
}

/// Phase 2: relocate up to `max_chunks` live chunk records. Returns `true`
/// once the plan has no moves left. Safe to interleave with commits: a
/// snapshot opened since the previous slice drops its victims from the
/// plan, and every chunk's location is re-fetched from the live map.
///
/// Relocation appends obey the same last-segment reserve as ordinary
/// commits (see `SegmentManager::maintenance_mode`): on a fixed-size log
/// the final free segment is kept for the pass's *closing checkpoint*,
/// because only that checkpoint turns relocations into freed segments. A
/// relocation that hits out-of-space therefore does not abort the pass —
/// it truncates the remaining moves and reports the plan complete, so
/// [`finish_pass`] still checkpoints and frees the fully dead victims.
/// (The pre-reserve behavior — relocation consuming the last segment and
/// the whole pass erroring out before any free — wedged fixed logs at
/// zero free segments permanently.)
pub(crate) fn relocate_slice(
    inner: &mut Inner,
    plan: &mut CleanPlan,
    max_chunks: usize,
) -> Result<bool> {
    let mut sw = tdb_obs::Stopwatch::start();
    let pinned = pinned_segments(inner);
    if !pinned.is_empty() {
        plan.victims.retain(|v| {
            if pinned.contains(v) {
                plan.victim_set.remove(v);
                false
            } else {
                true
            }
        });
    }
    let mut done = 0usize;
    while done < max_chunks.max(1) && plan.next < plan.moves.len() {
        let id = plan.moves[plan.next];
        plan.next += 1;
        // Re-fetch: the chunk may have been rewritten or deallocated (or
        // its victim dropped from the plan) since selection.
        let Some(old) = inner.map.get(id) else {
            continue;
        };
        if !plan.victim_set.contains(&old.seg) {
            continue;
        }
        // The sealed bytes move verbatim, so the hash in the map entry
        // stays valid.
        let stored = inner.segs.read_record(&old, RecordKind::ChunkData)?;
        if inner.ctx.verifies_hashes()
            && !crate::crypto_ctx::CryptoCtx::tags_equal(&inner.ctx.hash(&stored), &old.hash)
        {
            return Err(crate::error::ChunkStoreError::TamperDetected(format!(
                "cleaner found corrupted chunk {id:?} at {old:?}"
            )));
        }
        let (seg, off, len) = match inner.segs.append_record(RecordKind::ChunkData, &stored) {
            Ok(t) => t,
            Err(e) if e.kind() == tdb_core::ErrorKind::OutOfSpace => {
                // No room to copy more live data. Stop moving and let the
                // pass close: the checkpoint (which may use the reserved
                // last segment) anchors what was already relocated, and
                // the fully dead victims still get freed.
                add(&inner.stats.cleaner_move_stalls, 1);
                plan.next = plan.moves.len();
                break;
            }
            Err(e) => return Err(e),
        };
        let new_loc = Location {
            seg,
            off,
            len,
            hash: old.hash,
        };
        if let Some(superseded) = inner.map.set(id, new_loc) {
            inner.pending_dec.push(superseded);
        }
        add(&inner.stats.cleaner_bytes_copied, len as u64);
        done += 1;
    }
    for s in inner.segs.drain_entered() {
        inner.residual_segments.insert(s);
    }
    add(&inner.stats.cleaner_slices, 1);
    tdb_obs::trace::emit(
        tdb_obs::TraceLayer::Maint,
        tdb_obs::TraceKind::MaintSlice,
        0,
        done as u64,
        (plan.moves.len() - plan.next) as u64,
    );
    if sw.running() {
        inner.stats.phases.cleaner_slice.record(sw.lap());
    }
    Ok(plan.next >= plan.moves.len())
}

/// Phase 3: make the relocations the anchored truth, then reclaim.
/// Returns the number of segments freed. A victim that a late snapshot
/// pinned, another pass freed, or the checkpoint re-used as the tail is
/// simply left alone — a future pass retries it.
pub(crate) fn finish_pass(inner: &mut Inner, plan: &CleanPlan) -> Result<usize> {
    if plan.victims.is_empty() {
        // Everything got pinned mid-pass. The relocations already
        // appended are ordinary log traffic for the next checkpoint; no
        // forced checkpoint needed.
        return Ok(0);
    }
    // Snapshots take the store lock, so the pin set cannot change between
    // this check and the frees below.
    let pinned = pinned_segments(inner);
    // Live map pages in victims are relocated by the closing checkpoint.
    inner.map.dirty_pages_in(&plan.victim_set);
    inner.do_checkpoint()?;

    let mut freed = 0;
    let tail_now = inner.segs.tail_pos().0;
    for v in &plan.victims {
        // A group leader still writing a segment outside the lock could
        // land its bytes after the zeroed header, or over the records of
        // the segment's next life: leave such a victim to a later pass.
        if *v != tail_now
            && !inner.sync_inflight.contains(&v.0)
            && !pinned.contains(v)
            && inner.segs.is_in_use(*v)
            && inner.segs.live_of(*v) == 0
        {
            inner.segs.free_segment(*v)?;
            freed += 1;
            add(&inner.stats.cleaner_segments_freed, 1);
            tdb_obs::trace::emit(
                tdb_obs::TraceLayer::Maint,
                tdb_obs::TraceKind::SegFree,
                0,
                v.0 as u64,
                inner.segs.free_count() as u64,
            );
        }
    }
    inner.segs.drop_excess_free(FREE_SEGMENT_RESERVE)?;
    Ok(freed)
}
