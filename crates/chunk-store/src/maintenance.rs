//! Maintenance: checkpointing and cleaning, one policy with two drivers.
//!
//! The policy is [`one_round`]: checkpoint when the residual log is long,
//! then clean up to the high watermark. After a durable commit the
//! committer checks two cheap watermarks
//! (`StoreCore::after_commit_maintenance`):
//!
//! * residual log ≥ `checkpoint_threshold` → checkpoint;
//! * free segments < `clean_low_free` (and utilization ≤ the configured
//!   maximum) → clean until `clean_high_free` free segments exist or no
//!   garbage remains.
//!
//! With `background_maintenance` on, it then *kicks* the maintenance
//! thread, which runs the round off the commit path. With no thread
//! (`background_maintenance` off, or after `ChunkStore::close`) the
//! committer calls [`one_round`] itself, and its errors are the commit's.
//!
//! A cleaning pass runs *incrementally*: victim selection, then bounded
//! relocation slices of `maintenance_slice_chunks` chunks each — the
//! store lock is released between slices so committers interleave — then
//! the closing checkpoint and the frees. Each slice re-checks snapshot
//! pins and chunk locations, so commits and snapshots taken mid-pass are
//! always honored (see `cleaner`). Only the closing checkpoint anchors the
//! relocations, so an abandoned pass is just dead log tail.
//!
//! Backpressure: a committer that hits `OutOfSpace` kicks the thread and
//! blocks on [`MaintShared`]'s progress condvar until segments are freed
//! or a maintenance round completes (see `StoreCore::stall_for_space`),
//! then retries its append; with no thread it runs the round and retries.
//! The stall protocol is epoch-based to rule out lost wakeups: the waiter
//! snapshots the `(rounds, free_epoch)` pair *under the handshake lock*
//! before checking for free segments, and every notification advances one
//! of the epochs under that same lock — so progress that lands between the
//! waiter's check and its sleep makes the wait return immediately instead
//! of being missed. Crucially, [`MaintShared::note_freed`] re-notifies
//! after *every* segment free (mid-round, from the pass's closing
//! checkpoint), not just at round end — the round-granular notify was the
//! 1-CPU release hang: a waiter could sleep a full timeout (and, bounded at
//! 8 tries, surface a spurious `OutOfSpace`) while free segments already
//! existed.
//!
//! The thread also polls the [`tdb_obs::watchdog`] between kicks: when any
//! registered operation (commit, stall, cross-shard commit) exceeds the
//! `TDB_WATCHDOG_MS` threshold it assembles a diagnostic dump — flight
//! recorder window, per-thread last events, every registered store's
//! anchor/counter/free-segment state — and writes it to `TDB_DIAG_DIR`.
//!
//! Shutdown (`ChunkStore::close` or drop) sets the shutdown flag and
//! joins: the thread's in-flight pass notices between slices and abandons.

use crate::cleaner::{self, CleanPlan};
use crate::error::Result;
use crate::shard::StoreCore;
use crate::stats::add;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdb_obs::{trace, watchdog, TraceKind, TraceLayer};

/// Handshake state between committers, the maintenance thread, and
/// shutdown. A leaf lock: never held while taking the store lock.
pub(crate) struct MaintShared {
    state: Mutex<MaintState>,
    /// Wakes the maintenance thread (kick or shutdown).
    wake: Condvar,
    /// Wakes committers stalled for space (progress or shutdown).
    progress: Condvar,
    /// Held for the length of a [`one_round`]: with no thread, two
    /// committers can want a round at once, and the second must wait for
    /// the first one's frees instead of finding its pass in flight and
    /// concluding there is nothing to reclaim. Taken before the store
    /// lock, never with it held.
    round: Mutex<()>,
}

#[derive(Default)]
struct MaintState {
    kicked: bool,
    /// A group-commit leader parked a frozen root in `rehash_pending`.
    /// Separate from `kicked` on purpose: draining the rehash slot never
    /// takes the store lock, so it must not schedule a full maintenance
    /// round (one store-lock round per commit would put contention right
    /// back on the commit path the deferral took it off of).
    rehash_kick: bool,
    shutdown: bool,
    thread_running: bool,
    /// The thread took a kick and its round has not finished yet.
    busy: bool,
    /// Completed maintenance rounds (bumped even for fruitless ones, so
    /// stalled committers re-check instead of sleeping forever).
    rounds: u64,
    /// Bumped (with a notify) every time segments are freed — including
    /// mid-round — so stalled committers wake at the first free, not at
    /// round end.
    free_epoch: u64,
    /// The last maintenance-thread round that failed, and its error text.
    last_error: Option<(u64, String)>,
}

/// A stalled committer's view of maintenance progress (see
/// [`MaintShared::observe_and_kick`] / [`MaintShared::wait_progress`]).
#[derive(Clone, Copy)]
pub(crate) struct StallProgress {
    /// Completed rounds at observation time.
    pub(crate) rounds: u64,
    /// Free epoch at observation time.
    pub(crate) free_epoch: u64,
    /// Whether the maintenance thread was alive.
    pub(crate) thread_running: bool,
}

impl MaintShared {
    pub(crate) fn new() -> MaintShared {
        MaintShared {
            state: Mutex::new(MaintState::default()),
            wake: Condvar::new(),
            progress: Condvar::new(),
            round: Mutex::new(()),
        }
    }

    /// Mark the thread as live. Called before spawning it so a commit
    /// racing store construction kicks instead of driving a round.
    pub(crate) fn set_thread_running(&self) {
        self.state.lock().thread_running = true;
    }

    pub(crate) fn thread_running(&self) -> bool {
        self.state.lock().thread_running
    }

    /// Wake the thread to drain the deferred-rehash slot only — no
    /// maintenance round is scheduled (see [`MaintState::rehash_kick`]).
    pub(crate) fn kick_rehash(&self) {
        let mut st = self.state.lock();
        if !st.rehash_kick {
            st.rehash_kick = true;
            self.wake.notify_one();
        }
    }

    /// Ask the thread to exit (it abandons an in-flight pass between
    /// slices) and wake everyone so nothing sleeps through the shutdown.
    pub(crate) fn request_shutdown(&self) {
        let mut st = self.state.lock();
        st.shutdown = true;
        self.wake.notify_all();
        self.progress.notify_all();
    }

    fn shutdown_requested(&self) -> bool {
        self.state.lock().shutdown
    }

    /// Segments were freed: advance the free epoch and wake every stalled
    /// committer. The notify happens under the handshake lock — the same
    /// lock a staller's epoch snapshot and sleep use — so it can never
    /// land in the gap between a staller's check and its wait.
    pub(crate) fn note_freed(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut st = self.state.lock();
        st.free_epoch += 1;
        self.progress.notify_all();
    }

    /// Request a maintenance round from the thread, if there is one
    /// (idempotent while a round is pending), and snapshot the progress
    /// epochs. The epochs are read under the handshake lock *before* a
    /// stalled caller checks the store's free count, so any progress that
    /// lands after this call is guaranteed to make the next
    /// [`Self::wait_progress`] return immediately.
    pub(crate) fn observe_and_kick(&self) -> StallProgress {
        let mut st = self.state.lock();
        if st.thread_running && !st.kicked {
            st.kicked = true;
            self.wake.notify_one();
        }
        StallProgress {
            rounds: st.rounds,
            free_epoch: st.free_epoch,
            thread_running: st.thread_running,
        }
    }

    /// Block until progress advances past `seen` (a segment free or a
    /// completed round), or `timeout` passes, or the thread goes away.
    /// Returns the latest view; the caller compares epochs against `seen`.
    pub(crate) fn wait_progress(&self, seen: StallProgress, timeout: Duration) -> StallProgress {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        while st.rounds == seen.rounds
            && st.free_epoch == seen.free_epoch
            && st.thread_running
            && !st.shutdown
        {
            if self.progress.wait_until(&mut st, deadline).timed_out() {
                break;
            }
        }
        StallProgress {
            rounds: st.rounds,
            free_epoch: st.free_epoch,
            thread_running: st.thread_running,
        }
    }

    /// Block until the thread has no round running or requested (at once
    /// when there is no thread). Rounds kicked later are not waited for.
    pub(crate) fn wait_idle(&self) {
        let mut st = self.state.lock();
        while st.thread_running && (st.kicked || st.busy) {
            self.progress.wait(&mut st);
        }
    }

    /// Handshake state for diagnostic dumps. Non-blocking: reports
    /// `{"locked": true}` if the state lock is held (the dump path must
    /// never wedge on the locks it is diagnosing).
    pub(crate) fn diag_json(&self) -> tdb_obs::Json {
        match self.state.try_lock() {
            Some(st) => {
                let mut j = tdb_obs::Json::obj();
                j.push("thread_running", st.thread_running);
                j.push("kicked", st.kicked);
                j.push("rehash_kick", st.rehash_kick);
                j.push("shutdown", st.shutdown);
                j.push("rounds", st.rounds);
                j.push("free_epoch", st.free_epoch);
                match &st.last_error {
                    Some((round, error)) => {
                        let mut e = tdb_obs::Json::obj();
                        e.push("round", *round);
                        e.push("error", error.as_str());
                        j.push("last_error", e);
                    }
                    None => j.push("last_error", tdb_obs::Json::Null),
                }
                j
            }
            None => tdb_obs::Json::object([("locked", tdb_obs::Json::from(true))]),
        }
    }
}

/// Whether waking the maintenance thread for a deferred rehash pass can
/// overlap with the committer at all. On a single-CPU host the "background"
/// pass just preempts the committer mid-anchor (one context switch per
/// group), so the root stays parked until a natural wakeup instead — the
/// passes coalesce harder and the commit path never pays for the hashing.
pub(crate) fn rehash_overlap_pays() -> bool {
    static MULTI: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *MULTI.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// How long the thread sleeps between watchdog polls when idle. Tight
/// thresholds poll proportionally faster so a stall is caught within
/// ~1.25× the threshold.
fn watchdog_poll_interval() -> Duration {
    let thr = watchdog::threshold_ms();
    if thr == 0 {
        return Duration::from_secs(60); // watchdog off: just re-check config
    }
    Duration::from_millis((thr / 4).clamp(25, 1000))
}

/// Scan the watchdog's in-flight op table and emit a diagnostic dump if
/// anything exceeded the threshold. Rate-limited process-wide by
/// [`watchdog::claim_dump`], so N stores' maintenance threads do not
/// write N copies.
fn watchdog_poll(core: &StoreCore) {
    let thr_ms = watchdog::threshold_ms();
    if thr_ms == 0 {
        return;
    }
    let stalled = watchdog::stalled_ops(thr_ms.saturating_mul(1_000_000));
    if stalled.is_empty() || !watchdog::claim_dump() {
        return;
    }
    add(&core.stats.watchdog_dumps, 1);
    let worst = &stalled[0];
    trace::emit(
        TraceLayer::Maint,
        TraceKind::WatchdogDump,
        worst.xid,
        stalled.len() as u64,
        worst.age_ns / 1_000_000,
    );
    let reason = format!(
        "watchdog: {} on t{} in flight {:.0}ms (threshold {}ms); {} op(s) stalled",
        worst.kind.name(),
        worst.tid,
        worst.age_ns as f64 / 1e6,
        thr_ms,
        stalled.len()
    );
    let dump = tdb_obs::diag::collect_with(&reason, &stalled);
    match tdb_obs::diag::write_dump(&dump, worst.kind.name()) {
        Ok(Some(path)) => eprintln!("tdb-diag: {reason} -> {}", path.display()),
        Ok(None) => eprintln!("tdb-diag: {reason} (set TDB_DIAG_DIR to persist dumps)"),
        Err(e) => eprintln!("tdb-diag: {reason} (failed to write dump: {e})"),
    }
}

/// Thread body. Holds an `Arc<StoreCore>` (not the `Shard` handle),
/// so dropping the store still reaches `Shard::close`'s join.
pub(crate) fn run(core: Arc<StoreCore>) {
    loop {
        let kicked = {
            let mut st = core.maint.state.lock();
            let deadline = Instant::now() + watchdog_poll_interval();
            while !st.kicked && !st.rehash_kick && !st.shutdown {
                if core.maint.wake.wait_until(&mut st, deadline).timed_out() {
                    break;
                }
            }
            if st.shutdown {
                st.thread_running = false;
                core.maint.progress.notify_all();
                return;
            }
            let kicked = st.kicked;
            st.kicked = false;
            st.rehash_kick = false;
            st.busy = kicked;
            kicked
        };
        // Drain the deferred-rehash slot on every wakeup — explicit kicks
        // and timer polls alike — so parked roots coalesce instead of
        // rotting. Taking only the latest root is enough: its pass covers
        // every earlier round's dirty paths too (the nodes are shared),
        // which is exactly how consecutive rounds coalesce. No store lock
        // is taken anywhere on this path — the root is a frozen Arc.
        let pending = core.rehash_pending.lock().take();
        if let Some(root) = pending {
            let mut sw = tdb_obs::Stopwatch::start();
            crate::map::rehash_root_batched(&root);
            if sw.running() {
                core.stats.phases.maint_rehash.record(sw.lap());
            }
        }
        if kicked {
            add(&core.stats.maintenance_wakeups, 1);
            let round = core.maint.state.lock().rounds;
            trace::emit(TraceLayer::Maint, TraceKind::MaintRound, 0, round, 0);
            // A store failure here (the untrusted store erroring) is not
            // fatal to the thread: the round's work stays retryable (the
            // closing checkpoint is the only anchored truth), committers
            // see the same error on their own operations, and the
            // backpressure path surfaces persistent out-of-space as an
            // error.
            let freed = match one_round(&core, &|| !core.maint.shutdown_requested()) {
                Ok(n) => n,
                Err(e) => {
                    // Not fatal to the thread (see the comment above), but
                    // it must not be invisible either: count it, keep it for
                    // diagnostic dumps and record it in the flight recorder.
                    let free = core.inner.lock().segs.free_count();
                    trace::emit(
                        TraceLayer::Maint,
                        TraceKind::MaintError,
                        0,
                        round,
                        free as u64,
                    );
                    add(&core.stats.maintenance_errors, 1);
                    core.maint.state.lock().last_error = Some((round, e.to_string()));
                    0
                }
            };
            trace::emit(TraceLayer::Maint, TraceKind::MaintRoundEnd, 0, round, freed);
            {
                let mut st = core.maint.state.lock();
                st.rounds += 1;
                st.busy = false;
                core.maint.progress.notify_all();
            }
        }
        // Poll the stall watchdog on every wakeup (kick or timer): commits
        // and stalls register in the global in-flight table, and this
        // thread is the one actor guaranteed to stay responsive.
        watchdog_poll(&core);
    }
}

/// One maintenance round — the store's only maintenance policy:
/// checkpoint if the residual log is long, then clean up to the high
/// watermark, one incremental pass at a time. `keep_going` is the
/// driver's say in it: the maintenance thread stops at shutdown, a
/// committer driving its own round never does. Returns the number of
/// segments freed.
pub(crate) fn one_round(core: &StoreCore, keep_going: &dyn Fn() -> bool) -> Result<u64> {
    let _round = core.maint.round.lock();
    let mut total_freed = 0u64;
    let covered = {
        let mut inner = core.inner.lock();
        if inner.residual_bytes >= inner.cfg.checkpoint_threshold {
            match inner.do_checkpoint() {
                Ok(()) => Some(inner.commit_seq),
                // A full fixed-size log can refuse the threshold
                // checkpoint; that is space pressure, not a reason to skip
                // the round — cleaning below may free dead segments whose
                // smaller closing checkpoint still fits.
                Err(e) if e.kind() == tdb_core::ErrorKind::OutOfSpace => None,
                Err(e) => return Err(e),
            }
        } else {
            None
        }
    };
    if let Some(covered) = covered {
        core.publish_durable(covered);
    }
    let mut forced_checkpoint = false;
    loop {
        if !keep_going() {
            return Ok(total_freed);
        }
        let free_before = {
            let inner = core.inner.lock();
            if inner.segs.free_count() >= inner.cfg.effective_high_free()
                || inner.segs.utilization() > inner.cfg.max_utilization
            {
                return Ok(total_freed);
            }
            inner.segs.free_count()
        };
        match incremental_pass(core, &mut |_| keep_going())? {
            PassResult::NoGarbage => {
                // The garbage may all sit in still-residual segments (no
                // checkpoint since it was made), which the cleaner skips.
                // Below the low watermark that is space pressure, not
                // cleanliness: shrink the residual set once and retry.
                let covered = {
                    let mut inner = core.inner.lock();
                    if forced_checkpoint
                        || inner.residual_segments.len() <= 1
                        || inner.segs.free_count() >= inner.cfg.effective_low_free()
                    {
                        return Ok(total_freed);
                    }
                    forced_checkpoint = true;
                    inner.do_checkpoint()?;
                    inner.commit_seq
                };
                core.publish_durable(covered);
            }
            PassResult::Abandoned => return Ok(total_freed),
            PassResult::Freed(n) => {
                total_freed += n as u64;
                if core.inner.lock().segs.free_count() <= free_before {
                    // The pass gained nothing: its victims could not be
                    // freed (pinned, or re-used by the pass's own
                    // checkpoint), or its checkpoint took as many
                    // segments as it freed — on a small fixed-size log
                    // the high watermark may be out of reach altogether.
                    // Retrying immediately would spin; the next round
                    // retries.
                    add(&core.stats.maintenance_gave_up, 1);
                    return Ok(total_freed);
                }
            }
        }
    }
}

/// How an incremental pass ended.
pub(crate) enum PassResult {
    /// Nothing to clean (or another pass is already in flight).
    NoGarbage,
    /// The pass completed; this many segments were freed.
    Freed(usize),
    /// `keep_going` said stop (the thread is shutting down); the
    /// relocations already appended are dead log tail until a later pass
    /// redoes them.
    Abandoned,
}

/// Drive one cleaning pass slice by slice, releasing the store lock
/// between slices. `keep_going` is consulted before each slice with its
/// index; returning `false` abandons the pass (also the test hook for
/// mid-pass snapshots — it runs with the store unlocked).
pub(crate) fn incremental_pass(
    core: &StoreCore,
    keep_going: &mut dyn FnMut(usize) -> bool,
) -> Result<PassResult> {
    let mut sw = tdb_obs::Stopwatch::start();
    let slice_cap;
    let mut plan = {
        let mut inner = core.inner.lock();
        if inner.pass_active {
            // A concurrent pass (manual `clean()` racing the thread) is
            // already doing this work; don't double-free its victims.
            return Ok(PassResult::NoGarbage);
        }
        slice_cap = inner.cfg.maintenance_slice_chunks;
        match cleaner::select_victims(&mut inner)? {
            None => return Ok(PassResult::NoGarbage),
            Some(plan) => {
                inner.pass_active = true;
                plan
            }
        }
    };
    let result = drive_slices(core, &mut plan, slice_cap, keep_going);
    core.inner.lock().pass_active = false;
    if sw.running() {
        core.stats.phases.cleaner_pass.record(sw.lap());
    }
    result
}

fn drive_slices(
    core: &StoreCore,
    plan: &mut CleanPlan,
    slice_cap: usize,
    keep_going: &mut dyn FnMut(usize) -> bool,
) -> Result<PassResult> {
    let mut slice = 0usize;
    loop {
        if !keep_going(slice) {
            return Ok(PassResult::Abandoned);
        }
        let mut inner = core.inner.lock();
        let done = cleaner::relocate_slice(&mut inner, plan, slice_cap)?;
        if done {
            let freed = cleaner::finish_pass(&mut inner, plan)?;
            let covered = inner.commit_seq;
            drop(inner);
            // The closing checkpoint anchored everything appended so far;
            // wake followers it covered — and, before anything else, wake
            // committers stalled for space: each freed segment must
            // re-notify so a staller never sleeps through available space.
            core.maint.note_freed(freed as u64);
            core.publish_durable(covered);
            return Ok(PassResult::Freed(freed));
        }
        drop(inner);
        // Give committers the lock between slices.
        std::thread::yield_now();
        slice += 1;
    }
}
