//! Deterministic fault injection over any untrusted store.
//!
//! Crash-consistency claims are only as good as the crash tests behind them.
//! [`FaultStore`] wraps an [`UntrustedStore`] and consults a shared
//! [`FaultPlan`] holding a [`CrashSchedule`]:
//!
//! * **byte-budget** ([`FaultPlan::crash_after_bytes`]) — after a configured
//!   number of written bytes the simulated device "loses power": the current
//!   write is truncated at the budget boundary (a torn write) and every
//!   subsequent operation fails with [`PlatformError::Crashed`];
//! * **operation-granular** ([`FaultPlan::crash_on_write`],
//!   [`FaultPlan::crash_on_sync`]) — the crash fires during the K-th write
//!   (tearing it at a configurable byte fraction, which may be 0 or the full
//!   length) or in place of the K-th `sync`.
//!
//! The plan can also **trace** every write/sync boundary it observes
//! ([`FaultPlan::set_tracing`], [`FaultPlan::take_trace`]), including the
//! pre-image bytes each write overwrote. A torture harness replays a
//! workload once with tracing on to enumerate all crash points, then sweeps
//! them; the pre-images let it mount *segment rollback* attacks (restore an
//! older version of one file) without any out-of-band snapshots — see
//! [`apply_tamper`] and [`TamperMode`] for the post-crash tamper modes
//! (bit-flip, block-swap, rollback/replay).
//!
//! Recovery tests reopen the *underlying* store, which retains exactly the
//! bytes that made it out before the cut.

use crate::error::{PlatformError, Result};
use crate::untrusted::{RandomAccessFile, UntrustedStore};
use parking_lot::Mutex;
use std::sync::Arc;

/// When the simulated power cut fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrashSchedule {
    /// Never crash.
    Never,
    /// Crash once this many further bytes have been written (the budget is
    /// consumed across writes; the write that exhausts it is torn at the
    /// boundary).
    AfterBytes(u64),
    /// Crash during the `index`-th write operation (0-based, counted across
    /// all files): `cut_num / cut_den` of the write's bytes land first.
    /// `cut_num == cut_den` lets every byte land and kills the device right
    /// after — the caller still sees [`PlatformError::Crashed`] because the
    /// power was gone before the write could be acknowledged.
    OnWrite {
        /// 0-based index of the write operation to crash in.
        index: u64,
        /// Numerator of the torn-byte fraction.
        cut_num: u32,
        /// Denominator of the torn-byte fraction (must be > 0).
        cut_den: u32,
    },
    /// Crash in place of the `index`-th `sync` (0-based): the sync never
    /// reaches the device, which then stays dead.
    OnSync {
        /// 0-based index of the sync operation to crash at.
        index: u64,
    },
}

/// One observed storage operation (recorded when tracing is enabled).
#[derive(Clone, Debug)]
pub enum FaultEvent {
    /// A positioned write.
    Write(WriteEvent),
    /// A completed `sync`.
    Sync {
        /// File the sync applied to.
        file: String,
    },
    /// A `set_len` call (not a sweepable crash point; recorded so traces
    /// describe the full mutation history).
    Truncate {
        /// File that was resized.
        file: String,
        /// Length before the call.
        old_len: u64,
        /// Length requested.
        new_len: u64,
    },
}

/// Details of one traced write, with enough context to undo it exactly.
#[derive(Clone, Debug)]
pub struct WriteEvent {
    /// File written to.
    pub file: String,
    /// Byte offset of the write.
    pub offset: u64,
    /// Bytes the caller asked to write.
    pub len: u64,
    /// Bytes that actually landed (less than `len` exactly when this write
    /// was torn by the crash).
    pub written: u64,
    /// File length before the write.
    pub old_len: u64,
    /// Previous contents of the overwritten range, clamped to the old file
    /// length (shorter than `len` when the write extended the file).
    pub pre_image: Vec<u8>,
}

#[derive(Default)]
struct PlanState {
    schedule: Option<CrashSchedule>,
    crashed: bool,
    write_ops: u64,
    sync_ops: u64,
    bytes_written: u64,
    tracing: bool,
    trace: Vec<FaultEvent>,
}

impl PlanState {
    fn schedule(&self) -> &CrashSchedule {
        self.schedule.as_ref().unwrap_or(&CrashSchedule::Never)
    }
}

/// Shared crash schedule plus the event trace. Clones share state, so the
/// plan handed to a [`FaultStore`] can be rearmed and inspected from the
/// test driver.
#[derive(Clone, Default)]
pub struct FaultPlan {
    state: Arc<Mutex<PlanState>>,
}

impl FaultPlan {
    /// A plan that never crashes (can be rearmed later).
    pub fn unlimited() -> Self {
        FaultPlan::default()
    }

    /// A plan that crashes after `bytes` further written bytes.
    pub fn crash_after_bytes(bytes: u64) -> Self {
        Self::with_schedule(CrashSchedule::AfterBytes(bytes))
    }

    /// A plan that crashes during the `index`-th write (0-based), after
    /// `cut_num / cut_den` of its bytes have landed.
    pub fn crash_on_write(index: u64, cut_num: u32, cut_den: u32) -> Self {
        assert!(
            cut_den > 0,
            "torn-write fraction needs a nonzero denominator"
        );
        assert!(cut_num <= cut_den, "torn-write fraction must be ≤ 1");
        Self::with_schedule(CrashSchedule::OnWrite {
            index,
            cut_num,
            cut_den,
        })
    }

    /// A plan that crashes in place of the `index`-th sync (0-based).
    pub fn crash_on_sync(index: u64) -> Self {
        Self::with_schedule(CrashSchedule::OnSync { index })
    }

    /// A plan armed with an explicit schedule.
    pub fn with_schedule(schedule: CrashSchedule) -> Self {
        let plan = Self::unlimited();
        plan.state.lock().schedule = Some(schedule);
        plan
    }

    /// Rearm with a new byte budget and clear the crashed flag (kept for the
    /// pre-schedule API; equivalent to [`FaultPlan::rearm_with`] +
    /// [`CrashSchedule::AfterBytes`]).
    pub fn rearm(&self, bytes: u64) {
        self.rearm_with(CrashSchedule::AfterBytes(bytes));
    }

    /// Rearm with an arbitrary schedule: clears the crashed flag and resets
    /// the operation counters (so schedule indices are relative to the
    /// rearm point), but keeps any accumulated trace.
    pub fn rearm_with(&self, schedule: CrashSchedule) {
        let mut st = self.state.lock();
        st.schedule = Some(schedule);
        st.crashed = false;
        st.write_ops = 0;
        st.sync_ops = 0;
        st.bytes_written = 0;
    }

    /// Whether the simulated crash has occurred.
    pub fn has_crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Number of completed `sync` calls (lets tests assert durability
    /// behaviour, e.g. "a nondurable commit must not sync"). A sync the
    /// crash schedule kills is *not* counted — it never reached the device.
    pub fn sync_count(&self) -> u64 {
        self.state.lock().sync_ops
    }

    /// Number of write operations observed (including a final torn one).
    pub fn write_ops(&self) -> u64 {
        self.state.lock().write_ops
    }

    /// Total bytes that actually landed on the device.
    pub fn bytes_written(&self) -> u64 {
        self.state.lock().bytes_written
    }

    /// Enable or disable event tracing. Tracing captures pre-image bytes of
    /// every write, so leave it off for workloads where memory matters.
    pub fn set_tracing(&self, on: bool) {
        self.state.lock().tracing = on;
    }

    /// Drain and return the recorded events.
    pub fn take_trace(&self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.state.lock().trace)
    }

    fn check_alive(&self) -> Result<()> {
        if self.has_crashed() {
            Err(PlatformError::Crashed)
        } else {
            Ok(())
        }
    }

    /// Decide how many of `wanted` bytes this write may land, advancing the
    /// write-op counter and firing the crash if scheduled. Returns
    /// `(allowed, crashes_now)`.
    fn admit_write(&self, wanted: u64) -> (u64, bool) {
        let mut st = self.state.lock();
        let op_index = st.write_ops;
        st.write_ops += 1;
        let (allowed, crash) = match *st.schedule() {
            CrashSchedule::Never | CrashSchedule::OnSync { .. } => (wanted, false),
            CrashSchedule::AfterBytes(remaining) => {
                let allowed = remaining.min(wanted);
                (allowed, allowed < wanted)
            }
            CrashSchedule::OnWrite {
                index,
                cut_num,
                cut_den,
            } => {
                if op_index == index {
                    (wanted * cut_num as u64 / cut_den as u64, true)
                } else {
                    (wanted, false)
                }
            }
        };
        if let Some(CrashSchedule::AfterBytes(remaining)) = st.schedule.as_mut() {
            *remaining -= allowed.min(*remaining);
        }
        if crash {
            st.crashed = true;
        }
        st.bytes_written += allowed;
        (allowed, crash)
    }

    /// Decide whether the next sync proceeds, counting it if it does.
    fn admit_sync(&self) -> bool {
        let mut st = self.state.lock();
        let op_index = st.sync_ops;
        if matches!(*st.schedule(), CrashSchedule::OnSync { index } if index == op_index) {
            st.crashed = true;
            return false;
        }
        st.sync_ops += 1;
        true
    }

    fn tracing(&self) -> bool {
        self.state.lock().tracing
    }

    fn record(&self, event: FaultEvent) {
        let mut st = self.state.lock();
        if st.tracing {
            st.trace.push(event);
        }
    }
}

/// An untrusted store whose writes obey a [`FaultPlan`].
pub struct FaultStore<S> {
    inner: S,
    plan: FaultPlan,
}

impl<S: UntrustedStore> FaultStore<S> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultStore { inner, plan }
    }

    /// Access the underlying store (post-crash inspection / reopen).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The plan, for rearming or assertions.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

struct FaultFile {
    name: String,
    inner: Box<dyn RandomAccessFile>,
    plan: FaultPlan,
}

impl RandomAccessFile for FaultFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.plan.check_alive()?;
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.plan.check_alive()?;
        // Capture the pre-image before any byte lands, so the trace can undo
        // this write exactly even if it is torn.
        let pre = if self.plan.tracing() {
            let old_len = self.inner.len()?;
            let end = old_len.min(offset + data.len() as u64);
            let mut pre_image = vec![0u8; end.saturating_sub(offset) as usize];
            if !pre_image.is_empty() {
                self.inner.read_at(offset, &mut pre_image)?;
            }
            Some((old_len, pre_image))
        } else {
            None
        };
        let (allowed, crashes) = self.plan.admit_write(data.len() as u64);
        let allowed = allowed as usize;
        if allowed > 0 {
            self.inner.write_at(offset, &data[..allowed])?;
        }
        if let Some((old_len, pre_image)) = pre {
            self.plan.record(FaultEvent::Write(WriteEvent {
                file: self.name.clone(),
                offset,
                len: data.len() as u64,
                written: allowed as u64,
                old_len,
                pre_image,
            }));
        }
        if crashes || allowed < data.len() {
            return Err(PlatformError::Crashed);
        }
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        self.plan.check_alive()?;
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.plan.check_alive()?;
        if self.plan.tracing() {
            let old_len = self.inner.len()?;
            self.plan.record(FaultEvent::Truncate {
                file: self.name.clone(),
                old_len,
                new_len: len,
            });
        }
        self.inner.set_len(len)
    }

    fn sync(&self) -> Result<()> {
        self.plan.check_alive()?;
        if !self.plan.admit_sync() {
            return Err(PlatformError::Crashed);
        }
        self.plan.record(FaultEvent::Sync {
            file: self.name.clone(),
        });
        self.inner.sync()
    }
}

impl<S: UntrustedStore> UntrustedStore for FaultStore<S> {
    fn open(&self, name: &str, create: bool) -> Result<Box<dyn RandomAccessFile>> {
        self.plan.check_alive()?;
        let inner = self.inner.open(name, create)?;
        Ok(Box::new(FaultFile {
            name: name.to_string(),
            inner,
            plan: self.plan.clone(),
        }))
    }

    fn exists(&self, name: &str) -> Result<bool> {
        self.plan.check_alive()?;
        self.inner.exists(name)
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.plan.check_alive()?;
        self.inner.remove(name)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.plan.check_alive()?;
        self.inner.list()
    }
}

// ---------------------------------------------------------------------------
// Post-crash tamper modes
// ---------------------------------------------------------------------------

/// A deterministic post-crash tamper, applied to the surviving bytes before
/// recovery runs. `pick` values are reduced modulo whatever is applicable,
/// so any u64 (e.g. from a test seed) selects a valid target.
#[derive(Clone, Debug)]
pub enum TamperMode {
    /// Flip one byte somewhere in the written regions of the store.
    BitFlip {
        /// Selects which written byte to flip.
        pick: u64,
    },
    /// Swap two `block`-sized spans of written bytes.
    BlockSwap {
        /// Selects the first span.
        pick_a: u64,
        /// Selects the second span.
        pick_b: u64,
        /// Span length in bytes.
        block: usize,
    },
    /// Roll one file back to an earlier state of the *same run* by undoing
    /// the most recent `fraction`-th of its writes (a file-granular replay
    /// attack: the attacker restores a stale copy of a segment).
    Rollback {
        /// Selects which written file to roll back.
        pick: u64,
    },
}

/// What [`apply_tamper`] actually changed.
#[derive(Clone, Debug)]
pub struct TamperReceipt {
    /// Human-readable description of the mutation.
    pub description: String,
    /// Whether any byte actually changed (a block-swap of identical blocks
    /// or a rollback over identical pre-images mutates nothing; the harness
    /// must not count those as injected tampers).
    pub changed: bool,
}

/// Written regions per the trace: `(file, offset, landed_len)`.
fn written_regions(trace: &[FaultEvent]) -> Vec<(&str, u64, u64)> {
    trace
        .iter()
        .filter_map(|e| match e {
            FaultEvent::Write(w) if w.written > 0 => Some((w.file.as_str(), w.offset, w.written)),
            _ => None,
        })
        .collect()
}

/// Clip traced regions to bytes the store still holds. Maintenance may
/// remove or truncate a file after the traced write (a chunk store drops
/// free segments in `drop_excess_free`), and a tamper can only target
/// bytes that exist at apply time.
fn live_regions<'a>(
    store: &dyn UntrustedStore,
    trace: &'a [FaultEvent],
) -> Result<Vec<(&'a str, u64, u64)>> {
    let mut lens: Vec<(&'a str, u64)> = Vec::new();
    let mut out = Vec::new();
    for (file, offset, len) in written_regions(trace) {
        let flen = match lens.iter().find(|(f, _)| *f == file) {
            Some((_, l)) => *l,
            None => {
                let l = if store.exists(file)? {
                    store.open(file, false)?.len()?
                } else {
                    0
                };
                lens.push((file, l));
                l
            }
        };
        let clipped = len.min(flen.saturating_sub(offset));
        if clipped > 0 {
            out.push((file, offset, clipped));
        }
    }
    Ok(out)
}

/// Map a flat byte pick onto (region, byte-within-region).
fn pick_byte<'a>(regions: &[(&'a str, u64, u64)], pick: u64) -> Option<(&'a str, u64)> {
    let total: u64 = regions.iter().map(|(_, _, len)| len).sum();
    if total == 0 {
        return None;
    }
    let mut target = pick % total;
    for (file, offset, len) in regions {
        if target < *len {
            return Some((file, offset + target));
        }
        target -= len;
    }
    None
}

/// Apply `mode` to `store`, guided by the write `trace` of the run that
/// produced its contents. Returns `Ok(None)` when the mode is inapplicable
/// (e.g. nothing was written). The mutation is deterministic given the
/// trace and the mode's pick values.
pub fn apply_tamper(
    store: &dyn UntrustedStore,
    trace: &[FaultEvent],
    mode: &TamperMode,
) -> Result<Option<TamperReceipt>> {
    let regions = live_regions(store, trace)?;
    match mode {
        TamperMode::BitFlip { pick } => {
            let Some((file, offset)) = pick_byte(&regions, *pick) else {
                return Ok(None);
            };
            let f = store.open(file, false)?;
            let mut b = [0u8; 1];
            f.read_at(offset, &mut b)?;
            f.write_at(offset, &[b[0] ^ 0xFF])?;
            Ok(Some(TamperReceipt {
                description: format!("bit-flip {file}@{offset}"),
                changed: true,
            }))
        }
        TamperMode::BlockSwap {
            pick_a,
            pick_b,
            block,
        } => {
            let block = (*block).max(1) as u64;
            // Restrict to regions that can hold a whole block so the swap
            // stays within written bytes.
            let wide: Vec<_> = regions
                .iter()
                .copied()
                .filter(|(_, _, len)| *len >= block)
                .collect();
            let Some((file_a, start_a)) = pick_byte(&wide, *pick_a) else {
                return Ok(None);
            };
            let Some((file_b, start_b)) = pick_byte(&wide, *pick_b) else {
                return Ok(None);
            };
            // Clamp the block starts inside their regions.
            let clamp = |(file, region_off, region_len): (&str, u64, u64), start: u64| {
                let max_start = region_off + region_len - block;
                (file.to_string(), start.min(max_start))
            };
            let region_of = |file: &str, byte: u64| {
                wide.iter()
                    .copied()
                    .find(|(f, o, l)| *f == file && byte >= *o && byte < o + l)
                    .expect("picked byte lies in a region")
            };
            let (file_a, start_a) = clamp(region_of(file_a, start_a), start_a);
            let (file_b, start_b) = clamp(region_of(file_b, start_b), start_b);
            if file_a == file_b && start_a == start_b {
                return Ok(None);
            }
            let fa = store.open(&file_a, false)?;
            let fb = store.open(&file_b, false)?;
            let mut a = vec![0u8; block as usize];
            let mut b = vec![0u8; block as usize];
            fa.read_at(start_a, &mut a)?;
            fb.read_at(start_b, &mut b)?;
            let changed = a != b;
            fa.write_at(start_a, &b)?;
            fb.write_at(start_b, &a)?;
            Ok(Some(TamperReceipt {
                description: format!(
                    "block-swap {file_a}@{start_a} <-> {file_b}@{start_b} ({block}B)"
                ),
                changed,
            }))
        }
        TamperMode::Rollback { pick } => {
            // Files with at least two writes — rolling back *all* history of
            // a file is just deletion; undoing a strict suffix restores a
            // genuine earlier version.
            let mut files: Vec<&str> = Vec::new();
            for e in trace {
                if let FaultEvent::Write(w) = e {
                    if !files.contains(&w.file.as_str()) {
                        files.push(&w.file);
                    }
                }
            }
            files.retain(|f| {
                trace
                    .iter()
                    .filter(|e| matches!(e, FaultEvent::Write(w) if w.file == *f && w.written > 0))
                    .count()
                    >= 2
            });
            // A file maintenance has since removed can't be rolled back —
            // there is no current version to regress.
            let mut existing = Vec::with_capacity(files.len());
            for f in files {
                if store.exists(f)? {
                    existing.push(f);
                }
            }
            let files = existing;
            if files.is_empty() {
                return Ok(None);
            }
            let file = files[(*pick % files.len() as u64) as usize];
            let writes: Vec<&WriteEvent> = trace
                .iter()
                .filter_map(|e| match e {
                    FaultEvent::Write(w) if w.file == file => Some(w),
                    _ => None,
                })
                .collect();
            // Undo the most recent half (at least one write).
            let undo_from = writes.len() - (writes.len() / 2).max(1);
            let f = store.open(file, false)?;
            let mut changed = false;
            for w in writes[undo_from..].iter().rev() {
                if w.written == 0 {
                    continue;
                }
                let live = w.pre_image.len().min(w.written as usize);
                if live > 0 {
                    // The file may have been truncated since this write
                    // (or dropped and recreated); only the still-present
                    // prefix can be compared, but the whole pre-image is
                    // restored.
                    let readable = live.min(f.len()?.saturating_sub(w.offset) as usize);
                    let mut current = vec![0u8; readable];
                    if readable > 0 {
                        f.read_at(w.offset, &mut current)?;
                    }
                    if readable < live || current != w.pre_image[..readable] {
                        changed = true;
                    }
                    f.write_at(w.offset, &w.pre_image[..live])?;
                }
            }
            let old_len = writes[undo_from].old_len;
            if f.len()? != old_len {
                changed = true;
            }
            f.set_len(old_len)?;
            Ok(Some(TamperReceipt {
                description: format!(
                    "rollback {file} to before write #{undo_from} (len {old_len})"
                ),
                changed,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::untrusted::MemStore;

    #[test]
    fn unlimited_plan_passes_through() {
        let mem = MemStore::new();
        let store = FaultStore::new(mem.clone(), FaultPlan::unlimited());
        let f = store.open("f", true).unwrap();
        f.write_at(0, b"abcdef").unwrap();
        f.sync().unwrap();
        assert_eq!(store.plan().sync_count(), 1);
        assert_eq!(mem.raw("f").unwrap(), b"abcdef");
    }

    #[test]
    fn crash_tears_the_write_at_budget_boundary() {
        let mem = MemStore::new();
        let store = FaultStore::new(mem.clone(), FaultPlan::crash_after_bytes(4));
        let f = store.open("f", true).unwrap();
        let err = f.write_at(0, b"abcdef").unwrap_err();
        assert!(matches!(err, PlatformError::Crashed));
        // Torn: exactly 4 bytes landed.
        assert_eq!(mem.raw("f").unwrap(), b"abcd");
        assert!(store.plan().has_crashed());
    }

    #[test]
    fn everything_fails_after_crash() {
        let mem = MemStore::new();
        let store = FaultStore::new(mem.clone(), FaultPlan::crash_after_bytes(0));
        let f = store.open("f", true).unwrap();
        assert!(f.write_at(0, b"x").is_err());
        assert!(f.read_at(0, &mut [0u8; 1]).is_err());
        assert!(f.sync().is_err());
        assert!(store.open("g", true).is_err());
        assert!(store.list().is_err());
    }

    #[test]
    fn budget_spans_multiple_writes() {
        let mem = MemStore::new();
        let store = FaultStore::new(mem.clone(), FaultPlan::crash_after_bytes(10));
        let f = store.open("f", true).unwrap();
        f.write_at(0, b"12345").unwrap();
        f.write_at(5, b"678").unwrap();
        // 2 bytes of budget left; this write tears.
        assert!(f.write_at(8, b"abcde").is_err());
        assert_eq!(mem.raw("f").unwrap(), b"12345678ab");
    }

    #[test]
    fn rearm_revives_the_device() {
        let mem = MemStore::new();
        let store = FaultStore::new(mem.clone(), FaultPlan::crash_after_bytes(0));
        // Budget 0: the first write fires the crash...
        assert!(store.open("f", true).unwrap().write_at(0, b"x").is_err());
        // ...after which even opens fail.
        assert!(store.open("f", true).is_err());
        store.plan().rearm(u64::MAX);
        store.open("f", true).unwrap().write_at(0, b"ok").unwrap();
        assert_eq!(mem.raw("f").unwrap(), b"ok");
    }

    #[test]
    fn crash_on_kth_write_tears_at_fraction() {
        let mem = MemStore::new();
        let store = FaultStore::new(mem.clone(), FaultPlan::crash_on_write(2, 1, 2));
        let f = store.open("f", true).unwrap();
        f.write_at(0, b"aaaa").unwrap(); // write 0
        f.write_at(4, b"bbbb").unwrap(); // write 1
        let err = f.write_at(8, b"cccc").unwrap_err(); // write 2: torn at 1/2
        assert!(matches!(err, PlatformError::Crashed));
        assert_eq!(mem.raw("f").unwrap(), b"aaaabbbbcc");
        assert!(store.plan().has_crashed());
    }

    #[test]
    fn crash_on_write_with_full_fraction_lands_all_bytes_but_still_dies() {
        let mem = MemStore::new();
        let store = FaultStore::new(mem.clone(), FaultPlan::crash_on_write(1, 1, 1));
        let f = store.open("f", true).unwrap();
        f.write_at(0, b"aaaa").unwrap();
        let err = f.write_at(4, b"bbbb").unwrap_err();
        assert!(matches!(err, PlatformError::Crashed));
        // All bytes landed, but the device is dead and the op errored.
        assert_eq!(mem.raw("f").unwrap(), b"aaaabbbb");
        assert!(f.read_at(0, &mut [0u8; 1]).is_err());
    }

    #[test]
    fn crash_on_write_with_zero_fraction_lands_nothing() {
        let mem = MemStore::new();
        let store = FaultStore::new(mem.clone(), FaultPlan::crash_on_write(1, 0, 1));
        let f = store.open("f", true).unwrap();
        f.write_at(0, b"aaaa").unwrap();
        assert!(f.write_at(4, b"bbbb").is_err());
        assert_eq!(mem.raw("f").unwrap(), b"aaaa");
    }

    #[test]
    fn crash_on_kth_sync_kills_before_the_sync() {
        let mem = MemStore::new();
        let store = FaultStore::new(mem.clone(), FaultPlan::crash_on_sync(1));
        let f = store.open("f", true).unwrap();
        f.write_at(0, b"x").unwrap();
        f.sync().unwrap(); // sync 0 proceeds
        f.write_at(1, b"y").unwrap();
        assert!(matches!(f.sync().unwrap_err(), PlatformError::Crashed)); // sync 1 dies
        assert_eq!(
            store.plan().sync_count(),
            1,
            "the killed sync must not count"
        );
        assert!(store.plan().has_crashed());
    }

    #[test]
    fn trace_records_write_and_sync_boundaries_with_pre_images() {
        let mem = MemStore::new();
        let store = FaultStore::new(mem.clone(), FaultPlan::unlimited());
        store.plan().set_tracing(true);
        let f = store.open("f", true).unwrap();
        f.write_at(0, b"aaaa").unwrap();
        f.sync().unwrap();
        f.write_at(2, b"BB").unwrap(); // overwrites "aa"
        let trace = store.plan().take_trace();
        assert_eq!(trace.len(), 3);
        match &trace[0] {
            FaultEvent::Write(w) => {
                assert_eq!((w.offset, w.len, w.written, w.old_len), (0, 4, 4, 0));
                assert!(w.pre_image.is_empty(), "fresh file has no pre-image");
            }
            other => panic!("expected write, got {other:?}"),
        }
        assert!(matches!(&trace[1], FaultEvent::Sync { file } if file == "f"));
        match &trace[2] {
            FaultEvent::Write(w) => {
                assert_eq!(w.pre_image, b"aa", "pre-image captures overwritten bytes");
            }
            other => panic!("expected write, got {other:?}"),
        }
    }

    #[test]
    fn torn_write_event_records_partial_landing() {
        let mem = MemStore::new();
        let store = FaultStore::new(mem.clone(), FaultPlan::crash_after_bytes(6));
        store.plan().set_tracing(true);
        let f = store.open("f", true).unwrap();
        f.write_at(0, b"aaaa").unwrap();
        assert!(f.write_at(4, b"bbbb").is_err());
        let trace = store.plan().take_trace();
        match &trace[1] {
            FaultEvent::Write(w) => assert_eq!((w.len, w.written), (4, 2)),
            other => panic!("expected write, got {other:?}"),
        }
    }

    #[test]
    fn bit_flip_tamper_changes_exactly_one_written_byte() {
        let mem = MemStore::new();
        let store = FaultStore::new(mem.clone(), FaultPlan::unlimited());
        store.plan().set_tracing(true);
        store
            .open("f", true)
            .unwrap()
            .write_at(0, &[7u8; 32])
            .unwrap();
        let trace = store.plan().take_trace();
        let receipt = apply_tamper(&mem, &trace, &TamperMode::BitFlip { pick: 11 })
            .unwrap()
            .expect("applicable");
        assert!(receipt.changed);
        let raw = mem.raw("f").unwrap();
        assert_eq!(raw.iter().filter(|&&b| b != 7).count(), 1);
    }

    #[test]
    fn rollback_tamper_restores_an_earlier_file_state() {
        let mem = MemStore::new();
        let store = FaultStore::new(mem.clone(), FaultPlan::unlimited());
        store.plan().set_tracing(true);
        let f = store.open("f", true).unwrap();
        f.write_at(0, b"version-one").unwrap();
        f.write_at(0, b"version-TWO-longer").unwrap();
        let trace = store.plan().take_trace();
        let receipt = apply_tamper(&mem, &trace, &TamperMode::Rollback { pick: 0 })
            .unwrap()
            .expect("applicable");
        assert!(receipt.changed);
        assert_eq!(mem.raw("f").unwrap(), b"version-one");
    }

    #[test]
    fn block_swap_tamper_swaps_two_spans() {
        let mem = MemStore::new();
        let store = FaultStore::new(mem.clone(), FaultPlan::unlimited());
        store.plan().set_tracing(true);
        let f = store.open("f", true).unwrap();
        f.write_at(0, &[1u8; 8]).unwrap();
        f.write_at(8, &[2u8; 8]).unwrap();
        let trace = store.plan().take_trace();
        let receipt = apply_tamper(
            &mem,
            &trace,
            &TamperMode::BlockSwap {
                pick_a: 0,
                pick_b: 8,
                block: 4,
            },
        )
        .unwrap()
        .expect("applicable");
        assert!(receipt.changed);
        let raw = mem.raw("f").unwrap();
        assert_eq!(raw.iter().filter(|&&b| b == 2).count(), 8);
        assert!(
            raw[..8].contains(&2),
            "a block of 2s moved into the first span"
        );
    }
}
