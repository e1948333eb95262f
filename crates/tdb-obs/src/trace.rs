//! Flight recorder: a lock-free, fixed-capacity MPSC ring of compact binary
//! trace events.
//!
//! Counters and histograms (the [`Registry`](crate::Registry)) answer "how
//! much / how fast"; the flight recorder answers *"what happened, in what
//! order, on which thread"* — the causality view needed to debug liveness
//! failures across the store's concurrent actors (group commit, background
//! maintenance, snapshot pinning, cross-shard two-phase commits).
//!
//! Design:
//!
//! * Each event is one cache-line-aligned slot of 7 used u64 words (plus
//!   one padding word): a slot sequence word, a monotonic timestamp (ns
//!   since the recorder's epoch), a packed meta word (thread id « 32 |
//!   layer « 8 | kind), the transaction/xid, two payload words, and an XOR
//!   checksum. Exactly 64 bytes per slot, so recording an event touches
//!   exactly one line; the default 16 384-slot ring is 1 MiB — small
//!   enough to stay LLC-resident instead of streaming through DRAM (the
//!   hot-path cost difference is ~2× per event on TPC-B).
//! * Writers claim a slot with one `fetch_add` on the head cursor and
//!   publish with a per-slot seqlock: the sequence word is zeroed before the
//!   payload is written and set to `index + 1` (release) after. Readers
//!   validate the sequence word before and after reading the payload *and*
//!   check the XOR checksum, so a torn slot (reader racing a wrapping
//!   writer) is discarded rather than decoded.
//! * The ring wraps: old events are overwritten, never blocked on. Emission
//!   is wait-free (one fetch_add + eight single-line stores).
//! * Recording is gated like span timing: on unless `TDB_OBS=off`, with an
//!   explicit `TDB_TRACE=on|off` override and a runtime switch
//!   ([`set_trace_enabled`]). Capacity comes from `TDB_TRACE_CAP` (slots,
//!   rounded up to a power of two) at first use.
//!
//! [`TraceSnapshot`] decodes the live ring into per-thread and
//! per-transaction timelines with text and JSON exporters; diagnostic dumps
//! (see [`diag`](crate::diag)) embed it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;

// ---------------------------------------------------------------------------
// Event vocabulary
// ---------------------------------------------------------------------------

/// Which subsystem emitted an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceLayer {
    /// Chunk-store commit path (append, group commit, anchor rounds).
    Chunk = 0,
    /// Background maintenance (kicks, cleaning slices, checkpoints, frees).
    Maint = 1,
    /// Object store (lock manager, snapshot pins).
    Object = 2,
    /// Sharded store (cross-shard two-phase commits, witness ring, redo).
    Shard = 3,
    /// Application / test / bench marks.
    App = 4,
}

impl TraceLayer {
    fn from_u8(v: u8) -> Option<TraceLayer> {
        Some(match v {
            0 => TraceLayer::Chunk,
            1 => TraceLayer::Maint,
            2 => TraceLayer::Object,
            3 => TraceLayer::Shard,
            4 => TraceLayer::App,
            _ => return None,
        })
    }

    /// Short stable name (used by the exporters).
    pub fn name(self) -> &'static str {
        match self {
            TraceLayer::Chunk => "chunk",
            TraceLayer::Maint => "maint",
            TraceLayer::Object => "object",
            TraceLayer::Shard => "shard",
            TraceLayer::App => "app",
        }
    }
}

macro_rules! event_kinds {
    ($($(#[$doc:meta])* $variant:ident = $val:expr => $name:expr),* $(,)?) => {
        /// What happened. The payload words `a`/`b` are kind-specific and
        /// documented per variant.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum TraceKind {
            $( $(#[$doc])* $variant = $val, )*
        }

        impl TraceKind {
            fn from_u8(v: u8) -> Option<TraceKind> {
                match v {
                    $( $val => Some(TraceKind::$variant), )*
                    _ => None,
                }
            }

            /// Short stable name (used by the exporters).
            pub fn name(self) -> &'static str {
                match self {
                    $( TraceKind::$variant => $name, )*
                }
            }
        }
    };
}

event_kinds! {
    /// A commit batch started appending. `a` = op count, `b` = 1 if durable.
    CommitBegin = 1 => "commit.begin",
    /// A commit finished (durable or not). `a` = commit seq.
    CommitEnd = 2 => "commit.end",
    /// A durable committer became the group-commit leader. `a` = covered seq.
    GroupLeader = 3 => "group.leader",
    /// A durable committer parked behind an active leader. `a` = its
    /// commit seq. Uncontended commits lead immediately and never emit this.
    GroupFollower = 4 => "group.follower",
    /// The leader published group durability. `a` = covered seq, `b` = group size.
    GroupPublish = 5 => "group.publish",
    /// A follower woke with its seq durable. `a` = durable seq.
    GroupWake = 6 => "group.wake",
    /// An anchor record was written. `a` = anchor seq, `b` = covered commit seq.
    AnchorRound = 7 => "anchor.round",
    /// The one-way counter was incremented. `a` = new counter value.
    CounterInc = 8 => "counter.inc",
    /// A committer hit out-of-space and entered the stall path. `a` = free segments.
    StallEnter = 9 => "stall.enter",
    /// A stalled committer observed progress and woke. `a` = free epoch, `b` = free segments.
    StallWake = 10 => "stall.wake",
    /// A stalled committer retried its append. `a` = waits so far.
    StallRetry = 11 => "stall.retry",
    /// A stalled committer gave up (true out-of-space). `a` = waits, `b` = free segments.
    StallGiveUp = 12 => "stall.give_up",
    /// Maintenance was kicked. `a` = free segments at kick time.
    MaintKick = 13 => "maint.kick",
    /// A maintenance round started. `a` = round number.
    MaintRound = 14 => "maint.round",
    /// A maintenance round finished. `a` = round number, `b` = segments freed.
    MaintRoundEnd = 15 => "maint.round_end",
    /// One bounded relocation slice ran. `a` = chunks moved, `b` = segment.
    MaintSlice = 16 => "maint.slice",
    /// A checkpoint started. `a` = residual bytes.
    CheckpointBegin = 17 => "checkpoint.begin",
    /// A checkpoint finished. `a` = commit seq it anchored.
    CheckpointEnd = 18 => "checkpoint.end",
    /// A segment was freed. `a` = segment id, `b` = free segments after.
    SegFree = 19 => "seg.free",
    /// The watchdog wrote a diagnostic dump. `a` = stalled-op count.
    WatchdogDump = 20 => "watchdog.dump",
    /// A transaction began waiting for an object lock. `a` = object id hash, `b` = mode (0 shared, 1 exclusive).
    LockWait = 21 => "lock.wait",
    /// An object lock was granted after a wait. `a` = object id hash, `b` = mode.
    LockGrant = 22 => "lock.grant",
    /// A lock wait timed out on contention. `a` = object id hash.
    LockTimeout = 23 => "lock.timeout",
    /// A lock wait was broken as a deadlock victim. `a` = object id hash.
    LockDeadlock = 24 => "lock.deadlock",
    /// A read transaction pinned a snapshot. `a` = snapshot commit seq.
    SnapPin = 25 => "snap.pin",
    /// A read transaction released its snapshot. `a` = snapshot commit seq.
    SnapUnpin = 26 => "snap.unpin",
    /// Cross-shard phase A (coordination record; the commit point). `a` = shard count, `b` = coordinator shard.
    XPhaseA = 27 => "xshard.phase_a",
    /// Cross-shard phase B participant append. `a` = participant shard.
    XPhaseB = 28 => "xshard.phase_b",
    /// A witness-ring entry was appended. `a` = participant shard.
    XWitness = 29 => "xshard.witness",
    /// Cross-shard redo applied during recovery. `a` = participant shard.
    XRedo = 30 => "xshard.redo",
    /// Free-form mark for tests and benches.
    Mark = 31 => "mark",
    /// A maintenance round failed with a store error (round keeps
    /// retrying on later kicks). `a` = round number, `b` = free segments.
    MaintError = 32 => "maint.error",
    /// A free segment's file was deleted to shrink the database. `a` =
    /// segment id, `b` = free segments after.
    SegDrop = 33 => "seg.drop",
}

// ---------------------------------------------------------------------------
// Gating
// ---------------------------------------------------------------------------

/// Tri-state: 0 = uninitialised, 1 = enabled, 2 = disabled.
static TRACE_ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether event recording is enabled. Defaults to the span-timing gate
/// ([`enabled`](crate::enabled), i.e. `TDB_OBS`); the `TDB_TRACE`
/// environment variable (`on`/`off`) overrides it, and
/// [`set_trace_enabled`] overrides both.
#[inline]
pub fn trace_enabled() -> bool {
    match TRACE_ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = match std::env::var("TDB_TRACE").as_deref() {
                Ok("off") | Ok("0") | Ok("false") => false,
                Ok("on") | Ok("1") | Ok("true") => true,
                _ => crate::enabled(),
            };
            TRACE_ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Turn event recording on or off at runtime (process-wide).
pub fn set_trace_enabled(on: bool) {
    TRACE_ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Thread ids
// ---------------------------------------------------------------------------

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TRACE_TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// This thread's small stable trace id (assigned on first use, starting
/// at 1). Distinct from the OS thread id; dense so dumps stay readable.
pub fn trace_tid() -> u32 {
    TRACE_TID.with(|t| *t)
}

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

const WORDS: usize = 8; // 7 used + 1 pad: exactly one 64-byte cache line
const W_SEQ: usize = 0;
const W_TS: usize = 1;
const W_META: usize = 2;
const W_XID: usize = 3;
const W_A: usize = 4;
const W_B: usize = 5;
const W_CHECK: usize = 6;

/// One ring slot, aligned so an event never straddles cache lines: the
/// writer's eight stores and a reader's seven loads each touch one line.
#[repr(align(64))]
struct Slot([AtomicU64; WORDS]);

/// Salt so an all-zero slot never passes the checksum.
const CHECK_SALT: u64 = 0x7d0b_5eed_0b5e_7ace;

fn checksum(seq: u64, ts: u64, meta: u64, xid: u64, a: u64, b: u64) -> u64 {
    seq ^ ts.rotate_left(1)
        ^ meta.rotate_left(2)
        ^ xid.rotate_left(3)
        ^ a.rotate_left(4)
        ^ b.rotate_left(5)
        ^ CHECK_SALT
}

/// The flight-recorder ring. One global instance serves the whole process
/// (see [`recorder`]); tests can build private rings with
/// [`TraceRecorder::with_capacity`].
pub struct TraceRecorder {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
    epoch: Instant,
    wall_base_unix_ns: u128,
}

impl TraceRecorder {
    /// Build a recorder with `capacity` slots (rounded up to a power of two,
    /// clamped to `[64, 2^22]`).
    pub fn with_capacity(capacity: usize) -> TraceRecorder {
        let cap = capacity.clamp(64, 1 << 22).next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, || Slot(std::array::from_fn(|_| AtomicU64::new(0))));
        TraceRecorder {
            slots: slots.into_boxed_slice(),
            mask: (cap as u64) - 1,
            head: AtomicU64::new(0),
            epoch: Instant::now(),
            wall_base_unix_ns: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0),
        }
    }

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        (self.mask + 1) as usize
    }

    /// Total events ever recorded (monotonic; exceeds [`Self::capacity`]
    /// once the ring has wrapped).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Current head cursor — pass to [`Self::snapshot_since`] to read only
    /// events emitted after this point.
    pub fn cursor(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Nanoseconds since this recorder's epoch (the monotonic event clock).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record one event. Wait-free: one `fetch_add` plus eight relaxed
    /// stores; wraps over the oldest slot when the ring is full.
    #[inline]
    pub fn record(&self, layer: TraceLayer, kind: TraceKind, xid: u64, a: u64, b: u64) {
        let ts = self.now_ns();
        let tid = trace_tid();
        let meta = ((tid as u64) << 32) | ((layer as u8 as u64) << 8) | kind as u8 as u64;
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let seq = idx + 1;
        let w = &self.slots[(idx & self.mask) as usize].0;
        // Per-slot seqlock: invalidate, write payload, publish. A reader
        // racing this writer sees seq 0 / a stale seq / a checksum mismatch
        // and skips the slot.
        w[W_SEQ].store(0, Ordering::Release);
        w[W_TS].store(ts, Ordering::Relaxed);
        w[W_META].store(meta, Ordering::Relaxed);
        w[W_XID].store(xid, Ordering::Relaxed);
        w[W_A].store(a, Ordering::Relaxed);
        w[W_B].store(b, Ordering::Relaxed);
        w[W_CHECK].store(checksum(seq, ts, meta, xid, a, b), Ordering::Relaxed);
        w[W_SEQ].store(seq, Ordering::Release);
    }

    /// Decode every currently-readable event (oldest surviving first).
    pub fn snapshot(&self) -> TraceSnapshot {
        self.snapshot_since(0)
    }

    /// Decode events with ring index ≥ `cursor` (see [`Self::cursor`]).
    /// Slots that are mid-write or already overwritten are skipped, so a
    /// snapshot taken while writers are live is internally consistent:
    /// every decoded event is exactly as its writer published it.
    pub fn snapshot_since(&self, cursor: u64) -> TraceSnapshot {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.mask + 1;
        let start = head.saturating_sub(cap).max(cursor);
        let mut events = Vec::with_capacity((head - start).min(cap) as usize);
        for idx in start..head {
            let w = &self.slots[(idx & self.mask) as usize].0;
            let expect = idx + 1;
            if w[W_SEQ].load(Ordering::Acquire) != expect {
                continue; // overwritten by a lapping writer, or mid-write
            }
            let ts = w[W_TS].load(Ordering::Relaxed);
            let meta = w[W_META].load(Ordering::Relaxed);
            let xid = w[W_XID].load(Ordering::Relaxed);
            let a = w[W_A].load(Ordering::Relaxed);
            let b = w[W_B].load(Ordering::Relaxed);
            let check = w[W_CHECK].load(Ordering::Relaxed);
            if check != checksum(expect, ts, meta, xid, a, b)
                || w[W_SEQ].load(Ordering::Acquire) != expect
            {
                continue; // torn: a writer wrapped onto this slot mid-read
            }
            let kind = match TraceKind::from_u8((meta & 0xff) as u8) {
                Some(k) => k,
                None => continue,
            };
            let layer = match TraceLayer::from_u8(((meta >> 8) & 0xff) as u8) {
                Some(l) => l,
                None => continue,
            };
            events.push(TraceEvent {
                seq: idx,
                ts_ns: ts,
                tid: (meta >> 32) as u32,
                layer,
                kind,
                xid,
                a,
                b,
            });
        }
        events.sort_by_key(|e| (e.ts_ns, e.seq));
        TraceSnapshot {
            events,
            capacity: cap,
            recorded: head,
            wall_base_unix_ns: self.wall_base_unix_ns,
        }
    }
}

/// The process-global flight recorder. Capacity comes from `TDB_TRACE_CAP`
/// (slots; default 16 384 = 1 MiB — small enough to stay cache-resident
/// on the hot path; raise it for longer history windows) the first time
/// it is touched.
pub fn recorder() -> &'static TraceRecorder {
    static GLOBAL: OnceLock<TraceRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let cap = std::env::var("TDB_TRACE_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16_384usize);
        TraceRecorder::with_capacity(cap)
    })
}

/// Record one event into the global recorder, if recording is enabled.
/// The single call sites across the workspace go through this; it is a
/// no-op costing one relaxed load when tracing is off.
#[inline]
pub fn emit(layer: TraceLayer, kind: TraceKind, xid: u64, a: u64, b: u64) {
    if trace_enabled() {
        recorder().record(layer, kind, xid, a, b);
    }
}

// ---------------------------------------------------------------------------
// Decoded events / snapshot
// ---------------------------------------------------------------------------

/// One decoded trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global emission index (monotonic across the whole recording).
    pub seq: u64,
    /// Nanoseconds since the recorder's epoch.
    pub ts_ns: u64,
    /// Emitting thread's trace id (see [`trace_tid`]).
    pub tid: u32,
    /// Emitting subsystem.
    pub layer: TraceLayer,
    /// What happened.
    pub kind: TraceKind,
    /// Transaction / cross-shard sequence id (0 when not applicable).
    pub xid: u64,
    /// Kind-specific payload.
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
}

impl TraceEvent {
    fn line(&self) -> String {
        let mut s = format!(
            "{:>14.6}ms t{:<3} {:<6} {:<16}",
            self.ts_ns as f64 / 1e6,
            self.tid,
            self.layer.name(),
            self.kind.name(),
        );
        if self.xid != 0 {
            s.push_str(&format!(" xid={}", self.xid));
        }
        s.push_str(&format!(" a={} b={}", self.a, self.b));
        s
    }

    fn to_json(self) -> Json {
        Json::object([
            ("seq", Json::from(self.seq)),
            ("ts_ns", Json::from(self.ts_ns)),
            ("tid", Json::from(self.tid)),
            ("layer", Json::from(self.layer.name())),
            ("kind", Json::from(self.kind.name())),
            ("xid", Json::from(self.xid)),
            ("a", Json::from(self.a)),
            ("b", Json::from(self.b)),
        ])
    }
}

/// A decoded, time-ordered view of the ring with timeline reconstruction
/// and exporters.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// Events, ordered by timestamp (ties by emission index).
    pub events: Vec<TraceEvent>,
    /// Ring capacity at snapshot time.
    pub capacity: u64,
    /// Total events ever recorded (events `recorded - events.len()` were
    /// overwritten or torn).
    pub recorded: u64,
    /// Unix wall-clock nanoseconds corresponding to trace time 0 (best
    /// effort; 0 if the system clock was unavailable).
    pub wall_base_unix_ns: u128,
}

impl TraceSnapshot {
    /// Per-thread timelines (trace tid → its events, time-ordered).
    pub fn per_thread(&self) -> BTreeMap<u32, Vec<&TraceEvent>> {
        let mut map: BTreeMap<u32, Vec<&TraceEvent>> = BTreeMap::new();
        for e in &self.events {
            map.entry(e.tid).or_default().push(e);
        }
        map
    }

    /// Per-transaction timelines (xid → its events, time-ordered; events
    /// with xid 0 are omitted).
    pub fn per_txn(&self) -> BTreeMap<u64, Vec<&TraceEvent>> {
        let mut map: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
        for e in &self.events {
            if e.xid != 0 {
                map.entry(e.xid).or_default().push(e);
            }
        }
        map
    }

    /// The most recent event on each thread — the "where is everybody"
    /// table a stall dump leads with.
    pub fn last_event_per_thread(&self) -> BTreeMap<u32, &TraceEvent> {
        let mut map: BTreeMap<u32, &TraceEvent> = BTreeMap::new();
        for e in &self.events {
            map.insert(e.tid, e); // events are time-ordered
        }
        map
    }

    /// Human-readable timeline (one line per event, then the per-thread
    /// last-event table).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events decoded ({} recorded, capacity {})",
            self.events.len(),
            self.recorded,
            self.capacity
        );
        for e in &self.events {
            let _ = writeln!(out, "  {}", e.line());
        }
        let last = self.last_event_per_thread();
        if !last.is_empty() {
            out.push_str("last event per thread:\n");
            for (tid, e) in last {
                let _ = writeln!(out, "  t{tid:<3} {}", e.line());
            }
        }
        out
    }

    /// JSON export: `{capacity, recorded, decoded, events: [...],
    /// last_event_per_thread: {tid: event}}`.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("capacity", Json::from(self.capacity)),
            ("recorded", Json::from(self.recorded)),
            ("decoded", Json::from(self.events.len())),
            (
                "wall_base_unix_ns",
                Json::from(self.wall_base_unix_ns as f64),
            ),
            (
                "events",
                Json::array(self.events.iter().map(|e| e.to_json())),
            ),
            (
                "last_event_per_thread",
                Json::Obj(
                    self.last_event_per_thread()
                        .into_iter()
                        .map(|(tid, e)| (format!("t{tid}"), e.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_roundtrip_and_wraparound() {
        let r = TraceRecorder::with_capacity(64);
        for i in 0..200u64 {
            r.record(TraceLayer::App, TraceKind::Mark, i, i * 2, i * 3);
        }
        let snap = r.snapshot();
        // Exactly the last `capacity` events survive, in order.
        assert_eq!(snap.events.len(), 64);
        assert_eq!(snap.recorded, 200);
        for (j, e) in snap.events.iter().enumerate() {
            let i = 136 + j as u64;
            assert_eq!(e.seq, i);
            assert_eq!(e.xid, i);
            assert_eq!(e.a, i * 2);
            assert_eq!(e.b, i * 3);
            assert_eq!(e.kind, TraceKind::Mark);
            assert_eq!(e.layer, TraceLayer::App);
        }
    }

    #[test]
    fn snapshot_since_cursor() {
        let r = TraceRecorder::with_capacity(64);
        r.record(TraceLayer::App, TraceKind::Mark, 1, 0, 0);
        let cur = r.cursor();
        r.record(TraceLayer::App, TraceKind::Mark, 2, 0, 0);
        let snap = r.snapshot_since(cur);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].xid, 2);
    }

    #[test]
    fn timelines() {
        let r = TraceRecorder::with_capacity(64);
        r.record(TraceLayer::Chunk, TraceKind::CommitBegin, 7, 1, 1);
        r.record(TraceLayer::Chunk, TraceKind::CommitEnd, 7, 9, 0);
        let snap = r.snapshot();
        let txns = snap.per_txn();
        assert_eq!(txns[&7].len(), 2);
        let tid = snap.events[0].tid;
        assert_eq!(
            snap.last_event_per_thread()[&tid].kind,
            TraceKind::CommitEnd
        );
        assert!(snap.to_text().contains("commit.end"));
        let json = snap.to_json().render();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.get("decoded").and_then(|d| d.as_u64()), Some(2));
    }
}
