//! Transactional lock manager: strict two-phase shared/exclusive object
//! locks with a deadlock-breaking timeout (paper §4.1, §4.2.3).
//!
//! The object store "provides transactional isolation using shared/
//! exclusive locks over objects". There is no granular locking and no
//! deadlock graph — "a blocked call raises an exception after a timeout
//! interval, thus breaking potential deadlocks", which is the right
//! complexity trade-off for a single-user DRM workload.
//!
//! The manager has its own mutex + condvar, separate from the object
//! store's state mutex, reproducing §4.2.3's rule that the state mutex is
//! released while a thread waits on a transactional lock.

use crate::error::{ObjectStoreError, Result};
use crate::ObjectId;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};
use tdb_obs::{Counter, Histogram, Registry, Stopwatch};

/// Lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

/// Identifier of a lock owner (a transaction).
pub type TxnId = u64;

/// Number of independent lock-table shards. Objects hash to a shard; all
/// state for one object (holders, waiters, doomed marks) lives in exactly
/// one shard, so the hot acquire/release paths of transactions touching
/// different objects never contend on a common mutex. 16 shards is plenty
/// for the thread counts this store targets (the paper's workload is a
/// handful of concurrent client transactions).
const SHARD_COUNT: usize = 16;

/// Shard index for an object id (Fibonacci hash; ids are often sequential,
/// so a plain modulo would stripe neighbouring — frequently co-accessed —
/// objects onto the same shard).
fn shard_of(oid: u64) -> usize {
    (oid.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize
}

#[derive(Default)]
struct LockTable {
    /// Per-object holders and their mode.
    locks: HashMap<u64, HashMap<TxnId, LockMode>>,
    /// Which object each blocked transaction is currently waiting for.
    /// Maintained by `acquire`'s slow path; used for wait-for-graph cycle
    /// detection when a wait times out. A transaction waits on the shard
    /// of the object it is blocked on, so this map is per-shard too.
    waiting: HashMap<TxnId, u64>,
    /// Blocked transactions wounded by an older rival upgrader; they must
    /// fail their wait immediately instead of sleeping out the timeout
    /// (see `acquire`'s upgrade-deadlock fast path). Upgrade rivals by
    /// definition block on the same object, hence the same shard.
    doomed: HashSet<TxnId>,
}

impl LockTable {
    /// Whether `txn` may acquire `mode` on `oid` right now.
    fn grantable(&self, oid: u64, txn: TxnId, mode: LockMode) -> bool {
        let Some(holders) = self.locks.get(&oid) else {
            return true;
        };
        match mode {
            LockMode::Shared => holders
                .iter()
                .all(|(t, m)| *t == txn || *m == LockMode::Shared),
            LockMode::Exclusive => holders.keys().all(|t| *t == txn),
        }
    }

    /// Grant the lock; returns true when this was a shared→exclusive
    /// upgrade of an already-held lock.
    fn grant(&mut self, oid: u64, txn: TxnId, mode: LockMode) -> bool {
        let holders = self.locks.entry(oid).or_default();
        let prior = holders.get(&txn).copied();
        let slot = holders.entry(txn).or_insert(mode);
        // Upgrades stick; downgrades don't (strict 2PL keeps the strongest
        // mode until release).
        if mode == LockMode::Exclusive {
            *slot = LockMode::Exclusive;
        }
        prior == Some(LockMode::Shared) && mode == LockMode::Exclusive
    }
}

/// The lock manager's registry instruments.
///
/// Timeouts are counted distinctly: `timeouts_deadlock` when the timed-out
/// wait was part of a wait-for cycle (the timeout broke a deadlock, §4.1),
/// `timeouts_contention` when the holder simply never released in time.
struct LockCounters {
    /// Lock acquisitions requested (fast or slow path, granted or not).
    acquires: Counter,
    /// Acquisitions that had to block.
    waits: Counter,
    /// Successful shared→exclusive upgrades of an already-held lock.
    upgrades: Counter,
    timeouts_contention: Counter,
    timeouts_deadlock: Counter,
    wait_time: Histogram,
}

impl LockCounters {
    fn with_registry(registry: &Registry) -> LockCounters {
        LockCounters {
            acquires: registry.counter("lock.acquires"),
            waits: registry.counter("lock.waits"),
            upgrades: registry.counter("lock.upgrades"),
            timeouts_contention: registry.counter("lock.timeouts_contention"),
            timeouts_deadlock: registry.counter("lock.timeouts_deadlock"),
            wait_time: registry.histogram("lock.wait"),
        }
    }
}

/// One lock-table shard: its slice of the table plus the condvar its
/// blocked transactions sleep on.
#[derive(Default)]
struct Shard {
    table: Mutex<LockTable>,
    cond: Condvar,
}

/// The lock manager.
pub struct LockManager {
    shards: Vec<Shard>,
    obs: LockCounters,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LockManager {
    /// Fresh manager with detached (unregistered) counters.
    pub fn new() -> Self {
        Self::with_registry(&Registry::new())
    }

    /// Fresh manager whose counters live in `registry` under the `lock.`
    /// prefix (`lock.acquires`, `lock.waits`, `lock.upgrades`,
    /// `lock.timeouts_contention`, `lock.timeouts_deadlock`, and the
    /// `lock.wait` wait-time histogram).
    pub fn with_registry(registry: &Registry) -> Self {
        LockManager {
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            obs: LockCounters::with_registry(registry),
        }
    }

    /// Whether `me` (blocked on `oid`) was part of a wait-for cycle: walk
    /// from the holders of `oid` through the `waiting` edges over a
    /// point-in-time snapshot of every shard; reaching `me` again means the
    /// timeout broke a genuine deadlock rather than plain contention. Runs
    /// only after a timeout (cold path), without any shard mutex held by
    /// the caller — shards are snapshotted one at a time, so the graph is
    /// mildly racy, exactly as graph-free timeout classification has to be.
    fn was_deadlocked(&self, me: TxnId, oid: u64) -> bool {
        let mut holders: HashMap<u64, Vec<TxnId>> = HashMap::new();
        let mut waiting: HashMap<TxnId, u64> = HashMap::new();
        for shard in &self.shards {
            let table = shard.table.lock();
            for (o, h) in &table.locks {
                holders.insert(*o, h.keys().copied().collect());
            }
            waiting.extend(table.waiting.iter().map(|(t, o)| (*t, *o)));
        }
        let mut stack: Vec<TxnId> = match holders.get(&oid) {
            Some(h) => h.iter().copied().filter(|t| *t != me).collect(),
            None => return false,
        };
        let mut seen: HashSet<TxnId> = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == me {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next_oid) = waiting.get(&t) {
                if let Some(h) = holders.get(next_oid) {
                    stack.extend(h.iter().copied());
                }
            }
        }
        false
    }

    /// Acquire `mode` on `oid` for `txn`, waiting up to `timeout`.
    /// Re-acquiring a held mode (or a weaker one) is a no-op; holding
    /// `Shared` and requesting `Exclusive` upgrades (waiting for other
    /// readers to drain).
    pub fn acquire(
        &self,
        txn: TxnId,
        oid: ObjectId,
        mode: LockMode,
        timeout: Duration,
    ) -> Result<()> {
        self.obs.acquires.inc();
        let deadline = Instant::now() + timeout;
        let shard = &self.shards[shard_of(oid.0)];
        let mut table = shard.table.lock();
        if table.grantable(oid.0, txn, mode) {
            if table.grant(oid.0, txn, mode) {
                self.obs.upgrades.inc();
            }
            return Ok(());
        }

        self.obs.waits.inc();
        tdb_obs::trace::emit(
            tdb_obs::TraceLayer::Object,
            tdb_obs::TraceKind::LockWait,
            txn,
            oid.0,
            mode as u64,
        );
        let mut sw = Stopwatch::start();
        table.waiting.insert(txn, oid.0);

        // Upgrade-deadlock fast path. Two transactions that both hold
        // `Shared` on `oid` and both request `Exclusive` can never drain
        // each other: that cycle is certain the moment the second upgrader
        // registers, so waiting out the timeout (and retrying into the same
        // cycle, in lockstep) would livelock. Resolve it wound-wait style
        // by transaction id: the older upgrader wins, every younger rival
        // fails its acquire immediately (counted as a deadlock timeout).
        let upgrading = mode == LockMode::Exclusive
            && table
                .locks
                .get(&oid.0)
                .is_some_and(|h| h.get(&txn) == Some(&LockMode::Shared));
        if upgrading {
            let rivals: Vec<TxnId> = table.locks[&oid.0]
                .keys()
                .filter(|t| **t != txn && table.waiting.get(t) == Some(&oid.0))
                .copied()
                .collect();
            if rivals.iter().any(|t| *t < txn) {
                table.waiting.remove(&txn);
                sw.lap_into(&self.obs.wait_time);
                self.obs.timeouts_deadlock.inc();
                tdb_obs::trace::emit(
                    tdb_obs::TraceLayer::Object,
                    tdb_obs::TraceKind::LockDeadlock,
                    txn,
                    oid.0,
                    2,
                );
                return Err(ObjectStoreError::Deadlock(oid));
            }
            if !rivals.is_empty() {
                table.doomed.extend(rivals);
                shard.cond.notify_all();
            }
        }

        enum Wait {
            Granted,
            Doomed,
            TimedOut,
        }
        let outcome = loop {
            if table.doomed.remove(&txn) {
                break Wait::Doomed;
            }
            if shard.cond.wait_until(&mut table, deadline).timed_out() {
                // One final check: a release may have raced the timeout.
                if table.grantable(oid.0, txn, mode) {
                    break Wait::Granted;
                }
                break Wait::TimedOut;
            }
            if table.grantable(oid.0, txn, mode) {
                break Wait::Granted;
            }
        };
        if !matches!(outcome, Wait::TimedOut) {
            table.waiting.remove(&txn);
        }
        table.doomed.remove(&txn);
        sw.lap_into(&self.obs.wait_time);
        use tdb_obs::{TraceKind, TraceLayer};
        match outcome {
            Wait::Granted => {
                if table.grant(oid.0, txn, mode) {
                    self.obs.upgrades.inc();
                }
                tdb_obs::trace::emit(TraceLayer::Object, TraceKind::LockGrant, txn, oid.0, 0);
                Ok(())
            }
            Wait::Doomed => {
                self.obs.timeouts_deadlock.inc();
                tdb_obs::trace::emit(TraceLayer::Object, TraceKind::LockDeadlock, txn, oid.0, 0);
                Err(ObjectStoreError::Deadlock(oid))
            }
            Wait::TimedOut => {
                // Classify without the shard mutex: the wait-for graph may
                // span shards, and snapshotting them all while holding one
                // would order shard locks against each other. Our own wait
                // edge stays registered until then: the waiters of one cycle
                // time out together, and if each dropped its edge before
                // classifying, each could miss the other's and both would
                // read as plain contention.
                drop(table);
                let deadlocked = self.was_deadlocked(txn, oid.0);
                shard.table.lock().waiting.remove(&txn);
                if deadlocked {
                    self.obs.timeouts_deadlock.inc();
                    tdb_obs::trace::emit(
                        TraceLayer::Object,
                        TraceKind::LockDeadlock,
                        txn,
                        oid.0,
                        1,
                    );
                    Err(ObjectStoreError::Deadlock(oid))
                } else {
                    self.obs.timeouts_contention.inc();
                    tdb_obs::trace::emit(TraceLayer::Object, TraceKind::LockTimeout, txn, oid.0, 0);
                    Err(ObjectStoreError::LockTimeout(oid))
                }
            }
        }
    }

    /// Release every lock `txn` holds (strict 2PL: all at end of
    /// transaction, never earlier).
    pub fn release_all(&self, txn: TxnId) {
        for shard in &self.shards {
            let mut table = shard.table.lock();
            let mut released = false;
            table.locks.retain(|_, holders| {
                released |= holders.remove(&txn).is_some();
                !holders.is_empty()
            });
            drop(table);
            // A waiter can only be unblocked by a lock this release dropped
            // (doomed wakeups are notified at doom time), so untouched
            // shards are not woken.
            if released {
                shard.cond.notify_all();
            }
        }
    }

    /// Mode `txn` holds on `oid`, if any (test/diagnostic aid).
    pub fn held(&self, txn: TxnId, oid: ObjectId) -> Option<LockMode> {
        self.shards[shard_of(oid.0)]
            .table
            .lock()
            .locks
            .get(&oid.0)
            .and_then(|h| h.get(&txn))
            .copied()
    }

    /// Number of objects currently locked (diagnostics).
    pub fn locked_objects(&self) -> usize {
        self.shards.iter().map(|s| s.table.lock().locks.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    const T: Duration = Duration::from_millis(50);
    const LONG: Duration = Duration::from_secs(5);

    fn oid(n: u64) -> ObjectId {
        crate::ChunkId(n)
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        lm.acquire(1, oid(9), LockMode::Shared, T).unwrap();
        lm.acquire(2, oid(9), LockMode::Shared, T).unwrap();
        assert_eq!(lm.held(1, oid(9)), Some(LockMode::Shared));
        assert_eq!(lm.held(2, oid(9)), Some(LockMode::Shared));
    }

    #[test]
    fn exclusive_excludes() {
        let lm = LockManager::new();
        lm.acquire(1, oid(9), LockMode::Exclusive, T).unwrap();
        assert!(matches!(
            lm.acquire(2, oid(9), LockMode::Shared, T),
            Err(ObjectStoreError::LockTimeout(_))
        ));
        assert!(matches!(
            lm.acquire(2, oid(9), LockMode::Exclusive, T),
            Err(ObjectStoreError::LockTimeout(_))
        ));
        // Different object is fine.
        lm.acquire(2, oid(10), LockMode::Exclusive, T).unwrap();
    }

    #[test]
    fn reacquire_and_upgrade() {
        let lm = LockManager::new();
        lm.acquire(1, oid(1), LockMode::Shared, T).unwrap();
        lm.acquire(1, oid(1), LockMode::Shared, T).unwrap();
        lm.acquire(1, oid(1), LockMode::Exclusive, T).unwrap(); // sole holder upgrade
        assert_eq!(lm.held(1, oid(1)), Some(LockMode::Exclusive));
        // Exclusive then shared request keeps exclusive.
        lm.acquire(1, oid(1), LockMode::Shared, T).unwrap();
        assert_eq!(lm.held(1, oid(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_blocked_by_other_reader() {
        let lm = LockManager::new();
        lm.acquire(1, oid(1), LockMode::Shared, T).unwrap();
        lm.acquire(2, oid(1), LockMode::Shared, T).unwrap();
        assert!(matches!(
            lm.acquire(1, oid(1), LockMode::Exclusive, T),
            Err(ObjectStoreError::LockTimeout(_))
        ));
    }

    #[test]
    fn release_wakes_waiters() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(1, oid(5), LockMode::Exclusive, T).unwrap();
        let lm2 = lm.clone();
        let waiter = std::thread::spawn(move || lm2.acquire(2, oid(5), LockMode::Exclusive, LONG));
        std::thread::sleep(Duration::from_millis(30));
        lm.release_all(1);
        waiter.join().unwrap().unwrap();
        assert_eq!(lm.held(2, oid(5)), Some(LockMode::Exclusive));
    }

    #[test]
    fn deadlock_broken_by_timeout() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(1, oid(1), LockMode::Exclusive, T).unwrap();
        lm.acquire(2, oid(2), LockMode::Exclusive, T).unwrap();
        let lm2 = lm.clone();
        let t2 = std::thread::spawn(move || lm2.acquire(2, oid(1), LockMode::Exclusive, T));
        // Txn 1 wants 2's object; classic cycle, one side must time out.
        let r1 = lm.acquire(1, oid(2), LockMode::Exclusive, T);
        let r2 = t2.join().unwrap();
        assert!(r1.is_err() || r2.is_err());
    }

    #[test]
    fn contention_timeout_counted_distinctly() {
        let reg = Registry::new();
        let lm = LockManager::with_registry(&reg);
        lm.acquire(1, oid(1), LockMode::Exclusive, T).unwrap();
        // Txn 1 is not waiting on anything: no cycle, plain contention.
        assert!(lm.acquire(2, oid(1), LockMode::Shared, T).is_err());
        let stats = reg.snapshot();
        assert_eq!(stats.counter("lock.timeouts_contention"), 1);
        assert_eq!(stats.counter("lock.timeouts_deadlock"), 0);
        assert_eq!(stats.counter("lock.waits"), 1);
        assert_eq!(stats.counter("lock.acquires"), 2);
    }

    #[test]
    fn deadlock_timeout_counted_distinctly() {
        let reg = Registry::new();
        let lm = Arc::new(LockManager::with_registry(&reg));
        lm.acquire(1, oid(1), LockMode::Exclusive, T).unwrap();
        lm.acquire(2, oid(2), LockMode::Exclusive, T).unwrap();
        // Txn 2 blocks on txn 1's object with a long timeout...
        let lm2 = lm.clone();
        let t2 = std::thread::spawn(move || lm2.acquire(2, oid(1), LockMode::Exclusive, LONG));
        std::thread::sleep(Duration::from_millis(30));
        // ... so when txn 1 blocks on txn 2's object and times out, the
        // wait-for graph has the cycle 1 → o2 → 2 → o1 → 1.
        assert!(lm.acquire(1, oid(2), LockMode::Exclusive, T).is_err());
        let stats = reg.snapshot();
        assert_eq!(stats.counter("lock.timeouts_deadlock"), 1);
        assert_eq!(stats.counter("lock.timeouts_contention"), 0);
        // Breaking the deadlock by releasing txn 1 lets txn 2 proceed.
        lm.release_all(1);
        t2.join().unwrap().unwrap();
    }

    #[test]
    fn upgrades_counted() {
        let reg = Registry::new();
        let lm = LockManager::with_registry(&reg);
        lm.acquire(1, oid(1), LockMode::Shared, T).unwrap();
        lm.acquire(1, oid(1), LockMode::Exclusive, T).unwrap();
        // Re-granting an exclusive lock is not another upgrade.
        lm.acquire(1, oid(1), LockMode::Exclusive, T).unwrap();
        assert_eq!(reg.snapshot().counter("lock.upgrades"), 1);
    }

    #[test]
    fn release_all_clears_table() {
        let lm = LockManager::new();
        lm.acquire(1, oid(1), LockMode::Shared, T).unwrap();
        lm.acquire(1, oid(2), LockMode::Exclusive, T).unwrap();
        assert_eq!(lm.locked_objects(), 2);
        lm.release_all(1);
        assert_eq!(lm.locked_objects(), 0);
        assert_eq!(lm.held(1, oid(1)), None);
    }

    #[test]
    fn contended_counter_serializes() {
        let lm = Arc::new(LockManager::new());
        let counter = Arc::new(Mutex::new(0u32));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let lm = lm.clone();
                let counter = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        lm.acquire(t, oid(0), LockMode::Exclusive, LONG).unwrap();
                        {
                            let mut c = counter.lock();
                            let v = *c;
                            std::thread::yield_now();
                            *c = v + 1;
                        }
                        lm.release_all(t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*counter.lock(), 400);
    }
}
