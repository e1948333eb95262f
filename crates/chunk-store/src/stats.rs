//! Operation counters and commit-path phase timings.
//!
//! The paper's evaluation reports quantities like bytes written per
//! transaction (§7.4: "Berkeley DB writes approximately twice as much data
//! per transaction as TDB") and cleaning overhead versus utilization
//! (Figure 11). These counters make the same quantities observable here.
//!
//! Counters live in a per-store [`tdb_obs::Registry`] (names prefixed
//! `chunk.`); the registry is their only read path — snapshot it through
//! [`ChunkStore::obs_snapshot`](crate::ChunkStore::obs_snapshot) and read a
//! counter with [`tdb_obs::RegistrySnapshot::counter`]. The registry is
//! created alongside `Stats` and shared downward to the
//! object/collection/backup layers via
//! [`ChunkStore::obs`](crate::ChunkStore::obs).

use std::sync::Arc;

use tdb_obs::{Counter, Histogram, Registry};

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// Live counters shared across chunk store components. Each field is
        /// a [`Counter`] registered as `chunk.<field>` in the store's
        /// observability registry.
        pub struct Stats {
            registry: Arc<Registry>,
            /// Commit-path / maintenance phase timings.
            pub phases: Phases,
            /// Proof-carrying read counters (`proof.*`).
            pub proofs: ProofCounters,
            $( $(#[$doc])* pub $name: Counter, )*
        }

        impl Stats {
            /// Create stats registered in `registry` under the `chunk.`
            /// prefix.
            pub fn with_registry(registry: Arc<Registry>) -> Stats {
                Stats {
                    phases: Phases::with_registry(&registry),
                    proofs: ProofCounters::with_registry(&registry),
                    $( $name: registry.counter(concat!("chunk.", stringify!($name))), )*
                    registry,
                }
            }
        }
    };
}

counters! {
    /// Total bytes appended to the log (records incl. headers).
    bytes_appended,
    /// Bytes appended for chunk-data records only.
    chunk_bytes_appended,
    /// Bytes appended for map pages.
    map_bytes_appended,
    /// Bytes appended for commit records.
    commit_bytes_appended,
    /// Records appended.
    records_appended,
    /// Commits (durable + nondurable), excluding internal empty ones.
    commits,
    /// Durable commits.
    durable_commits,
    /// Checkpoints taken.
    checkpoints,
    /// `sync` calls issued to the untrusted store.
    syncs,
    /// Anchor records written.
    anchor_writes,
    /// One-way counter increments.
    counter_increments,
    /// Chunk reads served (from the log, not the write batch).
    chunk_reads,
    /// Bytes of records read back.
    bytes_read,
    /// Cleaner passes executed.
    cleaner_passes,
    /// Bytes the cleaner copied to relocate live data.
    cleaner_bytes_copied,
    /// Segments the cleaner freed.
    cleaner_segments_freed,
    /// Segments allocated beyond the initial set (growth).
    segments_grown,
    /// Free segment files dropped to shrink the database.
    segments_dropped,
    /// Bounded relocation slices executed by cleaning passes.
    cleaner_slices,
    /// Relocation slices cut short by out-of-space on a fixed-size log;
    /// the pass still closes (checkpoint + frees) instead of aborting.
    cleaner_move_stalls,
    /// Times the maintenance thread woke to a kick (or shutdown).
    maintenance_wakeups,
    /// Maintenance-thread rounds that returned an error (the shard's
    /// `diag_state` keeps the last one's round and error text).
    maintenance_errors,
    /// Maintenance rounds that ended with no free segment despite garbage
    /// existing (victims all pinned/tail, or the pass cap was hit).
    maintenance_gave_up,
    /// Commits that blocked on the maintenance backpressure path because
    /// the log was out of segments.
    maintenance_stalls,
    /// Diagnostic dumps emitted by the stall watchdog.
    watchdog_dumps,
}

impl Default for Stats {
    fn default() -> Self {
        Stats::with_registry(Arc::new(Registry::new()))
    }
}

impl Stats {
    /// The observability registry these counters live in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

/// Counters for the proof-carrying read path, registered under the
/// `proof.` prefix (they describe the trust layer, not the log; the
/// benchmark's `proof_lookup` workload reports them as `proof.*`).
pub struct ProofCounters {
    /// Proven reads served (bookmark captured).
    pub proven_reads: Counter,
    /// Chunk proofs actually constructed (deferred `prove()` calls).
    pub minted: Counter,
    /// Keyed (index-level) attestations minted.
    pub keyed_minted: Counter,
}

impl ProofCounters {
    fn with_registry(registry: &Registry) -> ProofCounters {
        ProofCounters {
            proven_reads: registry.counter("proof.proven_reads"),
            minted: registry.counter("proof.minted"),
            keyed_minted: registry.counter("proof.keyed_minted"),
        }
    }
}

/// Phase-span histograms (values in nanoseconds). Commit phases are
/// accumulated per commit: e.g. one `commit.seal` sample is the total crypto
/// time across every record sealed by that commit, so per-commit phase
/// samples sum to (approximately) the `commit.total` sample.
pub struct Phases {
    /// Chunk/commit-record payload encoding time per commit.
    pub serialize: Histogram,
    /// Encrypt + MAC (and record hashing) time per commit.
    pub seal: Histogram,
    /// Log append time per commit.
    pub append: Histogram,
    /// Location-map batch apply time per commit (in-memory tree update).
    pub map: Histogram,
    /// `sync` time per *commit-path* durable anchor round.
    pub sync: Histogram,
    /// Anchor record write time per commit-path durable anchor round.
    pub anchor: Histogram,
    /// One-way counter increment time per commit-path durable anchor round.
    pub counter: Histogram,
    /// Batched bottom-up Merkle rehash time per leader anchor round (the
    /// group's dirty root-to-leaf paths hashed in one pass).
    pub rehash: Histogram,
    /// `sync` time per maintenance-path (checkpoint/cleaner) anchor round.
    pub maint_sync: Histogram,
    /// Anchor write time per maintenance-path anchor round.
    pub maint_anchor: Histogram,
    /// Counter increment time per maintenance-path anchor round.
    pub maint_counter: Histogram,
    /// Batched Merkle memo pass deferred to the maintenance thread
    /// (consecutive leader rounds coalesce onto the latest frozen root).
    pub maint_rehash: Histogram,
    /// End-to-end durable commit time (staging seal through group
    /// durability).
    pub commit_total: Histogram,
    /// Commits made durable per group-commit anchor round (a value of 1
    /// means the leader anchored alone; >1 means followers amortized the
    /// sync/anchor/counter round).
    pub group_size: Histogram,
    /// Time a durable committer spends between finishing its log append
    /// and its group becoming durable (leader: its own anchor round;
    /// follower: waiting on the leader).
    pub group_wait: Histogram,
    /// Checkpoint duration.
    pub checkpoint: Histogram,
    /// Cleaner pass duration.
    pub cleaner_pass: Histogram,
    /// One bounded relocation slice of a cleaning pass (store lock held).
    pub cleaner_slice: Histogram,
    /// Time a committer spent stalled waiting for maintenance to free a
    /// segment (the out-of-space backpressure path).
    pub stall: Histogram,
    /// Anchor scan + validation time during recovery.
    pub recovery_anchor: Histogram,
    /// Location-map load + Merkle validation time during recovery.
    pub recovery_map_load: Histogram,
    /// Residual-log replay time during recovery.
    pub recovery_replay: Histogram,
    /// Total open/recovery time.
    pub recovery_total: Histogram,
}

impl Phases {
    fn with_registry(registry: &Registry) -> Phases {
        Phases {
            serialize: registry.histogram("commit.serialize"),
            seal: registry.histogram("commit.seal"),
            append: registry.histogram("commit.append"),
            map: registry.histogram("commit.map"),
            sync: registry.histogram("commit.sync"),
            anchor: registry.histogram("commit.anchor"),
            counter: registry.histogram("commit.counter"),
            rehash: registry.histogram("commit.rehash"),
            maint_sync: registry.histogram("maint.sync"),
            maint_anchor: registry.histogram("maint.anchor"),
            maint_counter: registry.histogram("maint.counter"),
            maint_rehash: registry.histogram("maint.rehash"),
            commit_total: registry.histogram("commit.total"),
            group_size: registry.histogram("commit.group_size"),
            group_wait: registry.histogram("commit.group_wait"),
            checkpoint: registry.histogram("checkpoint.total"),
            cleaner_pass: registry.histogram("cleaner.pass"),
            cleaner_slice: registry.histogram("cleaner.slice"),
            stall: registry.histogram("commit.stall"),
            recovery_anchor: registry.histogram("recovery.anchor"),
            recovery_map_load: registry.histogram("recovery.map_load"),
            recovery_replay: registry.histogram("recovery.replay"),
            recovery_total: registry.histogram("recovery.total"),
        }
    }
}

/// Shared handle.
pub type SharedStats = Arc<Stats>;

/// Convenience: add to a counter.
pub(crate) fn add(counter: &Counter, n: u64) {
    counter.add(n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_registered_under_the_chunk_prefix() {
        let s = Stats::default();
        add(&s.commits, 3);
        add(&s.bytes_read, 42);
        let reg = s.registry().snapshot();
        assert_eq!(reg.counter("chunk.commits"), 3);
        assert_eq!(reg.counter("chunk.bytes_read"), 42);
        assert_eq!(reg.counter("chunk.maintenance_errors"), 0);
    }
}
