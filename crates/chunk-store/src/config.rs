//! Chunk store configuration.

/// Whether the store runs with full DRM protections or as a plain
/// log-structured store.
///
/// The paper evaluates both: **TDB-S** (hashing + encryption + one-way
/// counter) and **TDB** (none of those), Figure 10. `Off` keeps the same
/// on-disk structure but skips encryption, per-chunk hashing, anchor MACs
/// (replaced by a plain hash against accidental corruption), and counter
/// increments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SecurityMode {
    /// No crypto: plain storage, accidental-corruption checks only.
    Off,
    /// Full protection: AES-128-CBC encryption, SHA-256 Merkle tree,
    /// HMAC'd anchor bound to the one-way counter.
    Full,
}

impl SecurityMode {
    /// Byte tag persisted in the anchor so an open with the wrong mode is
    /// rejected instead of misinterpreting ciphertext.
    pub(crate) fn tag(self) -> u8 {
        match self {
            SecurityMode::Off => 0,
            SecurityMode::Full => 1,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(SecurityMode::Off),
            1 => Some(SecurityMode::Full),
            _ => None,
        }
    }
}

/// Tuning knobs for the chunk store.
#[derive(Clone, Debug)]
pub struct ChunkStoreConfig {
    /// Size of each log segment file in bytes. Smaller segments give the
    /// cleaner finer granularity; larger segments amortize file overhead.
    pub segment_size: u32,
    /// Fanout of the hierarchical location map (entries per map page).
    pub map_fanout: usize,
    /// Security mode (see [`SecurityMode`]).
    pub security: SecurityMode,
    /// Maximum database utilization: the maximal fraction of the log that
    /// may hold live data before the store grows instead of cleaning
    /// (paper §3.2.1 and the Figure 11 sweep). Default 0.60 as in §7.3.
    pub max_utilization: f64,
    /// Checkpoint the location map once the residual log exceeds this many
    /// bytes. Checkpoints are also taken by the cleaner and can be forced
    /// with [`ChunkStore::checkpoint`](crate::ChunkStore::checkpoint).
    pub checkpoint_threshold: u64,
    /// Maximum segments the cleaner relocates per triggered pass; bounds
    /// per-commit cleaning latency (§3.2.1: "bound the per-commit overhead
    /// of cleaning").
    pub cleaner_batch: usize,
    /// Number of segments to allocate when creating a fresh database.
    pub initial_segments: u32,
    /// If false, the store never grows beyond its current segments and
    /// returns `OutOfSpace` when cleaning cannot free enough; used by tests
    /// to exercise the space-pressure paths deterministically.
    pub allow_growth: bool,
    /// Run checkpointing and cleaning on a dedicated maintenance thread.
    /// Commits only kick the thread (watermark checks are cheap); the
    /// thread relocates in bounded slices, releasing the store lock
    /// between slices so committers interleave. When false, the
    /// committing thread runs the same maintenance round itself — every
    /// checkpoint and clean then happens at a deterministic point, which
    /// the unit tests and the torture sweep need.
    pub background_maintenance: bool,
    /// Low watermark: the maintenance thread starts cleaning when the
    /// free-segment count falls below this (and utilization permits).
    pub clean_low_free: usize,
    /// High watermark: cleaning passes continue until the free-segment
    /// count reaches this (or no garbage remains).
    pub clean_high_free: usize,
    /// Chunks relocated per maintenance slice. Bounds how long the store
    /// lock is held by one slice of a background cleaning pass.
    pub maintenance_slice_chunks: usize,
    /// Number of independent shards the object space is partitioned
    /// across (see [`ChunkStore`](crate::ChunkStore)). Each shard gets its
    /// own log, location map, and group-commit coordinator; with more than
    /// one, a root-of-roots record binds the per-shard anchors to the
    /// single one-way counter. 1 (the default) is the single-log layout,
    /// bit-for-bit.
    pub shards: usize,
}

impl Default for ChunkStoreConfig {
    fn default() -> Self {
        ChunkStoreConfig {
            segment_size: 256 * 1024,
            map_fanout: 64,
            security: SecurityMode::Full,
            max_utilization: 0.60,
            checkpoint_threshold: 32 * 1024 * 1024,
            cleaner_batch: 32,
            initial_segments: 4,
            allow_growth: true,
            background_maintenance: true,
            clean_low_free: 1,
            clean_high_free: 2,
            maintenance_slice_chunks: 64,
            shards: 1,
        }
    }
}

impl ChunkStoreConfig {
    /// A small configuration for unit tests: tiny segments so cleaning,
    /// growth, and checkpointing trigger quickly.
    pub fn small_for_tests() -> Self {
        ChunkStoreConfig {
            segment_size: 4 * 1024,
            map_fanout: 8,
            checkpoint_threshold: 16 * 1024,
            initial_segments: 2,
            cleaner_batch: 4,
            // Committer-driven maintenance: unit tests (and the torture
            // sweep) need every checkpoint/clean at a deterministic point.
            background_maintenance: false,
            ..Default::default()
        }
    }

    /// Free segments permanently reserved for maintenance traffic: on a
    /// fixed-size log, ordinary commits may not take the last free segment
    /// (the cleaner needs it to relocate into and the checkpoint to write
    /// map pages into — see `SegmentManager::maintenance_mode`). Zero when
    /// the log can grow, because growth makes the reserve unnecessary.
    pub(crate) fn maintenance_reserve(&self) -> usize {
        usize::from(!self.allow_growth)
    }

    /// [`clean_low_free`](Self::clean_low_free) shifted up by the
    /// maintenance reserve: commits on a fixed-size log block one segment
    /// earlier, so cleaning must also start one segment higher to preserve
    /// the configured headroom.
    pub(crate) fn effective_low_free(&self) -> usize {
        self.clean_low_free + self.maintenance_reserve()
    }

    /// [`clean_high_free`](Self::clean_high_free) shifted up by the
    /// maintenance reserve (see [`effective_low_free`](Self::effective_low_free)).
    pub(crate) fn effective_high_free(&self) -> usize {
        self.clean_high_free + self.maintenance_reserve()
    }

    /// Validate invariants; called by the store constructors.
    pub fn validate(&self) -> Result<(), String> {
        if self.segment_size < 4096 {
            return Err("segment_size must be at least 4096 bytes".into());
        }
        if !(2..=4096).contains(&self.map_fanout) {
            return Err("map_fanout must be between 2 and 4096".into());
        }
        if !(0.05..=0.95).contains(&self.max_utilization) {
            return Err("max_utilization must be within [0.05, 0.95]".into());
        }
        if self.initial_segments < 2 {
            return Err("initial_segments must be at least 2".into());
        }
        if self.cleaner_batch == 0 {
            // The cleaner would never copy a partial segment, and a
            // fixed-size log would report a false `OutOfSpace`.
            return Err("cleaner_batch must be at least 1".into());
        }
        if self.clean_high_free < self.clean_low_free {
            return Err("clean_high_free must be at least clean_low_free".into());
        }
        if self.maintenance_slice_chunks == 0 {
            return Err("maintenance_slice_chunks must be at least 1".into());
        }
        if !(1..=64).contains(&self.shards) {
            return Err("shards must be between 1 and 64".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ChunkStoreConfig::default().validate().unwrap();
        ChunkStoreConfig::small_for_tests().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = ChunkStoreConfig {
            segment_size: 100,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ChunkStoreConfig {
            map_fanout: 1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ChunkStoreConfig {
            max_utilization: 0.99,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ChunkStoreConfig {
            initial_segments: 1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ChunkStoreConfig {
            cleaner_batch: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ChunkStoreConfig {
            clean_low_free: 4,
            clean_high_free: 2,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ChunkStoreConfig {
            maintenance_slice_chunks: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        for shards in [0usize, 65] {
            let c = ChunkStoreConfig {
                shards,
                ..Default::default()
            };
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn security_mode_tags_roundtrip() {
        for mode in [SecurityMode::Off, SecurityMode::Full] {
            assert_eq!(SecurityMode::from_tag(mode.tag()), Some(mode));
        }
        assert_eq!(SecurityMode::from_tag(9), None);
    }
}
