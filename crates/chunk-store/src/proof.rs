//! Proof-carrying reads: deferred construction of [`tdb_proof`] proofs.
//!
//! A proven read ([`ChunkStore::read_proven`](crate::ChunkStore::read_proven),
//! [`ChunkStore::proven_at_snapshot`](crate::ChunkStore::proven_at_snapshot))
//! returns a [`Proven<T>`]: the value plus a [`ProofBookmark`] — an `Arc`
//! of the pinned snapshot root, the chunk's leaf digests, and the counter
//! value observed at the pin. **No proof is built at read time**; the read
//! path pays only the bookmark. Calling [`Proven::prove`] later extracts
//! the Merkle path from the frozen root and mints the attestation and
//! content tags — all without touching the store lock, so proofs stay
//! stable (and cheap) under concurrent commits and cleaner relocation: the
//! frozen root's canonical hashes depend only on chunk *content*, never on
//! where the cleaner moved a record.

use std::sync::Arc;

use tdb_crypto::{sha256, Digest};
use tdb_proof::tree::{self, Attestation, ChunkOutcome, ChunkProof, ShardBinding};

use crate::crypto_ctx::CryptoCtx;
use crate::error::{ChunkStoreError, Result};
use crate::ids::ChunkId;
use crate::map;
use crate::snapshot::SnapCore;
use crate::stats::SharedStats;

/// Hook installed by a store with several shards: minted at [`Proven::prove`] time,
/// it produces the root-of-roots [`tdb_proof::EpochRecord`] (under the
/// combiner's current state) spliced into the proof as a [`ShardBinding`].
pub(crate) type ShardHook = Arc<dyn Fn() -> Result<ShardBinding> + Send + Sync>;

/// What the read observed about the chunk, recorded in the bookmark.
#[derive(Clone)]
pub(crate) enum BookmarkOutcome {
    /// The chunk was present; both digests were captured at read time.
    Included {
        sealed_hash: Digest,
        plain_hash: Digest,
    },
    /// The chunk was absent at the pinned snapshot.
    Absent,
}

/// Everything needed to build a [`ChunkProof`] later, captured at read
/// time for (almost) free: a clone of the snapshot `Arc`, the digests the
/// read verified anyway, and the counter value pinned with the snapshot.
pub struct ProofBookmark {
    pub(crate) ctx: Arc<CryptoCtx>,
    pub(crate) core: Arc<SnapCore>,
    /// Id the proof path is walked with (shard-local on a sharded store).
    pub(crate) cid: ChunkId,
    /// Id the proof speaks about (global; equals `cid` when unsharded).
    pub(crate) proof_id: u64,
    pub(crate) outcome: BookmarkOutcome,
    pub(crate) shard: Option<ShardHook>,
    pub(crate) stats: SharedStats,
}

impl ProofBookmark {
    /// Build the proof from the pinned snapshot.
    pub fn prove(&self) -> Result<ChunkProof> {
        let mac = self.ctx.proof_mac();
        let (path, _) =
            map::proof_path_in_root(&self.core.root, self.core.depth, self.core.fanout, self.cid);
        let root_hash = path[0].hash();
        let depth = self.core.depth;
        let fanout = self.core.fanout as u32;
        let attestation = Attestation {
            counter_value: self.core.counter_value,
            commit_seq: self.core.seq,
            depth,
            fanout,
            tag: tree::attestation_tag(
                mac,
                self.core.counter_value,
                self.core.seq,
                depth,
                fanout,
                &root_hash,
            ),
        };
        let outcome = match &self.outcome {
            BookmarkOutcome::Included {
                sealed_hash,
                plain_hash,
            } => ChunkOutcome::Included {
                sealed_hash: *sealed_hash,
                plain_hash: *plain_hash,
                content_tag: tree::content_tag(mac, self.proof_id, sealed_hash, plain_hash),
            },
            BookmarkOutcome::Absent => ChunkOutcome::Absent,
        };
        let shard = match &self.shard {
            Some(hook) => Some(hook()?),
            None => None,
        };
        self.stats.proofs.minted.add(1);
        Ok(ChunkProof {
            chunk_id: self.proof_id,
            outcome,
            path,
            attestation,
            shard,
        })
    }
}

/// A value read from the store together with the deferred ability to prove
/// it: call [`Proven::prove`] to obtain the [`ChunkProof`] a standalone
/// [`tdb_proof::Verifier`] checks against a [`tdb_proof::TrustAnchor`].
pub struct Proven<T> {
    /// The value the read produced (`None` inside an `Option` means the
    /// chunk was absent — provable absence, not an error).
    pub value: T,
    pub(crate) bookmark: ProofBookmark,
}

impl<T> Proven<T> {
    /// Commit sequence of the snapshot the value (and proof) pin.
    pub fn commit_seq(&self) -> u64 {
        self.bookmark.core.seq
    }

    /// Counter value observed when the snapshot was pinned.
    pub fn counter_value(&self) -> u64 {
        self.bookmark.core.counter_value
    }

    /// Build the proof for this read. Pure function of the pinned
    /// snapshot: never touches the store lock, so it can run long after
    /// the read, concurrently with commits and cleaning.
    pub fn prove(&self) -> Result<ChunkProof> {
        self.bookmark.prove()
    }

    /// Transform the carried value while keeping the bookmark (used by
    /// the object layer to decode chunk bytes into typed objects).
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Proven<U> {
        Proven {
            value: f(self.value),
            bookmark: self.bookmark,
        }
    }
}

/// Reject proof requests on a store without security: there is no MAC key
/// to mint attestations under, so a "proof" would be meaningless bytes.
pub(crate) fn require_full_security(mode: crate::config::SecurityMode) -> Result<()> {
    if mode != crate::config::SecurityMode::Full {
        return Err(ChunkStoreError::ConfigMismatch(
            "proof-carrying reads require SecurityMode::Full \
             (a store created with SecurityMode::Off has no MAC keys to attest under)"
                .into(),
        ));
    }
    Ok(())
}

/// Digest of a plaintext value as bound by proof content tags.
pub(crate) fn plain_digest(value: &[u8]) -> Digest {
    sha256(value)
}
