//! Canonical proof-tree hashing and chunk proofs.
//!
//! The chunk store's location map *is* the paper's Merkle tree: a radix
//! tree of fanout-`F` nodes whose leaves hold the SHA-256 digest of each
//! chunk's sealed record bytes. This module defines a **canonical,
//! store-independent hashing** of that tree — over `(slot, digest)` pairs
//! only, with no locations, disk layout, or encryption involved — so a
//! verifier can recompute it from a proof path alone:
//!
//! * leaf node: `H("tdb.proof.leaf" || n || (slot_le || digest)*)`
//! * inner node: `H("tdb.proof.inner" || n || (slot_le || child_digest)*)`
//!
//! entries sorted by slot, absent slots skipped. A chunk id's path from
//! root to leaf is fixed by the radix decomposition ([`slot_at`]), so
//! binding each node's slot indices binds the id.
//!
//! The root is bound to the trusted one-way counter by an HMAC
//! [`Attestation`] minted by the engine (the key holder) at proof
//! construction time; sharded stores additionally splice the shard-local
//! root into the root-of-roots [`EpochRecord`]. An [`ChunkOutcome::Included`]
//! proof finally binds the *plaintext* the reader saw to the sealed leaf
//! digest via a content tag (the storage holds only ciphertext, so the
//! verifier cannot recompute the sealed hash from the value itself).

use tdb_crypto::{Digest, HmacSha256, Sha256};

/// Child-slot index of `id` at `level` (level 0 = leaf) in a fanout-`F`
/// radix tree. Mirrors the location map's decomposition exactly.
pub fn slot_at(fanout: u32, id: u64, level: u32) -> u32 {
    let f = fanout as u64;
    ((id / f.pow(level)) % f) as u32
}

/// Number of chunk ids addressable by a tree of `depth` levels (ids at or
/// beyond this are absent by construction).
pub fn capacity(fanout: u32, depth: u32) -> u128 {
    (fanout as u128).saturating_pow(depth)
}

/// One node on a proof path: every present `(slot, digest)` entry, sorted
/// by slot. For the deepest node of an inclusion proof the digest at the
/// chunk's slot is its sealed-record hash; everywhere else the digest at
/// the path slot must equal the canonical hash of the node below.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathNode {
    /// Whether this node is a leaf (hashed under the leaf domain).
    pub is_leaf: bool,
    /// Present entries, strictly ascending by slot.
    pub entries: Vec<(u32, Digest)>,
}

impl PathNode {
    /// Canonical hash of this node.
    pub fn hash(&self) -> Digest {
        hash_node(self.is_leaf, self.entries.iter().map(|(s, d)| (*s, d)))
    }

    /// Digest stored at `slot`, if present.
    pub fn digest_at(&self, slot: u32) -> Option<&Digest> {
        self.entries
            .binary_search_by_key(&slot, |(s, _)| *s)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Whether entries are strictly ascending by slot (canonical form).
    pub fn is_canonical(&self) -> bool {
        self.entries.windows(2).all(|w| w[0].0 < w[1].0)
    }
}

/// Canonical hash over `(slot, digest)` entries (must be sorted): domain
/// tag, entry count, then the `(slot_le || digest)` pairs.
pub fn hash_node<'a>(is_leaf: bool, entries: impl Iterator<Item = (u32, &'a Digest)>) -> Digest {
    let domain: &[u8] = if is_leaf {
        b"tdb.proof.leaf"
    } else {
        b"tdb.proof.inner"
    };
    let mut n: u32 = 0;
    let mut body = Vec::new();
    for (slot, d) in entries {
        body.extend_from_slice(&slot.to_le_bytes());
        body.extend_from_slice(d);
        n += 1;
    }
    let mut h = Sha256::new();
    h.update(domain);
    h.update(&n.to_le_bytes());
    h.update(&body);
    h.finalize()
}

/// What the proof claims about the chunk id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkOutcome {
    /// The chunk exists; the proof path carries its sealed-record hash and
    /// the content tag binds the plaintext the reader saw to it.
    Included {
        /// SHA-256 of the stored (sealed) record bytes — the leaf digest.
        sealed_hash: Digest,
        /// SHA-256 of the plaintext chunk value.
        plain_hash: Digest,
        /// `HMAC(key, "tdb.proof.content" || id || sealed_hash || plain_hash)`.
        content_tag: Digest,
    },
    /// The chunk does not exist as of the proven snapshot.
    Absent,
}

/// Engine attestation binding a proof root to the trusted counter:
/// `HMAC(key, "tdb.proof.att" || counter || commit_seq || depth || fanout || root)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attestation {
    /// One-way counter value observed when the snapshot was pinned (the
    /// shard's *virtual* counter on a sharded store).
    pub counter_value: u64,
    /// Commit sequence of the pinned snapshot.
    pub commit_seq: u64,
    /// Depth of the attested tree.
    pub depth: u32,
    /// Fanout of the attested tree.
    pub fanout: u32,
    /// The HMAC tag.
    pub tag: Digest,
}

/// The root-of-roots record a sharded proof splices its shard-local path
/// into: the per-shard virtual counter vector bound to the hardware
/// counter under the root-of-roots key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord {
    /// Hardware one-way counter value the record was minted under.
    pub hw_counter: u64,
    /// Open generation of the sharded store.
    pub epoch: u32,
    /// Virtual counter value per shard.
    pub counters: Vec<u64>,
    /// `HMAC(rr_key, "tdb.proof.epoch" || hw || epoch || counters)`.
    pub tag: Digest,
}

/// Shard context of a proof from a sharded store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardBinding {
    /// Shard the chunk routes to.
    pub shard: u32,
    /// Total shard count (fixes the routing function).
    pub shards: u32,
    /// The root-of-roots epoch record minted at proof time.
    pub epoch: EpochRecord,
}

/// A self-contained inclusion or non-membership proof for one chunk id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkProof {
    /// The (global) chunk id the proof speaks about.
    pub chunk_id: u64,
    /// Inclusion with value binding, or absence.
    pub outcome: ChunkOutcome,
    /// Root-first path; `path[0]` is the tree root. An absence proof may
    /// stop early at the node where the id's slot is empty; an
    /// out-of-capacity id carries the bare root.
    pub path: Vec<PathNode>,
    /// Root-to-counter binding.
    pub attestation: Attestation,
    /// Present iff the proof comes from a sharded (N > 1) store.
    pub shard: Option<ShardBinding>,
}

impl ChunkProof {
    /// Serialized size in bytes (what a client would transfer).
    pub fn encoded_len(&self) -> usize {
        crate::wire::encode_chunk_proof(self).len()
    }
}

/// Mint the attestation tag over a proof root. `mac` is a keyed template
/// (`HmacSha256::new(key)`), cloned per tag, so a minter or verifier that
/// tags repeatedly under one key derives the HMAC pads once.
pub fn attestation_tag(
    mac: &HmacSha256,
    counter_value: u64,
    commit_seq: u64,
    depth: u32,
    fanout: u32,
    root: &Digest,
) -> Digest {
    let mut m = mac.clone();
    m.update(b"tdb.proof.att");
    m.update(&counter_value.to_le_bytes());
    m.update(&commit_seq.to_le_bytes());
    m.update(&depth.to_le_bytes());
    m.update(&fanout.to_le_bytes());
    m.update(root);
    m.finalize()
}

/// Mint the content tag binding a plaintext to its sealed leaf digest.
pub fn content_tag(
    mac: &HmacSha256,
    chunk_id: u64,
    sealed_hash: &Digest,
    plain_hash: &Digest,
) -> Digest {
    let mut m = mac.clone();
    m.update(b"tdb.proof.content");
    m.update(&chunk_id.to_le_bytes());
    m.update(sealed_hash);
    m.update(plain_hash);
    m.finalize()
}

/// Mint the epoch-record tag binding virtual counters to the hardware one,
/// under the root-of-roots key's template.
pub fn epoch_tag(rr_mac: &HmacSha256, hw_counter: u64, epoch: u32, counters: &[u64]) -> Digest {
    let mut m = rr_mac.clone();
    m.update(b"tdb.proof.epoch");
    m.update(&hw_counter.to_le_bytes());
    m.update(&epoch.to_le_bytes());
    m.update(&(counters.len() as u32).to_le_bytes());
    for c in counters {
        m.update(&c.to_le_bytes());
    }
    m.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_decomposition_matches_radix() {
        // id 123 in fanout 10: digits 3, 2, 1.
        assert_eq!(slot_at(10, 123, 0), 3);
        assert_eq!(slot_at(10, 123, 1), 2);
        assert_eq!(slot_at(10, 123, 2), 1);
        assert_eq!(slot_at(10, 123, 3), 0);
        assert_eq!(capacity(10, 3), 1000);
        assert_eq!(capacity(64, 0), 1);
    }

    #[test]
    fn node_hash_binds_structure() {
        let d1 = [1u8; 32];
        let d2 = [2u8; 32];
        let leaf = PathNode {
            is_leaf: true,
            entries: vec![(0, d1), (5, d2)],
        };
        let inner = PathNode {
            is_leaf: false,
            entries: vec![(0, d1), (5, d2)],
        };
        assert_ne!(leaf.hash(), inner.hash(), "domain separation");
        let moved = PathNode {
            is_leaf: true,
            entries: vec![(0, d1), (6, d2)],
        };
        assert_ne!(leaf.hash(), moved.hash(), "slots bound");
        let dropped = PathNode {
            is_leaf: true,
            entries: vec![(0, d1)],
        };
        assert_ne!(leaf.hash(), dropped.hash(), "presence bound");
        assert_eq!(leaf.digest_at(5), Some(&d2));
        assert_eq!(leaf.digest_at(3), None);
        assert!(leaf.is_canonical());
        assert!(!PathNode {
            is_leaf: true,
            entries: vec![(5, d1), (0, d2)],
        }
        .is_canonical());
    }

    #[test]
    fn tags_are_input_sensitive() {
        let key = HmacSha256::new(&[9u8; 32]);
        let root = [3u8; 32];
        let t = attestation_tag(&key, 7, 11, 2, 64, &root);
        assert_ne!(t, attestation_tag(&key, 8, 11, 2, 64, &root));
        assert_ne!(t, attestation_tag(&key, 7, 12, 2, 64, &root));
        assert_ne!(t, attestation_tag(&key, 7, 11, 3, 64, &root));
        assert_ne!(
            t,
            attestation_tag(&HmacSha256::new(&[8u8; 32]), 7, 11, 2, 64, &root)
        );
        let c = content_tag(&key, 1, &root, &root);
        assert_ne!(c, content_tag(&key, 2, &root, &root));
        let e = epoch_tag(&key, 5, 1, &[1, 2]);
        assert_ne!(e, epoch_tag(&key, 5, 1, &[2, 1]));
        assert_ne!(e, epoch_tag(&key, 5, 2, &[1, 2]));
    }
}
