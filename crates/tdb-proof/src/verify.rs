//! The pure, store-independent proof verifier.
//!
//! A [`Verifier`] owns nothing but a [`TrustAnchor`] — the one-way counter
//! value the client trusts (obtained out of band, e.g. at provisioning or
//! from a previous verified interaction) and the MAC key material shared
//! with the engine. From that alone it checks:
//!
//! * **inclusion**: a [`ChunkProof`] whose path hashes chain from the
//!   sealed leaf digest to an attested root, whose attestation is bound to
//!   a counter value at least as fresh as the trusted one, and whose
//!   content tag binds the plaintext the reader saw to the sealed leaf;
//! * **non-membership**: the same path machinery ending at an empty slot
//!   (or an id beyond the attested tree's capacity), and for indexes a
//!   [`KeyedProof`] bracketing the missing key between adjacent leaves;
//! * **sharded splicing**: the shard-local root is accepted only through
//!   a root-of-roots [`EpochRecord`](crate::EpochRecord) whose hardware counter is fresh and
//!   whose virtual counter vector covers the shard attestation.
//!
//! Every failure is classified: forged or inconsistent bytes are
//! [`ProofError::Tamper`], stale counters/epochs are
//! [`ProofError::Replay`], and shape misuse (e.g. verifying an inclusion
//! proof without the value) is [`ProofError::Usage`].

use crate::keyed::{keyed_tag, KeyedCase, KeyedProof};
use crate::route;
use crate::tree::{
    attestation_tag, capacity, content_tag, epoch_tag, slot_at, ChunkOutcome, ChunkProof,
};
use tdb_crypto::{sha256, HmacSha256};

/// What a client must hold to verify proofs: the freshest counter value it
/// trusts plus the MAC key(s) the engine attests under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrustAnchor {
    /// The one-way counter value the client trusts (hardware counter; a
    /// proof attesting an older value is a replay).
    pub counter_value: u64,
    /// Key material matching the store's shape.
    pub keys: TrustKeys,
}

/// MAC keys by store shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrustKeys {
    /// Unsharded store: the single root MAC key.
    Single {
        /// MAC key proofs and attestations are minted under.
        root_mac_key: [u8; 32],
    },
    /// Sharded store: the root-of-roots key plus one key per shard.
    Sharded {
        /// Key of the root-of-roots epoch record.
        rr_mac_key: [u8; 32],
        /// Per-shard attestation keys, indexed by shard.
        shard_mac_keys: Vec<[u8; 32]>,
    },
}

impl TrustKeys {
    /// The key keyed (index-level) proofs are attested under: the single
    /// root key, or the root-of-roots key when sharded.
    pub fn keyed_mac_key(&self) -> &[u8; 32] {
        match self {
            TrustKeys::Single { root_mac_key } => root_mac_key,
            TrustKeys::Sharded { rr_mac_key, .. } => rr_mac_key,
        }
    }
}

/// Why a proof was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// The proof is forged, corrupted, or internally inconsistent.
    Tamper(String),
    /// The proof attests a counter value older than the trusted one.
    Replay {
        /// The client's trusted counter value.
        trusted: u64,
        /// The (older) value the proof attests.
        attested: u64,
    },
    /// The verification call itself is malformed (wrong anchor shape,
    /// missing value, ...).
    Usage(String),
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::Tamper(m) => write!(f, "proof tampered: {m}"),
            ProofError::Replay { trusted, attested } => write!(
                f,
                "proof replay: attests counter {attested}, but {trusted} is already trusted"
            ),
            ProofError::Usage(m) => write!(f, "proof usage error: {m}"),
        }
    }
}

impl std::error::Error for ProofError {}

fn tamper(m: impl Into<String>) -> ProofError {
    ProofError::Tamper(m.into())
}

/// The standalone verifier; see the [module docs](self).
pub struct Verifier {
    anchor: TrustAnchor,
}

impl Verifier {
    /// Build a verifier around the client's trust anchor.
    pub fn new(anchor: TrustAnchor) -> Verifier {
        Verifier { anchor }
    }

    /// The anchor this verifier trusts.
    pub fn anchor(&self) -> &TrustAnchor {
        &self.anchor
    }

    /// Verify a chunk proof. `value` must be `Some(plaintext)` for an
    /// inclusion proof and `None` for a non-membership proof.
    pub fn verify_chunk(&self, proof: &ChunkProof, value: Option<&[u8]>) -> Result<(), ProofError> {
        let att = &proof.attestation;
        // Resolve the attesting key, the local id, and counter freshness
        // by store shape.
        let (mac_key, local_id) = match (&self.anchor.keys, &proof.shard) {
            (TrustKeys::Single { root_mac_key }, None) => {
                if att.counter_value < self.anchor.counter_value {
                    return Err(ProofError::Replay {
                        trusted: self.anchor.counter_value,
                        attested: att.counter_value,
                    });
                }
                (root_mac_key, proof.chunk_id)
            }
            (
                TrustKeys::Sharded {
                    rr_mac_key,
                    shard_mac_keys,
                },
                Some(binding),
            ) => {
                let shards = binding.shards as usize;
                if shards != shard_mac_keys.len() || shards == 0 {
                    return Err(tamper("shard count does not match trust anchor"));
                }
                let e = &binding.epoch;
                if e.counters.len() != shards {
                    return Err(tamper("epoch counter vector length mismatch"));
                }
                if !tdb_crypto::ct_eq(
                    &epoch_tag(
                        &HmacSha256::new(rr_mac_key),
                        e.hw_counter,
                        e.epoch,
                        &e.counters,
                    ),
                    &e.tag,
                ) {
                    return Err(tamper("epoch record authentication failed"));
                }
                if e.hw_counter < self.anchor.counter_value {
                    return Err(ProofError::Replay {
                        trusted: self.anchor.counter_value,
                        attested: e.hw_counter,
                    });
                }
                let (idx, local) = route(shards, proof.chunk_id);
                if idx != binding.shard as usize {
                    return Err(tamper("chunk id routes to a different shard"));
                }
                // The shard attestation was minted at snapshot pin; the
                // epoch record (minted at prove time) must cover it. A
                // shard proof claiming a virtual counter the root-of-roots
                // never issued is spliced from elsewhere.
                if att.counter_value > e.counters[idx] {
                    return Err(tamper(
                        "shard attestation exceeds the epoch's counter vector",
                    ));
                }
                (&shard_mac_keys[idx], local)
            }
            _ => {
                return Err(ProofError::Usage(
                    "trust anchor shape does not match proof shape".into(),
                ))
            }
        };

        // Structural checks, then chain the path root-down.
        if proof.path.is_empty() {
            return Err(tamper("empty proof path"));
        }
        if att.fanout < 2 || att.depth == 0 {
            return Err(tamper("implausible tree geometry"));
        }
        if proof.path.len() > att.depth as usize {
            return Err(tamper("path longer than attested depth"));
        }
        for node in &proof.path {
            if !node.is_canonical() {
                return Err(tamper("path node entries not in canonical order"));
            }
        }
        let root_hash = proof.path[0].hash();
        let mac = HmacSha256::new(mac_key);
        if !tdb_crypto::ct_eq(
            &attestation_tag(
                &mac,
                att.counter_value,
                att.commit_seq,
                att.depth,
                att.fanout,
                &root_hash,
            ),
            &att.tag,
        ) {
            return Err(tamper("root attestation failed"));
        }

        if (local_id as u128) >= capacity(att.fanout, att.depth) {
            // Beyond the attested tree's capacity: absent by construction,
            // the bare attested root suffices.
            return match (&proof.outcome, value) {
                (ChunkOutcome::Absent, None) => Ok(()),
                (ChunkOutcome::Absent, Some(_)) => Err(ProofError::Usage(
                    "value supplied for a non-membership proof".into(),
                )),
                _ => Err(tamper("inclusion claimed beyond tree capacity")),
            };
        }

        for (i, node) in proof.path.iter().enumerate() {
            let is_last = i + 1 == proof.path.len();
            let expect_leaf = i as u32 == att.depth - 1;
            if node.is_leaf != expect_leaf {
                return Err(tamper("node kind does not match its depth"));
            }
            let slot = slot_at(att.fanout, local_id, att.depth - 1 - i as u32);
            match (node.digest_at(slot), is_last) {
                (Some(d), false) => {
                    if !tdb_crypto::ct_eq(d, &proof.path[i + 1].hash()) {
                        return Err(tamper("path link hash mismatch"));
                    }
                }
                (Some(d), true) => {
                    if !node.is_leaf {
                        return Err(tamper("path stops at a present inner slot"));
                    }
                    match &proof.outcome {
                        ChunkOutcome::Included { sealed_hash, .. } => {
                            if !tdb_crypto::ct_eq(d, sealed_hash) {
                                return Err(tamper("leaf digest does not match sealed hash"));
                            }
                        }
                        ChunkOutcome::Absent => {
                            return Err(tamper("absence claimed but the leaf slot is occupied"))
                        }
                    }
                }
                (None, true) => {
                    if let ChunkOutcome::Included { .. } = proof.outcome {
                        return Err(tamper("inclusion claimed but the path slot is empty"));
                    }
                }
                (None, false) => return Err(tamper("path continues past an empty slot")),
            }
        }

        // Bind the plaintext.
        match (&proof.outcome, value) {
            (
                ChunkOutcome::Included {
                    sealed_hash,
                    plain_hash,
                    content_tag: tag,
                },
                Some(v),
            ) => {
                if !tdb_crypto::ct_eq(&sha256(v), plain_hash) {
                    return Err(tamper("value does not match the proven plaintext hash"));
                }
                if !tdb_crypto::ct_eq(
                    &content_tag(&mac, proof.chunk_id, sealed_hash, plain_hash),
                    tag,
                ) {
                    return Err(tamper("content tag authentication failed"));
                }
                Ok(())
            }
            (ChunkOutcome::Absent, None) => Ok(()),
            (ChunkOutcome::Included { .. }, None) => Err(ProofError::Usage(
                "inclusion proof verified without its value".into(),
            )),
            (ChunkOutcome::Absent, Some(_)) => Err(ProofError::Usage(
                "value supplied for a non-membership proof".into(),
            )),
        }
    }

    /// Verify a keyed (index-level) proof. Returns the proven object ids
    /// for the queried range — empty for a verified non-membership proof.
    pub fn verify_keyed(&self, proof: &KeyedProof) -> Result<Vec<u64>, ProofError> {
        let key = HmacSha256::new(self.anchor.keys.keyed_mac_key());
        let att = &proof.attestation;
        if !tdb_crypto::ct_eq(
            &keyed_tag(
                &key,
                att.counter_value,
                att.commit_seq,
                &proof.scope,
                proof.total,
                &proof.root,
            ),
            &att.tag,
        ) {
            return Err(tamper("keyed root attestation failed"));
        }
        if att.counter_value < self.anchor.counter_value {
            return Err(ProofError::Replay {
                trusted: self.anchor.counter_value,
                attested: att.counter_value,
            });
        }
        if let Some(hi) = &proof.hi {
            if *hi < proof.lo {
                return Err(ProofError::Usage("inverted key range".into()));
            }
        }
        // Half-open range membership: `lo <= k < hi`, unbounded when
        // `hi` is `None`.
        let below_hi = |k: &[u8]| match &proof.hi {
            Some(hi) => k < hi.as_slice(),
            None => true,
        };
        let n = proof.total;
        let check_path = |p: &crate::keyed::KeyedPath| -> Result<(), ProofError> {
            match p.recompute_root(n) {
                Some(r) if tdb_crypto::ct_eq(&r, &proof.root) => Ok(()),
                _ => Err(tamper("keyed path does not reach the committed root")),
            }
        };
        match &proof.case {
            KeyedCase::Present {
                matches,
                left,
                right,
            } => {
                if matches.is_empty() {
                    return Err(tamper("present claim with no matches"));
                }
                for (k, p) in matches.iter().enumerate() {
                    check_path(p)?;
                    if k > 0 && p.index != matches[k - 1].index + 1 {
                        return Err(tamper("match indices are not consecutive"));
                    }
                    if p.entry.key < proof.lo || !below_hi(&p.entry.key) {
                        return Err(tamper("claimed match is outside the queried range"));
                    }
                }
                let first = matches[0].index;
                let last = matches[matches.len() - 1].index;
                match (first, left) {
                    (0, None) => {}
                    (f, Some(l)) if f > 0 => {
                        check_path(l)?;
                        if l.index != f - 1 {
                            return Err(tamper("left bracket is not adjacent"));
                        }
                        if l.entry.key >= proof.lo {
                            return Err(tamper("left bracket key inside the range"));
                        }
                    }
                    _ => return Err(tamper("missing or spurious left bracket")),
                }
                match (last, right) {
                    (l, None) if l + 1 == n => {}
                    (l, Some(r)) if l + 1 < n => {
                        check_path(r)?;
                        if r.index != l + 1 {
                            return Err(tamper("right bracket is not adjacent"));
                        }
                        if below_hi(&r.entry.key) {
                            return Err(tamper("right bracket key inside the range"));
                        }
                    }
                    _ => return Err(tamper("missing or spurious right bracket")),
                }
                Ok(matches.iter().map(|p| p.entry.id).collect())
            }
            KeyedCase::Absent { left, right } => {
                match (left, right) {
                    (None, None) => {
                        if n != 0 || !tdb_crypto::ct_eq(&proof.root, &crate::keyed::empty_root()) {
                            return Err(tamper("bare absence claim over a non-empty index"));
                        }
                    }
                    (Some(l), None) => {
                        check_path(l)?;
                        if l.index + 1 != n {
                            return Err(tamper("left bracket is not the last entry"));
                        }
                        if l.entry.key >= proof.lo {
                            return Err(tamper("left bracket key inside the range"));
                        }
                    }
                    (None, Some(r)) => {
                        check_path(r)?;
                        if r.index != 0 {
                            return Err(tamper("right bracket is not the first entry"));
                        }
                        if below_hi(&r.entry.key) {
                            return Err(tamper("right bracket key inside the range"));
                        }
                    }
                    (Some(l), Some(r)) => {
                        check_path(l)?;
                        check_path(r)?;
                        if r.index != l.index + 1 {
                            return Err(tamper("brackets are not adjacent"));
                        }
                        if l.entry.key >= proof.lo || below_hi(&r.entry.key) {
                            return Err(tamper("bracket keys do not exclude the range"));
                        }
                    }
                }
                Ok(Vec::new())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyed::{KeyedAttestation, KeyedEntry, KeyedTree};
    use crate::tree::{Attestation, PathNode};

    const KEY: [u8; 32] = [5u8; 32];

    fn anchor(counter: u64) -> TrustAnchor {
        TrustAnchor {
            counter_value: counter,
            keys: TrustKeys::Single { root_mac_key: KEY },
        }
    }

    /// Hand-build a depth-2 fanout-4 tree holding ids 1 and 6 and produce
    /// proofs straight from the definition.
    fn tiny_proof(id: u64, value: &[u8], counter: u64) -> ChunkProof {
        let sealed = |v: &[u8]| sha256(&[v, b"!sealed"].concat());
        let leaf0 = PathNode {
            is_leaf: true,
            entries: vec![(1, sealed(b"one"))],
        };
        let leaf1 = PathNode {
            is_leaf: true,
            entries: vec![(2, sealed(b"six"))],
        };
        let root = PathNode {
            is_leaf: false,
            entries: vec![(0, leaf0.hash()), (1, leaf1.hash())],
        };
        let (path, outcome) = match id {
            1 => (
                vec![root, leaf0],
                ChunkOutcome::Included {
                    sealed_hash: sealed(b"one"),
                    plain_hash: sha256(value),
                    content_tag: content_tag(
                        &HmacSha256::new(&KEY),
                        1,
                        &sealed(b"one"),
                        &sha256(value),
                    ),
                },
            ),
            6 => (
                vec![root, leaf1],
                ChunkOutcome::Included {
                    sealed_hash: sealed(b"six"),
                    plain_hash: sha256(value),
                    content_tag: content_tag(
                        &HmacSha256::new(&KEY),
                        6,
                        &sealed(b"six"),
                        &sha256(value),
                    ),
                },
            ),
            // id 5 = slot 1 of leaf1 (5/4=1, 5%4=1): empty slot in leaf.
            5 => (vec![root, leaf1], ChunkOutcome::Absent),
            // id 8 routes to child 2 of the root: absent subtree.
            8 => (vec![root], ChunkOutcome::Absent),
            // id 99 is beyond capacity 16.
            99 => (vec![root], ChunkOutcome::Absent),
            _ => panic!("unscripted id"),
        };
        let tag = attestation_tag(&HmacSha256::new(&KEY), counter, 9, 2, 4, &path[0].hash());
        ChunkProof {
            chunk_id: id,
            outcome,
            path,
            attestation: Attestation {
                counter_value: counter,
                commit_seq: 9,
                depth: 2,
                fanout: 4,
                tag,
            },
            shard: None,
        }
    }

    #[test]
    fn inclusion_and_absence_verify() {
        let v = Verifier::new(anchor(7));
        v.verify_chunk(&tiny_proof(1, b"one-value", 7), Some(b"one-value"))
            .unwrap();
        v.verify_chunk(&tiny_proof(6, b"six-value", 8), Some(b"six-value"))
            .unwrap();
        v.verify_chunk(&tiny_proof(5, b"", 7), None).unwrap();
        v.verify_chunk(&tiny_proof(8, b"", 7), None).unwrap();
        v.verify_chunk(&tiny_proof(99, b"", 7), None).unwrap();
    }

    #[test]
    fn wrong_value_stale_counter_and_shape_misuse() {
        let v = Verifier::new(anchor(7));
        assert!(matches!(
            v.verify_chunk(&tiny_proof(1, b"one-value", 7), Some(b"forged")),
            Err(ProofError::Tamper(_))
        ));
        assert!(matches!(
            v.verify_chunk(&tiny_proof(1, b"one-value", 6), Some(b"one-value")),
            Err(ProofError::Replay {
                trusted: 7,
                attested: 6
            })
        ));
        assert!(matches!(
            v.verify_chunk(&tiny_proof(1, b"one-value", 7), None),
            Err(ProofError::Usage(_))
        ));
        assert!(matches!(
            v.verify_chunk(&tiny_proof(5, b"", 7), Some(b"x")),
            Err(ProofError::Usage(_))
        ));
    }

    #[test]
    fn any_flipped_byte_is_rejected() {
        let v = Verifier::new(anchor(3));
        let base = tiny_proof(1, b"one-value", 5);
        let wire = crate::wire::encode_chunk_proof(&base);
        let mut accepted_mutations = 0;
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x01;
            match crate::wire::decode_chunk_proof(&bad) {
                Err(_) => {}
                Ok(p) => {
                    if v.verify_chunk(&p, Some(b"one-value")).is_ok() {
                        accepted_mutations += 1;
                    }
                }
            }
        }
        assert_eq!(accepted_mutations, 0, "a flipped proof byte verified");
    }

    #[test]
    fn keyed_proofs_verify_and_reject() {
        let tree = KeyedTree::build(
            ["ant", "bee", "bee", "cat", "dog"]
                .iter()
                .enumerate()
                .map(|(i, k)| KeyedEntry {
                    key: k.as_bytes().to_vec(),
                    id: i as u64,
                })
                .collect(),
        );
        let attest = |p: &mut KeyedProof, counter: u64| {
            p.attestation = KeyedAttestation {
                counter_value: counter,
                commit_seq: 4,
                tag: keyed_tag(
                    &HmacSha256::new(&KEY),
                    counter,
                    4,
                    &p.scope,
                    p.total,
                    &p.root,
                ),
            };
        };
        let v = Verifier::new(anchor(2));
        let exact = |k: &[u8]| crate::keyed::key_successor(k);

        let mut hit = tree.prove_range("c/i", b"bee", Some(&exact(b"bee")));
        attest(&mut hit, 2);
        assert_eq!(v.verify_keyed(&hit).unwrap(), vec![1, 2]);

        let mut miss = tree.prove_range("c/i", b"cow", Some(&exact(b"cow")));
        attest(&mut miss, 3);
        assert_eq!(v.verify_keyed(&miss).unwrap(), Vec::<u64>::new());

        // Range miss.
        let mut rmiss = tree.prove_range("c/i", b"cata", Some(b"cz"));
        attest(&mut rmiss, 2);
        assert_eq!(v.verify_keyed(&rmiss).unwrap(), Vec::<u64>::new());

        // Unbounded-above range hit.
        let mut open = tree.prove_range("c/i", b"cat", None);
        attest(&mut open, 2);
        assert_eq!(v.verify_keyed(&open).unwrap(), vec![3, 4]);

        // Stale counter.
        let mut stale = tree.prove_range("c/i", b"bee", Some(&exact(b"bee")));
        attest(&mut stale, 1);
        assert!(matches!(
            v.verify_keyed(&stale),
            Err(ProofError::Replay { .. })
        ));

        // Dropped match: brackets stop being adjacent.
        let mut dropped = hit.clone();
        if let KeyedCase::Present { matches, .. } = &mut dropped.case {
            matches.pop();
        }
        assert!(matches!(
            v.verify_keyed(&dropped),
            Err(ProofError::Tamper(_))
        ));

        // Forged root.
        let mut forged = hit.clone();
        forged.root[0] ^= 1;
        assert!(matches!(
            v.verify_keyed(&forged),
            Err(ProofError::Tamper(_))
        ));

        // Absence claimed for a present key: the honest prover would emit
        // Present; forging Absent needs non-adjacent brackets.
        let mut lie = tree.prove_range("c/i", b"bee", Some(&exact(b"bee")));
        lie.case = KeyedCase::Absent {
            left: Some(tree.path(0)),
            right: Some(tree.path(3)),
        };
        attest(&mut lie, 2);
        assert!(matches!(v.verify_keyed(&lie), Err(ProofError::Tamper(_))));
    }
}
