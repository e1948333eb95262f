//! Keyed hash tree over an ordered index: membership *and* non-membership.
//!
//! A plain Merkle tree proves what *is* in a set; proving what is *not*
//! needs order. Following Bauer's construction, the prover commits to the
//! index's entries **sorted by key**: a miss for key `k` is then proven by
//! exhibiting the two *adjacent* leaves that bracket `k` — adjacency
//! (consecutive leaf indices) shows nothing was omitted between them, and
//! the bracket keys show `k` would have to sit exactly there.
//!
//! The tree is a binary Merkle tree over the sorted `(key, id)` leaves;
//! an odd node at any level is promoted unchanged (no padding digests to
//! get wrong). The root is bound to the database state by a
//! [`KeyedAttestation`] minted by the engine over the collection/index
//! scope, the snapshot's commit sequence, and the pinned counter value.

use tdb_crypto::{Digest, HmacSha256, Sha256};

/// One `(key, object id)` entry of the committed index.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct KeyedEntry {
    /// The index key, in its order-preserving encoded form.
    pub key: Vec<u8>,
    /// The object id the entry maps to.
    pub id: u64,
}

fn leaf_hash(e: &KeyedEntry) -> Digest {
    let mut h = Sha256::new();
    h.update(b"tdb.keyed.leaf");
    h.update(&(e.key.len() as u32).to_le_bytes());
    h.update(&e.key);
    h.update(&e.id.to_le_bytes());
    h.finalize()
}

fn inner_hash(l: &Digest, r: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(b"tdb.keyed.inner");
    h.update(l);
    h.update(r);
    h.finalize()
}

/// Root of a tree with no entries.
pub fn empty_root() -> Digest {
    tdb_crypto::sha256(b"tdb.keyed.empty")
}

/// The prover-side tree: all levels materialized.
pub struct KeyedTree {
    entries: Vec<KeyedEntry>,
    /// `levels[0]` = leaf hashes, each next level half the size (odd last
    /// node promoted), `levels.last()` = `[root]`.
    levels: Vec<Vec<Digest>>,
}

impl KeyedTree {
    /// Build over `entries`; sorts them into canonical `(key, id)` order.
    pub fn build(mut entries: Vec<KeyedEntry>) -> KeyedTree {
        entries.sort();
        let mut levels = Vec::new();
        let mut level: Vec<Digest> = entries.iter().map(leaf_hash).collect();
        if level.is_empty() {
            return KeyedTree {
                entries,
                levels: vec![],
            };
        }
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                next.push(match pair {
                    [l, r] => inner_hash(l, r),
                    [only] => *only,
                    _ => unreachable!(),
                });
            }
            levels.push(level);
            level = next;
        }
        levels.push(level);
        KeyedTree { entries, levels }
    }

    /// Number of entries committed.
    pub fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Whether the tree commits to no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The committed root.
    pub fn root(&self) -> Digest {
        match self.levels.last() {
            Some(top) => top[0],
            None => empty_root(),
        }
    }

    /// The sorted entries (for picking bracket indices).
    pub fn entries(&self) -> &[KeyedEntry] {
        &self.entries
    }

    /// Membership path for the leaf at `index`.
    pub fn path(&self, index: u64) -> KeyedPath {
        let mut siblings = Vec::new();
        let mut i = index as usize;
        for level in &self.levels[..self.levels.len().saturating_sub(1)] {
            let sib = i ^ 1;
            siblings.push(level.get(sib).copied());
            i /= 2;
        }
        KeyedPath {
            index,
            entry: self.entries[index as usize].clone(),
            siblings,
        }
    }

    /// First index whose key is `>= key` (the insertion point).
    pub fn lower_bound(&self, key: &[u8]) -> u64 {
        self.entries.partition_point(|e| e.key.as_slice() < key) as u64
    }

    /// First index whose key is `> key`.
    pub fn upper_bound(&self, key: &[u8]) -> u64 {
        self.entries.partition_point(|e| e.key.as_slice() <= key) as u64
    }
}

/// A membership path: the leaf entry, its index, and the sibling digest
/// at every level (`None` where the node was promoted unpaired).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedPath {
    /// Leaf index in the sorted order.
    pub index: u64,
    /// The entry itself.
    pub entry: KeyedEntry,
    /// Bottom-up sibling digests.
    pub siblings: Vec<Option<Digest>>,
}

impl KeyedPath {
    /// Recompute the root this path commits to, given the total leaf
    /// count `n`. Returns `None` if the path shape is inconsistent with
    /// `(index, n)` — promotions are fully determined by them.
    pub fn recompute_root(&self, n: u64) -> Option<Digest> {
        if self.index >= n || n == 0 {
            return None;
        }
        let mut acc = leaf_hash(&self.entry);
        let mut i = self.index;
        let mut width = n;
        let mut steps = 0usize;
        while width > 1 {
            let sib = self.siblings.get(steps)?;
            let pair_exists = (i ^ 1) < width;
            match (pair_exists, sib) {
                (true, Some(s)) => {
                    acc = if i.is_multiple_of(2) {
                        inner_hash(&acc, s)
                    } else {
                        inner_hash(s, &acc)
                    };
                }
                (false, None) => {} // promoted unchanged
                _ => return None,
            }
            i /= 2;
            width = width.div_ceil(2);
            steps += 1;
        }
        if steps != self.siblings.len() {
            return None;
        }
        Some(acc)
    }
}

/// Engine attestation over a keyed root:
/// `HMAC(key, "tdb.proof.keyed" || counter || commit_seq || scope || n || root)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedAttestation {
    /// Counter value pinned with the snapshot.
    pub counter_value: u64,
    /// Snapshot commit sequence.
    pub commit_seq: u64,
    /// The HMAC tag.
    pub tag: Digest,
}

/// Mint the keyed-root attestation tag under a keyed HMAC template.
pub fn keyed_tag(
    mac: &HmacSha256,
    counter_value: u64,
    commit_seq: u64,
    scope: &str,
    n: u64,
    root: &Digest,
) -> Digest {
    let mut m = mac.clone();
    m.update(b"tdb.proof.keyed");
    m.update(&counter_value.to_le_bytes());
    m.update(&commit_seq.to_le_bytes());
    m.update(&(scope.len() as u32).to_le_bytes());
    m.update(scope.as_bytes());
    m.update(&n.to_le_bytes());
    m.update(root);
    m.finalize()
}

/// The claim a keyed proof makes about the queried key range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyedCase {
    /// Every entry with key in `[lo, hi)`, plus the adjacent non-matching
    /// brackets proving completeness.
    Present {
        /// Consecutive-index paths of every matching entry.
        matches: Vec<KeyedPath>,
        /// Entry just before the first match (`None` iff it is index 0).
        left: Option<KeyedPath>,
        /// Entry just after the last match (`None` iff it is index n−1).
        right: Option<KeyedPath>,
    },
    /// No entry has a key in `[lo, hi)`: the adjacent pair bracketing the
    /// whole range (either side `None` at the edges of the index).
    Absent {
        /// Greatest entry with key `< lo` (`None` iff the range starts
        /// before every key).
        left: Option<KeyedPath>,
        /// Least entry with key `>= hi` (`None` iff the range ends after
        /// every key).
        right: Option<KeyedPath>,
    },
}

/// A self-contained (non-)membership proof for a key range of one index.
///
/// The queried range is **half-open**: `[lo, hi)` in the encoded key
/// order, with `hi = None` meaning unbounded above. Every `Bound` form a
/// query layer offers maps onto this exactly — an inclusive bound becomes
/// the key's [successor](key_successor), an exclusive one is used as is —
/// whereas a closed `[lo, hi]` range cannot represent "strictly below k"
/// (byte strings have no greatest element below a given one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedProof {
    /// Scope label, `"{collection}/{index}"`.
    pub scope: String,
    /// Total entries committed by the root.
    pub total: u64,
    /// Committed root.
    pub root: Digest,
    /// Inclusive lower bound of the queried key range (encoded form).
    pub lo: Vec<u8>,
    /// Exclusive upper bound; `None` = unbounded above.
    pub hi: Option<Vec<u8>>,
    /// The membership claim.
    pub case: KeyedCase,
    /// Root-to-counter binding.
    pub attestation: KeyedAttestation,
}

/// The smallest byte string strictly greater than `key`: `key || 0x00`.
/// Turns an inclusive bound into the equivalent exclusive one, so an exact
/// lookup for `k` is the half-open range `[k, key_successor(k))`.
pub fn key_successor(key: &[u8]) -> Vec<u8> {
    let mut s = Vec::with_capacity(key.len() + 1);
    s.extend_from_slice(key);
    s.push(0x00);
    s
}

impl KeyedTree {
    /// Build the proof for the half-open key range `[lo, hi)` (`hi = None`
    /// = unbounded); attestation is left zeroed for the engine to fill.
    /// For an exact lookup pass `hi = Some(&key_successor(lo))`.
    pub fn prove_range(&self, scope: &str, lo: &[u8], hi: Option<&[u8]>) -> KeyedProof {
        let n = self.len();
        let start = self.lower_bound(lo);
        // First index beyond the range; an inverted range is just empty.
        let end = hi.map_or(n, |h| self.lower_bound(h)).max(start);
        let case = if start == end {
            KeyedCase::Absent {
                left: start.checked_sub(1).map(|i| self.path(i)),
                right: (start < n).then(|| self.path(start)),
            }
        } else {
            KeyedCase::Present {
                matches: (start..end).map(|i| self.path(i)).collect(),
                left: start.checked_sub(1).map(|i| self.path(i)),
                right: (end < n).then(|| self.path(end)),
            }
        };
        KeyedProof {
            scope: scope.to_string(),
            total: n,
            root: self.root(),
            lo: lo.to_vec(),
            hi: hi.map(|h| h.to_vec()),
            case,
            attestation: KeyedAttestation {
                counter_value: 0,
                commit_seq: 0,
                tag: [0u8; 32],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(k: &str, id: u64) -> KeyedEntry {
        KeyedEntry {
            key: k.as_bytes().to_vec(),
            id,
        }
    }

    #[test]
    fn paths_recompute_root_at_every_size() {
        for n in 1..20u64 {
            let tree = KeyedTree::build((0..n).map(|i| entry(&format!("k{i:03}"), i)).collect());
            for i in 0..n {
                let p = tree.path(i);
                assert_eq!(p.recompute_root(n), Some(tree.root()), "n={n} i={i}");
                // A wrong total is not always distinguishable from the
                // path alone (promotions can coincide) — which is exactly
                // why `n` is bound inside the attestation tag. The path
                // must still reject totals its index cannot exist under.
                assert_eq!(p.recompute_root(0), None);
                assert_eq!(p.recompute_root(i), None, "index must be < n");
            }
        }
    }

    #[test]
    fn tampered_path_fails() {
        let tree = KeyedTree::build((0..7).map(|i| entry(&format!("k{i}"), i)).collect());
        let mut p = tree.path(3);
        p.entry.id = 99;
        assert_ne!(p.recompute_root(7), Some(tree.root()));
        let mut p = tree.path(3);
        if let Some(Some(s)) = p.siblings.first_mut().map(|s| s.as_mut()) {
            s[0] ^= 1;
        }
        assert_ne!(p.recompute_root(7), Some(tree.root()));
    }

    #[test]
    fn range_proofs_cover_hits_and_misses() {
        let tree = KeyedTree::build(vec![
            entry("apple", 1),
            entry("cherry", 2),
            entry("cherry", 3),
            entry("grape", 4),
        ]);
        // Exact hit with duplicates.
        let p = tree.prove_range("t/i", b"cherry", Some(&key_successor(b"cherry")));
        match &p.case {
            KeyedCase::Present {
                matches,
                left,
                right,
            } => {
                assert_eq!(matches.len(), 2);
                assert_eq!(left.as_ref().unwrap().entry.key, b"apple");
                assert_eq!(right.as_ref().unwrap().entry.key, b"grape");
            }
            other => panic!("{other:?}"),
        }
        // Miss strictly inside.
        let p = tree.prove_range("t/i", b"banana", Some(&key_successor(b"banana")));
        match &p.case {
            KeyedCase::Absent { left, right } => {
                assert_eq!(left.as_ref().unwrap().entry.key, b"apple");
                assert_eq!(right.as_ref().unwrap().entry.key, b"cherry");
            }
            other => panic!("{other:?}"),
        }
        // Miss before everything / after everything (unbounded above).
        let p = tree.prove_range("t/i", b"a", Some(b"ab"));
        assert!(matches!(
            &p.case,
            KeyedCase::Absent { left: None, right: Some(r) } if r.entry.key == b"apple"
        ));
        let p = tree.prove_range("t/i", b"zebra", None);
        assert!(matches!(
            &p.case,
            KeyedCase::Absent { left: Some(l), right: None } if l.entry.key == b"grape"
        ));
        // Unbounded-above hit: everything from "grape" on.
        let p = tree.prove_range("t/i", b"grape", None);
        assert!(matches!(
            &p.case,
            KeyedCase::Present { matches, right: None, .. } if matches.len() == 1
        ));
        // Empty range query over an empty tree.
        let empty = KeyedTree::build(vec![]);
        assert_eq!(empty.root(), empty_root());
        let p = empty.prove_range("t/i", b"x", Some(b"y"));
        assert!(matches!(
            &p.case,
            KeyedCase::Absent {
                left: None,
                right: None
            }
        ));
    }
}
