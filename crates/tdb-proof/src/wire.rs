//! Stable serialization of proofs and trust anchors.
//!
//! Proofs are useful beyond the process that minted them: a client stores
//! one next to a downloaded value, a support engineer attaches one to a
//! ticket, `tdb-doctor verify-proof` checks one offline. This module
//! defines a small, versioned, little-endian binary encoding for
//! [`ChunkProof`], [`KeyedProof`], and [`TrustAnchor`], plus the hex codec
//! that text dumps of those encodings use.
//!
//! Decoding is strict: unknown tags, truncated input, implausible lengths,
//! and trailing bytes are all [`WireError`]s — a dump that decodes is
//! structurally well-formed, and whether it *verifies* is then solely the
//! [`crate::Verifier`]'s judgement.

use crate::keyed::{KeyedAttestation, KeyedCase, KeyedEntry, KeyedPath, KeyedProof};
use crate::tree::{Attestation, ChunkOutcome, ChunkProof, EpochRecord, PathNode, ShardBinding};
use crate::verify::{TrustAnchor, TrustKeys};
use tdb_crypto::{Digest, DIGEST_LEN};

/// Leading type/version byte of each encoded object.
const TAG_CHUNK_PROOF_V1: u8 = 0x01;
const TAG_ANCHOR_V1: u8 = 0x02;
const TAG_KEYED_PROOF_V1: u8 = 0x03;

/// Hard sanity caps so a corrupt length prefix cannot ask for gigabytes.
const MAX_VEC: usize = 1 << 20;

/// A malformed encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed proof encoding: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err(m: impl Into<String>) -> WireError {
    WireError(m.into())
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or_else(|| err("overflow"))?;
        if end > self.buf.len() {
            return Err(err("truncated"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn digest(&mut self) -> Result<Digest, WireError> {
        Ok(self.take(DIGEST_LEN)?.try_into().unwrap())
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_VEC {
            return Err(err("implausible byte-string length"));
        }
        Ok(self.take(n)?.to_vec())
    }

    fn count(&mut self, what: &str) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_VEC {
            return Err(err(format!("implausible {what} count")));
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(err("trailing bytes"));
        }
        Ok(())
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

// ---- chunk proofs ----------------------------------------------------

fn put_attestation(out: &mut Vec<u8>, a: &Attestation) {
    out.extend_from_slice(&a.counter_value.to_le_bytes());
    out.extend_from_slice(&a.commit_seq.to_le_bytes());
    out.extend_from_slice(&a.depth.to_le_bytes());
    out.extend_from_slice(&a.fanout.to_le_bytes());
    out.extend_from_slice(&a.tag);
}

fn get_attestation(r: &mut Reader) -> Result<Attestation, WireError> {
    Ok(Attestation {
        counter_value: r.u64()?,
        commit_seq: r.u64()?,
        depth: r.u32()?,
        fanout: r.u32()?,
        tag: r.digest()?,
    })
}

/// Encode a chunk proof.
pub fn encode_chunk_proof(p: &ChunkProof) -> Vec<u8> {
    let mut out = vec![TAG_CHUNK_PROOF_V1];
    out.extend_from_slice(&p.chunk_id.to_le_bytes());
    match &p.outcome {
        ChunkOutcome::Absent => out.push(0),
        ChunkOutcome::Included {
            sealed_hash,
            plain_hash,
            content_tag,
        } => {
            out.push(1);
            out.extend_from_slice(sealed_hash);
            out.extend_from_slice(plain_hash);
            out.extend_from_slice(content_tag);
        }
    }
    out.extend_from_slice(&(p.path.len() as u32).to_le_bytes());
    for node in &p.path {
        out.push(node.is_leaf as u8);
        out.extend_from_slice(&(node.entries.len() as u32).to_le_bytes());
        for (slot, d) in &node.entries {
            out.extend_from_slice(&slot.to_le_bytes());
            out.extend_from_slice(d);
        }
    }
    put_attestation(&mut out, &p.attestation);
    match &p.shard {
        None => out.push(0),
        Some(b) => {
            out.push(1);
            out.extend_from_slice(&b.shard.to_le_bytes());
            out.extend_from_slice(&b.shards.to_le_bytes());
            out.extend_from_slice(&b.epoch.hw_counter.to_le_bytes());
            out.extend_from_slice(&b.epoch.epoch.to_le_bytes());
            out.extend_from_slice(&(b.epoch.counters.len() as u32).to_le_bytes());
            for c in &b.epoch.counters {
                out.extend_from_slice(&c.to_le_bytes());
            }
            out.extend_from_slice(&b.epoch.tag);
        }
    }
    out
}

/// Decode a chunk proof (strict: rejects trailing bytes).
pub fn decode_chunk_proof(bytes: &[u8]) -> Result<ChunkProof, WireError> {
    let mut r = Reader::new(bytes);
    if r.u8()? != TAG_CHUNK_PROOF_V1 {
        return Err(err("not a v1 chunk proof"));
    }
    let chunk_id = r.u64()?;
    let outcome = match r.u8()? {
        0 => ChunkOutcome::Absent,
        1 => ChunkOutcome::Included {
            sealed_hash: r.digest()?,
            plain_hash: r.digest()?,
            content_tag: r.digest()?,
        },
        t => return Err(err(format!("unknown outcome tag {t}"))),
    };
    let n_nodes = r.count("path node")?;
    let mut path = Vec::with_capacity(n_nodes.min(64));
    for _ in 0..n_nodes {
        let is_leaf = match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(err(format!("unknown node kind {t}"))),
        };
        let n_entries = r.count("node entry")?;
        let mut entries = Vec::with_capacity(n_entries.min(1024));
        for _ in 0..n_entries {
            entries.push((r.u32()?, r.digest()?));
        }
        path.push(PathNode { is_leaf, entries });
    }
    let attestation = get_attestation(&mut r)?;
    let shard = match r.u8()? {
        0 => None,
        1 => {
            let shard = r.u32()?;
            let shards = r.u32()?;
            let hw_counter = r.u64()?;
            let epoch = r.u32()?;
            let n = r.count("shard counter")?;
            let mut counters = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                counters.push(r.u64()?);
            }
            let tag = r.digest()?;
            Some(ShardBinding {
                shard,
                shards,
                epoch: EpochRecord {
                    hw_counter,
                    epoch,
                    counters,
                    tag,
                },
            })
        }
        t => return Err(err(format!("unknown shard tag {t}"))),
    };
    r.finish()?;
    Ok(ChunkProof {
        chunk_id,
        outcome,
        path,
        attestation,
        shard,
    })
}

// ---- trust anchors ---------------------------------------------------

/// Encode a trust anchor. **Contains key material** — dump only what the
/// recipient is entitled to hold.
pub fn encode_trust_anchor(a: &TrustAnchor) -> Vec<u8> {
    let mut out = vec![TAG_ANCHOR_V1];
    out.extend_from_slice(&a.counter_value.to_le_bytes());
    match &a.keys {
        TrustKeys::Single { root_mac_key } => {
            out.push(0);
            out.extend_from_slice(root_mac_key);
        }
        TrustKeys::Sharded {
            rr_mac_key,
            shard_mac_keys,
        } => {
            out.push(1);
            out.extend_from_slice(rr_mac_key);
            out.extend_from_slice(&(shard_mac_keys.len() as u32).to_le_bytes());
            for k in shard_mac_keys {
                out.extend_from_slice(k);
            }
        }
    }
    out
}

/// Decode a trust anchor.
pub fn decode_trust_anchor(bytes: &[u8]) -> Result<TrustAnchor, WireError> {
    let mut r = Reader::new(bytes);
    if r.u8()? != TAG_ANCHOR_V1 {
        return Err(err("not a v1 trust anchor"));
    }
    let counter_value = r.u64()?;
    let keys = match r.u8()? {
        0 => TrustKeys::Single {
            root_mac_key: r.digest()?,
        },
        1 => {
            let rr_mac_key = r.digest()?;
            let n = r.count("shard key")?;
            if n == 0 || n > 64 {
                return Err(err("implausible shard key count"));
            }
            let mut shard_mac_keys = Vec::with_capacity(n);
            for _ in 0..n {
                shard_mac_keys.push(r.digest()?);
            }
            TrustKeys::Sharded {
                rr_mac_key,
                shard_mac_keys,
            }
        }
        t => return Err(err(format!("unknown key-shape tag {t}"))),
    };
    r.finish()?;
    Ok(TrustAnchor {
        counter_value,
        keys,
    })
}

// ---- keyed proofs ----------------------------------------------------

fn put_keyed_path(out: &mut Vec<u8>, p: &KeyedPath) {
    out.extend_from_slice(&p.index.to_le_bytes());
    put_bytes(out, &p.entry.key);
    out.extend_from_slice(&p.entry.id.to_le_bytes());
    out.extend_from_slice(&(p.siblings.len() as u32).to_le_bytes());
    for s in &p.siblings {
        match s {
            None => out.push(0),
            Some(d) => {
                out.push(1);
                out.extend_from_slice(d);
            }
        }
    }
}

fn get_keyed_path(r: &mut Reader) -> Result<KeyedPath, WireError> {
    let index = r.u64()?;
    let key = r.bytes()?;
    let id = r.u64()?;
    let n = r.count("sibling")?;
    let mut siblings = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        siblings.push(match r.u8()? {
            0 => None,
            1 => Some(r.digest()?),
            t => return Err(err(format!("unknown sibling tag {t}"))),
        });
    }
    Ok(KeyedPath {
        index,
        entry: KeyedEntry { key, id },
        siblings,
    })
}

fn put_opt_path(out: &mut Vec<u8>, p: &Option<KeyedPath>) {
    match p {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            put_keyed_path(out, p);
        }
    }
}

fn get_opt_path(r: &mut Reader) -> Result<Option<KeyedPath>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_keyed_path(r)?)),
        t => Err(err(format!("unknown option tag {t}"))),
    }
}

/// Encode a keyed (index-level) proof.
pub fn encode_keyed_proof(p: &KeyedProof) -> Vec<u8> {
    let mut out = vec![TAG_KEYED_PROOF_V1];
    put_bytes(&mut out, p.scope.as_bytes());
    out.extend_from_slice(&p.total.to_le_bytes());
    out.extend_from_slice(&p.root);
    put_bytes(&mut out, &p.lo);
    match &p.hi {
        None => out.push(0),
        Some(hi) => {
            out.push(1);
            put_bytes(&mut out, hi);
        }
    }
    match &p.case {
        KeyedCase::Present {
            matches,
            left,
            right,
        } => {
            out.push(1);
            out.extend_from_slice(&(matches.len() as u32).to_le_bytes());
            for m in matches {
                put_keyed_path(&mut out, m);
            }
            put_opt_path(&mut out, left);
            put_opt_path(&mut out, right);
        }
        KeyedCase::Absent { left, right } => {
            out.push(0);
            put_opt_path(&mut out, left);
            put_opt_path(&mut out, right);
        }
    }
    out.extend_from_slice(&p.attestation.counter_value.to_le_bytes());
    out.extend_from_slice(&p.attestation.commit_seq.to_le_bytes());
    out.extend_from_slice(&p.attestation.tag);
    out
}

/// Decode a keyed proof.
pub fn decode_keyed_proof(bytes: &[u8]) -> Result<KeyedProof, WireError> {
    let mut r = Reader::new(bytes);
    if r.u8()? != TAG_KEYED_PROOF_V1 {
        return Err(err("not a v1 keyed proof"));
    }
    let scope = String::from_utf8(r.bytes()?).map_err(|_| err("scope is not UTF-8"))?;
    let total = r.u64()?;
    let root = r.digest()?;
    let lo = r.bytes()?;
    let hi = match r.u8()? {
        0 => None,
        1 => Some(r.bytes()?),
        t => return Err(err(format!("unknown upper-bound tag {t}"))),
    };
    let case = match r.u8()? {
        1 => {
            let n = r.count("match")?;
            let mut matches = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                matches.push(get_keyed_path(&mut r)?);
            }
            KeyedCase::Present {
                matches,
                left: get_opt_path(&mut r)?,
                right: get_opt_path(&mut r)?,
            }
        }
        0 => KeyedCase::Absent {
            left: get_opt_path(&mut r)?,
            right: get_opt_path(&mut r)?,
        },
        t => return Err(err(format!("unknown case tag {t}"))),
    };
    let attestation = KeyedAttestation {
        counter_value: r.u64()?,
        commit_seq: r.u64()?,
        tag: r.digest()?,
    };
    r.finish()?;
    Ok(KeyedProof {
        scope,
        total,
        root,
        lo,
        hi,
        case,
        attestation,
    })
}

// ---- hex -------------------------------------------------------------

/// Lowercase hex of `bytes`.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Parse lowercase/uppercase hex.
pub fn from_hex(s: &str) -> Result<Vec<u8>, WireError> {
    let s = s.trim();
    if !s.len().is_multiple_of(2) {
        return Err(err("odd-length hex string"));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|_| err("invalid hex digit")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_proof() -> ChunkProof {
        ChunkProof {
            chunk_id: 12345,
            outcome: ChunkOutcome::Included {
                sealed_hash: [1u8; 32],
                plain_hash: [2u8; 32],
                content_tag: [3u8; 32],
            },
            path: vec![
                PathNode {
                    is_leaf: false,
                    entries: vec![(0, [4u8; 32]), (9, [5u8; 32])],
                },
                PathNode {
                    is_leaf: true,
                    entries: vec![(57, [6u8; 32])],
                },
            ],
            attestation: Attestation {
                counter_value: 42,
                commit_seq: 7,
                depth: 2,
                fanout: 64,
                tag: [7u8; 32],
            },
            shard: Some(ShardBinding {
                shard: 1,
                shards: 3,
                epoch: EpochRecord {
                    hw_counter: 99,
                    epoch: 4,
                    counters: vec![10, 20, 30],
                    tag: [8u8; 32],
                },
            }),
        }
    }

    fn sample_anchor() -> TrustAnchor {
        TrustAnchor {
            counter_value: 42,
            keys: TrustKeys::Sharded {
                rr_mac_key: [9u8; 32],
                shard_mac_keys: vec![[10u8; 32], [11u8; 32], [12u8; 32]],
            },
        }
    }

    #[test]
    fn chunk_proof_roundtrips_and_rejects_damage() {
        let p = sample_proof();
        let enc = encode_chunk_proof(&p);
        assert_eq!(decode_chunk_proof(&enc).unwrap(), p);
        assert_eq!(p.encoded_len(), enc.len());
        // Truncations never panic and never decode.
        for cut in 0..enc.len() {
            assert!(decode_chunk_proof(&enc[..cut]).is_err(), "cut={cut}");
        }
        // Trailing bytes rejected.
        let mut long = enc.clone();
        long.push(0);
        assert!(decode_chunk_proof(&long).is_err());
    }

    #[test]
    fn anchor_and_keyed_roundtrip() {
        let a = sample_anchor();
        assert_eq!(decode_trust_anchor(&encode_trust_anchor(&a)).unwrap(), a);
        let single = TrustAnchor {
            counter_value: 1,
            keys: TrustKeys::Single {
                root_mac_key: [13u8; 32],
            },
        };
        assert_eq!(
            decode_trust_anchor(&encode_trust_anchor(&single)).unwrap(),
            single
        );

        let tree = crate::keyed::KeyedTree::build(
            (0..9)
                .map(|i| KeyedEntry {
                    key: format!("k{i}").into_bytes(),
                    id: i,
                })
                .collect(),
        );
        for (lo, hi) in [
            (&b"k3"[..], Some(&b"k5"[..])),
            (b"a", Some(b"ab")),
            (b"z", None),
        ] {
            let p = tree.prove_range("c/i", lo, hi);
            let enc = encode_keyed_proof(&p);
            assert_eq!(decode_keyed_proof(&enc).unwrap(), p);
            for cut in 0..enc.len() {
                assert!(decode_keyed_proof(&enc[..cut]).is_err());
            }
        }
    }

    #[test]
    fn hex_helpers() {
        assert_eq!(to_hex(&[0xde, 0xad, 0x01]), "dead01");
        assert_eq!(from_hex("dead01").unwrap(), vec![0xde, 0xad, 0x01]);
        assert_eq!(from_hex(" DEAD01 ").unwrap(), vec![0xde, 0xad, 0x01]);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }
}
