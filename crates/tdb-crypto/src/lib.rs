//! Cryptographic substrate for the TDB trusted database system.
//!
//! The TDB paper (Vingralek, Maheshwari, Shapiro; EDBT 2002) encrypts every
//! chunk, hashes the whole database through a Merkle tree, and MACs the tree
//! root together with a one-way counter value. This crate supplies those
//! primitives, implemented from scratch and validated against the official
//! FIPS / NIST test vectors:
//!
//! * [`sha256`](mod@sha256) — SHA-256 (FIPS 180-4). The paper used SHA-1, which is broken
//!   today; SHA-256 is the drop-in modern substitute (see DESIGN.md §2).
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104 / FIPS 198-1), used where the paper
//!   "signs with the secret key" (a MAC, not public-key signing).
//! * [`aes`] + [`cbc`] — AES-128 in CBC mode with PKCS#7 padding. The paper
//!   used 3DES and itself remarks that equally secure, faster ciphers exist.
//! * [`drbg`] — HMAC-DRBG (NIST SP 800-90A) for IV generation and key
//!   derivation, so chunk encryption never reuses an IV.
//!
//! None of this code aims to be constant-time or side-channel hardened; the
//! threat model of the paper is an attacker who reads and rewrites the
//! *storage*, not one who times the CPU.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod cbc;
pub mod drbg;
pub mod hmac;
pub mod sha256;

pub use aes::Aes128;
pub use cbc::{cbc_decrypt, cbc_encrypt, cbc_encrypt_into, ciphertext_len};
pub use drbg::HmacDrbg;
pub use hmac::{hmac_sha256, HmacSha256};
pub use sha256::{sha256, Digest, Sha256, DIGEST_LEN};

/// Length in bytes of symmetric keys used throughout TDB (AES-128).
pub const KEY_LEN: usize = 16;

/// Length in bytes of the master secret held in the secret store.
pub const MASTER_SECRET_LEN: usize = 32;

/// A 16-byte AES key.
pub type Key = [u8; KEY_LEN];

/// Derive an independent sub-key from a master secret and a domain-separation
/// label ("encryption", "mac", ...). This mirrors how TDB splits the single
/// platform secret into the keys used by different mechanisms.
pub fn derive_key(master: &[u8], label: &str) -> Key {
    let tag = hmac_sha256(master, label.as_bytes());
    let mut key = [0u8; KEY_LEN];
    key.copy_from_slice(&tag[..KEY_LEN]);
    key
}

/// Derive a full-width (32-byte) sub-secret, e.g. for MAC keys.
pub fn derive_secret(master: &[u8], label: &str) -> [u8; MASTER_SECRET_LEN] {
    hmac_sha256(master, label.as_bytes())
}

/// Constant-ish time comparison of two byte strings. Returns `true` iff they
/// are equal. Avoids early-exit on the first mismatching byte so that MAC
/// verification does not leak the matching prefix length.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_key_is_label_separated() {
        let master = [7u8; MASTER_SECRET_LEN];
        let k1 = derive_key(&master, "encryption");
        let k2 = derive_key(&master, "mac");
        assert_ne!(k1, k2);
        // Deterministic.
        assert_eq!(k1, derive_key(&master, "encryption"));
    }

    #[test]
    fn derive_secret_differs_from_key_prefix_domain() {
        let master = [1u8; MASTER_SECRET_LEN];
        let s = derive_secret(&master, "anchor-mac");
        let k = derive_key(&master, "anchor-mac");
        // The key is the prefix of the secret for the same label: documented
        // relationship, assert it so a refactor can't silently change it.
        assert_eq!(&s[..KEY_LEN], &k[..]);
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }
}
