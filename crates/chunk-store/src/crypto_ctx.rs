//! Security-mode-aware crypto operations used by the chunk store.
//!
//! Everything the chunk store writes to the untrusted store passes through
//! this context:
//!
//! * [`CryptoCtx::seal`] / [`CryptoCtx::open`] encrypt/decrypt a payload
//!   (AES-128-CBC with a fresh DRBG IV prepended) — or pass it through
//!   unchanged when security is off. IVs come from a pool refilled by one
//!   DRBG generate call per 32 of them;
//! * [`CryptoCtx::hash`] computes the per-record SHA-256 digest stored in
//!   the location map (the Merkle tree leaves and internal pointers);
//! * [`CryptoCtx::chain`] extends the commit-record authentication chain
//!   (HMAC when secure, plain SHA-256 when not — the plain variant still
//!   detects *accidental* corruption and torn writes during recovery);
//! * [`CryptoCtx::anchor_tag`] authenticates the trusted anchor.

use crate::config::SecurityMode;
use crate::error::{ChunkStoreError, Result};
use parking_lot::Mutex;
use tdb_crypto::{
    cbc_decrypt, cbc_encrypt, cbc_encrypt_into, derive_key, derive_secret, sha256, Aes128, Digest,
    HmacDrbg, HmacSha256, DIGEST_LEN,
};
use tdb_platform::SecretStore;

/// Zero digest used where hashing is disabled.
pub const ZERO_DIGEST: Digest = [0u8; DIGEST_LEN];

/// IVs handed out per DRBG generate call.
const IV_POOL_LEN: usize = 32;

/// CBC IVs drawn from one HMAC-DRBG generate call at a time: the pool holds
/// [`IV_POOL_LEN`] consecutive 16-byte pieces of a single `fill` output
/// (512 bytes, far under SP 800-90A's 2^19 bits per call) and refills when
/// they are spent. The output of one call is a run of independent DRBG
/// blocks, so its pieces are as unpredictable as separate calls' outputs;
/// and since a generate call's first block is the same whatever its length,
/// the first IV equals what a lone `gen_iv` would have returned.
struct IvPool {
    drbg: HmacDrbg,
    buf: [u8; IV_POOL_LEN * 16],
    /// Byte offset of the next unused IV; `buf.len()` when spent.
    next: usize,
}

impl IvPool {
    fn new(drbg: HmacDrbg) -> Self {
        IvPool {
            drbg,
            buf: [0; IV_POOL_LEN * 16],
            next: IV_POOL_LEN * 16,
        }
    }

    fn next_iv(&mut self) -> [u8; 16] {
        if self.next == self.buf.len() {
            self.drbg.fill(&mut self.buf);
            self.next = 0;
        }
        let iv = self.buf[self.next..self.next + 16]
            .try_into()
            .expect("16 bytes");
        self.next += 16;
        iv
    }
}

/// The chunk store's crypto state: derived keys and the IV generator.
pub struct CryptoCtx {
    mode: SecurityMode,
    cipher: Option<Aes128>,
    mac_secret: [u8; 32],
    /// HMAC keyed by `mac_secret`, cloned per tag (the pads are derived
    /// once per open, not once per commit record or anchor).
    mac: HmacSha256,
    ivs: Mutex<IvPool>,
}

impl CryptoCtx {
    /// Derive sub-keys from the platform secret. `iv_salt` should differ
    /// across database opens (e.g. the one-way counter value) so the IV
    /// stream never repeats even with a deterministic DRBG.
    pub fn new(mode: SecurityMode, secret_store: &dyn SecretStore, iv_salt: u64) -> Result<Self> {
        Self::with_domain(mode, secret_store, iv_salt, "tdb.chunk")
    }

    /// Like [`new`](Self::new) but with an explicit key-derivation domain,
    /// so other components (e.g. the backup store) get independent keys
    /// from the same platform secret.
    pub fn with_domain(
        mode: SecurityMode,
        secret_store: &dyn SecretStore,
        iv_salt: u64,
        domain: &str,
    ) -> Result<Self> {
        let master = secret_store.master_secret()?;
        let cipher = match mode {
            SecurityMode::Full => Some(Aes128::new(&derive_key(&master, &format!("{domain}.enc")))),
            SecurityMode::Off => None,
        };
        let mac_secret = derive_secret(&master, &format!("{domain}.mac"));
        let mut seed = Vec::with_capacity(40);
        seed.extend_from_slice(&derive_secret(&master, &format!("{domain}.iv")));
        seed.extend_from_slice(&iv_salt.to_le_bytes());
        Ok(CryptoCtx {
            mode,
            cipher,
            mac_secret,
            mac: HmacSha256::new(&mac_secret),
            ivs: Mutex::new(IvPool::new(HmacDrbg::new(&seed))),
        })
    }

    /// The mode this context operates in.
    pub fn mode(&self) -> SecurityMode {
        self.mode
    }

    /// Encrypt a payload for storage. In `Full` mode the result is
    /// `IV(16) || AES-CBC ciphertext`; in `Off` mode it is the payload
    /// verbatim.
    pub fn seal(&self, plain: &[u8]) -> Vec<u8> {
        match &self.cipher {
            Some(aes) => {
                let iv = self.ivs.lock().next_iv();
                let cipher = cbc_encrypt(aes, &iv, plain);
                let mut out = Vec::with_capacity(16 + cipher.len());
                out.extend_from_slice(&iv);
                out.extend_from_slice(&cipher);
                out
            }
            None => plain.to_vec(),
        }
    }

    /// Like [`seal`](Self::seal) but appends the sealed bytes to `out`
    /// instead of allocating a fresh vector, so the commit path can seal a
    /// whole batch of chunks into one arena. Returns the number of bytes
    /// appended (always [`sealed_len`](Self::sealed_len) of the input).
    pub fn seal_into(&self, plain: &[u8], out: &mut Vec<u8>) -> usize {
        match &self.cipher {
            Some(aes) => {
                let iv = self.ivs.lock().next_iv();
                out.extend_from_slice(&iv);
                16 + cbc_encrypt_into(aes, &iv, plain, out)
            }
            None => {
                out.extend_from_slice(plain);
                plain.len()
            }
        }
    }

    /// Inverse of [`seal`](Self::seal). A structurally invalid ciphertext is
    /// reported as tampering (the hash check normally fires first).
    pub fn open(&self, sealed: &[u8]) -> Result<Vec<u8>> {
        match &self.cipher {
            Some(aes) => {
                if sealed.len() < 16 + 16 {
                    return Err(ChunkStoreError::TamperDetected(
                        "sealed payload shorter than IV + one block".into(),
                    ));
                }
                let iv: [u8; 16] = sealed[..16].try_into().expect("16 bytes");
                cbc_decrypt(aes, &iv, &sealed[16..]).map_err(|_| {
                    ChunkStoreError::TamperDetected("ciphertext padding invalid".into())
                })
            }
            None => Ok(sealed.to_vec()),
        }
    }

    /// Number of stored bytes for a `plain_len`-byte payload.
    pub fn sealed_len(&self, plain_len: usize) -> usize {
        match self.mode {
            SecurityMode::Full => 16 + tdb_crypto::ciphertext_len(plain_len),
            SecurityMode::Off => plain_len,
        }
    }

    /// Digest of stored record bytes, kept in the location map. `Off` mode
    /// stores (and never checks) zeros, mirroring the paper's TDB-without-
    /// security configuration that skips hashing entirely.
    pub fn hash(&self, stored: &[u8]) -> Digest {
        match self.mode {
            SecurityMode::Full => sha256(stored),
            SecurityMode::Off => ZERO_DIGEST,
        }
    }

    /// Whether record hashes are verified on read.
    pub fn verifies_hashes(&self) -> bool {
        self.mode == SecurityMode::Full
    }

    /// Extend the commit chain: `chain' = H(prev || payload)`, keyed in
    /// `Full` mode.
    pub fn chain(&self, prev: &Digest, payload: &[u8]) -> Digest {
        match self.mode {
            SecurityMode::Full => {
                let mut mac = self.mac.clone();
                mac.update(prev);
                mac.update(payload);
                mac.finalize()
            }
            SecurityMode::Off => {
                let mut h = tdb_crypto::Sha256::new();
                h.update(prev);
                h.update(payload);
                h.finalize()
            }
        }
    }

    /// Authentication tag over the anchor bytes.
    pub fn anchor_tag(&self, bytes: &[u8]) -> Digest {
        self.anchor_tag_for_mode(self.mode, bytes)
    }

    /// Anchor tag as a store created in `mode` (with this context's key
    /// material) would have computed it. Lets anchor decoding authenticate a
    /// slot under its *claimed* mode before deciding whether a mode
    /// difference is a genuine configuration mismatch or tampering.
    pub fn anchor_tag_for_mode(&self, mode: SecurityMode, bytes: &[u8]) -> Digest {
        match mode {
            SecurityMode::Full => self.mac.mac(bytes),
            SecurityMode::Off => sha256(bytes),
        }
    }

    /// Constant-time-ish comparison for tags and hashes.
    pub fn tags_equal(a: &Digest, b: &Digest) -> bool {
        tdb_crypto::ct_eq(a, b)
    }

    /// The MAC secret proofs and attestations are minted under. A client
    /// holding this key (via a [`tdb_proof::TrustAnchor`]) can verify
    /// proofs — and also mint them, which is the paper's trust model: the
    /// key holder trusts itself; proofs convince the key holder that the
    /// *untrusted store* behaved.
    pub(crate) fn proof_mac_key(&self) -> &[u8; 32] {
        &self.mac_secret
    }

    /// [`proof_mac_key`](Self::proof_mac_key) as a keyed HMAC template.
    pub(crate) fn proof_mac(&self) -> &HmacSha256 {
        &self.mac
    }
}

/// The chunk store's crypto context *is* the slot sealer of the extracted
/// trust layer: both the anchor slots and the sharded root-of-roots frame
/// their bodies through this one implementation.
impl tdb_proof::SlotSealer for CryptoCtx {
    fn mode_tag(&self) -> u8 {
        self.mode.tag()
    }

    fn seal_body(&self, plain: &[u8]) -> Vec<u8> {
        self.seal(plain)
    }

    fn open_body(&self, sealed: &[u8]) -> std::result::Result<Vec<u8>, tdb_proof::SlotError> {
        self.open(sealed).map_err(|e| match e {
            ChunkStoreError::TamperDetected(m) => tdb_proof::SlotError::Tamper(m),
            ChunkStoreError::Platform(p) => tdb_proof::SlotError::Platform(p),
            other => tdb_proof::SlotError::Tamper(other.to_string()),
        })
    }

    fn tag_for_mode(&self, mode_tag: u8, bytes: &[u8]) -> Option<Digest> {
        SecurityMode::from_tag(mode_tag).map(|mode| self.anchor_tag_for_mode(mode, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_platform::MemSecretStore;

    fn ctx(mode: SecurityMode) -> CryptoCtx {
        CryptoCtx::new(mode, &MemSecretStore::from_label("ctx-test"), 1).unwrap()
    }

    #[test]
    fn full_mode_seal_roundtrip_and_randomized() {
        let c = ctx(SecurityMode::Full);
        let payload = b"meter=41".to_vec();
        let s1 = c.seal(&payload);
        let s2 = c.seal(&payload);
        assert_ne!(s1, s2, "fresh IV per seal");
        assert_eq!(c.open(&s1).unwrap(), payload);
        assert_eq!(c.open(&s2).unwrap(), payload);
        assert_eq!(s1.len(), c.sealed_len(payload.len()));
        // Ciphertext must not contain the plaintext.
        assert!(!s1.windows(payload.len()).any(|w| w == payload));
    }

    #[test]
    fn seal_into_appends_and_roundtrips() {
        for mode in [SecurityMode::Full, SecurityMode::Off] {
            let c = ctx(mode);
            let payload = b"meter=41 and then some longer payload".to_vec();
            let mut arena = b"existing".to_vec();
            let n = c.seal_into(&payload, &mut arena);
            assert_eq!(n, c.sealed_len(payload.len()));
            assert_eq!(&arena[..8], b"existing");
            assert_eq!(arena.len(), 8 + n);
            assert_eq!(c.open(&arena[8..]).unwrap(), payload);
        }
    }

    #[test]
    fn off_mode_is_passthrough() {
        let c = ctx(SecurityMode::Off);
        let payload = b"meter=41".to_vec();
        assert_eq!(c.seal(&payload), payload);
        assert_eq!(c.open(&payload).unwrap(), payload);
        assert_eq!(c.sealed_len(8), 8);
        assert_eq!(c.hash(&payload), ZERO_DIGEST);
        assert!(!c.verifies_hashes());
    }

    #[test]
    fn full_mode_hash_detects_bit_flip() {
        let c = ctx(SecurityMode::Full);
        let mut stored = c.seal(b"account balance: 100");
        let h = c.hash(&stored);
        stored[20] ^= 1;
        assert_ne!(c.hash(&stored), h);
    }

    #[test]
    fn open_rejects_truncated_ciphertext() {
        let c = ctx(SecurityMode::Full);
        let sealed = c.seal(b"data");
        assert!(matches!(
            c.open(&sealed[..10]),
            Err(ChunkStoreError::TamperDetected(_))
        ));
    }

    #[test]
    fn chain_depends_on_prev_and_payload_and_key() {
        let c = ctx(SecurityMode::Full);
        let c2 =
            CryptoCtx::new(SecurityMode::Full, &MemSecretStore::from_label("other"), 1).unwrap();
        let base = ZERO_DIGEST;
        let a = c.chain(&base, b"commit 1");
        assert_ne!(a, c.chain(&base, b"commit 2"));
        assert_ne!(a, c.chain(&a, b"commit 1"));
        assert_ne!(a, c2.chain(&base, b"commit 1"));
        // Off-mode chain is keyless but still input-sensitive.
        let off = ctx(SecurityMode::Off);
        assert_ne!(off.chain(&base, b"commit 1"), off.chain(&base, b"commit 2"));
    }

    #[test]
    fn different_iv_salt_gives_different_iv_stream() {
        let s = MemSecretStore::from_label("salted");
        let a = CryptoCtx::new(SecurityMode::Full, &s, 1).unwrap();
        let b = CryptoCtx::new(SecurityMode::Full, &s, 2).unwrap();
        assert_ne!(a.seal(b"x"), b.seal(b"x"));
    }

    /// The pool's first IV is the one a lone `gen_iv` on the same DRBG seed
    /// returns, which keeps anchor slots written by a fresh context
    /// byte-identical to those of the one-IV-per-call generator.
    #[test]
    fn first_pooled_iv_equals_gen_iv() {
        let store = MemSecretStore::from_label("ctx-test");
        let master = store.master_secret().unwrap();
        let mut seed = derive_secret(&master, "tdb.chunk.iv").to_vec();
        seed.extend_from_slice(&1u64.to_le_bytes());
        let sealed = ctx(SecurityMode::Full).seal(b"x");
        assert_eq!(sealed[..16], HmacDrbg::new(&seed).gen_iv());
    }

    #[test]
    fn pooled_ivs_never_repeat_within_or_across_salts() {
        let store = MemSecretStore::from_label("iv-pool");
        let draw = |salt: u64| {
            let c = CryptoCtx::new(SecurityMode::Full, &store, salt).unwrap();
            let mut pool = c.ivs.lock();
            (0..100_000)
                .map(|_| pool.next_iv())
                .collect::<std::collections::HashSet<_>>()
        };
        let a = draw(1);
        assert_eq!(a.len(), 100_000, "an IV repeated within one stream");
        let b = draw(2);
        assert_eq!(b.len(), 100_000);
        assert!(a.is_disjoint(&b), "two salts shared an IV");
    }

    #[test]
    fn anchor_tag_modes() {
        let full = ctx(SecurityMode::Full);
        let off = ctx(SecurityMode::Off);
        let t_full = full.anchor_tag(b"anchor");
        let t_off = off.anchor_tag(b"anchor");
        // Off mode is a plain hash: reproducible without the key.
        assert_eq!(t_off, sha256(b"anchor"));
        // The keyed template tags exactly as a one-shot HMAC would.
        assert_eq!(
            t_full,
            tdb_crypto::hmac_sha256(full.proof_mac_key(), b"anchor")
        );
        assert_ne!(t_full, t_off);
        assert!(CryptoCtx::tags_equal(&t_full, &full.anchor_tag(b"anchor")));
    }
}
