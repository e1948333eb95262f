//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! The chunk store MACs the trusted anchor (Merkle root + one-way counter)
//! with the secret-store key, and the backup store MACs backup manifests.
//! The paper phrases this as "signed with the secret key" — with a symmetric
//! key that is a MAC.

use crate::sha256::{Digest, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// Streaming HMAC-SHA-256 context.
///
/// Both pads are absorbed when the context is keyed: `inner` has taken the
/// ipad block and `outer` the opad block, so a clone of a freshly keyed
/// context is a *template* that MACs under a fixed key without re-deriving
/// the pads — a 32-byte message then costs two compressions instead of
/// four. Callers with a long-lived key keep one keyed context and clone it
/// per tag.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Create a context keyed by `key` (any length; longer than 64 bytes is
    /// hashed down first, per the spec).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = crate::sha256::sha256(key);
            k[..DIGEST_LEN].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut h = Sha256::new();
            h.update(&k.map(|b| b ^ byte));
            h
        };
        HmacSha256 {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produce the 32-byte tag.
    pub fn finalize(self) -> Digest {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// One-shot tag of `msg` under this context's key, leaving the context
    /// untouched (clone-and-finalize on a keyed template).
    pub fn mac(&self, msg: &[u8]) -> Digest {
        let mut m = self.clone();
        m.update(msg);
        m.finalize()
    }
}

/// One-shot HMAC-SHA-256.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Digest {
    let mut ctx = HmacSha256::new(key);
    ctx.update(msg);
    ctx.finalize()
}

/// Verify a tag in (near) constant time.
pub fn verify_hmac_sha256(key: &[u8], msg: &[u8], tag: &[u8]) -> bool {
    crate::ct_eq(&hmac_sha256(key, msg), tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let msg = [0xdd; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        assert_eq!(
            hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = [0xaa; 131];
        let msg = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        assert_eq!(
            hex(&hmac_sha256(&key, msg)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(verify_hmac_sha256(b"k", b"m", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!verify_hmac_sha256(b"k", b"m", &bad));
        assert!(!verify_hmac_sha256(b"k2", b"m", &tag));
        assert!(!verify_hmac_sha256(b"k", b"m2", &tag));
        assert!(!verify_hmac_sha256(b"k", b"m", &tag[..31]));
    }

    /// A keyed template cloned per message gives the one-shot tag on every
    /// RFC 4231 vector, and finalizing a clone leaves the template reusable.
    #[test]
    fn keyed_template_equals_oneshot_on_rfc4231() {
        let long_msg: &[u8] = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let cases: [(&[u8], &[u8]); 5] = [
            (&[0x0b; 20], b"Hi There"),
            (b"Jefe", b"what do ya want for nothing?"),
            (&[0xaa; 20], &[0xdd; 50]),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
            ),
            (&[0xaa; 131], long_msg),
        ];
        for (key, msg) in cases {
            let template = HmacSha256::new(key);
            for _ in 0..2 {
                assert_eq!(template.mac(msg), hmac_sha256(key, msg));
                let mut m = template.clone();
                let (a, b) = msg.split_at(msg.len() / 2);
                m.update(a);
                m.update(b);
                assert_eq!(m.finalize(), hmac_sha256(key, msg));
            }
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let mut ctx = HmacSha256::new(b"key");
        ctx.update(b"part one ");
        ctx.update(b"part two");
        assert_eq!(ctx.finalize(), hmac_sha256(b"key", b"part one part two"));
    }
}
