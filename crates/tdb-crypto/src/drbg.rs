//! HMAC-DRBG (NIST SP 800-90A, HMAC-SHA-256 instantiation).
//!
//! The chunk store needs a fresh IV for every chunk encryption so that
//! rewriting the same object state never produces linkable ciphertext
//! (the paper's traffic-analysis concern, §3.2.1). A deterministic DRBG
//! seeded from the secret store plus per-open entropy (time + counter value)
//! provides that without an OS RNG dependency, which also keeps replay of
//! IV sequences across database reopens impossible in tests.

use crate::hmac::{hmac_sha256, HmacSha256};
use crate::sha256::DIGEST_LEN;

/// HMAC-DRBG state (K, V) per SP 800-90A §10.1.2.
pub struct HmacDrbg {
    k: [u8; DIGEST_LEN],
    v: [u8; DIGEST_LEN],
    reseed_counter: u64,
}

impl HmacDrbg {
    /// Instantiate from seed material (entropy || nonce || personalization).
    pub fn new(seed: &[u8]) -> Self {
        let mut drbg = HmacDrbg {
            k: [0u8; DIGEST_LEN],
            v: [1u8; DIGEST_LEN],
            reseed_counter: 1,
        };
        drbg.update(Some(seed));
        drbg
    }

    /// Mix additional entropy into the state.
    pub fn reseed(&mut self, entropy: &[u8]) {
        self.update(Some(entropy));
        self.reseed_counter = 1;
    }

    fn update(&mut self, provided: Option<&[u8]>) {
        let mut msg = Vec::with_capacity(DIGEST_LEN + 1 + provided.map_or(0, |p| p.len()));
        msg.extend_from_slice(&self.v);
        msg.push(0x00);
        if let Some(p) = provided {
            msg.extend_from_slice(p);
        }
        self.k = hmac_sha256(&self.k, &msg);
        self.v = hmac_sha256(&self.k, &self.v);
        if let Some(p) = provided {
            let mut msg = Vec::with_capacity(DIGEST_LEN + 1 + p.len());
            msg.extend_from_slice(&self.v);
            msg.push(0x01);
            msg.extend_from_slice(p);
            self.k = hmac_sha256(&self.k, &msg);
            self.v = hmac_sha256(&self.k, &self.v);
        }
    }

    /// Fill `out` with pseudo-random bytes: one SP 800-90A generate call
    /// (the standard allows up to 2^19 bits, 64 KiB, per call). `K` is
    /// fixed for the whole output, so the loop clones one keyed HMAC
    /// instead of re-keying per 32-byte block.
    pub fn fill(&mut self, out: &mut [u8]) {
        let keyed = HmacSha256::new(&self.k);
        for block in out.chunks_mut(DIGEST_LEN) {
            self.v = keyed.mac(&self.v);
            block.copy_from_slice(&self.v[..block.len()]);
        }
        self.update(None);
        self.reseed_counter += 1;
    }

    /// Generate a 16-byte IV.
    pub fn gen_iv(&mut self) -> [u8; 16] {
        let mut iv = [0u8; 16];
        self.fill(&mut iv);
        iv
    }

    /// Generate a u64 (used by tests and workload seeding helpers).
    pub fn gen_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_le_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // NIST CAVP HMAC_DRBG SHA-256 vector (no reseed, no additional input).
    // EntropyInput || Nonce used as seed; PersonalizationString empty.
    #[test]
    fn cavp_vector_no_reseed() {
        let entropy = "ca851911349384bffe89de1cbdc46e6831e44d34a4fb935ee285dd14b71a7488";
        let nonce = "659ba96c601dc69fc902940805ec0ca8";
        let expected = "e528e9abf2dece54d47c7e75e5fe302149f817ea9fb4bee6f4199697d04d5b89\
                        d54fbb978a15b5c443c9ec21036d2460b6f73ebad0dc2aba6e624abf07745bc1\
                        07694bb7547bb0995f70de25d6b29e2d3011bb19d27676c07162c8b5ccde0668\
                        961df86803482cb37ed6d5c0bb8d50cf1f50d476aa0458bdaba806f48be9dcb8";
        let mut seed = Vec::new();
        seed.extend_from_slice(&hex_to_bytes(entropy));
        seed.extend_from_slice(&hex_to_bytes(nonce));
        let mut drbg = HmacDrbg::new(&seed);
        let mut out = vec![0u8; 128];
        drbg.fill(&mut out); // first generate call is discarded per CAVP
        drbg.fill(&mut out);
        assert_eq!(hex(&out), expected.replace(char::is_whitespace, ""));
    }

    fn hex_to_bytes(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = HmacDrbg::new(b"seed");
        let mut b = HmacDrbg::new(b"seed");
        assert_eq!(a.gen_iv(), b.gen_iv());
        assert_eq!(a.gen_u64(), b.gen_u64());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HmacDrbg::new(b"seed-a");
        let mut b = HmacDrbg::new(b"seed-b");
        assert_ne!(a.gen_iv(), b.gen_iv());
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = HmacDrbg::new(b"seed");
        let mut b = HmacDrbg::new(b"seed");
        b.reseed(b"more entropy");
        assert_ne!(a.gen_iv(), b.gen_iv());
    }

    #[test]
    fn successive_ivs_are_distinct() {
        let mut drbg = HmacDrbg::new(b"iv stream");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(drbg.gen_iv()), "IV repeated");
        }
    }

    #[test]
    fn fill_spanning_multiple_hmac_blocks() {
        let mut drbg = HmacDrbg::new(b"x");
        let mut out = vec![0u8; 100]; // not a multiple of 32
        drbg.fill(&mut out);
        assert!(out.iter().any(|&b| b != 0));
    }
}
