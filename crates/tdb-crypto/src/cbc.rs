//! AES-128-CBC with PKCS#7 padding.
//!
//! Chunk payloads are variable-sized byte strings; CBC + PKCS#7 rounds them
//! up to the 16-byte block size. The padding overhead is part of what the
//! paper measures for TDB-S (encryption padding makes TDB-S write more bytes
//! per transaction than plain TDB, §7.4).

use crate::aes::{load_words, store_words, Aes128, Block, BLOCK_LEN};

/// Error returned when decryption fails structurally (bad length or padding).
///
/// In the chunk store this is always accompanied by a hash mismatch and is
/// surfaced as tamper detection; the padding check is a backstop, not an
/// authenticity mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbcError;

impl std::fmt::Display for CbcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CBC decryption failed: invalid length or padding")
    }
}

impl std::error::Error for CbcError {}

/// Number of ciphertext bytes produced for a plaintext of `plain_len` bytes
/// (PKCS#7 always adds 1..=16 bytes of padding).
pub fn ciphertext_len(plain_len: usize) -> usize {
    (plain_len / BLOCK_LEN + 1) * BLOCK_LEN
}

/// Encrypt `plain` under `aes` with the given 16-byte IV.
///
/// Returns `iv-less` ciphertext; the caller stores the IV alongside (the
/// chunk store places it in the chunk header).
pub fn cbc_encrypt(aes: &Aes128, iv: &Block, plain: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ciphertext_len(plain.len()));
    cbc_encrypt_into(aes, iv, plain, &mut out);
    out
}

/// Encrypt `plain` directly into `out` (appending), avoiding the
/// intermediate ciphertext allocation of [`cbc_encrypt`]. Returns the
/// number of bytes appended (always [`ciphertext_len`] of the input).
pub fn cbc_encrypt_into(aes: &Aes128, iv: &Block, plain: &[u8], out: &mut Vec<u8>) -> usize {
    let start = out.len();
    let out_len = ciphertext_len(plain.len());
    out.reserve(out_len);
    out.extend_from_slice(plain);
    // PKCS#7 pad.
    let pad = (out_len - plain.len()) as u8;
    out.resize(start + out_len, pad);

    let mut prev = load_words(iv);
    for chunk in out[start..].chunks_exact_mut(BLOCK_LEN) {
        let mut block = load_words(chunk);
        for (b, p) in block.iter_mut().zip(prev) {
            *b ^= p;
        }
        prev = aes.encrypt_words(block);
        store_words(chunk, prev);
    }
    out_len
}

/// Decrypt `cipher` under `aes` with the given IV and strip PKCS#7 padding.
pub fn cbc_decrypt(aes: &Aes128, iv: &Block, cipher: &[u8]) -> Result<Vec<u8>, CbcError> {
    if cipher.is_empty() || !cipher.len().is_multiple_of(BLOCK_LEN) {
        return Err(CbcError);
    }
    let mut out = vec![0u8; cipher.len()];
    let mut prev = load_words(iv);
    for (chunk, dst) in cipher
        .chunks_exact(BLOCK_LEN)
        .zip(out.chunks_exact_mut(BLOCK_LEN))
    {
        let this_cipher = load_words(chunk);
        let mut block = aes.decrypt_words(this_cipher);
        for (b, p) in block.iter_mut().zip(prev) {
            *b ^= p;
        }
        store_words(dst, block);
        prev = this_cipher;
    }
    let pad = *out.last().expect("non-empty") as usize;
    if pad == 0 || pad > BLOCK_LEN || pad > out.len() {
        return Err(CbcError);
    }
    if out[out.len() - pad..].iter().any(|&b| b as usize != pad) {
        return Err(CbcError);
    }
    out.truncate(out.len() - pad);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap())
            .collect()
    }

    // NIST SP 800-38A F.2.1 CBC-AES128.Encrypt (no padding in the vector, so
    // we check our ciphertext prefix block-by-block).
    #[test]
    fn sp800_38a_cbc_prefix() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let iv: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let pt = hex("6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710");
        let expect = hex("7649abac8119b246cee98e9b12e9197d\
             5086cb9b507219ee95db113a917678b2\
             73bed6b8e3c1743b7116e69e22229516\
             3ff1caa1681fac09120eca307586e1a7");
        let aes = Aes128::new(&key);
        let ct = cbc_encrypt(&aes, &iv, &pt);
        // Our output has one extra padding block at the end.
        assert_eq!(ct.len(), expect.len() + BLOCK_LEN);
        assert_eq!(&ct[..expect.len()], &expect[..]);
        let round = cbc_decrypt(&aes, &iv, &ct).unwrap();
        assert_eq!(round, pt);
    }

    // NIST SP 800-38A F.2.2 CBC-AES128.Decrypt, block by block through the
    // decryption direction alone (P_i = D(C_i) xor C_{i-1}), then the whole
    // vector through `cbc_decrypt` with our PKCS#7 block appended.
    #[test]
    fn sp800_38a_cbc_decrypt() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let iv = hex("000102030405060708090a0b0c0d0e0f");
        let ct = hex("7649abac8119b246cee98e9b12e9197d\
             5086cb9b507219ee95db113a917678b2\
             73bed6b8e3c1743b7116e69e22229516\
             3ff1caa1681fac09120eca307586e1a7");
        let pt = hex("6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710");
        let aes = Aes128::new(&key);
        let mut prev = &iv[..];
        for (c, p) in ct.chunks(16).zip(pt.chunks(16)) {
            let mut block: Block = c.try_into().unwrap();
            aes.decrypt_block(&mut block);
            for (b, x) in block.iter_mut().zip(prev) {
                *b ^= x;
            }
            assert_eq!(&block[..], p);
            prev = c;
        }
        let mut padded = ct.clone();
        let mut pad: Block = [16u8; 16];
        for (b, x) in pad.iter_mut().zip(&ct[ct.len() - 16..]) {
            *b ^= x;
        }
        aes.encrypt_block(&mut pad);
        padded.extend_from_slice(&pad);
        let iv: Block = iv.try_into().unwrap();
        assert_eq!(cbc_decrypt(&aes, &iv, &padded).unwrap(), pt);
    }

    #[test]
    fn roundtrip_all_lengths_0_to_64() {
        let aes = Aes128::new(&[9u8; 16]);
        let iv = [3u8; 16];
        for len in 0..=64 {
            let pt: Vec<u8> = (0..len as u8).collect();
            let ct = cbc_encrypt(&aes, &iv, &pt);
            assert_eq!(ct.len(), ciphertext_len(len));
            assert_eq!(cbc_decrypt(&aes, &iv, &ct).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn encrypt_into_appends_and_matches_encrypt() {
        let aes = Aes128::new(&[9u8; 16]);
        let iv = [3u8; 16];
        for len in [0usize, 1, 15, 16, 17, 64, 100] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut out = b"prefix".to_vec();
            let n = cbc_encrypt_into(&aes, &iv, &pt, &mut out);
            assert_eq!(n, ciphertext_len(len));
            assert_eq!(&out[..6], b"prefix");
            assert_eq!(&out[6..], &cbc_encrypt(&aes, &iv, &pt)[..], "len {len}");
        }
    }

    #[test]
    fn ciphertext_len_is_always_next_block_multiple() {
        assert_eq!(ciphertext_len(0), 16);
        assert_eq!(ciphertext_len(1), 16);
        assert_eq!(ciphertext_len(15), 16);
        assert_eq!(ciphertext_len(16), 32);
        assert_eq!(ciphertext_len(17), 32);
        assert_eq!(ciphertext_len(100), 112);
    }

    #[test]
    fn decrypt_rejects_bad_lengths() {
        let aes = Aes128::new(&[0u8; 16]);
        let iv = [0u8; 16];
        assert_eq!(cbc_decrypt(&aes, &iv, &[]), Err(CbcError));
        assert_eq!(cbc_decrypt(&aes, &iv, &[0u8; 15]), Err(CbcError));
        assert_eq!(cbc_decrypt(&aes, &iv, &[0u8; 17]), Err(CbcError));
    }

    #[test]
    fn decrypt_rejects_garbage_padding() {
        let aes = Aes128::new(&[0u8; 16]);
        let iv = [0u8; 16];
        // A random block will decrypt to garbage padding with probability
        // ~255/256; this particular constant does.
        let mut hits = 0;
        for seed in 0u8..8 {
            let ct = [seed.wrapping_mul(37); 16];
            if cbc_decrypt(&aes, &iv, &ct).is_err() {
                hits += 1;
            }
        }
        assert!(hits >= 7, "almost all garbage blocks must fail padding");
    }

    #[test]
    fn wrong_iv_changes_first_block_only() {
        let aes = Aes128::new(&[5u8; 16]);
        let pt = vec![0xABu8; 48];
        let ct = cbc_encrypt(&aes, &[1u8; 16], &pt);
        // Decrypting with a different IV garbles only the first block.
        if let Ok(out) = cbc_decrypt(&aes, &[2u8; 16], &ct) {
            assert_ne!(&out[..16], &pt[..16]);
            assert_eq!(&out[16..48], &pt[16..48]);
        }
        // (Padding may or may not survive; both outcomes are acceptable.)
    }

    #[test]
    fn same_plaintext_different_iv_different_ciphertext() {
        let aes = Aes128::new(&[5u8; 16]);
        let pt = b"usage meter state".to_vec();
        let c1 = cbc_encrypt(&aes, &[1u8; 16], &pt);
        let c2 = cbc_encrypt(&aes, &[2u8; 16], &pt);
        assert_ne!(c1, c2, "IV must randomize ciphertext (traffic analysis)");
    }
}
