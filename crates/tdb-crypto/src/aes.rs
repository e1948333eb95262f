//! AES-128 block cipher (FIPS 197), implemented from scratch.
//!
//! TDB encrypts every chunk before it reaches the untrusted store. The paper
//! used 3DES; AES-128 is the modern equally-secure, faster substitute the
//! paper itself anticipates ("there are other algorithms that are as secure
//! as 3DES and run significantly faster", §7.3).
//!
//! Each round is one lookup per state byte into 256-entry `u32` tables
//! that fold `SubBytes` and `MixColumns` together (the "T-table" form of
//! the Rijndael proposal, §5.2.1), XORed per column with the round key.
//! Decryption is the equivalent inverse cipher of FIPS 197 §5.3.5, with its
//! own tables and round keys passed through `InvMixColumns` once, in
//! [`Aes128::new`]. Table lookups are indexed by secret bytes, so this is
//! not constant-time: it is not hardened against cache-timing side
//! channels — the paper's attacker controls storage, not the CPU.

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

/// An AES block.
pub type Block = [u8; BLOCK_LEN];

const ROUNDS: usize = 10; // AES-128

#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63,0x7c,0x77,0x7b,0xf2,0x6b,0x6f,0xc5,0x30,0x01,0x67,0x2b,0xfe,0xd7,0xab,0x76,
    0xca,0x82,0xc9,0x7d,0xfa,0x59,0x47,0xf0,0xad,0xd4,0xa2,0xaf,0x9c,0xa4,0x72,0xc0,
    0xb7,0xfd,0x93,0x26,0x36,0x3f,0xf7,0xcc,0x34,0xa5,0xe5,0xf1,0x71,0xd8,0x31,0x15,
    0x04,0xc7,0x23,0xc3,0x18,0x96,0x05,0x9a,0x07,0x12,0x80,0xe2,0xeb,0x27,0xb2,0x75,
    0x09,0x83,0x2c,0x1a,0x1b,0x6e,0x5a,0xa0,0x52,0x3b,0xd6,0xb3,0x29,0xe3,0x2f,0x84,
    0x53,0xd1,0x00,0xed,0x20,0xfc,0xb1,0x5b,0x6a,0xcb,0xbe,0x39,0x4a,0x4c,0x58,0xcf,
    0xd0,0xef,0xaa,0xfb,0x43,0x4d,0x33,0x85,0x45,0xf9,0x02,0x7f,0x50,0x3c,0x9f,0xa8,
    0x51,0xa3,0x40,0x8f,0x92,0x9d,0x38,0xf5,0xbc,0xb6,0xda,0x21,0x10,0xff,0xf3,0xd2,
    0xcd,0x0c,0x13,0xec,0x5f,0x97,0x44,0x17,0xc4,0xa7,0x7e,0x3d,0x64,0x5d,0x19,0x73,
    0x60,0x81,0x4f,0xdc,0x22,0x2a,0x90,0x88,0x46,0xee,0xb8,0x14,0xde,0x5e,0x0b,0xdb,
    0xe0,0x32,0x3a,0x0a,0x49,0x06,0x24,0x5c,0xc2,0xd3,0xac,0x62,0x91,0x95,0xe4,0x79,
    0xe7,0xc8,0x37,0x6d,0x8d,0xd5,0x4e,0xa9,0x6c,0x56,0xf4,0xea,0x65,0x7a,0xae,0x08,
    0xba,0x78,0x25,0x2e,0x1c,0xa6,0xb4,0xc6,0xe8,0xdd,0x74,0x1f,0x4b,0xbd,0x8b,0x8a,
    0x70,0x3e,0xb5,0x66,0x48,0x03,0xf6,0x0e,0x61,0x35,0x57,0xb9,0x86,0xc1,0x1d,0x9e,
    0xe1,0xf8,0x98,0x11,0x69,0xd9,0x8e,0x94,0x9b,0x1e,0x87,0xe9,0xce,0x55,0x28,0xdf,
    0x8c,0xa1,0x89,0x0d,0xbf,0xe6,0x42,0x68,0x41,0x99,0x2d,0x0f,0xb0,0x54,0xbb,0x16,
];

#[rustfmt::skip]
const INV_SBOX: [u8; 256] = [
    0x52,0x09,0x6a,0xd5,0x30,0x36,0xa5,0x38,0xbf,0x40,0xa3,0x9e,0x81,0xf3,0xd7,0xfb,
    0x7c,0xe3,0x39,0x82,0x9b,0x2f,0xff,0x87,0x34,0x8e,0x43,0x44,0xc4,0xde,0xe9,0xcb,
    0x54,0x7b,0x94,0x32,0xa6,0xc2,0x23,0x3d,0xee,0x4c,0x95,0x0b,0x42,0xfa,0xc3,0x4e,
    0x08,0x2e,0xa1,0x66,0x28,0xd9,0x24,0xb2,0x76,0x5b,0xa2,0x49,0x6d,0x8b,0xd1,0x25,
    0x72,0xf8,0xf6,0x64,0x86,0x68,0x98,0x16,0xd4,0xa4,0x5c,0xcc,0x5d,0x65,0xb6,0x92,
    0x6c,0x70,0x48,0x50,0xfd,0xed,0xb9,0xda,0x5e,0x15,0x46,0x57,0xa7,0x8d,0x9d,0x84,
    0x90,0xd8,0xab,0x00,0x8c,0xbc,0xd3,0x0a,0xf7,0xe4,0x58,0x05,0xb8,0xb3,0x45,0x06,
    0xd0,0x2c,0x1e,0x8f,0xca,0x3f,0x0f,0x02,0xc1,0xaf,0xbd,0x03,0x01,0x13,0x8a,0x6b,
    0x3a,0x91,0x11,0x41,0x4f,0x67,0xdc,0xea,0x97,0xf2,0xcf,0xce,0xf0,0xb4,0xe6,0x73,
    0x96,0xac,0x74,0x22,0xe7,0xad,0x35,0x85,0xe2,0xf9,0x37,0xe8,0x1c,0x75,0xdf,0x6e,
    0x47,0xf1,0x1a,0x71,0x1d,0x29,0xc5,0x89,0x6f,0xb7,0x62,0x0e,0xaa,0x18,0xbe,0x1b,
    0xfc,0x56,0x3e,0x4b,0xc6,0xd2,0x79,0x20,0x9a,0xdb,0xc0,0xfe,0x78,0xcd,0x5a,0xf4,
    0x1f,0xdd,0xa8,0x33,0x88,0x07,0xc7,0x31,0xb1,0x12,0x10,0x59,0x27,0x80,0xec,0x5f,
    0x60,0x51,0x7f,0xa9,0x19,0xb5,0x4a,0x0d,0x2d,0xe5,0x7a,0x9f,0x93,0xc9,0x9c,0xef,
    0xa0,0xe0,0x3b,0x4d,0xae,0x2a,0xf5,0xb0,0xc8,0xeb,0xbb,0x3c,0x83,0x53,0x99,0x61,
    0x17,0x2b,0x04,0x7e,0xba,0x77,0xd6,0x26,0xe1,0x69,0x14,0x63,0x55,0x21,0x0c,0x7d,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplication in GF(2^8) modulo the AES polynomial (table build only).
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = (a << 1) ^ (((a >> 7) & 1) * 0x1b);
        b >>= 1;
    }
    p
}

/// A column of four bytes, row 0 in the most significant byte.
const fn column(b0: u8, b1: u8, b2: u8, b3: u8) -> u32 {
    u32::from_be_bytes([b0, b1, b2, b3])
}

/// The four round tables of one direction: `t[r][x]` is the column that
/// byte `x` entering row `r` contributes after substitution through `sbox`
/// and column mixing by `mix` (the matrix's first column, top to bottom).
/// Row `r`'s table is row 0's rotated right by `8 * r` bits; keeping all
/// four (4 KiB per direction) instead of rotating one at run time measured
/// a median 15 % faster CBC encryption and 16 % faster decryption over ten
/// interleaved 1 MiB run pairs (2-vCPU x86-64).
const fn round_tables(sbox: &[u8; 256], mix: [u8; 4]) -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = sbox[x];
        let col = column(
            gmul(s, mix[0]),
            gmul(s, mix[1]),
            gmul(s, mix[2]),
            gmul(s, mix[3]),
        );
        t[0][x] = col;
        t[1][x] = col.rotate_right(8);
        t[2][x] = col.rotate_right(16);
        t[3][x] = col.rotate_right(24);
        x += 1;
    }
    t
}

/// `SubBytes` + `MixColumns`.
static TE: [[u32; 256]; 4] = round_tables(&SBOX, [2, 1, 1, 3]);
/// `InvSubBytes` + `InvMixColumns`.
static TD: [[u32; 256]; 4] = round_tables(&INV_SBOX, [0x0e, 0x09, 0x0d, 0x0b]);

/// One full round: row `r` of output column `c` comes from input column
/// `(c + shift[r]) % 4`, looked up in row `r`'s table.
#[inline(always)]
fn round(t: &[[u32; 256]; 4], s: [u32; 4], shift: [usize; 4], rk: &[u32; 4]) -> [u32; 4] {
    let col = |c: usize| {
        t[0][(s[c] >> 24) as usize]
            ^ t[1][((s[(c + shift[1]) & 3] >> 16) & 0xff) as usize]
            ^ t[2][((s[(c + shift[2]) & 3] >> 8) & 0xff) as usize]
            ^ t[3][(s[(c + shift[3]) & 3] & 0xff) as usize]
    };
    [
        col(0) ^ rk[0],
        col(1) ^ rk[1],
        col(2) ^ rk[2],
        col(3) ^ rk[3],
    ]
}

/// The last round: substitution and row shift only, no column mixing.
#[inline(always)]
fn last_round(sbox: &[u8; 256], s: [u32; 4], shift: [usize; 4], rk: &[u32; 4]) -> [u32; 4] {
    let col = |c: usize| {
        column(
            sbox[(s[c] >> 24) as usize],
            sbox[((s[(c + shift[1]) & 3] >> 16) & 0xff) as usize],
            sbox[((s[(c + shift[2]) & 3] >> 8) & 0xff) as usize],
            sbox[(s[(c + shift[3]) & 3] & 0xff) as usize],
        )
    };
    [
        col(0) ^ rk[0],
        col(1) ^ rk[1],
        col(2) ^ rk[2],
        col(3) ^ rk[3],
    ]
}

/// `ShiftRows`: row `r` of output column `c` comes from column `c + r`.
const SHIFT: [usize; 4] = [0, 1, 2, 3];
/// `InvShiftRows`: row `r` of output column `c` comes from column `c - r`.
const INV_SHIFT: [usize; 4] = [0, 3, 2, 1];

/// An expanded AES-128 key schedule, usable for both encryption and
/// decryption.
#[derive(Clone)]
pub struct Aes128 {
    /// Encryption round keys, one column per word.
    ek: [[u32; 4]; ROUNDS + 1],
    /// Round keys of the equivalent inverse cipher (FIPS 197 §5.3.5): the
    /// encryption keys in reverse round order, the inner nine rounds passed
    /// through `InvMixColumns`.
    dk: [[u32; 4]; ROUNDS + 1],
}

impl Aes128 {
    /// Expand a 16-byte key.
    pub fn new(key: &crate::Key) -> Self {
        let mut w = [0u32; 4 * (ROUNDS + 1)];
        for (i, word) in w.iter_mut().take(4).enumerate() {
            *word = u32::from_be_bytes(key[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        for i in 4..w.len() {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                let [a, b, c, d] = temp.rotate_left(8).to_be_bytes();
                temp = column(
                    SBOX[a as usize],
                    SBOX[b as usize],
                    SBOX[c as usize],
                    SBOX[d as usize],
                ) ^ ((RCON[i / 4 - 1] as u32) << 24);
            }
            w[i] = w[i - 4] ^ temp;
        }
        let mut ek = [[0u32; 4]; ROUNDS + 1];
        let mut dk = [[0u32; 4]; ROUNDS + 1];
        for r in 0..=ROUNDS {
            ek[r].copy_from_slice(&w[4 * r..4 * r + 4]);
            for c in 0..4 {
                let k = w[4 * (ROUNDS - r) + c];
                dk[r][c] = if r == 0 || r == ROUNDS {
                    k
                } else {
                    // TD[row][SBOX[x]] is InvMixColumns of x entering `row`.
                    (0..4).fold(0, |acc, row| {
                        let x = (k >> (24 - 8 * row)) & 0xff;
                        acc ^ TD[row][SBOX[x as usize] as usize]
                    })
                };
            }
        }
        Aes128 { ek, dk }
    }

    /// Encrypt one block held as four big-endian columns.
    #[inline]
    pub(crate) fn encrypt_words(&self, block: [u32; 4]) -> [u32; 4] {
        let k = &self.ek;
        let mut s = [0, 1, 2, 3].map(|c| block[c] ^ k[0][c]);
        for rk in &k[1..ROUNDS] {
            s = round(&TE, s, SHIFT, rk);
        }
        last_round(&SBOX, s, SHIFT, &k[ROUNDS])
    }

    /// Decrypt one block held as four big-endian columns.
    #[inline]
    pub(crate) fn decrypt_words(&self, block: [u32; 4]) -> [u32; 4] {
        let k = &self.dk;
        let mut s = [0, 1, 2, 3].map(|c| block[c] ^ k[0][c]);
        for rk in &k[1..ROUNDS] {
            s = round(&TD, s, INV_SHIFT, rk);
        }
        last_round(&INV_SBOX, s, INV_SHIFT, &k[ROUNDS])
    }

    /// Encrypt a single 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut Block) {
        let out = self.encrypt_words(load_words(block));
        store_words(block, out);
    }

    /// Decrypt a single 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut Block) {
        let out = self.decrypt_words(load_words(block));
        store_words(block, out);
    }
}

/// A 16-byte block as four big-endian columns.
#[inline]
pub(crate) fn load_words(bytes: &[u8]) -> [u32; 4] {
    let mut w = [0u32; 4];
    for (c, word) in w.iter_mut().enumerate() {
        *word = u32::from_be_bytes(bytes[c * 4..c * 4 + 4].try_into().expect("4 bytes"));
    }
    w
}

/// Inverse of [`load_words`].
#[inline]
pub(crate) fn store_words(bytes: &mut [u8], w: [u32; 4]) {
    for (c, word) in w.iter().enumerate() {
        bytes[c * 4..c * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_to_16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap();
        }
        out
    }

    // FIPS 197 Appendix B example.
    #[test]
    fn fips197_appendix_b() {
        let key = hex_to_16("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = Aes128::new(&key);
        let mut block = hex_to_16("3243f6a8885a308d313198a2e0370734");
        aes.encrypt_block(&mut block);
        assert_eq!(block, hex_to_16("3925841d02dc09fbdc118597196a0b32"));
        aes.decrypt_block(&mut block);
        assert_eq!(block, hex_to_16("3243f6a8885a308d313198a2e0370734"));
    }

    // FIPS 197 Appendix C.1 known-answer test.
    #[test]
    fn fips197_appendix_c1() {
        let key = hex_to_16("000102030405060708090a0b0c0d0e0f");
        let aes = Aes128::new(&key);
        let mut block = hex_to_16("00112233445566778899aabbccddeeff");
        aes.encrypt_block(&mut block);
        assert_eq!(block, hex_to_16("69c4e0d86a7b0430d8cdb78070b4c55a"));
        aes.decrypt_block(&mut block);
        assert_eq!(block, hex_to_16("00112233445566778899aabbccddeeff"));
    }

    // NIST SP 800-38A ECB-AES128 vectors.
    #[test]
    fn sp800_38a_ecb() {
        let key = hex_to_16("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = Aes128::new(&key);
        let cases = [
            (
                "6bc1bee22e409f96e93d7e117393172a",
                "3ad77bb40d7a3660a89ecaf32466ef97",
            ),
            (
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "f5d3d58503b9699de785895a96fdbaaf",
            ),
            (
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "43b1cd7f598ece23881b00e3ed030688",
            ),
            (
                "f69f2445df4f9b17ad2b417be66c3710",
                "7b0c785e27e8ad3f8223207104725dd4",
            ),
        ];
        for (pt, ct) in cases {
            let mut block = hex_to_16(pt);
            aes.encrypt_block(&mut block);
            assert_eq!(block, hex_to_16(ct));
            aes.decrypt_block(&mut block);
            assert_eq!(block, hex_to_16(pt));
        }
    }

    /// 10 000 chained blocks through both directions, re-keying from the
    /// running ciphertext every 1 000 steps, folded into one SHA-256. The
    /// pinned digest was captured from the byte-wise reference cipher (S-box,
    /// shift-rows, `gmul` mix-columns) before the T-table rewrite, so any
    /// drift in either table, the key schedule or the equivalent inverse
    /// cipher's round keys shows here.
    #[test]
    fn chain_digest_is_pinned() {
        let mut aes = Aes128::new(&[0u8; 16]);
        let mut block = [0u8; 16];
        let mut h = crate::Sha256::new();
        for i in 0u32..10_000 {
            aes.encrypt_block(&mut block);
            h.update(&block);
            let mut back = block;
            back[(i % 16) as usize] ^= 0x5a;
            aes.decrypt_block(&mut back);
            h.update(&back);
            if i % 1_000 == 999 {
                aes = Aes128::new(&block);
            }
        }
        let hex: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "3f01979b6e6204458cf7fc5e9747696a359e903ae833057ba29048391eb1f360"
        );
    }

    #[test]
    fn roundtrip_random_blocks() {
        // Deterministic pseudo-random walk, no external RNG needed.
        let key = [0x42u8; 16];
        let aes = Aes128::new(&key);
        let mut block = [0u8; 16];
        for round in 0u32..100 {
            for (i, b) in block.iter_mut().enumerate() {
                *b = b.wrapping_add((round as u8).wrapping_mul(31).wrapping_add(i as u8));
            }
            let original = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, original);
            let mut copy = block;
            aes.decrypt_block(&mut copy);
            assert_eq!(copy, original);
        }
    }
}
