//! Seeded input generation. The benchmark takes its seed as an argument and
//! the program under test only ever sees the operations generated here:
//! the same seed gives the same streams.

/// splitmix64: small, fast, and stable across toolchains — the op streams
/// must not change when a dependency does.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, lane)`.
    pub fn for_lane(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-distributed keys over `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^theta`, then scattered over the key space
/// so hot keys do not share index leaves.
pub struct Zipf {
    cdf: Vec<f64>,
    n: u32,
    stride: u32,
}

impl Zipf {
    pub fn new(n: u32, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / f64::from(r + 1).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        // A stride coprime to n makes rank -> key a permutation.
        let mut stride = (f64::from(n) * 0.618_033_988_75) as u32 | 1;
        while gcd(stride, n) != 1 {
            stride += 2;
        }
        Zipf { cdf, n, stride }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.n as usize - 1) as u64;
        (rank * u64::from(self.stride) % u64::from(self.n)) as u32
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A TPC-B transfer: add `delta` to one account, teller and branch and
/// append a history record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    pub account: u32,
    pub teller: u32,
    pub branch: u32,
    pub delta: i64,
}

/// Keys per range query.
pub const RANGE_LEN: u32 = 50;
/// Point reads per snapshot read transaction.
pub const READS_PER_TXN: usize = 4;

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Transfer(Transfer),
    /// Snapshot read transaction: point reads, optionally one range query
    /// of [`RANGE_LEN`] keys starting at `range_start`.
    Read {
        keys: [u32; READS_PER_TXN],
        range_start: Option<u32>,
    },
    /// Verified lookup of `key`; keys at or past the table size are absent.
    ProofLookup {
        key: u32,
    },
}

/// What a workload's clients do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Transfers only, uniform keys.
    Transfer,
    /// 90 % snapshot read transactions over Zipf(0.9) keys (every tenth
    /// with a range query), 10 % transfers on Zipf accounts.
    ReadMostly,
    /// Twenty verified lookups (one in five on an absent key), then one
    /// transfer, repeating.
    ProofLookup,
}

/// Table sizes the generator draws keys from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub accounts: u32,
    pub tellers: u32,
    pub branches: u32,
}

/// Lookups between two transfers in [`Mix::ProofLookup`].
pub const LOOKUPS_PER_TRANSFER: usize = 20;

fn transfer(rng: &mut Rng, sizes: Sizes, account: u32) -> Transfer {
    Transfer {
        account,
        teller: rng.below(sizes.tellers),
        branch: rng.below(sizes.branches),
        // TPC-B deltas: uniform in [-999999, 999999].
        delta: i64::from(rng.below(1_999_999)) - 999_999,
    }
}

/// Generate one client's stream of `len` operations.
pub fn stream(mix: Mix, sizes: Sizes, seed: u64, lane: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::for_lane(seed, lane);
    let mut ops = Vec::with_capacity(len);
    match mix {
        Mix::Transfer => {
            for _ in 0..len {
                let account = rng.below(sizes.accounts);
                ops.push(Op::Transfer(transfer(&mut rng, sizes, account)));
            }
        }
        Mix::ReadMostly => {
            let zipf = Zipf::new(sizes.accounts, 0.9);
            let mut reads = 0u64;
            for _ in 0..len {
                if rng.below(10) == 0 {
                    let account = zipf.sample(&mut rng);
                    ops.push(Op::Transfer(transfer(&mut rng, sizes, account)));
                } else {
                    let mut keys = [0; READS_PER_TXN];
                    for k in &mut keys {
                        *k = zipf.sample(&mut rng);
                    }
                    reads += 1;
                    let range_start = reads
                        .is_multiple_of(10)
                        .then(|| zipf.sample(&mut rng).min(sizes.accounts - RANGE_LEN));
                    ops.push(Op::Read { keys, range_start });
                }
            }
        }
        Mix::ProofLookup => {
            for i in 0..len {
                if i % (LOOKUPS_PER_TRANSFER + 1) == LOOKUPS_PER_TRANSFER {
                    let account = rng.below(sizes.accounts);
                    ops.push(Op::Transfer(transfer(&mut rng, sizes, account)));
                } else {
                    let absent = rng.below(5) == 0;
                    let key = rng.below(sizes.accounts) + if absent { sizes.accounts } else { 0 };
                    ops.push(Op::ProofLookup { key });
                }
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: Sizes = Sizes {
        accounts: 1000,
        tellers: 20,
        branches: 5,
    };

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for mix in [Mix::Transfer, Mix::ReadMostly, Mix::ProofLookup] {
            let a = stream(mix, SIZES, 7, 0, 500);
            assert_eq!(a, stream(mix, SIZES, 7, 0, 500));
            assert_ne!(a, stream(mix, SIZES, 8, 0, 500));
            assert_ne!(a, stream(mix, SIZES, 7, 1, 500));
        }
    }

    #[test]
    fn keys_stay_inside_their_tables() {
        for op in stream(Mix::ReadMostly, SIZES, 3, 0, 5000) {
            match op {
                Op::Transfer(t) => {
                    assert!(t.account < 1000 && t.teller < 20 && t.branch < 5);
                    assert!((-999_999..=999_999).contains(&t.delta));
                }
                Op::Read { keys, range_start } => {
                    assert!(keys.iter().all(|&k| k < 1000));
                    if let Some(s) = range_start {
                        assert!(s + RANGE_LEN <= 1000);
                    }
                }
                Op::ProofLookup { .. } => panic!("no lookups in the read mix"),
            }
        }
    }

    #[test]
    fn read_mix_is_ninety_ten_with_a_range_every_tenth_read() {
        let ops = stream(Mix::ReadMostly, SIZES, 11, 0, 20_000);
        let transfers = ops.iter().filter(|o| matches!(o, Op::Transfer(_))).count();
        assert!((1700..2300).contains(&transfers), "{transfers} transfers");
        let reads = ops.len() - transfers;
        let ranges = ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Op::Read {
                        range_start: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(ranges, reads / 10);
    }

    #[test]
    fn proof_mix_commits_after_every_twenty_lookups() {
        let ops = stream(Mix::ProofLookup, SIZES, 5, 0, 2100);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(matches!(op, Op::Transfer(_)), i % 21 == 20, "op {i}");
        }
        let absent = ops
            .iter()
            .filter(|o| matches!(o, Op::ProofLookup { key } if *key >= 1000))
            .count();
        assert!((300..500).contains(&absent), "{absent} absent of 2000");
    }

    #[test]
    fn zipf_is_skewed_and_a_permutation() {
        let z = Zipf::new(1000, 0.9);
        let mut rng = Rng::for_lane(1, 0);
        let mut hits = vec![0u32; 1000];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        let mut sorted = hits.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = sorted[..10].iter().sum();
        assert!(top10 > 25_000, "top ten keys drew {top10} of 100000");
        assert!(hits.iter().filter(|&&h| h > 0).count() > 900);
        // rank 0 maps to key 0, and the hottest key is it.
        assert_eq!(hits.iter().max(), Some(&hits[0]));
    }
}
