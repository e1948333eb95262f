//! Statistics the benchmark reports: percentiles with the "at least ten
//! samples beyond" rule, medians of time slices, quartile spreads, and
//! per-operation ratios that carry their base.

/// Median of a sample (mean of the two middle values for an even count).
/// Returns 0.0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Value at quantile `q` (0..=1) of an ascending-sorted sample: the
/// smallest value with at least `q` of the sample at or below it.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a sample of `n` supports: `want` (e.g. 0.99) if at
/// least ten samples lie beyond it, otherwise the highest quantile that
/// still leaves ten beyond. `None` when the sample has no such quantile
/// above the median (fewer than twenty samples).
pub fn supported_tail(n: usize, want: f64) -> Option<f64> {
    const BEYOND: usize = 10;
    if n < 2 * BEYOND {
        return None;
    }
    let highest = (n - BEYOND) as f64 / n as f64;
    Some(want.min(highest))
}

/// A tail latency together with the percentile it was actually taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile used (0.99 when the sample supports it).
    pub q: f64,
    /// The value at that quantile.
    pub value: u64,
}

impl Tail {
    /// `p99`, `p98.6`, ... — the name printed beside the value.
    pub fn name(&self) -> String {
        let pct = self.q * 100.0;
        if (pct - pct.round()).abs() < 0.05 {
            format!("p{:.0}", pct)
        } else {
            format!("p{:.1}", pct)
        }
    }
}

/// Tail latency of an ascending-sorted sample under the ten-beyond rule.
/// Falls back to the maximum when the sample is too small to support any
/// tail percentile.
pub fn tail_sorted(sorted: &[u64], want: f64) -> Tail {
    match supported_tail(sorted.len(), want) {
        Some(q) => Tail {
            q,
            value: quantile_sorted(sorted, q),
        },
        None => Tail {
            q: 1.0,
            value: sorted.last().copied().unwrap_or(0),
        },
    }
}

/// Completed operations per slice: how many `times` fall in each of
/// `slices` slices of `slice_len`. Times at or beyond the last slice are
/// ignored, so a partly filled slice never drags the median of the counts
/// (the "median of slices" throughput is `median` over this).
pub fn counts_per_slice(
    times: impl Iterator<Item = u64>,
    slice_len: u64,
    slices: usize,
) -> Vec<u64> {
    let mut counts = vec![0u64; slices];
    for t in times {
        let i = (t / slice_len.max(1)) as usize;
        if i < slices {
            counts[i] += 1;
        }
    }
    counts
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median
/// — the spread the benchmark's bounds are judged against.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    if med == 0.0 {
        return None;
    }
    Some((q3 - q1) / med.abs())
}

/// A per-operation ratio that keeps the base it was divided by, so every
/// ratio is printed with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerOp {
    /// The counted quantity.
    pub total: f64,
    /// Operations it is spread over.
    pub ops: u64,
}

impl PerOp {
    pub fn new(total: f64, ops: u64) -> PerOp {
        PerOp { total, ops }
    }

    /// `total / ops`, 0.0 over an empty base.
    pub fn value(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total / self.ops as f64
        }
    }

    /// `"12.5 (2500 / 200 ops)"`.
    pub fn describe(&self) -> String {
        format!("{:.4} ({} / {} ops)", self.value(), self.total, self.ops)
    }
}

/// `part / whole`, 0.0 when the whole is empty.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 2000 samples: p99 leaves 20 beyond — supported as asked.
        assert_eq!(supported_tail(2000, 0.99), Some(0.99));
        // 1000 samples: p99 leaves exactly 10 beyond — still supported.
        assert_eq!(supported_tail(1000, 0.99), Some(0.99));
        // 500 samples: p99 leaves only 5; the highest with 10 beyond is p98.
        assert_eq!(supported_tail(500, 0.99), Some(0.98));
        // Too few samples for any tail.
        assert_eq!(supported_tail(19, 0.99), None);

        let v: Vec<u64> = (1..=500).collect();
        let t = tail_sorted(&v, 0.99);
        assert_eq!(t.value, 490);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.name(), "p98");
        let few: Vec<u64> = (1..=5).collect();
        assert_eq!(tail_sorted(&few, 0.99).value, 5);
        assert_eq!(Tail { q: 0.986, value: 0 }.name(), "p98.6");
    }

    #[test]
    fn slice_counts_ignore_the_overhang_and_keep_empty_slices() {
        // Second 0 holds two completions, second 1 none, second 2 three;
        // a completion past the last slice must not count.
        let times = [
            0,
            999_999_999,
            2_000_000_000,
            2_500_000_000,
            2_999_999_999,
            3_000_000_000,
        ];
        let counts = counts_per_slice(times.into_iter(), 1_000_000_000, 3);
        assert_eq!(counts, vec![2, 0, 3]);
        let as_f64: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        assert_eq!(median(&as_f64), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some([1.0, 2.0, 4.0]));
        assert_eq!(quartiles(&[1.0]), None);
        let share = iqr_share(&v).expect("ten values");
        assert!((share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_op_prints_its_base() {
        let r = PerOp::new(2500.0, 200);
        assert_eq!(r.value(), 12.5);
        assert_eq!(r.describe(), "12.5000 (2500 / 200 ops)");
        assert_eq!(PerOp::new(5.0, 0).value(), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
