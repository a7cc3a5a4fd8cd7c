//! Percentiles, medians and the metric-name grammar.

/// How many samples must lie above a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Tail percentiles tried, highest first, by [`tail`].
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Inclusive-rank percentile of ascending `sorted`: the `ceil(p/100 · n)`-th
/// smallest sample (1-based), so p50 of `[1, 2, 3, 4]` is 2 and p100 is the
/// maximum. Returns `None` for an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let n = sorted.len();
    // The slack absorbs rounding in p·n (99.9 · 10000 / 100 is not exactly
    // 9990 in binary floating point).
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted.get(rank.clamp(1, n) - 1).copied()
}

/// Samples strictly greater than `value` in ascending `sorted`.
pub fn count_above(sorted: &[f64], value: f64) -> usize {
    sorted.len() - sorted.partition_point(|&x| x <= value)
}

/// A percentile together with the sample counts that back it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.0.
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly above `value`.
    pub above: usize,
    /// All samples.
    pub n: usize,
}

/// The value of percentile `p` with its backing counts.
pub fn at(sorted: &[f64], p: f64) -> Option<Tail> {
    let value = percentile(sorted, p)?;
    Some(Tail {
        p,
        value,
        above: count_above(sorted, value),
        n: sorted.len(),
    })
}

/// The highest percentile among p99.9, p99, p95, p90 and p75 that leaves at
/// least [`TAIL_SAMPLES`] samples above it. `None` when even p75 does not.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    TAIL_CANDIDATES
        .iter()
        .filter_map(|&p| at(sorted, p))
        .find(|t| t.above >= TAIL_SAMPLES)
}

/// Sorts a copy of `values` ascending (NaN-free input assumed; NaNs sort
/// last under `total_cmp`).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median by the same inclusive rank as [`percentile`]; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0).unwrap_or(0.0)
}

/// Metric names: 1 to 64 characters of ASCII letters, digits, `_`, `.` and
/// `-`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Units: 1 to 16 characters of ASCII letters, digits, `_`, `/`, `%`, `.`
/// and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_inclusive_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(2.0));
        assert_eq!(percentile(&v, 75.0), Some(3.0));
        assert_eq!(percentile(&v, 76.0), Some(4.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&v, 0.0), None);
        assert_eq!(percentile(&v, 101.0), None);
    }

    #[test]
    fn p95_of_two_hundred_leaves_ten_above() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = at(&v, 95.0).expect("non-empty");
        assert_eq!(t.value, 190.0);
        assert_eq!(t.above, 10);
        assert_eq!(t.n, 200);
    }

    #[test]
    fn count_above_skips_ties() {
        let v = [1.0, 2.0, 2.0, 2.0, 3.0];
        assert_eq!(count_above(&v, 2.0), 1);
        assert_eq!(count_above(&v, 0.5), 5);
        assert_eq!(count_above(&v, 3.0), 0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_above() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).expect("1000 samples have a tail");
        assert_eq!((t.p, t.value, t.above), (99.0, 990.0, 10));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.p), Some(99.9));
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        let t = tail(&v).expect("120 samples have a p90 tail");
        assert_eq!((t.p, t.above), (90.0, 12));
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&v), None);
    }

    #[test]
    fn tail_counts_ties_as_not_above() {
        // 990 equal samples then 10 larger: p99 sits on the tie plateau and
        // leaves exactly the 10 larger ones above it.
        let mut v = vec![5.0; 990];
        v.extend((1..=10).map(|k| 5.0 + f64::from(k)));
        let t = tail(&v).expect("ten samples above the plateau");
        assert_eq!((t.p, t.value, t.above), (99.0, 5.0, 10));
    }

    #[test]
    fn median_is_p50() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "latency_p50_ms",
            "minlp.tree_ms",
            "serve.work.newton_iters",
            "a-b",
            "9lives",
            &"x".repeat(64),
        ] {
            assert!(valid_metric_name(ok), "{ok} should be valid");
        }
        for bad in [
            "",
            "_leading",
            ".dot",
            "-dash",
            "has space",
            "slash/unit",
            "pct%",
            "ünïcode",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn unit_grammar() {
        for ok in ["ms", "s", "1/s", "ops/s", "%", "count/op", "MB"] {
            assert!(valid_unit(ok), "{ok} should be valid");
        }
        for bad in ["", "m s", "a+b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?} should be rejected");
        }
    }
}
