//! Percentiles and the verdict digest.

use iotsan::FleetReport;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, one outlier would decide it.
pub const MIN_BEYOND: usize = 10;

/// The nearest rank of percentile `p` (in percent) among `n` samples:
/// `ceil(p * n / 100)`, clamped to `1..=n`.  Integer arithmetic, so
/// `p = 99, n = 1000` is rank 990 exactly.
fn rank(p: usize, n: usize) -> usize {
    ((p * n).div_ceil(100)).clamp(1, n)
}

/// Nearest-rank percentile `p` of `sorted` (ascending); `None` when empty.
pub fn percentile(sorted: &[f64], p: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// [`percentile`] for a tail: `None` unless at least [`MIN_BEYOND`]
/// samples lie beyond the percentile's rank.
pub fn tail_percentile(sorted: &[f64], p: usize) -> Option<f64> {
    if sorted.is_empty() || sorted.len() - rank(p, sorted.len()) < MIN_BEYOND {
        return None;
    }
    percentile(sorted, p)
}

/// Sorts a copy of `values` ascending (`+inf` marks a failed unit and sorts
/// last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// The verdict of one unit, as a digest of its sorted `(group apps,
/// violated property ids)` pairs.  State and transition counts are left
/// out on purpose, so reductions that shrink the search keep the digest.
pub fn verdict_digest(report: &FleetReport) -> u64 {
    let mut pairs: Vec<String> = report
        .groups
        .iter()
        .map(|g| {
            let ids: Vec<String> = g.violated_properties().iter().map(u32::to_string).collect();
            format!("{}:{}", g.apps.join(","), ids.join(","))
        })
        .collect();
    pairs.sort();
    fnv1a(pairs.join(";").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&values, 50), Some(5.0));
        assert_eq!(percentile(&values, 90), Some(9.0));
        assert_eq!(percentile(&values, 91), Some(10.0));
        assert_eq!(percentile(&values, 0), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99), Some(990.0));
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 90), Some(90.0));
        assert_eq!(tail_percentile(&hundred[..99], 90), None);
        assert_eq!(tail_percentile(&hundred, 99), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 99), Some(990.0));
        assert_eq!(tail_percentile(&thousand[..999], 99), None);
    }

    #[test]
    fn failed_units_sort_last() {
        assert_eq!(sorted(&[f64::INFINITY, 2.0, 1.0]), vec![1.0, 2.0, f64::INFINITY]);
    }
}
