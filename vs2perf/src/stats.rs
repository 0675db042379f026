//! Summary statistics shared by every metric of the benchmark.
//!
//! One percentile rule for every tail metric: a percentile is only
//! reported where at least [`MIN_BEYOND`] samples lie beyond it, so a
//! "p99" over 300 samples is never one outlier's value. When the
//! requested percentile has too few samples beyond it, the highest
//! percentile (on a 0.1 grid) that has enough is reported instead,
//! together with the sample count.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile as reported: the value, the percentile actually used
/// and the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// Sample value at the nearest rank of `p`.
    pub value: f64,
    /// Percentile actually used (at most the one requested).
    pub p: f64,
    /// Number of samples.
    pub n: usize,
}

/// Nearest rank of the percentile `tenths / 10` over `n` samples,
/// 1-based. Integer arithmetic, so grid points land exactly.
fn rank(tenths: usize, n: usize) -> usize {
    ((tenths * n).div_ceil(1000)).clamp(1, n)
}

/// Nearest-rank percentile `want` of `samples` under the reporting rule
/// above. `None` when there are not more than [`MIN_BEYOND`] samples,
/// so no percentile at all has enough beyond it.
pub fn percentile(samples: &[f64], want: f64) -> Option<Pct> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Walk down a 0.1 grid from the requested percentile.
    let want = (want * 10.0).round() as usize;
    (1..=want).rev().find_map(|tenths| {
        let r = rank(tenths, n);
        (n - r >= MIN_BEYOND).then(|| Pct {
            value: sorted[r - 1],
            p: tenths as f64 / 10.0,
            n,
        })
    })
}

/// Median (p50 under the rule above), or 0 for too few samples.
pub fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |p| p.value)
}

/// Plain median of a small set of repeats (setup times): the middle
/// value, or the mean of the two middle values.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean, 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// FNV-1a 64-bit digest, the fingerprint recorded for each input file.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let p = percentile(&ramp(1000), 99.0).unwrap();
        assert_eq!((p.p, p.value, p.n), (99.0, 990.0, 1000));
        // 999 samples: rank of p99 is 990, only 9 beyond it.
        let p = percentile(&ramp(999), 99.0).unwrap();
        assert!(p.p < 99.0, "{p:?}");
        assert!(999 - rank(989, 999) >= MIN_BEYOND);
        assert_eq!(p.p, 98.9);
    }

    #[test]
    fn small_samples_fall_back_to_the_highest_supported_percentile() {
        // 100 samples: p90 leaves exactly 10 beyond (rank 90).
        let p = percentile(&ramp(100), 99.0).unwrap();
        assert_eq!((p.p, p.value), (90.0, 90.0));
        // The median needs 20 samples to be reported as p50.
        let p = percentile(&ramp(20), 50.0).unwrap();
        assert_eq!((p.p, p.value), (50.0, 10.0));
        let p = percentile(&ramp(19), 50.0).unwrap();
        assert!(p.p < 50.0);
        assert_eq!(p.n, 19);
    }

    #[test]
    fn too_few_samples_report_nothing() {
        assert!(percentile(&ramp(10), 50.0).is_none());
        assert!(percentile(&[], 99.0).is_none());
        assert_eq!(p50(&ramp(5)), 0.0);
        let p = percentile(&ramp(11), 50.0).unwrap();
        assert_eq!((p.value, p.n), (1.0, 11));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(500);
        v.reverse();
        assert_eq!(percentile(&v, 50.0), percentile(&ramp(500), 50.0));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
