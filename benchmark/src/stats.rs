//! Order statistics shared by every workload.

/// Nearest-rank percentile `p` (0..=100) of an ascending-sorted slice;
/// 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The median of an ascending-sorted slice.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// A tail percentile under the benchmark's tail rule: report percentile
/// `p`, but never one with fewer than [`TAIL_SAMPLES`] samples beyond
/// it. With too few samples for `p`, the highest percentile that still
/// has that many samples beyond it is reported instead, and never less
/// than the median — so a tail is always backed by a handful of
/// observations rather than by the single slowest one.
pub fn tail(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let highest = 100.0 * (n.saturating_sub(TAIL_SAMPLES)) as f64 / n as f64;
    percentile(sorted, p.min(highest).max(50.0))
}

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// A run's figure from the per-window (or per-epoch, per-pass) figures
/// of one metric: their median, so a stall in a few windows does not
/// move it.
pub fn steady(windows: &[f64]) -> f64 {
    median(&sorted(windows.to_vec()))
}

/// Sort a sample vector ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// Mean of a slice; 0 for an empty one.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A percentile of a program histogram from its power-of-4 buckets,
/// interpolated geometrically inside the bucket that holds the rank and
/// clamped to the recorded min/max. 0 for an empty histogram.
pub fn histogram_percentile(h: &pse_obs::HistogramSummary, p: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0) * h.count as f64).ceil().max(1.0);
    let mut seen = 0u64;
    for b in &h.buckets {
        let before = seen;
        seen += b.count;
        if (seen as f64) < rank {
            continue;
        }
        // `le == 0` is the overflow bucket above the largest boundary.
        let hi = if b.le == 0 { h.max } else { b.le.min(h.max) } as f64;
        let lo = if b.le <= 1 { 0.0 } else { (b.le / 4) as f64 }.max(h.min as f64);
        let frac = (rank - before as f64) / b.count as f64;
        let v = if lo <= 0.0 { hi * frac } else { lo * (hi / lo).powf(frac) };
        return v.clamp(h.min as f64, h.max as f64);
    }
    h.max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_rank() {
        // Enough samples: p99 of 1000 leaves exactly 10 beyond it.
        let v = ramp(1000);
        assert_eq!(tail(&v, 99.0), 990.0);
        assert_eq!(v.iter().filter(|&&x| x > tail(&v, 99.0)).count(), 10);
        // Too few for p99: the highest percentile with 10 beyond wins.
        let v = ramp(200);
        assert_eq!(tail(&v, 99.0), 190.0);
        assert_eq!(v.iter().filter(|&&x| x > tail(&v, 99.0)).count(), 10);
        // Never below the median, even with a handful of samples.
        let v = ramp(12);
        assert_eq!(tail(&v, 99.0), median(&v));
        assert_eq!(tail(&[7.0], 99.0), 7.0);
        assert_eq!(tail(&[], 99.0), 0.0);
        // A low percentile is unaffected by the cap.
        assert_eq!(tail(&ramp(1000), 90.0), 900.0);
    }

    #[test]
    fn histogram_percentiles_interpolate_inside_buckets() {
        let h = pse_obs::HistogramSummary {
            name: "x".into(),
            count: 4,
            sum: 0,
            min: 20,
            max: 200,
            buckets: vec![
                pse_obs::BucketEntry { le: 64, count: 2 },
                pse_obs::BucketEntry { le: 256, count: 2 },
            ],
        };
        let p50 = histogram_percentile(&h, 50.0);
        assert!((20.0..=64.0).contains(&p50), "{p50}");
        let p100 = histogram_percentile(&h, 100.0);
        assert_eq!(p100, 200.0);
        let empty = pse_obs::HistogramSummary { count: 0, buckets: vec![], ..h };
        assert_eq!(histogram_percentile(&empty, 50.0), 0.0);
    }
}
