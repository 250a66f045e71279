//! The benchmark's own arithmetic: percentiles, the samples-beyond rule,
//! latency-limit accounting and the open-loop validity checks.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.  `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), p)?;
    sorted.get(rank - 1).copied()
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    nearest_rank(n, p).map_or(0, |rank| n - rank)
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer make it the value of a handful of outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Whether `n` samples support reporting percentile `p`.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// Sorts a copy and takes its nearest-rank percentile (0 when empty).
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p).unwrap_or(0.0)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The outcome of one sent request, as the limit accounting sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Completed, with its latency in milliseconds.
    Done(f64),
    /// Failed or refused: it never produced an answer.
    Failed,
}

/// Share of sent requests that finished within `limit_ms`.  A failed or
/// refused request counts as a miss, so shedding load never improves it.
pub fn within_limit_ratio(outcomes: &[Outcome], limit_ms: f64) -> f64 {
    let hits = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Done(ms) if *ms <= limit_ms))
        .count();
    ratio(hits as f64, outcomes.len() as f64)
}

/// Whether an open-loop backlog was still growing when the run ended.
///
/// `waits` are `(scheduled offset, wait for a free client thread)` pairs in
/// milliseconds.  The window is cut into five equal time bins; the backlog
/// grows at the end when the last bin's median wait exceeds twice the median
/// of the bins' medians plus one millisecond.  Medians, so that one slow
/// request late in a stable run does not count as growth; the absolute floor
/// keeps sub-millisecond scheduler noise from tripping it.
pub fn backlog_growing(waits: &[(f64, f64)], window_ms: f64) -> bool {
    const BINS: usize = 5;
    if waits.is_empty() || window_ms <= 0.0 {
        return false;
    }
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); BINS];
    for &(at, wait) in waits {
        let bin = ((at / window_ms * BINS as f64) as usize).min(BINS - 1);
        bins[bin].push(wait);
    }
    let medians: Vec<f64> = bins.iter().map(|b| percentile_of(b, 50.0)).collect();
    medians[BINS - 1] > 2.0 * percentile_of(&medians, 50.0) + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.0));
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of n samples has n - ceil(0.99 n) beyond it: 1000 is the
        // smallest sample count that leaves ten.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(supports_percentile(1000, 99.0));
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert!(!supports_percentile(999, 99.0));
        assert!(supports_percentile(100, 90.0));
        assert!(!supports_percentile(99, 90.0));
        assert_eq!(samples_beyond(0, 99.0), 0);
        assert!(!supports_percentile(0, 50.0));
    }

    #[test]
    fn failures_count_as_limit_misses() {
        let outcomes = [
            Outcome::Done(10.0),
            Outcome::Done(50.0),
            Outcome::Done(50.1),
            Outcome::Failed,
        ];
        assert_eq!(within_limit_ratio(&outcomes, 50.0), 0.5);
        assert_eq!(within_limit_ratio(&[Outcome::Failed], 1e9), 0.0);
        assert_eq!(within_limit_ratio(&[], 50.0), 0.0);
    }

    #[test]
    fn backlog_growth_needs_a_rising_tail() {
        let steady: Vec<(f64, f64)> = (0..100).map(|i| (f64::from(i) * 10.0, 0.2)).collect();
        assert!(!backlog_growing(&steady, 1000.0));
        let rising: Vec<(f64, f64)> = (0..100)
            .map(|i| (f64::from(i) * 10.0, if i >= 80 { 30.0 } else { 0.2 }))
            .collect();
        assert!(backlog_growing(&rising, 1000.0));
        // Sub-millisecond wobble never counts as growth.
        let wobble: Vec<(f64, f64)> = (0..100)
            .map(|i| (f64::from(i) * 10.0, if i >= 80 { 0.9 } else { 0.05 }))
            .collect();
        assert!(!backlog_growing(&wobble, 1000.0));
        // Nor does a burst of slow requests late in a stable run.
        let burst: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                (
                    f64::from(i) * 10.0,
                    if (90..95).contains(&i) { 40.0 } else { 0.0 },
                )
            })
            .collect();
        assert!(!backlog_growing(&burst, 1000.0));
        assert!(!backlog_growing(&[], 1000.0));
    }
}
