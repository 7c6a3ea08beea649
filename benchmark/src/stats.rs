//! Order statistics for latency samples, and the reduction over
//! identical rounds that takes host noise out of them.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it: with fewer, the
//! percentile is set by a handful of outliers and does not repeat.
//!
//! The untraced pass repeats one request stream for several rounds from
//! the same start, so position `j` of the stream is the same request
//! against the same document in every round. A shared host only ever
//! adds time — and adds it in stretches from milliseconds to seconds —
//! so the fastest of a position's observations estimates what the
//! request costs ([`fastest_per_position`]), and the fastest observation
//! of a short run of consecutive requests estimates what that run costs
//! with its queueing left in ([`quiet_total`]).

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, ascending.
const TAILS: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The nearest rank (1-based) of percentile `p` (0–100, to a tenth)
/// among `count` samples, in whole numbers: `0.999 * 10_000` is not
/// 9990 in floating point.
fn rank(count: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * count).div_ceil(1000).clamp(1, count.max(1))
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    sorted.get(rank(sorted.len(), p) - 1).copied()
}

/// Whether percentile `p` of `count` samples has [`MIN_BEYOND`] samples
/// beyond it.
pub fn supported(count: usize, p: f64) -> bool {
    count.saturating_sub(rank(count, p)) >= MIN_BEYOND
}

/// The highest of 90/95/99/99.9 that `count` samples support, if any.
pub fn tail_percentile(count: usize) -> Option<f64> {
    TAILS.iter().copied().rev().find(|&p| supported(count, p))
}

/// Each position's fastest observation over `rounds` (one latency per
/// position per round; rounds are equally long).
pub fn fastest_per_position(rounds: &[Vec<f64>]) -> Vec<f64> {
    let len = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|j| rounds.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The stream's duration on a quiet host: the stream is cut into
/// `chunks` runs of consecutive positions, and each run counts with the
/// smallest sum of its latencies that any round observed. One chunk is
/// the fastest whole round; one chunk per position would drop the
/// waiting a request does behind its neighbours.
pub fn quiet_total(rounds: &[Vec<f64>], chunks: usize) -> f64 {
    let len = rounds.iter().map(Vec::len).min().unwrap_or(0);
    let chunks = chunks.clamp(1, len.max(1));
    (0..chunks)
        .map(|k| {
            let span = k * len / chunks..(k + 1) * len / chunks;
            rounds
                .iter()
                .map(|r| r[span.clone()].iter().sum::<f64>())
                .fold(f64::INFINITY, f64::min)
        })
        .filter(|t| t.is_finite())
        .sum()
}

/// Median, tail and maximum of one class of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The highest supported percentile and its value.
    pub tail: Option<(f64, f64)>,
    /// Largest sample.
    pub max: f64,
}

/// Summarises `values`; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let count = sorted.len();
    Some(Summary {
        count,
        p50: median(&sorted)?,
        tail: tail_percentile(count).and_then(|p| Some((p, percentile(&sorted, p)?))),
        max: *sorted.last()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v[..1], 99.0), Some(1.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 100 samples: p90 leaves 10 beyond, p95 leaves 5.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), None);
        // 200 samples: p95 leaves exactly 10.
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9), None);
    }

    #[test]
    fn rounds_reduce_to_their_fastest_observations() {
        let rounds = vec![
            vec![1.0, 9.0, 3.0, 4.0],
            vec![2.0, 2.0, 5.0, 1.0],
            vec![3.0, 3.0, 3.0, 3.0],
        ];
        assert_eq!(fastest_per_position(&rounds), vec![1.0, 2.0, 3.0, 1.0]);
        // One chunk: the fastest whole round (2+2+5+1 = 10).
        assert_eq!(quiet_total(&rounds, 1), 10.0);
        // Two chunks: min(10, 4, 6) + min(7, 6, 6).
        assert_eq!(quiet_total(&rounds, 2), 10.0);
        // A chunk per position is the sum of the per-position minima.
        assert_eq!(quiet_total(&rounds, 4), 7.0);
        assert_eq!(quiet_total(&rounds, 99), 7.0);
        assert_eq!(quiet_total(&[], 8), 0.0);
    }

    #[test]
    fn summary_reports_only_supported_percentiles() {
        let few: Vec<f64> = (1..=50).map(f64::from).collect();
        let s = summarize(&few).unwrap();
        assert_eq!((s.count, s.p50, s.tail, s.max), (50, 25.5, None, 50.0));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&many).unwrap();
        assert_eq!(s.tail, Some((99.0, 990.0)));
    }
}
