//! The harness's own arithmetic: order statistics, the percentile rule,
//! span self-time, the output digest, and the log-log slope. Kept free of
//! pipeline types so every rule here is unit-tested on small inputs.

use emd_text::token::{SentenceId, Span};

/// Samples a percentile must leave strictly above it before it may be
/// reported: fewer and the "tail" is a handful of outliers.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 1) of `xs`: the smallest sample
/// with at least `p` of all samples at or below it. `None` unless at
/// least [`TAIL_SAMPLES`] samples rank above the reported one.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 1.0, "percentile out of range: {p}");
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let rank = nearest_rank(p, n);
    if n - rank < TAIL_SAMPLES {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps `p * n` products such as `0.95 * 200` from rounding up a
/// rank through floating-point error.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Smallest sample count for which [`percentile`] reports `p`.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| n - nearest_rank(p, n) >= TAIL_SAMPLES)
        .expect("some sample count supports every p < 1")
}

/// Total length of the union of half-open intervals `[start, end)`.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span: its duration minus the part of it that child
/// spans cover. Children may overlap each other (work fanned out over
/// threads) or stick out of the parent; each instant of the parent counts
/// at most once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .collect();
    (pe - ps) - union_len(&clipped)
}

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a pipeline's emitted mentions, in emission order: sentence
/// ids, span counts and span bounds all feed it, so any change to what is
/// emitted (or its order) changes the digest.
pub fn digest(per_sentence: &[(SentenceId, Vec<Span>)]) -> u64 {
    let mut h = Fnv::new();
    h.word(per_sentence.len() as u64);
    for (sid, spans) in per_sentence {
        h.word(sid.tweet_id);
        h.word(u64::from(sid.sent_id));
        h.word(spans.len() as u64);
        for s in spans {
            h.word(s.start as u64);
            h.word(s.end as u64);
        }
    }
    h.finish()
}

/// Slope of `y` against `x` on log-log axes between two points: the
/// exponent `k` in `y ∝ x^k`.
pub fn loglog_slope((x0, y0): (f64, f64), (x1, y1): (f64, f64)) -> f64 {
    (y1 / y0).ln() / (x1 / x0).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p95_needs_ten_samples_above_it() {
        // 200 samples: rank 190, ten above it — reportable.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), Some(190.0));
        // 199 samples: rank ceil(189.05) = 190, nine above — refused.
        assert_eq!(percentile(&xs[..199], 0.95), None);
        assert_eq!(min_samples_for(0.95), 200);
        // The median of a small set is fine; its tail is the other half.
        assert_eq!(min_samples_for(0.5), 20);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=400).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 0.95), Some(380.0));
        assert_eq!(percentile(&xs, 0.5), Some(200.0));
    }

    #[test]
    fn self_time_without_children_is_duration() {
        assert_eq!(self_time((10, 50), &[]), 40);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [20,30) and [25,40) overlap on [25,30): together they
        // cover [20,40) = 20 of the parent's 100.
        assert_eq!(self_time((0, 100), &[(20, 30), (25, 40)]), 80);
        // A child nested in another adds nothing.
        assert_eq!(self_time((0, 100), &[(20, 60), (30, 40)]), 60);
        // Touching children do not double count the shared instant.
        assert_eq!(self_time((0, 100), &[(10, 20), (20, 30)]), 80);
    }

    #[test]
    fn self_time_clips_children_to_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
        assert_eq!(self_time((10, 20), &[(0, 40)]), 0);
    }

    #[test]
    fn digest_sees_order_and_bounds() {
        let a = SentenceId::new(1, 0);
        let b = SentenceId::new(2, 0);
        let s = |x, y| Span { start: x, end: y };
        let base = vec![(a, vec![s(0, 1)]), (b, vec![])];
        assert_eq!(digest(&base), digest(&base.clone()));
        let swapped = vec![(b, vec![]), (a, vec![s(0, 1)])];
        assert_ne!(digest(&base), digest(&swapped));
        let moved = vec![(a, vec![s(0, 2)]), (b, vec![])];
        assert_ne!(digest(&base), digest(&moved));
        // Spans moving between sentences must not collide.
        let shifted = vec![(a, vec![]), (b, vec![s(0, 1)])];
        assert_ne!(digest(&base), digest(&shifted));
    }

    #[test]
    fn loglog_slope_recovers_power() {
        let k = loglog_slope((2.0, 8.0), (4.0, 32.0));
        assert!((k - 2.0).abs() < 1e-12);
        let k = loglog_slope((10.0, 3.0), (100.0, 30.0));
        assert!((k - 1.0).abs() < 1e-12);
    }
}
