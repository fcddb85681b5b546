//! Order statistics over timing samples.

/// Quantile `q` in `[0, 1]` of `sorted` (ascending), linearly interpolated
/// between the two nearest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p10: f64,
    pub p50: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    /// Value at [`tail_rank`]'s percentile.
    pub tail: f64,
    /// The percentile `tail` is taken at (100 = the maximum).
    pub tail_pct: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    let (tail_pct, idx) = tail_rank(s.len());
    Summary {
        n: s.len(),
        p10: quantile(&s, 0.1),
        p50: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
        min: s[0],
        max: s[s.len() - 1],
        tail: s[idx],
        tail_pct,
    }
}

/// The highest of a few fixed percentiles that still has at least ten
/// samples beyond it, as `(percentile, index into the sorted samples)`.
/// Below 20 samples no percentile qualifies and the maximum stands in
/// (reported as percentile 100).
pub fn tail_rank(n: usize) -> (f64, usize) {
    assert!(n > 0, "tail of no samples");
    for permille in [999, 990, 950, 900, 750, 500] {
        // Nearest rank: the smallest sample with at least that share of
        // the samples at or below it.
        let idx = (permille * n).div_ceil(1000) - 1;
        if n - 1 - idx >= 10 {
            return (permille as f64 / 10.0, idx);
        }
    }
    (100.0, n - 1)
}
