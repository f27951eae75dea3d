//! Medians, quartile spread and the bound comparison behind `--aa`.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, bytes).
    Lower,
    /// Larger values are better (accuracy, contiguity).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no measurements");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(values, n=4)`
/// (the "exclusive" method) gives them.  `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let v = sorted(values);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Signed: the clamp can push j past i(n+1)/4, which extrapolates.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the acceptance rule is written in.  Zero below two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values),
        None => 0.0,
    }
}

/// Outcome of comparing one (metric, workload) pair between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The second median is no worse than the first by more than the bound.
    Within,
    /// The second median is worse than the first by more than the bound.
    Outside,
    /// The run-to-run spread is wider than the bound, so neither can be said.
    Unresolved,
}

impl Verdict {
    /// The phrase `--aa` prints.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Outside => "outside bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare a second measurement against a first.  `bound` is the share of the
/// first median by which the metric may worsen; `spread` the wider of the two
/// sets' run-to-run quartile spreads.
pub fn compare(better: Better, bound: f64, first: f64, second: f64, spread: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    let worsening = match better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    if worsening > bound * first.abs() {
        Verdict::Outside
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[2.0]), 0.0);
    }

    #[test]
    fn bound_comparison_respects_direction_and_spread() {
        use Better::{Higher, Lower};
        // 5% slower against a 10% bound is within; 15% slower is outside.
        assert_eq!(compare(Lower, 0.10, 2.0, 2.1, 0.02), Verdict::Within);
        assert_eq!(compare(Lower, 0.10, 2.0, 2.3, 0.02), Verdict::Outside);
        // Getting better is never a regression, however large.
        assert_eq!(compare(Lower, 0.10, 2.0, 1.0, 0.02), Verdict::Within);
        assert_eq!(compare(Higher, 0.01, 0.95, 0.99, 0.0), Verdict::Within);
        assert_eq!(compare(Higher, 0.01, 0.95, 0.93, 0.0), Verdict::Outside);
        // A spread wider than the bound hides any verdict.
        assert_eq!(compare(Lower, 0.10, 2.0, 2.3, 0.12), Verdict::Unresolved);
        // Exactly on the bound is still within.
        assert_eq!(compare(Lower, 0.5, 2.0, 3.0, 0.0), Verdict::Within);
    }
}
