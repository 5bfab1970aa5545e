//! Order statistics over a handful of timing samples.

/// Minimum, quartiles and maximum of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or one holding a NaN.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        let [q1, median, q3] = quartiles(&sorted);
        Summary {
            n: sorted.len(),
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
        }
    }

    /// A single measured value.
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three quartiles of an ascending sample, by the rule Python's
/// `statistics.quantiles(data, n=4)` uses (the one the benchmark's
/// acceptance check applies): cut points at `i·(len+1)/4`, interpolated
/// linearly between the two values next to them (so for a tiny sample the
/// outer quartiles can lie beyond it). A single value is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // ten values, as the acceptance check takes them
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn summary_sorts_and_reports_extremes_and_spread() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(s.spread(), 1.0);
        let one = Summary::single(7.5);
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.5, 7.5, 7.5, 1));
        assert_eq!(one.spread(), 0.0);
    }
}
