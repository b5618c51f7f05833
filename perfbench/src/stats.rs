//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank rule: `p(q)` is the smallest sample
//! with at least `q·n` samples at or below it. A tail percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie strictly beyond its
//! rank, so one outlier cannot set it.

/// Samples a tail percentile needs beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the rank of quantile `q`.
#[must_use]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// A set of samples, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile; 0 for an empty set.
    pub fn p(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[rank(self.sorted.len(), q) - 1]
    }

    /// Like [`Samples::p`], but fails unless at least [`MIN_BEYOND`]
    /// samples lie beyond the rank.
    pub fn tail(&self, q: f64, what: &str) -> Result<f64, String> {
        let beyond = samples_beyond(self.len(), q);
        if beyond < MIN_BEYOND {
            return Err(format!(
                "{what}: p{} of {} samples has only {beyond} beyond it (need {MIN_BEYOND})",
                q * 100.0,
                self.len()
            ));
        }
        Ok(self.p(q))
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}

/// Median of a few values (mean of the middle two for an even count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.p(0.5), 50.0);
        assert_eq!(s.p(0.9), 90.0);
        assert_eq!(s.p(0.99), 99.0);
        assert_eq!(s.p(1.0), 100.0);
        assert_eq!(s.p(0.0), 1.0);
        let odd = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(odd.p(0.5), 2.0);
        assert_eq!(Samples::default().p(0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(0, 0.5), 0);
        let enough = Samples::new((0..100).map(f64::from).collect());
        assert_eq!(enough.tail(0.9, "x"), Ok(89.0));
        let short = Samples::new((0..99).map(f64::from).collect());
        assert!(short.tail(0.9, "x").is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
