//! Trial statistics: mean / standard deviation / extrema over repeated
//! simulation runs.

/// Summary statistics of one metric across trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`n − 1` denominator; 0 for `n ≤ 1`).
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`. Returns the zero summary for an empty slice.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Summary {
                count: 0,
                ..Summary::exact(0.0)
            };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Summary {
            count: samples.len(),
            mean,
            std_dev: var.sqrt(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// A summary of a single known value (handy for analytic columns).
    #[must_use]
    pub fn exact(value: f64) -> Self {
        Summary {
            count: 1,
            mean: value,
            std_dev: 0.0,
            min: value,
            max: value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[4.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 4.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn known_statistics() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev of this classic set is ≈ 2.138.
        assert!((s.std_dev - 2.138_089_935).abs() < 1e-6);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn exact_summary() {
        let s = Summary::exact(3.5);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
    }
}
