//! Timing statistics for the efficiency experiments (Fig. 4/5).

/// Summary statistics of a sample of durations (in microseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingStats {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Minimum.
    pub min_us: f64,
    /// 25th percentile.
    pub p25_us: f64,
    /// Median.
    pub median_us: f64,
    /// 75th percentile.
    pub p75_us: f64,
    /// Maximum.
    pub max_us: f64,
}

impl TimingStats {
    /// Compute statistics from raw samples (microseconds). Returns zeroed
    /// stats for an empty sample.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> TimingStats {
        if samples.is_empty() {
            return TimingStats {
                n: 0,
                mean_us: 0.0,
                min_us: 0.0,
                p25_us: 0.0,
                median_us: 0.0,
                p75_us: 0.0,
                max_us: 0.0,
            };
        }
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let q = |p: f64| -> f64 {
            let idx = (p * (s.len() - 1) as f64).round() as usize;
            s[idx]
        };
        TimingStats {
            n: s.len(),
            mean_us: s.iter().sum::<f64>() / s.len() as f64,
            min_us: s[0],
            p25_us: q(0.25),
            median_us: q(0.5),
            p75_us: q(0.75),
            max_us: s[s.len() - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_known_samples() {
        let s = TimingStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert!((s.mean_us - 3.0).abs() < 1e-12);
        assert_eq!(s.min_us, 1.0);
        assert_eq!(s.median_us, 3.0);
        assert_eq!(s.max_us, 5.0);
    }

    #[test]
    fn empty_samples() {
        let s = TimingStats::from_samples(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean_us, 0.0);
    }
}
