//! Order statistics and process probes shared by every workload.

/// The median of `values` (mean of the middle pair for even counts); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The tail quantile reported as "p99": 0.99 when at least 1000 samples
/// exist, otherwise the highest quantile that still leaves ten samples
/// beyond it (never below the median).
pub fn tail_level(samples: usize) -> f64 {
    if samples == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / samples as f64).clamp(0.5, 0.99)
}

/// A latency sample set summarized by its median and supported tail.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tail {
    /// Median, in the samples' unit.
    pub p50: f64,
    /// The [`tail_level`] quantile, in the samples' unit.
    pub tail: f64,
    /// The quantile `tail` was taken at.
    pub level: f64,
    /// Number of samples.
    pub samples: usize,
}

impl Tail {
    /// Summarizes `values`.
    pub fn of(values: &[f64]) -> Tail {
        let level = tail_level(values.len());
        Tail { p50: median(values), tail: quantile(values, level), level, samples: values.len() }
    }

    /// One line stating the tail level and sample count behind it.
    pub fn describe(&self, what: &str, unit: &str) -> String {
        format!(
            "{what}: p50 {:.4} {unit}, p{:.1} {:.4} {unit} over {} samples",
            self.p50,
            self.level * 100.0,
            self.tail,
            self.samples
        )
    }
}

/// Peak resident set size of this process in MB, from `VmHWM` (Linux);
/// `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(5000), 0.99);
        assert_eq!(tail_level(1000), 0.99);
        assert!((tail_level(200) - 0.95).abs() < 1e-12);
        assert_eq!(tail_level(12), 0.5);
    }
}
